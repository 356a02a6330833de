"""Expected-demand model linking a data owner's price and reputation to task offers.

The market treats demand as log-linear: offers scale linearly with the posted
price, shrink with reputation raised to the exponent a1, and are amplified by
a quality/ratings multiplier.  This is implemented exactly as modelled even
though the price direction runs against common intuition; the coefficients
are scenario inputs, not fitted values.

Every function is elementwise over 1-D arrays, one element per data owner.
`exp` and `pow` are evaluated in Python floats, element by element, so that
they are libm's: numpy's own `exp` and `power` differ from libm in the last
bit on some inputs, which would change a run's output.  Where libm raises
(an overflow, or a division by zero), so do these functions; products and
quotients overflow to inf without a warning, as Python floats do.
"""

import math
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .config import MarketConstants


@np.errstate(over="ignore", invalid="ignore")
def zeta(constants: "MarketConstants", alignment_epsilon, positive_ratings_Mp) -> np.ndarray:
    """Demand multiplier exp(a0 + a3*eps) * Mp**a2 (with 0**0 == 1)."""
    mp = np.asarray(positive_ratings_Mp, dtype=float)
    if np.any(mp < 0):
        raise ValueError("positive_ratings_Mp must be >= 0")
    exponent = constants.a0 + constants.a3 * np.asarray(alignment_epsilon, dtype=float)
    base = np.fromiter(map(math.exp, exponent.tolist()), float)
    return base * np.fromiter(map(pow, mp.tolist(), repeat(constants.a2)), float)


@np.errstate(over="ignore", invalid="ignore")
def expected_demand(price_p, reputation_r, zeta_value, a1: float, r_floor: float) -> np.ndarray:
    """Expected task offers per step: zeta * p / max(r, r_floor)**a1."""
    price_p = np.asarray(price_p, dtype=float)
    zeta_value = np.asarray(zeta_value, dtype=float)
    if np.any(price_p < 0):
        raise ValueError("price_p must be >= 0")
    if np.any(zeta_value < 0):
        raise ValueError("zeta_value must be >= 0")
    denominator = np.fromiter(map(pow, np.maximum(reputation_r, r_floor).tolist(), repeat(a1)), float)
    if not denominator.all():
        raise ZeroDivisionError("max(r, r_floor) ** a1 underflows to 0")
    return zeta_value * price_p / denominator


def realize_demand(expected, cap_kappa_max, rngs, mode: str) -> np.ndarray:
    """Draw integer arrival counts with the given means, clamped below the caps.

    `mode` is "poisson", one draw from each element's own generator
    in `rngs`, or "round" for deterministic rounding half to even, which
    draws nothing; each result lies in [0, cap_kappa_max - 1].
    """
    expected = np.asarray(expected, dtype=float)
    cap = np.asarray(cap_kappa_max)
    if not np.all((expected >= 0) & (expected < math.inf)):
        raise ValueError("expected must be finite and >= 0")
    if np.any(cap < 1):
        raise ValueError("cap_kappa_max must be >= 1")
    if mode == "poisson":
        draw = np.fromiter(map(np.random.Generator.poisson, rngs, expected.tolist()), np.int64, count=len(expected))
    elif mode == "round":
        draw = np.rint(expected)
    else:
        raise ValueError(f"unknown integerization mode: {mode!r}")
    return np.minimum(draw, cap - 1).astype(np.int64)
