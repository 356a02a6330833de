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

They assume a resolved config and audited state and check neither; the one
check kept is libm's ZeroDivisionError, which the market catches to name a DO.
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
    exponent = constants.a0 + constants.a3 * np.asarray(alignment_epsilon, dtype=float)
    base = np.fromiter(map(math.exp, exponent.tolist()), float)
    return base * np.fromiter(map(pow, mp.tolist(), repeat(constants.a2)), float)


@np.errstate(over="ignore", invalid="ignore")
def expected_demand(price_p, reputation_r, zeta_value, a1: float, r_floor: float) -> np.ndarray:
    """Expected task offers per step: zeta * p / max(r, r_floor)**a1."""
    denominator = np.fromiter(map(pow, np.maximum(reputation_r, r_floor).tolist(), repeat(a1)), float)
    if np.count_nonzero(denominator) < len(denominator):
        raise ZeroDivisionError("max(r, r_floor) ** a1 underflows to 0")
    return np.asarray(zeta_value, dtype=float) * np.asarray(price_p, dtype=float) / denominator


def realize_demand(expected, cap_kappa_max, rngs, mode: str) -> np.ndarray:
    """Draw integer arrival counts with the given means, clamped below the caps.

    `mode` is "poisson", one draw from each element's own generator
    in `rngs`, or "round" for deterministic rounding half to even, which
    draws nothing; each result lies in [0, cap_kappa_max - 1].
    """
    expected = np.asarray(expected, dtype=float)
    if mode == "poisson":
        draw = np.fromiter(map(np.random.Generator.poisson, rngs, expected.tolist()), np.int64, count=len(expected))
    else:
        draw = np.rint(expected)
    return np.minimum(draw, np.asarray(cap_kappa_max) - 1).astype(np.int64)
