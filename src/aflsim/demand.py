"""Expected-demand model linking a data owner's price and reputation to task offers.

The market treats demand as log-linear: offers scale linearly with the posted
price, shrink with reputation raised to the exponent a1, and are amplified by
a quality/ratings multiplier.  This is implemented exactly as modelled even
though the price direction runs against common intuition; the coefficients
are scenario inputs, not fitted values.
"""

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .config import MarketConstants

# Reputation floor guarding the 1/r**a1 factor, which blows up as r -> 0.
R_FLOOR_DEFAULT = 1e-3


def zeta(constants: "MarketConstants", alignment_epsilon: float, positive_ratings_Mp: int) -> float:
    """Demand multiplier exp(a0 + a3*eps) * Mp**a2 (with 0**0 == 1)."""
    if positive_ratings_Mp < 0:
        raise ValueError("positive_ratings_Mp must be >= 0")
    base = math.exp(constants.a0 + constants.a3 * alignment_epsilon)
    return base * float(positive_ratings_Mp) ** constants.a2


def expected_demand(
    price_p: float,
    reputation_r: float,
    zeta_value: float,
    a1: float,
    r_floor: float = R_FLOOR_DEFAULT,
) -> float:
    """Expected task offers per step: zeta * p / max(r, r_floor)**a1."""
    if price_p < 0:
        raise ValueError("price_p must be >= 0")
    if zeta_value < 0:
        raise ValueError("zeta_value must be >= 0")
    r = max(reputation_r, r_floor)
    return zeta_value * price_p / r**a1


def realize_demand(expected: float, cap_kappa_max: int, rng, mode: str = "poisson") -> int:
    """Draw an integer arrival count with the given mean, clamped below the cap.

    `mode` is "poisson" (default) or "round" for deterministic rounding; the
    result always lies in [0, cap_kappa_max - 1].
    """
    if expected < 0:
        raise ValueError("expected must be >= 0")
    if cap_kappa_max < 1:
        raise ValueError("cap_kappa_max must be >= 1")
    if mode == "poisson":
        draw = int(rng.poisson(expected))
    elif mode == "round":
        draw = int(round(expected))
    else:
        raise ValueError(f"unknown integerization mode: {mode!r}")
    return max(0, min(draw, cap_kappa_max - 1))
