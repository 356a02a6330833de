"""Queue-aware joint decision policy for data owners.

Each step the policy fixes, in order: how many pending tasks to work on, how
many to sub-delegate to trusted neighbours, the unit price to post, and
whether to accept new task offers at all.  Sub-delegation and acceptance are
threshold rules driven by the two virtual queues; the price is the stationary
point of the per-step pricing objective clamped at the reserve price.  That
objective is strictly convex in price, so the clamped stationary point is its
minimum over p >= p_min, not its maximum.  The ordering matters: the
sub-delegation rule consumes the work amount and the acceptance rule consumes
the just-set price.  The rules see the market only through a two-field
`DelegationContext`, which the market builds once per step for every DO.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import DataOwnerState
from .demand import R_FLOOR_DEFAULT


class DelegationContext(NamedTuple):
    """What the sub-delegation rules read of a DO's neighbourhood.

    `avg_neighbor_price` is the mean posted price over *all* neighbours and
    is +inf when the DO has no neighbours, which forces the sub-delegation
    threshold to keep every task local.  `has_eligible_delegate` says whether
    some neighbour could take the DO's best-paying delegable task; the
    market's router picks the actual delegate of each task.
    """

    avg_neighbor_price: float
    has_eligible_delegate: bool


def eligible_delegates(
    adjacency: np.ndarray,
    prices: np.ndarray,
    reps: np.ndarray,
    reference_payment: np.ndarray,
    r_min: np.ndarray,
) -> np.ndarray:
    """For each row of `adjacency`, one asking DO's neighbour mask, whether
    some neighbour is trusted enough (reputation >= that DO's `r_min`) and
    cheap enough (price <= its `reference_payment`) to take a task.  `prices`
    and `reps` are snapshots indexed by DO id."""
    trusted = reps >= r_min[:, None]
    cheap = prices <= reference_payment[:, None]
    return (adjacency & trusted & cheap).any(axis=1)


def decide_subdelegation(state: DataOwnerState, ctx: DelegationContext, theta: int) -> int:
    """Threshold rule: keep tasks local while availability-weighted neighbour
    prices outweigh the combined queue pressure; otherwise offload the backlog
    left after this step's work, within the per-step cap."""
    if not ctx.has_eligible_delegate:
        return 0
    if state.availability_rho * ctx.avg_neighbor_price - state.pending_q - state.urgency_Q >= 0:
        return 0
    return max(0, min(int(math.floor(state.pending_q)) - theta, state.s_max))


def decide_price(state: DataOwnerState, r_floor: float = R_FLOOR_DEFAULT, degenerate: bool | None = None) -> float:
    """Posted unit price: max(reserve, q / (2 * rho * r)).

    q / (2 * rho * r) is the stationary point of the pricing term
    z * p * (p*r*rho - q) / r**a1, which is strictly convex in p, so the
    clamped value is that term's minimum over p >= p_min.

    With zero availability or reputation below the floor the quotient is
    unbounded, so the rule falls back to the reserve price; callers can
    detect that through `price_is_degenerate`, and a caller that already
    has its answer passes it as `degenerate`.
    """
    if degenerate is None:
        degenerate = price_is_degenerate(state, r_floor)
    if degenerate:
        return state.reserve_price_p_min
    quotient = state.pending_q / (2.0 * state.availability_rho * state.reputation_r)
    return max(state.reserve_price_p_min, quotient)


def price_is_degenerate(state: DataOwnerState, r_floor: float = R_FLOOR_DEFAULT) -> bool:
    return state.availability_rho <= 0.0 or state.reputation_r < r_floor


def decide_acceptance(state: DataOwnerState, price_p: float) -> int:
    """Accept new offers iff the availability-weighted revenue rate strictly
    beats the pending backlog: rho * p * r - q > 0."""
    return 1 if state.availability_rho * price_p * state.reputation_r - state.pending_q > 0 else 0


def decide_work(state: DataOwnerState, mode: str = "greedy") -> int:
    """Work progress for the step.

    "greedy" drains as much backlog as capacity allows; "threshold" only
    works when queue pressure outweighs the availability-weighted unit cost,
    mirroring the sign test the sub-delegation rule uses.
    """
    cap = min(int(math.floor(state.pending_q)), state.theta_max)
    if mode == "greedy":
        return cap
    if mode == "threshold":
        if state.availability_rho * state.unit_cost_c - state.pending_q - state.urgency_Q >= 0:
            return 0
        return cap
    raise ValueError(f"unknown work mode: {mode!r}")
