"""Queue-aware joint decision policy for data owners.

Each step the policy fixes, in order: how many pending tasks to work on, how
many to sub-delegate to trusted neighbours, the unit price to post, and
whether to accept new task offers at all.  Sub-delegation and acceptance are
threshold rules driven by the two virtual queues; the price is the stationary
point of the per-step pricing objective clamped at the reserve price.  That
objective is strictly convex in price, so the clamped stationary point is its
minimum over p >= p_min, not its maximum.  The ordering matters: the
sub-delegation rule consumes the work amount and the acceptance rule consumes
the just-set price.  The rules see the market through two per-DO values it
snapshots each step: the mean price over *all* neighbours (+inf with none,
which keeps every task local), and whether some neighbour could take the
DO's best-paying delegable task.  The market asks the second only where a
rule reads it: a DO whose threshold rule keeps its tasks local by
`outweighs_queues` is handed False.
"""

import math

import numpy as np

from .core import DataOwnerState


def outweighs_queues(rho, value, pending_q, urgency_Q):
    """The threshold rules' sign test: whether the availability-weighted
    `value` outweighs the combined queue pressure, rho * value - q - Q >= 0.
    Elementwise on arrays; rho = 0 with value = inf gives nan, which fails."""
    return rho * value - pending_q - urgency_Q >= 0


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


def subdelegation_cap(state: DataOwnerState, has_eligible_delegate: bool, theta: int) -> int:
    """The most a DO may sub-delegate this step: the backlog left after its
    `theta` tasks of work, within `s_max`, and nothing when no neighbour is
    eligible.  The greedy baseline delegates exactly this."""
    if not has_eligible_delegate:
        return 0
    return max(0, min(int(math.floor(state.pending_q)) - theta, state.s_max))


def decide_subdelegation(state: DataOwnerState, avg_neighbor_price: float, has_eligible_delegate: bool, theta: int) -> int:
    """Threshold rule: keep tasks local while availability-weighted neighbour
    prices outweigh the combined queue pressure; otherwise offload up to the cap."""
    if outweighs_queues(state.availability_rho, avg_neighbor_price, state.pending_q, state.urgency_Q):
        return 0
    return subdelegation_cap(state, has_eligible_delegate, theta)


def decide_price(state: DataOwnerState, degenerate: bool) -> float:
    """Posted unit price: max(reserve, q / (2 * rho * r)).

    q / (2 * rho * r) is the stationary point of the pricing term
    z * p * (p*r*rho - q) / r**a1, which is strictly convex in p, so the
    clamped value is that term's minimum over p >= p_min.

    With zero availability or reputation below the floor the quotient is
    unbounded, so the rule falls back to the reserve price; `degenerate` is
    `price_is_degenerate`'s answer for the state.
    """
    if degenerate:
        return state.reserve_price_p_min
    quotient = state.pending_q / (2.0 * state.availability_rho * state.reputation_r)
    return max(state.reserve_price_p_min, quotient)


def price_is_degenerate(state: DataOwnerState, r_floor: float) -> bool:
    return state.availability_rho <= 0.0 or state.reputation_r < r_floor


def decide_acceptance(state: DataOwnerState, price_p: float) -> int:
    """Accept new offers iff the availability-weighted revenue rate strictly
    beats the pending backlog: rho * p * r - q > 0."""
    return 1 if state.availability_rho * price_p * state.reputation_r - state.pending_q > 0 else 0


def decide_work(state: DataOwnerState, mode: str) -> int:
    """Work progress for the step.

    "greedy" drains as much backlog as capacity allows; "threshold" only
    works when queue pressure outweighs the availability-weighted unit cost,
    mirroring the sign test the sub-delegation rule uses.
    """
    cap = min(int(math.floor(state.pending_q)), state.theta_max)
    if mode == "greedy":
        return cap
    if mode == "threshold":
        if outweighs_queues(state.availability_rho, state.unit_cost_c, state.pending_q, state.urgency_Q):
            return 0
        return cap
    raise ValueError(f"unknown work mode: {mode!r}")
