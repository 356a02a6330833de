"""Queue-aware joint decision policy for data owners, as whole-array rules.

Each step the policy fixes, in order: how many pending tasks to work on, how
many to sub-delegate to trusted neighbours, the unit price to post, and
whether to accept new task offers at all.  Sub-delegation and acceptance are
threshold rules driven by the two virtual queues; the price is the stationary
point of the per-step pricing objective clamped at the reserve price.  That
objective is strictly convex in price, so the clamped stationary point is its
minimum over p >= p_min, not its maximum.  The ordering matters: the
sub-delegation rule consumes the work amount and the acceptance rule consumes
the just-set price.

No rule draws, so each is elementwise over the DOs of a `STATE` array and the
market evaluates it once per step for every DO.  Each keeps the operand
order of its formula, so every value equals the formula on Python floats;
where numpy would warn of an overflow, a division by zero or a nan that
Python floats give silently, the rule computes under `np.errstate`.  The
rules see the market through two per-DO arrays it snapshots each step: the
mean price over *all* neighbours (+inf with none, which keeps every task
local), and whether some neighbour could take the DO's best-paying delegable
task.  The market asks the second only where the DO's goal after its work
would be positive with an eligible delegate, and hands the others False.  The
asked DOs' quotes (`eligible_delegates`) are also the neighbours the market
routes their sub-delegations to.  The rules assume a resolved config and
audited state, and check neither.
"""

import numpy as np


def outweighs_queues(rho, value, pending_q, urgency_Q):
    """The threshold rules' sign test: whether the availability-weighted
    `value` outweighs the combined queue pressure, rho * value - q - Q >= 0.
    As on floats, rho = 0 with value = inf gives nan, which fails, and a
    product past the largest float gives inf."""
    with np.errstate(invalid="ignore", over="ignore"):
        return rho * value - pending_q - urgency_Q >= 0


def eligible_delegates(
    adjacency: np.ndarray,
    prices: np.ndarray,
    reps: np.ndarray,
    reference_payment: np.ndarray,
    r_min: np.ndarray,
) -> np.ndarray:
    """The quotes of the asking DOs, one per row of `adjacency` (that DO's
    neighbour mask): which neighbours are trusted enough (reputation >= its
    `r_min`) and cheap enough (price <= its `reference_payment`) to take a
    task.  A DO has an eligible delegate iff its row has a quote.  `prices`
    and `reps` are snapshots indexed by DO id."""
    trusted = reps >= r_min[:, None]
    cheap = prices <= reference_payment[:, None]
    return adjacency & trusted & cheap


def subdelegation_cap(states: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The most each DO may sub-delegate this step were a delegate eligible:
    the backlog left after its `theta` tasks of work, within `s_max`.  The
    greedy baseline delegates exactly this where a delegate is eligible."""
    backlog = np.floor(states["pending_q"]).astype(np.intp) - theta
    return np.maximum(0, np.minimum(backlog, states["s_max"]))


def decide_subdelegation(states: np.ndarray, avg_neighbor_price: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Threshold rule: keep tasks local while availability-weighted neighbour
    prices outweigh the combined queue pressure; otherwise offload up to `cap`."""
    local = outweighs_queues(states["availability_rho"], avg_neighbor_price, states["pending_q"], states["urgency_Q"])
    return np.where(local, 0, cap)


def decide_price(states: np.ndarray, degenerate: np.ndarray) -> np.ndarray:
    """Posted unit price: max(reserve, q / (2 * rho * r)).

    q / (2 * rho * r) is the stationary point of the pricing term
    z * p * (p*r*rho - q) / r**a1, which is strictly convex in p, so the
    clamped value is that term's minimum over p >= p_min.  The clamp is
    Python's max(p_min, quotient): the quotient only where it exceeds the
    reserve, so a nan quotient posts the reserve.

    With zero availability or reputation below the floor the quotient is
    unbounded, so the rule falls back to the reserve price; `degenerate` is
    `price_is_degenerate`'s answer for each DO, and its rows' quotients,
    which may divide by zero, are masked.
    """
    p_min = states["reserve_price_p_min"]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        quotient = states["pending_q"] / (2.0 * states["availability_rho"] * states["reputation_r"])
    return np.where(~degenerate & (quotient > p_min), quotient, p_min)


def price_is_degenerate(states: np.ndarray, r_floor: float) -> np.ndarray:
    return (states["availability_rho"] <= 0.0) | (states["reputation_r"] < r_floor)


def decide_acceptance(states: np.ndarray, price_p: np.ndarray) -> np.ndarray:
    """Accept new offers (1) iff the availability-weighted revenue rate
    strictly beats the pending backlog: rho * p * r - q > 0."""
    with np.errstate(invalid="ignore", over="ignore"):
        revenue = states["availability_rho"] * price_p * states["reputation_r"]
    return (revenue - states["pending_q"] > 0).astype(np.intp)


def decide_work(states: np.ndarray, mode: str) -> np.ndarray:
    """Work progress for the step.

    "greedy" drains as much backlog as capacity allows; "threshold" only
    works when queue pressure outweighs the availability-weighted unit cost,
    mirroring the sign test the sub-delegation rule uses.
    """
    cap = np.minimum(np.floor(states["pending_q"]).astype(np.intp), states["theta_max"])
    if mode == "greedy":
        return cap
    local = outweighs_queues(states["availability_rho"], states["unit_cost_c"], states["pending_q"], states["urgency_Q"])
    return np.where(local, 0, cap)
