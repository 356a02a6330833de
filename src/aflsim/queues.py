"""Virtual-queue dynamics, costs, and the per-step market utility.

These pure functions are the numerical substrate the market engine evaluates
every step: the pending-backlog queue, the urgency queue that accumulates
delay pressure, and the utility and cost arithmetic.
"""

from .core import DataOwnerState, StepDecision


def update_pending_queue(q: float, theta: int, s: int, x: int, kappa: int) -> float:
    """Next pending backlog: max(q - theta - s, 0) + x * kappa."""
    return max(q - theta - s, 0.0) + x * kappa


def update_urgency_queue(Q: float, theta: int, s: int, kappa_bar: float, q_is_positive: bool) -> float:
    """Next urgency level: max(Q - theta - s + kappa_bar * [q > 0], 0)."""
    growth = kappa_bar if q_is_positive else 0.0
    return max(Q - theta - s + growth, 0.0)


def subdelegation_cost(avg_neighbor_price: float, s: int) -> float:
    """Cost of handing s tasks to neighbours at their average price."""
    if s == 0:
        return 0.0  # guard: the no-neighbour sentinel price is +inf
    return avg_neighbor_price * s


def training_cost(unit_cost_c: float, theta: int) -> float:
    """Cost of completing theta tasks locally."""
    return unit_cost_c * theta


def utility(
    state: DataOwnerState,
    decision: StepDecision,
    demand_f: float,
    avg_neighbor_price: float,
) -> float:
    """Per-step market utility: x*p*r*f minus sub-delegation and training costs."""
    revenue = decision.accept_x * decision.price_p * state.reputation_r * demand_f
    return (
        revenue
        - subdelegation_cost(avg_neighbor_price, decision.subdelegate_s)
        - training_cost(state.unit_cost_c, decision.work_theta)
    )
