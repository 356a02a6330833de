import math
from dataclasses import dataclass

import numpy as np
import pytest

from aflsim.queues import (
    subdelegation_cost,
    training_cost,
    update_pending_queue,
    update_urgency_queue,
    utility as columnar_utility,
)
from helpers import DataOwnerState, make_state
from reference_policy import JointDecision


def utility(state: DataOwnerState, decision: JointDecision, demand_f: float, pbar: float) -> float:
    """`queues.utility` read from one DO's state and decision."""
    return columnar_utility(
        decision.accept_x, decision.price_p, state.reputation_r, demand_f, pbar,
        decision.subdelegate_s, state.unit_cost_c, decision.work_theta,
    )


@dataclass(frozen=True)
class DriftBoundParts:
    """Decomposed upper bound on the one-step growth of the queue energy."""

    xi: float      # constant term (theta_max + s_max)**2 + kappa_max**2
    q_term: float  # q * (arrivals - theta - s)
    Q_term: float  # Q * (kappa_bar - theta - s)
    bound: float   # xi + q_term + Q_term


def average_demand(kappa_history) -> float:
    """Arithmetic mean of the arrival counts observed so far."""
    history = list(kappa_history)
    if not history:
        raise ValueError("kappa_history must be nonempty")
    return sum(history) / len(history)


def lyapunov_value(q: float, Q: float) -> float:
    """Quadratic queue energy (q**2 + Q**2) / 2."""
    return 0.5 * (q * q + Q * Q)


def drift_bound(state: DataOwnerState, decision: JointDecision, arrivals: int) -> DriftBoundParts:
    """Upper bound on the one-step energy drift for the realized arrivals.

    `arrivals` is the realized admission count (acceptance already applied),
    and the urgency term uses the state's running average demand.
    """
    xi = float((state.theta_max + state.s_max) ** 2 + state.kappa_max**2)
    moved = decision.work_theta + decision.subdelegate_s
    q_term = state.pending_q * (arrivals - moved)
    Q_term = state.urgency_Q * (state.avg_demand_kappa_bar - moved)
    return DriftBoundParts(xi=xi, q_term=q_term, Q_term=Q_term, bound=xi + q_term + Q_term)


def objective_value(
    state: DataOwnerState,
    decision: JointDecision,
    demand_f: float,
    avg_neighbor_price: float,
) -> float:
    """Per-step objective that the closed-form decision rules are derived from.

    Decomposes into a sub-delegation term, the constant drift headroom, a
    work term, and the joint acceptance/pricing term; each decision variable
    enters linearly except the price, which also scales the demand factor.
    The work, sub-delegation and acceptance rules maximize their terms.  The
    price does not: with demand linear in price the pricing term is strictly
    convex in p, and the price rule returns its minimum over p >= p_min.
    """
    rho = state.availability_rho
    q = state.pending_q
    Q = state.urgency_Q
    xi = float((state.theta_max + state.s_max) ** 2 + state.kappa_max**2)

    if decision.subdelegate_s == 0:
        s_term = 0.0  # guard against the +inf no-neighbour sentinel
    else:
        s_term = decision.subdelegate_s * (rho * avg_neighbor_price - q - Q)
    theta_term = decision.work_theta * (rho * state.unit_cost_c - q - Q)
    x_term = (
        rho * decision.accept_x * decision.price_p * state.reputation_r * demand_f
        - q * decision.accept_x * demand_f
    )
    return -s_term - xi - theta_term + x_term


def test_pending_queue_hand_values():
    assert update_pending_queue(5.0, 2, 1, 1, 3) == 5.0
    assert update_pending_queue(0.0, 0, 0, 0, 9) == 0.0
    assert update_pending_queue(2.0, 5, 0, 1, 1) == 1.0


def test_urgency_queue_hand_values():
    assert update_urgency_queue(4.0, 1, 1, 2.0, True) == 4.0
    assert update_urgency_queue(0.0, 0, 0, 5.0, False) == 0.0
    assert update_urgency_queue(1.0, 3, 0, 0.5, True) == 0.0


def test_queues_never_go_negative():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        q = float(rng.uniform(0, 10))
        Q = float(rng.uniform(0, 10))
        theta = int(rng.integers(0, 6))
        s = int(rng.integers(0, 6))
        kappa = int(rng.integers(0, 6))
        assert update_pending_queue(q, theta, s, 1, kappa) >= 0.0
        assert update_urgency_queue(Q, theta, s, float(rng.uniform(0, 4)), bool(rng.integers(2))) >= 0.0


def test_average_demand():
    assert average_demand([1, 2, 3]) == 2.0
    assert average_demand([0, 0, 0, 0]) == 0.0
    assert average_demand([7]) == 7.0
    with pytest.raises(ValueError):
        average_demand([])


def test_lyapunov_values():
    assert lyapunov_value(3.0, 4.0) == 12.5
    assert lyapunov_value(0.0, 0.0) == 0.0
    assert lyapunov_value(1.0, 0.0) == 0.5


def test_drift_bound_constant_term():
    state = make_state(theta_max=2, s_max=1, kappa_max=3, pending_q=0.0, urgency_Q=0.0,
                       avg_demand_kappa_bar=0.0)
    decision = JointDecision(accept_x=0, price_p=1.0, subdelegate_s=0, work_theta=0)
    parts = drift_bound(state, decision, arrivals=0)
    assert parts.xi == 18.0
    assert parts.bound == 18.0


def test_drift_bound_zero_queues_leave_only_constant():
    state = make_state(theta_max=3, s_max=2, kappa_max=4, pending_q=0.0, urgency_Q=0.0)
    decision = JointDecision(accept_x=1, price_p=1.0, subdelegate_s=2, work_theta=3)
    parts = drift_bound(state, decision, arrivals=3)
    assert parts.bound == parts.xi


def test_drift_bound_hand_value():
    state = make_state(theta_max=2, s_max=1, kappa_max=3, pending_q=5.0, urgency_Q=2.0,
                       avg_demand_kappa_bar=1.0)
    decision = JointDecision(accept_x=1, price_p=1.0, subdelegate_s=1, work_theta=1)
    parts = drift_bound(state, decision, arrivals=3)
    assert parts.q_term == 5.0
    assert parts.Q_term == -2.0
    assert parts.bound == 18.0 + 5.0 - 2.0
    assert parts.bound == parts.xi + parts.q_term + parts.Q_term


def test_realized_drift_never_exceeds_bound():
    # the algebraic inequality behind queue stability, checked on random transitions
    rng = np.random.default_rng(99)
    for _ in range(3000):
        theta_max = int(rng.integers(0, 5))
        s_max = int(rng.integers(0, 5))
        kappa_max = int(rng.integers(1, 8))
        q = float(rng.uniform(0, 20))
        Q = float(rng.uniform(0, 20))
        theta = int(rng.integers(0, theta_max + 1))
        s = int(rng.integers(0, s_max + 1))
        x = int(rng.integers(0, 2))
        kappa = int(rng.integers(0, kappa_max))  # arrivals stay below the cap
        kappa_bar = float(rng.uniform(0, kappa_max))
        state = make_state(theta_max=theta_max, s_max=s_max, kappa_max=kappa_max,
                           pending_q=q, urgency_Q=Q, avg_demand_kappa_bar=kappa_bar)
        decision = JointDecision(accept_x=x, price_p=1.0, subdelegate_s=s, work_theta=theta)
        arrivals = x * kappa
        new_q = update_pending_queue(q, theta, s, x, kappa)
        new_Q = update_urgency_queue(Q, theta, s, kappa_bar, q > 0)
        drift = lyapunov_value(new_q, new_Q) - lyapunov_value(q, Q)
        assert drift <= drift_bound(state, decision, arrivals).bound + 1e-9


def test_cost_hand_values():
    assert subdelegation_cost(2.0, 3) == 6.0
    assert subdelegation_cost(5.0, 0) == 0.0
    assert subdelegation_cost(0.0, 4) == 0.0
    assert subdelegation_cost(math.inf, 0) == 0.0
    assert training_cost(0.5, 2) == 1.0
    assert training_cost(3.0, 0) == 0.0
    assert training_cost(0.0, 9) == 0.0


def test_utility_hand_values():
    state = make_state(reputation_r=1.0, unit_cost_c=0.5)
    decision = JointDecision(accept_x=1, price_p=2.0, subdelegate_s=1, work_theta=2)
    assert utility(state, decision, 3.0, 1.0) == 4.0

    idle = JointDecision(accept_x=0, price_p=2.0, subdelegate_s=0, work_theta=0)
    assert utility(state, idle, 3.0, 1.0) == 0.0

    costly = JointDecision(accept_x=0, price_p=2.0, subdelegate_s=1, work_theta=1)
    state2 = make_state(reputation_r=1.0, unit_cost_c=1.0)
    assert utility(state2, costly, 3.0, 2.0) == -3.0


def test_utility_decomposes_into_components():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        state = make_state(
            reputation_r=float(rng.uniform(0, 1)),
            unit_cost_c=float(rng.uniform(0, 3)),
        )
        decision = JointDecision(
            accept_x=int(rng.integers(0, 2)),
            price_p=float(rng.uniform(1.0, 5.0)),
            subdelegate_s=int(rng.integers(0, 4)),
            work_theta=int(rng.integers(0, 4)),
        )
        f = float(rng.uniform(0, 6))
        pbar = float(rng.uniform(0, 4))
        revenue = decision.accept_x * decision.price_p * state.reputation_r * f
        assert utility(state, decision, f, pbar) == revenue - subdelegation_cost(
            pbar, decision.subdelegate_s
        ) - training_cost(state.unit_cost_c, decision.work_theta)


def test_objective_all_zero_leaves_constant():
    state = make_state(pending_q=0.0, urgency_Q=0.0, availability_rho=0.0, theta_max=2,
                       s_max=1, kappa_max=3)
    decision = JointDecision(accept_x=0, price_p=1.0, subdelegate_s=0, work_theta=0)
    assert objective_value(state, decision, 0.0, 0.0) == -18.0


def test_objective_subdelegation_term():
    state = make_state(availability_rho=1.0, pending_q=3.0, urgency_Q=2.0, theta_max=2,
                       s_max=1, kappa_max=3, unit_cost_c=0.0)
    decision = JointDecision(accept_x=0, price_p=1.0, subdelegate_s=2, work_theta=0)
    xi = 18.0
    assert objective_value(state, decision, 0.0, 1.0) == 8.0 - xi


def test_objective_pricing_term():
    state = make_state(availability_rho=1.0, reputation_r=1.0, pending_q=1.0, urgency_Q=0.0,
                       theta_max=2, s_max=1, kappa_max=3)
    decision = JointDecision(accept_x=1, price_p=2.0, subdelegate_s=0, work_theta=0)
    xi = 18.0
    assert objective_value(state, decision, 3.0, 1.0) == 3.0 - xi


def test_objective_linear_in_s_and_theta():
    rng = np.random.default_rng(17)
    for _ in range(300):
        state = make_state(
            availability_rho=float(rng.uniform(0, 3)),
            reputation_r=float(rng.uniform(0, 1)),
            pending_q=float(rng.uniform(0, 10)),
            urgency_Q=float(rng.uniform(0, 10)),
            unit_cost_c=float(rng.uniform(0, 2)),
            theta_max=5, s_max=5,
        )
        f = float(rng.uniform(0, 4))
        pbar = float(rng.uniform(0.1, 4))
        p = float(rng.uniform(1, 4))

        def at(s, theta):
            return objective_value(
                state, JointDecision(accept_x=1, price_p=p, subdelegate_s=s, work_theta=theta),
                f, pbar,
            )

        slope_s_01 = at(1, 0) - at(0, 0)
        slope_s_12 = at(2, 0) - at(1, 0)
        assert slope_s_12 == pytest.approx(slope_s_01, abs=1e-9)
        slope_t_01 = at(0, 1) - at(0, 0)
        slope_t_12 = at(0, 2) - at(0, 1)
        assert slope_t_12 == pytest.approx(slope_t_01, abs=1e-9)
