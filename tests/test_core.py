import dataclasses

import pytest

from aflsim.core import (
    MarketConstants,
    StepDecision,
    Task,
    TrustNetwork,
    validate_state,
)
from helpers import make_state, validate_decision


def test_market_constants_accept_positive_coefficients():
    c = MarketConstants(a0=0.1, a1=1.0, a2=0.3, a3=0.5, horizon_T=10)
    assert c.a1 == 1.0


def test_market_constants_reject_nonpositive_a1():
    with pytest.raises(ValueError):
        MarketConstants(a0=0.0, a1=0.0, a2=0.0, a3=0.0, horizon_T=1)


def test_market_constants_reject_bad_horizon():
    with pytest.raises(ValueError):
        MarketConstants(a0=0.0, a1=1.0, a2=0.0, a3=0.0, horizon_T=0)


def test_validate_state_accepts_midpoint_state():
    state = make_state(reputation_r=0.5, reserve_price_p_min=1.0, current_price_p=1.0)
    assert validate_state(state).ok


def test_validate_state_names_reputation_violation():
    result = validate_state(make_state(reputation_r=1.2))
    assert not result.ok
    assert result.violation == "reputation_r"


def test_validate_state_names_negative_queue():
    result = validate_state(make_state(pending_q=-1.0))
    assert not result.ok
    assert result.violation == "pending_q"


def test_validate_state_rejects_nonfinite_queue():
    assert validate_state(make_state(urgency_Q=float("inf"))).violation == "urgency_Q"


def test_validate_state_requires_price_at_or_above_reserve():
    result = validate_state(make_state(current_price_p=0.5, reserve_price_p_min=1.0))
    assert result.violation == "current_price_p"


def test_validate_state_requires_kappa_cap_at_least_one():
    assert validate_state(make_state(kappa_max=0)).violation == "kappa_max"


def test_state_round_trips_through_dict():
    state = make_state(pending_q=3.0, urgency_Q=1.5, positive_ratings_Mp=7)
    clone = type(state).from_dict(state.to_dict())
    assert dataclasses.asdict(clone) == dataclasses.asdict(state)


def test_task_rejects_nonpositive_payment():
    with pytest.raises(ValueError):
        Task(task_id=0, origin_mu=0, unit_payment_p_tau=0.0, arrival_step=0,
             delegation_depth=0, holder=0)


def test_trust_network_rejects_self_loops():
    with pytest.raises(ValueError):
        TrustNetwork(3, edges=[(1, 1)])


def test_trust_network_is_symmetric():
    net = TrustNetwork(4, edges=[(0, 2), (2, 3)])
    assert net.neighbor_set(2) == (0, 3)
    assert net.has_edge(2, 0) and net.has_edge(0, 2)
    assert net.n_edges == 2
    matrix = net.adjacency_matrix()
    assert (matrix == matrix.T).all()
    assert not matrix.diagonal().any()


def test_decision_validation_covers_all_bounds():
    state = make_state(pending_q=3.0, theta_max=2, s_max=2)
    good = StepDecision(accept_x=1, price_p=1.5, subdelegate_s=1, work_theta=2)
    assert validate_decision(state, good).ok
    assert validate_decision(state, StepDecision(2, 1.5, 0, 0)).violation == "accept_x"
    assert validate_decision(state, StepDecision(1, 1.5, 0, 3)).violation == "work_theta"
    assert validate_decision(state, StepDecision(1, 1.5, 3, 0)).violation == "subdelegate_s"
    assert validate_decision(state, StepDecision(1, 0.5, 0, 0)).violation == "price_p"


def test_metrics_record_csv_row_formats_floats():
    from aflsim.core import MetricsRecord

    rec = MetricsRecord(
        step=3, do_id=1, utility_u=0.123456789123, pending_q=2.0, urgency_Q=0.0,
        accepted_kappa=2, completed_theta=1, subdelegated_s=0, price_p=1.0, reputation_r=0.5,
    )
    row = rec.to_csv_row()
    assert row[0] == "3" and row[1] == "1"
    assert row[2] == "0.123456789"
    assert row[3] == "2"
