import numpy as np

from aflsim.core import validate_states
from helpers import make_state, state_columns, trust_network, validate_decision
from reference_policy import JointDecision


def validate_state(state):
    """The field the columnar validator names for a one-DO array, or None."""
    found = validate_states(state_columns(state))
    return None if found is None else found[1]


def test_validate_state_accepts_midpoint_state():
    state = make_state(reputation_r=0.5, reserve_price_p_min=1.0, current_price_p=1.0)
    assert validate_state(state) is None


def test_validate_state_names_reputation_violation():
    assert validate_state(make_state(reputation_r=1.2)) == "reputation_r"


def test_validate_state_names_negative_queue():
    assert validate_state(make_state(pending_q=-1.0)) == "pending_q"


def test_validate_state_rejects_nonfinite_queue():
    assert validate_state(make_state(urgency_Q=float("inf"))) == "urgency_Q"


def test_validate_state_requires_price_at_or_above_reserve():
    result = validate_state(make_state(current_price_p=0.5, reserve_price_p_min=1.0))
    assert result == "current_price_p"


def test_validate_state_requires_kappa_cap_at_least_one():
    assert validate_state(make_state(kappa_max=0)) == "kappa_max"


def test_validate_states_names_the_first_invalid_do():
    states = state_columns(make_state(), make_state(s_max=-1), make_state(s_max=-1))
    assert validate_states(states) == (1, "s_max")


def test_validate_states_names_an_invalid_last_do():
    # One failing record of n: its count of valid records is n - 1, not n.
    states = state_columns(make_state(), make_state(), make_state(kappa_max=0))
    assert validate_states(states) == (2, "kappa_max")


def test_trust_network_is_symmetric():
    net = trust_network(4, [(0, 2), (2, 3), (3, 2)])
    assert [np.flatnonzero(row).tolist() for row in net.adjacency] == [[2], [], [0, 3], [2]]
    assert net.adjacency[2, 0] and net.adjacency[0, 2]
    assert net.n_edges == 2
    assert (net.adjacency == net.adjacency.T).all()
    assert not net.adjacency.diagonal().any()


def test_decision_validation_covers_all_bounds():
    state = make_state(pending_q=3.0, theta_max=2, s_max=2)
    good = JointDecision(accept_x=1, price_p=1.5, subdelegate_s=1, work_theta=2)
    assert validate_decision(state, good) is None
    assert validate_decision(state, JointDecision(2, 1.5, 0, 0)) == "accept_x"
    assert validate_decision(state, JointDecision(1, 1.5, 0, 3)) == "work_theta"
    assert validate_decision(state, JointDecision(1, 1.5, 3, 0)) == "subdelegate_s"
    assert validate_decision(state, JointDecision(1, 0.5, 0, 0)) == "price_p"

