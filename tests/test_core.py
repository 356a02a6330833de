import pytest

from aflsim.core import validate_states
from helpers import make_state, state_columns, validate_decision
from reference_policy import JointDecision


# Per-DO overrides of `make_state`, one dict per DO, and the (index, field) of
# the first invalid DO that the columnar validator names, or None.
@pytest.mark.parametrize(
    "overrides, found",
    [
        ([{"reputation_r": 0.5, "reserve_price_p_min": 1.0, "current_price_p": 1.0}], None),
        ([{"reputation_r": 1.2}], (0, "reputation_r")),
        ([{"pending_q": -1.0}], (0, "pending_q")),
        ([{"urgency_Q": float("inf")}], (0, "urgency_Q")),
        ([{"current_price_p": 0.5, "reserve_price_p_min": 1.0}], (0, "current_price_p")),
        ([{"kappa_max": 0}], (0, "kappa_max")),
        ([{}, {"s_max": -1}, {"s_max": -1}], (1, "s_max")),
        # One failing record of n: its count of valid records is n - 1, not n.
        ([{}, {}, {"kappa_max": 0}], (2, "kappa_max")),
    ],
    ids=["midpoint", "reputation", "negative-queue", "nonfinite-urgency", "price-below-reserve", "kappa-cap-0",
         "first-invalid-of-two", "last-do"],
)
def test_validate_states_finds_the_first_invalid_do(overrides, found):
    assert validate_states(state_columns(*(make_state(**each) for each in overrides))) == found


def test_decision_validation_covers_all_bounds():
    state = make_state(pending_q=3.0, theta_max=2, s_max=2)
    good = JointDecision(accept_x=1, price_p=1.5, subdelegate_s=1, work_theta=2)
    assert validate_decision(state, good) is None
    assert validate_decision(state, JointDecision(2, 1.5, 0, 0)) == "accept_x"
    assert validate_decision(state, JointDecision(1, 1.5, 0, 3)) == "work_theta"
    assert validate_decision(state, JointDecision(1, 1.5, 3, 0)) == "subdelegate_s"
    assert validate_decision(state, JointDecision(1, 0.5, 0, 0)) == "price_p"
