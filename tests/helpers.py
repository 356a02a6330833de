"""Shared builders for test states and contexts, and test-side reference checks."""

from aflsim.core import DataOwnerState, StepDecision, ValidationResult
from aflsim.policy_pas import DelegationContext


def make_state(**overrides) -> DataOwnerState:
    base = dict(
        id=0,
        reputation_r=0.6,
        pending_q=0.0,
        urgency_Q=0.0,
        avg_demand_kappa_bar=1.0,
        availability_rho=1.0,
        unit_cost_c=0.3,
        reserve_price_p_min=1.0,
        rep_threshold_r_min=0.5,
        theta_max=2,
        s_max=2,
        kappa_max=5,
        alignment_epsilon=0.0,
        positive_ratings_Mp=1,
        current_price_p=1.0,
        data_size=5000,
    )
    base.update(overrides)
    return DataOwnerState(**base)


def make_ctx(avg_neighbor_price=1.0, eligible=False) -> DelegationContext:
    return DelegationContext(
        avg_neighbor_price=avg_neighbor_price, has_eligible_delegate=bool(eligible)
    )


def validate_decision(state: DataOwnerState, decision: StepDecision) -> ValidationResult:
    """Check a StepDecision against the invariants of the deciding DO."""
    if decision.accept_x not in (0, 1):
        return ValidationResult(False, "accept_x")
    if not (0 <= decision.work_theta <= state.theta_max):
        return ValidationResult(False, "work_theta")
    if not (0 <= decision.subdelegate_s <= min(state.s_max, state.pending_q)):
        return ValidationResult(False, "subdelegate_s")
    if decision.price_p < state.reserve_price_p_min:
        return ValidationResult(False, "price_p")
    return ValidationResult(True)
