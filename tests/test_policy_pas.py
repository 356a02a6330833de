import math

import numpy as np
import pytest

from aflsim.config import resolve_config
from aflsim.market import build_world
from aflsim.policy_baselines import POLICIES, decide_for_policy
from aflsim.policy_pas import (
    decide_acceptance,
    decide_price,
    decide_subdelegation,
    decide_work,
    eligible_delegates,
    price_is_degenerate,
)
from helpers import make_ctx, make_state, trust_network, validate_decision

PAS = POLICIES["pas-afl"]


def _eligible(net, prices, reps, reference_payment, r_min):
    """`eligible_delegates` asked for DO 0 alone."""
    found = eligible_delegates(
        net.adjacency[[0]], prices, reps, np.array([reference_payment]), np.array([r_min])
    )
    return found.tolist()


def test_eligible_delegates_basic_constraint():
    net = trust_network(2, [(0, 1)])
    prices, reps = np.array([1.0, 1.0]), np.array([0.6, 0.9])
    assert _eligible(net, prices, reps, reference_payment=2.0, r_min=0.5) == [True]
    assert _eligible(net, prices, reps, reference_payment=0.5, r_min=0.5) == [False]


def test_eligible_delegates_empty_neighborhood():
    net = trust_network(2)
    prices, reps = np.array([1.0, 1.0]), np.array([0.6, 0.6])
    assert _eligible(net, prices, reps, 2.0, 0.5) == [False]


def test_eligible_delegates_reputation_gate():
    net = trust_network(2, [(0, 1)])
    prices, reps = np.array([1.0, 0.1]), np.array([0.6, 0.4])
    assert _eligible(net, prices, reps, 2.0, 0.5) == [False]


def test_eligible_delegates_answers_each_row_with_its_own_limits():
    net = trust_network(3, [(0, 1), (1, 2)])
    prices, reps = np.array([1.0, 2.0, 3.0]), np.array([0.9, 0.6, 0.9])
    found = eligible_delegates(
        net.adjacency, prices, reps, np.array([2.0, 3.0, 2.0]), np.array([0.5, 0.95, 0.5])
    )
    assert found.tolist() == [True, False, True]


def _tiny_world(n_dos: int, edge_prob: float):
    """Every DO holds five tasks paying 1.5, works two per step and trusts
    neighbours with reputation >= 0.5, so each DO may delegate."""
    cfg = resolve_config({
        "n_dos": n_dos,
        "trust_edge_prob": edge_prob,
        "seeds": [1],
        "do_params": {
            "p_min": [1.0, 1.0],
            "r_min": [0.5, 0.5],
            "theta_max": [2, 2],
            "q0": [5, 5],
            "q0_payment_markup": [1.5, 1.5],
        },
    })
    return build_world(cfg, 1)


def test_delegation_context_uses_infinite_sentinel_without_neighbors():
    world = _tiny_world(1, 0.0)
    ctx = world._build_contexts(np.array([1.0]), np.array([0.9]))[0]
    assert ctx.avg_neighbor_price == math.inf
    assert not ctx.has_eligible_delegate


def test_delegation_context_averages_all_neighbors():
    world = _tiny_world(3, 1.0)
    reps = np.array([0.9, 0.9, 0.9])
    ctx = world._build_contexts(np.array([1.0, 1.0, 3.0]), reps)[0]
    assert ctx.avg_neighbor_price == 2.0
    assert ctx.has_eligible_delegate  # DO 1 asks 1.0 <= 1.5
    ctx = world._build_contexts(np.array([1.0, 2.0, 3.0]), reps)[0]
    assert ctx.avg_neighbor_price == 2.5
    assert not ctx.has_eligible_delegate  # both neighbours ask more than 1.5


def test_delegation_context_ignores_tasks_at_depth_cap():
    world = _tiny_world(3, 1.0)
    queue = world.queue
    queue["depth"][queue["owner"] == 0] = world.config.market.delegation_depth_max
    contexts = world._build_contexts(np.array([1.0, 1.0, 1.0]), np.array([0.9, 0.9, 0.9]))
    assert not contexts[0].has_eligible_delegate
    assert contexts[1].has_eligible_delegate


def test_subdelegation_holds_when_neighbors_expensive():
    state = make_state(availability_rho=1.0, pending_q=3.0, urgency_Q=2.0, s_max=5)
    ctx = make_ctx(avg_neighbor_price=10.0, eligible=True)
    assert decide_subdelegation(state, ctx, theta=0) == 0


def test_subdelegation_offloads_leftover_backlog():
    state = make_state(availability_rho=1.0, pending_q=3.0, urgency_Q=2.0, s_max=5)
    ctx = make_ctx(avg_neighbor_price=1.0, eligible=True)
    assert decide_subdelegation(state, ctx, theta=1) == 2


def test_subdelegation_empty_queue():
    state = make_state(pending_q=0.0)
    ctx = make_ctx(avg_neighbor_price=0.1, eligible=True)
    assert decide_subdelegation(state, ctx, theta=0) == 0


def test_subdelegation_requires_eligible_delegate():
    state = make_state(availability_rho=1.0, pending_q=5.0, urgency_Q=5.0, s_max=5)
    assert decide_subdelegation(state, make_ctx(avg_neighbor_price=0.5), theta=0) == 0


def test_subdelegation_respects_cap():
    state = make_state(availability_rho=1.0, pending_q=9.0, urgency_Q=5.0, s_max=3)
    ctx = make_ctx(avg_neighbor_price=0.5, eligible=True)
    assert decide_subdelegation(state, ctx, theta=2) == 3


def test_price_hand_values():
    assert decide_price(make_state(reserve_price_p_min=1.0, pending_q=4.0,
                                   availability_rho=1.0, reputation_r=0.5)) == 4.0
    assert decide_price(make_state(reserve_price_p_min=1.0, pending_q=0.0)) == 1.0
    assert decide_price(make_state(reserve_price_p_min=0.5, current_price_p=0.5, pending_q=10.0,
                                   availability_rho=2.0, reputation_r=1.0)) == 2.5


def test_price_degenerate_availability_falls_back_to_reserve():
    state = make_state(availability_rho=0.0, pending_q=50.0)
    assert price_is_degenerate(state)
    assert decide_price(state) == state.reserve_price_p_min


def test_price_degenerate_reputation_falls_back_to_reserve():
    state = make_state(reputation_r=1e-6, pending_q=50.0)
    assert price_is_degenerate(state)
    assert decide_price(state) == state.reserve_price_p_min


def test_acceptance_hand_values():
    assert decide_acceptance(make_state(availability_rho=1.0, reputation_r=1.0,
                                        pending_q=1.0), 2.0) == 1
    # exact equality of weighted revenue and backlog declines (strict inequality)
    assert decide_acceptance(make_state(availability_rho=1.0, reputation_r=1.0,
                                        pending_q=2.0), 2.0) == 0
    assert decide_acceptance(make_state(availability_rho=0.0, pending_q=1.0), 2.0) == 0


def test_work_greedy_and_threshold_modes():
    assert decide_work(make_state(pending_q=5.3, theta_max=2)) == 2
    assert decide_work(make_state(pending_q=0.0)) == 0
    busy = make_state(availability_rho=1.0, unit_cost_c=10.0, pending_q=1.0, urgency_Q=1.0)
    assert decide_work(busy, mode="threshold") == 0
    pressured = make_state(availability_rho=1.0, unit_cost_c=0.1, pending_q=3.0, urgency_Q=1.0,
                           theta_max=2)
    assert decide_work(pressured, mode="threshold") == 2
    with pytest.raises(ValueError):
        decide_work(busy, mode="lazy")


def test_joint_composes_component_rules():
    state = make_state(availability_rho=1.0, reputation_r=0.5, pending_q=3.0, urgency_Q=2.0,
                       theta_max=1, s_max=5, reserve_price_p_min=1.0)
    ctx = make_ctx(avg_neighbor_price=1.0, eligible=True)
    decision = decide_for_policy(PAS, state, ctx, None)
    assert decision.work_theta == 1
    assert decision.subdelegate_s == 2
    assert decision.price_p == 3.0  # max(1, 3 / (2 * 1 * 0.5))
    assert decision.accept_x == 0  # 1 * 3 * 0.5 - 3 < 0
    assert not decision.price_degenerate
    assert validate_decision(state, decision) is None


def test_joint_zero_queue_accepts_iff_reserve_revenue_positive():
    state = make_state(pending_q=0.0, availability_rho=1.0, reputation_r=0.5)
    decision = decide_for_policy(PAS, state, make_ctx(), None)
    assert decision.accept_x == 1
    assert decision.price_p == state.reserve_price_p_min
    zero_rho = make_state(pending_q=0.0, availability_rho=0.0)
    assert decide_for_policy(PAS, zero_rho, make_ctx(), None).accept_x == 0


def test_joint_without_network_never_delegates():
    state = make_state(pending_q=8.0, urgency_Q=9.0, theta_max=1, s_max=5)
    ctx = make_ctx(avg_neighbor_price=math.inf)
    decision = decide_for_policy(PAS, state, ctx, None)
    assert decision.subdelegate_s == 0
    assert decision.work_theta == 1


def _random_state(rng):
    return make_state(
        availability_rho=float(rng.uniform(0.1, 4.0)),
        reputation_r=float(rng.uniform(0.05, 1.0)),
        pending_q=float(rng.uniform(0.0, 12.0)),
        urgency_Q=float(rng.uniform(0.0, 12.0)),
        unit_cost_c=float(rng.uniform(0.05, 2.0)),
        reserve_price_p_min=float(rng.uniform(0.3, 2.0)),
        current_price_p=2.0,
        theta_max=int(rng.integers(0, 5)),
        s_max=int(rng.integers(0, 5)),
    )


def test_acceptance_implies_nonnegative_joint_term():
    # accepting means rho*p*r - q > 0, so the acceptance scaled by any
    # demand level never reduces the per-step objective
    rng = np.random.default_rng(21)
    for _ in range(1000):
        state = _random_state(rng)
        price = decide_price(state)
        if decide_acceptance(state, price) == 1:
            for f in rng.uniform(0.0, 5.0, size=3):
                term = state.availability_rho * price * state.reputation_r * f - state.pending_q * f
                assert term >= 0.0


def test_longer_queue_never_cancels_delegation():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        state = _random_state(rng)
        ctx = make_ctx(avg_neighbor_price=float(rng.uniform(0.2, 6.0)), eligible=True)
        theta = 0
        before = decide_subdelegation(state, ctx, theta)
        bumped = state._replace(pending_q=state.pending_q + 1.0)
        after = decide_subdelegation(bumped, ctx, theta)
        if before > 0:
            assert after > 0


def test_price_scale_invariance():
    # scaling prices, costs, and queues together scales the posted price and
    # leaves the delegation threshold branch unchanged
    rng = np.random.default_rng(41)
    for _ in range(500):
        state = make_state(
            availability_rho=float(rng.uniform(0.1, 4.0)),
            reputation_r=float(rng.uniform(0.05, 1.0)),
            pending_q=float(rng.uniform(4.0, 12.0)),  # keeps the cap positive at half scale
            urgency_Q=float(rng.uniform(0.0, 12.0)),
            unit_cost_c=float(rng.uniform(0.05, 2.0)),
            reserve_price_p_min=float(rng.uniform(0.3, 2.0)),
            current_price_p=20.0,
            theta_max=int(rng.integers(0, 5)),
            s_max=int(rng.integers(1, 5)),
        )
        for lam in (2.0, 0.5, 7.3):
            scaled = state._replace(
                reserve_price_p_min=lam * state.reserve_price_p_min,
                current_price_p=lam * state.current_price_p,
                unit_cost_c=lam * state.unit_cost_c,
                pending_q=lam * state.pending_q,
                urgency_Q=lam * state.urgency_Q,
            )
            assert decide_price(scaled) == pytest.approx(lam * decide_price(state), rel=1e-12)

            pbar = float(rng.uniform(0.2, 5.0))
            ctx = make_ctx(avg_neighbor_price=pbar, eligible=True)
            ctx_scaled = make_ctx(avg_neighbor_price=lam * pbar, eligible=True)
            base_holds = decide_subdelegation(state, ctx, 0) == 0
            scaled_holds = decide_subdelegation(scaled, ctx_scaled, 0) == 0
            assert base_holds == scaled_holds
