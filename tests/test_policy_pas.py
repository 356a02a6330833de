import math
from unittest import mock

import numpy as np
import pytest

from aflsim import market
from aflsim.config import resolve_config
from aflsim.market import build_world, step
from aflsim.policy_baselines import POLICIES
from aflsim.policy_pas import (
    decide_acceptance,
    decide_subdelegation,
    decide_work,
    eligible_delegates,
    price_is_degenerate,
    subdelegation_cap,
)
from aflsim.simcli import run_scenario
from helpers import (
    R_FLOOR,
    SETTINGS,
    joint_decision,
    lyapunov_price,
    make_state,
    neighbour_rows,
    quoted_mask,
    state_columns,
    trust_network,
    validate_decision,
    views,
)
import reference_policy

PAS = POLICIES["pas-afl"]


def _subdelegation(state, avg_neighbor_price, has_eligible_delegate, theta):
    """The threshold rule's goal for one DO, from its one-row columns."""
    states = state_columns(state)
    cap = np.where(has_eligible_delegate, subdelegation_cap(states, np.array([theta])), 0)
    return decide_subdelegation(states, np.array([avg_neighbor_price]), cap).item()


def _accepts(state, price):
    return decide_acceptance(state_columns(state), np.array([price])).item()


def _work(state, mode):
    return decide_work(state_columns(state), mode).item()


def _quotes(net, prices, reps, reference_payment, r_min):
    """`eligible_delegates` asked for DO 0 alone: its one row of quotes, as a
    boolean row over the DOs."""
    found = eligible_delegates(
        neighbour_rows(net, [0]), prices, reps, np.array([reference_payment]), np.array([r_min])
    )
    assert found.shape == neighbour_rows(net, [0]).shape
    return quoted_mask(found, len(prices))[0].tolist()


def test_eligible_delegates_basic_constraint():
    net = trust_network(2, [(0, 1)])
    prices, reps = np.array([1.0, 1.0]), np.array([0.6, 0.9])
    assert _quotes(net, prices, reps, reference_payment=2.0, r_min=0.5) == [False, True]
    assert _quotes(net, prices, reps, reference_payment=0.5, r_min=0.5) == [False, False]


def test_eligible_delegates_empty_neighborhood():
    net = trust_network(2)
    prices, reps = np.array([1.0, 1.0]), np.array([0.6, 0.6])
    assert _quotes(net, prices, reps, 2.0, 0.5) == [False, False]


def test_eligible_delegates_reputation_gate():
    net = trust_network(2, [(0, 1)])
    prices, reps = np.array([1.0, 0.1]), np.array([0.6, 0.4])
    assert _quotes(net, prices, reps, 2.0, 0.5) == [False, False]


def test_eligible_delegates_answers_each_row_with_its_own_limits():
    net = trust_network(3, [(0, 1), (1, 2)])
    prices, reps = np.array([1.0, 2.0, 3.0]), np.array([0.9, 0.6, 0.9])
    found = eligible_delegates(
        neighbour_rows(net, [0, 1, 2]), prices, reps, np.array([2.0, 3.0, 2.0]), np.array([0.5, 0.95, 0.5])
    )
    # DO 1's neighbours 0 and 2 ask no more than 3.0 but neither reaches its 0.95.
    assert quoted_mask(found, 3).tolist() == [[False, True, False], [False, False, False], [False, True, False]]


def _tiny_world(n_dos: int, edge_prob: float, policy="rand-greedy", work_mode="greedy"):
    """Every DO holds five tasks paying 1.5, works at most two per step, has
    reputation 0.9 and trusts neighbours with reputation >= 0.5, so each DO
    may delegate.  The default policy's greedy rule reads eligibility
    wherever it may delegate."""
    cfg = resolve_config({
        "n_dos": n_dos,
        "trust_edge_prob": edge_prob,
        "seeds": [1],
        "do_params": {
            "p_min": [1.0, 1.0],
            "rho": [20.0, 20.0],
            "r0": [0.9, 0.9],
            "r_min": [0.5, 0.5],
            "theta_max": [2, 2],
            "q0": [5, 5],
            "q0_payment_markup": [1.5, 1.5],
        },
        "policy": {"assignment": policy, "work_mode": work_mode},
    })
    return build_world(cfg, 1)


def _contexts(world, prices):
    """The world's snapshot at `prices`, after the work its rule decides."""
    return world._build_contexts(prices, decide_work(world.states, world.config.policy.work_mode))


def test_delegation_context_uses_infinite_sentinel_without_neighbors():
    world = _tiny_world(1, 0.0)
    avg, _, eligible, *_ = _contexts(world, np.array([1.0]))
    assert avg.tolist() == [math.inf]
    assert eligible.tolist() == [False]


def test_delegation_context_averages_all_neighbors():
    world = _tiny_world(3, 1.0)
    avg, _, eligible, *_ = _contexts(world, np.array([1.0, 1.0, 3.0]))
    assert avg.tolist() == [2.0, 2.0, 1.0]
    assert eligible.tolist() == [True, True, True]  # each has a neighbour asking 1.0 <= 1.5
    avg, _, eligible, asked, quotes = _contexts(world, np.array([1.0, 2.0, 3.0]))
    assert avg.tolist() == [2.5, 2.0, 1.5]
    assert eligible.tolist() == [False, True, True]  # DO 0's neighbours both ask more than 1.5
    assert asked.tolist() == [0, 1, 2]
    assert quoted_mask(quotes, 3).tolist() == [[False, False, False], [True, False, False], [True, False, False]]


def test_delegation_context_ignores_tasks_at_depth_cap():
    world = _tiny_world(3, 1.0)
    queue = world.queue
    queue["depth"][queue["owner"] == 0] = world.config.market.delegation_depth_max
    _, _, eligible, asked, _ = _contexts(world, np.array([1.0, 1.0, 1.0]))
    assert eligible.tolist() == [False, True, True]
    assert asked.tolist() == [1, 2]


def test_threshold_do_that_keeps_its_tasks_local_is_not_asked(monkeypatch):
    """Only a DO whose goal would be positive with an eligible delegate is
    asked for quotes.  In threshold work mode DO 2 works all five of its
    tasks and DO 3 may sub-delegate none, so neither is asked, though both
    hold a routable task."""
    world = _tiny_world(4, 1.0, policy=["pas-afl", "rand-greedy", "rand-greedy", "rand-greedy"], work_mode="threshold")
    states = world.states
    states["theta_max"][2], states["urgency_Q"][2] = 5, 100.0  # queue pressure makes DO 2 work its backlog
    states["s_max"][3] = 0
    asked = []

    def recording(neighbours, *args):
        asked.append(quoted_mask(neighbours, 4).tolist())
        return eligible_delegates(neighbours, *args)

    monkeypatch.setattr(market, "eligible_delegates", recording)
    prices = np.array([1.0, 1.0, 1.0, 1.0])
    # DO 0's sign test, 20 * 1.0 - 5 - 0 >= 0, keeps pas-afl's tasks local.
    _, goal, eligible, rows, quotes = _contexts(world, prices)
    assert (goal[0], goal[2], goal[3]) == (0, 0, 0)
    assert eligible.tolist() == [False, True, False, False]
    assert asked == [[[True, False, True, True]]]  # DO 1's row alone
    assert (rows.tolist(), quoted_mask(quotes, 4).tolist()) == ([1], [[True, False, True, True]])
    # Queue pressure past the neighbour price makes pas-afl read, and be asked.
    states["urgency_Q"][0] = 100.0
    _, goal, eligible, rows, quotes = _contexts(world, prices)
    assert goal[0] > 0
    assert eligible.tolist() == [True, True, False, False]
    assert asked[1] == [[False, True, True, True], [True, False, True, True]]
    assert (rows.tolist(), quoted_mask(quotes, 4).tolist()) == (
        [0, 1], [[False, True, True, True], [True, False, True, True]]
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("work_mode", ["greedy", "threshold"])
@pytest.mark.parametrize(
    "edge_prob, do_params",
    [
        (0.0, {"rho": [0.0, 0.0]}),  # isolated: rho = 0 beside a mean price of inf is nan
        (1.0, {"rho": [1e300, 1e300], "p_min": [1e10, 1e10]}),  # rho * price overflows to inf
    ],
)
def test_array_sign_test_runs_clean_where_the_float_one_does(work_mode, edge_prob, do_params):
    cfg = resolve_config({
        "n_dos": 3, "horizon_T": 4, "trust_edge_prob": edge_prob, "seeds": [1],
        "do_params": {**do_params, "q0": [4, 4]},
        "policy": {"assignment": "pas-afl", "work_mode": work_mode},
    })
    assert run_scenario(cfg, 1).audit_checks == cfg.horizon_T


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "do_params",
    [
        {"rho": [0.0, 0.0]},  # q / 0, or 0 / 0 on an empty queue
        {"r0": [0.0, 0.0]},  # q / 0 until the first update lifts reputation to the floor
        {"r0": [1e-4, 1e-4]},  # below the floor, with a finite quotient
    ],
)
def test_degenerate_prices_run_clean_and_are_counted(do_params):
    cfg = resolve_config({
        "n_dos": 4, "horizon_T": 5, "seeds": [1],
        "do_params": {**do_params, "q0": [0, 4]}, "policy": {"assignment": "pas-afl"},
    })
    world = build_world(cfg, 1)
    want = 0
    for _ in range(cfg.horizon_T):
        want += sum(reference_policy.price_is_degenerate(view, cfg.market.r_floor) for view in views(world))
        step(world)
    assert world.degenerate_price_steps == want > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "do_params, market_params",
    [
        ({"rho": [5e-324, 5e-324], "r0": [0.2, 0.2]}, {}),  # 2 * rho * r underflows to 0
        ({"rho": [1e-300, 1e-300], "r0": [1e-10, 1e-10]}, {"r_floor": 1e-10}),  # q / (2 * rho * r) overflows
    ],
)
def test_a_price_that_is_not_finite_stops_the_step_before_settling(do_params, market_params):
    # resolve_config rejects these rho, so a valid world is given them as a fault.
    cfg = resolve_config({
        "n_dos": 5, "horizon_T": 4, "policy": {"assignment": "pas-afl"},
        "do_params": {"r0": do_params["r0"], "q0": [0, 4]}, "market": market_params,
    })
    world = build_world(cfg, 1)
    world.states["availability_rho"] = do_params["rho"][0]
    assert not reference_policy.price_is_degenerate(views(world)[0], cfg.market.r_floor)
    with mock.patch.object(market, "settle", side_effect=AssertionError("settled")):
        with pytest.raises(market.MarketInvariantError, match=r"^DO 0 at step 0 posted a price of inf\b"):
            step(world)


def test_subdelegation_holds_when_neighbors_expensive():
    state = make_state(availability_rho=1.0, pending_q=3.0, urgency_Q=2.0, s_max=5)
    assert _subdelegation(state, 10.0, True, theta=0) == 0


def test_subdelegation_offloads_leftover_backlog():
    state = make_state(availability_rho=1.0, pending_q=3.0, urgency_Q=2.0, s_max=5)
    assert _subdelegation(state, 1.0, True, theta=1) == 2


def test_subdelegation_empty_queue():
    state = make_state(pending_q=0.0)
    assert _subdelegation(state, 0.1, True, theta=0) == 0


def test_subdelegation_requires_eligible_delegate():
    state = make_state(availability_rho=1.0, pending_q=5.0, urgency_Q=5.0, s_max=5)
    assert _subdelegation(state, 0.5, False, theta=0) == 0


def test_subdelegation_respects_cap():
    state = make_state(availability_rho=1.0, pending_q=9.0, urgency_Q=5.0, s_max=3)
    assert _subdelegation(state, 0.5, True, theta=2) == 3


def test_price_hand_values():
    assert lyapunov_price(make_state(reserve_price_p_min=1.0, pending_q=4.0,
                                   availability_rho=1.0, reputation_r=0.5)) == 4.0
    assert lyapunov_price(make_state(reserve_price_p_min=1.0, pending_q=0.0)) == 1.0
    assert lyapunov_price(make_state(reserve_price_p_min=0.5, current_price_p=0.5, pending_q=10.0,
                                   availability_rho=2.0, reputation_r=1.0)) == 2.5


def test_price_degenerate_availability_falls_back_to_reserve():
    state = make_state(availability_rho=0.0, pending_q=50.0)
    assert price_is_degenerate(state_columns(state), R_FLOOR).item()
    assert lyapunov_price(state) == state.reserve_price_p_min


def test_price_degenerate_reputation_falls_back_to_reserve():
    state = make_state(reputation_r=1e-6, pending_q=50.0)
    assert price_is_degenerate(state_columns(state), R_FLOOR).item()
    assert lyapunov_price(state) == state.reserve_price_p_min


def test_acceptance_hand_values():
    assert _accepts(make_state(availability_rho=1.0, reputation_r=1.0, pending_q=1.0), 2.0) == 1
    # exact equality of weighted revenue and backlog declines (strict inequality)
    assert _accepts(make_state(availability_rho=1.0, reputation_r=1.0, pending_q=2.0), 2.0) == 0
    assert _accepts(make_state(availability_rho=0.0, pending_q=1.0), 2.0) == 0


def test_work_greedy_and_threshold_modes():
    assert _work(make_state(pending_q=5.3, theta_max=2), "greedy") == 2
    assert _work(make_state(pending_q=0.0), "greedy") == 0
    busy = make_state(availability_rho=1.0, unit_cost_c=10.0, pending_q=1.0, urgency_Q=1.0)
    assert _work(busy, mode="threshold") == 0
    pressured = make_state(availability_rho=1.0, unit_cost_c=0.1, pending_q=3.0, urgency_Q=1.0,
                           theta_max=2)
    assert _work(pressured, mode="threshold") == 2


def test_joint_composes_component_rules():
    state = make_state(availability_rho=1.0, reputation_r=0.5, pending_q=3.0, urgency_Q=2.0,
                       theta_max=1, s_max=5, reserve_price_p_min=1.0)
    decision = joint_decision(PAS, state, 1.0, True, None, *SETTINGS)
    assert decision.work_theta == 1
    assert decision.subdelegate_s == 2
    assert decision.price_p == 3.0  # max(1, 3 / (2 * 1 * 0.5))
    assert decision.accept_x == 0  # 1 * 3 * 0.5 - 3 < 0
    assert not decision.price_degenerate
    assert validate_decision(state, decision) is None


def test_joint_zero_queue_accepts_iff_reserve_revenue_positive():
    state = make_state(pending_q=0.0, availability_rho=1.0, reputation_r=0.5)
    decision = joint_decision(PAS, state, 1.0, False, None, *SETTINGS)
    assert decision.accept_x == 1
    assert decision.price_p == state.reserve_price_p_min
    zero_rho = make_state(pending_q=0.0, availability_rho=0.0)
    assert joint_decision(PAS, zero_rho, 1.0, False, None, *SETTINGS).accept_x == 0


def test_joint_without_network_never_delegates():
    state = make_state(pending_q=8.0, urgency_Q=9.0, theta_max=1, s_max=5)
    decision = joint_decision(PAS, state, math.inf, False, None, *SETTINGS)
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
        price = lyapunov_price(state)
        if _accepts(state, price) == 1:
            for f in rng.uniform(0.0, 5.0, size=3):
                term = state.availability_rho * price * state.reputation_r * f - state.pending_q * f
                assert term >= 0.0


def test_longer_queue_never_cancels_delegation():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        state = _random_state(rng)
        pbar = float(rng.uniform(0.2, 6.0))
        theta = 0
        before = _subdelegation(state, pbar, True, theta)
        bumped = state._replace(pending_q=state.pending_q + 1.0)
        after = _subdelegation(bumped, pbar, True, theta)
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
            assert lyapunov_price(scaled) == pytest.approx(lam * lyapunov_price(state), rel=1e-12)

            pbar = float(rng.uniform(0.2, 5.0))
            base_holds = _subdelegation(state, pbar, True, 0) == 0
            scaled_holds = _subdelegation(scaled, lam * pbar, True, 0) == 0
            assert base_holds == scaled_holds
