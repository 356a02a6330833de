import numpy as np

from aflsim import market
from aflsim.config import resolve_config
from aflsim.policy_baselines import (
    ABLATION_NAMES,
    BASELINE_NAMES,
    POLICIES,
    price_lin,
    subdel_rand,
)
from aflsim.policy_pas import subdelegation_cap
from helpers import SETTINGS, joint_decision, make_state, state_columns, validate_decision


def test_lyapunov_price_tests_degeneracy_once_per_decision(monkeypatch):
    calls = []
    real = market.price_is_degenerate

    def counted(states, r_floor):
        calls.append(len(states))
        return real(states, r_floor)

    monkeypatch.setattr(market, "price_is_degenerate", counted)
    cfg = resolve_config({"n_dos": 3, "horizon_T": 1, "policy": {"assignment": "pas-afl"}})
    world = market.build_world(cfg, 1)
    world.states["availability_rho"] = [1.0, 0.0, 1.0]  # DO 1 degenerate: no availability
    world.states["reputation_r"] = [0.6, 0.6, 1e-4]  # DO 2 degenerate: below the floor
    market.step(world)
    assert calls == [3]  # one test of every DO's state per step
    assert world.degenerate_price_steps == 2


def test_price_lin_values():
    states = state_columns(*(make_state(reserve_price_p_min=p, current_price_p=p) for p in (1.0, 2.0, 0.5)))
    assert price_lin(states, gain=1.0).tolist() == [1.0, 2.0, 0.5]
    assert price_lin(states, gain=1.5).tolist() == [1.5, 3.0, 0.75]
    assert price_lin(states, gain=2.0).tolist() == [2.0, 4.0, 1.0]


def test_subdel_rand_trivial_zeros():
    rng = np.random.default_rng(5)
    states = state_columns(make_state(pending_q=0.0), make_state(pending_q=6.0))
    caps = np.where([True, False], subdelegation_cap(states, np.array([0, 1])), 0)
    before = rng.bit_generator.state
    assert [subdel_rand(cap, rng) for cap in caps.tolist()] == [0, 0]
    assert rng.bit_generator.state == before  # nothing could be delegated, so nothing is drawn


def test_subdel_greedy_values():
    states = state_columns(*(make_state(pending_q=q, s_max=3) for q in (6.0, 1.0, 6.0)))
    caps = np.where([True, True, False], subdelegation_cap(states, np.array([1, 1, 1])), 0)
    assert caps.tolist() == [3, 0, 0]


def test_baseline_joint_lin_greedy_composition():
    state = make_state(pending_q=6.0, s_max=3, theta_max=1, reserve_price_p_min=2.0,
                       current_price_p=2.0)
    decision = joint_decision(POLICIES["lin-greedy"], state, 1.0, True, np.random.default_rng(7), *SETTINGS)
    assert decision.accept_x == 1
    assert decision.price_p == 3.0
    assert decision.work_theta == 1
    assert decision.subdelegate_s == 3
    assert validate_decision(state, decision) is None


def test_baseline_joint_zero_state():
    state = make_state(pending_q=0.0)
    decision = joint_decision(POLICIES["rand-rand"], state, 1.0, False, np.random.default_rng(8), *SETTINGS)
    assert decision.accept_x == 1
    assert decision.subdelegate_s == 0
    assert decision.work_theta == 0


def test_every_baseline_emits_valid_decisions():
    rng = np.random.default_rng(10)
    policy_rng = np.random.default_rng(11)
    for _ in range(10_000):
        state = make_state(
            reputation_r=float(rng.uniform(0, 1)),
            pending_q=float(rng.uniform(0, 12)),
            urgency_Q=float(rng.uniform(0, 12)),
            availability_rho=float(rng.uniform(0, 4)),
            unit_cost_c=float(rng.uniform(0, 2)),
            reserve_price_p_min=float(rng.uniform(0.2, 2.0)),
            current_price_p=10.0,
            theta_max=int(rng.integers(0, 5)),
            s_max=int(rng.integers(0, 5)),
        )
        pbar, eligible = float(rng.uniform(0.2, 5.0)), bool(rng.integers(2))
        name = BASELINE_NAMES[int(rng.integers(len(BASELINE_NAMES)))]
        decision = joint_decision(POLICIES[name], state, pbar, eligible, policy_rng, *SETTINGS)
        violation = validate_decision(state, decision)
        assert violation is None, f"{name} violated {violation}"


def test_ablations_differ_from_joint_policy_in_exactly_one_component():
    reference = POLICIES["pas-afl"]
    for name in ABLATION_NAMES:
        spec = POLICIES[name]
        diffs = [
            field
            for field in ("price_rule", "subdel_rule", "accept_rule")
            if getattr(spec, field) != getattr(reference, field)
        ]
        assert len(diffs) == 1, f"{name} differs in {diffs}"


def test_ablation_decision_traces_share_unablated_components():
    rng = np.random.default_rng(12)
    for _ in range(500):
        state = make_state(
            reputation_r=float(rng.uniform(0.05, 1)),
            pending_q=float(rng.uniform(0, 12)),
            urgency_Q=float(rng.uniform(0, 12)),
            availability_rho=float(rng.uniform(0.1, 4)),
            reserve_price_p_min=float(rng.uniform(0.2, 2.0)),
            current_price_p=10.0,
            theta_max=3,
            s_max=3,
        )
        pbar = float(rng.uniform(0.2, 5.0))
        pas = joint_decision(POLICIES["pas-afl"], state, pbar, True, np.random.default_rng(1), *SETTINGS)
        # pricing ablations keep the work and sub-delegation decisions
        for name in ("pas-nopricing-rand", "pas-nopricing-ampp", "pas-nopricing-lin"):
            ablated = joint_decision(POLICIES[name], state, pbar, True, np.random.default_rng(1), *SETTINGS)
            assert ablated.work_theta == pas.work_theta
            assert ablated.subdelegate_s == pas.subdelegate_s
        # sub-delegation ablations keep work, price, and acceptance
        for name in ("pas-nosubdel-rand", "pas-nosubdel-greedy"):
            ablated = joint_decision(POLICIES[name], state, pbar, True, np.random.default_rng(1), *SETTINGS)
            assert ablated.work_theta == pas.work_theta
            assert ablated.price_p == pas.price_p
            assert ablated.accept_x == pas.accept_x
