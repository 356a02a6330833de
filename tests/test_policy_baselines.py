import numpy as np
import pytest

from aflsim import policy_baselines, policy_pas
from aflsim.policy_baselines import (
    ABLATION_NAMES,
    BASELINE_NAMES,
    POLICIES,
    decide_for_policy,
    price_ampp,
    price_lin,
    price_rand,
    resolve_policy,
    subdel_rand,
)
from aflsim.policy_pas import subdelegation_cap
from helpers import DEFAULTS, SETTINGS, make_state, validate_decision


def test_price_rand_mean_matches_uniform():
    state = make_state(reserve_price_p_min=1.0, current_price_p=1.0)
    rng = np.random.default_rng(1)
    draws = [price_rand(state, rng, markup_max=0.5) for _ in range(100_000)]  # U(1, 3)
    assert sum(draws) / len(draws) == pytest.approx(2.0, abs=0.01)


def test_price_rand_support_bounds():
    state = make_state(reserve_price_p_min=1.0, current_price_p=1.0)
    rng = np.random.default_rng(2)
    for _ in range(2000):
        p = price_rand(state, rng, DEFAULTS.policy.markup_max)  # cap 2 * p_min * (1 + markup)
        assert 1.0 <= p <= 4.0


def test_price_ampp_small_markup_approaches_reserve():
    state = make_state(reserve_price_p_min=1.0, current_price_p=1.0)
    rng = np.random.default_rng(3)
    assert price_ampp(state, rng, markup_max=1e-9) == pytest.approx(1.0, abs=1e-8)


def test_price_ampp_mean():
    state = make_state(reserve_price_p_min=2.0, current_price_p=2.0)
    rng = np.random.default_rng(4)
    draws = [price_ampp(state, rng, markup_max=1.0) for _ in range(100_000)]
    assert sum(draws) / len(draws) == pytest.approx(3.0, abs=0.02)
    assert min(draws) >= 2.0


def test_random_prices_equal_rng_uniform_on_a_twin_generator():
    draws = np.random.default_rng(5)
    direct, uniform = np.random.default_rng(6), np.random.default_rng(6)
    for _ in range(2000):
        p_min = float(draws.uniform(0.01, 50.0))
        markup = float(draws.uniform(1e-6, 20.0))
        state = make_state(reserve_price_p_min=p_min, current_price_p=p_min)
        assert price_rand(state, direct, markup) == uniform.uniform(p_min, 2.0 * p_min * (1.0 + markup))
        assert price_ampp(state, direct, markup) == p_min * (1.0 + uniform.uniform(0.0, markup))
    assert direct.bit_generator.state == uniform.bit_generator.state


def test_price_rand_rejects_an_infinite_cap():
    state = make_state(reserve_price_p_min=2.0, current_price_p=2.0)
    with pytest.raises(ValueError, match="finite"):
        price_rand(state, np.random.default_rng(0), markup_max=1e308)


def test_lyapunov_price_tests_degeneracy_once_per_decision(monkeypatch):
    calls = []
    real = policy_pas.price_is_degenerate

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(policy_pas, "price_is_degenerate", counted)
    monkeypatch.setattr(policy_baselines, "price_is_degenerate", counted)
    states = [
        make_state(pending_q=4.0, availability_rho=1.0, reputation_r=0.6),
        make_state(pending_q=4.0, availability_rho=0.0),  # degenerate: no availability
        make_state(pending_q=1.0, reputation_r=1e-4),  # degenerate: below the floor
    ]
    for state in states:
        decide_for_policy(POLICIES["pas-afl"], state, 1.0, False, None, *SETTINGS)
    assert len(calls) == len(states)


def test_price_lin_values():
    assert price_lin(make_state(reserve_price_p_min=1.0, current_price_p=1.0), gain=1.0) == 1.0
    assert price_lin(make_state(reserve_price_p_min=2.0, current_price_p=2.0), gain=1.5) == 3.0
    assert price_lin(make_state(reserve_price_p_min=0.5, current_price_p=0.5), gain=2.0) == 1.0


def test_subdel_rand_trivial_zeros():
    rng = np.random.default_rng(5)
    assert subdel_rand(make_state(pending_q=0.0), True, 0, rng) == 0
    assert subdel_rand(make_state(pending_q=6.0), False, 1, rng) == 0


def test_subdel_rand_support_is_exact():
    state = make_state(pending_q=6.0, s_max=3)
    rng = np.random.default_rng(6)
    seen = {subdel_rand(state, True, 1, rng) for _ in range(100_000)}
    assert seen == {0, 1, 2, 3}


def test_subdel_greedy_values():
    assert subdelegation_cap(make_state(pending_q=6.0, s_max=3), True, 1) == 3
    assert subdelegation_cap(make_state(pending_q=1.0, s_max=3), True, 1) == 0
    assert subdelegation_cap(make_state(pending_q=6.0, s_max=3), False, 1) == 0


def test_baseline_joint_lin_greedy_composition():
    state = make_state(pending_q=6.0, s_max=3, theta_max=1, reserve_price_p_min=2.0,
                       current_price_p=2.0)
    decision = decide_for_policy(POLICIES["lin-greedy"], state, 1.0, True, np.random.default_rng(7), *SETTINGS)
    assert decision.accept_x == 1
    assert decision.price_p == 3.0
    assert decision.work_theta == 1
    assert decision.subdelegate_s == 3
    assert validate_decision(state, decision) is None


def test_baseline_joint_zero_state():
    state = make_state(pending_q=0.0)
    decision = decide_for_policy(POLICIES["rand-rand"], state, 1.0, False, np.random.default_rng(8), *SETTINGS)
    assert decision.accept_x == 1
    assert decision.subdelegate_s == 0
    assert decision.work_theta == 0


def test_baseline_joint_is_reproducible():
    state = make_state(pending_q=6.0, s_max=3, theta_max=1)
    one = decide_for_policy(POLICIES["rand-rand"], state, 1.0, True, np.random.default_rng(99), *SETTINGS)
    two = decide_for_policy(POLICIES["rand-rand"], state, 1.0, True, np.random.default_rng(99), *SETTINGS)
    assert one == two


def test_baseline_joint_rejects_unknown_name():
    with pytest.raises(ValueError):
        resolve_policy("nonsense")


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
        decision = decide_for_policy(POLICIES[name], state, pbar, eligible, policy_rng, *SETTINGS)
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
        pas = decide_for_policy(POLICIES["pas-afl"], state, pbar, True, np.random.default_rng(1), *SETTINGS)
        # pricing ablations keep the work and sub-delegation decisions
        for name in ("pas-nopricing-rand", "pas-nopricing-ampp", "pas-nopricing-lin"):
            ablated = decide_for_policy(POLICIES[name], state, pbar, True, np.random.default_rng(1), *SETTINGS)
            assert ablated.work_theta == pas.work_theta
            assert ablated.subdelegate_s == pas.subdelegate_s
        # sub-delegation ablations keep work, price, and acceptance
        for name in ("pas-nosubdel-rand", "pas-nosubdel-greedy"):
            ablated = decide_for_policy(POLICIES[name], state, pbar, True, np.random.default_rng(1), *SETTINGS)
            assert ablated.work_theta == pas.work_theta
            assert ablated.price_p == pas.price_p
            assert ablated.accept_x == pas.accept_x
