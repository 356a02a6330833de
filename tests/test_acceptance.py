"""End-to-end acceptance checks for the simulator.

Each test prints one PASS/FAIL line tagged [acceptance] so the suite doubles
as a checklist.  The heavy policy-comparison runs are shared between checks
through module-scoped fixtures.

Note on C2: the per-step pricing objective z*p*(p*r*rho - q)/r**a1 has a
positive coefficient on p**2, so it is strictly convex in price and its one
stationary point q/(2*rho*r) is its minimum.  Over p >= p_min the closed-form
rule max(p_min, q/(2*rho*r)) is therefore exactly the clamped minimum, and C2
grid-searches that argmin over [p_min, max(p_min, q/(rho*r))], the whole
region where the objective is negative.  The window's upper edge is where the
objective changes sign, so it does not depend on the rule under test.  The
maximum of a convex objective sits on a window edge, so C2 also prints, without
asserting it, how often the rule hits the grid argmax.
"""

import math
import time

import numpy as np
import pytest

from aflsim.config import MarketConstants, resolve_config
from aflsim.market import build_world
from aflsim.policy_baselines import ABLATION_NAMES, BASELINE_NAMES
from aflsim.policy_pas import decide_subdelegation, subdelegation_cap
from aflsim.simcli import run_preset, run_scenario
from helpers import drift_bound, lyapunov_prices, make_state, run_world, state_columns


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {tag}: {'PASS' if ok else 'FAIL'} ({detail})")


# --- shared heavy runs ---


@pytest.fixture(scope="module")
def compare_matrix():
    cfg = resolve_config({})
    start = time.perf_counter()
    matrix = {
        policy: [run_scenario(cfg.with_assignment(policy), seed) for seed in cfg.seeds]
        for policy in ("pas-afl",) + BASELINE_NAMES
    }
    elapsed = time.perf_counter() - start
    return cfg, matrix, elapsed


@pytest.fixture(scope="module")
def ablate_matrix(compare_matrix):
    cfg, compare, _ = compare_matrix
    matrix = {"pas-afl": compare["pas-afl"]}
    for policy in ABLATION_NAMES:
        matrix[policy] = [run_scenario(cfg.with_assignment(policy), seed) for seed in cfg.seeds]
    return cfg, matrix


@pytest.fixture(scope="module")
def drift_run():
    cfg = resolve_config({})
    start = time.perf_counter()
    world = build_world(cfg, 12345, policy_override="pas-afl")
    initial, records = run_world(world)
    elapsed = time.perf_counter() - start
    return cfg, world, initial, records, elapsed


# --- C1: sub-delegation closed form vs enumeration oracle ---


def test_c1_subdelegation_closed_form_matches_enumeration():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    cases = []
    for _ in range(1000):
        q = float(rng.uniform(0.0, 12.0))
        theta_max = int(rng.integers(0, 5))
        theta = int(rng.integers(0, min(int(q), theta_max) + 1))
        state = make_state(
            pending_q=q,
            urgency_Q=float(rng.uniform(0.0, 12.0)),
            availability_rho=float(rng.uniform(0.0, 3.0)),
            theta_max=theta_max,
            s_max=int(rng.integers(0, 6)),
        )
        cases.append((state, float(rng.uniform(0.2, 5.0)), bool(rng.integers(2)), theta))

    # The rule decides all 1,000 states in one call.
    states, pbars, has_delegates, thetas = zip(*cases)
    columns = state_columns(*states)
    caps = np.where(has_delegates, subdelegation_cap(columns, np.array(thetas)), 0)
    decisions = decide_subdelegation(columns, np.array(pbars), caps).tolist()

    mismatches = 0
    for state, pbar, has_delegate, theta, decided in zip(states, pbars, has_delegates, thetas, decisions):
        # independent oracle: enumerate every feasible integer amount
        def objective(s):
            if s == 0:
                return 0.0
            return -s * (state.availability_rho * pbar - state.pending_q - state.urgency_Q)

        if has_delegate:
            cap = max(0, min(int(math.floor(state.pending_q)) - theta, state.s_max))
            feasible = range(0, cap + 1)
        else:
            feasible = (0,)
        best = max(objective(s) for s in feasible)
        if objective(decided) != best or decided not in feasible:
            mismatches += 1
    elapsed = time.perf_counter() - start

    ok = mismatches == 0 and elapsed < 10.0
    _report("C1 sub-delegation vs enumeration oracle",
            ok, f"mismatches={mismatches}/1000, {elapsed:.2f}s")
    assert elapsed < 10.0
    assert mismatches == 0


# --- C2: pricing closed form vs grid-search oracle ---


def test_c2_pricing_closed_form_matches_grid_search():
    rng = np.random.default_rng(4096)
    start = time.perf_counter()
    cases = []
    for _ in range(1000):
        p_min = float(rng.uniform(0.5, 2.0))
        q = float(rng.uniform(0.1, 12.0))
        rho = float(rng.uniform(0.2, 2.0))
        r = float(rng.uniform(0.05, 1.0))
        a1 = float(rng.uniform(0.5, 2.0))
        constants = MarketConstants(
            a0=float(rng.uniform(0.0, 1.0)),
            a1=a1,
            a2=float(rng.uniform(0.0, 0.7)),
            a3=float(rng.uniform(0.0, 1.0)),
        )
        epsilon, mp = float(rng.uniform(0.0, 1.0)), int(rng.integers(1, 50))
        # The demand multiplier exp(a0 + a3*eps) * Mp**a2, with libm's exp and pow as the market takes them.
        z = math.exp(constants.a0 + constants.a3 * epsilon) * pow(float(mp), constants.a2)
        state = make_state(
            reserve_price_p_min=p_min,
            current_price_p=p_min,
            pending_q=q,
            availability_rho=rho,
            reputation_r=r,
        )
        cases.append((state, a1, z))

    # The rule prices all 1,000 states in one call.
    states, a1s, zs = zip(*cases)
    prices = lyapunov_prices(state_columns(*states)).tolist()

    mismatches = 0
    argmax_hits = 0
    clamped = 0
    samples = []
    for state, a1, z, closed_form in zip(states, a1s, zs, prices):
        p_min, q = state.reserve_price_p_min, state.pending_q
        rho, r = state.availability_rho, state.reputation_r

        # independent oracle: grid search of the acceptance-weighted pricing
        # objective z * p * (p*r*rho - q) / r**a1 with the accept flag at 1.
        # The window runs from the reserve to the objective's positive root
        # q/(rho*r), so it holds every price at which the objective is negative.
        step_size = 1e-3 * p_min
        upper = max(p_min, q / (rho * r))
        grid = p_min + step_size * np.arange(math.ceil((upper - p_min) / step_size) + 1)
        objective = z * grid * (grid * r * rho - q) / r**a1
        grid_best = float(grid[int(np.argmin(objective))])
        grid_worst = float(grid[int(np.argmax(objective))])

        if closed_form == p_min:
            clamped += 1
        if abs(closed_form - grid_worst) <= 1.5 * step_size:
            argmax_hits += 1
        if abs(closed_form - grid_best) > 1.5 * step_size:
            mismatches += 1
            if len(samples) < 3:
                samples.append(
                    f"(p_min={p_min:.3f}, q={q:.3f}, rho={rho:.3f}, r={r:.3f}) "
                    f"closed={closed_form:.4f} grid={grid_best:.4f}"
                )
    elapsed = time.perf_counter() - start

    ok = mismatches == 0 and elapsed < 60.0
    _report("C2 pricing vs grid-search oracle", ok,
            f"mismatches={mismatches}/1000 (interior={1000 - clamped}, "
            f"reserve clamp={clamped}), closed form is the window argmax on "
            f"{argmax_hits}/1000, {elapsed:.2f}s")
    assert elapsed < 60.0
    assert mismatches == 0, (
        f"closed-form price disagrees with the grid argmin on {mismatches}/1000 states, "
        f"e.g. {samples}. The pricing objective z*p*(p*r*rho - q)/r**a1 has a positive "
        "coefficient on p**2, so it is strictly convex in p and its minimum over "
        "p >= p_min is the stationary point q/(2*rho*r) clamped at the reserve; the "
        "closed-form rule max(p_min, q/(2*rho*r)) must return that point to within "
        "1.5 grid steps."
    )


# --- C3: realized queue-energy drift never exceeds its bound ---


def test_c3_drift_never_exceeds_bound(drift_run):
    cfg, world, initial, records, elapsed = drift_run
    states = world.states
    caps = dict(enumerate(zip(
        states["theta_max"].tolist(), states["s_max"].tolist(), states["kappa_max"].tolist()
    )))

    by_do: dict[int, list] = {}
    for rec in records:
        by_do.setdefault(rec.do_id, []).append(rec)

    violations = 0
    worst = -math.inf
    checked = 0
    for do_id, recs in by_do.items():
        recs.sort(key=lambda r: r.step)
        q_pre, Q_pre = initial[do_id]
        ksum, kn = 0.0, 0
        for rec in recs:
            kappa_bar = cfg.market.kappa_bar_prior if kn == 0 else ksum / kn
            moved = rec.completed_theta + rec.subdelegated_s
            bound = drift_bound(q_pre, Q_pre, rec.accepted_kappa, moved, kappa_bar, *caps[do_id])
            drift = 0.5 * (rec.pending_q**2 + rec.urgency_Q**2) - 0.5 * (
                q_pre**2 + Q_pre**2
            )
            worst = max(worst, drift - bound)
            if drift > bound + 1e-9:
                violations += 1
            checked += 1
            q_pre, Q_pre = rec.pending_q, rec.urgency_Q
            ksum += rec.accepted_kappa
            kn += 1

    ok = violations == 0 and elapsed < 60.0
    _report("C3 drift bound over full simulation", ok,
            f"{checked} transitions, violations={violations}, "
            f"worst margin={worst:.3g}, sim {elapsed:.1f}s")
    assert elapsed < 60.0
    assert checked == cfg.n_dos * cfg.horizon_T
    assert violations == 0


# --- C4: queue stability on long horizons ---


def test_c4_queues_stay_stable_long_horizon():
    cfg = resolve_config({"horizon_T": 2000, "policy": {"assignment": "pas-afl"}})
    half = cfg.horizon_T // 2
    t = np.arange(half, cfg.horizon_T)
    worst_q_slope = -math.inf
    worst_Q_slope = -math.inf
    for seed in cfg.seeds:
        result = run_scenario(cfg, seed)
        q_slope = float(np.polyfit(t, result.per_step_mean_q[half:], 1)[0])
        Q_slope = float(np.polyfit(t, result.per_step_max_Q[half:], 1)[0])
        assert np.isfinite(result.per_step_max_Q[half:]).all()
        worst_q_slope = max(worst_q_slope, q_slope)
        worst_Q_slope = max(worst_Q_slope, Q_slope)

    ok = worst_q_slope <= 0.01 and worst_Q_slope <= 0.01
    _report("C4 queue stability", ok,
            f"worst mean-q slope={worst_q_slope:.2e}, "
            f"worst max-Q slope={worst_Q_slope:.2e} over {len(cfg.seeds)} seeds")
    assert worst_q_slope <= 0.01
    assert worst_Q_slope <= 0.01


# --- C5: utility ordering against the six baselines ---


def test_c5_joint_policy_beats_every_baseline(compare_matrix):
    cfg, matrix, elapsed = compare_matrix
    pas = [r.mean_utility for r in matrix["pas-afl"]]
    results = {}
    for baseline in BASELINE_NAMES:
        other = [r.mean_utility for r in matrix[baseline]]
        results[baseline] = sum(p > o for p, o in zip(pas, other))

    ok = all(wins >= 9 for wins in results.values()) and elapsed < 600.0
    detail = ", ".join(f"{b}={w}/10" for b, w in results.items())
    _report("C5 utility ordering vs baselines", ok, f"{detail}; runs {elapsed:.0f}s")
    assert elapsed < 600.0
    for baseline, wins in results.items():
        assert wins >= 9, f"pas-afl beat {baseline} on only {wins}/10 seeds"


# --- C6: utility ordering against the five ablated variants ---


def test_c6_joint_policy_beats_every_ablation(ablate_matrix):
    _cfg, matrix, = ablate_matrix[0], ablate_matrix[1]
    pas = [r.mean_utility for r in matrix["pas-afl"]]
    results = {}
    for name in ABLATION_NAMES:
        other = [r.mean_utility for r in matrix[name]]
        results[name] = sum(p > o for p, o in zip(pas, other))

    ok = all(wins >= 8 for wins in results.values())
    detail = ", ".join(f"{n}={w}/10" for n, w in results.items())
    _report("C6 utility ordering vs ablations", ok, detail)
    for name, wins in results.items():
        assert wins >= 8, f"pas-afl beat {name} on only {wins}/10 seeds"


# --- C7: conservation audits across every acceptance run ---


def test_c7_conservation_audits_all_clean(compare_matrix, ablate_matrix, drift_run):
    cfg, compare, _ = compare_matrix
    _, ablate = ablate_matrix[0], ablate_matrix[1]
    drift_cfg, drift_world, _, _, _ = drift_run

    # every step of every run performed its ledger audits; a violation would
    # have raised and failed the fixtures before reaching this point
    runs = [r for results in compare.values() for r in results]
    runs += [r for name, results in ablate.items() if name != "pas-afl" for r in results]
    audited = [(r.audit_checks, cfg.horizon_T) for r in runs]  # both matrices run on cfg
    audited.append((drift_world.audit_checks, drift_cfg.horizon_T))
    total_checks = sum(checks for checks, _ in audited)
    per_run_ok = all(checks == horizon for checks, horizon in audited)

    ok = per_run_ok and total_checks > 0
    _report("C7 task conservation and payment ledgers", ok,
            f"{len(audited)} runs, {total_checks} audited steps, 0 violations")
    assert per_run_ok
    assert total_checks == sum(horizon for _, horizon in audited)


# --- C8: byte-identical reruns ---


def test_c8_identical_reruns_are_byte_identical(tmp_path):
    cfg = resolve_config({"seeds": [12345]})
    run_preset(cfg, out_dir=tmp_path / "first")
    run_preset(cfg, out_dir=tmp_path / "second")
    first = (tmp_path / "first" / "pas-afl" / "metrics_seed12345.csv").read_bytes()
    second = (tmp_path / "second" / "pas-afl" / "metrics_seed12345.csv").read_bytes()

    ok = first == second and len(first) > 0
    _report("C8 determinism", ok, f"{len(first)} bytes compared")
    assert first == second


# --- C9: hand-computed three-step trace ---

# Scenario: one DO (reserve 1.0, cost 0.25, availability 1.0, reputation 0.5,
# work cap 1, arrival cap 3, empty start), one bidder whose budget admits a
# single request per step and whose bid always clears the reserve price.
#
# Derived by hand before implementation:
#   step 0: empty queue -> price 1.0; accept (1*1*0.5 > 0); one arrival at
#           price 1.0; no work; q: max(0,0)+1 = 1; urgency stays 0 (no
#           carryover); utility 1*1*0.5*1 = 0.5; reputation unchanged.
#   step 1: q=1 -> price max(1, 1/(2*1*0.5)) = 1.0; decline (0.5 - 1 <= 0);
#           work 1 task (on time, day 1 of 8) -> reputation 0.9*0.5 + 0.1 = 0.55,
#           ratings 1; q: max(1-1,0)+0 = 0; utility = -0.25 (work cost only).
#   step 2: queue empty again -> price 1.0; accept (1*1*0.55 > 0); one
#           arrival; utility 1*1*0.55*1 = 0.55; queues as in step 0.
HAND_TRACE = [
    # (step, utility, q, Q, kappa, theta, s, price, reputation)
    (0, 0.5, 1.0, 0.0, 1, 0, 0, 1.0, 0.5),
    (1, -0.25, 0.0, 0.0, 0, 1, 0, 1.0, 0.55),
    (2, 0.55, 1.0, 0.0, 1, 0, 0, 1.0, 0.55),
]


def test_c9_three_step_trace_matches_hand_simulation():
    cfg = resolve_config({
        "n_dos": 1,
        "horizon_T": 3,
        "trust_edge_prob": 0.0,
        "data_size_range": [10000, 10000],
        "do_params": {
            "p_min": [1.0, 1.0],
            "unit_cost_frac": [0.25, 0.25],
            "rho": [1.0, 1.0],
            "r0": [0.5, 0.5],
            "r_min": [0.5, 0.5],
            "theta_max": [1, 1],
            "s_max": [1, 1],
            "kappa_hat": [3, 3],
            "epsilon": [0.0, 0.0],
            "m_positive": [0, 0],
            "q0": [0, 0],
        },
        "mu": {"budget_per_step": 1.9, "strategies": ["greedy"]},
        "reputation": {"ema_beta": 0.9, "on_time_window": 8},
        "seeds": [7],
    })
    _, records = run_world(build_world(cfg, 7, policy_override="pas-afl"))
    observed = [
        (r.step, r.utility_u, r.pending_q, r.urgency_Q, r.accepted_kappa,
         r.completed_theta, r.subdelegated_s, r.price_p, r.reputation_r)
        for r in sorted(records, key=lambda r: r.step)
    ]

    ok = True
    for expected, got in zip(HAND_TRACE, observed):
        for want, have in zip(expected, got):
            if isinstance(want, float):
                if abs(want - have) > 1e-12:
                    ok = False
            elif want != have:
                ok = False
    _report("C9 hand-trace equivalence", ok, f"{len(observed)} steps compared exactly")
    assert len(observed) == 3
    for expected, got in zip(HAND_TRACE, observed):
        assert got[0] == expected[0]
        for idx in (1, 2, 3, 7, 8):
            assert got[idx] == pytest.approx(expected[idx], abs=1e-12), (
                f"step {expected[0]} field {idx}: expected {expected[idx]}, got {got[idx]}"
            )
        for idx in (4, 5, 6):
            assert got[idx] == expected[idx]
