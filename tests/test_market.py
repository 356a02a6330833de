import math
from dataclasses import replace

import numpy as np
import pytest

from aflsim import market
from aflsim.config import resolve_config
from aflsim.core import StepDecision, Task, TrustNetwork
from aflsim.market import (
    MarketInvariantError,
    ModelUser,
    build_world,
    generate_trust_network,
    route_subdelegations,
    run_auction,
    step,
    update_reputation,
)
from aflsim.policy_baselines import POLICIES
from aflsim.simcli import run_scenario
from helpers import make_state, run_world

GAINS = {"lin": 1.25, "bmub": 1.45, "fedbidder-simple": 1.1, "fedbidder-complex": 1.35}


def test_graph_zero_probability_has_no_edges():
    net = generate_trust_network(50, 0.0, np.random.default_rng(0))
    assert net.n_edges == 0


def test_graph_of_one_do_has_no_edges():
    net = generate_trust_network(1, 1.0, np.random.default_rng(0))
    assert net.n_edges == 0
    assert net.neighbors[0].tolist() == []


def test_graph_full_probability_is_complete():
    net = generate_trust_network(100, 1.0, np.random.default_rng(0))
    assert net.n_edges == 4950


def test_graph_edge_count_matches_binomial_mean():
    counts = [
        generate_trust_network(100, 0.7, np.random.default_rng(seed)).n_edges
        for seed in range(100)
    ]
    mean = sum(counts) / len(counts)
    band = 3 * math.sqrt(4950 * 0.7 * 0.3)
    assert abs(mean - 4950 * 0.7) <= band


def test_graph_is_deterministic_per_seed():
    a = generate_trust_network(30, 0.5, np.random.default_rng(123))
    b = generate_trust_network(30, 0.5, np.random.default_rng(123))
    assert (a.adjacency == b.adjacency).all()
    assert [row.tolist() for row in a.neighbors] == [row.tolist() for row in b.neighbors]


def test_reputation_unchanged_when_nothing_due():
    state = make_state(reputation_r=0.5)
    r, mp = update_reputation(state, 0, 0, ema_beta=0.9)
    assert r == 0.5
    assert mp == state.positive_ratings_Mp


def test_reputation_ema_hand_value():
    state = make_state(reputation_r=0.5, positive_ratings_Mp=3)
    r, mp = update_reputation(state, 2, 2, ema_beta=0.9)
    assert r == pytest.approx(0.55)
    assert mp == 5


def test_reputation_contracts_to_floor_under_failures():
    state = make_state(reputation_r=0.5)
    prev = state.reputation_r
    for _ in range(200):
        r, _ = update_reputation(state, 0, 1, ema_beta=0.9, r_floor=1e-3)
        assert r <= prev
        state.reputation_r = r
        prev = r
    assert state.reputation_r == pytest.approx(1e-3)


def test_reputation_rejects_impossible_counts():
    with pytest.raises(ValueError):
        update_reputation(make_state(), 2, 1, ema_beta=0.9)


def _single_market(price, valuation, x=1):
    state = make_state(id=0, theta_max=2, kappa_max=5, current_price_p=price)
    decision = StepDecision(accept_x=x, price_p=price, subdelegate_s=0, work_theta=0)
    mu = ModelUser(id=0, strategy_name="greedy", budget_per_step=valuation,
                   valuation_per_do={0: valuation})
    return {0: state}, {0: decision}, [mu], {0: np.random.default_rng(0)}


def test_auction_clears_nothing_when_priced_out():
    states, decisions, mus, rngs = _single_market(price=100.0, valuation=2.0)
    outcome, _ = run_auction(mus, states, decisions, rngs, 0, 0, GAINS)
    assert outcome.kappa[0] == 0
    assert outcome.payments == []


def test_auction_single_clearing_pays_posted_price():
    states, decisions, mus, rngs = _single_market(price=1.5, valuation=2.0)
    outcome, next_id = run_auction(mus, states, decisions, rngs, 3, 10, GAINS)
    assert outcome.kappa[0] == 1
    assert outcome.payments == [(0, 0, 1.5)]
    task = outcome.tasks[0][0]
    assert task.task_id == 10 and next_id == 11
    assert task.unit_payment_p_tau == 1.5
    assert task.arrival_step == 3
    assert task.holder == 0


def test_auction_ignores_declining_data_owners():
    states, decisions, mus, rngs = _single_market(price=1.5, valuation=2.0, x=0)
    outcome, _ = run_auction(mus, states, decisions, rngs, 0, 0, GAINS)
    assert outcome.kappa[0] == 0


def test_auction_respects_admission_cap():
    state = make_state(id=0, theta_max=2, kappa_max=4, current_price_p=1.0)
    decision = StepDecision(accept_x=1, price_p=1.0, subdelegate_s=0, work_theta=0)
    mus = [
        ModelUser(id=j, strategy_name="greedy", budget_per_step=50.0,
                  valuation_per_do={0: 2.0})
        for j in range(4)
    ]
    rngs = {j: np.random.default_rng(j) for j in range(4)}
    outcome, _ = run_auction(mus, {0: state}, {0: decision}, rngs, 0, 0, GAINS)
    assert outcome.kappa[0] == 2  # min(theta_max, kappa_max - 1)


def test_auction_ledger_is_deterministic():
    def build():
        states, decisions = {}, {}
        for i in range(5):
            states[i] = make_state(id=i, current_price_p=1.0 + 0.1 * i,
                                   reputation_r=0.5 + 0.05 * i)
            decisions[i] = StepDecision(accept_x=1, price_p=1.0 + 0.1 * i,
                                        subdelegate_s=0, work_theta=0)
        mus = [
            ModelUser(id=j, strategy_name=name, budget_per_step=5.0,
                      valuation_per_do={i: 2.0 for i in range(5)})
            for j, name in enumerate(["random", "greedy", "lin"])
        ]
        rngs = {j: np.random.default_rng([7, j]) for j in range(3)}
        return run_auction(mus, states, decisions, rngs, 0, 0, GAINS)

    first, _ = build()
    second, _ = build()
    assert first.payments == second.payments
    assert first.kappa == second.kappa


def _routing_setup(payments, neighbor_price=0.5, depth=0):
    states = {
        0: make_state(id=0, pending_q=float(len(payments)), s_max=5, rep_threshold_r_min=0.5),
        1: make_state(id=1, current_price_p=neighbor_price,
                      reserve_price_p_min=min(neighbor_price, 1.0), reputation_r=0.9),
    }
    network = TrustNetwork(2, edges=[(0, 1)])
    pending = {
        0: [
            Task(task_id=k, origin_mu=0, unit_payment_p_tau=p, arrival_step=0,
                 delegation_depth=depth, holder=0)
            for k, p in enumerate(payments)
        ],
        1: [],
    }
    prices = np.array([states[0].current_price_p, neighbor_price])
    reps = np.array([states[0].reputation_r, 0.9])
    capacity = {0: 4, 1: 4}
    return states, pending, network, prices, reps, capacity


def test_routing_noop_without_delegations():
    states, pending, net, prices, reps, cap = _routing_setup([1.0, 1.0])
    decisions = {i: StepDecision(1, 1.0, 0, 0) for i in states}
    outcome = route_subdelegations(states, pending, decisions, net, prices, reps, cap, 3, 0)
    assert outcome.payments == []
    assert len(pending[0]) == 2


def test_routing_transfers_highest_payment_tasks_and_pays_quotes():
    states, pending, net, prices, reps, cap = _routing_setup([1.0, 2.0, 1.5])
    decisions = {
        0: StepDecision(1, 1.0, 2, 0),
        1: StepDecision(1, 1.0, 0, 0),
    }
    outcome = route_subdelegations(states, pending, decisions, net, prices, reps, cap, 3, 5)
    assert outcome.s_realized[0] == 2
    assert outcome.payments == [(0, 1, 0.5), (0, 1, 0.5)]
    moved = outcome.incoming[1]
    assert [t.task_id for t in moved] == [1, 2]  # payments 2.0 then 1.5
    for task in moved:
        assert task.holder == 1
        assert task.delegation_depth == 1
        assert task.unit_payment_p_tau == 0.5
        assert task.arrival_step == 6
    assert [t.task_id for t in pending[0]] == [0]


def test_routing_stops_early_when_no_delegate_is_cheap_enough():
    states, pending, net, prices, reps, cap = _routing_setup([2.0, 0.3], neighbor_price=0.5)
    decisions = {0: StepDecision(1, 1.0, 2, 0), 1: StepDecision(1, 1.0, 0, 0)}
    outcome = route_subdelegations(states, pending, decisions, net, prices, reps, cap, 3, 0)
    assert outcome.s_realized[0] == 1
    assert len(pending[0]) == 1


def test_routing_skips_tasks_at_depth_cap():
    states, pending, net, prices, reps, cap = _routing_setup([2.0, 2.0], depth=3)
    decisions = {0: StepDecision(1, 1.0, 2, 0), 1: StepDecision(1, 1.0, 0, 0)}
    outcome = route_subdelegations(states, pending, decisions, net, prices, reps, cap, 3, 0)
    assert outcome.s_realized[0] == 0
    assert len(pending[0]) == 2


def test_routing_respects_receiver_capacity():
    states, pending, net, prices, reps, cap = _routing_setup([2.0, 2.0, 2.0])
    cap[1] = 1
    decisions = {0: StepDecision(1, 1.0, 3, 0), 1: StepDecision(1, 1.0, 0, 0)}
    outcome = route_subdelegations(states, pending, decisions, net, prices, reps, cap, 3, 0)
    assert outcome.s_realized[0] == 1
    assert cap[1] == 0


def test_routing_breaks_price_ties_by_lower_id():
    states = {0: make_state(id=0, pending_q=1.0, s_max=5, rep_threshold_r_min=0.5)}
    for k, price in ((1, 0.8), (2, 0.5), (3, 0.5)):
        states[k] = make_state(id=k, current_price_p=price, reserve_price_p_min=price,
                               reputation_r=0.9)
    network = TrustNetwork(4, edges=[(0, 3), (0, 1), (0, 2)])
    pending = {0: [Task(task_id=0, origin_mu=0, unit_payment_p_tau=2.0, arrival_step=0,
                        delegation_depth=0, holder=0)], 1: [], 2: [], 3: []}
    decisions = {i: StepDecision(1, 1.0, 1 if i == 0 else 0, 0) for i in states}
    prices = np.array([s.current_price_p for s in states.values()])
    reps = np.array([s.reputation_r for s in states.values()])
    capacity = {i: 4 for i in states}
    outcome = route_subdelegations(states, pending, decisions, network, prices, reps, capacity, 3, 0)
    assert outcome.payments == [(0, 2, 0.5)]
    assert [t.task_id for t in outcome.incoming[2]] == [0]


def test_zero_mu_world_earns_nothing():
    cfg = resolve_config({
        "n_dos": 8, "horizon_T": 12, "seeds": [1],
        "mu": {"strategies": [], "budget_per_step": 0.0},
        "n_mus": 0,
    })
    _, records = run_world(build_world(cfg, 1, policy_override="pas-afl"))
    assert all(r.utility_u <= 0.0 for r in records)


def test_step_keeps_virtual_and_physical_queues_aligned():
    cfg = resolve_config({"n_dos": 12, "horizon_T": 30, "seeds": [3]})
    world = build_world(cfg, 3, policy_override="pas-afl")
    for _ in range(cfg.horizon_T):
        step(world)
        for i, state in world.states.items():
            assert state.pending_q == len(world.pending[i])
    assert world.audit_checks == cfg.horizon_T


def test_step_queue_updates_match_recurrences():
    # reconstruct both queue recurrences from the emitted records
    cfg = resolve_config({"n_dos": 15, "horizon_T": 40, "seeds": [5]})
    initial, records = run_world(build_world(cfg, 5, policy_override="rand-greedy"))
    prior = cfg.market.kappa_bar_prior
    by_do = {}
    for rec in records:
        by_do.setdefault(rec.do_id, []).append(rec)
    for do_id, recs in by_do.items():
        recs.sort(key=lambda r: r.step)
        q_pre, Q_pre = initial[do_id]
        ksum, kn = 0.0, 0
        for rec in recs:
            kbar = prior if kn == 0 else ksum / kn
            moved = rec.completed_theta + rec.subdelegated_s
            expected_q = max(q_pre - moved, 0.0) + rec.accepted_kappa
            assert rec.pending_q == pytest.approx(expected_q, abs=1e-12)
            carried = q_pre - moved > 0
            expected_Q = max(Q_pre - moved + (kbar if carried else 0.0), 0.0)
            assert rec.urgency_Q == pytest.approx(expected_Q, abs=1e-12)
            q_pre, Q_pre = rec.pending_q, rec.urgency_Q
            ksum += rec.accepted_kappa
            kn += 1


def test_step_decisions_depend_only_on_snapshot(monkeypatch):
    real_decide = market.decide_for_policy
    seen = []

    def recording_decide(spec, state, ctx, *args, **kwargs):
        decision = real_decide(spec, state, ctx, *args, **kwargs)
        seen.append((state.id, ctx, decision))
        return decision

    monkeypatch.setattr(market, "decide_for_policy", recording_decide)
    cfg = resolve_config({"n_dos": 10, "horizon_T": 15, "seeds": [2]})
    for policy in ("pas-afl", "lin-greedy"):
        world = build_world(cfg, 2, policy_override=policy)
        for _ in range(cfg.horizon_T):
            snapshot = {i: replace(state) for i, state in world.states.items()}
            seen.clear()
            step(world)
            assert sorted(i for i, _, _ in seen) == list(range(cfg.n_dos))
            for i, ctx, decision in seen:
                replayed = real_decide(
                    POLICIES[policy],
                    snapshot[i],
                    ctx,
                    np.random.default_rng(0),  # unused: both policies are rng-free
                    work_mode=cfg.policy.work_mode,
                    r_floor=cfg.market.r_floor,
                )
                assert replayed == decision


def test_demand_model_arrivals_respect_caps_and_determinism():
    cfg = resolve_config({
        "n_dos": 10, "horizon_T": 20, "seeds": [9],
        "market": {"arrival_mode": "demand-model"},
    })
    world = build_world(cfg, 9, policy_override="pas-afl")
    _, first = run_world(world)
    _, second = run_world(build_world(cfg, 9, policy_override="pas-afl"))
    assert first == second
    # audits inside step() already enforce the admission caps; spot-check records
    for rec in first:
        assert rec.accepted_kappa <= world.states[rec.do_id].kappa_max - 1
    assert any(r.accepted_kappa > 0 for r in first)


def test_demand_model_round_integerization_is_deterministic():
    cfg = resolve_config({
        "n_dos": 6, "horizon_T": 10, "seeds": [2],
        "market": {"arrival_mode": "demand-model", "integerization": "round"},
    })
    _, a = run_world(build_world(cfg, 2, policy_override="lin-greedy"))
    _, b = run_world(build_world(cfg, 2, policy_override="lin-greedy"))
    assert a == b


def test_price_degeneracy_is_counted():
    cfg = resolve_config({
        "n_dos": 4, "horizon_T": 5, "seeds": [1],
        "do_params": {"rho": [0.0, 0.0], "q0": [0, 0]},
    })
    res = run_scenario(cfg, 1, policy="pas-afl")
    assert res.price_degenerate_steps == 4 * 5
    assert res.acceptance_rate == 0.0


def _step_until_tampered(monkeypatch, name, tamper, policy, match):
    """Step a small world with `market.<name>` wrapped so that `tamper` edits
    the first ledger it sees with an entry, and expect an audit matching `match`."""
    real = getattr(market, name)
    tampered = []

    def wrapped(*args, **kwargs):
        result = real(*args, **kwargs)
        outcome = result[0] if isinstance(result, tuple) else result
        if outcome.payments and not tampered:
            tamper(outcome.payments)
            tampered.append(True)
        return result

    monkeypatch.setattr(market, name, wrapped)
    cfg = resolve_config({"n_dos": 10, "horizon_T": 30, "seeds": [1]})
    world = build_world(cfg, 1, policy_override=policy)
    with pytest.raises(MarketInvariantError, match=match):
        for _ in range(cfg.horizon_T):
            step(world)
    assert tampered


def _overpay(payments):
    payer, payee, amount = payments[0]
    payments[0] = (payer, payee, amount * 1.5)


def _redirect(payments):
    payer, payee, amount = payments[0]
    payments[0] = (payer, (payee + 1) % 10, amount)  # another of the world's 10 DOs


@pytest.mark.parametrize(
    "tamper, message",
    [(_overpay, "posted at"), (list.pop, "admitted tasks")],
    ids=["overpaid", "dropped"],
)
def test_auction_ledger_audit_catches_a_tampered_entry(monkeypatch, tamper, message):
    _step_until_tampered(monkeypatch, "run_auction", tamper, "pas-afl", message)


@pytest.mark.parametrize(
    "tamper, message",
    [(list.pop, "(delegated|received) tasks"), (_redirect, "received tasks")],
    ids=["dropped", "redirected"],
)
def test_delegation_ledger_audit_catches_a_tampered_entry(monkeypatch, tamper, message):
    _step_until_tampered(monkeypatch, "route_subdelegations", tamper, "lin-greedy", message)
