import copy
import dataclasses
import math
import sys
import tracemalloc
from collections import namedtuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aflsim import market, simcli
from aflsim.config import MarketConstants, MuParams, resolve_config
from aflsim.core import STATE, TASK, OwnerConstants, StepDecision
from aflsim.market import (
    LEDGER,
    MarketInvariantError,
    build_world,
    generate_trust_network,
    route_subdelegations,
    run_auction,
    settle,
    step,
)
from aflsim.policy_baselines import POLICIES
from aflsim.policy_pas import decide_subdelegation, decide_work, eligible_delegates, subdelegation_cap
from aflsim.simcli import run_scenario
from helpers import (
    DataOwnerState, R_FLOOR, dense, make_state, neighbour_rows, run_world, settle_one, state_columns, trust_network,
    views,
)
from reference_policy import reference_decide
from reference_world import reference_data_owners

GAINS = {"lin": 1.25, "bmub": 1.45, "fedbidder-simple": 1.1, "fedbidder-complex": 1.35}

# One model user as the tests write it: its id (row) and strategy, its budget
# and its valuation of every DO.
Bidder = namedtuple("Bidder", "id strategy_name budget_per_step valuation_per_do")


def _roster(bidders):
    """The valuation array and MU settings that `run_auction` and
    `_mu_requests` take for `bidders`, listed by id on one shared budget."""
    [budget] = {b.budget_per_step for b in bidders}
    valuations = np.array([b.valuation_per_do for b in bidders], dtype=float)
    return valuations, MuParams(budget, strategies=tuple(b.strategy_name for b in bidders), gains=GAINS)


def test_graph_zero_probability_has_no_edges():
    net = generate_trust_network(50, 0.0, np.random.default_rng(0))
    assert net.n_edges == 0


def test_graph_of_one_do_has_no_edges():
    net = generate_trust_network(1, 1.0, np.random.default_rng(0))
    assert net.n_edges == 0
    assert not net.adjacency[0].any()


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_dos=st.integers(1, 30), edge_prob=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_generated_graph_is_symmetric_without_self_loops(n_dos, edge_prob, seed):
    net = generate_trust_network(n_dos, edge_prob, np.random.default_rng(seed))
    adjacency = net.adjacency
    assert adjacency.dtype == bool and adjacency.shape == (n_dos, n_dos)
    assert (adjacency == adjacency.T).all()
    assert not adjacency.diagonal().any()
    assert net.n_edges == np.count_nonzero(np.triu(adjacency))


def test_graph_is_deterministic_per_seed():
    a = generate_trust_network(30, 0.5, np.random.default_rng(123))
    b = generate_trust_network(30, 0.5, np.random.default_rng(123))
    assert (a.adjacency == b.adjacency).all()


def reference_settle(state, x, price, theta, s, kappa, delegated_in, on_time, pbar, ema_beta, r_floor):
    """One DO's step in Python floats, written as the formulas read: the
    reference the columnar `settle` must match bit for bit."""
    q, Q, r = state.pending_q, state.urgency_Q, state.reputation_r
    carried_over = q - theta - s > 0
    new_q = max(q - theta - s, 0.0) + x * kappa + delegated_in
    new_Q = max(Q - theta - s + (state.avg_demand_kappa_bar if carried_over else 0.0), 0.0)
    revenue = x * price * r * float(kappa)
    u = revenue - (0.0 if s == 0 else pbar * s) - state.unit_cost_c * theta
    if theta > 0:
        r = ema_beta * r + (1.0 - ema_beta) * (on_time / theta)
    return u, new_q, new_Q, min(1.0, max(r_floor, r)), state.positive_ratings_Mp + on_time


@st.composite
def settle_rows(draw):
    """One DO's state and step inputs; an infinite neighbour price comes with s = 0."""
    theta = draw(st.integers(0, 5))
    pbar = draw(st.one_of(st.just(math.inf), st.floats(0.01, 10.0)))
    state = make_state(
        pending_q=draw(st.floats(0.0, 30.0)),
        urgency_Q=draw(st.floats(0.0, 60.0)),
        avg_demand_kappa_bar=draw(st.floats(0.0, 9.0)),
        reputation_r=draw(st.floats(0.0, 1.25)),
        unit_cost_c=draw(st.floats(0.0, 3.0)),
        positive_ratings_Mp=draw(st.integers(0, 50)),
    )
    step_inputs = (
        draw(st.integers(0, 1)),                         # accept_x
        draw(st.floats(0.1, 10.0)),                      # posted price
        theta,
        0 if pbar == math.inf else draw(st.integers(0, 5)),
        draw(st.integers(0, 9)),                         # auction arrivals
        draw(st.integers(0, 5)),                         # delegated in
        draw(st.integers(0, theta)),                     # on time
        pbar,
    )
    return state, step_inputs


# Rows every example includes: the +inf no-neighbour price at s = 0, an EMA
# below the floor, and a reputation above 1 left unchanged, then clamped.
COVERED_ROWS = [
    (make_state(pending_q=2.0, urgency_Q=1.0, reputation_r=0.4), (1, 1.5, 2, 0, 1, 0, 2, math.inf)),
    (make_state(pending_q=3.0, reputation_r=0.0), (0, 1.0, 3, 0, 0, 0, 0, 1.0)),
    (make_state(pending_q=1.0, reputation_r=1.2), (1, 2.0, 0, 0, 2, 1, 0, 0.5)),
]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(settle_rows(), min_size=1, max_size=6),
    ema_beta=st.floats(0.0, 0.99),
    r_floor=st.floats(1e-6, 0.2),
)
def test_columnar_settle_matches_scalar_reference_bit_for_bit(rows, ema_beta, r_floor):
    rows = rows + COVERED_ROWS
    states = state_columns(*(state for state, _ in rows))
    x, price, theta, s, kappa, delegated_in, on_time, pbar = (
        np.array(column) for column in zip(*(inputs for _, inputs in rows))
    )
    got = settle(states, x, price, theta, s, kappa, delegated_in, on_time, pbar, ema_beta, r_floor)
    for i, (state, inputs) in enumerate(rows):
        want = reference_settle(state, *inputs, ema_beta, r_floor)
        assert [float(column[i]).hex() for column in got] == [float(v).hex() for v in want]
    assert got[3][-1] == 1.0 and got[3][-2] == r_floor


def test_reputation_unchanged_when_nothing_due():
    state = make_state(reputation_r=0.5)
    r, mp = settle_one(state, theta=0, on_time=0)[3:]
    assert r == 0.5
    assert mp == state.positive_ratings_Mp


def test_reputation_ema_hand_value():
    state = make_state(reputation_r=0.5, positive_ratings_Mp=3)
    r, mp = settle_one(state, theta=2, on_time=2)[3:]
    assert r == pytest.approx(0.55)
    assert mp == 5


def test_reputation_contracts_to_floor_under_failures():
    state = make_state(reputation_r=0.5)
    for _ in range(200):
        r = settle_one(state, theta=1, on_time=0, r_floor=1e-3)[3]
        assert r <= state.reputation_r
        state = state._replace(reputation_r=r)
    assert state.reputation_r == pytest.approx(1e-3)


def test_reputation_rejects_impossible_counts():
    with pytest.raises(ValueError, match="completed_on_time cannot exceed due"):
        settle_one(make_state(), theta=1, on_time=2)


def _single_market(price, valuation, x=1):
    states = state_columns(make_state(theta_max=2, kappa_max=5, current_price_p=price))
    valuations, mu = _roster([Bidder(0, "greedy", valuation, [valuation])])
    return states, np.array([price]), np.array([x]), valuations, mu, [np.random.default_rng(0)]


def _paid(ledger):
    """(payer, payee, amount) of every ledger row."""
    return [(payer, payee, amount) for payer, payee, amount, _offer in ledger.tolist()]


def test_auction_clears_nothing_when_priced_out():
    states, price, x, valuations, mu, rngs = _single_market(price=100.0, valuation=2.0)
    outcome, _ = run_auction(valuations, states, price, x, rngs, 0, 0, mu)
    assert dense(outcome.kappa, 1)[0] == 0
    assert outcome.payments.tolist() == []


def test_auction_single_clearing_pays_posted_price():
    states, price, x, valuations, mu, rngs = _single_market(price=1.5, valuation=2.0)
    outcome, next_id = run_auction(valuations, states, price, x, rngs, 3, 10, mu)
    assert outcome.kappa[0] == 1
    assert _paid(outcome.payments) == [(0, 0, 1.5)]
    assert outcome.payments["offer"].tolist() == [2.0]  # the greedy MU bids its valuation
    task = outcome.tasks[0]
    assert task["id"] == 10 and next_id == 11
    assert task["payment"] == 1.5
    assert task["arrival"] == 3
    assert task["owner"] == 0


def test_auction_ignores_declining_data_owners():
    states, price, x, valuations, mu, rngs = _single_market(price=1.5, valuation=2.0, x=0)
    outcome, _ = run_auction(valuations, states, price, x, rngs, 0, 0, mu)
    assert dense(outcome.kappa, 1)[0] == 0


def test_auction_respects_admission_cap():
    states = state_columns(make_state(theta_max=2, kappa_max=4, current_price_p=1.0))
    valuations, mu = _roster([Bidder(j, "greedy", 50.0, [2.0]) for j in range(4)])
    rngs = [np.random.default_rng(j) for j in range(4)]
    outcome, _ = run_auction(valuations, states, np.array([1.0]), np.array([1]), rngs, 0, 0, mu)
    assert outcome.kappa[0] == 2  # min(theta_max, kappa_max - 1)


def test_auction_ledger_is_deterministic():
    def build():
        states = state_columns(*(
            make_state(current_price_p=1.0 + 0.1 * i, reputation_r=0.5 + 0.05 * i)
            for i in range(5)
        ))
        price = np.array([1.0 + 0.1 * i for i in range(5)])
        valuations, mu = _roster([Bidder(j, name, 5.0, np.full(5, 2.0)) for j, name in enumerate(["random", "greedy", "lin"])])
        rngs = [np.random.default_rng([7, j]) for j in range(3)]
        return run_auction(valuations, states, price, np.ones(5, dtype=int), rngs, 0, 0, mu)

    first, _ = build()
    second, _ = build()
    assert first.payments.tolist() == second.payments.tolist()
    assert first.kappa == second.kappa


def reference_mu_requests(mu, states, price, rng, gains):
    """One MU's requests as LEDGER rows, walked one DO at a time: the
    reference the stacked `_mu_requests` must match row for row, with the
    same draws taken from `rng`."""
    rep, p_min = states["reputation_r"], states["reserve_price_p_min"]
    valuation, name = mu.valuation_per_do, mu.strategy_name
    if name == "random":
        targets = rng.permutation(len(states)).tolist()
    else:
        key = {
            "greedy": -rep / price,
            "lin": p_min,
            "bmub": -rep,
            "fedbidder-simple": price,
            "fedbidder-complex": -rep * valuation / price,
        }[name]
        targets = sorted(range(len(states)), key=lambda do_id: key[do_id])  # stable: ties by id
    rows, submitted = [], 0.0
    for do_id in targets:
        if name == "random":
            bid = valuation[do_id] * rng.random()
        elif name == "greedy":
            bid = valuation[do_id]
        elif name == "fedbidder-complex":
            bid = min(gains[name] * (0.5 + 0.5 * rep[do_id]) * p_min[do_id], valuation[do_id])
        else:
            bid = min(gains[name] * p_min[do_id], valuation[do_id])
        if bid <= 0.0:
            continue
        if submitted + bid > mu.budget_per_step:
            break
        rows.append((mu.id, do_id, 0.0, bid))
        submitted += bid
    return np.array(rows, dtype=LEDGER)


def _mu_states(reps, p_mins):
    return state_columns(*(
        make_state(reputation_r=r, reserve_price_p_min=p, current_price_p=p)
        for i, (r, p) in enumerate(zip(reps, p_mins))
    ))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    valuations=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 5.0)), min_size=1, max_size=9),
    budget=st.one_of(st.just(0.0), st.floats(0.0, 12.0), st.just(1e9)),
    seed=st.integers(0, 2**32 - 1),
    warmup=st.integers(0, 3),
)
@example(valuations=[2.0], budget=0.0, seed=1, warmup=0)
@example(valuations=[2.0], budget=1e9, seed=1, warmup=1)
@example(valuations=[0.0, 0.0, 0.0], budget=1.0, seed=2, warmup=0)
@example(valuations=[1.0, 0.0, 3.0, 2.0], budget=1e9, seed=3, warmup=2)
def test_random_mu_block_walk_matches_scalar_loop_and_leaves_the_same_generator_state(
    valuations, budget, seed, warmup
):
    n = len(valuations)
    states = _mu_states([0.6] * n, [1.0] * n)
    price = np.ones(n)
    bidder = Bidder(0, "random", budget, np.array(valuations))
    block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (block, scalar):
        rng.integers(0, 7, size=warmup)  # leaves a buffered 32-bit draw in some states
    valuations, mu = _roster([bidder])
    got = market._mu_requests(valuations, states, price, [block], mu)
    want = reference_mu_requests(bidder, states, price, scalar, GAINS)
    assert got.tolist() == want.tolist()
    assert block.bit_generator.state == scalar.bit_generator.state
    assert block.random() == scalar.random()


MU_ROSTER = ["greedy", "lin", "bmub", "fedbidder-simple", "fedbidder-complex", "random"]


@st.composite
def mu_walk_cases(draw):
    """DOs whose sort keys take few distinct values, so that many tie: at most
    8 DOs, or 17 to 64, where numpy's default argsort is not an insertion
    sort and so not stable on any host."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(17, 64)))
    column = lambda values: draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    return (
        column([0.5, 0.8, 1.0]),  # reputation_r
        column([1.0, 1.25]),  # reserve_price_p_min
        column([1.0, 1.5]),  # posted price
        [column([0.0, 1.0, 2.0]) for _ in MU_ROSTER],  # each MU's valuation per DO
        draw(st.one_of(st.just(0.0), st.sampled_from([1.0, 2.5, 4.0, 7.5]), st.just(1e9))),  # budget
        draw(st.permutations(MU_ROSTER)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=mu_walk_cases())
@example(case=([0.8] * 40, [1.0] * 40, [1.5] * 40, [[1.0] * 40] * 6, 1e9, MU_ROSTER))  # every key ties
# Repeating keys, whose ties an unstable sort reorders.
@example(case=([0.5, 1.0, 0.8] * 12, [1.25, 1.0] * 18, [1.0, 1.5, 1.5] * 12, [[1.0, 2.0] * 18] * 6, 1e9, MU_ROSTER))
def test_stacked_mu_walks_match_a_walk_per_mu(case):
    reps, p_mins, price, valuations, budget, roster = case
    states = _mu_states(reps, p_mins)
    price = np.array(price)
    bidders = [
        Bidder(j, name, budget, np.array(valuation)) for j, (name, valuation) in enumerate(zip(roster, valuations))
    ]
    stacked = [np.random.default_rng([9, b.id]) for b in bidders]
    walked = [np.random.default_rng([9, b.id]) for b in bidders]
    valuations, mu = _roster(bidders)
    got = market._mu_requests(valuations, states, price, stacked, mu)
    want = np.concatenate([reference_mu_requests(b, states, price, walked[b.id], GAINS) for b in bidders])
    assert got.tolist() == want.tolist()
    assert all(a.bit_generator.state == b.bit_generator.state for a, b in zip(stacked, walked))


def fresh_mean(world, prices):
    """Each DO's mean neighbour price by the engine's formula, taken anew."""
    adj = world.network.adjacency.astype(float)
    deg = adj.sum(axis=1)
    return np.divide(adj @ prices, deg, out=np.full(len(prices), math.inf), where=deg > 0)


def test_neighbour_mean_is_reused_while_prices_repeat_and_equals_a_fresh_one():
    # pas-afl settles at its reserve prices, so the posted prices repeat.
    cfg = resolve_config({"n_dos": 30, "horizon_T": 8, "seeds": [3]})
    world = build_world(cfg, 3, policy_override="pas-afl")
    build_contexts, seen = market.World._build_contexts, []

    def contexts(self, prices, theta):
        snapshot = build_contexts(self, prices, theta)
        seen.append((prices.copy(), snapshot[0]))
        return snapshot

    with mock.patch.object(market.World, "_build_contexts", contexts):
        for _ in range(cfg.horizon_T):
            step(world)
    repeats = 0
    for (before, earlier), (prices, avg) in zip(seen, seen[1:]):
        same = prices.tobytes() == before.tobytes()
        repeats += same
        assert (avg is earlier) == same
        assert avg.tobytes() == fresh_mean(world, prices).tobytes()
    assert repeats > 0


def test_one_ulp_of_one_price_takes_the_mean_anew():
    world = build_world(resolve_config({"n_dos": 12, "horizon_T": 1}), 5)
    prices = world.states["current_price_p"].copy()
    theta = np.zeros(12, dtype=np.intp)
    avg = world._build_contexts(prices, theta)[0]
    nudged = prices.copy()
    nudged[4] = np.nextafter(nudged[4], math.inf)
    again = world._build_contexts(nudged, theta)[0]
    assert again is not avg
    assert again.tobytes() == fresh_mean(world, nudged).tobytes()
    assert world._build_contexts(prices, theta)[0].tobytes() == avg.tobytes()


def test_worlds_on_different_graphs_keep_their_own_mean():
    cfg = resolve_config({"n_dos": 12, "horizon_T": 1, "trust_edge_prob": 0.4})
    first, second = build_world(cfg, 1), build_world(cfg, 2)
    assert not np.array_equal(first.network.adjacency, second.network.adjacency)
    prices, theta = np.linspace(1.0, 2.0, 12), np.zeros(12, dtype=np.intp)
    for world in (first, second, first):
        assert world._build_contexts(prices, theta)[0].tobytes() == fresh_mean(world, prices).tobytes()


def test_the_kept_neighbour_mean_cannot_be_written():
    world = build_world(resolve_config({"n_dos": 6, "horizon_T": 1}), 1)
    avg = world._build_contexts(world.states["current_price_p"].copy(), np.zeros(6, dtype=np.intp))[0]
    assert not avg.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        avg[0] = 0.0


def test_neighbour_table_rows_are_each_dos_neighbour_ids_padded_with_minus_one():
    world = build_world(resolve_config({"n_dos": 15, "horizon_T": 1, "trust_edge_prob": 0.3}), 2)
    adjacency = world.network.adjacency
    degree = adjacency.sum(axis=1)
    table = world._neighbour_ids
    assert table.dtype == np.int8 and table.shape == (15, degree.max())
    assert degree.min() < degree.max()  # so some row is padded
    for i, row in enumerate(table.tolist()):
        ids = np.flatnonzero(adjacency[i]).tolist()
        assert row == ids + [-1] * (table.shape[1] - len(ids))


def test_neighbour_table_is_built_without_a_block_the_size_of_the_graph():
    # Every DO neighbours every other; ids of all n * (n - 1) edges at once
    # would take 8 bytes each, the table 2.
    world = build_world(resolve_config({"n_dos": 300, "horizon_T": 1, "trust_edge_prob": 1.0}), 1)
    tracemalloc.start()
    try:
        table = world._neighbour_ids
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int16 and table.shape == (300, 299)
    assert peak < 1.5 * table.nbytes


def _asked_per_step(monkeypatch):
    """How many DOs each later step asks for quotes, as `eligible_delegates` is called."""
    asked, real = [], market.eligible_delegates

    def recording(neighbours, *args):
        asked.append(len(neighbours))
        return real(neighbours, *args)

    monkeypatch.setattr(market, "eligible_delegates", recording)
    return asked


def test_a_world_whose_dos_are_never_asked_builds_no_neighbour_table(monkeypatch):
    # pas-afl at the defaults keeps every task local, so no DO is asked for quotes.
    cfg = resolve_config({"n_dos": 20, "horizon_T": 6})
    world = build_world(cfg, 1)
    asked = _asked_per_step(monkeypatch)
    for _ in range(cfg.horizon_T):
        step(world)
    assert asked == [0] * cfg.horizon_T
    assert "_neighbour_ids" not in vars(world)


@pytest.mark.parametrize("edge_prob, width", [(0.0, 0), (1.0, 11)])
def test_whole_runs_that_ask_for_quotes_pass_every_audit_at_the_extreme_edge_probabilities(
    monkeypatch, edge_prob, width
):
    """At edge probability 0 the neighbour table has no column and nothing
    routes; at 1 every DO neighbours every other, and tasks move."""
    cfg = resolve_config({
        "n_dos": 12, "horizon_T": 25, "trust_edge_prob": edge_prob,
        "do_params": {"q0": [4, 12]}, "policy": {"assignment": sorted(POLICIES)},
    })
    worlds, moved = [], []
    build, route = simcli.build_world, market.route_subdelegations
    monkeypatch.setattr(simcli, "build_world", lambda *args: worlds.append(build(*args)) or worlds[-1])
    monkeypatch.setattr(market, "route_subdelegations", lambda *args: moved.append(route(*args)) or moved[-1])
    asked = _asked_per_step(monkeypatch)
    assert run_scenario(cfg, 1).audit_checks == cfg.horizon_T
    assert sum(asked) > 0
    assert vars(worlds[0])["_neighbour_ids"].shape == (12, width)
    assert (sum(len(outcome.moved) for outcome in moved) > 0) == (edge_prob == 1.0)


def test_views_equal_the_state_records_field_by_field_and_type_by_type():
    cfg = resolve_config({"n_dos": 7, "horizon_T": 3, "do_params": {"q0": [0, 4]}})
    world = build_world(cfg, 3)
    step(world)
    got = views(world)
    assert len(got) == len(world.states)
    for view, record in zip(got, world.states):
        assert type(view) is DataOwnerState and view._fields == STATE.names
        for name, value in zip(STATE.names, view):
            want = record[name].item()
            assert type(value) is type(want) and value == want, name


def test_data_owner_draws_equal_rng_uniform_on_a_twin_generator():
    cfg = resolve_config({"n_dos": 40, "horizon_T": 1})
    world = build_world(cfg, 11)
    rng = np.random.default_rng([11, market._STREAM_DO_PARAMS])
    do = cfg.do_params
    rows, payments = [], []
    for _ in range(cfg.n_dos):
        p_min = float(rng.uniform(*do.p_min))
        drawn = [p_min, float(rng.uniform(*do.unit_cost_frac)) * p_min]
        drawn += [float(rng.uniform(*bounds)) for bounds in (do.rho, do.r0, do.r_min)]
        drawn += [int(rng.integers(lo, hi + 1)) for lo, hi in (do.theta_max, do.s_max, do.kappa_hat)]
        drawn.append(float(rng.uniform(*do.epsilon)))
        drawn += [int(rng.integers(lo, hi + 1)) for lo, hi in (do.m_positive, do.q0, cfg.data_size_range)]
        rows.append(drawn)
        payments.append(rng.uniform(*do.q0_payment_markup, size=drawn[-2]) * p_min)
    for name, column in zip(market._DRAWN_COLUMNS, zip(*rows)):
        assert world.states[name].tolist() == list(column), name
    assert world.queue["payment"].tolist() == np.concatenate(payments).tolist()


def _assert_data_owners_equal_the_reference(raw: dict, seed: int) -> None:
    cfg = resolve_config({"horizon_T": 1, **raw})
    world = build_world(cfg, seed)
    states, queue = reference_data_owners(cfg, seed)
    for name in STATE.names:
        assert world.states[name].tobytes() == states[name].tobytes(), name
    assert world.queue.tobytes() == queue.tobytes()


# The bench workloads' worlds; a DO's draws read only n_dos, do_params and data_size_range.
BENCH_WORLDS = {
    "compare-n100": {"n_dos": 100},
    "dense-n800": {"n_dos": 800},
    "demand-mixed-n400": {
        "n_dos": 400,
        "trust_edge_prob": 0.05,
        "market": {"arrival_mode": "demand-model"},
        "do_params": {"rho_schedule": {"kind": "square", "period": 25}},
        "policy": {"work_mode": "threshold"},
    },
}
PINNED = {name: [1, 1] for name in ("p_min", "unit_cost_frac", "rho", "r0", "epsilon", "q0_payment_markup")}
PINNED.update(r_min=[0.4, 0.4], theta_max=[2, 2], s_max=[3, 3], kappa_hat=[6, 6], m_positive=[1, 1])


@pytest.mark.parametrize(
    "raw",
    [
        pytest.param({"n_dos": 30, "do_params": {**PINNED, "q0": [0, 0]}, "data_size_range": [5, 5]}, id="all-pinned-q0-0"),
        pytest.param({"n_dos": 30, "do_params": {**PINNED, "q0": [4, 4]}, "data_size_range": [5, 5]}, id="all-pinned-q0-4"),
        # One draw reads a half-word, so DOs alternate between starting with one buffered and not.
        pytest.param({"n_dos": 31, "do_params": {**PINNED, "q0": [0, 9]}, "data_size_range": [5, 5]}, id="q0-only-int-draw"),
        # Five draws read half-words, so each odd DO's first one reads the last DO's high half.
        pytest.param({"n_dos": 40, "do_params": {"theta_max": [2, 2]}}, id="odd-half-word-draws"),
        pytest.param({"n_dos": 40, "data_size_range": [0, 2**32 - 1]}, id="span-2**32-1-reads-the-half-word"),
        pytest.param({"n_dos": 40, "data_size_range": [0, 2**40]}, id="span-2**40-reads-a-raw"),
        # Lemire redraws about half the draws over [0, 2**31], a quarter over [0, 3 * 2**30] and a quarter
        # of the 64-bit draws over [0, 2**62]; a redraw, like a span past 2**32 - 1, leaves it to numpy.
        pytest.param({"n_dos": 60, "data_size_range": [0, 2**31], "do_params": {"m_positive": [0, 2**31]}}, id="half-redrawn"),
        pytest.param({"n_dos": 60, "data_size_range": [0, 3 * 2**30]}, id="quarter-redrawn"),
        pytest.param({"n_dos": 60, "data_size_range": [0, 2**62]}, id="quarter-redrawn-64-bit"),
        # The first block holds no payment, so its extensions hold them all.
        pytest.param({"n_dos": 20, "do_params": {"q0": [0, 3000]}}, id="q0-beyond-the-first-block"),
        *(pytest.param(BENCH_WORLDS[name], id=name) for name in BENCH_WORLDS),
    ],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_data_owners_equal_the_reference_loop(raw, seed):
    _assert_data_owners_equal_the_reference(raw, seed)


@pytest.mark.parametrize(
    ("raw", "seeds", "drawn_by_numpy"),
    [
        # Set-up stays fast only while these worlds are decoded from raw draws.
        *(pytest.param(BENCH_WORLDS[name], [1, 2, 3], 0, id=name) for name in BENCH_WORLDS),
        pytest.param({}, range(1, 11), 0, id="default"),
        pytest.param({"n_dos": 40, "data_size_range": [0, 2**40]}, [1], 1, id="span-2**40-reads-a-raw"),
        pytest.param(
            {"n_dos": 60, "data_size_range": [0, 2**31], "do_params": {"m_positive": [0, 2**31]}}, [1], 1, id="half-redrawn"
        ),
    ],
)
def test_only_a_wide_span_or_a_redraw_hands_the_world_to_numpys_calls(raw, seeds, drawn_by_numpy):
    with mock.patch.object(market, "_draw_data_owners", wraps=market._draw_data_owners) as fallback:
        for seed in seeds:
            _assert_data_owners_equal_the_reference(raw, seed)
    assert fallback.call_count == drawn_by_numpy


_SPANS = st.one_of(
    st.integers(0, 40),
    st.integers(0, 2**33),
    st.sampled_from([2**31, 3 * 2**30, 2**32 - 2, 2**32 - 1, 2**32, 2**62]),
    st.integers(0, 2**62),
)


def _int_range(lo_min: int, lo_max: int = 2**40, spans=_SPANS):
    return st.tuples(st.integers(lo_min, lo_max), spans).map(lambda pair: [pair[0], pair[0] + pair[1]])


def _float_range(values):
    return st.one_of(st.lists(values, min_size=2, max_size=2).map(sorted), values.map(lambda v: [v, v]))


_POSITIVE = st.floats(1e-3, 100.0)
_NON_NEGATIVE = st.one_of(st.just(0.0), _POSITIVE)
_UNIT = st.floats(0.0, 1.0, allow_subnormal=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n_dos=st.integers(1, 60),
    seed=st.integers(0, 2**32),
    do_params=st.fixed_dictionaries({
        "p_min": _float_range(_POSITIVE),
        "unit_cost_frac": _float_range(_NON_NEGATIVE),
        "rho": _float_range(_NON_NEGATIVE),
        "r0": _float_range(_UNIT),
        "r_min": _float_range(_UNIT),
        "theta_max": _int_range(0),
        "s_max": _int_range(0),
        "kappa_hat": _int_range(1),
        "epsilon": _float_range(_NON_NEGATIVE),
        "m_positive": _int_range(0),
        "q0": _int_range(0, 50, st.integers(0, 250)),
        "q0_payment_markup": _float_range(_POSITIVE),
    }),
    data_size_range=_int_range(0),
)
def test_data_owners_equal_the_reference_loop_on_drawn_configs(n_dos, seed, do_params, data_size_range):
    raw = {"n_dos": n_dos, "do_params": do_params, "data_size_range": data_size_range}
    _assert_data_owners_equal_the_reference(raw, seed)


def _queue(owner, payments, depth=0):
    """A task queue: task k is held by `owner` and pays `payments[k]`."""
    tasks = np.zeros(len(payments), dtype=TASK)
    tasks["owner"] = owner
    tasks["payment"] = payments
    tasks["depth"] = depth
    tasks["id"] = np.arange(len(payments))
    return tasks


def _left(queue, outcome, do_id):
    """Ids of `do_id`'s tasks that routing did not move."""
    kept = np.delete(queue, outcome.moved)
    return kept["id"][kept["owner"] == do_id].tolist()


def route(states, queue, decisions, network, prices, reps, capacity_left, depth_max, step_index):
    """`route_subdelegations` over the quotes `eligible_delegates` gives on
    `network` for every DO with a goal, as the step's snapshot asks them."""
    asked = np.array(sorted(i for i, d in decisions.items() if d.subdelegate_s > 0), dtype=np.intp)
    routable = queue["depth"] < depth_max
    best = np.full(len(states), -math.inf)
    np.maximum.at(best, queue["owner"][routable], queue["payment"][routable])
    quotes = eligible_delegates(
        neighbour_rows(network, asked), prices, reps, best[asked], states["rep_threshold_r_min"][asked]
    )
    return route_subdelegations(len(states), queue, decisions, asked, quotes, prices, capacity_left, depth_max, step_index)


def _routing_setup(payments, neighbor_price=0.5, depth=0):
    states = state_columns(
        make_state(pending_q=float(len(payments)), s_max=5, rep_threshold_r_min=0.5),
        make_state(current_price_p=neighbor_price,
                   reserve_price_p_min=min(neighbor_price, 1.0), reputation_r=0.9),
    )
    network = trust_network(2, [(0, 1)])
    queue = _queue(0, payments, depth)
    prices = np.array([states["current_price_p"][0], neighbor_price])
    reps = np.array([states["reputation_r"][0], 0.9])
    capacity = np.array([4, 4])
    return states, queue, network, prices, reps, capacity


def test_routing_noop_without_delegations():
    states, queue, net, prices, reps, cap = _routing_setup([1.0, 1.0])
    decisions = {i: StepDecision(1.0, 0) for i in range(2)}
    outcome = route(states, queue, decisions, net, prices, reps, cap, 3, 0)
    assert outcome.payments.tolist() == []
    assert len(_left(queue, outcome, 0)) == 2


def test_routing_transfers_highest_payment_tasks_and_pays_quotes():
    states, queue, net, prices, reps, cap = _routing_setup([1.0, 2.0, 1.5])
    decisions = {
        0: StepDecision(1.0, 2),
        1: StepDecision(1.0, 0),
    }
    outcome = route(states, queue, decisions, net, prices, reps, cap, 3, 5)
    assert outcome.s_realized[0] == 2
    assert _paid(outcome.payments) == [(0, 1, 0.5), (0, 1, 0.5)]
    assert outcome.payments["offer"].tolist() == [2.0, 1.5]  # the payments the tasks carried
    moved = outcome.incoming
    assert moved["id"].tolist() == [1, 2]  # payments 2.0 then 1.5
    for task in moved:
        assert task["owner"] == 1
        assert task["depth"] == 1
        assert task["payment"] == 0.5
        assert task["arrival"] == 6
    assert _left(queue, outcome, 0) == [0]


def test_routing_stops_early_when_no_delegate_is_cheap_enough():
    states, queue, net, prices, reps, cap = _routing_setup([2.0, 0.3], neighbor_price=0.5)
    decisions = {0: StepDecision(1.0, 2), 1: StepDecision(1.0, 0)}
    outcome = route(states, queue, decisions, net, prices, reps, cap, 3, 0)
    assert outcome.s_realized[0] == 1
    assert len(_left(queue, outcome, 0)) == 1


def test_routing_skips_tasks_at_depth_cap():
    states, queue, net, prices, reps, cap = _routing_setup([2.0, 2.0], depth=3)
    decisions = {0: StepDecision(1.0, 2), 1: StepDecision(1.0, 0)}
    outcome = route(states, queue, decisions, net, prices, reps, cap, 3, 0)
    assert outcome.s_realized[0] == 0
    assert len(_left(queue, outcome, 0)) == 2


def test_routing_respects_receiver_capacity():
    states, queue, net, prices, reps, cap = _routing_setup([2.0, 2.0, 2.0])
    cap[1] = 1
    decisions = {0: StepDecision(1.0, 3), 1: StepDecision(1.0, 0)}
    outcome = route(states, queue, decisions, net, prices, reps, cap, 3, 0)
    assert outcome.s_realized[0] == 1


def test_routing_breaks_price_ties_by_lower_id():
    states = state_columns(
        make_state(pending_q=1.0, s_max=5, rep_threshold_r_min=0.5),
        *(
            make_state(current_price_p=price, reserve_price_p_min=price, reputation_r=0.9)
            for k, price in ((1, 0.8), (2, 0.5), (3, 0.5))
        ),
    )
    network = trust_network(4, [(0, 3), (0, 1), (0, 2)])
    queue = _queue(0, [2.0])
    decisions = {i: StepDecision(1.0, 1 if i == 0 else 0) for i in range(4)}
    prices = states["current_price_p"].copy()
    reps = states["reputation_r"].copy()
    capacity = np.full(4, 4)
    outcome = route(states, queue, decisions, network, prices, reps, capacity, 3, 0)
    assert _paid(outcome.payments) == [(0, 2, 0.5)]
    assert outcome.incoming["id"][outcome.incoming["owner"] == 2].tolist() == [0]


def reference_route(states, queue, decisions, network, prices, reps, capacity_left, depth_max, step_index):
    """Routing one task at a time, each delegate found by scanning the
    delegator's neighbours from the cheapest: the reference the pointer walk
    of `route_subdelegations` must match."""
    n = len(states)
    s_realized = dict.fromkeys(range(n), 0)
    moved, delegates, paid = [], [], []
    capacity = capacity_left.tolist()
    by_price = sorted(range(n), key=lambda j: prices[j])  # stable: ties by id
    for do_id, decision in decisions.items():
        trusted = [
            j for j in by_price
            if network.adjacency[do_id, j] and reps[j] >= states["rep_threshold_r_min"][do_id]
        ]
        mine = [k for k in range(len(queue)) if queue["owner"][k] == do_id and queue["depth"][k] < depth_max]
        mine.sort(key=lambda k: (-queue["payment"][k], queue["id"][k]))
        for k in mine:
            if s_realized[do_id] >= decision.subdelegate_s:
                break
            delegate = next((j for j in trusted if capacity[j] > 0), None)
            if delegate is None or prices[delegate] > queue["payment"][k]:
                break
            moved.append(k)
            delegates.append(delegate)
            paid.append(prices[delegate])
            capacity[delegate] -= 1
            s_realized[do_id] += 1
    carried = queue[np.array(moved, dtype=np.intp)]
    incoming = [
        (j, p, step_index + 1, depth + 1, task_id)
        for j, p, depth, task_id in zip(delegates, paid, carried["depth"].tolist(), carried["id"].tolist())
    ]
    payments = list(zip(carried["owner"].tolist(), delegates, paid, carried["payment"].tolist()))
    return moved, incoming, s_realized, payments


@st.composite
def routing_cases(draw):
    """A small market: (prices, reps, r_min, edges, tasks as (owner, payment,
    depth), goals, capacity, depth_max), with few distinct prices, payments
    and reputations so that ties are common and capacity runs out."""
    n = draw(st.integers(2, 7))
    column = lambda values: draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return (
        column([0.5, 1.0, 1.5]),
        column([0.3, 0.6, 0.9]),
        column([0.0, 0.5, 0.8]),
        [pair for pair in pairs if draw(st.booleans())],
        draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from([0.4, 1.0, 1.2, 2.0]), st.integers(0, 2)),
            max_size=24,
        )),
        column([0, 0, 1, 2, 3, 5]),
        column([0, 1, 2, 3]),
        draw(st.integers(0, 2)),
    )


# Delegators 0 and 1 share neighbours 2 and 3, tied on price, with room for
# two tasks each.  2 fills up partway through DO 0's walk, which goes on to
# 3; DO 1's walk starts past 2, and 3 fills up after its first task.
SHARED_NEIGHBOURS = (
    [1.0, 1.0, 0.5, 0.5], [0.9] * 4, [0.5, 0.5, 0.0, 0.0], [(0, 2), (0, 3), (1, 2), (1, 3)],
    [(0, 2.0, 0), (0, 2.0, 0), (0, 1.2, 0), (1, 2.0, 0), (1, 1.2, 0), (1, 1.0, 0)],
    [3, 3, 0, 0], [0, 0, 2, 2], 2,
)
# Tasks at and past the depth cap stay; a zero goal moves nothing; DO 3 is
# cheaper than DO 2 but below DO 0's reputation threshold.
DEPTH_AND_ZERO_GOAL = (
    [1.0, 1.0, 0.5, 0.4], [0.9, 0.9, 0.9, 0.3], [0.5, 0.5, 0.0, 0.0], [(0, 2), (0, 3), (1, 2)],
    [(0, 2.0, 1), (0, 2.0, 0), (0, 1.0, 1), (1, 2.0, 0)],
    [3, 0, 0, 0], [0, 0, 3, 3], 1,
)

# DO 0's goal of 1 cuts between its two tasks paying 2.0; ids 2 and 1 in
# queue order, so the id tie-break moves the second row.
EQUAL_PAY_CUT = (
    [1.0, 0.5], [0.9, 0.9], [0.5, 0.0], [(0, 1)],
    [(0, 2.0, 0), (0, 2.0, 0), (1, 1.0, 0)],
    [1, 0], [0, 3], 2,
)
# Both of DO 0's neighbours are below its threshold of 0.8; DO 3, with a
# threshold of 0.5, delegates to neighbour 1, which DO 0 may not.
BELOW_R_MIN = (
    [1.0, 0.5, 0.5, 1.0], [0.9, 0.6, 0.3, 0.9], [0.8, 0.0, 0.0, 0.5], [(0, 1), (0, 2), (1, 3)],
    [(0, 2.0, 0), (0, 2.0, 0), (3, 2.0, 0)],
    [2, 0, 0, 1], [0, 3, 3, 0], 1,
)
# DO 0 takes neighbour 2's only slot; DO 1's neighbours are then 2, full, and
# 3, which had no room to begin with, so its walk moves nothing.
FULL_BEFORE_WALK = (
    [1.0, 1.0, 0.5, 0.5], [0.9] * 4, [0.5, 0.5, 0.0, 0.0], [(0, 2), (1, 2), (1, 3)],
    [(0, 2.0, 0), (1, 2.0, 0), (1, 1.2, 0)],
    [1, 2, 0, 0], [0, 0, 1, 0], 1,
)


def _routing_case(case):
    """`route`'s arguments, capacity last, for a case of `routing_cases`:
    `route` builds the quotes from the drawn graph, which `reference_route`
    scans itself."""
    prices, reps, r_min, edges, tasks, goals, capacity, depth_max = case
    states = state_columns(*(make_state(rep_threshold_r_min=r) for r in r_min))
    tasks = sorted(tasks, key=lambda task: task[0])  # queues are grouped by owner
    queue = np.zeros(len(tasks), dtype=TASK)
    for name, values in zip(("owner", "payment", "depth"), zip(*tasks)):
        queue[name] = values
    queue["id"] = np.random.default_rng(len(tasks)).permutation(len(tasks))  # ids tie-break payments
    decisions = {i: StepDecision(1.0, goal) for i, goal in enumerate(goals)}
    network = trust_network(len(prices), edges)
    return states, queue, decisions, network, np.array(prices), np.array(reps), np.array(capacity), depth_max


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=routing_cases())
@example(case=SHARED_NEIGHBOURS)
@example(case=DEPTH_AND_ZERO_GOAL)
@example(case=EQUAL_PAY_CUT)
@example(case=BELOW_R_MIN)
@example(case=FULL_BEFORE_WALK)
def test_pointer_walk_routing_matches_the_per_task_scan(case):
    *args, capacity, depth_max = _routing_case(case)
    got = route(*args, capacity, depth_max, 4)
    moved, incoming, s_realized, payments = reference_route(*args, capacity, depth_max, 4)
    assert got.moved.tolist() == moved
    assert got.incoming.tolist() == incoming
    assert dense(got.s_realized, len(s_realized)) == list(s_realized.values())
    assert got.payments.tolist() == payments


def test_routing_examples_cover_what_they_claim():
    *args, capacity, depth_max = _routing_case(SHARED_NEIGHBOURS)
    outcome = route(*args, capacity, depth_max, 0)
    # Both shared neighbours, with room for two tasks each, fill up.
    assert _paid(outcome.payments) == [(0, 2, 0.5), (0, 2, 0.5), (0, 3, 0.5), (1, 3, 0.5)]
    *args, capacity, depth_max = _routing_case(DEPTH_AND_ZERO_GOAL)
    outcome = route(*args, capacity, depth_max, 0)
    assert _paid(outcome.payments) == [(0, 2, 0.5)]
    assert dense(outcome.s_realized, 4) == [1, 0, 0, 0]
    *args, capacity, depth_max = _routing_case(EQUAL_PAY_CUT)
    queue = args[1]
    assert queue["id"][:2].tolist() == [2, 1] and queue["payment"][:2].tolist() == [2.0, 2.0]
    outcome = route(*args, capacity, depth_max, 0)
    assert outcome.moved.tolist() == [1]
    assert outcome.incoming["id"].tolist() == [1]
    *args, capacity, depth_max = _routing_case(BELOW_R_MIN)
    outcome = route(*args, capacity, depth_max, 0)
    assert _paid(outcome.payments) == [(3, 1, 0.5)]
    assert dense(outcome.s_realized, 4) == [0, 0, 0, 1]
    *args, capacity, depth_max = _routing_case(FULL_BEFORE_WALK)
    outcome = route(*args, capacity, depth_max, 0)
    assert _paid(outcome.payments) == [(0, 2, 0.5)]
    assert dense(outcome.s_realized, 4) == [1, 0, 0, 0]


def test_zero_mu_world_earns_nothing():
    cfg = resolve_config({
        "n_dos": 8, "horizon_T": 12, "seeds": [1],
        "mu": {"strategies": [], "budget_per_step": 0.0},
    })
    _, records = run_world(build_world(cfg, 1, policy_override="pas-afl"))
    assert all(r.utility_u <= 0.0 for r in records)


def test_step_keeps_virtual_and_physical_queues_aligned():
    cfg = resolve_config({"n_dos": 12, "horizon_T": 30, "seeds": [3]})
    world = build_world(cfg, 3, policy_override="pas-afl")
    for _ in range(cfg.horizon_T):
        step(world)
        held = np.bincount(world.queue["owner"], minlength=cfg.n_dos)
        assert world.states["pending_q"].tolist() == held.tolist()
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


# What one step decided, DO by DO: the snapshot it decided against, the
# record each decide_for_policy call read (a full DataOwnerState in the scalar
# reference's replay), each DO's (accept_x, price_p, subdelegate_s,
# work_theta), and how many prices fell back to the reserve as degenerate.
Decided = namedtuple("Decided", "avg eligible states decisions degenerate")


def step_decisions(world, snapshot=None) -> Decided:
    """Step `world` and record its decisions.  With `snapshot`, an (avg,
    eligible) pair, the step decides against it in place of its own, with the
    goals its rules set at that mean; each DO it calls eligible is quoted no
    neighbour, so nothing routes."""
    build_contexts, decide, settle_step = market.World._build_contexts, market.decide_for_policy, market.settle
    seen = {"calls": []}

    def contexts(self, prices, theta):
        if snapshot is None:
            seen["snapshot"] = build_contexts(self, prices, theta)
        else:
            avg, eligible = snapshot
            cap = subdelegation_cap(self.states, theta)
            goal = np.where(self._threshold_rule, decide_subdelegation(self.states, avg, cap), cap)
            asked = np.flatnonzero(eligible)
            seen["snapshot"] = (avg, goal, eligible, asked, np.full((len(asked), 1), -1))
        return seen["snapshot"]

    def recording_decide(spec, state, *args):
        seen["calls"].append((state, decide(spec, state, *args)))
        return seen["calls"][-1][1]

    def recording_settle(states, x, price, theta, *args):
        seen["settled"] = x.tolist(), price.tolist(), theta.tolist()
        return settle_step(states, x, price, theta, *args)

    degenerate = world.degenerate_price_steps
    with mock.patch.object(market.World, "_build_contexts", contexts), mock.patch.object(
        market, "decide_for_policy", recording_decide
    ), mock.patch.object(market, "settle", recording_settle):
        step(world)
    states, calls = zip(*seen["calls"])
    x, price, theta = seen["settled"]
    assert [d.price_p for d in calls] == price  # the step posts the prices the calls return
    avg, _, eligible = seen["snapshot"][:3]
    return Decided(
        avg.tolist(),
        eligible.tolist(),
        list(states),
        [(accept, p, d.subdelegate_s, work) for accept, p, d, work in zip(x, price, calls, theta)],
        world.degenerate_price_steps - degenerate,
    )


def reference_decisions(world, avg, eligible) -> Decided:
    """`world`'s next decisions by the scalar reference, every rule dispatched
    per DO, against the snapshot (avg, eligible); it draws from the world's
    own generators."""
    cfg = world.config
    knobs = (cfg.policy.markup_max, cfg.policy.lin_gain, cfg.policy.work_mode, cfg.market.r_floor)
    full = views(world)
    want = [
        reference_decide(spec, view, a, e, rng, *knobs)
        for spec, view, a, e, rng in zip(world.policy_specs, full, avg, eligible, world.policy_rngs)
    ]
    return Decided(avg, eligible, full, [d[:4] for d in want], sum(d.price_degenerate for d in want))


def generator_states(world) -> list:
    return [rng and rng.bit_generator.state for rng in world.policy_rngs]


def test_step_decisions_depend_only_on_snapshot():
    cfg = resolve_config({"n_dos": 10, "horizon_T": 15, "seeds": [2]})
    for policy in ("pas-afl", "lin-greedy"):
        world = build_world(cfg, 2, policy_override=policy)
        for _ in range(cfg.horizon_T):
            twin = copy.deepcopy(world)
            got = step_decisions(world)
            # Each call reads its own DO's id and reserve price.
            columns = zip(twin.ids.tolist(), twin.states["reserve_price_p_min"].tolist())
            assert [(record.id, record.reserve_price_p_min) for record in got.states] == list(columns)
            # Replayed on the state before the step and the snapshot the step took.
            want = reference_decisions(twin, got.avg, got.eligible)
            assert (got.avg, got.eligible, got.decisions, got.degenerate) == (
                want.avg, want.eligible, want.decisions, want.degenerate
            )


def reference_snapshot(world, prices, reps):
    """Each DO's plain mean neighbour price (inf with none), and whether a
    neighbour could take its best-paying task below the depth cap, asked of
    every DO one neighbour at a time."""
    adjacency = world.network.adjacency
    queue = world.queue
    routable = queue["depth"] < world.config.market.delegation_depth_max
    avg, eligible = [], []
    for i, r_min in enumerate(world.states["rep_threshold_r_min"].tolist()):
        neighbours = np.flatnonzero(adjacency[i]).tolist()
        avg.append(sum(prices[j] for j in neighbours) / len(neighbours) if neighbours else math.inf)
        pay = queue["payment"][routable & (queue["owner"] == i)]
        eligible.append(
            len(pay) > 0 and any(reps[j] >= r_min and prices[j] <= pay.max() for j in neighbours)
        )
    return avg, eligible


POLICY_NAMES = sorted(POLICIES)


def test_each_do_is_handed_one_record_for_the_whole_run():
    cfg = resolve_config({
        "n_dos": 12, "horizon_T": 6, "seeds": [4], "do_params": {"q0": [0, 4]},
        "policy": {"assignment": POLICY_NAMES},
    })
    world = build_world(cfg, 4)
    first = step_decisions(world).states
    assert [type(record) for record in first] == [OwnerConstants] * cfg.n_dos
    for _ in range(cfg.horizon_T - 1):
        assert list(map(id, step_decisions(world).states)) == list(map(id, first))


@st.composite
def snapshot_cases(draw):
    """A world of DOs on drawn policies, and degenerate decision-time states:
    rho = 0, reputation below the floor, an urgency queue of 1e6."""
    names = draw(st.lists(st.sampled_from(POLICY_NAMES), min_size=1, max_size=12))
    column = lambda values: draw(st.lists(st.sampled_from(values), min_size=len(names), max_size=len(names)))
    return (
        names,
        draw(st.sampled_from(["greedy", "threshold"])),
        draw(st.sampled_from([0.0, 0.5, 1.0])),  # trust_edge_prob; 0 leaves no neighbours
        draw(st.integers(0, 2)),  # warm-up steps
        column([0.0, 0.5, 5.0, 30.0]),  # availability_rho
        column([1e-4, 0.3, 0.9]),  # reputation_r
        column([0.0, 3.0, 1e6]),  # urgency_Q
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=snapshot_cases())
@example(case=(POLICY_NAMES, "greedy", 0.5, 1, [0.0, 30.0] * 6, [1e-4, 0.9, 0.3] * 4, [0.0, 3.0, 1e6] * 4))
@example(case=(POLICY_NAMES, "threshold", 1.0, 0, [5.0, 0.5] * 6, [0.9] * 12, [0.0] * 12))
def test_snapshot_decides_and_draws_as_if_every_do_were_asked(case):
    names, work_mode, edge_prob, warmup, rho, rep, urgency = case
    cfg = resolve_config({
        "n_dos": len(names), "horizon_T": warmup + 1, "trust_edge_prob": edge_prob, "seeds": [1],
        "do_params": {"q0": [0, 8]}, "policy": {"assignment": names, "work_mode": work_mode},
    })
    world = build_world(cfg, 1)
    for _ in range(warmup):
        step(world)
    world.states["availability_rho"] = rho
    world.states["reputation_r"] = rep
    world.states["urgency_Q"] = urgency
    twin = copy.deepcopy(world)

    prices, reps = twin.states["current_price_p"].copy(), twin.states["reputation_r"].copy()
    avg = twin._build_contexts(prices, decide_work(twin.states, work_mode))[0]
    plain_avg, eligible = reference_snapshot(twin, prices.tolist(), reps.tolist())
    assert avg.tolist() == pytest.approx(plain_avg, rel=1e-12)
    want = reference_decisions(twin, avg.tolist(), eligible)
    got = step_decisions(world)
    assert (got.decisions, got.degenerate) == (want.decisions, want.degenerate)
    assert generator_states(world) == generator_states(twin)


@st.composite
def decision_cases(draw):
    """DOs on drawn policies in drawn decision-time states, and a drawn
    snapshot: rho <= 0, reputation 0 or below the floor, an urgency queue of
    1e6, s_max = 0, a mean neighbour price of inf, and eligibility that no
    trust graph need agree with."""
    names = draw(st.lists(st.sampled_from(POLICY_NAMES), min_size=1, max_size=12))
    column = lambda values: draw(st.lists(st.sampled_from(values), min_size=len(names), max_size=len(names)))
    return (
        names,
        draw(st.sampled_from(["greedy", "threshold"])),
        draw(st.integers(0, 2)),  # warm-up steps
        {
            "availability_rho": column([-1.0, 0.0, 0.5, 5.0, 30.0]),
            "reputation_r": column([0.0, 1e-4, 0.3, 0.9]),
            "urgency_Q": column([0.0, 3.0, 1e6]),
            "s_max": column([0, 2, 5]),
        },
        column([math.inf, 0.5, 2.0, 40.0]),  # mean neighbour price
        column([False, True]),  # has an eligible delegate
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=decision_cases())
@example(case=(
    POLICY_NAMES, "greedy", 1,
    {"availability_rho": [-1.0, 0.0, 0.5, 30.0] * 3, "reputation_r": [0.0, 1e-4, 0.9] * 4,
     "urgency_Q": [1e6, 0.0, 3.0] * 4, "s_max": [0, 5] * 6},
    [math.inf, 0.5, 2.0] * 4, [True, False, True] * 4,
))
@example(case=(
    POLICY_NAMES, "threshold", 0,
    {"availability_rho": [0.5, 5.0] * 6, "reputation_r": [0.3, 0.9] * 6, "urgency_Q": [3.0, 1e6] * 6,
     "s_max": [2, 5, 0] * 4},
    [40.0, math.inf, 0.5] * 4, [True] * 12,
))
def test_array_rules_and_draws_equal_the_scalar_references(case):
    names, work_mode, warmup, columns, avg, eligible = case
    cfg = resolve_config({
        "n_dos": len(names), "horizon_T": warmup + 1, "trust_edge_prob": 0.5, "seeds": [1],
        "do_params": {"q0": [0, 8]}, "policy": {"assignment": names, "work_mode": work_mode},
    })
    world = build_world(cfg, 1)
    for _ in range(warmup):
        step(world)
    for name, values in columns.items():
        world.states[name] = values
    twin = copy.deepcopy(world)

    want = reference_decisions(twin, avg, eligible)
    got = step_decisions(world, (np.array(avg), np.array(eligible)))
    assert got.decisions == want.decisions  # each DO's (x, p, s, theta), bit for bit
    assert got.degenerate == want.degenerate
    assert generator_states(world) == generator_states(twin)


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
        assert rec.accepted_kappa <= world.states["kappa_max"][rec.do_id] - 1
    assert any(r.accepted_kappa > 0 for r in first)


def test_demand_model_round_integerization_is_deterministic():
    cfg = resolve_config({
        "n_dos": 6, "horizon_T": 10, "seeds": [2],
        "market": {"arrival_mode": "demand-model", "integerization": "round"},
    })
    _, a = run_world(build_world(cfg, 2, policy_override="lin-greedy"))
    _, b = run_world(build_world(cfg, 2, policy_override="lin-greedy"))
    assert a == b


def reference_arrivals(world, price, accept):
    """Demand-model arrivals one DO at a time in Python floats, as the
    formulas read: the reference the whole-array arrivals must match, with
    the same draws from each DO's generator and the same error."""
    cfg = world.config
    c, r_floor, mode = cfg.constants, cfg.market.r_floor, cfg.market.integerization
    limit = market._POISSON_LAM_MAX if mode == "poisson" else sys.float_info.max
    admitted = []
    for i, state in enumerate(views(world)):
        if accept[i] != 1:
            admitted.append(0)
            continue
        try:
            multiplier = math.exp(c.a0 + c.a3 * state.alignment_epsilon) * float(state.positive_ratings_Mp) ** c.a2
            f = multiplier * float(price[i]) / max(state.reputation_r, r_floor) ** c.a1
        except (OverflowError, ZeroDivisionError):
            f = math.inf
        if not f <= limit:
            raise MarketInvariantError(
                f"DO {i} at step {world.t}: expected demand {f} is not a mean a {mode} draw can take"
            )
        draw = int(world.demand_rngs[i].poisson(f)) if mode == "poisson" else int(round(f))
        admitted.append(min(draw, state.theta_max, state.kappa_max - 1))
    return admitted


def mostly(ordinary, *special):
    """`ordinary`, or one of the `special` values about one time in eight."""
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda usual: ordinary if usual else st.sampled_from(special))


@st.composite
def arrival_cases(draw):
    """(mode, r_floor, (a0, a1, a2, a3), then per DO: price, accept,
    reputation, epsilon, Mp, theta_max, kappa_max).  The special values
    overflow exp or pow, underflow r ** a1 to 0, or make means too large to
    draw from or not a number."""
    n = draw(st.integers(1, 6))
    column = lambda element: draw(st.lists(element, min_size=n, max_size=n))
    return (
        draw(st.sampled_from(["poisson", "round"])),
        draw(st.sampled_from([1e-3, 1e-3, 0.5, 2.0])),
        (
            draw(mostly(st.floats(0.0, 3.0), 40.0, 705.0, 720.0)),
            draw(mostly(st.floats(0.2, 2.0), 120.0, 1100.0)),
            draw(mostly(st.floats(0.0, 1.0), 0.0, 60.0)),
            draw(mostly(st.floats(0.0, 1.0), 0.0, 4.0)),
        ),
        column(mostly(st.floats(0.5, 3.0), 0.0, 1e15, 1e300)),
        column(st.sampled_from([0, 1, 1, 1])),
        column(mostly(st.floats(0.0, 1.0), 0.0, 1e-4, 1.0, math.nan)),
        column(mostly(st.floats(0.0, 2.0), 2.0)),
        column(st.sampled_from([0, 1, 7, 10**6])),
        column(st.sampled_from([0, 3, 9, 9])),
        column(st.sampled_from([1, 4, 12, 12])),
    )


# In round mode, means of exactly 2.5 and 3.5 round half to even.
ROUND_HALVES = (
    "round", 1e-3, (0.0, 1.0, 0.0, 0.0), [2.5, 3.5], [1, 1], [1.0, 1.0], [0.0, 0.0], [1, 1], [9, 9], [12, 12],
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=arrival_cases())
@example(case=ROUND_HALVES)
def test_whole_array_arrivals_match_the_scalar_loop(case):
    mode, r_floor, constants, price, accept, *columns = case
    price, accept = np.array(price), np.array(accept)
    cfg = resolve_config({"n_dos": len(price), "horizon_T": 1, "market": {"arrival_mode": "demand-model"}})
    cfg = dataclasses.replace(
        cfg,
        constants=MarketConstants(*constants),
        market=dataclasses.replace(cfg.market, r_floor=r_floor, integerization=mode),
    )
    world, twin = build_world(cfg, 5), build_world(cfg, 5)
    names = ("reputation_r", "alignment_epsilon", "positive_ratings_Mp", "theta_max", "kappa_max")
    for w in (world, twin):
        for name, values in zip(names, columns):
            w.states[name] = values
        w.t = 3

    try:
        want = reference_arrivals(twin, price, accept)
    except MarketInvariantError as err:
        with pytest.raises(MarketInvariantError) as got:
            market._demand_model_arrivals(world, price, accept)
        assert str(got.value) == str(err)
        return
    outcome, _ = market._demand_model_arrivals(world, price, accept)
    assert dense(outcome.kappa, len(want)) == want
    assert [rng.bit_generator.state for rng in world.demand_rngs] == [
        rng.bit_generator.state for rng in twin.demand_rngs
    ]


def test_price_degeneracy_is_counted():
    cfg = resolve_config({
        "n_dos": 4, "horizon_T": 5, "seeds": [1],
        "do_params": {"rho": [0.0, 0.0], "q0": [0, 0]}, "policy": {"assignment": "pas-afl"},
    })
    res = run_scenario(cfg, 1)
    assert res.price_degenerate_steps == 4 * 5
    assert res.acceptance_rate == 0.0


def _step_until_audit(monkeypatch, name, wrapper, raw, policy, match):
    """Step a world of the config `raw` with `market.<name>` replaced by
    `wrapper(real)`, and expect an audit matching `match` within its horizon."""
    monkeypatch.setattr(market, name, wrapper(getattr(market, name)))
    world = build_world(resolve_config(raw), 1, policy_override=policy)
    with pytest.raises(MarketInvariantError, match=match):
        for _ in range(world.config.horizon_T):
            step(world)


def _step_until_tampered(monkeypatch, name, tamper, policy, match, mu_budget=60.0):
    """Step a small world with `market.<name>` wrapped so that `tamper` edits
    the first outcome it sees with a ledger entry, and expect an audit matching `match`."""
    tampered = []

    def wrapper(real):
        def wrapped(*args, **kwargs):
            result = real(*args, **kwargs)
            outcome = result[0] if isinstance(result, tuple) else result
            if len(outcome.payments) and not tampered:
                tamper(outcome)
                tampered.append(True)
            return result
        return wrapped

    raw = {"n_dos": 10, "horizon_T": 30, "seeds": [1], "mu": {"budget_per_step": mu_budget}}
    _step_until_audit(monkeypatch, name, wrapper, raw, policy, match)
    assert tampered


def _overpay(outcome):
    outcome.payments["amount"][0] *= 1.5


def _drop(outcome):
    outcome.payments = outcome.payments[1:]


def _redirect(outcome):
    payee = outcome.payments["payee"]
    payee[0] = (payee[0] + 1) % 10  # another of the world's 10 DOs


def _underbid(outcome):
    outcome.payments["offer"][0] = outcome.payments["amount"][0] / 2


def _charge_one_mu(outcome):
    outcome.payments["payer"] = 0  # every cleared task billed to MU 0


def _overcharge(outcome):
    outcome.payments["amount"][0] = 2 * outcome.payments["offer"][0]


def _deepen(outcome):
    outcome.incoming["depth"][0] = 4  # one past the default cap of 3


@pytest.mark.parametrize(
    "tamper, message",
    [(_overpay, "posted at"), (_drop, "admitted tasks"), (_underbid, "below its posted price")],
    ids=["overpaid", "dropped", "underbid"],
)
def test_auction_ledger_audit_catches_a_tampered_entry(monkeypatch, tamper, message):
    _step_until_tampered(monkeypatch, "run_auction", tamper, "pas-afl", message)


def test_auction_budget_audit_catches_one_mu_billed_for_all(monkeypatch):
    # With budgets this small every MU clears a little, so no one MU can pay for all of it.
    _step_until_tampered(
        monkeypatch, "run_auction", _charge_one_mu, "pas-afl", "MU 0 spent .* over its budget 3.0",
        mu_budget=3.0,
    )


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_drop, "(delegated|received) tasks"),
        (_redirect, "received tasks"),
        (_overcharge, "to delegate a task paying"),
        (_deepen, "at depth 4 > cap 3"),
    ],
    ids=["dropped", "redirected", "overcharged", "too-deep"],
)
def test_delegation_ledger_audit_catches_a_tampered_entry(monkeypatch, tamper, message):
    _step_until_tampered(monkeypatch, "route_subdelegations", tamper, "lin-greedy", message)


# Small worlds where DOs delegate: lin-greedy DOs under demand-model arrivals
# delegate on 9 of 30 steps and not on the other 21, and on one step a
# delegator moves nothing.
DELEGATING = {"n_dos": 10, "horizon_T": 30, "seeds": [1], "market": {"arrival_mode": "demand-model"}}


def _recorded(monkeypatch, name, raw, policy) -> list:
    """(arguments, outcome) of every `market.<name>` call over a whole run of the config `raw`."""
    real, calls = getattr(market, name), []

    def recording(*args):
        result = real(*args)
        calls.append((args, result[0] if isinstance(result, tuple) else result))
        return result

    monkeypatch.setattr(market, name, recording)
    run_world(build_world(resolve_config(raw), 1, policy_override=policy))
    return calls


def _claim_for_a_non_payer(outcome):
    payers = set(outcome.payments["payer"].tolist())
    outcome.s_realized[min(set(range(10)) - payers)] = 1  # a DO that made no payment


def _claim_past_the_goal(outcome):
    outcome.s_realized[int(outcome.payments["payer"][0])] = 10**6  # past any goal s_max allows


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_claim_for_a_non_payer, r"DO \d+ made 0 payments for 1 delegated tasks"),
        (_claim_past_the_goal, r"DO \d+ made \d+ payments for 1000000 delegated tasks"),
    ],
    ids=["non-payer", "past-the-goal"],
)
def test_delegation_count_audit_catches_a_tampered_s_realized(monkeypatch, tamper, message):
    _step_until_tampered(monkeypatch, "route_subdelegations", tamper, "lin-greedy", message)


def test_goal_audit_catches_routing_past_the_goals_step_read(monkeypatch):
    # Routing walks one task more per delegator than the decisions `step`
    # read; the ledgers stay consistent, so only the goal audit can tell.
    def wrapper(real):
        def overreaching(n, queue, decisions, *args):
            raised = {i: dataclasses.replace(d, subdelegate_s=d.subdelegate_s + 1) if d.subdelegate_s else d
                      for i, d in decisions.items()}
            return real(n, queue, raised, *args)
        return overreaching

    _step_until_audit(
        monkeypatch, "route_subdelegations", wrapper, DELEGATING, "lin-greedy",
        r"DO \d+ routed more tasks than it decided to delegate",
    )


@pytest.mark.parametrize(
    "name, arrival_mode", [("run_auction", "auction"), ("_demand_model_arrivals", "demand-model")]
)
def test_kappa_holds_exactly_the_dos_admitted_a_task(monkeypatch, name, arrival_mode):
    raw = {**DELEGATING, "market": {"arrival_mode": arrival_mode}}
    calls = _recorded(monkeypatch, name, raw, "lin-greedy")
    assert len(calls) == raw["horizon_T"]
    assert any(0 < len(outcome.kappa) < raw["n_dos"] for _, outcome in calls)
    for _, outcome in calls:
        assert set(outcome.kappa) == set(outcome.tasks["owner"].tolist())
        assert 0 not in outcome.kappa.values()
        assert sum(outcome.kappa.values()) == len(outcome.tasks)


def test_s_realized_holds_exactly_the_delegators(monkeypatch):
    calls = _recorded(monkeypatch, "route_subdelegations", DELEGATING, "lin-greedy")
    assert any(0 in outcome.s_realized.values() for _, outcome in calls)  # a delegator that moved nothing
    assert any(len(outcome.moved) for _, outcome in calls)
    for args, outcome in calls:
        decisions = args[2]
        assert set(outcome.s_realized) == {i for i, d in decisions.items() if d.subdelegate_s > 0}
        assert sum(outcome.s_realized.values()) == len(outcome.moved)


def test_a_step_without_a_positive_goal_routes_nothing(monkeypatch):
    calls = _recorded(monkeypatch, "route_subdelegations", DELEGATING, "lin-greedy")
    idle = [outcome for args, outcome in calls if not any(d.subdelegate_s for d in args[2].values())]
    assert len(idle) == 21
    for outcome in idle:
        assert outcome.s_realized == {}
        assert outcome.moved.tolist() == [] and outcome.moved.dtype == np.intp
        assert outcome.incoming.tolist() == [] and outcome.incoming.dtype == TASK
        assert outcome.payments.tolist() == [] and outcome.payments.dtype == market.LEDGER
    # Without a goal no quote is read, so none need exist.
    _, queue, _, prices, _, capacity = _routing_setup([1.0, 2.0])
    decisions = {0: StepDecision(1.0, 0), 1: StepDecision(1.0, 0)}
    no_quotes = np.empty((0, 0), np.intp)
    outcome = route_subdelegations(2, queue, decisions, np.empty(0, np.intp), no_quotes, prices, capacity, 3, 0)
    assert outcome.s_realized == {} and outcome.moved.tolist() == []


@pytest.mark.parametrize("asked", [[], [1]], ids=["none-asked", "another-asked"])
def test_routing_refuses_a_delegator_without_quotes(asked):
    states, queue, _, prices, _, capacity = _routing_setup([1.0, 2.0])
    asked = np.array(asked, dtype=np.intp)
    quotes = np.tile([0, 1], (len(asked), 1))  # DO 1's row must not be walked in DO 0's place
    decisions = {0: StepDecision(1.0, 2), 1: StepDecision(1.0, 0)}
    with pytest.raises(MarketInvariantError, match="DO 0 at step 7 delegates without being asked"):
        route_subdelegations(len(states), queue, decisions, asked, quotes, prices, capacity, 3, 7)


def test_step_refuses_a_decision_to_delegate_from_a_do_that_was_not_asked(monkeypatch):
    # No DO holds a task at step 0, so none is asked for quotes.
    cfg = resolve_config({"n_dos": 6, "horizon_T": 1, "seeds": [1], "do_params": {"q0": [0, 0]}})
    world = build_world(cfg, 1, policy_override="lin-greedy")
    decide = market.decide_for_policy

    def delegating(spec, state, *args):
        decision = decide(spec, state, *args)
        return dataclasses.replace(decision, subdelegate_s=1) if state.id == 4 else decision

    monkeypatch.setattr(market, "decide_for_policy", delegating)
    with pytest.raises(MarketInvariantError, match="DO 4 at step 0 delegates without being asked"):
        step(world)


def test_step_refuses_work_beyond_the_tasks_a_do_holds(monkeypatch):
    # Every DO plans one completion more than its whole backlog.
    monkeypatch.setattr(market, "decide_work", lambda states, mode: np.floor(states["pending_q"]).astype(np.intp) + 1)
    world = build_world(resolve_config({"n_dos": 6, "horizon_T": 2, "seeds": [1]}), 1)
    with pytest.raises(MarketInvariantError, match="DO 0 planned 7 completions with only 6 pending"):
        step(world)


def test_conservation_audit_catches_a_task_counted_twice():
    world = build_world(resolve_config({"n_dos": 10, "horizon_T": 5, "seeds": [1]}), 1)
    for _ in range(3):
        step(world)
    world.created_tasks += 1
    with pytest.raises(MarketInvariantError, match="task conservation broken at step 3"):
        step(world)


def test_queue_audit_catches_a_virtual_queue_one_task_long(monkeypatch):
    def wrapper(real):
        def longer(*args):
            u, new_q, *rest = real(*args)
            new_q[0] += 1
            return (u, new_q, *rest)
        return longer

    raw = {"n_dos": 10, "horizon_T": 30, "seeds": [1]}
    _step_until_audit(monkeypatch, "settle", wrapper, raw, "pas-afl", r"DO 0 virtual queue 7\.0 != physical queue 6$")


def test_cap_audit_catches_an_auction_that_sees_larger_caps(monkeypatch):
    def wrapper(real):
        def loosened(valuations, states, *args):
            states = states.copy()
            states["theta_max"] += 10
            states["kappa_max"] += 10
            return real(valuations, states, *args)
        return loosened

    raw = {"n_dos": 10, "horizon_T": 30, "seeds": [1]}
    _step_until_audit(monkeypatch, "run_auction", wrapper, raw, "pas-afl", r"DO 0 admitted 5 > cap 2$")


def test_arrivals_audit_catches_routing_past_the_receivers_headroom(monkeypatch):
    def wrapper(real):
        def roomier(n, queue, decisions, asked, quotes, prices, capacity_left, *args):
            return real(n, queue, decisions, asked, quotes, prices, capacity_left + 100, *args)
        return roomier

    raw = {**DELEGATING, "do_params": {"kappa_hat": [2, 2]}}
    _step_until_audit(
        monkeypatch, "route_subdelegations", wrapper, raw, "lin-greedy", r"DO 1 total arrivals exceed kappa_max - 1$"
    )


def _backdate(outcome):
    outcome.incoming["arrival"][0] = -1  # older than any task its delegate already holds


def test_queue_order_audit_catches_a_backdated_delegated_task(monkeypatch):
    _step_until_tampered(
        monkeypatch, "route_subdelegations", _backdate, "lin-greedy",
        r"DO \d+ holds task \d+ \(arrival -1\) queued behind DO \d+'s task \d+ \(arrival \d+\)",
    )


@pytest.mark.parametrize(
    "field, value",
    [("rep_threshold_r_min", 2.0), ("unit_cost_c", -1.0), ("alignment_epsilon", -1.0)],
)
def test_corrupted_state_column_is_named(field, value):
    cfg = resolve_config({"n_dos": 10, "horizon_T": 3, "seeds": [1]})
    world = build_world(cfg, 1, policy_override="pas-afl")
    step(world)
    world.states[field][3] = value
    with pytest.raises(MarketInvariantError, match=f"DO 3 invalid state after step: {field}"):
        step(world)


def test_corrupted_task_payment_is_named():
    cfg = resolve_config({"n_dos": 10, "horizon_T": 3, "seeds": [1]})
    world = build_world(cfg, 1, policy_override="pas-afl")
    step(world)
    world.queue["payment"] = 0.0
    with pytest.raises(MarketInvariantError, match="holds task .* paying 0.0"):
        step(world)
