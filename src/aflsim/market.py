"""Per-step market engine: trust-graph sampling, bidders, auction clearing, task routing.

One simulation step runs a fixed pipeline:

  1. after each DO's work, snapshot mean neighbour prices (reused while the
     posted prices repeat), each DO's goal and, where it is positive, delegate
     eligibility with the quotes behind it: each asked DO's trusted neighbours
     cheap enough to take its best task,
  2. every data owner decides jointly against that snapshot: the rules that
     draw nothing as whole arrays, then one call per DO for its own draws
     (on its `OwnerConstants`); a price that is not finite stops the step,
  3. the auction clears model-user requests at posted prices,
  4. sub-delegations route over the delegators' quotes from step 1, never
     the trust graph again (tasks land next step),
  5. work completes pending tasks oldest-first,
  6. the two virtual queues advance,
  7. reputations and rating counts update from on-time completions,
  8. the step's metrics are emitted, one array per CSV column.

The world holds its state as numpy columns: a `STATE` record per data owner
and one `TASK` array of every pending task, grouped by owner in FIFO order.
Records move whole, by np.take, np.compress and joins of raw-byte views, as
fancy indexing, masks and np.concatenate copy them one field at a time.
Each phase is a whole-array pass around at most one irreducible per-element
operation: each DO's decision draws and, in demand-model arrivals, the
Poisson draw per accepting DO (each on that DO's own generator), and the walk
over the tasks each delegator moves, since each transfer uses up capacity the
next one sees.  The auction's bidders walk side by side, one per matrix row:
a random bidder in its drawn permutation, the others by one unstable sort of
their keys, sorted again stably only in a row whose keys tie.  Everything is
deterministic given the scenario seed.  Audits (task conservation, admission
caps, state invariants, delegation depth, queue order, and the payment
ledgers against admitted and moved task counts, bids, budgets and carried
payments) run every step and raise immediately on violation.

The rules and the MU walk assume a resolved config and audited state, as
`resolve_config` and the audits own those checks.  The step keeps four more: `update_reputation`'s on-time
count against the count due (its clamp would hide the fault), a backstop on
a price that is not finite, routing's refusal of a delegator not asked, and
work planned beyond the tasks routing left a DO.

The six model-user bidding strategies are parameterized stand-ins: each gets
a distinct target ordering and bid shape, and every data-owner policy in a
comparison faces the identical bidder population and random streams.
"""

import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    STATE,
    TASK,
    OwnerConstants,
    StepDecision,
    TrustNetwork,
    sequential_sum,
    validate_states,
)
from .demand import expected_demand, realize_demand, zeta
from .policy_baselines import POLICIES, decide_for_policy, price_lin
from .policy_pas import (
    decide_acceptance,
    decide_price,
    decide_subdelegation,
    decide_work,
    eligible_delegates,
    price_is_degenerate,
    subdelegation_cap,
)
from .queues import update_pending_queue, update_urgency_queue, utility

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .config import MuParams, ScenarioConfig

# Child-seed tags so each random stream is independent of the others.
_STREAM_GRAPH = 1
_STREAM_DO_PARAMS = 2
_STREAM_MU = 3
_STREAM_POLICY = 4
_STREAM_DEMAND = 5

# The largest mean numpy's Generator.poisson accepts.
_POISSON_LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10

# One payment per row: who paid whom how much, and the offer the amount must
# not exceed.  For an auction payment the offer is the model user's bid; for a
# sub-delegation it is the payment of the task handed on.  The demand model
# pays with payer -1 and offers exactly the posted price.
LEDGER = np.dtype([("payer", np.intp), ("payee", np.intp), ("amount", float), ("offer", float)])


class MarketInvariantError(RuntimeError):
    """A step-level audit (conservation, caps, state validity) failed."""


def generate_trust_network(n_dos: int, edge_prob: float, rng) -> TrustNetwork:
    """Erdos-Renyi graph: each unordered pair connected independently."""
    # One draw per pair (i, j), i < j, in row-major order: the order of
    # np.triu_indices, which is how a boolean mask fills its selected cells.
    adjacency = np.zeros((n_dos, n_dos), dtype=bool)
    adjacency[~np.tri(n_dos, dtype=bool)] = rng.random(n_dos * (n_dos - 1) // 2) < edge_prob
    adjacency |= adjacency.T
    return TrustNetwork(adjacency)


def _records(dtype: np.dtype, n: int, **columns) -> np.ndarray:
    """`n` records of `dtype`, each named column set from an array or a scalar."""
    rows = np.empty(n, dtype)
    for name, values in columns.items():
        rows[name] = values
    return rows


def _new_tasks(owner, payment, step_index: int, next_task_id: int) -> tuple[np.ndarray, int]:
    """Fresh undelegated tasks (TASK) for `owner`, paying `payment`, numbered
    from `next_task_id`; and the next free task id."""
    end = next_task_id + len(owner)
    ids = np.arange(next_task_id, end)
    return _records(TASK, len(owner), owner=owner, payment=payment, arrival=step_index, depth=0, id=ids), end


def _rank_within(keys: np.ndarray) -> np.ndarray:
    """For each element, how many earlier elements share its key."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    rank = np.empty(len(keys), np.intp)
    rank[order] = np.arange(len(keys)) - np.searchsorted(ranked, ranked)
    return rank


def _group_starts(owner: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(first row, row count) of each owner's group in an owner-grouped array."""
    counts = np.bincount(owner, minlength=n)
    return np.cumsum(counts) - counts, counts


def update_reputation(
    states: np.ndarray,
    completed_on_time: np.ndarray,
    due: np.ndarray,
    ema_beta: float,
    r_floor: float,
) -> tuple[np.ndarray, np.ndarray]:
    """EMA of the on-time completion ratio, weighting the old reputation by
    `ema_beta`; rating count grows with on-time work.  Elementwise over the
    DOs of `states`.

    Returns the new (reputation, positive_ratings) columns; reputation is
    clamped to [r_floor, 1] and left unchanged when nothing was due.
    """
    if np.any(completed_on_time > due):
        raise ValueError("completed_on_time cannot exceed due")
    reputation = states["reputation_r"]
    worked = due > 0
    ratio = np.divide(completed_on_time, due, out=np.zeros(np.shape(due)), where=worked)
    ema = ema_beta * reputation + (1.0 - ema_beta) * ratio
    new_r = np.minimum(1.0, np.maximum(r_floor, np.where(worked, ema, reputation)))
    return new_r, states["positive_ratings_Mp"] + completed_on_time


def settle(states, x, price, theta, s, kappa, delegated_in, on_time, avg_neighbor_price, ema_beta, r_floor):
    """One step's queues, utility and reputation for every DO of `states`.

    `theta` tasks were worked, `on_time` of them within the window, `s`
    delegated out and `delegated_in` received; `kappa` arrived from the
    market.  Returns the new columns (utility, pending_q, urgency_Q,
    reputation_r, positive_ratings_Mp).  Utility uses the decision-time
    reputation and the realized auction demand, and prices delegation at the
    snapshot neighbour mean.
    """
    q = states["pending_q"]
    # Urgency grows only when the step left backlog unserved; work that
    # clears the whole queue means nothing "remained incomplete".
    carried_over = q - theta - s > 0
    new_q = update_pending_queue(q, theta, s, x, kappa) + delegated_in
    new_Q = update_urgency_queue(states["urgency_Q"], theta, s, states["avg_demand_kappa_bar"], carried_over)
    u = utility(x, price, states["reputation_r"], kappa, avg_neighbor_price, s, states["unit_cost_c"], theta)
    return (u, new_q, new_Q, *update_reputation(states, on_time, theta, ema_beta, r_floor))


@dataclass
class AuctionOutcome:
    kappa: dict[int, int]     # admitted tasks per DO
    tasks: np.ndarray         # the admitted tasks (TASK), in clearing order
    payments: np.ndarray      # one LEDGER row per admitted task


def _mu_requests(valuations: np.ndarray, states: np.ndarray, price: np.ndarray, rngs, mu: "MuParams") -> np.ndarray:
    """Every MU's requests for the step as LEDGER rows, ordered by MU id and
    then by submission order, with the DO as payee and the bid as offer.  MU
    j bids by `mu.strategies[j]`, values the DOs at `valuations[j]` and draws
    from `rngs[j]`.

    Each MU walks its strategy-specific target order, skips nonpositive bids
    and stops once the next bid would push its total submitted bids past its
    per-step budget.  The walks run side by side, one MU per matrix row of
    bids in walk order, summed along the row.  A `random` MU's row is drawn
    in its permutation's order; every other MU sorts a key per DO, with ties
    by ascending DO id.
    """
    n = len(states)
    rep = states["reputation_r"]
    p_min = states["reserve_price_p_min"]
    reserve_keys = {"lin": p_min, "bmub": -rep, "fedbidder-simple": price}
    order, bids = np.empty(valuations.shape, np.intp), np.empty(valuations.shape)
    walked = {}  # row -> (generator, its state before the bids were drawn)
    keyed = []  # (row, sort key per DO, bid per DO) of each MU that sorts
    for j, (strategy, valuation) in enumerate(zip(mu.strategies, valuations)):
        if strategy == "random":
            # Bids are uniform on [0, valuation): valuation * rng.random() is
            # the value rng.uniform(0.0, valuation) returns, from the same
            # draw.  A bid is drawn for every DO; the draws the walk never
            # reaches are undone below.
            rng = rngs[j]
            order[j] = rng.permutation(n)
            walked[j] = rng, rng.bit_generator.state
            bids[j] = valuation[order[j]] * rng.random(n)
            continue
        if strategy == "greedy":
            key, bid = -rep / price, valuation
        elif strategy == "fedbidder-complex":
            key = -rep * valuation / price
            bid = np.minimum(mu.gains[strategy] * (0.5 + 0.5 * rep) * p_min, valuation)
        else:
            key, bid = reserve_keys[strategy], np.minimum(mu.gains[strategy] * p_min, valuation)
        keyed.append((j, key, bid))
    if keyed:
        # The default sort is not stable, so a row whose sorted keys are not
        # strictly increasing is sorted again stably: ties keep ascending DO id.
        rows, keys, by_do = map(np.array, zip(*keyed))
        at = np.arange(len(rows))[:, None]
        sorted_order = np.argsort(keys, axis=1)
        ranked = keys[at, sorted_order]
        tied = ~np.all(ranked[:, 1:] > ranked[:, :-1], axis=1)
        sorted_order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
        order[rows] = sorted_order
        bids[rows] = by_do[at, sorted_order]

    # A walk adds its positive bids in order, as cumsum does, and stops at
    # the first that overshoots the budget.
    positive = bids > 0.0
    submitted = np.cumsum(np.where(positive, bids, 0.0), axis=1)
    over = positive & (submitted > mu.budget_per_step)
    sent = positive & ~over
    for j, (rng, state) in walked.items():
        # Rewind, then draw as many values as the walk used: through the
        # overshooting bid, or all of them.
        rng.bit_generator.state = state
        rng.random(over[j].argmax() + 1 if over[j].any() else n)

    payer = np.repeat(np.arange(len(valuations)), np.count_nonzero(sent, axis=1))
    return _records(LEDGER, len(payer), payer=payer, payee=order[sent], amount=0.0, offer=bids[sent])


def run_auction(
    valuations: np.ndarray,
    states: np.ndarray,
    price: np.ndarray,
    accept: np.ndarray,
    mu_rngs,
    step_index: int,
    next_task_id: int,
    mu: "MuParams",
) -> tuple[AuctionOutcome, int]:
    """Clear one step of the posted-price auction.

    Requests clear in (bid descending, MU id ascending, submission order)
    until each accepting DO reaches its admission cap; cleared tasks pay the
    DO's posted price for the step.  A request clears iff its DO accepts,
    its bid meets the price, and fewer earlier such requests than the DO's
    cap went to that DO.
    """
    requests = _mu_requests(valuations, states, price, mu_rngs, mu)
    requests = np.take(requests, np.argsort(-requests["offer"], kind="stable"))
    do = requests["payee"]
    requests = np.compress((accept[do] == 1) & (requests["offer"] >= price[do]), requests)
    cap = np.minimum(states["theta_max"], states["kappa_max"] - 1)
    cleared = np.compress(_rank_within(requests["payee"]) < cap[requests["payee"]], requests)
    cleared["amount"] = price[cleared["payee"]]

    tasks, next_task_id = _new_tasks(cleared["payee"], cleared["amount"], step_index, next_task_id)
    kappa = np.bincount(cleared["payee"], minlength=len(states))
    return AuctionOutcome(kappa=dict(enumerate(kappa.tolist())), tasks=tasks, payments=cleared), next_task_id


@dataclass
class RoutingOutcome:
    moved: np.ndarray                 # queue rows of the tasks moved out
    incoming: np.ndarray              # the moved tasks (TASK) as their delegates hold them
    s_realized: dict[int, int]        # tasks actually moved out per delegator
    payments: np.ndarray              # one LEDGER row per moved task


def route_subdelegations(
    n: int,
    queue: np.ndarray,
    decisions: dict[int, StepDecision],
    asked: np.ndarray,
    quotes: np.ndarray,
    prices: np.ndarray,
    capacity_left: np.ndarray,
    depth_max: int,
    step_index: int,
) -> RoutingOutcome:
    """Move each delegator's highest-payment tasks to the neighbours it was quoted.

    `quotes` holds the step's `eligible_delegates` row of each DO in `asked`
    (ascending): the ids of its neighbours trusted enough and no dearer than
    its best task below the depth cap, else -1.  A goal needs an eligible
    delegate, so a delegator without a row is a MarketInvariantError.
    Delegates are chosen cheapest-first (ties by id) at the snapshot prices
    the decisions saw; the delegator pays that price per task.  Transfers stop
    early once a task finds no quoted delegate with room at a price within its
    payment.  Transferred tasks join the delegate's queue as arrivals next step
    with their payment rewritten to what the delegate was paid.  `capacity_left`
    is each of the `n` DOs' room for tasks delegated to it this step.

    Each walk is set up from its delegator's own rows: its tasks, cut to its
    goal, and its quoted neighbours with room.  Only the walk stays in
    Python, as each transfer uses up capacity the next one sees; capacity
    only falls, so a pointer skips the full neighbours.
    """
    s_realized = dict.fromkeys(range(n), 0)
    moved, delegates = [], []
    goals = {do_id: d.subdelegate_s for do_id, d in decisions.items() if d.subdelegate_s > 0}
    if goals:
        delegators = np.fromiter(goals, dtype=np.intp, count=len(goals))
        quote_row = np.searchsorted(asked, delegators)
        _check(
            np.append(asked, -1)[quote_row] != delegators,
            lambda k: f"DO {delegators[k]} at step {step_index} delegates without being asked for quotes",
        )
        goal = np.zeros(n, dtype=np.intp)
        goal[delegators] = list(goals.values())
        # Every delegator's tasks below the depth cap, best-paying first, ties
        # by id, cut to the goal it walks: three sorts, each stable after the
        # first, as ids are unique; the last by radix on 16-bit or narrower ids.
        owner = queue["owner"]
        rows = np.flatnonzero((goal[owner] > 0) & (queue["depth"] < depth_max))
        rows = rows[np.argsort(queue["id"][rows])]
        rows = rows[np.argsort(-queue["payment"][rows], kind="stable")]
        rows = rows[np.argsort(owner[rows].astype(np.min_scalar_type(n)), kind="stable")]
        first = _group_starts(owner[rows], n)[0]
        rows = rows[np.arange(len(rows)) - first[owner[rows]] < goal[owner[rows]]]
        task_first, task_count = (column[delegators] for column in _group_starts(owner[rows], n))
        # Their quoted neighbours with room, cheapest first, ties by id, as
        # slices of one flat list: each quote row sorted by price rank, where
        # rank n (a DO without room, or the -1 padding) is left out.
        by_price = np.argsort(prices, kind="stable")
        price_rank = np.full(n + 1, n)
        price_rank[by_price] = np.where(capacity_left[by_price] > 0, np.arange(n), n)
        rank = np.sort(price_rank[quotes[quote_row]], axis=1)
        listed = rank < n
        neighbours = by_price[rank[listed]].tolist()
        neighbour_count = listed.sum(axis=1)
        neighbour_first = np.cumsum(neighbour_count) - neighbour_count

        capacity = capacity_left.tolist()
        price_of = prices.tolist()
        candidates = rows.tolist()
        candidate_pay = queue["payment"][rows].tolist()
        walks = zip(
            delegators.tolist(),
            task_first.tolist(),
            (task_first + task_count).tolist(),
            neighbour_first.tolist(),
            (neighbour_first + neighbour_count).tolist(),
        )
        for do_id, first, end, at, last in walks:
            k = first
            while k < end:
                while at < last and capacity[neighbours[at]] <= 0:
                    at += 1
                if at == last or price_of[neighbours[at]] > candidate_pay[k]:
                    break
                delegates.append(neighbours[at])
                capacity[neighbours[at]] -= 1
                k += 1
            moved += candidates[first:k]
            s_realized[do_id] = k - first

    moved = np.array(moved, dtype=np.intp)
    delegates = np.array(delegates, dtype=np.intp)
    paid = prices[delegates]
    carried = np.take(queue, moved)
    incoming = _records(
        TASK,
        len(moved),
        owner=delegates,
        payment=paid,
        arrival=step_index + 1,
        depth=carried["depth"] + 1,
        id=carried["id"],
    )
    payments = _records(
        LEDGER, len(moved), payer=carried["owner"], payee=delegates, amount=paid, offer=carried["payment"]
    )
    return RoutingOutcome(moved=moved, incoming=incoming, s_realized=s_realized, payments=payments)


# The STATE columns `World._build_data_owners` samples, in drawing order.
_DRAWN_COLUMNS = (
    "reserve_price_p_min",
    "unit_cost_c",
    "availability_rho",
    "reputation_r",
    "rep_threshold_r_min",
    "theta_max",
    "s_max",
    "kappa_max",
    "alignment_epsilon",
    "positive_ratings_Mp",
    "pending_q",
    "data_size",
)
# The float draws among them; the others are integer draws.
_FLOAT_COLUMNS = frozenset(_DRAWN_COLUMNS[:5] + ("alignment_epsilon",))
_Q0 = _DRAWN_COLUMNS.index("pending_q")

# How numpy's Generator reads its PCG64 stream of raw 64-bit outputs, for the
# draws the decoder takes.  A float draw takes a fresh raw.  An integer draw
# over a span from 1 to 2**32 - 1 takes a 32-bit half-word: the buffered one
# if there is one, else the low half of a fresh raw, whose high half it
# buffers (float draws leave the buffer alone).  A span of 0 takes nothing.
# An integer draw is Lemire's: the high half of word * (span + 1), drawn again
# while the low half falls below (2**32 - span - 1) % (span + 1).  A wider
# span, or a word numpy would draw again, is left to numpy's own calls.
_FLOAT = "float"
_HALF = "half"
_MASK32 = 2**32 - 1
_PRE = -1  # in a DO's pattern of sources: the half-word buffered when it starts


def _draw_sources(kinds, buf: int) -> tuple[list[int], int, int]:
    """Where one DO's draws of `kinds` read the stream when they start at raw
    0 with half-word `buf` buffered (`_PRE`, or 0 for none): a half-word
    index per draw (twice its raw's index, plus 1 for a high half; 0 for no
    draw), then its raw count and the half-word it leaves buffered."""
    sources, s = [], 0
    for kind in kinds:
        h = 0
        if kind == _FLOAT:
            h, s = 2 * s, s + 1
        elif kind == _HALF and buf:
            h, buf = buf, 0
        elif kind == _HALF:
            h, buf, s = 2 * s, 2 * s + 1, s + 1
        sources.append(h)
    return sources, s, buf


def _decode(kind, lo, hi, raws: np.ndarray, h: np.ndarray) -> np.ndarray | None:
    """Each DO's draw of `kind` over [lo, hi] read at its half-word h; None
    if numpy would draw any of them again.  Over a span of 0 any word gives lo."""
    raw = raws[h >> 1]
    if kind == _FLOAT:
        return lo + (hi - lo) * ((raw >> 11) * 2**-53)
    factor = hi - lo + 1
    product = np.where(h & 1, raw >> 32, raw & _MASK32) * np.uint64(factor)
    if np.any((product & _MASK32) < (2**32 - factor) % factor):
        return None
    return lo + (product >> 32).astype(np.int64)


def _decode_data_owners(bit_generator, ranges, n: int, markup) -> tuple[list, np.ndarray] | None:
    """Every DO's draws over `ranges` (one column each) and its q0 payment
    markups over `markup` (in DO order), decoded from the generator's raw
    outputs; None if numpy reads any of them otherwise."""
    kinds = [_FLOAT if name in _FLOAT_COLUMNS else _HALF if hi > lo else None for name, (lo, hi) in zip(_DRAWN_COLUMNS, ranges)]
    if any(kind == _HALF and hi - lo > _MASK32 for kind, (lo, hi) in zip(kinds, ranges)):
        return None
    q0_lo, q0_hi = ranges[_Q0]
    # The sources relative to a DO's first raw, its raw count before its
    # payments and the half-word it leaves buffered: without one buffered
    # when it starts, and with one, as DOs alternate when an odd count of
    # draws read half-words.
    patterns = [_draw_sources(kinds, buf) for buf in (0, _PRE)]
    raws = bit_generator.random_raw(n * max(pattern[1] for pattern in patterns) + n * q0_lo)

    def reserve(size: int) -> None:
        # Draw on to at least `size` raws, at least doubling, so extensions stay few.
        nonlocal raws
        if size > len(raws):
            raws = np.concatenate((raws, bit_generator.random_raw(max(size - len(raws), len(raws)))))

    def q0_at(h: int) -> int:
        reserve((h >> 1) + 1)
        raw = int(raws[h >> 1])
        return q0_lo + ((raw >> 32 if h & 1 else raw & _MASK32) * (q0_hi - q0_lo + 1) >> 32)

    starts, bufs, pays = [], [], []
    s = buf = 0
    for _ in range(n):
        sources, count, end = patterns[buf != 0]
        h = sources[_Q0]
        q0 = q0_at(buf if h == _PRE else 2 * s + h)
        starts.append(s)
        bufs.append(buf)
        pays.append(s + count)
        buf = 2 * s + end if end else 0
        s += count + q0
    reserve(s)
    starts, bufs = np.array(starts), np.array(bufs)
    rel = np.array([pattern[0] for pattern in patterns])[(bufs != 0).astype(np.intp)]
    src = np.where(rel == _PRE, bufs[:, None], 2 * starts[:, None] + rel)
    columns = [_decode(kind, lo, hi, raws, src[:, k]) for k, (kind, (lo, hi)) in enumerate(zip(kinds, ranges))]
    if any(column is None for column in columns):
        return None

    q0 = columns[_Q0].astype(np.intp)
    offsets = np.arange(q0.sum()) - np.repeat(np.cumsum(q0) - q0 - np.array(pays), q0)
    return columns, _decode(_FLOAT, *markup, raws, 2 * offsets)


def _draw_data_owners(rng, ranges, n: int, markup) -> tuple[list, np.ndarray]:
    """What `_decode_data_owners` decodes, drawn by numpy's own calls on
    `rng`, one DO at a time."""
    rows, markups = [], []
    for _ in range(n):
        row = [
            rng.uniform(lo, hi) if name in _FLOAT_COLUMNS else rng.integers(lo, hi + 1)
            for name, (lo, hi) in zip(_DRAWN_COLUMNS, ranges)
        ]
        markups.append(rng.uniform(*markup, size=row[_Q0]))
        rows.append(row)
    return list(zip(*rows)), np.concatenate(markups)


class World:
    """Mutable simulation state for one seeded run."""

    def __init__(self, config: "ScenarioConfig", seed: int, policy_override: str | None = None):
        self.config = config
        self.t = 0
        n = config.n_dos
        self.ids = np.arange(n)

        self.network = generate_trust_network(
            n, config.trust_edge_prob, np.random.default_rng([seed, _STREAM_GRAPH])
        )
        self._adj = self.network.adjacency.astype(float)
        self._deg = self._adj.sum(axis=1)
        # The last mean neighbour price and the bytes of the prices it was taken at.
        self._avg_prices, self._avg = None, None

        self._build_data_owners(np.random.default_rng([seed, _STREAM_DO_PARAMS]))
        # What each DO's decide_for_policy call reads, fixed for the run; tuple.__new__ skips a Python call per DO.
        owners = zip(self.ids.tolist(), self.states["reserve_price_p_min"].tolist())
        self.owners = list(map(tuple.__new__, repeat(OwnerConstants), owners))
        self.created_tasks = len(self.queue)
        self.completed_tasks = 0
        self.kappa_sum = np.zeros(n)

        # MU j of `config.mu.strategies` values every DO at a markup on its
        # reserve, scaled by its data size: row j of `valuations`.
        ds_lo, ds_hi = config.data_size_range
        data_factor = 0.9 + 0.2 * (self.states["data_size"] - ds_lo) / max(ds_hi - ds_lo, 1)
        n_mus = len(config.mu.strategies)
        markups = [
            np.random.default_rng([seed, _STREAM_MU, j]).uniform(*config.mu.valuation_markup, size=n)
            for j in range(n_mus)
        ]
        self.valuations = np.reshape(markups, (n_mus, n)) * self.states["reserve_price_p_min"] * data_factor
        self.mu_rngs = [np.random.default_rng([seed, _STREAM_MU, j, 1000]) for j in range(n_mus)]
        names = [policy_override or config.policy_name_for(i) for i in range(n)]
        self.policy_specs = [POLICIES[name] for name in names]
        # Which DOs' sub-delegation, price and acceptance follow the joint policy's rules.
        self._threshold_rule, self._lyapunov_price, self._lyapunov_accept = np.array([
            [spec.subdel_rule == "threshold" for spec in self.policy_specs],
            [spec.price_rule == "lyapunov" for spec in self.policy_specs],
            [spec.accept_rule == "lyapunov" for spec in self.policy_specs],
        ])
        # Generators are built only for the streams a run draws from; each is
        # seeded per DO, so which others exist changes none of its numbers.
        self.policy_rngs = [
            np.random.default_rng([seed, _STREAM_POLICY, i]) if spec.draws else None
            for i, spec in enumerate(self.policy_specs)
        ]
        self.demand_rngs = None
        if config.market.arrival_mode == "demand-model":
            self.demand_rngs = [np.random.default_rng([seed, _STREAM_DEMAND, i]) for i in range(n)]

        self.audit_checks = 0
        self.degenerate_price_steps = 0
        self.utility_sum = 0.0
        self.price_sum = 0.0
        self.backlog_sum = 0.0
        self.accept_count = 0

    def _build_data_owners(self, rng) -> None:
        """Sample every DO's parameters and initial backlog: the numbers that
        drawing them one DO at a time on `rng` gives, in this order per DO,

            p_min, unit_cost_frac, rho, r0, r_min     rng.uniform(lo, hi) each
            theta_max, s_max, kappa_hat               rng.integers(lo, hi + 1) each
            epsilon                                   rng.uniform(lo, hi)
            m_positive, q0, data_size                 rng.integers(lo, hi + 1) each
            q0 task payments                          rng.uniform(lo, hi, size=q0) * p_min

        decoded from one block of the generator's raw outputs.  Where a DO's
        draws sit in the block follows from where the last DO's ended, the
        half-word it left buffered and its q0, so one walk reads each q0 and
        every column is a gather.  An integer span above 2**32 - 1, or a word
        numpy would draw again, hands the whole world to those calls instead,
        from the generator's state on entry.
        """
        cfg, do, n = self.config, self.config.do_params, self.config.n_dos
        ranges = (
            do.p_min, do.unit_cost_frac, do.rho, do.r0, do.r_min, do.theta_max, do.s_max,
            do.kappa_hat, do.epsilon, do.m_positive, do.q0, cfg.data_size_range,
        )
        entry = rng.bit_generator.state
        drawn = _decode_data_owners(rng.bit_generator, ranges, n, do.q0_payment_markup)
        if drawn is None:
            rng.bit_generator.state = entry
            drawn = _draw_data_owners(rng, ranges, n, do.q0_payment_markup)
        columns, markups = drawn

        states = np.zeros(n, STATE)
        for name, values in zip(_DRAWN_COLUMNS, columns):
            states[name] = values
        states["unit_cost_c"] *= states["reserve_price_p_min"]
        states["avg_demand_kappa_bar"] = cfg.market.kappa_bar_prior
        states["current_price_p"] = states["reserve_price_p_min"]
        self.states = states
        self.rho_base = states["availability_rho"].copy()  # the schedule starts high

        owner = np.repeat(self.ids, states["pending_q"].astype(np.intp))
        self.queue, self.next_task_id = _new_tasks(owner, markups * states["reserve_price_p_min"][owner], 0, 0)

    def _rho_scale(self, t: int) -> float:
        """The availability schedule's factor on every DO's base at step t."""
        schedule = self.config.do_params.rho_schedule
        if schedule["kind"] == "square" and (t // schedule["period"]) % 2 == 1:
            return schedule["low_scale"]
        return 1.0

    @cached_property
    def _neighbour_ids(self) -> np.ndarray:
        """Row i: DO i's neighbour ids, ascending, padded with -1; built row by row on the first ask for quotes."""
        table = np.full((len(self._deg), int(self._deg.max(initial=0))), -1, np.min_scalar_type(-len(self._deg)))
        for row, ids in zip(table, map(np.flatnonzero, self.network.adjacency)):
            row[: len(ids)] = ids
        return table

    def _build_contexts(self, prices: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, ...]:
        """Every DO's mean neighbour price (inf without neighbours), its goal
        after `theta` tasks of work were a delegate eligible, whether a
        neighbour could take its best-paying task below the depth cap, and
        the quotes that answer rests on: the DOs asked (ascending ids) and
        `eligible_delegates`' ids of their neighbours that could (-1 padded).

        The mean is read-only, and taken again only when a byte of `prices`
        differs from the last prices: posted prices often repeat, and the graph
        is fixed.  Only a DO whose goal is positive is asked; the others read
        False.  Routing walks the asked DOs' quote rows, as the queue and the
        reputations the quotes read are unchanged until the step commits.
        """
        states = self.states
        n = len(states)
        key = prices.tobytes()
        if key != self._avg_prices:
            self._avg = np.divide(self._adj @ prices, self._deg, out=np.full(n, math.inf), where=self._deg > 0)
            self._avg.flags.writeable = False
            self._avg_prices = key
        avg = self._avg

        cap = subdelegation_cap(states, theta)
        goal = np.where(self._threshold_rule, decide_subdelegation(states, avg, cap), cap)
        queue = self.queue
        routable = queue["depth"] < self.config.market.delegation_depth_max
        best = np.full(n, -math.inf)
        np.maximum.at(best, queue["owner"][routable], queue["payment"][routable])
        asked = np.flatnonzero((goal > 0) & (best > -math.inf))

        rows = self._neighbour_ids[asked] if asked.size else np.empty((0, 0), np.intp)
        quotes = eligible_delegates(rows, prices, states["reputation_r"], best[asked], states["rep_threshold_r_min"][asked])
        eligible = np.zeros(n, dtype=bool)
        eligible[asked] = (quotes >= 0).any(axis=1)
        return avg, goal, eligible, asked, quotes


def _expected_demand(world: World, rows: np.ndarray, price: np.ndarray) -> np.ndarray:
    """The expected demand of the DOs `rows` at their posted prices; inf for
    a DO whose mean overflows or divides by zero on the way."""
    cfg = world.config
    c = cfg.constants
    s = world.states

    def mean(which):
        multiplier = zeta(c, s["alignment_epsilon"][which], s["positive_ratings_Mp"][which])
        return expected_demand(price[which], s["reputation_r"][which], multiplier, c.a1, cfg.market.r_floor)

    try:
        return mean(rows)
    except (OverflowError, ZeroDivisionError):
        # Some mean cannot be evaluated; find which, one DO at a time.
        f = np.full(len(rows), math.inf)
        for k in range(len(rows)):
            with suppress(OverflowError, ZeroDivisionError):
                f[k] = mean(rows[k : k + 1])[0]
        return f


def _demand_model_arrivals(world: World, price: np.ndarray, accept: np.ndarray) -> tuple[AuctionOutcome, int]:
    """Synthetic arrival source replacing the bidders: integer draws around
    the expected-demand curve, paid at the posted price.

    Every accepting DO's mean, its check and its clamps are whole arrays; what
    runs per DO is only the Poisson draw on that DO's own generator.  A mean
    that overflows, is not finite, or (for Poisson draws) exceeds what numpy
    can draw is a MarketInvariantError naming the first such DO and the step,
    raised before anything is drawn.
    """
    cfg = world.config
    mode = cfg.market.integerization
    limit = _POISSON_LAM_MAX if mode == "poisson" else sys.float_info.max
    s = world.states
    accepting = accept == 1
    rows = np.flatnonzero(accepting)
    f = _expected_demand(world, rows, price)
    _check(
        ~(f <= limit),
        lambda k: f"DO {rows[k]} at step {world.t}: expected demand {f[k]} is not a mean a {mode} draw can take",
    )
    rngs = compress(world.demand_rngs, accepting.tolist())
    admitted = np.zeros(len(s), dtype=np.intp)
    admitted[rows] = np.minimum(realize_demand(f, s["kappa_max"][rows], rngs, mode), s["theta_max"][rows])

    owner = np.repeat(world.ids, admitted)
    tasks, next_task_id = _new_tasks(owner, price[owner], world.t, world.next_task_id)
    payments = _records(LEDGER, len(owner), payer=-1, payee=owner, amount=price[owner], offer=price[owner])
    return AuctionOutcome(kappa=dict(enumerate(admitted.tolist())), tasks=tasks, payments=payments), next_task_id


def step(world: World) -> dict[str, np.ndarray]:
    """Advance the world one step and return its metrics, one array per CSV column."""
    cfg = world.config
    t = world.t
    states = world.states
    n = len(states)

    # 1. Snapshot the decision inputs after work; policies must only see last step's market.
    policy = cfg.policy
    theta = decide_work(states, policy.work_mode)
    prices = states["current_price_p"].copy()
    avg, goal, eligible, asked, quotes = world._build_contexts(prices, theta)

    # 2. Joint decisions.  The rules that draw nothing run as whole arrays:
    # the snapshot's goal where a delegate is eligible, and the Lyapunov or linear price.
    s_goal = np.where(eligible, goal, 0)
    degenerate = world._lyapunov_price & price_is_degenerate(states, cfg.market.r_floor)
    price = np.where(world._lyapunov_price, decide_price(states, degenerate), price_lin(states, policy.lin_gain))
    world.degenerate_price_steps += int(np.count_nonzero(degenerate))
    # Then one call per DO replaces a random rule's value with draws from the
    # DO's own generator.  Acceptance reads the price posted.
    decisions = dict(enumerate(map(
        decide_for_policy, world.policy_specs, world.owners, s_goal.tolist(), price.tolist(),
        world.policy_rngs, repeat(policy.markup_max),
    )))
    price = np.fromiter(map(attrgetter("price_p"), decisions.values()), float, count=n)
    _check(~np.isfinite(price), lambda i: f"DO {i} at step {t} posted a price of {price[i]}, which is not finite")
    s_goal = np.fromiter(map(attrgetter("subdelegate_s"), decisions.values()), np.intp, count=n)
    x = np.where(world._lyapunov_accept, decide_acceptance(states, price), 1)

    # 3. Post the fresh prices; these are the asks the auction clears against.
    states["current_price_p"] = price

    # 4. Arrivals.
    if cfg.market.arrival_mode == "auction":
        auction, world.next_task_id = run_auction(
            world.valuations, states, price, x, world.mu_rngs, t, world.next_task_id, cfg.mu
        )
    else:
        auction, world.next_task_id = _demand_model_arrivals(world, price, x)
    kappa = np.fromiter(auction.kappa.values(), dtype=np.intp, count=n)
    world.created_tasks += int(kappa.sum())

    # 5. Sub-delegation routing over the snapshot's quotes, capped by each
    # receiver's arrival headroom.
    capacity_left = (states["kappa_max"] - 1) - kappa
    routing = route_subdelegations(
        n,
        world.queue,
        decisions,
        asked,
        quotes,
        prices,
        capacity_left,
        cfg.market.delegation_depth_max,
        t,
    )

    # 6. Work: each DO completes the front of what routing left it.
    kept = np.ones(len(world.queue), dtype=bool)
    kept[routing.moved] = False
    queue = np.compress(kept, world.queue)
    starts, counts = _group_starts(queue["owner"], n)
    short = np.flatnonzero(theta > counts)
    if short.size:
        i = short[0]
        raise MarketInvariantError(f"DO {i} planned {theta[i]} completions with only {counts[i]} pending")
    owner = queue["owner"]
    worked = np.arange(len(queue)) - starts[owner] < theta[owner]
    in_window = t - queue["arrival"] <= cfg.reputation.on_time_window
    on_time = np.bincount(owner[worked & in_window], minlength=n)
    world.completed_tasks += int(theta.sum())

    # 7. Queues, utility and reputation.
    s_done = np.fromiter(routing.s_realized.values(), dtype=np.intp, count=n)
    delegated_in = np.bincount(routing.incoming["owner"], minlength=n)
    u, new_q, new_Q, new_r, new_mp = settle(
        states, x, price, theta, s_done, kappa, delegated_in, on_time,
        avg, cfg.reputation.ema_beta, cfg.market.r_floor,
    )
    arrivals_total = x * kappa + delegated_in

    # 8. Commit: survivors, then auction arrivals, then delegated tasks, as raw bytes.
    parts = (np.compress(~worked, queue), auction.tasks, routing.incoming)
    queue = np.concatenate([part.view((np.void, TASK.itemsize)) for part in parts]).view(TASK)
    del parts  # the survivors' copy need not outlive the join
    world.queue = np.take(queue, np.argsort(queue["owner"], kind="stable"))
    states["pending_q"] = new_q
    states["urgency_Q"] = new_Q
    states["reputation_r"] = new_r
    states["positive_ratings_Mp"] = new_mp
    world.kappa_sum += arrivals_total
    states["avg_demand_kappa_bar"] = world.kappa_sum / (t + 1)
    states["availability_rho"] = world.rho_base * world._rho_scale(t + 1)

    world.utility_sum = sequential_sum(u, world.utility_sum)
    world.price_sum = sequential_sum(price, world.price_sum)
    world.backlog_sum = sequential_sum(new_q, world.backlog_sum)
    world.accept_count += int(x.sum())

    _run_step_audits(world, auction, routing, price, s_goal, kappa, s_done, delegated_in)

    world.t += 1
    return {
        "step": np.full(n, t),
        "do_id": world.ids,
        "utility_u": u,
        "pending_q": new_q,
        "urgency_Q": new_Q,
        "accepted_kappa": arrivals_total,
        "completed_theta": theta,
        "subdelegated_s": s_done,
        "price_p": price,
        "reputation_r": new_r,
    }


def _check(bad: np.ndarray, message) -> None:
    """Raise MarketInvariantError with `message(i)` for the first index i where `bad` holds."""
    hits = np.flatnonzero(bad)
    if hits.size:
        raise MarketInvariantError(message(int(hits[0])))


def _run_step_audits(
    world: World,
    auction: AuctionOutcome,
    routing: RoutingOutcome,
    price: np.ndarray,
    s_goal: np.ndarray,
    kappa: np.ndarray,
    s_done: np.ndarray,
    received: np.ndarray,
) -> None:
    """Check the step's ledgers, caps and queues against `kappa`, `s_done` and
    `received`, the per-DO admitted, delegated and received task counts that
    `step` read from the outcomes."""
    states = world.states
    queue = world.queue
    n = len(states)
    pending = len(queue)
    if world.created_tasks != world.completed_tasks + pending:
        raise MarketInvariantError(
            f"task conservation broken at step {world.t}: created={world.created_tasks} "
            f"completed={world.completed_tasks} pending={pending}"
        )

    # The payment ledgers are checked against the admitted and moved task
    # counts, which the ledgers are not summed from, and against the offers.
    paid = auction.payments
    payee, amount, bid = paid["payee"], paid["amount"], paid["offer"]
    _check(amount != price[payee], lambda j: f"DO {payee[j]} was paid {amount[j]} for a task posted at {price[payee[j]]}")
    _check(bid < price[payee], lambda j: f"DO {payee[j]} cleared a bid of {bid[j]} below its posted price {price[payee[j]]}")
    by_mu = paid["payer"] >= 0
    spend = np.bincount(paid["payer"][by_mu], weights=amount[by_mu], minlength=len(world.valuations))
    budget = world.config.mu.budget_per_step
    _check(spend > budget, lambda j: f"MU {j} spent {spend[j]} over its budget {budget}")

    auction_paid = np.bincount(payee, minlength=n)
    _check(auction_paid != kappa, lambda i: f"DO {i} has {auction_paid[i]} payments for {kappa[i]} admitted tasks")

    moved = routing.payments
    made = np.bincount(moved["payer"], minlength=n)
    got = np.bincount(moved["payee"], minlength=n)
    _check(made != s_done, lambda i: f"DO {i} made {made[i]} payments for {s_done[i]} delegated tasks")
    _check(got != received, lambda i: f"DO {i} got {got[i]} payments for {received[i]} received tasks")
    _check(
        moved["amount"] > moved["offer"],
        lambda j: f"DO {moved['payer'][j]} paid {moved['amount'][j]} to delegate a task paying {moved['offer'][j]}",
    )
    _check(s_done > s_goal, lambda i: f"DO {i} routed more tasks than it decided to delegate")

    cap = np.minimum(states["theta_max"], states["kappa_max"] - 1)
    _check(kappa > cap, lambda i: f"DO {i} admitted {kappa[i]} > cap {cap[i]}")
    _check(kappa + received > states["kappa_max"] - 1, lambda i: f"DO {i} total arrivals exceed kappa_max - 1")

    # Work, routing and the commit take each owner's tasks as one FIFO group.
    owner, arrival, ids = queue["owner"], queue["arrival"], queue["id"]
    _check(
        (owner[1:] < owner[:-1]) | ((owner[1:] == owner[:-1]) & (arrival[1:] < arrival[:-1])),
        lambda j: f"DO {owner[j + 1]} holds task {ids[j + 1]} (arrival {arrival[j + 1]}) queued behind "
        f"DO {owner[j]}'s task {ids[j]} (arrival {arrival[j]})",
    )
    held = np.bincount(owner, minlength=n)
    _check(
        states["pending_q"] != held,
        lambda i: f"DO {i} virtual queue {states['pending_q'][i]} != physical queue {held[i]}",
    )
    depth_max = world.config.market.delegation_depth_max
    _check(
        queue["depth"] > depth_max,
        lambda j: f"DO {owner[j]} holds task {ids[j]} at depth {queue['depth'][j]} > cap {depth_max}",
    )
    _check(
        queue["payment"] <= 0.0,
        lambda j: f"DO {owner[j]} holds task {ids[j]} paying {queue['payment'][j]}",
    )
    invalid = validate_states(states)
    if invalid is not None:
        raise MarketInvariantError(f"DO {invalid[0]} invalid state after step: {invalid[1]}")
    world.audit_checks += 1


def build_world(config: "ScenarioConfig", seed: int, policy_override: str | None = None) -> World:
    """Construct a deterministic world for one (config, seed) pair."""
    return World(config, seed, policy_override=policy_override)
