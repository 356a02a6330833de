"""Per-step market engine: trust-graph sampling, bidders, auction clearing, task routing.

One simulation step runs a fixed pipeline:

  1. snapshot neighbour prices and reputations into delegation contexts,
  2. every data owner decides jointly against that snapshot,
  3. the auction clears model-user requests at posted prices,
  4. sub-delegations route to eligible neighbours (tasks land next step),
  5. work completes pending tasks oldest-first,
  6. the two virtual queues advance,
  7. reputations and rating counts update from on-time completions,
  8. metrics records are emitted.

The context builder and the router both read a DO's trusted neighbours from
`TrustNetwork.neighbors`.  Everything is deterministic given the scenario
seed.  Audits (task conservation, admission caps, state invariants, and the
payment ledgers against admitted and moved task counts) run every step and
raise immediately on violation.

The six model-user bidding strategies are parameterized stand-ins: each gets
a distinct target ordering and bid shape, and every data-owner policy in a
comparison faces the identical bidder population and random streams.
"""

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    DataOwnerState,
    MetricsRecord,
    StepDecision,
    Task,
    TrustNetwork,
    validate_state,
)
from .demand import R_FLOOR_DEFAULT, expected_demand, realize_demand, zeta
from .policy_baselines import decide_for_policy, resolve_policy
from .policy_pas import DelegationContext, eligible_delegates
from .queues import update_pending_queue, update_urgency_queue, utility

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .config import ScenarioConfig

# Child-seed tags so each random stream is independent of the others.
_STREAM_GRAPH = 1
_STREAM_DO_PARAMS = 2
_STREAM_MU = 3
_STREAM_POLICY = 4
_STREAM_DEMAND = 5

# Synthetic origin id for tasks that did not come from a model user.
PREEXISTING_ORIGIN = -1
DEMAND_MODEL_ORIGIN = -2


class MarketInvariantError(RuntimeError):
    """A step-level audit (conservation, caps, state validity) failed."""


@dataclass
class ModelUser:
    """A bidder recruiting data owners; internals are simplified stand-ins."""

    id: int
    strategy_name: str
    budget_per_step: float
    valuation_per_do: dict[int, float]


def generate_trust_network(n_dos: int, edge_prob: float, rng) -> TrustNetwork:
    """Erdos-Renyi graph: each unordered pair connected independently."""
    if n_dos < 1:
        raise ValueError("n_dos must be >= 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must lie in [0, 1]")
    rows, cols = np.triu_indices(n_dos, k=1)
    mask = rng.random(rows.shape[0]) < edge_prob
    return TrustNetwork(n_dos, np.column_stack((rows[mask], cols[mask])))


def update_reputation(
    state: DataOwnerState,
    completed_on_time: int,
    due: int,
    ema_beta: float,
    r_floor: float = R_FLOOR_DEFAULT,
) -> tuple[float, int]:
    """EMA of the on-time completion ratio, weighting the old reputation by
    `ema_beta`; rating count grows with on-time work.

    Returns the new (reputation, positive_ratings) pair; reputation is
    clamped to [r_floor, 1] and left unchanged when nothing was due.
    """
    if completed_on_time > due:
        raise ValueError("completed_on_time cannot exceed due")
    if due <= 0:
        new_r = state.reputation_r
    else:
        ratio = completed_on_time / due
        new_r = ema_beta * state.reputation_r + (1.0 - ema_beta) * ratio
    new_r = min(1.0, max(r_floor, new_r))
    return new_r, state.positive_ratings_Mp + completed_on_time


@dataclass
class AuctionOutcome:
    kappa: dict[int, int]                       # auction-admitted tasks per DO
    tasks: dict[int, list[Task]]                # the admitted task objects
    payments: list[tuple[int, int, float]]      # (mu_id, do_id, amount)


def _mu_requests(mu: ModelUser, states, decisions, rng, gains) -> list[tuple[float, int, int, int]]:
    """One MU's (bid, mu_id, seq, do_id) requests for the step, budget-bounded.

    The MU walks its strategy-specific target order and stops once the next
    bid would push total submitted bids past its per-step budget.
    """
    ids = sorted(states)
    valuation = mu.valuation_per_do
    strategy = mu.strategy_name

    if strategy == "random":
        order = [ids[j] for j in rng.permutation(len(ids))]
    elif strategy == "greedy":
        order = sorted(ids, key=lambda i: (-states[i].reputation_r / decisions[i].price_p, i))
    elif strategy == "lin":
        order = sorted(ids, key=lambda i: (states[i].reserve_price_p_min, i))
    elif strategy == "bmub":
        order = sorted(ids, key=lambda i: (-states[i].reputation_r, i))
    elif strategy == "fedbidder-simple":
        order = sorted(ids, key=lambda i: (decisions[i].price_p, i))
    elif strategy == "fedbidder-complex":
        order = sorted(
            ids,
            key=lambda i: (-states[i].reputation_r * valuation[i] / decisions[i].price_p, i),
        )
    else:
        raise ValueError(f"unknown MU strategy: {strategy!r}")

    requests = []
    submitted = 0.0
    seq = 0
    for do_id in order:
        if strategy == "random":
            bid = float(rng.uniform(0.0, valuation[do_id]))
        elif strategy == "greedy":
            bid = valuation[do_id]
        elif strategy == "fedbidder-complex":
            gain = gains["fedbidder-complex"] * (0.5 + 0.5 * states[do_id].reputation_r)
            bid = min(gain * states[do_id].reserve_price_p_min, valuation[do_id])
        else:
            bid = min(gains[strategy] * states[do_id].reserve_price_p_min, valuation[do_id])
        if bid <= 0.0:
            continue
        if submitted + bid > mu.budget_per_step:
            break
        requests.append((bid, mu.id, seq, do_id))
        submitted += bid
        seq += 1
    return requests


def run_auction(
    mu_list: list[ModelUser],
    do_states: dict[int, DataOwnerState],
    do_decisions: dict[int, StepDecision],
    mu_rngs: dict[int, np.random.Generator],
    step_index: int,
    next_task_id: int,
    gains: dict[str, float],
) -> tuple[AuctionOutcome, int]:
    """Clear one step of the posted-price auction.

    Requests clear in (bid descending, MU id ascending, submission order)
    until each accepting DO reaches its admission cap; cleared tasks pay the
    DO's posted price for the step.
    """
    requests: list[tuple[float, int, int, int]] = []
    for mu in sorted(mu_list, key=lambda m: m.id):
        requests.extend(_mu_requests(mu, do_states, do_decisions, mu_rngs[mu.id], gains))
    requests.sort(key=lambda req: (-req[0], req[1], req[2]))

    kappa = {i: 0 for i in do_states}
    tasks: dict[int, list[Task]] = {i: [] for i in do_states}
    payments: list[tuple[int, int, float]] = []
    for bid, mu_id, _seq, do_id in requests:
        state = do_states[do_id]
        decision = do_decisions[do_id]
        if decision.accept_x != 1:
            continue
        if bid < decision.price_p:
            continue
        if kappa[do_id] >= min(state.theta_max, state.kappa_max - 1):
            continue
        kappa[do_id] += 1
        tasks[do_id].append(
            Task(
                task_id=next_task_id,
                origin_mu=mu_id,
                unit_payment_p_tau=decision.price_p,
                arrival_step=step_index,
                delegation_depth=0,
                holder=do_id,
            )
        )
        payments.append((mu_id, do_id, decision.price_p))
        next_task_id += 1
    return AuctionOutcome(kappa=kappa, tasks=tasks, payments=payments), next_task_id


@dataclass
class RoutingOutcome:
    incoming: dict[int, list[Task]]             # tasks arriving at each delegate next step
    s_realized: dict[int, int]                  # tasks actually moved out per delegator
    payments: list[tuple[int, int, float]]      # (delegator, delegate, amount)


def route_subdelegations(
    do_states: dict[int, DataOwnerState],
    pending: dict[int, list[Task]],
    decisions: dict[int, StepDecision],
    network: TrustNetwork,
    prices: np.ndarray,
    reps: np.ndarray,
    capacity_left: dict[int, int],
    depth_max: int,
    step_index: int,
) -> RoutingOutcome:
    """Move each delegator's highest-payment tasks to eligible neighbours.

    Delegates are chosen cheapest-first (ties by id) at the snapshot prices
    and reputations the decisions saw; the delegator pays that price per
    task.  Transfers stop early once a task finds no eligible delegate.
    Transferred tasks join the delegate's queue as arrivals next step with
    their payment rewritten to what the delegate was paid.
    """
    incoming: dict[int, list[Task]] = {i: [] for i in do_states}
    s_realized = {i: 0 for i in do_states}
    payments: list[tuple[int, int, float]] = []
    price_of = prices.tolist()

    for do_id in sorted(do_states):
        goal = decisions[do_id].subdelegate_s
        if goal <= 0:
            continue
        neighbors = network.neighbors[do_id]
        trusted = neighbors[reps[neighbors] >= do_states[do_id].rep_threshold_r_min].tolist()
        candidates = [t for t in pending[do_id] if t.delegation_depth < depth_max]
        candidates.sort(key=lambda t: (-t.unit_payment_p_tau, t.task_id))
        moved_ids = set()
        for task in candidates:
            if s_realized[do_id] >= goal:
                break
            quotes = [
                (price_of[k], k)
                for k in trusted
                if price_of[k] <= task.unit_payment_p_tau and capacity_left[k] > 0
            ]
            if not quotes:
                break
            price_k, delegate = min(quotes)
            task.holder = delegate
            task.delegation_depth += 1
            task.unit_payment_p_tau = price_k
            task.arrival_step = step_index + 1
            incoming[delegate].append(task)
            payments.append((do_id, delegate, price_k))
            capacity_left[delegate] -= 1
            moved_ids.add(task.task_id)
            s_realized[do_id] += 1
        if moved_ids:
            pending[do_id] = [t for t in pending[do_id] if t.task_id not in moved_ids]
    return RoutingOutcome(incoming=incoming, s_realized=s_realized, payments=payments)


class World:
    """Mutable simulation state for one seeded run."""

    def __init__(self, config: "ScenarioConfig", seed: int, policy_override: str | None = None):
        self.config = config
        self.seed = seed
        self.t = 0

        self.network = generate_trust_network(
            config.n_dos, config.trust_edge_prob, np.random.default_rng([seed, _STREAM_GRAPH])
        )
        self._adj = self.network.adjacency.astype(float)
        self._deg = self._adj.sum(axis=1)

        self.states: dict[int, DataOwnerState] = {}
        self.pending: dict[int, list[Task]] = {}
        self.rho_base: dict[int, float] = {}
        self.next_task_id = 0
        self.created_tasks = 0
        self.completed_tasks = 0
        self._build_data_owners(np.random.default_rng([seed, _STREAM_DO_PARAMS]))

        self.mus = self._build_model_users(seed)
        self.mu_rngs = {
            mu.id: np.random.default_rng([seed, _STREAM_MU, mu.id, 1000]) for mu in self.mus
        }
        self.policy_rngs = {
            i: np.random.default_rng([seed, _STREAM_POLICY, i]) for i in range(config.n_dos)
        }
        self.demand_rngs = {
            i: np.random.default_rng([seed, _STREAM_DEMAND, i]) for i in range(config.n_dos)
        }

        if policy_override is not None:
            self.policy_specs = {i: resolve_policy(policy_override) for i in range(config.n_dos)}
        else:
            self.policy_specs = {
                i: resolve_policy(config.policy_name_for(i)) for i in range(config.n_dos)
            }

        self.kappa_sum = {i: 0.0 for i in range(config.n_dos)}

        self.audit_checks = 0
        self.degenerate_price_steps = 0
        self.utility_sum = 0.0
        self.price_sum = 0.0
        self.backlog_sum = 0.0
        self.accept_count = 0

    def _build_data_owners(self, rng) -> None:
        cfg = self.config
        do = cfg.do_params
        ds_lo, ds_hi = cfg.data_size_range
        for i in range(cfg.n_dos):
            p_min = float(rng.uniform(*do.p_min))
            cost = float(rng.uniform(*do.unit_cost_frac)) * p_min
            rho = float(rng.uniform(*do.rho))
            r0 = float(rng.uniform(*do.r0))
            r_min = float(rng.uniform(*do.r_min))
            theta_max = int(rng.integers(do.theta_max[0], do.theta_max[1] + 1))
            s_max = int(rng.integers(do.s_max[0], do.s_max[1] + 1))
            kappa_hat = int(rng.integers(do.kappa_hat[0], do.kappa_hat[1] + 1))
            eps = float(rng.uniform(*do.epsilon))
            m0 = int(rng.integers(do.m_positive[0], do.m_positive[1] + 1))
            q0 = int(rng.integers(do.q0[0], do.q0[1] + 1))
            data_size = int(rng.integers(ds_lo, ds_hi + 1))

            self.rho_base[i] = rho
            self.states[i] = DataOwnerState(
                id=i,
                reputation_r=r0,
                pending_q=float(q0),
                urgency_Q=0.0,
                avg_demand_kappa_bar=cfg.market.kappa_bar_prior,
                availability_rho=self._rho_value(rho, 0),
                unit_cost_c=cost,
                reserve_price_p_min=p_min,
                rep_threshold_r_min=r_min,
                theta_max=theta_max,
                s_max=s_max,
                kappa_max=kappa_hat,
                alignment_epsilon=eps,
                positive_ratings_Mp=m0,
                current_price_p=p_min,
                data_size=data_size,
            )
            backlog = []
            for _ in range(q0):
                markup = float(rng.uniform(*do.q0_payment_markup))
                backlog.append(
                    Task(
                        task_id=self.next_task_id,
                        origin_mu=PREEXISTING_ORIGIN,
                        unit_payment_p_tau=markup * p_min,
                        arrival_step=0,
                        delegation_depth=0,
                        holder=i,
                    )
                )
                self.next_task_id += 1
            self.pending[i] = backlog
            self.created_tasks += q0

    def _build_model_users(self, seed: int) -> list[ModelUser]:
        cfg = self.config
        ds_lo, ds_hi = cfg.data_size_range
        span = max(ds_hi - ds_lo, 1)
        mus = []
        for j, strategy in enumerate(cfg.mu.strategies):
            rng = np.random.default_rng([seed, _STREAM_MU, j])
            valuations = {}
            for i in range(cfg.n_dos):
                markup = float(rng.uniform(*cfg.mu.valuation_markup))
                data_factor = 0.9 + 0.2 * (self.states[i].data_size - ds_lo) / span
                valuations[i] = markup * self.states[i].reserve_price_p_min * data_factor
            mus.append(
                ModelUser(
                    id=j,
                    strategy_name=strategy,
                    budget_per_step=cfg.mu.budget_per_step,
                    valuation_per_do=valuations,
                )
            )
        return mus

    def _rho_value(self, base: float, t: int) -> float:
        schedule = self.config.do_params.rho_schedule
        if schedule.get("kind") == "square":
            period = int(schedule["period"])
            if (t // period) % 2 == 1:
                return base * float(schedule["low_scale"])
        return base

    def _build_contexts(self, prices: np.ndarray, reps: np.ndarray) -> dict[int, DelegationContext]:
        """Every DO's delegation context against the step's price and reputation snapshot.

        Eligibility is only asked of a DO that may delegate this step, and is
        judged against its best-paying task below the delegation-depth cap.
        """
        cfg = self.config
        depth_max = cfg.market.delegation_depth_max
        neighbors = self.network.neighbors
        sums = self._adj @ prices
        contexts = {}
        for i in range(cfg.n_dos):
            state = self.states[i]
            avg = sums[i] / self._deg[i] if self._deg[i] > 0 else math.inf
            floor_q = int(state.pending_q)
            if cfg.policy.work_mode == "threshold":
                may_delegate = floor_q > 0
            else:
                may_delegate = floor_q > state.theta_max
            eligible = False
            if may_delegate:
                routable = [
                    t.unit_payment_p_tau for t in self.pending[i] if t.delegation_depth < depth_max
                ]
                if routable:
                    found = eligible_delegates(
                        neighbors[i], prices, reps, max(routable), state.rep_threshold_r_min
                    )
                    eligible = len(found) > 0
            contexts[i] = DelegationContext(avg, eligible)
        return contexts


def _demand_model_arrivals(world: World, decisions) -> tuple[AuctionOutcome, int]:
    """Synthetic arrival source replacing the bidders: integer draws around
    the expected-demand curve, paid at the posted price."""
    cfg = world.config
    kappa = {}
    tasks: dict[int, list[Task]] = {}
    payments = []
    next_id = world.next_task_id
    for i in sorted(world.states):
        state = world.states[i]
        decision = decisions[i]
        tasks[i] = []
        if decision.accept_x != 1:
            kappa[i] = 0
            continue
        z = zeta(cfg.constants, state.alignment_epsilon, state.positive_ratings_Mp)
        f = expected_demand(
            decision.price_p, state.reputation_r, z, cfg.constants.a1, cfg.market.r_floor
        )
        draw = realize_demand(f, state.kappa_max, world.demand_rngs[i], cfg.market.integerization)
        admitted = min(draw, state.theta_max, state.kappa_max - 1)
        kappa[i] = admitted
        for _ in range(admitted):
            tasks[i].append(
                Task(
                    task_id=next_id,
                    origin_mu=DEMAND_MODEL_ORIGIN,
                    unit_payment_p_tau=decision.price_p,
                    arrival_step=world.t,
                    delegation_depth=0,
                    holder=i,
                )
            )
            payments.append((DEMAND_MODEL_ORIGIN, i, decision.price_p))
            next_id += 1
    return AuctionOutcome(kappa=kappa, tasks=tasks, payments=payments), next_id


def step(world: World) -> list[MetricsRecord]:
    """Advance the world one step and return the per-DO metrics records."""
    cfg = world.config
    t = world.t
    n = cfg.n_dos
    ids = range(n)

    # 1. Snapshot the decision inputs; policies must only see last step's market.
    prices = np.fromiter((world.states[i].current_price_p for i in ids), dtype=float, count=n)
    reps = np.fromiter((world.states[i].reputation_r for i in ids), dtype=float, count=n)
    contexts = world._build_contexts(prices, reps)

    # 2. Joint decisions.
    decisions: dict[int, StepDecision] = {}
    for i in ids:
        decision = decide_for_policy(
            world.policy_specs[i],
            world.states[i],
            contexts[i],
            world.policy_rngs[i],
            markup_max=cfg.policy.markup_max,
            lin_gain=cfg.policy.lin_gain,
            work_mode=cfg.policy.work_mode,
            r_floor=cfg.market.r_floor,
        )
        decisions[i] = decision
        if decision.price_degenerate:
            world.degenerate_price_steps += 1

    # 3. Post the fresh prices; these are the asks the auction clears against.
    for i in ids:
        world.states[i].current_price_p = decisions[i].price_p

    # 4. Arrivals.
    if cfg.market.arrival_mode == "auction":
        auction, world.next_task_id = run_auction(
            world.mus,
            world.states,
            decisions,
            world.mu_rngs,
            t,
            world.next_task_id,
            cfg.mu.gains,
        )
    else:
        auction, world.next_task_id = _demand_model_arrivals(world, decisions)
    world.created_tasks += sum(auction.kappa.values())

    # 5. Sub-delegation routing, capped by each receiver's arrival headroom.
    capacity_left = {
        i: (world.states[i].kappa_max - 1) - auction.kappa[i] for i in ids
    }
    routing = route_subdelegations(
        world.states,
        world.pending,
        decisions,
        world.network,
        prices,
        reps,
        capacity_left,
        cfg.market.delegation_depth_max,
        t,
    )

    # 6-9. Work, queue updates, reputation, metrics.
    records = []
    for i in ids:
        state = world.states[i]
        decision = decisions[i]
        queue = world.pending[i]

        theta_goal = decision.work_theta
        if theta_goal > len(queue):
            raise MarketInvariantError(
                f"DO {i} planned {theta_goal} completions with only {len(queue)} pending"
            )
        window = cfg.reputation.on_time_window
        on_time = sum(1 for task in queue[:theta_goal] if t - task.arrival_step <= window)
        del queue[:theta_goal]
        theta_done = theta_goal
        world.completed_tasks += theta_done

        s_done = routing.s_realized[i]
        kappa_auc = auction.kappa[i]
        delegated_in = len(routing.incoming[i])
        arrivals_total = decision.accept_x * kappa_auc + delegated_in

        # Urgency grows only when the step left backlog unserved; work that
        # clears the whole queue means nothing "remained incomplete".
        carried_over = state.pending_q - theta_done - s_done > 0
        new_q = (
            update_pending_queue(state.pending_q, theta_done, s_done, decision.accept_x, kappa_auc)
            + delegated_in
        )
        new_Q = update_urgency_queue(
            state.urgency_Q, theta_done, s_done, state.avg_demand_kappa_bar, carried_over
        )

        # Utility uses the decision-time reputation and the realized auction
        # demand; delegation costs are priced at the snapshot neighbour mean.
        realized = StepDecision(
            accept_x=decision.accept_x,
            price_p=decision.price_p,
            subdelegate_s=s_done,
            work_theta=theta_done,
        )
        u = utility(state, realized, float(kappa_auc), contexts[i].avg_neighbor_price)

        new_r, new_mp = update_reputation(
            state, on_time, theta_done, cfg.reputation.ema_beta, cfg.market.r_floor
        )

        records.append(
            MetricsRecord(
                step=t,
                do_id=i,
                utility_u=u,
                pending_q=new_q,
                urgency_Q=new_Q,
                accepted_kappa=arrivals_total,
                completed_theta=theta_done,
                subdelegated_s=s_done,
                price_p=decision.price_p,
                reputation_r=new_r,
            )
        )

        # 10. Commit the new state and physical queue contents.
        queue.extend(auction.tasks[i])
        queue.extend(routing.incoming[i])
        state.pending_q = new_q
        state.urgency_Q = new_Q
        state.reputation_r = new_r
        state.positive_ratings_Mp = new_mp
        world.kappa_sum[i] += arrivals_total
        state.avg_demand_kappa_bar = world.kappa_sum[i] / (t + 1)
        state.availability_rho = world._rho_value(world.rho_base[i], t + 1)

        world.utility_sum += u
        world.price_sum += decision.price_p
        world.backlog_sum += new_q
        world.accept_count += decision.accept_x

    _run_step_audits(world, auction, routing, decisions)

    world.t += 1
    return records


def _run_step_audits(world: World, auction: AuctionOutcome, routing: RoutingOutcome, decisions) -> None:
    pending_total = sum(len(tasks) for tasks in world.pending.values())
    if world.created_tasks != world.completed_tasks + pending_total:
        raise MarketInvariantError(
            f"task conservation broken at step {world.t}: created={world.created_tasks} "
            f"completed={world.completed_tasks} pending={pending_total}"
        )

    # The payment ledgers are checked against the admitted and moved task
    # counts, which the ledgers are not summed from.
    auction_paid = Counter()
    for _payer, payee, amount in auction.payments:
        if amount != decisions[payee].price_p:
            raise MarketInvariantError(
                f"DO {payee} was paid {amount} for a task posted at {decisions[payee].price_p}"
            )
        auction_paid[payee] += 1
    delegations_paid = Counter(payer for payer, _payee, _amount in routing.payments)
    delegations_received = Counter(payee for _payer, payee, _amount in routing.payments)

    for i, state in world.states.items():
        if auction_paid[i] != auction.kappa[i]:
            raise MarketInvariantError(
                f"DO {i} has {auction_paid[i]} payments for {auction.kappa[i]} admitted tasks"
            )
        if delegations_paid[i] != routing.s_realized[i]:
            raise MarketInvariantError(
                f"DO {i} made {delegations_paid[i]} payments for "
                f"{routing.s_realized[i]} delegated tasks"
            )
        if delegations_received[i] != len(routing.incoming[i]):
            raise MarketInvariantError(
                f"DO {i} got {delegations_received[i]} payments for "
                f"{len(routing.incoming[i])} received tasks"
            )
        if routing.s_realized[i] > decisions[i].subdelegate_s:
            raise MarketInvariantError(f"DO {i} routed more tasks than it decided to delegate")
        cap = min(state.theta_max, state.kappa_max - 1)
        if auction.kappa[i] > cap:
            raise MarketInvariantError(f"DO {i} admitted {auction.kappa[i]} > cap {cap}")
        if auction.kappa[i] + len(routing.incoming[i]) > state.kappa_max - 1:
            raise MarketInvariantError(f"DO {i} total arrivals exceed kappa_max - 1")
        if state.pending_q != len(world.pending[i]):
            raise MarketInvariantError(
                f"DO {i} virtual queue {state.pending_q} != physical queue {len(world.pending[i])}"
            )
        result = validate_state(state)
        if not result.ok:
            raise MarketInvariantError(f"DO {i} invalid state after step: {result.violation}")
    world.audit_checks += 1


def build_world(config: "ScenarioConfig", seed: int, policy_override: str | None = None) -> World:
    """Construct a deterministic world for one (config, seed) pair."""
    return World(config, seed, policy_override=policy_override)
