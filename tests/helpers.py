"""Shared builders for test states and runs, and test-side reference checks."""

from collections import namedtuple
from typing import NamedTuple

import numpy as np

from aflsim.config import resolve_config
from aflsim.core import CSV_COLUMNS, STATE, TrustNetwork
from aflsim.market import World, settle, step
from aflsim.policy_baselines import decide_for_policy, price_lin
from aflsim.policy_pas import (
    decide_acceptance,
    decide_price,
    decide_subdelegation,
    decide_work,
    price_is_degenerate,
    subdelegation_cap,
)
from reference_policy import JointDecision

# One CSV row of a step's metrics, with the columns as attributes.
Record = namedtuple("Record", CSV_COLUMNS)

# The full state of one DO, as the scalar references read it: a `STATE`
# record as a tuple, its fields in the record's order with Python types.
DataOwnerState = NamedTuple(
    "DataOwnerState", [(name, int if STATE[name].kind == "i" else float) for name in STATE.names]
)


def views(world: World) -> list[DataOwnerState]:
    """A fresh DataOwnerState per DO of `world`, read from its state columns."""
    return [DataOwnerState(*row) for row in zip(*(world.states[name].tolist() for name in STATE.names))]


# The default scenario's settings, which the decision rules take as arguments:
# the reputation floor, and joint_decision's settings after (spec, state,
# avg_neighbor_price, has_eligible_delegate, rng) in the order it takes them.
DEFAULTS = resolve_config({})
R_FLOOR = DEFAULTS.market.r_floor
SETTINGS = (DEFAULTS.policy.markup_max, DEFAULTS.policy.lin_gain, DEFAULTS.policy.work_mode, R_FLOOR)


def lyapunov_prices(states: np.ndarray) -> np.ndarray:
    """The joint policy's posted prices, degeneracy judged at the default floor."""
    return decide_price(states, price_is_degenerate(states, R_FLOOR))


def lyapunov_price(state: DataOwnerState) -> float:
    """`lyapunov_prices` of one DO."""
    return lyapunov_prices(state_columns(state)).item()


def joint_decision(
    spec, state, avg_neighbor_price, has_eligible_delegate, rng, markup_max, lin_gain, work_mode, r_floor
) -> JointDecision:
    """One DO's decision as `market.step` composes it: the whole-array rules
    on the DO's one-row columns, then its `decide_for_policy` call for the
    draws, then acceptance at the price that call returns."""
    states = state_columns(state)
    theta = decide_work(states, work_mode)
    cap = np.where(has_eligible_delegate, subdelegation_cap(states, theta), 0)
    s = decide_subdelegation(states, np.array([avg_neighbor_price]), cap) if spec.subdel_rule == "threshold" else cap
    degenerate = price_is_degenerate(states, r_floor) & (spec.price_rule == "lyapunov")
    price = decide_price(states, degenerate) if spec.price_rule == "lyapunov" else price_lin(states, lin_gain)
    decision = decide_for_policy(spec, state, s.item(), price.item(), rng, markup_max)
    x = decide_acceptance(states, np.array([decision.price_p])).item() if spec.accept_rule == "lyapunov" else 1
    return JointDecision(x, decision.price_p, decision.subdelegate_s, theta.item(), degenerate.item())


def make_state(**overrides) -> DataOwnerState:
    base = dict(
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


def state_columns(*states: DataOwnerState) -> np.ndarray:
    """The `STATE` columns of the given DO states, one record each."""
    return np.array([tuple(state) for state in states], dtype=STATE)


def settle_one(
    state: DataOwnerState, *, x=0, price=1.0, theta=0, s=0, kappa=0, delegated_in=0, on_time=0, pbar=1.0,
    ema_beta=0.9, r_floor=R_FLOOR,
) -> tuple:
    """`market.settle` of one DO on one-row columns: its new (utility,
    pending_q, urgency_Q, reputation_r, positive_ratings_Mp) as Python numbers."""
    columns = (np.array([value]) for value in (x, price, theta, s, kappa, delegated_in, on_time, pbar))
    return tuple(column.item() for column in settle(state_columns(state), *columns, ema_beta, r_floor))


def drift_bound(q, Q, arrivals, moved, kappa_bar, theta_max, s_max, kappa_max) -> float:
    """The upper bound on one step's growth of the queue energy (q**2 + Q**2) / 2
    from pending queue `q` and urgency queue `Q`, for `arrivals` admitted
    tasks, `moved` = theta + s served or delegated and the running average
    demand `kappa_bar`: xi + q * (arrivals - moved) + Q * (kappa_bar - moved),
    with xi = (theta_max + s_max)**2 + kappa_max**2."""
    xi = (theta_max + s_max) ** 2 + kappa_max**2
    return xi + q * (arrivals - moved) + Q * (kappa_bar - moved)


def dense(counts: dict[int, int], n: int) -> list[int]:
    """A per-DO count dict, such as an outcome's `kappa` or `s_realized`,
    which holds only the DOs that acted, as the full list over the n DOs."""
    return [counts.get(i, 0) for i in range(n)]


def trust_network(n_dos: int, edges=()) -> TrustNetwork:
    """The trust graph over DOs 0..n_dos-1 with the given undirected edges."""
    adjacency = np.zeros((n_dos, n_dos), dtype=bool)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = True
    return TrustNetwork(adjacency)


def neighbour_rows(network: TrustNetwork, dos) -> np.ndarray:
    """The neighbour-table rows of `dos`: each DO's neighbour ids, ascending,
    padded with -1 to the graph's largest degree."""
    ids = [np.flatnonzero(row) for row in network.adjacency]
    width = max(map(len, ids), default=0)
    table = np.full((len(ids), width), -1, dtype=np.intp)
    for row, found in zip(table, ids):
        row[: len(found)] = found
    return table[dos]


def quoted_mask(ids: np.ndarray, n: int) -> np.ndarray:
    """Rows of DO ids padded with -1, such as `eligible_delegates`' quotes,
    as boolean rows over the n DOs that mark each id a row holds."""
    mask = np.zeros((len(ids), n), dtype=bool)
    row, cell = np.nonzero(ids >= 0)
    mask[row, ids[row, cell]] = True
    return mask


def step_records(world: World) -> list[Record]:
    """Step `world` once; return its metrics as one Record per DO."""
    metrics = step(world)
    return [Record(*row) for row in zip(*(metrics[name].tolist() for name in CSV_COLUMNS))]


def run_world(world: World) -> tuple[dict[int, tuple[float, float]], list[Record]]:
    """Step `world` through its horizon; return each DO's initial (q, Q) and every record."""
    states = world.states
    initial = dict(enumerate(zip(states["pending_q"].tolist(), states["urgency_Q"].tolist())))
    records = []
    for _ in range(world.config.horizon_T):
        records.extend(step_records(world))
    return initial, records


def validate_decision(state: DataOwnerState, decision: JointDecision) -> str | None:
    """The first field of a JointDecision that breaks an invariant of the deciding DO, or None."""
    if decision.accept_x not in (0, 1):
        return "accept_x"
    if not (0 <= decision.work_theta <= state.theta_max):
        return "work_theta"
    if not (0 <= decision.subdelegate_s <= min(state.s_max, state.pending_q)):
        return "subdelegate_s"
    if decision.price_p < state.reserve_price_p_min:
        return "price_p"
    return None
