"""Shared builders for test states, contexts and runs, and test-side reference checks."""

from collections import namedtuple

import numpy as np

from aflsim.core import CSV_COLUMNS, STATE, DataOwnerState, StepDecision, TrustNetwork
from aflsim.market import World, step
from aflsim.policy_pas import DelegationContext

# One CSV row of a step's metrics, with the columns as attributes.
Record = namedtuple("Record", CSV_COLUMNS)


def make_state(**overrides) -> DataOwnerState:
    base = dict(
        id=0,
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


def trust_network(n_dos: int, edges=()) -> TrustNetwork:
    """The trust graph over DOs 0..n_dos-1 with the given undirected edges."""
    adjacency = np.zeros((n_dos, n_dos), dtype=bool)
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = True
    return TrustNetwork(adjacency)


def make_ctx(avg_neighbor_price=1.0, eligible=False) -> DelegationContext:
    return DelegationContext(
        avg_neighbor_price=avg_neighbor_price, has_eligible_delegate=bool(eligible)
    )


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


def validate_decision(state: DataOwnerState, decision: StepDecision) -> str | None:
    """The first field of a StepDecision that breaks an invariant of the deciding DO, or None."""
    if decision.accept_x not in (0, 1):
        return "accept_x"
    if not (0 <= decision.work_theta <= state.theta_max):
        return "work_theta"
    if not (0 <= decision.subdelegate_s <= min(state.s_max, state.pending_q)):
        return "subdelegate_s"
    if decision.price_p < state.reserve_price_p_min:
        return "price_p"
    return None
