"""Shared value types for the auction-based federated learning market.

The market holds its state as numpy columns: one record of `STATE` per data
owner and one record of `TASK` per pending task.  `OwnerConstants` is what
one data owner's `decide_for_policy` call reads of it, built once per world,
and `StepDecision` is what that call returns.  Everything here is plain data
plus validation, no market behaviour.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

CSV_COLUMNS = [
    "step",
    "do_id",
    "utility_u",
    "pending_q",
    "urgency_Q",
    "accepted_kappa",
    "completed_theta",
    "subdelegated_s",
    "price_p",
    "reputation_r",
]


# One record per DO.  `pending_q` and `urgency_Q` are virtual queues stored as
# nonnegative reals: the urgency queue accumulates the real-valued average
# demand, so integer storage would be lossy.  Physical task counts moved in a
# step (work, sub-delegations, arrivals) are integers.
STATE = np.dtype([
    ("id", int),
    ("reputation_r", float),            # in [0, 1]
    ("pending_q", float),               # backlog of accepted-but-unfinished tasks
    ("urgency_Q", float),               # accumulated delay pressure
    ("avg_demand_kappa_bar", float),    # causal running mean of per-step arrivals
    ("availability_rho", float),        # eagerness weight for taking new tasks
    ("unit_cost_c", float),             # cost of training one task locally
    ("reserve_price_p_min", float),     # floor below which the DO never prices
    ("rep_threshold_r_min", float),     # minimum reputation accepted in a delegate
    ("theta_max", int),                 # max tasks workable per step
    ("s_max", int),                     # max tasks sub-delegated per step
    ("kappa_max", int),                 # hard cap: arrivals per step stay below this
    ("alignment_epsilon", float),       # promised-vs-delivered quality alignment
    ("positive_ratings_Mp", int),       # positive ratings collected so far
    ("current_price_p", float),         # most recently posted unit price
    ("data_size", int),                 # local training samples held
])


class OwnerConstants(NamedTuple):
    """What one DO's `decide_for_policy` call reads of it.  Both fields are
    fixed for a run, so the market builds one per DO when it builds a world."""

    id: int
    reserve_price_p_min: float


# One record per pending task.  The market keeps its tasks grouped by owner,
# each owner's in FIFO order.  `payment` is what the current owner was paid
# for the task and `arrival` the step it joined the owner's queue; both are
# rewritten when the task is sub-delegated.
TASK = np.dtype(
    [("owner", np.intp), ("payment", float), ("arrival", np.int64), ("depth", np.int64), ("id", np.int64)]
)


def validate_states(states: np.ndarray) -> tuple[int, str] | None:
    """The first (DO, field) of a `STATE` array that breaks an invariant of
    its record, or None when every record holds them all."""
    s = states
    checks = (
        ("reputation_r", (0.0 <= s["reputation_r"]) & (s["reputation_r"] <= 1.0)),
        ("rep_threshold_r_min", (0.0 <= s["rep_threshold_r_min"]) & (s["rep_threshold_r_min"] <= 1.0)),
        ("pending_q", np.isfinite(s["pending_q"]) & (s["pending_q"] >= 0.0)),
        ("urgency_Q", np.isfinite(s["urgency_Q"]) & (s["urgency_Q"] >= 0.0)),
        ("avg_demand_kappa_bar", np.isfinite(s["avg_demand_kappa_bar"]) & (s["avg_demand_kappa_bar"] >= 0.0)),
        ("availability_rho", s["availability_rho"] >= 0.0),
        ("unit_cost_c", s["unit_cost_c"] >= 0.0),
        ("reserve_price_p_min", s["reserve_price_p_min"] > 0.0),
        ("current_price_p", s["current_price_p"] >= s["reserve_price_p_min"]),
        ("theta_max", s["theta_max"] >= 0),
        ("s_max", s["s_max"] >= 0),
        ("kappa_max", s["kappa_max"] >= 1),
        ("alignment_epsilon", s["alignment_epsilon"] >= 0.0),
        ("positive_ratings_Mp", s["positive_ratings_Mp"] >= 0),
    )
    for name, ok in checks:
        if not ok.all():
            return int(np.argmin(ok)), name
    return None


def sequential_sum(values: np.ndarray, start: float = 0.0) -> float:
    """`start + values[0] + values[1] + ...`, added left to right.

    `np.sum` adds pairwise, which rounds differently; the run aggregates keep
    the left-to-right order so that their bytes do not depend on the engine's
    layout.  `np.cumsum` is a sequential scan.
    """
    return float(np.cumsum(np.concatenate(([start], values)))[-1])


class TrustNetwork:
    """Undirected, irreflexive trust graph over data-owner ids 0..n_dos-1.

    `adjacency` is the symmetric boolean matrix `generate_trust_network`
    builds; row i marks the DOs that DO i trusts.
    """

    def __init__(self, adjacency: np.ndarray):
        self.adjacency = adjacency

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2


@dataclass(slots=True)
class StepDecision:
    """What one DO's `decide_for_policy` call returns: the unit price it posts
    and how many tasks it plans to sub-delegate this step."""

    price_p: float
    subdelegate_s: int
