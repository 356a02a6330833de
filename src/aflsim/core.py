"""Shared value types for the auction-based federated learning market.

Everything here is a plain record: construction plus validation, no market
behaviour.  The policies, the market engine, and the CLI all communicate
through these types, so they are kept free of simulator state and safe to
copy between execution contexts.
"""

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a validation pass; `violation` names the first failed field."""

    ok: bool
    violation: str | None = None


@dataclass
class DataOwnerState:
    """Full per-step state of one data owner.

    `pending_q` and `urgency_Q` are virtual queues stored as nonnegative
    reals: the urgency queue accumulates the real-valued average demand, so
    integer storage would be lossy.  Physical task counts moved in a step
    (work, sub-delegations, arrivals) are integers.
    """

    id: int
    reputation_r: float            # in [0, 1]
    pending_q: float               # backlog of accepted-but-unfinished tasks
    urgency_Q: float               # accumulated delay pressure
    avg_demand_kappa_bar: float    # causal running mean of per-step arrivals
    availability_rho: float        # eagerness weight for taking new tasks
    unit_cost_c: float             # cost of training one task locally
    reserve_price_p_min: float     # floor below which the DO never prices
    rep_threshold_r_min: float     # minimum reputation accepted in a delegate
    theta_max: int                 # max tasks workable per step
    s_max: int                     # max tasks sub-delegated per step
    kappa_max: int                 # hard cap: arrivals per step stay below this
    alignment_epsilon: float       # promised-vs-delivered quality alignment
    positive_ratings_Mp: int       # positive ratings collected so far
    current_price_p: float         # most recently posted unit price
    data_size: int                 # local training samples held


@dataclass
class Task:
    """One federated-learning task instance held by a data owner.

    `unit_payment_p_tau` is the payment the *current holder* received for the
    task and `arrival_step` is when it entered the current holder's queue;
    both are rewritten when the task is sub-delegated.
    """

    task_id: int
    origin_mu: int
    unit_payment_p_tau: float
    arrival_step: int
    delegation_depth: int
    holder: int

    def __post_init__(self):
        if self.unit_payment_p_tau <= 0:
            raise ValueError("unit_payment_p_tau must be > 0")
        if self.delegation_depth < 0:
            raise ValueError("delegation_depth must be >= 0")


class TrustNetwork:
    """Undirected, irreflexive trust graph over data-owner ids 0..n_dos-1.

    `adjacency` is the symmetric boolean matrix and `neighbors[i]` the
    ascending ids DO i trusts; both are built once from the edge pairs.
    """

    def __init__(self, n_dos: int, edges=()):
        if n_dos < 1:
            raise ValueError("n_dos must be >= 1")
        pairs = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        outside = pairs[(pairs < 0) | (pairs >= n_dos)]
        if outside.size:
            raise ValueError(f"node {outside[0]} out of range")
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise ValueError("self loops are not allowed")
        adjacency = np.zeros((n_dos, n_dos), dtype=bool)
        adjacency[pairs[:, 0], pairs[:, 1]] = True
        adjacency |= adjacency.T
        self.adjacency = adjacency
        self.neighbors = [np.flatnonzero(row) for row in adjacency]

    @property
    def n_edges(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2


@dataclass
class StepDecision:
    """Joint per-step decision tuple a policy emits for one data owner."""

    accept_x: int
    price_p: float
    subdelegate_s: int
    work_theta: int
    price_degenerate: bool = False  # diagnostic: price rule fell back to the reserve


@dataclass
class MetricsRecord:
    """Per-step, per-DO observables; fields echo the post-step state."""

    step: int
    do_id: int
    utility_u: float
    pending_q: float
    urgency_Q: float
    accepted_kappa: int
    completed_theta: int
    subdelegated_s: int
    price_p: float
    reputation_r: float

    def to_csv_row(self) -> list[str]:
        return [
            str(self.step),
            str(self.do_id),
            f"{self.utility_u:.9g}",
            f"{self.pending_q:.9g}",
            f"{self.urgency_Q:.9g}",
            str(self.accepted_kappa),
            str(self.completed_theta),
            str(self.subdelegated_s),
            f"{self.price_p:.9g}",
            f"{self.reputation_r:.9g}",
        ]


def validate_state(state: DataOwnerState) -> ValidationResult:
    """Check every DataOwnerState invariant; report the first violation by field name."""
    if not (0.0 <= state.reputation_r <= 1.0):
        return ValidationResult(False, "reputation_r")
    if not (0.0 <= state.rep_threshold_r_min <= 1.0):
        return ValidationResult(False, "rep_threshold_r_min")
    if not (math.isfinite(state.pending_q) and state.pending_q >= 0.0):
        return ValidationResult(False, "pending_q")
    if not (math.isfinite(state.urgency_Q) and state.urgency_Q >= 0.0):
        return ValidationResult(False, "urgency_Q")
    if not (math.isfinite(state.avg_demand_kappa_bar) and state.avg_demand_kappa_bar >= 0.0):
        return ValidationResult(False, "avg_demand_kappa_bar")
    if state.availability_rho < 0.0:
        return ValidationResult(False, "availability_rho")
    if state.unit_cost_c < 0.0:
        return ValidationResult(False, "unit_cost_c")
    if state.reserve_price_p_min <= 0.0:
        return ValidationResult(False, "reserve_price_p_min")
    if state.current_price_p < state.reserve_price_p_min:
        return ValidationResult(False, "current_price_p")
    if state.theta_max < 0:
        return ValidationResult(False, "theta_max")
    if state.s_max < 0:
        return ValidationResult(False, "s_max")
    if state.kappa_max < 1:
        return ValidationResult(False, "kappa_max")
    if state.alignment_epsilon < 0.0:
        return ValidationResult(False, "alignment_epsilon")
    if state.positive_ratings_Mp < 0:
        return ValidationResult(False, "positive_ratings_Mp")
    return ValidationResult(True)
