"""Scenario configuration: schema, defaults, loading, and validation.

Configs are human-editable JSON.  Every field has a default, so `{}` is a
valid scenario; the resolved config is echoed into each run's manifest so
experiments stay self-describing.  Per-DO numeric parameters are given as
[low, high] ranges sampled per data owner; a degenerate range [v, v] pins the
value exactly, which the tests use for hand-sized scenarios.
"""

import json
from dataclasses import dataclass, field, asdict

from .core import MarketConstants
from .policy_baselines import POLICIES

MU_STRATEGY_NAMES = (
    "random",
    "greedy",
    "lin",
    "bmub",
    "fedbidder-simple",
    "fedbidder-complex",
)


class ConfigError(ValueError):
    """Configuration problem; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class DoParamRanges:
    """Per-DO parameter distributions, each sampled uniformly from [lo, hi]."""

    p_min: tuple[float, float] = (0.8, 1.2)
    unit_cost_frac: tuple[float, float] = (0.2, 0.35)   # cost as a fraction of own reserve
    rho: tuple[float, float] = (15.0, 30.0)             # availability weight (drift-penalty tradeoff)
    r0: tuple[float, float] = (0.45, 0.9)               # initial reputation
    r_min: tuple[float, float] = (0.3, 0.5)             # delegate reputation threshold
    theta_max: tuple[int, int] = (2, 3)
    s_max: tuple[int, int] = (2, 5)
    kappa_hat: tuple[int, int] = (6, 10)                # per-step arrival hard cap
    epsilon: tuple[float, float] = (0.0, 1.0)
    m_positive: tuple[int, int] = (1, 20)               # initial positive ratings
    q0: tuple[int, int] = (0, 14)                       # initial backlog carried into the market
    q0_payment_markup: tuple[float, float] = (1.0, 1.3)
    rho_schedule: dict = field(default_factory=lambda: {"kind": "constant"})


@dataclass(frozen=True)
class MuParams:
    budget_per_step: float = 60.0
    valuation_markup: tuple[float, float] = (1.05, 1.55)  # times the DO reserve price
    strategies: tuple[str, ...] = MU_STRATEGY_NAMES
    # Bid gains (times the DO reserve) for the reserve-proportional strategies.
    gains: dict = field(
        default_factory=lambda: {
            "lin": 1.25,
            "bmub": 1.45,
            "fedbidder-simple": 1.1,
            "fedbidder-complex": 1.35,
        }
    )


@dataclass(frozen=True)
class ReputationConfig:
    ema_beta: float = 0.9
    on_time_window: int = 8  # steps a task may wait at a holder and still count on time


@dataclass(frozen=True)
class MarketParams:
    delegation_depth_max: int = 3
    kappa_bar_prior: float = 1.0   # average-demand estimate before any arrivals
    r_floor: float = 1e-3
    arrival_mode: str = "auction"  # "auction" | "demand-model"
    integerization: str = "poisson"  # arrival rounding in demand-model mode


@dataclass(frozen=True)
class PolicyParams:
    assignment: str | tuple[str, ...] = "pas-afl"  # one name, or one name per DO
    work_mode: str = "greedy"
    markup_max: float = 1.0
    lin_gain: float = 1.5


@dataclass(frozen=True)
class ScenarioConfig:
    n_dos: int = 100
    n_mus: int = 6
    horizon_T: int = 500
    trust_edge_prob: float = 0.7
    data_size_range: tuple[int, int] = (1000, 10000)
    constants: MarketConstants = field(
        default_factory=lambda: MarketConstants(a0=0.1, a1=1.0, a2=0.3, a3=0.5, horizon_T=500)
    )
    do: DoParamRanges = field(default_factory=DoParamRanges)
    mu: MuParams = field(default_factory=MuParams)
    reputation: ReputationConfig = field(default_factory=ReputationConfig)
    market: MarketParams = field(default_factory=MarketParams)
    policy: PolicyParams = field(default_factory=PolicyParams)
    seeds: tuple[int, ...] = tuple(range(1, 11))
    output_dir: str = "runs_out"

    def policy_name_for(self, do_id: int) -> str:
        if isinstance(self.policy.assignment, str):
            return self.policy.assignment
        return self.policy.assignment[do_id]


def _as_range(name, raw, kind=float):
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise ConfigError(name, "expected a [low, high] pair")
    lo, hi = kind(raw[0]), kind(raw[1])
    if lo > hi:
        raise ConfigError(name, "low bound exceeds high bound")
    return (lo, hi)


def _check_known_keys(name, raw, allowed):
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ConfigError(name, f"unknown keys: {sorted(unknown)}")


def resolve_config(raw: dict) -> ScenarioConfig:
    """Fill defaults, coerce types, and validate a raw config dictionary."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "top-level value must be an object")
    _check_known_keys(
        "config",
        raw,
        [
            "n_dos",
            "n_mus",
            "horizon_T",
            "trust_edge_prob",
            "data_size_range",
            "constants",
            "do_params",
            "mu",
            "reputation",
            "market",
            "policy",
            "seeds",
            "output_dir",
        ],
    )

    n_dos = int(raw.get("n_dos", 100))
    if n_dos < 1:
        raise ConfigError("n_dos", "must be >= 1")
    horizon = int(raw.get("horizon_T", 500))
    if horizon < 1:
        raise ConfigError("horizon_T", "must be >= 1")
    edge_prob = float(raw.get("trust_edge_prob", 0.7))
    if not 0.0 <= edge_prob <= 1.0:
        raise ConfigError("trust_edge_prob", "must lie in [0, 1]")
    data_size_range = _as_range("data_size_range", raw.get("data_size_range", [1000, 10000]), int)

    const_raw = dict(raw.get("constants", {}))
    _check_known_keys("constants", const_raw, ["a0", "a1", "a2", "a3"])
    try:
        constants = MarketConstants(
            a0=float(const_raw.get("a0", 0.1)),
            a1=float(const_raw.get("a1", 1.0)),
            a2=float(const_raw.get("a2", 0.3)),
            a3=float(const_raw.get("a3", 0.5)),
            horizon_T=horizon,
        )
    except ValueError as exc:
        raise ConfigError("constants", str(exc)) from None

    do_raw = dict(raw.get("do_params", {}))
    do_defaults = DoParamRanges()
    _check_known_keys("do_params", do_raw, list(asdict(do_defaults)))
    do_kwargs = {}
    for fname, default in asdict(do_defaults).items():
        if fname == "rho_schedule":
            continue
        kind = int if isinstance(default[0], int) else float
        do_kwargs[fname] = _as_range(f"do_params.{fname}", do_raw.get(fname, list(default)), kind)
    schedule = dict(do_raw.get("rho_schedule", {"kind": "constant"}))
    if schedule.get("kind") not in ("constant", "square"):
        raise ConfigError("do_params.rho_schedule", "kind must be 'constant' or 'square'")
    if schedule.get("kind") == "square":
        if int(schedule.get("period", 0)) < 1:
            raise ConfigError("do_params.rho_schedule", "square schedule needs period >= 1")
        schedule.setdefault("low_scale", 0.5)
    do_params = DoParamRanges(rho_schedule=schedule, **do_kwargs)

    mu_raw = dict(raw.get("mu", {}))
    _check_known_keys("mu", mu_raw, ["budget_per_step", "valuation_markup", "strategies", "gains"])
    strategies = tuple(mu_raw.get("strategies", MU_STRATEGY_NAMES))
    for s in strategies:
        if s not in MU_STRATEGY_NAMES:
            raise ConfigError("mu.strategies", f"unknown strategy {s!r}")
    gains = {**MuParams().gains, **dict(mu_raw.get("gains", {}))}
    mu_params = MuParams(
        budget_per_step=float(mu_raw.get("budget_per_step", 60.0)),
        valuation_markup=_as_range("mu.valuation_markup", mu_raw.get("valuation_markup", [1.05, 1.55])),
        strategies=strategies,
        gains=gains,
    )
    if mu_params.budget_per_step < 0:
        raise ConfigError("mu.budget_per_step", "must be >= 0")

    n_mus = int(raw.get("n_mus", len(strategies)))
    if n_mus != len(strategies):
        raise ConfigError("n_mus", "must equal the length of the MU strategy roster")

    rep_raw = dict(raw.get("reputation", {}))
    _check_known_keys("reputation", rep_raw, ["ema_beta", "on_time_window"])
    rep = ReputationConfig(
        ema_beta=float(rep_raw.get("ema_beta", 0.9)),
        on_time_window=int(rep_raw.get("on_time_window", 8)),
    )
    if not 0.0 <= rep.ema_beta < 1.0:
        raise ConfigError("reputation.ema_beta", "must lie in [0, 1)")
    if rep.on_time_window < 0:
        raise ConfigError("reputation.on_time_window", "must be >= 0")

    market_raw = dict(raw.get("market", {}))
    _check_known_keys(
        "market",
        market_raw,
        ["delegation_depth_max", "kappa_bar_prior", "r_floor", "arrival_mode", "integerization"],
    )
    market = MarketParams(
        delegation_depth_max=int(market_raw.get("delegation_depth_max", 3)),
        kappa_bar_prior=float(market_raw.get("kappa_bar_prior", 1.0)),
        r_floor=float(market_raw.get("r_floor", 1e-3)),
        arrival_mode=str(market_raw.get("arrival_mode", "auction")),
        integerization=str(market_raw.get("integerization", "poisson")),
    )
    if market.delegation_depth_max < 0:
        raise ConfigError("market.delegation_depth_max", "must be >= 0")
    if market.kappa_bar_prior < 0:
        raise ConfigError("market.kappa_bar_prior", "must be >= 0")
    if market.arrival_mode not in ("auction", "demand-model"):
        raise ConfigError("market.arrival_mode", "must be 'auction' or 'demand-model'")
    if market.integerization not in ("poisson", "round"):
        raise ConfigError("market.integerization", "must be 'poisson' or 'round'")

    policy_raw = dict(raw.get("policy", {}))
    _check_known_keys("policy", policy_raw, ["assignment", "work_mode", "markup_max", "lin_gain"])
    assignment = policy_raw.get("assignment", "pas-afl")
    if isinstance(assignment, str):
        if assignment not in POLICIES:
            raise ConfigError("policy.assignment", f"unknown policy {assignment!r}")
    else:
        assignment = tuple(assignment)
        if len(assignment) != n_dos:
            raise ConfigError("policy.assignment", "per-DO list must have one name per DO")
        for name in assignment:
            if name not in POLICIES:
                raise ConfigError("policy.assignment", f"unknown policy {name!r}")
    policy = PolicyParams(
        assignment=assignment,
        work_mode=str(policy_raw.get("work_mode", "greedy")),
        markup_max=float(policy_raw.get("markup_max", 1.0)),
        lin_gain=float(policy_raw.get("lin_gain", 1.5)),
    )
    if policy.work_mode not in ("greedy", "threshold"):
        raise ConfigError("policy.work_mode", "must be 'greedy' or 'threshold'")
    if policy.markup_max <= 0:
        raise ConfigError("policy.markup_max", "must be > 0")
    if policy.lin_gain <= 0:
        raise ConfigError("policy.lin_gain", "must be > 0")

    seeds_raw = raw.get("seeds", list(range(1, 11)))
    if not isinstance(seeds_raw, (list, tuple)) or len(seeds_raw) == 0:
        raise ConfigError("seeds", "seed list must be nonempty")
    seeds = tuple(int(s) for s in seeds_raw)
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds", "seeds must be unique")

    return ScenarioConfig(
        n_dos=n_dos,
        n_mus=n_mus,
        horizon_T=horizon,
        trust_edge_prob=edge_prob,
        data_size_range=data_size_range,
        constants=constants,
        do=do_params,
        mu=mu_params,
        reputation=rep,
        market=market,
        policy=policy,
        seeds=seeds,
        output_dir=str(raw.get("output_dir", "runs_out")),
    )


def load_config(path) -> ScenarioConfig:
    """Parse and validate a JSON scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return resolve_config(raw)


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Resolved config as a JSON-serializable dictionary (manifest payload)."""
    payload = asdict(cfg)
    payload["constants"].pop("horizon_T")  # mirrored from the top-level field
    payload["do_params"] = payload.pop("do")
    return payload
