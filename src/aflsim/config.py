"""Scenario configuration: schema, defaults, loading, and validation.

Configs are human-editable JSON.  The dataclasses below are the schema: each
field's name and default are written there and nowhere else, so `{}` is a
valid scenario, and `resolve_config` reads every field by the dataclass that
declares it.  The resolved config is echoed into each run's manifest so
experiments stay self-describing.  Per-DO numeric parameters are given as
[low, high] ranges sampled per data owner; a degenerate range [v, v] pins the
value exactly, which the tests use for hand-sized scenarios.
"""

import json
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import partial

import numpy as np

from .core import TASK
from .policy_baselines import POLICIES

MU_STRATEGY_NAMES = (
    "random",
    "greedy",
    "lin",
    "bmub",
    "fedbidder-simple",
    "fedbidder-complex",
)


# The memory, in bytes, that a config may ask the engine to allocate for each
# of the structures its size fields set, checked before anything is built:
# `n_dos` sets the n_dos**2 trust adjacency, as booleans, floats and int16 or
# narrower neighbour ids (ADJACENCY_BYTES per pair; a step's quotes gather at
# most one float per pair); `n_dos * do_params.q0` sets the initial task queue
# (TASK.itemsize bytes per task); `horizon_T` the two per-step float series (SERIES_BYTES per step).
MEMORY_BUDGET = 2**30
ADJACENCY_BYTES = np.dtype(bool).itemsize + np.dtype(float).itemsize + np.dtype(np.int16).itemsize
SERIES_BYTES = 2 * np.dtype(float).itemsize


class ConfigError(ValueError):
    """Configuration problem; `field` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass(frozen=True)
class MarketConstants:
    """Demand-model coefficients: expected offers are exp(a0 + a3*eps) * Mp**a2 * p / r**a1."""

    a0: float = 0.1
    a1: float = 1.0   # reputation exponent
    a2: float = 0.3
    a3: float = 0.5


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
    r_floor: float = 1e-3          # lowest reputation; guards the demand model's 1/r**a1
    arrival_mode: str = "auction"  # "auction" | "demand-model"
    integerization: str = "poisson"  # arrival rounding in demand-model mode


@dataclass(frozen=True)
class PolicyParams:
    assignment: str | tuple[str, ...] = "pas-afl"  # one name, or one name per DO
    work_mode: str = "greedy"
    markup_max: float = 1.0  # random prices draw up to a markup of this on the reserve
    lin_gain: float = 1.5    # the linear rule's price as a multiple of the reserve


@dataclass(frozen=True)
class ScenarioConfig:
    n_dos: int = 100
    horizon_T: int = 500
    trust_edge_prob: float = 0.7
    data_size_range: tuple[int, int] = (1000, 10000)
    constants: MarketConstants = field(default_factory=MarketConstants)
    do_params: DoParamRanges = field(default_factory=DoParamRanges)
    mu: MuParams = field(default_factory=MuParams)
    reputation: ReputationConfig = field(default_factory=ReputationConfig)
    market: MarketParams = field(default_factory=MarketParams)
    policy: PolicyParams = field(default_factory=PolicyParams)
    seeds: tuple[int, ...] = tuple(range(1, 11))

    def with_assignment(self, name: str) -> "ScenarioConfig":
        """This config with every DO on the registry policy `name`."""
        return replace(self, policy=replace(self.policy, assignment=name))

    def policy_name_for(self, do_id: int) -> str:
        if isinstance(self.policy.assignment, str):
            return self.policy.assignment
        return self.policy.assignment[do_id]


def _as(kind, path, value):
    """`value` coerced to `kind`, or a ConfigError naming `path`; floats must be
    finite, a number read as an int must be a whole one, and a JSON boolean is
    not a number."""
    if isinstance(value, bool):
        raise ConfigError(path, f"expected {kind.__name__}, got {value!r}")
    try:
        coerced = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(path, f"expected {kind.__name__}, got {value!r}") from None
    if kind is int and isinstance(value, float) and coerced != value:
        raise ConfigError(path, f"expected int, got {value!r}")
    if kind is float and not math.isfinite(coerced):
        raise ConfigError(path, "must be finite")
    return coerced


def _as_range(path, raw, kind=float):
    if not (isinstance(raw, (list, tuple)) and len(raw) == 2):
        raise ConfigError(path, "expected a [low, high] pair")
    lo, hi = _as(kind, path, raw[0]), _as(kind, path, raw[1])
    if lo > hi:
        raise ConfigError(path, "low bound exceeds high bound")
    if kind is int and hi >= 2**63:  # numpy draws the per-DO values as int64
        raise ConfigError(path, "must be below 2**63")
    return (lo, hi)


def _as_tuple(kind, path, raw):
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(path, "expected a list")
    return tuple(_as(kind, path, item) for item in raw)


def _as_object(path, raw, known=None):
    """`raw` as a JSON object whose keys, when `known` is given, all lie in it."""
    if not isinstance(raw, dict):
        raise ConfigError(path or "config", "expected a JSON object")
    unknown = set(raw).difference(raw if known is None else known)
    if unknown:
        raise ConfigError(path or "config", f"unknown keys: {sorted(unknown)}")
    return raw


def _section(cls, name, raw, **given):
    """The dataclass `cls` read from the JSON object `raw` found at `name`.

    A field missing from `raw` keeps its dataclass default.  A present one is
    resolved by its function in `given`, called with (path, value), or else
    coerced to its default's type: a nested section recursively, a tuple as a
    [low, high] range.
    """
    defaults = cls()
    _as_object(name, raw, [f.name for f in fields(cls)])
    values = {}
    for key, value in raw.items():
        path = f"{name}.{key}" if name else key
        default = getattr(defaults, key)
        if key in given:
            values[key] = given[key](path, value)
        elif is_dataclass(default):
            values[key] = _section(type(default), path, value)
        elif isinstance(default, tuple):
            values[key] = _as_range(path, value, type(default[0]))
        else:
            values[key] = _as(type(default), path, value)
    return replace(defaults, **values)


def _rho_schedule(path, raw):
    """The schedule with only the keys its kind reads: a square wave's period
    as an int and its low_scale as a float, 0.5 when not given."""
    kind = _as_object(path, raw).get("kind")
    if kind == "constant":
        return dict(_as_object(path, raw, ["kind"]))
    if kind != "square":
        raise ConfigError(path, "kind must be 'constant' or 'square'")
    _as_object(path, raw, ["kind", "period", "low_scale"])
    return {
        "kind": kind,
        "period": _as(int, f"{path}.period", raw.get("period", 0)),
        "low_scale": _as(float, f"{path}.low_scale", raw.get("low_scale", 0.5)),
    }


def _gains(path, raw):
    """The default gains, overridden per strategy that bids by a gain; the values stay as written."""
    defaults = MuParams().gains
    return {**defaults, **_as_object(path, raw, defaults)}


def _assignment(path, raw):
    return raw if isinstance(raw, str) else _as_tuple(str, path, raw)


def _checks(cfg: ScenarioConfig):
    """(field, ok, message) for every constraint a resolved config must meet, in
    order; the overflow rows come last, formed once every row before them holds."""
    do, mu, market, policy, c = cfg.do_params, cfg.mu, cfg.market, cfg.policy, cfg.constants
    schedule = do.rho_schedule
    square = schedule["kind"] == "square"
    names = (policy.assignment,) if isinstance(policy.assignment, str) else policy.assignment
    budget = f"must fit the {MEMORY_BUDGET}-byte memory budget"
    # Only the demand model evaluates exp(a0 + a3*eps) and r**a1; an overflow names the larger term, then factor.
    demand = market.arrival_mode == "demand-model"
    eps_term = c.a3 * do.epsilon[1]
    exp_field = "constants.a0" if c.a0 >= eps_term else "constants.a3" if c.a3 >= do.epsilon[1] else "do_params.epsilon"
    yield from [
        ("n_dos", cfg.n_dos >= 1, "must be >= 1"),
        ("n_dos", cfg.n_dos**2 * ADJACENCY_BYTES <= MEMORY_BUDGET, f"its trust adjacency {budget}"),
        ("horizon_T", cfg.horizon_T >= 1, "must be >= 1"),
        ("horizon_T", cfg.horizon_T * SERIES_BYTES <= MEMORY_BUDGET, f"its per-step series {budget}"),
        ("trust_edge_prob", 0.0 <= cfg.trust_edge_prob <= 1.0, "must lie in [0, 1]"),
        ("data_size_range", cfg.data_size_range[0] >= 0, "must be >= 0"),
        ("constants.a0", c.a0 >= 0, "must be >= 0"),
        ("constants.a1", c.a1 > 0, "must be > 0"),
        ("constants.a2", c.a2 >= 0, "must be >= 0"),
        ("constants.a3", c.a3 >= 0, "must be >= 0"),
        ("do_params.p_min", do.p_min[0] > 0, "must be > 0"),
        ("do_params.unit_cost_frac", do.unit_cost_frac[0] >= 0, "must be >= 0"),
        ("do_params.rho", do.rho[0] >= 0, "must be >= 0"),
        ("do_params.r0", 0 <= do.r0[0] and do.r0[1] <= 1, "must lie in [0, 1]"),
        ("do_params.r_min", 0 <= do.r_min[0] and do.r_min[1] <= 1, "must lie in [0, 1]"),
        ("do_params.theta_max", do.theta_max[0] >= 0, "must be >= 0"),
        ("do_params.s_max", do.s_max[0] >= 0, "must be >= 0"),
        ("do_params.kappa_hat", do.kappa_hat[0] >= 1, "must be >= 1"),
        ("do_params.epsilon", do.epsilon[0] >= 0, "must be >= 0"),
        ("do_params.m_positive", do.m_positive[0] >= 0, "must be >= 0"),
        ("do_params.q0", do.q0[0] >= 0, "must be >= 0"),
        ("do_params.q0", cfg.n_dos * do.q0[1] * TASK.itemsize <= MEMORY_BUDGET, f"its initial task queue {budget}"),
        ("do_params.q0_payment_markup", do.q0_payment_markup[0] > 0, "must be > 0"),
        ("do_params.rho_schedule.period", not square or schedule["period"] >= 1, "must be >= 1"),
        ("do_params.rho_schedule.low_scale", not square or schedule["low_scale"] >= 0, "must be >= 0"),
        ("mu.budget_per_step", mu.budget_per_step >= 0, "must be >= 0"),
        ("mu.valuation_markup", mu.valuation_markup[0] >= 0, "must be >= 0"),
        ("mu.strategies", all(s in MU_STRATEGY_NAMES for s in mu.strategies), f"unknown strategy in {list(mu.strategies)}"),
        ("mu.gains", all(isinstance(g, (int, float)) and not isinstance(g, bool) and 0 < g < math.inf for g in mu.gains.values()), "must be finite numbers > 0"),
        ("reputation.ema_beta", 0.0 <= cfg.reputation.ema_beta < 1.0, "must lie in [0, 1)"),
        ("reputation.on_time_window", cfg.reputation.on_time_window >= 0, "must be >= 0"),
        ("market.delegation_depth_max", market.delegation_depth_max >= 0, "must be >= 0"),
        ("market.kappa_bar_prior", market.kappa_bar_prior >= 0, "must be >= 0"),
        ("market.r_floor", market.r_floor > 0, "must be > 0"),
        ("market.arrival_mode", market.arrival_mode in ("auction", "demand-model"), "must be 'auction' or 'demand-model'"),
        ("market.integerization", market.integerization in ("poisson", "round"), "must be 'poisson' or 'round'"),
        ("policy.assignment", all(n in POLICIES for n in names), f"unknown policy in {list(names)}"),
        ("policy.assignment", isinstance(policy.assignment, str) or len(names) == cfg.n_dos, "per-DO list must have one name per DO"),
        ("policy.work_mode", policy.work_mode in ("greedy", "threshold"), "must be 'greedy' or 'threshold'"),
        ("policy.markup_max", policy.markup_max > 0, "must be > 0"),
        ("policy.lin_gain", policy.lin_gain >= 1, "must be >= 1, or a lin price falls below the reserve"),
        ("seeds", len(cfg.seeds) > 0, "seed list must be nonempty"),
        ("seeds", len(set(cfg.seeds)) == len(cfg.seeds), "seeds must be unique"),
        ("seeds", all(s >= 0 for s in cfg.seeds), "seeds must be >= 0"),
        (
            exp_field,
            not demand or c.a0 + eps_term <= math.log(sys.float_info.max),
            "a0 + a3 * epsilon_high must not overflow exp() in demand-model mode",
        ),
        (
            "constants.a1",
            not demand or c.a1 <= 0 or not 0 < market.r_floor < 1 or market.r_floor**c.a1 > 0,
            "r_floor ** a1 must not underflow to 0 in demand-model mode",
        ),
    ]
    # The products a run forms from the config's highs and lows, as {field: factor}; one that is not
    # finite names its largest factor, and one the run never forms in this mode is left empty.
    n, T, p_min, scale = cfg.n_dos, cfg.horizon_T, do.p_min[1], schedule.get("low_scale", 1.0)
    # The least positive rho a DO draws: rho_low, or above a rho_low of 0 the draw at u = 2**-53.
    least_rho = do.rho[0] if do.rho[0] > 0 else max(do.rho[1] * 2**-53, math.ulp(0.0))
    rand = 2.0 * (1.0 + policy.markup_max)  # price_rand draws up to 2 * p_min * (1 + markup_max)
    markup = {"policy.markup_max": rand} if rand >= policy.lin_gain else {"policy.lin_gain": policy.lin_gain}
    products = {
        # A DO-step is paid a price times reputation (<= 1) for up to kappa_hat_high - 1 tasks, and works up to theta_max_high.
        "n_dos * horizon_T * max(1, kappa_hat_high - 1) * p_min_high * max(2 * (1 + markup_max), lin_gain)": {
            "n_dos": n, "horizon_T": T, "do_params.kappa_hat": max(1, do.kappa_hat[1] - 1), "do_params.p_min": p_min, **markup,
        },
        "n_dos * horizon_T * max(1, theta_max_high) * unit_cost_frac_high * p_min_high": {
            "n_dos": n, "horizon_T": T, "do_params.theta_max": max(1, do.theta_max[1]),
            "do_params.unit_cost_frac": do.unit_cost_frac[1], "do_params.p_min": p_min,
        },
        # A valuation reaches 1.1 * valuation_markup * p_min; an auction MU sums a bid per DO, and keys greedy bids on rep / price.
        "n_dos * 1.1 * valuation_markup_high * p_min_high": {
            "n_dos": 1 if demand else n, "mu.valuation_markup": 1.1 * mu.valuation_markup[1], "do_params.p_min": p_min,
        },
        "1 / p_min_low": {} if demand else {"do_params.p_min": 1 / do.p_min[0]},
        "q0_payment_markup_high * p_min_high": {"do_params.q0_payment_markup": do.q0_payment_markup[1], "do_params.p_min": p_min},
        # The price sum adds n_dos * horizon_T Lyapunov prices q / (2 * rho * r), each q at most q0_high
        # plus horizon_T * (kappa_hat_high - 1) admitted tasks.
        "n_dos * horizon_T * (q0_high + horizon_T * (kappa_hat_high - 1)) / (2 * least_positive_rho * min(1, low_scale) * r_floor)": {
            "n_dos": n, "horizon_T": T, "do_params.q0": do.q0[1] + T * (do.kappa_hat[1] - 1), "do_params.rho": 1 / (2 * least_rho),
            "do_params.rho_schedule.low_scale": 1 / min(1.0, scale), "market.r_floor": 1 / market.r_floor,
        } if do.rho[1] > 0 and scale > 0 else {},  # price_is_degenerate flags a DO at rho 0
        "rho_high * low_scale": {"do_params.rho": do.rho[1], "do_params.rho_schedule.low_scale": scale},
    }
    for product, factors in products.items():
        if factors:
            yield max(factors, key=factors.get), math.isfinite(math.prod(factors.values())), f"{product} must be finite"


def resolve_config(raw: dict) -> ScenarioConfig:
    """Fill defaults, coerce types, and validate a raw config dictionary."""
    cfg = _section(
        ScenarioConfig,
        "",
        raw,
        do_params=partial(_section, DoParamRanges, rho_schedule=_rho_schedule),
        mu=partial(_section, MuParams, strategies=partial(_as_tuple, str), gains=_gains),
        policy=partial(_section, PolicyParams, assignment=_assignment),
        seeds=partial(_as_tuple, int),
    )
    for path, ok, message in _checks(cfg):
        if not ok:
            raise ConfigError(path, message)
    return cfg


def load_config(path) -> ScenarioConfig:
    """Parse and validate a JSON scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError("config", f"not UTF-8: byte {exc.object[exc.start]:#04x} at offset {exc.start}") from None
    except RecursionError:
        raise ConfigError("config", "nested deeper than the JSON parser can read") from None
    return resolve_config(raw)
