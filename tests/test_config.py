import itertools
import math
import sys
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from aflsim.config import MEMORY_BUDGET, ConfigError, ScenarioConfig, resolve_config
from aflsim.market import MarketInvariantError
from aflsim.simcli import run_scenario

SECTIONS = ("constants", "do_params", "mu", "reputation", "market", "policy")


@pytest.mark.parametrize("section", ("config",) + SECTIONS)
def test_unknown_keys_rejected(section):
    raw = {"surprise": 1} if section == "config" else {section: {"surprise": 1}}
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == section


@pytest.mark.parametrize(
    "raw, field",
    [
        ({"n_dos": "abc"}, "n_dos"),
        ({"n_dos": None}, "n_dos"),
        ({"horizon_T": math.inf}, "horizon_T"),
        ({"market": [1]}, "market"),
        ([], "config"),
        ({"do_params": {"rho": ["a", 1]}}, "do_params.rho"),
        ({"do_params": {"rho_schedule": 5}}, "do_params.rho_schedule"),
        (
            {"do_params": {"rho_schedule": {"kind": "square", "period": "x"}}},
            "do_params.rho_schedule.period",
        ),
        ({"mu": {"strategies": 5}}, "mu.strategies"),
        ({"mu": {"gains": [1]}}, "mu.gains"),
        ({"policy": {"assignment": 5}}, "policy.assignment"),
        ({"seeds": [None]}, "seeds"),
        # Keys no schedule kind or MU strategy reads.
        (
            {"do_params": {"rho_schedule": {"kind": "square", "period": 25, "lowscale": 0.2}}},
            "do_params.rho_schedule",
        ),
        ({"do_params": {"rho_schedule": {"kind": "constant", "period": 25}}}, "do_params.rho_schedule"),
        ({"mu": {"gains": {"lin": 1.0, "bogus": 2}}}, "mu.gains"),
        ({"mu": {"gains": {"greedy": 3}}}, "mu.gains"),
        # Ints written as fractions are not truncated.
        ({"n_dos": 100.7}, "n_dos"),
        ({"seeds": [1.5, 2.2]}, "seeds"),
        ({"market": {"delegation_depth_max": 1.9}}, "market.delegation_depth_max"),
        ({"do_params": {"theta_max": [2, 3.5]}}, "do_params.theta_max"),
        (
            {"do_params": {"rho_schedule": {"kind": "square", "period": 7.5}}},
            "do_params.rho_schedule.period",
        ),
        # JSON booleans are not numbers.
        ({"n_dos": True}, "n_dos"),
        ({"seeds": [True]}, "seeds"),
        ({"trust_edge_prob": False}, "trust_edge_prob"),
        ({"mu": {"gains": {"lin": True}}}, "mu.gains"),
    ],
)
def test_wrong_types_name_field(raw, field):
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == field


def test_whole_numbers_resolve_as_ints():
    cfg = resolve_config({
        "n_dos": 100.0, "horizon_T": "7", "seeds": [1.0, "2"],
        "do_params": {"rho_schedule": {"kind": "square", "period": 25.0, "low_scale": 1}},
    })
    assert (cfg.n_dos, cfg.horizon_T, cfg.seeds) == (100, 7, (1, 2))
    assert cfg.do_params.rho_schedule == {"kind": "square", "period": 25, "low_scale": 1.0}
    assert type(cfg.do_params.rho_schedule["low_scale"]) is float


MAX = sys.float_info.max
# Runs in demand-model mode draw arrivals from means no config bound fixes in
# advance; the engine names a mean it cannot draw from.
DEMAND = {"market": {"arrival_mode": "demand-model"}}


@pytest.mark.parametrize(
    "raw, field",
    [
        ({"do_params": {"p_min": [0.0, 0.0]}}, "do_params.p_min"),
        ({"do_params": {"q0_payment_markup": [0.0, 1.0]}}, "do_params.q0_payment_markup"),
        ({"do_params": {"rho": [-1.0, 1.0]}}, "do_params.rho"),
        ({"do_params": {"unit_cost_frac": [-0.1, 0.1]}}, "do_params.unit_cost_frac"),
        ({"do_params": {"epsilon": [-1.0, 0.0]}}, "do_params.epsilon"),
        (
            {"do_params": {"rho_schedule": {"kind": "square", "period": 5, "low_scale": -0.5}}},
            "do_params.rho_schedule.low_scale",
        ),
        ({"do_params": {"rho": [math.nan, math.nan]}}, "do_params.rho"),
        ({"mu": {"budget_per_step": math.inf}}, "mu.budget_per_step"),
        ({"do_params": {"r0": [1.5, 1.5]}}, "do_params.r0"),
        ({"do_params": {"r_min": [-0.1, 0.5]}}, "do_params.r_min"),
        ({"do_params": {"theta_max": [-1, 2]}}, "do_params.theta_max"),
        ({"do_params": {"s_max": [-1, 2]}}, "do_params.s_max"),
        ({"do_params": {"q0": [-1, 2]}}, "do_params.q0"),
        ({"do_params": {"m_positive": [-1, 2]}}, "do_params.m_positive"),
        ({"do_params": {"kappa_hat": [0, 0]}}, "do_params.kappa_hat"),
        ({"do_params": {"s_max": [0, 2**63]}}, "do_params.s_max"),
        ({"market": {"r_floor": 0.0}}, "market.r_floor"),
        ({"mu": {"gains": {"lin": -1.0}}}, "mu.gains"),
        ({"mu": {"valuation_markup": [-1.0, 1.0]}}, "mu.valuation_markup"),
        ({"data_size_range": [-5, 5]}, "data_size_range"),
        ({"seeds": [-1]}, "seeds"),
        ({"constants": {"a0": -1.0}}, "constants.a0"),
        ({"constants": {"a2": -1.0}}, "constants.a2"),
        ({"constants": {"a3": -1.0}}, "constants.a3"),
        # Sizes past the memory budget, rejected before anything is allocated.
        ({"n_dos": 10**6}, "n_dos"),
        ({"do_params": {"q0": [0, 10**12]}}, "do_params.q0"),
        ({"n_dos": 8, "do_params": {"q0": [MEMORY_BUDGET // 8, MEMORY_BUDGET // 8]}}, "do_params.q0"),
        ({"horizon_T": 10**12}, "horizon_T"),
        # A random price cap of 2 * p_min_high * (1 + markup_max) that overflows.
        ({"policy": {"assignment": "rand-rand", "markup_max": 1e308}}, "policy.markup_max"),
        ({"policy": {"assignment": "ampp-rand", "markup_max": 1e308}}, "policy.markup_max"),
        # A p_min so large that no markup_max keeps that cap finite.
        ({"do_params": {"p_min": [1.0, 1e308]}}, "do_params.p_min"),
        # A lin price below the reserve, or past the largest float.
        ({"policy": {"assignment": "lin-rand", "lin_gain": 0.5}}, "policy.lin_gain"),
        ({"policy": {"assignment": "lin-rand", "lin_gain": 1e308}, "do_params": {"p_min": [1.0, 2.0]}}, "policy.lin_gain"),
        # A square wave's low availability past the largest float.
        ({"do_params": {"rho_schedule": {"kind": "square", "period": 1, "low_scale": 1e308}}}, "do_params.rho_schedule.low_scale"),
        # Prices each finite whose run sum over n_dos * horizon_T of them is not.
        ({"n_dos": 5, "horizon_T": 4, "policy": {"assignment": "lin-rand", "lin_gain": 1e308}}, "policy.lin_gain"),
        ({"n_dos": 5, "horizon_T": 4, "policy": {"assignment": "rand-rand", "markup_max": 1e307}}, "policy.markup_max"),
        # A price sum that is finite, with a utility sum of up to kappa_hat_high - 1 paid tasks a price that is not.
        (
            {
                "n_dos": 5, "horizon_T": 4, "policy": {"assignment": "lin-rand", "lin_gain": 7.4e306},
                "do_params": {"r0": [1.0, 1.0]}, "market": {"arrival_mode": "demand-model", "integerization": "round"},
            },
            "policy.lin_gain",
        ),
        # A training cost whose run sum over n_dos * horizon_T DO-steps is not finite.
        ({"n_dos": 5, "horizon_T": 4, "do_params": {"unit_cost_frac": [1e308, 1e308], "q0": [4, 4]}}, "do_params.unit_cost_frac"),
        (
            {
                "n_dos": 5, "horizon_T": 4, "policy": {"assignment": "pas-afl", "work_mode": "greedy"},
                "do_params": {"unit_cost_frac": [1e307, 1e307], "q0": [4, 4]},
            },
            "do_params.unit_cost_frac",
        ),
        # Configs that resolved and then overflowed in the run: an MU's bid sum or valuations,
        # the initial task payments, the greedy MU's rep / price key, and a Lyapunov price.
        ({"n_dos": 5, "horizon_T": 4, "mu": {"valuation_markup": [1e308, 1e308]}}, "mu.valuation_markup"),
        ({"n_dos": 5, "horizon_T": 4, "mu": {"valuation_markup": [MAX, MAX]}}, "mu.valuation_markup"),
        ({"n_dos": 5, "horizon_T": 4, "mu": {"valuation_markup": [MAX, MAX]}, **DEMAND}, "mu.valuation_markup"),
        ({"n_dos": 5, "horizon_T": 4, "do_params": {"q0_payment_markup": [MAX, MAX]}}, "do_params.q0_payment_markup"),
        ({"n_dos": 5, "horizon_T": 4, "do_params": {"q0_payment_markup": [MAX, MAX]}, **DEMAND}, "do_params.q0_payment_markup"),
        ({"n_dos": 5, "horizon_T": 4, "do_params": {"p_min": [5e-324, 5e-324]}}, "do_params.p_min"),
        ({"n_dos": 5, "horizon_T": 4, "do_params": {"rho": [5e-324, 5e-324]}}, "do_params.rho"),
        ({"n_dos": 5, "horizon_T": 4, "do_params": {"rho": [5e-324, 5e-324]}, **DEMAND}, "do_params.rho"),
        # The rho the step's non-finite-price guard test writes into a valid world as a fault.
        ({"n_dos": 5, "horizon_T": 4, "do_params": {"rho": [5e-324, 5e-324], "r0": [0.2, 0.2], "q0": [0, 4]}}, "do_params.rho"),
        (
            {
                "n_dos": 5, "horizon_T": 4, "do_params": {"rho": [1e-300, 1e-300], "r0": [1e-10, 1e-10], "q0": [0, 4]},
                "market": {"r_floor": 1e-10},
            },
            "do_params.rho",
        ),
        # A reputation at a floor this low prices q / (2 * rho * r_floor) at inf.
        ({"n_dos": 5, "horizon_T": 4, "do_params": {"r0": [0.0, 0.0]}, "market": {"r_floor": 5e-324}}, "market.r_floor"),
        # The trust graph's inputs, which generate_trust_network takes as given.
        ({"n_dos": 0}, "n_dos"),
        ({"trust_edge_prob": -0.1}, "trust_edge_prob"),
        # A rho_low of 0 beside a subnormal rho_high: a DO that draws u = 2**-53 prices q / (2 * rho * r) at inf.
        ({"n_dos": 5, "horizon_T": 4, "seeds": [1], "do_params": {"rho": [0.0, 1e-310], "q0": [4, 4]}}, "do_params.rho"),
        ({"n_dos": 5, "horizon_T": 4, "seeds": [1], "do_params": {"rho": [0.0, 1e-310], "q0": [4, 4]}, **DEMAND}, "do_params.rho"),
        ({"n_dos": 5, "horizon_T": 4, "seeds": [1], "do_params": {"rho": [0.0, 5e-324], "q0": [4, 4]}}, "do_params.rho"),
        ({"n_dos": 5, "horizon_T": 4, "seeds": [1], "do_params": {"rho": [0.0, 5e-324], "q0": [4, 4]}, **DEMAND}, "do_params.rho"),
        # Names that only these rows check: the rules and the MU walk read them unchecked.
        ({"policy": {"work_mode": "lazy"}}, "policy.work_mode"),
        ({"market": {"integerization": "ceil"}}, "market.integerization"),
        ({"mu": {"strategies": ["random", "nonsense"]}}, "mu.strategies"),
    ],
)
def test_out_of_bounds_values_name_field(raw, field):
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert err.value.field == field


def _paths(obj, name=""):
    """The dotted path of every field and section of a config."""
    for f in fields(obj):
        path = f"{name}.{f.name}" if name else f.name
        yield path
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _paths(value, path)


# n_dos and horizon_T size the run itself and are drawn small below.
PATHS = sorted(p for p in _paths(ScenarioConfig()) if p not in ("n_dos", "horizon_T"))
BAD = st.one_of(
    st.integers(max_value=-1),
    st.floats(max_value=-1e-9, allow_infinity=False),
    st.sampled_from([0, 0.0, math.nan, math.inf, -math.inf, 1e300]),
    st.integers(min_value=2**63, max_value=2**80),
    st.sampled_from(["abc", None, {}, True]),
)


def _rejected_by_name_or_runs_clean(mode, path, value, n_dos, horizon):
    """Resolve a small config with `value` at `path`, then run it: the config
    must be rejected naming `path` or a field under it, run its `horizon`
    steps clean, or stop on the demand model's expected-demand error."""
    raw = {"n_dos": n_dos, "horizon_T": horizon, "seeds": [1], "market": {"arrival_mode": mode}}
    *sections, key = path.split(".")
    node = raw
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = value
    try:
        cfg = resolve_config(raw)
    except ConfigError as err:
        assert err.field == path or err.field.startswith(path + "."), (err.field, path)
        return
    try:
        audited = run_scenario(cfg, cfg.seeds[0]).audit_checks
    except MarketInvariantError as err:
        assert cfg.market.arrival_mode == "demand-model" and "expected demand" in str(err)
        return
    assert audited == horizon


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    mode=st.sampled_from(["auction", "demand-model"]),
    path=st.sampled_from(PATHS),
    value=st.one_of(BAD, BAD.map(lambda v: [v, v])),
    n_dos=st.integers(1, 4),
    horizon=st.integers(1, 3),
)
def test_one_bad_field_is_rejected_by_name_or_runs_clean(mode, path, value, n_dos, horizon):
    _rejected_by_name_or_runs_clean(mode, path, value, n_dos, horizon)


# The largest and smallest magnitudes a float holds, where a product of
# config highs overflows or a quotient by a config low does.
EXTREMES = (1e300, 1e308, MAX, 1e-300, 5e-324)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_values_are_rejected_by_name_or_run_clean():
    """Every path at every extreme, alone, as a [v, v] pair and as a [0, v]
    range, in both arrival modes, on 5 DOs over 4 steps; every failing case
    is listed."""
    failed = []
    for mode, path, v in itertools.product(("auction", "demand-model"), PATHS, EXTREMES):
        for value in (v, [v, v], [0, v]):
            try:
                _rejected_by_name_or_runs_clean(mode, path, value, 5, 4)
            except Exception as err:
                failed.append((mode, path, value, repr(err)))
    assert not failed, "\n".join(map(str, failed))


@pytest.mark.parametrize(
    "raw, failure",
    [
        ({"constants": {"a0": 700.0}}, r"DO \d+ at step 0: expected demand \d"),
        ({"do_params": {"p_min": [1e20, 1e20]}}, r"DO \d+ at step 0: expected demand \d"),
        ({"constants": {"a0": 1000.0}}, "constants.a0"),
        ({"constants": {"a3": 1e300}}, "constants.a3"),
        ({"do_params": {"epsilon": [1e300, 1e300]}}, "do_params.epsilon"),
        ({"constants": {"a1": 110.0}, "do_params": {"r0": [0.0, 0.0]}}, "constants.a1"),
    ],
    ids=[
        "a0-700-poisson-mean",
        "p_min-1e20-poisson-mean",
        "a0-1000-exp-overflow",
        "a3-1e300-exp-overflow",
        "epsilon-1e300-exp-overflow",
        "a1-110-r0-0-underflow",
    ],
)
def test_demand_model_failures_are_named_not_raised_midway(raw, failure):
    raw = {"n_dos": 4, "horizon_T": 3, "seeds": [1], "policy": {"assignment": "pas-afl"}, **DEMAND, **raw}
    if not failure.startswith("DO "):
        with pytest.raises(ConfigError) as err:
            resolve_config(raw)
        assert err.value.field == failure
        return
    with pytest.raises(MarketInvariantError, match=failure):
        run_scenario(resolve_config(raw), 1)
