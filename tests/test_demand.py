"""The demand model: `market._expected_demand` on `STATE` rows, and the
arrivals `market._demand_model_arrivals` draws around it."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aflsim import market
from aflsim.config import MarketConstants, resolve_config
from aflsim.market import build_world
from helpers import R_FLOOR, dense, make_state, state_columns


def consts(a0=0.0, a1=1.0, a2=0.0, a3=0.0):
    return MarketConstants(a0=a0, a1=a1, a2=a2, a3=a3)


def demand(c, price, reputation, epsilon=0.0, mp=1, r_floor=R_FLOOR) -> np.ndarray:
    """`market._expected_demand` of one DO per price, each a `make_state`
    record with the given reputation, epsilon and Mp (scalars or columns)."""
    price = np.atleast_1d(np.asarray(price, dtype=float))
    states = state_columns(*[make_state()] * len(price))
    states["reputation_r"], states["alignment_epsilon"], states["positive_ratings_Mp"] = reputation, epsilon, mp
    return market._expected_demand(c, r_floor, states, price)


# At price 1 and reputation 1 the expected demand is the multiplier
# exp(a0 + a3*eps) * Mp**a2 itself.


def test_zeta_identity_case():
    assert demand(consts(a0=0.0, a3=0.0, a2=1.0), 1.0, 1.0, 0.0, 1).tolist() == [1.0]


def test_zeta_hand_value():
    # exp(1 + 2*0.5) * 4**0.5 = 2 * e**2
    value = demand(consts(a0=1.0, a3=2.0, a2=0.5), 1.0, 1.0, 0.5, 4)
    assert value.tolist() == pytest.approx([14.7781121978613], rel=1e-12)


def test_zeta_zero_ratings_kill_multiplier():
    assert demand(consts(a2=1.0), 1.0, 1.0, 0.0, 0).tolist() == [0.0]


def test_zeta_zero_ratings_with_zero_exponent():
    # convention 0**0 == 1, so the exponential survives
    assert demand(consts(a0=1.0, a2=0.0), 1.0, 1.0, 0.0, 0).tolist() == pytest.approx([math.e])


# With a0 = a3 = 0 and a2 = 1 the multiplier is Mp exactly.


def test_expected_demand_unit_denominator():
    assert demand(consts(), 2.0, 1.0).tolist() == [2.0]


def test_expected_demand_hand_value():
    # 3 * 2 / 0.25**0.5 = 6 / 0.5
    assert demand(consts(a1=0.5, a2=1.0), 2.0, 0.25, mp=3).tolist() == pytest.approx([12.0])


def test_expected_demand_zero_price():
    assert demand(consts(a1=2.0, a2=1.0), 0.0, 0.5, mp=7).tolist() == [0.0]


def test_expected_demand_uses_reputation_floor():
    spiky = demand(consts(), 1.0, 0.0, r_floor=1e-3)
    assert np.isfinite(spiky).all()
    assert spiky.tolist() == pytest.approx([1000.0])


def test_demand_monotone_in_price_and_reputation():
    rng = np.random.default_rng(42)
    for _ in range(100):
        r = rng.uniform(1e-3, 1.0, 10)
        z = rng.uniform(0.1, 5.0, 10)
        a1 = float(rng.uniform(0.2, 2.0))
        p = rng.uniform(0.1, 10.0, 10)
        c, eps = consts(a1=a1, a3=1.0), np.log(z)  # multiplier exp(log z) = z
        assert (demand(c, p * 1.01, r, eps) > demand(c, p, r, eps)).all()
        r_hi = np.minimum(1.0, r * 1.01 + 1e-6)
        assert (demand(c, p, r_hi, eps) < demand(c, p, r, eps)).all()


def test_demand_matches_loglinear_form():
    # ln f == a0 + a2 ln Mp + a3 eps - a1 ln r + ln p for r above the floor
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a0, a2, a3 = rng.uniform(0.0, 1.5, size=3)
        a1 = float(rng.uniform(0.2, 2.0))
        eps = float(rng.uniform(0.0, 2.0))
        mp = int(rng.integers(1, 200))
        r = float(rng.uniform(1e-3, 1.0))
        p = float(rng.uniform(0.01, 20.0))
        c = MarketConstants(a0=float(a0), a1=a1, a2=float(a2), a3=float(a3))
        [f] = demand(c, p, r, eps, mp)
        expected_log = a0 + a2 * math.log(mp) + a3 * eps - a1 * math.log(r) + math.log(p)
        assert math.log(f) == pytest.approx(expected_log, rel=1e-12, abs=1e-12)


def scalar_demand(c, price, reputation, epsilon, mp, r_floor):
    """One DO's expected demand in Python floats, as the formulas read."""
    return math.exp(c.a0 + c.a3 * epsilon) * float(mp) ** c.a2 * price / max(reputation, r_floor) ** c.a1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(
        st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 1.0), st.floats(0.0, 2.0), st.integers(0, 10**6)),
        min_size=1,
        max_size=8,
    ),
    # Mostly ordinary coefficients, then ones that overflow exp or pow or
    # underflow r ** a1 to 0.
    a0=st.one_of(st.floats(0.0, 3.0), st.just(720.0)),
    a1=st.one_of(st.floats(0.2, 2.0), st.sampled_from([120.0, 1100.0])),
    a2=st.one_of(st.floats(0.0, 1.0), st.just(60.0)),
    a3=st.floats(0.0, 1.0),
    r_floor=st.sampled_from([1e-3, 0.5, 2.0]),
)
def test_elementwise_demand_equals_the_scalar_formula_bit_for_bit(rows, a0, a1, a2, a3, r_floor):
    # Each row reads the scalar formula's bits where it evaluates, and inf
    # where libm raises, whatever the other rows do.
    c = consts(a0=a0, a1=a1, a2=a2, a3=a3)
    want = []
    for row in rows:
        try:
            want.append(scalar_demand(c, *row, r_floor))
        except (OverflowError, ZeroDivisionError):
            want.append(math.inf)
    got = demand(c, *(list(column) for column in zip(*rows)), r_floor=r_floor)
    assert [value.hex() for value in got.tolist()] == [value.hex() for value in want]


def unit_world(n, kappa_hat=4, mode="poisson"):
    """A demand-model world of `n` DOs whose expected demand is its posted
    price: a0 = a2 = a3 = 0 and reputation 1, with theta_max past kappa_hat."""
    return build_world(resolve_config({
        "n_dos": n, "horizon_T": 1, "seeds": [1],
        "market": {"arrival_mode": "demand-model", "integerization": mode},
        "constants": {"a0": 0.0, "a2": 0.0, "a3": 0.0},
        "do_params": {"r0": [1.0, 1.0], "kappa_hat": [kappa_hat, kappa_hat], "theta_max": [20, 20]},
    }), 1)


def arrivals(world, price) -> list[int]:
    """Each DO's admitted count from one `_demand_model_arrivals` call, every DO accepting at `price`."""
    outcome, _ = market._demand_model_arrivals(world, np.asarray(price, dtype=float), np.ones(len(price), np.intp))
    return dense(outcome.kappa, len(price))


def test_realize_demand_zero_mean_is_zero():
    assert arrivals(unit_world(1, kappa_hat=5), [0.0]) == [0]


def test_realize_demand_clamp_dominates():
    world = unit_world(200, kappa_hat=3)
    assert max(arrivals(world, np.full(200, 100.0))) <= 2


def test_realize_demand_bounds_hold_generally():
    rng = np.random.default_rng(5)
    world = unit_world(200, kappa_hat=6)
    draws = [k for _ in range(10) for k in arrivals(world, rng.uniform(0, 8, 200))]
    assert all(type(k) is int for k in draws)
    assert all(0 <= k <= 5 for k in draws)


def test_realize_demand_mean_matches_truncated_poisson():
    # independent oracle: enumerate the clamped Poisson mean directly
    lam, cap = 3.0, 4
    oracle = 0.0
    tail = 1.0
    for k in range(cap - 1):
        pk = math.exp(-lam) * lam**k / math.factorial(k)
        oracle += k * pk
        tail -= pk
    oracle += (cap - 1) * tail

    world = unit_world(200, kappa_hat=cap)
    draws = [k for _ in range(500) for k in arrivals(world, np.full(200, lam))]
    assert np.mean(draws) == pytest.approx(oracle, abs=0.02)


def test_realize_demand_round_mode_is_deterministic():
    # Halves round to even, as Python's round does; nothing is drawn.
    expected, caps = [2.4, 2.6, 99.0, 2.5, 3.5, 0.5], [10, 10, 4, 10, 10, 10]
    world = unit_world(6, kappa_hat=10, mode="round")
    world.states["kappa_max"] = caps
    entry = [rng.bit_generator.state for rng in world.demand_rngs]
    assert arrivals(world, expected) == [2, 3, 3, 2, 4, 0] == [min(round(f), cap - 1) for f, cap in zip(expected, caps)]
    assert [rng.bit_generator.state for rng in world.demand_rngs] == entry
