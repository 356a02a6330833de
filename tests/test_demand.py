import math
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aflsim.config import MarketConstants
from aflsim.demand import expected_demand, realize_demand, zeta
from helpers import R_FLOOR


def consts(a0=0.0, a1=1.0, a2=0.0, a3=0.0):
    return MarketConstants(a0=a0, a1=a1, a2=a2, a3=a3)


def test_zeta_identity_case():
    assert zeta(consts(a0=0.0, a3=0.0, a2=1.0), [0.0], [1]).tolist() == [1.0]


def test_zeta_hand_value():
    # exp(1 + 2*0.5) * 4**0.5 = 2 * e**2
    value = zeta(consts(a0=1.0, a3=2.0, a2=0.5), [0.5], [4])
    assert value.tolist() == pytest.approx([14.7781121978613], rel=1e-12)


def test_zeta_zero_ratings_kill_multiplier():
    assert zeta(consts(a2=1.0), [0.0], [0]).tolist() == [0.0]


def test_zeta_zero_ratings_with_zero_exponent():
    # convention 0**0 == 1, so the exponential survives
    assert zeta(consts(a0=1.0, a2=0.0), [0.0], [0]).tolist() == pytest.approx([math.e])


def test_expected_demand_unit_denominator():
    assert expected_demand([2.0], [1.0], [1.0], 1.0, R_FLOOR).tolist() == [2.0]


def test_expected_demand_hand_value():
    # 3 * 2 / 0.25**0.5 = 6 / 0.5
    assert expected_demand([2.0], [0.25], [3.0], 0.5, R_FLOOR).tolist() == pytest.approx([12.0])


def test_expected_demand_zero_price():
    assert expected_demand([0.0], [0.5], [7.0], 2.0, R_FLOOR).tolist() == [0.0]


def test_expected_demand_uses_reputation_floor():
    spiky = expected_demand([1.0], [0.0], [1.0], 1.0, r_floor=1e-3)
    assert np.isfinite(spiky).all()
    assert spiky.tolist() == pytest.approx([1000.0])


def test_demand_monotone_in_price_and_reputation():
    rng = np.random.default_rng(42)
    for _ in range(100):
        r = rng.uniform(1e-3, 1.0, 10)
        z = rng.uniform(0.1, 5.0, 10)
        a1 = float(rng.uniform(0.2, 2.0))
        p = rng.uniform(0.1, 10.0, 10)
        assert (expected_demand(p * 1.01, r, z, a1, R_FLOOR) > expected_demand(p, r, z, a1, R_FLOOR)).all()
        r_hi = np.minimum(1.0, r * 1.01 + 1e-6)
        assert (expected_demand(p, r_hi, z, a1, R_FLOOR) < expected_demand(p, r, z, a1, R_FLOOR)).all()


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
        [f] = expected_demand([p], [r], zeta(c, [eps], [mp]), a1, R_FLOOR)
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
    c = consts(a0=a0, a1=a1, a2=a2, a3=a3)
    price, reputation, epsilon, mp = (list(column) for column in zip(*rows))
    try:
        want = [scalar_demand(c, *row, r_floor) for row in rows]
    except (OverflowError, ZeroDivisionError):
        with pytest.raises((OverflowError, ZeroDivisionError)):
            expected_demand(price, reputation, zeta(c, epsilon, mp), c.a1, r_floor)
        return
    got = expected_demand(price, reputation, zeta(c, epsilon, mp), c.a1, r_floor)
    assert [value.hex() for value in got.tolist()] == [value.hex() for value in want]


def test_realize_demand_zero_mean_is_zero():
    rng = np.random.default_rng(0)
    assert realize_demand([0.0], [5], [rng], "poisson").tolist() == [0]


def test_realize_demand_clamp_dominates():
    rng = np.random.default_rng(0)
    assert (realize_demand(np.full(200, 100.0), np.full(200, 3), repeat(rng), "poisson") <= 2).all()


def test_realize_demand_bounds_hold_generally():
    rng = np.random.default_rng(5)
    draws = realize_demand(rng.uniform(0, 8, 2000), np.full(2000, 6), repeat(rng), "poisson")
    assert draws.dtype.kind == "i"
    assert ((0 <= draws) & (draws <= 5)).all()


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

    rng = np.random.default_rng(123)
    draws = realize_demand(np.full(100_000, lam), np.full(100_000, cap), repeat(rng), "poisson")
    assert draws.mean() == pytest.approx(oracle, abs=0.02)


def test_realize_demand_round_mode_is_deterministic():
    # Halves round to even, as Python's round does.
    expected, caps = [2.4, 2.6, 99.0, 2.5, 3.5, 0.5], [10, 10, 4, 10, 10, 10]
    draws = realize_demand(expected, caps, None, mode="round")
    assert draws.tolist() == [2, 3, 3, 2, 4, 0] == [min(round(f), cap - 1) for f, cap in zip(expected, caps)]
