import math

import numpy as np
import pytest

from aflsim.config import MarketConstants
from aflsim.demand import expected_demand, realize_demand, zeta


def consts(a0=0.0, a1=1.0, a2=0.0, a3=0.0):
    return MarketConstants(a0=a0, a1=a1, a2=a2, a3=a3)


def test_zeta_identity_case():
    assert zeta(consts(a0=0.0, a3=0.0, a2=1.0), 0.0, 1) == 1.0


def test_zeta_hand_value():
    # exp(1 + 2*0.5) * 4**0.5 = 2 * e**2
    value = zeta(consts(a0=1.0, a3=2.0, a2=0.5), 0.5, 4)
    assert value == pytest.approx(14.7781121978613, rel=1e-12)


def test_zeta_zero_ratings_kill_multiplier():
    assert zeta(consts(a2=1.0), 0.0, 0) == 0.0


def test_zeta_zero_ratings_with_zero_exponent():
    # convention 0**0 == 1, so the exponential survives
    assert zeta(consts(a0=1.0, a2=0.0), 0.0, 0) == pytest.approx(math.e)


def test_zeta_rejects_negative_ratings():
    with pytest.raises(ValueError):
        zeta(consts(), 0.0, -1)


def test_expected_demand_unit_denominator():
    assert expected_demand(2.0, 1.0, 1.0, 1.0) == 2.0


def test_expected_demand_hand_value():
    # 3 * 2 / 0.25**0.5 = 6 / 0.5
    assert expected_demand(2.0, 0.25, 3.0, 0.5) == pytest.approx(12.0)


def test_expected_demand_zero_price():
    assert expected_demand(0.0, 0.5, 7.0, 2.0) == 0.0


def test_expected_demand_rejects_negative_inputs():
    with pytest.raises(ValueError):
        expected_demand(-1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        expected_demand(1.0, 0.5, -1.0, 1.0)


def test_expected_demand_uses_reputation_floor():
    spiky = expected_demand(1.0, 0.0, 1.0, 1.0, r_floor=1e-3)
    assert math.isfinite(spiky)
    assert spiky == pytest.approx(1000.0)


def test_demand_monotone_in_price_and_reputation():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        r = float(rng.uniform(1e-3, 1.0))
        z = float(rng.uniform(0.1, 5.0))
        a1 = float(rng.uniform(0.2, 2.0))
        p = float(rng.uniform(0.1, 10.0))
        assert expected_demand(p * 1.01, r, z, a1) > expected_demand(p, r, z, a1)
        r_hi = min(1.0, r * 1.01 + 1e-6)
        assert expected_demand(p, r_hi, z, a1) < expected_demand(p, r, z, a1)


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
        f = expected_demand(p, r, zeta(c, eps, mp), a1)
        expected_log = a0 + a2 * math.log(mp) + a3 * eps - a1 * math.log(r) + math.log(p)
        assert math.log(f) == pytest.approx(expected_log, rel=1e-12, abs=1e-12)


def test_realize_demand_zero_mean_is_zero():
    rng = np.random.default_rng(0)
    assert realize_demand(0.0, 5, rng) == 0


def test_realize_demand_clamp_dominates():
    rng = np.random.default_rng(0)
    for _ in range(200):
        assert realize_demand(100.0, 3, rng) <= 2


def test_realize_demand_bounds_hold_generally():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        draw = realize_demand(float(rng.uniform(0, 8)), 6, rng)
        assert isinstance(draw, int)
        assert 0 <= draw <= 5


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
    draws = [realize_demand(lam, cap, rng) for _ in range(100_000)]
    assert sum(draws) / len(draws) == pytest.approx(oracle, abs=0.02)


def test_realize_demand_round_mode_is_deterministic():
    rng = np.random.default_rng(0)
    assert realize_demand(2.4, 10, rng, mode="round") == 2
    assert realize_demand(2.6, 10, rng, mode="round") == 3
    assert realize_demand(99.0, 4, rng, mode="round") == 3


def test_realize_demand_rejects_bad_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        realize_demand(-1.0, 5, rng)
    with pytest.raises(ValueError):
        realize_demand(1.0, 0, rng)
    with pytest.raises(ValueError):
        realize_demand(1.0, 5, rng, mode="ceil")
