"""Channel model: path loss, shadowing, the paired-transmission rate
F(b), its derivative, saturation limit, and the allocation gradient G.

Derivative-style checks are validated against central finite
differences; the closed forms must agree to 1e-5 relative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairband.channel import (
    ChannelGain,
    RateParams,
    f_limit,
    f_prime,
    f_value,
    g_value,
    path_loss_db,
)
from support import NOISE, make_params

# Frozen oracle constants (plain formula evaluations).
PL_AT_0_353_KM = 111.09632892258212
LOG2_OF_1_5 = 0.5849625007211562
ONE_OVER_LN2 = 1.4426950408889634


def central_diff(fn, x: float, h: float) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def char_bandwidth(params: RateParams) -> float:
    """Bandwidth where the in-log term equals 1/2: hp / (2 N0)."""
    hp = params.gain_linear * params.power
    return hp / (2.0 * params.noise_psd)


# ---------------------------------------------------------------------------
# Path loss and shadowing


class TestPathLoss:
    def test_reference_distance_one_km(self):
        assert path_loss_db(1.0) == pytest.approx(128.1, rel=1e-12)

    def test_hundred_meters(self):
        assert path_loss_db(0.1) == pytest.approx(90.5, rel=1e-12)

    def test_mid_cell_distance(self):
        assert path_loss_db(0.353) == pytest.approx(PL_AT_0_353_KM, rel=1e-12)

    def test_monotone_in_distance(self):
        d = np.linspace(0.01, 2.0, 50)
        pl = [path_loss_db(x) for x in d]
        assert all(a < b for a, b in zip(pl, pl[1:]))

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_rejects_nonpositive_distance(self, bad):
        with pytest.raises(ValueError):
            path_loss_db(bad)


class TestChannelGain:
    def test_gain_matches_db_budget(self):
        ch = ChannelGain.from_db(111.0, 3.5)
        assert ch.gain_linear == pytest.approx(10.0 ** (-11.45), rel=1e-12)

    def test_shadowing_can_boost_gain(self):
        base = ChannelGain.from_db(100.0, 0.0)
        boosted = ChannelGain.from_db(100.0, -6.0)
        assert boosted.gain_linear > base.gain_linear

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            ChannelGain(pathloss_db=100.0, shadowing_db=0.0, gain_linear=0.0)


class TestRateParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"power": 0.0},
            {"power": -1.0},
            {"gain": 0.0},
            {"noise": 0.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            make_params(**kwargs)

    def test_rejects_negative_bandwidth(self):
        # Bandwidth is the rate's argument, not a link field.
        with pytest.raises(ValueError):
            f_value(-1.0, make_params())


# ---------------------------------------------------------------------------
# Rate F(b)


class TestRate:
    def test_zero_bandwidth_zero_rate(self):
        assert f_value(0.0, make_params()) == 0.0

    def test_half_point_closed_form(self):
        # With hp = 2 N0 b the in-log term is 1/2, so F = b log2(1.5).
        b = 1.0e6
        params = make_params(power=1.0, gain=2.0 * NOISE * b, noise=NOISE)
        assert f_value(b, params) == pytest.approx(b * LOG2_OF_1_5, rel=1e-12)

    def test_strictly_increasing_over_ten_decades(self):
        params = make_params()
        bc = char_bandwidth(params)
        grid = bc * np.logspace(-5, 5, 200)
        vals = [f_value(float(b), params) for b in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_concave_midpoint_inequality(self):
        params = make_params()
        bc = char_bandwidth(params)
        grid = bc * np.logspace(-4, 4, 60)
        for lo, hi in zip(grid, grid[1:]):
            mid = 0.5 * (lo + hi)
            chord = 0.5 * (f_value(float(lo), params) + f_value(float(hi), params))
            assert f_value(float(mid), params) >= chord

    def test_interference_halves_wideband_slope(self):
        # At small b the pair term costs ~1 bit/s/Hz versus interference-free
        # log2(1 + hp/(N0 b)): check F stays below that envelope.
        params = make_params()
        bc = char_bandwidth(params)
        for b in (bc * 1e-3, bc * 1e-1, bc, bc * 10):
            hp = params.gain_linear * params.power
            envelope = b * math.log2(1.0 + hp / (params.noise_psd * b))
            assert f_value(b, params) < envelope

    def test_saturates_below_limit(self):
        params = make_params()
        lim = f_limit(params)
        bc = char_bandwidth(params)
        for b in (bc * 1e-2, bc, bc * 1e2, bc * 1e6):
            assert f_value(b, params) < lim

    def test_approaches_limit(self):
        params = make_params()
        hp = params.gain_linear * params.power
        b = 1.0e6 * hp / params.noise_psd
        assert f_value(b, params) == pytest.approx(f_limit(params), rel=1e-3)


class TestFLimit:
    def test_unit_closed_form(self):
        # hp = 2 N0  ->  limit = 1/ln 2.
        params = make_params(power=1.0, gain=2.0 * NOISE, noise=NOISE)
        assert f_limit(params) == pytest.approx(ONE_OVER_LN2, rel=1e-12)

    def test_linear_in_power(self):
        p1 = make_params(power=1.0)
        p2 = make_params(power=2.0)
        assert f_limit(p2) == pytest.approx(2.0 * f_limit(p1), rel=1e-12)


# ---------------------------------------------------------------------------
# Derivative F'(b) and gradient G(b)


class TestFPrime:
    def test_matches_finite_difference_on_grid(self):
        params = make_params()
        bc = char_bandwidth(params)
        for b in bc * np.logspace(-4, 4, 33):
            b = float(b)
            fd = central_diff(lambda x: f_value(x, params), b, 1e-6 * b)
            assert f_prime(b, params) == pytest.approx(fd, rel=1e-5)

    def test_positive_and_strictly_decreasing(self):
        params = make_params()
        bc = char_bandwidth(params)
        grid = bc * np.logspace(-5, 5, 100)
        vals = [f_prime(float(b), params) for b in grid]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_secant_bracket(self):
        # Concavity: F' at b sits between the secant slopes on each side.
        params = make_params()
        bc = char_bandwidth(params)
        for b in (bc * 0.1, bc, bc * 10.0):
            left = (f_value(b, params) - f_value(0.5 * b, params)) / (0.5 * b)
            right = (f_value(1.5 * b, params) - f_value(b, params)) / (0.5 * b)
            assert right < f_prime(b, params) < left


class TestGradientG:
    def test_closed_form_composition(self):
        params = make_params()
        b, p, q = 2.0e6, 1.5, 1.3e6
        params = make_params(power=p)
        expect = p * q * f_prime(b, params) / f_value(b, params) ** 2
        assert g_value(b, q, params) == pytest.approx(expect, rel=1e-12)

    def test_matches_airtime_derivative(self):
        # G(b) = -d/db [ p * Q / F(b) ].
        params = make_params(power=1.5)
        q = 1.3e6
        bc = char_bandwidth(params)
        for b in bc * np.logspace(-3, 3, 25):
            b = float(b)
            fd = -central_diff(lambda x: 1.5 * q / f_value(x, params), b, 1e-6 * b)
            assert g_value(b, q, params) == pytest.approx(fd, rel=1e-5)

    def test_strictly_decreasing(self):
        params = make_params()
        bc = char_bandwidth(params)
        grid = bc * np.logspace(-5, 5, 100)
        vals = [g_value(float(b), 1.3e6, params) for b in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_vanishes_at_wideband(self):
        params = make_params()
        bc = char_bandwidth(params)
        assert g_value(float(bc * 1e8), 1.3e6, params) < 1e-6 * g_value(
            float(bc), 1.3e6, params
        )


# ---------------------------------------------------------------------------
# Property-based checks across parameter draws


gains = st.floats(min_value=1e-13, max_value=1e-9)
powers = st.floats(min_value=0.25, max_value=4.0)
bandwidths = st.floats(min_value=1e3, max_value=1e9)


@settings(max_examples=60, deadline=None)
@given(gain=gains, power=powers, b=bandwidths)
def test_prop_rate_positive_below_limit(gain, power, b):
    params = RateParams(power=power, gain_linear=gain, noise_psd=NOISE)
    val = f_value(b, params)
    assert 0.0 < val < f_limit(params)


@settings(max_examples=60, deadline=None)
@given(gain=gains, power=powers, b=bandwidths)
def test_prop_derivative_matches_finite_difference(gain, power, b):
    params = RateParams(power=power, gain_linear=gain, noise_psd=NOISE)
    fd = central_diff(lambda x: f_value(x, params), b, 1e-6 * b)
    assert f_prime(b, params) == pytest.approx(fd, rel=1e-5)


@settings(max_examples=60, deadline=None)
@given(gain=gains, power=powers, b=bandwidths)
def test_prop_gradient_positive_decreasing_locally(gain, power, b):
    params = RateParams(power=power, gain_linear=gain, noise_psd=NOISE)
    g_here = g_value(b, 1.3e6, params)
    g_up = g_value(1.5 * b, 1.3e6, params)
    assert g_here > 0
    assert g_up < g_here
