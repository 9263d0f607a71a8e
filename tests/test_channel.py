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
    f_limit,
    f_prime,
    f_value,
    g_value,
    path_loss_db,
    phi,
    psi,
)
import support
from support import NOISE, make_cfg, make_link, make_user

# Frozen oracle constants (plain formula evaluations).
PL_AT_0_353_KM = 111.09632892258212
LOG2_OF_1_5 = 0.5849625007211562
ONE_OVER_LN2 = 1.4426950408889634


def central_diff(fn, x: float, h: float) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def char_bandwidth(x: float) -> float:
    """Bandwidth where the in-log term equals 1/2: x / 2."""
    return x / 2.0


def rate_reference(mp, b, x):
    """F(b) = b*log2(1 + x/(2b + x)) in mpmath ``mp``."""
    return b * mp.log(1 + x / (2 * b + x)) / mp.log(2)


def slope_reference(mp, b, x):
    """F'(b) = log2((2b + 2x)/(2b + x)) - 2bx/(ln2*(2b + 2x)*(2b + x))
    in mpmath ``mp``."""
    ln2 = mp.log(2)
    return mp.log((2 * b + 2 * x) / (2 * b + x)) / ln2 - 2 * b * x / (
        ln2 * (2 * b + 2 * x) * (2 * b + x)
    )


def assert_matches_reference(fn, reference, rel: float) -> None:
    """``fn(b, x)`` within ``rel`` of ``reference(mpmath, b, x)`` at 50
    digits, for b/x from 1e-6 into the wide band at 1e14 and three
    links.  Each b is evaluated as a scalar and once more inside one
    array call over all of them, and the two must be bit-equal."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for x in (1.0, make_link(), 2.5e10):
            bs = np.logspace(-6.0, 14.0, 121) * x
            together = fn(bs, x)
            for b, value in zip(bs.tolist(), together.tolist()):
                alone = fn(b, x)
                assert value == alone
                ref = reference(mpmath, mpmath.mpf(b), mpmath.mpf(x))
                assert abs(alone - ref) <= rel * ref


def test_oracle_scalar_law_matches_a_50_digit_reference():
    # The test oracles' own scalar F, F' and G (tests/support.py), at the
    # tolerances the array forms meet, over the same grid.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for x in (1.0, make_link(), 2.5e10):
            for b in (np.logspace(-6.0, 14.0, 121) * x).tolist():
                mb, mx = mpmath.mpf(b), mpmath.mpf(x)
                rate, slope = rate_reference(mpmath, mb, mx), slope_reference(mpmath, mb, mx)
                assert abs(support._rate(b, x) - rate) <= 1e-14 * rate
                assert abs(support._rate_prime(b, x) - slope) <= 1e-13 * slope
                gradient = 1.3e6 * slope / rate**2
                assert abs(support._gradient(b, x, 1.3e6) - gradient) <= 1e-13 * gradient


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

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_nonfinite_gain(self, bad):
        with pytest.raises(ValueError, match="gain_linear must be positive and finite"):
            ChannelGain(pathloss_db=100.0, shadowing_db=0.0, gain_linear=bad)

    def test_a_gain_past_the_float_range_is_rejected(self):
        # 10^400 raised an OverflowError, from a sweep whose template drew
        # shadowing with a 1e308 dB deviation.
        with pytest.raises(ValueError, match="gain_linear must be positive and finite"):
            ChannelGain.from_db(100.0, -4100.0)


class TestRateParamsValidation:
    """A link x = g*p/N0 is only built from validated fields: the power
    and the noise PSD by the config, the gain by the channel."""

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
        fields = {"power": 1.0, "gain": 1e-11, "noise": NOISE, **kwargs}
        with pytest.raises(ValueError):
            cfg = make_cfg(power=fields["power"], noise=fields["noise"])
            cfg.link(make_user(0, gain=fields["gain"]), cfg.power)

    def test_rejects_negative_bandwidth(self):
        # Bandwidth is the rate's argument, not a link field; one negative
        # entry of an array is enough.
        for b in (-1.0, np.array([1.0e6, -1.0])):
            with pytest.raises(ValueError, match="non-negative"):
                f_value(b, make_link())

    def test_derivative_and_gradient_reject_nonpositive_bandwidth(self):
        for b in (0.0, -1.0, np.array([1.0e6, 0.0])):
            with pytest.raises(ValueError, match="positive"):
                f_prime(b, make_link())
            with pytest.raises(ValueError, match="positive"):
                g_value(b, make_link(), 1.3e6)


# ---------------------------------------------------------------------------
# Rate F(b)


class TestRate:
    def test_zero_bandwidth_zero_rate(self):
        x = make_link()
        assert f_value(0.0, x) == 0.0
        assert f_value(np.array([0.0, 1.0e6]), x).tolist() == [0.0, f_value(1.0e6, x)]

    def test_half_point_closed_form(self):
        # With x = 2b the in-log term is 1/2, so F = b log2(1.5).
        b = 1.0e6
        assert f_value(b, 2.0 * b) == pytest.approx(b * LOG2_OF_1_5, rel=1e-12)

    def test_strictly_increasing_over_ten_decades(self):
        x = make_link()
        bc = char_bandwidth(x)
        grid = bc * np.logspace(-5, 5, 200)
        vals = [f_value(float(b), x) for b in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_concave_midpoint_inequality(self):
        x = make_link()
        bc = char_bandwidth(x)
        grid = bc * np.logspace(-4, 4, 60)
        for lo, hi in zip(grid, grid[1:]):
            mid = 0.5 * (lo + hi)
            chord = 0.5 * (f_value(float(lo), x) + f_value(float(hi), x))
            assert f_value(float(mid), x) >= chord

    def test_interference_halves_wideband_slope(self):
        # At small b the pair term costs ~1 bit/s/Hz versus interference-free
        # log2(1 + x/b): check F stays below that envelope.
        x = make_link()
        bc = char_bandwidth(x)
        for b in (bc * 1e-3, bc * 1e-1, bc, bc * 10):
            envelope = b * math.log2(1.0 + x / b)
            assert f_value(b, x) < envelope

    def test_saturates_below_limit(self):
        x = make_link()
        lim = f_limit(x)
        bc = char_bandwidth(x)
        for b in (bc * 1e-2, bc, bc * 1e2, bc * 1e6):
            assert f_value(b, x) < lim

    def test_approaches_limit(self):
        x = make_link()
        assert f_value(1.0e6 * x, x) == pytest.approx(f_limit(x), rel=1e-3)

    def test_matches_the_gain_power_noise_form(self):
        # F(b, x = g*p/N0) against b*log2(1 + g*p/(2*N0*b + g*p)), written
        # out here with log1p, over ten decades of b around x/2.
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = float(10.0 ** rng.uniform(-13.0, -9.0))
            p = float(rng.uniform(0.25, 4.0))
            n0 = float(10.0 ** rng.uniform(-21.0, -19.5))
            hp = g * p
            x = hp / n0
            for b in (x / 2.0) * np.logspace(-5.0, 5.0, 41):
                b = float(b)
                ref = b * math.log1p(hp / (2.0 * n0 * b + hp)) / math.log(2.0)
                assert f_value(b, x) == pytest.approx(ref, rel=1e-14)

    def test_matches_a_50_digit_reference(self):
        assert_matches_reference(f_value, rate_reference, 1e-14)


class TestFLimit:
    def test_unit_closed_form(self):
        # x = 2  ->  limit = 1/ln 2.
        assert f_limit(2.0) == pytest.approx(ONE_OVER_LN2, rel=1e-12)

    def test_linear_in_power(self):
        x1 = make_link(power=1.0)
        x2 = make_link(power=2.0)
        assert f_limit(x2) == pytest.approx(2.0 * f_limit(x1), rel=1e-12)


# ---------------------------------------------------------------------------
# Derivative F'(b) and gradient G(b)


class TestFPrime:
    def test_matches_finite_difference_on_grid(self):
        x = make_link()
        bc = char_bandwidth(x)
        for b in bc * np.logspace(-4, 4, 33):
            b = float(b)
            fd = central_diff(lambda w: f_value(w, x), b, 1e-6 * b)
            assert f_prime(b, x) == pytest.approx(fd, rel=1e-5)

    def test_positive_and_strictly_decreasing(self):
        x = make_link()
        bc = char_bandwidth(x)
        grid = bc * np.logspace(-5, 5, 100)
        vals = [f_prime(float(b), x) for b in grid]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_secant_bracket(self):
        # Concavity: F' at b sits between the secant slopes on each side.
        x = make_link()
        bc = char_bandwidth(x)
        for b in (bc * 0.1, bc, bc * 10.0):
            left = (f_value(b, x) - f_value(0.5 * b, x)) / (0.5 * b)
            right = (f_value(1.5 * b, x) - f_value(b, x)) / (0.5 * b)
            assert right < f_prime(b, x) < left

    def test_matches_the_gain_power_noise_form(self):
        # F'(b) = log2((2N0b + 2gp)/(2N0b + gp))
        #         - 2N0b*gp / (ln2 * (2N0b + 2gp) * (2N0b + gp)),
        # over ten decades of b around x/2.  Both forms subtract two
        # nearly equal terms in the wide band, so they agree to 1e-14 of
        # the log term, not of F' itself.
        ln2 = math.log(2.0)
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = float(10.0 ** rng.uniform(-13.0, -9.0))
            p = float(rng.uniform(0.25, 4.0))
            n0 = float(10.0 ** rng.uniform(-21.0, -19.5))
            hp = g * p
            x = hp / n0
            for b in (x / 2.0) * np.logspace(-5.0, 5.0, 41):
                n0b = 2.0 * n0 * float(b)
                log_term = math.log1p(hp / (n0b + hp)) / ln2
                ref = log_term - n0b * hp / (ln2 * (n0b + 2.0 * hp) * (n0b + hp))
                assert abs(f_prime(float(b), x) - ref) <= 1e-14 * log_term


    def test_matches_a_50_digit_reference(self):
        # In the wide band the closed form's two terms cancel to ~28 digits.
        assert_matches_reference(f_prime, slope_reference, 1e-13)


class TestPhiPsi:
    # F(b, x) = x*phi(b/x) and G(b, x, pq) = (pq/x^2)*psi(b/x).
    def test_phi_scales_to_the_rate(self):
        x = make_link()
        t = np.logspace(-6.0, 12.0, 73)
        expect = [f_value(float(v) * x, x) / x for v in t]
        assert phi(t) == pytest.approx(expect, rel=1e-14)

    def test_psi_scales_to_the_gradient(self):
        x, pq = make_link(power=1.5), 1.5 * 1.3e6
        t = np.logspace(-6.0, 12.0, 73)
        expect = [g_value(float(v) * x, x, pq) * x * x / pq for v in t]
        assert psi(t) == pytest.approx(expect, rel=1e-13)

    def test_psi_is_strictly_decreasing_with_bounded_scaled_form(self):
        # t^2*psi(t) runs from 1 (t -> 0) to 3*ln2/2 (t -> inf), which is
        # what brackets the array inverse.
        t = np.logspace(-8.0, 14.0, 2001)
        vals = psi(t)
        assert np.all(np.diff(vals) < 0)
        scaled = t * t * vals
        assert np.all(scaled >= 1.0 - 1e-12)
        assert np.all(scaled <= 1.5 * math.log(2.0) * (1.0 + 1e-12))


class TestGradientG:
    def test_matches_a_50_digit_reference(self):
        def reference(mp, b, x):
            return 1.3e6 * slope_reference(mp, b, x) / rate_reference(mp, b, x) ** 2

        assert_matches_reference(lambda b, x: g_value(b, x, 1.3e6), reference, 1e-13)

    def test_closed_form_composition(self):
        b, p, q = 2.0e6, 1.5, 1.3e6
        x = make_link(power=p)
        expect = p * q * f_prime(b, x) / f_value(b, x) ** 2
        assert g_value(b, x, p * q) == pytest.approx(expect, rel=1e-12)

    def test_matches_airtime_derivative(self):
        # G(b) = -d/db [ p * Q / F(b) ].
        x = make_link(power=1.5)
        q = 1.3e6
        bc = char_bandwidth(x)
        for b in bc * np.logspace(-3, 3, 25):
            b = float(b)
            fd = -central_diff(lambda w: 1.5 * q / f_value(w, x), b, 1e-6 * b)
            assert g_value(b, x, 1.5 * q) == pytest.approx(fd, rel=1e-5)

    def test_strictly_decreasing(self):
        x = make_link()
        bc = char_bandwidth(x)
        grid = bc * np.logspace(-5, 5, 100)
        vals = [g_value(float(b), x, 1.3e6) for b in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_vanishes_at_wideband(self):
        x = make_link()
        bc = char_bandwidth(x)
        assert g_value(float(bc * 1e8), x, 1.3e6) < 1e-6 * g_value(float(bc), x, 1.3e6)


# ---------------------------------------------------------------------------
# Property-based checks across parameter draws


gains = st.floats(min_value=1e-13, max_value=1e-9)
powers = st.floats(min_value=0.25, max_value=4.0)
bandwidths = st.floats(min_value=1e3, max_value=1e9)


@settings(max_examples=60, deadline=None)
@given(gain=gains, power=powers, b=bandwidths)
def test_prop_rate_positive_below_limit(gain, power, b):
    x = make_link(power=power, gain=gain)
    val = f_value(b, x)
    assert 0.0 < val < f_limit(x)


@settings(max_examples=60, deadline=None)
@given(gain=gains, power=powers, b=bandwidths)
def test_prop_derivative_matches_finite_difference(gain, power, b):
    x = make_link(power=power, gain=gain)
    fd = central_diff(lambda w: f_value(w, x), b, 1e-6 * b)
    assert f_prime(b, x) == pytest.approx(fd, rel=1e-5)


@settings(max_examples=60, deadline=None)
@given(gain=gains, power=powers, b=bandwidths)
def test_prop_gradient_positive_decreasing_locally(gain, power, b):
    x = make_link(power=power, gain=gain)
    g_here = g_value(b, x, power * 1.3e6)
    g_up = g_value(1.5 * b, x, power * 1.3e6)
    assert g_here > 0
    assert g_up < g_here
