"""Per-user delays, pair serving time, and the energy split between the
matching-invariant compute part and the allocation-dependent transmit
part."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairband.channel import f_limit, f_value
from pairband.latency_energy import (
    SystemConfig,
    delta_slack,
    e_const,
    group_time,
    pair_link,
    tau_bs,
    tau_rx,
    transmit_energy,
    transmit_time,
)
from support import NOISE, make_cfg, make_user, user_pair


# ---------------------------------------------------------------------------
# Delays


class TestTauBs:
    def test_hand_substitution(self):
        # chi_BS=2 cycles/bit, q=1.5e9 bits, Gamma=1, f_BS=3e9 Hz -> 1 s.
        cfg = replace(make_cfg(), bs_cycles_per_bit=2.0, bs_cpu_hz=3.0e9)
        u = make_user(0, q_bits=1.5e9, enc=1.0)
        assert tau_bs(u, cfg) == pytest.approx(1.0, rel=1e-12)

    def test_zero_workload_factor(self):
        u = make_user(0, enc=0.0)
        assert tau_bs(u, make_cfg()) == 0.0

    def test_faster_bs_cpu_shortens_delay(self):
        cfg = make_cfg()
        fast = replace(cfg, bs_cpu_hz=2.0 * cfg.bs_cpu_hz)
        u = make_user(0)
        assert tau_bs(u, fast) == pytest.approx(0.5 * tau_bs(u, cfg), rel=1e-12)


class TestTauRx:
    def test_hand_substitution(self):
        # chi=100 cycles/bit, Q=1e6 bits, Gamma=1.2, f=1.2e9 Hz -> 0.1 s.
        cfg = make_cfg(payload=1.0e6)
        u = make_user(0, dec=1.2, cpu_hz=1.2e9, cycles=100.0)
        assert tau_rx(u, cfg) == pytest.approx(0.1, rel=1e-12)

    def test_zero_payload(self):
        # A payload must be positive; the config refuses a zero one
        # before any delay is computed.
        for payload in (0.0, -1.0):
            with pytest.raises(ValueError, match="payload_bits"):
                make_cfg(payload=payload)

    def test_scales_with_decoder_size(self):
        cfg = make_cfg()
        small = make_user(0, dec=0.6)
        large = make_user(0, dec=1.2)
        assert tau_rx(large, cfg) == pytest.approx(2.0 * tau_rx(small, cfg), rel=1e-12)


class TestDeltaSlack:
    def test_full_budget_when_compute_is_free(self):
        cfg = make_cfg(t_max=3.0)
        i = make_user(0, enc=0.0, dec=0.0)
        j = make_user(1, enc=0.0, dec=0.0)
        assert delta_slack(i, j, cfg) == 3.0

    def test_subtracts_all_four_delays(self):
        cfg = make_cfg(t_max=3.0)
        i, j = make_user(0), make_user(1, dec=1.3)
        expect = 3.0 - tau_bs(i, cfg) - tau_rx(i, cfg) - tau_bs(j, cfg) - tau_rx(j, cfg)
        assert delta_slack(i, j, cfg) == pytest.approx(expect, rel=1e-12)

    def test_symmetric_in_pair_order(self):
        cfg = make_cfg()
        i, j = make_user(0, dec=0.7), make_user(1, dec=1.4)
        assert delta_slack(i, j, cfg) == delta_slack(j, i, cfg)

    def test_can_go_negative(self):
        cfg = make_cfg(t_max=1e-9)
        assert delta_slack(make_user(0), make_user(1), cfg) < 0


# ---------------------------------------------------------------------------
# Transmit and group times


class TestTransmitTime:
    def test_is_payload_over_rate(self):
        cfg = make_cfg()
        u = make_user(0)
        b = 2.0e6
        fv = f_value(b, cfg.link(u, 1.0))
        assert transmit_time(b, u, 1.0, cfg) == pytest.approx(
            cfg.payload_bits / fv, rel=1e-12
        )

    def test_unit_time_construction(self):
        # Pick b, then set the payload to F(b): airtime is exactly 1 s.
        cfg = make_cfg()
        u = make_user(0)
        b = 3.0e6
        fv = f_value(b, cfg.link(u, 1.0))
        cfg1 = replace(cfg, payload_bits=fv)
        assert transmit_time(b, u, 1.0, cfg1) == pytest.approx(1.0, rel=1e-12)

    def test_zero_bandwidth_never_finishes(self):
        assert transmit_time(0.0, make_user(0), 1.0, make_cfg()) == math.inf

    def test_a_rate_that_underflows_to_zero_never_finishes(self):
        # b/x underflows to 0 at the smallest subnormal band, so F(b) is 0.
        cfg = make_cfg()
        assert f_value(5e-324, cfg.link(make_user(0), 1.0)) == 0.0
        assert transmit_time(5e-324, make_user(0), 1.0, cfg) == math.inf

    def test_strictly_decreasing_in_bandwidth(self):
        cfg = make_cfg()
        u = make_user(0)
        grid = np.logspace(4, 8, 40)
        times = [transmit_time(float(b), u, 1.0, cfg) for b in grid]
        assert all(a > b for a, b in zip(times, times[1:]))


class TestGroupTime:
    def test_composition(self):
        cfg = make_cfg()
        i, j = make_user(0, gain=1e-11), make_user(1, gain=1e-12)
        b = 2.0e6
        expect = (
            tau_bs(i, cfg)
            + tau_bs(j, cfg)
            + max(transmit_time(b, i, 1.0, cfg), transmit_time(b, j, 1.0, cfg))
            + tau_rx(i, cfg)
            + tau_rx(j, cfg)
        )
        assert group_time((i, j), b, 1.0, cfg) == pytest.approx(expect, rel=1e-12)

    def test_weaker_user_sets_airtime(self):
        cfg = make_cfg()
        strong = make_user(0, gain=1e-10)
        weak = make_user(1, gain=1e-13)
        b = 2.0e6
        t_pair = group_time((strong, weak), b, 1.0, cfg)
        t_weak_alone = group_time((weak, weak), b, 1.0, cfg)
        # Same airtime (weak binds both ways); only compute delays differ.
        assert t_pair == pytest.approx(
            t_weak_alone - tau_bs(weak, cfg) - tau_rx(weak, cfg)
            + tau_bs(strong, cfg) + tau_rx(strong, cfg),
            rel=1e-12,
        )

    def test_deadline_iff_airtime_within_slack(self):
        # group_time <= T^max exactly when max airtime <= Delta_ij.
        cfg = make_cfg(t_max=2.0)
        rng = np.random.default_rng(5)
        for _ in range(25):
            gi, gj = 10.0 ** rng.uniform(-13, -10, size=2)
            i = make_user(0, gain=gi, dec=float(rng.uniform(0.6, 1.4)))
            j = make_user(1, gain=gj, dec=float(rng.uniform(0.6, 1.4)))
            b = float(10.0 ** rng.uniform(4.5, 7.5))
            t_air = max(
                transmit_time(b, i, 1.0, cfg), transmit_time(b, j, 1.0, cfg)
            )
            lhs = group_time((i, j), b, 1.0, cfg) <= cfg.t_max
            rhs = t_air <= delta_slack(i, j, cfg)
            assert lhs == rhs

    def test_decreasing_in_bandwidth(self):
        cfg = make_cfg()
        i, j = make_user(0), make_user(1, gain=3e-12)
        grid = np.logspace(4, 8, 30)
        times = [group_time((i, j), float(b), 1.0, cfg) for b in grid]
        assert all(a > b for a, b in zip(times, times[1:]))


# ---------------------------------------------------------------------------
# Energy


class TestComputeEnergy:
    def test_hand_substitution_bs_side(self):
        # zeta=1, f_BS=10 Hz, chi_BS=1 cycle/bit, q=2 bits, Gamma=3
        # -> per-user BS energy 1*10^2*1*2*3 = 600 J; decode side zeroed.
        cfg = SystemConfig(
            n_users=2,
            b_max=1e6,
            t_max=10.0,
            e_max=1e9,
            d_max=1e9,
            noise_psd=NOISE,
            payload_bits=1.0,
            bs_cpu_hz=10.0,
            bs_cycles_per_bit=1.0,
            bs_energy_coeff=1.0,
            group_powers=(1.0,),
        )
        i = make_user(0, q_bits=2.0, enc=3.0, coeff=0.0)
        j = make_user(1, q_bits=2.0, enc=3.0, coeff=0.0)
        assert e_const([i, j], cfg) == pytest.approx(1200.0, rel=1e-12)

    def test_zero_coefficients_zero_energy(self):
        cfg = replace(make_cfg(), bs_energy_coeff=0.0)
        i = make_user(0, coeff=0.0)
        j = make_user(1, coeff=0.0)
        assert e_const([i, j], cfg) == 0.0

    def test_symmetric_in_pair_order(self):
        cfg = make_cfg()
        i, j = make_user(0, dec=0.7), make_user(1, dec=1.3)
        assert e_const([i, j], cfg) == e_const([j, i], cfg)


class TestEConst:
    def test_sums_pair_energies_for_any_matching(self):
        cfg = make_cfg(n=6)
        users = [make_user(k, dec=0.6 + 0.1 * k) for k in range(6)]
        total = e_const(users, cfg)
        for matching in [((0, 1), (2, 3), (4, 5)), ((0, 5), (1, 4), (2, 3))]:
            by_pair = sum(
                e_const([users[a], users[b]], cfg) for a, b in matching
            )
            assert by_pair == pytest.approx(total, rel=1e-12)

    def test_two_identical_users_double_one(self):
        cfg = make_cfg(n=2)
        u0, u1 = make_user(0), make_user(1)
        assert e_const([u0, u1], cfg) == pytest.approx(
            2.0 * e_const([u0], cfg), rel=1e-12
        )

    def test_an_energy_past_the_float_range_is_inf_unless_a_factor_is_zero(self):
        # A CPU rate whose square overflows raised an OverflowError.
        cfg, base = make_cfg(n=2), make_user(1)
        for fast in (make_user(0, cpu_hz=1e200), make_user(0, coeff=1e308)):
            assert e_const([fast, base], cfg) == math.inf
        assert e_const([base], replace(cfg, bs_cpu_hz=1e200)) == math.inf
        idle = make_user(0, cpu_hz=1e200, coeff=0.0)
        assert e_const([idle, base], cfg) == e_const([make_user(0, coeff=0.0), base], cfg)
        idle_bs = replace(cfg, bs_cpu_hz=1e200, bs_energy_coeff=0.0)
        assert e_const([base], idle_bs) == e_const([base], replace(cfg, bs_energy_coeff=0.0))

    def test_default_scale_leaves_transmit_headroom(self):
        # With the default coefficients, compute energy for 16 users
        # stays well inside a 200 J budget.
        cfg = make_cfg(n=16)
        users = [make_user(k) for k in range(16)]
        assert 0.0 < e_const(users, cfg) < 150.0


class TestTransmitEnergy:
    def test_power_times_airtime(self):
        cfg = make_cfg()
        i, j = make_user(0, gain=1e-11), make_user(1, gain=4e-12)
        b, p = 2.0e6, 1.7
        t_air = max(transmit_time(b, i, p, cfg), transmit_time(b, j, p, cfg))
        assert transmit_energy((i, j), b, p, cfg) == pytest.approx(
            p * t_air, rel=1e-12
        )

    def test_wideband_floor(self):
        # As b grows the energy approaches p*Q/f_limit of the weaker user.
        cfg = make_cfg()
        i, j = make_user(0, gain=1e-10), make_user(1, gain=1e-12)
        p = 1.0
        floor = p * cfg.payload_bits / f_limit(cfg.link(j, p))
        wide = transmit_energy((i, j), 1.0e16, p, cfg)
        assert wide == pytest.approx(floor, rel=1e-4)
        assert wide > floor

    def test_decreasing_in_bandwidth(self):
        cfg = make_cfg()
        i, j = make_user(0), make_user(1, gain=2e-12)
        grid = np.logspace(4, 9, 40)
        vals = [transmit_energy((i, j), float(b), 1.0, cfg) for b in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestPairFLimit:
    """A pair saturates at its weaker user's limit: pair_link is the
    smaller of its users' links, whichever order the pair is given in."""

    def test_weaker_user_binds(self):
        cfg = make_cfg()
        i, j = make_user(0, gain=1e-10), make_user(1, gain=1e-12)
        assert pair_link(i, j, cfg) == pair_link(j, i, cfg) == cfg.link(j, cfg.power)
        assert f_limit(cfg.link(j, 1.0)) < f_limit(cfg.link(i, 1.0))

    def test_per_user_noise_override(self):
        cfg = make_cfg()
        # Same gain, but one user sees a noisier front end: it binds.
        i = make_user(0, gain=1e-11)
        j = make_user(1, gain=1e-11, noise=10.0 * NOISE)
        assert cfg.link(j, 1.0) == 1e-11 / (10.0 * NOISE)
        assert cfg.link(i, 1.0) == 1e-11 / NOISE
        assert pair_link(i, j, cfg) == pair_link(j, i, cfg) == cfg.link(j, 1.0)

    def test_exact_tie_gives_one_link(self):
        # Gain and noise both doubled: the same link, hence the same rate,
        # so it does not matter which user the pair's link comes from.
        cfg = make_cfg()
        i = make_user(0, gain=1e-11)
        j = make_user(1, gain=2e-11, noise=2.0 * NOISE)
        assert cfg.link(i, 1.0) == cfg.link(j, 1.0)
        assert pair_link(i, j, cfg) == pair_link(j, i, cfg) == cfg.link(i, 1.0)
        assert f_value(3e6, cfg.link(i, 1.0)) == f_value(3e6, cfg.link(j, 1.0))


@settings(max_examples=150, deadline=None)
@given(pair=user_pair(), power=st.floats(min_value=0.25, max_value=4.0))
def test_prop_pair_link_is_the_smaller_link(pair, power):
    cfg = make_cfg(2, power=power)
    i, j = pair
    smaller = min(cfg.link(i, power), cfg.link(j, power))
    assert pair_link(i, j, cfg) == pair_link(j, i, cfg) == smaller


class TestValidation:
    def test_rejects_odd_user_count(self):
        with pytest.raises(ValueError):
            make_cfg(n=3)

    def test_rejects_nonpositive_budgets(self):
        for field in ("b_max", "t_max", "e_max", "d_max"):
            for bad in (0.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="must be positive and finite"):
                    make_cfg(**{field: bad})

    @pytest.mark.parametrize(
        "bad, field",
        [
            pytest.param(bad, field, id=f"{bad}-{field}")
            for field in ("bs_cpu_hz", "bs_cycles_per_bit", "bs_energy_coeff")
            for bad in (math.inf, -math.inf, math.nan, 0.0, -1.0)
            if (bad, field) != (0.0, "bs_energy_coeff")
        ],
    )
    def test_rejects_nonfinite_base_station_constants(self, bad, field):
        # A zero rate divided by zero in the encode delay; a negative one
        # gave a negative delay or compute energy.
        with pytest.raises(ValueError, match=f"{field} must be (positive|non-negative) and finite"):
            replace(make_cfg(), **{field: bad})

    def test_base_station_may_spend_no_compute_energy(self):
        assert replace(make_cfg(), bs_energy_coeff=0.0).bs_energy_coeff == 0.0

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite_power(self, bad):
        with pytest.raises(ValueError, match="group powers must be positive and finite"):
            make_cfg(power=bad)

    def test_rejects_wrong_power_count(self):
        with pytest.raises(ValueError):
            replace(make_cfg(n=4), group_powers=(1.0,))

    def test_rejects_mixed_powers(self):
        with pytest.raises(ValueError, match="group_powers must be equal"):
            replace(make_cfg(n=4), group_powers=(1.0, 1.0000001))

    def test_power_is_the_one_group_power(self):
        cfg = make_cfg(n=6, power=2.5)
        assert cfg.power == 2.5
        with pytest.raises(AttributeError):
            cfg.power = 1.0

    def test_rejects_bad_user_fields(self):
        with pytest.raises(ValueError):
            make_user(0, q_bits=0.0)
        with pytest.raises(ValueError):
            make_user(0, cpu_hz=-1.0)

    @pytest.mark.parametrize("field", ["q_bits", "cpu_hz", "cycles"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_user_rates_must_be_positive_and_finite(self, field, bad):
        with pytest.raises(ValueError, match="must be positive and finite"):
            make_user(0, **{field: bad})

    @pytest.mark.parametrize("field", ["enc", "dec", "coeff"])
    @pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
    def test_user_factors_must_be_non_negative_and_finite(self, field, bad):
        with pytest.raises(ValueError, match="must be non-negative and finite"):
            make_user(0, **{field: bad})

    @pytest.mark.parametrize("bad", [0.0, -1e-20, math.inf, math.nan])
    def test_user_noise_override_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="noise_psd must be None or positive"):
            make_user(0, noise=bad)
