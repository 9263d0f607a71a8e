"""Bandwidth allocation: minimum-bandwidth roots, the gradient inverse,
and the KKT multiplier allocator with its certificates.

Root finders are validated by forward construction (pick the answer,
build the problem) and against the scalar bisection oracles in
``support``; the allocator is validated against the oracle's
multiplier bisection, stationarity / complementary-slackness residuals
and a dense grid oracle.
"""

import math
import sys
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from pairband import bandwidth, solver
from pairband.bandwidth import (
    b_min_pair,
    b_min_user,
    check_feasibility,
    energy_dual,
    energy_infeasible,
    evaluate_fixed_allocation,
    kkt_allocate,
    phi_inverse,
)
from pairband.channel import f_limit, f_prime, f_value, g_value, phi, psi
from pairband.latency_energy import (
    delta_slack,
    e_const,
    group_time,
    pair_link,
    transmit_energy,
)
from pairband.pairing import INFEASIBLE, Matching, PairCostMatrix
from pairband.scenario import ScenarioTemplate, generate_scenario
from support import (
    NOISE,
    active_gradient,
    all_matchings,
    assert_kkt_certificates,
    bisection_b_min,
    bisection_g_inverse,
    bisection_kkt,
    brute_force_mwpm,
    consecutive_matching,
    group_airtime,
    make_cfg,
    make_link,
    make_user,
    paired_users,
    psi_inverse,
    random_instance,
    ratio_psi_inverse,
    user_pair,
)


# ---------------------------------------------------------------------------
# Minimum bandwidth roots


class TestBMinUser:
    def test_forward_constructed_root(self):
        # Choose the root first, then derive the slack that demands it.
        x = make_link(gain=3.0e-12)
        q = 1.3e6
        b0 = 2.5e6
        delta = q / f_value(b0, x)
        assert b_min_user(delta, x, q) == pytest.approx(b0, rel=1e-9)

    def test_root_satisfies_rate_equation(self):
        x = make_link(gain=1e-12)
        q, delta = 1.3e6, 1.2
        b = b_min_user(delta, x, q)
        assert f_value(b, x) * delta == pytest.approx(q, rel=1e-9)

    def test_nonpositive_slack_infeasible(self):
        x = make_link()
        assert b_min_user(0.0, x, 1.3e6) == math.inf
        assert b_min_user(-1.0, x, 1.3e6) == math.inf

    def test_rate_demand_at_saturation_infeasible(self):
        x = make_link()
        q = 1.3e6
        delta = q / f_limit(x)  # demands exactly the saturation rate
        assert b_min_user(delta, x, q) == math.inf

    def test_near_saturation_root_is_finite_and_exact(self):
        x = make_link()
        q = 1.3e6
        target = 0.999999 * f_limit(x)
        b = b_min_user(q / target, x, q)
        assert math.isfinite(b)
        assert f_value(b, x) == pytest.approx(target, rel=1e-9)

    def test_randomized_roundtrips(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = make_link(
                gain=float(10.0 ** rng.uniform(-13, -10)),
                power=float(rng.uniform(0.5, 2.0)),
            )
            q = float(rng.uniform(5e5, 5e6))
            b0 = float(10.0 ** rng.uniform(4, 8))
            delta = q / f_value(b0, x)
            assert b_min_user(delta, x, q) == pytest.approx(b0, rel=1e-9)

    def test_root_far_below_one_hertz_is_found(self):
        # The demanded rate Q/delta is ~1e-24 bit/s: the root sits below
        # 2^-60 Hz, and it is still a root of F(b) = Q/delta.
        x = make_link()
        q, delta = 1.3e6, 1e30
        b = b_min_user(delta, x, q)
        assert 0.0 < b < 2.0**-60
        assert f_value(b, x) == pytest.approx(q / delta, rel=1e-9)

    def test_arrays_root_elementwise(self):
        # One call over arrays equals the scalar calls, element by element,
        # infeasible slacks and demands at saturation included.
        x = np.array([make_link(gain=g) for g in (1e-12, 3e-12, 1e-11, 2e-10, 1e-11)])
        q = 1.3e6
        delta = np.array([1.2, 0.7, -1.0, 2.5, q / f_limit(make_link(gain=1e-11))])
        roots = b_min_user(delta, x, q)
        assert roots.shape == (5,)
        expect = [b_min_user(float(d), float(xk), q) for d, xk in zip(delta, x)]
        assert roots.tolist() == expect
        assert math.isinf(expect[2]) and math.isinf(expect[4])
        assert type(expect[0]) is float

    @pytest.mark.parametrize("x", [2.3e5, 3.7e7, 1e9])
    @pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-11, 1e-13, 1e-15, "ulp"])
    def test_saturation_edge_ends_fast_at_a_hi_side_root(self, x, eps):
        # Near saturation the root is ill-conditioned: each case ends in
        # well under a second with a finite root meeting the demand, or
        # +inf, and agrees with the bisection wherever that decides.
        q = 1.3e6
        limit = f_limit(x)
        delta = q / (math.nextafter(limit, 0.0) if eps == "ulp" else limit * (1.0 - eps))
        start = time.perf_counter()
        b = b_min_user(delta, x, q)
        assert time.perf_counter() - start < 0.5
        if math.isfinite(b):
            assert f_value(b, x) >= q / delta
        try:
            oracle = bisection_b_min(delta, x, q)
        except RuntimeError:
            # The bisection cannot bracket roots past 2^60 MHz.
            return
        assert math.isinf(b) == math.isinf(oracle)

    def test_saturation_edge_in_one_array_call_matches_the_scalar_roots(self):
        # Every (x, eps) case of the test above, plus a target at the
        # limit itself, as one call: the hi-side walk runs on the whole
        # array, and the roots it cannot reach are +inf among finite ones.
        q = 1.3e6
        xs, deltas = [], []
        for x in (2.3e5, 3.7e7, 1e9):
            limit = f_limit(x)
            for eps in (1e-6, 1e-9, 1e-11, 1e-13, 1e-15, 0.0):
                xs.append(x)
                deltas.append(q / (limit * (1.0 - eps)))
            xs.append(x)
            deltas.append(q / math.nextafter(limit, 0.0))
        start = time.perf_counter()
        roots = b_min_user(np.array(deltas), np.array(xs), q)
        assert time.perf_counter() - start < 0.5
        assert roots.tolist() == [b_min_user(d, x, q) for d, x in zip(deltas, xs)]
        finite = np.isfinite(roots)
        assert 0 < finite.sum() < len(roots) - 3  # not only the three at the limit
        assert np.all(f_value(roots[finite], np.array(xs)[finite]) >= q / np.array(deltas)[finite])


def _one_pair_bound(i, j, cfg):
    """b_min_pair of the single pair (i, j)."""
    (bound,) = b_min_pair([i, j], [0], [1], cfg)
    return bound


class TestBMinPair:
    def test_weaker_user_binds(self):
        cfg = make_cfg(t_max=2.0)
        i = make_user(0, gain=1e-10)
        j = make_user(1, gain=1e-12)
        bound = _one_pair_bound(i, j, cfg)
        delta = delta_slack(i, j, cfg)
        expect = b_min_user(delta, cfg.link(j, 1.0), cfg.payload_bits)
        assert math.isfinite(bound)
        assert bound == pytest.approx(expect, rel=1e-9)

    def test_identical_users_match_single_root(self):
        cfg = make_cfg(t_max=2.0)
        i, j = make_user(0), make_user(1)
        bound = _one_pair_bound(i, j, cfg)
        delta = delta_slack(i, j, cfg)
        expect = b_min_user(delta, cfg.link(i, 1.0), cfg.payload_bits)
        assert bound == pytest.approx(expect, rel=1e-9)

    def test_deadline_met_exactly_at_root(self):
        cfg = make_cfg(t_max=2.0)
        i = make_user(0, gain=4e-12)
        j = make_user(1, gain=9e-13, dec=1.3)
        bound = _one_pair_bound(i, j, cfg)
        assert group_time((i, j), bound, 1.0, cfg) == pytest.approx(
            cfg.t_max, rel=1e-9
        )

    def test_compute_delays_alone_can_break_the_deadline(self):
        cfg = make_cfg(t_max=0.1)  # below the four compute delays
        assert _one_pair_bound(make_user(0), make_user(1), cfg) == math.inf

    def test_pairs_in_one_call_match_single_pairs(self):
        # Bounds come back in the order of the index arrays, each the one
        # its pair gets alone, with slacks exactly delta_slack's.
        cfg = make_cfg(6, t_max=2.0)
        gains = (1e-10, 1e-12, 4e-12, 9e-13, 1e-11, 2e-12)
        users = [make_user(k, gain=g) for k, g in enumerate(gains)]
        i, j = [0, 2, 5, 1, 3], [1, 4, 0, 3, 4]
        bounds = b_min_pair(users, i, j, cfg)
        for a, b, bound in zip(i, j, bounds.tolist()):
            assert bound == _one_pair_bound(users[a], users[b], cfg)
            link = min(cfg.link(users[a], 1.0), cfg.link(users[b], 1.0))
            assert bound == b_min_user(delta_slack(users[a], users[b], cfg), link, cfg.payload_bits)

    def test_bounds_do_not_depend_on_b_max(self):
        # Nothing in a bound reads B_max: the pair-bound matrix is bitwise
        # the same at 5 and 40 MHz.
        for seed in range(10):
            matrices = []
            for b_max in (5.0e6, 40.0e6):
                scn = generate_scenario(ScenarioTemplate(b_max=b_max), seed)
                matrices.append(solver._pair_bounds(scn, solver._cost_matrix(scn)))
            assert np.isfinite(matrices[0]).any()
            assert matrices[0].tobytes() == matrices[1].tobytes(), seed


class TestPhiInverse:
    def test_roundtrip_through_phi(self):
        limit = f_limit(1.0)
        s = np.concatenate(
            [np.logspace(-20.0, -0.2, 60), limit * (1.0 - np.logspace(-1.0, -8.0, 8))]
        )
        assert phi(phi_inverse(s)) == pytest.approx(s, rel=1e-14)

    def test_positive_up_to_one_ulp_under_the_limit(self):
        s = np.array([np.nextafter(f_limit(1.0), 0.0), f_limit(1.0) * (1.0 - 1e-15)])
        t = phi_inverse(s)
        assert np.all(np.isfinite(t)) and np.all(t > 1e14)


# ---------------------------------------------------------------------------
# Gradient inverse and per-pair KKT bandwidth


def _array_g_inverse(theta: float, x: float, pq: float) -> float:
    """G^-1(theta) at link x as the allocator computes it: x *
    psi_inverse(theta * x^2 / pq)."""
    return x * float(psi_inverse(np.array(theta * x * x / pq)))


_GRADIENT_INVERSES = [bisection_g_inverse, _array_g_inverse]


class TestGInverse:
    """G^-1 two ways: the scalar bisection the allocator oracle is built
    on, and the allocator's array form (the error cases are the
    oracle's)."""

    def test_roundtrip_through_gradient(self):
        x = make_link(gain=2e-12)
        pq = 1.0 * 1.3e6
        for b0 in (1e4, 1e5, 1e6, 1e7, 1e8):
            theta = g_value(b0, x, pq)
            for g_inverse in _GRADIENT_INVERSES:
                assert g_inverse(theta, x, pq) == pytest.approx(b0, rel=1e-9)

    def test_gradient_of_inverse_is_theta(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            power = float(rng.uniform(0.5, 2.0))
            x = make_link(gain=float(10.0 ** rng.uniform(-13, -10)), power=power)
            pq = power * float(rng.uniform(5e5, 5e6))
            b0 = float(10.0 ** rng.uniform(4, 8))
            theta = g_value(b0, x, pq)
            for g_inverse in _GRADIENT_INVERSES:
                b = g_inverse(theta, x, pq)
                assert g_value(b, x, pq) == pytest.approx(theta, rel=1e-9)

    def test_decreasing_in_theta(self):
        x = make_link()
        q = 1.3e6
        thetas = [g_value(b, x, q) for b in (1e5, 1e6, 1e7)]
        assert thetas[0] > thetas[1] > thetas[2]
        for g_inverse in _GRADIENT_INVERSES:
            bs = [g_inverse(t, x, q) for t in thetas]
            assert bs[0] < bs[1] < bs[2]

    def test_rejects_nonpositive_theta(self):
        with pytest.raises(ValueError):
            bisection_g_inverse(0.0, make_link(), 1.3e6)

    def test_unbracketable_theta_names_the_root_finder(self):
        # G(b) stays far below 1e300 down to 2^-60 Hz.
        with pytest.raises(RuntimeError, match="g_inverse"):
            bisection_g_inverse(1e300, make_link(), 1.3e6)


class TestPsiInverse:
    def test_matches_the_scalar_gradient_inverse(self):
        # G^-1(theta) at link x is x * psi_inverse(theta * x^2 / pq), for
        # bandwidths from 1e-6 to 1e12 times the link.
        x, pq = make_link(), 1.3e6
        t = np.logspace(-6.0, 12.0, 91)
        thetas = np.array([g_value(float(v) * x, x, pq) for v in t])
        arr = x * psi_inverse(thetas * x * x / pq)
        for theta, b in zip(thetas, arr):
            assert b == pytest.approx(bisection_g_inverse(float(theta), x, pq), rel=1e-9)

    def test_roundtrip_through_psi(self):
        s = np.logspace(-30.0, 30.0, 61)
        assert psi(psi_inverse(s)) == pytest.approx(s, rel=1e-11, abs=0.0)

    def test_roundtrip_through_t(self):
        t = np.logspace(-8.0, 12.0, 401)
        assert psi_inverse(psi(t)) == pytest.approx(t, rel=1e-14, abs=0.0)

    def test_fused_step_matches_the_ratio_form(self):
        s = psi(np.logspace(-8.0, 12.0, 401))
        assert psi_inverse(s) == pytest.approx(ratio_psi_inverse(s), rel=1e-14, abs=0.0)

    def test_float_range_edges_have_their_limit_roots(self):
        # Below s = ln2/(largest float), about 3.9e-309, the root t ~
        # sqrt(3 ln2/(2s)) is finite, though a's terms underflow there
        # and 2t overflows at s = 5e-324.  s = 0 and +inf are the limits.
        s = np.array([5e-324, 1e-320, 1e-310, 0.0, math.inf])
        with np.errstate(divide="ignore"):
            t = psi_inverse(s)
        limit = math.sqrt(1.5 * math.log(2.0))
        assert t[:3] * np.sqrt(s[:3]) == pytest.approx(limit, rel=1e-14, abs=0.0)
        assert t[3:].tolist() == [math.inf, 0.0]
        wide = np.array([1e308, 1.0])
        assert psi_inverse(wide) == pytest.approx(ratio_psi_inverse(wide), rel=1e-14, abs=0.0)


def _two_group_report(pair0, pair1, cfg):
    """Allocation for groups (pair0, pair1), each given in its own order."""
    users = [*pair0, *pair1]
    matching = Matching(
        pairs=((pair0[0].id, pair0[1].id), (pair1[0].id, pair1[1].id)),
        total_cost=0.0,
    )
    return check_feasibility(users, matching, cfg)


class TestTildeB:
    """b_tilde(theta), a pair's unconstrained KKT share: its weaker
    user's gradient inverse, which the allocator gives every group
    above its lower bound."""

    def test_identical_users_reduce_to_single_inverse(self):
        cfg = make_cfg(4, b_max=6e6, t_max=2.0)
        i, j = make_user(0), make_user(1)
        report = _two_group_report((i, j), (make_user(2, gain=3e-12), make_user(3)), cfg)
        assert report.feasible
        theta, b = report.theta_star, report.bandwidths[0]
        assert b > report.lower_bounds[0]
        for u in (i, j):
            x = cfg.link(u, 1.0)
            assert b == pytest.approx(
                bisection_g_inverse(theta, x, cfg.payload_bits, cfg.b_max), rel=1e-12
            )

    def test_weaker_user_owns_the_bandwidth(self):
        cfg = make_cfg(4, b_max=8e6, t_max=2.0)
        strong = make_user(0, gain=1e-10)
        weak = make_user(1, gain=3e-13)
        other = (make_user(2, gain=3e-12), make_user(3, gain=5e-12))
        # Order in the pair must not matter: the slower user decides.
        report = _two_group_report((strong, weak), other, cfg)
        swapped = _two_group_report((weak, strong), other, cfg)
        assert report.feasible
        assert swapped.bandwidths == report.bandwidths
        assert swapped.theta_star == report.theta_star
        theta, b = report.theta_star, report.bandwidths[0]
        assert b > report.lower_bounds[0]
        q = cfg.payload_bits
        x_w = cfg.link(weak, 1.0)
        x_s = cfg.link(strong, 1.0)
        assert b == pytest.approx(bisection_g_inverse(theta, x_w, q, cfg.b_max), rel=1e-12)
        # The stronger user's inverse is a different bandwidth.
        assert abs(bisection_g_inverse(theta, x_s, q, cfg.b_max) - b) > 1e-5 * b

    def test_decreasing_in_theta(self):
        # Widening the band lowers theta* and raises every share above
        # its bound, so sum_k max{L_k, b_tilde_k(theta)} is
        # non-increasing in theta.
        pair0 = (make_user(0, gain=1e-11), make_user(1, gain=3e-12))
        pair1 = (make_user(2, gain=2e-12), make_user(3, gain=4e-12))
        reports = [
            _two_group_report(pair0, pair1, make_cfg(4, b_max=float(b), t_max=2.0))
            for b in np.linspace(4e6, 40e6, 10)
        ]
        assert all(r.feasible for r in reports)
        thetas = [r.theta_star for r in reports]
        assert all(a > b for a, b in zip(thetas, thetas[1:]))
        for k in range(2):
            shares = [r.bandwidths[k] for r in reports]
            assert all(a < b for a, b in zip(shares, shares[1:]))


# ---------------------------------------------------------------------------
# The allocator (optimality certificates live in support.assert_kkt_certificates)


class TestKktAllocate:
    def test_single_pair_gets_whole_band(self):
        rng = np.random.default_rng(0)
        users, cfg, matching = random_instance(rng, k=1)
        report = check_feasibility(users, matching, cfg)
        assert report.feasible
        assert report.bandwidths[0] == pytest.approx(cfg.b_max, rel=1e-9)
        pair = paired_users(users, matching)[0]
        assert report.theta_star == pytest.approx(
            active_gradient(pair, cfg.b_max, 1.0, cfg), rel=1e-6
        )

    def test_identical_groups_split_equally(self):
        users = [make_user(i, gain=2e-12) for i in range(6)]
        cfg = make_cfg(6, b_max=9e6, t_max=2.0)
        matching = consecutive_matching(6)
        report = check_feasibility(users, matching, cfg)
        assert report.feasible
        for b in report.bandwidths:
            assert b == pytest.approx(cfg.b_max / 3.0, rel=1e-6)
        assert_kkt_certificates(users, matching, cfg, report)

    def test_randomized_instances_satisfy_kkt(self):
        rng = np.random.default_rng(77)
        for trial in range(30):
            k = int(rng.integers(2, 5))
            users, cfg, matching = random_instance(rng, k=k)
            report = check_feasibility(users, matching, cfg)
            assert report.feasible, f"trial {trial} unexpectedly infeasible"
            assert_kkt_certificates(users, matching, cfg, report)

    def test_weak_user_draws_more_bandwidth(self):
        # One group much weaker than the other: it must receive more band.
        users = [
            make_user(0, gain=1e-10),
            make_user(1, gain=1e-10),
            make_user(2, gain=1e-12),
            make_user(3, gain=1e-12),
        ]
        cfg = make_cfg(4, b_max=8e6, t_max=2.0)
        report = check_feasibility(users, consecutive_matching(4), cfg)
        assert report.feasible
        assert report.bandwidths[1] > report.bandwidths[0]

    def test_objective_matches_group_airtimes(self):
        rng = np.random.default_rng(5)
        users, cfg, matching = random_instance(rng, k=3)
        report = check_feasibility(users, matching, cfg)
        pairs = paired_users(users, matching)
        xi = [
            max(
                cfg.payload_bits / f_value(b, cfg.link(i, p)),
                cfg.payload_bits / f_value(b, cfg.link(j, p)),
            )
            for (i, j), b, p in zip(pairs, report.bandwidths, cfg.group_powers)
        ]
        assert report.objective == pytest.approx(
            math.fsum(p * x for p, x in zip(cfg.group_powers, xi)), rel=1e-12
        )
        assert report.energy_total == pytest.approx(
            e_const(users, cfg) + report.objective, rel=1e-12
        )

    def test_corner_when_lower_bounds_fill_the_band(self):
        rng = np.random.default_rng(21)
        users, cfg, matching = random_instance(rng, k=2)
        bounds = _bounds(users, matching, cfg)
        pinched = replace(cfg, b_max=math.fsum(bounds))
        report = kkt_allocate(users, matching, pinched, bounds)
        assert report.feasible
        assert report.bandwidths == tuple(bounds)
        # Multiplier sits at the top of the gradient range: no group
        # would prefer to shrink below its bound.
        for lb, (a, b) in zip(bounds, matching.pairs):
            assert active_gradient(
                (users[a], users[b]), lb, pinched.power, pinched
            ) <= report.theta_star * (1.0 + 1e-9)

    def test_sum_of_bounds_above_band_is_infeasible(self):
        rng = np.random.default_rng(22)
        users, cfg, matching = random_instance(rng, k=2)
        bounds = _bounds(users, matching, cfg)
        pinched = replace(cfg, b_max=0.99 * math.fsum(bounds))
        report = kkt_allocate(users, matching, pinched, bounds)
        assert not report.feasible
        assert report.infeasibility_reason == "bandwidth_sum"

    def test_energy_budget_violation_is_reported(self):
        rng = np.random.default_rng(23)
        users, cfg, matching = random_instance(rng, k=2)
        base = check_feasibility(users, matching, cfg)
        assert base.feasible
        tight = replace(cfg, e_max=e_const(users, cfg) + 0.99 * base.objective)
        report = check_feasibility(users, matching, tight)
        assert not report.feasible
        assert report.infeasibility_reason == "energy"
        # The allocation itself is unchanged; only the budget verdict flips.
        assert report.bandwidths == base.bandwidths

    def test_latency_hopeless_pair_is_reported(self):
        users = [make_user(i) for i in range(4)]
        cfg = make_cfg(4, t_max=0.1)
        report = check_feasibility(users, consecutive_matching(4), cfg)
        assert not report.feasible
        assert report.infeasibility_reason == "latency"

    def test_allocator_requires_feasible_bounds(self):
        # An infinite bound gets no allocation: the verdict is latency.
        users = [make_user(0), make_user(1), make_user(2, dec=50.0), make_user(3)]
        cfg = make_cfg(4, t_max=2.0)
        matching = consecutive_matching(4)
        bounds = _bounds(users, matching, cfg)
        assert math.isfinite(bounds[0]) and bounds[1] == math.inf
        report = kkt_allocate(users, matching, cfg, bounds)
        assert not report.feasible
        assert report.infeasibility_reason == "latency"
        assert report.bandwidths == ()
        assert report.lower_bounds == tuple(bounds)
        assert report.objective == report.energy_total == math.inf

    def test_grid_oracle_agreement_two_groups(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            users, cfg, matching = random_instance(rng, k=2)
            report = check_feasibility(users, matching, cfg)
            assert report.feasible
            pairs = paired_users(users, matching)
            l1, l2 = report.lower_bounds
            step = cfg.b_max / 2000.0
            b1 = np.arange(l1, cfg.b_max - l2 + step, step)
            b1 = b1[b1 <= cfg.b_max - l2]
            best = math.inf
            for x in b1:
                obj = cfg.group_powers[0] * group_airtime(
                    pairs[0], float(x), cfg.group_powers[0], cfg
                ) + cfg.group_powers[1] * group_airtime(
                    pairs[1], cfg.b_max - float(x), cfg.group_powers[1], cfg
                )
                best = min(best, obj)
            # The allocator can only beat the grid (it is not quantized).
            assert report.objective <= best * (1.0 + 1e-9)
            # And the grid cannot beat it by more than one step's slope.
            assert best - report.objective <= 2.0 * report.theta_star * step


# ---------------------------------------------------------------------------
# Fixed allocations (baseline scoring path)


def _bounds(users, matching, cfg):
    """The pairs' minimum bandwidths, as the solver passes them."""
    return b_min_pair(users, *np.transpose(matching.pairs), cfg).tolist()


class TestEvaluateFixedAllocation:
    def test_an_infinite_value_exceeds_every_finite_limit(self):
        # inf - limit > 1e-12 * inf compares inf with inf: the slop rule
        # alone let an overflowing transmit energy pass its budget.
        assert bandwidth._exceeds(math.inf, 200.0)
        assert bandwidth._exceeds(math.inf, -200.0)
        assert bandwidth._exceeds(math.inf, 1.7976931348623157e308)
        assert not bandwidth._exceeds(math.inf, math.inf)
        assert not bandwidth._exceeds(200.0, math.inf)
        assert bandwidth._exceeds(200.0 * (1.0 + 1e-11), 200.0)
        assert not bandwidth._exceeds(200.0 * (1.0 + 1e-13), 200.0)

    def test_equal_split_objective(self):
        rng = np.random.default_rng(41)
        users, cfg, matching = random_instance(rng, k=2)
        share = cfg.b_max / 2.0
        bounds = _bounds(users, matching, cfg)
        report = evaluate_fixed_allocation(users, matching, cfg, bounds, [share, share])
        assert report.feasible
        assert report.lower_bounds == tuple(bounds)
        pairs = paired_users(users, matching)
        expect = math.fsum(
            p * group_airtime(pair, share, p, cfg)
            for pair, p in zip(pairs, cfg.group_powers)
        )
        assert report.objective == pytest.approx(expect, rel=1e-12)

    def test_optimized_never_loses_to_equal_split(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            users, cfg, matching = random_instance(rng, k=int(rng.integers(2, 5)))
            opt = check_feasibility(users, matching, cfg)
            k = len(matching.pairs)
            eq = evaluate_fixed_allocation(
                users, matching, cfg, opt.lower_bounds, [cfg.b_max / k] * k
            )
            if eq.feasible:
                assert opt.objective <= eq.objective * (1.0 + 1e-9)

    def test_below_minimum_bandwidth_flags_latency(self):
        rng = np.random.default_rng(43)
        users, cfg, matching = random_instance(rng, k=2)
        bounds = _bounds(users, matching, cfg)
        low = [0.5 * lb for lb in bounds]
        scored = evaluate_fixed_allocation(users, matching, cfg, bounds, low)
        assert not scored.feasible
        assert scored.infeasibility_reason == "latency"
        assert math.isnan(scored.theta_star)

    def test_oversubscribed_band_flags_bandwidth_sum(self):
        rng = np.random.default_rng(44)
        users, cfg, matching = random_instance(rng, k=2)
        big = [0.6 * cfg.b_max, 0.6 * cfg.b_max]
        scored = evaluate_fixed_allocation(
            users, matching, cfg, _bounds(users, matching, cfg), big
        )
        assert not scored.feasible
        assert scored.infeasibility_reason == "bandwidth_sum"

    def test_energy_reason_when_budget_tight(self):
        rng = np.random.default_rng(45)
        users, cfg, matching = random_instance(rng, k=2)
        share = cfg.b_max / 2.0
        bounds = _bounds(users, matching, cfg)
        base = evaluate_fixed_allocation(users, matching, cfg, bounds, [share, share])
        tight = replace(cfg, e_max=e_const(users, cfg) + 0.99 * base.objective)
        scored = evaluate_fixed_allocation(users, matching, tight, bounds, [share, share])
        assert not scored.feasible
        assert scored.infeasibility_reason == "energy"
        assert scored.energy_total == pytest.approx(e_const(users, cfg) + scored.objective)

    def test_rejects_bounds_or_bandwidths_not_one_per_group(self):
        # Scoring 3 shares of 8 groups once read as a feasible split of
        # a fraction of the energy; a single share must not broadcast.
        scn = generate_scenario(ScenarioTemplate(b_max=40e6), 0)
        users, cfg = list(scn.users), scn.cfg
        matching = Matching(pairs=solver.channel_balanced_matching(users), total_cost=0.0)
        bounds = _bounds(users, matching, cfg)
        shares = [cfg.b_max / len(bounds)] * len(bounds)
        assert evaluate_fixed_allocation(users, matching, cfg, bounds, shares).feasible
        for short_bounds, short_shares in [
            (bounds, shares[:3]),
            (bounds, shares[:1]),
            (bounds[:2], shares),
        ]:
            with pytest.raises(ValueError, match="one entry per group"):
                evaluate_fixed_allocation(users, matching, cfg, short_bounds, short_shares)


# ---------------------------------------------------------------------------
# The weaker-user shortcut against the two-user form


@settings(max_examples=150, deadline=None)
@given(
    pair=user_pair(),
    t_max=st.floats(min_value=0.2, max_value=4.0),
    power=st.floats(min_value=0.25, max_value=4.0),
)
def test_prop_b_min_pair_is_max_of_user_roots(pair, t_max, power):
    cfg = make_cfg(2, t_max=t_max, power=power)
    delta = delta_slack(*pair, cfg)
    roots = [b_min_user(delta, cfg.link(u, power), cfg.payload_bits) for u in pair]
    assert _one_pair_bound(*pair, cfg) == max(roots)


def test_b_min_pair_is_max_of_user_roots_where_the_root_is_not_monotone():
    # The property's shrunk example: one ulp apart in gain, the stronger
    # user's own root is one ulp above the weaker one's.
    cfg = make_cfg(2, t_max=1.0, power=2.0)
    pair = (make_user(0, gain=1e-13), make_user(1, gain=1.0000000000000002e-13, dec=1.171875))
    delta = delta_slack(*pair, cfg)
    roots = [b_min_user(delta, cfg.link(u, 2.0), cfg.payload_bits) for u in pair]
    assert roots == [2239784.2449775646, 2239784.244977565]
    assert _one_pair_bound(*pair, cfg) == 2239784.244977565


# Rate demands Q/delta as a share of the saturation rate: tiny, ordinary,
# near saturation, at it and above it.
_demand_shares = st.one_of(
    st.floats(min_value=1e-20, max_value=1e-3),
    st.floats(min_value=1e-3, max_value=1.0 - 1e-6),
    st.floats(min_value=1e-9, max_value=1e-6).map(lambda e: 1.0 - e),
    st.floats(min_value=1.0, max_value=3.0),
)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=1e4, max_value=1e12),
    q=st.floats(min_value=1e4, max_value=1e8),
    share=_demand_shares,
    slack_sign=st.sampled_from([1.0, 1.0, 1.0, 0.0, -1.0]),
)
def test_prop_b_min_user_matches_the_bisection_oracle(x, q, share, slack_sign):
    delta = slack_sign * q / (share * f_limit(x))
    b = b_min_user(delta, x, q)
    if math.isfinite(b):
        assert f_value(b, x) >= q / delta
    try:
        oracle = bisection_b_min(delta, x, q)
    except RuntimeError:
        # Within ulps of saturation the root can lie past the bisection's
        # reach (2^60 MHz); only the hi-side contract above applies there.
        return
    assert math.isinf(b) == math.isinf(oracle)
    if math.isinf(b):
        return
    target = q / delta
    # The root's relative condition number F/(b F'): in floating point the
    # rate is known to an ulp or two, so near saturation any two roots of
    # F(b) = target, the oracle's included, differ by a few ulps times it.
    # Away from saturation that term is tiny and the gap is within 1e-11.
    kappa = target / (oracle * f_prime(oracle, x))
    assert abs(b - oracle) <= (1e-11 + 8.0 * kappa * 2.0**-52) * oracle
    if target <= (1.0 - 1e-4) * f_limit(x):
        assert abs(b - oracle) <= 1e-11 * oracle


@st.composite
def _instance(draw):
    k = draw(st.integers(min_value=1, max_value=3))
    users = [u for g in range(k) for u in draw(user_pair(2 * g))]
    power = draw(st.floats(min_value=0.25, max_value=4.0))
    cfg = make_cfg(2 * k, b_max=4.0e6 * k, t_max=2.0, power=power)
    return users, cfg, consecutive_matching(2 * k)


@settings(max_examples=60, deadline=None)
@given(instance=_instance())
def test_prop_objective_is_sum_of_transmit_energies(instance):
    users, cfg, matching = instance
    report = check_feasibility(users, matching, cfg)
    if report.feasible:
        expect = math.fsum(
            transmit_energy(pair, b, p, cfg)
            for pair, b, p in zip(
                paired_users(users, matching), report.bandwidths, cfg.group_powers
            )
        )
        assert report.objective == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# The allocator against the multiplier-bisection oracle


@st.composite
def _kkt_draw(draw):
    """(users, cfg, matching, bounds) of K = 1-8 groups with random links,
    p*Q, bounds and B_max.  B_max is drawn by case: with room to spare;
    within a few 1e-9 of sum(L), the degenerate corner; with one group's
    bound 1e3 times the rest, so that it sits at its bound; 10 to 1e8
    times sum(L), where free groups sit at b/x far above 49.5 and psi's
    series branch runs; 1e20 Hz, the wide band; or short of sum(L)."""
    k = draw(st.integers(min_value=1, max_value=8))
    users = [u for g in range(k) for u in draw(user_pair(2 * g))]
    power = draw(st.floats(min_value=0.25, max_value=4.0))
    payload = draw(st.floats(min_value=1e5, max_value=1e7))
    case = draw(st.sampled_from(["room", "corner", "pinned", "series", "wide", "short"]))
    cfg = make_cfg(2 * k, power=power, payload=payload)
    matching = consecutive_matching(2 * k)
    # Bounds as multiples of each pair's link: from deep in the rate's
    # linear range to well into its saturation.
    shares = st.floats(min_value=1e-4, max_value=10.0)
    bounds = [pair_link(users[a], users[b], cfg) * draw(shares) for a, b in matching.pairs]
    if case == "pinned":
        bounds[0] *= 1e3
    total = math.fsum(bounds)
    b_max = {
        "room": total * (1.0 + draw(st.floats(min_value=1e-6, max_value=100.0))),
        "corner": total * (1.0 + draw(st.floats(min_value=-5e-9, max_value=5e-9))),
        "pinned": total * (1.0 + draw(st.floats(min_value=1e-3, max_value=0.5))),
        "series": total * 10.0 ** draw(st.floats(min_value=1.0, max_value=8.0)),
        "wide": 1e20,
        "short": total * draw(st.floats(min_value=0.5, max_value=1.0 - 2e-9)),
    }[case]
    event(f"case {case}")
    return users, replace(cfg, b_max=b_max), matching, bounds


@settings(max_examples=150, deadline=None)
@given(draw=_kkt_draw())
def test_prop_kkt_allocate_matches_the_bisection_oracle(draw):
    users, cfg, matching, bounds = draw
    report = kkt_allocate(users, matching, cfg, bounds)
    links = [pair_link(users[a], users[b], cfg) for a, b in matching.pairs]
    _, oracle = bisection_kkt(bounds, links, cfg.power * cfg.payload_bits, cfg.b_max)
    scored = evaluate_fixed_allocation(users, matching, cfg, bounds, oracle)
    assert report.infeasibility_reason == scored.infeasibility_reason
    assert all(b >= lb for b, lb in zip(report.bandwidths, bounds))
    if report.infeasibility_reason == "bandwidth_sum":
        assert report.bandwidths == tuple(bounds) == tuple(oracle)
        return
    assert math.fsum(report.bandwidths) <= cfg.b_max * (1.0 + 1e-9)
    # Both searches stop by one rule, B_max - sum b <= 1e-9*B_max, on one
    # curve b(theta) whose entries all move the same way with theta, so
    # their gaps add up to at most 1e-9*B_max, plus the oracle's 1e-12
    # roots.  Against its own size, a group that holds a small share of
    # the band may move by more than that.
    gaps = [abs(b - expect) for b, expect in zip(report.bandwidths, oracle, strict=True)]
    assert math.fsum(gaps) <= 2e-9 * cfg.b_max
    event(f"groups at their bound: {sum(b == lb for b, lb in zip(report.bandwidths, bounds))}")


@st.composite
def _bracket_draw(draw):
    """(bounds, links, pq, B_max) of K = 1-16 groups: links from 1 kHz
    to 1 THz, bounds 1e-4 to 10 times their links, and B_max above the
    bounds' sum by 1e-8 to 1e8 times it.  The widest bands put free
    groups at b/x far above 49.5, where psi's series branch runs and
    a = psi(t)*t^2 nears 3 ln2/2.  Some draws repeat one group, so that
    every free group meets the water level at once."""
    k = draw(st.integers(min_value=1, max_value=16))
    links = np.array([10.0 ** draw(st.floats(min_value=3.0, max_value=12.0)) for _ in range(k)])
    bounds = links * [draw(st.floats(min_value=1e-4, max_value=10.0)) for _ in range(k)]
    if draw(st.booleans()):
        links, bounds = np.full(k, links[0]), np.full(k, bounds[0])
    pq = draw(st.floats(min_value=1e5, max_value=4e7))
    b_max = math.fsum(bounds) * (1.0 + 10.0 ** draw(st.floats(min_value=-8.0, max_value=8.0)))
    return bounds, links, pq, b_max


# The level is 1 MHz.  The second group's bound sits 1 % above it at
# t = 1010, where a is near 3 ln2/2, while the free group's a is 1 + 1e-12:
# that bound group, not the free one, sets theta_hi.
BOUND_ABOVE_THE_LEVEL = (np.array([1e3, 1.01e6]), np.array([1e12, 1e3]), 1e6, 2.01e6)


@settings(max_examples=300, deadline=None, derandomize=True)
@example(draw=BOUND_ABOVE_THE_LEVEL)
@given(draw=_bracket_draw())
def test_prop_water_level_ends_straddle_the_band(draw):
    bounds, links, _, b_max = draw
    lo, hi = bandwidth._bracket(bounds, links, b_max)
    used = [float(bandwidth._respond(bounds, links, v).sum()) for v in (lo, hi)]
    assert used[0] <= b_max < used[1]
    # v_hi / v_lo is sqrt(a) = sqrt(psi(t)*t^2) at most, before the
    # margins (and their rounding).
    level, free = bandwidth._water_level(bounds.tolist(), b_max)
    margin = bandwidth._BRACKET_MARGIN * b_max / free
    widest = math.sqrt(1.5 * math.log(2.0)) * (1.0 + margin) / (1.0 - margin)
    assert 1.0 < hi / lo <= widest * (1.0 + 1e-15)
    event(f"series branch at the level: {bool(np.any(level / links[bounds < level] > 49.5))}")


def test_kkt_allocate_wants_one_bound_per_group():
    users = [make_user(u) for u in range(4)]
    with pytest.raises(ValueError, match="one entry per group"):
        kkt_allocate(users, consecutive_matching(4), make_cfg(4), [1e5])


@st.composite
def _float_range_draw(draw):
    """(bounds, links, pq, B_max): groups as :func:`_bracket_draw` draws
    them, with every bound scaled by 10^-300 to 1 (a deadline up to
    T_max = 1e308), and B_max = 10^k for every k from the bounds' sum to
    308, or just above the sum, so that the bounds nearly fill the band."""
    bounds, links, pq, _ = draw(_bracket_draw())
    bounds = bounds * 10.0 ** -draw(st.one_of(st.just(0), st.integers(0, 300)))
    total = math.fsum(bounds)
    if draw(st.booleans()):
        b_max = total * (1.0 + 10.0 ** draw(st.floats(min_value=-12.0, max_value=-6.0)))
    else:
        b_max = float(f"1e{draw(st.integers(math.ceil(math.log10(total)), 308))}")
    return bounds, links, pq, b_max


# The ends close on adjacent subnormal multipliers, 5.406e-320 and
# 5.4066e-320, whose sums lie on either side of B_max and neither within
# 1e-9 of it: the search once ran into its step cap there.
ADJACENT_SUBNORMALS = (np.array([1e3, 2e3]), np.array([1e10, 2e10]), 1.3e6, 1e163)
# G(L) passes the largest float, and so does theta*, while theta*x^2/pq
# does not overflow there: the largest float still overfilled the band,
# and a split the bound fits was reported short of B_max (bandwidth_sum).
ABOVE_THE_LARGEST_FLOAT = (np.array([1e-152]), np.array([1e3]), 1e6, 1.000001e-152)


@settings(max_examples=300, deadline=None, derandomize=True)
@example(draw=ADJACENT_SUBNORMALS)
@example(draw=ABOVE_THE_LARGEST_FLOAT)
@given(draw=_float_range_draw())
def test_prop_any_finite_band_is_split(draw):
    bounds, links, pq, b_max = draw
    users = [make_user(u, x * NOISE) for u, x in enumerate(np.repeat(links, 2))]
    cfg = make_cfg(len(users), b_max=b_max, e_max=1e308, payload=pq)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = kkt_allocate(users, consecutive_matching(len(users)), cfg, bounds.tolist())
    assert b_max * (1.0 - 1e-9) <= math.fsum(report.bandwidths) <= b_max * (1.0 + 1e-9)
    assert all(b >= lb * (1.0 - 1e-12) for b, lb in zip(report.bandwidths, bounds))
    assert math.isfinite(report.theta_star)


# gen-scenario --n 2 --seed 0, then solve --tmax 1e165 --bmax 5e-159:
# one group with a 1.3e-159 Hz bound.  Its multiplier is past the
# largest float, and a search on theta held the group at its bound, for
# 1e165 J against the equal split's 2.6e164 J.
HELD_AT_ITS_BOUND = (
    np.array([1.3000000000000002e-159]), np.array([1243621260.0689585]), 1.3e6, 5e-159
)


@settings(max_examples=300, deadline=None, derandomize=True)
@example(draw=HELD_AT_ITS_BOUND)
@given(draw=_float_range_draw())
def test_prop_kkt_split_costs_no_more_than_the_equal_split(draw):
    bounds, links, pq, b_max = draw
    users = [make_user(u, x * NOISE) for u, x in enumerate(np.repeat(links, 2))]
    cfg = make_cfg(len(users), b_max=b_max, e_max=1e308, payload=pq)
    matching, lower = consecutive_matching(len(users)), bounds.tolist()
    equal = evaluate_fixed_allocation(users, matching, cfg, lower, [b_max / len(lower)] * len(lower))
    assume(equal.infeasibility_reason != "latency")
    report = kkt_allocate(users, matching, cfg, lower)
    # The split may leave 1e-9 of the band unused, and p*Q/F(b) rises by
    # at most that share when b shrinks by it (F'(b)*b <= F(b)), so
    # where the equal split is itself optimal it may cost up to 1e-9 more.
    assert report.objective <= equal.objective * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# The Lagrangian energy bound against brute force


def _eligible_allocations(scn, bounds):
    """(objective, matching, report) of kkt_allocate on every matching
    whose pair bounds are finite and sum to at most B_max."""
    users, cfg, rows = list(scn.users), scn.cfg, bounds.tolist()
    eligible = []
    for pairs in all_matchings(cfg.n_users):
        lower = [rows[i][j] for i, j in pairs]
        if any(math.isinf(b) for b in lower) or math.fsum(lower) > cfg.b_max:
            continue
        matching = Matching(pairs=pairs, total_cost=0.0)
        report = kkt_allocate(users, matching, cfg, lower)
        eligible.append((report.objective, matching, report))
    return eligible


@st.composite
def _energy_bound_instance(draw):
    """A generated scenario of 4 to 10 users and its pair bounds.  At 10
    users the distortion cap stays tight, so that brute force over the
    945 matchings meets fewer finite ones."""
    n = draw(st.sampled_from([4, 6, 8, 10]))
    template = ScenarioTemplate(
        n_users=n,
        b_max=draw(st.floats(min_value=1.0e6, max_value=40.0e6)),
        t_max=draw(st.floats(min_value=2.0, max_value=10.0)),
        d_max=draw(st.floats(min_value=0.8, max_value=0.87 if n == 10 else 1.0)),
        e_max=1.0e4,
    )
    scn = generate_scenario(template, draw(st.integers(min_value=0, max_value=10_000)))
    return scn, solver._pair_bounds(scn, solver._cost_matrix(scn))


@settings(max_examples=20, deadline=None)
@given(
    instance=_energy_bound_instance(),
    log_thetas=st.lists(st.floats(min_value=-35.0, max_value=5.0), min_size=3, max_size=3),
    budget_share=st.sampled_from([0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 + 1e-6, 1.01, 1.1, 1.5]),
    start=st.integers(min_value=0, max_value=10_000),
    stretch=st.sampled_from([0.0, -2.0, 2.0]),
    between=st.floats(min_value=0.1, max_value=0.9),
)
def test_prop_energy_bound_is_sound(
    instance, log_thetas, budget_share, start, stretch, between
):
    scn, bounds = instance
    eligible = _eligible_allocations(scn, bounds)
    assume(eligible)
    least, argmin, _ = min(eligible, key=lambda e: e[0])
    users = list(scn.users)

    # Weak duality: every q(v) is at most the least transmit energy.
    # Concavity in theta = pq/v^2: every tangent q(a) + s(a)*(theta - a)
    # lies above q.  The levels run from theta_max * e^-35 to theta_max *
    # e^5, with theta_max = pq/v_min^2.
    q, v_min = energy_dual(users, scn.cfg, bounds, math.inf)
    pq = scn.cfg.power * scn.cfg.payload_bits
    levels = [v_min * math.exp(-0.5 * k) for k in log_thetas]
    thetas = [pq / v / v for v in levels]
    probes = [q(v) for v in levels]
    for a, (qa, sa) in zip(thetas, probes):
        assert qa <= least * (1.0 + 1e-12)
        for theta, (value, _) in zip(thetas, probes):
            rise = sa * (theta - a)
            assert value <= qa + rise + 1e-12 * (abs(qa) + abs(rise) + least)

    # The search starts at v_1 = min_k b_k/sqrt(a(b_k/x_k)) of some
    # matching: the level of its KKT multiplier, or (stretched
    # bandwidths) a level off it.
    _, rejected, report = eligible[start % len(eligible)]
    start_bandwidths = [b * math.exp(stretch) for b in report.bandwidths]
    grid_max = max(q(v_min * math.exp(k))[0] for k in np.linspace(0.0, 15.0, 200))

    def check(label, transmit_budget):
        """Run the bound at this transmit budget, check its verdict, and
        return the first level it probed."""
        cfg = replace(scn.cfg, e_max=e_const(users, scn.cfg) + transmit_budget)
        probed = []  # (v, q, s)

        def counted_dual(*args):
            q, v_min = energy_dual(*args)

            def counted(v):
                probed.append((v, *q(v)))
                return probed[-1][1:]

            return counted, v_min

        with mock.patch.object(bandwidth, "energy_dual", counted_dual):
            fired = energy_infeasible(users, cfg, bounds, rejected.pairs, start_bandwidths)
        # The bracket the probes leave: the search range, cut at the
        # largest falling and the smallest rising probe (in theta, s > 0
        # rises).  A silent search that stops while it is still 5e-4
        # wide or more stopped at a tangent cut (or a zero supergradient,
        # a maximum of q).
        lo = max([math.log(v_min)] + [math.log(v) for v, _, s in probed if s < 0.0])
        hi = min(
            [math.log(v_min) + bandwidth._LOG_LEVEL_SPAN]
            + [math.log(v) for v, _, s in probed if s > 0.0]
        )
        cut = not fired and hi - lo >= bandwidth._LOG_LEVEL_TOL
        event(f"budget {label}, stretch {stretch}, bound fired: {fired}, cut short: {cut}")
        if fired:
            # Brute force must agree: the least-energy matching, and with
            # it every other, misses the budget.
            lower = [bounds[i, j] for i, j in argmin.pairs]
            assert not kkt_allocate(users, argmin, cfg, lower).feasible
        if cut:
            # Stopped by the tangent cut: no grid theta may have beaten
            # the budget.
            budget = cfg.e_max - e_const(users, cfg)
            assert grid_max - budget <= 1e-9 * max(abs(budget), 1.0)
        return probed[0][0]

    # Two budgets: a share of the least energy (below 1, no matching
    # fits), and, when some level on a 200-point log grid over the
    # search's range beats v_1, one between q(v_1) (or 0, as a budget
    # must be positive) and the best grid value: the first probe is
    # silent there, the grid proves infeasibility, and a cut that ends
    # the search too early shows.
    v_1 = check(f"share {'below' if budget_share < 1.0 else 'above'} 1", budget_share * least)
    low = max(q(v_1)[0], 0.0)
    if grid_max > low:
        check("between q(theta_1) and the grid", low + between * (grid_max - low))


@settings(max_examples=20, deadline=None)
@given(
    instance=_energy_bound_instance(),
    budget_share=st.sampled_from([0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 + 1e-6, 1.01, 1.1, 1.5]),
    start=st.integers(min_value=0, max_value=10_000),
    stretch=st.sampled_from([0.0, -2.0, 2.0]),
    between=st.floats(min_value=0.1, max_value=0.9),
)
def test_prop_the_half_edge_bound_changes_no_verdict_or_probe(
    instance, budget_share, start, stretch, between
):
    # The draws and the two budgets of test_prop_energy_bound_is_sound.
    # With the budget, energy_dual may decide a probe by the half-edge
    # bound; with an infinite one, every probe solves its MWPM.  The search must
    # give the same verdict after the same levels either way.
    scn, bounds = instance
    eligible = _eligible_allocations(scn, bounds)
    assume(eligible)
    least = min(e[0] for e in eligible)
    _, rejected, report = eligible[start % len(eligible)]
    start_bandwidths = [b * math.exp(stretch) for b in report.bandwidths]
    users = list(scn.users)

    def search(transmit_budget, exact):
        """The verdict and the probed levels, and whether the last probe
        was decided without its MWPM (a nan slope)."""
        cfg = replace(scn.cfg, e_max=e_const(users, scn.cfg) + transmit_budget)
        probed, slopes = [], []

        def dual(users, cfg, bounds, budget):
            q, v_min = energy_dual(users, cfg, bounds, math.inf if exact else budget)

            def counted(v):
                probed.append(v)
                value, slope = q(v)
                slopes.append(slope)
                return value, slope

            return counted, v_min

        with mock.patch.object(bandwidth, "energy_dual", dual):
            verdict = energy_infeasible(users, cfg, bounds, rejected.pairs, start_bandwidths)
        return (verdict, probed), math.isnan(slopes[-1])

    q, v_min = energy_dual(users, scn.cfg, bounds, math.inf)
    grid_max = max(q(v_min * math.exp(k))[0] for k in np.linspace(0.0, 15.0, 200))
    budgets = {"share": budget_share * least}
    (_, levels), _ = search(budgets["share"], exact=True)
    low = max(q(levels[0])[0], 0.0)
    if grid_max > low:
        budgets["between"] = low + between * (grid_max - low)
    for label, transmit_budget in budgets.items():
        exact, undecided = search(transmit_budget, exact=True)
        fast, shortcut = search(transmit_budget, exact=False)
        event(f"budget {label}, bound fired: {exact[0]}, half-edge decided: {shortcut}")
        assert not undecided
        assert fast == exact


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([2, 4, 6, 8, 10]),
    seed=st.integers(0, 10_000),
    hole_rate=st.sampled_from([0.0, 0.3, 0.6]),
    kind=st.sampled_from(["tenths", "huge", "subnormal"]),
)
def test_prop_the_half_edge_bound_is_at_most_the_brute_force_mwpm(n, seed, hole_rate, kind):
    # Prices as energy_dual's q builds them: integer tenths, which tie
    # exactly; prices near the largest float times the 2^-k <= 1/n that
    # q scales by; and subnormal multiples of 2^-1074, whose sums cross
    # into the normal range.  Holes are +inf, as is the diagonal.
    rng = np.random.default_rng(seed)
    if kind == "tenths":
        c = rng.integers(1, 11, size=(n, n)) / 10.0
    elif kind == "huge":
        scale = 2.0 ** -(n - 1).bit_length()
        c = scale * (sys.float_info.max * rng.uniform(0.5, 1.0, size=(n, n)))
    else:
        c = rng.integers(1, 2**rng.integers(1, 56), size=(n, n)) * 5e-324
    c = np.triu(c, 1)
    c[np.triu(rng.uniform(size=(n, n)) < hole_rate, 1)] = INFEASIBLE
    c = c + c.T
    np.fill_diagonal(c, INFEASIBLE)
    half_edge = bandwidth._half_edge(c)
    best = brute_force_mwpm(PairCostMatrix(c))
    event(f"{kind}: {'no perfect matching' if best is None else 'matched'}")
    if np.isinf(c).all(axis=1).any():
        assert best is None and half_edge == math.inf
    if best is not None:
        tight = half_edge == best.total_cost
        event(f"{kind}: bound {'equals' if tight else 'is below'} the optimum")
        assert half_edge <= best.total_cost


class TestEnergyBoundSearch:
    """energy_infeasible's search on hand-made bounds q, concave in
    theta, patched in for energy_dual as functions of the level v =
    sqrt(pq/theta).  The search starts at v_1, the level of the rejected
    candidate's multiplier theta_1, and bisects log v over [v_min, v_min
    * e^15], which is log theta over [theta_max * e^-30, theta_max]."""

    PAIRS, BANDWIDTHS = [(0, 1), (2, 3)], [2.0e6, 3.0e6]

    def _candidate(self):
        """(users, cfg, theta_1, transmit budget) of a 4-user scenario."""
        scn = generate_scenario(ScenarioTemplate(n_users=4), 0)
        users, cfg = list(scn.users), scn.cfg
        pq = cfg.power * cfg.payload_bits
        theta_1 = max(
            g_value(b, pair_link(users[u], users[v], cfg), pq)
            for (u, v), b in zip(self.PAIRS, self.BANDWIDTHS)
        )
        return users, cfg, theta_1, cfg.e_max - e_const(users, cfg)

    def _search(self, users, cfg, q, theta_max):
        """The verdict, and every theta = pq/v^2 probed, in order."""
        pq, probed = cfg.power * cfg.payload_bits, []

        def counted(v):
            probed.append(pq / v / v)
            return q(probed[-1])

        dual = lambda *args: (counted, math.sqrt(pq / theta_max))
        with mock.patch.object(bandwidth, "energy_dual", dual):
            verdict = energy_infeasible(
                users, cfg, np.zeros((4, 4)), self.PAIRS, self.BANDWIDTHS
            )
        return verdict, probed

    def test_narrow_peak_above_the_budget_is_found(self):
        users, cfg, theta_1, budget = self._candidate()
        # A tent peaking 1e-3 above the budget at theta_1 * e^-7.3, above
        # the budget only within 0.5 % of its peak.
        peak, rise = theta_1 * math.exp(-7.3), 1e-3 * max(abs(budget), 1.0)
        slope = rise / (0.005 * peak)

        def q(theta):
            s = slope if theta < peak else -slope
            return budget + rise - slope * abs(theta - peak), s

        verdict, probed = self._search(users, cfg, q, theta_1 * math.exp(10.0))
        assert verdict is True
        assert probed[0] == pytest.approx(theta_1, rel=1e-12)
        assert q(probed[-1])[0] > budget
        assert len(probed) <= 16

    def test_zero_supergradient_at_a_silent_probe_ends_the_search(self):
        users, cfg, theta_1, budget = self._candidate()
        # Rising at theta_1, then flat 1 J under the budget from theta_1 * e
        # on: the first bisection point (theta_1 * e^5) is a maximum.
        top, slope = theta_1 * math.e, 1.0 / theta_1

        def q(theta):
            if theta < top:
                return budget - 1.0 - slope * (top - theta), slope
            return budget - 1.0, 0.0

        verdict, probed = self._search(users, cfg, q, theta_1 * math.exp(10.0))
        assert verdict is False
        assert len(probed) == 2
        assert probed[1] == pytest.approx(theta_1 * math.exp(5.0), rel=1e-12)

    def test_rising_theta_1_above_theta_max_probes_once(self):
        users, cfg, theta_1, budget = self._candidate()
        # Rising at theta_1 > theta_max: every theta the search may probe
        # lies left of it, where a concave q is lower still.
        q = lambda theta: (budget - 1.0 + (theta - theta_1) / theta_1, 1.0 / theta_1)
        verdict, probed = self._search(users, cfg, q, theta_1 * math.exp(-1.0))
        assert verdict is False
        assert probed == [pytest.approx(theta_1, rel=1e-12)]
