"""End-to-end acceptance gate.

Each test is one externally checkable claim about the finished tool,
pinned to explicit tolerances and runtime ceilings.  The terminal
summary prints one PASS/FAIL line per criterion (wiring in conftest).

Later criteria deliberately feed earlier ones: every feasible
allocation produced while checking criteria 3, 5, and 6 lands in a
shared pool that criterion 7 re-audits against the raw budgets.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pairband import __version__, solver
from pairband.bandwidth import b_min_user, check_feasibility
from pairband.channel import f_limit, f_prime, f_value
from pairband.cli import main
from pairband.latency_energy import e_const, group_time
from pairband.pairing import (
    Matching,
    PairCostMatrix,
    build_cost_matrix,
    k_best_matchings,
    mwpm,
)
from pairband.scenario import ScenarioTemplate, generate_scenario, scenario_to_json
from pairband.solver import STRATEGIES, solve, solve_proposed, sweep_bandwidth
from support import (
    all_matchings,
    assert_kkt_certificates,
    brute_force_mwpm,
    consecutive_matching,
    exhaustive_first_feasible,
    group_airtime,
    make_cfg,
    make_link,
    make_user,
    paired_users,
    random_cost_matrix,
    scenario_from_pair_costs,
)

# Every feasible allocation produced below: (users, matching, cfg, report).
# Criterion 7 replays the raw budget arithmetic over this pool.
_FEASIBLE_POOL = []


def _pool(users, matching, cfg, report):
    if report is not None and report.feasible:
        _FEASIBLE_POOL.append((list(users), matching, cfg, report))


# ---------------------------------------------------------------------------
# 1. Rate-law properties


@pytest.mark.acceptance(1, "rate law: monotone, concave, saturating, exact derivative")
def test_criterion_1_rate_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    grid = np.logspace(2.0, 12.0, 21)  # ten decades of bandwidth

    for _ in range(1000):
        x = make_link(
            power=float(rng.uniform(0.25, 4.0)),
            gain=float(10.0 ** rng.uniform(-13.0, -9.0)),
        )
        vals = [f_value(float(b), x) for b in grid]

        # Strictly increasing across the whole grid.
        assert all(lo < hi for lo, hi in zip(vals, vals[1:]))

        # Midpoint concavity on every adjacent grid interval.
        for lo, hi, flo, fhi in zip(grid[:-1], grid[1:], vals, vals[1:]):
            mid = 0.5 * (lo + hi)
            assert f_value(float(mid), x) >= 0.5 * (flo + fhi) * (1.0 - 1e-12)

        # Saturation: far in the wideband regime the rate sits just
        # below its finite ceiling.
        cap = f_limit(x)
        far = 1e8 * x
        assert f_value(far, x) < cap
        assert f_value(far, x) == pytest.approx(cap, rel=1e-4)

        # Closed-form derivative against central differences.
        for b in grid:
            b = float(b)
            h = 1e-4 * b
            fd = (f_value(b + h, x) - f_value(b - h, x)) / (2.0 * h)
            assert f_prime(b, x) == pytest.approx(fd, rel=1e-5)

    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 2. Minimum-bandwidth roots


@pytest.mark.acceptance(2, "minimum bandwidth: exact root, feasible iff below saturation")
def test_criterion_2_minimum_bandwidth_roots():
    start = time.perf_counter()
    rng = np.random.default_rng(202)

    # One call roots every draw: the roots are elementwise.
    x = np.array([
        make_link(
            power=float(rng.uniform(0.25, 4.0)),
            gain=float(10.0 ** rng.uniform(-13.0, -9.0)),
        )
        for _ in range(1000)
    ])
    q = 10.0 ** rng.uniform(5.0, 7.0, size=1000)
    # Demand a rate strictly below saturation: a root must exist.
    delta = q / (rng.uniform(0.01, 0.999, size=1000) * f_limit(x))
    roots = b_min_user(delta, x, q)
    for b, xk, qk, dk in zip(roots.tolist(), x.tolist(), q.tolist(), delta.tolist()):
        assert math.isfinite(b)
        assert f_value(b, xk) == pytest.approx(qk / dk, rel=1e-9)

    x = np.array([
        make_link(
            power=float(rng.uniform(0.25, 4.0)),
            gain=float(10.0 ** rng.uniform(-13.0, -9.0)),
        )
        for _ in range(200)
    ])
    q = 10.0 ** rng.uniform(5.0, 7.0, size=200)
    # At or above saturation no bandwidth suffices.
    delta = q / (rng.uniform(1.0, 3.0, size=200) * f_limit(x))
    assert np.all(b_min_user(delta, x, q) == math.inf)

    assert b_min_user(0.0, make_link(), 1.3e6) == math.inf
    assert b_min_user(-2.0, make_link(), 1.3e6) == math.inf
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 3. Allocator vs dense grid oracle


def _random_allocation_instance(rng, k):
    n = 2 * k
    users = [
        make_user(
            i,
            gain=float(10.0 ** rng.uniform(-12.5, -10.5)),
            dec=float(rng.uniform(0.6, 1.4)),
            cpu_hz=float(rng.uniform(5.0e8, 1.6e9)),
        )
        for i in range(n)
    ]
    power = float(rng.uniform(0.5, 2.0))
    cfg = make_cfg(
        n, b_max=float(n * rng.uniform(0.75e6, 2.0e6)), t_max=2.0, power=power
    )
    return users, cfg, consecutive_matching(n)


def _xi_on_grid(pair, power, cfg, grid):
    """Group energy p*max(Q/F_i, Q/F_j) at every grid bandwidth."""
    out = np.empty(grid.size)
    out[0] = math.inf
    for idx in range(1, grid.size):
        out[idx] = power * group_airtime(pair, float(grid[idx]), power, cfg)
    return out


def _grid_oracle_best(users, cfg, matching, lower_bounds, steps=2000):
    """Cheapest point of the simplex grid {b : sum b = B, b >= L}."""
    grid = np.linspace(0.0, cfg.b_max, steps + 1)
    pairs = paired_users(users, matching)
    xis = [
        _xi_on_grid(pair, power, cfg, grid)
        for pair, power in zip(pairs, cfg.group_powers)
    ]
    above = [grid >= lb for lb in lower_bounds]
    if len(pairs) == 2:
        vals = xis[0] + xis[1][::-1]
        mask = above[0] & above[1][::-1]
    else:
        idx = np.arange(steps + 1)
        total = idx[:, None] + idx[None, :]
        third = (steps - total).clip(0)
        vals = xis[0][:, None] + xis[1][None, :] + xis[2][third]
        mask = (total <= steps) & above[0][:, None] & above[1][None, :] & above[2][third]
    return float(vals[mask].min())


@pytest.mark.acceptance(3, "allocator: beats dense grid search, KKT residuals within 1e-6")
def test_criterion_3_allocator_vs_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    steps = 2000
    done = {2: 0, 3: 0}
    while done[2] < 100 or done[3] < 100:
        k = 2 if done[2] < 100 else 3
        users, cfg, matching = _random_allocation_instance(rng, k)
        report = check_feasibility(users, matching, cfg)
        if not report.feasible:
            continue
        if math.fsum(report.lower_bounds) > 0.6 * cfg.b_max:
            continue  # keep the simplex grid well populated

        assert_kkt_certificates(users, matching, cfg, report)
        best = _grid_oracle_best(users, cfg, matching, report.lower_bounds, steps)
        resolution = k * report.theta_star * (cfg.b_max / steps)
        assert report.objective <= best + resolution
        assert report.objective <= best * (1.0 + 1e-6)
        _pool(users, matching, cfg, report)
        done[k] += 1

    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 4. Matching exactness


@pytest.mark.acceptance(4, "matching: exact optimum at N<=10, ranked list equals enumeration")
def test_criterion_4_matching_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(404)

    for n in (4, 6, 8, 10):
        for _ in range(100):
            costs = PairCostMatrix(random_cost_matrix(rng, n))
            fast = mwpm(costs)
            exact = brute_force_mwpm(costs)
            assert fast.total_cost == exact.total_cost

    for n in (6, 8):
        for _ in range(50):
            costs = PairCostMatrix(random_cost_matrix(rng, n))
            ranked = k_best_matchings(costs, 5)
            oracle = sorted(
                (math.fsum(costs.costs[i, j] for i, j in pairs), pairs)
                for pairs in all_matchings(n)
            )[:5]
            assert [m.pairs for m in ranked] == [pairs for _, pairs in oracle]
            totals = [m.total_cost for m in ranked]
            assert totals == sorted(totals)

    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 5. Ranked-candidate solver end to end


@pytest.mark.acceptance(5, "solver: optimal under slack, first feasible candidate under tight budgets")
def test_criterion_5_solver_end_to_end(monkeypatch):
    start = time.perf_counter()

    # (a) Generous budgets: the solver returns the unconstrained
    # matching optimum on the first candidate.
    template = ScenarioTemplate(
        n_users=8, b_max=40.0e6, t_max=10.0, e_max=1.0e4, d_max=1.0
    )
    for seed in range(8):
        scn = generate_scenario(template, seed)
        res = solve_proposed(scn)
        costs = build_cost_matrix(scn.distortions, scn.cfg.d_max)
        ref = brute_force_mwpm(costs)
        assert res.feasible
        assert res.candidates_tried == 1
        assert res.matching.pairs == ref.pairs
        assert res.total_distortion == ref.total_cost
        _pool(scn.users, res.matching, scn.cfg, res.allocation)

    # (b) A budget wedged between the best and second-best matchings'
    # energy needs: the solver must walk past the distortion optimum and
    # stop at exactly the first feasible candidate.
    cfg = make_cfg(4, b_max=10.0e6, t_max=5.0)
    gains = [1e-12, 1e-12, 1e-10, 1e-10]
    pair_costs = [
        [0.0, 1.2, 0.8, 1.6],
        [1.2, 0.0, 1.6, 0.8],
        [0.8, 1.6, 0.0, 1.2],
        [1.6, 0.8, 1.2, 0.0],
    ]
    scn = scenario_from_pair_costs(pair_costs, gains, cfg)
    mixed = Matching(pairs=((0, 2), (1, 3)), total_cost=1.6)
    same = Matching(pairs=((0, 1), (2, 3)), total_cost=2.4)
    obj_mixed = check_feasibility(list(scn.users), mixed, cfg).objective
    obj_same = check_feasibility(list(scn.users), same, cfg).objective
    assert obj_same < obj_mixed
    budget = e_const(list(scn.users), cfg) + 0.5 * (obj_same + obj_mixed)
    tight = replace(scn, cfg=replace(cfg, e_max=budget))

    oracle = exhaustive_first_feasible(tight)
    assert oracle.pairs == ((0, 1), (2, 3))
    res = solve_proposed(tight)
    assert res.feasible
    assert res.candidates_tried == 2
    assert res.matching.pairs == oracle.pairs
    _pool(tight.users, res.matching, tight.cfg, res.allocation)

    # (c) An energy-starved instance ends in a proof: with E_max at half
    # the compute floor no matching fits and the b_min certificate cannot
    # tell, so candidate 1 fails on energy and the energy bound proves
    # that no other matching can fit.
    scn = generate_scenario(template, 0)
    starved = replace(scn, cfg=replace(scn.cfg, e_max=0.5 * e_const(list(scn.users), scn.cfg)))
    assert exhaustive_first_feasible(starved) is None
    res = solve_proposed(starved)
    assert res.matching is None
    assert not res.feasible
    assert res.candidates_tried == 1

    # (d) The doubling path: with the energy bound silent, as on a
    # duality gap, the window grows 1 -> 2 -> ... -> 128 until all 105
    # matchings of 8 users have been tried.
    monkeypatch.setattr(
        solver, "energy_infeasible", lambda users, cfg, bounds, pairs, bandwidths: False
    )
    res = solve_proposed(starved)
    assert res.matching is None
    assert not res.feasible
    assert res.candidates_tried == 105

    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 6. Bandwidth sweep against the baselines


@pytest.mark.acceptance(6, "sweep: proposed dominates all baselines; optimized bandwidth never hurts")
def test_criterion_6_bandwidth_sweep(acceptance_notes):
    start = time.perf_counter()
    template = ScenarioTemplate()
    b_values = [float(b) * 1.0e6 for b in range(5, 45, 5)]
    seeds = list(range(50))
    baselines = [s for s in STRATEGIES if s != "proposed"]

    rows = sweep_bandwidth(template, b_values, list(STRATEGIES), seeds=seeds)
    cells = {(row["b_max_hz"], row["strategy"]): row for row in rows}

    # (a) Mean distortion dominance at every operating point.
    reductions = {s: [] for s in baselines}
    for b in b_values:
        proposed = cells[(b, "proposed")]
        assert proposed["n_feasible"] == len(seeds)
        for s in baselines:
            other = cells[(b, s)]
            assert other["n_feasible"] > 0
            assert (
                proposed["mean_total_distortion"]
                <= other["mean_total_distortion"] * (1.0 + 1e-12)
            )
            reductions[s].append(
                1.0 - proposed["mean_total_distortion"] / other["mean_total_distortion"]
            )

    # (b) More bandwidth never increases the proposed mean distortion.
    means = [cells[(b, "proposed")]["mean_total_distortion"] for b in b_values]
    for lo, hi in zip(means, means[1:]):
        assert hi <= lo * (1.0 + 1e-12)

    # (c) With the pairing held fixed per seed, the optimized split is
    # never worse than the equal split and strictly widens feasibility.
    rescued = 0
    shared = 0
    energy_savings = []
    for b in b_values:
        cell_template = replace(template, b_max=b)
        for seed in seeds:
            scn = generate_scenario(cell_template, seed)
            equal = solve(scn, "random_equal")
            optimized = solve(scn, "random_kkt")
            assert equal.matching.pairs == optimized.matching.pairs
            if equal.feasible:
                shared += 1
                assert optimized.feasible
                assert optimized.total_distortion == equal.total_distortion
                assert (
                    optimized.allocation.objective
                    <= equal.allocation.objective * (1.0 + 1e-9)
                )
                energy_savings.append(
                    1.0 - optimized.allocation.objective / equal.allocation.objective
                )
            elif optimized.feasible:
                rescued += 1
            _pool(scn.users, equal.matching, scn.cfg, equal.allocation)
            _pool(scn.users, optimized.matching, scn.cfg, optimized.allocation)
    assert rescued > 0  # the optimizer recovers deadline-violating splits

    for s in baselines:
        lo, hi = 100.0 * min(reductions[s]), 100.0 * max(reductions[s])
        acceptance_notes.append(
            f"criterion 6 report: proposed mean distortion {lo:.1f}-{hi:.1f}% "
            f"below {s} across B_max 5-40 MHz (50 seeds)"
        )
    saving_pct = 100.0 * float(np.median(energy_savings))
    if abs(saving_pct) < 0.005:
        saving_pct = 0.0
    acceptance_notes.append(
        "criterion 6 report: optimized split rescued "
        f"{rescued} of {len(b_values) * len(seeds)} random pairings from "
        f"equal-split infeasibility ({shared} feasible either way; median "
        f"transmit-energy saving there {saving_pct:.2f}%)"
    )

    assert time.perf_counter() - start < 300.0


# ---------------------------------------------------------------------------
# 7. Budget compliance audit over everything produced above


@pytest.mark.acceptance(7, "compliance: every feasible allocation within 1e-9 of all budgets")
def test_criterion_7_constraint_compliance():
    assert len(_FEASIBLE_POOL) >= 500  # earlier criteria must have fed the pool

    for users, matching, cfg, report in _FEASIBLE_POOL:
        pairs = paired_users(users, matching)
        used = math.fsum(report.bandwidths)
        assert used <= cfg.b_max * (1.0 + 1e-9)

        energy = e_const(users, cfg)
        for pair, b, power in zip(pairs, report.bandwidths, cfg.group_powers):
            assert group_time(pair, b, power, cfg) <= cfg.t_max * (1.0 + 1e-9)
            energy += power * group_airtime(pair, b, power, cfg)
        assert energy <= cfg.e_max * (1.0 + 1e-9)
        # The report's own bookkeeping agrees with the recomputation.
        assert energy == pytest.approx(report.energy_total, rel=1e-9)


# ---------------------------------------------------------------------------
# 8. Determinism


@pytest.mark.acceptance(8, "determinism: byte-identical artifacts, parallel equals serial")
def test_criterion_8_determinism(tmp_path):
    # Library level: worker count does not change a single bit of the
    # aggregate rows, and scenario serialization is stable.
    template = ScenarioTemplate(n_users=8, t_max=5.0, e_max=500.0)
    serial = sweep_bandwidth(
        template, [6.0e6, 12.0e6], ["proposed", "random_kkt"], seeds=[0, 1, 2, 3],
        jobs=1,
    )
    parallel = sweep_bandwidth(
        template, [6.0e6, 12.0e6], ["proposed", "random_kkt"], seeds=[0, 1, 2, 3],
        jobs=3,
    )
    assert serial == parallel
    scn = generate_scenario(template, 5)
    assert scenario_to_json(scn, __version__) == scenario_to_json(
        generate_scenario(template, 5), __version__
    )

    # CLI level: every artifact byte-identical across repeated runs.
    scn_path = tmp_path / "scn.json"
    for path in (scn_path, tmp_path / "scn2.json"):
        assert main([
            "gen-scenario", "--n", "6", "--seed", "4", "--output", str(path),
            "--tmax", "4.0", "--emax", "1e4",
        ]) == 0
    assert scn_path.read_bytes() == (tmp_path / "scn2.json").read_bytes()

    solves = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["solve", str(scn_path), "--output", str(out)]) == 0
        solves.append(out.read_bytes())
    assert solves[0] == solves[1]
    assert json.loads(solves[0])["tool_version"] == __version__

    sweeps = []
    for name, jobs in (("serial.csv", "1"), ("parallel.csv", "2")):
        out = tmp_path / name
        assert main([
            "sweep", str(scn_path), "--bmax", "6e6,9e6",
            "--strategy", "proposed", "--strategy", "random_kkt",
            "--seeds", "3", "--jobs", jobs, "--output", str(out),
        ]) == 0
        sweeps.append(out.read_bytes())
    assert sweeps[0] == sweeps[1]
