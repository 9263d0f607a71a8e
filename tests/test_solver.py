"""Strategies end to end: the ranked-candidate solver against an
exhaustive oracle, the four baselines against their definitions, and
the sweep driver's aggregation and parallel determinism."""

import importlib.util
import math
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pairband.bandwidth import check_feasibility
from pairband.distortion import DistortionTable
from pairband.latency_energy import e_const
from pairband import bandwidth, pairing, solver
from pairband.pairing import (
    INFEASIBLE,
    Matching,
    PairCostMatrix,
    k_best_matchings,
)
from pairband.scenario import ScenarioTemplate, generate_scenario
from pairband.solver import (
    STRATEGIES,
    greedy_matching,
    random_matching,
    solve,
    solve_proposed,
    sweep_bandwidth,
)
from support import (
    brute_force_mwpm,
    exhaustive_first_feasible,
    make_cfg,
    make_scenario,
    make_user,
    random_cost_matrix,
    scenario_from_pair_costs,
    unpruned_mwpm,
)


# ---------------------------------------------------------------------------
# Proposed strategy


class TestProposed:
    def test_generous_budgets_return_the_optimal_matching(self):
        for seed in range(6):
            template = ScenarioTemplate(
                n_users=8, b_max=40.0e6, t_max=10.0, e_max=1.0e4, d_max=1.0
            )
            scn = generate_scenario(template, seed)
            res = solve_proposed(scn)
            assert res.feasible
            assert res.candidates_tried == 1
            ref = brute_force_mwpm(
                _costs(scn)
            )
            assert res.matching.total_cost == pytest.approx(
                ref.total_cost, rel=1e-9
            )

    def test_energy_budget_forces_second_candidate(self):
        # Users 0,1 weak and 2,3 strong.  Distortion prefers the mixed
        # pairing, but mixed groups are both weak-bound and need more
        # transmit energy than weak-with-weak + strong-with-strong.
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
        res = solve_proposed(tight)
        assert res.feasible
        assert res.candidates_tried == 2
        assert res.matching.pairs == ((0, 1), (2, 3))
        assert res.allocation.infeasibility_reason is None

    def test_window_doubles_until_every_matching_is_tried(self, monkeypatch):
        # E_max at half the compute floor: none of the 105 matchings of
        # 8 users fits, and the b_min certificate cannot see energy.  With
        # the energy bound silent, as on a duality gap, the window must
        # grow by itself until the ranked list runs out.
        starved = _energy_starved_instance()
        windows = []

        def spy(costs, window):
            windows.append(window)
            return k_best_matchings(costs, window)

        bound_calls = _silence_energy_bound(monkeypatch)
        monkeypatch.setattr(solver, "k_best_matchings", spy)
        res = solve_proposed(starved)
        assert windows == [1, 2, 4, 8, 16, 32, 64, 128]
        assert res.matching is None
        assert not res.feasible
        assert res.candidates_tried == 105
        assert len(bound_calls) == 1

    def test_energy_bound_ends_the_walk_at_candidate_one(self, monkeypatch):
        # The same starved instance: candidate 1 fails on energy, and the
        # energy bound, run once, proves that no matching can fit.
        starved = _energy_starved_instance()
        windows = []

        def spy_rank(costs, window):
            windows.append(window)
            return k_best_matchings(costs, window)

        bound_calls = _spy_energy_bound(monkeypatch)
        bound_mwpms = _count_calls(monkeypatch, bandwidth, "mwpm")
        monkeypatch.setattr(solver, "k_best_matchings", spy_rank)
        res = solve_proposed(starved)
        assert res.matching is None
        assert not res.feasible
        assert res.candidates_tried == 1
        assert windows == [1]
        assert bound_calls == [True]
        # q at candidate 1's own multiplier already proves it, from the
        # half-edge bound alone: no MWPM.
        assert len(bound_mwpms) == 0

    def test_energy_rejection_runs_the_bound_once(self, monkeypatch):
        # Candidate 1 fails on energy and candidate 2 fits: the bound runs
        # once, stays silent, and the walk goes on.
        tight = _energy_wedged_fixture()
        bound_calls = _spy_energy_bound(monkeypatch)
        res = solve_proposed(tight)
        assert res.feasible
        assert res.candidates_tried == 2
        assert bound_calls == [False]

    def test_feasible_first_candidate_runs_no_energy_bound(self, monkeypatch):
        scn = generate_scenario(ScenarioTemplate(n_users=16, b_max=5.0e6), 0)
        bound_calls = _silence_energy_bound(monkeypatch)
        res = solve_proposed(scn)
        assert res.feasible
        assert res.candidates_tried == 1
        assert bound_calls == []

    def test_candidate_one_ranks_one_matching(self, monkeypatch):
        # Feasible at candidate 1: the solver asks for one matching, and
        # the kernel solves exactly two MWPMs: one for the certificate and
        # one for the best matching.  The certificate's gap closes, so it
        # calls no blossom.  Candidate 1's stays open, and its one blossom
        # call, with the matching read off the assignment's cycles raised
        # by the tie tolerance, returns that matching: it is the minimum,
        # and nothing ties it.
        scn = generate_scenario(ScenarioTemplate(n_users=16, b_max=5.0e6), 0)
        windows, blossoms_per_solve, blossom_calls = _spy_ranking(monkeypatch)
        res = solve_proposed(scn)
        assert res.feasible
        assert res.candidates_tried == 1
        assert windows == [1]
        assert len(blossoms_per_solve) == 2
        assert set(blossoms_per_solve) <= {0, 1}
        assert len(blossom_calls) == 1

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_closed_gap_proves_candidate_one_untied(self, monkeypatch, seed):
        # Here the certificate's and candidate 1's gaps close, and candidate
        # 1's MWPM is the assignment itself, whose own duals show that no
        # rival comes within the tie tolerance: no blossom runs at all.
        scn = generate_scenario(ScenarioTemplate(n_users=16, b_max=5.0e6), seed)
        windows, blossoms_per_solve, blossom_calls = _spy_ranking(monkeypatch)
        res = solve_proposed(scn)
        assert res.feasible
        assert res.candidates_tried == 1
        assert windows == [1]
        assert len(blossoms_per_solve) == 2
        assert len(blossom_calls) == 0

    def test_a_missed_first_guess_is_proved_by_the_second(self, monkeypatch):
        # energy-tight pool seed 57: candidate 1's gap stays open and the
        # matching read off the assignment's cycles is 2.07 % above the
        # minimum.  The raised blossom returns the minimum instead, and
        # raised in turn, the minimum comes back: proved in two calls.
        c = _costs(generate_scenario(ScenarioTemplate(b_max=5.0e6, e_max=110.0), 57)).costs
        w, col_of = pairing._assignment(c)
        cycle = pairing._cycle_matching(c, c - w[:, None] - w, col_of)
        best = unpruned_mwpm(PairCostMatrix(n=16, costs=c))
        assert pairing._total(c, cycle) / best.total_cost - 1 == pytest.approx(0.0207, abs=5e-5)
        blossom_calls = _count_calls(monkeypatch, pairing.nx, "max_weight_matching")
        tau = 1e-9 * max(float(c[np.isfinite(c)].max()), 1.0)
        assert pairing._solve_cell(c, frozenset(), frozenset(), tau) == (best.pairs, True)
        assert len(blossom_calls) == 2

    def test_each_pair_bound_is_computed_once(self, monkeypatch):
        # One bound matrix serves the certificate and every candidate: a
        # solve makes one b_min_pair call, over exactly the quality-feasible
        # pairs i < j, and the candidates get those values as plain floats.
        scn = generate_scenario(ScenarioTemplate(n_users=16, b_max=5.0e6), 0)
        costs = _costs(scn)
        original_bound, original_check = solver.b_min_pair, solver._check_with_bounds
        calls = []

        def spy_bound(users, i, j, cfg):
            bounds = original_bound(users, i, j, cfg)
            calls.append((list(zip(i.tolist(), j.tolist())), bounds.tolist()))
            return bounds

        checked = []

        def spy_check(scenario, matching, bounds):
            checked.append((matching, bounds))
            return original_check(scenario, matching, bounds)

        monkeypatch.setattr(solver, "b_min_pair", spy_bound)
        monkeypatch.setattr(solver, "_check_with_bounds", spy_check)
        res = solve_proposed(scn)
        finite = {
            (i, j)
            for i in range(16)
            for j in range(i + 1, 16)
            if math.isfinite(costs.costs[i, j])
        }
        assert res.feasible
        assert len(calls) == 1
        pairs, values = calls[0]
        assert len(pairs) == len(set(pairs)) and set(pairs) == finite
        computed = dict(zip(pairs, values))
        assert len(checked) == res.candidates_tried
        for matching, bounds in checked:
            assert all(type(b) is float for b in bounds)
            assert bounds == [computed[p] for p in matching.pairs]

    def test_exhausting_every_candidate_reports_infeasible(self, monkeypatch):
        cfg = make_cfg(4, b_max=10.0e6, t_max=5.0)
        gains = [1e-12, 1e-12, 1e-10, 1e-10]
        pair_costs = [[0.0 if i == j else 1.0 for j in range(4)] for i in range(4)]
        scn = scenario_from_pair_costs(pair_costs, gains, cfg)
        # Energy budget below compute energy: nothing can fit, and the
        # sum-based certificate cannot see it (it only covers spectrum
        # and latency).  The energy bound proves it at candidate 1; with
        # the bound silent all three matchings must be tried.
        tight = replace(
            scn, cfg=replace(cfg, e_max=0.5 * e_const(list(scn.users), cfg))
        )
        res = solve_proposed(tight)
        assert res.matching is None
        assert res.candidates_tried == 1
        _silence_energy_bound(monkeypatch)
        res = solve_proposed(tight)
        assert not res.feasible
        assert res.matching is None
        assert res.candidates_tried == 3

    def test_global_latency_infeasibility_short_circuits(self):
        template = ScenarioTemplate(n_users=16, t_max=0.05)
        scn = generate_scenario(template, 0)
        start = time.monotonic()
        res = solve_proposed(scn)
        elapsed = time.monotonic() - start
        assert res.matching is None
        assert res.candidates_tried == 0
        assert not res.feasible
        assert elapsed < 5.0

    def test_certificate_spares_partial_latency_damage(self):
        # One hopeless pair must not trigger the global short-circuit
        # when plenty of feasible matchings remain.
        cfg = make_cfg(4, b_max=10.0e6, t_max=1.0)
        users = [
            make_user(0, gain=1e-11),
            make_user(1, gain=1e-11),
            make_user(2, gain=1e-11),
            # Slow CPU: any pair containing user 3 blows the deadline.
            make_user(3, gain=1e-11, cpu_hz=1.5e8, dec=1.4),
        ]
        scn = make_scenario(users, cfg)
        res = solve_proposed(scn)
        assert not res.feasible
        assert res.matching is None

    def test_matches_exhaustive_oracle_under_tight_budgets(self):
        for seed in range(20):
            template = ScenarioTemplate(n_users=6, b_max=2.8e6)
            scn = generate_scenario(template, seed)
            res = solve_proposed(scn)
            ref = exhaustive_first_feasible(scn)
            if ref is None:
                assert res.matching is None
            else:
                assert res.feasible
                assert res.matching.pairs == ref.pairs

    def test_oracle_agrees_when_a_candidate_is_skipped(self):
        # The energy-tightened fixture from above: the oracle must land
        # on the same second-ranked matching the solver picks.
        tight = _energy_wedged_fixture()
        res = solve_proposed(tight)
        ref = exhaustive_first_feasible(tight)
        assert res.candidates_tried == 2
        assert res.matching.pairs == ref.pairs == ((0, 1), (2, 3))

    @pytest.mark.parametrize("n, seeds", [(6, 8), (8, 4)])
    def test_oracle_agrees_on_walks_past_an_energy_rejection(self, n, seeds):
        # E_max just under candidate 1's energy: candidate 1 fails on
        # energy, the bound runs and mostly stays silent, and the walk
        # goes on.  Wherever it stops, brute force must stop there too.
        template = ScenarioTemplate(n_users=n, b_max=40.0e6, t_max=10.0, d_max=1.0)
        walked = 0
        for seed in range(seeds):
            scn = generate_scenario(template, seed)
            first = k_best_matchings(_costs(scn), 1)[0]
            energy = check_feasibility(list(scn.users), first, scn.cfg).energy_total
            tight = replace(scn, cfg=replace(scn.cfg, e_max=(1.0 - 1e-7) * energy))
            res = solve_proposed(tight)
            ref = exhaustive_first_feasible(tight)
            walked += res.candidates_tried > 1
            if ref is None:
                assert res.matching is None
            else:
                assert res.feasible
                assert res.matching.pairs == ref.pairs
        assert walked >= 3


def _energy_wedged_fixture():
    """Four users, E_max wedged between the energy needs of the cheapest
    matching ((0,2),(1,3)) and the second ((0,1),(2,3))."""
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
    budget = e_const(list(scn.users), cfg) + 0.5 * (obj_same + obj_mixed)
    return replace(scn, cfg=replace(cfg, e_max=budget))


def _energy_starved_instance():
    """Eight generated users with E_max at half the compute floor: none
    of the 105 matchings fits."""
    template = ScenarioTemplate(n_users=8, b_max=40.0e6, t_max=10.0, d_max=1.0)
    scn = generate_scenario(template, 0)
    floor = e_const(list(scn.users), scn.cfg)
    return replace(scn, cfg=replace(scn.cfg, e_max=0.5 * floor))


def _spy_energy_bound(monkeypatch) -> list:
    """Record each verdict of the solver's energy bound in the returned
    list."""
    verdicts = []
    bound = solver.energy_infeasible

    def spy(*args):
        verdicts.append(bound(*args))
        return verdicts[-1]

    monkeypatch.setattr(solver, "energy_infeasible", spy)
    return verdicts


def _silence_energy_bound(monkeypatch) -> list:
    """Make the solver's energy bound prove nothing, as on a duality gap;
    returns the list its calls are recorded in."""
    calls = []

    def silent(users, cfg, bounds, pairs, bandwidths):
        calls.append(1)
        return False

    monkeypatch.setattr(solver, "energy_infeasible", silent)
    return calls


def _spy_ranking(monkeypatch) -> tuple[list, list, list]:
    """Record the solver's ranking windows, the networkx calls made by
    each MWPM kernel solve, and every networkx call."""
    windows = []

    def spy_rank(costs, window):
        windows.append(window)
        return k_best_matchings(costs, window)

    blossom_calls = _count_calls(monkeypatch, pairing.nx, "max_weight_matching")
    kernel_solve = pairing._solve_min_cost
    blossoms_per_solve = []

    def spy_solve(costs, *args):
        before = len(blossom_calls)
        solved = kernel_solve(costs, *args)
        blossoms_per_solve.append(len(blossom_calls) - before)
        return solved

    monkeypatch.setattr(solver, "k_best_matchings", spy_rank)
    monkeypatch.setattr(pairing, "_solve_min_cost", spy_solve)
    return windows, blossoms_per_solve, blossom_calls


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Record each call of ``owner.name`` in the returned list."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _walk_set_module():
    """``scripts/walk_set.py``, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "walk_set.py"
    spec = importlib.util.spec_from_file_location("walk_set", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_energy_bound_verdicts_and_probe_counts_are_pinned(monkeypatch):
    # Every energy bound the solver runs on the walk set and on the
    # energy-tight benchmark pool (N=16, 5 MHz, 110 J, seeds 0-119), with
    # its verdict and the number of q(v) it probed.  The bound starts at
    # the level of the rejected candidate's KKT multiplier, so an
    # allocator that moves in its last digits must move none of them.
    # Also pinned: the MWPMs the probes solve, which the half-edge bound
    # spares wherever it alone proves a probe over the budget.
    calls, probed, key, solved = [], [], [None], []
    bound, dual = solver.energy_infeasible, bandwidth.energy_dual
    bound_mwpms = _count_calls(monkeypatch, bandwidth, "mwpm")

    def counted_dual(*args):
        q, v_min = dual(*args)

        def counted(v):
            probed.append(v)
            return q(v)

        return counted, v_min

    def spy(*args):
        probed.clear()
        before = len(bound_mwpms)
        verdict = bound(*args)
        calls.append((key[0], verdict, len(probed)))
        solved.append((verdict, len(bound_mwpms) - before))
        return verdict

    monkeypatch.setattr(bandwidth, "energy_dual", counted_dual)
    monkeypatch.setattr(solver, "energy_infeasible", spy)
    template = ScenarioTemplate(b_max=5.0e6, e_max=110.0)
    for seed in range(120):
        key[0] = f"pool-s{seed}"
        solve_proposed(generate_scenario(template, seed))
    assert Counter((v, n) for _, v, n in calls) == {(True, 1): 41}
    assert Counter(solved) == {(True, 0): 41}
    calls.clear()
    solved.clear()
    walks = _walk_set_module()
    for key[0], _, scn in walks.walk_set():
        solve_proposed(scn)
    assert Counter((v, n) for _, v, n in calls) == {(True, 1): 103, (False, 2): 19}
    # A silent probe always solves its MWPM; the half-edge bound decides
    # 100 of the 103 proofs.
    assert Counter(solved) == {(True, 0): 100, (True, 1): 3, (False, 2): 19}
    silent = {k for k, v, _ in calls if not v}
    loud_under = {"n6-s4-under-c1", "n8-s0-under-c1", "n8-s8-under-c1"}
    assert silent == {f"n{n}-s{s}-under-c1" for n, s in walks.SCENARIOS} - loud_under


def test_candidate_one_split_takes_a_pinned_number_of_level_evaluations(monkeypatch):
    # Candidate 1's KKT split on three solve-n16 benchmark instances
    # (N=16, default template): the water-level bracket's two ends plus
    # one regula falsi step.
    respond, kkt = bandwidth._respond, solver.kkt_allocate
    counts = []

    def spy_kkt(*args):
        counts.append(0)
        return kkt(*args)

    def spy_respond(*args):
        counts[-1] += 1
        return respond(*args)

    monkeypatch.setattr(bandwidth, "_respond", spy_respond)
    monkeypatch.setattr(solver, "kkt_allocate", spy_kkt)
    for seed, b_max in ((0, 5.0e6), (2, 5.0e6), (5, 10.0e6)):
        counts.clear()
        res = solve_proposed(generate_scenario(ScenarioTemplate(b_max=b_max), seed))
        assert res.candidates_tried == 1
        assert counts == [3]


def _costs(scn):
    from pairband.solver import _cost_matrix

    return _cost_matrix(scn)


# ---------------------------------------------------------------------------
# Random pairing


class TestRandomMatching:
    def test_partition_is_valid(self):
        rng = np.random.default_rng(0)
        for n in (4, 8, 16):
            pairs = random_matching(n, rng)
            flat = sorted(i for p in pairs for i in p)
            assert flat == list(range(n))
            assert all(a < b for a, b in pairs)

    def test_seeded_reproducibility(self):
        a = random_matching(10, np.random.default_rng(33))
        b = random_matching(10, np.random.default_rng(33))
        assert a == b

    def test_covers_the_matching_space(self):
        rng = np.random.default_rng(1)
        seen = {random_matching(4, rng) for _ in range(200)}
        assert len(seen) == 3  # all perfect matchings on 4 users


class TestRandomStrategies:
    def test_equal_and_kkt_share_the_pairing(self):
        scn = generate_scenario(ScenarioTemplate(n_users=8), seed=4)
        eq = solve(scn, "random_equal")
        kk = solve(scn, "random_kkt")
        assert eq.matching.pairs == kk.matching.pairs

    def test_matching_seed_overrides_scenario_seed(self):
        scn = generate_scenario(ScenarioTemplate(n_users=8), seed=4)
        a = solve(scn, "random_equal", matching_seed=11)
        b = solve(scn, "random_equal", matching_seed=12)
        c = solve(scn, "random_equal", matching_seed=11)
        assert a.matching.pairs == c.matching.pairs
        assert a.matching.pairs != b.matching.pairs or a is not b

    def test_optimized_bandwidth_never_hurts(self):
        # Same pairing, optimized vs equal split: the optimized transmit
        # energy can only be lower, and feasibility can only improve.
        for seed in range(12):
            scn = generate_scenario(ScenarioTemplate(n_users=8, b_max=8.0e6), seed)
            eq = solve(scn, "random_equal")
            kk = solve(scn, "random_kkt")
            if eq.feasible:
                assert kk.feasible
                assert kk.allocation.objective <= eq.allocation.objective * (
                    1.0 + 1e-9
                )

    def test_optimizer_rescues_equal_split_latency_violations(self):
        # At the default budgets some random pairings cannot meet the
        # deadline on an equal split but can under optimized bandwidth;
        # seed 0 is such a draw (same pairing for both strategies).
        scn = generate_scenario(ScenarioTemplate(), 0)
        eq = solve(scn, "random_equal")
        kk = solve(scn, "random_kkt")
        assert eq.matching.pairs == kk.matching.pairs
        assert not eq.feasible
        assert eq.allocation.infeasibility_reason == "latency"
        assert kk.feasible


# ---------------------------------------------------------------------------
# Greedy and channel-balanced baselines


class TestGreedy:
    def test_takes_cheapest_edge_first_and_pays_for_it(self):
        # Classic greedy trap: edge (0,1) is cheapest, but taking it
        # forces the terrible (2,3) edge.
        cfg = make_cfg(4)
        pair_costs = [
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 0.0, 3.0, 2.0],
            [2.0, 3.0, 0.0, 100.0],
            [3.0, 2.0, 100.0, 0.0],
        ]
        scn = scenario_from_pair_costs(pair_costs, [1e-11] * 4, cfg)
        greedy = solve(scn, "greedy_equal")
        best = solve(scn, "proposed")
        assert greedy.matching.pairs == ((0, 1), (2, 3))
        assert greedy.total_distortion == pytest.approx(101.0)
        assert best.matching.pairs == ((0, 2), (1, 3))
        assert best.total_distortion == pytest.approx(4.0)

    def test_tie_break_is_lexicographic(self):
        cfg = make_cfg(4)
        pair_costs = [[0.0 if i == j else 5.0 for j in range(4)] for i in range(4)]
        scn = scenario_from_pair_costs(pair_costs, [1e-11] * 4, cfg)
        res = solve(scn, "greedy_equal")
        assert res.matching.pairs == ((0, 1), (2, 3))

    def test_dead_end_reports_infeasible(self):
        # Quality cap removes the (2,3) edge; greedy pairs (0,1) first
        # and strands users 2 and 3 even though a full matching exists.
        cfg = make_cfg(4, d_max=5.0)
        per_user = np.full((4, 4), 1.0)
        np.fill_diagonal(per_user, 0.0)
        per_user[0, 1] = per_user[1, 0] = 0.1
        per_user[2, 3] = per_user[3, 2] = 10.0
        users = [make_user(i) for i in range(4)]
        scn = make_scenario(users, cfg, DistortionTable(per_user))
        res = solve(scn, "greedy_equal")
        assert res.matching is None
        assert not res.feasible
        assert res.strategy == "greedy_equal"
        # The ranked solver still finds the valid pairing.
        assert solve(scn, "proposed").feasible

    def test_matches_the_repeated_cheapest_edge_loop(self):
        # Reference: re-scan the remaining users for the cheapest finite
        # edge, (cost, i, j) order, until all are paired or none is left.
        def reference(c):
            unmatched, pairs = set(range(len(c))), []
            while unmatched:
                edges = [
                    (c[i, j], i, j)
                    for i in unmatched
                    for j in unmatched
                    if i < j and math.isfinite(c[i, j])
                ]
                if not edges:
                    return None
                _, i, j = min(edges)
                pairs.append((i, j))
                unmatched -= {i, j}
            return tuple(sorted(pairs))

        rng = np.random.default_rng(17)
        outcomes = set()
        for _ in range(200):
            n = 2 * int(rng.integers(1, 6))
            c = np.round(random_cost_matrix(rng, n), 1)  # rounding makes ties
            blocked = np.triu(rng.uniform(size=(n, n)) < 0.3, 1)
            c[blocked | blocked.T] = INFEASIBLE
            expect = reference(c)
            outcomes.add(expect is None)
            assert greedy_matching(PairCostMatrix(n=n, costs=c)) == expect
        assert outcomes == {True, False}

    def test_equal_split_allocation(self):
        scn = generate_scenario(
            ScenarioTemplate(n_users=6, b_max=9.0e6, t_max=5.0, e_max=1e4), 1
        )
        res = solve(scn, "greedy_equal")
        assert res.feasible
        for b in res.allocation.bandwidths:
            assert b == pytest.approx(3.0e6, rel=1e-12)


class TestChannelBalanced:
    def test_pairs_extreme_ranks(self):
        gains = [1e-13, 5e-11, 2e-12, 9e-11, 3e-13, 1e-11]
        cfg = make_cfg(6)
        users = [make_user(i, gain=g) for i, g in enumerate(gains)]
        scn = make_scenario(users, cfg)
        res = solve(scn, "channel_balanced_equal")
        # Ranks by gain: 3 > 1 > 5 > 2 > 4 > 0; strongest pairs weakest.
        assert res.matching.pairs == ((0, 3), (1, 4), (2, 5))

    def test_invariant_under_user_relabeling(self):
        gains = [1e-13, 5e-11, 2e-12, 9e-11]
        cfg = make_cfg(4)
        users = [make_user(i, gain=g) for i, g in enumerate(gains)]
        scn = make_scenario(users, cfg)
        res = solve(scn, "channel_balanced_equal")
        # Relabel users by reversing ids; the same physical pairing must
        # come back (expressed through the new labels).
        relabeled = [make_user(3 - i, gain=g) for i, g in enumerate(gains)]
        relabeled = sorted(relabeled, key=lambda u: u.id)
        scn2 = make_scenario(relabeled, cfg)
        res2 = solve(scn2, "channel_balanced_equal")
        to_new = {0: 3, 1: 2, 2: 1, 3: 0}
        expected = tuple(
            sorted(
                tuple(sorted((to_new[a], to_new[b]))) for a, b in res.matching.pairs
            )
        )
        assert res2.matching.pairs == expected

    def test_equal_gains_fall_back_to_index_order(self):
        cfg = make_cfg(4)
        users = [make_user(i, gain=1e-11) for i in range(4)]
        scn = make_scenario(users, cfg)
        res = solve(scn, "channel_balanced_equal")
        assert res.matching.pairs == ((0, 3), (1, 2))


# ---------------------------------------------------------------------------
# Dispatch


class TestDispatch:
    def test_strategy_names_are_exposed(self):
        assert STRATEGIES == (
            "proposed",
            "random_equal",
            "greedy_equal",
            "channel_balanced_equal",
            "random_kkt",
        )

    def test_unknown_strategy_rejected(self):
        scn = generate_scenario(ScenarioTemplate(n_users=4), 0)
        with pytest.raises(ValueError, match="unknown strategy"):
            solve(scn, "simulated_annealing")

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_results_are_tagged(self, strategy):
        scn = generate_scenario(
            ScenarioTemplate(n_users=6, b_max=20.0e6, t_max=5.0, e_max=1e4), 2
        )
        res = solve(scn, strategy)
        assert res.strategy == strategy
        assert res.matching is not None

    @pytest.mark.parametrize("strategy", STRATEGIES[1:])
    def test_a_baseline_computes_its_bounds_in_one_call(self, strategy, monkeypatch):
        scn = generate_scenario(ScenarioTemplate(n_users=8, b_max=5.0e6), 3)
        original = solver.b_min_pair
        calls = []

        def spy(users, i, j, cfg):
            calls.append(list(zip(i.tolist(), j.tolist())))
            return original(users, i, j, cfg)

        monkeypatch.setattr(solver, "b_min_pair", spy)
        res = solve(scn, strategy)
        assert calls == [list(res.matching.pairs)]
        assert all(type(b) is float for b in res.allocation.lower_bounds)


# ---------------------------------------------------------------------------
# Sweeps


SWEEP_TEMPLATE = ScenarioTemplate(n_users=6, t_max=3.0, e_max=500.0, d_max=0.95)


class TestSweep:
    def test_single_cell_matches_direct_solve(self):
        rows = sweep_bandwidth(
            SWEEP_TEMPLATE, [6.0e6], strategies=["proposed"], seeds=[3]
        )
        assert len(rows) == 1
        row = rows[0]
        scn = generate_scenario(replace(SWEEP_TEMPLATE, b_max=6.0e6), 3)
        res = solve(scn, "proposed")
        assert row["n_seeds"] == 1
        assert row["n_feasible"] == 1
        assert row["mean_total_distortion"] == pytest.approx(
            res.total_distortion, rel=1e-12
        )
        assert row["mean_bandwidth_used"] == pytest.approx(
            res.allocation.bandwidth_used, rel=1e-12
        )
        assert row["mean_candidates_tried"] == res.candidates_tried

    def test_aggregates_mean_over_seeds(self):
        seeds = [0, 1, 2]
        rows = sweep_bandwidth(
            SWEEP_TEMPLATE, [8.0e6], strategies=["greedy_equal"], seeds=seeds
        )
        singles = []
        for s in seeds:
            scn = generate_scenario(replace(SWEEP_TEMPLATE, b_max=8.0e6), s)
            singles.append(solve(scn, "greedy_equal"))
        feasible = [r for r in singles if r.feasible]
        row = rows[0]
        assert row["n_seeds"] == 3
        assert row["n_feasible"] == len(feasible)
        if feasible:
            assert row["mean_total_distortion"] == pytest.approx(
                math.fsum(r.total_distortion for r in feasible) / len(feasible),
                rel=1e-12,
            )

    def test_means_skip_draws_without_an_allocation(self):
        # At 1.65 MHz no seed has a matching that fits; at 1.7 MHz seeds 5
        # and 6 still have none, and seeds 7-9 are feasible.
        template, seeds = ScenarioTemplate(n_users=6), [5, 6, 7, 8, 9]
        none, mixed = sweep_bandwidth(template, [1.65e6, 1.7e6], ["proposed"], seeds)
        assert none["n_feasible"] == 0
        assert math.isnan(none["mean_bandwidth_used"])
        results = [
            solve(generate_scenario(replace(template, b_max=1.7e6), s), "proposed") for s in seeds
        ]
        assert [r.allocation is None for r in results] == [True, True, False, False, False]
        used = [r.allocation.bandwidth_used for r in results if r.feasible]
        assert mixed["n_feasible"] == len(used) == 3
        assert mixed["mean_bandwidth_used"] == math.fsum(used) / 3

    def test_row_grid_is_complete_and_ordered(self):
        rows = sweep_bandwidth(
            SWEEP_TEMPLATE,
            [5.0e6, 8.0e6],
            strategies=["proposed", "random_equal"],
            seeds=[0, 1],
        )
        assert [(r["b_max_hz"], r["strategy"]) for r in rows] == [
            (5.0e6, "proposed"),
            (5.0e6, "random_equal"),
            (8.0e6, "proposed"),
            (8.0e6, "random_equal"),
        ]

    def test_parallel_equals_serial(self):
        kwargs = dict(
            b_max_values=[5.0e6, 8.0e6],
            strategies=["proposed", "random_kkt"],
            seeds=[0, 1, 2, 3],
        )
        serial = sweep_bandwidth(SWEEP_TEMPLATE, jobs=1, **kwargs)
        parallel = sweep_bandwidth(SWEEP_TEMPLATE, jobs=2, **kwargs)
        assert serial == parallel

    def test_rejects_unsorted_bandwidths(self):
        with pytest.raises(ValueError, match="ascending"):
            sweep_bandwidth(SWEEP_TEMPLATE, [8.0e6, 5.0e6], seeds=[0])

    def test_rejects_duplicate_bandwidths(self):
        with pytest.raises(ValueError, match="strictly ascending"):
            sweep_bandwidth(SWEEP_TEMPLATE, [6.0e6, 6.0e6], seeds=[0, 1])

    def test_rejects_duplicate_strategies(self):
        with pytest.raises(ValueError, match="strategies must be distinct"):
            sweep_bandwidth(
                SWEEP_TEMPLATE, [6.0e6], strategies=["proposed", "proposed"], seeds=[0]
            )

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ValueError, match="seeds must be distinct"):
            sweep_bandwidth(
                SWEEP_TEMPLATE, [6.0e6], strategies=["greedy_equal"], seeds=[0, 1, 0]
            )

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            sweep_bandwidth(SWEEP_TEMPLATE, [], seeds=[0])

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            sweep_bandwidth(SWEEP_TEMPLATE, [5.0e6], strategies=["magic"], seeds=[0])

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            sweep_bandwidth(SWEEP_TEMPLATE, [5.0e6], seeds=[0], jobs=jobs)
