"""Pairing: cost-matrix construction, minimum-weight perfect matching,
the exhaustive reference solver, and the ranked k-best enumeration.

The production matcher is cross-validated against the brute-force
enumeration on every size it can reach; k-best output is compared to a
full sorted enumeration.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from pairband.distortion import DistortionTable
from pairband.pairing import (
    INFEASIBLE,
    Matching,
    PairCostMatrix,
    build_cost_matrix,
    k_best_matchings,
    mwpm,
)
from pairband import pairing
from support import (
    all_matchings,
    brute_force_mwpm,
    matching_cost,
    numpy_assignment,
    numpy_cycle_matching,
    random_cost_matrix,
    unique_in_cell,
    unpruned_mwpm,
)


def matrix(costs) -> PairCostMatrix:
    c = np.asarray(costs, dtype=float)
    return PairCostMatrix(n=c.shape[0], costs=c)


def four_user_fixture() -> PairCostMatrix:
    """Two cheap disjoint edges (0,1) and (2,3); everything else dear."""
    c = np.full((4, 4), 10.0)
    c[0, 1] = c[1, 0] = 1.0
    c[2, 3] = c[3, 2] = 1.0
    np.fill_diagonal(c, INFEASIBLE)
    return matrix(c)


# ---------------------------------------------------------------------------
# Cost matrix construction


class TestBuildCostMatrix:
    def test_keeps_pair_sums_when_cap_is_loose(self):
        per_user = np.array(
            [
                [0.0, 0.2, 0.3, 0.4],
                [0.5, 0.0, 0.6, 0.2],
                [0.1, 0.3, 0.0, 0.5],
                [0.2, 0.4, 0.6, 0.0],
            ]
        )
        sums = per_user + per_user.T
        cm = build_cost_matrix(DistortionTable(per_user), d_max=10.0)
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(cm.costs[off], sums[off])

    def test_cap_below_everything_blocks_all_edges(self):
        per_user = np.full((4, 4), 0.5)
        np.fill_diagonal(per_user, 0.0)
        cm = build_cost_matrix(DistortionTable(per_user), d_max=0.4)
        assert not np.isfinite(cm.costs[~np.eye(4, dtype=bool)]).any()

    def test_one_sided_violation_blocks_the_edge(self):
        # User 1 suffers too much when paired with 3; both orientations
        # of that edge must go, everything else stays.
        per_user = np.full((4, 4), 0.2)
        np.fill_diagonal(per_user, 0.0)
        per_user[1, 3] = 0.9
        cm = build_cost_matrix(DistortionTable(per_user), d_max=0.5)
        assert cm.costs[1, 3] == INFEASIBLE
        assert cm.costs[3, 1] == INFEASIBLE
        assert math.isfinite(cm.costs[0, 1])
        assert math.isfinite(cm.costs[2, 3])

    def test_an_infinite_entry_is_capped_at_every_d_max(self):
        per_user = np.full((4, 4), 0.2)
        np.fill_diagonal(per_user, 0.0)
        per_user[0, 2] = math.inf
        for d_max in (1.0, math.inf):
            cm = build_cost_matrix(DistortionTable(per_user), d_max)
            assert cm.costs[0, 2] == cm.costs[2, 0] == INFEASIBLE
            assert cm.costs[0, 1] == 0.4

    def test_rejects_negative_distortion(self):
        # A negative entry never reaches the cap: the table that
        # build_cost_matrix takes refuses it and names the pair.
        per_user = np.full((4, 4), 0.2)
        np.fill_diagonal(per_user, 0.0)
        per_user[0, 1] = -0.1
        with pytest.raises(ValueError, match=r"negative distortion for pairs: \[\(0, 1\)\]$"):
            build_cost_matrix(DistortionTable(per_user), d_max=1.0)

    def test_matches_the_pairwise_loop(self):
        # Reference: the loop over i < j that the array form replaced.
        rng = np.random.default_rng(11)
        for n in (2, 6, 10):
            per_user = rng.uniform(0.0, 1.0, size=(n, n))
            np.fill_diagonal(per_user, 0.0)
            for d_max in (0.3, 0.7, 2.0):
                expect = np.full((n, n), INFEASIBLE)
                for i in range(n):
                    for j in range(i + 1, n):
                        if per_user[i, j] <= d_max and per_user[j, i] <= d_max:
                            expect[i, j] = expect[j, i] = per_user[i, j] + per_user[j, i]
                got = build_cost_matrix(DistortionTable(per_user), d_max).costs
                assert np.array_equal(got, expect)


class TestMatchingTypes:
    def test_matching_rejects_reused_index(self):
        with pytest.raises(ValueError):
            Matching(pairs=((0, 1), (1, 2)), total_cost=0.0)

    def test_cost_matrix_rejects_finite_diagonal(self):
        c = np.zeros((2, 2))
        with pytest.raises(ValueError):
            PairCostMatrix(n=2, costs=c)

    def test_cost_matrix_rejects_asymmetry(self):
        c = np.array([[INFEASIBLE, 1.0], [2.0, INFEASIBLE]])
        with pytest.raises(ValueError):
            PairCostMatrix(n=2, costs=c)


# ---------------------------------------------------------------------------
# Exhaustive enumeration


class TestAllMatchings:
    @pytest.mark.parametrize("n,count", [(2, 1), (4, 3), (6, 15), (8, 105)])
    def test_double_factorial_counts(self, n, count):
        ms = list(all_matchings(n))
        assert len(ms) == count
        assert len(set(ms)) == count

    def test_pairs_are_canonical_and_cover(self):
        for pairs in all_matchings(6):
            flat = [i for p in pairs for i in p]
            assert sorted(flat) == list(range(6))
            assert all(a < b for a, b in pairs)
            assert list(pairs) == sorted(pairs)


class TestBruteForce:
    def test_hand_fixture(self):
        best = brute_force_mwpm(four_user_fixture())
        assert best.pairs == ((0, 1), (2, 3))
        assert best.total_cost == pytest.approx(2.0)

    def test_equal_costs_pick_lexicographic_smallest(self):
        c = np.full((4, 4), 5.0)
        np.fill_diagonal(c, INFEASIBLE)
        best = brute_force_mwpm(matrix(c))
        assert best.pairs == ((0, 1), (2, 3))

    def test_planted_zero_cost_matching(self):
        rng = np.random.default_rng(8)
        c = random_cost_matrix(rng, 6)
        planted = ((0, 3), (1, 5), (2, 4))
        for i, j in planted:
            c[i, j] = c[j, i] = 0.0
        best = brute_force_mwpm(matrix(c))
        assert best.pairs == planted
        assert best.total_cost == 0.0

    def test_refuses_large_instances(self):
        c = random_cost_matrix(np.random.default_rng(0), 14)
        with pytest.raises(ValueError):
            brute_force_mwpm(matrix(c), max_n=12)

    def test_no_feasible_matching(self):
        c = np.full((4, 4), INFEASIBLE)
        assert brute_force_mwpm(matrix(c)) is None


# ---------------------------------------------------------------------------
# Production matcher


class TestMwpm:
    def test_hand_fixture(self):
        best = mwpm(four_user_fixture())
        assert best.pairs == ((0, 1), (2, 3))
        assert best.total_cost == pytest.approx(2.0)

    def test_two_users(self):
        c = np.array([[INFEASIBLE, 3.5], [3.5, INFEASIBLE]])
        best = mwpm(matrix(c))
        assert best.pairs == ((0, 1),)
        assert best.total_cost == pytest.approx(3.5)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(25):
            cm = matrix(random_cost_matrix(rng, n))
            fast = mwpm(cm)
            slow = brute_force_mwpm(cm)
            assert fast.total_cost == pytest.approx(slow.total_cost, rel=1e-9)

    def test_matches_brute_force_with_blocked_edges(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            c = random_cost_matrix(rng, 8)
            # Knock out a third of the edges.
            for i in range(8):
                for j in range(i + 1, 8):
                    if rng.random() < 0.33:
                        c[i, j] = c[j, i] = INFEASIBLE
            cm = matrix(c)
            fast = mwpm(cm)
            slow = brute_force_mwpm(cm)
            if slow is None:
                assert fast is None
            else:
                assert fast is not None
                assert fast.total_cost == pytest.approx(slow.total_cost, rel=1e-9)

    def test_detects_structurally_blocked_instance(self):
        # User 0 has no feasible partner at all.
        c = random_cost_matrix(np.random.default_rng(1), 4)
        c[0, :] = c[:, 0] = INFEASIBLE
        np.fill_diagonal(c, INFEASIBLE)
        assert mwpm(matrix(c)) is None

    def test_beats_random_matchings(self):
        rng = np.random.default_rng(60)
        cm = matrix(random_cost_matrix(rng, 10))
        best = mwpm(cm)
        for _ in range(1000):
            perm = rng.permutation(10)
            pairs = [
                (min(a, b), max(a, b)) for a, b in zip(perm[::2], perm[1::2])
            ]
            total = sum(cm.costs[i, j] for i, j in pairs)
            assert best.total_cost <= total + 1e-9


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 500))
def test_prop_optimal_matching_invariant_under_scaling(scale, seed):
    c = random_cost_matrix(np.random.default_rng(seed), 6)
    base = mwpm(matrix(c))
    scaled = mwpm(matrix(c * scale))
    assert scaled.pairs == base.pairs
    assert scaled.total_cost == pytest.approx(base.total_cost * scale, rel=1e-9)


# ---------------------------------------------------------------------------
# Edge pricing: the assignment bound, the matching read off its cycles,
# and the reduced-cost test that decides which edges networkx sees.


def tenth_costs(rng, n: int, hole_rate: float) -> np.ndarray:
    """Integer-tenth costs, which tie often, with symmetric inf holes."""
    c = np.triu(rng.integers(1, 11, size=(n, n)) / 10.0, 1)
    holes = np.triu(rng.uniform(size=(n, n)) < hole_rate, 1)
    c[holes] = INFEASIBLE
    c = c + c.T
    np.fill_diagonal(c, INFEASIBLE)
    return c


_small = st.sampled_from([2, 4, 6, 8, 10])
_seeds = st.integers(0, 10_000)
_holes = st.sampled_from([0.0, 0.3, 0.6, 0.8])


@settings(max_examples=150, deadline=None)
@given(n=_small, seed=_seeds, hole_rate=_holes)
def test_prop_priced_mwpm_matches_brute_force(n, seed, hole_rate):
    cm = matrix(tenth_costs(np.random.default_rng(seed), n, hole_rate))
    fast, slow = mwpm(cm), brute_force_mwpm(cm)
    if slow is None:
        assert fast is None
    else:
        assert fast.total_cost == pytest.approx(slow.total_cost, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.sampled_from([16, 24, 32, 48, 64]),
    seed=st.integers(0, 10_000),
    scale=st.floats(min_value=1e-3, max_value=1e7),
    hole_rate=st.sampled_from([0.0, 0.5, 0.9]),
)
def test_prop_priced_mwpm_matches_unpruned_networkx(n, seed, scale, hole_rate):
    rng = np.random.default_rng(seed)
    c = random_cost_matrix(rng, n) * scale
    holes = np.triu(rng.uniform(size=(n, n)) < hole_rate, 1)
    c[holes | holes.T] = INFEASIBLE
    cm = matrix(c)
    fast, full = mwpm(cm), unpruned_mwpm(cm)
    if full is None:
        assert fast is None
    else:
        assert fast.total_cost == pytest.approx(full.total_cost, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(n=_small, seed=_seeds, hole_rate=_holes)
def test_prop_assignment_bound_and_cycle_matching_bracket_the_optimum(
    n, seed, hole_rate
):
    c = tenth_costs(np.random.default_rng(seed), n, hole_rate)
    best = brute_force_mwpm(matrix(c))
    solved = pairing._assignment(c)
    if solved is None:
        assert best is None
        return
    w, col_of = solved
    assert sorted(col_of.tolist()) == list(range(n))
    off = ~np.eye(n, dtype=bool)
    assert np.all((w[:, None] + w)[off] <= c[off] + 1e-12)
    pairs = pairing._cycle_matching(c, c - w[:, None] - w, col_of)
    assert sorted(k for p in pairs for k in p) == list(range(n))
    if best is not None:
        assert math.fsum(w) <= best.total_cost + 1e-12
        assert best.total_cost <= matching_cost(c, pairs)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8, 10]),
    seed=st.integers(0, 10_000),
    noise=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
)
def test_prop_pricing_keeps_every_optimal_edge_for_any_duals(n, seed, noise):
    # The reduced-cost test must not rest on dual feasibility: with the
    # assignment duals or any perturbation of them, and the tightest
    # allowed bound UB = OPT, every edge of an optimum survives.
    rng = np.random.default_rng(seed)
    c = tenth_costs(rng, n, 0.2)
    best = brute_force_mwpm(matrix(c))
    solved = pairing._assignment(c)
    assume(best is not None)
    w = solved[0] + rng.normal(0.0, noise, size=n)
    keep = pairing._priced_edges(*pairing._reduced(c, c - w[:, None] - w), w, best.total_cost)
    assert all(keep[i, j] for i, j in best.pairs)


def test_infinite_heuristic_bound_keeps_every_finite_edge():
    c = tenth_costs(np.random.default_rng(3), 8, 0.5)
    keep = pairing._priced_edges(*pairing._reduced(c, c), np.zeros(8), math.inf)
    assert np.array_equal(keep, np.triu(np.isfinite(c), 1))


def bound_like_costs(rng, n: int, spread: float, hole_rate: float) -> np.ndarray:
    """A nearly flat matrix shaped like the pair bounds: each pair costs
    its weaker user's value, so every row repeats exact ties."""
    user = 4.0e5 * (1.0 + spread * rng.uniform(size=n))
    c = np.maximum(user[:, None], user)
    holes = np.triu(rng.uniform(size=(n, n)) < hole_rate, 1)
    c[holes | holes.T] = INFEASIBLE
    np.fill_diagonal(c, INFEASIBLE)
    return c


@st.composite
def assignment_inputs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    if draw(st.booleans()):
        n = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
        return tenth_costs(rng, n, draw(_holes))
    n = draw(st.sampled_from([2, 8, 16, 32, 48, 64]))
    spread = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]))
    return bound_like_costs(rng, n, spread, draw(st.sampled_from([0.0, 0.3, 0.9])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=assignment_inputs())
def test_prop_list_assignment_is_bitwise_the_numpy_one(c):
    # The list kernel keeps the numpy kernel's steps and float order, so
    # the duals and the map, and with them the priced edges and networkx's
    # tie choices, do not move.
    fast, slow = pairing._assignment(c), numpy_assignment(c)
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert np.array_equal(fast[0], slow[0])
        assert np.array_equal(fast[1], slow[1])



def near_additive_costs(rng, n: int, eps: float) -> np.ndarray:
    """c_ij = a_i + a_j + eps * u_ij, symmetric, with u uniform in [0, 1):
    every perfect matching costs sum(a) up to eps, so the assignment is
    nearly degenerate."""
    user = 4.0e5 * (1.0 + rng.uniform(size=n))
    noise = np.triu(rng.uniform(size=(n, n)), 1)
    c = user[:, None] + user + eps * (noise + noise.T)
    np.fill_diagonal(c, INFEASIBLE)
    return c


@st.composite
def cycle_inputs(draw):
    if draw(st.booleans()):
        return draw(assignment_inputs())
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = draw(st.sampled_from([2, 4, 8, 16, 32]))
    return near_additive_costs(rng, n, draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(c=cycle_inputs())
def test_prop_list_cycle_matching_is_the_numpy_one(c):
    # The list join keeps the numpy join's arithmetic, tie order and
    # odd-cycle rule, and an involutive assignment is returned before
    # 2-opt, which never moved one: the same pairs in the same order.
    solved = pairing._assignment(c)
    assume(solved is not None)
    w, col_of = solved
    d = c - w[:, None] - w
    involution = np.array_equal(col_of[col_of], np.arange(c.shape[0]))
    event(f"involution: {involution}")
    assert pairing._cycle_matching(c, d, col_of) == numpy_cycle_matching(c, d, col_of)


def test_an_involutive_assignment_is_taken_without_join_or_two_opt(monkeypatch):
    # The fixture and certify-n32 pool seed 0's pair bounds both have an
    # assignment whose cycles are all 2-cycles: mwpm reads its pairs off
    # the assignment and never joins or polishes them.
    from pairband.scenario import ScenarioTemplate, generate_scenario
    from pairband.solver import _cost_matrix, _pair_bounds

    scn = generate_scenario(ScenarioTemplate(n_users=32, t_max=2.4), 0)
    bounds = _pair_bounds(scn, _cost_matrix(scn))
    col_of = pairing._assignment(bounds)[1]
    assert np.array_equal(col_of[col_of], np.arange(32))

    def boom(*args):
        raise AssertionError("an involutive assignment needs no join or 2-opt")

    monkeypatch.setattr(pairing, "_join_exposed", boom)
    monkeypatch.setattr(pairing, "_two_opt", boom)
    assert mwpm(four_user_fixture()).pairs == ((0, 1), (2, 3))
    best = mwpm(matrix(bounds))
    assert best.pairs == tuple((k, m) for k, m in enumerate(col_of.tolist()) if k < m)
    assert best.total_cost == pytest.approx(unpruned_mwpm(matrix(bounds)).total_cost, rel=1e-12)

def test_a_closed_gap_returns_the_cycle_matching_without_networkx(monkeypatch):
    # A planted cheap perfect matching: the cycle matching finds it, its
    # cost equals the assignment bound, and networkx is never called.
    rng = np.random.default_rng(7)
    c = random_cost_matrix(rng, 12)
    perm = rng.permutation(12)
    for i, j in zip(perm[::2], perm[1::2]):
        c[i, j] = c[j, i] = 0.05
    calls = []
    monkeypatch.setattr(pairing.nx, "max_weight_matching", lambda *a, **k: calls.append(1))
    for cm in (four_user_fixture(), matrix(c)):
        best = mwpm(cm)
        assert best.total_cost == brute_force_mwpm(cm).total_cost
    assert calls == []


def test_odd_cycles_are_joined_along_an_alternating_path():
    # Two triangles joined by one finite edge (2, 5): the assignment is
    # the two 3-cycles, each leaves out its first user, and the edge
    # (0, 3) between those two is infinite.  The path 0-1=2-5=4-3 pairs
    # them at the optimum.
    c = np.full((6, 6), INFEASIBLE)
    for i, j in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
        c[i, j] = c[j, i] = 1.0
    c[2, 5] = c[5, 2] = 7.0
    w, _ = pairing._assignment(c)
    pairs = pairing._cycle_matching(c, c - w[:, None] - w, np.array([1, 2, 0, 4, 5, 3]))
    assert sorted((min(p), max(p)) for p in pairs) == [(0, 1), (2, 5), (3, 4)]
    assert mwpm(matrix(c)).pairs == ((0, 1), (2, 5), (3, 4))


def test_a_path_that_meets_itself_is_paired_directly_and_repaired():
    # Here the cheapest alternating path between the two left-over users
    # runs round an odd cycle, so they are paired directly over an
    # infinite edge, and 2-opt swaps partners back to the optimum (1.9).
    c = tenth_costs(np.random.default_rng(11498), 8, 0.6)
    w, col_of = pairing._assignment(c)
    pairs = pairing._cycle_matching(c, c - w[:, None] - w, col_of)
    assert sorted(k for p in pairs for k in p) == list(range(8))
    assert matching_cost(c, pairs) == pytest.approx(1.9)
    assert brute_force_mwpm(matrix(c)).total_cost == pytest.approx(1.9)


def test_no_perfect_matching_behind_a_finite_assignment():
    # Two triangles and no edge between them: the assignment is finite
    # (two 3-cycles), the matching read off it is not, so networkx gets
    # every finite edge and finds no perfect matching.
    c = np.full((6, 6), INFEASIBLE)
    for i, j in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
        c[i, j] = c[j, i] = 1.0
    w, col_of = pairing._assignment(c)
    assert matching_cost(c, pairing._cycle_matching(c, c - w[:, None] - w, col_of)) == math.inf
    assert mwpm(matrix(c)) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=_small,
    seed=_seeds,
    hole_rate=_holes,
    tenths=st.booleans(),
    forced=st.sampled_from([0.0, 0.3, 0.6]),
)
def test_prop_a_proved_cell_minimum_is_untied(n, seed, hole_rate, tenths, forced):
    # Where a cell's own solve proves its matching unique, the raised
    # re-solve agrees, and every other matching of the cell is more than
    # 2 tau dearer.  Integer tenths tie often, so a proof that trusted a
    # closed gap alone would fail here.
    rng = np.random.default_rng(seed)
    if tenths:
        c = tenth_costs(rng, n, hole_rate)
    else:
        c = random_cost_matrix(rng, n)
        holes = np.triu(rng.uniform(size=(n, n)) < hole_rate, 1)
        c[holes | holes.T] = INFEASIBLE
    perm = rng.permutation(n).tolist()
    forced_in = frozenset(
        p
        for p in pairing._canonical(zip(perm[::2], perm[1::2]))
        if math.isfinite(c[p]) and rng.uniform() < forced
    )
    forced_out = frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in forced_in and rng.uniform() < forced
    )
    tau = 1e-9 * max(float(c[np.isfinite(c)].max(initial=0.0)), 1.0)
    blossom, calls = pairing._blossom, []

    def counted(*args):
        calls.append(1)
        return blossom(*args)

    pairing._blossom = counted
    try:
        solved = pairing._solve_cell(c, forced_in, forced_out, tau)
    finally:
        pairing._blossom = blossom
    if solved is None:
        return
    pairs, proved = solved
    # A proof comes from the closed gap's own duals (no blossom call),
    # the first guess (one call) or the second (two).
    event(["closed gap", "first guess", "second guess"][len(calls)] if proved else "unproved")
    if not proved:
        return
    assert unique_in_cell(c, pairs, forced_in, forced_out, tau)
    best = matching_cost(c, pairs)
    for other in all_matchings(n):
        if other != pairs and forced_in <= set(other) and not forced_out & set(other):
            assert not matching_cost(c, other) <= best + 2 * tau


# ---------------------------------------------------------------------------
# Ranked enumeration


def enumerate_sorted(cm: PairCostMatrix):
    out = []
    for pairs in all_matchings(cm.n):
        total = math.fsum(cm.costs[i, j] for i, j in pairs)
        if math.isfinite(total):
            out.append(Matching(pairs=pairs, total_cost=total))
    out.sort(key=lambda m: (m.total_cost, m.pairs))
    return out


def test_odd_user_count_is_rejected():
    odd = matrix(random_cost_matrix(np.random.default_rng(0), 5))
    with pytest.raises(ValueError, match="even number of users"):
        mwpm(odd)
    with pytest.raises(ValueError, match="even number of users"):
        k_best_matchings(odd, 1)


class TestKBest:
    def test_first_entry_is_the_optimum(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            cm = matrix(random_cost_matrix(rng, 8))
            top = k_best_matchings(cm, 1)
            assert len(top) == 1
            assert top[0].total_cost == pytest.approx(
                mwpm(cm).total_cost, rel=1e-9
            )

    @pytest.mark.parametrize("n", [4, 6])
    def test_matches_full_enumeration(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(15):
            cm = matrix(random_cost_matrix(rng, n))
            reference = enumerate_sorted(cm)
            for w in (1, 3, len(reference), len(reference) + 5):
                got = k_best_matchings(cm, w)
                want = reference[:w]
                assert [m.pairs for m in got] == [m.pairs for m in want]
                for g, ww in zip(got, want):
                    assert g.total_cost == pytest.approx(ww.total_cost, rel=1e-9)

    def test_costs_are_nondecreasing(self):
        cm = matrix(random_cost_matrix(np.random.default_rng(90), 8))
        ms = k_best_matchings(cm, 40)
        costs = [m.total_cost for m in ms]
        assert costs == sorted(costs)

    def test_no_duplicates(self):
        cm = matrix(random_cost_matrix(np.random.default_rng(91), 8))
        ms = k_best_matchings(cm, 60)
        assert len({m.pairs for m in ms}) == len(ms)

    def test_ties_resolved_lexicographically(self):
        # All edges equal: every matching ties, so the ranking must be
        # the lexicographic order on the pair tuples.
        c = np.full((4, 4), 5.0)
        np.fill_diagonal(c, INFEASIBLE)
        ms = k_best_matchings(matrix(c), 3)
        assert [m.pairs for m in ms] == [
            ((0, 1), (2, 3)),
            ((0, 2), (1, 3)),
            ((0, 3), (1, 2)),
        ]

    def test_float_ties_keep_brute_force_order(self):
        # Two matchings sum to exactly 0.6.  networkx solves the cell
        # without (0, 4) to ((0, 3), (1, 2), (4, 5)), which sums to
        # 0.6000000000000001, though ((0, 1), (2, 5), (3, 4)) in that
        # cell sums to 0.6: a key one ulp above the cell's minimum must
        # not let the other 0.6 matching be yielded first.
        c = np.array(
            [
                [INFEASIBLE, 0.2, 0.4, 0.4, 0.2, 0.4],
                [0.2, INFEASIBLE, 0.1, 0.2, 0.4, 0.5],
                [0.4, 0.1, INFEASIBLE, 0.5, 0.5, 0.1],
                [0.4, 0.2, 0.5, INFEASIBLE, 0.3, 0.3],
                [0.2, 0.4, 0.5, 0.3, INFEASIBLE, 0.1],
                [0.4, 0.5, 0.1, 0.3, 0.1, INFEASIBLE],
            ]
        )
        ms = k_best_matchings(matrix(c), 3)
        assert [m.pairs for m in ms] == [
            ((0, 4), (1, 3), (2, 5)),
            ((0, 1), (2, 5), (3, 4)),
            ((0, 4), (1, 2), (3, 5)),
        ]
        assert ms == enumerate_sorted(matrix(c))[:3]

    def test_window_larger_than_population(self):
        cm = four_user_fixture()
        ms = k_best_matchings(cm, 50)
        assert len(ms) == 3  # only 3 perfect matchings exist on 4 users

    def test_blocked_edges_shrink_the_population(self):
        c = np.full((4, 4), 2.0)
        np.fill_diagonal(c, INFEASIBLE)
        c[0, 1] = c[1, 0] = INFEASIBLE
        ms = k_best_matchings(matrix(c), 50)
        assert [m.pairs for m in ms] == [((0, 2), (1, 3)), ((0, 3), (1, 2))]

    def test_empty_when_no_perfect_matching(self):
        c = np.full((4, 4), INFEASIBLE)
        assert k_best_matchings(matrix(c), 5) == []

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            k_best_matchings(four_user_fixture(), 0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([2, 4, 6, 8, 10]),
    seed=st.integers(0, 10_000),
    hole_rate=st.sampled_from([0.0, 0.2, 0.4]),
    short=st.integers(1, 23),
    extra=st.integers(1, 24),
)
def test_prop_shorter_window_is_a_prefix_in_brute_force_order(
    n, seed, hole_rate, short, extra
):
    # One-decimal costs tie often; the solver checks only the new tail
    # of a doubled window, so every shorter list must be a prefix of
    # the longer one, ties included.
    rng = np.random.default_rng(seed)
    c = np.round(random_cost_matrix(rng, n), 1)
    holes = np.triu(rng.uniform(size=(n, n)) < hole_rate, 1)
    c[holes | holes.T] = INFEASIBLE
    cm = matrix(c)
    longer = k_best_matchings(cm, short + extra)
    assert k_best_matchings(cm, short) == longer[:short]
    assert longer == enumerate_sorted(cm)[: short + extra]


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from([2, 4, 6, 8, 10]),
    seed=st.integers(0, 10_000),
    top=st.sampled_from([3, 5, 10]),
)
def test_prop_integer_tenth_costs_rank_in_brute_force_order(n, seed, top):
    # Sums of tenths tie exactly or to within an ulp all the time, so
    # both the early yield of a unique matching and the settled yield
    # are checked against brute force's (cost, pairs) order.
    rng = np.random.default_rng(seed)
    c = np.triu(rng.integers(1, top + 1, size=(n, n)) / 10.0, 1)
    c = c + c.T
    np.fill_diagonal(c, INFEASIBLE)
    cm = matrix(c)
    assert k_best_matchings(cm, 60) == enumerate_sorted(cm)[:60]
