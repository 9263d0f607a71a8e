"""Pairing: cost matrix, minimum-weight perfect matching, k-best lists.

Pairing all N users into N/2 disjoint pairs at minimum total distortion
is a minimum-weight perfect matching problem on the complete graph with
edge weights C_ij: a validated distortion table's pair sums, infinite
where either user would exceed the distortion cap.  The cost matrix
only applies that cap.  The kernel is an Edmonds blossom solver
(networkx), run on max-transformed weights so that a
max-cardinality/max-weight matching of the finite-edge subgraph is
exactly the min-cost perfect matching.

The assignment relaxation, solved by shortest augmenting paths, gives
duals w with LB = sum(w) - (N/2) rho <= the optimum (rho covers float
rounding of dual feasibility); a perfect matching read off its cycles
gives a cost UB >= the optimum: each 2-cycle is a pair, and the users
on longer cycles are joined along least reduced-cost alternating
paths.  When UB <= LB that matching is optimal and networkx is not
called; on the default generator at N = 16-32 this holds for about
three MWPMs in four.  On an open gap networkx sees only the edges that
can still be optimal: an edge whose reduced cost C_ij - w_i - w_j
exceeds the gap UB - LB lies in no matching that cheap, so it is
dropped (Cook & Rohe 1999, INFORMS J. Comput. 11(2)).  On the default
generator typically one or two edges per user remain.
Those edges are weighted by their reduced costs, which rank perfect
matchings as the costs do and vanish (up to rounding) on the
assignment's edges.

Candidate lists for the feasibility search come from a lazy Lawler
ranking: pop the cheapest cell, split it into subcells that each
include a prefix of its matching's edges and exclude the next one,
re-solve each subcell, and keep them in a priority queue.  Cells
partition the matching space, so the ranking is exact and
duplicate-free.  A popped matching that is cheaper than everything
else by more than a float tie tolerance, and that its cell's own solve
proved unique, is yielded before its cell is split; a cell is split
only when the next matching is asked for.  A closed gap whose matching
is the assignment itself proves it by its reduced costs; otherwise the
blossom, run with the matching's edges raised by the tolerance, must
return it, and that is the cell's one networkx call when the matching
read off the cycles is already the minimum.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .distortion import DistortionTable

__all__ = [
    "INFEASIBLE",
    "PairCostMatrix",
    "Matching",
    "build_cost_matrix",
    "mwpm",
    "k_best_matchings",
]


def __getattr__(name: str):
    """``pairing.nx`` is networkx, imported on first use (PEP 562):
    ``pairing.nx.max_weight_matching`` is the blossom that
    :func:`_blossom` calls, before or after its first call."""
    if name == "nx":
        import networkx

        return networkx
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Sentinel for pairs that may never be matched.  +inf (not a big finite
# number) so "no finite perfect matching" is detected exactly.
INFEASIBLE = math.inf

Pair = tuple[int, int]


@dataclass(frozen=True)
class PairCostMatrix:
    """Symmetric pairwise cost matrix with INFEASIBLE markers; ``n`` is derived.

    The diagonal is INFEASIBLE (a user cannot pair with itself); finite
    entries are non-negative distortions.
    """

    costs: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.costs, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"cost matrix must be square, got shape {c.shape}")
        if not np.array_equal(c, c.T):
            raise ValueError("cost matrix must be symmetric")
        if not np.all(np.isinf(np.diag(c))):
            raise ValueError("diagonal entries must be INFEASIBLE")
        finite = c[np.isfinite(c)]
        if finite.size and finite.min() < 0:
            raise ValueError("finite costs must be non-negative")
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "n", c.shape[0])


@dataclass(frozen=True)
class Matching:
    """A perfect matching: K unordered index pairs covering 0..N-1."""

    pairs: tuple[Pair, ...]
    total_cost: float

    def __post_init__(self) -> None:
        seen = [i for p in self.pairs for i in p]
        if len(set(seen)) != len(seen):
            raise ValueError("matching reuses an index")


def _canonical(pairs) -> tuple[Pair, ...]:
    return tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))


def _total(costs: np.ndarray, pairs) -> float:
    return float(math.fsum(costs[i, j] for i, j in pairs))


def build_cost_matrix(table: DistortionTable, d_max: float) -> PairCostMatrix:
    """Edge weights C_ij = d_ij where both users meet the quality cap.

    ``table.pair_sum[i][j]`` is the summed pair distortion d_ij; the
    entry is INFEASIBLE on the diagonal and where either user's own
    distortion ``table.per_user`` exceeds ``d_max``.  The table has
    already rejected missing and negative entries, and its pair sums
    are symmetric bit for bit.
    """
    pu = table.per_user
    capped = (pu <= d_max) & (pu.T <= d_max)
    np.fill_diagonal(capped, False)
    return PairCostMatrix(np.where(capped, table.pair_sum, INFEASIBLE))


def _assignment(c: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Optimal duals w and row-to-column map of the assignment relaxation.

    Solves min sum_i c[i, s(i)] over permutations s (inf = forbidden) by
    column reduction and then one shortest augmenting path per free row
    (Jonker & Volgenant 1987, Computing 38(4)), keeping duals u, v with
    u_i + v_j <= c_ij.  A perfect matching M is the symmetric assignment
    of cost 2 c(M), so w = (u + v) / 2 has w_i + w_j <= c_ij and
    sum(w) <= every matching's cost.  None when no finite assignment,
    and so no finite perfect matching, exists.

    The paths run on Python lists: at the sizes solved here a numpy call
    per Dijkstra step costs more than the arithmetic.
    """
    n = c.shape[0]
    v = c.min(axis=0)
    if not np.all(np.isfinite(v)):
        return None
    v = v.tolist()
    u = [0.0] * n
    col_of = [-1] * n
    row_of = [-1] * n
    # Each column's first cheapest row takes it unless an earlier column
    # already did.
    for j, i in enumerate(c.argmin(axis=0).tolist()):
        if col_of[i] < 0:
            col_of[i], row_of[j] = j, i
    rows = c.tolist()
    for root in [i for i in range(n) if col_of[i] < 0]:
        # Dijkstra over columns on reduced costs c_ij - v_j; a scanned
        # column's distance is final.  Ties go to the lowest column.
        dist = [math.inf] * n
        pred = [0] * n
        unscanned = list(range(n))
        scanned = []
        i, d_i = root, 0.0
        while True:
            c_i, head = rows[i], d_i - u[i]
            d_i, j = math.inf, -1
            for k in unscanned:
                reach = c_i[k] - v[k] + head
                d_k = dist[k]
                if reach < d_k:
                    dist[k] = d_k = reach
                    pred[k] = i
                if d_k < d_i:
                    d_i, j = d_k, k
            if not math.isfinite(d_i):
                return None
            unscanned.remove(j)
            scanned.append(j)
            if row_of[j] < 0:
                break
            i = row_of[j]
        # Shift the duals so every scanned edge stays tight, then flip
        # the path from root to the free column j.
        for k in scanned:
            if row_of[k] >= 0:
                u[row_of[k]] += d_i - dist[k]
            v[k] -= d_i - dist[k]
        u[root] += d_i
        while True:
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == root:
                break
    return 0.5 * (np.array(u) + np.array(v)), np.array(col_of)


def _join_exposed(r: list[list[float]], mate: list[int]) -> None:
    """Pair up the exposed users (mate -1) in place, each along the
    alternating path of least reduced-cost increase r to another one.

    Dijkstra over the users reached through a mate: from such a user y,
    an edge (y, x) plus x's mate e reach e, at the cost r_yx - r_xe
    floored at 0, so no step lowers a settled user's distance, which is
    at most y's.  Ties go to the lowest user.  A path that meets itself
    (an odd cycle) is not flipped; its two ends are paired directly,
    even over an infinite edge.  The upper bound is then +inf, and the
    pricing stays sound: it keeps every finite edge.  Runs on Python
    lists, as :func:`_assignment` does.
    """
    n = len(mate)
    while exposed := [k for k in range(n) if mate[k] < 0]:
        a = exposed[0]
        dist = [math.inf] * n
        dist[a] = 0.0
        via = [-1] * n
        done = [False] * n
        matched = [(x, mate[x], r[x][mate[x]]) for x in range(n) if mate[x] >= 0]
        best, end = math.inf, (a, exposed[1])
        while True:
            d_y, y = math.inf, -1
            for k in range(n):
                if not done[k] and dist[k] < d_y:
                    d_y, y = dist[k], k
            if not d_y < best:
                break
            done[y] = True
            r_y = r[y]
            for b in exposed[1:]:
                if d_y + r_y[b] < best:
                    best, end = d_y + r_y[b], (y, b)
            for x, e, own in matched:
                # max(nan, 0.0) is nan: inf - inf reaches nothing.
                reach = d_y + max(r_y[x] - own, 0.0)
                if reach < dist[e]:
                    dist[e], via[e] = reach, y
        y, b = end
        path = [b, y]
        while path[-1] != a:
            path += [mate[path[-1]], via[path[-1]]]
        if len(set(path)) < len(path):
            mate[a], mate[b] = b, a
            continue
        for k in range(0, len(path), 2):
            mate[path[k]], mate[path[k + 1]] = path[k + 1], path[k]


def _cycle_matching(d: np.ndarray, col_of: np.ndarray) -> list[Pair]:
    """A perfect matching read off an assignment's cycles.

    Each 2-cycle is its own pair.  Every user on a longer cycle is left
    exposed, and :func:`_join_exposed` pairs them along alternating
    paths of the reduced costs ``d`` (c_ij - w_i - w_j over the whole
    matrix).  An assignment of 2-cycles only is so returned as its
    pairs: a perfect matching M' is an assignment of cost 2 c(M'), so
    the optimal assignment read as a matching is a minimum one.  Its
    edges may be infinite.
    """
    succ = col_of.tolist()
    mate = [m if succ[m] == k else -1 for k, m in enumerate(succ)]
    # With no user exposed the join is a no-op; skip the copy of d.
    if -1 in mate:
        _join_exposed(d.tolist(), mate)
    return [(k, m) for k, m in enumerate(mate) if k < m]


def _reduced(c: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, float]:
    """Reduced costs r_ij = d_ij = c_ij - w_i - w_j on the upper triangle
    (+inf off the finite edges) and rho = max(0, -min r)."""
    r = np.where(np.triu(np.isfinite(c), 1), d, np.inf)
    return r, max(0.0, -float(r.min()))


def _priced_edges(r: np.ndarray, rho: float, w: np.ndarray, ub: float) -> np.ndarray:
    """Upper-triangle mask of the edges that can lie in a matching of
    cost at most ``ub``: those with reduced cost r_ij (:func:`_reduced`)
    at most ub - sum(w) + (N/2) rho.

    Any matching M has sum_M r = c(M) - sum(w) and N/2 edges, each with
    r >= -rho, so an edge of M has r <= c(M) - sum(w) + (N/2 - 1) rho.
    That holds for every w, so the mask is sound even where float
    rounding breaks dual feasibility; a tolerance covers the rounding
    of r itself.  An infinite ``ub`` keeps every finite edge.
    """
    tol = 1e-9 * (abs(ub) + float(np.abs(w).sum()))
    return np.isfinite(r) & (r <= ub - math.fsum(w) + 0.5 * r.shape[0] * rho + tol)


def _no_rival(keep: np.ndarray, mate: list[int], pairs: list[Pair]) -> bool:
    """True when ``pairs`` is the assignment ``mate`` and no other perfect
    matching uses only the edges of the upper-triangle mask ``keep``.

    A rival M' differs from M = ``pairs`` on alternating cycles v0 v1
    v2 ... with (v0, v1), (v2, v3), ... in M' and v2 = mate(v1), v4 =
    mate(v3), ...: so v0 -> v2 -> v4 -> ... -> v0 is a cycle of the
    arcs i -> mate(j), one each way along every edge (i, j) of M'
    outside M.  If the arcs of the kept edges outside M form no cycle,
    no rival uses only kept edges.  Users that no arc enters are peeled
    off until none is left.
    """
    if any(mate[i] != j or mate[j] != i for i, j in pairs):
        return False
    heads: list[list[int]] = [[] for _ in mate]
    entering = [0] * len(mate)
    rows, cols = np.nonzero(keep)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if mate[i] != j:
            heads[i].append(mate[j])
            heads[j].append(mate[i])
            entering[mate[j]] += 1
            entering[mate[i]] += 1
    peeled = [v for v, k in enumerate(entering) if k == 0]
    for v in peeled:
        for h in heads[v]:
            entering[h] -= 1
            if entering[h] == 0:
                peeled.append(h)
    return len(peeled) == len(mate)


def _blossom(r: np.ndarray, rho: float, w: np.ndarray, ub: float) -> tuple[Pair, ...] | None:
    """networkx's least-r perfect matching (weights max(r) - r) over the
    edges :func:`_priced_edges` keeps below ``ub``, or None if none."""
    import networkx as nx  # loaded on the first open gap only

    i, j = np.nonzero(_priced_edges(r, rho, w, ub))
    reduced = r[i, j]
    graph = nx.Graph()
    graph.add_nodes_from(range(r.shape[0]))
    graph.add_weighted_edges_from(zip(i.tolist(), j.tolist(), (reduced.max() - reduced).tolist()))
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    return _canonical(mate) if 2 * len(mate) == r.shape[0] else None


def _solve_min_cost(
    costs: np.ndarray, tau: float | None
) -> tuple[tuple[Pair, ...], bool] | None:
    """Min-cost perfect matching over finite edges, or None if none exists,
    with a proof flag: True when a tie tolerance ``tau`` is given and
    every other perfect matching costs at least 2 ``tau`` more.

    The assignment relaxation bounds the optimum below by LB = sum(w) -
    (N/2) rho, and the matching read off its cycles (its 2-cycles plus
    the alternating-path joins of :func:`_cycle_matching`) bounds it
    above by its cost UB.  When UB <= LB, compared exactly, that
    matching is optimal.  Otherwise the relaxation prices out every edge
    that no matching as cheap as UB can use, and networkx's blossom
    solves the rest exactly; without a finite heuristic matching it gets
    every finite edge.

    With ``tau``, a closed gap whose matching M is the assignment itself
    (every cycle a 2-cycle) is proved by its own duals: the same pricing
    keeps the edges of every matching that costs at most c(M) + N tau,
    and :func:`_no_rival` shows M to be the only one.  Otherwise the
    flag means that the raised blossom returns the matching: it is
    priced at c(guess) + (N/2) tau with the guess's edges raised by tau
    in r (w stays feasible as costs rise).  A rival X shares at most
    N/2 - 2 edges with the guess, so if the guess comes back, c(X) >=
    c(guess) + 2 tau.  The first guess is the cycle matching, and a
    blossom that returns another matching makes that the guess, once.  After two misses the flag is False, and the
    matching is the cycle matching on a closed gap or the unraised
    blossom's on an open one.
    """
    n = costs.shape[0]
    if n == 0:
        return (), True
    solved = _assignment(costs)
    if solved is None:
        return None
    w, col_of = solved
    d = costs - w[:, None] - w
    heuristic = _canonical(_cycle_matching(d, col_of))
    ub = _total(costs, heuristic)
    r, rho = _reduced(costs, d)
    # LB is finite, so an infinite UB never closes the gap.
    closed = ub <= math.fsum(w) - 0.5 * n * rho
    if closed and (
        tau is None or _no_rival(_priced_edges(r, rho, w, ub + n * tau), col_of.tolist(), heuristic)
    ):
        return heuristic, tau is not None
    if tau is not None:
        guess = heuristic
        for _ in range(2):
            raised = r.copy()
            raised[tuple(np.array(guess).T)] += tau
            found = _blossom(raised, rho, w, _total(costs, guess) + 0.5 * n * tau)
            if found is None:
                return None
            if found == guess:
                return guess, True
            guess = found
        if closed:
            return heuristic, False
    found = _blossom(r, rho, w, ub)
    return None if found is None else (found, False)


def mwpm(costs: PairCostMatrix) -> Matching | None:
    """Minimum-weight perfect matching, or None when every perfect
    matching would use an INFEASIBLE edge."""
    if costs.n % 2 != 0:
        raise ValueError("perfect matching needs an even number of users")
    solved = _solve_min_cost(costs.costs, None)
    if solved is None:
        return None
    pairs = solved[0]
    return Matching(pairs=pairs, total_cost=_total(costs.costs, pairs))


def _solve_cell(
    costs: np.ndarray,
    forced_in: frozenset[Pair],
    forced_out: frozenset[Pair],
    tau: float | None,
) -> tuple[tuple[Pair, ...], bool] | None:
    """Best matching containing all forced_in edges and no forced_out
    edge, with :func:`_solve_min_cost`'s proof flag for the free users."""
    n = costs.shape[0]
    fixed = set(i for p in forced_in for i in p)
    free = sorted(set(range(n)) - fixed)
    sub = costs[np.ix_(free, free)].copy()
    fwd = {orig: local for local, orig in enumerate(free)}
    for i, j in forced_out:
        if i in fwd and j in fwd:
            sub[fwd[i], fwd[j]] = INFEASIBLE
            sub[fwd[j], fwd[i]] = INFEASIBLE
    solved = _solve_min_cost(sub, tau)
    if solved is None:
        return None
    pairs = list(forced_in) + [(free[i], free[j]) for i, j in solved[0]]
    return _canonical(pairs), solved[1]


def _ranked(costs: PairCostMatrix):
    """Yield every finite perfect matching in ascending (cost, pairs) order.

    One Lawler heap of cells, each keyed by its best matching, and a
    settled heap of matchings whose cells were split.  networkx returns
    a cell's minimum only to within float error, so "cheaper" means by
    more than a tie tolerance tau.  A popped cell's matching is yielded
    before its cell is split when it is cheaper than every other cell
    key and settled matching and its solve's proof flag is set
    (:func:`_solve_min_cost`: every rival in the cell is at least 2 tau
    dearer); otherwise it is settled, and the smallest settled matching
    is yielded once every unsplit cell is dearer, so nothing still
    unranked can tie or beat it.  A cell is split only when the next
    yield needs it.
    """
    if costs.n % 2 != 0:
        raise ValueError("perfect matching needs an even number of users")
    c = costs.costs
    # Costs closer than tau may be float ties (finite costs are >= 0).
    tau = 1e-9 * max(float(c[np.isfinite(c)].max(initial=0.0)), 1.0)
    first = _solve_cell(c, frozenset(), frozenset(), tau)
    if first is None:
        return
    cells = [(_total(c, first[0]), *first, frozenset(), frozenset())]
    settled: list[tuple[float, tuple[Pair, ...]]] = []
    while cells or settled:
        if settled and (not cells or cells[0][0] > settled[0][0] + tau):
            total, pairs = heapq.heappop(settled)
            yield Matching(pairs=pairs, total_cost=total)
            continue
        total, pairs, proved, f_in, f_out = heapq.heappop(cells)
        free_edges = [p for p in pairs if p not in f_in]
        if (
            proved
            and (not cells or cells[0][0] > total + tau)
            and (not settled or settled[0][0] > total + tau)
        ):
            yield Matching(pairs=pairs, total_cost=total)
        else:
            heapq.heappush(settled, (total, pairs))
        for t, edge in enumerate(free_edges):
            child_in = f_in | frozenset(free_edges[:t])
            child_out = f_out | frozenset({edge})
            solved = _solve_cell(c, child_in, child_out, tau)
            if solved is not None:
                heapq.heappush(cells, (_total(c, solved[0]), *solved, child_in, child_out))


def k_best_matchings(costs: PairCostMatrix, w_count: int) -> list[Matching]:
    """The ``w_count`` cheapest perfect matchings, ascending by cost.

    Ties break lexicographically on the sorted pair list.  Returns
    fewer when fewer finite matchings exist.  The list is the first
    ``w_count`` of the lazy Lawler ranking, so a shorter window is
    always a prefix of a longer one.
    """
    if w_count < 1:
        raise ValueError("w_count must be >= 1")
    return list(islice(_ranked(costs), w_count))
