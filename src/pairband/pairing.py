"""Pairing: cost matrix, minimum-weight perfect matching, k-best lists.

Pairing all N users into N/2 disjoint pairs at minimum total distortion
is a minimum-weight perfect matching problem on the complete graph with
edge weights C_ij (infinite where either user would exceed the
distortion cap).  The kernel is an Edmonds blossom solver (networkx),
run on max-transformed weights so that a max-cardinality/max-weight
matching of the finite-edge subgraph is exactly the min-cost perfect
matching; a double-factorial brute-force enumerator serves as the
exactness oracle.

Candidate lists for the feasibility search come from a lazy Lawler
ranking: pop the cheapest cell, split it into subcells that each
include a prefix of its matching's edges and exclude the next one,
re-solve each subcell, and keep them in a priority queue.  Cells
partition the matching space, so the ranking is exact and
duplicate-free.  A popped matching that is cheaper than everything
else by more than a float tie tolerance, and unique in its cell (one
MWPM with its own edges raised by that tolerance still returns it), is
yielded before its cell is split; a cell is split only when the next
matching is asked for.  So the first matching costs two MWPMs unless
something ties it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice

import networkx as nx
import numpy as np

__all__ = [
    "INFEASIBLE",
    "PairCostMatrix",
    "Matching",
    "build_cost_matrix",
    "mwpm",
    "brute_force_mwpm",
    "k_best_matchings",
    "all_matchings",
]

# Sentinel for pairs that may never be matched.  +inf (not a big finite
# number) so "no finite perfect matching" is detected exactly.
INFEASIBLE = math.inf

Pair = tuple[int, int]


@dataclass(frozen=True)
class PairCostMatrix:
    """Symmetric pairwise cost matrix with INFEASIBLE markers.

    The diagonal is INFEASIBLE (a user cannot pair with itself); finite
    entries are non-negative distortions.
    """

    n: int
    costs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.costs, dtype=float)
        if c.shape != (self.n, self.n):
            raise ValueError(f"cost matrix must be {self.n}x{self.n}, got {c.shape}")
        if not np.array_equal(c, c.T):
            raise ValueError("cost matrix must be symmetric")
        if not np.all(np.isinf(np.diag(c))):
            raise ValueError("diagonal entries must be INFEASIBLE")
        finite = c[np.isfinite(c)]
        if finite.size and finite.min() < 0:
            raise ValueError("finite costs must be non-negative")
        object.__setattr__(self, "costs", c)


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


def build_cost_matrix(pair_sums, per_user, d_max: float) -> PairCostMatrix:
    """Edge weights C_ij = d_ij where both users meet the quality cap.

    ``pair_sums[i][j]`` is the summed pair distortion d_ij and
    ``per_user[i][j]`` is user i's own distortion when paired with j;
    the entry is INFEASIBLE when either per-user distortion exceeds
    ``d_max``.  Missing (NaN) entries are reported by pair.
    """
    ps = np.asarray(pair_sums, dtype=float)
    pu = np.asarray(per_user, dtype=float)
    n = ps.shape[0]
    if ps.shape != (n, n) or pu.shape != (n, n):
        raise ValueError("distortion tables must be square and same-shaped")

    off = ~np.eye(n, dtype=bool)
    holes = off & (np.isnan(ps) | np.isnan(pu))
    missing = [(int(i), int(j)) for i, j in np.argwhere(holes)]
    if missing:
        raise ValueError(f"missing distortion entries for pairs: {missing}")

    if np.any(ps[off] < 0) or np.any(pu[off] < 0):
        raise ValueError("distortion entries must be non-negative")
    if not np.allclose(ps[off], ps.T[off], rtol=1e-9, atol=0.0):
        raise ValueError("pair distortion table must be symmetric")

    # Upper-triangle entries decide both directions, as d_ij may differ
    # from d_ji in the last digits.
    capped = np.triu((pu <= d_max) & (pu.T <= d_max), 1)
    upper = np.where(capped, ps, INFEASIBLE)
    return PairCostMatrix(n=n, costs=np.minimum(upper, upper.T))


def _solve_min_cost(costs: np.ndarray) -> tuple[Pair, ...] | None:
    """Min-cost perfect matching over finite edges, or None if none exists."""
    n = costs.shape[0]
    if n == 0:
        return ()
    edges = [
        (i, j, costs[i, j])
        for i in range(n)
        for j in range(i + 1, n)
        if math.isfinite(costs[i, j])
    ]
    if not edges:
        return None
    w_max = max(w for _, _, w in edges)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for i, j, w in edges:
        graph.add_edge(i, j, weight=w_max - w)
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    if 2 * len(mate) != n:
        return None
    return _canonical(mate)


def mwpm(costs: PairCostMatrix) -> Matching | None:
    """Minimum-weight perfect matching, or None when every perfect
    matching would use an INFEASIBLE edge."""
    if costs.n % 2 != 0:
        raise ValueError("perfect matching needs an even number of users")
    pairs = _solve_min_cost(costs.costs)
    if pairs is None:
        return None
    return Matching(pairs=pairs, total_cost=_total(costs.costs, pairs))


def all_matchings(n: int):
    """Yield every perfect matching of 0..n-1 as a canonical pair tuple.

    There are (n-1)!! of them; always pairs the lowest unmatched index
    first, so the order is deterministic.
    """
    if n % 2 != 0:
        raise ValueError("n must be even")

    def rec(rest: tuple[int, ...]):
        if not rest:
            yield ()
            return
        head, others = rest[0], rest[1:]
        for idx, partner in enumerate(others):
            for tail in rec(others[:idx] + others[idx + 1 :]):
                yield ((head, partner),) + tail

    yield from rec(tuple(range(n)))


def brute_force_mwpm(costs: PairCostMatrix, max_n: int = 12) -> Matching | None:
    """Exhaustive minimum over all (n-1)!! perfect matchings.

    Test oracle only — refuses n above ``max_n`` (10395 matchings at
    n = 12).  Ties resolve to the lexicographically smallest pair list.
    """
    if costs.n > max_n:
        raise ValueError(f"brute force limited to n <= {max_n}, got {costs.n}")
    best: tuple[float, tuple[Pair, ...]] | None = None
    for pairs in all_matchings(costs.n):
        total = _total(costs.costs, pairs)
        if math.isinf(total):
            continue
        key = (total, pairs)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    return Matching(pairs=best[1], total_cost=best[0])


def _solve_cell(
    costs: np.ndarray,
    forced_in: frozenset[Pair],
    forced_out: frozenset[Pair],
) -> tuple[Pair, ...] | None:
    """Best matching containing all forced_in edges and no forced_out edge."""
    n = costs.shape[0]
    fixed = set(i for p in forced_in for i in p)
    free = sorted(set(range(n)) - fixed)
    sub = costs[np.ix_(free, free)].copy()
    fwd = {orig: local for local, orig in enumerate(free)}
    for i, j in forced_out:
        if i in fwd and j in fwd:
            sub[fwd[i], fwd[j]] = INFEASIBLE
            sub[fwd[j], fwd[i]] = INFEASIBLE
    solved = _solve_min_cost(sub)
    if solved is None:
        return None
    pairs = list(forced_in) + [(free[i], free[j]) for i, j in solved]
    return _canonical(pairs)


def _unique_in_cell(
    c: np.ndarray,
    pairs: tuple[Pair, ...],
    free_edges: list[Pair],
    forced_in: frozenset[Pair],
    forced_out: frozenset[Pair],
    tau: float,
) -> bool:
    """True when no other matching of the cell costs within ``tau`` of
    ``pairs``: raising each of its free edges by ``tau`` puts any rival
    (which misses at least two of them) 2*tau closer, so the cell's
    minimum stays ``pairs`` only if every rival is 2*tau dearer."""
    raised = c.copy()
    for i, j in free_edges:
        raised[i, j] += tau
        raised[j, i] += tau
    return _solve_cell(raised, forced_in, forced_out) == pairs


def _ranked(costs: PairCostMatrix):
    """Yield every finite perfect matching in ascending (cost, pairs) order.

    One Lawler heap of cells, each keyed by its best matching, and a
    settled heap of matchings whose cells were split.  networkx returns
    a cell's minimum only to within float error, so "cheaper" means by
    more than a tie tolerance tau.  A popped cell's matching is yielded
    before its cell is split when it is cheaper than every other cell
    key and settled matching and unique in its cell; otherwise it is
    settled, and the smallest settled matching is yielded once every
    unsplit cell is dearer, so nothing still unranked can tie or beat
    it.  A cell is split only when the next yield needs it.
    """
    first = mwpm(costs)
    if first is None:
        return
    c = costs.costs
    # Costs closer than tau may be float ties (finite costs are >= 0).
    tau = 1e-9 * max(float(c[np.isfinite(c)].max(initial=0.0)), 1.0)
    cells = [(first.total_cost, first.pairs, frozenset(), frozenset())]
    settled: list[tuple[float, tuple[Pair, ...]]] = []
    while cells or settled:
        if settled and (not cells or cells[0][0] > settled[0][0] + tau):
            total, pairs = heapq.heappop(settled)
            yield Matching(pairs=pairs, total_cost=total)
            continue
        total, pairs, f_in, f_out = heapq.heappop(cells)
        free_edges = [p for p in pairs if p not in f_in]
        if (
            (not cells or cells[0][0] > total + tau)
            and (not settled or settled[0][0] > total + tau)
            and _unique_in_cell(c, pairs, free_edges, f_in, f_out, tau)
        ):
            yield Matching(pairs=pairs, total_cost=total)
        else:
            heapq.heappush(settled, (total, pairs))
        for t, edge in enumerate(free_edges):
            child_in = f_in | frozenset(free_edges[:t])
            child_out = f_out | frozenset({edge})
            solved = _solve_cell(c, child_in, child_out)
            if solved is not None:
                heapq.heappush(cells, (_total(c, solved), solved, child_in, child_out))


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
