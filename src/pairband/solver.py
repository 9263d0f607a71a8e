"""End-to-end solving: candidate pairings, feasibility, baselines, sweeps.

The joint problem decomposes cleanly: pairing determines total
distortion (the objective) and bandwidth allocation only decides
whether a pairing can meet the budgets.  So the solver enumerates
perfect matchings in ascending distortion order and returns the first
one whose bandwidth subproblem is feasible — that matching is optimal,
because every cheaper pairing was already proven infeasible.

Candidates come from a lazy ranking whose window starts at one
matching and doubles on exhaustion, so a solve decided by its first
candidate ranks just that one: with the certificate, two MWPMs in all,
since candidate 1's own solve proves that nothing ties it unless a
rival comes within twice the tie tolerance.  Two sound certificates
stop hopeless instances instead of enumerating all (N-1)!! matchings:

* Before enumerating at all: the matching that minimizes the summed
  per-pair minimum bandwidths is itself a minimum-weight perfect
  matching (over b_min weights), so if even that one overflows B_max
  — or no latency-and-quality-feasible perfect matching exists — no
  pairing whatsoever is feasible (0 candidates tried).
* At the first candidate rejected for energy, once per solve: the
  Lagrangian bound of :func:`~pairband.bandwidth.energy_infeasible`
  on every pairing's transmit energy, first at that candidate's own
  KKT multiplier.  If it exceeds the budget left after compute energy,
  no pairing meets E_max.  A probe that the half-edge bound (half the
  sum of each user's cheapest price) already puts over the budget
  solves no MWPM.  A solve decided at candidate 1 never runs it.

Four reference strategies mirror the evaluation baselines.  Each is a
pairing rule (random, greedy or channel-balanced) combined with a
bandwidth split (equal or the optimal KKT one), named ``<rule>_<split>``.
They evaluate feasibility but do not enforce it, so comparisons can
include their infeasible draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bandwidth import (
    AllocationReport,
    _overfills,
    b_min_pair,
    energy_infeasible,
    evaluate_fixed_allocation,
    kkt_allocate,
)
from .pairing import (
    INFEASIBLE,
    Matching,
    PairCostMatrix,
    build_cost_matrix,
    k_best_matchings,
    mwpm,
)
from .scenario import Scenario, ScenarioTemplate, generate_scenario

__all__ = [
    "Scenario",
    "SolveResult",
    "STRATEGIES",
    "solve",
    "solve_proposed",
    "sweep_bandwidth",
    "random_matching",
    "greedy_matching",
    "channel_balanced_matching",
]

STRATEGIES = (
    "proposed",
    "random_equal",
    "greedy_equal",
    "channel_balanced_equal",
    "random_kkt",
)

@dataclass(frozen=True)
class SolveResult:
    """Outcome of one strategy on one scenario.

    ``matching`` is None when the strategy could not produce a pairing
    at all (global infeasibility for the proposed strategy, dead-end
    for greedy).  ``total_distortion`` is the matching cost under the
    quality-capped edge weights, so it is +inf whenever the pairing
    violates the per-user distortion cap.
    """

    matching: Matching | None
    allocation: AllocationReport | None
    total_distortion: float
    candidates_tried: int
    strategy: str

    @property
    def feasible(self) -> bool:
        return (
            self.allocation is not None
            and self.allocation.feasible
            and math.isfinite(self.total_distortion)
        )


def _cost_matrix(scenario: Scenario) -> PairCostMatrix:
    return build_cost_matrix(scenario.distortions, scenario.cfg.d_max)


def _pair_bounds(scenario: Scenario, costs: PairCostMatrix) -> np.ndarray:
    """N x N minimum bandwidths of every quality-feasible pair; +inf on
    the diagonal, for quality-violating pairs and for latency-infeasible
    ones.  One :func:`~pairband.bandwidth.b_min_pair` call takes every
    quality-feasible pair i < j."""
    i, j = np.nonzero(np.triu(np.isfinite(costs.costs), 1))
    bounds = np.full((costs.n, costs.n), INFEASIBLE)
    bounds[i, j] = bounds[j, i] = b_min_pair(list(scenario.users), i, j, scenario.cfg)
    return bounds


def _check_with_bounds(
    scenario: Scenario, matching: Matching, bounds: list[float]
) -> AllocationReport:
    """Verdict on one candidate matching, from its pair bounds."""
    return kkt_allocate(list(scenario.users), matching, scenario.cfg, bounds)


def _no_pairing(candidates_tried: int) -> SolveResult:
    """The proposed strategy's proof that no pairing is feasible."""
    return SolveResult(
        matching=None,
        allocation=None,
        total_distortion=math.inf,
        candidates_tried=candidates_tried,
        strategy="proposed",
    )


def solve_proposed(scenario: Scenario) -> SolveResult:
    """First feasible candidate in ascending-distortion order.

    Checks candidates for bandwidth, latency and energy feasibility,
    asking the lazy ranking for 1, 2, 4, ... matchings; each window is
    a prefix of the next, so only its new tail is checked, until a
    short window shows every finite matching has been tried.  The first
    candidate rejected for energy runs the energy bound once.
    """
    costs = _cost_matrix(scenario)
    bounds = _pair_bounds(scenario, costs)

    # Sound certificate: summed lower bounds are pair-additive, so their
    # minimum over perfect matchings is a minimum-weight matching with
    # b_min edge weights (quality- and latency-violating edges removed).
    # If even that one overflows B_max, or none exists, no matching meets
    # latency and the bandwidth sum.
    best = mwpm(PairCostMatrix(n=costs.n, costs=bounds))
    if best is None or _overfills(best.total_cost, scenario.cfg.b_max):
        return _no_pairing(0)

    rows = bounds.tolist()
    tried = 0
    window = 1
    energy_bound_run = False
    while True:
        candidates = k_best_matchings(costs, window)
        for matching in candidates[tried:]:
            report = _check_with_bounds(
                scenario, matching, [rows[i][j] for i, j in matching.pairs]
            )
            tried += 1
            if report.feasible:
                return SolveResult(
                    matching=matching,
                    allocation=report,
                    total_distortion=matching.total_cost,
                    candidates_tried=tried,
                    strategy="proposed",
                )
            if report.infeasibility_reason == "energy" and not energy_bound_run:
                # Energy binds: a pairing-wide bound can end the walk here.
                energy_bound_run = True
                if energy_infeasible(
                    list(scenario.users), scenario.cfg, bounds, matching.pairs, report.bandwidths
                ):
                    return _no_pairing(tried)
        if len(candidates) < window:
            # Window exceeded the number of finite matchings: everything
            # has been tried.
            return _no_pairing(tried)
        window *= 2


def random_matching(n: int, rng: np.random.Generator) -> tuple[tuple[int, int], ...]:
    """Uniform random perfect matching: shuffle, pair consecutively."""
    perm = [int(x) for x in rng.permutation(n)]
    return tuple(
        sorted((min(a, b), max(a, b)) for a, b in zip(perm[::2], perm[1::2]))
    )


def greedy_matching(costs: PairCostMatrix) -> tuple[tuple[int, int], ...] | None:
    """Repeatedly pair the globally cheapest remaining finite edge
    (ties to the lexicographically first); None on a dead end, where
    the remaining users share only quality-violating edges.

    One scan of the finite edges in (cost, i, j) order: an edge skipped
    because an end is already matched can never become eligible again.
    """
    n, c = costs.n, costs.costs.tolist()
    edges = sorted(
        (c[i][j], i, j) for i in range(n) for j in range(i + 1, n) if math.isfinite(c[i][j])
    )
    free = [True] * n
    pairs = []
    for _, i, j in edges:
        if free[i] and free[j]:
            free[i] = free[j] = False
            pairs.append((i, j))
    if 2 * len(pairs) != n:
        return None
    return tuple(sorted(pairs))


def channel_balanced_matching(users) -> tuple[tuple[int, int], ...]:
    """Sort by channel gain and pair the strongest with the weakest."""
    n = len(users)
    order = sorted(range(n), key=lambda i: -users[i].channel.gain_linear)
    return tuple(
        sorted(
            (min(order[r], order[n - 1 - r]), max(order[r], order[n - 1 - r]))
            for r in range(n // 2)
        )
    )


def solve(
    scenario: Scenario,
    strategy: str,
    matching_seed: int | None = None,
) -> SolveResult:
    """Dispatch a strategy by name.

    A baseline ``<rule>_<split>`` draws its pairing with the rule and
    scores it under the split.  Random pairings come from a generator
    namespaced by (matching_seed or scenario.seed), so random_equal and
    random_kkt pick the same pairing for the same seed.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "proposed":
        return solve_proposed(scenario)
    rule, split = strategy.rsplit("_", 1)
    costs = _cost_matrix(scenario)
    if rule == "random":
        seed = scenario.seed if matching_seed is None else matching_seed
        pairs = random_matching(scenario.cfg.n_users, np.random.default_rng([seed, 1]))
    elif rule == "greedy":
        pairs = greedy_matching(costs)
    else:
        pairs = channel_balanced_matching(scenario.users)
    if pairs is None:
        return SolveResult(
            matching=None,
            allocation=None,
            total_distortion=math.inf,
            candidates_tried=1,
            strategy=strategy,
        )

    matching = Matching(
        pairs=pairs, total_cost=float(math.fsum(costs.costs[i, j] for i, j in pairs))
    )
    users, cfg = scenario.users, scenario.cfg
    bounds = b_min_pair(list(users), *np.transpose(pairs), cfg).tolist()
    if split == "kkt":
        report = _check_with_bounds(scenario, matching, bounds)
    else:
        share = cfg.b_max / len(pairs)
        report = evaluate_fixed_allocation(
            list(users), matching, cfg, bounds, [share] * len(pairs)
        )
    return SolveResult(
        matching=matching,
        allocation=report,
        total_distortion=matching.total_cost,
        candidates_tried=1,
        strategy=strategy,
    )


# ---------------------------------------------------------------------------
# Bandwidth sweeps


def _sweep_cell_records(args) -> list[dict]:
    """All (b_max, strategy) records for one seed; runs in a worker."""
    template, b_max_values, strategies, seed = args
    records = []
    for b_max in b_max_values:
        scn = generate_scenario(replace(template, b_max=b_max), seed)
        for strategy in strategies:
            res = solve(scn, strategy)
            records.append(
                {
                    "b_max_hz": b_max,
                    "strategy": strategy,
                    "seed": seed,
                    "feasible": res.feasible,
                    "total_distortion": res.total_distortion,
                    "bandwidth_used": (
                        res.allocation.bandwidth_used
                        if res.allocation is not None
                        else math.nan
                    ),
                    "candidates_tried": res.candidates_tried,
                }
            )
    return records


def sweep_bandwidth(
    template: ScenarioTemplate,
    b_max_values: list[float],
    strategies: list[str] = list(STRATEGIES),
    seeds: list[int] = tuple(range(50)),
    jobs: int = 1,
) -> list[dict]:
    """Average each strategy over fresh scenarios per seed, for every
    B_max value.

    Returns one aggregate row per (b_max, strategy): mean total
    distortion and mean bandwidth over the feasible draws, feasibility
    rate, and mean candidate count.  Workers split by seed and results
    merge by cell key with exact sums, so any ``jobs`` count produces
    the identical table.
    """
    if not b_max_values:
        raise ValueError("b_max_values must be non-empty")
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if any(a >= b for a, b in zip(b_max_values, b_max_values[1:])):
        raise ValueError("b_max_values must be strictly ascending")
    for s in strategies:
        if s not in STRATEGIES:
            raise ValueError(f"unknown strategy {s!r}")
    if len(set(strategies)) != len(strategies):
        raise ValueError(f"strategies must be distinct, got {list(strategies)}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {list(seeds)}")

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    tasks = [
        (template, tuple(b_max_values), tuple(strategies), seed)
        for seed in seeds
    ]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_seed = list(pool.map(_sweep_cell_records, tasks))
    else:
        per_seed = [_sweep_cell_records(t) for t in tasks]

    cells = {}
    for seed_recs in per_seed:
        for rec in seed_recs:
            cells.setdefault((rec["b_max_hz"], rec["strategy"]), []).append(rec)

    def mean(recs: list[dict], key: str) -> float:
        return math.fsum(r[key] for r in recs) / len(recs) if recs else math.nan

    rows = []
    for b_max in b_max_values:
        for strategy in strategies:
            cell = cells[b_max, strategy]
            ok = [r for r in cell if r["feasible"]]
            rows.append(
                {
                    "b_max_hz": b_max,
                    "strategy": strategy,
                    "n_seeds": len(cell),
                    "n_feasible": len(ok),
                    "feasibility_rate": len(ok) / len(cell),
                    "mean_total_distortion": mean(ok, "total_distortion"),
                    "mean_bandwidth_used": mean(ok, "bandwidth_used"),
                    "mean_candidates_tried": mean(cell, "candidates_tried"),
                }
            )
    return rows
