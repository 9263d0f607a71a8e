"""Time one minimum-weight perfect matching (MWPM) at N = 16/32/64/128.

For each N, draws the default-template scenario of one seed and solves
two MWPMs: on its distortion cost matrix (a solve's candidate 1) and on
its pair-bound matrix (the b_min certificate).  Prints one JSON line
per N: each matching's total cost and pairs, the median CPU
milliseconds of three solves, and how many of the N(N-1)/2 edges
networkx was handed (0 when the assignment bound proves the matching
read off its cycles optimal, so networkx is not called); the bound
entry also times the bound matrix itself, so bound ``matrix_ms`` +
``ms`` is the whole certificate, ``generate_ms`` is the median CPU
milliseconds of ``generate_scenario``, and ``kkt_ms`` that of
``kkt_allocate`` on candidate 1 (the cost matrix's MWPM) with its
pairs' bounds.  The cost entry's ``rank1_mwpms`` counts the MWPMs that
ranking candidate 1 solves: 1 when its own solve proves that nothing
ties it (by the closed gap's duals or by the blossom run on raised
costs), more when a near tie makes the ranking split its cell first.
With ``--no-time`` the lines hold answers only, and each total is
rounded to 9 significant digits, the 1e-9 relative tolerance the
benchmark references are checked at: a change in a total's last bits
does not show (unless it crosses a rounding boundary), so two
checkouts compare with one ``diff``:

    PYTHONPATH=src python scripts/mwpm_scale.py --no-time > mwpm.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from pairband import pairing
from pairband.bandwidth import kkt_allocate
from pairband.pairing import PairCostMatrix, k_best_matchings, mwpm
from pairband.scenario import ScenarioTemplate, generate_scenario
from pairband.solver import _cost_matrix, _pair_bounds

SIZES = (16, 32, 64, 128)
REPEATS = 3


def cpu_ms(fn, *args):
    """(result, CPU milliseconds) of one call."""
    start = time.process_time()
    result = fn(*args)
    return result, 1e3 * (time.process_time() - start)


def edges_handed(costs: PairCostMatrix) -> int | None:
    """Edges in the graph the MWPM hands networkx: 0 when the assignment
    bound closes the gap and networkx is not called, None when no
    perfect matching exists."""
    blossom = pairing.nx.max_weight_matching
    seen = []

    def counted(graph, **kwargs):
        seen.append(graph.number_of_edges())
        return blossom(graph, **kwargs)

    pairing.nx.max_weight_matching = counted
    try:
        best = mwpm(costs)
    finally:
        pairing.nx.max_weight_matching = blossom
    if best is None:
        return None
    return seen[0] if seen else 0


def rank1_mwpms(costs: PairCostMatrix) -> int:
    """MWPM kernel solves made by ``k_best_matchings(costs, 1)``."""
    kernel = pairing._solve_min_cost
    calls = []

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    pairing._solve_min_cost = counted
    try:
        k_best_matchings(costs, 1)
    finally:
        pairing._solve_min_cost = kernel
    return len(calls)


def entry(costs: PairCostMatrix, timed: bool) -> dict:
    best = mwpm(costs)
    out = {"total": None, "pairs": None}
    if best is not None:
        total = best.total_cost if timed else float(f"{best.total_cost:.9g}")
        out = {"total": total, "pairs": best.pairs}
    if timed:
        times = [cpu_ms(mwpm, costs)[1] for _ in range(REPEATS)]
        out["ms"] = round(statistics.median(times), 2)
        out["edges_kept"] = edges_handed(costs)
    return out


def kkt_ms(scn, costs: PairCostMatrix, bounds) -> float | None:
    """Median CPU milliseconds of candidate 1's KKT split; None when the
    cost matrix has no perfect matching."""
    best = mwpm(costs)
    if best is None:
        return None
    lower = [float(bounds[i, j]) for i, j in best.pairs]
    times = [cpu_ms(kkt_allocate, list(scn.users), best, scn.cfg, lower)[1] for _ in range(REPEATS)]
    return round(statistics.median(times), 2)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="scenario seed (default 0)")
    parser.add_argument("--no-time", action="store_true", help="print answers only")
    args = parser.parse_args(argv)

    for n in SIZES:
        template = ScenarioTemplate(n_users=n)
        scn = generate_scenario(template, args.seed)
        costs = _cost_matrix(scn)
        bounds, bounds_ms = cpu_ms(_pair_bounds, scn, costs)
        line = {
            "n": n,
            "seed": args.seed,
            "edges": n * (n - 1) // 2,
            "cost": entry(costs, not args.no_time),
            "bound": entry(PairCostMatrix(bounds), not args.no_time),
        }
        line["cost"]["rank1_mwpms"] = rank1_mwpms(costs)
        if not args.no_time:
            line["bound"]["matrix_ms"] = round(bounds_ms, 2)
            times = [cpu_ms(generate_scenario, template, args.seed)[1] for _ in range(REPEATS)]
            line["generate_ms"] = round(statistics.median(times), 2)
            line["kkt_ms"] = kkt_ms(scn, costs, bounds)
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
