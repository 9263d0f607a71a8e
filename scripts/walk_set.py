"""Solve the walk set: proposed solves whose energy budget makes the
ranked walk go past candidate 1, or end in an energy proof.

The set is the default template at N = 6/8 (seeds 0-9) and N = 10
(seeds 0-1) with B_max 40 MHz, T_max 10 s and D_max 1.0, each under
ten energy budgets:

* ``floor<f>``: E_max at f x the compute floor, f = 1.0005 ... 1.4;
* ``half``: E_max at half the compute floor (nothing fits);
* ``under-c1``: E_max just under candidate 1's energy, 1 - 1e-7 of it;

plus ``ScenarioTemplate(area_m=1000, t_max=2.45)`` seed 2, which walks
past ``bandwidth_sum`` rejections to candidate 5.

Prints one JSON line per instance (key, verdict, pairs,
``candidates_tried`` and CPU milliseconds) and the CPU time per family
on stderr.  With ``--no-time`` the lines hold answers only, so two
checkouts compare with one ``diff``:

    PYTHONPATH=src python scripts/walk_set.py --no-time > walks.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from dataclasses import replace

from pairband.bandwidth import check_feasibility
from pairband.latency_energy import e_const
from pairband.pairing import build_cost_matrix, mwpm
from pairband.scenario import ScenarioTemplate, generate_scenario
from pairband.solver import solve_proposed

FLOOR_FACTORS = (1.0005, 1.001, 1.005, 1.01, 1.05, 1.1, 1.2, 1.4)
SCENARIOS = [(n, seed) for n in (6, 8) for seed in range(10)] + [(10, 0), (10, 1)]


def candidate_one_energy(scn) -> float:
    """Energy of the cheapest-distortion matching under its KKT split."""
    best = mwpm(build_cost_matrix(scn.distortions, scn.cfg.d_max))
    return check_feasibility(list(scn.users), best, scn.cfg).energy_total


def walk_set():
    """(key, family, scenario) for every instance of the set."""
    for n, seed in SCENARIOS:
        template = ScenarioTemplate(n_users=n, b_max=40.0e6, t_max=10.0, d_max=1.0)
        scn = generate_scenario(template, seed)
        floor = e_const(list(scn.users), scn.cfg)
        budgets = [(f"floor{f:g}", "floor", f * floor) for f in FLOOR_FACTORS]
        budgets.append(("half", "half", 0.5 * floor))
        budgets.append(("under-c1", "under-c1", (1.0 - 1e-7) * candidate_one_energy(scn)))
        for label, family, e_max in budgets:
            yield f"n{n}-s{seed}-{label}", family, replace(scn, cfg=replace(scn.cfg, e_max=e_max))
    yield "area1000-s2", "area1000", generate_scenario(
        ScenarioTemplate(area_m=1000, t_max=2.45), 2
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--no-time", action="store_true", help="leave CPU times out")
    args = parser.parse_args(argv)

    family_ms: dict[str, list[float]] = defaultdict(list)
    for key, family, scn in walk_set():
        start = time.process_time()
        res = solve_proposed(scn)
        cpu_ms = 1e3 * (time.process_time() - start)
        family_ms[family].append(cpu_ms)
        line = {
            "key": key,
            "verdict": "feasible" if res.feasible else "infeasible",
            "pairs": None if res.matching is None else res.matching.pairs,
            "candidates_tried": res.candidates_tried,
        }
        if not args.no_time:
            line["cpu_ms"] = round(cpu_ms, 1)
        print(json.dumps(line), flush=True)
    for family, times in family_ms.items():
        print(
            f"{family}: {len(times)} solves, {sum(times):.0f} ms CPU, "
            f"max {max(times):.0f} ms",
            file=sys.stderr,
        )


if __name__ == "__main__":
    main()
