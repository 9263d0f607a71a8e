"""Solve the N = 64 energy-bound rows: proposed solves at B_max 40 MHz.

The instances are the default template at N = 64 and B_max 40 MHz,
seeds 0-5, once with the default E_max (each proved infeasible at
candidate 1 by the energy bound) and once with E_max 1e6 J (feasible at
candidate 1, so the bound never runs).  Prints one JSON line per
instance: its verdict and ``candidates_tried``, and inside the energy
bound the probes q(v), the MWPMs they solve and the networkx blossom
calls those make (a probe that the half-edge bound decides solves no
MWPM), plus the median CPU milliseconds of three solves.  With
``--no-time`` the lines hold answers and counts only, so two checkouts
compare with one ``diff``:

    PYTHONPATH=src python scripts/energy_bound.py --no-time > energy.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from dataclasses import replace

from pairband import bandwidth, pairing, solver
from pairband.scenario import ScenarioTemplate, generate_scenario

SEEDS = range(6)
REPEATS = 3


def instances():
    """(key, scenario) for every instance."""
    template = ScenarioTemplate(n_users=64, b_max=40.0e6)
    for seed in SEEDS:
        scn = generate_scenario(template, seed)
        yield f"n64-s{seed}-bmax40e6", scn
        yield f"n64-s{seed}-bmax40e6-emax1e6", replace(scn, cfg=replace(scn.cfg, e_max=1.0e6))


def counted_solve(scn) -> tuple[solver.SolveResult, dict]:
    """One proposed solve, with the probes, MWPMs and blossom calls made
    inside the energy bound."""
    counts = {"energy_probes": 0, "bound_mwpms": 0, "bound_blossoms": 0}
    inside = [False]
    dual, bound = bandwidth.energy_dual, solver.energy_infeasible
    matcher, blossom = bandwidth.mwpm, pairing._blossom

    def counted_dual(*args):
        q, v_min = dual(*args)

        def counted_q(v):
            counts["energy_probes"] += 1
            return q(v)

        return counted_q, v_min

    def counted_bound(*args):
        inside[0] = True
        try:
            return bound(*args)
        finally:
            inside[0] = False

    def counted_mwpm(costs):
        counts["bound_mwpms"] += 1
        return matcher(costs)

    def counted_blossom(*args):
        counts["bound_blossoms"] += inside[0]
        return blossom(*args)

    patches = [
        (bandwidth, "energy_dual", counted_dual),
        (solver, "energy_infeasible", counted_bound),
        (bandwidth, "mwpm", counted_mwpm),
        (pairing, "_blossom", counted_blossom),
    ]
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    for owner, name, spy in patches:
        setattr(owner, name, spy)
    try:
        res = solver.solve_proposed(scn)
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    return res, counts


def cpu_ms(scn) -> float:
    """CPU milliseconds of one unpatched proposed solve."""
    start = time.process_time()
    solver.solve_proposed(scn)
    return 1e3 * (time.process_time() - start)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--no-time", action="store_true", help="leave CPU times out")
    args = parser.parse_args(argv)

    for key, scn in instances():
        res, counts = counted_solve(scn)
        line = {
            "key": key,
            "verdict": "feasible" if res.feasible else "infeasible",
            "candidates_tried": res.candidates_tried,
            **counts,
        }
        if not args.no_time:
            line["ms"] = round(statistics.median(cpu_ms(scn) for _ in range(REPEATS)), 1)
        print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
