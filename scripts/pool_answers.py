"""Print the answers of every perfbench pool instance.

The pools are the scenario seeds whose answers ``perfbench/reference/``
records (1,176 instances over the four workloads).  Each instance is
solved once with ``solver.solve``, with no cut-off, and prints one JSON
line: its workload, key, verdict, pairs and ``candidates_tried``, and
the ``repr`` of ``total_distortion``, theta* and the bandwidths, so
two checkouts compare bit for bit with one ``diff``:

    PYTHONPATH=src python scripts/pool_answers.py > pools.jsonl
    PYTHONPATH=src python scripts/pool_answers.py --workload certify-n32

``perfbench/workloads.py`` is imported read-only, for its pools.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads as wl  # noqa: E402

from pairband import scenario, solver  # noqa: E402


def answers(workload):
    """One answer dict per pool instance of ``workload``, in pool order."""
    instances = wl.pool_instances(workload)
    scenarios = wl.generate(instances, scenario)
    for inst in instances:
        res = solver.solve(scenarios[(inst.scenario_seed, inst.overrides)], inst.strategy)
        alloc = res.allocation
        yield {
            "workload": workload.name,
            "key": inst.key,
            "verdict": "feasible" if res.feasible else "infeasible",
            "pairs": None if res.matching is None else res.matching.pairs,
            "candidates_tried": res.candidates_tried,
            "total_distortion": repr(res.total_distortion),
            "theta_star": None if alloc is None else repr(alloc.theta_star),
            "bandwidths": None if alloc is None else [repr(b) for b in alloc.bandwidths],
        }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=list(wl.WORKLOADS), help="one workload's pool (default: all four)"
    )
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    for name in names:
        for line in answers(wl.WORKLOADS[name]):
            print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
