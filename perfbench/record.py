"""Record the reference answers of every pool instance.

    python3 perfbench/record.py [--workload NAME ...] [--limit SECONDS]

Run it at the commit whose answers are the reference, which is the
parent of the change to be measured; each file under ``reference/``
names the commit it was recorded at in ``recorded_at``.  A solve still
running at ``--limit`` is recorded as undecided.  Every feasible answer passes the independent re-check
before it is written.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads as wl


def record(workload: wl.Workload, limit: float, modules) -> dict:
    instances = wl.pool_instances(workload)
    scenarios = wl.generate(instances, modules["scenario"])
    answers = {}
    with run.cutoff_handler():
        for inst in instances:
            scenario = scenarios[(inst.scenario_seed, inst.overrides)]
            result, outcome, *_ = run.timed_solve(modules["solver"], scenario, inst.strategy, limit)
            if outcome == "cutoff":
                answers[inst.key] = {"verdict": "undecided", "pairs": None,
                                     "total_distortion": None, "candidates_tried": None}
                continue
            if outcome == "raised":
                raise RuntimeError(f"{workload.name} {inst.key} raised: {result!r}")
            problems = wl.check_answer(scenario, result, None, modules["latency_energy"])
            if problems:
                raise RuntimeError(f"{workload.name} {inst.key}: {'; '.join(problems)}")
            answers[inst.key] = wl.answer_of(result)
    return answers


def _dump(doc: dict) -> str:
    """JSON with one answer per line, so a re-recorded reference diffs by instance."""
    answers = doc.pop("answers")
    head = json.dumps(doc, sort_keys=True)[:-1]
    lines = [f"  {json.dumps(k)}: {json.dumps(a, sort_keys=True)}" for k, a in answers.items()]
    return head + ', "answers": {\n' + ",\n".join(lines) + "\n}}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--limit", type=float, default=5.0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    modules = run.import_pairband()
    prov = run.provenance(argparse.Namespace(workload=None, seed=None, seconds=None), {})
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(wl.WORKLOADS):
        workload = wl.WORKLOADS[name]
        doc = {
            "recorded_at": {k: prov[k] for k in ("git_sha", "git_dirty", "python", "numpy", "networkx")},
            "limit_s": args.limit,
            "answers": record(workload, args.limit, modules),
        }
        path = wl.REFERENCE_DIR / f"{name}.json"
        path.write_text(_dump(doc))
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
