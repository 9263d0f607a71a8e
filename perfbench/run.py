"""pairband benchmark: timed solve() calls on seeded workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload solve-n16 --seed 0 --seconds 22 --trace 0

The workload seed picks the run's instances (see ``workloads.py``); the
program under test only sees the generated scenarios.  One client calls
``pairband.solver.solve()`` in a closed loop, in one process and one
thread, cycling through the instances until ``--seconds`` have passed.
Every solve runs under a wall-clock cut-off (an in-process interval
timer) and every answer is checked against the recorded reference and
re-checked independently.

Each solve is timed in process CPU time and scaled to a fixed reference
speed of the machine with a probe timed every quarter second (see
``speed.py``): a shared host's speed swings too much for raw wall-clock
times to compare across runs.  An instance's time is the median of its
solves in the run: ``solve_ms_p50`` is the median over instances and
``solve_ms_tail`` the highest whole percentile with at least ten
instances above it; ``solves_per_s`` is the number of instances decided
correctly per second of those times.  A cut-off solve counts at the
limit (its wall time as it ran), and ``fail_rate`` is the share of
instances cut off, answered wrongly or raising.  ``setup_s`` (importing
pairband and generating every instance, scaled the same way) is the
median of several set-ups, in this process and in fresh ones, and
``peak_rss_mb`` the high-water RSS.  The raw wall-clock median and the
probe's own times are printed beside the metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced, with spans around the entry points of
each layer (see ``tracing.py``), and reports the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``failed`` counts
wrong answers and solves that raised.  Cut-off solves are undecided, not
failed: they count in ``fail_rate``, printed on the lines above it.  The
full result, with provenance, is also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

# Set-up is measured this many times per run (this process plus fresh
# child processes) and reported as the median.
SETUP_SAMPLES = 5

END_TO_END = {
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SolveCutOff(Exception):
    """Raised by the interval timer when a solve reaches the cut-off."""


def _on_alarm(signum, frame):
    raise SolveCutOff


@contextlib.contextmanager
def cutoff_handler():
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Record:
    key: str
    wall: float
    cpu: float
    outcome: str  # "decided", "cutoff", "wrong" or "raised"
    detail: str = ""
    probe: int = 0  # index of the last speed probe taken before the solve
    seconds: float = math.nan  # the reported time, set by at_reference_speed()


def timed_solve(solver, scenario, strategy: str, limit: float):
    """(result or None, outcome, wall seconds, CPU seconds) of one solve
    under the cut-off."""
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            result = solver.solve(scenario, strategy)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except SolveCutOff:
        result, outcome = None, "cutoff"
    except Exception as exc:  # a solve that raises is a failure to report, not a crash
        result, outcome = exc, "raised"
    else:
        outcome = "decided"
    return result, outcome, time.perf_counter() - wall, time.process_time() - cpu


def at_reference_speed(calls: list[Record], probes: list[float]) -> None:
    """Set each call's reported time: CPU time scaled by the probes taken
    around it.  A cut-off solve counts at the limit, timed as it ran (the
    limit plus the latency of the timer signal)."""
    for call in calls:
        if call.outcome == "cutoff":
            call.seconds = call.wall
        else:
            call.seconds = call.cpu * speed.scale(probes, call.probe)


def measure(instances, scenarios, modules, reference, seconds, tracer=None):
    """Closed loop over the instances, in order and cycling, for ``seconds``;
    returns the solve calls and the speed probes taken between them.

    An instance whose solve did not end decided and correct is not visited
    again: a cut-off solve would only be cut off again.
    """
    solver, le = modules["solver"], modules["latency_energy"]
    calls = []
    settled: set[str] = set()
    probes = [speed.probe()]
    start = last_probe = time.perf_counter()
    with cutoff_handler():
        for inst in itertools.cycle(instances):
            now = time.perf_counter()
            if now - start >= seconds or len(settled) == len(instances):
                break
            if inst.key in settled:
                continue
            if now - last_probe >= speed.PROBE_EVERY_S:
                probes.append(speed.probe())
                last_probe = time.perf_counter()
            scenario = scenarios[(inst.scenario_seed, inst.overrides)]
            if tracer is not None:
                tracer.begin_solve(len(calls), inst.strategy)
            result, outcome, wall, cpu = timed_solve(solver, scenario, inst.strategy, wl.CUTOFF_S)
            if tracer is not None:
                tracer.end_solve()
            detail = ""
            if outcome == "raised":
                detail = f"{type(result).__name__}: {result}"
            elif outcome == "decided":
                problems = wl.check_answer(scenario, result, reference.get(inst.key), le)
                if problems:
                    outcome, detail = "wrong", "; ".join(problems)
            if outcome != "decided":
                settled.add(inst.key)
            calls.append(Record(inst.key, wall, cpu, outcome, detail, len(probes) - 1))
    probes.append(speed.probe())
    at_reference_speed(calls, probes)
    return calls, probes


def per_instance(calls: list[Record]) -> dict[str, Record]:
    """Each instance's median solve call in the run, or its failed one.

    The loop comes back to an instance only after a pass over the others,
    so its calls are seconds apart and their median shrugs off a solve the
    speed probes misjudged.
    """
    by_key: dict[str, list[Record]] = {}
    for call in calls:
        by_key.setdefault(call.key, []).append(call)
    chosen = {}
    for key, group in by_key.items():
        failed = [c for c in group if c.outcome != "decided"]
        if failed:
            chosen[key] = failed[0]
        else:
            group.sort(key=lambda c: c.seconds)
            chosen[key] = group[(len(group) - 1) // 2]
    return chosen


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it
    (nearest rank); the maximum when there are too few samples."""
    times = sorted(times)
    n = len(times)
    if n <= 10:
        return 100, times[-1]
    pct = (100 * (n - 10)) // n
    return pct, times[math.ceil(pct * n / 100) - 1]


def import_pairband() -> dict:
    """The pairband modules the benchmark calls, imported from ``src/``."""
    modules = {
        name: importlib.import_module(f"pairband.{name}")
        for name in ("scenario", "solver", "latency_energy")
    }
    loaded = Path(modules["solver"].__file__).resolve().parent
    if loaded != SRC / "pairband":
        raise SystemExit(f"pairband was imported from {loaded}, not from {SRC / 'pairband'}")
    return modules


def setup(instances):
    """Import pairband and generate every instance: the measured set-up,
    in CPU seconds scaled by speed probes taken right after it."""
    start = time.process_time()
    modules = import_pairband()
    scenarios = wl.generate(instances, modules["scenario"])
    cpu = time.process_time() - start
    return modules, scenarios, cpu * speed.REFERENCE_PROBE_S / speed.probe_median()


def fresh_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def warm_up(inst, scenarios, modules) -> None:
    """One untimed solve and a few probes, so first-call costs stay out
    of the timed loop."""
    with cutoff_handler():
        timed_solve(modules["solver"], scenarios[(inst.scenario_seed, inst.overrides)],
                    inst.strategy, wl.CUTOFF_S)
    speed.probe_median()


def provenance(args, samples: dict) -> dict:
    import networkx
    import numpy

    sha, dirty = "unknown (not a git checkout)", None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = ["git", "-C", str(ROOT)]
        try:
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, env=env, timeout=30, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, env=env, timeout=30,
                                    check=True).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "cutoff_s": wl.CUTOFF_S,
        "reference_probe_s": speed.REFERENCE_PROBE_S,
        "samples": samples,
    }


def summarize(calls: list[Record], probes: list[float]) -> dict:
    """Outcome counts over solve calls; timings and fail_rate over instances."""
    counts = {k: sum(r.outcome == k for r in calls) for k in ("decided", "cutoff", "wrong", "raised")}
    chosen = per_instance(calls).values()
    decided = sum(b.outcome == "decided" for b in chosen)
    times_ms = [b.seconds * 1e3 for b in chosen]
    pct, tail = tail_percentile(times_ms)
    probe_ms = statistics.quantiles([p * 1e3 for p in probes], n=4)
    return {
        "solves": len(calls),
        **counts,
        "instances": len(chosen),
        "fail_rate": (len(chosen) - decided) / len(chosen),
        "solve_ms_p50": statistics.median(times_ms),
        "solve_ms_tail": tail,
        "tail_percentile": pct,
        "solves_per_s": decided / math.fsum(b.seconds for b in chosen),
        "wall_ms_p50": statistics.median(b.wall * 1e3 for b in chosen),
        "probes": len(probes),
        "probe_ms_quartiles": probe_ms,
    }


def run(args, reference=None, setup_samples: int = SETUP_SAMPLES) -> dict:
    """One benchmark run; returns the full result, provenance included."""
    workload = wl.WORKLOADS[args.workload]
    if reference is None:
        reference = wl.load_reference(workload)
    instances = wl.draw_instances(workload, args.seed, reference)
    n_scenarios = len({(i.scenario_seed, i.overrides) for i in instances})
    samples = {"instances": len(instances), "scenarios": n_scenarios}

    if not args.trace:
        modules, scenarios, own_setup = setup(instances)
        # Half the fresh set-ups run before the timed loop and half after,
        # so the median spans the run rather than one moment of it.
        fresh = setup_samples - 1
        setups = [own_setup] + [fresh_setup(args.workload, args.seed) for _ in range(fresh // 2)]
        warm_up(instances[0], scenarios, modules)
        calls, probes = measure(instances, scenarios, modules, reference, args.seconds)
        summary = summarize(calls, probes)
        setups += [fresh_setup(args.workload, args.seed) for _ in range(fresh - fresh // 2)]
        metrics = {
            "solve_ms_p50": summary["solve_ms_p50"],
            "solve_ms_tail": summary["solve_ms_tail"],
            "solves_per_s": summary["solves_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        samples.update(solves=len(calls), timed_instances=summary["instances"], setup_samples=len(setups))
    else:
        tracer = tracing.Tracer()
        modules = import_pairband()
        tracer.install()
        try:
            scenarios = wl.generate(instances, modules["scenario"])
        finally:
            tracer.uninstall()
        warm_up(instances[0], scenarios, modules)
        untraced, untraced_probes = measure(instances, scenarios, modules, reference, args.seconds / 2)
        tracer.install()
        try:
            traced, traced_probes = measure(
                instances, scenarios, modules, reference, args.seconds / 2, tracer
            )
        finally:
            tracer.uninstall()
        tracer.check_exercised(workload.required, workload.name)
        # Both phases visit the instances in the same order: compare the
        # times of the instances both reached.
        fast, slow = per_instance(untraced), per_instance(traced)
        common = fast.keys() & slow.keys()
        overhead = math.fsum(slow[k].seconds for k in common) / math.fsum(
            fast[k].seconds for k in common
        )
        metrics = tracer.per_layer(n_scenarios, overhead)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        calls = untraced + traced
        summary = summarize(calls, untraced_probes + traced_probes)
        samples.update(solves=len(calls), untraced_solves=len(untraced), traced_solves=len(traced))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    failures = [r for r in calls if r.outcome in ("wrong", "raised")]
    return {
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "summary": summary,
        "failures": [vars(r) for r in failures],
        "provenance": provenance(args, samples),
    }


def report(args, result: dict) -> None:
    s = result["summary"]
    print(f"pairband benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(
        f"  {s['solves']} solves of {s['instances']} instances: {s['decided']} decided, "
        f"{s['cutoff']} cut off at {wl.CUTOFF_S:g} s, {s['wrong']} wrong, {s['raised']} raised"
    )
    print(f"  fail_rate {s['fail_rate']:.6g} ratio  (instances not decided correctly)")
    quartiles = ", ".join(f"{q:.4g}" for q in s["probe_ms_quartiles"])
    print(
        f"  wall-clock solve p50 {s['wall_ms_p50']:.6g} ms; speed probe quartiles {quartiles} ms "
        f"over {s['probes']} probes (reference {speed.REFERENCE_PROBE_S * 1e3:g} ms)"
    )
    for failure in result["failures"]:
        print(f"  FAILED {failure['key']}: {failure['outcome']}: {failure['detail']}")
    for name, m in result["metrics"].items():
        extra = ""
        if name == "solve_ms_tail":
            extra = f"  (p{s['tail_percentile']} of {s['instances']} instances)"
        print(f"  {name} {m['value']:.6g} {m['unit']}{extra}")
    print("  provenance " + json.dumps(result["provenance"], sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pairband" / "__init__.py").is_file():
        print(f"error: no pairband sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        workload = wl.WORKLOADS[args.workload]
        instances = wl.draw_instances(workload, args.seed, wl.load_reference(workload))
        print(setup(instances)[2])
        return 0
    try:
        result = run(args)
    except tracing.TraceError as exc:
        print(f"error: trace broken: {exc}", file=sys.stderr)
        return 3
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
