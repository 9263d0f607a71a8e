"""Spans and counters around the entry points each pairband layer exposes
to the solver, installed from outside the package.

A span records its name, start, end, parent span and solve id; spans
are kept in memory and written out when the run ends.  A layer's self
time is its span's duration minus the time its child spans cover.
Installing a hook whose target is missing raises ``TraceError``, and so
does a traced run in which a hook the workload must exercise never
fired: a refactor breaks the trace instead of silently zeroing it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

# (module, attribute path, name, kind).  "span" hooks time the call;
# "count" hooks only count it; the "candidate" hook also counts the
# candidate's rejection reason.
HOOKS = (
    ("pairband.scenario", "generate_scenario", "scenario.generate", "span"),
    ("pairband.scenario", "synthesize_distortions", "distortion.synthesize", "span"),
    ("pairband.solver", "solve", "solver.solve", "span"),
    ("pairband.solver", "build_cost_matrix", "pairing.cost_matrix", "span"),
    ("pairband.solver", "k_best_matchings", "pairing.enumerate", "span"),
    ("pairband.solver", "mwpm", "pairing.cert_mwpm", "span"),
    ("pairband.pairing", "nx.max_weight_matching", "pairing.blossom", "span"),
    ("pairband.solver", "b_min_pair", "bandwidth.bmin", "span"),
    ("pairband.solver", "kkt_allocate", "bandwidth.kkt", "span"),
    ("pairband.solver", "evaluate_fixed_allocation", "bandwidth.equal_split", "span"),
    ("pairband.bandwidth", "f_value", "bandwidth.rate_evals", "count"),
    ("pairband.bandwidth", "g_value", "bandwidth.rate_evals", "count"),
    # The solver's own per-candidate check: the only place a candidate's
    # rejection reason (latency, bandwidth sum or energy) is visible.
    ("pairband.solver", "_check_with_bounds", "solver.candidate", "candidate"),
)

# name -> (unit, better), in report order.
PER_LAYER = {
    "scenario.generate_ms": ("ms", "lower"),
    "distortion.synthesize_ms": ("ms", "lower"),
    "pairing.cost_matrix_ms": ("ms", "lower"),
    "pairing.blossom_calls": ("count", "lower"),
    "pairing.blossom_ms": ("ms", "lower"),
    "pairing.enumerate_calls": ("count", "lower"),
    "pairing.enumerate_ms": ("ms", "lower"),
    "pairing.matchings_ranked": ("count", "lower"),
    "pairing.ranked_used_ratio": ("ratio", "higher"),
    "pairing.cert_mwpm_ms": ("ms", "lower"),
    "bandwidth.bmin_calls": ("count", "lower"),
    "bandwidth.bmin_ms": ("ms", "lower"),
    "bandwidth.kkt_calls": ("count", "lower"),
    "bandwidth.kkt_ms": ("ms", "lower"),
    "bandwidth.equal_split_ms": ("ms", "lower"),
    "bandwidth.rate_evals": ("count", "lower"),
    "solver.certificate_ms": ("ms", "lower"),
    "solver.candidates_checked": ("count", "lower"),
    "solver.rejected_energy": ("count", "lower"),
    "solver.rejected_bandwidth": ("count", "lower"),
    "solver.rejected_latency": ("count", "lower"),
    "solver.self_ms": ("ms", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

_REJECTION = {
    "energy": "solver.rejected_energy",
    "bandwidth_sum": "solver.rejected_bandwidth",
    "latency": "solver.rejected_latency",
}

NAME, START, END, PARENT, SOLVE = range(5)


class TraceError(RuntimeError):
    """A wrapped entry point is missing or was never exercised."""


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) of a dotted attribute path."""
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        getattr(owner, attr)
    except (ImportError, AttributeError) as exc:
        raise TraceError(f"entry point {module_name}.{path} is missing: {exc}") from exc
    return owner, attr


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.solve_id: int | None = None
        self.count_candidates = False
        self.proposed_solves: set[int] = set()
        self._tallies: dict[str, list[int]] = {}
        self._solve_first_span = 0

    def install(self) -> None:
        targets = [(_resolve(m, p), name, kind) for m, p, name, kind in HOOKS]
        for (owner, attr), name, kind in targets:
            original = getattr(owner, attr)
            wrap = {"span": self._span, "count": self._count, "candidate": self._candidate}[kind]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def begin_solve(self, solve_id: int, strategy: str) -> None:
        self.solve_id = solve_id
        self.count_candidates = strategy == "proposed"
        if self.count_candidates:
            self.proposed_solves.add(solve_id)
        self._solve_first_span = len(self.spans)

    def end_solve(self) -> None:
        """Close spans a cut-off left open and forget the call stack."""
        now = time.perf_counter_ns()
        for span in self.spans[self._solve_first_span:]:
            if span[END] is None:
                span[END] = now
        self._stack.clear()
        self.solve_id = None
        self.count_candidates = False

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), None, stack[-1] if stack else None, self.solve_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][END] = time.perf_counter_ns()
                if stack and stack[-1] == idx:
                    stack.pop()
            if name == "pairing.enumerate":
                counts["pairing.matchings_ranked"] += len(result)
            return result

        return wrapper

    def _count(self, name, fn):
        # A list cell, not the Counter: these wrap functions that run tens
        # of thousands of times per solve, and a Counter update would
        # double their cost.
        cell = self._tallies.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name: str) -> int:
        """Times a "count" or "candidate" hook, or a derived counter, fired."""
        return self.counts[name] + self._tallies.get(name, [0])[0]

    def _candidate(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            report = fn(*args, **kwargs)
            if self.count_candidates:
                counts["solver.candidates_checked"] += 1
                if report.infeasibility_reason is not None:
                    counts[_REJECTION[report.infeasibility_reason]] += 1
            return report

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, solve in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "solve": solve,
                }) + "\n")

    def check_exercised(self, required, workload: str) -> None:
        spans = Counter(s[NAME] for s in self.spans)
        missing = sorted(name for name in required if not spans[name] and not self.count(name))
        if missing:
            raise TraceError(f"{', '.join(missing)} never called on workload {workload}")

    def per_layer(self, n_instances: int, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics: set-up spans per generated instance, all
        others per traced solve."""
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child_ns[span[PARENT]] += span[END] - span[START]
        first_enum: dict[int, int] = {}
        solves = []
        for idx, span in enumerate(self.spans):
            name, start, end = span[NAME], span[START], span[END]
            self_ns[name] += end - start - child_ns[idx]
            calls[name] += 1
            if name == "pairing.enumerate":
                first_enum.setdefault(span[SOLVE], start)
            elif name == "solver.solve":
                solves.append(span)
            elif name == "pairing.cert_mwpm":
                # The certificate's MWPM counts whole, its blossom solve
                # included (that solve is also in pairing.blossom_ms).
                self_ns["cert_mwpm_inclusive"] += end - start
        n = max(len(solves), 1)
        proposed = [s for s in solves if s[SOLVE] in self.proposed_solves]
        cert_ns = sum(first_enum.get(s[SOLVE], s[END]) - s[START] for s in proposed)
        ranked = self.counts["pairing.matchings_ranked"]
        checked = self.counts["solver.candidates_checked"]

        def ms(name, per=n):
            return self_ns[name] / 1e6 / per

        return {
            "scenario.generate_ms": ms("scenario.generate", max(n_instances, 1)),
            "distortion.synthesize_ms": ms("distortion.synthesize", max(n_instances, 1)),
            "pairing.cost_matrix_ms": ms("pairing.cost_matrix"),
            "pairing.blossom_calls": calls["pairing.blossom"] / n,
            "pairing.blossom_ms": ms("pairing.blossom"),
            "pairing.enumerate_calls": calls["pairing.enumerate"] / n,
            "pairing.enumerate_ms": ms("pairing.enumerate"),
            "pairing.matchings_ranked": ranked / n,
            "pairing.ranked_used_ratio": checked / ranked if ranked else 0.0,
            "pairing.cert_mwpm_ms": ms("cert_mwpm_inclusive"),
            "bandwidth.bmin_calls": calls["bandwidth.bmin"] / n,
            "bandwidth.bmin_ms": ms("bandwidth.bmin"),
            "bandwidth.kkt_calls": calls["bandwidth.kkt"] / n,
            "bandwidth.kkt_ms": ms("bandwidth.kkt"),
            "bandwidth.equal_split_ms": ms("bandwidth.equal_split"),
            "bandwidth.rate_evals": self.count("bandwidth.rate_evals") / n,
            "solver.certificate_ms": cert_ns / 1e6 / max(len(proposed), 1),
            "solver.candidates_checked": checked / n,
            "solver.rejected_energy": self.counts["solver.rejected_energy"] / n,
            "solver.rejected_bandwidth": self.counts["solver.rejected_bandwidth"] / n,
            "solver.rejected_latency": self.counts["solver.rejected_latency"] / n,
            "solver.self_ms": ms("solver.solve"),
            "trace.overhead_ratio": overhead_ratio,
        }
