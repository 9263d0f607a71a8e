"""Smoke test of the benchmark itself; no timing is asserted.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

import pytest

import run
import speed
import tracing
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(run.SRC))


def _args(workload: str, trace: int, seconds: float = 0.3) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=0, seconds=seconds, trace=trace)


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_minimal_run_emits_every_metric(workload, trace):
    result = run.run(_args(workload, trace), setup_samples=1)
    assert result["correct"] and result["failed"] == 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert result["provenance"]["samples"]["solves"] == result["attempted"] >= 1


def test_gate_flags_a_corrupted_reference_answer():
    workload = wl.WORKLOADS["solve-n16"]
    reference = wl.load_reference(workload)
    first = wl.draw_instances(workload, 0, reference)[0]
    corrupted = copy.deepcopy(reference)
    corrupted[first.key]["pairs"][0].reverse()
    result = run.run(_args("solve-n16", 0), reference=corrupted, setup_samples=1)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["failures"][0]["key"] == first.key
    assert "matching" in result["failures"][0]["detail"]


def test_missing_entry_point_breaks_the_trace(monkeypatch):
    import pairband.solver

    monkeypatch.delattr(pairband.solver, "kkt_allocate")
    with pytest.raises(tracing.TraceError, match="kkt_allocate"):
        tracing.Tracer().install()


def test_unexercised_entry_point_breaks_the_trace():
    with pytest.raises(tracing.TraceError, match="pairing.blossom"):
        tracing.Tracer().check_exercised({"pairing.blossom"}, "solve-n16")


def test_cut_off_solve_is_undecided_and_timed_at_the_limit():
    import pairband.solver
    import pairband.scenario as scn

    scenario = scn.generate_scenario(scn.ScenarioTemplate(b_max=5.0e6, e_max=110.0), 0)
    with run.cutoff_handler():
        result, outcome, seconds, _ = run.timed_solve(pairband.solver, scenario, "proposed", 0.2)
    assert (result, outcome) == (None, "cutoff")
    assert 0.2 <= seconds < 0.5


def test_times_are_scaled_by_the_adjacent_probes_and_cut_offs_kept_at_the_limit():
    probes = [speed.REFERENCE_PROBE_S, 3 * speed.REFERENCE_PROBE_S, 2 * speed.REFERENCE_PROBE_S]
    calls = [
        run.Record("a", wall=0.9, cpu=0.2, outcome="decided", probe=0),
        run.Record("b", wall=0.9, cpu=0.25, outcome="decided", probe=1),
        run.Record("c", wall=0.5003, cpu=0.1, outcome="cutoff", probe=1),
    ]
    run.at_reference_speed(calls, probes)
    assert [c.seconds for c in calls] == pytest.approx([0.1, 0.1, 0.5003])


def test_speed_probe_adds_no_span_to_a_traced_run():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        speed.probe()
    finally:
        tracer.uninstall()
    assert tracer.spans == []
