"""The benchmark's answer gate and trace contract.

Every pool instance of every workload is solved and checked against its
recorded reference with the benchmark's own gate,
``workloads.check_answer``, so an answer the benchmark would reject
fails tier-1 first.

``perfbench/tracing.py`` wraps named entry points of the solver from
outside the package.  Renaming a hooked name, changing how the solver
reaches it, or turning ``k_best_matchings`` into a generator breaks the
traced benchmark run; the trace test makes that a tier-1 failure.  It solves
a handful of decided instances of each workload with the tracer
installed, checks each answer against its recorded reference, and
checks that every span or counter the workload requires fired.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

from pairband import latency_energy, scenario, solver  # noqa: E402


def _decided(workload, reference, count):
    """The first ``count`` pool instances with a recorded verdict."""
    chosen = [
        inst
        for inst in wl.pool_instances(workload)
        if reference[inst.key]["verdict"] != "undecided"
    ]
    return chosen[:count]


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_solves_match_reference_and_fire_every_hook(name):
    workload = wl.WORKLOADS[name]
    reference = wl.load_reference(workload)
    # The baselines workload solves each scenario four times; one scenario
    # is enough there.
    instances = _decided(workload, reference, 4 if len(workload.strategies) > 1 else 3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        scenarios = wl.generate(instances, scenario)
        tried = 0
        for i, inst in enumerate(instances):
            scn = scenarios[(inst.scenario_seed, inst.overrides)]
            tracer.begin_solve(i, inst.strategy)
            try:
                result = solver.solve(scn, inst.strategy)
            finally:
                tracer.end_solve()
            expected = reference[inst.key]
            assert result.candidates_tried == expected["candidates_tried"], inst.key
            assert wl.check_answer(scn, result, expected, latency_energy) == [], inst.key
            if inst.strategy == "proposed":
                tried += result.candidates_tried
        # The candidate hook sees every candidate the solver checks.
        assert tracer.counts["solver.candidates_checked"] == tried
        tracer.check_exercised(workload.required, name)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_every_pool_answer_matches_its_reference(name):
    workload = wl.WORKLOADS[name]
    reference = wl.load_reference(workload)
    instances = wl.pool_instances(workload)
    scenarios = wl.generate(instances, scenario)
    for inst in instances:
        scn = scenarios[(inst.scenario_seed, inst.overrides)]
        result = solver.solve(scn, inst.strategy)
        assert wl.check_answer(scn, result, reference[inst.key], latency_energy) == [], inst.key
