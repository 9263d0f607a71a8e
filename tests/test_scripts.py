"""The scripts under ``scripts/`` run end to end.

They import private solver names (``_cost_matrix``, ``_pair_bounds``),
so a refactor of the solver can break them without any other test
noticing.  Each runs in its own interpreter on a small input.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from pairband.solver import STRATEGIES

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> list[str]:
    """stdout lines of ``scripts/<name>`` run with ``args``; it must exit 0."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_compare_strategies_prints_every_strategy():
    lines = run_script("compare_strategies.py", "--n", "8")
    # Scenario line, blank, header, one row per strategy, blank, the
    # proposed pairs' heading and one line per pair.
    assert len(lines) == 3 + len(STRATEGIES) + 2 + 4
    rows = [line.split()[0] for line in lines[3 : 3 + len(STRATEGIES)]]
    assert rows == list(STRATEGIES)


def test_mwpm_scale_prints_one_answer_line_per_size():
    lines = [json.loads(line) for line in run_script("mwpm_scale.py", "--no-time")]
    assert [line["n"] for line in lines] == [16, 32, 64, 128]
    # Ranking candidate 1 takes one MWPM: its own solve proves that
    # nothing ties it at every size.
    assert all(line["cost"]["rank1_mwpms"] == 1 for line in lines)


def test_pool_answers_prints_one_line_per_pool_instance():
    lines = [json.loads(line) for line in run_script("pool_answers.py", "--workload", "certify-n32")]
    assert len(lines) == 96
    assert {line["workload"] for line in lines} == {"certify-n32"}
    assert len({line["key"] for line in lines}) == 96


def test_float_corners_fill_every_band_they_split():
    lines = [json.loads(line) for line in run_script("float_corners.py")]
    assert len(lines) == 295
    assert {line["exit"] for line in lines} <= {0, 4}
    split = [line for line in lines if line["verdict"].endswith("[feasible]")]
    assert split
    assert all(1.0 - 1e-9 <= line["used_share"] <= 1.0 + 1e-9 for line in split)


def test_cli_grid_digests_every_solve_of_one_size():
    lines = [json.loads(line) for line in run_script("cli_grid.py", "--n", "4")]
    commands = Counter(line["args"][0] for line in lines)
    assert commands == {"gen-scenario": 10, "solve": 10 * 5 * len(STRATEGIES), "sweep": 4}
    assert len({tuple(line["args"]) for line in lines}) == len(lines)
    assert {line["exit"] for line in lines} <= {0, 4}
    # Every run writes its file and prints nothing to stderr.
    assert all(line["document"] is not None for line in lines)
    assert {line["stderr"] for line in lines} == {hashlib.sha256(b"").hexdigest()}
    # A sweep's CSV does not depend on its worker count.
    sweeps = [line["document"] for line in lines if line["args"][0] == "sweep"]
    assert sweeps[0] == sweeps[1] != sweeps[2] == sweeps[3]


def test_energy_bound_decides_the_n64_rows_without_an_mwpm():
    lines = [json.loads(line) for line in run_script("energy_bound.py", "--no-time")]
    assert len(lines) == 12
    proved = [line for line in lines if line["verdict"] == "infeasible"]
    assert [line["key"] for line in proved] == [f"n64-s{s}-bmax40e6" for s in range(6)]
    assert all(line["candidates_tried"] == 1 for line in lines)
    # Each proof takes one probe, which the half-edge bound decides; the
    # feasible rows never run the bound.
    keys = ("energy_probes", "bound_mwpms", "bound_blossoms")
    assert {tuple(line[k] for k in keys) for line in proved} == {(1, 0, 0)}
    assert {line["energy_probes"] for line in lines if line not in proved} == {0}
