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
    assert len(lines) == 10 * 5 * len(STRATEGIES)
    assert len({tuple(line["args"]) for line in lines}) == len(lines)
    assert {line["exit"] for line in lines} <= {0, 4}
    # Every solve writes its document and prints nothing to stderr.
    assert all(line["document"] is not None for line in lines)
    assert {line["stderr"] for line in lines} == {hashlib.sha256(b"").hexdigest()}
