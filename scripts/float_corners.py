"""Solve the float-range corner set through the CLI.

The set is 295 ``pairband solve`` runs on generated scenarios, with
budgets at the ends of the float range:

* N = 2/4/8/16, seeds 0-3, and B_max in {5e-324, 1e-300, 1e-200,
  1e-100, 1e-30, 1e200, 1e250, 1e300, 1e308}, under ``proposed`` with
  ``--tmax 1e308`` and under ``random_kkt``;
* seven corners that once exited 1, or printed a warning, from
  ``tests/test_cli.py``.

Prints one JSON line per solve: its key, exit code, verdict (the first
line the CLI prints), the share of B_max the split uses (sum of the
groups' bandwidths over B_max) and theta*, so two checkouts compare with
one ``diff``:

    PYTHONPATH=src python scripts/float_corners.py > corners.jsonl
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from pairband.cli import main as cli

B_MAX = ("5e-324", "1e-300", "1e-200", "1e-100", "1e-30", "1e200", "1e250", "1e300", "1e308")
STRATEGIES = (("proposed", ("--tmax", "1e308")), ("random_kkt", ()))
# (n, seed, strategy, B_max, other budgets)
CORNERS = (
    (8, 1, "proposed", "1e100", ()),
    (8, 1, "proposed", "1e308", ()),
    (8, 1, "proposed", "1e8", ("--tmax", "1e300")),
    (4, 19, "random_kkt", "5e-324", ("--tmax", "1e308")),
    (2, 18, "proposed", "1e-300", ("--tmax", "1e308", "--emax", "2.5")),
    (6, 13, "proposed", "1e-300", ("--tmax", "1e308")),
    (8, 1, "proposed", "1e3", ("--tmax", "1e300")),
)


def corner_set():
    """(n, seed, strategy, B_max, other budgets) for every solve."""
    for n in (2, 4, 8, 16):
        for seed in range(4):
            for strategy, extra in STRATEGIES:
                for b_max in B_MAX:
                    yield n, seed, strategy, b_max, extra
    yield from CORNERS


def solve(workdir: Path, n: int, seed: int, strategy: str, b_max: str, extra) -> dict:
    """One corner's answer line."""
    scn, doc = workdir / f"n{n}-s{seed}.json", workdir / "result.json"
    if not scn.exists():
        with contextlib.redirect_stdout(io.StringIO()):
            cli(["gen-scenario", "--n", str(n), "--seed", str(seed), "--output", str(scn)])
    doc.unlink(missing_ok=True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli(["solve", str(scn), "--strategy", strategy, "--bmax", b_max, *extra, "--output", str(doc)])
    alloc = json.loads(doc.read_text()).get("allocation") if doc.exists() else None
    groups = alloc["groups"] if alloc else []
    return {
        "key": f"n{n}-s{seed}-{strategy}-bmax{b_max}{''.join(extra)}",
        "exit": code,
        "verdict": out.getvalue().partition("\n")[0],
        "used_share": math.fsum(g["bandwidth_hz"] for g in groups) / float(b_max) if groups else None,
        "theta_star": alloc["theta_star"] if alloc else None,
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for corner in corner_set():
            print(json.dumps(solve(Path(tmp), *corner)), flush=True)


if __name__ == "__main__":
    main()
