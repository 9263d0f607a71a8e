"""Solve the CLI grid and print a digest of every answer.

The grid is 1,250 ``pairband solve --output`` runs: N = 4/6/8/12/16,
scenario seeds 0-9 (``gen-scenario`` defaults otherwise), five budget
settings (the defaults, ``--tmax 2.4``, ``--emax 195``, ``--bmax 2e6``
and ``--emax 110``) and every strategy.  Each runs in this process
through ``cli.main``, from inside a scratch directory so that the
document's ``scenario_path`` is the same in every checkout.

Prints one JSON line per solve: its arguments, exit code and the sha256
of the output document, stdout and stderr (``null`` for a document that
was not written), so two checkouts compare with one ``diff``:

    PYTHONPATH=src python scripts/cli_grid.py > grid.jsonl
    PYTHONPATH=src python scripts/cli_grid.py --n 4
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from pairband.cli import main as cli
from pairband.solver import STRATEGIES

SIZES = (4, 6, 8, 12, 16)
SETTINGS = ((), ("--tmax", "2.4"), ("--emax", "195"), ("--bmax", "2e6"), ("--emax", "110"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def solve(args: list[str]) -> dict:
    """Run ``pairband`` with ``args`` plus ``--output result.json`` in the
    working directory; the digest line of its answer."""
    doc = Path("result.json")
    doc.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli([*args, "--output", str(doc)])
    return {
        "args": args,
        "exit": code,
        "document": _sha(doc.read_bytes()) if doc.exists() else None,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--n", type=int, action="append", choices=SIZES, help="one size (repeatable; default: all five)"
    )
    sizes = parser.parse_args(argv).n or SIZES
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for n in sizes:
            for seed in range(10):
                scenario = f"n{n}-s{seed}.json"
                with contextlib.redirect_stdout(io.StringIO()):
                    cli(["gen-scenario", "--n", str(n), "--seed", str(seed), "--output", scenario])
                for setting in SETTINGS:
                    for strategy in STRATEGIES:
                        args = ["solve", scenario, "--strategy", strategy, *setting]
                        print(json.dumps(solve(args)), flush=True)


if __name__ == "__main__":
    main()
