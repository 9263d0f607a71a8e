"""Run the CLI grid and print a digest of every answer.

The grid covers all three commands, N = 4/6/8/12/16:

- 50 ``pairband gen-scenario`` runs, scenario seeds 0-9 (defaults
  otherwise);
- 1,250 ``pairband solve`` runs on those scenarios: five budget
  settings (the defaults, ``--tmax 2.4``, ``--emax 195``, ``--bmax
  2e6`` and ``--emax 110``) and every strategy;
- 20 ``pairband sweep`` runs on each size's seed-0 scenario: ``--bmax
  2e6,5e6,20e6 --seeds 10``, with the default budgets and with ``--tmax
  2.4 --emax 195 --dmax 0.97``, each at ``--jobs 1`` and ``--jobs 2``.

Each runs in this process through ``cli.main``, from inside a scratch
directory so that the paths the outputs record are the same in every
checkout.

Prints one JSON line per run: its arguments, exit code and the sha256
of the file it wrote (``null`` for a file that was not written), stdout
and stderr, so two checkouts compare with one ``diff``:

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
SWEEP = ("--bmax", "2e6,5e6,20e6", "--seeds", "10")
SWEEP_SETTINGS = ((), ("--tmax", "2.4", "--emax", "195", "--dmax", "0.97"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(args: list[str], output: str) -> dict:
    """Run ``pairband`` with ``args`` plus ``--output <output>`` in the
    working directory; the digest line of its answer."""
    written = Path(output)
    written.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli([*args, "--output", output])
    return {
        "args": args,
        "exit": code,
        "document": _sha(written.read_bytes()) if written.exists() else None,
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
                gen = ["gen-scenario", "--n", str(n), "--seed", str(seed)]
                print(json.dumps(run(gen, scenario)), flush=True)
                for setting in SETTINGS:
                    for strategy in STRATEGIES:
                        args = ["solve", scenario, "--strategy", strategy, *setting]
                        print(json.dumps(run(args, "result.json")), flush=True)
            for setting in SWEEP_SETTINGS:
                for jobs in ("1", "2"):
                    args = ["sweep", f"n{n}-s0.json", *SWEEP, "--jobs", jobs, *setting]
                    print(json.dumps(run(args, "metrics.csv")), flush=True)


if __name__ == "__main__":
    main()
