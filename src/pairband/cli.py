"""Command-line front end: scenario generation, solving, sweeps.

Commands
    gen-scenario   draw a fresh instance and write it as a scenario file
    solve          run one strategy on a scenario file
    sweep          average strategies over seeds for a list of B_max values

All structured outputs are deterministic: JSON with sorted keys, CSV
with a fixed column order and repr-formatted floats, no timestamps.
Exit codes: 0 success, 1 numerical failure (a root or multiplier
bracket that could not be closed), 2 usage error, 3 invalid input
(also a file that cannot be read or written, and a scenario or table
document that is not a JSON object), 4 globally infeasible instance.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .latency_energy import group_time, transmit_energy
from .scenario import Scenario, ScenarioTemplate, generate_scenario, load_distortion, load_scenario, save_scenario
from .solver import STRATEGIES, SolveResult, solve, sweep_bandwidth

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2
EXIT_INVALID_INPUT = 3
EXIT_INFEASIBLE = 4

METRIC_COLUMNS = (
    "b_max_hz",
    "strategy",
    "n_seeds",
    "n_feasible",
    "feasibility_rate",
    "mean_total_distortion",
    "mean_bandwidth_used",
    "mean_candidates_tried",
)

# The budget flags: config field -> what the flag's help calls it.
BUDGETS = {"b_max": "B_max [Hz]", "t_max": "T_max [s]", "e_max": "E_max [J]", "d_max": "D_max"}


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairband",
        description="Joint user pairing and bandwidth allocation solver.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-scenario", help="generate a scenario file")
    gen.add_argument("--n", type=int, default=16, help="number of users (even)")
    gen.add_argument("--area-m", type=float, default=500.0, help="square side length [m]")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True, help="scenario file to write")
    gen.add_argument("--distortion-file", help="use this distortion table (a scenario's JSON distortion object) instead of the synthetic model")
    _add_budget_flags(gen)

    slv = sub.add_parser("solve", help="solve one scenario")
    slv.add_argument("scenario", help="scenario file")
    slv.add_argument("--strategy", choices=STRATEGIES, default="proposed")
    slv.add_argument("--seed", type=int, help="matching seed for random strategies (default: scenario seed)")
    slv.add_argument("--output", help="write the structured result here")
    _add_budget_flags(slv)

    swp = sub.add_parser("sweep", help="sweep B_max for several strategies")
    swp.add_argument("scenario", help="scenario file providing the generator template")
    swp.add_argument("--bmax", type=_float_list, required=True, help="comma-separated B_max values [Hz], strictly ascending")
    swp.add_argument("--strategy", action="append", choices=STRATEGIES, help="strategy to include (repeatable; default all)")
    swp.add_argument("--seeds", default="50", help="seed count N (meaning 0..N-1) or comma-separated seed list")
    swp.add_argument("--jobs", type=int, default=1, help="parallel workers (output independent of this)")
    swp.add_argument("--output", required=True, help="metrics CSV to write")
    _add_budget_flags(swp, skip="b_max")
    return parser


def _add_budget_flags(p: argparse.ArgumentParser, skip: str | None = None) -> None:
    """``--bmax`` ... ``--dmax``, each stored under its config field, so
    that SystemConfig and ScenarioTemplate check the values."""
    for field, name in BUDGETS.items():
        if field != skip:
            flag = "--" + field.replace("_", "")
            metavar = flag[2:].upper()
            p.add_argument(flag, dest=field, type=float, metavar=metavar, help=f"override {name}")


def _overrides(args) -> dict:
    return {f: v for f in BUDGETS if (v := getattr(args, f, None)) is not None}


def cmd_gen_scenario(args) -> int:
    template = ScenarioTemplate(n_users=args.n, area_m=args.area_m, **_overrides(args))
    scn = generate_scenario(template, args.seed)
    if args.distortion_file:
        scn = replace(scn, distortions=load_distortion(args.distortion_file))
    save_scenario(scn, args.output, __version__)
    print(f"wrote scenario: n={args.n} seed={args.seed} -> {args.output}")
    return EXIT_OK


def _result_document(
    scn: Scenario, res: SolveResult, scenario_path: str, seed: int, overrides: dict
) -> dict:
    """The ``solve --output`` document: what was asked of the tool, for
    provenance, and what it answered."""
    doc = {
        "tool_version": __version__,
        "command": "solve",
        "scenario_path": scenario_path,
        "seed": seed,
        "overrides": overrides,
        "strategy": res.strategy,
        "feasible": res.feasible,
        "candidates_tried": res.candidates_tried,
        "total_distortion": res.total_distortion,
        "config": asdict(scn.cfg),
        "matching": None,
        "allocation": None,
    }
    if res.matching is not None:
        doc["matching"] = {
            "pairs": [list(p) for p in res.matching.pairs],
            "total_cost": res.matching.total_cost,
        }
    alloc = res.allocation
    if alloc is not None:
        groups = []
        if alloc.bandwidths and res.matching is not None:
            power = scn.cfg.power
            for k, ((i, j), b) in enumerate(zip(res.matching.pairs, alloc.bandwidths)):
                pair = (scn.users[i], scn.users[j])
                groups.append(
                    {
                        "pair": [i, j],
                        "bandwidth_hz": b,
                        "lower_bound_hz": alloc.lower_bounds[k],
                        "group_time_s": group_time(pair, b, power, scn.cfg),
                        "transmit_energy_j": transmit_energy(pair, b, power, scn.cfg),
                    }
                )
        doc["allocation"] = {
            "feasible": alloc.feasible,
            "infeasibility_reason": alloc.infeasibility_reason,
            "theta_star": alloc.theta_star,
            "objective_j": alloc.objective,
            "bandwidth_used_hz": alloc.bandwidth_used,
            "energy_total_j": alloc.energy_total,
            "groups": groups,
        }
    return doc


def _print_solve_summary(res: SolveResult) -> None:
    if res.matching is None:
        what = (
            "no feasible pairing exists"
            if res.strategy == "proposed"
            else "the pairing rule found no pairing within the quality cap"
        )
        print(f"strategy={res.strategy}: {what} (candidates tried: {res.candidates_tried})")
        return
    status = "feasible" if res.feasible else (
        f"infeasible ({res.allocation.infeasibility_reason})"
        if res.allocation is not None and res.allocation.infeasibility_reason
        else "infeasible (distortion cap)"
    )
    print(f"strategy={res.strategy} [{status}]")
    print(f"  pairs: {' '.join(f'({i},{j})' for i, j in res.matching.pairs)}")
    print(f"  total distortion: {res.total_distortion:.6f}")
    if res.allocation is not None and res.allocation.bandwidths:
        bw = " ".join(f"{b/1e6:.4f}" for b in res.allocation.bandwidths)
        print(f"  bandwidth [MHz]: {bw}")
        print(f"  theta*: {res.allocation.theta_star!r}")
        print(f"  transmit energy [J]: {res.allocation.objective:.6f}")
    print(f"  candidates tried: {res.candidates_tried}")


def cmd_solve(args) -> int:
    path = Path(args.scenario)
    scn = load_scenario(path)
    overrides = _overrides(args)
    scn = replace(
        scn,
        cfg=replace(scn.cfg, **overrides),
        template=replace(scn.template, **overrides),
    )
    seed = args.seed if args.seed is not None else scn.seed
    res = solve(scn, args.strategy, matching_seed=seed)
    if args.output:
        doc = _result_document(scn, res, str(path), seed, overrides)
        Path(args.output).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    _print_solve_summary(res)
    if res.strategy == "proposed" and res.matching is None:
        return EXIT_INFEASIBLE
    return EXIT_OK


def _parse_seeds(text: str) -> list[int]:
    try:
        if "," in text:
            return [int(tok) for tok in text.split(",") if tok.strip()]
        count = int(text)
        if count < 1:
            raise ValueError
        return list(range(count))
    except ValueError as exc:
        raise ValueError(
            f"--seeds must be a positive count or comma-separated integers: {text!r}"
        ) from exc


def _format_csv_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_metrics_csv(rows: list[dict], path, preamble: dict) -> None:
    lines = [f"# {key}={value}" for key, value in preamble.items()]
    lines.append(",".join(METRIC_COLUMNS))
    for row in rows:
        lines.append(",".join(_format_csv_value(row[col]) for col in METRIC_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_sweep(args) -> int:
    path = Path(args.scenario)
    scn = load_scenario(path)
    overrides = _overrides(args)
    template = replace(scn.template, **overrides)
    strategies = args.strategy or list(STRATEGIES)
    seeds = _parse_seeds(args.seeds)

    rows = sweep_bandwidth(
        template,
        args.bmax,
        strategies=strategies,
        seeds=seeds,
        jobs=args.jobs,
    )
    preamble = {
        "tool_version": __version__,
        "scenario": path.name,
        "n_users": template.n_users,
        "seeds": ",".join(str(s) for s in seeds),
        "strategies": ",".join(strategies),
        "overrides": json.dumps(overrides, sort_keys=True),
    }
    write_metrics_csv(rows, args.output, preamble)
    print(f"wrote {len(rows)} rows -> {args.output}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen-scenario": cmd_gen_scenario,
        "solve": cmd_solve,
        "sweep": cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except ValueError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except RuntimeError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
