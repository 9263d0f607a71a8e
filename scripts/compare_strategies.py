"""Solve one random scenario with every strategy and print the outcome.

A minimal end-to-end tour: draw a population, pair it five different
ways, optimize (or equal-split) the bandwidth for each pairing, and
show distortion, bandwidth use, and budget slack side by side.

Usage:
    python scripts/compare_strategies.py --seed 7 --bmax-mhz 10
"""

from __future__ import annotations

import argparse
import math

from pairband.latency_energy import e_const
from pairband.scenario import ScenarioTemplate, generate_scenario
from pairband.solver import STRATEGIES, solve


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=16, help="population size")
    parser.add_argument("--seed", type=int, default=0, help="scenario seed")
    parser.add_argument("--bmax-mhz", type=float, default=10.0, help="bandwidth budget")
    args = parser.parse_args()

    template = ScenarioTemplate(n_users=args.n, b_max=args.bmax_mhz * 1.0e6)
    scn = generate_scenario(template, args.seed)
    fixed = e_const(list(scn.users), scn.cfg)
    print(
        f"scenario seed={args.seed}: n={args.n}, B_max={args.bmax_mhz:g} MHz, "
        f"T_max={scn.cfg.t_max:g} s, E_max={scn.cfg.e_max:g} J "
        f"(compute floor {fixed:.1f} J)"
    )
    print()
    print(
        f"{'strategy':>24s} {'feasible':>8s} {'distortion':>11s} "
        f"{'B used (MHz)':>13s} {'energy (J)':>11s} {'tried':>6s}"
    )
    for strategy in STRATEGIES:
        res = solve(scn, strategy)
        if res.matching is None:
            print(f"{strategy:>24s} {'--':>8s} {'no pairing':>11s}")
            continue
        alloc = res.allocation
        distortion = (
            f"{res.total_distortion:.4f}"
            if math.isfinite(res.total_distortion)
            else "capped"
        )
        print(
            f"{strategy:>24s} {str(res.feasible):>8s} {distortion:>11s} "
            f"{alloc.bandwidth_used / 1e6:>13.3f} {alloc.energy_total:>11.2f} "
            f"{res.candidates_tried:>6d}"
        )
        if not res.feasible and alloc.infeasibility_reason:
            print(f"{'':>24s} violated budget: {alloc.infeasibility_reason}")

    print()
    print("pairs chosen by the proposed strategy:")
    best = solve(scn, "proposed")
    if best.matching is not None:
        for i, j in best.matching.pairs:
            d = scn.distortions.pair_sum[i, j]
            print(f"  ({i:2d}, {j:2d})  pair distortion {d:.4f}")


if __name__ == "__main__":
    main()
