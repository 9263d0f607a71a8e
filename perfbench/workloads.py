"""Workloads of the pairband benchmark and the gate that checks answers.

Every workload draws its instances from a pool of scenario seeds whose
answers were recorded once (see ``record.py``) and are kept under
``reference/``.  A workload seed picks a subset of the pool, so every
run, whatever its seed, is checked answer by answer against a recorded
reference, and every feasible allocation is re-checked independently
with the public functions of ``pairband.latency_energy``.

This module imports only the standard library at import time: importing
``pairband`` is part of the measured set-up.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Wall-clock limit of one solve() call on every workload.  A solve that
# reaches it is cut off, counted as undecided and timed at the limit.
CUTOFF_S = 0.5

# Relative tolerance for comparing total_distortion with the reference
# and for the budget checks of the independent re-check.
REL_TOL = 1e-9

BASELINES = ("random_equal", "greedy_equal", "channel_balanced_equal", "random_kkt")
B_MAX_MHZ = (5, 10, 20, 40)


@dataclass(frozen=True)
class Setting:
    """Template overrides a drawn scenario is generated with."""

    label: str
    overrides: tuple[tuple[str, float], ...]


_DEFAULT = Setting("", ())


@dataclass(frozen=True)
class Workload:
    name: str
    template: tuple[tuple[str, float], ...]
    strategies: tuple[str, ...]  # every drawn scenario is solved with each
    pool_seeds: int  # scenario seeds 0..pool_seeds-1 have recorded answers
    draw: int  # scenario seeds drawn per run
    # Dealt out in turn to the drawn scenarios, so each run has an equal
    # share of each; the pool has answers for every seed under every one.
    settings: tuple[Setting, ...] = (_DEFAULT,)
    # When set, every draw holds this share of instances recorded as
    # undecided, spread evenly through the run order, so a run's mix (and
    # with it the median solve time) does not swing with the workload seed.
    undecided_share: float | None = None
    # Per-layer spans or counters a traced run must see at least once.
    required: frozenset[str] = field(default_factory=frozenset)


_B_MAX = tuple(Setting(f"b{mhz}", (("b_max", mhz * 1.0e6),)) for mhz in B_MAX_MHZ)


_CERTIFICATE = {"pairing.cost_matrix", "pairing.cert_mwpm", "pairing.blossom", "bandwidth.bmin"}
_ENUMERATION = _CERTIFICATE | {
    "pairing.enumerate",
    "bandwidth.kkt",
    "bandwidth.rate_evals",
    "solver.candidate",
}
_SETUP = {"scenario.generate", "distortion.synthesize"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # Every instance is feasible at candidate 1, and most of the
            # time builds a 16-matching Lawler window of which one matching
            # is used: where enumeration changes show.
            name="solve-n16",
            template=(),
            strategies=("proposed",),
            pool_seeds=48,
            draw=40,
            settings=_B_MAX,
            required=frozenset(_SETUP | _ENUMERATION),
        ),
        Workload(
            # The solve-n16 instances under the four baselines: no
            # enumeration and no certificate, so enumeration changes must
            # not move it; the time is kkt_allocate and equal-split scoring.
            name="baselines-n16",
            template=(),
            strategies=BASELINES,
            pool_seeds=48,
            draw=40,
            settings=_B_MAX,
            required=frozenset(
                _SETUP
                | {
                    "pairing.cost_matrix",
                    "bandwidth.bmin",
                    "bandwidth.kkt",
                    "bandwidth.equal_split",
                    "bandwidth.rate_evals",
                }
            ),
        ),
        Workload(
            # Every solve ends at the b_min certificate: pair roots plus one
            # dense MWPM on a larger working set, no enumeration, no KKT.
            name="certify-n32",
            template=(("n_users", 32), ("t_max", 2.4)),
            strategies=("proposed",),
            pool_seeds=96,
            draw=60,
            required=frozenset(_SETUP | _CERTIFICATE | {"bandwidth.rate_evals"}),
        ),
        Workload(
            # About 16 J above the compute floor: some instances are feasible
            # at candidate 1, the others walk the ranked list until the
            # cut-off (no energy certificate yet).  The only workload with
            # deep enumeration, window doubling and per-candidate allocation.
            name="energy-tight",
            template=(("b_max", 5.0e6), ("e_max", 110.0)),
            strategies=("proposed",),
            pool_seeds=120,
            draw=64,
            undecided_share=0.25,
            required=frozenset(_SETUP | _ENUMERATION),
        ),
    )
}


@dataclass(frozen=True)
class Instance:
    key: str
    scenario_seed: int
    overrides: tuple[tuple[str, float], ...]  # template settings, workload's first
    strategy: str


def instance_key(scenario_seed: int, setting: Setting, strategy: str) -> str:
    return "-".join(part for part in (f"s{scenario_seed}", setting.label, strategy) if part)


def instances_of(workload: Workload, seeds) -> list[Instance]:
    """The instances of the given scenario seeds, in order: each seed under
    the next setting in turn, solved with every strategy."""
    settings = workload.settings
    return [
        Instance(
            instance_key(seed, settings[i % len(settings)], strategy),
            seed,
            workload.template + settings[i % len(settings)].overrides,
            strategy,
        )
        for i, seed in enumerate(seeds)
        for strategy in workload.strategies
    ]


def pool_instances(workload: Workload) -> list[Instance]:
    """Every instance with a recorded answer: each pool seed under every
    setting, solved with every strategy."""
    return instances_of(workload, [s for s in range(workload.pool_seeds) for _ in workload.settings])


def load_reference(workload: Workload) -> dict:
    """Recorded answers of every pool instance, keyed by instance key."""
    path = REFERENCE_DIR / f"{workload.name}.json"
    return json.loads(path.read_text())["answers"]


def _spread(groups: list[list]) -> list:
    """Interleave groups so each is spread evenly over the whole order."""
    placed = [
        ((i + 0.5) / len(group), g, item)
        for g, group in enumerate(groups)
        for i, item in enumerate(group)
    ]
    return [item for _, _, item in sorted(placed, key=lambda t: t[:2])]


def draw_instances(workload: Workload, seed: int, reference: dict) -> list[Instance]:
    """The run's instances, in run order, as a function of the workload seed."""
    rng = random.Random(seed)
    pool = range(workload.pool_seeds)
    if workload.undecided_share is not None:
        # Only for workloads with one setting and one strategy.
        (setting,), (strategy,) = workload.settings, workload.strategies
        undecided = [
            s for s in pool
            if reference[instance_key(s, setting, strategy)]["verdict"] == "undecided"
        ]
        decided = sorted(set(pool) - set(undecided))
        n_undecided = round(workload.draw * workload.undecided_share)
        seeds = _spread([
            rng.sample(decided, workload.draw - n_undecided),
            rng.sample(undecided, n_undecided),
        ])
    else:
        seeds = rng.sample(list(pool), workload.draw)
    return instances_of(workload, seeds)


def generate(instances: list[Instance], scenario_module) -> dict[tuple, object]:
    """Generate each distinct scenario once; instances that differ only in
    strategy share it."""
    scenarios = {}
    for inst in instances:
        spec = (inst.scenario_seed, inst.overrides)
        if spec not in scenarios:
            template = scenario_module.ScenarioTemplate(**dict(inst.overrides))
            scenarios[spec] = scenario_module.generate_scenario(template, inst.scenario_seed)
    return scenarios


def answer_of(result) -> dict:
    """The recorded form of a SolveResult."""
    return {
        "verdict": "feasible" if result.feasible else "infeasible",
        "pairs": None if result.matching is None else [list(p) for p in result.matching.pairs],
        "total_distortion": (
            result.total_distortion if math.isfinite(result.total_distortion) else None
        ),
        "candidates_tried": result.candidates_tried,
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _above(value: float, limit: float) -> bool:
    return value > limit * (1.0 + REL_TOL)


def recheck_allocation(scenario, result, le) -> list[str]:
    """Independent check of a feasible answer with latency_energy's public
    functions: a perfect matching within the quality cap whose distortion
    adds up, sum(b) <= B_max, b_k >= L_k, group_time <= T_max, and compute
    floor plus transmit energy <= E_max."""
    cfg, users = scenario.cfg, scenario.users
    pairs = result.matching.pairs
    bandwidths = result.allocation.bandwidths
    lower = result.allocation.lower_bounds
    problems = []
    if sorted(i for p in pairs for i in p) != list(range(cfg.n_users)):
        problems.append("matching is not a perfect matching of all users")
        return problems
    per_user = scenario.distortions.per_user
    if any(per_user[i, j] > cfg.d_max or per_user[j, i] > cfg.d_max for i, j in pairs):
        problems.append("a pair exceeds the distortion cap")
    distortion = math.fsum(scenario.distortions.pair_sum[i, j] for i, j in pairs)
    if not _close(distortion, result.total_distortion):
        problems.append(f"total_distortion {result.total_distortion!r} != {distortion!r}")
    if len(bandwidths) != len(pairs) or len(lower) != len(pairs):
        problems.append("allocation does not have one bandwidth per pair")
        return problems
    if _above(math.fsum(bandwidths), cfg.b_max):
        problems.append(f"sum of bandwidths {math.fsum(bandwidths)!r} > B_max")
    energy = le.e_const(list(users), cfg)
    for k, ((i, j), b, lb) in enumerate(zip(pairs, bandwidths, lower)):
        pair, power = (users[i], users[j]), cfg.group_powers[k]
        if b < lb * (1.0 - REL_TOL):
            problems.append(f"pair {k}: b {b!r} below its lower bound {lb!r}")
        if _above(le.group_time(pair, b, power, cfg), cfg.t_max):
            problems.append(f"pair {k}: group_time above T_max")
        energy += le.transmit_energy(pair, b, power, cfg)
    if _above(energy, cfg.e_max):
        problems.append(f"energy {energy!r} J > E_max")
    return problems


def check_answer(scenario, result, expected: dict | None, le) -> list[str]:
    """Problems with one decided answer; empty when it is correct.

    ``expected`` is the recorded answer.  An instance recorded as
    undecided has no reference verdict, so only the independent re-check
    applies to it.
    """
    problems = recheck_allocation(scenario, result, le) if result.feasible else []
    if expected is None or expected["verdict"] == "undecided":
        return problems
    got = answer_of(result)
    if got["verdict"] != expected["verdict"]:
        problems.append(f"verdict {got['verdict']} != reference {expected['verdict']}")
    if got["pairs"] != expected["pairs"]:
        problems.append(f"matching {got['pairs']} != reference {expected['pairs']}")
    a, b = got["total_distortion"], expected["total_distortion"]
    if (a is None) != (b is None) or (a is not None and not _close(a, b)):
        problems.append(f"total_distortion {a!r} != reference {b!r}")
    if got["candidates_tried"] != expected["candidates_tried"]:
        problems.append(
            f"candidates_tried {got['candidates_tried']} != reference {expected['candidates_tried']}"
        )
    return problems
