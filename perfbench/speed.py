"""Speed probe: solve times at a fixed reference speed of the machine.

A core of a shared host does not give a process the same speed all the
time: other tenants, work on the sibling hyperthread, cache pressure and
frequency changes slow everything that runs on it, by half or more, for
seconds to minutes at a time.  Wall-clock times then measure the host as
much as the program.  The benchmark therefore times each solve in
process CPU time (which leaves out time the process waited for a core,
stolen time included) and scales it by how fast the machine ran at that
moment: a fixed piece of pure-Python work, the probe, is timed the same
way every quarter second, and

    reported = cpu_seconds * REFERENCE_PROBE_S / probe_cpu_seconds

where ``probe_cpu_seconds`` averages the probes taken just before and
just after the solve.  The probe does the same kinds of work as
pairband's hot paths (networkx's blossom on a small graph, and scalar
root finding with attribute reads and ``math`` calls), so it slows with
them.  It uses no pairband code, so a change to pairband moves the
scaled times as much as it moves the CPU times.

``REFERENCE_PROBE_S`` is about the probe's CPU time on a 2-vCPU Intel
Xeon KVM guest in its fast spells (3.4 to 4.3 ms measured; 5 to 7 ms in
its slow ones); at that speed the scaled times read as CPU times.
"""

from __future__ import annotations

import math
import random
import statistics
import time

REFERENCE_PROBE_S = 0.004

_LN2 = math.log(2.0)

# A probe runs whenever this much wall time has passed since the last.
PROBE_EVERY_S = 0.25


class _Link:
    """Gain, power and noise of one link, read by attribute as pairband's
    rate parameters are."""

    __slots__ = ("gain", "power", "noise")

    def __init__(self, gain: float, power: float, noise: float) -> None:
        self.gain, self.power, self.noise = gain, power, noise


def _rate(b: float, link: _Link) -> float:
    hp = link.gain * link.power
    return b * math.log1p(hp / (2.0 * link.noise * b + hp)) / _LN2


def _bandwidth_for(link: _Link, rate: float) -> float:
    """Bisection for the bandwidth at which ``_rate`` reaches ``rate``."""
    lo, hi = 1.0, 1.0e9
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _rate(mid, link) < rate:
            lo = mid
        else:
            hi = mid
    return hi


def _work() -> float:
    """The probe's fixed work: a maximum-weight perfect matching of a
    seeded 16-node complete graph (networkx's blossom, as pairband's
    matchings use), then scalar root finding over seeded links (as
    pairband's bandwidth bounds and allocation do)."""
    # Imported here, after set-up, since importing networkx is part of
    # set-up; and from its defining module, which a traced run leaves
    # unwrapped, so the probe adds no pairing.blossom span.
    from networkx import Graph
    from networkx.algorithms.matching import max_weight_matching

    rng = random.Random(20261018)
    graph = Graph()
    for i in range(16):
        for j in range(i + 1, 16):
            graph.add_edge(i, j, weight=rng.random())
    total = float(len(max_weight_matching(graph, maxcardinality=True)))
    for _ in range(40):
        link = _Link(rng.uniform(1e-9, 1e-7), rng.uniform(0.1, 1.0), 4e-21)
        total += _bandwidth_for(link, rng.uniform(1e5, 1e6))
    return total


def probe() -> float:
    """Process CPU seconds of one run of the probe's fixed work."""
    start = time.process_time()
    _work()
    return time.process_time() - start


def probe_median(times: int = 5) -> float:
    """Median of several probes, for a one-off reading (set-up)."""
    return statistics.median(probe() for _ in range(times))


def scale(probes: list[float], after: int) -> float:
    """Factor that turns CPU seconds measured between ``probes[after]``
    and ``probes[after + 1]`` into seconds at the reference speed."""
    return REFERENCE_PROBE_S / ((probes[after] + probes[after + 1]) / 2)
