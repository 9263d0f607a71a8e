"""Shared builders for the test suite.

Everything here constructs small, fully controlled instances: users
with an exact linear gain that differ only where the test says so, and
configs with budgets wide open unless the test tightens them.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
from hypothesis import strategies as st

from pairband import bandwidth, pairing
from pairband.channel import psi
from pairband.distortion import DistortionTable, SimilarityModel, similarity_gate
from pairband.latency_energy import SystemConfig, UserProfile, group_time
from pairband.pairing import Matching, PairCostMatrix
from pairband.scenario import Scenario, ScenarioTemplate

NOISE = 10.0 ** (-20.4)  # W/Hz


def make_link(
    power: float = 1.0,
    gain: float = 1.0e-11,
    noise: float = NOISE,
) -> float:
    """The link x = g*p/N0 [Hz] of a user with this gain and noise."""
    return gain * power / noise


def make_user(
    idx: int,
    gain: float = 1.0e-11,
    *,
    q_bits: float = 1.5e6,
    enc: float = 1.0,
    dec: float = 1.0,
    cpu_hz: float = 1.0e9,
    cycles: float = 100.0,
    coeff: float = 1.0e-27,
    noise: float | None = None,
) -> UserProfile:
    return UserProfile(
        id=idx,
        position=(float(idx), 0.0),
        q_bits=q_bits,
        enc_params=enc,
        dec_params=dec,
        cpu_hz=cpu_hz,
        cycles_per_bit=cycles,
        energy_coeff=coeff,
        pathloss_db=-10.0 * math.log10(gain),  # back-derived from the exact gain
        shadowing_db=0.0,
        gain_linear=gain,
        noise_psd=noise,
    )


def make_cfg(
    n: int = 4,
    *,
    b_max: float = 10.0e6,
    t_max: float = 10.0,
    e_max: float = 1.0e9,
    d_max: float = 1.0e9,
    noise: float = NOISE,
    payload: float = 1.3e6,
    power: float = 1.0,
) -> SystemConfig:
    return SystemConfig(
        n_users=n,
        b_max=b_max,
        t_max=t_max,
        e_max=e_max,
        d_max=d_max,
        noise_psd=noise,
        payload_bits=payload,
        bs_cpu_hz=3.0e9,
        bs_cycles_per_bit=100.0,
        bs_energy_coeff=4.0e-27,
        group_powers=(power,) * (n // 2),
    )


def uniform_table(n: int, value: float = 1.0) -> DistortionTable:
    per_user = np.full((n, n), value)
    np.fill_diagonal(per_user, 0.0)
    return DistortionTable(per_user)


def make_scenario(
    users: list[UserProfile],
    cfg: SystemConfig,
    table: DistortionTable | None = None,
    seed: int = 0,
) -> Scenario:
    """Hand-built scenario; the template is a placeholder that mirrors
    the config's budgets so sweep-style code can still re-derive it."""
    template = ScenarioTemplate(
        n_users=cfg.n_users,
        b_max=cfg.b_max,
        t_max=cfg.t_max,
        e_max=cfg.e_max,
        d_max=cfg.d_max,
        noise_psd=cfg.noise_psd,
        payload_bits=cfg.payload_bits,
    )
    return Scenario(
        cfg=cfg,
        users=tuple(users),
        distortions=table if table is not None else uniform_table(cfg.n_users),
        seed=seed,
        template=template,
    )


def random_cost_matrix(rng: np.random.Generator, n: int, scale: float = 10.0):
    """Symmetric non-negative cost matrix with +inf diagonal."""
    raw = rng.uniform(0.1, scale, size=(n, n))
    costs = np.triu(raw, 1)
    costs = costs + costs.T
    np.fill_diagonal(costs, math.inf)
    return costs


# ---------------------------------------------------------------------------
# Matching oracles: exhaustive enumeration for small N, networkx's blossom
# on every finite edge (the kernel before edge pricing), and the assignment
# relaxation and the matching read off its cycles as the kernel solved them
# in numpy.


def all_matchings(n: int):
    """Yield every perfect matching of 0..n-1 as a canonical pair tuple.

    There are (n-1)!! of them; always pairs the lowest unmatched index
    first, so the order is deterministic.
    """
    if n % 2 != 0:
        raise ValueError("n must be even")

    def rec(rest: tuple[int, ...]):
        if not rest:
            yield ()
            return
        head, others = rest[0], rest[1:]
        for idx, partner in enumerate(others):
            for tail in rec(others[:idx] + others[idx + 1 :]):
                yield ((head, partner),) + tail

    yield from rec(tuple(range(n)))


def matching_cost(costs: np.ndarray, pairs) -> float:
    return math.fsum(costs[i, j] for i, j in pairs)


def brute_force_mwpm(costs: PairCostMatrix, max_n: int = 12) -> Matching | None:
    """Exhaustive minimum over all (n-1)!! perfect matchings.

    Refuses n above ``max_n`` (10395 matchings at n = 12).  Ties resolve
    to the lexicographically smallest pair list.
    """
    if costs.n > max_n:
        raise ValueError(f"brute force limited to n <= {max_n}, got {costs.n}")
    best = None
    for pairs in all_matchings(costs.n):
        key = (matching_cost(costs.costs, pairs), pairs)
        if math.isfinite(key[0]) and (best is None or key < best):
            best = key
    return None if best is None else Matching(pairs=best[1], total_cost=best[0])


def unpruned_mwpm(costs: PairCostMatrix) -> Matching | None:
    """networkx's blossom on the complete finite-edge graph."""
    c = costs.costs
    i, j = np.nonzero(np.triu(np.isfinite(c), 1))
    graph = nx.Graph()
    graph.add_nodes_from(range(costs.n))
    graph.add_weighted_edges_from(
        zip(i.tolist(), j.tolist(), (c[i, j].max(initial=0.0) - c[i, j]).tolist())
    )
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    if 2 * len(mate) != costs.n:
        return None
    pairs = tuple(sorted((min(a, b), max(a, b)) for a, b in mate))
    return Matching(pairs=pairs, total_cost=matching_cost(c, pairs))


def unique_in_cell(
    c: np.ndarray,
    pairs: tuple,
    forced_in: frozenset,
    forced_out: frozenset,
    tau: float,
) -> bool:
    """The raised re-solve: True when the cell's minimum, re-solved with
    each free edge of ``pairs`` raised by ``tau``, is still ``pairs``.
    A rival misses at least two of those edges, so it comes 2 tau
    closer; the cell's minimum stays ``pairs`` only if every rival is
    at least 2 tau dearer."""
    raised = c.copy()
    for i, j in pairs:
        if (i, j) not in forced_in:
            raised[i, j] += tau
            raised[j, i] += tau
    solved = pairing._solve_cell(raised, forced_in, forced_out, None)
    return solved is not None and solved[0] == pairs


def numpy_assignment(c: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The assignment relaxation as the pairing kernel solved it in numpy,
    one array pass per Dijkstra step: (duals w, row-to-column map), or
    None when no finite assignment exists.

    Same algorithm as ``pairing._assignment`` (column reduction, then
    one shortest augmenting path per free row, first strict minimum on
    ties) and the same float operation order, so the two agree bit for
    bit.
    """
    n = c.shape[0]
    v = c.min(axis=0)
    if not np.all(np.isfinite(v)):
        return None
    u = np.zeros(n)
    col_of = np.full(n, -1)
    row_of = np.full(n, -1)
    rows, cols = np.unique(c.argmin(axis=0), return_index=True)
    col_of[rows], row_of[cols] = cols, rows
    for root in np.flatnonzero(col_of < 0):
        # +inf in ``scanned`` keeps a column whose distance is final out.
        reduced = c - v
        dist = np.full(n, np.inf)
        pred = np.zeros(n, dtype=int)
        scanned = np.zeros(n)
        i, d_i = root, 0.0
        while True:
            reach = reduced[i] + scanned + (d_i - u[i])
            closer = reach < dist
            dist[closer], pred[closer] = reach[closer], i
            open_dist = dist + scanned
            j = int(np.argmin(open_dist))
            d_i = open_dist[j]
            if not math.isfinite(d_i):
                return None
            scanned[j] = np.inf
            if row_of[j] < 0:
                break
            i = row_of[j]
        done = scanned > 0
        tree = row_of[done & (row_of >= 0)]
        u[tree] += d_i - dist[col_of[tree]]
        u[root] += d_i
        v[done] -= d_i - dist[done]
        while True:
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == root:
                break
    return 0.5 * (u + v), col_of


def _numpy_join_exposed(r: np.ndarray, mate: np.ndarray) -> None:
    """Pair up the exposed users (mate -1) in place, each along the
    alternating path of least reduced-cost increase r to another one.

    Dijkstra over the users reached through a mate: from such a user y,
    an edge (y, x) plus x's mate e reach e, at the cost r_yx - r_xe
    floored at 0.  A path that meets itself (an odd cycle) is not
    flipped; its two ends are paired directly.
    """
    n = mate.size
    rows = np.arange(n)
    while (exposed := np.flatnonzero(mate < 0)).size:
        a = exposed[0]
        dist = np.full(n, np.inf)
        dist[a] = 0.0
        via = np.full(n, -1)
        done = np.zeros(n, dtype=bool)
        matched = mate >= 0
        own = np.where(matched, r[rows, mate], 0.0)
        best, end = np.inf, (a, exposed[1])
        while True:
            open_dist = np.where(done, np.inf, dist)
            y = int(np.argmin(open_dist))
            if not open_dist[y] < best:
                break
            done[y] = True
            finish = np.where(matched, np.inf, dist[y] + r[y])
            finish[a] = np.inf
            b = int(np.argmin(finish))
            if finish[b] < best:
                best, end = finish[b], (y, b)
            with np.errstate(invalid="ignore"):  # inf - inf: no step
                reach = dist[y] + np.maximum(r[y] - own, 0.0)
            e = mate[matched]
            closer = reach[matched] < dist[e]
            dist[e[closer]], via[e[closer]] = reach[matched][closer], y
        y, b = end
        path = [b, y]
        while path[-1] != a:
            path += [mate[path[-1]], via[path[-1]]]
        if len(set(path)) < len(path):
            mate[a], mate[b] = b, a
            continue
        for k in range(0, len(path), 2):
            mate[path[k]], mate[path[k + 1]] = path[k + 1], path[k]


def numpy_cycle_matching(d: np.ndarray, col_of: np.ndarray) -> list[tuple[int, int]]:
    """A perfect matching read off an assignment's cycles, as the pairing
    kernel read it in numpy, one array pass per Dijkstra step of the
    join.  ``pairing._cycle_matching`` must return exactly its pairs.

    Each 2-cycle is its own pair; every user on a longer cycle is
    joined along alternating paths of the reduced costs ``d`` (c_ij -
    w_i - w_j over the whole matrix).  Its edges may be infinite.
    """
    mate = np.where(col_of[col_of] == np.arange(col_of.size), col_of, -1)
    _numpy_join_exposed(d, mate)
    return [(k, int(m)) for k, m in enumerate(mate) if k < m]


# ---------------------------------------------------------------------------
# The oracles' own scalar rate law, in b and x with math.log1p, so that they
# share no code with the array forms in pairband.channel that they check
# (tests/test_channel.py checks it against mpmath).

_LN2 = math.log(2.0)
# log1p(u) - u = sum over k >= 2 of (-1)^(k+1) u^k / k; for u < 1e-2 the
# terms up to k = 11 leave a tail far below one ulp of the sum.
_SERIES_BELOW = 1e-2
_SERIES = tuple((-1.0) ** (k + 1) / k for k in range(11, 1, -1))


def _rate(b: float, x: float) -> float:
    """F(b) = b*log2(1 + x/(2b + x)) at link x, F(0) = 0."""
    if b == 0.0:
        return 0.0
    return b * math.log1p(x / (2.0 * b + x)) / _LN2


def _rate_prime(b: float, x: float) -> float:
    """F'(b) as ((log1p(u) - u) + u*x/(b + x))/ln2 with u = x/(2b + x),
    taking log1p(u) - u from its series in the wide band, where the
    two nearly cancel."""
    u = x / (2.0 * b + x)
    if u < _SERIES_BELOW:
        series = 0.0
        for c in _SERIES:
            series = c + u * series
        head = u * u * series
    else:
        head = math.log1p(u) - u
    return (head + u * x / (b + x)) / _LN2


def _gradient(b: float, x: float, pq: float) -> float:
    """G(b) = pq*F'(b)/F(b)^2."""
    rate = _rate(b, x)
    return pq * _rate_prime(b, x) / (rate * rate)


# ---------------------------------------------------------------------------
# Root oracle: the scalar bisection the minimum-bandwidth roots used before
# they became one array expression.


def bisection_b_min(delta: float, x: float, payload_bits: float, b_hint: float = 1.0e6) -> float:
    """Root of F(b, x) = Q/delta by bracketed bisection, or +inf when none
    exists (delta <= 0 or Q/delta >= x/(2 ln 2), the saturation rate).

    Halves ``min(1, Q/delta)`` until F is below the target and doubles
    ``max(2, b_hint)`` until it is not, 60 times at most each (RuntimeError
    beyond), then bisects to 1e-12 relative and returns the hi side, where
    F(b) >= Q/delta.
    """
    if delta <= 0.0:
        return math.inf
    target = payload_bits / delta
    if target >= x / (2.0 * _LN2):
        return math.inf
    lo, hi = min(1.0, target), max(2.0, b_hint)
    for _ in range(60):
        if _rate(lo, x) < target:
            break
        lo *= 0.5
    else:
        raise RuntimeError(f"bisection_b_min: root below {lo!r}")
    for _ in range(60):
        if _rate(hi, x) >= target:
            break
        hi *= 2.0
    else:
        raise RuntimeError(f"bisection_b_min: root above {hi!r}")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if _rate(mid, x) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return hi


# ---------------------------------------------------------------------------
# Allocator oracle: the scalar gradient inverse and the multiplier bisection
# the KKT split used before it became one array expression per multiplier.


def bisection_g_inverse(theta: float, x: float, pq: float, b_hint: float = 1.0e6) -> float:
    """Unique b with G(b) = theta (G strictly decreasing) at link ``x``
    and ``pq`` = p*Q, by bisection.

    Halves lo = 1 Hz until G(lo) >= theta and doubles hi = max(2,
    ``b_hint``) until G(hi) < theta, 60 times at most each (RuntimeError
    naming the function beyond), then bisects to 1e-12 relative.
    """
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    lo, hi = 1.0, max(2.0, b_hint)
    for _ in range(60):
        if _gradient(lo, x, pq) >= theta:
            break
        lo *= 0.5
    else:
        raise RuntimeError(f"bisection_g_inverse: root below {lo!r}")
    for _ in range(60):
        if _gradient(hi, x, pq) < theta:
            break
        hi *= 2.0
    else:
        raise RuntimeError(f"bisection_g_inverse: root above {hi!r}")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if _gradient(mid, x, pq) >= theta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def psi_inverse(s: np.ndarray) -> np.ndarray:
    """Elementwise t > 0 with psi(t) = s, as the allocator finds it:
    psi(t) = a(t)/t^2, so t = h^-1(1/sqrt(s)) (``bandwidth._h_inverse``).
    G^-1(theta) at link x and pq = p*Q is x * psi_inverse(theta * x^2 / pq)."""
    return bandwidth._h_inverse(1.0 / np.sqrt(s))


def ratio_psi_inverse(s: np.ndarray) -> np.ndarray:
    """psi^-1 as six steps of t <- sqrt(psi(t)*t*t/s) from t =
    1/sqrt(s), the form the allocator's root took before its step was
    fused; nan where s is 0 or +inf."""
    t = 1.0 / np.sqrt(s)
    for _ in range(6):
        t = np.sqrt(psi(t) * t * t / s)
    return t


def bisection_kkt(
    lower: list[float], links: list[float], pq: float, b_max: float
) -> tuple[float, list[float]]:
    """(theta*, bandwidths) of the KKT split with finite bounds ``lower``
    at pair links ``links``, by bisection on theta.

    (nan, lower) when sum(lower) exceeds B_max by more than 1e-9
    relative; (theta_max, lower) when it fills B_max to within 1e-9.
    Otherwise b(theta) = max(L, G^-1(theta)) with the scalar
    :func:`bisection_g_inverse`: theta halves down from theta_max / 2
    until sum b >= B_max, then bisects keeping sum b(hi) <= B_max <=
    sum b(lo) until B_max - sum b(hi) <= 1e-9*B_max, and returns hi.
    """
    sum_lower = math.fsum(lower)
    if sum_lower > b_max * (1.0 + 1e-9):
        return math.nan, list(lower)
    theta_max = max(_gradient(lb, x, pq) for lb, x in zip(lower, links))
    if b_max - sum_lower <= 1e-9 * b_max:
        return theta_max, list(lower)

    def allocation_at(theta: float) -> list[float]:
        return [max(lb, bisection_g_inverse(theta, x, pq, b_max)) for lb, x in zip(lower, links)]

    hi, lo = theta_max, 0.5 * theta_max
    for _ in range(400):
        if sum(allocation_at(lo)) >= b_max:
            break
        lo *= 0.5
    else:
        raise RuntimeError("bisection_kkt: no multiplier fills the band")
    t_hi = sum(allocation_at(hi))
    for _ in range(400):
        if b_max - t_hi <= 1e-9 * b_max:
            break
        mid = 0.5 * (lo + hi)
        t_mid = sum(allocation_at(mid))
        if t_mid >= b_max:
            lo = mid
        else:
            hi, t_hi = mid, t_mid
    else:
        raise RuntimeError("bisection_kkt: did not converge")
    return hi, allocation_at(hi)


# ---------------------------------------------------------------------------
# Table oracle: the per-ordered-pair loop the synthetic distortion table
# was built with before it became one array pass over unordered pairs.


def loop_distortions(features: np.ndarray, model: SimilarityModel) -> DistortionTable:
    """The synthetic table, one clipped scalar dot product and one
    similarity gate per ordered pair (i, j), i != j."""
    n = features.shape[0]
    if n % 2 != 0:
        raise ValueError("n must be even")
    per_user = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            cos = float(np.clip(features[i] @ features[j], -1.0, 1.0))
            gate = similarity_gate(cos, model.kappa)
            per_user[i, j] = model.base_distortion * (
                1.0 - model.similarity_weight * gate
            )
    return DistortionTable(per_user)


# ---------------------------------------------------------------------------
# Allocation-instance builders and optimality certificates, shared by the
# unit tests and the end-to-end acceptance checks.


def scenario_from_pair_costs(pair_costs, gains, cfg) -> Scenario:
    """Users with chosen gains plus a distortion table whose pair sums
    equal ``pair_costs`` (split evenly between directions)."""
    n = len(gains)
    per_user = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                per_user[i, j] = pair_costs[i][j] / 2.0
    users = [make_user(i, gain=gains[i]) for i in range(n)]
    return make_scenario(users, cfg, DistortionTable(per_user))


def exhaustive_first_feasible(scn):
    """Oracle: score every matching, return the cheapest feasible one."""
    from pairband.bandwidth import check_feasibility

    best = None
    for pairs in all_matchings(scn.cfg.n_users):
        total = math.fsum(scn.distortions.pair_sum[i, j] for i, j in pairs)
        capped = any(
            scn.distortions.per_user[i, j] > scn.cfg.d_max
            or scn.distortions.per_user[j, i] > scn.cfg.d_max
            for i, j in pairs
        )
        if capped or not math.isfinite(total):
            continue
        matching = Matching(pairs=pairs, total_cost=total)
        report = check_feasibility(list(scn.users), matching, scn.cfg)
        if report.feasible:
            key = (total, pairs)
            if best is None or key < best[0]:
                best = (key, matching)
    return None if best is None else best[1]


def paired_users(users, matching):
    return [(users[a], users[b]) for a, b in matching.pairs]


def consecutive_matching(n: int) -> Matching:
    return Matching(
        pairs=tuple((2 * k, 2 * k + 1) for k in range(n // 2)), total_cost=0.0
    )


def random_instance(rng, k=2, b_max=None, t_max=2.0):
    """A latency-feasible instance with room between sum(L) and B_max."""
    n = 2 * k
    users = [
        make_user(
            i,
            gain=float(10.0 ** rng.uniform(-12.5, -10.5)),
            dec=float(rng.uniform(0.6, 1.4)),
            cpu_hz=float(rng.uniform(5.0e8, 1.6e9)),
        )
        for i in range(n)
    ]
    cfg = make_cfg(n, b_max=b_max if b_max is not None else 3.0e6 * k, t_max=t_max)
    return users, cfg, consecutive_matching(n)


def active_gradient(pair, b, power, cfg):
    """Gradient of the binding (slower) user of the pair at bandwidth b."""
    xi, xj = cfg.link(pair[0], power), cfg.link(pair[1], power)
    x = xi if _rate(b, xi) <= _rate(b, xj) else xj
    return _gradient(b, x, power * cfg.payload_bits)


def group_airtime(pair, b, power, cfg):
    i, j = pair
    return max(
        cfg.payload_bits / _rate(b, cfg.link(i, power)),
        cfg.payload_bits / _rate(b, cfg.link(j, power)),
    )


def assert_kkt_certificates(users, matching, cfg, report):
    """Stationarity + complementary slackness + primal feasibility."""
    assert report.feasible
    pairs = paired_users(users, matching)
    p = cfg.power
    theta = report.theta_star
    assert theta > 0

    used = math.fsum(report.bandwidths)
    assert used <= cfg.b_max * (1.0 + 1e-9)
    assert abs(report.bandwidth_used - used) <= 1e-12 * used

    any_interior = False
    for b, lb, pair in zip(report.bandwidths, report.lower_bounds, pairs):
        assert b >= lb * (1.0 - 1e-12)
        if b > lb * (1.0 + 1e-9):
            any_interior = True
            # Interior group: gradient balanced at the shared multiplier.
            grad_here = active_gradient(pair, b, p, cfg)
            assert abs(grad_here - theta) <= 1e-6 * theta
        else:
            # At the bound the gradient must already be at or below the
            # multiplier (otherwise growing b would pay off).
            assert active_gradient(pair, lb, p, cfg) <= theta * (1.0 + 1e-6)
        # Latency holds at the returned allocation.
        assert group_time(pair, b, p, cfg) <= cfg.t_max * (1.0 + 1e-9)
    if any_interior:
        # Complementary slackness: an interior group means the bandwidth
        # constraint is tight.
        assert abs(used - cfg.b_max) <= 1e-9 * cfg.b_max


_gains = st.floats(min_value=1e-13, max_value=1e-10)
_noise_overrides = st.one_of(
    st.none(), st.floats(min_value=0.25, max_value=4.0).map(lambda f: f * NOISE)
)


@st.composite
def user_pair(draw, first_id=0):
    """Two users, with per-user noise overrides and, half the time, an
    exact tie in g/N0 (gain and noise scaled by one power of two)."""
    gain_i, noise_i = draw(_gains), draw(_noise_overrides)
    if draw(st.booleans()):
        scale = 2.0 ** draw(st.integers(min_value=-3, max_value=3))
        gain_j = gain_i * scale
        noise_j = (NOISE if noise_i is None else noise_i) * scale
    else:
        gain_j, noise_j = draw(_gains), draw(_noise_overrides)
    decs = st.floats(min_value=0.6, max_value=1.4)
    return (
        make_user(first_id, gain=gain_i, noise=noise_i, dec=draw(decs)),
        make_user(first_id + 1, gain=gain_j, noise=noise_j, dec=draw(decs)),
    )
