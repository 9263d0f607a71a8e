"""Bandwidth feasibility and KKT water-filling allocation.

Given a fixed pairing, the remaining problem is to split B_max across
the K groups so that total transmit energy  sum_k p * xi_k(b_k)  is
minimized, where xi_k(b) = max{Q/F_i(b), Q/F_j(b)} is the airtime of the
group's slower user.  The rate depends on a user only through its link
x = g*p/N0 and grows with it, so the slower user is the one with the
smaller link at every bandwidth, and every pair-level quantity below is
computed at the pair's link (:func:`_pair_links`), with F, G meaning the
rate and gradient there.  Three structural facts make this easy:

* The latency budget turns into a per-group lower bound L_k: the unique
  root of F(b) = Q/Delta (F is strictly increasing with a finite
  asymptote, so the root exists iff Q/Delta < f_limit and Delta > 0).
  Since F(b) = x*phi(b/x), a user's root is x*phi^-1(Q/(Delta*x)), one
  array expression over both users of every pair at once, and L_k is
  the larger of its two users' roots (:func:`b_min_pair`): in exact
  arithmetic, the root at the pair's link.

* xi_k = Q/F is differentiable with -d/db [p*Q/F(b)] = G(b) strictly
  decreasing, so the KKT system reduces to a single multiplier Theta:
  b_k* = max{L_k, G_k^-1(Theta*)}, with Theta* chosen so the
  bandwidths sum to B_max.

* G(b) = (p*Q/x^2)*psi(b/x) = p*Q*a(b/x)/b^2, with a(t) = psi(t)*t^2
  rising from 1 at t -> 0 to 3 ln2/2 at t -> inf.  So a group's best
  response to the price Theta is b = max{L, sqrt(a(b/x))*v}, where v =
  sqrt(p*Q/Theta) [Hz] is the level: b = max{L, x*h^-1(v/x)} with h(t)
  = t/sqrt(a(t)) (:func:`_respond`), and sum_k b_k(v) rises with v.
  The search runs on v, which the split puts between c/1.02 and c for a
  level c of at most B_max, so it is finite whenever B_max is; Theta =
  p*Q/v^2 leaves the float range long before v does.

The bounds' phi^-1 takes three guarded Newton steps from a closed-form
start, and each finite root is then raised to its hi side: walking up
from it, the first b with F(b) >= Q/Delta in floating point, so a group
at its bound always meets the deadline.  h^-1 is six steps of the fixed
point t <- r*sqrt(a(t)) from t = r, to about 4e-15 relative.  A free
group takes between v and 1.02 v, so the split is a water-filling up to
that factor: with the level c at which sum max(L_k, c) = B_max, v*
lies between c / max_k sqrt(a(max(L_k, c)/x_k)) and c
(:func:`_bracket`).  Regula falsi on v from that bracket fills B_max to
1e-9 relative, from below, in about three level evaluations, and
Theta* = (p*Q/v*)/v* is reported, capped at the largest float.  The energy budget is checked after
the allocation rather than dualized.

Across pairings the energy budget is dualized once, to prove that no
pairing meets it (:func:`energy_infeasible`).  Pricing bandwidth at
Theta = p*Q/v^2 makes transmit energy pair-additive, so by weak duality
(Fisher 1981) every pairing's minimum transmit energy is at least

    q(v) = MWPM(w(v)) - (p*Q/v)*(B_max/v),
    w_ij(v) = min_{b >= L_ij} p*Q/F_ij(b) + (p*Q/v)*(b/v),

whose inner minimiser is the split's best response b*(v).  q is concave
in Theta with supergradient sum_M b*_ij - B_max over the minimising
matching M.  The search probes the rejected candidate's own level
first, then bisects log v by the sign of that supergradient, and stops
a silent search once two tangents meet at or below the budget.  Each
probe first tries the half-edge bound H = sum_v min_u w_vu / 2, at
most MWPM(w) and one array reduction: where H - (p*Q/v)*(B_max/v) is
already over the budget the probe needs no MWPM.  The b_min
certificate is its v -> 0 limit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import _log_terms, f_limit, f_value, g_value
from .latency_energy import SystemConfig, UserProfile, e_const, tau_bs, tau_rx
from .pairing import INFEASIBLE, PairCostMatrix, mwpm

__all__ = [
    "AllocationReport",
    "b_min_user",
    "b_min_pair",
    "phi_inverse",
    "energy_dual",
    "energy_infeasible",
    "kkt_allocate",
    "check_feasibility",
    "evaluate_fixed_allocation",
    # Not called here since the split searches the level, but kept as a
    # name of this module, where tracing tools count rate evaluations.
    "g_value",
]

# The level search stops once its low side's bandwidths use B_max up to
# 1e-9 relative; the bandwidth-sum verdict allows the same slack.
_BAND_TOL = 1e-9
_MAX_DOUBLINGS = 60
_MAX_STEPS = 400

# phi rises from phi(t) ~ t at 0 to its limit 1/(2 ln 2); three Newton
# steps from phi_inverse's start leave |phi(t) - s| within about 2 ulps
# of s for s from 1e-20 up to 1 - 1e-12 of the limit.
_LN2 = math.log(2.0)
_PHI_LIMIT = f_limit(1.0)
_PHI_NEWTON_STEPS = 3

# a(t) = psi(t)*t^2 rises from 1 at t -> 0 to 3*ln2/2 at t -> inf and
# changes by under 1.2 % per unit of ln t, so t <- r*sqrt(a(t))
# contracts the error of its start r (at most 2 %) by 0.006 a step: six
# steps reach 4e-15 relative.  Past t = 1e16, a is its limit to 1e-16;
# further out its terms underflow.
_ROOT_A_MAX = math.sqrt(1.5 * _LN2)
_ROOT_A_LIMIT_FROM = 1e16
_LEVEL_STEPS = 6
# The level's bracket ends are widened until sum b moves by this share
# of B_max, well past its rounding and h^-1's.
_BRACKET_MARGIN = 1e-12

# The energy bound's search: log v over [log v_min, log v_min + 15],
# bisected down to 5e-4 wide (15 halvings).
_LOG_LEVEL_SPAN = 15.0
_LOG_LEVEL_TOL = 5e-4


@dataclass(frozen=True)
class AllocationReport:
    """Outcome of allocating bandwidth to the groups of one matching.

    ``objective`` is the transmit-energy objective sum_k p*xi_k(b_k)
    [J]; ``energy_total`` adds the matching-invariant compute energy so
    it can be compared against E_max directly.  ``infeasibility_reason``
    is one of \"latency\", \"bandwidth_sum\", \"energy\", or None.
    """

    bandwidths: tuple[float, ...]
    theta_star: float
    lower_bounds: tuple[float, ...]
    objective: float
    bandwidth_used: float
    energy_total: float
    infeasibility_reason: str | None

    @property
    def feasible(self) -> bool:
        return self.infeasibility_reason is None


def _exceeds(value: float, limit: float) -> bool:
    """True when ``value`` is above ``limit`` beyond floating-point slop;
    an infinite value or limit, whose slop is +inf too, is compared
    exactly."""
    if math.isinf(value) or math.isinf(limit):
        return value > limit
    return value - limit > 1e-12 * max(abs(value), abs(limit), 1.0)


def _over_budget(value: float, budget: float) -> bool:
    """True when an energy bound passes the transmit budget by more than
    1e-9 relative; an infinite budget is compared exactly."""
    if math.isinf(budget):
        return value > budget
    return value - budget > 1e-9 * max(abs(budget), 1.0)


def _overfills(total: float, b_max: float) -> bool:
    """True when a bandwidth sum passes B_max by more than 1e-9 relative."""
    return total > b_max * (1.0 + _BAND_TOL)


def b_min_user(delta, x, payload_bits: float):
    """Unique root of F(b, x) = Q/delta, elementwise over ``delta`` and
    ``x`` (scalars or arrays), +inf where no root exists.

    The root exists iff delta > 0 and Q/delta < f_limit (the required
    rate must sit below the saturation rate).  It is x*phi^-1(Q/(delta*x))
    (:func:`phi_inverse`), raised to its hi side, where F(root) >= Q/delta
    holds as evaluated by :func:`~pairband.channel.f_value`.  All roots
    walk up together, each by increments that start at one ulp and
    double; a root is +inf where _MAX_DOUBLINGS rate evaluations do not
    get there (the rate never reaches Q/delta in floating point).
    Returns a float for scalar arguments and an array otherwise.
    """
    delta, x = np.broadcast_arrays(np.asarray(delta, dtype=float), np.asarray(x, dtype=float))
    positive = delta > 0.0
    target = np.divide(payload_bits, delta, out=np.full(delta.shape, math.inf), where=positive)
    found = positive & (target < f_limit(x))
    roots = np.full(delta.shape, math.inf)
    xs, ts = x[found], target[found]
    # F(b) < b, so the root lies above the demanded rate Q/delta.
    b = np.maximum(xs * phi_inverse(ts / xs), ts)
    step = np.spacing(b)
    for _ in range(_MAX_DOUBLINGS):
        short = f_value(b, xs) < ts
        if not short.any():
            break
        b = np.where(short, b + step, b)
        step *= 2.0
    roots[found] = np.where(short, math.inf, b)
    return float(roots) if roots.ndim == 0 else roots


def _pair_links(users: list[UserProfile], cfg: SystemConfig, i, j) -> np.ndarray:
    """The links of pairs (i[k], j[k]), the smaller of their users' links
    (:func:`~pairband.latency_energy.pair_link`), on index arrays."""
    own = np.array([cfg.link(u, cfg.power) for u in users])
    return np.minimum(own[i], own[j])


def b_min_pair(users: list[UserProfile], i, j, cfg: SystemConfig) -> np.ndarray:
    """Minimum bandwidths pairs (i[k], j[k]) need to meet the deadline:
    each the larger of its two users' roots (:func:`b_min_user`) at the
    pair's slack.

    ``i`` and ``j`` are index arrays into ``users``.  The weaker user's
    root is the larger in exact arithmetic; taking both keeps the bound
    at or above each user's own root where rounding says otherwise.  A
    bound is +inf when the deadline cannot be met at any finite
    bandwidth (non-positive slack, or required rate at/above the pair's
    saturation rate).
    """
    bs = np.array([tau_bs(u, cfg) for u in users])
    rx = np.array([tau_rx(u, cfg) for u in users])
    own = np.array([cfg.link(u, cfg.power) for u in users])
    # delta_slack's order of operations, so each slack is bit-identical.
    delta = cfg.t_max - bs[i] - rx[i] - bs[j] - rx[j]
    return b_min_user(delta, own[np.stack([i, j])], cfg.payload_bits).max(axis=0)


def phi_inverse(s: np.ndarray) -> np.ndarray:
    """Elementwise t > 0 with phi(t) = s (:func:`~pairband.channel.phi`)
    for 0 < s < 1/(2 ln 2): F^-1(r) at link x is x * phi_inverse(r/x).

    Newton steps from t0 = s/(1 - r) * (0.75/L)^r, with r = s/L and L =
    1/(2 ln 2) the limit of phi, a start that matches both ends: t ~ s
    as s -> 0 and t ~ 3/(4(1 - r)) as s -> L.  r is clamped below 1,
    and a step that would leave t <= 0 halves t instead.
    """
    r = np.minimum(s / _PHI_LIMIT, np.nextafter(1.0, 0.0))
    t = s / (1.0 - r) * (0.75 / _PHI_LIMIT) ** r
    target = s * _LN2  # ln2*phi(t) = t*log1p(u), with u = 1/(2t + 1)
    for _ in range(_PHI_NEWTON_STEPS):
        u = 1.0 / (2.0 * t + 1.0)
        log_term = np.log1p(u)
        # ln2*phi'(t) = log1p(u) - u + u/(t + 1): near the limit the
        # difference loses digits, but no more than the root itself has.
        step = (t * log_term - target) / (log_term - u + u / (t + 1.0))
        t = np.where(step < t, t - step, 0.5 * t)
    return t


def _root_a(t):
    """sqrt(a(t)) = sqrt(ln2*(log1p(u) - u + u/(t + 1)))/log1p(u), with u
    = 1/(2t + 1) and a = psi(t)*t^2, elementwise on t >= 0.  Past t =
    1e16 it is its limit sqrt(3 ln2/2); that case is handled only when
    some t is there."""
    wide = t > _ROOT_A_LIMIT_FROM
    if np.count_nonzero(wide):
        return np.where(wide, _ROOT_A_MAX, _root_a(np.where(wide, 1.0, t)))
    log_term, slope = _log_terms(t)
    return np.sqrt(_LN2 * slope) / log_term


def _h_inverse(r):
    """Elementwise t >= 0 with t/sqrt(a(t)) = r: six steps of the fixed
    point t <- r*sqrt(a(t)) (:func:`_root_a`) from t = r.  Every step
    keeps t >= r, so where r is past 1e16 the root is r*sqrt(3 ln2/2);
    every other t stays below 1.1e16, far from where a's terms underflow."""
    wide = r > _ROOT_A_LIMIT_FROM
    if np.count_nonzero(wide):
        return np.where(wide, _ROOT_A_MAX * r, _h_inverse(np.where(wide, 1.0, r)))
    t, scale = r, r * math.sqrt(_LN2)
    for _ in range(_LEVEL_STEPS):
        log_term, slope = _log_terms(t)
        t = scale * np.sqrt(slope) / log_term
    return t


def _respond(lower: np.ndarray, x: np.ndarray, v: float) -> np.ndarray:
    """The best response of pairs with bounds ``lower`` and links ``x``
    to the level v = sqrt(pq/theta) [Hz]: b = max(L, x*h^-1(v/x)), the
    argmin of p*Q/F(b) + theta*b over b >= L."""
    return np.maximum(lower, x * _h_inverse(v / x))


def _lowest_level(b: np.ndarray, x: np.ndarray) -> float:
    """min b/sqrt(a(b/x)) over groups with bandwidths ``b`` and links
    ``x``: the level sqrt(pq/theta) of the multiplier theta = max G(b).
    At or below the lowest level of the bounds every group's
    :func:`_respond` is its bound."""
    with np.errstate(all="ignore"):
        return float(np.min(b / _root_a(b / x)))


def _half_edge(w: np.ndarray) -> float:
    """H = sum_v min_u w_vu / 2, at most the fsum total of every perfect
    matching over the symmetric prices ``w``: the column-reduction duals
    min_u w_vu / 2 that start :func:`~pairband.pairing._assignment`.

    Each matched edge costs at least the mean of its ends' row minima,
    so the exact total is at least S/2, with S the exact sum of the
    minima.  The minima are exact, S stays in range (q scales the
    prices by 2^-k <= 1/n) and fsum rounds S correctly: below 2^-1021
    it is S itself (a multiple of 2^-1074 with at most 53 bits), and
    from there on halving is exact.  So H = round(S/2), which is at
    most round(total), the MWPM's fsum, as rounding is monotone.  A row
    of +inf makes H +inf (no perfect matching is finite); a nan makes
    it nan."""
    return math.fsum(w.min(axis=1).tolist()) / 2.0


def energy_dual(users: list[UserProfile], cfg: SystemConfig, bounds: np.ndarray, budget: float):
    """(q, v_min): the Lagrangian lower bound on the transmit energy of
    every pairing, and the lowest level of the pair bounds
    (:func:`_lowest_level`).

    ``q(v)`` returns the bound at the multiplier theta = pq/v^2 and its
    supergradient in theta, s = sum of b*_ij(v) over the minimising
    matching, minus B_max.  ``bounds`` is the N x N matrix of pair
    minimum bandwidths L_ij, +inf for pairs that may not be matched.
    Every q(v) with v > 0 is a valid bound (see the module docstring);
    at v <= v_min each pair's price sits at its L_ij.  q first puts the
    half-edge bound (:func:`_half_edge`) in the MWPM's place; where that
    is over the transmit ``budget`` (:func:`_over_budget`), so is the
    exact q, and q returns it with a nan slope and solves no MWPM.  At
    ``budget = inf`` every probe solves its MWPM.
    """
    n = len(users)
    i, j = np.nonzero(np.triu(np.isfinite(bounds), 1))
    lower, x = bounds[i, j], _pair_links(users, cfg, i, j)
    pq = cfg.power * cfg.payload_bits
    # The MWPM sees the prices times 2^-k <= 1/n, an exact scaling, so
    # that no sum of n/2 finite prices leaves the float range; q is
    # scaled back, to +inf only where it passes the largest float.
    scale = 2.0 ** -(n - 1).bit_length()

    def q(v: float) -> tuple[float, float]:
        with np.errstate(all="ignore"):
            b = _respond(lower, x, v)
            w = np.full((n, n), INFEASIBLE)
            w[i, j] = w[j, i] = scale * (pq / f_value(b, x) + (pq / v) * (b / v))
            price = scale * (pq / v) * (cfg.b_max / v)
        value = (_half_edge(w) - price) / scale
        if _over_budget(value, budget):
            return value, math.nan
        best = mwpm(PairCostMatrix(w))
        if best is None:  # every matching's price overflows: no energy fits
            return math.inf, 0.0
        bands = np.zeros((n, n))
        bands[i, j] = bands[j, i] = b
        used = math.fsum(bands[k, m] for k, m in best.pairs)
        return (best.total_cost - price) / scale, used - cfg.b_max

    return q, _lowest_level(lower, x)


def energy_infeasible(
    users: list[UserProfile],
    cfg: SystemConfig,
    bounds: np.ndarray,
    pairs,
    bandwidths,
) -> bool:
    """True when the Lagrangian bound proves that no pairing meets E_max.

    ``pairs`` and ``bandwidths`` are a candidate rejected for energy and
    its KKT allocation.  Its level v_1 (:func:`_lowest_level`) prices
    bandwidth as that allocation does, so q(v_1) is probed first.  Then
    q (:func:`energy_dual`) is bisected on log v over [v_min, v_min *
    e^15] by the sign of its supergradient, keeping the nearest probes
    on either side of the maximiser: in theta = pq/v^2, left (s > 0) and
    right (s < 0) of it.  The search returns True at the first v
    whose bound exceeds the transmit budget E_max - e_const by more than
    1e-9 relative.  It returns False at a zero supergradient (that probe
    maximises q), once the tangents in theta of the two nearest probes
    meet at or below the budget (q is concave in theta, so no theta can
    beat that meeting point; where a probe's theta leaves the float
    range the meeting point is not finite and the search goes on), or
    once the bracket is under 5e-4 wide: at most 16 probes.  Each probe
    solves one MWPM, unless the half-edge bound alone proves it over the
    budget: then it is the last probe and solves none.  ``bounds`` must
    admit a perfect matching (the b_min certificate passed).
    """
    budget = cfg.e_max - e_const(users, cfg)
    margin = 1e-9 * max(abs(budget), 1.0)
    pq = cfg.power * cfg.payload_bits
    q, v_min = energy_dual(users, cfg, bounds, budget)
    links = _pair_links(users, cfg, *np.transpose(pairs))
    v = _lowest_level(np.array(bandwidths), links)
    lo = math.log(v_min)
    hi = lo + _LOG_LEVEL_SPAN
    # The nearest probes left and right of the maximiser in theta, as
    # (theta, q, s).  Every probe after v_1 lies inside the bracket, so
    # it is the nearest on its side.
    rising, falling = (0.0, 0.0, 0.0), (math.inf, 0.0, 0.0)
    while True:
        value, slope = q(v)
        if _over_budget(value, budget):
            return True
        if slope == 0.0:  # a zero supergradient: v maximises q
            return False
        if slope > 0.0:
            rising, hi = (pq / v / v, value, slope), min(hi, math.log(v))
        else:
            falling, lo = (pq / v / v, value, slope), max(lo, math.log(v))
        (ta, qa, sa), (tb, qb, sb) = rising, falling
        # Both tangents lie above q, so where they meet caps max q.
        if sa > 0.0 > sb and qa + sa * (qb - qa + sb * (ta - tb)) / (sa - sb) - budget <= margin:
            return False
        if hi - lo < _LOG_LEVEL_TOL:  # also when v_1 empties the bracket
            return False
        v = math.exp(0.5 * (lo + hi))


def _report(
    users: list[UserProfile],
    links: list[float],
    cfg: SystemConfig,
    lower,
    bandwidths,
    theta_star: float = math.nan,
) -> AllocationReport:
    """Score one bandwidth vector against every budget; ``links`` are
    the pairs' links (:func:`~pairband.latency_energy.pair_link`).

    The report carries the first violated budget (latency, then
    bandwidth_sum, then energy); ``theta_star`` is kept only when none
    is violated.
    """
    # p times each group's airtime xi(b) = Q/F(b), inf at zero rate.
    rates = f_value(np.array(bandwidths, dtype=float), links).tolist()
    energies = [cfg.power * (cfg.payload_bits / r) if r > 0.0 else math.inf for r in rates]
    try:
        obj = math.fsum(energies)
    except OverflowError:  # finite energies whose sum leaves the float range
        obj = math.inf
    used = math.fsum(bandwidths)
    fixed = e_const(users, cfg)
    reason = None
    if any(b < lb * (1.0 - 1e-12) for b, lb in zip(bandwidths, lower)):
        reason = "latency"  # covers infeasible pairs too (b_min = inf)
    elif _overfills(used, cfg.b_max):
        reason = "bandwidth_sum"
    elif _exceeds(obj, cfg.e_max - fixed):
        reason = "energy"
    return AllocationReport(
        bandwidths=tuple(bandwidths),
        theta_star=theta_star if reason is None else math.nan,
        lower_bounds=tuple(lower),
        objective=obj,
        bandwidth_used=used,
        energy_total=fixed + obj,
        infeasibility_reason=reason,
    )


def _water_level(lower: list[float], b_max: float) -> tuple[float, float]:
    """(c, j*c): the level c with sum max(L_k, c) = B_max, for B_max >
    sum L, and the share of B_max the j groups below it take.

    With the bounds sorted, j*c plus the bounds above the j smallest is
    at most sum max(L_k, c) for every j, with equality at the j bounds
    below c, so c is the least of (B_max - those bounds)/j over j.
    """
    rest, level, free = math.fsum(lower), math.inf, 0.0
    for j, bound in enumerate(sorted(lower), start=1):
        rest -= bound
        if (b_max - rest) / j < level:
            level, free = (b_max - rest) / j, b_max - rest
    return level, free


def _bracket(lower: np.ndarray, x: np.ndarray, b_max: float) -> tuple[float, float]:
    """(lo, hi) levels with sum b(lo) <= B_max < sum b(hi) for the
    :func:`_respond` response, from the water level c
    (:func:`_water_level`) and m_k = max(L_k, c), which sums to B_max.

    A free group's response to the level v is b = v*sqrt(a(b/x)), with
    a = psi(t)*t^2 in [1, 3 ln2/2] and increasing in t.  At v = c every
    free response is at least c, so every group takes at least m_k.  At
    v = c / max_k sqrt(a(m_k/x_k)) every group takes at most m_k, since
    h(t) = t/sqrt(a(t)) rises and m_k/sqrt(a(m_k/x_k)) >= v.  Each end
    is widened so that the free groups' share of B_max moves by
    _BRACKET_MARGIN of B_max, past the rounding of sum b.
    """
    level, free = _water_level(lower.tolist(), b_max)
    margin = _BRACKET_MARGIN * b_max / free
    with np.errstate(all="ignore"):
        rise = float(np.max(_root_a(np.maximum(lower, level) / x)))
    return level / rise * (1.0 - margin), level * (1.0 + margin)


def _level(lower: np.ndarray, x: np.ndarray, b_max: float) -> tuple[float, list[float]]:
    """(v*, b(v*)) for the :func:`_respond` response, by Illinois regula
    falsi (Dowell & Jarratt 1971) on v from the bracket (:func:`_bracket`).

    The search keeps the sides sum b(lo) <= B_max < sum b(hi) and
    returns lo, so the bandwidths never overfill the band, once B_max -
    sum b(lo) <= 1e-9*B_max.  RuntimeError after 400 steps.
    """
    lo, hi = _bracket(lower, x, b_max)
    with np.errstate(all="ignore"):
        b_lo = _respond(lower, x, lo)
        t_lo = float(b_lo.sum())
        # The secant runs through (lo, w_lo) and (hi, w_hi), the ends'
        # excesses sum b - B_max, except that an end kept twice in a row
        # has its w halved (the Illinois rule), so neither end stalls.
        w_lo, w_hi, kept = t_lo - b_max, float(_respond(lower, x, hi).sum()) - b_max, 0
        for _ in range(_MAX_STEPS):
            if b_max - t_lo <= _BAND_TOL * b_max:
                return lo, b_lo.tolist()
            y = lo + (hi - lo) * w_lo / (w_lo - w_hi)
            b_y = _respond(lower, x, y)
            t_y = float(b_y.sum())
            if t_y > b_max:
                if kept > 0:
                    w_lo *= 0.5
                hi, w_hi, kept = y, t_y - b_max, 1
            else:
                if kept < 0:
                    w_hi *= 0.5
                lo, b_lo, t_lo, w_lo, kept = y, b_y, t_y, t_y - b_max, -1
    raise RuntimeError("bandwidth multiplier search did not converge")


def kkt_allocate(
    users: list[UserProfile],
    matching,
    cfg: SystemConfig,
    bounds: list[float],
) -> AllocationReport:
    """Optimal bandwidth split for one matching: the level v* at which
    the groups' bandwidths fill B_max (:func:`_level`), reported as its
    multiplier theta* = pq/v*^2, capped at the largest float.

    ``matching.pairs`` index ``users``; ``bounds`` are the pairs'
    minimum bandwidths (:func:`b_min_pair`).  When any is +inf no
    bandwidth meets the deadline and the report's reason is
    \"latency\".  Every group transmits at cfg.power.
    """
    lower = list(bounds)
    if len(lower) != len(matching.pairs):
        raise ValueError("bounds must have one entry per group")
    if any(math.isinf(lb) for lb in lower):
        return AllocationReport(
            bandwidths=(),
            theta_star=math.nan,
            lower_bounds=tuple(lower),
            objective=math.inf,
            bandwidth_used=math.inf,
            energy_total=math.inf,
            infeasibility_reason="latency",
        )

    links = _pair_links(users, cfg, *np.transpose(matching.pairs))
    sum_lower = math.fsum(lower)
    if _overfills(sum_lower, cfg.b_max):
        return _report(users, links, cfg, lower, lower)

    lows = np.array(lower)
    if cfg.b_max - sum_lower <= _BAND_TOL * cfg.b_max:  # the bounds fill the band
        level, b_star = _lowest_level(lows, links), lower
    else:
        level, b_star = _level(lows, links, cfg.b_max)
    # theta* = pq/v*^2, which passes the largest float where v* is tiny.
    theta_star = min(cfg.power * cfg.payload_bits / level / level, sys.float_info.max)
    return _report(users, links, cfg, lower, b_star, theta_star)


def check_feasibility(users: list[UserProfile], matching, cfg: SystemConfig) -> AllocationReport:
    """Latency bounds + KKT allocation + energy check for one matching.

    Never raises on infeasibility; every failure mode is encoded in the
    report (reason \"latency\" when any pair cannot meet the deadline at
    any bandwidth).  ``matching.pairs`` index ``users``.
    """
    bounds = b_min_pair(users, *np.transpose(matching.pairs), cfg).tolist()
    return kkt_allocate(users, matching, cfg, bounds)


def evaluate_fixed_allocation(
    users: list[UserProfile],
    matching,
    cfg: SystemConfig,
    bounds: list[float],
    bandwidths: list[float],
) -> AllocationReport:
    """Score a given bandwidth vector (e.g. an equal split) without
    optimizing it.

    ``matching.pairs`` index ``users`` and ``bounds`` are the pairs'
    minimum bandwidths, as for :func:`kkt_allocate`.  Feasibility is
    evaluated, not enforced: the report carries the first violated
    budget so baseline strategies can still be compared on infeasible
    draws.  ValueError unless ``bounds`` and ``bandwidths`` have one
    entry per group.
    """
    if not len(bounds) == len(bandwidths) == len(matching.pairs):
        raise ValueError("bounds and bandwidths must have one entry per group")
    links = _pair_links(users, cfg, *np.transpose(matching.pairs))
    return _report(users, links, cfg, bounds, bandwidths)
