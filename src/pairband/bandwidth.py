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
  Since F(b) = x*phi(b/x), it is L = x*phi^-1(Q/(Delta*x)), one array
  expression over every pair at once.

* xi_k = Q/F is differentiable with -d/db [p*Q/F(b)] = G(b) strictly
  decreasing, so the KKT system reduces to a single multiplier Theta:
  b_k* = max{L_k, G_k^-1(Theta*)}, with Theta* chosen so the
  bandwidths sum to B_max.

* sum_k b_k(Theta) is non-increasing in Theta, hence Theta* is one root
  on (0, Theta_max], Theta_max = max_k G_k(L_k): at or above it every
  group sits at L_k.  Since G(b) = (p*Q/x^2)*psi(b/x), each group's best
  response to the bandwidth price Theta (:func:`_pricing`) is b_k =
  max{L_k, x_k*psi^-1(Theta*x_k^2/(p*Q))}, one array expression.

The bounds' phi^-1 takes three guarded Newton steps from a closed-form
start, and each finite root is then raised to its hi side: walking up
from it, the first b with F(b) >= Q/Delta in floating point, so a group
at its bound always meets the deadline.  psi^-1 is six fused steps of
the fixed point t <- sqrt(a(t)/s), a(t) = psi(t)*t^2, to about 4e-15
relative.  A free group's response is b = sqrt(a*p*Q/Theta), and a
rises from 1 to 3 ln2/2 with t = b/x, so the split is a water-filling
up to a factor of at most 1.04 in Theta: with the level c at which
sum max(L_k, c) = B_max, Theta* lies between p*Q/c^2 and max_k
G_k(max(L_k, c)) (:func:`_bracket`).  Regula falsi on log Theta from
that bracket fills B_max to 1e-9 relative, from below, in about three
psi^-1 evaluations.  The energy budget is checked after the allocation
rather than dualized.

Across pairings the energy budget is dualized once, to prove that no
pairing meets it (:func:`energy_infeasible`).  Pricing bandwidth at
theta makes transmit energy pair-additive, so by weak duality (Fisher
1981) every pairing's minimum transmit energy is at least

    q(theta) = MWPM(w(theta)) - theta * B_max,
    w_ij(theta) = min_{b >= L_ij} p*Q/F_ij(b) + theta*b,

whose inner minimiser is the split's best response b* = max{L_ij,
G_ij^-1(theta)}, with the same theta_max.  q is concave in theta with
supergradient sum_M b*_ij - B_max over the minimising matching M.  The
search probes the rejected candidate's own KKT multiplier first, then
bisects log theta by the sign of that supergradient, and stops a silent
search once two tangents meet at or below the budget.  The b_min
certificate is its theta -> inf limit.
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
    "psi_inverse",
    "energy_dual",
    "energy_infeasible",
    "kkt_allocate",
    "check_feasibility",
    "evaluate_fixed_allocation",
]

# The multiplier search stops once the hi side's bandwidths use B_max up
# to 1e-9 relative; the bandwidth-sum verdict allows the same slack.
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
# changes by under 1.2 % per unit of ln t, so t <- sqrt(a(t)/s)
# contracts the error of its start 1/sqrt(s) (at most 2 %) by 0.006 a
# step: six steps reach 4e-15 relative.
_A_MAX = 1.5 * _LN2
_PSI_STEPS = 6
# The multiplier's bracket ends are widened until sum b moves by this
# share of B_max, well past its rounding and psi_inverse's.
_BRACKET_MARGIN = 1e-12
_LOG_MAX = math.log(sys.float_info.max)  # theta is capped at the largest float
_LOG_ZERO = math.log(math.ulp(0.0)) - 1.0  # below the smallest float: theta = 0

# The energy bound's search: log theta over [log theta_max - 30,
# log theta_max], bisected down to 1e-3 wide (15 halvings).
_LOG_THETA_SPAN = 30.0
_LOG_THETA_TOL = 1e-3


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
    feasible: bool
    infeasibility_reason: str | None


def _exceeds(value: float, limit: float) -> bool:
    """True when ``value`` is above ``limit`` beyond floating-point slop."""
    return value - limit > 1e-12 * max(abs(value), abs(limit), 1.0)


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
    each the root at the pair's link (:func:`b_min_user`).

    ``i`` and ``j`` are index arrays into ``users``.  A bound is +inf
    when the deadline cannot be met at any finite bandwidth
    (non-positive slack, or required rate at/above the pair's
    saturation rate).
    """
    bs = np.array([tau_bs(u, cfg) for u in users])
    rx = np.array([tau_rx(u, cfg) for u in users])
    # delta_slack's order of operations, so each slack is bit-identical.
    delta = cfg.t_max - bs[i] - rx[i] - bs[j] - rx[j]
    return b_min_user(delta, _pair_links(users, cfg, i, j), cfg.payload_bits)


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


def psi_inverse(s: np.ndarray) -> np.ndarray:
    """Elementwise t > 0 with psi(t) = s (:func:`~pairband.channel.psi`):
    G^-1(theta) at link x and pq = p*Q is x * psi_inverse(theta * x^2 / pq).

    With a(t) = psi(t)*t^2 = ln2*(log1p(u) - u + u/(t + 1))/log1p(u)^2
    and u = 1/(2t + 1), the root is the fixed point t <- sqrt(a(t)/s),
    taken in one fused step, sqrt(ln2/s)*sqrt(log1p(u) - u + u/(t +
    1))/log1p(u), six times from t = 1/sqrt(s).  The start is
    sqrt(s)/s, so t is nan where s is 0 or +inf.
    """
    t, scale = np.sqrt(s) / s, _LN2 / s
    for _ in range(_PSI_STEPS):
        log_term, slope = _log_terms(t)
        t = np.sqrt(scale * slope) / log_term
    return t


def _theta_max(lower: np.ndarray, x: np.ndarray, pq: float) -> float:
    """max G(L) of pairs with bounds ``lower``, links ``x`` and pq = p*Q:
    at or above it every pair's :func:`_pricing` response is its bound.
    Like every multiplier, it is capped at the largest float."""
    with np.errstate(all="ignore"):
        return min(float(np.max(g_value(lower, x, pq))), sys.float_info.max)


def _pricing(lower: np.ndarray, x: np.ndarray, pq: float):
    """The best response of pairs with bounds ``lower``, links ``x`` and
    pq = p*Q.  ``respond(theta)``, run under np.errstate, is (b, sum b,
    over) with b = max(L, x*psi^-1(theta*x^2/pq)), the argmin of
    p*Q/F(b) + theta*b over b >= L.  Where theta*x^2/pq leaves the float
    range, a pair sits at its bound above it (``over``) and gets +inf
    below it."""
    scale = x * x / pq

    def respond(theta: float) -> tuple[np.ndarray, float, bool]:
        s = theta * scale
        b = np.maximum(lower, x * psi_inverse(s))
        total = float(b.sum())
        if not math.isnan(total):
            return b, total, False
        lost, over = np.isnan(b), s > 1.0
        b = np.where(lost, np.where(over, lower, np.inf), b)
        return b, float(b.sum()), bool(np.any(lost & over))

    return respond


def energy_dual(users: list[UserProfile], cfg: SystemConfig, bounds: np.ndarray):
    """(q, theta_max): the Lagrangian lower bound on the transmit energy
    of every pairing, and the largest G_ij(L_ij) (:func:`_theta_max`).

    ``q(theta)`` returns the bound q(theta) and its supergradient
    s(theta) = sum of b*_ij(theta) over the minimising matching, minus
    B_max.  ``bounds`` is the N x N matrix of pair minimum bandwidths
    L_ij, +inf for pairs that may not be matched.  Every q(theta) with
    theta > 0 is a valid bound (see the module docstring); at theta >=
    theta_max each pair's price sits at its L_ij.
    """
    n = len(users)
    i, j = np.nonzero(np.triu(np.isfinite(bounds), 1))
    x = _pair_links(users, cfg, i, j)
    pq = cfg.power * cfg.payload_bits
    respond = _pricing(bounds[i, j], x, pq)

    def q(theta: float) -> tuple[float, float]:
        with np.errstate(all="ignore"):
            b = respond(theta)[0]
            w = np.full((n, n), INFEASIBLE)
            w[i, j] = w[j, i] = pq / f_value(b, x) + theta * b
        best = mwpm(PairCostMatrix(n=n, costs=w))
        if best is None:  # every matching's price overflows: no energy fits
            return math.inf, 0.0
        bands = np.zeros((n, n))
        bands[i, j] = bands[j, i] = b
        used = math.fsum(bands[u, v] for u, v in best.pairs)
        return best.total_cost - theta * cfg.b_max, used - cfg.b_max

    return q, _theta_max(bounds[i, j], x, pq)


def energy_infeasible(
    users: list[UserProfile],
    cfg: SystemConfig,
    bounds: np.ndarray,
    pairs,
    bandwidths,
) -> bool:
    """True when the Lagrangian bound proves that no pairing meets E_max.

    ``pairs`` and ``bandwidths`` are a candidate rejected for energy and
    its KKT allocation.  Its multiplier theta_1 = max_k G_k(b_k) prices
    bandwidth as that allocation does, so q(theta_1) is probed first.
    Then q (:func:`energy_dual`) is bisected on log theta over [theta_max
    * e^-30, theta_max] by the sign of its supergradient, keeping the
    nearest probes left (s > 0) and right (s < 0) of the maximiser.  The
    search returns True at the first theta whose bound exceeds the
    transmit budget E_max - e_const by more than 1e-9 relative.  It
    returns False at a zero supergradient (that probe maximises q), once
    the tangents of the two nearest probes meet at or below the budget
    (q is concave, so no theta can beat that meeting point), or once the
    bracket is under 1e-3 wide: at most 16 probes.  ``bounds`` must
    admit a perfect matching (the b_min certificate passed).
    """
    budget = cfg.e_max - e_const(users, cfg)
    margin = 1e-9 * max(abs(budget), 1.0)
    q, theta_max = energy_dual(users, cfg, bounds)
    links = _pair_links(users, cfg, *np.transpose(pairs))
    with np.errstate(all="ignore"):
        theta = float(np.max(g_value(np.array(bandwidths), links, cfg.power * cfg.payload_bits)))
    hi = math.log(theta_max)
    lo = hi - _LOG_THETA_SPAN
    # The nearest probes left and right of the maximiser, as (theta, q,
    # s).  Every probe after theta_1 lies inside the bracket, so it is
    # the nearest on its side.
    rising, falling = (0.0, 0.0, 0.0), (math.inf, 0.0, 0.0)
    while True:
        value, slope = q(theta)
        if value - budget > margin:
            return True
        if slope == 0.0:  # a zero supergradient: theta maximises q
            return False
        if slope > 0.0:
            rising, lo = (theta, value, slope), max(lo, math.log(theta))
        else:
            falling, hi = (theta, value, slope), min(hi, math.log(theta))
        (ta, qa, sa), (tb, qb, sb) = rising, falling
        # Both tangents lie above q, so where they meet caps max q.
        if sa > 0.0 > sb and qa + sa * (qb - qa + sb * (ta - tb)) / (sa - sb) - budget <= margin:
            return False
        if hi - lo < _LOG_THETA_TOL:  # also when theta_1 empties the bracket
            return False
        theta = math.exp(0.5 * (lo + hi))


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
        feasible=reason is None,
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


def _bracket(lower: np.ndarray, x: np.ndarray, pq: float, b_max: float) -> tuple[float, float]:
    """(lo, hi) in log theta with sum b(theta_lo) > B_max >= sum b(theta_hi)
    for the :func:`_pricing` response, from the water level c
    (:func:`_water_level`) and m_k = max(L_k, c), which sums to B_max.

    A group's free response to theta is b = sqrt(a(b/x)*pq/theta), with
    a = psi(t)*t^2 in [1, 3 ln2/2] and increasing in t.  At theta_lo =
    pq/c^2 every free response is c*sqrt(a) >= c, so every group takes
    at least m_k.  At theta_hi = max_k G_k(m_k) = theta_lo * max_k
    a(m_k/x_k)*(c/m_k)^2 every group takes at most m_k.  Both are
    formed in log space, where a(m/x) lost to the float range is taken
    at its bound 3 ln2/2.  Each is widened so that the free groups'
    share of B_max moves by _BRACKET_MARGIN of B_max, past the rounding
    of sum b.
    """
    level, free = _water_level(lower.tolist(), b_max)
    m = np.maximum(lower, level)
    with np.errstate(all="ignore"):
        log_term, slope = _log_terms(m / x)
        # G_k(m_k)/theta_lo = a(m_k/x_k)*(c/m_k)^2, nan where a is lost.
        ratios = _LN2 * slope / np.square(log_term * (m / level))
        rise = float(np.fmin(np.max(ratios), _A_MAX))
    lo = math.log(pq) - 2.0 * math.log(level)
    hi = lo + math.log(rise)
    margin = 2.0 * _BRACKET_MARGIN * b_max / free
    return lo - margin, hi + margin


def _multiplier(respond, b_max: float, lo: float, hi: float) -> tuple[float, list[float]]:
    """(theta*, b(theta*)) for a :func:`_pricing` response, by Illinois
    regula falsi (Dowell & Jarratt 1971) on log theta from the bracket
    [lo, hi] (:func:`_bracket`).

    Both ends are evaluated.  The bracket holds unless an end leaves the
    float range, and such an end falls back to the range's own end.  A
    hi end past the largest float, or one that overfills the band,
    becomes the largest float, which stands for every theta above it:
    every group sits at its bound (the response to theta = +inf).  A lo
    end that falls short becomes the hi side, and theta = 0, where every
    group gets +inf, becomes the lo end.  From then on sum b(theta_hi)
    <= B_max < sum b(theta_lo).  The search returns the hi side, so the
    bandwidths never overfill the band, once B_max - sum b(theta_hi) <=
    1e-9*B_max or no float theta lies strictly between the ends.  An
    end past the float range (sum b = +inf, or ``over``) has no secant
    and is bisected towards, until the ends are adjacent in log theta.
    RuntimeError after 400 steps.
    """
    with np.errstate(all="ignore"):
        for hi in (min(hi, _LOG_MAX), _LOG_MAX):
            b_hi, t_hi, over = respond(math.exp(hi) if hi < _LOG_MAX else math.inf)
            if t_hi <= b_max:
                break
        for lo in (min(lo, hi), _LOG_ZERO):
            b_lo, t_lo, over_lo = respond(math.exp(lo))
            if t_lo > b_max:
                break
            hi, b_hi, t_hi, over = lo, b_lo, t_lo, over_lo

        # The secant runs through (lo, w_lo) and (hi, w_hi), the ends'
        # excesses sum b - B_max, except that an end kept twice in a row
        # has its w halved (the Illinois rule), so neither end stalls.
        w_lo, w_hi, kept = t_lo - b_max, t_hi - b_max, 0
        for _ in range(_MAX_STEPS):
            theta_hi = math.exp(hi)
            filled = b_max - t_hi <= _BAND_TOL * b_max
            if filled or math.nextafter(math.exp(lo), math.inf) >= theta_hi:
                return theta_hi, b_hi.tolist()
            if over or math.isinf(w_lo):
                y = 0.5 * (lo + hi)
                if not lo < y < hi:
                    return theta_hi, b_hi.tolist()
            else:
                y = lo + (hi - lo) * w_lo / (w_lo - w_hi)
            b_y, t_y, over_y = respond(math.exp(y))
            if t_y > b_max:
                if kept > 0:
                    w_hi *= 0.5
                lo, w_lo, kept = y, t_y - b_max, 1
            else:
                if kept < 0:
                    w_lo *= 0.5
                hi, b_hi, t_hi, w_hi, kept, over = y, b_y, t_y, t_y - b_max, -1, over_y
    raise RuntimeError("bandwidth multiplier search did not converge")


def kkt_allocate(
    users: list[UserProfile],
    matching,
    cfg: SystemConfig,
    bounds: list[float],
) -> AllocationReport:
    """Optimal bandwidth split for one matching: the KKT multiplier
    theta* at which the groups' bandwidths fill B_max (:func:`_multiplier`).

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
            feasible=False,
            infeasibility_reason="latency",
        )

    links = _pair_links(users, cfg, *np.transpose(matching.pairs))
    sum_lower = math.fsum(lower)
    if _overfills(sum_lower, cfg.b_max):
        return _report(users, links, cfg, lower, lower)

    pq, lows = cfg.power * cfg.payload_bits, np.array(lower)
    if cfg.b_max - sum_lower <= _BAND_TOL * cfg.b_max:  # the bounds fill the band
        return _report(users, links, cfg, lower, lower, _theta_max(lows, links, pq))
    bracket = _bracket(lows, links, pq, cfg.b_max)
    theta_star, b_star = _multiplier(_pricing(lows, links, pq), cfg.b_max, *bracket)
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
