"""Bandwidth feasibility and KKT water-filling allocation.

Given a fixed pairing, the remaining problem is to split B_max across
the K groups so that total transmit energy  sum_k p * xi_k(b_k)  is
minimized, where xi_k(b) = max{Q/F_i(b), Q/F_j(b)} is the airtime of the
group's slower user.  The rate depends on a user only through its link
x = g*p/N0 and grows with it, so the slower user is the one with the
smaller link at every bandwidth, and every pair-level quantity below is
computed at the pair's link
(:func:`~pairband.latency_energy.pair_link`), with F, G meaning the rate
and gradient there.  Three structural facts make this easy:

* The latency budget turns into a per-group lower bound L_k: the unique
  root of F(b) = Q/Delta (F is strictly increasing with a finite
  asymptote, so the root exists iff Q/Delta < f_limit and Delta > 0).

* xi_k = Q/F is differentiable with -d/db [p*Q/F(b)] = G(b) strictly
  decreasing, so the KKT system reduces to a single multiplier Theta:
  b_k* = max{L_k, G_k^-1(Theta*)}, with Theta* chosen so the
  bandwidths sum to B_max.

* sum_k b_k(Theta) is non-increasing in Theta, hence Theta* is found by
  plain bisection on (0, Theta_max], Theta_max = max_k G_k(L_k): at or
  above it every group sits at L_k.

All root-finding is bracketed bisection: inner roots to 1e-12 relative,
the outer multiplier to 1e-9 relative, so the inner solves always
out-resolve the outer one.  The energy budget is checked after the
allocation rather than dualized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import f_limit, f_value, g_value
from .latency_energy import SystemConfig, UserProfile, delta_slack, e_const, pair_link

__all__ = [
    "AllocationReport",
    "b_min_user",
    "b_min_pair",
    "g_inverse",
    "kkt_allocate",
    "check_feasibility",
    "evaluate_fixed_allocation",
]

# Bisection tolerances: inner roots must out-resolve the outer multiplier.
_INNER_REL_TOL = 1e-12
_OUTER_REL_TOL = 1e-9
_MAX_DOUBLINGS = 60
_MAX_BISECT = 400


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


def _bisect(left_of_root, lo: float, hi: float, what: str) -> tuple[float, float]:
    """Bracket and bisect the root of a monotone predicate.

    ``left_of_root(b)`` is true below the root and false above it.
    Halves ``lo`` until it is left of the root and doubles ``hi`` until
    it is not, then bisects to 1e-12 relative.  Raises RuntimeError
    naming ``what`` when either end cannot be pushed past the root.
    """
    for _ in range(_MAX_DOUBLINGS):
        if left_of_root(lo):
            break
        lo *= 0.5
    else:
        raise RuntimeError(f"{what}: bracket expansion failed, root below {lo!r}")
    for _ in range(_MAX_DOUBLINGS):
        if not left_of_root(hi):
            break
        hi *= 2.0
    else:
        raise RuntimeError(f"{what}: bracket expansion failed, root above {hi!r}")

    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if left_of_root(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo <= _INNER_REL_TOL * hi:
            break
    return lo, hi


def b_min_user(
    delta: float,
    x: float,
    payload_bits: float,
    b_hint: float = 1.0e6,
) -> float:
    """Unique root of F(b) = Q/delta at link ``x``, or +inf when no root
    exists.

    The root exists iff delta > 0 and Q/delta < f_limit (the required
    rate must sit below the saturation rate).  Found by bracketed
    bisection to 1e-12 relative on b; ``b_hint`` seeds the upper
    bracket (doubled as needed).  F(b) < b, so the root lies above
    Q/delta and the bracket starts no higher than that.
    """
    if delta <= 0.0:
        return math.inf
    target = payload_bits / delta
    if target >= f_limit(x):
        return math.inf
    _, hi = _bisect(
        lambda b: f_value(b, x) < target,
        min(1.0, target),
        max(2.0, b_hint),
        "b_min_user",
    )
    return hi


def b_min_pair(i: UserProfile, j: UserProfile, cfg: SystemConfig) -> float:
    """Minimum bandwidth pair (i, j) needs to meet the deadline: the
    root at the pair's link.

    +inf when the deadline cannot be met at any finite bandwidth
    (non-positive slack, or required rate at/above the pair's
    saturation rate).
    """
    x = pair_link(i, j, cfg)
    return b_min_user(delta_slack(i, j, cfg), x, cfg.payload_bits, cfg.b_max)


def g_inverse(
    theta: float,
    x: float,
    pq: float,
    b_hint: float = 1.0e6,
) -> float:
    """Unique b with G(b) = theta (G strictly decreasing) at link ``x``
    and ``pq`` = p*Q, by bisection.

    Raises RuntimeError with a diagnostic if the bracket cannot be
    expanded to contain the root.
    """
    if theta <= 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    lo, hi = _bisect(
        lambda b: g_value(b, x, pq) >= theta,
        1.0,
        max(2.0, b_hint),
        "g_inverse",
    )
    return 0.5 * (lo + hi)


def _xi(b: float, x: float, Q: float) -> float:
    """Group airtime xi(b) = Q/F(b) at the pair's link x [s]."""
    fv = f_value(b, x)
    if fv <= 0.0:
        return math.inf
    return Q / fv


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
    p = cfg.power
    obj = math.fsum(
        p * _xi(b, x, cfg.payload_bits) for x, b in zip(links, bandwidths)
    )
    used = math.fsum(bandwidths)
    fixed = e_const(users, cfg)
    reason = None
    if any(b < lb * (1.0 - 1e-12) for b, lb in zip(bandwidths, lower)):
        reason = "latency"  # covers infeasible pairs too (b_min = inf)
    elif used > cfg.b_max * (1.0 + _OUTER_REL_TOL):
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


def kkt_allocate(
    users: list[UserProfile],
    matching,
    cfg: SystemConfig,
    bounds: list[float],
) -> AllocationReport:
    """Optimal bandwidth split for one matching via multiplier bisection.

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

    links = [pair_link(users[a], users[b], cfg) for a, b in matching.pairs]
    pq = cfg.power * cfg.payload_bits
    sum_lower = math.fsum(lower)

    if sum_lower > cfg.b_max * (1.0 + _OUTER_REL_TOL):
        return _report(users, links, cfg, lower, lower)

    # Theta_max: the largest gradient value any group attains at its
    # lower bound; above it every group sits at L_k.
    theta_max = max(g_value(lb, x, pq) for lb, x in zip(lower, links))

    if cfg.b_max - sum_lower <= _OUTER_REL_TOL * cfg.b_max:
        # Degenerate corner: the lower bounds already exhaust the band.
        b_star = list(lower)
        theta_star = theta_max
    else:
        def allocation_at(theta: float) -> list[float]:
            return [
                max(lb, g_inverse(theta, x, pq, cfg.b_max))
                for lb, x in zip(lower, links)
            ]

        total_at = lambda th: sum(allocation_at(th))
        hi = theta_max
        lo = 0.5 * theta_max
        for _ in range(_MAX_BISECT):
            if total_at(lo) >= cfg.b_max:
                break
            lo *= 0.5
        else:
            raise RuntimeError("could not bracket the bandwidth multiplier from below")

        # Invariant: total(hi) <= B_max <= total(lo); shrink until the
        # hi-side allocation uses the band up to tolerance, then return
        # that side so sum(b) never exceeds B_max.
        t_hi = total_at(hi)
        for _ in range(_MAX_BISECT):
            if cfg.b_max - t_hi <= _OUTER_REL_TOL * cfg.b_max:
                break
            mid = 0.5 * (lo + hi)
            t_mid = total_at(mid)
            if t_mid >= cfg.b_max:
                lo = mid
            else:
                hi, t_hi = mid, t_mid
        else:
            raise RuntimeError("bandwidth multiplier bisection did not converge")

        theta_star = hi
        b_star = allocation_at(theta_star)

    return _report(users, links, cfg, lower, b_star, theta_star)


def check_feasibility(users: list[UserProfile], matching, cfg: SystemConfig) -> AllocationReport:
    """Latency bounds + KKT allocation + energy check for one matching.

    Never raises on infeasibility; every failure mode is encoded in the
    report (reason \"latency\" when any pair cannot meet the deadline at
    any bandwidth).  ``matching.pairs`` index ``users``.
    """
    bounds = [b_min_pair(users[a], users[b], cfg) for a, b in matching.pairs]
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
    draws.
    """
    links = [pair_link(users[a], users[b], cfg) for a, b in matching.pairs]
    return _report(users, links, cfg, bounds, bandwidths)
