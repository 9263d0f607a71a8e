"""Channel model: path loss, shadowing, and the per-group rate function.

The downlink serves users in pairs over a shared band.  Each group's
achievable per-user rate is a concave function of the group bandwidth,

    F(b) = b * log2(1 + g*p / (2*N0*b + g*p)) = b * log2(1 + x / (2b + x)),

where ``g`` is the user's linear power gain, ``p`` the group transmit
power and ``N0`` the noise power spectral density.  The rate depends on
them only through the link x = g*p/N0 [Hz], so every function here
takes x.  The denominator term ``x`` models intra-pair superposition
interference, which is why F saturates at the finite limit x / (2 ln 2)
instead of growing without bound.

Everything downstream (minimum-bandwidth roots, the water-filling
multiplier search) leans on three analytic facts proved here and checked
in the test-suite: F is strictly increasing, strictly concave, and the
gradient map G(b) = p*Q*F'(b)/F(b)^2 is strictly decreasing.  F also
grows with x at every b, so of the two users sharing a group the one
with the smaller x is the slower one at every bandwidth.

The law itself is one universal function of t = b/x: F(b) = x*phi(b/x),
F'(b) = phi'(b/x) and G(b) = (p*Q/x^2)*psi(b/x), with phi(t) =
t*log2(1 + 1/(2t + 1)) and psi = phi'/phi^2.  Every function here is
elementwise, on scalars or numpy arrays, so a whole matching's or every
pair's rates are one call.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "path_loss_db",
    "gain_from_db",
    "f_value",
    "f_prime",
    "f_limit",
    "g_value",
    "phi",
    "psi",
]

_LN2 = math.log(2.0)

# log1p(u) - u = u^2 * sum_k (-1)^(k+1) u^(k-2)/k; below _SERIES_BELOW the
# terms k = 2..10 leave a tail under 1e-18 of the sum.
_SERIES_BELOW = 1e-2
_SERIES = tuple((-1.0) ** (k + 1) / k for k in range(10, 1, -1))
# Above this t, 2t overflows.
_WIDE = 0.5 * sys.float_info.max


def path_loss_db(distance_km: float) -> float:
    """Distance-dependent path loss in dB: 128.1 + 37.6*log10(d_km)."""
    if distance_km <= 0:
        raise ValueError(f"distance must be positive, got {distance_km}")
    return 128.1 + 37.6 * math.log10(distance_km)


def gain_from_db(pathloss_db: float, shadowing_db: float) -> float:
    """Linear power gain |h|^2 from total attenuation in dB (+inf past the float range)."""
    try:
        return 10.0 ** (-(pathloss_db + shadowing_db) / 10.0)
    except OverflowError:
        return math.inf


def f_value(b, x):
    """Per-user rate F(b) = b*log2(1 + x/(2b + x)) = x*phi(b/x) in bits/s,
    for the link x = g*p/N0 [Hz], elementwise over scalars or arrays.

    F(0) = 0, so downstream brackets never need a special case.
    """
    # count_nonzero, not np.any: on a scalar np.any costs several times
    # the rest of the call.
    if np.count_nonzero(b < 0):
        raise ValueError("bandwidth must be non-negative")
    with np.errstate(over="ignore"):  # b/x past the float range is +inf
        t = b / x
    return x * phi(t)


def f_prime(b, x):
    """Derivative F'(b) = phi'(b/x) > 0, elementwise over scalars or arrays.

    F'(b) = log2((2b + 2x)/(2b + x)) - 2b*x / (ln2 * (2b + 2x) * (2b + x)).
    """
    if np.count_nonzero(b <= 0):
        raise ValueError("bandwidth must be positive")
    return _phi_prime(b / x)


def f_limit(x: float) -> float:
    """Saturation rate lim_{b->inf} F(b) = x / (2 ln 2) in bits/s."""
    return x / (2.0 * _LN2)


def g_value(b, x, pq):
    """Gradient map G(b) = p*Q*F'(b)/F(b)^2 = (pq/x^2)*psi(b/x), strictly
    decreasing in b, elementwise over scalars or arrays.

    This is -d/db [p*Q/F(b)] with ``pq`` = p*Q, the marginal energy
    saving of widening the group's band; the water-filling allocator
    equalizes it across groups.
    """
    if np.count_nonzero(b <= 0):
        raise ValueError("bandwidth must be positive")
    return pq / (x * x) * psi(b / x)


def _log1p_minus_series(u):
    """log1p(u) - u from its series, for u below _SERIES_BELOW."""
    series = 0.0
    for c in _SERIES:
        series = c + u * series
    return u * u * series


def _log_terms(t):
    """(log1p(u), log1p(u) - u + u/(t + 1)) with u = 1/(2t + 1), which
    are ln2*phi(t)/t and ln2*phi'(t).

    In the wide band log1p(u) and u nearly cancel, so their difference
    comes from its series wherever u is below _SERIES_BELOW; the series
    is evaluated only when some u is.
    """
    u = 1.0 / (2.0 * t + 1.0)
    log_term = np.log1p(u)
    head = log_term - u
    small = u < _SERIES_BELOW
    if np.count_nonzero(small):
        head = np.where(small, _log1p_minus_series(u), head)
    return log_term, head + u / (t + 1.0)


def _phi_prime(t):
    """phi'(t) = (log1p(u) - u + u/(t + 1))/ln2 with u = 1/(2t + 1)."""
    return _log_terms(t)[1] / _LN2


def phi(t):
    """phi(t) = t*log2(1 + 1/(2t + 1)), the rate at link 1 and bandwidth
    t, elementwise: F(b, x) = x*phi(b/x).  Where 2t overflows (t = +inf
    included) phi is its limit 1/(2 ln 2); that case is handled only
    when some t is there."""
    wide = t > _WIDE
    if np.count_nonzero(wide):
        return np.where(wide, f_limit(1.0), phi(np.where(wide, 1.0, t)))
    return t * np.log1p(1.0 / (2.0 * t + 1.0)) / _LN2


def psi(t):
    """psi(t) = phi'(t)/phi(t)^2, elementwise on t > 0:
    G(b, x, pq) = (pq/x^2)*psi(b/x), strictly decreasing like G."""
    return _phi_prime(t) / np.square(phi(t))
