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

Both scale out of the link: F(b) = x*phi(b/x) and G(b) = (p*Q/x^2) *
psi(b/x), with the universal phi(t) = t*log2(1 + 1/(2t + 1)) and psi =
phi'/phi^2.  :func:`phi` and :func:`psi` evaluate them on arrays, for
the energy bound that prices every pair at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelGain",
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


def path_loss_db(distance_km: float) -> float:
    """Distance-dependent path loss in dB: 128.1 + 37.6*log10(d_km)."""
    if distance_km <= 0:
        raise ValueError(f"distance must be positive, got {distance_km}")
    return 128.1 + 37.6 * math.log10(distance_km)


def gain_from_db(pathloss_db: float, shadowing_db: float) -> float:
    """Linear power gain |h|^2 from total attenuation in dB."""
    return 10.0 ** (-(pathloss_db + shadowing_db) / 10.0)


@dataclass(frozen=True)
class ChannelGain:
    """One user's large-scale channel state.

    ``gain_linear`` is the linear power gain |h|^2 and always equals
    10^(-(pathloss_db + shadowing_db)/10).
    """

    pathloss_db: float
    shadowing_db: float
    gain_linear: float

    @classmethod
    def from_db(cls, pathloss_db: float, shadowing_db: float = 0.0) -> "ChannelGain":
        return cls(pathloss_db, shadowing_db, gain_from_db(pathloss_db, shadowing_db))

    def __post_init__(self) -> None:
        if not 0 < self.gain_linear < math.inf:
            raise ValueError("gain_linear must be positive and finite")


def f_value(b: float, x: float) -> float:
    """Per-user rate F(b) = b*log2(1 + x/(2b + x)) in bits/s, for the
    link x = g*p/N0 [Hz].

    Continuously extended to 0 at b = 0 so downstream bisection brackets
    never need a special case.
    """
    if b < 0:
        raise ValueError("bandwidth must be non-negative")
    if b == 0.0:
        return 0.0
    # log1p keeps precision when b is huge and x/(2b + x) is tiny.
    return b * math.log1p(x / (2.0 * b + x)) / _LN2


def _log1p_minus_series(u):
    """log1p(u) - u from its series, for u below _SERIES_BELOW (scalar or
    array)."""
    series = 0.0
    for c in _SERIES:
        series = c + u * series
    return u * u * series


def f_prime(b: float, x: float) -> float:
    """Closed-form derivative F'(b) > 0.

    F'(b) = log2((2b + 2x)/(2b + x)) - 2b*x / (ln2 * (2b + 2x) * (2b + x)),
    computed as ln2*F' = (log1p(u) - u) + u*x/(b + x) with u = x/(2b + x):
    in the wide band both forms' two terms nearly cancel, and this one
    takes the small difference log1p(u) - u from its series.
    """
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    u = x / (2.0 * b + x)
    head = _log1p_minus_series(u) if u < _SERIES_BELOW else math.log1p(u) - u
    return (head + u * x / (b + x)) / _LN2


def f_limit(x: float) -> float:
    """Saturation rate lim_{b->inf} F(b) = x / (2 ln 2) in bits/s."""
    return x / (2.0 * _LN2)


def g_value(b: float, x: float, pq: float) -> float:
    """Gradient map G(b) = p*Q*F'(b)/F(b)^2, strictly decreasing in b.

    This is -d/db [p*Q/F(b)] with ``pq`` = p*Q, the marginal energy
    saving of widening the group's band; the water-filling allocator
    equalizes it across groups.
    """
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    fv = f_value(b, x)
    return pq * f_prime(b, x) / (fv * fv)


def phi(t):
    """phi(t) = t*log2(1 + 1/(2t + 1)), the rate at link 1 and bandwidth
    t, elementwise on an array of t > 0: F(b, x) = x*phi(b/x)."""
    return t * np.log1p(1.0 / (2.0 * t + 1.0)) / _LN2


def psi(t):
    """psi(t) = phi'(t)/phi(t)^2, elementwise on an array of t > 0:
    G(b, x, pq) = (pq/x^2)*psi(b/x), strictly decreasing like G."""
    u = 1.0 / (2.0 * t + 1.0)
    log_term = np.log1p(u)
    head = np.where(u < _SERIES_BELOW, _log1p_minus_series(u), log_term - u)
    # phi' = (head + u/(t + 1))/ln2 and phi = t*log_term/ln2.
    return _LN2 * (head + u / (t + 1.0)) / (t * log_term) ** 2
