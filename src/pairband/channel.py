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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ChannelGain",
    "path_loss_db",
    "gain_from_db",
    "f_value",
    "f_prime",
    "f_limit",
    "g_value",
]

_LN2 = math.log(2.0)


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


def f_prime(b: float, x: float) -> float:
    """Closed-form derivative F'(b) > 0.

    F'(b) = log2((2b + 2x)/(2b + x)) - 2b*x / (ln2 * (2b + 2x) * (2b + x))
    """
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    b2 = 2.0 * b
    # log((b2 + 2x)/(b2 + x)) = log1p(x/(b2 + x))
    log_term = math.log1p(x / (b2 + x)) / _LN2
    frac_term = (b2 * x) / (_LN2 * (b2 + 2.0 * x) * (b2 + x))
    return log_term - frac_term


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
