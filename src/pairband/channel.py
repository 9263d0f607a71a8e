"""Channel model: path loss, shadowing, and the per-group rate function.

The downlink serves users in pairs over a shared band.  Each group's
achievable per-user rate is a concave function of the group bandwidth,

    F(b) = b * log2(1 + g*p / (2*N0*b + g*p)),

where ``g`` is the user's linear power gain, ``p`` the group transmit
power and ``N0`` the noise power spectral density.  The denominator term
``g*p`` models intra-pair superposition interference, which is why F
saturates at the finite limit g*p / (2*N0*ln 2) instead of growing
without bound.

Everything downstream (minimum-bandwidth roots, the water-filling
multiplier search) leans on three analytic facts proved here and checked
in the test-suite: F is strictly increasing, strictly concave, and the
gradient map G(b) = p*Q*F'(b)/F(b)^2 is strictly decreasing.  F also
grows with g/N0 at every b, so of the two users sharing a group the one
with the smaller g/N0 is the slower one at every bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ChannelGain",
    "RateParams",
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
        if not self.gain_linear > 0:
            raise ValueError("gain_linear must be positive")


@dataclass(frozen=True)
class RateParams:
    """Link parameters of the rate expression for one user in one group.

    power p_k [W], gain |h_u|^2 [linear], noise PSD N0 [W/Hz]; the
    bandwidth is the argument of the rate functions.
    """

    power: float
    gain_linear: float
    noise_psd: float

    def __post_init__(self) -> None:
        if self.power <= 0:
            raise ValueError("power must be positive")
        if self.noise_psd <= 0:
            raise ValueError("noise_psd must be positive")
        if self.gain_linear <= 0:
            raise ValueError("gain_linear must be positive")


def f_value(b: float, params: RateParams) -> float:
    """Per-user rate F(b) = b*log2(1 + g*p/(2*N0*b + g*p)) in bits/s.

    Continuously extended to 0 at b = 0 so downstream bisection brackets
    never need a special case.
    """
    if b < 0:
        raise ValueError("bandwidth must be non-negative")
    if b == 0.0:
        return 0.0
    hp = params.gain_linear * params.power
    # log2(1 + x) with x = hp / (2*N0*b + hp); log1p keeps precision when
    # b is huge and x is tiny.
    x = hp / (2.0 * params.noise_psd * b + hp)
    return b * math.log1p(x) / _LN2


def f_prime(b: float, params: RateParams) -> float:
    """Closed-form derivative F'(b) > 0.

    F'(b) = log2((2*N0*b + 2*g*p)/(2*N0*b + g*p))
            - 2*N0*b*g*p / (ln2 * (2*N0*b + 2*g*p) * (2*N0*b + g*p))
    """
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    hp = params.gain_linear * params.power
    n0b = 2.0 * params.noise_psd * b
    # log((n0b + 2hp)/(n0b + hp)) = log1p(hp/(n0b + hp))
    log_term = math.log1p(hp / (n0b + hp)) / _LN2
    frac_term = (n0b * hp) / (_LN2 * (n0b + 2.0 * hp) * (n0b + hp))
    return log_term - frac_term


def f_limit(params: RateParams) -> float:
    """Saturation rate lim_{b->inf} F(b) = g*p / (2*N0*ln 2) in bits/s."""
    return params.gain_linear * params.power / (2.0 * params.noise_psd * _LN2)


def g_value(b: float, payload_bits: float, params: RateParams) -> float:
    """Gradient map G(b) = p*Q*F'(b)/F(b)^2, strictly decreasing in b.

    This is -d/db [p*Q/F(b)] with p = params.power, the marginal energy
    saving of widening the group's band; the water-filling allocator
    equalizes it across groups.
    """
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    fv = f_value(b, params)
    return params.power * payload_bits * f_prime(b, params) / (fv * fv)
