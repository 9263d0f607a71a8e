"""Per-user and per-group delay and energy accounting.

Serving one pair (i, j) takes the base station's encode time for both
images, one over-the-air transmit phase (the slower of the two users,
since both payloads ride the same superimposed signal), and both users'
decode times:

    T_k = tau_bs_i + tau_bs_j + max{t_i, t_j} + tau_rx_i + tau_rx_j.

Only the transmit term depends on bandwidth, so the latency budget
T_max reduces to a slack Delta_ij = T_max - (sum of compute delays)
that max{t_i, t_j} must fit into.  The rate depends on a user only
through the link x = g*p/N0 (:meth:`SystemConfig.link`) and grows with
it, so that max is always the airtime at the pair's link, the smaller
of its users' links (:func:`pair_link`), which is what the bandwidth
layer computes with; the two-user forms below are kept as the
independent re-check.  Similarly, compute energy is fixed
once the user set is known (it does not depend on the matching), which
lets the solver fold it into a constant offset and budget only the
transmit energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

from .channel import ChannelGain, f_value

__all__ = [
    "UserProfile",
    "SystemConfig",
    "tau_bs",
    "tau_rx",
    "delta_slack",
    "pair_link",
    "transmit_time",
    "group_time",
    "e_const",
    "transmit_energy",
]


@dataclass(frozen=True)
class UserProfile:
    """Static per-user parameters.

    q_bits is the source image size handled at the base station;
    enc_params / dec_params are the (dimensionless) per-bit workload
    scale factors of the encoder and decoder halves of the model;
    cpu_hz, cycles_per_bit and energy_coeff describe the user device.
    noise_psd, if set, overrides the system-wide value for this user.
    """

    id: int
    position: tuple[float, float]
    q_bits: float
    enc_params: float
    dec_params: float
    cpu_hz: float
    cycles_per_bit: float
    energy_coeff: float
    channel: ChannelGain
    noise_psd: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.id, Integral):
            raise ValueError("id must be an integer")
        for name in ("q_bits", "cpu_hz", "cycles_per_bit"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("enc_params", "dec_params", "energy_coeff"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if self.noise_psd is not None and not 0 < self.noise_psd < math.inf:
            raise ValueError("noise_psd must be None or positive and finite")


@dataclass(frozen=True)
class SystemConfig:
    """Global budgets and base-station constants.

    group_powers holds one entry per group (N/2 of them), all equal:
    every group transmits at the one power :attr:`power`.  Budgets are
    B^max [Hz], T^max [s], E^max [J], D^max [distortion units].
    """

    n_users: int
    b_max: float
    t_max: float
    e_max: float
    d_max: float
    noise_psd: float
    payload_bits: float
    bs_cpu_hz: float
    bs_cycles_per_bit: float
    bs_energy_coeff: float
    group_powers: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.n_users, Integral):
            raise ValueError("n_users must be an integer")
        if self.n_users < 2 or self.n_users % 2 != 0:
            raise ValueError("n_users must be even and >= 2")
        for name in ("b_max", "t_max", "e_max", "d_max", "noise_psd", "payload_bits",
                     "bs_cpu_hz", "bs_cycles_per_bit"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.bs_energy_coeff < math.inf:
            raise ValueError("bs_energy_coeff must be non-negative and finite")
        if len(self.group_powers) != self.n_users // 2:
            raise ValueError("group_powers must have one entry per group (N/2)")
        if not all(0 < p < math.inf for p in self.group_powers):
            raise ValueError("group powers must be positive and finite")
        if len(set(self.group_powers)) != 1:
            raise ValueError("group_powers must be equal: every group transmits at one power")

    @property
    def power(self) -> float:
        """The transmit power p [W] every group uses."""
        return self.group_powers[0]

    def link(self, user: UserProfile, power: float) -> float:
        """The link x = g*p/N0 [Hz] of ``user`` at ``power``, with N0 the
        user's own noise PSD if set, else the global one."""
        noise = user.noise_psd if user.noise_psd is not None else self.noise_psd
        return user.channel.gain_linear * power / noise


def tau_bs(user: UserProfile, cfg: SystemConfig) -> float:
    """BS-side encode delay chi_BS * q_i * Gamma(theta_i) / f_BS [s]."""
    return cfg.bs_cycles_per_bit * user.q_bits * user.enc_params / cfg.bs_cpu_hz


def tau_rx(user: UserProfile, cfg: SystemConfig) -> float:
    """Receiver-side decode delay chi_i * Q * Gamma(phi_i) / f_i [s]."""
    return user.cycles_per_bit * cfg.payload_bits * user.dec_params / user.cpu_hz


def delta_slack(i: UserProfile, j: UserProfile, cfg: SystemConfig) -> float:
    """Latency slack left for the transmit phase of pair (i, j).

    Delta_ij = T^max - tau_bs_i - tau_rx_i - tau_bs_j - tau_rx_j.
    May be <= 0, in which case the pair can never meet the deadline.
    """
    return cfg.t_max - tau_bs(i, cfg) - tau_rx(i, cfg) - tau_bs(j, cfg) - tau_rx(j, cfg)


def pair_link(i: UserProfile, j: UserProfile, cfg: SystemConfig) -> float:
    """The link of pair (i, j): the smaller of its users' links.

    F grows with x at every bandwidth, so the rate at this link is the
    pair's rate: its minimum-bandwidth root, gradient inverse and
    airtime are the pair's.
    """
    return min(cfg.link(i, cfg.power), cfg.link(j, cfg.power))


def transmit_time(b: float, user: UserProfile, power: float, cfg: SystemConfig) -> float:
    """Airtime Q / F_u(b) for one user [s]; inf when the rate is zero."""
    if b <= 0:
        return math.inf
    fv = float(f_value(b, cfg.link(user, power)))  # Q/fv overflows to inf silently
    if fv <= 0.0:
        return math.inf
    return cfg.payload_bits / fv


def group_time(
    pair: tuple[UserProfile, UserProfile], b: float, power: float, cfg: SystemConfig
) -> float:
    """End-to-end serving time of a pair at bandwidth b [s]."""
    i, j = pair
    t_air = max(
        transmit_time(b, i, power, cfg),
        transmit_time(b, j, power, cfg),
    )
    return tau_bs(i, cfg) + tau_bs(j, cfg) + t_air + tau_rx(i, cfg) + tau_rx(j, cfg)


def _compute_energy(coeff: float, hz: float, cycles: float, bits: float, params: float) -> float:
    """coeff * hz^2 * cycles * bits * params [J]: +inf where hz^2 passes
    the largest float, unless another factor is zero."""
    try:
        return coeff * hz**2 * cycles * bits * params
    except OverflowError:
        return math.inf if coeff and cycles and bits and params else 0.0


def e_const(users: list[UserProfile], cfg: SystemConfig) -> float:
    """Total compute energy over all users [J].

    Every user is encoded once and decodes once no matter how the pairs
    are formed, so this sum is matching-invariant and can be subtracted
    from the energy budget up front.
    """
    return sum(
        _compute_energy(cfg.bs_energy_coeff, cfg.bs_cpu_hz, cfg.bs_cycles_per_bit, u.q_bits, u.enc_params)
        + _compute_energy(u.energy_coeff, u.cpu_hz, u.cycles_per_bit, cfg.payload_bits, u.dec_params)
        for u in users
    )


def transmit_energy(
    pair: tuple[UserProfile, UserProfile], b: float, power: float, cfg: SystemConfig
) -> float:
    """Radiated energy p_k * max{t_i, t_j} for one pair [J]."""
    i, j = pair
    t_air = max(
        transmit_time(b, i, power, cfg),
        transmit_time(b, j, power, cfg),
    )
    return power * t_air
