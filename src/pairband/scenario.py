"""Scenario generation and single-file serialization.

A scenario is one complete problem instance: global budgets, N user
profiles (positions, channels, compute constants), and the pairwise
distortion table.  The generator places users uniformly in a square
around a central base station, draws large-scale channels from the
distance path loss plus log-normal shadowing, draws per-user compute
parameters from documented ranges, and synthesizes distortions from the
similarity model.  Every draw comes from one seeded generator in a
fixed order, so a (template, seed) pair reproduces the scenario
bit-exactly.

Scenario files are JSON with sorted keys; floats serialize via their
shortest repr, so save/load roundtrips are exact and repeated runs are
byte-identical.  The file embeds the generator template so sweeps can
redraw fresh instances per seed under identical settings.  A
distortion table file is a scenario's ``distortion`` object saved on
its own, and one reader reads both.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .channel import gain_from_db, path_loss_db
from .distortion import DistortionTable, SimilarityModel, synthesize_distortions
from .latency_energy import SystemConfig, UserProfile

__all__ = [
    "ScenarioTemplate",
    "Scenario",
    "generate_scenario",
    "scenario_to_json",
    "scenario_from_json",
    "save_scenario",
    "load_scenario",
    "load_distortion",
]

SCHEMA_VERSION = 1

# Thermal noise PSD at -174 dBm/Hz.
NOISE_PSD_DEFAULT = 10.0 ** (-20.4)


@dataclass(frozen=True)
class ScenarioTemplate:
    """Generator settings: everything about an instance except the seed.

    Budgets b_max/t_max/e_max/d_max and the channel constants follow
    the evaluation setup; the compute constants (CPU rates, cycle
    counts, energy coefficients, model-size factors) are tool defaults
    chosen so that budgets genuinely bind for a noticeable share of
    random pairings — they are documented in the README and every one
    of them can be overridden.
    """

    n_users: int = 16
    area_m: float = 500.0
    min_dist_m: float = 10.0
    shadow_sigma_db: float = 8.0
    noise_psd: float = NOISE_PSD_DEFAULT
    group_power_w: float = 1.0
    payload_bits: float = 1.3e6
    source_bits: float = 1572864.0
    b_max: float = 5.0e6
    t_max: float = 2.65
    e_max: float = 200.0
    d_max: float = 0.98
    bs_cpu_hz: float = 3.0e9
    bs_cycles_per_bit: float = 100.0
    bs_energy_coeff: float = 4.0e-27
    cycles_per_bit: float = 100.0
    energy_coeff: float = 1.0e-27
    cpu_hz_range: tuple[float, float] = (5.0e8, 1.6e9)
    enc_params_range: tuple[float, float] = (0.95, 1.05)
    dec_params_range: tuple[float, float] = (0.6, 1.4)
    kappa: float = 5.0
    base_distortion: float = 1.0
    similarity_weight: float = 0.5
    feature_dim: int = 16

    def __post_init__(self) -> None:
        for name in ("n_users", "feature_dim"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer")
        if self.n_users < 2 or self.n_users % 2 != 0:
            raise ValueError("n_users must be even and >= 2")
        # nan passes every sign check, and the draws fail on nan or inf,
        # or on a range that is not a (low, high) pair.
        for name, value in vars(self).items():
            pair = name.endswith("_range")
            values = value if pair and isinstance(value, tuple) else (value,)
            if not all(isinstance(v, Real) and math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be a finite number")
            if len(values) != 1 + pair:
                raise ValueError(f"{name} must be a (low, high) pair")
        if self.area_m <= 0:
            raise ValueError("area_m must be positive")

    def _fill(self, cls, **given):
        """A ``cls`` whose fields take this template's values of the same
        name, except those ``given``; ``cls`` checks them."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls) if f.name not in given}, **given)

    def system_config(self) -> SystemConfig:
        """The budgets and base-station constants; every group sends at ``group_power_w``."""
        return self._fill(SystemConfig, group_powers=(self.group_power_w,) * (self.n_users // 2))

    def similarity_model(self) -> SimilarityModel:
        return self._fill(SimilarityModel)


@dataclass(frozen=True)
class Scenario:
    """One full problem instance plus the recipe that produced it.

    User k has id k, so matching pairs index ``users`` directly.
    """

    cfg: SystemConfig
    users: tuple[UserProfile, ...]
    distortions: DistortionTable
    seed: int
    template: ScenarioTemplate

    def __post_init__(self) -> None:
        _check_seed(self.seed)
        if len(self.users) != self.cfg.n_users:
            raise ValueError("user count must match cfg.n_users")
        if self.distortions.n != self.cfg.n_users:
            raise ValueError("distortion table size must match cfg.n_users")
        if any(u.id != k for k, u in enumerate(self.users)):
            raise ValueError("user ids must be 0..N-1 in order: a user is its index")
        for u in self.users:  # the rate law is nan at a link of 0 or +inf
            if not 0 < self.cfg.link(u, self.cfg.power) < math.inf:
                raise ValueError(f"user {u.id}'s link g*p/N0 must be positive and finite")


def _check_seed(seed) -> int:
    """``seed``, which every draw needs to be a non-negative integer."""
    if not isinstance(seed, Integral):
        raise ValueError("seed must be an integer")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def generate_scenario(template: ScenarioTemplate, seed: int) -> Scenario:
    """Draw one instance.  Draw order is fixed (positions, shadowing,
    CPU rates, model-size factors, then distortion features) so results
    are stable for a given (template, seed)."""
    rng = np.random.default_rng(_check_seed(seed))
    n = template.n_users
    half = template.area_m / 2.0

    positions = rng.uniform(0.0, template.area_m, size=(n, 2))
    shadowing = rng.normal(0.0, template.shadow_sigma_db, size=n)
    cpu = rng.uniform(*template.cpu_hz_range, size=n)
    enc = rng.uniform(*template.enc_params_range, size=n)
    dec = rng.uniform(*template.dec_params_range, size=n)

    users = []
    for i in range(n):
        dx, dy = positions[i, 0] - half, positions[i, 1] - half
        dist_m = max(math.hypot(dx, dy), template.min_dist_m)
        pl, sh = path_loss_db(dist_m / 1000.0), float(shadowing[i])
        users.append(
            UserProfile(
                id=i,
                position=(float(positions[i, 0]), float(positions[i, 1])),
                q_bits=template.source_bits,
                enc_params=float(enc[i]),
                dec_params=float(dec[i]),
                cpu_hz=float(cpu[i]),
                cycles_per_bit=template.cycles_per_bit,
                energy_coeff=template.energy_coeff,
                pathloss_db=pl,
                shadowing_db=sh,
                gain_linear=gain_from_db(pl, sh),
            )
        )

    table = synthesize_distortions(rng, template.similarity_model(), n)
    return Scenario(
        cfg=template.system_config(),
        users=tuple(users),
        distortions=table,
        seed=seed,
        template=template,
    )


def _from_json(cls, d: dict):
    """A ``cls`` from a JSON object, by field name; lists are read back
    as the tuples they were written from."""
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in dict(d).items()})


def scenario_to_json(scn: Scenario, tool_version: str) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": tool_version,
        "seed": scn.seed,
        "template": asdict(scn.template),
        "config": asdict(scn.cfg),
        "users": [asdict(u) for u in scn.users],
        "distortion": {
            "per_user": [list(row) for row in scn.distortions.per_user],
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _document(text: str) -> dict:
    """The JSON object in ``text``.  No field of a scenario or table file
    is boolean, and Python reads a JSON ``true`` as 1, so a boolean
    anywhere in the document is rejected; so is an integer that no
    float can hold, which the arithmetic would overflow on."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("a scenario or distortion document must be a JSON object")
    nodes = [doc]
    while nodes:
        node = nodes.pop()
        if isinstance(node, bool):
            raise ValueError(f"no field takes a boolean, got {json.dumps(node)}")
        if isinstance(node, int) and abs(node) > sys.float_info.max:
            raise ValueError("no field takes an integer past the largest float")
        nodes.extend(node.values() if isinstance(node, dict) else node if isinstance(node, list) else ())
    return doc


def _table_from_json(d: dict) -> DistortionTable:
    """A scenario's ``distortion`` object; ``null`` is a missing entry."""
    rows = d["per_user"]
    if not all(v is None or isinstance(v, Real) for row in rows for v in row):
        raise ValueError("per_user entries must be numbers or null")
    return DistortionTable(rows)


def scenario_from_json(text: str) -> Scenario:
    doc = _document(text)
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported scenario schema version: {version}")
    return Scenario(
        cfg=_from_json(SystemConfig, doc["config"]),
        users=tuple(_from_json(UserProfile, d) for d in doc["users"]),
        distortions=_table_from_json(doc["distortion"]),
        seed=doc["seed"],
        template=_from_json(ScenarioTemplate, doc["template"]),
    )


def save_scenario(scn: Scenario, path: str | Path, tool_version: str) -> None:
    Path(path).write_text(scenario_to_json(scn, tool_version))


def _load(path: str | Path, what: str, parse):
    try:
        return parse(Path(path).read_text())
    except (KeyError, TypeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid {what} file {path}: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    return _load(path, "scenario", scenario_from_json)


def load_distortion(path: str | Path) -> DistortionTable:
    """A distortion table file: a JSON object ``{"per_user": [[...], ...]}``,
    the ``distortion`` object of a scenario file saved on its own."""
    return _load(path, "distortion", lambda text: _table_from_json(_document(text)))
