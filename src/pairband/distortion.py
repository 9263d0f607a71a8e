"""Pairwise distortion tables: file ingestion and a synthetic generator.

The optimizer consumes only numbers: D_i(w_ij), user i's reconstruction
distortion when paired with user j, and the pair sum d_ij = D_i + D_j
used as the matching edge weight.  Real tables come from an offline
codec evaluation; for self-contained experiments we synthesize them
from a similarity gate — each user gets a random unit feature vector
and more-similar pairs get proportionally lower distortion:

    D_i(w_ij) = base * (1 - weight * sigmoid(kappa * cos(v_i, v_j))).

The cosine is symmetric, so each value is computed once per unordered
pair and the synthetic table is symmetric, D_i(w_ij) = D_j(w_ji).  This
mirrors the qualitative behavior that pairing semantically similar
users reconstructs better, which is all the pairing layer depends on.

A :class:`DistortionTable` is built from the per-user values alone and
derives the pair sums; it is where every table, synthesized or loaded,
is checked for missing and negative entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "DistortionTable",
    "SimilarityModel",
    "similarity_gate",
    "synthesize_distortions",
    "load_distortion_table",
    "save_distortion_table",
]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class DistortionTable:
    """Pairwise distortions for n users, built from ``per_user`` alone.

    ``per_user[i][j]`` is D_i when i is paired with j (row = whose
    distortion, column = partner).  ``n`` and the symmetric matching
    weight ``pair_sum[i][j] = per_user[i][j] + per_user[j][i]`` (zero
    diagonal) are derived.  The table is the one place distortions are
    validated: it must be square, an off-diagonal NaN is a missing entry
    and no entry may be negative; each is reported by pair.  +inf is a
    pair that every quality cap excludes.  The diagonal is unused.
    """

    per_user: np.ndarray
    n: int = field(init=False)
    pair_sum: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        pu = np.asarray(self.per_user, dtype=float)
        if pu.ndim != 2 or pu.shape[0] != pu.shape[1]:
            raise ValueError(f"a distortion table must be square, got shape {pu.shape}")
        holes = np.isnan(pu)
        np.fill_diagonal(holes, False)
        if holes.any():
            raise ValueError(f"missing distortion entries for pairs: {_pairs(holes)}")
        negative = pu < 0
        if negative.any():
            raise ValueError(f"negative distortion for pairs: {_pairs(negative)}")
        ps = pu + pu.T
        np.fill_diagonal(ps, 0.0)
        object.__setattr__(self, "per_user", pu)
        object.__setattr__(self, "n", pu.shape[0])
        object.__setattr__(self, "pair_sum", ps)


def _pairs(mask: np.ndarray) -> list[tuple[int, int]]:
    return [(int(i), int(j)) for i, j in np.argwhere(mask)]


@dataclass(frozen=True)
class SimilarityModel:
    """Parameters of the synthetic distortion generator."""

    kappa: float = 5.0
    base_distortion: float = 1.0
    similarity_weight: float = 0.5
    feature_dim: int = 16

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.base_distortion <= 0:
            raise ValueError("base_distortion must be positive")
        if not 0.0 <= self.similarity_weight < 1.0:
            raise ValueError(
                "similarity_weight must be in [0, 1) — at 1 the gate could "
                "drive distortion to zero or below"
            )
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")


def similarity_gate(cos_sim: float, kappa: float) -> float:
    """Logistic gate sigma(kappa * cos_sim) in (0, 1)."""
    if not -1.0 <= cos_sim <= 1.0:
        raise ValueError(f"cosine similarity must lie in [-1, 1], got {cos_sim}")
    return 1.0 / (1.0 + math.exp(-kappa * cos_sim))


def distortions_from_features(features: np.ndarray, model: SimilarityModel) -> DistortionTable:
    """Map unit feature vectors (one row per user) to a distortion table:
    lower distortion for more-aligned pairs."""
    n = features.shape[0]
    if n % 2 != 0:
        raise ValueError("n must be even")
    i, j = np.triu_indices(n, 1)
    # The same BLAS dot as features[i] @ features[j]; F @ F.T sums in another order.
    dots = np.matmul(features[i][:, None, :], features[j][:, :, None])[:, 0, 0]
    gates = [similarity_gate(cos, model.kappa) for cos in np.clip(dots, -1.0, 1.0).tolist()]
    per_user = np.zeros((n, n))
    per_user[i, j] = per_user[j, i] = model.base_distortion * (
        1.0 - model.similarity_weight * np.array(gates)
    )
    return DistortionTable(per_user)


def synthesize_distortions(
    rng: np.random.Generator, model: SimilarityModel, n: int
) -> DistortionTable:
    """Similarity-driven synthetic table: one unit feature vector per
    user, deterministic under the generator's seed."""
    feats = rng.normal(size=(n, model.feature_dim))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    return distortions_from_features(feats, model)


def save_distortion_table(table: DistortionTable, path: str | Path, units: str = "mse") -> None:
    """Write the table as versioned text; floats via repr so that a
    save/load roundtrip is bit-exact."""
    lines = [
        f"version {_FORMAT_VERSION}",
        f"n {table.n}",
        f"units {units}",
    ]
    for i in range(table.n):
        for j in range(i + 1, table.n):
            lines.append(
                f"{i} {j} {float(table.per_user[i, j])!r} {float(table.per_user[j, i])!r}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def load_distortion_table(source: str | Path) -> DistortionTable:
    """Parse a distortion table file.

    Grammar (one item per line, '#' starts a comment):
        version 1
        n <even int>
        units <word>
        <i> <j> <D_i_given_j> <D_j_given_i>    (one line per unordered pair)

    Rows may list the pair in either order.  Malformed or non-numeric
    rows, out-of-range indices and duplicates are rejected here;
    missing pairs and negative values are rejected, by pair, by
    :class:`DistortionTable`.
    """
    text = Path(source).read_text()
    header: dict[str, str] = {}
    rows: list[tuple[int, int, float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in ("version", "n", "units"):
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed header {raw!r}")
            header[parts[0]] = parts[1]
            continue
        if len(parts) != 4:
            raise ValueError(
                f"line {lineno}: expected 'i j D_i_given_j D_j_given_i', got {raw!r}"
            )
        try:
            i, j = int(parts[0]), int(parts[1])
            dij, dji = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric entry in {raw!r}") from exc
        rows.append((i, j, dij, dji))

    for key in ("version", "n"):
        if key not in header:
            raise ValueError(f"missing '{key}' header")
    if int(header["version"]) != _FORMAT_VERSION:
        raise ValueError(f"unsupported format version {header['version']}")
    n = int(header["n"])
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")

    per_user = np.full((n, n), np.nan)
    np.fill_diagonal(per_user, 0.0)
    seen: set[tuple[int, int]] = set()
    for i, j, dij, dji in rows:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ValueError(f"invalid pair ({i}, {j}) for n={n}")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ValueError(f"duplicate entry for pair ({i}, {j})")
        seen.add(pair)
        per_user[i, j] = dij
        per_user[j, i] = dji
    return DistortionTable(per_user)
