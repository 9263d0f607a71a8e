"""Pairwise distortion tables and a synthetic generator.

The optimizer consumes only numbers: D_i(w_ij), user i's reconstruction
distortion when paired with user j, and the pair sum d_ij = D_i + D_j
used as the matching edge weight.  Real tables come from an offline
codec evaluation and are read as a scenario's ``distortion`` block
(:func:`pairband.scenario.load_distortion`); for self-contained
experiments we synthesize them
from a similarity gate — each user gets a random unit feature vector
and more-similar pairs get proportionally lower distortion:

    D_i(w_ij) = base * (1 - weight * sigmoid(kappa * cos(v_i, v_j))).

The cosine is symmetric, so each value is computed once per unordered
pair and the synthetic table is symmetric, D_i(w_ij) = D_j(w_ji).  This
mirrors the qualitative behavior that pairing semantically similar
users reconstructs better, which is all the pairing layer depends on.

A :class:`DistortionTable` is built from the per-user values alone and
derives the pair sums; it is where every table, synthesized or read
from a file, is checked for missing and negative entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DistortionTable",
    "SimilarityModel",
    "similarity_gate",
    "synthesize_distortions",
]


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
        with np.errstate(over="ignore"):  # a pair sum past the largest float is +inf
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
    """Logistic gate sigma(kappa * cos_sim) in [0, 1)."""
    if not -1.0 <= cos_sim <= 1.0:
        raise ValueError(f"cosine similarity must lie in [-1, 1], got {cos_sim}")
    try:
        return 1.0 / (1.0 + math.exp(-kappa * cos_sim))
    except OverflowError:  # there 1/(1 + e^-z) is e^z to within rounding
        return math.exp(kappa * cos_sim)


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
