"""Distortion tables: the similarity gate, synthetic table generation
(bit for bit against the per-pair loop in ``support``), and table files,
a scenario's ``distortion`` object saved alone (diagnostics, exact
roundtrip)."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairband.distortion import (
    DistortionTable,
    SimilarityModel,
    distortions_from_features,
    similarity_gate,
    synthesize_distortions,
)
from pairband.scenario import ScenarioTemplate, generate_scenario, load_distortion, scenario_to_json
from support import loop_distortions

SIGMA_AT_5 = 0.9933071490757153  # logistic(5), frozen


# ---------------------------------------------------------------------------
# Similarity gate


class TestSimilarityGate:
    def test_neutral_similarity_is_half(self):
        assert similarity_gate(0.0, kappa=5.0) == pytest.approx(0.5, rel=1e-12)

    def test_aligned_features_near_one(self):
        assert similarity_gate(1.0, kappa=5.0) == pytest.approx(
            SIGMA_AT_5, rel=1e-12
        )
        assert similarity_gate(1.0, kappa=5.0) > 0.99

    def test_antisymmetric_around_zero(self):
        for x in (0.1, 0.35, 0.8, 1.0):
            assert similarity_gate(-x, 5.0) == pytest.approx(
                1.0 - similarity_gate(x, 5.0), rel=1e-12
            )

    def test_strictly_increasing(self):
        xs = np.linspace(-1.0, 1.0, 41)
        vals = [similarity_gate(float(x), 5.0) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_sharpness_scales_with_kappa(self):
        assert similarity_gate(0.5, 10.0) > similarity_gate(0.5, 2.0)

    def test_a_gate_below_the_float_range_does_not_overflow(self):
        # e^720 raised an OverflowError, as did a sweep with kappa 1e308.
        assert similarity_gate(-1.0, 720.0) == math.exp(-720.0) > 0.0
        assert similarity_gate(-0.5, 1e308) == 0.0
        assert similarity_gate(0.5, 1e308) == 1.0

    @pytest.mark.parametrize("bad", [1.5, -1.01])
    def test_rejects_out_of_range_cosine(self, bad):
        with pytest.raises(ValueError):
            similarity_gate(bad, 5.0)


class TestSimilarityModelValidation:
    def test_rejects_weight_at_or_above_one(self):
        with pytest.raises(ValueError):
            SimilarityModel(similarity_weight=1.0)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            SimilarityModel(similarity_weight=-0.1)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            SimilarityModel(kappa=0.0)

    def test_rejects_nonpositive_base(self):
        with pytest.raises(ValueError):
            SimilarityModel(base_distortion=0.0)


# ---------------------------------------------------------------------------
# Feature-driven tables


class TestDistortionsFromFeatures:
    def test_identical_features_hit_the_floor(self):
        model = SimilarityModel(kappa=5.0, base_distortion=1.0, similarity_weight=0.5)
        v = np.array([1.0, 0.0, 0.0, 0.0])
        feats = np.stack([v, v])
        table = distortions_from_features(feats, model)
        floor = 1.0 * (1.0 - 0.5 * SIGMA_AT_5)
        assert table.per_user[0, 1] == pytest.approx(floor, rel=1e-12)
        assert table.per_user[1, 0] == pytest.approx(floor, rel=1e-12)

    def test_orthogonal_features_sit_at_midpoint(self):
        model = SimilarityModel(kappa=5.0, base_distortion=1.0, similarity_weight=0.5)
        feats = np.eye(2)
        # eye(2) rows are orthogonal unit vectors -> cos = 0 -> gate 1/2.
        table = distortions_from_features(feats, model)
        assert table.per_user[0, 1] == pytest.approx(1.0 - 0.25, rel=1e-12)

    def test_opposed_features_near_the_ceiling(self):
        model = SimilarityModel(kappa=5.0, base_distortion=2.0, similarity_weight=0.5)
        v = np.array([1.0, 0.0])
        feats = np.stack([v, -v])
        table = distortions_from_features(feats, model)
        ceiling = 2.0 * (1.0 - 0.5 * (1.0 - SIGMA_AT_5))
        assert table.per_user[0, 1] == pytest.approx(ceiling, rel=1e-12)

    def test_more_similar_pairs_cost_less(self):
        model = SimilarityModel()
        a = np.array([1.0, 0.0])
        near = np.array([0.9, math.sqrt(1 - 0.81)])
        far = np.array([0.0, 1.0])
        table = distortions_from_features(np.stack([a, near, a, far]), model)
        assert table.per_user[0, 1] < table.per_user[0, 3]

    def test_rejects_odd_user_count(self):
        for n in (1, 3, 5):
            for build in (distortions_from_features, loop_distortions):
                with pytest.raises(ValueError, match="even"):
                    build(np.eye(n), SimilarityModel())

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cosine_rounding_past_one_is_clipped(self, sign):
        # The unit vector (1, 1, 1)/sqrt(3) dots with itself to 1 + 2**-52.
        v = np.full(3, 1.0 / math.sqrt(3.0))
        assert sign * (v @ (sign * v)) > 1.0
        model = SimilarityModel(kappa=5.0, base_distortion=2.0, similarity_weight=0.5)
        table = distortions_from_features(np.stack([v, sign * v]), model)
        edge = 2.0 * (1.0 - 0.5 * similarity_gate(sign, 5.0))
        assert table.per_user[0, 1] == table.per_user[1, 0] == edge
        oracle = loop_distortions(np.stack([v, sign * v]), model)
        assert np.array_equal(table.per_user, oracle.per_user)


class TestSynthesize:
    def test_table_invariants(self):
        model = SimilarityModel()
        table = synthesize_distortions(np.random.default_rng(0), model, 8)
        n = table.n
        assert n == 8
        off = ~np.eye(n, dtype=bool)
        assert np.all(table.per_user[off] > 0)
        assert np.array_equal(table.per_user, table.per_user.T)
        assert np.allclose(
            table.pair_sum, table.per_user + table.per_user.T, rtol=1e-12
        )
        assert np.allclose(np.diag(table.per_user), 0.0)
        # Values live inside the open band set by the gate range.
        lo = model.base_distortion * (1.0 - model.similarity_weight)
        hi = model.base_distortion
        assert np.all(table.per_user[off] > lo)
        assert np.all(table.per_user[off] < hi)

    def test_deterministic_under_seed(self):
        model = SimilarityModel()
        t1 = synthesize_distortions(np.random.default_rng(5), model, 6)
        t2 = synthesize_distortions(np.random.default_rng(5), model, 6)
        assert np.array_equal(t1.per_user, t2.per_user)

    def test_seeds_differ(self):
        model = SimilarityModel()
        t1 = synthesize_distortions(np.random.default_rng(1), model, 6)
        t2 = synthesize_distortions(np.random.default_rng(2), model, 6)
        assert not np.array_equal(t1.per_user, t2.per_user)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prop_synthesized_tables_are_valid(seed):
    table = synthesize_distortions(
        np.random.default_rng(seed), SimilarityModel(), 6
    )
    off = ~np.eye(6, dtype=bool)
    assert np.all(table.per_user[off] >= 0)
    assert np.allclose(table.pair_sum, table.pair_sum.T, rtol=1e-12)


@st.composite
def feature_matrices(draw):
    """Even N in 2..64, dimension 1..32: unit, scaled or integer rows,
    sometimes with a NaN or infinite entry."""
    n = 2 * draw(st.integers(1, 32))
    dim = draw(st.integers(1, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["unit", "scaled", "int", "int-valued"]))
    if kind in ("int", "int-valued"):
        feats = rng.integers(-3, 4, size=(n, dim))
        return feats if kind == "int" else feats.astype(float)
    feats = rng.normal(size=(n, dim))
    if kind == "unit":
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    else:
        feats *= draw(st.floats(1e-3, 1e3))
    poison = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    if poison is not None:
        feats[draw(st.integers(0, n - 1)), draw(st.integers(0, dim - 1))] = poison
    return feats


@settings(max_examples=150, deadline=None)
@given(
    feats=feature_matrices(),
    model=st.builds(
        SimilarityModel,
        kappa=st.floats(1e-2, 50.0),
        base_distortion=st.floats(1e-2, 10.0),
        similarity_weight=st.floats(0.0, 0.99),
    ),
)
def test_prop_array_table_is_the_loop_table_bit_for_bit(feats, model):
    try:
        expected = loop_distortions(feats, model)
    except ValueError:
        with pytest.raises(ValueError):
            distortions_from_features(feats, model)
        return
    table = distortions_from_features(feats, model)
    assert np.array_equal(table.per_user, expected.per_user)
    assert np.array_equal(table.pair_sum, expected.pair_sum)


class TestDistortionTableValidation:
    def test_derives_n_and_pair_sums_from_per_user(self):
        per_user = np.array([[math.nan, 0.125], [0.5, 0.0]])
        table = DistortionTable(per_user)
        assert table.n == 2
        assert table.pair_sum.tolist() == [[0.0, 0.625], [0.625, 0.0]]

    def test_rejects_a_matrix_that_is_not_square(self):
        for per_user in (np.zeros((2, 4)), np.zeros(4), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="square"):
                DistortionTable(per_user)

    def test_missing_entries_are_named(self):
        per_user = np.full((4, 4), 0.2)
        np.fill_diagonal(per_user, 0.0)
        per_user[0, 2] = per_user[2, 0] = math.nan
        per_user[3, 1] = math.nan
        with pytest.raises(
            ValueError,
            match=r"^missing distortion entries for pairs: \[\(0, 2\), \(2, 0\), \(3, 1\)\]$",
        ):
            DistortionTable(per_user)

    def test_rejects_negative_entries(self):
        # Each negative entry is named by its pair, on the diagonal too.
        per_user = np.full((4, 4), 0.5)
        np.fill_diagonal(per_user, 0.0)
        per_user[0, 1] = -0.5
        with pytest.raises(ValueError, match=r"negative distortion for pairs: \[\(0, 1\)\]$"):
            DistortionTable(per_user)
        per_user[0, 1] = 0.5
        per_user[2, 2] = -0.0001
        with pytest.raises(ValueError, match=r"pairs: \[\(2, 2\)\]$"):
            DistortionTable(per_user)


# ---------------------------------------------------------------------------
# Table files: a scenario's ``distortion`` object saved on its own


def write_table(path, per_user):
    path.write_text(json.dumps({"per_user": per_user}))


def valid_rows(n=4, value=0.25):
    return [[0.0 if i == j else value for j in range(n)] for i in range(n)]


class TestTableIO:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        # The block a scenario file holds, saved alone, loads to the same
        # table; so does an asymmetric one with excluded (+inf) pairs.
        scn = generate_scenario(ScenarioTemplate(n_users=6), seed=3)
        block = json.loads(scenario_to_json(scn, "x"))["distortion"]
        path = tmp_path / "table.json"
        path.write_text(json.dumps(block))
        assert np.array_equal(load_distortion(path).per_user, scn.distortions.per_user)
        per_user = np.array(valid_rows(4, 1 / 3))
        per_user[0, 1], per_user[1, 0], per_user[2, 3] = math.inf, 0.3, 5e-324
        write_table(path, per_user.tolist())
        loaded = load_distortion(path)
        assert loaded.per_user.tobytes() == per_user.tobytes()
        assert np.array_equal(loaded.pair_sum, DistortionTable(per_user).pair_sum)

    def test_asymmetric_directions_are_preserved(self, tmp_path):
        path = tmp_path / "t.json"
        write_table(path, [[0.0, 0.125], [0.5, 0.0]])
        table = load_distortion(path)
        assert table.per_user[0, 1] == 0.125
        assert table.per_user[1, 0] == 0.5
        assert table.pair_sum[0, 1] == 0.625

    def test_rejects_negative_value_with_location(self, tmp_path):
        rows = valid_rows()
        rows[0][1] = -0.25
        path = tmp_path / "t.json"
        write_table(path, rows)
        with pytest.raises(ValueError, match=re.escape("negative distortion for pairs: [(0, 1)]")):
            load_distortion(path)

    def test_rejects_missing_pairs(self, tmp_path):
        rows = valid_rows()
        rows[3][2] = None  # null marks a missing entry
        path = tmp_path / "t.json"
        write_table(path, rows)
        with pytest.raises(ValueError, match=re.escape("missing distortion entries for pairs: [(3, 2)]")):
            load_distortion(path)

    def test_rejects_out_of_range_index(self, tmp_path):
        rows = [row + [0.3] for row in valid_rows()]  # a partner index past n
        path = tmp_path / "t.json"
        write_table(path, rows)
        with pytest.raises(ValueError, match=re.escape("must be square, got shape (4, 5)")):
            load_distortion(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "t.json"
        for row, message in [
            ([0.0, "0.25", 0.25, 0.25], "per_user entries must be numbers or null"),
            ([0.0, True, 0.25, 0.25], "no field takes a boolean, got true"),
            ([0.0, [0.25], 0.25, 0.25], "per_user entries must be numbers or null"),
            (0.25, "'float' object is not iterable"),
        ]:
            rows = valid_rows()
            rows[1] = row
            write_table(path, rows)
            with pytest.raises(ValueError, match=re.escape(message)):
                load_distortion(path)

    def test_rejects_missing_header(self, tmp_path):
        # The one key, per_user, of a JSON object.
        path = tmp_path / "t.json"
        for doc, message in [
            ({"perUser": valid_rows()}, f"invalid distortion file {path}: 'per_user'"),
            ([valid_rows()], "a scenario or distortion document must be a JSON object"),
            ({"per_user": 4}, f"invalid distortion file {path}: 'int' object is not iterable"),
        ]:
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=re.escape(message)):
                load_distortion(path)
