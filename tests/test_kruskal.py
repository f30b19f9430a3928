import json

import numpy as np
import pytest

import poissoncp.kruskal as kruskal
from conftest import (
    dense_kl_objective,
    dense_model_array,
    khatri_rao_columns,
    one_shot_model_entries,
    random_model,
)
from poissoncp.errors import ShapeMismatchError, ZeroColumnWarning
from poissoncp.kruskal import (
    KruskalModel,
    kl_objective,
    load_model,
    model_entries,
    normalize,
    save_model,
)
from poissoncp.sparse_tensor import SparseCountTensor


class TestModelChecks:
    @pytest.mark.parametrize("weight, entry", [
        (-1.0, 0.5), (np.nan, 0.5), (np.inf, 0.5),
        (1.0, -0.5), (1.0, np.nan), (1.0, np.inf),
    ])
    def test_rejects_negative_or_nonfinite_entries(self, weight, entry):
        factors = (np.full((2, 2), 0.5), np.full((3, 2), 0.5))
        factors[1][2, 1] = entry
        with pytest.raises(ValueError, match="finite and nonnegative"):
            KruskalModel(np.array([weight, 1.0]), factors)

    @pytest.mark.parametrize("weights, factors, error, message", [
        (np.ones(0), (np.ones((2, 0)), np.ones((3, 0))), ValueError,
         "at least one component"),
        (np.ones(2), (np.ones((2, 2)),), ValueError, "at least two modes"),
        (np.ones(2), (np.ones((2, 2)), np.ones((0, 2))), ShapeMismatchError,
         "factor 2 has no rows"),
    ])
    def test_rejects_degenerate_shapes(self, weights, factors, error, message):
        with pytest.raises(error, match=message):
            KruskalModel(weights, factors)


class TestNormalizedFlag:
    @staticmethod
    def boosted_columns(rows, seed):
        # As generate_model builds them: per column, 20 % of the rows
        # boosted to 1 + 10 * R * u, the rest at the small value 1e-4.
        rng = np.random.default_rng(seed)
        cols = np.full((rows, 3), 1e-4)
        for r in range(3):
            cols[rng.permutation(rows)[:rows // 5], r] = (
                1.0 + 30.0 * rng.random(rows // 5))
        return cols

    @pytest.mark.parametrize("seed", range(4))
    def test_accepts_normalize_output_on_long_columns(self, seed):
        # Summing 10^5 normalized entries one after another is exact only
        # to about 10^5 eps, which is more than the 1e-12 tolerance alone.
        model = normalize(KruskalModel(np.ones(3), (
            self.boosted_columns(100_000, seed), np.full((5, 3), 0.2))))
        back = KruskalModel(model.weights, model.factors, normalized=True)
        assert back.normalized

    def test_rejects_a_long_column_off_by_1e_6(self):
        cols = self.boosted_columns(100_000, 0)
        off = cols / cols.sum(axis=0)
        off[:, 1] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="flagged normalized"):
            KruskalModel(np.ones(3), (off, np.full((5, 3), 0.2)),
                         normalized=True)


class TestNormalize:
    def test_single_column(self):
        # One unnormalized column (2, 2) alongside an already-unit column:
        # the weight absorbs its sum of 4.
        m = KruskalModel(
            np.array([1.0]),
            (np.array([[2.0], [2.0]]), np.array([[0.5], [0.5]])),
        )
        nm = normalize(m)
        assert nm.weights[0] == pytest.approx(4.0)
        np.testing.assert_allclose(nm.factors[0].ravel(), [0.5, 0.5])
        assert nm.normalized

    def test_idempotent(self, rng):
        m = normalize(random_model(rng, (4, 5, 3), 3))
        again = normalize(m)
        np.testing.assert_allclose(again.weights, m.weights, rtol=1e-12)
        for a, b in zip(again.factors, m.factors):
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_represented_tensor_unchanged(self, rng):
        # Direct multilinear evaluation before and after must agree.
        m = random_model(rng, (4, 5, 3), 3)
        subs0 = np.stack([rng.integers(0, d, size=10) for d in (4, 5, 3)],
                         axis=1)
        np.testing.assert_allclose(model_entries(normalize(m), subs0.T),
                                   model_entries(m, subs0.T), rtol=1e-10)

    def test_zero_column_warns_and_zeroes_weight(self):
        f1 = np.array([[1.0, 0.0], [1.0, 0.0]])
        f2 = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.warns(ZeroColumnWarning):
            nm = normalize(KruskalModel(np.array([2.0, 3.0]), (f1, f2)))
        assert nm.weights[1] == 0.0
        np.testing.assert_allclose(nm.factors[0][:, 1], [0.5, 0.5])


def gathered_rows(factors, mode0, subs0):
    """:func:`poissoncp.kruskal._pi_product` on the index columns of the
    gathered modes of the subscript rows ``subs0``."""
    return kruskal._pi_product(factors, mode0, [
        subs0[:, k] for k in range(subs0.shape[1]) if k != mode0])


class TestPiColumns:
    """Khatri-Rao columns as the row solves gather them, with
    :func:`poissoncp.kruskal._pi_product`."""

    def test_two_way_is_other_factor_row(self):
        a2 = np.array([[0.3, 0.7], [0.7, 0.3]])
        factors = (np.full((2, 2), 0.5), a2)
        rows = gathered_rows(factors, 0, np.array([[1, 0]]))
        np.testing.assert_allclose(rows[0], [0.3, 0.7])

    def test_three_way_rank_one_product(self):
        factors = (np.array([[1.0]]), np.array([[0.2], [0.8]]),
                   np.array([[0.5], [0.5]]))
        rows = gathered_rows(factors, 0, np.array([[0, 0, 0]]))
        assert rows[0, 0] == pytest.approx(0.2 * 0.5)

    def test_matches_dense_khatri_rao(self, rng):
        # Dense oracle: all J_1 columns against the full Khatri-Rao product.
        m = normalize(random_model(rng, (3, 4, 2), 3))
        subs0 = np.array([
            (0, i2, i3) for i3 in range(2) for i2 in range(4)
        ])  # first listed mode varies fastest
        dense = khatri_rao_columns([m.factors[1], m.factors[2]])
        np.testing.assert_allclose(gathered_rows(m.factors, 0, subs0),
                                   dense, rtol=1e-12)

    def test_row_sums_over_all_columns_are_one(self, rng):
        # Summed across the full reduced index space, each component's pi
        # column adds to one for a normalized model.
        m = normalize(random_model(rng, (3, 4, 2), 3))
        for mode0 in range(3):
            subs0 = np.array(list(np.ndindex(3, 4, 2)))
            subs0 = subs0[subs0[:, mode0] == 0]
            rows = gathered_rows(m.factors, mode0, subs0)
            np.testing.assert_allclose(rows.sum(axis=0), np.ones(m.rank),
                                       atol=1e-10)

    def test_rejects_bad_reduced_index(self, rng):
        m = normalize(random_model(rng, (3, 4, 2), 2))
        with pytest.raises(IndexError):
            gathered_rows(m.factors, 0, np.array([[0, 4, 0]]))

    def test_uses_factors_as_given(self, rng):
        # No normalization happens inside the gather.
        m = random_model(rng, (3, 4), 2)
        rows = gathered_rows(m.factors, 0, np.array([[0, 1]]))
        np.testing.assert_array_equal(rows[0], m.factors[1][1, :])


class TestModelEntry:
    def test_rank_one(self):
        factors = tuple(np.full((2, 1), 0.5) for _ in range(3))
        m = KruskalModel(np.array([2.0]), factors)
        assert model_entries(m, np.array([[0, 1, 0]]).T)[0] == pytest.approx(0.25)

    def test_zero_weights(self, rng):
        m = random_model(rng, (3, 3), 2)
        z = KruskalModel(np.zeros(2), m.factors)
        assert model_entries(z, np.array([[1, 1]]).T)[0] == 0.0

    def test_consistent_with_pi_columns(self, rng):
        # m(i) must equal lambda . (Khatri-Rao row at the other indices) *
        # row of factor 1.
        m = normalize(random_model(rng, (3, 4, 2), 3))
        subs0 = np.stack([rng.integers(0, d, size=10) for d in (3, 4, 2)],
                         axis=1)
        pi = gathered_rows(m.factors, 0, subs0)
        expected = (m.weights * pi * m.factors[0][subs0[:, 0], :]).sum(axis=1)
        np.testing.assert_allclose(model_entries(m, subs0.T), expected,
                                   rtol=1e-12)

    def test_nonnegative(self, rng):
        m = random_model(rng, (3, 3, 3), 2)
        subs0 = rng.integers(0, 3, size=(20, 3))
        assert (model_entries(m, subs0.T) >= 0.0).all()


class TestModelEntries:
    @pytest.mark.parametrize("block, nnz", [(8, 37), (4, 3), (65536, 65536 * 2 + 5)])
    def test_blocked_values_equal_one_shot_bitwise(self, rng, monkeypatch,
                                                   block, nnz):
        # At rank 7 this gives blocks of ``block`` rows.
        monkeypatch.setattr(kruskal, "BLOCK_DOUBLES", block * 7)
        model = random_model(rng, (50, 40, 30), 7)
        subs0 = np.stack([rng.integers(0, d, size=nnz) for d in (50, 40, 30)],
                         axis=1)
        assert np.array_equal(model_entries(model, subs0.T),
                              one_shot_model_entries(model, subs0))

    def test_no_rows(self, rng):
        model = random_model(rng, (3, 4), 2)
        assert model_entries(model, np.empty((2, 0), dtype=np.int64)).shape == (0,)


class TestKlObjective:
    def test_empty_tensor_gives_weight_sum(self, rng):
        m = normalize(random_model(rng, (3, 4), 2))
        t = SparseCountTensor.from_entries((3, 4), [])
        assert kl_objective(m, t) == float(m.weights.sum())

    def test_shape_mismatch_rejected(self, rng):
        m = random_model(rng, (3, 4), 2)
        t = SparseCountTensor.from_entries((3, 5), [((1, 1), 2)])
        with pytest.raises(ShapeMismatchError, match=r"\(3, 4\) != tensor"):
            kl_objective(m, t)

    def test_scalar_case(self):
        # One cell with count 2 and model value 2: f = 2 - 2 log 2.
        factors = tuple(np.array([[1.0]]) for _ in range(3))
        m = KruskalModel(np.array([2.0]), factors, normalized=True)
        t = SparseCountTensor.from_entries((1, 1, 1), [((1, 1, 1), 2)])
        assert kl_objective(m, t) == pytest.approx(2 - 2 * np.log(2))

    def test_matches_dense_double_loop(self, rng):
        m = random_model(rng, (3, 4, 2), 3)
        cells = rng.choice(24, size=10, replace=False)
        subs = np.stack(np.unravel_index(cells, (3, 4, 2)), axis=1) + 1
        vals = rng.integers(1, 6, size=10)
        t = SparseCountTensor.from_arrays((3, 4, 2), subs, vals)
        assert kl_objective(m, t) == pytest.approx(
            dense_kl_objective(m, t), rel=1e-10
        )

    def test_invariant_under_normalize(self, rng):
        m = random_model(rng, (4, 3, 2), 3)
        t = SparseCountTensor.from_entries((4, 3, 2), [((1, 2, 1), 3), ((4, 3, 2), 1)])
        assert kl_objective(m, t) == pytest.approx(
            kl_objective(normalize(m), t), rel=1e-8
        )

    def test_infinite_when_count_on_zero_cell(self):
        f1 = np.array([[1.0], [0.0]])
        f2 = np.array([[1.0], [0.0]])
        m = KruskalModel(np.array([1.0]), (f1, f2), normalized=True)
        t = SparseCountTensor.from_entries((2, 2), [((2, 2), 1)])
        assert kl_objective(m, t) == float("inf")

    @pytest.mark.parametrize("value, count, finite", [
        (1e-154, 1, True), (1e-155, 1, False), (1e-150, 10**9, False),
        (1e-140, 10**9, True), (5e-324, 1, False)])
    def test_infinite_where_count_over_value_squared_overflows(
            self, value, count, finite):
        factors = (np.array([[1.0]]), np.array([[1.0]]))
        m = KruskalModel(np.array([value]), factors, normalized=True)
        t = SparseCountTensor.from_entries((1, 1), [((1, 1), count)])
        assert np.isfinite(kl_objective(m, t)) == finite
        with np.errstate(over="ignore", divide="ignore"):
            assert np.isfinite(count / np.float64(value)**2) == finite


class TestModelJson:
    def test_round_trip(self, rng, tmp_path):
        m = normalize(random_model(rng, (3, 4), 2))
        path = tmp_path / "model.json"
        save_model(m, path)
        back = load_model(path)
        np.testing.assert_allclose(back.weights, m.weights)
        for a, b in zip(back.factors, m.factors):
            np.testing.assert_allclose(a, b)
        doc = json.loads(path.read_text())
        assert doc["dims"] == [3, 4]
        assert doc["R"] == 2
        assert len(doc["factors"][0]) == 3  # row-major: one list per row

    @pytest.mark.parametrize("rows", [1, 3, 256, 257, 600])
    def test_bytes_match_the_streaming_encoder(self, tmp_path, rows):
        # save_model encodes blocks of 256 rows at R4 with json.dumps (C);
        # json.dump streams the whole document through the Python encoder.
        # Both must print every float alike, down to the smallest subnormal
        # and the widest exponents, and the blocks must join seamlessly.
        extremes = np.array([0.0, 5e-324, 1e-300, 1e300])
        m = KruskalModel(extremes[::-1].copy(),
                         (np.tile(extremes, (rows, 1)), extremes[None, :].copy(),
                          np.tile(extremes[::-1], (rows, 1))))
        path = tmp_path / "model.json"
        save_model(m, path)
        doc = {"dims": [rows, 1, rows], "R": 4, "lambda": m.weights.tolist(),
               "factors": [f.tolist() for f in m.factors]}
        expected = tmp_path / "expected.json"
        with open(expected, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        assert path.read_bytes() == expected.read_bytes()
        for text in ("0.0", "5e-324", "1e-300", "1e+300"):
            assert text in path.read_text()

    def test_factors_not_a_list_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"dims": [2, 2], "R": 1, "lambda": [1.0],
                                    "factors": 5}))
        with pytest.raises(ValueError, match="'factors' must be a list") as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_dense_reconstruction_matches(self, rng, tmp_path):
        m = normalize(random_model(rng, (2, 3, 2), 2))
        path = tmp_path / "model.json"
        save_model(m, path)
        np.testing.assert_allclose(
            dense_model_array(load_model(path)), dense_model_array(m)
        )
