import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_model_array, unique_sample_cells
from poissoncp.synth import (
    GenConfig,
    collinearity_stats,
    generate_dataset,
    generate_model,
    sample_tensor,
)


class TestGenConfig:
    @pytest.mark.parametrize("fields", [
        {"samples": 100.9}, {"rank": True}, {"seed": 1.5},
        {"dims": (5.7, 6, 7)}, {"dims": "678"}, {"dims": 5},
        {"boost_scale": math.nan}, {"small_value": math.inf},
        {"collinearity_alpha": math.nan}, {"boost_fraction": "0.2"},
        {"collinearity_alpha": -5}, {"collinearity_alpha": -0.001},
        {"boost_scale": 1e120}, {"boost_scale": 1e308},
        {"small_value": 1e300}, {"collinearity_alpha": 1e300},
    ])
    def test_rejects_invalid_field(self, fields):
        with pytest.raises(ValueError):
            GenConfig(**{"dims": (5, 6, 7), "rank": 2, "samples": 100,
                         **fields})

    def test_accepts_a_large_boost_that_does_not_overflow(self):
        truth, _ = generate_dataset(GenConfig(dims=(5, 6, 7), rank=3,
                                              samples=100, boost_scale=1e100))
        assert np.isfinite(truth.weights).all()

    def test_stores_integral_floats_as_ints_and_numbers_as_floats(self):
        cfg = GenConfig(dims=[5.0, 6, 7], rank=2.0, samples=np.int64(100),
                        boost_scale=10, small_value=1, collinearity_alpha=0)
        assert (cfg.dims, cfg.rank, cfg.samples) == ((5, 6, 7), 2, 100)
        assert all(type(v) is int
                   for v in (*cfg.dims, cfg.rank, cfg.samples, cfg.seed))
        assert all(type(v) is float for v in (
            cfg.boost_fraction, cfg.boost_scale, cfg.small_value,
            cfg.collinearity_alpha))


class TestGenerateModel:
    def test_deterministic_per_seed(self):
        cfg = GenConfig(dims=(5, 6), rank=3, samples=10, seed=42)
        a = generate_model(cfg)
        b = generate_model(cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_array_equal(fa, fb)

    def test_normalization(self):
        m = generate_model(GenConfig(dims=(7, 5, 4), rank=3, samples=10, seed=0))
        assert float(m.weights.sum()) == 1.0
        for f in m.factors:
            np.testing.assert_allclose(f.sum(axis=0), np.ones(3), atol=1e-12)

    def test_boost_count_is_ceiling(self):
        # 20% of 10 rows boosts exactly 2 entries per column; the rest share
        # the small background value (equal after normalization).
        m = generate_model(GenConfig(dims=(10, 10), rank=4, samples=10,
                                     boost_fraction=0.2, seed=1))
        for f in m.factors:
            for col in f.T:
                background = col.min()
                assert int((col > background * 1.0001).sum()) == 2

    def test_ceiling_rounds_up(self):
        m = generate_model(GenConfig(dims=(7, 7), rank=2, samples=10,
                                     boost_fraction=0.2, seed=1))
        expected = math.ceil(0.2 * 7)
        for f in m.factors:
            for col in f.T:
                background = col.min()
                assert int((col > background * 1.0001).sum()) == expected

    def test_collinearity_mixing(self):
        cfg = GenConfig(dims=(30, 30), rank=4, samples=10, seed=3,
                        collinearity_alpha=0.5)
        plain = GenConfig(dims=(30, 30), rank=4, samples=10, seed=3)
        mixed = collinearity_stats(generate_model(cfg))
        base = collinearity_stats(generate_model(plain))
        for m, b in zip(mixed, base):
            assert m.all_pairs > b.all_pairs


class TestSampleTensor:
    def test_total_count_equals_samples(self):
        model = generate_model(GenConfig(dims=(5, 6, 4), rank=2, samples=1, seed=2))
        for s in (1, 17, 500):
            tensor, scaled = sample_tensor(model, s, seed=9)
            assert tensor.total_count() == s

    def test_single_sample_single_cell(self):
        model = generate_model(GenConfig(dims=(5, 6), rank=2, samples=1, seed=2))
        tensor, _ = sample_tensor(model, 1, seed=0)
        assert tensor.nnz == 1
        assert tensor.total_count() == 1

    def test_scaled_weights_sum_exactly(self):
        model = generate_model(GenConfig(dims=(5, 6, 4), rank=3, samples=1, seed=8))
        for s in (10, 999, 50_000):
            _, scaled = sample_tensor(model, s, seed=4)
            assert float(scaled.weights.sum()) == float(s)

    def test_deterministic_per_seed(self):
        model = generate_model(GenConfig(dims=(4, 4), rank=2, samples=1, seed=5))
        t1, _ = sample_tensor(model, 200, seed=6)
        t2, _ = sample_tensor(model, 200, seed=6)
        np.testing.assert_array_equal(t1.subs0, t2.subs0)
        np.testing.assert_array_equal(t1.vals, t2.vals)

    def test_requires_unit_weights(self):
        model = generate_model(GenConfig(dims=(4, 4), rank=2, samples=1, seed=5))
        _, scaled = sample_tensor(model, 50, seed=0)
        with pytest.raises(ValueError):
            sample_tensor(scaled, 10, seed=0)

    def test_empirical_frequencies_match_model(self):
        # Cell frequencies converge to the model probabilities.
        rng = np.random.default_rng(77)
        f1 = rng.uniform(0.2, 1.0, (2, 1))
        f2 = rng.uniform(0.2, 1.0, (2, 1))
        from poissoncp.kruskal import KruskalModel, normalize

        model = normalize(KruskalModel(np.ones(1), (f1, f2)))
        model = KruskalModel(model.weights / model.weights.sum(), model.factors,
                             normalized=True)
        s = 1_000_000
        tensor, _ = sample_tensor(model, s, seed=123)
        probs = dense_model_array(model) / float(model.weights.sum())
        freq = np.zeros((2, 2))
        for sub, val in zip(tensor.subs0, tensor.vals):
            freq[tuple(sub)] = val / s
        assert np.abs(freq - probs).max() <= 0.005


class TestSampleDedupOracle:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(dims=st.lists(st.integers(1, 5), min_size=2, max_size=3),
           rank=st.integers(1, 3), samples=st.integers(1, 200),
           seed=st.integers(0, 2**16))
    def test_matches_unique_oracle(self, dims, rank, samples, seed):
        model = generate_model(GenConfig(dims=tuple(dims), rank=rank,
                                         samples=samples, seed=seed))
        tensor, _ = sample_tensor(model, samples, seed=(seed, 1))
        cells, counts = unique_sample_cells(model, samples, (seed, 1))
        np.testing.assert_array_equal(tensor.subs0, cells)
        np.testing.assert_array_equal(tensor.vals, counts)


class TestGenerateDataset:
    def test_truth_weight_sum_matches_total_count(self):
        truth, tensor = generate_dataset(
            GenConfig(dims=(6, 5, 4), rank=2, samples=1234, seed=3)
        )
        assert float(truth.weights.sum()) == float(tensor.total_count()) == 1234.0

    def test_deterministic(self):
        cfg = GenConfig(dims=(6, 5), rank=2, samples=321, seed=13)
        t1 = generate_dataset(cfg)[1]
        t2 = generate_dataset(cfg)[1]
        np.testing.assert_array_equal(t1.subs0, t2.subs0)
        np.testing.assert_array_equal(t1.vals, t2.vals)


class TestCollinearityStats:
    def test_identical_columns(self):
        from poissoncp.kruskal import KruskalModel

        col = np.array([[0.2], [0.8]])
        f = np.hstack([col, col])
        m = KruskalModel(np.ones(2), (f, f))
        for stat in collinearity_stats(m):
            assert stat.all_pairs == pytest.approx(1.0)
            assert stat.versus_first == pytest.approx(1.0)

    def test_disjoint_columns(self):
        from poissoncp.kruskal import KruskalModel

        f = np.array([[1.0, 0.0], [0.0, 1.0]])
        m = KruskalModel(np.ones(2), (f, f))
        for stat in collinearity_stats(m):
            assert stat.all_pairs == pytest.approx(0.0)

    def test_alpha_half_band(self):
        # Ten seeds at 10% boost with alpha = 0.5: mean all-pairs cosine
        # sits near 0.83.
        values = []
        for seed in range(10):
            cfg = GenConfig(dims=(50, 50, 50), rank=10, samples=1,
                            boost_fraction=0.1, collinearity_alpha=0.5,
                            seed=seed)
            stats = collinearity_stats(generate_model(cfg))
            values.extend(s.all_pairs for s in stats)
        assert abs(float(np.mean(values)) - 0.83) <= 0.05
