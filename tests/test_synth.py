import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dense_model_array, unique_sample_cells
from poissoncp.kruskal import KruskalModel
from poissoncp.sparse_tensor import BLOCK_DOUBLES, SparseCountTensor, write_coo
from poissoncp.synth import (
    GenConfig,
    _BucketTable,
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

    @pytest.mark.parametrize("fields", [
        {"boost_scale": -1}, {"small_value": 0}, {"small_value": -0.5},
    ])
    def test_rejects_a_negative_boost_or_a_nonpositive_small_value(self,
                                                                   fields):
        with pytest.raises(ValueError, match="boost_scale must be >= 0 and "
                                             "small_value > 0"):
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

    @pytest.mark.parametrize("dims, rank, samples", [
        ((5, 6), 2, 1), ((5, 6, 4), 3, 500), ((9, 2, 7, 3), 4, 3000),
        ((70_000, 3), 2, 2000), ((20, 30, 40), 5, 50_000),
    ])
    def test_tensor_equals_the_checked_construction(self, dims, rank,
                                                    samples):
        # sample_tensor builds its tensor without from_arrays' copies and
        # checks; the checked construction must give the same arrays.
        model = generate_model(GenConfig(dims=dims, rank=rank, samples=1,
                                         seed=4))
        tensor, _ = sample_tensor(model, samples, seed=7)
        checked = SparseCountTensor.from_arrays(
            dims, tensor.subs0, tensor.vals, one_based=False)
        assert tensor.shape == checked.shape
        for a, b in ((tensor.subs0, checked.subs0),
                     (tensor.vals, checked.vals)):
            assert a.dtype == b.dtype == np.int64
            assert a.flags.c_contiguous and not a.flags.writeable
            np.testing.assert_array_equal(a, b)
        # The narrow columns the tensor stores, dtypes included.
        for a, b in zip((*tensor.columns, tensor.counts),
                        (*checked.columns, checked.counts)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_requires_unit_weights(self):
        model = generate_model(GenConfig(dims=(4, 4), rank=2, samples=1, seed=5))
        _, scaled = sample_tensor(model, 50, seed=0)
        with pytest.raises(ValueError):
            sample_tensor(scaled, 10, seed=0)

    def test_requires_normalized_model_and_a_sample(self):
        model = generate_model(GenConfig(dims=(4, 4), rank=2, samples=1, seed=5))
        raw = KruskalModel(model.weights, model.factors)
        with pytest.raises(ValueError, match="needs a normalized model"):
            sample_tensor(raw, 10, seed=0)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            sample_tensor(model, 0, seed=0)

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


@st.composite
def sampler_shapes(draw):
    """(dims, rank): small, or with a rank above 256 so the component
    numbers need more than uint8, or with one mode above 65,536 indices so
    its sort key needs more than uint16."""
    dims = draw(st.lists(st.integers(1, 5), min_size=2, max_size=3))
    kind = draw(st.sampled_from(["small", "wide rank", "long mode"]))
    rank = draw(st.integers(257, 300) if kind == "wide rank"
                else st.integers(1, 3))
    if kind == "long mode":
        dims[draw(st.integers(0, len(dims) - 1))] = draw(
            st.integers(65_537, 70_000))
    return dims, rank


class TestSampleDedupOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(shape=sampler_shapes(), samples=st.integers(1, 200),
           seed=st.integers(0, 2**16))
    # Draws on both sides of a step boundary of the chunked draw.
    @example(shape=([30, 20, 10], 4), samples=BLOCK_DOUBLES, seed=3)
    @example(shape=([30, 20, 10], 4), samples=2 * BLOCK_DOUBLES + 3, seed=3)
    def test_matches_unique_oracle(self, shape, samples, seed):
        dims, rank = shape
        model = generate_model(GenConfig(dims=tuple(dims), rank=rank,
                                         samples=samples, seed=seed))
        tensor, _ = sample_tensor(model, samples, seed=(seed, 1))
        cells, counts = unique_sample_cells(model, samples, (seed, 1))
        np.testing.assert_array_equal(tensor.subs0, cells)
        np.testing.assert_array_equal(tensor.vals, counts)


@st.composite
def bucket_cases(draw):
    """(cum, samples, cols, u) for one bucket table: cumulative columns with
    zero-mass rows (ties) at the start, middle and end, or with every value
    a multiple of a power of two so that values fall on bucket edges; a
    rank above 255 (uint16 columns) or a mode above 65,536 (uint32 indices)
    on some cases; uniforms including 0.0, 1 - 2**-53, the column values
    and the bucket edges themselves."""
    kind = draw(st.sampled_from(["ties", "on edges", "wide rank", "long mode"]))
    size = (draw(st.integers(65_537, 66_000)) if kind == "long mode"
            else draw(st.integers(1, 40)))
    rank = (draw(st.integers(256, 300)) if kind == "wide rank"
            else draw(st.integers(1, 4)))
    samples = draw(st.integers(1, 20_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if kind == "on edges":
        mass = rng.integers(0, 4, (size, rank)).astype(float)
        mass[-1] += 2.0 ** np.ceil(np.log2(mass.sum(axis=0) + 1)) - mass.sum(axis=0)
    else:
        mass = rng.uniform(0.1, 5.0, (size, rank))
        start, mid, end = (draw(st.integers(0, 3)) for _ in range(3))
        mass[:start] = 0.0
        mass[size // 2:size // 2 + mid] = 0.0
        mass[size - end:] = 0.0
        mass[rng.integers(0, size), (mass.sum(axis=0) == 0)] = 1.0
    cum = np.cumsum(mass, axis=0)
    cum /= cum[-1:, :]
    table = _BucketTable(cum, samples)
    edges = np.arange(table.buckets) / table.buckets
    u = np.concatenate((
        [0.0, 1.0 - 2.0**-53], cum[cum < 1.0][:500], edges[:500],
        rng.integers(0, 2**53, 2000) * 2.0**-53))
    cols = rng.integers(0, rank, u.shape[0]).astype(np.min_scalar_type(rank - 1))
    return cum, samples, cols, u


class TestBucketTable:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(case=bucket_cases())
    @example(case=(np.ones((1, 2)), 100, np.array([0, 1, 0], dtype=np.uint8),
                   np.array([0.0, 0.5, 1.0 - 2.0**-53])))
    @example(case=(np.array([[0.0], [0.0], [0.25], [0.25], [0.5], [1.0], [1.0]]),
                   1000, np.zeros(6, dtype=np.uint8),
                   np.array([0.0, 0.25, 0.25 - 2.0**-53, 0.5, 0.75,
                             1.0 - 2.0**-53])))
    def test_matches_binary_search(self, case):
        cum, samples, cols, u = case
        expected = np.empty(u.shape[0], dtype=np.intp)
        for c in range(cum.shape[1]):
            hit = cols == c
            expected[hit] = np.searchsorted(cum[:, c], u[hit], side="right")
        np.testing.assert_array_equal(
            _BucketTable(cum, samples).search(cols, u), expected)

    @pytest.mark.parametrize("size, rank, samples, buckets", [
        (1000, 10, 500_000, 4096),  # 4 I binds: 4,000
        (1000, 10, 100_000, 4096),  # samples // (4 R) binds: 2,500
        (5, 3, 11, 1),  # samples // (4 R) is 0
        (1, 1, 1000, 8),  # 4 I binds: 4
    ])
    def test_bucket_count_is_the_power_of_two_above_the_bound(
            self, size, rank, samples, buckets):
        cum = np.cumsum(np.ones((size, rank)), axis=0) / size
        table = _BucketTable(cum, samples)
        assert table.buckets == buckets
        assert table.below.size <= max(samples // 2, rank)


class TestSampleMemory:
    # tracemalloc peaks of sample_tensor before the bucket table, which
    # kept an int64 copy of every draw's subscripts and a stable argsort by
    # component (numpy 2.4, Python 3.11): the sampler must not need more.
    @pytest.mark.parametrize("dims, samples, bytes_per_draw", [
        ((200, 150, 100), 100_000, 57.9),
        ((1000, 800, 600), 500_000, 71.3),
    ])
    def test_peak_stays_within_the_earlier_bytes_per_draw(
            self, dims, samples, bytes_per_draw):
        model = generate_model(GenConfig(dims=dims, rank=10, samples=samples))
        tracemalloc.start()
        try:
            sample_tensor(model, samples, seed=(0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / samples <= bytes_per_draw


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

    @pytest.mark.parametrize("cfg, digest", [
        (GenConfig(dims=(20, 30, 40), rank=5, samples=50_000, seed=5),
         "a5513c19b021987e403ffcc0c37880e33c1c3392842eb1302ceda1f736d42702"),
        (GenConfig(dims=(2000, 1500, 1000), rank=10, samples=30_000, seed=0),
         "697679e17880000f3880d9ed53b261c844377342c67bdd4b8f152e3ee4c39581"),
        (GenConfig(dims=(1000, 800, 600), rank=10, samples=500_000, seed=0),
         "53c1dbdb51e35d6247f47388d216b707b8fcbd47c0e3c2d2002b8044476b6700"),
    ])
    def test_coo_bytes_are_pinned(self, tmp_path, cfg, digest):
        # The draw order and the dedup fix these bytes for good: a faster
        # sampler or sort must reproduce them exactly.
        path = tmp_path / "tensor.coo"
        write_coo(generate_dataset(cfg)[1], path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


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

    def test_rank_one_has_no_pairs(self):
        f = np.array([[0.25], [0.75]])
        stats = collinearity_stats(KruskalModel(np.ones(1), (f, f, f)))
        assert len(stats) == 3
        for stat in stats:
            assert math.isnan(stat.all_pairs) and math.isnan(stat.versus_first)

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
