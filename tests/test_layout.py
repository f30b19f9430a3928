"""The per-mode row layout against per-row and argsort references.

The solve walks a mode's row views, which gather the Khatri-Rao rows in
cache-sized blocks of rows; the multiplicative baseline runs its updates
on the same blocks, and the KKT check screens them, walking only the rows
that may hold its maximum.  With the block bound shrunk so that
blocks split often, every result must equal the per-row reference bit for
bit (the mu objectives, summed block by block, to rounding), on tensors
with empty rows, rows shorter than the rank and rows longer than one
block.  The same holds when the rows are split into ranges that
forked children solve; the KKT check never forks.
"""

import dataclasses
import errno
import functools
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poissoncp.baselines as baselines
import poissoncp.driver as driver
import poissoncp.evaluation as evaluation
import poissoncp.kruskal as kruskal
import poissoncp.row_solver as row_solver
import poissoncp.sparse_tensor as sparse_tensor
from conftest import (
    argsort_mode_row_positions,
    argsort_mu_solve_mode,
    coo_pi_product,
    lexsort_mode_row_positions,
    per_row_mode_kkt_violation,
    per_row_solve_mode,
    row_groups,
)
from poissoncp.baselines import mu_solve_mode
from poissoncp.driver import FitConfig, fit, init_model, solve_mode
from poissoncp.errors import FactorizationFailureError, IndexOutOfRangeError
from poissoncp.evaluation import mode_kkt_violation
from poissoncp.kruskal import KruskalModel, kl_objective, normalize
from poissoncp.sparse_tensor import (SparseCountTensor, block_rows,
                                     mode_row_positions, read_coo, write_coo)
from poissoncp.synth import (GenConfig, generate_dataset, generate_model,
                             sample_tensor)

LAYOUT_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                           database=None)


def kkt_edge_case(case):
    """A (10, 4, 3) rank-2 tensor whose mode-1 rows 0-7 hold the same three
    cells of the other modes and rows 8 and 9 none, and a model, built so
    that mode 1 meets one edge of the KKT check.

    ``"tie"``: rows 2 and 5 hold the same counts and the same small factor
    rows, so they tie for the largest violation.  ``"all tied"``: every
    nonempty row holds the same counts and factor row.  ``"zero"``: row 3's
    factor row is zero, a zero model value at a positive count, and row 6's
    makes ``x / m`` overflow.  ``"overflow"``: only row 6's, whose gradient
    is NaN, as a zero in the mode-2 factor meets the infinite ``x / m``.
    ``"empty"``: the empty rows' factor rows are large.
    """
    rng = np.random.default_rng(11)
    dims, rank = (10, 4, 3), 2
    pattern = [(0, 0), (1, 2), (3, 1)]
    cells = [(i, j, k) for i in range(8) for j, k in pattern]
    counts = rng.integers(1, 10, size=len(cells))
    a = rng.uniform(0.1, 1.0, size=(dims[0], rank))
    b = rng.uniform(0.1, 1.0, size=(dims[1], rank))
    if case == "tie":
        counts[6:9] = counts[15:18]
        a[2] = a[5] = 1e-3
    elif case == "all tied":
        counts = np.tile(counts[:3], 8)
        a[:] = a[0]
    elif case in ("zero", "overflow"):
        a[6] = (1e-310, 0.0)
        b[0, 1] = 0.0
        if case == "zero":
            a[3] = 0.0
    elif case == "empty":
        a[8:] = 5.0
    tensor = SparseCountTensor.from_arrays(dims, np.array(cells), counts,
                                           one_based=False)
    c = rng.uniform(0.1, 1.0, size=(dims[2], rank))
    return tensor, normalize(KruskalModel(np.ones(rank), [a, b, c]))


def layout_case(seed):
    """A small random tensor and normalized model.

    Dimensions of 2-7 with few nonzeros leave rows empty and many rows
    shorter than the rank; with probability one half the first mode-1 row
    is filled completely, which makes it longer than a shrunken block.
    Some factor entries are exact zeros.
    """
    rng = np.random.default_rng(seed)
    ndim = int(rng.integers(2, 4))
    dims = tuple(int(d) for d in rng.integers(2, 8, size=ndim))
    rank = int(rng.integers(1, 5))
    nnz = int(rng.integers(1, 25))
    cells = np.stack([rng.integers(0, d, size=nnz) for d in dims], axis=1)
    if rng.random() < 0.5:
        rest = np.stack(np.meshgrid(*[np.arange(d) for d in dims[1:]],
                                    indexing="ij"), axis=-1).reshape(-1, ndim - 1)
        cells = np.vstack([cells, np.column_stack([np.zeros(len(rest), int), rest])])
    cells = np.unique(cells, axis=0)
    rng.shuffle(cells)
    tensor = SparseCountTensor.from_arrays(
        dims, cells, rng.integers(1, 10, size=len(cells)), one_based=False)
    factors = []
    for d in dims:
        f = rng.uniform(0.05, 1.0, size=(d, rank))
        f[rng.random((d, rank)) < 0.1] = 0.0
        f[:, f.sum(axis=0) == 0.0] = 1.0
        factors.append(f)
    model = normalize(KruskalModel(rng.uniform(0.5, 2.0, size=rank), factors))
    return tensor, model


def assert_layouts_equal(a, b):
    assert len(a.columns) == len(b.columns)
    pairs = [*zip(a.columns, b.columns), (a.vals, b.vals), (a.rows, b.rows),
             (a.starts, b.starts)]
    for k, (got, want) in enumerate(pairs):
        assert got.dtype == want.dtype and np.array_equal(got, want), k


def stacked(columns):
    """The index columns side by side as floats: a stand-in for the
    Khatri-Rao rows that shows which nonzeros a block holds."""
    return np.column_stack(columns).astype(np.float64)


def assert_models_equal(a, b):
    assert np.array_equal(a.weights, b.weights)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)


class TestModeLayout:
    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), doubles=st.integers(1, 12),
           rank=st.integers(1, 6))
    def test_block_rows_cover_every_position_once_in_order(self, seed,
                                                           doubles, rank):
        tensor, _ = layout_case(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            limit = max(doubles // rank, 1)
            for mode in range(1, tensor.ndim + 1):
                layout = mode_row_positions(tensor, mode)
                assert_layouts_equal(layout,
                                     argsort_mode_row_positions(tensor, mode))
                reference = row_groups(tensor, mode)
                sizes, rows_per_block = [], []

                def gather(columns):
                    sizes.append(len(columns[0]))
                    rows_per_block.append(0)
                    return stacked(columns)

                rows, subs, counts = [], [], []
                for block in layout.blocks(rank, gather):
                    for row0, x, pi in block_rows(*block):
                        rows_per_block[-1] += 1
                        assert x.dtype == np.float64 and pi.shape == (
                            tensor.ndim - 1, len(x))
                        rows.append(row0)
                        subs.append(pi.T.tolist())
                        counts.append(x.tolist())
                assert sum(sizes) == tensor.nnz
                assert all(size <= limit or n == 1
                           for size, n in zip(sizes, rows_per_block))
                assert rows == [r for r, _ in reference]
                assert subs == [np.delete(tensor.subs0[p], mode - 1,
                                          axis=1).tolist()
                                for _, p in reference]
                assert counts == [tensor.vals[p].tolist() for _, p in reference]

                # blocks() walks the same blocks whole: the rows' ids and
                # sizes, and their counts and Khatri-Rao rows in row order.
                walked = list(layout.blocks(rank, stacked))
                assert [len(b[0]) for b in walked] == rows_per_block
                assert [len(b[2]) for b in walked] == sizes
                assert np.concatenate([b[0] for b in walked]).tolist() == rows
                assert np.concatenate([b[1] for b in walked]).tolist() == [
                    len(p) for _, p in reference]
                x_all = np.concatenate([b[2] for b in walked])
                assert x_all.dtype == np.float64
                assert x_all.tolist() == sum(counts, [])
                assert np.concatenate([b[3] for b in walked]).tolist() == sum(
                    subs, [])

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.lists(st.sampled_from((200, 300, 70_000)), min_size=2,
                         max_size=4),
           doubles=st.integers(1, 40), rank=st.integers(1, 4))
    def test_blocks_equal_the_coo_gather_byte_for_byte(self, seed, dims,
                                                       doubles, rank):
        # Mode sizes of 200, 300 and 70,000 give uint8, uint16 and uint32
        # index columns.  Few nonzeros leave most rows empty, and row 0 of
        # every mode holds 50, more than any block bound drawn here.
        rng = np.random.default_rng(seed)
        cells = [np.stack([rng.integers(0, d, size=30) for d in dims], axis=1)]
        for k in range(len(dims)):
            long_row = np.stack([rng.integers(0, d, size=50) for d in dims],
                                axis=1)
            long_row[:, k] = 0
            cells.append(long_row)
        cells = np.unique(np.vstack(cells), axis=0)
        tensor = SparseCountTensor.from_arrays(
            dims, cells, rng.integers(1, 10, size=len(cells)),
            one_based=False)
        factors = [rng.uniform(0.05, 1.0, size=(d, rank)) for d in dims]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            for mode in range(1, tensor.ndim + 1):
                layout = mode_row_positions(tensor, mode)
                assert_layouts_equal(layout,
                                     argsort_mode_row_positions(tensor, mode))
                groups = iter(row_groups(tensor, mode))
                gather = functools.partial(kruskal._pi_product, factors,
                                           mode - 1)
                for rows, _, x, pi in layout.blocks(rank, gather):
                    pos = np.concatenate([next(groups)[1] for _ in rows])
                    want_pi = coo_pi_product(factors, mode - 1,
                                             tensor.subs0[pos])
                    want_x = tensor.vals[pos].astype(np.float64)
                    assert pi.flags.c_contiguous and x.flags.c_contiguous
                    assert pi.dtype == want_pi.dtype and pi.shape == (
                        len(pos), rank)
                    assert pi.tobytes() == want_pi.tobytes()
                    assert x.dtype == want_x.dtype
                    assert x.tobytes() == want_x.tobytes()
                assert next(groups, None) is None

    @pytest.mark.parametrize("largest, dtype", [
        (4, np.uint8), (300, np.uint16), (70_000, np.uint32),
        (2**53 + 1, np.uint64), (2**63 - 1, np.uint64)])
    def test_counts_take_the_narrowest_dtype_and_convert_exactly(
            self, largest, dtype):
        # Counts above 2**53 round when they become doubles; the narrowed
        # counts must round as the int64 ones do.  A block bound of 4
        # doubles splits every mode into several blocks.
        rng = np.random.default_rng(0)
        dims = (5, 4, 3)
        cells = np.stack(np.unravel_index(
            rng.choice(60, size=25, replace=False), dims), axis=1)
        vals = rng.integers(1, 4, size=25)
        vals[[3, 11]] = largest, largest - 1
        tensor = SparseCountTensor.from_arrays(dims, cells, vals,
                                               one_based=False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", 4)
            for mode in (1, 2, 3):
                layout = mode_row_positions(tensor, mode)
                assert layout.vals.dtype == dtype
                positions = np.concatenate(
                    [p for _, p in row_groups(tensor, mode)])
                want = tensor.vals[positions].astype(np.float64)
                walked = 0
                for _, _, x, _ in layout.blocks(2, stacked):
                    assert x.dtype == np.float64
                    assert x.tobytes() == want[walked:walked + len(x)].tobytes()
                    walked += len(x)
                assert walked == tensor.nnz > len(x)

    def test_three_mode_layout_takes_5_bytes_per_nonzero(self):
        # Indices below 65,536 fit in 2 bytes and counts below 256 in 1, so
        # each mode holds exactly 5 bytes per nonzero in its per-nonzero
        # arrays, whatever the number of nonzeros.
        rng = np.random.default_rng(0)
        dims = (65_536, 300, 65_536)
        cells = np.unique(np.stack([rng.integers(0, d, size=70_000)
                                    for d in dims], axis=1), axis=0)
        tensor = SparseCountTensor.from_arrays(
            dims, cells, np.ones(len(cells), dtype=np.int64),
            one_based=False)
        assert tensor.nnz > 65_536
        for mode in (1, 2, 3):
            layout = mode_row_positions(tensor, mode)
            per_nonzero = (layout.vals, *layout.columns)
            assert all(a.shape == (tensor.nnz,) for a in per_nonzero)
            assert sum(a.nbytes for a in per_nonzero) == 5 * tensor.nnz

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), empty=st.booleans())
    def test_layout_equals_the_lexsort_form(self, seed, empty):
        # The cases leave rows empty, and the empty tensor has no rows.
        tensor, _ = layout_case(seed)
        if empty:
            tensor = SparseCountTensor.from_arrays(
                tensor.shape, np.empty((0, tensor.ndim), np.int64), [])
        for mode in range(1, tensor.ndim + 1):
            assert_layouts_equal(mode_row_positions(tensor, mode),
                                 lexsort_mode_row_positions(tensor, mode))

    def test_empty_tensor_has_no_rows(self):
        tensor = SparseCountTensor.from_entries((2, 3), [])
        layout = mode_row_positions(tensor, 1)
        assert len(layout) == 0
        assert_layouts_equal(layout, argsort_mode_row_positions(tensor, 1))
        gathered = []
        assert list(layout.blocks(3, gathered.append)) == []
        assert gathered == []


def unsorted_twin(tensor, seed):
    """The tensor's nonzeros in a shuffled order, built by the raw
    constructor, which neither sorts nor checks them."""
    order = np.random.default_rng(seed).permutation(tensor.nnz)
    return SparseCountTensor(tensor.shape,
                             [column[order] for column in tensor.columns],
                             tensor.counts[order])


def shares_any(layout, arrays):
    return any(np.shares_memory(a, b) for a in (*layout.columns, layout.vals)
               for b in arrays)


class TestLeadingModeSharesTheTensor:
    """A tensor's nonzeros are sorted with mode 1 varying slowest, so mode
    1's layout is the tensor's own columns and counts; the other modes'
    layouts are copies."""

    @pytest.mark.parametrize("source", ["from_arrays", "read_coo",
                                        "sample_tensor"])
    def test_mode_1_shares_and_modes_2_and_3_copy(self, tmp_path, source):
        rng = np.random.default_rng(7)
        dims = (30, 20, 10)
        if source == "sample_tensor":
            model = generate_model(GenConfig(dims=dims, rank=3, samples=3000,
                                             seed=7))
            tensor, _ = sample_tensor(model, 3000, seed=7)
        else:
            cells = np.unique(np.stack([rng.integers(0, d, size=800)
                                        for d in dims], axis=1), axis=0)
            rng.shuffle(cells)
            tensor = SparseCountTensor.from_arrays(
                dims, cells, rng.integers(1, 9, size=len(cells)),
                one_based=False)
            if source == "read_coo":
                write_coo(tensor, tmp_path / "t.coo")
                tensor = read_coo(tmp_path / "t.coo")
        lead = mode_row_positions(tensor, 1)
        assert len(lead.columns) == 2
        for got, own in zip((*lead.columns, lead.vals),
                            (*tensor.columns[1:], tensor.counts)):
            assert np.shares_memory(got, own)
        for mode in (2, 3):
            layout = mode_row_positions(tensor, mode)
            assert not shares_any(layout, (*tensor.columns, tensor.counts))
        for mode in (1, 2, 3):
            assert_layouts_equal(mode_row_positions(tensor, mode),
                                 argsort_mode_row_positions(tensor, mode))

    def test_unsorted_raw_tensor_gets_a_copied_layout(self):
        _, tensor = generate_dataset(GenConfig(dims=(6, 7, 8), rank=3,
                                               samples=500, seed=1))
        twin = unsorted_twin(tensor, 0)
        column = twin.columns[0]
        assert (column[1:] < column[:-1]).any()
        layout = mode_row_positions(twin, 1)
        assert not shares_any(layout, (*twin.columns, twin.counts))
        assert_layouts_equal(layout, argsort_mode_row_positions(twin, 1))
        sorted_layout = mode_row_positions(tensor, 1)
        assert np.array_equal(layout.rows, sorted_layout.rows)
        assert np.array_equal(layout.starts, sorted_layout.starts)

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), shuffled=st.booleans())
    def test_every_mode_equals_the_argsort_layout(self, seed, shuffled):
        tensor, _ = layout_case(seed)
        if shuffled:
            tensor = unsorted_twin(tensor, seed)
        for mode in range(1, tensor.ndim + 1):
            assert_layouts_equal(mode_row_positions(tensor, mode),
                                 argsort_mode_row_positions(tensor, mode))

    def test_three_modes_keep_10_bytes_per_nonzero(self):
        # uint16 indices and uint8 counts: modes 2 and 3 each copy 5 bytes
        # per nonzero and mode 1 none; sorting mode 1 too would keep 15.
        # Beyond that only the row ids and starts, 16 bytes a row, and a
        # few KB of Python objects remain.
        rng = np.random.default_rng(0)
        dims = (300, 400, 500)
        nnz = 200_000
        cells = np.unique(np.stack([rng.integers(0, d, size=nnz + 1000)
                                    for d in dims], axis=1), axis=0)[:nnz]
        tensor = SparseCountTensor.from_arrays(
            dims, cells, rng.integers(1, 256, size=nnz), one_based=False)
        assert tensor.nnz == nnz
        assert [c.dtype for c in (*tensor.columns, tensor.counts)] == [
            np.uint16, np.uint16, np.uint16, np.uint8]
        del cells
        tracemalloc.start()
        try:
            layouts = [mode_row_positions(tensor, mode) for mode in (1, 2, 3)]
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_row = sum(l.rows.nbytes + l.starts.nbytes for l in layouts)
        assert kept <= 10 * nnz + per_row + 16384


class TestLayoutBuiltOncePerTensor:
    """A tensor keeps each mode's layout from its first grouping on, so
    fits, KKT checks and direct mode solves share it."""

    def test_fits_and_kkt_checks_build_each_mode_once(self):
        # No mode of this tensor is large enough to split into parts, so
        # each ModeLayout made is a grouping of the tensor.
        _, tensor = generate_dataset(GenConfig(dims=(6, 7, 8), rank=3,
                                               samples=500, seed=1))
        builds = []
        layout_class = sparse_tensor.ModeLayout

        def counting(*args):
            builds.append(layout_class(*args))
            return builds[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "ModeLayout", counting)
            model = fit(tensor, FitConfig(method="pdnr", rank=3,
                                          outer_max=2)).model
            assert len(builds) == 3
            evaluation.full_kkt_violation(tensor, model)
            fit(tensor, FitConfig(method="mu", rank=3, outer_max=2))
            solve_mode(tensor, model, 2, method="pqnr")
        assert [id(b) for b in builds] == [
            id(mode_row_positions(tensor, n)) for n in (1, 2, 3)]

    def test_same_layout_per_tensor_and_none_shared_between_tensors(self):
        tensor, _ = layout_case(4)
        twin = SparseCountTensor.from_arrays(tensor.shape, tensor.subs0,
                                             tensor.vals, one_based=False)
        for mode in range(1, tensor.ndim + 1):
            layout = mode_row_positions(tensor, mode)
            assert mode_row_positions(tensor, mode) is layout
            assert mode_row_positions(twin, mode) is not layout
            assert_layouts_equal(mode_row_positions(twin, mode), layout)
        # A kept layout would go stale if the tensor's arrays changed.
        for array in (tensor.subs0, tensor.vals):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_out_of_range_mode_after_the_others_are_cached(self):
        tensor, model = layout_case(5)
        for mode in range(1, tensor.ndim + 1):
            mode_row_positions(tensor, mode)
        for mode in (0, tensor.ndim + 1, 1.0, 2.0, True):
            for call in (mode_row_positions, mode_kkt_violation,
                         mu_solve_mode, solve_mode):
                args = (tensor,) if call is mode_row_positions else (
                    tensor, model)
                with pytest.raises(IndexOutOfRangeError,
                                   match=f"mode {mode} out of range"):
                    call(*args, mode)
        assert mode_row_positions(tensor, np.int64(2)) is mode_row_positions(
            tensor, 2)

    def test_bool_mode_caches_no_layout(self):
        tensor, model = layout_case(5)
        with pytest.raises(IndexOutOfRangeError, match="mode True out of"):
            solve_mode(tensor, model, True)
        assert tensor._layouts == {}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestLayoutMatchesPerRowReference:
    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), doubles=st.integers(1, 12),
           min_rows=st.sampled_from((1, 2, evaluation.SCREEN_MIN_ROWS)),
           case=st.just(None))
    @example(seed=0, doubles=10**6, min_rows=1, case="tie")
    @example(seed=0, doubles=10**6, min_rows=10**9, case="tie")
    @example(seed=0, doubles=10**6, min_rows=1, case="all tied")
    @example(seed=0, doubles=6, min_rows=1, case="all tied")
    @example(seed=0, doubles=10**6, min_rows=1, case="zero")
    @example(seed=0, doubles=10**6, min_rows=1, case="empty")
    @example(seed=0, doubles=10**6, min_rows=1, case="overflow")
    @example(seed=0, doubles=10**6, min_rows=10**9, case="overflow")
    def test_mode_kkt_violation(self, seed, doubles, min_rows, case):
        # min_rows 1 sends every block to the blocked screen, 10**9 none.
        tensor, model = (layout_case(seed) if case is None
                         else kkt_edge_case(case))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            mp.setattr(evaluation, "SCREEN_MIN_ROWS", min_rows)
            for mode in range(1, tensor.ndim + 1):
                # assert_equal counts NaN as equal to NaN.
                np.testing.assert_equal(
                    mode_kkt_violation(tensor, model, mode),
                    per_row_mode_kkt_violation(tensor, model, mode))

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), doubles=st.integers(1, 12),
           method=st.sampled_from(("pdnr", "pqnr", "mu")))
    def test_solve_mode(self, seed, doubles, method):
        tensor, model = layout_case(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            mp.setattr(baselines, "INNER_ITERATIONS", 3)
            mp.setattr(row_solver, "K_MAX", 20)
            for mode in range(1, tensor.ndim + 1):
                try:
                    want, rows = per_row_solve_mode(
                        tensor, model, mode, method, 1e-6,
                        inner_iterations=3)
                except ValueError:
                    # Multiplicative updates on a zero model value at a
                    # positive count give NaN, which no model may hold.
                    assert method == "mu"
                    with pytest.raises(ValueError, match="finite"):
                        solve_mode(tensor, model, mode, method=method,
                                   tau=1e-6)
                    continue
                got, report = solve_mode(tensor, model, mode, method=method,
                                         tau=1e-6)
                assert_models_equal(got, want)
                if method != "mu":
                    assert report.rows_solved == len(rows)
                    assert report.inner_iterations == sum(
                        r.iterations for r in rows)
                    assert report.fallback_steps == sum(
                        r.fallback_steps for r in rows)

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1))
    def test_mu_solve_mode(self, seed):
        tensor, model = layout_case(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "INNER_ITERATIONS", 4)
            for mode in range(1, tensor.ndim + 1):
                got = mu_solve_mode(tensor, model, mode)
                want = argsort_mu_solve_mode(tensor, model, mode, 4)
                assert np.array_equal(got.b_matrix, want.b_matrix,
                                      equal_nan=True)
                # Summed block by block, the objectives differ in rounding.
                np.testing.assert_allclose(got.objectives, want.objectives,
                                           rtol=1e-12)

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), doubles=st.integers(1, 12))
    def test_mu_gathers_each_nonzero_once_in_bounded_blocks(self, seed,
                                                            doubles):
        tensor, model = layout_case(seed)
        gathered = []

        def recording(factors, mode0, columns):
            gathered.append(len(columns[0]))
            return real(factors, mode0, columns)

        real = baselines._pi_product
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            mp.setattr(baselines, "_pi_product", recording)
            mp.setattr(baselines, "INNER_ITERATIONS", 3)
            for mode in range(1, tensor.ndim + 1):
                gathered.clear()
                got = mu_solve_mode(tensor, model, mode)
                want = argsort_mu_solve_mode(tensor, model, mode, 3)
                assert np.array_equal(got.b_matrix, want.b_matrix,
                                      equal_nan=True)
                # Each block ends at a row's end and stays within the bound
                # unless it is a single longer row.
                ends = np.cumsum([len(p) for _, p in row_groups(tensor, mode)])
                assert sum(gathered) == tensor.nnz
                limit = max(doubles // model.rank, 1)
                for lo, hi in zip(np.cumsum([0, *gathered[:-1]]),
                                  np.cumsum(gathered)):
                    assert hi in ends
                    assert hi - lo <= limit or not ((ends > lo)
                                                    & (ends < hi)).any()


class TestSweepMonotonicity:
    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1))
    def test_objective_nonincreasing_across_sweeps(self, seed):
        # Starts from the case's model when it gives every nonzero a
        # positive value, from a random positive model otherwise.
        tensor, model = layout_case(seed)
        init = model if np.isfinite(kl_objective(model, tensor)) else None
        for method in ("pdnr", "pqnr", "mu"):
            result = fit(tensor, FitConfig(method=method, rank=model.rank,
                                           outer_max=6, tau=1e-8, seed=0),
                         init=init)
            objs = [r.objective for r in result.trace]
            assert all(np.isfinite(objs))
            assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:])), (
                method, objs)


def split_rows(mp, cpus):
    """Route every mode, however few its rows or little its work, through
    ``cpus`` ranges."""
    mp.setattr(sparse_tensor, "PARALLEL_MIN_ROWS", 0)
    mp.setattr(sparse_tensor, "PARALLEL_MIN_WORK", 0)
    mp.setattr(sparse_tensor, "_allowed_cpus", lambda: cpus)


def count_forks(mp):
    """The pids of the children ``map_row_ranges`` forks from here on."""
    forks = []

    def counting_fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    real_fork = os.fork
    mp.setattr(sparse_tensor.os, "fork", counting_fork)
    return forks


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    fds = "/proc/self/fd"
    return sorted(os.listdir(fds)) if os.path.isdir(fds) else None


# Range functions for map_row_ranges.  A child gets a range function by
# name, so they live at module level; each returns its part's rows of the
# output and a side result.

STRAY = np.zeros(1)  # written only in a child


def pid_rows(part, parent):
    """Each row's pid and id + 10; a child also writes ``STRAY``."""
    if os.getpid() != parent:
        STRAY[0] = 99.0
    rows = np.column_stack([np.full(len(part), float(os.getpid())),
                            part.rows + 10.0])
    return rows, part.rows.tolist()


def ids_plus_ten(part):
    return part.rows + 10, part.rows.tolist()


def fail_in_child(part, parent):
    if os.getpid() != parent:
        raise FactorizationFailureError(f"rows {part.rows.tolist()}")
    return part.rows, part.rows.tolist()


def fail_in_parent(part, parent, error):
    if os.getpid() == parent:
        raise error("parent")
    time.sleep(60)
    return part.rows, None


def exit_in_child(part, parent):
    if os.getpid() != parent:
        os._exit(3)
    return part.rows, len(part)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestRowRanges:
    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), parts=st.integers(1, 6))
    def test_parts_are_consecutive_rows_with_balanced_nonzeros(self, seed,
                                                               parts):
        tensor, _ = layout_case(seed)
        for mode in range(1, tensor.ndim + 1):
            layout = mode_row_positions(tensor, mode)
            split = layout.parts(parts)
            assert 1 <= len(split) <= parts
            assert all(len(p) for p in split) or len(split) == 1
            assert np.array_equal(
                np.concatenate([p.rows for p in split]), layout.rows)
            for p in split:
                assert p.columns is layout.columns
                assert p.vals is layout.vals
                assert p.starts[0] == layout.starts[np.searchsorted(
                    layout.rows, p.rows[0])]
            longest = int(np.diff(layout.starts).max())
            share = layout.starts[-1] / len(split)
            assert all(p.starts[-1] - p.starts[0] <= share + longest
                       for p in split)

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), doubles=st.integers(1, 12),
           cpus=st.integers(1, 4), method=st.sampled_from(("pdnr", "pqnr")))
    def test_forked_ranges_match_serial_and_per_row(self, seed, doubles, cpus,
                                                    method):
        tensor, model = layout_case(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            mp.setattr(row_solver, "K_MAX", 20)
            for mode in range(1, tensor.ndim + 1):
                want, rows = per_row_solve_mode(tensor, model, mode, method,
                                                1e-6)
                want_kkt = per_row_mode_kkt_violation(tensor, model, mode)
                mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 1)
                serial, serial_report = solve_mode(tensor, model, mode,
                                                   method=method, tau=1e-6)
                serial_kkt = mode_kkt_violation(tensor, model, mode)
                split_rows(mp, cpus)
                got, report = solve_mode(tensor, model, mode, method=method,
                                         tau=1e-6)
                assert_models_equal(got, serial)
                assert_models_equal(got, want)
                assert report == serial_report
                assert report.rows_solved == len(rows)
                assert report.inner_iterations == sum(r.iterations for r in rows)
                assert (mode_kkt_violation(tensor, model, mode) == serial_kkt
                        == want_kkt)
        assert_no_children_left()

    def test_expired_deadline_stops_every_range_before_its_first_row(self):
        tensor, model = layout_case(7)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 1)
            serial, serial_report = solve_mode(tensor, model, 1,
                                               deadline=time.perf_counter())
            split_rows(mp, 3)
            got, report = solve_mode(tensor, model, 1,
                                     deadline=time.perf_counter())
        assert report.rows_solved == serial_report.rows_solved == 0
        assert_models_equal(got, serial)
        assert_no_children_left()

    def test_wrapped_callees_keep_every_call_in_this_process(self):
        # A tracer or a spy that wraps a function the rows call must see
        # every call, so such a mode is not split.
        tensor, model = layout_case(3)
        layout = mode_row_positions(tensor, 1)
        assert len(layout) > 1
        calls = []

        def spy(fn):
            def wrapped(*args):
                calls.append(os.getpid())
                return fn(*args)
            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 2)
            plain, _ = solve_mode(tensor, model, 1)
            plain_kkt = mode_kkt_violation(tensor, model, 1)
            mp.setattr(driver, "solve_row_pdnr", spy(driver.solve_row_pdnr))
            spied, report = solve_mode(tensor, model, 1)
            assert calls == [os.getpid()] * len(layout) == (
                [os.getpid()] * report.rows_solved)
            calls.clear()
            mp.setattr(evaluation, "_pi_product", spy(evaluation._pi_product))
            assert mode_kkt_violation(tensor, model, 1) == plain_kkt
            assert calls and set(calls) == {os.getpid()}
        assert_models_equal(spied, plain)
        assert_no_children_left()

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), cpus=st.integers(2, 4))
    def test_kkt_check_forks_nothing(self, seed, cpus):
        # The check costs a few microseconds a row, or a few whole-block
        # passes, less than a fork, so it walks the blocks in this process
        # even when the solve splits.
        tensor, model = layout_case(seed)
        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, cpus)
            forks = count_forks(mp)
            for mode in range(1, tensor.ndim + 1):
                assert (mode_kkt_violation(tensor, model, mode)
                        == per_row_mode_kkt_violation(tensor, model, mode))
            assert forks == []
            solve_mode(tensor, model, 1, method="pqnr")
            parts = mode_row_positions(tensor, 1).parts(cpus)
            assert len(forks) == len(parts) - 1
        assert_no_children_left()

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), doubles=st.integers(1, 12),
           cpus=st.integers(1, 4))
    def test_mu_forked_ranges_match_serial_and_reference(self, seed, doubles,
                                                         cpus):
        tensor, model = layout_case(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            mp.setattr(baselines, "INNER_ITERATIONS", 3)
            forks = count_forks(mp)
            for mode in range(1, tensor.ndim + 1):
                want = argsort_mu_solve_mode(tensor, model, mode, 3)
                mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 1)
                serial = mu_solve_mode(tensor, model, mode)
                split_rows(mp, cpus)
                forks.clear()
                got = mu_solve_mode(tensor, model, mode)
                parts = mode_row_positions(tensor, mode).parts(cpus)
                assert len(forks) == len(parts) - 1
                for other in (serial, want):
                    assert np.array_equal(got.b_matrix, other.b_matrix,
                                          equal_nan=True)
                    # Summed range by range, the objectives differ in
                    # rounding.
                    assert len(got.objectives) == len(other.objectives) == 4
                    np.testing.assert_allclose(got.objectives,
                                               other.objectives, rtol=1e-12)
        assert_no_children_left()

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), cpus=st.integers(2, 4))
    def test_wrapped_gather_keeps_every_mu_update_in_this_process(self, seed,
                                                                  cpus):
        tensor, model = layout_case(seed)
        pids = []

        def spy(factors, mode0, columns):
            pids.append(os.getpid())
            return real(factors, mode0, columns)

        real = baselines._pi_product
        modes = range(1, tensor.ndim + 1)
        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, cpus)
            mp.setattr(baselines, "INNER_ITERATIONS", 3)
            plain = [mu_solve_mode(tensor, model, mode) for mode in modes]
            forks = count_forks(mp)
            mp.setattr(baselines, "_pi_product", spy)
            spied = [mu_solve_mode(tensor, model, mode) for mode in modes]
        assert forks == []
        assert pids and set(pids) == {os.getpid()}
        for got, want in zip(spied, plain):
            assert np.array_equal(got.b_matrix, want.b_matrix, equal_nan=True)
        assert_no_children_left()

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), cpus=st.integers(2, 4))
    def test_mu_child_exception_is_raised_again_with_its_type(self, seed,
                                                              cpus):
        tensor, model = layout_case(seed)
        parent = os.getpid()
        real_blocks = sparse_tensor.ModeLayout.blocks

        def fail_in_child(layout, *args):
            if os.getpid() != parent:
                raise FactorizationFailureError(f"rows {layout.rows.tolist()}")
            return real_blocks(layout, *args)

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, cpus)
            mp.setattr(sparse_tensor.ModeLayout, "blocks", fail_in_child)
            mp.setattr(baselines, "INNER_ITERATIONS", 3)
            for mode in range(1, tensor.ndim + 1):
                if len(mode_row_positions(tensor, mode).parts(cpus)) == 1:
                    mu_solve_mode(tensor, model, mode)
                    continue
                with pytest.raises(FactorizationFailureError, match="rows"):
                    mu_solve_mode(tensor, model, mode)
        assert_no_children_left()

    @pytest.mark.parametrize("method", ["mu"])
    def test_acceptance_sized_modes_fork_nothing(self, method):
        # The README tensor, (20, 30, 40) R5 with 2,435 nonzeros: at most
        # 0.13 M element-updates a mode, so each mu mode solve stays serial
        # whatever the number of CPUs.
        _, tensor = generate_dataset(ACCEPTANCE)
        model = init_model(tensor.shape, 5, seed=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 4)
            forks = count_forks(mp)
            for mode in range(1, tensor.ndim + 1):
                model, _ = solve_mode(tensor, model, mode, method=method)
        assert forks == []

    def test_mu_gate_counts_work_not_rows(self):
        # 300 one-nonzero rows: enough rows to split the row solves, far
        # too little work to split the multiplicative updates.
        tensor = SparseCountTensor.from_entries(
            (300, 2), [((i, 1 + i % 2), 1) for i in range(1, 301)])
        model = normalize(KruskalModel(np.ones(2), (np.full((300, 2), 0.5),
                                                    np.eye(2) + 0.5)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 2)
            forks = count_forks(mp)
            mu_solve_mode(tensor, model, 1)
            assert forks == []
            solve_mode(tensor, model, 1, method="pdnr")
            assert len(forks) == 1
        assert_no_children_left()

    def test_forked_rows_of_out_reach_the_caller(self):
        # Each range returns its own rows of out, here or from a child;
        # what a child writes elsewhere is lost, and rows without data keep
        # their values.
        tensor = SparseCountTensor.from_entries(
            (8, 2), [((i, 1), 1) for i in (1, 2, 4, 5, 7, 8)])
        layout = mode_row_positions(tensor, 1)
        out = np.full((8, 2), -1.0)
        parent = os.getpid()

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 3)
            forks = count_forks(mp)
            got = sparse_tensor.map_row_ranges(tensor, 1, out, pid_rows,
                                               (parent,))
        parts = layout.parts(3)
        assert len(parts) == 3 and len(forks) == 2
        assert got == [p.rows.tolist() for p in parts]
        assert np.array_equal(out[layout.rows, 1], layout.rows + 10)
        pids = [set(out[p.rows, 0].tolist()) for p in parts]
        assert pids[0] == {parent}
        assert all(len(p) == 1 for p in pids[1:])
        assert len(set.union(*pids)) == 3
        assert (out[[2, 5]] == -1.0).all()
        assert STRAY[0] == 0.0
        assert_no_children_left()

    def test_platform_without_affinity_solves_in_one_process(self):
        # Where os.sched_getaffinity is missing, as on macOS, the process
        # counts as one CPU: a layout worth splitting forks nothing.
        if hasattr(os, "sched_getaffinity"):
            assert sparse_tensor._allowed_cpus() == len(
                os.sched_getaffinity(0))
        rows = sparse_tensor.PARALLEL_MIN_ROWS
        tensor = SparseCountTensor.from_entries(
            (rows, 2), [((i, 1), 1) for i in range(1, rows + 1)])
        out = np.zeros(rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.delattr(os, "sched_getaffinity", raising=False)
            forks = count_forks(mp)
            assert sparse_tensor._allowed_cpus() == 1
            got = sparse_tensor.map_row_ranges(tensor, 1, out, ids_plus_ten)
        assert got == [list(range(rows))] and not forks
        assert np.array_equal(out, np.arange(rows) + 10)

    @staticmethod
    def two_range_tensor():
        return SparseCountTensor.from_entries(
            (4, 2), [((i, 1), 1) for i in range(1, 5)])

    def test_child_exception_is_raised_again_with_its_type(self):
        tensor = self.two_range_tensor()
        parent = os.getpid()

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 2)
            with pytest.raises(FactorizationFailureError, match="rows"):
                sparse_tensor.map_row_ranges(tensor, 1, np.zeros(4),
                                             fail_in_child, (parent,))
            mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 1)
            assert sparse_tensor.map_row_ranges(
                tensor, 1, np.zeros(4), fail_in_child,
                (parent,)) == [[0, 1, 2, 3]]
        assert_no_children_left()

    @pytest.mark.parametrize("error", [KeyError, KeyboardInterrupt])
    def test_parent_exception_kills_and_reaps_the_children(self, error):
        tensor = self.two_range_tensor()
        parent = os.getpid()

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 4)
            t0 = time.perf_counter()
            with pytest.raises(error, match="parent"):
                sparse_tensor.map_row_ranges(tensor, 1, np.zeros(4),
                                             fail_in_parent, (parent, error))
        assert time.perf_counter() - t0 < 30
        assert_no_children_left()

    def test_child_ending_without_a_result_is_a_child_process_error(self):
        tensor = self.two_range_tensor()
        parent = os.getpid()

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 2)
            with pytest.raises(ChildProcessError):
                sparse_tensor.map_row_ranges(tensor, 1, np.zeros(4),
                                             exit_in_child, (parent,))
        assert_no_children_left()

    @pytest.mark.parametrize("refused", ["fork", "pipe"])
    def test_failed_fork_computes_the_ranges_in_the_caller(self, refused):
        # Out of processes or of file descriptors, the caller solves every
        # range itself and leaves no pipe end open.
        tensor = self.two_range_tensor()
        layout = mode_row_positions(tensor, 1)
        before = open_fds()

        def refuse():
            raise OSError(errno.EMFILE, f"{refused} refused")

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 3)
            mp.setattr(sparse_tensor.os, refused, refuse)
            got = sparse_tensor.map_row_ranges(tensor, 1, np.zeros(4),
                                               ids_plus_ten)
        assert got == [p.rows.tolist() for p in layout.parts(3)]
        assert open_fds() == before
        assert_no_children_left()

    def test_children_reaped_by_the_kernel_still_send_their_rows(self):
        # Under SIGCHLD = SIG_IGN the kernel reaps each child as it exits,
        # so waiting for it finds no child; its result and rows count all
        # the same.
        tensor = self.two_range_tensor()
        serial = np.zeros(4)
        expected = []
        for part in mode_row_positions(tensor, 1).parts(3):
            rows, result = ids_plus_ten(part)
            serial[part.rows] = rows
            expected.append(result)
        out = np.zeros(4)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            with pytest.MonkeyPatch.context() as mp:
                split_rows(mp, 3)
                forks = count_forks(mp)
                got = sparse_tensor.map_row_ranges(tensor, 1, out,
                                                   ids_plus_ten)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 2
        assert got == expected
        assert np.array_equal(out, serial)
        assert_no_children_left()


ACCEPTANCE = GenConfig(dims=(20, 30, 40), rank=5, samples=50_000, seed=5)


def fit_bytes(result):
    """A fit's model bytes and its trace rows without ``seconds``."""
    model = result.model
    trace = [dataclasses.replace(record, seconds=0.0)
             for record in result.trace]
    return ([model.weights.tobytes(), *(f.tobytes() for f in model.factors)],
            trace)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestRowRangePool:
    """A pdnr or pqnr fit forks its row-range children once, on its first
    split, and every later mode solve of the fit reuses them."""

    @pytest.mark.parametrize("method", ["pdnr", "pqnr", "mu"])
    def test_acceptance_fit_forks_once_and_matches_on_any_cpu_count(
            self, method):
        # The real gates: each of the README tensor's 20-, 30- and 40-row
        # modes splits for pdnr and pqnr, and no mu mode does.
        _, tensor = generate_dataset(ACCEPTANCE)
        config = FitConfig(method=method, rank=5, tau=1e-4)
        fits = []
        with pytest.MonkeyPatch.context() as mp:
            forks = count_forks(mp)
            for cpus in (1, 2, 3):
                mp.setattr(sparse_tensor, "_allowed_cpus", lambda: cpus)
                forks.clear()
                result = fit(tensor, config)
                assert len(forks) == (0 if method == "mu" else cpus - 1)
                assert_no_children_left()
                fits.append(fit_bytes(result))
        assert len(fits[0][1]) == (113 if method == "mu" else 21)
        assert fits[0] == fits[1] == fits[2]

    def test_no_child_outlives_a_fit_stopped_by_its_time_limit(self):
        _, tensor = generate_dataset(ACCEPTANCE)
        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 2)
            forks = count_forks(mp)
            result = fit(tensor, FitConfig(method="pqnr", rank=5, tau=1e-4,
                                           time_limit=0.05))
        assert not result.converged
        assert len(forks) == 1
        assert_no_children_left()

    def test_child_exception_in_a_fit_is_raised_and_no_child_is_left(self):
        _, tensor = generate_dataset(ACCEPTANCE)
        parent = os.getpid()
        real_blocks = sparse_tensor.ModeLayout.blocks

        def fail_in_child(layout, *args):
            if os.getpid() != parent:
                raise FactorizationFailureError(f"rows {layout.rows.tolist()}")
            return real_blocks(layout, *args)

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 2)
            mp.setattr(sparse_tensor.ModeLayout, "blocks", fail_in_child)
            with pytest.raises(FactorizationFailureError, match="rows"):
                fit(tensor, FitConfig(method="pdnr", rank=5))
        assert_no_children_left()

    @pytest.mark.parametrize("error", [KeyError, KeyboardInterrupt])
    def test_caller_exception_in_a_fit_kills_and_reaps_the_children(
            self, error):
        _, tensor = generate_dataset(ACCEPTANCE)
        parent = os.getpid()
        real_blocks = sparse_tensor.ModeLayout.blocks

        def fail_in_parent(layout, *args):
            if os.getpid() == parent:
                raise error("parent")
            time.sleep(60)
            return real_blocks(layout, *args)

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 3)
            forks = count_forks(mp)
            mp.setattr(sparse_tensor.ModeLayout, "blocks", fail_in_parent)
            t0 = time.perf_counter()
            with pytest.raises(error, match="parent"):
                fit(tensor, FitConfig(method="pqnr", rank=5))
        assert time.perf_counter() - t0 < 30
        assert len(forks) == 2
        assert_no_children_left()

    def test_child_dying_between_mode_solves_is_a_child_process_error(self):
        _, tensor = generate_dataset(ACCEPTANCE)
        model = init_model(tensor.shape, 5, seed=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 1)
            serial, _ = solve_mode(tensor, model, 2)
            split_rows(mp, 2)
            forks = count_forks(mp)
            with sparse_tensor.RowRangePool(tensor):
                solve_mode(tensor, model, 1)
                assert len(forks) == 1
                os.kill(forks[0], signal.SIGKILL)
                with pytest.raises(ChildProcessError):
                    solve_mode(tensor, model, 2)
                assert_no_children_left()
                # The next split forks anew.
                got, _ = solve_mode(tensor, model, 2)
                assert len(forks) == 2
        assert_models_equal(got, serial)
        assert_no_children_left()

    @pytest.mark.parametrize("refused, allowed", [("fork", 1), ("pipe", 2)])
    def test_fork_refused_mid_fit_leaves_the_rest_to_the_caller(self, refused,
                                                                allowed):
        # Three ranges: the first child is made, the second is refused, and
        # the caller solves its own range and the refused one in every
        # later mode solve, trying no other fork.
        _, tensor = generate_dataset(ACCEPTANCE)
        config = FitConfig(method="pdnr", rank=5, tau=1e-4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 1)
            serial = fit_bytes(fit(tensor, config))
            mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 3)
            attempts = []
            real = getattr(os, refused)

            def refuse_after_allowed():
                attempts.append(1)
                if len(attempts) > allowed:
                    raise OSError(errno.EAGAIN, f"{refused} refused")
                return real()

            before = open_fds()
            mp.setattr(sparse_tensor.os, refused, refuse_after_allowed)
            got = fit_bytes(fit(tensor, config))
        assert got == serial
        assert len(attempts) == allowed + 1
        assert open_fds() == before
        assert_no_children_left()

    @pytest.mark.parametrize("name, method", [
        ("partition_variables", "pdnr"),
        ("armijo_projected_search", "pdnr"),
        ("damped_newton_direction", "pdnr"),
        ("multiplicative_step", "pqnr"),
        ("LbfgsStore.direction", "pqnr"),
    ])
    def test_wrapped_row_solver_names_keep_every_call_in_this_process(
            self, name, method):
        # The row solves look these up in row_solver by name, and a tracer
        # wraps each: a wrapper sees every call, even on a pool that already
        # has children.  partition_variables runs once per inner iteration.
        _, tensor = generate_dataset(GenConfig(dims=(600, 8, 8), rank=3,
                                               samples=6000, seed=3))
        model = init_model(tensor.shape, 3, seed=0)
        owner, attr = ((row_solver.LbfgsStore, "direction")
                       if name == "LbfgsStore.direction"
                       else (row_solver, name))
        pids = []

        def spy(fn):
            def wrapped(*args):
                pids.append(os.getpid())
                return fn(*args)
            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 2)
            forks = count_forks(mp)
            with sparse_tensor.RowRangePool(tensor):
                plain, plain_report = solve_mode(tensor, model, 1,
                                                 method=method)
                assert len(forks) == 1
                mp.setattr(owner, attr, spy(getattr(owner, attr)))
                spied, report = solve_mode(tensor, model, 1, method=method)
        assert len(forks) == 1
        assert report == plain_report
        assert_models_equal(spied, plain)
        assert set(pids) <= {os.getpid()}
        if name == "partition_variables":
            assert len(pids) == report.inner_iterations > 0
        assert_no_children_left()
