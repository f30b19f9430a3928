"""The per-mode row layout against per-row and argsort references.

The solve and the KKT check walk a mode's row views, which gather the
Khatri-Rao rows in cache-sized blocks of rows; the multiplicative baseline
runs its updates on the same blocks.  With the block bound shrunk so that
blocks split often, every result must equal the per-row reference bit for
bit (the mu objectives, summed block by block, to rounding), on tensors
with empty rows, rows shorter than the rank and rows longer than one
block.  The same holds when the rows are split into ranges that
forked children solve; the KKT check never forks.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poissoncp.baselines as baselines
import poissoncp.driver as driver
import poissoncp.evaluation as evaluation
import poissoncp.sparse_tensor as sparse_tensor
from conftest import (
    argsort_mode_row_positions,
    argsort_mu_solve_mode,
    lexsort_mode_row_positions,
    per_row_mode_kkt_violation,
    per_row_solve_mode,
    row_groups,
)
from poissoncp.baselines import mu_solve_mode
from poissoncp.driver import FitConfig, fit, init_model, solve_mode
from poissoncp.errors import FactorizationFailureError
from poissoncp.evaluation import mode_kkt_violation
from poissoncp.kruskal import KruskalModel, kl_objective, normalize
from poissoncp.row_solver import SolverParams
from poissoncp.sparse_tensor import SparseCountTensor, mode_row_positions
from poissoncp.synth import GenConfig, generate_dataset

LAYOUT_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                           database=None)


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
    for name in ("order", "rows", "starts"):
        got, want = getattr(a, name), getattr(b, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def assert_models_equal(a, b):
    assert np.array_equal(a.weights, b.weights)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)


class TestModeLayout:
    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), doubles=st.integers(1, 12),
           rank=st.integers(1, 6))
    def test_row_views_cover_every_position_once_in_order(self, seed, doubles,
                                                          rank):
        tensor, _ = layout_case(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            limit = max(doubles // rank, 1)
            for mode in range(1, tensor.ndim + 1):
                layout = mode_row_positions(tensor, mode)
                assert_layouts_equal(layout,
                                     argsort_mode_row_positions(tensor, mode))
                reference = row_groups(tensor, mode)
                sizes, block_rows = [], []

                def gather(subs0):
                    # The subscripts stand in for the Khatri-Rao rows, so
                    # each view shows which nonzeros it holds.
                    sizes.append(len(subs0))
                    block_rows.append(0)
                    return subs0.astype(np.float64)

                rows, subs, counts = [], [], []
                for row0, x, pi in layout.row_views(tensor, rank, gather):
                    block_rows[-1] += 1
                    assert x.dtype == np.float64 and pi.shape == (
                        tensor.ndim, len(x))
                    rows.append(row0)
                    subs.append(pi.T.tolist())
                    counts.append(x.tolist())
                assert sum(sizes) == tensor.nnz
                assert all(size <= limit or n == 1
                           for size, n in zip(sizes, block_rows))
                assert rows == [r for r, _ in reference]
                assert subs == [tensor.subs0[p].tolist() for _, p in reference]
                assert counts == [tensor.vals[p].tolist() for _, p in reference]

                # blocks() walks the same blocks whole: the rows' ids and
                # sizes, and their counts and Khatri-Rao rows in row order.
                walked = list(layout.blocks(tensor, rank,
                                            lambda s: s.astype(np.float64)))
                assert [len(b[0]) for b in walked] == block_rows
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
        assert list(layout.row_views(tensor, 3, gathered.append)) == []
        assert list(layout.blocks(tensor, 3, gathered.append)) == []
        assert gathered == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestLayoutMatchesPerRowReference:
    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), doubles=st.integers(1, 12))
    def test_mode_kkt_violation(self, seed, doubles):
        tensor, model = layout_case(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            for mode in range(1, tensor.ndim + 1):
                assert (mode_kkt_violation(tensor, model, mode)
                        == per_row_mode_kkt_violation(tensor, model, mode))

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), doubles=st.integers(1, 12),
           method=st.sampled_from(("pdnr", "pqnr", "mu")))
    def test_solve_mode(self, seed, doubles, method):
        tensor, model = layout_case(seed)
        solver = SolverParams(tau=1e-6, k_max=20)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            for mode in range(1, tensor.ndim + 1):
                try:
                    want, rows = per_row_solve_mode(
                        tensor, model, mode, method, solver,
                        inner_iterations=3)
                except ValueError:
                    # Multiplicative updates on a zero model value at a
                    # positive count give NaN, which no model may hold.
                    assert method == "mu"
                    with pytest.raises(ValueError, match="finite"):
                        solve_mode(tensor, model, mode, method=method,
                                   solver=solver, inner_iterations=3)
                    continue
                got, report = solve_mode(tensor, model, mode, method=method,
                                         solver=solver, inner_iterations=3)
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
        for mode in range(1, tensor.ndim + 1):
            got = mu_solve_mode(tensor, model, mode, 4)
            want = argsort_mu_solve_mode(tensor, model, mode, 4)
            assert np.array_equal(got.b_matrix, want.b_matrix, equal_nan=True)
            # Summed block by block, the objectives differ in rounding.
            np.testing.assert_allclose(got.objectives, want.objectives,
                                       rtol=1e-12)

    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), doubles=st.integers(1, 12))
    def test_mu_gathers_each_nonzero_once_in_bounded_blocks(self, seed,
                                                            doubles):
        tensor, model = layout_case(seed)
        gathered = []

        def recording(factors, mode0, subs0):
            gathered.append(len(subs0))
            return real(factors, mode0, subs0)

        real = baselines._pi_product
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            mp.setattr(baselines, "_pi_product", recording)
            for mode in range(1, tensor.ndim + 1):
                gathered.clear()
                got = mu_solve_mode(tensor, model, mode, 3)
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
    """Count the children ``map_row_ranges`` forks from here on."""
    forks = []

    def counting_fork():
        forks.append(1)
        return real_fork()

    real_fork = os.fork
    mp.setattr(sparse_tensor.os, "fork", counting_fork)
    return forks


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
                assert p.order is layout.order
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
        solver = SolverParams(tau=1e-6, k_max=20)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            for mode in range(1, tensor.ndim + 1):
                want, rows = per_row_solve_mode(tensor, model, mode, method,
                                                solver)
                want_kkt = per_row_mode_kkt_violation(tensor, model, mode)
                mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 1)
                serial, serial_report = solve_mode(tensor, model, mode,
                                                   method=method, solver=solver)
                serial_kkt = mode_kkt_violation(tensor, model, mode)
                split_rows(mp, cpus)
                got, report = solve_mode(tensor, model, mode, method=method,
                                         solver=solver)
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
        # The check costs a few microseconds a row, less than a fork, so
        # it walks the rows in this process even when the solve splits.
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
            forks = count_forks(mp)
            for mode in range(1, tensor.ndim + 1):
                want = argsort_mu_solve_mode(tensor, model, mode, 3)
                mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 1)
                serial = mu_solve_mode(tensor, model, mode, 3)
                split_rows(mp, cpus)
                forks.clear()
                got = mu_solve_mode(tensor, model, mode, 3)
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

        def spy(factors, mode0, subs0):
            pids.append(os.getpid())
            return real(factors, mode0, subs0)

        real = baselines._pi_product
        modes = range(1, tensor.ndim + 1)
        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, cpus)
            plain = [mu_solve_mode(tensor, model, mode, 3) for mode in modes]
            forks = count_forks(mp)
            mp.setattr(baselines, "_pi_product", spy)
            spied = [mu_solve_mode(tensor, model, mode, 3) for mode in modes]
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
            for mode in range(1, tensor.ndim + 1):
                if len(mode_row_positions(tensor, mode).parts(cpus)) == 1:
                    mu_solve_mode(tensor, model, mode, 3)
                    continue
                with pytest.raises(FactorizationFailureError, match="rows"):
                    mu_solve_mode(tensor, model, mode, 3)
        assert_no_children_left()

    @pytest.mark.parametrize("method", ["pdnr", "pqnr", "mu"])
    def test_acceptance_sized_modes_fork_nothing(self, method):
        # The README tensor, (20, 30, 40) R5 with 2,435 nonzeros: at most
        # 40 rows and 0.13 M element-updates a mode, so each stays serial
        # whatever the number of CPUs.
        _, tensor = generate_dataset(GenConfig(dims=(20, 30, 40), rank=5,
                                               samples=50_000, seed=5))
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

    @staticmethod
    def two_range_layout():
        tensor = SparseCountTensor.from_entries(
            (4, 2), [((i, 1), 1) for i in range(1, 5)])
        return mode_row_positions(tensor, 1)

    def test_child_exception_is_raised_again_with_its_type(self):
        layout = self.two_range_layout()
        parent = os.getpid()

        def fail_in_child(part):
            if os.getpid() != parent:
                raise FactorizationFailureError(f"rows {part.rows.tolist()}")
            return part.rows.tolist()

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 2)
            with pytest.raises(FactorizationFailureError, match="rows"):
                sparse_tensor.map_row_ranges(layout, fail_in_child)
            mp.setattr(sparse_tensor, "_allowed_cpus", lambda: 1)
            assert sparse_tensor.map_row_ranges(layout, fail_in_child) == [
                [0, 1, 2, 3]]
        assert_no_children_left()

    @pytest.mark.parametrize("error", [KeyError, KeyboardInterrupt])
    def test_parent_exception_kills_and_reaps_the_children(self, error):
        layout = self.two_range_layout()
        parent = os.getpid()

        def fail_in_parent(part):
            if os.getpid() == parent:
                raise error("parent")
            time.sleep(60)

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 4)
            t0 = time.perf_counter()
            with pytest.raises(error, match="parent"):
                sparse_tensor.map_row_ranges(layout, fail_in_parent)
        assert time.perf_counter() - t0 < 30
        assert_no_children_left()

    def test_child_ending_without_a_result_is_a_child_process_error(self):
        layout = self.two_range_layout()
        parent = os.getpid()

        def exit_in_child(part):
            if os.getpid() != parent:
                os._exit(3)
            return len(part)

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 2)
            with pytest.raises(ChildProcessError):
                sparse_tensor.map_row_ranges(layout, exit_in_child)
        assert_no_children_left()

    def test_failed_fork_computes_the_ranges_in_the_caller(self):
        layout = self.two_range_layout()

        def no_fork():
            raise OSError("fork refused")

        with pytest.MonkeyPatch.context() as mp:
            split_rows(mp, 3)
            mp.setattr(sparse_tensor.os, "fork", no_fork)
            got = sparse_tensor.map_row_ranges(layout,
                                               lambda p: p.rows.tolist())
        assert got == [p.rows.tolist() for p in layout.parts(3)]
        assert_no_children_left()
