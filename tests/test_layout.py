"""The per-mode row layout against per-row and argsort references.

The solve, the KKT check and the multiplicative baseline walk a mode's
nonzeros in cache-sized blocks of rows.  With the block bound shrunk so
that blocks split often, every result must equal the per-row reference
bit for bit, on tensors with empty rows, rows shorter than the rank and
rows longer than one block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poissoncp.sparse_tensor as sparse_tensor
from conftest import (
    argsort_mu_solve_mode,
    per_row_mode_kkt_violation,
    per_row_solve_mode,
    row_groups,
)
from poissoncp.baselines import MuParams, mu_solve_mode
from poissoncp.driver import FitConfig, fit, solve_mode
from poissoncp.evaluation import mode_kkt_violation
from poissoncp.kruskal import KruskalModel, kl_objective, normalize
from poissoncp.row_solver import SolverParams
from poissoncp.sparse_tensor import SparseCountTensor, mode_row_positions

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


def assert_models_equal(a, b):
    # Multiplicative updates on a zero model value give NaN, in both.
    assert np.array_equal(a.weights, b.weights, equal_nan=True)
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb, equal_nan=True)


class TestModeLayout:
    @LAYOUT_PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), doubles=st.integers(1, 12),
           rank=st.integers(1, 6))
    def test_blocks_cover_every_position_once_in_order(self, seed, doubles,
                                                       rank):
        tensor, _ = layout_case(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse_tensor, "BLOCK_DOUBLES", doubles)
            limit = max(doubles // rank, 1)
            for mode in range(1, tensor.ndim + 1):
                layout = mode_row_positions(tensor, mode)
                reference = row_groups(tensor, mode)
                assert layout.rows.tolist() == [r for r, _ in reference]
                assert [layout.order[lo:hi].tolist() for lo, hi in
                        zip(layout.starts[:-1], layout.starts[1:])] == [
                    p.tolist() for _, p in reference]
                rows, positions = [], []
                for pos, spans in layout.blocks(rank):
                    assert len(pos) <= limit or len(spans) == 1
                    assert spans[0][1] == 0 and spans[-1][2] == len(pos)
                    for row0, lo, hi in spans:
                        assert lo < hi
                        rows.append(row0)
                        positions.append(pos[lo:hi].tolist())
                assert rows == [r for r, _ in reference]
                assert positions == [p.tolist() for _, p in reference]

    def test_empty_tensor_has_no_rows(self):
        tensor = SparseCountTensor.from_entries((2, 3), [])
        layout = mode_row_positions(tensor, 1)
        assert len(layout) == 0
        assert list(layout.blocks(3)) == []


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
                got, report = solve_mode(tensor, model, mode, method=method,
                                         solver=solver, mu_params=MuParams(3))
                want, rows = per_row_solve_mode(tensor, model, mode, method,
                                                solver, inner_iterations=3)
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
            got = mu_solve_mode(tensor, model, mode, MuParams(4))
            want = argsort_mu_solve_mode(tensor, model, mode, 4)
            assert np.array_equal(got.b_matrix, want.b_matrix, equal_nan=True)
            assert np.array_equal(got.objectives, want.objectives,
                                  equal_nan=True)


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
