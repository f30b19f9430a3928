import numpy as np
import pytest

from conftest import random_model
from poissoncp.baselines import mu_solve_mode
from poissoncp.driver import FitConfig
from poissoncp.kruskal import KruskalModel, normalize
from poissoncp.row_solver import RowProblem, multiplicative_step
from poissoncp.sparse_tensor import SparseCountTensor


def exact_fit_instance():
    """2x2 matrix case where X = B Pi exactly on every cell."""
    a2 = np.array([[0.5, 0.25], [0.5, 0.75]])  # columns sum to one
    b = np.array([[2.0, 4.0], [1.0, 2.0]])
    x = b @ a2.T  # [[2, 4], [1, 2]], all integers
    weights = b.sum(axis=0)
    a1 = b / weights
    model = KruskalModel(weights, (a1, a2), normalized=True)
    entries = [
        ((i + 1, j + 1), int(x[i, j])) for i in range(2) for j in range(2)
    ]
    tensor = SparseCountTensor.from_entries((2, 2), entries)
    return tensor, model, b


class TestInnerIterations:
    def test_fit_config_rejects_zero_inner(self):
        with pytest.raises(ValueError):
            FitConfig(method="mu", rank=2, inner_iterations=0)

    def test_mu_solve_mode_rejects_zero_inner(self):
        tensor, model, _ = exact_fit_instance()
        with pytest.raises(ValueError):
            mu_solve_mode(tensor, model, 1, inner_iterations=0)


class TestMuSolveMode:
    def test_exact_fit_is_fixed_point(self):
        tensor, model, b = exact_fit_instance()
        result = mu_solve_mode(tensor, model, 1, inner_iterations=3)
        np.testing.assert_allclose(result.b_matrix, b, rtol=1e-12)

    def test_scalar_case_one_update_reaches_optimum(self):
        # One cell with count 2 and pi = 1: b <- b * (x / b) lands on x.
        a2 = np.array([[1.0]])
        a1 = np.array([[1.0]])
        model = KruskalModel(np.array([1.0]), (a1, a2), normalized=True)
        tensor = SparseCountTensor.from_entries((1, 1), [((1, 1), 2)])
        result = mu_solve_mode(tensor, model, 1, inner_iterations=1)
        assert result.b_matrix[0, 0] == pytest.approx(2.0)

    def test_output_nonnegative(self, rng):
        model = normalize(random_model(rng, (4, 5, 3), 2))
        cells = rng.choice(60, size=20, replace=False)
        subs = np.stack(np.unravel_index(cells, (4, 5, 3)), axis=1) + 1
        tensor = SparseCountTensor.from_arrays(
            (4, 5, 3), subs, rng.integers(1, 7, size=20)
        )
        for mode in (1, 2, 3):
            result = mu_solve_mode(tensor, model, mode)
            assert (result.b_matrix >= 0.0).all()

    def test_rows_without_data_become_zero(self, rng):
        model = normalize(random_model(rng, (4, 3), 2))
        tensor = SparseCountTensor.from_entries((4, 3), [((1, 2), 5), ((3, 1), 2)])
        result = mu_solve_mode(tensor, model, 1)
        np.testing.assert_array_equal(result.b_matrix[1], 0.0)
        np.testing.assert_array_equal(result.b_matrix[3], 0.0)

    def test_objective_nonincreasing_random(self, rng):
        # Mode objective must not increase across any inner iteration.
        for _ in range(50):
            dims = tuple(int(rng.integers(2, 6)) for _ in range(3))
            size = dims[0] * dims[1] * dims[2]
            nnz = int(rng.integers(3, min(20, size)))
            cells = rng.choice(size, size=nnz, replace=False)
            subs = np.stack(np.unravel_index(cells, dims), axis=1) + 1
            tensor = SparseCountTensor.from_arrays(
                dims, subs, rng.integers(1, 9, size=nnz)
            )
            model = normalize(random_model(rng, dims, int(rng.integers(1, 4))))
            mode = int(rng.integers(1, 4))
            result = mu_solve_mode(tensor, model, mode, inner_iterations=5)
            diffs = np.diff(result.objectives)
            assert (diffs <= 1e-9).all()

    def test_matches_per_row_multiplicative_steps(self, rng):
        # The vectorized mode update must equal row-by-row multiplicative
        # steps built from the same Khatri-Rao columns.
        from poissoncp.kruskal import _pi_product

        model = normalize(random_model(rng, (4, 3, 2), 2))
        cells = rng.choice(24, size=10, replace=False)
        subs = np.stack(np.unravel_index(cells, (4, 3, 2)), axis=1) + 1
        tensor = SparseCountTensor.from_arrays(
            (4, 3, 2), subs, rng.integers(1, 6, size=10)
        )
        result = mu_solve_mode(tensor, model, 1, inner_iterations=1)
        b_start = np.maximum(model.factors[0] * model.weights, 1e-16)
        from poissoncp.sparse_tensor import mode_row_positions

        layout = mode_row_positions(tensor, 1)
        for row0, lo, hi in zip(layout.rows, layout.starts[:-1],
                                layout.starts[1:]):
            pos = layout.order[lo:hi]
            pi = _pi_product(model.factors, 0, tensor.subs0[pos]).T
            problem = RowProblem(b_start[row0], tensor.vals[pos], pi)
            expected = multiplicative_step(problem, b_start[row0])
            np.testing.assert_allclose(result.b_matrix[row0], expected, rtol=1e-12)
