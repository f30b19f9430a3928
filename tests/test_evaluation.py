import numpy as np
import pytest

from conftest import exhaustive_score, random_model
from poissoncp.driver import FitConfig, fit, init_model
from poissoncp.errors import ShapeMismatchError
from poissoncp.evaluation import (
    congruence_matrix,
    exact_zero_count,
    full_kkt_violation,
    mode_kkt_violation,
    score_greedy,
    thresholded_zero_count,
)
from poissoncp.kruskal import KruskalModel, normalize
from poissoncp.sparse_tensor import SparseCountTensor
from poissoncp.synth import GenConfig, generate_dataset


class TestScoreGreedy:
    def test_self_score_is_one(self, rng):
        m = normalize(random_model(rng, (4, 5, 3), 3))
        report = score_greedy(m, m)
        assert report.score == pytest.approx(1.0)
        assert report.permutation == (0, 1, 2)

    def test_disjoint_supports_score_zero(self):
        f_a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        f_b = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        a = KruskalModel(np.ones(2), (f_a, f_a))
        b = KruskalModel(np.ones(2), (f_b, f_b))
        assert score_greedy(a, b).score == pytest.approx(0.0)

    def test_permutation_recovered(self, rng):
        m = normalize(random_model(rng, (6, 5, 4), 3))
        perm = (2, 0, 1)
        shuffled = KruskalModel(
            m.weights[list(perm)],
            tuple(f[:, list(perm)] for f in m.factors),
        )
        report = score_greedy(m, shuffled)
        assert report.score == pytest.approx(1.0)
        recovered = tuple(perm.index(r) for r in range(3))
        assert report.permutation == recovered

    def test_greedy_bounded_by_exhaustive(self, rng):
        for _ in range(20):
            a = random_model(rng, (5, 4), 4)
            b = random_model(rng, (5, 4), 4)
            greedy = score_greedy(a, b).score
            exact = exhaustive_score(congruence_matrix(a, b))
            assert greedy <= exact + 1e-12

    def test_greedy_equals_exhaustive_when_well_separated(self, rng):
        base = np.eye(6)[:, :3] + 0.01 * rng.random((6, 3))
        a = KruskalModel(np.ones(3), (base, base.copy()))
        noisy = base + 0.01 * rng.random((6, 3))
        b = KruskalModel(np.ones(3), (noisy, noisy.copy()))
        assert score_greedy(a, b).score == pytest.approx(
            exhaustive_score(congruence_matrix(a, b))
        )

    def test_symmetric(self, rng):
        a = random_model(rng, (5, 4, 3), 3)
        b = random_model(rng, (5, 4, 3), 3)
        assert abs(score_greedy(a, b).score - score_greedy(b, a).score) <= 1e-12

    def test_weights_ignored(self, rng):
        a = random_model(rng, (5, 4), 3)
        b = random_model(rng, (5, 4), 3)
        rescaled = KruskalModel(b.weights * 100.0, b.factors)
        assert score_greedy(a, rescaled).score == pytest.approx(
            score_greedy(a, b).score
        )

    def test_shape_mismatch_rejected(self, rng):
        a = random_model(rng, (5, 4), 3)
        b = random_model(rng, (5, 5), 3)
        with pytest.raises(ShapeMismatchError):
            score_greedy(a, b)

    def test_dead_component_scores_zero(self, rng):
        a = normalize(random_model(rng, (5, 4), 2))
        factors = tuple(f.copy() for f in a.factors)
        for f in factors:
            f[:, 1] = 0.0
        dead = KruskalModel(a.weights, factors)
        report = score_greedy(dead, a)
        assert min(report.per_component) == 0.0


class TestZeroCounts:
    def test_fresh_init_has_no_zeros(self):
        m = init_model((6, 7), 3, seed=0)
        assert exact_zero_count(m).total == 0

    def test_zeroed_column_counted(self, rng):
        m = random_model(rng, (6, 7), 3)
        factors = tuple(f.copy() for f in m.factors)
        factors[0][:, 1] = 0.0
        z = exact_zero_count(KruskalModel(m.weights, factors))
        assert z.per_factor == (6, 0)
        assert z.total == 6

    def test_thresholded_counts_nested(self, rng):
        m = random_model(rng, (6, 7), 3)
        factors = tuple(f.copy() for f in m.factors)
        factors[0][0, 0] = 0.0
        factors[0][1, 0] = 5e-5
        factors[0][2, 0] = 5e-4
        m = KruskalModel(m.weights, factors)
        exact = exact_zero_count(m).total
        t5 = thresholded_zero_count(m, 1e-5).total
        t4 = thresholded_zero_count(m, 1e-4).total
        t3 = thresholded_zero_count(m, 1e-3).total
        assert exact == 1
        assert exact <= t5 <= t4 <= t3
        assert t4 == 2 and t3 == 3


@pytest.fixture(scope="module")
def fitted():
    truth, tensor = generate_dataset(
        GenConfig(dims=(6, 7, 8), rank=3, samples=2000, seed=11)
    )
    res = fit(tensor, FitConfig(method="pdnr", rank=3, tau=1e-4,
                                outer_max=300, seed=2))
    return tensor, res


class TestKktReports:
    def test_converged_fit_within_tolerance(self, fitted):
        tensor, res = fitted
        assert res.converged
        per_mode, worst = full_kkt_violation(tensor, res.model)
        assert worst <= 1e-4
        assert len(per_mode) == 3

    def test_agreement_with_driver_trace(self, fitted):
        tensor, res = fitted
        _, worst = full_kkt_violation(tensor, res.model)
        assert abs(worst - res.final_kkt) <= 1e-12

    def test_perturbation_increases_violation(self, fitted, rng):
        tensor, res = fitted
        factors = tuple(f.copy() for f in res.model.factors)
        factors[0][0, 0] += 0.5
        bumped = KruskalModel(res.model.weights, factors)
        _, worst = full_kkt_violation(tensor, bumped)
        assert worst > 1e-4

    @pytest.mark.parametrize("mode", [1, 2])
    def test_zero_model_value_at_positive_count_is_infinite(self, mode):
        # The count at (2, 2) sits on a cell the model gives zero.
        tensor = SparseCountTensor.from_entries((2, 2), [((1, 1), 1),
                                                         ((2, 2), 4)])
        model = KruskalModel(np.array([5.0]), (np.array([[1.0], [0.0]]),
                                               np.array([[0.5], [0.5]])))
        assert mode_kkt_violation(tensor, model, mode) == np.inf

    def test_mode_kkt_pure_function(self, fitted):
        tensor, res = fitted
        first = mode_kkt_violation(tensor, res.model, 1)
        second = mode_kkt_violation(tensor, res.model, 1)
        assert first == second
