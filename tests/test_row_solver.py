import functools

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import poissoncp.row_solver as row_solver
from conftest import (
    bfgs_inverse_update,
    central_diff,
    central_diff_jacobian,
    ReferenceLbfgsStore,
    projected_gradient_solve,
    random_row_problem,
    reference_solve_row,
    run_at_thread_counts,
)
from poissoncp.errors import FactorizationFailureError, UndefinedAtZeroModelError
from poissoncp.row_solver import (
    FACTORIZATION_RETRIES,
    LbfgsStore,
    RowProblem,
    armijo_projected_search,
    assemble_direction,
    damped_newton_direction,
    f_row,
    grad_row,
    hess_row,
    kkt_violation_row,
    multiplicative_step,
    partition_variables,
    solve_row_pdnr,
    solve_row_pqnr,
    update_damping,
)
from poissoncp.driver import init_model, solve_mode
from poissoncp.synth import GenConfig, generate_dataset


def scalar_problem(b=1.0):
    return RowProblem(np.array([b]), np.array([2.0]), np.array([[1.0]]))


def empty_problem(b):
    b = np.asarray(b, dtype=float)
    return RowProblem(b, np.empty(0), np.empty((b.size, 0)))


class TestRowProblem:
    @pytest.mark.parametrize("b, x, pi, message", [
        ([1.0, 1.0], [2.0], [[1.0, 1.0]], "pi must be 2 x 1"),
        ([1.0, 1.0], [2.0], [1.0, 1.0], "pi must be 2 x 1"),
        ([1.0, -1.0], [2.0], [[1.0], [1.0]], "b must be nonnegative"),
        ([1.0, 1.0], [0.0], [[1.0], [1.0]], "strictly positive"),
        ([1.0, 1.0], [2.0], [[1.0], [-1.0]], "pi entries must be nonnegative"),
        ([np.nan, 1.0], [1.0], [[1.0], [1.0]], "b must be nonnegative and finite"),
        ([np.inf, 1.0], [1.0], [[1.0], [1.0]], "b must be nonnegative and finite"),
        ([1.0, 1.0], [np.nan], [[1.0], [1.0]], "counts must be strictly positive and finite"),
        ([1.0, 1.0], [np.inf], [[1.0], [1.0]], "counts must be strictly positive and finite"),
        ([1.0, 1.0], [2.0], [[1.0], [np.nan]], "pi entries must be nonnegative and finite"),
        ([1.0, 1.0], [2.0], [[np.inf], [1.0]], "pi entries must be nonnegative and finite"),
        (np.zeros(0), np.zeros(0), np.zeros((0, 0)), "b must hold at least one variable"),
    ])
    def test_rejects_invalid_rows(self, b, x, pi, message):
        with pytest.raises(ValueError, match=message):
            RowProblem(np.array(b), np.array(x), np.array(pi))


class TestObjective:
    def test_no_counts_is_sum_of_b(self):
        assert f_row(empty_problem([1.0, 1.0])) == 2.0

    def test_scalar_closed_form(self):
        assert f_row(scalar_problem(2.0)) == pytest.approx(2 - 2 * np.log(2))

    def test_zero_b_with_counts_is_infinite(self):
        assert f_row(scalar_problem(0.0)) == float("inf")


class TestGradient:
    def test_no_counts_gives_ones(self):
        np.testing.assert_array_equal(
            grad_row(empty_problem([1.0, 2.0])), [1.0, 1.0]
        )

    def test_scalar_stationary_point(self):
        assert grad_row(scalar_problem(2.0))[0] == pytest.approx(0.0)

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            p = random_row_problem(rng, r_max=6, j_max=12)
            fd = central_diff(lambda b: f_row(p, b), p.b, h=1e-6)
            g = grad_row(p)
            assert np.abs(g - fd).max() <= 1e-5 * max(1.0, np.abs(g).max())

    def test_undefined_at_zero_model(self):
        with pytest.raises(UndefinedAtZeroModelError):
            grad_row(scalar_problem(0.0))


class TestHessian:
    def test_no_counts_gives_zero(self):
        np.testing.assert_array_equal(
            hess_row(empty_problem([1.0, 2.0])), np.zeros((2, 2))
        )

    def test_scalar_closed_form(self):
        # x pi^2 / (b pi)^2 = 2 / 4 at b = 2
        assert hess_row(scalar_problem(2.0))[0, 0] == pytest.approx(0.5)

    def test_matches_finite_differences_of_gradient(self, rng):
        for _ in range(20):
            p = random_row_problem(rng, r_max=6, j_max=12)
            fd = central_diff_jacobian(lambda b: grad_row(p, b), p.b, h=1e-6)
            h = hess_row(p)
            assert np.abs(h - fd).max() <= 1e-4 * max(1.0, np.abs(h).max())

    def test_symmetric_positive_semidefinite(self, rng):
        for _ in range(100):
            p = random_row_problem(rng, r_max=6, j_max=12)
            h = hess_row(p)
            np.testing.assert_allclose(h, h.T, rtol=1e-12)
            assert np.linalg.eigvalsh(h).min() >= -1e-10


class TestKktViolation:
    def test_bound_active_with_positive_gradient(self):
        assert kkt_violation_row(np.array([0.0, 0.0]), np.array([1.0, 2.0])) == 0.0

    def test_direct_evaluation(self):
        assert kkt_violation_row(
            np.array([1.0, 0.0]), np.array([0.5, -0.2])
        ) == pytest.approx(0.5)

    def test_interior_stationary(self):
        assert kkt_violation_row(np.array([1.0, 2.0]), np.zeros(2)) == 0.0


class TestPartition:
    def test_hand_case(self):
        b = np.array([0.0, 5e-4, 1.0])
        g = np.array([2.0, 3.0, -1.0])
        active, gradient, free = partition_variables(b, g, 1e-3)
        np.testing.assert_array_equal(active, [True, False, False])
        np.testing.assert_array_equal(gradient, [False, True, False])
        np.testing.assert_array_equal(free, [False, False, True])

    def test_epsilon_zero_empties_gradient_set(self, rng):
        for _ in range(20):
            b = rng.uniform(0, 1, 5)
            g = rng.normal(size=5)
            _, gradient, _ = partition_variables(b, g, 0.0)
            assert not gradient.any()

    def test_nonpositive_gradient_all_free(self):
        b = np.array([0.0, 0.5, 1.0])
        g = np.array([-1.0, 0.0, -3.0])
        active, gradient, free = partition_variables(b, g, 1e-3)
        assert not active.any() and not gradient.any()
        assert free.all()

    def test_partitions_everything(self, rng):
        for _ in range(50):
            b = np.where(rng.random(6) < 0.3, 0.0, rng.uniform(0, 1, 6))
            g = rng.normal(size=6)
            active, gradient, free = partition_variables(b, g, 1e-3)
            total = active.astype(int) + gradient.astype(int) + free.astype(int)
            np.testing.assert_array_equal(total, np.ones(6, dtype=int))


class TestDampedNewtonDirection:
    def test_identity_system(self):
        d = damped_newton_direction(np.eye(2), np.array([1.0, -2.0]), 0.0)
        np.testing.assert_allclose(d, [-1.0, 2.0])

    def test_zero_hessian_scalar(self):
        d = damped_newton_direction(np.zeros((1, 1)), np.array([1.0]), 1e-5)
        assert d[0] == pytest.approx(-1e5)

    def test_residual_oracle(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            a = rng.normal(size=(k, k))
            h = a @ a.T + 0.1 * np.eye(k)
            g = rng.normal(size=k)
            mu = 10.0 ** rng.uniform(-8, 0)
            d = damped_newton_direction(h, g, mu)
            res = np.linalg.norm((h + mu * np.eye(k)) @ d + g)
            assert res <= 1e-10 * np.linalg.norm(g)

    def test_descent_direction(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            a = rng.normal(size=(k, k))
            h = a @ a.T + 0.1 * np.eye(k)
            g = rng.normal(size=k)
            d = damped_newton_direction(h, g, 1e-5)
            assert float(g @ d) < 0.0

    def test_singular_undamped_raises(self):
        with pytest.raises(FactorizationFailureError):
            damped_newton_direction(np.zeros((2, 2)), np.ones(2), 0.0)

    def test_indefinite_block_raises(self):
        with pytest.raises(FactorizationFailureError):
            damped_newton_direction(np.diag([2.0, -1e3]), np.ones(2), 1e-5)

    def test_empty_block_gives_empty_direction(self):
        d = damped_newton_direction(np.zeros((0, 0)), np.zeros(0), 0.0)
        assert d.shape == (0,)


def damped_step(h, g, mu, monkeypatch):
    """``_damped_step`` on an all-free row whose Hessian block is ``h``."""
    monkeypatch.setattr(row_solver, "_hessian_block", lambda *args: h)
    p = RowProblem(np.ones(g.size), np.ones(1), np.ones((g.size, 1)))
    return row_solver._damped_step(p, p.b, p.b @ p.pi, g,
                                   np.ones(g.size, dtype=bool), mu)


class TestFactorizationRetries:
    def test_mu_grows_tenfold_until_retries_run_out(self, monkeypatch):
        tried = []

        def recording(h, g, mu):
            tried.append(mu)
            return damped_newton_direction(h, g, mu)

        monkeypatch.setattr(row_solver, "damped_newton_direction", recording)
        d, mu, decrease = damped_step(np.diag([2.0, -1e3]), np.ones(2), 1e-5,
                                      monkeypatch)
        assert d is None and decrease is None
        assert len(tried) == FACTORIZATION_RETRIES + 1
        assert tried[0] == 1e-5
        for before, after in zip(tried, tried[1:] + [mu]):
            assert after == before * 10.0

    def test_zero_damping_on_singular_block_retries_from_floor(self, monkeypatch):
        d, mu, decrease = damped_step(np.zeros((2, 2)), np.ones(2), 0.0,
                                      monkeypatch)
        assert mu == 1e-10 * 10.0
        np.testing.assert_allclose(d, [-1e9, -1e9])
        assert decrease == pytest.approx(-2e9)

    def test_nonnegative_predicted_decrease_grows_mu_once(self, monkeypatch):
        # An ascent direction, as roundoff can give on a near-singular
        # block, is still searched, but predicts no decrease for damping.
        monkeypatch.setattr(row_solver, "damped_newton_direction",
                            lambda h, g, mu: g.copy())
        d, mu, decrease = damped_step(np.eye(2), np.ones(2), 1e-5, monkeypatch)
        np.testing.assert_array_equal(d, np.ones(2))
        assert mu == 1e-5 * 10.0
        assert decrease is None

    def test_empty_free_set_gives_an_empty_step(self):
        p = scalar_problem(1.0)
        d, mu, decrease = row_solver._damped_step(
            p, p.b, p.b @ p.pi, np.ones(1), np.zeros(1, dtype=bool), 1e-5)
        assert d.shape == (0,) and mu == 1e-5 and decrease is None

    def test_failed_direction_counts_a_multiplicative_rescue(self, monkeypatch):
        monkeypatch.setattr(
            row_solver, "_hessian_block",
            lambda problem, m, free: np.diag(np.full(int(free.sum()), -1e3)),
        )
        monkeypatch.setattr(row_solver, "K_MAX", 1)
        p = scalar_problem(1.0)
        b, report = solve_row_pdnr(p)
        assert report.iterations == 1
        assert report.fallback_steps == 1
        assert report.backtrack_failures == 0
        np.testing.assert_array_equal(b, multiplicative_step(p, p.b))

    def test_zero_damping_short_row_with_nonnegative_predicted_decrease(
            self, monkeypatch):
        # Trial 1472 of this stream: J < R and MU0 = 0 leave a near-singular
        # free block whose predicted decrease rounds to a large positive
        # value; the solve must grow mu instead of raising.
        rng = np.random.default_rng(0)
        for _ in range(1473):
            j = rng.integers(1, 4)
            pi = rng.random((6, j))
            x = rng.integers(1, 20, j).astype(float)
            b0 = rng.random(6)
        p = RowProblem(b0, x, pi)
        monkeypatch.setattr(row_solver, "MU0", 0.0)
        b, report = solve_row_pdnr(p)
        assert (b >= 0.0).all()
        assert f_row(p, b) <= f_row(p)
        assert report.iterations >= 1


class TestAssembleDirection:
    def test_mixed_sets(self):
        active = np.array([True, False, False])
        gradient = np.array([False, True, False])
        free = np.array([False, False, True])
        g = np.array([9.0, 5.0, 7.0])
        d = assemble_direction(np.array([4.0]), g, (active, gradient, free))
        np.testing.assert_array_equal(d, [0.0, -5.0, 4.0])

    def test_all_free(self, rng):
        g = rng.normal(size=4)
        d_f = rng.normal(size=4)
        free = np.ones(4, dtype=bool)
        none = np.zeros(4, dtype=bool)
        d = assemble_direction(d_f, g, (none, none, free))
        np.testing.assert_array_equal(d, d_f)
        assert not np.shares_memory(d, d_f)

    def test_all_active_gives_zero(self, rng):
        g = rng.normal(size=4)
        active = np.ones(4, dtype=bool)
        none = np.zeros(4, dtype=bool)
        np.testing.assert_array_equal(
            assemble_direction(np.empty(0), g, (active, none, none)), np.zeros(4)
        )


class TestArmijoSearch:
    def test_scalar_unit_step_accepted(self):
        p = scalar_problem(1.0)
        b = np.array([1.0])
        f_b = f_row(p, b)
        g = grad_row(p, b)  # -1: descent towards the optimum at 2
        res = armijo_projected_search(p, b, f_b, g, np.array([1.0]))
        assert res.alpha == 1.0
        np.testing.assert_allclose(res.b_next, [2.0])
        assert res.f_next == pytest.approx(2 - 2 * np.log(2))

    def test_infinite_objective_backtracks(self):
        # f = b1 + b2 - log(b1) - log(b2); from (1, 3) the descent direction
        # (1, -3) lands on b2 = 0 at the unit step, where f is infinite, so
        # the search must backtrack and then accept a shorter step.
        p = RowProblem(
            np.array([1.0, 3.0]), np.array([1.0, 1.0]), np.eye(2)
        )
        b = p.b
        f_b = f_row(p, b)
        g = grad_row(p, b)
        d = np.array([1.0, -3.0])
        assert float(g @ d) < 0.0
        res = armijo_projected_search(p, b, f_b, g, d)
        assert res.alpha is not None and res.alpha < 1.0
        assert np.isinf(res.f_unit)
        assert res.f_next < f_b

    def test_tiny_gradient_near_optimum_accepts_immediately(self):
        p = scalar_problem(2.0 - 1e-7)
        b = p.b
        g = grad_row(p, b)
        res = armijo_projected_search(p, b, f_row(p, b), g, -g)
        assert res.alpha == 1.0

    def test_exhaustion_returns_failure(self):
        # An ascent direction never satisfies the test.
        p = scalar_problem(2.0)
        b = p.b
        res = armijo_projected_search(
            p, b, f_row(p, b), np.array([0.5]), np.array([1.0])
        )
        assert res.alpha is None
        np.testing.assert_array_equal(res.b_next, b)


class TestUpdateDamping:
    @pytest.mark.parametrize(
        "rho,factor",
        [
            (0.1, 3.5),
            (0.25 + 1e-9, 1.0),
            (0.5, 1.0),
            (0.75 + 1e-9, 2.0 / 7.0),
            (0.9, 2.0 / 7.0),
        ],
    )
    def test_branches(self, rho, factor):
        # rho = (f_new - f_old) / decrease with decrease = -1.
        mu = 0.123
        out = update_damping(mu, f_old=0.0, f_new=-rho, model_decrease=-1.0)
        assert out == pytest.approx(mu * factor)

    def test_infinite_objective_increases_damping(self):
        out = update_damping(1e-5, 1.0, float("inf"), -1.0)
        assert out == pytest.approx(3.5e-5)

    def test_requires_negative_decrease(self):
        with pytest.raises(ValueError):
            update_damping(1e-5, 1.0, 0.5, 0.0)


class TestLbfgsStore:
    def test_empty_store_returns_gradient(self):
        store = LbfgsStore()
        g = np.array([3.0, -1.0])
        np.testing.assert_array_equal(store.direction(g), g)

    def test_single_pair_matches_dense_bfgs(self, rng):
        store = LbfgsStore()
        s = rng.normal(size=4)
        y = s + 0.5 * rng.normal(size=4)
        if float(s @ y) <= 0:
            y = s.copy()
        store.update(s, y)
        g = rng.normal(size=4)
        gamma = float(s @ y) / float(y @ y)
        dense = bfgs_inverse_update(gamma * np.eye(4), s, y)
        np.testing.assert_allclose(store.direction(g), dense @ g, rtol=1e-12)

    def test_quadratic_recovery_with_conjugate_pairs(self, rng, monkeypatch):
        # Feeding R conjugate pairs (s, As) makes the two-loop reproduce
        # A^-1 g regardless of the initial scaling.
        r = 4
        monkeypatch.setattr(row_solver, "LBFGS_MEMORY", r)
        a = rng.normal(size=(r, r))
        a = a @ a.T + 0.5 * np.eye(r)
        raw = rng.normal(size=(r, r))
        basis = []
        for v in raw:
            for u in basis:
                v = v - (u @ a @ v) / (u @ a @ u) * u
            basis.append(v)
        store = LbfgsStore()
        for s in basis:
            store.update(s, a @ s)
        g = rng.normal(size=r)
        np.testing.assert_allclose(
            store.direction(g), np.linalg.solve(a, g), rtol=1e-6, atol=1e-9
        )

    def test_zero_curvature_pair_skipped(self):
        store = LbfgsStore()
        kept = store.update(np.zeros(2), np.array([1.0, 0.0]))
        assert not kept
        assert len(store) == 0
        assert store.skipped == 1

    def test_ring_eviction(self, rng):
        store = LbfgsStore()
        pairs = []
        for _ in range(4):
            s = rng.normal(size=3)
            pairs.append(s)
            store.update(s, s)  # s'y = |s|^2 > 0
        assert len(store) == 3
        np.testing.assert_array_equal(store._s[0], pairs[1])

    def test_empty_store_returns_fresh_array(self):
        store = LbfgsStore()
        g = np.array([3.0, -1.0])
        d = store.direction(g)
        assert d is not g
        d[0] = 7.0
        assert g[0] == 3.0

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), memory=st.integers(1, 3),
           pairs=st.integers(0, 6))
    def test_two_loop_matches_reference_bitwise(self, seed, memory, pairs):
        rng = np.random.default_rng(seed)
        r = int(rng.integers(1, 8))
        store, reference = LbfgsStore(), ReferenceLbfgsStore()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(row_solver, "LBFGS_MEMORY", memory)
            for _ in range(pairs):
                s = rng.normal(size=r)
                # Some pairs have negative curvature and are skipped.
                y = s * rng.uniform(-0.2, 2.0) + 0.3 * rng.normal(size=r)
                assert store.update(s, y) == reference.update(s, y)
                g = rng.normal(size=r)
                assert np.array_equal(store.direction(g),
                                      reference.direction(g))
        assert len(store) == len(reference) <= memory
        assert store.gamma == reference.gamma
        assert store.skipped == reference.skipped

    def test_gamma_tracks_newest_pair(self, rng):
        store = LbfgsStore()
        s = rng.normal(size=3)
        y = 2.0 * s
        store.update(s, y)
        assert store.gamma == pytest.approx(float(s @ y) / float(y @ y))


class TestTau:
    @pytest.mark.parametrize("tau", [
        0.0, float("inf"), float("nan"), 10**400, True,
    ], ids=["zero", "inf", "nan", "int-beyond-float", "bool"])
    def test_rejects_invalid_tau(self, tau):
        _, tensor = generate_dataset(
            GenConfig(dims=(4, 5, 6), rank=2, samples=100, seed=0))
        model = init_model(tensor.shape, 2)
        for solve in (functools.partial(solve_row_pdnr, scalar_problem()),
                      functools.partial(solve_row_pqnr, scalar_problem()),
                      functools.partial(solve_mode, tensor, model, 1)):
            with pytest.raises(ValueError, match="config field 'tau'"):
                solve(tau=tau)


class TestSolvePdnr:
    def test_already_optimal_returns_no_iterations(self):
        b, report = solve_row_pdnr(scalar_problem(2.0))
        assert report.iterations == 0
        np.testing.assert_allclose(b, [2.0])

    def test_scalar_converges_to_closed_form(self):
        b, report = solve_row_pdnr(scalar_problem(1.0))
        assert report.final_kkt <= 1e-8
        assert report.iterations <= 10
        assert b[0] == pytest.approx(2.0, abs=1e-7)

    def test_matches_projected_gradient_oracle(self, rng):
        for _ in range(10):
            p = random_row_problem(rng, r_max=3, j_max=5, strictly_convex=True)
            b, report = solve_row_pdnr(p, tau=1e-10)
            oracle = projected_gradient_solve(p)
            assert f_row(p, b) <= f_row(p, oracle) + 1e-6

    def test_strict_descent(self, rng, monkeypatch):
        # With the tolerance unmet at the start, the solve must strictly
        # decrease the objective.
        monkeypatch.setattr(row_solver, "K_MAX", 5)
        for _ in range(20):
            p = random_row_problem(rng, r_max=4, j_max=8, interior=False)
            g = grad_row(p) if f_row(p) < np.inf else None
            if g is None or kkt_violation_row(p.b, g) <= 1e-8:
                continue
            b, _ = solve_row_pdnr(p)
            assert f_row(p, b) < f_row(p)

    def test_iterates_exactly_nonnegative(self, rng):
        for _ in range(20):
            p = random_row_problem(rng, r_max=4, j_max=8, interior=False)
            b, _ = solve_row_pdnr(p)
            assert (b >= 0.0).all()


class TestSolvePqnr:
    def test_already_optimal_returns_no_iterations(self):
        b, report = solve_row_pqnr(scalar_problem(2.0))
        assert report.iterations == 0

    def test_scalar_converges_to_closed_form(self):
        b, report = solve_row_pqnr(scalar_problem(1.0))
        assert report.final_kkt <= 1e-8
        assert b[0] == pytest.approx(2.0, abs=1e-7)

    def test_agrees_with_pdnr_on_strictly_convex(self, rng):
        for _ in range(10):
            p = random_row_problem(rng, r_max=3, j_max=5, strictly_convex=True)
            b_newton, _ = solve_row_pdnr(p, tau=1e-10)
            b_quasi, _ = solve_row_pqnr(p, tau=1e-10)
            assert np.abs(b_newton - b_quasi).max() <= 1e-6

    def test_first_step_follows_negative_gradient(self, rng, monkeypatch):
        # With an empty store the first direction is -g on the free set, so
        # one capped iteration must match a single projected Armijo step.
        p = random_row_problem(rng, r_max=4, j_max=8)
        g = grad_row(p)
        sets = partition_variables(p.b, g, 1e-8)
        d = assemble_direction(-g[sets[2]], g, sets)
        expected = armijo_projected_search(p, p.b, f_row(p), g, d).b_next
        monkeypatch.setattr(row_solver, "K_MAX", 1)
        b, _ = solve_row_pqnr(p)
        np.testing.assert_allclose(b, expected, rtol=1e-12)

    def test_all_zero_counts_row_reaches_zero(self):
        p = empty_problem([0.3, 0.8])
        b, report = solve_row_pqnr(p)
        np.testing.assert_array_equal(b, np.zeros(2))
        assert report.final_kkt == 0.0


class TestZeroKhatriRaoColumn:
    """A positive count whose Khatri-Rao column is all zero: no b >= 0 gives
    that cell a positive model value, so the objective is +inf everywhere
    and the solvers return the start untouched."""

    @pytest.mark.parametrize("solve", [solve_row_pdnr, solve_row_pqnr])
    def test_returns_start_with_infinite_kkt(self, solve):
        b0 = np.array([1.0, 1.0])
        p = RowProblem(b0, np.array([2.0, 3.0]),
                       np.array([[1.0, 0.0], [0.0, 0.0]]))
        b, report = solve(p)
        np.testing.assert_array_equal(b, b0)
        assert report.iterations == 0
        assert report.final_kkt == np.inf


class TestMultiplicativeStep:
    def test_scalar_reaches_optimum_in_one_step(self):
        p = scalar_problem(1.0)
        b = multiplicative_step(p, p.b)
        assert b[0] == pytest.approx(2.0)

    def test_never_increases_objective(self, rng):
        for _ in range(50):
            p = random_row_problem(rng, r_max=4, j_max=8)
            b = multiplicative_step(p, p.b)
            assert f_row(p, b) <= f_row(p) + 1e-9

    def test_output_nonnegative(self, rng):
        p = random_row_problem(rng, r_max=4, j_max=8, interior=False)
        if np.isfinite(f_row(p)):
            assert (multiplicative_step(p, p.b) >= 0.0).all()

    def test_row_without_counts_goes_to_zero(self):
        p = empty_problem([0.3, 0.8])
        np.testing.assert_array_equal(multiplicative_step(p, p.b), np.zeros(2))


class TestSharedLoopProperties:
    """Invariants of the loop shared by both solvers on random feasible
    rows, including starts off the interior and rows with fewer counts
    than variables."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), interior=st.booleans(),
           short=st.booleans(), budget=st.sampled_from([1, 3, 50]),
           method=st.sampled_from(["pdnr", "pqnr"]))
    def test_invariants(self, seed, interior, short, budget, method):
        rng = np.random.default_rng(seed)
        p = random_row_problem(rng, r_max=8, j_max=3 if short else 20,
                               interior=interior)
        assume(not short or p.x.size < p.rank)
        searches = []
        search = row_solver.armijo_projected_search

        def recording(*args):
            result = search(*args)
            searches.append(result)
            return result

        solve = solve_row_pdnr if method == "pdnr" else solve_row_pqnr
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(row_solver, "armijo_projected_search", recording)
            mp.setattr(row_solver, "K_MAX", budget)
            b, report = solve(p)
        assert (b >= 0.0).all()
        assert f_row(p, b) <= f_row(p)
        assert (report.final_kkt <= row_solver.ROW_TAU
                or report.iterations == budget
                or report.fallback_steps > 0)
        for result in searches:
            if result.alpha is not None:
                np.testing.assert_array_equal(result.m_next,
                                              result.b_next @ p.pi)


class TestLoopMatchesReference:
    """Both solvers give the bytes of the reference loop, which tests the
    method wherever the two differ, on rows with fewer counts than
    variables or a single count, zero initial damping, Hessian blocks
    shifted until some or every factorization fails, and small budgets."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    # Two rows, about 1 in 1,000 of such draws, where a nonnegative
    # predicted decrease at zero damping grows mu.
    @example(seed=51, interior=False, counts="short", mu0=0.0, shift=0.0,
             budget=row_solver.K_MAX, method="pdnr")
    @example(seed=634, interior=True, counts="one", mu0=0.0, shift=0.0,
             budget=row_solver.K_MAX, method="pdnr")
    @given(seed=st.integers(0, 2**32 - 1), interior=st.booleans(),
           counts=st.sampled_from(["any", "short", "one"]),
           mu0=st.sampled_from([row_solver.MU0, 0.0]),
           shift=st.sampled_from([0.0, 1e-4, 1e3]),
           budget=st.sampled_from([1, 3, row_solver.K_MAX]),
           method=st.sampled_from(["pdnr", "pqnr"]))
    def test_bitwise(self, seed, interior, counts, mu0, shift, budget, method):
        rng = np.random.default_rng(seed)
        p = random_row_problem(rng, r_max=8, j_max={"any": 20, "short": 3,
                                                     "one": 1}[counts],
                               interior=interior)
        assume(counts != "short" or p.x.size < p.rank)
        hessian = row_solver._hessian_block
        solve = solve_row_pdnr if method == "pdnr" else solve_row_pqnr
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(row_solver, "MU0", mu0)
            mp.setattr(row_solver, "K_MAX", budget)
            # A shift of 1e-4 fails the first factorizations at MU0, 1e3
            # fails all of them.
            mp.setattr(row_solver, "_hessian_block", lambda *args: (
                hessian(*args) - shift * np.eye(int(args[2].sum()))))
            b, report = solve(p)
            b_ref, report_ref = reference_solve_row(p, method)
        assert b.tobytes() == b_ref.tobytes()
        assert repr(report) == repr(report_ref)


LONG_ROW = """
import sys
import numpy as np
from poissoncp.row_solver import RowProblem, solve_row_pdnr, solve_row_pqnr
rank, length = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(7)
pi = rng.uniform(0.01, 1.0, size=(rank, length))
x = rng.integers(1, 10, size=length).astype(float)
problem = RowProblem(rng.uniform(0.5, 2.0, size=rank), x, pi)
for solve in (solve_row_pdnr, solve_row_pqnr):
    b, report = solve(problem)
    print(b.tobytes().hex(), report)
"""


@pytest.mark.parametrize("rank", [10, 50])
def test_long_row_solves_do_not_depend_on_the_thread_count(rank):
    # OpenBLAS splits the row's sums among its threads unless they are
    # chunked: 60,000 counts are more than seven chunks.
    one, two = run_at_thread_counts(LONG_ROW, str(rank), "60000")
    assert one.count("RowSolveReport") == 2
    assert one == two
