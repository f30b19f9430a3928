import csv
import dataclasses
import re
import warnings

import numpy as np
import pytest

from poissoncp import driver, errors
from poissoncp.baselines import mu_solve_mode
from poissoncp.driver import (
    METHODS,
    FitConfig,
    fit,
    init_model,
    solve_mode,
    write_trace,
)
from poissoncp.errors import (ConfigError, IndexOutOfRangeError,
                              ShapeMismatchError, ZeroColumnWarning)
from poissoncp.evaluation import full_kkt_violation, mode_kkt_violation
from poissoncp.kruskal import KruskalModel, kl_objective, normalize
from poissoncp.sparse_tensor import (PARALLEL_MIN_ROWS, SparseCountTensor,
                                     mode_row_positions)
from poissoncp.synth import GenConfig, generate_dataset

from conftest import run_at_thread_counts


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(GenConfig(dims=(6, 7, 8), rank=3, samples=2000, seed=11))


def disjoint_support_instance():
    """Rank-2 model whose components touch disjoint cells, with a tensor
    equal to the represented counts; every row subproblem is already at its
    optimum."""
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    factors = tuple(np.hstack([e1, e2]) for _ in range(3))
    model = KruskalModel(np.array([3.0, 5.0]), factors, normalized=True)
    tensor = SparseCountTensor.from_entries(
        (2, 2, 2), [((1, 1, 1), 3), ((2, 2, 2), 5)]
    )
    return model, tensor


class TestInitModel:
    def test_deterministic_per_seed(self):
        a = init_model((4, 5), 3, seed=9)
        b = init_model((4, 5), 3, seed=9)
        np.testing.assert_array_equal(a.weights, b.weights)
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_array_equal(fa, fb)

    def test_normalized_output(self):
        m = init_model((4, 5, 6), 3, seed=1)
        assert m.normalized
        for f in m.factors:
            np.testing.assert_allclose(f.sum(axis=0), np.ones(3), atol=1e-12)
        assert (m.weights > 0).all()

    def test_rank_one_weight_is_product_of_column_sums(self):
        m = init_model((2, 2), 1, seed=3)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
        f1 = rng.random((2, 1))
        f2 = rng.random((2, 1))
        assert m.weights[0] == pytest.approx(float(f1.sum() * f2.sum()))


class TestSolveMode:
    def test_single_nonzero_closed_form(self):
        # One count x at (1, 1) with rank 1: the mode-1 row optimum is x
        # itself and the rescale absorbs it into the weight.
        a1 = np.array([[0.5], [0.5]])
        a2 = np.array([[0.3], [0.7]])
        model = KruskalModel(np.array([2.0]), (a1, a2), normalized=True)
        tensor = SparseCountTensor.from_entries((2, 2), [((1, 1), 6)])
        out, report = solve_mode(tensor, model, 1, method="pdnr")
        assert out.weights[0] == pytest.approx(6.0, rel=1e-8)
        np.testing.assert_allclose(out.factors[0][:, 0], [1.0, 0.0], atol=1e-12)

    def test_rows_without_nonzeros_zeroed(self, small_dataset):
        _, tensor = small_dataset
        sub_entries = [(e, c) for e, c in tensor.entries() if e[0] != 2]
        t2 = SparseCountTensor.from_entries(tensor.shape, sub_entries)
        model = init_model(t2.shape, 2, seed=4)
        out, _ = solve_mode(t2, model, 1, method="pdnr")
        b_row = out.factors[0][1] * out.weights
        np.testing.assert_array_equal(b_row, np.zeros(2))

    def test_mode_beyond_the_tensor_is_rejected(self):
        tensor = SparseCountTensor.from_entries((2, 3), [((1, 2), 4)])
        model = init_model(tensor.shape, 1, seed=0)
        with pytest.raises(IndexOutOfRangeError, match="mode 3 out of range"):
            solve_mode(tensor, model, 3)

    @pytest.mark.parametrize("dims", [(6, 7, 8), (3, 4)])
    @pytest.mark.parametrize("walk", [
        solve_mode, mu_solve_mode, mode_kkt_violation,
        pytest.param(lambda t, m, mode: kl_objective(m, t), id="kl_objective"),
        pytest.param(lambda t, m, mode: fit(t, FitConfig(method="mu", rank=2),
                                            init=m), id="fit"),
    ])
    def test_model_of_another_shape_is_rejected(self, walk, dims):
        # A larger model would walk the tensor's rows silently, and one of
        # fewer modes would fail inside numpy.
        tensor = SparseCountTensor.from_entries((3, 4, 5), [((1, 2, 3), 4)])
        model = init_model(dims, 2, seed=0)
        message = f"model shape {dims} != tensor shape (3, 4, 5)"
        with pytest.raises(ShapeMismatchError, match=re.escape(message)):
            walk(tensor, model, 1)

    def test_unknown_method_is_rejected(self, small_dataset):
        _, tensor = small_dataset
        model = init_model(tensor.shape, 3, seed=0)
        with pytest.raises(ValueError) as from_config:
            FitConfig(method="bogus", rank=3)
        with pytest.raises(ValueError) as from_solve:
            solve_mode(tensor, model, 1, method="bogus")
        assert str(from_solve.value) == str(from_config.value)
        assert "method must be one of" in str(from_solve.value)

    @pytest.mark.parametrize("tau", [0.0, float("nan"), "1e-6"])
    @pytest.mark.parametrize("dims", [(6, 7, 8), (600, 3, 3)])
    def test_tau_must_be_a_positive_number(self, monkeypatch, dims, tau):
        # The (600, 3, 3) tensor's mode-1 rows would be split into ranges;
        # the check runs before any row range.
        _, tensor = generate_dataset(
            GenConfig(dims=dims, rank=2, samples=6000, seed=3))
        if dims[0] == 600:
            assert len(mode_row_positions(tensor, 1)) >= PARALLEL_MIN_ROWS
        model = init_model(tensor.shape, 2, seed=0)
        monkeypatch.setattr(driver, "map_row_ranges", None)
        with pytest.raises(ValueError, match="config field 'tau'"):
            solve_mode(tensor, model, 1, method="pdnr", tau=tau)

    def test_mode_subproblem_unique_across_starts(self, small_dataset):
        # Strictly convex block subproblem: identical B* from any start.
        _, tensor = small_dataset
        truth, _ = small_dataset
        results = []
        for seed in range(4):
            start = init_model(tensor.shape, 3, seed=seed)
            start = KruskalModel(
                start.weights,
                (start.factors[0], truth.factors[1], truth.factors[2]),
                normalized=True,
            )
            res = fit(tensor, FitConfig(
                method="pdnr", rank=3, tau=1e-9, outer_max=60, mode1_only=True
            ), init=start)
            assert res.converged
            results.append(res.model.factors[0] * res.model.weights)
        for b in results[1:]:
            assert np.abs(b - results[0]).max() <= 1e-6


class TestFit:
    def test_fixed_point_converges_in_one_sweep(self):
        model, tensor = disjoint_support_instance()
        before = kl_objective(model, tensor)
        res = fit(tensor, FitConfig(method="pdnr", rank=2, tau=1e-8, outer_max=5),
                  init=model)
        assert res.converged
        assert len(res.trace) == 1
        after = kl_objective(res.model, tensor)
        assert after == pytest.approx(before, abs=1e-10)

    @pytest.mark.parametrize("method", ["pdnr", "pqnr", "mu"])
    def test_converges_and_objective_monotone(self, small_dataset, method):
        _, tensor = small_dataset
        res = fit(tensor, FitConfig(method=method, rank=3, tau=1e-4,
                                    outer_max=300, seed=2))
        assert res.converged
        objs = [r.objective for r in res.trace]
        assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))

    def test_post_convergence_recheck(self, small_dataset):
        _, tensor = small_dataset
        res = fit(tensor, FitConfig(method="pdnr", rank=3, tau=1e-4,
                                    outer_max=300, seed=2))
        per_mode, worst = full_kkt_violation(tensor, res.model)
        assert worst <= 1e-4
        assert worst == pytest.approx(res.final_kkt, abs=1e-12)

    def test_returned_model_normalized(self, small_dataset):
        from conftest import dense_model_array

        _, tensor = small_dataset
        res = fit(tensor, FitConfig(method="pqnr", rank=2, tau=1e-3,
                                    outer_max=50, seed=0))
        assert res.model.normalized
        assert np.isfinite([r.objective for r in res.trace]).all()
        # Normalization identity: the weights carry the model's total mass.
        assert res.model.weights.sum() == pytest.approx(
            float(dense_model_array(res.model).sum()), rel=1e-10
        )

    def test_converged_weights_approach_total_count(self, small_dataset):
        # At a KKT point every row satisfies sum(b) = sum(x), so the weight
        # total approaches the data total as tau tightens.
        _, tensor = small_dataset
        res = fit(tensor, FitConfig(method="pdnr", rank=3, tau=1e-6,
                                    outer_max=300, seed=2))
        assert res.converged
        assert res.model.weights.sum() == pytest.approx(
            tensor.total_count(), rel=1e-4
        )

    @pytest.mark.parametrize("time_limit", ["soon", True, [1.0]])
    def test_time_limit_must_be_a_number(self, time_limit):
        with pytest.raises(ValueError, match="config field 'time_limit' is "
                                             "not a valid number"):
            FitConfig(method="mu", rank=2, time_limit=time_limit)

    @pytest.mark.parametrize("fields", [
        {"rank": 2.5}, {"rank": True}, {"tau": float("nan")},
        {"tau": float("inf")}, {"outer_max": 2.5},
        {"time_limit": float("inf")}, {"mode1_only": "no"}, {"workers": 0.5},
        {"seed": 2.5}, {"workers": True}, {"tau": -1e-3},
        {"time_limit": -3}, {"time_limit": 0},
    ])
    def test_rejects_invalid_field(self, fields):
        with pytest.raises(ValueError, match="config field"):
            FitConfig(**{"method": "mu", "rank": 2, **fields})

    def test_stores_integral_floats_as_ints_and_numbers_as_floats(self):
        # So a manifest records 5, not 5.0, for "rank": 5.0.
        config = FitConfig(method="MU", rank=5.0, tau=1, time_limit=3,
                           outer_max=np.int64(4), seed=2.0)
        assert (config.method, config.rank, config.outer_max,
                config.seed) == ("mu", 5, 4, 2)
        assert all(type(v) is int for v in (config.rank, config.outer_max,
                                             config.seed))
        assert type(config.tau) is float and type(config.time_limit) is float

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(FitConfig)] == [
            "method", "rank", "outer_max", "tau", "time_limit", "seed",
            "mode1_only", "workers"]

    def test_config_is_frozen(self):
        config = FitConfig(method="pdnr", rank=3)
        for f in dataclasses.fields(FitConfig):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, f.name, getattr(config, f.name))

    def test_only_pdnr_checks_its_hessian_size(self, small_dataset,
                                               monkeypatch):
        # Only the damped Newton direction builds a rank x rank array.
        _, tensor = small_dataset
        monkeypatch.setattr(errors, "physical_memory", lambda: 16 * 2**30)
        with pytest.raises(ConfigError, match=r"rank \* rank = 10000000000 "):
            FitConfig(method="pdnr", rank=100_000)
        for method in ("pqnr", "mu"):
            FitConfig(method=method, rank=100_000).check_sizes(tensor)

    def test_unknown_physical_memory_leaves_only_the_int64_bound(
            self, monkeypatch):
        def no_sysconf(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(errors.os, "sysconf", no_sysconf)
        assert errors.physical_memory() is None
        errors.check_size("count", 10**15)
        with pytest.raises(ConfigError, match="does not fit in int64"):
            errors.check_size("count", 2**63)

    def test_rows_are_solved_at_the_fit_tau(self, small_dataset):
        # One mode-1 sweep of a fit is one solve_mode call at the fit's tau;
        # at solve_mode's default tau the rows land elsewhere.
        _, tensor = small_dataset
        start = init_model(tensor.shape, 3, seed=0)
        for method in ("pdnr", "pqnr"):
            config = FitConfig(method=method, rank=3, tau=1e-3, outer_max=1,
                               mode1_only=True)
            model = fit(tensor, config).model
            expected, _ = solve_mode(tensor, start, 1, method=method,
                                     tau=config.tau)
            tight, _ = solve_mode(tensor, start, 1, method=method)
            for a, b in zip((model.weights, *model.factors),
                            (expected.weights, *expected.factors)):
                assert a.tobytes() == b.tobytes()
            assert not np.array_equal(model.weights, tight.weights)

    @pytest.mark.parametrize("method", METHODS)
    def test_init_of_overflowing_mass_rejected(self, method):
        truth, tensor = generate_dataset(
            GenConfig(dims=(6, 7, 8), rank=3, samples=2000, seed=1))
        init = KruskalModel(truth.weights * 1e160, truth.factors,
                            normalized=True)
        with pytest.raises(ValueError, match="total mass overflows"):
            fit(tensor, FitConfig(method=method, rank=3), init=init)

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            FitConfig(method="mu", rank=2, seed=-1)

    def test_empty_tensor_rejected(self):
        t = SparseCountTensor.from_entries((2, 2), [])
        with pytest.raises(ValueError):
            fit(t, FitConfig(method="pdnr", rank=1))

    @pytest.mark.parametrize("dims, rank, message", [
        ((2, 4), 2, "model shape (2, 4) != tensor shape (2, 3)"),
        ((2, 3), 1, "initial model rank does not match the config"),
    ])
    def test_init_must_match_tensor_and_config(self, dims, rank, message):
        t = SparseCountTensor.from_entries((2, 3), [((1, 2), 4), ((2, 1), 1)])
        with pytest.raises(ValueError, match=re.escape(message)):
            fit(t, FitConfig(method="mu", rank=2), init=init_model(dims, rank))

    def test_infeasible_init_rejected(self):
        model, tensor = disjoint_support_instance()
        bad = SparseCountTensor.from_entries((2, 2, 2), [((1, 2, 2), 1)])
        with pytest.raises(ValueError):
            fit(bad, FitConfig(method="pdnr", rank=2), init=model)

    def test_time_limit_stops_early_with_valid_model(self, small_dataset):
        _, tensor = small_dataset
        res = fit(tensor, FitConfig(method="pdnr", rank=3, tau=1e-12,
                                    outer_max=500, time_limit=1e-9, seed=2))
        assert not res.converged
        assert len(res.trace) == 1
        assert np.isfinite(res.trace.records[0].objective)
        assert res.model.normalized

    def test_workers_do_not_change_results(self, small_dataset):
        _, tensor = small_dataset
        base = fit(tensor, FitConfig(method="pdnr", rank=3, tau=1e-4,
                                     outer_max=100, seed=2, workers=1))
        multi = fit(tensor, FitConfig(method="pdnr", rank=3, tau=1e-4,
                                      outer_max=100, seed=2, workers=3))
        np.testing.assert_array_equal(base.model.weights, multi.model.weights)
        for a, b in zip(base.model.factors, multi.model.factors):
            np.testing.assert_array_equal(a, b)

    def test_expired_deadline_result_does_not_depend_on_workers(self):
        # A time limit that has expired by the first row (1 ns) stops the
        # first mode before any row is solved, whatever the worker count.
        _, tensor = generate_dataset(GenConfig(dims=(20, 30, 40), rank=5,
                                               samples=50_000, seed=0))
        one, two = (fit(tensor, FitConfig(method="pdnr", rank=5,
                                          time_limit=1e-9, seed=0, workers=w))
                    for w in (1, 2))
        assert len(one.trace) == len(two.trace) == 1
        assert one.trace.records[0].objective == two.trace.records[0].objective
        np.testing.assert_array_equal(one.model.weights, two.model.weights)
        for a, b in zip(one.model.factors, two.model.factors):
            np.testing.assert_array_equal(a, b)


class TestZeroColumnInsideFit:
    @pytest.mark.parametrize("method", ["pdnr", "pqnr"])
    def test_column_reaching_zero_keeps_the_fit_sound(self, method):
        # Two counts cannot use three components: one column goes to zero
        # during the first sweep, and the fit reports it as a zero weight.
        tensor = SparseCountTensor.from_entries(
            (3, 3, 3), [((1, 1, 1), 5), ((2, 2, 2), 3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", ZeroColumnWarning)
            res = fit(tensor, FitConfig(method=method, rank=3, seed=0))
        assert np.count_nonzero(res.model.weights == 0) == 1
        objs = [r.objective for r in res.trace]
        assert np.isfinite(objs).all()
        assert all(b <= a for a, b in zip(objs, objs[1:]))


class TestDeterminism:
    @pytest.mark.parametrize("method", METHODS)
    def test_same_config_and_seed_give_identical_fits(self, small_dataset,
                                                      method):
        _, tensor = small_dataset
        config = FitConfig(method=method, rank=3, tau=1e-4, outer_max=40,
                           seed=7)
        first, second = fit(tensor, config), fit(tensor, config)
        np.testing.assert_array_equal(first.model.weights, second.model.weights)
        for a, b in zip(first.model.factors, second.model.factors):
            np.testing.assert_array_equal(a, b)
        assert first.converged == second.converged
        assert first.final_kkt == second.final_kkt
        untimed = [[(r.outer, r.mode_kkt, r.objective, r.exact_zeros,
                     r.line_search_failures, r.fallback_steps) for r in res.trace]
                   for res in (first, second)]
        assert untimed[0] == untimed[1]

    @pytest.mark.parametrize("method", METHODS)
    def test_long_rows_do_not_depend_on_the_thread_count(self, method):
        # Both mode-1 rows hold 62,500 nonzeros, more than seven chunks.
        one, two = run_at_thread_counts(LONG_ROWS_FIT, method)
        assert one.count("\n") == 3
        assert one == two


LONG_ROWS_FIT = """
import hashlib, sys
import numpy as np
from poissoncp.baselines import mu_solve_mode
from poissoncp.driver import FitConfig, fit, init_model
from poissoncp.sparse_tensor import SparseCountTensor
dims = (2, 250, 250)
cells = np.indices(dims).reshape(3, -1).T  # every cell, in COO order
counts = np.random.default_rng(3).integers(1, 6, size=len(cells))
tensor = SparseCountTensor.from_arrays(dims, cells, counts, one_based=False)
result = fit(tensor, FitConfig(sys.argv[1], 10, outer_max=1, mode1_only=True))
model = result.model
print(hashlib.sha256(b"".join(a.tobytes() for a in (model.weights,
                                                    *model.factors))).hexdigest())
# The trace objective sums every nonzero in one call (kruskal.kl_objective).
print([(r.mode_kkt, r.exact_zeros, r.line_search_failures, r.fallback_steps)
       for r in result.trace])
print(mu_solve_mode(tensor, init_model(dims, 10), 1).objectives.tobytes().hex())
"""


class TestTraceCsv:
    def test_header_and_rows(self, small_dataset, tmp_path):
        _, tensor = small_dataset
        res = fit(tensor, FitConfig(method="pdnr", rank=2, tau=1e-3,
                                    outer_max=50, seed=0))
        path = tmp_path / "trace.csv"
        write_trace(res.trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["outer", "mode_kkt_max", "objective", "exact_zeros",
                           "seconds", "ls_failures", "fallbacks"]
        assert len(rows) == len(res.trace) + 1
        seconds = [float(r[4]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(seconds, seconds[1:]))
