import csv
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import poissoncp
import poissoncp.cli as cli
import poissoncp.errors as errors
from poissoncp.cli import main
from poissoncp.kruskal import KruskalModel, save_model
from poissoncp.sparse_tensor import (PARALLEL_MIN_ROWS, PARALLEL_MIN_WORK,
                                     SparseCountTensor, mode_row_positions,
                                     read_coo, write_coo)


NAN = float("nan")
INF = float("inf")


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def generated(tmp_path):
    cfg = write_json(tmp_path / "gen.json", {
        "dims": [6, 7, 8], "rank": 3, "samples": 2000, "seed": 11,
    })
    outdir = tmp_path / "data"
    assert main(["generate", "--config", cfg, "--output-dir", str(outdir)]) == 0
    return tmp_path, outdir


class TestGenerate:
    def test_writes_tensor_truth_and_manifest(self, generated):
        _, outdir = generated
        tensor = read_coo(outdir / "tensor.coo")
        assert tensor.total_count() == 2000
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["config"]["seed"] == 11
        assert "truth_model.json" in manifest["outputs"]

    def test_single_sample_smoke(self, tmp_path):
        cfg = write_json(tmp_path / "gen.json",
                         {"dims": [3, 3], "rank": 1, "samples": 1})
        out = tmp_path / "one"
        assert main(["generate", "--config", cfg, "--output-dir", str(out)]) == 0
        assert read_coo(out / "tensor.coo").nnz == 1

    @pytest.mark.parametrize("seed", [0, 4])
    def test_long_mode(self, tmp_path, seed):
        # The 10^5-entry columns of the truth model sum to one only to
        # about 10^5 eps.
        cfg = write_json(tmp_path / "gen.json", {
            "dims": [100000, 5, 5], "rank": 3, "samples": 10, "seed": seed})
        out = tmp_path / "long"
        assert main(["generate", "--config", cfg, "--output-dir", str(out)]) == 0
        assert read_coo(out / "tensor.coo").total_count() == 10

    def test_missing_dims_is_config_error(self, tmp_path):
        cfg = write_json(tmp_path / "gen.json", {"rank": 2, "samples": 10})
        rc = main(["generate", "--config", cfg, "--output-dir", str(tmp_path / "x")])
        assert rc == 2

    def test_unknown_method_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["factorize", "--config", "x.json", "--output-dir", "y",
                  "--method", "newtonish"])
        assert err.value.code == 2


class TestFactorize:
    def test_fit_writes_model_trace_manifest(self, generated):
        tmp_path, outdir = generated
        cfg = write_json(tmp_path / "fac.json", {
            "tensor": str(outdir / "tensor.coo"),
            "method": "pdnr", "rank": 3, "tau": 1e-4, "seed": 2,
        })
        run = tmp_path / "run"
        assert main(["factorize", "--config", cfg, "--output-dir", str(run)]) == 0
        assert (run / "model.json").exists()
        with open(run / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "outer"
        assert len(rows) > 1

    def test_deterministic_rerun(self, generated):
        tmp_path, outdir = generated
        cfg = write_json(tmp_path / "fac.json", {
            "tensor": str(outdir / "tensor.coo"),
            "method": "pqnr", "rank": 2, "tau": 1e-3, "seed": 5,
        })
        run1, run2 = tmp_path / "r1", tmp_path / "r2"
        main(["factorize", "--config", cfg, "--output-dir", str(run1)])
        main(["factorize", "--config", cfg, "--output-dir", str(run2)])
        assert (run1 / "model.json").read_bytes() == (run2 / "model.json").read_bytes()

    def test_strict_flags_nonconvergence(self, generated):
        tmp_path, outdir = generated
        cfg = write_json(tmp_path / "fac.json", {
            "tensor": str(outdir / "tensor.coo"),
            "method": "mu", "rank": 3, "tau": 1e-12, "outer_max": 2, "seed": 2,
        })
        rc = main(["factorize", "--config", cfg,
                   "--output-dir", str(tmp_path / "ns"), "--strict"])
        assert rc == 1

    def test_mode1_only_reaches_tight_tolerance(self, generated):
        tmp_path, outdir = generated
        cfg = write_json(tmp_path / "fac.json", {
            "tensor": str(outdir / "tensor.coo"),
            "method": "pdnr", "rank": 3, "seed": 2,
        })
        run = tmp_path / "m1"
        rc = main(["factorize", "--config", cfg, "--output-dir", str(run),
                   "--mode1-only", "--tau", "1e-8", "--strict"])
        assert rc == 0
        with open(run / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[-1]["mode_kkt_max"]) <= 1e-8

    def test_flag_overrides_recorded_in_manifest(self, generated):
        # A flag wins over the file's value, also over a malformed one.
        tmp_path, outdir = generated
        cfg = write_json(tmp_path / "fac.json", {
            "tensor": 5, "method": "bogus", "rank": 3, "tau": 1e-3,
            "seed": 2, "outer_max": 0,
        })
        run = tmp_path / "ovr"
        assert main(["factorize", "--config", cfg, "--output-dir", str(run),
                     "--tensor", str(outdir / "tensor.coo"),
                     "--method", "mu", "--outer-max", "3"]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["config"]["method"] == "mu"
        assert manifest["config"]["outer_max"] == 3
        assert manifest["config"]["tensor"] == str(outdir / "tensor.coo")


class TestEvaluate:
    def test_report_fields(self, generated, tmp_path):
        tp, outdir = generated
        cfg = write_json(tp / "fac.json", {
            "tensor": str(outdir / "tensor.coo"),
            "method": "pdnr", "rank": 3, "tau": 1e-4, "seed": 2,
        })
        run = tp / "run"
        main(["factorize", "--config", cfg, "--output-dir", str(run)])
        report_path = tp / "report.json"
        rc = main(["evaluate",
                   "--model", str(run / "model.json"),
                   "--truth", str(outdir / "truth_model.json"),
                   "--tensor", str(outdir / "tensor.coo"),
                   "--output", str(report_path)])
        assert rc == 0
        doc = json.loads(report_path.read_text())
        assert 0.0 <= doc["score"] <= 1.0
        assert sorted(doc["permutation"]) == [0, 1, 2]
        assert set(doc["thresholded_zeros"]) == {"0.001", "0.0001", "1e-05"}
        assert doc["kkt_max"] <= 1e-4
        assert len(doc["mode_kkt"]) == 3

    def test_report_goes_to_stdout_without_output(self, generated,
                                                  capsysbinary):
        tp, outdir = generated
        argv = ["evaluate", "--model", str(outdir / "truth_model.json"),
                "--truth", str(outdir / "truth_model.json"),
                "--tensor", str(outdir / "tensor.coo")]
        report_path = tp / "report.json"
        assert main([*argv, "--output", str(report_path)]) == 0
        capsysbinary.readouterr()
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == report_path.read_bytes()


class TestBench:
    def test_sweep_rows_and_determinism(self, tmp_path):
        cfg = write_json(tmp_path / "bench.json", {
            "dims": [5, 6, 4], "samples": 800,
            "ranks": [2, 3], "seeds": [0, 1],
            "methods": ["pdnr", "mu"],
            "tau": 1e-3, "outer_max": 60,
        })
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert main(["bench", "--config", cfg, "--output-dir", str(out1)]) == 0
        assert main(["bench", "--config", cfg, "--output-dir", str(out2)]) == 0
        with open(out1 / "bench.csv") as fh:
            rows1 = list(csv.DictReader(fh))
        with open(out2 / "bench.csv") as fh:
            rows2 = list(csv.DictReader(fh))
        assert len(rows1) == 2 * 2 * 2
        for r1, r2 in zip(rows1, rows2):
            for key in ("method", "rank", "seed", "final_objective",
                        "exact_zeros", "converged"):
                assert r1[key] == r2[key]


class TestDataErrors:
    @pytest.fixture()
    def fit_config(self, tmp_path):
        return write_json(tmp_path / "fac.json", {"method": "pdnr", "rank": 2})

    @pytest.mark.parametrize("body, message", [
        ("1 1 1 1.5\n", "'1.5'"),
        ("1 1 3 4\n", "index (1, 1, 3) outside shape (2, 2, 2)"),
        ("", "no nonzero entries"),
        ("1 1\n1 4\n", "entries must have 3 indices plus a count"),
    ])
    def test_bad_coo_is_data_error(self, tmp_path, capsys, fit_config, body,
                                   message):
        coo = tmp_path / "bad.coo"
        coo.write_text("3 2 2 2\n" + body)
        rc = main(["factorize", "--config", fit_config, "--tensor", str(coo),
                   "--output-dir", str(tmp_path / "run"), "--strict"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {coo}: ")
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        ("3 2 2\n1 1 1 1\n", "header declares 3 modes but lists 2 dimensions"),
    ])
    def test_bad_coo_header_is_data_error(self, tmp_path, capsys, fit_config,
                                          text, message):
        coo = tmp_path / "bad.coo"
        coo.write_text(text)
        rc = main(["factorize", "--config", fit_config, "--tensor", str(coo),
                   "--output-dir", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {coo}: {message}\n"

    def test_header_dimension_beyond_int64_is_data_error(self, tmp_path, capsys,
                                                         fit_config):
        coo = tmp_path / "huge.coo"
        coo.write_text("2 99999999999999999999 3\n1 1 1\n")
        rc = main(["factorize", "--config", fit_config, "--tensor", str(coo),
                   "--output-dir", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {coo}: dimensions must not exceed")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("body, message", [
        ("1 1 1 1.5\n", "'1.5'"),
        ("1 1 9 4\n", "index (1, 1, 9) outside shape"),
    ])
    def test_evaluate_bad_coo_is_data_error(self, generated, capsys, body,
                                            message):
        tmp_path, outdir = generated
        coo = tmp_path / "bad.coo"
        coo.write_text("3 6 7 8\n" + body)
        truth = str(outdir / "truth_model.json")
        rc = main(["evaluate", "--model", truth, "--truth", truth,
                   "--tensor", str(coo)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {coo}: ")
        assert message in err
        assert err.count("\n") == 1

    @staticmethod
    def edited_truth(outdir, **fields):
        """The truth model's JSON text with ``fields`` replaced."""
        doc = json.loads((outdir / "truth_model.json").read_text())
        return json.dumps({**doc, **fields})

    @pytest.fixture()
    def bad_models(self, generated):
        tmp_path, outdir = generated
        other = tmp_path / "other"
        cfg = write_json(tmp_path / "gen9.json",
                         {"dims": [6, 7, 9], "rank": 3, "samples": 50})
        assert main(["generate", "--config", cfg, "--output-dir", str(other)]) == 0
        bad = {
            "{not json": "line 1 column 2",
            '{"dims": [6, 7, 8], "R": 3}': "missing model field 'factors'",
            "[1, 2]": "malformed model",
            '{"dims": [6, 7, 8], "R": 3, "lambda": [1, 1, 1], '
            '"factors": [[[1, 2, 3]], [[1, 2]]]}': "factor 2 must be",
            self.edited_truth(outdir, **{"lambda": [NAN, 1.0, 1.0]}):
                "weights and factor entries must be finite and nonnegative",
            self.edited_truth(outdir, R=3.7):
                "model field 'R' must be an integer",
            self.edited_truth(outdir, R="3"):
                "model field 'R' must be an integer",
            self.edited_truth(outdir, dims=[6, 7, 8.0]):
                "model field 'dims' must be a list of integers",
            self.edited_truth(outdir, **{"lambda": ["1", "2", "3"]}):
                "model field 'lambda' must be a list of numbers",
            self.edited_truth(outdir, **{"lambda": [[1, 2, 3]]}):
                "model field 'lambda' must be a list of numbers",
            self.edited_truth(outdir, factors=[[[1, 2, 3]] * 5 + [[1, 2]],
                                               [[1, 2, 3]] * 7,
                                               [[1, 2, 3]] * 8]):
                "factor 1 must be a list of equal-length lists of numbers",
            self.edited_truth(outdir, factors=[[[1, 2, 3]] * 6,
                                               [[1, "2", 3]] * 7,
                                               [[1, 2, 3]] * 8]):
                "factor 2 must be a list of equal-length lists of numbers",
            self.edited_truth(outdir, **{"lambda": [1e308] * 3}):
                "the model's total mass overflows",
            self.edited_truth(outdir, **{"lambda": [1e160] * 3}):
                "it must stay below 1.34e+154",
            self.edited_truth(outdir, factors=[[[1e308] * 3] * 6,
                                               [[1, 2, 3]] * 7,
                                               [[1, 2, 3]] * 8]):
                "the model's total mass overflows",
        }
        paths = []
        for k, (text, message) in enumerate(bad.items()):
            path = tmp_path / f"bad{k}.json"
            path.write_text(text)
            paths.append((str(path), message))
        paths.append((str(other / "truth_model.json"),
                      "model shape (6, 7, 9) does not match the shape (6, 7, 8)"))
        return paths

    @pytest.mark.parametrize("role", ["--model", "--truth"])
    def test_evaluate_bad_model_is_data_error(self, generated, bad_models,
                                              capsys, role):
        _, outdir = generated
        truth = str(outdir / "truth_model.json")
        for path, message in bad_models:
            args = {"--model": truth, "--truth": truth, role: path}
            rc = main(["evaluate", *[a for kv in args.items() for a in kv],
                       "--tensor", str(outdir / "tensor.coo")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ")
            assert message in err
            assert err.count("\n") == 1

    def test_factorize_bad_init_model_is_data_error(self, generated, bad_models,
                                                    capsys, fit_config):
        tmp_path, outdir = generated
        config = write_json(tmp_path / "fac3.json", {"method": "pdnr", "rank": 3})
        rank2 = (str(outdir / "truth_model.json"),
                 "model rank 3 does not match the configured rank 2")
        zero = tmp_path / "zero_weights.json"
        zero.write_text(self.edited_truth(outdir, **{"lambda": [0.0] * 3}))
        zero_weights = (str(zero), "model is zero at a positive count of "
                                   f"{outdir / 'tensor.coo'}")
        tiny = tmp_path / "tiny_weights.json"
        tiny.write_text(self.edited_truth(outdir, **{"lambda": [1e-160] * 3}))
        tiny_weights = (str(tiny), zero_weights[1])
        for (path, message), cfg in [*((b, config) for b in bad_models),
                                     (rank2, fit_config),
                                     (zero_weights, config),
                                     (tiny_weights, config)]:
            rc = main(["factorize", "--config", cfg,
                       "--tensor", str(outdir / "tensor.coo"),
                       "--init-model", path,
                       "--output-dir", str(tmp_path / "run")])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ")
            assert message in err
            assert err.count("\n") == 1

    def test_evaluate_model_zero_at_a_positive_count_is_data_error(
            self, generated, capsys):
        self.check_zero_at_a_positive_count(generated, capsys, 0.0)

    def test_evaluate_model_near_zero_at_a_positive_count_is_data_error(
            self, generated, capsys):
        # Not zero, but a count over the square of 1e-160 overflows.
        self.check_zero_at_a_positive_count(generated, capsys, 1e-160)

    def check_zero_at_a_positive_count(self, generated, capsys, weight):
        tmp_path, outdir = generated
        zero = tmp_path / "zero_weights.json"
        zero.write_text(self.edited_truth(outdir, **{"lambda": [weight] * 3}))
        tensor = outdir / "tensor.coo"
        rc = main(["evaluate", "--model", str(zero),
                   "--truth", str(outdir / "truth_model.json"),
                   "--tensor", str(tensor)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {zero}: model is zero at a positive "
                                f"count of {tensor}, or so close to zero that "
                                "the count over its square overflows\n")

    def test_evaluate_rank_mismatch_is_data_error(self, generated, capsys):
        tmp_path, outdir = generated
        cfg = write_json(tmp_path / "gen2.json", {
            "dims": [6, 7, 8], "rank": 2, "samples": 50,
        })
        other = tmp_path / "rank2"
        assert main(["generate", "--config", cfg, "--output-dir", str(other)]) == 0
        model = str(other / "truth_model.json")
        rc = main(["evaluate", "--model", model,
                   "--truth", str(outdir / "truth_model.json"),
                   "--tensor", str(outdir / "tensor.coo")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: {model}: rank 2 does not match rank 3")


class TestConfigErrors:
    """Malformed config fields exit 2 with one ``error:`` line."""

    @staticmethod
    def run_and_check(capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field, value, message", [
        ("rank", "abc", "config field 'rank' is not a valid integer"),
        ("tau", "x", "config field 'tau' is not a valid number"),
        ("outer_max", None, "config field 'outer_max' is not a valid integer"),
        ("time_limit", "soon", "config field 'time_limit' is not a valid number"),
        ("outer_max", 0, "outer_max must be at least 1"),
        ("tensor", 5, "config field 'tensor' is not a valid path"),
        ("tua", 1e-9, "unknown config field 'tua'"),
        ("mode1_only", "no", "config field 'mode1_only' is not a valid boolean"),
        ("rank", 2.7, "config field 'rank' is not a valid integer"),
        ("rank", True, "config field 'rank' is not a valid integer"),
        ("outer_max", True, "config field 'outer_max' is not a valid integer"),
        ("tau", True, "config field 'tau' is not a valid number"),
        ("time_limit", True, "config field 'time_limit' is not a valid number"),
        ("solver", {}, "unknown config field 'solver'"),
        ("seed", -1, "seed must be nonnegative"),
        ("tau", NAN, "config field 'tau' is not a valid number"),
        ("time_limit", INF, "config field 'time_limit' is not a valid number"),
        ("workers", 0, "workers must be at least 1"),
        ("inner_iterations", 10**30, "unknown config field 'inner_iterations'"),
        ("rank", 10**12, "GiB of physical memory"),
        ("time_limit", -1, "config field 'time_limit' must be positive"),
        ("time_limit", 0, "config field 'time_limit' must be positive"),
        ("tau", 0, "config field 'tau' must be positive"),
    ])
    def test_factorize_bad_field(self, generated, capsys, field, value,
                                 message):
        tmp_path, outdir = generated
        doc = {"tensor": str(outdir / "tensor.coo"), "method": "pqnr",
               "rank": 3, field: value}
        cfg = write_json(tmp_path / "fac.json", doc)
        self.run_and_check(capsys, ["factorize", "--config", cfg,
                                    "--output-dir", str(tmp_path / "run")],
                           message)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("boost_fraction", "x", "config field 'boost_fraction' is not a valid number"),
        ("rank", 0, "rank must be at least 1"),
        ("seed", [1], "config field 'seed' is not a valid integer"),
        ("tua", 1, "unknown config field 'tua'"),
        ("samples", 100.9, "config field 'samples' is not a valid integer"),
        ("rank", True, "config field 'rank' is not a valid integer"),
        ("dims", "678", "config field 'dims' is not a valid non-empty list"),
        ("seed", -1, "seed must be nonnegative"),
        ("boost_scale", NAN, "config field 'boost_scale' is not a valid number"),
        ("small_value", INF, "config field 'small_value' is not a valid number"),
        ("collinearity_alpha", NAN,
         "config field 'collinearity_alpha' is not a valid number"),
        ("dims", [5.7, 6, 7], "dimensions must be integers"),
        ("collinearity_alpha", -5, "collinearity_alpha must be nonnegative"),
        ("boost_scale", 1e120, "overflow the weights"),
        ("boost_scale", 1e308, "overflow the weights"),
        ("samples", 10**30, "samples * len(dims) = 3" + "0" * 30
         + " does not fit in int64"),
        ("rank", 10**12, "rank * sum(dims) = 21" + "0" * 12),
    ])
    def test_generate_bad_field(self, tmp_path, capsys, field, value, message):
        doc = {"dims": [6, 7, 8], "rank": 3, "samples": 100, field: value}
        cfg = write_json(tmp_path / "gen.json", doc)
        self.run_and_check(capsys, ["generate", "--config", cfg,
                                    "--output-dir", str(tmp_path / "out")],
                           message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("seeds", [-1], "seed must be nonnegative"),
        ("ranks", [], "config field 'ranks' is not a valid non-empty list"),
        ("ranks", [True], "config field 'ranks' is not a valid non-empty list"),
        ("methods", "pdnr", "config field 'methods' is not a valid non-empty list"),
        ("methods", ["newton"], "method must be one of"),
        ("outer_max", True, "config field 'outer_max' is not a valid integer"),
        ("rank", 3, "unknown config field 'rank'"),
        ("seed", 1, "unknown config field 'seed'"),
        ("solver", {}, "unknown config field 'solver'"),
        ("mode1_only", True, "unknown config field 'mode1_only'"),
        ("ranks", [10**12], "GiB of physical memory"),
    ])
    def test_bench_bad_field(self, tmp_path, capsys, field, value, message):
        doc = {"dims": [5, 6, 4], "samples": 100, "ranks": [2], "seeds": [0],
               "methods": ["mu"], "outer_max": 1, field: value}
        cfg = write_json(tmp_path / "bench.json", doc)
        self.run_and_check(capsys, ["bench", "--config", cfg,
                                    "--output-dir", str(tmp_path / "out")],
                           message)
        assert not (tmp_path / "out").exists()

    def test_factorize_beyond_memory_at_the_tensor_size(self, generated,
                                                        capsys, monkeypatch):
        # The model's rank * sum(dims) entries fit, the nnz * rank gathered
        # Khatri-Rao rows do not.
        tmp_path, outdir = generated
        assert read_coo(outdir / "tensor.coo").nnz * 1000 > 50_000 > 21 * 1000
        monkeypatch.setattr(errors, "physical_memory", lambda: 8 * 50_000)
        cfg = write_json(tmp_path / "fac.json", {
            "tensor": str(outdir / "tensor.coo"), "method": "mu",
            "rank": 1000})
        self.run_and_check(capsys, ["factorize", "--config", cfg,
                                    "--output-dir", str(tmp_path / "run")],
                           "nnz * rank = ")
        assert not (tmp_path / "run").exists()

    def test_bench_beyond_memory_at_the_tensor_size(self, tmp_path, capsys,
                                                    monkeypatch):
        # The rank-1000 run's gathered rows do not fit; the rank-2 run,
        # listed first, is not fitted either.
        monkeypatch.setattr(errors, "physical_memory", lambda: 400_000)
        monkeypatch.setattr(cli, "fit", None)
        cfg = write_json(tmp_path / "bench.json", {
            "dims": [6, 7, 8], "samples": 2000, "ranks": [2, 1000],
            "seeds": [0], "methods": ["mu"]})
        self.run_and_check(capsys, ["bench", "--config", cfg,
                                    "--output-dir", str(tmp_path / "bout")],
                           "nnz * rank = ")
        assert not (tmp_path / "bout").exists()

    @pytest.mark.parametrize("command", ["factorize", "bench"])
    def test_pdnr_hessian_beyond_memory(self, generated, capsys, monkeypatch,
                                        command):
        # A pdnr row solve factors a rank x rank damped Hessian: 74.5 GiB at
        # rank 100,000, where the model and the gathered rows fit in 16 GiB.
        tmp_path, outdir = generated
        monkeypatch.setattr(errors, "physical_memory", lambda: 16 * 2**30)
        monkeypatch.setattr(cli, "fit", None)
        cfg = write_json(tmp_path / "cfg.json", {
            "factorize": {"tensor": str(outdir / "tensor.coo"),
                          "method": "pdnr", "rank": 100_000},
            "bench": {"dims": [5, 6, 4], "samples": 100, "ranks": [100_000],
                      "seeds": [0], "methods": ["mu", "pdnr"]},
        }[command])
        self.run_and_check(capsys, [command, "--config", cfg,
                                    "--output-dir", str(tmp_path / "out")],
                           "rank * rank = 10000000000 values of 8 bytes "
                           "need 74.5 GiB")
        assert not (tmp_path / "out").exists()

    def test_evaluate_congruence_beyond_memory(self, tmp_path, capsys,
                                               monkeypatch):
        # The score compares rank x rank congruences; the models themselves
        # and the 2 x 2 tensor fit.
        rank = 300
        model = KruskalModel(np.ones(rank), (np.ones((2, rank)),) * 2)
        save_model(model, tmp_path / "model.json")
        write_coo(SparseCountTensor.from_entries((2, 2), [((1, 1), 3)]),
                  tmp_path / "tensor.coo")
        monkeypatch.setattr(errors, "physical_memory", lambda: 8 * 50_000)
        monkeypatch.setattr(cli, "score_greedy", None)
        model_path = str(tmp_path / "model.json")
        self.run_and_check(capsys, ["evaluate", "--model", model_path,
                                    "--truth", model_path,
                                    "--tensor", str(tmp_path / "tensor.coo")],
                           "rank * rank = 90000 ")

    @pytest.mark.parametrize("command", ["generate", "factorize"])
    def test_negative_seed_flag(self, generated, capsys, command):
        tmp_path, outdir = generated
        cfg = write_json(tmp_path / "cfg.json", {
            "generate": {"dims": [6, 7, 8], "rank": 3, "samples": 100},
            "factorize": {"tensor": str(outdir / "tensor.coo"),
                          "method": "mu", "rank": 3},
        }[command])
        self.run_and_check(capsys, [command, "--config", cfg, "--seed", "-1",
                                    "--output-dir", str(tmp_path / "out")],
                           "seed must be nonnegative")
        assert not (tmp_path / "out").exists()

    def test_nonfinite_tau_flag(self, generated, capsys):
        tmp_path, outdir = generated
        cfg = write_json(tmp_path / "fac.json", {
            "tensor": str(outdir / "tensor.coo"), "method": "mu", "rank": 3})
        self.run_and_check(capsys, ["factorize", "--config", cfg,
                                    "--tau", "nan",
                                    "--output-dir", str(tmp_path / "out")],
                           "config field 'tau' is not a valid number")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, role", [
        ("generate", "--config"), ("factorize", "--config"),
        ("bench", "--config"), ("factorize", "tensor"),
        ("factorize", "init_model"), ("evaluate", "--model"),
        ("evaluate", "--truth"), ("evaluate", "--tensor"),
    ])
    def test_directory_as_input_path(self, generated, capsys, command, role):
        tmp_path, outdir = generated
        folder = tmp_path / "folder"
        folder.mkdir()
        given = {"--model": outdir / "truth_model.json",
                 "--truth": outdir / "truth_model.json",
                 "--tensor": outdir / "tensor.coo",
                 "tensor": outdir / "tensor.coo", role: folder}
        if command == "evaluate":
            argv = ["evaluate", *(a for r in ("--model", "--truth", "--tensor")
                                  for a in (r, str(given[r])))]
        else:
            cfg = given.get("--config") or write_json(tmp_path / "fac.json", {
                "method": "mu", "rank": 3, "tensor": str(given["tensor"]),
                "init_model": str(folder) if role == "init_model" else None})
            argv = [command, "--config", str(cfg),
                    "--output-dir", str(tmp_path / "out")]
        self.run_and_check(capsys, argv, f"error: {folder}: cannot read")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given_by", ["flag", "config"])
    def test_empty_init_model_path(self, generated, capsys, given_by):
        # Only a missing or null init_model means the random start; an
        # empty path is a path that cannot be read, as for the tensor.
        tmp_path, outdir = generated
        cfg = write_json(tmp_path / "fac.json", {
            "method": "pdnr", "rank": 3, "tensor": str(outdir / "tensor.coo"),
            **({"init_model": ""} if given_by == "config" else {})})
        flag = ["--init-model", ""] if given_by == "flag" else []
        self.run_and_check(capsys, ["factorize", "--config", cfg, *flag,
                                    "--output-dir", str(tmp_path / "out")],
                           "error: : cannot read")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "factorize", "bench",
                                         "evaluate"])
    def test_unusable_output_path(self, generated, capsys, monkeypatch,
                                  command):
        # An output dir that is a file is rejected before any fit; an
        # evaluate report cannot be written into a missing directory.
        tmp_path, outdir = generated
        taken = outdir / "tensor.coo"
        before = taken.read_bytes()
        fits = []
        real_fit = cli.fit
        monkeypatch.setattr(cli, "fit", lambda *a, **k: fits.append(a)
                            or real_fit(*a, **k))
        if command == "evaluate":
            path = tmp_path / "missing" / "report.json"
            argv = ["evaluate", "--model", str(outdir / "truth_model.json"),
                    "--truth", str(outdir / "truth_model.json"),
                    "--tensor", str(taken), "--output", str(path)]
        else:
            path = taken
            cfg = write_json(tmp_path / "cfg.json", {
                "generate": {"dims": [6, 7, 8], "rank": 3, "samples": 100},
                "factorize": {"tensor": str(taken), "method": "mu",
                              "rank": 3},
                "bench": {"dims": [5, 6, 4], "samples": 100, "ranks": [2],
                          "seeds": [0], "methods": ["mu"], "outer_max": 1},
            }[command])
            argv = [command, "--config", cfg, "--output-dir", str(path)]
        self.run_and_check(capsys, argv, f"error: {path}: ")
        assert fits == []
        assert taken.read_bytes() == before
        assert not (tmp_path / "missing").exists()
        if command == "evaluate":
            return
        # A directory at any file the command writes into its output dir
        # is rejected before any fit, and no output is written.
        names = {"generate": ["tensor.coo", "truth_model.json"],
                 "factorize": ["model.json", "trace.csv"],
                 "bench": ["bench.csv"]}[command]
        argv[-1] = str(tmp_path / "out")
        for name in [*names, "manifest.json"]:
            squat = tmp_path / "out" / name
            squat.mkdir(parents=True)
            self.run_and_check(capsys, argv,
                               f"error: {squat}: cannot write (Is a directory)")
            assert fits == []
            assert [p.name for p in squat.parent.iterdir()] == [name]
            squat.rmdir()

    # A trailing separator names a directory even where none exists, as
    # open() treats it; pathlib would drop it and write a file.
    @pytest.mark.parametrize("output", ["missing/report.json", "folder",
                                        "newdir/", "report.json/"])
    def test_unwritable_report_is_rejected_before_any_input(
            self, generated, capsys, monkeypatch, output):
        tmp_path, outdir = generated
        (tmp_path / "folder").mkdir()
        path = os.path.join(tmp_path, output)
        before = sorted(tmp_path.iterdir())

        def unexpected(*args):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "read_coo", unexpected)
        monkeypatch.setattr(cli, "load_model", unexpected)
        reason = "No such file or directory" if output.startswith("missing") \
            else "Is a directory"
        self.run_and_check(capsys, [
            "evaluate", "--model", str(outdir / "truth_model.json"),
            "--truth", str(outdir / "truth_model.json"),
            "--tensor", str(outdir / "tensor.coo"), "--output", path],
            f"error: {path}: cannot write ({reason})")
        assert not (tmp_path / "missing").exists()
        assert list((tmp_path / "folder").iterdir()) == []
        assert sorted(tmp_path.iterdir()) == before

    def test_failed_write_names_the_file(self, generated, capsys,
                                         monkeypatch):
        # A write that fails after the fit, as on a full disk, exits 2 with
        # one line naming the file, and the run directory stays empty.
        tmp_path, outdir = generated

        def full_disk(model, path):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "save_model", full_disk)
        cfg = write_json(tmp_path / "fac.json", {
            "tensor": str(outdir / "tensor.coo"), "method": "mu", "rank": 2,
            "outer_max": 1})
        run = tmp_path / "run"
        assert main(["factorize", "--config", cfg,
                     "--output-dir", str(run)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {run / 'model.json'}: cannot write "
                                "(No space left on device)\n")
        assert list(run.iterdir()) == []

    @pytest.mark.parametrize("command, role", [
        ("generate", "--config"), ("evaluate", "--model"),
        ("factorize", "--init-model"),
    ])
    def test_deeply_nested_json(self, generated, capsys, command, role):
        # json raises RecursionError, not ValueError, on such a file.
        tmp_path, outdir = generated
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        truth = str(outdir / "truth_model.json")
        tensor = str(outdir / "tensor.coo")
        fit_cfg = write_json(tmp_path / "fac.json", {
            "tensor": tensor, "method": "mu", "rank": 3})
        argv = {
            "generate": ["generate", "--config", str(deep)],
            "evaluate": ["evaluate", "--model", str(deep), "--truth", truth,
                         "--tensor", tensor],
            "factorize": ["factorize", "--config", fit_cfg,
                          "--init-model", str(deep)],
        }[command]
        if command != "evaluate":
            argv += ["--output-dir", str(tmp_path / "out")]
        self.run_and_check(capsys, argv, f"error: {deep}: invalid JSON")

    @pytest.mark.parametrize("command", ["generate", "factorize", "bench"])
    def test_config_that_is_not_an_object(self, tmp_path, capsys, command):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        self.run_and_check(capsys, [command, "--config", str(cfg),
                                    "--output-dir", str(tmp_path / "out")],
                           f"{cfg}: config must be a JSON object")


class TestManifests:
    """The resolved config each command records, pinned for the README
    configs, with every default filled in and keys in order."""

    GEN = {"dims": [20, 30, 40], "rank": 5, "samples": 50000, "seed": 5}
    FIT = {"tensor": "data/tensor.coo", "method": "pdnr", "rank": 5,
           "tau": 1e-4}

    @staticmethod
    def config_items(outdir):
        manifest = json.loads((outdir / "manifest.json").read_text())
        return list(manifest["config"].items())

    @pytest.mark.parametrize("flags, seed", [([], 5), (["--seed", "7"], 7)])
    def test_generate(self, tmp_path, flags, seed):
        cfg = write_json(tmp_path / "gen.json", self.GEN)
        out = tmp_path / "data"
        assert main(["generate", "--config", cfg, "--output-dir", str(out),
                     *flags]) == 0
        assert self.config_items(out) == list({
            "dims": [20, 30, 40], "rank": 5, "samples": 50000,
            "boost_fraction": 0.2, "boost_scale": 10.0, "small_value": 0.1,
            "collinearity_alpha": None, "seed": seed,
        }.items())

    @pytest.mark.parametrize("flags, overridden", [
        ([], {}),
        (["--seed", "1", "--method", "mu", "--outer-max", "1", "--mode1-only"],
         {"method": "mu", "outer_max": 1, "seed": 1, "mode1_only": True}),
    ])
    def test_factorize(self, tmp_path, monkeypatch, flags, overridden):
        monkeypatch.chdir(tmp_path)
        gen = write_json(tmp_path / "gen.json", self.GEN)
        fac = write_json(tmp_path / "fit.json", self.FIT)
        assert main(["generate", "--config", gen, "--output-dir", "data"]) == 0
        assert main(["factorize", "--config", fac, "--output-dir", "run",
                     *flags]) == 0
        expected = {
            "method": "pdnr", "rank": 5, "tau": 0.0001, "outer_max": 200,
            "time_limit": None, "seed": 0, "mode1_only": False,
            "tensor": "data/tensor.coo",
        }
        assert self.config_items(tmp_path / "run") == list(
            {**expected, **overridden}.items())

    def test_bench_records_its_defaults(self, tmp_path):
        cfg = write_json(tmp_path / "bench.json", {
            "dims": [5, 6, 4], "samples": 200, "ranks": [2], "seeds": [1],
            "methods": ["MU"], "outer_max": 2,
        })
        out = tmp_path / "bench"
        assert main(["bench", "--config", cfg, "--output-dir", str(out)]) == 0
        assert self.config_items(out) == list({
            "methods": ["mu"], "ranks": [2], "seeds": [1], "dims": [5, 6, 4],
            "samples": 200, "boost_fraction": 0.2, "boost_scale": 10.0,
            "small_value": 0.1, "collinearity_alpha": None, "tau": 0.0001,
            "outer_max": 2, "time_limit": None,
        }.items())


class TestDeterminism:
    @pytest.mark.parametrize("method", ["pdnr", "pqnr", "mu"])
    def test_generate_factorize_reruns_are_byte_identical(self, tmp_path,
                                                          monkeypatch, method):
        # Relative paths, so each run's manifests name the same files.
        outputs = []
        for run in ("a", "b"):
            workdir = tmp_path / run
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            gen = write_json(workdir / "gen.json", {
                "dims": [6, 7, 8], "rank": 3, "samples": 2000, "seed": 11,
            })
            fac = write_json(workdir / "fac.json", {
                "tensor": "data/tensor.coo", "method": method, "rank": 3,
                "tau": 1e-4, "outer_max": 30, "seed": 2,
            })
            assert main(["generate", "--config", gen, "--output-dir", "data"]) == 0
            assert main(["factorize", "--config", fac, "--output-dir", "fit"]) == 0
            with open(workdir / "fit" / "trace.csv") as fh:
                trace = [{k: v for k, v in row.items() if k != "seconds"}
                         for row in csv.DictReader(fh)]
            files = {name: (workdir / name).read_bytes() for name in (
                "data/tensor.coo", "data/truth_model.json", "data/manifest.json",
                "fit/model.json", "fit/manifest.json")}
            outputs.append((trace, files))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0]) >= 1


# A factorize run in a child interpreter restricted to the given CPUs, with
# the multiplicative solves' work gate at the given value; its last line on
# stderr counts the row ranges it forked.  OpenBLAS also takes its thread
# count from the CPUs a process may use, and a threaded dot product sums in
# another order (the objective of a tensor with tens of thousands of
# nonzeros changes in its last digit).
ON_CPUS = """
import os, sys
os.sched_setaffinity(0, {cpus!r})
import poissoncp.sparse_tensor as sparse_tensor
sparse_tensor.PARALLEL_MIN_WORK = {min_work}
fork, forks = os.fork, []
def counting_fork():
    forks.append(1)
    return fork()
os.fork = counting_fork
from poissoncp.cli import main
code = main(sys.argv[1:])
print("forks", len(forks), file=sys.stderr)
sys.exit(code)
"""
ALLOWED_CPUS = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
                else set())

# The generator config, rank and sweeps of each CPU-mask case.  "pinned"
# runs its children with one OpenBLAS thread, so only the row split
# differs between them, and compares the whole trace.  "unpinned" lets
# OpenBLAS take its threads from the mask: 31,367 nonzeros, where 16 of
# the 20 mode-3 rows hold over 922, so at R 10 their gemv passes
# OpenBLAS's threading cut-off of 9,216 elements.  The model and every
# trace column but the objective, whose single dot product may thread,
# must match.
CPU_MASK_CASES = {
    "pinned": ({"dims": [400, 20, 15], "rank": 4, "samples": 6000,
                "seed": 3}, 4, 3),
    "unpinned": ({"dims": [300, 100, 20], "rank": 10, "samples": 150000,
                  "seed": 0}, 10, 1),
}
OPENBLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                             "OMP_NUM_THREADS")


@pytest.mark.skipif(len(ALLOWED_CPUS) < 2, reason="needs two allowed CPUs")
@pytest.mark.parametrize("method, openblas", [
    *(pytest.param(method, "pinned", id=method)
      for method in ("pdnr", "pqnr", "mu")),
    *(pytest.param(method, "unpinned", id=f"{method}-unpinned")
      for method in ("pdnr", "pqnr", "mu"))])
def test_factorize_on_one_cpu_and_on_all_is_byte_identical(tmp_path, method,
                                                          openblas):
    config, rank, outer_max = CPU_MASK_CASES[openblas]
    gen = write_json(tmp_path / "gen.json", config)
    assert main(["generate", "--config", gen,
                 "--output-dir", str(tmp_path / "data")]) == 0
    tensor = read_coo(tmp_path / "data" / "tensor.coo")
    assert len(mode_row_positions(tensor, 1)) >= PARALLEL_MIN_ROWS
    fac = write_json(tmp_path / "fac.json", {
        "tensor": str(tmp_path / "data" / "tensor.coo"), "method": method,
        "rank": rank, "outer_max": outer_max, "seed": 1})
    env = {name: value for name, value in os.environ.items()
           if name not in OPENBLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(poissoncp.__file__).parent.parent),
         *filter(None, [os.environ.get("PYTHONPATH")])])
    skipped = {"seconds"}
    if openblas == "pinned":
        env["OPENBLAS_NUM_THREADS"] = "1"
    else:
        assert np.diff(mode_row_positions(tensor, 3).starts).max() > 922
        skipped.add("objective")
    # Splitting a mu mode takes far more nonzeros than a fit of a few
    # seconds holds, so the children split every mu mode.
    min_work = 0 if method == "mu" else PARALLEL_MIN_WORK
    outputs, forks = [], []
    for cpus in ({min(ALLOWED_CPUS)}, ALLOWED_CPUS):
        out = tmp_path / f"fit-{len(cpus)}"
        child = subprocess.run(
            [sys.executable, "-c", ON_CPUS.format(cpus=cpus, min_work=min_work),
             "factorize", "--config", fac, "--output-dir", str(out)],
            check=True, env=env, capture_output=True, text=True, timeout=300)
        forks.append(int(child.stderr.split()[-1]))
        with open(out / "trace.csv") as fh:
            trace = [{k: v for k, v in row.items() if k not in skipped}
                     for row in csv.DictReader(fh)]
        outputs.append(((out / "model.json").read_bytes(), trace))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) >= 1
    assert forks[0] == 0 < forks[1]
