"""Tests of the benchmark itself: wrappers, output checks, BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import kernel_check
import record
import run
import tracing
import workloads as W

TINY = W.Workload("tiny", (6, 7, 8), 3, 2000, 1, outer_max=40, converges=True)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    """Reference outputs of TINY recorded the way record.py records them."""
    work = tmp_path_factory.mktemp("record")
    seeds = {}
    for seed in (0, record.HELD_OUT_SEED):
        seeds[str(seed)], nnz = record.record_fits(TINY, seed)
    W.write_chain_configs(TINY, work)
    chain = W.run_chain(work, run.SRC)
    ref = {"nnz": nnz, "seeds": seeds, "chain": chain.outputs}
    full = json.loads(run.REFERENCE.read_text())
    full["tiny"] = ref
    return full


def site_objects():
    return [(owner, attr, owner.__dict__[attr])
            for owner, attr, _, _ in tracing.wrapped_sites()]


def test_wrappers_restore_every_name():
    before = site_objects()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original
            assert owner.__dict__[attr].__wrapped__ is original
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_wrappers_restored_when_the_block_raises():
    before = site_objects()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(5)])
    outer()
    total = tracer.seconds[("outer", None)]
    own = tracer.self_seconds[("outer", None)]
    assert tracer.calls[("inner", None)] == 5
    assert own == pytest.approx(total - tracer.seconds[("inner", None)])


def test_traced_and_untraced_fits_agree(workdir):
    inputs = W.make_inputs(TINY, 3)
    tracer = tracing.Tracer()
    for method in W.METHODS:
        plain = W.run_fit(TINY, inputs, method)
        with tracing.installed(tracer), tracer.label(method):
            traced = W.run_fit(TINY, inputs, method,
                               tracer.wrap("driver.fit", W.fit))
        assert traced.outputs() == plain.outputs()
        assert traced.objectives == plain.objectives
        for a, b in zip(traced.model.factors, plain.model.factors):
            np.testing.assert_array_equal(a, b)
        assert run.inner_iterations(tracer, method) > 0


def test_traced_chain_matches_subprocess_chain(workdir):
    import poissoncp.cli as cli

    W.write_chain_configs(TINY, workdir / "sub")
    sub = W.run_chain(workdir / "sub", run.SRC)
    W.write_chain_configs(TINY, workdir / "in")
    tracer = tracing.Tracer()
    with tracing.installed(tracer), tracer.label("cli"):
        codes = W.run_chain_in_process(workdir / "in", cli.main)
    assert codes == {stage: 0 for stage in W.STAGES}
    assert W.chain_outputs(workdir / "in")[0] == sub.outputs
    assert tracer.calls[("sparse_tensor.write_coo", "cli")] == 1


def test_relabelled_seed_is_the_same_problem():
    base, other = W.make_inputs(TINY, 0), W.make_inputs(TINY, 5)
    assert base.tensor.nnz == other.tensor.nnz
    assert not np.array_equal(base.tensor.subs0, other.tensor.subs0)
    a = W.run_fit(TINY, base, "pdnr")
    b = W.run_fit(TINY, other, "pdnr")
    assert W.check_outputs("pdnr", b.outputs(), a.outputs(), exact=False) == []


def test_correct_reference_passes(workdir, tiny_reference):
    bench = run.Bench(TINY, 0, 0.01, tiny_reference)
    metrics = bench.run_timed()
    assert bench.tally.messages == []
    # set-ups, fits, the pdnr/pqnr zeros agreement, CLI stages
    fits = sum(len(v) for v in bench.fit_s.values())
    assert bench.tally.failed == 0
    assert bench.tally.attempted == len(bench.setup_s) + fits + 1 + 3
    ref = tiny_reference["tiny"]["seeds"]["0"]["fit"]["pdnr"]
    assert metrics["sweeps.pdnr"][0] == ref["sweeps"]
    # the run record keeps raw wall medians of every timed operation
    wall = bench.wall_medians()
    assert set(wall) == {"setup_s", "chain_s", *(f"fit_s.{m}" for m in W.METHODS)}
    assert all(len(bench.wall_s[f"fit_s.{m}"]) == len(bench.fit_s[m])
               for m in W.METHODS)


def test_stream_kernel_runs_only_where_a_fit_uses_it(tiny_reference):
    kinds = {}
    for name in ("tiny", *W.WORKLOADS):
        workload = TINY if name == "tiny" else W.WORKLOADS[name]
        bench = run.Bench(workload, 0, 1.0, tiny_reference)
        kinds[name] = bench.sampler.stream
    assert kinds == {"tiny": False, "acceptance-fit": False,
                     "short-rows": False, "cli-large": True}


def test_kernel_check_reports_every_kernel(capsys):
    assert kernel_check.main(["--workload", "acceptance-fit", "--method", "mu",
                              "--repeats", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["raw", "python", "stream"]
    assert "fit_kernel" in lines[2]


@pytest.mark.parametrize("path", [
    ("seeds", "0", "fit", "pdnr", "objective"),
    ("seeds", "0", "fit", "mu", "sweeps"),
    ("chain", "model_sha256"),
    ("nnz",),
])
def test_wrong_reference_value_is_a_failure(workdir, tiny_reference, path):
    wrong = copy.deepcopy(tiny_reference)
    node = wrong["tiny"]
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    node[path[-1]] = value + 1 if isinstance(value, (int, float)) else "0" * 64
    bench = run.Bench(TINY, 0, 0.01, wrong)
    bench.run_timed()
    result = run.result_line(bench.tally, {})
    assert result["failed"] >= 1 and result["correct"] is False


def test_benchmark_json_names_what_the_runs_print(workdir, tiny_reference):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    timed = run.Bench(TINY, 0, 0.01, tiny_reference).run_timed()
    assert set(timed) == {m["name"] for m in spec["end_to_end"]}
    traced = run.Bench(TINY, 0, 0.01, tiny_reference).run_traced()
    assert set(traced) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in {**timed, **traced}.items())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance-fit",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
