"""Mutated CLI inputs: no exception escapes ``main``.

Each example writes a small variant of the README's ``gen.json``,
``fit.json`` or ``bench.json``, of a generated COO file or of a model JSON
file, and runs the command in this process.  The command must return 0, 1
or 2 (argparse's exit 2 counts), and on 0 every JSON file it wrote must
parse strictly, with only finite numbers.  Under the suite's
``error::RuntimeWarning`` filter a numpy overflow warning escapes as an
exception, so a model or config that overflows must be a reported error.

Every size drawn is a few units, or so large that a check rejects it before
anything is allocated: no example can ask for memory near the machine's.
"""

import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poissoncp.cli import main

FUZZ = settings(max_examples=120, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

GEN = {"dims": [5, 6, 7], "rank": 3, "samples": 300, "seed": 5}
FIT = {"method": "pdnr", "rank": 3, "tau": 1e-4, "outer_max": 3}
BENCH = {"dims": [5, 6, 7], "samples": 300, "ranks": [2], "seeds": [0],
         "methods": ["pdnr", "pqnr", "mu"], "tau": 1e-4, "outer_max": 2}

# JSON values of every type, and numbers at the edges of float64.
ODD = st.sampled_from([
    None, True, False, "", "3", "x", [], [3], {}, {"tau": 1e-3}, 0, -1,
    2.5, -0.0, 1e-310, 5e-324, 1e308, 10**30, float("nan"), float("inf"),
])
SMALL_INT = st.integers(-2, 8)
EXTREME = st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-160, 1e160, 1e308,
                           1.7e308])
REAL = st.floats(allow_nan=True, allow_infinity=True) | EXTREME


def strict_json(text: str):
    """Parse JSON that holds only finite numbers."""
    def finite(token):
        value = float(token)
        assert math.isfinite(value), token
        return value

    def reject(token):
        raise AssertionError(f"non-finite constant {token}")

    return json.loads(text, parse_float=finite, parse_constant=reject)


def run(argv, outdir: Path) -> None:
    """Run the command, whose outputs go to ``outdir``, and check them."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code in (0, 1, 2)
    if code == 0:
        assert outdir.is_dir()
        for path in outdir.rglob("*.json"):
            strict_json(path.read_text())


# Sweep counts that a config accepts are drawn small: a huge accepted
# count would run for hours, not fail.
COUNTS = ("outer_max",)
ODD_COUNT = ODD.filter(lambda v: not (
    isinstance(v, (int, float)) and not isinstance(v, bool)
    and math.isfinite(v) and v > 20))


@st.composite
def edited(draw, base: dict, values: dict):
    """``base`` with some keys dropped, set to drawn values or added."""
    doc = dict(base)
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted({*base, *values, "unknown"})))
        action = draw(st.sampled_from(["set", "set", "odd", "drop"]))
        if action == "drop":
            doc.pop(key, None)
        elif action == "odd" or key not in values:
            doc[key] = draw(ODD_COUNT if key in COUNTS else ODD)
        else:
            doc[key] = draw(values[key])
    return doc


GEN_VALUES = {
    "dims": st.lists(SMALL_INT | ODD, min_size=0, max_size=4),
    "rank": SMALL_INT, "samples": st.integers(-1, 400), "seed": SMALL_INT,
    "boost_fraction": REAL, "boost_scale": REAL, "small_value": REAL,
    "collinearity_alpha": REAL,
}
FIT_VALUES = {
    "method": st.sampled_from(["pdnr", "pqnr", "mu", "MU", "newton"]),
    "rank": SMALL_INT, "tau": REAL, "outer_max": st.integers(-1, 3),
    "time_limit": REAL, "seed": SMALL_INT, "mode1_only": st.booleans(),
    "solver": st.fixed_dictionaries({}, optional={
        "tau": REAL, "k_max": st.integers(-1, 20), "sigma": REAL}),
}
BENCH_VALUES = {
    **{k: v for k, v in GEN_VALUES.items() if k not in ("rank", "seed")},
    "ranks": st.lists(st.integers(-1, 3) | ODD, max_size=2),
    "seeds": st.lists(SMALL_INT | ODD, max_size=2),
    "methods": st.lists(FIT_VALUES["method"] | ODD, max_size=2),
    "tau": REAL, "outer_max": st.integers(-1, 2), "time_limit": REAL,
}

TOKENS = st.sampled_from(["0", "1", "2", "-1", "7", "99", "1.5", "x", "",
                          "1e3", "9223372036854775807",
                          "9223372036854775808", "\n"])


@st.composite
def coo_text(draw, text: str):
    """A COO file with lines dropped or repeated and tokens replaced."""
    lines = text.splitlines()
    # Half the files stay valid, so that the other input gets tested.
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        k = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["drop", "repeat", "token"]))
        if action == "drop":
            del lines[k]
        elif action == "repeat":
            lines.insert(k, lines[k])
        else:
            tokens = lines[k].split()
            if tokens:
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
            lines[k] = " ".join(tokens)
        if not lines:
            break
    return "\n".join(lines) + "\n"


@st.composite
def model_text(draw, doc: dict):
    """A model JSON file with header fields, weights or factor entries
    replaced."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(["R", "dims", "lambda", "lambda_entry",
                                       "same_lambda", "factor_entry",
                                       "factor_row", "drop"]))
        if target == "drop":
            doc.pop(draw(st.sampled_from(["R", "dims", "lambda", "factors"])),
                    None)
        elif target == "lambda":
            doc["lambda"] = draw(st.lists(REAL, min_size=3, max_size=3) | ODD)
        elif target == "same_lambda":
            doc["lambda"] = [draw(EXTREME)] * 3
        elif target == "lambda_entry" and isinstance(doc.get("lambda"), list):
            weights = doc["lambda"]
            if weights:
                weights[draw(st.integers(0, len(weights) - 1))] = draw(
                    REAL | ODD)
        elif target in ("factor_entry", "factor_row") and "factors" in doc:
            factor = doc["factors"][draw(st.integers(0, 2))]
            row = draw(st.integers(0, len(factor) - 1))
            if target == "factor_row":
                factor[row] = draw(st.lists(REAL, max_size=4) | ODD)
            elif isinstance(factor[row], list) and factor[row]:
                factor[row][draw(st.integers(0, len(factor[row]) - 1))] = (
                    draw(REAL | ODD))
        elif target in ("R", "dims"):
            doc[target] = draw(ODD | SMALL_INT | st.lists(SMALL_INT,
                                                          max_size=4))
    return json.dumps(doc)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "gen.json").write_text(json.dumps(GEN))
    assert main(["generate", "--config", str(root / "gen.json"),
                 "--output-dir", str(root / "data")]) == 0
    data = root / "data"
    return ((data / "tensor.coo").read_text(),
            json.loads((data / "truth_model.json").read_text()))


@pytest.fixture()
def workdir():
    path = Path(tempfile.mkdtemp(prefix="poissoncp-fuzz-"))
    yield path
    shutil.rmtree(path)


def fresh(workdir: Path) -> Path:
    """An empty directory for one example's files."""
    shutil.rmtree(workdir)
    workdir.mkdir()
    return workdir


@FUZZ
@given(gen=edited(GEN, GEN_VALUES))
def test_generate(workdir, gen):
    root = fresh(workdir)
    (root / "gen.json").write_text(json.dumps(gen))
    run(["generate", "--config", str(root / "gen.json"),
         "--output-dir", str(root / "out")], root / "out")


FLAGS = st.lists(st.sampled_from([
    ["--method", "mu"], ["--method", "pqnr"], ["--rank", "0"], ["--rank", "x"],
    ["--tau", "nan"], ["--tau", "1e-300"], ["--outer-max", "1"],
    ["--outer-max", "-1"], ["--time-limit", "-1"], ["--time-limit", "inf"],
    ["--seed", "-3"], ["--mode1-only"], ["--strict"]]), max_size=2)


@FUZZ
@given(data=st.data(), fit=edited(FIT, FIT_VALUES), init=st.booleans(),
       flags=FLAGS)
def test_factorize(dataset, workdir, data, fit, init, flags):
    coo, truth = dataset
    root = fresh(workdir)
    (root / "tensor.coo").write_text(data.draw(coo_text(coo)))
    (root / "model.json").write_text(data.draw(model_text(truth)))
    fit.setdefault("tensor", str(root / "tensor.coo"))
    if init:
        fit["init_model"] = str(root / "model.json")
    (root / "fit.json").write_text(json.dumps(fit))
    run(["factorize", "--config", str(root / "fit.json"),
         "--output-dir", str(root / "out"), *sum(flags, [])], root / "out")


@FUZZ
@given(data=st.data(), role=st.sampled_from(["--model", "--truth"]))
def test_evaluate(dataset, workdir, data, role):
    coo, truth = dataset
    root = fresh(workdir)
    (root / "tensor.coo").write_text(data.draw(coo_text(coo)))
    (root / "truth.json").write_text(json.dumps(truth))
    (root / "model.json").write_text(data.draw(model_text(truth)))
    paths = {"--model": root / "truth.json", "--truth": root / "truth.json",
             role: root / "model.json"}
    (root / "out").mkdir()
    run(["evaluate", *[str(a) for kv in paths.items() for a in kv],
         "--tensor", str(root / "tensor.coo"),
         "--output", str(root / "out" / "report.json")], root / "out")


@settings(FUZZ, max_examples=25)
@given(bench=edited(BENCH, BENCH_VALUES))
def test_bench(workdir, bench):
    root = fresh(workdir)
    (root / "bench.json").write_text(json.dumps(bench))
    run(["bench", "--config", str(root / "bench.json"),
         "--output-dir", str(root / "out")], root / "out")
