"""What the benchmark in ``perfbench/`` needs from the package.

The benchmark wraps named module attributes with timing spans, builds
``FitConfig`` objects with a ``workers`` field and runs the CLI on the
configs it writes.  Its own tests check the
same and more, but take about a minute; these checks are fast enough to
run with the rest of the suite, so a rename or a removed field shows here
first.
"""

import importlib
from pathlib import Path

import pytest

from poissoncp.cli import main
from poissoncp.driver import METHODS, FitConfig

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module("tracing")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module("workloads")


def test_every_wrapped_site_is_a_module_attribute(tracing):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.wrapped_sites()
               if attr not in owner.__dict__]
    assert missing == []


@pytest.mark.parametrize("method", METHODS)
def test_fit_config_accepts_the_benchmark_fields(method):
    config = FitConfig(method=method, rank=5, outer_max=1, tau=1e-4, seed=0,
                       workers=2)
    assert config.workers == 2


def test_chain_configs_run_through_the_cli(workloads, tmp_path):
    workloads.write_chain_configs(workloads.WORKLOADS["acceptance-fit"],
                                  tmp_path)
    argv = workloads.stage_argv(tmp_path)
    assert main(argv["generate"]) == 0
    assert main([*argv["factorize"], "--outer-max", "1"]) == 0
