"""Command-line front end wiring generation, fitting, and evaluation.

Subcommands
-----------
generate   write a synthetic tensor and its ground-truth model
factorize  fit a tensor, writing the model and a per-iteration trace
evaluate   score a fitted model against a truth model and tensor
bench      sweep methods x ranks x seeds, writing a timing table

Exit codes: 0 success, 1 non-convergence under --strict, 2 usage,
configuration or data error.  All randomness flows from seeds in the
config, so re-running a command reproduces every non-timing output bit for
bit; each run writes a manifest recording the resolved config and its hash.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .baselines import MuParams
from .driver import METHODS, FitConfig, fit, write_trace
from .errors import ConfigError, DataError
from .evaluation import (
    DEFAULT_ZERO_THRESHOLDS,
    exact_zero_count,
    full_kkt_violation,
    score_greedy,
    thresholded_zero_count,
)
from .kruskal import kl_objective, load_model, normalize, save_model
from .row_solver import SolverParams
from .sparse_tensor import read_coo, write_coo
from .synth import GenConfig, generate_dataset

__all__ = ["main"]


def _load_config(path, keys) -> dict:
    """The JSON object in ``path``, whose keys must all be among ``keys``."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = [key for key in config if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config field {unknown[0]!r}")
    return config


_REQUIRED = object()


def _field(config: dict, key: str, kind, what: str, default=_REQUIRED,
           override=None):
    """Config field ``key`` converted by ``kind``.

    A command-line ``override`` (already typed by argparse) wins over the
    file, and ``default`` stands in for a missing key; without a default a
    missing key is an error.
    """
    if override is not None:
        return override
    if key not in config:
        if default is _REQUIRED:
            raise ConfigError(f"missing required config field {key!r}")
        return default
    try:
        return kind(config[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config field {key!r} is not a valid {what}") from exc


def _fields(config: dict, table: dict, overrides: dict) -> dict:
    """The ``table`` fields that ``overrides`` or ``config`` set, converted.

    ``table`` maps a key to its ``(kind, what)`` for :func:`_field`.  Keys
    set by neither are left out, so the dataclass built from the result
    supplies its own default.
    """
    return {key: _field(config, key, kind, what, override=overrides.get(key))
            for key, (kind, what) in table.items()
            if key in config or overrides.get(key) is not None}


def _exactly(cls):
    """``kind`` that accepts only a JSON value decoded as ``cls``."""
    def check(value):
        if not isinstance(value, cls):
            raise TypeError(f"expected {cls.__name__}")
        return value
    return check


def _int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _number(value) -> float:
    if isinstance(value, bool):
        raise ValueError("not a number")
    return float(value)


def _list(kind):
    """``kind`` applied to each element of a non-empty JSON array."""
    def convert(value):
        if not isinstance(value, list) or not value:
            raise TypeError("expected a non-empty array")
        return [kind(v) for v in value]
    return convert


def _optional(kind):
    """``kind`` that lets a JSON null through as None."""
    return lambda value: None if value is None else kind(value)


def _build(cls, **fields):
    """``cls(**fields)``, naming a missing required field and reporting the
    class's own range checks as ConfigError."""
    for f in dataclasses.fields(cls):
        if (f.name not in fields and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ConfigError(f"missing required config field {f.name!r}")
    try:
        return cls(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _read_input(read, path):
    """Read an input file with ``read_coo`` or ``load_model``, reporting
    malformed or invalid data (a ValueError naming the path) as DataError."""
    try:
        return read(path)
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _check_model_shape(model, model_path, tensor, tensor_path):
    if model.shape.dims != tensor.shape.dims:
        raise DataError(f"{model_path}: model shape {model.shape.dims} does not "
                        f"match the shape {tensor.shape.dims} of {tensor_path}")


def _write_manifest(outdir: Path, command: str, resolved: dict, outputs):
    canonical = json.dumps(resolved, sort_keys=True)
    manifest = {
        "artifact": "poissoncp",
        "version": __version__,
        "command": command,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "config": resolved,
        "outputs": sorted(outputs),
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


# Config key -> (kind, what) for :func:`_field`.  The generator keys are
# GenConfig's fields, in its order; the fit keys map onto FitConfig, with
# ``inner_iterations`` building its MuParams, ``mode1_only`` its modes and
# ``solver`` its SolverParams.
_GEN_FIELDS = {
    "dims": (_list(_int), "non-empty list of integers"),
    "rank": (_int, "integer"),
    "samples": (_int, "integer"),
    "boost_fraction": (_number, "number"),
    "boost_scale": (_number, "number"),
    "small_value": (_number, "number"),
    "collinearity_alpha": (_optional(_number), "number"),
    "seed": (_int, "integer"),
}
_FIT_FIELDS = {
    "method": (str.lower, "method name"),
    "rank": (_int, "integer"),
    "tau": (_number, "number"),
    "outer_max": (_int, "integer"),
    "time_limit": (_optional(_number), "number"),
    "seed": (_int, "integer"),
    "mode1_only": (_exactly(bool), "boolean"),
    "inner_iterations": (_int, "integer"),
    "solver": (_exactly(dict), "object"),
}


def _gen_config(config: dict, **overrides) -> GenConfig:
    return _build(GenConfig, **_fields(config, _GEN_FIELDS, overrides))


def cmd_generate(args) -> int:
    config = _load_config(args.config, _GEN_FIELDS)
    gen = _gen_config(config, seed=args.seed)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    truth, tensor = generate_dataset(gen)
    write_coo(tensor, outdir / "tensor.coo")
    save_model(truth, outdir / "truth_model.json")
    _write_manifest(outdir, "generate", dataclasses.asdict(gen),
                    ["tensor.coo", "truth_model.json"])
    print(f"wrote {outdir / 'tensor.coo'}: dims={gen.dims} nnz={tensor.nnz} "
          f"density={tensor.density():.4%} total_count={tensor.total_count()}")
    return 0


def _fit_config(config: dict, **overrides) -> tuple[FitConfig, dict]:
    """The FitConfig and the resolved fit fields, for the manifest."""
    fields = _fields(config, _FIT_FIELDS, overrides)
    solver = fields.pop("solver", {})
    if solver:
        fields["solver"] = _build(
            SolverParams, **{"tau": fields.get("tau", FitConfig.tau), **solver})
    if "inner_iterations" in fields:
        fields["mu"] = _build(MuParams,
                              inner_iterations=fields.pop("inner_iterations"))
    if fields.pop("mode1_only", False):
        fields["modes"] = (1,)
    fit_config = _build(FitConfig, **fields)
    resolved = {
        "method": fit_config.method,
        "rank": fit_config.rank,
        "tau": fit_config.tau,
        "outer_max": fit_config.outer_max,
        "time_limit": fit_config.time_limit,
        "seed": fit_config.seed,
        "mode1_only": fit_config.modes == (1,),
        "inner_iterations": fit_config.mu.inner_iterations,
        "solver": solver,
    }
    return fit_config, resolved


# "workers" is accepted and ignored because the benchmark's chain config in
# perfbench/workloads.py still writes it; ROADMAP item 1 removes both it and
# FitConfig.workers.
_FACTORIZE_KEYS = {*_FIT_FIELDS, "tensor", "init_model", "workers"}


def cmd_factorize(args) -> int:
    config = _load_config(args.config, _FACTORIZE_KEYS)
    tensor_path = _field(config, "tensor", _exactly(str), "path",
                         override=args.tensor)
    fit_config, resolved = _fit_config(
        config, method=args.method, rank=args.rank, tau=args.tau,
        outer_max=args.outer_max, time_limit=args.time_limit, seed=args.seed,
        mode1_only=args.mode1_only or None)
    resolved["tensor"] = tensor_path
    init = None
    init_path = _field(config, "init_model", _optional(_exactly(str)), "path",
                       None, args.init_model)
    if init_path:
        init = normalize(_read_input(load_model, init_path))
        resolved["init_model"] = init_path
    tensor = _read_input(read_coo, tensor_path)
    if tensor.nnz == 0:
        raise DataError(f"{tensor_path}: no nonzero entries to fit")
    if init is not None:
        _check_model_shape(init, init_path, tensor, tensor_path)
        if init.rank != fit_config.rank:
            raise DataError(f"{init_path}: model rank {init.rank} does not "
                            f"match the configured rank {fit_config.rank}")
    result = fit(tensor, fit_config, init=init)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_model(result.model, outdir / "model.json")
    write_trace(result.trace, outdir / "trace.csv")
    _write_manifest(outdir, "factorize", resolved, ["model.json", "trace.csv"])
    status = "converged" if result.converged else "NOT converged"
    print(f"{fit_config.method}: {status} after {len(result.trace)} outer "
          f"iteration(s), kkt={result.final_kkt:.3e}, "
          f"objective={result.trace.records[-1].objective:.10g}")
    if args.strict and not result.converged:
        return 1
    return 0


def cmd_evaluate(args) -> int:
    model = normalize(_read_input(load_model, args.model))
    truth = normalize(_read_input(load_model, args.truth))
    tensor = _read_input(read_coo, args.tensor)
    for path, m in ((args.model, model), (args.truth, truth)):
        _check_model_shape(m, path, tensor, args.tensor)
    if model.rank != truth.rank:
        raise DataError(f"{args.model}: rank {model.rank} does not match "
                        f"rank {truth.rank} of {args.truth}")
    report = score_greedy(model, truth)
    zeros = exact_zero_count(model)
    per_mode, kkt_max = full_kkt_violation(tensor, model)
    doc = {
        "score": report.score,
        "permutation": list(report.permutation),
        "per_component": list(report.per_component),
        "exact_zeros": {"per_factor": list(zeros.per_factor), "total": zeros.total},
        "thresholded_zeros": {
            f"{t:g}": {
                "per_factor": list(thresholded_zero_count(model, t).per_factor),
                "total": thresholded_zero_count(model, t).total,
            }
            for t in DEFAULT_ZERO_THRESHOLDS
        },
        "mode_kkt": list(per_mode),
        "kkt_max": kkt_max,
        "objective": kl_objective(model, tensor),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# The sweep sets each run's method, rank and seed; its fits use the default
# solver and sweep every mode.
_BENCH_KEYS = {"methods", "ranks", "seeds", *_GEN_FIELDS, *_FIT_FIELDS} - {
    "method", "rank", "seed", "solver", "mode1_only"}
_BENCH_COLUMNS = ("method", "rank", "seed", "time_to_tau", "final_objective",
                  "exact_zeros", "converged")


def cmd_bench(args) -> int:
    config = _load_config(args.config, _BENCH_KEYS)
    methods = _field(config, "methods", _list(str.lower),
                     "non-empty list of method names", list(METHODS))
    ranks = _field(config, "ranks", _list(_int), "non-empty list of integers")
    seeds = _field(config, "seeds", _list(_int), "non-empty list of integers")
    runs = [(_gen_config(config, rank=rank, seed=seed),
             [_fit_config(config, method=method, rank=rank, seed=seed)
              for method in methods])
            for rank in ranks for seed in seeds]
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for gen, fits in runs:
        _, tensor = generate_dataset(gen)
        for fc, _ in fits:
            result = fit(tensor, fc)
            last = result.trace.records[-1]
            rows.append((
                fc.method, fc.rank, fc.seed,
                f"{last.seconds:.3f}" if result.converged else "",
                f"{last.objective:.17g}", last.exact_zeros,
                int(result.converged),
            ))
            print(f"bench: method={fc.method} rank={fc.rank} seed={fc.seed} "
                  f"converged={result.converged} "
                  f"objective={last.objective:.6g}")
    out = outdir / "bench.csv"
    with open(out, "w") as fh:
        for row in (_BENCH_COLUMNS, *rows):
            fh.write(",".join(map(str, row)) + "\n")
    gen, fits = runs[0]
    settings = {**dataclasses.asdict(gen), **fits[0][1]}
    resolved = {"methods": methods, "ranks": ranks, "seeds": seeds,
                **{k: v for k, v in settings.items() if k in _BENCH_KEYS}}
    _write_manifest(outdir, "bench", resolved, ["bench.csv"])
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissoncp",
        description="Sparse Poisson CP factorization under the KL objective",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic tensor and truth model")
    p.add_argument("--config", required=True, help="JSON generator config")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("factorize", help="fit a tensor from a COO file")
    p.add_argument("--config", required=True, help="JSON factorization config")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--tensor", default=None, help="override config tensor path")
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--outer-max", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mode1-only", action="store_true",
                   help="sweep only mode 1 (single convex block subproblem)")
    p.add_argument("--init-model", default=None,
                   help="JSON model to start from instead of a random init")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the fit does not converge")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("evaluate", help="score a fitted model against a truth model")
    p.add_argument("--model", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--tensor", required=True)
    p.add_argument("--output", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="sweep methods x ranks x seeds")
    p.add_argument("--config", required=True, help="JSON bench config")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
