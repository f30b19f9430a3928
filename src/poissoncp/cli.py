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
import errno
import hashlib
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .driver import METHODS, FitConfig, fit, write_trace
from .errors import ConfigError, DataError, check_integer
from .evaluation import (
    DEFAULT_ZERO_THRESHOLDS,
    exact_zero_count,
    full_kkt_violation,
    score_greedy,
    thresholded_zero_count,
)
from .kruskal import MASS_MAX, kl_objective, load_model, normalize, save_model
from .sparse_tensor import read_coo, write_coo
from .synth import GenConfig, generate_dataset

__all__ = ["main"]


def _load_config(path, keys, **flags) -> dict:
    """The JSON object in ``path``, whose keys must all be among ``keys``,
    with each of ``flags`` that was set (not None, typed by argparse) in
    place of the file's value; the dict's readers check both alike.  An
    unreadable file and invalid or too deeply nested JSON are ConfigErrors."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(
            f"{path}: cannot read config ({exc.strerror or exc})") from exc
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = [key for key in config if key not in keys]
    if unknown:
        raise ConfigError(f"unknown config field {unknown[0]!r}")
    config.update((k, v) for k, v in flags.items() if v is not None)
    return config


_REQUIRED = object()


def _field(config: dict, key: str, kind, what: str, default=_REQUIRED):
    """Config field ``key``, one that only the CLI reads, checked by ``kind``;
    ``default`` stands in for a missing key, and without a default a
    missing key is an error."""
    if key not in config:
        if default is _REQUIRED:
            raise ConfigError(f"missing required config field {key!r}")
        return default
    try:
        return kind(config[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {key!r} is not a valid {what}") from exc


def _exactly(cls):
    """``kind`` that accepts only a JSON value decoded as ``cls``."""
    def check(value):
        if not isinstance(value, cls):
            raise TypeError(f"expected {cls}")
        return value
    return check


def _list(kind):
    """``kind`` applied to each element of a non-empty JSON array."""
    def convert(value):
        if not isinstance(value, list) or not value:
            raise TypeError("expected a non-empty array")
        return [kind(v) for v in value]
    return convert


def _build(cls, config: dict, names):
    """``cls`` from the ``config`` entries named in ``names``.  The class
    checks each value; a missing required field and a value the class
    rejects are ConfigErrors."""
    fields = {key: config[key] for key in names if key in config}
    for f in dataclasses.fields(cls):
        if (f.name not in fields and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ConfigError(f"missing required config field {f.name!r}")
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _read_input(read, path):
    """Read an input file with ``read_coo`` or ``load_model``, reporting an
    unreadable file or malformed or invalid data (a ValueError naming the
    path) as DataError."""
    try:
        return read(path)
    except OSError as exc:
        raise DataError(
            f"{path}: cannot read ({exc.strerror or exc})") from exc
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _read_model(path):
    """The model in ``path``, normalized; a DataError when ``load_model``
    rejects it or when its total mass is not below ``MASS_MAX``, also when
    a column sum or a weight overflows on the way."""
    model = _read_input(load_model, path)
    with np.errstate(over="ignore"):
        try:
            model = normalize(model)
            mass = model.weights.sum()
        except ValueError:  # an infinite weight or column sum
            mass = math.inf
    if not mass < MASS_MAX:
        raise DataError(f"{path}: the model's total mass overflows: it must "
                        f"stay below {MASS_MAX:.3g}, the square root of the "
                        "largest double")
    return model


def _check_shape(model, model_path, tensor, tensor_path):
    if model.shape.dims != tensor.shape.dims:
        raise DataError(f"{model_path}: model shape {model.shape.dims} does not "
                        f"match the shape {tensor.shape.dims} of {tensor_path}")


def _model_objective(model, model_path, tensor, tensor_path) -> float:
    """The KL objective of ``model`` on ``tensor``; a DataError when their
    shapes differ or the model is zero at a positive count, or so close to
    zero there that the objective is infinite."""
    _check_shape(model, model_path, tensor, tensor_path)
    objective = kl_objective(model, tensor)
    if not math.isfinite(objective):
        raise DataError(f"{model_path}: model is zero at a positive count "
                        f"of {tensor_path}, or so close to zero that the "
                        "count over its square overflows")
    return objective


def _output_dir(path) -> Path:
    """Create the output directory ``path`` and its parents; a ConfigError
    naming it when that fails, as when it is an existing file."""
    outdir = Path(path)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{outdir}: cannot create the output directory "
                          f"({exc.strerror or exc})") from exc
    return outdir


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


# A config key named after a field of GenConfig or FitConfig goes to that
# class as it is, and the class checks it.  The CLI reads the other keys
# itself: factorize's ``tensor`` and ``init_model`` are paths.
_GEN_KEYS = {f.name for f in dataclasses.fields(GenConfig)}
_FIT_KEYS = {f.name for f in dataclasses.fields(FitConfig)}


def cmd_generate(args) -> int:
    config = _load_config(args.config, _GEN_KEYS, seed=args.seed)
    gen = _build(GenConfig, config, _GEN_KEYS)
    outdir = _output_dir(args.output_dir)
    truth, tensor = generate_dataset(gen)
    write_coo(tensor, outdir / "tensor.coo")
    save_model(truth, outdir / "truth_model.json")
    _write_manifest(outdir, "generate", dataclasses.asdict(gen),
                    ["tensor.coo", "truth_model.json"])
    print(f"wrote {outdir / 'tensor.coo'}: dims={gen.dims} nnz={tensor.nnz} "
          f"density={tensor.density():.4%} total_count={tensor.total_count()}")
    return 0


def _fit_config(config: dict) -> tuple[FitConfig, dict]:
    """The FitConfig and the resolved fit fields, for the manifest."""
    fit_config = _build(FitConfig, config, _FIT_KEYS)
    resolved = {key: getattr(fit_config, key) for key in (
        "method", "rank", "tau", "outer_max", "time_limit", "seed",
        "mode1_only")}
    return fit_config, resolved


_FACTORIZE_KEYS = {*_FIT_KEYS, "tensor", "init_model"}


def cmd_factorize(args) -> int:
    config = _load_config(
        args.config, _FACTORIZE_KEYS, tensor=args.tensor, method=args.method,
        rank=args.rank, tau=args.tau, outer_max=args.outer_max,
        time_limit=args.time_limit, seed=args.seed,
        mode1_only=args.mode1_only or None, init_model=args.init_model)
    tensor_path = _field(config, "tensor", _exactly(str), "path")
    fit_config, resolved = _fit_config(config)
    resolved["tensor"] = tensor_path
    init = None
    init_path = _field(config, "init_model", _exactly((str, type(None))),
                       "path", None)
    if init_path:
        init = _read_model(init_path)
        resolved["init_model"] = init_path
    tensor = _read_input(read_coo, tensor_path)
    if tensor.nnz == 0:
        raise DataError(f"{tensor_path}: no nonzero entries to fit")
    if init is not None:
        _model_objective(init, init_path, tensor, tensor_path)
        if init.rank != fit_config.rank:
            raise DataError(f"{init_path}: model rank {init.rank} does not "
                            f"match the configured rank {fit_config.rank}")
    fit_config.check_sizes(tensor)  # before the output directory is made
    outdir = _output_dir(args.output_dir)
    result = fit(tensor, fit_config, init=init)
    # The tensor and its layouts go before the model is encoded, so the
    # encoder's strings do not add to the fit's peak memory.
    del tensor
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


def _check_writable(path: str) -> None:
    """Raise the ConfigError that writing ``path`` would raise when it is
    a directory, ends in a separator or its parent is not an existing
    directory; creates nothing.  ``Path`` drops a trailing separator, so
    that is checked on the string, as ``open`` sees it."""
    target = Path(path)
    if target.is_dir() or path.endswith((os.sep, os.altsep or os.sep)):
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    else:
        return
    raise ConfigError(f"{path}: cannot write ({os.strerror(code)})")


def cmd_evaluate(args) -> int:
    if args.output:  # before any input is read
        _check_writable(args.output)
    model = _read_model(args.model)
    truth = _read_model(args.truth)
    tensor = _read_input(read_coo, args.tensor)
    objective = _model_objective(model, args.model, tensor, args.tensor)
    _check_shape(truth, args.truth, tensor, args.tensor)
    if model.rank != truth.rank:
        raise DataError(f"{args.model}: rank {model.rank} does not match "
                        f"rank {truth.rank} of {args.truth}")
    report = score_greedy(model, truth)
    zeros = exact_zero_count(model)
    per_mode, kkt_max = full_kkt_violation(tensor, model)
    thresholded = {f"{t:g}": thresholded_zero_count(model, t)
                   for t in DEFAULT_ZERO_THRESHOLDS}
    doc = {
        "score": report.score,
        "permutation": list(report.permutation),
        "per_component": list(report.per_component),
        "exact_zeros": {"per_factor": list(zeros.per_factor), "total": zeros.total},
        "thresholded_zeros": {
            t: {"per_factor": list(c.per_factor), "total": c.total}
            for t, c in thresholded.items()
        },
        "mode_kkt": list(per_mode),
        "kkt_max": kkt_max,
        "objective": objective,
    }
    text = json.dumps(doc, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as out:
                out.write(text)
        except OSError as exc:
            raise ConfigError(f"{args.output}: cannot write "
                              f"({exc.strerror or exc})") from exc
    else:
        sys.stdout.write(text)
    return 0


# The sweep sets each run's method, rank and seed; its fits sweep every
# mode.
_BENCH_KEYS = {"methods", "ranks", "seeds", *_GEN_KEYS, *_FIT_KEYS} - {
    "method", "rank", "seed", "workers", "mode1_only"}
_BENCH_COLUMNS = ("method", "rank", "seed", "time_to_tau", "final_objective",
                  "exact_zeros", "converged")


def cmd_bench(args) -> int:
    config = _load_config(args.config, _BENCH_KEYS)
    methods = _field(config, "methods", _list(str.lower),
                     "non-empty list of method names", list(METHODS))
    ranks, seeds = (_field(config, key, _list(partial(check_integer, key)),
                           "non-empty list of integers")
                    for key in ("ranks", "seeds"))
    runs = [(_build(GenConfig, run, _GEN_KEYS),
             [_fit_config({**run, "method": method}) for method in methods])
            for run in ({**config, "rank": rank, "seed": seed}
                        for rank in ranks for seed in seeds)]
    outdir = _output_dir(args.output_dir)
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
    p.add_argument("--seed", type=int, default=None, help="replaces the config seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("factorize", help="fit a tensor from a COO file")
    p.add_argument("--config", required=True, help="JSON factorization config")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--tensor", default=None, help="replaces the config tensor path")
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
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
