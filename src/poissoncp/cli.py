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


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
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
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field {key!r} is not a valid {what}") from exc


def _int_list(value):
    return [int(v) for v in value]


def _method_list(value):
    return [str(m).lower() for m in value]


def _path(value):
    if not isinstance(value, str):
        raise TypeError("a path must be a string")
    return value


def _optional(kind):
    """``kind`` that lets a JSON null through as None."""
    return lambda value: None if value is None else kind(value)


def _build(cls, **fields):
    """``cls(**fields)``, reporting its own range checks as ConfigError."""
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


def _gen_config(config: dict, seed_override=None) -> GenConfig:
    return _build(
        GenConfig,
        dims=tuple(_field(config, "dims", _int_list, "list of integers")),
        rank=_field(config, "rank", int, "integer"),
        samples=_field(config, "samples", int, "integer"),
        boost_fraction=_field(config, "boost_fraction", float, "number", 0.2),
        boost_scale=_field(config, "boost_scale", float, "number", 10.0),
        small_value=_field(config, "small_value", float, "number", 0.1),
        collinearity_alpha=_field(config, "collinearity_alpha",
                                  _optional(float), "number", None),
        seed=_field(config, "seed", int, "integer", 0, seed_override),
    )


def cmd_generate(args) -> int:
    config = _load_config(args.config)
    gen = _gen_config(config, args.seed)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    truth, tensor = generate_dataset(gen)
    write_coo(tensor, outdir / "tensor.coo")
    save_model(truth, outdir / "truth_model.json")
    resolved = {
        "dims": list(gen.dims), "rank": gen.rank, "samples": gen.samples,
        "boost_fraction": gen.boost_fraction, "boost_scale": gen.boost_scale,
        "small_value": gen.small_value,
        "collinearity_alpha": gen.collinearity_alpha, "seed": gen.seed,
    }
    _write_manifest(outdir, "generate", resolved,
                    ["tensor.coo", "truth_model.json"])
    print(f"wrote {outdir / 'tensor.coo'}: dims={gen.dims} nnz={tensor.nnz} "
          f"density={tensor.density():.4%} total_count={tensor.total_count()}")
    return 0


def _fit_config(config: dict, args) -> tuple[FitConfig, dict]:
    method = args.method or config.get("method")
    if method is None:
        raise ConfigError("missing required config field 'method'")
    solver_cfg = config.get("solver") or {}
    if not isinstance(solver_cfg, dict):
        raise ConfigError("config field 'solver' must be an object")
    resolved = {
        "method": str(method).lower(),
        "rank": _field(config, "rank", int, "integer", override=args.rank),
        "tau": _field(config, "tau", float, "number", 1e-4, args.tau),
        "outer_max": _field(config, "outer_max", int, "integer", 200,
                            args.outer_max),
        "time_limit": _field(config, "time_limit", _optional(float), "number",
                             None, args.time_limit),
        "seed": _field(config, "seed", int, "integer", 0, args.seed),
        "mode1_only": bool(args.mode1_only or config.get("mode1_only", False)),
        "inner_iterations": _field(config, "inner_iterations", int,
                                   "integer", 10),
        "solver": solver_cfg,
    }
    solver = (_build(SolverParams, **{"tau": resolved["tau"], **solver_cfg})
              if solver_cfg else None)
    fit_config = _build(
        FitConfig,
        method=resolved["method"],
        rank=resolved["rank"],
        outer_max=resolved["outer_max"],
        tau=resolved["tau"],
        time_limit=resolved["time_limit"],
        solver=solver,
        mu=_build(MuParams, inner_iterations=resolved["inner_iterations"]),
        seed=resolved["seed"],
        modes=(1,) if resolved["mode1_only"] else None,
    )
    return fit_config, resolved


def cmd_factorize(args) -> int:
    config = _load_config(args.config)
    tensor_path = _field(config, "tensor", _path, "path", override=args.tensor)
    fit_config, resolved = _fit_config(config, args)
    resolved["tensor"] = tensor_path
    init = None
    init_path = _field(config, "init_model", _optional(_path), "path", None,
                       args.init_model)
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


def cmd_bench(args) -> int:
    config = _load_config(args.config)
    methods = _field(config, "methods", _method_list, "list of method names",
                     list(METHODS))
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r} in 'methods'")
    ranks = _field(config, "ranks", _int_list, "list of integers")
    seeds = _field(config, "seeds", _int_list, "list of integers")
    tau = _field(config, "tau", float, "number", 1e-4)
    outer_max = _field(config, "outer_max", int, "integer", 200)
    time_limit = _field(config, "time_limit", _optional(float), "number", None)
    mu = _build(MuParams,
                inner_iterations=_field(config, "inner_iterations", int,
                                        "integer", 10))
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for rank in ranks:
        for seed in seeds:
            gen = _gen_config({**config, "rank": rank}, seed)
            _, tensor = generate_dataset(gen)
            for method in methods:
                fc = _build(
                    FitConfig, method=method, rank=rank, outer_max=outer_max,
                    tau=tau, time_limit=time_limit, mu=mu, seed=seed,
                )
                result = fit(tensor, fc)
                last = result.trace.records[-1]
                rows.append({
                    "method": method,
                    "rank": rank,
                    "seed": seed,
                    "time_to_tau": f"{last.seconds:.3f}" if result.converged else "",
                    "final_objective": f"{last.objective:.17g}",
                    "exact_zeros": last.exact_zeros,
                    "converged": int(result.converged),
                })
                print(f"bench: method={method} rank={rank} seed={seed} "
                      f"converged={result.converged} "
                      f"objective={last.objective:.6g}")
    out = outdir / "bench.csv"
    with open(out, "w") as fh:
        fh.write("method,rank,seed,time_to_tau,final_objective,exact_zeros,converged\n")
        for row in rows:
            fh.write(",".join(str(row[k]) for k in (
                "method", "rank", "seed", "time_to_tau", "final_objective",
                "exact_zeros", "converged")) + "\n")
    resolved = {k: config.get(k) for k in sorted(config)}
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
