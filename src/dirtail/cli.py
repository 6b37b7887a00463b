"""Command-line front end.

One command per invocation, a JSON config in, a flat CSV or JSON table
out.  Output is data-only: columns are chosen so that one external plot
command can reproduce any ratio-convergence figure.  All randomized
commands require an explicit seed (config key or --seed); there is no
wall-clock seeding, and --workers must never change a result.

Exit codes: 0 success, 2 validation/config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, aggtail, montecarlo
from .errors import DirtailError, NumericError, ValidationError
from .radial import RadialModel, mda_diagnostic

_COMMON_KEYS = {"alpha", "lambda", "p", "radial", "seed", "out", "format"}


#: how deep in lists each numeric config key holds its finite numbers
_NUMERIC_DEPTH = {**dict.fromkeys(("p", "n", "x", "t", "mu", "c"), 0),
                  **dict.fromkeys(("alpha", "lambda", "thresholds", "depths", "levels", "x_grid",
                                   "n_grid", "pair"), 1), "weights": 2}
#: numeric keys that count samples or levels or name columns: whole numbers only
_WHOLE_KEYS = ("n", "n_grid", "pair")


def _is_numeric(v, depth: int) -> bool:
    if depth:
        return type(v) is list and all(_is_numeric(x, depth - 1) for x in v)
    return type(v) is int or type(v) is float and math.isfinite(v)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return cfg


def _check_keys(command: str, cfg: dict) -> None:
    allowed = _COMMON_KEYS | _COMMANDS[command][1]
    unknown = set(cfg) - allowed
    if unknown:
        raise ValidationError(
            f"unknown config keys for '{command}': {sorted(unknown)}; allowed: {sorted(allowed)}")
    for key, depth in _NUMERIC_DEPTH.items():
        if key in cfg and not _is_numeric(cfg[key], depth):
            kind = ("a finite number", "a list of finite numbers", "a list of lists of them")[depth]
            raise ValidationError(f"config key '{key}' must be {kind}, got {cfg[key]!r}")
    for key in _WHOLE_KEYS:
        # integral floats such as 1e6 are whole numbers too
        if key in cfg and not all(float(v).is_integer() for v in np.ravel(cfg[key])):
            raise ValidationError(f"config key '{key}' must hold whole numbers, got {cfg[key]!r}")


def _build_spec(cfg: dict) -> aggtail.AggregateSpec:
    for key in ("alpha", "lambda", "p", "radial"):
        if key not in cfg:
            raise ValidationError(f"config is missing required key '{key}'")
    radial = RadialModel.from_json(cfg["radial"])
    return aggtail.validate_spec(cfg["alpha"], cfg["lambda"], cfg["p"], radial)


def _spec_hash(cfg: dict) -> str:
    core = {k: cfg.get(k) for k in ("alpha", "lambda", "p", "radial")}
    blob = json.dumps(core, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _thresholds_from_config(cfg: dict, asym) -> list[float]:
    if "thresholds" in cfg and "depths" in cfg:
        raise ValidationError("give either 'thresholds' or 'depths', not both")
    if "thresholds" in cfg:
        return [float(t) for t in cfg["thresholds"]]
    depths = cfg.get("depths", [1e-6, 1e-8, 1e-10])
    for depth in depths:
        if not 0 < depth < 1:
            raise ValidationError(f"depths must lie in (0, 1), got {depth}")
    return [asym.threshold_at_depth(depth) for depth in depths]


# ----------------------------------------------------------------------
# command implementations: each returns (header, rows)
# ----------------------------------------------------------------------

def _cmd_approx(cfg, spec, seed, workers):
    asym = aggtail.tail_asymptotic(spec)
    header = ["threshold", "depth", "prediction_log", "regime"]
    rows = [[t, asym.depth_at(t), asym.evaluate_log(t), asym.regime]
            for t in _thresholds_from_config(cfg, asym)]
    return header, rows


def _estimates(cfg, key, methods, spec, thresholds, seed, workers) -> list:
    """One estimate of P(S_p > t) per threshold, by the method named in cfg[key],
    from one call for all of them."""
    method = cfg.get(key, "conditional")
    if method not in methods:
        raise ValidationError(f"{key} must be one of {', '.join(methods)}, got {method!r}")
    if method == "quadrature":
        return montecarlo.quadrature_tail(spec, thresholds)
    if seed is None:
        raise ValidationError(f"the {method} {key} needs an explicit seed (config key or --seed)")
    estimator = montecarlo.crude_mc_tail if method == "crude" else montecarlo.conditional_mc_tail
    return estimator(spec, thresholds, int(cfg.get("n", 10**5)), seed, workers=workers)


def _cmd_simulate(cfg, spec, seed, workers):
    # explicit thresholds need no asymptotic: the oracles cover specs that none covers
    asym = None if "thresholds" in cfg else aggtail.tail_asymptotic(spec)
    thresholds = _thresholds_from_config(cfg, asym)
    ests = _estimates(cfg, "method", ("conditional", "crude"), spec, thresholds, seed, workers)
    header = ["threshold", "method", "n", "seed", "p_hat", "log_p_hat", "stderr"]
    return header, [[t, e.method, e.n, e.seed, e.p_hat, e.log_p_hat, e.stderr]
                    for t, e in zip(thresholds, ests)]


def _cmd_ratio(cfg, spec, seed, workers):
    asym = aggtail.tail_asymptotic(spec)
    thresholds = _thresholds_from_config(cfg, asym)
    ests = _estimates(cfg, "oracle", ("conditional", "crude", "quadrature"), spec, thresholds,
                      seed, workers)
    header = ["threshold", "depth", "prediction_log", "oracle_log", "ratio"]
    preds = [asym.evaluate_log(t) for t in thresholds]
    return header, [[t, asym.depth_at(t), pred, e.log_p_hat, math.exp(pred - e.log_p_hat)]
                    for t, pred, e in zip(thresholds, preds, ests)]


def _cmd_var_es(cfg, spec, seed, workers):
    levels = cfg.get("levels", [0.99, 0.999, 0.9999])
    header = ["level", "var", "es_minus_var", "accuracy_warning"]
    rows = []
    for b in levels:
        res = aggtail.var_es_asymptotic(spec, float(b))
        rows.append([float(b), res.var, res.es_minus_var, res.accuracy_warning])
    return header, rows


def _cmd_diagnose_mda(cfg, spec, seed, workers):
    mode = cfg.get("mode")
    if mode is None:
        raise ValidationError("'diagnose-mda' needs a 'mode'")
    if mode == "empirical":
        if seed is None:
            raise ValidationError("'diagnose-mda' in empirical mode needs an explicit seed")
        x_grid = cfg.get("x_grid", [0.5, 1.0, 2.0])
        depths = cfg.get("depths", [1e-4, 1e-6, 1e-8])
        n = int(cfg.get("n", 10**5))
        table = montecarlo.empirical_gumbel_mda(spec, x_grid, depths, n, seed, workers=workers)
        header = ["depth", "v", "x", "ratio", "reference"]
        return header, [list(row) for row in table]
    params = {key: cfg[key] for key in ("x", "t", "mu", "c", "depths") if key in cfg}
    table = mda_diagnostic(spec.radial, mode, params)
    header = ["u", "ratio"]
    return header, [list(row) for row in table]


def _cmd_maxstable(cfg, spec, seed, workers):
    if seed is None:
        raise ValidationError("'maxstable' needs an explicit seed")
    if "weights" not in cfg:
        raise ValidationError("'maxstable' needs a 'weights' matrix")
    weights = cfg["weights"]
    pair = cfg.get("pair", [0, 1])
    if len(pair) != 2:
        raise ValidationError(f"'pair' must be two column indices, got {pair}")
    n_grid = [int(v) for v in cfg.get("n_grid", [100, 1000, 10000])]
    n = int(cfg.get("n", 10**5))
    i, j = int(pair[0]), int(pair[1])
    # weight rows follow the config's alpha order, not the spec's sorted one
    table = montecarlo.pairwise_asymindep(cfg["alpha"], weights, spec.p, spec.radial,
                                          i, j, n_grid, n, seed, workers=workers)
    header = ["n_level", "b_n", "a_n", "pair_ratio"]
    return header, [[int(n_level), b, a, ratio] for n_level, b, a, ratio in table.tolist()]


def _cmd_constants(cfg, spec, seed, workers):
    geom = aggtail.simplex_constant_recursion(spec)
    header = ["k", "lambda_tilde", "theta", "curvature", "c_tilde", "rv_index"]
    # near p = 1 the saddle data leave the double range; log K (approx) stays finite
    for name, col in zip(header[1:5], (geom.lambda_tilde, geom.theta, geom.curvature,
                                       geom.c_tilde)):
        if not all(0.0 < v < math.inf for v in col):
            raise NumericError(f"column {name} rounds to 0 or inf at p={spec.p}: {col}")
    rows = []
    for k in range(2, geom.d + 1):
        rows.append([k, geom.lambda_tilde[k - 1], geom.theta[k - 2], geom.curvature[k - 2],
                     geom.c_tilde[k - 2], geom.rv_index[k - 2]])
    return header, rows


#: command -> (its implementation, the config keys it takes beyond _COMMON_KEYS)
_COMMANDS = {
    "approx": (_cmd_approx, {"thresholds", "depths"}),
    "simulate": (_cmd_simulate, {"thresholds", "depths", "n", "method"}),
    "ratio": (_cmd_ratio, {"depths", "n", "oracle"}),
    "var-es": (_cmd_var_es, {"levels"}),
    "diagnose-mda": (_cmd_diagnose_mda, {"mode", "x", "t", "mu", "c", "x_grid", "depths", "n"}),
    "maxstable": (_cmd_maxstable, {"weights", "pair", "n_grid", "n"}),
    "constants": (_cmd_constants, set()),
}


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        # 17 significant digits: enough to round-trip any double exactly
        return f"{float(v):.16e}"
    return str(v)


def _emit(out_path, fmt, command, cfg, seed, header, rows):
    meta = (f"# dirtail={__version__} command={command} "
            f"seed={'none' if seed is None else seed} spec_sha256={_spec_hash(cfg)}")
    if fmt == "csv":
        lines = [meta, ",".join(header)]
        lines += [",".join(_fmt_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        doc = {"meta": {"dirtail": __version__, "command": command,
                        "seed": seed, "spec_sha256": _spec_hash(cfg)},
               "columns": header,
               "rows": [[(v if not isinstance(v, (np.integer, np.floating)) else v.item())
                         for v in row] for row in rows]}
        text = json.dumps(doc, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def run(command: str, cfg: dict, seed=None, workers: int | None = None,
        out_path=None, fmt=None, dump_config=None) -> int:
    """Execute one command against a parsed config; returns the exit code."""
    if command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    _check_keys(command, cfg)
    if seed is None:
        seed = cfg.get("seed")
    if seed is not None:
        seed = montecarlo._check_seed(seed)
    workers = montecarlo._check_workers(workers)  # every command, sampling or not
    fmt = fmt or cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {fmt!r}")
    out_path = out_path or cfg.get("out")
    if not isinstance(out_path, (str, type(None))):
        raise ValidationError(f"config key 'out' must be a path, got {out_path!r}")
    spec = _build_spec(cfg)

    if dump_config is not None:
        resolved = dict(cfg)
        if seed is not None:
            resolved["seed"] = seed
        resolved.setdefault("format", fmt)
        with open(dump_config, "w", encoding="utf-8") as fh:
            json.dump(resolved, fh, indent=2, sort_keys=True)
            fh.write("\n")

    header, rows = _COMMANDS[command][0](cfg, spec, seed, workers)
    _emit(out_path, fmt, command, cfg, seed, header, rows)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dirtail",
        description="Tail asymptotics of aggregated Dirichlet risks, with oracles.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=None, help="output path (default: stdout or config 'out')")
    parser.add_argument("--format", default=None, choices=["csv", "json"])
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker threads for sampling (default: the CPUs this process "
                             "may run on); never changes results")
    parser.add_argument("--dump-config", default=None,
                        help="write the fully resolved config to this path before running")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _load_config(args.config)
        return run(args.command, cfg, seed=args.seed, workers=args.workers,
                   out_path=args.out, fmt=args.format, dump_config=args.dump_config)
    except ArithmeticError as exc:  # NumericError, or numpy's and scipy's own
        print(f"dirtail: numeric failure: {exc}", file=sys.stderr)
        return 3
    except DirtailError as exc:
        print(f"dirtail: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
