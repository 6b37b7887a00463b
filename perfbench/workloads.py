"""The benchmark's three workloads, as lists of ops on the public surface.

Each op is one call into dirtail: either ``dirtail.cli.main([...])`` with a
generated JSON config, or a direct library call for the three public
functions the CLI does not expose (``gumbel_limit_check``,
``max_sum_ratio`` and ``norming_constants``).  An op's output is the text it produced (the CLI's
CSV, or the library result formatted the same way), so that passes can be
compared byte for byte and checked row by row against ``reference.json``.

``scale="tiny"`` keeps every op but cuts it down: the first depth, level or
grid entry only, and Monte Carlo sample sizes divided by 100.  The warm-up
pass and the self-test use it.  Quadrature ops with a single depth (the
d = 3 cases Q4 and Q5) keep their full cost there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

M1_DEPTHS = [1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14]
#: M1's thresholds at depths 1e-4, 1e-8 and 1e-12, rounded
M8_THRESHOLDS = [4.8, 6.3, 7.5]
VAR_LEVELS = [0.99, 0.999, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8]
NORMING_NS = [10**2, 10**3, 10**4, 10**5, 10**6]

#: Monte Carlo sample sizes are divided by this at tiny scale
TINY_DIVISOR = 100

WORKLOADS = ("mc-oracle", "quadrature", "asymptotics")


def gamma(shape, rate=1.0):
    return {"family": "gamma", "params": {"shape": shape, "rate": rate}}


def weibulltail(index, scale=1.0):
    return {"family": "weibulltail", "params": {"index": index, "scale": scale}}


def beta(a, b):
    return {"family": "beta", "params": {"a": a, "b": b}}


def unitgumbel(kappa):
    return {"family": "unitgumbel", "params": {"kappa": kappa}}


def spec(alpha, lam, p, radial):
    return {"alpha": list(alpha), "lambda": list(lam), "p": p, "radial": radial}


M1_SPEC = spec([1, 1, 1], [1, 0.7, 0.4], 0.5, gamma(3, 1))
Q8_SPEC = spec([1, 2], [1, 0.5], 1.0, beta(2, 3))


def with_p(base, p, radial=None):
    out = dict(base, p=p)
    if radial is not None:
        out["radial"] = radial
    return out


@dataclass
class Op:
    """One call into dirtail.

    ``kind`` is "cli" (``cli.main([command, ...])`` with ``config``) or "lib"
    (the ``montecarlo`` function named ``command``).  ``check`` names the
    column schema in ``checks.SCHEMAS`` used to validate the output.
    ``takes_seed`` marks ops whose config carries a seed derived from the
    workload seed.
    """

    name: str
    kind: str
    command: str
    config: dict
    check: str
    workers: int = 1
    takes_seed: bool = False


def derive_seed(seed: int, name: str) -> int:
    """Per-op seed derived from the workload seed; stable across runs."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ----------------------------------------------------------------------
# op lists at full scale
# ----------------------------------------------------------------------

def _mc_oracle_ops() -> list[Op]:
    return [
        Op("M1", "cli", "ratio", dict(M1_SPEC, depths=M1_DEPTHS, n=10**6, oracle="conditional"),
           "ratio-conditional", workers=2, takes_seed=True),
        Op("M2", "cli", "simulate", dict(M1_SPEC, depths=[1e-2, 1e-3, 1e-4], n=10**6,
                                         method="crude"),
           "simulate", workers=2, takes_seed=True),
        Op("M3", "cli", "diagnose-mda", dict(M1_SPEC, mode="empirical", n=10**6),
           "diagnose-empirical", workers=2, takes_seed=True),
        Op("M4", "cli", "maxstable", dict(spec([1, 1], [1, 1], 2.0, gamma(2, 1)),
                                          weights=[[1, 0], [0, 1]], n_grid=[100, 1000, 10000],
                                          n=10**6),
           "maxstable", workers=2, takes_seed=True),
        Op("M5", "lib", "gumbel_limit_check",
           dict(spec([1], [1], 1.0, gamma(1, 1)), n=10**4, replicates=500, x=[-1.0, 0.0, 2.0]),
           "gumbel-limit", takes_seed=True),
        Op("M6", "cli", "simulate", dict(spec([1, 2, 0.5, 1], [1, 1, 0.6, 0.3], 2.0,
                                              weibulltail(2, 1)),
                                         depths=[1e-6, 1e-10, 1e-14], n=10**6,
                                         method="conditional"),
           "simulate", workers=2, takes_seed=True),
        Op("M7", "cli", "simulate", dict(spec([0.001, 0.001], [1, 0.5], 2.0, gamma(3, 1)),
                                         thresholds=[30.0], n=10**5, method="conditional"),
           "simulate", workers=2, takes_seed=True),
        Op("M8", "lib", "max_sum_ratio", dict(M1_SPEC, thresholds=M8_THRESHOLDS, n=10**6),
           "max-sum", takes_seed=True),
    ]


def _quadrature_ops() -> list[Op]:
    def q(name, base, depths):
        check = "ratio-quadrature" + ("-endpoint" if base["radial"]["family"] == "beta" else "")
        return Op(name, "cli", "ratio", dict(base, depths=depths, oracle="quadrature"), check)

    return [
        q("Q1", spec([1, 1], [1, 1], 2.0, gamma(2, 1)), [1e-4, 1e-8, 1e-12]),
        q("Q2", spec([1, 1], [1, 1], 0.5, gamma(2, 1)), [1e-6, 1e-10]),
        q("Q3", spec([1, 1], [1, 0.5], 0.5, gamma(3, 1)), M1_DEPTHS),
        q("Q4", spec([1, 1, 1], [1, 1, 1], 0.5, gamma(3, 1)), [1e-8]),
        q("Q5", spec([2, 1, 0.5], [1, 0.8, 0.6], 0.4, gamma(3, 1)), [1e-8]),
        q("Q6", with_p(M1_SPEC, 2.0), [1e-12]),
        q("Q7", with_p(M1_SPEC, 1.0), [1e-8]),
        q("Q8a", Q8_SPEC, [1e-4, 1e-8]),
        q("Q8b", Q8_SPEC, [1e-12]),
    ]


#: the ten asymptotics specs: (name, spec, regime)
ASYMPTOTIC_SPECS = [
    ("a1", with_p(M1_SPEC, 2.0), "a"),
    ("a2", spec([1, 2, 0.5, 1, 3], [1, 1, 0.6, 0.3, 0.1], 1.5, weibulltail(1.5, 1)), "a"),
    ("a3", spec([1, 2], [1, 0.5], 3.0, unitgumbel(1)), "a"),
    ("b1", with_p(M1_SPEC, 1.0), "b"),
    ("b2", spec([1, 2, 0.5, 1], [1, 1, 0.5, 0.2], 1.0, weibulltail(0.5, 1)), "b"),
    ("c1", spec([0.5, 1, 1.5, 2, 0.7, 1.2, 3, 1], [1, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3], 0.5,
                gamma(3, 1)), "c"),
    ("c2", spec([1, 2, 0.5, 1, 3], [1, 0.8, 0.6, 0.3, 0.1], 0.3, weibulltail(2, 0.5)), "c"),
    ("c3", with_p(M1_SPEC, 0.7, unitgumbel(2)), "c"),
    ("e1", Q8_SPEC, "endpoint"),
    ("e2", spec([1, 2, 0.5, 1], [1, 1, 0.5, 0.2], 1.0, beta(1, 0.5)), "endpoint"),
]


def _asymptotics_ops() -> list[Op]:
    ops = []
    for name, base, regime in ASYMPTOTIC_SPECS:
        family = base["radial"]["family"]
        gumbel_class = family != "beta"
        infinite_endpoint = family in ("gamma", "weibulltail")
        ops.append(Op(f"{name}.approx", "cli", "approx", dict(base, depths=M1_DEPTHS),
                      "approx" if gumbel_class else "approx-endpoint"))
        if gumbel_class and infinite_endpoint:
            ops.append(Op(f"{name}.var-es", "cli", "var-es", dict(base, levels=VAR_LEVELS),
                          "var-es"))
        if regime == "c":
            ops.append(Op(f"{name}.constants", "cli", "constants", dict(base), "constants"))
        if gumbel_class:
            ops.append(Op(f"{name}.gumbel_ratio", "cli", "diagnose-mda",
                          dict(base, mode="gumbel_ratio", x=1.0), "diagnose-analytic"))
            ops.append(Op(f"{name}.davis_resnick", "cli", "diagnose-mda",
                          dict(base, mode="davis_resnick", mu=1.0, c=2.0), "diagnose-analytic"))
            ops.append(Op(f"{name}.norming", "lib", "norming_constants",
                          dict(base, ns=NORMING_NS), "norming"))
        else:
            ops.append(Op(f"{name}.weibull_ratio", "cli", "diagnose-mda",
                          dict(base, mode="weibull_ratio", t=2.0), "diagnose-endpoint"))
    ops.append(Op("p0.999999.approx", "cli", "approx",
                  dict(with_p(M1_SPEC, 0.999999), depths=M1_DEPTHS), "approx"))
    return ops


_BUILDERS = {
    "mc-oracle": _mc_oracle_ops,
    "quadrature": _quadrature_ops,
    "asymptotics": _asymptotics_ops,
}


def _shrink(op: Op) -> Op:
    cfg = dict(op.config)
    for key in ("depths", "levels", "n_grid", "ns", "thresholds"):
        if key in cfg:
            cfg[key] = cfg[key][:1]
    if op.command == "gumbel_limit_check":
        # n is the block size here; fewer blocks keep the norming constants
        cfg["replicates"] = max(1, cfg["replicates"] // 10)
    elif "n" in cfg:
        cfg["n"] = max(1, cfg["n"] // TINY_DIVISOR)
    return Op(op.name, op.kind, op.command, cfg, op.check, op.workers, op.takes_seed)


def build_ops(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The workload's ops, with per-op seeds derived from ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    ops = _BUILDERS[workload]()
    if scale == "tiny":
        ops = [_shrink(op) for op in ops]
    elif scale != "full":
        raise ValueError(f"scale must be 'full' or 'tiny', got {scale!r}")
    for op in ops:
        if op.takes_seed:
            op.config["seed"] = derive_seed(seed, op.name)
    return ops


def write_configs(ops: list[Op], directory: str) -> dict[str, str]:
    """Write each CLI op's config as JSON; returns op name -> path."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for op in ops:
        if op.kind != "cli":
            continue
        path = os.path.join(directory, f"{op.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op.config, fh, sort_keys=True)
        paths[op.name] = path
    return paths


# ----------------------------------------------------------------------
# running one op
# ----------------------------------------------------------------------

@dataclass
class OpResult:
    name: str
    ok: bool          # completed with exit code 0
    output: str       # the op's text output ("" on failure)
    error: str = ""   # error type, e.g. "ValueError" or "exit 2"
    detail: str = ""  # last line of the error message


def _fmt(v) -> str:
    return f"{float(v):.16e}"


def _run_library(op: Op) -> str:
    # attribute lookups happen at call time, so traced wrappers are seen
    import dirtail.aggtail
    import dirtail.montecarlo
    import dirtail.radial

    cfg = op.config
    sp = dirtail.aggtail.validate_spec(cfg["alpha"], cfg["lambda"], cfg["p"],
                                       dirtail.radial.RadialModel.from_json(cfg["radial"]))
    if op.command == "gumbel_limit_check":
        table = dirtail.montecarlo.gumbel_limit_check(sp, cfg["n"], cfg["replicates"],
                                                      cfg["x"], cfg["seed"])
        lines = ["x,empirical,limit"] + [",".join(_fmt(v) for v in row) for row in table]
    elif op.command == "max_sum_ratio":
        table = dirtail.montecarlo.max_sum_ratio(sp, cfg["thresholds"], cfg["n"], cfg["seed"])
        lines = ["t,log_max,log_sum,ratio"] + [",".join(_fmt(v) for v in row) for row in table]
    else:
        lines = ["n,b_n,a_n"]
        for n in cfg["ns"]:
            consts = dirtail.montecarlo.norming_constants(sp, n)
            lines.append(f"{n},{_fmt(consts.b_n)},{_fmt(consts.a_n)}")
    return "\n".join(lines) + "\n"


def run_op(op: Op, config_paths: dict[str, str], workers: int | None = None) -> OpResult:
    """Run one op in-process and capture its output.

    cli.main maps DirtailError to exit codes but lets any other exception
    escape, so every exception is caught here and counted as a failed op.
    """
    import dirtail.cli

    out, err = io.StringIO(), io.StringIO()
    text = ""
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.kind == "cli":
                argv = [op.command, "--config", config_paths[op.name],
                        "--workers", str(op.workers if workers is None else workers)]
                code = dirtail.cli.main(argv)
                text = out.getvalue()
            else:
                code, text = 0, _run_library(op)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - the benchmark counts every failure
        return OpResult(op.name, False, "", type(exc).__name__, _last_line(str(exc)))
    if code != 0:
        return OpResult(op.name, False, "", f"exit {code}", _last_line(err.getvalue()))
    return OpResult(op.name, True, text)


def _last_line(text: str) -> str:
    # warnings may precede the error message on stderr
    lines = text.strip().splitlines()
    return lines[-1][:200] if lines else ""
