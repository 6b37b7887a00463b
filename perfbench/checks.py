"""Output checks against the reference values pinned in reference.json.

Every op's text output is parsed into rows and checked column by column.
The column kinds say how a value may legitimately move:

  det         closed-form or root-finding result: relative DET_RTOL
  end         as det, for a beta radius near its endpoint 1: relative
              ENDPOINT_RTOL, because these values pass through 1 - x in
              double precision (the pinned commit's own rounding costs up
              to 1.1e-5 relative, measured against the closed form)
  str / int   exact
  seed, n     equal the seed / sample size the op was given
  quad_log    deterministic oracle, log scale: absolute QUAD_TOL (a relative
              QUAD_TOL on the probability); loose enough for another
              integration algorithm, tight enough for a wrong constant
  quad_ratio  exp(prediction - oracle): relative QUAD_TOL
  mc_log      Monte Carlo log-probability: K_SE pinned relative standard errors
  mc_ratio    exp(prediction - Monte Carlo log): as mc_log
  mc_p        Monte Carlo probability with a reported standard error (next
              column but one): K_SE standard errors
  logp        log of the probability two columns to the left
  mc_se       a reported standard error: within a factor SE_FACTOR of the
              pinned one
  mc          Monte Carlo statistic without a reported error: K_PIN pinned
              across-seed standard deviations (wider than K_SE because that
              deviation is itself estimated from the pooled seeds)
  binom       block-maxima frequency over `replicates` blocks: K_SE
              binomial standard errors around the exact value

Reference Monte Carlo values are pooled over several seeds, so their own
error (sd / sqrt(pool)) is added in quadrature.  At tiny scale the sample
sizes shrink by TINY_DIVISOR and pinned errors grow by its square root.
"""

from __future__ import annotations

import json
import math
import os

DET_RTOL = 1e-11
ENDPOINT_RTOL = 1e-4
QUAD_TOL = 1e-5
K_SE = 5.0
K_PIN = 6.0
SE_FACTOR = 4.0

SCHEMAS = {
    "approx": ["det", "det", "det", "str"],
    "approx-endpoint": ["end", "end", "end", "str"],
    "var-es": ["det", "det", "det", "str"],
    "constants": ["int", "det", "det", "det", "det", "det"],
    "diagnose-analytic": ["det", "det"],
    "diagnose-endpoint": ["end", "end"],
    "norming": ["int", "det", "det"],
    "ratio-quadrature": ["det", "det", "det", "quad_log", "quad_ratio"],
    "ratio-quadrature-endpoint": ["end", "end", "end", "quad_log", "quad_ratio"],
    "ratio-conditional": ["det", "det", "det", "mc_log", "mc_ratio"],
    "simulate": ["det", "str", "n", "seed", "mc_p", "logp", "mc_se"],
    "diagnose-empirical": ["det", "det", "det", "mc", "det"],
    "maxstable": ["int", "det", "det", "mc"],
    "gumbel-limit": ["det", "binom", "det"],
    "max-sum": ["det", "mc", "mc", "mc"],
}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_output(text: str) -> tuple[list[str], list[list]]:
    """CSV text (optionally led by one '#' metadata line) -> header, rows.

    Cells that parse as numbers become floats; the rest stay strings.
    """
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty output")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = []
        for cell in ln.split(","):
            try:
                cells.append(float(cell))
            except ValueError:
                cells.append(cell)
        rows.append(cells)
    return header, rows


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


def check_output(op, text: str, ref: dict, tiny_divisor: float = 1.0) -> str:
    """'' when the output passes, otherwise a one-line reason."""
    try:
        header, rows = parse_output(text)
    except ValueError as exc:
        return f"unparseable output: {exc}"
    if header != ref["header"]:
        return f"header {header} != {ref['header']}"
    ref_rows = ref["rows"]
    want = len(ref_rows) if tiny_divisor == 1.0 else min(len(ref_rows), len(rows))
    if len(rows) != want or not rows:
        return f"{len(rows)} rows, expected {want}"
    kinds = SCHEMAS[op.check]
    sds = ref.get("sd")
    pool = ref.get("pool", 1)
    grow = math.sqrt(tiny_divisor)
    for i, row in enumerate(rows):
        if len(row) != len(kinds):
            return f"row {i}: {len(row)} columns, expected {len(kinds)}"
        for j, (kind, val) in enumerate(zip(kinds, row)):
            if isinstance(val, float) and not math.isfinite(val):
                return f"row {i} col {header[j]}: non-finite value {val}"
            want_val = ref_rows[i][j]
            sd = sds[i][j] * grow if sds and sds[i][j] is not None else None
            why = _check_cell(kind, val, want_val, sd, pool, row, j, op)
            if why:
                return f"row {i} col {header[j]}: {why}"
    return ""


def _check_cell(kind, val, ref, sd, pool, row, j, op) -> str:
    if kind == "str":
        return "" if val == ref else f"{val!r} != {ref!r}"
    if kind == "int":
        return "" if int(val) == int(ref) else f"{val} != {ref}"
    if kind in ("seed", "n"):
        given = op.config[kind]
        return "" if int(val) == given else f"{kind} {val} != {given}"
    if not isinstance(val, float):
        return f"non-numeric value {val!r}"
    if kind == "det":
        return "" if _rel_close(val, ref, DET_RTOL) else f"{val!r} != {ref!r} (rtol {DET_RTOL})"
    if kind == "end":
        return "" if _rel_close(val, ref, ENDPOINT_RTOL) else f"{val!r} != {ref!r} (rtol {ENDPOINT_RTOL})"
    if kind == "quad_log":
        return "" if abs(val - ref) <= QUAD_TOL else f"{val!r} != {ref!r} (atol {QUAD_TOL})"
    if kind == "quad_ratio":
        return "" if _rel_close(val, ref, QUAD_TOL) else f"{val!r} != {ref!r} (rtol {QUAD_TOL})"
    if kind in ("mc_log", "mc_ratio", "mc"):
        tol = (K_PIN if kind == "mc" else K_SE) * sd * math.sqrt(1.0 + 1.0 / pool)
        if kind == "mc_ratio":
            if not val > 0:
                return f"ratio {val} is not positive"
            dev = abs(math.log(val) - math.log(ref))
        else:
            dev = abs(val - ref)
        return "" if dev <= tol else f"{val!r} is {dev:.3g} from {ref!r} (tol {tol:.3g})"
    if kind == "mc_p":
        reported = row[j + 2]
        tol = K_SE * math.hypot(max(reported, sd), sd / math.sqrt(pool))
        dev = abs(val - ref)
        return "" if dev <= tol else f"{val!r} is {dev:.3g} from {ref!r} (tol {tol:.3g})"
    if kind == "logp":
        p_hat = row[j - 1]
        if not p_hat > 0:
            return f"log of non-positive probability {p_hat}"
        return "" if _rel_close(val, math.log(p_hat), 1e-12) else f"{val!r} != log({p_hat!r})"
    if kind == "mc_se":
        if not sd / SE_FACTOR <= val <= sd * SE_FACTOR:
            return f"standard error {val!r} outside x{SE_FACTOR} of {sd!r}"
        return ""
    if kind == "binom":
        reps = op.config["replicates"]
        tol = K_SE * math.sqrt(ref * (1.0 - ref) / reps) + 0.5 / reps
        dev = abs(val - ref)
        return "" if dev <= tol else f"{val!r} is {dev:.3g} from {ref!r} (tol {tol:.3g})"
    raise ValueError(f"unknown column kind {kind!r}")
