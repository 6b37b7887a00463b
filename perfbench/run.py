#!/usr/bin/env python3
"""dirtail benchmark: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload mc-oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (setup_s, wall_ref_s, peak_rss_mb); with
``--trace 1`` a separate traced run reports the per-layer ones
(``PER_LAYER``).  The lines
before it are a human-readable summary and a ``report`` JSON line carrying
the environment stamp, the pass walls and every failed op by name and
error type.

A run is: setup probes (``SETUP_PROBES`` fresh processes, each importing
dirtail and generating the configs), an in-process setup, one warm-up pass
at tiny scale, then the measured passes.  Passes repeat while the next one
is expected to end within ``--seconds``, with at least ``MIN_PASSES``.  With
``--trace 1`` they come in untraced/traced pairs, alternating which side
runs first, followed by ``MIN_PASSES`` pairs of the first op at 1 and 2
workers; the traced run may therefore take longer than ``--seconds``.  The
first pass's outputs are checked against ``reference.json``; every later
pass must reproduce them byte for byte.

The untraced passes are bracketed by host probes (``host_probe``, a fixed
kernel that does not touch dirtail).  ``wall_ref_s`` scales each pass wall
by ``REF_PROBE_S`` over the mean of the probes either side of it, because
this host's CPU speed drifts by about 20 % over minutes; the raw pass walls
(``wall_s``) and the probes are printed and kept in the report.

An op that raises, exits non-zero or fails its output check counts in
``failed``.  ``correct`` is false only if some op produced a wrong output
(a failed check, a changed byte, or different bytes at 1 and 2 workers);
an op that fails loudly is a failure, not a wrong answer.

Only BLAS/OpenMP threads are pinned to 1 here, so the ops' own ``--workers``
threads are the only concurrency.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
HOST_PROBE_REPEATS = 3
#: host_probe() on the reference machine (2 vCPUs, Python 3.11.7, numpy
#: 2.4.6, scipy 1.17.1): wall_ref_s is in seconds at this host speed
REF_PROBE_S = 0.0367
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60

#: (metric, unit, span name, statistic); statistic is read from the trace
#: summary, except the ones the traced run measures itself
PER_LAYER = [
    ("radial.log_survival.vec.self_s", "s", "radial.log_survival.vec", "self_s"),
    ("radial.log_survival.vec.elems", "count", "radial.log_survival.vec", "elems"),
    ("radial.log_survival.vec.ns_per_elem", "ns", "radial.log_survival.vec", "ns_per_elem"),
    ("radial.log_survival.scalar.calls", "count", "radial.log_survival.scalar", "calls"),
    ("radial.log_survival.scalar.us_per_call", "us", "radial.log_survival.scalar", "us_per_call"),
    ("radial.quantile_survival.vec.elems", "count", "radial.quantile_survival.vec", "elems"),
    ("radial.quantile_survival.vec.ns_per_elem", "ns", "radial.quantile_survival.vec",
     "ns_per_elem"),
    ("radial.quantile_survival.scalar.calls", "count", "radial.quantile_survival.scalar", "calls"),
    ("specfun.log_regularized_gamma_upper.self_s", "s", "specfun.log_regularized_gamma_upper",
     "self_s"),
    ("specfun.log_regularized_gamma_upper.calls", "count", "specfun.log_regularized_gamma_upper",
     "calls"),
    ("specfun.log_beta_survival.self_s", "s", "specfun.log_beta_survival", "self_s"),
    ("specfun.log_beta_survival.calls", "count", "specfun.log_beta_survival", "calls"),
    ("specfun.logsumexp.self_s", "s", "specfun.logsumexp", "self_s"),
    ("specfun.logsumexp.calls", "count", "specfun.logsumexp", "calls"),
] + [
    (f"montecarlo.{fn}.self_s", "s", f"montecarlo.{fn}", "self_s")
    for fn in ("conditional_mc_tail", "crude_mc_tail", "max_sum_ratio", "empirical_gumbel_mda",
               "pairwise_asymindep", "gumbel_limit_check")
] + [
    ("montecarlo.speedup_w2", "x", None, "speedup_w2"),
    ("montecarlo.quadrature_tail.self_s", "s", "montecarlo.quadrature_tail", "self_s"),
    ("montecarlo.quadrature_tail.calls", "count", "montecarlo.quadrature_tail", "calls"),
    ("aggtail.TailAsymptotic.invert.self_s", "s", "aggtail.TailAsymptotic.invert", "self_s"),
    ("aggtail.TailAsymptotic.invert.calls", "count", "aggtail.TailAsymptotic.invert", "calls"),
    ("aggtail.TailAsymptotic.invert.us_per_call", "us", "aggtail.TailAsymptotic.invert",
     "us_per_call"),
    ("aggtail.TailAsymptotic.evaluate_log.calls", "count", "aggtail.TailAsymptotic.evaluate_log",
     "calls"),
    ("aggtail.tail_asymptotic.self_s", "s", "aggtail.tail_asymptotic", "self_s"),
    ("aggtail.tail_asymptotic.calls", "count", "aggtail.tail_asymptotic", "calls"),
    ("aggtail.var_es_asymptotic.calls", "count", "aggtail.var_es_asymptotic", "calls"),
    ("producttail.saddle_geometry.self_s", "s", "producttail.saddle_geometry", "self_s"),
    ("producttail.saddle_geometry.calls", "count", "producttail.saddle_geometry", "calls"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("cli.main.calls", "count", "cli.main", "calls"),
    ("trace.overhead_s", "s", None, "overhead_s"),
    ("error_rate", "fraction", None, "error_rate"),
]


# ----------------------------------------------------------------------
# environment and setup
# ----------------------------------------------------------------------

def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import dirtail from the checkout's src/ and nothing else."""
    init = os.path.join(SRC, "dirtail", "__init__.py")
    if not os.path.isfile(init):
        fail(f"no dirtail sources under {SRC}; run from the root of a dirtail checkout")
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import dirtail
    import dirtail.cli  # noqa: F401 - part of the public surface every op uses

    if os.path.realpath(dirtail.__file__) != os.path.realpath(init):
        fail(f"imported dirtail from {dirtail.__file__}, not from {SRC}")
    return dirtail


def setup(workload: str, seed: int, scale: str, workdir: str):
    """Import dirtail and generate the workload's configs."""
    import_program()
    ops = workloads.build_ops(workload, seed, scale)
    paths = workloads.write_configs(ops, workdir)
    return ops, paths


def probe_setup(workload: str, seed: int, index: int) -> float:
    """Seconds from spawning a fresh process until its setup is done."""
    workdir = os.path.join(WORK_ROOT, f"probe-{os.getpid()}-{index}")
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    start = time.time()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        fail(f"setup probe failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1]) - start


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ----------------------------------------------------------------------
# passes and accounting
# ----------------------------------------------------------------------

class Ledger:
    """Counts attempted and failed ops and keeps the first pass's bytes."""

    def __init__(self, reference: dict, tiny_divisor: float):
        self.reference = reference
        self.tiny_divisor = tiny_divisor
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.failures = {}   # op name -> {"error", "detail", "count"}
        self.wrong = []      # descriptions of wrong outputs

    def record(self, op, result) -> None:
        self.attempted += 1
        if not result.ok:
            self._fail(op.name, result.error, result.detail)
            return
        if op.name not in self.first:
            self.first[op.name] = result.output
            why = checks.check_output(op, result.output, self.reference[op.name],
                                      self.tiny_divisor)
        elif result.output != self.first[op.name]:
            why = "output bytes differ from the first pass"
        else:
            why = ""
        if why:
            self._fail(op.name, "wrong output", why)
            self.wrong.append(f"{op.name}: {why}")

    def record_identity(self, name: str, a: str, b: str) -> None:
        """An extra op: two outputs that must be identical bytes."""
        self.attempted += 1
        if a != b:
            why = "outputs at 1 and 2 workers differ"
            self._fail(name, "wrong output", why)
            self.wrong.append(f"{name}: {why}")

    def _fail(self, name, error, detail) -> None:
        self.failed += 1
        entry = self.failures.setdefault(name, {"error": error, "detail": detail, "count": 0})
        entry["count"] += 1

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_pass(ops, paths, tracer=None):
    """One pass over the ops; returns (wall seconds, results)."""
    results = []
    start = time.perf_counter()
    if tracer is None:
        for op in ops:
            results.append(workloads.run_op(op, paths))
    else:
        def body():
            for op in ops:
                results.append(tracer.span(f"bench.op.{op.name}", workloads.run_op, op, paths))
        tracer.span("bench.pass", body)
    return time.perf_counter() - start, results


def traced_pass(ops, paths):
    """One pass with every public function wrapped; returns (wall, results, tracer)."""
    import spans  # imports numpy, so only after pin_threads()

    tracer = spans.Tracer()
    tracer.install()
    try:
        wall, results = run_pass(ops, paths, tracer)
    finally:
        tracer.remove()
    return wall, results, tracer


def host_probe() -> float:
    """Seconds for a fixed mix of interpreter, scipy-callback and numpy work
    that does not touch dirtail: how fast the host runs right now.

    Median of HOST_PROBE_REPEATS timings.
    """
    from scipy import integrate, special
    import numpy as np

    times = []
    for _ in range(HOST_PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        integrate.quad(lambda x: math.exp(-x) * x ** 1.5 / (1.0 + x * x), 0.0, 50.0, limit=200)
        grid = np.linspace(0.1, 30.0, 20_000)  # small, so peak_rss_mb stays the ops'
        for _ in range(10):
            special.gammaincc(3.0, grid)
            np.log(grid)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def wall_at_ref_speed(walls, probes) -> list[float]:
    """Each pass wall scaled to the reference host speed, by the mean of the
    probes taken just before and just after the pass."""
    return [w * REF_PROBE_S / ((probes[i] + probes[i + 1]) / 2) for i, w in enumerate(walls)]


def measured_passes(ops, paths, seconds, ledger):
    """Untraced passes until the deadline, at least MIN_PASSES.

    Returns the pass walls and the host probes taken before the first pass
    and after each pass.
    """
    walls, probes = [], [host_probe()]
    start = time.perf_counter()
    while True:
        wall, results = run_pass(ops, paths)
        walls.append(wall)
        probes.append(host_probe())
        for op, res in zip(ops, results):
            ledger.record(op, res)
        if (len(walls) >= MIN_PASSES
                and time.perf_counter() - start + statistics.median(walls) > seconds):
            return walls, probes


def traced_pairs(ops, paths, seconds, ledger):
    """Pairs of an untraced and a traced pass until the deadline.

    The side that runs first alternates between pairs, and there are at
    least MIN_PASSES pairs even past the deadline, so that the median of
    the paired differences is not just the host's drift.  Returns the
    untraced walls, the traced walls and, per traced pass, (trace summary,
    traced wall, span count).
    """
    walls, traced_walls, summaries = [], [], []
    start = time.perf_counter()
    while True:
        traced_first = len(walls) % 2 == 1
        for traced in (traced_first, not traced_first):
            if traced:
                wall, results, tracer = traced_pass(ops, paths)
                traced_walls.append(wall)
                summaries.append((tracer.summarize(), wall, len(tracer.spans)))
            else:
                wall, results = run_pass(ops, paths)
                walls.append(wall)
            for op, res in zip(ops, results):
                ledger.record(op, res)
        per_pair = statistics.median(walls) + statistics.median(traced_walls)
        if len(walls) >= MIN_PASSES and time.perf_counter() - start + per_pair > seconds:
            return walls, traced_walls, summaries


def speedup_w2(ops, paths, ledger) -> float:
    """Median over MIN_PASSES pairs of the first op's wall at 1 worker over
    its wall at 2 workers, alternating which runs first.

    Each pair's two outputs must be identical bytes (workers never change
    results).
    """
    op = ops[0]
    ratios = []
    for k in range(MIN_PASSES):
        walls, outputs = {}, {}
        for workers in ((1, 2) if k % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            outputs[workers] = workloads.run_op(op, paths, workers=workers).output
            walls[workers] = time.perf_counter() - t0
        ledger.record_identity(f"{op.name}.workers-1-vs-2", outputs[1], outputs[2])
        ratios.append(walls[1] / walls[2])
    return statistics.median(ratios)


def layer_metrics(summary: dict, measured: dict) -> dict:
    names = summary["names"]
    out = {}
    for metric, unit, span, stat in PER_LAYER:
        if span is None:
            value = measured[stat]
        else:
            st = names.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "elems": 0})
            if stat == "ns_per_elem":
                value = st["total_s"] / st["elems"] * 1e9 if st["elems"] else 0.0
            elif stat == "us_per_call":
                value = st["total_s"] / st["calls"] * 1e6 if st["calls"] else 0.0
            else:
                value = st[stat]
        out[metric] = {"value": value, "unit": unit}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                 reference: dict | None = None) -> dict:
    """Set up, warm up and measure one workload; returns the full result."""
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    try:
        setup_samples = [probe_setup(workload, seed, i) for i in range(SETUP_PROBES)]
        ops, paths = setup(workload, seed, scale, workdir)
        tiny_ops = workloads.build_ops(workload, seed, "tiny")
        tiny_paths = workloads.write_configs(tiny_ops, os.path.join(workdir, "tiny"))
        run_pass(tiny_ops, tiny_paths)  # warm-up: imports, first-call caches

        ledger = Ledger(reference if reference is not None else checks.load_reference(),
                        workloads.TINY_DIVISOR if scale == "tiny" else 1.0)
        if trace:
            probes = []
            walls, traced_walls, summaries = traced_pairs(ops, paths, seconds, ledger)
            speedup = speedup_w2(ops, paths, ledger)
            overhead = statistics.median(t - w for w, t in zip(walls, traced_walls))
            per_pass = [layer_metrics(s, {"speedup_w2": speedup, "overhead_s": overhead,
                                          "error_rate": ledger.error_rate})
                        for s, _w, _t in summaries]
            metrics = {name: {"value": statistics.median(m[name]["value"] for m in per_pass),
                              "unit": per_pass[0][name]["unit"]} for name in per_pass[0]}
        else:
            walls, probes = measured_passes(ops, paths, seconds, ledger)
            traced_walls, summaries = [], []
            metrics = {
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                "wall_ref_s": {"value": statistics.median(wall_at_ref_speed(walls, probes)),
                               "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # not empty: another run is using it
    return {
        "workload": workload,
        "trace": trace,
        "scale": scale,
        "env": environment(seed),
        "setup_samples_s": setup_samples,
        "pass_walls_s": walls,
        "host_probes_s": probes,
        "traced_pass_walls_s": traced_walls,
        "error_rate": ledger.error_rate,
        "failed_ops": ledger.failures,
        "wrong_outputs": ledger.wrong,
        "spans": sum(n for _s, _w, n in summaries),
        "span_summary": summaries[0][0] if summaries else None,
        "self_time_check": [_self_time_balance(s, w) for s, w, _t in summaries],
        "result": {"correct": not ledger.wrong, "attempted": ledger.attempted,
                   "failed": ledger.failed, "metrics": metrics},
    }


def _self_time_balance(summary: dict, traced_wall: float) -> dict:
    """Sum of self times against the traced pass wall plus child overlap."""
    total_self = sum(st["self_s"] for st in summary["names"].values())
    return {"sum_self_s": total_self, "traced_wall_s": traced_wall,
            "overlap_s": summary["overlap_s"]}


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def print_summary(full: dict) -> None:
    res = full["result"]
    env = full["env"]
    print(f"perfbench {full['workload']} seed={env['seed']} trace={int(full['trace'])} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} commit={env['commit']}")
    if not full["trace"]:
        walls = ", ".join(f"{w:.3f}" for w in full["pass_walls_s"])
        print(f"  wall_s      {statistics.median(full['pass_walls_s']):.4f} s  "
              f"(median of {len(full['pass_walls_s'])} passes: {walls})")
        print(f"  wall_ref_s  {res['metrics']['wall_ref_s']['value']:.4f} s  "
              f"(at the reference host speed; probe median "
              f"{statistics.median(full['host_probes_s']):.4f} s vs {REF_PROBE_S} s)")
        print(f"  setup_s     {res['metrics']['setup_s']['value']:.4f} s  "
              f"(median of {len(full['setup_samples_s'])} fresh processes)")
        print(f"  peak_rss_mb {res['metrics']['peak_rss_mb']['value']:.1f} MB")
    print(f"  error_rate  {full['error_rate']:.4f} fraction  "
          f"({res['failed']} of {res['attempted']} ops failed)")
    for name, entry in sorted(full["failed_ops"].items()):
        print(f"  failed op {name}: {entry['error']}: {entry['detail']} (x{entry['count']})")
    if full["trace"]:
        for name, m in res["metrics"].items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    report = {k: v for k, v in full.items() if k != "result"}
    print("report " + json.dumps(report, sort_keys=True))


def run_all(seed: int, seconds: int, trace: int) -> int:
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(ln for ln in lines[:-1] if not ln.startswith("report ")))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    pin_threads()

    if args.setup_probe:
        setup(args.workload, args.seed, "full", args.workdir)
        print(repr(time.time()))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)} or 'all'")
    import_program()
    full = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(full)
    print(json.dumps(full["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
