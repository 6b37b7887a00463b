#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size; run from the checkout root.

    python3 perfbench/selftest.py [workload ...]

For every workload it checks that

1. the emitted metric names and units match BENCHMARK.json, untraced
   (end_to_end) and traced (per_layer);
2. a deliberately corrupted reference value is counted as a failed op
   with a wrong output, and nothing else is;
3. the traced pass's self times add up to its wall time (plus the time
   pool-thread children overlap, which is zero on single-threaded
   workloads).

It also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SEED = 7
#: ops whose pinned value the corruption test changes, per workload:
#: (op, row, column, how)
CORRUPT = {
    "mc-oracle": ("M1", 0, 3, lambda v: v + 1.0),
    "quadrature": ("Q2", 0, 3, lambda v: v * (1 + 1e-3)),
    "asymptotics": ("a1.approx", 0, 2, lambda v: v * (1 + 1e-9)),
}
SELF_TIME_TOL_S = 2e-3


def load_benchmark() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def expect(cond: bool, message: str, problems: list) -> None:
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        problems.append(message)


def check_workload(workload: str, bench: dict, reference: dict, problems: list) -> None:
    plain = run.run_workload(workload, SEED, 1, False, "tiny", reference)
    traced = run.run_workload(workload, SEED, 1, True, "tiny", reference)

    for full, section in ((plain, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {k: v["unit"] for k, v in full["result"]["metrics"].items()}
        expect(got == want, f"{workload}: metric names and units match {section}", problems)
        values = [v["value"] for v in full["result"]["metrics"].values()]
        expect(all(isinstance(v, (int, float)) for v in values),
               f"{workload}: every {section} value is a number", problems)

    expect(plain["result"]["correct"] and not plain["wrong_outputs"],
           f"{workload}: tiny run has no wrong outputs {plain['wrong_outputs']}", problems)

    op, row, col, how = CORRUPT[workload]
    bad = copy.deepcopy(reference)
    bad[op]["rows"][row][col] = how(bad[op]["rows"][row][col])
    corrupted = run.run_workload(workload, SEED, 1, False, "tiny", bad)
    wrong = {name for name, e in corrupted["failed_ops"].items() if e["error"] == "wrong output"}
    expect(wrong == {op} and not corrupted["result"]["correct"],
           f"{workload}: corrupted reference of {op} counted as its failed op (got {wrong})",
           problems)
    expect(corrupted["result"]["failed"] > plain["result"]["failed"],
           f"{workload}: failed count rises with the corrupted reference", problems)

    for bal in traced["self_time_check"]:
        gap = bal["sum_self_s"] - (bal["traced_wall_s"] + bal["overlap_s"])
        expect(abs(gap) <= SELF_TIME_TOL_S,
               f"{workload}: self times add up to traced wall + overlap (gap {gap:.2e} s)",
               problems)
        if workload != "mc-oracle":
            expect(bal["overlap_s"] == 0.0, f"{workload}: no concurrent spans", problems)


def check_refuses_without_program(problems: list) -> None:
    bare = os.path.join(run.WORK_ROOT, f"bare-{os.getpid()}")
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "asymptotics",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(run.WORK_ROOT)
        except OSError:
            pass  # not empty: a benchmark run is using it
    expect(done.returncode != 0 and "correct" not in done.stdout,
           f"refuses to run without the program (exit {done.returncode})", problems)


def main() -> int:
    run.pin_threads()
    run.import_program()
    import checks

    bench = load_benchmark()
    reference = checks.load_reference()
    problems = []
    for workload in sys.argv[1:] or [w["name"] for w in bench["workloads"]]:
        check_workload(workload, bench, reference, problems)
    check_refuses_without_program(problems)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
