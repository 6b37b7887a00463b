"""Smoke test of the benchmark's span tracer against the live package.

perfbench/spans.py binds the traced functions by module and name; a name
that is renamed or deleted in dirtail must fail here, not in the next
traced benchmark run.
"""

import importlib.util
import pathlib

import dirtail as dt
import dirtail.cli  # noqa: F401 - the tracer wraps cli.main
from dirtail import GammaLaw

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes():
    spans = _load_spans()
    originals = {(short, name): getattr(getattr(dt, short), name)
                 for short, names in spans.FUNCTIONS.items() for name in names}
    tracer = spans.Tracer()
    tracer.install()
    try:
        spec = dt.validate_spec([1, 1, 1], [1, 0.7, 0.4], 0.5, GammaLaw(2, 1))
        dt.aggtail.simplex_constant_recursion(spec)
        GammaLaw(2, 1).log_survival(3.0)
    finally:
        tracer.remove()
    names = tracer.summarize()["names"]
    assert names["aggtail.simplex_constant_recursion"]["calls"] == 1
    assert names["producttail.saddle_geometry"]["calls"] == 2
    assert names["producttail.mixture_tail_constant_d"]["calls"] == 2
    assert names["radial.log_survival.scalar"]["calls"] == 1
    for (short, name), fn in originals.items():
        assert getattr(getattr(dt, short), name) is fn
