"""Span tracing of dirtail's public functions, from outside the program.

``Tracer.install()`` replaces every binding of the traced functions in the
loaded ``dirtail`` modules (a ``from x import f`` copy in another module is
a binding of its own) and the radial methods on each concrete class, with
wrappers that record one span per call in memory: name, start, end,
parent span and thread.  ``Tracer.remove()`` restores every original.

Spans on ``_map_chunks`` pool threads start with an empty per-thread stack;
their parent is the innermost open span of the thread that installed the
tracer, which is the estimator call waiting on the pool.

Calls to ``log_survival`` and ``quantile_survival`` are split by argument
size: ``.vec`` for ``VEC_MIN`` elements or more, ``.scalar`` below.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

VEC_MIN = 1024

#: module -> public functions traced there (and at every other binding)
FUNCTIONS = {
    "cli": ["main"],
    "montecarlo": ["conditional_mc_tail", "crude_mc_tail", "quadrature_tail", "max_sum_ratio",
                   "pairwise_asymindep", "empirical_gumbel_mda", "gumbel_limit_check",
                   "norming_constants", "sample_dirichlet"],
    "specfun": ["log_regularized_gamma_upper", "log_beta_survival", "logsumexp", "log_gamma"],
    "aggtail": ["tail_asymptotic", "var_es_asymptotic", "simplex_constant_recursion"],
    "producttail": ["saddle_geometry", "mixture_tail_constant_c", "mixture_tail_constant_d"],
}

#: (module, class, method) traced as methods
METHODS = [("aggtail", "TailAsymptotic", "invert"), ("aggtail", "TailAsymptotic", "evaluate_log")]

#: radial methods traced on every concrete family, split vec/scalar
RADIAL_METHODS = ["log_survival", "quantile_survival"]


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, thread, elems)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = None
        self._restore = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        home = self._home_stack
        return home[-1] if home else None

    def span(self, name: str, fn, *args, elems: int = 0, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, threading.get_ident(), elems))

    def _wrap(self, name: str, fn, arg_index: int | None = None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if arg_index is None:
                return tracer.span(name, fn, *args, **kwargs)
            size = int(np.size(args[arg_index])) if len(args) > arg_index else 1
            label = f"{name}.vec" if size >= VEC_MIN else f"{name}.scalar"
            return tracer.span(label, fn, *args, elems=size, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every binding of the traced names; call remove() to undo."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        import dirtail.radial

        self._home_stack = self._stack()
        modules = {name: mod for name, mod in sys.modules.items()
                   if (name == "dirtail" or name.startswith("dirtail.")) and mod is not None}
        for short, names in FUNCTIONS.items():
            home = modules[f"dirtail.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper, original)
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[f"dirtail.{short}"], cls_name)
            self._set(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", cls.__dict__[meth]),
                      cls.__dict__[meth])
        classes = [dirtail.radial.RadialModel] + list(dirtail.radial._FAMILIES.values())
        for cls in classes:
            for meth in RADIAL_METHODS:
                original = cls.__dict__.get(meth)
                if original is None or getattr(original, "__isabstractmethod__", False):
                    continue
                self._set(cls, meth, self._wrap(f"radial.{meth}", original, arg_index=1),
                          original)

    def _set(self, owner, attr, wrapper, original) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []
        self._home_stack = None

    # -- analysis --------------------------------------------------------
    def summarize(self) -> dict:
        """Per span name: calls, total_s (inclusive), self_s, elems.

        Self time is a span's duration minus the union of its children's
        intervals, so concurrent children on pool threads are not
        subtracted twice.  ``overlap_s`` is the child time that ran
        concurrently with a sibling; the self times of a span tree add up
        to its root's duration plus that overlap.
        """
        children = defaultdict(list)
        for s in self.spans:
            if s[4] is not None:
                children[s[4]].append((s[2], s[3]))
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "elems": 0})
        overlap = 0.0
        for sid, name, start, end, _parent, _thread, elems in self.spans:
            kids = children.get(sid, [])
            covered = _union_length(kids)
            overlap += sum(e - s for s, e in kids) - covered
            st = stats[name]
            st["calls"] += 1
            st["total_s"] += end - start
            st["self_s"] += (end - start) - covered
            st["elems"] += elems
        return {"names": dict(stats), "overlap_s": overlap}


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
