"""The deterministic quadrature oracle for P(S_p > t), d <= 3.

It sums the conditional kernel of the Monte Carlo estimators, log F_bar((t_norm / Z)^{1/p}),
along lines Z = lam0 B^p + lam1 (1-B)^p against Beta laws: the one line of d = 2, and for
d = 3 an inner line at each node of an outer one.  Its Gauss-Legendre panels are graded
geometrically toward the corners, the saddle theta (the p < 1 peak, narrower the deeper the
tail) and a finite endpoint's support edges (where the integrand drops to 0), which keeps the
convergence exponential at any depth; the end panels are Gauss-Jacobi, whose weights carry
the Beta density's powers, so alpha < 1 costs nothing.  An edge is sought only on a piece of
the line its level cuts: Illinois secant steps in the coordinate exact there (b, or 1 - b
past 1/2) stop at one ulp, on the live side.

Each kind of breakpoint (the corner b = 0, the corner b = 1, inside) is graded only as deep
as it needs.  Every kind starts _START levels deep and deepens by two while the nested
difference |I_L - I_{L-2}| of its halves exceeds _TOL of the integral, up to _CAP levels; the
rule L - 2 deep shares every panel but the end one, so the check costs one end panel per
half, and a deeper half evaluates only its new panels (QUADPACK takes its error estimate
from nested rules too; Piessens et al. 1983).  A round costs the kernel at its new nodes, an
_errors call over the lines it ran and, for d = 3, the new outer nodes, one bincount and the
outer line's _errors call.  The reported error is the summed differences plus rounding,
which they cannot see.  Depths are chosen per threshold, so a threshold grid gives the scalar
calls' values.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import expit, roots_jacobi

from .aggtail import AggregateSpec
from .errors import DomainError, NumericError
from .montecarlo import CHUNK, Estimate, _levels, _z_sup
from .radial import RadialModel
from .specfun import log_gamma

__all__ = ["quadrature_tail"]

_POINTS = 12  # Gauss points per panel
_GRADE = 0.25  # size ratio of neighbouring graded panels
_TOL = 1e-11  # nested difference, relative to the integral, that stops a kind deepening
_START, _CAP = 4, 24  # graded levels per half-panel before its end panel: first and most
_EPS, _H = float(np.finfo(float).eps), 1e-6  # double rounding; relative step of a derivative
_KINDS = np.arange(3)[:, None]


def _log_cond(radial: RadialModel, z, level: float, p: float, out=None):
    """The conditional kernel log F_bar((level / z)^{1/p}), one value per point.

    z = 0 maps to an unbounded radius (survival 0); a NaN z reaches log_survival and fails
    there rather than being read as no exceedance.  The radii are formed in one buffer, out
    when given; a scalar z (the radial-tail paths) gives numpy scalars, which rebind.
    """
    with np.errstate(divide="ignore"):
        x = np.divide(level, z, out=out)
    x **= 1.0 / p
    if not x.ndim or x.max(initial=0.0) > 1e300:  # a read-only pass spares the clip's write
        x = np.minimum(x, 1e300, out=x if x.ndim else None)
    return radial.log_survival(x)


@functools.cache
def _graded_panels():
    """The graded Gauss-Legendre panels shared by every half rule, a row per level k:
    distances in [_GRADE^(k+1), _GRADE^k] from a breakpoint and their log-weights."""
    x, w = roots_jacobi(_POINTS, 0.0, 0.0)
    size = _GRADE ** np.arange(_CAP)
    return (np.outer(size, _GRADE + (1.0 - _GRADE) * 0.5 * (1.0 + x)),
            np.add.outer(np.log(0.5 * (1.0 - _GRADE) * size), np.log(w)))


@functools.lru_cache(maxsize=256)
def _graded_half(e: float, lo: int, hi: int):
    """Distances d in (0, 1] from a breakpoint, with log-weights integrating d^e * smooth(d),
    of the half rule graded hi levels deep: its panels at levels lo..hi-1, its end panel
    [0, _GRADE^hi] and, for lo = 0, last the end panel of the rule hi - 2 levels deep, which
    shares the rest.  End panels' weights carry -e log d against the d^e.  Built once per
    (e, lo, hi); the arrays are read-only because they are shared."""
    d, lw = _graded_panels()
    x, w = roots_jacobi(_POINTS, 0.0, e)
    parts = [(d[lo:hi].ravel(), lw[lo:hi].ravel())]
    for level in (hi, hi - 2)[:2 if lo == 0 else 1]:
        size = _GRADE ** level
        parts.append((size * 0.5 * (1.0 + x), np.log(w) + math.log(0.5 * size) - e * np.log1p(x)))
    half = tuple(np.concatenate(arrs) for arrs in zip(*parts))
    for arr in half:
        arr.setflags(write=False)
    return half


def _half_groups(hi, full: bool):
    """(index into the halves, (lo, hi) of their rule table, segment starts, halves per
    block) for halves graded hi levels deep, a group per hi: their half rules whole when full
    (segments: the levels but the last two, those two, the end panel, the check end panel),
    else the levels hi - 2 and hi - 1 and the end panel.  A block holds <= CHUNK / 2 nodes."""
    hs = np.flatnonzero(np.bincount(hi)).tolist()
    for h in hs:  # a lone group takes every half
        yield (slice(None) if len(hs) == 1 else np.flatnonzero(hi == h), (0 if full else h - 2, h),
               [0, _POINTS * (h - 2), _POINTS * h, _POINTS * (h + 1)] if full else [0, 2 * _POINTS],
               max(1, CHUNK // _POINTS // (2 * h + 4 if full else 6)))


class _LineRule:
    """Graded rule on the line g(b) = lam0 b^p + lam1 (1-b)^p against Beta(a, c).
    Points are pairs (b, 1 - b), exact both ways, for nodes a hair from a corner.  Half k of
    a panel (its end k % 2 of panel k // 2) is graded toward that end, a breakpoint of one of
    three kinds: the corner b = 0 (kind 0), the corner b = 1 (1), or inside (2: the saddle or
    a support edge)."""

    def __init__(self, a: float, c: float, lam0: float, lam1: float, p: float):
        self.a, self.c, self.lam0, self.lam1, self.p = a, c, lam0, lam1, p
        self.log_norm = log_gamma(a + c) - log_gamma(a) - log_gamma(c)
        # g is monotone between the corners and its extremum theta (for p < 1 the saddle, its
        # maximum; else a minimum); past b = 1/2 edges are found in 1 - b
        x = math.log(lam0 / lam1) / (1.0 - p) if p != 1.0 and lam1 > 0 else None
        ext = [] if x is None else [(float(expit(x)), float(expit(-x)))]
        pts = sorted([(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)] + ext)
        self.grid, self.t = np.array(pts).T, 1 + (ext[0][0] > 0.5) if ext else 3  # theta's column
        # the slots, grid columns: the corners, theta for p < 1, each piece's edge (corner if none)
        self.take, self.slot = ([0, 0, self.t, 3, 3], np.array([1, 3])) if ext and p < 1.0 else \
            ([0, 0, 3, 3], np.array([1, 2])) if ext else ([0, 0, 2], np.array([1]))
        self.k = np.arange(2 * len(self.take) - 2)  # the halves
        # the rule where no level cuts: panels' one row, laid out in floats
        s, sc = zip(*(pts[j] for j in self.take))
        half = [0.5 * (s[j + 1] - s[j] if s[j] < 0.5 else sc[j] - sc[j + 1])
                for j in range(len(s) - 1)]
        kind = [2 - 2 * (s[(k + 1) // 2] == 0) - (sc[(k + 1) // 2] == 0) if half[k // 2] > 0 else -1
                for k in range(2 * len(half))]
        self.whole = tuple(np.array([v]) for v in (s, sc, half, kind))

    def g(self, b, bc):
        return self.lam0 * b ** self.p + self.lam1 * bc ** self.p

    @functools.cached_property
    def g_grid(self):
        return self.g(*self.grid)

    def table(self, lo: int, hi: int):
        """The half rules _graded_half(e, lo, hi) of the kinds' exponents, a column each."""
        return tuple(np.array(arrs).T for arrs in zip(*(
            _graded_half(e, lo, hi) for e in (self.a - 1.0, self.c - 1.0, 0.0))))

    def panels(self, levels):
        """The panels of the rule over {g > level}, a row per distinct level (one for
        all if none cuts the line): slot points s and 1 - s, half-widths and each
        half's kind (-1 on an empty panel); and each level's row."""
        if (top := np.max(levels, initial=0.0)) <= 0.0 or top < self.g_grid.min():  # g > 0 inside
            return self.whole, np.zeros(levels.size, dtype=np.intp)
        level, row = np.unique(np.maximum(levels, 0.0), return_inverse=True)
        s, sc = self.grid[:, None, self.take].repeat(level.size, axis=1)
        up = self.g_grid > level[:, None]
        r, j = np.nonzero((up[:, :-1] != up[:, 1:]) & (level[:, None] > 0))
        slot = self.slot[(j >= self.t).astype(int)]  # the piece's
        s[r, slot], sc[r, slot] = self._edges(j, level[r], up[r, j])
        half = 0.5 * np.where(s[:, :-1] < 0.5, s[:, 1:] - s[:, :-1], sc[:, :-1] - sc[:, 1:])
        mid = self.g(0.5 * (s[:, :-1] + s[:, 1:]), 0.5 * (sc[:, :-1] + sc[:, 1:]))
        live, e = (half > 0) & (mid > level[:, None]), (self.k + 1) // 2  # half k's breakpoint
        kind = np.where(live[:, self.k // 2], 2 - 2 * (s[:, e] == 0) - (sc[:, e] == 0), -1)
        return (s, sc, half, kind), row

    def _edges(self, j, level, first_live):
        """(b, 1 - b) at the live side's last double of g = level in grid pieces j (first end
        live where first_live): Illinois secants in x = b or 1 - b, taking g - level as
        (lb - level) + lb ((1-x)^p - 1) + la x^p, whose rounding shrinks with x."""
        flip = self.grid[0, j + 1] > 0.5
        x, h = self.grid[flip * 1, [j, j + 1]], self.g_grid[[j, j + 1]] - level
        (a, b), (ha, hb) = (np.where(first_live, v, v[::-1]) for v in (x, h))
        la, lb = np.where(flip, self.lam1, self.lam0), np.where(flip, self.lam0, self.lam1)
        last, room = np.zeros(a.shape, dtype=bool), np.ones(a.shape)  # live end moved last; ulps
        while (np.nextafter(a, b) != b).any():  # an edge done stays so: its ends' signs repeat
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            d, x = np.minimum(room * np.spacing(hi), 0.5 * (hi - lo)), b - hb * (b - a) / (hb - ha)
            y = np.fmin(np.fmax(x, lo + d), hi - d)  # ha > 0 >= hb, and fmax drops a NaN
            room = np.where(y == x, 1.0, 2.0 * room)  # twice as far inside each time running
            hy = (lb - level) + lb * np.expm1(self.p * np.log1p(-y)) + la * y ** self.p
            up = hy > 0
            ha, hb = np.where(up | last, ha, 0.5 * ha), np.where(up & last, 0.5 * hb, hb)
            a, ha = np.where(up, y, a), np.where(up, hy, ha)
            b, hb, last = np.where(up, b, y), np.where(up, hb, hy), up
        return np.where(flip, 1.0 - a, a), np.where(flip, a, 1.0 - a)

    def nodes(self, panels, r, k, d, lw):
        """Points b, 1 - b and log-weights of the half rules (d, lw), a column
        for each half k of row r of panels and a row per node."""
        s, sc, half = panels[:3]
        h, e = half[r, k // 2], (k + 1) // 2
        step = d * np.where(k % 2, -h, h)  # from the breakpoint into the panel
        b, bc = s[r, e] + step, sc[r, e] - step
        lw = lw + (np.log(h) + self.log_norm)
        for power, x in ((self.a - 1.0, b), (self.c - 1.0, bc)):
            if power:
                lw += power * np.log(x)
        return b, bc, lw


def _segment_logsums(f: np.ndarray, starts) -> np.ndarray:
    """Column by column, the log-sums of exp(f) over the segments of rows that
    begin at starts, in one order whatever the columns; f is overwritten."""
    m = f.max(axis=0)
    zero = ~np.isfinite(m)
    m[zero] = 0.0
    f -= m
    # terms below e^-700 of a column's largest change no sum; exp is slow where it underflows
    np.exp(np.maximum(f, -700.0, out=f), out=f)
    out = np.log(np.add.reduceat(f, starts, axis=0))
    out += m
    out[:, zero] = -math.inf  # a column of -inf sums to -inf
    return out


def _errors(sums: np.ndarray, kind: np.ndarray):
    """Each line's log integral, and |I_L - I_{L-2}| of its halves relative to
    it, summed by kind (3, lines).  sums (4, halves, lines) holds each half's
    log-sums over its levels but the last two, the last two, its end panel and
    its check end panel; kind (halves, lines) is each half's kind.  The sums over halves
    add row after row (numpy reduces an outer axis so, but pairs up a lone column's terms),
    so a line's bits do not depend on the lines beside it."""
    top = sums[:3].max(axis=(0, 1))
    live = np.isfinite(top)  # a line of -inf is 0 (log total + top), with no error
    w = sums - np.where(live, top, 0.0)
    np.exp(np.maximum(w, -700.0, out=w), out=w)
    terms = w[:3].reshape(3 * len(kind), top.size)
    total = np.add.reduce(terms) if top.size > 1 else np.add.accumulate(terms)[-1]
    diff = np.abs(w[1] + w[2] - w[3]) * (live / total)
    return np.log(total) + top, np.add.reduce(np.where(kind[:, None] == _KINDS, diff[:, None], 0))


class _Lines:
    """The kernel integrated along lines Z = head * g + tail of one rule, each kind of
    breakpoint graded to its own depth on each line; each half keeps the four log-sums of
    _errors, so it deepens two levels by its new nodes alone.  A line is a column of one row
    store, made for the first lines and doubled when full; panels row 0 is the whole rule."""

    def __init__(self, rule: _LineRule, radial: RadialModel):
        self.rule, self.radial, self.halves, self.panels = rule, radial, len(rule.k), rule.whole
        self.size, self.fresh, self.shared = 0, 0, (None,)  # first line errors() owes; last nodes
        self.f, self.i = np.empty((7 + 4 * self.halves, 0)), np.empty((5, 0), dtype=np.intp)

    def add(self, levels, tn, head, tail, depth):
        """Lines at levels (of g) for normalized thresholds tn, graded depth (3,) levels
        deep, kind by kind; tn, head and tail are arrays or one number for all."""
        panels, row = self.rule.panels(levels)
        if panels is not self.rule.whole:
            row = row + len(self.panels[0])
            self.panels = tuple(np.concatenate(pair) for pair in zip(self.panels, panels))
        start, self.size = self.size, self.size + row.size
        if start == 0 or self.size > self.f.shape[1]:  # rows tn, head, tail first; sums at -inf
            cap = max(2 * self.f.shape[1], self.size)
            f, i = np.full((len(self.f), cap), -math.inf), np.zeros((5, cap), dtype=np.intp)
            f[:, :start], i[:, :start] = self.f[:, :start], self.i[:, :start]
            self.f, self.i, self.row, self.n, self.depth = f, i, i[0], i[1], i[2:]
            self.value, self.err, self.sums = f[3], f[4:7], f[7:].reshape(4, self.halves, -1)
        new = slice(start, self.size)
        self.row[new], self.f[0, new], self.f[1, new], self.f[2, new] = row, tn, head, tail
        self.depth[:, new] = depth[:, None]
        r, k = np.nonzero(self.panels[-1][row] >= 0)  # line by line, so blocks share (row, half)
        self._run(k, r + start, full=True)

    def deepen(self, grow):
        """Grade two levels deeper the kinds marked in grow (3, lines)."""
        kind = self.panels[-1][self.row[:self.size]]
        r, k = np.nonzero(np.take_along_axis(grow.T, np.maximum(kind, 0), axis=1) & (kind >= 0))
        self._run(k, r, full=False)
        self.depth[:, :self.size] += 2 * grow
        self.fresh = 0

    def errors(self):
        """Each line's log integral and errors by kind, afresh for lines run since last called."""
        new = slice(self.fresh, self.size)
        self.value[new], self.err[:, new] = _errors(self.sums[..., new],
                                                    self.panels[-1][self.row[new]].T)
        self.fresh = self.size
        return self.value[:self.size], self.err[:, :self.size]

    def _run(self, k, r, full: bool):
        """Evaluate half k of line r: whole, or its next two levels."""
        nk = self.halves
        hi = self.depth[self.panels[-1][self.row[r], k], r] + (0 if full else 2)
        for idx, lohi, starts, per in _half_groups(hi, full):
            ks, rs = k[idx], r[idx]
            np.add.at(self.n, rs, starts[-1] + _POINTS)
            key = self.row[rs] * nk + ks
            for i in range(0, ks.size, per):
                sel, line = slice(i, i + per), rs[i:i + per]
                # lines on one row of panels share the nodes of its halves, kept for the next block
                seen = np.bincount(key[sel]) > 0
                pairs, at = np.flatnonzero(seen), seen.cumsum()[key[sel]] - 1
                if self.shared[0] != (lohi, pairs.tobytes()):
                    (d, lw), (pr, pk) = self.rule.table(*lohi), np.divmod(pairs, nk)
                    hk = self.panels[-1][pr, pk]
                    b, bc, lw_at = self.rule.nodes(self.panels, pr, pk, d[:, hk], lw[:, hk])
                    self.shared = (lohi, pairs.tobytes()), self.rule.g(b, bc), lw_at
                # a row per node and a column per half: each line's numbers broadcast along rows
                tn, head, tail = self.f[:3].take(line, axis=1)
                z = self.shared[1][:, at]
                z *= head
                z += tail
                # z holds the radii, then f the kernel: at most two block-sized arrays alive
                f = _log_cond(self.radial, z, tn, self.rule.p, out=z)
                del z
                f += self.shared[2][:, at]
                sums = _segment_logsums(f, starts)
                del f
                if not full:
                    old = self.sums[:, ks[sel], line]
                    sums = [np.logaddexp(old[0], old[1]), sums[0], sums[1], old[2]]
                self.sums[:, ks[sel], line] = sums


def _d2_integrals(spec: AggregateSpec, levels: np.ndarray, tns: np.ndarray):
    """(log integral, error, evaluations) on the one line of d = 2, a line per
    level; each line deepens its own kinds, so none depends on the others."""
    lines = _Lines(_LineRule(*spec.alpha, *spec.lam, spec.p), spec.radial)
    lines.add(levels, tns, 1.0, 0.0, np.full(3, _START))
    while True:
        value, err = lines.errors()
        grow = (err > _TOL) & (lines.depth[:, :lines.size] < _CAP)
        if not grow.any():  # the kinds' errors summed in order, sum() starting from +0
            return zip(value.tolist(), sum(err).tolist(), lines.n[:lines.size].tolist())
        lines.deepen(grow)


def _d3_integral(spec: AggregateSpec, level: float, tn: float):
    """(log integral, error, evaluations) for d = 3: the inner line at each node of the outer
    one, the inner lines sharing their depths.  Outer node j keeps its log-weight lw[j] and
    key[j] = slot * halves + half (slot: which of its half's four log-sums, 4 if none); its
    inner line is line j, so each round takes the outer log-sums afresh, in one bincount."""
    p, lam, a = spec.p, spec.lam, spec.alpha
    outer = _LineRule(a[0] + a[1], a[2], _z_sup(np.asarray(lam[:2]), p), lam[2], p)
    panels, _ = outer.panels(np.array([level]))
    kind, nk = panels[-1][0], len(outer.k)
    lines = _Lines(_LineRule(a[0], a[1], lam[0], lam[1], p), spec.radial)
    depth = np.full((2, 3), _START)  # inner and outer, kind by kind
    lw, key = np.empty(0), np.empty(0, dtype=np.intp)

    def add_nodes(ks, full: bool):
        """The outer nodes of halves ks, whole or their next two levels, and their inner lines."""
        nonlocal lw, key
        parts = [(lw, key)]
        for sel, lohi, starts, _ in _half_groups(depth[1, kind[ks]] + (0 if full else 2), full):
            b, bc, w = outer.nodes(panels, 0, ks[sel],
                                   *(t[:, kind[ks[sel]]] for t in outer.table(*lohi)))
            head, tail = (b ** p).ravel(), (lam[2] * bc ** p).ravel()
            lines.add((level - tail) / head, tn, head, tail, depth[0])
            slot = np.repeat([0, 1, 2, 3] if full else [1, 2], np.diff(starts + [len(w)]))
            parts.append((w, slot[:, None] * nk + ks[sel]))
        lw, key = (np.concatenate(arrs, axis=None) for arrs in zip(*parts))

    add_nodes(np.flatnonzero(kind >= 0), full=True)
    while True:
        inner, err = lines.errors()
        v = lw + inner
        # the outer log-sums of each half, from the nodes' values shifted by their largest
        top = float(v.max())
        top = top if math.isfinite(top) else 0.0
        with np.errstate(divide="ignore"):
            sums = np.log(np.bincount(key, np.exp(v - top), minlength=5 * nk)[:4 * nk]) + top
        (value,), err_out = _errors(sums.reshape(4, nk, 1), kind[:, None])
        if value == -math.inf:  # the rule missed the support; quadrature_tail says so
            return value, 0.0, int(lines.n.sum())
        # an inner line's errors count by its share of the integral
        share = np.where(key < 3 * nk, np.exp(v - value), 0.0)
        err_in, err_out = (share * err).sum(axis=1), err_out[:, 0]
        grow = (np.array([err_in, err_out]) > _TOL) & (depth < _CAP)
        if not grow.any():
            return float(value), float(err_out.sum() + err_in.sum()), int(lines.n.sum())
        if grow[0].any():
            lines.deepen(np.outer(grow[0], key < 4 * nk))
        depth[0] += 2 * grow[0]
        if grow[1].any():
            deeper = grow[1, np.maximum(kind, 0)] & (kind >= 0)
            # a deeper half's slots: 0 and 1 merge, its end panel checks the new one, 3 drops
            remap = np.where(deeper, np.array([0, 0, 3, 4, 4])[:, None], np.arange(5)[:, None])
            key = (remap * nk + np.arange(nk)).ravel()[key]
            add_nodes(np.flatnonzero(deeper), full=False)
            depth[1] += 2 * grow[1]


def quadrature_tail(spec: AggregateSpec, t) -> Estimate | list[Estimate]:
    """Deterministic oracle for P(S_p > t), d <= 3: the graded Gauss rule of the module
    docstring.  stderr is p_hat times the rule's error in log, and n counts its kernel
    evaluations, check nodes included.  A sequence t gives a list of the scalar calls."""
    tns = _levels(spec, t)
    if spec.d > 3:
        raise DomainError(f"quadrature oracle supports d <= 3, got d={spec.d}")
    p, radial = spec.p, spec.radial
    z_sup = _z_sup(np.asarray(spec.lam), p)
    # Z <= level puts the radius past a finite endpoint (level 0 for none)
    levels = tns / radial.upper_endpoint ** p
    on_line = (levels < z_sup) & (spec.d > 1)
    inside = iter(_d2_integrals(spec, levels[on_line], tns[on_line])) if spec.d == 2 else \
        (_d3_integral(spec, lv, tn) for lv, tn in zip(levels[on_line], tns[on_line]))
    # rounding, which the nested differences cannot see: the radii carry relative errors of
    # order eps, which move the kernel by eps |d log F_bar / d log x|, taken at the smallest
    # radius, where the kernel is largest (near a finite endpoint the slope is large); and
    # the log-sum itself is good to an ulp or two of |log p_hat|
    kernel = _log_cond(radial, np.array([[z_sup], [z_sup / (1.0 - _H) ** p]]), tns[on_line], p)
    slopes = iter((np.abs(kernel[1] - kernel[0]) / _H).tolist())
    ests = []
    for tn, line in zip(tns, on_line):
        # off the lines: the radial tail itself, or 0 with the radius past its endpoint
        log_val, err, n = next(inside) if line else (_log_cond(radial, z_sup, tn, p), 0.0, 1)
        if line:
            # level < z_sup, so the true integral is positive: 0 means a missed support
            if log_val == -math.inf:
                raise NumericError(f"quadrature integral came out 0 at t={tn * spec.scale:g}: "
                                   "rule missed the support")
            err += _EPS * (next(slopes) + 2.0 * abs(log_val))
        ests.append(Estimate(p_hat=math.exp(log_val), log_p_hat=log_val,
                             stderr=math.exp(log_val) * err, n=n, seed=0, method="quadrature"))
    return ests if np.ndim(t) else ests[0]
