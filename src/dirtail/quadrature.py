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
from nested rules too; Piessens et al. 1983).  One loop runs a grid's thresholds together, at
d = 3 _NEST at a time: a round costs the kernel at its new nodes, an _errors call over every
line and, for d = 3, the new outer nodes, one bincount and one _errors call over the outer
lines.  The reported error is the summed differences plus rounding, which they cannot
see.  Depths are chosen per threshold, so a threshold grid gives the scalar calls' values.
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
_NEST = 4  # d = 3 levels run at once, whose inner lines are all held together
_DEEPER = np.array([[0], [-1], [1], [1], [0]])  # an outer half's slot shifts as it deepens
#: alphas the rule holds to ~1e-12 of log p (mpmath, d = 2); past 1e-7 and 1e5 it misses
#: _TOL, and at 1e-17 (a - 1 = -1) or 1e300 the Jacobi nodes fail
_SHAPES = (1e-6, 1e4)


def _log_cond(radial: RadialModel, z, level: float, p: float, out=None):
    """The conditional kernel log F_bar((level / z)^{1/p}), one value per point.

    z = 0, or a quotient or power past DBL_MAX, maps to an unbounded radius (survival 0); a
    NaN z reaches log_survival and fails there rather than being read as no exceedance.  The
    radii are formed in one buffer, out when given; a scalar z (the radial-tail paths) gives
    numpy scalars, which rebind.
    """
    with np.errstate(divide="ignore", over="ignore"):
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
        self.size, self.shared = 0, (None,)  # last nodes
        self.f, self.i = np.empty((3 + 4 * self.halves, 0)), np.empty((5, 0), dtype=np.intp)

    def add(self, levels, tn, head, tail, depth):
        """Lines at levels (of g) for normalized thresholds tn, graded depth (3, lines) levels
        deep, kind by kind; tn, head, tail and depth are arrays or one number for all."""
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
            self.sums = f[3:].reshape(4, self.halves, -1)
        new = slice(start, self.size)
        self.row[new], self.f[0, new], self.f[1, new], self.f[2, new] = row, tn, head, tail
        self.depth[:, new] = depth
        r, k = np.nonzero(self.panels[-1][row] >= 0)  # line by line, so blocks share (row, half)
        self._run(k, r + start, full=True)

    def deepen(self, grow):
        """Grade two levels deeper the kinds marked in grow (3, lines)."""
        kind = self.panels[-1][self.row[:self.size]]
        r, k = np.nonzero(np.take_along_axis(grow.T, np.maximum(kind, 0), axis=1) & (kind >= 0))
        self._run(k, r, full=False)
        self.depth[:, :self.size] += 2 * grow

    def errors(self):
        """Each line's log integral and errors by kind."""
        return _errors(self.sums[..., :self.size], self.panels[-1][self.row[:self.size]].T)

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


class _Nest:
    """The d = 3 integrals, a problem per level: inner lines at the nodes of an outer line against
    Beta(a0 + a1, a2); depth (6, problems) holds each problem's by kind, outer then inner (its
    inner lines share these).  Outer node j has log-weight lw[j], inner line j and key[j] =
    (slot * halves + half) * problems + problem, slot being which of its half's four log-sums
    (4: none), so one bincount a round gives every problem's outer log-sums afresh."""

    def __init__(self, spec: AggregateSpec, lines: _Lines, levels, tns):
        p, lam, a = spec.p, spec.lam, spec.alpha
        self.rule = _LineRule(a[0] + a[1], a[2], _z_sup(np.asarray(lam[:2]), p), lam[2], p)
        self.panels, self.row = self.rule.panels(levels)
        self.kind = self.panels[-1][self.row].T  # (halves, problems)
        self.lines, self.levels, self.tns = lines, levels, tns
        self.depth = np.full((6, levels.size), _START)
        self.lw, self.key = np.empty(0), np.empty(0, dtype=np.intp)
        self._add(np.flatnonzero(self.kind >= 0), full=True)

    @property
    def n(self):  # evaluations per problem
        return np.bincount(self.prob, self.lines.n[:self.lines.size]).astype(np.intp)

    def _add(self, cols, full: bool):
        """Nodes and inner lines of columns cols = half * problems + problem, whole or 2 deeper."""
        size, p = len(self.tns), self.rule.p
        ks, prob = np.divmod(cols, size)
        kind = self.kind[ks, prob]
        for sel, lohi, starts, _ in _half_groups(self.depth[kind, prob], full):
            b, bc, w = self.rule.nodes(self.panels, self.row[prob[sel]], ks[sel],
                                       *(t[:, kind[sel]] for t in self.rule.table(*lohi)))
            runs = [j - i for i, j in zip(starts, starts[1:] + [len(w)])]  # np.diff costs more
            slot = np.repeat([0, 1, 2, 3] if full else [1, 2], runs)
            key = slot[:, None] * self.kind.size + cols[sel]
            line = key.ravel() % size  # each inner line's problem
            head, tail = b ** p, self.rule.lam1 * bc ** p
            self.lines.add(((self.levels[prob[sel]] - tail) / head).ravel(), self.tns[line],
                           head.ravel(), tail.ravel(), self.depth[3:, line])
            self.lw = np.concatenate([self.lw, w], axis=None)
            self.key = np.concatenate([self.key, key], axis=None)
        self.prob = self.key % size

    def errors(self):
        """Each problem's log integral and errors by kind (6, problems): outer, then inner."""
        inner, err = self.lines.errors()
        nk, size = self.kind.shape
        v = self.lw + inner
        # each half's outer log-sums, its nodes shifted by their problem's largest (or -max)
        top = np.full(size, -np.finfo(float).max)
        np.maximum.at(top, self.prob, v)
        with np.errstate(divide="ignore"):
            sums = np.log(np.bincount(self.key, np.exp(v - top[self.prob]), minlength=5 * nk * size)
                          [:4 * nk * size])
        value, err_out = _errors(sums.reshape(4, nk, size) + top, self.kind)
        # an inner line's errors count by its share of the integral (none if it came out 0)
        share = np.where(self.key < 3 * nk * size,
                         np.exp(v - np.where(value > -math.inf, value, math.inf)[self.prob]), 0.0)
        err_in = np.bincount((_KINDS * size + self.prob).ravel(), (share * err).ravel(),
                             minlength=3 * size)
        return value, np.concatenate([err_out, err_in.reshape(3, size)])

    def deepen(self, grow):
        """Grade two levels deeper the kinds marked in grow (6, problems)."""
        self.depth += 2 * grow
        if grow[3:].any():
            self.lines.deepen(grow[3:, self.prob] & (self.key < 4 * self.kind.size))
        deeper = grow[np.maximum(self.kind, 0), np.arange(len(self.tns))] & (self.kind >= 0)
        if deeper.any():
            # a deeper half's slots: 0 and 1 merge, its end panel checks the new one, 3 drops
            self.key += (np.where(deeper.ravel(), _DEEPER, 0) * self.kind.size).ravel()[self.key]
            self._add(np.flatnonzero(deeper), full=False)


def _integrals(spec: AggregateSpec, levels: np.ndarray, tns: np.ndarray):
    """(log integral, error, evaluations) per level, lazily: the d = 2 line, or the d = 3 nest
    _NEST levels at a time; each level deepens its own kinds, so none depends on the others."""
    rule = _LineRule(*spec.alpha[:2], *spec.lam[:2], spec.p)
    for i in range(0, levels.size, _NEST if spec.d == 3 else max(levels.size, 1)):
        batch = _Lines(rule, spec.radial)
        if spec.d == 2:
            batch.add(levels, tns, 1.0, 0.0, _START)
        else:
            batch = _Nest(spec, batch, levels[i:i + _NEST], tns[i:i + _NEST])
        value, err = batch.errors()
        while (grow := (err > _TOL) & (batch.depth[:, :value.size] < _CAP)).any():
            batch.deepen(grow)
            value, err = batch.errors()
        total = np.add.accumulate(err)[-1]  # the kinds' errors summed in order, whatever the lines
        yield from zip(value.tolist(), total.tolist(), batch.n[:value.size].tolist())


def quadrature_tail(spec: AggregateSpec, t) -> Estimate | list[Estimate]:
    """Deterministic oracle for P(S_p > t), d <= 3: the graded Gauss rule of the module
    docstring.  stderr is p_hat times the rule's error in log, and n counts its kernel
    evaluations, check nodes included.  A sequence t gives the scalar calls' values."""
    tns = _levels(spec, t)
    if spec.d > 3:
        raise DomainError(f"quadrature oracle supports d <= 3, got d={spec.d}")
    if spec.d > 1 and not _SHAPES[0] <= min(spec.alpha) <= max(spec.alpha) <= _SHAPES[1]:
        raise DomainError(f"quadrature oracle needs every alpha in [{_SHAPES[0]:g}, "
                          f"{_SHAPES[1]:g}], got alpha={list(spec.alpha)}")
    p, radial = spec.p, spec.radial
    z_sup = _z_sup(np.asarray(spec.lam), p)
    # Z <= level puts the radius past a finite endpoint (level 0 for none)
    levels = tns / radial.upper_endpoint ** p
    on_line = (levels < z_sup) & (spec.d > 1)
    inside = _integrals(spec, levels[on_line], tns[on_line])
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
        if line and log_val == -math.inf:  # level < z_sup: the true integral is positive
            raise NumericError(f"quadrature integral came out 0 at t={tn * spec.scale:g}: "
                               "rule missed the support")
        err += _EPS * (next(slopes) + 2.0 * abs(log_val)) if line else 0.0
        ests.append(Estimate(p_hat=math.exp(log_val), log_p_hat=log_val,
                             stderr=math.exp(log_val) * err, n=n, seed=0, method="quadrature"))
    return ests if np.ndim(t) else ests[0]
