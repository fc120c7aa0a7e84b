"""Derivative-free scalar searches and the lower convex hull shared by
the envelope and relaxation solvers.  Everything here is deterministic
for fixed inputs."""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np

from .matcore import quiet

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(fn, lo: float, hi: float, iters: int, coarse: int = 13):
    """Minimize fn on [lo, hi], which needs lo < hi: coarse presample to
    bracket (robust to +inf plateaus), then golden-section refinement.
    Returns (x, fn(x)).  This is the one-row case of golden_min_rows, on
    floats: on one row, its arrays cost more per step than a cheap fn."""
    xs = [lo + (hi - lo) * i / (coarse - 1) for i in range(coarse)]
    vals = [fn(x) for x in xs]
    i_best = min(range(coarse), key=lambda i: vals[i])
    best_x, best_v = xs[i_best], vals[i_best]
    a = xs[max(i_best - 1, 0)]
    b = xs[min(i_best + 1, coarse - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
    for x, v in ((c, fc), (d, fd)):
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


def _settle(best_x, best_v, c, fc, d, fd):
    """golden_min's last comparison: c, then d, replaces the coarse best
    where its value is below it."""
    for x, v in ((c, fc), (d, fd)):
        below = v < best_v
        best_x, best_v = np.where(below, x, best_x), np.where(below, v, best_v)
    return best_x, best_v


def golden_min_rows(fn, lo, hi, iters: int, coarse: int = 13):
    """golden_min on many rows in lockstep.  Row i searches [lo[i], hi[i]]
    and takes exactly the steps golden_min takes there, stopping early
    while other rows go on.  fn(rows, xs) returns the values at the
    points xs, xs[k] being a point of row rows[k]; rows is an int array
    in increasing order, and each step evaluates the points of every
    live row in one call.  Returns (xs, values), one entry per row.

    NaN values follow golden_min's comparisons.  A NaN at coarse index 0
    is its row's coarse best; one at a later index never is, so the
    first least of the other values is.  A NaN inner value is never at
    most the other one, nor below the coarse best."""
    with quiet():
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        rows = np.arange(len(lo))
        xs = lo[:, None] + ((hi - lo)[:, None] * np.arange(coarse)) / (coarse - 1)
        vals = np.asarray(fn(np.repeat(rows, coarse), xs.ravel()),
                          dtype=float).reshape(-1, coarse)
        key = np.where(np.isnan(vals), np.inf, vals)
        key[:, 0] = vals[:, 0]  # a NaN there stays best, as under min(key=...)
        i_best = np.argmin(key, axis=1)
        best_x, best_v = xs[rows, i_best], vals[rows, i_best]
        a = xs[rows, np.maximum(i_best - 1, 0)]
        b = xs[rows, np.minimum(i_best + 1, coarse - 1)]
        c = b - _INVPHI * (b - a)
        d = a + _INVPHI * (b - a)
        pairs = fn(np.repeat(rows, 2), np.stack([c, d], axis=1).ravel())
        fc, fd = np.asarray(pairs, dtype=float).reshape(-1, 2).T
        out_x, out_v = np.empty(len(rows)), np.empty(len(rows))
        live = rows
        for _ in range(iters):
            if not len(live):
                break
            left = fc <= fd  # keep [a, d] and ask a new c, or keep [c, b] and ask d
            a, b = np.where(left, a, c), np.where(left, d, b)
            kept = np.where(left, fc, fd)
            width = b - a
            x = np.where(left, b - _INVPHI * width, a + _INVPHI * width)
            c, d = np.where(left, x, d), np.where(left, c, x)
            v = np.asarray(fn(live, x), dtype=float)
            fc, fd = np.where(left, v, kept), np.where(left, kept, v)
            stop = width < 1e-14 * np.maximum(1.0, np.abs(a) + np.abs(b))
            if stop.any():
                out_x[live[stop]], out_v[live[stop]] = _settle(
                    best_x[stop], best_v[stop], c[stop], fc[stop], d[stop], fd[stop])
                go = ~stop
                live, a, b, c, d, fc, fd, best_x, best_v = (
                    t[go] for t in (live, a, b, c, d, fc, fd, best_x, best_v))
        out_x[live], out_v[live] = _settle(best_x, best_v, c, fc, d, fd)
    return out_x.tolist(), out_v.tolist()


def lower_hull(points) -> list:
    """Lower convex hull of (x, y) points by Andrew's monotone chain, in
    increasing x; collinear middle points are dropped."""
    hull = []
    for p in sorted(points):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def fit_loglog_slope(pairs):
    """Least-squares slope of log(err) against log(k).  Returns None when
    fewer than two points are available."""
    pts = [(math.log(k), math.log(e)) for k, e in pairs if e > 0.0]
    if len(pts) < 2:
        return None
    # sums left to right from 0.0: built-in sum is compensated from Python 3.12
    mx = reduce(add, (x for x, _ in pts), 0.0) / len(pts)
    my = reduce(add, (y for _, y in pts), 0.0) / len(pts)
    sxx = reduce(add, ((x - mx) ** 2 for x, _ in pts), 0.0)
    if sxx == 0.0:
        return None
    sxy = reduce(add, ((x - mx) * (y - my) for x, y in pts), 0.0)
    return sxy / sxx
