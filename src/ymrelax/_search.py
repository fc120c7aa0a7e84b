"""Derivative-free scalar searches and the lower convex hull shared by
the envelope and relaxation solvers.  Everything here is deterministic
for fixed inputs."""

from __future__ import annotations

import math
from functools import reduce
from operator import add

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(lo: float, hi: float, iters: int, coarse: int):
    """The golden-section search as a coroutine.  It yields the coarse
    grid, then the pair (c, d), as lists, and after that one point per
    step; each is sent back its value, a list of values for a list.  It
    returns (x, v)."""
    xs = [lo + (hi - lo) * i / (coarse - 1) for i in range(coarse)]
    vals = yield xs
    i_best = min(range(coarse), key=lambda i: vals[i])
    best_x, best_v = xs[i_best], vals[i_best]
    a = xs[max(i_best - 1, 0)]
    b = xs[min(i_best + 1, coarse - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = yield [c, d]
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = yield d
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
    for x, v in ((c, fc), (d, fd)):
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


def golden_min(fn, lo: float, hi: float, iters: int, coarse: int = 13):
    """Minimize fn on [lo, hi], which needs lo < hi: coarse presample to
    bracket (robust to +inf plateaus), then golden-section refinement.
    Returns (x, fn(x)).  This is the one-row case of golden_min_rows,
    driven without the batch bookkeeping, which would cost about as
    much per step as a cheap fn."""
    search = _golden(lo, hi, iters, coarse)
    try:
        ask = search.send([fn(x) for x in next(search)])
        ask = search.send([fn(x) for x in ask])
        while True:
            ask = search.send(fn(ask))
    except StopIteration as done:
        return done.value


def golden_min_rows(fn, lo, hi, iters: int, coarse: int = 13):
    """golden_min on many rows in lockstep.  Row i searches [lo[i], hi[i]]
    and takes exactly the steps golden_min takes there, stopping early
    while other rows go on.  fn(rows, xs) returns the values at the
    points xs, xs[k] being a point of row rows[k]; each step evaluates
    the points of every live row in one call.  Returns (xs, values),
    one entry per row."""
    searches = [_golden(a, b, iters, coarse) for a, b in zip(lo, hi)]
    found = [None] * len(searches)
    asks = [next(s) for s in searches]
    for width in (coarse, 2):  # every row's coarse grid, then its (c, d)
        vals = fn([i for i in range(len(asks)) for _ in range(width)],
                  [x for ask in asks for x in ask])
        nxt = []
        for i, s in enumerate(searches):
            try:
                nxt.append(s.send(vals[i * width:(i + 1) * width]))
            except StopIteration as done:
                found[i] = done.value
                nxt.append(None)
        asks = nxt
    live = [i for i, ask in enumerate(asks) if ask is not None]
    while live:
        vals = fn(live, [asks[i] for i in live])
        still = []
        for i, v in zip(live, vals):
            try:
                asks[i] = searches[i].send(v)
                still.append(i)
            except StopIteration as done:
                found[i] = done.value
        live = still
    return [x for x, _ in found], [v for _, v in found]


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
