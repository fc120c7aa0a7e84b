"""Derivative-free scalar searches and the lower convex hull shared by
the envelope and relaxation solvers.  Everything here is deterministic
for fixed inputs."""

from __future__ import annotations

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(fn, lo: float, hi: float, iters: int, coarse: int = 13):
    """Minimize fn on [lo, hi], which needs lo < hi: coarse presample to
    bracket (robust to +inf plateaus), then golden-section refinement.
    Returns (x, fn(x))."""
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
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0.0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
