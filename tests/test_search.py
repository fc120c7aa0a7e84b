import math
import struct

import numpy as np
import pytest

import _reference
from ymrelax._search import fit_loglog_slope, golden_min, golden_min_rows


def bits(x):
    return struct.pack("<d", x)


def traced_rows(fns, lo, hi, iters, coarse):
    """golden_min_rows over one function per row, recording every point
    each row asked for and the rows of each call."""
    seen = [[] for _ in fns]
    calls = []

    def fn(rows, xs):
        calls.append([int(r) for r in rows])
        for r, x in zip(rows, xs):
            seen[r].append(x)
        return [fns[r](x) for r, x in zip(rows, xs)]

    xs, vs = golden_min_rows(fn, lo, hi, iters, coarse)
    return xs, vs, seen, calls


def traced(search, f, lo, hi, iters, coarse):
    """search(f) on one row, with every point it asked for."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    x, v = search(g, lo, hi, iters, coarse)
    return x, v, seen


def assert_rows_match(fns, lo, hi, iters, coarse):
    """golden_min_rows and golden_min against the loop and the coroutine
    references, bit for bit: each row's result and every point it asks
    for, in order; golden_min_rows evaluates the coarse grids, then the
    (c, d) pairs, then one point of every live row a call, the rows in
    increasing order."""
    xs, vs, seen, calls = traced_rows(fns, lo, hi, iters, coarse)
    assert len(xs) == len(vs) == len(fns)
    steps = []
    for i, f in enumerate(fns):
        want = traced(_reference.golden_min, f, lo[i], hi[i], iters, coarse)
        for search in (_reference.golden_min_sent, golden_min):
            got = traced(search, f, lo[i], hi[i], iters, coarse)
            assert [bits(x) for x in got[2]] == [bits(x) for x in want[2]]
            assert tuple(map(bits, got[:2])) == tuple(map(bits, want[:2]))
        assert [bits(x) for x in seen[i]] == [bits(x) for x in want[2]]
        assert (bits(xs[i]), bits(vs[i])) == (bits(want[0]), bits(want[1]))
        steps.append(len(want[2]) - coarse - 2)
    rows = range(len(fns))
    assert calls == ([[i for i in rows for _ in range(coarse)],
                      [i for i in rows for _ in range(2)]]
                     + [[i for i in rows if steps[i] >= k]
                        for k in range(1, max(steps, default=0) + 1)])
    return seen, [len(set(c)) for c in calls]


def quadratic(c, k):
    return lambda x: k * (x - c) ** 2


def plateau(c, r):
    """(x - c)^2 on |x - c| <= r, +inf outside."""
    return lambda x: (x - c) ** 2 if abs(x - c) <= r else math.inf


def nan_where(f, at):
    """f, but NaN at the points where at(x) holds."""
    return lambda x: math.nan if at(x) else f(x)


def wiggle(c):
    return lambda x: math.cos(7.0 * x) + 0.3 * (x - c) ** 2


class TestGoldenMinRows:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_intervals_match_scalar_search(self, seed):
        rng = np.random.default_rng([seed, 7])
        m = int(rng.integers(1, 20))
        lo = rng.uniform(-5.0, 5.0, m).tolist()
        hi = (np.array(lo) + rng.uniform(1e-3, 4.0, m)).tolist()
        kinds = (lambda c: quadratic(c, 2.0), wiggle,
                 lambda c: plateau(c, 0.4))
        fns = [kinds[i % 3](float(rng.uniform(-5.0, 5.0))) for i in range(m)]
        assert_rows_match(fns, lo, hi, iters=int(rng.integers(0, 50)),
                          coarse=int(rng.integers(3, 14)))

    @pytest.mark.parametrize("iters", [0, 1, 40])
    def test_inf_plateaus(self, iters):
        # rows whose coarse grid sees +inf almost everywhere, or nowhere,
        # or everywhere
        fns = [plateau(0.0, 0.05), plateau(0.3, 10.0), lambda x: math.inf,
               plateau(-1.9, 0.2), plateau(1.0, 1e-6)]
        lo = [-2.0, -1.0, -1.0, -2.0, 0.0]
        hi = [2.0, 1.0, 1.0, -1.5, 2.0]
        assert_rows_match(fns, lo, hi, iters=iters, coarse=9)

    def test_rows_stop_early_while_others_go_on(self):
        # narrow brackets shrink below 1e-14 relative width in fewer
        # steps than wide ones
        widths = [1e-9, 1e-3, 1.0, 1e3, 1e-12, 10.0]
        fns = [quadratic(0.25 * w, 1.0) for w in widths]
        lo = [-w for w in widths]
        hi = [w for w in widths]
        seen, sizes = assert_rows_match(fns, lo, hi, iters=200, coarse=9)
        lengths = [len(s) for s in seen]
        assert len(set(lengths)) > 1
        assert max(lengths) < 9 + 2 + 200  # every row stopped early
        # once a row stops, later calls hold fewer rows
        assert sizes[0] == len(fns) and sizes[-1] < len(fns)
        assert sizes == sorted(sizes, reverse=True)

    def test_nan_values(self):
        """NaN follows golden_min's comparisons: np.argmin stops at the
        first NaN, min(key=...) only at index 0."""
        coarse = 9
        grid = [-1.0 + 2.0 * i / (coarse - 1) for i in range(coarse)]
        off_grid = [lambda x: x not in grid and abs(x - 0.3) < 0.05,
                    lambda x: x not in grid and x > 0.3]
        fns = [nan_where(quadratic(0.3, 1.0), lambda x: x == grid[0]),
               nan_where(lambda x: math.inf, lambda x: x == grid[0]),
               nan_where(quadratic(grid[5], 1.0), lambda x: x == grid[5]),
               nan_where(lambda x: math.inf, lambda x: x == grid[3]),
               nan_where(quadratic(grid[5], 1.0), lambda x: x in grid[4:]),
               lambda x: math.nan]
        fns += [nan_where(quadratic(0.3, 1.0), at) for at in off_grid]
        m = len(fns)
        seen, _ = assert_rows_match(fns, [-1.0] * m, [1.0] * m, iters=40,
                                    coarse=coarse)
        # the last rows meet NaN at golden steps, not on the grid
        for i in (m - 2, m - 1):
            assert any(math.isnan(fns[i](x)) for x in seen[i][coarse + 2:])

    def test_no_rows(self):
        assert golden_min_rows(lambda rows, xs: [], [], [], 10) == ([], [])


def left_to_right(xs):
    s = 0.0
    for x in xs:
        s += x
    return s


def compensated(xs):
    """Neumaier's sum, which the built-in sum uses from Python 3.12."""
    s = c = 0.0
    for x in xs:
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c


def loglog_slope(pairs, total):
    pts = [(math.log(k), math.log(e)) for k, e in pairs]
    mx = total(x for x, _ in pts) / len(pts)
    my = total(y for _, y in pts) / len(pts)
    return (total((x - mx) * (y - my) for x, y in pts)
            / total((x - mx) ** 2 for x, _ in pts))


class TestFitLoglogSlope:
    # on these points the compensated sums move the slope by two ulps
    PAIRS = [(2 ** k, 3.0 ** -k * (1.0 + 0.1 * k)) for k in range(1, 8)]

    def test_sums_left_to_right(self):
        want = loglog_slope(self.PAIRS, left_to_right)
        assert loglog_slope(self.PAIRS, compensated) != want
        assert bits(fit_loglog_slope(self.PAIRS)) == bits(want)
