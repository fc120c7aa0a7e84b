"""Upper bounds and 1D exact values for the invertibility-constrained
convex envelope of a test function at a barycenter.

Three routes, in decreasing exactness:

* qinv_oracle_1d: exact on the interval, by lower convex hull of the
  function over the admissible slope set (two components separated by
  the singular gap): a _LineHull with g = 0 and d = 1.  Oracle1D holds
  one hull per (v, rho_tilde, grid) and reads it at any barycenter, so
  a caller with many barycenters scans each function once.
* qinv_laminate_upper: greedy recursive rank-one splitting; sound upper
  bound in any supported dimension, witnessed by an atomic measure.
  Each node's coarse scan of dyads is one evaluate_batch call, and a
  _LineHull along the best dyad, read once at the node, refines its
  split.
* qinv_fe_upper: coordinate descent over mesh deformations with the
  affine boundary condition; witnessed by the final deformation.

Each route confines its integrand to K_rho_tilde on entry, through
orho_extend, which returns an integrand already so declared unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ._search import golden_min, lower_hull
from .errors import InfeasibleBarycenter, NoAdmissibleSplit, NoFeasibleStart
from .matcore import Mat, iter_coordinate_dyads
from .measure import AtomicMeasure, Mesh
from .meshdef import MeshDeformation, descend_nodes
from .testfn import evaluate_batch, orho_extend

REPRODUCE_TOL = 1e-9

# points per evaluate_batch call in the line scan; bounds the arrays
# alive at once whatever the grid
_SCAN_BLOCK = 1024


@dataclass(frozen=True)
class EnvelopeEstimate:
    """An envelope value at a barycenter, with the object that attains it.

    value_upper is always a certified upper bound; value_exact is set
    only when the method is exact (the 1D oracle).  The witness is an
    AtomicMeasure (oracle, laminate) or MeshDeformation (fe) whose
    energy reproduces value_upper.
    """

    value_upper: float
    value_exact: float | None
    witness: object
    rho_tilde: float
    method: str
    detail: dict

    def verify(self, v) -> float:
        """Residual between the witness energy and the claimed value."""
        if isinstance(self.witness, AtomicMeasure):
            from .measure import pair
            got = pair(self.witness, v)
        else:
            got = self.witness.energy(v)
        if got == math.inf and self.value_upper == math.inf:
            return 0.0
        return abs(got - self.value_upper)

    def to_json_dict(self) -> dict:
        kind = "measure" if isinstance(self.witness, AtomicMeasure) else "deformation"
        wd = {"kind": kind, "data": self.witness.to_json_dict()}
        return {"value_upper": self.value_upper, "value_exact": self.value_exact,
                "rho_tilde": self.rho_tilde, "method": self.method,
                "witness": wd, "detail": dict(self.detail)}


def _checked(est: EnvelopeEstimate, v) -> EnvelopeEstimate:
    res = est.verify(v)
    if res > REPRODUCE_TOL:
        raise AssertionError(f"witness fails to reproduce the bound: "
                             f"residual {res:.3e}")
    return est


# -- the lower convex hull along a line --------------------------------------


class _LineHull:
    """The lower convex hull of s -> v(g + s d) over sorted disjoint
    intervals: the hull of a batched scan of `points` s per interval,
    made once on construction; read(s0) is the only work per point.
    `size` is the hull's size (the count of finite grid points when
    under two), `evaluations` the evaluations of v so far, scan and
    reads."""

    def __init__(self, v, g: Mat, d: Mat, intervals, points: int):
        self.v, self.g, self.d, self.intervals = v, g, d, intervals
        n = g.n
        gf, df = np.array(g.flat), np.array(d.flat)
        self.evaluations = 0
        pts = []
        for lo, hi in intervals:
            for start in range(0, points, _SCAN_BLOCK):
                i = np.arange(start, min(start + _SCAN_BLOCK, points))
                s = lo + (hi - lo) * (i / (points - 1))
                vals = evaluate_batch(v, (gf + s[:, None] * df).reshape(-1, n, n))
                self.evaluations += len(s)
                keep = vals < math.inf
                pts.extend(zip(s[keep].tolist(), vals[keep].tolist()))
        self.hull = lower_hull(pts) if len(pts) >= 2 else pts
        self.size = len(self.hull)

    def read(self, s0: float):
        """The hull at s0: its supporting pair, then a golden polish of
        each end of the pair, the other end held fixed, against the grid
        bias.  Returns (value, sa, sb), sa <= s0 <= sb; value is +inf and
        sa = sb = s0 when fewer than two grid points are finite."""
        if self.size < 2:
            return math.inf, s0, s0
        hull, intervals, v, g, d = self.hull, self.intervals, self.v, self.g, self.d
        n = g.n

        # supporting segment at s0
        ib = min(bisect_left(hull, s0, key=lambda p: p[0]), len(hull) - 1)
        ia = ib - 1 if hull[0][0] < s0 < hull[-1][0] else ib
        sa, sb = hull[ia][0], hull[ib][0]
        comp_a, comp_b = (next(iv for iv in reversed(intervals) if iv[0] <= s)
                          for s in (sa, sb))

        def ev(s: float) -> float:
            self.evaluations += 1
            return v.evaluate(Mat(n, tuple(x + s * y for x, y in zip(g.flat, d.flat))))

        def lever(a: float, b: float, va=None, vb=None) -> float:
            """la v(a) + (1 - la) v(b) at the lever rule weight la; an end
            whose value is given is not evaluated again."""
            if b - a < 1e-15:
                if abs(a - s0) >= 1e-12:
                    return math.inf
                return ev(a) if va is None else va
            la = (b - s0) / (b - a)
            if la < -1e-12 or la > 1.0 + 1e-12:
                return math.inf
            la = min(1.0, max(0.0, la))
            va = ev(a) if va is None else va
            vb = ev(b) if vb is None else vb
            return la * va + (1.0 - la) * vb

        best_val = lever(sa, sb)
        for _ in range(2):
            lo, hi = comp_a[0], min(comp_a[1], s0)
            if hi > lo:
                vb = ev(sb)
                sa_new, val = golden_min(lambda a: lever(a, sb, vb=vb), lo, hi,
                                         iters=48)
                if val < best_val:
                    sa, best_val = sa_new, val
            lo, hi = max(comp_b[0], s0), comp_b[1]
            if hi > lo:
                va = ev(sa)
                sb_new, val = golden_min(lambda b: lever(sa, b, va=va), lo, hi,
                                         iters=48)
                if val < best_val:
                    sb, best_val = sb_new, val
        return best_val, sa, sb


# -- 1D exact oracle ---------------------------------------------------------


class Oracle1D:
    """The exact envelope of v on the interval, at any barycenter.

    The admissible slope set is K = [-rt, -1/rt] u [1/rt, rt]; the
    envelope at f in conv(K) = [-rt, rt] is the lower convex hull of v
    restricted to K, evaluated at f: one _LineHull along the slopes
    themselves, grid // 2 of them on each component of K, scanned at the
    first read of a barycenter in [-rt, rt] and read at each.  A reading
    raises what qinv_oracle_1d raises, in the same order.
    """

    def __init__(self, v, rho_tilde: float, grid: int = 10000):
        if grid < 100:
            raise ValueError("grid must be at least 100")
        if rho_tilde < 1.0:
            raise ValueError("rho_tilde below 1 leaves no admissible slopes")
        self.rho_tilde, self.grid = rho_tilde, grid
        self._v, self._line = v, None

    def read(self, f) -> EnvelopeEstimate:
        """The envelope at f, with its Dirac or two-atom witness."""
        rho_tilde = self.rho_tilde
        fmat = Mat.coerce(f, 1)
        fs = fmat.flat[0]
        if abs(fs) > rho_tilde * (1.0 + 1e-12):
            raise InfeasibleBarycenter(f"barycenter {fs:.6g} outside "
                                       f"[-{rho_tilde:.6g}, {rho_tilde:.6g}]")
        if self._line is None:
            comps = ((-rho_tilde, -1.0 / rho_tilde), (1.0 / rho_tilde, rho_tilde))
            self._line = _LineHull(orho_extend(self._v, rho_tilde), Mat.scalar(0.0),
                                   Mat.scalar(1.0), comps, self.grid // 2)
        line = self._line
        if line.size < 2:
            raise NoAdmissibleSplit("the function is infinite on the admissible set")
        v = line.v
        best_val, sa, sb = line.read(fs)
        dirac_val = v.evaluate(fmat)  # infinite off K
        if dirac_val <= best_val or sb - sa < 1e-12:
            value = min(dirac_val, best_val)
            witness = AtomicMeasure.dirac(fmat)
        else:
            value = best_val
            la = (sb - fs) / (sb - sa)
            pairs = [(Mat.scalar(sa), la), (Mat.scalar(sb), 1.0 - la)]
            witness = AtomicMeasure((m, wgt) for m, wgt in pairs if wgt > 1e-15)
        est = EnvelopeEstimate(value, value, witness, rho_tilde, "oracle_1d",
                               {"grid": self.grid, "hull_size": line.size,
                                "support": [sa, sb]})
        return _checked(est, v)


def qinv_oracle_1d(v, f, rho_tilde: float, grid: int = 10000) -> EnvelopeEstimate:
    """Exact envelope value on the interval at f: Oracle1D(v, rho_tilde,
    grid) read once."""
    fmat = Mat.coerce(f, 1)  # a malformed f is reported before grid or rho_tilde
    return Oracle1D(v, rho_tilde, grid).read(fmat)


# -- greedy lamination upper bound -------------------------------------------


def _angular_dyads(n: int, angles: int) -> list:
    dyads = list(iter_coordinate_dyads(n))
    if n == 2:
        for i in range(angles):
            ai = math.pi * i / angles
            av = (math.cos(ai), math.sin(ai))
            for j in range(angles):
                bj = math.pi * j / angles
                mv = (math.cos(bj), math.sin(bj))
                dyads.append(Mat.outer(av, mv))
    return dyads


_LAMBDA_COARSE = (0.5, 0.25, 0.75, 0.125, 0.875)

# grid points of the line hull along a node's best dyad, on [-2 rt, 2 rt]
_LINE_POINTS = 1025


def qinv_laminate_upper(v, f, rho_tilde: float, depth: int = 2,
                        angles: int = 32) -> EnvelopeEstimate:
    """Upper bound by recursive rank-one splitting, greedy at each node.

    Each node either keeps its matrix or splits it along the best dyad
    of a coarse scan; children recurse with one less level.  The witness
    measure collects the leaves.  A node's coarse scan (dyads x 13 t x 5
    lambda) is one batch of its first ends and one of the second ends
    whose first end is finite; it keeps the first least split in scan
    order, as a sequential scan with a strict < would.  The node then
    takes the supporting pair of a _LineHull along that dyad instead,
    unless the pair does not straddle the node or is worse.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    v = orho_extend(v, rho_tilde)
    fmat = Mat.coerce(f)
    n = fmat.n
    dyads = _angular_dyads(n, angles)
    tmax = 2.0 * rho_tilde
    evals = [0]

    # the scan's splits in scan order: dyad, then t, then lambda; the
    # steps g - a and b - g of each
    splits = [(tmax * i / 13.0, lam) for i in range(1, 14)
              for lam in _LAMBDA_COARSE]
    lams = np.tile([lam for _, lam in splits], len(dyads))
    rest = np.tile([1.0 - lam for _, lam in splits], len(dyads))
    dyad_rows = np.array([d.flat for d in dyads])[:, None, :]
    step_a = (np.array([(1.0 - lam) * t for t, lam in splits])[None, :, None]
              * dyad_rows).reshape(-1, n, n)
    step_b = (np.array([lam * t for t, lam in splits])[None, :, None]
              * dyad_rows).reshape(-1, n, n)

    def scan(g: Mat):
        """The value lam v(a) + (1 - lam) v(b) of every coarse split of g:
        the first least value and its (dyad, t, lambda), or None when
        every split is infinite."""
        ga = np.array(g.flat).reshape(1, n, n)
        va = evaluate_batch(v, ga - step_a)
        first = np.flatnonzero(va != math.inf)
        vb = evaluate_batch(v, ga + step_b[first])
        evals[0] += len(va) + len(first)
        finite = vb != math.inf
        both = first[finite]
        vals = np.full(len(va), math.inf)
        vals[both] = lams[both] * va[both] + rest[both] * vb[finite]
        # a NaN split never wins, as under the scalar <
        i = int(np.argmin(np.fmin(vals, math.inf)))
        if not vals[i] < math.inf:
            return math.inf, None
        dyad = dyads[i // len(splits)]
        return float(vals[i]), (dyad,) + splits[i % len(splits)]

    def node(g: Mat, d: int):
        evals[0] += 1
        base = v.evaluate(g)
        if d == 0:
            return base, [(g, 1.0)]
        coarse, best = scan(g)
        if best is None:
            return base, [(g, 1.0)]
        # a coarse best no better than base still splits, in case the
        # children find better
        dyad, t, lam = best
        sa, sb = -(1.0 - lam) * t, lam * t
        line = _LineHull(v, g, dyad, ((-tmax, tmax),), _LINE_POINTS)
        value, ra, rb = line.read(0.0)
        evals[0] += line.evaluations
        if value <= coarse and ra < 0.0 < rb:
            sa, sb, lam = ra, rb, rb / (rb - ra)
        va, wa = node(g + sa * dyad, d - 1)
        vb, wb = node(g + sb * dyad, d - 1)
        cand = lam * va + (1.0 - lam) * vb
        if cand < base:
            leaves = [(m, lam * wgt) for m, wgt in wa]
            leaves += [(m, (1.0 - lam) * wgt) for m, wgt in wb]
            return cand, leaves
        return base, [(g, 1.0)]

    value, leaves = node(fmat, depth)
    if value == math.inf:
        raise NoAdmissibleSplit("no finite rank-one split of the barycenter "
                                "was found; raise depth, angles or rho_tilde")
    witness = AtomicMeasure((m, wgt) for m, wgt in leaves if wgt > 1e-15)
    est = EnvelopeEstimate(value, None, witness, rho_tilde, "laminate",
                           {"depth": depth, "angles": angles,
                            "evaluations": evals[0],
                            "atoms": len(witness.atoms)})
    return _checked(est, v)


# -- finite element upper bound ----------------------------------------------


def _fe_start_1d(v, fs: float, cells: int, rho_tilde: float):
    """Node values with finite energy: affine if possible, else a snapped
    two-slope profile built from the coarse 1D oracle support."""
    xs = np.linspace(0.0, 1.0, cells + 1)
    if v.evaluate(Mat.scalar(fs)) < math.inf:
        return fs * xs
    if cells == 1:
        raise NoFeasibleStart("one cell has no interior node, so the affine "
                              "map is the only deformation, and its energy "
                              "is infinite")
    oracle = qinv_oracle_1d(v, fs, rho_tilde, grid=2000)
    atoms = [(m.flat[0], w) for m, w in oracle.witness.atoms]
    if len(atoms) == 1:  # the lone atom is the barycenter fs, ruled out above
        raise NoFeasibleStart("no finite-energy deformation with this "
                              "boundary slope was found")
    (s1, w1), (s2, w2) = atoms[:2]
    k1 = min(cells - 1, max(1, round(w1 * cells)))
    # shift both slopes so the snapped profile still ends at fs
    delta = fs - (k1 * s1 + (cells - k1) * s2) / cells
    a, b = s1 + delta, s2 + delta
    if (v.evaluate(Mat.scalar(a)) == math.inf
            or v.evaluate(Mat.scalar(b)) == math.inf):
        # put the correction on the wider group instead
        a = (fs * cells - (cells - k1) * s2) / k1
        b = s2
        if (v.evaluate(Mat.scalar(a)) == math.inf
                or v.evaluate(Mat.scalar(b)) == math.inf):
            raise NoFeasibleStart("could not snap a two-slope profile to the "
                                  "mesh inside the admissible set")
    vals = np.empty(cells + 1)
    vals[0] = 0.0
    for i in range(cells):
        vals[i + 1] = vals[i] + (a if i < k1 else b) / cells
    vals[cells] = fs
    return vals


def qinv_fe_upper(v, f, mesh_cells: int, rho_tilde: float,
                  iters: int = 200) -> EnvelopeEstimate:
    """Upper bound by coordinate descent over mesh deformations with the
    affine boundary condition; cell gradients are confined to the
    rho_tilde ball.
    """
    v = orho_extend(v, rho_tilde)
    fmat = Mat.coerce(f)
    n = fmat.n

    if n == 1:
        mesh = Mesh.interval(mesh_cells)
        vals = _fe_start_1d(v, fmat.flat[0], mesh_cells, rho_tilde)
        u = MeshDeformation(mesh, vals)
    else:
        mesh = Mesh.square(mesh_cells)
        if v.evaluate(fmat) == math.inf:
            raise NoFeasibleStart("the affine start is inadmissible and no "
                                  "two-dimensional fallback profile is built")
        u = MeshDeformation.affine(mesh, fmat)

    if u.energy(v) == math.inf:
        raise NoFeasibleStart("the starting deformation has infinite energy")

    iters_golden, coarse = (40, 9) if n == 1 else (28, 7)
    u, sweeps = descend_nodes(u, lambda c, g: v.evaluate(g),
                              2.0 * rho_tilde / max(mesh.shape), iters, 1e-12,
                              iters_golden, coarse)
    energy = u.energy(v)

    est = EnvelopeEstimate(energy, None, u, rho_tilde, "fe",
                           {"mesh_cells": mesh_cells, "sweeps": sweeps})
    return _checked(est, v)

