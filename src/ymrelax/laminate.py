"""Piecewise-affine deformations and laminate generating sequences.

A GradientField is a continuous piecewise-affine deformation whose
gradient is constant on parallel slabs.  In 1D the domain is the unit
interval.  In 2D the domain is the unit square rotated so the slab
normal m is one of its axes: points are t*m + s*m_perp with t, s in
[0, 1].  Pairings of functionals with these fields depend only on slab
widths and gradients, so the rotation is immaterial and keeps volume
fractions of a laminate exact at every oscillation count.

Fine laminates with atom volume fractions equal to prescribed weights
realize an atomic measure as the oscillation limit of the gradients;
verify_generation measures the convergence empirically, and
boundary_glue attaches affine boundary values through a thin transition
layer.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from ._search import fit_loglog_slope
from .errors import BudgetExceeded, InfeasibleLayer, NotRankOne
from .matcore import (
    Mat,
    dets,
    frob_norm,
    frob_norms,
    inv_norms,
    max_norm_pair,
    quiet,
    rank_one_difference,
    stack,
    sum_rows,
)
from .testfn import evaluate_batch

JUMP_TOL = 1e-10
MIN_PIECE_WIDTH = 1e-9

# errors below this are float noise from exact constructions, not a
# convergence signal
EXACT_ERROR_TOL = 1e-13

# integrate_weight's midpoints on [0, 1], and per side of the unit square
WEIGHT_GRID_1D = 8192
WEIGHT_GRID_2D = 128


def _perp(m: tuple) -> tuple:
    return (-m[1], m[0])


def _slab_points(normal: tuple, t: np.ndarray, s: float) -> np.ndarray:
    """The points t*m + s*m_perp of the domain at each slab coordinate
    of t, as rows x[len(t), n]; t itself in 1D."""
    if len(normal) == 1:
        return t[:, None]
    perp = _perp(normal)
    return np.stack([t * normal[k] + s * perp[k] for k in range(2)], axis=1)


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    return math.fsum(a * b for a, b in zip(u, v))


@dataclass(frozen=True, eq=False)
class GradientField:
    """Continuous deformation, affine on parallel slabs of the domain.

    breaks are slab coordinates 0 = t_0 < ... < t_M = 1 along the unit
    normal; piece i carries y(x) = grads[i] x + offsets[i] on the slab
    breaks[i] <= normal . x < breaks[i+1].

    Its scale, the largest of 1, its gradient norms and its |offsets|,
    must be a finite float, so gradient entries stay below about 1.3e154
    and every jump between them is finite.  Continuity is judged against
    JUMP_TOL * scale.
    """

    n: int
    normal: tuple
    breaks: tuple
    grads: tuple
    offsets: tuple

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("gradient fields support dimensions 1 and 2")
        m = len(self.grads)
        if len(self.breaks) != m + 1 or len(self.offsets) != m:
            raise ValueError("piece counts are inconsistent")
        if abs(self.breaks[0]) > 1e-14 or abs(self.breaks[-1] - 1.0) > 1e-14:
            raise ValueError("slab coordinates must span [0, 1]")
        for i in range(m):
            if self.breaks[i + 1] - self.breaks[i] <= 0.0:
                raise ValueError("slab widths must be positive")
        if len(self.normal) != self.n:
            raise ValueError(f"normal has {len(self.normal)} entries, "
                             f"not {self.n}")
        if abs(_dot(self.normal, self.normal) - 1.0) > 1e-12:
            raise ValueError("normal must be a unit vector")
        for g in self.grads:
            if g.n != self.n:
                raise ValueError("gradient dimension mismatch")
        for b in self.offsets:
            if len(b) != self.n:
                raise ValueError("offset dimension mismatch")
        self._check_interfaces()

    @cached_property
    def grad_stack(self) -> np.ndarray:
        """The piece gradients as one array g[pieces, n, n]."""
        return stack(self.grads, self.n)

    def _check_interfaces(self):
        """The scale, then continuity at the stations of each interface,
        where each value jump err must satisfy err <= JUMP_TOL * scale.
        The jumps are taken on arrays, each sum left to right; an
        overflowing one reads inf and fails.  Continuity is what forces
        a gradient jump dg to be rank one along the normal m (the
        Hadamard condition dg m_perp = 0), so the first interface that
        fails is classified: in 2D, NotRankOne when |dg m_perp| is over
        JUMP_TOL * scale, else the value jump's ValueError."""
        n = self.n
        g = self.grad_stack
        b = np.fromiter(chain.from_iterable(self.offsets), float,
                        count=len(self.offsets) * n).reshape(-1, n)
        with quiet():
            scale = float(np.max(np.concatenate(([1.0], frob_norms(g), np.abs(b).ravel()))))
            if not math.isfinite(scale):
                # gradient norms beyond the float range, not the NaN offsets chained from them
                scale = max(scale, float(np.max(frob_norms(g), initial=1.0)), key=math.isinf)
                raise ValueError(f"the field's scale {scale} leaves the float range: "
                                 "gradient norms and offsets must be finite")
            dg = g[1:] - g[:-1]
            db = b[1:] - b[:-1]
            t = np.array(self.breaks[1:-1])
            errs = []
            for s in (0.0, 0.5, 1.0) if n == 2 else (0.0,):
                x = _slab_points(self.normal, t, s)
                e = sum_rows((dg * x[:, None, :]).reshape(-1, n)).reshape(-1, n) + db
                # squares as products: ** 2 (libm's pow) may round an ulp apart
                errs.append(np.sqrt(sum_rows(e * e)))
            bad = ~(np.stack(errs, axis=1) <= JUMP_TOL * scale)
        hit = np.flatnonzero(bad.any(axis=1))
        if not len(hit):
            return
        i = int(hit[0])
        if n == 2:
            tan = sum_rows(dg[i] * np.array(_perp(self.normal))).tolist()
            if math.sqrt(tan[0] * tan[0] + tan[1] * tan[1]) > JUMP_TOL * scale:
                raise NotRankOne(f"gradient jump at interface {i} is not rank one "
                                 "along the normal")
        err = errs[int(np.argmax(bad[i]))][i]
        raise ValueError(f"deformation jumps by {err:.3e} at interface {i}")

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_pieces(cls, n: int, normal: Sequence[float], widths: Sequence[float],
                    grads: Sequence[Mat], start_value: Sequence[float] | None = None
                    ) -> "GradientField":
        """Chain offsets so the deformation is continuous, starting from
        y(0) = start_value (default 0).  Gradient jumps must be rank one
        along the normal; zero-width pieces are dropped.  Breaks and
        offsets are running sums, each added in piece order."""
        if len(widths) != len(grads):
            raise ValueError(f"{len(widths)} piece widths for {len(grads)} gradients")
        normal = tuple(float(x) for x in normal)
        kept = [(float(w), g) for w, g in zip(widths, grads) if w > 0.0]
        if not kept:
            raise ValueError("need at least one piece")
        b = tuple(float(x) for x in (start_value or (0.0,) * n))
        breaks = np.cumsum([0.0] + [w for w, _ in kept]).tolist()
        # accumulated width must land on 1; snap the float dust
        total = breaks[-1]
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"piece widths sum to {total!r}, not 1")
        breaks[-1] = 1.0
        out_grads = tuple(g for _, g in kept)
        if len(normal) != n:
            raise ValueError("vector length does not match dimension")
        if any(g.n != n for g in out_grads):
            raise ValueError("dimension mismatch")
        if len(b) != n:
            raise ValueError("offset dimension mismatch")
        g = stack(out_grads, n)
        with quiet():
            # offset i+1 = offset i - t_{i+1} (g_{i+1} - g_i) normal
            a = sum_rows(((g[1:] - g[:-1]) * np.array(normal)).reshape(-1, n))
            steps = -(np.array(breaks[1:-1])[:, None] * a.reshape(-1, n))
            offsets = np.cumsum(np.vstack([b, steps]), axis=0)
        return cls(n, normal, tuple(breaks), out_grads, tuple(zip(*offsets.T.tolist())))

    @classmethod
    def from_slopes_1d(cls, slopes: Sequence[float], widths: Sequence[float],
                       y0: float = 0.0) -> "GradientField":
        return cls.from_pieces(1, (1.0,), widths,
                               [Mat.scalar(s) for s in slopes], (y0,))

    @classmethod
    def affine(cls, f: Mat) -> "GradientField":
        n = f.n
        return cls(n, (1.0,) if n == 1 else (1.0, 0.0), (0.0, 1.0), (f,),
                   ((0.0,) * n,))

    # -- geometry -------------------------------------------------------

    @property
    def pieces(self) -> int:
        return len(self.grads)

    @property
    def widths(self) -> tuple:
        return tuple(self.breaks[i + 1] - self.breaks[i] for i in range(self.pieces))

    def piece_index(self, t: float) -> int:
        if t < -1e-12 or t > 1.0 + 1e-12:
            raise ValueError("slab coordinate outside the domain")
        return bisect_right(self.breaks, t, 1, self.pieces) - 1

    def value(self, x: Sequence[float]) -> tuple:
        i = self.piece_index(_dot(self.normal, x))
        gx = self.grads[i].mul_vec(x)
        return tuple(g + b for g, b in zip(gx, self.offsets[i]))

    def gradient_at(self, x: Sequence[float]) -> Mat:
        return self.grads[self.piece_index(_dot(self.normal, x))]

    # -- summaries ------------------------------------------------------

    def sup_norm(self) -> float:
        with quiet():
            return max(frob_norms(self.grad_stack).tolist())

    def sup_inv_norm(self) -> float:
        with quiet():
            return max(inv_norms(self.grad_stack).tolist())

    def min_det(self) -> float:
        with quiet():
            return min(dets(self.grad_stack).tolist())

    def to_csv_rows(self) -> list:
        rows = [["piece", "t_lo", "t_hi"]
                + [f"g{i}{j}" for i in range(self.n) for j in range(self.n)]]
        for i, g in enumerate(self.grads):
            rows.append([i, self.breaks[i], self.breaks[i + 1]] + list(g.flat))
        return rows

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "normal": list(self.normal),
            "breaks": list(self.breaks),
            "grads": [list(g.flat) for g in self.grads],
            "offsets": [list(b) for b in self.offsets],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GradientField":
        return cls(d["n"], tuple(d["normal"]), tuple(d["breaks"]),
                   tuple(Mat.from_flat(g) for g in d["grads"]),
                   tuple(tuple(b) for b in d["offsets"]))


# -- laminate sequences ---------------------------------------------------


@dataclass(frozen=True)
class BoundaryDatum:
    """Affine boundary condition with a transition layer budget."""

    f: Mat
    layer_width: float
    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.layer_width < 0.5:
            raise ValueError("layer width must sit in (0, 1/2)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class SequenceSpec:
    """Oscillation recipe: atoms with weights, k periods per unit length."""

    atoms: tuple
    weights: tuple
    k: int

    def __post_init__(self):
        if len(self.atoms) != len(self.weights) or not self.atoms:
            raise ValueError("need matching nonempty atoms and weights")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        if any(not w > 0.0 for w in self.weights):
            raise ValueError("weights must be positive")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        n = self.atoms[0].n
        if n not in (1, 2):
            raise ValueError("laminate construction supports dimensions 1 and 2")
        for a in self.atoms:
            if a.n != n:
                raise ValueError("atoms must share one dimension")


def _laminate_normal(atoms: Sequence[Mat]) -> tuple:
    """The direction of the longest row of the first nonzero jump
    between consecutive atoms, signed and rounded as rank_one_difference
    gives it.  No rank test here: the field's continuity check decides
    rank one at every interface, wrap-around included, against it."""
    if atoms[0].n == 1:
        return (1.0,)
    for a, b in zip(atoms, atoms[1:]):
        if frob_norm(b - a) > 1e-13:
            # row lengths as rank_one_difference ranks them; one whose
            # square overflows reads inf
            row = max((b - a).rows(), key=lambda r: math.sqrt(r[0] * r[0] + r[1] * r[1]))
            return rank_one_difference(Mat.zero(2), Mat.from_rows([row, [0.0, 0.0]]))[1]
    return (1.0, 0.0)


def build_laminate_sequence(spec: SequenceSpec) -> GradientField:
    """Fine laminate with k periods; every atom occupies volume fraction
    equal to its weight, exactly, at every k."""
    atoms = spec.atoms
    normal = _laminate_normal(atoms)
    if min(spec.weights) / spec.k < MIN_PIECE_WIDTH:
        raise BudgetExceeded(f"k={spec.k} drives slab widths below resolution")
    widths = []
    grads = []
    for _ in range(spec.k):
        for a, w in zip(atoms, spec.weights):
            widths.append(w / spec.k)
            grads.append(a)
    return GradientField.from_pieces(atoms[0].n, normal, widths, grads)


# -- empirical pairings ----------------------------------------------------


WEIGHT_FUNCTIONS: dict = {
    "one": lambda x: 1.0,
    "x1": lambda x: x[0],
    "x1_squared": lambda x: x[0] * x[0],
    "sin1": lambda x: math.sin(2.0 * math.pi * x[0]),
}


def empirical_pairing(field: GradientField, v, g: Callable) -> float:
    """Integral of v(grad y) g(x) over the domain: exact in the gradient
    factor, midpoint quadrature per slab for the spatial weight.  The
    gradient factors are one evaluate_batch over the field's stack."""
    b = np.array(field.breaks)
    mids = _slab_points(field.normal, 0.5 * (b[:-1] + b[1:]), 0.5)
    vals = evaluate_batch(v, field.grad_stack).tolist()
    return math.fsum(w * val * g(x) for w, val, x in
                     zip(field.widths, vals, zip(*mids.T.tolist())))


def integrate_weight(g: Callable, n: int, normal: Sequence[float]) -> float:
    """Midpoint quadrature of the spatial weight over the domain, a row of
    points at a time; fsum's sum does not depend on their order."""
    side = WEIGHT_GRID_1D if n == 1 else WEIGHT_GRID_2D
    h = 1.0 / side
    mids = (np.arange(side) + 0.5) * h
    acc = []
    for s in (0.0,) if n == 1 else mids.tolist():
        acc += map(g, zip(*_slab_points(normal, mids, s).T.tolist()))
    return math.fsum(acc) * h * (1.0 if n == 1 else h)


@dataclass(frozen=True)
class GenerationEntry:
    """Convergence record for one (test function, weight) pair."""

    v_description: str
    g_name: str
    limit: float
    errors: tuple  # ((k, |empirical - limit|), ...)
    slope: float | None
    exact: bool
    decaying: bool

    def to_json_dict(self) -> dict:
        return {"v": self.v_description, "g": self.g_name, "limit": self.limit,
                "errors": [[k, e] for k, e in self.errors],
                "slope": self.slope, "exact": self.exact, "decaying": self.decaying}


@dataclass(frozen=True)
class GenerationReport:
    """verify_generation output: per-pair errors plus uniform bounds on
    the built sequence (norm, inverse norm, determinant sign), and the
    laminate at the largest k, which the report does not serialize."""

    k_ladder: tuple
    entries: tuple
    sup_norm: float
    sup_inv_norm: float
    min_det: float
    det_positive: bool
    finest: GradientField

    def to_json_dict(self) -> dict:
        return {
            "k_ladder": list(self.k_ladder),
            "entries": [e.to_json_dict() for e in self.entries],
            "sup_norm": self.sup_norm,
            "sup_inv_norm": self.sup_inv_norm,
            "min_det": self.min_det,
            "det_positive": self.det_positive,
        }


def verify_generation(spec: SequenceSpec, v_battery: Sequence,
                      g_battery: Sequence[str],
                      k_ladder: Sequence[int]) -> GenerationReport:
    """Compare empirical pairings of the k-laminates against the limit
    measure pairing, for every (v, g) combination; g_battery names
    spatial weights of WEIGHT_FUNCTIONS.

    Errors at float precision (below EXACT_ERROR_TOL) are flagged exact;
    they arise when the quadrature happens to integrate g exactly and do
    not carry a decay rate.
    """
    ks = sorted(set(int(k) for k in k_ladder))
    fields = [build_laminate_sequence(
        SequenceSpec(spec.atoms, spec.weights, k)) for k in ks]
    gs = []
    for name in g_battery:
        if name not in WEIGHT_FUNCTIONS:
            raise ValueError(f"unknown spatial weight {name!r}; "
                             f"known: {sorted(WEIGHT_FUNCTIONS)}")
        gs.append((name, WEIGHT_FUNCTIONS[name]))
    normal = fields[0].normal
    n = spec.atoms[0].n

    g_integrals = {gname: integrate_weight(g, n, normal) for gname, g in gs}
    atom_pairs = list(zip(spec.atoms, spec.weights))

    def run_pair(v, gname, g):
        limit = math.fsum(w * v.evaluate(a) for a, w in atom_pairs) * g_integrals[gname]
        errs = []
        for k, field in zip(ks, fields):
            emp = empirical_pairing(field, v, g)
            errs.append((k, abs(emp - limit)))
        slope = fit_loglog_slope([(k, e) for k, e in errs if e > EXACT_ERROR_TOL])
        exact = all(e <= EXACT_ERROR_TOL for _, e in errs)
        decaying = exact or (slope is not None and slope <= -0.5)
        return GenerationEntry(v.description or "v", gname, limit,
                               tuple(errs), slope, exact, decaying)

    entries = [run_pair(v, gname, g) for v in v_battery for gname, g in gs]

    sup = max(f.sup_norm() for f in fields)
    sup_inv = max(f.sup_inv_norm() for f in fields)
    mdet = min(f.min_det() for f in fields)
    return GenerationReport(tuple(ks), tuple(entries), sup, sup_inv,
                            mdet, mdet > 0.0, fields[-1])


# -- boundary gluing --------------------------------------------------------


@dataclass(frozen=True)
class GlueReport:
    """What the transition layer did to the field."""

    modified_volume: float
    alpha: float
    cap: float
    sup_norm: float
    sup_inv_norm: float
    min_det: float
    layer_gradients: tuple
    boundary_mismatch: float
    orientation_preserved: bool

    def to_json_dict(self) -> dict:
        return {
            "modified_volume": self.modified_volume,
            "alpha": self.alpha,
            "cap": self.cap,
            "sup_norm": self.sup_norm,
            "sup_inv_norm": self.sup_inv_norm,
            "min_det": self.min_det,
            "layer_gradients": [list(g.flat) for g in self.layer_gradients],
            "boundary_mismatch": self.boundary_mismatch,
            "orientation_preserved": self.orientation_preserved,
        }


def _restrict_pieces(field: GradientField, lo: float, hi: float) -> list:
    """Pieces of the field clipped to [lo, hi]: (t0, t1, grad, offset)."""
    out = []
    for i in range(field.pieces):
        a, b = field.breaks[i], field.breaks[i + 1]
        t0, t1 = max(a, lo), min(b, hi)
        if t1 - t0 > 1e-15:
            out.append((t0, t1, field.grads[i], field.offsets[i]))
    return out


def _layer_is_affine(field: GradientField, f: Mat, lo: float, hi: float) -> bool:
    scale = max(1.0, frob_norm(f))
    for _, _, g, b in _restrict_pieces(field, lo, hi):
        if frob_norm(g - f) > 1e-12 * scale:
            return False
        if math.sqrt(math.fsum(x * x for x in b)) > 1e-12 * scale:
            return False
    return True


def _slope_band(t: float, y: float, disp: float, width: float, cap: float) -> list:
    """Pieces (t0, t1, grad, offset) of a 1D layer on [t, t + width]
    that starts at the value y and rises by disp, with slopes +-cap."""
    avg = disp / width
    if abs(avg) > cap * (1.0 + 1e-12):
        raise InfeasibleLayer(f"layer needs average slope {avg:.6g}, "
                              f"cap is {cap:.6g}; shrink the layer or raise epsilon")
    theta = 0.5 * (1.0 + min(1.0, max(-1.0, avg / cap)))
    out = []
    for part, slope in ((theta * width, cap), ((1.0 - theta) * width, -cap)):
        # a side whose width vanishes against t (an average slope at the
        # cap up to rounding) is dropped
        if t + part > t:
            out.append((t, t + part, Mat.scalar(slope), (y - slope * t,)))
        y = y + slope * part
        t += part
    return out


def _band_2d(f: Mat, m: tuple, w: float, cap: float, inner: tuple,
             left: bool) -> tuple:
    """The affine band on the left or right end that meets the inner
    piece (t0, t1, grad, offset) next to it and the boundary value."""
    _, _, g, b = inner
    if left:
        band = g + Mat.outer(tuple(x / w for x in b), m)
        piece = (0.0, w, band, (0.0, 0.0))
    else:
        fm = f.mul_vec(m)
        gm = g.mul_vec(m)
        c = tuple((fm[i] - gm[i] - b[i]) / w for i in range(2))
        band = g + Mat.outer(c, m)
        piece = (1.0 - w, 1.0, band, tuple(b[i] - (1.0 - w) * c[i] for i in range(2)))
    if not max_norm_pair(band) <= cap:
        raise InfeasibleLayer(f"{'left' if left else 'right'} band gradient leaves "
                              f"the {cap:.4g}-ball (|G| = {frob_norm(band):.4g})")
    return piece


def boundary_glue(field: GradientField, f: Mat, layer_width: float,
                  epsilon: float):
    """Impose the affine boundary condition y = F x through transition
    layers of the given width at both ends of the slab direction.

    1D: exact.  The layer uses the two slopes +-(alpha + epsilon), the
    scaled one-dimensional orthogonal set, chosen to match endpoint
    displacements; endpoint values are exact and the interior is
    untouched.  Orientation is generally not preserved inside the layer.

    2D: approximate.  One affine band per end matches the interior trace
    and the boundary value on the two slab-end edges exactly; on the two
    lateral edges the residual oscillation remains and its sup is
    reported as boundary_mismatch.  Band gradients must stay in the
    (alpha + epsilon)-ball or InfeasibleLayer is raised.
    """
    BoundaryDatum(f, layer_width, epsilon)  # checks the width and epsilon
    if f.n != field.n:
        raise ValueError("boundary matrix dimension mismatch")
    alpha = max(max_norm_pair(g) for g in field.grads)
    if alpha == math.inf:
        raise InfeasibleLayer("an interior gradient is singular; no slope "
                              "cap bounds the field")
    if frob_norm(f) > alpha + 1e-12:
        raise InfeasibleLayer(f"|F| = {frob_norm(f):.6g} exceeds the interior "
                              f"bound alpha = {alpha:.6g}")
    cap = alpha + epsilon
    w = layer_width
    if field.n == 2:
        perp = _perp(field.normal)
        g_tan = field.grads[0].mul_vec(perp)
        f_tan = f.mul_vec(perp)
        tan_err = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(g_tan, f_tan)))
        if tan_err > 1e-9 * max(1.0, frob_norm(f)):
            raise InfeasibleLayer("boundary matrix acts differently on the lateral "
                                  f"direction than the field (mismatch {tan_err:.3e}); "
                                  "no slab-wise transition band exists")

    do_left = not _layer_is_affine(field, f, 0.0, w)
    do_right = not _layer_is_affine(field, f, 1.0 - w, 1.0)
    if not (do_left or do_right):
        report = GlueReport(0.0, alpha, cap, field.sup_norm(), field.sup_inv_norm(),
                            field.min_det(), (), 0.0, field.min_det() > 0.0)
        return field, report

    middle = _restrict_pieces(field, w if do_left else 0.0,
                              1.0 - w if do_right else 1.0)
    left, right = [], []
    if field.n == 1:
        if do_left:
            left = _slope_band(0.0, 0.0, field.value((w,))[0], w, cap)
        if do_right:
            y_in = field.value((1.0 - w,))[0]
            right = _slope_band(1.0 - w, y_in, f.flat[0] - y_in, w, cap)
        glued = _assemble(1, (1.0,), left + middle + right)
        mismatch = max(abs(glued.value((0.0,))[0]),
                       abs(glued.value((1.0,))[0] - f.flat[0]))
    else:
        if do_left:
            left = [_band_2d(f, field.normal, w, cap, middle[0], True)]
        if do_right:
            right = [_band_2d(f, field.normal, w, cap, middle[-1], False)]
        glued = _assemble(2, field.normal, left + middle + right)
        mismatch = _lateral_mismatch(glued, f)
    report = GlueReport((w if do_left else 0.0) + (w if do_right else 0.0),
                        alpha, cap, glued.sup_norm(), glued.sup_inv_norm(),
                        glued.min_det(), tuple(p[2] for p in left + right),
                        mismatch, glued.min_det() > 0.0)
    return glued, report


def _assemble(n: int, normal: tuple, pieces: list) -> GradientField:
    pieces = sorted(pieces, key=lambda p: p[0])
    breaks = [pieces[0][0]] + [p[1] for p in pieces]
    breaks[0], breaks[-1] = 0.0, 1.0
    return GradientField(n, tuple(normal), tuple(breaks),
                         tuple(p[2] for p in pieces), tuple(p[3] for p in pieces))


def _lateral_mismatch(field: GradientField, f: Mat) -> float:
    """sup |y - Fx| over the whole domain boundary, sampled at piece
    corners and at the midpoints of the two slab-end edges."""
    t = np.array(field.breaks)
    corners = np.stack([_slab_points(field.normal, t, s) for s in (0.0, 1.0)], axis=1)
    ends = _slab_points(field.normal, np.array([0.0, 1.0]), 0.5)
    worst = 0.0
    for x in chain(corners.reshape(-1, 2).tolist(), ends.tolist()):
        worst = max(worst, math.sqrt(math.fsum(
            (a - b) ** 2 for a, b in zip(field.value(x), f.mul_vec(x)))))
    return worst
