"""Atomic measure algebra on matrix space and cellwise measure fields.

An AtomicMeasure is a finitely supported probability measure on the
space of n x n matrices.  Atoms linked by Frobenius distances within
MERGE_TOL are merged at construction, atoms are stored in a canonical
(lexicographic) order, and weights must sum to one within WEIGHT_TOL.

A YoungMeasureField attaches one atomic measure to every cell of a
uniform mesh on the unit interval or unit square, with triangle cells
in 2D so a piecewise-affine deformation has one gradient per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import SingularAtom
from .matcore import (Mat, RhoBall, dets, frob_norms, in_rho_ball, inv_norms,
                      inverse, mat_close, quiet, stack)
from .testfn import make_phi_rho

MERGE_TOL = 1e-10
WEIGHT_TOL = 1e-12
PAIRING_TOL = 1e-12

# classify reads at most this many cells at a time, so its arrays stay
# small however many cells a field has
CLASSIFY_BLOCK = 1024


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely supported probability measure on n x n matrices, built
    from (matrix, weight) pairs: atoms linked through a chain of
    distances within MERGE_TOL merge at the smallest flat location of
    their group with the fsum of its weights, sorted by flat entries."""

    atoms: tuple  # ((Mat, weight), ...) canonical: merged, sorted, positive

    def __post_init__(self):
        items = [(Mat.coerce(a), float(w)) for a, w in self.atoms]
        if not items:
            raise ValueError("a measure needs at least one atom")
        n = items[0][0].n
        for a, w in items:
            if a.n != n:
                raise ValueError("atoms must share one dimension")
            if not w > 0.0:
                raise ValueError("weights must be positive")
        # exact copies first: a location keeps its first copy and every
        # copy's weight; then one pass over the distinct locations, each
        # joining every group it is close to
        copies = {}
        for a, w in items:
            copies.setdefault(a.flat, (a, []))[1].append(w)
        locs = list(copies.values())
        groups = []
        for i, (a, _) in enumerate(locs):
            joined, rest = [i], []
            for g in groups:
                if any(mat_close(locs[j][0], a, MERGE_TOL) for j in g):
                    joined.extend(g)
                else:
                    rest.append(g)
            groups = rest + [joined]
        merged = sorted([(min((locs[j][0] for j in g), key=lambda m: m.flat),
                          math.fsum(w for j in g for w in locs[j][1])) for g in groups],
                        key=lambda aw: aw[0].flat)
        total = math.fsum(w for _, w in merged)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "atoms", tuple(merged))

    # -- constructors ------------------------------------------------

    @classmethod
    def dirac(cls, a: Mat) -> "AtomicMeasure":
        return cls(((a, 1.0),))

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return self.atoms[0][0].n

    def to_json_dict(self) -> dict:
        return {"atoms": [{"mat": list(a.flat), "w": w} for a, w in self.atoms]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "AtomicMeasure":
        return cls((Mat.from_flat(e["mat"]), e["w"]) for e in d["atoms"])


# -- pairing and moments -------------------------------------------------


def pair(nu: AtomicMeasure, v) -> float:
    """<nu, v> = sum of w * v(atom).  Propagates math.inf; DomainError
    raised by v passes through untouched."""
    terms = [w * v.evaluate(a) for a, w in nu.atoms]
    return math.fsum(terms)


def first_moment(nu: AtomicMeasure) -> Mat:
    out = Mat.zero(nu.n)
    for a, w in nu.atoms:
        out = out + w * a
    return out


def hat_pushforward(nu: AtomicMeasure) -> AtomicMeasure:
    """Pushforward under matrix inversion.  Requires invertible atoms;
    applying it twice returns the original measure."""
    pairs = [(inverse(a), w) for a, w in nu.atoms]
    if any(inv is None for inv, _ in pairs):
        raise SingularAtom("cannot push a singular atom through inversion")
    return AtomicMeasure(pairs)


def truncate(nu: AtomicMeasure, rho: float) -> AtomicMeasure:
    """Reweight by the rho-ball cut-off and park the removed mass on the
    identity: Phi_rho * nu + (1 - <nu, Phi_rho>) delta_I.

    The result is a probability measure supported in R_{rho+1}; when all
    atoms lie in R_rho it equals nu exactly.
    """
    phi = make_phi_rho(rho)
    kept = []
    for a, w in nu.atoms:
        f = phi.evaluate(a)
        if f > 0.0:
            kept.append((a, w * f))
    defect = 1.0 - math.fsum(w for _, w in kept)
    if defect > 1e-15:
        kept.append((Mat.identity(nu.n), defect))
    return AtomicMeasure(kept)


# -- meshes and fields ----------------------------------------------------


def _is_pow2(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh on the unit interval (dim 1) or unit square (dim 2).

    In 2D each grid square is split into two triangles along the
    diagonal from its lower-left to its upper-right corner, so cells
    carry constant gradients of piecewise-affine deformations.  Counts
    per direction are powers of two.
    """

    dim: int
    shape: tuple

    def __post_init__(self):
        if self.dim == 1:
            if len(self.shape) != 1 or not _is_pow2(self.shape[0]):
                raise ValueError("1D mesh needs a power-of-two cell count")
        elif self.dim == 2:
            if len(self.shape) != 2 or not all(_is_pow2(k) for k in self.shape):
                raise ValueError("2D mesh needs power-of-two counts per direction")
        else:
            raise ValueError("mesh dimension must be 1 or 2")

    @classmethod
    def interval(cls, cells: int) -> "Mesh":
        return cls(1, (int(cells),))

    @classmethod
    def square(cls, nx: int, ny: int | None = None) -> "Mesh":
        return cls(2, (int(nx), int(nx if ny is None else ny)))

    @property
    def n_cells(self) -> int:
        if self.dim == 1:
            return self.shape[0]
        return 2 * self.shape[0] * self.shape[1]

    @property
    def cell_volume(self) -> float:
        return 1.0 / self.n_cells

    def interval_bounds(self, c: int) -> tuple:
        if self.dim != 1:
            raise ValueError("interval bounds are a 1D query")
        m = self.shape[0]
        return (c / m, (c + 1) / m)

    @property
    def n_vertices(self) -> int:
        if self.dim == 1:
            return self.shape[0] + 1
        return (self.shape[0] + 1) * (self.shape[1] + 1)

    def vertex_point(self, k: int) -> tuple:
        """Coordinates of vertex k: k / cells on the interval; in 2D grid
        vertex (i, j) at (i/nx, j/ny) has index j*(nx+1) + i."""
        if self.dim == 1:
            return (k / self.shape[0],)
        nx, ny = self.shape
        j, i = divmod(k, nx + 1)
        return (i / nx, j / ny)

    def cell_vertices(self, c: int) -> tuple:
        """Vertex indices of cell c: (c, c + 1) on the interval, the
        triangle corners counterclockwise from the lower left in 2D, where
        cell 2*(j*nx+i) is the lower triangle of square (i, j) and cell
        2*(j*nx+i)+1 the upper one.  With h the grid steps, a lower
        triangle's edges from its first corner are (h, 0) and (h, h), an
        upper triangle's (h, h) and (0, h)."""
        if self.dim == 1:
            return (c, c + 1)
        nx = self.shape[0]
        sq, upper = divmod(c, 2)
        j, i = divmod(sq, nx)
        k = j * (nx + 1) + i
        if upper:
            return (k, k + nx + 2, k + nx + 1)
        return (k, k + 1, k + nx + 2)

    @cached_property
    def vertex_cells(self) -> tuple:
        """Cells incident to each vertex, in increasing cell order."""
        out = [[] for _ in range(self.n_vertices)]
        for c in range(self.n_cells):
            for k in self.cell_vertices(c):
                out[k].append(c)
        return tuple(tuple(cells) for cells in out)

    def interior_vertices(self) -> list:
        """Indices of the vertices off the boundary, in increasing order."""
        if self.dim == 1:
            return list(range(1, self.shape[0]))
        nx, ny = self.shape
        return [j * (nx + 1) + i for j in range(1, ny) for i in range(1, nx)]

    def to_json_dict(self) -> dict:
        if self.dim == 1:
            return {"dim": 1, "cells": self.shape[0]}
        return {"dim": 2, "cells": list(self.shape)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Mesh":
        if d["dim"] == 1:
            return cls.interval(d["cells"])
        nx, ny = d["cells"]
        return cls.square(nx, ny)


@dataclass(frozen=True)
class YoungMeasureField:
    """One atomic measure per mesh cell."""

    mesh: Mesh
    measures: tuple

    def __post_init__(self):
        if len(self.measures) != self.mesh.n_cells:
            raise ValueError("need exactly one measure per cell")
        d = self.mesh.dim  # a domain in R^d maps to d x d matrices
        # a run of cells sharing one measure, as constant makes, is checked once
        ms = self.measures
        if any(nu.n != d for nu, prev in zip(ms, chain((None,), ms)) if nu is not prev):
            raise ValueError(f"cell measures on a {d}D mesh must be {d}x{d}")

    def to_json_dict(self) -> dict:
        return {"mesh": self.mesh.to_json_dict(),
                "measures": [nu.to_json_dict() for nu in self.measures]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "YoungMeasureField":
        mesh = Mesh.from_json_dict(d["mesh"])
        measures = tuple(AtomicMeasure.from_json_dict(m) for m in d["measures"])
        return cls(mesh, measures)

    @classmethod
    def constant(cls, mesh: Mesh, nu: AtomicMeasure) -> "YoungMeasureField":
        return cls(mesh, (nu,) * mesh.n_cells)


def homogenize(field: YoungMeasureField) -> AtomicMeasure:
    """Volume-weighted mixture of the cell measures.  Pairing against the
    result equals the volume-weighted sum of cell pairings exactly."""
    vol = field.mesh.cell_volume
    pairs = []
    for nu in field.measures:
        pairs.extend((a, vol * w) for a, w in nu.atoms)
    return AtomicMeasure(pairs)


@dataclass(frozen=True)
class ClassReport:
    """Membership report for the invertibility-constrained measure classes."""

    p: float
    q: float
    moment_p: float
    moment_negq: float  # math.inf on singular mass or an overflowing power
    inv_mass_deficit: float
    positive_det_mass_deficit: float

    @property
    def in_ypq(self) -> bool:
        return self.inv_mass_deficit == 0.0

    @property
    def in_ypq_plus(self) -> bool:
        return self.in_ypq and self.positive_det_mass_deficit == 0.0

    def to_json_dict(self) -> dict:
        return {
            "p": self.p, "q": self.q,
            "moment_p": self.moment_p,
            "moment_negq": self.moment_negq,
            "inv_mass_deficit": self.inv_mass_deficit,
            "positive_det_mass_deficit": self.positive_det_mass_deficit,
            "in_ypq": self.in_ypq,
            "in_ypq_plus": self.in_ypq_plus,
        }


def power_or_inf(x: float, e: float) -> float:
    """x ** e for x >= 0, math.inf where that is beyond the float range,
    as frob_norm takes an overflowing sum, and where x is 0 and e < 0."""
    try:
        return x ** e
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _moment_term(vw: float, x: float, e: float) -> float:
    """vw * x ** e for an atom of volume-weighted mass vw > 0: math.inf
    where the power is beyond the float range, even where vw underflows
    to 0 and the product would read 0 * inf = NaN."""
    power = power_or_inf(x, e)
    return math.inf if power == math.inf else vw * power


def classify(field: YoungMeasureField, p: float, q: float) -> ClassReport:
    """Decide membership in the invertible-support class (full mass on
    invertible matrices, finite (p, -q) moments) and its orientation-
    preserving refinement (additionally det > 0 almost everywhere).  A
    moment is infinite when a positive-weight atom's power is beyond the
    float range, and a mass on singular or det <= 0 matrices counts as
    at least the least subnormal where vol * w underflows to 0."""
    if not (p > 0.0 and q > 0.0):
        raise ValueError("growth exponents must be positive")
    vol = field.mesh.cell_volume
    sums = np.zeros(4)  # the p moment, the -q moment, the two deficits
    for c in range(0, len(field.measures), CLASSIFY_BLOCK):
        part = field.measures[c:c + CLASSIFY_BLOCK]
        # each distinct measure of the block once, as a constant field
        # shares one across its cells: cell c + i reads distinct[slot[i]]
        _, first, slot = np.unique(np.fromiter(map(id, part), np.uintp, len(part)),
                                   return_index=True, return_inverse=True)
        distinct = [part[i] for i in first.tolist()]
        atoms = [aw for nu in distinct for aw in nu.atoms]
        a = stack([x for x, _ in atoms], field.mesh.dim)
        with quiet():
            cols = zip(frob_norms(a).tolist(), inv_norms(a).tolist(),
                       dets(a).tolist())
        # one row of terms a distinct atom: its shares of the two moments,
        # of the singular mass and of the det <= 0 mass; the powers stay
        # Python **, which numpy's power can miss by an ulp
        terms = []
        for (_, w), (norm, inv, d) in zip(atoms, cols):
            vw = vol * w
            mass = vw or math.ulp(0.0)
            if inv == math.inf:
                terms.append((_moment_term(vw, norm, p), math.inf, mass, mass))
            else:
                terms.append((_moment_term(vw, norm, p), _moment_term(vw, inv, q),
                              0.0, mass if d <= 0.0 else 0.0))
        # the block's atoms in field order: a cell's atoms are the
        # consecutive rows of its measure's
        sizes = np.array([len(nu.atoms) for nu in distinct])
        counts = sizes[slot]
        rows = np.arange(counts.sum()) + np.repeat(
            (np.cumsum(sizes) - sizes)[slot] - (np.cumsum(counts) - counts), counts)
        # each sum left to right from the carried value, as cumsum is a
        # sequential loop where np.sum adds pairwise
        sums = np.cumsum(np.vstack((sums, np.array(terms)[rows])), axis=0)[-1]
    m1, m2, inv_deficit, pos_deficit = sums.tolist()
    return ClassReport(p, q, m1, m2, inv_deficit, pos_deficit)


def measures_equal(nu: AtomicMeasure, mu: AtomicMeasure, family: Sequence) -> bool:
    """Equality through a separating family of vanishing-at-singular test
    functions: true when every pairing difference is within PAIRING_TOL."""
    if not family:
        raise ValueError("need a nonempty test family")
    for v in family:
        if v.growth.kind != "C_0inv":
            raise ValueError("family members must vanish on singular matrices "
                             "and at infinity")
    for v in family:
        if abs(pair(nu, v) - pair(mu, v)) > PAIRING_TOL:
            return False
    return True


def support_in_ball(nu: AtomicMeasure, ball: RhoBall) -> bool:
    return all(in_rho_ball(a, ball) for a, _ in nu.atoms)
