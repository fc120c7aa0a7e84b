"""Piecewise-affine deformations on interval and triangulated square meshes.

Nodes carry deformation values; gradients are constant per cell (slope on
an interval cell, the P1 gradient on a triangle).  These are the discrete
deformations whose cell gradients the relaxation couples to a measure
field cell by cell.  descend_nodes is the coordinate node descent that
both the finite element envelope bound and the relaxation run on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._search import golden_min
from .errors import DomainError
from .matcore import Mat
from .measure import Mesh


@dataclass(frozen=True, eq=False)
class MeshDeformation:
    """Node values of a continuous piecewise-affine map on a mesh.

    values holds one entry per mesh vertex (Mesh.vertex_point): shape
    (cells + 1,) on an interval, (vertices, 2) on a square.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        nv = self.mesh.n_vertices
        if v.shape != ((nv,) if self.mesh.dim == 1 else (nv, 2)):
            raise ValueError("node array shape does not match the mesh")
        if not np.all(np.isfinite(v)):
            raise ValueError("node values must be finite")

    @classmethod
    def affine(cls, mesh: Mesh, f: Mat) -> "MeshDeformation":
        if f.n != mesh.dim:
            raise ValueError("matrix dimension does not match the mesh")
        pts = np.array([mesh.vertex_point(k) for k in range(mesh.n_vertices)])
        if mesh.dim == 1:
            return cls(mesh, f.flat[0] * pts[:, 0])
        (a, b), (c, d) = f.rows()
        x, y = pts[:, 0], pts[:, 1]
        return cls(mesh, np.column_stack((a * x + b * y, c * x + d * y)))

    def cell_gradient(self, c: int) -> Mat:
        return p1_gradient(self.mesh, _as_nodes(self.values), c)

    def cell_gradients(self) -> list:
        nodes = _as_nodes(self.values)
        return [p1_gradient(self.mesh, nodes, c) for c in range(self.mesh.n_cells)]

    def energy(self, v) -> float:
        """Integral of v over the domain for the cell gradients."""
        vol = self.mesh.cell_volume
        total = 0.0
        for g in self.cell_gradients():
            val = v.evaluate(g)
            if val == math.inf:
                return math.inf
            total += vol * val
        return total

    def as_gradient_field(self):
        """Exact re-expression as a slab field (interval meshes only)."""
        from .laminate import GradientField
        if self.mesh.dim != 1:
            raise DomainError("only interval deformations have a slab structure")
        cells = self.mesh.shape[0]
        slopes = [g.flat[0] for g in self.cell_gradients()]
        return GradientField.from_slopes_1d(slopes, [1.0 / cells] * cells,
                                            float(self.values[0]))

    def to_csv_rows(self) -> list:
        if self.mesh.dim == 1:
            rows = [["node", "x", "y"]]
        else:
            rows = [["node", "x1", "x2", "y1", "y2"]]
        for k, y in enumerate(_as_nodes(self.values)):
            rows.append([k, *self.mesh.vertex_point(k), *(float(e) for e in y)])
        return rows

    def to_json_dict(self) -> dict:
        return {"mesh": self.mesh.to_json_dict(),
                "values": np.asarray(self.values).tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MeshDeformation":
        return cls(Mesh.from_json_dict(d["mesh"]), np.array(d["values"], dtype=float))


def _as_nodes(values: np.ndarray) -> np.ndarray:
    """View node values as one row per vertex: (vertices, 1) in 1D."""
    return values.reshape(values.shape[0], -1)


@lru_cache(maxsize=32)
def _inverse_edges(mesh: Mesh) -> tuple:
    """Inverse edge matrices (x1 - x0, x2 - x0) of the lower and the upper
    triangle (cells 0 and 1); vertex coordinates are dyadic, so every
    cell's edge matrix equals one of the two bit for bit."""
    corners = (np.array(mesh.triangle_vertices(c)) for c in (0, 1))
    return tuple(np.linalg.inv(np.column_stack((x1 - x0, x2 - x0)))
                 for x0, x1, x2 in corners)


def p1_gradient(mesh: Mesh, nodes: np.ndarray, c: int) -> Mat:
    """Gradient on cell c of the piecewise-affine interpolant of nodes,
    an array with one row per mesh vertex."""
    idx = mesh.cell_vertices(c)
    if mesh.dim == 1:
        return Mat.scalar((nodes[idx[1], 0] - nodes[idx[0], 0]) * mesh.shape[0])
    y = nodes[list(idx)]  # (3, 2)
    dy = np.column_stack((y[1] - y[0], y[2] - y[0]))
    return Mat.from_flat((dy @ _inverse_edges(mesh)[c % 2]).reshape(-1))


def descend_nodes(u: MeshDeformation, cell_cost, radius: float, sweeps: int,
                  stop: float, iters: int, coarse: int):
    """Coordinate descent of the interior node values of u.

    Visiting interior nodes in increasing index and their axes in order,
    each coordinate moves to the golden_min(iters, coarse) minimizer
    within +-radius of the local energy: the cell volume times the sum
    of cell_cost(c, gradient) over the cells incident to the node.  A
    move is kept only when it lowers the local energy by more than
    1e-15.  Stops after `sweeps` sweeps, or after the first sweep whose
    kept moves lower the energy by less than `stop` in total.  Returns
    the moved deformation and the number of sweeps run.
    """
    mesh = u.mesh
    vol = mesh.cell_volume
    vals = np.array(u.values)
    nodes = _as_nodes(vals)

    def local(cells) -> float:
        return vol * math.fsum(cell_cost(c, p1_gradient(mesh, nodes, c))
                               for c in cells)

    done = 0
    for _ in range(sweeps):
        done += 1
        improved = 0.0
        for k in mesh.interior_vertices():
            cells = mesh.vertex_cells[k]
            for axis in range(nodes.shape[1]):
                y0 = nodes[k, axis]
                cur = local(cells)

                def obj(y):
                    nodes[k, axis] = y
                    out = local(cells)
                    nodes[k, axis] = y0
                    return out

                ynew, fnew = golden_min(obj, y0 - radius, y0 + radius,
                                        iters=iters, coarse=coarse)
                if fnew < cur - 1e-15:
                    improved += cur - fnew
                    nodes[k, axis] = ynew
        if improved < stop:
            break
    return MeshDeformation(mesh, vals), done
