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

import numpy as np

from ._search import golden_min
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

    def cell_gradients(self) -> list:
        nodes = _as_nodes(self.values).tolist()
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

    def to_csv_rows(self) -> list:
        if self.mesh.dim == 1:
            rows = [["node", "x", "y"]]
        else:
            rows = [["node", "x1", "x2", "y1", "y2"]]
        for k, y in enumerate(_as_nodes(self.values).tolist()):
            rows.append([k, *self.mesh.vertex_point(k), *y])
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


def p1_gradient(mesh: Mesh, nodes, c: int) -> Mat:
    """Gradient on cell c of the piecewise-affine interpolant of nodes,
    one row of floats per mesh vertex.  With d, e the differences of the
    two components from corner 0 to corners 1 and 2, a lower triangle's
    edges (h, 0), (h, h) give G = [[d1, d2 - d1], [e1, e2 - e1]] and an
    upper triangle's (h, h), (0, h) give [[d1 - d2, d2], [e1 - e2, e2]],
    columns scaled by the counts nx, ny.  The counts are powers of two,
    so each scaling is exact."""
    idx = mesh.cell_vertices(c)
    if mesh.dim == 1:
        return Mat.scalar((nodes[idx[1]][0] - nodes[idx[0]][0]) * mesh.shape[0])
    (y0, z0), (y1, z1), (y2, z2) = (nodes[k] for k in idx)
    d1, d2, e1, e2 = y1 - y0, y2 - y0, z1 - z0, z2 - z0
    nx, ny = mesh.shape
    if c % 2:
        return Mat(2, ((d1 - d2) * nx, d2 * ny, (e1 - e2) * nx, e2 * ny))
    return Mat(2, (d1 * nx, (d2 - d1) * ny, e1 * nx, (e2 - e1) * ny))


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
    nodes = _as_nodes(u.values).tolist()

    def local(cells) -> float:
        return vol * math.fsum(cell_cost(c, p1_gradient(mesh, nodes, c))
                               for c in cells)

    done = 0
    for _ in range(sweeps):
        done += 1
        improved = 0.0
        for k in mesh.interior_vertices():
            cells = mesh.vertex_cells[k]
            row = nodes[k]
            for axis, y0 in enumerate(row):
                cur = local(cells)

                def obj(y):
                    row[axis] = y
                    out = local(cells)
                    row[axis] = y0
                    return out

                ynew, fnew = golden_min(obj, y0 - radius, y0 + radius,
                                        iters=iters, coarse=coarse)
                if fnew < cur - 1e-15:
                    improved += cur - fnew
                    row[axis] = ynew
        if improved < stop:
            break
    return MeshDeformation(mesh, np.reshape(nodes, u.values.shape)), done
