import math

import numpy as np
import pytest

import _reference
from ymrelax.matcore import Mat, frob_norm
from ymrelax.measure import Mesh
from ymrelax.meshdef import MeshDeformation, descend_nodes, p1_gradient
from ymrelax.testfn import named_testfn


class TestAffine:
    def test_1d_gradients_constant(self):
        u = MeshDeformation.affine(Mesh.interval(8), Mat.scalar(2.0))
        for g in u.cell_gradients():
            assert g.flat[0] == pytest.approx(2.0)

    def test_2d_gradients_constant(self):
        f = Mat.from_rows([[1.0, 0.5], [-0.25, 2.0]])
        for mesh in (Mesh.square(2, 2), Mesh.square(4, 2)):
            u = MeshDeformation.affine(mesh, f)
            for g in u.cell_gradients():
                assert frob_norm(g - f) <= 1e-12


class TestP1Gradient:
    def test_matches_a_direct_solve(self, rng):
        # the gradient G of the affine interpolant on a triangle solves
        # G (x1 - x0, x2 - x0) = (y1 - y0, y2 - y0)
        for mesh in (Mesh.square(2, 2), Mesh.square(4, 2), Mesh.square(1, 8)):
            u = MeshDeformation(mesh, rng.normal(size=(mesh.n_vertices, 2)))
            grads = u.cell_gradients()
            for c in range(mesh.n_cells):
                x0, x1, x2 = (np.array(mesh.vertex_point(k)) for k in mesh.cell_vertices(c))
                y0, y1, y2 = (u.values[k] for k in mesh.cell_vertices(c))
                dx = np.column_stack((x1 - x0, x2 - x0))
                dy = np.column_stack((y1 - y0, y2 - y0))
                want = np.linalg.solve(dx.T, dy.T).T
                got = np.array(grads[c].rows())
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (1, 8), (32, 32)])
    def test_closed_form_matches_the_inverse_edge_solve(self, rng, shape):
        mesh = Mesh.square(*shape)
        for scale in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            nodes = (scale * rng.normal(size=(mesh.n_vertices, 2))).tolist()
            for c in range(mesh.n_cells):  # both parities
                got = p1_gradient(mesh, nodes, c).flat
                want = _reference.p1_gradient(mesh, nodes, c).flat
                assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_no_overflow_where_the_solve_overflowed(self):
        # corner differences 1.5e308 on a lower triangle with ny = 2:
        # the solve's -2 d1 + 2 d2 is -inf + inf
        mesh = Mesh.square(1, 2)
        nodes = [[0.0, 0.0] for _ in range(mesh.n_vertices)]
        i1, i2 = mesh.cell_vertices(0)[1:]
        nodes[i1][0] = nodes[i2][0] = 1.5e308
        assert p1_gradient(mesh, nodes, 0).flat == (1.5e308, 0.0, 0.0, 0.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="matrix entries must be finite"):
            _reference.p1_gradient(mesh, nodes, 0)

    def test_signed_zero_nodes_give_equal_gradients(self):
        # a +0.0 centre among -0.0 nodes makes differences -0.0; the
        # closed form keeps that sign where the solve's sums, started
        # from +0.0, drop it
        mesh = Mesh.square(2, 2)
        for zero in (0.0, -0.0):
            nodes = [[zero, -zero] for _ in range(mesh.n_vertices)]
            nodes[4] = [0.0, 0.0]
            for c in range(mesh.n_cells):
                assert p1_gradient(mesh, nodes, c) == _reference.p1_gradient(mesh, nodes, c)
        # the last pass's nodes are -0.0 but for node 4; cell 6 has
        # corners (4, 5, 8), so d1 = -0.0 - 0.0 is -0.0
        assert mesh.cell_vertices(6) == (4, 5, 8)
        got = p1_gradient(mesh, nodes, 6).flat
        want = _reference.p1_gradient(mesh, nodes, 6).flat
        assert (got[0].hex(), want[0].hex()) == ("-0x0.0p+0", "0x0.0p+0")


class TestIncidence:
    def test_square_vertex_cells(self):
        mesh = Mesh.square(4)
        cells = mesh.vertex_cells
        assert len(cells) == mesh.n_vertices == 25
        interior = mesh.interior_vertices()
        assert len(interior) == 9
        assert all(len(cells[k]) == 6 for k in interior)
        for c in range(mesh.n_cells):
            corners = [k for k in range(mesh.n_vertices) if c in cells[k]]
            assert sorted(corners) == sorted(mesh.cell_vertices(c))
            assert len(corners) == 3
            coords = [(k % 5 / 4, k // 5 / 4) for k in mesh.cell_vertices(c)]
            assert coords == [mesh.vertex_point(k) for k in mesh.cell_vertices(c)]


class TestGradients:
    def test_1d_slopes_from_values(self):
        mesh = Mesh.interval(4)
        # piecewise values 0, 1, 1, 2, 2 -> slopes 4, 0, 4, 0
        u = MeshDeformation(mesh, (0.0, 1.0, 1.0, 2.0, 2.0))
        slopes = [g.flat[0] for g in u.cell_gradients()]
        assert slopes == pytest.approx([4.0, 0.0, 4.0, 0.0])

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            MeshDeformation(Mesh.interval(4), (0.0, 1.0))


class TestDescent:
    @pytest.mark.parametrize("mesh", [Mesh.interval(4), Mesh.square(2, 2)])
    def test_convex_cost_reaches_affine_minimizer(self, mesh):
        f = Mat.identity(mesh.dim)
        target = MeshDeformation.affine(mesh, f).values
        vals = target.copy()
        inner = mesh.interior_vertices()
        vals[inner] += 0.1
        moved, sweeps = descend_nodes(MeshDeformation(mesh, vals),
                                      lambda c, g: frob_norm(g - f) ** 2,
                                      0.5, 50, 1e-14, 40, 9)
        boundary = [k for k in range(mesh.n_vertices) if k not in inner]
        assert np.array_equal(moved.values[boundary], target[boundary])
        assert np.allclose(moved.values, target, atol=1e-5)
        assert 1 <= sweeps < 50


class TestEnergy:
    def test_integrates_cellwise(self):
        mesh = Mesh.interval(2)
        u = MeshDeformation(mesh, (0.0, 1.0, 1.0))  # slopes 2, 0
        v = named_testfn("entry_power", {"exponent": 2})
        assert u.energy(v) == pytest.approx(0.5 * 4.0 + 0.5 * 0.0)

    def test_infinite_energy_propagates(self):
        from ymrelax.testfn import builtin_energy
        mesh = Mesh.interval(2)
        u = MeshDeformation(mesh, (0.0, 1.0, 1.0))  # one zero slope
        v = builtin_energy("inv_penalty", {"p": 2.0})
        assert u.energy(v) == math.inf


class TestConversion:
    def test_json_roundtrip(self):
        u = MeshDeformation.affine(Mesh.square(2, 2), Mat.identity(2))
        back = MeshDeformation.from_json_dict(u.to_json_dict())
        assert np.array_equal(back.values, u.values)
        assert back.mesh.n_cells == u.mesh.n_cells

    def test_csv_rows(self):
        u = MeshDeformation.affine(Mesh.interval(4), Mat.scalar(1.0))
        rows = u.to_csv_rows()
        assert len(rows) == 6  # header + 5 nodes
