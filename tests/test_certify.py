import dataclasses
import json
import math

import pytest

import _reference
from _sampling import diag
from ymrelax.certify import (
    Check,
    FAIL,
    INCONCLUSIVE,
    PASS,
    aggregate,
    check_det_limit,
    check_support_from_sequence,
    check_thm3,
    check_thm12,
)
from ymrelax.errors import HypothesisViolated
from ymrelax.laminate import GradientField, SequenceSpec, build_laminate_sequence
from ymrelax.matcore import Mat
from ymrelax.measure import AtomicMeasure, Mesh, YoungMeasureField, classify
from ymrelax.meshdef import MeshDeformation
from ymrelax.testfn import builtin_energy, named_testfn, orho_extend


SHEAR = Mat.from_rows([[1.0, 1.0], [0.0, 1.0]])


def const_field(nu, mesh=None):
    return YoungMeasureField.constant(mesh or Mesh.interval(4), nu)


def jensen_check(cert):
    return next(c for c in cert.checks if c.name == "jensen_inequality")


class TestAggregate:
    def test_ordering(self):
        ok = Check("a", PASS)
        meh = Check("b", INCONCLUSIVE, explanation="cannot decide")
        bad = Check("c", FAIL)
        assert aggregate([ok, ok]) == PASS
        assert aggregate([ok, meh]) == INCONCLUSIVE
        assert aggregate([ok, meh, bad]) == FAIL
        assert aggregate([bad, meh]) == FAIL

    def test_inconclusive_needs_explanation(self):
        with pytest.raises(ValueError):
            Check("a", INCONCLUSIVE)


class TestThm12:
    def test_identity_passes_both(self):
        field = const_field(AtomicMeasure.dirac(Mat.identity(2)),
                            Mesh.square(2, 2))
        c1 = check_thm12(field, 2.0, 2.0)
        c2 = check_thm12(field, 2.0, 2.0, require_positive_det=True)
        assert c1.verdict == PASS and c2.verdict == PASS
        assert c1.theorem == "thm1" and c2.theorem == "thm2"

    def test_negative_det_fails_thm2_only(self):
        field = const_field(AtomicMeasure.dirac(diag(-1.0, 1.0)),
                            Mesh.square(2, 2))
        assert check_thm12(field, 2.0, 2.0).verdict == PASS
        cert = check_thm12(field, 2.0, 2.0, require_positive_det=True)
        assert cert.verdict == FAIL
        failing = [c.name for c in cert.checks if c.status == FAIL]
        assert failing == ["positive_determinant_support"]

    def test_singular_atom_fails_both(self):
        nu = AtomicMeasure([(Mat.scalar(0.0), 0.5),
                            (Mat.scalar(1.0), 0.5)])
        field = const_field(nu)
        assert check_thm12(field, 2.0, 2.0).verdict == FAIL
        assert check_thm12(field, 2.0, 2.0,
                           require_positive_det=True).verdict == FAIL

    def test_underflowing_negative_det_mass_fails_thm2(self):
        # each cell's vol * w is 5e-324 / 64, which rounds to 0
        nu = AtomicMeasure([(Mat.scalar(-1.0), 5e-324), (Mat.scalar(1.0), 1.0)])
        field = const_field(nu, Mesh.interval(64))
        assert check_thm12(field, 2.0, 2.0).verdict == PASS
        cert = check_thm12(field, 2.0, 2.0, require_positive_det=True)
        failing = [c.name for c in cert.checks if c.status == FAIL]
        assert failing == ["positive_determinant_support"]
        assert not classify(field, 2.0, 2.0).in_ypq_plus

    def test_non_positive_exponents_rejected(self):
        nu = AtomicMeasure([(Mat.scalar(0.0), 0.5),
                            (Mat.scalar(1.0), 0.5)])
        field = const_field(nu, Mesh.interval(1))
        for p, q in ((-2.0, 2.0), (2.0, 0.0)):
            for fn in (classify, check_thm12):
                with pytest.raises(ValueError, match="must be positive"):
                    fn(field, p, q)

    def test_agrees_with_classify(self, make_measure):
        for n in (1, 2):
            field = YoungMeasureField(
                Mesh.interval(4) if n == 1 else Mesh.square(2, 2),
                tuple(make_measure(n) for _ in range(
                    4 if n == 1 else 8)))
            rep = classify(field, 2.0, 2.0)
            cert = check_thm12(field, 2.0, 2.0)
            assert (cert.verdict == PASS) == rep.in_ypq
            plus = check_thm12(field, 2.0, 2.0, require_positive_det=True)
            assert (plus.verdict == PASS) == rep.in_ypq_plus


class TestSupportSequence:
    def test_bounded_family_passes(self):
        fields = [build_laminate_sequence(
            SequenceSpec((Mat.scalar(1.0), Mat.scalar(2.0)), (0.5, 0.5), k))
            for k in (2, 4, 8)]
        cert = check_support_from_sequence(fields, [0.5, 0.1], 2.0)
        assert cert.verdict == PASS
        # no mass below eps < 1: slopes stay at 1 and 2
        for masses in cert.details["masses"].values():
            assert all(m == 0.0 for m in masses)

    def test_vanishing_slope_flagged(self):
        fields = [GradientField.from_slopes_1d([1.0 / k, 1.0], [0.5, 0.5])
                  for k in (4, 8, 16, 32)]
        cert = check_support_from_sequence(fields, [0.5, 0.1], 2.0)
        assert cert.verdict == INCONCLUSIVE
        qs = cert.details["q_integrals"]
        for k, got in zip((4, 8, 16, 32), qs):
            assert got == pytest.approx(k ** 2 / 2 + 0.5, rel=1e-12)

    def test_singular_piece_inconclusive(self):
        fields = [GradientField.from_slopes_1d([0.0, 2.0], [0.5, 0.5])]
        cert = check_support_from_sequence(fields, [0.5], 2.0)
        assert cert.verdict == INCONCLUSIVE
        assert cert.details["q_integrals"] == [math.inf]

    def test_negative_and_zero_determinants(self):
        # |det| per piece: 0.25 and 2 (1D), 0.5 and 2, then 0.5 and 0 (2D)
        normal = (1.0, 0.0)
        fields = [GradientField.from_slopes_1d([-0.25, 2.0], [0.5, 0.5])] + [
            GradientField.from_pieces(2, normal, [0.5, 0.5],
                                      [diag(1.0, -0.5), diag(x, -0.5)])
            for x in (4.0, 0.0)]
        cert = check_support_from_sequence(fields, [0.1, 0.6], 2.0)
        assert cert.details["q_integrals"] == [8.125, 2.125, math.inf]
        assert cert.details["masses"] == {"0.1": [0.0, 0.0, 0.5],
                                          "0.6": [0.5, 0.5, 1.0]}
        assert cert.verdict == INCONCLUSIVE

    def test_affine_unit_det(self):
        fields = [GradientField.affine(Mat.scalar(1.0))]
        cert = check_support_from_sequence(fields, [0.5, 0.9], 1.0)
        assert cert.verdict == PASS


class TestDetLimit:
    def test_two_slope_family_passes(self):
        fields = [build_laminate_sequence(
            SequenceSpec((Mat.scalar(1.0), Mat.scalar(2.0)), (0.5, 0.5), k))
            for k in (2, 4, 8)]
        cert = check_det_limit(fields, 2.0)
        assert cert.verdict == PASS
        assert cert.details["det"] == pytest.approx(1.5)

    def test_unbounded_inverse_not_pass(self):
        fields = [GradientField.from_slopes_1d([1.0 / k, 1.0], [0.5, 0.5])
                  for k in (4, 8, 16, 32)]
        cert = check_det_limit(fields, 2.0)
        assert cert.verdict == INCONCLUSIVE

    def test_2d_shear_det_one(self):
        fields = [build_laminate_sequence(
            SequenceSpec((Mat.identity(2), SHEAR), (0.5, 0.5), k))
            for k in (2, 4)]
        cert = check_det_limit(fields, 3.0)
        assert cert.verdict == PASS
        assert cert.details["det"] == pytest.approx(1.0)

    def test_hypotheses_enforced(self):
        good = [GradientField.affine(Mat.scalar(1.0))]
        with pytest.raises(HypothesisViolated):
            check_det_limit(good, 1.0)  # p must exceed the dimension
        bad = [GradientField.from_slopes_1d([-1.0, 1.0], [0.5, 0.5])]
        with pytest.raises(HypothesisViolated):
            check_det_limit(bad, 2.0)

    @pytest.mark.parametrize("last", [
        GradientField.from_slopes_1d([2.0, -1.0], [0.5, 0.5]),  # det < 0
        GradientField.from_slopes_1d([2.0, 0.0], [0.5, 0.5]),   # singular
        GradientField.affine(diag(1.0, 1e-13)),  # det > 0, singular
    ])
    def test_orientation_needs_det_and_inverse(self, last):
        fields = [GradientField.affine(Mat.identity(last.n)), last]
        with pytest.raises(HypothesisViolated, match="orientation-preserving"):
            check_det_limit(fields, 3.0)


class TestThm3:
    def test_dirac_field_all_pass(self):
        a = Mat.scalar(1.2)
        field = const_field(AtomicMeasure.dirac(a))
        u = MeshDeformation.affine(Mesh.interval(4), a)
        battery = [orho_extend(named_testfn("quartic_well_1d"), 3.0)]
        cert = check_thm3(field, u, 2.0, battery, 3.0)
        assert cert.verdict == PASS
        assert cert.theorem == "thm3"

    def test_laminate_measure_zero_map(self):
        nu = AtomicMeasure([(Mat.scalar(-1.0), 0.5),
                            (Mat.scalar(1.0), 0.5)])
        field = const_field(nu)
        u = MeshDeformation.affine(Mesh.interval(4), Mat.scalar(0.0))
        battery = [orho_extend(named_testfn("quartic_well_1d"), 3.0)]
        cert = check_thm3(field, u, 2.0, battery, 3.0)
        assert cert.verdict == PASS
        jensen = [c for c in cert.checks if c.name == "jensen_inequality"]
        assert jensen and jensen[0].status == PASS

    def test_support_violation_fails(self):
        field = const_field(AtomicMeasure.dirac(Mat.scalar(1.5)))
        u = MeshDeformation.affine(Mesh.interval(4), Mat.scalar(1.5))
        battery = [orho_extend(named_testfn("quartic_well_1d"), 3.0)]
        cert = check_thm3(field, u, 1.2, battery, 3.0)  # 1.5 outside R_1.2
        assert cert.verdict == FAIL
        assert [c.name for c in cert.checks if c.status == FAIL] == [
            "support_in_rho_ball"]

    def test_mismatched_moments_fail(self):
        field = const_field(AtomicMeasure.dirac(Mat.scalar(1.0)))
        u = MeshDeformation.affine(Mesh.interval(4), Mat.scalar(0.5))
        battery = [orho_extend(named_testfn("quartic_well_1d"), 3.0)]
        cert = check_thm3(field, u, 2.0, battery, 3.0)
        assert cert.verdict == FAIL
        assert any(c.name == "barycenter_matches_gradient" and c.status == FAIL
                   for c in cert.checks)

    def test_2d_curl_violation_fails(self):
        # vertically stacked cells with moments diag(1,1) and diag(2,1):
        # the row-1 jump (1,0) across the horizontal interface cannot be
        # a gradient, so the circulation test trips
        mesh = Mesh.square(2, 2)
        lower = AtomicMeasure.dirac(Mat.identity(2))
        upper = AtomicMeasure.dirac(diag(2.0, 1.0))
        measures = []
        for c in range(mesh.n_cells):
            verts = [mesh.vertex_point(k) for k in mesh.cell_vertices(c)]
            cy = sum(v[1] for v in verts) / 3.0
            measures.append(lower if cy < 0.5 else upper)
        field = YoungMeasureField(mesh, tuple(measures))
        u = MeshDeformation.affine(mesh, diag(1.5, 1.0))
        battery = [orho_extend(named_testfn("frob_power", {"p": 2.0}), 4.0)]
        cert = check_thm3(field, u, 3.0, battery, 4.0)
        assert cert.verdict == FAIL
        assert any(c.name == "moment_field_curl_free" and c.status == FAIL
                   for c in cert.checks)

    def test_2d_consistent_moments_curl_free(self):
        mesh = Mesh.square(2, 2)
        field = YoungMeasureField.constant(
            mesh, AtomicMeasure.dirac(Mat.identity(2)))
        u = MeshDeformation.affine(mesh, Mat.identity(2))
        battery = [orho_extend(named_testfn("frob_power", {"p": 2.0}), 4.0)]
        cert = check_thm3(field, u, 3.0, battery, 4.0)
        curl = [c for c in cert.checks if c.name == "moment_field_curl_free"]
        assert curl and curl[0].status == PASS

    def test_convex_battery_regression(self, make_measure):
        # convex integrand: Jensen direction certified for any measure
        rho_t = 64.0
        battery = [orho_extend(named_testfn("frob_power", {"p": 2.0}), rho_t)]
        for _ in range(5):
            nu = make_measure(1)
            field = const_field(nu)
            from ymrelax.measure import first_moment
            g = first_moment(nu)
            u = MeshDeformation.affine(Mesh.interval(4), g)
            cert = check_thm3(field, u, 32.0, battery, rho_t)
            jensen = [c for c in cert.checks if c.name == "jensen_inequality"]
            assert jensen[0].status == PASS

    def test_unreachable_barycenter_fails(self):
        field = const_field(AtomicMeasure.dirac(Mat.scalar(1.0)))
        u = MeshDeformation.affine(Mesh.interval(4), Mat.scalar(5.0))
        battery = [orho_extend(named_testfn("quartic_well_1d"), 3.0)]
        cert = check_thm3(field, u, 2.0, battery, 3.0)  # 5 outside [-3, 3]
        assert jensen_check(cert).status == FAIL
        assert cert.details["jensen_rows"][0] == [
            0, battery[0].description, 0.0, None, "barycenter not reachable"]

    def test_1d_jensen_gap_fails(self):
        field = const_field(AtomicMeasure.dirac(Mat.scalar(0.5)))
        u = MeshDeformation.affine(Mesh.interval(4), Mat.scalar(1.0))
        battery = [orho_extend(named_testfn("entry_power", {"exponent": 2}), 3.0)]
        cert = check_thm3(field, u, 2.0, battery, 3.0)
        jensen = jensen_check(cert)
        assert jensen.status == FAIL
        assert jensen.residual == pytest.approx(0.75)  # 1^2 - 0.5^2

    def test_2d_no_split_inconclusive(self):
        mesh = Mesh.square(1, 1)
        field = YoungMeasureField.constant(
            mesh, AtomicMeasure.dirac(Mat.identity(2)))
        u = MeshDeformation.affine(mesh, 5.0 * Mat.identity(2))
        battery = [orho_extend(named_testfn("frob_power", {"p": 2.0}), 3.0)]
        cert = check_thm3(field, u, 2.0, battery, 3.0)
        assert jensen_check(cert).status == INCONCLUSIVE
        assert cert.details["jensen_rows"][0][3:] == [None, "no envelope bound"]

    def test_slab_field_deformation(self):
        mesh = Mesh.interval(4)
        lo, hi = (AtomicMeasure.dirac(Mat.scalar(s)) for s in (1.0, 1.2))
        field = YoungMeasureField(mesh, (lo, lo, hi, hi))
        battery = [orho_extend(named_testfn("quartic_well_1d"), 3.0)]
        u = GradientField.from_slopes_1d([1.0, 1.2], [0.5, 0.5])
        assert check_thm3(field, u, 2.0, battery, 3.0).verdict == PASS
        u = GradientField.from_slopes_1d([1.0, 1.2], [0.3, 0.7])
        with pytest.raises(ValueError, match="straddles"):
            check_thm3(field, u, 2.0, battery, 3.0)

    def test_2d_slab_field_deformation(self):
        mesh = Mesh.square(2, 2)
        f = Mat.from_rows([[1.0, 0.5], [0.0, 1.0]])
        field = YoungMeasureField.constant(mesh, AtomicMeasure.dirac(f))
        battery = [named_testfn("frob_power", {"p": 2.0})]
        u = GradientField.affine(f)
        assert check_thm3(field, u, 3.0, battery, 4.0).verdict == PASS
        u = build_laminate_sequence(SequenceSpec(
            (Mat.identity(2), Mat.from_rows([[1.0, 1.0], [0.0, 1.0]])),
            (0.5, 0.5), 1))
        assert u.pieces == 2
        with pytest.raises(ValueError, match="must be affine"):
            check_thm3(field, u, 3.0, battery, 4.0)

    def test_deformation_on_another_mesh_rejected(self):
        field = const_field(AtomicMeasure.dirac(Mat.scalar(1.0)))
        u = MeshDeformation.affine(Mesh.interval(2), Mat.scalar(1.0))
        battery = [named_testfn("quartic_well_1d")]
        with pytest.raises(ValueError, match="different meshes"):
            check_thm3(field, u, 2.0, battery, 3.0)

    def test_battery_validated(self):
        field = const_field(AtomicMeasure.dirac(Mat.scalar(1.0)))
        u = MeshDeformation.affine(Mesh.interval(4), Mat.scalar(1.0))
        with pytest.raises(ValueError):
            check_thm3(field, u, 2.0, [], 3.0)  # empty battery
        # a raw member is confined to the rho_tilde ball on entry
        raw = [named_testfn("frob_power", {"p": 2.0})]
        ok = [orho_extend(raw[0], 3.0)]
        assert (json.dumps(check_thm3(field, u, 2.0, raw, 3.0).to_json_dict())
                == json.dumps(check_thm3(field, u, 2.0, ok, 3.0).to_json_dict()))
        with pytest.raises(ValueError):
            check_thm3(field, u, 3.0, ok, 3.0)  # rho_tilde must exceed rho

    def test_json_output(self):
        field = const_field(AtomicMeasure.dirac(Mat.scalar(1.0)))
        u = MeshDeformation.affine(Mesh.interval(4), Mat.scalar(1.0))
        battery = [orho_extend(named_testfn("quartic_well_1d"), 3.0)]
        cert = check_thm3(field, u, 2.0, battery, 3.0)
        d = cert.to_json_dict()
        assert d["theorem"] == "thm3"
        assert d["verdict"] == PASS
        assert d["details"]["battery_size"] == 1


def slope_field(values):
    """A 4-cell deformation with these node values and, on each cell, a
    two-atom measure whose barycenter is the cell gradient."""
    mesh = Mesh.interval(4)
    u = MeshDeformation(mesh, values)
    grads = u.cell_gradients()
    measures = tuple(AtomicMeasure([(g - Mat.scalar(0.25), 0.5),
                                    (g + Mat.scalar(0.25), 0.5)])
                     for g in grads)
    return YoungMeasureField(mesh, measures), u, grads


def battery_1d(rho_t):
    return [orho_extend(named_testfn("quartic_well_1d"), rho_t),
            orho_extend(builtin_energy("double_well_inv",
                                       {"gamma": 1e-3, "p": 2.0}), rho_t)]


class TestThm3Readings:
    """check_thm3 reads one hull per battery member, and one reading per
    distinct barycenter, with the per-row oracle's rows."""

    def test_rows_match_one_oracle_call_a_row(self):
        # gradients 0.5, 0.5 (equal), -1.0 and 4.0 (outside [-3, 3])
        field, u, grads = slope_field([0.0, 0.125, 0.25, 0.0, 1.0])
        assert [g.flat[0] for g in grads] == [0.5, 0.5, -1.0, 4.0]
        battery = battery_1d(3.0)
        cert = check_thm3(field, u, 2.0, battery, 3.0)
        rows = cert.details["jensen_rows"]
        assert [r[4] for r in rows[-2:]] == ["barycenter not reachable"] * 2
        want = _reference.jensen_rows_1d(field, grads, battery, 3.0)
        assert json.dumps(rows) == json.dumps(want)

    def test_each_member_scanned_once(self):
        # four distinct barycenters, two members: two scans of the grid
        field, u, grads = slope_field([0.0, 0.125, 0.0625, 0.3125, 0.0])
        assert len({g.flat for g in grads}) == 4
        rows = [0]

        def counted(v):
            def batch(a):
                rows[0] += len(a)
                return v.batch(a)
            return dataclasses.replace(v, batch=batch)

        battery = [counted(v) for v in battery_1d(3.0)]
        cert = check_thm3(field, u, 2.0, battery, 3.0)
        assert len(cert.details["jensen_rows"]) == 8
        assert rows[0] == 2 * 10000
