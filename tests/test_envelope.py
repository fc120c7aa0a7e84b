import dataclasses
import json
import math

import numpy as np
import pytest

import _reference
from _sampling import diag
from ymrelax.envelope import (
    Oracle1D,
    qinv_fe_upper,
    qinv_laminate_upper,
    qinv_oracle_1d,
)
from ymrelax.errors import (
    InfeasibleBarycenter,
    NoAdmissibleSplit,
    NoFeasibleStart,
)
from ymrelax.matcore import Mat, frob_norm
from ymrelax.measure import first_moment, pair
from ymrelax.testfn import (
    Growth,
    TestFn as MatrixFn,
    builtin_energy,
    named_testfn,
    orho_extend,
)

RHO_T = 2.0


def well():
    return orho_extend(named_testfn("quartic_well_1d"), RHO_T)


def square():
    return orho_extend(named_testfn("entry_power", {"exponent": 2}), RHO_T)


class TestOracle1D:
    def test_double_well_relaxes_to_zero(self):
        est = qinv_oracle_1d(well(), Mat.scalar(0.0), RHO_T)
        assert est.value_upper == pytest.approx(0.0, abs=1e-9)
        atoms = sorted(a.flat[0] for a, _ in est.witness.atoms)
        assert atoms == pytest.approx([-1.0, 1.0], abs=1e-6)

    def test_witness_reproduces_value(self):
        v = well()
        est = qinv_oracle_1d(v, Mat.scalar(0.3), RHO_T)
        assert pair(est.witness, v) == pytest.approx(est.value_upper, abs=1e-9)
        assert first_moment(est.witness).flat[0] == pytest.approx(0.3, abs=1e-9)

    def test_square_at_zero_puts_mass_on_gap_edge(self):
        # |s| >= 1/rho_t keeps s^2 >= 1/rho_t^2; at F=0 the hull value is 0.25
        est = qinv_oracle_1d(square(), Mat.scalar(0.0), RHO_T)
        assert est.value_upper == pytest.approx(0.25, abs=1e-4)
        for a, w in est.witness.atoms:
            assert abs(a.flat[0]) == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("fs", [-RHO_T, RHO_T])
    def test_span_ends_are_diracs(self, fs):
        est = qinv_oracle_1d(well(), Mat.scalar(fs), RHO_T)
        assert est.value_exact == 9.0
        assert est.detail["support"] == [fs, fs]
        assert [(a.flat[0], w) for a, w in est.witness.atoms] == [(fs, 1.0)]

    def test_barycenter_on_a_hull_vertex(self):
        # grid slope 2000 of the positive component, as the scan computes
        # it, so the scan's hull has a vertex exactly at the barycenter
        half = 10000 // 2
        fs = 1.0 / RHO_T + (RHO_T - 1.0 / RHO_T) * (2000 / (half - 1))
        est = qinv_oracle_1d(well(), Mat.scalar(fs), RHO_T)
        assert est.value_exact == 0.04421097796235084
        assert est.detail["support"] == [1.0998199639927986, fs]
        assert [(a.flat[0], w) for a, w in est.witness.atoms] == [(fs, 1.0)]

    def test_convex_region_dirac(self):
        # barycenter inside the admissible set: Dirac is optimal for s^2
        est = qinv_oracle_1d(square(), Mat.scalar(1.0), RHO_T)
        assert est.value_upper == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_barycenter(self):
        with pytest.raises(InfeasibleBarycenter):
            qinv_oracle_1d(well(), Mat.scalar(3.0), RHO_T)

    def test_grid_validated(self):
        with pytest.raises(ValueError):
            qinv_oracle_1d(well(), Mat.scalar(0.0), RHO_T, grid=50)

    def test_everywhere_infinite_integrand(self):
        v = MatrixFn(lambda a: math.inf, Growth.o_rho(RHO_T), "inf everywhere")
        with pytest.raises(NoAdmissibleSplit):
            qinv_oracle_1d(v, Mat.scalar(1.0), RHO_T)

    def test_jensen_never_exceeds_pointwise(self, rng):
        v = well()
        for _ in range(20):
            f = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
            est = qinv_oracle_1d(v, Mat.scalar(f), RHO_T)
            assert est.value_upper <= v.evaluate(Mat.scalar(f)) + 1e-9


BATCHED_ENERGIES = {
    "quartic": well(),
    "square": square(),
    "double_well": orho_extend(builtin_energy("double_well_inv",
                                              {"gamma": 1e-3, "p": 2.0}), RHO_T),
    "bare_double_well": builtin_energy("double_well_inv"),
}


class TestOracleBatch:
    """The batched scan gives the scalar scan's result and keeps the
    scalar evaluations per call to the polish."""

    @pytest.mark.parametrize("name", sorted(BATCHED_ENERGIES))
    @pytest.mark.parametrize("f", [0.0, 0.3, 1.0, -1.7])
    @pytest.mark.parametrize("grid", [100, 10000])
    def test_matches_the_scalar_scan(self, name, f, grid):
        v = BATCHED_ENERGIES[name]
        assert v.batch is not None
        scalar = dataclasses.replace(v, batch=None)
        batched, looped = (json.dumps(qinv_oracle_1d(fn, Mat.scalar(f), RHO_T, grid)
                                      .to_json_dict(), sort_keys=True)
                           for fn in (v, scalar))
        assert batched == looped

    @pytest.mark.parametrize("name", sorted(BATCHED_ENERGIES))
    def test_scalar_evaluations_per_call(self, name):
        v = BATCHED_ENERGIES[name]
        calls = [0]

        def counted(a):
            calls[0] += 1
            return v.evaluate(a)

        for f in (0.0, 0.3, -1.7):
            calls[0] = 0
            qinv_oracle_1d(dataclasses.replace(v, evaluate=counted),
                           Mat.scalar(f), RHO_T, grid=10000)
            assert 0 < calls[0] <= 300


class TestOracleReader:
    """One Oracle1D read at many barycenters gives what qinv_oracle_1d
    gives at each, and raises what it raises."""

    @pytest.mark.parametrize("name", ["quartic", "double_well"])
    def test_readings_match_one_call_each(self, name):
        v = BATCHED_ENERGIES[name]
        oracle = Oracle1D(v, RHO_T)
        for f in (0.0, 0.3, 1.5, 0.3):
            read = oracle.read(Mat.scalar(f)).to_json_dict()
            once = qinv_oracle_1d(v, Mat.scalar(f), RHO_T).to_json_dict()
            assert json.dumps(read) == json.dumps(once)

    @staticmethod
    def raised(fn):
        with pytest.raises(Exception) as info:
            fn()
        return type(info.value), str(info.value)

    @pytest.mark.parametrize("rho_t, grid", [(RHO_T, 50), (0.5, 10000)])
    def test_bad_inputs_rejected_alike(self, rho_t, grid):
        got = self.raised(lambda: Oracle1D(well(), rho_t, grid))
        want = self.raised(lambda: qinv_oracle_1d(well(), Mat.scalar(0.0),
                                                  rho_t, grid))
        assert got == want and got[0] is ValueError

    def test_errors_match_in_order(self):
        rows = [0]

        def batch(a):
            rows[0] += len(a)
            return np.full(len(a), math.inf)

        v = MatrixFn(lambda a: math.inf, Growth.o_rho(RHO_T), "inf everywhere",
                     batch)
        oracle = Oracle1D(v, RHO_T)
        for f, error in ((3.0, InfeasibleBarycenter), (1.0, NoAdmissibleSplit),
                         (-2.5, InfeasibleBarycenter), (0.0, NoAdmissibleSplit)):
            got = self.raised(lambda: oracle.read(Mat.scalar(f)))
            want = self.raised(lambda: qinv_oracle_1d(v, Mat.scalar(f), RHO_T))
            assert got == want and got[0] is error
            if f == 3.0:
                assert rows[0] == 0
        # the reader scanned once; each qinv_oracle_1d call scans again
        assert rows[0] == 10000 * 3


class TestLaminateUpper:
    def test_matches_oracle_on_wells(self):
        v = well()
        for f in (-1.2, -0.4, 0.0, 0.7, 1.3):
            lam = qinv_laminate_upper(v, Mat.scalar(f), RHO_T, depth=2)
            ora = qinv_oracle_1d(v, Mat.scalar(f), RHO_T)
            assert lam.value_upper >= ora.value_upper - 1e-9
            assert lam.value_upper == pytest.approx(ora.value_upper, abs=1e-4)

    def test_2d_shear_wells_collapse(self):
        w = builtin_energy("shear_well_2d", {"kappa": 1.0, "gamma": 0.0})
        v = orho_extend(w, RHO_T)
        mid = Mat.from_rows([[1.0, 0.5], [0.0, 1.0]])
        est = qinv_laminate_upper(v, mid, RHO_T, depth=1, angles=8)
        assert est.value_upper <= 1e-4
        assert pair(est.witness, v) == pytest.approx(est.value_upper, abs=1e-9)

    def test_witness_barycenter(self):
        v = well()
        f = Mat.scalar(0.5)
        est = qinv_laminate_upper(v, f, RHO_T, depth=2)
        assert frob_norm(first_moment(est.witness) - f) <= 1e-8

    def test_no_admissible_split(self):
        v = MatrixFn(lambda a: math.inf, Growth.o_rho(RHO_T), "inf everywhere")
        with pytest.raises(NoAdmissibleSplit):
            qinv_laminate_upper(v, Mat.scalar(1.0), RHO_T, depth=1)

    def test_raw_integrand_confined_to_k(self):
        # wells at +-2 lie outside K_1.5: the bound may not use them
        w = builtin_energy("double_well_inv", {"wells": [-2.0, 2.0]})
        est = qinv_laminate_upper(w, Mat.scalar(0.0), 1.5)
        assert est.value_upper >= 0.25 - 1e-9
        assert all(abs(a.flat[0]) <= 1.5 for a, _ in est.witness.atoms)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            qinv_laminate_upper(well(), Mat.scalar(0.5), RHO_T, depth=-1)


_SHEAR = builtin_energy("shear_well_2d", {"kappa": 1.0, "gamma": 0.0})
_MID = Mat.from_rows([[1.0, 0.5], [0.0, 1.0]])
# (integrand, barycenter, rho_tilde, depth, angles); the first is the
# benchmark's envelope_laminate_2d scenario
_LAMINATE_CASES = {
    "shear_2d": (_SHEAR, _MID, 3.0, 2, 8),
    "shear_2d_coupled": (builtin_energy("shear_well_2d", {"gamma": 0.05}),
                         Mat.from_rows([[1.2, 0.3], [0.1, 0.9]]), 2.5, 1, 4),
    "shear_2d_scalar_only": (MatrixFn(_SHEAR.evaluate, _SHEAR.growth),
                             _MID, 3.0, 1, 4),
    "double_well_1d": (builtin_energy("double_well_inv", {"gamma": 1e-3}),
                       Mat.scalar(0.3), RHO_T, 2, 32),
    "quartic_1d_raw": (named_testfn("quartic_well_1d"), Mat.scalar(-0.4),
                       RHO_T, 2, 32),
}


class TestLaminateBatch:
    """Each node's coarse scan is one batch; value, witness and
    evaluation count equal the sequential scan's bit for bit."""

    @pytest.mark.parametrize("case", sorted(_LAMINATE_CASES))
    def test_matches_the_sequential_scan(self, case):
        v, f, rho_t, depth, angles = _LAMINATE_CASES[case]
        got, ref = (json.dumps(route(v, f, rho_t, depth=depth, angles=angles)
                               .to_json_dict(), sort_keys=True)
                    for route in (qinv_laminate_upper,
                                  _reference.qinv_laminate_upper))
        assert got == ref

    def test_benchmark_scenario_evaluations(self):
        est = qinv_laminate_upper(_SHEAR, _MID, 3.0, depth=2, angles=8)
        assert est.detail["evaluations"] == 25382


def _banded(bands, floor=math.inf, floor_on=(-4.0, 4.0)):
    """A 1D integrand worth bands[c] within 1e-9 of each slope c, floor
    elsewhere on floor_on and +inf beyond; declared confined, so the
    lamination takes it as it is."""

    def evaluate(a):
        s = a.flat[0]
        for c, val in bands.items():
            if abs(s - c) < 1e-9:
                return val
        return floor if floor_on[0] <= s <= floor_on[1] else math.inf

    return MatrixFn(evaluate, Growth.o_rho(RHO_T), "banded")


# the coarse split t = 16 / 13, lambda = 0.5 of the barycenter 0 at
# rho_tilde 2: ends +-8/13, 78.8 steps of the line grid's 1/128 from 0
_END = 0.5 * (2.0 * RHO_T * 4 / 13.0)


class TestLaminateLineHull:
    """Each node refines its best coarse split by the line hull along
    its dyad, and keeps the coarse split when the hull does not help."""

    @pytest.mark.parametrize("depth", [1, 2])
    def test_equals_the_oracle_on_the_quartic_well(self, depth):
        v = well()
        for f in np.random.default_rng(55).uniform(-1.5, 1.5, 40):
            lam = qinv_laminate_upper(v, Mat.scalar(f), RHO_T, depth=depth)
            ora = qinv_oracle_1d(v, Mat.scalar(f), RHO_T)
            assert lam.value_upper == pytest.approx(ora.value_exact, abs=1e-12)

    def test_line_without_two_finite_grid_points_keeps_the_coarse_split(self):
        # finite at the barycenter and at the coarse ends only: the line
        # grid sees one finite point, s = 0
        v = _banded({0.0: 5.0, -_END: 1.0, _END: 3.0})
        est = qinv_laminate_upper(v, Mat.scalar(0.0), RHO_T, depth=1)
        assert est.value_upper == 2.0
        assert sorted((a.flat[0], w) for a, w in est.witness.atoms) == [
            (-_END, 0.5), (_END, 0.5)]

    def test_one_sided_line_keeps_the_coarse_split(self):
        # the grid sees [-1, -0.5] and the barycenter, not the band at
        # +8/13: the hull ends at s = 0, so its supporting pair is that
        # one point, worth 1 against the coarse split's 5; the node keeps
        # the coarse split, and then the Dirac
        v = _banded({0.0: 1.0, _END: 5.0}, floor=5.0, floor_on=(-1.0, -0.5))
        est = qinv_laminate_upper(v, Mat.scalar(0.0), RHO_T, depth=1)
        assert est.value_upper == 1.0
        assert [(a.flat[0], w) for a, w in est.witness.atoms] == [(0.0, 1.0)]

    def test_worse_refined_pair_is_not_taken(self):
        # the line hull is the constant 10 and misses the dips at the
        # coarse ends, where the split is worth 0
        v = _banded({-_END: 0.0, _END: 0.0}, floor=10.0)
        est = qinv_laminate_upper(v, Mat.scalar(0.0), RHO_T, depth=1)
        assert est.value_upper == 0.0
        assert sorted(a.flat[0] for a, _ in est.witness.atoms) == [-_END, _END]


class TestFeUpper:
    def test_double_well_1d(self):
        est = qinv_fe_upper(well(), Mat.scalar(0.0), 32, RHO_T, iters=120)
        assert est.value_upper <= 1e-6
        assert est.method == "fe"

    def test_convex_energy_affine_floor(self):
        # convex integrand: the affine deformation is already optimal
        v = square()
        est = qinv_fe_upper(v, Mat.scalar(1.0), 16, RHO_T, iters=60)
        assert est.value_upper == pytest.approx(1.0, abs=1e-6)

    def test_2d_small_mesh(self):
        w = builtin_energy("inv_penalty", {"p": 2.0})
        v = orho_extend(w, 4.0)
        est = qinv_fe_upper(v, Mat.identity(2), 4, 4.0, iters=10)
        # value_upper is at most v(I) (the affine start) and at least
        # the convex floor 4 = min of |s|^2 + |s^-1|^2
        assert 4.0 - 1e-9 <= est.value_upper <= w.evaluate(Mat.identity(2)) + 1e-9

    def test_1d_one_cell_no_start(self):
        # one cell has no interior node: the affine map is the only candidate
        v = orho_extend(builtin_energy("double_well_inv"), 2.0)
        with pytest.raises(NoFeasibleStart, match="one cell"):
            qinv_fe_upper(v, Mat.scalar(0.0), 1, 2.0)

    def test_1d_one_atom_support_no_start(self):
        # finite only for s > 0: the oracle at the barycenter 0 keeps one
        # atom, the affine start, whose energy is infinite
        v = MatrixFn(lambda a: (a.flat[0] - 1.0) ** 2 if a.flat[0] > 0.0 else math.inf,
                     Growth.o_rho(RHO_T), "(s - 1)^2 for s > 0")
        with pytest.raises(NoFeasibleStart, match="no finite-energy deformation"):
            qinv_fe_upper(v, 0.0, 8, 2.0)

    def test_2d_singular_barycenter_no_start(self):
        v = orho_extend(builtin_energy("inv_penalty", {"p": 2.0}), 4.0)
        with pytest.raises(NoFeasibleStart):
            qinv_fe_upper(v, diag(1.0, 0.0), 4, 4.0, iters=5)


class TestEstimateObject:
    def test_verify_and_json(self):
        v = well()
        est = qinv_oracle_1d(v, Mat.scalar(0.0), RHO_T)
        assert est.verify(v) <= 1e-9
        d = est.to_json_dict()
        assert d["method"] == "oracle_1d"
        assert "witness" in d and "value_upper" in d
