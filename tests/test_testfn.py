import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _growth import growth_check
from _sampling import diag
from ymrelax.errors import DomainError, UnknownEnergy
from ymrelax.matcore import (Mat, RhoBall, det, frob_norm, in_rho_balls, invert,
                             inv_norm, inv_norms, is_invertible, quiet)
from ymrelax.testfn import (
    Growth,
    TestFn as MatrixFn,
    builtin_energy,
    evaluate_batch,
    make_det_cutoff,
    make_phi_rho,
    named_testfn,
    orho_extend,
    smoothstep,
)


class TestGrowth:
    def test_constructors(self):
        assert Growth.c_p(2.0).kind == "C_p"
        assert Growth.c_pmp(3.0).param == 3.0
        assert Growth.c_0inv().param is None
        assert Growth.o_rho(2.0) == Growth("O_rho", 2.0)

    def test_param_required(self):
        with pytest.raises(ValueError):
            Growth("C_p")
        with pytest.raises(ValueError):
            Growth("no_such_kind", 1.0)


class TestSmoothstep:
    def test_endpoints_and_clamping(self):
        assert smoothstep(-1.0) == 0.0
        assert smoothstep(0.0) == 0.0
        assert smoothstep(1.0) == 1.0
        assert smoothstep(2.0) == 1.0
        assert smoothstep(0.5) == pytest.approx(0.5)

    def test_monotone(self):
        xs = [i / 200 for i in range(201)]
        ys = [smoothstep(x) for x in xs]
        assert all(y2 >= y1 for y1, y2 in zip(ys, ys[1:]))

    def test_flat_derivative_at_knots(self):
        # quintic profile: first differences vanish to second order at 0 and 1
        h = 1e-4
        assert smoothstep(h) < h * h * 10
        assert 1.0 - smoothstep(1.0 - h) < h * h * 10


class TestPhiRho:
    def test_one_inside_zero_outside(self):
        phi = make_phi_rho(2.0)
        assert phi.growth == Growth.c_0inv()
        assert phi.evaluate(Mat.scalar(1.0)) == 1.0
        assert phi.evaluate(Mat.scalar(2.0)) == 1.0  # on the ball boundary
        assert phi.evaluate(Mat.scalar(3.5)) == 0.0  # beyond rho + 1
        assert phi.evaluate(Mat.scalar(0.0)) == 0.0  # singular

    def test_transition_band(self):
        phi = make_phi_rho(2.0)
        mid = phi.evaluate(Mat.scalar(2.5))
        assert 0.0 < mid < 1.0

    def test_inversion_symmetric(self):
        phi = make_phi_rho(2.0)
        for s in (0.3, 0.45, 1.7, 2.4, 2.9):
            a = Mat.scalar(s)
            assert phi.evaluate(a) == pytest.approx(phi.evaluate(invert(a)), abs=1e-12)

    def test_declares_c_0inv_growth(self):
        v = make_phi_rho(1.5)
        assert v.growth.kind == "C_0inv"


class TestDetCutoff:
    def test_unsigned(self):
        c = make_det_cutoff(0.5, signed=False)
        assert c.evaluate(Mat.scalar(0.0)) == 1.0
        assert c.evaluate(Mat.scalar(0.25)) > 0.0
        assert c.evaluate(Mat.scalar(1.0)) == 0.0
        assert c.evaluate(Mat.scalar(-1.0)) == 0.0

    def test_signed(self):
        c = make_det_cutoff(0.5, signed=True)
        assert c.evaluate(Mat.scalar(-1.0)) == 1.0
        assert c.evaluate(Mat.scalar(0.0)) == 1.0
        assert c.evaluate(Mat.scalar(1.0)) == 0.0

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            make_det_cutoff(0.0, signed=False)


class TestOrhoExtend:
    def test_inside_matches_core_outside_inf(self):
        core = named_testfn("frob_power", {"p": 2.0})
        v = orho_extend(core, 2.0)
        assert v.growth == Growth.o_rho(2.0)
        assert v.evaluate(Mat.scalar(1.0)) == 1.0
        assert v.evaluate(Mat.scalar(3.0)) == math.inf
        assert v.evaluate(Mat.scalar(0.1)) == math.inf  # inverse norm too big
        assert v.evaluate(Mat.scalar(0.0)) == math.inf  # singular

    def test_constant_core(self):
        v = orho_extend(MatrixFn(lambda a: 7.0, Growth.c_p(1.0)), 3.0)
        assert v.evaluate(Mat.scalar(1.0)) == 7.0

    def test_same_radius_returns_core(self):
        v = orho_extend(named_testfn("frob_power", {"p": 2.0}), 3.0)
        assert orho_extend(v, 3.0) is v
        w = orho_extend(v, 2.0)
        assert w is not v and w.growth == Growth.o_rho(2.0)
        assert v.evaluate(Mat.scalar(2.5)) == 6.25
        assert w.evaluate(Mat.scalar(2.5)) == math.inf

    def test_orientation_is_not_the_same_radius(self):
        v = orho_extend(named_testfn("frob_power", {"p": 2.0}), 3.0)
        w = orho_extend(v, 3.0, positive_det_only=True)
        assert w is not v and w.growth == Growth.o_rho(3.0)
        assert w.description.endswith("+inf outside the 3.0-ball and at det <= 0")
        assert v.evaluate(Mat.scalar(-1.0)) == 1.0
        assert w.evaluate(Mat.scalar(-1.0)) == math.inf
        assert w.evaluate(Mat.scalar(1.0)) == 1.0

    @pytest.mark.parametrize("rho", [math.inf, 2.5])
    def test_positive_det_only(self, rho):
        # evaluate and batch agree bit for bit, and both are +inf where
        # det <= 0, on 1x1 and 2x2 stacks
        draws = np.random.default_rng(3).uniform(-3.0, 3.0, (400, 4))
        for core, a in (
                (builtin_energy("double_well_inv", {"gamma": 1e-3}),
                 np.array(SPECIAL_SLOPES + draws[:, 0].tolist()).reshape(-1, 1, 1)),
                (builtin_energy("shear_well_2d", {"gamma": 0.1, "p": 2.0}),
                 np.vstack([np.array(SPECIAL_2X2, dtype=float), draws]).reshape(-1, 2, 2))):
            v = orho_extend(core, rho, positive_det_only=True)
            n = a.shape[1]
            mats = [Mat(n, tuple(r)) for r in a.reshape(len(a), n * n).tolist()]
            want = np.array([v.evaluate(m) for m in mats])
            assert evaluate_batch(v, a).tobytes() == want.tobytes()
            assert all(x == math.inf for x, m in zip(want, mats) if det(m) <= 0.0)
            assert any(x < math.inf for x in want)


class TestBuiltinEnergies:
    def test_inv_penalty_values(self):
        w = builtin_energy("inv_penalty", {"p": 2.0})
        assert w.evaluate(Mat.scalar(2.0)) == pytest.approx(4.25)
        assert w.evaluate(Mat.scalar(0.0)) == math.inf
        assert w.evaluate(Mat.identity(2)) == pytest.approx(4.0)

    def test_double_well_values(self):
        w = builtin_energy("double_well_inv", {"wells": [-1.0, 1.0], "p": 2.0,
                                               "gamma": 0.0})
        assert w.evaluate(Mat.scalar(1.0)) == 0.0
        assert w.evaluate(Mat.scalar(-1.0)) == 0.0
        assert w.evaluate(Mat.scalar(0.5)) == pytest.approx(0.25)
        assert w.evaluate(Mat.scalar(0.0)) == math.inf

    def test_double_well_gamma_coupling(self):
        w = builtin_energy("double_well_inv", {"wells": [-1.0, 1.0], "p": 2.0,
                                               "gamma": 1e-3})
        assert w.evaluate(Mat.scalar(1.0)) == pytest.approx(1e-3)
        assert w.evaluate(Mat.scalar(2.0)) == pytest.approx(1.0 + 1e-3 * 0.25)

    def test_shear_well_2d(self):
        w = builtin_energy("shear_well_2d", {"kappa": 1.0, "gamma": 0.0})
        assert w.evaluate(Mat.identity(2)) == 0.0
        assert w.evaluate(Mat.from_rows([[1.0, 1.0], [0.0, 1.0]])) == 0.0
        assert w.evaluate(Mat.from_rows([[1.0, 0.5], [0.0, 1.0]])) == pytest.approx(0.25)

    @pytest.mark.parametrize("name, params", [
        ("inv_penalty", {"p": True}),
        ("inv_penalty", {"p": "2"}),
        ("inv_penalty", {"p": 10 ** 400}),
        ("inv_penalty", {"p": math.inf}),
        ("double_well_inv", {"gamma": math.nan}),
        ("double_well_inv", {"gamma": -0.5}),
        ("double_well_inv", {"wells": 5}),
        ("double_well_inv", {"wells": [1.0, "a"]}),
        ("double_well_inv", {"wells": [1.0, [1.0, 0.0, 0.0, 1.0]]}),
        ("shear_well_2d", {"kappa": [1.0]}),
        ("shear_well_2d", {"gamma": -1.0}),
        ("inv_penalty", [("p", 2.0)]),
    ])
    def test_bad_parameter_values(self, name, params):
        with pytest.raises(UnknownEnergy):
            builtin_energy(name, params)

    def test_defaults_fill_absent_keys(self):
        assert (builtin_energy("double_well_inv").description
                == builtin_energy("double_well_inv",
                                  {"wells": [1, -1], "p": 2, "gamma": 0}).description)

    def test_unknown_name_and_params(self):
        with pytest.raises(UnknownEnergy):
            builtin_energy("nonsense")
        with pytest.raises(UnknownEnergy):
            builtin_energy("inv_penalty", {"p": 2.0, "stray": 1})
        with pytest.raises(UnknownEnergy):
            builtin_energy("inv_penalty", {"p": -1.0})
        with pytest.raises(UnknownEnergy):
            builtin_energy("double_well_inv", {"wells": [1.0]})


class TestNamedTestFn:
    def test_registry(self):
        assert named_testfn("frob_power", {"p": 2.0}).evaluate(
            Mat.scalar(3.0)) == 9.0
        assert named_testfn("det").evaluate(diag(2.0, 3.0)) == 6.0
        assert named_testfn("entry_power", {"exponent": 2}).evaluate(
            Mat.scalar(-2.0)) == 4.0
        assert named_testfn("quartic_well_1d").evaluate(
            Mat.scalar(0.0)) == 1.0
        phi = named_testfn("phi_rho", {"rho": 2.0})
        assert phi.evaluate(Mat.scalar(1.0)) == 1.0
        q = named_testfn("inv_power", {"q": 2.0})
        assert q.evaluate(Mat.scalar(0.5)) == pytest.approx(4.0)

    def test_energy_passthrough(self):
        v = named_testfn("energy", {"name": "inv_penalty", "params": {"p": 2.0}})
        assert v.evaluate(Mat.scalar(1.0)) == 2.0
        inline = named_testfn("energy", {"name": "inv_penalty", "p": 3.0})
        assert inline.evaluate(Mat.scalar(1.0)) == 2.0
        assert inline.description == named_testfn(
            "energy", {"name": "inv_penalty", "params": {"p": 3}}).description

    @pytest.mark.parametrize("kind, params", [
        ("energy", {}),
        ("energy", {"name": "inv_penalty", "params": {"p": 2.0}, "p": 2.0}),
        ("entry_power", {"exponent": "a"}),
        ("entry_power", {"exponent": 2.5}),
        ("entry_power", {"exponent": -1}),
        ("phi_rho", {"rho": -1}),
        ("frob_power", {"p": None}),
        ("det", {"p": 2.0}),
    ])
    def test_bad_parameters(self, kind, params):
        with pytest.raises(UnknownEnergy):
            named_testfn(kind, params)

    def test_unknown_kind(self):
        with pytest.raises(UnknownEnergy):
            named_testfn("no_such_kind")


class TestGrowthCheck:
    def test_builtin_energies_pass(self):
        for name, params in (("inv_penalty", {"p": 2.0}),
                             ("double_well_inv", {"gamma": 0.5}),
                             ("shear_well_2d", {})):
            rep = growth_check(builtin_energy(name, params))
            assert rep.consistent, f"{name}: {rep}"

    def test_cutoffs_pass(self):
        assert growth_check(make_phi_rho(2.0)).consistent

    def test_violation_detected(self):
        # declared p-growth but actually grows like |s|^4
        liar = MatrixFn(lambda a: frob_norm(a) ** 4, Growth.c_p(1.0),
                      "mismatched growth declaration")
        assert not growth_check(liar, samples=128).consistent

    def test_o_rho_violations_noted_once(self):
        rep = growth_check(MatrixFn(lambda a: 1.0, Growth.o_rho(2.0), "x"))
        assert not rep.consistent
        assert rep.notes == "finite outside the rho ball"
        rep = growth_check(MatrixFn(lambda a: math.inf, Growth.o_rho(2.0), "x"))
        assert not rep.consistent
        assert rep.notes == "infinite inside the rho ball"

    def test_unexpected_domain_error(self):
        def evaluate(a):
            if frob_norm(a) > 10.0:
                raise DomainError("only small matrices")
            return frob_norm(a)
        rep = growth_check(MatrixFn(evaluate, Growth.c_p(1.0)))
        assert not rep.consistent
        assert rep.notes == "unexpected DomainError"

    def test_infinite_value_in_finite_class(self):
        rep = growth_check(MatrixFn(
            lambda a: math.inf if frob_norm(a) > 10.0 else frob_norm(a),
            Growth.c_p(1.0)))
        assert not rep.consistent
        assert rep.notes == "infinite value in a finite-growth class"

    def test_c_0inv_nonzero_at_singular(self):
        rep = growth_check(MatrixFn(lambda a: 1.0, Growth.c_0inv()))
        assert not rep.consistent
        assert rep.notes == "nonzero on a singular matrix"


# -- the batch of 1x1 matrices (slopes) against scalar evaluate ---------

BATCHED_CORES = {
    "quartic_well_1d": named_testfn("quartic_well_1d"),
    "entry_power_0": named_testfn("entry_power", {"exponent": 0}),
    "entry_power_2": named_testfn("entry_power", {"exponent": 2}),
    "entry_power_3": named_testfn("entry_power", {"exponent": 3}),
    "double_well_gamma_0": builtin_energy("double_well_inv"),
    "double_well_gamma_1e-3": builtin_energy("double_well_inv",
                                             {"gamma": 1e-3, "p": 2.0}),
    "double_well_p_negative": builtin_energy(
        "double_well_inv", {"wells": [-0.7, 1.3], "gamma": 0.5, "p": -1.5}),
    "energy_entry": named_testfn("energy", {"name": "double_well_inv",
                                            "gamma": 0.25, "p": 3.0}),
    "inv_penalty": builtin_energy("inv_penalty", {"p": 1.5}),
    "frob_power": named_testfn("frob_power", {"p": 3.0}),
    "det": named_testfn("det"),
}
BALL_RADII = (2.0, 3.3, math.inf)
BATCHED = dict(BATCHED_CORES)
BATCHED.update({f"{name} in the {rho}-ball": orho_extend(core, rho)
                for name, core in BATCHED_CORES.items() for rho in BALL_RADII})

# the singular gap, the det threshold and the ball edges of every radius
SPECIAL_SLOPES = [0.0, -0.0] + [x for m in (1e-13, 1e-12, 1.0, 0.5, 2.0,
                                            1.0 / 3.3, 3.3)
                                for x in (m, -m)]
# slopes whose squares or powers overflow; one at a time, as each may raise
HUGE_SLOPES = [x for m in (1e77, 1.3e154, 1.35e154, 1e200, 1.7e308)
               for x in (m, -m)]


def scalar_outcome(v, slopes):
    """Bytes of the scalar values, or the (type, message) raised."""
    try:
        vals = [v.evaluate(Mat.scalar(x)) for x in slopes]
        return np.array(vals, dtype=float).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def batch_outcome(v, slopes):
    try:
        return slope_batch(v, slopes).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def slope_batch(v, slopes):
    return evaluate_batch(v, np.array(slopes, dtype=float).reshape(-1, 1, 1))


slope_lists = st.lists(st.one_of(st.sampled_from(SPECIAL_SLOPES),
                                 st.floats(-10.0, 10.0)), max_size=40)


class TestSlopeBatch:
    """evaluate_batch on 1x1 matrices equals scalar evaluate bit for
    bit, infinities and raised errors included."""

    def test_batched_functions_have_a_batch(self):
        assert all(v.batch is not None for v in BATCHED.values())
        # an extension tests its ball in batch, and its core falls back
        assert orho_extend(named_testfn("inv_power"), 2.0).batch is not None
        for v in (make_phi_rho(2.0), make_det_cutoff(0.5, True),
                  named_testfn("inv_power"),
                  MatrixFn(lambda a: 7.0, Growth.c_p(1.0))):
            assert v.batch is None

    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_special_and_uniform_slopes(self, name):
        # uniform draws catch an ulp of numpy's power against Python's **
        v = BATCHED[name]
        draws = np.random.default_rng(5).uniform(-3.5, 3.5, 4000).tolist()
        for slopes in [SPECIAL_SLOPES, draws] + [[x] for x in HUGE_SLOPES]:
            assert batch_outcome(v, slopes) == scalar_outcome(v, slopes)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(BATCHED)), slope_lists)
    def test_random_slopes(self, name, slopes):
        v = BATCHED[name]
        assert batch_outcome(v, slopes) == scalar_outcome(v, slopes)

    def test_plain_functions_fall_back_to_evaluate(self):
        v = orho_extend(MatrixFn(lambda a: 7.0, Growth.c_p(1.0)), 3.0)
        assert slope_batch(v, [0.0, 1.0, 4.0]).tolist() == [math.inf, 7.0, math.inf]
        phi = make_phi_rho(2.0)
        assert slope_batch(phi, [0.0, 1.0]).tolist() == [0.0, 1.0]

    def test_non_finite_slopes_raise_as_scalar(self):
        v = BATCHED["quartic_well_1d in the 2.0-ball"]
        for bad in (math.nan, math.inf):
            assert batch_outcome(v, [1.0, bad]) == scalar_outcome(v, [1.0, bad])

    def test_overflow_is_raised(self):
        v = orho_extend(named_testfn("entry_power", {"exponent": 2000}), 3.3)
        with pytest.raises(OverflowError):
            slope_batch(v, [3.0])
        assert slope_batch(v, [4.0]).tolist() == [math.inf]


# -- the batch of n x n matrices against scalar evaluate ------------------

MATRIX_CORES = {
    "shear_well_2d": builtin_energy("shear_well_2d"),
    "shear_well_2d_coupled": builtin_energy("shear_well_2d",
                                            {"kappa": 0.5, "gamma": 0.1, "p": 3.0}),
    "shear_well_2d_p_negative": builtin_energy("shear_well_2d",
                                               {"gamma": 0.5, "p": -1.5}),
    "double_well_2x2": builtin_energy(
        "double_well_inv", {"wells": [[1, 0, 0, 1], [-1, 0, 0, 1]], "gamma": 1e-3}),
    "inv_penalty": builtin_energy("inv_penalty"),
    "inv_penalty_p3": builtin_energy("inv_penalty", {"p": 3.0}),
    "frob_power": named_testfn("frob_power"),
    "frob_power_p_negative": named_testfn("frob_power", {"p": -1.0}),
    "det": named_testfn("det"),
    # 1D functions raise DomainError on a 2x2 matrix, batch or not
    "quartic_well_1d": named_testfn("quartic_well_1d"),
    "entry_power_3": named_testfn("entry_power", {"exponent": 3}),
}
MATRIX_BATCHED = dict(MATRIX_CORES)
MATRIX_BATCHED.update({f"{name} in the {rho}-ball": orho_extend(core, rho)
                       for name, core in MATRIX_CORES.items()
                       for rho in BALL_RADII})

# the wells, the det threshold and the ball edges
SPECIAL_2X2 = [[1, 0, 0, 1], [1, 1, 0, 1], [1, 0.5, 0, 1], [0, 0, 0, 0],
               [1, 0, 0, 1e-12], [1, 0, 0, 1e-13], [2, 0, 0, 0.5],
               [3.3, 0, 0, 1 / 3.3], [-1, 0, 0, 1], [0, 1, -1, 0],
               [1, 2, 2, 4], [1e-300, 0, 0, 1e-300]]
# entries whose squares, products or powers overflow; one row at a time
HUGE_2X2 = [[1e77, 0, 0, 1], [1e154, 1e154, 1e154, 1e154], [1e200, 0, 0, 1e200],
            [4.0, 4.5e307, 4.0, 4.5e307], [1.7e308, 0, 0, -1.0]]

matrix_entries = st.one_of(st.floats(-4.0, 4.0),
                           st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-12]))
stacks_2x2 = st.lists(st.one_of(
    st.lists(matrix_entries, min_size=4, max_size=4),
    st.sampled_from(SPECIAL_2X2)), max_size=24)


def assert_batch_matches(v, rows):
    """evaluate_batch(v, rows) equals v.evaluate on each row, bit for
    bit, +inf included; a row that raises is checked alone."""
    a = np.array(rows, dtype=float).reshape(-1, 2, 2)

    def outcome(fn, arg):
        try:
            return np.asarray(fn(arg), dtype=float).tobytes()
        except Exception as exc:
            return type(exc), str(exc)

    want = [outcome(lambda m: [v.evaluate(m)], Mat(2, tuple(r)))
            for r in a.reshape(-1, 4).tolist()]

    def batch(b):
        return outcome(lambda b: evaluate_batch(v, b), b)

    if all(isinstance(w, bytes) for w in want):
        assert batch(a) == b"".join(want)
    else:
        assert [batch(a[i:i + 1]) for i in range(len(a))] == want


class TestMatrixBatch:
    """Every batched TestFn, bare and under orho_extend, equals scalar
    evaluate on stacks of 2x2 matrices bit for bit."""

    def test_batched_functions_have_a_batch(self):
        assert all(v.batch is not None for v in MATRIX_BATCHED.values())

    @pytest.mark.parametrize("name", sorted(MATRIX_BATCHED))
    def test_special_uniform_and_huge_rows(self, name):
        v = MATRIX_BATCHED[name]
        draws = np.random.default_rng(7).uniform(-3.5, 3.5, (2000, 4)).tolist()
        for rows in [SPECIAL_2X2, draws] + [[r] for r in HUGE_2X2]:
            assert_batch_matches(v, rows)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(MATRIX_BATCHED)), stacks_2x2)
    def test_random_stacks(self, name, rows):
        assert_batch_matches(MATRIX_BATCHED[name], rows)

    @pytest.mark.parametrize("name", ["double_well_2x2", "shear_well_2d_coupled"])
    def test_other_sizes_fail_as_scalar(self, name):
        # 2x2 wells against 1x1 matrices: singular ones are +inf before
        # the wells are reached, invertible ones raise
        v = MATRIX_CORES[name]
        for slopes in ([0.0], [2.0], [0.0, 2.0]):
            assert batch_outcome(v, slopes) == scalar_outcome(v, slopes)

    def test_plain_function_falls_back_to_evaluate(self):
        phi = make_phi_rho(2.0)
        a = np.array([np.eye(2), np.zeros((2, 2))])
        assert evaluate_batch(phi, a).tolist() == [1.0, 0.0]

    def test_huge_entries_warn_nothing(self):
        """Entries whose sum overflows are finite: the batch takes them
        under quiet(), with no RuntimeWarning."""
        v = builtin_energy("double_well_inv", {"gamma": 1e-3, "p": 2.0})
        a = np.full((2, 1, 1), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate_batch(v, a).tolist() == [math.inf, math.inf]

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError):
            evaluate_batch(MATRIX_CORES["det"], np.zeros((3, 2, 3)))
        with pytest.raises(ValueError):
            evaluate_batch(MATRIX_CORES["det"], np.zeros((3, 4)))


# entries across the float range, many near the 1.34e154 square-root bound
near_bound = st.floats(min_value=1e150, max_value=1.4e154)
wide_entries = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         near_bound, near_bound.map(float.__neg__))
unit_entries = st.floats(min_value=-4.0, max_value=4.0)
wide_wells = st.one_of(st.sampled_from([sys.float_info.max, -sys.float_info.max]),
                       st.floats(allow_nan=False, allow_infinity=False))


class TestDoubleWellAdmittedRows:
    """The double-well batch subtracts the wells only on the rows its
    invertibility mask admits, and takes the differences as finite: an
    admitted row has a finite |a|^n, so entries below 1.35e154, and its
    difference with a finite well rounds to a finite float."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(wide_entries, min_size=n * n, max_size=n * n),
                             min_size=1, max_size=8),
        st.lists(wide_wells, min_size=n * n, max_size=n * n))))
    def test_differences_are_finite(self, case):
        n, rows, well = case
        a = np.array(rows).reshape(-1, n, n)
        with quiet():
            for ok in (in_rho_balls(a, RhoBall(math.inf)), inv_norms(a) < math.inf):
                diff = a[ok] - np.array(well).reshape(n, n)
                assert np.isfinite(diff).all()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.one_of(unit_entries, wide_entries),
                          min_size=n * n, max_size=n * n), min_size=1, max_size=8),
        st.lists(st.lists(st.one_of(unit_entries, wide_wells),
                          min_size=n * n, max_size=n * n), min_size=2, max_size=2))),
        st.sampled_from([0.0, 1e-3]))
    # a sum whose order moves the last bit of the distance
    @example(([[-1.925, -2.125, 3.965, -0.238]],
              [[2.692, -0.189, 1.113, -2.795], [10.0, 10.0, 10.0, 10.0]]), 0.0)
    def test_scalar_wells_match_mat_differences(self, case, gamma):
        """The scalar energy squares and sums each entry difference in
        frob_norm's order, as frob_norm(a - well) does on the Mat.  Entries
        of one scale make the sum's order and sqrt round; wide ones reach
        the 1.34e154 bound."""
        rows, (wa, wb) = case
        v = builtin_energy("double_well_inv",
                           {"wells": [wa, wb], "p": 2.0, "gamma": gamma})
        for row in rows:
            a = Mat.from_flat(row)
            assert outcome(v.evaluate, a) == outcome(
                mat_difference_energy, a, Mat.from_flat(wa), Mat.from_flat(wb),
                gamma)


def outcome(fn, *args):
    """The bytes of fn's value, or the (type, message) it raised."""
    try:
        return struct.pack("<d", fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def mat_difference_energy(a, wa, wb, gamma, p=2.0):
    """The double-well energy with its wells' distances taken as
    frob_norm of Mat differences."""
    def wells(a):
        da, db = frob_norm(a - wa), frob_norm(a - wb)
        return min(da * da, db * db)

    if gamma == 0.0:
        return wells(a) if is_invertible(a) else math.inf
    inv = inv_norm(a)
    return math.inf if inv == math.inf else wells(a) + gamma * inv ** p
