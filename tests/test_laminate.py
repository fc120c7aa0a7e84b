import math
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _mixing import mix_deformations
import _reference
from _reference import ScalarGradientField
from _sampling import diag, random_invertible
from ymrelax.errors import BudgetExceeded, DomainError, InfeasibleLayer, NotRankOne
from ymrelax.laminate import (
    WEIGHT_FUNCTIONS,
    GradientField,
    SequenceSpec,
    _lateral_mismatch,
    boundary_glue,
    build_laminate_sequence,
    empirical_pairing,
    integrate_weight,
    verify_generation,
)
from ymrelax.matcore import Mat, det, frob_norm, inv_norm
from ymrelax.testfn import builtin_energy, named_testfn, orho_extend


SHEAR = Mat.from_rows([[1.0, 1.0], [0.0, 1.0]])


class TestGradientField:
    def test_from_slopes_1d(self):
        f = GradientField.from_slopes_1d([1.0, -1.0], [0.5, 0.5])
        assert f.pieces == 2
        assert f.value((0.0,))[0] == pytest.approx(0.0)
        assert f.value((0.5,))[0] == pytest.approx(0.5)
        assert f.value((1.0,))[0] == pytest.approx(0.0)
        assert f.gradient_at((0.25,)).flat[0] == 1.0
        assert f.gradient_at((0.75,)).flat[0] == -1.0

    def test_widths_must_fill_domain(self):
        with pytest.raises(ValueError):
            GradientField.from_slopes_1d([1.0, 2.0], [0.5, 0.4])

    def test_piece_lists_must_match(self):
        # a shorter width list used to drop the unmatched slope silently
        with pytest.raises(ValueError):
            GradientField.from_slopes_1d([1.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            GradientField.from_pieces(1, (1.0,), [0.5, 0.5], [Mat.scalar(1.0)])

    def test_piece_index_at_breaks_and_domain_ends(self):
        f = GradientField.from_slopes_1d([1.0, 2.0, 0.5], [0.25, 0.25, 0.5])
        ts = (-1e-12, 0.0, 0.25, 0.5, 1.0, 1.0 + 1e-12)
        assert [f.piece_index(t) for t in ts] == [0, 0, 1, 2, 2, 2]
        for t in (-1e-11, 1.0 + 1e-11):
            with pytest.raises(ValueError, match="outside the domain"):
                f.piece_index(t)

    def test_normal_length_checked(self):
        with pytest.raises(ValueError, match="normal has 2 entries, not 1"):
            GradientField(1, (0.6, 0.8), (0.0, 0.5, 1.0),
                          (Mat.scalar(1.0), Mat.scalar(1.2)), ((0.0,), (-0.1,)))
        with pytest.raises(ValueError, match="normal has 1 entries, not 2"):
            GradientField(2, (1.0,), (0.0, 1.0), (Mat.identity(2),), ((0.0, 0.0),))

    def test_affine(self):
        f = GradientField.affine(Mat.scalar(2.0))
        assert f.pieces == 1
        assert f.value((0.75,))[0] == pytest.approx(1.5)

    def test_sup_norms_and_det(self):
        f = GradientField.from_slopes_1d([0.5, 2.0], [0.5, 0.5])
        assert f.sup_norm() == pytest.approx(2.0)
        assert f.sup_inv_norm() == pytest.approx(2.0)
        assert f.min_det() == pytest.approx(0.5)

    def test_singular_piece_inf_inv(self):
        f = GradientField.from_slopes_1d([0.0, 2.0], [0.5, 0.5])
        assert f.sup_inv_norm() == math.inf

    def test_2d_needs_rank_one_jumps(self):
        # diag(1,1) -> diag(2,2) jumps by a rank-two matrix
        with pytest.raises(NotRankOne):
            GradientField.from_pieces(
                2, (1.0, 0.0), [0.5, 0.5],
                [Mat.identity(2), 2.0 * Mat.identity(2)])

    def test_2d_shear_pair_continuous(self):
        # I and I + e1(x)e2 differ along the normal e2
        f = GradientField.from_pieces(2, (0.0, 1.0), [0.5, 0.5],
                                      [Mat.identity(2), SHEAR])
        assert f.pieces == 2
        for t in (0.0, 0.25, 0.75, 1.0):
            x = tuple(t * c for c in (0.0, 1.0))
            y = f.value(x)
            assert len(y) == 2

    def test_value_continuity_across_interfaces(self):
        f = GradientField.from_slopes_1d([1.0, 3.0, -2.0], [0.25, 0.25, 0.5])
        for brk in f.breaks[1:-1]:
            below = f.value((brk - 1e-9,))
            above = f.value((brk + 1e-9,))
            assert below == pytest.approx(above, abs=1e-8)

    def test_json_roundtrip(self):
        f = GradientField.from_pieces(2, (0.0, 1.0), [0.5, 0.5],
                                      [Mat.identity(2), SHEAR])
        back = GradientField.from_json_dict(f.to_json_dict())
        assert back.pieces == f.pieces
        assert back.normal == pytest.approx(f.normal)

    def test_csv_rows(self):
        f = GradientField.from_slopes_1d([1.0, -1.0], [0.5, 0.5])
        rows = f.to_csv_rows()
        assert len(rows) == f.pieces + 1  # header plus one row per piece


def build(make, *args):
    """make(*args), or the error it raises; numpy may warn nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return make(*args)
        except Exception as exc:
            return exc


def outcome(built):
    """A build, to compare two builds of one field: the breaks,
    gradients and offsets by repr (so -0.0 and 0.0 differ), or the type
    and message of its error."""
    if isinstance(built, Exception):
        return type(built), str(built)
    return repr((built.breaks, built.grads, built.offsets))


# what the scalar form's arithmetic raises where it leaves the float range
SCALAR_OVERFLOWS = ("-inf + inf in fsum", "matrix entries must be finite")
FLOAT_RANGE = ("the field's scale {} leaves the float range: gradient norms "
               "and offsets must be finite")


def same_as_scalar(method, *args):
    """outcome of GradientField.method, or of the constructor when
    method is None, against the scalar form's.  Where the scalar form
    builds a field of finite scale, or raises NotRankOne, a finite jump
    error or a dimension error, both are the same.  Where its arithmetic
    overflows or the scale is not finite, GradientField raises
    ValueError."""
    built, scalar = (build(getattr(cls, method) if method else cls, *args)
                     for cls in (GradientField, ScalarGradientField))
    got, want = outcome(built), outcome(scalar)
    # the gradients and the offsets, or start value, the build starts from
    if method is None:
        grads, values = args[3], [x for b in args[4] for x in b]
    elif method == "from_pieces":
        grads, values = args[3], list(args[4] or ()) if len(args) > 4 else []
    else:
        grads, values = [Mat.scalar(s) for s in args[0]], list(args[2:])
    finite = all(map(math.isfinite, [frob_norm(g) for g in grads] + values))
    overflowed = isinstance(scalar, OverflowError) or (
        isinstance(scalar, ValueError) and str(scalar) in SCALAR_OVERFLOWS)
    if finite and not overflowed:
        assert got == want
    else:
        assert got[0] is ValueError
    return got


def error_id(value):
    """A table's expected (type, message) by the type's name."""
    if isinstance(value, tuple) and isinstance(value[0], type):
        return value[0].__name__
    return None


S = math.sqrt(0.5)
HUGE = Mat.from_rows([[1.5e308, 1.5e308], [0.0, 0.0]])
ZERO2 = Mat.zero(2)


class TestInterfacesOnStacks:
    """from_pieces chains breaks and offsets, and the interface checks
    decide, on stacks of the gradients; the one-Mat-at-a-time forms in
    _reference build the same fields bit for bit and raise the same
    errors, in the same order, wherever the field's scale is finite and
    their arithmetic stays in the float range."""

    def test_overflowing_jump_is_not_finite(self):
        assert same_as_scalar("from_slopes_1d", [1.7e308, -1.7e308], [0.5, 0.5]) == (
            ValueError, FLOAT_RANGE.format("inf"))

    def test_1d_station_is_the_slab_coordinate(self):
        # the normal -1 chains the offset as if x were -t, but the check
        # evaluates the jump at x = t
        assert same_as_scalar("from_pieces", 1, (-1.0,), [0.5, 0.5],
                              [Mat.scalar(1.0), Mat.scalar(2.0)]) == (
            ValueError, "deformation jumps by 1.000e+00 at interface 0")

    def test_hadamard_before_continuity(self):
        grads = (Mat.identity(2), SHEAR, diag(3.0, 2.0))
        breaks = (0.0, 0.25, 0.5, 1.0)
        # interface 0 jumps in value, interface 1 is not rank one
        jumpy = ((0.0, 0.0), (0.0, 1.0), (0.0, 0.0))
        assert same_as_scalar(None, 2, (0.0, 1.0), breaks, grads, jumpy) == (
            ValueError, "deformation jumps by 1.031e+00 at interface 0")
        # interface 1 both jumps in value and is not rank one
        offsets = GradientField.from_pieces(2, (0.0, 1.0), [0.25, 0.75],
                                            grads[:2]).offsets + ((5.0, 5.0),)
        assert same_as_scalar(None, 2, (0.0, 1.0), breaks, grads, offsets) == (
            NotRankOne, "gradient jump at interface 1 is not rank one along the normal")
        # a rank-one jump along the wrong normal, discontinuous as well
        assert same_as_scalar(None, 2, (1.0, 0.0), (0.0, 0.5, 1.0),
                              grads[:2], ((0.0, 0.0), (0.0, 0.0))) == (
            NotRankOne, "gradient jump at interface 0 is not rank one along the normal")

    def test_rank_one_jump_with_squares_beyond_the_float_range(self):
        # the jump's squared norm overflows while the field's scale is finite
        grads = [Mat.from_rows([[6e153, 6e153], [0.0, 1.0]]),
                 Mat.from_rows([[-6e153, -6e153], [0.0, 1.0]])]
        got = same_as_scalar("from_pieces", 2, (S, S), [0.5, 0.5], grads)
        assert not isinstance(got, tuple)
        f = build_laminate_sequence(SequenceSpec(
            (diag(1e154, 1.0), diag(-1e154, 1.0)), (0.5, 0.5), 3))
        assert f.normal == (1.0, 0.0) and f.pieces == 6

    @pytest.mark.parametrize("args, error", [
        # a gradient norm beyond the float range; the scalar chain step
        # sums two products beyond it
        ((2, (S, S), [0.5, 0.5], [ZERO2, HUGE]), (ValueError, FLOAT_RANGE.format("inf"))),
        # a normal that is not a unit vector, where the scalar chain
        # meets inf - inf first
        ((2, (2.0, 2.0), [0.5, 0.5],
          [ZERO2, Mat.from_rows([[1e308, -1e308], [0.0, 0.0]])]),
         (ValueError, "normal must be a unit vector")),
        ((2, (2.0, 0.0), [0.5, 0.5], [ZERO2, SHEAR]),
         (ValueError, "normal must be a unit vector")),
        ((2, (1.0,), [0.5, 0.5], [Mat.identity(2), SHEAR]),
         (ValueError, "vector length does not match dimension")),
        ((2, (0.0, 1.0), [0.5, 0.5], [Mat.identity(2), Mat.scalar(1.0)]),
         (ValueError, "dimension mismatch")),
        # a gradient of another size, checked before the chain meets a
        # jump beyond the float range
        ((2, (0.0, 1.0), [0.25, 0.25, 0.5], [HUGE, HUGE * -1.0, Mat.scalar(1.0)]),
         (ValueError, "dimension mismatch")),
        ((2, (1.0,), [0.25, 0.25, 0.5], [ZERO2, SHEAR, Mat.scalar(1.0)]),
         (ValueError, "vector length does not match dimension")),
        ((1, (1.0,), [0.5, 0.5], [Mat.scalar(1.0)] * 2, (0.0, 0.0)),
         (ValueError, "offset dimension mismatch")),
        ((1, (1.0,), [0.5, 0.0, 0.5], [Mat.scalar(x) for x in (1.0, 9.0, -1.0)],
          (-0.0,)), None),
        # a zero jump met by a negative normal: fsum's zero is +0.0
        ((1, (-1.0,), [0.5, 0.5], [Mat.scalar(1.0)] * 2, (-0.0,)), None),
        # gradient norms beyond the float range, whose jumps chain NaN
        # offsets: the scale named is the norms' inf
        ((2, (S, -S), [0.25, 0.5, 0.25],
          [Mat.from_rows([[1.5e308, 0.0], [0.0, 1.0]]),
           Mat.from_rows([[0.0, 1.5e308], [0.0, 1.0]]),
           Mat.from_rows([[1.5e308, 0.0], [0.0, 1.0]])]),
         (ValueError, FLOAT_RANGE.format("inf"))),
    ], ids=error_id)
    def test_from_pieces_edge_cases(self, args, error):
        got = same_as_scalar("from_pieces", *args)
        assert (got if isinstance(got, tuple) else None) == error

    @pytest.mark.parametrize("n, normal, grads, offsets, error", [
        # gradient norms beyond the float range
        (1, (1.0,), (1.7e308, -1.7e308), ((0.0,), (0.0,)),
         (ValueError, FLOAT_RANGE.format("inf"))),
        # (j + d) ** 2 beyond the float range: an infinite jump
        (1, (1.0,), (1.0, 1.0), ((0.0,), (1.6e154,)),
         (ValueError, "deformation jumps by inf at interface 0")),
        # an infinite or NaN offset
        (1, (1.0,), (1.0, 1.0), ((0.0,), (math.inf,)),
         (ValueError, FLOAT_RANGE.format("inf"))),
        (1, (1.0,), (1.0, 1.0), ((math.nan,), (0.0,)),
         (ValueError, FLOAT_RANGE.format("nan"))),
        # two finite squares that sum beyond the float range
        (2, (1.0, 0.0), (1.0, 0.0, 0.0, 1.0) * 2, ((0.0, 0.0), (1e154, 1e154)),
         (ValueError, "deformation jumps by inf at interface 0")),
        # gradient norms beyond the float range; the scalar jump's two
        # products sum beyond it
        (2, (S, S), (0.0,) * 4 + (1.5e308, -1.5e308, 0.0, 0.0),
         ((0.0, 0.0), (0.0, 0.0)), (ValueError, FLOAT_RANGE.format("inf"))),
    ], ids=error_id)
    def test_check_edge_cases(self, n, normal, grads, offsets, error):
        grads = [Mat.from_flat(grads[i:i + n * n]) for i in range(0, len(grads), n * n)]
        got = same_as_scalar(None, n, normal, (0.0, 0.5, 1.0), tuple(grads),
                             offsets)
        assert got == error

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.3, 1e-300, 1e154,
                                     -1.2e154, 1e308, -1.7e308]),
                    min_size=1, max_size=7),
           st.sampled_from([0.0, -0.0, 2.0]))
    def test_1d_pieces_match_scalar(self, slopes, y0):
        widths = [1.0 / len(slopes)] * len(slopes)
        same_as_scalar("from_slopes_1d", slopes, widths, y0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, -0.7, 1e154, 1.5e308]),
                              st.sampled_from([0.0, 1.0, -3.0, -1.5e308])),
                    min_size=1, max_size=5),
           st.sampled_from([(1.0, 0.0), (S, S), (0.0, -1.0)]))
    def test_2d_pieces_match_scalar(self, jumps, normal):
        # each gradient adds a (x) normal to the last, a rank-one jump
        grads = [Mat.identity(2)]
        try:
            for a in jumps:
                grads.append(grads[-1] + Mat.outer(a, normal))
        except ValueError:  # a gradient entry beyond the float range
            assume(False)
        widths = [1.0 / len(grads)] * len(grads)
        same_as_scalar("from_pieces", 2, normal, widths, grads)

    def test_laminates_match_scalar(self):
        for atoms, weights in (((SHEAR, Mat.identity(2)), (0.25, 0.75)),
                               ((Mat.scalar(1.0), Mat.scalar(-2.0), Mat.scalar(0.5)),
                                (0.2, 0.3, 0.5))):
            normal = build_laminate_sequence(SequenceSpec(atoms, weights, 1)).normal
            for k in (1, 3, 64):
                widths = [w / k for _ in range(k) for w in weights]
                same_as_scalar("from_pieces", atoms[0].n, normal, widths,
                               list(atoms) * k)

    @pytest.mark.parametrize("field, singular", [
        (GradientField.from_slopes_1d([0.5, 0.0, -3.0, 2.0], [0.25] * 4), True),
        (build_laminate_sequence(SequenceSpec((Mat.identity(2), diag(1.0, 0.0)),
                                              (0.5, 0.5), 4)), True),
        (build_laminate_sequence(SequenceSpec((diag(1.0, -2.0), diag(1.0, 3.0)),
                                              (0.5, 0.5), 3)), False),
    ], ids=["1d_singular", "2d_singular", "2d_negative"])
    def test_summaries_equal_scalar(self, field, singular):
        assert field.sup_norm() == max(frob_norm(g) for g in field.grads)
        assert field.sup_inv_norm() == max(inv_norm(g) for g in field.grads)
        assert field.min_det() == min(det(g) for g in field.grads)
        assert (field.sup_inv_norm() == math.inf) is singular


class TestBuildLaminate:
    def test_volume_fractions_exact(self):
        spec = SequenceSpec((Mat.scalar(-1.0), Mat.scalar(1.0)), (0.25, 0.75), 8)
        f = build_laminate_sequence(spec)
        frac_minus = math.fsum(
            f.breaks[i + 1] - f.breaks[i] for i in range(f.pieces)
            if f.grads[i].flat[0] == -1.0)
        assert frac_minus == pytest.approx(0.25, abs=1e-12)
        assert f.pieces == 16

    def test_2d_laminate(self):
        spec = SequenceSpec((Mat.identity(2), SHEAR), (0.5, 0.5), 4)
        f = build_laminate_sequence(spec)
        assert f.n == 2
        assert f.min_det() == pytest.approx(1.0)

    def test_atoms_must_be_rank_one_chain(self):
        spec = SequenceSpec((Mat.identity(2), 2.0 * Mat.identity(2)),
                            (0.5, 0.5), 2)
        with pytest.raises(NotRankOne):
            build_laminate_sequence(spec)

    def test_budget_guard(self):
        spec = SequenceSpec((Mat.scalar(-1.0), Mat.scalar(1.0)),
                            (1e-10, 1.0 - 1e-10), 4)
        with pytest.raises(BudgetExceeded):
            build_laminate_sequence(spec)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            SequenceSpec((Mat.scalar(1.0),), (0.7,), 2)


class TestEmpiricalPairing:
    def test_constant_weight_is_exact(self):
        spec = SequenceSpec((Mat.scalar(-1.0), Mat.scalar(1.0)), (0.5, 0.5), 4)
        f = build_laminate_sequence(spec)
        v = named_testfn("entry_power", {"exponent": 2})
        got = empirical_pairing(f, v, lambda x: 1.0)
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_linear_weight_error_formula(self):
        # v(s)=s against g(x)=x on the +-1 laminate: error is exactly 1/(4k)
        v = named_testfn("entry_power", {"exponent": 1})
        for k in (4, 8, 16):
            f = build_laminate_sequence(
                SequenceSpec((Mat.scalar(-1.0), Mat.scalar(1.0)), (0.5, 0.5), k))
            got = empirical_pairing(f, v, lambda x: x[0])
            assert abs(got - 0.0) == pytest.approx(1.0 / (4 * k), rel=1e-10)

    def test_integrate_weight(self):
        assert integrate_weight(lambda x: 1.0, 1, (1.0,)) == pytest.approx(1.0)
        assert integrate_weight(lambda x: x[0], 1, (1.0,)) == pytest.approx(0.5, abs=1e-9)
        assert integrate_weight(lambda x: x[0], 2, (1.0, 0.0)) == pytest.approx(0.5, abs=1e-6)


def random_laminate(rng, n):
    """A seeded laminate of 2-4 atoms of random weights, with 1-40
    periods, and its barycenter.  In 2D the atoms are A + c a (x) m for
    a random invertible A, vector a, unit normal m and scalars c."""
    count = int(rng.integers(2, 5))
    raw = rng.uniform(0.2, 1.0, size=count).tolist()
    weights = tuple(w / math.fsum(raw) for w in raw)
    if n == 1:
        atoms = tuple(Mat.scalar(x) for x in
                      rng.choice([-1.0, 1.0], size=count) * rng.uniform(0.2, 3.0, size=count))
    else:
        base, a = random_invertible(rng, 2), rng.normal(size=2).tolist()
        angle = rng.uniform(0.0, 2.0 * math.pi)
        m = (math.cos(angle), math.sin(angle))
        atoms = tuple(base + Mat.outer([c * x for x in a], m)
                      for c in rng.uniform(-1.0, 1.0, size=count).tolist())
    field = build_laminate_sequence(SequenceSpec(atoms, weights, int(rng.integers(1, 41))))
    barycenter = Mat.zero(n)
    for atom, w in zip(atoms, weights):
        barycenter = barycenter + w * atom
    return field, barycenter


def pairing_fns(n):
    """frob_power, det and the double well, also +inf outside a ball,
    carry a batch; inv_power and phi_rho do not."""
    well = builtin_energy("double_well_inv" if n == 1 else "shear_well_2d", {"gamma": 0.5})
    return [named_testfn("frob_power", {"p": 2.0}), named_testfn("frob_power", {"p": 3.5}),
            named_testfn("det"), well, orho_extend(well, 2.0),
            named_testfn("inv_power", {"q": 2.0}), named_testfn("phi_rho", {"rho": 1.5})]


# the spatial weights, and one that reads the lateral coordinate in 2D
PAIRING_WEIGHTS = [*WEIGHT_FUNCTIONS.values(), lambda x: x[-1] * x[-1] - 0.25 * x[0]]


def pairing_outcome(pairing, field, v, g):
    """pairing(field, v, g) by its float's hex, so -0.0 and 0.0 differ,
    or the type and message of its error."""
    try:
        return pairing(field, v, g).hex()
    except Exception as exc:
        return type(exc), str(exc)


def assert_pairings_match_reference(field):
    for v in pairing_fns(field.n):
        for g in PAIRING_WEIGHTS:
            assert (pairing_outcome(empirical_pairing, field, v, g)
                    == pairing_outcome(_reference.empirical_pairing, field, v, g))


class TestPairingOnStacks:
    """empirical_pairing and the glued field's boundary mismatch equal
    their piece-by-piece forms bit for bit."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_laminates(self, rng, n):
        for _ in range(12):
            assert_pairings_match_reference(random_laminate(rng, n)[0])

    def test_glued_fields(self, rng):
        glued = 0
        for _ in range(24):
            field, f = random_laminate(rng, 2)
            try:
                field, report = boundary_glue(field, f, 0.0625, 4.0)
            except InfeasibleLayer:
                continue
            glued += 1
            assert report.boundary_mismatch.hex() == \
                _reference.lateral_mismatch(field, f).hex()
            assert_pairings_match_reference(field)
        assert glued >= 12

    def test_lateral_mismatch_of_any_matrix(self, rng):
        for _ in range(12):
            field = random_laminate(rng, 2)[0]
            f = random_invertible(rng, 2)
            assert _lateral_mismatch(field, f).hex() == \
                _reference.lateral_mismatch(field, f).hex()

    @pytest.mark.parametrize("kind", ["entry_power", "quartic_well_1d"])
    def test_1d_function_on_a_2d_field(self, kind):
        field = build_laminate_sequence(SequenceSpec((Mat.identity(2), SHEAR), (0.5, 0.5), 4))
        v = named_testfn(kind)
        got = pairing_outcome(empirical_pairing, field, v, WEIGHT_FUNCTIONS["x1"])
        assert got == pairing_outcome(_reference.empirical_pairing, field, v,
                                      WEIGHT_FUNCTIONS["x1"])
        assert got == (DomainError, f"{kind} is a 1D test function")


class TestVerifyGeneration:
    def test_decay_and_exact_flags(self):
        spec = SequenceSpec((Mat.scalar(-1.0), Mat.scalar(1.0)), (0.5, 0.5), 32)
        vs = [named_testfn("entry_power", {"exponent": 1}),
              named_testfn("entry_power", {"exponent": 2})]
        rep = verify_generation(spec, vs, ["one", "x1"], [4, 8, 16, 32])
        assert all(e.decaying for e in rep.entries)
        by_key = {(e.v_description, e.g_name): e for e in rep.entries}
        linear = by_key[(vs[0].description, "x1")]
        assert not linear.exact
        assert linear.slope == pytest.approx(-1.0, abs=0.05)
        square = by_key[(vs[1].description, "x1")]
        assert square.exact  # v constant on atoms: quadrature error vanishes

    def test_weight_names_validated(self):
        spec = SequenceSpec((Mat.scalar(1.0),), (1.0,), 2)
        with pytest.raises(ValueError):
            verify_generation(spec, [named_testfn("det")], ["nope"], [2])

    def test_known_weights_present(self):
        assert {"one", "x1", "x1_squared", "sin1"} <= set(WEIGHT_FUNCTIONS)


class TestBoundaryGlue1D:
    def test_matching_boundary_untouched_interior(self):
        f = build_laminate_sequence(
            SequenceSpec((Mat.scalar(-1.0), Mat.scalar(1.0)), (0.5, 0.5), 8))
        glued, rep = boundary_glue(f, Mat.scalar(0.0), 0.125, 0.25)
        assert glued.value((0.0,))[0] == pytest.approx(0.0, abs=1e-12)
        assert glued.value((1.0,))[0] == pytest.approx(0.0, abs=1e-12)
        assert rep.modified_volume <= 0.25 + 1e-12
        assert rep.sup_norm <= rep.alpha + 0.25 + 1e-9
        # untouched interior keeps the original slopes
        assert abs(glued.gradient_at((0.5,)).flat[0]) == pytest.approx(1.0)

    def test_nonzero_boundary_data(self):
        f = build_laminate_sequence(
            SequenceSpec((Mat.scalar(0.5), Mat.scalar(2.0)), (0.5, 0.5), 8))
        target = Mat.scalar(1.25)  # the barycenter slope
        glued, rep = boundary_glue(f, target, 0.0625, 0.5)
        assert glued.value((0.0,))[0] == pytest.approx(0.0, abs=1e-10)
        assert glued.value((1.0,))[0] == pytest.approx(1.25, abs=1e-10)
        assert rep.boundary_mismatch == pytest.approx(0.0, abs=1e-12)
        # layers use the extreme two-slope construction
        for g in rep.layer_gradients:
            assert abs(g.flat[0]) == pytest.approx(rep.cap)

    def test_sawtooth_reference_numbers(self):
        # sawtooth +-1, F=0, layer 1/8, eps=0.5: slopes +-1.5, volume 1/4
        f = build_laminate_sequence(
            SequenceSpec((Mat.scalar(-1.0), Mat.scalar(1.0)), (0.5, 0.5), 8))
        glued, rep = boundary_glue(f, Mat.scalar(0.0), 0.125, 0.5)
        assert rep.modified_volume == pytest.approx(0.25)
        assert {abs(g.flat[0]) for g in rep.layer_gradients} <= {1.5}
        # interior untouched: identical slopes on [1/8, 7/8]
        for t in (0.2, 0.4, 0.6, 0.8):
            assert glued.gradient_at((t,)).flat == f.gradient_at((t,)).flat

    def test_affine_field_already_matching_unchanged(self):
        f = GradientField.affine(Mat.scalar(1.5))
        glued, rep = boundary_glue(f, Mat.scalar(1.5), 0.125, 0.5)
        assert rep.modified_volume == pytest.approx(0.0)
        assert glued.pieces == 1

    def test_infeasible_layer(self):
        f = build_laminate_sequence(
            SequenceSpec((Mat.scalar(-1.0), Mat.scalar(1.0)), (0.5, 0.5), 4))
        # displacement needs slope 16 inside the layer but cap is ~1+eps
        with pytest.raises(InfeasibleLayer):
            boundary_glue(f, Mat.scalar(2.0), 0.0625, 0.01)

    def test_glued_field_in_cap_ball(self):
        f = build_laminate_sequence(
            SequenceSpec((Mat.scalar(-1.0), Mat.scalar(1.0)), (0.5, 0.5), 8))
        glued, rep = boundary_glue(f, Mat.scalar(0.1), 0.25, 0.5)
        cap = rep.alpha + 0.5
        assert rep.sup_norm <= cap + 1e-9
        assert rep.sup_inv_norm <= cap + 1e-9


class TestBoundaryGlue2D:
    def test_shear_laminate_glued(self):
        spec = SequenceSpec((Mat.identity(2), SHEAR), (0.5, 0.5), 4)
        f = build_laminate_sequence(spec)
        target = Mat.from_rows([[1.0, 0.5], [0.0, 1.0]])  # barycenter
        glued, rep = boundary_glue(f, target, 0.0625, 1.0)
        # the glued deformation agrees with F x on both slab faces
        for s in (0.0, 0.3, 0.7, 1.0):
            for t in (0.0, 1.0):
                x = tuple(t * m + s * o for m, o in
                          zip((0.0, 1.0), (1.0, 0.0)))
                expect = target.mul_vec(x)
                got = glued.value(x)
                assert got == pytest.approx(expect, abs=1e-9)
        assert rep.modified_volume <= 0.125 + 1e-12

    def test_tangentially_incompatible_data(self):
        spec = SequenceSpec((Mat.identity(2), SHEAR), (0.5, 0.5), 4)
        f = build_laminate_sequence(spec)
        bad = Mat.from_rows([[2.0, 0.5], [0.0, 1.0]])  # wrong tangential action
        with pytest.raises(InfeasibleLayer):
            boundary_glue(f, bad, 0.0625, 1.0)


class TestMixDeformations:
    def test_mixture_weight_and_boundary(self):
        y1 = GradientField.from_slopes_1d([1.0, -1.0, 1.0], [0.25, 0.25, 0.5],
                                          y0=0.0)
        y2 = GradientField.from_slopes_1d([0.25, 0.75], [0.5, 0.5],
                                          y0=0.0)
        # both end at the same boundary value
        assert y1.value((1.0,))[0] == pytest.approx(y2.value((1.0,))[0])
        mixed, residual = mix_deformations(y1, y2, 0.5, depth=5)
        assert residual == pytest.approx(0.5 ** 5)
        assert mixed.value((0.0,))[0] == pytest.approx(0.0, abs=1e-10)
        assert mixed.value((1.0,))[0] == pytest.approx(y1.value((1.0,))[0], abs=1e-10)

    def test_boundary_mismatch_rejected(self):
        y1 = GradientField.from_slopes_1d([1.0], [1.0])
        y2 = GradientField.from_slopes_1d([2.0], [1.0])
        with pytest.raises(ValueError):
            mix_deformations(y1, y2, 0.5)

    def test_2d_unsupported(self):
        f = GradientField.affine(Mat.identity(2))
        with pytest.raises(ValueError):
            mix_deformations(f, f, 0.5)
