import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _sampling import diag
from ymrelax.errors import SingularError
from ymrelax.matcore import (
    Mat,
    RhoBall,
    det,
    frob_norm,
    in_rho_ball,
    inv_norm,
    inverse,
    invert,
    is_invertible,
    iter_coordinate_dyads,
    mat_close,
    max_norm_pair,
    quiet,
    rank_one_difference,
    dets,
    frob_norms,
    in_rho_balls,
    inv_norms,
    inverses,
    singular_threshold,
    sum_rows,
)
from ymrelax.testfn import builtin_energy, evaluate_batch

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def np_of(a: Mat) -> np.ndarray:
    return np.array(a.rows())


def matmul(a: Mat, b: Mat) -> Mat:
    """The product a b, formed in numpy."""
    return Mat.from_rows((np_of(a) @ np_of(b)).tolist())


def mats(n):
    return st.lists(finite, min_size=n * n, max_size=n * n).map(Mat.from_flat)


@st.composite
def kernel_cases(draw):
    """(matrix, exactly singular?) for n = 1..3; a singular one has a
    zero last row or repeats its first row, so det is exactly 0."""
    n = draw(st.integers(1, 3))
    entries = st.one_of(finite, st.integers(-3, 3).map(float))
    flat = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    singular = draw(st.booleans())
    if singular:
        last = [0.0] * n if n == 1 or draw(st.booleans()) else flat[:n]
        flat[-n:] = last
    return Mat.from_flat(flat), singular


class TestAlgebra:
    @given(mats(2), mats(2))
    def test_add_sub_match_numpy(self, a, b):
        assert np.allclose(np_of(a + b), np_of(a) + np_of(b))
        assert np.allclose(np_of(a - b), np_of(a) - np_of(b))

    @given(mats(3), finite)
    def test_scalar_multiple(self, a, c):
        assert np.allclose(np_of(c * a), c * np_of(a))
        assert np.allclose(np_of(a * c), c * np_of(a))

    def test_mul_vec(self):
        a = Mat.from_rows([[1.0, 2.0], [3.0, 4.0]])
        assert a.mul_vec((1.0, 1.0)) == (3.0, 7.0)

    def test_coerce_forms(self):
        assert Mat.coerce(2.0).n == 1
        assert Mat.coerce([1.0, 0.0, 0.0, 1.0]).n == 2
        assert Mat.coerce([[1.0, 0.0], [0.0, 1.0]]).n == 2
        with pytest.raises(ValueError):
            Mat.coerce([1.0, 2.0, 3.0])  # not a square count
        with pytest.raises(ValueError):
            Mat.coerce(1.0, n=2)


class TestDetInvert:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_det_matches_numpy(self, n, make_matrix):
        for _ in range(25):
            a = make_matrix(n)
            assert det(a) == pytest.approx(np.linalg.det(np_of(a)), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_invert_matches_numpy(self, n, make_matrix):
        for _ in range(25):
            a = make_matrix(n)
            assert np.allclose(np_of(invert(a)), np.linalg.inv(np_of(a)),
                               atol=1e-9)

    def test_invert_roundtrip(self, make_matrix):
        a = make_matrix(2)
        assert mat_close(invert(invert(a)), a, tol=1e-9)

    def test_singular_rejected(self):
        s = Mat.from_rows([[1.0, 2.0], [2.0, 4.0]])
        assert not is_invertible(s)
        with pytest.raises(SingularError):
            invert(s)

    def test_threshold_scales_with_norm(self):
        # the cutoff is relative: a tiny but well-conditioned matrix stays invertible
        a = 1e-3 * Mat.identity(2)
        assert is_invertible(a)
        assert singular_threshold(a) < abs(det(a))

    @given(mats(2), mats(2))
    @settings(max_examples=60)
    def test_det_multiplicative(self, a, b):
        lhs = det(matmul(a, b))
        rhs = det(a) * det(b)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-9 * scale


def planted_rank_one(rng, n):
    """A and B = A + vec (x) m for random A, vec and a unit m, with vec
    scaled by 10^-3 to 10^3."""
    a = Mat.from_rows(rng.normal(size=(n, n)).tolist())
    vec = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
    m = rng.normal(size=n)
    m = m / np.linalg.norm(m)
    return a, a + Mat.outer(vec.tolist(), m.tolist())


class TestRankOne:
    """numpy's SVD is the independent oracle: B - A is rank one when its
    second singular value is negligible against its first."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_planted_rank_one_accepted(self, n, rng):
        for _ in range(30):
            a, b = planted_rank_one(rng, n)
            diff = np_of(b - a)
            sv = np.linalg.svd(diff, compute_uv=False)
            assert n == 1 or sv[1] <= 1e-12 * sv[0]
            got = rank_one_difference(a, b)
            assert got is not None
            ga, gm = got
            assert np.allclose(np.outer(ga, gm), diff, rtol=0.0, atol=1e-12 * sv[0])
            assert np.linalg.norm(gm) == pytest.approx(1.0, abs=1e-12)
            # vec_m is the longest row over its norm, bit for bit, up to sign
            row = max((b - a).rows(), key=lambda r: math.fsum(x * x for x in r))
            nr = math.sqrt(math.fsum(x * x for x in row))
            assert [abs(x) for x in gm] == [abs(x / nr) for x in row]

    @pytest.mark.parametrize("n", [2, 3])
    def test_higher_rank_rejected(self, n, rng):
        seen = 0
        for _ in range(60):
            a, b = planted_rank_one(rng, n)
            noise = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6.0, 0.0)
            b = b + Mat.from_rows((noise * frob_norm(b - a)).tolist())
            sv = np.linalg.svd(np_of(b - a), compute_uv=False)
            if sv[1] >= 1e-6 * sv[0]:
                seen += 1
                assert rank_one_difference(a, b) is None
        assert seen >= 40

    def test_recovers_planted_direction(self, rng):
        for _ in range(30):
            a = Mat.from_rows(rng.normal(size=(2, 2)).tolist())
            vec = rng.normal(size=2)
            m = rng.normal(size=2)
            m = m / np.linalg.norm(m)
            b = a + Mat.outer(vec.tolist(), m.tolist())
            got = rank_one_difference(a, b)
            assert got is not None
            ga, gm = got
            diff = np_of(b - a)
            assert np.allclose(np.outer(ga, gm), diff, atol=1e-8)
            assert np.linalg.norm(gm) == pytest.approx(1.0, abs=1e-12)

    def test_planted_3x3(self):
        a = Mat.identity(3)
        b = a + Mat.outer((1.0, 2.0, 3.0), (0.6, 0.0, -0.8))
        ga, gm = rank_one_difference(a, b)
        # the sign puts vec_m's largest-magnitude entry positive
        assert gm == pytest.approx((-0.6, 0.0, 0.8), abs=1e-15)
        assert ga == pytest.approx((-1.0, -2.0, -3.0), abs=1e-15)

    @pytest.mark.parametrize("a, b, want", [
        # the difference's squared norm overflows; rank is scale-free
        (diag(-1e154, 1.0), diag(1e154, 1.0), ((2e154, 0.0), (1.0, 0.0))),
        # a row norm beyond the float range, and so vec_a's entry
        (Mat.zero(2), Mat.from_rows([[1.5e308, 1.5e308], [0.0, 0.0]]),
         ((math.inf, 0.0), (math.sqrt(0.5), math.sqrt(0.5)))),
    ], ids=["squares", "rows"])
    def test_beyond_the_float_range(self, a, b, want):
        assert rank_one_difference(a, b) == want

    def test_full_rank_difference_rejected(self):
        a = Mat.identity(2)
        b = 2.0 * Mat.identity(2)
        assert rank_one_difference(a, b) is None

    def test_zero_difference_rejected(self):
        a = Mat.identity(2)
        assert rank_one_difference(a, a) is None

    def test_1d_always_rank_one(self):
        got = rank_one_difference(Mat.scalar(1.0), Mat.scalar(3.0))
        assert got is not None
        ga, gm = got
        assert ga[0] * gm[0] == pytest.approx(2.0)


class TestRhoBall:
    def test_identity_membership(self):
        for n in (1, 2, 3):
            i = Mat.identity(n)
            assert max_norm_pair(i) == pytest.approx(math.sqrt(n))
            assert in_rho_ball(i, RhoBall(math.sqrt(n) + 1e-9))
            assert not in_rho_ball(i, RhoBall(math.sqrt(n) - 1e-3))

    def test_singular_excluded(self):
        assert max_norm_pair(Mat.scalar(0.0)) == math.inf
        assert not in_rho_ball(Mat.scalar(0.0), RhoBall(1e6))

    def test_positive_det_variant(self):
        ball = RhoBall(3.0, positive_det_only=True)
        assert in_rho_ball(Mat.scalar(1.0), ball)
        assert not in_rho_ball(Mat.scalar(-1.0), ball)

    def test_small_norm_large_inverse(self):
        # |A| small forces |A^-1| large: excluded from modest balls
        a = Mat.scalar(0.01)
        assert not in_rho_ball(a, RhoBall(10.0))
        assert in_rho_ball(a, RhoBall(100.0))


class TestInverseKernel:
    """inverse, invert, inv_norm, max_norm_pair and in_rho_ball against
    their definitions through is_invertible, det and frob_norm."""

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases(), st.booleans())
    def test_against_definitions(self, case, positive):
        a, singular = case
        if singular:
            assert not is_invertible(a)
        if is_invertible(a):
            inv = invert(a)
            assert inverse(a) == inv
            assert inv_norm(a) == frob_norm(inv)
        else:
            assert inverse(a) is None
            assert inv_norm(a) == math.inf
            with pytest.raises(SingularError):
                invert(a)
        assert max_norm_pair(a) == max(frob_norm(a), inv_norm(a))
        oriented = is_invertible(a) and (not positive or det(a) > 0.0)
        assert in_rho_ball(a, RhoBall(math.inf, positive)) == oriented
        for rho in (1.0, 3.0, 50.0):
            inside = oriented and frob_norm(a) <= rho and \
                frob_norm(invert(a)) <= rho
            assert in_rho_ball(a, RhoBall(rho, positive)) == inside

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(finite, st.sampled_from(
        [0.0, -0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e154, -1e200])),
        max_size=20), st.booleans())
    def test_slope_arrays_match_scalars(self, xs, positive):
        s = np.array(xs, dtype=float).reshape(-1, 1, 1)
        scalars = [Mat.scalar(x) for x in xs]
        with quiet():
            assert (inv_norms(s).tobytes()
                    == np.array([inv_norm(a) for a in scalars], dtype=float).tobytes())
            for rho in (1.0, 3.0, math.inf):
                ball = RhoBall(rho, positive)
                assert (in_rho_balls(s, ball).tolist()
                        == [in_rho_ball(a, ball) for a in scalars])

    @pytest.mark.parametrize("rho", [math.nan, 0.0, -1.0, -math.inf])
    def test_radius_must_be_positive(self, rho):
        with pytest.raises(ValueError):
            RhoBall(rho)

    def test_unbounded_ball(self):
        ball = RhoBall(math.inf)
        assert in_rho_ball(diag(1e-5, 1e5), ball)
        assert not in_rho_ball(Mat.zero(2), ball)


# -- the kernels on stacks of matrices against the scalar kernels -------

# m * 2^e with a small odd m: squares and products are exact, so sums
# of them across exponent gaps near 53 land on and beside rounding ties
dyadic = st.builds(lambda m, e, sign: sign * m * 2.0 ** e,
                   st.sampled_from([1, 3, 5, 7]), st.integers(-80, 20),
                   st.sampled_from([1.0, -1.0]))
# terms an ulp, half an ulp and an ulp's ulp below a unit-sized first
# term, with either sign: sums of them round onto and beside ties
near_tie = st.builds(lambda m, e, sign: sign * m * 2.0 ** -e,
                     st.sampled_from([1, 3, 5, 7]),
                     st.sampled_from([0, 1, 2, 52, 53, 54, 55, 105, 106, 107, 108]),
                     st.sampled_from([1.0, -1.0]))
# every finite float: subnormals, and squares that overflow
any_finite = st.floats(allow_nan=False, allow_infinity=False)
EDGE_ENTRIES = [0.0, -0.0, 5e-324, 1e-160, 2.0 ** -27, 1e-12, 1.0, 1e154,
                1.35e154, 1e200, -1.7e308]
entries = st.one_of(finite, dyadic, any_finite, st.sampled_from(EDGE_ENTRIES))

EDGE_MATRICES = [
    # squares 1, 2^-54, 2^-54, 2^-108: each partial sum rounds back to 1,
    # while the exact sum rounds to 1 + 2^-52
    [1.0, 2.0 ** -27, 2.0 ** -27, 2.0 ** -54],
    [1.0, 2.0 ** -27, 2.0 ** -27, 0.0],   # an exact tie: even rounds down
    [1.0, 0.0, 0.0, 1e-12],               # det on the singular threshold
    [3.0, 0.0, 0.0, 1e-12 / 3.0],
    [1e155, 0.0, 0.0, 1.0],               # an infinite |A| and threshold
    [4.0, 4.5e307, 4.0, 4.5e307],         # det is inf - inf
    [1e154, 1e154, 1e154, 1e154],         # the squares' sum overflows
    [1e200, 0.0, 0.0, 1e200],             # det and the squares overflow
    [1e-160, 0.0, 0.0, 1e-160],           # subnormal squares
    [5e-324, 0.0, 0.0, 5e-324],
    [-0.0, 0.0, 0.0, -0.0],
]
EDGE_MATRICES_3 = [
    # det and the cofactors overflow: inf / inf would be a NaN inverse
    [1e200, 0.0, 0.0, 0.0, 1e200, 0.0, 0.0, 0.0, 1e200],
    [1e103, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],  # |A|^3 overflows
    # det is -1 while a cofactor and |A| overflow
    [1.0, 1e200, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1e200],
    [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1e-12],  # det on the threshold
    [1.0, 2.0 ** -27, 2.0 ** -27, 2.0 ** -27, 1.0, 0.0, 0.0, 0.0, 2.0 ** -54],
    [5e-324, 0.0, 0.0, 0.0, 5e-324, 0.0, 0.0, 0.0, 5e-324],
]


@st.composite
def stacks(draw):
    """A stack a[N, n, n] for n = 1, 2 or 3, mixing drawn rows with edge
    matrices and rows that repeat their first row."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(entries, min_size=n * n, max_size=n * n),
                         max_size=12))
    if n > 1:
        edges = EDGE_MATRICES if n == 2 else EDGE_MATRICES_3
        rows += draw(st.lists(st.sampled_from(edges), max_size=3))
        rows += [r[:n] + r[:n * n - n] for r in rows[:draw(st.integers(0, 2))]]
    return np.array(rows, dtype=float).reshape(-1, n, n)


def scalar_outcome(fn, row):
    try:
        return fn(row)
    except Exception as exc:
        return exc


def assert_rows(batch, scalar, a, dtype=float):
    """batch(a) under quiet(), as its callers run it, equals scalar on
    each row, bit for bit.  When a row raises, each row is checked
    alone: its error, or its value."""
    n = a.shape[1]
    mats = [Mat(n, tuple(r)) for r in a.reshape(len(a), n * n).tolist()]
    want = [scalar_outcome(scalar, m) for m in mats]
    with quiet():
        if not any(isinstance(w, Exception) for w in want):
            assert batch(a).tobytes() == np.array(want, dtype=dtype).tobytes()
            return
        for i, w in enumerate(want):
            if isinstance(w, Exception):
                with pytest.raises(type(w), match=re.escape(str(w))):
                    batch(a[i:i + 1])
            else:
                assert (batch(a[i:i + 1]).tobytes()
                        == np.array([w], dtype=dtype).tobytes())


def _inverse_flat(a: Mat):
    inv = inverse(a)
    return (False,) + (0.0,) * (a.n * a.n) if inv is None else (True,) + inv.flat


def _inverses_flat(a: np.ndarray) -> np.ndarray:
    ok, inv = inverses(a)
    out = np.zeros((len(a), 1 + a.shape[1] ** 2))
    out[:, 0] = ok
    out[ok, 1:] = inv.reshape(len(inv), a.shape[1] ** 2)
    return out


class TestStackKernels:
    """The kernels on stacks a[N, n, n] equal the scalar kernels on
    every row, bit for bit, errors included."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.one_of(dyadic, near_tie, st.sampled_from(EDGE_ENTRIES)),
                             min_size=1, max_size=9),
                    min_size=1, max_size=20))
    def test_sum_rows_on_ties(self, rows):
        for k in range(1, 10):
            block = [(r * 9)[:k] for r in rows]
            want = []
            for r in block:
                s = 0.0
                for x in r:
                    s += x
                want.append(s)
            x = np.array(block, dtype=float)
            with quiet():
                assert sum_rows(x).tobytes() == np.array(want, dtype=float).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_results_are_not_views(self, n):
        """Writing into a kernel's result leaves its input alone."""
        a = np.stack([2.0 * np.eye(n), -3.0 * np.eye(n)])
        before = a.copy()
        ok, inv = inverses(a)
        for out in (frob_norms(a), dets(a), ok, inv, inv_norms(a),
                    in_rho_balls(a, RhoBall(math.inf)),
                    in_rho_balls(a, RhoBall(5.0, True)), sum_rows(a[:, 0])):
            out[...] = 7
        assert a.tobytes() == before.tobytes()

    def test_empty_stacks(self):
        for n in (1, 2):
            a = np.zeros((0, n, n))
            assert frob_norms(a).shape == dets(a).shape == (0,)
            assert in_rho_balls(a, RhoBall(2.0, True)).shape == (0,)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stacks())
    def test_match_scalars(self, a):
        assert_rows(frob_norms, frob_norm, a)
        assert_rows(dets, det, a)
        assert_rows(lambda b: in_rho_balls(b, RhoBall(math.inf)), is_invertible,
                    a, bool)
        assert_rows(inv_norms, inv_norm, a)
        assert_rows(_inverses_flat, _inverse_flat, a)
        for rho in (1.0, 3.0, math.inf):
            for positive in (False, True):
                ball = RhoBall(rho, positive)
                assert_rows(lambda b: in_rho_balls(b, ball),
                            lambda m: in_rho_ball(m, ball), a, bool)

    def test_edge_matrices(self):
        a = np.array(EDGE_MATRICES, dtype=float).reshape(-1, 2, 2)
        assert_rows(frob_norms, frob_norm, a)
        assert_rows(lambda b: in_rho_balls(b, RhoBall(math.inf)), is_invertible,
                    a, bool)
        assert_rows(inv_norms, inv_norm, a)
        big = Mat.from_flat(EDGE_MATRICES[6])
        with quiet():
            assert frob_norms(a[6:7])[0] == frob_norm(big) == math.inf
        assert not is_invertible(big)
        assert not in_rho_ball(big, RhoBall(math.inf))
        # |A|^3 is a product: it overflows to inf, where ** would raise
        assert singular_threshold(diag(1e103, 1.0, 1.0)) == math.inf

    @pytest.mark.parametrize("m", [diag(1e200, 1e200),
                                   diag(1e200, 1e200, 1e200)])
    def test_overflowing_det_is_singular(self, m):
        a = np.array(m.flat).reshape(1, m.n, m.n)
        assert not is_invertible(m) and inverse(m) is None
        with quiet():
            assert det(m) == dets(a)[0] == math.inf
            assert inv_norm(m) == inv_norms(a)[0] == math.inf
            ok, inv = inverses(a)
            assert ok.tolist() == [False] and inv.shape == (0, m.n, m.n)
            assert in_rho_balls(a, RhoBall(math.inf)).tolist() == [False]

    def test_3x3_edge_matrices(self):
        a = np.array(EDGE_MATRICES_3, dtype=float).reshape(-1, 3, 3)
        assert_rows(frob_norms, frob_norm, a)
        assert_rows(inv_norms, inv_norm, a)
        assert_rows(_inverses_flat, _inverse_flat, a)

    def test_nan_det_is_singular(self):
        a = np.array(EDGE_MATRICES[5], dtype=float).reshape(1, 2, 2)
        m = Mat.from_flat(EDGE_MATRICES[5])
        assert math.isnan(det(m))
        assert inverse(m) is None and not is_invertible(m)
        with quiet():
            assert inv_norm(m) == inv_norms(a)[0] == math.inf
        w = builtin_energy("double_well_inv", {"wells": [[1.0, 0.0, 0.0, 1.0],
                                                         [2.0, 0.0, 0.0, 2.0]],
                                               "gamma": 0.5})
        assert w.evaluate(m) == evaluate_batch(w, a)[0] == math.inf


def test_coordinate_dyads():
    dyads = list(iter_coordinate_dyads(2))
    assert len(dyads) == 4
    total = Mat.zero(2)
    for d in dyads:
        assert frob_norm(d) == pytest.approx(1.0)
        total = total + d
    assert total.flat == (1.0, 1.0, 1.0, 1.0)


def test_frob_norm_submultiplicative(make_matrix):
    for _ in range(20):
        a, b = make_matrix(2), make_matrix(2)
        assert frob_norm(matmul(a, b)) <= frob_norm(a) * frob_norm(b) + 1e-12
