"""Small dense matrix kernel for dimensions 1, 2 and 3.

Everything the measure algebra needs from linear algebra lives here:
Frobenius norms, determinants, inverses, rho-ball membership and
rank-one decompositions.  The dimension is capped at 3 so every
quantity has a deterministic closed form; no iterative factorization
is involved anywhere.  Invertibility, |A^-1| and rho-ball
membership are decided here only, through the one inverse().

The same kernels run on stacks a[N, n, n] of N matrices (frob_norms,
dets, inverses, inv_norms, in_rho_balls; stack builds one from Mats),
each equal to its scalar form on every row bit for bit.  Each formula
has one body: _det and
_inverse_entries take the n*n row-major entries of one matrix, the
floats of Mat.flat or the columns of a stack, so a stack kernel is its
scalar kernel's arithmetic on columns.  Both sides follow one rounding
rule: a sum over a matrix's entries runs left to right from 0.0
(sum_rows on arrays, a loop over columns), and |A|^n is a product, not
a power.  A left-to-right sum of at most 9 nonnegative terms is within
8 units of roundoff of the exact sum (Higham 2002, section 4.2), far
inside SINGULAR_RTOL.  in_rho_balls on the unbounded ball is
is_invertible on arrays: the det threshold alone, with no inverse
built.  The stack kernels leave numpy's warnings to their caller, who
runs them under quiet(), as evaluate_batch does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from ._values import as_real
from .errors import SingularError

# A matrix counts as singular when |det A| < SINGULAR_RTOL * max(1, |A|^n).
SINGULAR_RTOL = 1e-12

# B - A counts as rank one when its rows' parts off its longest row's
# direction have a root-sum-square below RANK_ONE_RTOL times that row's norm.
RANK_ONE_RTOL = 1e-9

_SUPPORTED_DIMS = (1, 2, 3)


@dataclass(frozen=True)
class Mat:
    """Immutable n x n real matrix, entries stored row-major."""

    n: int
    flat: tuple

    def __post_init__(self):
        if self.n not in _SUPPORTED_DIMS:
            raise ValueError(f"dimension {self.n} not supported, expected 1..3")
        if len(self.flat) != self.n * self.n:
            raise ValueError("entry count does not match dimension")
        vals = tuple(float(x) for x in self.flat)
        for x in vals:
            if not math.isfinite(x):
                raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "flat", vals)

    # -- constructors ------------------------------------------------

    @classmethod
    def from_flat(cls, entries: Sequence[float]) -> "Mat":
        """Build from a row-major flat sequence; n is inferred from the length."""
        k = len(entries)
        n = int(round(math.sqrt(k)))
        if n * n != k or n not in _SUPPORTED_DIMS:
            raise ValueError(f"flat length {k} is not a supported square size")
        return cls(n, tuple(float(x) for x in entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Mat":
        n = len(rows)
        flat = []
        for r in rows:
            if len(r) != n:
                raise ValueError("rows must form a square matrix")
            flat.extend(float(x) for x in r)
        return cls(n, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, tuple(1.0 if i == j else 0.0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, n: int) -> "Mat":
        return cls(n, (0.0,) * (n * n))

    @classmethod
    def scalar(cls, x: float) -> "Mat":
        """1x1 matrix, the scalar case used throughout the 1D paths."""
        return cls(1, (float(x),))

    @classmethod
    def outer(cls, a: Sequence[float], m: Sequence[float]) -> "Mat":
        """Rank-one product a (x) m."""
        n = len(a)
        if len(m) != n:
            raise ValueError("vector lengths differ")
        return cls(n, tuple(float(a[i]) * float(m[j]) for i in range(n) for j in range(n)))

    @classmethod
    def coerce(cls, value, n: int | None = None) -> "Mat":
        """Accept a Mat, a scalar (1x1), a flat list or nested rows of
        real numbers; booleans and strings are not numbers."""
        if isinstance(value, Mat):
            out = value
        elif isinstance(value, (list, tuple)):
            if value and isinstance(value[0], (list, tuple)):
                out = cls.from_rows([[as_real(x) for x in row] for row in value])
            else:
                out = cls.from_flat([as_real(x) for x in value])
        else:
            out = cls.scalar(as_real(value))
        if n is not None and out.n != n:
            raise ValueError(f"expected a {n}x{n} matrix, got {out.n}x{out.n}")
        return out

    # -- element access ----------------------------------------------

    def entry(self, i: int, j: int) -> float:
        return self.flat[i * self.n + j]

    def rows(self) -> list:
        n = self.n
        return [list(self.flat[i * n:(i + 1) * n]) for i in range(n)]

    def row(self, i: int) -> tuple:
        n = self.n
        return self.flat[i * n:(i + 1) * n]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        return Mat(self.n, tuple(a + b for a, b in zip(self.flat, other.flat)))

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        return Mat(self.n, tuple(a - b for a, b in zip(self.flat, other.flat)))

    def __neg__(self) -> "Mat":
        return Mat(self.n, tuple(-a for a in self.flat))

    def __mul__(self, c: float) -> "Mat":
        return Mat(self.n, tuple(float(c) * a for a in self.flat))

    __rmul__ = __mul__

    def mul_vec(self, v: Sequence[float]) -> tuple:
        n = self.n
        if len(v) != n:
            raise ValueError("vector length does not match dimension")
        return tuple(math.fsum(self.flat[i * n + k] * float(v[k]) for k in range(n))
                     for i in range(n))

    def _check_same(self, other: "Mat"):
        if not isinstance(other, Mat) or other.n != self.n:
            raise ValueError("dimension mismatch")

    def __repr__(self):
        return f"Mat{self.n}({list(self.flat)})"


def mat_close(a: Mat, b: Mat, tol: float) -> bool:
    """Frobenius distance test."""
    return frob_norm(a - b) <= tol


# -- norms and determinants -------------------------------------------


def frob_norm(a: Mat) -> float:
    s = 0.0  # left to right; built-in sum is compensated from Python 3.12
    for x in a.flat:
        s += x * x
    return math.sqrt(s)


def _det(f, n: int):
    """The determinant of the n x n matrix whose row-major entries are f:
    floats, or the columns of a stack.  For n = 1 this is f[0] itself."""
    if n == 1:
        return f[0]
    if n == 2:
        return f[0] * f[3] - f[1] * f[2]
    return (f[0] * (f[4] * f[8] - f[5] * f[7])
            - f[1] * (f[3] * f[8] - f[5] * f[6])
            + f[2] * (f[3] * f[7] - f[4] * f[6]))


def det(a: Mat) -> float:
    return _det(a.flat, a.n)


def _nth_power(r, n: int):
    """r^n for n = 1, 2, 3 as a product, on a float or an array alike."""
    if n == 1:
        return r
    return r * r if n == 2 else r * r * r


def singular_threshold(a: Mat) -> float:
    """Determinant magnitude below which a matrix is treated as singular."""
    return SINGULAR_RTOL * max(1.0, _nth_power(frob_norm(a), a.n))


def is_invertible(a: Mat) -> bool:
    return math.inf > abs(det(a)) >= singular_threshold(a)  # NaN, inf: singular


def _inverse_entries(f, n: int, d) -> tuple:
    """The row-major entries of the inverse of the n x n matrix with
    entries f and determinant d, as _det takes f: the adjugate over d."""
    if n == 1:
        return (1.0 / d,)
    if n == 2:
        return (f[3] / d, -f[1] / d, -f[2] / d, f[0] / d)
    return tuple(c / d for c in (
        f[4] * f[8] - f[5] * f[7],
        f[2] * f[7] - f[1] * f[8],
        f[1] * f[5] - f[2] * f[4],
        f[5] * f[6] - f[3] * f[8],
        f[0] * f[8] - f[2] * f[6],
        f[2] * f[3] - f[0] * f[5],
        f[3] * f[7] - f[4] * f[6],
        f[1] * f[6] - f[0] * f[7],
        f[0] * f[4] - f[1] * f[3],
    ))


def inverse(a: Mat) -> Mat | None:
    """Closed-form inverse, or None below the det threshold or at a NaN
    or inf det: the one place that decides invertibility and builds A^-1."""
    d = _det(a.flat, a.n)
    if not math.inf > abs(d) >= singular_threshold(a):  # as is_invertible
        return None
    return Mat(a.n, _inverse_entries(a.flat, a.n, d))


def invert(a: Mat) -> Mat:
    """The inverse; raises SingularError below the det threshold."""
    inv = inverse(a)
    if inv is None:
        raise SingularError(f"matrix is numerically singular (det={det(a):.3e})")
    return inv


def inv_norm(a: Mat) -> float:
    """|A^-1|, infinite for singular matrices."""
    inv = inverse(a)
    return math.inf if inv is None else frob_norm(inv)


# -- rank-one decomposition --------------------------------------------


def rank_one_difference(a: Mat, b: Mat):
    """Decompose B - A as an outer product.

    Returns (vec_a, vec_m) with B - A = vec_a (x) vec_m and |vec_m| = 1,
    or None when the difference is not rank one within tolerance (this
    includes the rank-zero case A = B).  The sign of vec_m is normalized
    so its largest-magnitude entry is positive.

    Rank is scale-free, so the rows are first multiplied by the power of
    two that puts the largest |entry| in [1, 2), which is exact and keeps
    every square in range.  vec_m is the longest row's direction, and the
    difference is rank one when the rows' parts off vec_m have a
    root-sum-square of at most RANK_ONE_RTOL times that row's norm.
    vec_a is scaled back by a product, so an entry beyond the float
    range reads inf.
    """
    d = b - a
    big = max(abs(x) for x in d.flat)
    if big == 0.0:
        return None
    k = 1 - math.frexp(big)[1]
    rows = [[math.ldexp(x, k) for x in d.row(i)] for i in range(d.n)]
    norms = [math.sqrt(math.fsum(x * x for x in r)) for r in rows]
    nr = max(norms)
    m = [x / nr for x in rows[norms.index(nr)]]
    if max(m, key=abs) < 0.0:
        m = [-x for x in m]
    vec_a = [math.fsum(x * y for x, y in zip(r, m)) for r in rows]
    off = [x - c * y for r, c in zip(rows, vec_a) for x, y in zip(r, m)]
    if math.sqrt(math.fsum(x * x for x in off)) > RANK_ONE_RTOL * nr:
        return None
    return (tuple(c * 2.0 ** -k for c in vec_a), tuple(m))


# -- rho balls ----------------------------------------------------------


@dataclass(frozen=True)
class RhoBall:
    """Invertible matrices with max(|A|, |A^-1|) <= rho, optionally det > 0.
    rho = inf is K_inf, every invertible matrix."""

    rho: float
    positive_det_only: bool = False

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ValueError("rho must be positive")


def in_rho_ball(a: Mat, ball: RhoBall) -> bool:
    """Membership test; singular matrices are never members.  The
    unbounded ball checks the determinant only."""
    if ball.positive_det_only and det(a) <= 0.0:
        return False
    if ball.rho == math.inf:
        return is_invertible(a)
    return frob_norm(a) <= ball.rho and inv_norm(a) <= ball.rho


def max_norm_pair(a: Mat) -> float:
    """max(|A|, |A^-1|), infinite for singular matrices."""
    return max(frob_norm(a), inv_norm(a))


def iter_coordinate_dyads(n: int) -> Iterable[Mat]:
    """The n^2 unit coordinate dyads e_i (x) e_j."""
    for i in range(n):
        for j in range(n):
            flat = [0.0] * (n * n)
            flat[i * n + j] = 1.0
            yield Mat(n, tuple(flat))


# -- the kernels on stacks of matrices ------------------------------------


def quiet() -> np.errstate:
    """numpy's floating-point warnings off: the infinities and NaNs the
    kernels make are those their scalar forms make, or sit in rows they
    discard.  The stack kernels below expect their caller to run them
    under it, as evaluate_batch does."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def sum_rows(x: np.ndarray) -> np.ndarray:
    """Each row of x[N, k] summed left to right from 0.0, a column at a
    time: np.sum adds pairwise from 8 terms on."""
    s = x[:, 0] + 0.0
    for j in range(1, x.shape[1]):
        s = s + x[:, j]
    return s


def stack(mats: Sequence[Mat], n: int) -> np.ndarray:
    """The n x n matrices mats as one array a[N, n, n]."""
    return np.fromiter(chain.from_iterable(m.flat for m in mats), float,
                       count=len(mats) * n * n).reshape(-1, n, n)


def _rows(a: np.ndarray) -> np.ndarray:
    """a[N, n, n] as N rows of n*n row-major entries."""
    return a.reshape(len(a), a.shape[1] * a.shape[2])


def frob_norms(a: np.ndarray) -> np.ndarray:
    """frob_norm of each matrix of a[N, n, n]."""
    x = _rows(a)
    return np.sqrt(sum_rows(x * x))


def dets(a: np.ndarray) -> np.ndarray:
    """det of each matrix of a[N, n, n], in a new array."""
    d = _det(_rows(a).T, a.shape[1])
    return d.copy() if a.shape[1] == 1 else d  # for n = 1, d is a view of a


def _invertible(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """is_invertible of each matrix of a, given its determinants d."""
    scale = _nth_power(frob_norms(a), a.shape[1])
    d = np.abs(d)
    return (math.inf > d) & (d >= SINGULAR_RTOL * np.maximum(1.0, scale))


def inverses(a: np.ndarray) -> tuple:
    """inverse on each matrix of a[N, n, n], as (ok, inv): the mask of
    the invertible rows and their inverses, inv[N_ok, n, n]."""
    n = a.shape[1]
    d = dets(a)
    ok = _invertible(a, d)
    inv = _inverse_entries(_rows(a[ok]).T, n, d[ok])
    return ok, np.stack(inv, axis=1).reshape(-1, n, n)


def inv_norms(a: np.ndarray) -> np.ndarray:
    """inv_norm of each matrix of a[N, n, n]; infinite where singular."""
    if a.shape[1] == 1:
        # frob_norm of the inverse [1/x], taken on every row at once
        x = a[:, 0, 0]
        r = 1.0 / x
        return np.where(_invertible(a, x), np.sqrt(r * r), math.inf)
    ok, inv = inverses(a)
    out = np.full(len(a), math.inf)
    out[ok] = frob_norms(inv)
    return out


def in_rho_balls(a: np.ndarray, ball: RhoBall) -> np.ndarray:
    """in_rho_ball of each matrix of a[N, n, n]; each test runs on the
    rows the one before it kept, as the scalar test short-circuits."""
    if ball.positive_det_only:
        inside = ~(dets(a) <= 0.0)
        inside[inside] = in_rho_balls(a[inside], RhoBall(ball.rho))
        return inside
    if ball.rho == math.inf:
        return _invertible(a, dets(a))
    inside = frob_norms(a) <= ball.rho
    inside[inside] = inv_norms(a[inside]) <= ball.rho
    return inside
