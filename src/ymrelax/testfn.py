"""Test functions, cut-offs and the builtin energy library.

A TestFn pairs an evaluator on matrices with a declared growth class:

* C_p        -- continuous everywhere, |v(s)| controlled by |s|^p
* C_pmp      -- continuous on invertibles, controlled by |s|^p + |s^-1|^p;
                the builtin energies are +inf at a singular matrix, a
                plain function such as inv_power raises DomainError there
* C_0inv     -- continuous, vanishes on singular matrices and at infinity
* O_rho      -- finite and continuous on the rho ball, +inf outside it

Infinite values are returned as math.inf (a distinguished value, never a
large float stand-in).  Cut-offs are TestFns too: Phi_rho is of class
C_0inv, the determinant cut-offs of class C_p(1).  Their transitions use
the quintic smoothstep, which is C^2 and monotone on [0, 1].

A TestFn may also carry a batch: a float64 stack a[N, n, n] of
matrices in, the N values of evaluate at them out, bit for bit (1D is
N x 1 x 1).  Scalar evaluate stays the reference; evaluate_batch uses
the batch when there is one and evaluate otherwise.  It runs a batch
under matcore.quiet(), so a batch builds on matcore's stack kernels,
which expect that of their caller.  Powers in a batch are
taken by Python's ** element by element, as evaluate takes them:
numpy's power and square differ from libm pow by an ulp on some
inputs, and ** raises the OverflowError evaluate raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._values import integer, real
from .errors import DomainError, UnknownEnergy
from .matcore import (Mat, RhoBall, det, dets, frob_norm, frob_norms,
                      in_rho_ball, in_rho_balls, inv_norm, inv_norms,
                      is_invertible, quiet)


@dataclass(frozen=True)
class Growth:
    """Declared growth class of a test function."""

    kind: str  # "C_p" | "C_pmp" | "C_0inv" | "O_rho"
    param: float | None = None

    _KINDS = ("C_p", "C_pmp", "C_0inv", "O_rho")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown growth kind {self.kind!r}")
        if self.kind in ("C_p", "C_pmp", "O_rho") and self.param is None:
            raise ValueError(f"growth class {self.kind} needs a parameter")

    @classmethod
    def c_p(cls, p: float) -> "Growth":
        return cls("C_p", float(p))

    @classmethod
    def c_pmp(cls, p: float) -> "Growth":
        return cls("C_pmp", float(p))

    @classmethod
    def c_0inv(cls) -> "Growth":
        return cls("C_0inv")

    @classmethod
    def o_rho(cls, rho: float) -> "Growth":
        return cls("O_rho", float(rho))


@dataclass(frozen=True)
class TestFn:
    """Matrix test function with declared growth, and optionally a
    batch equal to evaluate on each matrix of a stack a[N, n, n]."""

    evaluate: Callable
    growth: Growth
    description: str = ""
    batch: Callable | None = None


def _all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all(), sooner: a finite sum has finite terms."""
    return math.isfinite(x.sum()) or bool(np.isfinite(x).all())


def evaluate_batch(v: TestFn, a) -> np.ndarray:
    """v at each matrix of the stack a[N, n, n], as a float64 array: the
    batch v.batch when v has one, else v.evaluate one matrix at a time."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a stack of square matrices")
    if v.batch is None:
        n = a.shape[1]
        return np.array([v.evaluate(Mat(n, tuple(row)))
                         for row in a.reshape(len(a), n * n).tolist()],
                        dtype=float)
    with quiet():  # the finiteness test's sum may overflow too
        if not _all_finite(a):
            raise ValueError("matrix entries must be finite")
        return v.batch(a)


def _powers(x: np.ndarray, p) -> np.ndarray:
    return np.array([t ** p for t in x.tolist()], dtype=float)


def _entries_1d(a: np.ndarray, name: str) -> np.ndarray:
    """The entry of each 1x1 matrix of a; the DomainError evaluate
    raises on a larger one."""
    if len(a) and a.shape[1] != 1:
        raise DomainError(f"{name} is a 1D test function")
    return a[:, 0, 0]


def smoothstep(u: float) -> float:
    """Quintic smoothstep: 0 below 0, 1 above 1, 6u^5-15u^4+10u^3 between."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return u * u * u * (u * (6.0 * u - 15.0) + 10.0)


def _theta(t: float, rho: float) -> float:
    """Radial profile: 1 for t <= rho, 0 for t >= rho + 1, smooth between."""
    return 1.0 - smoothstep(t - rho)


def make_phi_rho(rho: float) -> TestFn:
    """Cut-off equal to 1 on R_rho, 0 outside R_{rho+1}, 0 on singular
    matrices.  Built as the product of radial profiles of |s| and |s^-1|,
    hence symmetric under inversion."""
    if not rho > 0.0:
        raise ValueError("rho must be positive")

    def evaluate(a: Mat) -> float:
        t1 = _theta(frob_norm(a), rho)
        if t1 == 0.0:
            return 0.0
        return t1 * _theta(inv_norm(a), rho)

    return TestFn(evaluate, Growth.c_0inv(),
                  f"rho-ball cutoff, quintic transition on [{rho}, {rho + 1}]")


def make_det_cutoff(epsilon: float, signed: bool) -> TestFn:
    """Determinant cut-off.

    Unsigned: 1 where det = 0, 0 where |det| >= epsilon.
    Signed:   1 where det <= 0, 0 where det >= epsilon.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")

    if signed:
        def evaluate(a: Mat) -> float:
            return 1.0 - smoothstep(det(a) / epsilon)
        desc = f"signed determinant cutoff, transition on (0, {epsilon})"
    else:
        def evaluate(a: Mat) -> float:
            return 1.0 - smoothstep(abs(det(a)) / epsilon)
        desc = f"unsigned determinant cutoff, transition on (0, {epsilon})"

    return TestFn(evaluate, Growth.c_p(1.0), desc)


def orho_extend(core: TestFn, rho: float, description: str = "",
                positive_det_only: bool = False) -> TestFn:
    """Extend a finite integrand by +inf outside the rho ball.

    The evaluator of core is kept on R_rho (at det > 0 only, if
    positive_det_only) and replaced by math.inf elsewhere, producing an
    O_rho-class TestFn.  A core already declared O_rho for this rho is
    returned as it is, unless positive_det_only.
    """
    if core.growth == Growth.o_rho(rho) and not positive_det_only:
        return core
    ball = RhoBall(rho, positive_det_only)
    inner = core.evaluate
    description = description or (f"{core.description}, +inf outside the {rho}-ball"
                                  + (" and at det <= 0" if positive_det_only else ""))

    def evaluate(a: Mat) -> float:
        if not in_rho_ball(a, ball):
            return math.inf
        return inner(a)

    def batch(a: np.ndarray) -> np.ndarray:
        out = np.full(len(a), math.inf)
        inside = in_rho_balls(a, ball)
        out[inside] = evaluate_batch(core, a[inside])
        return out

    return TestFn(evaluate, Growth.o_rho(rho), description, batch)


# -- builtin energies ---------------------------------------------------


def _inv_penalty(p: float) -> tuple:
    """evaluate and batch of |s|^p + |s^-1|^p."""
    def evaluate(a: Mat) -> float:
        inv = inv_norm(a)
        return math.inf if inv == math.inf else frob_norm(a) ** p + inv ** p

    def batch(a: np.ndarray) -> np.ndarray:
        out = inv_norms(a)
        ok = out < math.inf
        out[ok] = _powers(frob_norms(a[ok]), p) + _powers(out[ok], p)
        return out
    return evaluate, batch


def _double_well(well_a: Mat, well_b: Mat, p: float, gamma: float) -> tuple:
    """evaluate and batch of the two-well energy."""
    n = well_a.n

    def wells(a: Mat) -> float:
        if a.n != n:
            raise ValueError("dimension mismatch")  # as Mat subtraction
        sa = sb = 0.0  # frob_norm(a - well) of each, summed in its order
        for x, xa, xb in zip(a.flat, well_a.flat, well_b.flat):
            sa += (x - xa) * (x - xa)
            sb += (x - xb) * (x - xb)
        da, db = math.sqrt(sa), math.sqrt(sb)
        return min(da * da, db * db)

    k_inf = RhoBall(math.inf)
    both = np.array([well_a.flat, well_b.flat]).reshape(1, 2, n, n)

    def batch(a: np.ndarray) -> np.ndarray:
        if gamma == 0.0:
            ok = in_rho_balls(a, k_inf)
        else:
            inv = inv_norms(a)
            ok = inv < math.inf
        if a.shape[1] != n and ok.any():
            raise ValueError("dimension mismatch")  # as Mat subtraction
        # an admitted row has a finite |a|^n, so entries below 1.35e154,
        # and its difference with any finite well is finite
        diff = a[ok][:, None] - both
        d = frob_norms(diff.reshape(-1, n, n))  # a - A, a - B for each a
        d *= d
        val = np.minimum(d[0::2], d[1::2])
        if gamma != 0.0:
            val += gamma * _powers(inv[ok], p)
        out = np.full(len(a), math.inf)
        out[ok] = val
        return out

    if gamma == 0.0:
        # without the coupling only invertibility matters, not A^-1
        return (lambda a: wells(a) if is_invertible(a) else math.inf), batch

    def evaluate(a: Mat) -> float:
        inv = inv_norm(a)
        return math.inf if inv == math.inf else wells(a) + gamma * inv ** p
    return evaluate, batch


def _wells(value) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError("needs exactly two wells")
    wa = Mat.coerce(value[0])
    return wa, Mat.coerce(value[1], n=wa.n)


def _params(name: str, params, spec: dict) -> dict:
    """Read params against spec, a map key -> (default, convert).  An
    absent key takes its default; a given one is passed through convert.
    Unknown keys and values convert rejects raise UnknownEnergy."""
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise UnknownEnergy(f"parameters for {name} must be a mapping")
    unknown = sorted(set(params) - set(spec))
    if unknown:
        raise UnknownEnergy(f"unexpected parameters for {name}: {unknown}")
    out = {}
    for key, (default, convert) in spec.items():
        try:
            out[key] = convert(params[key]) if key in params else default
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise UnknownEnergy(f"{name} parameter {key!r}: {exc}") from exc
    return out


def builtin_energy(name: str, params: dict | None = None) -> TestFn:
    """Energy library.  All members are +inf on singular matrices and sit
    inside the two-sided sandwich c(-1 + |s|^p + |s^-1|^p) <= W <=
    c'(1 + |s|^p + |s^-1|^p) for the exponents stated in the description.
    """
    if name == "inv_penalty":
        p = _params(name, params, {"p": (2.0, real(above=0.0))})["p"]
        evaluate, batch = _inv_penalty(p)
        return TestFn(evaluate, Growth.c_pmp(p),
                      f"|s|^{p:g} + |s^-1|^{p:g}, sandwich constants c=c'=1",
                      batch)

    if name == "double_well_inv":
        a = _params(name, params, {
            "wells": ((Mat.scalar(1.0), Mat.scalar(-1.0)), _wells),
            "p": (2.0, real()), "gamma": (0.0, real(least=0.0))})
        (wa, wb), p, gamma = a["wells"], a["p"], a["gamma"]
        desc = (f"two-well distance energy, wells at {list(wa.flat)} and {list(wb.flat)}, "
                f"inverse coupling {gamma:g}*|s^-1|^{p:g}; "
                f"sandwich exponents (2, -{p:g}) with c=min(1/2, gamma), c'=2+gamma+2*max well norm^2")
        evaluate, batch = _double_well(wa, wb, p, gamma)
        return TestFn(evaluate, Growth.c_pmp(max(2.0, p)), desc, batch)

    if name == "shear_well_2d":
        a = _params(name, params, {"kappa": (1.0, real()),
                                   "gamma": (0.0, real(least=0.0)),
                                   "p": (2.0, real())})
        kappa, gamma, p = a["kappa"], a["gamma"], a["p"]
        wa = Mat.identity(2)
        wb = Mat.from_rows([[1.0, kappa], [0.0, 1.0]])
        desc = (f"planar shear wells I and I + {kappa:g} e1(x)e2, "
                f"inverse coupling {gamma:g}*|s^-1|^{p:g}; sandwich exponents (2, -{p:g})")
        evaluate, batch = _double_well(wa, wb, p, gamma)
        return TestFn(evaluate, Growth.c_pmp(max(2.0, p)), desc, batch)

    raise UnknownEnergy(f"no builtin energy named {name!r}")


# -- named plain test functions (used by batteries and the CLI) ---------


def _quartic_batch(a: np.ndarray) -> np.ndarray:
    s = _entries_1d(a, "quartic_well_1d")
    return _powers(s * s - 1.0, 2)


def named_testfn(kind: str, params: dict | None = None) -> TestFn:
    """Small registry of plain test functions addressable by name.  Kind
    "energy" wraps builtin_energy: {"name": ..., "params": {...}}, or
    the energy parameters inline next to the name."""
    if kind == "energy":
        params = dict(params or {})
        name = params.pop("name", None)
        nested = set(params) == {"params"}  # else "params" is an unknown key
        return builtin_energy(name, params["params"] if nested else params)
    if kind == "frob_power":
        p = _params(kind, params, {"p": (2.0, real())})["p"]
        return TestFn(lambda a, _p=p: frob_norm(a) ** _p, Growth.c_p(p + 1.0),
                      f"|s|^{p:g}", lambda a, _p=p: _powers(frob_norms(a), _p))
    if kind == "det":
        _params(kind, params, {})
        return TestFn(det, Growth.c_p(3.0), "det s", dets)
    if kind == "phi_rho":
        rho = _params(kind, params, {"rho": (2.0, real(above=0.0))})["rho"]
        return make_phi_rho(rho)
    if kind == "entry_power":
        k = _params(kind, params, {"exponent": (2, integer(least=0))})["exponent"]

        def evaluate(a: Mat, _k=k) -> float:
            if a.n != 1:
                raise DomainError("entry_power is a 1D test function")
            return a.flat[0] ** _k
        return TestFn(evaluate, Growth.c_p(float(k + 1)), f"s^{k} (1D)",
                      lambda a, _k=k: _powers(_entries_1d(a, "entry_power"), _k))
    if kind == "quartic_well_1d":
        _params(kind, params, {})

        def evaluate(a: Mat) -> float:
            if a.n != 1:
                raise DomainError("quartic_well_1d is a 1D test function")
            s = a.flat[0]
            return (s * s - 1.0) ** 2
        return TestFn(evaluate, Growth.c_p(5.0), "(s^2 - 1)^2 (1D)",
                      _quartic_batch)
    if kind == "inv_power":
        q = _params(kind, params, {"q": (2.0, real())})["q"]

        def evaluate(a: Mat, _q=q) -> float:
            inv = inv_norm(a)
            if inv == math.inf:
                raise DomainError("inv_power is undefined on singular matrices")
            return inv ** _q
        return TestFn(evaluate, Growth.c_pmp(q), f"|s^-1|^{q:g}")
    raise UnknownEnergy(f"no named test function of kind {kind!r}")
