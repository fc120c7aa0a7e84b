"""Sampled growth diagnosis of a TestFn against its declared class.

Only the tests use it: the library never samples a TestFn's growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from _sampling import diag
from ymrelax.errors import DomainError
from ymrelax.matcore import Mat, RhoBall, frob_norm, in_rho_ball, inv_norm
from ymrelax.testfn import Growth, TestFn


@dataclass(frozen=True)
class GrowthReport:
    """Sampled growth diagnosis for a declared class."""

    declared: Growth
    max_ratio: float
    scale_ratios: tuple  # (scale, mean ratio) pairs
    decays: bool
    consistent: bool
    notes: str = ""


def _growth_samples(n: int, samples: int, rng) -> list:
    """Matrices whose |s| + |s^-1| spans several decades, deterministic
    for a fixed sample count."""
    out = []
    scales = np.logspace(-1.5, 2.5, max(4, samples))
    for lam in scales:
        g = rng.normal(size=(n, n))
        # keep the random factor well conditioned, then stretch it
        base = np.eye(n) + 0.3 * g
        out.append(Mat.from_rows((lam * base).tolist()))
        if n >= 2:
            d = [lam] + [1.0 / lam] * (n - 1)
            out.append(diag(*d))
        else:
            out.append(Mat.scalar(1.0 / lam))
    return out


def growth_check(v: TestFn, samples: int = 64) -> GrowthReport:
    """Sample |v| against the declared growth denominator over a scale
    ladder.  Reports the max ratio, whether ratios decay along the ladder,
    and a consistency verdict (ratios not growing, structural zeros and
    infinities where the class requires them)."""
    rng = np.random.default_rng(1234)
    # infer the dimension the function accepts: try 1, then 2
    n = 1
    try:
        v.evaluate(Mat.identity(1))
    except (DomainError, ValueError):
        n = 2
    mats = _growth_samples(n, samples, rng)

    kind = v.growth.kind
    p = v.growth.param
    entries = []
    consistent = True
    notes = []
    for a in mats:
        inv = inv_norm(a)
        scale = frob_norm(a) + inv
        if kind == "O_rho":
            ball = RhoBall(p)
            val = v.evaluate(a)
            inside = in_rho_ball(a, ball)
            if inside and not math.isfinite(val):
                consistent = False
                notes.append("infinite inside the rho ball")
            if not inside and val != math.inf:
                # outside the ball the function must be +inf
                consistent = False
                notes.append("finite outside the rho ball")
            continue
        try:
            val = v.evaluate(a)
        except DomainError:
            if kind != "C_pmp":
                consistent = False
                notes.append("unexpected DomainError")
            continue
        if not math.isfinite(val):
            consistent = False
            notes.append("infinite value in a finite-growth class")
            continue
        if kind == "C_p":
            denom = max(frob_norm(a), 1e-300) ** p
        elif kind == "C_pmp":
            denom = frob_norm(a) ** p + inv ** p
        else:  # C_0inv
            denom = 1.0
        entries.append((scale, abs(val) / denom))

    if kind == "C_0inv":
        # structural zero on a singular matrix
        z = v.evaluate(Mat.zero(n))
        if z != 0.0:
            consistent = False
            notes.append("nonzero on a singular matrix")

    if kind == "O_rho":
        return GrowthReport(v.growth, 0.0, (), True, consistent,
                            "; ".join(dict.fromkeys(notes)))

    entries.sort(key=lambda e: e[0])
    ratios = [r for _, r in entries]
    max_ratio = max(ratios) if ratios else 0.0
    third = max(1, len(entries) // 3)
    low = sum(r for _, r in entries[:third]) / third
    high = sum(r for _, r in entries[-third:]) / third
    growing = high > 10.0 * max(low, 1e-12) and high > 1e-9
    decays = high < 0.1 * max(low, 1e-300) or max_ratio == 0.0
    if growing:
        consistent = False
        notes.append(f"ratio grows along the scale ladder ({low:.3e} -> {high:.3e})")
    scale_ratios = tuple((s, r) for s, r in entries)
    return GrowthReport(v.growth, max_ratio, scale_ratios, decays, consistent,
                        "; ".join(dict.fromkeys(notes)))
