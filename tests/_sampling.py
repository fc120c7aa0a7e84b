"""Seeded random generators for matrices and measures in the test suite.

Every function takes an explicit numpy Generator so runs are
reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from ymrelax.matcore import (Mat, RhoBall, det, frob_norm, in_rho_ball,
                             is_invertible)
from ymrelax.measure import AtomicMeasure


def diag(*vals: float) -> Mat:
    """The diagonal matrix with entries vals."""
    n = len(vals)
    return Mat(n, tuple(float(vals[i]) if i == j else 0.0
                        for i in range(n) for j in range(n)))


def random_invertible(rng: np.random.Generator, n: int, scale: float = 1.0) -> Mat:
    """Gaussian matrix rejected until comfortably away from singularity:
    |det A| / |A|^n, a conditioning proxy in [0, ~1], must exceed 0.05."""
    while True:
        a = Mat.from_rows((scale * rng.normal(size=(n, n))).tolist())
        if is_invertible(a) and abs(det(a)) / frob_norm(a) ** n > 0.05:
            return a


def random_in_ball(rng: np.random.Generator, n: int, rho: float) -> Mat:
    """Uniform-ish member of the rho ball by rejection."""
    ball = RhoBall(rho)
    if n == 1:
        while True:
            s = rng.uniform(-rho, rho)
            if abs(s) >= 1.0 / rho:
                return Mat.scalar(s)
    while True:
        a = Mat.from_rows(rng.uniform(-rho / n, rho / n, size=(n, n)).tolist())
        a = a + Mat.identity(n)
        if in_rho_ball(a, ball):
            return a


def random_measure(rng: np.random.Generator, n: int, max_atoms: int = 4,
                   scale: float = 1.0) -> AtomicMeasure:
    """Random invertible-support measure with Dirichlet weights."""
    k = int(rng.integers(1, max_atoms + 1))
    weights = rng.dirichlet(np.ones(k))
    weights = weights / math.fsum(weights)
    return AtomicMeasure(
        (random_invertible(rng, n, scale), float(w)) for w in weights)
