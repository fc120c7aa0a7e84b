"""Certificates: named checks with pass/fail/inconclusive verdicts.

Each certificate bundles the individual checks behind one hypothesis
set; the verdict aggregates conservatively (any failing check fails the
certificate, otherwise any inconclusive check leaves it inconclusive,
and inconclusive is never upgraded to pass).  Checks relying on sampled
quantities or one-sided bounds say so in their explanations and degrade
to inconclusive rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import HypothesisViolated
from .matcore import Mat, det, dets, frob_norm, max_norm_pair, quiet
from .measure import (YoungMeasureField, classify, first_moment, pair as pair_fn,
                      power_or_inf)
from .meshdef import MeshDeformation
from .testfn import orho_extend

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Check:
    name: str
    status: str
    residual: float | None = None
    explanation: str = ""

    def __post_init__(self):
        if self.status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"unknown check status {self.status!r}")
        if self.status == INCONCLUSIVE and not self.explanation:
            raise ValueError("inconclusive checks must explain themselves")

    def to_json_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "residual": self.residual, "explanation": self.explanation}


@dataclass(frozen=True)
class Certificate:
    theorem: str
    checks: tuple
    details: dict = dc_field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return aggregate(self.checks)

    def to_json_dict(self) -> dict:
        return {"theorem": self.theorem, "verdict": self.verdict,
                "checks": [c.to_json_dict() for c in self.checks],
                "details": dict(self.details)}


def aggregate(checks) -> str:
    statuses = [c.status for c in checks]
    if FAIL in statuses:
        return FAIL
    if INCONCLUSIVE in statuses:
        return INCONCLUSIVE
    return PASS


# -- class membership of a measure field -------------------------------------


def check_thm12(field: YoungMeasureField, p: float, q: float,
                require_positive_det: bool = False) -> Certificate:
    """Full mass on invertible matrices and finite (p, -q) moments;
    with require_positive_det additionally zero mass on det <= 0.

    These conditions characterize exactly the measure fields that are
    generated by bounded invertible (resp. orientation-preserving)
    gradient sequences, so the certificate is conclusive either way and
    always agrees with classify."""
    report = classify(field, p, q)

    def moment(name: str, integrand: str, value: float, infinite_at: str) -> Check:
        finite = math.isfinite(value)
        return Check(name, PASS if finite else FAIL, None,
                     f"integrated {integrand} moment = {value:.6g}"
                     + ("" if finite else f" (infinite at {infinite_at})"))

    overflow = "a power beyond the float range"
    checks = [
        moment("finite_p_moment", f"|s|^{p:g}", report.moment_p, overflow),
        moment("finite_inverse_moment", f"|s^-1|^{q:g}", report.moment_negq,
               f"singular mass or {overflow}"),
        Check("invertible_support",
              PASS if report.inv_mass_deficit == 0.0 else FAIL,
              report.inv_mass_deficit,
              "volume fraction of mass on non-invertible matrices"),
    ]
    theorem = "thm1"
    if require_positive_det:
        theorem = "thm2"
        checks.append(Check(
            "positive_determinant_support",
            PASS if report.positive_det_mass_deficit == 0.0 else FAIL,
            report.positive_det_mass_deficit,
            "volume fraction of mass with det <= 0"))
    return Certificate(theorem, tuple(checks), report.to_json_dict())


# -- support control along a generating sequence -----------------------------


def _det_q_integral(widths, abs_dets, q: float) -> float:
    """Sum of w |det|^-q; widths are positive, so a zero determinant,
    whose power reads inf, makes it inf."""
    total = 0.0
    for w, d in zip(widths, abs_dets):
        total += w * power_or_inf(d, -q)
    return total


def _grows(values) -> bool:
    """A bound grows along the sequence when it never falls and its last
    value is more than twice its first."""
    return (len(values) > 1 and values[-1] > 2.0 * values[0]
            and all(b >= a for a, b in zip(values, values[1:])))


def check_support_from_sequence(fields, epsilon_ladder, q: float) -> Certificate:
    """Quantify how much volume each field spends near the singular set.

    For each epsilon, the near-singular volume fraction m_k(eps) (pieces
    with |det grad| < eps) must obey the moment domination
    m_k(eps) * eps^-q <= integral of |det grad|^-q.  When those
    integrals stay bounded along the sequence, all mass is pushed away
    from singular matrices in the limit; growing integrals are flagged
    and leave the certificate inconclusive."""
    fields = list(fields)
    if not fields:
        raise ValueError("need at least one field")
    epsilon_ladder = list(epsilon_ladder)
    if not epsilon_ladder:
        raise ValueError("need at least one epsilon")
    widths = [f.widths for f in fields]
    with quiet():
        abs_dets = [np.abs(dets(f.grad_stack)).tolist() for f in fields]
    integrals = [_det_q_integral(w, d, q) for w, d in zip(widths, abs_dets)]

    checks = []
    masses = {}
    for eps in epsilon_ladder:
        if not 0.0 < eps < 1.0:
            raise ValueError("epsilons must sit in (0, 1)")
        worst = 0.0
        row = []
        for ws, ds, ik in zip(widths, abs_dets, integrals):
            mass = math.fsum(w for w, d in zip(ws, ds) if d < eps)
            row.append(mass)
            bound = ik if ik == math.inf else (eps ** q) * ik
            worst = max(worst, mass - bound)
        masses[f"{eps:g}"] = row
        checks.append(Check(
            f"near_singular_mass_eps_{eps:g}",
            PASS if worst <= 1e-12 else FAIL,
            max(0.0, worst),
            f"volume with |det grad| < {eps:g} against the eps^{q:g} "
            "moment bound"))

    grows = _grows(integrals)
    bounded = math.isfinite(integrals[-1]) and not grows
    checks.append(Check(
        "uniform_inverse_determinant_moment",
        PASS if bounded else INCONCLUSIVE,
        None,
        "integrated |det grad|^-q along the sequence: "
        + ", ".join(f"{v:.4g}" for v in integrals)
        + ("" if math.inf not in integrals else
           " (infinite at a zero determinant or a power beyond the float"
           " range)")
        + ("" if bounded else
           ("; the growth rules out a uniform bound" if grows else
            "; the last integral is infinite")
           + ", so limiting support control is not certified")))
    return Certificate("support", tuple(checks),
                       {"q_integrals": integrals, "masses": masses})


# -- orientation of the weak limit -------------------------------------------


def check_det_limit(fields, p: float) -> Certificate:
    """Lower bound on the determinant of the weak gradient limit.

    Hypotheses (violations raise HypothesisViolated): integrability
    exponent above the space dimension, positive determinants along the
    whole sequence.  With a uniform bound M on |grad^-1|, every gradient
    has det >= n^(n/2) / M^n, the bound survives weak limits, and the
    check compares the determinant of the volume-averaged gradient of
    the last field (exact weak limit for laminates) against it.  An
    inverse bound that grows along the sequence leaves the certificate
    inconclusive."""
    fields = list(fields)
    if not fields:
        raise ValueError("need at least one field")
    n = fields[0].n
    if not p > n:
        raise HypothesisViolated(f"integrability exponent {p:g} must exceed "
                                 f"the dimension {n}")
    inv_sups = [f.sup_inv_norm() for f in fields]
    m_inv = max(inv_sups)
    # K+: every gradient has det > 0 and a finite |grad^-1|
    if m_inv == math.inf or min(f.min_det() for f in fields) <= 0.0:
        raise HypothesisViolated("the sequence must consist of "
                                 "orientation-preserving gradients")

    checks = [Check("exponent_above_dimension", PASS, None,
                    f"p = {p:g} > n = {n}"),
              Check("orientation_along_sequence", PASS, 0.0,
                    "every gradient has positive determinant")]

    # the volume average of the last field, summed piece by piece in
    # order from a zero row
    last = fields[-1]
    with quiet():
        rows = np.array(last.widths)[:, None] * last.grad_stack.reshape(-1, n * n)
        total = np.cumsum(np.vstack([np.zeros(n * n), rows]), axis=0)[-1]
    avg = Mat(n, tuple(total.tolist()))
    threshold = n ** (n / 2.0) / m_inv ** n
    d = det(avg)
    details = {"weak_limit": list(avg.flat), "det": d,
               "threshold": threshold, "inv_sups": inv_sups}

    if _grows(inv_sups):
        checks.append(Check(
            "uniform_inverse_bound", INCONCLUSIVE, None,
            "sup |grad^-1| grows along the sequence ("
            + ", ".join(f"{v:.4g}" for v in inv_sups)
            + "); without a uniform bound no limit determinant bound follows"))
        return Certificate("det_limit", tuple(checks), details)

    checks.append(Check("uniform_inverse_bound", PASS, None,
                        f"sup |grad^-1| <= {m_inv:.6g} along the sequence"))
    checks.append(Check(
        "limit_determinant_bound",
        PASS if d >= threshold - 1e-10 else FAIL,
        max(0.0, threshold - d),
        f"det of the averaged gradient = {d:.6g} against the bound "
        f"n^(n/2)/M^n = {threshold:.6g}"))
    return Certificate("det_limit", tuple(checks), details)


# -- localization: support ball, barycenters, Jensen inequalities ------------


def cell_gradients_from(u, field_mesh) -> list:
    """Cell gradients of the deformation, one per mesh cell.  Accepts a
    MeshDeformation on the same mesh or a slab field whose gradient is
    constant on every cell."""
    if isinstance(u, MeshDeformation):
        if u.mesh != field_mesh:
            raise ValueError("deformation and field live on different meshes")
        return u.cell_gradients()
    if field_mesh.dim == 1:
        grads = []
        for c in range(field_mesh.n_cells):
            lo, hi = field_mesh.interval_bounds(c)
            seen = {u.gradient_at(((lo + hi) / 2.0,))}
            for i in range(u.pieces):
                a, b = u.breaks[i], u.breaks[i + 1]
                if min(b, hi) - max(a, lo) > 1e-12:
                    seen.add(u.grads[i])
            if len(seen) > 1:
                raise ValueError(f"cell {c} straddles a gradient interface; "
                                 "resolve the field on a finer mesh")
            grads.append(seen.pop())
        return grads
    if u.pieces != 1:
        raise ValueError("2D slab fields must be affine to compare against "
                         "a triangulated mesh")
    return [u.grads[0]] * field_mesh.n_cells


def _circulation_check(field: YoungMeasureField) -> Check:
    """Exact discrete curl test for the cellwise first-moment field.

    Around each interior vertex, walk the loop through the midpoints of
    the incident edges; each segment lies inside one triangle, so a
    field of true gradients telescopes to exactly zero circulation.
    Row-wise residuals above 1e-8 * (mesh size) * (field scale) fail."""
    mesh = field.mesh
    moments = [first_moment(nu) for nu in field.measures]
    h = 1.0 / max(mesh.shape)
    scale = max([1.0] + [frob_norm(m) for m in moments])
    tol = 1e-8 * h * scale
    worst = 0.0
    for k in mesh.interior_vertices():
        vx, vy = mesh.vertex_point(k)
        circ = [0.0, 0.0]
        for c in mesh.vertex_cells[k]:
            others = [mesh.vertex_point(q) for q in mesh.cell_vertices(c)
                      if q != k]
            a, b = [((vx + p[0]) / 2.0, (vy + p[1]) / 2.0) for p in others]
            # orient every segment counterclockwise around the vertex
            cross = (a[0] - vx) * (b[1] - vy) - (a[1] - vy) * (b[0] - vx)
            if cross < 0.0:
                a, b = b, a
            seg = (b[0] - a[0], b[1] - a[1])
            m = moments[c]
            circ[0] += m.entry(0, 0) * seg[0] + m.entry(0, 1) * seg[1]
            circ[1] += m.entry(1, 0) * seg[0] + m.entry(1, 1) * seg[1]
        worst = max(worst, abs(circ[0]), abs(circ[1]))
    return Check("moment_field_curl_free",
                 PASS if worst <= tol else FAIL, worst,
                 "largest midpoint-loop circulation of the first-moment "
                 f"field over interior vertices (tolerance {tol:.3e})")


def check_thm3(field: YoungMeasureField, u_h, rho: float, v_battery,
               rho_tilde: float, jensen_depth: int = 1,
               jensen_angles: int = 8) -> Certificate:
    """Cellwise structure of a relaxed pair: (i) support in the rho
    ball, (ii) first moments equal to the deformation gradients (plus a
    discrete curl test in 2D), (iii) the Jensen inequality against the
    constrained envelope for every battery member and cell.

    Each battery member is confined to the rho_tilde ball on entry, by
    orho_extend.  In 1D the Jensen check is conclusive through the
    exact envelope; in 2D only a lamination upper bound U is available,
    so pairing >= U certifies a pass while pairing < U is reported as
    inconclusive (U overestimates the true envelope).  In 1D each member
    has one Oracle1D, so one hull per (member, rho_tilde); in either
    dimension, cells with equal barycenters share one reading of the
    envelope per member, and each distinct reading checks its witness.
    Any finite battery is a sound but incomplete filter; its size is
    recorded."""
    from .envelope import Oracle1D, qinv_laminate_upper
    from .errors import InfeasibleBarycenter, NoAdmissibleSplit

    v_battery = [orho_extend(v, rho_tilde) for v in v_battery]
    if not v_battery:
        raise ValueError("need a nonempty test battery")
    if not rho_tilde > rho:
        raise ValueError("rho_tilde must exceed the support radius rho")

    worst_support = 0.0
    for nu in field.measures:
        for a, _ in nu.atoms:
            worst_support = max(worst_support, max_norm_pair(a) - rho)
    checks = [Check(
        "support_in_rho_ball",
        PASS if worst_support <= 1e-12 else FAIL,
        max(0.0, worst_support),
        f"largest excess of max(|s|, |s^-1|) over rho = {rho:g}")]

    grads = cell_gradients_from(u_h, field.mesh)
    worst_m = 0.0
    for nu, g in zip(field.measures, grads):
        worst_m = max(worst_m, frob_norm(first_moment(nu) - g)
                      / max(1.0, frob_norm(g)))
    checks.append(Check(
        "barycenter_matches_gradient",
        PASS if worst_m <= 1e-8 else FAIL, worst_m,
        "largest relative gap between cell first moments and deformation "
        "gradients"))

    if field.mesh.dim == 2:
        checks.append(_circulation_check(field))

    exact = field.mesh.dim == 1
    miss = FAIL if exact else INCONCLUSIVE
    unbounded = InfeasibleBarycenter if exact else NoAdmissibleSplit
    oracles = [Oracle1D(v, rho_tilde) for v in v_battery] if exact else None

    def envelope_at(k: int, g) -> float:
        if exact:
            return oracles[k].read(g).value_exact
        return qinv_laminate_upper(v_battery[k], g, rho_tilde,
                                   depth=jensen_depth,
                                   angles=jensen_angles).value_upper

    readings = {}  # (member, barycenter) -> envelope value, None if unbounded
    missed = False
    worst_gap = 0.0
    rows = []
    for ci, (nu, g) in enumerate(zip(field.measures, grads)):
        for k, v in enumerate(v_battery):
            lhs = pair_fn(nu, v)
            if (k, g) not in readings:
                try:
                    readings[k, g] = envelope_at(k, g)
                except unbounded:
                    readings[k, g] = None
            rhs = readings[k, g]
            if rhs is None:
                missed = True
                rows.append([ci, v.description, lhs, None,
                             "barycenter not reachable" if exact
                             else "no envelope bound"])
                continue
            gap = rhs - lhs
            worst_gap = max(worst_gap, gap)
            if gap > 1e-7 * max(1.0, abs(rhs)):
                missed = True
            rows.append([ci, v.description, lhs, rhs,
                         "exact" if exact else "upper bound"])
    explanation = ("pairings compared against the constrained envelope at "
                   f"the cell barycenters; battery of {len(v_battery)} "
                   "functions (a finite battery is a necessary filter, "
                   "never a complete one)")
    if not exact:
        explanation += ("; 2D uses a lamination upper bound U: pairing >= U "
                        "certifies, pairing < U proves nothing either way")
    checks.append(Check("jensen_inequality", miss if missed else PASS,
                        max(0.0, worst_gap), explanation))

    return Certificate("thm3", tuple(checks),
                       {"battery_size": len(v_battery),
                        "jensen_rows": rows,
                        "rho": rho, "rho_tilde": rho_tilde})
