"""Earlier forms of batched or rewritten code, kept as oracles.

The sequential golden-section search and multistart pricing loop, as
they stood before the starts moved in lockstep; the golden-section
search as a coroutine with its send driver, as it stood before
golden_min_rows stepped its rows as arrays and golden_min became a
loop of floats; the lamination bound with its coarse scan one split at
a time, as it stood before the scan became one batch, refining each
node's split by the shared line hull of ymrelax.envelope; check_thm3's
1D Jensen rows with one qinv_oracle_1d call a row, as they stood
before each battery member got one Oracle1D and equal barycenters one
reading; classify one atom at a time, as it stood before it read each
distinct cell measure once and summed their terms as arrays;
GradientField chaining and checking its interfaces one Mat at a time,
as it stood before it ran on stacks; and the P1 gradient as a numpy
solve against the triangle's edge matrix, as it stood before
ymrelax.meshdef took the closed form; and lp_weights with Bland's rule
skipping an in-basis set and a drive-out listing its dropped rows, as
they stood before ymrelax.relax let the basic columns' zero reduced
costs and the basis itself decide both; and empirical_pairing and the
lateral boundary mismatch of a glued field one piece and one station
at a time through a scalar slab point, as they stood before
ymrelax.laminate read the field's gradient stack in one evaluate_batch
and its points from the one array slab-point kernel.  Tests hold the batched and
rewritten versions in ymrelax._search, ymrelax.relax, ymrelax.envelope,
ymrelax.certify, ymrelax.measure and ymrelax.laminate, and the closed
form, to these bit for bit, errors included, with these exceptions: where
ScalarGradientField's arithmetic leaves the float range (an
OverflowError, an inf - inf in fsum) or the field's scale is not
finite, GradientField raises ValueError instead, by its float-range
contract; where the solve's products overflow to inf - inf, the closed
form still returns its finite gradient; where nodes carry -0.0, the
closed form may return a zero entry as -0.0 where the solve, its sums
started from +0.0, returns +0.0; and classify keeps two rules where an
atom's vol * w underflows to 0: the mass of a singular or det <= 0 atom
counts as at least the least subnormal, where the reference here counts
0, and a power beyond the float range makes its moment inf, where the
reference's reads 0 * inf = NaN."""

import math

import numpy as np

from ymrelax.envelope import (_LAMBDA_COARSE, _LINE_POINTS, EnvelopeEstimate,
                              _LineHull, _angular_dyads, _checked,
                              qinv_oracle_1d)
from ymrelax.errors import (Infeasible, InfeasibleBarycenter, NoAdmissibleSplit,
                            NotRankOne, Stalled)
from ymrelax.laminate import JUMP_TOL, GradientField, _perp
from ymrelax.matcore import Mat, det, frob_norm, in_rho_ball, inv_norm
from ymrelax.measure import AtomicMeasure, ClassReport, pair, power_or_inf
from ymrelax.relax import (MAX_PIVOTS, PIVOT_TOL, PRICING_STARTS,
                           REDUCED_COST_TOL, LpSolution, _pivot)
from ymrelax.testfn import orho_extend

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(fn, lo, hi, iters, coarse=13):
    xs = [lo + (hi - lo) * i / (coarse - 1) for i in range(coarse)]
    vals = [fn(x) for x in xs]
    i_best = min(range(coarse), key=lambda i: vals[i])
    best_x, best_v = xs[i_best], vals[i_best]
    a = xs[max(i_best - 1, 0)]
    b = xs[min(i_best + 1, coarse - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
    for x, v in ((c, fc), (d, fd)):
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


def _golden(lo, hi, iters, coarse):
    """The golden-section search as a coroutine.  It yields the coarse
    grid, then the pair (c, d), as lists, and after that one point per
    step; each is sent back its value, a list of values for a list.  It
    returns (x, v)."""
    xs = [lo + (hi - lo) * i / (coarse - 1) for i in range(coarse)]
    vals = yield xs
    i_best = min(range(coarse), key=lambda i: vals[i])
    best_x, best_v = xs[i_best], vals[i_best]
    a = xs[max(i_best - 1, 0)]
    b = xs[min(i_best + 1, coarse - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = yield [c, d]
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = yield d
        if b - a < 1e-14 * max(1.0, abs(a) + abs(b)):
            break
    for x, v in ((c, fc), (d, fd)):
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


def golden_min_sent(fn, lo, hi, iters, coarse=13):
    """golden_min driving the _golden coroutine by send."""
    search = _golden(lo, hi, iters, coarse)
    try:
        ask = search.send([fn(x) for x in next(search)])
        ask = search.send([fn(x) for x in ask])
        while True:
            ask = search.send(fn(ask))
    except StopIteration as done:
        return done.value


def _bland(tab, basis, costs, ncols):
    m = tab.shape[0]
    in_basis = set(basis)
    for _ in range(MAX_PIVOTS):
        cb = costs[basis]
        red = costs[:ncols] - cb @ tab[:, :ncols]
        enter = -1
        for j in range(ncols):
            if j not in in_basis and red[j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = None
        for i in range(m):
            a = tab[i, enter]
            if a > PIVOT_TOL:
                ratio = tab[i, -1] / a
                if best is None or ratio < best - 1e-12 or \
                        (abs(ratio - best) <= 1e-12 and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise Infeasible("restricted problem is unbounded")
        in_basis.discard(basis[leave])
        in_basis.add(enter)
        _pivot(tab, leave, enter)
        basis[leave] = enter
    raise Stalled("simplex pivot budget exhausted")


def lp_weights(atoms, target, costs):
    atoms = list(atoms)
    cost_arr = [float(c) for c in costs]
    n = target.n
    keep = [i for i, c in enumerate(cost_arr) if c < math.inf]
    if not keep:
        raise Infeasible("no finite-cost atoms")
    m = n * n + 1
    nk = len(keep)
    a_mat = np.empty((m, nk))
    for col, i in enumerate(keep):
        a_mat[:-1, col] = atoms[i].flat
        a_mat[-1, col] = 1.0
    b = np.array(list(target.flat) + [1.0])

    sign = np.where(b < 0.0, -1.0, 1.0)
    tab = np.hstack([a_mat * sign[:, None], np.eye(m), (b * sign)[:, None]])
    basis = list(range(nk, nk + m))
    phase1costs = np.concatenate([np.zeros(nk), np.ones(m)])
    _bland(tab, basis, phase1costs, nk + m)
    infeas = float(phase1costs[basis] @ tab[:, -1])
    if infeas > 1e-9:
        raise Infeasible(f"barycenter outside the atom hull "
                         f"(phase-1 residual {infeas:.3e})")
    drop_rows = []
    for i, bi in enumerate(basis):
        if bi >= nk:
            col = next((j for j in range(nk) if abs(tab[i, j]) > 1e-9), None)
            if col is None:
                drop_rows.append(i)
            else:
                _pivot(tab, i, col)
                basis[i] = col
    if drop_rows:
        keep_rows = [i for i in range(m) if i not in drop_rows]
        tab = tab[keep_rows]
        basis = [basis[i] for i in keep_rows]

    atom_costs = np.array([cost_arr[i] for i in keep])
    _bland(tab, basis, atom_costs, nk)

    weights = [0.0] * len(atoms)
    for i, bi in enumerate(basis):
        weights[keep[bi]] = max(0.0, float(tab[i, -1]))
    value = math.fsum(w * c for w, c in zip(weights, cost_arr) if w > 0.0)

    y, *_ = np.linalg.lstsq(a_mat[:, basis].T, atom_costs[basis], rcond=None)
    resid = a_mat @ np.array([weights[i] for i in keep]) - b
    return LpSolution(tuple(weights), value, tuple(y[:-1]), float(y[-1]),
                      float(np.max(np.abs(resid))))


def refine_atoms(atoms, dual_moment, dual_mass, w, ball, rng):
    pi = tuple(dual_moment)
    n = math.isqrt(len(pi))

    def reduced_flat(flat):
        mat = Mat.from_flat(flat)
        if not in_rho_ball(mat, ball):
            return math.inf
        dot = 0.0  # left to right, as matcore.sum_rows
        for p, s in zip(pi, flat):
            dot += p * s
        return w.evaluate(mat) - dot - dual_mass

    seeds = [Mat.identity(n).flat] + [a.flat for a in atoms]
    k = 0
    while len(seeds) < PRICING_STARTS and atoms:
        base = atoms[k % len(atoms)].flat
        seeds.append(tuple(b + d for b, d in zip(base, rng.normal(0.0, 0.3, n * n))))
        k += 1
    seeds = seeds[:PRICING_STARTS]

    best_flat, best_val = None, math.inf
    for seed in seeds:
        cur = list(seed)
        val = reduced_flat(cur)
        for radius in (0.6, 0.2, 0.05):
            for idx in range(n * n):
                x0 = cur[idx]

                def entry_obj(x):
                    trial = cur.copy()
                    trial[idx] = x
                    return reduced_flat(trial)

                xn, fn = golden_min(entry_obj, x0 - radius, x0 + radius,
                                    iters=28, coarse=9)
                if fn < val - 1e-14:
                    cur[idx] = xn
                    val = fn
        if val < best_val:
            best_val, best_flat = val, tuple(cur)

    if best_flat is not None and best_val < -REDUCED_COST_TOL:
        return Mat.from_flat(best_flat), best_val
    return None, best_val


def qinv_laminate_upper(v, f, rho_tilde, depth=2, angles=32):
    v = orho_extend(v, rho_tilde)
    fmat = Mat.coerce(f)
    dyads = _angular_dyads(fmat.n, angles)
    tmax = 2.0 * rho_tilde
    evals = [0]

    def ev(mat):
        evals[0] += 1
        return v.evaluate(mat)

    def split_value(g, d, t, lam):
        a = g - ((1.0 - lam) * t) * d
        b = g + (lam * t) * d
        va = ev(a)
        if va == math.inf:
            return math.inf
        vb = ev(b)
        if vb == math.inf:
            return math.inf
        return lam * va + (1.0 - lam) * vb

    def node(g, d):
        base = ev(g)
        if d == 0:
            return base, [(g, 1.0)]
        best = (math.inf, None)
        for dyad in dyads:
            for i in range(1, 14):
                t = tmax * i / 13.0
                for lam in _LAMBDA_COARSE:
                    val = split_value(g, dyad, t, lam)
                    if val < best[0]:
                        best = (val, (dyad, t, lam))
        if best[1] is None:
            return base, [(g, 1.0)]
        dyad, t, lam = best[1]
        sa, sb = -(1.0 - lam) * t, lam * t
        line = _LineHull(v, g, dyad, ((-tmax, tmax),), _LINE_POINTS)
        value, ra, rb = line.read(0.0)
        evals[0] += line.evaluations
        if value <= best[0] and ra < 0.0 < rb:
            sa, sb, lam = ra, rb, rb / (rb - ra)
        a = g + sa * dyad
        b = g + sb * dyad
        va, wa = node(a, d - 1)
        vb, wb = node(b, d - 1)
        cand = lam * va + (1.0 - lam) * vb
        if cand < base:
            leaves = [(m, lam * wgt) for m, wgt in wa]
            leaves += [(m, (1.0 - lam) * wgt) for m, wgt in wb]
            return cand, leaves
        return base, [(g, 1.0)]

    value, leaves = node(fmat, depth)
    if value == math.inf:
        raise NoAdmissibleSplit("no finite rank-one split of the barycenter "
                                "was found; raise depth, angles or rho_tilde")
    witness = AtomicMeasure((m, wgt) for m, wgt in leaves if wgt > 1e-15)
    est = EnvelopeEstimate(value, None, witness, rho_tilde, "laminate",
                           {"depth": depth, "angles": angles,
                            "evaluations": evals[0],
                            "atoms": len(witness.atoms)})
    return _checked(est, v)


def jensen_rows_1d(field, grads, battery, rho_tilde):
    """check_thm3's Jensen rows on a 1D field, for a battery already
    confined to the rho_tilde ball."""
    rows = []
    for ci, (nu, g) in enumerate(zip(field.measures, grads)):
        for v in battery:
            lhs = pair(nu, v)
            try:
                rhs = qinv_oracle_1d(v, g, rho_tilde).value_exact
            except InfeasibleBarycenter:
                rows.append([ci, v.description, lhs, None,
                             "barycenter not reachable"])
                continue
            rows.append([ci, v.description, lhs, rhs, "exact"])
    return rows


def p1_gradient(mesh, nodes, c):
    """The gradient G on triangle c with G (x1 - x0, x2 - x0) =
    (y1 - y0, y2 - y0), through the inverse edge matrix."""
    x0, x1, x2 = (np.array(mesh.vertex_point(k)) for k in mesh.cell_vertices(c))
    inv = np.linalg.inv(np.column_stack((x1 - x0, x2 - x0)))
    y0, y1, y2 = (np.array(nodes[k], dtype=float) for k in mesh.cell_vertices(c))
    dy = np.column_stack((y1 - y0, y2 - y0))
    return Mat.from_flat((dy @ inv).reshape(-1))


def classify(field, p, q):
    vol = field.mesh.cell_volume
    inv_deficit = 0.0
    pos_deficit = 0.0
    m1 = 0.0
    m2 = 0.0
    for nu in field.measures:
        for a, w in nu.atoms:
            m1 += vol * w * power_or_inf(frob_norm(a), p)
            inv = inv_norm(a)
            if inv == math.inf:
                inv_deficit += vol * w
                pos_deficit += vol * w
                m2 = math.inf
                continue
            if m2 != math.inf:
                m2 += vol * w * power_or_inf(inv, q)
            if det(a) <= 0.0:
                pos_deficit += vol * w
    return ClassReport(p, q, m1, m2, inv_deficit, pos_deficit)


def _slab_point(normal, t, s):
    """The point t*m + s*m_perp of the domain; (t,) in 1D."""
    if len(normal) == 1:
        return (t,)
    perp = _perp(normal)
    return tuple(t * normal[k] + s * perp[k] for k in range(2))


def empirical_pairing(field, v, g):
    total = []
    for i in range(field.pieces):
        w = field.breaks[i + 1] - field.breaks[i]
        mid = _slab_point(field.normal, 0.5 * (field.breaks[i] + field.breaks[i + 1]), 0.5)
        total.append(w * v.evaluate(field.grads[i]) * g(mid))
    return math.fsum(total)


def lateral_mismatch(field, f):
    stations = [(t, s) for t in field.breaks for s in (0.0, 1.0)]
    worst = 0.0
    for t, s in stations + [(0.0, 0.5), (1.0, 0.5)]:
        x = _slab_point(field.normal, t, s)
        worst = max(worst, math.sqrt(math.fsum(
            (a - b) ** 2 for a, b in zip(field.value(x), f.mul_vec(x)))))
    return worst


class ScalarGradientField(GradientField):
    """GradientField with from_pieces and the interface checks one Mat
    at a time; every other check is GradientField's."""

    def _check_interfaces(self):
        scale = max([1.0] + [frob_norm(g) for g in self.grads]
                    + [abs(x) for b in self.offsets for x in b])
        stations = (0.0, 0.5, 1.0) if self.n == 2 else (0.0,)
        for i in range(len(self.grads) - 1):
            t = self.breaks[i + 1]
            dg = self.grads[i + 1] - self.grads[i]
            db = tuple(b1 - b0 for b1, b0 in zip(self.offsets[i + 1], self.offsets[i]))
            for s in stations:
                jump = dg.mul_vec(_slab_point(self.normal, t, s))
                err = math.sqrt(math.fsum((j + d) ** 2 for j, d in zip(jump, db)))
                if err > JUMP_TOL * scale:
                    if self.n == 2:
                        tan = dg.mul_vec(_perp(self.normal))
                        if math.sqrt(tan[0] * tan[0] + tan[1] * tan[1]) > JUMP_TOL * scale:
                            raise NotRankOne(f"gradient jump at interface {i} is not "
                                             "rank one along the normal")
                    raise ValueError(f"deformation jumps by {err:.3e} at interface {i}")

    @classmethod
    def from_pieces(cls, n, normal, widths, grads, start_value=None):
        if len(widths) != len(grads):
            raise ValueError(f"{len(widths)} piece widths for {len(grads)} gradients")
        normal = tuple(float(x) for x in normal)
        kept = [(float(w), g) for w, g in zip(widths, grads) if w > 0.0]
        if not kept:
            raise ValueError("need at least one piece")
        b = tuple(float(x) for x in (start_value or (0.0,) * n))
        breaks = [0.0]
        offsets = [b]
        out_grads = []
        t = 0.0
        for w, g in kept:
            t += w
            breaks.append(t)
            out_grads.append(g)
        total = breaks[-1]
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"piece widths sum to {total!r}, not 1")
        breaks[-1] = 1.0
        for i in range(len(out_grads) - 1):
            ti = breaks[i + 1]
            dg = out_grads[i + 1] - out_grads[i]
            a = dg.mul_vec(normal)
            prev = offsets[i]
            offsets.append(tuple(pb - ti * ak for pb, ak in zip(prev, a)))
        return cls(n, normal, tuple(breaks), tuple(out_grads), tuple(offsets))
