"""Relaxed energy minimization over deformation/measure-field pairs.

The discrete relaxation alternates two blocks:

* measures: per mesh cell, the cheapest atomic measure with barycenter
  equal to the cell gradient of the deformation, solved as a small LP
  over the cell's working atom set and enriched by column generation
  (new atoms enter when their dual reduced cost is negative; each round
  prices every cell still enriching at once, its multistart golden
  searches in lockstep, each step's points in one batch of the energy);
* deformation: coordinate descent of the node values against the
  cellwise relaxed cost induced by the working atoms.

Both blocks decrease the energy, so the trace is monotone; the loop
stops when an outer round gains less than the tolerance.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ._search import golden_min_rows, lower_hull
from .errors import Infeasible, Stalled
from .matcore import Mat, frob_norm, quiet, sum_rows
from .measure import (AtomicMeasure, Mesh, YoungMeasureField, classify,
                      first_moment, pair)
from .meshdef import MeshDeformation, descend_nodes
from .testfn import evaluate_batch, orho_extend

REDUCED_COST_TOL = 1e-8
MOMENT_TOL = 1e-8
PIVOT_TOL = 1e-10
MAX_PIVOTS = 20000  # simplex pivots per phase before Stalled
PRICING_STARTS = 16  # multistart seeds per refine_atoms job


# -- dense two-phase simplex -------------------------------------------------


@dataclass(frozen=True)
class LpSolution:
    weights: tuple
    value: float
    dual_moment: tuple
    dual_mass: float
    residual: float


def _pivot(tab: np.ndarray, row: int, col: int):
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i] -= tab[i, col] * tab[row]


def _bland(tab: np.ndarray, basis: list, costs: np.ndarray, ncols: int):
    """Minimize costs over the tableau with Bland's anticycling rule.

    _pivot keeps every basic column an exact unit column (x / x = 1,
    t - t * 1 = 0, t - t * 0 = t), so a basic column's reduced cost is
    exactly 0 and the first column below -PIVOT_TOL is never basic."""
    m = tab.shape[0]
    for _ in range(MAX_PIVOTS):
        red = (costs[:ncols] - costs[basis] @ tab[:, :ncols]).tolist()
        for enter, r in enumerate(red):
            if r < -PIVOT_TOL:
                break
        else:
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
        _pivot(tab, leave, enter)
        basis[leave] = enter
    raise Stalled("simplex pivot budget exhausted")


def lp_weights(atoms, target: Mat, costs) -> LpSolution:
    """Cheapest convex combination of the atoms with the given barycenter.

    minimize sum c_i w_i  s.t.  sum w_i atom_i = target, sum w_i = 1,
    w >= 0.  Dense two-phase simplex; duals (dual_moment, dual_mass)
    price the moment and mass constraints so the reduced cost of a
    candidate matrix s is c(s) - dual_moment . s - dual_mass.
    """
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

    # phase 1: artificial variables form the starting basis
    sign = np.where(b < 0.0, -1.0, 1.0)
    tab = np.hstack([a_mat * sign[:, None], np.eye(m), (b * sign)[:, None]])
    basis = list(range(nk, nk + m))
    phase1costs = np.concatenate([np.zeros(nk), np.ones(m)])
    _bland(tab, basis, phase1costs, nk + m)
    infeas = float(phase1costs[basis] @ tab[:, -1])
    if infeas > 1e-9:
        raise Infeasible(f"barycenter outside the atom hull "
                         f"(phase-1 residual {infeas:.3e})")
    # drive leftover artificials out of the basis; a row with no atom
    # entry to pivot on is redundant and goes
    for i, bi in enumerate(basis):
        if bi >= nk:
            col = next((j for j in range(nk) if abs(tab[i, j]) > 1e-9), None)
            if col is not None:
                _pivot(tab, i, col)
                basis[i] = col
    rows = [i for i, bi in enumerate(basis) if bi < nk]
    tab, basis = tab[rows], [basis[i] for i in rows]

    atom_costs = np.array([cost_arr[i] for i in keep])
    _bland(tab, basis, atom_costs, nk)

    # the drive-out left atoms only in the basis
    weights = [0.0] * len(atoms)
    for i, bi in enumerate(basis):
        weights[keep[bi]] = max(0.0, float(tab[i, -1]))
    value = math.fsum(w * c for w, c in zip(weights, cost_arr) if w > 0.0)

    # duals from the final basis against the original constraint rows
    y, *_ = np.linalg.lstsq(a_mat[:, basis].T, atom_costs[basis], rcond=None)
    resid = a_mat @ np.array([weights[i] for i in keep]) - b
    return LpSolution(tuple(weights), value, tuple(y[:-1]), float(y[-1]),
                      float(np.max(np.abs(resid))))


# -- column generation -------------------------------------------------------


def refine_atoms(jobs, w):
    """Search, for each job (atoms, dual_moment, dual_mass, rng), for a
    matrix of finite energy w with negative reduced cost against its duals.

    Multistart local descent: the identity, the job's atoms, and random
    perturbations of them, each polished entrywise by golden section at
    shrinking radii.  The starts of all jobs move in lockstep: each
    (radius, entry) step is one golden_min_rows call, so every start
    takes the steps it would take alone, and its points are priced at
    once through the batch of w (evaluate_batch), in any dimension.
    Returns (matrix or None, best reduced cost found) per job, in order,
    the best being the job's first start that reaches its least cost."""
    n = math.isqrt(len(jobs[0][1]))
    identity = tuple(1.0 if i == j else 0.0 for i in range(n) for j in range(n))
    seeds, pi, mass, counts = [], [], [], []
    for atoms, dual_moment, dual_mass, rng in jobs:
        job = [identity] + [a.flat for a in atoms]
        k = 0
        while len(job) < PRICING_STARTS and atoms:
            base = atoms[k % len(atoms)].flat
            job.append(tuple(b + d for b, d in zip(base, rng.normal(0.0, 0.3, n * n))))
            k += 1
        counts.append(min(len(job), PRICING_STARTS))
        seeds += job[:PRICING_STARTS]
        pi += [dual_moment] * counts[-1]
        mass += [dual_mass] * counts[-1]
    pi, mass = np.array(pi, dtype=float), np.array(mass, dtype=float)  # a row a start

    def reduced(rows, x: np.ndarray) -> list:
        """w(s) - pi . s - dual_mass at each row s = x[i] against the duals
        of start rows[i], the dot product summed left to right where finite."""
        out = evaluate_batch(w, x.reshape(-1, n, n))
        finite = np.isfinite(out)
        own = rows[finite]
        with quiet():
            out[finite] = out[finite] - sum_rows(x[finite] * pi[own]) - mass[own]
        return out

    curs = np.array(seeds, dtype=float)  # one start a row
    vals = reduced(np.arange(len(curs)), curs).tolist()

    for radius in (0.6, 0.2, 0.05):
        for idx in range(n * n):
            def entry_obj(rows, xs):
                trials = curs[rows]
                trials[:, idx] = xs
                return reduced(rows, trials)

            x0s = curs[:, idx].tolist()
            xns, fns = golden_min_rows(entry_obj, [x - radius for x in x0s],
                                       [x + radius for x in x0s],
                                       iters=28, coarse=9)
            for r, (xn, fn) in enumerate(zip(xns, fns)):
                if fn < vals[r] - 1e-14:
                    curs[r, idx] = xn
                    vals[r] = fn

    found, lo = [], 0
    for count in counts:
        best_flat, best_val = None, math.inf
        for cur, val in zip(curs[lo:lo + count].tolist(), vals[lo:lo + count]):
            if val < best_val:
                best_val, best_flat = val, tuple(cur)
        found.append((Mat.from_flat(best_flat), best_val)
                     if best_flat is not None and best_val < -REDUCED_COST_TOL
                     else (None, best_val))
        lo += count
    return found


# -- the alternating solver --------------------------------------------------


@dataclass(frozen=True)
class RelaxProblem:
    """Energy, mesh, affine boundary data and growth exponents for the
    discrete relaxation.  The energy w must be +inf on singular matrices,
    as every builtin energy is: an atom may use a matrix exactly where w
    is finite (in the rho_cap ball, and of det > 0 when asked)."""

    w: object
    mesh: Mesh
    f: Mat
    p: float = 2.0
    q: float = 2.0
    rho_cap: float | None = None
    positive_det: bool = False
    atom_budget: int = 12
    max_outer: int = 30
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        n = self.f.n
        if self.mesh.dim != n:
            raise ValueError("mesh dimension does not match the boundary matrix")
        if self.atom_budget < n * n + 1:
            raise ValueError(f"atom budget must be at least {n * n + 1} "
                             f"for dimension {n}")
        if self.rho_cap is not None and self.rho_cap < math.sqrt(n) - 1e-12:
            raise ValueError("rho_cap below sqrt(n) admits no matrices")
        if not (self.p > 0.0 and self.q > 0.0):
            raise ValueError("growth exponents must be positive")


@dataclass(frozen=True)
class RelaxSolution:
    u_h: MeshDeformation
    field: YoungMeasureField
    energy: float
    iterations: int
    energy_trace: tuple
    moment_residual: float
    kkt_residual: float

    def to_json_dict(self) -> dict:
        return {
            "energy": self.energy,
            "iterations": self.iterations,
            "energy_trace": list(self.energy_trace),
            "moment_residual": self.moment_residual,
            "kkt_residual": self.kkt_residual,
            "u_h": self.u_h.to_json_dict(),
            "field": self.field.to_json_dict(),
        }


def _spanning_atoms(center: Mat, delta: float, w, rng) -> tuple:
    """center plus axis perturbations, and their costs; members of
    infinite cost get jittered, and left out when no jitter helps."""
    n = center.n
    atoms, costs = [], []
    cands = [center]
    for idx in range(n * n):
        for s in (+1.0, -1.0):
            flat = list(center.flat)
            flat[idx] += s * delta
            cands.append(Mat.from_flat(flat))
    for cand in cands:
        atom, cost = cand, w.evaluate(cand)
        for _ in range(12):
            if cost < math.inf:
                break
            atom = Mat.from_flat(tuple(x + e for x, e in
                                       zip(cand.flat, rng.normal(0.0, 0.1 * delta, n * n))))
            cost = w.evaluate(atom)
        if cost < math.inf:
            atoms.append(atom)
            costs.append(cost)
    return atoms, costs


def _initial_atoms(g: Mat, w, rng) -> tuple:
    """Finite-cost atoms around g whose hull holds g, their costs, and
    the cell LP over them."""
    n = g.n
    base = g if w.evaluate(g) < math.inf else Mat.identity(n)
    delta = max(0.5, 2.0 * max((abs(a - b) for a, b in
                                zip(g.flat, base.flat)), default=0.0))
    for _ in range(8):
        atoms, costs = _spanning_atoms(base, delta, w, rng)
        if len(atoms) >= n * n + 1:
            try:
                return atoms, costs, lp_weights(atoms, g, costs)
            except Infeasible:
                pass
        delta *= 2.0
    raise Stalled("no feasible starting atom set: the cell gradient cannot "
                  "be reached from admissible finite-cost atoms")


def _hull_eval(hull, x: float) -> float:
    if x < hull[0][0] - 1e-12 or x > hull[-1][0] + 1e-12:
        return math.inf
    lo = min(max(bisect_right(hull, x, key=lambda p: p[0]) - 1, 0), len(hull) - 2)
    (x1, y1), (x2, y2) = hull[lo], hull[lo + 1]
    t = min(1.0, max(0.0, (x - x1) / (x2 - x1)))
    return y1 + t * (y2 - y1)


def relax_solve(problem: RelaxProblem) -> RelaxSolution:
    """Alternating minimization; see the module docstring.

    The returned field satisfies the cellwise barycenter constraint to
    MOMENT_TOL and the final atoms price out to REDUCED_COST_TOL.
    """
    w = problem.w
    if problem.rho_cap is not None or problem.positive_det:
        w = orho_extend(w, problem.rho_cap or math.inf,
                        positive_det_only=problem.positive_det)
    mesh = problem.mesh
    vol = mesh.cell_volume
    ncells = mesh.n_cells
    u = MeshDeformation.affine(mesh, problem.f)

    seed_rng = np.random.default_rng([problem.seed, 0])
    grads = u.cell_gradients()
    starts = [_initial_atoms(grads[c], w, seed_rng) for c in range(ncells)]
    atoms = [a for a, _, _ in starts]
    costs = [c for _, c, _ in starts]
    sols = [s for _, _, s in starts]
    energy = vol * math.fsum(s.value for s in sols)
    trace = [energy]

    def add_atom(c: int, mat: Mat, sol: LpSolution) -> bool:
        for a in atoms[c]:
            if frob_norm(a - mat) < 1e-9:
                return False
        # at or over the budget, zero-weight atoms go, up to the excess
        drops = len(atoms[c]) + 1 - problem.atom_budget
        zero = [i for i, wgt in enumerate(sol.weights) if wgt <= 1e-14]
        if drops > 0 and not zero:
            return False
        for i in reversed(zero[:max(drops, 0)]):
            atoms[c].pop(i)
            costs[c].pop(i)
        atoms[c].append(mat)
        costs[c].append(w.evaluate(mat))
        return True

    outer = 0
    for it in range(1, problem.max_outer + 1):
        outer = it
        # (a) enrich the measures by column generation
        live = list(range(ncells))  # the cells still enriching, priced together
        for rnd in range(8):
            if not live:
                break
            priced = refine_atoms([(atoms[c], sols[c].dual_moment, sols[c].dual_mass,
                                    np.random.default_rng([problem.seed, it, rnd, c]))
                                   for c in live], w)
            still = []
            for c, (cand, _) in zip(live, priced):
                if cand is not None and add_atom(c, cand, sols[c]):
                    sols[c] = lp_weights(atoms[c], grads[c], costs[c])
                    still.append(c)
            live = still
        energy_a = vol * math.fsum(s.value for s in sols)
        trace.append(energy_a)

        # (b) move the deformation against the cellwise relaxed cost
        u = _move_nodes(u, atoms, costs, problem)
        grads = u.cell_gradients()
        sols = [lp_weights(atoms[c], grads[c], costs[c]) for c in range(ncells)]
        energy_b = vol * math.fsum(s.value for s in sols)
        trace.append(energy_b)

        if energy - energy_b < problem.tol and it >= 2:
            energy = energy_b
            break
        energy = energy_b

    # the pricing residual against the final deformation
    last_reduced = [red for _, red in refine_atoms(
        [(atoms[c], sols[c].dual_moment, sols[c].dual_mass,
          np.random.default_rng([problem.seed, problem.max_outer + 1, 0, c]))
         for c in range(ncells)], w)]

    measures = []
    for c in range(ncells):
        pairs = [(a, wgt) for a, wgt in zip(atoms[c], sols[c].weights)
                 if wgt > 1e-14]
        total = math.fsum(wgt for _, wgt in pairs)
        measures.append(AtomicMeasure((a, wgt / total) for a, wgt in pairs))
    field = YoungMeasureField(mesh, tuple(measures))

    moment_res = max(frob_norm(first_moment(measures[c]) - grads[c])
                     for c in range(ncells))
    if moment_res > MOMENT_TOL:
        raise Stalled(f"barycenter constraint violated by {moment_res:.3e}")
    pair_energy = vol * math.fsum(pair(measures[c], w) for c in range(ncells))
    if abs(pair_energy - energy) > 1e-9 * max(1.0, abs(energy)):
        raise Stalled("energy bookkeeping drifted from the measure pairing")
    report = classify(field, problem.p, problem.q)
    if not report.in_ypq or (problem.positive_det and not report.in_ypq_plus):
        raise Stalled("solution field left the admissible measure class")
    kkt = max(moment_res, max(0.0, -min(last_reduced)))
    return RelaxSolution(u, field, energy, outer, tuple(trace),
                         moment_res, kkt)


def _move_nodes(u: MeshDeformation, atoms, costs,
                problem: RelaxProblem) -> MeshDeformation:
    """Node descent against the relaxed cost of the working atoms: the
    lower hull of the atom costs on an interval, the cell LP value on a
    triangle."""
    mesh = u.mesh
    if mesh.dim == 1:
        # each cell holds two or more finite-cost atoms over 1e-9 apart
        hulls = [lower_hull((a.flat[0], cost) for a, cost in zip(atoms[i], costs[i]))
                 for i in range(mesh.n_cells)]
        span = max((hull[-1][0] - hull[0][0]) for hull in hulls)

        def cell_cost(c: int, g: Mat) -> float:
            return _hull_eval(hulls[c], g.flat[0])

        radius = max(1.0, span) / mesh.shape[0]
        sweeps, iters, coarse = 8, 40, 11
    else:
        def cell_cost(c: int, g: Mat) -> float:
            try:
                return lp_weights(atoms[c], g, costs[c]).value
            except Infeasible:
                return math.inf

        radius = 2.0 / max(mesh.shape)
        sweeps, iters, coarse = 2, 20, 7
    moved, _ = descend_nodes(u, cell_cost, radius, sweeps, problem.tol / 10.0,
                             iters, coarse)
    return moved
