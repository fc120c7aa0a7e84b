import itertools
import json
import math
import struct

import numpy as np
import pytest

import _reference
from _sampling import diag
import ymrelax.relax as relax
from ymrelax._search import lower_hull
from ymrelax.envelope import qinv_oracle_1d
from ymrelax.errors import Infeasible, Stalled
from ymrelax.matcore import Mat, RhoBall, det, frob_norm, in_rho_ball
from ymrelax.measure import Mesh, classify, first_moment
from ymrelax.relax import (
    RelaxProblem,
    _hull_eval,
    lp_weights,
    refine_atoms,
    relax_solve,
)
from ymrelax.testfn import (TestFn as MatrixFn, builtin_energy, named_testfn,
                            orho_extend)


def scalar_atoms(*vals):
    return [Mat.scalar(v) for v in vals]


class TestHullEval:
    def test_vertices_and_span_ends(self):
        hull = lower_hull([(-1.0, 1.0), (0.0, 0.0), (0.5, 0.1), (2.0, 3.0),
                           (1.0, 2.0)])
        assert hull == [(-1.0, 1.0), (0.0, 0.0), (0.5, 0.1), (2.0, 3.0)]
        assert [_hull_eval(hull, x) for x, _ in hull] == [y for _, y in hull]
        # within 1e-12 of the span the end value holds; beyond it, +inf
        assert _hull_eval(hull, -1.0 - 1e-12) == 1.0
        assert _hull_eval(hull, 2.0 + 1e-12) == 3.0
        assert _hull_eval(hull, -1.0 - 1e-11) == math.inf
        assert _hull_eval(hull, 2.0 + 1e-11) == math.inf


class TestLpWeights:
    def test_lever_rule(self):
        sol = lp_weights(scalar_atoms(0.0, 1.0, 2.0), Mat.scalar(1.0),
                         [0.0, 5.0, 0.0])
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert sol.weights == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)
        assert sol.residual <= 1e-12

    def test_symmetric_pair(self):
        sol = lp_weights(scalar_atoms(-1.0, 1.0), Mat.scalar(0.0), [1.0, 1.0])
        assert sol.value == pytest.approx(1.0)
        assert sol.weights == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_vertex_solution(self):
        sol = lp_weights(scalar_atoms(1.0, 2.0), Mat.scalar(2.0), [3.0, 1.0])
        assert sol.value == pytest.approx(1.0)
        assert sol.weights == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_infeasible_target(self):
        with pytest.raises(Infeasible):
            lp_weights(scalar_atoms(-1.0, 1.0), Mat.scalar(2.0), [1.0, 1.0])

    def test_infinite_costs_filtered(self):
        sol = lp_weights(scalar_atoms(-1.0, 0.5, 1.0), Mat.scalar(0.0),
                         [1.0, math.inf, 1.0])
        assert sol.value == pytest.approx(1.0)
        assert sol.weights[1] == 0.0

    def test_all_infinite_infeasible(self):
        with pytest.raises(Infeasible):
            lp_weights(scalar_atoms(-1.0, 1.0), Mat.scalar(0.0),
                       [math.inf, math.inf])

    def test_matrix_target(self):
        atoms = [Mat.identity(2), diag(3.0, 1.0), diag(1.0, 3.0)]
        target = diag(2.0, 2.0)
        sol = lp_weights(atoms, target, [0.0, 1.0, 1.0])
        mix = Mat.zero(2)
        for a, w in zip(atoms, sol.weights):
            mix = mix + w * a
        assert frob_norm(mix - target) <= 1e-10

    def test_against_vertex_enumeration(self, rng):
        # 1D oracle: optimal value over all feasible atom pairs / singletons
        for _ in range(25):
            vals = sorted(float(v) for v in rng.uniform(-2.0, 2.0, size=4))
            costs = [float(c) for c in rng.uniform(0.0, 3.0, size=4)]
            target = float(rng.uniform(vals[0], vals[3]))
            best = math.inf
            for i, j in itertools.combinations(range(4), 2):
                lo, hi = vals[i], vals[j]
                if not (min(lo, hi) - 1e-12 <= target <= max(lo, hi) + 1e-12):
                    continue
                lam = 0.5 if hi == lo else (target - lo) / (hi - lo)
                best = min(best, (1 - lam) * costs[i] + lam * costs[j])
            for i in range(4):
                if abs(vals[i] - target) <= 1e-12:
                    best = min(best, costs[i])
            sol = lp_weights(scalar_atoms(*vals), Mat.scalar(target), costs)
            assert sol.value == pytest.approx(best, abs=1e-9)

    def test_duals_certify_optimality(self):
        atoms = scalar_atoms(-1.0, -0.25, 0.5, 1.5)
        costs = [0.5, 2.0, 1.0, 0.25]
        sol = lp_weights(atoms, Mat.scalar(0.4), costs)
        pi, sigma = sol.dual_moment, sol.dual_mass
        for a, c in zip(atoms, costs):
            reduced = c - float(np.dot(pi, a.flat)) - sigma
            assert reduced >= -1e-9


def random_lp(rng, n):
    """Atoms, target and costs of a random LP: repeated atoms, atoms on a
    line (the 2D moment rows are then redundant), a target at an atom or
    outside the hull, and infinite costs all occur."""
    k = int(rng.integers(1, 8))
    line = n == 2 and rng.random() < 0.3
    flats = []
    for _ in range(k):
        if flats and rng.random() < 0.25:
            flats.append(flats[int(rng.integers(len(flats)))])
        elif line:
            t = float(rng.normal())
            flats.append((t, 0.0, 0.0, t))
        else:
            flats.append(tuple(rng.normal(0.0, 1.0, n * n).tolist()))
    atoms = [Mat.from_flat(f) for f in flats]
    draw = rng.random()
    if draw < 0.2:
        target = atoms[int(rng.integers(k))]
    elif draw < 0.3:
        target = Mat.from_flat(tuple(x + 5.0 for x in flats[0]))
    else:
        w = rng.dirichlet(np.ones(k))
        target = Mat.from_flat(tuple((w @ np.array(flats)).tolist()))
    costs = [math.inf if rng.random() < 0.15 else float(rng.uniform(-1.0, 3.0))
             for _ in range(k)]
    return atoms, target, costs


def lp_bits(solve, atoms, target, costs):
    """The solution as hex floats, or the exception's type and message."""
    try:
        s = solve(atoms, target, costs)
    except (Infeasible, Stalled) as e:
        return type(e), str(e)
    return ([x.hex() for x in s.weights], s.value.hex(),
            [float(x).hex() for x in s.dual_moment],
            float(s.dual_mass).hex(), s.residual.hex())


class TestLpWeightsAgainstReference:
    """Bland's rule prices each basic column at exactly 0 and the drive-out
    keeps the rows whose basic variable is an atom; the in-basis set and
    dropped-row list of _reference.lp_weights give the same bits."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        outcomes = set()
        for _ in range(400):
            case = random_lp(rng, n)
            got = lp_bits(lp_weights, *case)
            assert got == lp_bits(_reference.lp_weights, *case)
            outcomes.add(got[0] if isinstance(got[0], type) else "solved")
        assert outcomes == {"solved", Infeasible}


class TestRefineAtoms:
    def test_finds_negative_reduced_cost(self, rng):
        v = orho_extend(named_testfn("quartic_well_1d"), 3.0)
        # duals make the wells strictly attractive
        atom, reduced = refine_atoms(
            [([Mat.scalar(0.2)], np.zeros(1), 0.5, rng)], v)[0]
        assert reduced == pytest.approx(-0.5, abs=1e-6)
        assert atom is not None
        assert abs(atom.flat[0]) == pytest.approx(1.0, abs=1e-3)

    def test_none_when_everything_nonnegative(self, rng):
        v = orho_extend(named_testfn("quartic_well_1d"), 3.0)
        atom, reduced = refine_atoms(
            [([Mat.scalar(1.0)], np.zeros(1), -0.1, rng)], v)[0]
        assert atom is None
        assert reduced >= -1e-8


def _priced(out):
    """(matrix entries, reduced cost) of a refine_atoms result, as bits."""
    atom, reduced = out
    flat = None if atom is None else [struct.pack("<d", x) for x in atom.flat]
    return flat, struct.pack("<d", reduced)


_DW1 = builtin_energy("double_well_inv", {"gamma": 1e-3, "p": 2.0})
_SHEAR = builtin_energy("shear_well_2d")
_SHEAR_ATOMS = [Mat.identity(2), Mat.from_rows([[1.0, 1.0], [0.0, 1.0]]),
                Mat.from_rows([[1.2, 0.5], [0.1, 0.9]])]
_PRICING_CASES = {
    "1d_slope_batch": (_DW1, scalar_atoms(-0.8, 0.1, 1.3), RhoBall(math.inf)),
    "1d_evaluate_only": (MatrixFn(_DW1.evaluate, _DW1.growth),
                         scalar_atoms(-0.8, 0.1, 1.3), RhoBall(math.inf)),
    "1d_rho_cap_positive_det": (_DW1, scalar_atoms(0.6, 1.4),
                                RhoBall(1.7, True)),
    "2d": (_SHEAR, _SHEAR_ATOMS, RhoBall(math.inf)),
    "2d_evaluate_only": (MatrixFn(_SHEAR.evaluate, _SHEAR.growth), _SHEAR_ATOMS,
                         RhoBall(math.inf)),
    "2d_coupled_rho_cap_positive_det": (
        builtin_energy("shear_well_2d", {"gamma": 0.1, "p": 2.0}), _SHEAR_ATOMS,
        RhoBall(2.5, True)),
}


def _confined(w, ball):
    """w with +inf off the ball, as relax_solve confines its energy: not
    at all on K_inf, where w is +inf at the singular matrices already."""
    if ball == RhoBall(math.inf):
        return w
    return orho_extend(w, ball.rho, positive_det_only=ball.positive_det_only)


class TestLockstepPricing:
    """refine_atoms moves its starts in lockstep and prices each step's
    points in one batch of the confined energy; each start must take
    the steps the sequential multistart loop takes, with its own ball
    test, so the returned (matrix, reduced cost) is the same bit for
    bit."""

    @pytest.mark.parametrize("case", sorted(_PRICING_CASES))
    @pytest.mark.parametrize("duals", [(0.0, 0.0), (0.3, 0.05), (-0.7, 0.4)])
    def test_matches_sequential_loop(self, case, duals):
        w, atoms, ball = _PRICING_CASES[case]
        assert (w.batch is None) == case.endswith("_evaluate_only")
        n = atoms[0].n
        pi = np.full(n * n, duals[0])
        for seed in (1, 2):
            got = refine_atoms([(atoms, tuple(pi), duals[1],
                                 np.random.default_rng(seed))], _confined(w, ball))[0]
            ref = _reference.refine_atoms(atoms, tuple(pi), duals[1], w, ball,
                                          np.random.default_rng(seed))
            assert _priced(got) == _priced(ref)

    def test_found_and_not_found_both_covered(self):
        w, atoms, _ = _PRICING_CASES["1d_slope_batch"]
        found, _ = refine_atoms([(atoms, (0.0,), 0.4, np.random.default_rng(1))], w)[0]
        none, _ = refine_atoms([(atoms, (0.0,), -0.1, np.random.default_rng(1))], w)[0]
        assert found is not None and none is None

    @pytest.mark.parametrize("case", ["1d_slope_batch", "2d"])
    def test_jobs_priced_together_match_each_alone(self, case):
        # one call prices jobs of different duals and atom counts: one
        # with a single atom, one with none (the identity start alone)
        w, atoms, ball = _PRICING_CASES[case]
        n = atoms[0].n
        specs = [(atoms, 0.3, 0.05), (atoms[:1], -0.7, 0.4), ([], 0.2, -0.3),
                 (atoms[1:], 0.0, 0.0)]

        def jobs():
            return [(a, tuple(np.full(n * n, p)), m, np.random.default_rng(j + 1))
                    for j, (a, p, m) in enumerate(specs)]

        got = [_priced(out) for out in refine_atoms(jobs(), _confined(w, ball))]
        ref = [_priced(_reference.refine_atoms(a, pi, m, w, ball, rng))
               for a, pi, m, rng in jobs()]
        assert got == ref
        assert {flat is None for flat, _ in got} == {False, True}
        back = refine_atoms(jobs()[::-1], _confined(w, ball))
        assert [_priced(out) for out in back] == got[::-1]


class TestAdmissibleSet:
    """The matrices a relax atom may use: those where the energy,
    confined to the rho_cap ball (unbounded without one) and to det > 0
    when asked, is finite."""

    def test_cap_and_orientation(self):
        w = builtin_energy("double_well_inv")
        assert _confined(w, RhoBall(math.inf)) is w
        assert w.evaluate(Mat.scalar(5.0)) < math.inf
        assert w.evaluate(Mat.scalar(0.0)) == math.inf
        assert _confined(w, RhoBall(2.0)).evaluate(Mat.scalar(3.0)) == math.inf
        assert _confined(w, RhoBall(math.inf, True)).evaluate(
            Mat.scalar(-1.0)) == math.inf
        assert _confined(w, RhoBall(2.0, True)).evaluate(Mat.scalar(1.0)) == 0.0

    def test_energy_finite_on_singular_matrices_stalls(self):
        # |s|^2 is finite at 0, so the relax may place atoms at singular
        # matrices; the field then leaves Y^{p,q} and the guard stops it
        w = named_testfn("frob_power", {"p": 2.0})
        with pytest.raises(Stalled, match="left the admissible measure class"):
            relax_solve(RelaxProblem(w, Mesh.interval(2), Mat.scalar(0.0),
                                     seed=1))


class TestRelaxProblem:
    def test_validation(self):
        w = builtin_energy("double_well_inv", {})
        with pytest.raises(ValueError):
            RelaxProblem(w, Mesh.interval(4), Mat.scalar(0.0), atom_budget=1)
        with pytest.raises(ValueError):
            RelaxProblem(w, Mesh.interval(4), Mat.scalar(0.0), rho_cap=0.5)
        with pytest.raises(ValueError):
            RelaxProblem(w, Mesh.interval(4), Mat.identity(2))
        with pytest.raises(ValueError):
            RelaxProblem(w, Mesh.interval(4), Mat.scalar(0.0), p=-1.0)


class TestRelaxSolve:
    def test_double_well_reaches_hull(self):
        w = builtin_energy("double_well_inv", {"wells": [-1.0, 1.0],
                                               "gamma": 0.0})
        sol = relax_solve(RelaxProblem(w, Mesh.interval(8), Mat.scalar(0.0),
                                       seed=0))
        assert sol.energy <= 1e-6
        assert sol.moment_residual <= 1e-8
        trace = sol.energy_trace
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        rep = classify(sol.field, 2.0, 2.0)
        assert rep.in_ypq

    def test_oracle_agreement(self):
        w = builtin_energy("double_well_inv", {"wells": [-1.0, 1.0],
                                               "gamma": 1e-3})
        sol = relax_solve(RelaxProblem(w, Mesh.interval(8), Mat.scalar(0.0),
                                       seed=0))
        v = orho_extend(w, 50.0)
        ora = qinv_oracle_1d(v, Mat.scalar(0.0), 50.0, grid=20000)
        assert sol.energy == pytest.approx(ora.value_upper, abs=1e-3)

    def test_positive_det_constraint(self):
        w = builtin_energy("inv_penalty", {"p": 2.0})
        sol = relax_solve(RelaxProblem(w, Mesh.interval(4), Mat.scalar(1.0),
                                       positive_det=True, seed=0))
        # W is convex on the orientation-preserving scalars: Dirac at 1
        assert sol.energy == pytest.approx(2.0, abs=1e-6)
        rep = classify(sol.field, 2.0, 2.0)
        assert rep.in_ypq_plus
        for nu in sol.field.measures:
            for a, wgt in nu.atoms:
                assert det(a) > 0.0

    def test_barycenters_match_gradients(self):
        w = builtin_energy("double_well_inv", {"gamma": 0.0})
        sol = relax_solve(RelaxProblem(w, Mesh.interval(8), Mat.scalar(0.3),
                                       seed=1))
        for nu, g in zip(sol.field.measures, sol.u_h.cell_gradients()):
            assert frob_norm(first_moment(nu) - g) <= 1e-8

    def test_deterministic_given_seed(self):
        w = builtin_energy("double_well_inv", {"gamma": 1e-3})
        a = relax_solve(RelaxProblem(w, Mesh.interval(8), Mat.scalar(0.0),
                                     seed=7))
        b = relax_solve(RelaxProblem(w, Mesh.interval(8), Mat.scalar(0.0),
                                     seed=7))
        assert a.energy == b.energy
        assert a.energy_trace == b.energy_trace

    def test_2d_shear_well(self):
        w = builtin_energy("shear_well_2d", {"kappa": 1.0, "gamma": 0.0})
        mid = Mat.from_rows([[1.0, 0.5], [0.0, 1.0]])
        sol = relax_solve(RelaxProblem(w, Mesh.square(2, 2), mid,
                                       atom_budget=8, max_outer=12, seed=0))
        assert sol.energy <= 1e-4
        assert sol.moment_residual <= 1e-8

    @pytest.mark.parametrize("cells, f, cap", [(2, 1.0, 1.2), (1, -0.1, 1.05)])
    def test_tight_cap_widens_the_start(self, cells, f, cap):
        # most spanning atoms leave the cap ball: the start jitters them
        # (a jittered atom lands inside at -0.1, which is itself outside
        # K_1.05, so the start spans from the identity) and doubles its
        # spread before the cell LP holds
        w = builtin_energy("double_well_inv")
        sol = relax_solve(RelaxProblem(w, Mesh.interval(cells), Mat.scalar(f),
                                       rho_cap=cap))
        assert sol.energy <= 1e-9
        assert sol.moment_residual <= 1e-8
        for nu in sol.field.measures:
            assert all(in_rho_ball(a, RhoBall(cap)) for a, _ in nu.atoms)

    @pytest.mark.parametrize("f, cap, positive_det",
                             [(1.0, 1.2, True), (1.1, 1.05, False)])
    def test_unreachable_start_stalls(self, f, cap, positive_det):
        # with det > 0, the centre 1 is the only spanning atom in the
        # 1.2-ball at every spread; 1.1 lies outside the hull of K_1.05,
        # so every start LP is infeasible
        w = builtin_energy("double_well_inv")
        with pytest.raises(Stalled, match="no feasible starting atom set"):
            relax_solve(RelaxProblem(w, Mesh.interval(2), Mat.scalar(f),
                                     rho_cap=cap, positive_det=positive_det))

    def test_atom_budget_bounds_the_working_set(self, monkeypatch):
        # the 2D start spans 2n^2 + 1 = 9 atoms against a budget of 8:
        # after a cell's first enrichment its set stays within budget
        sizes = {}
        priced = relax.refine_atoms

        def recording(jobs, w):
            for atoms, *_ in jobs:
                sizes.setdefault(id(atoms), []).append(len(atoms))
            return priced(jobs, w)

        monkeypatch.setattr(relax, "refine_atoms", recording)
        w = builtin_energy("shear_well_2d", {"kappa": 1.0, "gamma": 0.0})
        mid = Mat.from_rows([[1.0, 0.5], [0.0, 1.0]])
        relax_solve(RelaxProblem(w, Mesh.square(1, 1), mid, atom_budget=8,
                                 max_outer=1, seed=1))
        assert sizes and all(seq[0] == 9 for seq in sizes.values())
        assert all(max(seq[1:]) <= 8 for seq in sizes.values())

    @pytest.mark.parametrize("problem", [
        RelaxProblem(builtin_energy("double_well_inv", {"gamma": 1e-3, "p": 2.0}),
                     Mesh.interval(4), Mat.scalar(0.0), seed=1),
        RelaxProblem(builtin_energy("shear_well_2d", {"kappa": 1.0, "gamma": 0.0}),
                     Mesh.square(2, 2), Mat.from_rows([[1.0, 0.5], [0.0, 1.0]]),
                     atom_budget=8, max_outer=1, seed=1),
    ], ids=["1d_double_well", "2d_shear"])
    def test_pricing_all_cells_at_once_is_exact(self, monkeypatch, problem):
        # a cell's pricing reads only its own atoms, duals and generator,
        # so one call a round over every cell solves as a call a cell
        together = relax_solve(problem).to_json_dict()
        priced = relax.refine_atoms
        monkeypatch.setattr(relax, "refine_atoms",
                            lambda jobs, w: [priced([job], w)[0] for job in jobs])
        alone = relax_solve(problem).to_json_dict()
        assert json.dumps(alone) == json.dumps(together)

    def test_json_dict(self):
        w = builtin_energy("double_well_inv", {"gamma": 0.0})
        sol = relax_solve(RelaxProblem(w, Mesh.interval(4), Mat.scalar(0.0),
                                       seed=0))
        d = sol.to_json_dict()
        assert set(d) >= {"energy", "iterations", "energy_trace",
                          "moment_residual", "kkt_residual"}
