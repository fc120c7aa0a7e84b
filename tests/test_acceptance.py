"""Acceptance suite: ten numbered end-to-end criteria.

Each test is one criterion; run with -v to get one pass/fail line per
criterion.  Tolerances and runtime budgets are asserted inside the
tests.  Randomness is seeded per test so the suite is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from ymrelax.certify import (
    PASS,
    check_det_limit,
    check_support_from_sequence,
    check_thm3,
    check_thm12,
)
from ymrelax.cli import main
from ymrelax.envelope import qinv_fe_upper, qinv_laminate_upper, qinv_oracle_1d
from ymrelax.laminate import GradientField, SequenceSpec, verify_generation
from ymrelax.matcore import Mat, RhoBall, invert, max_norm_pair
from ymrelax.measure import (
    Mesh,
    YoungMeasureField,
    hat_pushforward,
    homogenize,
    pair,
    support_in_ball,
    truncate,
)
from ymrelax.relax import RelaxProblem, relax_solve
from ymrelax.testfn import (
    builtin_energy,
    make_phi_rho,
    named_testfn,
    orho_extend,
)

from _sampling import random_in_ball, random_measure


def report(num, detail):
    print(f"ACCEPTANCE {num}: PASS ({detail})")


@pytest.fixture(scope="module")
def relaxed_double_well():
    """Criterion 7 solve, shared with criterion 9."""
    energy = builtin_energy("double_well_inv", {"gamma": 1e-3, "p": 2.0})
    problem = RelaxProblem(energy, Mesh.interval(32), Mat.scalar(0.0),
                           p=2.0, q=2.0, seed=0)
    t0 = time.monotonic()
    sol = relax_solve(problem)
    elapsed = time.monotonic() - t0
    oracle = qinv_oracle_1d(orho_extend(energy, 100.0), Mat.scalar(0.0),
                            100.0, grid=40000)
    return energy, sol, oracle, elapsed


def test_criterion_01_hat_relation():
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(200):
        n = (1, 2, 3)[i % 3]
        nu = random_measure(rng, n)
        battery = [named_testfn("frob_power", {"p": 1.0}),
                   named_testfn("det"),
                   make_phi_rho(2.0)]
        hat = hat_pushforward(nu)
        for f in battery:
            lhs = pair(hat, f)
            rhs = math.fsum(w * f.evaluate(invert(a)) for a, w in nu.atoms)
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(1, f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_truncation():
    rng = np.random.default_rng(22)
    t0 = time.monotonic()
    probes = [make_phi_rho(1.0), make_phi_rho(3.0)]
    for i in range(100):
        n = (1, 2)[i % 2]
        nu = random_measure(rng, n)
        small = truncate(nu, 1.0)
        assert support_in_ball(small, RhoBall(2.0))
        assert math.fsum(w for _, w in small.atoms) == pytest.approx(1.0)
        # once rho dominates every atom the truncation is the identity
        rho_dom = max(max_norm_pair(a) for a, _ in nu.atoms) + 0.1
        same = truncate(nu, rho_dom)
        for probe in probes:
            assert pair(same, probe) - pair(nu, probe) == 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, f"100 measures, exact identity at dominating rho, {elapsed:.2f}s")


def test_criterion_03_homogenization():
    rng = np.random.default_rng(33)
    worst = 0.0
    for i in range(50):
        n = (1, 2)[i % 2]
        mesh = Mesh.interval(8) if n == 1 else Mesh.square(2, 2)
        field = YoungMeasureField(
            mesh, tuple(random_measure(rng, n) for _ in range(mesh.n_cells)))
        battery = [named_testfn("frob_power", {"p": 1.0}),
                   named_testfn("frob_power", {"p": 2.0}),
                   named_testfn("det"),
                   make_phi_rho(2.0),
                   (named_testfn("quartic_well_1d") if n == 1
                    else named_testfn("frob_power", {"p": 3.0}))]
        hom = homogenize(field)
        vol = mesh.cell_volume  # uniform cells
        total = vol * mesh.n_cells
        for v in battery:
            lhs = pair(hom, v)
            rhs = math.fsum(vol / total * pair(nu, v)
                            for nu in field.measures)
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
    report(3, f"worst residual {worst:.2e} over 50 fields x 5 functions")


def test_criterion_04_generation_convergence():
    t0 = time.monotonic()
    ks = [4, 8, 16, 32, 64]
    spec = SequenceSpec((Mat.scalar(-1.0), Mat.scalar(1.0)), (0.5, 0.5), 64)
    rep = verify_generation(
        spec,
        [named_testfn("entry_power", {"exponent": 2}),
         named_testfn("entry_power", {"exponent": 1})],
        ["x1"], ks)
    by_v = {e.v_description: e for e in rep.entries}
    # the stated pair v = s^2, g = x: the midpoint quadrature integrates
    # it exactly, so the errors sit at float precision for every k and
    # convergence is certified through the exact flag
    squared = by_v["s^2 (1D)"]
    assert squared.exact and squared.decaying
    assert all(err <= 1e-13 for _, err in squared.errors)
    # the v = s companion has genuine 1/(4k) errors and fits the rate
    linear = by_v["s^1 (1D)"]
    assert linear.slope is not None and linear.slope <= -0.9
    err64 = dict(linear.errors)[64]
    assert err64 == pytest.approx(1.0 / 256.0, rel=1e-9)
    assert err64 < 1e-2  # the pairing limit is 0, scale of v on the field is 1
    # orientation variant: slopes {1, 2} keep det positive on every piece
    pos = verify_generation(
        SequenceSpec((Mat.scalar(1.0), Mat.scalar(2.0)), (0.5, 0.5), 8),
        [named_testfn("entry_power", {"exponent": 2})], ["one"], [2, 4, 8])
    assert pos.det_positive and pos.min_det == pytest.approx(1.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(4, f"slope {linear.slope:.3f}, k=64 err {err64:.2e}, "
              f"min det {pos.min_det}, {elapsed:.2f}s")


def test_criterion_05_envelope_oracle_vs_lamination():
    rng = np.random.default_rng(55)
    t0 = time.monotonic()
    rho_t = 2.0
    v = orho_extend(named_testfn("quartic_well_1d"), rho_t)
    worst = 0.0
    for f in rng.uniform(-1.5, 1.5, 20):
        lam = qinv_laminate_upper(v, Mat.scalar(f), rho_t)
        orc = qinv_oracle_1d(v, Mat.scalar(f), rho_t)
        worst = max(worst, abs(lam.value_upper - orc.value_exact))
    assert worst <= 1e-4
    zero = qinv_oracle_1d(v, Mat.scalar(0.0), rho_t)
    assert abs(zero.value_exact) <= 1e-6
    # convex integrand s^2 at F = 0: support constraint |s| >= 1/rho_t
    # forces the two-point measure at +-1/rho_t with value 1/rho_t^2
    v2 = orho_extend(named_testfn("entry_power", {"exponent": 2}), rho_t)
    sq = qinv_oracle_1d(v2, Mat.scalar(0.0), rho_t)
    assert sq.value_exact == pytest.approx(0.25, abs=1e-4)
    atoms = sorted((a.flat[0], w) for a, w in sq.witness.atoms)
    assert [s for s, _ in atoms] == pytest.approx([-0.5, 0.5], abs=1e-3)
    assert [w for _, w in atoms] == pytest.approx([0.5, 0.5], abs=1e-3)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(5, f"worst oracle/laminate gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_06_jensen_dirac_sanity():
    rng = np.random.default_rng(66)
    rho_t = 2.0
    pool_1d = [named_testfn("quartic_well_1d"),
               named_testfn("entry_power", {"exponent": 2}),
               named_testfn("frob_power", {"p": 1.5}),
               builtin_energy("double_well_inv", {"gamma": 0.1})]
    pool_2d = [named_testfn("frob_power", {"p": 2.0}), named_testfn("det")]
    checked = 0
    for i in range(100):
        if i % 5 == 4:
            v = orho_extend(pool_2d[i % 2], rho_t)
            f = random_in_ball(rng, 2, 1.8)
            estimates = [qinv_laminate_upper(v, f, rho_t, depth=1,
                                             angles=8).value_upper]
        else:
            v = orho_extend(pool_1d[i % 4], rho_t)
            s = rng.uniform(0.55, 1.9) * (1 if i % 2 else -1)
            f = Mat.scalar(s)
            estimates = [qinv_oracle_1d(v, f, rho_t).value_exact,
                         qinv_laminate_upper(v, f, rho_t).value_upper]
            if i < 5:
                estimates.append(
                    qinv_fe_upper(v, f, 8, rho_t, iters=40).value_upper)
        direct = v.evaluate(f)
        for est in estimates:
            assert est <= direct + 1e-9
            checked += 1
    report(6, f"{checked} estimates, all below the Dirac value")


def test_criterion_07_relaxation_vs_oracle(relaxed_double_well):
    energy, sol, oracle, elapsed = relaxed_double_well
    gap = abs(sol.energy - oracle.value_exact)
    assert gap <= 1e-3  # |Omega| = 1
    trace = sol.energy_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert sol.moment_residual <= 1e-8
    assert elapsed < 30.0
    report(7, f"oracle gap {gap:.2e}, {sol.iterations} iterations, "
              f"moment residual {sol.moment_residual:.2e}, {elapsed:.2f}s")


def test_criterion_08_support_and_positivity():
    t0 = time.monotonic()
    ks = [4, 8, 16, 32, 64]
    fields = [GradientField.from_slopes_1d([1.0 / k, 1.0], [0.5, 0.5])
              for k in ks]
    cert = check_support_from_sequence(fields, [0.5, 0.1], 2.0)
    assert cert.verdict == "inconclusive"  # the family is flagged
    for k, got in zip(ks, cert.details["q_integrals"]):
        closed = k ** 2 / 2.0
        assert got == pytest.approx(closed + 0.5, rel=1e-12)
    rel_dev = abs(cert.details["q_integrals"][-1] - 64 ** 2 / 2) / (64 ** 2 / 2)
    assert rel_dev < 0.01  # matches the closed form within 1% at large k
    lam = [SequenceSpec((Mat.scalar(1.0), Mat.scalar(2.0)), (0.5, 0.5), k)
           for k in (2, 4, 8)]
    from ymrelax.laminate import build_laminate_sequence
    det_cert = check_det_limit([build_laminate_sequence(s) for s in lam], 2.0)
    assert det_cert.verdict == PASS
    assert det_cert.details["det"] == pytest.approx(1.5)
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0
    report(8, f"flagged family rel dev {rel_dev:.2e}, "
              f"limit det {det_cert.details['det']}, {elapsed:.2f}s")


def test_criterion_09_certificate_coherence(relaxed_double_well):
    energy, sol, _, _ = relaxed_double_well
    assert check_thm12(sol.field, 2.0, 2.0).verdict == PASS
    rho = max(max_norm_pair(a) for nu in sol.field.measures
              for a, _ in nu.atoms) + 0.5
    rho_t = rho + 1.0
    battery = [orho_extend(energy, rho_t),
               orho_extend(named_testfn("quartic_well_1d"), rho_t)]
    cert = check_thm3(sol.field, sol.u_h, rho, battery, rho_t)
    assert cert.verdict == PASS
    status = {c.name: c.status for c in cert.checks}
    assert status["support_in_rho_ball"] == PASS          # condition (i)
    assert status["barycenter_matches_gradient"] == PASS  # condition (ii)
    assert status["jensen_inequality"] == PASS            # (iii), 1D exact
    # orientation-constrained solve satisfies the positive-det variant
    pos_energy = builtin_energy("inv_penalty", {"p": 2.0})
    pos_sol = relax_solve(RelaxProblem(
        pos_energy, Mesh.interval(8), Mat.scalar(1.0), p=2.0, q=2.0,
        positive_det=True, atom_budget=6, seed=0))
    assert check_thm12(pos_sol.field, 2.0, 2.0,
                       require_positive_det=True).verdict == PASS
    report(9, "thm1/thm2 classification and all thm3 conditions certified")


def test_criterion_10_determinism(tmp_path):
    scenarios = [
        ("envelope", {"energy": "double_well_inv", "F": 0.3, "rho_tilde": 2,
                      "method": "laminate"}),
        ("relax", {"energy": "double_well_inv",
                   "energy_params": {"gamma": 1e-3, "p": 2.0},
                   "F": 0.0, "mesh": {"dim": 1, "cells": 8},
                   "atom_budget": 6, "max_outer": 10}),
        ("generate", {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5],
                      "k_ladder": [2, 4, 8],
                      "boundary": {"F": 0.0, "layer_width": 0.125,
                                   "epsilon": 0.5}}),
    ]
    for name, cfg in scenarios:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            code = main([name, "--config", str(cfg_path), "--seed", "7",
                         "--out", str(out)])
            assert code == 0
            blobs.append((out / "result.json").read_bytes())
        assert blobs[0] == blobs[1]
    report(10, f"{len(scenarios)} scenarios byte-identical on rerun")
