"""The benchmark workloads: set-up, the timed pipeline, output checks.

Each workload builds its problems or configs in ``setup`` (this is what
``setup_s`` times, imports included), runs one round of its pipeline in
``execute`` through a ``Round`` that times every operation, and verifies
the round's outputs in ``check``.  A round is kept to a few seconds so
that one run holds many of them.  Checks reuse the tolerances of the
test suite (criteria 6, 7, 9 and 10 and the 2D shear relax test) and
loosen none of them; a miss marks the operation as failed.

The workload seed goes to ``RelaxProblem.seed`` and to the CLI's
``--seed``; the problem data are fixed.  ymrelax is imported in
``setup``, so that importing this file costs nothing.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
import shutil
import time
from types import SimpleNamespace

# Differences below this are round-off: reordered arithmetic moves the
# gaps seen here by ~1e-14, every tolerance the suite asserts is 1e-4 or
# looser, and a metric floored here is never 0.
GAP_FLOOR = 1e-9

# Tolerances of the test suite, by the test that asserts them.
ORACLE_GAP_TOL = 1e-3      # criterion 7
MOMENT_TOL = 1e-8          # criterion 7, TestRelax.test_2d_shear_well
SHEAR_ENERGY_TOL = 1e-4    # TestRelax.test_2d_shear_well
TRACE_SLACK = 1e-12        # criterion 7, monotone energy trace
REPRODUCE_TOL = 1e-9       # envelope witnesses reproduce their value
DIRAC_SLACK = 1e-9         # criterion 6, estimate <= Dirac value
GLUE_TOL = 1e-12           # generate boundary_mismatch (test_cli)
DET_LIMIT = 1.5            # criterion 8, laminate of slopes 1 and 2
DET_RTOL = 1e-6            # pytest.approx default
WITNESS_ATOM_TOL = 1e-3    # criterion 5, the two-atom witness at 0


def _import_ymrelax() -> SimpleNamespace:
    names = ("certify", "cli", "envelope", "matcore", "measure", "meshdef",
             "relax", "testfn")
    return SimpleNamespace(**{n: importlib.import_module(f"ymrelax.{n}")
                              for n in names})


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


class Round:
    """One execution of a workload's pipeline: timed operations, their
    outputs, the output-check verdicts and the bytes hashed for the
    determinism check."""

    def __init__(self):
        self.ops = []  # [name, kind, seconds, failure reason or None]
        self.outputs = {}
        self.blobs = {}  # op name -> canonical bytes of its result
        self.gaps = []
        self.cert_checks = []  # statuses of every certificate check
        self.facts = {}  # deterministic counts read from the outputs
        self.wall = 0.0  # wall and cpu are set by the runner
        self.cpu = 0.0

    def run(self, kind: str, name: str, fn, *args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # counted as a failed operation
            self.ops.append([name, kind, time.perf_counter() - t0,
                             f"{type(exc).__name__}: {exc}"])
            return None
        self.ops.append([name, kind, time.perf_counter() - t0, None])
        self.outputs[name] = out
        return out

    def skip(self, kind: str, name: str, reason: str):
        self.ops.append([name, kind, 0.0, reason])

    def fail(self, name: str, reason: str):
        for op in self.ops:
            if op[0] == name and op[3] is None:
                op[3] = reason

    def seconds(self, kind: str) -> float:
        return math.fsum(op[2] for op in self.ops if op[1] == kind)

    def failures(self) -> list:
        return [f"{op[0]}: {op[3]}" for op in self.ops if op[3] is not None]

    def add_certificate(self, checks):
        self.cert_checks.extend(c["status"] for c in checks)


def _no_wrap(fn, label):
    return fn


# -- the two relax workloads --------------------------------------------------


class _RelaxWorkload:
    """relax_solve, then check_thm3 and check_thm12 on its solution."""

    energy_name = ""

    def setup(self, seed: int, workdir: str):
        self.yr = _import_ymrelax()
        self.seed = seed
        self.energy = self.build_energy()
        self.problem = self.build_problem()

    def prepare(self):
        """Reference values for the checks; computed once, untimed."""
        self.reference = 0.0

    def battery_cores(self) -> list:
        raise NotImplementedError

    def execute(self, rnd: Round, wrap=_no_wrap):
        yr = self.yr
        problem = dataclasses.replace(
            self.problem, w=wrap(self.energy, self.energy_name))
        sol = rnd.run("solve", "relax_solve", yr.relax.relax_solve, problem)
        if sol is None:
            rnd.skip("certify", "check_thm3", "relax_solve failed")
            rnd.skip("certify", "check_thm12", "relax_solve failed")
            return
        # criterion 9: the support radius half a unit past the largest
        # atom, the envelope ball one unit past that
        rho = max(yr.matcore.max_norm_pair(a) for nu in sol.field.measures
                  for a, _ in nu.atoms) + 0.5
        rho_t = rho + 1.0
        battery = [wrap(yr.testfn.orho_extend(core, rho_t), label)
                   for label, core in self.battery_cores()]
        rnd.run("certify", "check_thm3", yr.certify.check_thm3,
                sol.field, sol.u_h, rho, battery, rho_t)
        rnd.run("certify", "check_thm12", yr.certify.check_thm12,
                sol.field, 2.0, 2.0)

    def check_solution(self, rnd: Round, sol, gap: float):
        raise NotImplementedError

    def check(self, rnd: Round):
        sol = rnd.outputs.get("relax_solve")
        if sol is not None:
            rnd.blobs["relax_solve"] = _canonical(sol.to_json_dict())
            gap = abs(sol.energy - self.reference)
            rnd.gaps.append(gap)
            if not sol.moment_residual <= MOMENT_TOL:
                rnd.fail("relax_solve", f"moment residual "
                         f"{sol.moment_residual:.3e} > {MOMENT_TOL:g}")
            self.check_solution(rnd, sol, gap)
        for name in ("check_thm3", "check_thm12"):
            cert = rnd.outputs.get(name)
            if cert is None:
                continue
            data = cert.to_json_dict()
            rnd.blobs[name] = _canonical(data)
            rnd.add_certificate(data["checks"])
            if name == "check_thm12" and cert.verdict != "pass":
                rnd.fail(name, f"verdict {cert.verdict}")


class Relax1D(_RelaxWorkload):
    """Criteria 7 and 9: the double well on 4 cells against the 1D oracle."""

    energy_name = "double_well_inv"

    def build_energy(self):
        return self.yr.testfn.builtin_energy("double_well_inv",
                                             {"gamma": 1e-3, "p": 2.0})

    def build_problem(self):
        m = self.yr.measure
        return self.yr.relax.RelaxProblem(
            self.energy, m.Mesh.interval(4), self.yr.matcore.Mat.scalar(0.0),
            p=2.0, q=2.0, seed=self.seed)

    def prepare(self):
        # the fine-grid oracle of criterion 7
        yr = self.yr
        est = yr.envelope.qinv_oracle_1d(
            yr.testfn.orho_extend(self.energy, 100.0),
            yr.matcore.Mat.scalar(0.0), 100.0, grid=40000)
        self.reference = est.value_exact

    def battery_cores(self):
        return [("double_well_inv", self.energy),
                ("quartic_well_1d",
                 self.yr.testfn.named_testfn("quartic_well_1d"))]

    def check_solution(self, rnd, sol, gap):
        if not gap <= ORACLE_GAP_TOL:
            rnd.fail("relax_solve", f"oracle gap {gap:.3e} > {ORACLE_GAP_TOL:g}")
        trace = sol.energy_trace
        if not all(b <= a + TRACE_SLACK for a, b in zip(trace, trace[1:])):
            rnd.fail("relax_solve", "energy trace is not monotone")

    def check(self, rnd):
        super().check(rnd)
        thm3 = rnd.outputs.get("check_thm3")
        if thm3 is not None and thm3.verdict != "pass":
            rnd.fail("check_thm3", f"verdict {thm3.verdict}")


class Relax2DShear(_RelaxWorkload):
    """The 2x2 shear-well relax of TestRelax.test_2d_shear_well."""

    energy_name = "shear_well_2d"

    def build_energy(self):
        return self.yr.testfn.builtin_energy("shear_well_2d",
                                             {"kappa": 1.0, "gamma": 0.0})

    def build_problem(self):
        mid = self.yr.matcore.Mat.from_rows([[1.0, 0.5], [0.0, 1.0]])
        return self.yr.relax.RelaxProblem(
            self.energy, self.yr.measure.Mesh.square(2, 2), mid,
            atom_budget=8, max_outer=12, seed=self.seed)

    def battery_cores(self):
        return [("shear_well_2d", self.energy),
                ("frob_power",
                 self.yr.testfn.named_testfn("frob_power", {"p": 2.0}))]

    def check_solution(self, rnd, sol, gap):
        # the reference is the closed-form 0 of the rank-one-connected wells
        if not sol.energy <= SHEAR_ENERGY_TOL:
            rnd.fail("relax_solve", f"energy {sol.energy:.3e} > "
                     f"{SHEAR_ENERGY_TOL:g}")


# -- the CLI workload ---------------------------------------------------------


_I2 = [[1.0, 0.0], [0.0, 1.0]]
_SHEAR = [[1.0, 1.0], [0.0, 1.0]]
_MID = [[1.0, 0.5], [0.0, 1.0]]
_SHEAR_W = {"energy": "shear_well_2d",
            "energy_params": {"kappa": 1.0, "gamma": 0.0}}
_DOUBLE_W = {"energy": "double_well_inv",
             "energy_params": {"gamma": 0.0, "p": 2.0}}

# (name, command, kind, config).  The README scenarios, scaled up to a
# round of about 3 s on a 2-vCPU host.  Every
# envelope is of a gamma-0 well energy whose constrained envelope at the
# barycenter is the closed-form 0.
CLI_SCENARIOS = (
    ("envelope_laminate_2d", "envelope", "solve",
     {**_SHEAR_W, "F": _MID, "rho_tilde": 3, "method": "laminate",
      "depth": 2, "angles": 8}),
    ("envelope_fe_2d", "envelope", "solve",
     {**_SHEAR_W, "F": _MID, "rho_tilde": 3, "method": "fe",
      "mesh_cells": 2}),
    ("envelope_fe_1d", "envelope", "solve",
     {**_DOUBLE_W, "F": 0.0, "rho_tilde": 2, "method": "fe",
      "mesh_cells": 32}),
    ("envelope_oracle1d", "envelope", "solve",
     {**_DOUBLE_W, "F": 0.0, "rho_tilde": 2, "method": "oracle1d"}),
    ("generate_1d_glue", "generate", "solve",
     {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5],
      "k_ladder": [4, 8, 16, 32, 64, 128, 256],
      "boundary": {"F": 0.0, "layer_width": 0.125, "epsilon": 0.5}}),
    ("generate_2d", "generate", "solve",
     {"atoms": [_I2, _SHEAR], "weights": [0.5, 0.5],
      "k_ladder": [2, 4, 8, 16, 32, 64]}),
    ("certify_thm1", "certify", "certify",
     {"theorem": "thm1", "p": 2, "q": 2,
      "field": {"mesh": {"dim": 1, "cells": 32768},
                "constant_measure": {"atoms": [{"mat": [1.0], "w": 0.5},
                                               {"mat": [-1.0], "w": 0.5}]}}}),
    ("certify_det_limit", "certify", "certify",
     {"theorem": "det_limit", "p": 2,
      "laminate": {"atoms": [1.0, 2.0], "weights": [0.5, 0.5]},
      "k_ladder": [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]}),
)


class EnvelopeCli:
    """The CLI scenarios run through ymrelax.cli.main on written configs.
    Each round writes its artifacts to a fresh directory, removed once
    checked."""

    def setup(self, seed: int, workdir: str):
        self.yr = _import_ymrelax()
        self.seed = seed
        self.workdir = workdir
        cfg_dir = os.path.join(workdir, "configs")
        os.makedirs(cfg_dir, exist_ok=True)
        self.configs = {}
        for name, _, _, cfg in CLI_SCENARIOS:
            path = os.path.join(cfg_dir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            self.configs[name] = path
        self.rounds = 0

    def prepare(self):
        pass

    def execute(self, rnd: Round, wrap=_no_wrap):
        # wrap is unused: the tracer wraps the TestFns the CLI builds
        self.rounds += 1
        self.out_root = os.path.join(self.workdir, f"round-{self.rounds}")
        for name, command, kind, _ in CLI_SCENARIOS:
            argv = [command, "--config", self.configs[name],
                    "--seed", str(self.seed),
                    "--out", os.path.join(self.out_root, name)]
            code = rnd.run(kind, name, self.yr.cli.main, argv)
            if code is not None and code != 0:
                rnd.fail(name, f"exit code {code}")

    def check(self, rnd: Round):
        total = 0
        for name, command, _, cfg in CLI_SCENARIOS:
            out = os.path.join(self.out_root, name)
            if rnd.outputs.get(name) != 0:
                continue
            for entry in os.scandir(out):
                total += entry.stat().st_size
            try:
                with open(os.path.join(out, "result.json"), "rb") as fh:
                    blob = fh.read()
                result = json.loads(blob)
            except (OSError, ValueError) as exc:
                rnd.fail(name, f"result.json unreadable: {exc}")
                continue
            rnd.blobs[name] = blob
            if result.get("schema") != 1 or result.get("seed") != self.seed:
                rnd.fail(name, "result.json schema or seed mismatch")
                continue
            try:
                reason = getattr(self, f"_check_{command}")(cfg, result, rnd)
            except (KeyError, TypeError, ValueError) as exc:
                reason = f"malformed result: {type(exc).__name__}: {exc}"
            if reason:
                rnd.fail(name, reason)
        rnd.facts["cli.artifact_bytes"] = total
        shutil.rmtree(self.out_root, ignore_errors=True)

    def _check_envelope(self, cfg, result, rnd):
        yr = self.yr
        est = result["estimate"]
        value = est["value_upper"]
        if not isinstance(value, float) or not math.isfinite(value):
            return f"value_upper {value!r} is not a finite number"
        energy = yr.testfn.builtin_energy(cfg["energy"], cfg["energy_params"])
        v = yr.testfn.orho_extend(energy, float(cfg["rho_tilde"]))
        witness = est["witness"]
        if witness["kind"] == "measure":
            got = yr.measure.pair(
                yr.measure.AtomicMeasure.from_json_dict(witness["data"]), v)
        elif witness["kind"] == "deformation":
            got = yr.meshdef.MeshDeformation.from_json_dict(
                witness["data"]).energy(v)
        else:
            return f"unexpected witness kind {witness['kind']!r}"
        if not abs(got - value) <= REPRODUCE_TOL:
            return f"witness energy {got!r} does not reproduce {value!r}"
        dirac = v.evaluate(yr.matcore.Mat.coerce(cfg["F"]))
        if not value <= dirac + DIRAC_SLACK:
            return f"value_upper {value!r} above the Dirac value {dirac!r}"
        if value < -GAP_FLOOR:
            return f"value_upper {value!r} below the exact envelope 0"
        if cfg["method"] == "oracle1d":
            # README: value 0, two atoms at -1 and 1 with weight 1/2 each
            atoms = sorted((a["mat"][0], a["w"])
                           for a in witness["data"]["atoms"])
            off = [max(abs(s - t), abs(w - 0.5))
                   for (s, w), t in zip(atoms, (-1.0, 1.0))]
            if est["value_exact"] != value or len(atoms) != 2 or \
                    max(off) > WITNESS_ATOM_TOL:
                return f"oracle witness {atoms} is not the +-1 split"
        rnd.gaps.append(abs(value))
        return None

    def _check_generate(self, cfg, result, rnd):
        report = result["report"]
        if report["k_ladder"] != sorted(set(cfg["k_ladder"])):
            return "report k_ladder differs from the config"
        if not all(e["decaying"] for e in report["entries"]):
            return "a generation error does not decay"
        glue = result["glue"]
        if "boundary" in cfg:
            if glue is None or not abs(glue["boundary_mismatch"]) <= GLUE_TOL:
                return "boundary glue leaves a mismatch"
        elif glue is not None:
            return "glue report without a boundary"
        return None

    def _check_certify(self, cfg, result, rnd):
        cert = result["certificate"]
        rnd.add_certificate(cert["checks"])
        if cert["verdict"] != "pass":
            return f"verdict {cert['verdict']}"
        if cfg["theorem"] == "det_limit" and \
                not abs(cert["details"]["det"] - DET_LIMIT) <= DET_RTOL * DET_LIMIT:
            return f"limit determinant {cert['details']['det']!r} != 1.5"
        return None


WORKLOADS = {
    "relax_1d_dw4": Relax1D,
    "relax_2d_shear": Relax2DShear,
    "envelope_cli": EnvelopeCli,
}
