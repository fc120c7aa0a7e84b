"""Command line runner: envelope, relax, generate, certify scenarios.

Scenarios are JSON configs validated strictly (unknown keys rejected)
before any artifact is written.  Each run emits result.json (schema 1,
deterministic for a fixed seed: sorted keys, no timestamps, infinities
as the string "infinite"), CSV dumps of witnesses/fields, and a
manifest.json carrying versions, seed and timings.  Exit codes: 0 ok,
1 domain error, 2 config error.  TOOL_LOG selects error/info/debug.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, ToolError
from .laminate import (
    WEIGHT_FUNCTIONS,
    BoundaryDatum,
    GradientField,
    SequenceSpec,
    boundary_glue,
    build_laminate_sequence,
    verify_generation,
)
from .matcore import Mat
from .measure import AtomicMeasure, Mesh, YoungMeasureField
from .meshdef import MeshDeformation
from .testfn import builtin_energy, named_testfn, orho_extend

logger = logging.getLogger("ymrelax")

_METHODS = ("oracle1d", "laminate", "fe")
_THEOREMS = ("thm1", "thm2", "thm3", "support", "det_limit")


def _setup_logging():
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    name = os.environ.get("TOOL_LOG", "error")
    if name not in levels:
        raise ConfigError(f"TOOL_LOG must be one of {sorted(levels)}, "
                          f"got {name!r}")
    logging.basicConfig(format="%(name)s %(levelname)s %(message)s")
    # level lives on the package logger so it works even when the root
    # logger was already configured by the host process
    logger.setLevel(levels[name])


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in the config")
    return value


def _expect(cfg: dict, where: str, required: dict, optional: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(cfg) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {unknown}")
    missing = sorted(k for k in required if k not in cfg)
    if missing:
        raise ConfigError(f"missing keys in {where}: {missing}")
    for key, types in {**required, **optional}.items():
        if key in cfg and types is not None and not isinstance(cfg[key], types):
            raise ConfigError(f"{where}.{key} has the wrong type")


def _mat(value, where: str, n: int | None = None) -> Mat:
    try:
        return Mat.coerce(value, n)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _energy(cfg: dict, where: str):
    name = cfg.get("energy")
    if not isinstance(name, str):
        raise ConfigError(f"{where}.energy must be a string name")
    params = cfg.get("energy_params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}.energy_params must be an object")
    try:
        return builtin_energy(name, params)
    except ToolError as exc:
        raise ConfigError(str(exc)) from exc


def _battery(entries, where: str) -> list:
    out = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"{where}[{i}] must be an object with a 'kind'")
        params = {k: v for k, v in entry.items() if k != "kind"}
        try:
            out.append(named_testfn(entry["kind"], params))
        except ToolError as exc:
            raise ConfigError(f"{where}[{i}]: {exc}") from exc
    return out


def _field_from_json(d, where: str) -> YoungMeasureField:
    try:
        if "constant_measure" in d:
            _expect(d, where, {"constant_measure": dict, "mesh": dict}, {})
            mesh = Mesh.from_json_dict(d["mesh"])
            nu = AtomicMeasure.from_json_dict(d["constant_measure"])
            return YoungMeasureField.constant(mesh, nu)
        return YoungMeasureField.from_json_dict(d)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _laminate_fields(cfg: dict, where: str) -> list:
    """Fields for sequence certificates: explicit list or laminate ladder."""
    if "fields" in cfg:
        try:
            return [GradientField.from_json_dict(d) for d in cfg["fields"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{where}.fields: {exc}") from exc
    lam = cfg.get("laminate")
    if not isinstance(lam, dict):
        raise ConfigError(f"{where} needs either 'fields' or 'laminate'")
    _expect(lam, f"{where}.laminate", {"atoms": list, "weights": list}, {})
    atoms = [_mat(a, f"{where}.laminate.atoms") for a in lam["atoms"]]
    ks = cfg.get("k_ladder")
    if not isinstance(ks, list) or not all(isinstance(k, int) for k in ks):
        raise ConfigError(f"{where}.k_ladder must be a list of integers")
    try:
        return [build_laminate_sequence(
            SequenceSpec(tuple(atoms), tuple(lam["weights"]), k))
            for k in ks]
    except (ToolError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _slope_fields(cfg: dict, where: str) -> list:
    """Per-k slope families like {slopes_of_k: ['1/k', 1], weights: [...]}."""
    spec = cfg["slopes_of_k"]
    weights = cfg.get("slope_weights", [1.0 / len(spec)] * len(spec))
    ks = cfg.get("k_ladder")
    if not isinstance(ks, list) or not all(isinstance(k, int) for k in ks):
        raise ConfigError(f"{where}.k_ladder must be a list of integers")
    fields = []
    for k in ks:
        slopes = []
        for s in spec:
            if s == "1/k":
                slopes.append(1.0 / k)
            elif s == "k":
                slopes.append(float(k))
            elif isinstance(s, (int, float)):
                slopes.append(float(s))
            else:
                raise ConfigError(f"{where}.slopes_of_k entries must be "
                                  "numbers, '1/k' or 'k'")
        fields.append(GradientField.from_slopes_1d(slopes, weights))
    return fields


# -- sanitizing and writing ---------------------------------------------------


def _sanitize(obj):
    """JSON-safe deep copy: infinities become the string 'infinite'."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "infinite" if obj > 0 else "-infinite"
        if math.isnan(obj):
            raise ValueError("refusing to emit NaN in a report")
        return obj
    return obj


def _write_result(out_dir: str, payload: dict) -> str:
    path = os.path.join(out_dir, "result.json")
    text = json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return "result.json"


def _write_csv(out_dir: str, name: str, rows) -> str:
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return name


def _measure_rows(nu: AtomicMeasure, cell: int | None = None) -> list:
    rows = []
    for i, (a, w) in enumerate(nu.atoms):
        prefix = [] if cell is None else [cell]
        rows.append(prefix + [i, w] + list(a.flat))
    return rows


def _witness_rows(witness) -> list:
    if isinstance(witness, AtomicMeasure):
        n = witness.n
        head = ["atom", "weight"] + [f"m{i}{j}" for i in range(n)
                                     for j in range(n)]
        return [head] + _measure_rows(witness)
    return witness.to_csv_rows()


# -- command implementations --------------------------------------------------


def _run_envelope(cfg: dict, seed: int):
    _expect(cfg, "envelope", {"energy": str, "F": (int, float, list),
                              "rho_tilde": (int, float), "method": str},
            {"energy_params": dict, "grid": int, "depth": int, "angles": int,
             "mesh_cells": int, "iters": int, "seed": int, "out": str})
    if cfg["method"] not in _METHODS:
        raise ConfigError(f"envelope.method must be one of {list(_METHODS)}")
    energy = _energy(cfg, "envelope")
    f = _mat(cfg["F"], "envelope.F")
    rho_tilde = float(cfg["rho_tilde"])
    if not 0.0 < rho_tilde < math.inf:
        raise ConfigError("envelope.rho_tilde must be positive and finite")
    if cfg["method"] == "oracle1d":
        if f.n != 1:
            raise ConfigError("the oracle method needs a 1x1 barycenter")
        if rho_tilde < 1.0:
            raise ConfigError("the oracle method needs rho_tilde >= 1")
        if cfg.get("grid", 10000) < 100:
            raise ConfigError("envelope.grid must be at least 100")
    elif cfg["method"] == "laminate" and cfg.get("depth", 2) < 0:
        raise ConfigError("envelope.depth must be nonnegative")
    elif cfg["method"] == "fe":
        cells = cfg.get("mesh_cells", 32)
        try:
            Mesh.interval(cells) if f.n == 1 else Mesh.square(cells)
        except ValueError as exc:
            raise ConfigError(f"envelope.mesh_cells: {exc}") from exc
    v = orho_extend(energy, rho_tilde)

    def run():
        from .envelope import qinv_fe_upper, qinv_laminate_upper, qinv_oracle_1d
        if cfg["method"] == "oracle1d":
            return qinv_oracle_1d(v, f, rho_tilde, grid=cfg.get("grid", 10000))
        if cfg["method"] == "laminate":
            return qinv_laminate_upper(v, f, rho_tilde,
                                       depth=cfg.get("depth", 2),
                                       angles=cfg.get("angles", 32))
        return qinv_fe_upper(v, f, cfg.get("mesh_cells", 32), rho_tilde,
                             iters=cfg.get("iters", 200))

    def write(out_dir, est):
        outputs = [_write_csv(out_dir, "witness.csv", _witness_rows(est.witness))]
        return {"estimate": est.to_json_dict()}, outputs

    return run, write


def _run_relax(cfg: dict, seed: int):
    _expect(cfg, "relax", {"energy": str, "F": (int, float, list), "mesh": dict},
            {"energy_params": dict, "p": (int, float), "q": (int, float),
             "rho_cap": (int, float), "positive_det": bool,
             "atom_budget": int, "max_outer": int, "tol": (int, float),
             "seed": int, "out": str})
    energy = _energy(cfg, "relax")
    f = _mat(cfg["F"], "relax.F")
    try:
        mesh = Mesh.from_json_dict(cfg["mesh"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"relax.mesh: {exc}") from exc
    from .relax import RelaxProblem, relax_solve
    try:
        problem = RelaxProblem(
            energy, mesh, f,
            p=float(cfg.get("p", 2.0)), q=float(cfg.get("q", 2.0)),
            rho_cap=(float(cfg["rho_cap"]) if "rho_cap" in cfg else None),
            positive_det=bool(cfg.get("positive_det", False)),
            atom_budget=int(cfg.get("atom_budget", 12)),
            max_outer=int(cfg.get("max_outer", 30)),
            tol=float(cfg.get("tol", 1e-9)),
            seed=seed)
    except ValueError as exc:
        raise ConfigError(f"relax: {exc}") from exc

    def run():
        return relax_solve(problem)

    def write(out_dir, sol):
        n = sol.field.matrix_dim
        head = ["cell", "atom", "weight"] + [f"m{i}{j}" for i in range(n)
                                             for j in range(n)]
        rows = [head]
        for c, nu in enumerate(sol.field.measures):
            rows.extend(_measure_rows(nu, c))
        outputs = [_write_csv(out_dir, "u_h.csv", sol.u_h.to_csv_rows()),
                   _write_csv(out_dir, "measures.csv", rows)]
        return {"solution": sol.to_json_dict()}, outputs

    return run, write


def _run_generate(cfg: dict, seed: int):
    _expect(cfg, "generate", {"atoms": list, "weights": list, "k_ladder": list},
            {"v_battery": list, "g_battery": list, "boundary": dict,
             "seed": int, "out": str})
    atoms = [_mat(a, "generate.atoms") for a in cfg["atoms"]]
    if not all(isinstance(k, int) and k >= 1 for k in cfg["k_ladder"]):
        raise ConfigError("generate.k_ladder must be positive integers")
    try:
        spec = SequenceSpec(tuple(atoms), tuple(float(w) for w in cfg["weights"]),
                            max(cfg["k_ladder"]))
    except ValueError as exc:
        raise ConfigError(f"generate: {exc}") from exc
    n = atoms[0].n
    if "v_battery" in cfg:
        v_battery = _battery(cfg["v_battery"], "generate.v_battery")
    elif n == 1:
        v_battery = [named_testfn("entry_power", {"exponent": 1}),
                     named_testfn("entry_power", {"exponent": 2}),
                     named_testfn("quartic_well_1d")]
    else:
        v_battery = [named_testfn("frob_power", {"p": 2.0}),
                     named_testfn("det")]
    g_names = cfg.get("g_battery", ["one", "x1", "sin1"])
    for gname in g_names:
        if gname not in WEIGHT_FUNCTIONS:
            raise ConfigError(f"generate.g_battery: unknown weight {gname!r}; "
                              f"known: {sorted(WEIGHT_FUNCTIONS)}")
    boundary = None
    if "boundary" in cfg:
        b = cfg["boundary"]
        _expect(b, "generate.boundary",
                {"F": (int, float, list), "layer_width": (int, float),
                 "epsilon": (int, float)}, {})
        boundary = BoundaryDatum(_mat(b["F"], "generate.boundary.F", n),
                                 float(b["layer_width"]), float(b["epsilon"]))

    def run():
        report = verify_generation(spec, v_battery, g_names, cfg["k_ladder"])
        finest = build_laminate_sequence(
            SequenceSpec(spec.atoms, spec.weights, max(cfg["k_ladder"])))
        glue_report = None
        if boundary is not None:
            finest, glue_report = boundary_glue(finest, boundary.f,
                                                boundary.layer_width,
                                                boundary.epsilon)
        return report, finest, glue_report

    def write(out_dir, result):
        report, finest, glue_report = result
        outputs = [_write_csv(out_dir, "field.csv", finest.to_csv_rows())]
        payload = {"report": report.to_json_dict(),
                   "glue": None if glue_report is None
                   else glue_report.to_json_dict()}
        return payload, outputs

    return run, write


def _run_certify(cfg: dict, seed: int):
    theorem = cfg.get("theorem")
    if theorem not in _THEOREMS:
        raise ConfigError(f"certify.theorem must be one of {list(_THEOREMS)}")
    from . import certify as ct

    if theorem in ("thm1", "thm2"):
        _expect(cfg, "certify", {"theorem": str, "field": dict,
                                 "p": (int, float), "q": (int, float)},
                {"seed": int, "out": str})
        field = _field_from_json(cfg["field"], "certify.field")

        def run():
            return ct.check_thm12(field, float(cfg["p"]), float(cfg["q"]),
                                  require_positive_det=(theorem == "thm2"))
    elif theorem == "support":
        _expect(cfg, "certify",
                {"theorem": str, "epsilon_ladder": list, "q": (int, float)},
                {"laminate": dict, "fields": list, "k_ladder": list,
                 "slopes_of_k": list, "slope_weights": list,
                 "seed": int, "out": str})
        fields = (_slope_fields(cfg, "certify") if "slopes_of_k" in cfg
                  else _laminate_fields(cfg, "certify"))

        def run():
            return ct.check_support_from_sequence(
                fields, [float(e) for e in cfg["epsilon_ladder"]],
                float(cfg["q"]))
    elif theorem == "det_limit":
        _expect(cfg, "certify", {"theorem": str, "p": (int, float)},
                {"laminate": dict, "fields": list, "k_ladder": list,
                 "slopes_of_k": list, "slope_weights": list,
                 "seed": int, "out": str})
        fields = (_slope_fields(cfg, "certify") if "slopes_of_k" in cfg
                  else _laminate_fields(cfg, "certify"))

        def run():
            return ct.check_det_limit(fields, float(cfg["p"]))
    else:  # thm3
        _expect(cfg, "certify",
                {"theorem": str, "field": dict, "u_h": dict,
                 "rho": (int, float), "rho_tilde": (int, float),
                 "battery": list},
                {"jensen_depth": int, "jensen_angles": int,
                 "seed": int, "out": str})
        field = _field_from_json(cfg["field"], "certify.field")
        u_cls = GradientField if "normal" in cfg["u_h"] else MeshDeformation
        try:
            u_h = u_cls.from_json_dict(cfg["u_h"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"certify.u_h: {exc}") from exc
        battery = [orho_extend(fn, float(cfg["rho_tilde"]))
                   for fn in _battery(cfg["battery"], "certify.battery")]

        def run():
            return ct.check_thm3(field, u_h, float(cfg["rho"]), battery,
                                 float(cfg["rho_tilde"]),
                                 jensen_depth=cfg.get("jensen_depth", 1),
                                 jensen_angles=cfg.get("jensen_angles", 8))

    def write(out_dir, cert):
        return {"certificate": cert.to_json_dict()}, []

    return run, write


_COMMANDS = {"envelope": _run_envelope, "relax": _run_relax,
             "generate": _run_generate, "certify": _run_certify}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ymrelax",
        description="Young-measure relaxation toolkit for energies finite "
                    "only on invertible matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    started = time.time()
    try:
        _setup_logging()
        try:
            with open(args.config) as fh:
                cfg = json.load(fh, parse_float=_finite_float,
                                parse_constant=_finite_float)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        # full validation happens before any artifact is written
        run, write = _COMMANDS[args.command](cfg, seed)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or cfg.get("out") or os.path.join("runs", args.command)
    logger.info("running %s -> %s (seed %d)", args.command, out_dir, seed)
    try:
        result = run()
    except ToolError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ValueError: {exc}", file=sys.stderr)
        return 1

    os.makedirs(out_dir, exist_ok=True)
    payload, outputs = write(out_dir, result)
    payload = {"schema": 1, "command": args.command, "seed": seed,
               "config": cfg, **payload}
    outputs.append(_write_result(out_dir, payload))

    finished = time.time()
    manifest = {
        "schema": 1,
        "command": args.command,
        "config_path": os.path.abspath(args.config),
        "seed": seed,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version.split()[0],
        "started_utc": datetime.datetime.fromtimestamp(
            started, datetime.timezone.utc).isoformat(),
        "finished_utc": datetime.datetime.fromtimestamp(
            finished, datetime.timezone.utc).isoformat(),
        "duration_s": finished - started,
        "outputs": sorted(outputs),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(_sanitize(manifest), fh, sort_keys=True, indent=2)
        fh.write("\n")
    logger.info("done in %.3fs", finished - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
