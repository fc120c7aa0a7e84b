"""Command line runner: envelope, relax, generate, certify scenarios.

Scenarios are JSON configs whose every key is checked for type and range
before any artifact is written.  Each run emits result.json (schema 1,
deterministic for a fixed seed: sorted keys, no timestamps, infinities
as the string "infinite"), CSV dumps of witnesses/fields, and a
manifest.json carrying versions, seed and timings; nothing is written
before result.json's text is made.  Exit codes: 0 ok, 1 domain error,
internal error or failed write (one line; an internal error's traceback
too at TOOL_LOG=debug), 2 config error.  TOOL_LOG selects
error/info/debug.
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
import traceback

import numpy as np

from . import __version__
from ._values import as_real, checked_keys, integer, real
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


# -- config schema ----------------------------------------------------------
#
# A parser takes one JSON value and returns the converted value, or raises
# one of _BAD_VALUE; _parse reports that as a ConfigError naming the key.

_BAD_VALUE = (TypeError, ValueError, ArithmeticError, LookupError, ToolError)


def _build(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), with a failure caused by the config raised
    as a ConfigError that names where."""
    try:
        return make(*args, **kwargs)
    except _BAD_VALUE as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse(cfg, where: str, required: dict, optional: dict) -> dict:
    """Check the JSON object cfg against tables of key -> parser and
    return the parsed values; a (required, optional) pair of tables in
    place of a parser reads a nested object.  An absent optional key
    stays absent, so the library default applies when the values are
    passed on by **."""
    _build(where, checked_keys, cfg, required, optional)
    out = {}
    for key, parse in {**required, **optional}.items():
        if key in cfg:
            at = f"{where}.{key}"
            out[key] = (_parse(cfg[key], at, *parse) if isinstance(parse, tuple)
                        else _build(at, parse, cfg[key]))
    return out


def _pick(args: dict, *keys) -> dict:
    return {key: args[key] for key in keys if key in args}


def _is(kind):
    def parse(value):
        if not isinstance(value, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
        return value
    return parse


def _pow2(value) -> int:
    k = integer(least=1)(value)
    if k & (k - 1):
        raise ValueError(f"must be a power of two, got {k}")
    return k


def _choice(*names):
    def parse(value):
        if not isinstance(value, str) or value not in names:
            raise ValueError(f"expected one of {list(names)}, got {value!r}")
        return value
    return parse


def _list(parse):
    def parse_list(value) -> list:
        if not isinstance(value, list) or not value:
            raise TypeError("expected a nonempty list")
        return [parse(x) for x in value]
    return parse_list


def _testfn(entry):
    """A battery entry {"kind": ..., **params} through named_testfn."""
    if not isinstance(entry, dict) or "kind" not in entry:
        raise TypeError("a battery entry is an object with a 'kind'")
    params = dict(entry)
    return named_testfn(params.pop("kind"), params)


def _field(d) -> YoungMeasureField:
    """Per-cell measures, or one constant measure on a mesh."""
    if isinstance(d, dict) and "constant_measure" in d:
        d = checked_keys(d, ("constant_measure", "mesh"))
        return YoungMeasureField.constant(
            Mesh.from_json_dict(d["mesh"]),
            AtomicMeasure.from_json_dict(d["constant_measure"]))
    return YoungMeasureField.from_json_dict(d)


_COMMON = {"seed": integer(least=0), "out": _is(str)}
_SEQUENCE = {
    "fields": _list(GradientField.from_json_dict),
    "laminate": ({"atoms": _list(Mat.coerce), "weights": _list(as_real)}, {}),
    "slopes_of_k": _list(lambda s: s if s in ("1/k", "k") else as_real(s)),
    "slope_weights": _list(as_real),
    "k_ladder": _list(integer(least=1)),
}
_CERTIFY = {  # theorem -> (required, optional) keys besides "theorem"
    "thm1": ({"field": _field, "p": real(above=0.0), "q": real(above=0.0)}, {}),
    "thm2": ({"field": _field, "p": real(above=0.0), "q": real(above=0.0)}, {}),
    "support": ({"epsilon_ladder": _list(real(above=0.0, below=1.0)),
                 "q": real(above=0.0)}, _SEQUENCE),
    "det_limit": ({"p": as_real}, _SEQUENCE),
    "thm3": ({"field": _field,
              "u_h": lambda d: (GradientField if "normal" in d
                                else MeshDeformation).from_json_dict(d),
              "rho": real(above=0.0), "rho_tilde": real(above=0.0),
              "battery": _list(_testfn)},
             {"jensen_depth": integer(least=0), "jensen_angles": integer(least=0)}),
}


def _sequence(args: dict) -> list:
    """Fields for sequence certificates: given outright, or one per k of
    k_ladder from a laminate or a slope family."""
    sources = [key for key in ("fields", "laminate", "slopes_of_k") if key in args]
    if len(sources) != 1 or ("fields" not in args and "k_ladder" not in args):
        raise ConfigError("certify needs 'fields', or 'k_ladder' with one of "
                          "'laminate' and 'slopes_of_k'")
    if "fields" in args:
        if len({u.n for u in args["fields"]}) > 1:
            raise ConfigError("certify.fields: entries must share one dimension")
        return args["fields"]
    ks = args["k_ladder"]
    if "laminate" in args:
        lam = args["laminate"]
        return _build("certify.laminate", lambda: [build_laminate_sequence(
            SequenceSpec(tuple(lam["atoms"]), tuple(lam["weights"]), k))
            for k in ks])
    spec = args["slopes_of_k"]
    weights = args.get("slope_weights", [1.0 / len(spec)] * len(spec))
    return [_build("certify.slope_weights", GradientField.from_slopes_1d,
                   [1.0 / k if s == "1/k" else float(k) if s == "k" else s
                    for s in spec], weights)
            for k in ks]


def _probe(where: str, v, n: int):
    """v evaluated once at the n x n identity, so that a function of
    another dimension is a config error naming where."""
    _build(where, v.evaluate, Mat.identity(n))
    return v


def _energy(args: dict, where: str):
    """The builtin energy of the config, probed at F's size."""
    energy = _build(f"{where}.energy", builtin_energy, args["energy"],
                    args.get("energy_params"))
    return _probe(f"{where}.energy", energy, args["F"].n)


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


def _json_text(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2) + "\n"


def _write_text(out_dir: str, name: str, text: str):
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _write_csv(out_dir: str, name: str, rows):
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _measure_rows(measures, cells: bool) -> list:
    """One CSV row per atom: its cell index when cells, then its index
    in the measure, weight and entries."""
    n = measures[0].n
    rows = [["cell"] * cells + ["atom", "weight"]
            + [f"m{i}{j}" for i in range(n) for j in range(n)]]
    for c, nu in enumerate(measures):
        for i, (a, w) in enumerate(nu.atoms):
            rows.append([c] * cells + [i, w] + list(a.flat))
    return rows


# -- command implementations --------------------------------------------------


def _run_envelope(cfg: dict, seed: int):
    args = _parse(cfg, "envelope",
                  {"energy": _is(str), "F": Mat.coerce,
                   "rho_tilde": real(above=0.0), "method": _choice(*_METHODS)},
                  {"energy_params": _is(dict), "grid": integer(least=100),
                   "depth": integer(least=0), "angles": integer(least=0),
                   "mesh_cells": _pow2, "iters": integer(least=0), **_COMMON})
    energy = _energy(args, "envelope")
    f, rho_tilde, method = args["F"], args["rho_tilde"], args["method"]
    if method == "oracle1d" and f.n != 1:
        raise ConfigError("envelope.F: the oracle method needs a 1x1 barycenter")
    if method == "oracle1d" and rho_tilde < 1.0:
        raise ConfigError("envelope.rho_tilde: the oracle method needs "
                          "rho_tilde >= 1")
    if method == "fe" and f.n > 2:
        raise ConfigError("envelope.F: the fe method needs a 1x1 or 2x2 matrix")
    v = orho_extend(energy, rho_tilde)

    def run():
        from .envelope import qinv_fe_upper, qinv_laminate_upper, qinv_oracle_1d
        if method == "oracle1d":
            return qinv_oracle_1d(v, f, rho_tilde, **_pick(args, "grid"))
        if method == "laminate":
            return qinv_laminate_upper(v, f, rho_tilde,
                                       **_pick(args, "depth", "angles"))
        return qinv_fe_upper(v, f, args.get("mesh_cells", 32), rho_tilde,
                             **_pick(args, "iters"))

    def write(est):
        rows = (_measure_rows([est.witness], False)
                if isinstance(est.witness, AtomicMeasure)
                else est.witness.to_csv_rows())
        return {"estimate": est.to_json_dict()}, {"witness.csv": rows}

    return run, write


def _run_relax(cfg: dict, seed: int):
    args = _parse(cfg, "relax",
                  {"energy": _is(str), "F": Mat.coerce, "mesh": Mesh.from_json_dict},
                  {"energy_params": _is(dict), "p": as_real, "q": as_real,
                   "rho_cap": as_real, "positive_det": _is(bool),
                   "atom_budget": integer(), "max_outer": integer(least=0),
                   "tol": as_real, **_COMMON})
    energy = _energy(args, "relax")
    from .relax import RelaxProblem, relax_solve
    problem = _build("relax", RelaxProblem, energy, args["mesh"], args["F"],
                     seed=seed, **_pick(args, "p", "q", "rho_cap", "positive_det",
                                        "atom_budget", "max_outer", "tol"))

    def run():
        return relax_solve(problem)

    def write(sol):
        return {"solution": sol.to_json_dict()}, {
            "u_h.csv": sol.u_h.to_csv_rows(),
            "measures.csv": _measure_rows(sol.field.measures, True)}

    return run, write


def _run_generate(cfg: dict, seed: int):
    args = _parse(cfg, "generate",
                  {"atoms": _list(Mat.coerce), "weights": _list(as_real),
                   "k_ladder": _list(integer(least=1))},
                  {"v_battery": _list(_testfn),
                   "g_battery": _list(_choice(*WEIGHT_FUNCTIONS)),
                   "boundary": ({"F": Mat.coerce, "layer_width": as_real,
                                 "epsilon": as_real}, {}),
                   **_COMMON})
    ks = args["k_ladder"]
    spec = _build("generate", SequenceSpec, tuple(args["atoms"]),
                  tuple(args["weights"]), max(ks))
    n = spec.atoms[0].n
    v_battery = [_probe("generate.v_battery", v, n)
                 for v in args.get("v_battery", ())] or (
        [named_testfn("entry_power", {"exponent": 1}),
         named_testfn("entry_power", {"exponent": 2}),
         named_testfn("quartic_well_1d")] if n == 1 else
        [named_testfn("frob_power", {"p": 2.0}), named_testfn("det")])
    g_names = args.get("g_battery", ["one", "x1", "sin1"])
    boundary = None
    if "boundary" in args:
        b = args["boundary"]
        if b["F"].n != n:
            raise ConfigError(f"generate.boundary.F: expected a {n}x{n} matrix "
                              "like the atoms")
        boundary = _build("generate.boundary", BoundaryDatum, b["F"],
                          b["layer_width"], b["epsilon"])

    def run():
        report = verify_generation(spec, v_battery, g_names, ks)
        finest = report.finest
        glue_report = None
        if boundary is not None:
            finest, glue_report = boundary_glue(finest, boundary.f,
                                                boundary.layer_width,
                                                boundary.epsilon)
        return report, finest, glue_report

    def write(result):
        report, finest, glue_report = result
        payload = {"report": report.to_json_dict(),
                   "glue": None if glue_report is None
                   else glue_report.to_json_dict()}
        return payload, {"field.csv": finest.to_csv_rows()}

    return run, write


def _run_certify(cfg: dict, seed: int):
    theorem = _build("certify.theorem", _choice(*_CERTIFY), cfg.get("theorem"))
    required, optional = _CERTIFY[theorem]
    args = _parse(cfg, "certify", {"theorem": _is(str), **required},
                  {**optional, **_COMMON})
    from . import certify as ct

    if theorem in ("thm1", "thm2"):
        def run():
            return ct.check_thm12(args["field"], args["p"], args["q"],
                                  require_positive_det=(theorem == "thm2"))
    elif theorem == "support":
        fields = _sequence(args)

        def run():
            return ct.check_support_from_sequence(
                fields, args["epsilon_ladder"], args["q"])
    elif theorem == "det_limit":
        fields = _sequence(args)

        def run():
            return ct.check_det_limit(fields, args["p"])
    else:  # thm3
        for v in args["battery"]:
            _probe("certify.battery", v, args["field"].mesh.dim)
        # a u_h that does not fit the field's mesh is a config error
        _build("certify.u_h", ct.cell_gradients_from, args["u_h"],
               args["field"].mesh)

        def run():
            return ct.check_thm3(args["field"], args["u_h"], args["rho"],
                                 args["battery"], args["rho_tilde"],
                                 **_pick(args, "jensen_depth", "jensen_angles"))

    def write(cert):
        return {"certificate": cert.to_json_dict()}, {}

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
        seed = args.seed if args.seed is not None else _build(
            f"{args.command}.seed", _COMMON["seed"], cfg.get("seed", 0))
        # full validation happens before any artifact is written
        run, write = _COMMANDS[args.command](cfg, seed)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or cfg.get("out") or os.path.join("runs", args.command)
    logger.info("running %s -> %s (seed %d)", args.command, out_dir, seed)
    try:
        payload, tables = write(run())
        text = _json_text({"schema": 1, "command": args.command, "seed": seed,
                           "config": cfg, **payload})
    except (ToolError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a fault of the toolkit rather than of the input
        if logger.isEnabledFor(logging.DEBUG):
            traceback.print_exc()
        print(f"InternalError: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

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
        "outputs": sorted([*tables, "result.json"]),
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, rows in tables.items():
            _write_csv(out_dir, name, rows)
        _write_text(out_dir, "result.json", text)
        _write_text(out_dir, "manifest.json", _json_text(manifest))
    except OSError as exc:
        print(f"OSError: {exc}", file=sys.stderr)
        return 1
    logger.info("done in %.3fs", finished - started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
