"""Mutation fuzzing of CLI configs.

Each case starts from a valid config of one command and drops, adds or
replaces one key, at the top level or inside any object nested in it:
energy_params, boundary, laminate, a battery entry, a mesh, a measure
or its atoms, a measure field, a gradient field or u_h.  Replacement
values come from a fixed pool of wrong types, bad ranges and an integer
beyond the float range; it holds no large power of two, which as a valid
cell count would build a field of that many cells.  A second family
draws valid thm1 and thm2 certify configs at the edges of the float
range: subnormal weights and entries past 1e154.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ymrelax.cli import _COMMANDS, main
from ymrelax.errors import ConfigError

POOL = (True, "x", -1, 0, 0.5, 3, 10 ** 400, [], {}, [1, "a"], None)
ADDED_KEYS = ("extra", "seed", "out", "grid", "depth", "angles", "iters",
              "mesh_cells", "p", "q", "gamma", "kappa", "wells", "rho",
              "exponent", "name", "params", "F", "k_ladder", "fields",
              "laminate", "slopes_of_k", "slope_weights", "jensen_depth")

_CONSTANT_FIELD = {"mesh": {"dim": 1, "cells": 4},
                   "constant_measure": {"atoms": [{"mat": [1.0], "w": 0.5},
                                                  {"mat": [-1.0], "w": 0.5}]}}
_THM3 = {"theorem": "thm3", "rho": 2, "rho_tilde": 3,
         "field": {"mesh": {"dim": 1, "cells": 4},
                   "constant_measure": {"atoms": [{"mat": [1.0], "w": 1.0}]}},
         "u_h": {"mesh": {"dim": 1, "cells": 4},
                 "values": [0.0, 0.25, 0.5, 0.75, 1.0]},
         "battery": [{"kind": "quartic_well_1d"},
                     {"kind": "entry_power", "exponent": 2},
                     {"kind": "energy", "name": "double_well_inv",
                      "params": {"gamma": 0.5}}]}

# oracle and depth-1 laminate envelopes run in milliseconds through main
CHEAP = (
    ("envelope", {"energy": "double_well_inv", "energy_params": {"gamma": 0.0},
                  "F": 0, "rho_tilde": 2, "method": "oracle1d", "grid": 100}),
    ("envelope", {"energy": "double_well_inv", "energy_params": {"gamma": 0.0},
                  "F": 0.3, "rho_tilde": 2, "method": "laminate", "depth": 1}),
)
# the README and tests/test_cli.py configs of all four commands
BASES = CHEAP + (
    ("envelope", {"energy": "shear_well_2d",
                  "energy_params": {"kappa": 1.0, "gamma": 0.0},
                  "F": [[1.0, 0.5], [0.0, 1.0]], "rho_tilde": 3,
                  "method": "fe", "mesh_cells": 2}),
    ("relax", {"energy": "double_well_inv",
               "energy_params": {"gamma": 1e-3, "p": 2.0},
               "F": 0.0, "mesh": {"dim": 1, "cells": 8},
               "atom_budget": 6, "max_outer": 10}),
    ("generate", {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5],
                  "k_ladder": [4, 8, 16, 32],
                  "boundary": {"F": 0.0, "layer_width": 0.125, "epsilon": 0.5}}),
    ("generate", {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5],
                  "k_ladder": [2], "g_battery": ["one"],
                  "v_battery": [{"kind": "frob_power", "p": 2.0}]}),
    ("certify", {"theorem": "thm1", "p": 2, "q": 2, "field": _CONSTANT_FIELD}),
    ("certify", {"theorem": "support", "q": 2, "epsilon_ladder": [0.5, 0.1],
                 "slopes_of_k": ["1/k", 1], "k_ladder": [4, 8, 16]}),
    ("certify", {"theorem": "det_limit", "p": 2,
                 "laminate": {"atoms": [1.0, 2.0], "weights": [0.5, 0.5]},
                 "k_ladder": [2, 4, 8]}),
    ("certify", {"theorem": "det_limit", "p": 2, "fields": [
        {"n": 1, "normal": [1.0], "breaks": [0.0, 0.5, 1.0],
         "grads": [[1.0], [2.0]], "offsets": [[0.0], [-0.5]]}]}),
    ("certify", _THM3),
)


def _spots(value) -> list:
    """The objects a mutation may touch: the config and every object
    nested in it, inside lists too."""
    if isinstance(value, list):
        return [spot for x in value for spot in _spots(x)]
    if isinstance(value, dict):
        return [value] + [spot for x in value.values() for spot in _spots(x)]
    return []


@st.composite
def mutated(draw, bases):
    command, base = draw(st.sampled_from(bases))
    cfg = copy.deepcopy(base)
    spot = draw(st.sampled_from(_spots(cfg)))
    op = draw(st.sampled_from(("drop", "add", "replace") if spot else ("add",)))
    key = draw(st.sampled_from(ADDED_KEYS if op == "add" else sorted(spot)))
    if op == "drop":
        del spot[key]
    else:
        spot[key] = copy.deepcopy(draw(st.sampled_from(POOL)))
    return command, cfg


@settings(derandomize=True, deadline=None, max_examples=400)
@given(mutated(BASES))
def test_builders_raise_only_config_errors(case):
    command, cfg = case
    try:
        _COMMANDS[command](cfg, 0)
    except ConfigError:
        pass


def _no_constant(name):
    raise AssertionError(f"result.json holds {name}")


def _keeps_the_exit_contract(command, cfg):
    """Run main on cfg: an exit code of 0, 1 or 2, no traceback, no
    artifacts on a nonzero exit, and a result.json of plain JSON
    numbers, infinities spelled as strings."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", out])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert not os.path.exists(out)
        else:
            with open(os.path.join(out, "result.json")) as fh:
                json.load(fh, parse_constant=_no_constant)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(mutated(CHEAP))
def test_main_keeps_the_exit_contract(case):
    _keeps_the_exit_contract(*case)


# subnormal weights underflow against a 64-cell volume; entries past
# 1e154 overflow a square, and so a Frobenius norm
EXTREME_ENTRIES = (0.0, 1e-160, 1e-9, 1.0, -1.0, 1e100, -1e154, 1.5e154, 1e160, -1e300)
EXTREME_WEIGHTS = (5e-324, 1e-320, 0.25)


@st.composite
def extreme_certify(draw):
    """A thm1 or thm2 config: a constant measure of 1-3 atoms, the first
    of which may take a subnormal weight, on 64 cells."""
    dim = draw(st.sampled_from((1, 2)))
    k = draw(st.integers(1, 3))
    mats = [draw(st.lists(st.sampled_from(EXTREME_ENTRIES), min_size=dim * dim,
                          max_size=dim * dim)) for _ in range(k)]
    weights = [1.0]
    if k > 1:
        w0 = draw(st.sampled_from(EXTREME_WEIGHTS))
        weights = [w0] + [(1.0 - w0) / (k - 1)] * (k - 1)
    mesh = {"dim": 1, "cells": 64} if dim == 1 else {"dim": 2, "cells": [4, 8]}
    return "certify", {
        "theorem": draw(st.sampled_from(("thm1", "thm2"))),
        "p": draw(st.sampled_from((0.5, 2, 5))),
        "q": draw(st.sampled_from((2, 40, 120))),
        "field": {"mesh": mesh, "constant_measure": {
            "atoms": [{"mat": m, "w": w} for m, w in zip(mats, weights)]}}}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(extreme_certify())
def test_extreme_certify_keeps_the_exit_contract(case):
    _keeps_the_exit_contract(*case)
