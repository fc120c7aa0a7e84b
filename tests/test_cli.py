import csv
import json
import logging

import pytest

import ymrelax.cli as cli
from ymrelax.cli import main
from ymrelax.laminate import SequenceSpec, build_laminate_sequence
from ymrelax.matcore import Mat


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, command, cfg, seed=None, extra=()):
    out = tmp_path / "out"
    argv = [command, "--config", write_cfg(tmp_path, cfg),
            "--out", str(out), *extra]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv), out


def load_result(out):
    with open(out / "result.json") as fh:
        return json.load(fh)


ENVELOPE_CFG = {"energy": "double_well_inv", "F": 0, "rho_tilde": 2,
                "method": "oracle1d"}


class TestEnvelopeCommand:
    def test_double_well_collapses_to_zero(self, tmp_path):
        code, out = run(tmp_path, "envelope", ENVELOPE_CFG)
        assert code == 0
        res = load_result(out)
        assert res["schema"] == 1
        assert res["command"] == "envelope"
        assert res["config"] == ENVELOPE_CFG
        est = res["estimate"]
        assert est["value_upper"] == pytest.approx(0.0, abs=1e-9)
        atoms = est["witness"]["data"]["atoms"]
        assert sorted(a["mat"][0] for a in atoms) == pytest.approx([-1.0, 1.0])
        assert [a["w"] for a in atoms] == pytest.approx([0.5, 0.5])

    def test_artifacts_written(self, tmp_path):
        code, out = run(tmp_path, "envelope", ENVELOPE_CFG)
        assert code == 0
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert sorted(manifest["outputs"]) == ["result.json", "witness.csv"]
        assert manifest["command"] == "envelope"
        assert (out / "witness.csv").exists()
        with open(out / "witness.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["atom", "weight", "m00"]
        assert len(rows) == 3

    def test_laminate_method(self, tmp_path):
        cfg = dict(ENVELOPE_CFG, method="laminate", depth=3)
        code, out = run(tmp_path, "envelope", cfg)
        assert code == 0
        assert load_result(out)["estimate"]["value_upper"] == pytest.approx(
            0.0, abs=1e-9)

    def test_fe_method_2d(self, tmp_path):
        cfg = {"energy": "shear_well_2d", "F": [[1.0, 0.5], [0.0, 1.0]],
               "rho_tilde": 3, "method": "fe", "mesh_cells": 2}
        code, out = run(tmp_path, "envelope", cfg)
        assert code == 0
        est = load_result(out)["estimate"]
        assert est["witness"]["kind"] == "deformation"
        assert est["value_upper"] <= 0.25  # the Dirac value at F
        with open(out / "witness.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node", "x1", "x2", "y1", "y2"]
        assert len(rows) == 10  # header + 3x3 nodes

    def test_infeasible_barycenter_exits_1_no_artifacts(self, tmp_path):
        cfg = dict(ENVELOPE_CFG, F=5)
        code, out = run(tmp_path, "envelope", cfg)
        assert code == 1
        assert not out.exists()

    def test_fe_one_cell_no_start_exits_1_one_line(self, tmp_path, capsys):
        cfg = dict(ENVELOPE_CFG, method="fe", mesh_cells=1)
        code, out = run(tmp_path, "envelope", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert not out.exists()
        assert err.startswith("NoFeasibleStart: ") and err.count("\n") == 1

    def test_oracle_needs_scalar_barycenter(self, tmp_path):
        cfg = dict(ENVELOPE_CFG, F=[[1.0, 0.0], [0.0, 1.0]])
        code, out = run(tmp_path, "envelope", cfg)
        assert code == 2
        assert not out.exists()


class TestConfigErrors:
    def test_unknown_key(self, tmp_path):
        code, out = run(tmp_path, "envelope", dict(ENVELOPE_CFG, extra=1))
        assert code == 2
        assert not out.exists()

    def test_missing_key(self, tmp_path):
        cfg = {k: v for k, v in ENVELOPE_CFG.items() if k != "rho_tilde"}
        code, out = run(tmp_path, "envelope", cfg)
        assert code == 2
        assert not out.exists()

    def test_wrong_type(self, tmp_path):
        code, out = run(tmp_path, "envelope", dict(ENVELOPE_CFG, grid="many"))
        assert code == 2
        assert not out.exists()

    def test_bad_method(self, tmp_path):
        code, out = run(tmp_path, "envelope", dict(ENVELOPE_CFG, method="magic"))
        assert code == 2
        assert not out.exists()

    def test_unknown_energy(self, tmp_path):
        code, out = run(tmp_path, "envelope", dict(ENVELOPE_CFG, energy="nope"))
        assert code == 2
        assert not out.exists()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        out = tmp_path / "out"
        assert main(["envelope", "--config", str(path),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        out = tmp_path / "out"
        assert main(["envelope", "--config", str(tmp_path / "absent.json"),
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_bad_theorem(self, tmp_path):
        code, out = run(tmp_path, "certify", {"theorem": "thm9"})
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("change", [
        pytest.param({"grid": 5}, id="grid"),
        pytest.param({"rho_tilde": 0.5}, id="oracle_rho_below_1"),
        pytest.param({"rho_tilde": float("nan")}, id="rho_nan"),
        pytest.param({"rho_tilde": float("inf")}, id="rho_inf"),
        pytest.param({"energy_params": {"gamma": float("nan")}},
                     id="gamma_nan"),
        pytest.param({"method": "fe", "mesh_cells": 3}, id="mesh_cells_3"),
        pytest.param({"method": "fe", "mesh_cells": 0}, id="mesh_cells_0"),
        pytest.param({"method": "laminate", "depth": -1}, id="depth_1d"),
        pytest.param({"energy": "shear_well_2d", "F": [[1.0, 0.5], [0.0, 1.0]],
                      "rho_tilde": 3, "method": "laminate", "depth": -1},
                     id="depth_2d"),
    ])
    def test_envelope_range_error(self, tmp_path, change):
        code, out = run(tmp_path, "envelope", {**ENVELOPE_CFG, **change})
        assert code == 2
        assert not out.exists()


BIG = 10 ** 400  # an integer beyond the float range
I2 = [[1, 0], [0, 1]]
I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
SUPPORT_CFG = {"theorem": "support", "q": 2, "epsilon_ladder": [0.5, 0.1],
               "slopes_of_k": ["1/k", 1], "k_ladder": [4, 8, 16]}
THM1_CFG = {"theorem": "thm1", "p": 2, "q": 2,
            "field": {"mesh": {"dim": 1, "cells": 4},
                      "constant_measure": {"atoms": [{"mat": [0.0], "w": 0.5},
                                                     {"mat": [1.0], "w": 0.5}]}}}
THM3_CFG = {"theorem": "thm3", "rho": 2, "rho_tilde": 3,
            "field": {"mesh": {"dim": 1, "cells": 4},
                      "constant_measure": {"atoms": [{"mat": [1.0], "w": 1.0}]}},
            "u_h": {"mesh": {"dim": 1, "cells": 4},
                    "values": [0.0, 0.25, 0.5, 0.75, 1.0]},
            "battery": [{"kind": "quartic_well_1d"}]}
THM3_2D_CFG = {"theorem": "thm3", "rho": 2, "rho_tilde": 3,
               "field": {"mesh": {"dim": 2, "cells": [1, 1]},
                         "constant_measure": {
                             "atoms": [{"mat": [1.0, 0.0, 0.0, 1.0], "w": 1.0}]}},
               "u_h": {"mesh": {"dim": 2, "cells": [1, 1]},
                       "values": [[0, 0], [1, 0], [0, 1], [1, 1]]},
               "battery": [{"kind": "frob_power"}]}
RELAX_CFG = {"energy": "double_well_inv",
             "energy_params": {"gamma": 1e-3, "p": 2.0},
             "F": 0.0, "mesh": {"dim": 1, "cells": 8},
             "atom_budget": 6, "max_outer": 10}
MIXED_FIELDS = [
    {"n": 1, "normal": [1.0], "breaks": [0.0, 1.0], "grads": [[1.0]],
     "offsets": [[0.0]]},
    {"n": 2, "normal": [1.0, 0.0], "breaks": [0.0, 1.0],
     "grads": [[1.0, 0.0, 0.0, 1.0]], "offsets": [[0.0, 0.0]]}]
FIELD_1D = {"n": 1, "normal": [1.0], "breaks": [0.0, 1.0], "grads": [[1.0]],
            "offsets": [[0.0]]}


def nested(cfg, mesh=None, atoms=None):
    """cfg with its constant field's mesh or atoms replaced."""
    field = cfg["field"]
    return {**cfg, "field": {
        "mesh": mesh or field["mesh"],
        "constant_measure": {"atoms": atoms or field["constant_measure"]["atoms"]}}}


GLUE_CFG = {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5], "k_ladder": [4],
            "boundary": {"F": 0.0, "layer_width": 0.125, "epsilon": 0.5}}


class TestMalformedValues:
    """Configs one key away from a valid one, each of which once ended in
    a traceback, a solver error or a silent misreading."""

    @pytest.mark.parametrize("command, cfg, key", [
        pytest.param("envelope", {**ENVELOPE_CFG, "rho_tilde": BIG},
                     "envelope.rho_tilde", id="rho_tilde_huge"),
        pytest.param("envelope", {**ENVELOPE_CFG,
                                  "energy_params": {"wells": [1, "a"]}},
                     "'wells'", id="wells_str"),
        pytest.param("envelope", {**ENVELOPE_CFG, "energy_params": {"wells": 5}},
                     "'wells'", id="wells_int"),
        pytest.param("envelope", {**ENVELOPE_CFG, "energy_params": {"p": "x"}},
                     "'p'", id="energy_p_str"),
        pytest.param("envelope", {**ENVELOPE_CFG, "energy": "inv_penalty",
                                  "F": 1, "energy_params": {"p": BIG}},
                     "'p'", id="energy_p_huge"),
        pytest.param("envelope", {"energy": "shear_well_2d",
                                  "energy_params": {"kappa": [1]},
                                  "F": [[1.0, 0.5], [0.0, 1.0]],
                                  "rho_tilde": 3, "method": "laminate"},
                     "'kappa'", id="kappa_list"),
        pytest.param("certify", {**THM3_CFG, "battery": [
            {"kind": "entry_power", "exponent": "a"}]}, "'exponent'",
                     id="exponent_str"),
        pytest.param("certify", {**THM3_CFG, "battery": [
            {"kind": "phi_rho", "rho": -1}]}, "'rho'", id="phi_rho_negative"),
        pytest.param("certify", {**THM3_CFG, "battery": [{"kind": "energy"}]},
                     "certify.battery", id="energy_entry_nameless"),
        pytest.param("relax", {**RELAX_CFG, "rho_cap": BIG}, "relax.rho_cap",
                     id="rho_cap_huge"),
        pytest.param("generate", {**GLUE_CFG, "boundary": {
            **GLUE_CFG["boundary"], "layer_width": BIG}},
                     "generate.boundary.layer_width", id="layer_width_huge"),
        pytest.param("certify", {**SUPPORT_CFG, "k_ladder": [0]},
                     "certify.k_ladder", id="k_zero"),
        pytest.param("envelope", {**ENVELOPE_CFG, "seed": "x"}, "envelope.seed",
                     id="seed_str"),
        pytest.param("envelope", {"energy": "inv_penalty",
                                  "F": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                  "rho_tilde": 2, "method": "fe"},
                     "envelope.F", id="fe_3x3"),
        pytest.param("certify", {**SUPPORT_CFG, "epsilon_ladder": ["a"]},
                     "certify.epsilon_ladder", id="epsilon_str"),
        pytest.param("certify", {**THM3_2D_CFG, "jensen_depth": -1},
                     "certify.jensen_depth", id="jensen_depth_negative"),
        pytest.param("envelope", {**ENVELOPE_CFG, "rho_tilde": True},
                     "envelope.rho_tilde", id="rho_tilde_bool"),
        pytest.param("relax", {**RELAX_CFG, "p": True}, "relax.p",
                     id="relax_p_bool"),
        pytest.param("certify", {**SUPPORT_CFG, "slope_weights": [1]},
                     "certify.slope_weights", id="slope_weights_short"),
        pytest.param("generate", {"atoms": [I3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]]],
                                  "weights": [0.5, 0.5], "k_ladder": [2]},
                     "dimensions 1 and 2", id="generate_3x3"),
        pytest.param("envelope", {"energy": "shear_well_2d", "F": 0.5,
                                  "method": "oracle1d", "rho_tilde": 2},
                     "envelope.energy", id="energy_2x2_F_1x1"),
        pytest.param("relax", {**RELAX_CFG, "energy_params": {
            "wells": [I2, [[1, 1], [0, 1]]]}}, "relax.energy",
                     id="relax_wells_2x2_F_1x1"),
        pytest.param("certify", {**THM1_CFG, "p": -2}, "certify.p",
                     id="thm1_p_negative"),
        pytest.param("certify", {**THM1_CFG, "theorem": "thm2", "q": 0},
                     "certify.q", id="thm2_q_zero"),
        pytest.param("certify", {**SUPPORT_CFG, "q": -2}, "certify.q",
                     id="support_q_negative"),
        pytest.param("certify", {**SUPPORT_CFG, "epsilon_ladder": [0.5, 2.0]},
                     "certify.epsilon_ladder", id="epsilon_above_1"),
        pytest.param("certify", {**SUPPORT_CFG, "epsilon_ladder": [0.0]},
                     "certify.epsilon_ladder", id="epsilon_zero"),
        pytest.param("certify", {**THM3_CFG, "u_h": {
            "n": 1, "normal": [0.0, 1.0], "breaks": [0.0, 0.5, 1.0],
            "grads": [[1.0], [1.2]], "offsets": [[0.0], [-0.1]]}},
                     "certify.u_h: normal has 2 entries", id="u_h_1d_normal_2"),
        pytest.param("certify", {"theorem": "det_limit", "p": 2, "fields": [{
            "n": 2, "normal": [1.0], "breaks": [0.0, 1.0],
            "grads": [[1.0, 0.0, 0.0, 1.0]], "offsets": [[0.0, 0.0]]}]},
                     "certify.fields: normal has 1 entries",
                     id="fields_2d_normal_1"),
        # matrix sizes that disagree with the mesh, the atoms or each other
        pytest.param("certify", {**THM3_2D_CFG, "field": {
            "mesh": {"dim": 2, "cells": [1, 1]},
            "constant_measure": {"atoms": [{"mat": [1.0], "w": 1.0}]}}},
                     "certify.field", id="thm3_1x1_measures_2d_mesh"),
        pytest.param("certify", {**THM3_CFG, "field": {
            "mesh": {"dim": 1, "cells": 4}, "constant_measure": {
                "atoms": [{"mat": [1.0, 0.0, 0.0, 1.0], "w": 1.0}]}}},
                     "certify.field", id="thm3_2x2_measures_1d_mesh"),
        pytest.param("certify", {**THM3_2D_CFG,
                                 "battery": [{"kind": "quartic_well_1d"}]},
                     "certify.battery", id="thm3_1d_battery_2d_field"),
        pytest.param("generate", {**GLUE_CFG, "v_battery": [
            {"kind": "energy", "name": "shear_well_2d"}]},
                     "generate.v_battery", id="generate_2d_battery_1d_atoms"),
        pytest.param("generate", {"atoms": [I2, [[1, 1], [0, 1]]],
                                  "weights": [0.5, 0.5], "k_ladder": [2],
                                  "v_battery": [{"kind": "entry_power"}]},
                     "generate.v_battery", id="generate_1d_battery_2d_atoms"),
        pytest.param("certify", {"theorem": "det_limit", "p": 3,
                                 "fields": MIXED_FIELDS},
                     "certify.fields", id="det_limit_mixed_fields"),
        pytest.param("certify", {"theorem": "support", "q": 2,
                                 "epsilon_ladder": [0.5], "fields": MIXED_FIELDS},
                     "certify.fields", id="support_mixed_fields"),
        pytest.param("certify", {**THM1_CFG, "field": {
            "mesh": {"dim": 1, "cells": 4}, "constant_measure": {
                "atoms": [{"mat": [1.0, 0.0, 0.0, 1.0], "w": 1.0}]}}},
                     "certify.field", id="thm1_2x2_measures_1d_mesh"),
        # a u_h that does not fit the field's mesh
        pytest.param("certify", {**THM3_CFG, "u_h": {
            "mesh": {"dim": 1, "cells": 2}, "values": [0.0, 0.5, 1.0]}},
                     "certify.u_h: deformation and field live on different meshes",
                     id="thm3_u_h_other_mesh"),
        pytest.param("certify", {**THM3_2D_CFG, "u_h": {
            "n": 2, "normal": [0.0, 1.0], "breaks": [0.0, 0.5, 1.0],
            "grads": [[1.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 1.0]],
            "offsets": [[0.0, 0.0], [-0.5, 0.0]]}},
                     "certify.u_h: 2D slab fields must be affine",
                     id="thm3_u_h_2d_two_pieces"),
        # nested mesh, measure and field objects, read as strictly as the
        # keys around them
        pytest.param("certify", nested(THM1_CFG, atoms=[{"mat": ["1.5"], "w": True}]),
                     "certify.field: expected a number, got str",
                     id="atom_mat_str_w_bool"),
        pytest.param("certify", nested(THM1_CFG, mesh={"dim": True, "cells": 4}),
                     "certify.field: expected an integer, got bool", id="mesh_dim_bool"),
        pytest.param("certify", nested(THM1_CFG, mesh={"dim": 1, "cells": 1.9}),
                     "certify.field: expected an integer, got float",
                     id="mesh_cells_float"),
        pytest.param("relax", {**RELAX_CFG, "mesh": {"dim": 1, "cells": "4"}},
                     "relax.mesh: expected an integer, got str", id="relax_cells_str"),
        pytest.param("certify", {"theorem": "det_limit", "p": 2, "fields": [
            {**FIELD_1D, "normal": [True]}]},
                     "certify.fields: expected a number, got bool", id="fields_normal_bool"),
        pytest.param("certify", {"theorem": "det_limit", "p": 2, "fields": [
            {**FIELD_1D, "grads": [["2"]]}]},
                     "certify.fields: expected a number, got str", id="fields_grads_str"),
        pytest.param("certify", nested(THM1_CFG, mesh={"dim": 1, "cells": 4, "bogus": 1}),
                     "certify.field: unknown keys ['bogus']", id="mesh_extra_key"),
        pytest.param("certify", nested(THM1_CFG, atoms=[
            {"mat": [1.0], "w": 1.0, "bogus": 1}]),
                     "certify.field: unknown keys ['bogus']", id="atom_extra_key"),
        pytest.param("certify", {**THM1_CFG, "field": {
            **THM1_CFG["field"], "constant_measure": {
                **THM1_CFG["field"]["constant_measure"], "bogus": 1}}},
                     "certify.field: unknown keys ['bogus']", id="measure_extra_key"),
        pytest.param("certify", {**THM1_CFG, "field": {
            "mesh": {"dim": 1, "cells": 1}, "bogus": 1,
            "measures": [{"atoms": [{"mat": [1.0], "w": 1.0}]}]}},
                     "certify.field: unknown keys ['bogus']",
                     id="measure_field_extra_key"),
        pytest.param("certify", {"theorem": "det_limit", "p": 2, "fields": [
            {**FIELD_1D, "bogus": 1}]},
                     "certify.fields: unknown keys ['bogus']",
                     id="gradient_field_extra_key"),
        pytest.param("certify", {**THM3_CFG, "u_h": {**THM3_CFG["u_h"], "bogus": 1}},
                     "certify.u_h: unknown keys ['bogus']", id="u_h_extra_key"),
    ])
    def test_exit_2_one_line(self, tmp_path, capsys, command, cfg, key):
        code, out = run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert not out.exists()
        assert "Traceback" not in err
        assert err.startswith("ConfigError: ") and err.count("\n") == 1
        assert key in err


OVERFLOWS = [  # valid configs whose arithmetic overflows a float at run time
    pytest.param("certify", {**THM3_CFG, "battery": [
        {"kind": "entry_power", "exponent": 2000}]}, id="thm3_entry_power_2000"),
    pytest.param("relax", {**RELAX_CFG, "energy_params": {"gamma": 1, "p": -2000}},
                 id="relax_p_minus_2000"),
]


class TestInternalErrors:
    """A fault outside the toolkit's own errors exits 1 with one line."""

    @pytest.mark.parametrize("command, cfg", OVERFLOWS)
    def test_exit_1_one_line(self, tmp_path, capsys, monkeypatch, command, cfg):
        monkeypatch.delenv("TOOL_LOG", raising=False)
        code, out = run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert not out.exists()
        assert "Traceback" not in err
        assert err.startswith("InternalError: OverflowError: ")
        assert err.count("\n") == 1

    def test_debug_prints_the_traceback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TOOL_LOG", "debug")
        command, cfg = OVERFLOWS[0].values
        code, out = run(tmp_path, command, cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert not out.exists()
        assert "Traceback (most recent call last)" in err
        assert err.splitlines()[-1].startswith("InternalError: OverflowError: ")


class TestWriteErrors:
    """result.json's text is made before anything is written, and a
    failed write exits 1 with one line."""

    def test_out_is_an_existing_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("kept\n")
        code = main(["certify", "--config", write_cfg(tmp_path, THM1_CFG),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("OSError: ") and err.count("\n") == 1
        assert out.read_text() == "kept\n"

    def test_a_result_that_cannot_be_serialized_writes_nothing(
            self, tmp_path, capsys, monkeypatch):
        def refuse(obj):
            raise ValueError("refusing to emit NaN in a report")

        monkeypatch.setattr(cli, "_sanitize", refuse)
        code, out = run(tmp_path, "certify", THM1_CFG)
        err = capsys.readouterr().err
        assert code == 1
        assert not out.exists()
        assert err == "ValueError: refusing to emit NaN in a report\n"


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = {"energy": "double_well_inv", "F": 0.3, "rho_tilde": 2,
               "method": "laminate"}
        code, out = run(tmp_path, "envelope", cfg, seed=7)
        assert code == 0
        first = (out / "result.json").read_bytes()
        code, out = run(tmp_path, "envelope", cfg, seed=7)
        assert code == 0
        assert (out / "result.json").read_bytes() == first

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = dict(ENVELOPE_CFG, seed=3)
        code, out = run(tmp_path, "envelope", cfg, seed=11)
        assert code == 0
        assert load_result(out)["seed"] == 11
        code, out = run(tmp_path, "envelope", cfg)
        assert load_result(out)["seed"] == 3


class TestRelaxCommand:
    def test_small_double_well(self, tmp_path):
        cfg = {"energy": "double_well_inv",
               "energy_params": {"gamma": 1e-3, "p": 2.0},
               "F": 0.0, "mesh": {"dim": 1, "cells": 8},
               "atom_budget": 6, "max_outer": 10}
        code, out = run(tmp_path, "relax", cfg, seed=1)
        assert code == 0
        res = load_result(out)
        sol = res["solution"]
        assert sol["energy"] < 0.01
        assert (out / "u_h.csv").exists()
        assert (out / "measures.csv").exists()
        with open(out / "measures.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cell", "atom", "weight", "m00"]
        # one weight column per atom row, all rows parse as floats
        for row in rows[1:]:
            assert len(row) == 4
            float(row[2]), float(row[3])

    def test_invalid_problem_is_config_error(self, tmp_path):
        cfg = {"energy": "inv_penalty", "F": 1.0,
               "mesh": {"dim": 1, "cells": 4}, "atom_budget": 1}
        code, out = run(tmp_path, "relax", cfg)
        assert code == 2
        assert not out.exists()


class TestGenerateCommand:
    def test_ladder_report_and_field(self, tmp_path):
        cfg = {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5],
               "k_ladder": [2, 4, 8]}
        code, out = run(tmp_path, "generate", cfg)
        assert code == 0
        res = load_result(out)
        entries = res["report"]["entries"]
        assert entries and all("v" in e and "g" in e for e in entries)
        assert res["glue"] is None
        with open(out / "field.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 17  # header + 2*8 pieces at the finest level

    def test_2d_laminate_ladder(self, tmp_path):
        cfg = {"atoms": [[[1, 0], [0, 1]], [[1, 1], [0, 1]]],
               "weights": [0.5, 0.5], "k_ladder": [2, 4, 8]}
        code, out = run(tmp_path, "generate", cfg)
        assert code == 0
        entries = load_result(out)["report"]["entries"]
        assert entries and all(e["decaying"] for e in entries)

    def test_boundary_glue(self, tmp_path):
        cfg = {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5],
               "k_ladder": [4],
               "boundary": {"F": 0.0, "layer_width": 0.125, "epsilon": 0.5}}
        code, out = run(tmp_path, "generate", cfg)
        assert code == 0
        glue = load_result(out)["glue"]
        assert glue["boundary_mismatch"] == pytest.approx(0.0, abs=1e-12)
        assert glue["modified_volume"] == pytest.approx(0.25)

    def test_glue_with_the_layer_slope_at_the_cap(self, tmp_path):
        # the layer needs the average slope -3 = -cap up to rounding; the
        # vanishing +cap side of the layer is dropped
        cfg = {"atoms": [-1, 1], "weights": [0.5, 0.5], "k_ladder": [2, 4, 8],
               "boundary": {"F": -0.2, "layer_width": 0.05, "epsilon": 2}}
        code, out = run(tmp_path, "generate", cfg)
        assert code == 0
        assert load_result(out)["glue"]["boundary_mismatch"] <= 1e-12

    def test_infeasible_layer_exits_1(self, tmp_path):
        cfg = {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5],
               "k_ladder": [4],
               "boundary": {"F": 2.0, "layer_width": 0.125, "epsilon": 0.5}}
        code, out = run(tmp_path, "generate", cfg)
        assert code == 1
        assert not out.exists()

    def test_atoms_beyond_the_float_range_exit_1_one_line(self, tmp_path, capsys):
        # |1e200|^2 overflows, so the laminate's scale is not a finite float
        cfg = {"atoms": [1e200, -1e200], "weights": [0.5, 0.5], "k_ladder": [3, 5]}
        code, out = run(tmp_path, "generate", cfg)
        err = capsys.readouterr().err
        assert code == 1
        assert not out.exists()
        assert err.startswith("ValueError: ") and err.count("\n") == 1
        assert "float range" in err and "InternalError" not in err

    def test_2d_atoms_whose_jump_squares_overflow(self, tmp_path):
        # |diag(2e154, 0)|^2 overflows, but the field's scale is finite
        cfg = {"atoms": [[[1e154, 0], [0, 1]], [[-1e154, 0], [0, 1]]],
               "weights": [0.5, 0.5], "k_ladder": [2, 3]}
        code, out = run(tmp_path, "generate", cfg)
        assert code == 0
        assert (out / "field.csv").exists()

    def test_unknown_weight_name(self, tmp_path):
        cfg = {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5],
               "k_ladder": [2], "g_battery": ["x9"]}
        code, out = run(tmp_path, "generate", cfg)
        assert code == 2
        assert not out.exists()


class TestCertifyCommand:
    def test_thm1_constant_field(self, tmp_path):
        cfg = {"theorem": "thm1", "p": 2, "q": 2,
               "field": {"mesh": {"dim": 1, "cells": 4},
                         "constant_measure": {
                             "atoms": [{"mat": [1.0], "w": 0.5},
                                       {"mat": [-1.0], "w": 0.5}]}}}
        code, out = run(tmp_path, "certify", cfg)
        assert code == 0
        cert = load_result(out)["certificate"]
        assert cert["theorem"] == "thm1"
        assert cert["verdict"] == "pass"

    def test_thm2_negative_det_fails(self, tmp_path):
        cfg = {"theorem": "thm2", "p": 2, "q": 2,
               "field": {"mesh": {"dim": 1, "cells": 4},
                         "constant_measure": {
                             "atoms": [{"mat": [-1.0], "w": 1.0}]}}}
        code, out = run(tmp_path, "certify", cfg)
        assert code == 0
        cert = load_result(out)["certificate"]
        assert cert["verdict"] == "fail"
        by_name = {c["name"]: c["status"] for c in cert["checks"]}
        assert by_name["positive_determinant_support"] == "fail"

    def test_support_slope_family_inconclusive(self, tmp_path):
        cfg = {"theorem": "support", "q": 2, "epsilon_ladder": [0.5, 0.1],
               "slopes_of_k": ["1/k", 1], "k_ladder": [4, 8, 16]}
        code, out = run(tmp_path, "certify", cfg)
        assert code == 0
        cert = load_result(out)["certificate"]
        assert cert["verdict"] == "inconclusive"
        assert cert["details"]["q_integrals"] == pytest.approx(
            [8.5, 32.5, 128.5])

    @pytest.mark.parametrize("cfg, check, verdict", [
        pytest.param({"theorem": "thm1", "p": 2000, "q": 2, "field": {
            "mesh": {"dim": 1, "cells": 4},
            "constant_measure": {"atoms": [{"mat": [3.0], "w": 1.0}]}}},
            "finite_p_moment", "fail", id="thm1_p_2000"),
        pytest.param({"theorem": "thm1", "p": 5, "q": 2, "field": {
            "mesh": {"dim": 1, "cells": 4},
            "constant_measure": {"atoms": [{"mat": [1e100], "w": 1.0}]}}},
            "finite_p_moment", "fail", id="thm1_atom_1e100_p_5"),
        pytest.param({"theorem": "support", "q": 5, "epsilon_ladder": [0.5],
                      "fields": [{"n": 1, "normal": [1.0], "breaks": [0.0, 1.0],
                                  "grads": [[1e-70]], "offsets": [[0.0]]}]},
                     "uniform_inverse_determinant_moment", "inconclusive",
                     id="support_slope_1e-70_q_5"),
    ])
    def test_overflowing_power_is_infinite(self, tmp_path, cfg, check, verdict):
        """A moment power beyond the float range reads as an infinite
        moment, not as an internal error."""
        code, out = run(tmp_path, "certify", cfg)
        assert code == 0
        cert = load_result(out)["certificate"]
        assert cert["verdict"] == verdict
        by_name = {c["name"]: c for c in cert["checks"]}
        assert by_name[check]["status"] == verdict
        assert by_name[check]["explanation"].endswith(
            "= inf (infinite at a power beyond the float range)"
            if verdict == "fail" else
            ": inf (infinite at a zero determinant or a power beyond the float "
            "range); the last integral is infinite, so limiting support "
            "control is not certified")

    def test_underflowing_mass_at_an_overflowing_power(self, tmp_path, capsys):
        """An atom whose vol * w underflows to 0 at a power beyond the
        float range makes its moment infinite, not 0 * inf = NaN."""
        cfg = {"theorem": "thm1", "p": 2, "q": 2,
               "field": {"mesh": {"dim": 1, "cells": 64}, "constant_measure": {
                   "atoms": [{"mat": [1e160], "w": 5e-324},
                             {"mat": [1.0], "w": 1.0}]}}}
        code, out = run(tmp_path, "certify", cfg)
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        cert = load_result(out)["certificate"]
        by_name = {c["name"]: c["status"] for c in cert["checks"]}
        assert by_name["finite_p_moment"] == "fail"
        assert cert["details"]["moment_p"] == "infinite"

    def test_discontinuous_fields_exit_2(self, tmp_path, capsys):
        field = {"n": 1, "normal": [1.0], "breaks": [0.0, 0.5, 1.0],
                 "grads": [[1.0], [2.0]], "offsets": [[0.0], [-0.5 + 1e-3]]}
        cfg = {"theorem": "support", "q": 2, "epsilon_ladder": [0.5],
               "fields": [field]}
        code, out = run(tmp_path, "certify", cfg)
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "ConfigError: certify.fields: deformation jumps by 1.000e-03 "
            "at interface 0\n")

    def test_det_limit_laminate_passes(self, tmp_path):
        cfg = {"theorem": "det_limit", "p": 2,
               "laminate": {"atoms": [1.0, 2.0], "weights": [0.5, 0.5]},
               "k_ladder": [2, 4, 8]}
        code, out = run(tmp_path, "certify", cfg)
        assert code == 0
        cert = load_result(out)["certificate"]
        assert cert["verdict"] == "pass"
        assert cert["details"]["det"] == pytest.approx(1.5)

    @pytest.mark.parametrize("cfg", [
        {"theorem": "det_limit", "p": 2},
        {"theorem": "support", "q": 2, "epsilon_ladder": [0.5, 0.1]}],
        ids=["det_limit", "support"])
    def test_fields_match_their_laminate(self, tmp_path, cfg):
        # the sequence read from 'fields' certifies as the one built from
        # 'laminate' and 'k_ladder'
        lam = {"atoms": [1.0, 2.0], "weights": [0.5, 0.5]}
        fields = [build_laminate_sequence(SequenceSpec(
            (Mat.scalar(1.0), Mat.scalar(2.0)), (0.5, 0.5), k)).to_json_dict()
                  for k in (2, 4, 8)]
        certs = []
        for name, source in (("lam", {"laminate": lam, "k_ladder": [2, 4, 8]}),
                             ("fields", {"fields": fields})):
            (tmp_path / name).mkdir()
            code, out = run(tmp_path / name, "certify", {**cfg, **source})
            assert code == 0
            certs.append(load_result(out)["certificate"])
        assert certs[1]["verdict"] == "pass"
        assert certs[1] == certs[0]

    def test_thm3_affine(self, tmp_path):
        cfg = {"theorem": "thm3", "rho": 2, "rho_tilde": 3,
               "field": {"mesh": {"dim": 1, "cells": 4},
                         "constant_measure": {
                             "atoms": [{"mat": [1.0], "w": 1.0}]}},
               "u_h": {"mesh": {"dim": 1, "cells": 4},
                       "values": [0.0, 0.25, 0.5, 0.75, 1.0]},
               "battery": [{"kind": "quartic_well_1d"}]}
        code, out = run(tmp_path, "certify", cfg)
        assert code == 0
        cert = load_result(out)["certificate"]
        assert cert["verdict"] == "pass"

    def test_thm3_hypothesis_error_exits_1(self, tmp_path):
        cfg = {"theorem": "thm3", "rho": 3, "rho_tilde": 3,  # needs tilde > rho
               "field": {"mesh": {"dim": 1, "cells": 2},
                         "constant_measure": {
                             "atoms": [{"mat": [1.0], "w": 1.0}]}},
               "u_h": {"mesh": {"dim": 1, "cells": 2},
                       "values": [0.0, 0.5, 1.0]},
               "battery": [{"kind": "quartic_well_1d"}]}
        code, out = run(tmp_path, "certify", cfg)
        assert code == 1
        assert not out.exists()


class TestLogging:
    def test_debug_log_level(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setenv("TOOL_LOG", "debug")
        code, out = run(tmp_path, "envelope", ENVELOPE_CFG)
        assert code == 0
        assert logging.getLogger("ymrelax").level == logging.DEBUG
        assert any("running envelope" in r.message for r in caplog.records)

    def test_default_level_is_quiet(self, tmp_path, monkeypatch, caplog):
        monkeypatch.delenv("TOOL_LOG", raising=False)
        code, out = run(tmp_path, "envelope", ENVELOPE_CFG)
        assert code == 0
        assert logging.getLogger("ymrelax").level == logging.ERROR
        assert not caplog.records

    def test_bad_log_level_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOOL_LOG", "chatty")
        code, out = run(tmp_path, "envelope", ENVELOPE_CFG)
        assert code == 2
        assert not out.exists()
