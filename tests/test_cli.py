import copy
import datetime
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

import tritherm as tt
from tritherm import cli
from tritherm.cli import main
from tritherm.core import MAX_COUNT
from tritherm.transistor import (DEFAULT_THRESHOLD, window_mask,
                                 windows_from_arrays)

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

BASE_CONFIG = {
    "drive_freq": 0.5,
    "wm": {"omega0": 1.0, "mass": 1.0},
    "hot": {"temperature": 0.8, "center": 1.5, "width": 0.05, "kappa": 0.01},
    "cold": {"temperature": 0.2, "center": 0.75, "width": 0.05, "kappa": 0.01},
    "mid": {"temperature": 0.5, "gamma_m": 0.1},
}

SEARCH_SECTION = {
    "objective": "transistor_window",
    "threshold": 10.0,
    "omega_grid": {"start": 0.02, "stop": 0.98, "count": 121},
    "samples": 20,
    "refine_rounds": 1,
    "refine_samples": 8,
    "pool": 2,
    "top_k": 2,
    "vary": {
        "hot.temperature": {"min": 0.50, "max": 0.66},
        "mid.temperature": {"min": 0.19, "max": 0.22},
        "hot.center": {"min": 1.4, "max": 1.9},
    },
    "lock": {
        "cold.center": {"source": "hot.center"},
        "cold.temperature": {"source": "mid.temperature", "offset": -0.01},
    },
}


def write_config(tmp_path, data, name="machine.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


class TestPoint:
    def test_matches_reference_values(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["point", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["point"]["j_hot"] == pytest.approx(
            0.00278666768099950900067367401566, rel=1e-12)
        assert payload["point"]["power"] == pytest.approx(
            -0.000914684430157568082948409201739, rel=1e-12)
        assert payload["mode"] == "engine"
        assert 0.0 <= payload["exergy"] <= 1.0

    def test_set_override(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["point", "--config", path, "--set", "hot.kappa=0.02"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["hot"]["kappa"] == 0.02
        assert payload["point"]["j_hot"] == pytest.approx(
            2 * 0.00278666768099950900067367401566, rel=1e-12)

    @pytest.mark.parametrize("override, message", [
        ("cold.kappa=-1", "field cold.kappa: kappa must be >= 0, got -1.0"),
        ("hot.width=0", "field hot.width: width must be > 0, got 0.0"),
        ("mid.gamma_m=inf", "field mid.gamma_m: gamma_m must be finite, got inf")])
    def test_set_rejected_value_names_its_field(self, capsys, override, message):
        argv = ["point", "--config", str(CONFIGS / "default.yaml"), "--set", override]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_field_names_path(self, tmp_path, capsys):
        broken = {k: dict(v) if isinstance(v, dict) else v
                  for k, v in BASE_CONFIG.items()}
        del broken["mid"]["temperature"]
        path = write_config(tmp_path, broken)
        assert main(["point", "--config", path]) == 1
        assert "mid.temperature" in capsys.readouterr().err

    def test_equal_temperatures_exit_one(self, tmp_path, capsys):
        equal = json.loads(json.dumps(BASE_CONFIG))
        equal["hot"]["temperature"] = 0.5
        equal["cold"]["temperature"] = 0.5
        path = write_config(tmp_path, equal)
        assert main(["point", "--config", path]) == 1
        assert capsys.readouterr().err == (
            "error: temperature ordering violated: need hot.temperature > "
            "mid.temperature > cold.temperature, got (0.5, 0.5, 0.5)\n")

    def test_relax_validation_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["point", "--config", str(CONFIGS / "default.yaml"),
                  "--relax-validation"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --relax-validation" in capsys.readouterr().err

    def test_validation_warning_on_stderr(self, tmp_path, capsys):
        noisy = json.loads(json.dumps(BASE_CONFIG))
        noisy["hot"]["kappa"] = 0.5
        path = write_config(tmp_path, noisy)
        assert main(["point", "--config", path]) == 0
        captured = capsys.readouterr()
        assert "perturbative" in captured.err
        assert json.loads(captured.out)["warnings"]

    def test_quantum_regime_warning(self, tmp_path, capsys):
        hot = json.loads(json.dumps(BASE_CONFIG))
        hot["hot"]["temperature"] = 1.4
        path = write_config(tmp_path, hot)
        assert main(["point", "--config", path]) == 0
        assert "quantum regime" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "report.json"
        assert main(["point", "--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["mode"] == "engine"


class TestSweep:
    def run_sweep(self, tmp_path, out_name, extra=()):
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / out_name
        rc = main(["sweep", "--config", path,
                   "--axis1", "drive_freq:0.1:0.8:15",
                   "--axis2", "hot.center:1.1:1.9:11",
                   "--out", str(out), *extra])
        assert rc == 0
        return out

    def test_writes_csv_and_manifest(self, tmp_path):
        out = self.run_sweep(tmp_path, "map.csv")
        lines = out.read_text().splitlines()
        assert lines[0].startswith("axis1,axis2,j_hot")
        assert len(lines) == 1 + 15 * 11
        manifest = json.loads((tmp_path / "map.csv.manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["sweep"]["axis1"]["param"] == "drive_freq"

    @pytest.mark.parametrize("json_flag,outputs", [
        ((), ["map.csv"]), (("--json",), ["map.csv", "map.csv.json"])])
    def test_manifest_lists_every_file_written(self, tmp_path, json_flag, outputs):
        self.run_sweep(tmp_path, "map.csv", json_flag)
        manifest = json.loads((tmp_path / "map.csv.manifest.json").read_text())
        assert manifest["outputs"] == outputs
        assert all((tmp_path / name).exists() for name in outputs)

    @pytest.mark.parametrize("axes", [
        ("hot.center:1.0:2.0:3", "hot.center_locked:1.2:1.8:4"),
        ("hot.center_locked:1.2:1.8:4", "cold.center:0.5:1.0:3")])
    def test_overlapping_axes_exit_one_and_write_nothing(self, tmp_path, capsys, axes):
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "ov.csv"
        assert main(["sweep", "--config", path, "--axis1", axes[0], "--axis2", axes[1],
                     "--json", "--out", str(out)]) == 1
        assert "sweep.axis2.param" in capsys.readouterr().err
        assert not list(tmp_path.glob("ov.csv*"))

    def test_threads_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            self.run_sweep(tmp_path, "a.csv", ("--threads", "1"))
        assert exc.value.code == 2

    def test_manifest_rerun_is_bitwise_identical(self, tmp_path):
        out = self.run_sweep(tmp_path, "map.csv", ("--json",))
        out2 = tmp_path / "rerun.csv"
        rc = main(["sweep", "--from-manifest",
                   str(tmp_path / "map.csv.manifest.json"),
                   "--out", str(out2), "--json"])
        assert rc == 0
        assert out.read_bytes() == out2.read_bytes()
        assert (tmp_path / "map.csv.json").read_bytes() == \
            (tmp_path / "rerun.csv.json").read_bytes()

    def test_axis_count_defaults_to_201(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "line.csv"
        rc = main(["sweep", "--config", path, "--axis1", "drive_freq:0.1:0.8",
                   "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 1 + 201

    def test_non_finite_axis_exits_one_naming_it(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "x.csv"
        rc = main(["sweep", "--config", path, "--axis1", "hot.center:1:inf:3",
                   "--out", str(out)])
        assert rc == 1
        assert "axis hot.center: stop must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_axis_is_validation_error(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        rc = main(["sweep", "--config", path, "--axis1", "drive_freq:0.1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "axis" in capsys.readouterr().err

    def _stderr(self, tmp_path, capsys, *args):
        out = tmp_path / "w.csv"
        assert main(["sweep", "--config", str(CONFIGS / "default.yaml"), *args,
                     "--out", str(out)]) == 0
        return capsys.readouterr().err.replace(str(out), "w.csv")

    def test_axis_out_of_regime_warns_once_naming_the_axis(self, tmp_path, capsys):
        # two corners have hot.kappa = 0.5; the template's 0.01 warns nothing
        err = self._stderr(tmp_path, capsys, "--axis1", "hot.kappa:0.0:0.5:5",
                           "--axis2", "drive_freq:0.1:0.9:3")
        assert err == ("warning: axis hot.kappa: hot.kappa = 0.5 >= 0.1: outside the "
                       "perturbative regime, results are uncontrolled\n"
                       "sweep: 15 cells (0 error cells) -> w.csv\n")

    def test_a_rule_of_both_axes_names_both(self, tmp_path, capsys):
        err = self._stderr(tmp_path, capsys, "--axis1", "wm.omega0:1.0:2.0:3",
                           "--axis2", "hot.temperature:0.6:1.5:4")
        assert err.splitlines()[0] == (
            "warning: axes wm.omega0 and hot.temperature: quantum regime violated: "
            "omega0 = 1.0 <= hot.temperature = 1.5")
        assert len(err.splitlines()) == 2

    def test_an_error_corner_hides_no_warning(self, tmp_path, capsys):
        # every cell at omega0 = 0.5 has its drive above omega0, an error
        # cell, and only there is omega0 below hot.temperature = 0.8
        err = self._stderr(tmp_path, capsys, "--axis1", "wm.omega0:0.5:2.0:4",
                           "--axis2", "drive_freq:0.6:0.9:3")
        assert err == ("warning: axis wm.omega0: quantum regime violated: "
                       "omega0 = 0.5 <= hot.temperature = 0.8\n"
                       "sweep: 12 cells (3 error cells) -> w.csv\n")

    @pytest.mark.parametrize("args", [
        ("--axis1", "drive_freq:0.02:0.9:5", "--axis2", "hot.center:1.0:2.0:4"),
        ("--axis1", "hot.kappa:0.0:0.05:3", "--axis2", "hot.width:0.01:0.4:3"),
        # the template's own warning is printed once, as for a point
        ("--axis1", "drive_freq:0.1:0.9:3", "--set", "hot.kappa=0.5")])
    def test_inside_the_regime_the_axes_add_no_warning(self, tmp_path, capsys, args):
        lines = self._stderr(tmp_path, capsys, *args).splitlines()
        assert lines[-1].startswith("sweep: ")
        assert len(lines) == 1 + ("--set" in args)


class TestTransistor:
    def test_trace_and_summary(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        config["hot"]["temperature"] = 0.6
        config["mid"]["temperature"] = 0.3
        config["cold"]["temperature"] = 0.28
        config["hot"]["center"] = 1.7
        config["cold"]["center"] = 1.7
        path = write_config(tmp_path, config)
        out = tmp_path / "trace.csv"
        rc = main(["transistor", "--config", path, "--omega-min", "0.05",
                   "--omega-max", "0.9", "--points", "201", "--out", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["threshold"] == 10.0
        assert summary["windows"], "expected a window for this machine"
        w = summary["windows"][0]
        assert w["omega_max"] > w["omega_min"]
        lines = out.read_text().splitlines()
        assert lines[0] == "omega_drive,j_hot,j_cold,j_mid,power,r,g,in_window"
        assert len(lines) == 202
        in_window = [row.split(",")[-1] for row in lines[1:]]
        assert set(in_window) == {"0", "1"}

    def test_csv_bytes_match_row_loop_reference(self, tmp_path, capsys):
        # reference: the original writer, one repr per numpy scalar
        config = str(CONFIGS / "transistor_search.yaml")
        out = tmp_path / "trace.csv"
        assert main(["transistor", "--config", config, "--out", str(out)]) == 0
        cfg = tt.MachineConfig.from_dict(yaml.safe_load(open(config)))
        grid = np.linspace(0.02, 0.98, 481)
        trace = tt.transistor_trace(cfg, grid)
        windows = windows_from_arrays(trace.omega, trace.r, trace.g,
                                      DEFAULT_THRESHOLD)
        in_window = window_mask(grid, windows)
        assert in_window.any()
        cols = (trace.omega, trace.j_hot, trace.j_cold, trace.j_mid,
                trace.power, trace.r, trace.g)
        want = "omega_drive,j_hot,j_cold,j_mid,power,r,g,in_window\n" + "".join(
            ",".join([*(repr(float(c[k])) for c in cols),
                      str(int(in_window[k]))]) + "\n" for k in range(grid.size))
        assert out.read_bytes() == want.encode()

    def test_transistor_and_search_share_one_default_grid_and_threshold(self):
        # one definition each, in core; the transistor layer re-exports the
        # threshold
        spec = tt.SearchSpec(objective="transistor_window",
                             vary={"hot.center": tt.VaryRange(1.0, 2.0)})
        assert ((spec.omega_start, spec.omega_stop, spec.omega_count)
                == tuple(cli._TRANSISTOR_DEFAULTS.values())[:3]
                == tt.core.DEFAULT_DRIVE_GRID == (0.02, 0.98, 481))
        assert DEFAULT_THRESHOLD is tt.core.DEFAULT_THRESHOLD
        assert spec.threshold == cli._TRANSISTOR_DEFAULTS["threshold"] == 10.0

    @pytest.mark.parametrize("threshold", ["nan", "-1", "0", "inf", "1e400"])
    def test_nonpositive_threshold_exits_one_naming_it(self, tmp_path, capsys,
                                                       threshold):
        path = write_config(tmp_path, BASE_CONFIG)
        out = tmp_path / "trace.csv"
        assert main(["transistor", "--config", path, "--points", "21",
                     "--threshold", threshold, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "threshold" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("points", [3, 5, 481])
    def test_grid_too_dense_for_its_span_names_its_field(self, tmp_path, capsys,
                                                         points):
        out = tmp_path / "trace.csv"
        assert main(["transistor", "--config", str(CONFIGS / "default.yaml"),
                     "--omega-min", "0.5", "--omega-max", "0.5000000000000001",
                     "--points", str(points), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: transistor.points must be lower: the ends 0.5 and "
            f"0.5000000000000001 are too close for {points} points\n")
        assert captured.out == "" and not out.exists()

    def test_nonfinite_trace_exits_one(self, tmp_path, capsys):
        # a hot peak center of 1e200 overflows the Lorentzian to NaN; the
        # command runs with numpy's warnings off, so none raises here
        out = tmp_path / "trace.csv"
        rc = main(["transistor", "--config", str(CONFIGS / "default.yaml"),
                   "--set", "hot.center=1e200", "--points", "5", "--out", str(out)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines()[-1].startswith("error: the closed forms give "
                                                        "nonfinite values along the omega grid")
        assert captured.out == "" and not out.exists()

    def test_rerun_from_manifest(self, tmp_path, capsys):
        config = json.loads(json.dumps(BASE_CONFIG))
        path = write_config(tmp_path, config)
        out = tmp_path / "trace.csv"
        assert main(["transistor", "--config", path, "--omega-min", "0.1",
                     "--omega-max", "0.8", "--points", "51",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        out2 = tmp_path / "trace2.csv"
        assert main(["transistor", "--from-manifest",
                     str(tmp_path / "trace.csv.manifest.json"),
                     "--out", str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()


class TestSearch:
    def test_seeded_search_is_deterministic(self, tmp_path, capsys):
        config = dict(BASE_CONFIG)
        config["search"] = SEARCH_SECTION
        path = write_config(tmp_path, config)
        assert main(["search", "--config", path, "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["search", "--config", path, "--seed", "9"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["seed"] == 9
        assert payload["candidates"]

    def test_two_terminal_override(self, tmp_path, capsys):
        config = dict(BASE_CONFIG)
        config["search"] = SEARCH_SECTION
        path = write_config(tmp_path, config)
        assert main(["search", "--config", path, "--seed", "9",
                     "--set", "cold.kappa=0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == "transistor_window"

    @pytest.mark.parametrize("objective", ["mode_sequence", "transistor_window"])
    def test_overflowing_candidates_score_minus_inf(self, tmp_path, capsys, objective):
        # hot centers up to 1e200 against a cold peak at 0.05: NaN j_hot and
        # power beside a positive j_cold once exited 2 (forbidden octant)
        config = {**BASE_CONFIG, "cold": {**BASE_CONFIG["cold"], "center": 0.05},
                  "search": {"objective": objective, "samples": 20, "refine_rounds": 0,
                             "vary": {"hot.center": {"min": 1.0, "max": 1.0e+200,
                                                     "scale": "log"}}}}
        path = write_config(tmp_path, config)
        assert main(["search", "--config", path, "--seed", "1"]) == 0
        candidates = json.loads(capsys.readouterr().out)["candidates"]
        assert len(candidates) == 5
        assert all(math.isfinite(c["score"]) for c in candidates)

    def test_missing_search_section(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["search", "--config", path]) == 1
        assert "search" in capsys.readouterr().err

    @pytest.mark.parametrize("name,value", [("refine_samples", -1), ("pool", 0),
                                            ("top_k", 0), ("shrink", -0.5),
                                            ("threshold", 0.0)])
    def test_out_of_range_field_exits_one_naming_it(self, tmp_path, capsys,
                                                     name, value):
        config = dict(BASE_CONFIG)
        config["search"] = {**SEARCH_SECTION, name: value}
        path = write_config(tmp_path, config)
        assert main(["search", "--config", path, "--seed", "1"]) == 1
        assert f"search.{name}" in capsys.readouterr().err

    def test_empty_feasible_space_warns_and_exits_zero(self, tmp_path, capsys):
        config = dict(BASE_CONFIG)
        section = json.loads(json.dumps(SEARCH_SECTION))
        # every sampled hot temperature sits below the mid temperature
        section["vary"]["hot.temperature"] = {"min": 0.05, "max": 0.1}
        config["search"] = section
        path = write_config(tmp_path, config)
        assert main(["search", "--config", path, "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert "empty feasible space" in captured.err
        assert json.loads(captured.out)["candidates"] == []

    def test_out_file_and_manifest(self, tmp_path):
        config = dict(BASE_CONFIG)
        config["search"] = SEARCH_SECTION
        path = write_config(tmp_path, config)
        out = tmp_path / "candidates.json"
        assert main(["search", "--config", path, "--seed", "3",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["candidates"]
        manifest = json.loads((tmp_path / "candidates.json.manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["search"]["objective"] == "transistor_window"

    def test_manifest_rerun_is_bitwise_identical(self, tmp_path, capsys):
        # the config lists search.vary out of alphabetical order; the
        # manifest must keep that order, which fixes the hypercube axes
        out = tmp_path / "search.json"
        assert main(["search", "--config", str(CONFIGS / "transistor_search.yaml"),
                     "--seed", "5", "--out", str(out)]) == 0
        rerun = tmp_path / "rerun.json"
        assert main(["search", "--from-manifest",
                     str(tmp_path / "search.json.manifest.json"),
                     "--out", str(rerun)]) == 0
        assert out.read_bytes() == rerun.read_bytes()

    def test_misspelled_range_key_names_path(self, tmp_path, capsys):
        config = dict(BASE_CONFIG)
        section = json.loads(json.dumps(SEARCH_SECTION))
        section["vary"]["hot.temperature"] = {"low": 0.5, "max": 0.66}
        config["search"] = section
        path = write_config(tmp_path, config)
        assert main(["search", "--config", path]) == 1
        assert "search.vary.hot.temperature.min" in capsys.readouterr().err


def _manifest_for(tmp_path, command):
    """Run ``command`` once and return the path of its manifest."""
    config = dict(BASE_CONFIG, search=SEARCH_SECTION)
    path = write_config(tmp_path, config)
    out = str(tmp_path / f"{command}.out")
    extra = {"sweep": ["--axis1", "drive_freq:0.1:0.8:5"],
             "transistor": ["--points", "21"],
             "search": [], "point": []}[command]
    assert main([command, "--config", path, *extra, "--out", out]) == 0
    return tmp_path / f"{command}.out.manifest.json"


class TestManifestErrors:
    @pytest.mark.parametrize("command", ["point", "sweep", "transistor", "search"])
    def test_missing_section_names_it(self, tmp_path, capsys, command):
        manifest = _manifest_for(tmp_path, command)
        data = json.loads(manifest.read_text())
        del data[command]
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([command, "--from-manifest", str(manifest),
                     "--out", str(tmp_path / "rerun")]) == 1
        assert f"no '{command}' section" in capsys.readouterr().err

    def _rerun_with_backend(self, tmp_path, capsys, backend):
        manifest = _manifest_for(tmp_path, "sweep")
        data = json.loads(manifest.read_text())
        assert "backend" not in data
        data["backend"] = backend
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        rerun = tmp_path / "rerun.csv"
        assert main(["sweep", "--from-manifest", str(manifest),
                     "--out", str(rerun)]) == 1
        assert "error: unknown field: manifest.backend" in capsys.readouterr().err
        assert not rerun.exists()

    def test_foreign_backend_is_rejected(self, tmp_path, capsys):
        self._rerun_with_backend(tmp_path, capsys, "numba")

    def test_numpy_backend_is_an_unknown_field(self, tmp_path, capsys):
        # older manifests recorded the kernel backend; no kernel choice remains
        self._rerun_with_backend(tmp_path, capsys, "numpy")

    def _rerun(self, tmp_path, command, edit):
        manifest = _manifest_for(tmp_path, command)
        data = json.loads(manifest.read_text())
        edit(data[command])
        manifest.write_text(json.dumps(data))
        return main([command, "--from-manifest", str(manifest),
                     "--out", str(tmp_path / "rerun")])

    def test_sweep_axis_with_wrong_key_names_field(self, tmp_path, capsys):
        def rename_count(section):
            section["axis1"]["steps"] = section["axis1"].pop("count")
        assert self._rerun(tmp_path, "sweep", rename_count) == 1
        assert "sweep.axis1.count" in capsys.readouterr().err

    @pytest.mark.parametrize("outputs", ["currents", ["currents", 1]],
                             ids=["bare_string", "mixed_list"])
    def test_sweep_outputs_not_a_list_of_names(self, tmp_path, capsys, outputs):
        def replace(section):
            section["outputs"] = outputs
        assert self._rerun(tmp_path, "sweep", replace) == 1
        assert "sweep.outputs" in capsys.readouterr().err

    def test_transistor_points_as_string_names_field(self, tmp_path, capsys):
        def stringify(section):
            section["points"] = "21"
        assert self._rerun(tmp_path, "transistor", stringify) == 1
        assert "transistor.points" in capsys.readouterr().err

    def test_transistor_nan_threshold_names_field(self, tmp_path, capsys):
        def set_nan(section):
            section["threshold"] = float("nan")   # json writes NaN
        assert self._rerun(tmp_path, "transistor", set_nan) == 1
        assert "threshold" in capsys.readouterr().err

    def test_transistor_overflowing_threshold_names_field(self, tmp_path, capsys):
        manifest = _manifest_for(tmp_path, "transistor")
        data = json.loads(manifest.read_text())
        data["transistor"]["threshold"] = "THRESHOLD"
        # json reads 1e400 as inf
        manifest.write_text(json.dumps(data).replace('"THRESHOLD"', "1e400"))
        capsys.readouterr()
        assert main(["transistor", "--from-manifest", str(manifest),
                     "--out", str(tmp_path / "rerun")]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: transistor.threshold must be finite and > 0, "
                                "got inf\n")
        assert captured.out == "" and not (tmp_path / "rerun").exists()

    def test_transistor_step_of_older_manifests_is_an_unknown_field(self, tmp_path,
                                                                   capsys):
        # older manifests carry the finite-difference step of the drive slopes
        def add_step(section):
            assert "step" not in section
            section["step"] = 1e-5
        assert self._rerun(tmp_path, "transistor", add_step) == 1
        assert "error: unknown field: transistor.step" in capsys.readouterr().err
        assert not (tmp_path / "rerun").exists()


# Flags of each run whose manifest must rerun it byte for byte
RUNS = {
    "point_set": ["point", "--set", "hot.kappa=0.02"],
    "sweep_1d": ["sweep", "--axis1", "drive_freq:0.1:0.8:7"],
    "sweep_2d_json": ["sweep", "--axis1", "drive_freq:0.1:0.8:7",
                      "--axis2", "hot.center:1.2:1.6:5", "--json"],
    "sweep_outputs_error_cells": ["sweep", "--axis1", "hot.temperature:0.1:1.5:9",
                                  "--axis2", "drive_freq:0.1:0.8:4",
                                  "--outputs", "mode,transistor"],
    "transistor_defaults": ["transistor"],
    "transistor_every_flag": ["transistor", "--omega-min", "0.05", "--omega-max", "0.9",
                              "--points", "41", "--threshold", "3",
                              "--set", "hot.kappa=0.02"],
    "search_every_flag": ["search", "--seed", "4", "--threshold", "5", "--top-k", "1"],
}

# Each run flag, with a value, of a command; none may be given beside
# --from-manifest
RUN_FLAGS = [("point", ["--config", "x.yaml"]), ("point", ["--set", "hot.kappa=0.02"]),
             ("sweep", ["--axis1", "drive_freq:0.1:0.8:5"]),
             ("sweep", ["--axis2", "hot.center:1.2:1.6:3"]),
             ("sweep", ["--outputs", "mode"]), ("sweep", ["--set", "hot.kappa=0.02"]),
             ("transistor", ["--omega-min", "0.02"]),
             ("transistor", ["--omega-max", "0.5"]),
             ("transistor", ["--points", "21"]), ("transistor", ["--threshold", "10"]),
             ("search", ["--seed", "0"]), ("search", ["--threshold", "5"]),
             ("search", ["--top-k", "1"]), ("search", ["--config", "x.yaml"])]


class TestRunPath:
    """Every command builds its manifest from its flags and runs that
    manifest only, so the manifest reruns it exactly."""

    def _first(self, tmp_path, argv, config=BASE_CONFIG):
        """Run ``argv`` from a config into ``first/out``; the manifest's path."""
        path = write_config(tmp_path, dict(config, search=SEARCH_SECTION))
        (tmp_path / "first").mkdir()
        out = tmp_path / "first" / "out"
        assert main([argv[0], "--config", path, *argv[1:], "--out", str(out)]) == 0
        return pathlib.Path(str(out) + ".manifest.json")

    @pytest.mark.parametrize("argv", RUNS.values(), ids=RUNS.keys())
    def test_rerun_is_byte_identical(self, tmp_path, capsys, argv):
        manifest = self._first(tmp_path, argv)
        first_out = capsys.readouterr().out
        (tmp_path / "rerun").mkdir()
        json_flag = ["--json"] if "--json" in argv else []
        assert main([argv[0], "--from-manifest", str(manifest), *json_flag,
                     "--out", str(tmp_path / "rerun" / "out")]) == 0
        assert capsys.readouterr().out == first_out
        files = sorted(p.name for p in (tmp_path / "first").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "rerun").iterdir())
        assert "out.manifest.json" in files
        for name in files:
            first, rerun = (tmp_path / d / name for d in ("first", "rerun"))
            if name.endswith(".manifest.json"):
                first, rerun = (json.loads(f.read_text()) for f in (first, rerun))
                del first["timestamp"], rerun["timestamp"]
                assert first == rerun
            else:
                assert first.read_bytes() == rerun.read_bytes(), name

    def test_point_manifest_records_an_empty_section(self, tmp_path):
        data = json.loads(self._first(tmp_path, ["point"]).read_text())
        assert data["command"] == "point" and data["point"] == {}
        assert data["seed"] is None and data["outputs"] == ["out"]

    @pytest.mark.parametrize("command,flag", RUN_FLAGS,
                             ids=[f"{c}{f[0]}" for c, f in RUN_FLAGS])
    def test_run_flag_beside_manifest_exits_one_naming_it(self, tmp_path, capsys,
                                                          command, flag):
        manifest = _manifest_for(tmp_path, command)
        capsys.readouterr()
        rerun = tmp_path / "rerun"
        assert main([command, "--from-manifest", str(manifest), *flag,
                     "--out", str(rerun)]) == 1
        err = capsys.readouterr().err
        assert f"error: {flag[0]} cannot be given with --from-manifest" in err
        assert not rerun.exists()

    @pytest.mark.parametrize("where,command", [
        *((where, command) for where in ("section", "manifest")
          for command in ("point", "sweep", "transistor", "search")),
        ("sweep.axis1", "sweep")])
    def test_unknown_key_exits_one_naming_it(self, tmp_path, capsys, command, where):
        manifest = _manifest_for(tmp_path, command)
        data = json.loads(manifest.read_text())
        path = {"section": [command], "manifest": []}.get(where, where.split("."))
        entry = data
        for key in path:
            entry = entry[key]
        entry["cuont"] = 7
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        rerun = tmp_path / "rerun"
        assert main([command, "--from-manifest", str(manifest),
                     "--out", str(rerun)]) == 1
        named = ".".join(path) or "manifest"
        assert f"error: unknown field: {named}.cuont" in capsys.readouterr().err
        assert not rerun.exists()

    @pytest.mark.parametrize("command", ["point", "sweep", "transistor", "search"])
    def test_reversed_temperatures_exit_one(self, tmp_path, capsys, command):
        manifest = _manifest_for(tmp_path, command)
        data = json.loads(manifest.read_text())
        data["config"]["hot"]["temperature"] = 0.1   # below mid and cold
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        rerun = tmp_path / "rerun"
        assert main([command, "--from-manifest", str(manifest),
                     "--out", str(rerun)]) == 1
        assert "temperature ordering violated" in capsys.readouterr().err
        assert not rerun.exists()

    @pytest.mark.parametrize("command", ["point", "sweep", "transistor"])
    def test_equal_temperatures_in_manifest_exit_one(self, tmp_path, capsys, command):
        # a manifest is validated as strictly as the config that wrote it
        manifest = _manifest_for(tmp_path, command)
        data = json.loads(manifest.read_text())
        data["config"]["hot"]["temperature"] = data["config"]["mid"]["temperature"]
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        rerun = tmp_path / "rerun"
        assert main([command, "--from-manifest", str(manifest),
                     "--out", str(rerun)]) == 1
        captured = capsys.readouterr()
        assert "error: temperature ordering violated" in captured.err
        assert captured.out == "" and not rerun.exists()
        assert not pathlib.Path(str(rerun) + ".manifest.json").exists()

    def test_rerun_prints_the_config_warnings(self, tmp_path, capsys):
        manifest = self._first(tmp_path, ["sweep", "--axis1", "drive_freq:0.1:0.8:5",
                                          "--set", "hot.kappa=0.5"])
        assert "perturbative" in capsys.readouterr().err
        assert main(["sweep", "--from-manifest", str(manifest),
                     "--out", str(tmp_path / "rerun.csv")]) == 0
        assert "warning: hot.kappa = 0.5" in capsys.readouterr().err


def _walk(node, path=()):
    """``(path, value)`` of every entry below a manifest mapping."""
    for key, value in node.items():
        yield path + (key,), value
        if isinstance(value, dict):
            yield from _walk(value, path + (key,))


def _named(path) -> str:
    """How an error names the field at ``path``: config fields by their
    path inside the config, as a YAML file spells them."""
    return ".".join(path[1:] if path[0] == "config" else path)


# Fields whose removal leaves a valid manifest: defaults and optional parts.
_OPTIONAL = {("sweep", "axis2"), ("config", "wm"), ("config", "mid", "gamma_m"),
             *(("search", k) for k in ("objective", "lock", "omega_grid", "threshold",
                                       "samples", "refine_rounds", "refine_samples",
                                       "pool", "shrink", "top_k"))}


def _required(path) -> bool:
    """Whether dropping the field at ``path`` leaves a malformed manifest."""
    if path[:2] in _OPTIONAL or path[:3] in _OPTIONAL:
        return False
    if path[:2] in {("search", "vary"), ("search", "lock")} and len(path) > 2:
        # entries may come and go; inside one, min, max and source are required
        return len(path) == 4 and path[3] in {"min", "max", "source"}
    return True


# Values only a YAML file produces where a number belongs
_YAML_ONLY = [("nan", math.nan), ("inf", math.inf),
              ("date", datetime.date(2024, 1, 1)), ("list", [1.0])]


def _mutations(sections, extra=()):
    """``(path, label, value)`` of every malformed edit of the mapping
    ``sections``: a section replaced by a list or a string; a field replaced
    by a string, null, a bool, a negative number or one of ``extra``; a
    required field dropped."""
    for path, value in _walk(sections):
        if isinstance(value, dict):
            yield from ((path, label, v) for label, v in (("list", [1]), ("str", "x")))
        else:
            kinds = [("str", "x"), ("null", None), ("bool", True), *extra]
            if path[-1] != "offset":   # a lock offset may be negative
                kinds.append(("negative", -1))
            yield from ((path, label, v) for label, v in kinds)
        if _required(path):
            yield path, "drop", KeyError


def _edited(data, path, value):
    """A copy of ``data`` with the field at ``path`` set to ``value``, or
    dropped if ``value`` is KeyError."""
    data = copy.deepcopy(data)
    node = data
    for key in path[:-1]:
        node = node[key]
    if value is KeyError:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return data


class TestMalformedManifests:
    """Every malformed manifest exits 1 naming its field, without a traceback."""

    EXTRA = {"sweep": ["--axis1", "drive_freq:0.1:0.8:5",
                       "--axis2", "hot.center:1.2:1.6:3"],
             "transistor": ["--points", "21"],
             "search": [], "point": []}

    def _written(self, tmp_path, command) -> dict:
        path = write_config(tmp_path, dict(BASE_CONFIG, search=SEARCH_SECTION))
        out = str(tmp_path / "run.out")
        assert main([command, "--config", path, *self.EXTRA[command], "--out", out]) == 0
        return json.loads(pathlib.Path(out + ".manifest.json").read_text())

    @pytest.mark.parametrize("command", ["point", "sweep", "transistor", "search"])
    def test_each_mutation_names_its_field(self, tmp_path, capsys, command):
        written = self._written(tmp_path, command)
        edited = tmp_path / "edited.json"
        failures, count = [], 0
        sections = {command: written[command], "config": written["config"]}
        if command == "search":
            sections["seed"] = written["seed"]
        for field, label, value in _mutations(sections):
            edited.write_text(json.dumps(_edited(written, field, value)))
            capsys.readouterr()
            code = main([command, "--from-manifest", str(edited),
                         "--out", str(tmp_path / "rerun")])
            err = capsys.readouterr().err
            count += 1
            if code != 1 or _named(field) not in err or "Traceback" in err:
                failures.append(f"{'.'.join(field)} {label}: exit {code}, {err.strip()!r}")
        assert count > 40
        assert not failures, "\n".join(failures)

    @pytest.mark.parametrize("key,value,named", [
        ("axis1", {"param": "drive_freq", "start": 0.1, "stop": 1.5, "count": 5},
         "sweep.axis1.stop"),
        ("axis2", {"param": "drive_freq", "start": 0.1, "stop": 0.5, "count": 3},
         "sweep.axis2.param"),
        ("axis2", False, "sweep.axis2"),
        ("outputs", ["currents", "flux"], "sweep.outputs")],
        ids=["drive_beyond_omega0", "same_param_twice", "axis2_false", "unknown_output"])
    def test_sweep_spec_errors_name_their_field(self, tmp_path, capsys, key, value, named):
        data = self._written(tmp_path, "sweep")
        data["sweep"][key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["sweep", "--from-manifest", str(edited),
                     "--out", str(tmp_path / "rerun")]) == 1
        assert named in capsys.readouterr().err


class TestMalformedConfigs:
    """Every malformed YAML config exits 1 naming its dotted field, without a
    traceback: the machine fields through ``point``, the search section
    through ``search``; the values include those only YAML produces."""

    @pytest.mark.parametrize("command,section", [("point", "config"),
                                                 ("search", "search")])
    def test_each_mutation_names_its_field(self, tmp_path, capsys, command, section):
        base = {"config": BASE_CONFIG, "search": SEARCH_SECTION}
        failures, count = [], 0
        for field, label, value in _mutations({section: base[section]}, _YAML_ONLY):
            data = _edited(base, field, value)
            if section == "config":
                config = data.get("config", {})
            else:   # dropping the whole section leaves a config without it
                config = dict(BASE_CONFIG, **{k: data[k] for k in data if k == "search"})
            path = write_config(tmp_path, config)
            capsys.readouterr()
            try:
                code = main([command, "--config", path])
            except Exception as exc:   # a traceback: recorded, not raised
                code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            count += 1
            if code != 1 or _named(field) not in err or "Traceback" in err:
                failures.append(f"{'.'.join(field)} {label}: exit {code}, {err.strip()!r}")
        assert count > 100
        assert not failures, "\n".join(failures)


# The YAML loaders PyYAML has here: the pure-Python one, and libyaml's
_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


class TestYamlLoader:
    """Configs are parsed by libyaml where PyYAML was built with it, by the
    pure-Python parser otherwise, with the same results."""

    def test_libyaml_is_used_where_present(self):
        assert cli._YAML_LOADER is _LOADERS[-1]

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
    def test_loaders_build_equal_dicts(self, path):
        text = path.read_text()
        loaded = [yaml.load(text, Loader=loader) for loader in _LOADERS]
        # repr, so an int read as a float (or the reverse) differs too
        assert all(repr(x) == repr(loaded[0]) for x in loaded)
        assert loaded[0]["hot"]["temperature"] > 0

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda x: x.__name__)
    def test_point_runs_under_each_loader(self, monkeypatch, capsys, loader):
        assert main(["point", "--config", str(CONFIGS / "default.yaml")]) == 0
        want = capsys.readouterr().out
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        assert main(["point", "--config", str(CONFIGS / "default.yaml")]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("loader", _LOADERS, ids=lambda x: x.__name__)
    def test_malformed_yaml_exits_one_under_each_loader(self, monkeypatch, tmp_path,
                                                        capsys, loader):
        monkeypatch.setattr(cli, "_YAML_LOADER", loader)
        path = _text_file(tmp_path, "bad.yaml", "hot: {temperature: [\n")
        assert main(["point", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse config {path}: ")
        assert "Traceback" not in err


class TestUnknownConfigFields:
    @pytest.mark.parametrize("section,key", [("wm", "omga0"), ("mid", "gama_m"),
                                             ("hot", "centre"), ("cold", "kapa")])
    def test_yaml_typo_names_field(self, tmp_path, capsys, section, key):
        config = json.loads(json.dumps(BASE_CONFIG))
        config[section][key] = 2.0
        assert main(["point", "--config", write_config(tmp_path, config)]) == 1
        assert f"unknown field: {section}.{key}" in capsys.readouterr().err

    def test_top_level_stays_open(self, tmp_path):
        config = dict(BASE_CONFIG, search=SEARCH_SECTION, notes="a comment")
        assert main(["point", "--config", write_config(tmp_path, config)]) == 0

    @pytest.mark.parametrize("where", [("refine_round",), ("vary", "hot.center", "scal"),
                                       ("lock", "cold.center", "ofset"),
                                       ("omega_grid", "cnt")])
    @pytest.mark.parametrize("source", ["config", "manifest"])
    def test_search_typo_names_field(self, tmp_path, capsys, source, where):
        config = json.loads(json.dumps(dict(BASE_CONFIG, search=SEARCH_SECTION)))
        if source == "config":
            section, data = config["search"], config
        else:
            manifest = _manifest_for(tmp_path, "search")
            data = json.loads(manifest.read_text())
            section = data["search"]
        for key in where[:-1]:
            section = section[key]
        section[where[-1]] = 1
        if source == "config":
            argv = ["search", "--config", write_config(tmp_path, data)]
        else:
            manifest.write_text(json.dumps(data))
            argv = ["search", "--from-manifest", str(manifest)]
        capsys.readouterr()
        assert main([*argv, "--out", str(tmp_path / "rerun.json")]) == 1
        err = capsys.readouterr().err
        assert f"unknown field: search.{'.'.join(where)}" in err
        assert "Traceback" not in err

    def test_manifest_config_typo_names_field(self, tmp_path, capsys):
        manifest = _manifest_for(tmp_path, "sweep")
        data = json.loads(manifest.read_text())
        data["config"]["wm"]["omga0"] = 2.0
        manifest.write_text(json.dumps(data))
        assert main(["sweep", "--from-manifest", str(manifest),
                     "--out", str(tmp_path / "rerun.csv")]) == 1
        assert "unknown field: wm.omga0" in capsys.readouterr().err


def _text_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _search_config(tmp_path, **changes):
    return write_config(tmp_path, dict(BASE_CONFIG, search=dict(SEARCH_SECTION, **changes)))


# Runs that fail: the argv made in tmp_path, the exit code and the message
FAILING_RUNS = {
    "yaml_syntax": (lambda tmp: [
        "point", "--config", _text_file(tmp, "bad.yaml", "hot: {temperature: [\n")],
        1, "cannot parse config"),
    "set_without_value": (lambda tmp: [
        "point", "--config", write_config(tmp, BASE_CONFIG), "--set", "hot.kappa"],
        1, "--set expects key=value"),
    "set_not_a_number": (lambda tmp: [
        "point", "--config", write_config(tmp, BASE_CONFIG), "--set", "hot.kappa=abc"],
        1, "value must be a number"),
    "manifest_a_list": (lambda tmp: [
        "point", "--from-manifest", _text_file(tmp, "list.json", "[]")],
        1, "must contain a mapping"),
    "manifest_of_another_command": (lambda tmp: [
        "transistor", "--from-manifest", str(_manifest_for(tmp, "sweep")),
        "--out", str(tmp / "t.csv")], 1, "was written by 'sweep'"),
    "point_without_config": (lambda tmp: ["point"], 1, "needs --config"),
    "malformed_axis": (lambda tmp: [
        "sweep", "--config", write_config(tmp, BASE_CONFIG), "--axis1", "drive_freq:a:b:5",
        "--out", str(tmp / "s.csv")], 1, "malformed axis"),
    "sweep_without_axis1": (lambda tmp: [
        "sweep", "--config", write_config(tmp, BASE_CONFIG), "--out", str(tmp / "s.csv")],
        1, "needs --axis1"),
    "out_in_missing_directory": (lambda tmp: [
        "point", "--config", write_config(tmp, BASE_CONFIG),
        "--out", str(tmp / "missing" / "p.json")], 2, "error: [Errno 2]"),
    "search_varies_unknown_parameter": (lambda tmp: [
        "search", "--config",
        _search_config(tmp, vary={"hot.temp": {"min": 0.5, "max": 0.6}})],
        1, "unknown parameter"),
    "search_omega_grid_an_empty_list": (lambda tmp: [
        "search", "--config", _search_config(tmp, omega_grid=[])],
        1, "search.omega_grid must be a mapping"),
    "search_lock_zero": (lambda tmp: [
        "search", "--config", _search_config(tmp, lock=0)],
        1, "search.lock must be a mapping"),
    "search_omega_grid_reaches_omega0": (lambda tmp: [
        "search", "--config",
        _search_config(tmp, omega_grid={"start": 0.5, "stop": 1.5, "count": 481})],
        1, "error: search.omega_grid.stop must be < omega0 = 1.0, got 1.5\n"),
    "sweep_axis_too_dense": (lambda tmp: [
        "sweep", "--config", write_config(tmp, BASE_CONFIG),
        "--axis1", "drive_freq:0.5:0.5000000000000001:5", "--out", str(tmp / "a.csv")],
        1, "field sweep.axis1.count: axis drive_freq: count must be lower: the ends "
           "0.5 and 0.5000000000000001 are too close for 5 points"),
    "varied_and_locked": (lambda tmp: [
        "search", "--config",
        _search_config(tmp, lock={"hot.center": {"source": "hot.temperature"}})],
        1, "both varied and locked"),
}


class TestErrors:
    @pytest.mark.parametrize("run", FAILING_RUNS)
    def test_failing_run_exits_naming_its_cause(self, tmp_path, capsys, run):
        make_argv, code, message = FAILING_RUNS[run]
        argv = make_argv(tmp_path)
        manifests = set(tmp_path.rglob("*.manifest.json"))
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert set(tmp_path.rglob("*.manifest.json")) == manifests

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_transistor_points_below_one_names_field(self, tmp_path, capsys, points):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["transistor", "--config", path, "--points", points,
                     "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert "transistor.points must be >= 1" in err
        assert not (tmp_path / "t.csv").exists()

    def test_manifest_transistor_points_below_one_names_field(self, tmp_path, capsys):
        manifest = _manifest_for(tmp_path, "transistor")
        data = json.loads(manifest.read_text())
        data["transistor"]["points"] = -1
        manifest.write_text(json.dumps(data))
        assert main(["transistor", "--from-manifest", str(manifest),
                     "--out", str(tmp_path / "rerun")]) == 1
        assert "transistor.points must be >= 1" in capsys.readouterr().err

    def test_axis_count_beyond_intp_names_count(self, tmp_path, capsys):
        # rejected before np.linspace is asked to size the array
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["sweep", "--config", path, "--axis1",
                     "drive_freq:0.1:0.5:" + "1" + "0" * 30,
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert "axis drive_freq: count must be >= 2 and <=" in capsys.readouterr().err

    def test_manifest_axis_count_beyond_intp_names_field(self, tmp_path, capsys):
        manifest = _manifest_for(tmp_path, "sweep")
        data = json.loads(manifest.read_text())
        data["sweep"]["axis1"]["count"] = 10**30
        manifest.write_text(json.dumps(data))
        assert main(["sweep", "--from-manifest", str(manifest),
                     "--out", str(tmp_path / "rerun.csv")]) == 1
        assert "sweep.axis1.count" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [10**30, np.iinfo(np.intp).max],
                             ids=["1e30", "intp_max"])
    @pytest.mark.parametrize("field", ["omega_grid.count", "samples", "refine_samples"])
    def test_search_count_numpy_cannot_size_names_field(self, tmp_path, capsys,
                                                        field, count):
        section = json.loads(json.dumps(SEARCH_SECTION))
        if field == "omega_grid.count":
            section["omega_grid"]["count"] = int(count)
        else:
            section[field] = int(count)
        path = write_config(tmp_path, dict(BASE_CONFIG, search=section))
        assert main(["search", "--config", path]) == 1
        err = capsys.readouterr().err
        assert f"search.{field} must be >=" in err and "Traceback" not in err

    def test_axis_count_at_intp_max_names_count(self, tmp_path, capsys):
        # np.linspace fails at the intp bound itself; MAX_COUNT lies below it
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["sweep", "--config", path, "--axis1",
                     f"drive_freq:0.1:0.5:{np.iinfo(np.intp).max}",
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert "axis drive_freq: count must be >= 2 and <=" in capsys.readouterr().err

    def test_grid_cells_beyond_bound_name_axis2(self, tmp_path, capsys):
        # each axis is under the bound, their product is not
        path = write_config(tmp_path, BASE_CONFIG)
        count = int(np.sqrt(float(MAX_COUNT))) * 2
        assert main(["sweep", "--config", path,
                     "--axis1", f"drive_freq:0.1:0.5:{count}",
                     "--axis2", f"hot.center:1.0:2.0:{count}",
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert "field sweep.axis2.count" in capsys.readouterr().err

    @pytest.mark.parametrize("count", [10**30, np.iinfo(np.intp).max],
                             ids=["1e30", "intp_max"])
    def test_transistor_points_numpy_cannot_size_names_field(self, tmp_path, capsys,
                                                             count):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["transistor", "--config", path, "--points", str(count),
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert "transistor.points must be >= 1 and <=" in capsys.readouterr().err

    def test_config_not_utf8_names_file(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"drive_freq: 0.5\n# \xff\n")
        assert main(["point", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"config file {path} is not UTF-8" in err and "Traceback" not in err

    def test_manifest_not_utf8_names_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"command": "\xff"}')
        assert main(["sweep", "--from-manifest", str(path),
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert f"manifest file {path} is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["point", "sweep", "transistor", "search"])
    def test_missing_manifest_exits_1_naming_file(self, tmp_path, capsys, command):
        # as a missing --config does, not exit 2 with a bare OSError
        path = tmp_path / "missing.json"
        assert main([command, "--from-manifest", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"manifest file not found: {path}" in capsys.readouterr().err

    def test_config_that_is_a_directory_names_file(self, tmp_path, capsys):
        # exit 1 naming the role, not exit 2 with a bare OSError
        assert main(["point", "--config", str(tmp_path)]) == 1
        assert f"cannot read config file {tmp_path}" in capsys.readouterr().err

    def test_manifest_that_is_a_directory_names_file(self, tmp_path, capsys):
        assert main(["sweep", "--from-manifest", str(tmp_path),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert f"cannot read manifest file {tmp_path}" in capsys.readouterr().err

    def test_search_grid_not_increasing_exits_before_any_kernel_call(
            self, tmp_path, capsys, monkeypatch):
        # np.linspace repeats values when start and stop are this close
        calls = []
        real = tt.search.thermo_batch
        monkeypatch.setattr(tt.search, "thermo_batch",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        section = json.loads(json.dumps(SEARCH_SECTION))
        section["omega_grid"] = {"start": 0.5, "stop": 0.5000000000000010, "count": 481}
        path = write_config(tmp_path, dict(BASE_CONFIG, search=section))
        assert main(["search", "--config", path, "--seed", "7"]) == 1
        assert ("search.omega_grid.count must be lower: the ends 0.5 and 0.500000000000001 "
                "are too close for 481 points") in capsys.readouterr().err
        assert calls == []

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["point", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_drive_out_of_range_is_validation_error(self, tmp_path, capsys):
        bad = dict(BASE_CONFIG, drive_freq=1.5)
        path = write_config(tmp_path, bad)
        assert main(["point", "--config", path]) == 1
        assert "drive_freq" in capsys.readouterr().err


class TestEntryPoint:
    """``python -m tritherm`` in a fresh interpreter, as a shell runs it."""

    SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

    def _run(self, *argv, cwd, python=("-m", "tritherm"), limit=None):
        """The command ``argv`` in a fresh interpreter started with the
        arguments ``python``, its address space capped at ``limit`` bytes."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.SRC), env.get("PYTHONPATH")) if p)
        if limit:   # OpenBLAS reserves address space per thread
            env["OPENBLAS_NUM_THREADS"] = "1"

        def cap():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        return subprocess.run([sys.executable, *python, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120,
                              preexec_fn=cap if limit else None)

    def test_point_exits_zero(self, tmp_path):
        proc = self._run("point", "--config", str(CONFIGS / "default.yaml"),
                         cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["mode"] == "engine"

    def test_overflowing_sweep_prints_no_numpy_warning(self, tmp_path):
        # hot peak centers up to 1e200 give inf / inf in the kernel: the
        # error-cell count reports them, numpy's RuntimeWarning does not
        proc = self._run("sweep", "--config", str(CONFIGS / "default.yaml"),
                         "--axis1", "drive_freq:0.1:0.9:5",
                         "--axis2", "hot.center:1.0:1e200:5", "--out", "x.csv",
                         cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "sweep: 25 cells (20 error cells) -> x.csv\n"
        error_column = [line.rsplit(",", 1)[1] for line in
                        (tmp_path / "x.csv").read_text().splitlines()[1:]]
        assert error_column.count("nonfinite kernel result") == 20

    def test_nan_threshold_exits_one(self, tmp_path):
        proc = self._run("transistor", "--config", str(CONFIGS / "default.yaml"),
                         "--threshold", "nan", "--out", "trace.csv", cwd=tmp_path)
        assert proc.returncode == 1
        assert "threshold" in proc.stderr

    def test_point_loads_no_transistor_sweep_or_search_layer(self, tmp_path):
        # the CLI imports each layer in the command that runs it
        code = """
import sys
import tritherm.cli
assert tritherm.cli.main(["point", "--config", sys.argv[1]]) == 0
lazy = ("tritherm.transistor", "tritherm.sweep", "tritherm.search", "tritherm._floattext")
print([name for name in lazy if name in sys.modules], file=sys.stderr)
"""
        proc = self._run(str(CONFIGS / "default.yaml"), cwd=tmp_path, python=("-c", code))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n"

    @pytest.mark.parametrize("command", ["transistor", "sweep", "search"])
    def test_grid_too_large_to_allocate_exits_two(self, tmp_path, command):
        # 2**40 points are below MAX_COUNT, but their 8 TiB exceed the
        # address-space cap on any host, whatever its overcommit setting
        count = 2**40
        config = write_config(tmp_path, {**BASE_CONFIG, "search": {
            **SEARCH_SECTION, "omega_grid": {"start": 0.02, "stop": 0.98, "count": count}}})
        argv = {"transistor": ["--points", str(count)],
                "sweep": ["--axis1", f"drive_freq:0.1:0.5:{count}"],
                "search": []}[command]
        proc = self._run(command, "--config", config, *argv, "--out", "out.x",
                         cwd=tmp_path, limit=3 * 2**30)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("out.x*"))
