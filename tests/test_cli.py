import json
import pathlib

import pytest
import yaml

from tritherm.cli import main

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

    def test_missing_field_names_path(self, tmp_path, capsys):
        broken = {k: dict(v) if isinstance(v, dict) else v
                  for k, v in BASE_CONFIG.items()}
        del broken["mid"]["temperature"]
        path = write_config(tmp_path, broken)
        assert main(["point", "--config", path]) == 1
        assert "mid.temperature" in capsys.readouterr().err

    def test_relaxed_equal_temperatures(self, tmp_path, capsys):
        relaxed = json.loads(json.dumps(BASE_CONFIG))
        relaxed["hot"]["temperature"] = 0.5
        relaxed["cold"]["temperature"] = 0.5
        relaxed["drive_freq"] = 1e-7
        path = write_config(tmp_path, relaxed)
        assert main(["point", "--config", path]) == 1  # strict by default
        capsys.readouterr()
        assert main(["point", "--config", path, "--relax-validation"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("j_hot", "j_cold", "j_mid", "power", "entropy_rate"):
            assert abs(payload["point"][key]) < 1e-12

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

    def test_thread_count_is_invisible_in_output(self, tmp_path):
        a = self.run_sweep(tmp_path, "a.csv", ("--threads", "1"))
        b = self.run_sweep(tmp_path, "b.csv", ("--threads", "7"))
        assert a.read_bytes() == b.read_bytes()

    def test_env_var_sets_default_thread_count(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRITHERM_THREADS", "5")
        a = self.run_sweep(tmp_path, "env.csv")
        monkeypatch.setenv("TRITHERM_THREADS", "not-a-number")
        b = self.run_sweep(tmp_path, "env2.csv")  # falls back to 1
        assert a.read_bytes() == b.read_bytes()

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

    def test_bad_axis_is_validation_error(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        rc = main(["sweep", "--config", path, "--axis1", "drive_freq:0.1",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "axis" in capsys.readouterr().err


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

    def test_missing_search_section(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        assert main(["search", "--config", path]) == 1
        assert "search" in capsys.readouterr().err

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
             "search": []}[command]
    assert main([command, "--config", path, *extra, "--out", out]) == 0
    return tmp_path / f"{command}.out.manifest.json"


class TestManifestErrors:
    @pytest.mark.parametrize("command", ["sweep", "transistor", "search"])
    def test_missing_section_names_it(self, tmp_path, capsys, command):
        manifest = _manifest_for(tmp_path, command)
        data = json.loads(manifest.read_text())
        del data[command]
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([command, "--from-manifest", str(manifest),
                     "--out", str(tmp_path / "rerun")]) == 1
        assert f"no '{command}' section" in capsys.readouterr().err

    def test_foreign_backend_is_rejected(self, tmp_path, capsys):
        manifest = _manifest_for(tmp_path, "sweep")
        data = json.loads(manifest.read_text())
        data["backend"] = "numba"
        manifest.write_text(json.dumps(data))
        assert main(["sweep", "--from-manifest", str(manifest),
                     "--out", str(tmp_path / "rerun.csv")]) == 1
        assert "backend" in capsys.readouterr().err

    def test_numpy_backend_still_loads(self, tmp_path):
        manifest = _manifest_for(tmp_path, "sweep")
        data = json.loads(manifest.read_text())
        assert "backend" not in data
        data["backend"] = "numpy"
        manifest.write_text(json.dumps(data))
        rerun = tmp_path / "rerun.csv"
        assert main(["sweep", "--from-manifest", str(manifest),
                     "--out", str(rerun)]) == 0
        assert rerun.read_bytes() == (tmp_path / "sweep.out").read_bytes()


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

    def test_transistor_points_as_string_names_field(self, tmp_path, capsys):
        def stringify(section):
            section["points"] = "21"
        assert self._rerun(tmp_path, "transistor", stringify) == 1
        assert "transistor.points" in capsys.readouterr().err

    def test_transistor_step_of_older_manifests_is_ignored(self, tmp_path):
        def add_step(section):
            assert "step" not in section
            section["step"] = 1e-5
        assert self._rerun(tmp_path, "transistor", add_step) == 0
        assert ((tmp_path / "rerun").read_bytes()
                == (tmp_path / "transistor.out").read_bytes())


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["point", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_drive_out_of_range_is_validation_error(self, tmp_path, capsys):
        bad = dict(BASE_CONFIG, drive_freq=1.5)
        path = write_config(tmp_path, bad)
        assert main(["point", "--config", path]) == 1
        assert "drive_freq" in capsys.readouterr().err
