import numpy as np
import pytest

import tritherm as tt
from tritherm.core import ConfigError
from tritherm.modes import OperatingMode

from conftest import make_config


def small_spec(config, outputs=("currents", "mode", "exergy")):
    return tt.SweepSpec(
        template=config,
        axis1=tt.Axis("drive_freq", 0.2, 0.4, 2),
        axis2=tt.Axis("hot.center", 1.2, 1.5, 2),
        outputs=frozenset(outputs))


class TestRunSweep:
    def test_cells_match_point_evaluation_bitwise(self, default_config):
        result = tt.run_sweep(small_spec(default_config))
        for i, drive in enumerate((0.2, 0.4)):
            for j, wh in enumerate((1.2, 1.5)):
                cfg = tt.apply_params(default_config,
                                      {"drive_freq": drive, "hot.center": wh})
                point = tt.evaluate_point(cfg)
                cell = result.cell(i, j)
                assert cell.point == point
                assert cell.axis1 == drive and cell.axis2 == wh

    def test_row_major_order(self, default_config):
        result = tt.run_sweep(small_spec(default_config))
        cells = list(result.iter_cells())
        assert [(c.axis1, c.axis2) for c in cells] == [
            (0.2, 1.2), (0.2, 1.5), (0.4, 1.2), (0.4, 1.5)]

    def test_thread_count_does_not_change_output(self, default_config):
        spec = tt.SweepSpec(template=default_config,
                            axis1=tt.Axis("drive_freq", 0.05, 0.9, 41),
                            axis2=tt.Axis("hot.center", 1.0, 2.0, 23))
        r1 = tt.run_sweep(spec, threads=1)
        r4 = tt.run_sweep(spec, threads=4)
        assert np.array_equal(r1.thermo, r4.thermo)
        assert np.array_equal(r1.mode_codes, r4.mode_codes)
        assert np.array_equal(r1.phi, r4.phi)

    def test_error_cells_keep_rectangular_shape(self, default_config):
        # sweeping the mid temperature across the hot temperature violates
        # the ordering in the upper part of the axis
        spec = tt.SweepSpec(template=default_config,
                            axis1=tt.Axis("mid.temperature", 0.3, 0.9, 7))
        result = tt.run_sweep(spec)
        labels = result.mode_labels()
        assert result.size == 7
        n_err = sum(1 for e in result.errors if e)
        assert 0 < n_err < 7
        for k, err in enumerate(result.errors):
            if err:
                assert labels[k] == "error"
                assert np.isnan(result.thermo[k]).all()
                assert "ordering" in err
            else:
                assert labels[k] != "error"
                assert np.isfinite(result.thermo[k]).all()

    def test_template_drive_out_of_range_marks_all_cells(self):
        template = make_config(drive=1.2)
        spec = tt.SweepSpec(template=template,
                            axis1=tt.Axis("hot.center", 1.1, 1.9, 5))
        result = tt.run_sweep(spec)
        assert all(e and "drive_freq" in e for e in result.errors)
        assert set(result.mode_labels()) == {"error"}

    def test_locked_axis_preserves_detuning(self, default_config):
        spec = tt.SweepSpec(template=default_config,
                            axis1=tt.Axis("hot.center_locked", 1.2, 1.8, 4))
        result = tt.run_sweep(spec)
        delta = default_config.detuning
        for i, wh in enumerate(spec.axis1.values()):
            cfg = tt.apply_params(default_config, {
                "hot.center": float(wh), "cold.center": float(wh) - delta})
            assert result.cell(i).point == tt.evaluate_point(cfg)

    def test_transistor_output_columns(self, default_config):
        result = tt.run_sweep(small_spec(default_config,
                                         ("currents", "mode", "exergy", "transistor")))
        assert result.r is not None and result.g is not None
        tp = tt.transistor_point(tt.apply_params(
            default_config, {"drive_freq": 0.2, "hot.center": 1.2}))
        assert result.cell(0, 0).r == tp.r
        assert result.cell(0, 0).g == tp.g

    def test_axis_validation(self, default_config):
        with pytest.raises(ConfigError):
            tt.Axis("hot.flux", 0.1, 0.2, 5)
        with pytest.raises(ConfigError):
            tt.Axis("drive_freq", 0.4, 0.2, 5)
        with pytest.raises(ConfigError):
            tt.Axis("drive_freq", 0.1, 0.5, 1)
        with pytest.raises(ConfigError):
            tt.SweepSpec(template=default_config,
                         axis1=tt.Axis("drive_freq", 0.2, 1.5, 5))


class TestTwoTerminalReduction:
    def test_cold_decoupled_yields_only_four_modes(self):
        spec = tt.SweepSpec(
            template=make_config(kc=0.0, th=0.8, tm=0.5, tc=0.2),
            axis1=tt.Axis("drive_freq", 0.05, 0.9, 41),
            axis2=tt.Axis("hot.center", 1.0, 2.0, 41))
        modes = tt.run_sweep(spec).mode_set()
        allowed = {OperatingMode.ENGINE, OperatingMode.HEAT_PUMP,
                   OperatingMode.REFRIGERATOR_PUMP, OperatingMode.WASTEFUL}
        assert modes <= allowed
        assert OperatingMode.ENGINE in modes

    def test_hot_decoupled_yields_only_four_modes(self):
        spec = tt.SweepSpec(
            template=make_config(kh=0.0, th=0.8, tm=0.5, tc=0.2, wc=0.6),
            axis1=tt.Axis("drive_freq", 0.05, 0.9, 41),
            axis2=tt.Axis("cold.center", 0.2, 1.0, 41))
        modes = tt.run_sweep(spec).mode_set()
        allowed = {OperatingMode.ENGINE, OperatingMode.HEAT_PUMP,
                   OperatingMode.REFRIGERATOR_PUMP, OperatingMode.WASTEFUL}
        assert modes <= allowed

    @pytest.mark.parametrize("off", ["hot", "cold"])
    def test_sweep_point_and_sequence_taxonomies_agree(self, off):
        # run_sweep, mode_report and mode_sequence_along_omega must all
        # pick the reduced taxonomy of the coupling that is still on
        config = make_config(**{"kh" if off == "hot" else "kc": 0.0})
        spec = tt.SweepSpec(template=config,
                            axis1=tt.Axis("drive_freq", 0.02, 0.98, 97))
        result = tt.run_sweep(spec)
        sweep_labels = result.mode_labels()
        point_labels = [
            tt.mode_report(tt.apply_params(config, {"drive_freq": w})).mode.value
            for w in result.axis1_values]
        assert sweep_labels == point_labels
        runs = tt.mode_sequence_along_omega(config, result.axis1_values)
        run_labels = []
        for (lo, hi), mode in runs:
            inside = (result.axis1_values >= lo) & (result.axis1_values <= hi)
            run_labels += [mode.value] * int(inside.sum())
        assert run_labels == sweep_labels
        reduced = {OperatingMode.ENGINE, OperatingMode.HEAT_PUMP,
                   OperatingMode.REFRIGERATOR_PUMP, OperatingMode.WASTEFUL}
        assert result.mode_set() <= reduced
        assert len(result.mode_set()) >= 2

    def test_hot_current_peaks_on_resonance_line(self):
        # at fixed drive, |j_hot| over the hot.center column peaks within one
        # grid cell of center = omega0 + drive.  The resonant channel is
        # suppressed exactly at drive = omega0*(Th/Tm - 1), where the two
        # occupations coincide; staying below it keeps the peak generic.
        template = make_config(gh=0.03, kc=0.0)
        spec = tt.SweepSpec(template=template,
                            axis1=tt.Axis("drive_freq", 0.2, 0.55, 6),
                            axis2=tt.Axis("hot.center", 1.05, 1.95, 181))
        result = tt.run_sweep(spec)
        n1, n2 = result.shape
        jh = np.abs(result.thermo[:, 0]).reshape(n1, n2)
        centers = result.axis2_values
        cell = centers[1] - centers[0]
        for i, drive in enumerate(result.axis1_values):
            peak = centers[int(np.argmax(jh[i]))]
            assert abs(peak - (1.0 + drive)) <= cell + 1e-12

    def test_three_terminal_labels_contain_two_terminal_union(self):
        # a detuned three-terminal machine superposes its two constituent
        # two-terminal machines
        template = make_config(th=0.6, tm=0.5, tc=0.2, wh=1.5, wc=0.75,
                               kh=0.02, kc=0.02)
        axis1 = tt.Axis("drive_freq", 0.05, 0.9, 41)
        axis2 = tt.Axis("hot.center_locked", 1.0, 2.0, 41)
        full = tt.run_sweep(tt.SweepSpec(template=template, axis1=axis1,
                                         axis2=axis2)).mode_set()
        m1 = tt.run_sweep(tt.SweepSpec(
            template=tt.apply_params(template, {"cold.kappa": 0.0}),
            axis1=axis1, axis2=axis2)).mode_set()
        m2 = tt.run_sweep(tt.SweepSpec(
            template=tt.apply_params(template, {"hot.kappa": 0.0}),
            axis1=axis1, axis2=axis2)).mode_set()
        assert (m1 | m2) - {OperatingMode.DEGENERATE} <= full


class TestResonanceLines:
    def test_standard_case(self, default_config):
        spec = tt.SweepSpec(template=default_config,
                            axis1=tt.Axis("drive_freq", 0.1, 0.9, 5),
                            axis2=tt.Axis("hot.center", 1.0, 2.0, 5))
        line1, line2 = tt.resonance_lines(spec)
        assert line1 == (1.0, 1.0)
        assert line2 == (-1.0, 1.0 + 0.75)

    def test_zero_detuning_lines_meet_at_zero_drive(self):
        cfg = make_config(wh=1.5, wc=1.5)
        spec = tt.SweepSpec(template=cfg,
                            axis1=tt.Axis("drive_freq", 0.1, 0.9, 5),
                            axis2=tt.Axis("hot.center_locked", 1.0, 2.0, 5))
        (s1, b1), (s2, b2) = tt.resonance_lines(spec)
        crossing = (b2 - b1) / (s1 - s2)
        assert crossing == pytest.approx(0.0, abs=1e-15)

    def test_second_line_value(self):
        cfg = make_config(wh=1.5, wc=1.2)  # detuning 0.3
        spec = tt.SweepSpec(template=cfg,
                            axis1=tt.Axis("drive_freq", 0.1, 0.9, 5),
                            axis2=tt.Axis("hot.center", 1.0, 2.0, 5))
        _, (slope, intercept) = tt.resonance_lines(spec)
        assert slope * 0.2 + intercept == pytest.approx(1.1, rel=1e-14)

    def test_axis_mismatch(self, default_config):
        spec = tt.SweepSpec(template=default_config,
                            axis1=tt.Axis("drive_freq", 0.1, 0.9, 5),
                            axis2=tt.Axis("mid.temperature", 0.3, 0.4, 5))
        with pytest.raises(ConfigError):
            tt.resonance_lines(spec)


class TestModeSequence:
    def test_constant_trace_is_single_run(self):
        cfg = make_config(kh=1e-4, kc=1e-4, wh=2.4, wc=2.3)
        runs = tt.mode_sequence_along_omega(cfg, np.linspace(0.05, 0.15, 21))
        assert len(runs) == 1
        (lo, hi), _ = runs[0]
        assert lo == 0.05 and hi == pytest.approx(0.15)

    def test_runs_cover_grid_and_merge(self, default_config):
        grid = np.linspace(0.05, 0.9, 120)
        runs = tt.mode_sequence_along_omega(default_config, grid)
        assert runs[0][0][0] == grid[0]
        assert runs[-1][0][1] == pytest.approx(grid[-1])
        for (a, b), _ in runs:
            assert a <= b
        for (r1, m1), (r2, m2) in zip(runs, runs[1:]):
            assert m1 is not m2
            assert r2[0] > r1[1]

    def test_grid_validation(self, default_config):
        with pytest.raises(ConfigError):
            tt.mode_sequence_along_omega(default_config, np.array([0.3, 0.2]))
        with pytest.raises(ConfigError):
            tt.mode_sequence_along_omega(default_config, np.array([0.5, 1.1]))


class TestSerialization:
    def test_csv_round_trips_floats(self, tmp_path, default_config):
        import csv
        result = tt.run_sweep(small_spec(default_config))
        path = tmp_path / "map.csv"
        result.to_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["axis1", "axis2", "j_hot", "j_cold", "j_mid",
                           "power", "entropy_rate", "mode", "phi", "error"]
        for k, row in enumerate(rows[1:]):
            # every float column parses back to the exact double
            for col, value in zip(("j_hot", "j_cold", "j_mid", "power",
                                   "entropy_rate"), row[2:7]):
                assert float(value) == result.thermo[k, rows[0].index(col) - 2]
            assert float(row[8]) == result.phi[k]

    def test_json_metadata(self, tmp_path, default_config):
        import json
        result = tt.run_sweep(small_spec(default_config))
        path = tmp_path / "map.json"
        result.to_json(path)
        payload = json.loads(path.read_text())
        assert payload["metadata"]["config"] == default_config.to_dict()
        assert payload["metadata"]["grid"]["axis1"]["param"] == "drive_freq"
        assert len(payload["rows"]) == result.size
        assert payload["rows"][0][payload["schema"].index("j_hot")] == \
            result.cell(0, 0).point.j_hot
