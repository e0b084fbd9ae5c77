import csv
import json
import os
import pathlib
import threading
import time
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
import yaml

import tritherm as tt
from tritherm import _kernels, cli, sweep
from tritherm.cli import main
from tritherm.core import ConfigError, ConsistencyError, DomainError, TrithermError
from tritherm._kernels import thermo_batch
from tritherm.currents import KERNEL_PATHS, ThermoPoint, config_args, validity_codes
from tritherm.modes import (ERROR_CODE, MODE_BY_CODE, OperatingMode,
                            classify_coupled_arrays, exergy_from_split)
from tritherm.sweep import _CHUNK_ROWS, _float_texts
from tritherm.transistor import _figures

from conftest import make_config

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def small_spec(config, outputs=("currents", "mode", "exergy")):
    return tt.SweepSpec(
        template=config,
        axis1=tt.Axis("drive_freq", 0.2, 0.4, 2),
        axis2=tt.Axis("hot.center", 1.2, 1.5, 2),
        outputs=frozenset(outputs))


class TestRunSweep:
    def test_cells_match_point_evaluation_bitwise(self, default_config):
        result = tt.run_sweep(small_spec(default_config))
        assert result.axis1_values.tolist() == [0.2, 0.4]
        assert result.axis2_values.tolist() == [1.2, 1.5]
        for i, drive in enumerate((0.2, 0.4)):
            for j, wh in enumerate((1.2, 1.5)):
                cfg = tt.apply_params(default_config,
                                      {"drive_freq": drive, "hot.center": wh})
                point = tt.evaluate_point(cfg)
                assert ThermoPoint(*map(float, result.thermo[2 * i + j])) == point

    def test_row_major_order(self, default_config):
        result = tt.run_sweep(small_spec(default_config))
        want = [tt.evaluate_point(tt.apply_params(
            default_config, {"drive_freq": d, "hot.center": wh})).j_hot
            for d, wh in ((0.2, 1.2), (0.2, 1.5), (0.4, 1.2), (0.4, 1.5))]
        assert len(set(want)) == 4
        assert result.thermo[:, 0].tolist() == want

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
            assert ThermoPoint(*map(float, result.thermo[i])) == tt.evaluate_point(cfg)

    def test_transistor_output_columns(self, default_config):
        result = tt.run_sweep(small_spec(default_config,
                                         ("currents", "mode", "exergy", "transistor")))
        assert result.r is not None and result.g is not None
        tp = tt.transistor_point(tt.apply_params(
            default_config, {"drive_freq": 0.2, "hot.center": 1.2}))
        assert result.r[0] == tp.r
        assert result.g[0] == tp.g

    @pytest.mark.parametrize("first,second", [
        ("hot.center", "hot.center_locked"), ("hot.center_locked", "hot.center"),
        ("hot.center_locked", "cold.center"), ("cold.center", "hot.center_locked"),
        ("cold.center", "cold.center")])
    def test_axes_that_set_one_parameter_are_rejected(self, default_config, first,
                                                      second):
        # hot.center_locked sets hot.center and cold.center, so either other
        # axis would be overwritten by it, or break its lock
        with pytest.raises(ConfigError, match="both set") as exc:
            tt.SweepSpec(template=default_config, axis1=tt.Axis(first, 1.0, 2.0, 3),
                         axis2=tt.Axis(second, 1.2, 1.8, 4))
        assert exc.value.key == "axis2.param"

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

    @pytest.mark.parametrize("count", [5.0, True, "5", np.float64(5.0)],
                             ids=["float", "bool", "str", "float64"])
    def test_axis_count_that_is_not_an_integer_is_named(self, count):
        with pytest.raises(ConfigError, match="^field axis drive_freq.count has an "
                                              "invalid value"):
            tt.Axis("drive_freq", 0.1, 0.5, count)

    def test_axis_count_may_be_a_numpy_integer(self, default_config, tmp_path):
        axis = tt.Axis("drive_freq", 0.1, 0.5, np.int64(5))
        assert axis.count == 5 and type(axis.count) is int
        got, want = (tt.run_sweep(tt.SweepSpec(template=default_config, axis1=a))
                     for a in (axis, tt.Axis("drive_freq", 0.1, 0.5, 5)))
        for a, b in zip(_arrays(got), _arrays(want)):
            np.testing.assert_array_equal(a, b)
        # the JSON export records the axis, count included
        got.to_json(tmp_path / "got.json")
        want.to_json(tmp_path / "want.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()

    @pytest.mark.parametrize("value", ["0.1", None, True], ids=["str", "none", "bool"])
    @pytest.mark.parametrize("name", ["start", "stop"])
    def test_axis_bound_that_is_not_a_number_is_named(self, name, value):
        bounds = {"start": 0.1, "stop": 0.5, name: value}
        with pytest.raises(ConfigError, match=rf"^field axis drive_freq\.{name} has an "
                                              "invalid value"):
            tt.Axis("drive_freq", bounds["start"], bounds["stop"], 5)

    def test_int_axis_bounds_write_the_float_json(self, default_config, tmp_path):
        axis = tt.Axis("hot.center", 1, 2, 3)
        assert type(axis.start) is type(axis.stop) is float
        for name, a in (("int", axis), ("float", tt.Axis("hot.center", 1.0, 2.0, 3))):
            tt.run_sweep(tt.SweepSpec(template=default_config, axis1=a)).to_json(
                tmp_path / f"{name}.json")
        assert (tmp_path / "int.json").read_bytes() == (tmp_path / "float.json").read_bytes()

    @pytest.mark.parametrize("outputs", ["transistor", ["mode", 1], None])
    def test_outputs_that_are_not_names_are_named(self, default_config, outputs):
        with pytest.raises(ConfigError, match=r"^field sweep\.outputs has an invalid value"):
            tt.SweepSpec(template=default_config,
                         axis1=tt.Axis("drive_freq", 0.1, 0.5, 5), outputs=outputs)

    @pytest.mark.parametrize("start,stop", [(1.0, np.inf), (1.0, np.nan),
                                            (-np.inf, 2.0), (np.nan, 2.0)])
    def test_non_finite_axis_bound_names_axis(self, start, stop):
        key = "stop" if np.isfinite(start) else "start"
        with pytest.raises(ConfigError,
                           match=f"^axis hot.center: {key} must be finite, got ") as exc:
            tt.Axis("hot.center", start, stop, 3)
        assert exc.value.key == key

    @pytest.mark.parametrize("param", sorted(sweep.AXIS_PARAMS))
    def test_axis_too_dense_for_its_span_names_count(self, param):
        # np.linspace repeats values when start and stop are this close
        with pytest.raises(ConfigError) as exc:
            tt.Axis(param, 0.5, 0.5000000000000001, 5)
        assert str(exc.value) == (f"axis {param}: count must be lower: the ends 0.5 and "
                                  "0.5000000000000001 are too close for 5 points")
        assert exc.value.key == "count"

    def test_axis_is_rejected_exactly_when_its_values_repeat(self):
        # spans a few ulps wide, where the step is near the spacing of the
        # floats, and wider ones, where no value repeats; the search's drive
        # grid and the transistor command's follow the same rule
        rng = np.random.default_rng(11)
        kinds = set()
        config = make_config(omega0=1e4)   # above every stop
        vary = {"hot.center": tt.VaryRange(1.0, 2.0)}
        for _ in range(3000):
            start = float(10 ** rng.uniform(-3, 3))
            if rng.random() < 0.5:
                stop = start
                for _ in range(int(rng.integers(1, 40))):
                    stop = float(np.nextafter(stop, np.inf))
            else:
                stop = start * (1 + float(rng.uniform(1e-15, 1e-12)))
            count = int(rng.integers(2, 300))
            values = np.linspace(start, stop, count)
            increasing = bool(np.all(np.diff(values) > 0))
            try:
                axis = tt.Axis("hot.center", start, stop, count)
            except ConfigError as exc:
                assert not increasing and exc.key == "count"
            else:
                assert increasing and axis.values().tobytes() == values.tobytes()
            if count >= 3:   # the search's least count
                try:
                    tt.SearchSpec(objective="transistor_window", vary=vary,
                                  omega_start=start, omega_stop=stop, omega_count=count)
                except ConfigError as exc:
                    assert not increasing and str(exc).startswith(
                        "search.omega_grid.count must be lower: the ends")
                else:
                    assert increasing
            try:
                cli.cmd_transistor(config, {"transistor": {
                    "omega_min": start, "omega_max": stop, "points": count,
                    "threshold": 10.0}}, [])
            except ConfigError as exc:
                assert not increasing and str(exc).startswith(
                    "transistor.points must be lower: the ends")
            else:
                assert increasing
            kinds.add(increasing)
        assert kinds == {True, False}

    @pytest.mark.parametrize("field,value", [
        ("template", {}), ("template", None), ("axis1", None),
        ("axis1", {"param": "drive_freq", "start": 0.1, "stop": 0.5, "count": 3}),
        ("axis2", 3), ("axis2", "hot.center")])
    def test_spec_of_the_wrong_type_is_named(self, default_config, field, value):
        fields = {"template": default_config, "axis1": tt.Axis("drive_freq", 0.1, 0.5, 3),
                  field: value}
        with pytest.raises(ConfigError, match=rf"^sweep\.{field} must be"):
            tt.SweepSpec(**fields)

def _outputs(transistor: bool) -> frozenset:
    extra = {"transistor"} if transistor else set()
    return frozenset({"currents", "mode", "exergy"} | extra)


def _arrays(result):
    return [a for a in (result.thermo, result.mode_codes, result.phi, result.r,
                        result.g, result.error_codes) if a is not None]


# mid x cold temperature: each row ends in cells with tc >= tm, so the
# valid cells come in runs broken by error cells
_BLOCK_CASES = {
    "temperatures": (make_config(), tt.Axis("mid.temperature", 0.22, 0.7, 11),
                     tt.Axis("cold.temperature", 0.05, 0.6, 13)),
    "locked": (make_config(), tt.Axis("hot.center_locked", 0.9, 2.1, 9),
               tt.Axis("mid.temperature", 0.3, 0.9, 8)),
}

# The tile cases: a 1D sweep whose lower cells break the temperature
# ordering, a drive x hot-center map, a locked axis and a temperature map
# with error cells
_TILE_CASES = {
    "one_axis": (make_config(), tt.Axis("hot.temperature", 0.1, 1.0, 37), None),
    "drive_x_center": (make_config(), tt.Axis("drive_freq", 0.02, 0.9, 23),
                       tt.Axis("hot.center", 1.0, 2.0, 19)),
    **_BLOCK_CASES,
}


def _tile_kinds(codes, n2, block):
    """Kind ("valid", "mixed" or "error") of each tile of ``block`` points."""
    grid = codes.reshape(-1, n2)
    cols = min(n2, block)
    rows = max(1, block // cols)
    kinds = []
    for i in range(0, grid.shape[0], rows):
        for j in range(0, n2, cols):
            ok = grid[i:i + rows, j:j + cols] == 0
            kinds.append("valid" if ok.all() else "mixed" if ok.any() else "error")
    return kinds


def _one_call(spec):
    """The arrays of ``run_sweep`` from one kernel call on the valid cells of
    full-size swept columns, classified and scored in one pass each."""
    template = spec.template
    a1 = spec.axis1.values()
    a2 = spec.axis2.values() if spec.axis2 is not None else None
    n2 = 1 if a2 is None else len(a2)
    n = len(a1) * n2
    cols = [np.float64(v) for v in config_args(template)]
    axes = [(spec.axis1.param, np.repeat(a1, n2))]
    if a2 is not None:
        axes.append((spec.axis2.param, np.tile(a2, len(a1))))
    for param, values in axes:
        if param == "hot.center_locked":
            cols[KERNEL_PATHS.index("hot.center")] = values
            cols[KERNEL_PATHS.index("cold.center")] = values - template.detuning
        else:
            cols[KERNEL_PATHS.index(param)] = values
    codes = validity_codes(cols, n)
    ok = codes == 0
    table = thermo_batch(*(c[ok] if np.ndim(c) else c for c in cols),
                         slopes="transistor" in spec.outputs)
    thermo = np.full((n, _kernels.NCOLS), np.nan)
    thermo[ok] = table[:, :_kernels.NCOLS]
    modes = np.full(n, ERROR_CODE, dtype=np.int8)
    modes[ok] = classify_coupled_arrays(template.hot.kappa, template.cold.kappa,
                                        *(table[:, c] for c in range(4)))
    phi = np.full(n, np.nan)
    phi[ok] = exergy_from_split(table[:, _kernels.COL_SPOS], table[:, _kernels.COL_SNEG])
    out = [thermo, modes, phi]
    if "transistor" in spec.outputs:
        for figure in _figures(table):
            column = np.full(n, np.nan)
            column[ok] = figure
            out.append(column)
    return out + [codes]


def _block_sizes(n1, n2):
    """TILE_POINTS above the grid, below one row (columns are split) and
    between the two (several rows per tile, the last tile short)."""
    return {"above": n1 * n2 + 1, "below_row": max(1, n2 // 2 - 1),
            "between": 2 * n2 + 1}


def _kernel_calls(monkeypatch) -> list:
    """The shape of the table of each kernel call ``run_sweep`` makes from
    now on, in call order."""
    seen = []

    def counting(*args, **kwargs):
        table = thermo_batch(*args, **kwargs)
        seen.append(table.shape[:-1])
        return table

    monkeypatch.setattr(tt.sweep, "thermo_batch", counting)
    return seen


class TestBlocks:
    @pytest.mark.parametrize("transistor", [False, True])
    @pytest.mark.parametrize("case", list(_BLOCK_CASES))
    def test_blocked_sweep_equals_one_call(self, monkeypatch, case, transistor):
        template, axis1, axis2 = _BLOCK_CASES[case]
        spec = tt.SweepSpec(template=template, axis1=axis1, axis2=axis2,
                            outputs=_outputs(transistor))
        monkeypatch.setattr(_kernels, "TILE_POINTS", 10**9)
        whole = tt.run_sweep(spec)
        monkeypatch.setattr(_kernels, "TILE_POINTS", 7)
        calls = _kernel_calls(monkeypatch)
        blocked = tt.run_sweep(spec)
        assert len(calls) > 1
        # tiles of 7 cells: some mix valid and error cells, and not all
        # tiles are of one kind
        kinds = set(_tile_kinds(blocked.error_codes, axis2.count, 7))
        assert "mixed" in kinds and len(kinds) >= 2
        for got, want in zip(_arrays(blocked), _arrays(whole), strict=True):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("transistor", [False, True])
    @pytest.mark.parametrize("block", ["above", "below_row", "between"])
    @pytest.mark.parametrize("case", list(_TILE_CASES))
    def test_tiles_equal_one_flat_call(self, monkeypatch, case, block, transistor):
        template, axis1, axis2 = _TILE_CASES[case]
        spec = tt.SweepSpec(template=template, axis1=axis1, axis2=axis2,
                            outputs=_outputs(transistor))
        n2 = 1 if axis2 is None else axis2.count
        monkeypatch.setattr(_kernels, "TILE_POINTS",
                            _block_sizes(axis1.count, n2)[block])
        calls = _kernel_calls(monkeypatch)
        result = tt.run_sweep(spec)
        assert (len(calls) > 1) == (block != "above")
        for got, want in zip(_arrays(result), _one_call(spec), strict=True):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_each_tile_is_one_whole_kernel_call(self, monkeypatch):
        # error cells go to the kernel with their tile: one call per tile,
        # of the tile's own shape, all-error tiles included
        template, axis1, axis2 = _BLOCK_CASES["temperatures"]
        spec = tt.SweepSpec(template=template, axis1=axis1, axis2=axis2)
        monkeypatch.setattr(_kernels, "TILE_POINTS", 7)
        seen = _kernel_calls(monkeypatch)
        result = tt.run_sweep(spec)
        kinds = _tile_kinds(result.error_codes, axis2.count, 7)
        assert {"valid", "mixed", "error"} <= set(kinds)
        # tiles of one row: seven cells, then the six left of the row
        n1, n2 = axis1.count, axis2.count
        assert sorted(seen) == sorted((1, min(7, n2 - j))
                                      for _ in range(n1) for j in range(0, n2, 7))
        assert sum(int(np.prod(shape)) for shape in seen) == result.size

    @pytest.mark.parametrize("transistor", [False, True])
    def test_block_memory_is_bounded(self, transistor):
        # one tile of cells: beside its results, the peak stays below four
        # kernel tables; copying the twelve inputs to full size, as columns
        # or as kernel arguments, adds 12/7 or 12/9 of a table each time
        spec = tt.SweepSpec(template=make_config(),
                            axis1=tt.Axis("drive_freq", 0.02, 0.9, 16),
                            axis2=tt.Axis("hot.center", 1.0, 2.0,
                                          _kernels.TILE_POINTS // 16),
                            outputs=_outputs(transistor))
        extra = _extra_memory(spec)
        ncols = _kernels.NCOLS + 2 if transistor else _kernels.NCOLS
        assert extra <= 4 * _kernels.TILE_POINTS * ncols * 8

    def test_memory_beside_results_does_not_grow_with_tiles(self, monkeypatch):
        # one tile against sixteen: a full-size swept column or an index of
        # the valid cells would add 2-4 MB on the larger grid; two threads
        # hold the temporaries of two tiles at once, and no more
        def spec(rows):
            return tt.SweepSpec(template=make_config(),
                                axis1=tt.Axis("drive_freq", 0.02, 0.9, rows),
                                axis2=tt.Axis("hot.center", 1.0, 2.0,
                                              _kernels.TILE_POINTS // 16),
                                outputs=_outputs(True))
        table = _kernels.TILE_POINTS * (_kernels.NCOLS + 2) * 8
        for workers in (1, 2):
            monkeypatch.setattr(_kernels, "_WORKERS", workers)
            one, many = _extra_memory(spec(16)), _extra_memory(spec(16 * 16))
            assert many - workers * one <= table

    @pytest.mark.parametrize("transistor", [False, True])
    def test_worker_count_does_not_change_output(self, monkeypatch, transistor):
        template, axis1, axis2 = _BLOCK_CASES["temperatures"]
        spec = tt.SweepSpec(template=template, axis1=axis1, axis2=axis2,
                            outputs=_outputs(transistor))
        monkeypatch.setattr(_kernels, "TILE_POINTS", 7)
        calls = _kernel_calls(monkeypatch)
        result = _same_for_worker_counts(monkeypatch, lambda: tt.run_sweep(spec))
        assert len(calls) > 3
        kinds = set(_tile_kinds(result.error_codes, axis2.count, 7))
        assert kinds == {"valid", "mixed", "error"}


def _same_for_worker_counts(monkeypatch, run):
    """``run()``'s sweep result with ``_WORKERS`` 1, after checking that 2
    and 3 threads give the same arrays bit for bit."""
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        results.append(run())
    for result in results[1:]:
        for got, want in zip(_arrays(result), _arrays(results[0]), strict=True):
            assert got.tobytes() == want.tobytes()
    return results[0]


def _extra_memory(spec) -> int:
    """Peak traced memory of ``run_sweep(spec)`` beyond its result arrays."""
    tt.run_sweep(spec)
    tracemalloc.start()
    try:
        result = tt.run_sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - sum(a.nbytes for a in _arrays(result))


class TestCellErrors:
    """Template values reach the validity checks as scalars."""

    def test_valid_drive_sweep_has_no_error_cells(self, default_config):
        result = tt.run_sweep(tt.SweepSpec(template=default_config,
                                           axis1=tt.Axis("drive_freq", 0.1, 0.9, 5)))
        assert not result.error_codes.any()

    def test_hot_temperature_crossing_mid_flags_the_crossing_cells(self, default_config):
        axis = tt.Axis("hot.temperature", 0.1, 1.0, 10)
        result = tt.run_sweep(tt.SweepSpec(template=default_config, axis1=axis))
        below = axis.values() <= default_config.mid.temperature
        assert 0 < below.sum() < axis.count
        assert np.array_equal(result.error_codes, np.where(below, 2, 0))

    @pytest.mark.parametrize("scalar", [float, np.float64])
    def test_scalar_columns(self, default_config, scalar):
        cols = [scalar(v) for v in config_args(default_config)]
        assert not validity_codes(cols, 4).any()
        cols[4] = scalar(0.9)   # mid above hot
        assert np.array_equal(validity_codes(cols, 4), np.full(4, 2))

    def test_validity_precedence(self, default_config):
        # drive range, then ordering, then peak frequency, then any
        # nonfinite or nonpositive parameter
        cols = list(config_args(default_config))
        cols[2] = np.array([0.5, 1.5, 1.5, 0.5, 0.5, 0.5])           # drive
        cols[4] = np.array([0.5, 0.5, 0.9, 0.9, 0.5, 0.5])           # mid temperature
        cols[6] = np.array([1.5, 1.5, -1.0, -1.0, -1.0, 1.5])        # hot center
        cols[7] = np.array([0.05, np.nan, np.nan, np.nan, np.nan, np.nan])  # hot width
        assert validity_codes(cols, 6).tolist() == [0, 1, 1, 2, 3, 4]
        assert tt.sweep.ERROR_MESSAGES[4] == "nonfinite or nonpositive parameter"


class TestErrorCellsAfterTheKernel:
    """Hot and cold temperatures swapped: the kernel puts some of these
    error cells in the forbidden octant, which the classifier raises on."""

    TEMPLATE = make_config(drive=0.4, th=1.5, tm=0.8, tc=0.25, wh=0.2, wc=1.6)
    AXES = (tt.Axis("hot.temperature", 0.25, 1.5, 6),
            tt.Axis("cold.temperature", 0.25, 1.5, 6))

    def test_forbidden_octant_error_cells_do_not_raise(self, monkeypatch):
        args = list(config_args(self.TEMPLATE))
        args[3] = self.AXES[0].values()[:, None]
        args[5] = self.AXES[1].values()[None, :]
        raw = thermo_batch(*args)
        with pytest.raises(ConsistencyError, match="forbidden octant"):
            classify_coupled_arrays(0.01, 0.01, *(raw[..., c] for c in range(4)))
        seen = []

        def spy(fn):
            def wrapped(*args):   # the array arguments, one row per cell
                seen.append(np.stack([a for a in args if np.ndim(a)], axis=-1))
                return fn(*args)
            return wrapped

        # a sweep calls the helpers without the public finiteness check
        monkeypatch.setattr(tt.modes, "_classify", spy(tt.modes._classify))
        monkeypatch.setattr(tt.sweep, "_exergy", spy(tt.modes._exergy))
        result = tt.run_sweep(tt.SweepSpec(template=self.TEMPLATE, axis1=self.AXES[0],
                                           axis2=self.AXES[1]))
        bad = result.error_codes != 0
        assert 0 < bad.sum() < result.size and set(result.error_codes[bad]) == {2}
        assert set(np.array(result.mode_labels())[bad]) == {"error"}
        assert np.isnan(result.thermo[bad]).all() and np.isnan(result.phi[bad]).all()
        # the classifier and exergy saw the error cells as NaN rows only
        assert len(seen) == 2
        for rows in seen:
            rows = rows.reshape(result.size, -1)
            assert np.isnan(rows[bad]).all() and np.isfinite(rows[~bad]).all()


class TestAxisWarnings:
    """The validity warnings the axes add, checked at the grid's corners."""

    def test_one_axis(self):
        spec = tt.SweepSpec(template=make_config(),
                            axis1=tt.Axis("hot.width", 0.01, 0.6, 7))
        assert spec.axis_warnings() == [
            "axis hot.width: hot.width = 0.6 >= 0.5*omega0: outside the underdamped "
            "regime"]

    def test_each_rule_once_by_its_first_corner(self):
        # omega0 = 0.05 is below every drive, so its corners are error
        # cells; they warn all the same
        spec = tt.SweepSpec(template=make_config(),
                            axis1=tt.Axis("cold.kappa", 0.0, 0.3, 4),
                            axis2=tt.Axis("wm.omega0", 0.05, 2.0, 3))
        assert spec.axis_warnings() == [
            "axis wm.omega0: quantum regime violated: omega0 = 0.05 <= "
            "hot.temperature = 0.8",
            "axis wm.omega0: hot.width = 0.05 >= 0.5*omega0: outside the "
            "underdamped regime",
            "axis wm.omega0: cold.width = 0.05 >= 0.5*omega0: outside the "
            "underdamped regime",
            "axis cold.kappa: cold.kappa = 0.3 >= 0.1: outside the perturbative "
            "regime, results are uncontrolled"]

    def test_centers_read_by_no_rule_add_none(self):
        # the locked axis takes cold.center below 0 at its start: an error
        # corner, which warns of nothing new
        spec = tt.SweepSpec(template=make_config(),
                            axis1=tt.Axis("hot.center_locked", 0.1, 2.0, 5),
                            axis2=tt.Axis("drive_freq", 0.1, 0.9, 3))
        assert spec.axis_warnings() == []


class TestNonfiniteCells:
    """Valid parameters whose kernel values overflow to NaN: a hot peak
    center (and so its Lorentzian) near 1e200 gives inf / inf."""

    CENTERS = tt.Axis("hot.center", 1.0, 1e200, 5)
    TRANSISTOR = frozenset({"currents", "mode", "exergy", "transistor"})

    def _run(self, axis2):
        template = tt.MachineConfig.from_dict(
            yaml.safe_load((CONFIGS / "default.yaml").read_text()))
        spec = tt.SweepSpec(template=template, axis1=self.CENTERS, axis2=axis2,
                            outputs=self.TRANSISTOR)
        # no RuntimeWarning (an error under this suite's filter): the error
        # codes report the nonfinite cells
        return template, tt.run_sweep(spec)

    def test_nonfinite_cells_are_error_cells(self):
        template, result = self._run(tt.Axis("drive_freq", 0.1, 0.9, 3))
        nonfinite = np.repeat(self.CENTERS.values() > 1.0, 3)
        assert nonfinite.sum() == 12
        assert np.array_equal(result.error_codes, np.where(nonfinite, 5, 0))
        assert tt.sweep.ERROR_MESSAGES[5] == "nonfinite kernel result"
        assert {e for e, bad in zip(result.errors, nonfinite) if bad} == {
            "nonfinite kernel result"}
        labels = np.array(result.mode_labels())
        assert set(labels[nonfinite]) == {"error"}
        assert np.isnan(result.thermo[nonfinite]).all()
        for column in (result.phi, result.r, result.g):
            assert np.isnan(column[nonfinite]).all()
        # the hot.center = 1.0 row is the one-point evaluation
        for k, drive in enumerate(result.axis2_values.tolist()):
            cfg = tt.apply_params(template, {"hot.center": 1.0, "drive_freq": drive})
            assert ThermoPoint(*result.thermo[k].tolist()) == tt.evaluate_point(cfg)
            assert result.r[k] == tt.transistor_point(cfg).r

    def test_tiles_with_error_cells_equal_one_tile(self, monkeypatch):
        # hot.temperature 0.3 breaks the ordering, so in tiles of 2 cells,
        # (i, 0:2), the kernel gets an error cell and a valid one, the valid
        # one nonfinite below the first row
        axis2 = tt.Axis("hot.temperature", 0.3, 1.0, 3)
        monkeypatch.setattr(_kernels, "TILE_POINTS", 10**9)
        _, whole = self._run(axis2)
        monkeypatch.setattr(_kernels, "TILE_POINTS", 2)
        calls = _kernel_calls(monkeypatch)
        _, blocked = self._run(axis2)
        assert len(calls) > 1
        codes = blocked.error_codes.reshape(5, 3)
        assert (codes[:, 0] == 2).all() and (codes[1:, 1:] == 5).all()
        assert not codes[0, 1:].any()
        for got, want in zip(_arrays(blocked), _arrays(whole), strict=True):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trace", [tt.mode_sequence_along_omega,
                                       tt.transistor_trace])
    def test_drive_traces_raise(self, trace):
        # the sweep's error cells, along one machine's drive, are an error
        template = tt.MachineConfig.from_dict(
            yaml.safe_load((CONFIGS / "default.yaml").read_text()))
        config = tt.apply_params(template, {"hot.center": 1e200})
        with pytest.warns(RuntimeWarning), \
                pytest.raises(DomainError, match="nonfinite values along the omega"):
            trace(config, np.linspace(0.1, 0.9, 5))

    @pytest.mark.parametrize("axis2", [tt.Axis("drive_freq", 0.1, 0.9, 3),
                                       tt.Axis("hot.temperature", 0.3, 1.0, 3)])
    def test_worker_count_does_not_change_output(self, monkeypatch, axis2):
        monkeypatch.setattr(_kernels, "TILE_POINTS", 2)
        calls = _kernel_calls(monkeypatch)
        result = _same_for_worker_counts(monkeypatch, lambda: self._run(axis2)[1])
        assert len(calls) > 3
        assert (result.error_codes == 5).any()


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


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _assert_cells_equal_points(result):
    """Every cell of a two-axis ``result`` with transistor outputs equals the
    per-point calls at its parameters bit for bit: ``mode_report`` (the
    seven kernel columns, phi and the mode) and ``transistor_point`` (r and
    g); a cell that ``MachineConfig.validate`` rejects is an error cell.
    Returns the error codes as an (n1, n2) array."""
    spec = result.spec
    codes = result.error_codes.reshape(result.shape)
    for k, (v1, v2) in enumerate((v1, v2) for v1 in result.axis1_values.tolist()
                                 for v2 in result.axis2_values.tolist()):
        config = tt.apply_params(spec.template, {spec.axis1.param: v1,
                                                 spec.axis2.param: v2})
        try:
            config.validate()
        except ConfigError:
            assert result.error_codes[k] != 0
            assert result.mode_codes[k] == ERROR_CODE
            assert np.isnan(result.thermo[k]).all() and np.isnan(result.phi[k])
            continue
        report, tp = tt.mode_report(config), tt.transistor_point(config)
        assert result.error_codes[k] == 0
        assert result.thermo[k].tobytes() == np.array(
            [*report.point.to_dict().values()]).tobytes()
        assert MODE_BY_CODE[result.mode_codes[k]] is report.mode
        assert [_bits(x) for x in (result.phi[k], result.r[k], result.g[k])] == [
            _bits(x) for x in (report.exergy, tp.r, tp.g)]
    return codes


# The axes beyond the temperatures, the centers and the drive: each kernel
# argument against the drive, with transistor outputs
# (start, stop, count) of the axis, and the count of the drive axis
_KERNEL_AXES = {
    "hot.kappa": (0.0, 0.04, 23, 19),
    "cold.kappa": (0.0, 0.04, 7, 6),
    "hot.width": (0.01, 0.3, 7, 6),
    "cold.width": (0.01, 0.3, 7, 6),
    "wm.omega0": (1.05, 2.0, 7, 6),
    "wm.mass": (0.5, 2.0, 7, 6),
}


class TestKernelArgumentAxes:
    """Every kernel argument is an axis; each tile classifies its cells with
    its own couplings."""

    def test_axis_params_are_the_kernel_paths(self):
        assert sweep.AXIS_PARAMS == set(KERNEL_PATHS) | {"hot.center_locked"}
        assert set(_KERNEL_AXES) == sweep.AXIS_PARAMS - {
            "hot.center_locked", "drive_freq", "hot.center", "cold.center",
            "hot.temperature", "mid.temperature", "cold.temperature"}

    @pytest.mark.parametrize("param", list(_KERNEL_AXES))
    def test_map_equals_per_point_calls(self, monkeypatch, param):
        start, stop, n1, count = _KERNEL_AXES[param]
        spec = tt.SweepSpec(template=make_config(), axis1=tt.Axis(param, start, stop, n1),
                            axis2=tt.Axis("drive_freq", 0.05, 0.9, count),
                            outputs=_outputs(True))
        # tiles of a few rows, so that each tile has its own couplings
        monkeypatch.setattr(_kernels, "TILE_POINTS", 2 * count + 1)
        calls = _kernel_calls(monkeypatch)
        result = _same_for_worker_counts(monkeypatch, lambda: tt.run_sweep(spec))
        assert len(calls) > 3
        assert not _assert_cells_equal_points(result).any()

    def test_drive_at_omega0_raises_no_warning(self):
        # the diagonal cells, drive equal to omega0, divide by zero in the
        # Bose function; their error code reports it, so no RuntimeWarning
        # (an error under this suite's filter) leaves the library call
        spec = tt.SweepSpec(template=make_config(),
                            axis1=tt.Axis("wm.omega0", 0.5, 2.0, 4),
                            axis2=tt.Axis("drive_freq", 0.5, 2.0, 4),
                            outputs=_outputs(True))
        codes = _assert_cells_equal_points(tt.run_sweep(spec))
        assert codes.tolist() == np.triu(np.ones((4, 4), dtype=int)).tolist()

    @pytest.mark.parametrize("off", ["hot", "cold"])
    def test_decoupled_cells_take_the_two_terminal_taxonomy(self, off):
        spec = tt.SweepSpec(template=make_config(),
                            axis1=tt.Axis(f"{off}.kappa", 0.0, 0.04, 5),
                            axis2=tt.Axis("drive_freq", 0.02, 0.98, 49),
                            outputs=_outputs(True))
        result = tt.run_sweep(spec)
        modes = result.mode_codes.reshape(result.shape)
        decoupled = {MODE_BY_CODE[c] for c in modes[0].tolist()}
        # the full taxonomy reads the zero current of the decoupled bath as
        # degenerate; the reduced one reaches four modes
        assert decoupled <= {OperatingMode.ENGINE, OperatingMode.HEAT_PUMP,
                             OperatingMode.REFRIGERATOR_PUMP, OperatingMode.WASTEFUL}
        assert len(decoupled) >= 2
        table = np.stack([result.thermo[:, c] for c in range(4)], axis=-1)
        full = classify_coupled_arrays(1.0, 1.0, *table.T).reshape(result.shape)
        assert (full[0] == MODE_BY_CODE.index(OperatingMode.DEGENERATE)).all()
        _assert_cells_equal_points(result)

    def test_omega0_axis_lets_the_drive_pass_the_template_omega0(self):
        # the drive runs to 1.8, beyond the template's omega0 of 1.0; a cell
        # whose drive is not below its own omega0 is an error cell, code 1
        spec = tt.SweepSpec(template=make_config(),
                            axis1=tt.Axis("wm.omega0", 0.5, 2.0, 7),
                            axis2=tt.Axis("drive_freq", 0.1, 1.8, 9),
                            outputs=_outputs(True))
        result = tt.run_sweep(spec)
        w0, drive = np.meshgrid(spec.axis1.values(), spec.axis2.values(), indexing="ij")
        assert np.array_equal(_assert_cells_equal_points(result),
                              np.where(drive < w0, 0, 1))
        assert 0 < np.count_nonzero(result.error_codes) < result.size
        # without an omega0 axis the drive axis is checked against the template
        with pytest.raises(ConfigError, match="must stay below omega0 = 1.0") as exc:
            tt.SweepSpec(template=make_config(), axis1=tt.Axis("wm.mass", 0.5, 2.0, 3),
                         axis2=spec.axis2)
        assert exc.value.key == "axis2.stop"

    @pytest.mark.parametrize("param", ["hot.kappa", "cold.kappa"])
    def test_coupling_axis_may_start_at_zero(self, param):
        assert tt.Axis(param, 0.0, 0.04, 5).values()[0] == 0.0
        with pytest.raises(ConfigError,
                           match=rf"^axis {param}: start must be >= 0, got -0.01$"):
            tt.Axis(param, -0.01, 0.04, 5)

    @pytest.mark.parametrize("param", ["hot.width", "wm.omega0", "wm.mass", "drive_freq"])
    def test_other_axes_start_above_zero(self, param):
        with pytest.raises(ConfigError,
                           match=rf"^axis {param}: start must be > 0, got 0.0$") as exc:
            tt.Axis(param, 0.0, 0.5, 5)
        assert exc.value.key == "start"

    def test_gamma_m_is_not_an_axis(self):
        # the static bath's damping does not enter the kernel
        with pytest.raises(ConfigError, match=r"^unknown sweep parameter 'mid.gamma_m'"):
            tt.Axis("mid.gamma_m", 0.05, 0.2, 3)

    def test_one_coupling_on_both_axes_is_rejected(self, default_config):
        with pytest.raises(ConfigError, match="both set hot.kappa") as exc:
            tt.SweepSpec(template=default_config, axis1=tt.Axis("hot.kappa", 0.0, 0.02, 3),
                         axis2=tt.Axis("hot.kappa", 0.01, 0.03, 4))
        assert exc.value.key == "axis2.param"


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
        with pytest.raises(DomainError):
            tt.mode_sequence_along_omega(default_config, np.array([0.3, 0.2]))
        with pytest.raises(DomainError):
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
            result.thermo[0, 0]


_NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]


class TestFloatTexts:
    """``_float_texts`` formats each run of bit-identical neighbours once."""

    CASES = {
        "empty": [],
        "one": [0.1],
        "two_equal": [0.1, 0.1],
        "two_zeros": [0.0, -0.0],
        "adjacent_zeros": [0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 1.0, 1.0],
        "nan_runs": [np.nan, np.nan, 1.0, np.nan, _NAN_PAYLOAD, _NAN_PAYLOAD, -np.nan],
        "inf_runs": [np.inf, np.inf, -np.inf, -np.inf, np.inf, 2.5, 2.5, -np.inf],
        "subnormal": [5e-324, 5e-324, -5e-324, -5e-324, 0.0, 5e-324, 1e-320],
        "one_run": [1.0 / 3.0] * 40,
        "no_runs": np.linspace(0.02, 0.9, 41),
    }

    @staticmethod
    def _check(values):
        csv_text, json_text = _float_texts(values)
        assert csv_text == [repr(float(v)) for v in values]
        assert json_text == [json.dumps(float(v)) for v in values]

    @pytest.mark.parametrize("name", CASES)
    def test_each_text_is_the_repr_of_its_value(self, name):
        self._check(np.array(self.CASES[name], dtype=np.float64))

    def test_strided_columns(self):
        result = _writer_case("one_run_column")
        assert not result.thermo[:, 1].flags.contiguous
        for c in range(5):
            self._check(result.thermo[:, c])
        for column in (result.phi, result.r, result.g):
            self._check(column)
        assert len(set(result.thermo[:, 1].tolist())) == 1


# Reference writers: the original per-cell export, one repr per numpy
# scalar, with JSON re-parsed from the CSV strings and written by json.dump.
def _reference_rows(result):
    n2 = 1 if result.axis2_values is None else len(result.axis2_values)
    labels = [MODE_BY_CODE[c].value if c != ERROR_CODE else "error"
              for c in result.mode_codes]
    errors = result.errors
    for k in range(result.size):
        i, j = divmod(k, n2)
        row = [repr(float(result.axis1_values[i]))]
        if result.axis2_values is not None:
            row.append(repr(float(result.axis2_values[j])))
        row += [repr(float(result.thermo[k, c])) for c in range(5)]
        row.append(labels[k])
        row.append(repr(float(result.phi[k])))
        if result.r is not None:
            row += [repr(float(result.r[k])), repr(float(result.g[k]))]
        row.append(errors[k] or "")
        yield row


def _reference_csv(result, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.csv_header())
        writer.writerows(_reference_rows(result))


def _json_cell(value):
    try:
        return float(value)
    except ValueError:
        return value


def _reference_json(result, path):
    spec = result.spec
    payload = {
        "metadata": {
            "artifact": "tritherm",
            "config": spec.template.to_dict(),
            "grid": {"axis1": asdict(spec.axis1),
                     "axis2": asdict(spec.axis2) if spec.axis2 else None},
            "outputs": sorted(spec.outputs),
        },
        "schema": result.csv_header(),
        "rows": [[_json_cell(v) for v in row] for row in _reference_rows(result)],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))


def _hand_built_result():
    # every error code, the comma-bearing drive error, and non-finite r/g
    spec = tt.SweepSpec(template=make_config(),
                        axis1=tt.Axis("drive_freq", 0.2, 0.4, 2),
                        axis2=tt.Axis("hot.center", 1.2, 1.5, 3),
                        outputs=frozenset({"mode", "transistor"}))
    thermo = np.linspace(-1e-3, 2e-3, 6 * 7).reshape(6, 7)
    thermo[[0, 4, 5]] = np.nan
    nan, inf = np.nan, np.inf
    return tt.SweepResult(
        spec, spec.axis1.values(), spec.axis2.values(), thermo,
        np.array([ERROR_CODE, 0, 3, 7, ERROR_CODE, ERROR_CODE], dtype=np.int8),
        np.array([nan, 0.5, -0.0, 1.0, nan, nan]),
        np.array([nan, inf, -inf, 1e300, nan, nan]),
        np.array([nan, -inf, 5e-324, nan, nan, nan]),
        np.array([1, 0, 0, 0, 2, 3], dtype=np.int8))


def _writer_case(name):
    cfg = make_config()
    transistor = frozenset({"currents", "mode", "exergy", "transistor"})
    if name == "hand_built":
        return _hand_built_result()
    spec = {
        "2d_transistor": tt.SweepSpec(
            template=cfg, axis1=tt.Axis("drive_freq", 0.02, 0.9, 23),
            axis2=tt.Axis("hot.center", 1.0, 2.0, 19), outputs=transistor),
        "1d_plain": tt.SweepSpec(template=cfg,
                                 axis1=tt.Axis("drive_freq", 0.02, 0.98, 41)),
        "error_cells": tt.SweepSpec(
            template=cfg, axis1=tt.Axis("hot.center_locked", 0.5, 2.0, 17),
            axis2=tt.Axis("hot.temperature", 0.1, 1.0, 13), outputs=transistor),
        "drive_error_cells": tt.SweepSpec(
            template=make_config(drive=1.2),
            axis1=tt.Axis("hot.center", 1.1, 1.9, 5)),
        "several_chunks": tt.SweepSpec(
            template=cfg, axis1=tt.Axis("drive_freq", 0.02, 0.9, 97),
            axis2=tt.Axis("hot.center", 1.0, 2.0, 91), outputs=transistor),
        # j_cold does not depend on the hot bath: one run over the whole grid
        "one_run_column": tt.SweepSpec(
            template=cfg, axis1=tt.Axis("hot.temperature", 0.6, 1.5, 9),
            axis2=tt.Axis("hot.center", 1.0, 2.0, 7), outputs=transistor),
    }[name]
    return tt.run_sweep(spec)


class TestWriterBytes:
    @pytest.mark.parametrize("name", ["2d_transistor", "1d_plain", "error_cells",
                                      "drive_error_cells", "hand_built",
                                      "several_chunks", "one_run_column"])
    def test_csv_and_json_match_reference(self, tmp_path, name):
        result = _writer_case(name)
        if name == "several_chunks":
            assert result.size > _CHUNK_ROWS and result.size % _CHUNK_ROWS
        if name == "error_cells":
            assert set(result.error_codes.tolist()) == {0, 2, 3}
        _reference_csv(result, tmp_path / "want.csv")
        _reference_json(result, tmp_path / "want.json")
        want_csv = (tmp_path / "want.csv").read_bytes()
        want_json = (tmp_path / "want.json").read_bytes()
        result.to_csv(tmp_path / "got.csv")
        result.to_json(tmp_path / "got.json")
        assert (tmp_path / "got.csv").read_bytes() == want_csv
        assert (tmp_path / "got.json").read_bytes() == want_json
        # one pass writing both files, as the sweep command does
        result._write_text(tmp_path / "both.csv", tmp_path / "both.json")
        assert (tmp_path / "both.csv").read_bytes() == want_csv
        assert (tmp_path / "both.json").read_bytes() == want_json

    def test_hand_built_case_covers_quoting_and_nonfinite(self, tmp_path):
        result = _hand_built_result()
        result.to_csv(tmp_path / "map.csv")
        text = (tmp_path / "map.csv").read_text()
        assert '"drive_freq outside (0, omega0)"' in text
        assert ",inf," in text and ",-inf," in text
        result.to_json(tmp_path / "map.json")
        raw = (tmp_path / "map.json").read_text()
        assert "Infinity" in raw and "NaN" in raw
        assert result.errors == [
            "drive_freq outside (0, omega0)", None, None, None,
            "temperature ordering violated", "nonpositive spectral peak frequency"]


def _fork_case(name):
    if name == "error_boundaries":
        # error cells on both sides of every range boundary of 2 and 3 writers
        return tt.run_sweep(tt.SweepSpec(
            template=make_config(), axis1=tt.Axis("drive_freq", 0.02, 0.9, 25),
            axis2=tt.Axis("hot.temperature", 0.05, 0.6, 12)))
    if name == "below_one_chunk":
        return tt.run_sweep(small_spec(make_config()))
    return _writer_case(name)


def _count_forks(monkeypatch) -> list:
    """The pids of the children forked from here on, in fork order."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWriter:
    """The text export on one process per range of rows (``_WORKERS``)."""

    CHUNK = 16   # rows per chunk here, so small grids span several ranges

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", ["1d_plain", "2d_transistor", "below_one_chunk",
                                      "error_boundaries", "one_run_column"])
    def test_bytes_do_not_depend_on_the_writer_count(self, monkeypatch, tmp_path,
                                                     workers, name):
        result = _fork_case(name)
        if name == "one_run_column":
            # the run crosses every chunk and every range boundary
            assert len(set(result.thermo[:, 1].tolist())) == 1
            assert result.size > 3 * self.CHUNK and not result.error_codes.any()
        _reference_csv(result, tmp_path / "want.csv")
        _reference_json(result, tmp_path / "want.json")
        monkeypatch.setattr(sweep, "_CHUNK_ROWS", self.CHUNK)
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        writers = min(workers, -(-result.size // self.CHUNK))
        if name == "error_boundaries":
            bounds = [result.size * w // writers for w in range(1, writers)]
            assert all(result.error_codes[b - 1] and result.error_codes[b]
                       for b in bounds)
        forks = _count_forks(monkeypatch)
        result.to_csv(tmp_path / "got.csv")
        result.to_json(tmp_path / "got.json")
        result._write_text(tmp_path / "both.csv", tmp_path / "both.json")
        assert len(forks) == 3 * (writers - 1)
        _assert_no_child_left()
        for got in ("got", "both"):
            assert (tmp_path / f"{got}.csv").read_bytes() == \
                (tmp_path / "want.csv").read_bytes()
            assert (tmp_path / f"{got}.json").read_bytes() == \
                (tmp_path / "want.json").read_bytes()

    def _failing_ranges(self, monkeypatch, fails):
        """Make the chunks of the rows for which ``fails(rows)`` holds raise."""
        chunks = tt.SweepResult._text_chunks

        def text_chunks(result, rows, *wants):
            if fails(rows):
                raise RuntimeError(f"rows from {rows.start}")
            return chunks(result, rows, *wants)
        monkeypatch.setattr(sweep, "_CHUNK_ROWS", self.CHUNK)
        monkeypatch.setattr(_kernels, "_WORKERS", 3)
        monkeypatch.setattr(tt.SweepResult, "_text_chunks", text_chunks)
        return _count_forks(monkeypatch)

    def test_failing_child_raises_and_cli_exits_two(self, monkeypatch, tmp_path, capsys):
        result = _writer_case("1d_plain")
        forks = self._failing_ranges(monkeypatch, lambda rows: rows.start > 0)
        with pytest.raises(TrithermError, match="rows 13 to 26 exited with status 1"):
            result._write_text(tmp_path / "map.csv", tmp_path / "map.json")
        assert len(forks) == 2
        _assert_no_child_left()
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(make_config().to_dict()))
        assert main(["sweep", "--config", str(path), "--axis1",
                     "drive_freq:0.02:0.98:41", "--out", str(tmp_path / "map.csv")]) == 2
        assert capsys.readouterr().err == \
            "internal error: the writer of rows 13 to 26 exited with status 1\n"
        _assert_no_child_left()

    def test_failing_caller_kills_its_children(self, monkeypatch, tmp_path):
        def fails(rows):
            if rows.start:   # a child: outlives the test unless killed
                time.sleep(30)
            return rows.start == 0
        result = _writer_case("1d_plain")
        forks = self._failing_ranges(monkeypatch, fails)
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="rows from 0"):
            result.to_csv(tmp_path / "map.csv")
        assert len(forks) == 2
        _assert_no_child_left()
        assert time.monotonic() - began < 20

    def test_no_fork_beside_another_thread(self, monkeypatch, tmp_path):
        result = _writer_case("2d_transistor")
        _reference_csv(result, tmp_path / "want.csv")
        monkeypatch.setattr(sweep, "_CHUNK_ROWS", self.CHUNK)
        monkeypatch.setattr(_kernels, "_WORKERS", 3)
        forks = _count_forks(monkeypatch)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            result.to_csv(tmp_path / "got.csv")
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
