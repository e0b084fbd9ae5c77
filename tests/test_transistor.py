import json
import math
import pathlib
import warnings

import numpy as np
import pytest
import yaml

import tritherm as tt
from tritherm.cli import main
from tritherm.core import DomainError
from tritherm.transistor import _ratio, _runs, _window_runs, window_mask

from conftest import DATA, config_from_params, make_config


def transistor_config(drive=0.3):
    # zero detuning, mid and cold temperatures nearly equal: the regime in
    # which wide useful windows exist
    return make_config(drive=drive, th=0.6, tm=0.3, tc=0.28,
                       wh=1.7, wc=1.7, gh=0.05, gc=0.05, kh=0.01, kc=0.01)


class TestPointQuantities:
    def test_ratio_arithmetic(self):
        assert _ratio(5.0, 0.5) == 10.0
        assert _ratio(-5.0, 0.5) == 10.0
        assert _ratio(1.0, 0.0) == math.inf
        assert _ratio(1.0, 5e-15) == math.inf

    def test_ratio_arrays_equal_the_two_select_formula(self):
        band = tt.SIGN_ZERO_BAND
        dens = [0.0, -0.0, 5e-324, 1.0, -2.5, math.nan, math.inf, -math.inf]
        dens += [x for b in (band, -band) for x in
                 (b, np.nextafter(b, math.inf), np.nextafter(b, -math.inf))]
        nums = [0.0, -0.0, 1.0, -3.0, 1e300, math.nan, math.inf, -math.inf]
        num, den = (np.array(v).reshape(-1) for v in np.meshgrid(nums, dens))
        with np.errstate(all="ignore"):
            small = np.abs(den) < band
            old = np.where(small, np.inf, np.abs(num / np.where(small, 1.0, den)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no warning of its own
            new = _ratio(num, den)
            assert new.tobytes() == old.tobytes()
            # rows of a tile, as _figures passes them
            assert _ratio(num.reshape(8, -1), den.reshape(8, -1)).tobytes() == old.tobytes()

    def test_point_consistency_with_currents(self):
        cfg = transistor_config()
        tp = tt.transistor_point(cfg)
        point = tt.evaluate_point(cfg)
        assert tp.j_hot == point.j_hot
        assert tp.power == point.power
        if abs(tp.power) > 1e-14:
            assert tp.r == pytest.approx(abs(tp.j_hot / tp.power), rel=1e-12)

    def test_richardson_cross_check(self):
        # independent derivative route: step 1e-6 with one Richardson
        # extrapolation level
        cfg = transistor_config(drive=0.35)
        tp = tt.transistor_point(cfg)

        def currents_at(drive):
            c = tt.apply_params(cfg, {"drive_freq": drive})
            p = tt.evaluate_point(c)
            return p.j_hot, p.power

        w = cfg.drive_freq
        h = 1e-6 * w
        estimates = []
        for hh in (h, h / 2):
            jp, pp = currents_at(w + hh)
            jm, pm = currents_at(w - hh)
            estimates.append(((jp - jm) / (2 * hh), (pp - pm) / (2 * hh)))
        dj = (4 * estimates[1][0] - estimates[0][0]) / 3
        dp = (4 * estimates[1][1] - estimates[0][1]) / 3
        assert tp.djh_domega == pytest.approx(dj, rel=1e-4)
        assert tp.dp_domega == pytest.approx(dp, rel=1e-4)
        assert tp.g == pytest.approx(abs(dj / dp), rel=1e-4)

    def test_slopes_match_oracle(self):
        # mpmath.diff of the closed forms at the 25 reference sets
        with open(DATA / "reference_slopes.json") as fh:
            sets = json.load(fh)["sets"]
        worst = 0.0
        for rec in sets:
            tp = tt.transistor_point(config_from_params(rec["params"]))
            for got, key in ((tp.djh_domega, "djh_domega"),
                             (tp.dp_domega, "dp_domega")):
                expected = float(rec[key])
                if expected == 0.0:  # hot.kappa = 0: no hot current at all
                    assert got == 0.0
                else:
                    worst = max(worst, abs(got - expected) / abs(expected))
        assert worst <= 1e-12
        assert sum(rec["params"]["hot_kappa"] == 0.0 for rec in sets) == 1

    def test_drive_domain(self):
        cfg = make_config(drive=0.5)
        for drive in (1.0, 1.2):
            with pytest.raises(DomainError):
                tt.transistor_point(tt.apply_params(cfg, {"drive_freq": drive}))
            with pytest.raises(DomainError):
                tt.transistor_trace(cfg, [0.5, drive])
        with pytest.raises(DomainError):
            tt.transistor_trace(cfg, [0.0, 0.5])
        # exact slopes need no stencil room: the edge of (0, omega0) works
        near_edge = tt.apply_params(cfg, {"drive_freq": 1.0 - 1e-9})
        tp = tt.transistor_point(near_edge)
        assert math.isfinite(tp.r) and math.isfinite(tp.g)


class TestWindows:
    def test_no_passing_points(self):
        omega = np.linspace(0.1, 0.9, 9)
        r = np.full(9, 2.0)
        g = np.full(9, 50.0)
        assert tt.windows_from_arrays(omega, r, g) == []

    def test_synthetic_run(self):
        omega = np.linspace(0.1, 1.0, 10)
        r = np.full(10, 1.0)
        g = np.full(10, 1.0)
        r[3:8] = 100.0
        g[3:8] = 40.0
        out = tt.windows_from_arrays(omega, r, g)
        assert len(out) == 1
        w = out[0]
        assert w.omega_min == pytest.approx(omega[3])
        assert w.omega_max == pytest.approx(omega[7])
        assert w.min_r == 100.0
        assert w.min_g == 40.0
        assert not w.contains_inversion

    def test_single_point_run_is_not_a_window(self):
        omega = np.linspace(0.1, 1.0, 10)
        r = np.full(10, 1.0)
        g = np.full(10, 100.0)
        r[4] = 100.0
        assert tt.windows_from_arrays(omega, r, g) == []

    def test_infinite_points_flagged_with_finite_minima(self):
        omega = np.linspace(0.1, 1.0, 10)
        r = np.full(10, 30.0)
        g = np.full(10, 40.0)
        r[5] = math.inf
        out = tt.windows_from_arrays(omega, r, g)
        assert len(out) == 1
        assert out[0].contains_inversion
        assert math.isfinite(out[0].min_r)
        assert out[0].min_r == 30.0

    def test_windows_disjoint_and_sorted(self):
        omega = np.linspace(0.1, 1.0, 12)
        r = np.full(12, 100.0)
        g = np.array([1, 50, 50, 1, 1, 50, 50, 50, 1, 50, 50, 1.0])
        out = tt.windows_from_arrays(omega, r, g)
        assert len(out) == 3
        for a, b in zip(out, out[1:]):
            assert a.omega_max < b.omega_min

    def test_window_mask_and_dict(self):
        omega = np.linspace(0.1, 1.2, 12)
        r = np.full(12, 100.0)
        g = np.array([1, 50, 50, 1, 1, 50, 50, 50, 1, 50, 50, 1.0])
        out = tt.windows_from_arrays(omega, r, g)
        mask = window_mask(omega, out)
        assert mask.tolist() == (g > 10.0).tolist()
        assert out[0].to_dict() == {
            "omega_min": omega[1], "omega_max": omega[2], "min_r": 100.0,
            "min_g": 50.0, "contains_inversion": False}

    @staticmethod
    def loop_runs(values):
        """``(row, start, stop)`` of every run of equal values, row by row."""
        expected = []
        for row, line in enumerate(np.atleast_2d(values).tolist()):
            n, start = len(line), 0
            for k in range(1, n + 1):
                if k == n or line[k] != line[start]:
                    expected.append((row, start, k))
                    start = k
        return expected

    @staticmethod
    def cases(rng):
        """Seeded 1D and 2D arrays: random, empty, all equal, single points,
        and runs at both edges."""
        for shape in ((0,), (1,), (2,), (7,), (50,), (0, 4), (3, 0), (4, 1), (6, 50)):
            yield rng.integers(0, 3, shape)
            yield np.zeros(shape, dtype=int)
            yield np.arange(math.prod(shape)).reshape(shape)
        yield np.array([1, 1, 0, 0, 0, 1, 1])
        yield np.array([[1, 1, 0, 1], [0, 1, 1, 1], [2, 2, 2, 2]])

    def test_runs_match_loop_reference(self):
        for values in self.cases(np.random.default_rng(4)):
            got = list(zip(*(a.tolist() for a in _runs(values))))
            assert got == self.loop_runs(values), values

    def test_window_runs_match_loop_reference(self):
        # one rule, runs of >= 2 points with r and g above the threshold,
        # along the last axis of 1D and 2D input
        rng = np.random.default_rng(5)
        for shape in [v.shape for v in self.cases(rng)]:
            r = rng.choice([1.0, 10.0, 20.0, np.inf], shape)
            g = rng.choice([5.0, 30.0, np.inf], shape)
            passing = np.atleast_2d((r > 10.0) & (g > 10.0))
            expected = [(row, a, b) for row, a, b in self.loop_runs(passing)
                        if passing[row, a] and b - a >= 2]
            got = list(zip(*(a.tolist() for a in _window_runs(r, g, 10.0))))
            assert got == expected

    def test_real_window_exists(self):
        cfg = transistor_config()
        grid = np.linspace(0.02, 0.98, 481)
        windows = tt.find_windows(cfg, grid)
        assert windows, "expected a useful window for this machine"
        widest = max(windows, key=lambda w: w.width)
        assert widest.width >= 0.3
        for w in windows:
            assert w.min_r > 10.0 and w.min_g > 10.0

    # an array, flat or nested, is named too, not left to numpy's errors
    @pytest.mark.parametrize("threshold", [float("nan"), -1.0, 0.0, float("inf"),
                                           np.array([10.0, 20.0]), [[10.0]]])
    def test_threshold_must_be_positive(self, threshold):
        grid = np.linspace(0.02, 0.98, 11)
        with pytest.raises(DomainError, match="threshold"):
            tt.find_windows(transistor_config(), grid, threshold=threshold)
        with pytest.raises(DomainError, match="threshold"):
            tt.windows_from_arrays(grid, np.full(11, 20.0), np.full(11, 20.0),
                                   threshold)

    @pytest.mark.parametrize("omega,r,g", [
        ([0.1, 0.2], [1, 2], [1, 2, 3]),
        ([0.1, 0.2, 0.3], [20, 20], [20, 20, 20]),
        (np.ones((2, 3)), np.full((2, 3), 20.0), np.full((2, 3), 20.0)),
        (0.1, 20.0, 20.0)], ids=["g_longer", "r_shorter", "2d", "0d"])
    def test_arrays_must_be_1d_of_one_length(self, omega, r, g):
        with pytest.raises(DomainError, match="1D arrays of one length"):
            tt.windows_from_arrays(omega, r, g, 1.0)

    @pytest.mark.parametrize("omega", [
        [], [0.1, np.nan, 0.3, 0.4], [0.1, 0.2, 0.3, np.inf], [-np.inf, 0.2, 0.3, 0.4],
        [0.1, 0.2, 0.2, 0.3], [0.5, 0.4, 0.2, 0.1]],
        ids=["empty", "nan", "inf_last", "-inf_first", "repeat", "decreasing"])
    def test_omega_must_be_a_grid(self, omega):
        # every point passes the threshold, so a window over a bad grid
        # would span it (omega_max = inf, or omega_min > omega_max)
        passing = np.full(len(omega), 20.0)
        with pytest.raises(DomainError, match="^omega must be a non-empty, finite, "
                                              "strictly increasing 1D array$"):
            tt.windows_from_arrays(np.array(omega), passing, passing)

    def test_grid_validation(self):
        cfg = transistor_config()
        with pytest.raises(DomainError):
            tt.find_windows(cfg, np.array([0.3, 0.2, 0.5]))
        with pytest.raises(DomainError):
            tt.find_windows(cfg, np.array([0.2, 0.3]))
        with pytest.raises(DomainError):
            tt.find_windows(cfg, np.linspace(0.5, 1.2, 11))


class TestNonfiniteSlopes:
    """A hot bath at 1e154 barely coupled (kappa 2.5e-150): the currents
    are finite, but the drive slope of j_hot overflows, so g is NaN."""

    CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
    SET = {"hot.temperature": 1.6574392628797557e+154,
           "hot.kappa": 2.5236352017280125e-150}

    def config(self):
        return tt.apply_params(
            tt.MachineConfig.from_dict(yaml.safe_load(self.CONFIG.read_text())), self.SET)

    def test_point_and_trace_raise(self):
        config = self.config()
        tt.evaluate_point(config)   # no slopes: every value is finite
        with pytest.raises(DomainError, match="nonfinite values at this operating point"):
            tt.transistor_point(config)
        with pytest.warns(RuntimeWarning), \
                pytest.raises(DomainError, match="nonfinite values along the omega grid"):
            tt.transistor_trace(config, np.linspace(0.02, 0.98, 5))

    def test_sweep_cells_are_error_cells(self):
        config = self.config()
        axes = (tt.Axis("hot.temperature", 1e154, 2e154, 3),
                tt.Axis("drive_freq", 0.1, 0.9, 3))
        spec = tt.SweepSpec(template=config, axis1=axes[0], axis2=axes[1],
                            outputs=frozenset({"transistor"}))
        # no RuntimeWarning (an error under this suite's filter): the error
        # codes report the nonfinite cells
        result = tt.run_sweep(spec)
        assert result.error_codes.tolist() == [0] + [5] * 8
        assert np.isnan(result.g[1:]).all() and np.isnan(result.thermo[1:]).all()
        point = tt.transistor_point(tt.apply_params(
            config, {"hot.temperature": 1e154, "drive_freq": 0.1}))
        assert (result.r[0], result.g[0]) == (point.r, point.g)
        # without the transistor columns no slope is computed or checked
        plain = tt.run_sweep(tt.SweepSpec(template=config, axis1=axes[0], axis2=axes[1]))
        assert not plain.error_codes.any()

    def test_search_candidates_score_minus_inf(self):
        spec = tt.SearchSpec("transistor_window",
                             {"hot.temperature": tt.VaryRange(1e154, 2e154)},
                             samples=4, refine_rounds=0, omega_count=5)
        # no RuntimeWarning, raised as an error here: the -inf scores
        # report the nonfinite candidates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tt.run_search(self.config(), spec, 0) == []

    def test_cli_exits_one_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        flags = [f"--set={k}={v!r}" for k, v in self.SET.items()]
        assert main(["transistor", "--config", str(self.CONFIG), *flags,
                     "--points", "5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith(
            "error: the closed forms give nonfinite values along the omega grid")
        assert not out.exists() and not (tmp_path / "t.csv.manifest.json").exists()
