import json
import math

import numpy as np
import pytest

import tritherm as tt
from tritherm.core import DomainError
from tritherm.transistor import _ratio, _runs, window_mask

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

    def test_runs_match_loop_reference(self):
        rng = np.random.default_rng(4)
        for n in (0, 1, 2, 7, 50):
            values = rng.integers(0, 3, n)
            expected, start = [], 0
            for k in range(1, n + 1):
                if k == n or values[k] != values[start]:
                    expected.append((start, k))
                    start = k
            assert _runs(values) == expected

    def test_real_window_exists(self):
        cfg = transistor_config()
        grid = np.linspace(0.02, 0.98, 481)
        windows = tt.find_windows(cfg, grid)
        assert windows, "expected a useful window for this machine"
        widest = max(windows, key=lambda w: w.width)
        assert widest.width >= 0.3
        for w in windows:
            assert w.min_r > 10.0 and w.min_g > 10.0

    def test_grid_validation(self):
        cfg = transistor_config()
        with pytest.raises(DomainError):
            tt.find_windows(cfg, np.array([0.3, 0.2, 0.5]))
        with pytest.raises(DomainError):
            tt.find_windows(cfg, np.array([0.2, 0.3]))
        with pytest.raises(DomainError):
            tt.find_windows(cfg, np.linspace(0.5, 1.2, 11))
