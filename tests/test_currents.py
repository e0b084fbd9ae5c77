import math
import re
from types import SimpleNamespace

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import tritherm as tt
from tritherm import _kernels, search
from tritherm.core import ConfigError, DomainError
from tritherm._kernels import NCOLS
from tritherm.currents import (KERNEL_PATHS, VALIDITY_MESSAGES, _blank_errors,
                               config_args, validity_codes)

from conftest import config_from_params, make_config, random_valid_batch


class TestOracleEquivalence:
    """Frozen arbitrary-precision references for the closed forms."""

    def test_heat_currents_and_power(self, reference_sets):
        for rec in reference_sets:
            point = tt.evaluate_point(config_from_params(rec["params"]))
            for name in ("j_hot", "j_cold", "power"):
                assert getattr(point, name) == pytest.approx(
                    float(rec[name]), rel=1e-12, abs=1e-300), (name, rec["params"])

    def test_full_point(self, reference_sets):
        for rec in reference_sets:
            point = tt.evaluate_point(config_from_params(rec["params"]))
            assert point.j_mid == pytest.approx(float(rec["j_mid"]), rel=1e-12)
            assert point.entropy_rate == pytest.approx(
                float(rec["entropy_rate"]), rel=1e-12)


class TestLimits:
    def test_decoupled_hot_bath_gives_zero_current(self):
        cfg = make_config(kh=0.0)
        assert tt.evaluate_point(cfg).j_hot == 0.0

    def test_decoupled_cold_bath_gives_zero_current(self):
        cfg = make_config(kc=0.0)
        assert tt.evaluate_point(cfg).j_cold == 0.0

    def test_slow_drive_equal_temperature_hot_current_vanishes(self):
        # with hot at the mid temperature both occupation differences vanish
        # as the drive slows down
        cfg = make_config(drive=1e-9, th=0.5, tm=0.5, tc=0.2)
        assert abs(tt.evaluate_point(cfg).j_hot) < 1e-18

    def test_power_vanishes_without_couplings(self):
        cfg = make_config(kh=0.0, kc=0.0)
        assert tt.evaluate_point(cfg).power == 0.0

    def test_power_vanishes_linearly_with_drive(self):
        p1 = tt.evaluate_point(make_config(drive=1e-6)).power
        p2 = tt.evaluate_point(make_config(drive=2e-6)).power
        assert p2 == pytest.approx(2.0 * p1, rel=1e-3)
        assert abs(p1) < 1e-8

    def test_global_equilibrium_is_silent(self):
        cfg = make_config(drive=1e-9, th=0.5, tm=0.5, tc=0.5)
        point = tt.evaluate_point(cfg)
        for v in (point.j_hot, point.j_cold, point.j_mid, point.power,
                  point.entropy_rate):
            assert abs(v) < 1e-18


class TestDomain:
    def test_drive_at_omega0_rejected(self):
        cfg = make_config(drive=1.0)
        with pytest.raises(DomainError):
            tt.evaluate_point(cfg)
        with pytest.raises(DomainError):
            tt.mode_report(cfg)
        with pytest.raises(DomainError):
            tt.transistor_point(cfg)

    def test_drive_above_omega0_rejected(self):
        with pytest.raises(DomainError):
            tt.evaluate_point(make_config(drive=1.2))


class TestBlankErrors:
    """The one rule after the kernel, on a hand-made table with slopes."""

    def test_codes_and_blanks_in_place(self):
        table = np.arange(4 * (NCOLS + 2), dtype=float).reshape(4, NCOLS + 2)
        table[1, -1] = np.inf   # a valid point with a nonfinite drive slope
        table[2, 0] = np.nan    # an invalid point that is also nonfinite
        codes = np.array([0, 0, 2, 3], dtype=np.int8)
        first_row = table[0].copy()
        bad = _blank_errors(table, codes)
        assert bad.tolist() == [False, True, True, True]
        assert codes.tolist() == [0, len(VALIDITY_MESSAGES) - 1, 2, 3]
        assert VALIDITY_MESSAGES[codes[1]] == "nonfinite kernel result"
        assert np.isnan(table[1:]).all()
        assert table[0].tobytes() == first_row.tobytes()

    def test_a_clean_table_is_left_alone(self):
        table = np.ones((2, 3, NCOLS))
        codes = np.zeros((2, 3), dtype=np.int8)
        assert not _blank_errors(table, codes).any()
        assert (table == 1.0).all() and not codes.any()


class TestParameterRule:
    """Every entry point applies the one parameter rule: for each parameter
    and value, either all of them reject it or none does."""

    @staticmethod
    def _namespace(data):
        # a template the search reads like a config, but holding any value
        return SimpleNamespace(**{k: TestParameterRule._namespace(v)
                                  if isinstance(v, dict) else v for k, v in data.items()})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, 0.0])
    @pytest.mark.parametrize("path", KERNEL_PATHS + ("mid.gamma_m",))
    def test_entry_points_agree(self, default_config, path, value):
        section, _, key = path.rpartition(".")
        verdicts = []
        try:
            tt.apply_params(default_config, {path: value})
            verdicts.append(False)
        except ConfigError as exc:
            assert path in str(exc)
            verdicts.append(True)
        if path in KERNEL_PATHS:
            name = key if section == "wm" else path.replace(".", "_")
            args = list(config_args(default_config))
            args[KERNEL_PATHS.index(path)] = value
            try:
                tt.evaluate_arrays(*args)
                verdicts.append(False)
            except DomainError as exc:
                assert re.match(rf"{name} must be finite and >=? 0$", str(exc))
                verdicts.append(True)
            verdicts.append(bool(validity_codes(args, 1)[0]))
        data = default_config.to_dict()
        (data[section] if section else data)[key] = value
        # one varied parameter, held at its template value
        other = "cold" if path == "hot.center" else "hot"
        center = getattr(default_config, other).center
        spec = tt.SearchSpec(objective="transistor_window",
                             vary={f"{other}.center": tt.VaryRange(center, center)})
        _, _, valid = search._columns(self._namespace(data), spec,
                                      np.full((1, 1), 0.5), spec.grid)
        verdicts.append(not valid[0])
        assert verdicts == [not (value == 0.0 and key == "kappa")] * len(verdicts)


class TestStructure:
    def test_first_law_holds_to_the_bit(self, default_config):
        p = tt.evaluate_point(default_config)
        assert p.power + p.j_hot + p.j_cold + p.j_mid == 0.0

    def test_entropy_split_reassembles(self, default_config):
        p = tt.evaluate_point(default_config)
        assert p.entropy_rate == pytest.approx(p.entropy_pos + p.entropy_neg,
                                               abs=1e-12)

    def test_entropy_matches_per_bath_sum(self, default_config):
        # -sum_nu J_nu / T_nu with j_mid from balance equals the three-term form
        p = tt.evaluate_point(default_config)
        c = default_config
        direct = -(p.j_hot / c.hot.temperature + p.j_cold / c.cold.temperature
                   + p.j_mid / c.mid.temperature)
        assert p.entropy_rate == pytest.approx(direct, abs=1e-12)

    def test_kappa_linearity(self, default_config):
        base = tt.evaluate_point(default_config)
        doubled = tt.evaluate_point(tt.apply_params(
            default_config, {"hot.kappa": 0.02, "cold.kappa": 0.02}))
        for name in ("j_hot", "j_cold", "j_mid", "power"):
            assert getattr(doubled, name) == pytest.approx(
                2.0 * getattr(base, name), rel=1e-14)
        tripled = tt.evaluate_point(tt.apply_params(
            default_config, {"hot.kappa": 0.03, "cold.kappa": 0.03}))
        for name in ("j_hot", "j_cold", "j_mid", "power"):
            assert getattr(tripled, name) == pytest.approx(
                3.0 * getattr(base, name), rel=1e-14)

    def test_hot_cold_swap_symmetry(self):
        cfg = make_config(th=0.8, tc=0.2, wh=1.5, wc=0.75, gh=0.04, gc=0.06,
                          kh=0.01, kc=0.02)
        swapped = make_config(th=0.2, tc=0.8, wh=0.75, wc=1.5, gh=0.06, gc=0.04,
                              kh=0.02, kc=0.01)
        a = tt.evaluate_point(cfg)
        b = tt.evaluate_point(swapped)
        assert a.j_hot == b.j_cold
        assert a.j_cold == b.j_hot
        assert a.power == b.power


class TestBatch:
    def test_broadcasting(self, default_config):
        from tritherm.currents import config_args
        args = config_args(default_config)
        drive = np.linspace(0.1, 0.9, 17)
        batch = tt.evaluate_arrays(args[0], args[1], drive, *args[3:])
        assert batch.j_hot.shape == (17,)
        mid = tt.evaluate_point(tt.apply_params(default_config,
                                                {"drive_freq": float(drive[3])}))
        assert batch.j_hot[3] == mid.j_hot
        assert batch.power[3] == mid.power

    def test_domain_check(self, default_config):
        from tritherm.currents import config_args
        args = config_args(default_config)
        with pytest.raises(DomainError):
            tt.evaluate_arrays(args[0], args[1], np.array([0.5, 1.0]), *args[3:])

    @pytest.mark.parametrize("name, value", [
        ("drive_freq", np.nan), ("drive_freq", np.array([0.3, np.nan])),
        ("cold_temperature", -0.1), ("hot_temperature", 0.0),
        ("mid_temperature", np.inf), ("hot_width", 0.0), ("cold_center", -1.0),
        ("hot_kappa", -0.01), ("mass", np.nan), ("omega0", np.inf)])
    def test_bad_argument_is_named(self, name, value):
        batch = random_valid_batch(2, seed=3)
        batch[name] = value
        with pytest.raises(DomainError, match=name):
            tt.evaluate_arrays(**batch)

    @pytest.mark.parametrize("first, second", [("drive_freq", "hot_temperature"),
                                               ("omega0", "drive_freq")])
    def test_unbroadcastable_arguments_are_named(self, first, second):
        # the drive check broadcasts omega0 with drive_freq, so the shapes
        # must be checked before it
        batch = {name: v[0] for name, v in random_valid_batch(1, seed=3).items()}
        batch[first] = np.full(2, batch[first])
        batch[second] = np.full(3, batch[second])
        with pytest.raises(DomainError, match=re.escape(
                f"{first} of shape (2,) and {second} of shape (3,) do not broadcast")):
            tt.evaluate_arrays(**batch)

    @pytest.mark.parametrize("hot_center, bad", [
        (1e200, 1), (np.array([1.5, 1e200, 2.0, 1e200]), 2)], ids=["scalar", "array"])
    def test_nonfinite_values_raise_counting_points(self, default_config, hot_center, bad):
        # a hot Lorentzian of inf / inf: evaluate_point raises on it too, and
        # neither warns (a RuntimeWarning is an error under this suite's filter)
        args = list(config_args(default_config))
        args[KERNEL_PATHS.index("hot.center")] = hot_center
        with pytest.raises(DomainError,
                           match=f"nonfinite values at {bad} of {np.size(hot_center)} "):
            tt.evaluate_arrays(*args)

    def test_equal_temperatures_and_zero_couplings_evaluate(self):
        batch = dict(random_valid_batch(3, seed=4), hot_kappa=0.0)
        batch["hot_temperature"] = batch["mid_temperature"]
        out = tt.evaluate_arrays(**batch)
        assert np.isfinite(out.entropy_rate).all()
        assert np.all(out.j_hot == 0.0)

    def test_second_law_and_first_law_random_sample(self):
        batch = random_valid_batch(20000, seed=987)
        out = tt.evaluate_arrays(**batch)
        assert out.entropy_rate.min() >= -1e-12
        residual = out.power + out.j_hot + out.j_cold + out.j_mid
        scale = np.maximum.reduce([np.abs(out.power), np.abs(out.j_hot),
                                   np.abs(out.j_cold), np.abs(out.j_mid),
                                   np.full(residual.shape, 1e-300)])
        assert np.max(np.abs(residual) / scale) <= 1e-12

    def test_batch_matches_point_bitwise(self, default_config):
        from tritherm.currents import config_args
        args = [np.full(3, v) for v in config_args(default_config)]
        table = _kernels.thermo_batch(*args)
        point = tt.evaluate_point(default_config)
        assert table[1, 0] == point.j_hot
        assert table[1, 3] == point.power
        assert table[1, 4] == point.entropy_rate

    def test_broadcast_preserves_shape(self, default_config):
        from tritherm.currents import config_args
        args = config_args(default_config)
        drive = np.linspace(0.1, 0.9, 12).reshape(3, 4)
        out = tt.evaluate_arrays(args[0], args[1], drive, *args[3:])
        assert out.j_hot.shape == (3, 4)
        assert out.j_hot[2, 1] == tt.evaluate_point(tt.apply_params(
            default_config, {"drive_freq": float(drive[2, 1])})).j_hot


class TestClassicalLimit:
    def test_high_temperature_series_branch(self):
        # all Bose arguments below the 1e-5 series cutoff; cross-checked
        # against an independent arbitrary-precision evaluation
        from mpmath import mp, mpf, expm1
        mp.dps = 40
        cfg = make_config(th=4e5, tm=3e5, tc=1e5)
        point = tt.evaluate_point(cfg)

        def nB(x):
            return 1 / expm1(x)

        def jlor(w, wn, gn, kn):
            d = kn * wn * wn
            return d * gn * w / ((w * w - wn * wn) ** 2 + gn * gn * w * w)

        nm = nB(mpf(1) / mpf(3e5))
        expected = {}
        for name, (wn, gn, kn, tn) in (("hot", (1.5, 0.05, 0.01, 4e5)),
                                       ("cold", (0.75, 0.05, 0.01, 1e5))):
            s = mpf(0)
            for p in (1, -1):
                w = mpf(1) + p * mpf("0.5")
                s += w * jlor(w, mpf(str(wn)), mpf(str(gn)), mpf(str(kn))) \
                    * (nB(w / mpf(str(tn))) - nm)
            expected[name] = s / 4
        assert point.j_hot == pytest.approx(float(expected["hot"]), rel=1e-11)
        assert point.j_cold == pytest.approx(float(expected["cold"]), rel=1e-11)
        assert point.entropy_rate >= -1e-12


class TestLawProperties:
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(
        drive=st.floats(min_value=0.01, max_value=0.99),
        th=st.floats(min_value=0.3, max_value=1.2),
        dtm=st.floats(min_value=0.01, max_value=0.5),
        dtc=st.floats(min_value=0.01, max_value=0.5),
        wh=st.floats(min_value=0.2, max_value=2.5),
        wc=st.floats(min_value=0.2, max_value=2.5),
        kh=st.floats(min_value=1e-4, max_value=0.05),
        kc=st.floats(min_value=1e-4, max_value=0.05))
    def test_second_and_first_law(self, drive, th, dtm, dtc, wh, wc, kh, kc):
        tm = th - dtm * th / 2
        tc = tm - dtc * tm / 2
        cfg = make_config(drive=drive, th=th, tm=tm, tc=tc, wh=wh, wc=wc,
                          kh=kh, kc=kc)
        point = tt.evaluate_point(cfg)
        assert point.entropy_rate >= -1e-12
        assert point.power + point.j_hot + point.j_cold + point.j_mid == 0.0
        assert point.entropy_rate == pytest.approx(
            point.entropy_pos + point.entropy_neg, abs=1e-12)
