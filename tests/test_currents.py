import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import tritherm as tt
from tritherm import _kernels
from tritherm.core import DomainError

from conftest import config_from_params, make_config, random_valid_batch


class TestOracleEquivalence:
    """Frozen arbitrary-precision references for the closed forms."""

    def test_heat_currents_and_power(self, reference_sets):
        for rec in reference_sets:
            cfg = config_from_params(rec["params"])
            assert tt.heat_current(cfg, "hot") == pytest.approx(
                float(rec["j_hot"]), rel=1e-12, abs=1e-300), rec["params"]
            assert tt.heat_current(cfg, "cold") == pytest.approx(
                float(rec["j_cold"]), rel=1e-12, abs=1e-300), rec["params"]
            assert tt.total_power(cfg) == pytest.approx(
                float(rec["power"]), rel=1e-12, abs=1e-300), rec["params"]

    def test_full_point(self, reference_sets):
        for rec in reference_sets:
            point = tt.evaluate_point(config_from_params(rec["params"]))
            assert point.j_mid == pytest.approx(float(rec["j_mid"]), rel=1e-12)
            assert point.entropy_rate == pytest.approx(
                float(rec["entropy_rate"]), rel=1e-12)


class TestLimits:
    def test_decoupled_hot_bath_gives_zero_current(self):
        cfg = make_config(kh=0.0)
        assert tt.heat_current(cfg, "hot") == 0.0

    def test_decoupled_cold_bath_gives_zero_current(self):
        cfg = make_config(kc=0.0)
        assert tt.heat_current(cfg, "cold") == 0.0

    def test_slow_drive_equal_temperature_hot_current_vanishes(self):
        # with hot at the mid temperature both occupation differences vanish
        # as the drive slows down
        cfg = make_config(drive=1e-9, th=0.5, tm=0.5, tc=0.2)
        assert abs(tt.heat_current(cfg, "hot")) < 1e-18

    def test_power_vanishes_without_couplings(self):
        cfg = make_config(kh=0.0, kc=0.0)
        assert tt.total_power(cfg) == 0.0

    def test_power_vanishes_linearly_with_drive(self):
        p1 = tt.total_power(make_config(drive=1e-6))
        p2 = tt.total_power(make_config(drive=2e-6))
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
            tt.heat_current(cfg, "hot")
        with pytest.raises(DomainError):
            tt.total_power(cfg)
        with pytest.raises(DomainError):
            tt.evaluate_point(cfg)

    def test_drive_above_omega0_rejected(self):
        with pytest.raises(DomainError):
            tt.evaluate_point(make_config(drive=1.2))

    def test_bad_selector(self, default_config):
        with pytest.raises(ValueError):
            tt.heat_current(default_config, "middle")


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
    @hypothesis.settings(max_examples=60, deadline=None)
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
