import math

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import tritherm as tt
from tritherm.core import ConfigError, DomainError


class TestBoseOccupation:
    def test_ln2_is_exactly_one(self):
        assert tt.bose_occupation(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)

    def test_small_argument_series(self):
        # leading terms 1/x - 1/2 dominate at x = 1e-6
        assert tt.bose_occupation(1e-6) == pytest.approx(999999.5, rel=1e-9)

    def test_unit_argument(self):
        # arbitrary-precision value of 1/(e - 1)
        assert tt.bose_occupation(1.0) == pytest.approx(
            0.581976706869326424385002, rel=1e-12)

    def test_zero_raises(self):
        with pytest.raises(DomainError):
            tt.bose_occupation(0.0)

    @hypothesis.given(st.floats(min_value=1e-8, max_value=50.0))
    def test_reflection_identity(self, x):
        assert tt.bose_occupation(-x) == pytest.approx(
            -1.0 - tt.bose_occupation(x), abs=1e-12)

    @hypothesis.given(st.floats(min_value=1e-8, max_value=49.0),
                      st.floats(min_value=1e-6, max_value=1.0))
    def test_strictly_decreasing(self, x, dx):
        assert tt.bose_occupation(x + dx) < tt.bose_occupation(x)

    def test_decreasing_across_series_switch(self):
        grid = np.geomspace(1e-8, 50.0, 4001)
        vals = np.array([tt.bose_occupation(x) for x in grid])
        assert np.all(np.diff(vals) < 0)

    def test_huge_argument_underflows_gracefully(self):
        assert tt.bose_occupation(800.0) == pytest.approx(0.0, abs=1e-300)

    def test_same_function_as_kernel(self):
        from tritherm._kernels import bose_pos
        grid = np.concatenate([np.geomspace(1e-9, 700.0, 2001), [1e-5]])
        batch = bose_pos(grid)
        assert [tt.bose_occupation(float(x)) for x in grid] == batch.tolist()


class TestSpectralDensities:
    def test_lorentzian_zero_frequency(self, default_config):
        assert tt.spectral_lorentzian(default_config.hot, default_config.wm, 0.0) == 0.0

    def test_lorentzian_peak_value(self, default_config):
        bath, wm = default_config.hot, default_config.wm
        # at resonance the value reduces to d*M/(gamma*center)
        expected = bath.amplitude(wm.omega0) * wm.mass / (bath.width * bath.center)
        assert tt.spectral_lorentzian(bath, wm, bath.center) == pytest.approx(
            expected, rel=1e-14)

    def test_lorentzian_reference_value(self):
        # independent arbitrary-precision evaluation at
        # kappa=0.01, center=1.5, width=0.05, M=1, omega0=1, omega=1
        bath = tt.LorentzianBath(temperature=1.0, center=1.5, width=0.05, kappa=0.01)
        wm = tt.WorkingMedium()
        assert tt.spectral_lorentzian(bath, wm, 1.0) == pytest.approx(
            0.000718849840255591054313099, rel=1e-13)

    def test_lorentzian_kappa_linearity(self):
        wm = tt.WorkingMedium()
        omegas = np.linspace(0.05, 3.0, 37)
        for k in (1e-4, 0.01, 0.04):
            b1 = tt.LorentzianBath(temperature=1.0, center=1.3, width=0.08, kappa=k)
            b2 = tt.LorentzianBath(temperature=1.0, center=1.3, width=0.08, kappa=2 * k)
            for w in omegas:
                v1 = tt.spectral_lorentzian(b1, wm, w)
                v2 = tt.spectral_lorentzian(b2, wm, w)
                assert v2 == pytest.approx(2.0 * v1, rel=1e-15)

    def test_lorentzian_peak_location(self):
        # for narrow peaks the maximum sits within width/2 of the center
        wm = tt.WorkingMedium()
        for center, width in ((1.5, 0.15), (0.8, 0.05), (2.0, 0.01)):
            bath = tt.LorentzianBath(temperature=1.0, center=center,
                                     width=width, kappa=0.01)
            grid = np.linspace(0.01, 3.0, 20001)
            vals = [tt.spectral_lorentzian(bath, wm, w) for w in grid]
            peak = grid[int(np.argmax(vals))]
            assert abs(peak - center) <= 0.5 * width

    def test_lorentzian_negative_frequency_raises(self, default_config):
        with pytest.raises(DomainError):
            tt.spectral_lorentzian(default_config.hot, default_config.wm, -0.1)

    def test_ohmic(self):
        wm = tt.WorkingMedium()
        bath = tt.OhmicBath(temperature=0.5, gamma_m=0.1)
        assert tt.spectral_ohmic(bath, wm, 0.0) == 0.0
        assert tt.spectral_ohmic(bath, wm, 2.0) == pytest.approx(0.2, rel=1e-15)
        wm2 = tt.WorkingMedium(omega0=1.0, mass=2.0)
        bath2 = tt.OhmicBath(temperature=0.5, gamma_m=0.05)
        assert tt.spectral_ohmic(bath2, wm2, 1.0) == pytest.approx(0.1, rel=1e-15)


class TestConfig:
    def test_detuning_accessor(self, default_config):
        assert default_config.detuning == pytest.approx(0.75)

    def test_positivity_enforced(self):
        with pytest.raises(ConfigError):
            tt.LorentzianBath(temperature=-0.1, center=1.0, width=0.05, kappa=0.01)
        with pytest.raises(ConfigError):
            tt.LorentzianBath(temperature=0.5, center=1.0, width=0.0, kappa=0.01)
        with pytest.raises(ConfigError):
            tt.OhmicBath(temperature=0.0)
        with pytest.raises(ConfigError):
            tt.WorkingMedium(omega0=-1.0)

    def test_kappa_zero_is_allowed(self):
        bath = tt.LorentzianBath(temperature=0.5, center=1.0, width=0.05, kappa=0.0)
        assert bath.kappa == 0.0

    def test_validate_ordering(self, default_config):
        bad = tt.apply_params(default_config, {"mid.temperature": 0.9})
        with pytest.raises(ConfigError, match="ordering"):
            bad.validate()

    def test_validate_relax_allows_equal(self, default_config):
        eq = tt.apply_params(default_config, {"hot.temperature": 0.5,
                                              "cold.temperature": 0.5})
        with pytest.raises(ConfigError):
            eq.validate()
        assert eq.validate(relax=True) == []

    def test_validate_drive_range(self, default_config):
        fast = tt.apply_params(default_config, {"drive_freq": 1.5})
        with pytest.raises(ConfigError, match="drive_freq"):
            fast.validate()

    def test_warnings(self, default_config):
        noisy = tt.apply_params(default_config, {"hot.kappa": 0.5,
                                                 "hot.width": 0.7,
                                                 "hot.temperature": 1.1})
        warnings = noisy.validate()
        text = "\n".join(warnings)
        assert "quantum regime" in text
        assert "perturbative" in text
        assert "underdamped" in text

    def test_from_dict_missing_field_names_path(self):
        data = {
            "drive_freq": 0.5,
            "hot": {"temperature": 0.8, "center": 1.5, "width": 0.05, "kappa": 0.01},
            "cold": {"temperature": 0.2, "center": 0.75, "width": 0.05, "kappa": 0.01},
            "mid": {"gamma_m": 0.1},
        }
        with pytest.raises(ConfigError, match="mid.temperature"):
            tt.MachineConfig.from_dict(data)

    def test_dict_round_trip(self, default_config):
        again = tt.MachineConfig.from_dict(default_config.to_dict())
        assert again == default_config

    def test_apply_params_unknown_path(self, default_config):
        with pytest.raises(ConfigError, match="unknown parameter"):
            tt.apply_params(default_config, {"hot.flux": 1.0})
