import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

import tritherm as tt
from tritherm import _kernels
from tritherm.core import ConfigError, DomainError
from tritherm.modes import classify_arrays, classify_coupled_arrays, exergy_from_split

from conftest import make_config


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

    @pytest.mark.parametrize("x", [-1.0, -1e-300, math.nan])
    def test_nonpositive_and_nan_raise(self, x):
        with pytest.raises(DomainError, match="x > 0"):
            tt.bose_occupation(x)

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
        amplitude = bath.kappa * bath.center ** 2 * wm.omega0 ** 2
        expected = amplitude * wm.mass / (bath.width * bath.center)
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

    def test_lorentzian_equals_the_kernels_at_both_sidebands(self, monkeypatch):
        # the kernel's own Lorentzian values, caught along a drive grid; an
        # omega0 and a mass other than 1 enter the amplitude's products
        seen = []

        def spy(s, w, g, dmg):
            values = real(s, w, g, dmg)
            seen.append((s, w, values[0]))
            return values

        real = _kernels.lorentzian
        monkeypatch.setattr(_kernels, "lorentzian", spy)
        cfg = make_config(omega0=1.13, mass=0.71, wh=1.63, gh=0.083, kh=0.017,
                          wc=0.81, gc=0.037, kc=0.023)
        grid = np.linspace(0.02, 0.98, 97)
        tt.transistor_trace(cfg, grid)
        sidebands = [(cfg.wm.omega0 + grid).tobytes(), (cfg.wm.omega0 - grid).tobytes()]
        assert [(s.tobytes(), w) for s, w, _ in seen] == [
            (s, bath.center) for bath in (cfg.hot, cfg.cold) for s in sidebands]
        for s, w, lor in seen:
            bath = cfg.hot if w == cfg.hot.center else cfg.cold
            want = [tt.spectral_lorentzian(bath, cfg.wm, x) for x in s.tolist()]
            assert np.array(want).tobytes() == lor.tobytes()

    def test_lorentzian_negative_frequency_raises(self, default_config):
        with pytest.raises(DomainError):
            tt.spectral_lorentzian(default_config.hot, default_config.wm, -0.1)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_lorentzian_nonfinite_frequency_raises(self, default_config, omega):
        with pytest.raises(DomainError, match="finite omega >= 0"):
            tt.spectral_lorentzian(default_config.hot, default_config.wm, omega)

    def test_float32_frequency_is_taken_as_a_double(self, default_config):
        # the float32 0.5 is exactly 0.5, so the value is the double's
        hot, wm = default_config.hot, default_config.wm
        got = tt.spectral_lorentzian(hot, wm, np.float32(0.5))
        assert type(got) is float
        assert got == tt.spectral_lorentzian(hot, wm, 0.5) == 0.00014060303077644115
        assert type(tt.bose_occupation(np.float32(0.5))) is float
        assert tt.bose_occupation(np.float32(0.5)) == tt.bose_occupation(0.5)


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

    def test_validate_rejects_equal_temperatures(self, default_config):
        eq = tt.apply_params(default_config, {"hot.temperature": 0.5,
                                              "cold.temperature": 0.5})
        with pytest.raises(ConfigError, match="need hot.temperature > mid.temperature "
                                              "> cold.temperature"):
            eq.validate()

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

    def test_int_fields_serialize_like_config_files(self):
        # an int given in code is stored as the float from_dict would read
        data = {"drive_freq": 1, "wm": {"omega0": 2, "mass": 1},
                "hot": {"temperature": 1, "center": 3, "width": 1, "kappa": 0},
                "cold": {"temperature": 1, "center": 1, "width": 1, "kappa": 0},
                "mid": {"temperature": 1, "gamma_m": 1}}
        in_code = tt.MachineConfig(
            hot=tt.LorentzianBath(**data["hot"]),
            cold=tt.LorentzianBath(**data["cold"]),
            mid=tt.OhmicBath(**data["mid"]), drive_freq=1,
            wm=tt.WorkingMedium(**data["wm"]))
        written = json.dumps(in_code.to_dict(), sort_keys=True)
        assert written == json.dumps(tt.MachineConfig.from_dict(data).to_dict(),
                                     sort_keys=True)
        assert '"temperature": 1.0' in written and '"kappa": 0.0' in written

    @pytest.mark.parametrize("section", ["wm", "hot", "cold", "mid"])
    def test_unknown_section_field_is_named(self, default_config, section):
        data = default_config.to_dict()
        data[section]["typo"] = 1.0
        with pytest.raises(ConfigError, match=rf"^unknown field: {section}\.typo$"):
            tt.MachineConfig.from_dict(data)

    def test_top_level_keys_stay_open(self, default_config):
        data = dict(default_config.to_dict(), search={"objective": "mode_sequence"})
        assert tt.MachineConfig.from_dict(data) == default_config

    def test_working_medium_error_names_field_once(self, default_config):
        data = default_config.to_dict()
        data["wm"]["omega0"] = -1.0
        with pytest.raises(ConfigError, match=r"^field wm\.omega0: omega0 must be > 0"):
            tt.MachineConfig.from_dict(data)

    @pytest.mark.parametrize("value", [True, "0.02"])
    def test_apply_params_rejects_what_the_config_rejects(self, default_config, value):
        with pytest.raises(ConfigError, match=r"^field hot\.kappa: kappa must be a number"):
            tt.apply_params(default_config, {"hot.kappa": value})

    def test_apply_params_unknown_path(self, default_config):
        with pytest.raises(ConfigError, match="unknown parameter"):
            tt.apply_params(default_config, {"hot.flux": 1.0})


# Library calls with one argument that is not numeric, and the name that the
# DomainError gives it
_GRID = np.linspace(0.1, 0.5, 5)
_NON_NUMERIC_CALLS = {
    "windows_threshold": (lambda c, v: tt.windows_from_arrays(_GRID, _GRID, _GRID, v),
                          "threshold"),
    "find_windows_threshold": (lambda c, v: tt.find_windows(c, _GRID, v), "threshold"),
    "bose_occupation": (lambda c, v: tt.bose_occupation(v), "x"),
    "spectral_lorentzian": (lambda c, v: tt.spectral_lorentzian(c.hot, c.wm, v), "omega"),
    "transistor_trace": (lambda c, v: tt.transistor_trace(c, v), "omega grid"),
    "mode_sequence": (lambda c, v: tt.mode_sequence_along_omega(c, v), "omega grid"),
    "evaluate_arrays": (lambda c, v: tt.evaluate_arrays(
        1.0, 1.0, 0.5, 0.8, 0.5, 0.2, 1.5, 0.05, v, 0.75, 0.05, 0.01), "hot_kappa"),
}


class TestNonNumericArguments:
    @pytest.mark.parametrize("value", ["5", "abc", True, None, [0.1, "0.2"]],
                             ids=["numeric_str", "str", "bool", "none", "mixed_list"])
    @pytest.mark.parametrize("call", _NON_NUMERIC_CALLS)
    def test_argument_is_named(self, default_config, call, value):
        run, name = _NON_NUMERIC_CALLS[call]
        with pytest.raises(DomainError, match=f"^{name} must be numeric, got "):
            run(default_config, value)

    @pytest.mark.parametrize("value", [np.array([0.5, 0.6]), [[0.5]], np.array([0.5]), [],
                                       np.zeros((2, 0))],
                             ids=["pair", "nested_list", "one_element", "empty", "empty_2d"])
    @pytest.mark.parametrize("call", ["bose_occupation", "spectral_lorentzian"])
    def test_array_for_a_number_is_named(self, default_config, call, value):
        run, name = _NON_NUMERIC_CALLS[call]
        with pytest.raises(DomainError, match=re.escape(
                f"{name} must be a single number, got an array of shape {np.shape(value)}")):
            run(default_config, value)

    @pytest.mark.parametrize("call", ["bose_occupation", "spectral_lorentzian",
                                      "evaluate_arrays"])
    def test_numpy_numbers_keep_working(self, default_config, call):
        run, _ = _NON_NUMERIC_CALLS[call]
        want = run(default_config, 0.5)
        for value in (np.float64(0.5), np.array(0.5)):
            assert run(default_config, value) == want
        assert run(default_config, np.int64(1)) == run(default_config, 1)


# Library calls with one argument that is not the record they take: the
# argument's name and the record's type, which the DomainError gives
_SEARCH = tt.SearchSpec("mode_sequence", {"hot.center": tt.VaryRange(1.0, 2.0)},
                        samples=2, refine_rounds=0)
_NOT_A_RECORD_CALLS = {
    "evaluate_point": (lambda c, v: tt.evaluate_point(v), "config", "MachineConfig"),
    "mode_report": (lambda c, v: tt.mode_report(v), "config", "MachineConfig"),
    "transistor_point": (lambda c, v: tt.transistor_point(v), "config", "MachineConfig"),
    "transistor_trace": (lambda c, v: tt.transistor_trace(v, _GRID), "config",
                         "MachineConfig"),
    "mode_sequence": (lambda c, v: tt.mode_sequence_along_omega(v, _GRID), "config",
                      "MachineConfig"),
    "find_windows": (lambda c, v: tt.find_windows(v, _GRID), "config", "MachineConfig"),
    "run_sweep": (lambda c, v: tt.run_sweep(v), "spec", "SweepSpec"),
    "run_search_template": (lambda c, v: tt.run_search(v, _SEARCH, 0), "template",
                            "MachineConfig"),
    "run_search_spec": (lambda c, v: tt.run_search(c, v, 0), "spec", "SearchSpec"),
}


class TestRecordArguments:
    # the type given, then its repr cut by reprlib
    @pytest.mark.parametrize("value, got", [
        (lambda c: "x", "str 'x'"),
        (lambda c: {}, "dict {}"),
        (lambda c: None, "NoneType None"),
        (lambda c: c.to_dict(),
         "dict {'cold': {'center': 0.75, 'kappa': 0.01, 'temperature': 0.2, 'width': 0.05}, "
         "'drive_freq': 0.5, 'hot': {'center': 1.5, 'kappa': 0.01, 'temperature': 0.8, "
         "'width': 0.05}, 'mid': {'gamma_m': 0.1, 'temperature': 0.5}, ...}"),
        (lambda c: c.hot, "LorentzianBath LorentzianBat...5, kappa=0.01)")],
        ids=["str", "empty_dict", "none", "config_dict", "bath"])
    @pytest.mark.parametrize("call", _NOT_A_RECORD_CALLS)
    def test_argument_and_type_are_named(self, default_config, call, value, got):
        # not an AttributeError on the first field read
        run, name, kind = _NOT_A_RECORD_CALLS[call]
        with pytest.raises(DomainError) as info:
            run(default_config, value(default_config))
        assert str(info.value) == f"{name} must be a {kind}, got {got}"



# Public calls given an argument they cannot use, each of which raised a raw
# TypeError or AttributeError: the named error they raise instead
_UNUSABLE_ARGUMENT_CALLS = {
    "classify_arrays": (lambda c: classify_arrays("a", "b", "c"),
                        "j_hot must be numeric, got 'a'"),
    "classify_coupled_arrays": (
        lambda c: classify_coupled_arrays(None, 1.0, 1.0, 1.0, 1.0, 1.0),
        "hot_kappa must be numeric, got None"),
    "exergy_from_split": (lambda c: exergy_from_split("a", 1.0),
                          "entropy_pos must be numeric, got 'a'"),
    "spectral_lorentzian_bath": (lambda c: tt.spectral_lorentzian({}, c.wm, 1.0),
                                 "bath must be a LorentzianBath, got dict {}"),
    "spectral_lorentzian_wm": (lambda c: tt.spectral_lorentzian(c.hot, None, 1.0),
                               "wm must be a WorkingMedium, got NoneType None"),
    "apply_params_params": (lambda c: tt.apply_params(c, None),
                            "params must be a dict, got NoneType None"),
    "apply_params_config": (lambda c: tt.apply_params({}, {}),
                            "config must be a MachineConfig, got dict {}"),
    "resonance_lines": (lambda c: tt.resonance_lines({}), "spec must be a SweepSpec, got dict {}"),
}


@pytest.mark.parametrize("call", _UNUSABLE_ARGUMENT_CALLS)
def test_unusable_argument_is_named(default_config, call):
    run, message = _UNUSABLE_ARGUMENT_CALLS[call]
    with pytest.raises(DomainError) as info:
        run(default_config)
    assert str(info.value) == message


# Records built in code with a field they cannot use, which they accepted
# (the config's sections) or met with a raw TypeError (the names)
_UNUSABLE_FIELD_RECORDS = {
    "config_hot": (lambda c: tt.MachineConfig(hot={}, cold=c.cold, mid=c.mid,
                                              drive_freq=0.5),
                   "hot must be a LorentzianBath, got {}", "hot"),
    "config_wm": (lambda c: tt.MachineConfig(hot=c.hot, cold=c.cold, mid=c.mid,
                                             drive_freq=0.5, wm=None),
                  "wm must be a WorkingMedium, got None", "wm"),
    "config_cold": (lambda c: tt.MachineConfig(hot=c.hot, cold=tt.OhmicBath(0.2), mid=c.mid,
                                               drive_freq=0.5),
                    "cold must be a LorentzianBath, got "
                    "OhmicBath(temperature=0.2, gamma_m=0.1)", "cold"),
    "lock_number": (lambda c: tt.LockRule(1), "field lock.source has an invalid value 1",
                    None),
    "lock_list": (lambda c: tt.LockRule(["a"]),
                  "field lock.source has an invalid value ['a']", None),
    "axis_list": (lambda c: tt.Axis(["x"], 0.1, 0.5, 2),
                  "field axis.param has an invalid value ['x']", None),
}


@pytest.mark.parametrize("record", _UNUSABLE_FIELD_RECORDS)
def test_unusable_field_is_named(default_config, record):
    build, message, key = _UNUSABLE_FIELD_RECORDS[record]
    with pytest.raises(ConfigError) as info:
        build(default_config)
    assert (str(info.value), info.value.key) == (message, key)

def test_point_call_loads_only_the_point_layers():
    # the transistor, sweep and search layers, the float-text exporter and
    # the CLI load on first use, so a process that evaluates one point
    # starts without them
    root = pathlib.Path(__file__).resolve().parents[1]
    code = """
import importlib, json, sys
import tritherm as tt

LAZY = ("transistor", "sweep", "search", "_floattext", "cli")
def loaded():
    return [name for name in LAZY if "tritherm." + name in sys.modules]

config = tt.MachineConfig.from_dict({"drive_freq": 0.5,
    "hot": {"temperature": 0.8, "center": 1.5, "width": 0.05, "kappa": 0.01},
    "cold": {"temperature": 0.2, "center": 0.75, "width": 0.05, "kappa": 0.01},
    "mid": {"temperature": 0.5}})
tt.mode_report(config)
tt.evaluate_point(config)
after_point = loaded()
tt.transistor_point(config)
after_transistor = loaded()
objectives = list(tt.search.OBJECTIVES)
missing = getattr(tt, "no_such_name", None)
layers = [importlib.import_module("tritherm." + name) for name in
          ("core", "currents", "modes", "transistor", "sweep", "search")]
unbound, moved = [], []
for name in tt.__all__[1:]:          # all but __version__
    value = getattr(tt, name)
    owners = [m for m in layers if name in vars(m)]
    unbound += [] if owners else [name]
    moved += [name for m in owners if vars(m)[name] is not value]
print(json.dumps({"after_point": after_point, "after_transistor": after_transistor,
                  "objectives": objectives, "missing": missing, "unbound": unbound,
                  "moved": moved, "undir": sorted(set(tt.__all__) - set(dir(tt)))}))
"""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "after_point": [], "after_transistor": ["transistor"],
        "objectives": ["transistor_window", "mode_sequence"], "missing": None,
        "unbound": [], "moved": [], "undir": []}


@pytest.mark.parametrize("module", list(tt._LAZY_NAMES))
def test_lazy_names_are_public_names_of_their_layer(module):
    # the package's table of lazy names cannot drift from the modules
    layer = importlib.import_module(f"tritherm.{module}")
    assert set(tt._LAZY_NAMES[module]) <= set(layer.__all__)
