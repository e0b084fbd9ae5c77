import dataclasses

import pytest

import tritherm as tt
from tritherm import search
from tritherm.core import ConfigError

from conftest import make_config


def transistor_template():
    return make_config(drive=0.3, th=0.55, tm=0.2, tc=0.19,
                       wh=1.7, wc=1.7, gh=0.05, gc=0.05, kh=0.01, kc=0.01)


def window_spec(samples=40, refine_rounds=1, refine_samples=12):
    return tt.SearchSpec(
        objective="transistor_window",
        vary={
            "hot.temperature": tt.VaryRange(0.50, 0.66),
            "mid.temperature": tt.VaryRange(0.19, 0.22),
            "hot.center": tt.VaryRange(1.4, 1.9),
        },
        lock={
            "cold.center": tt.LockRule(source="hot.center"),
            "cold.temperature": tt.LockRule(source="mid.temperature", offset=-0.01),
        },
        omega_start=0.02, omega_stop=0.98, omega_count=241,
        samples=samples, refine_rounds=refine_rounds,
        refine_samples=refine_samples, pool=2, top_k=3)


class TestSpecValidation:
    def test_unknown_objective(self):
        with pytest.raises(ConfigError):
            tt.SearchSpec(objective="widest_window",
                          vary={"hot.center": tt.VaryRange(1.0, 2.0)})

    def test_lock_source_must_be_varied(self):
        with pytest.raises(ConfigError):
            tt.SearchSpec(objective="transistor_window",
                          vary={"hot.center": tt.VaryRange(1.0, 2.0)},
                          lock={"cold.center": tt.LockRule(source="hot.width")})

    def test_log_scale_bounds(self):
        with pytest.raises(ConfigError):
            tt.VaryRange(0.0, 1.0, scale="log")

    def test_range_decode(self):
        lin = tt.VaryRange(1.0, 3.0)
        assert lin.decode(0.5) == 2.0
        log = tt.VaryRange(0.01, 1.0, scale="log")
        assert log.decode(0.5) == pytest.approx(0.1, rel=1e-12)


class TestSpecDict:
    def test_round_trip_keeps_vary_order(self):
        spec = window_spec()
        data = spec.to_dict()
        assert list(data["vary"]) == ["hot.temperature", "mid.temperature",
                                      "hot.center"]
        assert tt.SearchSpec.from_dict(data) == spec

    def test_missing_range_key_names_path(self):
        data = window_spec().to_dict()
        data["vary"]["hot.center"] = {"low": 1.4, "max": 1.9}
        with pytest.raises(ConfigError, match=r"search\.vary\.hot\.center\.min"):
            tt.SearchSpec.from_dict(data)

    def test_lock_needs_source(self):
        data = window_spec().to_dict()
        data["lock"]["cold.center"] = {"offset": 0.1}
        with pytest.raises(ConfigError, match=r"search\.lock\.cold\.center\.source"):
            tt.SearchSpec.from_dict(data)

    def test_malformed_number_names_path(self):
        data = window_spec().to_dict()
        data["omega_grid"]["count"] = "many"
        with pytest.raises(ConfigError, match=r"search\.omega_grid\.count"):
            tt.SearchSpec.from_dict(data)


class TestRunSearch:
    def test_single_point_space_returns_it(self):
        spec = tt.SearchSpec(
            objective="transistor_window",
            vary={"hot.center": tt.VaryRange(1.7, 1.7)},
            omega_count=61, samples=3, refine_rounds=0, top_k=2)
        out = tt.run_search(transistor_template(), spec, seed=5)
        assert out
        assert out[0].params["hot.center"] == 1.7

    def test_same_seed_is_deterministic(self):
        template = transistor_template()
        spec = window_spec()
        a = tt.run_search(template, spec, seed=42)
        b = tt.run_search(template, spec, seed=42)
        assert [c.to_dict() for c in a] == [c.to_dict() for c in b]

    def test_different_seeds_generally_differ(self):
        template = transistor_template()
        spec = window_spec(samples=10, refine_rounds=0)
        a = tt.run_search(template, spec, seed=1)
        b = tt.run_search(template, spec, seed=2)
        assert [c.params for c in a] != [c.params for c in b]

    def test_lock_rules_applied(self):
        out = tt.run_search(transistor_template(), window_spec(), seed=7)
        for cand in out:
            assert cand.params["cold.center"] == cand.params["hot.center"]
            assert cand.params["cold.temperature"] == pytest.approx(
                cand.params["mid.temperature"] - 0.01)

    def test_window_objective_finds_wide_window(self):
        out = tt.run_search(transistor_template(), window_spec(), seed=11)
        assert out[0].score > 0.2
        assert out[0].detail["windows"]
        assert out[0].detail["max_gain"] > 10.0
        assert sorted((c.score for c in out), reverse=True) == [c.score for c in out]

    def test_returns_best_of_everything_evaluated(self, monkeypatch):
        # refined candidates that left the pool still compete for top_k
        evaluated = []

        def recording(*args):
            evaluated.append(real_entry(*args))
            return evaluated[-1]

        real_entry = search._entry
        monkeypatch.setattr(search, "_entry", recording)
        spec = dataclasses.replace(window_spec(refine_rounds=2), top_k=5)
        out = tt.run_search(transistor_template(), spec, seed=3)
        best = sorted((e[0] for e in evaluated), reverse=True)[:spec.top_k]
        assert len(evaluated) == 40 + 2 * 2 * 12
        assert [(c.score, c.detail["soft_score"]) for c in out] == best

    def test_mode_sequence_objective(self):
        template = make_config(th=0.6, tm=0.5, tc=0.2, wh=1.5, wc=0.75,
                               kh=0.02, kc=0.02)
        spec = tt.SearchSpec(
            objective="mode_sequence",
            vary={"hot.center": tt.VaryRange(1.2, 1.8),
                  "cold.temperature": tt.VaryRange(0.1, 0.3)},
            omega_start=0.05, omega_stop=0.9, omega_count=121,
            samples=20, refine_rounds=1, refine_samples=8, pool=2, top_k=3)
        out = tt.run_search(template, spec, seed=3)
        assert out[0].score >= 3
        assert out[0].detail["distinct_modes"]
        assert out[0].detail["runs"]
