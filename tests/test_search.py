import dataclasses
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml
from scipy.stats import qmc

import tritherm as tt
from tritherm import _kernels, search
from tritherm.core import ConfigError, DomainError
from tritherm.modes import ERROR_CODE, OperatingMode
from tritherm.transistor import window_mask

from conftest import make_config


def transistor_template():
    return make_config(drive=0.3, th=0.55, tm=0.2, tc=0.19,
                       wh=1.7, wc=1.7, gh=0.05, gc=0.05, kh=0.01, kc=0.01)


def reference_score(config, spec, grid):
    """Score and detail of one candidate, one kernel call per candidate."""
    if spec.objective == "transistor_window":
        trace = tt.transistor_trace(config, grid)
        windows = tt.windows_from_arrays(trace.omega, trace.r, trace.g,
                                         spec.threshold)
        width = max((w.width for w in windows), default=0.0)
        finite = np.isfinite(trace.r) & np.isfinite(trace.g)
        soft = (float(np.minimum(trace.r[finite], trace.g[finite]).max())
                if finite.any() else 0.0)
        gain_mask = (window_mask(grid, windows) & np.isfinite(trace.g)
                     & trace.g_reliable)
        max_gain = float(trace.g[gain_mask].max()) if gain_mask.any() else 0.0
        return (width, min(soft, search._SOFT_CAP)), {
            "width": width, "max_gain": max_gain,
            "windows": [w.to_dict() for w in windows]}
    runs = tt.mode_sequence_along_omega(config, grid)
    distinct = sorted({m.value for _, m in runs
                       if m is not OperatingMode.DEGENERATE})
    switches = max(len(runs) - 1, 0)
    return (float(len(distinct)), float(min(switches, 999))), {
        "distinct_modes": distinct, "switches": switches,
        "runs": [[lo, hi, mode.value] for ((lo, hi), mode) in runs]}


def decode_one(rng, u):
    """The value of one unit sample ``u`` in the range ``rng``, on Python
    floats and numpy scalars: the per-element rule of ``VaryRange.decode``."""
    if rng.scale == "log":
        lo, hi = np.log10(rng.low), np.log10(rng.high)
        return float(10.0 ** (lo + u * (hi - lo)))
    return float(rng.low + u * (rng.high - rng.low))


def reference_search(template, spec, seed, evaluated=None):
    """The search as a loop over candidates, each evaluated on its own.

    A candidate that ``apply_params``, ``validate`` or the grid checks
    reject scores -inf.  Every evaluated entry ``(score, (params, detail),
    order, u)`` is appended to ``evaluated``.
    """
    evaluated = [] if evaluated is None else evaluated
    grid = np.linspace(spec.omega_start, spec.omega_stop, spec.omega_count)
    # a varied or locked omega0 meets the grid in each candidate's checks
    if "wm.omega0" not in {**spec.vary, **spec.lock} and grid[-1] >= template.wm.omega0:
        raise ConfigError(f"search.omega_grid.stop must be < omega0 = "
                          f"{template.wm.omega0}, got {spec.omega_stop}")

    def evaluate(u):
        params = {name: decode_one(rng, float(ui))
                  for (name, rng), ui in zip(spec.vary.items(), u)}
        for target, rule in spec.lock.items():
            params[target] = params[rule.source] + rule.offset
        try:
            config = tt.apply_params(template, params)
            config.validate()
            score, detail = reference_score(config, spec, grid)
        except (ConfigError, DomainError):
            score, detail = (-math.inf, -math.inf), {}
        evaluated.append((score, (params, detail), len(evaluated), tuple(u)))

    def rank(entry):
        return -entry[0][0], -entry[0][1], entry[2]

    dim = len(spec.vary)
    for u in qmc.LatinHypercube(d=dim, seed=seed).random(spec.samples):
        evaluate(u)
    shrink, sub_seed = spec.shrink, seed + 1001
    for _ in range(spec.refine_rounds):
        for entry in sorted(evaluated, key=rank)[:spec.pool]:
            u0 = np.array(entry[3])
            lo, hi = np.clip(u0 - shrink, 0.0, 1.0), np.clip(u0 + shrink, 0.0, 1.0)
            sub = qmc.LatinHypercube(d=dim, seed=sub_seed)
            sub_seed += 1
            for v in sub.random(spec.refine_samples):
                evaluate(lo + v * (hi - lo))
        shrink *= 0.5
    return [tt.Candidate(params={k: float(v) for k, v in params.items()},
                         score=float(score[0]),
                         detail={**detail, "soft_score": float(score[1])})
            for score, (params, detail), _, _ in sorted(evaluated, key=rank)[:spec.top_k]
            if np.isfinite(score[0])]


def dumps(candidates) -> str:
    return json.dumps([c.to_dict() for c in candidates])


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


# The count fields of a SearchSpec
COUNTS = ["omega_count", "samples", "refine_rounds", "refine_samples", "pool", "top_k"]


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

    @pytest.mark.parametrize("name,value", [
        ("samples", 0), ("refine_rounds", -1), ("refine_samples", -1),
        ("pool", 0), ("top_k", 0), ("shrink", 0.0), ("shrink", -0.25),
        ("threshold", 0.0), ("threshold", -10.0), ("threshold", math.nan)])
    def test_out_of_range_field_is_named(self, name, value):
        with pytest.raises(ConfigError, match=rf"search\.{name} must be"):
            dataclasses.replace(window_spec(), **{name: value})

    @pytest.mark.parametrize("value", [2.5, True, "5", np.float64(5.0)],
                             ids=["float", "bool", "str", "float64"])
    @pytest.mark.parametrize("name", COUNTS)
    def test_count_that_is_not_an_integer_is_named(self, name, value):
        with pytest.raises(ConfigError,
                           match=rf"^field search\.{name} has an invalid value"):
            dataclasses.replace(window_spec(), **{name: value})

    @pytest.mark.parametrize("name", COUNTS)
    def test_count_may_be_a_numpy_integer(self, name):
        value = getattr(dataclasses.replace(window_spec(), **{name: np.int64(5)}), name)
        assert value == 5 and type(value) is int

    @pytest.mark.parametrize("value", ["5", None, True], ids=["str", "none", "bool"])
    @pytest.mark.parametrize("name", ["omega_start", "omega_stop", "threshold", "shrink"])
    def test_float_that_is_not_a_number_is_named(self, name, value):
        with pytest.raises(ConfigError,
                           match=rf"^field search\.{name} has an invalid value"):
            dataclasses.replace(window_spec(), **{name: value})

    def test_int_floats_are_stored_as_floats(self):
        # an int given in code writes the same manifest as the float
        spec = dataclasses.replace(window_spec(), threshold=5, shrink=1)
        assert type(spec.threshold) is type(spec.shrink) is float
        assert tt.SearchSpec.from_dict(spec.to_dict()) == spec
        assert json.dumps(spec.to_dict()) == json.dumps(dataclasses.replace(
            window_spec(), threshold=5.0, shrink=1.0).to_dict())

    @pytest.mark.parametrize("make,field", [
        (lambda v: tt.VaryRange(v, 2.0), r"range\.low"),
        (lambda v: tt.VaryRange(1.0, v), r"range\.high"),
        (lambda v: tt.LockRule("hot.center", v), r"lock\.offset")])
    @pytest.mark.parametrize("value", ["1", None, True], ids=["str", "none", "bool"])
    def test_range_and_lock_number_is_named(self, make, field, value):
        with pytest.raises(ConfigError, match=rf"^field {field} has an invalid value"):
            make(value)

    def test_range_and_lock_store_ints_as_floats(self):
        rng, rule = tt.VaryRange(1, 2), tt.LockRule("hot.center", 0)
        assert type(rng.low) is type(rng.high) is type(rule.offset) is float
        assert (rng, rule) == (tt.VaryRange(1.0, 2.0), tt.LockRule("hot.center", 0.0))

    @pytest.mark.parametrize("name,low", [("hot.temperature", 0.0),
                                          ("hot.center", -0.5), ("hot.kappa", -1e-3)])
    def test_range_below_the_parameter_domain_is_named(self, name, low):
        with pytest.raises(ConfigError, match=rf"search\.vary\.{name}\.min must be"):
            _varied(window_spec(), **{name: tt.VaryRange(low, 1.0)})

    def test_coupling_range_may_start_at_zero(self):
        spec = _varied(window_spec(), **{"hot.kappa": tt.VaryRange(0.0, 0.02)})
        assert spec.vary["hot.kappa"].low == 0.0

    def test_range_decode(self):
        lin = tt.VaryRange(1.0, 3.0)
        assert lin.decode(np.array([0.5])).tolist() == [2.0]
        log = tt.VaryRange(0.01, 1.0, scale="log")
        assert log.decode(np.array([0.5]))[0] == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("key,value", [
        ("vary", (1.2, 1.6)), ("vary", {"min": 1.2, "max": 1.6}),
        ("lock", {"source": "hot.center"}), ("lock", "hot.center")])
    def test_entry_that_is_not_a_record_is_named(self, key, value):
        entries = {"vary": {"hot.center": tt.VaryRange(1.2, 1.6)}, "lock": {}}
        entries[key] = {**entries[key], "cold.center": value}
        with pytest.raises(ConfigError, match=rf"^search\.{key}\.cold\.center must be a "):
            tt.SearchSpec("transistor_window", **entries)

    @pytest.mark.parametrize("key,value", [
        ("vary", [("hot.center", tt.VaryRange(1.2, 1.6))]), ("lock", None), ("lock", [])])
    def test_entries_that_are_not_a_mapping_are_named(self, key, value):
        entries = {"vary": {"hot.center": tt.VaryRange(1.2, 1.6)}, key: value}
        with pytest.raises(ConfigError, match=rf"^search\.{key} must be a mapping$"):
            tt.SearchSpec("transistor_window", **entries)

    def test_grid_that_does_not_increase_is_named(self):
        # np.linspace repeats values when start and stop are this close
        with pytest.raises(ConfigError, match=r"^search\.omega_grid\.count must be lower: "):
            dataclasses.replace(window_spec(), omega_start=0.5,
                                omega_stop=0.5000000000000010, omega_count=481)


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

    @pytest.mark.parametrize("value", [[], 0, False, ""], ids=["list", "zero", "false", "str"])
    @pytest.mark.parametrize("key", ["vary", "lock", "omega_grid"])
    def test_empty_value_that_is_not_a_mapping_is_named(self, key, value):
        # once read as an empty mapping: the default grid, or no lock
        data = window_spec().to_dict()
        data[key] = value
        with pytest.raises(ConfigError, match=rf"^search\.{key} must be a mapping$"):
            tt.SearchSpec.from_dict(data)

    @pytest.mark.parametrize("key", ["lock", "omega_grid"])
    def test_absent_or_null_section_is_empty(self, key):
        data = window_spec().to_dict()
        del data[key]
        absent = tt.SearchSpec.from_dict(data)
        assert tt.SearchSpec.from_dict({**data, key: None}) == absent
        assert tt.SearchSpec.from_dict({**data, key: {}}) == absent

    # misspellings that once fell back to a default or were dropped silently
    @pytest.mark.parametrize("where,value", [
        (("refine_round",), 0), (("topk",), 1),
        (("vary", "hot.center", "scal"), "log"),
        (("lock", "cold.center", "ofset"), 0.1),
        (("omega_grid", "cnt"), 11)])
    def test_unknown_field_is_named(self, where, value):
        data = window_spec().to_dict()
        section = data
        for key in where[:-1]:
            section = section[key]
        section[where[-1]] = value
        field = ".".join(("search",) + where)
        with pytest.raises(ConfigError, match=f"^unknown field: {field}$"):
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

    def test_numpy_integer_counts_give_the_same_result(self):
        template = transistor_template()
        spec = window_spec(samples=np.int64(10), refine_rounds=np.int32(1),
                           refine_samples=np.int64(6))
        assert dumps(tt.run_search(template, spec, 3)) == \
            dumps(tt.run_search(template, window_spec(10, 1, 6), 3))

    @pytest.mark.parametrize("seed", [1.5, "3", True, None, np.float64(3.0)],
                             ids=["float", "str", "bool", "none", "float64"])
    def test_seed_that_is_not_an_integer_is_named(self, seed):
        with pytest.raises(ConfigError, match="^field seed has an invalid value"):
            tt.run_search(transistor_template(), window_spec(3, 0), seed)

    def test_seed_may_be_a_numpy_integer(self):
        template, spec = transistor_template(), window_spec(6, 1, 4)
        assert dumps(tt.run_search(template, spec, np.int64(3))) == \
            dumps(tt.run_search(template, spec, 3))

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

    def test_returns_best_of_everything_evaluated(self):
        # refined candidates that left the pool still compete for top_k
        evaluated = []
        template = transistor_template()
        spec = dataclasses.replace(window_spec(refine_rounds=2), top_k=5)
        out = tt.run_search(template, spec, seed=3)
        reference = reference_search(template, spec, 3, evaluated)
        best = sorted((e[0] for e in evaluated), reverse=True)[:spec.top_k]
        assert len(evaluated) == 40 + 2 * 2 * 12
        assert [(c.score, c.detail["soft_score"]) for c in out] == best
        assert dumps(out) == dumps(reference)

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


def _varied(spec, **vary):
    return dataclasses.replace(spec, vary={**spec.vary, **vary})


# name -> (template, spec); each stage of "blocks" spans several kernel blocks
REFERENCE_CASES = {
    "plain": (transistor_template(), window_spec(refine_rounds=2)),
    "log_range": (transistor_template(), _varied(
        window_spec(refine_rounds=2),
        **{"hot.width": tt.VaryRange(0.01, 0.2, "log"),
           "cold.kappa": tt.VaryRange(1e-4, 0.05, "log")})),
    "blocks": (transistor_template(), dataclasses.replace(
        window_spec(samples=140, refine_rounds=2, refine_samples=36),
        omega_count=481)),
    "invalid": (transistor_template(), _varied(
        window_spec(refine_rounds=2),
        **{"hot.temperature": tt.VaryRange(0.15, 0.66)})),
    "cold_kappa_0": (make_config(drive=0.3, th=0.55, tm=0.2, tc=0.19, wh=1.7,
                                 wc=1.7, kh=0.01, kc=0.0),
                     window_spec(refine_rounds=2)),
    "hot_kappa_0": (make_config(drive=0.3, th=0.55, tm=0.2, tc=0.19, wh=1.7,
                                wc=1.7, kh=0.0, kc=0.01),
                    window_spec(refine_rounds=2)),
}


class TestBatchedSearch:
    """The batched search against the per-candidate loop, byte for byte."""

    @pytest.mark.parametrize("seed", [0, 3, 5, 7])
    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_matches_per_candidate_reference(self, case, objective, seed):
        template, spec = REFERENCE_CASES[case]
        spec = dataclasses.replace(spec, objective=objective)
        out = tt.run_search(template, spec, seed)
        assert out
        assert dumps(out) == dumps(reference_search(template, spec, seed))

    def test_invalid_case_has_invalid_candidates(self):
        evaluated = []
        template, spec = REFERENCE_CASES["invalid"]
        reference_search(template, spec, 0, evaluated)
        invalid = sum(not math.isfinite(e[0][0]) for e in evaluated)
        assert 0 < invalid < len(evaluated)

    def test_blocks_case_spans_several_blocks(self):
        _, spec = REFERENCE_CASES["blocks"]
        rows = _kernels.BLOCK_POINTS // spec.omega_count
        assert spec.samples > 2 * rows and spec.pool * spec.refine_samples > rows

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_worker_count_does_not_change_result(self, monkeypatch, objective, seed):
        # the block size changes how a stage is cut (at 5000 points a
        # 481-point grid leaves 10 candidates a block, at 481 * 29 + 1 it
        # leaves 29), never its bytes
        template, spec = REFERENCE_CASES["blocks"]
        spec = dataclasses.replace(spec, objective=objective)
        want = dumps(tt.run_search(template, spec, seed))
        for points in (_kernels.BLOCK_POINTS, 16384, 5000, 481 * 29 + 1):
            monkeypatch.setattr(_kernels, "BLOCK_POINTS", points)
            for workers in (1, 2, 3):
                monkeypatch.setattr(_kernels, "_WORKERS", workers)
                assert dumps(tt.run_search(template, spec, seed)) == want, (points, workers)

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_one_candidate_per_block(self, monkeypatch, objective):
        template, spec = REFERENCE_CASES["invalid"]
        spec = dataclasses.replace(spec, objective=objective)
        monkeypatch.setattr(_kernels, "BLOCK_POINTS", 1)
        assert dumps(tt.run_search(template, spec, 5)) == \
            dumps(reference_search(template, spec, 5))

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_lock_to_nonpositive_parameter_scores_minus_inf(self, objective):
        # cold.temperature = mid.temperature - 0.205 is <= 0 for part of the box
        template = transistor_template()
        spec = dataclasses.replace(
            window_spec(refine_rounds=2), objective=objective,
            lock={"cold.center": tt.LockRule(source="hot.center"),
                  "cold.temperature": tt.LockRule(source="mid.temperature",
                                                  offset=-0.205)})
        evaluated = []
        out = tt.run_search(template, spec, 7)
        assert dumps(out) == dumps(reference_search(template, spec, 7, evaluated))
        assert any(e[1][0]["cold.temperature"] <= 0 for e in evaluated)
        assert out and all(c.params["cold.temperature"] > 0 for c in out)

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_omega0_below_grid_scores_minus_inf(self, objective):
        template = transistor_template()
        spec = _varied(dataclasses.replace(window_spec(refine_rounds=2),
                                           objective=objective),
                       **{"wm.omega0": tt.VaryRange(0.9, 1.2)})
        evaluated = []
        out = tt.run_search(template, spec, 7)
        assert dumps(out) == dumps(reference_search(template, spec, 7, evaluated))
        assert any(e[1][0]["wm.omega0"] <= spec.omega_stop for e in evaluated)
        assert out and all(c.params["wm.omega0"] > spec.omega_stop for c in out)

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    @pytest.mark.parametrize("how", ["vary", "lock"])
    def test_omega0_above_grid_only_in_candidates_searches(self, how, objective):
        # the template's omega0 lies below the grid end, every candidate's above
        template = tt.apply_params(transistor_template(), {"wm.omega0": 0.9})
        spec = dataclasses.replace(window_spec(refine_rounds=2), objective=objective)
        if how == "vary":
            spec = _varied(spec, **{"wm.omega0": tt.VaryRange(1.2, 1.5)})
        else:   # hot.center ranges over [1.4, 1.9]
            spec = dataclasses.replace(spec, lock={
                **spec.lock, "wm.omega0": tt.LockRule(source="hot.center", offset=-0.2)})
        out = tt.run_search(template, spec, 7)
        assert out and all(1.2 <= c.params["wm.omega0"] <= 1.7 for c in out)
        assert dumps(out) == dumps(reference_search(template, spec, 7))

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_nonfinite_kernel_values_score_minus_inf(self, objective):
        # hot peak centers and widths up to 1e200 overflow the Lorentzian to
        # NaN for part of the box; such candidates were once ranked, and the
        # mode sequence labelled their all-NaN trace engine_pump
        spec = tt.SearchSpec(
            objective=objective, omega_count=121, samples=60, refine_rounds=1,
            refine_samples=12, pool=2, top_k=60,
            vary={"hot.center": tt.VaryRange(1.0, 1e200, "log"),
                  "hot.width": tt.VaryRange(1.0, 1e200, "log")})
        evaluated = []
        out = tt.run_search(make_config(), spec, 1)
        with np.errstate(all="ignore"):   # the reference's own arithmetic
            assert dumps(out) == dumps(reference_search(make_config(), spec, 1,
                                                        evaluated))
        assert sum(not np.isfinite(e[0][0]) for e in evaluated) > 10
        assert out and len(out) < spec.top_k
        assert all(np.isfinite(c.score) for c in out)

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_nonfinite_signs_are_not_classified(self, objective):
        # with the cold peak at 0.05, hot centers along the log range give
        # grid points with NaN j_hot and power but a positive j_cold; read
        # as signs, they fall in the forbidden octant, which once raised
        spec = tt.SearchSpec(objective=objective, samples=20, refine_rounds=0,
                             vary={"hot.center": tt.VaryRange(1.0, 1e200, "log")})
        template = make_config(wc=0.05)
        evaluated = []
        out = tt.run_search(template, spec, 1)
        with np.errstate(all="ignore"):   # the reference's own arithmetic
            assert dumps(out) == dumps(reference_search(template, spec, 1, evaluated))
        assert any(not np.isfinite(e[0][0]) for e in evaluated)
        assert len(out) == spec.top_k and all(np.isfinite(c.score) for c in out)

    def test_fixed_omega0_below_grid_raises(self):
        template = tt.apply_params(transistor_template(), {"wm.omega0": 0.9})
        # named as the transistor command names its own omega_max
        with pytest.raises(ConfigError, match=re.escape(
                "search.omega_grid.stop must be < omega0 = 0.9, got 0.98")):
            tt.run_search(template, window_spec(), 7)

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_block_memory_is_bounded(self, objective):
        # one block of C x omega points, written into its rows of the stage
        # table, peaks below four kernel tables; a copy of the twelve inputs
        # to full size adds 12/7 or 12/9 of one
        spec = dataclasses.replace(window_spec(), objective=objective,
                                   omega_count=481)
        grid = np.linspace(spec.omega_start, spec.omega_stop, spec.omega_count)
        units = np.random.default_rng(0).random(
            (_kernels.BLOCK_POINTS // grid.size, len(spec.vary)))
        _, args, valid = search._columns(transistor_template(), spec, units, grid)
        assert valid.all()
        rows = np.flatnonzero(valid)
        ncols = _kernels.NCOLS + 2 if objective == "transistor_window" else _kernels.NCOLS
        out = np.empty((ncols, rows.size, grid.size))
        search._scores(spec, grid, args, rows, out)
        tracemalloc.start()
        try:
            search._scores(spec, grid, args, rows, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * _kernels.BLOCK_POINTS * ncols * 8

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_kernel_calls_per_block(self, monkeypatch, objective):
        # each stage is cut into the fewest balanced blocks of at most
        # BLOCK_POINTS points whose count is a multiple of the thread count;
        # 681 candidates on 481 points are 9.996 blocks' worth of points but
        # need 11 blocks of at most 68 rows: blocks counted by points, not
        # rows, would hold 69 rows (33189 points)
        stages = []

        def counting(*args, **kwargs):
            stages[-1].append(np.broadcast_shapes(*(np.shape(a) for a in args)))
            return real(*args, **kwargs)

        def stage(*args, **kwargs):
            stages.append([])
            return real_stage(*args, **kwargs)

        real, real_stage = search.thermo_batch, search._stage
        monkeypatch.setattr(search, "thermo_batch", counting)
        monkeypatch.setattr(search, "_stage", stage)
        template, spec = REFERENCE_CASES["blocks"]
        spec = dataclasses.replace(spec, objective=objective)
        for spec in (spec, dataclasses.replace(spec, samples=681, refine_rounds=0)):
            sizes = [spec.samples] + [spec.pool * spec.refine_samples] * spec.refine_rounds
            per = _kernels.BLOCK_POINTS // spec.omega_count   # rows a block may hold
            for workers in (1, 2, 3):
                monkeypatch.setattr(_kernels, "_WORKERS", workers)
                stages.clear()
                tt.run_search(template, spec, 0)
                assert [sum(n for n, _ in calls) for calls in stages] == sizes
                for calls, size in zip(stages, sizes):
                    rows = [n for n, _ in calls]
                    assert len(calls) % workers == 0 and len(calls) >= 2
                    # workers fewer blocks could not hold the stage's rows
                    assert size > (len(calls) - workers) * per
                    assert all(n * m <= _kernels.BLOCK_POINTS for n, m in calls)
                    assert max(rows) - min(rows) <= 1


def test_distinct_modes_equal_the_membership_count():
    # every code, ERROR_CODE included, in some row, a row of one useful
    # mode, and a row that is all DEGENERATE (0 distinct modes)
    degenerate = list(OperatingMode).index(OperatingMode.DEGENERATE)
    rng = np.random.default_rng(6)
    codes = rng.integers(0, ERROR_CODE + 1, size=(40, 481)).astype(np.int8)
    codes[3] = degenerate
    codes[5, :] = search._USEFUL_CODES[0]
    codes[7, :ERROR_CODE + 1] = np.arange(ERROR_CODE + 1)
    codes[7, ERROR_CODE + 1:] = ERROR_CODE
    want = (codes[..., None] == search._USEFUL_CODES).any(axis=1).sum(axis=1)
    got = search._distinct_modes(codes)
    assert got.tolist() == want.tolist()
    assert got[3] == 0 and got[5] == 1 and got[7] == len(search._USEFUL_CODES)
    assert set(np.unique(codes)) == set(range(ERROR_CODE + 1))


class TestStage:
    """A stage decodes whole columns and writes its blocks into one table."""

    @pytest.mark.parametrize("scale", ["linear", "log"])
    def test_column_decode_equals_per_element_rule(self, scale):
        spec = tt.SearchSpec(
            objective="transistor_window",
            vary={"hot.center": tt.VaryRange(1.4, 1.9, scale),
                  "hot.width": tt.VaryRange(0.01, 0.2, scale),
                  "cold.kappa": tt.VaryRange(1e-4, 0.05, scale)},
            lock={"cold.center": tt.LockRule("hot.center", -0.3),
                  "hot.kappa": tt.LockRule("cold.kappa", 1e-3)})
        units = np.random.default_rng(3).random((4000, 3))
        values, args, _ = search._columns(transistor_template(), spec, units, spec.grid)
        want = {name: [] for name in [*spec.vary, *spec.lock]}
        for u in units.tolist():
            row = {name: decode_one(rng, ui) for (name, rng), ui in zip(spec.vary.items(), u)}
            for target, rule in spec.lock.items():
                row[target] = row[rule.source] + rule.offset
            for name, value in row.items():
                want[name].append(value)
        assert list(values) == list(want)
        for name, column in want.items():
            assert values[name].tobytes() == np.array(column).tobytes()
        # the kernel gets those columns; what the spec leaves alone stays a
        # template scalar
        varied = {**spec.vary, **spec.lock}
        for path, arg in args.items():
            assert (arg is values[path]) if path in varied else type(arg) is float

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_log_search_is_the_same_on_one_and_two_threads(self, monkeypatch, objective):
        # every stage spans several blocks of at most 68 candidates
        template, spec = REFERENCE_CASES["log_range"]
        spec = dataclasses.replace(spec, objective=objective, omega_count=481,
                                   samples=140, refine_samples=36)
        outs = []
        for workers in (1, 2):
            monkeypatch.setattr(_kernels, "_WORKERS", workers)
            outs.append(dumps(tt.run_search(template, spec, 3)))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_varied_kappa_classifies_each_candidate_with_its_own(self, objective):
        # the template's cold bath is decoupled and no candidate's is, so a
        # score taken with the template's coupling would use the reduced
        # two-terminal taxonomy
        template = make_config(kc=0.0)
        spec = dataclasses.replace(window_spec(), objective=objective, lock={}, vary={
            "hot.center": tt.VaryRange(1.2, 1.8), "cold.kappa": tt.VaryRange(1e-3, 0.02)})
        units = search._latin_hypercube(len(spec.vary), 40, 0)
        names = [*spec.vary, *spec.lock]
        for score, _, _, values in search._stage(template, spec, spec.grid, units, 0):
            config = tt.apply_params(template, dict(zip(names, values)))
            assert config.cold.kappa > 0
            assert tuple(score) == reference_score(config, spec, spec.grid)[0]

    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_spec_that_varies_no_kernel_argument(self, objective):
        # every kernel argument but the drive is a template scalar, so the
        # drive row broadcasts to every row of a block
        template = transistor_template()
        spec = dataclasses.replace(window_spec(refine_rounds=1), objective=objective,
                                   vary={"mid.gamma_m": tt.VaryRange(0.05, 0.2)},
                                   lock={})
        out = tt.run_search(template, spec, 7)
        assert out
        assert dumps(out) == dumps(reference_search(template, spec, 7))


class TestScoreMatchesDetail:
    """The batched scores of each returned candidate against its detail,
    which the public trace functions build."""

    CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "transistor_search.yaml"

    @pytest.mark.parametrize("cold_kappa", [None, 0.0], ids=["coupled", "cold_kappa_0"])
    @pytest.mark.parametrize("seed", [0, 5, 7])
    @pytest.mark.parametrize("objective", search.OBJECTIVES)
    def test_score_is_read_off_the_detail(self, objective, seed, cold_kappa):
        raw = yaml.safe_load(self.CONFIG.read_text())
        template = tt.MachineConfig.from_dict(raw)
        if cold_kappa is not None:
            template = tt.apply_params(template, {"cold.kappa": cold_kappa})
        spec = dataclasses.replace(tt.SearchSpec.from_dict(raw["search"]),
                                   objective=objective)
        out = tt.run_search(template, spec, seed)
        assert out
        for candidate in out:
            detail = candidate.detail
            if objective == "transistor_window":
                assert candidate.score == detail["width"]
            else:
                assert candidate.score == len(detail["distinct_modes"])
                assert detail["soft_score"] == min(detail["switches"], 999)


class TestLatinHypercube:
    """The numpy sampler against SciPy's ``qmc.LatinHypercube``."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 1001, 1008, 123456, 2**31, 2**40])
    @pytest.mark.parametrize("n", [0, 1, 7, 40, 200])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_equals_scipy_bitwise(self, d, n, seed):
        ours = search._latin_hypercube(d, n, seed)
        theirs = qmc.LatinHypercube(d=d, seed=seed).random(n)
        assert ours.shape == theirs.shape == (n, d)
        assert ours.tobytes() == theirs.tobytes()

    # sha256 of SciPy 1.17.1's output: pins the stream independently of the
    # installed SciPy, which may change its algorithm
    GOLDEN = {
        (3, 200, 7): "f0c2ee4d751bc5168e22886eac875e0e09a2d49042784d19f44fd5945fdc8f24",
        (3, 40, 1008): "70ffa4410dc8a857f2c84ee028a7eafc6d6d1c6cbe2428082e9c59ef2baafc8f",
        (5, 7, 2**40): "a780aab62a07e207f357ec6bd76b2c6e03db8bb84b9e4f38ca219bd49ac1263e",
        (1, 1, 0): "d14270ec0f68bd70d750ba10bff60e1ffbfa2ffc27626a413ca049a64d6be1c0",
    }

    @pytest.mark.parametrize("d, n, seed", list(GOLDEN))
    def test_golden_stream(self, d, n, seed):
        units = search._latin_hypercube(d, n, seed)
        assert hashlib.sha256(units.tobytes()).hexdigest() == self.GOLDEN[d, n, seed]

    def test_startup_and_search_load_no_scipy(self):
        # SciPy's import was most of the start-up time; keep it out
        root = pathlib.Path(__file__).resolve().parents[1]
        code = f"""
import dataclasses, sys
import yaml
import tritherm as tt
import tritherm.cli
raw = yaml.safe_load(open({str(root / "configs" / "transistor_search.yaml")!r}))
template = tt.MachineConfig.from_dict(raw)
for objective in tt.search.OBJECTIVES:
    spec = dataclasses.replace(tt.SearchSpec.from_dict(raw["search"]),
                               objective=objective, omega_count=61, samples=8,
                               refine_samples=4)
    assert tt.run_search(template, spec, 7)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
