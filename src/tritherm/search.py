"""Seeded parameter search: widest transistor window or richest mode sequence.

The strategy is Latin-hypercube sampling over a bounded box followed by
local refinement around the best candidates (the objectives are cheap,
smooth, and low-dimensional).  Everything is driven by one integer seed, so
repeated runs are bit-for-bit reproducible.

A search varies a set of dotted config parameters over ranges (linear or
log scale) and can lock other parameters to sampled ones (e.g.
``cold.center = hot.center`` for zero detuning, or
``cold.temperature = mid.temperature - 0.01`` to keep the two almost equal).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from .core import (ConfigError, MachineConfig, PARAM_PATHS, apply_params,
                   as_mapping, get_field)
from .modes import OperatingMode
from .sweep import mode_sequence_along_omega
from .transistor import (DEFAULT_THRESHOLD, transistor_trace, window_mask,
                         windows_from_arrays)

__all__ = ["VaryRange", "LockRule", "SearchSpec", "Candidate", "run_search"]

OBJECTIVES = ("transistor_window", "mode_sequence")

_SOFT_CAP = 1e9


@dataclass(frozen=True)
class VaryRange:
    """Sampling range of one varied parameter."""

    low: float
    high: float
    scale: str = "linear"

    def __post_init__(self):
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"scale must be 'linear' or 'log', got {self.scale!r}")
        if not (self.low <= self.high):
            raise ConfigError("range low must be <= high")
        if self.scale == "log" and self.low <= 0:
            raise ConfigError("log-scaled range requires positive bounds")

    def decode(self, u: float) -> float:
        if self.scale == "log":
            lo, hi = np.log10(self.low), np.log10(self.high)
            return float(10.0 ** (lo + u * (hi - lo)))
        return float(self.low + u * (self.high - self.low))


@dataclass(frozen=True)
class LockRule:
    """Derive one parameter from a sampled one: value = source + offset."""

    source: str
    offset: float = 0.0


@dataclass(frozen=True)
class SearchSpec:
    """Search definition around a template config."""

    objective: str
    vary: dict
    lock: dict = field(default_factory=dict)
    omega_start: float = 0.02
    omega_stop: float = 0.98
    omega_count: int = 481
    threshold: float = DEFAULT_THRESHOLD
    samples: int = 200
    refine_rounds: int = 2
    refine_samples: int = 40
    pool: int = 3
    shrink: float = 0.25
    top_k: int = 5

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"unknown objective {self.objective!r}; "
                              f"expected one of {OBJECTIVES}")
        if not self.vary:
            raise ConfigError("search needs at least one varied parameter")
        for name in list(self.vary) + [r.source for r in self.lock.values()]:
            if name not in PARAM_PATHS:
                raise ConfigError(f"unknown parameter {name!r}")
        for name, rule in self.lock.items():
            if name not in PARAM_PATHS:
                raise ConfigError(f"unknown parameter {name!r}")
            if name in self.vary:
                raise ConfigError(f"parameter {name!r} is both varied and locked")
            if rule.source not in self.vary:
                raise ConfigError(f"lock source {rule.source!r} must be a varied "
                                  f"parameter")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.omega_count < 3 or not (0 < self.omega_start < self.omega_stop):
            raise ConfigError("invalid omega grid")

    @classmethod
    def from_dict(cls, data: dict, path: str = "search") -> "SearchSpec":
        """Build a spec from a config's ``search`` mapping.

        Absent optional fields take the dataclass defaults.  Missing or
        malformed fields raise :class:`ConfigError` naming their dotted path
        below ``path``.
        """
        section = as_mapping(data, path)
        vary = {name: VaryRange(low=get_field(rng, "min", where, float),
                                high=get_field(rng, "max", where, float),
                                scale=rng.get("scale", "linear"))
                for name, rng, where in _entries(section, "vary", path)}
        lock = {name: LockRule(source=get_field(rule, "source", where, str),
                               offset=get_field(rule, "offset", where, float,
                                                0.0))
                for name, rule, where in _entries(section, "lock", path)}
        grid = as_mapping(section.get("omega_grid") or {}, f"{path}.omega_grid")
        options = {f"omega_{k}": get_field(grid, k, f"{path}.omega_grid", kind)
                   for k, kind in _GRID_FIELDS.items() if k in grid}
        options.update({k: get_field(section, k, path, kind)
                        for k, kind in _SCALAR_FIELDS.items() if k in section})
        return cls(objective=get_field(section, "objective", path, str,
                                       "transistor_window"),
                   vary=vary, lock=lock, **options)

    def to_dict(self) -> dict:
        """Inverse of :meth:`from_dict`; keeps the ``vary`` order, which
        fixes the Latin-hypercube dimensions."""
        return {
            "objective": self.objective,
            "vary": {k: {"min": v.low, "max": v.high, "scale": v.scale}
                     for k, v in self.vary.items()},
            "lock": {k: {"source": r.source, "offset": r.offset}
                     for k, r in self.lock.items()},
            "omega_grid": {k: getattr(self, f"omega_{k}") for k in _GRID_FIELDS},
            **{k: getattr(self, k) for k in _SCALAR_FIELDS},
        }


# Plain fields of a search section and their types; omega_grid.<key> maps
# to the SearchSpec field omega_<key>.
_GRID_FIELDS = {"start": float, "stop": float, "count": operator.index}
_SCALAR_FIELDS = {"threshold": float, "samples": operator.index,
                  "refine_rounds": operator.index,
                  "refine_samples": operator.index, "pool": operator.index,
                  "shrink": float, "top_k": operator.index}


def _entries(section: dict, key: str, path: str):
    """``(name, mapping, dotted path)`` for each entry of ``section[key]``."""
    for name, value in as_mapping(section.get(key) or {}, f"{path}.{key}").items():
        where = f"{path}.{key}.{name}"
        yield name, as_mapping(value, where), where


@dataclass(frozen=True)
class Candidate:
    """One scored parameter set."""

    params: dict
    score: float
    detail: dict

    def to_dict(self) -> dict:
        return {"params": self.params, "score": self.score, "detail": self.detail}


def _decode(spec: SearchSpec, u: np.ndarray) -> dict:
    params = {name: rng.decode(float(ui))
              for (name, rng), ui in zip(spec.vary.items(), u)}
    for target, rule in spec.lock.items():
        params[target] = params[rule.source] + rule.offset
    return params


def _score_transistor(config: MachineConfig, grid, threshold):
    trace = transistor_trace(config, grid)
    windows = windows_from_arrays(trace.omega, trace.r, trace.g, threshold)
    width = max((w.width for w in windows), default=0.0)
    finite = np.isfinite(trace.r) & np.isfinite(trace.g)
    soft = float(np.minimum(trace.r[finite], trace.g[finite]).max()) if finite.any() else 0.0
    gain_mask = window_mask(grid, windows) & np.isfinite(trace.g) & trace.g_reliable
    max_gain = float(trace.g[gain_mask].max()) if gain_mask.any() else 0.0
    detail = {
        "width": width,
        "max_gain": max_gain,
        "windows": [w.to_dict() for w in windows],
    }
    return (width, min(soft, _SOFT_CAP)), detail


def _score_modes(config: MachineConfig, grid, threshold):
    runs = mode_sequence_along_omega(config, grid)
    labels = [mode for (_, mode) in runs if mode is not OperatingMode.DEGENERATE]
    distinct = sorted({m.value for m in labels})
    switches = max(len(runs) - 1, 0)
    detail = {
        "distinct_modes": distinct,
        "switches": switches,
        "runs": [[lo, hi, mode.value] for ((lo, hi), mode) in runs],
    }
    return (float(len(distinct)), float(min(switches, 999))), detail


def _evaluate(template, spec, grid, params):
    config = apply_params(template, params)
    try:
        config.validate()
    except ConfigError:
        return (-np.inf, -np.inf), {"invalid": True}
    if spec.objective == "transistor_window":
        return _score_transistor(config, grid, spec.threshold)
    return _score_modes(config, grid, spec.threshold)


def _entry(template, spec, grid, u, order):
    """``(score, (params, detail), order, u)`` of one unit-cube sample."""
    params = _decode(spec, u)
    score, detail = _evaluate(template, spec, grid, params)
    return score, (params, detail), order, tuple(u)


def _rank_key(entry):
    # best score first, ties broken by sampling order
    return -entry[0][0], -entry[0][1], entry[2]


def run_search(template: MachineConfig, spec: SearchSpec, seed: int) -> list[Candidate]:
    """Run the seeded search; returns the top-k of all evaluated candidates,
    best first.

    Deterministic for a fixed (template, spec, seed): identical ranking,
    parameters, and scores on every run.  Candidates that violate the
    machine's validity constraints score ``-inf`` and are dropped from the
    returned list.
    """
    dim = len(spec.vary)
    grid = np.linspace(spec.omega_start, spec.omega_stop, spec.omega_count)
    if grid[-1] >= template.wm.omega0:
        raise ConfigError("search omega grid must stay below omega0")

    sampler = qmc.LatinHypercube(d=dim, seed=seed)
    entries = [_entry(template, spec, grid, u, order)
               for order, u in enumerate(sampler.random(spec.samples))]

    # Each round refines around the best of everything evaluated so far;
    # the result ranks every evaluated entry.  An entry's order is its index.
    shrink = spec.shrink
    sub_seed = seed + 1001
    for _ in range(spec.refine_rounds):
        pool = sorted(entries, key=_rank_key)[:max(spec.pool, 1)]
        for entry in pool:
            u0 = np.array(entry[3])
            lo = np.clip(u0 - shrink, 0.0, 1.0)
            hi = np.clip(u0 + shrink, 0.0, 1.0)
            sub = qmc.LatinHypercube(d=dim, seed=sub_seed)
            sub_seed += 1
            for v in sub.random(spec.refine_samples):
                entries.append(_entry(template, spec, grid,
                                      lo + v * (hi - lo), len(entries)))
        shrink *= 0.5

    ranked = sorted(entries, key=_rank_key)
    out = []
    for score, (params, detail), order, _ in ranked[:spec.top_k]:
        if not np.isfinite(score[0]):
            continue
        out.append(Candidate(params={k: float(v) for k, v in params.items()},
                             score=float(score[0]),
                             detail={**detail, "soft_score": float(score[1])}))
    return out
