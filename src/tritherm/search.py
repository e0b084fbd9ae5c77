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

from . import _kernels
from ._kernels import COL_DP, COL_JC, COL_JH, COL_JM, COL_P, thermo_batch
from .core import (ConfigError, MachineConfig, PARAM_PATHS, as_mapping, construct,
                   get_field, integer, number, string)
from .currents import KERNEL_PATHS, validity_codes
from .modes import MODE_BY_CODE, OperatingMode, classify_coupled_arrays
from .transistor import (DEFAULT_THRESHOLD, GAIN_RELIABLE_BAND, _figures, _runs,
                         window_mask, windows_from_arrays)

__all__ = ["VaryRange", "LockRule", "SearchSpec", "Candidate", "run_search"]

OBJECTIVES = ("transistor_window", "mode_sequence")

_SOFT_CAP = 1e9

# The kernel arguments, then mid.gamma_m, which must only be positive
_ARG_PATHS = KERNEL_PATHS + ("mid.gamma_m",)
_USEFUL_CODES = np.array([i for i, m in enumerate(OperatingMode)
                          if m is not OperatingMode.DEGENERATE])


@dataclass(frozen=True)
class VaryRange:
    """Sampling range of one varied parameter."""

    low: float
    high: float
    scale: str = "linear"

    def __post_init__(self):
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"scale must be 'linear' or 'log', got {self.scale!r}",
                              "scale")
        if not (self.low <= self.high):
            raise ConfigError("range low must be <= high", "max")
        if self.scale == "log" and self.low <= 0:
            raise ConfigError("log-scaled range requires positive bounds", "min")

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
            raise ConfigError(f"unknown search.objective {self.objective!r}; "
                              f"expected one of {OBJECTIVES}")
        if not self.vary:
            raise ConfigError("search.vary needs at least one varied parameter")
        for name in list(self.vary) + list(self.lock):
            if name not in PARAM_PATHS:
                raise ConfigError(f"unknown parameter {name!r}")
        for name, rng in self.vary.items():
            # every parameter is positive; a coupling may be 0
            zero_ok = name.endswith(".kappa")
            if not (rng.low >= 0.0 if zero_ok else rng.low > 0.0):
                raise ConfigError(f"search.vary.{name}.min must be "
                                  f"{'>= 0' if zero_ok else '> 0'}, got {rng.low}")
        for name, rule in self.lock.items():
            if name in self.vary:
                raise ConfigError(f"parameter {name!r} is both varied and locked")
            if rule.source not in self.vary:
                raise ConfigError(f"search.lock.{name}.source {rule.source!r} must "
                                  f"be a varied parameter")
        for name, low in (("samples", 1), ("refine_rounds", 0),
                          ("refine_samples", 0), ("pool", 1), ("top_k", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"search.{name} must be >= {low}")
        for name in ("shrink", "threshold"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"search.{name} must be > 0")
        for key, bad, why in (("count", self.omega_count < 3, "must be >= 3"),
                              ("start", not self.omega_start > 0, "must be > 0"),
                              ("stop", not self.omega_stop > self.omega_start,
                               "must be > search.omega_grid.start")):
            if bad:
                raise ConfigError(f"search.omega_grid.{key} {why}")

    @classmethod
    def from_dict(cls, data: dict, path: str = "search") -> "SearchSpec":
        """Build a spec from a config's ``search`` mapping.

        Absent optional fields take the dataclass defaults.  Missing or
        malformed fields raise :class:`ConfigError` naming their dotted path
        below ``path``.
        """
        section = as_mapping(data, path)
        vary = {name: construct(VaryRange, where,
                                low=get_field(rng, "min", where, number),
                                high=get_field(rng, "max", where, number),
                                scale=get_field(rng, "scale", where, string, "linear"))
                for name, rng, where in _entries(section, "vary", path)}
        lock = {name: LockRule(source=get_field(rule, "source", where, string),
                               offset=get_field(rule, "offset", where, number,
                                                0.0))
                for name, rule, where in _entries(section, "lock", path)}
        grid = as_mapping(section.get("omega_grid") or {}, f"{path}.omega_grid")
        options = {f"omega_{k}": get_field(grid, k, f"{path}.omega_grid", kind)
                   for k, kind in _GRID_FIELDS.items() if k in grid}
        options.update({k: get_field(section, k, path, kind)
                        for k, kind in _SCALAR_FIELDS.items() if k in section})
        return cls(objective=get_field(section, "objective", path, string,
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
_GRID_FIELDS = {"start": number, "stop": number, "count": integer}
_SCALAR_FIELDS = {"threshold": number, "samples": integer, "refine_rounds": integer,
                  "refine_samples": integer, "pool": integer, "shrink": number,
                  "top_k": integer}


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


def _columns(template: MachineConfig, spec: SearchSpec, units, grid) -> tuple:
    """The params decoded from each unit-cube sample, their ``(C, 13)``
    values of ``_ARG_PATHS`` over the template, and the mask of the
    candidates that ``apply_params`` and ``MachineConfig.validate`` accept
    and whose omega0 is above the grid."""
    params = [{name: rng.decode(float(ui))
               for (name, rng), ui in zip(spec.vary.items(), u)} for u in units]
    for p in params:
        for target, rule in spec.lock.items():
            p[target] = p[rule.source] + rule.offset
    base = operator.attrgetter(*_ARG_PATHS)(template)
    cols = np.array([[p.get(path, b) for path, b in zip(_ARG_PATHS, base)]
                     for p in params]).reshape(len(params), len(_ARG_PATHS))
    gamma_m = cols[:, -1]
    return params, cols, ((validity_codes(cols[:, :-1].T, len(params)) == 0)
                          & (gamma_m > 0.0) & (gamma_m < np.inf)
                          & (grid[-1] < cols[:, 0]))


def _table(spec: SearchSpec, grid, cols):
    """Figures ``r``, ``g`` and the table ``(C, len(grid), 9)`` of the
    candidates ``cols``, or their mode codes ``(C, len(grid))``."""
    args = [c[:, None] for c in cols[:, :-1].T]   # all but mid.gamma_m
    args[2] = grid[None, :]
    if spec.objective == "transistor_window":
        table = thermo_batch(*args, slopes=True)
        return (*_figures(table), table)
    table = thermo_batch(*args)
    return classify_coupled_arrays(args[8], args[11], *(
        table[..., c] for c in (COL_JH, COL_JC, COL_JM, COL_P)))


def _scores(spec: SearchSpec, grid, cols) -> np.ndarray:
    """``(C, 2)`` ranking scores of valid candidates: the widest window and
    the soft score, or the distinct modes and the capped switches."""
    if spec.objective == "mode_sequence":
        codes = _table(spec, grid, cols)
        distinct = (codes[..., None] == _USEFUL_CODES).any(axis=1).sum(axis=1)
        switches = np.count_nonzero(codes[:, 1:] != codes[:, :-1], axis=1)
        return np.stack([distinct, np.minimum(switches, 999)], axis=1)
    r, g, _ = _table(spec, grid, cols)
    edges = np.diff(((r > spec.threshold) & (g > spec.threshold)).astype(np.int8),
                    axis=1, prepend=0, append=0)
    rows, starts = np.nonzero(edges == 1)   # passing runs are [start, stop)
    stops = np.nonzero(edges == -1)[1]
    keep = stops - starts >= 2   # one point has no width
    width = np.zeros(len(cols))
    np.maximum.at(width, rows[keep], grid[stops[keep] - 1] - grid[starts[keep]])
    soft = np.where(np.isfinite(r) & np.isfinite(g), np.minimum(r, g), 0.0)
    return np.stack([width, np.minimum(soft.max(axis=1), _SOFT_CAP)], axis=1)


def _details(spec: SearchSpec, grid, cols):
    """Detail dict of each candidate of ``cols``, from one kernel call."""
    if spec.objective == "mode_sequence":
        for codes in _table(spec, grid, cols):
            runs = [[float(grid[a]), float(grid[b - 1]), MODE_BY_CODE[codes[a]].value]
                    for a, b in _runs(codes)]
            modes = {m for *_, m in runs} - {OperatingMode.DEGENERATE.value}
            yield {"distinct_modes": sorted(modes), "switches": len(runs) - 1,
                   "runs": runs}
        return
    for r, g, row in zip(*_table(spec, grid, cols)):
        windows = windows_from_arrays(grid, r, g, spec.threshold)
        gains = g[window_mask(grid, windows) & np.isfinite(g)
                  & (np.abs(row[:, COL_DP]) >= GAIN_RELIABLE_BAND)]
        yield {"width": max((w.width for w in windows), default=0.0),
               "max_gain": float(gains.max()) if gains.size else 0.0,
               "windows": [w.to_dict() for w in windows]}


def _stage(template, spec, grid, units, first: int) -> list:
    """Entries ``(score, order, u, params)`` of the unit-cube samples
    ``units``, with orders counted from ``first``.  Valid candidates are
    scored in blocks of at most ``_kernels.BLOCK_POINTS`` points; invalid
    ones score ``-inf``."""
    params, cols, valid = _columns(template, spec, units, grid)
    scores = np.full((len(params), 2), -np.inf)
    valid = np.flatnonzero(valid)
    step = max(_kernels.BLOCK_POINTS // grid.size, 1)
    for i in range(0, valid.size, step):
        rows = valid[i:i + step]
        scores[rows] = _scores(spec, grid, cols[rows])
    return [(score, first + i, u, p) for i, (score, u, p)
            in enumerate(zip(scores.tolist(), units, params))]


def _rank_key(entry):
    # best score first, ties broken by sampling order
    return -entry[0][0], -entry[0][1], entry[1]


def run_search(template: MachineConfig, spec: SearchSpec, seed: int) -> list[Candidate]:
    """Run the seeded search; returns the top-k of all evaluated candidates,
    best first.

    Deterministic for a fixed (template, spec, seed): identical ranking,
    parameters, and scores on every run.  Each stage (the Latin-hypercube
    sample, each refinement round) is scored in candidate x omega blocks.
    Candidates that violate the machine's validity constraints, or whose
    omega0 is not above the grid, score ``-inf`` and are dropped from the
    returned list.  The seed must be a non-negative integer.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    dim = len(spec.vary)
    grid = np.linspace(spec.omega_start, spec.omega_stop, spec.omega_count)
    # a varied or locked omega0 is checked against the grid per candidate
    fixed_w0 = "wm.omega0" not in spec.vary and "wm.omega0" not in spec.lock
    if fixed_w0 and grid[-1] >= template.wm.omega0:
        raise ConfigError("search omega grid must stay below omega0")

    sampler = qmc.LatinHypercube(d=dim, seed=seed)
    entries = _stage(template, spec, grid, sampler.random(spec.samples), 0)

    # Each round refines around the best of everything evaluated so far;
    # the result ranks every evaluated entry.  An entry's order is its index.
    shrink = spec.shrink
    sub_seed = seed + 1001
    for _ in range(spec.refine_rounds):
        units = []
        for entry in sorted(entries, key=_rank_key)[:spec.pool]:
            lo = np.clip(entry[2] - shrink, 0.0, 1.0)
            hi = np.clip(entry[2] + shrink, 0.0, 1.0)
            sub = qmc.LatinHypercube(d=dim, seed=sub_seed)
            sub_seed += 1
            units.append(lo + sub.random(spec.refine_samples) * (hi - lo))
        entries += _stage(template, spec, grid, np.concatenate(units), len(entries))
        shrink *= 0.5

    best = [e for e in sorted(entries, key=_rank_key)[:spec.top_k]
            if np.isfinite(e[0][0])]
    details = _details(spec, grid, _columns(template, spec, [e[2] for e in best],
                                            grid)[1])
    return [Candidate(params={k: float(v) for k, v in params.items()},
                      score=float(score[0]),
                      detail={**detail, "soft_score": float(score[1])})
            for (score, _, _, params), detail in zip(best, details)]
