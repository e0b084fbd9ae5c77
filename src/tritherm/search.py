"""Seeded parameter search: widest transistor window or richest mode sequence.

The strategy is Latin-hypercube sampling over a bounded box followed by
local refinement around the best candidates (the objectives are cheap,
smooth, and low-dimensional).  Everything is driven by one integer seed, so
repeated runs are bit-for-bit reproducible.  Each stage is scored in
candidate x omega kernel blocks, which write their rows of one stage table
and score their own candidates under :func:`tritherm._kernels.map_blocks`.
The detail of each returned candidate is built by the public trace
functions, so its score can be read off it.

A search varies a set of dotted config parameters over ranges (linear or
log scale) and can lock other parameters to sampled ones (e.g.
``cold.center = hot.center`` for zero detuning, or
``cold.temperature = mid.temperature - 0.01`` to keep the two almost equal).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels
from ._kernels import NCOLS, thermo_batch
from .core import (DEFAULT_DRIVE_GRID, DEFAULT_THRESHOLD, MAX_COUNT, ConfigError,
                   MachineConfig, PARAM_PATHS, apply_params, as_mapping, check_fields,
                   check_type, construct, from_fields, get_field, grid_fault, integer,
                   number, parameter_bound, parameter_ok, string)
from .currents import _blank_errors, _kernel_args, validity_codes
from .modes import MODE_BY_CODE, OperatingMode, classify_table
from .sweep import mode_sequence_along_omega
from .transistor import (_figures, _window_runs, transistor_trace, window_mask,
                         windows_from_arrays)

__all__ = ["VaryRange", "LockRule", "SearchSpec", "Candidate", "run_search"]

OBJECTIVES = ("transistor_window", "mode_sequence")

_SOFT_CAP = 1e9

_USEFUL_CODES = np.array([i for i, m in enumerate(OperatingMode)
                          if m is not OperatingMode.DEGENERATE])


@dataclass(frozen=True)
class VaryRange:
    """Sampling range of one varied parameter."""

    low: float
    high: float
    scale: str = "linear"

    def __post_init__(self):
        for name, key in (("low", "min"), ("high", "max")):
            # the reader of a file; an int is stored as a float
            value = get_field(vars(self), name, "range", number)
            if not np.isfinite(value):
                raise ConfigError(f"range {key} must be finite, got {value}", key)
            object.__setattr__(self, name, value)
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"scale must be 'linear' or 'log', got {self.scale!r}",
                              "scale")
        if not (self.low <= self.high):
            raise ConfigError("range low must be <= high", "max")
        if self.scale == "log" and self.low <= 0:
            raise ConfigError("log-scaled range requires positive bounds", "min")

    def decode(self, u: np.ndarray) -> np.ndarray:
        """The values of a column ``u`` of unit samples: ``low + u (high -
        low)``, or on the log scale ``10 ** e`` with ``e`` so interpolated
        between the bounds' ``log10``.  The power is taken per element on
        numpy scalars, as for one sample: numpy's array ``power`` differs
        from it in the last bit on some values (on AVX-512 hosts, say)."""
        if self.scale == "log":
            lo, hi = np.log10(self.low), np.log10(self.high)
            return np.array([10.0 ** e for e in lo + u * (hi - lo)], dtype=np.float64)
        return self.low + u * (self.high - self.low)


@dataclass(frozen=True)
class LockRule:
    """Derive one parameter from a sampled one: value = source + offset."""

    source: str
    offset: float = 0.0

    def __post_init__(self):
        for name, kind in (("source", string), ("offset", number)):
            object.__setattr__(self, name, get_field(vars(self), name, "lock", kind))
        if not np.isfinite(self.offset):
            raise ConfigError(f"lock offset must be finite, got {self.offset}", "offset")


@dataclass(frozen=True)
class SearchSpec:
    """Search definition around a template config."""

    objective: str
    vary: dict
    lock: dict = field(default_factory=dict)
    omega_start: float = DEFAULT_DRIVE_GRID[0]
    omega_stop: float = DEFAULT_DRIVE_GRID[1]
    omega_count: int = DEFAULT_DRIVE_GRID[2]
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
        for key, kind in (("vary", VaryRange), ("lock", LockRule)):
            for name, value in as_mapping(getattr(self, key), f"search.{key}").items():
                if not isinstance(value, kind):
                    raise ConfigError(f"search.{key}.{name} must be a {kind.__name__}, "
                                      f"got {value!r}")
        if not self.vary:
            raise ConfigError("search.vary needs at least one varied parameter")
        for name in list(self.vary) + list(self.lock):
            if name not in PARAM_PATHS:
                raise ConfigError(f"unknown parameter {name!r}")
        for name, rng in self.vary.items():
            if not parameter_ok(name, rng.low):
                raise ConfigError(f"search.vary.{name}.min must be "
                                  f"{parameter_bound(name)}, got {rng.low}")
        for name, rule in self.lock.items():
            if name in self.vary:
                raise ConfigError(f"parameter {name!r} is both varied and locked")
            if rule.source not in self.vary:
                raise ConfigError(f"search.lock.{name}.source {rule.source!r} must "
                                  f"be a varied parameter")
        # the readers of a file; an int is stored as a float where a float
        # belongs, a numpy integer as an int
        for name, kind in _FIELD_KINDS.items():
            object.__setattr__(self, name, get_field(vars(self), name, "search", kind))
        fault = grid_fault("drive_freq", self.omega_start, self.omega_stop,
                           self.omega_count, 3)
        if fault:
            key, why = fault
            raise ConfigError(f"search.omega_grid.{key} {why}")
        for name, low in (("samples", 1), ("refine_rounds", 0), ("refine_samples", 0),
                          ("pool", 1), ("top_k", 1)):
            if not low <= getattr(self, name) <= MAX_COUNT:
                raise ConfigError(f"search.{name} must be >= {low} and <= {MAX_COUNT}")
        for name, value in (("shrink", self.shrink), ("threshold", self.threshold)):
            if not 0 < value < np.inf:
                raise ConfigError(f"search.{name} must be finite and > 0")

    @property
    def grid(self) -> np.ndarray:
        """The omega grid every candidate is traced along."""
        return np.linspace(self.omega_start, self.omega_stop, self.omega_count)

    @classmethod
    def from_dict(cls, data: dict, path: str = "search") -> "SearchSpec":
        """Build a spec from a config's ``search`` mapping.

        Absent optional fields take the dataclass defaults.  Missing,
        malformed or unknown fields raise :class:`ConfigError` naming their
        dotted path below ``path``.
        """
        section = as_mapping(data, path)
        vary = {name: construct(VaryRange, where,
                                low=get_field(rng, "min", where, number),
                                high=get_field(rng, "max", where, number),
                                scale=get_field(rng, "scale", where, string, "linear"))
                for name, rng, where in _entries(section, "vary", path)}
        lock = {name: from_fields(LockRule, rule, where)
                for name, rule, where in _entries(section, "lock", path)}
        grid = as_mapping(_optional(section, "omega_grid"), f"{path}.omega_grid")
        options = {f"omega_{k}": get_field(grid, k, f"{path}.omega_grid", kind)
                   for k, kind in _GRID_FIELDS.items() if k in grid}
        options.update({k: get_field(section, k, path, kind)
                        for k, kind in _SCALAR_FIELDS.items() if k in section})
        # after the known fields, so that a missing one is named first
        for _, entry, where in _entries(section, "vary", path):
            check_fields(entry, _VARY_FIELDS, where)
        check_fields(grid, _GRID_FIELDS, f"{path}.omega_grid")
        check_fields(section, _SECTION_FIELDS, path)
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
            "lock": {k: asdict(r) for k, r in self.lock.items()},
            "omega_grid": {k: getattr(self, f"omega_{k}") for k in _GRID_FIELDS},
            **{k: getattr(self, k) for k in _SCALAR_FIELDS},
        }


# Fields of a search section, with the types of the plain ones, and of its
# vary entries; omega_grid.<key> maps to the SearchSpec field omega_<key>.
# Any other key is an error.
_GRID_FIELDS = {"start": number, "stop": number, "count": integer}
_SCALAR_FIELDS = {"threshold": number, "samples": integer, "refine_rounds": integer,
                  "refine_samples": integer, "pool": integer, "shrink": number,
                  "top_k": integer}
_SECTION_FIELDS = ("objective", "vary", "lock", "omega_grid", *_SCALAR_FIELDS)
# The reader of each number field of a SearchSpec
_FIELD_KINDS = {**{f"omega_{k}": kind for k, kind in _GRID_FIELDS.items()},
                **_SCALAR_FIELDS}
_VARY_FIELDS = ("min", "max", "scale")


def _optional(section: dict, key: str):
    """``section[key]``, or an empty mapping if it is absent or null."""
    value = section.get(key)
    return {} if value is None else value


def _entries(section: dict, key: str, path: str):
    """``(name, mapping, dotted path)`` for each entry of ``section[key]``."""
    for name, value in as_mapping(_optional(section, key), f"{path}.{key}").items():
        where = f"{path}.{key}.{name}"
        yield name, as_mapping(value, where), where


@dataclass(frozen=True)
class Candidate:
    """One scored parameter set."""

    params: dict
    score: float
    detail: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _columns(template: MachineConfig, spec: SearchSpec, units, grid) -> tuple:
    """The columns of the unit-cube samples ``units`` (one row each): the
    values of the varied parameters, decoded, then of the locked ones; the
    kernel arguments by path (``currents._kernel_args``), such a column
    where the spec varies or locks the parameter and the template's scalar
    elsewhere; and the mask of the candidates that ``apply_params`` and
    ``MachineConfig.validate`` accept and whose omega0 is above the grid."""
    values = {name: rng.decode(units[:, i])
              for i, (name, rng) in enumerate(spec.vary.items())}
    for target, rule in spec.lock.items():
        values[target] = values[rule.source] + rule.offset
    args = _kernel_args(template, values)
    gamma_m = values.get("mid.gamma_m", template.mid.gamma_m)
    return values, args, ((validity_codes([*args.values()], len(units)) == 0)
                          & parameter_ok("mid.gamma_m", gamma_m)
                          & (grid[-1] < args["wm.omega0"]))


def _distinct_modes(codes) -> np.ndarray:
    """The number of distinct modes other than ``DEGENERATE`` in each row
    of the mode codes ``codes`` (into ``MODE_BY_CODE``), counted by one
    ``bincount`` over ``row * len(MODE_BY_CODE) + code``."""
    nbins = len(MODE_BY_CODE)
    keys = np.arange(len(codes))[:, None] * nbins + codes
    seen = np.bincount(keys.ravel(), minlength=len(codes) * nbins).reshape(-1, nbins)
    return np.count_nonzero(seen[:, _USEFUL_CODES], axis=1)


def _scores(spec: SearchSpec, grid, args, rows, out) -> np.ndarray:
    """``(len(rows), 2)`` ranking scores of the valid candidates ``rows`` of
    the ``_columns`` arguments ``args``, whose kernel table along ``grid``
    is written into ``out``: the widest window and the soft score, or the
    distinct modes and the capped switches.  A candidate with a grid point
    that ``currents._blank_errors`` blanks scores ``-inf``, as an invalid one
    does."""
    # (C, 1) columns and template scalars, against the grid
    block = {path: a[rows, None] if isinstance(a, np.ndarray) else a
             for path, a in args.items()}
    block["drive_freq"] = grid
    window = spec.objective == "transistor_window"
    table = thermo_batch(*block.values(), slopes=window, out=out)
    bad = _blank_errors(table, np.zeros(table.shape[:-1], dtype=np.int8))
    if not window:
        codes = classify_table(table, block["hot.kappa"], block["cold.kappa"])
        distinct = _distinct_modes(codes)
        switches = np.count_nonzero(codes[:, 1:] != codes[:, :-1], axis=1)
        scores = np.stack([distinct, np.minimum(switches, 999)], axis=1)
    else:
        r, g = _figures(table)
        runs, starts, stops = _window_runs(r, g, spec.threshold)
        width = np.zeros(len(rows))
        np.maximum.at(width, runs, grid[stops - 1] - grid[starts])
        soft = np.where(np.isfinite(r) & np.isfinite(g), np.minimum(r, g), 0.0)
        scores = np.stack([width, np.minimum(soft.max(axis=1), _SOFT_CAP)], axis=1)
    return np.where(bad.any(axis=1)[:, None], -np.inf, scores)


def _detail(config: MachineConfig, spec: SearchSpec, grid) -> dict:
    """Detail dict of one candidate config, from the public trace functions."""
    if spec.objective == "mode_sequence":
        runs = mode_sequence_along_omega(config, grid)
        modes = {m.value for _, m in runs} - {OperatingMode.DEGENERATE.value}
        return {"distinct_modes": sorted(modes), "switches": len(runs) - 1,
                "runs": [[lo, hi, m.value] for (lo, hi), m in runs]}
    trace = transistor_trace(config, grid)
    windows = windows_from_arrays(grid, trace.r, trace.g, spec.threshold)
    gains = trace.g[window_mask(grid, windows) & np.isfinite(trace.g)
                    & trace.g_reliable]
    return {"width": max((w.width for w in windows), default=0.0),
            "max_gain": float(gains.max()) if gains.size else 0.0,
            "windows": [w.to_dict() for w in windows]}


def _stage(template, spec, grid, units, first: int) -> list:
    """Entries ``(score, order, u, values)`` of the unit-cube samples
    ``units``, with orders counted from ``first`` and ``values`` those of
    the varied, then the locked parameters.  Valid candidates are scored
    in ``map_blocks`` blocks, the fewest of at most ``_kernels.BLOCK_POINTS``
    points (one candidate at least) whose count is a multiple of the thread
    count, their sizes differing by at most one candidate, so the threads
    get equal work.  The blocks write their kernel rows into one stage
    table and score them from it; invalid candidates, and those with
    nonfinite kernel values, score ``-inf``.  What the spec neither varies
    nor locks enters the kernel as the template's scalar, so terms without
    a varied parameter are computed once per grid point."""
    values, args, valid = _columns(template, spec, units, grid)
    scores = np.full((len(units), 2), -np.inf)
    valid = np.flatnonzero(valid)
    slopes = spec.objective == "transistor_window"
    table = np.empty((NCOLS + 2 if slopes else NCOLS, valid.size, grid.size))
    n, w = valid.size, _kernels._WORKERS
    per = max(1, _kernels.BLOCK_POINTS // grid.size)   # most candidates a block holds
    blocks = min(n, w * -(-n // (per * w)))

    def run(k):
        lo, hi = n * k // blocks, n * (k + 1) // blocks
        rows = valid[lo:hi]
        scores[rows] = _scores(spec, grid, args, rows, table[:, lo:hi])

    _kernels.map_blocks(run, range(blocks))
    samples = np.stack(list(values.values()), axis=1).tolist()
    return [(score, first + i, u, row) for i, (score, u, row)
            in enumerate(zip(scores.tolist(), units, samples))]


def _latin_hypercube(d: int, n: int, seed: int) -> np.ndarray:
    """``n`` points of a scrambled ``d``-dimensional Latin hypercube in the
    unit cube: SciPy's ``qmc.LatinHypercube(d=d, seed=seed).random(n)``
    (strength 1, scrambled), draw for draw, without importing SciPy."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - u) / n


def _rank_key(entry):
    # best score first, ties broken by sampling order
    return -entry[0][0], -entry[0][1], entry[1]


def run_search(template: MachineConfig, spec: SearchSpec, seed: int) -> list[Candidate]:
    """Run the seeded search; returns the top-k of all evaluated candidates,
    best first.

    Deterministic for a fixed (template, spec, seed): identical ranking,
    parameters, and scores on every run.  Each stage (the Latin-hypercube
    sample, each refinement round) is scored in candidate x omega blocks.
    Candidates that violate the machine's validity constraints, whose
    omega0 is not above the grid, or whose kernel values along the grid are
    not finite score ``-inf`` and are dropped from the returned list.
    ``template`` must be a MachineConfig, ``spec`` a SearchSpec and the
    seed a non-negative integer.  The Latin-hypercube sampler
    reproduces SciPy's ``qmc.LatinHypercube(d, seed=...)`` stream bit for
    bit (the sample takes ``seed``, the refinements ``seed + 1001``
    onwards), so results do not depend on whether SciPy is installed.
    """
    check_type(template, MachineConfig, "template")
    check_type(spec, SearchSpec, "spec")
    seed = get_field({"seed": seed}, "seed", "", integer)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    dim = len(spec.vary)
    grid = spec.grid
    # a varied or locked omega0 is checked against the grid per candidate
    fixed_w0 = "wm.omega0" not in spec.vary and "wm.omega0" not in spec.lock
    if fixed_w0 and grid[-1] >= template.wm.omega0:
        raise ConfigError(f"search.omega_grid.stop must be < omega0 = "
                          f"{template.wm.omega0}, got {spec.omega_stop}")

    entries = _stage(template, spec, grid, _latin_hypercube(dim, spec.samples, seed), 0)

    # Each round refines around the best of everything evaluated so far;
    # the result ranks every evaluated entry.  An entry's order is its index.
    shrink = spec.shrink
    sub_seed = seed + 1001
    for _ in range(spec.refine_rounds):
        units = []
        for entry in sorted(entries, key=_rank_key)[:spec.pool]:
            lo = np.clip(entry[2] - shrink, 0.0, 1.0)
            hi = np.clip(entry[2] + shrink, 0.0, 1.0)
            units.append(lo + _latin_hypercube(dim, spec.refine_samples, sub_seed)
                         * (hi - lo))
            sub_seed += 1
        entries += _stage(template, spec, grid, np.concatenate(units), len(entries))
        shrink *= 0.5

    names = [*spec.vary, *spec.lock]
    best = [(score, dict(zip(names, values)))
            for score, _, _, values in sorted(entries, key=_rank_key)[:spec.top_k]
            if np.isfinite(score[0])]
    return [Candidate(params=params, score=float(score[0]),
                      detail={**_detail(apply_params(template, params), spec, grid),
                              "soft_score": float(score[1])})
            for score, params in best]
