"""Parameter sweeps: mode maps, exergy maps, and transistor traces.

All valid cells of a grid are evaluated in one batch-kernel call; cells
whose parameters violate preconditions (temperature ordering, drive range,
positive peak frequencies) are emitted as error cells carrying NaN values
and an error string, so maps keep their rectangular shape.  Every cell is
bitwise identical to a single-point evaluation at the same parameters.
"""

from __future__ import annotations

import csv
import json
import operator
from dataclasses import dataclass, field

import numpy as np

from ._kernels import COL_SNEG, COL_SPOS, NCOLS, thermo_batch
from .core import ConfigError, MachineConfig, as_mapping, get_field
from .currents import ThermoPoint, config_args
from .modes import (ERROR_CODE, MODE_BY_CODE, classify_config_arrays,
                    exergy_from_split)
from .transistor import _figures, _runs

__all__ = [
    "AXIS_PARAMS",
    "Axis",
    "SweepSpec",
    "MapCell",
    "SweepResult",
    "run_sweep",
    "resonance_lines",
    "mode_sequence_along_omega",
]

# Index of each sweepable parameter in the kernel argument list
_ARG_INDEX = {
    "drive_freq": 2,
    "hot.temperature": 3,
    "mid.temperature": 4,
    "cold.temperature": 5,
    "hot.center": 6,
    "cold.center": 9,
}

# hot.center_locked moves cold.center together with hot.center so the
# detuning of the template is preserved across the axis.
AXIS_PARAMS = frozenset(_ARG_INDEX) | {"hot.center_locked"}

OUTPUT_KINDS = frozenset({"currents", "mode", "exergy", "transistor"})


@dataclass(frozen=True)
class Axis:
    """One sweep axis: ``count`` evenly spaced values of ``param``."""

    param: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.param not in AXIS_PARAMS:
            raise ConfigError(f"unknown sweep parameter {self.param!r}; "
                              f"expected one of {sorted(AXIS_PARAMS)}")
        if self.count < 2:
            raise ConfigError(f"axis {self.param}: count must be >= 2")
        if not (self.start < self.stop):
            raise ConfigError(f"axis {self.param}: start must be < stop")
        if self.start <= 0:
            raise ConfigError(f"axis {self.param}: values must be positive")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def to_dict(self) -> dict:
        return {"param": self.param, "start": self.start,
                "stop": self.stop, "count": self.count}

    @classmethod
    def from_dict(cls, data, path: str) -> "Axis":
        """Inverse of :meth:`to_dict`; ConfigError names a missing or
        malformed field below ``path`` (e.g. ``sweep.axis1.count``)."""
        data = as_mapping(data, path)
        return cls(**{key: get_field(data, key, path, kind) for key, kind in (
            ("param", str), ("start", float), ("stop", float),
            ("count", operator.index))})


@dataclass(frozen=True)
class SweepSpec:
    """A 1D or 2D sweep around a template config."""

    template: MachineConfig
    axis1: Axis
    axis2: Axis | None = None
    outputs: frozenset = field(default_factory=lambda: frozenset({"currents", "mode", "exergy"}))

    def __post_init__(self):
        unknown = set(self.outputs) - OUTPUT_KINDS
        if unknown:
            raise ConfigError(f"unknown outputs: {sorted(unknown)}")
        w0 = self.template.wm.omega0
        for axis in (self.axis1, self.axis2):
            if axis is not None and axis.param == "drive_freq" and axis.stop >= w0:
                raise ConfigError(f"axis drive_freq must stay below omega0 = {w0}")
        if self.axis2 is not None and self.axis2.param == self.axis1.param:
            raise ConfigError("the two axes must sweep different parameters")


@dataclass(frozen=True)
class MapCell:
    """One sweep cell; ``point`` is None for error cells."""

    axis1: float
    axis2: float | None
    point: ThermoPoint | None
    mode: str
    phi: float
    r: float | None = None
    g: float | None = None
    error: str | None = None


def _apply_axis(cols: list[np.ndarray], param: str, values: np.ndarray,
                template: MachineConfig):
    if param == "hot.center_locked":
        cols[_ARG_INDEX["hot.center"]] = values
        cols[_ARG_INDEX["cold.center"]] = values - template.detuning
    else:
        cols[_ARG_INDEX[param]] = values


class SweepResult:
    """Columnar sweep output; row-major over (axis1, axis2)."""

    def __init__(self, spec, axis1_values, axis2_values, thermo, mode_codes,
                 phi, r, g, errors):
        self.spec = spec
        self.axis1_values = axis1_values
        self.axis2_values = axis2_values
        self.thermo = thermo
        self.mode_codes = mode_codes
        self.phi = phi
        self.r = r
        self.g = g
        self.errors = errors

    @property
    def shape(self) -> tuple:
        n1 = len(self.axis1_values)
        return (n1, len(self.axis2_values)) if self.axis2_values is not None else (n1,)

    @property
    def size(self) -> int:
        return self.thermo.shape[0]

    def mode_labels(self) -> list[str]:
        return [MODE_BY_CODE[c].value if c != ERROR_CODE else "error"
                for c in self.mode_codes]

    def mode_set(self) -> set:
        """Distinct OperatingMode labels present (error cells excluded)."""
        return {MODE_BY_CODE[c] for c in np.unique(self.mode_codes) if c != ERROR_CODE}

    def _flat_index(self, i: int, j: int | None) -> int:
        if self.axis2_values is None:
            if j is not None:
                raise IndexError("1D sweep has no second index")
            return i
        if j is None:
            raise IndexError("2D sweep requires two indices")
        return i * len(self.axis2_values) + j

    def cell(self, i: int, j: int | None = None) -> MapCell:
        k = self._flat_index(i, j)
        err = self.errors[k]
        row = self.thermo[k]
        point = None if err else ThermoPoint(*[float(v) for v in row])
        code = self.mode_codes[k]
        mode = "error" if code == ERROR_CODE else MODE_BY_CODE[code].value
        return MapCell(
            axis1=float(self.axis1_values[i]),
            axis2=None if self.axis2_values is None else float(self.axis2_values[j]),
            point=point, mode=mode, phi=float(self.phi[k]),
            r=None if self.r is None else float(self.r[k]),
            g=None if self.g is None else float(self.g[k]),
            error=err)

    def iter_cells(self):
        if self.axis2_values is None:
            for i in range(len(self.axis1_values)):
                yield self.cell(i)
        else:
            for i in range(len(self.axis1_values)):
                for j in range(len(self.axis2_values)):
                    yield self.cell(i, j)

    def csv_header(self) -> list[str]:
        cols = ["axis1"]
        if self.axis2_values is not None:
            cols.append("axis2")
        cols += ["j_hot", "j_cold", "j_mid", "power", "entropy_rate", "mode", "phi"]
        if self.r is not None:
            cols += ["r", "g"]
        cols.append("error")
        return cols

    def csv_rows(self):
        n2 = 1 if self.axis2_values is None else len(self.axis2_values)
        labels = self.mode_labels()
        for k in range(self.size):
            i, j = divmod(k, n2)
            row = [repr(float(self.axis1_values[i]))]
            if self.axis2_values is not None:
                row.append(repr(float(self.axis2_values[j])))
            row += [repr(float(self.thermo[k, c])) for c in range(5)]
            row.append(labels[k])
            row.append(repr(float(self.phi[k])))
            if self.r is not None:
                row += [repr(float(self.r[k])), repr(float(self.g[k]))]
            row.append(self.errors[k] or "")
            yield row

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.csv_header())
            writer.writerows(self.csv_rows())

    def to_json(self, path, metadata: dict | None = None) -> None:
        payload = {
            "metadata": {
                "artifact": "tritherm",
                "config": self.spec.template.to_dict(),
                "grid": {
                    "axis1": self.spec.axis1.to_dict(),
                    "axis2": self.spec.axis2.to_dict() if self.spec.axis2 else None,
                },
                "outputs": sorted(self.spec.outputs),
                **(metadata or {}),
            },
            "schema": self.csv_header(),
            "rows": [[_json_cell(v) for v in row] for row in self.csv_rows()],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))


def _json_cell(value):
    # csv_rows yields repr-formatted floats plus the mode/error strings
    try:
        return float(value)
    except ValueError:
        return value


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Evaluate a sweep.

    Cells are laid out row-major over (axis1, axis2).  Cells violating
    preconditions are marked with an error string and carry NaN values and
    the mode label ``error`` rather than being dropped.  ``threads`` is
    accepted for compatibility and ignored: the sweep runs as one batch.
    """
    template = spec.template
    a1 = spec.axis1.values()
    a2 = spec.axis2.values() if spec.axis2 is not None else None
    n1 = len(a1)
    n2 = 1 if a2 is None else len(a2)
    n = n1 * n2

    base = config_args(template)
    cols = [np.full(n, v) for v in base]
    _apply_axis(cols, spec.axis1.param, np.repeat(a1, n2), template)
    if a2 is not None:
        _apply_axis(cols, spec.axis2.param, np.tile(a2, n1), template)

    errors = _cell_errors(cols, n)
    valid = np.array([e is None for e in errors])
    idx = np.flatnonzero(valid)

    thermo, r, g = _thermo_columns(cols, idx, n, "transistor" in spec.outputs)
    mode_codes = np.full(n, ERROR_CODE, dtype=np.int8)
    mode_codes[idx] = classify_config_arrays(
        template, thermo[idx, 0], thermo[idx, 1], thermo[idx, 2], thermo[idx, 3])
    phi = np.full(n, np.nan)
    phi[idx] = exergy_from_split(thermo[idx, COL_SPOS], thermo[idx, COL_SNEG])
    return SweepResult(spec, a1, a2, thermo, mode_codes, phi, r, g, errors)


def _cell_errors(cols, n) -> list:
    w0 = cols[0]
    drv, th, tm, tc = cols[2], cols[3], cols[4], cols[5]
    wh, wc = cols[6], cols[9]
    errors = [None] * n
    bad_drive = (drv <= 0.0) | (drv >= w0)
    bad_order = ~((th > tm) & (tm > tc) & (tc > 0.0))
    bad_center = (wh <= 0.0) | (wc <= 0.0)
    for k in np.flatnonzero(bad_drive | bad_order | bad_center):
        if bad_drive[k]:
            errors[k] = "drive_freq outside (0, omega0)"
        elif bad_order[k]:
            errors[k] = "temperature ordering violated"
        else:
            errors[k] = "nonpositive spectral peak frequency"
    return errors


def _thermo_columns(cols, idx, n, transistor):
    """Kernel columns of the valid cells ``idx`` spread over all ``n`` cells
    (NaN elsewhere); with ``transistor`` also the r and g columns, from the
    same kernel call, else None."""
    table = thermo_batch(*[c[idx] for c in cols], slopes=transistor)
    thermo = np.full((n, NCOLS), np.nan)
    thermo[idx] = table[:, :NCOLS]
    if not transistor:
        return thermo, None, None
    r, g = np.full(n, np.nan), np.full(n, np.nan)
    r[idx], g[idx] = _figures(table)
    return thermo, r, g


def resonance_lines(spec: SweepSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """Overlay lines for an (drive, hot-center) map, as (slope, intercept).

    The first line is the hot-bath resonance (peak aligned with the upper
    sideband), the second the cold-bath resonance expressed through the
    template detuning.  Requires one drive_freq axis and one hot.center /
    hot.center_locked axis.
    """
    params = {spec.axis1.param} | ({spec.axis2.param} if spec.axis2 else set())
    if "drive_freq" not in params or not (params & {"hot.center", "hot.center_locked"}):
        raise ConfigError("resonance lines require a drive_freq axis and a "
                          "hot.center (or hot.center_locked) axis")
    w0 = spec.template.wm.omega0
    return (1.0, w0), (-1.0, w0 + spec.template.detuning)


def mode_sequence_along_omega(config: MachineConfig, omega_grid) -> list:
    """Run-length-encoded mode labels along a drive-frequency sweep.

    Returns ``[((omega_start, omega_end), OperatingMode), ...]`` with
    consecutive equal labels merged.  The grid must be strictly increasing
    and stay inside (0, omega0).
    """
    grid = np.asarray(omega_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 1:
        raise ConfigError("omega grid must be a 1D array")
    if np.any(np.diff(grid) <= 0):
        raise ConfigError("omega grid must be strictly increasing")
    if grid[0] <= 0.0 or grid[-1] >= config.wm.omega0:
        raise ConfigError("omega grid must lie inside (0, omega0)")
    args = list(config_args(config))
    args[2] = grid
    table = thermo_batch(*args)
    codes = classify_config_arrays(config, table[:, 0], table[:, 1],
                                   table[:, 2], table[:, 3])
    return [((float(grid[start]), float(grid[stop - 1])),
             MODE_BY_CODE[codes[start]]) for start, stop in _runs(codes)]
