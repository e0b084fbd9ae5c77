"""Thermal-transistor figures of merit and useful driving-frequency windows.

The machine acts as a transistor when the power absorbed through the driven
couplings (the input) controls the hot-bath current (the output).  Two
figures of merit as functions of the drive frequency:

* ``r = |j_hot / power|`` - output-to-input ratio; diverges where the power
  crosses zero while the output current keeps its sign.
* ``g = |d j_hot / d power| = |(d j_hot/dW) / (d power/dW)|`` - differential
  gain, evaluated by central differences in the drive frequency W.

A "useful" window is a contiguous run of grid points where both exceed a
threshold (default 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import thermo_batch
from .core import DomainError, MachineConfig
from .currents import SIGN_ZERO_BAND, config_args

__all__ = [
    "DEFAULT_STEP",
    "DEFAULT_THRESHOLD",
    "GAIN_RELIABLE_BAND",
    "TransistorPoint",
    "TransistorWindow",
    "TransistorTrace",
    "transistor_point",
    "transistor_trace",
    "find_windows",
    "windows_from_arrays",
    "window_mask",
]

DEFAULT_STEP = 1e-5          # relative central-difference step in the drive
STEP_ABS_FLOOR = 1e-8        # absolute floor, in units of omega0
DEFAULT_THRESHOLD = 10.0
GAIN_RELIABLE_BAND = 1e-10   # |dP/dW| below this flags g as unreliable


@dataclass(frozen=True)
class TransistorPoint:
    """Figures of merit at one drive frequency.

    ``r`` and ``g`` are +inf when the respective denominator magnitude
    (|power|, |dp_domega|) lies below the 1e-14 zero band; ``g_reliable``
    is False when |dp_domega| < 1e-10 (near a power extremum the finite
    difference loses significance).
    """

    omega_drive: float
    r: float
    g: float
    djh_domega: float
    dp_domega: float
    j_hot: float
    power: float
    g_reliable: bool


@dataclass(frozen=True)
class TransistorWindow:
    """Maximal contiguous grid run with r and g above the threshold.

    ``min_r``/``min_g`` are minima over the finite values inside;
    ``contains_inversion`` flags windows holding any +inf point (a power or
    power-slope inversion), in which case the minima cover the finite
    points only.
    """

    omega_min: float
    omega_max: float
    min_r: float
    min_g: float
    contains_inversion: bool = False

    @property
    def width(self) -> float:
        return self.omega_max - self.omega_min

    def to_dict(self) -> dict:
        return {"omega_min": self.omega_min, "omega_max": self.omega_max,
                "min_r": self.min_r, "min_g": self.min_g,
                "contains_inversion": self.contains_inversion}


@dataclass(frozen=True)
class TransistorTrace:
    """Columnar transistor quantities along a drive-frequency grid."""

    omega: np.ndarray
    j_hot: np.ndarray
    j_cold: np.ndarray
    j_mid: np.ndarray
    power: np.ndarray
    djh_domega: np.ndarray
    dp_domega: np.ndarray
    r: np.ndarray
    g: np.ndarray

    @property
    def g_reliable(self) -> np.ndarray:
        return np.abs(self.dp_domega) >= GAIN_RELIABLE_BAND


def _ratio(numerator, denominator) -> np.ndarray:
    """Element-wise ``|numerator / denominator|``; +inf where the
    denominator magnitude lies inside the 1e-14 zero band."""
    small = np.abs(denominator) < SIGN_ZERO_BAND
    with np.errstate(divide="ignore"):
        return np.where(small, np.inf,
                        np.abs(numerator / np.where(small, 1.0, denominator)))


def _central_slope(f_plus, f_minus, h):
    """Central-difference slope; exact for affine functions."""
    return (f_plus - f_minus) / (2.0 * h)


def _trace_arrays(config: MachineConfig, omega: np.ndarray, step: float):
    omega0 = config.wm.omega0
    h = np.maximum(step * omega, STEP_ABS_FLOOR * omega0)
    if np.any(omega - h <= 0.0) or np.any(omega + h >= omega0):
        raise DomainError("finite-difference stencil leaves (0, omega0); "
                          "move the drive grid away from the edges or shrink "
                          "the step")
    args = list(config_args(config))
    args[2] = omega
    t0 = thermo_batch(*args)
    djh, dp = _drive_slopes(args, h)
    return t0, djh, dp, _ratio(t0[:, 0], t0[:, 3]), _ratio(djh, dp)


def _drive_slopes(args, h):
    """``d j_hot/dW`` and ``d power/dW`` by central differences of step
    ``h`` in the drive ``W = args[2]`` (twelve kernel arguments)."""
    tables = []
    for sign in (1.0, -1.0):
        shifted = list(args)
        shifted[2] = args[2] + sign * h
        tables.append(thermo_batch(*shifted))
    tp, tm = tables
    return (_central_slope(tp[:, 0], tm[:, 0], h),
            _central_slope(tp[:, 3], tm[:, 3], h))


def transistor_point(config: MachineConfig, step: float = DEFAULT_STEP) -> TransistorPoint:
    """Evaluate r, g and the underlying derivatives at the config's drive.

    The central-difference step is ``max(step * drive, 1e-8 * omega0)``;
    the stencil must stay inside (0, omega0).
    """
    if step <= 0:
        raise DomainError("step must be positive")
    omega = np.array([config.drive_freq])
    t0, djh, dp, r, g = _trace_arrays(config, omega, step)
    return TransistorPoint(
        omega_drive=config.drive_freq,
        r=float(r[0]), g=float(g[0]),
        djh_domega=float(djh[0]), dp_domega=float(dp[0]),
        j_hot=float(t0[0, 0]), power=float(t0[0, 3]),
        g_reliable=bool(abs(dp[0]) >= GAIN_RELIABLE_BAND))


def transistor_trace(config: MachineConfig, omega_grid,
                     step: float = DEFAULT_STEP) -> TransistorTrace:
    """Vectorized :func:`transistor_point` over a drive-frequency grid."""
    grid = np.asarray(omega_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("omega grid must be a 1D array")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("omega grid must be strictly increasing")
    t0, djh, dp, r, g = _trace_arrays(config, grid, step)
    return TransistorTrace(omega=grid, j_hot=t0[:, 0], j_cold=t0[:, 1],
                           j_mid=t0[:, 2], power=t0[:, 3], djh_domega=djh,
                           dp_domega=dp, r=r, g=g)


def windows_from_arrays(omega, r, g,
                        threshold: float = DEFAULT_THRESHOLD) -> list[TransistorWindow]:
    """Maximal runs of >= 2 consecutive grid points with r and g above threshold.

    +inf values pass the threshold; windows containing them are flagged and
    report minima over their finite points.  Returned windows are disjoint
    and sorted by frequency.
    """
    omega, r, g = np.asarray(omega), np.asarray(r), np.asarray(g)
    passing = (r > threshold) & (g > threshold)
    windows = []
    for start, stop in _runs(passing):
        if not passing[start] or stop - start < 2:  # one point has no width
            continue
        rr, gg = r[start:stop], g[start:stop]
        finite = np.isfinite(rr) & np.isfinite(gg)
        windows.append(TransistorWindow(
            omega_min=float(omega[start]), omega_max=float(omega[stop - 1]),
            min_r=float(rr[finite].min()) if finite.any() else math.inf,
            min_g=float(gg[finite].min()) if finite.any() else math.inf,
            contains_inversion=bool(~finite.all())))
    return windows


def _runs(values) -> list[tuple[int, int]]:
    """``(start, stop)`` index bounds of the maximal runs of equal values."""
    values = np.asarray(values)
    cuts = (np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()
    bounds = [0, *cuts, values.size] if values.size else []
    return list(zip(bounds[:-1], bounds[1:]))


def window_mask(grid, windows) -> np.ndarray:
    """Boolean mask of the grid points lying inside any of ``windows``."""
    grid = np.asarray(grid)
    mask = np.zeros(grid.shape, dtype=bool)
    for w in windows:
        mask |= (grid >= w.omega_min) & (grid <= w.omega_max)
    return mask


def find_windows(config: MachineConfig, omega_grid,
                 threshold: float = DEFAULT_THRESHOLD,
                 step: float = DEFAULT_STEP) -> list[TransistorWindow]:
    """Locate useful transistor windows along a drive-frequency grid.

    The grid must be strictly increasing, contain at least 3 points, and
    stay inside (0, omega0); the threshold (default 10) applies to both
    r and g.  An empty list means no window.
    """
    grid = np.asarray(omega_grid, dtype=np.float64)
    if grid.size < 3:
        raise DomainError("window search needs a grid of at least 3 points")
    if threshold <= 0:
        raise DomainError("threshold must be positive")
    trace = transistor_trace(config, grid, step)
    return windows_from_arrays(trace.omega, trace.r, trace.g, threshold)
