"""Thermal-transistor figures of merit and useful driving-frequency windows.

The machine acts as a transistor when the power absorbed through the driven
couplings (the input) controls the hot-bath current (the output).  Two
figures of merit as functions of the drive frequency:

* ``r = |j_hot / power|`` - output-to-input ratio; diverges where the power
  crosses zero while the output current keeps its sign.
* ``g = |d j_hot / d power| = |(d j_hot/dW) / (d power/dW)|`` - differential
  gain; the kernel returns both drive derivatives in closed form, in the
  same pass as the currents (one kernel call per evaluation).

A "useful" window is a contiguous run of grid points where both exceed a
threshold (default 10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (COL_DJH, COL_DP, COL_JC, COL_JH, COL_JM, COL_P,
                       thermo_batch)
from .core import DomainError, MachineConfig
from .currents import SIGN_ZERO_BAND, check_drive, config_args

__all__ = [
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

DEFAULT_THRESHOLD = 10.0
GAIN_RELIABLE_BAND = 1e-10   # |dP/dW| below this flags g as unreliable


@dataclass(frozen=True)
class TransistorPoint:
    """Figures of merit at one drive frequency.

    ``r`` and ``g`` are +inf when the respective denominator magnitude
    (|power|, |dp_domega|) lies below the 1e-14 zero band; ``g_reliable``
    is False when |dp_domega| < 1e-10: near a power extremum the slope is
    a difference of nearly cancelling sideband terms, so g is dominated by
    rounding and diverges as the extremum is approached.
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


def _figures(table):
    """``r`` and ``g`` from a kernel table computed with ``slopes=True``."""
    return (_ratio(table[:, COL_JH], table[:, COL_P]),
            _ratio(table[:, COL_DJH], table[:, COL_DP]))


def transistor_point(config: MachineConfig) -> TransistorPoint:
    """Evaluate r, g and the underlying derivatives at the config's drive,
    which must lie in (0, omega0)."""
    trace = transistor_trace(config, [config.drive_freq])
    return TransistorPoint(
        omega_drive=config.drive_freq,
        **{k: float(getattr(trace, k)[0]) for k in
           ("r", "g", "djh_domega", "dp_domega", "j_hot", "power")},
        g_reliable=bool(trace.g_reliable[0]))


def transistor_trace(config: MachineConfig, omega_grid) -> TransistorTrace:
    """Vectorized :func:`transistor_point` over a drive-frequency grid."""
    grid = np.asarray(omega_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("omega grid must be a 1D array")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("omega grid must be strictly increasing")
    check_drive(grid, config.wm.omega0)
    args = list(config_args(config))
    args[2] = grid
    table = thermo_batch(*args, slopes=True)
    r, g = _figures(table)
    return TransistorTrace(omega=grid, j_hot=table[:, COL_JH],
                           j_cold=table[:, COL_JC], j_mid=table[:, COL_JM],
                           power=table[:, COL_P], djh_domega=table[:, COL_DJH],
                           dp_domega=table[:, COL_DP], r=r, g=g)


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
                 threshold: float = DEFAULT_THRESHOLD) -> list[TransistorWindow]:
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
    trace = transistor_trace(config, grid)
    return windows_from_arrays(trace.omega, trace.r, trace.g, threshold)
