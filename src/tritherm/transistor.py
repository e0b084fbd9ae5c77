"""Thermal-transistor figures of merit and useful driving-frequency windows.

The machine acts as a transistor when the power absorbed through the driven
couplings (the input) controls the hot-bath current (the output).  Two
figures of merit as functions of the drive frequency:

* ``r = |j_hot / power|`` - output-to-input ratio; diverges where the power
  crosses zero while the output current keeps its sign.
* ``g = |d j_hot / d power| = |(d j_hot/dW) / (d power/dW)|`` - differential
  gain; the kernel returns both drive derivatives in closed form, in the
  same pass as the currents (one kernel call per evaluation, through
  :func:`tritherm.currents._drive_table`, which also checks a grid).

A "useful" window is a run of >= 2 grid points where both exceed a
threshold (default 10): one rule, shared with the search's scores.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._kernels import COL_DJH, COL_DP, COL_JC, COL_JH, COL_JM, COL_P
from .core import DEFAULT_THRESHOLD, DomainError, MachineConfig, check_grid, real_number
from .currents import SIGN_ZERO_BAND, _drive_table

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
        return asdict(self)


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
    denominator magnitude lies inside the 1e-14 zero band.  Arrays are of
    one shape; on them the quotient is taken everywhere, its warnings off,
    and overwritten inside the band."""
    if not np.ndim(denominator):
        small = np.abs(denominator) < SIGN_ZERO_BAND
        return np.where(small, np.inf, np.abs(numerator / np.where(small, 1.0, denominator)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.divide(numerator, denominator)
    np.abs(ratio, out=ratio)
    # the band as two one-byte masks, not a float |denominator|
    ratio[(denominator < SIGN_ZERO_BAND) & (denominator > -SIGN_ZERO_BAND)] = np.inf
    return ratio


def _figures(table):
    """``r`` and ``g`` from a kernel table computed with ``slopes=True``."""
    return (_ratio(table[..., COL_JH], table[..., COL_P]),
            _ratio(table[..., COL_DJH], table[..., COL_DP]))


def transistor_point(config: MachineConfig) -> TransistorPoint:
    """Evaluate r, g and the underlying derivatives at the config's drive,
    which must lie in (0, omega0).  DomainError if a kernel value, a
    slope included, comes out nonfinite."""
    _, table = _drive_table(config, slopes=True)
    row = table.tolist()
    r, g = _figures(table)
    return TransistorPoint(
        omega_drive=config.drive_freq, r=float(r), g=float(g),
        djh_domega=row[COL_DJH], dp_domega=row[COL_DP],
        j_hot=row[COL_JH], power=row[COL_P],
        g_reliable=abs(row[COL_DP]) >= GAIN_RELIABLE_BAND)


def transistor_trace(config: MachineConfig, omega_grid) -> TransistorTrace:
    """Vectorized :func:`transistor_point` along a drive grid
    (:func:`tritherm.core.check_grid`) inside (0, omega0).  DomainError if
    a kernel value along it, a slope included, is not finite."""
    grid, table = _drive_table(config, omega_grid, slopes=True)
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
    and sorted by frequency.  DomainError unless the threshold is a finite
    number > 0, ``omega``, ``r`` and ``g`` are 1D arrays of one length, and
    ``omega`` is a grid (:func:`tritherm.core.check_grid`).
    """
    threshold = real_number(threshold, "threshold")
    if not 0 < threshold < math.inf:
        raise DomainError(f"threshold must be finite and > 0, got {threshold}")
    omega, r, g = np.asarray(omega), np.asarray(r), np.asarray(g)
    if omega.ndim != 1 or not omega.shape == r.shape == g.shape:
        raise DomainError(f"omega, r and g must be 1D arrays of one length, got "
                          f"shapes {omega.shape}, {r.shape} and {g.shape}")
    omega = check_grid(omega, "omega")
    windows = []
    _, starts, stops = _window_runs(r, g, threshold)
    for start, stop in zip(starts.tolist(), stops.tolist()):
        rr, gg = r[start:stop], g[start:stop]
        finite = np.isfinite(rr) & np.isfinite(gg)
        windows.append(TransistorWindow(
            omega_min=float(omega[start]), omega_max=float(omega[stop - 1]),
            min_r=float(rr[finite].min()) if finite.any() else math.inf,
            min_g=float(gg[finite].min()) if finite.any() else math.inf,
            contains_inversion=bool(~finite.all())))
    return windows


def _runs(values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, start and stop indices of the maximal runs ``[start, stop)`` of
    equal values along the last axis of a 1D (one row) or 2D array, in
    row-major order."""
    values = np.atleast_2d(values)
    cut = np.ones(values.shape[:-1] + (values.shape[-1] + 1,), dtype=bool)
    cut[:, 1:-1] = values[:, 1:] != values[:, :-1]
    rows, starts = np.nonzero(cut[:, :-1])
    return rows, starts, np.nonzero(cut[:, 1:])[1] + 1


def _window_runs(r, g, threshold):
    """Row, start and stop of the windows along the last axis of ``r`` and
    ``g``: the runs of >= 2 points where both exceed ``threshold`` (one
    point has no width)."""
    passing = np.atleast_2d((r > threshold) & (g > threshold))
    rows, starts, stops = _runs(passing)
    keep = passing[rows, starts] & (stops - starts >= 2)
    return rows[keep], starts[keep], stops[keep]


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
    if np.size(omega_grid) < 3:
        raise DomainError("window search needs a grid of at least 3 points")
    trace = transistor_trace(config, omega_grid)
    return windows_from_arrays(trace.omega, trace.r, trace.g, threshold)
