"""Period-averaged heat currents, total power, and entropy production.

The closed forms are two-sideband sums: each dynamically coupled bath
exchanges quanta at the frequencies ``omega0 +/- drive_freq``, weighted by
its spectral density there and by the Bose-occupation imbalance against the
statically coupled bath.  Sign conventions: a heat current is positive when
it flows from the bath into the working medium, the power is positive when
work is performed on the working medium.

The mid-bath current is never computed from its own formula; it follows
from energy conservation, ``j_mid = -(power + j_hot + j_cold)``, so the
first law holds to the last bit by construction.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass

import numpy as np

from ._kernels import COL_DJH, COL_DP, COL_JM, COL_S, NCOLS, thermo_batch
from .core import (DomainError, MachineConfig, check_grid, check_real, check_type,
                   drive_ok, ordering_ok, parameter_bound, parameter_ok)

__all__ = [
    "SIGN_ZERO_BAND",
    "ThermoPoint",
    "evaluate_point",
    "evaluate_arrays",
    "config_args",
    "KERNEL_PATHS",
    "check_drive",
    "VALIDITY_MESSAGES",
    "validity_codes",
    "finite_rows",
]

# Currents with |value| below this band are treated as exactly zero for
# sign classification (shared with tritherm.modes).
SIGN_ZERO_BAND = 1e-14


@dataclass(frozen=True)
class ThermoPoint:
    """Period-averaged thermodynamic quantities at one operating point, or
    at each point of a batch, as arrays (see :func:`evaluate_arrays`).

    ``entropy_rate = entropy_pos + entropy_neg`` and
    ``power + j_hot + j_cold + j_mid = 0`` hold to rounding; the second law
    guarantees ``entropy_rate >= 0`` for any config with ordered
    temperatures.  The fields are declared in kernel column order.
    """

    j_hot: float
    j_cold: float
    j_mid: float
    power: float
    entropy_rate: float
    entropy_pos: float
    entropy_neg: float

    def to_dict(self) -> dict:
        return asdict(self)


# Dotted config paths of the twelve kernel arguments, in batch-call order.
KERNEL_PATHS = ("wm.omega0", "wm.mass", "drive_freq",
                "hot.temperature", "mid.temperature", "cold.temperature",
                "hot.center", "hot.width", "hot.kappa",
                "cold.center", "cold.width", "cold.kappa")
_KERNEL_ARGS = operator.attrgetter(*KERNEL_PATHS)


def config_args(config: MachineConfig) -> tuple[float, ...]:
    """The twelve kernel arguments of a config, in batch-call order."""
    return _KERNEL_ARGS(config)


def _kernel_args(config: MachineConfig, columns) -> dict:
    """The twelve kernel arguments of ``config`` by dotted path, in
    ``KERNEL_PATHS`` order; a path of the mapping ``columns`` takes its
    value there instead (an axis vector, a candidate column, a drive grid)."""
    return {path: columns.get(path, value)
            for path, value in zip(KERNEL_PATHS, config_args(config))}


def check_drive(drive_freq, omega0) -> None:
    """DomainError unless every drive frequency passes the drive rule."""
    if not drive_ok(np.asarray(drive_freq, dtype=np.float64), omega0).all():
        raise DomainError(
            f"drive_freq outside the supported driving range (0, omega0) = "
            f"(0, {omega0}); both sideband frequencies must stay positive")


# Message of each code of validity_codes; 0 marks a valid point.  Where
# several checks fail, the one listed first wins.  The last code is set
# after the kernel, by _blank_errors, on a valid point with nonfinite values.
VALIDITY_MESSAGES = (None, "drive_freq outside (0, omega0)", "temperature ordering violated",
                     "nonpositive spectral peak frequency",
                     "nonfinite or nonpositive parameter", "nonfinite kernel result")


def validity_codes(args, shape) -> np.ndarray:
    """Code into VALIDITY_MESSAGES of each point of the twelve kernel
    arguments ``args`` (arrays or scalars in ``KERNEL_PATHS`` order, which
    broadcast to ``shape``)."""
    codes = np.zeros(shape, dtype=np.int8)

    def mark(code, bad):   # a later mark overwrites an earlier one
        if np.any(bad):
            codes[np.broadcast_to(bad, shape)] = code

    # np.logical_not, not ~: on a Python bool ~True is -2, an index
    for path, a in zip(KERNEL_PATHS, args):
        mark(4, np.logical_not(parameter_ok(path, a)))
    w0, _, drv, th, tm, tc, wh, _, _, wc = args[:10]
    mark(3, (wh <= 0.0) | (wc <= 0.0))
    mark(2, np.logical_not(ordering_ok(th, tm, tc)))
    mark(1, np.logical_not(drive_ok(drv, w0)))
    return codes


def finite_rows(table) -> np.ndarray:
    """Mask of the points of a kernel table whose ``j_mid`` and
    ``entropy_rate`` are finite, and, in a table with slopes, both drive
    slopes; any nonfinite current or power reaches both sums."""
    finite = np.isfinite(table[..., COL_JM]) & np.isfinite(table[..., COL_S])
    if table.shape[-1] > NCOLS:
        finite &= np.isfinite(table[..., COL_DJH]) & np.isfinite(table[..., COL_DP])
    return finite


def _blank_errors(table, codes) -> np.ndarray:
    """The one rule after the kernel: a point of ``codes`` with code 0 that
    fails :func:`finite_rows` gets the last code of VALIDITY_MESSAGES, then
    every point with a code gets NaN values in ``table``; both are written
    in place.  Returns the mask of those points."""
    finite = finite_rows(table)
    if not finite.all():
        codes[~finite & (codes == 0)] = len(VALIDITY_MESSAGES) - 1
    bad = codes != 0
    if bad.any():
        table[bad] = np.nan
    return bad


_OWN_DRIVE = object()   # _drive_table's default grid; None is a bad grid


def _drive_table(config: MachineConfig, grid=_OWN_DRIVE, slopes: bool = False):
    """The drives and kernel table of ``config`` along the float64 ``grid``
    that :func:`tritherm.core.check_grid` returns, or at its own drive if no
    ``grid`` is given.  DomainError unless ``config`` is a MachineConfig,
    every drive lies in (0, omega0) and every value of the table is finite
    (a grid's by :func:`finite_rows`): the closed forms can over- or
    underflow at a config that ``MachineConfig.validate`` passes."""
    check_type(config, MachineConfig, "config")
    point = grid is _OWN_DRIVE
    if point:
        drive = config.drive_freq
        if not drive_ok(drive, config.wm.omega0):   # two floats: a bool
            check_drive(drive, config.wm.omega0)
    else:
        drive = check_grid(grid, "omega grid")
        check_drive(drive, config.wm.omega0)
    args = list(config_args(config))
    args[2] = drive
    table = thermo_batch(*args, slopes=slopes)
    # a point's row is tested on Python floats, faster than numpy on one row
    if not (all(map(math.isfinite, table.tolist())) if point
            else finite_rows(table).all()):
        where = "at this operating point" if point else "along the omega grid"
        raise DomainError(f"the closed forms give nonfinite values {where}; the "
                          "config's parameters over- or underflow double precision")
    return drive, table


def evaluate_point(config: MachineConfig) -> ThermoPoint:
    """Full thermodynamic evaluation at one operating point.

    Computes the two dynamical-bath currents and the power from the
    closed forms, the mid-bath current from energy balance, and the entropy
    production rate together with its positive/negative split (the three
    balance terms are assigned to ``entropy_pos``/``entropy_neg`` by their
    individual signs).  DomainError if a value comes out nonfinite.
    """
    return ThermoPoint(*_drive_table(config)[1].tolist())


def evaluate_arrays(omega0, mass, drive_freq, hot_temperature, mid_temperature,
                    cold_temperature, hot_center, hot_width, hot_kappa,
                    cold_center, cold_width, cold_kappa) -> ThermoPoint:
    """Batched :func:`evaluate_point` over broadcastable parameter arrays.

    All arguments broadcast; scalars are allowed.  DomainError names the
    first argument that is not numeric, or has an element that fails the
    parameter rule or the drive rule (:mod:`tritherm.core`); the ordering
    is not checked.  DomainError names two arguments whose shapes do not
    broadcast together.  DomainError also if a point's values fail
    :func:`finite_rows`, giving the number of such points.  Returns a
    :class:`ThermoPoint` whose fields are arrays, with one entry per
    broadcast element.
    """
    args = dict(locals())   # the twelve arguments, in kernel order
    shapes = {}
    for name, value in args.items():
        value = check_real(value, name)
        if not parameter_ok(name, value).all():
            raise DomainError(f"{name} must be finite and {parameter_bound(name)}")
        shapes[name] = value.shape
    try:
        np.broadcast_shapes(*shapes.values())
    except ValueError:
        # shapes broadcast together if and only if every pair of them does:
        # name the first pair with two sizes, neither 1, on one axis
        for first, second in itertools.combinations(shapes, 2):
            if any(m != n and 1 not in (m, n) for m, n
                   in zip(shapes[first][::-1], shapes[second][::-1])):
                raise DomainError(f"{first} of shape {shapes[first]} and {second} of "
                                  f"shape {shapes[second]} do not broadcast "
                                  f"together") from None
        raise
    check_drive(drive_freq, omega0)
    table = thermo_batch(*args.values())
    finite = finite_rows(table)
    if not finite.all():
        raise DomainError(f"the closed forms give nonfinite values at "
                          f"{finite.size - np.count_nonzero(finite)} of {finite.size} "
                          f"points; their parameters over- or underflow")
    return ThermoPoint(*(table[..., c] for c in range(NCOLS)))
