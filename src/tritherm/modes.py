"""Operating-mode classification and exergy (second-law) efficiency.

A machine performs up to three useful tasks, each flipping the sign of one
entropy-balance term negative: producing work (``power < 0``), refrigerating
the cold bath (``j_cold > 0``), and pumping heat into the hot bath
(``j_hot < 0``).  The mode label is the set of active useful tasks; the empty
set is the "wasteful" mode (hot heat dumped downhill while absorbing work).
The sign pattern (j_hot < 0, j_cold > 0, power < 0) would make all three
entropy terms negative and is forbidden by the second law.

With one Lorentzian coupling off (kappa = 0) its current vanishes and the
three-sign taxonomy degenerates.  :func:`classify_coupled_arrays` then
classifies ``(j_hot, j_mid, power)`` (cold coupling off) or ``(j_mid,
j_cold, power)`` (hot coupling off), the static bath taking the missing
role.  Only engine, heat_pump, refrigerator_pump and wasteful are then
reachable; some two-terminal literature calls the last three
"dissipator", "refrigerator" and "accelerator".

One point is classified and scored by the kernel's one-point rule: when
every argument is a Python float, as :func:`mode_report` passes them, the
sign indices, the mode code, the clamp and ``phi`` are computed in Python
float arithmetic, the same IEEE-754 operations as numpy's, so the bits,
errors and return types (``np.int8``, ``np.float64``) equal the array
path's.  That cut ``mode_report`` from about 33 to 14 us on one CPU of a
2-vCPU Xeon (Python 3.11, numpy 2.4), 11 us of it the kernel row.  Arrays
build the sign index in place in int8, and scalar couplings select no
currents.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import COL_JC, COL_JH, COL_JM, COL_P
from .core import ConsistencyError, DomainError, MachineConfig, check_real
from .currents import SIGN_ZERO_BAND, ThermoPoint, evaluate_point

__all__ = [
    "OperatingMode",
    "ModeReport",
    "classify_arrays",
    "classify_coupled_arrays",
    "classify_table",
    "exergy_from_split",
    "mode_report",
    "MODE_BY_CODE",
    "ERROR_CODE",
]

PHI_CLAMP_BAND = 1e-12


class OperatingMode(enum.Enum):
    """Operating-mode labels; values are the stable serialization strings."""

    ENGINE = "engine"
    REFRIGERATOR = "refrigerator"
    HEAT_PUMP = "heat_pump"
    ENGINE_REFRIGERATOR = "engine_refrigerator"
    ENGINE_PUMP = "engine_pump"
    REFRIGERATOR_PUMP = "refrigerator_pump"
    WASTEFUL = "wasteful"
    DEGENERATE = "degenerate"

    def __str__(self):
        return self.value


HYBRID_MODES = frozenset({OperatingMode.ENGINE_REFRIGERATOR,
                          OperatingMode.ENGINE_PUMP,
                          OperatingMode.REFRIGERATOR_PUMP})

# (sign j_hot, sign j_cold, sign power) -> mode; the missing octant
# (-1, +1, -1) is entropically forbidden.
_OCTANTS = {
    (+1, -1, -1): OperatingMode.ENGINE,
    (+1, +1, +1): OperatingMode.REFRIGERATOR,
    (-1, -1, +1): OperatingMode.HEAT_PUMP,
    (+1, +1, -1): OperatingMode.ENGINE_REFRIGERATOR,
    (-1, -1, -1): OperatingMode.ENGINE_PUMP,
    (-1, +1, +1): OperatingMode.REFRIGERATOR_PUMP,
    (+1, -1, +1): OperatingMode.WASTEFUL,
}
_FORBIDDEN = (-1, +1, -1)

# integer codes for columnar storage; order matches OperatingMode definition
MODE_BY_CODE = tuple(OperatingMode) + ("error",)
ERROR_CODE = len(OperatingMode)
_CODE_OF = {mode: i for i, mode in enumerate(OperatingMode)}

# 27-entry lookup over 9 a + 3 b + c, each sign index 0 (below the zero
# band), 1 (inside) or 2 (above); -1 marks the forbidden octant
_LUT = np.full(27, _CODE_OF[OperatingMode.DEGENERATE], dtype=np.int8)
for _signs, _mode in _OCTANTS.items():
    _LUT[(_signs[0] + 1) * 9 + (_signs[1] + 1) * 3 + (_signs[2] + 1)] = _CODE_OF[_mode]
_LUT[(_FORBIDDEN[0] + 1) * 9 + (_FORBIDDEN[1] + 1) * 3 + (_FORBIDDEN[2] + 1)] = -1


def _check_finite(**named) -> None:
    """DomainError naming the first argument not numeric or not finite."""
    for name, value in named.items():
        finite = np.isfinite(check_real(value, name))
        if not finite.all():
            raise DomainError(f"{name} must be finite, got "
                              f"{finite.size - np.count_nonzero(finite)} nonfinite value(s)")


def _classify(hot_kappa, cold_kappa, j_hot, j_cold, j_mid, power):
    """:func:`classify_coupled_arrays` without its finiteness check: a NaN
    row, as a sweep's error cells hold, gets a code (overwritten there)."""
    hot_on, cold_on = hot_kappa > 0.0, cold_kappa > 0.0
    # the static bath stands in for a decoupled Lorentzian one; scalar
    # couplings pick one taxonomy for all points, with no select
    if isinstance(hot_on, np.ndarray) or isinstance(cold_on, np.ndarray):
        a = np.where(cold_on > hot_on, j_mid, j_hot)[()]
        b = np.where(hot_on > cold_on, j_mid, j_cold)[()]
    else:
        a = j_mid if cold_on > hot_on else j_hot
        b = j_mid if hot_on > cold_on else j_cold
    if type(a) is float and type(b) is float and type(power) is float:
        code = _LUT[((a > -SIGN_ZERO_BAND) + (a >= SIGN_ZERO_BAND)) * 9
                    + ((b > -SIGN_ZERO_BAND) + (b >= SIGN_ZERO_BAND)) * 3
                    + (power > -SIGN_ZERO_BAND) + (power >= SIGN_ZERO_BAND)]
        if code >= 0:   # else the code below raises, with the same message
            return code
    # 9 a + 3 b + c in place, one int8 per point
    index = np.zeros(np.broadcast(a, b, power).shape, dtype=np.int8)
    for values in (a, b, power):
        index *= 3
        index += values > -SIGN_ZERO_BAND
        index += values >= SIGN_ZERO_BAND
    codes = _LUT.take(index)
    if (codes < 0).any():
        raise ConsistencyError(
            f"{np.count_nonzero(codes < 0)} point(s) fall in the entropically "
            f"forbidden octant (j_hot<0, j_cold>0, power<0)")
    return codes


def classify_coupled_arrays(hot_kappa, cold_kappa, j_hot, j_cold, j_mid,
                            power) -> np.ndarray:
    """Vectorized mode codes into MODE_BY_CODE, the taxonomy chosen per
    element from the couplings, which broadcast against the currents (one
    pair per row of a 2D block, say): the reduced two-terminal taxonomy
    where exactly one kappa is zero, as in :func:`mode_report`, and the
    full three-sign one elsewhere.

    Values within the 1e-14 zero band are sign-indeterminate and yield
    ``DEGENERATE``; the entropically forbidden octant raises
    :class:`ConsistencyError`.  DomainError names the first argument that
    is not numeric (:func:`tritherm.core.check_real`) or not finite.
    """
    _check_finite(hot_kappa=hot_kappa, cold_kappa=cold_kappa, j_hot=j_hot,
                  j_cold=j_cold, j_mid=j_mid, power=power)
    return _classify(hot_kappa, cold_kappa, j_hot, j_cold, j_mid, power)


def classify_table(table, hot_kappa, cold_kappa) -> np.ndarray:
    """Mode codes of each point of a kernel table, by
    :func:`classify_coupled_arrays` on its current and power columns; a
    NaN row, a blanked error point, is not checked and gets some code."""
    return _classify(hot_kappa, cold_kappa, *(
        table[..., c] for c in (COL_JH, COL_JC, COL_JM, COL_P)))


def classify_arrays(j_hot, j_cold, power) -> np.ndarray:
    """Mode codes into MODE_BY_CODE of the full three-sign taxonomy, from
    the signs of ``(j_hot, j_cold, power)``."""
    # with both couplings on, j_mid is never read
    return classify_coupled_arrays(1.0, 1.0, j_hot, j_cold, 0.0, power)


def _exergy(entropy_pos, entropy_neg):
    """:func:`exergy_from_split` without its finiteness check: a NaN split
    gives a NaN ``phi``."""
    # no resource term means no useful one (checked below): dividing by inf
    # gives 0, and 0.0 - x keeps every nonzero x but turns -0.0 into +0.0
    if type(entropy_pos) is float and type(entropy_neg) is float:
        resource = entropy_pos > 0.0
        phi = 0.0 - entropy_neg / (entropy_pos if resource else math.inf)
        if phi <= 1.0 and (resource or not entropy_neg < 0.0):
            return np.float64(phi)
        # a clamp, an error or NaN: the code below, with its messages
    pos = np.asarray(entropy_pos, dtype=np.float64)
    neg = np.asarray(entropy_neg, dtype=np.float64)
    resource = pos > 0.0
    if ((neg < 0.0) > resource).any():
        raise ConsistencyError(
            "entropy split has negative contributions but no positive "
            "ones; the entropy production rate would be negative")
    phi = 0.0 - neg / np.where(resource, pos, np.inf)
    over = phi > 1.0
    if over.any():
        if (phi > 1.0 + PHI_CLAMP_BAND).any():
            raise ConsistencyError(
                f"exergy efficiency {phi.max()} exceeds 1 beyond rounding; "
                f"the underlying point violates the second law")
        phi = np.where(over, 1.0, phi)
    return phi


def exergy_from_split(entropy_pos, entropy_neg) -> np.ndarray:
    """Exergy (second-law) efficiency ``-entropy_neg / entropy_pos`` from
    the positive and negative splits of the entropy balance.

    The second law bounds it to [0, 1].  It is ``+0.0`` where no task is
    useful; rounding excursions within 1e-12 above 1 are clamped to 1.
    Anything beyond that band, or negative terms without positive ones
    (a negative entropy production rate), raises
    :class:`ConsistencyError`.  DomainError names the first argument that
    is not numeric (:func:`tritherm.core.check_real`) or not finite.
    """
    _check_finite(entropy_pos=entropy_pos, entropy_neg=entropy_neg)
    return _exergy(entropy_pos, entropy_neg)


@dataclass(frozen=True)
class ModeReport:
    """A classified operating point: thermo values, mode label, efficiency."""

    point: ThermoPoint
    mode: OperatingMode
    exergy: float

    def to_dict(self) -> dict:
        return {"point": self.point.to_dict(), "mode": self.mode.value,
                "exergy": self.exergy}


def mode_report(config: MachineConfig) -> ModeReport:
    """Evaluate and classify one operating point: its kernel row, classified
    and reduced to ``phi`` exactly as a sweep cell at the same parameters.

    When exactly one Lorentzian coupling is zero the reduced two-terminal
    taxonomy is applied automatically (the full three-sign classification
    would be blanket-degenerate there).  DomainError if a kernel value
    comes out nonfinite, as :func:`evaluate_point` raises.
    """
    point = evaluate_point(config)
    code = _classify(config.hot.kappa, config.cold.kappa, point.j_hot,
                     point.j_cold, point.j_mid, point.power)
    phi = _exergy(point.entropy_pos, point.entropy_neg)
    return ModeReport(point=point, mode=MODE_BY_CODE[code], exergy=float(phi))
