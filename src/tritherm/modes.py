"""Operating-mode classification and exergy (second-law) efficiency.

A machine performs up to three useful tasks, each flipping the sign of one
entropy-balance term negative: producing work (``power < 0``), refrigerating
the cold bath (``j_cold > 0``), and pumping heat into the hot bath
(``j_hot < 0``).  The mode label is the set of active useful tasks; the empty
set is the "wasteful" mode (hot heat dumped downhill while absorbing work).
The sign pattern (j_hot < 0, j_cold > 0, power < 0) would make all three
entropy terms negative and is forbidden by the second law.

For a machine with one Lorentzian coupling switched off (kappa = 0) the
corresponding current vanishes identically and the three-sign taxonomy
degenerates; the reduced two-terminal taxonomy (:func:`classify_reduced`)
classifies on the remaining Lorentzian current, the mid-bath current, and
the power, with the static bath taking over the missing role.  Only four
modes are then reachable: engine, heat_pump, refrigerator_pump, wasteful.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._kernels import entropy_split
from .core import ConsistencyError, MachineConfig
from .currents import SIGN_ZERO_BAND, ThermoPoint, evaluate_point

__all__ = [
    "OperatingMode",
    "ModeReport",
    "classify",
    "classify_reduced",
    "classify_arrays",
    "classify_coupled_arrays",
    "exergy_efficiency",
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


def _sign_index(values):
    return np.add(np.greater(values, -SIGN_ZERO_BAND),
                  np.greater_equal(values, SIGN_ZERO_BAND), dtype=np.intp)


def classify_coupled_arrays(hot_kappa, cold_kappa, j_hot, j_cold, j_mid,
                            power) -> np.ndarray:
    """Vectorized mode codes into MODE_BY_CODE, the taxonomy chosen per
    element from the couplings, which broadcast against the currents (one
    pair per row of a 2D block, say): the reduced two-terminal taxonomy of
    :func:`classify_reduced` where exactly one kappa is zero, as in
    :func:`mode_report`, and the full three-sign one elsewhere.

    Values within the 1e-14 zero band are sign-indeterminate and yield
    ``DEGENERATE``; the entropically forbidden octant raises
    :class:`ConsistencyError`.
    """
    hot_on, cold_on = hot_kappa > 0.0, cold_kappa > 0.0
    # the static bath stands in for a decoupled Lorentzian one
    a = np.where(cold_on > hot_on, j_mid, j_hot)[()]
    b = np.where(hot_on > cold_on, j_mid, j_cold)[()]
    codes = _LUT[_sign_index(a) * 9 + _sign_index(b) * 3 + _sign_index(power)]
    if (codes < 0).any():
        raise ConsistencyError(
            f"{np.count_nonzero(codes < 0)} point(s) fall in the entropically "
            f"forbidden octant (j_hot<0, j_cold>0, power<0)")
    return codes


def classify_arrays(j_hot, j_cold, power) -> np.ndarray:
    """Vectorized :func:`classify`; returns int8 codes into MODE_BY_CODE."""
    # with both couplings on, j_mid is never read
    return classify_coupled_arrays(1.0, 1.0, j_hot, j_cold, 0.0, power)


def classify(point: ThermoPoint) -> OperatingMode:
    """Operating mode of a point from the signs of (j_hot, j_cold, power).

    Values within the 1e-14 zero band count as sign-indeterminate and yield
    ``DEGENERATE``.  The entropically forbidden octant raises
    :class:`ConsistencyError`.
    """
    return MODE_BY_CODE[classify_arrays(point.j_hot, point.j_cold, point.power)]


# kappa pair that selects the reduced taxonomy of each Lorentzian side
_REDUCED_KAPPAS = {"hot": (1.0, 0.0), "h": (1.0, 0.0),
                   "cold": (0.0, 1.0), "c": (0.0, 1.0)}


def classify_reduced(point: ThermoPoint, lorentzian: str = "hot") -> OperatingMode:
    """Two-terminal mode of a machine with one Lorentzian coupling off.

    ``lorentzian="hot"`` (cold coupling off): classify on
    ``(j_hot, j_mid, power)`` with the static bath as the cold side.
    ``lorentzian="cold"`` (hot coupling off): classify on
    ``(j_mid, j_cold, power)`` with the static bath as the hot side.

    Some two-terminal literature names these modes differently:
    "refrigerator" for refrigerator_pump, "dissipator" for heat_pump, and
    "accelerator" for wasteful.  Only the labels in :class:`OperatingMode`
    are ever emitted.
    """
    if lorentzian not in _REDUCED_KAPPAS:
        raise ValueError(f"lorentzian must be 'hot' or 'cold', got {lorentzian!r}")
    return MODE_BY_CODE[classify_coupled_arrays(
        *_REDUCED_KAPPAS[lorentzian], point.j_hot, point.j_cold, point.j_mid,
        point.power)]


def exergy_from_split(entropy_pos, entropy_neg) -> np.ndarray:
    """Exergy (second-law) efficiency ``-entropy_neg / entropy_pos`` from
    the positive and negative splits of the entropy balance.

    The second law bounds it to [0, 1].  It is ``+0.0`` where no task is
    useful; rounding excursions within 1e-12 above 1 are clamped to 1.
    Anything beyond that band, or negative terms without positive ones
    (a negative entropy production rate), raises
    :class:`ConsistencyError`.
    """
    pos = np.asarray(entropy_pos, dtype=np.float64)
    neg = np.asarray(entropy_neg, dtype=np.float64)
    resource = pos > 0.0
    if ((neg < 0.0) > resource).any():
        raise ConsistencyError(
            "entropy split has negative contributions but no positive "
            "ones; the entropy production rate would be negative")
    # no resource term means no useful one (checked above): dividing by inf
    # gives 0, and 0.0 - x keeps every nonzero x but turns -0.0 into +0.0
    phi = 0.0 - neg / np.where(resource, pos, np.inf)
    over = phi > 1.0
    if over.any():
        if (phi > 1.0 + PHI_CLAMP_BAND).any():
            raise ConsistencyError(
                f"exergy efficiency {phi.max()} exceeds 1 beyond rounding; "
                f"the underlying point violates the second law")
        phi = np.where(over, 1.0, phi)
    return phi


def exergy_efficiency(point: ThermoPoint, temps: tuple[float, float, float]) -> float:
    """Exergy efficiency of a point at ``temps = (t_hot, t_mid, t_cold)``:
    :func:`exergy_from_split` of the entropy split the kernel would store
    for its currents."""
    _, pos, neg = entropy_split(point.power, point.j_hot, point.j_cold, *temps)
    return float(exergy_from_split(pos, neg))


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
    comes out NaN, as :func:`evaluate_point` raises.
    """
    point = evaluate_point(config)
    code = classify_coupled_arrays(config.hot.kappa, config.cold.kappa,
                                   point.j_hot, point.j_cold, point.j_mid,
                                   point.power)
    phi = exergy_from_split(point.entropy_pos, point.entropy_neg)
    return ModeReport(point=point, mode=MODE_BY_CODE[code], exergy=float(phi))
