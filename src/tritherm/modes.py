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

# 27-entry lookup over (sh+1)*9 + (sc+1)*3 + (sp+1); -1 marks the forbidden octant
_LUT = np.full(27, _CODE_OF[OperatingMode.DEGENERATE], dtype=np.int8)
for _signs, _mode in _OCTANTS.items():
    _LUT[(_signs[0] + 1) * 9 + (_signs[1] + 1) * 3 + (_signs[2] + 1)] = _CODE_OF[_mode]
_LUT[(_FORBIDDEN[0] + 1) * 9 + (_FORBIDDEN[1] + 1) * 3 + (_FORBIDDEN[2] + 1)] = -1


def _sign(value: float) -> int:
    if abs(value) < SIGN_ZERO_BAND:
        return 0
    return 1 if value > 0.0 else -1


def _sign_codes(values: np.ndarray) -> np.ndarray:
    return np.where(np.abs(values) < SIGN_ZERO_BAND, 0,
                    np.where(values > 0.0, 1, -1)).astype(np.int64)


def _classify_triple(a: float, b: float, c: float) -> OperatingMode:
    signs = (_sign(a), _sign(b), _sign(c))
    if 0 in signs:
        return OperatingMode.DEGENERATE
    if signs == _FORBIDDEN:
        raise ConsistencyError(
            f"sign pattern (j_hot<0, j_cold>0, power<0) violates the second "
            f"law and can never come out of evaluate_point; got {signs} from "
            f"({a}, {b}, {c})")
    return _OCTANTS[signs]


def _classify_triple_arrays(a, b, c) -> np.ndarray:
    idx = (_sign_codes(a) + 1) * 9 + (_sign_codes(b) + 1) * 3 + (_sign_codes(c) + 1)
    codes = _LUT[idx]
    if np.any(codes < 0):
        n = int(np.sum(codes < 0))
        raise ConsistencyError(
            f"{n} point(s) fall in the entropically forbidden octant "
            f"(j_hot<0, j_cold>0, power<0)")
    return codes


def classify(point: ThermoPoint) -> OperatingMode:
    """Operating mode of a point from the signs of (j_hot, j_cold, power).

    Values within the 1e-14 zero band count as sign-indeterminate and yield
    ``DEGENERATE``.  The entropically forbidden octant raises
    :class:`ConsistencyError`.
    """
    return _classify_triple(point.j_hot, point.j_cold, point.power)


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
    a, b = _reduced_pair(point.j_hot, point.j_cold, point.j_mid, lorentzian)
    return _classify_triple(a, b, point.power)


def classify_arrays(j_hot, j_cold, power) -> np.ndarray:
    """Vectorized :func:`classify`; returns int8 codes into MODE_BY_CODE."""
    return _classify_triple_arrays(np.asarray(j_hot), np.asarray(j_cold),
                                   np.asarray(power))


def _reduced_pair(j_hot, j_cold, j_mid, lorentzian: str):
    # the static bath stands in for the decoupled Lorentzian one
    if lorentzian in ("hot", "h"):
        return j_hot, j_mid
    if lorentzian in ("cold", "c"):
        return j_mid, j_cold
    raise ValueError(f"lorentzian must be 'hot' or 'cold', got {lorentzian!r}")


def classify_coupled_arrays(hot_kappa, cold_kappa, j_hot, j_cold, j_mid,
                            power) -> np.ndarray:
    """Vectorized mode codes, the taxonomy chosen per element from the
    couplings, which broadcast against the currents (one pair per row of a
    2D block, say): the reduced two-terminal taxonomy of
    :func:`classify_reduced` where exactly one kappa is zero, as in
    :func:`mode_report`, and the full three-sign one elsewhere."""
    hot_on, cold_on = np.asarray(hot_kappa) > 0.0, np.asarray(cold_kappa) > 0.0
    return classify_arrays(np.where(cold_on & ~hot_on, j_mid, j_hot),
                           np.where(hot_on & ~cold_on, j_mid, j_cold), power)


def exergy_efficiency(point: ThermoPoint, temps: tuple[float, float, float]) -> float:
    """Exergy (second-law) efficiency from the entropy-balance step form.

    ``temps`` is ``(t_hot, t_mid, t_cold)``.  The three balance terms are
    split by sign into resource (positive) and useful (negative)
    contributions and the efficiency is ``-negative / positive``, which the
    second law bounds to [0, 1].  Zero when nothing useful happens
    (wasteful operation); rounding excursions within 1e-12 are clamped,
    anything larger raises :class:`ConsistencyError`.
    """
    t_hot, t_mid, t_cold = temps
    terms = (point.power,
             point.j_cold * (1.0 - t_mid / t_cold),
             point.j_hot * (1.0 - t_mid / t_hot))
    negative = sum(t for t in terms if t < 0.0)
    positive = sum(t for t in terms if t > 0.0)
    if positive == 0.0:
        if negative < 0.0:
            raise ConsistencyError(
                "entropy split has negative contributions but no positive "
                "ones; the entropy production rate would be negative")
        return 0.0
    phi = -negative / positive
    if phi > 1.0:
        if phi > 1.0 + PHI_CLAMP_BAND:
            raise ConsistencyError(
                f"exergy efficiency {phi} exceeds 1 beyond rounding; the "
                f"underlying point violates the second law")
        phi = 1.0
    return phi


def exergy_from_split(entropy_pos, entropy_neg) -> np.ndarray:
    """Vectorized efficiency from stored entropy splits.

    Rounding excursions above 1 within 1e-12 are clamped; larger values are
    passed through untouched so that invalid inputs remain visible.
    """
    entropy_pos = np.asarray(entropy_pos, dtype=np.float64)
    entropy_neg = np.asarray(entropy_neg, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(entropy_pos > 0.0, -entropy_neg / np.where(
            entropy_pos > 0.0, entropy_pos, 1.0), 0.0)
    return np.where((phi > 1.0) & (phi <= 1.0 + PHI_CLAMP_BAND), 1.0, phi)


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
    """Evaluate and classify one operating point.

    When exactly one Lorentzian coupling is zero the reduced two-terminal
    taxonomy is applied automatically (the full three-sign classification
    would be blanket-degenerate there).
    """
    point = evaluate_point(config)
    hot_on, cold_on = config.hot.kappa > 0.0, config.cold.kappa > 0.0
    mode = (classify(point) if hot_on == cold_on
            else classify_reduced(point, "hot" if hot_on else "cold"))
    temps = (config.hot.temperature, config.mid.temperature,
             config.cold.temperature)
    return ModeReport(point=point, mode=mode, exergy=exergy_efficiency(point, temps))
