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

from dataclasses import dataclass

import numpy as np

from ._kernels import COL_JC, COL_JH, COL_P, NCOLS, thermo_batch
from .core import DomainError, MachineConfig

__all__ = [
    "SIGN_ZERO_BAND",
    "ThermoPoint",
    "ThermoArrays",
    "heat_current",
    "total_power",
    "evaluate_point",
    "evaluate_arrays",
    "config_args",
    "check_drive",
]

# Currents with |value| below this band are treated as exactly zero for
# sign classification (shared with tritherm.modes).
SIGN_ZERO_BAND = 1e-14


@dataclass(frozen=True)
class ThermoPoint:
    """Period-averaged thermodynamic quantities at one operating point.

    ``entropy_rate = entropy_pos + entropy_neg`` and
    ``power + j_hot + j_cold + j_mid = 0`` hold to rounding; the second law
    guarantees ``entropy_rate >= 0`` for any config with ordered
    temperatures.
    """

    j_hot: float
    j_cold: float
    j_mid: float
    power: float
    entropy_rate: float
    entropy_pos: float
    entropy_neg: float

    def to_dict(self) -> dict:
        return {
            "j_hot": self.j_hot, "j_cold": self.j_cold, "j_mid": self.j_mid,
            "power": self.power, "entropy_rate": self.entropy_rate,
            "entropy_pos": self.entropy_pos, "entropy_neg": self.entropy_neg,
        }


@dataclass(frozen=True)
class ThermoArrays:
    """Columnar result of a batched evaluation (see :func:`evaluate_arrays`)."""

    j_hot: np.ndarray
    j_cold: np.ndarray
    j_mid: np.ndarray
    power: np.ndarray
    entropy_rate: np.ndarray
    entropy_pos: np.ndarray
    entropy_neg: np.ndarray

    @classmethod
    def from_table(cls, table: np.ndarray) -> "ThermoArrays":
        # fields are declared in kernel column order
        return cls(*(table[..., c] for c in range(NCOLS)))


def config_args(config: MachineConfig) -> tuple[float, ...]:
    """The twelve kernel arguments of a config, in batch-call order."""
    return (config.wm.omega0, config.wm.mass, config.drive_freq,
            config.hot.temperature, config.mid.temperature, config.cold.temperature,
            config.hot.center, config.hot.width, config.hot.kappa,
            config.cold.center, config.cold.width, config.cold.kappa)


def check_drive(drive_freq, omega0) -> None:
    """Raise DomainError unless every drive frequency lies in (0, omega0)."""
    drive_freq = np.asarray(drive_freq, dtype=np.float64)
    if np.any(drive_freq <= 0.0) or np.any(drive_freq >= omega0):
        raise DomainError(
            f"drive_freq outside the supported driving range (0, omega0) = "
            f"(0, {omega0}); both sideband frequencies must stay positive")


def _evaluate_row(config: MachineConfig) -> np.ndarray:
    check_drive(config.drive_freq, config.wm.omega0)
    return thermo_batch(*[np.array([a]) for a in config_args(config)])[0]


def heat_current(config: MachineConfig, which: str = "hot") -> float:
    """Period-averaged heat current from one dynamically coupled bath.

    Parameters
    ----------
    config : MachineConfig
    which : {"hot", "h", "cold", "c"}
        Bath selector.

    Returns
    -------
    float
        Heat current in units of ``omega0**2``; positive when heat flows
        from the bath toward the working medium.
    """
    row = _evaluate_row(config)
    if which in ("hot", "h"):
        return float(row[COL_JH])
    if which in ("cold", "c"):
        return float(row[COL_JC])
    raise ValueError(f"bath selector must be 'hot' or 'cold', got {which!r}")


def total_power(config: MachineConfig) -> float:
    """Period-averaged total power absorbed through the driven couplings.

    Positive when work is performed on the working medium; vanishes
    linearly as ``drive_freq -> 0``.
    """
    return float(_evaluate_row(config)[COL_P])


def evaluate_point(config: MachineConfig) -> ThermoPoint:
    """Full thermodynamic evaluation at one operating point.

    Computes the two dynamical-bath currents and the power from the
    closed forms, the mid-bath current from energy balance, and the entropy
    production rate together with its positive/negative split (the three
    balance terms are assigned to ``entropy_pos``/``entropy_neg`` by their
    individual signs).
    """
    # ThermoPoint fields are declared in kernel column order
    return ThermoPoint(*(float(v) for v in _evaluate_row(config)))


def evaluate_arrays(omega0, mass, drive_freq, hot_temperature, mid_temperature,
                    cold_temperature, hot_center, hot_width, hot_kappa,
                    cold_center, cold_width, cold_kappa) -> ThermoArrays:
    """Batched :func:`evaluate_point` over broadcastable parameter arrays.

    All arguments broadcast; scalars are allowed.  Every element must
    satisfy ``0 < drive_freq < omega0`` (checked) and positive temperatures
    (caller's responsibility).  Returns a :class:`ThermoArrays` with one
    entry per broadcast element.
    """
    check_drive(drive_freq, omega0)
    table = thermo_batch(omega0, mass, drive_freq, hot_temperature,
                         mid_temperature, cold_temperature, hot_center,
                         hot_width, hot_kappa, cold_center, cold_width,
                         cold_kappa)
    return ThermoArrays.from_table(table)
