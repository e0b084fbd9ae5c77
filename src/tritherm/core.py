"""Configuration types, unit conventions, and bath spectral densities.

Everything is expressed in natural units: ``hbar = k_B = 1``, frequencies and
temperatures in units of the oscillator frequency ``omega0`` (default 1.0),
energy currents and power in units of ``omega0**2``.  The working medium is a
harmonic oscillator coupled to two harmonically modulated Lorentzian baths
("hot" and "cold") and one statically coupled Ohmic bath ("mid").
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from ._kernels import bose_pos

__all__ = [
    "TrithermError",
    "ConfigError",
    "DomainError",
    "ConsistencyError",
    "WorkingMedium",
    "LorentzianBath",
    "OhmicBath",
    "MachineConfig",
    "bose_occupation",
    "spectral_lorentzian",
    "spectral_ohmic",
    "PARAM_PATHS",
    "apply_params",
]

# Validity-warning thresholds (warnings, not errors; see MachineConfig.validate)
KAPPA_WARN_THRESHOLD = 0.1
WIDTH_WARN_FRACTION = 0.5


class TrithermError(Exception):
    """Base class for all tritherm errors."""


class ConfigError(TrithermError, ValueError):
    """Invalid configuration value or structure."""


class DomainError(TrithermError, ValueError):
    """Operation evaluated outside its supported domain."""


class ConsistencyError(TrithermError, RuntimeError):
    """Internal consistency violated (signals a bug or an invalid
    hand-constructed input, e.g. a sign pattern forbidden by the second law)."""


def _positive(value, name, allow_zero=False):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if math.isnan(value) or math.isinf(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if allow_zero:
        if value < 0:
            raise ConfigError(f"{name} must be >= 0, got {value!r}")
    elif value <= 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    return float(value)


def _number(value) -> float:
    """``float(value)`` for an int or float; TypeError for anything else,
    booleans and numeric strings included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)


def as_mapping(value, path: str) -> dict:
    """``value`` itself; ConfigError naming ``path`` unless it is a mapping."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a mapping")
    return value


def get_field(data: dict, key: str, path: str, kind, default=MISSING):
    """``kind(data[key])``, raising ConfigError that names ``path.key``.

    Integer fields pass ``operator.index``, which rejects strings and floats.
    """
    where = f"{path}.{key}" if path else key
    if key not in data:
        if default is MISSING:
            raise ConfigError(f"missing field: {where}")
        return default
    try:
        return kind(data[key])
    except (TypeError, ValueError):
        raise ConfigError(f"field {where} has an invalid value "
                          f"{data[key]!r}") from None


@dataclass(frozen=True)
class WorkingMedium:
    """Harmonic-oscillator working medium.

    Attributes
    ----------
    omega0 : float
        Characteristic oscillator frequency.  Unit of all frequencies and
        temperatures; defaults to 1.0 (natural units).
    mass : float
        Oscillator mass, natural units.
    """

    omega0: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        _positive(self.omega0, "wm.omega0")
        _positive(self.mass, "wm.mass")


@dataclass(frozen=True)
class LorentzianBath:
    """Thermal bath with a Lorentzian spectral density.

    The spectral density is peaked at ``center`` with damping width ``width``
    and an amplitude parametrized by the dimensionless coupling ``kappa``
    (the dimensionful amplitude is ``kappa * center**2 * omega0**2``).
    ``kappa = 0`` denotes a decoupled bath (two-terminal reduction).

    Attributes
    ----------
    temperature : float
        Bath temperature (units of omega0).
    center : float
        Peak frequency of the spectral density (units of omega0).
    width : float
        Damping width of the peak (units of omega0).
    kappa : float
        Dimensionless coupling amplitude; perturbative regime is kappa << 1.
    """

    temperature: float
    center: float
    width: float
    kappa: float

    def __post_init__(self):
        _positive(self.temperature, "temperature")
        _positive(self.center, "center")
        _positive(self.width, "width")
        _positive(self.kappa, "kappa", allow_zero=True)

    def amplitude(self, omega0: float = 1.0) -> float:
        """Dimensionful spectral amplitude ``kappa * center**2 * omega0**2``."""
        return self.kappa * self.center ** 2 * omega0 ** 2


@dataclass(frozen=True)
class OhmicBath:
    """Statically coupled bath with a strictly Ohmic spectral density.

    ``gamma_m`` is the Ohmic damping strength.  In the weak-damping regime
    the period-averaged currents do not depend on it; it is retained for
    documentation of the physical setup only.
    """

    temperature: float
    gamma_m: float = 0.1

    def __post_init__(self):
        _positive(self.temperature, "temperature")
        _positive(self.gamma_m, "gamma_m")


@dataclass(frozen=True)
class MachineConfig:
    """Full parameter set of the driven three-terminal machine.

    The coupling modulation protocol is fixed: the hot and cold couplings are
    modulated in phase as ``cos(drive_freq * t)`` while the mid coupling is
    static.  The closed forms implemented in :mod:`tritherm.currents` assume
    this protocol; it is not configurable.

    Attributes
    ----------
    hot, cold : LorentzianBath
        The two dynamically coupled baths.
    mid : OhmicBath
        The statically coupled bath.
    wm : WorkingMedium
        The oscillator working medium.
    drive_freq : float
        Modulation frequency of the dynamical couplings; must satisfy
        ``0 < drive_freq < wm.omega0`` for evaluation.
    """

    hot: LorentzianBath
    cold: LorentzianBath
    mid: OhmicBath
    drive_freq: float
    wm: WorkingMedium = field(default_factory=WorkingMedium)

    def __post_init__(self):
        _positive(self.drive_freq, "drive_freq")

    @property
    def detuning(self) -> float:
        """Detuning of the two Lorentzian peaks, ``hot.center - cold.center``."""
        return self.hot.center - self.cold.center

    def validate(self, relax: bool = False,
                 kappa_warn: float = KAPPA_WARN_THRESHOLD,
                 width_warn: float = WIDTH_WARN_FRACTION) -> list[str]:
        """Check orderings and regime assumptions.

        Raises :class:`ConfigError` on hard violations (temperature ordering,
        drive frequency outside ``(0, omega0)``) and returns a list of
        validity warnings (perturbative couplings, underdamped widths,
        quantum regime), which evaluate fine but may leave the regime in
        which the closed forms are controlled.

        With ``relax=True`` equal temperatures are tolerated (test fixtures).
        """
        th, tm, tc = self.hot.temperature, self.mid.temperature, self.cold.temperature
        if relax:
            if not (th >= tm >= tc):
                raise ConfigError(
                    f"temperature ordering violated: need hot >= mid >= cold, "
                    f"got ({th}, {tm}, {tc})")
        elif not (th > tm > tc):
            raise ConfigError(
                f"temperature ordering violated: need hot.temperature > "
                f"mid.temperature > cold.temperature, got ({th}, {tm}, {tc})")
        w0 = self.wm.omega0
        if not (0.0 < self.drive_freq < w0):
            raise ConfigError(
                f"drive_freq must lie in (0, omega0) = (0, {w0}), got {self.drive_freq}")

        warnings = []
        if w0 <= th:
            warnings.append(
                f"quantum regime violated: omega0 = {w0} <= hot.temperature = {th}")
        for name, bath in (("hot", self.hot), ("cold", self.cold)):
            if bath.kappa >= kappa_warn:
                warnings.append(
                    f"{name}.kappa = {bath.kappa} >= {kappa_warn}: outside the "
                    f"perturbative regime, results are uncontrolled")
            if bath.width >= width_warn * w0:
                warnings.append(
                    f"{name}.width = {bath.width} >= {width_warn}*omega0: outside "
                    f"the underdamped regime")
        return warnings

    def to_dict(self) -> dict:
        return {
            "drive_freq": self.drive_freq,
            "wm": {"omega0": self.wm.omega0, "mass": self.wm.mass},
            "hot": {"temperature": self.hot.temperature, "center": self.hot.center,
                    "width": self.hot.width, "kappa": self.hot.kappa},
            "cold": {"temperature": self.cold.temperature, "center": self.cold.center,
                     "width": self.cold.width, "kappa": self.cold.kappa},
            "mid": {"temperature": self.mid.temperature, "gamma_m": self.mid.gamma_m},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        """Build a config from a nested mapping, naming offending fields."""
        data = as_mapping(data, "config")

        def build(factory, name):
            sec = as_mapping(data.get(name, {}), name)
            kwargs = {f.name: get_field(sec, f.name, name, _number, f.default)
                      for f in fields(factory)}
            try:
                return factory(**kwargs)
            except ConfigError as exc:
                raise ConfigError(f"{name}.{exc}") from None

        return cls(drive_freq=get_field(data, "drive_freq", "", _number),
                   hot=build(LorentzianBath, "hot"),
                   cold=build(LorentzianBath, "cold"),
                   mid=build(OhmicBath, "mid"), wm=build(WorkingMedium, "wm"))


# Dotted parameter paths accepted by overrides, sweeps, and searches.
PARAM_PATHS = (
    "drive_freq",
    "wm.omega0", "wm.mass",
    "hot.temperature", "hot.center", "hot.width", "hot.kappa",
    "cold.temperature", "cold.center", "cold.width", "cold.kappa",
    "mid.temperature", "mid.gamma_m",
)


def apply_params(config: MachineConfig, params: dict) -> MachineConfig:
    """Return a copy of ``config`` with dotted-path parameters replaced.

    ``params`` maps paths from :data:`PARAM_PATHS` (e.g. ``"hot.kappa"``)
    to new float values.
    """
    updates = {}
    for path, value in params.items():
        if path not in PARAM_PATHS:
            raise ConfigError(f"unknown parameter: {path!r} "
                              f"(expected one of {', '.join(PARAM_PATHS)})")
        if path == "drive_freq":
            updates["drive_freq"] = float(value)
        else:
            section, key = path.split(".")
            updates.setdefault(section, {})[key] = float(value)
    new = config
    if "drive_freq" in updates:
        new = replace(new, drive_freq=updates.pop("drive_freq"))
    for section, fields in updates.items():
        new = replace(new, **{section: replace(getattr(new, section), **fields)})
    return new


def bose_occupation(x: float) -> float:
    """Bose occupation number ``1 / (exp(x) - 1)``.

    Numerically stable over the full real line: for ``|x| < 1e-5`` the
    Laurent expansion ``1/x - 1/2 + x/12`` is used to avoid catastrophic
    cancellation, and negative arguments go through the reflection
    ``n_B(-x) = -1 - n_B(x)``, which therefore holds exactly.  Positive
    arguments go through the batch kernel's Bose function, so scalar and
    batched values agree bitwise.

    Parameters
    ----------
    x : float
        Dimensionless ratio (typically frequency / temperature); must be
        nonzero.

    Returns
    -------
    float
        The occupation number; negative (below -1) for x < 0.

    Raises
    ------
    DomainError
        If ``x == 0`` (diverging occupation).
    """
    if x == 0.0:
        raise DomainError("bose_occupation diverges at x = 0")
    if x < 0.0:
        return -1.0 - bose_occupation(-x)
    with np.errstate(over="ignore"):
        return float(bose_pos(np.float64(x)))


def spectral_lorentzian(bath: LorentzianBath, wm: WorkingMedium, omega: float) -> float:
    """Lorentzian spectral density of a dynamically coupled bath.

    Evaluates ``d * M * gamma * omega / ((omega^2 - center^2)^2 +
    gamma^2 omega^2)`` with ``d = kappa * center**2 * omega0**2``.

    Parameters
    ----------
    bath : LorentzianBath
    wm : WorkingMedium
    omega : float
        Evaluation frequency, ``omega >= 0``.

    Returns
    -------
    float
        The spectral density value (0 at ``omega = 0``).
    """
    if omega < 0:
        raise DomainError(f"spectral density requires omega >= 0, got {omega}")
    d = bath.amplitude(wm.omega0)
    num = d * wm.mass * bath.width * omega
    den = (omega * omega - bath.center * bath.center) ** 2 \
        + bath.width * bath.width * omega * omega
    return num / den


def spectral_ohmic(bath: OhmicBath, wm: WorkingMedium, omega: float) -> float:
    """Strictly Ohmic spectral density ``M * gamma_m * omega``."""
    if omega < 0:
        raise DomainError(f"spectral density requires omega >= 0, got {omega}")
    return wm.mass * bath.gamma_m * omega
