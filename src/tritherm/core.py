"""Configuration types, unit conventions, and bath spectral densities.

Everything is expressed in natural units: ``hbar = k_B = 1``, frequencies and
temperatures in units of the oscillator frequency ``omega0`` (default 1.0),
energy currents and power in units of ``omega0**2``.  The working medium is a
harmonic oscillator coupled to two harmonically modulated Lorentzian baths
("hot" and "cold") and one statically coupled Ohmic bath ("mid").
"""

from __future__ import annotations

import math
import operator
import reprlib
from dataclasses import MISSING, asdict, dataclass, field, replace
from functools import partial

import numpy as np

from ._kernels import amplitude, bose_pos, lorentzian

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
    "SECTIONS",
    "PARAM_PATHS",
    "apply_params",
]

# Largest count of grid points, samples or cells: numpy can size a float64
# array of MAX_COUNT rows of 16 columns, which covers every array built
# from one count (np.linspace, the Latin hypercube, the kernel tables).
MAX_COUNT = np.iinfo(np.intp).max // 128

# The transistor windows' default threshold on r and g, and the default drive
# grid (start, stop, count) of a transistor trace and of a search
DEFAULT_THRESHOLD = 10.0
DEFAULT_DRIVE_GRID = (0.02, 0.98, 481)

# Validity-warning thresholds (warnings, not errors; see regime_warnings)
KAPPA_WARN_THRESHOLD = 0.1
WIDTH_WARN_FRACTION = 0.5


class TrithermError(Exception):
    """Base class for all tritherm errors."""


class ConfigError(TrithermError, ValueError):
    """Invalid configuration value or structure.

    ``key``, where given, is the field at fault of the object that raised
    the error; :func:`construct` then names it by its dotted path.
    """

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class DomainError(TrithermError, ValueError):
    """Operation evaluated outside its supported domain."""


class ConsistencyError(TrithermError, RuntimeError):
    """Internal consistency violated (signals a bug or an invalid
    hand-constructed input, e.g. a sign pattern forbidden by the second law)."""


def number(value) -> float:
    """``float(value)`` for an int or float; TypeError for anything else,
    booleans and numeric strings included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)


def integer(value) -> int:
    """``operator.index(value)``, so an int or a numpy integer; TypeError
    for anything else, booleans, floats and numeric strings included."""
    if isinstance(value, bool):
        raise TypeError(value)
    return operator.index(value)


def string(value) -> str:
    """``value`` if it is a str; TypeError for anything else."""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def names(value) -> frozenset:
    """A list, tuple or set of strings as a frozenset; TypeError for
    anything else, a single string included."""
    if (isinstance(value, (list, tuple, set, frozenset))
            and all(isinstance(v, str) for v in value)):
        return frozenset(value)
    raise TypeError(value)


def check_real(value, name: str) -> np.ndarray:
    """``value`` as a float64 array, if it holds real numbers: Python or
    numpy ints and floats, one or an array of them; DomainError naming the
    argument ``name`` for anything else, strings and bools included."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be numeric, got {reprlib.repr(value)}")
    return array.astype(np.float64, copy=False)


def real_number(value, name: str) -> float:
    """``value`` as a Python float, if it is one real number (a 0-d
    :func:`check_real` value); DomainError naming the argument ``name`` for
    anything else, an array of any shape included."""
    array = check_real(value, name)
    if array.ndim:
        raise DomainError(f"{name} must be a single number, got an array of shape "
                          f"{array.shape}")
    return float(array)


def as_mapping(value, path: str) -> dict:
    """``value`` itself; ConfigError naming ``path`` unless it is a mapping."""
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be a mapping")
    return value


def check_fields(section: dict, known, path: str) -> None:
    """ConfigError naming the first key of ``section`` not in ``known``, so
    that a misspelled key is an error rather than a default."""
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown field: {path}.{key}")


def construct(factory, path: str, **kwargs):
    """``factory(**kwargs)``; a ConfigError that names its ``key`` is
    re-raised naming the dotted field ``path.key``."""
    try:
        return factory(**kwargs)
    except ConfigError as exc:
        if exc.key is None:
            raise
        raise ConfigError(f"field {path}.{exc.key}: {exc}") from None


def get_field(data: dict, key: str, path: str, kind, default=MISSING):
    """``kind(data[key])``, raising ConfigError that names ``path.key``.

    ``kind`` is one of :func:`number`, :func:`integer` and :func:`string`,
    or any callable raising TypeError or ValueError on a malformed value.
    """
    if key not in data:
        if default is MISSING:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"missing field: {where}")
        return default
    try:
        return kind(data[key])
    except (TypeError, ValueError):
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"field {where} has an invalid value "
                          f"{data[key]!r}") from None


# The reader of each annotated field type; annotations are strings here
# (``from __future__ import annotations``).
_KINDS = {"float": number, "int": integer, "str": string}


def from_fields(cls, data, path: str):
    """A ``cls`` record read from the mapping ``data`` at the dotted
    ``path``: each dataclass field by its annotated type (``float``,
    ``int`` or ``str``), an absent one taking its default.  ConfigError
    names a missing or malformed field first, then an unknown key, then a
    field the record rejects, each by its dotted path."""
    data = as_mapping(data, path)
    values = {name: get_field(data, name, path, _KINDS[f.type], f.default)
              for name, f in cls.__dataclass_fields__.items()}
    check_fields(data, values, path)
    return construct(cls, path, **values)


# The three rules of the machine's domain.  Each takes floats, where it is
# a few comparisons giving a bool, or arrays, elementwise; NaN fails each.

def parameter_ok(name: str, value):
    """The parameter rule for the field or dotted path ``name``: finite and
    > 0, or >= 0 for a coupling ``kappa`` (0 decouples its bath)."""
    return (value >= 0.0 if name.endswith("kappa") else value > 0.0) & (value < math.inf)


def parameter_bound(name: str) -> str:
    """The lower bound of the parameter rule for ``name``, as message text."""
    return ">= 0" if name.endswith("kappa") else "> 0"


def drive_ok(drive, omega0):
    """The drive rule ``0 < drive < omega0``: both sidebands ``omega0 +/-
    drive`` positive."""
    return (drive > 0.0) & (drive < omega0)


def ordering_ok(t_hot, t_mid, t_cold):
    """The ordering rule ``t_hot > t_mid > t_cold > 0`` that the mode
    taxonomy assumes."""
    return (t_hot > t_mid) & (t_mid > t_cold) & (t_cold > 0.0)


# The parameters that the validity warnings read, in the argument order of
# regime_warnings
REGIME_PATHS = ("wm.omega0", "hot.temperature", "hot.kappa", "hot.width", "cold.kappa",
                "cold.width")
_REGIME_VALUES = operator.attrgetter(*REGIME_PATHS)


def regime_warnings(w0, th, hot_kappa, hot_width, cold_kappa, cold_width) -> dict:
    """The validity warnings of the parameters of :data:`REGIME_PATHS`
    (perturbative couplings, underdamped widths, quantum regime), each
    keyed by the tuple of paths its rule reads.  Each rule is a threshold on
    one parameter or on a ratio of two.  Nothing else is checked, so a point
    that breaks the ordering or the drive rule still gets its warnings;
    nothing raises."""
    warnings = {}
    if w0 <= th:
        warnings["wm.omega0", "hot.temperature"] = (
            f"quantum regime violated: omega0 = {w0} <= hot.temperature = {th}")
    for name, kappa, width in (("hot", hot_kappa, hot_width),
                               ("cold", cold_kappa, cold_width)):
        if kappa >= KAPPA_WARN_THRESHOLD:
            warnings[f"{name}.kappa",] = (
                f"{name}.kappa = {kappa} >= {KAPPA_WARN_THRESHOLD}: outside "
                f"the perturbative regime, results are uncontrolled")
        if width >= WIDTH_WARN_FRACTION * w0:
            warnings[f"{name}.width", "wm.omega0"] = (
                f"{name}.width = {width} >= {WIDTH_WARN_FRACTION}*omega0: outside "
                f"the underdamped regime")
    return warnings


def grid_fault(param: str, start: float, stop: float, count: int, min_count: int):
    """None if ``np.linspace(start, stop, count)`` is a grid of at least
    ``min_count`` values of ``param`` (:func:`check_grid`'s rule), else the
    field at fault (start, stop or count) and why, as text to follow it."""
    if not min_count <= count <= MAX_COUNT:
        return "count", f"must be >= {min_count} and <= {MAX_COUNT}, got {count}"
    if not parameter_ok(param, start):
        why = parameter_bound(param) if math.isfinite(start) else "finite"
        return "start", f"must be {why}, got {start}"
    if not start < stop < math.inf:
        why = f"> {start}" if math.isfinite(stop) else "finite"
        return "stop", f"must be {why}, got {stop}"
    # only a step within 4 ulps of the stop can repeat a point
    if (count > 1 and (stop - start) / (count - 1) <= 4 * np.spacing(stop)
            and np.any(np.diff(np.linspace(start, stop, count)) <= 0)):
        return "count", (f"must be lower: the ends {start} and {stop} are too close "
                         f"for {count} points")


def check_grid(values, name: str) -> np.ndarray:
    """``values`` as a float64 array (:func:`check_real`) if it is a grid: 1D,
    non-empty, finite and strictly increasing; DomainError naming ``name``
    otherwise.  Finite ends and positive steps make every point finite."""
    grid = check_real(values, name)
    if not (grid.ndim == 1 and grid.size and np.isfinite(grid[[0, -1]]).all()
            and (np.diff(grid) > 0).all()):
        raise DomainError(f"{name} must be a non-empty, finite, strictly increasing 1D array")
    return grid


def _check_params(obj) -> None:
    """Check the float fields of a frozen config record by the parameter
    rule, naming the field, and store each as a float, so that an int given
    in code serializes like one read from a file."""
    for name in _PARAMS[type(obj)]:
        value = getattr(obj, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{name} must be a number, got {value!r}", name)
        if not parameter_ok(name, value):
            why = parameter_bound(name) if math.isfinite(value) else "finite"
            raise ConfigError(f"{name} must be {why}, got {value!r}", name)
        object.__setattr__(obj, name, float(value))


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
        _check_params(self)


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
        _check_params(self)


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
        _check_params(self)


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
        _check_params(self)

    @property
    def detuning(self) -> float:
        """Detuning of the two Lorentzian peaks, ``hot.center - cold.center``."""
        return self.hot.center - self.cold.center

    def validate(self) -> list[str]:
        """ConfigError unless the config passes the ordering rule and the
        drive rule; else the validity warnings (:func:`regime_warnings`):
        such configs evaluate, but may leave the regime in which the closed
        forms are controlled."""
        th, tm, tc = self.hot.temperature, self.mid.temperature, self.cold.temperature
        if not ordering_ok(th, tm, tc):
            raise ConfigError(
                f"temperature ordering violated: need hot.temperature > "
                f"mid.temperature > cold.temperature, got ({th}, {tm}, {tc})")
        w0 = self.wm.omega0
        if not drive_ok(self.drive_freq, w0):
            raise ConfigError(
                f"drive_freq must lie in (0, omega0) = (0, {w0}), got {self.drive_freq}")
        return list(regime_warnings(*_REGIME_VALUES(self)).values())

    def to_dict(self) -> dict:
        return {"drive_freq": self.drive_freq,
                **{name: asdict(getattr(self, name)) for name in SECTIONS}}

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        """Build a config from a nested mapping, naming offending fields.

        Each section of :data:`SECTIONS` accepts its own fields only, so a
        misspelled key is an error rather than a default; the top level
        stays open for sections such as ``search``."""
        data = as_mapping(data, "config")
        return cls(drive_freq=get_field(data, "drive_freq", "", number),
                   **{name: from_fields(record, data.get(name, {}), name)
                      for name, record in SECTIONS.items()})


# The record of each config section, in the order of a written config
SECTIONS = {"wm": WorkingMedium, "hot": LorentzianBath, "cold": LorentzianBath,
            "mid": OhmicBath}

# The float fields of each record, which _check_params checks; found once
# here, not on every construction.
_PARAMS = {cls: tuple(name for name, f in cls.__dataclass_fields__.items()
                      if f.type == "float")
           for cls in (*SECTIONS.values(), MachineConfig)}

# Dotted parameter paths accepted by overrides, sweeps, and searches.
PARAM_PATHS = ("drive_freq", *(f"{name}.{key}" for name, record in SECTIONS.items()
                               for key in record.__dataclass_fields__))


def apply_params(config: MachineConfig, params: dict) -> MachineConfig:
    """Return a copy of ``config`` with dotted-path parameters replaced.

    ``params`` maps paths from :data:`PARAM_PATHS` (e.g. ``"hot.kappa"``)
    to new numbers.  A value the section rejects (a bool or a string too)
    raises ConfigError naming its path (``field hot.kappa: ...``), as
    ``from_dict`` does.
    """
    updates = {}
    for path, value in params.items():
        if path not in PARAM_PATHS:
            raise ConfigError(f"unknown parameter: {path!r} "
                              f"(expected one of {', '.join(PARAM_PATHS)})")
        section, _, key = path.rpartition(".")
        updates.setdefault(section, {})[key] = value
    sections = {section: construct(partial(replace, getattr(config, section)), section,
                                   **changes)
                for section, changes in updates.items() if section}
    return replace(config, **updates.get("", {}), **sections)


def bose_occupation(x: float) -> float:
    """Bose occupation number ``1 / (exp(x) - 1)`` for ``x > 0``.

    Numerically stable: for ``x < 1e-5`` the Laurent expansion ``1/x - 1/2
    + x/12`` is used to avoid catastrophic cancellation.  It is the batch
    kernel's Bose function, so scalar and batched values agree bitwise.

    Raises
    ------
    DomainError
        Unless ``x`` is one real number > 0 (the occupation diverges at
        0); NaN and arrays included.
    """
    x = real_number(x, "x")
    if not x > 0.0:
        raise DomainError(f"bose_occupation requires x > 0, got {x}")
    with np.errstate(over="ignore"):
        return bose_pos(x)


def spectral_lorentzian(bath: LorentzianBath, wm: WorkingMedium, omega: float) -> float:
    """Lorentzian spectral density of a dynamically coupled bath at a
    finite frequency ``omega >= 0``, one real number taken as a Python
    float (DomainError otherwise, an array included; 0 at 0).

    Evaluates ``d * M * gamma * omega / ((omega^2 - center^2)^2 +
    gamma^2 omega^2)`` with ``d = kappa * center**2 * omega0**2``, by the
    kernel's own arithmetic, so it equals the kernel's value at a sideband
    to the last bit.
    """
    omega = real_number(omega, "omega")
    if not 0.0 <= omega < math.inf:
        raise DomainError(f"spectral density requires a finite omega >= 0, got {omega}")
    dmg = amplitude(wm.omega0, wm.mass, bath.center, bath.width, bath.kappa)
    return lorentzian(omega, bath.center, bath.width, dmg)[0]
