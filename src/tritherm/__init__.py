"""Simulator for a driven three-terminal quantum thermal machine.

A harmonic-oscillator working medium couples to two harmonically modulated
Lorentzian baths and one static Ohmic bath.  The package evaluates the
period-averaged heat currents, power, and entropy production in the
weak-coupling regime, classifies the operating mode (pure, hybrid, or
wasteful), computes the exergy efficiency, maps parameter space in
sweeps, and locates thermal-transistor operating windows.

``import tritherm`` loads numpy and the point layers only (``core``,
``_kernels``, ``currents``, ``modes``), which is all an operating point
needs.  The transistor, sweep and search layers, the float-text exporter
and the CLI load on first access to one of their names or to the
submodule itself (``tritherm.run_sweep``, ``tritherm.search``).
"""

__version__ = "0.1.0"

from .core import (ConfigError, ConsistencyError, DomainError,
                   LorentzianBath, MachineConfig, OhmicBath, TrithermError,
                   WorkingMedium, apply_params, bose_occupation,
                   spectral_lorentzian)
from .currents import SIGN_ZERO_BAND, ThermoPoint, evaluate_arrays, evaluate_point
from .modes import HYBRID_MODES, ModeReport, OperatingMode, mode_report

# The public names each layer beyond the point layers defines
_LAZY_NAMES = {
    "transistor": ("TransistorPoint", "TransistorWindow", "TransistorTrace",
                   "transistor_point", "transistor_trace", "find_windows",
                   "windows_from_arrays"),
    "sweep": ("Axis", "SweepSpec", "SweepResult", "run_sweep", "resonance_lines",
              "mode_sequence_along_omega"),
    "search": ("VaryRange", "LockRule", "SearchSpec", "Candidate", "run_search"),
}
_LAZY_MODULES = (*_LAZY_NAMES, "_floattext", "cli")
_HOME = {name: module for module, names in _LAZY_NAMES.items() for name in names}

__all__ = [
    "__version__",
    "TrithermError", "ConfigError", "DomainError", "ConsistencyError",
    "WorkingMedium", "LorentzianBath", "OhmicBath", "MachineConfig",
    "apply_params", "bose_occupation", "spectral_lorentzian",
    "SIGN_ZERO_BAND", "ThermoPoint", "evaluate_point", "evaluate_arrays",
    "OperatingMode", "HYBRID_MODES", "ModeReport", "mode_report",
    *_HOME,
]


def __getattr__(name):
    """A lazy submodule or public name, imported on first access and then
    kept in the package namespace (PEP 562)."""
    from importlib import import_module
    if name in _LAZY_MODULES:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_LAZY_MODULES})
