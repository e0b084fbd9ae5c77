"""Simulator for a driven three-terminal quantum thermal machine.

A harmonic-oscillator working medium couples to two harmonically modulated
Lorentzian baths and one static Ohmic bath.  The package evaluates the
period-averaged heat currents, power, and entropy production in the
weak-coupling regime, classifies the operating mode (pure, hybrid, or
wasteful), computes the exergy efficiency, maps parameter space in
sweeps, and locates thermal-transistor operating windows.
"""

__version__ = "0.1.0"

from .core import (ConfigError, ConsistencyError, DomainError,
                   LorentzianBath, MachineConfig, OhmicBath, TrithermError,
                   WorkingMedium, apply_params, bose_occupation,
                   spectral_lorentzian, spectral_ohmic)
from .currents import (SIGN_ZERO_BAND, ThermoArrays, ThermoPoint,
                       evaluate_arrays, evaluate_point, heat_current,
                       total_power)
from .modes import (HYBRID_MODES, ModeReport, OperatingMode, classify,
                    classify_reduced, exergy_efficiency, mode_report)
from .search import Candidate, LockRule, SearchSpec, VaryRange, run_search
from .sweep import (Axis, MapCell, SweepResult, SweepSpec,
                    mode_sequence_along_omega, resonance_lines, run_sweep)
from .transistor import (TransistorPoint, TransistorTrace, TransistorWindow,
                         find_windows, transistor_point, transistor_trace,
                         windows_from_arrays)

__all__ = [
    "__version__",
    "TrithermError", "ConfigError", "DomainError", "ConsistencyError",
    "WorkingMedium", "LorentzianBath", "OhmicBath", "MachineConfig",
    "apply_params", "bose_occupation", "spectral_lorentzian", "spectral_ohmic",
    "SIGN_ZERO_BAND", "ThermoPoint", "ThermoArrays",
    "heat_current", "total_power", "evaluate_point", "evaluate_arrays",
    "OperatingMode", "HYBRID_MODES", "ModeReport",
    "classify", "classify_reduced", "exergy_efficiency", "mode_report",
    "TransistorPoint", "TransistorWindow", "TransistorTrace",
    "transistor_point", "transistor_trace", "find_windows", "windows_from_arrays",
    "Axis", "SweepSpec", "MapCell", "SweepResult",
    "run_sweep", "resonance_lines", "mode_sequence_along_omega",
    "VaryRange", "LockRule", "SearchSpec", "Candidate", "run_search",
]
