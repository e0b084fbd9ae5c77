"""Output checks shared by the workloads.

Each returns a list of failure messages; an empty list means the output
passed.  The laws are those the program guarantees:

* first law: ``P + J_hot + J_cold + J_mid`` is zero to within
  ``FIRST_LAW_ULPS`` units in the last place of the largest of the four;
* second law: ``entropy_rate >= 0``;
* the sign pattern ``J_hot < 0, J_cold > 0, P < 0`` (all three useful tasks
  at once) never occurs.
"""

from __future__ import annotations

import numpy as np
from tritherm import SIGN_ZERO_BAND

FIRST_LAW_ULPS = 4
ORACLE_RTOL = 1e-12


def thermo_laws(power, j_hot, j_cold, j_mid, entropy_rate=None, where="") -> list:
    p, jh, jc, jm = (np.asarray(a, dtype=np.float64)
                     for a in (power, j_hot, j_cold, j_mid))
    problems = []
    residual = ((p + jh) + jc) + jm
    scale = np.maximum.reduce([np.abs(p), np.abs(jh), np.abs(jc), np.abs(jm)])
    bad = ~(np.abs(residual) <= FIRST_LAW_ULPS * np.spacing(scale))
    if np.any(bad):
        problems.append(f"{where}first law broken at {int(bad.sum())} point(s)")
    if entropy_rate is not None:
        s = np.asarray(entropy_rate, dtype=np.float64)
        bad = ~(s >= 0.0)
        if np.any(bad):
            problems.append(f"{where}entropy_rate < 0 at {int(bad.sum())} point(s)")
    forbidden = (jh < -SIGN_ZERO_BAND) & (jc > SIGN_ZERO_BAND) & (p < -SIGN_ZERO_BAND)
    if np.any(forbidden):
        problems.append(f"{where}forbidden octant at {int(forbidden.sum())} point(s)")
    return problems


def oracle(point, record) -> list:
    """Compare a ThermoPoint with one mpmath reference set to ORACLE_RTOL."""
    problems = []
    for key in ("j_hot", "j_cold", "power", "j_mid", "entropy_rate"):
        expected = float(record[key])
        got = getattr(point, key)
        err = abs(got - expected) / abs(expected) if expected else abs(got)
        if not err <= ORACLE_RTOL:
            problems.append(f"oracle {key}: relative error {err:.3e}")
    return problems
