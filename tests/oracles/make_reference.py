"""Regenerate tests/data/reference_currents.json and reference_slopes.json.

Independent arbitrary-precision evaluation (mpmath, 60 digits) of the
two-sideband closed forms for 25 pre-registered parameter sets, and of the
drive derivatives d j_hot/dW and d power/dW at the same sets by numerical
differentiation of those closed forms (``mpmath.diff``).  This script
is the oracle side of the dual route: it shares no code with the package and
was written and run before the package implementation.  Each record carries
the relative error of a plain double-precision shadow evaluation so that the
conditioning of every set is on record (all are comfortably below 1e-12).

Run from the repository root:

    python tests/oracles/make_reference.py
"""

import json
import pathlib

import numpy as np
from mpmath import mp, mpf, expm1

mp.dps = 60

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
OUT = DATA / "reference_currents.json"
SLOPES_OUT = DATA / "reference_slopes.json"


def nB(x):
    return 1 / expm1(x)


def lor(w, wn, gn, kn, w0, M):
    d = kn * wn * wn * w0 * w0
    return d * M * gn * w / ((w * w - wn * wn) ** 2 + gn * gn * w * w)


def currents_mp(w0, M, W, Th, Tm, Tc, wh, gh, kh, wc, gc, kc):
    w0, M, Th, Tm, Tc, wh, gh, kh, wc, gc, kc = map(
        mpf, map(str, (w0, M, Th, Tm, Tc, wh, gh, kh, wc, gc, kc)))
    W = W if isinstance(W, mpf) else mpf(str(W))
    nm = nB(w0 / Tm)
    pref = 1 / (4 * M * w0)
    J = {}
    P = mpf(0)
    for name, (wn, gn, kn, Tn) in (("h", (wh, gh, kh, Th)), ("c", (wc, gc, kc, Tc))):
        s = mpf(0)
        for p in (1, -1):
            w = w0 + p * W
            term = lor(w, wn, gn, kn, w0, M) * (nB(w / Tn) - nm)
            s += w * term
            P += -W * pref * p * term
        J[name] = pref * s
    jm = -P - J["h"] - J["c"]
    t1 = P / Tm
    t2 = (J["c"] / Tm) * (1 - Tm / Tc)
    t3 = (J["h"] / Tm) * (1 - Tm / Th)
    return J["h"], J["c"], P, jm, t1 + t2 + t3


def slopes_mp(*params):
    """d j_hot/dW and d power/dW by mpmath's numerical differentiation."""
    def at(W, k):
        return currents_mp(*params[:2], W, *params[3:])[k]
    W = mpf(str(params[2]))
    return mp.diff(lambda w: at(w, 0), W), mp.diff(lambda w: at(w, 2), W)


def currents_double(w0, M, W, Th, Tm, Tc, wh, gh, kh, wc, gc, kc):
    nm = 1.0 / np.expm1(w0 / Tm)
    pref = 1.0 / (4 * M * w0)
    out = []
    P = 0.0
    for (wn, gn, kn, Tn) in ((wh, gh, kh, Th), (wc, gc, kc, Tc)):
        d = kn * wn * wn * w0 * w0
        s = 0.0
        for p in (1, -1):
            w = w0 + p * W
            J = d * M * gn * w / ((w * w - wn * wn) ** 2 + gn * gn * w * w)
            term = J * (1.0 / np.expm1(w / Tn) - nm)
            s += w * term
            P += -W * pref * p * term
        out.append(pref * s)
    return out[0], out[1], P


# 25 pre-registered parameter sets: spread over drive, temperatures,
# centers, widths, couplings; includes off-unit omega0/mass and baths
# switched off entirely.
SETS = [
    # (omega0, M, drive, Th, Tm, Tc, wh, gh, kh, wc, gc, kc)
    (1.0, 1.0, 0.5, 0.8, 0.5, 0.2, 1.5, 0.05, 0.01, 0.75, 0.05, 0.01),
    (1.0, 1.0, 0.1, 0.8, 0.5, 0.2, 1.1, 0.05, 0.02, 0.9, 0.05, 0.02),
    (1.0, 1.0, 0.9, 0.8, 0.5, 0.2, 1.9, 0.05, 0.02, 1.0, 0.03, 0.015),
    (1.0, 1.0, 0.45, 0.6, 0.3, 0.29, 1.45, 0.05, 0.01, 1.45, 0.05, 0.0),
    (1.0, 1.0, 0.35, 0.7, 0.4, 0.1, 1.2, 0.04, 0.0, 0.65, 0.06, 0.008),
    (1.0, 2.0, 0.5, 0.8, 0.5, 0.2, 1.5, 0.05, 0.01, 0.75, 0.05, 0.01),
    (2.0, 1.0, 0.9, 1.6, 1.0, 0.4, 3.1, 0.1, 0.01, 1.3, 0.09, 0.012),
    (1.0, 1.0, 0.3, 0.9, 0.6, 0.3, 1.3, 0.3, 0.04, 0.7, 0.25, 0.03),
    (1.0, 1.0, 0.6, 0.7, 0.45, 0.15, 1.6, 0.01, 0.0001, 0.4, 0.01, 0.0002),
    (1.0, 1.0, 0.75, 0.95, 0.55, 0.05, 1.75, 0.08, 0.03, 0.25, 0.02, 0.01),
    (1.0, 1.0, 0.2, 0.5, 0.3, 0.1, 1.2, 0.06, 0.015, 0.8, 0.06, 0.015),
    (1.0, 1.0, 0.65, 0.85, 0.35, 0.3, 1.65, 0.04, 0.012, 0.35, 0.05, 0.009),
    (1.0, 1.0, 0.4, 0.75, 0.5, 0.25, 1.4, 0.12, 0.02, 0.6, 0.11, 0.025),
    (1.0, 1.0, 0.55, 0.62, 0.41, 0.18, 1.55, 0.07, 0.005, 0.45, 0.065, 0.004),
    (1.0, 1.0, 0.85, 0.9, 0.5, 0.35, 1.85, 0.02, 0.008, 0.15, 0.03, 0.006),
    (1.0, 1.0, 0.15, 1.1, 0.7, 0.45, 1.15, 0.05, 0.018, 0.85, 0.05, 0.014),
    (1.0, 1.0, 0.33, 0.66, 0.44, 0.22, 2.2, 0.09, 0.022, 1.1, 0.08, 0.02),
    (1.0, 1.0, 0.72, 0.58, 0.37, 0.12, 1.72, 0.035, 0.016, 0.28, 0.04, 0.013),
    (1.0, 1.0, 0.48, 0.81, 0.52, 0.23, 1.48, 0.055, 0.011, 0.52, 0.045, 0.017),
    (1.0, 1.0, 0.27, 0.73, 0.49, 0.31, 1.27, 0.065, 0.013, 0.73, 0.075, 0.019),
    (0.5, 1.0, 0.2, 0.4, 0.25, 0.1, 0.7, 0.025, 0.01, 0.35, 0.02, 0.01),
    (1.0, 0.5, 0.38, 0.77, 0.47, 0.17, 1.38, 0.045, 0.0095, 0.62, 0.05, 0.0085),
    (1.0, 1.0, 0.62, 0.88, 0.58, 0.28, 1.62, 0.15, 0.035, 0.38, 0.14, 0.028),
    (1.0, 1.0, 0.8, 0.69, 0.39, 0.19, 1.8, 0.03, 0.007, 0.2, 0.035, 0.0065),
    (1.0, 1.0, 0.58, 0.92, 0.61, 0.33, 1.58, 0.095, 0.024, 0.42, 0.085, 0.021),
]

KEYS = ["omega0", "mass", "drive_freq", "hot_temperature", "mid_temperature",
        "cold_temperature", "hot_center", "hot_width", "hot_kappa",
        "cold_center", "cold_width", "cold_kappa"]


def main():
    records = []
    worst = 0.0
    for s in SETS:
        jh, jc, P, jm, S = currents_mp(*s)
        dh, dc, dP = currents_double(*s)
        tiny = mpf("1e-300")
        err = max(abs(float(dh) - jh) / max(abs(jh), tiny),
                  abs(float(dc) - jc) / max(abs(jc), tiny),
                  abs(float(dP) - P) / max(abs(P), tiny))
        worst = max(worst, float(err))
        records.append({
            "params": dict(zip(KEYS, s)),
            "j_hot": mp.nstr(jh, 30),
            "j_cold": mp.nstr(jc, 30),
            "power": mp.nstr(P, 30),
            "j_mid": mp.nstr(jm, 30),
            "entropy_rate": mp.nstr(S, 30),
            "double_relerr": float(err),
        })
    OUT.write_text(json.dumps({
        "description": "two-sideband closed-form reference values "
                       "(independent arbitrary-precision evaluation, 60 digits)",
        "sets": records}, indent=1))
    print(f"wrote {OUT} ({len(records)} sets, worst double rel err {worst:.2e})")

    slopes = []
    for s in SETS:
        djh, dp = slopes_mp(*s)
        slopes.append({"params": dict(zip(KEYS, s)),
                       "djh_domega": mp.nstr(djh, 30),
                       "dp_domega": mp.nstr(dp, 30)})
    SLOPES_OUT.write_text(json.dumps({
        "description": "drive derivatives of j_hot and power at the "
                       "reference sets (mpmath.diff of the closed forms, "
                       "60 digits)",
        "sets": slopes}, indent=1))
    print(f"wrote {SLOPES_OUT} ({len(slopes)} sets)")


if __name__ == "__main__":
    main()
