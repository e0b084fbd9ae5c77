"""Hot numeric kernel: batched evaluation of the two-sideband closed forms.

One vectorized numpy code path.  Results are bitwise reproducible and
independent of batch size: every element goes through the same sequence of
floating-point operations.

Each batch call fills an ``(n, 7)`` float64 array with columns
``j_hot, j_cold, j_mid, power, entropy_rate, entropy_pos, entropy_neg``.
With ``slopes=True`` two more columns hold the exact derivatives of
``j_hot`` and ``power`` in the drive frequency, from the same pass.
"""

from __future__ import annotations

import numpy as np

NCOLS = 7
COL_JH, COL_JC, COL_JM, COL_P, COL_S, COL_SPOS, COL_SNEG = range(NCOLS)
COL_DJH, COL_DP = NCOLS, NCOLS + 1   # present only with slopes=True

_BOSE_CUTOFF = 1e-5


def bose_pos(x):
    """Bose occupation ``1 / (exp(x) - 1)`` for positive ``x``.

    Below 1e-5 the Laurent series ``1/x - 1/2 + x/12`` avoids cancellation.
    The caller guarantees ``x > 0`` (``0 < drive < omega0``, ``T > 0``) and
    silences the overflow of ``expm1`` for large arguments (the result is 0).
    """
    return np.where(x < _BOSE_CUTOFF,
                    1.0 / x - 0.5 + x / 12.0,
                    1.0 / np.expm1(np.where(x < _BOSE_CUTOFF, 1.0, x)))


def _sideband(s, t, nbm, w, g, dmg, slopes):
    """``L(s) = dmg s / D``, ``dn = n(s/t) - nbm`` and, with ``slopes``, the
    derivative ``H'(s)`` of ``H = L dn`` at one sideband ``s``."""
    n = bose_pos(s / t)
    if not slopes:  # names no temporaries, so a plain batch stays lean
        return dmg * s / ((s * s - w * w) ** 2 + g * g * s * s), n - nbm, None
    q = s * s - w * w
    den = q ** 2 + g * g * s * s
    lor = dmg * s / den
    dlor = lor * (-q * (3.0 * s * s + w * w) - g * g * s * s) / (s * den)
    return lor, n - nbm, dlor * (n - nbm) - lor * (n * (n + 1.0) / t)


def _bath(sp, sm, drv, pref, nbm, w0, m, t, w, g, k, slopes):
    """Heat current and power share of one dynamically coupled bath, and
    with ``slopes`` their drive derivatives (else None).

    The bath exchanges quanta at both sidebands ``sp = w0 + drv`` and
    ``sm = w0 - drv``, weighted by its Lorentzian spectral density there and
    by its Bose imbalance ``nbm`` against the static bath.
    """
    dmg = k * w * w * w0 * w0 * m * g
    lp, dnp_, dhp = _sideband(sp, t, nbm, w, g, dmg, slopes)
    lm, dnm_, dhm = _sideband(sm, t, nbm, w, g, dmg, slopes)
    j = pref * (sp * lp * dnp_ + sm * lm * dnm_)
    p = -(drv * pref) * (lp * dnp_ - lm * dnm_)
    if not slopes:
        return j, p, None, None
    hp, hm = lp * dnp_, lm * dnm_   # dsp/ddrv = 1, dsm/ddrv = -1
    dj = pref * ((hp + sp * dhp) - (hm + sm * dhm))
    dp = -pref * ((hp - hm) + drv * (dhp + dhm))
    return j, p, dj, dp


def _thermo(w0, m, drv, th, tm, tc, wh, gh, kh, wc, gc, kc, out):
    slopes = out.shape[1] > NCOLS
    with np.errstate(over="ignore"):
        sp = w0 + drv
        sm = w0 - drv
        pref = 1.0 / (4.0 * m * w0)
        nbm = bose_pos(w0 / tm)
        j_hot, p_hot, dj_hot, dp_hot = _bath(
            sp, sm, drv, pref, nbm, w0, m, th, wh, gh, kh, slopes)
        j_cold, p_cold, _, dp_cold = _bath(
            sp, sm, drv, pref, nbm, w0, m, tc, wc, gc, kc, slopes)
        if slopes:
            out[:, COL_DJH] = dj_hot
            out[:, COL_DP] = dp_hot + dp_cold

        power = p_hot + p_cold
        j_mid = -power - j_hot - j_cold

        t1 = power / tm
        t2 = (j_cold / tm) * (1.0 - tm / tc)
        t3 = (j_hot / tm) * (1.0 - tm / th)
        out[:, COL_JH] = j_hot
        out[:, COL_JC] = j_cold
        out[:, COL_JM] = j_mid
        out[:, COL_P] = power
        out[:, COL_S] = t1 + t2 + t3
        # each balance term goes to the positive or the negative split
        terms = (t1, t2, t3)
        out[:, COL_SPOS] = sum(np.where(t > 0.0, t, 0.0) for t in terms)
        out[:, COL_SNEG] = sum(np.where(t < 0.0, t, 0.0) for t in terms)
    return out


def thermo_batch(omega0, mass, drive, t_hot, t_mid, t_cold,
                 w_hot, g_hot, k_hot, w_cold, g_cold, k_cold,
                 slopes: bool = False) -> np.ndarray:
    """Evaluate currents, power, and entropy split for a batch of machines.

    All twelve parameters broadcast against each other; scalars are fine.
    Returns an array of shape ``broadcast_shape + (7,)`` with the columns
    ``COL_JH .. COL_SNEG``; ``slopes`` appends ``COL_DJH`` and ``COL_DP``.
    Inputs must satisfy ``0 < drive < omega0`` and positive temperatures;
    this is the caller's responsibility (the wrappers in
    :mod:`tritherm.currents` and :mod:`tritherm.sweep` enforce it).
    """
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in (
        omega0, mass, drive, t_hot, t_mid, t_cold,
        w_hot, g_hot, k_hot, w_cold, g_cold, k_cold)))
    shape = arrays[0].shape
    flat = [np.ascontiguousarray(a.ravel()) for a in arrays]
    ncols = NCOLS + 2 if slopes else NCOLS
    out = np.empty((flat[0].size, ncols))
    _thermo(*flat, out)
    return out.reshape(shape + (ncols,))
