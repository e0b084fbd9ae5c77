"""Hot numeric kernel: batched evaluation of the two-sideband closed forms.

One vectorized numpy code path.  Results are bitwise reproducible and
independent of batch size and layout: every element goes through the same
sequence of floating-point operations, whether it arrives as a scalar, in
a flat batch or in a broadcast block such as ``(C, 1)`` against ``(1, n)``.
The arguments are used as given, numpy broadcasting each operation, so no
input is copied to full size.  A one-point call, every argument 0-d, runs
on Python floats: their ``+ - * /`` and comparisons are the same IEEE-754
binary64 operations that numpy performs, and the Bose function takes
numpy's ``expm1`` there too, so the bits equal the array path's without
the per-operation overhead of numpy scalars.  Squares are written
``x * x``: on a scalar ``x ** 2`` calls ``pow``, which differs from the
array square in the last bit on some arguments.

The two baths share one spectrum, the Lorentzian and its slope at each
sideband, when their center, width and kappa hold the same bits: one
object, equal floats of one sign, or equal arrays of one shape
(:func:`_same_bits`), as at zero detuning.  Sharing cannot change a bit;
``0.0`` and ``-0.0`` compare equal but give zero currents of different
signs, so they are not shared.

Each call returns a table of shape ``broadcast_shape + (7,)`` whose last
axis holds ``j_hot, j_cold, j_mid, power, entropy_rate, entropy_pos,
entropy_neg``.  With ``slopes=True`` two more columns hold the exact
derivatives of ``j_hot`` and ``power`` in the drive frequency, from the
same pass.  The table is stored one contiguous array per quantity and
returned as a ``broadcast_shape + (ncols,)`` view, so each column
``table[..., c]`` is written and read without a stride; a one-point
table is the plain 1-D ``(ncols,)`` array.

Large batches are cut by the callers, into pieces long enough for the
threads of :func:`map_blocks` to overlap: a search stage into the fewest
balanced blocks of at most ``BLOCK_POINTS`` points whose count is a
multiple of the thread count, and a sweep into tiles of ``TILE_POINTS``
cells.  Sweeps pass axis vectors,
an axis1 column against an axis2 row, not expanded columns, so a term of
one axis is computed once per row or column of a tile.
:func:`map_blocks` runs the blocks of one sweep or search stage (its
thread model is described there); they write into results allocated
once for all of them: a sweep's result arrays, a search stage's table
(``thermo_batch(..., out=)``).
"""

from __future__ import annotations

import itertools
import math
import os
import threading

import numpy as np

NCOLS = 7
COL_JH, COL_JC, COL_JM, COL_P, COL_S, COL_SPOS, COL_SNEG = range(NCOLS)
COL_DJH, COL_DP = NCOLS, NCOLS + 1   # present only with slopes=True

# Most points per kernel call of a search block.  Each numpy operation on a
# block then lasts about 20 us, so map_blocks' threads overlap; at 16384
# they mostly took turns on the GIL, and at 49152 the search benchmark was
# slower again, its peak memory 15-21% higher (BENCH_search_balance.json).
BLOCK_POINTS = 32768

# Cells per kernel call of a sweep tile.  Each numpy operation on a tile
# then lasts about 40 us, long enough for map_blocks' threads to overlap;
# at BLOCK_POINTS they mostly take turns on the GIL.
TILE_POINTS = 65536

# Threads of one map_blocks call: the CPUs this process may use, at most 4.
# The cap bounds memory, not speed: each running block holds about 3.5 MB
# of kernel temporaries.
_WORKERS = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)

_BOSE_CUTOFF = 1e-5


def bose_pos(x):
    """Bose occupation ``1 / (exp(x) - 1)`` for positive ``x``.

    Below 1e-5 the Laurent series ``1/x - 1/2 + x/12`` avoids cancellation.
    The caller guarantees ``x > 0`` (``0 < drive < omega0``, ``T > 0``) and
    turns numpy's error state off: ``expm1`` overflows at large ``x`` (to 0).
    """
    if isinstance(x, float) or np.ndim(x) == 0:
        # numpy's expm1, not math's: a point gets the array's last bit
        return 1.0 / x - 0.5 + x / 12.0 if x < _BOSE_CUTOFF else 1.0 / float(np.expm1(x))
    small = x < _BOSE_CUTOFF
    if not small.any():   # the common case: no select
        return 1.0 / np.expm1(x)
    n = 1.0 / np.expm1(np.where(small, 1.0, x))
    xs = x[small]   # the series only where it is used
    n[small] = 1.0 / xs - 0.5 + xs / 12.0
    return n


def amplitude(w0, m, w, g, k):
    """``dmg = kappa w^2 w0^2 M gamma`` of a Lorentzian bath peaked at ``w``
    with width ``g``: the numerator of :func:`lorentzian` over ``s``."""
    return k * w * w * w0 * w0 * m * g


def lorentzian(s, w, g, dmg):
    """The Lorentzian spectral density ``L(s) = dmg s / D`` with
    ``D = q^2 + g^2 s^2`` and ``q = s^2 - w^2``; returns ``L, q, g^2 s^2, D``,
    which the slope reuses.  ``core.spectral_lorentzian`` evaluates it too,
    so the two agree to the last bit."""
    q = s * s - w * w
    gss = g * g * s * s
    den = q * q + gss
    return dmg * s / den, q, gss, den


def _spectrum(sp, sm, w0, m, w, g, k, slopes):
    """``L(sp), L(sm)`` of the Lorentzian bath ``(w, g, k)``
    (:func:`lorentzian`) and, with ``slopes``, their derivatives ``L'(s)``
    (else None)."""
    dmg = amplitude(w0, m, w, g, k)
    lp, qp, gssp, denp = lorentzian(sp, w, g, dmg)
    lm, qm, gssm, denm = lorentzian(sm, w, g, dmg)
    if not slopes:
        return lp, lm, None, None
    return (lp, lm, _lorentzian_slope(sp, w, lp, qp, gssp, denp),
            _lorentzian_slope(sm, w, lm, qm, gssm, denm))


def _lorentzian_slope(s, w, lor, q, gss, den):
    """``L'(s)`` from the terms of ``lorentzian(s, w, ...)``."""
    return lor * (-q * (3.0 * s * s + w * w) - gss) / (s * den)


def _same_bits(a, b) -> bool:
    """Whether two kernel arguments hold the same bits: one object, two
    floats equal with the same sign (``0.0`` and ``-0.0`` differ), or two
    arrays of one shape whose int64 views are equal.  NaN is never the same."""
    if a is b:
        return True
    if isinstance(a, float) and isinstance(b, float):
        return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))
    return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64)))


def _bath(sp, sm, drv, pref, nbm, t, spectra, slopes, with_dj):
    """Heat current and power share of one dynamically coupled bath, and
    with ``slopes`` the drive derivative of the power share and, if
    ``with_dj``, of the current (each else None).

    The bath exchanges quanta at both sidebands ``sp = w0 + drv`` and
    ``sm = w0 - drv``, weighted by its Lorentzian spectral density there
    (``spectra``, from :func:`_spectrum`) and by its Bose imbalance
    ``dn = n(s/t) - nbm`` against the static bath.
    """
    lp, lm, dlp, dlm = spectra
    n_p = bose_pos(sp / t)
    n_m = bose_pos(sm / t)
    dnp_ = n_p - nbm
    dnm_ = n_m - nbm
    j = pref * (sp * lp * dnp_ + sm * lm * dnm_)
    hp, hm = lp * dnp_, lm * dnm_   # H = L dn at each sideband
    p = -(drv * pref) * (hp - hm)
    if not slopes:
        return j, p, None, None
    # H'(s) = L' dn + L dn'(s), with dn'(s) = -n (n + 1) / t
    dhp = dlp * dnp_ - lp * (n_p * (n_p + 1.0) / t)
    dhm = dlm * dnm_ - lm * (n_m * (n_m + 1.0) / t)
    # dsp/ddrv = 1, dsm/ddrv = -1
    dj = pref * ((hp + sp * dhp) - (hm + sm * dhm)) if with_dj else None
    dp = -pref * ((hp - hm) + drv * (dhp + dhm))
    return j, p, dj, dp


def _thermo(w0, m, drv, th, tm, tc, wh, gh, kh, wc, gc, kc, out):
    """Fill ``out``, of shape ``(ncols,) + broadcast_shape``: one contiguous
    array per quantity, with numpy's error state off."""
    slopes = out.shape[0] > NCOLS
    with np.errstate(all="ignore"):
        sp = w0 + drv
        sm = w0 - drv
        pref = 1.0 / (4.0 * m * w0)
        nbm = bose_pos(w0 / tm)
        hot = _spectrum(sp, sm, w0, m, wh, gh, kh, slopes)
        same = _same_bits(wh, wc) and _same_bits(gh, gc) and _same_bits(kh, kc)
        cold = hot if same else _spectrum(sp, sm, w0, m, wc, gc, kc, slopes)
        j_hot, p_hot, dj_hot, dp_hot = _bath(sp, sm, drv, pref, nbm, th, hot, slopes, True)
        j_cold, p_cold, _, dp_cold = _bath(sp, sm, drv, pref, nbm, tc, cold, slopes, False)
        if slopes:
            out[COL_DJH] = dj_hot
            out[COL_DP] = dp_hot + dp_cold

        power = p_hot + p_cold
        out[COL_JH] = j_hot
        out[COL_JC] = j_cold
        out[COL_JM] = -power - j_hot - j_cold
        out[COL_P] = power
        out[COL_S], out[COL_SPOS], out[COL_SNEG] = entropy_split(
            power, j_hot, j_cold, th, tm, tc)
    return out


def entropy_split(power, j_hot, j_cold, t_hot, t_mid, t_cold):
    """Entropy production rate, the sum of the three balance terms
    ``power/Tm``, ``(J_c/Tm)(1 - Tm/Tc)`` and ``(J_h/Tm)(1 - Tm/Th)``, and
    its split into the positive and the negative terms.

    Works on floats and arrays alike.  A term of the other sign enters a
    split as a signed zero, which the leading ``0.0 +`` makes ``+0.0``.  On
    arrays the terms are clipped at zero (``np.maximum``/``np.minimum``, no
    select), which gives the same bits as the float path's products with a
    comparison wherever the terms are finite; an infinite term, in a row
    that ``currents.finite_rows`` refuses anyway, may differ.
    """
    t1 = power / t_mid
    t2 = (j_cold / t_mid) * (1.0 - t_mid / t_cold)
    t3 = (j_hot / t_mid) * (1.0 - t_mid / t_hot)
    if isinstance(t1, np.ndarray):
        return (t1 + t2 + t3,
                0.0 + np.maximum(t1, 0.0) + np.maximum(t2, 0.0) + np.maximum(t3, 0.0),
                0.0 + np.minimum(t1, 0.0) + np.minimum(t2, 0.0) + np.minimum(t3, 0.0))
    return (t1 + t2 + t3,
            0.0 + t1 * (t1 > 0.0) + t2 * (t2 > 0.0) + t3 * (t3 > 0.0),
            0.0 + t1 * (t1 < 0.0) + t2 * (t2 < 0.0) + t3 * (t3 < 0.0))


def thermo_batch(omega0, mass, drive, t_hot, t_mid, t_cold,
                 w_hot, g_hot, k_hot, w_cold, g_cold, k_cold,
                 slopes: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate currents, power, and entropy split for a batch of machines.

    All twelve parameters broadcast against each other; scalars are fine
    and are never expanded, and 0-d ones enter as Python floats.  It runs
    with numpy's error state off, its callers reporting a nonfinite value
    by name; a float divided by an exact zero raises, so such a call is
    rerun on numpy scalars, which give the array path's values.  Returns a
    table of shape ``broadcast_shape + (7,)`` with the columns
    ``COL_JH .. COL_SNEG``; ``slopes`` appends ``COL_DJH`` and ``COL_DP``.
    It is stored one contiguous column per quantity and returned as a
    ``broadcast_shape + (ncols,)`` view, so ``table[..., c]`` is
    contiguous; a one-point call returns the 1-D ``(ncols,)`` array.
    ``out``, if given, is that storage, written in place: a float64
    array of shape ``(ncols,) + shape`` that the arguments broadcast to,
    such as rows of a larger table; ValueError otherwise.  Inputs must
    satisfy ``0 < drive < omega0`` and positive temperatures; this is the
    caller's responsibility (the wrappers in
    :mod:`tritherm.currents` and :mod:`tritherm.sweep` enforce it).
    """
    args = [a if type(a) is float else np.asarray(a, dtype=np.float64) for a in (
        omega0, mass, drive, t_hot, t_mid, t_cold,
        w_hot, g_hot, k_hot, w_cold, g_cold, k_cold)]
    shapes = {a.shape for a in args if type(a) is not float}
    shape = np.broadcast_shapes(*shapes) if shapes - {()} else ()
    args = [a if type(a) is float or a.ndim else float(a) for a in args]
    ncols = NCOLS + 2 if slopes else NCOLS
    if out is None:
        out = np.empty((ncols,) + shape)
    elif (out.dtype != np.float64 or out.shape[:1] != (ncols,)
          or len(out.shape) <= len(shape)
          or any(a not in (1, b) for a, b in zip(shape[::-1], out.shape[:0:-1]))):
        raise ValueError(f"out must be a float64 array of shape ({ncols}, ...) that "
                         f"the arguments of shape {shape} broadcast to, got "
                         f"{out.dtype} {out.shape}")
    shape = out.shape[1:]
    try:
        _thermo(*args, out)
    except ZeroDivisionError:
        _thermo(*(np.float64(a) if type(a) is float else a for a in args), out)
    # a point's table is 1-D already; a moveaxis would cost it microseconds
    return np.moveaxis(out, 0, -1) if shape else out


def map_blocks(fn, items) -> list:
    """``[fn(x) for x in items]`` for a sequence ``items``, computed by the
    calling thread and, with several items, one helper thread per further
    CPU of the process: the one thread model of sweeps and searches.

    The thread count is the number of CPUs in the process's affinity mask
    when tritherm is imported, capped by the number of items and by 4;
    nothing above 2 CPUs has been measured.  ``taskset`` limits it, a
    cgroup CPU quota does not, and there is no option for it.  numpy
    releases the GIL inside each operation on large arrays, so the items'
    arithmetic overlaps when each operation lasts about 20 us or more (a
    search block of up to ``BLOCK_POINTS`` points, a sweep tile of
    ``TILE_POINTS`` cells); at about 10 us (16384 points) the threads
    mostly take turns on the GIL.  Each item of a sweep or
    search writes only its own results, so their outputs do not depend on
    the thread count.  Every
    thread takes the next index from one shared counter until none is left,
    so items start in order.  Each helper runs under the caller's numpy
    ``errstate``, which a new thread does not inherit (numpy 2 keeps it in a
    context variable, numpy 1 per thread): the kernel sets its own, but an
    item's classification and scores run outside it.
    Once an item raises, no later item starts; when every thread has
    stopped, the exception of the lowest failing index is raised, the one a
    serial loop would raise.  With one thread no helper is started.
    """
    workers = min(_WORKERS, len(items))
    results = [None] * len(items)
    errors = {}
    stop = [len(items)]   # no item at or past this index starts
    lock = threading.Lock()
    indices = itertools.count()

    def drain():
        for i in indices:
            if i >= stop[0]:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:   # re-raised by the caller below
                with lock:
                    errors[i] = exc
                    stop[0] = min(stop[0], i)
                return

    err, call = np.geterr(), np.geterrcall()

    def drain_as_caller():
        with np.errstate(call=call, **err):
            drain()

    helpers = [threading.Thread(target=drain_as_caller) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results
