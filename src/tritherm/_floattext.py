"""The ``float.__repr__`` text of every element of a float64 array.

The shortest decimal in each value's rounding interval, the one closest to
the value with ties to even, is found with numpy integer arithmetic by
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020, the
algorithm of the JDK's ``DoubleToDecimal``), and laid out as Python's
``repr`` lays it out: fixed notation for 1e-4 <= |x| < 1e16, with ``.0`` on
an integral value, ``d.ddde+XX`` otherwise.  Zeros, infinities and NaN come
from the layout table; subnormals, where Schubfach's two-digit minimum
differs from ``repr`` (``4.9e-324`` against ``5e-324``), are formatted by
``float.__repr__``.  The text equals ``float.__repr__`` for every double.
"""

from __future__ import annotations

import functools

import numpy as np

_32 = np.uint64(32)
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64(2**63 - 1)
_K_MIN = -324   # the k of the smallest normal double; the largest is 292

# The text of a value is laid out in a row of 48 bytes and its NUL bytes
# are dropped: byte 0 the sign, 1-5 the "0.000" of a small fixed value,
# then two bytes per significant digit i (the digit at 6 + 2i, and the
# point after it, if any, at 7 + 2i), 40-44 the exponent ("e-308"), 45 a
# space.  A layout id selects the bytes that show (the mask) and the
# punctuation; the value supplies the digits and the exponent.  A value
# of ``digits`` significant digits d1 d2 ... is 0.d1d2... * 10**decpt.
_ROW = 48
_BLOCK = 8192      # values formatted at a time, which bounds the temporaries
_FIXED = 20 * 17   # ids: (decpt + 3) * 17 + digits - 1 for -3 <= decpt <= 16
_EXPONENTIAL = _FIXED     # + digits - 1
_NAN, _INF = _FIXED + 17, _FIXED + 18
_NEG = _FIXED + 19        # added to an id: the same layout with a "-"


def _flog2pow10(e):
    return (e * 913124641741) >> 38


def _words(rows) -> np.ndarray:
    """Byte strings of 8 bytes each as an array of uint64 words."""
    return np.frombuffer(b"".join(rows), dtype=np.uint64)


def _layout(decpt, digits, sign) -> tuple[bytes, bytes]:
    """(mask, punctuation) of one layout: ``decpt`` None for exponential
    notation, ``digits`` 0 for "nan" or "inf" (then ``decpt`` is the text)."""
    mask, punct = bytearray(_ROW), bytearray(_ROW)
    punct[0], punct[45] = ord(sign or "\0"), ord(" ")
    if digits == 0:
        punct[1:4] = decpt.encode()
    elif decpt is None:
        mask[40:45] = b"\xff" * 5
        if digits > 1:
            punct[7] = ord(".")
    elif decpt <= 0:
        punct[1:3 - decpt] = b"0.000"[:2 - decpt]
    else:
        digits = max(digits, decpt + 1)   # the zeros up to the point, and one after it
        punct[5 + 2 * decpt] = ord(".")
    mask[6:6 + 2 * digits:2] = b"\xff" * digits
    return bytes(mask), bytes(punct)


@functools.cache
def _tables():
    """The tables, built with Python ints on first use: ``g = g1 * 2**63 +
    g0`` of every k; the digit word of a group of four digits and its
    trailing zeros; the exponent words; the mask and punctuation words of
    every layout id."""
    g = []
    for k in range(_K_MIN, 293):
        shift = 125 - _flog2pow10(-k)
        num, den = 10 ** max(-k, 0) << max(shift, 0), 10 ** max(k, 0) << max(-shift, 0)
        g.append(num // den + 1)
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & (2**63 - 1) for x in g], dtype=np.uint64)
    digits = np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10
    group = np.zeros((10**4, 8), dtype=np.uint8)
    group[:, ::2] = 48 + digits
    zeros = np.where(digits.any(axis=1), np.argmax(digits[:, ::-1] != 0, axis=1), 4)
    exponent = _words(f"e{e:+03d}".encode().ljust(8, b"\0") for e in range(_K_MIN, 309))
    layouts = [_layout(decpt, n, sign) for sign in ("", "-") for decpt, n in (
        [(d, n) for d in range(-3, 17) for n in range(1, 18)]
        + [(None, n) for n in range(1, 18)] + [("nan", 0), ("inf", 0)])]
    layouts = _words(mask + punct for mask, punct in layouts).reshape(len(layouts), -1)
    return g1, g0, group.view(np.uint64).ravel(), zeros, exponent, layouts


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of ``(a1 * 2**32 + a0) * (b1 * 2**32 + b0)``, for
    ``a0``, ``b0`` below 2**32, ``a1`` below 2**31 and ``b1`` below 2**28:
    the two cross products and the carry of the low one fit in 64 bits."""
    return a1 * b1 + ((a1 * b0 + a0 * b1 + ((a0 * b0) >> _32)) >> _32)


def _rop(g, cp):
    """``g * cp / 2**128`` rounded to odd, ``g = g1 * 2**63 + g0`` given as
    ``(g1, g1 >> 32, g1 & M32, g0 >> 32, g0 & M32)`` and ``cp`` below 2**60."""
    b1, b0 = cp >> _32, cp & _M32
    z = ((g[0] * cp) >> np.uint64(1)) + _mulhi(g[3], g[4], b1, b0)
    return (_mulhi(g[1], g[2], b1, b0) + (z >> np.uint64(63))) | ((z & _M63) != 0)


def _decimal(c, q):
    """``(f, k)``: ``f * 10**k`` is the shortest decimal in the rounding
    interval of ``c * 2**q`` closest to it, ties to even, for the
    significand ``c`` of a normal double (the hidden bit included)."""
    g1, g0, *_ = _tables()
    irregular = (c == 2**52) & (q > -1074)
    k = (q * 661971961083 - 274743187321 * irregular) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = g1[k - _K_MIN], g0[k - _K_MIN]
    g = (g1, g1 >> _32, g1 & _M32, g0 >> _32, g0 & _M32)
    out = c & np.uint64(1)
    cb = c << np.uint64(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - np.uint64(2) + irregular) << h) + out
    vbr = _rop(g, (cb + np.uint64(2)) << h) - out
    s = vb >> np.uint64(2)
    # one digit shorter: the multiple of 10 below s or the one above
    sp10 = s // np.uint64(10) * np.uint64(10)
    tp10 = sp10 + np.uint64(10)
    upin = vbl <= sp10 << np.uint64(2)
    shorter = upin != (tp10 << np.uint64(2) <= vbr)
    # s or s + 1: the one in the interval, or the closer one, ties to even
    uin = vbl <= s << np.uint64(2)
    win = (s + np.uint64(1)) << np.uint64(2) <= vbr
    mid = (s << np.uint64(2)) + np.uint64(2)
    up = np.where(uin == win, (vb > mid) | ((vb == mid) & (s & np.uint64(1) == 1)), win)
    f = np.where(shorter, np.where(upin, sp10, tp10), s + up)
    return f, k


def float_texts(values) -> list[str]:
    """``float.__repr__`` of each element of a 1-D float array."""
    values = np.asarray(values, dtype=np.float64)
    texts = []
    for start in range(0, len(values), _BLOCK):
        texts += _texts(values[start:start + _BLOCK])
    return texts


def _texts(values) -> list[str]:
    """``float.__repr__`` of each element of a 1-D float64 array."""
    *_, group, zeros, exponent, layouts = _tables()
    bits = values.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int64) & 0x7FF
    frac = bits & np.uint64(2**52 - 1)
    normal = (biased > 0) & (biased < 0x7FF)
    # a value that is not normal gets f = 0 at decpt 1: the layout of "0.0"
    f = np.zeros(len(bits), dtype=np.int64)
    k = np.full(len(bits), -15)
    if normal.any():
        f[normal], k[normal] = _decimal(frac[normal] | np.uint64(2**52), biased[normal] - 1075)
    # f has 16 or 17 digits: left-aligned in 17, they are 1 + 4 groups of 4
    short = f < 10**16
    decpt = k + 17 - short
    hi, lo = divmod(f * (1 + 9 * short), 10**8)
    hi, d2 = divmod(hi, 10**4)
    d0, d1 = divmod(hi, 10**4)
    d3, d4 = divmod(lo, 10**4)
    tz, z = zeros[d4], d4 == 0   # trailing zeros
    for d in (d3, d2, d1):
        tz += z * zeros[d]
        z &= d == 0
    ids = np.where((decpt >= -3) & (decpt <= 16), (decpt + 3) * 17, _EXPONENTIAL) + 16 - tz
    special = biased == 0x7FF
    ids[special] = np.where(frac[special] != 0, _NAN, _INF)
    ids += _NEG * ((bits >> np.uint64(63)).astype(bool) & (ids != _NAN))
    row = np.empty((len(bits), _ROW // 8), dtype=np.uint64)
    for i, d in enumerate((d0, d1, d2, d3, d4)):   # d0 < 10: its digit is at byte 6
        row[:, i] = group[d]
    row[:, 5] = exponent[decpt - 1 - _K_MIN]
    layout = np.take(layouts, ids, axis=0)
    row &= layout[:, :_ROW // 8]
    row |= layout[:, _ROW // 8:]
    texts = row.tobytes().translate(None, b"\0").decode().split(" ")
    del texts[-1]   # after the last space
    for i in np.flatnonzero((biased == 0) & (frac != 0)).tolist():
        texts[i] = float.__repr__(float(values[i]))   # subnormal
    return texts
