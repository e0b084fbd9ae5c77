"""The vectorised float formatter against ``float.__repr__`` and ``json.dumps``."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from tritherm._floattext import _mulhi, float_texts
from tritherm.sweep import _float_texts

TINY = np.finfo(np.float64).tiny     # the smallest normal double
HUGE = np.finfo(np.float64).max      # the largest finite double


def _random_bits(n, seed):
    """``n`` doubles from seeded random bit patterns; a quarter each get
    the biased exponent of a subnormal or zero, of an infinity or NaN, and
    of a value near 1, so every class shows up many times."""
    bits = np.random.default_rng(seed).integers(0, 2**64, n, dtype=np.uint64)
    exponent = np.uint64(0x7FF << 52)
    quarter = n // 4
    bits[:quarter] &= ~exponent                                        # subnormal
    bits[quarter:2 * quarter] |= exponent                              # inf, NaN
    bits[2 * quarter:3 * quarter] = (bits[2 * quarter:3 * quarter] & ~exponent) \
        | np.uint64(0x3FF << 52)                                       # [1, 2)
    bits[:16] &= np.uint64(1 << 63)                                    # +-0
    bits[quarter:quarter + 16] &= np.uint64(0xFFF << 52)               # +-inf
    return bits.view(np.float64)


def _ulps_around(x, n=50):
    """The ``n`` doubles either side of ``x`` and of ``-x``, and both themselves."""
    steps = np.arange(-n, n + 1, dtype=np.int64)
    values = [(np.array([s * x]).view(np.int64) + steps).view(np.float64)
              for s in (1.0, -1.0)]
    return np.concatenate(values)


def _powers_of_two():
    """Every power of two, which has the irregular spacing, and its two
    neighbours, which have the regular one: every exponent, both ways."""
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def _both_signs(values):
    return np.concatenate([values, -values])


INPUTS = {
    "random_bits": lambda: _random_bits(200_000, 2024),
    "powers_of_two": lambda: _both_signs(_powers_of_two()),
    "powers_of_ten": lambda: _both_signs(
        np.array([float(f"1e{e}") for e in range(-323, 309)])),
    "ulps_of_boundaries": lambda: np.concatenate([_ulps_around(x) for x in (
        1e-4, 1e16, 2.0**52, 2.0**53, TINY, HUGE)]),
    "integers": lambda: np.arange(-10**5, 10**5 + 1, dtype=np.float64),
}


def _check(values):
    """The CSV texts of ``_float_texts`` (the formatter's one caller) equal
    ``repr``, and its JSON texts equal ``json.dumps``."""
    csv_text, json_text = _float_texts(values)
    assert csv_text == list(map(float.__repr__, values.tolist()))
    assert "[" + ", ".join(json_text) + "]" == json.dumps(values.tolist())


@pytest.mark.parametrize("name", INPUTS)
def test_texts_equal_repr_and_json(name):
    _check(INPUTS[name]())


def test_boundaries_are_around_the_notation_switches():
    values = INPUTS["ulps_of_boundaries"]()
    assert (~np.isfinite(values)).sum() == 100   # the 50 patterns above +-HUGE
    texts = float_texts(values)
    assert {"0.0001", "9.999999999999999e-05", "1e+16", "9999999999999998.0",
            "2.2250738585072014e-308", "2.225073858507201e-308",
            "-1.7976931348623157e+308", "inf", "-inf", "nan"} <= set(texts)


@pytest.mark.parametrize("b", [2**60 - 1, 2**59 + 12345, 2**32, 1])
def test_high_product_is_exact_at_its_bounds(b):
    a = 2**63 - 1                       # the largest half of a table entry
    limbs = (a >> 32, a & 0xFFFFFFFF, b >> 32, b & 0xFFFFFFFF)
    got = _mulhi(*(np.array([x], dtype=np.uint64) for x in limbs))
    assert int(got[0]) == (a * b) >> 64


def test_every_class_of_double_is_in_the_random_bits():
    values = _random_bits(200_000, 2024)
    biased = (values.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)
    subnormal = (biased == 0) & (values != 0)
    assert (values == 0).any() and np.signbit(values[values == 0]).any()
    assert subnormal.any() and np.isnan(values).any() and np.isinf(values).any()
    assert ((biased > 0) & (biased < 0x7FF)).sum() > 90_000


@pytest.mark.parametrize("values", [
    np.array([], dtype=np.float64),
    np.array([0.1]),
    np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan]),
    np.array([5e-324, -5e-324, 1e-320, TINY * (1 - 2**-52)]),
    np.arange(12.0).reshape(3, 4)[:, 1],
], ids=["empty", "one", "specials", "subnormals", "strided"])
def test_small_and_strided_inputs(values):
    _check(values)


def test_tables_are_built_on_first_use():
    code = ("import tritherm, numpy as np\n"
            "from tritherm import _floattext\n"
            "print(_floattext._tables.cache_info().currsize)\n"
            "_floattext.float_texts(np.array([0.5]))\n"
            "print(_floattext._tables.cache_info().currsize)\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["0", "1"]
