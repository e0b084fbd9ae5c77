"""Property tests, derandomized so that every run draws the same examples:
the scalar API equals its batch row, valid batches obey the laws, and
configs survive serialization."""

import json

import hypothesis
import hypothesis.strategies as st
import numpy as np

import tritherm as tt
from tritherm import _kernels
from tritherm._kernels import (COL_DJH, COL_DP, COL_JC, COL_JH, COL_JM, COL_P, COL_SNEG,
                               COL_SPOS)
from tritherm.currents import config_args
from tritherm.modes import MODE_BY_CODE, classify_coupled_arrays, exergy_from_split
from tritherm.transistor import GAIN_RELIABLE_BAND, _figures

from conftest import random_valid_batch

SETTINGS = hypothesis.settings(derandomize=True, max_examples=60, deadline=None)


def bits(*values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def between(low, high):
    return st.floats(min_value=low, max_value=high)


# a zero coupling selects the reduced two-terminal taxonomy
kappas = st.one_of(st.just(0.0), between(1e-4, 0.05))


@st.composite
def configs(draw):
    t_cold = draw(between(0.02, 1.0))
    t_mid = t_cold * draw(between(1.01, 3.0))
    t_hot = t_mid * draw(between(1.01, 3.0))
    omega0 = draw(between(0.5, 2.0))

    def bath(t):
        return {"temperature": t, "center": draw(between(0.2, 2.5)),
                "width": draw(between(0.005, 0.4)), "kappa": draw(kappas)}

    return tt.MachineConfig.from_dict({
        "drive_freq": omega0 * draw(between(0.01, 0.99)),
        "wm": {"omega0": omega0, "mass": draw(between(0.5, 2.0))},
        "hot": bath(t_hot), "cold": bath(t_cold),
        "mid": {"temperature": t_mid, "gamma_m": draw(between(0.01, 1.0))}})


@SETTINGS
@hypothesis.given(st.lists(configs(), min_size=1, max_size=6))
def test_scalar_api_equals_batch_row(cfgs):
    args = [np.array(col) for col in zip(*map(config_args, cfgs))]
    table = _kernels.thermo_batch(*args, slopes=True)
    codes = classify_coupled_arrays(args[8], args[11], *(
        table[:, c] for c in (COL_JH, COL_JC, COL_JM, COL_P)))
    phi = exergy_from_split(table[:, COL_SPOS], table[:, COL_SNEG])
    r, g = _figures(table)
    for k, cfg in enumerate(cfgs):
        # ThermoPoint fields are declared in kernel column order
        assert bits(*tt.evaluate_point(cfg).to_dict().values()) == bits(*table[k, :7])
        report = tt.mode_report(cfg)
        assert bits(*report.point.to_dict().values()) == bits(*table[k, :7])
        assert report.mode is MODE_BY_CODE[codes[k]]
        assert bits(report.exergy) == bits(phi[k])
        tp = tt.transistor_point(cfg)
        assert bits(tp.r, tp.g) == bits(r[k], g[k])
        assert (bits(tp.djh_domega, tp.dp_domega, tp.j_hot, tp.power)
                == bits(*table[k, [COL_DJH, COL_DP, COL_JH, COL_P]]))
        assert tp.g_reliable is bool(abs(table[k, COL_DP]) >= GAIN_RELIABLE_BAND)


@SETTINGS
@hypothesis.given(seed=st.integers(0, 2**32 - 1),
                  hot_off=st.integers(0, 9), cold_off=st.integers(0, 9))
def test_valid_batches_obey_the_laws(seed, hot_off, cold_off):
    batch = random_valid_batch(400, seed=seed)
    batch["hot_kappa"][hot_off::10] = 0.0
    batch["cold_kappa"][cold_off::7] = 0.0
    out = tt.evaluate_arrays(**batch)
    assert np.all(out.power + out.j_hot + out.j_cold + out.j_mid == 0.0)
    assert out.entropy_rate.min() >= -1e-12
    # the forbidden octant raises; it must never occur
    codes = classify_coupled_arrays(batch["hot_kappa"], batch["cold_kappa"],
                                    out.j_hot, out.j_cold, out.j_mid, out.power)
    assert codes.min() >= 0
    phi = exergy_from_split(out.entropy_pos, out.entropy_neg)
    assert phi.min() >= 0.0 and phi.max() <= 1.0


@SETTINGS
@hypothesis.given(configs())
def test_config_round_trip(cfg):
    data = cfg.to_dict()
    assert tt.MachineConfig.from_dict(data) == cfg
    assert tt.MachineConfig.from_dict(json.loads(json.dumps(data))) == cfg
