import json
import pathlib

import numpy as np
import pytest

import tritherm as tt

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def reference_sets():
    with open(DATA / "reference_currents.json") as fh:
        return json.load(fh)["sets"]


def config_from_params(p) -> tt.MachineConfig:
    return tt.MachineConfig(
        wm=tt.WorkingMedium(omega0=p["omega0"], mass=p["mass"]),
        hot=tt.LorentzianBath(temperature=p["hot_temperature"], center=p["hot_center"],
                              width=p["hot_width"], kappa=p["hot_kappa"]),
        cold=tt.LorentzianBath(temperature=p["cold_temperature"], center=p["cold_center"],
                               width=p["cold_width"], kappa=p["cold_kappa"]),
        mid=tt.OhmicBath(temperature=p["mid_temperature"]),
        drive_freq=p["drive_freq"])


def make_config(drive=0.5, th=0.8, tm=0.5, tc=0.2, wh=1.5, gh=0.05, kh=0.01,
                wc=0.75, gc=0.05, kc=0.01, omega0=1.0, mass=1.0):
    return tt.MachineConfig(
        wm=tt.WorkingMedium(omega0=omega0, mass=mass),
        hot=tt.LorentzianBath(temperature=th, center=wh, width=gh, kappa=kh),
        cold=tt.LorentzianBath(temperature=tc, center=wc, width=gc, kappa=kc),
        mid=tt.OhmicBath(temperature=tm),
        drive_freq=drive)


@pytest.fixture
def default_config():
    return make_config()


def random_valid_batch(n, seed, t_lo=0.02, t_hi=1.2):
    """Random valid machine parameters as kernel-ready arrays."""
    rng = np.random.default_rng(seed)
    temps = np.sort(rng.uniform(t_lo, t_hi, size=(n, 3)), axis=1)
    return dict(
        omega0=np.ones(n), mass=np.ones(n),
        drive_freq=rng.uniform(0.01, 0.99, n),
        hot_temperature=temps[:, 2], mid_temperature=temps[:, 1],
        cold_temperature=temps[:, 0],
        hot_center=rng.uniform(0.2, 2.5, n),
        hot_width=np.exp(rng.uniform(np.log(0.005), np.log(0.4), n)),
        hot_kappa=np.exp(rng.uniform(np.log(1e-4), np.log(0.05), n)),
        cold_center=rng.uniform(0.2, 2.5, n),
        cold_width=np.exp(rng.uniform(np.log(0.005), np.log(0.4), n)),
        cold_kappa=np.exp(rng.uniform(np.log(1e-4), np.log(0.05), n)),
    )


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # warm the kernel once so timed tests measure evaluation only
    tt.evaluate_arrays(**random_valid_batch(4, seed=0))
