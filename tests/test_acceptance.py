"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Heavy artifacts (the 1e5-point random sample, the maps, the
seeded searches) are shared through module-scoped fixtures; timed budgets
cover the computation itself (kernels are warmed once per session).
"""

import time

import numpy as np
import pytest

import tritherm as tt
from tritherm import _kernels, sweep
from tritherm._kernels import thermo_batch
from tritherm.cli import main as cli_main
from tritherm.modes import (HYBRID_MODES, OperatingMode, classify_arrays,
                            exergy_from_split)

from conftest import config_from_params, make_config, random_valid_batch

SAMPLE_SIZE = 100_000
SAMPLE_SEED = 20240811
SEARCH_SEED = 7

ENGINE = list(OperatingMode).index(OperatingMode.ENGINE)
WASTEFUL = list(OperatingMode).index(OperatingMode.WASTEFUL)


def report(num, name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
          f"{' | ' + detail if detail else ''}")
    return ok


@pytest.fixture(scope="module")
def random_sample():
    batch = random_valid_batch(SAMPLE_SIZE, seed=SAMPLE_SEED)
    t0 = time.perf_counter()
    out = tt.evaluate_arrays(**batch)
    elapsed = time.perf_counter() - t0
    return batch, out, elapsed


@pytest.fixture(scope="module")
def search_results():
    template = make_config(drive=0.3, th=0.55, tm=0.2, tc=0.19,
                           wh=1.7, wc=1.7, gh=0.05, gc=0.05, kh=0.01, kc=0.01)
    spec = tt.SearchSpec(
        objective="transistor_window",
        vary={"hot.temperature": tt.VaryRange(0.50, 0.66),
              "mid.temperature": tt.VaryRange(0.19, 0.22),
              "hot.center": tt.VaryRange(1.4, 1.9)},
        lock={"cold.center": tt.LockRule(source="hot.center"),
              "cold.temperature": tt.LockRule(source="mid.temperature",
                                              offset=-0.01)},
        omega_start=0.02, omega_stop=0.98, omega_count=481,
        samples=200, refine_rounds=2, refine_samples=40, pool=3,
        shrink=0.25, top_k=5)
    t0 = time.perf_counter()
    three = tt.run_search(template, spec, seed=SEARCH_SEED)
    two = tt.run_search(tt.apply_params(template, {"cold.kappa": 0.0}),
                        spec, seed=SEARCH_SEED)
    elapsed = time.perf_counter() - t0
    return template, three, two, elapsed


def test_criterion_1_second_law(random_sample):
    _, out, elapsed = random_sample
    min_s = float(out.entropy_rate.min())
    ok = min_s >= -1e-12 and elapsed < 10.0
    assert report(1, "second law over random sample", ok,
                  f"n={SAMPLE_SIZE}, min entropy_rate={min_s:.3e}, "
                  f"runtime={elapsed:.2f}s")


def test_criterion_2_first_law(random_sample):
    _, out, _ = random_sample
    residual = out.power + out.j_hot + out.j_cold + out.j_mid
    scale = np.maximum.reduce([np.abs(out.power), np.abs(out.j_hot),
                               np.abs(out.j_cold), np.abs(out.j_mid),
                               np.full(residual.shape, 1e-300)])
    worst = float(np.max(np.abs(residual) / scale))
    ok = worst <= 1e-12
    assert report(2, "first-law balance residual", ok,
                  f"max |residual|/scale = {worst:.3e}")


def test_criterion_3_forbidden_octant(random_sample):
    _, out, _ = random_sample
    band = tt.SIGN_ZERO_BAND
    forbidden = ((out.j_hot < -band) & (out.j_cold > band)
                 & (out.power < -band))
    count = int(forbidden.sum())
    classify_arrays(out.j_hot, out.j_cold, out.power)  # also must not raise
    ok = count == 0
    assert report(3, "forbidden octant never occurs", ok,
                  f"occurrences={count} of {SAMPLE_SIZE}")


def test_criterion_4_oracle_equivalence(reference_sets):
    worst = 0.0
    for rec in reference_sets:
        cfg = config_from_params(rec["params"])
        point = tt.evaluate_point(cfg)
        for attr, key in (("j_hot", "j_hot"), ("j_cold", "j_cold"),
                          ("power", "power")):
            expected = float(rec[key])
            got = getattr(point, attr)
            if expected == 0.0:
                err = abs(got)
            else:
                err = abs(got - expected) / abs(expected)
            worst = max(worst, err)
    ok = worst <= 1e-12
    assert report(4, "oracle equivalence at 25 pre-registered sets", ok,
                  f"worst rel err = {worst:.3e}")


def test_criterion_5_exergy_bounds(random_sample):
    _, out, _ = random_sample
    phi = exergy_from_split(out.entropy_pos, out.entropy_neg)
    codes = classify_arrays(out.j_hot, out.j_cold, out.power)
    in_bounds = float(phi.min()) >= 0.0 and float(phi.max()) <= 1.0
    wasteful_zero = bool(np.all(phi[codes == WASTEFUL] == 0.0))

    # two-terminal reduction: engine cells obey phi = eta / eta_Carnot
    template = make_config(kc=0.0, th=0.8, tm=0.5, tc=0.2)
    spec = tt.SweepSpec(template=template,
                        axis1=tt.Axis("drive_freq", 0.05, 0.9, 69),
                        axis2=tt.Axis("hot.center", 1.0, 2.0, 41))
    result = tt.run_sweep(spec)
    eng = result.mode_codes == ENGINE
    jh = result.thermo[:, 0]
    power = result.thermo[:, 3]
    eta_c = 1.0 - 0.5 / 0.8
    expected = (-power[eng] / jh[eng]) / eta_c
    worst_eng = float(np.max(np.abs(result.phi[eng] - expected)
                             / np.abs(expected)))
    ok = in_bounds and wasteful_zero and eng.sum() > 100 and worst_eng <= 1e-10
    assert report(5, "exergy bounds and two-terminal engine reduction", ok,
                  f"phi in [{phi.min():.2e}, {phi.max():.6f}], wasteful all "
                  f"zero: {wasteful_zero}, engine cells={int(eng.sum())}, "
                  f"worst |phi - eta/eta_C| rel = {worst_eng:.3e}")


def test_criterion_6_resonance_ridge():
    template = make_config(th=0.8, tm=0.5, tc=0.2, wh=1.5, wc=0.6,
                           gh=0.05, gc=0.05, kh=0.02, kc=0.002)
    spec = tt.SweepSpec(template=template,
                        axis1=tt.Axis("drive_freq", 0.02, 0.80, 201),
                        axis2=tt.Axis("hot.center", 1.0, 2.0, 201))
    result = tt.run_sweep(spec)
    n1, n2 = result.shape
    phi = result.phi.reshape(n1, n2)
    codes = result.mode_codes.reshape(n1, n2)
    drive = result.axis1_values
    centers = result.axis2_values
    cell = centers[1] - centers[0]
    (slope, intercept), _ = tt.resonance_lines(spec)
    tracked = engine_cols = 0
    for i in range(n1):
        if not (codes[i] == ENGINE).any():
            continue
        engine_cols += 1
        ridge = centers[int(np.argmax(phi[i]))]
        if abs(ridge - (slope * drive[i] + intercept)) <= cell + 1e-12:
            tracked += 1
    frac = tracked / max(engine_cols, 1)
    ok = engine_cols > 50 and frac >= 0.80
    assert report(6, "max-phi ridge tracks the hot resonance", ok,
                  f"engine columns={engine_cols}, tracked={tracked} "
                  f"({100 * frac:.1f}%, need >= 80%)")


@pytest.fixture(scope="module")
def rich_map_template():
    # detuning 0.75, mid temperature 0.5; remaining parameters located by
    # scanning inside the quantum regime and frozen here
    return make_config(drive=0.3, th=0.6, tm=0.5, tc=0.2,
                       wh=1.5, wc=0.75, gh=0.05, gc=0.05, kh=0.02, kc=0.02)


def test_criterion_7_mode_richness(rich_map_template):
    t0 = time.perf_counter()
    spec = tt.SweepSpec(template=rich_map_template,
                        axis1=tt.Axis("drive_freq", 0.02, 0.95, 201),
                        axis2=tt.Axis("hot.center_locked", 0.80, 2.0, 201))
    result = tt.run_sweep(spec)
    modes = result.mode_set() - {OperatingMode.DEGENERATE}
    hybrids = modes & HYBRID_MODES

    # a single drive sweep of width 0.5 at hot.center = 1.13 crosses >= 3 modes
    cfg = tt.apply_params(rich_map_template,
                          {"hot.center": 1.13, "cold.center": 1.13 - 0.75})
    runs = tt.mode_sequence_along_omega(cfg, np.linspace(0.11, 0.61, 201))
    crossed = {m for (_, m) in runs if m is not OperatingMode.DEGENERATE}
    elapsed = time.perf_counter() - t0
    ok = (len(modes) >= 5 and len(hybrids) >= 1 and len(crossed) >= 3
          and elapsed < 120.0)
    assert report(7, "mode richness at detuning 0.75", ok,
                  f"map modes={sorted(m.value for m in modes)} "
                  f"({len(hybrids)} hybrid), sweep crosses "
                  f"{len(crossed)} modes, runtime={elapsed:.1f}s")


def test_criterion_8_two_terminal_restriction(rich_map_template):
    allowed = {OperatingMode.ENGINE, OperatingMode.HEAT_PUMP,
               OperatingMode.REFRIGERATOR_PUMP, OperatingMode.WASTEFUL}
    axis1 = tt.Axis("drive_freq", 0.02, 0.95, 201)
    axis2 = tt.Axis("hot.center_locked", 0.80, 2.0, 201)
    found = {}
    for name, params in (("cold off", {"cold.kappa": 0.0}),
                         ("hot off", {"hot.kappa": 0.0})):
        template = tt.apply_params(rich_map_template, params)
        result = tt.run_sweep(tt.SweepSpec(template=template, axis1=axis1,
                                           axis2=axis2))
        found[name] = result.mode_set()
    ok = all(modes <= allowed for modes in found.values())
    assert report(8, "two-terminal maps contain only four modes", ok,
                  "; ".join(f"{k}: {sorted(m.value for m in v)}"
                            for k, v in found.items()))


def test_criterion_9_transistor_comparison(search_results):
    _, three, two, elapsed = search_results
    w3 = three[0].score if three else 0.0
    w2 = two[0].score if two else 0.0
    ok = (0.05 <= w2 <= 0.3) and (w3 >= 2.0 * w2) and elapsed < 600.0
    assert report(9, "three- vs two-terminal window widths", ok,
                  f"3T={w3:.3f}, 2T={w2:.3f} (need 2T in [0.05, 0.3] and "
                  f"3T >= 2*2T), runtime={elapsed:.1f}s")


def test_criterion_10_gain_magnitude_and_fd_stability(search_results):
    template, three, _, _ = search_results
    max_gain = max(c.detail["max_gain"] for c in three)

    best = tt.apply_params(template, three[0].params)
    grid = np.linspace(0.02, 0.98, 481)
    trace = tt.transistor_trace(best, grid)
    # independent route: central differences (step 1e-5 * drive) of the
    # currents, evaluated without the kernel's slope columns
    h = 1e-5 * grid
    plus = tt.transistor_trace(best, grid + h)
    minus = tt.transistor_trace(best, grid - h)
    fd_g = np.abs((plus.j_hot - minus.j_hot) / (plus.power - minus.power))
    mask = np.abs(trace.dp_domega) > 1e-10
    worst = float(np.max(np.abs(fd_g[mask] - trace.g[mask]) / trace.g[mask]))
    ok = max_gain >= 1e3 and worst < 0.01
    assert report(10, "gain magnitude and finite-difference agreement", ok,
                  f"max in-window gain={max_gain:.2e} (need >= 1e3), worst "
                  f"analytic vs central-difference g={100 * worst:.4f}% "
                  f"(need < 1%)")


def test_criterion_11_determinism(tmp_path):
    import yaml
    config = {
        "drive_freq": 0.5,
        "wm": {"omega0": 1.0, "mass": 1.0},
        "hot": {"temperature": 0.8, "center": 1.5, "width": 0.05, "kappa": 0.01},
        "cold": {"temperature": 0.2, "center": 0.75, "width": 0.05, "kappa": 0.01},
        "mid": {"temperature": 0.5, "gamma_m": 0.1},
        "search": {
            "objective": "transistor_window",
            "omega_grid": {"start": 0.02, "stop": 0.98, "count": 121},
            "samples": 25, "refine_rounds": 1, "refine_samples": 10,
            "pool": 2, "top_k": 3,
            "vary": {"hot.temperature": {"min": 0.5, "max": 0.66},
                     "hot.center": {"min": 1.4, "max": 1.9}},
            "lock": {"cold.center": {"source": "hot.center"}},
        },
    }
    cfg_path = tmp_path / "machine.yaml"
    cfg_path.write_text(yaml.safe_dump(config))

    sweep_args = ["sweep", "--config", str(cfg_path),
                  "--axis1", "drive_freq:0.05:0.9:41",
                  "--axis2", "hot.center:1.0:2.0:23", "--json"]
    out1, out3, rerun = (tmp_path / n for n in ("t1.csv", "t3.csv", "rr.csv"))
    tiles = []

    def counting(*args, **kwargs):
        tiles.append(args)
        return thermo_batch(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        # tiles of 4 x 23 cells, so three threads share the 11 tiles
        mp.setattr(_kernels, "TILE_POINTS", 100)
        mp.setattr(sweep, "thermo_batch", counting)
        for workers, out in ((1, out1), (3, out3)):
            mp.setattr(_kernels, "_WORKERS", workers)
            assert cli_main(sweep_args + ["--out", str(out)]) == 0
    assert len(tiles) == 2 * 11
    threads_same = (out1.read_bytes() == out3.read_bytes()
                    and (tmp_path / "t1.csv.json").read_bytes()
                    == (tmp_path / "t3.csv.json").read_bytes())

    assert cli_main(["sweep", "--from-manifest", str(tmp_path / "t1.csv.manifest.json"),
                     "--out", str(rerun), "--json"]) == 0
    rerun_same = (out1.read_bytes() == rerun.read_bytes()
                  and (tmp_path / "t1.csv.json").read_bytes()
                  == (tmp_path / "rr.csv.json").read_bytes())

    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert cli_main(["search", "--config", str(cfg_path), "--seed", "13",
                     "--out", str(s1)]) == 0
    assert cli_main(["search", "--config", str(cfg_path), "--seed", "13",
                     "--out", str(s2)]) == 0
    search_same = s1.read_bytes() == s2.read_bytes()

    ok = threads_same and rerun_same and search_same
    assert report(11, "bitwise determinism across threads/reruns/seeds", ok,
                  f"threads={threads_same}, manifest rerun={rerun_same}, "
                  f"seeded search={search_same}")
