"""The kernel gives the same bits whatever the layout of its arguments:
0-d scalars, a flat batch, a ``(C, 1)`` x ``(1, n)`` block, or template
scalars against one swept column; and the scalar API equals its batch row."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
import yaml

import tritherm as tt
from tritherm import _kernels
from tritherm._kernels import COL_DJH, COL_DP, COL_JH, COL_P, COL_SNEG, COL_SPOS
from tritherm.cli import main
from tritherm.core import DomainError
from tritherm.modes import MODE_BY_CODE, classify_coupled_arrays, exergy_from_split
from tritherm.transistor import GAIN_RELIABLE_BAND, _figures

from conftest import config_from_params, make_config, random_valid_batch

ARG_NAMES = ("omega0", "mass", "drive_freq", "hot_temperature", "mid_temperature",
             "cold_temperature", "hot_center", "hot_width", "hot_kappa",
             "cold_center", "cold_width", "cold_kappa")
DRIVE = ARG_NAMES.index("drive_freq")


def block_args(candidates: dict, drives) -> list:
    """``(C, 1)`` columns of the candidates against a ``(1, n)`` drive row."""
    args = [np.asarray(candidates[name])[:, None] for name in ARG_NAMES]
    args[DRIVE] = np.asarray(drives)[None, :]
    return args


def flat_table(args, slopes) -> np.ndarray:
    """The kernel on contiguous full-size copies of broadcast ``args``."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    flat = [np.ascontiguousarray(np.broadcast_to(a, shape)).ravel() for a in args]
    return _kernels.thermo_batch(*flat, slopes=slopes).reshape(shape + (-1,))


def bits(*values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_layouts_agree(candidates: dict, drives, slopes, cells=200, seed=0):
    args = block_args(candidates, drives)
    want = flat_table(args, slopes)
    assert_bitwise(_kernels.thermo_batch(*args, slopes=slopes), want)
    # the sweep layout: template scalars against one swept column
    row = [np.float64(a[0, 0]) for a in args]
    row[DRIVE] = np.asarray(drives)
    assert_bitwise(_kernels.thermo_batch(*row, slopes=slopes), want[0])
    rng = np.random.default_rng(seed)
    for i, j in zip(rng.integers(0, want.shape[0], cells),
                    rng.integers(0, want.shape[1], cells)):
        point = [a[min(i, a.shape[0] - 1), min(j, a.shape[1] - 1)] for a in args]
        for scalar in (np.float64, float, np.array):
            scalars = list(map(scalar, point))
            assert_bitwise(_kernels.thermo_batch(*scalars, slopes=slopes),
                           want[i, j])


@pytest.mark.parametrize("slopes", [False, True])
class TestLayouts:
    def test_seeded_batch(self, slopes):
        # 250 candidates x 401 drives: 100250 points
        candidates = random_valid_batch(250, seed=2024)
        drives = np.random.default_rng(5).uniform(0.01, 0.99, 401)
        assert_layouts_agree(candidates, drives, slopes)

    def test_oracle_sets(self, reference_sets, slopes):
        params = [rec["params"] for rec in reference_sets]
        assert len(params) == 25
        args = [np.array([p[name] for p in params]) for name in ARG_NAMES]
        want = _kernels.thermo_batch(*args, slopes=slopes)
        for k, p in enumerate(params):
            # a one-point call runs on Python floats whatever it is given
            for scalar in (float, np.float64, np.array):
                scalars = [scalar(p[name]) for name in ARG_NAMES]
                assert_bitwise(_kernels.thermo_batch(*scalars, slopes=slopes), want[k])
            ones = [np.array([p[name]]) for name in ARG_NAMES]
            assert_bitwise(_kernels.thermo_batch(*ones, slopes=slopes), want[k:k + 1])

    def test_high_temperature_series_branch(self, slopes):
        # rows alternate between Bose arguments below and above the 1e-5
        # series cutoff, so one block takes both branches
        candidates = random_valid_batch(40, seed=77)
        hot = np.arange(40) % 2 == 0
        for name, t in (("hot_temperature", 4e5), ("mid_temperature", 3e5),
                        ("cold_temperature", 1e5)):
            candidates[name] = np.where(hot, t, candidates[name])
        drives = np.linspace(0.02, 0.98, 97)
        x = (1.0 + drives) / candidates["hot_temperature"][:, None]
        assert (x < _kernels._BOSE_CUTOFF).any() and (x > _kernels._BOSE_CUTOFF).any()
        assert_layouts_agree(candidates, drives, slopes, cells=100)

    def test_columns_are_contiguous(self, slopes):
        # the table is stored one array per quantity: each column of the
        # returned (..., ncols) view is contiguous, in every layout
        candidates = random_valid_batch(6, seed=3)
        drives = np.linspace(0.05, 0.95, 11)
        block = block_args(candidates, drives)
        flat = [np.ascontiguousarray(np.broadcast_to(a, (6, 11))).ravel() for a in block]
        # a sweep tile: template scalars against an axis1 column and an axis2 row
        tile = [np.float64(a[0, 0]) for a in block]
        tile[DRIVE] = drives[:, None]
        tile[ARG_NAMES.index("hot_center")] = np.linspace(1.0, 2.0, 7)[None, :]
        ncols = _kernels.NCOLS + 2 if slopes else _kernels.NCOLS
        for args, shape in ((flat, (66,)), (block, (6, 11)), (tile, (11, 7))):
            table = _kernels.thermo_batch(*args, slopes=slopes)
            assert table.shape == shape + (ncols,)
            for c in range(ncols):
                assert table[..., c].flags.c_contiguous

    def test_one_point_table_is_1d(self, slopes):
        batch = random_valid_batch(1, seed=3)
        table = _kernels.thermo_batch(*(float(batch[name][0]) for name in ARG_NAMES),
                                      slopes=slopes)
        assert table.shape == (_kernels.NCOLS + 2 if slopes else _kernels.NCOLS,)
        assert table.flags.c_contiguous

    def test_out_rows_of_a_larger_table(self, slopes):
        # a search stage: each block writes its rows into one stage table,
        # the template's values entering as scalars
        candidates = random_valid_batch(30, seed=11)
        drives = np.linspace(0.02, 0.98, 53)
        args = block_args(candidates, drives)
        for name in ("omega0", "mass", "hot_width", "cold_kappa"):
            args[ARG_NAMES.index(name)] = float(candidates[name][0])
        want = _kernels.thermo_batch(*args, slopes=slopes)
        ncols = want.shape[-1]
        stage = np.full((ncols, 40, 53), -1.0)
        for start in range(0, 30, 12):
            rows = slice(start, min(start + 12, 30))
            block = [a[rows] if np.ndim(a) and a.shape[0] == 30 else a for a in args]
            got = _kernels.thermo_batch(*block, slopes=slopes,
                                        out=stage[:, 5 + rows.start:5 + rows.stop])
            assert np.shares_memory(got, stage)
            assert_bitwise(got, want[rows])
        assert_bitwise(np.moveaxis(stage[:, 5:35], 0, -1), want)
        assert (stage[:, :5] == -1.0).all() and (stage[:, 35:] == -1.0).all()
        # arguments that vary along the drive only broadcast to every row
        one = [a[0, 0] if np.ndim(a) and a.shape[0] == 30 else a for a in args]
        assert_bitwise(_kernels.thermo_batch(*one, slopes=slopes, out=np.empty(
            (ncols, 3, 53))), np.broadcast_to(want[:1], (3, 53, ncols)))
        for bad in (np.empty((ncols, 30, 52)), np.empty((ncols + 1, 30, 53)),
                    np.empty((ncols, 53)), np.empty((ncols, 30, 53), dtype=np.float32),
                    np.empty((30, 53, ncols))):
            with pytest.raises(ValueError, match="out must be"):
                _kernels.thermo_batch(*args, slopes=slopes, out=bad)


class TestOnePoint:
    def test_bose_point_equals_array(self):
        # across the series cutoff and into the overflow of expm1
        grid = np.geomspace(1e-8, 1e3, 3001)
        assert grid.min() < _kernels._BOSE_CUTOFF < grid.max()
        with np.errstate(over="ignore"):
            assert np.isinf(np.expm1(grid)).any()
            batch = _kernels.bose_pos(grid)
            for scalar in (float, np.float64, np.array):
                points = [_kernels.bose_pos(scalar(x)) for x in grid.tolist()]
                assert bits(*points) == batch.tobytes()

    EXTREME = {
        # a drive of 5e-301 rounds the Bose argument w0 / Tm to an exact zero
        "zero_division": (1e-300, 1.0, 5e-301, 1e30, 1e20, 1e10,
                          1.5, 0.05, 0.01, 0.75, 0.05, 0.01),
        # a hot peak center and width of 1e200 give inf / inf
        "invalid": (1.0, 1.0, 0.5, 0.8, 0.5, 0.2, 1e200, 1e200, 0.01, 0.75, 0.05, 0.01),
    }

    @pytest.mark.parametrize("slopes", [False, True])
    @pytest.mark.parametrize("case", EXTREME)
    def test_extreme_point_reruns_on_numpy_scalars(self, case, slopes):
        args = self.EXTREME[case]
        out = np.empty(_kernels.NCOLS + 2 if slopes else _kernels.NCOLS)
        # on Python floats the case raises, or gives NaN without a warning
        if case == "zero_division":
            with pytest.raises(ZeroDivisionError):
                _kernels._thermo(*args, out)
        else:
            assert np.isnan(_kernels._thermo(*args, out)).any()
        with pytest.warns(RuntimeWarning) as point_warnings:
            got = _kernels.thermo_batch(*args, slopes=slopes)
        with pytest.warns(RuntimeWarning) as batch_warnings:
            want = _kernels.thermo_batch(*(np.array([a]) for a in args), slopes=slopes)
        assert np.isnan(got).any()
        assert_bitwise(got, want[0])
        # the same warnings as the batch, from numpy scalars
        assert ({str(w.message).replace("scalar ", "") for w in point_warnings}
                == {str(w.message) for w in batch_warnings})

    @pytest.mark.parametrize("case", EXTREME)
    def test_extreme_point_entry_points_raise(self, case, tmp_path, capsys):
        # validate() passes both configs with warnings only; the kernel row
        # holds NaN, so each one-point entry point refuses it as nonfinite
        cfg = config_from_params(dict(zip(ARG_NAMES, self.EXTREME[case])))
        assert cfg.validate()
        for entry in (tt.evaluate_point, tt.mode_report, tt.transistor_point):
            with pytest.warns(RuntimeWarning), pytest.raises(DomainError, match="nonfinite values"):
                entry(cfg)
        # the command runs with numpy's warnings off (a RuntimeWarning would
        # raise here) and prints the config's warnings and the error only
        path = tmp_path / "extreme.yaml"
        path.write_text(yaml.safe_dump(cfg.to_dict()))
        assert main(["point", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            *(f"warning: {w}" for w in cfg.validate()),
            "error: the closed forms give nonfinite values at this operating point; the "
            "config's parameters over- or underflow double precision"]


class TestSquares:
    def test_scalar_square_differs_from_product_but_kernel_does_not(self):
        # ``np.float64(q) ** 2`` calls pow, which misses the correctly rounded
        # ``q * q`` on some arguments; the kernel squares by multiplying
        rng = np.random.default_rng(12)
        s, w = rng.uniform(0.02, 2.5, (2, 20000))
        q = s * s - w * w
        assert_bitwise(q ** 2, q * q)   # the array square is the product
        hit = [k for k in range(q.size) if np.float64(q[k]) ** 2 != q[k] * q[k]]
        assert hit
        k = hit[0]
        args = (1.0, 1.0, w[k], 0.05, 0.01)   # w0, m, w, g, kappa
        scalar = _kernels._spectrum(*[np.float64(s[k])] * 2, *map(np.float64, args), True)
        array = _kernels._spectrum(*[s[k:k + 1]] * 2, *(np.array([a]) for a in args), True)
        for got, want in zip(scalar, array):
            assert np.float64(got).tobytes() == want.tobytes()


def zero_detuning(candidates: dict) -> dict:
    """The candidates with the cold bath's spectrum made the hot one's."""
    return {**candidates, **{f"cold_{a}": candidates[f"hot_{a}"].copy()
                             for a in ("center", "width", "kappa")}}


def unshared(monkeypatch):
    """Make every later kernel call compute each bath's spectrum itself."""
    monkeypatch.setattr(_kernels, "_same_bits", lambda a, b: False)


@pytest.mark.parametrize("slopes", [False, True])
class TestSharedSpectrum:
    """Baths with the same bits of center, width and kappa share one
    spectrum, and the table keeps the bits of two separate ones."""

    def test_block_equals_points_and_unshared_block(self, slopes, monkeypatch):
        candidates = zero_detuning(random_valid_batch(60, seed=8))
        drives = np.linspace(0.02, 0.98, 41)
        args = block_args(candidates, drives)
        shared = _kernels.thermo_batch(*args, slopes=slopes)
        assert_layouts_agree(candidates, drives, slopes, cells=100)
        unshared(monkeypatch)
        assert_bitwise(shared, _kernels.thermo_batch(*args, slopes=slopes))

    @pytest.mark.parametrize("kappas", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_kappas_are_not_shared(self, slopes, kappas, monkeypatch):
        # 0.0 == -0.0, but a bath with kappa -0.0 gives -0.0 currents
        candidates = zero_detuning(random_valid_batch(20, seed=9))
        candidates["hot_kappa"][:] = kappas[0]
        candidates["cold_kappa"][:] = kappas[1]
        args = block_args(candidates, np.linspace(0.02, 0.98, 9))
        point = [float(a[0, 0]) for a in args]
        point[DRIVE] = 0.3
        got = (_kernels.thermo_batch(*args, slopes=slopes),
               _kernels.thermo_batch(*point, slopes=slopes))
        unshared(monkeypatch)
        for table, want in zip(got, (_kernels.thermo_batch(*args, slopes=slopes),
                                     _kernels.thermo_batch(*point, slopes=slopes))):
            assert_bitwise(table, want)
        # sharing by value would change the sign of some zero
        monkeypatch.setattr(_kernels, "_same_bits", lambda a, b: np.array_equal(a, b))
        assert (_kernels.thermo_batch(*args, slopes=slopes).tobytes()
                != got[0].tobytes())

    @pytest.mark.parametrize("detuned, calls", [(False, 2), (True, 4)])
    def test_one_lorentzian_per_sideband_and_spectrum(self, slopes, detuned, calls,
                                                      monkeypatch):
        candidates = zero_detuning(random_valid_batch(30, seed=10))
        if detuned:
            candidates["cold_center"] = candidates["cold_center"] * 0.5
        seen = []

        def counted(*a):
            seen.append(1)
            return lorentzian(*a)

        lorentzian = _kernels.lorentzian
        monkeypatch.setattr(_kernels, "lorentzian", counted)
        args = block_args(candidates, np.linspace(0.02, 0.98, 17))
        _kernels.thermo_batch(*args, slopes=slopes)
        assert len(seen) == calls
        # a point with equal floats, and a block with one argument object
        # for both baths
        del seen[:]
        _kernels.thermo_batch(*(float(a[0, 0]) for a in args), slopes=slopes)
        assert len(seen) == calls
        if not detuned:
            del seen[:]
            args[ARG_NAMES.index("cold_center")] = args[ARG_NAMES.index("hot_center")]
            _kernels.thermo_batch(*args, slopes=slopes)
            assert len(seen) == 2


class TestSameBits:
    @pytest.mark.parametrize("a, b, same", [
        (0.5, 0.5, True), (0.0, 0.0, True), (0.0, -0.0, False), (-0.0, -0.0, True),
        (0.5, 0.25, False), (float("nan"), float("nan"), False),
        (np.float64(-0.0), 0.0, False), (0.5, np.array([0.5]), False),
        (np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]]), True),
        (np.array([[0.0, 1.0]]), np.array([[-0.0, 1.0]]), False),
        (np.array([0.5, 0.5]), np.array([[0.5, 0.5]]), False)])
    def test_bits_not_values(self, a, b, same):
        assert _kernels._same_bits(a, b) is same
        assert _kernels._same_bits(b, a) is same


class TestBose:
    @staticmethod
    def select_form(x):
        small = x < _kernels._BOSE_CUTOFF
        n = 1.0 / np.expm1(np.where(small, 1.0, x))
        n[small] = 1.0 / x[small] - 0.5 + x[small] / 12.0
        return n

    @pytest.mark.parametrize("x", [np.geomspace(1e-3, 800.0, 1001),
                                   np.geomspace(1e-8, 800.0, 1001),
                                   np.geomspace(1e-12, 9e-6, 1001)],
                             ids=["all_large", "mixed", "all_small"])
    def test_bits_of_the_select_form_and_of_points(self, x):
        with np.errstate(over="ignore"):
            got = _kernels.bose_pos(x)
            assert_bitwise(got, self.select_form(x))
            assert_bitwise(got[None, :], _kernels.bose_pos(x[None, :]))
            assert bits(*(_kernels.bose_pos(v) for v in x.tolist())) == got.tobytes()


class TestEntropySplit:
    def test_arrays_equal_the_float_path_bitwise(self):
        # finite terms of both signs and signed zeros, clipped on arrays and
        # multiplied by a comparison on floats
        rng = np.random.default_rng(4)
        values = rng.choice([-1.5e-3, -0.0, 0.0, 2e-4, 7e-3], size=(3, 2000))
        values *= rng.uniform(0.5, 2.0, size=values.shape)
        temps = (0.9, 0.5, 0.2)
        table = _kernels.entropy_split(*values, *temps)
        for k in range(values.shape[1]):
            point = _kernels.entropy_split(*values[:, k].tolist(), *temps)
            assert bits(*point) == bits(*(column[k] for column in table))

    def test_equals_the_where_form_bitwise(self):
        # kappa = 0 rows give -0.0 balance terms, which must split as +0.0
        batch = random_valid_batch(20000, seed=41)
        batch["hot_kappa"][::7] = 0.0
        batch["cold_kappa"][3::11] = 0.0
        table = _kernels.thermo_batch(*(batch[name] for name in ARG_NAMES))
        tm = batch["mid_temperature"]
        terms = (table[:, COL_P] / tm,
                 (table[:, 1] / tm) * (1.0 - tm / batch["cold_temperature"]),
                 (table[:, COL_JH] / tm) * (1.0 - tm / batch["hot_temperature"]))
        assert any((np.signbit(t) & (t == 0.0)).any() for t in terms)
        assert_bitwise(table[:, COL_SPOS], sum(np.where(t > 0.0, t, 0.0) for t in terms))
        assert_bitwise(table[:, COL_SNEG], sum(np.where(t < 0.0, t, 0.0) for t in terms))


class TestScalarApi:
    def test_point_report_and_transistor_equal_batch_row(self):
        n = 5000
        batch = random_valid_batch(n, seed=31337)
        batch["hot_kappa"][::7] = 0.0    # reduced taxonomies too
        batch["cold_kappa"][3::11] = 0.0
        args = [batch[name] for name in ARG_NAMES]
        table = _kernels.thermo_batch(*args, slopes=True)
        codes = classify_coupled_arrays(batch["hot_kappa"], batch["cold_kappa"],
                                        *(table[:, c] for c in range(4)))
        r, g = _figures(table)
        phi = exergy_from_split(table[:, COL_SPOS], table[:, COL_SNEG])
        for k in range(n):
            cfg = config_from_params({name: float(batch[name][k]) for name in ARG_NAMES})
            row = table[k]
            point = tt.evaluate_point(cfg)
            assert bits(*dataclasses.astuple(point)) == row[:_kernels.NCOLS].tobytes()
            report = tt.mode_report(cfg)
            assert report.point == point and report.mode is MODE_BY_CODE[codes[k]]
            # the sign of a zero phi included
            assert bits(report.exergy) == bits(phi[k])
            temps = (cfg.hot.temperature, cfg.mid.temperature, cfg.cold.temperature)
            _, pos, neg = _kernels.entropy_split(point.power, point.j_hot,
                                                 point.j_cold, *temps)
            assert bits(float(exergy_from_split(pos, neg))) == bits(phi[k])
            tp = tt.transistor_point(cfg)
            assert bits(tp.r, tp.g, tp.djh_domega, tp.dp_domega, tp.j_hot, tp.power) \
                == bits(r[k], g[k], *row[[COL_DJH, COL_DP, COL_JH, COL_P]])
            assert tp.g_reliable == (abs(row[COL_DP]) >= GAIN_RELIABLE_BAND)

    def test_transistor_point_equals_trace_row(self):
        cfg = make_config(drive=0.37)
        tp = tt.transistor_point(cfg)
        trace = tt.transistor_trace(cfg, [0.37])
        assert bits(tp.r, tp.g, tp.djh_domega, tp.dp_domega) == bits(
            trace.r[0], trace.g[0], trace.djh_domega[0], trace.dp_domega[0])


class TestMapBlocks:
    """``map_blocks(fn, items)`` is ``[fn(x) for x in items]`` for every
    thread count."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_back_in_item_order(self, monkeypatch, workers):
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        threads = set()

        def fn(x):
            threads.add(threading.get_ident())
            time.sleep(0.002 * (x % 3))   # uneven items finish out of order
            return x * x

        assert _kernels.map_blocks(fn, range(20)) == [x * x for x in range(20)]
        assert len(threads) == workers
        assert threading.get_ident() in threads   # the caller works too

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_failing_item_raises_and_nothing_starts_after(
            self, monkeypatch, workers):
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        started = []

        def fn(x):
            started.append(x)
            if x in (2, 5):
                raise ValueError(x)
            time.sleep(0.02)
            return x

        with pytest.raises(ValueError) as exc:
            _kernels.map_blocks(fn, range(12))
        assert exc.value.args == (2,)
        # items start in order, so 0 and 1 ran; once item 2 has failed each
        # thread starts at most the item it already holds
        assert {0, 1, 2} <= set(started) and max(started) <= 2 + workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_lowest_failing_item_wins_over_an_earlier_failure(self, monkeypatch, workers):
        # item 2 fails at once while item 1 is still running, then item 1 fails
        monkeypatch.setattr(_kernels, "_WORKERS", workers)

        def fn(x):
            if x == 1:
                time.sleep(0.05)
            if x in (1, 2):
                raise ValueError(x)

        with pytest.raises(ValueError) as exc:
            _kernels.map_blocks(fn, range(6))
        assert exc.value.args == (1,)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("divide", ["raise", "call"])
    def test_helpers_keep_the_callers_errstate(self, monkeypatch, workers, divide):
        monkeypatch.setattr(_kernels, "_WORKERS", workers)
        signalled = []   # one thread id per division by zero that numpy reported

        def fn(x):
            time.sleep(0.01)   # every thread gets an item
            try:
                np.divide(np.ones(1), 0.0)
            except FloatingPointError:
                signalled.append(threading.get_ident())

        with np.errstate(divide=divide,
                         call=lambda kind, flag: signalled.append(threading.get_ident())):
            _kernels.map_blocks(fn, range(4 * workers))
        assert len(signalled) == 4 * workers and len(set(signalled)) == workers

    def test_each_item_runs_once_under_fast_switching(self, monkeypatch):
        # more threads than this host has CPUs, switching every microsecond:
        # a lost update of the shared counter would run an item twice or
        # not at all
        monkeypatch.setattr(_kernels, "_WORKERS", 4)
        runs = [0] * 5000
        out = []

        def fn(x):
            runs[x] += 1
            return -x

        def call():
            out.append(_kernels.map_blocks(fn, range(len(runs))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(target=call)
            caller.start()
            caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive()
        assert runs == [1] * len(runs)
        assert out == [[-x for x in range(len(runs))]]
