import itertools
import warnings

import numpy as np
import pytest

import tritherm as tt
from tritherm import modes
from tritherm._kernels import entropy_split
from tritherm.core import ConsistencyError, DomainError
from tritherm.currents import ThermoPoint
from tritherm.modes import (MODE_BY_CODE, OperatingMode, classify_arrays,
                            classify_coupled_arrays, exergy_from_split)

from conftest import make_config, random_valid_batch


def point_from_signs(jh, jc, p):
    jm = -p - jh - jc
    return ThermoPoint(j_hot=jh, j_cold=jc, j_mid=jm, power=p,
                       entropy_rate=0.0, entropy_pos=0.0, entropy_neg=0.0)


# coupling pairs of the two reduced taxonomies: one Lorentzian bath on
HOT_ONLY, COLD_ONLY = (1.0, 0.0), (0.0, 1.0)


def full_mode(point):
    """The full three-sign mode of a point, by ``classify_arrays``."""
    return MODE_BY_CODE[classify_arrays(point.j_hot, point.j_cold, point.power)]


def reduced_mode(point, kappas):
    """The mode of a point under the taxonomy of the coupling pair ``kappas``."""
    return MODE_BY_CODE[classify_coupled_arrays(*kappas, point.j_hot, point.j_cold,
                                                point.j_mid, point.power)]


def exergy(point, temps):
    """``exergy_from_split`` of the entropy split the kernel stores for the
    point's currents at ``temps = (t_hot, t_mid, t_cold)``."""
    _, pos, neg = entropy_split(point.power, point.j_hot, point.j_cold, *temps)
    return float(exergy_from_split(pos, neg))


class TestClassify:
    @pytest.mark.parametrize("signs,expected", [
        ((+1.0, -0.5, -0.2), OperatingMode.ENGINE),
        ((+1.0, +0.5, +0.2), OperatingMode.REFRIGERATOR),
        ((-1.0, -0.5, +0.2), OperatingMode.HEAT_PUMP),
        ((+1.0, +0.2, -0.3), OperatingMode.ENGINE_REFRIGERATOR),
        ((-1.0, -0.5, -0.2), OperatingMode.ENGINE_PUMP),
        ((-1.0, +0.5, +0.2), OperatingMode.REFRIGERATOR_PUMP),
        ((+1.0, -0.5, +0.2), OperatingMode.WASTEFUL),
    ])
    def test_octants(self, signs, expected):
        assert full_mode(point_from_signs(*signs)) is expected

    def test_forbidden_octant_raises(self):
        with pytest.raises(ConsistencyError):
            full_mode(point_from_signs(-0.1, +0.05, -0.01))

    def test_zero_band_is_degenerate(self):
        assert full_mode(point_from_signs(5e-15, -0.5, 0.2)) is OperatingMode.DEGENERATE
        assert full_mode(point_from_signs(1.0, -1e-15, 0.2)) is OperatingMode.DEGENERATE
        assert full_mode(point_from_signs(1.0, -0.5, 0.0)) is OperatingMode.DEGENERATE

    def test_labels_are_stable_strings(self):
        assert [m.value for m in OperatingMode] == [
            "engine", "refrigerator", "heat_pump", "engine_refrigerator",
            "engine_pump", "refrigerator_pump", "wasteful", "degenerate"]

    def test_arrays_match_scalar(self):
        batch = random_valid_batch(5000, seed=3)
        out = tt.evaluate_arrays(**batch)
        codes = classify_arrays(out.j_hot, out.j_cold, out.power)
        for k in (0, 17, 512, 4999):
            point = ThermoPoint(out.j_hot[k], out.j_cold[k], out.j_mid[k],
                                out.power[k], out.entropy_rate[k],
                                out.entropy_pos[k], out.entropy_neg[k])
            assert full_mode(point) is tuple(OperatingMode)[codes[k]]

    def test_no_forbidden_octants_in_random_sample(self):
        batch = random_valid_batch(50000, seed=11)
        out = tt.evaluate_arrays(**batch)
        classify_arrays(out.j_hot, out.j_cold, out.power)  # must not raise


class TestReducedClassify:
    @pytest.mark.parametrize("triple,expected", [
        ((+1.0, -0.5, -0.2), OperatingMode.ENGINE),
        ((-1.0, -0.5, +0.2), OperatingMode.HEAT_PUMP),
        ((-1.0, +0.5, +0.2), OperatingMode.REFRIGERATOR_PUMP),
        ((+1.0, -0.5, +0.2), OperatingMode.WASTEFUL),
    ])
    def test_lorentzian_hot(self, triple, expected):
        jh, jm, p = triple
        point = ThermoPoint(j_hot=jh, j_cold=0.0, j_mid=jm, power=p,
                            entropy_rate=0.0, entropy_pos=0.0, entropy_neg=0.0)
        assert reduced_mode(point, HOT_ONLY) is expected

    def test_lorentzian_cold(self):
        # mid plays the hot role: (j_mid, j_cold, power)
        point = ThermoPoint(j_hot=0.0, j_cold=0.5, j_mid=-1.0, power=0.2,
                            entropy_rate=0.0, entropy_pos=0.0, entropy_neg=0.0)
        assert reduced_mode(point, COLD_ONLY) is OperatingMode.REFRIGERATOR_PUMP

    def test_coupled_arrays_choose_taxonomy_per_row(self):
        # one row per coupling pair, as in a block of search candidates
        kappas = [(0.01, 0.01), (0.01, 0.0), (0.0, 0.01), (0.0, 0.0)]
        grid = np.linspace(0.05, 0.95, 37)
        configs = [[make_config(drive=w, kh=kh, kc=kc) for w in grid]
                   for kh, kc in kappas]
        points = [[tt.evaluate_point(c) for c in row] for row in configs]
        kh, kc = np.array(kappas).T
        codes = classify_coupled_arrays(
            kh[:, None], kc[:, None],
            *(np.array([[getattr(p, f) for p in row] for row in points])
              for f in ("j_hot", "j_cold", "j_mid", "power")))
        assert codes.shape == (len(kappas), grid.size)
        assert [[MODE_BY_CODE[c] for c in row] for row in codes] == \
            [[tt.mode_report(c).mode for c in row] for row in configs]

    def test_full_classify_is_degenerate_for_reduced_machine(self):
        for config, kappas in ((make_config(kc=0.0), HOT_ONLY),
                               (make_config(kh=0.0), COLD_ONLY)):
            point = tt.evaluate_point(config)
            assert full_mode(point) is OperatingMode.DEGENERATE
            assert reduced_mode(point, kappas) is not OperatingMode.DEGENERATE
            assert tt.mode_report(config).mode is reduced_mode(point, kappas)


class TestExergy:
    def test_wasteful_point_has_zero_exergy(self):
        point = point_from_signs(+1.0, -0.5, +0.2)
        assert exergy(point, (0.8, 0.5, 0.2)) == 0.0

    def test_zero_negative_split_gives_zero(self):
        point = point_from_signs(+1.0, -0.5, +0.2)
        assert exergy(point, (0.8, 0.5, 0.2)) == 0.0

    def test_reference_value(self):
        # step-function form at P=-0.01, J_h=1, J_c=-0.4 with (0.8, 0.5, 0.2):
        # useful = -P, resource = J_c(1-Tm/Tc) + J_h(1-Tm/Th) = 1.2 + 0.75
        point = point_from_signs(+1.0, -0.4, -0.01)
        assert exergy(point, (0.8, 0.5, 0.2)) == pytest.approx(
            0.01025641025641025641, rel=1e-14)

    def test_matches_stored_split(self, default_config):
        point = tt.evaluate_point(default_config)
        temps = (0.8, 0.5, 0.2)
        from_split = -point.entropy_neg / point.entropy_pos
        assert exergy(point, temps) == pytest.approx(
            from_split, rel=1e-12)

    def test_no_positive_split_raises(self):
        # all balance terms <= 0 and one < 0: entropy rate would be negative
        point = point_from_signs(-1.0, 0.0, -0.01)
        with pytest.raises(ConsistencyError):
            exergy(point, (0.8, 0.5, 0.2))

    def test_large_violation_raises(self):
        point = point_from_signs(+1.0, +10.0, -0.3)
        with pytest.raises(ConsistencyError):
            exergy(point, (0.8, 0.5, 0.2))

    def test_split_clamps_rounding_above_one(self):
        phi = exergy_from_split([1.0, 1.0, 2.0], [-1.0 - 5e-13, -0.5, -1.0])
        assert phi.tolist() == [1.0, 0.5, 0.5]

    @pytest.mark.parametrize("pos, neg", [
        (1.0, -1.0 - 1e-11), (np.array([1.0, 1.0]), np.array([-0.5, -3.0]))])
    def test_split_beyond_clamp_band_raises(self, pos, neg):
        with pytest.raises(ConsistencyError, match="exceeds 1"):
            exergy_from_split(pos, neg)

    @pytest.mark.parametrize("pos", [0.0, -0.0])
    def test_split_without_resource_raises(self, pos):
        with pytest.raises(ConsistencyError, match="negative"):
            exergy_from_split(pos, -1e-3)
        with pytest.raises(ConsistencyError):
            exergy_from_split(np.array([1.0, pos]), np.array([-0.5, -1e-3]))

    def test_no_useful_task_is_positive_zero(self):
        phi = exergy_from_split([1e-3, 0.0, 0.0], [0.0, 0.0, -0.0])
        assert phi.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(phi).any()

    def test_bounds_on_random_sample(self):
        batch = random_valid_batch(50000, seed=77)
        out = tt.evaluate_arrays(**batch)
        phi = exergy_from_split(out.entropy_pos, out.entropy_neg)
        assert phi.min() >= 0.0
        assert phi.max() <= 1.0
        codes = classify_arrays(out.j_hot, out.j_cold, out.power)
        wasteful = codes == list(OperatingMode).index(OperatingMode.WASTEFUL)
        assert np.all(phi[wasteful] == 0.0)

    def test_two_terminal_engine_reduces_to_carnot_normalized_efficiency(self):
        # cold coupling off; scan drives for engine cells and compare phi
        # with (-P/J_h) / (1 - Tm/Th)
        cfg = make_config(kc=0.0, th=0.8, tm=0.5, tc=0.2, wh=1.5)
        found = 0
        for drive in np.linspace(0.05, 0.95, 46):
            c = tt.apply_params(cfg, {"drive_freq": float(drive)})
            report = tt.mode_report(c)
            if report.mode is OperatingMode.ENGINE:
                point = report.point
                eta = -point.power / point.j_hot
                eta_c = 1.0 - 0.5 / 0.8
                assert report.exergy == pytest.approx(eta / eta_c, rel=1e-10)
                found += 1
        assert found > 3


class TestModeReport:
    def test_three_terminal_report(self, default_config):
        report = tt.mode_report(default_config)
        assert report.mode is OperatingMode.ENGINE
        assert 0.0 <= report.exergy <= 1.0

    def test_reduced_report_uses_two_terminal_taxonomy(self):
        report = tt.mode_report(make_config(kc=0.0))
        assert report.mode in (OperatingMode.ENGINE, OperatingMode.HEAT_PUMP,
                               OperatingMode.REFRIGERATOR_PUMP,
                               OperatingMode.WASTEFUL)

    def test_to_dict(self, default_config):
        d = tt.mode_report(default_config).to_dict()
        assert set(d) == {"point", "mode", "exergy"}
        assert isinstance(d["mode"], str)


class TestNonfiniteInput:
    """NaN and infinities have no sign and no place in the entropy split:
    the public functions name the argument that holds one."""

    NAN, INF = float("nan"), float("inf")

    def test_nan_current_is_rejected(self):
        with pytest.raises(DomainError, match="j_hot must be finite"):
            classify_arrays(self.NAN, 1e-3, 1e-3)

    def test_all_nan_input_is_rejected(self):
        with pytest.raises(DomainError, match="j_hot must be finite, got 3"):
            classify_arrays(np.full(3, self.NAN), np.full(3, self.NAN), np.full(3, self.NAN))

    @pytest.mark.parametrize("kappa", [NAN, INF])
    def test_nonfinite_hot_kappa_is_rejected(self, kappa):
        with pytest.raises(DomainError, match="hot_kappa must be finite"):
            classify_coupled_arrays(kappa, 0.01, 1.0, -0.5, -0.3, -0.2)
        with pytest.raises(DomainError, match="hot_kappa must be finite, got 1"):
            classify_coupled_arrays(np.array([[0.01], [kappa]]), 0.01,
                                    1.0, -0.5, -0.3, np.array([-0.2, 0.2]))

    def test_nan_negative_split_is_rejected(self):
        with pytest.raises(DomainError, match="entropy_neg must be finite"):
            exergy_from_split(1.0, self.NAN)

    def test_infinite_split_is_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="entropy_pos must be finite"):
                exergy_from_split(self.INF, -self.INF)
            with pytest.raises(DomainError, match="entropy_pos must be finite"):
                exergy_from_split(np.array([1.0, self.INF]), np.array([-0.5, -self.INF]))

    def test_nan_positive_split_names_it_before_the_second_law(self):
        with pytest.raises(DomainError, match="entropy_pos must be finite"):
            exergy_from_split(self.NAN, -1.0)

    def test_table_helpers_pass_nan_rows(self):
        # a sweep's blanked error rows get a code, which the sweep replaces
        # with ERROR_CODE, and a NaN phi, without an error
        nan_row = np.full((1, 7), self.NAN)
        assert modes.classify_table(nan_row, 0.01, 0.01).shape == (1,)
        assert np.isnan(modes._exergy(nan_row[:, 5], nan_row[:, 6])).all()


def _outcome(fn, *args):
    """``fn(*args)`` as ``(int code or phi bits, None)``, or ``(None, the
    error's type and message)``."""
    try:
        value = fn(*args)
    except (ConsistencyError, DomainError) as exc:
        return None, (type(exc), str(exc))
    value = np.asarray(value).reshape(-1)
    assert value.size == 1
    return (int(value[0]) if value.dtype.kind == "i" else value.tobytes()), None


def _forms(*values):
    """One operating point's arguments as Python floats, as numpy scalars,
    as 0-d arrays and as arrays of one element."""
    return (tuple(float(v) for v in values), tuple(np.float64(v) for v in values),
            tuple(np.array(v) for v in values), tuple(np.array([v]) for v in values))


_BAND = tt.SIGN_ZERO_BAND
# the band's edges and one ulp either side, signed zeros and subnormals
_EDGES = sorted({x for b in (_BAND, -_BAND) for x in
                 (b, np.nextafter(b, np.inf), np.nextafter(b, -np.inf))}
                | {0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0})


class TestFloatPathIdentity:
    """A point's Python floats, numpy scalars, 0-d arrays and arrays of one
    element take different paths; each gives the same code, ``phi`` bits
    and error."""

    @pytest.mark.parametrize("kappas", [(0.01, 0.01), (0.01, 0.0), (-0.0, 0.01),
                                        (0.0, -0.0)])
    def test_codes_at_band_edges(self, kappas):
        allowed = []
        for a, b, p in itertools.product(_EDGES, repeat=3):
            point = (a, b, -a - b - p, p)   # j_hot, j_cold, j_mid, power
            outcomes = {_outcome(classify_coupled_arrays, *form)
                        for form in _forms(*kappas, *point)}
            assert len(outcomes) == 1, (point, outcomes)
            (code, error), = outcomes
            if error is None:
                allowed.append((point, code))
        # the allowed points as one block: each gets its code as alone
        assert allowed
        codes = classify_coupled_arrays(*kappas, *np.array([p for p, _ in allowed]).T)
        assert codes.tolist() == [code for _, code in allowed]

    def test_forbidden_octant_message_is_the_same(self):
        outcomes = {_outcome(classify_arrays, *form) for form in _forms(-0.1, 0.05, -0.01)}
        assert outcomes == {(None, (ConsistencyError, "1 point(s) fall in the entropically "
                                    "forbidden octant (j_hot<0, j_cold>0, power<0)"))}

    def test_per_row_kappa_arrays_equal_floats(self):
        kh = np.array([0.01, 0.0, 0.01, -0.0, 0.0])[:, None]
        kc = np.array([0.01, 0.01, 0.0, 0.01, -0.0])[:, None]
        rng = np.random.default_rng(5)
        jh, jc = rng.normal(size=(2, 5, 40)) * 10.0 ** rng.integers(-16, -12, (2, 5, 40))
        p = np.abs(rng.normal(size=(5, 40))) * 1e-14   # keeps off the forbidden octant
        jm = -p - jh - jc
        codes = classify_coupled_arrays(kh, kc, jh, jc, jm, p)
        for i, j in np.ndindex(codes.shape):
            assert codes[i, j] == classify_coupled_arrays(
                float(kh[i, 0]), float(kc[i, 0]), *(float(x[i, j]) for x in (jh, jc, jm, p)))

    def test_float_path_types(self):
        code = classify_coupled_arrays(0.01, 0.01, 1.0, -0.5, -0.3, -0.2)
        phi = exergy_from_split(1.0, -0.5)
        assert type(code) is np.int8 and type(phi) is np.float64

    @pytest.mark.parametrize("pos", [0.0, -0.0, 5e-324, 1e-14, 1.0, 2.0, -1.0])
    @pytest.mark.parametrize("neg", [0.0, -0.0, -5e-324, -1e-14, -0.5, -1.0,
                                     -1.0 - 5e-13, -1.0 - 1e-12, -1.0 - 2e-12, -2.0,
                                     1.0])
    def test_exergy_bits_and_errors(self, pos, neg):
        # a quotient that overflows (-1e-14 / 5e-324) warns on numpy's
        # arithmetic before "exceeds 1" is raised
        with np.errstate(over="ignore"):
            outcomes = {_outcome(exergy_from_split, *form) for form in _forms(pos, neg)}
        assert len(outcomes) == 1, outcomes

    def test_mode_report_equals_array_path(self, default_config):
        for config in (default_config, make_config(kh=0.0), make_config(kc=0.0),
                       make_config(kc=-0.0), make_config(drive=0.9)):
            point = tt.evaluate_point(config)
            report = tt.mode_report(config)
            code = modes._classify(np.array([config.hot.kappa]), np.array([config.cold.kappa]),
                                   *(np.array([getattr(point, f)]) for f in
                                     ("j_hot", "j_cold", "j_mid", "power")))
            phi = modes._exergy(np.array([point.entropy_pos]), np.array([point.entropy_neg]))
            assert report.mode is MODE_BY_CODE[code[0]]
            assert np.float64(report.exergy).tobytes() == phi.tobytes()
