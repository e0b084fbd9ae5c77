"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, then exposes a list
of operations that make up one *pass*; the runner in ``child.py`` repeats
passes for the measured time.  An operation returns its output, a digest of
that output (for the determinism and traced-vs-untraced comparisons) and,
when asked, the problems its output checks found.

Grids and configs are fixed; the seed only picks scalar configs, search
seeds and the spot cells checked against ``evaluate_point``.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil

import numpy as np
import yaml

import checks

DEFAULT_CONFIG = "configs/default.yaml"
SEARCH_CONFIG = "configs/transistor_search.yaml"
REFERENCE_SETS = "tests/data/reference_currents.json"

OBJECTIVES = ("transistor_window", "mode_sequence")


@dataclasses.dataclass
class Op:
    """One timed operation: ``run()`` is timed, ``digest``/``check`` are not."""

    run: object
    digest: object
    check: object
    span: str | None = None


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
    return h.hexdigest()


def _load_yaml(root, rel):
    with open(os.path.join(root, rel)) as fh:
        return yaml.safe_load(fh)


def input_digests(root) -> dict:
    """sha256 of the repository files the workloads read, so input changes show."""
    out = {}
    for rel in (DEFAULT_CONFIG, SEARCH_CONFIG, REFERENCE_SETS):
        with open(os.path.join(root, rel), "rb") as fh:
            out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def search_spec(tt, section: dict):
    """SearchSpec from the ``search`` section of a YAML config.

    Parsed here through the public ``SearchSpec``/``VaryRange``/``LockRule``
    so that the benchmark does not depend on where the program keeps its own
    (private) parser.
    """
    grid = section.get("omega_grid") or {}
    vary = {name: tt.VaryRange(low=float(r["min"]), high=float(r["max"]),
                               scale=r.get("scale", "linear"))
            for name, r in section["vary"].items()}
    lock = {name: tt.LockRule(source=r["source"], offset=float(r.get("offset", 0.0)))
            for name, r in (section.get("lock") or {}).items()}
    return tt.SearchSpec(
        objective=section.get("objective", "transistor_window"),
        vary=vary, lock=lock,
        omega_start=float(grid.get("start", 0.02)),
        omega_stop=float(grid.get("stop", 0.98)),
        omega_count=int(grid.get("count", 481)),
        threshold=float(section.get("threshold", 10.0)),
        samples=int(section.get("samples", 200)),
        refine_rounds=int(section.get("refine_rounds", 2)),
        refine_samples=int(section.get("refine_samples", 40)),
        pool=int(section.get("pool", 3)),
        shrink=float(section.get("shrink", 0.25)),
        top_k=int(section.get("top_k", 5)))


class Workload:
    #: what one latency sample is: a whole pass, or one operation
    call = "pass"
    #: the host-speed probe that calibrates this workload's times (calib.py)
    probe = "interp"
    #: seconds between probe readings taken while an operation runs, or None
    sample_every = 0.05

    def __init__(self, tt, root, seed, smoke):
        self.tt = tt
        self.root = root
        self.smoke = smoke
        self.rng = np.random.default_rng(seed)

    def ops(self) -> list:
        raise NotImplementedError

    def final_checks(self) -> list:
        """Untimed operations run once after the passes; lists of problems."""
        return []

    def close(self):
        pass


class MapCompute(Workload):
    """``run_sweep`` on a fixed drive x hot-center grid, kept in memory."""

    SPOT_CELLS = 8

    def __init__(self, *a):
        super().__init__(*a)
        tt = self.tt
        n = 41 if self.smoke else 1001
        self.template = tt.MachineConfig.from_dict(_load_yaml(self.root, DEFAULT_CONFIG))
        self.spec = tt.SweepSpec(
            template=self.template,
            axis1=tt.Axis("drive_freq", 0.02, 0.9, n),
            axis2=tt.Axis("hot.center", 1.0, 2.0, n),
            outputs=frozenset({"currents", "mode", "exergy", "transistor"}))
        self.spots = self.rng.integers(0, n, size=(self.SPOT_CELLS, 2))

    def ops(self):
        return [Op(run=lambda: self.tt.run_sweep(self.spec),
                   digest=self._digest, check=self._check)]

    @staticmethod
    def _digest(res):
        return _sha(*(np.ascontiguousarray(a).tobytes() for a in
                      (res.thermo, res.mode_codes, res.phi, res.r, res.g)))

    def _check(self, res):
        tt = self.tt
        th = res.thermo
        problems = checks.thermo_laws(th[:, 3], th[:, 0], th[:, 1], th[:, 2],
                                      th[:, 4], where="map: ")
        if np.isnan(th).any():
            problems.append("map: error cells on an all-valid grid")
        if not (np.all(res.phi >= 0.0) and np.all(res.phi <= 1.0)):
            problems.append("map: exergy efficiency outside [0, 1]")
        n2 = len(res.axis2_values)
        for i, j in self.spots:
            cfg = tt.apply_params(self.template, {
                "drive_freq": float(res.axis1_values[i]),
                "hot.center": float(res.axis2_values[j])})
            pt = tt.evaluate_point(cfg)
            want = np.array([pt.j_hot, pt.j_cold, pt.j_mid, pt.power,
                             pt.entropy_rate, pt.entropy_pos, pt.entropy_neg])
            got = th[i * n2 + j, :7]
            if want.tobytes() != np.ascontiguousarray(got).tobytes():
                problems.append(f"map: cell ({i}, {j}) differs from evaluate_point")
        return problems


class Search(Workload):
    """``run_search`` under both objectives over seeds drawn from the workload seed."""

    def __init__(self, *a):
        super().__init__(*a)
        tt = self.tt
        raw = _load_yaml(self.root, SEARCH_CONFIG)
        self.template = tt.MachineConfig.from_dict(raw)
        spec = search_spec(tt, raw["search"])
        if self.smoke:
            spec = dataclasses.replace(spec, samples=20, refine_samples=5)
        self.specs = {obj: dataclasses.replace(spec, objective=obj)
                      for obj in OBJECTIVES}
        n_seeds = 1 if self.smoke else 3
        self.seeds = [int(s) for s in self.rng.integers(0, 2**31 - 1, size=n_seeds)]
        self.grid = np.linspace(spec.omega_start, spec.omega_stop, spec.omega_count)

    def ops(self):
        out = []
        for seed in self.seeds:
            for obj in OBJECTIVES:
                spec = self.specs[obj]
                out.append(Op(
                    run=lambda spec=spec, seed=seed:
                        self.tt.run_search(self.template, spec, seed),
                    digest=self._digest,
                    check=lambda cands, spec=spec: self._check(cands, spec)))
        return out

    @staticmethod
    def _digest(cands):
        return _sha(json.dumps([c.to_dict() for c in cands], sort_keys=True))

    def _check(self, cands, spec):
        tt = self.tt
        where = f"search {spec.objective}: "
        if not cands:
            return [where + "no candidates"]
        problems = []
        scores = [c.score for c in cands]
        if scores != sorted(scores, reverse=True):
            problems.append(where + "candidates not ranked by score")
        top = cands[0]
        cfg = tt.apply_params(self.template, top.params)
        if spec.objective == "transistor_window":
            windows = tt.find_windows(cfg, self.grid, spec.threshold)
            width = max((w.width for w in windows), default=0.0)
            if not (width == top.score == top.detail["width"]):
                problems.append(where + f"top window width {top.score!r} but "
                                f"find_windows gives {width!r}")
        else:
            runs = tt.mode_sequence_along_omega(cfg, self.grid)
            if [[lo, hi, m.value] for (lo, hi), m in runs] != top.detail["runs"]:
                problems.append(where + "mode runs differ from mode_sequence_along_omega")
        args = list(tt.currents.config_args(cfg))
        args[2] = self.grid
        arr = tt.evaluate_arrays(*args)
        problems += checks.thermo_laws(arr.power, arr.j_hot, arr.j_cold, arr.j_mid,
                                       arr.entropy_rate, where=where)
        return problems


class Scalar(Workload):
    """One op: ``from_dict`` + ``validate`` + ``mode_report`` + ``transistor_point``."""

    call = "op"
    probe = "calls"
    # operations take ~0.7 ms: readings between them suffice
    sample_every = None

    def __init__(self, *a):
        super().__init__(*a)
        n = 50 if self.smoke else 1000
        self.configs = [self._random_config() for _ in range(n)]

    def _random_config(self) -> dict:
        u = self.rng.uniform
        t_cold = u(0.05, 0.4)
        t_mid = t_cold + u(0.02, 0.4)
        t_hot = t_mid + u(0.02, 0.5)

        def bath(t):
            return {"temperature": float(t), "center": float(u(0.3, 2.5)),
                    "width": float(math.exp(u(math.log(0.01), math.log(0.3)))),
                    "kappa": float(math.exp(u(math.log(1e-3), math.log(0.05))))}

        return {"drive_freq": float(u(0.05, 0.95)),
                "wm": {"omega0": 1.0, "mass": 1.0},
                "hot": bath(t_hot), "cold": bath(t_cold),
                "mid": {"temperature": float(t_mid), "gamma_m": 0.1}}

    def _op(self, data):
        tt = self.tt
        cfg = tt.MachineConfig.from_dict(data)
        cfg.validate()
        return tt.mode_report(cfg), tt.transistor_point(cfg)

    def ops(self):
        return [Op(run=lambda d=d: self._op(d), digest=self._digest, check=self._check)
                for d in self.configs]

    @staticmethod
    def _digest(out):
        report, tp = out
        return _sha(repr(report.to_dict()), repr(dataclasses.astuple(tp)))

    @staticmethod
    def _check(out):
        report, tp = out
        pt = report.point
        problems = checks.thermo_laws(pt.power, pt.j_hot, pt.j_cold, pt.j_mid,
                                      pt.entropy_rate, where="scalar: ")
        if not 0.0 <= report.exergy <= 1.0:
            problems.append(f"scalar: exergy {report.exergy!r} outside [0, 1]")
        if tp.j_hot != pt.j_hot or tp.power != pt.power:
            problems.append("scalar: transistor_point and mode_report disagree")
        return problems

    def final_checks(self):
        tt = self.tt
        with open(os.path.join(self.root, REFERENCE_SETS)) as fh:
            sets = json.load(fh)["sets"]
        results = []
        for rec in sets:
            p = rec["params"]
            data = {"drive_freq": p["drive_freq"],
                    "wm": {"omega0": p["omega0"], "mass": p["mass"]},
                    "mid": {"temperature": p["mid_temperature"]}}
            for bath in ("hot", "cold"):
                data[bath] = {k: p[f"{bath}_{k}"]
                              for k in ("temperature", "center", "width", "kappa")}
            try:
                pt = tt.evaluate_point(tt.MachineConfig.from_dict(data))
            except Exception as exc:  # counted as a failed operation
                results.append([f"oracle: {type(exc).__name__}: {exc}"])
                continue
            results.append(checks.oracle(pt, rec) + checks.thermo_laws(
                pt.power, pt.j_hot, pt.j_cold, pt.j_mid, pt.entropy_rate,
                where="oracle: "))
        return results


class Cli(Workload):
    """``tritherm.cli.main`` in-process: sweep, transistor, search, point."""

    probe = "encode"

    def __init__(self, *a):
        super().__init__(*a)
        import tritherm.cli
        self.cli = tritherm.cli
        n = 21 if self.smoke else 301
        self.work = os.path.join(self.root, ".perfbench_out", f"cli-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.search_seed = int(self.rng.integers(0, 2**31 - 1))
        cfg = os.path.join(self.root, DEFAULT_CONFIG)
        scfg = os.path.join(self.root, SEARCH_CONFIG)
        w = self.path
        self.argv = {
            "sweep": ["sweep", "--config", cfg,
                      "--axis1", f"drive_freq:0.02:0.9:{n}",
                      "--axis2", f"hot.center:1.0:2.0:{n}",
                      "--outputs", "currents,mode,exergy,transistor",
                      "--json", "--out", w("map.csv")],
            "transistor": ["transistor", "--config", scfg, "--out", w("trace.csv")],
            "search": ["search", "--config", scfg, "--seed", str(self.search_seed),
                       "--out", w("search.json")],
            "point": ["point", "--config", cfg],
        }
        self.files = {"sweep": ["map.csv", "map.csv.json"],
                      "transistor": ["trace.csv"], "search": ["search.json"],
                      "point": []}

    def path(self, name):
        return os.path.join(self.work, name)

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def ops(self):
        return [Op(run=lambda cmd=cmd: self._main(self.argv[cmd]),
                   digest=lambda res, cmd=cmd: self._digest(cmd, res),
                   check=lambda res, cmd=cmd: self._check(cmd, res),
                   span=f"cli.{cmd}")
                for cmd in self.argv]

    def _read(self, name) -> bytes:
        with open(self.path(name), "rb") as fh:
            return fh.read()

    def _digest(self, cmd, res):
        rc, out, _ = res
        return _sha(str(rc), out, *(self._read(f) for f in self.files[cmd]))

    def _check(self, cmd, res):
        rc, out, err = res
        if rc != 0:
            return [f"cli {cmd}: exit code {rc}: {err.strip()[-200:]}"]
        if cmd == "sweep":
            return self._check_sweep()
        if cmd == "transistor":
            rows = self._csv("trace.csv")
            cols = dict(zip(rows[0], np.array(rows[1:], dtype=np.float64).T))
            return checks.thermo_laws(cols["power"], cols["j_hot"], cols["j_cold"],
                                      cols["j_mid"], where="cli transistor: ") \
                + self._rerun("transistor", "trace.csv")
        if cmd == "search":
            payload = json.loads(self._read("search.json"))
            # no --from-manifest rerun here: the program's search manifest
            # does not reproduce the output yet (see perfbench/README.md)
            return [] if payload["candidates"] else ["cli search: no candidates"]
        pt = json.loads(out)["point"]
        return checks.thermo_laws(pt["power"], pt["j_hot"], pt["j_cold"],
                                  pt["j_mid"], pt["entropy_rate"], where="cli point: ")

    def _csv(self, name):
        with open(self.path(name), newline="") as fh:
            return list(csv.reader(fh))

    def _check_sweep(self):
        rows = self._csv("map.csv")
        header, body = rows[0], rows[1:]
        with open(self.path("map.csv.json")) as fh:
            payload = json.load(fh)
        problems = []
        if payload["schema"] != header or len(payload["rows"]) != len(body):
            problems.append("cli sweep: JSON schema or row count differs from CSV")
        else:
            for k, (crow, jrow) in enumerate(zip(body, payload["rows"])):
                if any(not _same_cell(c, j) for c, j in zip(crow, jrow)):
                    problems.append(f"cli sweep: CSV and JSON differ at row {k}")
                    break
        col = {name: i for i, name in enumerate(header)}
        valid = [r for r in body if not r[col["error"]]]
        if len(valid) != len(body):
            problems.append("cli sweep: error cells on an all-valid grid")

        def f(name):
            return np.array([r[col[name]] for r in valid], dtype=np.float64)

        problems += checks.thermo_laws(f("power"), f("j_hot"), f("j_cold"), f("j_mid"),
                                       f("entropy_rate"), where="cli sweep: ")
        return problems

    def _rerun(self, cmd, out_name):
        """A ``--from-manifest`` rerun must reproduce the output bytes."""
        rerun_name = "rerun-" + out_name
        rc, _, err = self._main([cmd, "--from-manifest",
                                 self.path(out_name + ".manifest.json"),
                                 "--out", self.path(rerun_name)])
        if rc != 0:
            return [f"cli {cmd} rerun: exit code {rc}: {err.strip()[-200:]}"]
        if self._read(out_name) != self._read(rerun_name):
            return [f"cli {cmd} --from-manifest rerun: output bytes differ"]
        return []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _same_cell(text: str, value) -> bool:
    if isinstance(value, str):
        return value == text
    got = float(text)
    return got == value or (math.isnan(got) and math.isnan(value))


WORKLOADS = {"cli": Cli, "map_compute": MapCompute, "search": Search,
             "scalar": Scalar}
