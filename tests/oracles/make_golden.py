"""Regenerate tests/data/golden.json: the sha256 digest of each output of a
fixed set of small runs, with the platform stamp they were made under.

The runs are the CLI's, in process: the ``point`` JSON; the CI's 41 x 37
transistor map and 50 x 41 error-cell map and a ``hot.kappa`` map from 0,
each as CSV and JSON; ``transistor`` on ``configs/transistor_search.yaml``,
its CSV and its summary; and the seed-7 search of that config under both
objectives.  A float's bits depend on numpy's build and on the SIMD target
it dispatches ``expm1``, ``log10`` and ``power`` to, so the stamp records
those; the label columns (mode, error, in_window) do not, and each CSV's
have a digest of their own.  ``tests/test_golden.py`` reruns the set.

Run from the repository root after a change that moves an output, and say
in CHANGES.md which outputs moved and why:

    python tests/oracles/make_golden.py
"""

import contextlib
import csv
import hashlib
import io
import json
import pathlib
import platform
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[2]
CONFIGS = ROOT / "configs"
OUT = ROOT / "tests" / "data" / "golden.json"

# The integer columns of the CSV outputs, as text
LABELS = ("mode", "error", "in_window")

# The sweeps of the CI, by output name: (axis1, axis2, outputs)
MAPS = {
    "map": ("drive_freq:0.02:0.9:41", "hot.center:1.0:2.0:37",
            "currents,mode,exergy,transistor"),
    "err": ("hot.temperature:0.1:1.5:50", "drive_freq:0.02:0.9:41",
            "currents,mode,exergy,transistor"),
    "kappa": ("hot.kappa:0.0:0.04:9", "drive_freq:0.05:0.9:11", "transistor"),
}


def platform_stamp() -> dict:
    """The numpy and Python versions, the machine, and the SIMD target of
    the float64 loops of ``expm1``, ``log10`` and ``power`` (on numpy 1.x,
    which cannot report them, the CPU features numpy found)."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
        dispatch = sorted(name for name, found in __cpu_features__.items() if found)
    else:
        loops = opt_func_info(func_name="^(expm1|log10|power)$", signature="^d+$")
        dispatch = {name: next(iter(sigs.values()))["current"]
                    for name, sigs in sorted(loops.items())}
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "dispatch": dispatch}


def outputs(tmp: pathlib.Path) -> dict:
    """The bytes of every output, by name, written under ``tmp``."""
    from tritherm.cli import main
    default, search = str(CONFIGS / "default.yaml"), CONFIGS / "transistor_search.yaml"
    modes = tmp / "search_modes.yaml"
    modes.write_text(search.read_text().replace("objective: transistor_window",
                                                "objective: mode_sequence"))
    runs = {"point.json": ["point", "--config", default]}
    for name, (axis1, axis2, kinds) in MAPS.items():
        runs[f"{name}.csv"] = ["sweep", "--config", default, "--axis1", axis1,
                               "--axis2", axis2, "--outputs", kinds, "--json"]
    runs["trace.csv"] = ["transistor", "--config", str(search)]
    for name, config in (("search", search), ("search_modes", modes)):
        runs[f"{name}.json"] = ["search", "--config", str(config), "--seed", "7"]
    out = {}
    for name, argv in runs.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            if main([*argv, "--out", str(tmp / name)]) != 0:
                raise RuntimeError(f"tritherm {' '.join(argv)} failed")
        for path in sorted(tmp.glob(name + "*")):
            if not path.name.endswith("manifest.json"):   # it holds a timestamp
                out[path.name] = path.read_bytes()
        if stdout.getvalue():   # the transistor summary
            out[name.replace(".csv", ".summary.json")] = stdout.getvalue().encode()
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def label_digests(out: dict) -> dict:
    """The digest of the label columns of each CSV output that has any."""
    digests = {}
    for name, data in out.items():
        if name.endswith(".csv"):
            header, *rows = csv.reader(io.StringIO(data.decode()))
            keep = [i for i, h in enumerate(header) if h in LABELS]
            if keep:
                text = "\n".join(",".join(row[i] for i in keep) for row in rows)
                digests[name] = digest(text.encode())
    return digests


def golden(tmp: pathlib.Path) -> dict:
    out = outputs(tmp)
    return {"platform": platform_stamp(),
            "digests": {name: digest(data) for name, data in out.items()},
            "labels": label_digests(out)}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        record = golden(pathlib.Path(tmp))
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {OUT.relative_to(ROOT)}")
