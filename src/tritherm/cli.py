"""Command-line frontend: point reports, sweeps, transistor traces, searches.

Configs are YAML files with nested sections mirroring the MachineConfig
fields (all frequencies and temperatures in units of omega0)::

    drive_freq: 0.5
    wm:   {omega0: 1.0, mass: 1.0}
    hot:  {temperature: 0.8, center: 1.5, width: 0.05, kappa: 0.01}
    cold: {temperature: 0.2, center: 0.75, width: 0.05, kappa: 0.01}
    mid:  {temperature: 0.5, gamma_m: 0.1}

Every file-producing command writes a JSON manifest next to its output;
re-running with ``--from-manifest`` reproduces the output byte for byte
(the manifest pins the config snapshot, grid, and seed).  Manifests keep
the key order they were written with: the order of ``search.vary`` fixes
the Latin-hypercube dimensions.

A sweep runs in tiles of at most ``_kernels.BLOCK_POINTS`` cells, and a
search stage in blocks of as many points; the tiles or blocks run on the
calling thread plus one helper thread per further CPU in the process's
affinity mask (at most four threads; only two have been measured, so the
cap is unverified; ``taskset`` limits them, a cgroup CPU quota does not).
There is no thread option, and the outputs do not depend on the thread
count.

Exit codes: 0 success, 1 validation/parse error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys

import numpy as np
import yaml

from . import __version__
from .core import (MAX_COUNT, ConfigError, DomainError, MachineConfig, TrithermError,
                   apply_params, construct, get_field, integer, number)
from .modes import mode_report
from .search import SearchSpec, run_search
from .sweep import Axis, SweepSpec, _float_texts, run_sweep
from .transistor import (DEFAULT_THRESHOLD, transistor_trace, window_mask,
                         windows_from_arrays)


def _parse(path: str, kind: str, parse):
    """``parse`` of the text of the ``kind`` file ``path``; ConfigError naming
    the file if it is missing, unreadable, not UTF-8 or malformed."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{kind} file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} file {path}: "
                          f"{exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{kind} file {path} is not UTF-8 text: {exc}") from None
    try:
        return parse(text)
    except (ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot parse {kind} {path}: {exc}") from None


def _load_yaml(path: str) -> dict:
    data = _parse(path, "config", yaml.safe_load)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    return data


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--set {key}: value must be a number, "
                              f"got {value!r}") from None
    return out


def _load_config(args) -> tuple[MachineConfig, dict, list[str]]:
    """The ``--set`` config, its raw YAML and its warnings (printed to stderr)."""
    raw = _load_yaml(args.config)
    config = apply_params(MachineConfig.from_dict(raw),
                          _parse_overrides(getattr(args, "set", None)))
    warnings = config.validate(relax=getattr(args, "relax_validation", False))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return config, raw, warnings


def _write_manifest(out_path: str, command: str, config: MachineConfig,
                    extra: dict, seed=None) -> str:
    manifest = {
        "artifact": "tritherm",
        "version": __version__,
        "command": command,
        "config": config.to_dict(),
        "seed": seed,
        "outputs": [os.path.basename(out_path)],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        **extra,
    }
    path = out_path + ".manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)
    return path


def _load_manifest(path: str, command: str) -> tuple[MachineConfig, dict, dict]:
    """The config, the ``command`` section and the whole manifest."""
    manifest = _parse(path, "manifest", json.loads)
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {path} must contain a mapping")
    if manifest.get("command") != command:
        raise ConfigError(f"manifest {path} was written by "
                          f"{manifest.get('command')!r}, not {command!r}")
    # Older manifests record the kernel backend; only numpy remains.
    if manifest.get("backend", "numpy") != "numpy":
        raise ConfigError(f"manifest {path}: field backend = "
                          f"{manifest['backend']!r} is not supported; only "
                          f"the numpy kernel exists")
    for key in ("config", command):
        if not isinstance(manifest.get(key), dict):
            raise ConfigError(f"manifest {path} has no {key!r} section")
    return MachineConfig.from_dict(manifest["config"]), manifest[command], manifest


def _names(value) -> frozenset:
    """A list of strings as a set; TypeError for anything else (a string too)."""
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return frozenset(value)
    raise TypeError(value)


DEFAULT_AXIS_COUNT = 201


def _parse_axis(text: str) -> Axis:
    parts = text.split(":")
    if len(parts) == 3:
        parts.append(str(DEFAULT_AXIS_COUNT))
    if len(parts) != 4:
        raise ConfigError(f"axis must be param:start:stop[:count], got {text!r}")
    param, start, stop, count = parts
    try:
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ConfigError(f"malformed axis {text!r}") from None
    return Axis(param=param, start=start, stop=stop, count=count)


def cmd_point(args) -> int:
    config, _, warnings = _load_config(args)
    report = mode_report(config)
    payload = {
        "config": config.to_dict(),
        **report.to_dict(),
        "warnings": warnings,
    }
    text = json.dumps(payload, sort_keys=True, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_sweep(args) -> int:
    if args.from_manifest:
        config, grid, _ = _load_manifest(args.from_manifest, "sweep")
        axis1 = Axis.from_dict(grid.get("axis1"), "sweep.axis1")
        # a 1D sweep records its second axis as null
        axis2 = (Axis.from_dict(grid["axis2"], "sweep.axis2")
                 if grid.get("axis2") is not None else None)
        outputs = get_field(grid, "outputs", "sweep", _names)
    else:
        if not args.config or not args.axis1:
            raise ConfigError("sweep needs --config and --axis1 "
                              "(or --from-manifest)")
        config, _, _ = _load_config(args)
        axis1 = _parse_axis(args.axis1)
        axis2 = _parse_axis(args.axis2) if args.axis2 else None
        outputs = frozenset((args.outputs or "currents,mode,exergy").split(","))

    spec = construct(SweepSpec, "sweep", template=config, axis1=axis1, axis2=axis2,
                     outputs=outputs)
    result = run_sweep(spec)
    result._write_text(args.out, args.out + ".json" if args.json else None)
    _write_manifest(args.out, "sweep", config, {
        "sweep": {"axis1": axis1.to_dict(),
                  "axis2": axis2.to_dict() if axis2 else None,
                  "outputs": sorted(outputs)},
    })
    n_err = np.count_nonzero(result.error_codes)
    print(f"sweep: {result.size} cells ({n_err} error cells) -> {args.out}",
          file=sys.stderr)
    return 0


def cmd_transistor(args) -> int:
    if args.from_manifest:
        config, t, _ = _load_manifest(args.from_manifest, "transistor")
        # manifests written before the drive slopes became exact carry a
        # finite-difference "step"; it is ignored
    else:
        if not args.config:
            raise ConfigError("transistor needs --config (or --from-manifest)")
        config, _, _ = _load_config(args)
        t = {"omega_min": args.omega_min, "omega_max": args.omega_max,
             "points": args.points, "threshold": args.threshold}
    omega_min, omega_max, points, threshold = (
        get_field(t, key, "transistor", kind) for key, kind in
        (("omega_min", number), ("omega_max", number), ("points", integer),
         ("threshold", number)))
    for key, bad, why in (
            ("omega_min", not omega_min > 0.0, "must be > 0"),
            ("omega_max", not omega_max > omega_min, "must be > omega_min"),
            ("omega_max", not omega_max < config.wm.omega0,
             f"must be < omega0 = {config.wm.omega0}"),
            ("points", points < 1, "must be >= 1"),
            ("points", points > MAX_COUNT, f"must be <= {MAX_COUNT}"),
            ("threshold", not threshold > 0.0, "must be > 0")):
        if bad:
            raise ConfigError(f"transistor.{key} {why}, got {t[key]!r}")

    grid = np.linspace(omega_min, omega_max, points)
    trace = transistor_trace(config, grid)
    windows = windows_from_arrays(trace.omega, trace.r, trace.g, threshold)

    in_window = window_mask(grid, windows)
    cols = [_float_texts(c)[0] for c in (trace.omega, trace.j_hot, trace.j_cold,
                                         trace.j_mid, trace.power, trace.r, trace.g)]
    cols.append(["1" if w else "0" for w in in_window.tolist()])
    with open(args.out, "w", newline="") as fh:
        fh.write("omega_drive,j_hot,j_cold,j_mid,power,r,g,in_window\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cols))
    _write_manifest(args.out, "transistor", config, {
        "transistor": {"omega_min": omega_min, "omega_max": omega_max,
                       "points": points, "threshold": threshold},
    })
    summary = {
        "threshold": threshold,
        "windows": [{**w.to_dict(), "width": w.width} for w in windows],
    }
    print(json.dumps(summary, sort_keys=True, indent=1))
    return 0


def cmd_search(args) -> int:
    if args.from_manifest:
        config, section, manifest = _load_manifest(args.from_manifest, "search")
        spec = SearchSpec.from_dict(section)
        seed = get_field(manifest, "seed", "manifest", integer)
    else:
        if not args.config:
            raise ConfigError("search needs --config (or --from-manifest)")
        config, raw, _ = _load_config(args)
        if "search" not in raw:
            raise ConfigError("config file has no 'search' section")
        spec = SearchSpec.from_dict(raw["search"])
        if args.threshold is not None:
            spec = dataclasses.replace(spec, threshold=args.threshold)
        if args.top_k is not None:
            spec = dataclasses.replace(spec, top_k=args.top_k)
        seed = args.seed

    candidates = run_search(config, spec, seed)
    payload = {
        "objective": spec.objective,
        "seed": seed,
        "candidates": [c.to_dict() for c in candidates],
    }
    if not candidates:
        print("warning: empty feasible space, no candidates found",
              file=sys.stderr)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        _write_manifest(args.out, "search", config, {
            "search": spec.to_dict(),
        }, seed=seed)
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritherm",
        description="Driven three-terminal quantum thermal machine simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, manifest=True):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config parameter (repeatable)")
        p.add_argument("--relax-validation", action="store_true",
                       help="permit equal temperatures (test fixtures)")
        if manifest:
            p.add_argument("--from-manifest", metavar="PATH",
                           help="re-run from a previously written manifest")

    p = sub.add_parser("point", help="evaluate one operating point")
    common(p, manifest=False)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("sweep", help="run a 1D/2D parameter sweep to CSV")
    common(p)
    p.add_argument("--axis1", metavar="PARAM:START:STOP[:COUNT]",
                   help=f"count defaults to {DEFAULT_AXIS_COUNT}")
    p.add_argument("--axis2", metavar="PARAM:START:STOP[:COUNT]")
    p.add_argument("--outputs", help="comma list of currents,mode,exergy,transistor")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", action="store_true",
                   help="also write <out>.json with a metadata header")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("transistor", help="r/g trace over a drive range")
    common(p)
    p.add_argument("--omega-min", type=float, default=0.02)
    p.add_argument("--omega-max", type=float, default=0.98)
    p.add_argument("--points", type=int, default=481)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_transistor)

    p = sub.add_parser("search", help="seeded parameter search")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threshold", type=float)
    p.add_argument("--top-k", type=int, dest="top_k")
    p.add_argument("--out", help="write the JSON results here instead of stdout")
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrithermError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
