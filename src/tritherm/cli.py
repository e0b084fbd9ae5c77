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

``sweep --threads`` and ``TRITHERM_THREADS`` are accepted and ignored; a
sweep runs as one batch.

Exit codes: 0 success, 1 validation/parse error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import operator
import os
import sys

import numpy as np
import yaml

from . import __version__
from .core import (ConfigError, DomainError, MachineConfig, TrithermError,
                   apply_params, get_field)
from .modes import mode_report
from .search import SearchSpec, run_search
from .sweep import Axis, SweepSpec, run_sweep
from .transistor import (DEFAULT_THRESHOLD, transistor_trace, window_mask,
                         windows_from_arrays)


def _load_yaml(path: str) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
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


def _load_config(args) -> tuple[MachineConfig, dict]:
    raw = _load_yaml(args.config)
    config = MachineConfig.from_dict(raw)
    overrides = _parse_overrides(getattr(args, "set", None))
    if overrides:
        config = apply_params(config, overrides)
    return config, raw


def _validate(config, args) -> list[str]:
    warnings = config.validate(relax=getattr(args, "relax_validation", False))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return warnings


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
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"cannot parse manifest {path}: {exc}") from None
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


DEFAULT_AXIS_COUNT = 201


def _parse_axis(text: str) -> Axis:
    parts = text.split(":")
    if len(parts) == 3:
        parts.append(str(DEFAULT_AXIS_COUNT))
    if len(parts) != 4:
        raise ConfigError(f"axis must be param:start:stop[:count], got {text!r}")
    param, start, stop, count = parts
    try:
        return Axis(param=param, start=float(start), stop=float(stop),
                    count=int(count))
    except ValueError:
        raise ConfigError(f"malformed axis {text!r}") from None


def cmd_point(args) -> int:
    config, _ = _load_config(args)
    warnings = _validate(config, args)
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
        axis2 = (Axis.from_dict(grid["axis2"], "sweep.axis2")
                 if grid.get("axis2") else None)
        outputs = get_field(grid, "outputs", "sweep", frozenset)
    else:
        if not args.config or not args.axis1:
            raise ConfigError("sweep needs --config and --axis1 "
                              "(or --from-manifest)")
        config, _ = _load_config(args)
        _validate(config, args)
        axis1 = _parse_axis(args.axis1)
        axis2 = _parse_axis(args.axis2) if args.axis2 else None
        outputs = frozenset((args.outputs or "currents,mode,exergy").split(","))

    spec = SweepSpec(template=config, axis1=axis1, axis2=axis2, outputs=outputs)
    result = run_sweep(spec)
    result.to_csv(args.out)
    if args.json:
        result.to_json(args.out + ".json")
    _write_manifest(args.out, "sweep", config, {
        "sweep": {"axis1": axis1.to_dict(),
                  "axis2": axis2.to_dict() if axis2 else None,
                  "outputs": sorted(outputs)},
    })
    n_err = sum(1 for e in result.errors if e)
    print(f"sweep: {result.size} cells ({n_err} error cells) -> {args.out}",
          file=sys.stderr)
    return 0


def cmd_transistor(args) -> int:
    if args.from_manifest:
        config, t, _ = _load_manifest(args.from_manifest, "transistor")
        # manifests written before the drive slopes became exact carry a
        # finite-difference "step"; it is ignored
        omega_min, omega_max, points, threshold = (
            get_field(t, key, "transistor", kind) for key, kind in
            (("omega_min", float), ("omega_max", float),
             ("points", operator.index), ("threshold", float)))
    else:
        if not args.config:
            raise ConfigError("transistor needs --config (or --from-manifest)")
        config, _ = _load_config(args)
        _validate(config, args)
        omega_min, omega_max = args.omega_min, args.omega_max
        points, threshold = args.points, args.threshold

    grid = np.linspace(omega_min, omega_max, points)
    trace = transistor_trace(config, grid)
    windows = windows_from_arrays(trace.omega, trace.r, trace.g, threshold)

    in_window = window_mask(grid, windows)
    with open(args.out, "w", newline="") as fh:
        fh.write("omega_drive,j_hot,j_cold,j_mid,power,r,g,in_window\n")
        cols = (trace.omega, trace.j_hot, trace.j_cold, trace.j_mid,
                trace.power, trace.r, trace.g)
        for k in range(grid.size):
            fh.write(",".join([*(repr(float(c[k])) for c in cols),
                               str(int(in_window[k]))]) + "\n")
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
        seed = get_field(manifest, "seed", "manifest", operator.index)
    else:
        if not args.config:
            raise ConfigError("search needs --config (or --from-manifest)")
        config, raw = _load_config(args)
        _validate(config, args)
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
    p.add_argument("--threads", type=int,
                   help="deprecated and ignored; the sweep runs as one batch")
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
