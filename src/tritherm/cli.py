"""Command-line frontend: point reports, sweeps, transistor traces, searches.

Configs are YAML files with nested sections mirroring the MachineConfig
fields (all frequencies and temperatures in units of omega0)::

    drive_freq: 0.5
    wm:   {omega0: 1.0, mass: 1.0}
    hot:  {temperature: 0.8, center: 1.5, width: 0.05, kappa: 0.01}
    cold: {temperature: 0.2, center: 0.75, width: 0.05, kappa: 0.01}
    mid:  {temperature: 0.5, gamma_m: 0.1}

Every command turns its flags into a manifest, the dict that
``--from-manifest`` reads, then parses and runs that dict only.  Every
file-producing command (``point --out`` too) writes the manifest next to
its output, and ``--from-manifest`` reruns it byte for byte.  An unknown
manifest key (``unknown field: sweep.axis3``) exits 1, and so does a flag
that chooses the run given beside ``--from-manifest`` (only ``--out`` and
``--json`` may be).  Manifests keep their key order: that of
``search.vary`` fixes the Latin-hypercube dimensions.

A sweep runs in tiles of at most ``_kernels.TILE_POINTS`` cells, and a search
stage in the fewest balanced blocks of at most ``_kernels.BLOCK_POINTS``
points whose count is a multiple of the thread count, under
:func:`tritherm._kernels.map_blocks`, whose thread model leaves every output
independent of the thread count.  The transistor, sweep and search layers
are imported by the commands that run them, so ``point`` starts without
them.  A nonfinite value is reported by name, never by a numpy warning.

Exit codes: 0 success, 1 validation/parse error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from dataclasses import asdict

import numpy as np
import yaml

from . import __version__
from .core import (DEFAULT_DRIVE_GRID, DEFAULT_THRESHOLD, ConfigError, DomainError,
                   MachineConfig, TrithermError, apply_params, as_mapping, check_fields,
                   construct, from_fields, get_field, grid_fault, integer, names, number)
from .modes import mode_report


# libyaml's parser where PyYAML was built with it; both loaders share the
# safe resolver and constructor, so they build equal dicts
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


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


# Top-level fields of a manifest besides the section of its command
_MANIFEST_FIELDS = ("artifact", "version", "command", "config", "seed", "outputs",
                    "timestamp")


def _load_manifest(path: str, command: str) -> dict:
    """The manifest of a ``command`` run; ConfigError unless it has a
    ``config`` and a ``command`` section and no other unknown field."""
    manifest = _parse(path, "manifest", json.loads)
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {path} must contain a mapping")
    if manifest.get("command") != command:
        raise ConfigError(f"manifest {path} was written by "
                          f"{manifest.get('command')!r}, not {command!r}")
    for key in ("config", command):
        if not isinstance(manifest.get(key), dict):
            raise ConfigError(f"manifest {path} has no {key!r} section")
    check_fields(manifest, (*_MANIFEST_FIELDS, command), "manifest")
    return manifest


# The entries of a parsed command line that are not flags choosing the run:
# the command, its functions, and the options a manifest rerun may take.
# Every other option given is an error beside --from-manifest.
_NOT_RUN_FLAGS = ("command", "from_flags", "func", "from_manifest", "out", "json")


def _run(args, command: str, from_flags, run) -> int:
    """The one run path of every command: the manifest from
    ``--from-manifest``, or the ``--config`` file with ``--set`` applied and
    the entries ``from_flags(args, raw)`` makes of the flags and raw YAML;
    its config validated; ``run(config, manifest, warnings)``, which parses
    the command's section and returns the section it ran, the seed and a
    writer of the output (taking ``args``); then a file output's manifest."""
    if args.from_manifest:
        for key, value in vars(args).items():
            if value is not None and key not in _NOT_RUN_FLAGS:
                raise ConfigError(f"--{key.replace('_', '-')} cannot be given with "
                                  f"--from-manifest: the manifest fixes the run")
        manifest = _load_manifest(args.from_manifest, command)
    elif args.config:
        raw = _parse(args.config, "config",
                     lambda text: yaml.load(text, Loader=_YAML_LOADER))
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {args.config} must contain a mapping")
        config = apply_params(MachineConfig.from_dict(raw), _parse_overrides(args.set))
        manifest = {"config": config.to_dict(), **from_flags(args, raw)}
    else:
        raise ConfigError(f"{command} needs --config (or --from-manifest)")
    config = MachineConfig.from_dict(manifest["config"])
    warnings = config.validate()
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    section, seed, write = run(config, manifest, warnings)
    write(args)
    if args.out:
        outputs = [os.path.basename(args.out)]
        if getattr(args, "json", False):   # sweep --json also writes <out>.json
            outputs.append(outputs[0] + ".json")
        with open(args.out + ".manifest.json", "w") as fh:
            json.dump({"artifact": "tritherm", "version": __version__,
                       "command": command, "config": config.to_dict(), "seed": seed,
                       "outputs": outputs,
                       "timestamp": datetime.datetime.now(datetime.timezone.utc)
                       .isoformat(), command: section}, fh, indent=1)
    return 0


def _emit(text: str):
    """A writer of ``text`` to ``--out``, or to stdout without it."""
    def write(args):
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    return write


DEFAULT_AXIS_COUNT = 201


def _parse_axis(text: str) -> dict:
    parts = text.split(":")
    if len(parts) == 3:
        parts.append(str(DEFAULT_AXIS_COUNT))
    if len(parts) != 4:
        raise ConfigError(f"axis must be param:start:stop[:count], got {text!r}")
    param, start, stop, count = parts
    try:
        return {"param": param, "start": float(start), "stop": float(stop),
                "count": int(count)}
    except ValueError:
        raise ConfigError(f"malformed axis {text!r}") from None


def cmd_point(config, manifest, warnings):
    check_fields(manifest["point"], (), "point")
    payload = {"config": config.to_dict(), **mode_report(config).to_dict(),
               "warnings": warnings}
    return {}, None, _emit(json.dumps(payload, sort_keys=True, indent=1))


def _sweep_from_flags(args, raw) -> dict:
    if not args.axis1:
        raise ConfigError("sweep needs --axis1 (or --from-manifest)")
    return {"sweep": {"axis1": _parse_axis(args.axis1),
                      "axis2": _parse_axis(args.axis2) if args.axis2 else None,
                      "outputs": (args.outputs or "currents,mode,exergy").split(",")}}


def cmd_sweep(config, manifest, warnings):
    from .sweep import Axis, SweepSpec, run_sweep
    grid = manifest["sweep"]
    axis1 = from_fields(Axis, grid.get("axis1"), "sweep.axis1")
    # a 1D sweep records its second axis as null
    axis2 = (from_fields(Axis, grid["axis2"], "sweep.axis2")
             if grid.get("axis2") is not None else None)
    outputs = get_field(grid, "outputs", "sweep", names)
    check_fields(grid, ("axis1", "axis2", "outputs"), "sweep")
    spec = construct(SweepSpec, "sweep", template=config, axis1=axis1, axis2=axis2,
                     outputs=outputs)
    for w in spec.axis_warnings():
        print(f"warning: {w}", file=sys.stderr)
    result = run_sweep(spec)

    def write(args):
        result._write_text(args.out, args.out + ".json" if args.json else None)
        n_err = np.count_nonzero(result.error_codes)
        print(f"sweep: {result.size} cells ({n_err} error cells) -> {args.out}",
              file=sys.stderr)
    return {"axis1": asdict(axis1), "axis2": asdict(axis2) if axis2 else None,
            "outputs": sorted(outputs)}, None, write


# The transistor flags' defaults, filled in when the flags become a section
_TRANSISTOR_DEFAULTS = dict(zip(("omega_min", "omega_max", "points", "threshold"),
                                (*DEFAULT_DRIVE_GRID, DEFAULT_THRESHOLD)))


def _transistor_from_flags(args, raw) -> dict:
    return {"transistor": {
        key: default if getattr(args, key) is None else getattr(args, key)
        for key, default in _TRANSISTOR_DEFAULTS.items()}}


def cmd_transistor(config, manifest, warnings):
    from .sweep import _float_texts, _write_table
    from .transistor import transistor_trace, window_mask, windows_from_arrays
    t = manifest["transistor"]
    section = {key: get_field(t, key, "transistor", integer if key == "points" else number)
               for key in _TRANSISTOR_DEFAULTS}
    check_fields(t, section, "transistor")
    omega_min, omega_max, points, threshold = section.values()
    fault = grid_fault("drive_freq", omega_min, omega_max, points, 1)
    if fault:
        key, why = fault
        key = {"start": "omega_min", "stop": "omega_max", "count": "points"}[key]
        raise ConfigError(f"transistor.{key} {why}")
    w0 = config.wm.omega0
    for key, bad, why in (
            ("omega_max", not omega_max < w0, f"must be < omega0 = {w0}"),
            ("threshold", not 0.0 < threshold < np.inf, "must be finite and > 0")):
        if bad:
            raise ConfigError(f"transistor.{key} {why}, got {t[key]!r}")
    grid = np.linspace(omega_min, omega_max, points)
    trace = transistor_trace(config, grid)
    windows = windows_from_arrays(trace.omega, trace.r, trace.g, threshold)
    header = ["omega_drive", "j_hot", "j_cold", "j_mid", "power", "r", "g", "in_window"]
    floats = [trace.omega, trace.j_hot, trace.j_cold, trace.j_mid, trace.power, trace.r, trace.g]
    in_window = window_mask(grid, windows)

    def texts(chunk):   # (CSV strings, JSON strings) of each column
        bits = ["1" if w else "0" for w in in_window[chunk].tolist()]
        return [*(_float_texts(c[chunk]) for c in floats), (bits, bits)]

    def write(args):
        _write_table(points, header, texts, args.out, newline="\n")
        summary = {"threshold": threshold,
                   "windows": [{**w.to_dict(), "width": w.width} for w in windows]}
        print(json.dumps(summary, sort_keys=True, indent=1))
    return section, None, write


def _search_from_flags(args, raw) -> dict:
    if "search" not in raw:
        raise ConfigError("config file has no 'search' section")
    section = dict(as_mapping(raw["search"], "search"))
    for key in ("threshold", "top_k"):
        if getattr(args, key) is not None:
            section[key] = getattr(args, key)
    return {"seed": 0 if args.seed is None else args.seed, "search": section}


def cmd_search(config, manifest, warnings):
    from .search import SearchSpec, run_search
    spec = SearchSpec.from_dict(manifest["search"])
    seed = get_field(manifest, "seed", "manifest", integer)
    candidates = run_search(config, spec, seed)
    payload = {"objective": spec.objective, "seed": seed,
               "candidates": [c.to_dict() for c in candidates]}
    if not candidates:
        print("warning: empty feasible space, no candidates found",
              file=sys.stderr)
    return spec.to_dict(), seed, _emit(json.dumps(payload, sort_keys=True,
                                                  separators=(",", ":")))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tritherm",
        description="Driven three-terminal quantum thermal machine simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, from_flags, func):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config parameter (repeatable)")
        p.add_argument("--from-manifest", metavar="PATH",
                       help="re-run from a previously written manifest")
        p.set_defaults(from_flags=from_flags, func=func)
        return p

    p = command("point", "evaluate one operating point",
                lambda args, raw: {"point": {}}, cmd_point)
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = command("sweep", "run a 1D/2D parameter sweep to CSV", _sweep_from_flags,
                cmd_sweep)
    p.add_argument("--axis1", metavar="PARAM:START:STOP[:COUNT]",
                   help=f"count defaults to {DEFAULT_AXIS_COUNT}")
    p.add_argument("--axis2", metavar="PARAM:START:STOP[:COUNT]")
    p.add_argument("--outputs", help="comma list of currents,mode,exergy,transistor; "
                   "only transistor changes the columns (it adds r and g): the "
                   "currents, mode and phi are always written")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--json", action="store_true",
                   help="also write <out>.json with a metadata header")

    p = command("transistor", "r/g trace over a drive range", _transistor_from_flags,
                cmd_transistor)
    for key, default in _TRANSISTOR_DEFAULTS.items():
        p.add_argument("--" + key.replace("_", "-"), type=type(default),
                       help=f"default {default}")
    p.add_argument("--out", required=True, help="CSV output path")

    p = command("search", "seeded parameter search", _search_from_flags, cmd_search)
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--threshold", type=float)
    p.add_argument("--top-k", type=int, dest="top_k")
    p.add_argument("--out", help="write the JSON results here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args, args.command, args.from_flags, args.func)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrithermError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:   # a grid too large to allocate, say
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
