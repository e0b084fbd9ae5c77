"""Parameter sweeps: mode maps, exergy maps, and transistor traces.

An axis sweeps any kernel argument (a path of ``currents.KERNEL_PATHS``)
or ``hot.center_locked``.  A grid is evaluated in rectangular axis1 x axis2
tiles of at most ``_kernels.TILE_POINTS`` cells, large enough for the
threads of :func:`tritherm._kernels.map_blocks` to overlap.  Each tile
builds its kernel arguments from its slices of the axes, an axis1 column
against an axis2 row, with the template values as scalars, so a term of
one axis only is computed once per row or column of the tile; it
classifies its cells with its own couplings.
Cells whose parameters violate preconditions, or whose kernel values come
out nonfinite, are error cells carrying NaN values and an error code, so
maps keep their rectangular shape.  Tiles go to the kernel whole; one rule
after it, shared with the search's blocks, blanks the error cells.  Every
cell is bitwise identical to a single-point evaluation at the same
parameters, whatever the thread count.  :func:`mode_sequence_along_omega`
traces one machine along a drive grid, as ``transistor_trace`` does.

The text exports (:meth:`SweepResult.to_csv`, :meth:`SweepResult.to_json`
and the CLI's pair of both) format floats with
:func:`tritherm._floattext.float_texts`, the bytes of ``float.__repr__``
computed with numpy integer arithmetic, on one process per CPU
(:func:`_write_table`, the transistor CSV's too); the bytes do not depend on that count.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import shutil
import stat
import tempfile
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels
from ._floattext import float_texts
from ._kernels import COL_SNEG, COL_SPOS, NCOLS, thermo_batch
from .core import (MAX_COUNT, REGIME_PATHS, ConfigError, MachineConfig, TrithermError,
                   check_type, get_field, grid_fault, integer, names, number, regime_warnings,
                   string)
from .currents import (KERNEL_PATHS, VALIDITY_MESSAGES, _blank_errors, _drive_table,
                       _kernel_args, validity_codes)
from .modes import ERROR_CODE, MODE_BY_CODE, _exergy, classify_table
from .transistor import _figures, _runs

__all__ = [
    "AXIS_PARAMS",
    "Axis",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "resonance_lines",
    "mode_sequence_along_omega",
]

# Every kernel argument (mid.gamma_m is none), and hot.center_locked, which
# moves cold.center with hot.center to keep the template's detuning.
AXIS_PARAMS = frozenset(KERNEL_PATHS) | {"hot.center_locked"}

OUTPUT_KINDS = frozenset({"currents", "mode", "exergy", "transistor"})

# Message of each error code of SweepResult.error_codes; 0 marks a valid cell.
ERROR_MESSAGES = VALIDITY_MESSAGES

_MODE_LABELS = tuple(m.value for m in MODE_BY_CODE[:ERROR_CODE]) + ("error",)

_CHUNK_ROWS = 8192   # rows per write of the text exports: bounded memory

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _label_table(labels) -> list[np.ndarray]:
    """CSV fields (csv-module quoting) and JSON strings of ``labels``."""
    buf = io.StringIO()   # a trailing empty field keeps an empty label unquoted
    csv.writer(buf, lineterminator="\n").writerows([label, ""] for label in labels)
    return [np.array(t, dtype=object) for t in (
        [line[:-1] for line in buf.getvalue().splitlines()], [json.dumps(x) for x in labels])]


_MODE_TEXT = _label_table(_MODE_LABELS)
_ERROR_TEXT = _label_table([m or "" for m in ERROR_MESSAGES])


@dataclass(frozen=True)
class Axis:
    """One sweep axis: ``count`` evenly spaced values of ``param``."""

    param: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        object.__setattr__(self, "param", get_field(vars(self), "param", "axis", string))
        if self.param not in AXIS_PARAMS:
            raise ConfigError(f"unknown sweep parameter {self.param!r}; "
                              f"expected one of {sorted(AXIS_PARAMS)}", "param")
        # the readers of a file; an int start is stored as a float, a numpy
        # integer count as an int
        for name, kind in (("start", number), ("stop", number), ("count", integer)):
            object.__setattr__(self, name,
                               get_field(vars(self), name, f"axis {self.param}", kind))
        fault = grid_fault(self.param, self.start, self.stop, self.count, 2)
        if fault:
            key, why = fault
            raise ConfigError(f"axis {self.param}: {key} {why}", key)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """A 1D or 2D sweep around a template config."""

    template: MachineConfig
    axis1: Axis
    axis2: Axis | None = None
    outputs: frozenset = field(default_factory=lambda: frozenset({"currents", "mode", "exergy"}))

    def __post_init__(self):
        for name, kind, what in (("template", MachineConfig, "a MachineConfig"),
                                 ("axis1", Axis, "an Axis"),
                                 ("axis2", (Axis, type(None)), "an Axis or None")):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"sweep.{name} must be {what}, "
                                  f"got {getattr(self, name)!r}")
        object.__setattr__(self, "outputs", get_field(vars(self), "outputs", "sweep", names))
        unknown = self.outputs - OUTPUT_KINDS
        if unknown:
            raise ConfigError(f"unknown outputs: {sorted(unknown)}", "outputs")
        # a swept omega0 is checked against the drive per cell, by validity_codes
        w0 = self.template.wm.omega0
        params = (self.axis1.param, getattr(self.axis2, "param", None))
        for name, axis in (("axis1", self.axis1), ("axis2", self.axis2)):
            if (axis is not None and axis.param == "drive_freq" and axis.stop >= w0
                    and "wm.omega0" not in params):
                raise ConfigError(f"axis drive_freq must stay below omega0 = {w0}",
                                  f"{name}.stop")
        common = (_axis_columns(self.axis1.param, 0.0, self.template).keys()
                  & _axis_columns(self.axis2.param, 0.0, self.template).keys()
                  if self.axis2 is not None else None)
        if common:
            raise ConfigError(f"the two axes must sweep different parameters: "
                              f"{self.axis1.param} and {self.axis2.param} both set "
                              f"{' and '.join(sorted(common))}", "axis2.param")
        if self.axis2 is not None and self.axis1.count * self.axis2.count > MAX_COUNT:
            raise ConfigError(f"the grid must have <= {MAX_COUNT} cells", "axis2.count")

    def axis_warnings(self) -> list[str]:
        """The validity warnings (:func:`tritherm.core.regime_warnings`) that
        the axes add to the template's, each rule's once, naming the axis or
        axes whose parameters the rule reads.  They are checked at the
        grid's corners: each rule is a threshold on one parameter or on a
        ratio of two, so a cell outside the regime has a corner outside it
        too.  A corner that breaks the ordering or drive rule, an error
        cell, is checked all the same."""
        axes = [a for a in (self.axis1, self.axis2) if a is not None]

        def warnings(*point):   # at the template with these (axis, value) set
            columns = {}
            for axis, value in point:
                columns.update(_axis_columns(axis.param, value, self.template))
            args = _kernel_args(self.template, columns)
            return regime_warnings(*(args[path] for path in REGIME_PATHS))

        known = warnings().values()
        found = {}
        for corner in itertools.product(*([(a, a.start), (a, a.stop)] for a in axes)):
            for rule, message in warnings(*corner).items():
                if message not in known:
                    found.setdefault(rule, message)
        out = []
        for rule, message in found.items():
            named = [a.param for a in axes
                     if _axis_columns(a.param, 0.0, self.template).keys() & set(rule)]
            out.append(f"{'axes' if len(named) > 1 else 'axis'} {' and '.join(named)}: "
                       f"{message}")
        return out


def _axis_columns(param: str, values, template: MachineConfig) -> dict:
    """The kernel arguments, by config path, that an axis of ``param`` sets
    to ``values``: hot.center_locked sets hot.center and cold.center, the
    latter at the template's detuning below it."""
    if param == "hot.center_locked":
        return {"hot.center": values, "cold.center": values - template.detuning}
    return {param: values}


@dataclass(eq=False)
class SweepResult:
    """Columnar sweep output; row-major over (axis1, axis2)."""

    spec: SweepSpec
    axis1_values: np.ndarray
    axis2_values: np.ndarray | None
    thermo: np.ndarray
    mode_codes: np.ndarray
    phi: np.ndarray
    r: np.ndarray | None
    g: np.ndarray | None
    error_codes: np.ndarray

    @property
    def errors(self) -> list:
        """Error message of every cell (None if valid), from ``error_codes``."""
        return np.array(ERROR_MESSAGES, dtype=object)[self.error_codes].tolist()

    @property
    def shape(self) -> tuple:
        n1 = len(self.axis1_values)
        return (n1, len(self.axis2_values)) if self.axis2_values is not None else (n1,)

    @property
    def size(self) -> int:
        return self.thermo.shape[0]

    def mode_labels(self) -> list[str]:
        return [_MODE_LABELS[c] for c in self.mode_codes.tolist()]

    def mode_set(self) -> set:
        """Distinct OperatingMode labels present (error cells excluded)."""
        return {MODE_BY_CODE[c] for c in np.unique(self.mode_codes) if c != ERROR_CODE}

    def csv_header(self) -> list[str]:
        cols = ["axis1"]
        if self.axis2_values is not None:
            cols.append("axis2")
        cols += ["j_hot", "j_cold", "j_mid", "power", "entropy_rate", "mode", "phi"]
        if self.r is not None:
            cols += ["r", "g"]
        cols.append("error")
        return cols

    def to_csv(self, path) -> None:
        self._write_text(csv_path=path)

    def to_json(self, path) -> None:
        self._write_text(json_path=path)

    def _write_text(self, csv_path=None, json_path=None) -> None:
        """The CSV export, the JSON export or both, by :func:`_write_table`."""
        n2 = 1 if self.axis2_values is None else len(self.axis2_values)
        axes = [np.array(_float_texts(a)[0], dtype=object)   # once, before any fork
                for a in (self.axis1_values, self.axis2_values) if a is not None]
        currents = [self.thermo[:, c] for c in range(5)]
        figures = [self.phi] + ([self.r, self.g] if self.r is not None else [])

        def texts(chunk):   # (CSV strings, JSON strings) of each column, in header order
            k = np.arange(chunk.start, chunk.stop)
            cols = [(t, t) for t in (a[pick].tolist() for a, pick
                                     in zip(axes, (k // n2, k % n2)))]
            cols += [_float_texts(c[chunk]) for c in currents]
            cols.append([t[self.mode_codes[chunk]].tolist() for t in _MODE_TEXT])
            cols += [_float_texts(c[chunk]) for c in figures]
            cols.append([t[self.error_codes[chunk]].tolist() for t in _ERROR_TEXT])
            return cols
        spec = self.spec
        meta = {"artifact": "tritherm", "config": spec.template.to_dict(),
                "grid": {"axis1": asdict(spec.axis1),
                         "axis2": asdict(spec.axis2) if spec.axis2 else None},
                "outputs": sorted(spec.outputs)}
        _write_table(self.size, self.csv_header(), texts, csv_path, json_path, meta)


def _write_table(n, header, texts, csv_path=None, json_path=None, meta=None,
                 newline="\r\n") -> None:
    """Write ``n`` rows of the columns ``header`` as CSV (each row ending in
    ``newline``), as JSON (with the metadata ``meta``) or both, on every CPU;
    ``texts(chunk)`` gives each column's (CSV, JSON) strings for a slice of rows.

    The rows are cut into one contiguous range per CPU (``_kernels._WORKERS``,
    at most one per chunk of ``_CHUNK_ROWS``), each formatted by
    :func:`_text_chunks`.  The caller writes the first range over the outputs
    in place (:func:`_open_output`); one forked child per further range writes
    it into temporary files, which the caller appends in row order
    (:func:`_append`).  Without ``os.fork``, or beside another live thread
    (whose locks a forked child would hold forever), the caller writes it all.
    A failing child makes the call raise TrithermError; no child outlives it.
    """
    workers = min(_kernels._WORKERS, -(-n // _CHUNK_ROWS))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        workers = 1
    ranges = [range(n * w // workers, n * (w + 1) // workers) for w in range(workers)]
    paths = (csv_path, json_path)
    children = {}   # pid -> (its rows, its temporary files), in row order
    with contextlib.ExitStack() as stack:
        out_csv, out_json = outs = [p and _open_output(stack, p) for p in paths]
        try:
            for part in ranges[1:]:
                tmps = [p and stack.enter_context(tempfile.TemporaryFile()) for p in paths]
                pid = os.fork()
                if pid == 0:   # the child; os._exit flushes no buffer of the caller
                    status = 1
                    try:
                        _write_chunks(_text_chunks(texts, part, *paths, newline), tmps)
                        status = 0
                    finally:
                        os._exit(status)
                children[pid] = part, tmps
            if out_csv:
                out_csv.write((",".join(header) + newline).encode())
            if out_json:
                out_json.write(('{"metadata":' + json.dumps(
                    meta, sort_keys=True, separators=(",", ":")) + ',"rows":[').encode())
            _write_chunks(_text_chunks(texts, ranges[0], *paths, newline), outs)
            for pid, (part, tmps) in list(children.items()):
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[pid]
                if status:
                    raise TrithermError(f"the writer of rows {part.start} to "
                                        f"{part.stop - 1} exited with status {status}")
                for tmp, out in zip(filter(None, tmps), filter(None, outs)):
                    _append(tmp, out)
        finally:
            if children:
                import signal   # only here: a failed write
                for pid in children:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
        if out_json:
            out_json.write(('],"schema":' + json.dumps(
                header, separators=(",", ":")) + "}").encode())


def _open_output(stack, path):
    """``path`` overwritten in place; ``stack`` cuts a regular file to the bytes written."""
    out = stack.enter_context(open(path, "wb", opener=lambda p, flags: os.open(
        p, flags & ~os.O_TRUNC, 0o666)))
    stack.callback(lambda: stat.S_ISREG(os.fstat(out.fileno()).st_mode) and out.truncate())
    return out


def _append(tmp, out) -> None:
    """Append the file ``tmp`` to ``out`` by ``os.sendfile``, else through Python."""
    out.flush()
    offset = 0
    try:
        while sent := os.sendfile(out.fileno(), tmp.fileno(), offset, 1 << 30):
            offset += sent
    except (AttributeError, OSError):   # missing, or refused (macOS sends to sockets only)
        if offset:   # a byte moved: a failed write, not a refused pair
            raise
        tmp.seek(0)
        shutil.copyfileobj(tmp, out)


def _text_chunks(texts, rows: range, want_csv, want_json, newline):
    """``(CSV bytes, JSON bytes)`` of each chunk of at most ``_CHUNK_ROWS``
    of the ``rows``, from ``texts``, None for a format not wanted.  A JSON
    chunk after the table's first row begins with the comma that joins it
    to the previous one."""
    for start in range(rows.start, rows.stop, _CHUNK_ROWS):
        csv_cols, json_cols = zip(*texts(slice(start, min(start + _CHUNK_ROWS, rows.stop))))
        yield ((newline.join(map(",".join, zip(*csv_cols))) + newline).encode()
               if want_csv else None,
               (("," if start else "") + "[" + "],[".join(
                   map(",".join, zip(*json_cols))) + "]").encode()
               if want_json else None)


def _write_chunks(chunks, files) -> None:
    for texts in chunks:
        for fh, text in zip(files, texts):
            if fh:
                fh.write(text)
    for fh in filter(None, files):
        fh.flush()


def _float_texts(values) -> tuple[list[str], list[str]]:
    """CSV (``repr``) and JSON texts of each element of a float array."""
    text = float_texts(values)
    if np.isfinite(values).all():
        return text, text
    return text, [_JSON_NONFINITE.get(t, t) for t in text]


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate a sweep, a SweepSpec (DomainError otherwise).

    Cells are laid out row-major over (axis1, axis2).  Cells violating
    preconditions are marked with an error code and carry NaN values and
    the mode label ``error`` rather than being dropped; so are cells whose
    kernel values are not finite (``currents.finite_rows``).  The grid is
    evaluated in tiles of at most ``_kernels.TILE_POINTS`` cells (see the
    module docstring) through :func:`tritherm._kernels.map_blocks`, on the
    calling thread and one helper per further CPU; each tile builds its own
    arguments and writes only its own cells, error cells included, so the
    result does not depend on the thread count.  A nonfinite cell is
    reported by its error code, not by a numpy warning: the kernel computes
    with numpy's error state off.
    """
    template = check_type(spec, SweepSpec, "spec").template
    a1 = spec.axis1.values()
    a2 = spec.axis2.values() if spec.axis2 is not None else None
    n1 = len(a1)
    n2 = 1 if a2 is None else len(a2)
    n = n1 * n2

    def kernel_args(tile=(slice(None), slice(None))):
        # by path: the axes' values over the tile (by default the grid), axis1
        # as a column and axis2 as a row, and the template's scalars
        columns = _axis_columns(spec.axis1.param, a1[tile[0], None], template)
        if a2 is not None:
            columns.update(_axis_columns(spec.axis2.param, a2[None, tile[1]], template))
        return _kernel_args(template, columns)

    codes = validity_codes([*kernel_args().values()], (n1, n2))
    transistor = "transistor" in spec.outputs
    thermo = np.empty((n, NCOLS))
    mode_codes = np.empty(n, dtype=np.int8)
    phi = np.empty(n)
    r, g = (np.empty(n), np.empty(n)) if transistor else (None, None)
    # (n1, n2) views of the row-major results
    grids = [a.reshape(n1, n2, *a.shape[1:]) for a in (thermo, mode_codes, phi, r, g)
             if a is not None]
    cols = min(n2, _kernels.TILE_POINTS)
    rows = max(1, _kernels.TILE_POINTS // cols)

    def run(tile):
        # ``currents._blank_errors`` gives the error cells (nonfinite ones too)
        # NaN rows, which classify and score without raising, and writes their
        # codes into ``codes[tile]``; the tile's temporaries are freed on return.
        args = kernel_args(tile)
        table = thermo_batch(*args.values(), slopes=transistor)
        bad = _blank_errors(table, codes[tile])
        modes = classify_table(table, args["hot.kappa"], args["cold.kappa"])
        modes[bad] = ERROR_CODE
        values = [table[..., :NCOLS], modes,
                  _exergy(table[..., COL_SPOS], table[..., COL_SNEG]),
                  *(_figures(table) if transistor else ())]
        for grid, v in zip(grids, values, strict=True):
            grid[tile] = v

    _kernels.map_blocks(run, [(slice(i, i + rows), slice(j, j + cols))
                              for i in range(0, n1, rows) for j in range(0, n2, cols)])
    return SweepResult(spec, a1, a2, thermo, mode_codes, phi, r, g, codes.reshape(n))


def resonance_lines(spec: SweepSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """Overlay lines for an (drive, hot-center) map, as (slope, intercept).

    The first line is the hot-bath resonance (peak aligned with the upper
    sideband), the second the cold-bath resonance expressed through the
    template detuning.  Requires a SweepSpec (DomainError otherwise) with
    one drive_freq axis and one hot.center / hot.center_locked axis.
    """
    check_type(spec, SweepSpec, "spec")
    params = {spec.axis1.param} | ({spec.axis2.param} if spec.axis2 else set())
    if "drive_freq" not in params or not (params & {"hot.center", "hot.center_locked"}):
        raise ConfigError("resonance lines require a drive_freq axis and a "
                          "hot.center (or hot.center_locked) axis")
    w0 = spec.template.wm.omega0
    return (1.0, w0), (-1.0, w0 + spec.template.detuning)


def mode_sequence_along_omega(config: MachineConfig, omega_grid) -> list:
    """Run-length-encoded mode labels along a drive-frequency sweep.

    Returns ``[((omega_start, omega_end), OperatingMode), ...]`` with
    consecutive equal labels merged.  DomainError for a grid or a kernel
    value that :func:`tritherm.transistor.transistor_trace` rejects.
    """
    grid, table = _drive_table(config, omega_grid)
    codes = classify_table(table, config.hot.kappa, config.cold.kappa)
    _, starts, stops = _runs(codes)
    return [((float(grid[start]), float(grid[stop - 1])), MODE_BY_CODE[codes[start]])
            for start, stop in zip(starts.tolist(), stops.tolist())]
