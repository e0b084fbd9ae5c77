"""One benchmark process: import tritherm, warm it, run one workload.

Started by ``run.py``.  The first stdout line is ``{"ready": t,
"probe_s": p}``: ``t`` is the ``time.monotonic()`` reading after
``import tritherm`` and one warm call, and ``p`` an ``interp`` probe reading
taken right after (see ``calib.py``).  ``run.py`` subtracts its own
``time.monotonic()`` reading taken just before it started this process and
scales the difference by the reference probe time over the mean of ``p``
and its own probe reading, which gives one set-up sample.  With
``--workload none`` the process stops there.  Otherwise the last stdout
line is the workload summary that ``run.py`` turns into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import calib

CAL_EVERY_S = 0.3

WARM_CONFIG = {
    "drive_freq": 0.5,
    "hot": {"temperature": 0.8, "center": 1.5, "width": 0.05, "kappa": 0.01},
    "cold": {"temperature": 0.2, "center": 0.75, "width": 0.05, "kappa": 0.01},
    "mid": {"temperature": 0.5},
}


def import_tritherm(root):
    sys.path.insert(0, os.path.join(root, "src"))
    import tritherm
    src = os.path.realpath(os.path.join(root, "src")) + os.sep
    if not os.path.realpath(tritherm.__file__).startswith(src):
        raise ImportError(f"tritherm imported from {tritherm.__file__}, "
                          f"not from the checkout's src/")
    return tritherm


def run_phase(ops, probe, sample_every, budget, tracer, reference, problems):
    """Repeat passes over ``ops`` as often as brings their timed work closest
    to ``budget`` seconds (at least one pass).

    The first pass ever run is checked in full and becomes the reference;
    every later pass, traced or not, must reproduce its digests exactly.
    The host-speed ``probe`` (a kind in ``calib.py``) is read at every pass
    boundary and at the first operation boundary ``CAL_EVERY_S`` after the
    previous reading, and, with ``sample_every`` set, every ``sample_every``
    seconds while operations run (that time is taken out of the operation's
    time).  Each operation's time is scaled by the probe's ``REF_S`` over the
    mean of the readings from the segment it ran in.  Returns per-operation
    raw and scaled seconds, the pass each operation belongs to, the boundary
    probe readings, the number of readings taken while operations ran and
    the operation counts.
    """
    raw, scaled, pass_of = [], [], []
    attempted = failed = 0
    segment = sampled = 0
    sampler = calib.Sampler(probe, sample_every)

    def boundary_reading():
        with sampler.paused():
            return calib.read(probe)

    def close_segment():
        nonlocal segment, sampled, last_cal
        cals.append(boundary_reading())
        readings = cals[-2:] + sampler.readings[sampled:]
        sampled = len(sampler.readings)
        factor = calib.REF_S[probe] / statistics.mean(readings)
        last_cal = time.perf_counter()
        scaled.extend(t * factor for t in raw[segment:])
        segment = len(raw)

    with sampler:
        cals = [boundary_reading()]
        last_cal = time.perf_counter()
        n_pass = 0
        while True:
            for i, op in enumerate(ops):
                attempted += 1
                spent = sampler.spent
                t0 = time.perf_counter()
                try:
                    if op.span and tracer is not None:
                        with tracer.span(op.span):
                            out = op.run()
                    else:
                        out = op.run()
                    error = None
                except Exception as exc:  # a failed operation, counted below
                    out, error = None, f"{type(exc).__name__}: {exc}"
                raw.append(time.perf_counter() - t0 - (sampler.spent - spent))
                pass_of.append(n_pass)
                if tracer is not None:
                    tracer.enabled = False
                found = [error] if error else _verify(op, out, i, reference)
                del out
                if i + 1 == len(ops) or time.perf_counter() - last_cal >= CAL_EVERY_S:
                    close_segment()
                if tracer is not None:
                    tracer.enabled = True
                if found:
                    failed += 1
                    if len(problems) < 20:
                        problems.extend(found[:3])
            n_pass += 1
            # stop at the pass count whose timed work comes closest to budget
            done = sum(raw)
            if done + 0.5 * done / n_pass >= budget:
                break
    return {"raw": raw, "scaled": scaled, "pass_of": pass_of, "probe_s": cals,
            "in_op_readings": len(sampler.readings),
            "attempted": attempted, "failed": failed}


def pass_totals(phase, key):
    totals = [0.0] * (phase["pass_of"][-1] + 1)
    for p, t in zip(phase["pass_of"], phase[key]):
        totals[p] += t
    return totals


def _verify(op, out, i, reference):
    digest = op.digest(out)
    if i not in reference:
        found = op.check(out)
        reference[i] = (digest, not found)
        return found
    ref_digest, ref_ok = reference[i]
    if digest != ref_digest:
        return [f"op {i}: output differs from the first pass"]
    return [] if ref_ok else [f"op {i}: repeats a failed output"]


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    tt = import_tritherm(args.root)
    tt.mode_report(tt.MachineConfig.from_dict(WARM_CONFIG))
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "probe_s": calib.read("interp")}), flush=True)
    if args.workload == "none":
        return 0

    import numpy
    import scipy

    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    wl = workloads.WORKLOADS[args.workload](tt, args.root, args.seed, args.smoke)
    problems, reference = [], {}
    try:
        ops = wl.ops()
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = run_phase(ops, wl.probe, wl.sample_every, budget, None,
                          reference, problems)
        attempted, failed = plain["attempted"], plain["failed"]
        layers = traced = None
        if tracer is not None:
            tracer.install()
            tracer.enabled = True
            try:
                traced = run_phase(ops, wl.probe, wl.sample_every, budget, tracer,
                                   reference, problems)
            finally:
                tracer.uninstall()
            attempted += traced["attempted"]
            failed += traced["failed"]
            overhead = (statistics.median(pass_totals(traced, "scaled"))
                        - statistics.median(pass_totals(plain, "scaled")))
            layers = tracer.layer_metrics(len(pass_totals(traced, "raw")), overhead)
            tracer.dump(os.path.join(args.root, ".perfbench_out",
                                     f"spans-{args.workload}.jsonl"))
        for found in wl.final_checks():
            attempted += 1
            if found:
                failed += 1
                problems.extend(found[:3])
    finally:
        wl.close()

    n_ops = len(ops)
    if wl.call == "op":
        # each operation's median over the passes: host interruptions drop
        # out, input-dependent cost stays
        calls = {key: [statistics.median(plain[key][i::n_ops]) for i in range(n_ops)]
                 for key in ("raw", "scaled")}
    else:
        calls = {key: [statistics.median(pass_totals(plain, key))]
                 for key in ("raw", "scaled")}
    summary = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "pass_seconds": pass_totals(plain, "scaled"),
        "raw_pass_seconds": pass_totals(plain, "raw"),
        "call_seconds": calls["scaled"],
        "raw_call_seconds": calls["raw"],
        "probe_s": plain["probe_s"],
        "in_op_probe_readings": plain["in_op_readings"],
        "traced_pass_seconds": None if traced is None else pass_totals(traced, "scaled"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "absent": tracer.absent if tracer is not None else [],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": _backend(tt),
        "inputs": workloads.input_digests(args.root),
    }
    print(json.dumps(summary), flush=True)
    return 0


def _backend(tt):
    get = getattr(tt, "get_backend", None)
    return get() if callable(get) else "numpy (no backend registry)"


if __name__ == "__main__":
    sys.exit(main())
