#!/usr/bin/env python3
"""tritherm benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload map_compute --seed 1 --seconds 10 --trace 0

Workloads: ``cli``, ``map_compute``, ``search``, ``scalar`` (see
``BENCHMARK.json`` and ``perfbench/README.md``).  With ``--trace 0`` the
result holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.

This process imports nothing from tritherm.  It measures set-up time by
starting ``SETUP_PROBES`` processes that only import tritherm and make one
warm call, then runs the workload in one more fresh, single-threaded
process (whose start is a set-up sample too).  The last stdout line is the
result; the lines before it give the machine fingerprint and the details
(sample counts, per-pass times, problems found).

Exit status is 0 whenever a result is printed, also when the outputs fail
their checks (``"correct": false``), and 1 when no result can be produced,
for example when ``src/tritherm`` is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli", "map_compute", "search", "scalar")
SETUP_PROBES = 5
DEADLINE_S = 170.0
FORCED_UNSET = ("TRITHERM_THREADS", "TRITHERM_KERNELS")
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CACHE_LEVELS = ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for name in FORCED_UNSET:
        env.pop(name, None)
    for name in SINGLE_THREAD:
        env[name] = "1"
    return env


def start_child(args_list, deadline) -> tuple[float, float, list[str]]:
    """Run ``child.py``; return (raw set-up seconds, speed factor, stdout lines).

    The speed factor is ``calib.REF_S["interp"]`` over the mean of two
    ``interp`` probe readings that bracket the set-up: one taken here just
    before the start, one taken by the child once it is ready.
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT] + args_list
    before = calib.read("interp")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("benchmark process exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"benchmark process exited with code {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        raise BenchError("benchmark process printed nothing")
    ready = json.loads(lines[0])
    speed = calib.REF_S["interp"] / (0.5 * (before + ready["probe_s"]))
    return ready["ready"] - t0, speed, lines


def p99(samples):
    """Nearest-rank 99th percentile (the maximum below 100 samples)."""
    s = sorted(samples)
    return s[max(math.ceil(0.99 * len(s)) - 1, 0)]


def fingerprint(summary) -> dict:
    caches = {}
    getconf = shutil.which("getconf")
    for name in CACHE_LEVELS:
        value = None
        if getconf:
            res = subprocess.run([getconf, name], capture_output=True, text=True)
            value = res.stdout.strip() or None
        caches[name] = int(value) if value and value.isdigit() else value
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": summary["numpy"],
        "scipy": summary["scipy"],
        "kernel_backend": summary["backend"],
        "env_forced_unset": {name: None for name in FORCED_UNSET},
        "env_inherited": {name: os.environ.get(name) for name in FORCED_UNSET},
        "threads_env": {name: "1" for name in SINGLE_THREAD},
        "cache_bytes": caches,
        "note": ("the host reports a 300 MiB L3; arrays at 4x the LLC do not fit "
                 "in this machine's memory, so kernel bytes are computed "
                 "(12 inputs + output columns, float64), not measured, and no "
                 "bandwidth ratio is given"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes and one set-up sample (benchmark self-test)")
    args = ap.parse_args(argv)

    for rel in ("src/tritherm/__init__.py", "configs", "tests/data"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            print(f"error: {rel} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 1

    deadline = time.monotonic() + DEADLINE_S
    try:
        probes = [start_child(["--workload", "none"], deadline)[:2]
                  for _ in range(0 if args.smoke else SETUP_PROBES)]
        wl_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            wl_args.append("--smoke")
        raw_setup, speed, lines = start_child(wl_args, deadline)
        probes.append((raw_setup, speed))
        summary = json.loads(lines[-1])
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup = [raw * speed for raw, speed in probes]
    attempted, failed = summary["attempted"], summary["failed"]
    if args.trace:
        metrics = summary["layers"]
    else:
        calls = summary["call_seconds"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            # the median pass; on per-operation workloads the sum of each
            # operation's median over the passes
            "wall_s": {"value": math.fsum(calls), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "call_p50_us": {"value": 1e6 * statistics.median(calls), "unit": "us"},
            "call_p99_us": {"value": 1e6 * p99(calls), "unit": "us"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "setup_samples_s": setup,
        "raw_setup_samples_s": [raw for raw, _ in probes],
        "passes": len(summary["pass_seconds"]),
        "pass_seconds": summary["pass_seconds"],
        "raw_pass_seconds": summary["raw_pass_seconds"],
        "raw_wall_s": math.fsum(summary["raw_call_seconds"]),
        "raw_call_p50_us": 1e6 * statistics.median(summary["raw_call_seconds"]),
        "raw_call_p99_us": 1e6 * p99(summary["raw_call_seconds"]),
        "probe_s": summary["probe_s"],
        "in_op_probe_readings": summary["in_op_probe_readings"],
        "traced_pass_seconds": summary["traced_pass_seconds"],
        "call_samples": len(summary["call_seconds"]),
        "fail_ratio": failed / attempted,
        "problems": summary["problems"],
        "absent_wrap_targets": summary["absent"],
        "inputs_sha256": summary["inputs"],
    }
    print(json.dumps({"fingerprint": fingerprint(summary)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
