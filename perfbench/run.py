#!/usr/bin/env python3
"""Benchmark of the ``transversal`` workbench.

    python3 perfbench/run.py --workload {cli,vis_sweep,suite} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh process
(``perfbench/worker.py``) that imports the program from ``src/``; the
environment variable ``TRANSVERSAL_WORKERS`` is removed from that process so
the program's defaults run.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of
``perfbench/tracing.py``; the lines before it give the machine facts, every
metric with its unit, and the reference checks.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("cli", "vis_sweep", "suite")
#: set-up-only processes started before the measured one; ``setup_s`` is the
#: median over them and the measured process
SETUP_PROBES = 2
#: the whole benchmark ends within this many seconds
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MiB",
    "mc_se_ratio_rms": "ratio",
    "setup_s": "s",
}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("ops_per_s"):
        return "1/s"
    for part, unit in ((".calls", "count"), ("_share", "share"), (".ns_per_", "ns"), (".us_per_", "us")):
        if part in name:
            return unit
    return "s" if name.endswith("_s") else "count"


def machine_facts():
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def spawn(extra, env, deadline):
    """Run the worker; return (monotonic start, payload) or exit on failure."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *extra],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: the workload process ran past the deadline")
    if proc.returncode != 0:
        sys.exit(f"perfbench: the workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit("perfbench: the workload process printed no result")
    return started, json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="transversal benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small shapes, for the self-test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isdir(os.path.join(ROOT, "src", "transversal")):
        sys.exit(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'transversal')}")
    env = {k: v for k, v in os.environ.items() if k != "TRANSVERSAL_WORKERS"}
    load_start = os.getloadavg()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds)]
    common += ["--tiny"] if args.tiny else []

    # set-up times at the reference speed (see calibration.py)
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            started, probe = spawn(common + ["--setup-only"], env, deadline)
            setups.append((probe["ready"] - started) * probe["speed_factor"])
    started, result = spawn(common + ["--trace", str(args.trace)], env, deadline)
    setups.append((result["ready"] - started) * result["speed_factor"])
    load_end = os.getloadavg()

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    else:
        units = {name: unit_of(name) for name in metrics}
    machine = machine_facts()
    machine.update(result["machine"])
    machine["loadavg_start"] = list(load_start)
    machine["loadavg_end"] = list(load_end)
    machine["transversal_workers_removed"] = "TRANSVERSAL_WORKERS" in os.environ

    info = result["info"]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    notes = {
        "op_tail_ms": f"p{info['tail_percentile']:.2f} of {info['ops']} operations",
        "setup_s": f"median of {len(setups)} set-ups",
        "mc_se_ratio_rms": f"over {info['estimates']} estimates",
    }
    for name in ("ops_per_s", "op_p50_ms", "op_tail_ms"):
        if not args.trace:
            notes[name] = f"{notes[name]}; " if name in notes else ""
            notes[name] += f"unscaled {info['unscaled_' + name]:.6g}"
    for name in sorted(metrics):
        note = f"  ({notes[name]})" if name in notes and not args.trace else ""
        print(f"  {name:40s} {metrics[name]!r} {units[name]}{note}")
    print(f"speed factor (reference / local calibration kernel time): median {info['speed_factor_median']:.4f}")
    if args.trace:
        print(f"trace spans written to {result['trace_file']}")
    print(
        f"operations: {result['attempted']} attempted, {result['failed']} failed, "
        f"{result['unconverged']} unconverged Lewis solves (exit 1); "
        f"references: {result['reference_checks']} checks, misses {result['reference_misses']}"
    )
    correct = result["failed"] == 0 and not result["reference_misses"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
