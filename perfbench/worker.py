"""One workload in one fresh process: set-up, the timed closed loop, checks.

Started by ``run.py``; prints one JSON object as its last stdout line.

Set-up imports ``transversal`` from the checkout's ``src``, draws the first
cycle's instances (and writes its surface files), and warms up with one
small cycle of the same operation kinds; the process then reports the monotonic time at which the first
timed operation can start.  The loop then runs whole cycles, one operation
at a time, while the cycles' summed operation time plus half a cycle stays
within ``--seconds``.  Outputs are checked only after the loop.

With ``--trace 1`` the layer functions are wrapped by ``tracing.Tracer``.  The
loop first runs untraced for a quarter of ``--seconds``, then traced from
cycle 0 again for ``--seconds``; the traced time of the cycles both passes
ran, over their untraced time, gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import calibration
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: cycle index of the warm-up operations' instances
WARMUP_CYCLE = 1_000_000
#: share of ``--seconds`` that a traced run first spends untraced
UNTRACED_SHARE = 0.25


# ---------------------------------------------------------------------------
# end-to-end statistics
# ---------------------------------------------------------------------------


def tail(latencies):
    """(value, percentile) at the highest percentile with at least 10
    operations beyond it; with 10 or fewer operations, the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n


def rms(values):
    return math.sqrt(math.fsum(v * v for v in values) / len(values)) if values else 0.0


def end_to_end(records, factors, missed=frozenset()):
    """Metrics of a list of (op, output, error, seconds) records.  Timings
    are scaled to the reference speed by ``factors`` (one per record, see
    ``calibration``); ``missed`` holds the indices of records whose output
    missed a reference.  The second value holds the unscaled timings and
    the facts printed beside the metrics."""
    raw = [r[3] * 1000.0 for r in records]
    scaled = [t * f for t, f in zip(raw, factors)]
    ok = sum(status_of(r) == "ok" and i not in missed for i, r in enumerate(records))
    estimates = []
    for op, output, error, _ in records:
        if error is None:
            estimates += op.estimates(output)
    tail_ms, tail_pct = tail(scaled)
    metrics = {
        "ops_per_s": len(records) / (math.fsum(scaled) / 1000.0),
        "op_p50_ms": statistics.median(scaled),
        "op_tail_ms": tail_ms,
        "ok_share": ok / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mc_se_ratio_rms": rms(estimates),
    }
    info = {
        "tail_percentile": tail_pct,
        "ops": len(records),
        "estimates": len(estimates),
        "unscaled_ops_per_s": len(records) / (math.fsum(raw) / 1000.0),
        "unscaled_op_p50_ms": statistics.median(raw),
        "unscaled_op_tail_ms": tail(raw)[0],
        "speed_factor_median": statistics.median(factors),
    }
    return metrics, info


def status_of(record):
    op, output, error, _ = record
    return "failed" if error is not None else op.status(output)


def check_references(records, workload):
    """(checks made, {reference name: misses}, indices of records that
    missed); a reference that cannot be evaluated on an output is a miss
    named after the error.  Run-level references have no record index."""
    made, misses, missed = 0, {}, set()

    def note(name, ok, index=None):
        nonlocal made
        made += 1
        if not ok:
            misses[name] = misses.get(name, 0) + 1
            if index is not None:
                missed.add(index)

    for i, (op, output, error, _) in enumerate(records):
        if error is not None:
            continue
        try:
            results = op.references(output)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            results = [(f"{op.kind}:{type(exc).__name__}", False)]
        for name, ok in results:
            note(name, ok, i)
    for name, ok in workload.final_references():
        note(name, ok)
    return made, misses, missed


# ---------------------------------------------------------------------------
# machine facts that need numpy
# ---------------------------------------------------------------------------


def blas_facts():
    import numpy as np
    import scipy

    facts = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": None,
        "blas_version": None,
        "blas_config": None,
        "blas_threads": None,
    }
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"], facts["blas_version"] = info.get("name"), info.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is None:
                continue
            threads.restype = ctypes.c_int
            facts["blas_threads"] = threads()
            if config is not None:
                config.restype = ctypes.c_char_p
                facts["blas_config"] = config().decode()
            return facts
    return facts


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run_cycles(workload, first_ops, seconds, calibrator, tracer=None):
    """Whole cycles from cycle 0, with a calibration kernel run about every
    ``calibration.EVERY_S`` of operation time; returns (records, busy
    seconds)."""
    records, per_cycle = [], []
    since = calibration.EVERY_S
    c = 0
    while True:
        ops = first_ops if c == 0 else workload.cycle(c)
        busy = 0.0
        for op in ops:
            if since >= calibration.EVERY_S:
                calibrator.sample(len(records))
                since = 0.0
            if tracer is not None:
                tracer.op = len(records)
            error = output = None
            t0 = time.perf_counter()
            try:
                output = op.run()
            except Exception as exc:  # an operation that raises is a failed one
                error = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.op = tracing.SETUP_OP
            records.append((op, output, error, dt))
            busy += dt
            since += dt
        per_cycle.append(busy)
        c += 1
        total = math.fsum(per_cycle)
        if total + 0.5 * total / c > seconds:
            calibrator.sample(len(records))
            return records, total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="small shapes, for the self-test")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import transversal  # noqa: F401  (loads every layer module)
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, tiny=args.tiny)
        first_ops = workload.cycle(0)
        # warm-up: every kind of operation once, at the self-test's sizes
        if tracer is not None:
            tracer.active = False
        for op in WORKLOADS[args.workload](args.seed, workdir, tiny=True).cycle(WARMUP_CYCLE):
            op.run()
        ready = time.monotonic()
        setup = {"ready": ready, "speed_factor": calibration.speed_factor()}
        if args.setup_only:
            print(json.dumps(setup))
            return 0

        payload = {**setup, "machine": blas_facts()}
        calibrator = calibration.Calibrator()
        if tracer is None:
            records, busy = run_cycles(workload, first_ops, args.seconds, calibrator)
            checks, misses, missed = check_references(records, workload)
            metrics, info = end_to_end(records, calibrator.factors(len(records)), missed)
        else:
            untraced, _ = run_cycles(
                workload, first_ops, args.seconds * UNTRACED_SHARE, calibrator
            )
            traced_calibrator = calibration.Calibrator()
            tracer.active = True
            traced, busy = run_cycles(workload, first_ops, args.seconds, traced_calibrator, tracer)
            tracer.active = False
            records = untraced + traced
            checks, misses, missed = check_references(records, workload)
            # the traced loop repeats the untraced cycles first: same inputs,
            # compared at the reference speed
            n = len(untraced)
            untraced_s = math.fsum(r[3] * f for r, f in zip(untraced, calibrator.factors(n)))
            traced_s = math.fsum(r[3] * f for r, f in zip(traced[:n], traced_calibrator.factors(n)))
            metrics = tracing.layer_metrics(tracer.spans)
            metrics.update(
                {
                    "trace.wall_s": busy,
                    "trace.ops": len(traced),
                    "trace.ops_per_s": len(traced) / busy,
                    "trace.overhead_share": traced_s / untraced_s - 1.0,
                    "trace.unattributed_s": busy - metrics["trace.self_sum_s"],
                    "trace.unattributed_share": 1.0 - metrics["trace.self_sum_s"] / busy,
                }
            )
            info = end_to_end(traced, traced_calibrator.factors(len(traced)), {i - n for i in missed})[1]
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write_jsonl(trace_path)
            payload["trace_file"] = os.path.relpath(trace_path, ROOT)
        statuses = [status_of(r) for r in records]
        payload.update(
            {
                "attempted": len(records),
                "failed": sum(s == "failed" or i in missed for i, s in enumerate(statuses)),
                "unconverged": statuses.count("unconverged"),
                "reference_checks": checks,
                "reference_misses": misses,
                "metrics": metrics,
                "info": info,
            }
        )
        print(json.dumps(payload))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
