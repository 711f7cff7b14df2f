#!/usr/bin/env python3
"""Per-layer figures of single large calls, through the benchmark's tracer.

    python3 perfbench/baseline.py

Reproduces the figures measured when the benchmark was defined (recorded in
``perfbench/BASELINE.md``): ``q_exact`` at (d, j, m) = (5, 5, 24) and
(4, 4, 40) with p = 1, which are too large for a workload cycle; radial Monte
Carlo ``kp_volume`` with 10^6 samples (d = 3, m = 6, p = 1.5, five calls);
and the built-in default suite (five runs, seeds 1-5).  Prints one JSON line
per case with its wall time and the non-zero per-layer metrics.  Takes about
40 s on a 2-core Xeon.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracing  # noqa: E402
from transversal import hypersurface, inequality_lab, transversality, volumes  # noqa: E402


def cases():
    yield "q_exact d=5 j=5 m=24 p=1", lambda: transversality.q_exact(
        hypersurface.random_surface(5, 24, 1), 5, 1.0
    )
    yield "q_exact d=4 j=4 m=40 p=1", lambda: transversality.q_exact(
        hypersurface.random_surface(4, 40, 1), 4, 1.0
    )
    s = hypersurface.random_surface(3, 6, 1)
    yield "kp_volume radial_mc 1e6 samples x5", lambda: [
        volumes.kp_volume(s, 1.5, n_samples=1_000_000, seed=k) for k in range(5)
    ]
    yield "default suite x5", lambda: [
        inequality_lab.run_suite(inequality_lab.default_suite_config(seed=k)) for k in range(1, 6)
    ]


def main():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, call in cases():
            tracer.spans = []
            tracer.active, tracer.op = True, 0
            t0 = time.perf_counter()
            call()
            wall = time.perf_counter() - t0
            tracer.active = False
            metrics = {k: v for k, v in tracing.layer_metrics(tracer.spans).items() if v}
            print(json.dumps({"case": name, "wall_s": wall, "metrics": metrics}), flush=True)
    finally:
        tracer.uninstall()
    return 0


if __name__ == "__main__":
    sys.exit(main())
