"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/test_perfbench.py

They check the self-time arithmetic, that every reference check flags an
output perturbed by 1e-6 relative, the tracer's wrapping, and one workload
end to end at a tiny size.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from transversal import cli, transversality  # noqa: E402
from transversal.hypersurface import random_surface  # noqa: E402
from transversal.transversality import q_exact  # noqa: E402
from transversal.volumes import vis_p  # noqa: E402
from transversal.zonotope import Ball, mixed_volume, projection_body  # noqa: E402

PERTURB = 1.0 + 1e-6


def _span(i, name, start, end, parent=None, op=0, **extra):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op, **extra}


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_self_time_nested_tree():
    spans = [
        _span(0, "cli.main", 0.0, 10.0),
        _span(1, "hypersurface.load_surface", 1.0, 4.0, parent=0),
        _span(2, "transversality.finner_check", 5.0, 9.0, parent=0),
        _span(3, "reports.make_report", 6.0, 7.0, parent=2),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    m = tracing.layer_metrics(spans)
    assert m["cli.main.self_s"] == 3.0
    assert m["transversality.finner_check.self_s"] == 3.0
    assert m["reports.make_report.self_s"] == 1.0
    # the layers' self times add up to the root's duration
    assert math.isclose(m["trace.self_sum_s"], 10.0)
    assert math.isclose(sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS), 10.0)


def test_self_time_overlapping_children_count_once():
    spans = [
        _span(0, "inequality_lab.run_suite", 0.0, 10.0),
        _span(1, "inequality_lab.run_check", 2.0, 6.0, parent=0),
        _span(2, "inequality_lab.run_check", 4.0, 8.0, parent=0),
    ]
    assert tracing.self_times(spans)[0] == 4.0


def test_setup_spans_are_outside_the_operation_sum():
    spans = [
        _span(0, "hypersurface.random_surface", 0.0, 2.0, op=tracing.SETUP_OP),
        _span(1, "cli.main", 3.0, 4.0, op=0),
    ]
    m = tracing.layer_metrics(spans)
    assert m["trace.self_sum_s"] == 1.0
    assert m["hypersurface.random_surface.self_s"] == 2.0


def test_computed_tuple_counts():
    s = random_surface(3, 5, 1)
    t = random_surface(3, 4, 2)
    assert tracing.tuple_counts([s, s, s]) == (125, 125 - 60)
    assert tracing.tuple_counts([s, t, s]) == (100, 100 - 5 * 4 * 4)


# ---------------------------------------------------------------------------
# references flag a 1e-6 relative perturbation
# ---------------------------------------------------------------------------


def _arrays(s):
    return s.weights, s.vectors


@pytest.mark.parametrize("d,m,j,p", [(3, 7, 3, 1.0), (4, 6, 4, 2.0), (4, 7, 3, 1.5), (3, 6, 1, 2.0)])
def test_q_references_accept_the_program_and_flag_a_perturbation(d, m, j, p):
    s = random_surface(d, m, 11)
    w, V = _arrays(s)
    value = q_exact(s, j, p)
    good = ref.check_q(w, V, j, p, value)
    bad = ref.check_q(w, V, j, p, value * PERTURB)
    names = {name for name, _ in good}
    assert all(ok for _, ok in good)
    assert not any(ok for _, ok in bad)
    assert ("q_cauchy_binet" in names) == (p == 2.0)
    assert ("q_det_sum" in names) == (p == 1.0 and j == d)


def test_vis2_reference():
    s = random_surface(3, 6, 4)
    value = vis_p(s, 2.0, "exact").value
    assert ref.check_vis2(*_arrays(s), value) == [("vis2_covariance", True)]
    assert ref.check_vis2(*_arrays(s), value * PERTURB) == [("vis2_covariance", False)]


def test_mixed_volume_reference():
    zs = [projection_body(random_surface(4, n, 20 + n)) for n in (4, 5, 6)]
    value = mixed_volume(Ball(4), 1, zs)
    gens = [z.generators for z in zs]
    assert ref.check_mixed_volume(gens, 4, value)[0][1]
    assert not ref.check_mixed_volume(gens, 4, value * PERTURB)[0][1]


def test_bytes_reference_flags_a_perturbed_number():
    payload = {"lhs": 1.2345678901234}
    first = json.dumps(payload).encode()
    second = json.dumps({"lhs": payload["lhs"] * PERTURB}).encode()
    assert ref.check_bytes(first, first)[0][1]
    assert not ref.check_bytes(first, second)[0][1]


def test_printed_cli_values_keep_the_tolerance_tight():
    # ten printed decimals: the print slack is far below a 1e-6 perturbation
    assert ref.PRINT_ABS < 1e-6 * 0.1


# ---------------------------------------------------------------------------
# tracer and statistics
# ---------------------------------------------------------------------------


def test_tracer_wraps_names_imported_by_other_modules(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.q_exact is transversality.q_exact
        assert cli.q_exact is not q_exact  # this module kept the original
        tracer.active = True
        path = tmp_path / "s.json"
        cli.save_surface(random_surface(3, 5, 3), str(path))
        tracer.op = 0
        with open(os.devnull, "w") as sink:
            saved, sys.stdout = sys.stdout, sink
            try:
                assert cli.main(["q", "--surface", str(path)]) == 0
            finally:
                sys.stdout = saved
        names = [s["name"] for s in tracer.spans]
        assert names == ["hypersurface.save_surface", "cli.main", "hypersurface.load_surface", "transversality.q_exact"]
        q_span = tracer.spans[-1]
        assert q_span["parent"] == tracer.spans[1]["id"] and q_span["tuples"] == 125
    finally:
        tracer.uninstall()
    assert cli.q_exact is q_exact


def test_tail_keeps_ten_operations_beyond_it():
    value, pct = worker.tail(list(range(100)))
    assert value == 89 and sum(x > value for x in range(100)) == 10
    assert pct == 90.0
    assert worker.tail([3, 1, 2]) == (3, 100.0)


def test_calibration_factors_use_the_local_median():
    cal = calibration.Calibrator()
    cal.samples = [(10 * i, 0.02 if i < 2 else 0.04) for i in range(12)]
    factors = cal.factors(120)
    assert len(factors) == 120
    # the window of nine runs at the start holds two fast ones: median 0.04
    assert factors[0] == calibration.REFERENCE_S / 0.04
    assert calibration.Calibrator().factors(3) == [1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# end to end at a tiny size
# ---------------------------------------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_suite_workload_end_to_end_tiny(trace):
    out = _run("--workload", "suite", "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        # every second of traced operation time is some layer's self time
        assert metrics["trace.unattributed_share"] < 0.05
        assert layer_sum >= metrics["trace.self_sum_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = _run("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout.strip() == ""
