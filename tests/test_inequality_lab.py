import json

import numpy as np
import pytest

from transversal import inequality_lab
from transversal.cli import main
from transversal.hypersurface import random_surface, save_surface
from transversal.inequality_lab import (
    CHECK_IDS,
    default_suite_config,
    run_check,
    run_suite,
    write_report_csv,
    write_report_json,
)
from transversal.reports import CheckReport, fingerprint, make_report, verdict_leq

EXPECTED_IDS = {
    "AFFINE_LW",
    "BEZOUT",
    "ELLIPSOID_LW",
    "FINNER_RHO",
    "MAXIMIZER",
    "NU_MEASURE",
    "Q_INF_A",
    "REVERSE_LW_ZONOID",
    "SANTALO",
    "VIS_P1_LOWER_LEWIS",
    "VIS_P1_UPPER",
    "VIS_P2_Q",
    "VIS_SANDWICH",
    "VIS_P_UPPER",
}


def test_registry_lists_all_checks():
    assert set(CHECK_IDS) == EXPECTED_IDS


@pytest.mark.parametrize("check_id", sorted(EXPECTED_IDS))
def test_each_check_passes_on_generated_instance(check_id):
    report = run_check(check_id, params={"seed": 5})
    assert report.check_id == check_id
    assert report.verdict == "pass", report.details
    assert report.seed == 5
    payload = report.to_dict()
    assert list(payload)[:10] == [
        "check_id",
        "instance",
        "lhs",
        "rhs",
        "constant",
        "margin",
        "mc_error",
        "verdict",
        "seed",
        "runtime_ms",
    ]


def test_suite_reports_carry_their_entry_seeds():
    # every registry check, each on its generated instance at its own seed
    result = run_suite(default_suite_config(seed=3))
    assert {r.check_id for r in result.reports} == set(CHECK_IDS)
    assert not any("precondition_failure" in r.details for r in result.reports)
    assert [r.seed for r in result.reports] == [3 + 1000 * i for i in range(20)]
    assert [r["seed"] for r in result.to_dict()["reports"]] == [3 + 1000 * i for i in range(20)]
    nested = [r.details["jp_bound"]["seed"] for r in result.reports if "jp_bound" in r.details]
    assert nested == [0]  # the JP_BOUND report inside MAXIMIZER keeps its own seed
    failure = run_check("NU_MEASURE", np.eye(4), {"seed": 9})
    assert failure.details["precondition_failure"] is True and failure.seed == 9


@pytest.mark.parametrize("repeat", [0, -1, 2.7, 2.0, True, "2", None])
def test_suite_repeat_must_be_a_positive_integer(repeat):
    config = {"checks": [{"id": "NU_MEASURE", "params": {"d": 2}, "repeat": repeat}]}
    with pytest.raises(ValueError, match='"repeat" must be a positive integer'):
        run_suite(config)


def test_maximizer_covers_both_regimes():
    low = run_check("MAXIMIZER", params={"seed": 2, "p": 1.0, "d": 3})
    assert low.verdict == "pass" and low.details["regime"] == "p<=2"
    high = run_check("MAXIMIZER", params={"seed": 2, "p": 4.0, "d": 2})
    assert high.verdict == "pass"
    assert high.rhs == pytest.approx(0.5)  # four-point energy
    assert high.details["strict_gap"] > 0.0


def test_unconverged_lewis_solve_is_inconclusive():
    # at p=4 the fixed-point iteration stalls on this instance (defect ~0.89)
    report = run_check("Q_INF_A", random_surface(2, 3, seed=10), {"p": 4})
    assert report.details["lewis_converged"] is False
    assert report.details["lewis_defect"] > 0.5
    assert report.details["lewis_iterations"] > 0
    assert report.verdict == "inconclusive"
    # re-judging through the corruption hook keeps it inconclusive
    rejudged = run_check(
        "Q_INF_A", random_surface(2, 3, seed=10), {"p": 4, "_corrupt_rhs_factor": 1.0}
    )
    assert rejudged.verdict == "inconclusive"


@pytest.mark.parametrize(
    "check_id", ["Q_INF_A", "VIS_SANDWICH", "VIS_P1_LOWER_LEWIS", "REVERSE_LW_ZONOID"]
)
def test_lewis_checks_report_solver_state(check_id, monkeypatch):
    params = {"seed": 5, "n_samples": 20_000}
    converged = run_check(check_id, params=params)
    assert converged.verdict == "pass"
    assert converged.details["lewis_converged"] is True
    solve = inequality_lab.lewis_solve
    monkeypatch.setattr(inequality_lab, "lewis_solve", lambda s, p: solve(s, p, max_iter=0))
    stalled = run_check(check_id, params=params)
    assert stalled.details["lewis_converged"] is False
    assert stalled.details["lewis_iterations"] == 0
    assert stalled.verdict == "inconclusive"


def test_unknown_check_id_raises():
    with pytest.raises(KeyError):
        run_check("NOT_A_CHECK")


def test_precondition_failure_reports_inconclusive():
    report = run_check("VIS_P1_UPPER", params={"d": 6, "seed": 0})
    assert report.verdict == "inconclusive"
    assert report.details["precondition_failure"] is True
    assert "error" in report.details


def test_surface_path_instance(tmp_path):
    s = random_surface(3, 5, seed=31)
    path = tmp_path / "s.json"
    save_surface(s, path)
    by_path = run_check("SANTALO", str(path), params={"seed": 1})
    by_obj = run_check("SANTALO", s, params={"seed": 1})
    assert by_path.lhs == by_obj.lhs and by_path.rhs == by_obj.rhs


def test_corrupt_constant_hook_surfaces_failure():
    clean = run_check("AFFINE_LW", params={"seed": 4})
    assert clean.verdict == "pass"
    corrupted = run_check("AFFINE_LW", params={"seed": 4, "_corrupt_rhs_factor": 1e-6})
    assert corrupted.verdict == "fail"
    assert corrupted.details["corrupted_rhs_factor"] == 1e-6
    assert corrupted.rhs == pytest.approx(clean.rhs * 1e-6)


def test_suite_default_all_pass():
    result = run_suite(default_suite_config(seed=1))
    assert result.summary["total"] == len(result.reports) > 0
    assert result.summary["fail"] == 0
    assert result.ok
    assert result.summary["failed_ids"] == []


def test_suite_flags_corrupted_entry():
    config = {
        "seed": 1,
        "checks": [
            {"id": "AFFINE_LW", "params": {"seed": 3}},
            {"id": "AFFINE_LW", "params": {"seed": 3, "_corrupt_rhs_factor": 1e-9}},
        ],
    }
    result = run_suite(config)
    assert result.summary["fail"] == 1
    assert not result.ok
    assert result.summary["failed_ids"] == ["AFFINE_LW"]


def test_suite_empty_check_list_succeeds():
    result = run_suite({"seed": 1, "checks": []})
    assert result.ok and result.summary["total"] == 0


def test_suite_rejects_unknown_id():
    with pytest.raises(ValueError):
        run_suite({"checks": [{"id": "NOPE"}]})
    with pytest.raises(ValueError, match="entry 1"):
        run_suite({"checks": [{"id": "AFFINE_LW"}, {"check_id": "AFFINE_LW"}]})


def test_suite_ignores_legacy_workers_key():
    checks = [{"id": "AFFINE_LW"}]
    legacy = run_suite({"seed": 2, "workers": 4, "checks": checks})
    assert legacy.to_dict() == run_suite({"seed": 2, "checks": checks}).to_dict()


def test_suite_repeat_and_user_surfaces(tmp_path):
    s = random_surface(3, 5, seed=8)
    path = tmp_path / "user.json"
    save_surface(s, path)
    config = {
        "seed": 2,
        "checks": [{"id": "SANTALO", "params": {}, "repeat": 2}],
        "surfaces": [str(path)],
    }
    result = run_suite(config)
    assert result.summary["total"] == 3  # 2 generated repeats + 1 user surface
    assert result.ok


@pytest.mark.parametrize("surface", [5, random_surface(2, 3, seed=1).to_dict()])
def test_suite_entry_surface_must_be_a_path(surface, tmp_path, capsys):
    config = {"checks": [{"id": "SANTALO", "surface": surface}]}
    with pytest.raises(ValueError, match='"surface" must be a path'):
        run_suite(config)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["suite", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "check_id, instance, params",
    [
        ("SANTALO", 5, {}),
        ("FINNER_RHO", 7, {}),
        ("BEZOUT", [1, 2], {}),
        ("BEZOUT", random_surface(3, 5, seed=2), {}),
        ("ELLIPSOID_LW", random_surface(3, 5, seed=2), {}),
        ("NU_MEASURE", random_surface(3, 5, seed=2), {}),
        ("REVERSE_LW_ZONOID", random_surface(3, 5, seed=2), {"variant": "zonoid"}),
    ],
)
def test_instance_a_check_cannot_take_is_a_precondition_failure(check_id, instance, params):
    report = run_check(check_id, instance, params)
    assert report.verdict == "inconclusive"
    assert report.details["precondition_failure"] is True
    assert "takes" in report.details["error"]


def test_suite_surfaces_run_against_checks_that_take_none(tmp_path, capsys):
    path = tmp_path / "user.json"
    save_surface(random_surface(3, 5, seed=8), path)
    checks = [{"id": "ELLIPSOID_LW"}, {"id": "NU_MEASURE"}, {"id": "BEZOUT"},
              {"id": "REVERSE_LW_ZONOID", "params": {"variant": "zonoid"}}]
    config = {"seed": 2, "checks": checks, "surfaces": [str(path)]}
    result = run_suite(config)
    # each entry: its generated instance, then the user surface it cannot take
    assert [r.verdict for r in result.reports] == ["pass", "inconclusive"] * 4
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["suite", str(cfg_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_suite_json_reports_byte_identical(tmp_path):
    config = default_suite_config(seed=7)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report_json(run_suite(config), p1)
    write_report_json(run_suite(config), p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert all(r["runtime_ms"] == 0.0 for r in data["reports"])


def test_csv_projection(tmp_path):
    result = run_suite({"seed": 1, "checks": [{"id": "AFFINE_LW"}, {"id": "NU_MEASURE"}]})
    path = tmp_path / "r.csv"
    write_report_csv(result, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "check_id,instance,lhs,rhs,constant,margin,mc_error,verdict,seed,runtime_ms"
    assert len(lines) == 3


def test_timings_are_zeroed_unless_requested():
    report = run_check("NU_MEASURE", params={"seed": 1, "d": 2})
    assert report.runtime_ms > 0.0  # measured internally
    assert report.to_dict()["runtime_ms"] == 0.0
    assert report.to_dict(timings=True)["runtime_ms"] > 0.0


@pytest.mark.parametrize("d, n_nodes", [(2, 320), (3, 160 * 160)])
def test_nu_sphere_rule_is_a_normalized_rule(d, n_nodes):
    nodes, weights = inequality_lab._sphere_rule(d, 160, 160)
    assert nodes.shape == (n_nodes, d) and weights.shape == (n_nodes,)
    assert np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1.0)) <= 1e-15
    assert abs(weights.sum() - 1.0) <= 1e-14


@pytest.mark.parametrize("d", [2, 3])
def test_nu_measure_error_is_round_off(d):
    for seed in range(10):
        report = run_check("NU_MEASURE", params={"d": d, "seed": seed})
        assert report.verdict == "pass"
        assert report.details["max_relative_error"] <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_nu_measure_round_ball_support_is_one(d):
    # M = I: every quadrature support value is h(x) = 1
    report = run_check("NU_MEASURE", np.eye(d), params={"seed": 5, "n_directions": 20})
    assert report.verdict == "pass"
    assert report.details["max_relative_error"] <= 1e-13


def test_nu_measure_d4_is_a_precondition_failure():
    for instance in (None, np.eye(4)):
        report = run_check("NU_MEASURE", instance, params={"d": 4})
        assert report.verdict == "inconclusive"
        assert report.details["precondition_failure"] is True
        assert "d = 2 or 3" in report.details["error"]


def test_ellipsoid_check_reports_printed_reading():
    report = run_check("ELLIPSOID_LW", params={"seed": 6, "d": 4})
    det = report.details
    assert report.verdict == "pass"
    assert det["upper_ok"] and det["section_lower_ok"]
    assert "printed_lower_ok" in det  # reported, never asserted


def test_vis_p2_q_reports_both_constants():
    report = run_check("VIS_P2_Q", params={"seed": 9, "d": 3})
    det = report.details
    assert report.verdict == "pass"
    assert det["identity_ok"]
    assert det["derived_lower_ok"] and det["derived_upper_ok"]
    assert "printed_lower_ok" in det and "printed_upper_ok" in det


def test_q_inf_a_p2_equality_is_exact():
    report = run_check("Q_INF_A", params={"seed": 3, "p": 2.0, "d": 3})
    assert report.verdict == "pass"
    assert report.details["equality_gap_upper"] <= 1e-10 * max(1.0, report.lhs)


# --- report plumbing ---------------------------------------------------------


def test_fingerprint_deterministic_and_order_sensitive():
    a = fingerprint({"x": 1}, [1, 2, 3])
    assert a == fingerprint({"x": 1}, [1, 2, 3])
    assert a != fingerprint([1, 2, 3], {"x": 1})
    assert len(a) == 12
    assert fingerprint(np.array([1.0, 2.0])) == fingerprint([1.0, 2.0])


def test_verdict_leq_bands():
    assert verdict_leq(1.0, 2.0) == "pass"
    assert verdict_leq(1.0 + 1e-12, 1.0) == "pass"  # inside the band
    assert verdict_leq(1.1, 1.0) == "fail"
    assert verdict_leq(1.1, 1.0, mc_error=0.05) == "inconclusive"
    assert verdict_leq(2.0, 1.0, mc_error=0.05) == "fail"


def test_make_report_margin_and_default_verdict():
    r = make_report("X", ("i",), 1.0, 2.0, constant=3.0, seed=4)
    assert isinstance(r, CheckReport)
    assert r.margin == 1.0 and r.verdict == "pass" and r.seed == 4


@pytest.mark.parametrize("d, j", [(2, 2), (4, 3)])
def test_finner_rho_takes_j_from_the_given_surface(d, j):
    report = run_check("FINNER_RHO", random_surface(d, 4, seed=0))
    assert report.verdict == "pass"
    assert len(report.details["block_Q"]) == j  # one cover block per slot
