import json
import os
import re
import subprocess
import sys

import pytest

import transversal
from transversal.cli import main
from transversal.hypersurface import load_surface, make_sheared_cube, surface_from_dict
from transversal.inequality_lab import run_check


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_does_not_load_scipy_spatial():
    # scipy.spatial is most of the import time and only the polar volume uses it
    src = os.path.dirname(os.path.dirname(transversal.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, transversal.cli; sys.exit('scipy.spatial' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_q_axis_cross(capsys):
    code, out, _ = run(capsys, "q", "--surface", "axis-cross", "--d", "2", "--j", "2", "--p", "1")
    assert code == 0
    assert "Q = 1.4142135624" in out
    assert "tuples = 4" in out


def test_q_montecarlo_branch(capsys):
    code, out, _ = run(
        capsys, "q", "--surface", "random", "--d", "3", "--m", "5", "--seed", "2",
        "--j", "2", "--p", "1.5", "--mc", "2000",
    )
    assert code == 0
    assert "(mc, n=2000)" in out


def test_rho_reports_chain(capsys):
    code, out, _ = run(capsys, "rho", "--surface", "axis-cross", "--d", "3", "--p", "2")
    assert code == 0
    assert "sup_rho = 1.0000000000" in out
    assert "verdict = pass" in out


def test_vis_exact(capsys):
    code, out, _ = run(
        capsys, "vis", "--surface", "axis-cross", "--d", "2", "--p", "2", "--method", "exact"
    )
    assert code == 0
    assert "vis = 0.5641895835" in out
    assert "volume = 3.141592654 +/- 0\n" in out


def test_vis_quadrature(capsys):
    # the l4 ball: volume 3.7081493546027438, so vis = 0.5193036690
    argv = ["vis", "--surface", "axis-cross", "--p", "4", "--method", "quadrature"]
    code, out, _ = run(capsys, *argv, "--d", "2")
    assert code == 0
    assert "vis = 0.5193036690" in out and "(quadrature)" in out
    code, _, err = run(capsys, *argv, "--d", "4")
    assert code == 2 and "d = 2 and 3" in err


def test_vis_error_follows_from_the_printed_volume(capsys):
    code, out, _ = run(
        capsys, "vis", "--surface", "random", "--d", "3", "--m", "5", "--seed", "4",
        "--p", "1.5", "--method", "radial_mc", "--samples", "5000",
    )
    assert code == 0
    line = r"^vis = (\S+) \+/- (\S+) \(radial_mc\)\nvolume = (\S+) \+/- (\S+)$"
    vis, vis_se, vol, vol_se = map(float, re.search(line, out, re.M).groups())
    assert vol_se > 0.0
    assert vis == pytest.approx(vol ** (-1.0 / 3.0), rel=1e-9)
    # the errors are printed to 3 significant digits
    assert vis_se == pytest.approx(vis * vol_se / (3.0 * vol), rel=1e-2)


def test_lewis_converges(capsys):
    code, out, _ = run(
        capsys, "lewis", "--surface", "random", "--d", "2", "--m", "5", "--seed", "1", "--p", "2"
    )
    assert code == 0
    assert "converged = True" in out


def test_mixedvol_ball_segment(capsys):
    code, out, _ = run(capsys, "mixedvol", "--d", "2", "--segment", "1,0")
    assert code == 0
    assert "V = 1.0000000000" in out


def test_mixedvol_rejects_bad_segment(capsys):
    code, _, err = run(capsys, "mixedvol", "--d", "3", "--segment", "1,0")
    assert code == 2
    assert "error:" in err


def test_check_santalo_sheared_cube(capsys):
    code, out, _ = run(capsys, "check", "SANTALO", "--surface", "cube-sheared", "--d", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["details"]["equality_case"] is True
    assert payload["runtime_ms"] == 0.0


@pytest.mark.parametrize("check_id", ["VIS_P2_Q", "AFFINE_LW", "FINNER_RHO"])
def test_check_runs_the_instance_of_the_api_defaults(capsys, check_id):
    # these checks default to m = 7, 5 and 4, not the generators' 6
    code, out, _ = run(capsys, "check", check_id)
    assert code == 0
    assert json.loads(out)["instance"] == run_check(check_id, None, {"seed": 0}).instance
    code, out, _ = run(capsys, "check", check_id, "--m", "6")
    assert json.loads(out)["instance"] == run_check(check_id, None, {"seed": 0, "m": 6}).instance


def test_check_unknown_id_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "NOT_A_CHECK"])
    assert exc.value.code == 2


def test_check_corrupted_constant_exits_one(capsys):
    code, out, _ = run(
        capsys, "check", "AFFINE_LW", "--seed", "4",
        "--params", '{"_corrupt_rhs_factor": 1e-6}',
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_check_params_must_be_object(capsys):
    code, _, err = run(capsys, "check", "SANTALO", "--params", "[1,2]")
    assert code == 2
    assert "JSON object" in err


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["q"])
    assert exc.value.code == 2


def test_bad_surface_spec_exits_two(capsys):
    code, _, err = run(capsys, "q", "--surface", "no-such-generator", "--d", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("atoms", ['[{"w": 1.0}]', "[5]", "5"])
def test_malformed_surface_file_exits_two(capsys, tmp_path, atoms):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 2, "atoms": %s}' % atoms)
    code, _, err = run(capsys, "q", "--surface", str(path))
    assert code == 2
    assert "error: surface JSON" in err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"checks": 5}, '"checks"'),
        ({"checks": [{"id": "AFFINE_LW", "params": [1, 2]}]}, '"params"'),
        ({"checks": [{"id": "AFFINE_LW"}], "surfaces": "x.json"}, '"surfaces"'),
    ],
)
def test_malformed_suite_config_exits_two(capsys, tmp_path, config, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, _, err = run(capsys, "suite", str(cfg_path))
    assert code == 2
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize("repeat", [0, -1, 2.7, True])
def test_suite_repeat_that_is_not_a_positive_integer_exits_two(capsys, tmp_path, repeat):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"checks": [{"id": "NU_MEASURE", "repeat": repeat}]}))
    code, out, err = run(capsys, "suite", str(cfg_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and '"repeat"' in err


def test_generator_without_dimension_exits_two(capsys):
    code, _, err = run(capsys, "q", "--surface", "axis-cross")
    assert code == 2
    assert "needs --d" in err


def test_gen_round_trip(tmp_path, capsys):
    path = tmp_path / "cube.json"
    code, out, _ = run(capsys, "gen", "cube-sheared", "--d", "3", "--seed", "5", "--out", str(path))
    assert code == 0
    assert "wrote" in out
    assert load_surface(path) == make_sheared_cube(3, seed=5)


def test_gen_stdout_json(capsys):
    code, out, _ = run(capsys, "gen", "axis-cross", "--d", "2", "--signed")
    assert code == 0
    s = surface_from_dict(json.loads(out))
    assert s.m == 4 and s.d == 2


def test_suite_small_config_round_trip(tmp_path, capsys):
    config = {
        "seed": 11,
        "checks": [{"id": "AFFINE_LW"}, {"id": "BEZOUT"}, {"id": "NU_MEASURE", "params": {"d": 2}}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    csv_path = tmp_path / "r.csv"

    code, out, _ = run(capsys, "suite", str(cfg_path), "--out", str(out1), "--csv", str(csv_path))
    assert code == 0
    assert "3 checks, 3 pass, 0 fail" in out
    code, _, _ = run(capsys, "suite", str(cfg_path), "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert csv_path.read_text().startswith("check_id,instance,lhs,rhs")


def test_suite_default_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    dumped = tmp_path / "effective.json"
    code, out, err = run(
        capsys, "suite", "default.json", "--seed", "1", "--dump-config", str(dumped)
    )
    assert code == 0
    assert "not found, using the built-in default suite" in err
    assert "0 fail" in out
    effective = json.loads(dumped.read_text())
    assert effective["seed"] == 1 and len(effective["checks"]) >= 14


def test_suite_missing_config_exits_two(capsys):
    code, _, err = run(capsys, "suite", "/no/such/config.json")
    assert code == 2
    assert "not found" in err


def test_suite_failure_exit_code(tmp_path, capsys):
    config = {
        "seed": 1,
        "checks": [{"id": "AFFINE_LW", "params": {"_corrupt_rhs_factor": 1e-9}}],
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run(capsys, "suite", str(cfg_path))
    assert code == 1
    assert "failed checks: AFFINE_LW" in err


def test_suite_entry_without_id_exits_two(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "checks": [{"check_id": "AFFINE_LW"}]}))
    code, _, err = run(capsys, "suite", str(cfg_path))
    assert code == 2
    assert "entry 0" in err and '"id"' in err
