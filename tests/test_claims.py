"""Claims as data: one verdict rule for every asserted sub-claim, the
corruption hook that re-judges every claim, and suite bytes that do not
depend on the BLAS thread count."""

import math
import os
import subprocess
import sys

import pytest

import transversal
from transversal.inequality_lab import default_suite_config, run_check, run_suite
from transversal.reports import Claim, make_report

# NU_MEASURE's lhs is round-off (about 4e-16), so its claim lhs < 1e-6 still
# holds after the tolerance is scaled by 1e-6; only a factor below about
# 4e-10 makes it fail.
HOOK_BLIND = {"NU_MEASURE"}


def test_claim_relations_and_the_worst_verdict_rule():
    assert Claim("a", 1.0, 2.0).verdict() == "pass"
    assert Claim("a", 1.1, 1.0, error=0.05).verdict() == "inconclusive"
    assert Claim("a", 1.0, 1.0 + 1e-11, "eq", tol=1e-10).verdict() == "pass"
    assert Claim("a", 1.0, 1.0 + 1e-9, "eq", tol=1e-10).verdict() == "fail"
    assert Claim("a", 0.3, 0.5, "lt", tol=0.1).verdict() == "pass"
    assert Claim("a", 0.3, 0.35, "lt", tol=0.1).verdict() == "fail"
    with pytest.raises(KeyError):
        Claim("a", 0.0, 1.0, "geq").verdict()

    def verdict(*claims):
        return make_report("X", ("i",), 0.0, 1.0, claims=list(claims)).verdict

    held, unsure, broken = Claim("a", 0, 1), Claim("b", 1.1, 1, error=0.05), Claim("c", 2, 1)
    assert verdict(held, unsure) == "inconclusive"
    assert verdict(unsure, broken, held) == "fail"
    # a printed constant is reported and never moves the verdict
    assert verdict(held, Claim("printed", 2, 1, asserted=False)) == "pass"
    # nothing asserted, nothing shown
    assert verdict() == verdict(Claim("printed", 0, 1, asserted=False)) == "inconclusive"
    report = make_report("X", ("i",), 0.0, 1.0, claims=[held, broken])
    assert [c["verdict"] for c in report.to_dict()["details"]["claims"]] == ["pass", "fail"]


def test_first_asserted_claim_is_the_top_level_pair():
    result = run_suite(default_suite_config(seed=1))
    for r in result.reports:
        claims = r.to_dict()["details"]["claims"]
        first = next(c for c in claims if c["asserted"])
        assert (first["lhs"], first["rhs"]) == (r.lhs, r.rhs), r.check_id
        assert first["verdict"] == "pass" == r.verdict, r.check_id
    # the sandwich claims of VIS_P2_Q carry their values, not only a flag
    (vis2,) = [r for r in result.reports if r.check_id == "VIS_P2_Q"]
    by_name = {c.name: c for c in vis2.details["claims"]}
    for name in ("sandwich_lower", "sandwich_upper"):
        c = by_name[name]
        assert c.asserted and c.verdict() == "pass"
        assert 0.0 < c.lhs < math.inf and 0.0 < c.rhs < math.inf
        assert vis2.details[name + "_ok"] is True


@pytest.mark.parametrize(
    "entry",
    [e for e in default_suite_config(seed=1)["checks"] if e["id"] not in HOOK_BLIND],
    ids=lambda e: e["id"],
)
def test_corruption_hook_fails_every_asserted_claim(entry):
    params = dict(entry["params"], seed=3, _corrupt_rhs_factor=1e-6)
    report = run_check(entry["id"], params=params)
    assert report.verdict == "fail"
    asserted = [c.verdict() for c in report.details["claims"] if c.asserted]
    assert asserted and set(asserted) == {"fail"}


def test_suite_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = os.path.dirname(os.path.dirname(transversal.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    code = "\n".join(
        [
            "import sys, transversal as t",
            "for seed in (1, 2, 3):",
            "    suite = t.run_suite(t.default_suite_config(seed))",
            "    t.write_report_json(suite, f'{sys.argv[1]}/{seed}.json')",
        ]
    )
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True)
    for seed in (1, 2, 3):
        one = (tmp_path / "1" / f"{seed}.json").read_bytes()
        assert one == (tmp_path / "2" / f"{seed}.json").read_bytes(), seed
