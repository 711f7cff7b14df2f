"""The three benchmark workloads: ``cli``, ``vis_sweep`` and ``suite``.

A workload is a fixed cycle of operations.  The cycle's shapes never change;
the seed only draws the instances, so runs at different seeds do the same
amount of work.  Each cycle draws fresh instances from ``(seed, cycle,
position)``, so no operation repeats an earlier input.

An operation is an ``Op``: ``run()`` calls the program once and returns its
output.  After the timed loop, ``status(output)`` classifies it as
``ok``, ``unconverged`` (a Lewis solve that reported non-convergence through
exit code 1, which the CLI documents) or ``failed`` (raised, exit code 2, a
``fail`` verdict, or a precondition error); ``estimates(output)`` gives, per
estimate that could come from Monte Carlo, its reported standard error over
the plain Monte Carlo standard error that ``reference`` predicts for the same
sample count (0 for an exact route); ``references(output)`` compares it with
``reference``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re

import numpy as np

import reference as ref

# called through their modules, so that the traced run's wrappers see them
from transversal import cli, hypersurface, inequality_lab


def derive_seed(*key):
    """Deterministic 32-bit seed for a position in the workload."""
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


def surface_arrays(s):
    return np.asarray(s.weights, dtype=float), np.asarray(s.vectors, dtype=float)


def _read_surface_file(path):
    """Weights and directions straight from the JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    w = np.array([a["w"] for a in data["atoms"]], dtype=float)
    V = np.array([a["v"] for a in data["atoms"]], dtype=float)
    return w, V


class Op:
    __slots__ = ("kind", "run", "status", "estimates", "references")

    def __init__(self, kind, run, status, estimates, references):
        self.kind = kind
        self.run = run
        self.status = status
        self.estimates = estimates
        self.references = references


def _no_estimates(output):
    return []


def _shuffled(ops, rng):
    """The cycle's operations in a seeded order."""
    return [ops[k] for k in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# cli: in-process transversal.cli.main(argv) calls
# ---------------------------------------------------------------------------

#: (d, m, p) for ``q`` (j = d).  The first eight take 0.2-0.35 s each on a
#: 2-core Xeon, so the median operation sits in a dense cluster; the last
#: six (100k-332k ordered tuples) take 0.5-0.6 s and set the tail.  The
#: share of tuples that repeat an atom ranges from 5% (m=64) to 74% (m=9).
CLI_Q = (
    (4, 18, 1.0), (4, 18, 2.0),
    (5, 9, 1.0), (5, 9, 1.5), (5, 9, 2.0),
    (3, 64, 1.0), (3, 64, 1.5), (3, 64, 2.0),
    (4, 24, 1.0), (4, 24, 1.5), (4, 24, 2.0),
    (5, 10, 1.0), (5, 10, 1.5), (5, 10, 2.0),
)
#: (d, j, m, p, cover, alphas) for ``rho``: the cycle and the triangle cover
CLI_RHO = (
    (4, 4, 14, 1.0, "0,1;1,2;2,3;3,0", "0.5,0.5,0.5,0.5"),
    (4, 3, 44, 1.5, "0,1;1,2;0,2", "0.5,0.5,0.5"),
)
#: generator counts of the three zonotope files per ``mixedvol --d 4``
CLI_MIXEDVOL = ((12, 14, 16),)
#: Lewis exponents, each solved on one small spanning instance per cycle;
#: few enough that the median operation is a ``q`` call
CLI_LEWIS_P = (1.5, 3.0, 4.0, 8.0)
#: (d, m, p, samples) for ``q --mc``
CLI_QMC = ((3, 60, 1.5, 100_000), (4, 40, 1.0, 100_000))

CLI_TINY = {
    "q": ((3, 8, 1.0), (3, 8, 2.0), (4, 6, 1.5)),
    "rho": ((4, 4, 5, 1.0, "0,1;1,2;2,3;3,0", "0.5,0.5,0.5,0.5"),),
    "mixedvol": ((4, 5, 6),),
    "lewis": (1.5, 4.0),
    "qmc": ((3, 8, 1.0, 2_000),),
}

_FLOAT = r"([-+0-9.eE]+|nan|inf)"


def _field(text, key):
    m = re.search(rf"^{re.escape(key)} = {_FLOAT}", text, re.M)
    if m is None:
        raise ValueError(f"no {key!r} in CLI output")
    return float(m.group(1))


class CliWorkload:
    name = "cli"

    def __init__(self, seed, workdir, tiny=False):
        self.seed = int(seed)
        self.workdir = workdir
        self.tiny = tiny

    def _surface_file(self, d, m, key):
        path = os.path.join(self.workdir, "s-" + "-".join(str(k) for k in key) + ".json")
        hypersurface.save_surface(hypersurface.random_surface(d, m, derive_seed(self.seed, *key)), path)
        return path

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def _op(self, kind, argv, references, estimates=_no_estimates):
        def status(output):
            rc, _ = output
            if rc == 0:
                return "ok"
            return "unconverged" if kind == "lewis" and rc == 1 else "failed"

        return Op(kind, lambda: self._call(argv), status, estimates, references)

    def _q_op(self, path, d, p):
        def references(output):
            w, V = _read_surface_file(path)
            return ref.check_q(w, V, d, p, _field(output[1], "Q"), ref.PRINT_ABS)

        return self._op("q", ["q", "--surface", path, "--p", repr(p)], references)

    def _rho_op(self, path, j, p, cover, alphas):
        def references(output):
            w, V = _read_surface_file(path)
            return ref.check_q(w, V, j, p, _field(output[1], "lhs"), ref.PRINT_ABS)

        argv = ["rho", "--surface", path, "--j", str(j), "--p", repr(p), "--cover", cover, "--alphas", alphas]
        return self._op("rho", argv, references)

    def _mixedvol_op(self, paths, d):
        def references(output):
            gens = [w[:, None] * V for w, V in map(_read_surface_file, paths)]
            return ref.check_mixed_volume(gens, d, _field(output[1], "V"), ref.PRINT_ABS)

        argv = ["mixedvol", "--d", str(d)]
        for path in paths:
            argv += ["--zonotope", path]
        return self._op("mixedvol", argv, references)

    def _qmc_op(self, path, p, samples, seed):
        def estimates(output):
            m = re.search(rf"^Q = {_FLOAT} \+/- {_FLOAT}", output[1], re.M)
            if m is None:
                return []
            w, V = _read_surface_file(path)
            plain = ref.q_mc_rel_se(w, V, V.shape[1], p, samples, np.random.default_rng([seed, 1]))
            return [float(m.group(2)) / float(m.group(1)) / plain]

        argv = ["q", "--surface", path, "--p", repr(p), "--mc", str(samples), "--seed", str(seed)]
        return self._op("q_mc", argv, lambda output: [], estimates)

    def cycle(self, c):
        spec = CLI_TINY if self.tiny else {
            "q": CLI_Q, "rho": CLI_RHO, "mixedvol": CLI_MIXEDVOL, "lewis": CLI_LEWIS_P, "qmc": CLI_QMC,
        }
        rng = np.random.default_rng(derive_seed(self.seed, c, 0))
        ops = []
        for i, (d, m, p) in enumerate(spec["q"]):
            ops.append(self._q_op(self._surface_file(d, m, (c, 1, i)), d, p))
        for i, (d, j, m, p, cover, alphas) in enumerate(spec["rho"]):
            ops.append(self._rho_op(self._surface_file(d, m, (c, 2, i)), j, p, cover, alphas))
        for i, sizes in enumerate(spec["mixedvol"]):
            paths = [self._surface_file(4, n, (c, 3, i, k)) for k, n in enumerate(sizes)]
            ops.append(self._mixedvol_op(paths, 4))
        for i, p in enumerate(spec["lewis"]):
            d = int(rng.integers(2, 5))
            m = d + int(rng.integers(1, 5))
            path = self._surface_file(d, m, (c, 4, i))
            ops.append(self._op("lewis", ["lewis", "--surface", path, "--p", repr(p)], lambda output: []))
        for i, (d, m, p, samples) in enumerate(spec["qmc"]):
            path = self._surface_file(d, m, (c, 5, i))
            ops.append(self._qmc_op(path, p, samples, derive_seed(self.seed, c, 5, i, 1)))
        return _shuffled(ops, rng)

    def final_references(self):
        return []


# ---------------------------------------------------------------------------
# vis_sweep: criterion 10's grid of VIS_P_UPPER / VIS_SANDWICH checks
# ---------------------------------------------------------------------------

VIS_P = (1.0, 1.5, 2.0, 3.0)
VIS_D = (2, 3)
VIS_M = (5, 6, 7, 8, 9)
VIS_CHECKS = ("VIS_P_UPPER", "VIS_SANDWICH")
VIS_SAMPLES = 1_000_000


def _report_status(report):
    if report.verdict == "fail" or report.details.get("precondition_failure"):
        return "failed"
    return "ok"


def _vis_se_ratio(report, s, p, n_samples, seed, d_power=1):
    """Reported over predicted plain-MC relative error of vis_p; ``d_power``
    is d when ``mc_error / lhs`` is the error of |K^p| = vis^(-d) instead."""
    if not report.mc_error:
        return 0.0
    w, V = surface_arrays(s)
    plain = ref.vis_mc_rel_se(w, V, p, n_samples, np.random.default_rng(seed))
    return report.mc_error / report.lhs / d_power / plain


class VisSweepWorkload:
    name = "vis_sweep"

    def __init__(self, seed, workdir, tiny=False):
        self.seed = int(seed)
        self.tiny = tiny

    def _op(self, check_id, s, p, seed, n_samples):
        params = {"p": p, "d": s.d, "m": s.m, "n_samples": n_samples, "seed": seed}

        def references(report):
            w, V = surface_arrays(s)
            out = []
            if p == 2.0:
                out += ref.check_vis2(w, V, report.lhs)
            if check_id == "VIS_SANDWICH":
                out += ref.check_q(w, V, s.d, p, report.details["q_d_p"])
            else:
                out += ref.check_q(w, V, 1, p, report.details["q_1_p"])
            return out

        return Op(
            check_id,
            lambda: inequality_lab.run_check(check_id, s, params),
            _report_status,
            lambda report: [_vis_se_ratio(report, s, p, n_samples, seed)],
            references,
        )

    def cycle(self, c):
        ms = VIS_M[:2] if self.tiny else VIS_M
        n_samples = 20_000 if self.tiny else VIS_SAMPLES
        ops = []
        for i, (p, d, m) in enumerate((p, d, m) for p in VIS_P for d in VIS_D for m in ms):
            s = hypersurface.random_surface(d, m, derive_seed(self.seed, c, i))
            for k, check_id in enumerate(VIS_CHECKS):
                ops.append(self._op(check_id, s, p, derive_seed(self.seed, c, i, k), n_samples))
        rng = np.random.default_rng(derive_seed(self.seed, c, 0))
        return _shuffled(ops, rng)

    def final_references(self):
        return []


# ---------------------------------------------------------------------------
# suite: run_suite on the default entries plus two distinct-slot entries
# ---------------------------------------------------------------------------

SUITE_EXTRA = (
    {"id": "FINNER_RHO", "params": {"d": 4, "j": 4, "m": 12}},
    {"id": "BEZOUT", "params": {"d": 4, "j": 3, "generators": 8}},
)
SUITE_TINY_EXTRA = (
    {"id": "FINNER_RHO", "params": {"d": 4, "j": 4, "m": 4}},
    {"id": "BEZOUT", "params": {"d": 4, "j": 3, "generators": 4}},
)


def _suite_pairs(config, result):
    """(entry params, report) pairs; one report per entry, in order."""
    return zip((e["params"] for e in config["checks"]), result.reports)


def _suite_surface(params, report):
    """The surface a generated suite entry ran on (``_get_surface``'s draw)."""
    return hypersurface.random_surface(params["d"], params["m"], report.seed)


def _suite_estimates(config, result):
    out = []
    for params, r in _suite_pairs(config, result):
        if r.check_id in ("VIS_P_UPPER", "VIS_SANDWICH"):
            s = _suite_surface(params, r)
            out.append(_vis_se_ratio(r, s, params["p"], params["n_samples"], r.seed))
        elif r.check_id == "SANTALO":
            # mc_error / lhs is the relative error of |K^1| = vis_1^(-d)
            s = _suite_surface(params, r)
            out.append(_vis_se_ratio(r, s, 1.0, params.get("n_samples", 200_000), r.seed, s.d))
        elif r.check_id in ("VIS_P1_UPPER", "VIS_P1_LOWER_LEWIS", "VIS_P2_Q"):
            out.append(0.0)
    return out


def _suite_references(config, result):
    out = []
    for params, r in _suite_pairs(config, result):
        if r.check_id not in ("VIS_P2_Q", "VIS_P_UPPER", "VIS_SANDWICH", "Q_INF_A"):
            continue
        d = params["d"]
        w, V = surface_arrays(_suite_surface(params, r))
        if r.check_id == "VIS_P2_Q":
            out += ref.check_vis2(w, V, r.lhs) + ref.check_q(w, V, d, 2.0, r.details["q_d_2"])
        elif r.check_id == "VIS_P_UPPER":
            out += ref.check_q(w, V, 1, params["p"], r.details["q_1_p"])
        else:
            out += ref.check_q(w, V, d, params["p"], r.details["q_d_p"])
    return out


class SuiteWorkload:
    name = "suite"

    def __init__(self, seed, workdir, tiny=False):
        self.seed = int(seed)
        self.workdir = workdir
        self.tiny = tiny
        self.first = None

    def config(self, n):
        config = inequality_lab.default_suite_config(seed=derive_seed(self.seed, n) % 1_000_000)
        extra = SUITE_TINY_EXTRA if self.tiny else SUITE_EXTRA
        config["checks"] = config["checks"] + [dict(e) for e in extra]
        return config

    def _op(self, n):
        config = self.config(n)
        path = os.path.join(self.workdir, f"suite-{n}.json")

        def run():
            result = inequality_lab.run_suite(config)
            inequality_lab.write_report_json(result, path)
            return result

        def status(result):
            return "failed" if any(_report_status(r) == "failed" for r in result.reports) else "ok"

        return Op(
            "suite",
            run,
            status,
            lambda result: _suite_estimates(config, result),
            lambda result: _suite_references(config, result),
        ), (config, path)

    def cycle(self, c):
        op, first = self._op(c)
        if self.first is None:
            self.first = first
        return [op]

    def final_references(self):
        """Criterion 12: rerunning one suite rewrites byte-identical JSON."""
        config, path = self.first
        again = os.path.join(self.workdir, "suite-rerun.json")
        inequality_lab.write_report_json(inequality_lab.run_suite(config), again)
        with open(path, "rb") as a, open(again, "rb") as b:
            return ref.check_bytes(a.read(), b.read())


WORKLOADS = {w.name: w for w in (CliWorkload, VisSweepWorkload, SuiteWorkload)}
