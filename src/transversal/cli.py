"""Command-line entry point.

Subcommands: ``q`` (tuple quantity), ``rho`` (cover refinement factors),
``vis`` (visibility with error bar), ``lewis`` (position solver), ``mixedvol``,
``check <id>``, ``suite <config>``, ``gen <generator>``.

Exit status: 0 success, 1 any check failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .hypersurface import (
    UniformCover,
    load_surface,
    make_axis_cross,
    make_sheared_cube,
    random_surface,
    sample_sphere_uniform,
    save_surface,
)
from .inequality_lab import (
    CHECK_IDS,
    default_suite_config,
    run_check,
    run_suite,
    write_report_csv,
    write_report_json,
)
from .lewis import isotropy_defect, lewis_solve
from .transversality import DEFAULT_BUDGET, finner_check, q_exact, q_montecarlo
from .volumes import kp_volume
from .zonotope import Ball, mixed_volume, projection_body

GENERATORS = ("axis-cross", "cube-sheared", "sphere", "random")
#: atom count of the ``sphere`` and ``random`` generators when --m is not given;
#: ``check`` passes m to the check only when given, so each check keeps its own
GENERATOR_M = 6


def _build_surface(name, args):
    """Resolve a surface spec: file path or generator name."""
    if os.path.exists(name):
        return load_surface(name)
    d, m = args.d, GENERATOR_M if args.m is None else args.m
    if d is None:
        raise ValueError(f"generator {name!r} needs --d")
    if name == "axis-cross":
        return make_axis_cross(d, weight_per_axis=args.weight, signed=args.signed)
    if name == "cube-sheared":
        return make_sheared_cube(d, seed=args.seed)
    if name == "sphere":
        return sample_sphere_uniform(d, m, args.seed)
    if name == "random":
        return random_surface(d, m, args.seed, unit=args.unit, probability=args.probability)
    raise ValueError(
        f"surface {name!r} is neither a file nor one of the generators {GENERATORS}"
    )


def _generator_flags(sp, d_required=False):
    sp.add_argument("--d", type=int, required=d_required, help="dimension for generators")
    help_ = f"atom count for generators (default {GENERATOR_M})"
    sp.add_argument("--m", "--n", dest="m", type=int, default=None, help=help_)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--weight", type=float, default=1.0, help="axis-cross weight per atom")
    sp.add_argument("--signed", action="store_true", help="axis-cross: include negatives")
    sp.add_argument("--unit", action="store_true", help="random: unit directions")
    sp.add_argument("--probability", action="store_true", help="random: weights sum to 1")


def _surface_flags(sp):
    sp.add_argument("--surface", required=True, help="surface file or generator name")
    _generator_flags(sp)


def _budget_flag(sp):
    what = "q: C(m, j) subsets, none at p = 2; rho: m!/(m-j)! tuples, m^|A| per cover block A"
    help_ = f"cap on the tuples one exact sum walks ({what})"
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help=help_)


def _parse_cover(cover_str, alphas_str, s_count, j):
    if cover_str in (None, "singletons"):
        return UniformCover.singletons(j)
    sets = tuple(
        tuple(int(i) for i in block.split(",") if i != "") for block in cover_str.split(";")
    )
    if alphas_str:
        alphas = tuple(float(a) for a in alphas_str.split(","))
        return UniformCover(j, sets, alphas=alphas)
    return UniformCover(j, sets, s=s_count if s_count else 1)


def _cmd_q(args):
    s = _build_surface(args.surface, args)
    j = args.j if args.j is not None else s.d
    if args.mc:
        est = q_montecarlo([s] * j, j, args.p, args.mc, args.seed)
        print(f"Q = {est.value:.10f} +/- {est.std_error:.3g} ({est.method}, n={est.n_samples})")
    else:
        value = q_exact([s] * j, j, args.p, budget=args.budget)
        print(f"Q = {value:.10f}")
    print(f"tuples = {s.m ** j}")
    return 0


def _cmd_rho(args):
    s = _build_surface(args.surface, args)
    j = args.j if args.j is not None else s.d
    cover = _parse_cover(args.cover, args.alphas, None, j)
    report = finner_check([s] * j, cover, args.p, budget=args.budget, seed=args.seed)
    det = report.details
    print(f"sup_rho = {det['sup_rho']:.10f}")
    print(f"refinement = {det['refinement']:.10f}")
    print(f"lhs = {report.lhs:.10f}")
    print(f"rhs_refined = {report.rhs:.10f}")
    print(f"rhs_coarse = {det['rhs_coarse']:.10f}")
    print(f"classical = {det['classical']:.10f}")
    print(f"verdict = {report.verdict}")
    return 0 if report.verdict != "fail" else 1


def _cmd_vis(args):
    s = _build_surface(args.surface, args)
    vol = kp_volume(s, args.p, args.method, n_samples=args.samples, seed=args.seed)
    vis = vol.root(-s.d)
    print(f"vis = {vis.value:.10f} +/- {vis.std_error:.3g} ({vis.method})")
    print(f"volume = {vol.value:.10g} +/- {vol.std_error:.3g}")
    return 0


def _cmd_lewis(args):
    s = _build_surface(args.surface, args)
    res = lewis_solve(s, args.p, tol=args.tol, max_iter=args.max_iter)
    defect = isotropy_defect(s, res.u, args.p)
    print(f"converged = {res.converged} in {res.iterations} iterations")
    print(f"defect = {defect.defect:.3e} trace_residual = {defect.trace_residual:.3e}")
    np.set_printoptions(precision=10, suppress=False)
    print("u =")
    print(res.u)
    return 0 if res.converged else 1


def _parse_vec(text):
    return np.asarray([float(x) for x in text.split(",")], dtype=float)


def _cmd_mixedvol(args):
    d = args.d
    entries = [_parse_vec(seg) for seg in args.segment or []]
    for path in args.zonotope or []:
        entries.append(projection_body(load_surface(path)))
    k = len(entries)
    if args.body == "ball":
        body = Ball(d)
    else:
        body = projection_body(load_surface(args.body))
    value = mixed_volume(body, d - k, entries)
    print(f"V = {value:.10f}")
    return 0


def _check_params(args):
    params = json.loads(args.params) if args.params else {}
    if not isinstance(params, dict):
        raise ValueError("--params must be a JSON object")
    for key in ("d", "m", "seed"):
        val = getattr(args, key, None)
        if val is not None:
            params.setdefault(key, val)
    if args.p is not None:
        params.setdefault("p", args.p)
    return params


def _cmd_check(args):
    instance = None
    if args.surface is not None:
        if os.path.exists(args.surface) or args.surface in GENERATORS:
            instance = _build_surface(args.surface, args)
        else:
            raise ValueError(f"unknown surface spec {args.surface!r}")
    try:
        report = run_check(args.check_id, instance, _check_params(args))
    except KeyError as exc:
        raise ValueError(str(exc)) from exc
    payload = report.to_dict(timings=args.timings)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 1 if report.verdict == "fail" else 0


def _cmd_suite(args):
    path = args.config
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    elif os.path.basename(path) in ("default", "default.json"):
        config = default_suite_config(seed=args.seed if args.seed is not None else 1)
        print(f"note: {path} not found, using the built-in default suite", file=sys.stderr)
    else:
        raise ValueError(f"suite config {path!r} not found")
    if args.seed is not None:
        config["seed"] = args.seed
    if args.dump_config:
        with open(args.dump_config, "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2, sort_keys=True)
            fh.write("\n")
    result = run_suite(config)
    if args.out:
        write_report_json(result, args.out, timings=args.timings)
    if args.csv:
        write_report_csv(result, args.csv, timings=args.timings)
    s = result.summary
    print(
        f"suite: {s['total']} checks, {s['pass']} pass, {s['fail']} fail, "
        f"{s['inconclusive']} inconclusive"
    )
    for r in result.reports:
        print(f"  [{r.verdict:12s}] {r.check_id:18s} margin={r.margin:.3e}")
    if not result.ok:
        print(f"failed checks: {', '.join(s['failed_ids'])}", file=sys.stderr)
        return 1
    return 0


def _cmd_gen(args):
    s = _build_surface(args.generator, args)
    if args.out:
        save_surface(s, args.out)
        print(f"wrote {args.out} ({s.m} atoms, d={s.d})")
    else:
        print(json.dumps(s.to_dict(), indent=2, sort_keys=True, allow_nan=False))
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="transversal",
        description="Transversality quantities, projection bodies, and inequality checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("q", help="tuple quantity Q_j^p")
    _surface_flags(sp)
    sp.add_argument("--j", type=int, default=None, help="tuple length (default: d)")
    sp.add_argument("--p", type=float, default=1.0)
    _budget_flag(sp)
    sp.add_argument("--mc", type=int, default=None, help="Monte Carlo sample count instead of exact")
    sp.set_defaults(fn=_cmd_q)

    sp = sub.add_parser("rho", help="cover refinement factors and chained bounds")
    _surface_flags(sp)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--p", type=float, default=1.0)
    _budget_flag(sp)
    sp.add_argument("--cover", default=None, help="semicolon-separated blocks, e.g. '0,1;1,2;0,2'")
    sp.add_argument("--alphas", default=None, help="comma-separated cover weights")
    sp.set_defaults(fn=_cmd_rho)

    sp = sub.add_parser("vis", help="visibility functional with error bar")
    _surface_flags(sp)
    sp.add_argument("--p", type=float, default=1.0)
    methods = ("auto", "exact", "quadrature", "radial_mc")
    sp.add_argument("--method", default="auto", choices=methods)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.set_defaults(fn=_cmd_vis)

    sp = sub.add_parser("lewis", help="position solver and isotropy defect")
    _surface_flags(sp)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--max-iter", type=int, default=500)
    sp.set_defaults(fn=_cmd_lewis)

    sp = sub.add_parser("mixedvol", help="mixed volume with segment/zonotope entries")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--body", default="ball", help="'ball' or a surface file (projection body)")
    sp.add_argument("--segment", action="append", help="comma-separated vector, repeatable")
    sp.add_argument("--zonotope", action="append", help="surface file whose projection body is an entry")
    sp.set_defaults(fn=_cmd_mixedvol)

    sp = sub.add_parser("check", help="run one registry check")
    sp.add_argument("check_id", choices=sorted(CHECK_IDS))
    sp.add_argument("--surface", default=None, help="surface file or generator name")
    _generator_flags(sp)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--params", default=None, help="JSON object of extra check parameters")
    sp.add_argument("--timings", action="store_true")
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("suite", help="run a suite config and persist reports")
    sp.add_argument("config", help="config JSON path ('default.json' falls back to built-in)")
    sp.add_argument("--out", default=None, help="JSON report path")
    sp.add_argument("--csv", default=None, help="CSV report path")
    sp.add_argument("--seed", type=int, default=None, help="override config seed")
    sp.add_argument("--timings", action="store_true", help="record wall-clock runtimes")
    sp.add_argument("--dump-config", default=None, help="write the effective config here")
    sp.set_defaults(fn=_cmd_suite)

    sp = sub.add_parser("gen", help="generate a surface file")
    sp.add_argument("generator", choices=GENERATORS)
    _generator_flags(sp, d_required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_gen)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
