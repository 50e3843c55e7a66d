"""Command-line front end.

Subcommands: verify, ode, ansatz, mesh, oracle-compare.  Exit codes are a
stable contract: 0 pass, 1 verification failure, 2 configuration error,
3 numerical failure.  Set MINMIN_LOG=debug|info|warning for stderr logging.
All randomness derives from one seed through a counter-based generator, and
reports are byte-identical across runs with the same seed and configuration.
"""

import argparse
import functools
import json
import logging
import os
import sys
import time

import numpy as np

from . import meshes, reporting, sampling
from .curvature import report_separable, report_separable_batch, report_translation
from .errors import EmptyDomainError, IntegrationError, MinminError
from .norms import NormParams
from .separable import (
    XProfile,
    example_surface,
    example_xprofiles,
    extract_affine_system,
    extract_exponential_system,
    extract_quadratic_system,
    feasible_axes,
    patch_from_xprofiles,
    perturbed_example_surface,
)
from .translation import (
    ProfileODEParams,
    assemble_separated_surface,
    integrate_profile,
    residual_grid,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

log = logging.getLogger("minmin")

EXAMPLE_IDS = ("6.1", "6.2", "6.3", "6.4", "6.5", "6.6", "i-2", "iii-2")


def _setup_logging():
    """Set the minmin logger's level from MINMIN_LOG and give it one handler on
    the current sys.stderr, afresh on every call, so that each in-process
    main() call honours the environment and stream it runs with."""
    level = os.environ.get("MINMIN_LOG", "warning").upper()
    for old in [h for h in log.handlers if h.get_name() == "minmin.cli"]:
        log.removeHandler(old)
    handler = logging.StreamHandler(sys.stderr)
    handler.set_name("minmin.cli")
    handler.setFormatter(logging.Formatter("minmin %(levelname)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel(getattr(logging, level, logging.WARNING))
    log.propagate = False


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.example not in EXAMPLE_IDS:
        print(f"unknown example id {args.example!r}", file=sys.stderr)
        return EXIT_CONFIG
    t0 = time.perf_counter()
    stats = reporting.RunStats()
    with stats.stage("sample"):
        if args.perturb is not None:
            surface = perturbed_example_surface(
                args.example, args.m, args.r, factor=args.perturb
            )
        else:
            surface = example_surface(args.example, args.m, args.r)
        rng = sampling.counter_rng(args.seed)
        points = surface.sample(rng, args.points)
    results = report_separable_batch(
        surface.fs, points, surface.p, tol=args.oracle_tol, on_surface_tol=1e-6,
        stats=stats,
    )
    config = {
        "command": "verify",
        "example": args.example,
        "m": args.m,
        "r": args.r,
        "points": args.points,
        "tol": args.tol,
        "oracle_tol": args.oracle_tol,
        "seed": args.seed,
        "perturb": "none" if args.perturb is None else args.perturb,
    }
    with stats.stage("render"):
        report = reporting.VerificationReport(
            command="verify", config=config, reports=results, h_tol=args.tol,
            wall_time=time.perf_counter() - t0,
        )
        if args.out:
            report.write(args.out)
        if args.csv:
            report.write_points_csv(args.csv)
        sys.stdout.write(report.render())
    stats.log(log, "verify")
    log.info("verify wall time %.3fs", report.wall_time)
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# ode
# ---------------------------------------------------------------------------


def _stop_text(curve) -> str:
    return ", ".join(f"{way} {why}" for way, why in curve.stop_reasons.items())


def cmd_ode(args) -> int:
    stats = reporting.RunStats()
    if args.n is not None:
        if args.n < 2:
            print("--n must be at least 2", file=sys.stderr)
            return EXIT_CONFIG
        if args.k is not None and args.k != args.n - 1:
            print(
                f"--k {args.k} conflicts with --n {args.n} (assembly uses k = n-1)",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        try:
            with stats.stage("integrate"):
                ts = assemble_separated_surface(
                    m=args.m, n=args.n, c0=args.c0,
                    inits=[(args.y0, args.u0)] * args.n,
                    step=args.step, max_steps=args.max_steps, stats=stats,
                )
        except IntegrationError as exc:
            print(f"integration failed: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        with stats.stage("grid"):
            grid = residual_grid(ts, ts.domain_axes(args.grid))
        with stats.stage("write"):
            print(f"assembled {args.n}-profile surface, m={args.m}, c0={args.c0:.12g}")
            for i, f in enumerate(ts.profiles):
                lo, hi = f.domain
                print(f"profile {i + 1}: domain [{lo:.12g}, {hi:.12g}]")
                print(f"profile {i + 1} stop: {_stop_text(f.curve)}")
                if args.out:
                    root, ext = os.path.splitext(args.out)
                    f.curve.write_csv(f"{root}_{i + 1}{ext or '.csv'}")
            print(f"grid residual max |.|: {np.max(np.abs(grid)):.12e}")
            print(f"grid residual min |.|: {np.min(np.abs(grid)):.12e}")
        stats.log(log, "ode")
        return EXIT_PASS
    params = ProfileODEParams(
        c0=args.c0, k=args.k if args.k is not None else 1, m=args.m,
        y0=args.y0, u0=args.u0, step=args.step, max_steps=args.max_steps,
    )
    try:
        with stats.stage("integrate"):
            curve = integrate_profile(params, stats)
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    with stats.stage("write"):
        if args.out:
            curve.write_csv(args.out)
        print(f"profile ODE m={params.m} k={params.k} c0={params.c0:.12g}")
        print(f"domain: [{curve.domain[0]:.12g}, {curve.domain[1]:.12g}]")
        print(f"samples: {len(curve.u)}")
        print(f"ode residual (5-point audit): {curve.ode_residual_max:.12e}")
        print(f"stop: {_stop_text(curve)}")
    stats.log(log, "ode")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------


def cmd_ansatz(args) -> int:
    try:
        with open(args.params_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"cannot read {args.params_file}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(
            f"{args.params_file}: parse error at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    kind = args.kind or data.get("kind")
    try:
        if kind == "affine":
            n = int(data.get("n", len(data["p"]) - 1))
            system = extract_affine_system(n, data["p"], data["q"])
        elif kind == "quadratic":
            system = extract_quadratic_system(data["p"], data["q"], data["r"])
        elif kind == "exponential":
            system = extract_exponential_system(data["q"], data["r"])
        else:
            print(f"unknown ansatz kind {kind!r}", file=sys.stderr)
            return EXIT_CONFIG
    except KeyError as exc:
        print(f"missing parameter {exc} in {args.params_file}", file=sys.stderr)
        return EXIT_CONFIG
    except MinminError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    width = max(len(tag) for tag in system.coefficients)
    print(f"{kind} ansatz coefficients:")
    for tag, value in system.coefficients.items():
        print(f"  {tag:<{width}s}  {value:+.12e}")
    print(f"max |coefficient|: {system.max_abs():.12e}")
    ok = system.max_abs() <= args.tol
    print(f"identity satisfied: {'yes' if ok else 'no'} (tol {args.tol:.1e})")
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


def _parse_int_list(text, what):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise MinminError(f"cannot parse {what} {text!r}")


def cmd_mesh(args) -> int:
    grid = args.grid
    try:
        if args.kind == "translation":
            stats = reporting.RunStats()
            with stats.stage("integrate"):
                ts = assemble_separated_surface(
                    m=args.m, n=2, c0=args.c0, inits=[(args.y0, args.u0)] * 2,
                    step=args.step, max_steps=args.max_steps, stats=stats,
                )
            with stats.stage("grid"):
                verts = meshes.translation_vertices(ts, ts.domain_axes(grid))
            with stats.stage("write"):
                if args.out.endswith(".csv"):
                    meshes.write_points_csv(
                        args.out, ["u1", "u2", "x3"], verts.reshape(-1, 3)
                    )
                else:
                    meshes.write_obj(args.out, verts)
                print(f"wrote {verts.shape[0] * verts.shape[1]} vertices to {args.out}")
            stats.log(log, "mesh")
            return EXIT_PASS
        # separable patch
        if args.params_file:
            with open(args.params_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            kind = data.get("kind", "affine")
            if kind == "affine":
                xs = [
                    XProfile.affine(pi, qi) for pi, qi in zip(data["p"], data["q"])
                ]
            elif kind == "exponential":
                xs = [
                    XProfile.exponential(qi, ri)
                    for qi, ri in zip(data["q"], data["r"])
                ]
            else:
                print(f"unsupported X-profile kind {kind!r}", file=sys.stderr)
                return EXIT_CONFIG
            signs = tuple(data.get("signs", [1] * len(xs)))
        else:
            xs, signs = example_xprofiles(args.example)
        p = NormParams(m=args.m, dim=len(xs))
        try:
            axes = feasible_axes(xs, grid, span=args.span)
        except EmptyDomainError:
            print("empty admissible domain: no patch to mesh")
            return EXIT_PASS
        patch = patch_from_xprofiles(xs, signs, axes, p)
        if args.out.endswith(".csv"):
            patch.write_csv(args.out)
            print(f"wrote {patch.flat_points().shape[0]} points to {args.out}")
            return EXIT_PASS
        slice_axes = (
            tuple(_parse_int_list(args.slice, "--slice")) if args.slice else None
        )
        project = (
            tuple(_parse_int_list(args.project, "--project"))
            if args.project
            else (0, 1, 2)
        )
        verts = meshes.patch_vertices(patch, slice_axes=slice_axes, project=project)
        meshes.write_obj(args.out, verts)
        print(f"wrote {verts.shape[0] * verts.shape[1]} vertices to {args.out}")
        return EXIT_PASS
    except json.JSONDecodeError as exc:
        print(
            f"{args.params_file}: parse error at line {exc.lineno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MinminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


# ---------------------------------------------------------------------------
# oracle-compare
# ---------------------------------------------------------------------------


def cmd_oracle_compare(args) -> int:
    t0 = time.perf_counter()
    stats = reporting.RunStats()
    with stats.stage("sample"):
        rng = sampling.counter_rng(args.seed)
        jobs = []
        kinds = ("translation", "separable") if args.kind == "both" else (args.kind,)
        for kind in kinds:
            for _ in range(args.points):
                m = int(rng.integers(1, 4))
                n = int(rng.integers(2, 5)) if args.n is None else args.n
                if kind == "translation":
                    jobs.append((kind,) + sampling.random_translation_config(rng, m, n))
                else:
                    jobs.append((kind,) + sampling.random_separable_config(rng, m, n))
    # every configuration has its own profiles: each is a batch of one
    results = [
        (report_translation if kind == "translation" else report_separable)(
            fs, at, p, tol=args.tol, stats=stats
        )
        for kind, fs, at, p in jobs
    ]
    config = {
        "command": "oracle-compare",
        "kind": args.kind,
        "points": args.points,
        "n": "random" if args.n is None else args.n,
        "tol": args.tol,
        "seed": args.seed,
    }
    with stats.stage("render"):
        report = reporting.VerificationReport(
            command="oracle-compare", config=config, reports=results,
            wall_time=time.perf_counter() - t0,
        )
        if args.out:
            report.write(args.out)
        sys.stdout.write(report.render())
    stats.log(log, "oracle-compare")
    log.info("oracle-compare wall time %.3fs", report.wall_time)
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="minmin",
        description="Minimal hypersurfaces in (n+1)-space with 2m-norm: "
        "verification, profile ODEs, ansatz systems, mesh export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify H = 0 on an example surface")
    pv.add_argument("--example", required=True, help=f"one of {EXAMPLE_IDS}")
    pv.add_argument("--m", type=int, default=1)
    pv.add_argument("--r", type=int, default=2, help="block size for 6.2/6.4")
    pv.add_argument("--points", type=int, default=100)
    pv.add_argument("--tol", type=float, default=1e-8, help="|H| tolerance")
    pv.add_argument("--oracle-tol", type=float, default=1e-6)
    pv.add_argument("--seed", type=int, default=20250101)
    pv.add_argument("--perturb", type=float, default=None,
                    help="scale the leading coefficient block (sanity check)")
    pv.add_argument("--out", default=None, help="report file")
    pv.add_argument("--csv", default=None, help="per-point CSV sidecar")
    pv.set_defaults(fn=cmd_verify)

    po = sub.add_parser("ode", help="integrate the separated profile ODE")
    po.add_argument("--m", type=int, default=1)
    po.add_argument("--k", type=int, default=None,
                    help="quadratic-term coefficient (default 1)")
    po.add_argument("--c0", type=float, default=1.0)
    po.add_argument("--y0", type=float, default=1.0)
    po.add_argument("--u0", type=float, default=0.0)
    po.add_argument("--step", type=float, default=1e-3)
    po.add_argument("--max-steps", type=int, default=5000)
    po.add_argument("--n", type=int, default=None,
                    help="assemble an n-profile surface (k = n-1) and report "
                    "its grid residual")
    po.add_argument("--grid", type=int, default=12)
    po.add_argument("--out", default=None, help="CSV output")
    po.set_defaults(fn=cmd_ode)

    pa = sub.add_parser("ansatz", help="extract an identity coefficient system")
    pa.add_argument("--kind", choices=("affine", "quadratic", "exponential"),
                    default=None)
    pa.add_argument("--params-file", required=True, help="JSON with p/q/r arrays")
    pa.add_argument("--tol", type=float, default=1e-10)
    pa.set_defaults(fn=cmd_ansatz)

    pm = sub.add_parser("mesh", help="export a surface mesh or point cloud")
    pm.add_argument("--kind", choices=("translation", "patch"), default="patch")
    pm.add_argument("--example", default="6.1", help=f"one of {EXAMPLE_IDS[:6]}")
    pm.add_argument("--params-file", default=None,
                    help="JSON X-profile data instead of --example")
    pm.add_argument("--m", type=int, default=1)
    pm.add_argument("--c0", type=float, default=1.0)
    pm.add_argument("--y0", type=float, default=1.0)
    pm.add_argument("--u0", type=float, default=0.0)
    pm.add_argument("--step", type=float, default=1e-3)
    pm.add_argument("--max-steps", type=int, default=5000)
    pm.add_argument("--grid", type=int, default=20)
    pm.add_argument("--span", type=float, default=1.0,
                    help="working half-width of the u-axes")
    pm.add_argument("--slice", default=None,
                    help="two varying parameter axes for OBJ, e.g. 0,1")
    pm.add_argument("--project", default=None,
                    help="three ambient coordinates for OBJ, e.g. 0,1,3")
    pm.add_argument("--out", required=True, help=".obj or .csv output")
    pm.set_defaults(fn=cmd_mesh)

    pc = sub.add_parser("oracle-compare",
                        help="closed-form H vs finite-difference oracle on "
                        "random configurations")
    pc.add_argument("--kind", choices=("translation", "separable", "both"),
                    default="both")
    pc.add_argument("--points", type=int, default=100)
    pc.add_argument("--n", type=int, default=None,
                    help="fix the parameter count (default: random 2..4)")
    pc.add_argument("--tol", type=float, default=1e-6)
    pc.add_argument("--seed", type=int, default=20250101)
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except MinminError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
