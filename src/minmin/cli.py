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
from pathlib import Path

import numpy as np

from . import curvature, errors, meshes, reporting, sampling
# report_separable is no longer called here, but stays a name of this module:
# perfbench/test_smoke.py checks that the tracer patches it in minmin.cli
from .curvature import (  # noqa: F401
    report_separable,
    report_separable_batch,
    report_translation_batch,
)
from .errors import DomainError, EmptyDomainError, IntegrationError, MinminError
from .norms import NormParams
from .separable import (
    XPROFILE_EXAMPLE_IDS,
    check_patch_profiles,
    example_surface,
    example_xprofiles,
    extract_affine_system,
    extract_exponential_system,
    extract_quadratic_system,
    feasible_axes,
    patch_from_xprofiles,
    perturbed_example_surface,
    xprofiles_of,
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


@functools.lru_cache(maxsize=None)
def _log_handler() -> logging.StreamHandler:
    """The minmin logger's one stderr handler, added on the first call."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("minmin %(levelname)s: %(message)s"))
    log.addHandler(handler)
    log.propagate = False
    return handler


def _setup_logging():
    """Point the minmin logger's handler at the current sys.stderr and set its
    level from MINMIN_LOG, so that each in-process main() call honours the
    environment and stream it runs with."""
    # not setStream, which flushes the previous stream: an in-process caller
    # may have closed it (every record is flushed as it is emitted)
    _log_handler().stream = sys.stderr
    name = os.environ.get("MINMIN_LOG", "warning").upper()
    level = getattr(logging, name, logging.WARNING)
    # setLevel empties every logger's isEnabledFor cache, so only on a change
    if level != log.level:
        log.setLevel(level)


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
        # settings the example factory or NormParams refuses are a
        # configuration error, not a numerical failure
        try:
            if args.perturb is not None:
                surface = perturbed_example_surface(
                    args.example, args.m, args.r, factor=args.perturb
                )
            else:
                surface = example_surface(args.example, args.m, args.r)
        except DomainError as exc:
            print(f"invalid example settings: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        # every sampler keeps (points, dim) coordinates; refused before a draw
        errors.check_array_size(args.points * surface.p.dim,
                                f"a sample of --points {args.points} in "
                                f"{surface.p.dim} coordinates")
        rng = sampling.counter_rng(args.seed)
    results = surface.report_sample(rng, args.points, tol=args.oracle_tol, stats=stats)
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
    return _write_report(args, config, results, stats, t0, h_tol=args.tol)


def _write_report(args, config, results, stats, t0: float, h_tol=None) -> int:
    """The tail of verify and oracle-compare: render the report of results
    once, write it to --out and stdout and its points to --csv where the
    command has one, log the stages and the wall time since t0, and return
    the exit code."""
    with stats.stage("render"):
        report = reporting.VerificationReport(
            command=args.command, config=config, reports=results, h_tol=h_tol)
        text = report.render()
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        if getattr(args, "csv", None):
            report.write_points_csv(args.csv)
        sys.stdout.write(text)
    stats.log(log, args.command)
    log.info("%s wall time %.3fs", args.command, time.perf_counter() - t0)
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# ode
# ---------------------------------------------------------------------------


def _check_grid(grid: int, axes: int):
    """errors.check_array_size of a grid of grid nodes on each of axes axes with
    axes + 1 values a node, taken before any of it is built."""
    # a grid of 2 or more nodes passes numpy's index range within 64 factors
    errors.check_array_size(grid ** min(axes, 64) * (axes + 1),
                            f"a grid of {grid} nodes on each of {axes} axes")


def _assemble(args, n: int, stats):
    """The n-profile surface of the ODE settings of args (_ode_settings),
    assembled in the integrate stage once its args.grid grid is known to fit
    numpy's index range."""
    _check_grid(args.grid, n)
    with stats.stage("integrate"):
        return assemble_separated_surface(
            m=args.m, n=n, c0=args.c0, inits=[(args.y0, args.u0)] * n,
            step=args.step, max_steps=args.max_steps, stats=stats,
        )


def _stop_text(curve) -> str:
    return ", ".join(f"{way} {why}" for way, why in curve.stop_reasons.items())


def cmd_ode(args) -> int:
    stats = reporting.RunStats()
    k = 1 if args.k is None else args.k
    if args.n is not None:
        if args.k is not None and args.k != args.n - 1:
            print(
                f"--k {args.k} conflicts with --n {args.n} (assembly uses k = n-1)",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        k = args.n - 1
    # built before either path integrates, so that invalid settings are a
    # configuration error; an assembly builds the same parameters per profile
    try:
        params = ProfileODEParams(
            c0=args.c0, k=k, m=args.m, y0=args.y0, u0=args.u0, step=args.step,
            max_steps=args.max_steps,
        )
    except DomainError as exc:
        print(f"invalid ODE settings: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.n is not None:
        try:
            ts = _assemble(args, args.n, stats)
        except IntegrationError as exc:
            print(f"integration failed: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        with stats.stage("grid"):
            try:
                axes = ts.domain_axes(args.grid)
            except DomainError as exc:  # a domain too wide for a float, as in cmd_mesh
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_CONFIG
            grid = residual_grid(ts, axes)
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
        if np.isnan(curve.ode_residual_max):
            print(f"ode residual (5-point audit): not run, {len(curve.u)} samples "
                  "are fewer than the stencil's 5")
        else:
            print(f"ode residual (5-point audit): {curve.ode_residual_max:.12e}")
        print(f"stop: {_stop_text(curve)}")
    stats.log(log, "ode")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------


class _Params(dict):
    """The JSON object of a --params-file; a missing parameter raises DomainError."""

    path = ""

    def __missing__(self, key):
        raise DomainError(f"missing parameter {key!r} in {self.path}")


def _load_params(path) -> _Params:
    """The parameters of an ansatz or mesh --params-file: a JSON object whose
    p, q, r and signs, where given, are lists of finite numbers and whose n,
    where given, is an integer.  Anything else raises DomainError with a one-line
    message, which both commands report as a configuration error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise DomainError(f"{path}: expected a JSON object, got {type(data).__name__}")
    for key in ("p", "q", "r", "signs"):
        # type() rather than isinstance(): JSON true/false are not numbers here
        if key in data and not (isinstance(data[key], list)
                                and all(type(v) in (int, float) for v in data[key])):
            raise DomainError(f"{path}: {key!r} must be a list of numbers")
        # false for NaN, infinities and integers too large for a float
        if key in data and not all(abs(v) <= sys.float_info.max for v in data[key]):
            raise DomainError(f"{path}: {key!r} must hold finite numbers only")
    if "n" in data and type(data["n"]) is not int:
        raise DomainError(f"{path}: 'n' must be an integer")
    params = _Params(data)
    params.path = path
    return params


def cmd_ansatz(args) -> int:
    try:
        data = _load_params(args.params_file)
        kind = data.get("kind")
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


def cmd_mesh(args) -> int:
    try:
        if args.kind == "translation":
            stats = reporting.RunStats()
            ts = _assemble(args, 2, stats)
            with stats.stage("grid"):
                verts = meshes.translation_vertices(ts, ts.domain_axes(args.grid))
            with stats.stage("write"):
                if args.out.endswith(".csv"):
                    meshes.write_points_csv(
                        args.out, ["u1", "u2", "x3"], list(verts.reshape(-1, 3).T)
                    )
                else:
                    meshes.write_obj(args.out, verts)
                print(f"wrote {verts.shape[0] * verts.shape[1]} vertices to {args.out}")
            stats.log(log, "mesh")
            return EXIT_PASS
        # separable patch
        if args.params_file:
            data = _load_params(args.params_file)
            kind = data.get("kind", "affine")
            keys = {"affine": ("p", "q"), "exponential": ("q", "r")}.get(kind)
            if keys is None:
                print(f"unsupported X-profile kind {kind!r}", file=sys.stderr)
                return EXIT_CONFIG
            a, b = data[keys[0]], data[keys[1]]
            if len(a) != len(b):
                raise DomainError(f"{args.params_file}: {keys[0]!r} and {keys[1]!r} "
                                  f"differ in length ({len(a)} and {len(b)})")
            xs = xprofiles_of(kind, a, b)
            signs = tuple(data.get("signs", [1] * len(xs)))
        else:
            xs, signs = example_xprofiles(args.example)
        p = NormParams(m=args.m, dim=len(xs))
        check_patch_profiles(xs, signs, p)  # before the domain, which may be empty
        _check_grid(args.grid, len(xs) - 1)
        stats = reporting.RunStats()
        with stats.stage("grid"):
            try:
                axes = feasible_axes(xs, args.grid, span=args.span)
            except EmptyDomainError:
                print("empty admissible domain: no patch to mesh")
                return EXIT_PASS
            patch = patch_from_xprofiles(xs, signs, axes, p)
        with stats.stage("write"):
            if args.out.endswith(".csv"):
                patch.write_csv(args.out)
                print(f"wrote {patch.flat_points().shape[0]} points to {args.out}")
            else:
                verts = meshes.patch_vertices(patch, args.slice, args.project)
                meshes.write_obj(args.out, verts)
                print(f"wrote {verts.shape[0] * verts.shape[1]} vertices to {args.out}")
        stats.log(log, "mesh")
        return EXIT_PASS
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
    # the largest arrays are the (4, points, n + 1) draws of separable surfaces
    n_max = 4 if args.n is None else args.n
    errors.check_array_size(4 * args.points * (n_max + 1),
                            f"the draws of --points {args.points}, each of up to "
                            f"{n_max} parameters,")
    t0 = time.perf_counter()
    stats = reporting.RunStats()
    kinds = ("translation", "separable") if args.kind == "both" else (args.kind,)
    total = len(kinds) * args.points
    h_analytic, h_oracle, defect = np.empty(total), np.empty(total), np.empty(total)
    rng = sampling.counter_rng(args.seed)
    for first, kind in zip(range(0, total, args.points), kinds):
        draw, batch = (
            (sampling.random_translation_draws, report_translation_batch)
            if kind == "translation"
            else (sampling.random_separable_draws, report_separable_batch))
        with stats.stage("sample"):
            ms = rng.integers(1, 4, args.points)
            ns = (rng.integers(2, 5, args.points) if args.n is None
                  else np.full(args.points, args.n))
        # Then, per n in ascending order, one stack of the configurations with
        # that n, ordered by m (stably, so in draw order within each m), whose
        # profiles are one table stacked by row (sampling.taylor_profiles).
        # A batch is at most one chunk of report_separable_batch, so no table
        # holds more than a chunk's rows, and it takes each m as one run of rows.
        # Groups differ in dimension: the run's report has only the
        # comparison columns, scattered back to draw order.
        for n in (2, 3, 4) if args.n is None else (args.n,):
            rows = np.flatnonzero(ns == n)
            with stats.stage("sample"):
                at, derivs = draw(rng, n, rows.size)
                order = np.argsort(ms[rows], kind="stable")
                rows, at, derivs = rows[order], at[order], derivs[:, order]
            p = NormParams(m=1, dim=n + 1)  # each row's m is in ms
            for start in range(0, rows.size, curvature._CHUNK_POINTS):
                part = slice(start, start + curvature._CHUNK_POINTS)
                with stats.stage("sample"):
                    fs = sampling.taylor_profiles(at[part], derivs[:, part])
                rep = batch(fs, at[part], p, tol=args.tol, stats=stats,
                            ms=ms[rows[part]])
                stats.count("batches", 1)
                index = first + rows[part]
                h_analytic[index] = rep.h_analytic
                h_oracle[index] = rep.h_oracle
                defect[index] = rep.tangency_defect
    results = curvature.CurvatureReport(h_analytic, h_oracle, defect, args.tol)
    config = {
        "command": "oracle-compare",
        "kind": args.kind,
        "points": args.points,
        "n": "random" if args.n is None else args.n,
        "tol": args.tol,
        "seed": args.seed,
    }
    return _write_report(args, config, results, stats, t0)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _int_type(low: int, high: float, expected: str):
    """argparse type of an integer low <= value < high, described as expected."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return integer


_positive_int = _int_type(1, float("inf"), "a positive integer")  # a count
_mesh_grid = _int_type(2, float("inf"), "a positive integer >= 2")  # one node: no face
_parameter_count = _int_type(2, float("inf"), "an integer >= 2")  # --n
_seed = _int_type(0, 2**128, "a seed in [0, 2**128)")  # the Philox key


def _int_tuple(count: int, expected: str):
    """argparse type of count comma-separated integers, described as expected."""
    def integers(text: str) -> tuple:  # argparse names it in "invalid integers value"
        values = tuple(int(v) for v in text.split(","))
        if len(values) != count:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return values
    return integers


def _ode_settings(parser):
    """The profile ODE settings that ode and mesh --kind translation share."""
    parser.add_argument("--c0", type=float, default=1.0)
    parser.add_argument("--y0", type=float, default=1.0)
    parser.add_argument("--u0", type=float, default=0.0)
    parser.add_argument("--step", type=float, default=1e-3)
    parser.add_argument("--max-steps", type=int, default=5000)


def _tolerance(text: str) -> float:
    """argparse type of a tolerance: a finite float >= 0."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"expected a finite tolerance >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and building it costs about a millisecond.  main()
    hands the arguments after a command straight to that command's parser,
    one of this parser's subparsers (see _parse_args)."""
    return _parsers()[0]


@functools.lru_cache(maxsize=None)
def _parsers() -> tuple:
    """build_parser's parser and its subparsers by command name."""
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
    pv.add_argument("--points", type=_positive_int, default=100)
    pv.add_argument("--tol", type=_tolerance, default=1e-8, help="|H| tolerance")
    pv.add_argument("--oracle-tol", type=_tolerance, default=1e-6)
    pv.add_argument("--seed", type=_seed, default=20250101)
    pv.add_argument("--perturb", type=float, default=None,
                    help="scale the leading coefficient block (sanity check)")
    pv.add_argument("--out", default=None, help="report file")
    pv.add_argument("--csv", default=None, help="per-point CSV sidecar")
    pv.set_defaults(fn=cmd_verify)

    po = sub.add_parser("ode", help="integrate the separated profile ODE")
    po.add_argument("--m", type=int, default=1)
    po.add_argument("--k", type=int, default=None,
                    help="quadratic-term coefficient (default 1)")
    _ode_settings(po)
    po.add_argument("--n", type=_parameter_count, default=None,
                    help="assemble an n-profile surface (k = n-1) and report "
                    "its grid residual")
    po.add_argument("--grid", type=_positive_int, default=12)
    po.add_argument("--out", default=None, help="CSV output")
    po.set_defaults(fn=cmd_ode)

    pa = sub.add_parser("ansatz", help="extract an identity coefficient system")
    pa.add_argument("--params-file", required=True, help="JSON with p/q/r arrays")
    pa.add_argument("--tol", type=_tolerance, default=1e-10)
    pa.set_defaults(fn=cmd_ansatz)

    pm = sub.add_parser("mesh", help="export a surface mesh or point cloud")
    pm.add_argument("--kind", choices=("translation", "patch"), default="patch")
    pm.add_argument("--example", default="6.1", help=f"one of {XPROFILE_EXAMPLE_IDS}")
    pm.add_argument("--params-file", default=None,
                    help="JSON X-profile data instead of --example")
    pm.add_argument("--m", type=int, default=1)
    _ode_settings(pm)
    pm.add_argument("--grid", type=_mesh_grid, default=20)
    pm.add_argument("--span", type=float, default=1.0,
                    help="working half-width of the u-axes")
    pm.add_argument("--slice", type=_int_tuple(2, "two comma-separated integers"),
                    help="two varying parameter axes for OBJ, e.g. 0,1")
    pm.add_argument("--project", type=_int_tuple(3, "three comma-separated integers"),
                    help="three ambient coordinates for OBJ, e.g. 0,1,3")
    pm.add_argument("--out", required=True, help=".obj or .csv output")
    pm.set_defaults(fn=cmd_mesh)

    pc = sub.add_parser("oracle-compare",
                        help="closed-form H vs finite-difference oracle on "
                        "random configurations")
    pc.add_argument("--kind", choices=("translation", "separable", "both"),
                    default="both")
    pc.add_argument("--points", type=_positive_int, default=100)
    pc.add_argument("--n", type=_parameter_count, default=None,
                    help="fix the parameter count (default: random 2..4)")
    pc.add_argument("--tol", type=_tolerance, default=1e-6)
    pc.add_argument("--seed", type=_seed, default=20250101)
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=cmd_oracle_compare)

    return parser, sub.choices


def _parse_args(argv) -> argparse.Namespace:
    """build_parser().parse_args(argv), parsed once where argv[0] names a
    command: the top-level parser would only scan the rest of argv before
    handing it to that command's parser, which takes it here directly.
    Anything else, and arguments the command's parser leaves over, go to the
    top-level parser, so that its errors keep their usage line and message.
    Exits through SystemExit on help and errors, as parse_args does."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, extra = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] when argv is None) and return its
    exit code.  The arguments are parsed once (_parse_args); help and usage
    errors return 0 and 2 without raising SystemExit."""
    _setup_logging()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
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
    except MemoryError as exc:  # a grid or point count too large for memory
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
