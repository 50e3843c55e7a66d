"""Per-layer tracing of minmin from outside the program.

The traced run wraps public functions and methods of ``minmin``'s modules,
records spans in memory with their parent span, and restores the originals
afterwards.  A function bound into another module through ``from .x import y``
is replaced under every name that holds it in a ``minmin`` namespace.  The
hottest leaves (``signed_pow``, ``C3Function`` evaluations, ``XProfile.value``
and the ODE right-hand side) are kept as counts instead of spans.

A target that does not exist, or that has become an alias of another target,
is skipped, and the metrics that depend on it are left out of the result.  A
metric whose layer did no work on a workload reads 0.
"""

import functools
import importlib
import os
import statistics
import sys
import time

# A leaf is counted without a span; a timed leaf also sums its time.  Timing
# the millions of XProfile.value calls of a quadrature pass would double the
# pass, so only the leaves a metric needs the time of are timed.
SPAN, LEAF, TIMED_LEAF = "span", "leaf", "timed leaf"
# span group -> leaf group whose calls made inside the span are recorded with it
INNER_LEAF = {"translation.integrate": "translation.rhs"}


def _rows(args, result):
    return len(args[0].reports)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _sampled(args, result):
    return result.shape[0]


def _patch_nodes(args, result):
    return result.points.size // result.points.shape[-1]


def _grid_nodes(args, result):
    return result.size


def _curve_samples(args, result):
    return len(result.u)


# (group, module, attribute path, kind, size of the work a span did).  Groups
# that no metric names (separable.surface, separable.feasible_axes,
# translation.assemble, meshes.vertices) still count as layer time for
# cli.other_s when they are the outermost span of a job.
TARGETS = (
    ("curvature.oracle", "minmin.curvature", "mean_curvature_oracle", SPAN, None),
    ("curvature.chart_point", "minmin.curvature", "SeparableChart.point", SPAN, None),
    ("curvature.closed_form", "minmin.curvature", "mean_curvature_separable", SPAN, None),
    ("curvature.closed_form", "minmin.curvature", "weingarten_separable", SPAN, None),
    ("curvature.translation_closed_form", "minmin.curvature",
     "mean_curvature_translation", SPAN, None),
    ("curvature.translation_closed_form", "minmin.curvature",
     "weingarten_translation", SPAN, None),
    ("curvature.report_separable", "minmin.curvature", "report_separable", SPAN, None),
    ("curvature.report_translation", "minmin.curvature", "report_translation", SPAN,
     None),
    ("norms.birkhoff", "minmin.norms", "birkhoff_normal_graph", SPAN, None),
    ("norms.birkhoff", "minmin.norms", "birkhoff_normal_implicit", SPAN, None),
    ("norms.signed_pow", "minmin.norms", "signed_pow", LEAF, None),
    ("functions.profile_eval", "minmin.functions", "C3Function.__call__", LEAF, None),
    ("functions.profile_eval", "minmin.functions", "C3Function.d1", LEAF, None),
    ("functions.profile_eval", "minmin.functions", "C3Function.d2", LEAF, None),
    ("functions.profile_eval", "minmin.functions", "C3Function.d3", LEAF, None),
    ("functions.taylor", "minmin.functions", "C3Function.taylor", SPAN, None),
    ("separable.surface", "minmin.separable", "example_surface", SPAN, None),
    ("separable.surface", "minmin.separable", "perturbed_example_surface", SPAN, None),
    ("separable.sample", "minmin.separable", "SeparableSurface.sample", SPAN, _sampled),
    ("separable.x_of_u", "minmin.separable", "_QuadratureProfile.x_of_u", SPAN, None),
    ("separable.u_of_x", "minmin.separable", "_QuadratureProfile.u_of_x", SPAN, None),
    ("separable.simpson", "minmin.separable", "composite_simpson", SPAN, None),
    ("separable.xprofile_value", "minmin.separable", "XProfile.value", LEAF, None),
    ("separable.feasible_axes", "minmin.separable", "feasible_axes", SPAN, None),
    ("separable.patch", "minmin.separable", "patch_from_xprofiles", SPAN, _patch_nodes),
    ("separable.ansatz", "minmin.separable", "extract_affine_system", SPAN, None),
    ("separable.ansatz", "minmin.separable", "extract_quadratic_system", SPAN, None),
    ("separable.ansatz", "minmin.separable", "extract_exponential_system", SPAN, None),
    ("translation.assemble", "minmin.translation", "assemble_separated_surface", SPAN,
     None),
    ("translation.integrate", "minmin.translation", "integrate_profile", SPAN,
     _curve_samples),
    ("translation.rhs", "minmin.translation", "ProfileODEParams.rhs", LEAF, None),
    ("translation.residual_grid", "minmin.translation", "residual_grid", SPAN,
     _grid_nodes),
    ("translation.sampled_eval", "minmin.translation", "SampledProfile._eval", TIMED_LEAF,
     None),
    ("translation.sampled_eval", "minmin.translation", "SampledProfile._d1_eval",
     TIMED_LEAF,
     None),
    ("sampling.config", "minmin.sampling", "random_translation_config", SPAN, None),
    ("sampling.config", "minmin.sampling", "random_separable_config", SPAN, None),
    ("reporting.render", "minmin.reporting", "VerificationReport.render", SPAN, _rows),
    ("meshes.vertices", "minmin.meshes", "translation_vertices", SPAN, None),
    ("meshes.vertices", "minmin.meshes", "patch_vertices", SPAN, None),
    ("meshes.write_obj", "minmin.meshes", "write_obj", SPAN, _file_bytes),
)

# (name, unit, better, groups it needs, prediction: the end-to-end metric and
# workload it should move)
LAYER_METRICS = (
    ("curvature.oracle_us", "us", "lower", ("curvature.oracle",),
     "verify_points_per_s on catalogue and random-oracle"),
    ("curvature.oracle_self_us", "us", "lower", ("curvature.oracle",),
     "verify_points_per_s on catalogue and random-oracle"),
    ("curvature.chart_point_us", "us", "lower", ("curvature.chart_point",),
     "verify_points_per_s on catalogue; carries the quadrature inversion on quadrature"),
    ("curvature.chart_point_calls", "count", "lower", ("curvature.chart_point",),
     "verify_points_per_s on catalogue"),
    ("curvature.closed_form_us", "us", "lower",
     ("curvature.closed_form", "curvature.report_separable"),
     "verify_points_per_s on catalogue"),
    ("curvature.translation_closed_form_us", "us", "lower",
     ("curvature.translation_closed_form", "curvature.report_translation"),
     "verify_points_per_s on random-oracle"),
    ("norms.birkhoff_us", "us", "lower", ("norms.birkhoff",),
     "verify_points_per_s on catalogue and random-oracle"),
    ("norms.birkhoff_calls", "count", "lower", ("norms.birkhoff",),
     "verify_points_per_s on catalogue and random-oracle"),
    ("norms.signed_pow_calls", "count", "lower", ("norms.signed_pow",),
     "norm_cpu_s on catalogue, random-oracle and profile-ode"),
    ("functions.profile_evals", "count", "lower", ("functions.profile_eval",),
     "verify_points_per_s on catalogue and random-oracle"),
    ("functions.taylor_us", "us", "lower", ("functions.taylor",),
     "verify_points_per_s on random-oracle"),
    ("separable.sample_us_per_point", "us", "lower", ("separable.sample",),
     "verify_points_per_s on catalogue and quadrature"),
    ("separable.x_of_u_calls", "count", "lower", ("separable.x_of_u",),
     "verify_points_per_s on quadrature"),
    ("separable.x_of_u_us", "us", "lower", ("separable.x_of_u",),
     "verify_points_per_s on quadrature"),
    ("separable.u_of_x_calls", "count", "lower", ("separable.u_of_x",),
     "verify_points_per_s on quadrature"),
    ("separable.u_of_x_us", "us", "lower", ("separable.u_of_x",),
     "verify_points_per_s on quadrature"),
    ("separable.u_of_x_memo_hit_ratio", "ratio", "higher",
     ("separable.u_of_x", "separable.x_of_u"), "verify_points_per_s on quadrature"),
    ("separable.simpson_calls", "count", "lower", ("separable.simpson",),
     "verify_points_per_s and mesh_nodes_per_s on quadrature"),
    ("separable.simpson_us", "us", "lower", ("separable.simpson",),
     "verify_points_per_s and mesh_nodes_per_s on quadrature"),
    ("separable.xprofile_evals", "count", "lower", ("separable.xprofile_value",),
     "verify_points_per_s and mesh_nodes_per_s on quadrature"),
    ("separable.patch_us_per_node", "us", "lower", ("separable.patch",),
     "mesh_nodes_per_s on quadrature"),
    ("separable.ansatz_us", "us", "lower", ("separable.ansatz",),
     "norm_cpu_s on random-oracle"),
    ("translation.integrate_us", "us", "lower", ("translation.integrate",),
     "ode_samples_per_s on profile-ode"),
    ("translation.rhs_evals_per_sample", "ratio", "lower",
     ("translation.integrate", "translation.rhs"), "ode_samples_per_s on profile-ode"),
    ("translation.residual_grid_us_per_node", "us", "lower",
     ("translation.residual_grid",), "norm_cpu_s and mesh_nodes_per_s on profile-ode"),
    ("translation.sampled_eval_us", "us", "lower", ("translation.sampled_eval",),
     "norm_cpu_s and mesh_nodes_per_s on profile-ode"),
    ("sampling.config_us", "us", "lower", ("sampling.config",),
     "verify_points_per_s on random-oracle"),
    ("reporting.render_us_per_row", "us", "lower", ("reporting.render",),
     "norm_cpu_s on catalogue"),
    ("meshes.write_obj_us", "us", "lower", ("meshes.write_obj",),
     "mesh_nodes_per_s on quadrature and profile-ode"),
    ("meshes.obj_bytes", "bytes", "lower", ("meshes.write_obj",),
     "mesh_nodes_per_s on quadrature and profile-ode"),
    ("cli.other_s", "s", "lower", (), "norm_cpu_s on all workloads"),
    ("trace.overhead_frac", "ratio", "lower", (), "none: the cost of tracing itself"),
)


def _resolve(owner, path):
    """(object holding the last attribute, its name, current raw value) or None."""
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(name)  # only what the class itself defines
    else:
        raw = getattr(owner, name, None)
    return None if raw is None else (owner, name, raw)


class Tracer:
    """Spans and leaf counters of one traced pass, with the patches that feed them."""

    def __init__(self):
        self.spans = []    # [group, parent, start, end, work size, inner leaf calls]
        self.stack = []
        self.leaves = {}   # group -> [calls, seconds]
        self.installed = set()
        self._patches = []

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        for cell in self.leaves.values():
            cell[0], cell[1] = 0, 0.0

    # ---- wrappers ---------------------------------------------------------

    def _span(self, group, fn, size):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        inner = self.leaves.setdefault(INNER_LEAF[group], [0, 0.0]) \
            if group in INNER_LEAF else [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [group, stack[-1] if stack else -1, clock(), 0.0, None, inner[0]]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                rec[5] = inner[0] - rec[5]
                stack.pop()
            if size is not None:
                try:
                    rec[4] = size(args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    pass
            return result

        return wrapper

    def _leaf(self, group, fn, timed):
        cell = self.leaves.setdefault(group, [0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        @functools.wraps(fn)
        def timed_wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += clock() - t0
                cell[0] += 1

        return timed_wrapper if timed else counted

    # ---- install / restore ------------------------------------------------

    def install(self):
        """Patch every target that exists; remember how to undo each patch."""
        self.installed = set()
        seen = set()
        namespaces = [m for name, m in sys.modules.items()
                      if name == "minmin" or name.startswith("minmin.")]
        for group, modname, path, kind, size in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            found = _resolve(module, path)
            if found is None:
                continue
            owner, name, raw = found
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not callable(fn) or id(fn) in seen:
                continue  # gone, or an alias of a target already wrapped
            seen.add(id(fn))
            if kind == SPAN:
                wrapped = self._span(group, fn, size)
            else:
                wrapped = self._leaf(group, fn, kind == TIMED_LEAF)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            if isinstance(owner, type):
                self._patches.append((owner, name, raw))
                setattr(owner, name, wrapped)
            else:
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is raw:
                            self._patches.append((ns, key, raw))
                            setattr(ns, key, wrapped)
            self.installed.add(group)

    def restore(self):
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    # ---- per-pass metrics -------------------------------------------------

    def top_level_seconds(self, start: int) -> float:
        """Time covered by the outermost spans recorded since index start."""
        return sum(s[3] - s[2] for s in self.spans[start:] if s[1] == -1)

    def metrics(self, other_s: float) -> dict:
        """Per-layer metrics of the pass just traced, without trace.overhead_frac."""
        spans = self.spans
        calls, total, self_time, work = {}, {}, {}, {}
        child = [0.0] * len(spans)
        has_x_of_u = [False] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[3] - rec[2]
                if rec[0] == "separable.x_of_u":
                    has_x_of_u[rec[1]] = True
        u_of_x_memo = rhs_in_integrate = 0
        for i, (group, _, t0, t1, size, inner) in enumerate(spans):
            calls[group] = calls.get(group, 0) + 1
            total[group] = total.get(group, 0.0) + (t1 - t0)
            self_time[group] = self_time.get(group, 0.0) + (t1 - t0 - child[i])
            if size is not None:
                work[group] = work.get(group, 0) + size
            if group == "separable.u_of_x" and not has_x_of_u[i]:
                u_of_x_memo += 1
            if group == "translation.integrate":
                rhs_in_integrate += inner

        def per(num, den, scale=1e6):
            return scale * num / den if den else 0.0

        def mean_us(group):
            return per(total.get(group, 0.0), calls.get(group, 0))

        leaf_calls = {g: c[0] for g, c in self.leaves.items()}
        leaf_time = {g: c[1] for g, c in self.leaves.items()}
        n_sep = calls.get("curvature.report_separable", 0)
        n_tr = calls.get("curvature.report_translation", 0)
        values = {
            "curvature.oracle_us": mean_us("curvature.oracle"),
            "curvature.oracle_self_us": per(self_time.get("curvature.oracle", 0.0),
                                            calls.get("curvature.oracle", 0)),
            "curvature.chart_point_us": mean_us("curvature.chart_point"),
            "curvature.chart_point_calls": calls.get("curvature.chart_point", 0),
            "curvature.closed_form_us": per(total.get("curvature.closed_form", 0.0),
                                            n_sep),
            "curvature.translation_closed_form_us": per(
                total.get("curvature.translation_closed_form", 0.0), n_tr),
            "norms.birkhoff_us": mean_us("norms.birkhoff"),
            "norms.birkhoff_calls": calls.get("norms.birkhoff", 0),
            "norms.signed_pow_calls": leaf_calls.get("norms.signed_pow", 0),
            "functions.profile_evals": leaf_calls.get("functions.profile_eval", 0),
            "functions.taylor_us": mean_us("functions.taylor"),
            "separable.sample_us_per_point": per(total.get("separable.sample", 0.0),
                                                 work.get("separable.sample", 0)),
            "separable.x_of_u_calls": calls.get("separable.x_of_u", 0),
            "separable.x_of_u_us": mean_us("separable.x_of_u"),
            "separable.u_of_x_calls": calls.get("separable.u_of_x", 0),
            "separable.u_of_x_us": mean_us("separable.u_of_x"),
            "separable.u_of_x_memo_hit_ratio": per(
                u_of_x_memo, calls.get("separable.u_of_x", 0), 1.0),
            "separable.simpson_calls": calls.get("separable.simpson", 0),
            "separable.simpson_us": mean_us("separable.simpson"),
            "separable.xprofile_evals": leaf_calls.get("separable.xprofile_value", 0),
            "separable.patch_us_per_node": per(total.get("separable.patch", 0.0),
                                               work.get("separable.patch", 0)),
            "separable.ansatz_us": mean_us("separable.ansatz"),
            "translation.integrate_us": mean_us("translation.integrate"),
            "translation.rhs_evals_per_sample": per(
                rhs_in_integrate, work.get("translation.integrate", 0), 1.0),
            "translation.residual_grid_us_per_node": per(
                total.get("translation.residual_grid", 0.0),
                work.get("translation.residual_grid", 0)),
            "translation.sampled_eval_us": per(
                leaf_time.get("translation.sampled_eval", 0.0),
                leaf_calls.get("translation.sampled_eval", 0)),
            "sampling.config_us": mean_us("sampling.config"),
            "reporting.render_us_per_row": per(total.get("reporting.render", 0.0),
                                               work.get("reporting.render", 0)),
            "meshes.write_obj_us": mean_us("meshes.write_obj"),
            "meshes.obj_bytes": work.get("meshes.write_obj", 0),
            "cli.other_s": other_s,
        }
        return {name: values[name]
                for name, _, _, needs, _ in LAYER_METRICS
                if name in values and all(g in self.installed for g in needs)}


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over the traced passes that report it."""
    names = [n for n, *_ in LAYER_METRICS if all(n in p for p in per_pass)]
    return {n: statistics.median(p[n] for p in per_pass) for n in names}
