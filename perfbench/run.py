"""Benchmark for minmin: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload catalogue --seed 7 --seconds 20 --trace 0

One process runs the workload's fixed job list of ``minmin.cli.main`` calls
in-process, one after another (a closed loop with one client and no threads),
with each job's stdout captured.  After one untimed warm-up pass, whose output
is checked, it repeats the pass until ``--seconds`` have elapsed; every later
pass must reproduce the warm-up's sha256 digests byte for byte.

``--trace 0`` reports the end-to-end metrics:

* ``norm_cpu_s``: the CPU time (user + system, all threads of the process)
  of one pass over the job list, in seconds at reference speed, as the median
  over the passes.  On a shared virtual machine the speed of a CPU moves by
  30% or more for minutes at a time, with the load other tenants put on the
  host, and neither CPU time nor the best time of each job over a run filters
  that out.  So before every job the pass also times a fixed reference loop
  (``reference_loop``, interpreter and small-array numpy work like minmin's,
  which never calls minmin), and the pass's CPU time is scaled by
  ``REF_NOMINAL_S`` over the loop's mean CPU time in that pass.  A change to
  minmin moves this metric in full; a change in machine speed mostly cancels.
  The raw CPU and wall times are printed too, but they are not metrics;
* ``setup_s``: the CPU time of a fresh interpreter that imports minmin and
  minmin.cli and builds the job list and its input files, scaled the same way
  by reference loops timed just before and after it, as the median over
  probes spread over the run (the raw CPU and wall times are printed too);
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of ``tracing.py`` (medians over the traced passes) and
``trace.overhead_frac``.  Readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` and ``failed`` count the checked operations of
one pass (see ``workloads.py``); every pass repeats them.

The program is imported from ``src/`` next to this directory.  Without it the
benchmark exits with status 2 and prints no result.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
PROBE_REF_LOOPS = 16       # reference loops timed on each side of a set-up probe
REF_ITERATIONS = 200
# roughly the CPU time of reference_loop on a 2-vCPU Intel Xeon virtual machine
# (Python 3.11, numpy 2.4); it only fixes the speed all times are scaled to
REF_NOMINAL_S = 0.002

# end-to-end metrics: (name, unit)
END_TO_END = (("norm_cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
# throughputs printed for the workloads they apply to: (name, unit, work field)
THROUGHPUTS = (
    ("verify_points_per_s", "points/s", "points"),
    ("ode_samples_per_s", "samples/s", "samples"),
    ("mesh_nodes_per_s", "nodes/s", "nodes"),
)


def import_cli():
    """minmin.cli.main, imported from the source tree next to the benchmark."""
    if not (SRC / "minmin" / "__init__.py").is_file():
        print(f"perfbench: no minmin sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import minmin.cli

    if SRC.resolve() not in Path(minmin.__file__).resolve().parents:
        print(f"perfbench: imported minmin from {minmin.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return minmin.cli.main


def reference_loop() -> float:
    """Fixed interpreter and small-array numpy work that gauges machine speed."""
    x = np.linspace(0.1, 1.0, 8)
    acc = 0.0
    for i in range(REF_ITERATIONS):
        y = np.sin(x * (1.0 + i * 1e-3)) ** 2 + np.abs(x) ** 1.5
        acc += float(y.sum()) + math.sqrt(i + 1.0)
        acc += sum(acc * k for k in range(10)) * 1e-12
    return acc


def time_reference() -> float:
    c0 = time.process_time()
    reference_loop()
    return time.process_time() - c0


def write_inputs(files: dict):
    for name, text in files.items():
        Path(name).write_text(text, encoding="utf-8")


@dataclass
class Pass:
    times: list                                  # CPU time of each job
    walls: list                                  # wall time of each job
    refs: list                                   # reference loop before each job
    digests: list
    outputs: list = field(default_factory=list)  # (code, stdout, files), if kept
    other_s: float = 0.0                         # job time outside top-level spans

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def norm_cpu(self) -> float:
        """CPU time of the pass, scaled to reference speed."""
        return sum(self.times) * REF_NOMINAL_S / statistics.fmean(self.refs)


def run_pass(main, jobs, tracer=None, keep=False) -> Pass:
    """Run every job once; time each main() call with its stdout captured."""
    result = Pass([], [], [], [])
    for job in jobs:
        for name in job.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
        # interleaved with the jobs, so that it meets the same machine speed
        result.refs.append(time_reference())
        buf = io.StringIO()
        mark = len(tracer.spans) if tracer else 0
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(list(job.argv))
        except Exception:  # a crashing job is a failed operation; the run goes on
            code = None
            traceback.print_exc()
        dt = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer:
            result.other_s += dt - tracer.top_level_seconds(mark)
        files = {}
        for name in job.outputs:
            try:
                files[name] = Path(name).read_bytes()
            except OSError:
                files[name] = b""
        digest = hashlib.sha256(repr((job.argv, code)).encode())
        digest.update(buf.getvalue().encode())
        for name in job.outputs:
            digest.update(name.encode() + b"\0" + files[name])
        result.times.append(cpu)
        result.walls.append(dt)
        result.digests.append(digest.hexdigest())
        if keep:
            result.outputs.append((code, buf.getvalue(), files))
    return result


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_probe(args, index: int) -> tuple:
    """(scaled CPU, CPU, wall) time of one fresh interpreter doing the set-up."""
    probe_dir = Path(f"probe{index}")
    probe_dir.mkdir()
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    refs = [time_reference() for _ in range(PROBE_REF_LOOPS)]
    # the probe is this process's only child, and subprocess.run waits for it
    c0, t0 = _children_cpu(), time.perf_counter()
    proc = subprocess.run(cmd, cwd=probe_dir, stdout=subprocess.DEVNULL,
                          timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    cpu = _children_cpu() - c0
    refs += [time_reference() for _ in range(PROBE_REF_LOOPS)]
    if proc.returncode != 0:
        print(f"perfbench: set-up probe exited {proc.returncode}", file=sys.stderr)
        raise SystemExit(1)
    return cpu * REF_NOMINAL_S / statistics.fmean(refs), cpu, elapsed


def environment(args, jobs) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "jobs": [" ".join(job.argv) for job in jobs],
    }


def best_times(passes, attr="times") -> list:
    """Each job's least CPU (or, with attr="walls", wall) time over the passes."""
    return [min(times) for times in zip(*(getattr(p, attr) for p in passes))]


def throughput(best, outcomes, work_field):
    """Work done over the best times of the jobs that did it."""
    idx = [i for i, o in enumerate(outcomes) if getattr(o, work_field)]
    if not idx:
        return None
    return sum(getattr(outcomes[i], work_field) for i in idx) / sum(best[i] for i in idx)


@dataclass
class Measurement:
    warm: Pass
    outcomes: list                # per-job Outcome of the warm-up pass
    total: workloads.Outcome      # summed over the jobs of one pass
    untraced: list
    traced: list
    layer: list                   # per-layer metrics of each traced pass
    setup: list                   # setup_probe() of each set-up probe


def measure(args, main, jobs) -> Measurement:
    """Warm up and check, then alternate set-up probes and passes until done."""
    warm = run_pass(main, jobs, keep=True)
    outcomes = [workloads.check(job, *out) for job, out in zip(jobs, warm.outputs)]
    total = workloads.Outcome()
    for outcome in outcomes:
        total.add(outcome)

    tracer = tracing.Tracer() if args.trace else None
    want_probes = 0 if args.trace else SETUP_PROBES
    run = Measurement(warm, outcomes, total, [], [], [], [])
    deadline = time.perf_counter() + args.seconds
    while True:
        # probes are spread over the run so that they meet the same machine
        # load as the passes
        if len(run.setup) < want_probes:
            run.setup.append(setup_probe(args, len(run.setup)))
        gc.collect()
        run.untraced.append(run_pass(main, jobs))
        if tracer:
            gc.collect()
            tracer.reset()
            tracer.install()
            try:
                run.traced.append(run_pass(main, jobs, tracer))
                run.layer.append(tracer.metrics(run.traced[-1].other_s))
            finally:
                tracer.restore()
        if time.perf_counter() >= deadline and len(run.setup) == want_probes:
            break
    for p in run.untraced + run.traced:
        for i, (a, b) in enumerate(zip(p.digests, warm.digests)):
            if a != b:
                total.broken.append(f"job {i} output differs from the warm-up pass")
    return run


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="job sizes; 'tiny' is for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    cli_main = import_cli()
    jobs, files = workloads.build(args.workload, args.seed, args.size)
    if args.setup_probe:
        write_inputs(files)
        return 0

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    start_dir = Path.cwd()
    os.chdir(workdir)
    try:
        write_inputs(files)
        run = measure(args, cli_main, jobs)
    finally:
        os.chdir(start_dir)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    total = run.total
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + json.dumps(environment(args, jobs), sort_keys=True))
    print("digests: " + json.dumps({
        "workload": hashlib.sha256("".join(run.warm.digests).encode()).hexdigest(),
        "jobs": run.warm.digests,
    }))
    passes = run.untraced
    norm_cpu_s = statistics.median(p.norm_cpu for p in passes)
    ref_s = statistics.median(r for p in passes for r in p.refs)
    best = best_times(passes)
    cpu_s = sum(best)
    print(f"{'norm_cpu_s':<22}{norm_cpu_s:14.6f} s          median pass CPU time over"
          f" {len(passes)} passes, at reference speed")
    print(f"{'reference_loop':<22}{ref_s:14.6f} s          median CPU time"
          f" (nominal {REF_NOMINAL_S} s)")
    print(f"{'cpu_s':<22}{cpu_s:14.6f} s          sum of each job's least CPU time,"
          f" not scaled (median pass {statistics.median(sum(p.times) for p in passes):.6f} s)")
    print(f"{'wall_s':<22}{sum(best_times(passes, 'walls')):14.6f} s          the same"
          f" with wall time (median pass {statistics.median(p.wall for p in passes):.6f} s)")
    if run.setup:
        setup_s, setup_cpu, setup_wall = (
            statistics.median(probe[i] for probe in run.setup) for i in range(3))
        print(f"{'setup_s':<22}{setup_s:14.6f} s          median of {len(run.setup)}"
              f" fresh interpreters at reference speed (CPU {setup_cpu:.6f} s,"
              f" wall {setup_wall:.6f} s)")
    for name, unit, work_field in THROUGHPUTS:
        value = throughput(best, run.outcomes, work_field)
        if value is not None:
            print(f"{name:<22}{value:14.3f} {unit:<10} over the least job CPU times")
    frac = total.failed / total.ops if total.ops else 0.0
    print(f"{'fail_frac':<22}{frac:14.6f} ratio      "
          f"{total.failed} failed of ops={total.ops} per pass")
    print(f"{'peak_rss_mb':<22}{peak_rss_mb:14.3f} MiB")
    for what in total.broken:
        print(f"check failed: {what}")

    if args.trace:
        metrics = tracing.median_metrics(run.layer)
        metrics["trace.overhead_frac"] = sum(best_times(run.traced)) / cpu_s - 1.0
        units = {name: unit for name, unit, *_ in tracing.LAYER_METRICS}
        predicts = {name: pred for name, *_, pred in tracing.LAYER_METRICS}
        print(f"per-layer metrics, median of {len(run.traced)} traced passes:")
        for name, value in metrics.items():
            print(f"  {name:<40}{value:16.4f} {units[name]:<6} -> {predicts[name]}")
    else:
        metrics = {"norm_cpu_s": norm_cpu_s, "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": not total.broken,
        "attempted": total.ops,
        "failed": total.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
