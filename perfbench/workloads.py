"""Seeded job lists for the benchmark workloads and the checks on their output.

A workload is a fixed list of ``minmin`` CLI invocations (jobs) built from the
benchmark seed.  The program only ever sees the generated arguments and the
JSON parameter files written next to them.  Every job has a check that turns
its exit code, captured stdout and written files into counted operations:

* a verified point (``verify`` / ``oracle-compare`` report row) fails when
  its row says ``NO``.  These failures come from the program's own oracle and
  are reported, not treated as a broken benchmark;
* every other check (the job-level report check of a ``verify`` job, a
  ``--perturb`` job exiting 1, ``ode``, ``mesh`` and ``ansatz`` jobs) is one
  operation whose failure also marks the run as incorrect.
"""

import json
import math
import random
from dataclasses import dataclass, field

# (example id, --r or None); every closed-form id of the catalogue
CATALOGUE_IDS = (
    ("6.1", None), ("6.2", 2), ("6.2", 3), ("6.3", None), ("6.4", 2),
    ("6.4", 3), ("6.6", None), ("i-2", None), ("iii-2", None),
)
PERTURB_IDS = (("6.1", None), ("6.2", 2), ("6.3", None), ("6.4", 2))
# parameter count n of each example's quadrature patch (grid^n nodes)
PATCH_PARAMS = {"6.1": 3, "6.3": 4, "6.5": 3, "6.6": 3}

N2_RESIDUAL_BOUND = 1e-7   # the minimal two-profile assembly, as in the CLI tests
N3_RESIDUAL_FLOOR = 1e-3   # the obstructed three-profile assembly stays above this

# Work is split into many short jobs with their own seeds: the benchmark times
# its reference loop before every job, so the speed it scales a pass by
# follows the machine's speed within the pass.
SIZES = {
    "full": {
        "catalogue_jobs": 2, "catalogue_points": 30, "perturb_points": 10,
        "quadrature_jobs": 2, "quadrature_points": 3,
        "patch_grid": {"6.1": 6, "6.3": 4, "6.5": 6, "6.6": 6},
        "ode_steps": 300, "n2_steps": 200, "n2_grid": 8,
        "n3_steps": 200, "n3_grid": 4, "translation_grid": 12,
        "oracle_jobs": 4, "oracle_points": 75,
    },
    # for the smoke test: every kind of job of every workload, a few points each
    "tiny": {
        "catalogue_jobs": 1, "catalogue_points": 3, "perturb_points": 3,
        "quadrature_jobs": 1, "quadrature_points": 1,
        "patch_grid": {"6.1": 3, "6.3": 2, "6.5": 3, "6.6": 3},
        "ode_steps": 60, "n2_steps": 60, "n2_grid": 3,
        "n3_steps": 60, "n3_grid": 3, "translation_grid": 4,
        "oracle_jobs": 1, "oracle_points": 3,
    },
}


@dataclass
class Job:
    """One CLI invocation, what it writes, and what its check expects."""

    kind: str
    argv: list
    outputs: tuple = ()
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Counted operations of one job (or one pass, when summed)."""

    ops: int = 0
    failed: int = 0
    broken: list = field(default_factory=list)  # failed checks other than points
    points: int = 0    # points taken through closed form, oracle and report
    samples: int = 0   # profile samples produced by ode jobs
    nodes: int = 0     # parameter-grid nodes computed by mesh jobs

    def add(self, other: "Outcome"):
        self.ops += other.ops
        self.failed += other.failed
        self.broken += other.broken
        self.points += other.points
        self.samples += other.samples
        self.nodes += other.nodes

    def check(self, ok: bool, what: str):
        self.ops += 1
        if not ok:
            self.failed += 1
            self.broken.append(what)


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


def _num(x: float) -> str:
    return f"{x:.6g}"


def _verify(kind, ex, r, m, points, seed, extra=()):
    argv = ["verify", "--example", ex, "--m", str(m), "--points", str(points),
            "--seed", seed]
    if r is not None:
        argv += ["--r", str(r)]
    return Job(kind, argv + list(extra), expect={"points": points})


def catalogue(rng, size):
    # m >= 2 runs more jobs than m = 1: the known oracle failures are all at
    # m >= 2, and this makes them show on almost every seed
    jobs = [
        _verify("verify", ex, r, m, size["catalogue_points"], _seed(rng))
        for ex, r in CATALOGUE_IDS
        for m in (1, 2, 3)
        for _ in range(1 if m == 1 else size["catalogue_jobs"])
    ]
    jobs += [
        _verify("perturb", ex, r, rng.choice((1, 2, 3)), size["perturb_points"],
                _seed(rng), ("--perturb", "1.1"))
        for ex, r in PERTURB_IDS
    ]
    return jobs, {}


def _mesh_patch(ex, m, grid, ext):
    out = f"patch_{ex}.{ext}"
    argv = ["mesh", "--kind", "patch", "--example", ex, "--m", str(m),
            "--grid", str(grid), "--out", out]
    nodes = grid ** PATCH_PARAMS[ex]
    return Job("mesh", argv, (out,), {"nodes": nodes, "grid": grid,
                                      "dim": PATCH_PARAMS[ex] + 1})


def quadrature(rng, size):
    jobs = [
        _verify("verify", "6.5", None, m, size["quadrature_points"], _seed(rng))
        for m in (1, 2, 3)
        for _ in range(size["quadrature_jobs"])
    ]
    for ex, ext in (("6.1", "obj"), ("6.3", "csv"), ("6.5", "obj"), ("6.6", "csv")):
        jobs.append(_mesh_patch(ex, rng.choice((1, 2, 3)), size["patch_grid"][ex], ext))
    return jobs, {}


def _profile_args(rng, n=1):
    # With |c0| <= 0.4 and |y0| in [0.4, 0.6] no profile blows up or reaches
    # zero slope within --max-steps in either direction, so every seed does
    # the same number of RK4 steps.  Flipping the signs of c0 and y0 together
    # mirrors a single profile; an assembly fixes the sign of c0 itself.
    sign = rng.choice((-1.0, 1.0))
    return ["--c0", _num((sign if n == 1 else 1.0) * rng.uniform(0.3, 0.4)),
            "--y0", _num(sign * rng.uniform(0.4, 0.6)),
            "--u0", _num(rng.uniform(-0.5, 0.5))]


def profile_ode(rng, size):
    jobs = []
    for m in (1, 2, 3):
        for k in (1, 2):
            out = f"ode_m{m}_k{k}.csv"
            argv = (["ode", "--m", str(m), "--k", str(k)] + _profile_args(rng)
                    + ["--max-steps", str(size["ode_steps"]), "--out", out])
            jobs.append(Job("ode", argv, (out,)))
    for n, kind, steps, grid in (
        (2, "ode_minimal", size["n2_steps"], size["n2_grid"]),
        (3, "ode_obstructed", size["n3_steps"], size["n3_grid"]),
    ):
        for m in (1, 2, 3):
            argv = (["ode", "--m", str(m), "--n", str(n)] + _profile_args(rng, n)
                    + ["--max-steps", str(steps), "--grid", str(grid)])
            jobs.append(Job(kind, argv, expect={"step": 1e-3}))
    grid = size["translation_grid"]
    argv = (["mesh", "--kind", "translation", "--m", str(rng.choice((1, 2, 3)))]
            + _profile_args(rng, 2)
            + ["--max-steps", str(size["n2_steps"]), "--grid", str(grid),
               "--out", "translation.obj"])
    jobs.append(Job("mesh", argv, ("translation.obj",),
                    {"nodes": grid * grid, "grid": grid, "dim": 3}))
    return jobs, {}


def _ansatz_cases(rng):
    """(name, parameters, expected exit code) for the ansatz jobs."""
    u = rng.uniform

    def q1():
        return rng.choice((-1.0, 1.0)) * u(0.5, 2.0)

    p = [u(0.5, 2.0) for _ in range(3)]
    i2_p, qa = p + [-p[0] + p[1] + p[2]], q1()
    i2_q = [qa, -qa, -qa, qa]
    p = [u(0.5, 2.0) for _ in range(4)]
    iii2_p, qb = p + [(-2 * p[0] - 2 * p[1] + p[2] + p[3]) / 2], q1()
    zero_p = [u(-1.0, 1.0) for _ in range(3)]
    c65, c66, qc = u(0.5, 2.0), u(0.5, 2.0), q1()
    return [
        ("i-2", {"kind": "affine", "p": i2_p, "q": i2_q}, 0),
        ("iii-2", {"kind": "affine", "p": iii2_p,
                   "q": [qb, qb, -2 * qb, -2 * qb, qb]}, 0),
        ("equal-q", {"kind": "affine", "p": zero_p + [-sum(zero_p)],
                     "q": [qc] * 4}, 0),
        ("6.5", {"kind": "exponential", "q": [c65] * 4, "r": [c65] * 4}, 0),
        ("6.6", {"kind": "exponential", "q": [c66, 0, 0, c66],
                 "r": [0, c66, c66, 0]}, 0),
        ("quadratic-i-2", {"kind": "quadratic", "p": i2_p, "q": i2_q,
                           "r": [0.0] * 4}, 0),
        ("affine", {"kind": "affine", "p": [u(0.5, 2.0) for _ in range(4)],
                    "q": [u(0.5, 2.0) for _ in range(4)]}, 1),
        ("quadratic", {"kind": "quadratic",
                       **{k: [u(-2.0, 2.0) for _ in range(4)] for k in "pqr"}}, 1),
        ("exponential", {"kind": "exponential",
                         **{k: [u(-2.0, 2.0) for _ in range(4)] for k in "qr"}}, 1),
    ]


def random_oracle(rng, size):
    jobs = [
        Job("oracle", ["oracle-compare", "--kind", kind, "--points",
                       str(size["oracle_points"]), "--seed", _seed(rng)],
            expect={"points": size["oracle_points"]})
        for kind in ("translation", "separable")
        for _ in range(size["oracle_jobs"])
    ]
    files = {}
    for i, (name, params, code) in enumerate(_ansatz_cases(rng)):
        path = f"ansatz_{i:02d}_{name}.json"
        files[path] = json.dumps(params, sort_keys=True) + "\n"
        jobs.append(Job("ansatz", ["ansatz", "--params-file", path],
                        expect={"exit": code}))
    return jobs, files


WORKLOADS = {
    "catalogue": catalogue,
    "quadrature": quadrature,
    "profile-ode": profile_ode,
    "random-oracle": random_oracle,
}


def build(workload: str, seed: int, size: str = "full"):
    """(jobs, input files) of a workload; the same seed gives the same lists."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, SIZES[size])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _fields(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _float(fields: dict, key: str) -> float:
    try:
        return float(fields[key])
    except (KeyError, ValueError):
        return math.nan


def _report_rows(stdout: str) -> list:
    """The pass column of every per-point report row."""
    rows = []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 5 and parts[0].isdigit() and parts[4] in ("yes", "NO"):
            rows.append(parts[4])
    return rows


def _all_finite(lines, skip: int = 0) -> bool:
    try:
        return all(math.isfinite(float(v)) for ln in lines for v in ln.split()[skip:])
    except ValueError:
        return False


def _check_report(job, code, stdout, out: Outcome, count_points: bool):
    rows = _report_rows(stdout)
    fields = _fields(stdout)
    status = fields.get("status")
    out.points += len(rows)
    if count_points:
        out.ops += len(rows)
        out.failed += rows.count("NO")
    consistent = (
        len(rows) == job.expect["points"]
        and status == ("PASS" if "NO" not in rows else "FAIL")
        and code == (0 if status == "PASS" else 1)
    )
    return rows, fields, consistent


def _check_verify(job, code, stdout, files, out):
    _, fields, consistent = _check_report(job, code, stdout, out, True)
    max_h, tol = _float(fields, "max_abs_h"), _float(fields, "tol")
    out.check(consistent and max_h <= tol,
              f"verify report inconsistent or max_abs_h {max_h} > tol {tol}")


def _check_perturb(job, code, stdout, files, out):
    _, _, consistent = _check_report(job, code, stdout, out, False)
    out.check(consistent and code == 1, f"--perturb job exited {code}, expected 1")


def _check_oracle(job, code, stdout, files, out):
    _, _, consistent = _check_report(job, code, stdout, out, True)
    out.check(consistent, f"oracle-compare report inconsistent (exit {code})")


def _check_ode(job, code, stdout, files, out):
    fields = _fields(stdout)
    try:
        samples = int(fields["samples"])
    except (KeyError, ValueError):
        samples = 0
    csv = files.get(job.outputs[0], b"").decode().splitlines()
    ok = (
        code == 0 and samples >= 2 and len(csv) == samples + 1
        and _all_finite([ln.replace(",", " ") for ln in csv[1:]])
        and math.isfinite(_float(fields, "ode residual (5-point audit)"))
    )
    out.samples += samples
    out.check(ok, f"ode profile: exit {code}, {samples} samples, {len(csv)} csv lines")


def _assembly(job, code, stdout):
    fields = _fields(stdout)
    step = job.expect["step"]
    samples = 0
    for key, value in fields.items():
        if key.startswith("profile ") and value.startswith("domain ["):
            lo, hi = (float(v) for v in value[len("domain ["):-1].split(","))
            samples += round((hi - lo) / step) + 1
    return fields, samples


def _check_ode_minimal(job, code, stdout, files, out):
    fields, samples = _assembly(job, code, stdout)
    res = _float(fields, "grid residual max |.|")
    out.samples += samples
    out.check(code == 0 and res <= N2_RESIDUAL_BOUND,
              f"ode --n 2: exit {code}, residual max {res} > {N2_RESIDUAL_BOUND}")


def _check_ode_obstructed(job, code, stdout, files, out):
    fields, samples = _assembly(job, code, stdout)
    res = _float(fields, "grid residual min |.|")
    out.samples += samples
    out.check(code == 0 and res > N3_RESIDUAL_FLOOR,
              f"ode --n 3: exit {code}, residual min {res} <= {N3_RESIDUAL_FLOOR}")


def _check_mesh(job, code, stdout, files, out):
    name = job.outputs[0]
    lines = files.get(name, b"").decode().splitlines()
    grid, dim = job.expect["grid"], job.expect["dim"]
    if name.endswith(".csv"):
        # one row per node: dim zero-sum parameters, then dim coordinates
        rows = [ln.replace(",", " ") for ln in lines[1:]]
        written = len(rows)
        ok = (written == job.expect["nodes"]
              and all(len(r.split()) == 2 * dim for r in rows) and _all_finite(rows))
        word = "points"
    else:
        verts = [ln for ln in lines if ln.startswith("v ")]
        faces = [ln for ln in lines if ln.startswith("f ")]
        written = len(verts)
        ok = (written == grid * grid and len(faces) == 2 * (grid - 1) ** 2
              and all(len(v.split()) == 4 for v in verts) and _all_finite(verts, 1))
        word = "vertices"
    ok = ok and code == 0 and f"wrote {written} {word} to {name}" in stdout
    out.nodes += job.expect["nodes"]
    out.check(ok, f"mesh {name}: exit {code}, {written} {word} or non-finite data")


def _check_ansatz(job, code, stdout, files, out):
    want = job.expect["exit"]
    said = "yes" if want == 0 else "no"
    out.check(code == want and f"identity satisfied: {said}" in stdout,
              f"ansatz {job.argv[-1]}: exit {code}, expected {want}")


CHECKS = {
    "verify": _check_verify,
    "perturb": _check_perturb,
    "oracle": _check_oracle,
    "ode": _check_ode,
    "ode_minimal": _check_ode_minimal,
    "ode_obstructed": _check_ode_obstructed,
    "mesh": _check_mesh,
    "ansatz": _check_ansatz,
}


def check(job: Job, code, stdout: str, files: dict) -> Outcome:
    """Counted operations of one job from its exit code, stdout and files."""
    out = Outcome()
    if code is None:  # the job raised instead of returning an exit code
        out.check(False, f"{' '.join(job.argv)} raised an exception")
        return out
    CHECKS[job.kind](job, code, stdout, files, out)
    return out
