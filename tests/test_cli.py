import json
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from minmin import cli, curvature
from minmin.cli import EXAMPLE_IDS, build_parser, main
from minmin.curvature import (
    CurvatureReport,
    report_separable,
    report_separable_batch,
)
from minmin.errors import MinminError
from minmin.reporting import VerificationReport
from minmin.sampling import counter_rng
from minmin.separable import example_surface


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code, stdout, _ = run(
        ["verify", "--example", "6.2", "--m", "1", "--r", "2",
         "--points", "20", "--seed", "11", "--out", str(out)], capsys,
    )
    assert code == 0
    assert "status: PASS" in stdout
    assert out.exists()
    text = out.read_text()
    assert "seed: 11" in text
    assert "example: 6.2" in text


def test_verify_64_r3_m2(capsys):
    code, stdout, _ = run(
        ["verify", "--example", "6.4", "--m", "2", "--r", "3",
         "--points", "10", "--seed", "4"], capsys,
    )
    assert code == 0
    assert "status: PASS" in stdout


def test_verify_perturbed_fails(capsys):
    code, stdout, _ = run(
        ["verify", "--example", "6.4", "--m", "1", "--r", "2", "--points", "10",
         "--seed", "11", "--perturb", "1.1"], capsys,
    )
    assert code == 1
    assert "status: FAIL" in stdout


def test_verify_unknown_example(capsys):
    code, _, err = run(["verify", "--example", "9.9"], capsys)
    assert code == 2
    assert "unknown example" in err


def test_verify_deterministic_reports(tmp_path, capsys):
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        code, _, _ = run(
            ["verify", "--example", "6.6", "--m", "2", "--points", "15",
             "--seed", "99", "--out", str(out)], capsys,
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_rows_independent_of_batch():
    # a point's report row has the same bits in a batch of 12 and alone
    surface = example_surface("6.2", 2, 2)
    points = surface.sample(counter_rng(5), 12)
    batch = report_separable_batch(surface.fs, points, surface.p)
    alone = [report_separable(surface.fs, x, surface.p) for x in points]
    for a, b in zip(batch, alone):
        assert (a.h_analytic, a.h_oracle, a.tangency_defect) == (
            b.h_analytic, b.h_oracle, b.tangency_defect)

    def rows(reports):
        text = VerificationReport("verify", {}, reports, h_tol=1e-8).render()
        return text[text.index("index"):]

    # the single-point reports as one stack of their comparison columns
    stacked = CurvatureReport(
        **{k: np.array([getattr(b, k) for b in alone])
           for k in ("h_analytic", "h_oracle", "tangency_defect")},
        tol=batch.tol,
    )
    assert rows(batch) == rows(stacked)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_default_verify_passes_on_every_example(example, m, capsys):
    # default seed and tolerances: the tangent-plane oracle leaves no point failing
    code, stdout, _ = run(["verify", "--example", example, "--m", str(m),
                           "--points", "300"], capsys)
    assert code == 0, stdout[stdout.index("aggregate"):]


@pytest.mark.parametrize("argv", [
    ["--example", "6.4", "--m", "10"],
    ["--example", "6.3", "--m", "12"],
    ["--example", "6.1", "--m", "25"],
    ["--example", "6.2", "--m", "25"],
    ["--example", "6.4", "--r", "3", "--m", "20"],
])
def test_verify_passes_where_the_terms_of_the_sum_exceed_one(argv, capsys):
    # the terms a_i x_i^(2m) reach 1e3 and more: the sampler's roots carry
    # about 2m eps of their size, which an absolute 1e-6 on the sum refused
    code, stdout, err = run(["verify", "--points", "300"] + argv, capsys)
    assert code == 0 and err == "", err
    assert "status: PASS" in stdout


def test_verify_passes_where_every_slope_is_tiny(capsys):
    # i-2 at m = 3, seed 12: points 73 and 221 have every slope near 1e-6
    code, stdout, _ = run(["verify", "--example", "i-2", "--m", "3", "--seed", "12",
                           "--points", "300"], capsys)
    assert code == 0, stdout[stdout.index("aggregate"):]
    assert float(stdout.split("max_oracle_dev: ")[1].split()[0]) <= 1e-9


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_oracle_meets_the_closed_form_on_every_seed(example, m):
    surface = example_surface(example, m)
    for seed in (3, 7, 12, 201):
        for i, rep in enumerate(surface.report_sample(counter_rng(seed), 300)):
            H = rep.h_analytic
            assert abs(rep.h_oracle - H) <= 1e-9 * (1 + abs(H)), (seed, i)


def test_verify_csv_sidecar(tmp_path, capsys):
    out = tmp_path / "r.txt"
    csv = tmp_path / "r.csv"
    code, _, _ = run(
        ["verify", "--example", "6.1", "--m", "1", "--points", "5",
         "--seed", "3", "--out", str(out), "--csv", str(csv)], capsys,
    )
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "index,h_analytic,h_oracle,tangency_defect,passed,reason"
    assert len(lines) == 6
    assert all(line.endswith(",1,-") for line in lines[1:])


def test_verify_csv_names_why_a_point_failed(tmp_path, capsys):
    csv = tmp_path / "r.csv"
    code, stdout, _ = run(
        ["verify", "--example", "6.4", "--m", "1", "--r", "2", "--points", "10",
         "--seed", "11", "--perturb", "1.1", "--csv", str(csv)], capsys,
    )
    assert code == 1
    rows = [line.split(",") for line in csv.read_text().strip().splitlines()[1:]]
    failed = [r for r in rows if r[4] == "0"]
    assert failed and all(r[5] == "h" for r in failed)
    assert all(r[5] == "-" for r in rows if r[4] == "1")
    # the report rows on stdout keep their five fields
    table = stdout.split("pass\n")[1].split("\n\n")[0].splitlines()
    assert len(table) == 10 and all(len(line.split()) == 5 for line in table)


def test_ode_single_profile_csv(tmp_path, capsys):
    out = tmp_path / "ode.csv"
    code, stdout, _ = run(
        ["ode", "--m", "1", "--k", "1", "--c0", "2.0",
         "--y0", str(float(np.tan(0.1))), "--u0", "0.1",
         "--step", "1e-3", "--max-steps", "900", "--out", str(out)], capsys,
    )
    assert code == 0
    assert "profile ODE" in stdout
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    u, y = data[:, 0], data[:, 2]
    sel = np.abs(np.tan(u)) <= 10
    assert np.max(np.abs(y[sel] - np.tan(u[sel]))) <= 1e-6


def test_ode_zero_constant(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code, stdout, _ = run(
        ["ode", "--m", "2", "--c0", "0.0", "--y0", "0.7", "--max-steps", "50",
         "--out", str(out)], capsys,
    )
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 2], 0.7)
    assert np.allclose(data[:, 3], 0.0)


def test_ode_assembly_obstruction(capsys):
    code, stdout, _ = run(
        ["ode", "--m", "2", "--n", "3", "--c0", "1.0", "--max-steps", "300",
         "--step", "2e-3", "--grid", "5"], capsys,
    )
    assert code == 0
    line = [ln for ln in stdout.splitlines() if "residual min" in ln][0]
    assert float(line.split(":")[1]) > 1e-3


def test_ode_assembly_n2_minimal(capsys):
    code, stdout, _ = run(
        ["ode", "--m", "2", "--n", "2", "--c0", "1.0", "--max-steps", "400",
         "--grid", "8"], capsys,
    )
    assert code == 0
    line = [ln for ln in stdout.splitlines() if "residual max" in ln][0]
    assert float(line.split(":")[1]) <= 1e-7


def test_ode_audit_that_never_ran_prints_no_number(capsys):
    code, stdout, _ = run(["ode", "--max-steps", "1"], capsys)
    assert code == 0
    assert "samples: 3\n" in stdout
    assert ("ode residual (5-point audit): not run, 3 samples are fewer than "
            "the stencil's 5\n") in stdout
    code, stdout, _ = run(["ode", "--max-steps", "2"], capsys)
    line = [ln for ln in stdout.splitlines() if ln.startswith("ode residual")][0]
    assert 0.0 < float(line.split(":")[1]) <= 1e-10


def test_ode_prints_stop_reasons(capsys):
    code, stdout, _ = run(
        ["ode", "--m", "1", "--k", "1", "--c0", "2.0", "--y0", "1.0",
         "--max-steps", "2000"], capsys,
    )
    assert code == 0
    assert stdout.splitlines()[-1] == "stop: backward sign_change, forward step_doubling"
    code, stdout, _ = run(
        ["ode", "--m", "2", "--n", "3", "--c0", "1.0", "--max-steps", "30",
         "--grid", "3"], capsys,
    )
    assert code == 0
    lines = stdout.splitlines()
    for i in (1, 2, 3):
        assert f"profile {i} stop: backward max_steps, forward max_steps" in lines
    # "profile N: " lines carry the domain alone, as scripts parse them
    tagged = [ln for ln in lines if ln.startswith("profile ") and ln[8].isdigit()
              and ln[9:11] == ": "]
    assert len(tagged) == 3 and all(ln[11:].startswith("domain [") for ln in tagged)


def test_ode_k_n_conflict(capsys):
    code, _, err = run(["ode", "--n", "3", "--k", "1"], capsys)
    assert code == 2
    assert "conflicts" in err


def test_ansatz_affine_examples(tmp_path, capsys):
    f = tmp_path / "a.json"
    f.write_text(json.dumps({"kind": "affine", "p": [1, 1, 1, 1],
                             "q": [1, -1, -1, 1]}))
    code, stdout, _ = run(["ansatz", "--params-file", str(f)], capsys)
    assert code == 0
    assert "identity satisfied: yes" in stdout

    f2 = tmp_path / "a63.json"
    f2.write_text(json.dumps({"kind": "affine", "p": [1, 1, 3, 3, 1],
                              "q": [1, 1, -2, -2, 1]}))
    code, stdout, _ = run(["ansatz", "--params-file", str(f2)], capsys)
    assert code == 0


def test_ansatz_exponential_status(tmp_path, capsys):
    f = tmp_path / "e.json"
    f.write_text(json.dumps({"kind": "exponential", "q": [1, 1, 1, 1],
                             "r": [1, 1, 1, 1]}))
    code, _, _ = run(["ansatz", "--params-file", str(f)], capsys)
    assert code == 0
    f2 = tmp_path / "e2.json"
    f2.write_text(json.dumps({"kind": "exponential", "q": [1, 1, 1, 1],
                              "r": [0, 0, 0, 0]}))
    code, stdout, _ = run(["ansatz", "--params-file", str(f2)], capsys)
    assert code == 1
    assert "identity satisfied: no" in stdout


def test_ansatz_quadratic(tmp_path, capsys):
    f = tmp_path / "q.json"
    f.write_text(json.dumps({"kind": "quadratic", "p": [1, 1, 1, 1],
                             "q": [1, -1, -1, 1], "r": [0, 0, 0, 0]}))
    code, stdout, _ = run(["ansatz", "--params-file", str(f)], capsys)
    assert code == 0
    assert "u1*u2*u3" in stdout


def test_ansatz_parse_error_has_line_number(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"kind": "affine",\n "p": [1, 1, 1, 1\n')
    code, _, err = run(["ansatz", "--params-file", str(f)], capsys)
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize("command", ("ansatz", "mesh"))
@pytest.mark.parametrize("text, message", (
    pytest.param("[1, 2]", "expected a JSON object", id="list"),
    pytest.param('{"kind": "affine", "p": ["a", 1, 1, 1], "q": [1, -1, -1, 1]}',
                 "'p' must be a list of numbers", id="string-in-p"),
    pytest.param('{"kind": "affine", "q": [1, -1, -1, 1]}', "missing parameter 'p'",
                 id="missing-p"),
))
def test_malformed_params_file_exits_2(command, text, message, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(text)
    argv = [command, "--params-file", str(f)]
    if command == "mesh":
        argv += ["--out", str(tmp_path / "never.obj")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert message in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "never.obj").exists()


# JSON allows NaN and Infinity; an ansatz of them once printed "identity
# satisfied: yes", as the drop rule abs(v) > 1e-13 * scale drops a NaN term
# and every term under an infinite scale
_NON_FINITE_PARAMS = (
    pytest.param('{"kind": "affine", "p": [NaN, 1, 1, 1], "q": [1, -1, -1, 1]}',
                 "'p' must hold finite numbers only", id="nan-p"),
    pytest.param('{"kind": "affine", "p": [1, 1, 1, 1], "q": [1, -Infinity, -1, 1]}',
                 "'q' must hold finite numbers only", id="inf-q"),
    pytest.param('{"kind": "exponential", "q": [1, NaN, 1, 1], "r": [1, 1, 1, 1]}',
                 "'q' must hold finite numbers only", id="nan-exponential-q"),
    pytest.param('{"kind": "affine", "p": [1e400, 1, 1, 1], "q": [1, -1, -1, 1]}',
                 "'p' must hold finite numbers only", id="overflowing-literal"),
    pytest.param('{"kind": "affine", "p": [1%s, 1, 1, 1], "q": [1, -1, -1, 1]}'
                 % ("0" * 400), "'p' must hold finite numbers only",
                 id="integer-too-large-for-a-float"),
)


@pytest.mark.parametrize("text, message", _NON_FINITE_PARAMS + (
    pytest.param('{"kind": "affine", "p": [1e308, 1, 1, 1], "q": [1, -1, -1, 1]}',
                 "must be finite", id="scale-overflows"),
    # fewer than three profiles: an empty list once ended in a traceback
    pytest.param('{"kind": "affine", "p": [], "q": []}', "needs n >= 2", id="empty"),
    pytest.param('{"kind": "affine", "p": [1], "q": [1]}', "needs n >= 2", id="one"),
    pytest.param('{"kind": "affine", "p": [1, 1], "q": [1, -1]}', "needs n >= 2",
                 id="two"),
))
def test_ansatz_refuses_non_finite_or_short_parameters(text, message, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(text)
    code, stdout, err = run(["ansatz", "--params-file", str(f)], capsys)
    assert code == 2
    assert stdout == ""
    assert message in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("text, message", _NON_FINITE_PARAMS)
def test_mesh_refuses_non_finite_parameters(text, message, tmp_path, capsys):
    # a NaN once gave an "empty admissible domain" and exit 0
    f = tmp_path / "bad.json"
    f.write_text(text)
    out = tmp_path / "never.obj"
    code, stdout, err = run(["mesh", "--params-file", str(f), "--out", str(out)],
                            capsys)
    assert code == 2
    assert stdout == ""
    assert message in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_mesh_help_lists_the_ids_it_accepts(tmp_path, capsys):
    code = main(["mesh", "--help"])
    listed = capsys.readouterr().out
    assert code == 0
    accepted = []
    for example in EXAMPLE_IDS:
        out = tmp_path / f"{example}.csv"
        argv = ["mesh", "--example", example, "--grid", "3", "--out", str(out)]
        code, _, _ = run(argv, capsys)
        assert code in (0, 2)
        if code == 0:
            accepted.append(example)
    assert accepted == ["6.1", "6.3", "6.5", "6.6"]
    assert f"one of {tuple(accepted)}" in " ".join(listed.split())


@pytest.mark.parametrize("text, message", (
    pytest.param('{"kind": "affine", "p": [1, 1, 1, 1], "q": [1, -1, -1]}',
                 "'p' and 'q' differ in length (4 and 3)", id="short-q"),
    pytest.param('{"kind": "exponential", "q": [1, 0, 1], "r": [0, 1, 0, 1]}',
                 "'q' and 'r' differ in length (3 and 4)", id="short-q-exp"),
    pytest.param('{"kind": "affine", "p": [1, 1, 1, 1], "q": [1, -1, -1, 1],'
                 ' "signs": [2, 0, 1, 1]}', "signs must be +1 or -1", id="signs"),
    # the signs are checked before the admissible domain, which is empty here
    pytest.param('{"kind": "affine", "p": [0.5, 0.25, 0.25, -1], "q": [1, 1, 1, 1],'
                 ' "signs": [2, 0, 1, 1]}', "signs must be +1 or -1",
                 id="signs-empty-domain"),
    pytest.param('{"kind": "affine", "p": [0.5, 0.25, 0.25, -1], "q": [1, 1, 1, 1],'
                 ' "signs": [1, 1]}', "need 4 profiles and signs",
                 id="short-signs-empty-domain"),
))
def test_mesh_refuses_inconsistent_params_file(text, message, tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text(text)
    out = tmp_path / "never.csv"
    code, _, err = run(["mesh", "--params-file", str(f), "--m", "1", "--grid", "4",
                        "--out", str(out)], capsys)
    assert code == 2
    assert message in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_mesh_translation_obj(tmp_path, capsys):
    out = tmp_path / "scherk.obj"
    code, stdout, _ = run(
        ["mesh", "--kind", "translation", "--m", "1", "--c0", "2.0",
         "--grid", "50", "--max-steps", "900", "--out", str(out)], capsys,
    )
    assert code == 0
    text = out.read_text().splitlines()
    n_v = sum(1 for ln in text if ln.startswith("v "))
    n_f = sum(1 for ln in text if ln.startswith("f "))
    assert n_v == 2500
    assert n_f == 2 * 49 * 49


def test_mesh_patch_csv_satisfies_relation(tmp_path, capsys):
    out = tmp_path / "p61.csv"
    code, _, _ = run(
        ["mesh", "--kind", "patch", "--example", "6.1", "--m", "1",
         "--grid", "6", "--out", str(out)], capsys,
    )
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    x = data[:, 4:]
    rel = x[:, 0] ** 2 - x[:, 1] ** 2 - x[:, 2] ** 2 + x[:, 3] ** 2
    assert np.max(np.abs(rel)) <= 1e-6


def test_mesh_patch_obj_with_slice(tmp_path, capsys):
    out = tmp_path / "p61.obj"
    code, stdout, _ = run(
        ["mesh", "--kind", "patch", "--example", "6.1", "--m", "1",
         "--grid", "5", "--slice", "0,2", "--project", "0,1,3",
         "--out", str(out)], capsys,
    )
    assert code == 0
    n_v = sum(1 for ln in out.read_text().splitlines() if ln.startswith("v "))
    assert n_v == 25


def test_mesh_empty_domain_diagnostic(tmp_path, capsys):
    f = tmp_path / "i1.json"
    f.write_text(json.dumps({"kind": "affine", "p": [0.5, 0.25, 0.25, -1.0],
                             "q": [1, 1, 1, 1]}))
    out = tmp_path / "never.csv"
    code, stdout, _ = run(
        ["mesh", "--kind", "patch", "--params-file", str(f), "--m", "1",
         "--out", str(out)], capsys,
    )
    assert code == 0
    assert "empty admissible domain" in stdout
    assert not out.exists()


def test_oracle_compare_pass(tmp_path, capsys):
    out = tmp_path / "oc.txt"
    code, stdout, _ = run(
        ["oracle-compare", "--kind", "both", "--points", "15", "--seed", "2",
         "--out", str(out)], capsys,
    )
    assert code == 0
    assert "status: PASS" in stdout
    assert out.exists()


def test_oracle_compare_deterministic(tmp_path, capsys):
    blobs = []
    for name in ("x.txt", "y.txt"):
        out = tmp_path / name
        code, _, _ = run(
            ["oracle-compare", "--points", "10", "--seed", "42",
             "--out", str(out)], capsys,
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_minmin_log_env(tmp_path):
    import os
    import subprocess
    import sys

    env = dict(os.environ, MINMIN_LOG="info")
    out = tmp_path / "r.txt"
    proc = subprocess.run(
        [sys.executable, "-m", "minmin.cli", "verify", "--example", "6.2",
         "--m", "1", "--points", "3", "--seed", "1", "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "wall time" in proc.stderr  # info-level log line


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "6.2", "--m", "2", "--points", "6", "--seed", "3"],
    ["oracle-compare", "--points", "4", "--seed", "3"],
])
def test_stage_log_keeps_reports_byte_identical(tmp_path, argv):
    runs = {}
    for level in (None, "info", "debug"):
        env = {k: v for k, v in os.environ.items() if k != "MINMIN_LOG"}
        if level:
            env["MINMIN_LOG"] = level
        out = tmp_path / f"{level}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "minmin.cli", *argv, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        runs[level] = (proc.stdout, out.read_bytes(), proc.stderr)
    assert runs[None][:2] == runs["info"][:2] == runs["debug"][:2]
    assert runs[None][2] == ""
    for stage in ("sample", "analytic", "oracle", "render"):
        assert f"{argv[0]} stage {stage}: cpu " in runs["info"][2]
    assert "sampler slices" not in runs["info"][2]
    assert "oracle slope evaluations" not in runs["info"][2]
    assert f"{argv[0]} oracle slope evaluations: " in runs["debug"][2]
    if argv[0] == "verify":
        for counter in ("sampler slices drawn", "sampler slices rejected"):
            assert f"verify {counter}: " in runs["debug"][2]
        # the oracle moves two coordinates per parameter, by +h and by -h:
        # 4n slopes at each of the 6 points of the n = 3 surface
        assert "verify oracle slope evaluations: 72\n" in runs["debug"][2]
    else:
        # one report batch per (kind, n) drawn, whatever the m of its rows:
        # the 4 translations have (m, n) = (3, 3), (3, 3), (1, 3), (1, 4), and
        # so do the 4 separables
        assert "batches" not in runs["info"][2]
        assert "oracle-compare batches: 4\n" in runs["debug"][2]


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "6.2", "--m", "2", "--points", "6", "--seed", "3"],
    ["oracle-compare", "--points", "4", "--seed", "3"],
])
def test_wall_time_is_read_after_the_report_is_written(argv, monkeypatch, capsys):
    # a slow render shows in the wall time, which covers every stage
    real = VerificationReport.render

    def slow_render(self):
        time.sleep(0.05)
        return real(self)

    monkeypatch.setattr(VerificationReport, "render", slow_render)
    monkeypatch.setenv("MINMIN_LOG", "info")
    assert main(argv) == 0
    err = capsys.readouterr().err
    stages = dict(re.findall(rf"{argv[0]} stage (\w+): cpu \S+ wall ([0-9.]+)s", err))
    assert set(stages) == {"sample", "analytic", "oracle", "render"}
    wall = float(re.search(rf"{argv[0]} wall time ([0-9.]+)s", err).group(1))
    assert wall >= max(float(t) for t in stages.values())
    assert float(stages["render"]) >= 0.05


@pytest.mark.parametrize("argv,stages", [
    (["ode", "--m", "2", "--k", "2", "--c0", "0.3", "--y0", "0.5",
      "--max-steps", "200", "--out", "profile.csv"], ("integrate", "write")),
    (["ode", "--m", "3", "--n", "2", "--c0", "0.4", "--y0", "0.5",
      "--max-steps", "100", "--grid", "4", "--out", "assembly.csv"],
     ("integrate", "grid", "write")),
    (["mesh", "--kind", "translation", "--m", "2", "--c0", "0.4", "--y0", "0.5",
      "--max-steps", "100", "--grid", "5", "--out", "mesh.obj"],
     ("integrate", "grid", "write")),
])
def test_ode_stage_log_keeps_output_byte_identical(tmp_path, argv, stages):
    runs = {}
    for level in (None, "info", "debug"):
        env = {k: v for k, v in os.environ.items() if k != "MINMIN_LOG"}
        if level:
            env["MINMIN_LOG"] = level
        where = tmp_path / str(level)
        where.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "minmin.cli", *argv[:-1], str(where / argv[-1])],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        files = {p.name: p.read_bytes() for p in sorted(where.iterdir())}
        assert files
        runs[level] = (proc.stdout.replace(str(where), ""), files, proc.stderr)
    assert runs[None][:2] == runs["info"][:2] == runs["debug"][:2]
    assert runs[None][2] == ""
    for stage in stages:
        assert f"{argv[0]} stage {stage}: cpu " in runs["info"][2]
    assert "RK4" not in runs["info"][2]
    assert f"{argv[0]} accepted RK4 steps: " in runs["debug"][2]
    assert f"{argv[0]} RK4 rhs evaluations: " in runs["debug"][2]


# the command in a fresh process: whether numpy.random was loaded after
# importing minmin.cli and after the command ran, and its exit code
_FRESH = ("import sys, minmin.cli\n"
          "loaded = 'numpy.random' in sys.modules\n"
          "code = minmin.cli.main(sys.argv[1:])\n"
          "print(loaded, 'numpy.random' in sys.modules, code)")


@pytest.mark.parametrize("argv", [
    ["ode", "--m", "2", "--max-steps", "50", "--out", "p.csv"],
    ["ode", "--n", "3", "--max-steps", "50", "--grid", "3"],
    ["mesh", "--kind", "translation", "--max-steps", "50", "--grid", "3", "--out", "t.obj"],
    ["ansatz", "--params-file", "affine.json"],
])
def test_commands_that_draw_nothing_leave_numpy_random_unloaded(tmp_path, argv):
    (tmp_path / "affine.json").write_text(
        '{"kind": "affine", "p": [1, 1, 1, 1], "q": [1, -1, -1, 1]}')
    argv = [str(tmp_path / a) if a.endswith((".csv", ".obj", ".json")) else a
            for a in argv]
    proc = subprocess.run([sys.executable, "-c", _FRESH, *argv],
                          capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "False False 0", proc.stderr


def test_verify_in_a_fresh_process_draws_the_same_points(tmp_path, capsys):
    # verify loads numpy.random when it draws, and its points are those of a
    # process that had it loaded before
    argv = ["verify", "--example", "6.5", "--m", "2", "--points", "7", "--seed", "3",
            "--csv"]
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, *argv, str(tmp_path / "fresh.csv")],
        capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "False True 0", proc.stderr
    assert run(argv + [str(tmp_path / "here.csv")], capsys)[0] == 0
    assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()


@pytest.mark.parametrize("out", ["patch.obj", "patch.csv"])
def test_patch_mesh_logs_its_stages(tmp_path, monkeypatch, capsys, out):
    # MINMIN_LOG=info adds the grid and write stages to stderr and changes
    # neither stdout nor the file
    argv = ["mesh", "--example", "6.5", "--m", "2", "--grid", "6", "--out"]
    runs = {}
    for level in ("warning", "info"):
        monkeypatch.setenv("MINMIN_LOG", level)
        path = tmp_path / level / out
        path.parent.mkdir()
        code, stdout, err = run(argv + [str(path)], capsys)
        assert code == 0
        runs[level] = (stdout.replace(str(path), ""), path.read_bytes(), err)
    assert runs["warning"][:2] == runs["info"][:2] and runs["warning"][2] == ""
    stages = re.findall(r"^minmin INFO: mesh stage (\w+): cpu \S+ wall \S+$",
                        runs["info"][2], re.M)
    assert stages == ["grid", "write"]


def test_second_main_call_honours_changed_minmin_log(monkeypatch, capsys):
    argv = ["ode", "--m", "1", "--c0", "0.5", "--y0", "0.5", "--max-steps", "20"]
    monkeypatch.delenv("MINMIN_LOG", raising=False)
    code, first, err = run(argv, capsys)
    assert code == 0 and err == ""
    monkeypatch.setenv("MINMIN_LOG", "info")
    code, second, err = run(argv, capsys)
    assert code == 0 and second == first
    assert "minmin INFO: ode stage integrate: cpu " in err
    assert err.count("ode stage integrate") == 1  # one handler, however many calls
    monkeypatch.delenv("MINMIN_LOG")
    code, _, err = run(argv, capsys)
    assert code == 0 and err == ""
    # main() sets the level only when MINMIN_LOG names another one, so the
    # loggers' isEnabledFor caches, which setLevel empties, must still follow
    # each change; an unknown name means warning
    set_levels = []
    real = cli.log.setLevel

    def set_level(level):
        set_levels.append(level)
        real(level)

    monkeypatch.setattr(cli.log, "setLevel", set_level)
    for level in ("debug", None, "debug", "debug", "nope", None, "info", "info"):
        if level is None:
            monkeypatch.delenv("MINMIN_LOG")
        else:
            monkeypatch.setenv("MINMIN_LOG", level)
        code, out, err = run(argv, capsys)
        assert code == 0 and out == first
        assert err.count("ode stage integrate") == (level in ("debug", "info"))
        assert ("minmin DEBUG: ode accepted RK4 steps: " in err) == (level == "debug")
    assert set_levels == [10, 30, 10, 30, 20]


def test_stage_clocks_are_read_only_where_they_are_logged(monkeypatch, capsys):
    # below info no stage time is printed, so no stage reads a clock
    reads = []
    real = time.process_time

    def process_time():
        reads.append(1)
        return real()

    monkeypatch.setattr(time, "process_time", process_time)
    argv = ["verify", "--example", "6.2", "--points", "5"]
    for level, timed in (("warning", False), ("info", True), ("debug", True)):
        monkeypatch.setenv("MINMIN_LOG", level)
        reads.clear()
        code, _, err = run(argv, capsys)
        assert code == 0 and bool(reads) == timed
        assert ("verify stage sample: cpu " in err) == timed


def test_main_calls_share_one_parser_without_leaking_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    out = tmp_path / "perturbed.txt"
    code, _, _ = run(
        ["verify", "--example", "6.1", "--m", "1", "--points", "3", "--seed", "2",
         "--perturb", "1.1", "--out", str(out)], capsys,
    )
    assert code == 1
    code, stdout, _ = run(
        ["verify", "--example", "6.1", "--m", "1", "--points", "3", "--seed", "2"],
        capsys,
    )
    assert code == 0
    assert "perturb: none" in stdout and "status: PASS" in stdout
    code, stdout, _ = run(["oracle-compare", "--points", "2", "--seed", "2"], capsys)
    assert code == 0 and "example" not in stdout
    assert out.read_text().count("status: FAIL") == 1


def _parse_args_then_run(argv, namespaces):
    """main() as it ran before commands were parsed by their own parser: the
    top-level parser's parse_args, then the command.  The reference of
    test_one_parse_route_matches_the_top_level_parser."""
    cli._setup_logging()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return cli.EXIT_CONFIG if exc.code not in (0, None) else 0
    namespaces.append(vars(args))
    try:
        return args.fn(args)
    except MinminError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return cli.EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return cli.EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return cli.EXIT_CONFIG


_VERIFY = ["verify", "--example", "6.1", "--points", "3"]


@pytest.mark.parametrize("argv", [
    # the five commands
    _VERIFY,
    ["ode", "--max-steps", "20"],
    ["ansatz", "--params-file", "affine.json"],
    ["mesh", "--grid", "3", "--out", "p.obj"],
    ["oracle-compare", "--points", "2", "--seed", "3"],
    # --opt=v, abbreviations, negative values, a failing and a refused run
    ["verify", "--example=6.2", "--points=3", "--seed=5"],
    ["verify", "--ex", "6.4", "--poi", "3", "--r", "3"],
    ["verify", "--example", "6.2", "--points", "3", "--perturb", "1.1"],
    ["verify", "--example", "9.9"],
    ["ode", "--c0", "-0.3", "--max-steps", "20"],
    ["ode", "--c0=-0.3", "--y0", "0.5", "--n", "2", "--grid", "3", "--max-steps", "20"],
    ["oracle-compare", "--kind", "translation", "--n", "2", "--points", "2"],
    # help at both levels
    ["-h"], ["--help"], ["verify", "-h"], [*_VERIFY, "--help"], ["mesh", "--he"],
    # usage errors: a missing required option, a bad type, value or choice, an
    # ambiguous abbreviation, an unknown option
    ["verify"], ["mesh", "--grid", "3"],
    ["verify", "--example", "6.1", "--points", "x"],
    ["verify", "--example", "6.1", "--points", "0"],
    ["oracle-compare", "--kind", "cubic"],
    ["verify", "--example", "6.1", "--p", "3"],
    [*_VERIFY, "--bogus", "1"],
    # no command, an unknown one, a leading --, unrecognized trailing arguments
    [], ["nope"], ["-x", "verify"], ["--"], ["--", *_VERIFY],
    [*_VERIFY, "extra"], [*_VERIFY, "extra", "more"], [*_VERIFY, "--", "extra"],
    ["ode", "--max-steps", "20", "--"],
])
def test_one_parse_route_matches_the_top_level_parser(argv, tmp_path, monkeypatch,
                                                      capsys):
    # main() parses a command's arguments with that command's parser only;
    # exit code, stdout, stderr and namespace are those of parse_args
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MINMIN_LOG", raising=False)
    (tmp_path / "affine.json").write_text(
        '{"kind": "affine", "p": [1, 1, 1, 1], "q": [1, -1, -1, 1]}')
    expected = []
    code = _parse_args_then_run(list(argv), expected)
    reference = (code, *capsys.readouterr())
    namespaces = []
    real = cli._parse_args

    def parse_args(args):
        namespace = real(args)
        namespaces.append(vars(namespace))
        return namespace

    monkeypatch.setattr(cli, "_parse_args", parse_args)
    assert run(list(argv), capsys) == reference
    monkeypatch.setattr(sys, "argv", ["minmin", *argv])  # main() reads sys.argv
    assert run(None, capsys) == reference
    assert namespaces == expected * 2


def test_exit_code_config_error(capsys):
    code, _, _ = run(["verify"], capsys)  # missing required --example
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "6.2", "--r", "0"],
    ["verify", "--example", "6.4", "--r", "1"],
    ["verify", "--example", "6.1", "--m", "0"],
    ["verify", "--example", "6.5", "--perturb", "1.1"],
    # a factor that is not positive and finite, refused before the sampler
    # rejects every slice of the block it scales
    ["verify", "--example", "6.2", "--perturb", "nan"],
    ["verify", "--example", "6.2", "--perturb", "inf"],
    ["verify", "--example", "6.2", "--perturb", "0"],
    ["verify", "--example", "6.2", "--perturb=-1"],
    ["verify", "--example", "6.4", "--perturb", "inf"],
])
def test_invalid_example_settings_are_config_errors(argv, capsys):
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert "invalid example settings" in err and "numerical failure" not in err


@pytest.mark.parametrize("argv", [
    ["--example", "6.3", "--m", "600"],
    ["--example", "6.3", "--m", "600", "--perturb", "1.1"],
    ["--example", "6.4", "--r", "2", "--m", "2000"],
    ["--example", "6.4", "--r", "2", "--m", "2000", "--perturb", "1.1"],
])
def test_coefficients_that_overflow_are_config_errors(argv, capsys):
    code, stdout, err = run(["verify", "--points", "5"] + argv, capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("invalid example settings: ") and err.endswith(
        " overflows a float\n") and err.count("\n") == 1


def test_gradient_whose_square_underflows_is_a_numerical_failure(capsys):
    # at m = 50 the slopes of i-2 are so small that |nu0|^2 is 0.0
    code, stdout, err = run(["verify", "--example", "i-2", "--m", "50", "--points", "5"],
                            capsys)
    assert code == 3 and stdout == ""
    assert err == "numerical failure: |nu0|^2 underflows a float to 0 at a base point\n"


@pytest.mark.parametrize("example", ["6.3", "6.4"])
def test_gradient_whose_square_overflows_is_a_numerical_failure(example, capsys):
    # at m = 200 the largest slopes square to more than a float holds: with
    # |nu0|^2 = inf the oracle's defect and normal projection would read 0
    # and pass, so the run stops with one typed line and no numpy warning
    code, stdout, err = run(["verify", "--example", example, "--m", "200",
                             "--points", "300"], capsys)
    assert code == 3 and stdout == ""
    assert err == "numerical failure: |nu0|^2 overflows a float at a base point\n"


@pytest.mark.parametrize("example,m", [("6.3", 400), ("6.3", 500), ("6.4", 400),
                                       ("6.4", 500)])
def test_power_sum_that_overflows_is_a_numerical_failure(example, m, capsys):
    # a sampled slice's terms a_i x_i^(2m) overflow a float, and so would the
    # slopes there: one typed line naming the overflow, exit 3, no numpy warning
    code, stdout, err = run(["verify", "--example", example, "--m", str(m),
                             "--points", "300"], capsys)
    assert code == 3 and stdout == ""
    assert err == ("numerical failure: the power sum sum_i a_i x_i^(2m) of a sampled "
                   f"slice overflows a float at m = {m}\n")


def test_second_derivative_that_overflows_is_a_numerical_failure(capsys):
    # at m = 320 the slices and slopes of 6.3 fit a float and some f'' do not:
    # one typed line naming that overflow, and no numpy warning before it
    code, stdout, err = run(["verify", "--example", "6.3", "--m", "320",
                             "--points", "300"], capsys)
    assert code == 3 and stdout == ""
    assert err == ("numerical failure: a profile's f'' overflows a float at a base "
                   "point\n")


@pytest.mark.parametrize("example,m", [("i-2", 61), ("i-2", 62), ("iii-2", 62)])
def test_slope_power_that_overflows_is_a_numerical_failure(example, m, capsys):
    # the slopes are subnormal, and the closed form's (f')^(-(2m-2)/(2m-1))
    # overflows: one typed line and exit 3, no numpy warning (which the test
    # configuration turns into an error) and no inf in a sum
    code, stdout, err = run(["verify", "--example", example, "--m", str(m),
                             "--points", "300"], capsys)
    assert code == 3 and stdout == ""
    assert err == ("numerical failure: separable mean curvature: the power "
                   "(f')^(-(2m-2)/(2m-1)) of a profile slope overflows a float\n")


@pytest.mark.parametrize("argv, label", [
    (["verify", "--example", "6.4", "--m", "2", "--points", "40", "--seed", "3"],
     "verify"),
    (["verify", "--example", "6.5", "--m", "2", "--points", "40", "--seed", "3"],
     "verify"),
    (["oracle-compare", "--points", "30", "--seed", "3"], "oracle-compare"),
])
def test_debug_log_names_the_smallest_slope_ratio(argv, label, monkeypatch, capsys):
    # how well conditioned the charts were: min_i |f_i'| / max_i |f_i'| over
    # every charted point, at debug only, and the report unchanged
    seen = []
    real = curvature.SeparableChart.slope_ratio

    def slope_ratio(self):
        size = np.abs(self.nu0)
        seen.extend((size.min(axis=-1) / size.max(axis=-1)).tolist())
        return real(self)

    monkeypatch.setattr(curvature.SeparableChart, "slope_ratio", slope_ratio)
    monkeypatch.delenv("MINMIN_LOG", raising=False)
    quiet = run(argv, capsys)
    monkeypatch.setenv("MINMIN_LOG", "info")
    run(argv, capsys)
    assert seen == []  # below debug no line prints the ratio, and none is computed
    monkeypatch.setenv("MINMIN_LOG", "debug")
    code, stdout, err = run(argv, capsys)
    assert (code, stdout) == quiet[:2] and quiet[2] == ""
    points = 2 * 30 if label == "oracle-compare" else 40
    assert len(seen) == points
    line = f"{label} smallest slope ratio min|f'|/max|f'|: {min(seen):.3e}\n"
    assert line in err


@pytest.mark.parametrize("example", ["i-2", "iii-2"])
def test_coefficients_that_underflow_are_config_errors(example, capsys):
    # (q/(2m))^(2m) / q is 0.0 from m = 76
    code, stdout, err = run(["verify", "--example", example, "--m", "76",
                             "--points", "5"], capsys)
    assert code == 2 and stdout == ""
    assert err == (f"invalid example settings: a coefficient of {example} is 0: "
                   "its power underflows a float\n")


@pytest.mark.parametrize("name, argv", [
    ("patch_from_xprofiles", ["mesh", "--example", "6.5", "--grid", "3", "--out", "p.csv"]),
    ("residual_grid", ["ode", "--n", "4", "--grid", "3"]),
    ("patch_slice", ["mesh", "--example", "6.5", "--grid", "3", "--out", "p.obj"]),
])
def test_running_out_of_memory_is_a_config_error(name, argv, tmp_path, monkeypatch,
                                                 capsys):
    # stands in for numpy refusing a grid too large for memory; no test asks
    # for a real allocation of that size
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 58.2 TiB for an array")

    monkeypatch.setattr(cli, name, refuse)
    monkeypatch.chdir(tmp_path)
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err == "out of memory: Unable to allocate 58.2 TiB for an array\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("example,r", [("6.4", "1"), ("6.4", "0"), ("6.2", "0"),
                                       ("6.2", "1")])
@pytest.mark.parametrize("perturb", [[], ["--perturb", "1.1"]])
def test_block_size_below_two_is_refused_with_or_without_perturb(example, r, perturb,
                                                                 capsys):
    code, stdout, err = run(["verify", "--example", example, "--r", r, "--points", "5"]
                            + perturb, capsys)
    assert code == 2 and stdout == ""
    assert err == f"invalid example settings: {example} needs r >= 2\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "6.1", "--points", "3", "--out", "report.txt"],
    ["oracle-compare", "--points", "5", "--seed", "3", "--out", "report.txt"],
])
def test_out_file_is_the_stdout_report(argv, tmp_path, monkeypatch, capsys):
    # the document is rendered once and written to both
    monkeypatch.chdir(tmp_path)
    renders = []
    real = VerificationReport.render

    def render(self):
        renders.append(self)
        return real(self)

    monkeypatch.setattr(VerificationReport, "render", render)
    code, stdout, _ = run(argv, capsys)
    assert code == 0 and len(renders) == 1
    assert (tmp_path / "report.txt").read_bytes() == stdout.encode()


def test_oracle_compare_too_few_parameters_is_a_config_error(capsys):
    code, stdout, err = run(["oracle-compare", "--n", "1"], capsys)
    assert code == 2
    assert stdout == ""
    assert err.endswith("minmin oracle-compare: error: argument --n: expected an "
                        "integer >= 2, got '1'\n")


def test_mesh_requires_out(capsys):
    code, _, _ = run(["mesh", "--kind", "translation"], capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "6.1", "--points", "0"],
    ["verify", "--example", "6.1", "--points", "-3"],
    ["oracle-compare", "--points", "0"],
    ["ode", "--n", "2", "--grid", "0"],
    ["mesh", "--kind", "translation", "--grid", "0", "--out", "never.obj"],
])
def test_nonpositive_counts_are_config_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert "expected a positive integer" in err
    assert not (tmp_path / "never.obj").exists()


@pytest.mark.parametrize("argv,expected", [
    # a seed is a key of the Philox generator
    (["verify", "--example", "6.1", "--seed=-1"], "a seed in [0, 2**128)"),
    (["oracle-compare", "--seed=-1"], "a seed in [0, 2**128)"),
    (["oracle-compare", "--seed", str(2**128)], "a seed in [0, 2**128)"),
    # a mesh of one node per axis has no faces
    (["mesh", "--grid", "1", "--out", "never.obj"], "a positive integer >= 2"),
    (["mesh", "--kind", "translation", "--grid", "1", "--out", "never.obj"],
     "a positive integer >= 2"),
    # an assembly, or a surface, of fewer than two parameters
    (["ode", "--n", "1"], "an integer >= 2"),
    (["ode", "--n", "0", "--k", "0"], "an integer >= 2"),
    (["oracle-compare", "--n", "0"], "an integer >= 2"),
])
def test_out_of_range_integers_are_config_errors(argv, expected, tmp_path,
                                                 monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert stdout == ""
    assert f"expected {expected}" in err
    assert not (tmp_path / "never.obj").exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "6.1", "--points", "2", "--seed", "0"],
    ["oracle-compare", "--points", "2", "--seed", str(2**128 - 1)],
    ["ode", "--n", "2", "--grid", "1"],  # a residual at one node is meaningful
    ["mesh", "--grid", "2", "--out", "g.obj"],
])
def test_integers_at_the_edge_of_their_range_are_legal(argv, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(argv, capsys)
    assert code == 0, err


@pytest.mark.parametrize("assembly", [[], ["--n", "2"]])
@pytest.mark.parametrize("flag", [["--y0", "0"], ["--m", "0"], ["--k", "0"],
                                  ["--step", "0"], ["--step", "nan"],
                                  ["--c0", "nan"], ["--y0", "inf"], ["--u0", "nan"],
                                  ["--max-steps", "0"]])
def test_invalid_ode_settings_are_config_errors(flag, assembly, capsys):
    code, stdout, err = run(["ode"] + assembly + flag, capsys)
    assert code == 2
    assert stdout == ""
    assert "numerical failure" not in err and "integration failed" not in err


@pytest.mark.parametrize("argv", [
    # the ODE settings of a translation mesh
    ["--kind", "translation", "--step", "nan"],
    ["--kind", "translation", "--c0", "nan"],
    ["--kind", "translation", "--max-steps", "0"],
    # a working span is positive and finite, not an empty domain
    ["--span", "0"], ["--span=-1"], ["--span", "nan"], ["--span", "inf"],
    # three distinct ambient coordinates in 0..dim-1
    ["--project=-1,0,1"], ["--project", "0,0,1"], ["--project", "0,1,4"],
])
def test_invalid_mesh_settings_are_config_errors(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(["mesh", "--example", "6.1", "--out", "never.obj"] + argv,
                            capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ")
    assert not (tmp_path / "never.obj").exists()


@pytest.mark.parametrize("argv, out", [
    (["--project", "0,1"], "never.obj"),
    (["--project", "0,1,2,3"], "never.obj"),
    (["--slice", "0,1,2"], "never.obj"),
    (["--slice", "0"], "never.obj"),
    (["--slice", "a,b"], "never.obj"),
    # CSV output takes no slice, but a malformed one is refused all the same
    (["--slice", "0,1,2"], "never.csv"),
    (["--project", "0,x,1"], "never.csv"),
])
def test_slice_and_project_take_their_count_of_integers(argv, out, tmp_path,
                                                        monkeypatch, capsys):
    # a usage error: argparse's usage, then its one error line; no traceback
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(["mesh", "--example", "6.3", "--grid", "3", "--out", out]
                            + argv, capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("usage: minmin mesh ")
    last = err.splitlines()[-1]
    assert last.startswith(f"minmin mesh: error: argument {argv[0]}: ")
    assert err.count("error") == 1 and not list(tmp_path.iterdir())


_ODE_GRID_PAST_A_FLOAT = ["--u0", "1.7e308", "--step", "1e307", "--max-steps", "5",
                          "--c0", "1e-320"]
_ODE_WIDTH_PAST_A_FLOAT = ["--u0", "0", "--step", "1e305", "--max-steps", "1500",
                           "--c0", "1e-320", "--y0", "1e-10", "--grid", "3"]


@pytest.mark.parametrize("argv", [
    ["ode", "--out", "never.csv"],
    ["ode", "--n", "2", "--out", "never.csv"],
    ["ode", "--n", "3"],
    ["mesh", "--kind", "translation", "--out", "never.obj"],
])
def test_a_sample_grid_that_overflows_is_an_integration_failure(argv, tmp_path,
                                                               monkeypatch, capsys):
    # u0 + 5 steps of 1e307 passes the float limit: one typed line, no warning
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(argv + _ODE_GRID_PAST_A_FLOAT, capsys)
    assert code == 3 and stdout == ""
    assert err == ("integration failed: the sample grid overflows a float: u runs "
                   "from 1.2e+308 to inf\n")
    assert not list(tmp_path.iterdir())


# one refusal: ode --n and mesh --kind translation print the same line and exit 2
@pytest.mark.parametrize("argv, code, prefix", [
    (["ode", "--n", "2"], 2, "error: "),
    (["mesh", "--kind", "translation", "--out", "never.obj"], 2, "error: "),
])
def test_a_profile_domain_whose_width_overflows_is_refused(argv, code, prefix,
                                                          tmp_path, monkeypatch,
                                                          capsys):
    # both ends are finite, hi - lo is not: np.linspace would warn and give nan
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, stdout, err = run(argv + _ODE_WIDTH_PAST_A_FLOAT, capsys)
    assert (got, stdout) == (code, "")
    assert err == (f"{prefix}profile domain [-1.5e+308, 1.5e+308] overflows a float: "
                   "its width hi - lo is not finite\n")
    assert not list(tmp_path.iterdir())
    # one profile's finite samples are a curve as any other
    got, stdout, err = run(["ode"] + _ODE_WIDTH_PAST_A_FLOAT, capsys)
    assert got == 0 and err == ""
    assert "domain: [-1.5e+308, 1.5e+308]\nsamples: 3001\n" in stdout


_HUGE = str(10**20)


@pytest.mark.parametrize("argv", [
    ["mesh", "--grid", _HUGE, "--out", "never.csv"],
    ["mesh", "--example", "6.1", "--grid", "3000000", "--out", "never.csv"],
    ["mesh", "--kind", "translation", "--grid", _HUGE, "--max-steps", "3",
     "--out", "never.obj"],
    ["ode", "--n", "2", "--grid", _HUGE, "--max-steps", "3"],
    ["ode", "--n", _HUGE, "--max-steps", "3"],
    ["oracle-compare", "--points", _HUGE],
    ["oracle-compare", "--n", _HUGE, "--points", "1"],
    ["verify", "--example", "6.2", "--r", _HUGE, "--points", "1"],
    ["verify", "--example", "6.4", "--r", _HUGE, "--points", "1"],
    ["verify", "--example", "6.1", "--points", _HUGE],
    ["verify", "--example", "6.5", "--m", "2", "--points", _HUGE],
])
def test_counts_past_numpys_index_range_are_out_of_memory(argv, tmp_path, monkeypatch,
                                                         capsys):
    # refused from the counts, before anything of that size is built
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("out of memory: ") and err.count("\n") == 1
    assert err.endswith(" is past numpy's index range\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    # 6.6's X_4 = e^u + 0 e^-u overflows on the dependent axis (u_4 = -sum u)
    ["--example", "6.6", "--m", "2", "--span", "700"],
    ["--example", "6.6", "--m", "1", "--span", "500"],
    # 4 * span, the working width of the dependent parameter, overflows
    ["--example", "6.1", "--m", "1", "--span", "1e308"],
    ["--example", "6.5", "--m", "1", "--span", "4.5e307"],
])
def test_mesh_refuses_a_patch_that_overflows(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(["mesh", "--grid", "3", "--out", "b.csv"] + argv, capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows a float" in err
    assert not (tmp_path / "b.csv").exists()


def test_mesh_refuses_axis_centers_whose_sum_overflows(tmp_path, monkeypatch, capsys):
    # nine free axes centered near span / 2: 4 * span is finite, their sum is not
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ten.json").write_text(json.dumps(
        {"kind": "affine", "p": [1] * 10, "q": [1] * 9 + [-1]}))
    argv = ["mesh", "--kind", "patch", "--params-file", "ten.json", "--grid", "2",
            "--out", "x.csv"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(argv + ["--span", "4.4e307"], capsys)
    assert code == 2 and stdout == ""
    assert err == ("error: span 4.4e+307 overflows a float: the sum of the 9 axis "
                   "centers is not finite\n")
    assert not (tmp_path / "x.csv").exists()
    code, stdout, err = run(argv + ["--span", "1e307"], capsys)
    assert code == 0 and stdout == "wrote 512 points to x.csv\n" and err == ""
    assert len((tmp_path / "x.csv").read_text().splitlines()) == 513


@pytest.mark.parametrize("value, legal", [
    ("nan", False), ("inf", False), ("-1e-9", False), ("0", True),
])
@pytest.mark.parametrize("argv, flag", [
    (["verify", "--example", "6.1", "--points", "3"], "--tol"),
    (["verify", "--example", "6.1", "--points", "3"], "--oracle-tol"),
    (["oracle-compare", "--points", "2"], "--tol"),
    (["ansatz", "--params-file", "affine.json"], "--tol"),
])
def test_tolerances_are_finite_and_nonnegative(argv, flag, value, legal, tmp_path,
                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "affine.json").write_text(json.dumps(
        {"kind": "affine", "p": [1, 1, 1, 1], "q": [1, -1, -1, 1]}))
    code, stdout, err = run(argv + [f"{flag}={value}"], capsys)
    if legal:
        assert code in (0, 1), err
    else:
        assert code == 2 and stdout == ""
        assert "expected a finite tolerance >= 0" in err
