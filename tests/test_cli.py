import json
import os
import subprocess
import sys

import numpy as np
import pytest

from minmin.cli import build_parser, main
from minmin.curvature import report_separable, report_separable_batch
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
        assert a.eta.tobytes() == b.eta.tobytes()
        assert a.weingarten.entries.tobytes() == b.weingarten.entries.tobytes()

    def rows(reports):
        text = VerificationReport("verify", {}, reports, h_tol=1e-8).render()
        return text[text.index("index"):]

    assert rows(batch) == rows(alone)


def test_verify_csv_sidecar(tmp_path, capsys):
    out = tmp_path / "r.txt"
    csv = tmp_path / "r.csv"
    code, _, _ = run(
        ["verify", "--example", "6.1", "--m", "1", "--points", "5",
         "--seed", "3", "--out", str(out), "--csv", str(csv)], capsys,
    )
    assert code == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0].startswith("index,h_analytic")
    assert len(lines) == 6


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
    assert "Newton" not in runs["info"][2]
    assert f"{argv[0]} chart Newton steps: " in runs["debug"][2]
    assert f"{argv[0]} chart Newton solves at the step cap: " in runs["debug"][2]


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


def test_exit_code_config_error(capsys):
    code, _, _ = run(["verify"], capsys)  # missing required --example
    assert code == 2


def test_mesh_requires_out(capsys):
    code, _, _ = run(["mesh", "--kind", "translation"], capsys)
    assert code == 2
