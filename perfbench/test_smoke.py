"""Smoke test of the benchmark at tiny size.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

Every workload must print every metric that BENCHMARK.json declares, with its
unit, in both modes; the tracer must leave minmin as it found it; and without
the sources the benchmark must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_with_its_unit(workload, trace, section):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_layer_table_matches_benchmark_json():
    sys.path.insert(0, str(HERE))
    import tracing

    table = [(name, unit, better) for name, unit, better, *_ in tracing.LAYER_METRICS]
    assert table == [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]


def test_tracer_restores_every_patch():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import minmin.cli  # noqa: F401  (loads every module the tracer patches)
    import tracing

    def snapshot():
        out = {}
        for name, mod in sys.modules.items():
            if name == "minmin" or name.startswith("minmin."):
                for key, value in vars(mod).items():
                    out[(name, key)] = value
                    if isinstance(value, type):
                        out.update({(name, key, k): v for k, v in vars(value).items()})
        return out

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "curvature.oracle" in tracer.installed
        assert minmin.cli.report_separable is not before[("minmin.cli", "report_separable")]
    finally:
        tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("catalogue", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
