"""Smoke test of the benchmark: every workload at its smallest size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests

Each workload must finish, pass its own checks, print every end-to-end metric
name with a unit, and, traced twice, write a well-formed span tree and
repeat every deterministic counter exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PRINTED = ("setup_s", "sweep_s", "plan_s_p50", "plan_s_p90", "peak_rss_mb", "failed_frac",
           "rmop_residual_mean")
COUNTER_UNITS = ("count",)


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result, lines[:-1]


def test_workload_names_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_prints_every_end_to_end_metric(workload):
    result, report = result_of(run(workload, 0))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and metric["value"] > 0, name
    for name in PRINTED:
        assert any(line.split()[:1] == [name] and len(line.split()) >= 3 for line in report), \
            f"{name} missing from the report"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_and_counters(workload):
    first, _ = result_of(run(workload, 1))
    cols = spans.load(ROOT / ".bench_out" / workload / "spans.npz")
    assert len(cols["start"]) > 0
    assert spans.check_tree(cols) == []
    second, _ = result_of(run(workload, 1))

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    counters = [name for name in expected if spans.is_counter(name)]
    assert counters
    for name in counters:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_crossover_digests(tmp_path):
    """The 20-trial crossover of the ROADMAP reproduces its pinned CSV and summary."""
    workload = workloads.Crossover(trials=20, seed=7, outdir=tmp_path)
    outcome = workload.sweep(workload.setup(), [])
    assert outcome.digest == workloads.pinned(workload)
    assert outcome.problems == []
