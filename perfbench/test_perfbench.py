"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench -q

Each workload runs through run.py exactly as the full benchmark
does, only on smaller inputs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans as spans_mod  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request):
    workload = request.param
    result = result_of(bench(ROOT, "--workload", workload, "--size", "smoke", "--trace", "1"))
    seed = json.loads((HERE / "workloads.json").read_text())[workload]["default_seed"]
    span_file = HERE / "out" / f"spans-{workload}-{seed}.json"
    return workload, result, json.loads(span_file.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench(ROOT, "--workload", workload, "--size", "smoke", "--seconds", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert value["value"] > 0


def test_traced_smoke_run_emits_every_layer_metric(traced):
    workload, result, _ = traced
    # Includes the check that the traced outputs hash like the untraced.
    assert result["correct"] and result["failed"] == 0, workload
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["sim.dispatches"]["value"] > 0
    assert result["metrics"]["trace_overhead"]["value"] > 0


def test_self_times_sum_to_the_root_span(traced):
    _, _, doc = traced
    rows = [row for table in doc["phases"].values() for row in table]
    roots = [row for row in rows if row[0] == spans_mod.ROOT]
    assert [row[1] for row in roots] == ["workload"]
    root_total = roots[0][3]
    assert math.isclose(sum(row[4] for row in rows), root_total, rel_tol=1e-9)


def test_kept_spans_have_kept_parents(traced):
    _, _, doc = traced
    ids = {span[0] for span in doc["spans"]}
    assert all(span[4] == -1 or span[4] in ids for span in doc["spans"])
    assert all(span[2] <= span[3] for span in doc["spans"])


def test_unattributed_share_is_reported(traced):
    workload, result, doc = traced
    share = result["metrics"]["trace.unattributed_share"]["value"]
    run_phase = next(row for row in doc["phases"]["run"] if row[1] == "run")
    assert share == pytest.approx(run_phase[4] / run_phase[3])
    assert 0 < share < 0.05, workload


def test_self_time_excludes_children():
    spans = spans_mod.Spans()
    inner = spans.wrap(lambda: sum(range(20_000)), "b.inner")
    outer = spans.wrap(lambda: [inner() for _ in range(3)], "a.outer")
    with spans.phase("run"):
        outer()
    rows = spans.by_name("run")
    assert rows["b.inner"][0] == 3
    assert rows["a.outer"][2] == pytest.approx(rows["a.outer"][1] - rows["b.inner"][1])
    assert sum(row[2] for row in rows.values()) == pytest.approx(rows["run"][1])


def test_keep_limit_drops_children_before_parents():
    spans = spans_mod.Spans(keep=2)
    leaf = spans.wrap(lambda: None, "leaf")
    parent = spans.wrap(lambda: [leaf() for _ in range(3)], "parent")
    with spans.phase("run"):
        parent()
    kept = {record[1] for record in spans.records}
    assert kept == {spans.name_id("run"), spans.name_id("parent")}
    assert spans.dropped == 3


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
