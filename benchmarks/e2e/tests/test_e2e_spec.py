"""BENCHMARK.json is well formed and names exactly what run.py measures."""

import json
import re
from pathlib import Path

import run
from layers import layer_metrics
from loadgen import Sample

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_top_level_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_names_units_and_counts():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [m["name"] for m in metrics]
    assert all(NAME.match(name) for name in names)
    assert len(set(m["name"] for m in metrics)) == len(metrics)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 2 <= len(SPEC["workloads"]) <= 8


def test_every_end_to_end_metric_has_unit_direction_and_bound():
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"


def test_workloads_are_the_ones_run_py_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def _sample(i):
    request = {"op": "top_k", "id": i, "vertex": i}
    return Sample(request, i % 2, due=float(i), sent=float(i), done=i + 0.01,
                  reply={"ok": True, "id": i})


def test_end_to_end_names_match_the_untraced_metrics():
    low = [_sample(i) for i in range(100)]
    high = [_sample(i) for i in range(100, 300)]
    metrics = run.untraced_metrics([1.0, 1.1, 0.9], 70.0, low, high, 80.0, 12.0, 1.0)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)


def test_per_layer_names_match_the_traced_metrics():
    metrics = layer_metrics([], [_sample(0)], {}, {}, 0.0)
    expected = set(metrics) | set(run.write_metrics([])) | {"trace.overhead_pct"}
    assert {m["name"] for m in SPEC["per_layer"]} == expected
