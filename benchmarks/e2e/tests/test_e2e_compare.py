"""compare.py's verdicts, including the unresolved case."""

import json
import statistics

from compare import compare, verdict

#: Ten parent runs with median 100 and an interquartile spread of ~2.
BASE = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


def test_consistent_gain_beyond_the_spread_is_better():
    assert verdict(BASE, [b - 10 for b in BASE], "lower", 0.1) == "better"
    assert verdict(BASE, [b + 10 for b in BASE], "higher", 0.1) == "better"


def test_gain_needs_ten_pairs():
    assert verdict(BASE[:9], [b - 10 for b in BASE[:9]], "lower", 0.1) == "same"


def test_gain_needs_nine_wins_in_ten():
    change = [b - 10 for b in BASE]
    change[0] = change[1] = BASE[0] + 50  # two losses
    assert verdict(BASE, change, "lower", 0.5) == "same"


def test_gain_needs_median_gap_beyond_parent_spread():
    # Every pair wins, but by less than the parent's interquartile spread.
    assert verdict(BASE, [b - 0.5 for b in BASE], "lower", 0.1) == "same"


def test_gain_does_not_count_with_more_failures():
    change = [b - 10 for b in BASE]
    assert verdict(BASE, change, "lower", 0.1, base_failed=0, change_failed=1) == "same"


def test_worsening_beyond_the_bound_is_worse():
    assert verdict(BASE, [b * 1.2 for b in BASE], "lower", 0.1) == "worse"
    assert verdict(BASE, [b * 0.8 for b in BASE], "higher", 0.1) == "worse"
    assert verdict(BASE, [b * 1.05 for b in BASE], "lower", 0.1) == "same"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.1) == "unresolved"
    assert verdict(BASE, noisy, "lower", 0.1) == "unresolved"


def test_wide_spread_is_resolved_when_every_change_run_is_better():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, [v - 200 for v in noisy], "higher", 0.1) == "worse"
    assert verdict(noisy, [30.0] * 10, "lower", 0.1) == "better"


def test_too_few_runs_are_unresolved():
    assert verdict([1.0], [1.0], "lower", 0.1) == "unresolved"


SPEC = {"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}


def _write(path, values, invalid=()):
    with open(path, "w") as handle:
        for i, value in enumerate(values):
            result = {"failed": 0, "valid": i not in invalid, "metrics": {"latency_ms": value}}
            handle.write(json.dumps({"workloads": {"uniform": result}}) + "\n")


def test_compare_pairs_runs_per_workload(tmp_path):
    _write(tmp_path / "base.jsonl", BASE)
    _write(tmp_path / "change.jsonl", [b * 1.5 for b in BASE])
    (row,) = compare(SPEC, tmp_path / "base.jsonl", tmp_path / "change.jsonl")
    assert row[0] == "uniform" and row[1] == "latency_ms" and row[-1] == "worse"


def test_an_invalid_run_drops_out_with_its_partner(tmp_path):
    # Eleven pairs, the change better in each; the one invalid change run
    # reads best of all, but it and its partner are left out.
    _write(tmp_path / "base.jsonl", BASE + [100.0])
    _write(tmp_path / "change.jsonl", [b - 10 for b in BASE] + [1.0], invalid={10})
    (row,) = compare(SPEC, tmp_path / "base.jsonl", tmp_path / "change.jsonl")
    assert row[3] == f"{statistics.median(b - 10 for b in BASE):.4g}"
    assert row[5] == "10" and row[-1] == "better"
