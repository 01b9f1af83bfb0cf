"""CLI surface of the analyzer: exit codes, output shape, meta-test."""

from __future__ import annotations

import json

from pathlib import Path

import pytest

from repro.analysis import all_rules, flow_rules, run_analysis, run_lint
from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def test_clean_tree_exits_zero(write_tree, capsys):
    root = write_tree({"core/ok.py": "VALUE = 1\n"})
    assert lint_main([str(root)]) == 0
    assert capsys.readouterr().out == ""


def test_violations_exit_one_with_file_line(write_tree, capsys):
    root = write_tree(
        {"core/mc.py": "import numpy as np\n\nx = np.random.rand(3)\n"}
    )
    code = lint_main([str(root), "--root", str(root)])
    out = capsys.readouterr().out
    assert code == 1
    assert "core/mc.py:3:" in out
    assert "R3" in out


def test_rules_filter(write_tree):
    root = write_tree(
        {"core/mc.py": "import numpy as np\n\nx = np.random.rand(3)\n"}
    )
    assert lint_main([str(root), "--rules", "R1"]) == 0
    assert lint_main([str(root), "--rules", "R3"]) == 1


def test_select_is_the_new_spelling_of_rules(write_tree):
    root = write_tree(
        {"core/mc.py": "import numpy as np\n\nx = np.random.rand(3)\n"}
    )
    assert lint_main([str(root), "--select", "R1"]) == 0
    assert lint_main([str(root), "--select", "R3"]) == 1


def test_ignore_drops_rules_from_the_selected_set(write_tree):
    root = write_tree(
        {"core/mc.py": "import numpy as np\n\nx = np.random.rand(3)\n"}
    )
    # Full set minus R3: the unseeded-RNG finding disappears.
    assert lint_main([str(root), "--ignore", "R3"]) == 0
    # Select R3 then ignore it: nothing left to fire.
    assert lint_main([str(root), "--select", "R3", "--ignore", "R3"]) == 0


def test_ignore_disables_stale_noqa_detection(write_tree):
    # Under --ignore the run is partial; a waiver for the ignored rule
    # is dormant, not stale.
    root = write_tree(
        {"core/mc.py": (
            "import numpy as np\n\n"
            "x = np.random.rand(3)  # repro: noqa R3 -- fixture\n"
        )}
    )
    report = run_analysis([root], root=root, ignore=["R3"])
    assert report.findings == []
    assert report.stale == []


def test_ignore_through_repro_cli(write_tree):
    root = write_tree(
        {"core/mc.py": "import numpy as np\n\nx = np.random.rand(3)\n"}
    )
    assert repro_main(["lint", str(root), "--ignore", "R3"]) == 0
    assert repro_main(["lint", str(root), "--select", "R3"]) == 1


def test_unknown_rule_is_usage_error(write_tree):
    root = write_tree({"core/ok.py": "VALUE = 1\n"})
    with pytest.raises(SystemExit) as err:
        lint_main([str(root), "--rules", "R99"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        lint_main([str(root), "--ignore", "R99"])
    assert err.value.code == 2


def test_missing_path_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        lint_main([str(tmp_path / "nope")])
    assert err.value.code == 2


def test_explain_lists_all_rules(capsys):
    assert lint_main(["--explain"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out


def test_repro_lint_subcommand(write_tree, capsys):
    root = write_tree(
        {"core/mc.py": "import numpy as np\n\nx = np.random.rand(3)\n"}
    )
    assert repro_main(["lint", str(root), "--root", str(root)]) == 1
    assert "R3" in capsys.readouterr().out
    assert repro_main(["lint", str(root), "--rules", "R1"]) == 0


def test_json_format(write_tree, capsys):
    root = write_tree(
        {"core/mc.py": "import numpy as np\n\nx = np.random.rand(3)\n"}
    )
    code = lint_main([str(root), "--root", str(root), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["suppressed_count"] == 0
    [finding] = [f for f in payload["findings"] if f["rule"] == "R3"]
    assert finding["path"] == "core/mc.py"
    assert finding["line"] == 3
    assert isinstance(finding["col"], int)
    assert finding["message"]


def test_json_format_clean_tree(write_tree, capsys):
    root = write_tree({"core/ok.py": "VALUE = 1\n"})
    assert lint_main([str(root), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"findings": [], "suppressed_count": 0, "stale_count": 0}


def test_show_suppressed_lists_waived_findings(write_tree, capsys):
    root = write_tree(
        {
            "core/mc.py": (
                "import numpy as np\n\n"
                "x = np.random.rand(3)  # repro: noqa R3 -- fixture\n"
            )
        }
    )
    assert lint_main([str(root), "--root", str(root)]) == 0
    err = capsys.readouterr().err
    assert "1 finding(s) suppressed" in err

    assert lint_main([str(root), "--root", str(root), "--show-suppressed"]) == 0
    err = capsys.readouterr().err
    assert "[waived]" in err
    assert "core/mc.py:3:" in err


def test_stale_noqa_is_flagged(write_tree, capsys):
    root = write_tree(
        {"core/ok.py": "VALUE = 1  # repro: noqa R3 -- was needed once\n"}
    )
    code = lint_main([str(root), "--root", str(root)])
    out = capsys.readouterr().out
    assert code == 1
    assert "stale" in out
    assert "R0" in out


def test_stale_noqa_for_retired_rule_ids(write_tree):
    # Every run runs every registered rule, so a waiver naming a retired
    # id (R2, R5) can suppress nothing: it is stale, and selecting the
    # retired id is a usage error.
    root = write_tree(
        {"core/ok.py": "VALUE = 1  # repro: noqa R2 -- guarded a live index once\n"}
    )
    report = run_analysis([root], root=root)
    assert [f.rule for f in report.stale] == ["R0"]
    with pytest.raises(SystemExit) as err:
        lint_main([str(root), "--select", "R2"])
    assert err.value.code == 2


def test_flow_flag_through_repro_cli(write_tree, capsys):
    root = write_tree(
        {
            "serve/worker.py": (
                "import threading\n\n\n"
                "class W:\n"
                "    def __init__(self):\n"
                "        self._a = threading.Lock()\n"
                "        self._b = threading.Lock()\n\n"
                "    def f(self):\n"
                "        with self._a:\n"
                "            with self._b:\n"
                "                return 1\n\n"
                "    def g(self):\n"
                "        with self._b:\n"
                "            with self._a:\n"
                "                return 2\n"
            )
        }
    )
    # The flow rules run in every `repro lint` run; no flag turns them on.
    assert repro_main(["lint", str(root), "--root", str(root)]) == 1
    assert "R6" in capsys.readouterr().out


def test_explain_includes_flow_rules(capsys):
    assert lint_main(["--explain"]) == 0
    out = capsys.readouterr().out
    for rule in flow_rules():
        assert rule.id in out


def test_shipped_tree_is_clean():
    """Meta-test: the repository's own source passes its own linter,
    including the interprocedural flow rules."""
    report = run_analysis([REPO_SRC], root=REPO_SRC.parent)
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    # No dormant waivers either: every noqa in the tree suppresses
    # something even with the full rule set active.
    assert report.stale == []


def test_sarif_format(write_tree, capsys):
    root = write_tree(
        {"core/mc.py": "import numpy as np\n\nx = np.random.rand(3)\n"}
    )
    code = lint_main([str(root), "--root", str(root), "--format", "sarif"])
    log = json.loads(capsys.readouterr().out)
    assert code == 1
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"R0", "R1", "R3", "R16"} <= rule_ids
    [result] = [r for r in run["results"] if r["ruleId"] == "R3"]
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "core/mc.py"
    assert location["region"]["startLine"] == 3
    assert result["message"]["text"]


def test_sarif_advertises_flow_rules(write_tree, capsys):
    root = write_tree({"core/ok.py": "VALUE = 1\n"})
    assert lint_main([str(root), "--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    rule_ids = {rule["id"] for rule in log["runs"][0]["tool"]["driver"]["rules"]}
    assert {"R13", "R14", "R15", "R16"} <= rule_ids


def test_sarif_clean_tree_exits_zero(write_tree, capsys):
    root = write_tree({"core/ok.py": "VALUE = 1\n"})
    assert lint_main([str(root), "--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["runs"][0]["results"] == []


def test_sarif_suppressed_findings_marked(write_tree, capsys):
    root = write_tree(
        {
            "core/mc.py": (
                "import numpy as np\n\n"
                "x = np.random.rand(3)  # repro: noqa R3 -- fixture\n"
            )
        }
    )
    code = lint_main(
        [str(root), "--root", str(root), "--format", "sarif",
         "--show-suppressed"]
    )
    log = json.loads(capsys.readouterr().out)
    assert code == 0
    [result] = log["runs"][0]["results"]
    assert result["suppressions"][0]["kind"] == "inSource"


def test_internal_error_exits_two_with_synthetic_finding(
    write_tree, capsys, monkeypatch
):
    from repro.analysis import cli as analysis_cli

    def boom(*args, **kwargs):
        raise RuntimeError("rule exploded")

    monkeypatch.setattr(analysis_cli, "run_analysis", boom)
    root = write_tree({"core/ok.py": "VALUE = 1\n"})
    code = analysis_cli.main([str(root), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert "RuntimeError: rule exploded" in captured.err  # the traceback
    payload = json.loads(captured.out)
    [finding] = payload["findings"]
    assert finding["rule"] == "R0"
    assert "internal analyzer error" in finding["message"]
    assert "rule exploded" in finding["message"]


def test_internal_error_text_format_also_exits_two(write_tree, capsys, monkeypatch):
    from repro.analysis import cli as analysis_cli

    monkeypatch.setattr(
        analysis_cli, "run_analysis",
        lambda *a, **k: (_ for _ in ()).throw(ValueError("bad state")),
    )
    root = write_tree({"core/ok.py": "VALUE = 1\n"})
    code = analysis_cli.main([str(root)])
    captured = capsys.readouterr()
    assert code == 2
    assert "internal analyzer error" in captured.out


def test_no_cache_flag_through_repro_cli(write_tree):
    root = write_tree({"core/ok.py": "VALUE = 1\n"})
    assert repro_main(
        ["lint", str(root), "--root", str(root), "--no-cache"]
    ) == 0
    assert not (root / ".repro-lint-cache").exists()


def test_cache_dir_created_at_lint_root(write_tree):
    root = write_tree({"core/ok.py": "VALUE = 1\n"})
    assert lint_main([str(root), "--root", str(root)]) == 0
    assert (root / ".repro-lint-cache").is_dir()
