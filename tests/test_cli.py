"""Tests for the end-user CLI (`python -m repro.cli`)."""

from __future__ import annotations

import pytest

from repro.cli import main


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    code = main(
        ["generate", "--family", "web", "--n", "300", "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_each_family(self, tmp_path, capsys):
        for family in ("web", "social", "citation", "vote", "community", "random"):
            out = tmp_path / f"{family}.txt"
            assert main(["generate", "--family", family, "--n", "120",
                         "--out", str(out)]) == 0
            assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--family", "quantum", "--out", str(tmp_path / "x.txt")])


class TestBuildAndQuery:
    def test_build_then_query(self, graph_file, tmp_path, capsys):
        index = tmp_path / "index.npz"
        assert main(["build-index", "--graph", str(graph_file),
                     "--index", str(index)]) == 0
        assert index.exists()
        out = capsys.readouterr().out
        assert "indexed" in out

        assert main(["query", "--graph", str(graph_file), "--index", str(index),
                     "--vertex", "5", "-k", "5"]) == 0
        out = capsys.readouterr().out
        assert "top-5 for vertex 5" in out
        assert "candidates" in out

    def test_query_without_index_preprocesses(self, graph_file, capsys):
        assert main(["query", "--graph", str(graph_file), "--vertex", "5"]) == 0
        assert "top-10" in capsys.readouterr().out

    def test_config_overrides(self, graph_file, tmp_path, capsys):
        index = tmp_path / "index.npz"
        assert main(["build-index", "--graph", str(graph_file), "--index", str(index),
                     "--c", "0.8", "--T", "6", "--theta", "0.02"]) == 0

    def test_paper_profile_accepted(self, graph_file, capsys):
        assert main(["pair", "--graph", str(graph_file), "--profile", "fast",
                     "--vertex", "1", "--other", "2"]) == 0


class TestPairAndInfo:
    def test_pair_prints_both_methods(self, graph_file, capsys):
        assert main(["pair", "--graph", str(graph_file),
                     "--vertex", "3", "--other", "7"]) == 0
        out = capsys.readouterr().out
        assert "monte-carlo" in out
        assert "deterministic" in out

    def test_info_summary(self, graph_file, capsys):
        assert main(["info", "--graph", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out
        assert "reciprocity" in out

    def test_undirected_flag_doubles_edges(self, tmp_path, capsys):
        path = tmp_path / "tiny.txt"
        path.write_text("0 1\n1 2\n")
        main(["info", "--graph", str(path)])
        directed_out = capsys.readouterr().out
        main(["info", "--graph", str(path), "--undirected"])
        undirected_out = capsys.readouterr().out
        assert "| 2" in directed_out
        assert "| 4" in undirected_out

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestServeFlags:
    def test_flush_pipeline_flag_is_a_hidden_no_op(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        plain = vars(parser.parse_args(["serve", "--graph", "g.txt"]))
        flagged = vars(
            parser.parse_args(["serve", "--graph", "g.txt", "--flush-pipeline"])
        )
        flagged.pop("flush_pipeline")
        plain.pop("flush_pipeline")
        assert flagged == plain
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--help"])
        assert "--flush-pipeline" not in capsys.readouterr().out


class TestRemoteQuery:
    @pytest.fixture
    def live_server(self):
        from repro.core.config import SimRankConfig
        from repro.core.engine import SimRankEngine
        from repro.graph.generators import preferential_attachment
        from repro.serve import ServeConfig, ServerThread, SimRankServer

        graph = preferential_attachment(120, out_degree=3, seed=8)
        config = SimRankConfig(
            T=5, r_pair=40, r_screen=10, r_alphabeta=80, r_gamma=30,
            index_walks=4, index_checks=3, k=5,
        )
        engine = SimRankEngine(graph, config, seed=4).preprocess()
        thread = ServerThread(SimRankServer(engine, ServeConfig(port=0)))
        port = thread.start()
        yield port
        thread.stop()

    def test_query_remote_round_trip(self, live_server, capsys):
        assert main(["query", "--remote", f"127.0.0.1:{live_server}",
                     "--vertex", "5", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "top-3 for vertex 5" in out
        assert "epoch 0" in out

    def test_query_remote_bare_port(self, live_server, capsys):
        assert main(["query", "--remote", str(live_server),
                     "--vertex", "5"]) == 0
        assert "vertex 5" in capsys.readouterr().out

    def test_query_remote_malformed_address(self, capsys):
        assert main(["query", "--remote", "nonsense:port",
                     "--vertex", "5"]) == 2

    def test_query_needs_graph_or_remote(self, capsys):
        assert main(["query", "--vertex", "5"]) == 2
        assert "--graph" in capsys.readouterr().err


class TestMetricsFlag:
    def test_query_metrics_prom_is_valid_exposition(self, graph_file, capsys):
        from repro.obs.export import parse_prometheus

        assert main(["query", "--graph", str(graph_file), "--vertex", "5",
                     "-k", "5", "--metrics", "prom"]) == 0
        out = capsys.readouterr().out
        prom_text = out[out.index("# TYPE"):]
        samples = parse_prometheus(prom_text)
        assert samples["query_candidates_total"] > 0
        assert "query_pruned_by_bound_total" in samples
        assert samples["query_samples_total"] > 0
        assert samples["preprocess_seconds"] > 0
        assert samples['query_latency_seconds_bucket{le="+Inf"}'] == 1
        assert samples["query_latency_seconds_count"] == 1

    def test_query_metrics_json_round_trips(self, graph_file, capsys):
        from repro.obs.export import parse_jsonl

        assert main(["query", "--graph", str(graph_file), "--vertex", "5",
                     "--metrics", "json"]) == 0
        out = capsys.readouterr().out
        jsonl = "\n".join(
            line for line in out.splitlines() if line.startswith("{")
        )
        snapshot = parse_jsonl(jsonl)
        assert snapshot["counters"]["query.queries_total"] == 1

    def test_build_index_metrics_summary(self, graph_file, tmp_path, capsys):
        index = tmp_path / "index.npz"
        assert main(["build-index", "--graph", str(graph_file),
                     "--index", str(index), "--metrics", "summary"]) == 0
        out = capsys.readouterr().out
        assert "preprocess_seconds" in out
        assert "index_bytes" in out

    def test_metrics_off_prints_no_exposition(self, graph_file, capsys):
        assert main(["query", "--graph", str(graph_file), "--vertex", "5"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" not in out

    def test_metrics_flag_leaves_obs_disabled(self, graph_file, capsys):
        from repro import obs

        assert main(["query", "--graph", str(graph_file), "--vertex", "5",
                     "--metrics", "prom"]) == 0
        assert not obs.enabled()
        obs.reset()
