"""Unit tests for the candidate index (Algorithm 4, §7.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exact import exact_simrank
from repro.core.index import CandidateIndex, build_index, build_signatures
from repro.errors import SerializationError, VertexError


class TestSignatures:
    def test_every_vertex_signs_itself(self, social_graph, test_config):
        signatures = build_signatures(social_graph, test_config, seed=0)
        for u, signature in enumerate(signatures):
            assert u in signature

    def test_signatures_sorted_unique(self, social_graph, test_config):
        signatures = build_signatures(social_graph, test_config, seed=0)
        for signature in signatures:
            assert signature == sorted(set(signature))

    def test_signature_entries_are_walk_reachable(self, web_graph, test_config):
        from repro.graph.traversal import UNREACHABLE, bfs_distances

        signatures = build_signatures(web_graph, test_config, seed=1)
        for u, signature in enumerate(signatures):
            dist = bfs_distances(web_graph, u, direction="in")
            for w in signature:
                assert dist[w] != UNREACHABLE
                assert dist[w] < test_config.T

    def test_deterministic_given_seed(self, social_graph, test_config):
        a = build_signatures(social_graph, test_config, seed=9)
        b = build_signatures(social_graph, test_config, seed=9)
        assert a == b

    def test_pseudocode_rule_is_more_permissive(self, social_graph, test_config):
        text = build_signatures(social_graph, test_config, seed=3)
        pseudo = build_signatures(
            social_graph, test_config.with_(candidate_rule="pseudocode"), seed=3
        )
        assert sum(map(len, pseudo)) >= sum(map(len, text))

    def test_dead_end_vertex_signature_is_self_only(self, small_path, test_config):
        # The path head has no in-links: its walks die at t=1.
        signatures = build_signatures(small_path, test_config, seed=0)
        assert signatures[0] == [0]


class TestCandidateIndex:
    @pytest.fixture
    def index(self, social_graph, test_config) -> CandidateIndex:
        return build_index(social_graph, test_config, seed=0)

    def test_candidates_exclude_self_by_default(self, index):
        for u in range(index.n):
            assert u not in index.candidates(u)

    def test_include_self_flag(self, index):
        assert 0 in index.candidates(0, include_self=True)

    def test_candidates_symmetric(self, index):
        # Sharing a signature vertex is a symmetric relation.
        for u in range(index.n):
            for v in index.candidates(u):
                assert u in index.candidates(v)

    def test_candidates_sorted(self, index):
        for u in range(0, index.n, 7):
            candidates = index.candidates(u)
            assert candidates == sorted(candidates)

    def test_vertex_validation(self, index):
        with pytest.raises(VertexError):
            index.candidates(index.n)

    def test_gamma_table_attached(self, index, test_config):
        assert index.gamma.values.shape == (index.n, test_config.T)

    def test_nbytes_positive(self, index):
        assert index.nbytes() > 0

    def test_signature_stats(self, index):
        stats = index.signature_size_stats()
        assert stats["mean"] >= 1.0
        assert stats["empty_fraction"] == 0.0

    def test_build_seconds_recorded(self, index):
        assert index.build_seconds > 0.0

    def test_candidates_cover_similar_vertices(self, social_graph, test_config):
        # Vertices with very high SimRank should usually be mutual
        # candidates — this is the whole point of Algorithm 4.
        index = build_index(social_graph, test_config, seed=2)
        S = exact_simrank(social_graph, c=test_config.c)
        np.fill_diagonal(S, 0)
        u, v = np.unravel_index(np.argmax(S), S.shape)
        ball_or_index = set(index.candidates(int(u)))
        from repro.graph.traversal import distance_ball

        ball_or_index.update(distance_ball(social_graph, int(u), 2, direction="both"))
        assert int(v) in ball_or_index


class TestSerialization:
    def test_save_load_round_trip(self, social_graph, test_config, tmp_path):
        index = build_index(social_graph, test_config, seed=0)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = CandidateIndex.load(path)
        assert loaded.n == index.n
        assert loaded.H == index.H
        assert loaded.config == index.config
        np.testing.assert_array_equal(loaded.gamma.values, index.gamma.values)

    def test_loaded_candidates_identical(self, social_graph, test_config, tmp_path):
        index = build_index(social_graph, test_config, seed=0)
        path = tmp_path / "index.npz"
        index.save(path)
        loaded = CandidateIndex.load(path)
        for u in range(0, index.n, 5):
            assert loaded.candidates(u) == index.candidates(u)

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "broken.npz"
        path.write_bytes(b"not an npz at all")
        with pytest.raises(SerializationError):
            CandidateIndex.load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            CandidateIndex.load(tmp_path / "missing.npz")


class TestLoadValidation:
    """A bad index file must fail loudly at load time, never mis-answer."""

    @pytest.fixture
    def saved(self, social_graph, test_config, tmp_path):
        index = build_index(social_graph, test_config, seed=0)
        path = tmp_path / "index.npz"
        index.save(path)
        return index, path

    @staticmethod
    def _rewrite(path, **overrides):
        """Round-trip the archive with some arrays replaced/dropped."""
        import json

        payload = dict(np.load(path).items())
        for key, value in overrides.items():
            if value is None:
                payload.pop(key, None)
            elif key == "meta":
                payload["meta"] = np.frombuffer(
                    json.dumps(value).encode("utf-8"), dtype=np.uint8
                )
            else:
                payload[key] = value
        np.savez_compressed(path, **payload)

    @staticmethod
    def _meta(path) -> dict:
        import json

        return json.loads(bytes(np.load(path)["meta"]).decode("utf-8"))

    def test_version_mismatch_names_versions(self, saved):
        _, path = saved
        meta = self._meta(path)
        meta["version"] = 999
        self._rewrite(path, meta=meta)
        with pytest.raises(SerializationError, match="version"):
            CandidateIndex.load(path)

    @pytest.mark.parametrize("kernel", ["array", "reference"])
    def test_retired_kernel_field_is_ignored(self, saved, kernel):
        """Headers written while ``SimRankConfig`` had a ``kernel`` field
        still load, whichever value they hold, to the saved index."""
        index, path = saved
        meta = self._meta(path)
        meta["config"]["kernel"] = kernel
        self._rewrite(path, meta=meta)
        loaded = CandidateIndex.load(path)
        assert loaded.config == index.config
        assert loaded.H == index.H
        np.testing.assert_array_equal(loaded.gamma.values, index.gamma.values)
        assert loaded.build_seconds == index.build_seconds

    def test_unknown_config_field_raises(self, saved):
        _, path = saved
        meta = self._meta(path)
        meta["config"]["walk_kernel"] = "simd"
        self._rewrite(path, meta=meta)
        with pytest.raises(SerializationError, match="walk_kernel"):
            CandidateIndex.load(path)

    def test_missing_array_raises(self, saved):
        _, path = saved
        self._rewrite(path, gamma=None)
        with pytest.raises(SerializationError, match="missing"):
            CandidateIndex.load(path)

    def test_truncated_signatures_detected(self, saved):
        index, path = saved
        flat = np.load(path)["signatures"]
        self._rewrite(path, signatures=flat[: len(flat) // 2])
        with pytest.raises(SerializationError, match="truncated"):
            CandidateIndex.load(path)

    def test_truncated_offsets_detected(self, saved):
        _, path = saved
        offsets = np.load(path)["signature_offsets"]
        self._rewrite(path, signature_offsets=offsets[:-2])
        with pytest.raises(SerializationError, match="truncated"):
            CandidateIndex.load(path)

    def test_non_monotone_offsets_detected(self, saved):
        _, path = saved
        offsets = np.load(path)["signature_offsets"].copy()
        offsets[1], offsets[2] = offsets[2] + 1, offsets[1]
        self._rewrite(path, signature_offsets=offsets)
        with pytest.raises(SerializationError, match="corrupt"):
            CandidateIndex.load(path)

    def test_gamma_shape_mismatch_detected(self, saved):
        _, path = saved
        gamma = np.load(path)["gamma"]
        self._rewrite(path, gamma=gamma[:-3])
        with pytest.raises(SerializationError, match="gamma"):
            CandidateIndex.load(path)

    def test_gamma_columns_disagree_with_config(self, saved):
        _, path = saved
        gamma = np.load(path)["gamma"]
        assert self._meta(path)["config"]["T"] > 2
        self._rewrite(path, gamma=gamma[:, :2])
        with pytest.raises(SerializationError, match="gamma"):
            CandidateIndex.load(path)

    def test_signature_entry_out_of_range_detected(self, saved):
        _, path = saved
        flat = np.load(path)["signatures"].copy()
        flat[0] = 10**6
        self._rewrite(path, signatures=flat)
        with pytest.raises(SerializationError, match="signature entry"):
            CandidateIndex.load(path)

    def test_non_object_header_detected(self, saved):
        _, path = saved
        self._rewrite(path, meta=[1, 2, 3])
        with pytest.raises(SerializationError):
            CandidateIndex.load(path)
