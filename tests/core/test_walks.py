"""Unit tests for the reverse random-walk engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.walks import DEAD, WalkEngine, sketch_from_walks
from repro.errors import ContractViolationError, VertexError
from repro.graph.generators import cycle_graph, path_graph, star_graph
from repro.utils.rng import keyed_uniforms, stream_keys


class TestStepping:
    def test_cycle_walk_is_deterministic(self):
        graph = cycle_graph(4)  # in-neighbor of v is v-1
        engine = WalkEngine(graph, seed=0)
        positions = np.array([0, 1, 2, 3])
        stepped = engine.step(positions)
        np.testing.assert_array_equal(stepped, [3, 0, 1, 2])

    def test_dead_end_terminates(self):
        graph = path_graph(3)  # vertex 0 has no in-links
        engine = WalkEngine(graph, seed=0)
        stepped = engine.step(np.array([0, 1, 2]))
        assert stepped[0] == DEAD
        assert stepped[1] == 0
        assert stepped[2] == 1

    def test_dead_stays_dead(self):
        graph = cycle_graph(3)
        engine = WalkEngine(graph, seed=0)
        stepped = engine.step(np.array([DEAD, 0]))
        assert stepped[0] == DEAD
        assert stepped[1] == 2

    def test_all_dead_short_circuit(self):
        engine = WalkEngine(cycle_graph(3), seed=0)
        stepped = engine.step(np.array([DEAD, DEAD]))
        assert (stepped == DEAD).all()

    def test_input_not_mutated(self):
        engine = WalkEngine(cycle_graph(3), seed=0)
        positions = np.array([0, 1])
        engine.step(positions)
        np.testing.assert_array_equal(positions, [0, 1])

    def test_steps_land_on_in_neighbors(self, social_graph):
        engine = WalkEngine(social_graph, seed=1)
        positions = np.arange(social_graph.n)
        stepped = engine.step(positions)
        for before, after in zip(positions, stepped):
            if after != DEAD:
                assert after in social_graph.in_neighbors(int(before))

    def test_step_distribution_uniform(self):
        # Hub of a bidirected star: in-neighbors are the 3 leaves.
        graph = star_graph(3, bidirected=True)
        engine = WalkEngine(graph, seed=2)
        samples = engine.step(np.zeros(30_000, dtype=np.int64))
        _, counts = np.unique(samples, return_counts=True)
        np.testing.assert_allclose(counts / 30_000, 1 / 3, atol=0.02)


class TestWalkMatrix:
    def test_shape_and_start_row(self, social_graph):
        engine = WalkEngine(social_graph, seed=3)
        walks = engine.walk_matrix(7, R=50, T=6)
        assert walks.shape == (6, 50)
        assert (walks[0] == 7).all()

    def test_rows_are_valid_transitions(self, web_graph):
        engine = WalkEngine(web_graph, seed=4)
        walks = engine.walk_matrix(3, R=20, T=5)
        for t in range(1, 5):
            for r in range(20):
                prev, curr = walks[t - 1, r], walks[t, r]
                if curr != DEAD:
                    assert curr in web_graph.in_neighbors(int(prev))

    def test_invalid_start(self, small_cycle):
        engine = WalkEngine(small_cycle, seed=0)
        with pytest.raises(VertexError):
            engine.walk_matrix(99, R=5, T=5)

    def test_invalid_counts(self, small_cycle):
        engine = WalkEngine(small_cycle, seed=0)
        with pytest.raises(ValueError):
            engine.walk_matrix(0, R=0, T=5)

    def test_determinism_per_seed(self, social_graph):
        a = WalkEngine(social_graph, seed=6).walk_matrix(0, R=10, T=5)
        b = WalkEngine(social_graph, seed=6).walk_matrix(0, R=10, T=5)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("start", [0, 3, 17])
    def test_sketch_equals_sketch_of_walk_matrix(self, web_graph, start):
        """``WalkEngine.sketch`` builds from the live loop's keys the sketch
        of the walk matrix the same seed gives, with the same draws."""
        from repro.core.walks import FlatSketch

        got = WalkEngine(web_graph, seed=8).sketch(start, R=25, T=6)
        want = FlatSketch(WalkEngine(web_graph, seed=8).walk_matrix(start, R=25, T=6))
        assert (got.T, got.R) == (want.T, want.R)
        for name in ("keys", "vertices", "counts", "offsets"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)

    def test_sketch_rejects_bad_bundle(self, small_cycle):
        engine = WalkEngine(small_cycle, seed=0)
        with pytest.raises(VertexError):
            engine.sketch(99, R=5, T=5)
        with pytest.raises(ValueError):
            engine.sketch(0, R=5, T=0)


class TestLazyGenerator:
    """The engine's shared stream is built on first use only."""

    @staticmethod
    def count_generators(monkeypatch):
        import repro.core.walks as walks
        from repro.utils.rng import ensure_rng

        made = []

        def counting(seed):
            made.append(seed)
            return ensure_rng(seed)

        monkeypatch.setattr(walks, "ensure_rng", counting)
        return made

    def test_keyed_loops_build_no_generator(self, social_graph, monkeypatch):
        made = self.count_generators(monkeypatch)
        engine = WalkEngine(social_graph, seed=3)
        starts = np.array([0, 5], dtype=np.int64)
        for _ in engine.live_walks(starts, 4, 5, stream_keys(1, 4, starts)):
            pass
        assert made == []
        walks = engine.walk_matrix(0, R=10, T=5)
        assert made == [3]
        np.testing.assert_array_equal(walks, WalkEngine(social_graph, 3).walk_matrix(0, 10, 5))

    def test_batch_scores_build_no_generator(self, social_graph, monkeypatch):
        from repro.core.config import SimRankConfig
        from repro.core.montecarlo import SingleSourceEstimator

        config = SimRankConfig(T=5, r_pair=20)
        sketch_u = SingleSourceEstimator(social_graph, 0, config, seed=9).sketch_u
        made = self.count_generators(monkeypatch)
        scores = SingleSourceEstimator(
            social_graph, 0, config, seed=9, sketch_u=sketch_u
        ).estimate_batch([1, 2, 3], R=10)
        assert made == []
        np.testing.assert_array_equal(
            scores, SingleSourceEstimator(social_graph, 0, config, seed=9).estimate_batch(
                [1, 2, 3], R=10
            )
        )

    def test_generator_seed_is_the_stream(self, social_graph):
        generator = np.random.default_rng(5)
        assert WalkEngine(social_graph, generator).rng is generator

    def test_none_seed_stays_fresh(self, social_graph):
        a = WalkEngine(social_graph).walk_matrix(0, R=50, T=5)
        b = WalkEngine(social_graph).walk_matrix(0, R=50, T=5)
        assert not np.array_equal(a, b)


class TestPositionSketch:
    """The per-step position sketch, :class:`FlatSketch`."""

    def test_counts_sum_to_alive_walks(self, social_graph):
        sketch = sketch_from_walks(social_graph, 0, R=40, T=5, seed=7)
        for t in range(5):
            assert sketch.row(t)[1].sum() <= 40

    def test_alive_fraction_monotone_on_dag(self):
        graph = path_graph(4)
        sketch = sketch_from_walks(graph, 3, R=30, T=6, seed=8)
        fractions = [sketch.alive_fraction(t) for t in range(6)]
        assert fractions[0] == 1.0
        assert fractions == sorted(fractions, reverse=True)
        assert fractions[4] == 0.0  # walk of length 4 exhausts the path

    def test_collision_value_estimates_quadratic_form(self):
        # Deterministic cycle: P^t e_u is a point mass, collision value
        # is D_w when the two walks coincide, else 0.
        graph = cycle_graph(4)
        d = np.full(4, 0.4)
        a = sketch_from_walks(graph, 0, R=10, T=4, seed=9)
        b = sketch_from_walks(graph, 0, R=10, T=4, seed=10)
        for t in range(4):
            assert a.collision_value(b, t, d) == pytest.approx(0.4)

    def test_collision_value_zero_without_overlap(self):
        graph = cycle_graph(4)
        d = np.full(4, 0.4)
        a = sketch_from_walks(graph, 0, R=5, T=2, seed=11)
        b = sketch_from_walks(graph, 2, R=5, T=2, seed=12)
        assert a.collision_value(b, 0, d) == 0.0

    def test_self_collision_equals_norm_squared(self):
        graph = cycle_graph(5)
        d = np.full(5, 0.4)
        sketch = sketch_from_walks(graph, 0, R=20, T=3, seed=13)
        # Point mass: ||sqrt(D) e_w||^2 = 0.4.
        assert sketch.self_collision_value(2, d) == pytest.approx(0.4)

    def test_symmetry_of_collision_value(self, social_graph):
        d = np.full(social_graph.n, 0.4)
        a = sketch_from_walks(social_graph, 1, R=30, T=4, seed=14)
        b = sketch_from_walks(social_graph, 2, R=30, T=4, seed=15)
        for t in range(4):
            assert a.collision_value(b, t, d) == pytest.approx(
                b.collision_value(a, t, d)
            )
        assert a.series(b, 0.6, d) == pytest.approx(b.series(a, 0.6, d))


class TestStepGiven:
    """Stepping on caller-given uniforms: :meth:`WalkEngine.step_live`
    and the keyed live-walk loop built on it."""

    def test_positional_uniform_consumption(self, social_graph):
        """Fused live walks reproduce each seeded bundle bit-identically,
        and walk r of key b draws entry (t, b·R + r) of the keyed block."""
        engine = WalkEngine(social_graph)
        R, T = 7, 5
        starts = np.array([0, 3, 9], dtype=np.int64)
        singles = [engine.walk_matrix_seeded(int(v), R, T, seed=100, salt=R) for v in starts]
        uniforms = keyed_uniforms(100, R, starts, T - 1, R)
        fused = np.full((T, starts.size * R), DEAD, dtype=np.int64)
        streams = stream_keys(100, R, starts)
        for t, positions, segments, lanes in engine.live_walks(starts, R, T, streams):
            slots = segments * R + lanes
            fused[t, slots] = positions
            if t > 0:
                previous = fused[t - 1, slots]
                degrees = social_graph.in_degrees[previous]
                offsets = (uniforms[t - 1, slots] * degrees).astype(np.int64)
                expected = social_graph.in_indices[social_graph.in_indptr[previous] + offsets]
                np.testing.assert_array_equal(positions, expected)
        for i, single in enumerate(singles):
            np.testing.assert_array_equal(fused[:, i * R : (i + 1) * R], single)

    def test_ended_walks_draw_nothing(self):
        """Walks at a vertex without in-links end before the next draw,
        and the loop stops once no walk is alive."""
        graph = path_graph(4)  # 0 has no in-link; v's only in-neighbour is v - 1
        engine = WalkEngine(graph)
        starts = np.array([0, 2], dtype=np.int64)
        steps = list(engine.live_walks(starts, 3, 6, stream_keys(1, 3, starts)))
        assert [t for t, *_ in steps] == [0, 1, 2]
        np.testing.assert_array_equal(steps[1][1], [1, 1, 1])
        np.testing.assert_array_equal(steps[1][2], [1, 1, 1])
        np.testing.assert_array_equal(steps[2][1], [0, 0, 0])

    def test_shape_mismatch_rejected(self):
        engine = WalkEngine(cycle_graph(4))
        # ValueError from the kernel; the [W] contract under the sanitizer.
        with pytest.raises((ValueError, ContractViolationError)):
            engine.step_live(np.array([0, 1]), np.array([0.5]))

    def test_walk_matrix_seeded_deterministic(self, social_graph):
        engine = WalkEngine(social_graph)
        a = engine.walk_matrix_seeded(2, 10, 5, seed=3, salt=29)
        b = engine.walk_matrix_seeded(2, 10, 5, seed=3, salt=29)
        np.testing.assert_array_equal(a, b)


class TestFlatKernels:
    def test_run_length_encode(self):
        from repro.core.walks import run_length_encode

        values, counts = run_length_encode(np.array([1, 1, 2, 5, 5, 5], dtype=np.int64))
        np.testing.assert_array_equal(values, [1, 2, 5])
        np.testing.assert_array_equal(counts, [2.0, 1.0, 3.0])
        empty_values, empty_counts = run_length_encode(np.empty(0, dtype=np.int64))
        assert empty_values.size == 0 and empty_counts.size == 0

    def test_run_length_encode_matches_diff_append_formula(self):
        """Regression for the R15 fix: the preallocated count kernel must
        be bit-identical to the old ``np.diff(np.append(...))`` version."""
        from repro.core.walks import run_length_encode

        rng = np.random.default_rng(11)
        for size in (1, 2, 7, 1000):
            sorted_values = np.sort(rng.integers(0, 50, size=size))
            values, counts = run_length_encode(sorted_values)
            starts = np.flatnonzero(
                np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
            )
            expected = np.diff(np.append(starts, sorted_values.size)).astype(
                np.float64
            )
            np.testing.assert_array_equal(values, sorted_values[starts])
            np.testing.assert_array_equal(counts, expected)
            assert counts.dtype == np.float64

    @pytest.mark.parametrize(
        "bundle",
        [
            "web",  # a live bundle on a graph with dead ends
            "path",  # every walk dies: the last steps are empty
            "all_dead_middle",  # an empty step between live ones
            "single_step",
            "no_walks",
        ],
    )
    def test_one_sort_build_matches_per_row_encode(self, web_graph, bundle):
        """The one-sort build is bit-identical to encoding each step row
        on its own: same vertices, counts, offsets and keys, same dtypes."""
        from repro.core.walks import FlatSketch, WalkEngine, run_length_encode

        if bundle == "web":
            matrix = WalkEngine(web_graph, seed=4).walk_matrix(5, 64, 9)
        elif bundle == "path":
            matrix = WalkEngine(path_graph(4), seed=4).walk_matrix(3, 20, 7)
        elif bundle == "all_dead_middle":
            matrix = np.array([[2, 2, 7], [DEAD, DEAD, DEAD], [1, DEAD, 1], [0, 3, 0]])
        elif bundle == "single_step":
            matrix = np.array([[6, 1, 6, 6]])
        else:
            matrix = np.empty((4, 0), dtype=np.int64)
        sketch = FlatSketch(matrix)

        vertex_rows, count_rows, offsets = [], [], [0]
        for row in np.asarray(matrix, dtype=np.int64):
            vertices, counts = run_length_encode(np.sort(row[row >= 0]))
            vertex_rows.append(vertices)
            count_rows.append(counts)
            offsets.append(offsets[-1] + vertices.size)
        steps = np.repeat(np.arange(len(vertex_rows), dtype=np.int64), np.diff(offsets))
        expected = {
            "vertices": np.concatenate(vertex_rows),
            "counts": np.concatenate(count_rows),
            "offsets": np.asarray(offsets, dtype=np.int64),
        }
        expected["keys"] = (steps << 32) | expected["vertices"]
        for name, array in expected.items():
            got = getattr(sketch, name)
            assert got.dtype == array.dtype, name
            np.testing.assert_array_equal(got, array, err_msg=name)
        if bundle in ("path", "all_dead_middle"):
            assert np.any(np.diff(sketch.offsets) == 0)  # an empty step is covered

    def test_tagged_collisions_matches_flat_sketch(self, social_graph):
        from repro.core.walks import STEP_SHIFT, FlatSketch, WalkEngine, tagged_collisions

        engine = WalkEngine(social_graph, seed=21)
        R, T = 9, 4
        u_sketch = FlatSketch(engine.walk_matrix(1, 30, T))
        bundles = [engine.walk_matrix(v, R, T) for v in (2, 5, 7)]
        diagonal = np.full(social_graph.n, 0.4)
        # The whole loop at once: every live walk's step-tagged key, in
        # the (step, bundle) cell t·3 + i.
        steps, slots = np.nonzero(np.concatenate(bundles, axis=1) >= 0)
        positions = np.concatenate(bundles, axis=1)[steps, slots]
        keys = (steps.astype(np.int64) << STEP_SHIFT) | positions
        cells = steps.astype(np.int64) * 3 + slots // R
        mass = tagged_collisions(
            keys, cells, u_sketch.keys, u_sketch.counts, diagonal, T * 3
        ).reshape(T, 3)
        for t in range(T):
            for i, bundle in enumerate(bundles):
                expected = FlatSketch(bundle).collision_value(u_sketch, t, diagonal)
                assert mass[t, i] / (R * u_sketch.R) == pytest.approx(expected, abs=1e-15)
        # series() is the c-weighted sum of the same per-step values, over
        # the steps both sketches have.
        for bundle in bundles:
            for v_sketch in (FlatSketch(bundle), FlatSketch(bundle[: T - 1])):
                terms = [
                    0.6**t * v_sketch.collision_value(u_sketch, t, diagonal)
                    for t in range(v_sketch.T)
                ]
                value, meetings = v_sketch.series(u_sketch, 0.6, diagonal)
                assert value == pytest.approx(sum(terms), abs=1e-15)
                assert meetings == sum(term > 0.0 for term in terms)

    def test_tagged_collisions_rejects_bad_layout(self):
        from repro.core.walks import tagged_collisions

        with pytest.raises((ValueError, ContractViolationError)):
            tagged_collisions(
                np.zeros(5, dtype=np.int64),
                np.zeros(6, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.ones(1),
                np.ones(3),
                3,
            )

    def test_segment_self_collisions_matches_flat_sketch(self, social_graph):
        from repro.core.walks import FlatSketch, WalkEngine, segment_self_collisions

        engine = WalkEngine(social_graph, seed=22)
        R, T = 8, 4
        bundles = [engine.walk_matrix(v, R, T) for v in (0, 4)]
        diagonal = np.full(social_graph.n, 0.4)
        segments = np.repeat(np.arange(2, dtype=np.int64), R)
        for t in range(T):
            positions = np.concatenate([b[t] for b in bundles])
            alive = positions >= 0  # the kernel takes live walks only
            sums = segment_self_collisions(positions[alive], segments[alive], diagonal, R, 2)
            for i, bundle in enumerate(bundles):
                expected = FlatSketch(bundle).self_collision_value(t, diagonal)
                assert sums[i] == pytest.approx(expected, abs=1e-15)
