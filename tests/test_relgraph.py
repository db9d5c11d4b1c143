import numpy as np
import numpy.testing as npt
import pytest

from scdkit.corpus import QMatrix, ResponseSet
from scdkit.relgraph import build_relation_graph, directed_split
from conftest import small_qmatrix, small_responses


class TestBuild:
    def test_edges_are_sorted_pairs(self, small_world):
        g = small_world["graph"]
        assert g.se_edges.shape == (10, 2)
        assert g.ec_edges.shape == (6, 2)
        order = np.lexsort((g.se_edges[:, 1], g.se_edges[:, 0]))
        npt.assert_array_equal(order, np.arange(10))

    def test_score_does_not_matter(self):
        q = small_qmatrix()
        a = build_relation_graph(small_responses(), q)
        b = build_relation_graph(small_responses(scores=np.zeros(10)), q)
        npt.assert_array_equal(a.se_edges, b.se_edges)

    def test_exercise_count_mismatch_rejected(self):
        rs = small_responses()
        q = QMatrix(np.array([0]), np.array([0]), 99, 1, ("c0",))
        with pytest.raises(ValueError, match="covers 99"):
            build_relation_graph(rs, q)

    def test_uncovered_train_exercise_rejected(self):
        rs = small_responses()
        q = QMatrix(np.array([0, 1, 2, 3]), np.array([0, 0, 0, 0]), 5, 1, ("c0",))
        with pytest.raises(ValueError, match="missing from the Q-matrix"):
            build_relation_graph(rs, q)

    def test_empty_train_rejected(self):
        rs = small_responses().replace_records(np.zeros(10, dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            build_relation_graph(rs, small_qmatrix())


class TestDirectedSplit:
    def test_csr_oracle_tiny_graph(self):
        # two students, two exercises: s0-{e0,e1}, s1-{e1}
        rs = ResponseSet(
            np.array([0, 0, 1], dtype=np.intp),
            np.array([0, 1, 1], dtype=np.intp),
            np.array([1, 0, 1], dtype=np.int64),
            2,
            2,
            ("a", "b"),
            ("x", "y"),
        )
        q = QMatrix(np.array([0, 1]), np.array([0, 0]), 2, 1, ("c",))
        split = directed_split(build_relation_graph(rs, q))
        npt.assert_array_equal(split.e2s.offsets, [0, 2, 3])
        npt.assert_array_equal(split.e2s.tails, [0, 1, 1])
        npt.assert_array_equal(split.e2s.heads, [0, 0, 1])
        npt.assert_array_equal(split.s2e.offsets, [0, 1, 3])
        npt.assert_array_equal(split.s2e.tails, [0, 0, 1])
        npt.assert_array_equal(split.c2e.offsets, [0, 1, 2])
        npt.assert_array_equal(split.e2c.offsets, [0, 2])
        npt.assert_array_equal(split.e2c.tails, [0, 1])

    def test_indegrees_match_record_counts(self, small_world):
        split, train = small_world["split"], small_world["train"]
        npt.assert_array_equal(split.e2s.indegrees(), train.student_counts())
        npt.assert_array_equal(
            split.s2e.indegrees(), np.bincount(train.exercises, minlength=5)
        )

    def test_edge_conservation_between_directions(self, small_world):
        split = small_world["split"]
        assert split.e2s.n_edges == split.s2e.n_edges == 10
        assert split.c2e.n_edges == split.e2c.n_edges == 6

    def test_degree_accessor_and_bounds(self, small_world):
        split = small_world["split"]
        assert split.e2s.indegrees()[0] == 3
        with pytest.raises(ValueError, match="direction"):
            split.adjacency("s2s")

