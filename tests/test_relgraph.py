import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdkit.corpus import QMatrix, ResponseSet
from scdkit.relgraph import RelationGraph, build_relation_graph, directed_split
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
        with pytest.raises(ValueError, match="^ec_edges leaves exercise 4 without a concept$"):
            build_relation_graph(rs, q)

    def test_empty_train_rejected(self):
        rs = small_responses().replace_records(np.zeros(10, dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            build_relation_graph(rs, small_qmatrix())


@st.composite
def pair_lists(draw):
    """A random unsorted (student, exercise) list with duplicates, and a random
    (exercise, concept) list that is distinct and sorted, as `load_qmatrix`
    returns it, over node counts that may leave students, exercises and
    concepts without edges in a direction; every exercise gets a concept."""
    m, n, k = (draw(st.integers(1, 6)) for _ in range(3))
    se = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), min_size=1,
                       max_size=30))
    ec = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)), max_size=20))
    ec = sorted({*ec, *((e, k - 1) for e in set(range(n)) - {e for e, _ in ec})})
    return se, ec, m, n, k


class TestDirectedSplit:
    @settings(max_examples=100, deadline=None)
    @given(pair_lists())
    # the tiny graph: two students, two exercises, s0-{e0,e1}, s1-{e1}
    @example(([(0, 0), (0, 1), (1, 1)], [(0, 0), (1, 0)], 2, 2, 1))
    # unsorted s-e pairs with a duplicate, and the last head of e2s, s2e and
    # e2c without edges (c2e has none such: every exercise carries a concept)
    @example(([(1, 0), (0, 0), (1, 0)], [(0, 0), (0, 1), (1, 0)], 3, 2, 3))
    def test_edge_list_oracle(self, graph):
        se, ec, m, n, k = graph
        students, exercises = (np.array(c, dtype=np.intp) for c in zip(*se))
        rs = ResponseSet(students, exercises, np.ones(len(se), dtype=np.int64), m, n,
                         tuple(f"s{i}" for i in range(m)), tuple(f"e{i}" for i in range(n)))
        ex, co = (np.array(c, dtype=np.intp) for c in zip(*ec))
        q = QMatrix(ex, co, n, k, tuple(f"c{i}" for i in range(k)))
        split = directed_split(build_relation_graph(rs, q))
        # each reverse direction lists its pairs swapped, in the forward's order
        expected = {
            "e2s": (sorted(set(se)), m),
            "s2e": ([(e, s) for s, e in sorted(set(se))], n),
            "c2e": (sorted(set(ec)), n),
            "e2c": ([(c, e) for e, c in sorted(set(ec))], k),
        }
        for direction, (pairs, n_heads) in expected.items():
            adj = split.adjacency(direction)
            assert adj.n_heads == n_heads and adj.n_edges == len(pairs)
            for got, column in ((adj.heads, 0), (adj.tails, 1)):
                assert got.dtype == np.intp
                npt.assert_array_equal(got, np.array([pair[column] for pair in pairs], np.intp))
            counts = [sum(h == head for h, _ in pairs) for head in range(n_heads)]
            npt.assert_array_equal(adj.indegrees(), counts)  # trailing zeros kept
            assert [pairs[i] for i in adj.head_order] == sorted(pairs)

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

    # a RelationGraph refuses a bad pair list when it is built, so no split meets one
    @pytest.mark.parametrize("name", ["se_edges", "ec_edges"])
    @pytest.mark.parametrize("edit", ["swapped", "repeated", "second column back"])
    def test_out_of_order_pair_list_refused(self, small_world, name, edit):
        g = small_world["graph"]
        pairs = getattr(g, name).copy()
        if edit == "swapped":  # two rows out of order
            pairs[[1, 2]] = pairs[[2, 1]]
        elif edit == "repeated":  # a duplicate is not strictly increasing
            pairs[2] = pairs[1]
        else:  # the first column ties and the second steps back
            first = pairs[1, 0]
            pairs[1:3] = [[first, 2], [first, 1]]
        with pytest.raises(ValueError, match=f"{name} must be distinct pairs sorted"):
            RelationGraph(**{**vars(g), name: pairs})

    @pytest.mark.parametrize("name", ["se_edges", "ec_edges"])
    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("edit", ["too large", "negative"])
    def test_out_of_range_id_refused(self, small_world, name, column, edit):
        g = small_world["graph"]
        pairs = getattr(g, name).copy()
        counts = {"se_edges": (4, 5), "ec_edges": (5, 3)}[name]
        # the last pair's id past its count, or the first pair's below 0: still sorted
        row, bad = (-1, counts[column]) if edit == "too large" else (0, -1)
        pairs[row, column] = bad
        which = ("first", "second")[column]
        message = f"{name} names id {bad} in its {which} column, outside [0, {counts[column]})"
        with pytest.raises(ValueError, match=re.escape(message)):
            RelationGraph(**{**vars(g), name: pairs})

    @pytest.mark.parametrize("name", ["se_edges", "ec_edges"])
    @pytest.mark.parametrize(
        "edit",
        [lambda a: np.hstack([a, a[:, :1]]), lambda a: a[:, :1], np.ravel],
        ids=["3 columns", "1 column", "flattened"],
    )
    def test_pair_list_of_the_wrong_shape_refused(self, small_world, name, edit):
        g = small_world["graph"]
        pairs = edit(getattr(g, name))
        message = f"array {name} has shape {pairs.shape}, expected (n, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RelationGraph(**{**vars(g), name: pairs})

    # an exercise is scored over its concepts: the first one without any is
    # named, whether it leads the list, sits inside it or is the last head
    @pytest.mark.parametrize(
        "dropped, bad", [({0, 3}, 0), ({2, 4}, 2), ({4}, 4)], ids=["first", "middle", "last head"]
    )
    def test_an_exercise_without_a_concept_refused(self, small_world, dropped, bad):
        g = small_world["graph"]
        pairs = g.ec_edges[~np.isin(g.ec_edges[:, 0], list(dropped))]
        message = f"ec_edges leaves exercise {bad} without a concept"
        with pytest.raises(ValueError, match=f"^{message}$"):
            RelationGraph(**{**vars(g), "ec_edges": pairs})

    @pytest.mark.parametrize("name", ["se_edges", "ec_edges"])
    def test_float_pair_list_refused(self, small_world, name):
        # the ids would truncate back to the stored ones: an intp cast hides them
        g = small_world["graph"]
        message = f"array {name} has dtype float64, expected integers"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RelationGraph(**{**vars(g), name: getattr(g, name) + 0.4})
