import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from scdkit.corpus import QMatrix, ResponseSet
from scdkit import viewgen
from scdkit.relgraph import build_relation_graph, directed_split
from scdkit.viewgen import (
    DropoutParams,
    edge_importance,
    generate_random_view,
    generate_view_pair,
    matched_uniform_p,
    retention_prob,
    retention_table,
)

DEFAULTS = DropoutParams()


def star_split(degrees):
    """One student per entry, each answering `degree` distinct exercises."""
    students, exercises = [], []
    e = 0
    for s, d in enumerate(degrees):
        for _ in range(d):
            students.append(s)
            exercises.append(e)
            e += 1
    rs = ResponseSet(
        np.array(students, dtype=np.intp),
        np.array(exercises, dtype=np.intp),
        np.zeros(len(students), dtype=np.int64),
        len(degrees),
        e,
        tuple(f"s{i}" for i in range(len(degrees))),
        tuple(f"e{i}" for i in range(e)),
    )
    q = QMatrix(np.arange(e, dtype=np.intp), np.zeros(e, dtype=np.intp), e, 1, ("c0",))
    return directed_split(build_relation_graph(rs, q))


class TestImportanceCurve:
    def test_hand_computed_values(self):
        npt.assert_allclose(edge_importance(1, DEFAULTS), 100.49917080713044, rtol=1e-12)
        npt.assert_allclose(edge_importance(3, DEFAULTS), 0.9074903611134431, rtol=1e-12)
        npt.assert_allclose(edge_importance(20, DEFAULTS), 0.3337525099544466, rtol=1e-12)
        npt.assert_allclose(edge_importance(100, DEFAULTS), 0.21714252599732833, rtol=1e-12)

    def test_retention_clamps_both_sides(self):
        assert retention_prob(edge_importance(1, DEFAULTS), 0.3) == 1.0
        assert retention_prob(edge_importance(100, DEFAULTS), 0.3) == 0.3
        mid = retention_prob(edge_importance(3, DEFAULTS), 0.3)
        assert mid == pytest.approx(0.9074903611134431, rel=1e-12)

    def test_degree_must_be_positive(self):
        with pytest.raises(ValueError):
            edge_importance(0, DEFAULTS)

    def test_monotone_nonincreasing(self):
        probs = [retention_prob(edge_importance(d, DEFAULTS), 0.3) for d in range(1, 1001)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DropoutParams(k=0.0)
        with pytest.raises(ValueError):
            DropoutParams(theta=-1.0)
        with pytest.raises(ValueError):
            DropoutParams(p_min=0.0)
        with pytest.raises(ValueError):
            DropoutParams(p_min=1.5)


class TestViews:
    def test_shapes_and_concept_edges_untouched(self, small_world):
        split = small_world["split"]
        for view in generate_view_pair(split, DEFAULTS, np.random.default_rng(0)):
            assert view.kept_e2s.shape == (split.e2s.n_edges,)
            assert view.kept_s2e.shape == (split.s2e.n_edges,)
            assert [f.name for f in dataclasses.fields(view)] == ["kept_e2s", "kept_s2e"]

    def test_deterministic_per_seed(self, small_world):
        split = small_world["split"]
        pair_a = generate_view_pair(split, DEFAULTS, np.random.default_rng(7))
        pair_b = generate_view_pair(split, DEFAULTS, np.random.default_rng(7))
        for a, b in zip(pair_a, pair_b, strict=True):
            npt.assert_array_equal(a.kept_e2s, b.kept_e2s)
            npt.assert_array_equal(a.kept_s2e, b.kept_s2e)

    def test_pair_views_differ_in_general(self):
        split = star_split([40] * 5)
        v1, v2 = generate_view_pair(split, DEFAULTS, np.random.default_rng(0))
        assert not np.array_equal(v1.kept_e2s, v2.kept_e2s)

    def test_p_min_one_keeps_everything(self, small_world):
        split = small_world["split"]
        for view in generate_view_pair(split, DropoutParams(p_min=1.0), np.random.default_rng(3)):
            assert view.kept_e2s.all() and view.kept_s2e.all()

    def test_low_degree_edges_always_survive(self):
        # degrees 1 and 2 sit above the t=1 threshold with default params
        split = star_split([1, 2, 2, 1])
        rng = np.random.default_rng(5)
        for _ in range(25):  # 50 views
            assert all(v.kept_e2s.all() for v in generate_view_pair(split, DEFAULTS, rng))

    def test_random_view_validates_probability(self, small_world):
        split = small_world["split"]
        with pytest.raises(ValueError):
            generate_random_view(split, 0.0, np.random.default_rng(0))
        view = generate_random_view(split, 1.0, np.random.default_rng(0))
        assert view.kept_e2s.all() and view.kept_s2e.all()


def per_edge_probs(split, p):
    """The e2s and s2e retention probabilities, one edge at a time from its
    head's degree."""
    out = []
    for adj in (split.e2s, split.s2e):
        degrees = adj.indegrees()
        out.append(np.array(
            [retention_prob(edge_importance(int(degrees[h]), p), p.p_min) for h in adj.heads]
        ))
    return out


class TestSharedDraw:
    def test_views_take_one_uniform_per_edge_e2s_first(self):
        split = star_split([1, 3, 8, 20, 20])
        p_e2s, p_s2e = per_edge_probs(split, DEFAULTS)
        p_uniform = matched_uniform_p(split, DEFAULTS)
        pair = generate_view_pair(split, DEFAULTS, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        randoms = [generate_random_view(split, p_uniform, rng) for _ in range(2)]
        for seed, views, (a, b) in ((11, pair, (p_e2s, p_s2e)),
                                    (12, randoms, (p_uniform, p_uniform))):
            ref = np.random.default_rng(seed)
            for view in views:
                npt.assert_array_equal(view.kept_e2s, ref.random(split.e2s.n_edges) < a)
                npt.assert_array_equal(view.kept_s2e, ref.random(split.s2e.n_edges) < b)

    def test_each_edge_takes_the_uniform_at_its_head_tail_position(self):
        # every student answers a random subset of exercises: s2e is stored
        # student-major, so its order is not its (head, tail) order
        rng = np.random.default_rng(4)
        students, exercises = np.nonzero(rng.random((8, 6)) < 0.6)
        rs = ResponseSet(
            students.astype(np.intp), exercises.astype(np.intp),
            np.zeros(len(students), dtype=np.int64), 8, 6,
            tuple(f"s{i}" for i in range(8)), tuple(f"e{i}" for i in range(6)),
        )
        q = QMatrix(np.arange(6, dtype=np.intp), np.zeros(6, dtype=np.intp), 6, 1, ("c0",))
        split = directed_split(build_relation_graph(rs, q))
        stored = {}  # each direction's (head, tail) pairs in stored order
        for d in ("e2s", "s2e"):
            adj = split.adjacency(d)
            stored[d] = list(zip(adj.heads.tolist(), adj.tails.tolist()))
        assert stored["s2e"] != sorted(stored["s2e"])
        p_e2s, p_s2e = per_edge_probs(split, DEFAULTS)
        p_uniform = matched_uniform_p(split, DEFAULTS)
        pair = generate_view_pair(split, DEFAULTS, np.random.default_rng(11))
        randoms = [generate_random_view(split, p_uniform, np.random.default_rng(12))]
        for seed, views, probs in ((11, pair, (p_e2s, p_s2e)), (12, randoms, (p_uniform,) * 2)):
            ref = np.random.default_rng(seed)
            for view in views:
                for d, kept, p in zip(("e2s", "s2e"), (view.kept_e2s, view.kept_s2e), probs):
                    u = ref.random(len(kept))  # one per edge, in (head, tail) order
                    position = {edge: i for i, edge in enumerate(sorted(stored[d]))}
                    expected = np.array([u[position[edge]] for edge in stored[d]]) < p
                    npt.assert_array_equal(kept, expected)

    def test_probabilities_computed_once_per_pair_and_per_audit(self, monkeypatch):
        calls = []
        edge_probs = viewgen._edge_probs
        monkeypatch.setattr(viewgen, "_edge_probs", lambda *a: calls.append(a) or edge_probs(*a))
        split = star_split([1, 3, 8, 20])
        generate_view_pair(split, DEFAULTS, np.random.default_rng(0))
        assert len(calls) == 2  # e2s and s2e
        calls.clear()
        retention_table(split, DEFAULTS, draws=50, rng=np.random.default_rng(0))
        assert len(calls) == 2


class TestMatching:
    def test_matched_probability_hand_case(self):
        # e2s edge probs: 1 edge at degree 1 (p=1), 3 edges at degree 3;
        # s2e side: 4 exercises of degree 1 (p=1)
        split = star_split([1, 3])
        p3 = 0.9074903611134431
        expected = (1.0 + 3 * p3 + 4 * 1.0) / 8
        npt.assert_allclose(matched_uniform_p(split, DEFAULTS), expected, rtol=1e-12)

    def test_matched_probability_in_unit_interval(self):
        split = star_split([1, 5, 17, 160])
        p = matched_uniform_p(split, DEFAULTS)
        assert 0.3 <= p <= 1.0


class TestRetentionTable:
    def test_rows_cover_observed_degrees(self):
        split = star_split([1, 3, 20])
        rows = retention_table(split, DEFAULTS, draws=200, rng=np.random.default_rng(0))
        assert [r["degree"] for r in rows] == [1, 3, 20]
        by_degree = {r["degree"]: r for r in rows}
        assert by_degree[1]["retention_p"] == 1.0
        assert by_degree[1]["empirical"] == 1.0  # p=1 edges can never drop
        assert by_degree[20]["retention_p"] == pytest.approx(0.3337525099544466)

    def test_empirical_tracks_probability(self):
        split = star_split([8] * 30)  # 240 edges at degree 8
        rows = retention_table(split, DEFAULTS, draws=400, rng=np.random.default_rng(1))
        row8 = [r for r in rows if r["degree"] == 8][0]
        p = row8["retention_p"]
        sigma = np.sqrt(p * (1 - p) / (240 * 400))
        assert abs(row8["empirical"] - p) < 4 * sigma
