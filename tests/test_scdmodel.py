import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdkit.corpus import QMatrix, ResponseSet
from scdkit.evalkit import infer
from scdkit.relgraph import (
    DIRECTIONS,
    Adjacency,
    DirectedSplit,
    RelationGraph,
    build_relation_graph,
    directed_split,
)
from scdkit.scdmodel import (
    AdamState,
    Checkpoint,
    Diagnosis,
    NodeStates,
    diagnose,
    gcn_forward,
    init_params,
    load_checkpoint,
    param_names,
    predict,
    save_checkpoint,
)
from scdkit.viewgen import View
from scdkit import diffcore as dc
from conftest import corrupt_member, full_then_rows, grad_check, seeded_sum

FIXTURE = Path(__file__).parent / "fixtures" / "checkpoint_fca24c9.npz"


def tiny_split():
    # s0-{e0,e1}, s1-{e1}; both exercises on one concept
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
    return directed_split(build_relation_graph(rs, q))


def concept_split(exercises, concepts, n_exercises: int, n_concepts: int):
    """A DirectedSplit whose only edges are the given (exercise, concept)
    pairs, listed in sorted order: what predict reads of a graph."""
    ec = np.stack([np.asarray(exercises), np.asarray(concepts)], axis=1)
    graph = RelationGraph(np.zeros((0, 2), dtype=np.intp), ec, 1, n_exercises, n_concepts)
    return directed_split(graph)


def kept_mask(view, direction):
    """The view's mask over one direction's edges; concept edges are never masked."""
    if view is None:
        return None
    return {"e2s": view.kept_e2s, "s2e": view.kept_s2e}.get(direction)


def numpy_layer(split, params, layer, view=None):
    """Independent plain-loop replica of one aggregation layer, with the
    paper's attention logit [head, neighbor] @ w over full (2d, 1) weights.

    Returns the next (student, exercise, concept) states and, per direction,
    the per-edge attention weights over the edges the view keeps.
    """

    def seg_softmax(logits, heads):
        out = np.zeros_like(logits)
        for h in set(heads.tolist()):
            sel = heads == h
            e = np.exp(logits[sel] - logits[sel].max())
            out[sel] = e / e.sum()
        return out

    def aggregate(h_emb, t_emb, adj, w, mask):
        heads, tails = adj.heads, adj.tails
        if mask is not None:
            heads, tails = heads[mask], tails[mask]
        agg = np.zeros_like(h_emb)
        if len(heads) == 0:
            return agg, np.zeros(0)
        cat = np.concatenate([h_emb[heads], t_emb[tails]], axis=1)
        alpha = seg_softmax((cat @ w).ravel(), heads)
        for a, h, t in zip(alpha, heads, tails):
            agg[h] += a * t_emb[t]
        return agg, alpha

    s, e, c = params["student_emb"], params["exercise_emb"], params["concept_emb"]
    w = {d: params[f"attn{layer}_{d}"] for d in DIRECTIONS}
    mask_e2s = view.kept_e2s if view is not None else None
    mask_s2e = view.kept_s2e if view is not None else None
    agg_s, a_e2s = aggregate(s, e, split.e2s, w["e2s"], mask_e2s)
    agg_e_stu, a_s2e = aggregate(e, s, split.s2e, w["s2e"], mask_s2e)
    agg_e_con, a_c2e = aggregate(e, c, split.c2e, w["c2e"], None)
    agg_c, a_e2c = aggregate(c, e, split.e2c, w["e2c"], None)
    alphas = {"e2s": a_e2s, "s2e": a_s2e, "c2e": a_c2e, "e2c": a_e2c}
    return agg_s + s, agg_e_stu + agg_e_con + e, agg_c + c, alphas


def random_split(rng):
    """A small random graph with students, exercises and concepts that have
    no edges in some directions."""
    n_students = int(rng.integers(1, 7))
    n_exercises = int(rng.integers(1, 7))
    n_concepts = int(rng.integers(1, 4))
    concepts = rng.integers(0, n_concepts, size=n_exercises)  # one each; some concepts unused
    students, exercises = [], []
    for s in range(n_students):
        answered = np.flatnonzero(rng.random(n_exercises) < 0.5)  # possibly none
        students.extend([s] * len(answered))
        exercises.extend(answered.tolist())
    if not students:
        students, exercises = [0], [0]
    rs = ResponseSet(
        np.array(students, dtype=np.intp),
        np.array(exercises, dtype=np.intp),
        rng.integers(0, 2, len(students)).astype(np.int64),
        n_students,
        n_exercises,
        tuple(f"s{i}" for i in range(n_students)),
        tuple(f"e{j}" for j in range(n_exercises)),
    )
    q = QMatrix(
        np.arange(n_exercises, dtype=np.intp),
        concepts.astype(np.intp),
        n_exercises,
        n_concepts,
        tuple(f"c{k}" for k in range(n_concepts)),
    )
    return directed_split(build_relation_graph(rs, q)), (n_students, n_exercises, n_concepts)


class TestInit:
    def test_shapes_and_dim_default(self):
        p = init_params(4, 5, 3, n_layers=2, seed=0)
        assert p.dim == 3 and p.n_layers == 2
        assert p["student_emb"].shape == (4, 3)
        assert p["attn1_c2e"].shape == (3, 1)
        assert p["w_predict"].shape == (3, 3)
        assert set(p) == set(init_params(4, 5, 3, seed=1))

    def test_explicit_dim(self):
        p = init_params(2, 2, 3, dim=8, n_layers=1)
        assert p["student_emb"].shape == (2, 8)
        assert p["w_student_diag"].shape == (8, 3)

    def test_seed_controls_values(self):
        a = init_params(2, 2, 2, seed=5)["student_emb"]
        b = init_params(2, 2, 2, seed=5)["student_emb"]
        c = init_params(2, 2, 2, seed=6)["student_emb"]
        npt.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            init_params(0, 2, 2)
        with pytest.raises(ValueError):
            init_params(2, 2, 2, n_layers=0)
        with pytest.raises(ValueError, match="dim"):
            init_params(2, 2, 2, dim=0)


class TestForward:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        logit_scale=st.sampled_from([1.0, 3000.0]),
        drop=st.sampled_from(["none", "random", "all"]),
    )
    def test_single_layer_matches_numpy_replica(self, seed, logit_scale, drop):
        """The model, fed only the neighbor half w[d:] of a full random (2d, 1)
        attention weight, matches the replica of [head, neighbor] @ w: the
        head half is inert."""
        rng = np.random.default_rng(seed)
        split, counts = random_split(rng)
        dim = int(rng.integers(1, 4))
        params = init_params(*counts, dim=dim, n_layers=1, seed=seed)
        full = dict(params)
        for d in DIRECTIONS:
            # the init bound; 3000 drives attention logits to the order of +-1000
            bound = logit_scale / np.sqrt(2 * dim)
            full[f"attn0_{d}"] = rng.uniform(-bound, bound, (2 * dim, 1))
            params[f"attn0_{d}"] = full[f"attn0_{d}"][dim:]
        view = None
        if drop != "none":
            keep = 0.5 if drop == "random" else 0.0
            view = View(
                kept_e2s=rng.random(split.e2s.n_edges) < keep,
                kept_s2e=rng.random(split.s2e.n_edges) < keep,
            )
        states = gcn_forward(params, split, view=view)
        s1, e1, c1, alphas = numpy_layer(split, full, 0, view)
        tol = 1e-12 * logit_scale
        npt.assert_allclose(states.students[1].value, s1, rtol=0, atol=tol)
        npt.assert_allclose(states.exercises[1].value, e1, rtol=0, atol=tol)
        npt.assert_allclose(states.concepts[1].value, c1, rtol=0, atol=tol)
        for direction, expected in alphas.items():
            alpha = states.attention[direction][0]
            assert np.all(np.isfinite(alpha))
            npt.assert_allclose(alpha, expected, rtol=0, atol=tol)
            adj = split.adjacency(direction)
            mask = kept_mask(view, direction)
            heads = adj.heads if mask is None else adj.heads[mask]
            sums = np.bincount(heads, weights=alpha, minlength=adj.n_heads)
            occupied = np.bincount(heads, minlength=adj.n_heads) > 0
            npt.assert_allclose(sums[occupied], 1.0, rtol=0, atol=1e-12)

    def test_attention_normalized_per_head(self, small_world):
        split = small_world["split"]
        params = init_params(4, 5, 3, seed=1)
        states = gcn_forward(params, split)
        for direction in ("e2s", "s2e", "c2e", "e2c"):
            adj = split.adjacency(direction)
            for layer_alpha in states.attention[direction]:
                sums = np.bincount(adj.heads, weights=layer_alpha, minlength=adj.n_heads)
                occupied = adj.indegrees() > 0
                npt.assert_allclose(sums[occupied], 1.0, atol=1e-12)

    def test_masked_out_node_passes_residual(self):
        split = tiny_split()
        params = init_params(2, 2, 1, dim=2, n_layers=1, seed=0)
        # drop both of s0's incoming edges, keep s1's
        view = View(
            kept_e2s=np.array([False, False, True]),
            kept_s2e=np.ones(3, dtype=bool),
        )
        states = gcn_forward(params, split, view=view)
        npt.assert_array_equal(states.students[1].value[0], params["student_emb"][0])
        assert not np.array_equal(states.students[1].value[1], params["student_emb"][1])

    def test_all_edges_dropped_returns_embeddings(self):
        split = tiny_split()
        params = init_params(2, 2, 1, dim=2, n_layers=2, seed=0)
        view = View(kept_e2s=np.zeros(3, dtype=bool), kept_s2e=np.zeros(3, dtype=bool))
        states = gcn_forward(params, split, view=view)
        npt.assert_array_equal(states.final_students.value, params["student_emb"])
        # exercises still hear from concepts
        assert not np.array_equal(states.final_exercises.value, params["exercise_emb"])

    def test_full_view_bitwise_equals_no_view(self, small_world):
        split = small_world["split"]
        params = init_params(4, 5, 3, seed=2)
        view = View(
            kept_e2s=np.ones(split.e2s.n_edges, dtype=bool),
            kept_s2e=np.ones(split.s2e.n_edges, dtype=bool),
        )
        a = gcn_forward(params, split)
        b = gcn_forward(params, split, view=view)
        npt.assert_array_equal(a.final_students.value, b.final_students.value)
        npt.assert_array_equal(a.final_exercises.value, b.final_exercises.value)


def draw_rows(rng, m: int, n: int):
    """Sorted distinct student and exercise ids, as np.unique returns them;
    either may be empty."""
    return (
        np.unique(rng.integers(0, m, size=int(rng.integers(0, 2 * m)))),
        np.unique(rng.integers(0, n, size=int(rng.integers(0, 2 * n)))),
    )


class TestFinalRows:
    """gcn_forward(..., rows=...) against the full forward, then its rows,
    bit for bit."""

    @staticmethod
    def rows_loss(states, nodes, rng):
        # reads every final row of the states through the diagnosis heads,
        # like the response loss: the squares of two weighted sums
        diag = diagnose(states, nodes)
        w_s = rng.normal(size=diag.h_student.value.shape)
        w_e = rng.normal(size=diag.h_exercise.value.shape)
        return dc.l2_norm_sq(seeded_sum(diag.h_student, w_s), seeded_sum(diag.h_exercise, w_e))

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        drop=st.sampled_from(["none", "random", "all"]),
        pick=st.sampled_from(["random", "empty", "one", "all"]),
    )
    def test_rows_match_full_forward_bitwise(self, seed, drop, pick):
        rng = np.random.default_rng(seed)
        split, (m, n, k) = random_split(rng)
        n_layers = int(rng.integers(1, 4))
        params = init_params(m, n, k, dim=int(rng.integers(1, 5)), n_layers=n_layers, seed=seed)
        view = None
        if drop != "none":
            keep = 0.5 if drop == "random" else 0.0
            view = View(
                kept_e2s=rng.random(split.e2s.n_edges) < keep,
                kept_s2e=rng.random(split.s2e.n_edges) < keep,
            )
        if pick == "random":
            rows = draw_rows(rng, m, n)
        elif pick == "empty":
            rows = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        elif pick == "one":
            rows = np.array([rng.integers(0, m)]), np.array([rng.integers(0, n)])
        else:
            rows = np.arange(m), np.arange(n)

        runs = []
        for rows_arg in (None, rows):
            nodes = params.wrap()
            states = gcn_forward(params, split, view=view, nodes=nodes, rows=rows_arg)
            # backward frees the interior values, so keep copies of the states
            values = [
                [node.value.copy() for node in layers]
                for layers in (states.students, states.exercises, states.concepts)
            ]
            read = full_then_rows(states, rows) if rows_arg is None else states
            loss_rng = np.random.default_rng(seed)  # the same loss weights for both
            self.rows_loss(read, nodes, loss_rng).backward()
            runs.append((states, values, nodes))
        (full, full_values, full_nodes), (part, part_values, part_nodes) = runs

        assert part.rows is not None and len(part.concepts) == n_layers  # no final concepts
        for layer in range(n_layers):  # every layer but the last is computed in full
            for a, b in zip(full_values, part_values):
                assert a[layer].tobytes() == b[layer].tobytes()
        fs, ps = full_values[0][-1], part_values[0][-1]
        fe, pe = full_values[1][-1], part_values[1][-1]
        assert fs[rows[0]].tobytes() == ps.tobytes()
        assert fe[rows[1]].tobytes() == pe.tobytes()

        kept_heads = {"e2s": rows[0], "s2e": rows[1], "c2e": rows[1], "e2c": []}
        for direction, kept in kept_heads.items():
            adj = split.adjacency(direction)
            mask = kept_mask(view, direction)
            heads = adj.heads if mask is None else adj.heads[mask]
            expected = full.attention[direction][-1][np.isin(heads, kept)]
            assert part.attention[direction][-1].tobytes() == expected.tobytes()

        for name in params:
            g_full, g_part = full_nodes[name].grad, part_nodes[name].grad
            assert (g_full is None) == (g_part is None), name
            if g_full is not None:
                assert g_full.tobytes() == g_part.tobytes(), name

    @pytest.mark.parametrize(
        "students, exercises",
        [
            ([2, 1], [0]),  # descending
            ([1, 1], [0]),  # repeated
            ([0], [0, 5]),  # past the last exercise
            ([-1, 0], [0]),  # negative
            ([[0, 1]], [0]),  # not 1-d
            ([0.0], [0]),  # not integer ids
        ],
    )
    def test_rows_that_np_unique_would_not_return_are_refused(
        self, small_world, students, exercises
    ):
        params = init_params(4, 5, 3, seed=0)
        rows = np.array(students), np.array(exercises)
        with pytest.raises(ValueError, match="^rows: "):
            gcn_forward(params, small_world["split"], rows=rows)


class TestViewUnion:
    """gcn_forward under a stacked (v1, v2) View against one forward per view."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000), with_rows=st.booleans())
    def test_copies_match_single_view_forwards_bitwise(self, seed, with_rows):
        rng = np.random.default_rng(seed)
        split, (m, n, k) = random_split(rng)
        n_layers = int(rng.integers(1, 4))
        params = init_params(m, n, k, dim=int(rng.integers(1, 5)), n_layers=n_layers, seed=seed)
        views = [
            View(rng.random(split.e2s.n_edges) < keep, rng.random(split.s2e.n_edges) < keep)
            for keep in rng.choice([0.0, 0.5, 1.0], size=2)
        ]
        pair = View(np.stack([v.kept_e2s for v in views]), np.stack([v.kept_s2e for v in views]))
        rows = draw_rows(rng, m, n) if with_rows else None
        union = gcn_forward(params, split, view=pair, rows=rows)
        singles = [gcn_forward(params, split, view=view, rows=rows) for view in views]
        assert union.copies == 2

        for layer in range(n_layers + 1):
            pruned = with_rows and layer == n_layers
            for kind, size in (("students", m), ("exercises", n), ("concepts", k)):
                if pruned and kind == "concepts":  # no final concept state
                    assert len(union.concepts) == n_layers
                    continue
                if pruned:  # copy j holds the named rows only
                    size = len(rows[0] if kind == "students" else rows[1])
                got = getattr(union, kind)[layer].value
                assert got.shape[0] == 2 * size
                for j, single in enumerate(singles):
                    want = getattr(single, kind)[layer].value
                    got_rows = got[j * size : (j + 1) * size]
                    assert got_rows.tobytes() == want.tobytes(), (kind, layer, j)

        for direction in DIRECTIONS:
            adj = split.adjacency(direction)
            for layer in range(n_layers):
                alpha = union.attention[direction][layer]
                parts = [single.attention[direction][layer] for single in singles]
                assert alpha.tobytes() == np.concatenate(parts).tobytes()
                for j, (view, part) in enumerate(zip(views, parts)):
                    mask = kept_mask(view, direction)
                    heads = adj.heads if mask is None else adj.heads[mask]
                    if with_rows and layer == n_layers - 1:
                        kept = {"e2s": rows[0], "s2e": rows[1], "c2e": rows[1], "e2c": []}
                        heads = heads[np.isin(heads, kept[direction])]
                    sums = np.bincount(heads, weights=part, minlength=adj.n_heads)
                    occupied = np.bincount(heads, minlength=adj.n_heads) > 0
                    npt.assert_allclose(sums[occupied], 1.0, rtol=0, atol=1e-12)

    def test_copy_rows_reads_its_own_copy(self, small_world):
        split = small_world["split"]
        params = init_params(4, 5, 3, seed=3)
        e2s, s2e = np.arange(split.e2s.n_edges), np.arange(split.s2e.n_edges)
        views = [View(e2s % 2 == 0, s2e % 3 != 0), View(e2s % 2 == 1, s2e % 3 != 1)]
        pair = View(np.stack([v.kept_e2s for v in views]), np.stack([v.kept_s2e for v in views]))
        rows = np.array([0, 3]), np.array([1, 4])
        union = gcn_forward(params, split, view=pair)
        union_rows = gcn_forward(params, split, view=pair, rows=rows)
        for j, view in enumerate(views):
            single = gcn_forward(params, split, view=view)
            whole, picked = union.copy_rows(j), union_rows.copy_rows(j)
            s_final, e_final = single.final_students.value, single.final_exercises.value
            assert whole.final_students.value.tobytes() == s_final.tobytes()
            assert whole.final_exercises.value.tobytes() == e_final.tobytes()
            assert picked.rows is union_rows.rows
            assert picked.final_students.value.tobytes() == s_final[rows[0]].tobytes()
            assert picked.final_exercises.value.tobytes() == e_final[rows[1]].tobytes()
        assert not np.array_equal(union.copy_rows(0).final_students.value, s_final)


class TestEdgeOrder:
    """gcn_forward on the stored split against a copy whose every direction
    is lexsorted by (head, tail), bit for bit: within each head the tails
    ascend in both orders, and each tail's edges come by ascending head, so
    every sum adds in the same order."""

    @staticmethod
    def head_sorted(split):
        """The copy, and per direction the stored edge at each copy position."""
        adjs = {d: split.adjacency(d) for d in DIRECTIONS}
        orders = {d: np.lexsort((a.tails, a.heads)) for d, a in adjs.items()}
        sorted_adjs = {
            d: Adjacency(a.heads[orders[d]], a.tails[orders[d]], a.n_heads) for d, a in adjs.items()
        }
        return DirectedSplit(**sorted_adjs), orders

    @staticmethod
    def attention_by_edge(states, split, view, rows, layer, direction):
        """{(copy, head, tail): attention bits} over the edges the layer ran:
        the kept ones, and in the last layer with `rows` those into read rows
        (none into concepts)."""
        adj = split.adjacency(direction)
        kept = np.ones((states.copies, adj.n_edges), dtype=bool)
        mask = kept_mask(view, direction)
        if mask is not None:
            kept &= np.atleast_2d(mask)
        if rows is not None and layer == len(states.students) - 2:  # the last layer
            read = {"e2s": rows[0], "s2e": rows[1], "c2e": rows[1], "e2c": []}[direction]
            kept &= np.isin(adj.heads, read)
        copy, edge = np.nonzero(kept)
        keys = zip(copy.tolist(), adj.heads[edge].tolist(), adj.tails[edge].tolist())
        alpha = states.attention[direction][layer]
        return dict(zip(keys, alpha.view(np.int64).tolist(), strict=True))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        union=st.booleans(),
        with_rows=st.booleans(),
    )
    def test_head_sorted_copy_gives_identical_forward_and_gradients(self, seed, union, with_rows):
        rng = np.random.default_rng(seed)
        split, (m, n, k) = random_split(rng)
        n_layers = int(rng.integers(1, 4))
        params = init_params(m, n, k, dim=int(rng.integers(1, 5)), n_layers=n_layers, seed=seed)
        resorted, orders = self.head_sorted(split)
        views = (None, None)
        if union:  # two stacked views; the sorted copy's masks follow its edges
            e2s, s2e = (rng.random((2, split.adjacency(d).n_edges)) < 0.5 for d in ("e2s", "s2e"))
            views = (View(e2s, s2e), View(e2s[:, orders["e2s"]], s2e[:, orders["s2e"]]))
        rows = draw_rows(rng, m, n) if with_rows else None

        runs = []
        for sp, view in zip((split, resorted), views):
            nodes = params.wrap()
            states = gcn_forward(params, sp, view=view, nodes=nodes, rows=rows)
            values = [
                node.value.tobytes()
                for layers in (states.students, states.exercises, states.concepts)
                for node in layers
            ]
            attention = {
                (layer, d): self.attention_by_edge(states, sp, view, rows, layer, d)
                for layer in range(n_layers)
                for d in DIRECTIONS
            }
            loss_rng = np.random.default_rng(seed)
            TestFinalRows.rows_loss(states, nodes, loss_rng).backward()
            runs.append((values, attention, {name: nodes[name].grad for name in params}))
        (values, attention, grads), (values_sorted, attention_sorted, grads_sorted) = runs

        assert values == values_sorted
        assert attention == attention_sorted
        for name in params:
            assert (grads[name] is None) == (grads_sorted[name] is None), name
            if grads[name] is not None:
                assert grads[name].tobytes() == grads_sorted[name].tobytes(), name


class TestDiagnosisAndPredict:
    def test_heads_gradient_against_finite_difference(self):
        # exercises carry 1 to 3 concepts; the batch repeats students and exercises
        rng = np.random.default_rng(21)
        m, n, k, d = 3, 4, 3, 2
        split = concept_split([0, 1, 1, 2, 2, 2, 3], [2, 0, 1, 0, 1, 2, 1], n, k)
        students = np.array([0, 2, 2, 1, 0, 2])
        exercises = np.array([2, 0, 2, 3, 1, 2])
        seed_grad = rng.normal(size=len(students))
        x = {"final_s": rng.normal(size=(m, d)), "final_e": rng.normal(size=(n, d))}
        shapes = dict(w_student_diag=(d, k), w_exercise_diag=(d, k), w_predict=(k, k))
        shapes.update(b_student_diag=(k,), b_exercise_diag=(k,), b_predict=(k,))
        x.update({name: rng.normal(size=shape) for name, shape in shapes.items()})

        def f(leaves):
            states = NodeStates([leaves["final_s"]], [leaves["final_e"]], [])
            diag = diagnose(states, leaves)
            return seeded_sum(predict(diag, leaves, split, students, exercises), seed_grad)

        assert grad_check(f, x) < 1e-8

    def test_outputs_live_in_unit_interval(self, small_world):
        params = init_params(4, 5, 3, seed=4)
        diag, _ = infer(params, small_world["split"])
        h_s, h_e = diag.h_student.value, diag.h_exercise.value
        assert h_s.shape == (4, 3) and h_e.shape == (5, 3)
        assert np.all((h_s > 0) & (h_s < 1))
        assert np.all((h_e > 0) & (h_e < 1))

    def test_predict_averages_over_exercise_concepts(self):
        split = concept_split([0, 1, 1], [0, 0, 1], 2, 2)
        mastery = np.array([[2.0, -1.0]])
        difficulty = np.array([[0.5, 0.5], [-1.0, 1.0]])
        nodes = {
            "w_predict": dc.param(np.eye(2)),
            "b_predict": dc.param(np.zeros(2)),
        }

        diag = Diagnosis(dc.param(mastery), dc.param(difficulty))

        def sig(x):
            return 1.0 / (1.0 + np.exp(-x))

        y = predict(diag, nodes, split, np.array([0, 0]), np.array([0, 1])).value
        npt.assert_allclose(y[0], sig(1.5), atol=1e-12)
        npt.assert_allclose(y[1], (sig(3.0) + sig(-2.0)) / 2, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_predict_equals_the_dense_mask_formula(self, seed):
        """The value and the rule's four gradients equal the dense 0/1
        Q-matrix formula up to the sign of zero, on random splits whose
        exercises carry 1 to 3 concepts, with repeated records."""
        rng = np.random.default_rng(seed)
        m, n, k, t = 6, 9, 5, 40
        q = np.zeros((n, k))
        for ex in range(n):
            q[ex, rng.choice(k, size=rng.integers(1, 4), replace=False)] = 1.0
        split = concept_split(*np.nonzero(q), n, k)
        students, exercises = rng.integers(m, size=t), rng.integers(n, size=t)
        students[-3:], exercises[-3:] = students[0], exercises[0]  # repeats
        h_s, h_e = rng.uniform(size=(m, k)), rng.uniform(size=(n, k))
        w, b, g = rng.normal(size=(k, k)), rng.normal(size=k), rng.normal(size=t)

        # the formula predict used before it took the sigmoid at pairs only
        mask = q[exercises]
        inv = 1.0 / mask.sum(axis=1)
        diff = h_s[students] - h_e[exercises]
        v = dc.sigmoid(diff @ w + b)
        dz = (g * inv)[:, None] * mask * v * (1.0 - v)
        want = [(v * mask).sum(axis=1) * inv, dz @ w.T, -(dz @ w.T), diff.T @ dz, dz.sum(axis=0)]

        diag = Diagnosis(dc.param(h_s), dc.param(h_e))
        nodes = {"w_predict": dc.param(w), "b_predict": dc.param(b)}
        y = predict(diag, nodes, split, students, exercises)
        got = [y.value, *y.backward_fn(g)]
        for name, a, e in zip(("value", "d_h_s", "d_h_e", "d_w", "d_b"), got, want, strict=True):
            assert np.array_equal(a, e), name

    def test_predict_memory_does_not_grow_with_the_exercise_count(self):
        """256 records over 20,000 exercises x 100 concepts: a dense exercise x
        concept matrix alone would take 16 MB."""
        rng = np.random.default_rng(3)
        n, k, t = 20_000, 100, 256
        ex = np.repeat(np.arange(n), rng.integers(1, 4, size=n))
        pairs = np.unique(ex * k + rng.integers(k, size=len(ex)))
        split = concept_split(pairs // k, pairs % k, n, k)
        diag = Diagnosis(dc.param(rng.uniform(size=(50, k))), dc.param(rng.uniform(size=(n, k))))
        nodes = {"w_predict": dc.param(rng.normal(size=(k, k))), "b_predict": dc.param(np.zeros(k))}
        students, exercises = rng.integers(50, size=t), rng.integers(n, size=t)
        tracemalloc.start()
        try:
            y = predict(diag, nodes, split, students, exercises)
            y.backward_fn(np.ones(t))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_conceptless_exercise_rejected(self):
        # e1 lies between exercises with concepts and e3 is the last head;
        # neither has a c2e edge, and the first such exercise asked for is named
        split = concept_split([0, 2], [0, 1], 4, 2)
        nodes = {"w_predict": dc.param(np.eye(2)), "b_predict": dc.param(np.zeros(2))}

        diag = Diagnosis(dc.param(np.zeros((1, 2))), dc.param(np.zeros((4, 2))))
        npt.assert_array_equal(predict(diag, nodes, split, [0, 0], [2, 0]).value, [0.5, 0.5])
        for exercises, bad in (([1], 1), ([0, 1, 2], 1), ([2, 3], 3), ([3, 1], 3)):
            students = np.zeros(len(exercises), dtype=np.intp)
            with pytest.raises(ValueError, match=f"^exercise {bad} has no concepts"):
                predict(diag, nodes, split, students, exercises)

    def test_rows_diagnosis_predicts_as_the_full_one(self, small_world):
        """predict on the diagnosis of a rows forward reads each record at its
        ids' positions in `rows`: the value and every leaf gradient equal
        those of the full forward's diagnosis, bit for bit. An id outside
        `rows` is refused."""
        split, train = small_world["split"], small_world["train"]
        params = init_params(4, 5, 3, seed=8)
        batch = np.array([9, 2, 5, 2, 0])  # students 3, 0, 1, 0, 0
        students, exercises = train.students[batch], train.exercises[batch]
        rows = np.unique(students), np.unique(exercises)
        runs = []
        for rows_arg in (None, rows):
            nodes = params.wrap()
            diag = diagnose(gcn_forward(params, split, nodes=nodes, rows=rows_arg), nodes)
            assert (diag.rows is None) == (rows_arg is None)
            y = predict(diag, nodes, split, students, exercises)
            value = y.value.copy()
            seeded_sum(y, np.arange(1.0, 6.0)).backward()
            grads = {name: nodes[name].grad for name in params}
            runs.append((value, {k: None if g is None else g.tobytes() for k, g in grads.items()}))
        assert runs[0][0].tobytes() == runs[1][0].tobytes()
        assert runs[0][1] == runs[1][1]
        nodes = params.wrap()
        diag = diagnose(gcn_forward(params, split, nodes=nodes, rows=rows), nodes)
        for s_ids, e_ids, match in (([2], [0], "^student 2 "), ([0, 3], [4, 3], "^exercise 3 ")):
            with pytest.raises(ValueError, match=match + "is not among the diagnosis rows"):
                predict(diag, nodes, split, np.array(s_ids), np.array(e_ids))

    def test_diagnose_uses_final_layer(self, small_world):
        params = init_params(4, 5, 3, seed=6)
        nodes = params.wrap()
        states = gcn_forward(params, small_world["split"], nodes=nodes)
        diag = diagnose(states, nodes)
        logits = states.final_students.value @ params["w_student_diag"] + params["b_student_diag"]
        manual = 1.0 / (1.0 + np.exp(-logits))
        npt.assert_allclose(diag.h_student.value, manual, atol=1e-12)


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path, small_world):
        g = small_world["graph"]
        params = init_params(4, 5, 3, seed=9)
        ckpt = Checkpoint(
            params=params,
            config={"mode": "scd", "epochs": 7},
            graph=g,
            student_keys=("s0", "s1", "s2", "s3"),
            exercise_keys=("e0", "e1", "e2", "e3", "e4"),
            concept_keys=("c0", "c1", "c2"),
            epoch=7,
            opt=AdamState(
                m={k: np.full_like(v, 0.25) for k, v in params.items()},
                v={k: np.full_like(v, 4.0) for k, v in params.items()},
                step=21,
            ),
        )
        path = tmp_path / "ck.npz"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        for k, v in params.items():
            npt.assert_array_equal(back.params[k], v)
        assert back.config == {"mode": "scd", "epochs": 7}
        assert back.epoch == 7 and back.opt.step == 21
        assert back.student_keys == ckpt.student_keys
        npt.assert_array_equal(back.graph.se_edges, g.se_edges)
        npt.assert_array_equal(back.opt.m["student_emb"], 0.25)
        npt.assert_array_equal(back.opt.v["student_emb"], 4.0)

    def test_loads_checkpoint_written_before_the_mapping(self):
        """The fixture was written by save_checkpoint at commit fca24c9, when
        ModelParams held one field per array and each attention weight was
        (2d, 1): init_params(4, 5, 3, n_layers=2, seed=9) with Adam moments
        0.25 and 4.0 at epoch 1, step 3. Bit equality with a fresh init also
        pins the RNG draw order, and that init keeps the neighbor half."""
        back = load_checkpoint(FIXTURE)
        fresh = init_params(4, 5, 3, n_layers=2, seed=9)
        assert list(back.params) == param_names(2) == list(fresh)
        with np.load(FIXTURE) as data:  # written in the order the regularizer sums
            assert [k[3:] for k in data.files if k.startswith("p__")] == param_names(2)
        for name, arr in fresh.items():
            assert back.params[name].dtype == arr.dtype
            assert back.params[name].shape == arr.shape
            assert back.params[name].tobytes() == arr.tobytes(), name
        assert back.params.n_layers == 2 and back.params.dim == 3
        assert back.epoch == 1 and back.opt.step == 3 and back.config["epochs"] == 4
        assert set(back.opt.m) == set(back.opt.v) == set(param_names(2))
        assert all(np.all(m == 0.25) for m in back.opt.m.values())
        assert all(np.all(v == 4.0) for v in back.opt.v.values())
        for name, arr in fresh.items():
            assert back.opt.m[name].shape == back.opt.v[name].shape == arr.shape, name
        assert load_checkpoint(FIXTURE, optimizer=False).opt is None

    def test_fixture_scores_as_the_full_weight_formula(self):
        """The fixture, loaded with its attention arrays cut to their neighbor
        halves, scores what [head, neighbor] @ w gives with the full arrays."""
        ckpt = load_checkpoint(FIXTURE)
        with np.load(FIXTURE) as data:
            full = {k[3:]: data[k] for k in data.files if k.startswith("p__")}
        assert full["attn0_e2s"].shape == (6, 1)
        split = directed_split(ckpt.graph)
        states = dict(full)
        for layer in range(2):
            s, e, c, _ = numpy_layer(split, states, layer)
            states.update(student_emb=s, exercise_emb=e, concept_emb=c)

        def sig(x):
            return 1.0 / (1.0 + np.exp(-x))

        h_s = sig(s @ full["w_student_diag"] + full["b_student_diag"])
        h_e = sig(e @ full["w_exercise_diag"] + full["b_exercise_diag"])
        students, exercises = np.divmod(np.arange(4 * 5), 5)  # every pair
        q_matrix = np.zeros((5, 3))
        q_matrix[tuple(ckpt.graph.ec_edges.T)] = 1.0
        concepts = q_matrix[exercises]
        v = sig((h_s[students] - h_e[exercises]) @ full["w_predict"] + full["b_predict"])
        expected = (v * concepts).sum(axis=1) / concepts.sum(axis=1)

        diag, nodes = infer(ckpt.params, split)
        scores = predict(diag, nodes, split, students, exercises).value
        pairs = [(diag.h_student.value, h_s), (diag.h_exercise.value, h_e), (scores, expected)]
        for got, want in pairs:
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    @pytest.mark.parametrize("edit", ["missing", "unexpected"])
    def test_missing_or_extra_param_array_rejected(self, tmp_path, edit):
        with np.load(FIXTURE) as data:
            arrays = {k: data[k] for k in data.files}
        if edit == "missing":
            name = "attn1_c2e"
            del arrays[f"p__{name}"]
        else:
            name = "attn2_e2s"
            arrays[f"p__{name}"] = arrays["p__attn1_e2s"]
        path = tmp_path / "edited.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"{edit}.*{name}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key, shape",
        [
            ("p__student_emb", (3, 3)),
            ("p__attn1_s2e", (4, 1)),
            ("m__attn0_e2c", (3,)),
            ("v__b_predict", (3, 1)),
        ],
    )
    def test_wrong_shaped_array_rejected(self, tmp_path, key, shape):
        with np.load(FIXTURE) as data:
            arrays = {k: data[k] for k in data.files}
        expected = (3, 1) if "attn" in key else arrays[key].shape
        arrays[key] = np.zeros(shape)
        path = tmp_path / "edited.npz"
        np.savez(path, **arrays)
        message = f"{key} has shape {shape}, expected {expected}"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    @pytest.mark.parametrize("prefix", ["m__", "v__"])
    @pytest.mark.parametrize("edit", ["missing", "unexpected"])
    def test_missing_or_extra_moment_array_rejected(self, tmp_path, prefix, edit):
        with np.load(FIXTURE) as data:
            arrays = {k: data[k] for k in data.files}
        if edit == "missing":
            name = "w_predict"
            del arrays[f"{prefix}{name}"]
        else:
            name = "attn2_e2s"
            arrays[f"{prefix}{name}"] = arrays[f"{prefix}attn1_e2s"]
        path = tmp_path / "edited.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"{edit}.*{name}"):
            load_checkpoint(path)

    # an unclosed file warns when it is collected: every refusal closes the file
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["csv", "empty", "npy", "npz without meta", "cut short"])
    def test_a_file_that_is_not_a_checkpoint_is_named(self, tmp_path, kind):
        path = tmp_path / "input"
        if kind == "cut short":
            path.write_bytes(FIXTURE.read_bytes()[:300])
        elif kind == "csv":
            path.write_text("student,exercise,score\ns1,e1,1\n")
        elif kind == "empty":
            path.write_bytes(b"")
        elif kind == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.arange(3))
        else:
            with open(path, "wb") as fh:
                np.savez(fh, p__student_emb=np.zeros((2, 2)))
        message = f"{path}: not an scdkit checkpoint"
        for optimizer in (True, False):
            with pytest.raises(ValueError, match=re.escape(message)) as err:
                load_checkpoint(path, optimizer=optimizer)
            assert "pickle" not in str(err.value)

    @pytest.mark.parametrize("name", ["se_edges", "ec_edges"])
    def test_out_of_order_pair_list_names_the_file(self, tmp_path, name):
        with np.load(FIXTURE) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[name] = arrays[name][::-1]
        path = tmp_path / "edited.npz"
        np.savez(path, **arrays)
        message = f"{path}: {name} must be distinct pairs sorted"
        for optimizer in (True, False):
            with pytest.raises(ValueError, match=re.escape(message)):
                load_checkpoint(path, optimizer=optimizer)

    @pytest.mark.parametrize(
        "name, row, column, bad, count",
        [("se_edges", -1, 0, 999, 4), ("se_edges", 0, 1, -1, 5), ("ec_edges", -1, 1, 77, 3)],
    )
    def test_out_of_range_id_names_the_file(self, tmp_path, name, row, column, bad, count):
        with np.load(FIXTURE) as data:
            arrays = {k: data[k] for k in data.files}
        arrays[name][row, column] = bad  # the pairs stay sorted
        path = tmp_path / "edited.npz"
        np.savez(path, **arrays)
        which = ("first", "second")[column]
        message = f"{path}: {name} names id {bad} in its {which} column, outside [0, {count})"
        for optimizer in (True, False):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                load_checkpoint(path, optimizer=optimizer)

    @pytest.mark.parametrize("key", ["counts", "dim", "has_adam", "student_keys"])
    def test_meta_without_a_key_names_the_file(self, tmp_path, key):
        with np.load(FIXTURE) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        del meta[key]
        arrays["meta"] = np.array(json.dumps(meta))
        path = tmp_path / "edited.npz"
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=re.escape(f"{path}: damaged checkpoint (KeyError")):
            load_checkpoint(path)

    @pytest.mark.parametrize("member", ["meta", "se_edges", "p__student_emb", "v__w_predict"])
    def test_a_corrupted_member_names_the_file(self, tmp_path, member):
        path = tmp_path / "damaged.npz"
        path.write_bytes(FIXTURE.read_bytes())
        corrupt_member(path, f"{member}.npy")
        message = f"{path}: damaged checkpoint (BadZipFile: Bad CRC-32"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    def test_rebuilds_graph_and_qmatrix(self, tmp_path, small_world):
        g, q = small_world["graph"], small_world["q"]
        params = init_params(4, 5, 3, seed=0)
        ckpt = Checkpoint(
            params=params,
            config={},
            graph=g,
            student_keys=("s0", "s1", "s2", "s3"),
            exercise_keys=("e0", "e1", "e2", "e3", "e4"),
            concept_keys=("c0", "c1", "c2"),
        )
        save_checkpoint(tmp_path / "ck.npz", ckpt)
        back = load_checkpoint(tmp_path / "ck.npz")
        assert back.opt is None
        npt.assert_array_equal(back.graph.se_edges, g.se_edges)
        c2e = directed_split(back.graph).c2e
        npt.assert_array_equal(c2e.heads, q.exercises)
        npt.assert_array_equal(c2e.tails, q.concepts)
