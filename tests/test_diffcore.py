import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdkit import diffcore as dc
from scdkit.objectives import infonce, main_loss, total_loss
from conftest import grad_check, seeded_sum


def rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestElementwise:
    def test_sigmoid_matches_closed_form_grad(self):
        # the heads' backward rules use s * (1 - s) as the derivative
        x = np.linspace(-30, 30, 61)
        s = dc.sigmoid(x)
        npt.assert_allclose(s, 1.0 / (1.0 + np.exp(-x)), rtol=1e-15, atol=0)
        h = 1e-5
        numeric = (dc.sigmoid(x + h) - dc.sigmoid(x - h)) / (2 * h)
        npt.assert_allclose(s * (1 - s), numeric, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                st.floats(min_value=-40, max_value=40),
                st.sampled_from([1000.0, -1000.0, 800.0, -800.0, 0.0, -0.0]),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @example([1000.0, -1000.0, 0.0, -0.0])
    def test_sigmoid_bitwise_equal_to_two_branch_formula(self, values):
        x = np.array(values)
        # the previous implementation: masked gathers, one formula per sign
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        assert dc.sigmoid(x).tobytes() == ref.tobytes()


class TestShapeOps:
    def test_gather_rows_scatter_adds_repeats(self):
        a = dc.param(rand((4, 3)))
        idx = np.array([0, 0, 2])
        seeded_sum(dc.gather_rows(a, idx), 1.0).backward()
        expected = np.zeros((4, 3))
        expected[0] = 2.0
        expected[2] = 1.0
        npt.assert_array_equal(a.grad, expected)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tile_rows_equals_the_tiling_gather(self, k):
        a, ref = dc.param(rand((4, 3))), dc.param(rand((4, 3)))
        g = rand((4 * k, 3), seed=1)
        g[0] = -0.0  # the block sum keeps a -0.0 that bincount's 0.0 start drops
        tiled = dc.tile_rows(a, k)
        gathered = dc.gather_rows(ref, np.tile(np.arange(4), k))
        assert tiled.value.tobytes() == gathered.value.tobytes()
        seeded_sum(tiled, g).backward()
        seeded_sum(gathered, g).backward()
        assert np.array_equal(a.grad, ref.grad)
        assert grad_check(lambda leaves: seeded_sum(dc.tile_rows(leaves["a"], k), g),
                          {"a": rand((4, 3))}) < 1e-8


def edge_softmax(x, seg, n_seg):
    """attention_aggregate with logits equal to `x`: every edge has its own
    one-column tail row x[e], and the weight is 1."""
    _, alpha = dc.attention_aggregate(
        dc.param(np.asarray(x, dtype=np.float64)[:, None]),
        dc.param(np.array([[1.0]])),
        seg,
        np.arange(len(seg)),
        residual=dc.param(np.zeros((n_seg, 1))),
    )
    return alpha


class TestSoftmaxSegments:
    """The per-head softmax inside attention_aggregate."""

    def test_matches_per_segment_numpy_softmax(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=10)
        seg = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 4])
        p = edge_softmax(x, seg, 5)
        for s in (0, 1, 2, 4):
            sel = seg == s
            e = np.exp(x[sel] - x[sel].max())
            npt.assert_allclose(p[sel], e / e.sum(), atol=1e-14)

    def test_extreme_scores_stay_finite(self):
        p = edge_softmax(np.array([1000.0, 999.0, -1000.0]), np.array([0, 0, 0]), 1)
        assert np.all(np.isfinite(p))
        npt.assert_allclose(p.sum(), 1.0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_segment_sums_are_one(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        n_seg = int(rng.integers(1, 8))
        seg = np.sort(rng.integers(0, n_seg, size=n))
        p = edge_softmax(rng.normal(size=n) * 10, seg, n_seg)
        sums = np.bincount(seg, weights=p, minlength=n_seg)
        occupied = np.bincount(seg, minlength=n_seg) > 0
        npt.assert_allclose(sums[occupied], 1.0, atol=1e-12)

    def test_gradient_against_finite_difference(self):
        seg = np.array([0, 0, 1, 1, 1])

        def f(leaves):
            out, _ = dc.attention_aggregate(
                leaves["x"],
                dc.param(np.array([[1.0]])),
                seg,
                np.arange(5),
                residual=dc.param(np.zeros((2, 1))),
            )
            return seeded_sum(out, np.array([[1.0], [-2.0]]))

        assert grad_check(f, {"x": rand((5, 1), seed=9)}) < 1e-8


def add_at_aggregate(h, t, w, heads, tails, g):
    """The paper's residual aggregate h + sum, with logit [h[head], t[tail]] @ w
    for a (2d, 1) weight w, over edge-by-feature arrays with `np.add.at`
    scatters: returns the output and the tail and weight gradients for the
    output gradient `g`, and the gradient of h through the logits alone (the
    residual passes `g` on as it is)."""
    n_heads = len(h)
    d_head = h.shape[1]
    w_head, w_tail = w[:d_head], w[d_head:]
    logits = (h @ w_head)[heads, 0] + (t @ w_tail)[tails, 0]
    seg_max = np.full(n_heads, -np.inf)
    np.maximum.at(seg_max, heads, logits)
    e = np.exp(logits - seg_max[heads])
    denom = np.zeros(n_heads)
    np.add.at(denom, heads, e)
    alpha = e / denom[heads]
    out = np.zeros((n_heads, t.shape[1]))
    np.add.at(out, heads, alpha[:, None] * t[tails])
    out = h + out

    g_edges = g[heads]
    d_alpha = (g_edges * t[tails]).sum(axis=1)
    seg_dot = np.zeros(n_heads)
    np.add.at(seg_dot, heads, alpha * d_alpha)
    d_logit = alpha * (d_alpha - seg_dot[heads])
    d_lh, d_lt = np.zeros(n_heads), np.zeros(len(t))
    np.add.at(d_lh, heads, d_logit)
    np.add.at(d_lt, tails, d_logit)
    d_tail = np.zeros_like(t)
    np.add.at(d_tail, tails, alpha[:, None] * g_edges)
    d_tail += np.outer(d_lt, w_tail)
    d_weight = np.concatenate([h.T @ d_lh, t.T @ d_lt])[:, None]
    return out, np.outer(d_lh, w_head), d_tail, d_weight


class TestAttentionAggregate:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        drop=st.sampled_from(["none", "random", "all"]),
        head_half=st.sampled_from(["zero", "random"]),
    )
    def test_matches_add_at_reference(self, seed, drop, head_half):
        """The op, fed the tail half w[d:] and the head states as residual,
        against the reference with the full weight w. With a zero head half
        the output is bit-identical. With a random one it agrees to rounding,
        and the reference's head-half and logit head gradients are rounding
        noise: the head half is inert. The residual gets `g` exactly."""
        rng = np.random.default_rng(seed)
        n_heads, n_tails = int(rng.integers(1, 12)), int(rng.integers(1, 10))
        d, n_edges = int(rng.integers(1, 6)), int(rng.integers(0, 50))
        # unsorted heads drawn below n_heads - 1: the last head has no edges
        heads = rng.integers(0, max(n_heads - 1, 1), size=n_edges)
        tails = rng.integers(0, n_tails, size=n_edges)
        if drop != "none":
            kept = rng.random(n_edges) < (0.5 if drop == "random" else 0.0)
            heads, tails = heads[kept], tails[kept]
        h, t = rng.normal(size=(n_heads, d)), rng.normal(size=(n_tails, d))
        w, g = rng.normal(size=(2 * d, 1)) * 3.0, rng.normal(size=(n_heads, d))
        if head_half == "zero":
            w[:d] = 0.0

        leaves = dc.param(t), dc.param(w[d:]), dc.param(h)
        out, _ = dc.attention_aggregate(*leaves[:2], heads, tails, residual=leaves[2])
        out_value = out.value.copy()  # backward frees the interior values
        seeded_sum(out, g).backward()
        ref_out, ref_d_head, ref_d_tail, ref_d_w = add_at_aggregate(h, t, w, heads, tails, g)

        def close(got, ref):
            # the inert terms are zero up to rounding, so scale by max(1, |ref|)
            err = np.max(np.abs(got - ref), initial=0.0)
            return err <= 1e-12 * max(1.0, np.max(np.abs(ref), initial=0.0))

        assert out.value is None and out_value.shape == ref_out.shape
        if head_half == "zero":
            assert np.ascontiguousarray(out_value).tobytes() == ref_out.tobytes()
        assert close(out_value, ref_out)
        assert close(leaves[0].grad, ref_d_tail)
        assert close(leaves[1].grad, ref_d_w[d:])
        assert leaves[2].grad.tobytes() == g.tobytes()
        assert close(ref_d_head, 0.0) and close(ref_d_w[:d], 0.0)

    def test_stacked_layers_on_fortran_ordered_inputs(self):
        # the op returns Fortran-ordered arrays, which the next layer receives
        rng = np.random.default_rng(5)
        n, d = 6, 3
        heads = rng.integers(0, n - 1, size=18)
        tails = rng.integers(0, n, size=18)
        seed_grad = rand((n, d), seed=11)

        def f(leaves):
            s, w = leaves["s"], leaves["w"]
            s1, _ = dc.attention_aggregate(s, w, heads, tails, residual=s)
            s2, _ = dc.attention_aggregate(s1, w, tails, heads, residual=s1)
            return seeded_sum(s2, seed_grad)

        x = {"s": np.asfortranarray(rand((n, d), seed=1)),
             "w": np.asfortranarray(rand((d, 1), seed=2))}
        assert not x["s"].flags.c_contiguous
        assert grad_check(f, x) < 1e-8

    def test_no_edge_by_feature_temporaries(self):
        rng = np.random.default_rng(0)
        n_heads, n_tails, d, n_edges = 500, 100, 32, 20_000
        heads = np.sort(rng.integers(0, n_heads, size=n_edges))
        tails = rng.integers(0, n_tails, size=n_edges)
        leaves = dc.param(rng.normal(size=(n_tails, d))), dc.param(rng.normal(size=(d, 1)))
        residual = dc.param(rng.normal(size=(n_heads, d)))
        seed_grad = rng.normal(size=(n_heads, d))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, _ = dc.attention_aggregate(*leaves, heads, tails, residual)
            seeded_sum(out, seed_grad).backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < n_edges * d * 8  # one edge-by-feature float64 array

    def test_node_keeps_no_transposed_tail_copy(self):
        # many tails and few heads and edges: a kept copy of the tail states
        # would outweigh everything else the node holds
        rng = np.random.default_rng(1)
        n_heads, n_tails, d, n_edges = 50, 5000, 32, 2000
        heads = rng.integers(0, n_heads, size=n_edges)
        tails = rng.integers(0, n_tails, size=n_edges)
        leaves = dc.param(rng.normal(size=(n_tails, d))), dc.param(rng.normal(size=(d, 1)))
        residual = dc.param(rng.normal(size=(n_heads, d)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            node, _ = dc.attention_aggregate(*leaves, heads, tails, residual)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held < n_tails * d * 8 // 2, f"{held} B held after the forward"

    @pytest.mark.parametrize("seed", range(20))
    def test_one_edge_per_head_gives_a_zero_weight_gradient(self, seed):
        """With one edge per head (c2e under a one-concept-per-exercise
        Q-matrix) every weight is 1, so the logits get no gradient: the two
        per-tail sums that the backward subtracts are equal. The weight
        gradient is 0 and the tail gradient the plain scatter, up to rounding
        of the size of those sums."""
        rng = np.random.default_rng(seed)
        n_heads, n_tails, d = int(rng.integers(1, 40)), int(rng.integers(1, 10)), 5
        heads = rng.permutation(n_heads)
        tails = rng.integers(0, n_tails, size=n_heads)
        t, g = rng.normal(size=(n_tails, d)), rng.normal(size=(n_heads, d))
        leaves = dc.param(t), dc.param(rng.normal(size=(d, 1)) * 3.0)
        out, alpha = dc.attention_aggregate(*leaves, heads, tails, dc.param(np.zeros((n_heads, d))))
        seeded_sum(out, g).backward()
        scatter = np.zeros_like(t)
        np.add.at(scatter, tails, g[heads])
        # each of the two subtracted per-tail sums, carried through t.T @ ...
        scale = np.max(np.abs(t).T @ np.abs(t * scatter).sum(axis=1))
        tol = 1e-12 * max(1.0, scale)
        assert np.all(alpha == 1.0)
        assert np.max(np.abs(leaves[1].grad)) <= tol
        assert np.max(np.abs(leaves[0].grad - scatter)) <= tol

    def test_all_edges_dropped_gives_exactly_zero_gradients(self):
        rng = np.random.default_rng(3)
        n_heads, n_tails, d = 7, 5, 4
        none = np.zeros(0, dtype=np.intp)
        leaves = dc.param(rng.normal(size=(n_tails, d))), dc.param(rng.normal(size=(d, 1)))
        residual = dc.param(rng.normal(size=(n_heads, d)))
        out, alpha = dc.attention_aggregate(*leaves, none, none, residual)
        assert len(alpha) == 0 and out.value.tobytes() == residual.value.tobytes()
        seeded_sum(out, rng.normal(size=(n_heads, d))).backward()
        assert leaves[0].grad.shape == (n_tails, d) and np.all(leaves[0].grad == 0.0)
        assert leaves[1].grad.shape == (d, 1) and np.all(leaves[1].grad == 0.0)

    def test_node_holds_its_value_weights_and_edge_ids(self):
        # what a forward leaves held until its backward runs: the backward
        # recomputes the weighted sums from the value and the residual
        rng = np.random.default_rng(2)
        n_heads, n_tails, d, n_edges = 500, 300, 32, 20_000
        heads = np.sort(rng.integers(0, n_heads, size=n_edges)).astype(np.int32)
        tails = rng.integers(0, n_tails, size=n_edges).astype(np.int32)
        leaves = dc.param(rng.normal(size=(n_tails, d))), dc.param(rng.normal(size=(d, 1)))
        residual = dc.param(rng.normal(size=(n_heads, d)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            node, alpha = dc.attention_aggregate(*leaves, heads, tails, residual)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        ids = 2 * n_edges * np.dtype(np.intp).itemsize  # int32 ids are copied to intp
        allowed = node.value.nbytes + alpha.nbytes + ids
        assert held <= allowed + 4096, f"{held} B held after the forward, {allowed} B allowed"

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_residual_rows_match_the_full_op_at_those_rows(self, seed):
        """With `residual_rows` and the edges into those rows renumbered, the
        output, weights and every gradient equal the full op's at those rows,
        bit for bit, when the full op's gradient is zero at the other rows;
        the residual gets the gradient at its picked rows and zero elsewhere.
        The gradient arrives in Fortran order on one side only."""
        rng = np.random.default_rng(seed)
        n_heads, n_tails = int(rng.integers(1, 12)), int(rng.integers(1, 10))
        d, n_edges = int(rng.integers(1, 6)), int(rng.integers(0, 50))
        heads = np.sort(rng.integers(0, n_heads, size=n_edges))
        tails = rng.integers(0, n_tails, size=n_edges)
        read = np.unique(rng.integers(0, n_heads, size=int(rng.integers(0, 2 * n_heads))))
        compact = np.full(n_heads, -1)
        compact[read] = np.arange(len(read))
        into = compact[heads] >= 0
        t, r = rng.normal(size=(n_tails, d)), rng.normal(size=(n_heads, d))
        w, g = rng.normal(size=(d, 1)) * 3.0, rng.normal(size=(len(read), d))
        g_full = np.zeros((n_heads, d))
        g_full[read] = g

        runs = []
        for args, seed_grad in (
            ((heads, tails), np.asfortranarray(g_full)),
            ((compact[heads[into]], tails[into], read), g),
        ):
            leaves = dc.param(t), dc.param(w), dc.param(r)
            out, alpha = dc.attention_aggregate(*leaves[:2], *args[:2], leaves[2], *args[2:])
            value = out.value.copy()
            seeded_sum(out, seed_grad).backward()
            runs.append((value, alpha, [leaf.grad for leaf in leaves]))
        (full, full_alpha, full_grads), (part, part_alpha, part_grads) = runs

        assert part.tobytes() == full[read].tobytes()
        assert part_alpha.tobytes() == full_alpha[into].tobytes()
        for got, want in zip(part_grads, full_grads):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_gradient_on_random_masked_graph(self):
        rng = np.random.default_rng(4)
        n_heads, n_tails, d = 6, 5, 3
        heads = np.sort(rng.integers(0, n_heads - 1, size=20))  # the last head has no edges
        tails = rng.integers(0, n_tails, size=20)
        kept = rng.random(20) < 0.6
        seed_grad = rand((n_heads, d), seed=7)

        def f(leaves):
            out, _ = dc.attention_aggregate(
                leaves["t"], leaves["w"], heads[kept], tails[kept], leaves["r"]
            )
            return seeded_sum(out, seed_grad)

        x = {"t": rand((n_tails, d), seed=2), "w": rand((d, 1), seed=3)}
        x["r"] = rand((n_heads, d), seed=4)
        assert grad_check(f, x) < 1e-8


class TestCosineMachinery:
    def test_normalize_rows_unit_norm(self):
        a = dc.param(rand((6, 4)))
        out = dc.normalize_rows(a).value
        npt.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_normalize_gradient(self):
        def f(leaves):
            return seeded_sum(dc.normalize_rows(leaves["a"]), rand((4, 3), seed=2))

        assert grad_check(f, {"a": rand((4, 3)) + 0.5}) < 1e-8

    def test_l2_norm_sq(self):
        a = dc.param(np.array([[1.0, 2.0], [3.0, 0.0]]))
        b = dc.param(np.array([-2.0]))
        c = dc.param(np.array([5.0, 1.0]))
        out = dc.l2_norm_sq(a, c, b)
        assert out.item() == 14.0 + 26.0 + 4.0
        seeded_sum(out, 3.0).backward()
        npt.assert_array_equal(a.grad, 6.0 * a.value)
        npt.assert_array_equal(b.grad, [-12.0])
        npt.assert_array_equal(c.grad, [30.0, 6.0])
        assert dc.l2_norm_sq().item() == 0.0


class TestGraphMechanics:
    def test_diamond_reuse_accumulates_once_per_path(self):
        x = dc.param(np.array(3.0))
        y = dc.l2_norm_sq(x, seeded_sum(x, 5.0))  # x^2 + 25x^2 -> grad 2x + 50x
        y.backward()
        assert float(y.value) == 234.0
        assert float(x.grad) == 156.0

    def test_shared_gradient_views_are_not_added_into(self):
        # a rule may hand one gradient array to several parents; x receives a
        # second contribution later, which must not leak into s's (and y's)
        # gradient
        def plus(a, b):
            return dc.DiffNode(a.value + b.value, (a, b), lambda g: (g, g))

        x, y = dc.param(np.ones(3)), dc.param(np.ones(3))
        s = plus(x, y)
        seeded_sum(plus(s, x), 1.0).backward()
        npt.assert_array_equal(x.grad, np.full(3, 2.0))
        npt.assert_array_equal(y.grad, np.ones(3))
        assert s.grad is None

    def test_wrongly_shaped_gradient_is_refused(self):
        # a bias rule that forgot to sum over rows: (5, 3) for a (3,) leaf
        b = dc.param(np.zeros(3))
        node = dc.DiffNode(np.array(0.0), (b,), lambda g: (np.ones((5, 3)),))
        with pytest.raises(ValueError, match=r"shape \(5, 3\) for a parent of shape \(3,\)"):
            node.backward()

    def test_each_rule_is_dropped_and_a_second_walk_refused(self):
        x = dc.param(rand((3, 2)))
        y = dc.normalize_rows(x)
        loss = seeded_sum(y, rand((3, 2), seed=1))
        loss.backward()
        first = x.grad.copy()
        assert y.backward_fn is None and loss.backward_fn is None and y.grad is None
        # the rules' values are gone too, but for the root's and the leaf's
        assert y.value is None and loss.value is not None and x.value is not None
        with pytest.raises(ValueError, match="already ran"):
            loss.backward()
        # a new op cannot read the spent node's value
        with pytest.raises(TypeError):
            dc.normalize_rows(y)
        with pytest.raises(TypeError):
            seeded_sum(y, 1.0)
        # and a new root over the spent graph would only reach x through y's rule
        root = dc.DiffNode(np.array(0.0), (y,), lambda g: (np.zeros((3, 2)),))
        with pytest.raises(ValueError, match="already ran"):
            root.backward()
        npt.assert_array_equal(x.grad, first)

    def test_backward_needs_scalar(self):
        with pytest.raises(ValueError):
            dc.param([1.0, 2.0]).backward()

    def test_every_reachable_leaf_gets_a_gradient_of_its_shape(self):
        # with lambda1 = lambda2 = 0 the contrastive rows and the
        # regularized-only parameters are reached only through zero weights
        y = dc.param([0.3, 0.8])
        z1, z2 = dc.param(rand((3, 2))), dc.param(rand((3, 2), seed=1))
        params = {"w": dc.param(rand((4, 2))), "b": dc.param(np.zeros(2)), "s": dc.param(2.0)}
        ssl_s, ssl_e = infonce(z1, z2, 0.5), infonce(z2, z1, 0.5)
        total, _ = total_loss(main_loss(y, np.array([0, 1])), ssl_s, ssl_e, params, 0.0, 0.0, 0.5)
        total.backward()
        leaves, stack = [], [total]
        while stack:
            node = stack.pop()
            stack.extend(node.parents)
            if not node.parents:
                leaves.append(node)
        assert {id(p) for p in (y, z1, z2, *params.values())} == {id(n) for n in leaves}
        for leaf in leaves:
            assert leaf.grad is not None and leaf.grad.shape == leaf.value.shape
        for leaf in (z1, z2, *params.values()):
            npt.assert_array_equal(leaf.grad, 0.0)
        assert np.all(y.grad != 0.0)

    def test_rule_must_return_one_gradient_per_parent(self):
        a, b = dc.param(np.ones(2)), dc.param(np.ones(2))
        node = dc.DiffNode(np.array(0.0), (a, b), lambda g: (np.zeros(2),))
        with pytest.raises(ValueError):
            node.backward()

    def test_deep_chain_does_not_recurse(self):
        node = dc.param(np.array(1.0))
        for _ in range(5000):
            node = seeded_sum(node, 1.0)
        node.backward()  # would blow the stack with recursive toposort


class TestGradCheck:
    def test_eps_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            grad_check(lambda leaves: seeded_sum(leaves["x"], 1.0), {"x": rand(2)}, eps=0.5)


def test_init_array_bounds():
    rng = np.random.default_rng(0)
    arr = dc.init_array(rng, (200, 50), 25)
    assert arr.shape == (200, 50)
    assert np.all(np.abs(arr) <= 0.2)
    assert arr.std() > 0.05
