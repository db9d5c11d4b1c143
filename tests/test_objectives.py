import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from scdkit import diffcore as dc
from scdkit.objectives import LossBreakdown, infonce, main_loss, ssl_loss, total_loss
from scdkit.relgraph import directed_split
from scdkit.scdmodel import NodeStates, gcn_forward, init_params
from scdkit.viewgen import View
from conftest import brute_infonce, grad_check, small_qmatrix, small_responses, stack_copies
from scdkit.relgraph import build_relation_graph


def stacked(z1, z2) -> dc.DiffNode:
    """The two views' rows as one leaf, first view first, as infonce reads them."""
    return dc.param(np.vstack([z1, z2]))


class TestMainLoss:
    def test_hand_values(self):
        assert main_loss(dc.param([1.0]), np.array([1])).item() == pytest.approx(0.0, abs=1e-9)
        assert main_loss(dc.param([0.5]), np.array([1])).item() == pytest.approx(
            0.6931471805599453, rel=1e-12
        )
        got = main_loss(dc.param([0.9, 0.2]), np.array([1, 0])).item()
        assert got == pytest.approx(0.328504066972036, rel=1e-12)

    def test_summed_not_averaged(self):
        one = main_loss(dc.param([0.5]), np.array([1])).item()
        four = main_loss(dc.param([0.5] * 4), np.array([1, 1, 1, 1])).item()
        assert four == pytest.approx(4 * one, rel=1e-12)

    def test_clamp_keeps_extremes_finite(self):
        out = main_loss(dc.param([0.0, 1.0]), np.array([1, 0])).item()
        assert np.isfinite(out)

    def test_gradient_formula(self):
        y = np.array([0.3, 0.8, 0.6])
        r = np.array([1.0, 0.0, 1.0])
        node = dc.param(y)
        main_loss(node, r).backward()
        npt.assert_allclose(node.grad, (y - r) / (y * (1 - y)), rtol=1e-9)

    def test_gradient_zero_outside_clamp(self):
        y = np.array([0.0, 0.3, 1.0, 0.8])
        r = np.array([1.0, 1.0, 0.0, 0.0])
        node = dc.param(y)
        main_loss(node, r).backward()
        assert node.grad[0] == 0.0 and node.grad[2] == 0.0
        y_in, r_in = y[[1, 3]], r[[1, 3]]
        npt.assert_allclose(node.grad[[1, 3]], (y_in - r_in) / (y_in * (1 - y_in)), rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            main_loss(dc.param([0.5, 0.5]), np.array([1]))


class TestInfonce:
    def test_refuses_more_than_8192_rows_before_any_n_by_n_array(self):
        n = 8193
        rng = np.random.default_rng(0)
        z = stacked(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n = {n} rows"):
                infonce(z, tau=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8  # one n x n float64 array

    def test_orthonormal_identical_views_give_minus_one(self):
        assert infonce(stacked(np.eye(2), np.eye(2)), tau=1.0).item() == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_collapsed_second_view_gives_zero(self):
        z1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        z2 = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert infonce(stacked(z1, z2), tau=1.0).item() == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        z1, z2 = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        a = infonce(stacked(z1, z2), tau=0.5).item()
        b = infonce(stacked(z1 * 800.0, z2 * 0.001), tau=0.5).item()
        assert b == pytest.approx(a, rel=1e-12)

    def test_each_row_is_normalized_on_its_own(self):
        # the loss reads each row's direction only: a positive scale per row
        # leaves it unchanged, so each row's gradient is orthogonal to the row
        # and shrinks by the row's scale
        rng = np.random.default_rng(3)
        z = rng.normal(size=(8, 4)) + 0.5
        scale = rng.uniform(0.01, 100.0, size=(8, 1))
        plain, scaled = dc.param(z), dc.param(z * scale)
        losses = [infonce(leaf, tau=0.5) for leaf in (plain, scaled)]
        for loss in losses:
            loss.backward()
        assert losses[1].item() == pytest.approx(losses[0].item(), rel=1e-12)
        npt.assert_allclose((plain.grad * z).sum(axis=1), 0.0, atol=1e-12)
        npt.assert_allclose(scaled.grad * scale, plain.grad, rtol=1e-9, atol=1e-14)

    def test_high_temperature_limit_is_log_n_minus_one(self):
        rng = np.random.default_rng(4)
        z1, z2 = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        val = infonce(stacked(z1, z2), tau=1e9).item()
        assert val == pytest.approx(math.log(2), abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        z1 = rng.normal(size=(50, 8))
        z2 = rng.normal(size=(50, 8))
        got = infonce(stacked(z1, z2), tau=0.5).item()
        want = brute_infonce(z1, z2, 0.5)
        assert got == pytest.approx(want, abs=1e-10)

    def test_ssl_loss_contrasts_the_read_rows_of_each_copy(self):
        rng = np.random.default_rng(7)
        z1, z2 = rng.normal(size=(10, 4)), rng.normal(size=(10, 4))
        subset = np.array([1, 4, 9])
        # a two-copy union as a rows forward holds it: the subset of z1, then of z2
        both = stacked(z1[subset], z2[subset])
        union = NodeStates([both], [both], [], copies=2, rows=(subset, subset))
        got = ssl_loss(union, 0.5)[0].item()
        want = brute_infonce(z1[subset], z2[subset], 0.5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            infonce(dc.param(np.ones((2, 3))), 0.5)
        with pytest.raises(ValueError, match="tau"):
            infonce(dc.param(np.ones((6, 2))), 0.0)
        for shape in ((5, 2), (6,)):
            with pytest.raises(ValueError, match="two stacked views"):
                infonce(dc.param(np.ones(shape)), 0.5)

    def test_an_all_zero_row_has_zero_cosines_and_the_guarded_gradient(self):
        # below EPS_GUARD a row is divided by EPS_GUARD, not by its norm: its
        # cosines are 0 and its gradient is that of the linear map z / EPS_GUARD
        rng = np.random.default_rng(13)
        z1, z2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        z1[1] = 0.0
        z2[3] = 0.0

        z = np.vstack([z1, z2])
        want = brute_infonce(z1, z2, 0.5)
        assert infonce(dc.param(z), 0.5).item() == pytest.approx(want, abs=1e-12)
        leaf = dc.param(z)
        infonce(leaf, 0.5).backward()
        assert np.isfinite(leaf.grad).all()
        for i in np.ndindex(z.shape):
            h = 1e-18 if i[0] in (1, 7) else 1e-6  # inside the guard at the zero rows
            orig = z[i]
            z[i] = orig + h
            f_plus = infonce(dc.param(z), 0.5).item()
            z[i] = orig - h
            f_minus = infonce(dc.param(z), 0.5).item()
            z[i] = orig
            numeric = (f_plus - f_minus) / (2 * h)
            assert abs(leaf.grad[i] - numeric) <= 1e-6 * max(1.0, abs(numeric)), i
        assert np.abs(leaf.grad[1]).max() > 1e6  # the guarded row is steep

    def test_gradient_against_finite_difference(self):
        rng = np.random.default_rng(11)
        x = {"z": np.vstack([rng.normal(size=(5, 3)), rng.normal(size=(5, 3))])}

        def f(leaves):
            return infonce(leaves["z"], tau=0.7)

        assert grad_check(f, x) < 1e-7


class TestSslLoss:
    def test_symmetric_fixture_gives_equal_parts(self):
        train = small_responses()
        q = small_qmatrix()
        split = directed_split(build_relation_graph(train, q))
        params = init_params(4, 5, 3, seed=0)
        s1 = gcn_forward(params, split)
        s2 = gcn_forward(params, split)
        loss_s, loss_e = ssl_loss(stack_copies(s1, s2), tau=0.5)
        # identical views: each node is perfectly aligned with itself
        assert np.isfinite(loss_s.item()) and np.isfinite(loss_e.item())
        s1b = gcn_forward(params, split)
        loss_s2, _ = ssl_loss(stack_copies(s1b, s1b), tau=0.5)
        assert loss_s.item() == pytest.approx(loss_s2.item(), rel=1e-12)

    @pytest.mark.parametrize("picked", [[2], []])
    def test_a_side_with_fewer_than_two_rows_gives_none(self, picked):
        train = small_responses()
        split = directed_split(build_relation_graph(train, small_qmatrix()))
        params = init_params(4, 5, 3, seed=0)
        few, every = np.array(picked, dtype=np.intp), np.arange(4)
        views = View(np.ones((2, split.e2s.n_edges), bool), np.ones((2, split.s2e.n_edges), bool))
        few_exercises = gcn_forward(params, split, view=views, rows=(every, few))
        loss_s, loss_e = ssl_loss(few_exercises, 0.5)
        assert loss_e is None and np.isfinite(loss_s.item())
        few_students = gcn_forward(params, split, view=views, rows=(few, every))
        loss_s, loss_e = ssl_loss(few_students, 0.5)
        assert loss_s is None and np.isfinite(loss_e.item())

    @pytest.mark.parametrize("copies", [1, 3])
    def test_only_a_two_copy_union_is_contrasted(self, small_world, copies):
        params = init_params(4, 5, 3, seed=0)
        split = small_world["split"]
        states = stack_copies(*(gcn_forward(params, split) for _ in range(copies)))
        with pytest.raises(ValueError, match=f"got {copies}"):
            ssl_loss(states, 0.5)


class TestTotalLoss:
    def test_arithmetic_composition(self):
        total, breakdown = total_loss(
            dc.param(np.array(1.0)),
            dc.param(np.array(1.5)),
            dc.param(np.array(0.5)),
            {},
            lambda1=0.1,
            lambda2=0.0,
            tau=0.5,
        )
        assert total.item() == pytest.approx(1.2, rel=1e-12)
        assert breakdown.total == pytest.approx(1.2, rel=1e-12)

    def test_reg_sums_all_parameters(self):
        params = {
            "a": dc.param(np.array([1.0, 2.0])),
            "b": dc.param(np.array([[2.0]])),
        }
        total, breakdown = total_loss(
            dc.param(np.array(0.0)), None, None, params, 0.1, 0.5, 0.5
        )
        assert breakdown.reg == pytest.approx(9.0)
        assert total.item() == pytest.approx(4.5)
        assert breakdown.ssl_student == 0.0 and breakdown.ssl_exercise == 0.0

    def test_breakdown_invariant(self):
        _, b = total_loss(
            dc.param(np.array(2.0)),
            dc.param(np.array(0.25)),
            dc.param(np.array(0.75)),
            {"p": dc.param(np.array([3.0]))},
            lambda1=0.3,
            lambda2=0.01,
            tau=1.0,
        )
        assert b.total == pytest.approx(b.main + 0.3 * (b.ssl_student + b.ssl_exercise) + 0.01 * b.reg)

    def test_weighted_forms_the_total_of_plain_floats(self):
        terms = (np.float64(1 / 3), np.float64(0.1), 0.2, np.float64(2.0))
        b = LossBreakdown.weighted(*terms, 0.1, 1e-4, 0.5)
        assert b == LossBreakdown(*terms, 1 / 3 + (0.1 + 0.2) * 0.1 + 2.0 * 1e-4, 0.1, 1e-4, 0.5)
        assert all(type(x) is float for x in (b.main, b.ssl_student, b.reg, b.total))

    @pytest.mark.parametrize("ssl", [(0.25, 0.75), (None, 0.75), (None, None)])
    def test_the_node_carries_the_breakdown_total(self, monkeypatch, ssl):
        """total_loss forms its total once, by LossBreakdown.weighted, and its
        node differentiates exactly the number the breakdown logs."""
        calls = []
        weighted = LossBreakdown.weighted.__func__

        def recording(cls, *args):
            calls.append(args)
            return weighted(cls, *args)

        monkeypatch.setattr(LossBreakdown, "weighted", classmethod(recording))
        parts = [None if x is None else dc.param(np.array(x)) for x in ssl]
        p = {"p": dc.param(np.array([3.0]))}
        total, b = total_loss(dc.param(np.array(2.0)), *parts, p, 0.3, 0.01, 1.0)
        s, e = (0.0 if x is None else x for x in ssl)
        assert calls == [(2.0, s, e, 9.0, 0.3, 0.01, 1.0)]
        assert total.value.shape == () and total.item() == b.total

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            total_loss(dc.param(np.array(np.inf)), None, None, {}, 0.1, 0.1, 0.5)

    @pytest.mark.parametrize("side", ["student", "exercise"])
    def test_one_sided_ssl_adds_and_trains_only_the_present_side(self, side):
        main, present = dc.param(np.array(2.0)), dc.param(np.array(0.25))
        p = dc.param(np.array([3.0]))
        parts = (present, None) if side == "student" else (None, present)
        total, b = total_loss(main, *parts, {"p": p}, lambda1=0.3, lambda2=0.01, tau=1.0)
        assert total.item() == 2.0 + 0.3 * 0.25 + 0.01 * 9.0
        want = (0.25, 0.0) if side == "student" else (0.0, 0.25)
        assert (b.ssl_student, b.ssl_exercise) == want
        total.backward()
        assert len(total.parents) == 3  # main, the present side and the regularizer
        assert main.grad == 1.0 and present.grad == 0.3
        npt.assert_array_equal(p.grad, [0.01 * 2 * 3.0])

    def test_csv_row_full_precision(self):
        b = LossBreakdown(
            main=1 / 3, ssl_student=0.1, ssl_exercise=0.2, reg=2.0, total=1 / 3 + 0.03 + 2e-4,
            lambda1=0.1, lambda2=1e-4, tau=0.5,
        )
        row = b.csv_row(12)
        parts = row.split(",")
        assert parts[0] == "12"
        assert float(parts[1]) == 1 / 3  # repr round-trips exactly
        assert LossBreakdown.CSV_HEADER.count(",") == row.count(",")
