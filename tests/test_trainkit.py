import csv
import dataclasses
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from scdkit.corpus import dataset_stats, load_qmatrix, load_responses
from scdkit.diffcore import DiffNode
from scdkit.evalkit import evaluate_checkpoint
from scdkit.objectives import main_loss, ssl_loss, total_loss
from scdkit.scdmodel import (
    diagnose,
    gcn_forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from scdkit.synth import make_synthetic, write_synthetic
from scdkit import evalkit, objectives, trainkit
from scdkit.trainkit import (
    AdamState,
    ResumeMismatch,
    RunRefused,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    fit,
    train_epoch,
    _epoch_views,
    _rng,
    _train_step,
)
from scdkit.viewgen import DropoutParams
from conftest import full_then_rows, grad_check, small_qmatrix, small_responses
from scdkit.relgraph import DIRECTIONS, build_relation_graph, directed_split


@pytest.fixture(scope="module")
def small_files(tmp_path_factory):
    data = make_synthetic(n_students=30, n_exercises=15, n_concepts=5, seed=3)
    return write_synthetic(tmp_path_factory.mktemp("data"), data)


class TestConfig:
    def test_roundtrip_through_flat_dict(self):
        cfg = TrainConfig(epochs=9, dropout=DropoutParams(k=2.0, p_min=0.5), tau=0.7)
        flat = cfg.to_dict()
        assert flat["k"] == 2.0 and flat["p_min"] == 0.5 and "dropout" not in flat
        assert TrainConfig.from_dict(flat) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            TrainConfig.from_dict({"epocks": 3})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("beta1", 0.9), ("beta2", 0.999), ("adam_eps", 1e-8),
            ("include_positive", False), ("include_positive", True),
        ],
    )
    def test_retired_keys_are_not_config_keys(self, key, value):
        with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
            TrainConfig.from_dict({key: value})

    def test_settable_values(self):
        assert sorted(TrainConfig().to_dict()) == sorted([
            "epochs", "batch_size", "learning_rate", "k", "theta", "p_min", "tau",
            "lambda1", "lambda2", "n_layers", "dim", "master_seed", "mode",
            "min_interactions", "train_ratio", "checkpoint_every",
        ])

    def test_mode_and_bounds_validated(self):
        with pytest.raises(ValueError, match="mode"):
            TrainConfig(mode="contrastive")
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_tau_whose_contrast_overflows_is_refused(self):
        smallest = 1.0 / trainkit.MAX_EXP_ARG
        assert np.isfinite(np.exp(1.0 / TrainConfig(tau=smallest).tau))
        with pytest.raises(ValueError, match=r"tau must be >= 0\.001408881876: .* 709\.78"):
            TrainConfig(tau=np.nextafter(smallest, 0.0))


class TestAdam:
    def setup_method(self):
        self.cfg = TrainConfig(epochs=1, learning_rate=0.1)

    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.fresh(params)
        state.step = 1
        adam_step(params, {"w": np.zeros(2)}, state, self.cfg)
        npt.assert_array_equal(params["w"], [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        for g in (1e-4, 1.0, 1e6):  # |g| >> adam eps
            params = {"w": np.zeros(1)}
            state = AdamState.fresh(params)
            state.step = 1
            adam_step(params, {"w": np.array([g])}, state, self.cfg)
            # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
            assert abs(params["w"][0] + 0.1) < 1e-3

    def test_two_runs_identical(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=4) for _ in range(20)]
        outs = []
        for _ in range(2):
            params = {"w": np.ones(4)}
            state = AdamState.fresh(params)
            for g in grads:
                state.step += 1
                adam_step(params, {"w": g}, state, self.cfg)
            outs.append(params["w"].copy())
        npt.assert_array_equal(outs[0], outs[1])

    def test_two_steps_with_the_published_constants(self):
        """Kingma & Ba's β1 = 0.9, β2 = 0.999 and ε = 1e-8, by hand."""
        params = {"w": np.array([0.5])}
        state = AdamState.fresh(params)
        m = v = 0.0
        w = 0.5
        for step, g in enumerate((2.0, -1.0), start=1):
            state.step = step
            adam_step(params, {"w": np.array([g])}, state, self.cfg)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat, v_hat = m / (1 - 0.9**step), v / (1 - 0.999**step)
            w -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert state.m["w"][0] == pytest.approx(m, rel=1e-15)
        assert state.v["w"][0] == pytest.approx(v, rel=1e-15)
        assert params["w"][0] == pytest.approx(w, rel=1e-15)

    def test_non_finite_gradient_aborts(self):
        params = {"w": np.ones(2)}
        state = AdamState.fresh(params)
        state.step = 1
        with pytest.raises(TrainingDiverged, match="w"):
            adam_step(params, {"w": np.array([1.0, np.nan])}, state, self.cfg)


class TestTrainEpoch:
    def world(self):
        train = small_responses()
        split = directed_split(build_relation_graph(train, small_qmatrix()))
        params = init_params(4, 5, 3, seed=0)
        return params, split, train

    def test_supervised_only_has_exactly_zero_ssl(self):
        params, split, train = self.world()
        cfg = TrainConfig(epochs=1, mode="supervised-only", batch_size=4)
        opt = AdamState.fresh(params)
        b = train_epoch(params, split, train, cfg, epoch=1, opt=opt)
        assert b.ssl_student == 0.0 and b.ssl_exercise == 0.0
        assert b.total == pytest.approx(b.main + cfg.lambda2 * b.reg, rel=1e-12)

    def test_breakdown_composition_invariant(self):
        params, split, train = self.world()
        cfg = TrainConfig(epochs=1, mode="scd", batch_size=4)
        opt = AdamState.fresh(params)
        b = train_epoch(params, split, train, cfg, epoch=1, opt=opt)
        assert b.total == pytest.approx(
            b.main + b.lambda1 * (b.ssl_student + b.ssl_exercise) + b.lambda2 * b.reg,
            rel=1e-12,
        )

    def test_loss_decreases_over_fifty_epochs(self):
        params, split, train = self.world()
        cfg = TrainConfig(epochs=50, mode="scd", batch_size=16, learning_rate=0.01)
        opt = AdamState.fresh(params)
        first = train_epoch(params, split, train, cfg, epoch=1, opt=opt)
        last = None
        for epoch in range(2, 51):
            last = train_epoch(params, split, train, cfg, epoch=epoch, opt=opt)
        assert last.total < first.total

    def test_adam_steps_advance_per_batch(self):
        params, split, train = self.world()
        cfg = TrainConfig(epochs=1, mode="supervised-only", batch_size=3)
        opt = AdamState.fresh(params)
        train_epoch(params, split, train, cfg, epoch=1, opt=opt)
        assert opt.step == 4  # ceil(10 / 3)

    def test_empty_train_set_rejected(self):
        params, split, train = self.world()
        empty = train.replace_records(np.zeros(len(train), dtype=bool))
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ValueError, match="empty"):
            train_epoch(params, split, empty, cfg, 1, AdamState.fresh(params))


class TestTrainEpochRows:
    """train_epoch computes the last layer only for the rows a step reads;
    the reference is the same step loop with every forward in full, then
    its rows."""

    @pytest.mark.parametrize(
        "mode, one_student",
        [("scd", False), ("scd-random", False), ("supervised-only", False), ("scd", True)],
    )
    def test_matches_full_forward_loop_bitwise(self, monkeypatch, mode, one_student):
        train = small_responses()
        q = small_qmatrix()
        split = directed_split(build_relation_graph(train, q))
        if one_student:  # every batch holds one distinct student
            train = train.replace_records(train.students == 1)
        cfg = TrainConfig(epochs=2, mode=mode, batch_size=3, learning_rate=0.01)
        seen_rows = []

        def full_forward(*args, rows=None, **kwargs):
            seen_rows.append(rows)
            return full_then_rows(gcn_forward(*args, **kwargs), rows)

        def run():
            params = init_params(4, 5, 3, seed=0)
            opt = AdamState.fresh(params)
            logs = [train_epoch(params, split, train, cfg, epoch, opt) for epoch in (1, 2)]
            return logs, params, opt

        logs, params, opt = run()
        monkeypatch.setattr(trainkit, "gcn_forward", full_forward)
        ref_logs, ref_params, ref_opt = run()

        assert logs == ref_logs
        for name, value in ref_params.items():
            assert params[name].tobytes() == value.tobytes(), name
            assert opt.m[name].tobytes() == ref_opt.m[name].tobytes(), name
            assert opt.v[name].tobytes() == ref_opt.v[name].tobytes(), name
        # the rows train_epoch asked for: the batch's own students
        assert all(rows is not None for rows in seen_rows)
        if one_student:  # one student has no negatives: no student term
            assert all(rows[0].tolist() == [1] for rows in seen_rows)
            assert [log.ssl_student for log in logs] == [0.0, 0.0]
        else:
            assert any(len(set(rows[0])) < 4 for rows in seen_rows)


class TestStepGraphLifetime:
    """At most one step's graph is alive: the previous step's is gone before
    the next step's first forward."""

    @pytest.mark.parametrize("mode", ["scd", "supervised-only"])
    def test_previous_step_graph_is_dead_when_the_next_step_starts(self, monkeypatch, mode):
        train, q = small_responses(), small_qmatrix()
        split = directed_split(build_relation_graph(train, q))
        params = init_params(4, 5, 3, seed=0)
        alive = []  # weak references to the values of the last step's graph
        checks = []

        def count_previous_alive():
            checks.append(sum(ref() is not None for ref in alive))

        def checked_forward(*args, **kwargs):
            count_previous_alive()
            return gcn_forward(*args, **kwargs)

        def recording_total_loss(*args, **kwargs):
            count_previous_alive()
            out = total_loss(*args, **kwargs)
            alive.clear()
            stack, seen = [out[0]], set()
            while stack:  # every node of the step's graph, through its parents
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    alive.append(weakref.ref(node.value))
                    stack.extend(node.parents)
            return out

        monkeypatch.setattr(trainkit, "gcn_forward", checked_forward)
        monkeypatch.setattr(trainkit, "total_loss", recording_total_loss)
        cfg = TrainConfig(epochs=1, mode=mode, batch_size=4)
        train_epoch(params, split, train, cfg, 1, AdamState.fresh(params))
        per_step = 3 if mode == "scd" else 2  # forwards plus the total
        assert len(checks) == 3 * per_step and len(alive) > 20
        assert checks == [0] * len(checks)

    def test_a_default_step_and_a_scoring_call_record_their_pinned_tapes(self, monkeypatch):
        # the step: 17 parameter leaves; 7 aggregates per forward (the last
        # layer has no e2c), 3 row tilings, 2 heads, the prediction, and the
        # response loss, 2 InfoNCE sides, the regularizer and the total. The
        # scoring call reads no final concept state, so neither the last e2c
        # aggregate nor its weight is on its tape
        train, q = small_responses(), small_qmatrix()
        split = directed_split(build_relation_graph(train, q))
        params = init_params(4, 5, 3, seed=0)
        roots = []

        def recording(orig):
            def call(*args, **kwargs):
                out = orig(*args, **kwargs)
                roots.append(out[0] if isinstance(out, tuple) else out)
                return out

            return call

        def tape(root):
            leaves, interior, stack, seen = 0, 0, [root], set()
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    leaves, interior = leaves + (not node.parents), interior + bool(node.parents)
                    stack.extend(node.parents)
            return leaves, interior

        monkeypatch.setattr(trainkit, "total_loss", recording(total_loss))
        monkeypatch.setattr(evalkit, "predict", recording(predict))
        train_epoch(params, split, train, TrainConfig(), 1, AdamState.fresh(params))
        evalkit.evaluate(params, split, train)
        assert [tape(root) for root in roots] == [(17, 25), (16, 10)]

    def test_epoch_peak_memory_does_not_grow_with_steps(self, tmp_path):
        # a graph large against the per-epoch state and the batch, so that
        # holding two steps' graphs at once reads about 1.5x one step's
        rp, qp = write_synthetic(tmp_path, make_synthetic(400, 40, 8, seed=0))
        rs = load_responses(rp)
        q = load_qmatrix(qp, rs)
        split = directed_split(build_relation_graph(rs, q))
        cfg = TrainConfig(epochs=1, batch_size=64)

        def epoch_peak(n_batches):
            keep = np.arange(len(rs)) < n_batches * cfg.batch_size
            train = rs.replace_records(keep)
            params = init_params(rs.n_students, rs.n_exercises, q.n_concepts, seed=0)
            opt = AdamState.fresh(params)
            tracemalloc.start()
            try:
                train_epoch(params, split, train, cfg, 1, opt)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert opt.step == n_batches
            return peak

        one, three = epoch_peak(1), epoch_peak(3)
        assert three <= 1.25 * one, f"3-batch peak {three} B, 1-batch peak {one} B"


    def test_backward_keeps_only_the_root_and_leaf_values(self, monkeypatch):
        train, q = small_responses(), small_qmatrix()
        split = directed_split(build_relation_graph(train, q))
        params = init_params(4, 5, 3, seed=0)
        roots = []

        def recording_total_loss(*args, **kwargs):
            out = total_loss(*args, **kwargs)
            roots.append(out[0])
            return out

        monkeypatch.setattr(trainkit, "total_loss", recording_total_loss)
        cfg = TrainConfig(epochs=1, batch_size=4)
        train_epoch(params, split, train, cfg, 1, AdamState.fresh(params))
        assert len(roots) == 3
        for root in roots:  # parents outlive the walk, so the graph is still there
            interior, leaves, stack, seen = [], [], [root], set()
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    (interior if node.parents else leaves).append(node)
                    stack.extend(node.parents)
            assert root.value is not None and root.value.shape == ()
            assert len(leaves) == len(params) and all(leaf.value is not None for leaf in leaves)
            assert len(interior) > 20
            assert all(node.value is None for node in interior if node is not root)

    @pytest.mark.parametrize("mode", ["scd", "supervised-only"])
    def test_attention_weights_die_during_the_backward_walk(self, monkeypatch, mode):
        # nothing but an aggregate's rule holds its weights when the walk
        # starts, so they are freed with the rule, before the step returns
        train, q = small_responses(), small_qmatrix()
        split = directed_split(build_relation_graph(train, q))
        params = init_params(4, 5, 3, seed=0)
        weights = []  # weak references to the running step's attention arrays
        recorded, alive = [], []
        walk = DiffNode.backward

        def recording_forward(*args, **kwargs):
            states = gcn_forward(*args, **kwargs)
            weights.extend(weakref.ref(a) for arrays in states.attention.values() for a in arrays)
            return states

        def checked_backward(node):
            walk(node)
            recorded.append(len(weights))
            alive.append(sum(ref() is not None for ref in weights))
            weights.clear()

        monkeypatch.setattr(trainkit, "gcn_forward", recording_forward)
        monkeypatch.setattr(DiffNode, "backward", checked_backward)
        cfg = TrainConfig(epochs=1, mode=mode, batch_size=4)
        train_epoch(params, split, train, cfg, 1, AdamState.fresh(params))
        forwards = 2 if mode == "scd" else 1
        assert recorded == [forwards * 4 * params.n_layers] * 3
        assert alive == [0, 0, 0]

    def test_backward_peak_memory_stays_under_its_bound(self, monkeypatch, tmp_path):
        # one step on a 400x40x8 graph: holding every tape value until the
        # walk ends peaks 0.32 MB above the memory held when backward starts,
        # freeing each value as the walk passes it 0.16 MB
        rp, qp = write_synthetic(tmp_path, make_synthetic(400, 40, 8, seed=0))
        rs = load_responses(rp)
        q = load_qmatrix(qp, rs)
        split = directed_split(build_relation_graph(rs, q))
        cfg = TrainConfig(epochs=1, batch_size=64)
        train = rs.replace_records(np.arange(len(rs)) < cfg.batch_size)
        params = init_params(rs.n_students, rs.n_exercises, q.n_concepts, seed=0)
        peaks = []
        walk = DiffNode.backward

        def traced_backward(node):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            walk(node)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)

        monkeypatch.setattr(DiffNode, "backward", traced_backward)
        tracemalloc.start()
        try:
            train_epoch(params, split, train, cfg, 1, AdamState.fresh(params))
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1
        assert peaks[0] < 230_000, f"backward peaked {peaks[0]} B above its start"


    def test_default_step_peak_memory_stays_under_its_bound(self, tmp_path):
        # one default scd step (batch 256, two views) on 1000x100x20 data
        # peaks 3.5 MB above the memory held before it; a step that kept
        # every aggregate's weighted sums and ran full last layers peaked
        # 5.4 MB (numpy 2.4.6)
        rp, qp = write_synthetic(tmp_path, make_synthetic(1000, 100, 20, seed=0))
        rs = load_responses(rp)
        q = load_qmatrix(qp, rs)
        split = directed_split(build_relation_graph(rs, q))
        cfg = TrainConfig()
        params = init_params(rs.n_students, rs.n_exercises, q.n_concepts, seed=0)
        opt = AdamState.fresh(params)
        views = _epoch_views(split, cfg, 1)
        order = _rng(0, 1, 2).permutation(len(rs))
        _train_step(params, split, rs, cfg, views, order[: cfg.batch_size], opt)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            _train_step(params, split, rs, cfg, views, order[cfg.batch_size : 512], opt)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 4_400_000, f"the step peaked {peak} B above what it started with"


class TestUnionObjective:
    def test_gradients_through_view_union_match_finite_differences(self):
        """The objective of one mini-batch as train_epoch builds it: the
        response loss on the intact graph and the contrastive loss on both
        views through one union forward, on views that drop edges and so give
        the positive pairs a gradient."""
        train, q = small_responses(), small_qmatrix()
        split = directed_split(build_relation_graph(train, q))
        params = init_params(4, 5, 3, dim=3, n_layers=2, seed=11)
        pair = _epoch_views(split, TrainConfig(dropout=DropoutParams(k=0.3)), epoch=1)
        for j in (0, 1):
            assert not np.concatenate([pair.kept_e2s[j], pair.kept_s2e[j]]).all()
        assert not np.array_equal(pair.kept_e2s[0], pair.kept_e2s[1])
        batch = np.array([0, 3, 6, 7])  # students 0-2 and exercises 0, 2, 3
        b_students, b_exercises = train.students[batch], train.exercises[batch]
        s_sub, e_sub = np.unique(b_students), np.unique(b_exercises)

        def objective(leaves):
            states = gcn_forward(params, split, nodes=leaves, rows=(s_sub, e_sub))
            y = predict(diagnose(states, leaves), leaves, split, b_students, b_exercises)
            union = gcn_forward(params, split, view=pair, nodes=leaves, rows=(s_sub, e_sub))
            loss_s, loss_e = ssl_loss(union, 0.5)
            main = main_loss(y, train.scores[batch])
            return total_loss(main, loss_s, loss_e, leaves, 1.0, 1e-4, 0.5)[0]

        worst = grad_check(objective, params, eps=1e-5)
        assert worst < 1e-4, f"max relative gradient error {worst}"


class TestSeeding:
    def test_streams_differ_by_tag_and_epoch(self):
        a = _rng(0, 1, 1).random(4)
        b = _rng(0, 1, 2).random(4)
        c = _rng(0, 2, 1).random(4)
        d = _rng(1, 1, 1).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        npt.assert_array_equal(a, _rng(0, 1, 1).random(4))


class TestFit:
    def config(self, **kw):
        base = dict(
            epochs=3, batch_size=64, min_interactions=1, train_ratio=0.6, master_seed=5,
            learning_rate=0.01,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_writes_expected_artifacts(self, small_files, tmp_path):
        rp, qp = small_files
        result = fit(self.config(), rp, qp, tmp_path / "run")
        out = tmp_path / "run"
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint.npz", "stats.json", "test.csv", "train.csv", "train_log.csv",
        ]
        ckpt = load_checkpoint(out / "checkpoint.npz")
        rs = load_responses(rp)
        assert (ckpt.student_keys, ckpt.exercise_keys) == (rs.student_keys, rs.exercise_keys)
        assert ckpt.concept_keys == load_qmatrix(qp, rs).concept_keys
        log = (out / "train_log.csv").read_text().splitlines()
        assert log[0] == "epoch,main,ssl_s,ssl_e,reg,total"
        assert len(log) == 4
        train_n = len(load_responses(out / "train.csv"))
        test_n = len(load_responses(out / "test.csv"))
        filtered = len(rs)  # min_interactions=1 keeps everyone here
        assert train_n + test_n == filtered

    def test_a_non_finite_statistic_is_refused_not_written(
        self, small_files, tmp_path, monkeypatch
    ):
        def nan_density(rs, q):
            return dataclasses.replace(dataset_stats(rs, q), density=float("nan"))

        monkeypatch.setattr(trainkit, "dataset_stats", nan_density)
        with pytest.raises(ValueError, match="not JSON compliant"):
            fit(self.config(), *small_files, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_ids_with_comma_and_quote_survive_fit_and_eval(self, small_files, tmp_path):
        rp, qp = small_files
        rs = load_responses(rp)
        busiest = int(np.argmax(np.bincount(rs.students)))
        odd_id = 'stu,"7'
        keys = list(rs.student_keys)
        keys[busiest] = odd_id
        responses = tmp_path / "responses.csv"
        with open(responses, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["student", "exercise", "score"])
            for s, e, t in zip(rs.students, rs.exercises, rs.scores):
                writer.writerow([keys[s], rs.exercise_keys[e], t])
        result = fit(self.config(epochs=1), responses, qp, tmp_path / "run")
        assert odd_id in load_responses(result.train_path).student_keys
        assert odd_id in load_responses(result.test_path).student_keys
        report = evaluate_checkpoint(result.checkpoint_path, result.test_path)
        assert odd_id in load_checkpoint(result.checkpoint_path).student_keys
        assert sum(r.n_train for r in report.per_student) > 0

    def test_same_seed_bitwise_identical_logs(self, small_files, tmp_path):
        rp, qp = small_files
        a = fit(self.config(), rp, qp, tmp_path / "a")
        b = fit(self.config(), rp, qp, tmp_path / "b")
        assert a.log_path.read_text() == b.log_path.read_text()
        for k, v in a.params.items():
            npt.assert_array_equal(v, b.params[k])

    def test_different_seed_differs(self, small_files, tmp_path):
        rp, qp = small_files
        a = fit(self.config(), rp, qp, tmp_path / "a")
        b = fit(self.config(master_seed=6), rp, qp, tmp_path / "b")
        assert a.log_rows != b.log_rows

    def test_resume_reproduces_bitwise_continuation(self, small_files, tmp_path):
        rp, qp = small_files
        full = fit(self.config(epochs=6), rp, qp, tmp_path / "full")
        head = fit(self.config(epochs=3), rp, qp, tmp_path / "head")
        tail = fit(
            self.config(epochs=6), rp, qp, tmp_path / "tail",
            resume_from=head.checkpoint_path,
        )
        assert tail.log_rows == full.log_rows[3:]
        for k, v in full.params.items():
            npt.assert_array_equal(v, tail.params[k])
        ck_full = load_checkpoint(full.checkpoint_path)
        ck_tail = load_checkpoint(tail.checkpoint_path)
        assert ck_full.opt.step == ck_tail.opt.step
        for k in ck_full.opt.m:
            npt.assert_array_equal(ck_full.opt.m[k], ck_tail.opt.m[k])
            npt.assert_array_equal(ck_full.opt.v[k], ck_tail.opt.v[k])

    def test_resume_from_full_width_attention_checkpoint(self, small_files, tmp_path):
        """Checkpoints written while each attention weight was the full (2d, 1)
        [head, neighbor] array load with the neighbor halves of the weights
        and moments, and train on exactly as the unbroken run."""
        rp, qp = small_files
        full = fit(self.config(epochs=6), rp, qp, tmp_path / "full")
        head = fit(self.config(epochs=3), rp, qp, tmp_path / "head")
        rng = np.random.default_rng(0)
        with np.load(head.checkpoint_path) as data:
            arrays = {k: data[k] for k in data.files}
        for key, arr in arrays.items():
            if key[3:].startswith("attn"):  # p__, m__ and v__ arrays
                # positive, so that a second moment stays valid
                arrays[key] = np.concatenate([rng.uniform(0.1, 1.0, arr.shape), arr])
        wide = tmp_path / "wide.npz"
        np.savez(wide, **arrays)
        tail = fit(self.config(epochs=6), rp, qp, tmp_path / "tail", resume_from=wide)
        assert tail.log_rows == full.log_rows[3:]
        for k, v in full.params.items():
            npt.assert_array_equal(v, tail.params[k])

    def test_resume_beyond_target_rejected(self, small_files, tmp_path):
        rp, qp = small_files
        head = fit(self.config(epochs=3), rp, qp, tmp_path / "head")
        with pytest.raises(ValueError, match="already at epoch"):
            fit(self.config(epochs=3), rp, qp, tmp_path / "again",
                resume_from=head.checkpoint_path)

    def test_resume_on_other_data_with_same_counts_rejected(self, small_files, tmp_path):
        rp, qp = small_files
        head = fit(self.config(epochs=3), rp, qp, tmp_path / "head")
        other = write_synthetic(tmp_path / "other", make_synthetic(30, 15, 5, seed=4))
        ckpt = load_checkpoint(head.checkpoint_path)
        rs = load_responses(other[0])
        g = ckpt.graph
        assert (g.n_students, g.n_exercises) == (rs.n_students, rs.n_exercises)
        with pytest.raises(ValueError, match="edges"):
            fit(self.config(epochs=6), *other, tmp_path / "tail",
                resume_from=head.checkpoint_path)

    def test_resume_on_other_node_counts_rejected(self, small_files, tmp_path):
        rp, qp = small_files
        head = fit(self.config(epochs=3), rp, qp, tmp_path / "head")
        other = write_synthetic(tmp_path / "other", make_synthetic(40, 15, 5, seed=3))
        with pytest.raises(ValueError, match="node counts"):
            fit(self.config(epochs=6), *other, tmp_path / "tail",
                resume_from=head.checkpoint_path)

    def test_resume_with_other_model_structure_rejected(self, small_files, tmp_path):
        rp, qp = small_files
        head = fit(self.config(epochs=3), rp, qp, tmp_path / "head")
        with pytest.raises(ValueError, match="n_layers"):
            fit(self.config(epochs=6, n_layers=3, dim=7), rp, qp, tmp_path / "tail",
                resume_from=head.checkpoint_path)
        with pytest.raises(ValueError, match="dim"):
            fit(self.config(epochs=6, dim=7), rp, qp, tmp_path / "tail",
                resume_from=head.checkpoint_path)

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"mode": "scd-random"}, "mode"),
            ({"master_seed": 6}, "master_seed"),
            ({"dropout": DropoutParams(p_min=0.5)}, "p_min"),
            ({"min_interactions": 2}, "min_interactions"),
            ({"train_ratio": 0.7}, "train_ratio"),
        ],
    )
    def test_resume_with_other_data_or_view_config_rejected(
        self, small_files, tmp_path, change, key
    ):
        rp, qp = small_files
        head = fit(self.config(epochs=1), rp, qp, tmp_path / "head")
        with pytest.raises(ValueError, match=key):
            fit(self.config(epochs=2, **change), rp, qp, tmp_path / "tail",
                resume_from=head.checkpoint_path)

    def test_resume_on_other_scores_rejected(self, small_files, tmp_path):
        rp, qp = small_files
        head = fit(self.config(epochs=2), rp, qp, tmp_path / "head")
        data = make_synthetic(30, 15, 5, seed=3)
        flipped = dataclasses.replace(
            data, responses=[(s, e, 1 - t) for s, e, t in data.responses]
        )
        other = write_synthetic(tmp_path / "flipped", flipped)
        with pytest.raises(ResumeMismatch, match="train records"):
            fit(self.config(epochs=4), *other, tmp_path / "tail",
                resume_from=head.checkpoint_path)
        assert not (tmp_path / "tail").exists()

    def test_resume_without_optimizer_state_rejected(self, small_files, tmp_path):
        rp, qp = small_files
        head = fit(self.config(epochs=1), rp, qp, tmp_path / "head")
        bare = tmp_path / "bare.npz"
        ckpt = load_checkpoint(head.checkpoint_path)
        save_checkpoint(bare, dataclasses.replace(ckpt, opt=None))
        with pytest.raises(ResumeMismatch, match="optimizer state"):
            fit(self.config(epochs=2), rp, qp, tmp_path / "tail", resume_from=bare)
        assert not (tmp_path / "tail").exists()

    def test_resume_with_missing_moment_array_rejected(self, small_files, tmp_path):
        rp, qp = small_files
        head = fit(self.config(epochs=1), rp, qp, tmp_path / "head")
        with np.load(head.checkpoint_path) as data:
            arrays = {k: data[k] for k in data.files if k != "m__w_predict"}
        edited = tmp_path / "edited.npz"
        np.savez(edited, **arrays)
        with pytest.raises(ValueError, match="missing.*w_predict"):
            fit(self.config(epochs=2), rp, qp, tmp_path / "tail", resume_from=edited)
        assert not (tmp_path / "tail").exists()

    @staticmethod
    def lower_row_limit(monkeypatch, limit):
        monkeypatch.setattr(objectives, "INFONCE_MAX_ROWS", limit)
        monkeypatch.setattr(trainkit, "INFONCE_MAX_ROWS", limit)

    def n_train_records(self, files, tmp_path, monkeypatch) -> int:
        """How many train records `fit` splits off the files with self.config()."""
        seen = []

        class Reached(Exception):
            pass

        def first_epoch(params, split, train_set, *args):
            seen.append(len(train_set))
            raise Reached

        with monkeypatch.context() as patch:
            patch.setattr(trainkit, "train_epoch", first_epoch)
            with pytest.raises(Reached):
                fit(self.config(mode="supervised-only"), *files, tmp_path / "count")
        return seen[0]

    @pytest.mark.parametrize("mode", ["scd", "scd-random"])
    def test_batches_over_the_row_limit_refused_before_output(
        self, small_files, tmp_path, monkeypatch, mode
    ):
        # 30 students: a batch of 64 records can hold more than 20 of them
        self.lower_row_limit(monkeypatch, 20)
        with pytest.raises(RunRefused, match="batch of 64 records contrasts up to 30 students"):
            fit(self.config(mode=mode), *small_files, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_a_last_one_record_batch_inside_the_row_limit_trains(
        self, small_files, tmp_path, monkeypatch
    ):
        # its one student and one exercise have no negatives, so that step
        # adds no contrastive term
        n_records = self.n_train_records(small_files, tmp_path, monkeypatch)
        size = next(b for b in range(2, 21) if n_records % b == 1)
        self.lower_row_limit(monkeypatch, 20)
        result = fit(self.config(epochs=2, batch_size=size), *small_files, tmp_path / "run")
        assert len(result.log_rows) == 2 and result.checkpoint_path.exists()

    def test_batches_inside_the_row_limit_train(self, small_files, tmp_path, monkeypatch):
        n_records = self.n_train_records(small_files, tmp_path, monkeypatch)
        size = next(b for b in range(20, 1, -1) if n_records % b > 1)
        self.lower_row_limit(monkeypatch, 20)
        result = fit(self.config(epochs=1, batch_size=size), *small_files, tmp_path / "run")
        assert len(result.log_rows) == 1

    def test_split_from_checkpoint_equals_the_split_fit_trained_on(
        self, small_files, tmp_path, monkeypatch
    ):
        built = []

        def recording_split(graph):
            built.append(directed_split(graph))
            return built[-1]

        monkeypatch.setattr(trainkit, "directed_split", recording_split)
        rp, qp = small_files
        result = fit(self.config(), rp, qp, tmp_path / "run")
        (trained,) = built
        back = directed_split(load_checkpoint(result.checkpoint_path).graph)
        for d in DIRECTIONS:
            want, got = trained.adjacency(d), back.adjacency(d)
            assert got.n_heads == want.n_heads, d
            for name in ("heads", "tails"):
                a, b = getattr(want, name), getattr(got, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (d, name)

    def test_periodic_checkpoints(self, small_files, tmp_path):
        rp, qp = small_files
        fit(self.config(epochs=4, checkpoint_every=2), rp, qp, tmp_path / "run")
        assert (tmp_path / "run" / "checkpoint_ep2.npz").exists()
        assert (tmp_path / "run" / "checkpoint_ep4.npz").exists()

    def test_divergence_saves_rescue_checkpoint(self, small_files, tmp_path):
        rp, qp = small_files
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged, match="last good"):
                fit(self.config(epochs=5, learning_rate=1e160), rp, qp, tmp_path / "run")
        rescue = tmp_path / "run" / "checkpoint_diverged.npz"
        assert rescue.exists()
        back = load_checkpoint(rescue)
        assert all(np.all(np.isfinite(v)) for v in back.params.values())
        # diverged in epoch 1: the optimizer saved with the params is the fresh one
        assert back.epoch == 0 and back.opt.step == 0
        assert all(not np.any(m) for m in back.opt.m.values())
        assert all(not np.any(v) for v in back.opt.v.values())

    def test_divergence_after_adam_steps_saves_the_last_epoch_bitwise(
        self, small_files, tmp_path, monkeypatch
    ):
        """A step of epoch 2 runs its Adam update and then diverges: the
        rescue checkpoint holds epoch 1's parameters, moments and step, not
        the state that update left behind."""
        diverge_after_an_adam_step(monkeypatch, 2)
        rp, qp = small_files
        with pytest.raises(TrainingDiverged, match="epoch 2: injected"):
            fit(self.config(epochs=3, checkpoint_every=1), rp, qp, tmp_path / "run")
        out = tmp_path / "run"
        epoch1 = load_checkpoint(out / "checkpoint_ep1.npz")
        assert epoch1.epoch == 1 and epoch1.opt.step > 0
        assert all(np.any(m) for m in epoch1.opt.m.values())
        assert all(np.any(v) for v in epoch1.opt.v.values())
        with np.load(out / "checkpoint_ep1.npz") as want, np.load(
            out / "checkpoint_diverged.npz"
        ) as got:
            assert got.files == want.files
            for name in want.files:
                a, b = want[name], got[name]
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("fail_epoch", [2, 3])
    def test_a_resumed_run_that_diverges_saves_its_last_good_epoch_bitwise(
        self, small_files, tmp_path, monkeypatch, fail_epoch
    ):
        """A run resumed from epoch 1 diverges after an Adam step of
        `fail_epoch`. The rescue holds epoch fail_epoch - 1 bitwise: the
        resumed run's own checkpoint of it, and the state the uninterrupted
        run had there; in the first resumed epoch, the loaded state."""
        rp, qp = small_files
        head = tmp_path / "head"
        fit(self.config(epochs=3, checkpoint_every=1), rp, qp, head)
        epochs = diverge_after_an_adam_step(monkeypatch, fail_epoch)
        tail = tmp_path / "tail"
        with pytest.raises(TrainingDiverged, match=f"epoch {fail_epoch}: injected"):
            fit(
                self.config(epochs=4, checkpoint_every=1), rp, qp, tail,
                resume_from=head / "checkpoint_ep1.npz",
            )
        assert epochs[0] == 2
        good = fail_epoch - 1
        rescue = npz_members(tail / "checkpoint_diverged.npz")
        if good > 1:
            assert rescue == npz_members(tail / f"checkpoint_ep{good}.npz")
        first = npz_members(head / f"checkpoint_ep{good}.npz")
        assert rescue.keys() == first.keys()
        for name in first.keys() - {"meta"}:
            assert rescue[name] == first[name], name
        got = load_checkpoint(tail / "checkpoint_diverged.npz")
        want = load_checkpoint(head / f"checkpoint_ep{good}.npz")
        assert (got.epoch, got.opt.step) == (want.epoch, want.opt.step)
        assert got.epoch == good and got.opt.step > 0


def npz_members(path) -> dict[str, tuple]:
    """Each member of an npz file: its dtype, shape and bytes."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    return {name: (a.dtype, a.shape, a.tobytes()) for name, a in arrays.items()}


def diverge_after_an_adam_step(monkeypatch, fail_epoch: int) -> list[int]:
    """Make fit's first Adam step of epoch `fail_epoch` raise once it has
    updated the parameters; returns the epochs fit enters, as it enters them."""
    epochs = []

    def recording_epoch(params, split, train_set, config, epoch, opt):
        epochs.append(epoch)
        return train_epoch(params, split, train_set, config, epoch, opt)

    def diverging_adam(params, grads, state, config):
        adam_step(params, grads, state, config)
        if epochs[-1] == fail_epoch:
            raise FloatingPointError(f"injected after an epoch-{fail_epoch} Adam step")

    monkeypatch.setattr(trainkit, "train_epoch", recording_epoch)
    monkeypatch.setattr(trainkit, "adam_step", diverging_adam)
    return epochs
