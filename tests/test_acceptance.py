"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is numbered so the summary hook in conftest.py prints a stable
pass/fail line per guarantee. Everything here goes through public APIs only.
"""

import math
import time

import numpy as np
import pytest

from scdkit import diffcore as dc
from scdkit.cli import main as cli_main
from scdkit.corpus import QMatrix, ResponseSet
from scdkit.evalkit import accuracy, evaluate_checkpoint, rmse, student_table, tail_metrics
from scdkit.objectives import infonce, main_loss, ssl_loss, total_loss
from scdkit.relgraph import DIRECTIONS, build_relation_graph, directed_split
from scdkit.scdmodel import diagnose, gcn_forward, init_params, predict
from scdkit.synth import make_synthetic, write_synthetic
from scdkit.trainkit import TrainConfig, fit
from scdkit.viewgen import (
    View,
    edge_importance,
    generate_random_view,
    generate_view_pair,
    matched_uniform_p,
    retention_prob,
    retention_table,
)
from conftest import brute_infonce, grad_check, small_qmatrix, small_responses, stack_copies


def tiny_world():
    train = small_responses()
    split = directed_split(build_relation_graph(train, small_qmatrix()))
    return train, split


def full_objective(leaves, params, split, train, views, lambda1, lambda2, tau):
    """Supervised loss on the intact graph plus contrastive loss on two views:
    a View of two stacked mask rows runs as one two-copy union forward, and a
    pair of views (None is the intact graph) as two forwards stacked by
    `stack_copies`."""
    states = gcn_forward(params, split, None, leaves)
    diag = diagnose(states, leaves)
    y = predict(diag, leaves, split, train.students, train.exercises)
    main = main_loss(y, train.scores)
    if isinstance(views, View):
        union = gcn_forward(params, split, views, leaves)
    else:
        union = stack_copies(*(gcn_forward(params, split, v, leaves) for v in views))
    loss_s, loss_e = ssl_loss(union, tau)
    total, _ = total_loss(main, loss_s, loss_e, leaves, lambda1, lambda2, tau)
    return total


def test_c01_full_objective_gradients_match_finite_differences():
    """Backprop through two GCN layers, both contrastive views in one union
    forward, the prediction head and the regularizer agrees with central
    differences."""
    train, split = tiny_world()
    params = init_params(4, 5, 3, dim=3, n_layers=2, seed=11)
    pair = generate_view_pair(split, TrainConfig(), np.random.default_rng(5))
    views = View(np.stack([v.kept_e2s for v in pair]), np.stack([v.kept_s2e for v in pair]))

    def f(leaves):
        return full_objective(leaves, params, split, train, views, 0.1, 1e-4, 0.5)

    start = time.perf_counter()
    worst = grad_check(f, params, eps=1e-5)
    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"max relative gradient error {worst}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def random_world(rng):
    n_students = int(rng.integers(3, 9))
    n_exercises = int(rng.integers(4, 11))
    n_concepts = int(rng.integers(2, 5))
    pairs = {(e, int(rng.integers(n_concepts))) for e in range(n_exercises)}
    pairs |= {
        (int(rng.integers(n_exercises)), int(rng.integers(n_concepts))) for _ in range(5)
    }
    pairs = sorted(pairs)
    q = QMatrix(
        np.array([p[0] for p in pairs], dtype=np.intp),
        np.array([p[1] for p in pairs], dtype=np.intp),
        n_exercises,
        n_concepts,
        tuple(f"c{k}" for k in range(n_concepts)),
    )
    students, exercises = [], []
    for s in range(n_students):
        answered = rng.choice(n_exercises, int(rng.integers(1, n_exercises + 1)), replace=False)
        students.extend([s] * len(answered))
        exercises.extend(int(e) for e in answered)
    rs = ResponseSet(
        np.array(students, dtype=np.intp),
        np.array(exercises, dtype=np.intp),
        rng.integers(0, 2, len(students)).astype(np.int64),
        n_students,
        n_exercises,
        tuple(f"s{i}" for i in range(n_students)),
        tuple(f"e{j}" for j in range(n_exercises)),
    )
    split = directed_split(build_relation_graph(rs, q))
    params = init_params(
        n_students,
        n_exercises,
        n_concepts,
        dim=int(rng.integers(2, 5)),
        n_layers=int(rng.integers(1, 3)),
        seed=int(rng.integers(1_000_000)),
    )
    return split, params


def test_c02_attention_weights_sum_to_one_per_neighborhood():
    """Across 100 random graphs (half under dropout views) every node's
    incoming attention distribution is a proper distribution."""
    for trial in range(100):
        rng = np.random.default_rng(trial)
        split, params = random_world(rng)
        view = generate_view_pair(split, TrainConfig(), rng)[0] if trial % 2 else None
        states = gcn_forward(params, split, view)
        for direction in DIRECTIONS:
            adj = split.adjacency(direction)
            mask = None  # concept edges are never masked
            if view is not None:
                mask = {"e2s": view.kept_e2s, "s2e": view.kept_s2e}.get(direction)
            heads = adj.heads if mask is None else adj.heads[mask]
            for alpha in states.attention[direction]:
                if len(alpha) == 0:
                    continue
                sums = np.bincount(heads, weights=alpha, minlength=adj.n_heads)
                occupied = np.bincount(heads, minlength=adj.n_heads) > 0
                assert np.max(np.abs(sums[occupied] - 1.0)) <= 1e-9


def star_split(degrees):
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


def test_c03_dropout_retention_matches_theory_and_is_monotone():
    """Empirical keep rates over 10,000 draws sit within 3 binomial sigma of
    the degree-based probabilities, and those probabilities never increase
    with degree."""
    split = star_split([1, 3, 20, 100])
    dropout = TrainConfig()
    draws = 10_000
    rows = {row["degree"]: row for row in retention_table(split, dropout, draws, np.random.default_rng(0))}

    trials = {}
    for adj in (split.e2s, split.s2e):
        for d in adj.indegrees():
            if d > 0:
                trials[int(d)] = trials.get(int(d), 0) + int(d)

    targets = {1: 1.0, 3: 0.9075, 20: 0.3338, 100: 0.3}
    assert rows[1]["empirical"] == 1.0  # sigma is zero at p = 1
    for degree in (3, 20, 100):
        p = targets[degree]
        sigma = math.sqrt(p * (1 - p) / (trials[degree] * draws))
        gap = abs(rows[degree]["empirical"] - p)
        assert gap <= 3 * sigma, f"degree {degree}: |{gap}| > 3*{sigma}"

    probs = [retention_prob(edge_importance(d, dropout), dropout.p_min) for d in range(1, 1001)]
    assert all(b <= a for a, b in zip(probs, probs[1:]))


def heavy_tail_split():
    """125 students, 500 interactions, degrees from 1 to 60 over 60 exercises."""
    degrees = [1] * 50 + [2] * 30 + [3] * 20 + [5] * 10 + [10] * 8 + [20] * 5 + [40, 60]
    rng = np.random.default_rng(42)
    students, exercises = [], []
    for s, d in enumerate(degrees):
        answered = rng.choice(60, d, replace=False)
        students.extend([s] * d)
        exercises.extend(int(e) for e in answered)
    rs = ResponseSet(
        np.array(students, dtype=np.intp),
        np.array(exercises, dtype=np.intp),
        np.zeros(len(students), dtype=np.int64),
        len(degrees),
        60,
        tuple(f"s{i}" for i in range(len(degrees))),
        tuple(f"e{j}" for j in range(60)),
    )
    q = QMatrix(np.arange(60, dtype=np.intp), np.zeros(60, dtype=np.intp), 60, 1, ("c0",))
    return directed_split(build_relation_graph(rs, q))


def test_c04_matched_uniform_dropout_keeps_as_many_edges():
    """The calibrated uniform ablation drops edges uniformly but keeps the
    same expected edge count as the degree-aware strategy."""
    split = heavy_tail_split()
    dropout = TrainConfig()
    assert split.e2s.n_edges == 500 and split.s2e.n_edges == 500
    p_uniform = matched_uniform_p(split, dropout)

    per_edge = []
    for adj in (split.e2s, split.s2e):
        deg = adj.indegrees()
        probs = np.array(
            [retention_prob(edge_importance(int(d), dropout), dropout.p_min) for d in deg[deg > 0]]
        )
        per_edge.append(np.repeat(probs, deg[deg > 0]))
    per_edge = np.concatenate(per_edge)

    draws = 1_000
    rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(2)
    kept_scd = np.array([
        a.kept_e2s.sum() + b.kept_s2e.sum()
        for a, b in (generate_view_pair(split, dropout, rng_a) for _ in range(draws))
    ])
    kept_rand = np.array([
        generate_random_view(split, p_uniform, rng_b).kept_e2s.sum()
        + generate_random_view(split, p_uniform, rng_b).kept_s2e.sum()
        for _ in range(draws)
    ])

    var_scd = float(np.sum(per_edge * (1 - per_edge)))
    var_rand = len(per_edge) * p_uniform * (1 - p_uniform)
    sigma_diff = math.sqrt((var_scd + var_rand) / draws)
    gap = abs(kept_scd.mean() - kept_rand.mean())
    assert gap <= 3 * sigma_diff, f"mean kept gap {gap} vs 3 sigma {3 * sigma_diff}"


def test_c05_contrastive_loss_matches_brute_force():
    """Vectorized contrastive loss equals a pairwise double loop on 50-node
    inputs, and the two constructible exact values come out exact."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        z1 = rng.normal(size=(50, 8))
        z2 = rng.normal(size=(50, 8))
        for tau in (0.5, 2.0):
            got = infonce(dc.param(np.vstack([z1, z2])), tau)
            assert abs(got.item() - brute_infonce(z1, z2, tau)) <= 1e-10

    # identical orthonormal rows: every negative is orthogonal, loss is -1
    eye = np.eye(2)
    assert infonce(dc.param(np.vstack([eye, eye])), 1.0).item() == -1.0
    # all pairs orthogonal: positives and negatives tie, loss is 0
    z1 = np.array([[1.0, 0.0], [1.0, 0.0]])
    z2 = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert infonce(dc.param(np.vstack([z1, z2])), 1.0).item() == 0.0


def test_c06_metrics_match_hand_computed_values():
    """Overall and bottom-half metrics reproduce a fully hand-solved
    4-student fixture to 1e-12."""
    students = np.array([0] * 2 + [1] * 2 + [2] * 10 + [3] * 5)
    preds = np.array([0.8, 0.8, 0.8, 0.2] + [0.8] * 15)
    labels = np.array([1, 0, 1, 0] + [1] * 9 + [0] + [1] * 4 + [0])
    train_counts = np.array([2, 3, 10, 20])

    assert accuracy(preds, labels) == pytest.approx(16 / 19, abs=1e-12)
    assert rmse(preds, labels) == pytest.approx(math.sqrt(2.56 / 19), abs=1e-12)

    rows = student_table(students, preds, labels, train_counts)
    acc50, rmse50 = tail_metrics(rows)
    assert acc50 == pytest.approx(0.75, abs=1e-12)
    assert rmse50 == pytest.approx((math.sqrt(0.34) + 0.2) / 2, abs=1e-12)


def test_c07_p_min_one_views_reproduce_intact_graph_gradients():
    """With retention forced to 1 the two views are the intact graph, and the
    whole backward pass is bit-identical to skipping view masks entirely."""
    train, split = tiny_world()
    params = init_params(4, 5, 3, dim=3, n_layers=2, seed=11)

    def grads(views):
        leaves = params.wrap()
        total = full_objective(leaves, params, split, train, views, 0.1, 1e-4, 0.5)
        total.backward()
        return {name: np.array(node.grad, copy=True) for name, node in leaves.items()}

    va, vb = generate_view_pair(split, TrainConfig(p_min=1.0), np.random.default_rng(3))
    assert all(v.kept_e2s.all() and v.kept_s2e.all() for v in (va, vb))
    with_views = grads((va, vb))
    without = grads((None, None))
    assert with_views.keys() == without.keys()
    for name in with_views:
        assert np.array_equal(with_views[name], without[name]), name


def test_c08_training_log_is_bit_reproducible(tmp_path):
    """Two CLI training runs with one config and seed write byte-identical
    epoch logs."""
    write_synthetic(tmp_path, make_synthetic(30, 15, 5, seed=3))
    logs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main([
            "train",
            "--responses", str(tmp_path / "responses.csv"),
            "--qmatrix", str(tmp_path / "qmatrix.csv"),
            "--output-dir", str(out),
            "--override", "epochs=3",
            "--override", "min_interactions=1",
            "--override", "train_ratio=0.5",
            "--seed", "123",
        ])
        assert code == 0
        logs.append((out / "train_log.csv").read_bytes())
    assert logs[0] == logs[1]


@pytest.fixture(scope="module")
def longtail_benchmark(tmp_path_factory):
    """Fifteen short training runs (3 modes x 5 seeds) on one synthetic
    long-tail dataset, reporting overall and tail accuracy per run."""
    root = tmp_path_factory.mktemp("bench")
    write_synthetic(root, make_synthetic(seed=7, noise=0.10))
    base = dict(
        epochs=50,
        min_interactions=1,
        train_ratio=0.5,
        learning_rate=0.01,
        lambda1=2.0,
        tau=1.0,
    )
    results = {"scd": [], "supervised-only": [], "scd-random": []}
    start = time.perf_counter()
    for seed in range(5):
        for mode in results:
            out = root / f"{mode}-{seed}"
            config = TrainConfig(mode=mode, master_seed=seed, **base)
            fit(config, root / "responses.csv", root / "qmatrix.csv", out)
            report = evaluate_checkpoint(out / "checkpoint.npz", out / "test.csv")
            results[mode].append((report.acc, report.acc50))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_c09_contrastive_training_lifts_tail_accuracy(longtail_benchmark):
    """Full training beats its own supervised-only ablation on bottom-half
    accuracy for most seeds while clearing an absolute accuracy bar, well
    inside the runtime budget."""
    results, elapsed = longtail_benchmark
    wins = 0
    for (acc, acc50), (_, sup_acc50) in zip(results["scd"], results["supervised-only"]):
        if acc >= 0.75 and acc50 > sup_acc50:
            wins += 1
    assert wins >= 3, f"only {wins}/5 seeds improved: {results}"
    assert elapsed < 300.0, f"benchmark took {elapsed:.0f}s"


def test_c10_degree_aware_dropout_beats_uniform_dropout(longtail_benchmark):
    """Degree-aware edge dropout matches or beats the uniform-rate ablation
    on bottom-half accuracy for most seeds."""
    results, _ = longtail_benchmark
    wins = sum(
        scd[1] >= rand[1] for scd, rand in zip(results["scd"], results["scd-random"])
    )
    assert wins >= 3, f"only {wins}/5 seeds: {results}"
