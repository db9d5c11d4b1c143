"""Clock readings and spans that the benchmark takes from outside scdkit.

Nothing here edits scdkit. `Rebinder` swaps the public names that `trainkit`
and `evalkit` look up at call time (plus `DiffNode.backward`) for wrappers
and puts the originals back afterwards.

* `SetupClock` is installed in every run, once on `trainkit.train_epoch`
  and once on `evalkit.evaluate`. It times the set-up of `trainkit.fit` or
  `evalkit.evaluate_checkpoint`: from the call until it first enters that
  name. It keeps the arguments of that entry and, when the caller only wants
  those, ends the call there by raising `SetupDone`; otherwise it also times
  that first call.
* `StepClock` is installed in every training run. It takes one clock reading
  per optimizer step, when `trainkit.adam_step` returns, keeps each step's
  loss for the output check, and ends a timed window by raising
  `WindowClosed` from that boundary.
* `Tracer` is installed in traced runs only. Each wrapped call records a span
  (name, start, end, parent, run id). Spans stay in memory until the run
  writes them out. A name that scdkit no longer has is listed as absent and
  its span is skipped.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from specs import PER_LAYER


class WindowClosed(Exception):
    """Raised at a step boundary once the timed window has run out."""


class Rebinder:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, name: str, make) -> bool:
        orig = getattr(owner, name, None)
        if orig is None:
            return False
        # __wrapped__ keeps the original signature visible through every layer
        setattr(owner, name, functools.update_wrapper(make(orig), orig))
        self._undo.append((owner, name, orig))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)


class SetupDone(Exception):
    """Raised where a set-up ends, when only its outputs are wanted."""


class SetupClock:
    def __init__(self):
        self.intervals: list[tuple[float, float]] = []  # (start, end) of each set-up
        self.first_calls: list[tuple[float, float]] = []  # the call each one ended in
        self.args: dict = {}  # arguments of the first operation, by parameter name
        self._start: float | None = None
        self._stop = False

    def install(self, rebinder: Rebinder, module, name: str) -> None:
        if not rebinder.wrap(module, name, self._wrap):
            raise RuntimeError(f"{module.__name__}.{name} is gone: set-up cannot be timed")

    def start(self, stop: bool) -> float:
        """Mark the start of a set-up, just before calling fit or
        evaluate_checkpoint; with `stop`, end that call with SetupDone."""
        self._stop = stop
        self._start = time.perf_counter()
        return self._start

    def _wrap(self, orig):
        signature = inspect.signature(orig)

        def first_operation(*args, **kwargs):
            if self._start is None:
                return orig(*args, **kwargs)
            entry = time.perf_counter()
            self.intervals.append((self._start, entry))
            self._start = None
            self.args = dict(signature.bind(*args, **kwargs).arguments)
            if self._stop:
                raise SetupDone
            out = orig(*args, **kwargs)
            self.first_calls.append((entry, time.perf_counter()))
            return out

        return first_operation


class StepClock:
    def __init__(self):
        self.marks: list[float] = []
        self.losses: list[float] = []
        self.deadline = math.inf
        self.limit = math.inf  # stop after this many marks in total

    def install(self, rebinder: Rebinder, trainkit) -> None:
        if not rebinder.wrap(trainkit, "adam_step", self._wrap_adam):
            raise RuntimeError("trainkit.adam_step is gone: steps cannot be timed")
        if not rebinder.wrap(trainkit, "total_loss", self._wrap_loss):
            raise RuntimeError("trainkit.total_loss is gone: step losses cannot be checked")

    def _wrap_adam(self, orig):
        def adam_step(*args, **kwargs):
            orig(*args, **kwargs)
            t = time.perf_counter()
            self.marks.append(t)
            if t >= self.deadline or len(self.marks) >= self.limit:
                raise WindowClosed

        return adam_step

    def _wrap_loss(self, orig):
        def total_loss(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.losses.append(float(out[1].total))
            return out

        return total_loss


def tape_size(root) -> tuple[int, int]:
    """Nodes reachable from `root` through DiffNode.parents, and their value bytes."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.value.nbytes
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen), nbytes


# Span name for each name the two modules look up at call time.
TRAINKIT_SPANS = {
    "load_responses": "corpus.load",
    "load_qmatrix": "corpus.load",
    "filter_min_interactions": "corpus.prepare",
    "split_train_test": "corpus.prepare",
    "dataset_stats": "corpus.prepare",
    "build_relation_graph": "relgraph.build",
    "directed_split": "relgraph.build",
    "init_params": "scdmodel.init",
    "gcn_forward": "scdmodel.gcn_forward",
    "diagnose": "scdmodel.heads",
    "predict": "scdmodel.heads",
    "main_loss": "objectives.main_loss",
    "ssl_loss": "objectives.ssl_loss",
    "total_loss": "objectives.total_loss",
    "adam_step": "trainkit.adam",
    "generate_view_pair": "viewgen.views",
    "save_checkpoint": "scdmodel.save_checkpoint",
    "load_checkpoint": "scdmodel.load_checkpoint",
}
EVALKIT_SPANS = {
    "load_checkpoint": "scdmodel.load_checkpoint",
    "directed_split": "relgraph.build",
    "load_responses": "corpus.load_test",
    "align_responses": "corpus.load_test",
    "gcn_forward": "scdmodel.gcn_forward",
    "diagnose": "scdmodel.heads",
    "predict": "scdmodel.heads",
    "student_table": "evalkit.student_table",
    "evaluate": "evalkit.evaluate",
}


def _edges(args, kwargs, view) -> int | None:
    """Edges one gcn_forward call aggregates over, summed over its layers."""
    try:
        params = kwargs["params"] if "params" in kwargs else args[0]
        split = kwargs["split"] if "split" in kwargs else args[1]
        if view is None:
            interaction = split.e2s.n_edges + split.s2e.n_edges
        else:
            interaction = int(view.kept_e2s.sum()) + int(view.kept_s2e.sum())
        return params.n_layers * (interaction + split.c2e.n_edges + split.e2c.n_edges)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def _kept_frac(views) -> list[float]:
    try:
        return [
            (int(v.kept_e2s.sum()) + int(v.kept_s2e.sum())) / (len(v.kept_e2s) + len(v.kept_s2e))
            for v in views
        ]
    except (AttributeError, TypeError, ZeroDivisionError):
        return []


class Tracer:
    """In-memory spans: [name, start, end, parent id, attrs], id = list index."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.on = False
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, attrs: dict | None = None) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        span[4] = attrs
        self._stack.pop()

    @contextmanager
    def _span(self, name: str):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid)

    def span(self, name: str):
        """Context manager recording one span while tracing is on; yields its id."""
        return self._span(name) if self.on else nullcontext()

    # -- instrumentation ------------------------------------------------

    def install(self, rebinder: Rebinder, trainkit, evalkit, diffcore) -> None:
        for module, table in ((trainkit, TRAINKIT_SPANS), (evalkit, EVALKIT_SPANS)):
            for attr, name in table.items():
                if attr == "gcn_forward":
                    make = self._wrap_gcn
                elif attr == "generate_view_pair":
                    make = self._wrap_views
                elif module is evalkit and attr == "predict":
                    make = self._wrap_eval_predict
                else:
                    make = self._wrapper(name)
                if not rebinder.wrap(module, attr, make):
                    self._absent(f"{module.__name__}.{attr}")
        node_cls = getattr(diffcore, "DiffNode", None)
        if node_cls is None or not rebinder.wrap(node_cls, "backward", self._wrap_backward):
            self._absent("scdkit.diffcore.DiffNode.backward")

    def _absent(self, name: str) -> None:
        if name not in self.absent:
            self.absent.append(name)

    def _wrapper(self, name: str):
        def make(orig):
            def traced(*args, **kwargs):
                sid = self.open(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    self.close(sid)

            return traced

        return make

    def _wrap_gcn(self, orig):
        def gcn_forward(*args, **kwargs):
            view = kwargs["view"] if "view" in kwargs else (args[2] if len(args) > 2 else None)
            name = "scdmodel.gcn_forward" if view is None else "scdmodel.gcn_forward_views"
            sid = self.open(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.close(sid, {"edges": _edges(args, kwargs, view)})

        return gcn_forward

    def _wrap_views(self, orig):
        def generate_view_pair(*args, **kwargs):
            sid = self.open("viewgen.views")
            views = ()
            try:
                views = orig(*args, **kwargs)
                return views
            finally:
                self.close(sid, {"kept_frac": _kept_frac(views)})

        return generate_view_pair

    def _walk(self, root) -> None:
        sid = self.open("trace.tape_walk")
        attrs = None
        try:
            nodes, nbytes = tape_size(root)
            attrs = {"nodes": nodes, "bytes": nbytes}
        except AttributeError:
            self._absent("scdkit.diffcore.DiffNode.parents")
        finally:
            self.close(sid, attrs)

    def _wrap_eval_predict(self, orig):
        def predict(*args, **kwargs):
            sid = self.open("scdmodel.heads")
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(sid)
            self._walk(out)
            return out

        return predict

    def _wrap_backward(self, orig):
        def backward(node, *args, **kwargs):
            self._walk(node)
            sid = self.open("diffcore.backward")
            try:
                return orig(node, *args, **kwargs)
            finally:
                self.close(sid)

        return backward

    # -- after the run ---------------------------------------------------

    def add_intervals(self, op: int, name: str, intervals: list[tuple[float, float]]) -> None:
        """Record spans `name` (start, end) under `op` and move the spans that
        began inside one of them from `op` to it."""
        first = len(self.spans)
        for start, end in intervals:
            self.spans.append([name, start, end, op, None])
        starts = [start for start, _ in intervals]
        for span in self.spans[:first]:
            if span[3] != op:
                continue
            i = bisect.bisect_right(starts, span[1]) - 1
            if i >= 0 and span[1] < intervals[i][1]:
                span[3] = first + i

    def write(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, attrs) in enumerate(self.spans):
                row = {
                    "id": sid,
                    "name": name,
                    "start": start - t0,
                    "end": end - t0,
                    "parent": parent,
                    "run": self.run_id,
                }
                if attrs:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")

    def layer_metrics(self, overhead_pct: float) -> dict[str, float]:
        """Per-layer figures, each a mean over the operations it belongs to."""
        children = defaultdict(list)
        for sid, span in enumerate(self.spans):
            children[span[3]].append(sid)

        def dur(sid):
            return self.spans[sid][2] - self.spans[sid][1]

        def ops(name):
            return [sid for sid, span in enumerate(self.spans) if span[0] == name]

        def descendants(roots):
            out, stack = [], list(roots)
            while stack:
                sid = stack.pop()
                kids = children[sid]
                out.extend(kids)
                stack.extend(kids)
            return out

        def outermost(sid, names):
            parent = self.spans[sid][3]
            return self.spans[sid][0] in names and (
                parent is None or self.spans[parent][0] not in names
            )

        def per(spans, names, n):
            return sum(dur(s) for s in spans if outermost(s, names)) * 1e3 / n if n else 0.0

        def mean_attr(spans, name, key):
            vals = [
                v
                for s in spans
                if self.spans[s][0] == name and self.spans[s][4]
                for v in _as_list(self.spans[s][4].get(key))
            ]
            return sum(vals) / len(vals) if vals else 0.0

        steps, scores = ops("op.step"), ops("op.score")
        setups, eval_setups = ops("op.setup"), ops("op.eval_setup")
        n_steps, n_scores = len(steps), len(scores)
        in_steps = [c for s in steps for c in children[s]]
        in_setups = descendants(setups)
        in_eval_setups = descendants(eval_setups)
        in_scores = descendants(scores)
        views = [s for s in in_steps if self.spans[s][0] == "viewgen.views"]
        evaluates = [s for s in in_scores if self.spans[s][0] == "evalkit.evaluate"]
        edges = sum(
            (self.spans[s][4] or {}).get("edges") or 0
            for s in in_steps
            if self.spans[s][0].startswith("scdmodel.gcn_forward")
        )
        m = {
            "diffcore.backward_ms": per(in_steps, {"diffcore.backward"}, n_steps),
            "diffcore.tape_nodes": mean_attr(in_steps, "trace.tape_walk", "nodes"),
            "diffcore.tape_mb": mean_attr(in_steps, "trace.tape_walk", "bytes") / 1e6,
            "scdmodel.gcn_forward_ms": per(in_steps, {"scdmodel.gcn_forward"}, n_steps),
            "scdmodel.gcn_forward_views_ms": per(in_steps, {"scdmodel.gcn_forward_views"}, n_steps),
            "scdmodel.edges_per_step": edges / n_steps if n_steps else 0.0,
            "viewgen.kept_frac": mean_attr(views, "viewgen.views", "kept_frac"),
            "viewgen.views_ms": per(views, {"viewgen.views"}, len(views)),
            "scdmodel.heads_ms": per(in_steps, {"scdmodel.heads"}, n_steps),
            "objectives.main_loss_ms": per(in_steps, {"objectives.main_loss"}, n_steps),
            "objectives.ssl_loss_ms": per(in_steps, {"objectives.ssl_loss"}, n_steps),
            "objectives.total_loss_ms": per(in_steps, {"objectives.total_loss"}, n_steps),
            "trainkit.adam_ms": per(in_steps, {"trainkit.adam"}, n_steps),
            "trainkit.step_self_ms": (
                sum(dur(s) - sum(dur(c) for c in children[s]) for s in steps) * 1e3 / n_steps
                if n_steps
                else 0.0
            ),
            "trainkit.step_wall_ms": per(steps, {"op.step"}, n_steps),
            "trace.tape_walk_ms": per(
                in_steps + in_scores, {"trace.tape_walk"}, n_steps + n_scores
            ),
            "trace.overhead_pct": overhead_pct,
            "corpus.load_ms": per(in_setups, {"corpus.load"}, len(setups)),
            "corpus.prepare_ms": per(in_setups, {"corpus.prepare"}, len(setups)),
            "relgraph.build_ms": per(in_setups, {"relgraph.build"}, len(setups)),
            "scdmodel.init_ms": per(in_setups, {"scdmodel.init"}, len(setups)),
            "scdmodel.load_checkpoint_ms": (
                per(in_eval_setups, {"scdmodel.load_checkpoint"}, len(eval_setups))
            ),
            "corpus.load_test_ms": per(in_eval_setups, {"corpus.load_test"}, len(eval_setups)),
            "scdmodel.forward_ms": (
                per(in_scores, {"scdmodel.gcn_forward", "scdmodel.heads"}, n_scores)
            ),
            "scdmodel.eval_tape_nodes": mean_attr(in_scores, "trace.tape_walk", "nodes"),
            "evalkit.student_table_ms": per(in_scores, {"evalkit.student_table"}, n_scores),
            "evalkit.report_ms": (
                sum(dur(e) - sum(dur(c) for c in children[e]) for e in evaluates) * 1e3 / n_scores
                if n_scores
                else 0.0
            ),
        }
        return {name: m[name] for name in PER_LAYER}


def _as_list(value) -> list:
    if value is None:
        return []
    return value if isinstance(value, list) else [value]
