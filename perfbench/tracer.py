"""Span tracer for the sciu benchmark.

The tracer wraps the public entry points of each sciu layer from outside the
package: every module attribute that holds the original function (for
example both `sciu.model.backward_batch` and `sciu.trainer.backward_batch`,
the name `run_epoch` looks up) is replaced by one wrapper, and every name is
restored on exit. Nothing under `src/` changes.

One span is recorded per call, in flat arrays kept in memory until the
benchmark writes them out. A span stores its name, its parent span, its
start and its duration, the time covered by its child spans, and whether it
is the outermost open span of its layer (so that a layer's busy time counts
nested calls once). Hooks run after a call returns, to count rows or to
capture decisions for the checker; their time, and the wrapper's own
bookkeeping, is kept out of every span's duration and self time.

Per-sample helpers under the wrapped functions (`trailing_mean`,
`prune_decision`, `label_stable`, `score_gap`, `ScoreHistory.record`, ...)
are not wrapped: their time is the self time of the decision function that
calls them, and wrapping them would multiply the tracing cost.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# Modules that time their work. `cli` and `report` are thin shells over
# `pipeline`; they are searched for names to patch but have no spans.
LAYERS = (
    "nn_core", "model", "trainer", "cgp", "fgc",
    "dataset", "synth", "metrics", "pipeline",
)
SEARCHED = ("sciu",) + tuple(f"sciu.{m}" for m in LAYERS + ("cli", "report"))

# (layer, attribute path in sciu.<layer>, span name)
WRAPPED = (
    ("nn_core", "linear_forward", "nn_core.linear_forward"),
    ("nn_core", "relu", "nn_core.relu"),
    ("nn_core", "sigmoid", "nn_core.sigmoid"),
    ("nn_core", "softmax", "nn_core.softmax"),
    ("nn_core", "sgd_momentum_step", "nn_core.sgd_momentum_step"),
    ("model", "init_model", "model.init_model"),
    ("model", "forward_batch", "model.forward_batch"),
    ("model", "backward_batch", "model.backward_batch"),
    ("dataset", "Dataset.validate", "dataset.validate"),
    ("dataset", "Dataset.subset", "dataset.subset"),
    ("dataset", "Dataset.with_labels", "dataset.with_labels"),
    ("dataset", "Dataset.labels", "dataset.labels"),
    ("dataset", "save_dataset", "dataset.save_dataset"),
    ("dataset", "load_dataset", "dataset.load_dataset"),
    ("dataset", "stratified_split", "dataset.stratified_split"),
    ("synth", "generate", "synth.generate"),
    ("cgp", "record_score", "cgp.record_score"),
    ("cgp", "apply_pruning", "cgp.apply_pruning"),
    ("fgc", "record_prediction", "fgc.record_prediction"),
    ("fgc", "apply_corrections", "fgc.apply_corrections"),
    ("trainer", "train_stage", "trainer.train_stage"),
    ("trainer", "run_epoch", "trainer.run_epoch"),
    ("trainer", "evaluate", "trainer.evaluate"),
    ("metrics", "ConfusionMatrix.from_predictions", "metrics.confusion"),
    ("metrics", "war", "metrics.war"),
    ("metrics", "uar", "metrics.uar"),
    ("metrics", "pruning_quality", "metrics.pruning_quality"),
    ("metrics", "correction_quality", "metrics.correction_quality"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pipeline", "sweep", "pipeline.sweep"),
    ("pipeline", "report_to_json", "pipeline.report_to_json"),
)


class Patcher:
    """Replaces a sciu function at every name that holds it; undoes it all."""

    def __init__(self):
        self._undo = []

    def wrap(self, module: str, path: str, make_wrapper) -> None:
        """Replace `sciu.<module>.<path>` by `make_wrapper(original)`.

        A dotted path names a method; a classmethod stays a classmethod.
        """
        owner = importlib.import_module(f"sciu.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            self._set(cls, attr, new)
            return
        original = getattr(owner, path)
        wrapper = make_wrapper(original)
        for name in SEARCHED:
            mod = importlib.import_module(name)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)


class Tracer:
    """Records spans and counters for every function in `WRAPPED`.

    `hooks` maps a span name to `hook(tracer, args, kwargs, result)`, run
    after a successful call.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names = [w[2] for w in WRAPPED]
        self.name_layer = np.array([LAYERS.index(w[0]) for w in WRAPPED])
        self._name = array("i")
        self._parent = array("i")
        self._outer = array("b")
        self._start = array("q")
        self._dur = array("q")
        self._child = array("q")
        self._stack = []
        self._depth = [0] * len(LAYERS)
        self.hook_ns = 0
        self.counters: dict[str, int] = {}

    def bump(self, counter: str, n: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def mark(self) -> int:
        return len(self._name)

    def _make(self, nid: int, lid: int, hook):
        tr = self
        names, parents, outers = self._name, self._parent, self._outer
        starts, durs, childs = self._start, self._dur, self._child
        stack, depth = self._stack, self._depth

        def make_wrapper(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                o0 = perf_counter_ns()
                h0 = tr.hook_ns
                i = len(names)
                parent = stack[-1] if stack else -1
                names.append(nid)
                parents.append(parent)
                outers.append(depth[lid] == 0)
                childs.append(0)
                durs.append(0)
                depth[lid] += 1
                stack.append(i)
                t0 = perf_counter_ns()
                starts.append(t0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter_ns()
                    durs[i] = t1 - t0 - (tr.hook_ns - h0)
                    stack.pop()
                    depth[lid] -= 1
                if hook is not None:
                    k0 = perf_counter_ns()
                    hook(tr, args, kwargs, result)
                    tr.hook_ns += perf_counter_ns() - k0
                if parent >= 0:
                    childs[parent] += perf_counter_ns() - o0 - (tr.hook_ns - h0)
                return result

            return traced

        return make_wrapper

    @contextmanager
    def installed(self):
        patcher = Patcher()
        try:
            for nid, (layer, path, name) in enumerate(WRAPPED):
                lid = LAYERS.index(layer)
                patcher.wrap(layer, path, self._make(nid, lid, self.hooks.get(name)))
            yield self
        finally:
            patcher.restore()

    def aggregate(self, begin: int, end: int, counters_before: dict) -> dict:
        """Per-name and per-layer calls, busy and self seconds of the spans
        recorded in [begin, end), plus the counters bumped since
        `counters_before` was copied."""
        name = np.frombuffer(self._name[begin:end], dtype=np.int32)
        dur = np.frombuffer(self._dur[begin:end], dtype=np.int64).astype(np.float64)
        child = np.frombuffer(self._child[begin:end], dtype=np.int64).astype(np.float64)
        outer = np.frombuffer(self._outer[begin:end], dtype=np.int8).astype(bool)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        busy = np.bincount(name, weights=dur, minlength=n) / 1e9
        own = np.bincount(name, weights=dur - child, minlength=n) / 1e9
        layer = self.name_layer[name]
        nl = len(LAYERS)
        out = {}
        for k, nm in enumerate(self.names):
            out[f"{nm}.calls"] = int(calls[k])
            out[f"{nm}.s"] = float(busy[k])
            out[f"{nm}.self_s"] = float(own[k])
        l_calls = np.bincount(layer, minlength=nl)
        l_busy = np.bincount(layer[outer], weights=dur[outer], minlength=nl) / 1e9
        l_own = np.bincount(layer, weights=dur - child, minlength=nl) / 1e9
        for k, lay in enumerate(LAYERS):
            out[f"{lay}.calls"] = int(l_calls[k])
            out[f"{lay}.s"] = float(l_busy[k])
            out[f"{lay}.self_s"] = float(l_own[k])
        for c, v in self.counters.items():
            out[c] = v - counters_before.get(c, 0)
        return out

    def save(self, path) -> None:
        """Write every span recorded so far (times in ns)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_layer=self.name_layer,
            layers=np.array(LAYERS),
            name=np.frombuffer(self._name, dtype=np.int32).copy(),
            parent=np.frombuffer(self._parent, dtype=np.int32).copy(),
            outer=np.frombuffer(self._outer, dtype=np.int8).copy(),
            start_ns=np.frombuffer(self._start, dtype=np.int64).copy(),
            dur_ns=np.frombuffer(self._dur, dtype=np.int64).copy(),
            child_ns=np.frombuffer(self._child, dtype=np.int64).copy(),
        )
