"""Span tracing for the traced benchmark run.

``install`` wraps triagekit's public functions at the names the program
calls them by (module attributes and class attributes), so every span is
recorded from the benchmark's files and the program's source is unchanged.
An untraced run never calls ``install`` and runs the library unwrapped.

Spans are kept in flat in-memory arrays (name, start, end, parent, request
id, phase) and written with ``Tracer.save`` once the run has ended.
``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np

PHASES = ("other", "setup", "train", "serve")

# Every op the three benchmark models call, by the name triagekit.models (or,
# for ``scale``, triagekit.traineval) imports it under. ``constant`` has no
# backward rule.
OPS = ("embedding_lookup", "conv1d", "relu", "max_pool", "mean_rows", "stack_rows",
       "dense", "dropout", "concat", "flatten", "cross_entropy", "scale",
       "euclidean_distance", "sub", "add_const", "hinge", "constant")


class Tracer:
    """Records spans and the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.phase = array("b")
        self._stack = [-1]
        self.request_id = -1
        self.phase_id = 0
        self.in_loss = False
        # Hash and counting scope of every encoded sentence. Arrays that only
        # grow: a set would free its old tables as it resized, and freeing
        # large blocks raises glibc's mmap and trim thresholds, which would
        # change the program's allocation costs under tracing.
        self.sentence_hash = array("q")
        self.sentence_scope = array("i")
        self.scope = -1
        self.reset_counts()
        self.step_lookups: list[tuple[int, int, np.ndarray]] = []
        self.emb_touched: list[float] = []

    def reset_counts(self) -> None:
        """Start a new counting scope for the encode and density counters."""
        self.scope += 1
        self.nonzero = 0
        self.cells = 0

    def sentence_counts(self) -> tuple[int, int]:
        """(sentences encoded, of which repeats) in the current scope."""
        hashes = np.frombuffer(self.sentence_hash, np.int64)
        hashes = hashes[np.frombuffer(self.sentence_scope, np.int32) == self.scope]
        return hashes.size, hashes.size - np.unique(hashes).size

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.phase.append(self.phase_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, request: int | None = None):
        previous = self.request_id
        if request is not None:
            self.request_id = request
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)
            self.request_id = previous

    def end_step(self) -> None:
        """Share of embedding rows the step's gradient touched, all tables."""
        if self.step_lookups:
            rows: dict[int, tuple[int, list[np.ndarray]]] = {}
            for key, n_rows, ids in self.step_lookups:
                rows.setdefault(key, (n_rows, []))[1].append(ids)
            touched = sum(np.unique(np.concatenate(ids)).size for _, ids in rows.values())
            total = sum(n for n, _ in rows.values())
            self.emb_touched.append(touched / total)
            self.step_lookups = []

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                     start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                     parent=np.frombuffer(self.parent, np.int32),
                     request=np.frombuffer(self.request, np.int32),
                     phase=np.frombuffer(self.phase, np.int8), phases=np.array(PHASES))


class NullTracer:
    """Stands in for a Tracer in the untraced run: records nothing."""

    def reset_counts(self) -> None:
        pass

    def span(self, name: str, request: int | None = None):
        return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# Wrapping

def _timed(tracer: Tracer, name: str, fn, before=None, after=None):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(out)
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _op(tracer: Tracer, op: str, fn):
    fwd = tracer.name_id(f"nn.op.{op}.fwd")
    bwd = tracer.name_id(f"nn.op.{op}.bwd")

    def timed_backward(rule):
        def backward(g):
            idx = tracer.open(bwd)
            try:
                rule(g)
            finally:
                tracer.close(idx)
        return backward

    def wrapper(*args, **kwargs):
        if op == "embedding_lookup" and tracer.in_loss:
            table = args[0].value
            tracer.step_lookups.append((id(table), table.shape[0],
                                        np.asarray(args[1], dtype=np.intp)))
        idx = tracer.open(fwd)
        try:
            node = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        # Eval-mode dropout hands back its input node: its rule is not ours.
        if node._backward is not None and not any(node is a for a in args):
            node._backward = timed_backward(node._backward)
        return node

    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer, triagekit) -> None:
    """Wrap the public functions of corpus, traineval, models and nn."""
    corpus, models, nn, traineval = (triagekit.corpus, triagekit.models,
                                     triagekit.nn, triagekit.traineval)

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, _timed(tracer, name, getattr(owner, attr), **hooks))

    # corpus
    patch(corpus, "read_threads", "corpus.read")
    patch(corpus, "load_users", "corpus.read")
    from_texts = corpus.Vocabulary.__dict__["from_texts"].__func__
    corpus.Vocabulary.from_texts = classmethod(_timed(tracer, "corpus.tokenize", from_texts))
    patch(traineval, "tokenize", "corpus.tokenize")
    patch(models, "split_sentences", "corpus.tokenize")

    def count_sentence(encoder, sentence):
        tracer.sentence_hash.append(hash(sentence))
        tracer.sentence_scope.append(tracer.scope)

    patch(corpus.HashedSentenceEncoder, "encode", "corpus.encode", before=count_sentence)

    # models
    def count_density(matrices):
        for mat in matrices:
            tracer.nonzero += int(np.count_nonzero(mat))
            tracer.cells += mat.size

    matrices = _timed(tracer, "models.instance_matrices", models.instance_matrices,
                      after=count_density)
    models.instance_matrices = traineval.instance_matrices = matrices

    def loss_start(*args, **kwargs):
        tracer.in_loss = True

    def loss_end(out):
        tracer.in_loss = False

    for cls, classify in ((models.RiskModel, "classify"),
                          (models.DepressionModel, "classify_user")):
        patch(cls, "loss", "models.loss", before=loss_start, after=loss_end)
        patch(cls, classify, "models.classify")
        patch(cls, "save", "models.save")
        load = cls.__dict__["load"].__func__
        cls.load = classmethod(_timed(tracer, "models.load", load))

    # traineval
    for attr in ("thread_matrices", "tokenize_users", "select_posts"):
        patch(traineval, attr, f"traineval.{attr}")
    patch(traineval, "train_risk", "traineval.train")
    patch(traineval, "train_depression", "traineval.train")

    # nn, at the names traineval and models call
    patch(traineval, "backward", "nn.backward")
    patch(traineval, "adam_step", "nn.adam_step", after=lambda _: tracer.end_step())
    patch(nn.ParamNodes, "grads", "nn.grads")
    for op in OPS:
        owner = traineval if op == "scale" else models
        setattr(owner, op, _op(tracer, op, getattr(owner, op)))


# ---------------------------------------------------------------------------
# Per-layer metrics

LAYERS = ("corpus", "traineval", "models", "nn", "bench")


def layer_metrics(tracer: Tracer, n_setups: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and counters."""
    names = tracer.names
    name = np.frombuffer(tracer.name, np.int32)
    start = np.frombuffer(tracer.start)
    dur = np.frombuffer(tracer.end) - start
    parent = np.frombuffer(tracer.parent, np.int32)
    phase = np.frombuffer(tracer.phase, np.int8)
    n = name.size

    # Self time: a span's duration less the time its children cover.
    has_parent = parent >= 0
    child = np.zeros(n)
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    layer_of = np.array([LAYERS.index(nm.split(".")[0]) for nm in names], dtype=np.int64)
    span_layer = layer_of[name] if n else np.zeros(0, np.int64)

    # Spans under a classify call (validation inside training, or serving).
    classify_id = tracer._ids.get("models.classify", -1)
    under_classify = np.zeros(n, dtype=bool)
    for i in range(n):
        p = parent[i]
        under_classify[i] = name[i] == classify_id or (p >= 0 and under_classify[p])

    def mask(span_name: str, ph: str | None = None) -> np.ndarray:
        nid = tracer._ids.get(span_name, -1)
        m = name == nid
        if ph is not None:
            m &= phase == PHASES.index(ph)
        return m

    def total(span_name, ph=None) -> float:
        return float(dur[mask(span_name, ph)].sum())

    def mean(span_name, ph=None) -> float:
        d = dur[mask(span_name, ph)]
        return float(d.mean()) if d.size else 0.0

    sentences, repeats = tracer.sentence_counts()
    train = phase == PHASES.index("train")
    loss_starts = start[mask("models.loss", "train")]
    adam = mask("nn.adam_step", "train")
    adam_ends = start[adam] + dur[adam]
    steps = min(loss_starts.size, adam_ends.size)
    step_ms = (adam_ends[:steps] - loss_starts[:steps]) * 1e3
    per_step = 1.0 / max(1, steps)
    train_s = total("traineval.train", "train")

    out = {
        "corpus.read_s": total("corpus.read", "setup") / n_setups,
        "corpus.tokenize_s": total("corpus.tokenize", "setup") / n_setups,
        "corpus.encode_us": mean("corpus.encode") * 1e6,
        "corpus.sentences": float(sentences),
        "corpus.repeat_share": repeats / sentences if sentences else 0.0,
        "corpus.input_density": tracer.nonzero / tracer.cells if tracer.cells else 0.0,
        "traineval.thread_matrices_s": total("traineval.thread_matrices", "setup") / n_setups,
        "traineval.select_posts_ms": mean("traineval.select_posts", "serve") * 1e3,
        "traineval.train_s": train_s,
        "traineval.validation_share": (total("models.classify", "train") / train_s
                                       if train_s else 0.0),
        "traineval.step_p50_ms": float(np.percentile(step_ms, 50)) if steps else 0.0,
        "traineval.step_p90_ms": float(np.percentile(step_ms, 90)) if steps else 0.0,
        "models.forward_ms": mean("models.loss", "train") * 1e3,
        "models.classify_ms": mean("models.classify", "serve") * 1e3,
        "models.checkpoint_save_s": total("models.save"),
        "models.checkpoint_load_s": total("models.load"),
        "nn.backward_ms": mean("nn.backward", "train") * 1e3,
        "nn.grads_ms": mean("nn.grads", "train") * 1e3,
        "nn.adam_ms": mean("nn.adam_step", "train") * 1e3,
        "nn.emb_rows_touched_share": (float(np.mean(tracer.emb_touched))
                                      if tracer.emb_touched else 0.0),
    }
    step_ops = train & ~under_classify
    op_calls = 0
    for op in OPS:
        fwd = mask(f"nn.op.{op}.fwd") & step_ops
        calls = int(fwd.sum())
        op_calls += calls
        out[f"nn.op.{op}.calls"] = calls * per_step
        out[f"nn.op.{op}.fwd_ms"] = float(dur[fwd].sum()) * 1e3 * per_step
        if op != "constant":
            bwd = mask(f"nn.op.{op}.bwd") & train
            out[f"nn.op.{op}.bwd_ms"] = float(dur[bwd].sum()) * 1e3 * per_step
    out["nn.ops_per_step"] = op_calls * per_step
    for li, layer in enumerate(LAYERS[:-1]):
        out[f"{layer}.self_s"] = float(self_time[span_layer == li].sum())
    return out
