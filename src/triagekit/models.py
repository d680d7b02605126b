"""Task models: user-level depression detection and post-level risk assessment.

Both models share the same recipe — convolve the inputs, merge, then classify
through dense layers — and differ in their inputs and output heads. The
depression model reads a user's posts as token sequences and emits a softmax
over {control, diagnosed}. The risk model reads a target post and its thread
context as sentence-vector matrices and supports four output/loss variants:
a 4-way softmax (cat_ce), a regression head rounded onto the label scale
(mse), and two distance-to-class-embedding heads (class_metric and its
ordinal-margin variant, class_metric_ordinal).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import RiskLabel, ThreadInstance, Vocabulary, split_sentences
from .nn import (
    Node,
    ParamNodes,
    ParamStore,
    SparseRows,
    add_const,
    backward,
    concat,
    constant,
    conv1d,
    cross_entropy,
    dense,
    dropout,
    embedding_init,
    embedding_lookup,
    euclidean_distance,
    flatten,
    glorot_uniform,
    hinge,
    load_checkpoint,
    max_pool,
    mean_rows,
    no_grad,
    pick,
    relu,
    save_checkpoint,
    softmax,
    squared_error,
    stack_rows,  # unused here; perfbench/tracer.py wraps every op by its name in this module
    sub,
)

RISK_VARIANTS = ("cat_ce", "mse", "class_metric", "class_metric_ordinal")


def _check_config(config, length: str, sizes: Sequence[str]) -> None:
    """Range checks both model configs share; field ``length`` is the input
    length, which must cover one convolution window."""
    for name in sizes:
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(config, name)!r}")
    if any(width < 1 for width in config.dense_dims):
        raise ValueError(f"dense_dims entries must be at least 1, got {list(config.dense_dims)}")
    if getattr(config, length) < config.conv_window:
        raise ValueError(f"{length} must cover one convolution window")
    if not 0.0 <= config.dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {config.dropout!r}")
    if config.balance not in ("weighted", "sampled"):
        raise ValueError(f"balance must be 'weighted' or 'sampled', got {config.balance!r}")


def _kernel(rng: np.random.Generator, filters: int, window: int, depth: int) -> np.ndarray:
    """A Glorot kernel drawn [filters x window x depth], the checkpoint layout,
    and returned transposed, as `conv1d` reads it."""
    return glorot_uniform(rng, (filters, window, depth), window * depth, filters
                          ).transpose(2, 1, 0)


def _add_head(p: ParamStore, rng: np.random.Generator, width: int,
              dense_dims: Sequence[int], output_dim: int) -> None:
    """The dense stack over ``width`` inputs, then a zero output layer, so an
    untrained model's output is the same for every input."""
    for i, out_width in enumerate(dense_dims):
        p.add(f"dense{i}.w", glorot_uniform(rng, (out_width, width), width, out_width))
        p.add(f"dense{i}.b", np.zeros(out_width))
        width = out_width
    p.add("out.w", np.zeros((output_dim, width)))
    p.add("out.b", np.zeros(output_dim))


def _head(h: Node, nodes: ParamNodes, config, train: bool,
          rng: np.random.Generator | None) -> Node:
    """The dense stack (ReLU, then dropout when the config sets a rate) and
    the output layer, as `_add_head` made them."""
    for i in range(len(config.dense_dims)):
        h = relu(dense(h, nodes(f"dense{i}.w"), nodes(f"dense{i}.b")))
        if config.dropout > 0.0:
            h = dropout(h, config.dropout, rng=rng, train=train)
    return dense(h, nodes("out.w"), nodes("out.b"))


# ---------------------------------------------------------------------------
# Depression detection model

@dataclass(frozen=True)
class DepressionModelConfig:
    """Architecture of the user-level depression classifier.

    A small convolution with average pooling encodes each post; a second
    convolution (window 15, stride 15) merges the per-post vectors into a
    user vector that feeds the dense stack and the 2-way softmax.
    """

    vocab_size: int
    embed_dim: int = 50
    conv_window: int = 3
    conv_filters: int = 25
    merge_window: int = 15
    merge_stride: int = 15
    merge_filters: int = 25
    dense_dims: tuple[int, ...] = (50,)
    dropout: float = 0.0
    n_term: int = 100
    balance: str = "sampled"

    def __post_init__(self):
        object.__setattr__(self, "dense_dims", tuple(self.dense_dims))
        if self.vocab_size < 2:
            raise ValueError("vocab_size must cover the reserved ids")
        _check_config(self, "n_term", ("embed_dim", "conv_window", "conv_filters",
                                       "merge_window", "merge_stride", "merge_filters"))


class DepressionModel:
    """2-class user-level classifier over token-id post sequences.

    One graph per user: the first n_term tokens of every post that fills a
    window go, concatenated, through one `conv1d` that reads their embedding
    rows through the ids, a block of at most 4096 windows at a time, and
    ReLU; ranged `mean_rows` averages each post's own windows (never those
    across two posts) into a row, zero for a post without a window and for
    each padding slot up to merge_window. The merge conv and dense stack
    follow. `classify_user` runs the forward under `no_grad`, so serving
    builds no graph and never holds the user's [T x embed_dim] rows.
    """

    kind = "depression"

    def __init__(self, config: DepressionModelConfig,
                 params: ParamStore | None = None, seed: int = 0):
        self.config = config
        self.params = self._init_params(seed) if params is None else params

    def _init_params(self, seed: int) -> ParamStore:
        c = self.config
        rng = np.random.default_rng(seed)
        p = ParamStore()
        p.add("emb", embedding_init(rng, (c.vocab_size, c.embed_dim)))
        p.add("conv.w", _kernel(rng, c.conv_filters, c.conv_window, c.embed_dim))
        p.add("conv.b", np.zeros(c.conv_filters))
        p.add("merge.w", _kernel(rng, c.merge_filters, c.merge_window, c.conv_filters))
        p.add("merge.b", np.zeros(c.merge_filters))
        _add_head(p, rng, c.merge_filters, c.dense_dims, 2)
        return p

    def _forward(self, posts_tokens: Sequence[Sequence[int]], nodes: ParamNodes,
                 train: bool = False, rng: np.random.Generator | None = None
                 ) -> tuple[Node, Node | None, np.ndarray, np.ndarray]:
        """Logits node, the user's feature map [rows x conv_filters] (None if no
        post fills a window), and each post's first and past-last row in it.

        One embedding convolution and ReLU over all of the user's kept tokens,
        for training and serving alike."""
        c = self.config
        if not posts_tokens:
            raise ValueError("user has no usable posts")
        # A post's kept tokens, or none for a post without a window.
        kept = [toks[:c.n_term] if len(toks) >= c.conv_window else () for toks in posts_tokens]
        lengths = np.array([len(toks) for toks in kept] + [0] * (c.merge_window - len(kept)))
        starts = np.cumsum(lengths) - lengths
        stops = starts + np.maximum(lengths - c.conv_window + 1, 0)
        ids = np.fromiter(itertools.chain.from_iterable(kept), np.intp, count=int(lengths.sum()))
        if ids.size:
            feat = relu(conv1d(nodes("emb"), nodes("conv.w"), nodes("conv.b"), ids=ids))
            post_vecs = mean_rows(feat, starts, stops)
        else:
            feat, post_vecs = None, constant(np.zeros((starts.size, c.conv_filters)))
        h = mean_rows(relu(conv1d(post_vecs, nodes("merge.w"), nodes("merge.b"),
                                  stride=c.merge_stride)))
        n = len(kept)
        return _head(h, nodes, c, train, rng), feat, starts[:n], stops[:n]

    def logits(self, posts_tokens, nodes: ParamNodes, train: bool = False,
               rng: np.random.Generator | None = None) -> Node:
        return self._forward(posts_tokens, nodes, train, rng)[0]

    def loss(self, posts_tokens, label: int, nodes: ParamNodes,
             train: bool = True, rng: np.random.Generator | None = None) -> Node:
        return cross_entropy(self.logits(posts_tokens, nodes, train, rng), label)

    def classify_user(self, posts_tokens) -> np.ndarray:
        """Probabilities over (control, diagnosed), from a forward that builds
        no graph."""
        with no_grad():
            logits = self.logits(posts_tokens, ParamNodes(self.params))
        return softmax(logits.value)

    def save(self, path: str | Path, seed: int = 0, step: int = 0) -> None:
        save_checkpoint(path, self.params, {"kind": self.kind, **asdict(self.config)}, seed, step)

    @classmethod
    def load(cls, path: str | Path) -> tuple["DepressionModel", int, int]:
        params, config, seed, step = load_checkpoint(path)
        model_config = _stored_config(cls.kind, DepressionModelConfig, config, path)
        return cls(model_config, params), seed, step


def _stored_config(kind: str, config_cls, config: dict, path: str | Path):
    """``config_cls`` from the config of a checkpoint of a ``kind`` model, whose
    other fields must be exactly the class's; a ValueError names the file."""
    if str(config.get("kind")).partition(":")[0] != kind:
        raise ValueError(f"{path}: checkpoint holds {config.get('kind')!r}, not a {kind!r} model")
    names = [f.name for f in fields(config_cls)]
    missing = [name for name in names if name not in config]
    unknown = sorted(set(config) - set(names) - {"kind"})
    bad = [f"{what} fields {found}" for what, found in (("missing", missing), ("unknown", unknown))
           if found]
    if bad:
        raise ValueError(f"{path}: checkpoint config has {' and '.join(bad)}")
    return config_cls(**{name: config[name] for name in names})


def top_phrases(model: DepressionModel,
                users: Iterable[tuple[str, Sequence[tuple[str, Sequence[int]]]]],
                m: int,
                vocab: Vocabulary | None = None) -> list[tuple[str, tuple, float]]:
    """Convolution windows that push hardest toward the diagnosed class.

    Each window of each post is scored by its strongest post-ReLU feature
    weighted by that feature's contribution to the diagnosed logit; only the
    best window per user competes. `users` yields
    (user_id, [(post_id, tokens), ...]); the result is the top m
    (post_id, window tokens, score) triples, strongest first. When a
    vocabulary is given, windows are returned as token strings.
    """
    if m < 1:
        raise ValueError(f"the number of phrases must be at least 1, got {m}")
    k = model.config.conv_window
    ranked: list[tuple[str, tuple, float]] = []
    for _, posts in users:
        if not posts:
            continue
        logits, feat, starts, stops = model._forward([toks for _, toks in posts],
                                                     ParamNodes(model.params))
        if feat is None:
            continue
        backward(pick(logits, 1))
        contribution = (feat.value * feat.grad).max(axis=1)
        # The user's best window; max() keeps the first post of a tie.
        i = max(np.flatnonzero(stops > starts),
                key=lambda i: contribution[starts[i]:stops[i]].max())
        window = contribution[starts[i]:stops[i]]
        row = int(np.argmax(window))
        post_id, toks = posts[i]
        ranked.append((post_id, tuple(toks[row:row + k]), float(window[row])))
    ranked.sort(key=lambda t: (-t[2], t[0]))
    ranked = ranked[:m]
    if vocab is not None:
        ranked = [(pid, tuple(vocab.token(t) for t in window), score)
                  for pid, window, score in ranked]
    return ranked


# ---------------------------------------------------------------------------
# Risk assessment model

@dataclass(frozen=True)
class RiskModelConfig:
    """Architecture of the post-level risk classifier.

    Two convolution+max-pool towers (shared weights) read the target post and
    its thread context as matrices of `max_sentences` sentence vectors; their
    concatenation feeds the dense stack and the variant-specific head.
    """

    variant: str
    sentence_dim: int = 7200
    conv_window: int = 3
    conv_filters: int = 100
    pool_n: int = 3
    dense_dims: tuple[int, ...] = (250, 250)
    dropout: float = 0.5
    margin: float = 1.0
    max_sentences: int = 20
    n_classes: int = 4
    balance: str = "sampled"

    def __post_init__(self):
        object.__setattr__(self, "dense_dims", tuple(self.dense_dims))
        if self.variant not in RISK_VARIANTS:
            raise ValueError(f"variant must be one of {', '.join(RISK_VARIANTS)}, "
                             f"got {self.variant!r}")
        _check_config(self, "max_sentences",
                      ("sentence_dim", "conv_window", "conv_filters", "pool_n", "n_classes"))
        if self.margin < 0:
            raise ValueError(f"margin must be at least 0, got {self.margin!r}")
        if not self.dense_dims and self.variant not in ("cat_ce", "mse"):
            raise ValueError(f"dense_dims must not be empty for variant {self.variant!r}")

    @classmethod
    def for_variant(cls, variant: str, sentence_dim: int = 7200,
                    **overrides) -> "RiskModelConfig":
        """Per-variant defaults: filters, dense widths, dropout, balancing."""
        table = {
            "cat_ce": dict(conv_filters=150, dense_dims=(250, 250),
                           dropout=0.3, balance="weighted", margin=1.0),
            "mse": dict(conv_filters=100, dense_dims=(250, 250),
                        dropout=0.5, balance="sampled", margin=1.0),
            "class_metric": dict(conv_filters=100, dense_dims=(150, 150),
                                 dropout=0.3, balance="sampled", margin=1.0),
            "class_metric_ordinal": dict(conv_filters=100, dense_dims=(150, 150),
                                         dropout=0.3, balance="sampled", margin=0.5),
        }
        return cls(variant=variant, sentence_dim=sentence_dim,
                   **{**table.get(variant, {}), **overrides})

    @property
    def output_dim(self) -> int:
        """Width of the head: class count, scalar, or embedding dimension."""
        if self.variant == "cat_ce":
            return self.n_classes
        if self.variant == "mse":
            return 1
        return self.dense_dims[-1]


class RiskModel:
    """4-level risk classifier over (target, context) sentence-vector inputs.

    Each input is a `SparseRows` matrix as `instance_matrices` builds it (a
    dense array is converted); both towers convolve it with `conv1d`, which
    reads and updates only the ``conv.w`` rows of its nonzero columns.
    """

    kind = "risk"

    def __init__(self, config: RiskModelConfig,
                 params: ParamStore | None = None, seed: int = 0):
        self.config = config
        self.params = self._init_params(seed) if params is None else params

    def _init_params(self, seed: int) -> ParamStore:
        c = self.config
        rng = np.random.default_rng(seed)
        p = ParamStore()
        p.add("conv.w", _kernel(rng, c.conv_filters, c.conv_window, c.sentence_dim))
        p.add("conv.b", np.zeros(c.conv_filters))
        pooled_rows = math.ceil((c.max_sentences - c.conv_window + 1) / c.pool_n)
        _add_head(p, rng, 2 * pooled_rows * c.conv_filters, c.dense_dims, c.output_dim)
        if c.variant in ("class_metric", "class_metric_ordinal"):
            p.add("classes", embedding_init(rng, (c.n_classes, c.output_dim)))
        return p

    def _tower(self, matrix: SparseRows | np.ndarray, nodes: ParamNodes) -> Node:
        c = self.config
        matrix = matrix if isinstance(matrix, SparseRows) else SparseRows.from_dense(matrix)
        if matrix.shape != (c.max_sentences, c.sentence_dim):
            raise ValueError(f"input shape {matrix.shape}, expected "
                             f"({c.max_sentences}, {c.sentence_dim})")
        feat = relu(conv1d(matrix, nodes("conv.w"), nodes("conv.b")))
        return flatten(max_pool(feat, c.pool_n))

    def forward(self, target: SparseRows | np.ndarray, context: SparseRows | np.ndarray,
                nodes: ParamNodes, train: bool = False,
                rng: np.random.Generator | None = None) -> Node:
        """Head output node: logits [4] (cat_ce), score [1] (mse), or X [d]."""
        h = concat(self._tower(target, nodes), self._tower(context, nodes))
        return _head(h, nodes, self.config, train, rng)

    def loss(self, target: SparseRows | np.ndarray, context: SparseRows | np.ndarray,
             label: int, nodes: ParamNodes, train: bool = True,
             rng: np.random.Generator | None = None,
             negative: int | None = None) -> Node:
        """Variant loss; metric variants need the sampled negative class."""
        c = self.config
        out = self.forward(target, context, nodes, train, rng)
        if c.variant == "cat_ce":
            return cross_entropy(out, label)
        if c.variant == "mse":
            return squared_error(out, float(label))
        if negative is None:
            raise ValueError("metric variants need a negative class")
        loss_fn = (class_metric_loss if c.variant == "class_metric"
                   else class_metric_ordinal_loss)
        return loss_fn(out, label, negative, nodes("classes"), c.margin)

    def predict(self, target: SparseRows | np.ndarray,
                context: SparseRows | np.ndarray) -> tuple[RiskLabel, float]:
        """Label and its score from one forward pass.

        The score is the label's softmax probability (cat_ce), the raw
        regression output (mse), or minus the distance to the label's class
        embedding (metric variants). The forward builds no graph.
        """
        c = self.config
        with no_grad():
            out = self.forward(target, context, ParamNodes(self.params)).value
        if c.variant == "cat_ce":
            probs = softmax(out)
            label = RiskLabel(int(np.argmax(probs)))
            return label, float(probs[label])
        if c.variant == "mse":
            return mse_classify(float(out[0]), c.n_classes), float(out[0])
        classes = self.params["classes"]
        label = metric_classify(out, classes)
        return label, -float(np.linalg.norm(classes - out, axis=1)[label])

    def classify(self, target: SparseRows | np.ndarray,
                 context: SparseRows | np.ndarray) -> RiskLabel:
        return self.predict(target, context)[0]

    def save(self, path: str | Path, seed: int = 0, step: int = 0) -> None:
        config = {"kind": f"{self.kind}:{self.config.variant}", **asdict(self.config)}
        save_checkpoint(path, self.params, config, seed, step)

    @classmethod
    def load(cls, path: str | Path) -> tuple["RiskModel", int, int]:
        params, config, seed, step = load_checkpoint(path)
        return cls(_stored_config(cls.kind, RiskModelConfig, config, path), params), seed, step


def instance_matrices(instance: ThreadInstance, encoder,
                      max_sentences: int = 20) -> tuple[SparseRows, SparseRows]:
    """Sentence-vector matrices (target, context), each [max_sentences × dim]
    `SparseRows` built from the encoder's (cols, values) pairs.

    Only the last `max_sentences` sentences count; shorter inputs are
    zero-padded at the front so recent sentences stay in fixed positions.
    A target post with no sentences is an error; an empty context has no
    columns.
    """
    target_sentences = split_sentences(instance.target.text)
    if not target_sentences:
        raise ValueError(f"target post {instance.target.post_id} has no sentences")
    context_sentences = [s for post in instance.context
                         for s in split_sentences(post.text)]

    def matrix(sentences: list[str]) -> SparseRows:
        return SparseRows.from_rows([encoder.encode(s) for s in sentences[-max_sentences:]],
                                    max_sentences, encoder.dim)

    return matrix(target_sentences), matrix(context_sentences)


# ---------------------------------------------------------------------------
# Output heads: rounding, distance classification, metric losses

def mse_classify(y: float, t: int = 4) -> RiskLabel:
    """Round to the nearest label ordinal (halves away from zero), clamped."""
    nearest = math.floor(y + 0.5) if y >= 0 else math.ceil(y - 0.5)
    return RiskLabel(min(t - 1, max(0, nearest)))


def metric_classify(x: np.ndarray, classes: np.ndarray) -> RiskLabel:
    """Label whose embedding is nearest to x; ties go to the lower ordinal."""
    distances = np.linalg.norm(classes - np.asarray(x), axis=1)
    return RiskLabel(int(np.argmin(distances)))


def _class_row(classes: Node, index: int) -> Node:
    return flatten(embedding_lookup(classes, [index]))


def class_metric_loss(x: Node, p: int, n: int, classes: Node,
                      alpha: float) -> Node:
    """Hinge pulling x within `alpha` closer to its class than to class n."""
    if p == n:
        raise ValueError("positive and negative class must differ")
    d_pos = euclidean_distance(x, _class_row(classes, p))
    d_neg = euclidean_distance(x, _class_row(classes, n))
    return hinge(add_const(sub(d_pos, d_neg), alpha))


def class_metric_ordinal_loss(x: Node, p: int, n: int, classes: Node,
                              alpha: float) -> Node:
    """Metric loss whose margin alpha·|p−n| grows with ordinal separation."""
    return class_metric_loss(x, p, n, classes, alpha * abs(p - n))
