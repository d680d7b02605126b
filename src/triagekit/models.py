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

import math
from dataclasses import asdict, dataclass
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
    pick,
    relu,
    save_checkpoint,
    softmax,
    squared_error,
    stack_rows,  # unused here; perfbench/tracer.py wraps every op by its name in this module
    sub,
)

RISK_VARIANTS = ("cat_ce", "mse", "class_metric", "class_metric_ordinal")


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
        if self.n_term < self.conv_window:
            raise ValueError("n_term must cover one convolution window")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


class DepressionModel:
    """2-class user-level classifier over token-id post sequences.

    One graph per user: the first n_term tokens of every post that fills a
    window go, concatenated, through one embedding lookup, convolution and
    ReLU; ranged `mean_rows` averages each post's own windows (never those
    across two posts) into a row, zero for a post without a window and for
    each padding slot up to merge_window. The merge conv and dense stack follow.
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
        # Kernels are drawn [filters x window x depth], the checkpoint layout,
        # and stored transposed, as `conv1d` reads them.
        p.add("conv.w", glorot_uniform(rng, (c.conv_filters, c.conv_window, c.embed_dim),
                                       c.conv_window * c.embed_dim, c.conv_filters
                                       ).transpose(2, 1, 0))
        p.add("conv.b", np.zeros(c.conv_filters))
        p.add("merge.w", glorot_uniform(
            rng, (c.merge_filters, c.merge_window, c.conv_filters),
            c.merge_window * c.conv_filters, c.merge_filters).transpose(2, 1, 0))
        p.add("merge.b", np.zeros(c.merge_filters))
        width = c.merge_filters
        for i, out_width in enumerate(c.dense_dims):
            p.add(f"dense{i}.w", glorot_uniform(rng, (out_width, width), width, out_width))
            p.add(f"dense{i}.b", np.zeros(out_width))
            width = out_width
        # Zero output layer: an untrained model is exactly uniform.
        p.add("out.w", np.zeros((2, width)))
        p.add("out.b", np.zeros(2))
        return p

    def _forward(self, posts_tokens: Sequence[Sequence[int]], nodes: ParamNodes,
                 train: bool = False, rng: np.random.Generator | None = None
                 ) -> tuple[Node, Node | None, np.ndarray, np.ndarray]:
        """Logits node, the user's feature map [rows x conv_filters] (None if no
        post fills a window), and each post's first and past-last row in it."""
        c = self.config
        if not posts_tokens:
            raise ValueError("user has no usable posts")
        # A post's kept tokens, or none for a post without a window.
        kept = [toks[:c.n_term] if len(toks) >= c.conv_window else () for toks in posts_tokens]
        lengths = np.array([len(toks) for toks in kept] + [0] * (c.merge_window - len(kept)))
        starts = np.cumsum(lengths) - lengths
        stops = starts + np.maximum(lengths - c.conv_window + 1, 0)
        ids = np.array([tok for toks in kept for tok in toks], dtype=np.intp)
        if ids.size:
            feat = relu(conv1d(embedding_lookup(nodes("emb"), ids),
                               nodes("conv.w"), nodes("conv.b")))
            post_vecs = mean_rows(feat, starts, stops)
        else:
            feat, post_vecs = None, constant(np.zeros((starts.size, c.conv_filters)))
        h = mean_rows(relu(conv1d(post_vecs, nodes("merge.w"), nodes("merge.b"),
                                  stride=c.merge_stride)))
        for i in range(len(c.dense_dims)):
            h = relu(dense(h, nodes(f"dense{i}.w"), nodes(f"dense{i}.b")))
            if c.dropout > 0.0:
                h = dropout(h, c.dropout, rng=rng, train=train)
        n = len(kept)
        return dense(h, nodes("out.w"), nodes("out.b")), feat, starts[:n], stops[:n]

    def logits(self, posts_tokens, nodes: ParamNodes, train: bool = False,
               rng: np.random.Generator | None = None) -> Node:
        return self._forward(posts_tokens, nodes, train, rng)[0]

    def loss(self, posts_tokens, label: int, nodes: ParamNodes,
             train: bool = True, rng: np.random.Generator | None = None) -> Node:
        return cross_entropy(self.logits(posts_tokens, nodes, train, rng), label)

    def classify_user(self, posts_tokens) -> np.ndarray:
        """Probabilities over (control, diagnosed)."""
        logits = self.logits(posts_tokens, ParamNodes(self.params))
        return softmax(logits.value)

    def save(self, path: str | Path, seed: int = 0, step: int = 0) -> None:
        config = {"kind": self.kind, **asdict(self.config)}
        config["dense_dims"] = list(self.config.dense_dims)
        save_checkpoint(path, self.params, config, seed, step)

    @classmethod
    def load(cls, path: str | Path) -> tuple["DepressionModel", int, int]:
        params, config, seed, step = load_checkpoint(path)
        if config.get("kind") != cls.kind:
            raise ValueError(f"checkpoint holds {config.get('kind')!r}, not {cls.kind!r}")
        config = {k: v for k, v in config.items() if k != "kind"}
        config["dense_dims"] = tuple(config["dense_dims"])
        return cls(DepressionModelConfig(**config), params), seed, step


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
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.max_sentences < self.conv_window:
            raise ValueError("max_sentences must cover one convolution window")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

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
        if variant not in table:
            raise ValueError(f"unknown variant {variant!r}")
        fields = {**table[variant], **overrides}
        return cls(variant=variant, sentence_dim=sentence_dim, **fields)

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

    Each input is a `SparseRows` matrix (a dense array is converted), and
    both towers convolve it with `conv1d`, which reads and updates only the
    ``conv.w`` rows [sentence_dim x window x filters] of its nonzero columns.
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
        # Drawn [filters x window x dim] and transposed, as in DepressionModel.
        p.add("conv.w", glorot_uniform(
            rng, (c.conv_filters, c.conv_window, c.sentence_dim),
            c.conv_window * c.sentence_dim, c.conv_filters).transpose(2, 1, 0))
        p.add("conv.b", np.zeros(c.conv_filters))
        pooled_rows = math.ceil((c.max_sentences - c.conv_window + 1) / c.pool_n)
        width = 2 * pooled_rows * c.conv_filters
        for i, out_width in enumerate(c.dense_dims):
            p.add(f"dense{i}.w", glorot_uniform(rng, (out_width, width), width, out_width))
            p.add(f"dense{i}.b", np.zeros(out_width))
            width = out_width
        p.add("out.w", np.zeros((c.output_dim, width)))
        p.add("out.b", np.zeros(c.output_dim))
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
        c = self.config
        h = concat(self._tower(target, nodes), self._tower(context, nodes))
        for i in range(len(c.dense_dims)):
            h = relu(dense(h, nodes(f"dense{i}.w"), nodes(f"dense{i}.b")))
            if c.dropout > 0.0:
                h = dropout(h, c.dropout, rng=rng, train=train)
        return dense(h, nodes("out.w"), nodes("out.b"))

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
        embedding (metric variants).
        """
        c = self.config
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
        config["dense_dims"] = list(self.config.dense_dims)
        save_checkpoint(path, self.params, config, seed, step)

    @classmethod
    def load(cls, path: str | Path) -> tuple["RiskModel", int, int]:
        params, config, seed, step = load_checkpoint(path)
        kind = config.get("kind", "")
        if not kind.startswith(f"{cls.kind}:"):
            raise ValueError(f"checkpoint holds {kind!r}, not a {cls.kind!r} model")
        config = {k: v for k, v in config.items() if k != "kind"}
        config["dense_dims"] = tuple(config["dense_dims"])
        return cls(RiskModelConfig(**config), params), seed, step


def instance_matrices(instance: ThreadInstance, encoder,
                      max_sentences: int = 20) -> tuple[np.ndarray, np.ndarray]:
    """Dense sentence-vector matrices (target, context), each
    [max_sentences × dim].

    Only the last `max_sentences` sentences count; shorter inputs are
    zero-padded at the front so recent sentences stay in fixed positions.
    A target post with no sentences is an error; an empty context is all
    zeros. `traineval.thread_matrices` keeps them as `SparseRows`.
    """
    target_sentences = split_sentences(instance.target.text)
    if not target_sentences:
        raise ValueError(f"target post {instance.target.post_id} has no sentences")
    context_sentences = [s for post in instance.context
                         for s in split_sentences(post.text)]

    def matrix(sentences: list[str]) -> np.ndarray:
        kept = sentences[-max_sentences:]
        mat = np.zeros((max_sentences, encoder.dim))
        for i, sentence in enumerate(kept):
            mat[max_sentences - len(kept) + i] = encoder.encode(sentence)
        return mat

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
