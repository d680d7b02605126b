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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import (
    TOKEN_DTYPE,
    RiskLabel,
    ThreadInstance,
    Vocabulary,
    at_least,
    split_sentences,  # unused here; perfbench/tracer.py wraps it by its name in this module
)
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
    at_least(1, **{name: getattr(config, name) for name in sizes})
    if any(width < 1 for width in config.dense_dims):
        raise ValueError(f"dense_dims entries must be at least 1, got {list(config.dense_dims)}")
    if getattr(config, length) < config.conv_window:
        raise ValueError(f"{length} must cover one convolution window")
    if not 0.0 <= config.dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {config.dropout!r}")
    if config.balance not in ("weighted", "sampled"):
        raise ValueError(f"balance must be 'weighted' or 'sampled', got {config.balance!r}")


def _init_params(shapes: dict[str, tuple[int, ...]], seed: int) -> ParamStore:
    """A model's parameters, drawn from one seeded generator in the order of
    ``shapes`` (its `param_shapes`), each by its kind: the tables ``emb`` and
    ``classes`` uniform, a 3-D kernel Glorot drawn [filters x window x depth]
    and transposed as `conv1d` reads it (that draw order keeps the initial
    weights each seed has always given), a hidden dense layer Glorot, and
    every bias and the output layer zero, so an untrained model's output is
    the same for every input."""
    rng = np.random.default_rng(seed)
    p = ParamStore()
    for name, shape in shapes.items():
        if name in ("emb", "classes"):
            value = embedding_init(rng, shape)
        elif len(shape) == 3:
            depth, window, filters = shape
            value = glorot_uniform(rng, (filters, window, depth), window * depth, filters
                                   ).transpose(2, 1, 0)
        elif name.startswith("dense") and name.endswith(".w"):
            value = glorot_uniform(rng, shape, shape[1], shape[0])
        else:
            value = np.zeros(shape)
        p.add(name, value)
    return p


def _head_shapes(width: int, dense_dims: Sequence[int], output_dim: int
                 ) -> dict[str, tuple[int, ...]]:
    """The shapes of the dense stack's and the output layer's parameters."""
    shapes = {}
    for i, out_width in enumerate(dense_dims):
        shapes[f"dense{i}.w"], shapes[f"dense{i}.b"] = (out_width, width), (out_width,)
        width = out_width
    return {**shapes, "out.w": (output_dim, width), "out.b": (output_dim,)}


def _check_shapes(path: str | Path, params: ParamStore,
                  shapes: dict[str, tuple[int, ...]]) -> None:
    """A ValueError naming the checkpoint unless it holds exactly the
    parameters of ``shapes``, its config's."""
    for name, want in shapes.items():
        if name not in params:
            raise ValueError(f"{path}: checkpoint has no parameter {name!r}, "
                             f"its config gives shape {want}")
        have = params[name].shape
        if have != want:
            raise ValueError(f"{path}: parameter {name!r} has shape {have}, "
                             f"its config gives {want}")
    unknown = [name for name in params.names() if name not in shapes]
    if unknown:
        raise ValueError(f"{path}: parameter {unknown[0]!r} is not one its config gives")


def _head(h: Node, nodes: ParamNodes, config, train: bool,
          rng: np.random.Generator | None) -> Node:
    """The dense stack (ReLU, then dropout when the config sets a rate) and
    the output layer, whose shapes `_head_shapes` gives."""
    for i in range(len(config.dense_dims)):
        h = relu(dense(h, nodes(f"dense{i}.w"), nodes(f"dense{i}.b")))
        if config.dropout > 0.0:
            h = dropout(h, config.dropout, rng=rng, train=train)
    return dense(h, nodes("out.w"), nodes("out.b"))


# ---------------------------------------------------------------------------
# Depression detection model

# Kept positions per chunk of the depression model's first stage. A chunk's
# feature map is [_CHUNK x conv_filters] at most (1.6 MB at 25 filters), and a
# user of up to 8192 kept positions, beyond the benchmark's p90 of about 5.4k,
# is one chunk and pays for one distinct-id pass.
_CHUNK = 8192

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
        at_least(2, vocab_size=self.vocab_size)  # the reserved ids
        _check_config(self, "n_term", ("embed_dim", "conv_window", "conv_filters",
                                       "merge_window", "merge_stride", "merge_filters"))


class Selection(NamedTuple):
    """A user's posts as the model reads them: one flat int32 id array, post
    i's ids being the ``lengths[i]`` after the first ``lengths[:i].sum()``.
    `traineval.select_posts` builds one from a tokenized user."""

    ids: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, posts_tokens: Sequence[Sequence[int]]) -> "Selection":
        """The selection of each post's whole token sequence."""
        lengths = np.array([len(toks) for toks in posts_tokens], dtype=np.intp)
        ids = np.fromiter(itertools.chain.from_iterable(posts_tokens), TOKEN_DTYPE,
                          count=int(lengths.sum()))
        return cls(ids, lengths)


class DepressionModel:
    """2-class user-level classifier over a user's posts, read as a
    `Selection` of token ids.

    One graph per user. The first n_term tokens of every post that fills a
    window are kept, and the posts are cut into chunks of whole posts of at
    most `_CHUNK` kept positions (n_term if more). Each chunk's tokens go,
    concatenated, through one `conv1d` over the embedding table's rows
    ``ids``, which multiplies each distinct token's row by the kernel once,
    and ReLU; ranged `mean_rows` averages each post's own windows (never
    those across two posts) into a row, zero for a post without a window and
    for each padding slot up to merge_window. The chunks' rows are joined
    (`concat`), and the merge conv and dense stack follow. A user within one
    chunk, as every user up to the p90 of the benchmark's serve users is,
    takes one pass. `classify_user` runs the forward under `no_grad`, so
    serving builds no graph and frees each chunk's feature map once pooled:
    a request holds one chunk's map, not the user's. No [T x embed_dim]
    array of the user's rows is built, in training or serving.
    """

    kind = "depression"

    def __init__(self, config: DepressionModelConfig,
                 params: ParamStore | None = None, seed: int = 0):
        self.config = config
        self.params = _init_params(self.param_shapes(config), seed) if params is None else params

    @staticmethod
    def param_shapes(c: DepressionModelConfig) -> dict[str, tuple[int, ...]]:
        """The shape of each parameter a model of config ``c`` has, in store order."""
        return {"emb": (c.vocab_size, c.embed_dim),
                "conv.w": (c.embed_dim, c.conv_window, c.conv_filters),
                "conv.b": (c.conv_filters,),
                "merge.w": (c.conv_filters, c.merge_window, c.merge_filters),
                "merge.b": (c.merge_filters,),
                **_head_shapes(c.merge_filters, c.dense_dims, 2)}

    def _forward(self, posts: Selection | Sequence[Sequence[int]], nodes: ParamNodes,
                 train: bool = False, rng: np.random.Generator | None = None,
                 maps: list[Node] | None = None) -> tuple[Node, np.ndarray, np.ndarray]:
        """Logits node, and each post's first and past-last row in the user's
        feature map [rows x conv_filters], row r being the window at kept
        position r.

        ``posts`` is a `Selection`, read as it is, or one token sequence per
        post, converted to one. The first stage (the embedding convolution,
        ReLU and each post's mean) runs per chunk of whole posts holding at
        most max(`_CHUNK`, n_term) kept positions; a user within one chunk
        goes through it once. Given a list ``maps``, each chunk's map is made
        under `no_grad` and joins the graph as a constant, appended to
        ``maps``, so a backward stops at the maps."""
        c = self.config
        ids, lengths = posts if isinstance(posts, Selection) else Selection.of(posts)
        n = lengths.size
        if not n:
            raise ValueError("user has no usable posts")
        # A post's first n_term ids are kept, or none for a post without a
        # window; so are none for each padding slot up to merge_window.
        kept = np.zeros(max(n, c.merge_window), dtype=lengths.dtype)
        np.minimum(lengths, c.n_term, out=kept[:n], where=lengths >= c.conv_window)
        if (kept[:n] != lengths).any():
            # Each post's run of kept ids, then its run of cut ones, as one
            # mask of a byte per id.
            runs = np.empty(2 * n, dtype=lengths.dtype)
            runs[::2], runs[1::2] = kept[:n], lengths - kept[:n]
            ids = ids[np.repeat(np.arange(2 * n) % 2 == 0, runs)]
        ends = np.cumsum(kept)
        starts = ends - kept
        stops = starts + np.maximum(kept - (c.conv_window - 1), 0)

        def pooled(a: int, b: int) -> Node:
            """The means of posts a to b - 1, from a map of their kept ids
            alone."""
            lo, hi = starts[a], ends[b - 1]
            conv = (nodes("emb"), nodes("conv.w"), nodes("conv.b"))
            if maps is None:
                feat = relu(conv1d(*conv, ids=ids[lo:hi]))
            else:
                with no_grad():
                    value = relu(conv1d(*conv, ids=ids[lo:hi])).value
                # Where np.maximum keeps a -0.0 (its pick between equal zeros
                # is the platform's), the graph's relu gives +0.0; adding +0.0
                # does the same and changes no other value.
                feat = constant(np.add(value, 0.0, out=value))
                maps.append(feat)
            return mean_rows(feat, starts[a:b] - lo, stops[a:b] - lo)

        if ids.size:
            # Each chunk's first post, as many whole posts as fit the limit,
            # then past the last; the last chunk takes the padding slots.
            limit = max(_CHUNK, c.n_term)
            bounds = [0]
            while ends[-1] - starts[bounds[-1]] > limit:
                bounds.append(np.searchsorted(ends, starts[bounds[-1]] + limit, side="right"))
            bounds.append(kept.size)
            post_vecs = concat(*(pooled(a, b) for a, b in itertools.pairwise(bounds)))
        else:
            post_vecs = constant(np.zeros((starts.size, c.conv_filters)))
        h = mean_rows(relu(conv1d(post_vecs, nodes("merge.w"), nodes("merge.b"),
                                  stride=c.merge_stride)))
        return _head(h, nodes, c, train, rng), starts[:n], stops[:n]

    def logits(self, posts, nodes: ParamNodes, train: bool = False,
               rng: np.random.Generator | None = None) -> Node:
        return self._forward(posts, nodes, train, rng)[0]

    def loss(self, posts, label: int, nodes: ParamNodes,
             train: bool = True, rng: np.random.Generator | None = None) -> Node:
        return cross_entropy(self.logits(posts, nodes, train, rng), label)

    def classify_user(self, posts) -> np.ndarray:
        """Probabilities over (control, diagnosed), from a forward that builds
        no graph."""
        with no_grad():
            logits = self.logits(posts, ParamNodes(self.params))
        return softmax(logits.value)

    def save(self, path: str | Path, seed: int = 0, step: int = 0) -> None:
        save_checkpoint(path, self.params, {"kind": self.kind, **asdict(self.config)}, seed, step)

    @classmethod
    def load(cls, path: str | Path) -> tuple["DepressionModel", int, int]:
        params, config, seed, step = load_checkpoint(path)
        model_config = _stored_config(cls.kind, DepressionModelConfig, config, path)
        _check_shapes(path, params, cls.param_shapes(model_config))
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
                users: Iterable[tuple[Sequence[str], Selection | Sequence[Sequence[int]]]],
                m: int,
                vocab: Vocabulary | None = None) -> list[tuple[str, tuple, float]]:
    """Convolution windows that push hardest toward the diagnosed class.

    Each window of each post is scored by its strongest post-ReLU feature
    weighted by that feature's contribution to the diagnosed logit; only the
    best window per user competes. `users` yields (post ids, posts) per user,
    the posts as `DepressionModel._forward` reads them; post i's id is
    ``post_ids[i]``. The result is the top m (post_id, window token ids,
    score) triples, strongest first, the ids Python ints; when a vocabulary
    is given, windows are returned as token strings.
    """
    at_least(1, m=m)
    k = model.config.conv_window
    ranked: list[tuple[str, tuple, float]] = []
    for post_ids, posts in users:
        posts = posts if isinstance(posts, Selection) else Selection.of(posts)
        if not posts.lengths.size:
            continue
        maps: list[Node] = []
        logits, starts, stops = model._forward(posts, ParamNodes(model.params), maps=maps)
        if not maps:
            continue
        backward(pick(logits, 1))
        # Row r of the user's map is the window at kept position r; the k - 1
        # windows across two chunks lie in no post's range and stay 0.
        contribution = np.zeros(int(stops[-1]))
        at = 0
        for feat in maps:
            rows = feat.value.shape[0]
            contribution[at:at + rows] = (feat.value * feat.grad).max(axis=1)
            at += rows + k - 1
        # The user's best window; max() keeps the first post of a tie.
        i = max(np.flatnonzero(stops > starts),
                key=lambda i: contribution[starts[i]:stops[i]].max())
        window = contribution[starts[i]:stops[i]]
        row = int(np.argmax(window))
        # A window lies within its post's first n_term ids, as selected.
        at = int(posts.lengths[:i].sum()) + row
        ranked.append((post_ids[i], tuple(posts.ids[at:at + k].tolist()), float(window[row])))
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
        at_least(0, margin=self.margin)
        if not self.dense_dims and self.variant not in ("cat_ce", "mse"):
            raise ValueError(f"dense_dims must not be empty for variant {self.variant!r}")

    @classmethod
    def for_variant(cls, variant: str = "cat_ce", **overrides) -> "RiskModelConfig":
        """Per-variant defaults (cat_ce's if none is named): filters, widths, dropout, balance."""
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
        return cls(variant=variant, **{**table.get(variant, {}), **overrides})

    @property
    def head_width(self) -> int:
        """Width of the dense stack's input: both towers' pooled features."""
        return 2 * math.ceil((self.max_sentences - self.conv_window + 1) / self.pool_n
                             ) * self.conv_filters

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
        self.params = _init_params(self.param_shapes(config), seed) if params is None else params

    @staticmethod
    def param_shapes(c: RiskModelConfig) -> dict[str, tuple[int, ...]]:
        """The shape of each parameter a model of config ``c`` has, in store order."""
        shapes = {"conv.w": (c.sentence_dim, c.conv_window, c.conv_filters),
                  "conv.b": (c.conv_filters,),
                  **_head_shapes(c.head_width, c.dense_dims, c.output_dim)}
        if c.variant in ("class_metric", "class_metric_ordinal"):
            shapes["classes"] = (c.n_classes, c.output_dim)
        return shapes

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
        model_config = _stored_config(cls.kind, RiskModelConfig, config, path)
        _check_shapes(path, params, cls.param_shapes(model_config))
        return cls(model_config, params), seed, step


def instance_matrices(instance: ThreadInstance, encoder,
                      max_sentences: int) -> tuple[SparseRows, SparseRows]:
    """Sentence-vector matrices (target, context), each [max_sentences × dim]
    `SparseRows` built from the (cols, values) pairs of the encoder's
    `encode_post`.

    Only the last `max_sentences` sentences count, so context posts are
    encoded from the newest back until they fill them; shorter inputs are
    zero-padded at the front so recent sentences stay in fixed positions.
    A target post with no sentences is an error; an empty context has no
    columns.
    """
    target = encoder.encode_post(instance.target.text)
    if not target:
        raise ValueError(f"target post {instance.target.post_id} has no sentences")
    context: list[tuple[np.ndarray, np.ndarray]] = []
    for post in reversed(instance.context):
        if len(context) >= max_sentences:
            break
        context[:0] = encoder.encode_post(post.text)

    def matrix(rows: Sequence[tuple[np.ndarray, np.ndarray]]) -> SparseRows:
        return SparseRows.from_rows(rows[-max_sentences:], max_sentences, encoder.dim)

    return matrix(target), matrix(context)


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
