"""Training loops, post selection, class balancing, metrics, and synthetic data.

Everything here is deterministic given a master seed: every random decision
draws from its own named stream derived with `derive_seed`, so repeated runs
produce identical logs, identical checkpoints, and identical corpora.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .corpus import (
    DIAGNOSED,
    TOKEN_DTYPE,
    Post,
    RiskLabel,
    ThreadInstance,
    TokenizedUser,
    UserRecord,
    Vocabulary,
    at_least,
    atomic_open,
    tokenize,
    write_labels,
    write_posts,
    write_threads,
)
from .models import DepressionModel, RiskModel, Selection, instance_matrices
from .nn import AdamState, Node, ParamNodes, SparseRows, adam_step, backward, scale

RISK_CLASS_NAMES = ("green", "amber", "red", "crisis")
DETECTION_CLASS_NAMES = ("control", "diagnosed")


def derive_seed(master: int, name: str) -> int:
    """Stable 64-bit seed for the named stream of a master seed."""
    _check_seed(master)
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _check_seed(seed) -> None:
    # A seed is formatted into the stream name, so 7.0 or "7" would seed
    # other streams than 7.
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")


# ---------------------------------------------------------------------------
# Post selection

SELECTION_STRATEGIES = ("earliest", "latest", "random")


@dataclass(frozen=True)
class SelectionConfig:
    """Which of a user's posts feed the model, and how much of each."""

    strategy: str = "random"
    n_post: int = 1500
    n_term: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in SELECTION_STRATEGIES:
            raise ValueError(f"strategy must be one of {', '.join(SELECTION_STRATEGIES)}, "
                             f"got {self.strategy!r}")
        at_least(1, n_post=self.n_post, n_term=self.n_term)
        _check_seed(self.seed)


def tokenize_users(users: Iterable[UserRecord],
                   vocab: Vocabulary) -> list[TokenizedUser]:
    """Users with every post's text mapped to vocabulary token ids, as
    columns: a `TokenizedUser` per user, whose ids are one read-only int32
    array with per-post offsets. No text and no object per post is kept.
    """
    out = []
    for u in users:
        posts = u.posts
        ids: list[int] = []
        ends = [0]
        for p in posts:
            ids += tokenize(p.text, vocab)
            ends.append(len(ids))
        flat = np.array(ids, dtype=TOKEN_DTYPE)
        flat.flags.writeable = False
        try:
            timestamps = np.array([p.timestamp for p in posts], dtype=np.int64)
        except OverflowError:
            raise ValueError(f"user {u.user_id!r} has a post timestamp beyond 64 bits") from None
        out.append(TokenizedUser(u.user_id, u.label, u.diagnosis_post_id,
                                 tuple(p.post_id for p in posts),
                                 tuple(p.community for p in posts), timestamps,
                                 flat, np.array(ends)))
    return out


def _chosen(user: TokenizedUser, cfg: SelectionConfig) -> np.ndarray:
    """The indices of `chosen_posts` among the user's posts, ascending."""
    n = len(user.token_offsets) - 1
    if cfg.strategy == "earliest":
        return np.arange(min(n, cfg.n_post))
    if cfg.strategy == "latest":
        return np.arange(max(n - cfg.n_post, 0), n)
    if n <= cfg.n_post:
        return np.arange(n)
    rng = np.random.default_rng(derive_seed(cfg.seed, f"select:{user.user_id}"))
    return np.sort(rng.choice(n, size=cfg.n_post, replace=False))


def chosen_posts(user: TokenizedUser, cfg: SelectionConfig) -> tuple[Post, ...]:
    """Up to n_post of the user's posts, in time order.

    The random strategy draws a per-user stream from the config seed, so the
    choice is a pure function of (user, cfg).
    """
    posts = user.posts
    return tuple(posts[i] for i in _chosen(user, cfg).tolist())


def select_posts(user: TokenizedUser, cfg: SelectionConfig) -> Selection:
    """The token ids of `chosen_posts`, each post cut to n_term tokens, as a
    `Selection`: one flat int32 array and the posts' lengths, gathered from
    the user's `token_offsets` with no loop over posts or tokens, and no
    post built."""
    keep = _chosen(user, cfg)
    starts = user.token_offsets[keep]
    lengths = np.minimum(user.token_offsets[keep + 1] - starts, cfg.n_term)
    # Output position j of post i reads token_ids[starts[i] + j - (sum of earlier lengths)].
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return Selection(user.token_ids[shift + np.arange(shift.size)], lengths)


# ---------------------------------------------------------------------------
# Class balancing

def class_weights(labels: Sequence[int], n_classes: int) -> list[float]:
    """Per-class loss weights N/(t*N_c); every class must be populated."""
    counts = [0] * n_classes
    for y in labels:
        counts[y] += 1
    if any(c == 0 for c in counts):
        missing = [i for i, c in enumerate(counts) if c == 0]
        raise ValueError(f"classes {missing} have no instances")
    total = len(labels)
    return [total / (n_classes * c) for c in counts]


def _epoch_order(labels: Sequence[int], mode: str, n_classes: int,
                 rng: np.random.Generator) -> list[tuple[int, float]]:
    """One epoch's (instance index, loss weight) pairs, shuffled.

    Weighted mode keeps every instance with its class weight. Sampled mode
    draws the minimum class size from each class without replacement, with
    unit weights. Every class must be populated.
    """
    if mode == "weighted":
        weights = class_weights(labels, n_classes)
        return [(int(i), weights[labels[i]]) for i in rng.permutation(len(labels))]
    by_class: list[list[int]] = [[] for _ in range(n_classes)]
    for i, y in enumerate(labels):
        by_class[y].append(i)
    missing = [c for c, idx in enumerate(by_class) if not idx]
    if missing:
        raise ValueError(f"classes {missing} have no instances")
    take = min(len(idx) for idx in by_class)
    picked: list[int] = []
    for idx in by_class:
        picked.extend(int(i) for i in rng.choice(idx, size=take, replace=False))
    return [(picked[i], 1.0) for i in rng.permutation(len(picked))]


# ---------------------------------------------------------------------------
# Metrics

def confusion_matrix(gold: Sequence[int], pred: Sequence[int],
                     n_classes: int) -> list[list[int]]:
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} gold vs {len(pred)} predicted")
    matrix = [[0] * n_classes for _ in range(n_classes)]
    for g, p in zip(gold, pred):
        for kind, y in (("gold", g), ("predicted", p)):
            if not 0 <= y < n_classes:
                raise ValueError(f"{kind} label {y!r} outside range({n_classes})")
        matrix[g][p] += 1
    return matrix


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision/recall/F1 with zero denominators defined as 0.

    F1 uses the single-division form 2tp/(2tp+fp+fn) so simple fixtures come
    out exact in floating point.
    """
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
    return precision, recall, f1


def _scores(gold: Sequence[int], pred: Sequence[int], n_classes: int
            ) -> tuple[list[list[int]], list[dict[str, float]], float]:
    """Confusion matrix, per-class precision/recall/F1, and accuracy (0 with
    no instances) of labels in range(n_classes), each taken as an int."""
    matrix = confusion_matrix([int(y) for y in gold], [int(y) for y in pred], n_classes)
    per_class = []
    for c in range(n_classes):
        tp = matrix[c][c]
        fp = sum(matrix[g][c] for g in range(n_classes)) - tp
        fn = sum(matrix[c]) - tp
        precision, recall, f1 = _prf(tp, fp, fn)
        per_class.append({"precision": precision, "recall": recall, "f1": f1})
    n = len(gold)
    return matrix, per_class, sum(matrix[c][c] for c in range(n_classes)) / n if n else 0.0


def binary_metrics(gold: Sequence[int], pred: Sequence[int]) -> tuple[float, float, float]:
    """Precision, recall, F1 of class 1 over 0/1 labels; 0/0 counts as 0."""
    scores = _scores(gold, pred, 2)[1][1]
    return scores["precision"], scores["recall"], scores["f1"]


@dataclass
class EvalReport:
    """Confusion matrix, per-class scores, and grouped summaries."""

    n_classes: int
    n_instances: int
    confusion: list[list[int]]
    per_class: list[dict[str, float]]
    accuracy: float
    groupings: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        names = RISK_CLASS_NAMES if self.n_classes == 4 else DETECTION_CLASS_NAMES
        width = max(9, max(len(n) for n in names) + 1)
        lines = []
        if self.groupings:
            lines.append("group summary")
            lines.append(f"{'non-green':>10} | {'flagged':^14} | "
                         f"{'urgent':^14} | {'all':^14}")
            lines.append(f"{'F1':>10} | {'F1':>6} {'acc':>6}  | "
                         f"{'F1':>6} {'acc':>6}  | {'F1':>6} {'acc':>6}")
            g = self.groupings
            lines.append(
                f"{g['non_green']['f1']:>10.2f} | "
                f"{g['flagged']['f1']:>6.2f} {g['flagged']['accuracy']:>6.2f}  | "
                f"{g['urgent']['f1']:>6.2f} {g['urgent']['accuracy']:>6.2f}  | "
                f"{g['all']['f1']:>6.2f} {g['all']['accuracy']:>6.2f}")
            lines.append("")
        lines.append(f"accuracy: {self.accuracy:.4f} over {self.n_instances} instances")
        lines.append("")
        header = " " * width + "".join(f"{n:>{width}}" for n in names)
        lines.append("confusion (rows gold, cols predicted)")
        lines.append(header)
        for name, row in zip(names, self.confusion):
            lines.append(f"{name:>{width}}" + "".join(f"{v:>{width}}" for v in row))
        lines.append("")
        lines.append(f"{'class':>{width}}{'precision':>10}{'recall':>10}{'F1':>10}")
        for name, sc in zip(names, self.per_class):
            lines.append(f"{name:>{width}}{sc['precision']:>10.4f}"
                         f"{sc['recall']:>10.4f}{sc['f1']:>10.4f}")
        return "\n".join(lines) + "\n"


def _collapse_stats(gold: Sequence[int], pred: Sequence[int],
                    to_positive) -> dict[str, float]:
    """Binary collapse scores: macro-F1 over both meta-classes plus extras."""
    _, scores, accuracy = _scores([to_positive(y) for y in gold],
                                  [to_positive(y) for y in pred], 2)
    return {
        "f1": (scores[0]["f1"] + scores[1]["f1"]) / 2,
        "positive_f1": scores[1]["f1"],
        "accuracy": accuracy,
    }


def triage_report(gold: Sequence[int], pred: Sequence[int]) -> EvalReport:
    """Severity evaluation: per-class scores plus the standard groupings.

    non_green averages F1 over the three elevated classes (its accuracy is
    the 4-way accuracy restricted to gold non-green instances); flagged
    collapses green vs rest and urgent collapses {green,amber} vs
    {red,crisis}, both scored as macro-F1 over the two meta-classes (the
    positive meta-class F1 is included separately); all averages F1 over the
    four classes.
    """
    matrix, per_class, accuracy = _scores(gold, pred, 4)
    elevated = [(g, p) for g, p in zip(gold, pred) if g != 0]
    non_green_acc = (sum(1 for g, p in elevated if g == p) / len(elevated)
                     if elevated else 0.0)
    groupings = {
        "non_green": {
            "f1": sum(per_class[c]["f1"] for c in (1, 2, 3)) / 3,
            "accuracy": non_green_acc,
        },
        "flagged": _collapse_stats(gold, pred, lambda y: y != 0),
        "urgent": _collapse_stats(gold, pred, lambda y: y >= 2),
        "all": {
            "f1": sum(sc["f1"] for sc in per_class) / 4,
            "accuracy": accuracy,
        },
    }
    return EvalReport(4, len(gold), matrix, per_class, accuracy, groupings)


def detection_report(gold: Sequence[int], pred: Sequence[int]) -> EvalReport:
    """2-class evaluation for the user-level detection task."""
    return EvalReport(2, len(gold), *_scores(gold, pred, 2))


def mcnemar(pred_a: Sequence[int], pred_b: Sequence[int],
            gold: Sequence[int]) -> tuple[float, float]:
    """Continuity-corrected McNemar statistic and its chi-square(1) p-value.

    b counts instances only model a got right, c those only model b got
    right. With b+c = 0 the models are indistinguishable and p is 1 by
    convention. The tail probability uses the closed form
    erfc(sqrt(x/2)) for one degree of freedom.
    """
    if not (len(pred_a) == len(pred_b) == len(gold)):
        raise ValueError("prediction and gold sequences must have equal length")
    b = sum(1 for a, y, g in zip(pred_a, pred_b, gold) if a == g and y != g)
    c = sum(1 for a, y, g in zip(pred_a, pred_b, gold) if a != g and y == g)
    if b + c == 0:
        return 0.0, 1.0
    statistic = (abs(b - c) - 1.0) ** 2 / (b + c)
    return statistic, math.erfc(math.sqrt(statistic / 2.0))


# ---------------------------------------------------------------------------
# Training loops

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        at_least(0, epochs=self.epochs)
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and greater than 0, got {self.lr!r}")


@dataclass
class TrainResult:
    best_epoch: int
    best_metric: float
    log: list[dict]


def write_epoch_log(path: str | Path, log: Iterable[Mapping]) -> None:
    """Write rows as JSON lines with sorted keys (epoch logs and predictions)."""
    with atomic_open(path) as fh:
        for row in log:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _train(model: DepressionModel | RiskModel, labels: Sequence[int], n_classes: int,
           cfg: TrainConfig,
           step_loss: Callable[[int, int, ParamNodes, np.random.Generator], Node],
           validate: Callable[[], tuple[float, dict]]) -> TrainResult:
    """The Adam loop both tasks share, one instance per step.

    Each epoch's order comes from `_epoch_order` under the model config's
    balance mode, drawn from the `epoch:<e>` stream; each step's dropout
    masks come from the `dropout:<step>` stream and
    `step_loss(epoch, index, nodes, rng)` builds that instance's loss. After
    every epoch `validate()` returns the selection metric and the fields of the
    validation log row. The weights of the best epoch are kept: a copy of
    them is made when an epoch before the last sets a new best, and restored
    at the end, unless the last epoch is best, whose weights are the model's
    own and are neither copied nor restored. Any non-finite loss or gradient
    aborts with a diagnostic.
    """
    state = AdamState(model.params, lr=cfg.lr)
    # Every metric is at least 0 and beats -1, so epoch 0 always sets the
    # first best; only a run of 0 epochs ends without one.
    best = None
    best_epoch, best_metric = -1, -1.0
    log: list[dict] = []
    step = 0
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(derive_seed(cfg.seed, f"epoch:{epoch}"))
        order = _epoch_order(labels, model.config.balance, n_classes, rng)
        total = 0.0
        for idx, weight in order:
            nodes = ParamNodes(model.params)
            drop_rng = np.random.default_rng(derive_seed(cfg.seed, f"dropout:{step}"))
            try:
                loss = step_loss(epoch, idx, nodes, drop_rng)
                if weight != 1.0:
                    loss = scale(loss, weight)
                total += float(loss.value)
                backward(loss)
                adam_step(model.params, nodes.grads(), state)
            except FloatingPointError as exc:
                raise RuntimeError(
                    f"training diverged at epoch {epoch} step {step}: {exc}") from None
            step += 1
        log.append({"epoch": epoch, "split": "train",
                    "loss": total / max(1, len(order)), "instances": len(order)})
        metric, fields = validate()
        log.append({"epoch": epoch, "split": "validation", **fields})
        if metric > best_metric:
            best_epoch, best_metric = epoch, metric
            best = model.params.copy() if epoch < cfg.epochs - 1 else None
    if best is not None:
        model.params.load_values(best)
    return TrainResult(best_epoch, best_metric, log)


def train_depression(model: DepressionModel, train_users: Sequence[TokenizedUser],
                     val_users: Sequence[TokenizedUser],
                     selection: SelectionConfig,
                     cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Train the detection model on the selected posts of each user.

    Runs the shared loop `_train` with one user per step; the weights kept
    are those of the epoch with the best validation positive-class F1. A
    user's posts are selected where they are read, at each step and each
    validation, so no copy of every selection is held.
    """
    train_users, val_users = (sorted(users, key=lambda u: u.user_id)
                              for users in (train_users, val_users))
    labels = [int(u.label == DIAGNOSED) for u in train_users]
    gold = [int(u.label == DIAGNOSED) for u in val_users]

    def step_loss(epoch, idx, nodes, rng):
        return model.loss(select_posts(train_users[idx], selection), labels[idx], nodes,
                          train=True, rng=rng)

    def validate():
        pred = [int(np.argmax(model.classify_user(select_posts(u, selection))))
                for u in val_users]
        precision, recall, f1 = binary_metrics(gold, pred)
        return f1, {"precision": precision, "recall": recall, "f1": f1}

    return _train(model, labels, 2, cfg, step_loss, validate)


def thread_matrices(instances: Sequence[ThreadInstance], encoder,
                    max_sentences: int) -> list[tuple[SparseRows, SparseRows, int]]:
    """Encode thread instances once into (target, context, label) triples.

    Each matrix is the `SparseRows` that `instance_matrices` builds, whose
    hashed sentence vectors fill a few of the encoder's columns.
    """
    return [(*instance_matrices(inst, encoder, max_sentences), int(inst.label))
            for inst in instances]


def train_risk(model: RiskModel,
               train_data: Sequence[tuple[SparseRows, SparseRows, int]],
               val_data: Sequence[tuple[SparseRows, SparseRows, int]],
               cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Train the risk model on encoded (target, context, label) data, as
    `thread_matrices` gives it (dense matrices are accepted too).

    Runs the shared loop `_train` with one thread per step; the weights kept
    are those of the epoch with the best validation non-green F1. Metric
    variants draw their negative class uniformly from the incorrect labels,
    from the seeded `negatives:<epoch>` stream.
    """
    n_classes = model.config.n_classes
    needs_negative = model.config.variant in ("class_metric", "class_metric_ordinal")
    gold = [y for _, _, y in val_data]
    # One stream per epoch, made at its first draw.
    negatives = functools.lru_cache(maxsize=1)(
        lambda epoch: np.random.default_rng(derive_seed(cfg.seed, f"negatives:{epoch}")))

    def step_loss(epoch, idx, nodes, rng):
        target, context, label = train_data[idx]
        negative = None
        if needs_negative:
            others = [c for c in range(n_classes) if c != label]
            negative = int(negatives(epoch).choice(others))
        return model.loss(target, context, label, nodes, train=True, rng=rng,
                          negative=negative)

    def validate():
        report = triage_report(gold, [int(model.classify(t, c)) for t, c, _ in val_data])
        metric = report.groupings["non_green"]["f1"]
        return metric, {"non_green_f1": metric, "accuracy": report.accuracy}

    return _train(model, [y for _, _, y in train_data], n_classes, cfg, step_loss,
                  validate)


def stratified_split(labels: Sequence[int], val_fraction: float,
                     seed: int) -> tuple[list[int], list[int]]:
    """Indices (kept, held out) with `val_fraction` of each class held out, >= 1 each."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction!r}")
    rng = np.random.default_rng(derive_seed(seed, "stratified-split"))
    held: list[int] = []
    for c in sorted(set(labels)):
        idx = [i for i, y in enumerate(labels) if y == c]
        perm = rng.permutation(len(idx))
        n_held = max(1, int(val_fraction * len(idx)))
        held.extend(idx[j] for j in perm[:n_held])
    held_set = set(held)
    kept = [i for i in range(len(labels)) if i not in held_set]
    return kept, sorted(held)


# ---------------------------------------------------------------------------
# Synthetic corpora

@dataclass(frozen=True)
class SynthDetectionSpec:
    """Synthetic user corpus: positives plant signal phrases at a fixed rate."""

    n_positive: int = 200
    n_controls_per: int = 3
    posts_per_user: int = 50
    signal_rate: float = 0.05
    vocab_size: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.signal_rate <= 1.0:
            raise ValueError(f"signal_rate must be in [0, 1], got {self.signal_rate!r}")
        at_least(1, n_positive=self.n_positive, n_controls_per=self.n_controls_per,
                 posts_per_user=self.posts_per_user, vocab_size=self.vocab_size)


SIGNAL_PHRASES = (("sig0", "sig1", "sig2"), ("sig3", "sig4", "sig5"))
# Shapes of the synthetic corpora that no spec sets; a pair is an inclusive range.
TOKENS_PER_POST = (8, 18)
N_COMMUNITIES = 8
SENTENCES_PER_TARGET = (3, 6)
CONTEXT_POSTS = (0, 3)
WORDS_PER_SENTENCE = (6, 10)
N_SIGNAL_WORDS = 4


def _synth_posts(uid: str, spec: SynthDetectionSpec, rng: np.random.Generator,
                 with_signal: bool) -> list[Post]:
    lo, hi = TOKENS_PER_POST
    posts = []
    for i in range(spec.posts_per_user):
        words = [f"w{int(w):04d}" for w in
                 rng.integers(0, spec.vocab_size, size=int(rng.integers(lo, hi + 1)))]
        if with_signal and float(rng.random()) < spec.signal_rate:
            phrase = SIGNAL_PHRASES[int(rng.integers(0, len(SIGNAL_PHRASES)))]
            at = int(rng.integers(0, len(words) + 1))
            words[at:at] = list(phrase)
        community = f"forum{int(rng.integers(0, N_COMMUNITIES))}"
        posts.append(Post(f"{uid}-p{i:03d}", uid, community, i, " ".join(words)))
    return posts


def synth_detection_corpus(spec: SynthDetectionSpec,
                           out_dir: str | Path) -> dict[str, Path]:
    """Write train/validation/test posts+labels files; returns their paths.

    Positive users plant a 3-token signal phrase in each post with
    probability `signal_rate`; controls never do. Splits are stratified
    60/20/20. Positive users carry their first post as the nominal diagnosis
    post so records stay well-formed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(derive_seed(spec.seed, "detection-corpus"))
    users: list[UserRecord] = []
    for i in range(spec.n_positive):
        uid = f"pos{i:04d}"
        posts = _synth_posts(uid, spec, rng, with_signal=True)
        users.append(UserRecord(uid, tuple(posts), DIAGNOSED, posts[0].post_id))
    for i in range(spec.n_positive * spec.n_controls_per):
        uid = f"ctl{i:04d}"
        posts = _synth_posts(uid, spec, rng, with_signal=False)
        users.append(UserRecord(uid, tuple(posts)))

    labels = [int(u.label == DIAGNOSED) for u in users]
    rest, test_idx = stratified_split(labels, 0.2, derive_seed(spec.seed, "test"))
    rest_labels = [labels[i] for i in rest]
    train_rel, val_rel = stratified_split(rest_labels, 0.25, derive_seed(spec.seed, "val"))
    assignment = {
        "train": [rest[i] for i in train_rel],
        "validation": [rest[i] for i in val_rel],
        "test": test_idx,
    }
    paths: dict[str, Path] = {}
    for split, indices in assignment.items():
        records = sorted((users[i] for i in indices), key=lambda u: u.user_id)
        posts_path = out_dir / f"{split}.posts.ndjson"
        labels_path = out_dir / f"{split}.labels.ndjson"
        write_posts(posts_path, (p for u in records for p in u.posts))
        write_labels(labels_path, records)
        paths[f"{split}.posts"] = posts_path
        paths[f"{split}.labels"] = labels_path
    return paths


@dataclass(frozen=True)
class SynthRiskSpec:
    """Synthetic ordinal thread corpus: severity = planted-phrase intensity.

    Each severity level above green has its own pool of `N_SIGNAL_WORDS`
    signal words; a label-y sentence carries signal_per_level * y words drawn
    from level y's pool. Sentences occasionally drift one level (controlled
    by `drift`) and then carry the drifted level's vocabulary, so severity is
    learnable from sentence vectors while adjacent classes stay the most
    confusable.
    """

    n_train: int = 800
    n_test: int = 200
    vocab_size: int = 500
    signal_per_level: int = 3
    drift: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.drift <= 1.0:
            raise ValueError(f"drift must be in [0, 1], got {self.drift!r}")
        at_least(1, n_train=self.n_train, n_test=self.n_test, vocab_size=self.vocab_size,
                 signal_per_level=self.signal_per_level)


def _synth_sentence(level: int, spec: SynthRiskSpec,
                    rng: np.random.Generator) -> str:
    lo, hi = WORDS_PER_SENTENCE
    words = [f"v{int(w):03d}" for w in
             rng.integers(0, spec.vocab_size, size=int(rng.integers(lo, hi + 1)))]
    if float(rng.random()) < spec.drift:
        level = min(3, max(0, level + (1 if rng.random() < 0.5 else -1)))
    for _ in range(spec.signal_per_level * level):
        word = f"risk{level}x{int(rng.integers(0, N_SIGNAL_WORDS))}"
        words.insert(int(rng.integers(0, len(words) + 1)), word)
    # Capitalised, so that `split_sentences` ends the sentence before it.
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _synth_thread(index: int, label: int, spec: SynthRiskSpec,
                  rng: np.random.Generator) -> ThreadInstance:
    lo_s, hi_s = SENTENCES_PER_TARGET
    n_sent = max(1, int(rng.integers(lo_s, hi_s + 1)))
    target_text = " ".join(_synth_sentence(label, spec, rng)
                           for _ in range(n_sent))
    target = Post(f"t{index:05d}", f"u{index % 50:03d}", "forum", 1000, target_text)
    lo, hi = CONTEXT_POSTS
    n_ctx = int(rng.integers(lo, hi + 1))
    context = tuple(
        Post(f"t{index:05d}-c{j}", f"u{(index + j) % 50:03d}", "forum", j,
             " ".join(_synth_sentence(0, spec, rng)
                      for _ in range(max(1, int(rng.integers(1, 3))))))
        for j in range(n_ctx))
    return ThreadInstance(target, context, RiskLabel(label))


def synth_risk_corpus(spec: SynthRiskSpec, out_dir: str | Path) -> dict[str, Path]:
    """Write train/test thread files with labels cycling through the 4 levels."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(derive_seed(spec.seed, "risk-corpus"))
    paths: dict[str, Path] = {}
    counts = {"train": spec.n_train, "test": spec.n_test}
    index = 0
    for split, count in counts.items():
        instances = []
        for _ in range(count):
            instances.append(_synth_thread(index, index % 4, spec, rng))
            index += 1
        path = out_dir / f"{split}.threads.ndjson"
        write_threads(path, instances)
        paths[split] = path
    return paths
