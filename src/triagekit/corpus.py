"""Data model, tokenization, vocabulary, and sentence encoders for forum corpora.

Corpus files are line-delimited JSON (one post per line); user labels live in
a separate line-delimited JSON file. All text handling here is deterministic:
repeated calls are byte-identical, which the dataset pipeline and the training
loop both rely on.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

CONTROL = "control"
DIAGNOSED = "diagnosed"


class CorpusFormatError(ValueError):
    """A corpus, label, or thread file failed to parse; message carries file:line."""


class RiskLabel(IntEnum):
    """Ordinal self-harm risk severity of a forum post."""

    GREEN = 0
    AMBER = 1
    RED = 2
    CRISIS = 3

    @classmethod
    def parse(cls, name: str) -> "RiskLabel":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown risk label {name!r}") from None


@dataclass(frozen=True)
class Post:
    post_id: str
    user_id: str
    community: str
    timestamp: int
    text: str
    tokens: tuple[int, ...] = ()

    def with_tokens(self, tokens: Sequence[int]) -> "Post":
        return Post(self.post_id, self.user_id, self.community,
                    self.timestamp, self.text, tuple(tokens))


@dataclass(frozen=True)
class UserRecord:
    """A user's time-ordered posts plus their control/diagnosed label."""

    user_id: str
    posts: tuple[Post, ...]
    label: str = CONTROL
    diagnosis_post_id: str | None = None

    def __post_init__(self):
        ordered = tuple(sorted(self.posts, key=lambda p: (p.timestamp, p.post_id)))
        object.__setattr__(self, "posts", ordered)
        if self.label not in (CONTROL, DIAGNOSED):
            raise ValueError(f"unknown user label {self.label!r}")
        if (self.diagnosis_post_id is not None) != (self.label == DIAGNOSED):
            raise ValueError("diagnosis_post_id must be present iff label is diagnosed")


@dataclass(frozen=True)
class ThreadInstance:
    """A target post with the earlier posts of its thread as context."""

    target: Post
    context: tuple[Post, ...]
    label: RiskLabel

    def __post_init__(self):
        object.__setattr__(self, "context",
                           tuple(sorted(self.context, key=lambda p: (p.timestamp, p.post_id))))
        for post in self.context:
            if post.timestamp >= self.target.timestamp:
                raise ValueError(f"context post {post.post_id} is not earlier than the target")


# ---------------------------------------------------------------------------
# Tokenization and sentence splitting

# Word tokens keep internal apostrophes ("wasn't") and drop other punctuation.
_TOKEN_RE = re.compile(r"\w+(?:'\w+)*")

DEFAULT_ABBREVIATIONS = (
    "dr.", "mr.", "mrs.", "ms.", "prof.", "st.", "jr.", "sr.",
    "vs.", "etc.", "e.g.", "i.e.", "approx.", "dept.", "est.",
)


def word_tokens(text: str) -> list[str]:
    """Lowercased word tokens; empty text gives an empty list."""
    return _TOKEN_RE.findall(text.lower())


def token_spans(text: str) -> list[tuple[str, int]]:
    """Lowercased word tokens paired with their character offsets."""
    return [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text.lower())]


def tokenize(text: str, vocab: "Vocabulary") -> list[int]:
    """Map text to vocabulary ids; out-of-vocabulary words map to the unknown id."""
    return [vocab.id(tok) for tok in word_tokens(text)]


def split_sentences(text: str, abbreviations: Iterable[str] | None = None) -> list[str]:
    """Rule-based sentence splitting.

    A boundary is a run of ``.!?`` followed by whitespace and an uppercase
    letter. A single period is not a boundary when the preceding word plus the
    period is in the abbreviation list (``"Dr."`` by default).
    """
    abbrevs = {a.lower() for a in (DEFAULT_ABBREVIATIONS if abbreviations is None
                                   else abbreviations)}
    sentences: list[str] = []
    start = 0
    i = 0
    n = len(text)
    while i < n:
        if text[i] in ".!?":
            j = i + 1
            while j < n and text[j] in ".!?":
                j += 1
            k = j
            while k < n and text[k].isspace():
                k += 1
            boundary = k > j and k < n and text[k].isupper()
            if boundary and j - i == 1 and text[i] == ".":
                w = i
                while w > 0 and (text[w - 1].isalnum() or text[w - 1] == "'"):
                    w -= 1
                if text[w:i].lower() + "." in abbrevs:
                    boundary = False
            if boundary:
                piece = text[start:j].strip()
                if piece:
                    sentences.append(piece)
                start = k
            i = j
        else:
            i += 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# ---------------------------------------------------------------------------
# Vocabulary

class Vocabulary:
    """Token/id bijection with reserved padding (0) and unknown (1) ids.

    Built from training-split text only; tokens below ``min_freq`` are dropped
    so rare strings cannot leak split identity into the model.
    """

    def __init__(self, tokens: Sequence[str]):
        self._id_to_token = [PAD_TOKEN, UNK_TOKEN] + list(tokens)
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    @classmethod
    def from_texts(cls, texts: Iterable[str], min_freq: int = 5) -> "Vocabulary":
        counts: dict[str, int] = {}
        for text in texts:
            for tok in word_tokens(text):
                counts[tok] = counts.get(tok, 0) + 1
        kept = [t for t, c in counts.items() if c >= min_freq]
        kept.sort(key=lambda t: (-counts[t], t))
        return cls(kept)

    def id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK_ID)

    def token(self, token_id: int) -> str:
        return self._id_to_token[token_id]

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def tokens(self) -> list[str]:
        """Non-special tokens, in id order."""
        return self._id_to_token[2:]


# ---------------------------------------------------------------------------
# Sentence encoders

def sentence_hash(sentence: str) -> str:
    """Stable key for precomputed-vector lookup: sha256 of the raw UTF-8 sentence."""
    return hashlib.sha256(sentence.encode("utf-8")).hexdigest()


class HashedSentenceEncoder:
    """Deterministic feature-hashing sentence vectors.

    Token unigrams and bigrams are hashed into ``dim`` signed buckets and the
    result is L2-normalized. A stand-in for pretrained sentence vectors: not
    semantically meaningful, but fixed-dimension, deterministic, and disjoint
    token sets give near-orthogonal vectors at reasonable ``dim``.
    """

    def __init__(self, dim: int = 7200, seed: int = 0, max_ngram: int = 2):
        if dim < 1:
            raise ValueError("encoder dim must be >= 1")
        self.dim = dim
        self.seed = seed
        self.max_ngram = max_ngram
        self._key = hashlib.sha256(f"hashed-encoder:{seed}".encode()).digest()[:16]

    def _bucket(self, gram: str) -> tuple[int, float]:
        h = hashlib.blake2b(gram.encode("utf-8"), key=self._key, digest_size=8).digest()
        v = int.from_bytes(h, "little")
        return (v >> 1) % self.dim, 1.0 if v & 1 else -1.0

    def encode(self, sentence: str) -> np.ndarray:
        toks = word_tokens(sentence)
        vec = np.zeros(self.dim)
        for n in range(1, self.max_ngram + 1):
            for i in range(len(toks) - n + 1):
                idx, sign = self._bucket(" ".join(toks[i:i + n]))
                vec[idx] += sign
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


class FileSentenceEncoder:
    """Looks up precomputed sentence vectors keyed by :func:`sentence_hash`.

    The file is line-delimited JSON: ``{"hash": <hex>, "vector": [...]}``.
    """

    def __init__(self, path: str | Path, dim: int | None = None):
        self.path = Path(path)
        self._vectors: dict[str, np.ndarray] = {}
        for lineno, row in _iter_ndjson(self.path):
            try:
                key = row["hash"]
                vec = np.asarray(row["vector"], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(f"{self.path}:{lineno}: bad vector row: {exc}") from None
            if dim is not None and vec.shape != (dim,):
                raise CorpusFormatError(
                    f"{self.path}:{lineno}: vector has dim {vec.shape}, expected ({dim},)")
            self._vectors[key] = vec
        dims = {v.shape[0] for v in self._vectors.values()}
        if len(dims) > 1:
            raise CorpusFormatError(f"{self.path}: mixed vector dimensions {sorted(dims)}")
        self.dim = dim if dim is not None else (dims.pop() if dims else 0)

    def encode(self, sentence: str) -> np.ndarray:
        key = sentence_hash(sentence)
        try:
            return self._vectors[key]
        except KeyError:
            raise KeyError(
                f"no precomputed vector for sentence (hash {key[:12]}...): "
                f"{sentence[:60]!r}") from None


# ---------------------------------------------------------------------------
# Line-delimited JSON I/O

def _iter_ndjson(path: Path):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield lineno, json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None


def _post_from_row(row: Mapping, where: str) -> Post:
    try:
        return Post(post_id=str(row["post_id"]), user_id=str(row["user_id"]),
                    community=str(row["community"]), timestamp=int(row["timestamp"]),
                    text=str(row["text"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(f"{where}: bad post row: {exc}") from None


def read_posts(path: str | Path) -> list[Post]:
    path = Path(path)
    return [_post_from_row(row, f"{path}:{lineno}") for lineno, row in _iter_ndjson(path)]


def write_posts(path: str | Path, posts: Iterable[Post]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in posts:
            fh.write(json.dumps({"post_id": p.post_id, "user_id": p.user_id,
                                 "community": p.community, "timestamp": p.timestamp,
                                 "text": p.text}, sort_keys=True, ensure_ascii=False) + "\n")


def read_labels(path: str | Path) -> dict[str, tuple[str, str | None]]:
    """user_id -> (label, diagnosis_post_id or None)."""
    path = Path(path)
    labels: dict[str, tuple[str, str | None]] = {}
    for lineno, row in _iter_ndjson(path):
        try:
            uid = str(row["user_id"])
            label = str(row["label"])
        except (KeyError, TypeError) as exc:
            raise CorpusFormatError(f"{path}:{lineno}: bad label row: {exc}") from None
        diag = row.get("diagnosis_post_id")
        labels[uid] = (label, str(diag) if diag is not None else None)
    return labels


def write_labels(path: str | Path, users: Iterable[UserRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u in users:
            row: dict = {"user_id": u.user_id, "label": u.label}
            if u.diagnosis_post_id is not None:
                row["diagnosis_post_id"] = u.diagnosis_post_id
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def load_users(posts_path: str | Path,
               labels_path: str | Path | None = None) -> dict[str, UserRecord]:
    """Group a posts file (and optional labels file) into UserRecords.

    Users absent from the labels file default to control. post_id uniqueness
    is enforced corpus-wide.
    """
    posts = read_posts(posts_path)
    seen: set[str] = set()
    by_user: dict[str, list[Post]] = {}
    for p in posts:
        if p.post_id in seen:
            raise CorpusFormatError(f"{posts_path}: duplicate post_id {p.post_id!r}")
        seen.add(p.post_id)
        by_user.setdefault(p.user_id, []).append(p)
    labels = read_labels(labels_path) if labels_path is not None else {}
    users: dict[str, UserRecord] = {}
    for uid, user_posts in by_user.items():
        label, diag = labels.get(uid, (CONTROL, None))
        users[uid] = UserRecord(uid, tuple(user_posts), label, diag)
    return users


def read_threads(path: str | Path) -> list[ThreadInstance]:
    """Thread instances: {"target": {post}, "context": [post...], "label": name}."""
    path = Path(path)
    instances = []
    for lineno, row in _iter_ndjson(path):
        where = f"{path}:{lineno}"
        try:
            target = _post_from_row(row["target"], where)
            context = tuple(_post_from_row(c, where) for c in row.get("context", []))
            label = RiskLabel.parse(row["label"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{where}: bad thread row: {exc}") from None
        # split_sentences finds no sentence exactly when the text is blank.
        if not target.text.strip():
            raise CorpusFormatError(
                f"{where}: target post {target.post_id} has no sentences")
        instances.append(ThreadInstance(target, context, label))
    return instances


def write_threads(path: str | Path, instances: Iterable[ThreadInstance]) -> None:
    def post_row(p: Post) -> dict:
        return {"post_id": p.post_id, "user_id": p.user_id, "community": p.community,
                "timestamp": p.timestamp, "text": p.text}

    with open(path, "w", encoding="utf-8") as fh:
        for inst in instances:
            row = {"target": post_row(inst.target),
                   "context": [post_row(c) for c in inst.context],
                   "label": inst.label.name.lower()}
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")
