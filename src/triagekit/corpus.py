"""Data model, tokenization, vocabulary, and sentence encoders for forum corpora.

Corpus files are line-delimited JSON (one post per line); user labels live in
a separate line-delimited JSON file. All text handling here is deterministic:
repeated calls are byte-identical, which the dataset pipeline and the training
loop both rely on.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import numbers
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

CONTROL = "control"
DIAGNOSED = "diagnosed"


class CorpusFormatError(ValueError):
    """A corpus, label, or thread file failed to parse; message carries file:line."""


def at_least(low, **values) -> None:
    """Fail as ``<name> must be at least <low>, got <value>`` on a value below
    ``low`` or NaN."""
    for name, value in values.items():
        if not value >= low:
            raise ValueError(f"{name} must be at least {low}, got {value!r}")


class RiskLabel(IntEnum):
    """Ordinal self-harm risk severity of a forum post."""

    GREEN = 0
    AMBER = 1
    RED = 2
    CRISIS = 3

    @classmethod
    def parse(cls, name: str) -> "RiskLabel":
        """The label named exactly ``green``, ``amber``, ``red`` or ``crisis``."""
        for label in cls:
            if name == label.name.lower():
                return label
        raise ValueError(f"unknown risk label {name!r}")


@dataclass(frozen=True, slots=True)
class Post:
    """One forum post, slotted, since a corpus holds many.

    ``tokens`` holds the post's vocabulary ids, or nothing before
    tokenization. Only `TokenizedUser.posts` gives a post tokens: a
    read-only int32 view of its slice of the user's ids, and no text.
    Tokens take no part in equality or hashing.
    """

    post_id: str
    user_id: str
    community: str
    timestamp: int
    text: str
    tokens: Sequence[int] = field(default=(), compare=False)


# The token id dtype: no vocabulary reaches 2**31 words.
TOKEN_DTYPE = np.int32


@dataclass(frozen=True)
class UserRecord:
    """A user's time-ordered posts, with their text, plus their
    control/diagnosed label: a user as `load_users` reads it."""

    user_id: str
    posts: tuple[Post, ...]
    label: str = CONTROL
    diagnosis_post_id: str | None = None

    def __post_init__(self):
        _check_user_label(self.label, self.diagnosis_post_id)
        object.__setattr__(self, "posts",
                           tuple(sorted(self.posts, key=lambda p: (p.timestamp, p.post_id))))


@dataclass(frozen=True, slots=True)
class TokenizedUser:
    """A user's time-ordered posts as columns, with no object per post, as
    `traineval.tokenize_users` makes them from a `UserRecord`.

    Post i is ``post_ids[i]``, posted in ``communities[i]`` at
    ``timestamps[i]`` (int64), and its vocabulary ids are
    ``token_ids[token_offsets[i]:token_offsets[i + 1]]``: all the posts' ids
    are one read-only int32 array. Training, selection and serving read only
    these columns. The arrays take no part in equality or hashing.
    """

    user_id: str
    label: str
    diagnosis_post_id: str | None
    post_ids: tuple[str, ...]
    communities: tuple[str, ...]
    timestamps: np.ndarray = field(compare=False, repr=False)
    token_ids: np.ndarray = field(compare=False, repr=False)
    token_offsets: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        _check_user_label(self.label, self.diagnosis_post_id)
        if not (len(self.post_ids) == len(self.communities) == len(self.timestamps)
                == len(self.token_offsets) - 1):
            raise ValueError("a tokenized user needs one id, community, timestamp and "
                             "offset per post, and one offset more")

    @property
    def posts(self) -> tuple[Post, ...]:
        """The posts, built at each call: no text, and ``tokens`` a view of
        the post's slice of `token_ids`."""
        ids, ends = self.token_ids, self.token_offsets.tolist()
        return tuple(Post(post_id, self.user_id, community, timestamp, "", ids[a:b])
                     for post_id, community, timestamp, a, b in zip(
                         self.post_ids, self.communities, self.timestamps.tolist(),
                         ends, ends[1:]))


def _check_user_label(label: str, diagnosis_post_id: str | None) -> None:
    if label not in (CONTROL, DIAGNOSED):
        raise ValueError(f"unknown user label {label!r}")
    if (diagnosis_post_id is not None) != (label == DIAGNOSED):
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
# A run of sentence-ending punctuation (group 1), then `str.isspace` characters.
_BOUNDARY_RE = re.compile(r"([.!?]+)\s+")

DEFAULT_ABBREVIATIONS = (
    "dr.", "mr.", "mrs.", "ms.", "prof.", "st.", "jr.", "sr.",
    "vs.", "etc.", "e.g.", "i.e.", "approx.", "dept.", "est.",
)
_DEFAULT_ABBREVIATIONS = frozenset(a.lower() for a in DEFAULT_ABBREVIATIONS)


def word_tokens(text: str) -> list[str]:
    """Lowercased word tokens; empty text gives an empty list."""
    return _TOKEN_RE.findall(text.lower())


def token_spans(text: str) -> list[tuple[str, int]]:
    """Lowercased word tokens paired with their character offsets."""
    return [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text.lower())]


def tokenize(text: str, vocab: "Vocabulary") -> list[int]:
    """Map text to vocabulary ids; out-of-vocabulary words map to the unknown id."""
    return list(map(vocab._token_to_id.get, word_tokens(text), itertools.repeat(UNK_ID)))


def split_sentences(text: str) -> list[str]:
    """Rule-based sentence splitting.

    A boundary is a run of ``.!?`` followed by whitespace and an uppercase
    letter. A single period is not a boundary when the preceding word plus the
    period, lowercased, is in `DEFAULT_ABBREVIATIONS` (``"dr."`` and the like).
    """
    sentences: list[str] = []
    start = 0
    # A punctuation run not followed by whitespace can be no boundary, and
    # neither can any suffix of it, so each match is a whole run.
    for m in _BOUNDARY_RE.finditer(text):
        i, j, k = m.start(), m.end(1), m.end()
        if k == len(text) or not text[k].isupper():
            continue
        if j - i == 1 and text[i] == ".":
            w = i
            while w > 0 and (text[w - 1].isalnum() or text[w - 1] == "'"):
                w -= 1
            if text[w:i].lower() + "." in _DEFAULT_ABBREVIATIONS:
                continue
        piece = text[start:j].strip()
        if piece:
            sentences.append(piece)
        start = k
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
        if isinstance(tokens, str) or not all(isinstance(t, str) for t in self._id_to_token):
            raise TypeError("vocabulary tokens must be a sequence of strings")
        self._token_to_id = {t: i for i, t in enumerate(self._id_to_token)}
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    @classmethod
    def from_texts(cls, texts: Iterable[str], min_freq: int = 5) -> "Vocabulary":
        at_least(1, min_freq=min_freq)
        counts: Counter[str] = Counter()
        for text in texts:
            counts.update(word_tokens(text))
        # Most frequent first, ties in string order: the order of the key
        # (-count, token), from two sorts that compare no tuples.
        kept = sorted(t for t, c in counts.items() if c >= min_freq)
        kept.sort(key=counts.__getitem__, reverse=True)
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

# Sentences whose read-only (cols, values) an encoder keeps, least recently
# used out first. Each request of a growing thread re-encodes the thread's
# earlier posts, so most served sentences were encoded a few requests before.
# 1024 of them take about 0.5 MB at 7200 dimensions and 8-9 words a sentence.
_ENCODE_CACHE = 1024


class HashedSentenceEncoder:
    """Deterministic feature-hashing sentence vectors.

    Token n-grams up to ``max_ngram`` (unigrams and bigrams by default) are
    hashed with a keyed blake2b into ``dim`` signed buckets and the result is
    L2-normalized. A stand-in for pretrained sentence vectors: not
    semantically meaningful, but fixed-dimension, deterministic, and disjoint
    token sets give near-orthogonal vectors at reasonable ``dim``.

    The buckets are summed sparsely: the nonzero sums, all integers, are
    divided by the square root of their sum of squares. That sum is exact in
    any order and the square root is correctly rounded, so the vector is bit
    for bit the one a dense ``dim``-wide sum and `np.linalg.norm` give.

    `encode` gives a sentence's nonzero columns and values. Each encoder
    keeps them for the last `_ENCODE_CACHE` sentences it encoded, in a
    `functools.lru_cache` that holds no reference to the encoder, so a
    repeated sentence is hashed once while it stays among them; the arrays
    are read-only, as every caller shares them.
    """

    def __init__(self, dim: int = 7200, seed: int = 0, max_ngram: int = 2):
        for name, value in (("encoder_dim", dim), ("encoder_seed", seed)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        at_least(1, encoder_dim=dim)
        self.dim = int(dim)
        self.seed = seed
        self.max_ngram = max_ngram
        key = hashlib.sha256(f"hashed-encoder:{seed}".encode()).digest()[:16]
        # Copied for every n-gram: the same digest as a fresh keyed hash of
        # it, without setting up the key each time.
        hasher = hashlib.blake2b(key=key, digest_size=8)
        self._cache = functools.lru_cache(maxsize=_ENCODE_CACHE)(
            functools.partial(_hashed_sparse, hasher, self.dim, max_ngram))

    def encode(self, sentence: str) -> tuple[np.ndarray, np.ndarray]:
        """The sentence's sorted nonzero columns and their values, read-only."""
        return self._cache(sentence)


def _hashed_sparse(hasher, dim: int, max_ngram: int,
                   sentence: str) -> tuple[np.ndarray, np.ndarray]:
    """(sorted nonzero columns, their normalized values) of a sentence, its
    n-grams hashed by copies of the keyed ``hasher``."""
    toks = word_tokens(sentence)
    copy = hasher.copy
    sums: dict[int, int] = {}
    for n in range(1, max_ngram + 1):
        for i in range(len(toks) - n + 1):
            h = copy()
            h.update(" ".join(toks[i:i + n]).encode("utf-8"))
            v = int.from_bytes(h.digest(), "little")
            col = (v >> 1) % dim
            sums[col] = sums.get(col, 0) + (1 if v & 1 else -1)
    cols = np.array(sorted(col for col, s in sums.items() if s), dtype=np.intp)
    values = np.array([sums[col] for col in cols.tolist()], dtype=np.float64)
    if cols.size:
        values /= math.sqrt(values @ values)
    cols.flags.writeable = values.flags.writeable = False
    return cols, values


# ---------------------------------------------------------------------------
# Line-delimited JSON I/O

def read_rows(path: str | Path, what: str, parse: Callable[[Any], Any]) -> list:
    """`parse(row)` of each non-blank line of an ndjson file, in file order.

    Lines end at a newline byte. A line that is not UTF-8, not JSON or not
    a JSON object, or a row that `parse` rejects with a KeyError, TypeError
    or ValueError, fails as ``path:line: bad <what> row: reason``; a
    CorpusFormatError that `parse` raises fails as ``path:line: reason``.
    """
    rows = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    rows.append(parse(_of_kind(json.loads(line), "an object", "row")))
            except CorpusFormatError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: {exc}") from None
            except (KeyError, TypeError, ValueError) as exc:
                raise CorpusFormatError(f"{path}:{lineno}: bad {what} row: {exc}") from None
    return rows


# How an error names the kind of a JSON value.
_JSON_KINDS = {type(None): "null", bool: "a boolean", dict: "an object", list: "an array",
               int: "a number", float: "a number", str: "a string"}


def _of_kind(value, kind: str, what: str):
    """``value``, a decoded JSON value, if it is of ``kind`` (as `_JSON_KINDS`
    names it), else a ValueError naming ``what`` and both kinds."""
    got = _JSON_KINDS[type(value)]
    if got != kind:
        raise ValueError(f"{what} must be {kind}, got {got}")
    return value


def _checked_fields(row: Mapping) -> tuple[str, str, str, int, str]:
    """A post row's (post_id, user_id, community, timestamp, text), checked
    and converted: an id is a string or a number, read as its string; the
    text is a string; the timestamp is an integer, a whole float or a string
    spelling an integer, read as an int. Another kind is a ValueError naming
    the field."""
    strings = []
    for name in ("post_id", "user_id", "community", "text"):
        value = row[name]
        kind = _JSON_KINDS[type(value)]
        allowed = ("a string",) if name == "text" else ("a string", "a number")
        if kind not in allowed:
            raise ValueError(f"{name} must be {' or '.join(allowed)}, got {kind}")
        strings.append(str(value))
    timestamp = row["timestamp"]
    if isinstance(timestamp, float) and timestamp.is_integer():
        timestamp = int(timestamp)
    elif type(timestamp) not in (int, str):
        got = repr(timestamp) if isinstance(timestamp, float) else _JSON_KINDS[type(timestamp)]
        raise ValueError(f"timestamp must be an integer, got {got}")
    post_id, user_id, community, text = strings
    return post_id, user_id, community, int(timestamp), text


def _post(row: Mapping, strings: dict[str, str]) -> Post:
    """A post row's Post, its fields as `_checked_fields` reads them; its
    user id and community are the equal string in ``strings`` if there is
    one, so the posts of one file share them."""
    post_id, user_id, community, timestamp, text = _checked_fields(row)
    return Post(post_id=post_id, user_id=strings.setdefault(user_id, user_id),
                community=strings.setdefault(community, community),
                timestamp=timestamp, text=text)


@contextlib.contextmanager
def atomic_open(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """Open ``path`` for writing text, or bytes if ``binary``, through a
    temporary file beside it, making its directory if there is none.

    The file replaces ``path`` only when the block completes, so a write that
    fails partway leaves an earlier file whole and no temporary file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_rows(path: str | Path, rows: Iterable[Mapping]) -> None:
    """Each row as a JSON line, keys sorted and text unescaped, through `atomic_open`."""
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def _post_row(p: Post) -> dict:
    return {"post_id": p.post_id, "user_id": p.user_id, "community": p.community,
            "timestamp": p.timestamp, "text": p.text}


def read_posts(path: str | Path) -> list[Post]:
    strings: dict[str, str] = {}
    return read_rows(path, "post", lambda row: _post(row, strings))


def write_posts(path: str | Path, posts: Iterable[Post]) -> None:
    _write_rows(path, map(_post_row, posts))


def _label(row: Mapping) -> tuple[str, tuple[str, str | None]]:
    uid, label = str(row["user_id"]), str(row["label"])
    diag = row.get("diagnosis_post_id")
    diag = str(diag) if diag is not None else None
    _check_user_label(label, diag)
    return uid, (label, diag)


def read_labels(path: str | Path) -> dict[str, tuple[str, str | None]]:
    """user_id -> (label, diagnosis_post_id or None)."""
    return dict(read_rows(path, "label", _label))


def write_labels(path: str | Path, users: Iterable[UserRecord]) -> None:
    _write_rows(path, ({"user_id": u.user_id, "label": u.label}
                       | ({} if u.diagnosis_post_id is None
                          else {"diagnosis_post_id": u.diagnosis_post_id}) for u in users))


def load_users(posts_path: str | Path,
               labels_path: str | Path | None = None) -> dict[str, UserRecord]:
    """Group a posts file (and optional labels file) into UserRecords.

    Users absent from the labels file default to control; a labelled user
    without posts is an error. post_id uniqueness is enforced corpus-wide.
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
    unposted = sorted(set(labels) - set(by_user))
    if unposted:
        raise CorpusFormatError(f"{labels_path}: user {unposted[0]!r} has a label but no "
                                f"posts in {posts_path}")
    users: dict[str, UserRecord] = {}
    for uid, user_posts in by_user.items():
        label, diag = labels.get(uid, (CONTROL, None))
        users[uid] = UserRecord(uid, tuple(user_posts), label, diag)
    return users


def _thread(row: Mapping, strings: dict[str, str]) -> ThreadInstance:
    context = _of_kind(row.get("context", []), "an array", "context")
    instance = ThreadInstance(_post(_of_kind(row["target"], "an object", "target"), strings),
                              tuple(_post(_of_kind(c, "an object", "context item"), strings)
                                    for c in context),
                              RiskLabel.parse(row["label"]))
    # split_sentences finds no sentence exactly when the text is blank.
    if not instance.target.text.strip():
        raise CorpusFormatError(f"target post {instance.target.post_id} has no sentences")
    return instance


def read_threads(path: str | Path) -> list[ThreadInstance]:
    """Thread instances: {"target": {post}, "context": [post...], "label": name}."""
    strings: dict[str, str] = {}
    return read_rows(path, "thread", lambda row: _thread(row, strings))


def write_threads(path: str | Path, instances: Iterable[ThreadInstance]) -> None:
    _write_rows(path, ({"target": _post_row(inst.target),
                       "context": [_post_row(c) for c in inst.context],
                       "label": inst.label.name.lower()} for inst in instances))
