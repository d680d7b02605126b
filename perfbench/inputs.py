"""Seeded input generators for the benchmark workloads.

Every file is written here, as line-delimited JSON in the formats that
``triagekit.corpus`` reads. Each input has a *shape* and *words*. The shape
is everything that sets the cost of a run or how hard it is to learn: labels
and their order, sentences per post, words per sentence, where the signal
words go, posts per user and post lengths. It is drawn from a fixed stream,
so it is the same for every seed. The seed draws the words (for depression
users, the spelling of each lexicon rank; see ``ZipfText``). The same seed
gives byte-identical files, and a different seed gives the same work with
other words.

A serve set is written as several *copies* of one shape, each with fresh
words. Copy ``c`` of an item costs what copy 0 costs, but shares no sentence
with it, so a cache keyed on text sees no more repeats than one copy holds.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

RISK_CLASSES = ("green", "amber", "red", "crisis")
# Seed of the shape streams. It is fixed so that --seed varies the words alone.
SHAPE_SEED = 0


def stream(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(f"perfbench:{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def streams(seed: int, name: str) -> tuple[np.random.Generator, np.random.Generator]:
    """(shape, words) streams of one input file."""
    return stream(SHAPE_SEED, f"shape:{name}"), stream(seed, f"words:{name}")


def _write_ndjson(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _post_row(post_id: str, user_id: str, timestamp: int, text: str) -> dict:
    return {"post_id": post_id, "user_id": user_id, "community": "forum",
            "timestamp": timestamp, "text": text}


def _balanced(n: int, n_classes: int, rng: np.random.Generator) -> list[int]:
    """n labels with class counts as equal as n allows, in seeded order."""
    labels = [i % n_classes for i in range(n)]
    return [labels[i] for i in rng.permutation(n)]


# ---------------------------------------------------------------------------
# Risk threads

class RiskText:
    """Posts of 3-6 capitalised, period-terminated sentences, so that
    split_sentences splits them. Each sentence has 3-6 filler words; a post at
    risk level y adds the level's signal word 3·y times to every sentence.

    A post shape is one list per sentence of token kinds: -1 for a filler
    word, else the level whose signal word goes there."""

    FILLER = 500
    SIGNAL_PER_LEVEL = 3
    SENTENCES = (3, 6)
    WORDS = (3, 6)

    def __init__(self, shape_rng: np.random.Generator, word_rng: np.random.Generator):
        self.shape_rng = shape_rng
        self.word_rng = word_rng

    def post_shape(self, level: int, n_sentences: int) -> list[list[int]]:
        rng = self.shape_rng
        shape = []
        for _ in range(n_sentences):
            kinds = [-1] * int(rng.integers(self.WORDS[0], self.WORDS[1] + 1))
            for _ in range(self.SIGNAL_PER_LEVEL * level):
                kinds.insert(int(rng.integers(0, len(kinds) + 1)), level)
            shape.append(kinds)
        return shape

    def render(self, shape: list[list[int]]) -> str:
        sentences = []
        for kinds in shape:
            fill = self.word_rng.integers(0, self.FILLER, size=len(kinds)).tolist()
            words = [f"risk{k}" if k >= 0 else f"v{w:03d}" for k, w in zip(kinds, fill)]
            sentences.append(words[0].capitalize() + " " + " ".join(words[1:]) + ".")
        return " ".join(sentences)

    def sentence_counts(self, n: int) -> list[int]:
        """n sentence counts covering the range evenly, in seeded order."""
        lo, hi = self.SENTENCES
        counts = [lo + i % (hi - lo + 1) for i in range(n)]
        return [counts[i] for i in self.shape_rng.permutation(n)]


def _instance_row(target: dict, context: list[dict], label: int) -> dict:
    return {"target": target, "context": context, "label": RISK_CLASSES[label]}


def growing_threads(path: Path, seed: int, name: str, n_threads: int,
                    posts_per_thread: int, copies: int = 1) -> int:
    """Forum threads served as they grow: post k is one instance whose
    context is posts 0..k-1 of its thread. Every post of a thread has the
    thread's risk level. Writes ``copies`` renderings of one shape, copy by
    copy; returns the instance count of one copy."""
    shape_rng, word_rng = streams(seed, name)
    text = RiskText(shape_rng, word_rng)
    n = n_threads * posts_per_thread
    levels = _balanced(n_threads, 4, shape_rng)
    labels = [levels[i // posts_per_thread] for i in range(n)]
    counts = text.sentence_counts(n)
    shapes = [text.post_shape(labels[i], counts[i]) for i in range(n)]
    users = shape_rng.integers(0, 200, size=n).tolist()
    rows = []
    for c in range(copies):
        for t in range(n_threads):
            posts: list[dict] = []
            for k in range(posts_per_thread):
                i = t * posts_per_thread + k
                post = _post_row(f"{name}{c}-{t:04d}-{k:02d}", f"u{users[i]:03d}", k,
                                 text.render(shapes[i]))
                rows.append(_instance_row(post, list(posts), labels[i]))
                posts.append(post)
    _write_ndjson(path, rows)
    return n


def independent_threads(path: Path, seed: int, name: str, n: int, copies: int = 1) -> int:
    """Threads that share nothing: a target post plus 0-3 context posts of
    its own. Writes ``copies`` renderings of one shape, copy by copy; returns
    the instance count of one copy."""
    shape_rng, word_rng = streams(seed, name)
    text = RiskText(shape_rng, word_rng)
    labels = _balanced(n, 4, shape_rng)
    counts = text.sentence_counts(n)
    shapes = []
    for i in range(n):
        context = [text.post_shape(int(shape_rng.integers(0, 2)),
                                   int(shape_rng.integers(1, 4)))
                   for _ in range(int(shape_rng.integers(0, 4)))]
        shapes.append((text.post_shape(labels[i], counts[i]), context))
    rows = []
    for c in range(copies):
        for i, (target_shape, context_shapes) in enumerate(shapes):
            context = [_post_row(f"{name}{c}-{i:05d}-c{j}", f"u{(i + j) % 200:03d}", j,
                                 text.render(s))
                       for j, s in enumerate(context_shapes)]
            target = _post_row(f"{name}{c}-{i:05d}", f"u{i % 200:03d}", 10,
                               text.render(target_shape))
            rows.append(_instance_row(target, context, labels[i]))
    _write_ndjson(path, rows)
    return n


# ---------------------------------------------------------------------------
# Depression users

class ZipfText:
    """Posts whose words follow Zipf's law (exponent 1) over a 120k-word
    lexicon. Lengths are lognormal (median 30 words) with 4% one- or
    two-word posts, so posts above the n_term cap and posts shorter than the
    conv window both occur. Diagnosed users plant one of two 3-word signal
    phrases in a post with probability ``signal_rate``.

    A post shape is (length, signal position or -1, signal phrase). Which
    lexicon rank fills each word position is drawn from the shape stream too;
    the seed spells the ranks, as a permutation of the lexicon's words. So
    every word has the same count under every seed, and the vocabulary, which
    orders words by count, gives the signal words the same ids: their
    embedding rows start from the same weights and training takes the same
    course. The seed changes the words' spellings and the order of words
    that tie on count."""

    LEXICON = 120_000
    MEDIAN_WORDS = 30
    SIGMA = 0.9
    SHORT_SHARE = 0.04
    MAX_WORDS = 400
    SIGNAL_PHRASES = ("sig0 sig1 sig2", "sig3 sig4 sig5")

    def __init__(self, shape_rng: np.random.Generator, word_rng: np.random.Generator,
                 signal_rate: float):
        self.shape_rng = shape_rng
        self.word_rng = word_rng
        self.signal_rate = signal_rate
        weights = 1.0 / np.arange(1, self.LEXICON + 1)
        self.cdf = np.cumsum(weights) / weights.sum()
        self.words = [f"w{r}" for r in word_rng.permutation(self.LEXICON).tolist()]

    def post_shapes(self, n: int, diagnosed: bool) -> list[tuple[int, int, int]]:
        rng = self.shape_rng
        lengths = np.exp(rng.normal(math.log(self.MEDIAN_WORDS), self.SIGMA, size=n))
        lengths = np.clip(lengths.astype(int), 3, self.MAX_WORDS)
        short = rng.random(n) < self.SHORT_SHARE
        lengths[short] = rng.integers(1, 3, size=int(short.sum()))
        shapes = []
        for length in lengths.tolist():
            at, phrase = -1, 0
            if diagnosed and rng.random() < self.signal_rate:
                at, phrase = int(rng.integers(0, length + 1)), int(rng.integers(0, 2))
            shapes.append((length, at, phrase))
        return shapes

    def render(self, shapes: list[tuple[int, int, int]]) -> list[str]:
        total = sum(length for length, _, _ in shapes)
        ids = np.searchsorted(self.cdf, self.shape_rng.random(total)).tolist()
        texts, start = [], 0
        for length, at, phrase in shapes:
            words = [self.words[i] for i in ids[start:start + length]]
            start += length
            if at >= 0:
                words.insert(at, self.SIGNAL_PHRASES[phrase])
            texts.append(" ".join(words))
        return texts


def user_split(prefix: Path, seed: int, name: str, signal_rate: float,
               post_counts: list[int], diagnosed: list[bool], copies: int = 1) -> None:
    """Write <prefix>.posts.ndjson and <prefix>.labels.ndjson: ``copies``
    renderings of one shape of users, copy by copy."""
    shape_rng, word_rng = streams(seed, name)
    text = ZipfText(shape_rng, word_rng, signal_rate)
    shapes = [text.post_shapes(n, d) for n, d in zip(post_counts, diagnosed)]
    posts, labels = [], []
    for c in range(copies):
        for u, (user_shape, is_diag) in enumerate(zip(shapes, diagnosed)):
            uid = f"{name}{c}-{u:04d}"
            for k, body in enumerate(text.render(user_shape)):
                posts.append(_post_row(f"{uid}-{k:04d}", uid, k, body))
            row = {"user_id": uid, "label": "diagnosed" if is_diag else "control"}
            if is_diag:
                row["diagnosis_post_id"] = f"{uid}-0000"
            labels.append(row)
    _write_ndjson(Path(f"{prefix}.posts.ndjson"), posts)
    _write_ndjson(Path(f"{prefix}.labels.ndjson"), labels)


def lognormal_schedule(n: int, median: float, sigma: float, lo: int, hi: int,
                       rng: np.random.Generator) -> list[int]:
    """n post counts at evenly spaced lognormal quantiles, in seeded order."""
    z = [NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)]
    counts = [min(hi, max(lo, int(round(median * math.exp(sigma * q))))) for q in z]
    return [counts[i] for i in rng.permutation(n)]
