"""Control-matched dataset construction for user-level depression modelling.

The pipeline finds users whose own posts state a depression diagnosis
(high-precision phrase patterns with negation/hypothetical/quotation guards),
filters them and a pool of candidate control users, removes mental-health
content from diagnosed users' histories, and greedily pairs every diagnosed
user with the control users whose community posting profile is closest in
Hellinger distance. All steps are deterministic: the same inputs always
produce byte-identical output files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import (
    CONTROL,
    DIAGNOSED,
    CorpusFormatError,
    UserRecord,
    _iter_ndjson,
    load_users,
    token_spans,
    word_tokens,
    write_labels,
    write_posts,
)

# Editable defaults; real deployments are expected to supply curated lists
# through the config file.
DEFAULT_DIAGNOSIS_PATTERNS = (
    "diagnosed with depression",
    "diagnosed with clinical depression",
    "diagnosed with major depression",
    "diagnosed with major depressive disorder",
    "diagnosed with mdd",
    "diagnosed me with depression",
    "diagnosis of depression",
)

DEFAULT_NEGATION_CUES = (
    "not", "never", "no", "none", "nothing", "nobody", "without",
    "isn't", "wasn't", "aren't", "weren't", "don't", "doesn't", "didn't",
    "haven't", "hasn't", "hadn't", "can't", "couldn't", "wouldn't", "shouldn't",
)

DEFAULT_HYPOTHETICAL_CUES = (
    "if", "unless", "wish", "wished", "wishing", "imagine", "imagined",
    "suppose", "supposing", "pretend", "pretending", "hypothetically",
    "maybe", "perhaps", "might", "would", "could", "probably", "wonder",
    "wondering", "worried",
)

DEFAULT_MH_COMMUNITIES = frozenset({
    "adhd", "anxiety", "bipolar", "bipolarreddit", "bpd", "cptsd", "depressed",
    "depression", "eatingdisorders", "getting_over_it", "mentalhealth",
    "mentalillness", "ocd", "psychiatry", "psychotherapy", "ptsd", "sad",
    "schizophrenia", "selfharm", "socialanxiety", "stopselfharm",
    "suicidewatch", "therapy", "traumatoolbox",
})

DEFAULT_MH_TERMS = frozenset({
    "adhd", "antidepressant", "antidepressants", "anxiety", "anxious",
    "bipolar", "counseling", "counselling", "depressed", "depression",
    "diagnosed", "diagnosis", "dysthymia", "mania", "manic", "ocd", "panic",
    "prozac", "psychiatric", "psychiatrist", "psychotherapy", "ptsd",
    "schizophrenia", "selfharm", "ssri", "suicidal", "suicide", "therapist",
    "therapy", "zoloft",
})

QUOTE_CHARS = '"“”'


@dataclass(frozen=True)
class DiagnosisPattern:
    """Literal diagnosis phrases plus the guards that reject false positives.

    A phrase match is discarded when a negation or hypothetical cue occurs
    within `window` tokens before it, or when it sits inside double quotation
    marks (odd number of quote characters before the match).
    """

    patterns: tuple[str, ...] = DEFAULT_DIAGNOSIS_PATTERNS
    negation_cues: tuple[str, ...] = DEFAULT_NEGATION_CUES
    hypothetical_cues: tuple[str, ...] = DEFAULT_HYPOTHETICAL_CUES
    quote_chars: str = QUOTE_CHARS
    window: int = 5

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("at least one diagnosis pattern is required")
        for pat in self.patterns:
            if pat != pat.lower():
                raise ValueError(f"pattern must be lowercase: {pat!r}")
            if not word_tokens(pat):
                raise ValueError(f"pattern has no word tokens: {pat!r}")
        pattern_tokens = {tok for pat in self.patterns for tok in word_tokens(pat)}
        for cue in self.negation_cues + self.hypothetical_cues:
            if any(tok in pattern_tokens for tok in word_tokens(cue)):
                raise ValueError(f"cue {cue!r} overlaps the pattern vocabulary")

    def cue_token_seqs(self) -> list[tuple[str, ...]]:
        return [tuple(word_tokens(c))
                for c in self.negation_cues + self.hypothetical_cues]


def _contains_seq(haystack: Sequence[str], needle: Sequence[str]) -> bool:
    n = len(needle)
    if n == 0 or n > len(haystack):
        return False
    return any(tuple(haystack[i:i + n]) == tuple(needle)
               for i in range(len(haystack) - n + 1))


def find_pattern_span(text: str, pat: DiagnosisPattern) -> tuple[int, int] | None:
    """Earliest accepted pattern occurrence in `text` as a token-index span.

    Occurrences preceded by a negation/hypothetical cue within the window,
    or lying inside quotation marks, are skipped; a later clean occurrence
    still counts.
    """
    spans = token_spans(text)
    tokens = [tok for tok, _ in spans]
    pattern_seqs = [tuple(word_tokens(p)) for p in pat.patterns]
    cue_seqs = pat.cue_token_seqs()
    for i in range(len(tokens)):
        for seq in pattern_seqs:
            if tuple(tokens[i:i + len(seq)]) != seq:
                continue
            window = tokens[max(0, i - pat.window):i]
            if any(_contains_seq(window, cue) for cue in cue_seqs):
                continue
            quotes_before = sum(text.count(ch, 0, spans[i][1])
                                for ch in pat.quote_chars)
            if quotes_before % 2 == 1:
                continue
            return (i, i + len(seq))
    return None


def find_diagnosis_post(user: UserRecord,
                        pat: DiagnosisPattern) -> tuple[str, tuple[int, int]] | None:
    """(post_id, token span) of the user's earliest accepted diagnosis claim."""
    for post in user.posts:
        span = find_pattern_span(post.text, pat)
        if span is not None:
            return post.post_id, span
    return None


def apply_annotations(candidates: Mapping[str, str],
                      annotation_path: str | Path,
                      min_positive: int = 2) -> dict[str, str]:
    """Keep candidates whose diagnosis post has enough positive votes.

    `candidates` maps user_id to diagnosis post_id. The annotation file is
    line-delimited JSON rows {"post_id": ..., "votes": [true, false, ...]}.
    Candidates whose post has no annotation row are dropped.
    """
    annotation_path = Path(annotation_path)
    votes: dict[str, int] = {}
    for lineno, row in _iter_ndjson(annotation_path):
        try:
            post_id = str(row["post_id"])
            raw = row["votes"]
            if not isinstance(raw, list) or any(not isinstance(v, bool) for v in raw):
                raise TypeError("votes must be a list of booleans")
        except (KeyError, TypeError) as exc:
            raise CorpusFormatError(
                f"{annotation_path}:{lineno}: bad annotation row: {exc}") from None
        votes[post_id] = sum(1 for v in raw if v)
    return {uid: pid for uid, pid in candidates.items()
            if votes.get(pid, 0) >= min_positive}


def eligible_diagnosed(user: UserRecord, diagnosis_post_id: str,
                       min_prior_posts: int = 100) -> bool:
    """True when the user has enough posts from before the diagnosis post."""
    by_id = {p.post_id: p for p in user.posts}
    diagnosis = by_id[diagnosis_post_id]
    prior = sum(1 for p in user.posts if p.timestamp < diagnosis.timestamp)
    return prior >= min_prior_posts


def _offending(post, mh_communities: frozenset[str], mh_terms: frozenset[str]) -> bool:
    if post.community.lower() in mh_communities:
        return True
    return any(tok in mh_terms for tok in word_tokens(post.text))


def eligible_control(user: UserRecord, mh_communities: frozenset[str],
                     mh_terms: frozenset[str]) -> bool:
    """True when no post is in a mental-health community or mentions a term."""
    return not any(_offending(p, mh_communities, mh_terms) for p in user.posts)


def scrub_diagnosed_posts(user: UserRecord, mh_communities: frozenset[str],
                          mh_terms: frozenset[str]) -> UserRecord:
    """Drop the diagnosis post and every mental-health post from a diagnosed user.

    Idempotent; may return a user with no posts left (callers must exclude
    those downstream).
    """
    if user.label != DIAGNOSED:
        raise ValueError("scrubbing applies to diagnosed users only")
    kept = tuple(p for p in user.posts
                 if p.post_id != user.diagnosis_post_id
                 and not _offending(p, mh_communities, mh_terms))
    return UserRecord(user.user_id, kept, DIAGNOSED, user.diagnosis_post_id)


@dataclass(frozen=True)
class SubredditDistribution:
    """Per-community posting probabilities for one user."""

    probs: Mapping[str, float]

    def __post_init__(self):
        if not self.probs:
            raise ValueError("distribution needs a non-empty support")
        if any(p < 0 for p in self.probs.values()):
            raise ValueError("probabilities must be non-negative")
        total = sum(self.probs.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "probs", dict(self.probs))


def subreddit_distribution(user: UserRecord,
                           ignore_mh_for_diagnosed: bool = False,
                           mh_communities: frozenset[str] = DEFAULT_MH_COMMUNITIES,
                           ) -> SubredditDistribution:
    """Empirical distribution of the user's posts over communities.

    With the flag set, a diagnosed user's posts to mental-health communities
    do not count.
    """
    skip_mh = ignore_mh_for_diagnosed and user.label == DIAGNOSED
    counts: dict[str, int] = {}
    for post in user.posts:
        community = post.community.lower()
        if skip_mh and community in mh_communities:
            continue
        counts[community] = counts.get(community, 0) + 1
    total = sum(counts.values())
    if total == 0:
        raise ValueError(f"user {user.user_id} has no counted posts")
    return SubredditDistribution({c: n / total for c, n in sorted(counts.items())})


def hellinger(p: SubredditDistribution, q: SubredditDistribution) -> float:
    """Hellinger distance in [0, 1]: 0 iff equal, 1 iff disjoint supports."""
    total = 0.0
    for community in sorted(p.probs.keys() | q.probs.keys()):
        diff = math.sqrt(p.probs.get(community, 0.0)) - math.sqrt(q.probs.get(community, 0.0))
        total += diff * diff
    return min(1.0, math.sqrt(total / 2.0))


@dataclass(frozen=True)
class MatchCandidate:
    """Precomputed matching inputs for one user."""

    user_id: str
    n_posts: int
    distribution: SubredditDistribution


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching output: diagnosed user_id -> ((control id, distance), ...)."""

    matches: Mapping[str, tuple[tuple[str, float], ...]]
    k: int

    def __post_init__(self):
        seen: set[str] = set()
        for uid, pairs in self.matches.items():
            distances = [d for _, d in pairs]
            if distances != sorted(distances):
                raise ValueError(f"distances for {uid} are not ascending")
            for control_id, _ in pairs:
                if control_id in seen:
                    raise ValueError(f"control {control_id} matched twice")
                seen.add(control_id)
        object.__setattr__(self, "matches", dict(self.matches))

    def short_matches(self) -> dict[str, int]:
        """Diagnosed users that received fewer than k controls."""
        return {uid: len(pairs) for uid, pairs in self.matches.items()
                if len(pairs) < self.k}


def greedy_match(diagnosed: Sequence[MatchCandidate],
                 pool: Sequence[MatchCandidate],
                 k: int = 12,
                 tol: float = 0.10) -> MatchResult:
    """Assign each diagnosed user the k closest unmatched controls.

    Processing follows the input order of `diagnosed`. A control is eligible
    when its post count lies within ±tol of the diagnosed user's (inclusive);
    each control is used at most once. Ties in distance break on the control
    user id.
    """
    remaining: dict[str, MatchCandidate] = {c.user_id: c for c in pool}
    if len(remaining) != len(pool):
        raise ValueError("duplicate control user ids in pool")
    matches: dict[str, tuple[tuple[str, float], ...]] = {}
    for diag in diagnosed:
        low = (1.0 - tol) * diag.n_posts
        high = (1.0 + tol) * diag.n_posts
        scored = sorted(
            ((hellinger(diag.distribution, c.distribution), c.user_id)
             for c in remaining.values() if low <= c.n_posts <= high))
        chosen = scored[:k]
        for _, control_id in chosen:
            del remaining[control_id]
        matches[diag.user_id] = tuple((uid, dist) for dist, uid in chosen)
    return MatchResult(matches, k)


# ---------------------------------------------------------------------------
# End-to-end pipeline

SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class BuildConfig:
    pattern: DiagnosisPattern = DiagnosisPattern()
    mh_communities: frozenset[str] = DEFAULT_MH_COMMUNITIES
    mh_terms: frozenset[str] = DEFAULT_MH_TERMS
    k: int = 12
    tol: float = 0.10
    min_prior_posts: int = 100
    min_positive_votes: int = 2


@dataclass
class BuildReport:
    n_users: int = 0
    n_candidates: int = 0
    n_confirmed: int = 0
    n_diagnosed: int = 0
    n_control_pool: int = 0
    n_matched_controls: int = 0
    n_scrubbed_empty: int = 0
    short_matches: dict[str, int] = field(default_factory=dict)
    distance_histogram: list[int] = field(default_factory=lambda: [0] * 10)
    split_sizes: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            "matched dataset build report",
            "============================",
            f"users in corpus:            {self.n_users}",
            f"diagnosis pattern matches:  {self.n_candidates}",
            f"annotation-confirmed:       {self.n_confirmed}",
            f"diagnosed users kept:       {self.n_diagnosed}",
            f"control pool size:          {self.n_control_pool}",
            f"controls matched:           {self.n_matched_controls}",
            f"scrubbed to empty:          {self.n_scrubbed_empty}",
            f"under-matched users:        {len(self.short_matches)}",
            "",
            "match distance histogram (bins of 0.1):",
        ]
        peak = max(self.distance_histogram) or 1
        for i, count in enumerate(self.distance_histogram):
            bar = "#" * round(40 * count / peak)
            lines.append(f"  [{i / 10:.1f}, {(i + 1) / 10:.1f}) {count:6d} {bar}")
        lines.append("")
        for split in SPLITS:
            sizes = self.split_sizes.get(split, {})
            lines.append(f"{split}: {sizes.get('diagnosed', 0)} diagnosed, "
                         f"{sizes.get('control', 0)} control users")
        return "\n".join(lines) + "\n"


def build_dataset(posts_path: str | Path, out_dir: str | Path,
                  annotations_path: str | Path | None = None,
                  config: BuildConfig = BuildConfig()) -> BuildReport:
    """Run the full construction pipeline and write split files plus a report.

    Outputs in `out_dir`: {split}.posts.ndjson and {split}.labels.ndjson for
    train/validation/test, plus report.txt and report.json. Diagnosed users
    are assigned to splits round-robin in ascending user id order, and their
    matched controls travel with them.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    users = load_users(posts_path)
    report = BuildReport(n_users=len(users))

    candidates: dict[str, tuple[str, tuple[int, int]]] = {}
    for uid in sorted(users):
        hit = find_diagnosis_post(users[uid], config.pattern)
        if hit is not None:
            candidates[uid] = hit
    report.n_candidates = len(candidates)

    confirmed = {uid: post_id for uid, (post_id, _) in candidates.items()}
    if annotations_path is not None:
        confirmed = apply_annotations(confirmed, annotations_path,
                                      config.min_positive_votes)
    report.n_confirmed = len(confirmed)

    # Control pool: users with no pattern match that pass the content filters.
    pool_users = {uid: u for uid, u in users.items()
                  if uid not in candidates
                  and eligible_control(u, config.mh_communities, config.mh_terms)}
    report.n_control_pool = len(pool_users)

    # Diagnosed users: enough history before the diagnosis, non-empty after
    # scrubbing. The match post count and community distribution both come
    # from the unscrubbed record (distribution skips mental-health communities).
    diagnosed_users: dict[str, UserRecord] = {}
    scrubbed: dict[str, UserRecord] = {}
    for uid in sorted(confirmed):
        post_id = confirmed[uid]
        record = UserRecord(uid, users[uid].posts, DIAGNOSED, post_id)
        if not eligible_diagnosed(record, post_id, config.min_prior_posts):
            continue
        clean = scrub_diagnosed_posts(record, config.mh_communities, config.mh_terms)
        if not clean.posts:
            report.n_scrubbed_empty += 1
            continue
        diagnosed_users[uid] = record
        scrubbed[uid] = clean
    report.n_diagnosed = len(diagnosed_users)

    diag_candidates = [
        MatchCandidate(uid, len(u.posts),
                       subreddit_distribution(u, ignore_mh_for_diagnosed=True,
                                              mh_communities=config.mh_communities))
        for uid, u in sorted(diagnosed_users.items())]
    pool_candidates = [
        MatchCandidate(uid, len(u.posts), subreddit_distribution(u))
        for uid, u in sorted(pool_users.items())]

    result = greedy_match(diag_candidates, pool_candidates, config.k, config.tol)
    report.short_matches = result.short_matches()
    report.n_matched_controls = sum(len(v) for v in result.matches.values())
    for pairs in result.matches.values():
        for _, dist in pairs:
            report.distance_histogram[min(9, int(dist * 10))] += 1

    # Round-robin split assignment over diagnosed users in ascending id order.
    assignment: dict[str, list[str]] = {s: [] for s in SPLITS}
    for i, uid in enumerate(sorted(diagnosed_users)):
        assignment[SPLITS[i % len(SPLITS)]].append(uid)

    for split in SPLITS:
        split_records: list[UserRecord] = []
        for uid in assignment[split]:
            split_records.append(scrubbed[uid])
            for control_id, _ in result.matches[uid]:
                split_records.append(pool_users[control_id])
        split_records.sort(key=lambda u: u.user_id)
        write_posts(out_dir / f"{split}.posts.ndjson",
                    (p for u in split_records for p in u.posts))
        write_labels(out_dir / f"{split}.labels.ndjson", split_records)
        report.split_sizes[split] = {
            "diagnosed": sum(1 for u in split_records if u.label == DIAGNOSED),
            "control": sum(1 for u in split_records if u.label == CONTROL),
        }

    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (out_dir / "report.json").write_text(
        json.dumps(asdict(report), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return report
