import hashlib
import json
import math

import numpy as np
import pytest

from triagekit.corpus import (
    CONTROL,
    DIAGNOSED,
    CorpusFormatError,
    Post,
    UserRecord,
    word_tokens,
)
from triagekit.databuild import (
    DIAGNOSIS_PATTERNS,
    HYPOTHETICAL_CUES,
    NEGATION_CUES,
    BuildConfig,
    MatchCandidate,
    MatchResult,
    SubredditDistribution,
    apply_annotations,
    build_dataset,
    eligible_control,
    eligible_diagnosed,
    find_diagnosis_post,
    find_pattern_span,
    greedy_match,
    hellinger,
    scrub_diagnosed_posts,
    subreddit_distribution,
)


def make_post(pid, uid, community="games", ts=0, text="hello world"):
    return Post(pid, uid, community, ts, text)


def make_user(uid, texts, label=CONTROL, diag=None, community="games"):
    posts = tuple(make_post(f"{uid}-p{i}", uid, community, i, t)
                  for i, t in enumerate(texts))
    return UserRecord(uid, posts, label, diag)


# -- diagnosis pattern matching ----------------------------------------------

def test_plain_claim_matches():
    assert find_pattern_span("I was just diagnosed with depression.") is not None


def test_hypothetical_claim_rejected():
    assert find_pattern_span("if I was diagnosed with depression") is None


def test_negated_claim_rejected():
    assert find_pattern_span("it's not like I've been diagnosed with depression") is None


def test_quoted_claim_rejected():
    assert find_pattern_span('she told me "I was diagnosed with depression"') is None
    # after the closing quote the quote count is even again
    assert find_pattern_span('she said "hello". I was diagnosed with depression.') is not None


def test_cue_window_is_five_tokens():
    blocked = "if a b c d diagnosed with depression"        # cue 5 back
    clear = "if a b c d e diagnosed with depression"        # cue 6 back
    assert find_pattern_span(blocked) is None
    assert find_pattern_span(clear) is not None


def test_span_is_token_range():
    span = find_pattern_span("I was just diagnosed with depression.")
    assert span == (3, 6)


def test_blocked_then_clean_occurrence_matches():
    text = ("if I was diagnosed with depression I would know. "
            "Well, yesterday I actually was diagnosed with depression.")
    span = find_pattern_span(text)
    assert span is not None and span[0] > 3


def test_earliest_post_wins():
    user = make_user("u1", ["nothing here",
                            "doctor diagnosed me with depression",
                            "again: diagnosed with depression"],
                     DIAGNOSED, "u1-p1")
    hit = find_diagnosis_post(user)
    assert hit is not None and hit[0] == "u1-p1"


def test_no_match_returns_none():
    user = make_user("u2", ["a fine day", "no complaints"])
    assert find_diagnosis_post(user) is None


def test_curated_lists_hold_their_conditions():
    # Patterns are lowercase and non-empty, and no cue shares a word with a
    # pattern (a cue inside a claim would block the claim itself).
    assert DIAGNOSIS_PATTERNS
    for pat in DIAGNOSIS_PATTERNS:
        assert pat == pat.lower() and word_tokens(pat), pat
    pattern_words = {tok for pat in DIAGNOSIS_PATTERNS for tok in word_tokens(pat)}
    for cue in NEGATION_CUES + HYPOTHETICAL_CUES:
        assert word_tokens(cue) and not pattern_words & set(word_tokens(cue)), cue


# -- annotations ---------------------------------------------------------------

def write_votes(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_annotation_threshold(tmp_path):
    path = tmp_path / "votes.ndjson"
    write_votes(path, [
        {"post_id": "a", "votes": [True, True, False]},
        {"post_id": "b", "votes": [True, False, False]},
        {"post_id": "c", "votes": []},
    ])
    kept = apply_annotations({"u1": "a", "u2": "b", "u3": "c", "u4": "d"}, path, 2)
    assert kept == {"u1": "a"}


def test_annotation_bad_row_reports_line(tmp_path):
    path = tmp_path / "votes.ndjson"
    write_votes(path, [
        {"post_id": "a", "votes": [True, True]},
        {"post_id": "b", "votes": [1, 0]},
    ])
    with pytest.raises(CorpusFormatError, match=":2"):
        apply_annotations({"u1": "a"}, path, 2)


# -- eligibility and scrubbing -------------------------------------------------

def user_with_priors(n_prior):
    posts = [make_post(f"p{i}", "u", "games", i, "ok") for i in range(n_prior)]
    posts.append(make_post("diag", "u", "games", 10_000, "diagnosed with depression"))
    return UserRecord("u", tuple(posts), DIAGNOSED, "diag")


def test_prior_post_threshold():
    assert eligible_diagnosed(user_with_priors(100), "diag", 100)
    assert not eligible_diagnosed(user_with_priors(99), "diag", 100)
    assert not eligible_diagnosed(user_with_priors(0), "diag", 100)


def test_control_eligibility():
    in_comm = make_user("c1", ["fine"], community="depression")
    term = make_user("c2", ["I feel depressed today"])
    clean = make_user("c3", ["what a game"])
    assert not eligible_control(in_comm)
    assert not eligible_control(term)
    assert eligible_control(clean)


def test_scrub_removes_offending_and_diagnosis():
    posts = [make_post(f"m{i}", "u", "depression", i, "ok") for i in range(3)]
    posts += [make_post(f"g{i}", "u", "games", 10 + i, "fun") for i in range(6)]
    posts.append(make_post("diag", "u", "games", 99, "diagnosed with depression"))
    user = UserRecord("u", tuple(posts), DIAGNOSED, "diag")
    clean = scrub_diagnosed_posts(user)
    assert len(clean.posts) == 6
    assert all(p.community == "games" and p.post_id != "diag" for p in clean.posts)


def test_scrub_idempotent():
    rng = np.random.default_rng(11)
    comms = ["games", "news", "depression", "anxiety"]
    texts = ["fine day", "feeling depressed", "diagnosed with depression", "gg"]
    for trial in range(20):
        n = int(rng.integers(2, 12))
        posts = [make_post(f"p{trial}-{i}", "u", comms[rng.integers(0, 4)],
                           i, texts[rng.integers(0, 4)]) for i in range(n)]
        posts.append(make_post(f"diag{trial}", "u", "games", 999,
                               "diagnosed with depression"))
        user = UserRecord("u", tuple(posts), DIAGNOSED, f"diag{trial}")
        once = scrub_diagnosed_posts(user)
        twice = scrub_diagnosed_posts(once)
        assert once == twice


def test_scrub_requires_diagnosed():
    with pytest.raises(ValueError):
        scrub_diagnosed_posts(make_user("c", ["hey"]))


# -- distributions and distance -------------------------------------------------

def test_subreddit_distribution_counts():
    posts = [make_post(f"a{i}", "u", "aww", i) for i in range(3)]
    posts.append(make_post("b0", "u", "news", 9))
    user = UserRecord("u", tuple(posts))
    dist = subreddit_distribution(user)
    assert dist.probs == {"aww": 0.75, "news": 0.25}


def test_subreddit_distribution_single():
    user = make_user("u", ["x", "y"], community="aww")
    assert subreddit_distribution(user).probs == {"aww": 1.0}


def test_subreddit_distribution_ignores_mh_for_diagnosed():
    posts = [make_post(f"m{i}", "u", "depression", i, "ok") for i in range(2)]
    posts += [make_post(f"a{i}", "u", "aww", 10 + i, "ok") for i in range(2)]
    dist = subreddit_distribution(UserRecord("u", tuple(posts), DIAGNOSED, "m0"))
    assert dist.probs == {"aww": 1.0}
    both = subreddit_distribution(UserRecord("u", tuple(posts)))
    assert both.probs == {"aww": 0.5, "depression": 0.5}


def test_subreddit_distribution_empty_errors():
    user = UserRecord("u", (make_post("m0", "u", "depression", 0, "x"),),
                      DIAGNOSED, "m0")
    with pytest.raises(ValueError, match="no counted posts"):
        subreddit_distribution(user)


def test_distribution_validation():
    with pytest.raises(ValueError):
        SubredditDistribution({})
    with pytest.raises(ValueError):
        SubredditDistribution({"a": -0.5, "b": 1.5})
    with pytest.raises(ValueError):
        SubredditDistribution({"a": 0.7})


def rand_dist(rng, names=("a", "b", "c", "d", "e", "f")):
    n = int(rng.integers(1, len(names) + 1))
    chosen = rng.choice(len(names), size=n, replace=False)
    counts = rng.integers(1, 20, size=n)
    total = int(counts.sum())
    return SubredditDistribution({names[c]: int(k) / total
                                  for c, k in zip(chosen, counts)})


def test_hellinger_identity_and_disjoint():
    p = SubredditDistribution({"a": 0.25, "b": 0.75})
    assert hellinger(p, p) == 0.0
    q = SubredditDistribution({"c": 0.5, "d": 0.5})
    assert hellinger(p, q) == pytest.approx(1.0, abs=1e-12)


def test_hellinger_half_split_value():
    p = SubredditDistribution({"a": 1.0})
    q = SubredditDistribution({"a": 0.5, "b": 0.5})
    expected = math.sqrt(1.0 - math.sqrt(0.5))
    assert hellinger(p, q) == pytest.approx(expected, abs=1e-12)
    assert hellinger(p, q) == pytest.approx(0.541196, abs=1e-6)


def test_hellinger_symmetry_range_triangle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p, q, r = rand_dist(rng), rand_dist(rng), rand_dist(rng)
        d_pq = hellinger(p, q)
        assert abs(d_pq - hellinger(q, p)) <= 1e-12
        assert 0.0 <= d_pq <= 1.0
        assert d_pq <= hellinger(p, r) + hellinger(r, q) + 1e-12


# -- greedy matching -------------------------------------------------------------

def cand(uid, n_posts, probs):
    return MatchCandidate(uid, n_posts, SubredditDistribution(probs))


def oracle_hellinger(p, q):
    # Bhattacharyya-coefficient form: H^2 = 1 - sum sqrt(p*q).
    keys = sorted(p.probs.keys() | q.probs.keys(), reverse=True)
    bc = sum(math.sqrt(p.probs.get(c, 0.0) * q.probs.get(c, 0.0)) for c in keys)
    return math.sqrt(max(0.0, 1.0 - min(1.0, bc)))


def oracle_match(diagnosed, pool, k, tol):
    """Exhaustive re-derivation: explicit scan, repeated minimum extraction."""
    available = list(pool)
    result = {}
    for diag in diagnosed:
        eligible = [c for c in available
                    if (1 - tol) * diag.n_posts <= c.n_posts <= (1 + tol) * diag.n_posts]
        chosen = []
        while eligible and len(chosen) < k:
            best = None
            for c in eligible:
                key = (oracle_hellinger(diag.distribution, c.distribution), c.user_id)
                if best is None or key < best[0]:
                    best = (key, c)
            chosen.append((best[1].user_id, best[0][0]))
            eligible.remove(best[1])
            available.remove(best[1])
        result[diag.user_id] = tuple(chosen)
    return result


def test_match_shortage_is_flagged():
    diag = [cand("d1", 10, {"a": 1.0})]
    pool = [cand(f"c{i}", 10, {"a": 1.0}) for i in range(3)]
    res = greedy_match(diag, pool, k=12, tol=0.10)
    assert len(res.matches["d1"]) == 3
    assert res.short_matches() == {"d1": 3}


def test_match_post_count_window():
    diag = [cand("d1", 10, {"a": 1.0})]
    pool = [cand("in-low", 9, {"a": 1.0}),
            cand("in-high", 11, {"a": 1.0}),
            cand("out", 12, {"a": 1.0})]
    res = greedy_match(diag, pool, k=12, tol=0.10)
    assert [c for c, _ in res.matches["d1"]] == ["in-high", "in-low"]


def test_match_without_replacement_and_tiebreak():
    # both diagnosed users prefer the same controls; ties break on control id
    diag = [cand("d1", 10, {"a": 1.0}), cand("d2", 10, {"a": 1.0})]
    pool = [cand("c2", 10, {"a": 1.0}), cand("c1", 10, {"a": 1.0}),
            cand("c3", 10, {"a": 0.5, "b": 0.5})]
    res = greedy_match(diag, pool, k=1, tol=0.10)
    assert res.matches["d1"] == (("c1", 0.0),)
    assert [c for c, _ in res.matches["d2"]] == ["c2"]


def test_match_result_validation():
    with pytest.raises(ValueError, match="ascending"):
        MatchResult({"d": (("c1", 0.5), ("c2", 0.1))}, k=2)
    with pytest.raises(ValueError, match="twice"):
        MatchResult({"d": (("c1", 0.1),), "e": (("c1", 0.1),)}, k=1)


def rand_instance(rng, n_diag, n_pool, max_posts=40):
    diagnosed = [MatchCandidate(f"d{i:02d}", int(rng.integers(5, max_posts)),
                                rand_dist(rng)) for i in range(n_diag)]
    pool = [MatchCandidate(f"c{i:03d}", int(rng.integers(5, max_posts)),
                           rand_dist(rng)) for i in range(n_pool)]
    return diagnosed, pool


def test_small_instance_equals_oracle():
    rng = np.random.default_rng(31)
    diagnosed, pool = rand_instance(rng, 5, 30)
    res = greedy_match(diagnosed, pool, k=2, tol=0.10)
    expected = oracle_match(diagnosed, pool, k=2, tol=0.10)
    assert set(res.matches) == set(expected)
    for uid in expected:
        assert [c for c, _ in res.matches[uid]] == [c for c, _ in expected[uid]]
        for (_, d1), (_, d2) in zip(res.matches[uid], expected[uid]):
            assert d1 == pytest.approx(d2, abs=1e-9)


def test_random_instances_equal_oracle():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n_diag = int(rng.integers(1, 8))
        n_pool = int(rng.integers(5, 45))
        k = int(rng.integers(1, 4))
        diagnosed, pool = rand_instance(rng, n_diag, n_pool)
        res = greedy_match(diagnosed, pool, k=k, tol=0.10)
        expected = oracle_match(diagnosed, pool, k=k, tol=0.10)
        for uid in expected:
            assert [c for c, _ in res.matches[uid]] == \
                [c for c, _ in expected[uid]], uid


def test_match_invariants_on_random_instances():
    rng = np.random.default_rng(41)
    diagnosed, pool = rand_instance(rng, 8, 60)
    by_id = {c.user_id: c for c in pool}
    res = greedy_match(diagnosed, pool, k=4, tol=0.10)
    seen = set()
    for diag in diagnosed:
        pairs = res.matches[diag.user_id]
        dists = [d for _, d in pairs]
        assert dists == sorted(dists)
        for control_id, dist in pairs:
            assert control_id not in seen
            seen.add(control_id)
            n = by_id[control_id].n_posts
            assert 0.9 * diag.n_posts <= n <= 1.1 * diag.n_posts
            assert dist == hellinger(diag.distribution,
                                     by_id[control_id].distribution)


# -- end-to-end pipeline -----------------------------------------------------------

def build_corpus(tmp_path):
    rows = []

    def add(uid, pid, community, ts, text):
        rows.append({"post_id": pid, "user_id": uid, "community": community,
                     "timestamp": ts, "text": text})

    # six diagnosable users: 3 prior posts, then a diagnosis post
    for i in range(6):
        uid = f"d{i:02d}"
        for j in range(3):
            add(uid, f"{uid}-p{j}", ("games", "news")[j % 2], j, "regular chatter")
        add(uid, f"{uid}-diag", "offtopic", 50, "I was diagnosed with depression.")
    # one candidate that annotations will reject
    add("d99", "d99-p0", "games", 0, "regular chatter")
    add("d99", "d99-p1", "games", 1, "regular chatter")
    add("d99", "d99-p2", "games", 2, "regular chatter")
    add("d99", "d99-diag", "games", 50, "I was diagnosed with depression.")
    # hypothetical mention: not a candidate, and ineligible as control
    add("h00", "h00-p0", "games", 0, "if I was diagnosed with depression")
    # control pool
    for i in range(20):
        uid = f"c{i:02d}"
        for j in range(4):
            add(uid, f"{uid}-p{j}", ("games", "news", "sports")[j % 3], j,
                "regular chatter")
    # ineligible control: posts in a mental-health community
    add("x00", "x00-p0", "depression", 0, "regular chatter")

    posts_path = tmp_path / "posts.ndjson"
    with open(posts_path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")

    votes_path = tmp_path / "votes.ndjson"
    with open(votes_path, "w") as fh:
        for i in range(6):
            fh.write(json.dumps({"post_id": f"d{i:02d}-diag",
                                 "votes": [True, True]}) + "\n")
        fh.write(json.dumps({"post_id": "d99-diag", "votes": [True, False]}) + "\n")
    return posts_path, votes_path


def pipeline_config():
    return BuildConfig(k=2, tolerance=0.5, min_prior_posts=3)


def test_pipeline_end_to_end(tmp_path):
    posts_path, votes_path = build_corpus(tmp_path)
    out = tmp_path / "out"
    report = build_dataset(posts_path, out, votes_path, pipeline_config())

    assert report.n_candidates == 7
    assert report.n_confirmed == 6
    assert report.n_diagnosed == 6
    assert report.n_control_pool == 20
    assert report.n_matched_controls == 12
    assert report.short_matches == {}
    assert sum(report.distance_histogram) == 12
    for split in ("train", "validation", "test"):
        assert report.split_sizes[split] == {"diagnosed": 2, "control": 4}
        assert (out / f"{split}.posts.ndjson").exists()
        assert (out / f"{split}.labels.ndjson").exists()
    assert (out / "report.txt").read_text().startswith("matched dataset build report")

    # diagnosis posts are scrubbed from the output
    for split in ("train", "validation", "test"):
        content = (out / f"{split}.posts.ndjson").read_text()
        assert "-diag" not in content
        assert "depression" not in content
        labels = [json.loads(line)
                  for line in (out / f"{split}.labels.ndjson").read_text().splitlines()]
        diagnosed = [r for r in labels if r["label"] == DIAGNOSED]
        assert len(diagnosed) == 2
        assert all("diagnosis_post_id" in r for r in diagnosed)


def test_pipeline_deterministic(tmp_path):
    posts_path, votes_path = build_corpus(tmp_path)

    def digest(out_dir):
        build_dataset(posts_path, out_dir, votes_path, pipeline_config())
        parts = []
        for name in sorted(p.name for p in out_dir.iterdir()):
            parts.append(name)
            parts.append(hashlib.sha256((out_dir / name).read_bytes()).hexdigest())
        return "|".join(parts)

    assert digest(tmp_path / "out1") == digest(tmp_path / "out2")
