"""Tests for selection, balancing, metrics, training loops, and synthetic data."""

import gc
import json
import hashlib
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from triagekit.corpus import (
    CONTROL,
    DIAGNOSED,
    Post,
    RiskLabel,
    ThreadInstance,
    TokenizedUser,
    UserRecord,
    Vocabulary,
    load_users,
    read_labels,
    read_posts,
    read_threads,
    write_labels,
    write_posts,
    write_threads,
)
from triagekit.models import DepressionModel, DepressionModelConfig, RiskModel, RiskModelConfig
from triagekit.nn import ParamNodes, ParamStore, constant, dense, pick
from triagekit.traineval import (
    SelectionConfig,
    SynthDetectionSpec,
    SynthRiskSpec,
    TrainConfig,
    _epoch_order,
    chosen_posts,
    _train,
    binary_metrics,
    class_weights,
    confusion_matrix,
    derive_seed,
    detection_report,
    mcnemar,
    select_posts,
    stratified_split,
    synth_detection_corpus,
    synth_risk_corpus,
    tokenize,
    tokenize_users,
    train_depression,
    train_risk,
    triage_report,
    write_epoch_log,
)

SIGNAL_IDS = (2, 3, 4)


def make_user(uid, token_lists, label=CONTROL):
    """A tokenized user whose post i, ``<uid>-p<i>`` at time i, has the
    ids ``token_lists[i]``."""
    n = len(token_lists)
    ids = np.array([t for toks in token_lists for t in toks], dtype=np.int32)
    ids.flags.writeable = False
    diag = f"{uid}-p0" if label == DIAGNOSED else None
    return TokenizedUser(uid, label, diag, tuple(f"{uid}-p{i}" for i in range(n)),
                         ("forum",) * n, np.arange(n), ids,
                         np.cumsum([0] + [len(toks) for toks in token_lists]))


def tiny_detection_users(n_pos=8, n_ctl=8, posts_per=4, seed=7):
    """Separable toy task: every positive post carries the signal trigram twice."""
    rng = np.random.default_rng(seed)
    users = []
    for i in range(n_pos):
        lists = []
        for _ in range(posts_per):
            toks = [int(t) for t in rng.integers(5, 40, size=6)]
            toks[3:3] = list(SIGNAL_IDS)
            toks[0:0] = list(SIGNAL_IDS)
            lists.append(toks)
        users.append(make_user(f"pos{i}", lists, DIAGNOSED))
    for i in range(n_ctl):
        lists = [[int(t) for t in rng.integers(5, 40, size=12)]
                 for _ in range(posts_per)]
        users.append(make_user(f"ctl{i}", lists))
    return users


def tiny_detection_model(seed=3, **overrides):
    cfg = dict(vocab_size=40, embed_dim=8, conv_filters=6, merge_window=4,
               merge_stride=4, merge_filters=6, dense_dims=(8,), n_term=16,
               balance="sampled")
    cfg.update(overrides)
    return DepressionModel(DepressionModelConfig(**cfg), seed=seed)


def tiny_risk_data(n_per_class=10, seed=11, d=6, rows=4):
    """Targets whose column means encode the class; contexts are zero."""
    rng = np.random.default_rng(seed)
    data = []
    for y in range(4):
        for _ in range(n_per_class):
            target = rng.normal(0.0, 0.1, size=(rows, d))
            target[:, y] += 1.0
            data.append((target, np.zeros((rows, d)), y))
    return data


def tiny_risk_model(variant, seed=5, balance="sampled"):
    cfg = RiskModelConfig(variant=variant, sentence_dim=6, conv_filters=5,
                          pool_n=2, dense_dims=(10,), dropout=0.0,
                          max_sentences=4, balance=balance)
    return RiskModel(cfg, seed=seed)


# ---------------------------------------------------------------------------
# Seed derivation and post selection

def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(0, "epoch:0") == derive_seed(0, "epoch:0")
    seen = {derive_seed(0, f"epoch:{i}") for i in range(50)}
    seen |= {derive_seed(1, f"epoch:{i}") for i in range(50)}
    assert len(seen) == 100
    assert all(0 <= s < 2 ** 64 for s in seen)


def post_tuples(selection):
    """A `Selection` as one tuple of Python ints per post."""
    ids, lengths = selection
    return [tuple(ids[end - n:end].tolist()) for n, end in zip(lengths, np.cumsum(lengths))]


def test_select_earliest_latest():
    user = make_user("u", [[i] for i in range(5)])
    early = select_posts(user, SelectionConfig("earliest", n_post=2, n_term=5))
    late = select_posts(user, SelectionConfig("latest", n_post=2, n_term=5))
    assert post_tuples(early) == [(0,), (1,)]
    assert post_tuples(late) == [(3,), (4,)]


def test_select_truncates_terms():
    user = make_user("u", [list(range(30))])
    out = select_posts(user, SelectionConfig("earliest", n_post=5, n_term=4))
    assert post_tuples(out) == [(0, 1, 2, 3)]


def test_select_random_is_ordered_subset_and_deterministic():
    user = make_user("u", [[i] for i in range(40)])
    cfg = SelectionConfig("random", n_post=10, n_term=5, seed=3)
    first = post_tuples(select_posts(user, cfg))
    assert first == post_tuples(select_posts(user, cfg))
    assert len(first) == 10
    flat = [toks[0] for toks in first]
    assert flat == sorted(flat)
    assert len(set(flat)) == 10
    other = post_tuples(select_posts(user, SelectionConfig("random", n_post=10, n_term=5,
                                                           seed=4)))
    assert first != other  # overwhelmingly likely across seeds


def test_select_random_small_user_keeps_everything():
    user = make_user("u", [[1], [2], [3]])
    out = select_posts(user, SelectionConfig("random", n_post=10, n_term=5, seed=0))
    assert post_tuples(out) == [(1,), (2,), (3,)]


def test_select_random_differs_across_users():
    cfg = SelectionConfig("random", n_post=5, n_term=5, seed=0)
    picks = set()
    for uid in ("a", "b", "c", "d"):
        user = make_user(uid, [[i] for i in range(30)])
        picks.add(tuple(post_tuples(select_posts(user, cfg))))
    assert len(picks) > 1


def reference_chosen(user, cfg):
    """The posts chosen_posts returned before it chose by index."""
    posts = user.posts
    if cfg.strategy == "earliest":
        return posts[:cfg.n_post]
    if cfg.strategy == "latest":
        return posts[-cfg.n_post:]
    if len(posts) <= cfg.n_post:
        return posts
    rng = np.random.default_rng(derive_seed(cfg.seed, f"select:{user.user_id}"))
    return tuple(posts[i] for i in np.sort(rng.choice(len(posts), size=cfg.n_post,
                                                      replace=False)))


def reference_selection(user, cfg):
    """The token tuples select_posts returned before selections were flat:
    each chosen post's tokens[:n_term]."""
    return [tuple(int(t) for t in p.tokens[:cfg.n_term]) for p in reference_chosen(user, cfg)]


def write_user_texts(path, users):
    """A posts file of {user id: [post text, ...]}, timestamps in post order."""
    write_posts(path, [Post(f"{uid}-p{i:03d}", uid, f"forum{i % 3}", 1_600_000_000 + 60 * i, text)
                       for uid, texts in users.items() for i, text in enumerate(texts)])


def tokenized_users(tmp_path):
    """Tokenized users: one above n_post = 6, posts shorter than the window
    and than n_term = 5, empty posts, and a user with no usable post."""
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(30)]

    def text(n):
        return " ".join(words[int(i)] for i in rng.integers(0, 30, size=n))

    users = {"big": [text(int(n)) for n in rng.integers(0, 12, size=17)],
             "small": [text(7), "", text(2), text(5), "", text(1)],
             "unusable": ["", text(2), "", text(1)],
             "one": [text(9)]}
    write_user_texts(tmp_path / "posts.ndjson", users)
    loaded = load_users(tmp_path / "posts.ndjson")
    vocab = Vocabulary.from_texts((p.text for u in loaded.values() for p in u.posts), min_freq=2)
    return tokenize_users([loaded[uid] for uid in sorted(loaded)], vocab), loaded, vocab


@pytest.mark.parametrize("strategy", ["earliest", "latest", "random"])
def test_flat_selection_equals_per_post_token_slices(tmp_path, strategy):
    users, _, _ = tokenized_users(tmp_path)
    model = tiny_detection_model(vocab_size=40, n_term=5, merge_window=2, merge_stride=2)
    for seed in (0, 1):
        cfg = SelectionConfig(strategy, n_post=6, n_term=5, seed=seed)
        for user in users:
            selection = select_posts(user, cfg)
            expected = reference_selection(user, cfg)
            assert selection.ids.dtype == np.int32
            assert post_tuples(selection) == expected, user.user_id
            assert chosen_posts(user, cfg) == reference_chosen(user, cfg)
            # The model reads the flat selection as it reads the tuples.
            assert np.array_equal(model.classify_user(selection), model.classify_user(expected))
    big = next(u for u in users if u.user_id == "big")
    assert len(big.posts) == 17 and any(len(p.tokens) == 0 for p in big.posts)


def test_selection_of_a_user_without_posts_or_usable_posts(tmp_path):
    users, _, _ = tokenized_users(tmp_path)
    unusable = next(u for u in users if u.user_id == "unusable")
    cfg = SelectionConfig("earliest", n_post=6, n_term=5)
    selection = select_posts(unusable, cfg)
    assert selection.lengths.tolist() == [0, 2, 0, 1] and post_tuples(selection) == \
        reference_selection(unusable, cfg)
    model = tiny_detection_model(vocab_size=40, n_term=5)
    maps = []
    logits, starts, stops = model._forward(selection, ParamNodes(model.params), maps=maps)
    assert maps == [] and (stops == starts).all()
    empty = make_user("none", [])
    assert select_posts(empty, cfg).lengths.size == 0
    with pytest.raises(ValueError, match="user has no usable posts"):
        model.classify_user(select_posts(empty, cfg))


def test_tokenized_post_holds_no_text_and_no_python_int_per_token(tmp_path):
    users, loaded, vocab = tokenized_users(tmp_path)
    for user in users:
        assert isinstance(user, TokenizedUser) and not hasattr(user, "__dict__")  # slotted
        assert user.token_ids.dtype == np.int32 and not user.token_ids.flags.writeable
        assert user.timestamps.dtype == np.int64
        source_posts = loaded[user.user_id].posts
        # The columns keep the loaded strings themselves.
        assert all(a is b.post_id for a, b in zip(user.post_ids, source_posts, strict=True))
        assert all(a is b.community for a, b in zip(user.communities, source_posts, strict=True))
        offsets = user.token_offsets
        for i, (post, source) in enumerate(zip(user.posts, source_posts, strict=True)):
            assert post.text == "" and post == Post(source.post_id, source.user_id,
                                                    source.community, source.timestamp, "")
            assert not hasattr(post, "__dict__")          # slotted
            assert isinstance(post.tokens, np.ndarray) and post.tokens.dtype == np.int32
            assert post.tokens.base is user.token_ids and not post.tokens.flags.writeable
            assert post.tokens.tolist() == tokenize(source.text, vocab)
            assert post.tokens.size == offsets[i + 1] - offsets[i]
        # The arrays take no part in equality or hashing.
        n = len(user.post_ids)
        assert user == TokenizedUser(user.user_id, user.label, user.diagnosis_post_id,
                                     user.post_ids, user.communities, np.zeros(n, np.int64),
                                     np.zeros(0, np.int32), np.zeros(n + 1, np.int64))
        assert len({user, user}) == 1 and len({*user.posts}) == len(user.posts)
    # Posts of one file share their user id and community strings.
    posts = [p for u in loaded.values() for p in u.posts]
    assert len({id(p.community) for p in posts}) == len({p.community for p in posts}) == 3
    assert len({id(p.user_id) for p in posts}) == len(loaded)


def test_tokenized_corpus_holds_at_most_half_the_bytes_per_token(tmp_path):
    # The memory a tokenized corpus holds: read with load_users, tokenized,
    # the loaded users dropped. 2000 posts of 20-60 Zipf words (79,909
    # tokens), vocabulary 2904. Before token ids were compact, the tokenized
    # posts kept their text and a tuple of Python ints each: 24.72 bytes a
    # token; now 12.00.
    rng = np.random.default_rng(27)
    write_user_texts(tmp_path / "posts.ndjson", {
        f"u{u:03d}": [" ".join(f"w{int(w):04d}" for w in
                               rng.zipf(1.3, size=int(rng.integers(20, 61))) % 3000)
                      for _ in range(50)]
        for u in range(40)})
    path = tmp_path / "posts.ndjson"
    vocab = Vocabulary.from_texts((p.text for u in load_users(path).values() for p in u.posts),
                                  min_freq=1)
    gc.collect()
    tracemalloc.start()
    try:
        users = tokenize_users(load_users(path).values(), vocab)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n_tokens = sum(len(p.tokens) for u in users for p in u.posts)
    assert (n_tokens, len(vocab)) == (79909, 2904)
    assert held / n_tokens <= 24.72 / 2


def test_tokenized_corpus_keeps_no_post_and_at_most_7_bytes_a_token(tmp_path):
    # The corpus of the test above. With a Post and a tokens view per post,
    # a tokenized user held 12.00 bytes a token; as columns, about 6.4-6.9.
    rng = np.random.default_rng(27)
    write_user_texts(tmp_path / "posts.ndjson", {
        f"u{u:03d}": [" ".join(f"w{int(w):04d}" for w in
                               rng.zipf(1.3, size=int(rng.integers(20, 61))) % 3000)
                      for _ in range(50)]
        for u in range(40)})
    path = tmp_path / "posts.ndjson"
    vocab = Vocabulary.from_texts((p.text for u in load_users(path).values() for p in u.posts),
                                  min_freq=1)
    gc.collect()
    tracemalloc.start()
    try:
        users = tokenize_users(load_users(path).values(), vocab)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gc.collect()
    ours = {post_id for u in users for post_id in u.post_ids}
    assert not any(isinstance(obj, Post) and obj.post_id in ours for obj in gc.get_objects())
    n_tokens = sum(u.token_ids.size for u in users)
    assert (n_tokens, sum(len(u.post_ids) for u in users)) == (79909, 2000)
    assert held / n_tokens <= 7.0


def test_tokenize_users_names_a_timestamp_beyond_64_bits():
    user = UserRecord("u", (Post("p", "u", "forum", 2 ** 63, "text"),))
    with pytest.raises(ValueError, match="user 'u' has a post timestamp beyond 64 bits"):
        tokenize_users([user], Vocabulary(["text"]))


def test_training_selection_and_scoring_build_no_post(monkeypatch):
    users = tiny_detection_users(n_pos=3, n_ctl=3)

    def no_posts(user):
        raise AssertionError(f"the posts of {user.user_id} were built")

    monkeypatch.setattr(TokenizedUser, "posts", property(no_posts))
    with pytest.raises(AssertionError, match="the posts of pos0 were built"):
        users[0].posts
    cfg = SelectionConfig("random", n_post=3, n_term=16, seed=1)
    model = tiny_detection_model()
    train_depression(model, users, users, cfg, TrainConfig(epochs=1, seed=2))
    for user in users:
        assert model.classify_user(select_posts(user, cfg)).shape == (2,)


@pytest.mark.parametrize("epochs, lr", [(-1, 1e-3), (2, 0.0), (2, -1e-3), (2, float("nan")),
                                        (2, float("inf"))])
def test_train_config_rejects_negative_epochs_and_a_bad_lr(epochs, lr):
    message = "epochs must be at least 0" if epochs < 0 else "lr must be finite and greater than 0"
    with pytest.raises(ValueError, match=message):
        TrainConfig(epochs=epochs, lr=lr)


def test_selection_config_validation():
    with pytest.raises(ValueError, match="strategy"):
        SelectionConfig("middle")
    with pytest.raises(ValueError, match="n_post must be at least 1, got 0"):
        SelectionConfig("earliest", n_post=0)
    with pytest.raises(ValueError, match="n_term must be at least 1, got 0"):
        SelectionConfig("earliest", n_term=0)


# ---------------------------------------------------------------------------
# Balancing

def test_class_weights_example():
    labels = [0] * 90 + [1] * 10
    w = class_weights(labels, 2)
    assert w[0] == pytest.approx(100 / 180)
    assert w[1] == pytest.approx(5.0)
    # each class contributes the same total weight, N/t of it
    assert 90 * w[0] == pytest.approx(10 * w[1])
    assert 90 * w[0] + 10 * w[1] == pytest.approx(100)


def test_class_weights_missing_class_errors():
    with pytest.raises(ValueError, match=r"classes \[2\]"):
        class_weights([0, 1, 0], 3)


def test_balance_weighted_keeps_everything():
    order = _epoch_order([0, 0, 0, 1], "weighted", 2, np.random.default_rng(0))
    assert sorted(order) == [(0, 4 / 6), (1, 4 / 6), (2, 4 / 6), (3, 2.0)]


def test_balance_sampled_draws_min_class_size():
    labels = [0] * 9 + [1] * 3
    order = _epoch_order(labels, "sampled", 2, np.random.default_rng(0))
    assert len(order) == 6
    drawn = [labels[i] for i, _ in order]
    assert drawn.count(0) == 3 and drawn.count(1) == 3
    assert all(w == 1.0 for _, w in order)
    assert len({i for i, _ in order}) == 6  # without replacement


def test_balance_sampled_balanced_input_keeps_sizes():
    order = _epoch_order([i % 2 for i in range(10)], "sampled", 2,
                         np.random.default_rng(1))
    assert len(order) == 10
    assert sorted(i for i, _ in order) == list(range(10))


def test_balance_sampled_deterministic_given_rng_state():
    labels = [i % 3 for i in range(30)]
    for mode in ("weighted", "sampled"):
        a = _epoch_order(labels, mode, 3, np.random.default_rng(5))
        b = _epoch_order(labels, mode, 3, np.random.default_rng(5))
        assert a == b


def test_balance_errors():
    for mode in ("weighted", "sampled"):
        with pytest.raises(ValueError, match=r"classes \[1\]"):
            _epoch_order([0], mode, 2, np.random.default_rng(0))


@pytest.mark.parametrize("train", [
    lambda cfg: train_depression(tiny_detection_model(balance="nonsense"),
                                 tiny_detection_users(2, 2), tiny_detection_users(2, 2),
                                 SelectionConfig("earliest", n_post=2, n_term=8), cfg),
    lambda cfg: train_risk(tiny_risk_model("mse", balance="nonsense"), tiny_risk_data(2),
                           tiny_risk_data(2), cfg),
], ids=["depression", "risk"])
@pytest.mark.parametrize("epochs", [0, 2])
def test_unknown_balance_mode_rejected(train, epochs):
    with pytest.raises(ValueError,
                       match="balance must be 'weighted' or 'sampled', got 'nonsense'"):
        train(TrainConfig(epochs=epochs))


def test_unknown_model_balance_mode_rejected():
    with pytest.raises(ValueError,
                       match="balance must be 'weighted' or 'sampled', got 'wieghted'"):
        RiskModelConfig.for_variant("mse", sentence_dim=6, conv_filters=5, pool_n=2,
                                    dense_dims=(10,), max_sentences=4, balance="wieghted")


# ---------------------------------------------------------------------------
# Metrics: oracle via exact rational arithmetic

def oracle_prf(pairs, positive):
    tp = sum(1 for g, p in pairs if g == positive and p == positive)
    fp = sum(1 for g, p in pairs if g != positive and p == positive)
    fn = sum(1 for g, p in pairs if g == positive and p != positive)
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    f1 = Fraction(2 * tp, 2 * tp + fp + fn) if tp + fp + fn else Fraction(0)
    return precision, recall, f1


def oracle_triage(gold, pred):
    """Independent grouped-score computation in exact rational arithmetic."""
    pairs = list(zip(gold, pred))
    per = [oracle_prf(pairs, c) for c in range(4)]
    acc = Fraction(sum(1 for g, p in pairs if g == p), len(pairs))
    elevated = [(g, p) for g, p in pairs if g != 0]
    non_green_acc = (Fraction(sum(1 for g, p in elevated if g == p), len(elevated))
                     if elevated else Fraction(0))

    def collapse(fn):
        two = [(int(fn(g)), int(fn(p))) for g, p in pairs]
        f_neg = oracle_prf(two, 0)[2]
        f_pos = oracle_prf(two, 1)[2]
        return {
            "f1": (f_neg + f_pos) / 2,
            "positive_f1": f_pos,
            "accuracy": Fraction(sum(1 for g, p in two if g == p), len(two)),
        }

    return {
        "per_class": per,
        "accuracy": acc,
        "non_green": {"f1": sum(per[c][2] for c in (1, 2, 3)) / 3,
                      "accuracy": non_green_acc},
        "flagged": collapse(lambda y: y != 0),
        "urgent": collapse(lambda y: y >= 2),
        "all": {"f1": sum(p[2] for p in per) / 4, "accuracy": acc},
    }


# Hand-checkable 8-instance fixture: one green over-flag, one amber missed,
# red and crisis exact. Every aggregate is a small rational.
FIXTURE_GOLD = [0, 0, 0, 0, 1, 1, 2, 3]
FIXTURE_PRED = [0, 0, 0, 1, 1, 0, 2, 3]


def test_confusion_matrix_counts():
    m = confusion_matrix(FIXTURE_GOLD, FIXTURE_PRED, 4)
    assert m == [[3, 1, 0, 0],
                 [1, 1, 0, 0],
                 [0, 0, 1, 0],
                 [0, 0, 0, 1]]
    assert sum(sum(row) for row in m) == len(FIXTURE_GOLD)


def test_confusion_matrix_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        confusion_matrix([0, 1], [0], 2)


@pytest.mark.parametrize("gold, pred, message", [
    ([-1, 0], [0, 0], "gold label -1 outside range(2)"),
    ([0, 1], [0, 2], "predicted label 2 outside range(2)"),
], ids=["negative_gold", "predicted_past_last_class"])
def test_confusion_matrix_rejects_label_outside_range(gold, pred, message):
    # A negative label would otherwise count as the last class.
    with pytest.raises(ValueError, match=re.escape(message)):
        confusion_matrix(gold, pred, 2)
    with pytest.raises(ValueError, match=re.escape(message)):
        binary_metrics(gold, pred)


def test_binary_metrics_hand_case():
    # tp=3, fp=1, fn=2
    gold = [1, 1, 1, 1, 1, 0, 0, 0]
    pred = [1, 1, 1, 0, 0, 1, 0, 0]
    precision, recall, f1 = binary_metrics(gold, pred)
    assert precision == 0.75
    assert recall == 0.6
    assert f1 == float(Fraction(2, 3))


def test_binary_metrics_zero_denominators():
    assert binary_metrics([0, 0], [0, 0]) == (0.0, 0.0, 0.0)
    assert binary_metrics([1, 1], [0, 0]) == (0.0, 0.0, 0.0)
    assert binary_metrics([0, 0], [1, 1]) == (0.0, 0.0, 0.0)


def test_binary_f1_is_harmonic_mean():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        gold = [int(g) for g in rng.integers(0, 2, size=n)]
        pred = [int(p) for p in rng.integers(0, 2, size=n)]
        precision, recall, f1 = binary_metrics(gold, pred)
        if precision + recall > 0:
            assert f1 == pytest.approx(2 * precision * recall / (precision + recall),
                                       rel=1e-12)
        else:
            assert f1 == 0.0


def test_triage_report_fixture_exact():
    report = triage_report(FIXTURE_GOLD, FIXTURE_PRED)
    # hand-derived rationals, asserted with zero tolerance
    expected_per = [(Fraction(3, 4),) * 3, (Fraction(1, 2),) * 3,
                    (Fraction(1),) * 3, (Fraction(1),) * 3]
    for scores, (p, r, f) in zip(report.per_class, expected_per):
        assert scores["precision"] == float(p)
        assert scores["recall"] == float(r)
        assert scores["f1"] == float(f)
    assert report.accuracy == float(Fraction(3, 4))
    g = report.groupings
    assert g["non_green"]["f1"] == float(Fraction(5, 6))
    assert g["non_green"]["accuracy"] == float(Fraction(3, 4))
    assert g["flagged"]["f1"] == float(Fraction(3, 4))
    assert g["flagged"]["positive_f1"] == float(Fraction(3, 4))
    assert g["flagged"]["accuracy"] == float(Fraction(3, 4))
    assert g["urgent"]["f1"] == 1.0
    assert g["urgent"]["positive_f1"] == 1.0
    assert g["urgent"]["accuracy"] == 1.0
    assert g["all"]["f1"] == float(Fraction(13, 16))
    assert g["all"]["accuracy"] == float(Fraction(3, 4))


def test_triage_report_matches_rational_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        gold = [int(g) for g in rng.integers(0, 4, size=n)]
        pred = [int(p) for p in rng.integers(0, 4, size=n)]
        report = triage_report(gold, pred)
        oracle = oracle_triage(gold, pred)
        for c in range(4):
            assert report.per_class[c]["f1"] == pytest.approx(
                float(oracle["per_class"][c][2]), abs=1e-12)
        for group in ("non_green", "flagged", "urgent", "all"):
            for key, want in oracle[group].items():
                assert report.groupings[group][key] == pytest.approx(
                    float(want), abs=1e-12), (group, key)


def test_triage_report_permutation_invariant():
    rng = np.random.default_rng(9)
    gold = [int(g) for g in rng.integers(0, 4, size=30)]
    pred = [int(p) for p in rng.integers(0, 4, size=30)]
    base = triage_report(gold, pred).to_json_dict()
    for _ in range(20):
        order = rng.permutation(len(gold))
        shuffled = triage_report([gold[i] for i in order], [pred[i] for i in order])
        assert shuffled.to_json_dict() == base


def test_triage_report_perfect_predictions():
    gold = [0, 1, 2, 3] * 3
    report = triage_report(gold, gold)
    assert report.accuracy == 1.0
    assert all(sc["f1"] == 1.0 for sc in report.per_class)
    assert all(stats["f1"] == 1.0 for stats in report.groupings.values())


def test_triage_report_scores_in_range_and_confusion_sums():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 25))
        gold = [int(g) for g in rng.integers(0, 4, size=n)]
        pred = [int(p) for p in rng.integers(0, 4, size=n)]
        report = triage_report(gold, pred)
        assert sum(sum(row) for row in report.confusion) == n
        values = [report.accuracy]
        values += [sc[k] for sc in report.per_class for k in sc]
        values += [v for g in report.groupings.values() for v in g.values()]
        assert all(0.0 <= v <= 1.0 for v in values)


def test_triage_report_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        triage_report([0, 1], [0])


def test_detection_report_basics():
    report = detection_report([1, 1, 1, 1, 1, 0, 0, 0], [1, 1, 1, 0, 0, 1, 0, 0])
    assert report.n_classes == 2
    assert report.per_class[1]["precision"] == 0.75
    assert report.per_class[1]["recall"] == 0.6
    assert report.accuracy == 0.625
    assert report.groupings == {}


def test_report_text_and_json():
    report = triage_report(FIXTURE_GOLD, FIXTURE_PRED)
    text = report.to_text()
    assert "non-green" in text and "crisis" in text
    assert "0.83" in text  # non-green F1 to two places
    doc = json.loads(json.dumps(report.to_json_dict()))
    assert doc["accuracy"] == 0.75
    assert doc["groupings"]["urgent"]["f1"] == 1.0
    binary = detection_report([0, 1], [0, 1])
    assert "diagnosed" in binary.to_text()


# ---------------------------------------------------------------------------
# McNemar

def mcnemar_inputs(b, c, both_right=5, both_wrong=3):
    gold, pa, pb = [], [], []
    for _ in range(b):
        gold.append(0); pa.append(0); pb.append(1)
    for _ in range(c):
        gold.append(0); pa.append(1); pb.append(0)
    for _ in range(both_right):
        gold.append(1); pa.append(1); pb.append(1)
    for _ in range(both_wrong):
        gold.append(1); pa.append(0); pb.append(0)
    return pa, pb, gold


def test_mcnemar_hand_case():
    stat, p = mcnemar(*mcnemar_inputs(b=10, c=2))
    assert stat == pytest.approx(49 / 12)
    assert stat == pytest.approx(4.0833, abs=1e-3)
    assert p == pytest.approx(0.0433, abs=1e-3)


def test_mcnemar_no_disagreements():
    stat, p = mcnemar(*mcnemar_inputs(b=0, c=0))
    assert (stat, p) == (0.0, 1.0)


def test_mcnemar_equal_disagreements():
    stat, p = mcnemar(*mcnemar_inputs(b=4, c=4))
    assert stat == pytest.approx(1 / 8)
    assert 0.0 < p <= 1.0


def test_mcnemar_symmetry_and_monotonicity():
    stat_ab, p_ab = mcnemar(*mcnemar_inputs(b=9, c=3))
    pa, pb, gold = mcnemar_inputs(b=9, c=3)
    stat_ba, p_ba = mcnemar(pb, pa, gold)
    assert stat_ab == stat_ba and p_ab == p_ba
    # with b+c fixed, a larger imbalance means a smaller p
    prev_p = 1.0
    for b, c in ((6, 6), (8, 4), (10, 2), (12, 0)):
        stat, p = mcnemar(*mcnemar_inputs(b=b, c=c))
        assert 0.0 < p < prev_p
        prev_p = p


def test_mcnemar_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        mcnemar([0, 1], [0], [0, 1])


# ---------------------------------------------------------------------------
# Training: detection

def test_train_depression_deterministic():
    def run():
        users = tiny_detection_users()
        model = tiny_detection_model()
        selection = SelectionConfig("earliest", n_post=3, n_term=12, seed=0)
        result = train_depression(model, users, users, selection,
                                  TrainConfig(epochs=2, lr=0.01, seed=1))
        blob = b"".join(model.params[n].tobytes() for n in model.params.names())
        return json.dumps(result.log), hashlib.sha256(blob).hexdigest(), result.best_epoch

    assert run() == run()


def test_train_depression_learns_separable():
    users = tiny_detection_users()
    model = tiny_detection_model()
    selection = SelectionConfig("earliest", n_post=3, n_term=12, seed=0)
    result = train_depression(model, users, users, selection,
                              TrainConfig(epochs=8, lr=0.02, seed=1))
    assert result.best_metric >= 0.9
    train_losses = [row["loss"] for row in result.log if row["split"] == "train"]
    assert train_losses[-1] < train_losses[0]


def test_train_depression_zero_epochs_keeps_init():
    users = tiny_detection_users(n_pos=2, n_ctl=2)
    model = tiny_detection_model()
    before = {n: model.params[n].copy() for n in model.params.names()}
    result = train_depression(model, users, users,
                              SelectionConfig("earliest", n_post=2, n_term=8),
                              TrainConfig(epochs=0))
    assert result.log == [] and result.best_epoch == -1
    for name, arr in before.items():
        assert np.array_equal(model.params[name], arr)


def test_train_depression_weighted_mode():
    users = tiny_detection_users(n_pos=2, n_ctl=6)
    model = tiny_detection_model(balance="weighted")
    selection = SelectionConfig("earliest", n_post=2, n_term=8)
    result = train_depression(model, users, users, selection,
                              TrainConfig(epochs=2, lr=0.01, seed=0))
    # weighted mode trains on every instance each epoch
    assert result.log[0]["instances"] == 8


# ---------------------------------------------------------------------------
# Training: risk

def test_train_risk_deterministic():
    def run(variant):
        data = tiny_risk_data()
        model = tiny_risk_model(variant)
        result = train_risk(model, data, data, TrainConfig(epochs=2, lr=0.02, seed=2))
        blob = b"".join(model.params[n].tobytes() for n in model.params.names())
        return json.dumps(result.log), hashlib.sha256(blob).hexdigest()

    for variant in ("cat_ce", "class_metric_ordinal"):
        assert run(variant) == run(variant)


def test_train_risk_learns_separable():
    data = tiny_risk_data()
    model = tiny_risk_model("cat_ce")
    result = train_risk(model, data, data, TrainConfig(epochs=10, lr=0.02, seed=2))
    assert result.best_metric >= 0.8


def test_train_risk_weighted_mode_counts():
    data = tiny_risk_data(n_per_class=3)
    model = tiny_risk_model("mse", balance="weighted")
    result = train_risk(model, data, data, TrainConfig(epochs=1, lr=0.01, seed=0))
    assert result.log[0]["instances"] == 12


def test_train_risk_metric_variant_runs_and_improves():
    data = tiny_risk_data()
    model = tiny_risk_model("class_metric")
    result = train_risk(model, data, data, TrainConfig(epochs=8, lr=0.02, seed=4))
    assert result.best_metric >= 0.6
    losses = [row["loss"] for row in result.log if row["split"] == "train"]
    assert losses[-1] < losses[0]


def test_train_risk_zero_epochs_keeps_init():
    data = tiny_risk_data(n_per_class=2)
    model = tiny_risk_model("mse")
    before = {n: model.params[n].copy() for n in model.params.names()}
    result = train_risk(model, data, data, TrainConfig(epochs=0))
    assert result.log == [] and result.best_epoch == -1
    for name, arr in before.items():
        assert np.array_equal(model.params[name], arr)


# ---------------------------------------------------------------------------
# Training: both tasks through the shared loop

def params_digest(model):
    blob = b"".join(model.params[n].tobytes() for n in model.params.names())
    return hashlib.sha256(blob).hexdigest()


def depression_run(cfg):
    """Train the tiny detection model.

    Returns the result, the validation metric re-scored with the kept
    weights, and a digest of those weights.
    """
    users = tiny_detection_users()
    model = tiny_detection_model()
    selection = SelectionConfig("earliest", n_post=3, n_term=12, seed=0)
    result = train_depression(model, users, users, selection, cfg)
    ordered = sorted(users, key=lambda u: u.user_id)
    gold = [int(u.label == DIAGNOSED) for u in ordered]
    pred = [int(np.argmax(model.classify_user(select_posts(u, selection))))
            for u in ordered]
    return result, binary_metrics(gold, pred)[2], params_digest(model)


def risk_run(cfg):
    """Train the tiny class_metric risk model; same return as depression_run."""
    data = tiny_risk_data()
    model = tiny_risk_model("class_metric")
    result = train_risk(model, data, data, cfg)
    report = triage_report([y for _, _, y in data],
                           [int(model.classify(t, c)) for t, c, _ in data])
    return result, report.groupings["non_green"]["f1"], params_digest(model)


TASK_RUNS = pytest.mark.parametrize("run", [depression_run, risk_run],
                                    ids=["depression", "risk"])


@TASK_RUNS
def test_train_divergence_aborts(run):
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(RuntimeError, match="diverged at epoch"):
        run(TrainConfig(epochs=2, lr=1e200, seed=0))


def test_train_reports_overflowing_update_with_epoch_step_and_parameter():
    params = ParamStore()
    params.add("w", np.array([-1e308]))
    model = SimpleNamespace(config=SimpleNamespace(balance="weighted"), params=params)

    def step_loss(epoch, idx, nodes, rng):
        return pick(nodes("w"), 0)

    # The first update overflows w; no op output ever sees the infinity.
    with np.errstate(over="ignore"), pytest.raises(
            RuntimeError, match=r"^training diverged at epoch 0 step 0: "
                                r"non-finite values in parameter 'w'"):
        _train(model, [0, 1], 2, TrainConfig(epochs=1, lr=1e308, seed=0), step_loss,
               lambda: (0.0, {}))


def test_train_reports_overflowing_op_with_epoch_step_and_op():
    params = ParamStore()
    params.add("w", np.array([[1e300]]))
    params.add("b", np.zeros(1))
    model = SimpleNamespace(config=SimpleNamespace(balance="weighted"), params=params)

    def step_loss(epoch, idx, nodes, rng):
        # Epoch 0 trains; in epoch 1 the input times w overflows inside dense.
        x = constant(np.array([1.0 if epoch == 0 else 1e300]))
        return pick(dense(x, nodes("w"), nodes("b")), 0)

    with np.errstate(over="ignore"), pytest.raises(
            RuntimeError, match=r"^training diverged at epoch 1 step 2: "
                                r"non-finite values in dense op output$"):
        _train(model, [0, 1], 2, TrainConfig(epochs=2, lr=1e-3, seed=0), step_loss,
               lambda: (0.0, {}))


@TASK_RUNS
def test_train_restores_best_epoch_weights(run):
    result, rescored, kept = run(TrainConfig(epochs=4, lr=0.02, seed=1))
    # re-scoring with the restored weights reproduces the best validation metric
    assert rescored == pytest.approx(result.best_metric)
    # and they are the weights at the end of the best epoch: a run stopped
    # there ends with them, since a seeded run repeats itself step for step
    assert result.best_epoch < 3
    _, _, at_best = run(TrainConfig(epochs=result.best_epoch + 1, lr=0.02, seed=1))
    assert kept == at_best


@pytest.mark.parametrize("epochs, metrics, copies, best", [
    (0, [], 0, (-1, -1.0)),
    (3, [0.5, 0.25, 0.75], 1, (2, 0.75)),
    (3, [0.5, 0.75, 0.25], 2, (1, 0.75)),
], ids=["0", "3", "3-restored"])
def test_train_copies_weights_only_for_a_best_epoch(monkeypatch, epochs, metrics, copies,
                                                    best):
    # Without epochs the weights stay as initialised. Otherwise the weights
    # are copied once per new best epoch before the last (0, and 1 in the
    # restored case), never before epoch 0, since every metric beats the
    # starting -1, and never for the last epoch, whose weights are the
    # model's own. An earlier best epoch's weights are restored at the end.
    params = ParamStore()
    params.add("w", np.array([0.5, -2.0]))
    initial = params["w"].copy()
    model = SimpleNamespace(config=SimpleNamespace(balance="weighted"), params=params)
    made = []
    copy = ParamStore.copy
    monkeypatch.setattr(ParamStore, "copy", lambda self: made.append(1) or copy(self))
    scores = iter(metrics)
    after_epoch = []

    def validate():
        after_epoch.append(params["w"].copy())
        return next(scores), {}

    def step_loss(epoch, idx, nodes, rng):
        return pick(nodes("w"), idx)

    result = _train(model, [0, 1], 2, TrainConfig(epochs=epochs, lr=0.1, seed=0), step_loss,
                    validate)
    assert len(made) == copies
    assert (result.best_epoch, result.best_metric) == best
    kept = initial if epochs == 0 else after_epoch[result.best_epoch]
    assert np.array_equal(params["w"], kept)
    assert np.array_equal(params["w"], initial) == (epochs == 0)
    if 0 <= result.best_epoch < epochs - 1:     # the restore moved the weights back
        assert not np.array_equal(after_epoch[result.best_epoch], after_epoch[-1])


def test_write_epoch_log_round_trip(tmp_path):
    log = [{"epoch": 0, "split": "train", "loss": 1.5},
           {"epoch": 0, "split": "validation", "f1": 0.25}]
    path = tmp_path / "log.ndjson"
    write_epoch_log(path, log)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == log


_POST = Post("u1-p0", "u1", "forum", 0, "some text")


@pytest.mark.parametrize("writer, item", [
    (write_epoch_log, {"epoch": 0, "loss": 1.5}),
    (write_posts, _POST),
    (write_labels, UserRecord("u1", (_POST,), DIAGNOSED, "u1-p0")),
    (write_threads, ThreadInstance(Post("u2-p1", "u2", "forum", 1, "reply."), (_POST,),
                                   RiskLabel.RED)),
], ids=["epoch_log", "posts", "labels", "threads"])
def test_failed_write_leaves_earlier_file(tmp_path, writer, item):
    path = tmp_path / "out.ndjson"
    writer(path, [item])
    before = path.read_bytes()

    def interrupted():
        yield item
        yield item
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        writer(path, interrupted())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.ndjson"]


# ---------------------------------------------------------------------------
# Stratified splitting

def test_stratified_split_fractions_and_coverage():
    labels = [0] * 40 + [1] * 10
    kept, held = stratified_split(labels, 0.2, seed=0)
    assert sorted(kept + held) == list(range(50))
    assert sum(1 for i in held if labels[i] == 0) == 8
    assert sum(1 for i in held if labels[i] == 1) == 2


def test_stratified_split_holds_at_least_one_per_class():
    labels = [0] * 20 + [1] * 2
    _, held = stratified_split(labels, 0.1, seed=0)
    assert any(labels[i] == 1 for i in held)


def test_stratified_split_deterministic_and_validated():
    labels = [i % 3 for i in range(30)]
    assert stratified_split(labels, 0.3, seed=4) == stratified_split(labels, 0.3, seed=4)
    assert stratified_split(labels, 0.3, seed=4) != stratified_split(labels, 0.3, seed=5)
    with pytest.raises(ValueError, match="fraction"):
        stratified_split(labels, 0.0, seed=0)
    with pytest.raises(ValueError, match="fraction"):
        stratified_split(labels, 1.0, seed=0)


# ---------------------------------------------------------------------------
# Synthetic corpora

def corpus_digest(paths):
    digest = hashlib.sha256()
    for key in sorted(paths):
        digest.update(Path(paths[key]).read_bytes())
    return digest.hexdigest()


def test_synth_detection_deterministic(tmp_path):
    spec = SynthDetectionSpec(n_positive=6, n_controls_per=2, posts_per_user=5,
                              signal_rate=0.5, vocab_size=50, seed=9)
    a = synth_detection_corpus(spec, tmp_path / "a")
    b = synth_detection_corpus(spec, tmp_path / "b")
    assert corpus_digest(a) == corpus_digest(b)
    c = synth_detection_corpus(
        SynthDetectionSpec(n_positive=6, n_controls_per=2, posts_per_user=5,
                           signal_rate=0.5, vocab_size=50, seed=10), tmp_path / "c")
    assert corpus_digest(a) != corpus_digest(c)


def test_synth_detection_signal_placement(tmp_path):
    spec = SynthDetectionSpec(n_positive=5, n_controls_per=2, posts_per_user=6,
                              signal_rate=1.0, vocab_size=40, seed=1)
    paths = synth_detection_corpus(spec, tmp_path)
    for split in ("train", "validation", "test"):
        posts = read_posts(paths[f"{split}.posts"])
        labels = read_labels(paths[f"{split}.labels"])
        assert posts and labels
        for post in posts:
            has_signal = any(tok.startswith("sig") for tok in post.text.split())
            assert has_signal == post.user_id.startswith("pos")
            assert labels[post.user_id][0] == (
                DIAGNOSED if post.user_id.startswith("pos") else CONTROL)


def test_synth_detection_rate_zero_has_no_signal(tmp_path):
    spec = SynthDetectionSpec(n_positive=5, n_controls_per=1, posts_per_user=6,
                              signal_rate=0.0, vocab_size=40, seed=2)
    paths = synth_detection_corpus(spec, tmp_path)
    for split in ("train", "validation", "test"):
        for post in read_posts(paths[f"{split}.posts"]):
            assert not any(tok.startswith("sig") for tok in post.text.split())


def test_synth_detection_split_sizes(tmp_path):
    spec = SynthDetectionSpec(n_positive=10, n_controls_per=2, posts_per_user=3,
                              signal_rate=0.2, vocab_size=30, seed=3)
    paths = synth_detection_corpus(spec, tmp_path)
    sizes = {}
    all_users = set()
    for split in ("train", "validation", "test"):
        labels = read_labels(paths[f"{split}.labels"])
        pos = sum(1 for label, _ in labels.values() if label == DIAGNOSED)
        sizes[split] = (pos, len(labels) - pos)
        assert not (set(labels) & all_users)
        all_users |= set(labels)
    assert sizes == {"train": (6, 12), "validation": (2, 4), "test": (2, 4)}
    assert len(all_users) == 30


def test_synth_detection_diagnosed_users_carry_diagnosis_post(tmp_path):
    spec = SynthDetectionSpec(n_positive=3, n_controls_per=1, posts_per_user=3,
                              signal_rate=0.5, vocab_size=30, seed=4)
    paths = synth_detection_corpus(spec, tmp_path)
    labels = read_labels(paths["train.labels"])
    for uid, (label, diag) in labels.items():
        assert (diag is not None) == (label == DIAGNOSED)


def test_synth_risk_deterministic_and_parses(tmp_path):
    spec = SynthRiskSpec(n_train=16, n_test=8, seed=6)
    a = synth_risk_corpus(spec, tmp_path / "a")
    b = synth_risk_corpus(spec, tmp_path / "b")
    assert corpus_digest(a) == corpus_digest(b)
    train = read_threads(a["train"])
    test = read_threads(a["test"])
    assert len(train) == 16 and len(test) == 8
    labels = [int(inst.label) for inst in train]
    assert labels.count(0) == labels.count(1) == labels.count(2) == labels.count(3) == 4


def test_synth_risk_signal_tracks_severity(tmp_path):
    spec = SynthRiskSpec(n_train=40, n_test=4, drift=0.0, seed=7)
    paths = synth_risk_corpus(spec, tmp_path)
    counts = {y: [] for y in range(4)}
    for inst in read_threads(paths["train"]):
        n_signal = sum(1 for tok in inst.target.text.replace(".", " ").split()
                       if tok.startswith("risk"))
        counts[int(inst.label)].append(n_signal)
    assert all(n == 0 for n in counts[0])
    means = [np.mean(counts[y]) for y in range(4)]
    assert means[0] < means[1] < means[2] < means[3]


def test_synth_risk_context_is_earlier_and_benign(tmp_path):
    spec = SynthRiskSpec(n_train=20, n_test=4, drift=0.0, seed=8)
    paths = synth_risk_corpus(spec, tmp_path)
    for inst in read_threads(paths["train"]):
        for post in inst.context:
            assert post.timestamp < inst.target.timestamp
            assert not any(tok.startswith("risk")
                           for tok in post.text.replace(".", " ").split())
