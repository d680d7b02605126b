import json

import numpy as np
import pytest

from triagekit.corpus import (
    CONTROL,
    DIAGNOSED,
    PAD_ID,
    UNK_ID,
    CorpusFormatError,
    FileSentenceEncoder,
    HashedSentenceEncoder,
    Post,
    RiskLabel,
    ThreadInstance,
    UserRecord,
    Vocabulary,
    load_users,
    read_threads,
    sentence_hash,
    split_sentences,
    tokenize,
    word_tokens,
    write_posts,
    write_threads,
)


def make_post(pid="p1", uid="u1", community="c", ts=0, text=""):
    return Post(pid, uid, community, ts, text)


# -- tokenize ---------------------------------------------------------------

def test_tokenize_identity_lookup():
    vocab = Vocabulary(["i", "went", "to"])
    assert tokenize("I went to", vocab) == [vocab.id("i"), vocab.id("went"), vocab.id("to")]


def test_tokenize_empty_text():
    vocab = Vocabulary(["i"])
    assert tokenize("", vocab) == []


def test_tokenize_oov_maps_to_unk():
    vocab = Vocabulary(["went"])
    assert tokenize("Zzyzx went", vocab) == [UNK_ID, vocab.id("went")]


def test_tokenize_keeps_internal_apostrophes():
    assert word_tokens("It wasn't me!") == ["it", "wasn't", "me"]
    assert word_tokens("'quoted'") == ["quoted"]


def test_tokenize_deterministic():
    text = "Some text, with punctuation... and CASE."
    vocab = Vocabulary.from_texts([text] * 5, min_freq=1)
    assert tokenize(text, vocab) == tokenize(text, vocab)


# -- split_sentences --------------------------------------------------------

def test_split_on_terminal_punctuation():
    assert split_sentences("A. B? C!") == ["A.", "B?", "C!"]


def test_split_no_terminal_punctuation():
    assert split_sentences("no terminal punct") == ["no terminal punct"]


def test_split_abbreviation_guard():
    # Hand trace: the period in "Dr." is in the abbreviation list, so the
    # only boundary is after "left." -> exactly two sentences.
    got = split_sentences("Dr. Smith left. He ran.", abbreviations=["dr."])
    assert got == ["Dr. Smith left.", "He ran."]


def test_split_requires_whitespace_and_capital():
    assert split_sentences("see v2.0 of it") == ["see v2.0 of it"]
    assert split_sentences("wait... what") == ["wait... what"]


def test_split_multi_punctuation_run():
    assert split_sentences("Really?! Yes.") == ["Really?!", "Yes."]


def test_split_deterministic():
    text = "One. Two! Three? Dr. Four."
    assert split_sentences(text) == split_sentences(text)


@pytest.mark.parametrize("text", ["", "   ", "\n\t ", ".", " !? ", "a", "Dr. ", "x.  Y"])
def test_split_empty_exactly_when_blank(text):
    # read_threads relies on this to reject a blank target without splitting
    assert (split_sentences(text) == []) == (not text.strip())


# -- Vocabulary -------------------------------------------------------------

def test_vocab_round_trip():
    vocab = Vocabulary.from_texts(["a b c a b a"], min_freq=1)
    for i in range(2, len(vocab)):
        assert vocab.id(vocab.token(i)) == i


def test_vocab_min_freq_cutoff():
    vocab = Vocabulary.from_texts(["common common common rare"], min_freq=2)
    assert "common" in vocab
    assert "rare" not in vocab
    assert vocab.id("rare") == UNK_ID


def test_vocab_reserved_ids():
    vocab = Vocabulary(["x"])
    assert vocab.id(vocab.token(PAD_ID)) == PAD_ID
    assert vocab.id(vocab.token(UNK_ID)) == UNK_ID
    assert vocab.id("x") == 2


def test_vocab_deterministic_order():
    texts = ["b a c", "c a", "a"]
    v1 = Vocabulary.from_texts(texts, min_freq=1)
    v2 = Vocabulary.from_texts(list(texts), min_freq=1)
    assert v1.tokens() == v2.tokens()
    # frequency-major, then lexicographic
    assert v1.tokens() == ["a", "c", "b"]


# -- domain types -----------------------------------------------------------

def test_user_record_sorts_posts():
    posts = (make_post("p2", ts=5), make_post("p1", ts=1))
    user = UserRecord("u1", posts)
    assert [p.post_id for p in user.posts] == ["p1", "p2"]


def test_user_record_label_invariant():
    with pytest.raises(ValueError):
        UserRecord("u1", (), label=DIAGNOSED)
    with pytest.raises(ValueError):
        UserRecord("u1", (), label=CONTROL, diagnosis_post_id="p1")
    UserRecord("u1", (make_post(),), label=DIAGNOSED, diagnosis_post_id="p1")


def test_thread_instance_context_ordering():
    target = make_post("t", ts=10)
    ctx = (make_post("c2", ts=5), make_post("c1", ts=1))
    inst = ThreadInstance(target, ctx, RiskLabel.GREEN)
    assert [p.post_id for p in inst.context] == ["c1", "c2"]
    with pytest.raises(ValueError):
        ThreadInstance(target, (make_post("late", ts=10),), RiskLabel.GREEN)


def test_risk_label_total_order():
    assert RiskLabel.GREEN < RiskLabel.AMBER < RiskLabel.RED < RiskLabel.CRISIS
    assert RiskLabel.parse("crisis") == RiskLabel.CRISIS


# -- sentence encoders ------------------------------------------------------

def test_hashed_encoder_deterministic():
    enc = HashedSentenceEncoder(dim=128, seed=3)
    a = enc.encode("the same sentence twice")
    b = enc.encode("the same sentence twice")
    assert np.array_equal(a, b)


def test_hashed_encoder_empty_is_zero():
    enc = HashedSentenceEncoder(dim=64, seed=0)
    assert np.array_equal(enc.encode(""), np.zeros(64))


def test_hashed_encoder_unit_norm():
    enc = HashedSentenceEncoder(dim=256, seed=1)
    vec = enc.encode("some nonempty input text")
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9


def test_hashed_encoder_self_cosine_and_disjoint_overlap():
    enc = HashedSentenceEncoder(dim=1024, seed=7)
    a = enc.encode("alpha beta gamma delta epsilon zeta")
    assert float(a @ a) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(400)]
    for _ in range(20):
        picks = rng.choice(len(words), size=12, replace=False)
        left = " ".join(words[i] for i in picks[:6])
        right = " ".join(words[i] for i in picks[6:])
        cos = float(enc.encode(left) @ enc.encode(right))
        assert abs(cos) < 0.2


def test_hashed_encoder_seed_changes_vectors():
    a = HashedSentenceEncoder(dim=128, seed=0).encode("hello there")
    b = HashedSentenceEncoder(dim=128, seed=1).encode("hello there")
    assert not np.array_equal(a, b)


def test_file_encoder_lookup_and_missing_key(tmp_path):
    sent = "A known sentence."
    path = tmp_path / "vectors.ndjson"
    with open(path, "w") as fh:
        fh.write(json.dumps({"hash": sentence_hash(sent), "vector": [1.0, 2.0]}) + "\n")
    enc = FileSentenceEncoder(path)
    assert enc.dim == 2
    assert np.array_equal(enc.encode(sent), np.array([1.0, 2.0]))
    with pytest.raises(KeyError, match="unseen"):
        enc.encode("An unseen sentence.")


# -- corpus I/O -------------------------------------------------------------

def test_load_users_round_trip(tmp_path):
    posts = [make_post("p1", "u1", "books", 1, "Hello."),
             make_post("p2", "u1", "cats", 2, "More."),
             make_post("p3", "u2", "cats", 1, "Hi.")]
    ppath = tmp_path / "posts.ndjson"
    write_posts(ppath, posts)
    users = load_users(ppath)
    assert sorted(users) == ["u1", "u2"]
    assert len(users["u1"].posts) == 2
    assert users["u1"].label == CONTROL


def test_load_users_duplicate_post_id(tmp_path):
    ppath = tmp_path / "posts.ndjson"
    write_posts(ppath, [make_post("p1"), make_post("p1")])
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_users(ppath)


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "posts.ndjson"
    path.write_text('{"post_id": "p1", "user_id": "u", "community": "c", '
                    '"timestamp": 0, "text": ""}\nnot json\n')
    with pytest.raises(CorpusFormatError, match=r":2"):
        load_users(path)


def test_threads_round_trip(tmp_path):
    target = make_post("t1", "u1", "forum", 10, "Help?")
    ctx = (make_post("c1", "u2", "forum", 5, "Earlier."),)
    path = tmp_path / "threads.ndjson"
    write_threads(path, [ThreadInstance(target, ctx, RiskLabel.AMBER)])
    got = read_threads(path)
    assert len(got) == 1
    assert got[0].label == RiskLabel.AMBER
    assert got[0].target.post_id == "t1"
    assert got[0].context[0].text == "Earlier."


def test_threads_blank_target_reports_line(tmp_path):
    path = tmp_path / "threads.ndjson"
    write_threads(path, [
        ThreadInstance(make_post("t1", ts=10, text="Help?"), (), RiskLabel.AMBER),
        ThreadInstance(make_post("t2", ts=10, text=" \n "), (), RiskLabel.GREEN)])
    with pytest.raises(CorpusFormatError,
                       match=r"threads\.ndjson:2: target post t2 has no sentences"):
        read_threads(path)
