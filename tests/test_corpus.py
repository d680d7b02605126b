import hashlib
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from triagekit import corpus
from triagekit.corpus import (
    CONTROL,
    DIAGNOSED,
    PAD_ID,
    UNK_ID,
    CorpusFormatError,
    HashedSentenceEncoder,
    Post,
    RiskLabel,
    ThreadInstance,
    UserRecord,
    Vocabulary,
    load_users,
    read_labels,
    read_posts,
    read_threads,
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
    got = split_sentences("Dr. Smith left. He ran.")
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


def textbook_split_sentences(text):
    """The splitter as a scan over every character, for comparison."""
    abbrevs = {a.lower() for a in corpus.DEFAULT_ABBREVIATIONS}
    sentences = []
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


# Letters of every case (titlecase "ǅ" is neither upper nor lower), digits,
# apostrophes, ASCII and Unicode whitespace (the \x1c-\x1f separators and
# \x85 are whitespace to str.isspace but not to bytes), and words that end
# in an abbreviation's letters.
SPLIT_PIECES = (list("aZxDrÉéΣσǅ09'") + [".", "!", "?", "..", "?!", "...!"]
                + [" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\x1d",
                   "\x1e", "\x1f", "\x85"]
                + ["Dr", "dr", "etc", "e.g", "St", "vs", "Mr", "Ab", "X", "É"])


def test_split_matches_the_character_scan():
    rng = np.random.default_rng(21)
    texts = ["", ".", "A. ", "A.  \u2003", "Dr. X", "x.\x85Y", "e.g. Z", "Hi!? \u3000"]
    texts += ["".join(rng.choice(SPLIT_PIECES, size=int(rng.integers(1, 30))))
              for _ in range(4000)]
    # Text that ends in punctuation plus whitespace.
    texts += [text + rng.choice([". ", "! \n", "?\u00a0", "...\x1f"]) for text in texts[:500]]
    boundaries = 0
    for text in texts:
        want = textbook_split_sentences(text)
        assert split_sentences(text) == want, repr(text)
        boundaries += len(want) > 1
    assert boundaries > 500


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


def test_vocab_order_is_the_count_then_token_key_with_ties_and_non_ascii():
    rng = np.random.default_rng(28)
    words = ["straße", "strasse", "émoji", "emoji", "日本", "日本語", "ångström", "zebra",
             "Zebra", "a", "b10", "b9", "ünïcode", "ü", "u", "z", "ß", "ſ", "Ω", "ω"]
    texts = [" ".join(rng.choice(words, size=int(rng.integers(1, 12)))) for _ in range(60)]
    counts = Counter(t for text in texts for t in word_tokens(text))
    assert len(set(counts.values())) < len(counts)              # some counts tie
    for min_freq in (1, 3, 7):
        kept = [t for t, c in counts.items() if c >= min_freq]
        assert Vocabulary.from_texts(texts, min_freq=min_freq).tokens() == sorted(
            kept, key=lambda t: (-counts[t], t))


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

def dense_encode(enc, sentence):
    """The [dim] vector of `enc.encode`'s (cols, values) pair."""
    cols, values = enc.encode(sentence)
    vec = np.zeros(enc.dim)
    vec[cols] = values
    return vec


def test_hashed_encoder_deterministic():
    enc = HashedSentenceEncoder(dim=128, seed=3)
    a = dense_encode(enc, "the same sentence twice")
    b = dense_encode(enc, "the same sentence twice")
    assert np.array_equal(b, a)
    assert np.array_equal(dense_encode(HashedSentenceEncoder(dim=128, seed=3),
                                       "the same sentence twice"), a)


def test_hashed_encoder_results_are_read_only():
    # Every caller shares the cached arrays, so none may write into them.
    enc = HashedSentenceEncoder(dim=128, seed=3)
    cols, values = enc.encode("the same sentence twice")
    want = cols.copy(), values.copy()
    for arr, item in ((cols, 0), (values, 7.0)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = item
        with pytest.raises(ValueError, match="read-only"):
            arr += item
    again = enc.encode("the same sentence twice")
    assert again[0] is cols and again[1] is values
    assert np.array_equal(cols, want[0]) and np.array_equal(values, want[1])
    empty_cols, empty_values = enc.encode("")
    assert not empty_cols.flags.writeable and not empty_values.flags.writeable


def test_hashed_encoder_empty_is_zero():
    enc = HashedSentenceEncoder(dim=64, seed=0)
    assert np.array_equal(dense_encode(enc, ""), np.zeros(64))


def test_hashed_encoder_unit_norm():
    enc = HashedSentenceEncoder(dim=256, seed=1)
    vec = dense_encode(enc, "some nonempty input text")
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9


def test_hashed_encoder_self_cosine_and_disjoint_overlap():
    enc = HashedSentenceEncoder(dim=1024, seed=7)
    a = dense_encode(enc, "alpha beta gamma delta epsilon zeta")
    assert float(a @ a) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(400)]
    for _ in range(20):
        picks = rng.choice(len(words), size=12, replace=False)
        left = " ".join(words[i] for i in picks[:6])
        right = " ".join(words[i] for i in picks[6:])
        cos = float(dense_encode(enc, left) @ dense_encode(enc, right))
        assert abs(cos) < 0.2


def test_hashed_encoder_seed_changes_vectors():
    # Two seeds share nothing: the second encoder's miss and hit are its own.
    a = HashedSentenceEncoder(dim=128, seed=0)
    b = HashedSentenceEncoder(dim=128, seed=1)
    assert not np.array_equal(dense_encode(a, "hello there"), dense_encode(b, "hello there"))
    assert np.array_equal(dense_encode(b, "hello there"),
                          dense_reference_encode("hello there", 128, 1, 2))


def dense_reference_encode(sentence, dim, seed, max_ngram):
    """The encoder as a dense sum: every bucket of a dim-wide vector, then
    np.linalg.norm, one fresh keyed hash per n-gram."""
    key = hashlib.sha256(f"hashed-encoder:{seed}".encode()).digest()[:16]
    toks = word_tokens(sentence)
    vec = np.zeros(dim)
    for n in range(1, max_ngram + 1):
        for i in range(len(toks) - n + 1):
            digest = hashlib.blake2b(" ".join(toks[i:i + n]).encode("utf-8"), key=key,
                                     digest_size=8).digest()
            v = int.from_bytes(digest, "little")
            vec[(v >> 1) % dim] += 1.0 if v & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def test_hashed_encoder_is_bitwise_the_dense_sum_on_miss_and_hit():
    # Tiny dims make buckets collide and cancel; a sentence whose words all
    # cancel at dim 1 encodes to exact zeros.
    rng = np.random.default_rng(12)
    words = [f"w{i}" for i in range(30)] + ["naïve", "don't", "ÇA"]
    sentences = ["", "   ", "!!", "w1 w2"] + [
        " ".join(rng.choice(words, size=int(rng.integers(1, 12)))) for _ in range(60)]
    cancelled = 0
    for dim in (1, 2, 3, 7, 64, 7200):
        for max_ngram in (1, 2, 3):
            enc = HashedSentenceEncoder(dim=dim, seed=dim + max_ngram, max_ngram=max_ngram)
            for sentence in sentences:
                want = dense_reference_encode(sentence, dim, dim + max_ngram, max_ngram)
                cancelled += bool(word_tokens(sentence)) and not want.any()
                for _ in range(2):              # a miss, then a hit
                    cols, values = enc.encode(sentence)
                    assert np.array_equal(cols, np.flatnonzero(want))
                    got = dense_encode(enc, sentence)
                    assert got.shape == (dim,)
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert cancelled


REAL_BLAKE2B = hashlib.blake2b


class CountingBlake2b:
    """hashlib.blake2b that counts the byte strings it hashes, whether they
    come with the constructor or through update."""

    grams = 0

    def __init__(self, data=None, **kwargs):
        self._h = REAL_BLAKE2B(**kwargs)
        if data is not None:
            self.update(data)

    def copy(self):
        dup = object.__new__(CountingBlake2b)
        dup._h = self._h.copy()
        return dup

    def update(self, data):
        CountingBlake2b.grams += 1
        self._h.update(data)

    def digest(self):
        return self._h.digest()


def test_hashed_encoder_hashes_a_repeated_sentence_once(monkeypatch):
    monkeypatch.setattr(hashlib, "blake2b", CountingBlake2b)
    monkeypatch.setattr(CountingBlake2b, "grams", 0)
    enc = HashedSentenceEncoder(dim=64, seed=2)
    first = enc.encode("one two three")
    assert CountingBlake2b.grams == 5               # three unigrams, two bigrams
    again = enc.encode("one two three")
    assert CountingBlake2b.grams == 5
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])


def test_hashed_encoder_cache_keeps_the_recently_used(monkeypatch):
    monkeypatch.setattr(corpus, "_ENCODE_CACHE", 3)
    monkeypatch.setattr(hashlib, "blake2b", CountingBlake2b)
    monkeypatch.setattr(CountingBlake2b, "grams", 0)
    enc = HashedSentenceEncoder(dim=16, seed=1)

    def hashed(sentence):
        before = CountingBlake2b.grams
        enc.encode(sentence)
        return CountingBlake2b.grams > before

    assert [hashed(s) for s in ("a", "b", "c", "a", "d")] == [True] * 3 + [False, True]
    assert enc._cache.cache_info().currsize == 3
    # "a" was used after "b", so "b" went out when "d" came in.
    assert [hashed(s) for s in ("a", "c", "d", "b")] == [False, False, False, True]
    assert enc._cache.cache_info().currsize == 3


def test_hashed_encoder_is_freed_with_its_last_reference():
    # The cache holds no reference to its encoder, so no cycle keeps one alive.
    enc = HashedSentenceEncoder(dim=16, seed=1)
    enc.encode("one two")
    gone = weakref.ref(enc)
    del enc
    assert gone() is None


@pytest.mark.parametrize("dim", [8.5, "8", True, 0])
def test_hashed_encoder_rejects_a_dim_that_is_not_a_positive_integer(dim):
    with pytest.raises(ValueError, match="encoder_dim"):
        HashedSentenceEncoder(dim=dim)


@pytest.mark.parametrize("seed", [1.0, "1", False, None])
def test_hashed_encoder_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match=f"encoder_seed must be an integer, got {seed!r}"):
        HashedSentenceEncoder(dim=8, seed=seed)


@pytest.mark.parametrize("tokens", [[1, 2], ["a", None], [["a"]], "abc"])
def test_vocabulary_rejects_a_token_that_is_not_a_string(tokens):
    with pytest.raises(TypeError, match="vocabulary tokens must be a sequence of strings"):
        Vocabulary(tokens)


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


def test_load_users_label_without_posts_names_file_and_user(tmp_path):
    ppath, lpath = tmp_path / "posts.ndjson", tmp_path / "labels.ndjson"
    write_posts(ppath, [make_post("p1", "u1")])
    lpath.write_text(json.dumps({"user_id": "u1", "label": CONTROL}) + "\n"
                     + json.dumps({"user_id": "ghost", "label": CONTROL}) + "\n")
    with pytest.raises(CorpusFormatError,
                       match=f"^{lpath}: user 'ghost' has a label but no posts in {ppath}$"):
        load_users(ppath, lpath)


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "posts.ndjson"
    path.write_text('{"post_id": "p1", "user_id": "u", "community": "c", '
                    '"timestamp": 0, "text": ""}\nnot json\n')
    with pytest.raises(CorpusFormatError, match=r":2"):
        load_users(path)


@pytest.mark.parametrize("text, message", [
    ("not json", "bad post row: Expecting value: line 1 column 1"),
    ('["p2"]', "bad post row: row must be an object, got an array"),
    ('{"post_id": "p2", "user_id": "u", "community": "c", "timestamp": "noon", "text": ""}',
     "bad post row: invalid literal for int()"),
    ('{"post_id": "p2", "user_id": "u", "community": "c", "timestamp": 0}',
     "bad post row: 'text'"),
], ids=["not_json", "not_object", "bad_timestamp", "missing_field"])
def test_bad_post_row_reports_line(tmp_path, text, message):
    # A blank line counts toward the line number and is skipped.
    path = tmp_path / "posts.ndjson"
    path.write_text('{"post_id": "p1", "user_id": "u", "community": "c", "timestamp": 0, '
                    f'"text": ""}}\n\n{text}\n')
    with pytest.raises(CorpusFormatError) as info:
        read_posts(path)
    assert str(info.value).startswith(f"{path}:3: {message}"), info.value


@pytest.mark.parametrize("field, value, message", [
    ("text", None, "text must be a string, got null"),
    ("text", 7, "text must be a string, got a number"),
    ("text", ["hi"], "text must be a string, got an array"),
    ("post_id", None, "post_id must be a string or a number, got null"),
    ("post_id", [1], "post_id must be a string or a number, got an array"),
    ("user_id", {"x": 1}, "user_id must be a string or a number, got an object"),
    ("user_id", False, "user_id must be a string or a number, got a boolean"),
    ("community", True, "community must be a string or a number, got a boolean"),
    ("timestamp", 1.7, "timestamp must be an integer, got 1.7"),
    ("timestamp", True, "timestamp must be an integer, got a boolean"),
    ("timestamp", None, "timestamp must be an integer, got null"),
    ("timestamp", {"t": 1}, "timestamp must be an integer, got an object"),
])
def test_post_field_of_the_wrong_kind_names_file_line_and_field(tmp_path, field, value,
                                                                message):
    row = {"post_id": "p1", "user_id": "u", "community": "c", "timestamp": 0, "text": "hi"}
    path = tmp_path / "posts.ndjson"
    path.write_text(json.dumps(row) + "\n" + json.dumps({**row, field: value}) + "\n")
    with pytest.raises(CorpusFormatError) as info:
        read_posts(path)
    assert str(info.value) == f"{path}:2: bad post row: {message}"


def test_post_ids_may_be_numbers_and_a_timestamp_a_whole_float(tmp_path):
    path = tmp_path / "posts.ndjson"
    path.write_text(json.dumps({"post_id": 7, "user_id": 8.5, "community": 0,
                                "timestamp": 3.0, "text": ""}) + "\n")
    post, = read_posts(path)
    assert (post.post_id, post.user_id, post.community, post.timestamp) == ("7", "8.5", "0", 3)
    assert type(post.timestamp) is int


@pytest.mark.parametrize("where", ["target", "context"])
def test_thread_post_field_of_the_wrong_kind_names_the_thread_line(tmp_path, where):
    post = {"post_id": "p", "user_id": "u", "community": "c", "timestamp": 0, "text": "Hi."}
    row = {"target": {**post, "timestamp": 5}, "context": [dict(post)], "label": "green"}
    (row["target"] if where == "target" else row["context"][0])["text"] = None
    path = tmp_path / "t.ndjson"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(CorpusFormatError) as info:
        read_threads(path)
    assert str(info.value) == f"{path}:1: bad thread row: text must be a string, got null"


@pytest.mark.parametrize("read, what", [(read_posts, "post"), (read_labels, "label"),
                                        (read_threads, "thread")],
                         ids=["posts", "labels", "threads"])
def test_line_that_is_not_utf8_names_file_and_line(tmp_path, read, what):
    # Bytes ff fe appended after a blank line: a decode error of that line,
    # not of the file.
    path = tmp_path / "rows.ndjson"
    path.write_bytes(b"\n\xff\xfe")
    with pytest.raises(CorpusFormatError) as info:
        read(path)
    assert str(info.value) == (f"{path}:2: bad {what} row: 'utf-8' codec can't decode "
                               "byte 0xff in position 0: invalid start byte")


@pytest.mark.parametrize("where", ["target", "context"])
def test_thread_with_a_bad_post_names_its_line_once(tmp_path, where):
    post = {"post_id": "p", "user_id": "u", "community": "c", "timestamp": 0, "text": "Hi."}
    row = {"target": {**post, "timestamp": 5}, "context": [dict(post)], "label": "green"}
    del (row["target"] if where == "target" else row["context"][0])["text"]
    path = tmp_path / "t.ndjson"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(CorpusFormatError) as info:
        read_threads(path)
    assert str(info.value) == f"{path}:1: bad thread row: 'text'"
    assert str(info.value).count(f"{path}:1") == 1


@pytest.mark.parametrize("label", [3, None, "purple", " Red ", "CRISIS", "Amber", "green "])
def test_thread_with_a_bad_label_reports_line(tmp_path, label):
    post = {"post_id": "p", "user_id": "u", "community": "c", "timestamp": 0, "text": "Hi."}
    path = tmp_path / "t.ndjson"
    path.write_text(json.dumps({"target": post, "label": label}) + "\n")
    with pytest.raises(CorpusFormatError,
                       match=rf"t\.ndjson:1: bad thread row: unknown risk label {label!r}"):
        read_threads(path)


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


def test_threads_late_context_post_reports_line(tmp_path):
    path = tmp_path / "threads.ndjson"
    write_threads(path, [ThreadInstance(make_post("t1", ts=10, text="Help?"), (), RiskLabel.AMBER)])
    row = {"target": {"post_id": "t2", "user_id": "u", "community": "c", "timestamp": 10,
                      "text": "Help?"},
           "context": [{"post_id": "c1", "user_id": "u", "community": "c", "timestamp": 10,
                        "text": "Same time."}],
           "label": "green"}
    with open(path, "a") as fh:
        fh.write(json.dumps(row) + "\n")
    with pytest.raises(CorpusFormatError, match=r"threads\.ndjson:2: bad thread row: "
                                                r"context post c1 is not earlier"):
        read_threads(path)


@pytest.mark.parametrize("row, message", [
    ({"user_id": "u2", "label": "depressed"}, "unknown user label 'depressed'"),
    ({"user_id": "u2", "label": DIAGNOSED}, "diagnosis_post_id must be present iff"),
    ({"user_id": "u2", "label": CONTROL, "diagnosis_post_id": "p1"},
     "diagnosis_post_id must be present iff"),
], ids=["unknown_label", "diagnosed_without_post", "control_with_post"])
def test_bad_label_row_reports_line(tmp_path, row, message):
    path = tmp_path / "labels.ndjson"
    path.write_text(json.dumps({"user_id": "u1", "label": CONTROL}) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(CorpusFormatError, match=rf"labels\.ndjson:2: bad label row: {message}"):
        read_labels(path)
