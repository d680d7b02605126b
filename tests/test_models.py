import contextlib
import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from triagekit import models
from triagekit.corpus import (
    HashedSentenceEncoder,
    Post,
    RiskLabel,
    ThreadInstance,
    split_sentences,
)
from triagekit.models import (
    RISK_VARIANTS,
    DepressionModel,
    DepressionModelConfig,
    RiskModel,
    RiskModelConfig,
    Selection,
    class_metric_loss,
    class_metric_ordinal_loss,
    instance_matrices,
    metric_classify,
    mse_classify,
    top_phrases,
)
from triagekit.nn import (
    AdamState,
    ParamNodes,
    ParamStore,
    SparseRows,
    adam_step,
    backward,
    concat,
    constant,
    conv1d,
    dense,
    finite_difference_check,
    flatten,
    glorot_uniform,
    max_pool,
    mean_rows,
    pick,
    relu,
    save_checkpoint,
    softmax,
)
from triagekit.traineval import TrainConfig, thread_matrices, train_risk

from test_corpus import dense_encode
from test_nn import textbook_conv1d


def tiny_depression_config(**overrides):
    fields = dict(vocab_size=8, embed_dim=3, conv_window=2, conv_filters=2,
                  merge_window=3, merge_stride=3, merge_filters=2,
                  dense_dims=(3,), n_term=6)
    fields.update(overrides)
    return DepressionModelConfig(**fields)


# -- depression model: post and user encoders -----------------------------------
# One forward per user: `_forward` returns the logits and each post's first
# and past-last row in the user's feature map; given a list, it appends each
# chunk's map to it.

def forward(model, posts, nodes):
    """Logits, the feature map of a user within one chunk (None if no post
    fills a window), and each post's first and past-last row in it."""
    maps = []
    logits, starts, stops = model._forward(posts, nodes, maps=maps)
    assert len(maps) <= 1
    return logits, maps[0] if maps else None, starts, stops


def readout_model(cfg, seed=0):
    """A model whose diagnosed logit is the user vector's one entry: a single
    merge filter, then a 1-unit identity dense layer."""
    model = DepressionModel(cfg, seed=seed)
    model.params["dense0.w"][...] = [[1.0]]
    model.params["dense0.b"][...] = 0.0
    model.params["out.w"][...] = [[0.0], [1.0]]
    return model


def test_encode_post_hand_trace():
    cfg = tiny_depression_config(vocab_size=5, embed_dim=1, conv_window=3,
                                 conv_filters=1, merge_window=2, merge_stride=2,
                                 merge_filters=1, dense_dims=(1,))
    model = readout_model(cfg)
    model.params["emb"][...] = [[0.0], [0.0], [1.0], [2.0], [0.0]]
    model.params["conv.w"][...] = 1.0
    model.params["conv.b"][...] = 0.5
    model.params["merge.w"][...] = [[[1.0], [0.0]]]     # the user vector is post 0's
    model.params["merge.b"][...] = 0.0
    logits, feat, starts, stops = forward(model, [[2, 3, 2, 3]], ParamNodes(model.params))
    # windows: (1+2+1)+0.5 = 4.5 and (2+1+2)+0.5 = 5.5; averaged = 5.0
    assert (starts.tolist(), stops.tolist()) == ([0], [2])
    assert feat.value.ravel() == pytest.approx([4.5, 5.5])
    assert logits.value == pytest.approx([0.0, 5.0])


def test_encode_post_short_post_is_zero():
    model = DepressionModel(tiny_depression_config(conv_window=3), seed=4)
    model.params["out.w"][...] = np.random.default_rng(4).standard_normal((2, 3))
    nodes = ParamNodes(model.params)
    zero_user = depression_reference_logits(dict(model.params.items()), model.config, [[]])
    for tokens in ([2, 3], []):
        logits, feat, starts, stops = forward(model, [tokens], nodes)
        assert feat is None and starts.tolist() == stops.tolist() == [0]
        np.testing.assert_allclose(logits.value, zero_user, rtol=1e-12, atol=1e-12)
    # Beside a post that fills a window, a short post has an empty range and
    # changes nothing.
    with_short = forward(model, [[2, 3, 4, 5], [2, 3]], nodes)
    alone = forward(model, [[2, 3, 4, 5], []], nodes)
    assert (with_short[2].tolist(), with_short[3].tolist()) == ([0, 4], [2, 4])
    assert np.array_equal(with_short[0].value, alone[0].value)
    assert np.array_equal(with_short[1].value, alone[1].value)


def test_encode_post_deterministic():
    model = DepressionModel(tiny_depression_config())
    model.params["out.w"][...] = np.random.default_rng(2).standard_normal((2, 3))
    nodes = ParamNodes(model.params)
    a = forward(model, [[2, 3, 4, 5], [6, 7, 2]], nodes)
    b = forward(model, [[2, 3, 4, 5], [6, 7, 2]], nodes)
    assert np.array_equal(a[0].value, b[0].value)
    assert np.array_equal(a[1].value, b[1].value)


def test_encode_post_truncates_to_n_term():
    model = DepressionModel(tiny_depression_config(n_term=4))
    model.params["out.w"][...] = np.random.default_rng(3).standard_normal((2, 3))
    nodes = ParamNodes(model.params)
    a, b = (forward(model, [[2, 3, 4, 5]], nodes),
            forward(model, [[2, 3, 4, 5, 6, 7, 2, 3]], nodes))
    assert np.array_equal(a[0].value, b[0].value)
    assert np.array_equal(a[1].value, b[1].value)
    assert (b[2].tolist(), b[3].tolist()) == ([0], [3])


def merge_only_model():
    """Post [v, v] encodes to v (one window reading the first token's id);
    the merge sums each window of post vectors."""
    cfg = tiny_depression_config(conv_filters=1, merge_window=3, merge_stride=3,
                                 merge_filters=1, dense_dims=(1,))
    model = readout_model(cfg)
    model.params["emb"][...] = 0.0
    model.params["emb"][:, 0] = np.arange(cfg.vocab_size)
    model.params["conv.w"][...] = 0.0
    model.params["conv.w"][0, 0, 0] = 1.0
    model.params["conv.b"][...] = 0.0
    model.params["merge.w"][...] = 1.0
    model.params["merge.b"][...] = 0.0
    return model


def user_vector(model, post_values):
    posts = [[v, v] for v in post_values]
    return model._forward(posts, ParamNodes(model.params))[0].value[1]


def test_encode_user_single_window():
    assert user_vector(merge_only_model(), (1, 2, 3)) == pytest.approx(6.0)


def test_encode_user_two_windows_averaged():
    # windows sum to 6 and 15; averaged = 10.5
    assert user_vector(merge_only_model(), (1, 2, 3, 4, 5, 6)) == pytest.approx(10.5)


def test_encode_user_pads_short_users():
    assert user_vector(merge_only_model(), (3,)) == pytest.approx(3.0)


def test_encode_user_constant_filter_permutation_invariance():
    rng = np.random.default_rng(3)
    cfg = tiny_depression_config(conv_filters=3, merge_window=3, merge_stride=3,
                                 merge_filters=2)
    model = DepressionModel(cfg, seed=1)
    model.params["out.w"][...] = rng.standard_normal((2, 3))
    # constant across window positions: permuting posts inside a window is a
    # no-op, although it changes the windows that straddle two posts
    model.params["merge.w"][...] = np.repeat(
        rng.standard_normal((3, 1, 2)), 3, axis=1)
    nodes = ParamNodes(model.params)
    block = [rng.integers(0, cfg.vocab_size, size=n) for n in (3, 5, 2)]
    base = model.logits(block, nodes).value
    for perm in ([1, 0, 2], [2, 1, 0], [2, 0, 1]):
        permuted = model.logits([block[i] for i in perm], nodes).value
        assert np.allclose(base, permuted, atol=1e-12)


def random_user(rng, cfg, n_posts, lengths):
    return [rng.integers(0, cfg.vocab_size, size=int(rng.integers(*lengths)))
            for _ in range(n_posts)]


def test_batched_logits_match_per_post_reference():
    # The reference encodes post by post with `textbook_conv1d`, as the
    # paper's model reads; only the order of summation differs.
    rng = np.random.default_rng(23)
    cfg = tiny_depression_config(embed_dim=4, conv_window=3, conv_filters=3,
                                 merge_window=4, merge_stride=2, n_term=7)
    model = DepressionModel(cfg, seed=6)
    model.params["out.w"][...] = rng.standard_normal((2, 3))
    params = dict(model.params.items())
    users = {
        "mixed short posts": random_user(rng, cfg, 9, (0, 7)),
        "posts over n_term": random_user(rng, cfg, 6, (8, 20)),
        "fewer posts than merge_window": random_user(rng, cfg, 2, (3, 12)),
        "all posts short": random_user(rng, cfg, 5, (0, 3)),
        "one post of one window": [[2, 3, 4]],
    }
    for what, posts in users.items():
        logits = model.logits(posts, ParamNodes(model.params)).value
        expected = depression_reference_logits(params, cfg, posts)
        np.testing.assert_allclose(logits, expected, rtol=1e-12, atol=1e-12, err_msg=what)


def test_depression_forward_is_one_graph_per_user(monkeypatch):
    calls = {}

    def counted(name):
        op = getattr(models, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return op(*args, **kwargs)
        return wrapper

    for name in ("embedding_lookup", "conv1d", "stack_rows", "constant"):
        monkeypatch.setattr(models, name, counted(name))
    model = DepressionModel(tiny_depression_config())
    rng = np.random.default_rng(8)
    for n_posts in (1, 4, 40):
        calls.clear()
        model.loss(random_user(rng, model.config, n_posts, (0, 10)) + [[2, 3]], 1,
                   ParamNodes(model.params))
        assert calls == {"conv1d": 2}, n_posts


@pytest.mark.parametrize("overrides, posts", [
    ({}, [[2, 3, 4, 5, 6, 7, 2, 3], [6, 7, 2], [5], []]),       # over n_term, short
    ({"conv_window": 1}, [[2, 3], [4], [5, 6, 7]]),            # adjacent post ranges
    ({"merge_window": 2, "merge_stride": 1}, [[4, 5, 6], [3, 2, 7, 5]]),
    ({}, [[2], [3]]),                                          # no post fills a window
], ids=["over_n_term_and_short", "window_1", "merge_stride_1", "all_short"])
def test_depression_gradients_of_one_user_graph(overrides, posts):
    rng = np.random.default_rng(12)
    model = DepressionModel(tiny_depression_config(**overrides), seed=3)
    model.params["out.w"][...] = rng.standard_normal((2, 3)) * 0.5
    # Biases off zero keep the ReLUs of an all-zero input off their kink.
    for name in ("conv.b", "merge.b", "dense0.b"):
        model.params[name][...] = rng.uniform(0.05, 0.2, model.params[name].shape)

    def loss_fn(nodes):
        return model.loss(posts, 0, nodes, train=False)

    worst = finite_difference_check(loss_fn, model.params)
    assert max(worst.values()) < 1e-4, worst


def test_depression_config_rejects_n_term_below_the_window():
    with pytest.raises(ValueError, match="n_term must cover one convolution window"):
        tiny_depression_config(n_term=2, conv_window=3)
    assert tiny_depression_config(n_term=3, conv_window=3).n_term == 3


# -- depression model: classification -------------------------------------------

def test_untrained_model_is_uniform():
    model = DepressionModel(tiny_depression_config(), seed=5)
    probs = model.classify_user([[2, 3, 4], [5, 6]])
    assert np.array_equal(probs, [0.5, 0.5])


def test_classify_output_is_distribution():
    model = DepressionModel(tiny_depression_config(), seed=5)
    rng = np.random.default_rng(0)
    model.params["out.w"][...] = rng.standard_normal((2, 3))
    probs = model.classify_user([[2, 3, 4, 5], [6, 7]])
    assert abs(probs.sum() - 1.0) <= 1e-9
    assert np.all(probs > 0)


def test_classify_empty_user_errors():
    model = DepressionModel(tiny_depression_config())
    with pytest.raises(ValueError, match="no usable posts"):
        model.classify_user([])


def test_depression_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    model = DepressionModel(tiny_depression_config(), seed=7)
    model.params["out.w"][...] = rng.standard_normal((2, 3)) * 0.5
    posts = [[2, 3, 4, 5], [6, 7, 2], [5]]

    def loss_fn(nodes):
        return model.loss(posts, 1, nodes, train=False)

    worst = finite_difference_check(loss_fn, model.params)
    assert max(worst.values()) < 1e-4, worst


def test_depression_checkpoint_round_trip(tmp_path):
    model = DepressionModel(tiny_depression_config(), seed=9)
    rng = np.random.default_rng(1)
    model.params["out.w"][...] = rng.standard_normal((2, 3))
    path = tmp_path / "dep.ckpt.json"
    model.save(path, seed=9, step=42)
    loaded, seed, step = DepressionModel.load(path)
    assert (seed, step) == (9, 42)
    assert loaded.config == model.config
    posts = [[2, 3, 4], [5, 6, 7]]
    assert np.allclose(loaded.classify_user(posts),
                       model.classify_user(posts), atol=1e-5)


# -- serving: a forward under no_grad --------------------------------------------

def perturbed(model, rng):
    """Every parameter off its init, biases included, so that each ReLU has
    units on both sides of zero."""
    for _, arr in model.params.items():
        arr[...] = rng.uniform(-0.5, 0.5, arr.shape)
    return model


@pytest.mark.parametrize("kind", ["depression", *RISK_VARIANTS])
def test_serving_returns_the_bits_of_a_graph_forward(kind, monkeypatch):
    rng = np.random.default_rng(31)
    if kind == "depression":
        model = perturbed(DepressionModel(tiny_depression_config(n_term=12)), rng)
        requests = [(random_user(rng, model.config, n, (0, 15)),) for n in (1, 4, 7)]
        serve = model.classify_user
    else:
        model = perturbed(RiskModel(tiny_risk_config(kind)), rng)
        requests = [rand_instance_mats(rng, model.config) for _ in range(3)]
        serve = model.predict
    parents = []                                # of each dense layer's output node

    def recorded(*args):
        node = dense(*args)
        parents.append(node.parents)
        return node

    monkeypatch.setattr(models, "dense", recorded)
    served = [serve(*request) for request in requests]
    assert parents and all(p == () for p in parents)
    # The same calls with no_grad switched off build the whole graph.
    monkeypatch.setattr(models, "no_grad", contextlib.nullcontext)
    parents.clear()
    for request, got in zip(requests, served):
        want = serve(*request)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), request
    assert all(len(p) == 3 for p in parents)


def test_classify_user_holds_no_embedding_block():
    # 520 posts of 100 kept tokens: T = 52,000 rows of 50 floats is 20.8 MB.
    # A forward that keeps its graph holds the rows, the conv output and the
    # ReLU's, about 2x that.
    model = DepressionModel(DepressionModelConfig(vocab_size=5000), seed=1)
    rng = np.random.default_rng(32)
    posts = [rng.integers(2, 5000, 100) for _ in range(520)]
    model.classify_user(posts[:20])             # numpy's first-call allocations stay out
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model.classify_user(posts)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 52_000 * model.config.embed_dim * 8, peak - start
    assert end - start < 1_000_000, end - start


# -- depression model: the first stage in chunks of whole posts ------------------
# `models._CHUNK` set small splits these users into several chunks; at its
# value every test and benchmark training user is one chunk.

CHUNKED_USERS = {
    "over n_term and short": [[2, 3, 4, 5, 6, 7, 2, 3], [6, 7, 2], [5], [], [4, 4, 2, 7, 3],
                              [3, 2, 6, 5, 4, 3, 2], [7, 7], [5, 6, 2, 3]],
    "fewer posts than merge_window": [[2, 3, 4, 5, 6, 7], [6, 7, 2, 4, 4, 5]],
    "short posts at the end": [[2, 3, 4], [5, 6, 7, 2], [3, 4, 5], [2], []],
    "many posts": [[int(t) for t in np.random.default_rng(p).integers(0, 8, 2 + p % 7)]
                   for p in range(40)],
}


def chunk_sizes(model, posts, monkeypatch):
    """The id count of each first-stage `conv1d` a forward makes."""
    sizes = []

    def recorded(x, w, b, stride=1, ids=None):
        if ids is not None:
            sizes.append(len(ids))
        return conv1d(x, w, b, stride=stride, ids=ids)

    monkeypatch.setattr(models, "conv1d", recorded)
    model.logits(posts, ParamNodes(model.params))
    monkeypatch.setattr(models, "conv1d", conv1d)
    return sizes


def test_chunks_hold_whole_posts_up_to_the_limit(monkeypatch):
    # Kept positions 6, 6, 3, 0 and 6 with a limit of 10: the posts go in
    # chunks of 6, then 6 + 3 + 0, then 6, and the one chunk at the default.
    model = DepressionModel(tiny_depression_config(), seed=1)
    posts = [[2, 3, 4, 5, 6, 7, 2], [3, 4, 5, 6, 7, 2], [4, 5, 6], [7], [2, 2, 3, 3, 4, 4]]
    assert chunk_sizes(model, posts, monkeypatch) == [21]
    monkeypatch.setattr(models, "_CHUNK", 10)
    assert chunk_sizes(model, posts, monkeypatch) == [6, 9, 6]
    # A limit under n_term counts as n_term, so every post fits a chunk.
    monkeypatch.setattr(models, "_CHUNK", 1)
    assert chunk_sizes(model, posts, monkeypatch) == [6, 6, 3, 6]


@pytest.mark.parametrize("limit", [1, 7, 13])
def test_chunked_serving_is_bit_identical_to_one_chunk(monkeypatch, limit):
    model = perturbed(DepressionModel(tiny_depression_config()), np.random.default_rng(5))
    whole = {what: model.classify_user(posts) for what, posts in CHUNKED_USERS.items()}
    monkeypatch.setattr(models, "_CHUNK", limit)
    for what, posts in CHUNKED_USERS.items():
        assert model.classify_user(posts).tobytes() == whole[what].tobytes(), what


def test_chunked_training_step_agrees_with_one_chunk(monkeypatch):
    # The forward is the same arithmetic; the backward sums the table's rows,
    # the kernel and the bias over the chunks in another order.
    model = perturbed(DepressionModel(tiny_depression_config()), np.random.default_rng(6))

    def step(posts):
        nodes = ParamNodes(model.params)
        loss = model.loss(posts, 1, nodes)
        backward(loss)
        return loss.value, {name: np.asarray(g) for name, g in nodes.grads().items()}

    for what, posts in CHUNKED_USERS.items():
        loss, grads = step(posts)
        monkeypatch.setattr(models, "_CHUNK", 7)
        chunked_loss, chunked = step(posts)
        monkeypatch.setattr(models, "_CHUNK", 8192)
        assert chunked_loss.tobytes() == loss.tobytes(), what
        assert chunked.keys() == grads.keys(), what
        for name, g in grads.items():
            scale = max(np.abs(g).max(), 1e-300)
            assert np.abs(chunked[name] - g).max() <= 1e-12 * scale, (what, name)
            if name not in ("emb", "conv.w", "conv.b"):
                assert chunked[name].tobytes() == g.tobytes(), (what, name)


def test_gradients_through_a_chunked_user_match_finite_differences(monkeypatch):
    rng = np.random.default_rng(13)
    model = DepressionModel(tiny_depression_config(), seed=2)
    model.params["out.w"][...] = rng.standard_normal((2, 3)) * 0.5
    for name in ("conv.b", "merge.b", "dense0.b"):
        model.params[name][...] = rng.uniform(0.05, 0.2, model.params[name].shape)
    monkeypatch.setattr(models, "_CHUNK", 7)
    posts = CHUNKED_USERS["over n_term and short"]
    assert len(chunk_sizes(model, posts, monkeypatch)) > 2

    def loss_fn(nodes):
        return model.loss(posts, 0, nodes, train=False)

    worst = finite_difference_check(loss_fn, model.params)
    assert max(worst.values()) < 1e-4, worst


def reference_top_phrase(model, post_ids, posts):
    """One user's best (post id, window, score) read off a graph that runs
    through the embedding convolution and a graph-mode ReLU, whose whole
    feature map's gradient is taken: the formulation top_phrases had before
    its first stage ran under no_grad."""
    c, k = model.config, model.config.conv_window
    kept = [list(p)[:c.n_term] if len(p) >= k else [] for p in posts]
    lengths = np.array([len(p) for p in kept] + [0] * (c.merge_window - len(posts)))
    lengths = lengths[:max(len(posts), c.merge_window)]
    starts = np.cumsum(lengths) - lengths
    stops = starts + np.maximum(lengths - (k - 1), 0)
    nodes = ParamNodes(model.params)
    feat = relu(conv1d(nodes("emb"), nodes("conv.w"), nodes("conv.b"),
                       ids=[t for p in kept for t in p]))
    post_vecs = mean_rows(feat, starts, stops)
    h = mean_rows(relu(conv1d(post_vecs, nodes("merge.w"), nodes("merge.b"),
                              stride=c.merge_stride)))
    backward(pick(models._head(h, nodes, c, False, None), 1))
    contribution = (feat.value * feat.grad).max(axis=1)
    i = max(np.flatnonzero(stops[:len(posts)] > starts[:len(posts)]),
            key=lambda i: contribution[starts[i]:stops[i]].max())
    window = contribution[starts[i]:stops[i]]
    row = int(np.argmax(window))
    return post_ids[i], tuple(int(t) for t in kept[i][row:row + k]), float(window[row])


@pytest.mark.parametrize("weights, sign", [("perturbed", None), ("zero_map", 1.0),
                                           ("zero_map_flipped_head", -1.0)])
@pytest.mark.parametrize("limit", [8192, 7])
def test_top_phrases_reads_the_triples_of_a_whole_graph(monkeypatch, weights, sign, limit):
    filters = 2 if sign is None else 1
    model = perturbed(DepressionModel(tiny_depression_config(conv_filters=filters)),
                      np.random.default_rng(9))
    if sign is not None:
        # -0.0 rows times a positive kernel, plus a -0.0 bias: every window
        # of the one filter reads -0.0, which the graph's ReLU turns to +0.0.
        # Every user's best window is then a zero with the sign of its
        # gradient, the same for every user, which flipping the output layer
        # flips.
        model.params["emb"][...] = -0.0
        model.params["conv.w"][...] = np.abs(model.params["conv.w"])
        model.params["conv.b"][...] = -0.0
        model.params["out.w"][...] *= sign
    users = [([f"{what}/{i}" for i in range(len(posts))], posts)
             for what, posts in CHUNKED_USERS.items()]
    want = sorted((reference_top_phrase(model, *user) for user in users),
                  key=lambda t: (-t[2], t[0]))
    monkeypatch.setattr(models, "_CHUNK", limit)
    got = top_phrases(model, users, m=len(users))
    assert [(pid, w, s.hex()) for pid, w, s in got] == [(pid, w, s.hex()) for pid, w, s in want]
    if sign is not None:
        assert {math.copysign(1.0, s) for _, _, s in got} == {sign}, got


def test_classify_user_at_the_cap_holds_one_chunk_of_its_feature_map():
    # 1500 posts of 100 ids drawn by Zipf's law from a vocabulary of 60k: the
    # whole [150k x 25] feature map would be 30 MB, and one 8192-position
    # chunk's map is 1.6 MB.
    model = DepressionModel(DepressionModelConfig(vocab_size=60_000), seed=1)
    weights = 1.0 / np.arange(1, 60_001)
    ranks = np.searchsorted(np.cumsum(weights) / weights.sum(),
                            np.random.default_rng(41).random(150_000))
    user = Selection(ranks.astype(np.int32), np.full(1500, 100))
    model.classify_user(Selection(user.ids[:2000], user.lengths[:20]))  # first-call allocations
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model.classify_user(user)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 3_000_000, peak - start
    assert end - start < 100_000, end - start


def test_non_finite_embedding_row_names_the_op_and_training_builds_a_graph():
    model = DepressionModel(tiny_depression_config(), seed=4)
    posts = [[2, 3, 4, 5], [6, 7, 3]]
    row = model.params["emb"][3].copy()
    model.params["emb"][3, 1] = np.inf          # written past the store's checks
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match="non-finite values in conv1d op output"):
        model.classify_user(posts)
    model.params["emb"][3] = row
    nodes = ParamNodes(model.params)
    loss = model.loss(posts, 1, nodes)
    assert loss.parents != ()
    backward(loss)
    assert {"emb", "conv.w", "conv.b"} <= set(nodes.grads())


# -- depression model: phrase attribution ----------------------------------------

def planted_trigram_model():
    cfg = tiny_depression_config(vocab_size=6, embed_dim=6, conv_window=3,
                                 conv_filters=1, merge_window=2, merge_stride=2,
                                 merge_filters=1, dense_dims=(1,), n_term=10)
    model = DepressionModel(cfg, seed=0)
    model.params["emb"][...] = np.eye(6)
    w = np.zeros((6, 3, 1))
    w[2, 0, 0] = w[3, 1, 0] = w[4, 2, 0] = 1.0   # fires on token ids (2, 3, 4)
    model.params["conv.w"][...] = w
    model.params["conv.b"][...] = -2.5
    model.params["merge.w"][...] = 1.0
    model.params["merge.b"][...] = 0.0
    model.params["dense0.w"][...] = [[1.0]]
    model.params["dense0.b"][...] = 0.0
    model.params["out.w"][...] = [[0.0], [1.0]]
    return model


def test_top_phrases_finds_planted_trigram():
    model = planted_trigram_model()
    users = [
        (["a", "b"], [[5, 5, 2, 3, 4, 5], [5, 5, 5, 5]]),
        (["c"], [[5, 2, 5, 3, 5, 4]]),
    ]
    ranked = top_phrases(model, users, m=2)
    assert ranked[0][0] == "a"
    assert ranked[0][1] == (2, 3, 4)
    assert ranked[0][2] > 0
    assert ranked[1][2] <= 0


def test_top_phrases_zero_model_scores_zero():
    model = DepressionModel(tiny_depression_config(), seed=2)
    users = [(["a"], [[2, 3, 4, 5]]), (["b"], [[6, 7, 2]])]
    ranked = top_phrases(model, users, m=10)
    assert len(ranked) == 2
    assert all(score == 0.0 for _, _, score in ranked)


def test_top_phrases_caps_at_available():
    model = DepressionModel(tiny_depression_config(), seed=2)
    ranked = top_phrases(model, [(["a"], [[2, 3, 4]])], m=50)
    assert len(ranked) == 1


@pytest.mark.parametrize("m", [0, -1])
def test_top_phrases_rejects_fewer_than_one(m):
    model = planted_trigram_model()
    users = [(["a"], [[5, 2, 3, 4]]) for _ in range(4)]
    assert len(top_phrases(model, users, m=1)) == 1
    with pytest.raises(ValueError, match="at least 1"):
        top_phrases(model, users, m=m)


@pytest.mark.parametrize("cls, config", [
    (DepressionModel, tiny_depression_config()),
    (DepressionModel, tiny_depression_config(dense_dims=(), conv_window=3, merge_stride=1)),
    (DepressionModel, DepressionModelConfig(vocab_size=50)),
    *[(RiskModel, RiskModelConfig(variant, sentence_dim=7, conv_filters=3, pool_n=2,
                                  dense_dims=dims, max_sentences=6))
      for variant in RISK_VARIANTS for dims in ((5, 4), ())
      if dims or variant in ("cat_ce", "mse")],
], ids=["depression", "depression_no_dense", "depression_default",
        "cat_ce", "cat_ce_no_dense", "mse", "mse_no_dense", "class_metric",
        "class_metric_ordinal"])
def test_param_shapes_are_the_shapes_a_model_is_built_with(cls, config):
    # Checkpoint loading checks against these shapes, which no second
    # parameter set is built for.
    assert list(cls.param_shapes(config).items()) == [
        (name, arr.shape) for name, arr in cls(config).params.items()]


@pytest.mark.parametrize("fault, message", [
    ("other_config", "parameter 'conv.w' has shape (7, 3, 3), its config gives (7, 3, 4)"),
    ("missing", "checkpoint has no parameter 'out.b', its config gives shape (4,)"),
    ("extra", "parameter 'spare' is not one its config gives"),
], ids=["other_config", "missing", "extra"])
def test_checkpoint_shapes_must_be_its_configs(tmp_path, fault, message):
    config = RiskModelConfig("cat_ce", sentence_dim=7, conv_filters=3, pool_n=2,
                             dense_dims=(5,), max_sentences=6)
    params = RiskModel(config).params
    if fault == "other_config":
        config = RiskModelConfig("cat_ce", sentence_dim=7, conv_filters=4, pool_n=2,
                                 dense_dims=(5,), max_sentences=6)
    else:
        kept = ParamStore()
        for name, arr in params.items():
            if not (fault == "missing" and name == "out.b"):
                kept.add(name, arr)
        if fault == "extra":
            kept.add("spare", np.zeros(2))
        params = kept
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, params, {"kind": "risk:cat_ce", **asdict(config)}, 0, 0)
    with pytest.raises(ValueError) as exc:
        RiskModel.load(path)
    assert str(exc.value) == f"{path}: {message}"


# -- risk model ------------------------------------------------------------------

def tiny_risk_config(variant, **overrides):
    fields = dict(sentence_dim=4, conv_filters=2, dense_dims=(4, 3),
                  max_sentences=5, pool_n=2, dropout=0.25)
    fields.update(overrides)
    return RiskModelConfig.for_variant(variant, **fields)


def rand_instance_mats(rng, cfg):
    return (rng.standard_normal((cfg.max_sentences, cfg.sentence_dim)),
            rng.standard_normal((cfg.max_sentences, cfg.sentence_dim)))


def test_for_variant_table_defaults():
    cat = RiskModelConfig.for_variant("cat_ce")
    assert (cat.conv_filters, cat.dense_dims, cat.dropout, cat.balance) == \
        (150, (250, 250), 0.3, "weighted")
    mse = RiskModelConfig.for_variant("mse")
    assert (mse.conv_filters, mse.dense_dims, mse.dropout, mse.balance) == \
        (100, (250, 250), 0.5, "sampled")
    metric = RiskModelConfig.for_variant("class_metric")
    assert (metric.conv_filters, metric.dense_dims, metric.dropout,
            metric.margin) == (100, (150, 150), 0.3, 1.0)
    ordinal = RiskModelConfig.for_variant("class_metric_ordinal")
    assert (ordinal.dense_dims, ordinal.margin) == ((150, 150), 0.5)
    assert metric.output_dim == 150 and cat.output_dim == 4 and mse.output_dim == 1
    with pytest.raises(ValueError, match="variant"):
        RiskModelConfig.for_variant("huber")


def test_risk_forward_hand_trace():
    cfg = tiny_risk_config("mse", sentence_dim=2, conv_filters=1,
                           dense_dims=(1,), max_sentences=3, pool_n=3,
                           dropout=0.0)
    model = RiskModel(cfg, seed=0)
    model.params["conv.w"][...] = 1.0
    model.params["conv.b"][...] = 0.0
    model.params["dense0.w"][...] = [[0.5, 2.0]]
    model.params["dense0.b"][...] = 0.25
    model.params["out.w"][...] = [[2.0]]
    model.params["out.b"][...] = -1.0
    target = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    context = np.zeros((3, 2))
    out = model.forward(target, context, ParamNodes(model.params))
    # towers: relu(4)=4 and relu(0)=0; dense: 4*0.5+0.25=2.25; out: 2*2.25-1
    assert out.value == pytest.approx([3.5])
    assert model.classify(target, context) == RiskLabel.CRISIS


def test_risk_cat_ce_head_is_distribution():
    cfg = tiny_risk_config("cat_ce")
    model = RiskModel(cfg, seed=1)
    rng = np.random.default_rng(2)
    model.params["out.w"][...] = rng.standard_normal(model.params["out.w"].shape)
    target, context = rand_instance_mats(rng, cfg)
    probs = softmax(model.forward(target, context, ParamNodes(model.params)).value)
    assert abs(probs.sum() - 1.0) <= 1e-9
    assert model.classify(target, context) == RiskLabel(int(np.argmax(probs)))


@pytest.mark.parametrize("variant", RISK_VARIANTS)
def test_risk_predict_label_and_score(variant):
    cfg = tiny_risk_config(variant)
    model = RiskModel(cfg, seed=6)
    rng = np.random.default_rng(7)
    model.params["out.w"][...] = rng.standard_normal(model.params["out.w"].shape)
    target, context = rand_instance_mats(rng, cfg)
    out = model.forward(target, context, ParamNodes(model.params)).value
    label, score = model.predict(target, context)
    assert label == model.classify(target, context)
    if variant == "cat_ce":
        assert label == int(np.argmax(out)) and score == softmax(out)[label]
    elif variant == "mse":
        assert label == mse_classify(float(out[0])) and score == out[0]
    else:
        classes = model.params["classes"]
        assert label == metric_classify(out, classes)
        assert score == pytest.approx(-np.linalg.norm(classes[label] - out))


def test_risk_eval_is_deterministic():
    cfg = tiny_risk_config("cat_ce", dropout=0.4)
    model = RiskModel(cfg, seed=3)
    rng = np.random.default_rng(4)
    target, context = rand_instance_mats(rng, cfg)
    nodes = ParamNodes(model.params)
    a = model.forward(target, context, nodes).value
    b = model.forward(target, context, nodes).value
    assert np.array_equal(a, b)


def test_risk_rejects_bad_shapes():
    cfg = tiny_risk_config("cat_ce")
    model = RiskModel(cfg)
    with pytest.raises(ValueError, match="input shape"):
        model.forward(np.zeros((2, cfg.sentence_dim)),
                      np.zeros((cfg.max_sentences, cfg.sentence_dim)),
                      ParamNodes(model.params))


@pytest.mark.parametrize("variant", ["cat_ce", "mse", "class_metric",
                                     "class_metric_ordinal"])
def test_risk_gradients_match_finite_differences(variant):
    cfg = tiny_risk_config(variant, dense_dims=(3, 3), conv_filters=2,
                           sentence_dim=3, max_sentences=4, pool_n=2,
                           dropout=0.3)
    model = RiskModel(cfg, seed=5)
    rng = np.random.default_rng(6)
    model.params["out.w"][...] = rng.standard_normal(
        model.params["out.w"].shape) * 0.5
    target, context = rand_instance_mats(rng, cfg)

    def loss_fn(nodes):
        return model.loss(target, context, 1, nodes, train=True,
                          rng=np.random.default_rng(97), negative=3)

    loss = loss_fn(ParamNodes(model.params))
    assert float(loss.value) > 1e-3  # keep away from hinge/ReLU kinks
    worst = finite_difference_check(loss_fn, model.params)
    assert max(worst.values()) < 1e-4, (variant, worst)


def test_risk_loss_variants_dispatch():
    rng = np.random.default_rng(8)
    for variant in ("cat_ce", "mse", "class_metric", "class_metric_ordinal"):
        cfg = tiny_risk_config(variant)
        model = RiskModel(cfg, seed=9)
        target, context = rand_instance_mats(rng, cfg)
        nodes = ParamNodes(model.params)
        negative = 2 if variant.startswith("class_metric") else None
        loss = model.loss(target, context, 0, nodes, train=False,
                          negative=negative)
        assert float(loss.value) >= 0.0
    with pytest.raises(ValueError, match="negative"):
        cfg = tiny_risk_config("class_metric")
        model = RiskModel(cfg)
        target, context = rand_instance_mats(rng, cfg)
        model.loss(target, context, 0, ParamNodes(model.params), train=False)


def test_risk_checkpoint_round_trip(tmp_path):
    cfg = tiny_risk_config("class_metric_ordinal")
    model = RiskModel(cfg, seed=10)
    rng = np.random.default_rng(11)
    model.params["out.w"][...] = rng.standard_normal(model.params["out.w"].shape)
    path = tmp_path / "risk.ckpt.json"
    model.save(path, seed=10, step=7)
    loaded, seed, step = RiskModel.load(path)
    assert (seed, step) == (10, 7)
    assert loaded.config == model.config
    target, context = rand_instance_mats(rng, cfg)
    assert loaded.classify(target, context) == model.classify(target, context)
    with pytest.raises(ValueError, match="not a"):
        DepressionModel(tiny_depression_config()).save(tmp_path / "dep.json")
        RiskModel.load(tmp_path / "dep.json")


# -- instance preparation ----------------------------------------------------------

def make_thread(target_text, context_texts=()):
    context = tuple(Post(f"c{i}", "u2", "forum", i, text)
                    for i, text in enumerate(context_texts))
    target = Post("t", "u1", "forum", 100, target_text)
    return ThreadInstance(target, context, RiskLabel.GREEN)


def dense_instance_matrices(instance, encoder, max_sentences):
    """The risk inputs as dense [max_sentences x dim] matrices, a sentence
    vector a row, zero-padded at the front: the reference for the sparse
    build."""
    def matrix(sentences):
        kept = sentences[-max_sentences:]
        mat = np.zeros((max_sentences, encoder.dim))
        for i, sentence in enumerate(kept):
            mat[max_sentences - len(kept) + i] = dense_encode(encoder, sentence)
        return mat

    context = [s for post in instance.context for s in split_sentences(post.text)]
    return matrix(split_sentences(instance.target.text)), matrix(context)


def test_instance_matrices_shapes_and_padding():
    enc = HashedSentenceEncoder(dim=8)
    inst = make_thread("One sentence here. And another one!", ["Earlier post."])
    target, context = map(np.asarray, instance_matrices(inst, enc, max_sentences=4))
    assert target.shape == (4, 8) and context.shape == (4, 8)
    # two target sentences occupy the last two rows; the first two are padding
    assert np.array_equal(target[:2], np.zeros((2, 8)))
    assert np.linalg.norm(target[2]) > 0 and np.linalg.norm(target[3]) > 0
    assert np.array_equal(context[:3], np.zeros((3, 8)))


def test_instance_matrices_keep_last_sentences():
    enc = HashedSentenceEncoder(dim=8)
    sentences = [f"Sentence number {i} is here." for i in range(6)]
    inst = make_thread(" ".join(sentences))
    target, _ = instance_matrices(inst, enc, max_sentences=3)
    expected = np.stack([dense_encode(enc, s) for s in sentences[-3:]])
    assert np.allclose(np.asarray(target), expected)


def test_instance_matrices_empty_context_is_zero():
    enc = HashedSentenceEncoder(dim=8)
    _, context = instance_matrices(make_thread("Hello there."), enc, 4)
    assert np.array_equal(context, np.zeros((4, 8)))


class PostsBySentence:
    """`encode_post` of a duck-typed encoder: its `encode` of each sentence."""

    def encode_post(self, text):
        return tuple(map(self.encode, split_sentences(text)))


class ZeroValuedEncoder(PostsBySentence):
    """A duck-typed encoder whose (cols, values) pairs hold exact zeros:
    column 0 is +0.0 or -0.0 in every sentence, column 2 is -0.0 in some."""

    dim = 5

    def encode(self, sentence):
        n = len(sentence)
        return np.array([0, 2, 4]), np.array([-0.0 if n % 2 else 0.0,
                                              -1.5 if n % 3 else -0.0, float(n)])


def cancelling_sentence(encoder):
    """A sentence with words whose hashed buckets all cancel."""
    for i in range(1, 200):
        sentence = f"w0 w{i}"
        if not encoder.encode(sentence)[0].size:
            return sentence
    raise AssertionError("no sentence cancels")


def assert_same_sparse_rows(got, want):
    assert isinstance(got, SparseRows) and got.dim == want.dim
    assert got.cols.dtype == want.cols.dtype and np.array_equal(got.cols, want.cols)
    assert got.values.dtype == want.values.dtype and got.values.shape == want.values.shape
    assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))


def instance_case(name):
    """(instance, encoder, max_sentences) of an edge of the sparse build."""
    hashed = HashedSentenceEncoder(dim=7200, seed=4)
    tiny = HashedSentenceEncoder(dim=1, max_ngram=1)
    many = " ".join(f"Sentence number {i} is here." for i in range(9))
    cancel = cancelling_sentence(tiny).capitalize()
    return {
        "empty-context": (make_thread("Only the target. Two of them."), hashed, 4),
        "more-than-max": (make_thread(many, [many, "Short one."]), hashed, 4),
        "cancelled": (make_thread(f"{cancel}. Kept words here.", [f"{cancel}."]), tiny, 3),
        "all-cancelled": (make_thread(f"{cancel}.", [f"{cancel}. {cancel}."]), tiny, 3),
        "repeated": (make_thread("Same again. Same again. Other.", ["Same again."] * 3),
                     hashed, 6),
        "exact-zeros": (make_thread("A b. Ccc. Dd dd. E.", ["Ff. Gggggg."]),
                        ZeroValuedEncoder(), 6),
        "all-zero-column": (make_thread("Ab. Cd."), ZeroValuedEncoder(), 3),
    }[name]


@pytest.mark.parametrize("name", ["empty-context", "more-than-max", "cancelled", "all-cancelled",
                                  "repeated", "exact-zeros", "all-zero-column"])
def test_instance_and_thread_matrices_are_from_dense_of_the_reference(name):
    inst, enc, max_sentences = instance_case(name)
    want = [SparseRows.from_dense(m) for m in dense_instance_matrices(inst, enc, max_sentences)]
    got = instance_matrices(inst, enc, max_sentences)
    (*from_thread, label), = thread_matrices([inst], enc, max_sentences)
    assert label == int(inst.label)
    for matrices in (got, from_thread):
        for sparse, reference in zip(matrices, want):
            assert_same_sparse_rows(sparse, reference)
    if name == "empty-context":
        assert got[1].cols.size == 0 and got[1].values.shape == (4, 0)
    if name == "all-cancelled":
        assert got[0].cols.size == got[1].cols.size == 0
    if name in ("exact-zeros", "all-zero-column"):
        # Column 0 holds only zeros and is dropped.
        assert 0 not in got[0].cols and 4 in got[0].cols
    if name == "exact-zeros":
        # Column 2 is -1.5 in some rows: kept, with its -0.0 as it was.
        assert 2 in got[0].cols and 2 in got[1].cols


def test_instance_matrices_empty_target_errors():
    enc = HashedSentenceEncoder(dim=8)
    with pytest.raises(ValueError, match="no sentences"):
        instance_matrices(make_thread(""), enc, 4)


# -- the sparse risk tower -------------------------------------------------------------

def write_format_3_checkpoint(path, arrays, kind, cfg, seed, step):
    """A format-3 checkpoint file written by hand: a sorted JSON header line,
    then ``arrays`` as given, conv kernels [depth x window x filters], as
    little-endian float64 back to back."""
    header = {"format_version": 3, "seed": seed, "step": step,
              "config": {"kind": kind, **asdict(cfg), "dense_dims": list(cfg.dense_dims)},
              "params": [[name, list(arr.shape)] for name, arr in arrays.items()]}
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                     + b"".join(arr.astype("<f8").tobytes() for arr in arrays.values()))


def assert_saves_back_byte_for_byte(loaded, path, seed, step):
    """Saving a model loaded from a hand-built file writes that file's bytes."""
    again = path.with_name("again.json")
    loaded.save(again, seed=seed, step=step)
    assert again.read_bytes() == path.read_bytes()


def random_file_arrays(rng, params):
    """Random arrays of every parameter's shape, kernels [depth x window x
    filters] as `conv1d` reads them and a checkpoint file holds them."""
    return {name: rng.standard_normal(arr.shape) for name, arr in params.items()}


def reference_output(params, cfg, target, context):
    """The risk forward pass in eval mode, with each tower's convolution by
    `textbook_conv1d` on the dense matrix; ``params`` maps names to arrays."""

    def tower(matrix):
        conv = textbook_conv1d(matrix, params["conv.w"], params["conv.b"])
        return flatten(max_pool(relu(constant(conv)), cfg.pool_n))

    h = concat(tower(target), tower(context))
    for i in range(len(cfg.dense_dims)):
        h = relu(dense(h, constant(params[f"dense{i}.w"]), constant(params[f"dense{i}.b"])))
    return dense(h, constant(params["out.w"]), constant(params["out.b"])).value


def labelled_thread(index, label, n_sentences, n_context):
    """A thread whose sentences are all distinct."""
    def text(tag, n):
        return " ".join(f"Sentence {tag} {index} {i} says word{index * 7 + i}." for i in range(n))

    context = tuple(Post(f"c{index}-{j}", "u2", "forum", j, text(f"c{j}", 2))
                    for j in range(n_context))
    target = Post(f"t{index}", "u1", "forum", 100, text("t", n_sentences))
    return ThreadInstance(target, context, RiskLabel(label))


def test_risk_conv_weights_are_input_column_first_and_keep_the_seeded_init():
    cfg = tiny_risk_config("class_metric", sentence_dim=7, conv_filters=3)
    w = RiskModel(cfg, seed=12).params["conv.w"]
    assert w.shape == (7, cfg.conv_window, 3) and w.flags["C_CONTIGUOUS"]
    rng = np.random.default_rng(12)
    drawn = glorot_uniform(rng, (3, cfg.conv_window, 7), cfg.conv_window * 7, 3)
    assert np.array_equal(w, drawn.transpose(2, 1, 0))


@pytest.mark.parametrize("variant", ["cat_ce", "class_metric_ordinal"])
def test_risk_loads_conv1d_layout_checkpoints(tmp_path, variant):
    # A hand-built format-3 file with conv.w [dim x window x filters] loads
    # input column first, gives the reference outputs, and saves back to the
    # same bytes.
    cfg = tiny_risk_config(variant, sentence_dim=6, conv_filters=3, dropout=0.0)
    rng = np.random.default_rng(13)
    reference = random_file_arrays(rng, RiskModel(cfg, seed=2).params)
    path = tmp_path / "conv1d-layout.json"
    write_format_3_checkpoint(path, reference, f"risk:{variant}", cfg, seed=4, step=9)

    loaded, seed, step = RiskModel.load(path)
    assert (seed, step) == (4, 9) and loaded.config == cfg
    w = loaded.params["conv.w"]
    assert w.shape == (6, cfg.conv_window, 3) and w.flags["C_CONTIGUOUS"]
    for _ in range(20):
        target, context = rand_instance_mats(rng, cfg)
        target[:, [0, 4]] = 0.0
        out = loaded.forward(target, context, ParamNodes(loaded.params)).value
        expected = reference_output(reference, cfg, target, context)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        if variant == "cat_ce":
            assert loaded.classify(target, context) == int(np.argmax(expected))
        else:
            assert loaded.classify(target, context) == metric_classify(
                expected, reference["classes"])

    assert_saves_back_byte_for_byte(loaded, path, seed=4, step=9)


def depression_reference_logits(params, cfg, posts):
    """Depression logits in eval mode in plain numpy, with both convolutions
    by `textbook_conv1d`; ``params`` maps names to arrays."""
    vecs = []
    for toks in posts:
        toks = list(toks)[:cfg.n_term]
        if len(toks) < cfg.conv_window:
            vecs.append(np.zeros(cfg.conv_filters))
            continue
        feat = textbook_conv1d(params["emb"][toks], params["conv.w"], params["conv.b"])
        vecs.append(np.maximum(feat, 0.0).mean(axis=0))
    vecs += [np.zeros(cfg.conv_filters)] * (cfg.merge_window - len(vecs))
    merged = textbook_conv1d(np.stack(vecs), params["merge.w"], params["merge.b"],
                             cfg.merge_stride)
    h = np.maximum(merged, 0.0).mean(axis=0)
    for i in range(len(cfg.dense_dims)):
        h = np.maximum(params[f"dense{i}.w"] @ h + params[f"dense{i}.b"], 0.0)
    return params["out.w"] @ h + params["out.b"]


def test_depression_loads_conv1d_layout_checkpoints(tmp_path):
    # As for risk: conv.w and merge.w [depth x window x filters] in the file.
    cfg = tiny_depression_config(merge_window=2, merge_stride=2, dense_dims=(4,))
    rng = np.random.default_rng(17)
    reference = random_file_arrays(rng, DepressionModel(cfg, seed=3).params)
    path = tmp_path / "conv1d-layout.json"
    write_format_3_checkpoint(path, reference, "depression", cfg, seed=5, step=11)

    loaded, seed, step = DepressionModel.load(path)
    assert (seed, step) == (5, 11) and loaded.config == cfg
    for name in ("conv.w", "merge.w"):
        w = loaded.params[name]
        assert w.shape == reference[name].shape and w.flags["C_CONTIGUOUS"], name
    for n_posts in (1, 2, 5):
        posts = [rng.integers(0, cfg.vocab_size, size=int(rng.integers(1, 9)))
                 for _ in range(n_posts)]
        posts[0] = rng.integers(0, cfg.vocab_size, size=cfg.conv_window)
        logits = loaded.logits(posts, ParamNodes(loaded.params)).value
        expected = depression_reference_logits(reference, cfg, posts)
        np.testing.assert_allclose(logits, expected, rtol=1e-12, atol=1e-12)

    assert_saves_back_byte_for_byte(loaded, path, seed=5, step=11)


def test_depression_kernels_are_input_column_first_and_keep_the_seeded_init():
    cfg = tiny_depression_config(embed_dim=4, conv_filters=3, merge_filters=2)
    params = DepressionModel(cfg, seed=12).params
    rng = np.random.default_rng(12)
    rng.uniform(-0.05, 0.05, size=(cfg.vocab_size, cfg.embed_dim))     # emb
    conv = glorot_uniform(rng, (3, cfg.conv_window, 4), cfg.conv_window * 4, 3)
    merge = glorot_uniform(rng, (2, cfg.merge_window, 3), cfg.merge_window * 3, 2)
    for name, drawn in (("conv.w", conv), ("merge.w", merge)):
        assert params[name].flags["C_CONTIGUOUS"], name
        assert np.array_equal(params[name], drawn.transpose(2, 1, 0)), name


def test_thread_matrices_keep_hashed_inputs_compact():
    enc = HashedSentenceEncoder(dim=7200)
    threads = [labelled_thread(i, i % 4, n_sentences=3 + i % 5, n_context=i % 3)
               for i in range(12)]
    data = thread_matrices(threads, enc, max_sentences=20)
    held = sum(m.values.nbytes + m.cols.nbytes for t, c, _ in data for m in (t, c))
    dense_bytes = len(data) * 2 * 20 * 7200 * 8
    assert held < 0.05 * dense_bytes, held / dense_bytes
    for (target, context, label), inst in zip(data, threads):
        assert isinstance(target, SparseRows) and label == int(inst.label)
        dense_target, dense_context = dense_instance_matrices(inst, enc, 20)
        for sparse, matrix in ((target, dense_target), (context, dense_context)):
            assert np.array_equal(sparse.cols, np.flatnonzero(matrix.any(axis=0)))
            assert np.array_equal(sparse.values, matrix[:, sparse.cols])


def sparse_tower_model(sentence_dim):
    cfg = tiny_risk_config("cat_ce", sentence_dim=sentence_dim, conv_filters=4,
                           dense_dims=(5,), max_sentences=6, dropout=0.0)
    return RiskModel(cfg, seed=3)


def adam_pair(model):
    """Adam on the model's store, and a dense-only Adam on a copy of it."""
    state = AdamState(model.params, lr=0.01)
    dense_params = model.params.copy()
    dense_state = AdamState(dense_params, lr=0.01)
    for name in dense_params.names():
        dense_state.densify(name)
    return state, dense_params, dense_state


def test_sparse_tower_steps_keep_live_rows_exact():
    # Hashed inputs reach few conv.w rows, so live-row Adam keeps its mask,
    # also through a step whose target and context are both empty; every
    # step is bit-identical to dense Adam.
    model = sparse_tower_model(7200)
    enc = HashedSentenceEncoder(dim=7200)
    data = thread_matrices([labelled_thread(i, i % 4, 4, 2) for i in range(3)], enc, 6)
    empty = SparseRows.from_dense(np.zeros((6, 7200)))
    steps = [data[0][:2], data[1][:2], (empty, empty), data[2][:2]]
    state, dense_params, dense_state = adam_pair(model)
    seen = np.zeros(7200, dtype=bool)
    for target, context in steps:
        nodes = ParamNodes(model.params)
        backward(model.loss(target, context, 2, nodes, train=False))
        grads = nodes.grads()
        adam_step(model.params, grads, state)
        adam_step(dense_params, grads, dense_state)
        seen[target.cols] = seen[context.cols] = True
        assert state.live["conv.w"] is not None
        assert np.array_equal(np.sort(state.live["conv.w"]), np.flatnonzero(seen))
        for name, arr in model.params.items():
            m, v = state.moments(name)
            assert np.array_equal(arr, dense_params[name]), name
            assert np.array_equal(m, dense_state.m[name]), name
            assert np.array_equal(v, dense_state.v[name]), name
    assert 0 < seen.sum() < 0.05 * seen.size


def test_dense_tower_input_falls_back_to_the_dense_update():
    model = sparse_tower_model(8)
    rng = np.random.default_rng(14)
    target, context = rand_instance_mats(rng, model.config)
    state = AdamState(model.params, lr=0.01)
    nodes = ParamNodes(model.params)
    backward(model.loss(target, context, 1, nodes, train=False))
    grads = nodes.grads()
    assert np.array_equal(grads["conv.w"].rows, np.arange(8))
    adam_step(model.params, grads, state)
    assert state.live["conv.w"] is None


class VectorTable(PostsBySentence):
    """An encoder of precomputed dense vectors, one per known sentence."""

    def __init__(self, vectors: dict):
        self.vectors = vectors
        self.dim = len(next(iter(vectors.values())))

    def encode(self, sentence: str) -> tuple[np.ndarray, np.ndarray]:
        return np.arange(self.dim), self.vectors[sentence]


def test_file_encoder_vectors_take_the_same_path():
    # Dense precomputed vectors fill every column; they go through the same
    # sparse tower and agree with the textbook convolution.
    dim = 6
    threads = [labelled_thread(i, i % 4, n_sentences=2 + i % 3, n_context=i % 2)
               for i in range(8)]
    sentences = {s for inst in threads
                 for post in (inst.target, *inst.context) for s in split_sentences(post.text)}
    rng = np.random.default_rng(15)
    enc = VectorTable({sentence: rng.standard_normal(dim) for sentence in sorted(sentences)})
    cfg = tiny_risk_config("cat_ce", sentence_dim=dim, conv_filters=3, dense_dims=(5,),
                           max_sentences=4, dropout=0.0)
    data = thread_matrices(threads, enc, cfg.max_sentences)
    assert all(np.array_equal(t.cols, np.arange(dim)) for t, _, _ in data)
    model = RiskModel(cfg, seed=16)
    train_risk(model, data, data, TrainConfig(epochs=2, lr=0.01, seed=1))
    reference = dict(model.params.items())
    for (target, context, _), inst in zip(data, threads):
        dense_target, dense_context = map(np.asarray,
                                          instance_matrices(inst, enc, cfg.max_sentences))
        expected = reference_output(reference, cfg, dense_target, dense_context)
        out = model.forward(target, context, ParamNodes(model.params)).value
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        assert model.predict(target, context)[0] == int(np.argmax(expected))


# -- output heads --------------------------------------------------------------------

def test_mse_classify_rounding():
    assert mse_classify(2.6) == RiskLabel.CRISIS
    assert mse_classify(-0.4) == RiskLabel.GREEN
    assert mse_classify(1.5) == RiskLabel.RED          # halves round away from zero
    assert mse_classify(0.5) == RiskLabel.AMBER
    assert mse_classify(-3.7) == RiskLabel.GREEN
    assert mse_classify(11.0) == RiskLabel.CRISIS


def test_mse_classify_range_property():
    rng = np.random.default_rng(13)
    for y in rng.uniform(-10, 10, size=500):
        assert mse_classify(float(y)) in set(RiskLabel)


def test_metric_classify_exact_and_ties():
    classes = np.array([[1.0, 0.0], [-1.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
    assert metric_classify(classes[2], classes) == RiskLabel.RED
    assert metric_classify(np.zeros(2), classes) == RiskLabel.GREEN  # tie 0 vs 1


def test_metric_classify_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(200):
        classes = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        expected = min(range(4),
                       key=lambda j: (np.linalg.norm(x - classes[j]), j))
        assert metric_classify(x, classes) == RiskLabel(expected)


def test_metric_classify_scale_invariant():
    rng = np.random.default_rng(19)
    for _ in range(100):
        classes = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        for c in (0.5, 2.0, 17.0):
            assert metric_classify(x, classes) == metric_classify(c * x, c * classes)


def loss_value(fn, x, classes, p, n, alpha):
    return float(fn(constant(np.asarray(x, dtype=float)), p, n,
                    constant(np.asarray(classes, dtype=float)), alpha).value)


def test_class_metric_loss_substitution():
    classes = [[0.5], [2.0], [9.0], [9.5]]
    assert loss_value(class_metric_loss, [0.0], classes, 0, 1, 1.0) == 0.0
    classes = [[2.0], [0.5], [9.0], [9.5]]
    assert loss_value(class_metric_loss, [0.0], classes, 0, 1, 1.0) == \
        pytest.approx(2.5)


def test_class_metric_loss_zero_distance_case():
    classes = [[1.0, 1.0], [1.5, 1.0], [9.0, 9.0], [9.5, 9.0]]
    got = loss_value(class_metric_loss, [1.0, 1.0], classes, 0, 1, 1.0)
    assert got == pytest.approx(max(0.0, 1.0 - 0.5))


def test_ordinal_margin_scales_with_separation():
    classes = [[1.0, 0.0], [9.0, 9.0], [9.5, 9.0], [0.0, 1.0]]
    # equidistant x: loss equals the margin itself
    got = loss_value(class_metric_ordinal_loss, [0.0, 0.0], classes, 0, 3, 0.5)
    assert got == pytest.approx(1.5)


def test_ordinal_reduces_to_plain_for_adjacent_classes():
    rng = np.random.default_rng(23)
    for _ in range(100):
        classes = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        plain = loss_value(class_metric_loss, x, classes, 1, 2, 0.7)
        ordinal = loss_value(class_metric_ordinal_loss, x, classes, 1, 2, 0.7)
        assert plain == ordinal


def test_ordinal_dominates_plain():
    rng = np.random.default_rng(29)
    for _ in range(500):
        classes = rng.standard_normal((4, 2))
        x = rng.standard_normal(2)
        p, n = rng.choice(4, size=2, replace=False)
        alpha = float(rng.uniform(0, 2))
        plain = loss_value(class_metric_loss, x, classes, int(p), int(n), alpha)
        ordinal = loss_value(class_metric_ordinal_loss, x, classes,
                             int(p), int(n), alpha)
        assert ordinal >= plain - 1e-12


def test_metric_loss_equals_direct_substitution():
    rng = np.random.default_rng(31)
    for _ in range(500):
        classes = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        p, n = (int(v) for v in rng.choice(4, size=2, replace=False))
        alpha = float(rng.uniform(0, 2))
        dp = np.linalg.norm(x - classes[p])
        dn = np.linalg.norm(x - classes[n])
        expected = max(0.0, dp - dn + alpha)
        got = loss_value(class_metric_loss, x, classes, p, n, alpha)
        assert got == pytest.approx(expected, abs=1e-12)
        assert (got == 0.0) == (dp + alpha <= dn)


def test_metric_losses_reject_equal_classes():
    classes = constant(np.eye(4))
    x = constant(np.zeros(4))
    with pytest.raises(ValueError, match="differ"):
        class_metric_loss(x, 2, 2, classes, 1.0)
    with pytest.raises(ValueError, match="differ"):
        class_metric_ordinal_loss(x, 1, 1, classes, 1.0)


def test_metric_loss_gradients_at_non_kink_points():
    rng = np.random.default_rng(37)
    checked = 0
    for trial in range(12):
        params = ParamStore()
        params.add("x", rng.standard_normal(3))
        params.add("classes", rng.standard_normal((4, 3)))
        p, n = (int(v) for v in rng.choice(4, size=2, replace=False))
        alpha = float(rng.uniform(0.2, 1.5))

        def loss_fn(nodes):
            return class_metric_ordinal_loss(nodes("x"), p, n,
                                             nodes("classes"), alpha)

        dp = np.linalg.norm(params["x"] - params["classes"][p])
        dn = np.linalg.norm(params["x"] - params["classes"][n])
        if abs(dp - dn + alpha * abs(p - n)) <= 1e-3:
            continue
        worst = finite_difference_check(loss_fn, params)
        assert max(worst.values()) < 1e-4, worst
        checked += 1
    assert checked >= 8
