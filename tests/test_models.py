import base64
import json
import math
from dataclasses import asdict

import numpy as np
import pytest

from triagekit import models
from triagekit.corpus import (
    FileSentenceEncoder,
    HashedSentenceEncoder,
    Post,
    RiskLabel,
    ThreadInstance,
    sentence_hash,
    split_sentences,
)
from triagekit.models import (
    RISK_VARIANTS,
    DepressionModel,
    DepressionModelConfig,
    RiskModel,
    RiskModelConfig,
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
    dense,
    finite_difference_check,
    flatten,
    glorot_uniform,
    max_pool,
    relu,
    softmax,
)
from triagekit.traineval import TrainConfig, thread_matrices, train_risk

from test_nn import textbook_conv1d


def tiny_depression_config(**overrides):
    fields = dict(vocab_size=8, embed_dim=3, conv_window=2, conv_filters=2,
                  merge_window=3, merge_stride=3, merge_filters=2,
                  dense_dims=(3,), n_term=6)
    fields.update(overrides)
    return DepressionModelConfig(**fields)


# -- depression model: post and user encoders -----------------------------------
# One forward per user: `_forward` returns the logits, the feature map of all
# of the user's windows, and each post's first and past-last row in it.

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
    logits, feat, starts, stops = model._forward([[2, 3, 2, 3]], ParamNodes(model.params))
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
        logits, feat, starts, stops = model._forward([tokens], nodes)
        assert feat is None and starts.tolist() == stops.tolist() == [0]
        np.testing.assert_allclose(logits.value, zero_user, rtol=1e-12, atol=1e-12)
    # Beside a post that fills a window, a short post has an empty range and
    # changes nothing.
    with_short = model._forward([[2, 3, 4, 5], [2, 3]], nodes)
    alone = model._forward([[2, 3, 4, 5], []], nodes)
    assert (with_short[2].tolist(), with_short[3].tolist()) == ([0, 4], [2, 4])
    assert np.array_equal(with_short[0].value, alone[0].value)
    assert np.array_equal(with_short[1].value, alone[1].value)


def test_encode_post_deterministic():
    model = DepressionModel(tiny_depression_config())
    model.params["out.w"][...] = np.random.default_rng(2).standard_normal((2, 3))
    nodes = ParamNodes(model.params)
    a = model._forward([[2, 3, 4, 5], [6, 7, 2]], nodes)
    b = model._forward([[2, 3, 4, 5], [6, 7, 2]], nodes)
    assert np.array_equal(a[0].value, b[0].value)
    assert np.array_equal(a[1].value, b[1].value)


def test_encode_post_truncates_to_n_term():
    model = DepressionModel(tiny_depression_config(n_term=4))
    model.params["out.w"][...] = np.random.default_rng(3).standard_normal((2, 3))
    nodes = ParamNodes(model.params)
    a, b = (model._forward([[2, 3, 4, 5]], nodes),
            model._forward([[2, 3, 4, 5, 6, 7, 2, 3]], nodes))
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
        assert calls == {"embedding_lookup": 1, "conv1d": 2}, n_posts


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
        ("u1", [("a", [5, 5, 2, 3, 4, 5]), ("b", [5, 5, 5, 5])]),
        ("u2", [("c", [5, 2, 5, 3, 5, 4])]),
    ]
    ranked = top_phrases(model, users, m=2)
    assert ranked[0][0] == "a"
    assert ranked[0][1] == (2, 3, 4)
    assert ranked[0][2] > 0
    assert ranked[1][2] <= 0


def test_top_phrases_zero_model_scores_zero():
    model = DepressionModel(tiny_depression_config(), seed=2)
    users = [("u1", [("a", [2, 3, 4, 5])]), ("u2", [("b", [6, 7, 2])])]
    ranked = top_phrases(model, users, m=10)
    assert len(ranked) == 2
    assert all(score == 0.0 for _, _, score in ranked)


def test_top_phrases_caps_at_available():
    model = DepressionModel(tiny_depression_config(), seed=2)
    ranked = top_phrases(model, [("u1", [("a", [2, 3, 4])])], m=50)
    assert len(ranked) == 1


@pytest.mark.parametrize("m", [0, -1])
def test_top_phrases_rejects_fewer_than_one(m):
    model = planted_trigram_model()
    users = [(f"u{i}", [("a", [5, 2, 3, 4])]) for i in range(4)]
    assert len(top_phrases(model, users, m=1)) == 1
    with pytest.raises(ValueError, match="at least 1"):
        top_phrases(model, users, m=m)


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


def test_instance_matrices_shapes_and_padding():
    enc = HashedSentenceEncoder(dim=8)
    inst = make_thread("One sentence here. And another one!", ["Earlier post."])
    target, context = instance_matrices(inst, enc, max_sentences=4)
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
    expected = np.stack([enc.encode(s) for s in sentences[-3:]])
    assert np.allclose(target, expected)


def test_instance_matrices_empty_context_is_zero():
    enc = HashedSentenceEncoder(dim=8)
    _, context = instance_matrices(make_thread("Hello there."), enc, 4)
    assert np.array_equal(context, np.zeros((4, 8)))


def test_instance_matrices_empty_target_errors():
    enc = HashedSentenceEncoder(dim=8)
    with pytest.raises(ValueError, match="no sentences"):
        instance_matrices(make_thread(""), enc, 4)


# -- the sparse risk tower -------------------------------------------------------------

def write_v1_checkpoint(path, arrays, kind, cfg, seed, step):
    """A format-1 checkpoint file written by hand: ``arrays`` as given, conv
    kernels [filters x window x depth], as base64 little-endian float32."""
    doc = {"format_version": 1, "seed": seed, "step": step, "param_order": list(arrays),
           "config": {"kind": kind, **asdict(cfg), "dense_dims": list(cfg.dense_dims)},
           "params": {name: {"shape": list(arr.shape),
                             "data": base64.b64encode(arr.astype("<f4").tobytes()).decode("ascii")}
                      for name, arr in arrays.items()}}
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def random_file_arrays(rng, params):
    """Random float32-exact arrays for every parameter, kernels [filters x
    window x depth] as a checkpoint file holds them."""
    return {name: rng.standard_normal(arr.transpose(2, 1, 0).shape if arr.ndim == 3
                                      else arr.shape).astype("<f4").astype(float)
            for name, arr in params.items()}


def in_memory(arrays):
    """File arrays with the kernels as `conv1d` reads them: [depth x window x filters]."""
    return {name: arr.transpose(2, 1, 0) if arr.ndim == 3 else arr
            for name, arr in arrays.items()}


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
    # A hand-built file with conv.w [filters x window x dim] loads input
    # column first, gives the reference outputs, and saves back byte for byte.
    cfg = tiny_risk_config(variant, sentence_dim=6, conv_filters=3, dropout=0.0)
    rng = np.random.default_rng(13)
    arrays = random_file_arrays(rng, RiskModel(cfg, seed=2).params)
    path = tmp_path / "conv1d-layout.json"
    write_v1_checkpoint(path, arrays, f"risk:{variant}", cfg, seed=4, step=9)
    reference = in_memory(arrays)

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

    # Saving writes the same layout back: the same file, and the same weights.
    again = tmp_path / "again.json"
    loaded.save(again, seed=4, step=9)
    assert again.read_bytes() == path.read_bytes()
    reloaded = RiskModel.load(again)[0]
    for name, arr in loaded.params.items():
        assert np.array_equal(reloaded.params[name], arr), name


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
    # As for risk: conv.w and merge.w [filters x window x depth] in the file.
    cfg = tiny_depression_config(merge_window=2, merge_stride=2, dense_dims=(4,))
    rng = np.random.default_rng(17)
    arrays = random_file_arrays(rng, DepressionModel(cfg, seed=3).params)
    path = tmp_path / "conv1d-layout.json"
    write_v1_checkpoint(path, arrays, "depression", cfg, seed=5, step=11)
    reference = in_memory(arrays)

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

    again = tmp_path / "again.json"
    loaded.save(again, seed=5, step=11)
    assert again.read_bytes() == path.read_bytes()


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
        dense_target, dense_context = instance_matrices(inst, enc, 20)
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
    dense_state.live = dict.fromkeys(dense_state.live)
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
        assert np.array_equal(state.live["conv.w"], seen)
        for name, arr in model.params.items():
            assert np.array_equal(arr, dense_params[name]), name
            assert np.array_equal(state.m[name], dense_state.m[name]), name
            assert np.array_equal(state.v[name], dense_state.v[name]), name
    assert 0 < seen.sum() < 0.05 * seen.size


def test_dense_tower_input_falls_back_to_the_dense_update():
    model = sparse_tower_model(8)
    rng = np.random.default_rng(14)
    target, context = rand_instance_mats(rng, model.config)
    state = AdamState(model.params, lr=0.01)
    nodes = ParamNodes(model.params)
    backward(model.loss(target, context, 1, nodes, train=False))
    grads = nodes.grads()
    assert np.array_equal(np.unique(grads.rows["conv.w"]), np.arange(8))
    adam_step(model.params, grads, state)
    assert state.live["conv.w"] is None


def test_file_encoder_vectors_take_the_same_path(tmp_path):
    # Dense precomputed vectors fill every column; they go through the same
    # sparse tower and agree with the textbook convolution.
    dim = 6
    threads = [labelled_thread(i, i % 4, n_sentences=2 + i % 3, n_context=i % 2)
               for i in range(8)]
    sentences = {s for inst in threads
                 for post in (inst.target, *inst.context) for s in split_sentences(post.text)}
    rng = np.random.default_rng(15)
    path = tmp_path / "vectors.ndjson"
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in sorted(sentences):
            vector = rng.standard_normal(dim).tolist()
            fh.write(json.dumps({"hash": sentence_hash(sentence), "vector": vector}) + "\n")
    enc = FileSentenceEncoder(path)
    cfg = tiny_risk_config("cat_ce", sentence_dim=dim, conv_filters=3, dense_dims=(5,),
                           max_sentences=4, dropout=0.0)
    data = thread_matrices(threads, enc, cfg.max_sentences)
    assert all(np.array_equal(t.cols, np.arange(dim)) for t, _, _ in data)
    model = RiskModel(cfg, seed=16)
    train_risk(model, data, data, TrainConfig(epochs=2, lr=0.01, seed=1))
    reference = dict(model.params.items())
    for (target, context, _), inst in zip(data, threads):
        dense_target, dense_context = instance_matrices(inst, enc, cfg.max_sentences)
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
