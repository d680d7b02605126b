import math
import tracemalloc

import numpy as np
import pytest

from triagekit import nn
from triagekit.nn import (
    AdamState,
    GradStore,
    Node,
    ParamNodes,
    ParamStore,
    adam_step,
    backward,
    concat,
    constant,
    conv1d,
    cross_entropy,
    dense,
    dropout,
    embedding_lookup,
    euclidean_distance,
    finite_difference_check,
    flatten,
    hinge,
    load_checkpoint,
    max_pool,
    mean_rows,
    pick,
    relu,
    save_checkpoint,
    softmax,
    squared_error,
    stack_rows,
    sub,
)


def readout_loss(node, rng):
    """Reduce any node to a scalar with curvature, so FD checks are nontrivial."""
    flat = flatten(node) if node.value.ndim != 1 else node
    w = constant(rng.standard_normal((1, flat.value.size)))
    y = dense(flat, w, constant(np.zeros(1)))
    return squared_error(y, 0.37)


# -- forward values ----------------------------------------------------------

def test_conv1d_identity_filter():
    x = constant(np.array([[1.0], [2.0], [-3.0]]))
    w = constant(np.ones((1, 1, 1)))
    b = constant(np.zeros(1))
    out = conv1d(x, w, b, stride=1)
    assert np.array_equal(out.value, x.value)


def test_conv1d_zero_input_gives_bias():
    x = constant(np.zeros((5, 2)))
    w = constant(np.ones((3, 2, 2)))
    b = constant(np.array([1.0, -2.0, 0.5]))
    out = conv1d(x, w, b)
    assert np.allclose(out.value, np.tile(b.value, (4, 1)))


def test_conv1d_hand_convolution():
    # [1,2,3,4], k=2, filter [1,1] -> [3,5,7]
    x = constant(np.array([[1.0], [2.0], [3.0], [4.0]]))
    w = constant(np.ones((1, 2, 1)))
    b = constant(np.zeros(1))
    out = conv1d(x, w, b)
    assert np.array_equal(out.value[:, 0], [3.0, 5.0, 7.0])


def test_conv1d_input_shorter_than_window():
    x = constant(np.zeros((2, 3)))
    w = constant(np.zeros((4, 3, 3)))
    with pytest.raises(ValueError, match="rows"):
        conv1d(x, w, constant(np.zeros(4)))


def test_conv1d_stride():
    x = constant(np.arange(6, dtype=float).reshape(6, 1))
    w = constant(np.ones((1, 2, 1)))
    out = conv1d(x, w, constant(np.zeros(1)), stride=2)
    assert np.array_equal(out.value[:, 0], [1.0, 5.0, 9.0])


def test_conv1d_linear_in_input():
    rng = np.random.default_rng(0)
    w = constant(rng.standard_normal((4, 3, 2)))
    b = constant(np.zeros(4))
    x = rng.standard_normal((7, 2))
    y = rng.standard_normal((7, 2))
    a, c = 0.7, -1.3
    lhs = conv1d(constant(a * x + c * y), w, b).value
    rhs = a * conv1d(constant(x), w, b).value + c * conv1d(constant(y), w, b).value
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_max_pool_blocks():
    x = constant(np.array([[1.0], [5.0], [3.0]]))
    assert np.array_equal(max_pool(x, 3).value, [[5.0]])


def test_max_pool_identity_when_n1():
    x = constant(np.array([[1.0, 2.0], [3.0, -1.0]]))
    assert np.array_equal(max_pool(x, 1).value, x.value)


def test_max_pool_partial_tail():
    x = constant(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]))
    assert np.array_equal(max_pool(x, 2).value[:, 0], [2.0, 4.0, 5.0])


def test_max_pool_dominates_mean_per_block():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((11, 4))
    pooled = max_pool(constant(x), 3).value
    for blk in range(pooled.shape[0]):
        rows = x[blk * 3:(blk + 1) * 3]
        assert np.all(pooled[blk] >= rows.mean(axis=0) - 1e-12)


def test_mean_rows():
    x = constant(np.array([[0.0], [2.0]]))
    assert np.array_equal(mean_rows(x).value, [1.0])
    single = constant(np.array([[3.0, -1.0]]))
    assert np.array_equal(mean_rows(single).value, [3.0, -1.0])


def test_dense_relu():
    x = constant(np.array([-1.0, 2.0]))
    out = relu(dense(x, constant(np.eye(2)), constant(np.zeros(2))))
    assert np.array_equal(out.value, [0.0, 2.0])


def test_dense_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        dense(constant(np.zeros(3)), constant(np.zeros((2, 2))), constant(np.zeros(2)))


def test_softmax_symmetry_and_closed_form():
    assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])
    probs = softmax(np.array([math.log(1.0), math.log(3.0)]))
    assert np.allclose(probs, [0.25, 0.75])


def test_softmax_contract():
    rng = np.random.default_rng(2)
    for _ in range(50):
        z = rng.standard_normal(rng.integers(2, 8)) * 10
        p = softmax(z)
        assert abs(p.sum() - 1.0) <= 1e-9
        assert np.all(p > 0) and np.all(p < 1)
        shifted = softmax(z + 123.456)
        assert np.allclose(p, shifted, atol=1e-12)


def test_dropout_identity_cases():
    x = constant(np.array([1.0, -2.0, 3.0]))
    assert dropout(x, 0.0, train=True, rng=np.random.default_rng(0)) is x
    assert dropout(x, 0.9, train=False) is x


def test_dropout_preserves_expectation():
    # Monte-Carlo: E[dropout(x)] == x within 2% at 1e4 draws.
    x = constant(np.full(4, 2.0))
    rng = np.random.default_rng(42)
    total = np.zeros(4)
    draws = 10_000
    for _ in range(draws):
        total += dropout(x, 0.5, rng=rng, train=True).value
    assert np.all(np.abs(total / draws - 2.0) < 0.04 * 2.0 / 0.5 * 0.5 + 0.08)


def test_dropout_invalid_rate():
    with pytest.raises(ValueError):
        dropout(constant(np.zeros(2)), 1.0, train=True, rng=np.random.default_rng(0))


def test_embedding_lookup_rows():
    table = constant(np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]]))
    out = embedding_lookup(table, [2, 1, 2])
    assert np.array_equal(out.value, [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])


def test_non_finite_op_output_raises():
    with pytest.raises(FloatingPointError):
        constant(np.array([1.0, np.inf]))


# -- backward ---------------------------------------------------------------

def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        backward(constant(np.zeros(2)))


def test_unused_parameter_gets_zero_gradient():
    params = ParamStore()
    params.add("used", np.array([2.0]))
    params.add("frozen", np.array([5.0]))
    nodes = ParamNodes(params)
    loss = squared_error(nodes("used"), 0.0)
    backward(loss)
    grads = nodes.grads()
    assert np.array_equal(grads["frozen"], [0.0])
    assert np.allclose(grads["used"], [4.0])
    assert grads["used"] is nodes("used").grad


def test_zero_upstream_gives_zero_grads():
    params = ParamStore()
    params.add("w", np.array([[1.0, 2.0]]))
    nodes = ParamNodes(params)
    out = dense(constant(np.ones(2)), nodes("w"), constant(np.zeros(1)))
    loss = nn.scale(pick(out, 0), 0.0)
    backward(loss)
    assert np.array_equal(nodes.grads()["w"], [[0.0, 0.0]])


def test_embedding_gradient_equals_dense_rule():
    # Two lookups share the table and repeat ids; readout weights span twelve
    # orders of magnitude, so summing a row in another order changes its bits.
    rng = np.random.default_rng(21)
    params = ParamStore()
    params.add("emb", rng.standard_normal((30, 4)))
    nodes = ParamNodes(params)
    id_lists = [np.array([3, 7, 3, 3, 12, 7]), np.array([7, 0, 3, 29, 7])]
    lookups = [embedding_lookup(nodes("emb"), ids) for ids in id_lists]
    seen = []

    def recording(rule, ids):
        def back(g):
            seen.append((ids, g.copy()))
            rule(g)
        return back

    for node, ids in zip(lookups, id_lists):
        node._backward = recording(node._backward, ids)
    flat = concat(flatten(lookups[0]), flatten(lookups[1]))
    w = rng.standard_normal((1, flat.value.size)) * 10.0 ** rng.uniform(-6, 6, flat.value.size)
    backward(squared_error(dense(flat, constant(w), constant(np.zeros(1))), 0.37))

    # The dense rule: one zero table per lookup, summed in backward order.
    expected = None
    for ids, g in seen:
        table = np.zeros((30, 4))
        np.add.at(table, ids, g)
        expected = table if expected is None else expected + table
    assert len(seen) == 2
    assert np.array_equal(nodes.grads()["emb"], expected)


def _peak_bytes(fn) -> int:
    """Peak bytes allocated while fn runs, numpy's data buffers included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embedding_backward_allocates_one_table():
    rng = np.random.default_rng(4)
    params = ParamStore()
    params.add("emb", rng.uniform(-0.05, 0.05, (50_000, 50)))
    nodes = ParamNodes(params)
    posts = [mean_rows(embedding_lookup(nodes("emb"), rng.integers(0, 50_000, 100)))
             for _ in range(20)]
    flat = flatten(stack_rows(posts))
    w = constant(rng.standard_normal((1, flat.value.size)))
    loss = squared_error(dense(flat, w, constant(np.zeros(1))), 0.37)

    def step():
        backward(loss)
        nodes.grads()

    assert _peak_bytes(step) < 1.5 * params["emb"].nbytes


def test_shared_node_gradient_accumulates():
    params = ParamStore()
    params.add("x", np.array([3.0]))
    nodes = ParamNodes(params)
    x = nodes("x")
    loss = pick(nn.add(x, x), 0)
    backward(loss)
    assert np.allclose(nodes.grads()["x"], [2.0])


# -- finite differences over every layer -------------------------------------

def test_gradcheck_conv_relu_maxpool_dense():
    rng = np.random.default_rng(7)
    for trial in range(8):
        t = int(rng.integers(4, 9))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(4, t) + 1))
        l = int(rng.integers(1, 5))
        params = ParamStore()
        params.add("x", rng.standard_normal((t, d)))
        params.add("w", rng.standard_normal((l, k, d)) * 0.5)
        params.add("b", rng.standard_normal(l) * 0.1)
        ro = np.random.default_rng(100 + trial)

        def loss_fn(nodes):
            out = conv1d(nodes("x"), nodes("w"), nodes("b"))
            out = relu(out)
            out = max_pool(out, 2)
            return readout_loss(out, np.random.default_rng(trial))

        worst = finite_difference_check(loss_fn, params)
        assert max(worst.values()) < 1e-4, worst


def test_gradcheck_embedding_mean_dense_ce():
    rng = np.random.default_rng(9)
    for trial in range(5):
        vocab, dim = 7, 3
        ids = rng.integers(0, vocab, size=int(rng.integers(2, 6)))
        ids = np.append(ids, ids[0])
        other = rng.integers(0, vocab, size=3)
        params = ParamStore()
        params.add("emb", rng.standard_normal((vocab, dim)) * 0.3)
        params.add("w", rng.standard_normal((4, 2 * dim)) * 0.5)
        params.add("b", rng.standard_normal(4) * 0.1)
        target = int(rng.integers(0, 4))

        def loss_fn(nodes):
            # A repeated id, and a second lookup into the same table.
            vec = concat(mean_rows(embedding_lookup(nodes("emb"), ids)),
                         mean_rows(embedding_lookup(nodes("emb"), other)))
            logits = dense(vec, nodes("w"), nodes("b"))
            return cross_entropy(logits, target)

        worst = finite_difference_check(loss_fn, params)
        assert max(worst.values()) < 1e-4, worst


def test_gradcheck_dropout_and_stack_concat():
    rng = np.random.default_rng(13)
    params = ParamStore()
    params.add("a", rng.standard_normal(4))
    params.add("b", rng.standard_normal(3))

    def loss_fn(nodes):
        joined = concat(nodes("a"), nodes("b"))
        dropped = dropout(joined, 0.4, rng=np.random.default_rng(55), train=True)
        piled = stack_rows([dropped, dropped])
        return readout_loss(piled, np.random.default_rng(3))

    worst = finite_difference_check(loss_fn, params)
    assert max(worst.values()) < 1e-4, worst


def test_gradcheck_euclidean_hinge():
    rng = np.random.default_rng(17)
    for trial in range(5):
        params = ParamStore()
        params.add("x", rng.standard_normal(4))
        params.add("cp", rng.standard_normal(4))
        params.add("cn", rng.standard_normal(4))

        def loss_fn(nodes):
            margin = sub(euclidean_distance(nodes("x"), nodes("cp")),
                         euclidean_distance(nodes("x"), nodes("cn")))
            return hinge(nn.add_const(margin, 1.0))

        loss = loss_fn(ParamNodes(params))
        # only check away from the hinge kink
        if abs(float(loss.value)) < 1e-2:
            continue
        worst = finite_difference_check(loss_fn, params)
        assert max(worst.values()) < 1e-4, worst


def test_gradcheck_squared_error():
    params = ParamStore()
    params.add("y", np.array([1.7]))

    def loss_fn(nodes):
        return squared_error(nodes("y"), 0.5)

    worst = finite_difference_check(loss_fn, params)
    assert max(worst.values()) < 1e-4


# -- Adam ---------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    params = ParamStore()
    params.add("w", np.array([1.0, -2.0]))
    state = AdamState(params, lr=0.1)
    grads = GradStore(params)
    adam_step(params, grads, state)
    assert np.array_equal(params["w"], [1.0, -2.0])
    assert state.step_count == 1


def test_adam_first_step_hand_value():
    # t=1, g=1, lr=0.1: bias-corrected m_hat = v_hat = 1 -> step of ~0.1.
    params = ParamStore()
    params.add("w", np.array([0.0]))
    state = AdamState(params, lr=0.1)
    grads = GradStore(params)
    grads["w"][...] = 1.0
    adam_step(params, grads, state)
    assert params["w"][0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_nan_gradient_rejected():
    params = ParamStore()
    params.add("w", np.array([0.0]))
    state = AdamState(params)
    grads = GradStore(params)
    grads["w"][...] = np.nan
    with pytest.raises(FloatingPointError):
        adam_step(params, grads, state)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(5)
        params = ParamStore()
        params.add("w", rng.standard_normal(6))
        state = AdamState(params, lr=0.01)
        for _ in range(25):
            grads = GradStore(params)
            grads["w"][...] = rng.standard_normal(6)
            adam_step(params, grads, state)
        return params["w"].tobytes()

    assert run() == run()


def test_adam_matches_textbook_update_bit_for_bit():
    rng = np.random.default_rng(8)
    shapes = {"big": (7, 9), "vec": (5,), "cube": (2, 3, 4), "one": (1,), "still": (4, 3)}
    params = ParamStore()
    for name, shape in shapes.items():
        params.add(name, rng.standard_normal(shape))
    ref = {name: arr.copy() for name, arr in params.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    state = AdamState(params, lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(1, 26):
        grads = GradStore(params)
        for name, shape in shapes.items():
            if name != "still":
                grads[name][...] = rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape)
        adam_step(params, grads, state)
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for name, g in grads.items():
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            ref[name] = ref[name] - lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)
    for name, arr in params.items():
        assert np.array_equal(arr, ref[name]), name
        assert np.array_equal(state.m[name], m[name]) and np.array_equal(state.v[name], v[name])


def test_adam_step_allocates_no_parameter_sized_temporaries():
    rng = np.random.default_rng(6)
    params = ParamStore()
    params.add("w", rng.standard_normal((800, 500)))
    params.add("u", rng.standard_normal((200, 500)))
    params.add("b", rng.standard_normal(500))
    state = AdamState(params)
    grads = GradStore(params)
    for name, g in grads.items():
        g[...] = rng.standard_normal(g.shape)
    adam_step(params, grads, state)
    param_bytes = sum(arr.nbytes for _, arr in params.items())
    assert _peak_bytes(lambda: adam_step(params, grads, state)) < 0.5 * param_bytes


# -- checkpoints ---------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    params = ParamStore()
    rng = np.random.default_rng(3)
    params.add("layer.w", rng.standard_normal((3, 2)))
    params.add("layer.b", rng.standard_normal(2))
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, params, {"kind": "test", "n": 3}, seed=99, step=17)
    loaded, config, seed, step = load_checkpoint(path)
    assert config == {"kind": "test", "n": 3}
    assert (seed, step) == (99, 17)
    assert loaded.names() == params.names()
    for name, arr in params.items():
        assert np.allclose(loaded[name], arr, atol=1e-6)


def test_failed_checkpoint_save_leaves_earlier_file(tmp_path):
    params = ParamStore()
    params.add("w", np.arange(6.0).reshape(2, 3))
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, params, {"kind": "test"}, seed=1, step=2)
    before = path.read_bytes()
    params["w"][...] += 1.0
    with pytest.raises(TypeError):
        save_checkpoint(path, params, {"kind": object()}, seed=1, step=3)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 999, "params": {}, "config": {}, "seed": 0, "step": 0}')
    with pytest.raises(ValueError, match="format_version"):
        load_checkpoint(path)
