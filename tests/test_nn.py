import contextlib
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from triagekit import nn
from triagekit.models import RISK_VARIANTS, RiskModel, RiskModelConfig
from triagekit.nn import (
    AdamState,
    ParamNodes,
    ParamStore,
    RowGrad,
    SparseRows,
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
    no_grad,
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
    w = constant(np.ones((2, 2, 3)))
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
    w = constant(np.zeros((3, 3, 4)))
    with pytest.raises(ValueError, match="rows"):
        conv1d(x, w, constant(np.zeros(4)))


def test_conv1d_stride():
    x = constant(np.arange(6, dtype=float).reshape(6, 1))
    w = constant(np.ones((1, 2, 1)))
    out = conv1d(x, w, constant(np.zeros(1)), stride=2)
    assert np.array_equal(out.value[:, 0], [1.0, 5.0, 9.0])


def test_conv1d_linear_in_input():
    rng = np.random.default_rng(0)
    w = constant(rng.standard_normal((2, 3, 4)))
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


def _padded_max_pool(x, n, g):
    """max_pool's output and input gradient as formulated before it read its
    maxima with a flat take: every input padded with -inf, argmax per block,
    `np.take_along_axis`, and the gradient written at (row, column) pairs."""
    rows, cols = x.shape
    blocks = -(-rows // n)
    padded = np.full((blocks * n, cols), -np.inf)
    padded[:rows] = x
    shaped = padded.reshape(blocks, n, cols)
    arg = shaped.argmax(axis=1)
    out = np.take_along_axis(shaped, arg[:, None, :], axis=1)[:, 0, :]
    dx = np.zeros_like(x)
    dx[arg + (np.arange(blocks) * n)[:, None], np.arange(cols)] = g
    return out, dx


@pytest.mark.parametrize("rows", [6, 7, 8])
def test_max_pool_keeps_the_first_max_of_signed_zeros_and_nans(rows):
    # Columns: -0.0 before +0.0, +0.0 before -0.0, a NaN among values, -inf
    # only, and random values with ties; 6 rows fill the blocks of 3, and 7
    # and 8 leave a partial tail.
    x = np.empty((rows, 5))
    x[:, 0] = [-0.0, 0.0, -1.0, 0.0, -0.0, -0.0, -0.0, 0.0][:rows]
    x[:, 1] = [0.0, -0.0, -0.0, -0.0, 0.0, 0.0, 0.0, -0.0][:rows]
    x[:, 2] = [1.0, np.nan, 2.0, np.nan, 3.0, np.nan, 4.0, 5.0][:rows]
    x[:, 3] = -np.inf
    x[:, 4] = np.random.default_rng(rows).integers(-2, 2, rows)
    g = np.random.default_rng(1).standard_normal((-(-rows // 3), 5))
    node = nn.Node(x, scan=False)
    out = max_pool(node, 3)
    want_out, want_dx = _padded_max_pool(x, 3, g)
    assert out.value.tobytes() == want_out.tobytes()
    assert [math.copysign(1.0, v) for v in out.value[:2, 0]] == [-1.0, 1.0]
    assert [math.copysign(1.0, v) for v in out.value[:2, 1]] == [1.0, -1.0]
    assert np.isnan(out.value[:, 2]).sum() == min(2, -(-rows // 3))
    out._backward(g)
    assert np.asarray(node.grad).tobytes() == want_dx.tobytes()


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


@pytest.mark.parametrize("starts, stops", [
    ([0, 2, 2, 5], [2, 2, 5, 7]),      # adjacent ranges, an empty one, ends on the last row
    ([1, 0, 4], [3, 0, 6]),            # unread rows around and between the ranges
    ([3, 0], [3, 0]),                  # every range empty
], ids=["adjacent_empty_last_row", "gaps", "all_empty"])
def test_mean_rows_ranges_match_loops_and_gradcheck(starts, stops):
    rng = np.random.default_rng(len(starts))
    params = ParamStore()
    params.add("x", rng.standard_normal((7, 3)))
    out = mean_rows(constant(params["x"]), starts, stops).value
    for i, (a, b) in enumerate(zip(starts, stops)):
        expected = params["x"][a:b].mean(axis=0) if b > a else np.zeros(3)
        np.testing.assert_allclose(out[i], expected, rtol=1e-15, atol=1e-15)

    def loss_fn(nodes):
        return readout_loss(mean_rows(nodes("x"), starts, stops), np.random.default_rng(2))

    worst = finite_difference_check(loss_fn, params)
    assert max(worst.values()) < 1e-6, worst


def test_mean_rows_rejects_overlapping_or_outside_ranges():
    x = constant(np.ones((5, 2)))
    for starts, stops in (([0, 1], [2, 3]), ([2, 0], [4, 2]), ([3], [6]), ([-1], [2]),
                          ([3], [2])):
        with pytest.raises(ValueError, match="ordered, disjoint"):
            mean_rows(x, starts, stops)


def _interleaved_mean_rows(x, starts, stops):
    """`mean_rows` as formulated before its bounds became one array: the
    output and the backward rule's gradient for an output gradient g."""
    rows, cols = x.shape
    whole = starts is None
    starts, stops = np.array([[0], [rows]] if whole else [starts, stops], dtype=np.intp)
    full = stops > starts
    counts = (stops - starts)[full]
    bounds = np.stack([starts[full], stops[full]], axis=1).ravel()
    spans = np.diff(bounds, prepend=0, append=rows)
    sums = np.add.reduceat(x, bounds[:-1] if rows in bounds[-1:] else bounds, axis=0)
    out = np.zeros((starts.size, cols))
    out[full] = sums[::2] / counts[:, None]

    def grad(g):
        parts = np.zeros((spans.size, cols))
        parts[1::2] = g.reshape(-1, cols)[full] / counts[:, None]
        return np.repeat(parts, spans, axis=0)

    return out[0] if whole else out, grad


@pytest.mark.parametrize("rows, starts, stops", [
    (40, None, None),
    (1, None, None),
    (0, None, None),
    (40, [0, 2, 2, 5, 9], [2, 2, 5, 9, 40]),      # adjacent, an empty range, ends on the last row
    (40, [1, 0, 4, 30, 40], [3, 0, 27, 39, 40]),  # gaps, empty ranges, one past the last row
    (40, [3, 0], [3, 0]),                         # every range empty
], ids=["whole", "one_row", "no_rows", "adjacent_empty_last_row", "gaps", "all_empty"])
@pytest.mark.parametrize("negative_zero", [False, True], ids=["plain", "negative_zero"])
def test_mean_rows_is_bit_equal_to_the_interleaved_formulation(rows, starts, stops,
                                                               negative_zero):
    rng = np.random.default_rng(rows + 7)
    # Magnitudes over many decades, so a change of summation order shows.
    x = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-8, 9, (rows, 3))
    if negative_zero:
        x[::2] = -0.0
        x[:, 2] = -0.0
    expected, expected_grad = _interleaved_mean_rows(x, starts, stops)
    node = constant(x)
    out = mean_rows(node, starts, stops)
    assert out.value.shape == expected.shape
    assert out.value.tobytes() == expected.tobytes()       # -0.0 and +0.0 told apart
    if negative_zero and (rows if starts is None else np.greater(stops, starts).any()):
        assert np.signbit(out.value[..., 2]).any()
    for seed in range(2):
        g = np.random.default_rng(seed).standard_normal(expected.shape) * 1e3
        node.grad = None
        out._backward(g)
        assert np.asarray(node.grad).tobytes() == expected_grad(g).tobytes()


# Ops whose output only selects, moves or clamps their inputs' values, so it
# is finite whenever they are; they skip the finite scan unless an input is a
# parameter node.
SCAN_FREE_OPS = {
    "relu": lambda a, b: relu(a),
    "max_pool": lambda a, b: max_pool(a, 2),
    "concat": lambda a, b: concat(flatten(a), flatten(b)),
    "flatten": lambda a, b: flatten(a),
    "stack_rows": lambda a, b: stack_rows([flatten(a), flatten(b)]),
    "pick": lambda a, b: pick(flatten(a), 1),
    "hinge": lambda a, b: hinge(pick(flatten(a), 0)),
}


@pytest.mark.parametrize("op", sorted(SCAN_FREE_OPS))
@pytest.mark.parametrize("grad_mode", [True, False], ids=["graph", "no_grad"])
def test_scan_free_ops_give_finite_outputs_at_the_largest_floats(op, grad_mode):
    big = np.array([[1.7e308, -1.7e308, 0.0], [-1.7e308, 1.7e308, -0.0],
                    [5e-324, -1.7e308, 1.7e308]])
    with contextlib.nullcontext() if grad_mode else no_grad():
        out = SCAN_FREE_OPS[op](constant(big), constant(-big))
    assert np.isfinite(out.value).all()
    assert np.abs(out.value).max() == 1.7e308


# Each scan-free op on a parameter of a shape it reads.
POISONED_READS = {
    "relu": ((3, 3), relu),
    "max_pool": ((3, 3), lambda p: max_pool(p, 2)),
    "flatten": ((3, 3), flatten),
    "concat": ((3,), lambda p: concat(p, p)),
    "stack_rows": ((3,), lambda p: stack_rows([p])),
    "pick": ((3,), lambda p: pick(p, 1)),
    "hinge": ((), hinge),
}


@pytest.mark.parametrize("op", sorted(POISONED_READS))
@pytest.mark.parametrize("grad_mode", [True, False], ids=["graph", "no_grad"])
def test_scan_free_op_on_a_poisoned_parameter_raises_naming_the_op(op, grad_mode):
    shape, read = POISONED_READS[op]
    params = ParamStore()
    params.add("p", np.ones(shape))
    params["p"].flat[min(1, params["p"].size - 1)] = np.inf    # past the store's checks
    with contextlib.nullcontext() if grad_mode else no_grad(), \
            pytest.raises(FloatingPointError, match=f"non-finite values in {op} op output"):
        read(ParamNodes(params)("p"))


def test_relu_of_a_nan_parameter_raises_where_its_output_keeps_the_nan():
    params = ParamStore()
    params.add("p", np.ones(4))
    params["p"][2] = np.nan
    with no_grad(), pytest.raises(FloatingPointError, match="relu op output"):
        relu(ParamNodes(params)("p"))


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
    with pytest.raises(FloatingPointError, match="non-finite values in constant op output"):
        constant(np.array([1.0, np.inf]))


# -- backward ---------------------------------------------------------------

def test_backward_requires_scalar():
    with pytest.raises(ValueError, match="scalar"):
        backward(constant(np.zeros(2)))


def test_unused_parameter_gets_zero_gradient():
    # A parameter the graph did not reach has no entry; Adam reads it as a
    # zero gradient on no rows and leaves it as it is.
    params = ParamStore()
    params.add("used", np.array([2.0]))
    params.add("frozen", np.array([5.0]))
    nodes = ParamNodes(params)
    loss = squared_error(nodes("used"), 0.0)
    backward(loss)
    grads = nodes.grads()
    assert "frozen" not in grads
    assert np.allclose(grads["used"], [4.0])
    assert grads["used"] is nodes("used").grad
    state = AdamState(params, lr=0.1)
    adam_step(params, grads, state)
    assert np.array_equal(params["frozen"], [5.0]) and state.live["frozen"] is not None
    worst = finite_difference_check(lambda n: squared_error(n("used"), 0.0), params)
    assert worst["frozen"] == 0.0 and worst["used"] < 1e-6


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
    grad = nodes.grads()["emb"]
    assert isinstance(grad, RowGrad) and np.array_equal(grad.rows, [0, 3, 7, 12, 29])
    assert np.array_equal(np.asarray(grad), expected)


def _row_scatter(ids, g):
    """The row-wise reference: one `np.add.at` over whole rows."""
    rows, inverse = np.unique(ids, return_inverse=True)
    drows = np.zeros((rows.size, *g.shape[1:]))
    np.add.at(drows, inverse, g)
    return rows, drows


@pytest.mark.parametrize("t, row", [(7, (1,)), (300, (50,)), (9000, (1,)), (9000, (50,)),
                                    (300, ()), (300, (2, 3))],
                         ids=["short_width_1", "width_50", "chunks_width_1", "chunks_width_50",
                              "vector_table", "matrix_rows"])
def test_lookup_back_flat_scatter_is_the_row_scatter_bit_for_bit(t, row):
    # Zipf ids repeat; entries span sixteen orders of magnitude, so another
    # summation order changes bits; a fifth are -0.0, and the last id occurs
    # once with only -0.0, which a sum from 0.0 turns into +0.0. 9000 ids
    # take three chunks of the flat index.
    rng = np.random.default_rng(t + len(row))
    ids = np.minimum(rng.zipf(1.3, t), 400) - 1
    ids[-1] = 450
    g = rng.standard_normal((t, *row)) * 10.0 ** rng.uniform(-8, 8, (t, *row))
    g[rng.random(g.shape) < 0.2] = -0.0
    g[-1] = -0.0
    table = nn._ParamNode(np.zeros((500, *row)))
    nn._lookup_back(table, ids, g)
    rows, drows = _row_scatter(ids, g)
    assert isinstance(table.grad, RowGrad) and np.array_equal(table.grad.rows, rows)
    assert table.grad.values.shape == drows.shape
    assert table.grad.values.tobytes() == drows.tobytes()
    assert not np.signbit(table.grad.values[-1]).any()


def test_lookup_back_holds_no_whole_flat_index():
    # 60,000 ids over 100 rows of width 50: a flat index for every position
    # would be 24 MB, one chunk's of 4096 positions is 1.6 MB, and the whole
    # call, np.unique included, stays under a quarter of 24 MB.
    rng = np.random.default_rng(46)
    t, width = 60_000, 50
    ids = rng.integers(0, 100, t)
    g = rng.standard_normal((t, width))
    table = nn._ParamNode(np.zeros((100, width)))
    nn._lookup_back(table, ids[:10], g[:10])   # numpy's first-call allocations stay out
    table.grad = None
    assert _peak_bytes(lambda: nn._lookup_back(table, ids, g)) < t * width * 8 / 4
    assert table.grad.values.tobytes() == _row_scatter(ids, g)[1].tobytes()


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


@pytest.mark.parametrize("kind", ["embedding", "sparse_conv"])
def test_backward_holds_no_table_sized_gradient(kind):
    # A few hundred ids into a 60,000 x 50 table (24 MB), or 100 nonzero
    # columns into a [7200 x 3 x 150] kernel (26 MB): the gradient is the
    # rows written, and backward and grads() peak far below one table.
    rng = np.random.default_rng(45)
    params = ParamStore()
    if kind == "embedding":
        params.add("table", rng.uniform(-0.05, 0.05, (60_000, 50)))
    else:
        params.add("table", np.zeros((7200, 3, 150)))
        params.add("b", np.zeros(150))

    def graph():
        nodes = ParamNodes(params)
        if kind == "embedding":
            out = mean_rows(embedding_lookup(nodes("table"), rng.integers(0, 60_000, 300)))
        else:
            cols = np.sort(rng.choice(7200, 100, replace=False))
            x = SparseRows(cols, rng.standard_normal((20, cols.size)), 7200)
            out = mean_rows(conv1d(x, nodes("table"), nodes("b")))
        readout = constant(rng.standard_normal((1, out.value.size)))
        return nodes, squared_error(dense(out, readout, constant(np.zeros(1))), 0.37)

    backward(graph()[1])                # numpy's first-call allocations stay out
    nodes, loss = graph()

    def step():
        backward(loss)
        nodes.grads()

    assert _peak_bytes(step) < params["table"].nbytes / 10
    assert isinstance(nodes.grads()["table"], RowGrad)


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
        stride = 1 + trial % 3
        params = ParamStore()
        params.add("x", rng.standard_normal((t, d)))
        params.add("w", rng.standard_normal((d, k, l)) * 0.5)
        params.add("b", rng.standard_normal(l) * 0.1)
        ro = np.random.default_rng(100 + trial)

        def loss_fn(nodes):
            out = conv1d(nodes("x"), nodes("w"), nodes("b"), stride=stride)
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


# -- convolution against textbook loops -------------------------------------------

def textbook_conv1d(x, w, b, stride=1):
    """out[r, f] = b[f] + sum over j, c of x[r * stride + j, c] * w[c, j, f],
    one product at a time: the reference for both input kinds of `conv1d`."""
    t, d = x.shape
    _, k, l = w.shape
    out = np.empty(((t - k) // stride + 1, l))
    for r in range(out.shape[0]):
        for f in range(l):
            total = b[f]
            for j in range(k):
                for c in range(d):
                    total += x[r * stride + j, c] * w[c, j, f]
            out[r, f] = total
    return out


def textbook_conv1d_grads(x, w, g, stride=1):
    """(dx, dw) of sum(g * textbook_conv1d(x, w, b, stride)), by the same loops."""
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    _, k, l = w.shape
    for r in range(g.shape[0]):
        for f in range(l):
            for j in range(k):
                dx[r * stride + j] += g[r, f] * w[:, j, f]
                dw[:, j, f] += g[r, f] * x[r * stride + j]
    return dx, dw


def sparse_input(rng, t, d, zero_cols):
    """A random [t x d] matrix with the given columns zero, dense and sparse."""
    x = rng.standard_normal((t, d))
    x[:, list(zero_cols)] = 0.0
    return x, SparseRows.from_dense(x)


def test_sparse_rows_checks_its_columns():
    x = np.array([[0.0, 1.5, 0.0, -2.0], [0.0, 0.0, 0.0, 3.0]])
    sparse = SparseRows.from_dense(x)
    assert np.array_equal(sparse.cols, [1, 3]) and sparse.shape == (2, 4)
    assert np.array_equal(sparse.values, [[1.5, -2.0], [0.0, 3.0]])
    empty = SparseRows.from_dense(np.zeros((3, 5)))
    assert empty.cols.size == 0 and empty.values.shape == (3, 0) and empty.shape == (3, 5)
    for cols in ([3, 1], [1, 1], [-1, 2], [1, 4]):
        with pytest.raises(ValueError, match="sorted, unique"):
            SparseRows(cols, np.ones((2, 2)), 4)
    with pytest.raises(ValueError, match="values"):
        SparseRows([0, 1], np.ones((2, 3)), 4)


def test_sparse_rows_is_its_dense_matrix():
    x = np.array([[0.0, 1.5, 0.0, -2.0], [0.0, -0.0, 0.0, 3.0]])
    sparse = SparseRows.from_dense(x)
    assert sparse.size == x.size == 8
    whole = np.asarray(sparse)
    assert whole.dtype == x.dtype and np.array_equal(whole.view(np.uint64), x.view(np.uint64))
    assert np.count_nonzero(sparse) == 3
    assert np.asarray(sparse, dtype=np.float32).dtype == np.float32
    empty = SparseRows.from_dense(np.zeros((3, 5)))
    assert empty.size == 15 and np.array_equal(np.asarray(empty), np.zeros((3, 5)))


def test_sparse_rows_from_rows_is_from_dense_of_the_stacked_rows():
    rows = [(np.array([1, 4]), np.array([0.5, -0.0])), (np.array([], dtype=np.intp), np.zeros(0)),
            (np.array([0, 1, 6]), np.array([-0.0, 2.0, 0.0])), (np.array([4]), np.array([3.0]))]
    for n in (4, 6):
        for used in (rows, rows[2:3], []):
            dense = np.zeros((n, 7))
            for i, (cols, values) in enumerate(used):
                dense[n - len(used) + i, cols] = values
            got, want = SparseRows.from_rows(used, n, 7), SparseRows.from_dense(dense)
            assert np.array_equal(got.cols, want.cols) and got.cols.dtype == np.intp
            assert got.values.shape == want.values.shape == (n, want.cols.size)
            assert np.array_equal(got.values.view(np.uint64), want.values.view(np.uint64))
    # Columns 0 and 6 hold only zeros; column 4 keeps its -0.0 beside the 3.0.
    assert np.array_equal(SparseRows.from_rows(rows, 4, 7).cols, [1, 4])


@pytest.mark.parametrize("t,d,k,stride,zero_cols", [
    (6, 7, 3, 1, (0, 2, 3, 6)),    # zero columns on both edges
    (5, 4, 2, 1, (0, 1, 2, 3)),    # an all-zero input: an empty context
    (3, 5, 3, 1, (1,)),            # T == window: one output row
    (8, 5, 2, 3, (2,)),            # strided, T not a multiple of the stride
], ids=["zero_columns", "all_zero", "t_equals_window", "strided"])
def test_gradcheck_sparse_conv1d(t, d, k, stride, zero_cols):
    rng = np.random.default_rng(t * 100 + d)
    _, x = sparse_input(rng, t, d, zero_cols)
    params = ParamStore()
    params.add("w", rng.standard_normal((d, k, 3)) * 0.5)
    params.add("b", rng.standard_normal(3) * 0.1)

    def loss_fn(nodes):
        out = relu(conv1d(x, nodes("w"), nodes("b"), stride=stride))
        return readout_loss(out, np.random.default_rng(5))

    worst = finite_difference_check(loss_fn, params)
    assert max(worst.values()) < 1e-4, worst


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv1d_matches_textbook_loops(stride):
    # Both input kinds: the same sums in another order, so outputs and
    # gradients agree to 1e-12. A sparse input's weight gradient reaches the
    # rows of its nonzero columns only, and it gets no gradient itself.
    rng = np.random.default_rng(41 + stride)
    for trial in range(6):
        k = int(rng.integers(1, 4))
        t = k + int(rng.integers(0, 7))
        if stride > 1 and (t - k) % stride == 0:
            t += 1                      # leave rows after the last window
        d = int(rng.integers(4, 12))
        l = int(rng.integers(1, 6))
        zero_cols = rng.choice(d, size=int(rng.integers(0, d)), replace=False)
        x, sparse = sparse_input(rng, t, d, zero_cols)
        params = ParamStore()
        params.add("x", x)
        params.add("w", rng.standard_normal((d, k, l)))
        params.add("b", rng.standard_normal(l))
        expected = textbook_conv1d(x, params["w"], params["b"], stride)
        g = rng.standard_normal(expected.shape)
        dx, dw = textbook_conv1d_grads(x, params["w"], g, stride)
        for kind in ("dense", "sparse"):
            nodes = ParamNodes(params)
            inp = sparse if kind == "sparse" else nodes("x")
            out = conv1d(inp, nodes("w"), nodes("b"), stride=stride)
            np.testing.assert_allclose(out.value, expected, rtol=1e-12, atol=1e-12)
            # sum(g * out): backward hands the conv g as its output gradient.
            readout = dense(flatten(out), constant(g.reshape(1, -1)), constant(np.zeros(1)))
            backward(pick(readout, 0))
            grads = nodes.grads()
            np.testing.assert_allclose(np.asarray(grads["w"]), dw, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(grads["b"], g.sum(axis=0), rtol=1e-12, atol=1e-12)
            if kind == "dense":
                np.testing.assert_allclose(grads["x"], dx, rtol=1e-12, atol=1e-12)
        assert "x" not in grads
        assert np.array_equal(grads["w"].rows, sparse.cols)
        assert not np.any(np.delete(np.asarray(grads["w"]), sparse.cols, axis=0))


def test_dense_conv1d_keeps_no_window_matrix():
    # Between forward and backward a dense conv holds its output and nothing
    # the size of its [windows x k*d_in] window matrix.
    rng = np.random.default_rng(43)
    x = constant(rng.standard_normal((400, 64)))
    w, b = constant(rng.standard_normal((64, 5, 8))), constant(np.zeros(8))
    tracemalloc.start()
    try:
        out = conv1d(x, w, b)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < x.value.nbytes + out.value.nbytes + 16_384, held


def test_dense_conv1d_holds_no_window_product():
    # Forward and backward peak far below one [T x k x l] array (8 MB here):
    # the conv is k accumulated matmuls, each [windows x l] or [T x d_in].
    rng = np.random.default_rng(44)
    t, d, k, l = 2000, 4, 8, 64
    params = ParamStore()
    params.add("x", rng.standard_normal((t, d)))
    params.add("w", rng.standard_normal((d, k, l)))
    params.add("b", np.zeros(l))
    nodes = ParamNodes(params)
    tracemalloc.start()
    try:
        backward(pick(mean_rows(conv1d(nodes("x"), nodes("w"), nodes("b"))), 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nodes("x").grad.shape == (t, d)
    assert peak < t * k * l * 8 // 2, peak


def test_sparse_conv1d_shared_weights_record_the_union_of_columns():
    rng = np.random.default_rng(42)
    d, k, l = 9, 2, 3
    _, s1 = sparse_input(rng, 4, d, (0, 1, 5, 6, 7, 8))
    _, s2 = sparse_input(rng, 4, d, (0, 2, 3, 4, 8))
    params = ParamStore()
    params.add("w", rng.standard_normal((d, k, l)))
    params.add("b", np.zeros(l))

    def loss_fn(nodes):
        out = concat(flatten(conv1d(s1, nodes("w"), nodes("b"))),
                     flatten(conv1d(s2, nodes("w"), nodes("b"))))
        return readout_loss(out, np.random.default_rng(1))

    nodes = ParamNodes(params)
    backward(loss_fn(nodes))
    grads = nodes.grads()
    assert np.array_equal(grads["w"].rows, [1, 2, 3, 4, 5, 6, 7])
    assert not np.asarray(grads["w"])[[0, 8]].any()
    worst = finite_difference_check(loss_fn, params)
    assert max(worst.values()) < 1e-4, worst


# -- conv1d over an embedding table's rows, blocking, and no_grad -------------

def test_gradcheck_conv1d_over_table_rows():
    rng = np.random.default_rng(46)
    for trial in range(6):
        vocab, d = 6, int(rng.integers(1, 4))
        k, l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        stride = 1 + trial % 2
        ids = rng.integers(0, vocab, size=int(rng.integers(k, 9)))
        ids[-1] = ids[0]                        # a repeated row
        params = ParamStore()
        params.add("emb", rng.standard_normal((vocab, d)) * 0.5)
        params.add("w", rng.standard_normal((d, k, l)) * 0.5)
        params.add("b", rng.standard_normal(l) * 0.1)

        def loss_fn(nodes):
            out = conv1d(nodes("emb"), nodes("w"), nodes("b"), stride=stride, ids=ids)
            return readout_loss(relu(out), np.random.default_rng(trial))

        worst = finite_difference_check(loss_fn, params)
        assert set(worst) == {"emb", "w", "b"}
        assert max(worst.values()) < 1e-4, worst


def whole_span_conv1d(x, w, b, stride=1):
    """conv1d's arithmetic over all windows at once, unblocked: x[:span] @
    W[:, 0] + x[1:1 + span] @ W[:, 1] + ... + b, each product over the whole
    span."""
    k = w.shape[1]
    span = (x.shape[0] - k) // stride * stride + 1
    out = x[:span:stride] @ w[:, 0]
    for j in range(1, k):
        out += x[j:j + span:stride] @ w[:, j]
    out += b
    return out


# The table path of conv1d sums per distinct id, so its output and gradients
# agree with the position-order reference within this share of the largest
# magnitude (float64; the worst case measured at 150k ids is under 1e-14).
TABLE_CONV_TOLERANCE = 1e-12


def assert_close_to_scale(got, want, what=""):
    assert got.shape == want.shape, what
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= TABLE_CONV_TOLERANCE * scale, what


def depression_conv_inputs(seed, t, d=50):
    """Shapes of the depression model's first stage: window 3, 25 filters."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-0.2, 0.2, (d, 3, 25))
    return rng, constant(w), constant(rng.uniform(-0.1, 0.1, 25))


# Spans of one block, of a short tail under fixed 4096-row blocks (4099 is a
# 1-row tail, 8195 a 3-row one, 3 * 4096 + 7 a 7-row one) and of the cap user.
@pytest.mark.parametrize("t", [3, 800, 801, 4098, 4099, 8195, 3 * 4096 + 7, 56_776])
def test_conv1d_over_table_rows_is_whole_span_conv(t):
    # The products of the distinct rows, gathered, are the unblocked products
    # over the whole [T x d] lookup summed in another order.
    rng, w, b = depression_conv_inputs(t, t)
    table = constant(rng.uniform(-0.05, 0.05, (5000, 50)))
    ids = rng.integers(0, 5000, t)
    out = conv1d(table, w, b, ids=ids).value
    assert_close_to_scale(out, whole_span_conv1d(table.value[ids], w.value, b.value))


def table_conv1d_in_512_row_gathers(table, w, b, ids):
    """conv1d over a table's rows as formulated with 512-row products and
    512-row gathers, offset after offset, then the bias."""
    rows_, inverse = np.unique(ids, return_inverse=True)
    k, l = w.shape[1:]
    n = ids.size - k + 1
    out = np.empty((n, l))
    for j in range(k):
        prod = np.empty((rows_.size, l))
        for s in range(0, rows_.size, 512):
            np.matmul(table[rows_[s:s + 512]], w[:, j], out=prod[s:s + 512])
        at = inverse[j:j + n]
        for s in range(0, n, 512):
            if j == 0:
                out[s:s + 512] = prod[at[s:s + 512]]
            else:
                out[s:s + 512] += prod[at[s:s + 512]]
    return out + b


@pytest.mark.parametrize("t", [3, 515, 2050, 4099, 8195])
def test_conv1d_over_table_rows_gathers_in_any_blocks_with_the_same_bits(t):
    rng, w, b = depression_conv_inputs(t + 1, t)
    table = constant(rng.uniform(-0.05, 0.05, (3000, 50)))
    ids = rng.integers(0, 3000, t)
    with no_grad():
        out = conv1d(table, w, b, ids=ids).value
    assert out.tobytes() == table_conv1d_in_512_row_gathers(
        table.value, w.value, b.value, ids).tobytes()


@pytest.mark.parametrize("t,stride,d", [
    (8195, 1, 50), (8195, 2, 50), (8195, 15, 50),
    (15 * 4100 + 3, 15, 25),                   # 4101 output rows: two blocks at stride 15
])
def test_dense_conv1d_blocks_are_the_whole_span_conv(t, stride, d):
    rng, w, b = depression_conv_inputs(t + stride, t, d)
    x = constant(rng.uniform(-0.05, 0.05, (t, d)))
    out = conv1d(x, w, b, stride=stride).value
    assert np.array_equal(out, whole_span_conv1d(x.value, w.value, b.value, stride))


@pytest.mark.parametrize("t", [3, 4099])
def test_conv1d_over_table_rows_gradients_are_lookup_then_conv1d(t):
    rng = np.random.default_rng(47)
    params = ParamStore()
    params.add("emb", rng.uniform(-0.05, 0.05, (300, 50)))
    params.add("w", rng.uniform(-0.2, 0.2, (50, 3, 25)))
    params.add("b", rng.uniform(-0.1, 0.1, 25))
    ids = rng.integers(0, 300, t)
    g = rng.standard_normal((t - 2, 25))
    grads = []
    for over_rows in (True, False):
        nodes = ParamNodes(params)
        if over_rows:
            out = conv1d(nodes("emb"), nodes("w"), nodes("b"), ids=ids)
        else:
            out = conv1d(embedding_lookup(nodes("emb"), ids), nodes("w"), nodes("b"))
        backward(pick(dense(flatten(out), constant(g.reshape(1, -1)), constant(np.zeros(1))), 0))
        grads.append(nodes.grads())
    for name in ("emb", "w", "b"):
        assert_close_to_scale(np.asarray(grads[0][name]), np.asarray(grads[1][name]), name)
    assert np.array_equal(grads[0]["emb"].rows, np.unique(ids))


def block_crossing_ids(vocab=5):
    """4101 ids of a small vocabulary (every id repeats on both sides of the
    4096-row gather block boundary), the ids at that boundary also among
    the first."""
    ids = np.random.default_rng(49).integers(0, vocab, 4096 + 5)
    ids[4093:4099] = ids[:6]
    return ids


@pytest.mark.parametrize("ids,stride", [
    (np.array([4, 0, 5, 0, 2, 2, 1, 4, 3]), 2),
    (np.full(7, 3), 1),
    (block_crossing_ids(), 1),
], ids=["stride_2", "all_equal_ids", "repeats_across_block_boundary"])
def test_gradcheck_conv1d_over_table_rows_edges(ids, stride):
    # The readout is quadratic in every parameter, so central differences
    # are exact up to rounding at any length.
    rng = np.random.default_rng(ids.size + stride)
    params = ParamStore()
    params.add("emb", rng.standard_normal((6, 2)) * 0.5)
    params.add("w", rng.standard_normal((2, 3, 2)) * 0.5)
    params.add("b", rng.standard_normal(2) * 0.1)

    def loss_fn(nodes):
        out = conv1d(nodes("emb"), nodes("w"), nodes("b"), stride=stride, ids=ids)
        return readout_loss(out, np.random.default_rng(7))

    worst = finite_difference_check(loss_fn, params)
    assert set(worst) == {"emb", "w", "b"}
    assert max(worst.values()) < 1e-6, worst


@pytest.mark.parametrize("t,stride", [(3, 1), (4099, 1), (4099, 2), (9000, 3)])
def test_conv1d_over_table_rows_no_grad_forward_is_the_graph_forward(t, stride):
    rng, w, b = depression_conv_inputs(t + stride, t)
    table = constant(rng.uniform(-0.05, 0.05, (700, 50)))
    ids = rng.integers(0, 700, t)
    graph = conv1d(table, w, b, stride=stride, ids=ids)
    with no_grad():
        served = conv1d(table, w, b, stride=stride, ids=ids)
    assert graph.parents and not served.parents
    assert np.array_equal(served.value.view(np.uint64), graph.value.view(np.uint64))


def test_conv1d_over_table_rows_at_the_cap_is_within_tolerance():
    # A user at the 1500-post cap: 150k Zipf ids of a 60k vocabulary. Output
    # against the whole-span conv of the lookup; gradients against
    # lookup-then-conv1d.
    rng = np.random.default_rng(50)
    t, vocab = 150_000, 60_000
    ids = np.minimum(rng.zipf(1.3, t), vocab - 1)
    params = ParamStore()
    params.add("emb", rng.uniform(-0.05, 0.05, (vocab, 50)))
    params.add("w", rng.uniform(-0.2, 0.2, (50, 3, 25)))
    params.add("b", rng.uniform(-0.1, 0.1, 25))
    g = rng.standard_normal((t - 2, 25))
    grads = []
    for over_rows in (True, False):
        nodes = ParamNodes(params)
        if over_rows:
            out = conv1d(nodes("emb"), nodes("w"), nodes("b"), ids=ids)
            assert_close_to_scale(out.value, whole_span_conv1d(
                params["emb"][ids], params["w"], params["b"]))
        else:
            out = conv1d(embedding_lookup(nodes("emb"), ids), nodes("w"), nodes("b"))
        backward(pick(dense(flatten(out), constant(g.reshape(1, -1)), constant(np.zeros(1))), 0))
        grads.append(nodes.grads())
        del out, nodes
    assert np.array_equal(grads[0]["emb"].rows, grads[1]["emb"].rows)
    assert_close_to_scale(grads[0]["emb"].values, grads[1]["emb"].values, "emb")
    for name in ("w", "b"):
        assert_close_to_scale(grads[0][name], grads[1][name], name)


def test_conv1d_over_table_rows_rejects_bad_inputs():
    table, w, b = constant(np.zeros((5, 2))), constant(np.zeros((2, 3, 1))), constant(np.zeros(1))
    with pytest.raises(ValueError, match="nonempty 1-D"):
        conv1d(table, w, b, ids=[])
    with pytest.raises(ValueError, match="nonempty 1-D"):
        conv1d(table, w, b, ids=[[1, 2, 3]])
    with pytest.raises(ValueError, match="not SparseRows"):
        conv1d(SparseRows.from_dense(np.ones((5, 2))), w, b, ids=[1, 2, 3])
    with pytest.raises(ValueError, match="at least window size 3"):
        conv1d(table, w, b, ids=[1, 2])
    with pytest.raises(ValueError, match="depth 2 != filter depth 4"):
        conv1d(table, constant(np.zeros((4, 3, 1))), b, ids=[1, 2, 3])


def test_no_grad_builds_no_graph_and_restores_the_mode_after_an_error():
    x, w, b = constant(np.ones(2)), constant(np.ones((1, 2))), constant(np.zeros(1))
    with no_grad():
        out = dense(x, w, b)
    assert out.parents == () and out._backward is None
    assert np.array_equal(out.value, [2.0])
    with pytest.raises(RuntimeError, match="inside"):
        with no_grad():
            raise RuntimeError("inside")
    out = dense(x, w, b)
    assert len(out.parents) == 3 and out._backward is not None
    parents = []
    with no_grad():
        with no_grad():
            pass
        assert dense(x, w, b).parents == ()     # an inner exit keeps the outer mode
        other = threading.Thread(target=lambda: parents.append(dense(x, w, b).parents))
        other.start()
        other.join(timeout=10)
    assert not other.is_alive() and len(parents[0]) == 3    # the mode is per thread
    assert dense(x, w, b).parents != ()


def test_no_grad_non_finite_output_names_its_op():
    table = constant(np.ones((3, 2)))
    table.value[1, 0] = np.inf                  # written past the store's checks
    w, b = constant(np.ones((2, 2, 1))), constant(np.zeros(1))
    with no_grad(), pytest.raises(FloatingPointError, match="conv1d op output"):
        conv1d(table, w, b, ids=[0, 1, 2])
    with no_grad(), np.errstate(over="ignore"), \
            pytest.raises(FloatingPointError, match="dense op output"):
        dense(constant(np.ones(2)), constant(np.full((1, 2), 1e308)), constant(np.zeros(1)))


def test_no_grad_relu_writes_only_into_a_fresh_op_output():
    rng = np.random.default_rng(48)
    a = rng.standard_normal((4, 3))
    params = ParamStore()
    params.add("p", a)
    before = a.copy()
    a.setflags(write=False)                     # any write into a raises
    scalar = np.array(0.5)
    scalar.setflags(write=False)
    w, b = constant(rng.standard_normal((3, 2, 2))), constant(np.zeros(2))
    with no_grad():
        # A constant, a parameter, and op outputs that share their arrays.
        for node in (constant(a), ParamNodes(params)("p"), flatten(constant(a)),
                     hinge(constant(scalar))):
            value = node.value.copy()
            assert np.array_equal(relu(node).value, np.maximum(value, 0.0))
            assert np.array_equal(node.value, value)
        assert np.array_equal(params["p"], before)
        conv = conv1d(constant(a), w, b)
        expected = np.maximum(conv.value, 0.0)
        out = relu(conv)
        assert out.value is conv.value and np.array_equal(out.value, expected)


def test_relu_backward_reads_its_output():
    # Graph mode keeps no mask: the rule reads out > 0, which is x > 0.
    x = constant(np.array([[-1.0, 0.0, 2.0], [-0.0, 3.0, -4.0]]))
    out = relu(x)
    assert np.array_equal(out.value, [[0.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
    assert not np.signbit(out.value).any()
    out._backward(np.full((2, 3), 5.0))
    assert np.array_equal(x.grad, [[0.0, 0.0, 5.0], [0.0, 5.0, 0.0]])
    cells = out._backward.__closure__
    assert not any(getattr(c.cell_contents, "dtype", None) == bool for c in cells)


# -- Adam ---------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    params = ParamStore()
    params.add("w", np.array([1.0, -2.0]))
    state = AdamState(params, lr=0.1)
    adam_step(params, {"w": np.zeros(2)}, state)
    assert np.array_equal(params["w"], [1.0, -2.0])
    assert state.step_count == 1


def test_adam_first_step_hand_value():
    # t=1, g=1, lr=0.1: bias-corrected m_hat = v_hat = 1 -> step of ~0.1.
    params = ParamStore()
    params.add("w", np.array([0.0]))
    state = AdamState(params, lr=0.1)
    adam_step(params, {"w": np.ones(1)}, state)
    assert params["w"][0] == pytest.approx(-0.1, abs=1e-8)


def test_adam_nan_gradient_rejected():
    params = ParamStore()
    params.add("w", np.array([0.0]))
    state = AdamState(params)
    with pytest.raises(FloatingPointError):
        adam_step(params, {"w": np.array([np.nan])}, state)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(5)
        params = ParamStore()
        params.add("w", rng.standard_normal(6))
        state = AdamState(params, lr=0.01)
        for _ in range(25):
            adam_step(params, {"w": rng.standard_normal(6)}, state)
        return params["w"].tobytes()

    assert run() == run()


class TextbookAdam:
    """Dense Adam written out as the paper states it: the reference."""

    def __init__(self, params, lr, b1=0.9, b2=0.999, eps=1e-8):
        self.p = {name: arr.copy() for name, arr in params.items()}
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.lr, self.b1, self.b2, self.eps, self.t = lr, b1, b2, eps, 0

    def step(self, grads):
        # Every parameter, with a zero gradient for one grads does not name.
        self.t += 1
        bc1, bc2 = 1.0 - self.b1 ** self.t, 1.0 - self.b2 ** self.t
        for name, p in self.p.items():
            g = np.asarray(grads[name]) if name in grads else np.zeros_like(p)
            self.m[name] = self.b1 * self.m[name] + (1.0 - self.b1) * g
            self.v[name] = self.b2 * self.v[name] + (1.0 - self.b2) * g * g
            self.p[name] = self.p[name] - (self.lr * (self.m[name] / bc1)
                                           / (np.sqrt(self.v[name] / bc2) + self.eps))

    def assert_equal(self, params, state):
        # Bit patterns, so that a -0 where the reference has +0 fails too.
        def bits(arr):
            return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)

        for name, arr in params.items():
            m, v = state.moments(name)
            assert np.array_equal(bits(arr), bits(self.p[name])), name
            assert np.array_equal(bits(m), bits(self.m[name])), name
            assert np.array_equal(bits(v), bits(self.v[name])), name


def test_adam_matches_textbook_update_bit_for_bit():
    rng = np.random.default_rng(8)
    shapes = {"big": (7, 9), "vec": (5,), "cube": (2, 3, 4), "one": (1,), "still": (4, 3)}
    params = ParamStore()
    for name, shape in shapes.items():
        params.add(name, rng.standard_normal(shape))
    state = AdamState(params, lr=0.01)
    ref = TextbookAdam(params, lr=0.01, b1=0.9, b2=0.999, eps=1e-8)
    for _ in range(25):
        grads = {name: rng.standard_normal(shape) * 10.0 ** rng.uniform(-4, 4, shape)
                 for name, shape in shapes.items() if name != "still"}
        grads["still"] = np.zeros(shapes["still"])
        adam_step(params, grads, state)
        ref.step(grads)
    ref.assert_equal(params, state)


def test_live_row_adam_matches_dense_adam_bit_for_bit(monkeypatch):
    # A 24-row table of 3-wide rows and 24-element blocks, so a gather holds
    # 8 rows and the live rows go in up to 2 gathers. Row 0 is never
    # touched, row 1 only in step 0; rows 2 and 3 get an exact +0.0 and -0.0
    # gradient; ids repeat, and gradients span eight orders of magnitude.
    # From step 30 on, ids reach every row but row 0: more than half the
    # rows are live and the update turns dense.
    monkeypatch.setattr(nn, "_ADAM_BLOCK", 24)
    rng = np.random.default_rng(30)
    params = ParamStore()
    params.add("emb", rng.standard_normal((24, 3)))
    params.add("bias", rng.standard_normal(5))
    state = AdamState(params, lr=0.01)
    ref = TextbookAdam(params, lr=0.01)
    for step in range(36):
        high = 12 if step < 30 else 24
        ids = np.concatenate([[1] if step == 0 else [],
                              rng.integers(2, high, int(rng.integers(1, 9)))]).astype(np.intp)
        g = np.zeros((24, 3))
        np.add.at(g, ids, rng.standard_normal((ids.size, 3)) * 10.0 ** rng.uniform(-4, 4))
        g[2], g[3] = 0.0, -0.0
        rows = np.unique(np.concatenate([ids, [2, 3]]))
        grads = {"emb": RowGrad(rows, g[rows], g.shape), "bias": rng.standard_normal(5)}
        adam_step(params, grads, state)
        ref.step(grads)
        ref.assert_equal(params, state)
        if step == 29:
            assert state.live["emb"] is not None and 0 not in state.live["emb"]
            assert state.live["emb"].size > 8
    assert state.live["emb"] is None and state.live["bias"] is None


def test_lookup_rows_reach_adam_and_match_dense_adam():
    # Lookups only: the table's gradient comes with the rows it touched.
    rng = np.random.default_rng(31)
    params = ParamStore()
    params.add("emb", rng.standard_normal((40, 4)))
    params.add("w", rng.standard_normal((1, 12)))
    state = AdamState(params, lr=0.05)
    ref = TextbookAdam(params, lr=0.05)
    for _ in range(10):
        nodes = ParamNodes(params)
        ids = [rng.integers(0, 20, 3), rng.integers(0, 20, 3)]
        flat = flatten(stack_rows([mean_rows(embedding_lookup(nodes("emb"), i)) for i in ids]
                                  + [mean_rows(embedding_lookup(nodes("emb"), ids[0]))]))
        backward(squared_error(dense(flat, nodes("w"), constant(np.zeros(1))), 0.5))
        grads = nodes.grads()
        assert np.array_equal(grads["emb"].rows, np.unique(np.concatenate(ids)))
        assert not isinstance(grads["w"], RowGrad)
        adam_step(params, grads, state)
        ref.step(grads)
        ref.assert_equal(params, state)
    assert (state.live["emb"] < 20).all()


@pytest.mark.parametrize("dense_first", [False, True], ids=["lookup_first", "dense_first"])
def test_table_also_used_densely_drops_its_rows(dense_first):
    rng = np.random.default_rng(32)
    params = ParamStore()
    params.add("emb", rng.standard_normal((10, 3)))
    state = AdamState(params, lr=0.05)
    ref = TextbookAdam(params, lr=0.05)
    for step in range(6):
        nodes = ParamNodes(params)
        order = []

        def recording(node, what):
            rule = node._backward

            def back(g):
                order.append(what)
                rule(g)
            node._backward = back
            return node

        looked = recording(embedding_lookup(nodes("emb"), [1, 4, 1]), "lookup")
        loss = pick(mean_rows(looked), 0)
        mixed = step % 2 == 1
        if mixed:
            whole = pick(recording(mean_rows(nodes("emb")), "dense"), 2)
            # backward runs the first argument's subgraph first
            loss = nn.add(whole, loss) if dense_first else nn.add(loss, whole)
        backward(nn.scale(loss, float(rng.uniform(0.5, 2.0))))
        grads = nodes.grads()
        if mixed:
            assert order == (["dense", "lookup"] if dense_first else ["lookup", "dense"])
            assert isinstance(grads["emb"], np.ndarray)
        else:
            assert np.array_equal(grads["emb"].rows, [1, 4])
        adam_step(params, grads, state)
        ref.step(grads)
        ref.assert_equal(params, state)
        assert (state.live["emb"] is None) == (step >= 1)


def test_user_without_a_window_keeps_the_embedding_live_rows():
    # Steps on a normal user, a user whose posts are all shorter than the
    # convolution window (no embedding row reached), and a normal user: the
    # table stays on live-row Adam, bit-identical to dense Adam.
    from triagekit.models import DepressionModel, DepressionModelConfig

    config = DepressionModelConfig(vocab_size=60, embed_dim=4, conv_filters=3,
                                   merge_window=2, merge_stride=2, merge_filters=2,
                                   dense_dims=(3,), n_term=8)
    model = DepressionModel(config, seed=2)
    state = AdamState(model.params, lr=0.01)
    ref = TextbookAdam(model.params, lr=0.01)
    rng = np.random.default_rng(34)
    users = [[rng.integers(2, 60, 6), rng.integers(2, 60, 5)], [[5, 6], [7]],
             [rng.integers(2, 60, 7)]]
    for label, posts in enumerate(users):
        nodes = ParamNodes(model.params)
        backward(model.loss(posts, label % 2, nodes))
        grads = nodes.grads()
        assert ("emb" in grads) == (label != 1)
        adam_step(model.params, grads, state)
        ref.step(grads)
        ref.assert_equal(model.params, state)
        assert state.live["emb"] is not None
    assert 0 < state.live["emb"].size <= 18


def test_adam_nan_in_touched_row_rejected_by_name():
    params = ParamStore()
    params.add("emb", np.zeros((6, 2)))
    before = params["emb"].copy()
    state = AdamState(params)
    grads = {"emb": RowGrad([4], [[0.0, np.nan]], (6, 2))}
    with pytest.raises(FloatingPointError, match="non-finite gradient for 'emb'"):
        adam_step(params, grads, state)
    assert np.array_equal(params["emb"], before)


def test_adam_overflowing_update_names_the_parameter():
    params = ParamStore()
    params.add("w", np.array([-1e308, 0.5]))
    state = AdamState(params, lr=1e308)
    with np.errstate(over="ignore"), \
            pytest.raises(FloatingPointError, match="parameter 'w' after the Adam step"):
        adam_step(params, {"w": np.ones(2)}, state)


def test_non_finite_parameter_values_are_caught_where_written_or_used():
    params = ParamStore()
    params.add("w", np.ones((1, 2)))
    bad = ParamStore()
    bad.add("w", np.ones((1, 2)))
    bad["w"][0, 1] = np.inf
    with pytest.raises(FloatingPointError, match="parameter 'w'"):
        params.load_values(bad)
    # A value written from outside the library reaches the first op output.
    params["w"][0, 0] = np.nan
    nodes = ParamNodes(params)
    w = nodes("w")
    with pytest.raises(FloatingPointError, match="op output"):
        dense(constant(np.ones(2)), w, constant(np.zeros(1)))


def test_adam_step_allocates_no_parameter_sized_temporaries():
    rng = np.random.default_rng(6)
    params = ParamStore()
    params.add("w", rng.standard_normal((800, 500)))
    params.add("u", rng.standard_normal((200, 500)))
    params.add("b", rng.standard_normal(500))
    dense_bytes = sum(arr.nbytes for _, arr in params.items())
    params.add("emb", rng.standard_normal((50_000, 50)))
    state = AdamState(params)
    # 20k of the table's rows live: 16 gathers of 1310 rows, and with the
    # dense parameters' blocks enough for the worker threads.
    rows = np.sort(rng.choice(50_000, 20_000, replace=False))
    grads = {name: rng.standard_normal(arr.shape) for name, arr in params.items()
             if name != "emb"}
    grads["emb"] = RowGrad(rows, rng.standard_normal((rows.size, 50)), (50_000, 50))
    adam_step(params, grads, state)
    # The bound leaves the 20 MB table nothing: its update stays in scratch.
    assert _peak_bytes(lambda: adam_step(params, grads, state)) < 0.5 * dense_bytes
    assert np.array_equal(state.live["emb"], rows)


def test_adam_state_keeps_half_a_row_tracked_table_per_moment():
    # A 20 MB table updated on its live rows: m and v are slots for half its
    # rows each, so the state holds at most the table's size in moments
    # (twice that if they were whole arrays), beside the scratch and the
    # row-to-slot map.
    rng = np.random.default_rng(9)
    params = ParamStore()
    params.add("emb", np.zeros((50_000, 50)))
    held = []
    peak = _peak_bytes(lambda: held.append(AdamState(params)))
    state = held[0]
    scratch = sum(buf.nbytes for bufs in state.scratch for buf in bufs)
    assert peak - scratch - state.slot["emb"].nbytes <= 1.01 * params["emb"].nbytes
    rows = np.sort(rng.choice(50_000, 20_000, replace=False))
    grads = {"emb": RowGrad(rows, rng.standard_normal((rows.size, 50)), (50_000, 50))}
    adam_step(params, grads, state)
    assert state.m["emb"].shape == state.v["emb"].shape == (25_000, 50)
    m, v = state.moments("emb")
    assert np.count_nonzero(m.any(axis=1)) == np.count_nonzero(v.any(axis=1)) == rows.size


def zero_grads(params):
    return {name: np.zeros_like(arr) for name, arr in params.items()}


def blocked_adam_case(monkeypatch, workers):
    """Four-element blocks, and one scratch set per worker; 1 runs inline.

    Returns the pool sizes the steps asked for."""
    monkeypatch.setattr(nn, "_ADAM_BLOCK", 4)
    monkeypatch.setattr(nn, "_usable_cores", lambda: workers)
    asked = []
    pool = nn._adam_pool
    monkeypatch.setattr(nn, "_adam_pool", lambda threads: asked.append(threads) or pool(threads))
    return asked


@pytest.mark.parametrize("workers", [1, 3], ids=["inline", "workers"])
def test_blocked_adam_matches_textbook_update_bit_for_bit(monkeypatch, workers):
    # Dense parameters over many blocks; a row-tracked table whose live rows
    # span several gathers; and 7-wide rows, wider than the 4-element
    # default, which widen every block to one row. Three workers on a
    # shortened switch interval exercise the shared block counter.
    asked = blocked_adam_case(monkeypatch, workers)
    rng = np.random.default_rng(40)
    shapes = {"w": (9, 7), "emb": (30, 2), "wide": (12, 7), "b": (5,)}
    params = ParamStore()
    for name, shape in shapes.items():
        params.add(name, rng.standard_normal(shape))
    state = AdamState(params, lr=0.01)
    assert state.block == 7 and len(state.scratch) == workers
    ref = TextbookAdam(params, lr=0.01)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for step in range(12):
            grads = {}
            for name in ("emb", "wide"):
                ids = rng.integers(0, shapes[name][0] // 2, 6)
                g = np.zeros(shapes[name])
                np.add.at(g, ids, rng.standard_normal((6, shapes[name][1])))
                grads[name] = RowGrad(np.unique(ids), g[np.unique(ids)], g.shape)
            for name in ("w", "b"):
                grads[name] = rng.standard_normal(shapes[name]) * 10.0 ** rng.uniform(-4, 4)
            adam_step(params, grads, state)
            ref.step(grads)
            ref.assert_equal(params, state)
    finally:
        sys.setswitchinterval(interval)
    assert state.live["emb"].size > 3 and state.live["wide"].size > 1
    assert asked == ([] if workers == 1 else [workers - 1] * 12)


def test_adam_pool_waits_for_enough_elements(monkeypatch):
    # Two-element vectors are a block each, so they make more blocks than
    # `_POOL_MIN_BLOCKS` well before they make that many blocks of elements.
    # One vector short of the threshold runs inline; at it, the step is shared.
    asked = blocked_adam_case(monkeypatch, 3)
    vectors = nn._POOL_MIN_BLOCKS * nn._ADAM_BLOCK // 2
    params = ParamStore()
    for i in range(vectors - 1):
        params.add(f"b{i}", np.ones(2))
    state = AdamState(params)
    assert len(params) > nn._POOL_MIN_BLOCKS
    adam_step(params, zero_grads(params), state)
    assert asked == []
    params.add("last", np.ones(2))
    state = AdamState(params)
    adam_step(params, zero_grads(params), state)
    assert asked == [2]


@pytest.mark.parametrize("variant", RISK_VARIANTS)
def test_adam_on_acceptance_scale_risk_model_runs_inline(monkeypatch, variant):
    # Criterion 7's models (64-dim sentences, 8 of them; 125k to 243k
    # parameters) slowed when the pool woke on every step. A step with a
    # dense gradient for every parameter, the largest a step can be, stays
    # inline with the default block size.
    monkeypatch.setattr(nn, "_usable_cores", lambda: 2)
    asked = []
    pool = nn._adam_pool
    monkeypatch.setattr(nn, "_adam_pool", lambda threads: asked.append(threads) or pool(threads))
    model = RiskModel(RiskModelConfig.for_variant(variant, sentence_dim=64, max_sentences=8),
                      seed=0)
    adam_step(model.params, zero_grads(model.params), AdamState(model.params))
    assert asked == []


@pytest.mark.parametrize("workers", [1, 3], ids=["inline", "workers"])
def test_adam_nan_in_last_blocks_names_first_parameter(monkeypatch, workers):
    # Both parameters fail in their last block. Slowing one parameter's
    # blocks in turn makes the workers meet the two failures in either
    # order; the error still names the first parameter.
    blocked_adam_case(monkeypatch, workers)
    block = nn._adam_block

    def timed(state, scratch, bc1, bc2, name, *arrays):
        if name == slow:
            time.sleep(0.005)
        block(state, scratch, bc1, bc2, name, *arrays)

    monkeypatch.setattr(nn, "_adam_block", timed)
    params = ParamStore()
    params.add("first", np.zeros(8))
    params.add("second", np.zeros(40))
    for slow in ("first", "second", None) * 4:
        state = AdamState(params)
        grads = zero_grads(params)
        grads["first"][-1] = np.nan
        grads["second"][-1] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite gradient for 'first'"):
            adam_step(params, grads, state)
        params["first"][...] = params["second"][...] = 0.0


def test_adam_scratch_does_not_grow_with_the_largest_parameter():
    def scratch_bytes(rows):
        params = ParamStore()
        params.add("emb", np.zeros((rows, 50)))
        params.add("b", np.zeros(50))
        return sum(buf.nbytes for bufs in AdamState(params).scratch for buf in bufs)

    small, large = scratch_bytes(10), scratch_bytes(200_000)
    assert small == large == 4 * nn._ADAM_BLOCK * 8 * nn._usable_cores()


def test_dense_backward_keeps_one_weight_gradient():
    # The outer product the backward rule makes is the weight's gradient.
    rng = np.random.default_rng(41)
    params = ParamStore()
    params.add("w", rng.standard_normal((500, 400)))
    x = constant(rng.standard_normal(400))

    def step():
        nodes = ParamNodes(params)
        out = dense(x, nodes("w"), constant(np.zeros(500)))
        backward(pick(out, 3))
        return nodes.grads()

    step()
    assert _peak_bytes(step) < 1.5 * params["w"].nbytes
    expected = np.zeros((500, 400))
    expected[3] = x.value
    assert np.array_equal(step()["w"], expected)


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


def split_checkpoint(data: bytes):
    """A format-2 checkpoint's parsed header line and its float32 body."""
    head, body = data.split(b"\n", 1)
    return json.loads(head), body


def join_checkpoint(header, body: bytes) -> bytes:
    return json.dumps(header, sort_keys=True).encode() + b"\n" + body


def test_checkpoint_files_keep_kernels_filter_first(tmp_path):
    # Every 3-D parameter is a conv kernel, [d_in x k x filters] in memory
    # and [filters x k x d_in] in the file; other parameters are as they are.
    rng = np.random.default_rng(5)
    params = ParamStore()
    params.add("conv.w", rng.standard_normal((6, 3, 2)))
    params.add("dense.w", rng.standard_normal((2, 4)))
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, params, {"kind": "test"}, seed=1, step=2)
    header, body = split_checkpoint(path.read_bytes())
    assert header["params"] == [["conv.w", [2, 3, 6]], ["dense.w", [2, 4]]]
    stored = np.frombuffer(body, "<f4")
    assert stored.size == 36 + 8
    assert np.array_equal(stored[:36].reshape(2, 3, 6),
                          params["conv.w"].transpose(2, 1, 0).astype("<f4"))
    assert np.array_equal(stored[36:].reshape(2, 4), params["dense.w"].astype("<f4"))
    loaded = load_checkpoint(path)[0]
    assert loaded["conv.w"].shape == (6, 3, 2) and loaded["conv.w"].flags["C_CONTIGUOUS"]
    for name, arr in params.items():
        assert np.array_equal(loaded[name], arr.astype("<f4")), name
    again = tmp_path / "again.ckpt.json"
    save_checkpoint(again, loaded, {"kind": "test"}, seed=1, step=2)
    assert again.read_bytes() == path.read_bytes()


class _Unconvertible(np.ndarray):
    """An array whose float32 conversion fails, as a write can fail partway."""

    def astype(self, *args, **kwargs):
        raise OSError("no space left")


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


def test_checkpoint_save_failing_in_the_body_leaves_earlier_file(tmp_path):
    params = ParamStore()
    params.add("w", np.arange(6.0).reshape(2, 3))
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, params, {"kind": "test"}, seed=1, step=2)
    before = path.read_bytes()
    params["w"][...] += 1.0
    # The header and "w" are written before "z" fails.
    params._arrays["z"] = np.zeros(3).view(_Unconvertible)
    with pytest.raises(OSError, match="no space left"):
        save_checkpoint(path, params, {"kind": "test"}, seed=1, step=3)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]


def test_checkpoint_version_guard(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 999, "params": {}, "config": {}, "seed": 0, "step": 0}')
    with pytest.raises(ValueError, match="format_version"):
        load_checkpoint(path)


def _stored(params):
    return [(name, arr.transpose(2, 1, 0) if arr.ndim == 3 else arr)
            for name, arr in params.items()]


def _reference_checkpoint_bytes(params, config, seed, step):
    """A format-2 checkpoint written whole: the header line and every
    parameter's float32 bytes at once."""
    header = {"format_version": 2, "config": dict(config), "seed": seed, "step": step,
              "params": [[name, list(arr.shape)] for name, arr in _stored(params)]}
    return join_checkpoint(header, b"".join(arr.astype("<f4").tobytes()
                                             for _, arr in _stored(params)))


def _odd_params():
    """1-D, 2-D, 3-D and empty parameters; a dense.w row is 20 bytes, so a
    4-byte chunk still writes and reads whole rows."""
    rng = np.random.default_rng(11)
    params = ParamStore()
    params.add("dense.w", rng.standard_normal((9, 5)))
    params.add("b", rng.standard_normal(7))
    params.add("conv.w", rng.standard_normal((6, 3, 4)))
    params.add("none", np.zeros((0, 3)))
    return params


@pytest.mark.parametrize("chunk", [4, 12, 1 << 18], ids=["row", "rows", "whole"])
def test_streamed_checkpoint_is_the_whole_document_text(tmp_path, monkeypatch, chunk):
    # Saved in chunks of whole rows, the file is the header line and the
    # float32 bytes of every parameter written at once; it reads back the same
    # at that chunk size.
    monkeypatch.setattr(nn, "_IO_CHUNK", chunk)
    params = _odd_params()
    config = {"kind": "test", "note": 'a "data": "x" string\nover two lines'}
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, params, config, seed=3, step=4)
    assert path.read_bytes() == _reference_checkpoint_bytes(params, config, 3, 4)
    loaded, got_config, seed, step = load_checkpoint(path)
    assert (got_config, seed, step) == (config, 3, 4)
    for name, arr in params.items():
        assert np.array_equal(loaded[name], arr.astype("<f4")), name


_CHECKPOINT_FAULTS = [
    ("truncated", "not a JSON checkpoint header line"),
    ("bad_key", "not a JSON checkpoint header line: Invalid \\escape"),
    ("no_step", "checkpoint has no 'step' field"),
    ("null_seed", "checkpoint field 'seed' is not an integer"),
    ("version_3", "unsupported checkpoint format_version 3"),
    ("bad_params", "checkpoint field 'params' is not a list of [name, shape]"),
    ("bad_shape", "parameter 'b' has a bad shape [7.0]"),
    ("negative_shape", "parameter 'b' has a bad shape [-7]"),
    ("duplicate", "duplicate parameter 'b'"),
    ("truncated_header", "not a JSON checkpoint header line"),
    ("short_body", "495 bytes follow the checkpoint header, the shapes in 'params' need 496"),
    ("trailing_byte", "497 bytes follow the checkpoint header, the shapes in 'params' need 496"),
    ("huge_shape", "496 bytes follow the checkpoint header, the shapes in 'params' "
                   f"need {496 - 28 + 4 * 2 ** 40}"),
    ("nan_body", "non-finite values in parameter 'b'"),
]


@pytest.mark.parametrize("fault, message", _CHECKPOINT_FAULTS,
                         ids=[fault for fault, _ in _CHECKPOINT_FAULTS])
def test_malformed_checkpoint_is_an_error_naming_the_file(tmp_path, fault, message):
    params = _odd_params()
    path = tmp_path / "model.ckpt.json"
    header, body = split_checkpoint(_reference_checkpoint_bytes(params, {"kind": "test"}, 3, 4))
    # "b" is the second parameter: its 7 floats follow dense.w's 45.
    entry = header["params"][1]
    assert entry == ["b", [7]] and len(body) == 4 * (45 + 7 + 72)
    if fault == "no_step":
        del header["step"]
    elif fault == "null_seed":
        header["seed"] = None
    elif fault == "version_3":
        header["format_version"] = 3
    elif fault == "bad_params":
        header["params"][1] = {"b": [7]}
    elif fault == "bad_shape":
        entry[1] = [7.0]
    elif fault == "negative_shape":
        entry[1] = [-7]
    elif fault == "duplicate":
        header["params"][0] = ["b", [9, 5]]
    elif fault == "short_body":
        body = body[:-1]
    elif fault == "trailing_byte":
        body += b"\0"
    elif fault == "huge_shape":
        entry[1] = [2 ** 40]
    elif fault == "nan_body":
        body = body[:4 * 46] + np.array([np.nan], "<f4").tobytes() + body[4 * 47:]
    head, body = join_checkpoint(header, body).split(b"\n", 1)
    if fault == "truncated":            # half a header line, then the body
        head = head[:len(head) // 2]
    elif fault == "bad_key":
        head = head.replace(b'"step"', b'"st\\ep"')
    data = head + b"\n" + body
    path.write_bytes(head[:len(head) // 2] if fault == "truncated_header" else data)
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: {message}"), str(err.value)


FORMAT_1_DOC = {"format_version": 1, "config": {"kind": "test"}, "seed": 3, "step": 4,
                 "param_order": ["b"], "params": {"b": {"shape": [1], "data": "AACAPw=="}}}


@pytest.mark.parametrize("indent", [None, 2], ids=["one_line", "indented"])
def test_format_1_checkpoint_is_refused_by_name(tmp_path, indent):
    # A format-1 document, one JSON object with base64 float32 data, is no
    # longer read, whether written on one line or over several.
    path = tmp_path / "model.ckpt.json"
    path.write_text(json.dumps(FORMAT_1_DOC, indent=indent) + "\n")
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    message = ("unsupported checkpoint format_version 1" if indent is None
               else "not a JSON checkpoint header line")
    assert str(err.value).startswith(f"{path}: {message}"), str(err.value)


def _kernel_and_dense_params():
    rng = np.random.default_rng(12)
    params = ParamStore()
    params.add("conv.w", rng.standard_normal((7200, 3, 50)))       # 8.6 MB
    params.add("dense.w", rng.standard_normal((1000, 1500)))       # 12 MB
    params.add("dense.b", rng.standard_normal(1000))
    return params


def test_checkpoint_save_holds_no_whole_data_string(tmp_path):
    params = _kernel_and_dense_params()
    nbytes = sum(arr.nbytes for _, arr in params.items())
    path = tmp_path / "model.ckpt.json"
    peak = _peak_bytes(lambda: save_checkpoint(path, params, {"kind": "test"}, seed=0, step=0))
    assert peak < nbytes / 10


def test_checkpoint_load_holds_one_copy_of_the_parameters(tmp_path):
    # The file, a whole parameter's float32 bytes and a transposed kernel are
    # never held: loading peaks at about the loaded float64 arrays themselves.
    params = _kernel_and_dense_params()
    nbytes = sum(arr.nbytes for _, arr in params.items())
    path = tmp_path / "model.ckpt.json"
    save_checkpoint(path, params, {"kind": "test"}, seed=0, step=0)
    loaded = []
    peak = _peak_bytes(lambda: loaded.append(load_checkpoint(path)[0]))
    assert peak <= 1.1 * nbytes
    for name, arr in params.items():
        assert np.array_equal(loaded[0][name], arr.astype("<f4")), name
