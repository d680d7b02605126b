"""Minimal neural-network engine: the layer set the classifiers need.

Reverse-mode autodiff over row-major float64 numpy arrays (activations are
vectors and matrices, convolution kernels 3-D), with analytic backward rules
per op, Adam with bias correction, checkpoint I/O (weights stored as
float32), and a central finite-difference oracle for verifying every
gradient. There is no general autodiff beyond the ops defined here.

Adam runs one loop over cache-sized blocks of every parameter (flat slices,
or gathered live rows), shared by the usable cores on large steps, with
results bit-identical to a whole-array update.

`conv1d` is the one convolution, k accumulated matmuls that hold nothing
larger than the input and the output. Its kernels are laid out [d_in x k x
filters], input column first, for a dense node input and for a constant
`SparseRows` input alike; with the latter it reads and writes only the
kernel rows of the input's nonzero columns, so Adam skips the rows no input
has reached. Checkpoint files keep every 3-D parameter (every one is a
kernel) as [filters x k x d_in]; `save_checkpoint` and `load_checkpoint`
swap the axes at the file boundary. Sequences concatenated go through each
op at once; `mean_rows` with row ranges pools each one's own rows.
"""

from __future__ import annotations

import base64
import functools
import itertools
import json
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping

import numpy as np

from .corpus import atomic_open

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# Every op output is checked for NaN/Inf, because a poisoned value is much
# harder to trace later than at the op that produced it. Parameters are
# checked where they are written (ParamStore.add and load_values, adam_step),
# not on every graph: a value written into a store from outside the library
# is caught by the first op output it reaches.
def _check_finite(value: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# Parameter and gradient stores

class ParamStore:
    """Ordered map of name -> weight array. Arrays are owned by the store and
    C-contiguous."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, values: np.ndarray) -> np.ndarray:
        if name in self._arrays:
            raise ValueError(f"duplicate parameter {name!r}")
        arr = np.array(values, dtype=self.dtype, order="C")
        _check_finite(arr, f"parameter {name!r}")
        self._arrays[name] = arr
        return arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._arrays.items())

    def copy(self) -> "ParamStore":
        dup = ParamStore(self.dtype)
        for name, arr in self._arrays.items():
            dup.add(name, arr)
        return dup

    def load_values(self, other: "ParamStore") -> None:
        """Overwrite array contents in place from a store with matching shapes."""
        for name, arr in self._arrays.items():
            src = other[name]
            if src.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name!r}: {src.shape} vs {arr.shape}")
            _check_finite(src, f"parameter {name!r}")
            arr[...] = src


class GradStore:
    """Gradient arrays mirroring a ParamStore's names and shapes exactly.

    Arrays given in ``arrays`` are held as they are, not copied; every other
    parameter gets a zero gradient. ``rows`` maps a parameter to the indices
    (along its first axis, possibly repeated) of the only rows its gradient
    may have nonzero; a parameter without an entry has a dense gradient.
    """

    def __init__(self, params: ParamStore, arrays: Mapping[str, np.ndarray] | None = None,
                 rows: Mapping[str, np.ndarray] | None = None):
        arrays = arrays or {}
        self._arrays = {name: arrays[name] if name in arrays else np.zeros_like(arr)
                        for name, arr in params.items()}
        self.rows = dict(rows or {})

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._arrays.items())


# ---------------------------------------------------------------------------
# Autodiff graph

class Node:
    """One value in the computation graph, with its local backward rule.

    ``rows`` lists the row-index arrays that row-writing backward rules
    (`embedding_lookup`, `conv1d` of a `SparseRows` input) wrote into
    ``grad``, while those are its only nonzero rows; any other gradient into
    the node drops the record.
    """

    __slots__ = ("value", "grad", "rows", "parents", "_backward")

    def __init__(self, value, parents: tuple = (), backward: Callable | None = None):
        self.value = np.asarray(value)
        _check_finite(self.value, "op output")
        self.grad: np.ndarray | None = None
        self.rows: list[np.ndarray] | None = None
        self.parents = parents
        self._backward = backward


class _ParamNode(Node):
    """A parameter's node. Its value was checked when it was written to the
    store, so building a graph does not scan it again."""

    __slots__ = ()

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = None
        self.rows = None
        self.parents = ()
        self._backward = None


def constant(value) -> Node:
    return Node(value)


def _acc(node: Node, grad: np.ndarray, fresh: bool = False) -> None:
    """Add grad into node's gradient. A ``fresh`` grad, an array the backward
    rule just made and holds nowhere else, becomes the first gradient as it
    is; any other is copied, since it may be a view or shared."""
    node.rows = None
    if node.grad is None:
        fresh = fresh and grad.dtype == node.value.dtype
        node.grad = grad if fresh else np.array(grad, dtype=node.value.dtype)
    else:
        node.grad += grad


def _acc_rows(node: Node, rows: np.ndarray, drows: np.ndarray) -> None:
    """Add drows into the distinct rows ``rows`` of node's gradient, and
    record them while row writes are its only gradients.

    The dense gradient is allocated once per graph, not per call, and zeroed
    in full: glibc raises its mmap threshold to the size of any freed mmapped
    block (up to 32 MiB), so after the first graph the table comes from the
    heap, not from fresh pages that rows never written would leave unmapped.
    """
    if node.grad is None:
        node.grad = np.zeros(node.value.shape, dtype=node.value.dtype)
        node.rows = []
    node.grad[rows] += drows
    if node.rows is not None:
        node.rows.append(rows)


def backward(loss: Node) -> None:
    """Populate .grad on every node reachable from a scalar loss node."""
    if loss.value.shape != ():
        raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            stack.append((parent, False))
    loss.grad = np.asarray(1.0, dtype=loss.value.dtype)
    for node in reversed(order):
        if node.grad is not None and node._backward is not None:
            node._backward(node.grad)


class ParamNodes:
    """Per-graph view of a ParamStore: one shared Node per parameter name.

    ``grads`` hands the nodes' own gradient arrays to the GradStore without a
    copy, with the rows of those written only by row-writing ops;
    gradients of parameters never touched by the graph come back as zeros.
    """

    def __init__(self, params: ParamStore):
        self.params = params
        self._nodes: dict[str, Node] = {}

    def __call__(self, name: str) -> Node:
        node = self._nodes.get(name)
        if node is None:
            node = _ParamNode(self.params[name])
            self._nodes[name] = node
        return node

    def grads(self) -> GradStore:
        touched = {name: node for name, node in self._nodes.items() if node.grad is not None}
        return GradStore(self.params, {name: node.grad for name, node in touched.items()},
                         {name: np.concatenate(node.rows) for name, node in touched.items()
                          if node.rows is not None})


# ---------------------------------------------------------------------------
# Ops

def embedding_lookup(table: Node, ids) -> Node:
    """Rows of an embedding table for a sequence of token ids: [T x d]."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("embedding_lookup needs a nonempty 1-D id sequence")
    out = table.value[ids]

    def back(g):
        # Sum per distinct row, in position order, then add into the table's
        # gradient.
        rows, inverse = np.unique(ids, return_inverse=True)
        drows = np.zeros((rows.size, *g.shape[1:]), dtype=table.value.dtype)
        np.add.at(drows, inverse, g)
        _acc_rows(table, rows, drows)

    return Node(out, (table,), back)


class SparseRows:
    """A constant [T x dim] matrix kept as its nonzero columns.

    ``cols`` are the sorted, unique ids of the columns holding a nonzero, and
    ``values`` [T x len(cols)] holds those columns in that order. An all-zero
    matrix has no columns.
    """

    __slots__ = ("cols", "values", "dim")

    def __init__(self, cols, values, dim: int):
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values)
        if cols.ndim != 1 or values.ndim != 2 or values.shape[1] != cols.size:
            raise ValueError(f"sparse rows need 1-D cols and [T x len(cols)] values, "
                             f"got cols {cols.shape} and values {values.shape}")
        if cols.size and (cols[0] < 0 or cols[-1] >= dim or (cols[1:] <= cols[:-1]).any()):
            raise ValueError(f"sparse columns must be sorted, unique ids in [0, {dim})")
        self.cols = cols
        self.values = values
        self.dim = dim

    @classmethod
    def from_dense(cls, matrix) -> "SparseRows":
        matrix = np.asarray(matrix)
        cols = matrix.any(axis=0).nonzero()[0]
        return cls(cols, matrix.take(cols, axis=1), matrix.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[0], self.dim


def conv1d(x: Node | SparseRows, weights: Node, bias: Node, stride: int = 1) -> Node:
    """1-D convolution over the rows of x [T x d_in] with weights [d_in x k x l].

    Output is pre-activation: out[r, f] = b[f] + sum over j < k of
    x[r * stride + j] dotted with weights[:, j, f]. Rows past the last full
    window are not covered (output has floor((T - k) / stride) + 1 rows).

    Computed as k accumulated matmuls, out = sum_j x[j::stride] @ W[:, j],
    with dW[:, j] = x[j::stride]^T @ g and, for a dense node x,
    dx[j::stride] += g @ W[:, j]^T; no [T x k x l] product is ever held. A
    constant `SparseRows` x reads only the kernel rows of its nonzero
    columns, writes the weight gradient on those rows only, with a row record
    as `embedding_lookup` does, and gets no gradient.
    """
    sparse = isinstance(x, SparseRows)
    T, d_in = x.shape if sparse else x.value.shape
    d_w, k, l = weights.value.shape
    if d_w != d_in:
        raise ValueError(f"conv input depth {d_in} != filter depth {d_w}")
    if T < k:
        raise ValueError(f"conv input has {T} rows, needs at least window size {k}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    span = (T - k) // stride * stride + 1       # input rows from first to last window start
    xv = x.values if sparse else x.value
    w = weights.value[x.cols] if sparse else weights.value
    out = xv[:span:stride] @ w[:, 0]
    for j in range(1, k):
        out += xv[j:j + span:stride] @ w[:, j]
    out += bias.value

    def back(g):
        dw = np.stack([xv[j:j + span:stride].T @ g for j in range(k)], axis=1)
        if sparse:
            _acc_rows(weights, x.cols, dw)
        else:
            _acc(weights, dw, fresh=True)
            dx = np.zeros_like(xv)
            for j in range(k):
                dx[j:j + span:stride] += g @ w[:, j].T
            _acc(x, dx, fresh=True)
        _acc(bias, g.sum(axis=0))

    return Node(out, (weights, bias) if sparse else (x, weights, bias), back)


def relu(x: Node) -> Node:
    mask = x.value > 0

    def back(g):
        _acc(x, g * mask)

    return Node(np.where(mask, x.value, 0.0), (x,), back)


def max_pool(x: Node, n: int) -> Node:
    """Per column, max over consecutive blocks of n rows; partial tail block
    is pooled over its actual length. [R x l] -> [ceil(R/n) x l]."""
    if n < 1:
        raise ValueError("pool length must be >= 1")
    rows, cols = x.value.shape
    blocks = -(-rows // n)
    padded = np.full((blocks * n, cols), -np.inf, dtype=x.value.dtype)
    padded[:rows] = x.value
    shaped = padded.reshape(blocks, n, cols)
    arg = shaped.argmax(axis=1)                               # [blocks x l]
    out = np.take_along_axis(shaped, arg[:, None, :], axis=1)[:, 0, :]

    def back(g):
        dx = np.zeros_like(x.value)
        row_idx = arg + (np.arange(blocks) * n)[:, None]      # argmax never lands on padding
        dx[row_idx, np.arange(cols)] = g                      # one entry per (row, column)
        _acc(x, dx, fresh=True)

    return Node(out, (x,), back)


def mean_rows(x: Node, starts=None, stops=None) -> Node:
    """Column means of x [R x l] as [l]: average pooling over all rows. Given
    row ranges, one mean per range [starts[i], stops[i]) as [n x l] instead,
    zero for an empty range; nonempty ranges lie in row order, disjoint."""
    rows, cols = x.value.shape
    whole = starts is None
    starts, stops = np.array([[0], [rows]] if whole else [starts, stops], dtype=np.intp)
    full = stops > starts
    counts = (stops - starts)[full]
    bounds = np.stack([starts[full], stops[full]], axis=1).ravel()
    spans = np.diff(bounds, prepend=0, append=rows)     # gap, range, gap, ..., range, gap
    if (stops < starts).any() or (spans < 0).any():
        raise ValueError("mean_rows ranges must be ordered, disjoint row ranges of x")
    # In turn, sums of each range and of the gap after it (the last runs to the end).
    sums = np.add.reduceat(x.value, bounds[:-1] if rows in bounds[-1:] else bounds, axis=0)
    out = np.zeros((starts.size, cols), dtype=x.value.dtype)
    out[full] = sums[::2] / counts[:, None]

    def back(g):
        parts = np.zeros((spans.size, cols), dtype=x.value.dtype)
        parts[1::2] = g.reshape(-1, cols)[full] / counts[:, None]
        _acc(x, np.repeat(parts, spans, axis=0), fresh=True)

    return Node(out[0] if whole else out, (x,), back)


def dense(x: Node, weights: Node, bias: Node) -> Node:
    """Affine map W @ x + b for a 1-D input. Activations are separate ops."""
    if x.value.ndim != 1:
        raise ValueError(f"dense input must be 1-D, got shape {x.value.shape}")
    out_dim, in_dim = weights.value.shape
    if x.value.shape[0] != in_dim or bias.value.shape != (out_dim,):
        raise ValueError(f"dense shape mismatch: W {weights.value.shape}, "
                         f"x {x.value.shape}, b {bias.value.shape}")
    out = weights.value @ x.value + bias.value

    def back(g):
        _acc(weights, np.outer(g, x.value), fresh=True)
        _acc(bias, g)
        _acc(x, weights.value.T @ g)

    return Node(out, (x, weights, bias), back)


def dropout(x: Node, rate: float, rng: np.random.Generator | None = None,
            train: bool = False) -> Node:
    """Inverted dropout: train mode zeroes entries with probability ``rate``
    and scales survivors by 1/(1-rate); eval mode is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    keep = (rng.random(x.value.shape) >= rate) / (1.0 - rate)

    def back(g):
        _acc(x, g * keep)

    return Node(x.value * keep, (x,), back)


def concat(a: Node, b: Node) -> Node:
    na = a.value.shape[0]

    def back(g):
        _acc(a, g[:na])
        _acc(b, g[na:])

    return Node(np.concatenate([a.value, b.value]), (a, b), back)


def flatten(x: Node) -> Node:
    shape = x.value.shape

    def back(g):
        _acc(x, g.reshape(shape))

    return Node(x.value.reshape(-1), (x,), back)


def stack_rows(rows: list[Node]) -> Node:
    """Stack 1-D nodes into a matrix [len(rows) x d]."""
    if not rows:
        raise ValueError("stack_rows needs at least one row")
    out = np.stack([r.value for r in rows])

    def back(g):
        for i, r in enumerate(rows):
            _acc(r, g[i])

    return Node(out, tuple(rows), back)


def pick(x: Node, index: int) -> Node:
    """Single component of a 1-D node, as a scalar node."""

    def back(g):
        dx = np.zeros_like(x.value)
        dx[index] = g
        _acc(x, dx)

    return Node(x.value[index], (x,), back)


def add(a: Node, b: Node) -> Node:
    def back(g):
        _acc(a, g)
        _acc(b, g)

    return Node(a.value + b.value, (a, b), back)


def sub(a: Node, b: Node) -> Node:
    def back(g):
        _acc(a, g)
        _acc(b, -g)

    return Node(a.value - b.value, (a, b), back)


def add_const(x: Node, c: float) -> Node:
    def back(g):
        _acc(x, g)

    return Node(x.value + c, (x,), back)


def scale(x: Node, c: float) -> Node:
    def back(g):
        _acc(x, g * c)

    return Node(x.value * c, (x,), back)


def hinge(x: Node) -> Node:
    """max(0, x) on a scalar node."""
    active = x.value > 0

    def back(g):
        _acc(x, g if active else np.zeros_like(g))

    return Node(x.value if active else np.zeros_like(x.value), (x,), back)


def euclidean_distance(a: Node, b: Node) -> Node:
    """L2 distance between two 1-D nodes; gradient guarded at the origin kink."""
    diff = a.value - b.value
    dist = float(np.sqrt(diff @ diff))

    def back(g):
        d = diff / max(dist, 1e-12)
        _acc(a, g * d)
        _acc(b, -g * d)

    return Node(np.asarray(dist), (a, b), back)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax (max-subtraction), for inference-time probabilities."""
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def cross_entropy(logits: Node, target: int) -> Node:
    """-log softmax(logits)[target], computed via stable log-sum-exp."""
    z = logits.value
    if not 0 <= target < z.shape[0]:
        raise ValueError(f"target {target} out of range for {z.shape[0]} classes")
    m = z.max()
    lse = m + math.log(np.exp(z - m).sum())
    probs = np.exp(z - lse)

    def back(g):
        d = probs.copy()
        d[target] -= 1.0
        _acc(logits, g * d)

    return Node(np.asarray(lse - z[target]), (logits,), back)


def squared_error(y: Node, target: float) -> Node:
    """(y - target)^2 for a scalar or length-1 node."""
    val = float(y.value.reshape(()) if y.value.ndim == 0 else y.value.reshape(1)[0])
    diff = val - target

    def back(g):
        _acc(y, np.full_like(y.value, 2.0 * diff) * g)

    return Node(np.asarray(diff * diff), (y,), back)


# ---------------------------------------------------------------------------
# Initialization

def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def embedding_init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.uniform(-0.05, 0.05, size=shape)


# ---------------------------------------------------------------------------
# Adam

# Elements per Adam block: a block stays in cache through the update's ten
# elementwise passes, where a whole multi-megabyte parameter streams every
# pass through memory.
_ADAM_BLOCK = 1 << 16
# Full blocks of elements a step must update before the cores share it; a
# smaller step runs inline, where waking the workers would cost more than it
# saves. Elements, not blocks, are counted, since every bias vector is a
# block of its own.
_POOL_MIN_BLOCKS = 8


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class AdamState:
    """Per-parameter first/second moments, live rows and step count.

    ``live`` holds, per parameter, a mask over its rows (first axis) marking
    those that have ever had a gradient (from `embedding_lookup` or `conv1d`
    of a `SparseRows` input), or None once the parameter is updated densely
    (after a dense gradient, or once more than half its rows are live). A
    row outside the mask has m = v = 0 and a zero gradient, which Adam
    leaves exactly as they are, so `adam_step` skips it.

    ``scratch`` holds one set of six block-sized buffers (p, g, m, v and two
    temporaries) per usable core. A block is `_ADAM_BLOCK` elements, or one
    row of the widest-rowed parameter if that is more, so the scratch does
    not grow with the largest parameter and a step allocates no
    parameter-sized temporaries.
    """

    def __init__(self, params: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.live: dict[str, np.ndarray | None] = {
            name: np.zeros(arr.shape[:1], dtype=bool) for name, arr in params.items()}
        self.block = max([_ADAM_BLOCK] + [math.prod(arr.shape[1:]) for _, arr in params.items()])
        self.scratch = [tuple(np.empty(self.block, dtype=params.dtype) for _ in range(6))
                        for _ in range(_usable_cores())]


@functools.cache
def _adam_pool(threads: int) -> ThreadPoolExecutor:
    """The process's Adam worker threads, shared by every `AdamState` and
    started by the first step that needs them. The import waits for that
    step too, so that a process that only serves does not load it."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(threads, thread_name_prefix="adam")


def _adam_block(state: AdamState, scratch, bc1: float, bc2: float, name: str,
                p, g, m, v, rows) -> None:
    """Adam on one block, in place: flat slices p, g, m, v of a parameter when
    ``rows`` is None, else the rows ``rows`` of whole arrays, gathered into
    ``scratch`` and written back only once they pass the finite check."""
    if rows is not None:
        shape = (rows.size, *p.shape[1:])
        gathered = [buf[:math.prod(shape)].reshape(shape) for buf in scratch[:4]]
        for src, dst in zip((p, g, m, v), gathered):
            np.take(src, rows, axis=0, out=dst, mode="clip")
        whole = p, m, v
        p, g, m, v = gathered
    a, b = (buf[:p.size].reshape(p.shape) for buf in scratch[4:])
    m *= state.beta1
    m += np.multiply(g, 1.0 - state.beta1, out=a)
    v *= state.beta2
    np.multiply(g, 1.0 - state.beta2, out=a)
    v += np.multiply(a, g, out=a)
    np.multiply(np.divide(m, bc1, out=a), state.lr, out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), state.eps, out=b)
    p -= np.divide(a, b, out=a)
    # A non-finite gradient entry always makes its parameter entry
    # non-finite (NaN stays NaN, inf/inf is NaN), so the written entries are
    # the one scan; the gradient is read only to word the error.
    if not np.isfinite(p).all():
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for {name!r}")
        raise FloatingPointError(f"non-finite values in parameter {name!r} after the Adam step")
    if rows is not None:
        whole[0][rows], whole[1][rows], whole[2][rows] = p, m, v


def _run_blocks(state: AdamState, blocks: list[tuple], elements: int, bc1: float,
                bc2: float) -> None:
    """Run every block, sharing them between the calling thread and one
    worker per further core when the step updates enough ``elements``.

    Workers take blocks in order from a shared counter and stop taking new
    ones after a failure, so every block before a failing one still runs;
    the error raised is that of the earliest failing block, whatever the
    thread timing.
    """
    if elements < _POOL_MIN_BLOCKS * state.block or len(state.scratch) == 1:
        for block in blocks:
            _adam_block(state, state.scratch[0], bc1, bc2, *block)
        return
    tickets = itertools.count()         # next() on a count holds the GIL: atomic
    errors: dict[int, Exception] = {}
    errstate = np.geterr()

    def work(scratch) -> None:
        with np.errstate(**errstate):
            while not errors and (i := next(tickets)) < len(blocks):
                try:
                    _adam_block(state, scratch, bc1, bc2, *blocks[i])
                except Exception as exc:    # re-raised below, earliest block first
                    errors[i] = exc

    pool = _adam_pool(len(state.scratch) - 1)
    helpers = [pool.submit(work, scratch) for scratch in state.scratch[1:]]
    work(state.scratch[0])
    for future in helpers:
        if not future.cancel():
            future.result()
    if errors:
        raise errors[min(errors)]


def adam_step(params: ParamStore, grads: GradStore, state: AdamState) -> ParamStore:
    """One bias-corrected Adam update, in place on the store's arrays.

    Runs m += (1-b1)*g; v += ((1-b2)*g)*g; p -= lr*(m/bc1) / (sqrt(v/bc2)+eps)
    in that operation order, block by block: a dense parameter in contiguous
    flat slices of `AdamState.block` elements, and a parameter whose
    gradients have all come with rows (`GradStore.rows`), and of which at
    most half the rows are live, on its live rows only, as many whole rows
    as fit a block, gathered into scratch and written back. Every element
    sees the same operations whatever the blocking, so results are
    bit-identical to an update of whole arrays. A step that updates at least
    `_POOL_MIN_BLOCKS` blocks' worth of elements is split over the usable
    cores (`_run_blocks`).

    Each block's written entries are scanned once: a non-finite one rejects
    the step, worded as a non-finite gradient or as a non-finite update, by
    the first failing parameter in store order. Gathered rows are scanned
    before they are written back; a dense parameter's rejected block is
    left updated.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    blocks: list[tuple] = []
    elements = 0
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        live = state.live[name]
        rows = grads.rows.get(name)
        if live is not None and rows is not None:
            live[rows] = True
            idx = np.flatnonzero(live)
            # With more than half the rows live, gathering and writing back
            # cost more than updating every row.
            if 2 * idx.size <= live.size:
                row = math.prod(p.shape[1:])
                per = state.block // max(1, row)
                blocks += [(name, p, g, m, v, idx[s:s + per]) for s in range(0, idx.size, per)]
                elements += idx.size * row
                continue
        state.live[name] = None
        flat = [arr.reshape(-1) for arr in (p, g, m, v)]
        blocks += [(name, *(arr[s:s + state.block] for arr in flat), None)
                   for s in range(0, p.size, state.block)]
        elements += p.size
    _run_blocks(state, blocks, elements, bc1, bc2)
    return params


# ---------------------------------------------------------------------------
# Gradient verification

def relative_error(analytic: float, numeric: float) -> float:
    """Scale-floored relative error: |a - n| / max(1, |a|, |n|)."""
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def finite_difference_check(loss_fn: Callable[[ParamNodes], Node], params: ParamStore,
                            eps: float = 1e-5,
                            names: Iterable[str] | None = None) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients, per parameter.

    ``loss_fn`` takes a fresh ParamNodes view and must rebuild the graph on
    every call, deterministically (seed any dropout inside it). Every element
    of every checked parameter is perturbed; 64-bit stores only.
    """
    if params.dtype != np.float64:
        raise ValueError("finite-difference checks need a float64 store")
    nodes = ParamNodes(params)
    backward(loss_fn(nodes))
    grads = nodes.grads()
    worst: dict[str, float] = {}
    for name in (params.names() if names is None else list(names)):
        flat = params[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        err = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(loss_fn(ParamNodes(params)).value)
            flat[i] = orig - eps
            down = float(loss_fn(ParamNodes(params)).value)
            flat[i] = orig
            numeric = (up - down) / (2.0 * eps)
            err = max(err, relative_error(float(gflat[i]), numeric))
        worst[name] = err
    return worst


# ---------------------------------------------------------------------------
# Checkpoints

CHECKPOINT_FORMAT_VERSION = 1


def save_checkpoint(path: str | Path, params: ParamStore, config: Mapping,
                    seed: int, step: int) -> None:
    """Versioned JSON checkpoint; weights as base64 little-endian float32.

    A 3-D parameter is a `conv1d` kernel, [d_in x k x filters] in memory; the
    file holds it as [filters x k x d_in].
    """
    stored = {name: arr.transpose(2, 1, 0) if arr.ndim == 3 else arr
              for name, arr in params.items()}
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": dict(config),
        "seed": int(seed),
        "step": int(step),
        "param_order": params.names(),
        "params": {
            name: {
                "shape": list(arr.shape),
                "data": base64.b64encode(arr.astype("<f4").tobytes()).decode("ascii"),
            }
            for name, arr in stored.items()
        },
    }
    with atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str | Path, dtype=np.float64) -> tuple[ParamStore, dict, int, int]:
    """Returns (params, config, seed, step), with each 3-D parameter swapped
    back from the file's [filters x k x d_in] to [d_in x k x filters]."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    params = ParamStore(dtype)
    order = doc.get("param_order", sorted(doc["params"]))
    for name in order:
        entry = doc["params"][name]
        raw = base64.b64decode(entry["data"])
        arr = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"])
        params.add(name, arr.transpose(2, 1, 0) if arr.ndim == 3 else arr)
    return params, doc["config"], int(doc["seed"]), int(doc["step"])
