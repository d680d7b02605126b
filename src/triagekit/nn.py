"""Minimal neural-network engine: the layer set the classifiers need.

Reverse-mode autodiff over row-major float64 numpy arrays (activations are
vectors and matrices, convolution kernels 3-D), with analytic backward rules
per op, Adam with bias correction, checkpoint I/O (weights stored as
float32), and a central finite-difference oracle for verifying every
gradient. There is no general autodiff beyond the ops defined here.

A parameter reached only by row writes gets a `RowGrad`, the rows written
and their sums, never a zeroed table. Adam runs one loop over cache-sized
blocks of every parameter (flat slices, or gathered live rows), shared by the
usable cores on large steps, bit-identical to a whole-array update. While a
parameter is updated on its live rows, its moments are kept for those rows
only, in compact slots of half its rows.

A checkpoint (format 2, the only one read) is one JSON header line and then
every parameter's raw float32 bytes. It is written and read in chunks of
whole rows, so the file is never held whole, and a loaded parameter is
converted straight into its final array.

`conv1d` is the one convolution. Its input is a dense node, a constant
`SparseRows`, or an embedding table's rows `ids`. Over rows it holds, it runs
k accumulated matmuls into the output per block of at most 4096 output rows
(equal blocks), so nothing larger than the input and the output is held.
Over a table's rows it works on the vocabulary side: each distinct row is
multiplied by each window offset's kernel slice once, the products are
gathered to the windows, and the backward sums the output gradient per
distinct id; the [T x d] rows are never built. Its kernels are laid out
[d_in x k x filters], input column first, for every input; a `SparseRows`
input reads and writes only the kernel rows of its nonzero columns, so Adam
skips the rows no input has reached. Checkpoint files keep every 3-D
parameter (every one is a kernel) as [filters x k x d_in]; `save_checkpoint`
and `load_checkpoint` swap the axes at the file boundary. Sequences
concatenated go through each op at once; `mean_rows` with row ranges pools
each one's own rows, and n-ary `concat` joins pooled rows, so a long run of
sequences can go through in chunks, one chunk's output held at a time.

Under the `no_grad` context manager, for serving, nodes keep no parents and
no backward rules, so each intermediate array is freed once read, and `relu`
writes into the array of the op output it is given.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import atomic_open

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

# Every op output that can hold a NaN/Inf is checked for one, because a
# poisoned value is much harder to trace later than at the op that produced
# it. An op that only selects, moves or clamps values (`relu`, `max_pool`,
# `concat`, `flatten`, `stack_rows`, `pick`, `hinge`) cannot make one from
# finite inputs, so it skips the scan unless it reads a parameter node:
# constants and op outputs were checked when made. Parameters are checked
# where they are written (ParamStore.add and load_values, adam_step), not on
# every graph: a value written into a store from outside the library is
# caught by the first op output it reaches.
def _check_finite(value: np.ndarray, what: str) -> None:
    if not np.isfinite(value).all():
        raise FloatingPointError(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# Parameters and row gradients

class ParamStore:
    """Ordered map of name -> weight array. Arrays are owned by the store,
    float64 and C-contiguous."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, values: np.ndarray) -> np.ndarray:
        if name in self._arrays:
            raise ValueError(f"duplicate parameter {name!r}")
        arr = np.array(values, dtype=np.float64, order="C")
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
        dup = ParamStore()
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


class RowGrad:
    """A gradient that is zero outside some rows of its first axis: ``rows``,
    sorted and distinct, and ``values`` [len(rows) x ...], their summed
    gradients. ``np.asarray`` gives the whole array of ``shape``."""

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows, values, shape: tuple[int, ...]):
        self.rows, self.values = np.asarray(rows, dtype=np.intp), np.asarray(values)
        self.shape = tuple(shape)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        whole = np.zeros(self.shape, dtype=self.values.dtype if dtype is None else dtype)
        whole[self.rows] = self.values
        return whole


# ---------------------------------------------------------------------------
# Autodiff graph

class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Build no graph: nodes made inside keep no parents and no backward rule,
    so every intermediate array is freed once the next op has read it.

    An op output's own new array may then be overwritten by the op it feeds
    (`relu` writes in place), so a node made inside should be read only
    through the op it is passed to. A constant's or a parameter's array is
    never written. The mode is the calling thread's; the previous mode comes
    back on exit, on an error too.
    """
    previous, _grad_mode.enabled = _grad_mode.enabled, False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


class Node:
    """One value in the computation graph, with its local backward rule.

    The value is scanned for NaN/Inf, naming the op, unless ``scan`` is
    false, which an op passes only when it cannot make a non-finite value
    from finite inputs and no input is a parameter node (`_reads_param`).
    ``grad`` is a `RowGrad` while row-writing backward rules are the only
    ones to have reached the node, else an array. ``fresh`` marks an op
    output made under `no_grad` whose array the op allocated and nothing
    else holds.
    """

    __slots__ = ("value", "grad", "parents", "_backward", "fresh")

    def __init__(self, value, parents: tuple = (), backward: Callable | None = None,
                 scan: bool = True):
        self.value = np.asarray(value)
        if scan and not np.isfinite(self.value).all():  # the op is named by its backward rule
            op = backward.__qualname__.partition(".")[0] if backward else "constant"
            raise FloatingPointError(f"non-finite values in {op} op output")
        self.grad: np.ndarray | RowGrad | None = None
        if _grad_mode.enabled:
            self.parents, self._backward, self.fresh = parents, backward, False
        else:
            self.parents, self._backward = (), None
            self.fresh = backward is not None and self.value.base is None


class _ParamNode(Node):
    """A parameter's node. Its value was checked when it was written to the
    store, so building a graph does not scan it again."""

    __slots__ = ()

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = None
        self.parents = ()
        self._backward = None
        self.fresh = False


def constant(value) -> Node:
    return Node(value)


def _reads_param(*inputs: Node) -> bool:
    """Whether an op that cannot turn finite inputs into a non-finite output
    must still scan it: when an input is a parameter node, whose array may
    have been written from outside the store since its last check."""
    return any(type(node) is _ParamNode for node in inputs)


def _acc(node: Node, grad: np.ndarray, fresh: bool = False) -> None:
    """Add grad into node's gradient. A ``fresh`` grad, an array the backward
    rule just made and holds nowhere else, becomes the first gradient as it
    is; any other is copied, since it may be a view or shared."""
    if node.grad is None:
        fresh = fresh and grad.dtype == node.value.dtype
        node.grad = grad if fresh else np.array(grad, dtype=node.value.dtype)
    else:
        node.grad = np.asarray(node.grad)       # a RowGrad turns into its whole array
        node.grad += grad


def _acc_rows(node: Node, rows: np.ndarray, drows: np.ndarray) -> None:
    """Add drows into the sorted, distinct rows ``rows`` of node's gradient.

    While row writes are its only gradients, the gradient stays a `RowGrad`
    over the union of the rows written, each row summed into zeros in call
    order, as a dense table would sum it. The first write is stored as
    drows + 0.0, with no union: the same bits as a sum into zeros, -0.0
    turned to +0.0 included. The union is read from one boolean mask over
    the rows, as `_distinct` reads ids (about 0.1 against 1.5 ms for
    `np.union1d` of two 8k-row sets of a 60k-row table).
    """
    grad = node.grad
    if grad is None:
        node.grad = RowGrad(rows, np.add(drows, 0.0, dtype=node.value.dtype), node.value.shape)
    elif isinstance(grad, RowGrad):
        seen = np.zeros(grad.shape[0], dtype=bool)
        seen[grad.rows] = seen[rows] = True
        union = seen.nonzero()[0]
        values = np.zeros((union.size, *drows.shape[1:]), dtype=node.value.dtype)
        values[np.searchsorted(union, grad.rows)] = grad.values
        values[np.searchsorted(union, rows)] += drows
        node.grad = RowGrad(union, values, grad.shape)
    else:
        grad[rows] += drows


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
            node._backward(np.asarray(node.grad))


class ParamNodes:
    """Per-graph view of a ParamStore: one shared Node per parameter name.

    ``grads`` maps each parameter the graph reached to its node's own
    gradient, an array or a `RowGrad`, without a copy; a parameter the graph
    did not reach has no entry.
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

    def grads(self) -> dict[str, np.ndarray | RowGrad]:
        return {name: node.grad for name, node in self._nodes.items() if node.grad is not None}


# ---------------------------------------------------------------------------
# Ops

# Positions per chunk of `_scatter_rows`'s flat index.
_SCATTER_CHUNK = 4096


def embedding_lookup(table: Node, ids) -> Node:
    """Rows of an embedding table for a sequence of token ids: [T x d]."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("embedding_lookup needs a nonempty 1-D id sequence")
    out = table.value[ids]

    def back(g):
        _lookup_back(table, ids, g)

    return Node(out, (table,), back)


def _lookup_back(table: Node, ids: np.ndarray, g: np.ndarray) -> None:
    """Add g, the gradient of table[ids], into the table's gradient: summed
    per distinct row, in position order (`_scatter_rows`)."""
    rows, inverse = _distinct(ids, table.value.shape[0])
    drows = _scatter_rows(inverse, g.reshape(ids.size, -1), rows.size)
    _acc_rows(table, rows, drows.reshape(rows.size, *g.shape[1:]))


def _distinct(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct ids of ``ids`` (ids of n table rows) and each
    position's index among them: `np.unique(ids, return_inverse=True)`, from
    one boolean mask over the rows and one slot array (0.33 against 2.8 ms
    at 150k ids of 60k). The indices are int32, half the memory of intp,
    since no table holds 2**31 rows."""
    seen = np.zeros(n, dtype=bool)
    seen[ids] = True
    rows = seen.nonzero()[0]
    slot = np.empty(n, dtype=np.int32)
    slot[rows] = np.arange(rows.size)
    return rows, slot[ids]


def _scatter_rows(inverse: np.ndarray, g: np.ndarray, n: int) -> np.ndarray:
    """[n x width] sums of the rows of g [T x width], row i going to row
    inverse[i].

    The sums are `np.add.at` over the flat elements of the n rows, element c
    of position i going to inverse[i] * width + c, which runs about three
    times faster than `np.add.at` over whole rows (800 or 150k ids of width
    50). Every element sums its contributions in position order, starting
    from 0.0, so the result is bit for bit the row-wise one. The flat index
    is built for `_SCATTER_CHUNK` positions at a time, chunk after chunk, so
    no [T x width] index is ever held.
    """
    width = g.shape[1]
    sums = np.zeros((n, width), dtype=g.dtype)
    for s in range(0, inverse.size, _SCATTER_CHUNK):
        at = inverse[s:s + _SCATTER_CHUNK, None] * width + np.arange(width)
        np.add.at(sums.reshape(-1), at.reshape(-1), g[s:s + _SCATTER_CHUNK].reshape(-1))
    return sums


class SparseRows:
    """A constant [T x dim] matrix kept as its nonzero columns.

    ``cols`` are the sorted, unique ids of the columns holding a nonzero, and
    ``values`` [T x len(cols)] holds those columns in that order. An all-zero
    matrix has no columns, and `np.asarray` gives the dense matrix.
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
        # One comparison pass, then a boolean reduction: faster than any()
        # over the floats at thousands of columns, and NaN and -0.0 count
        # the same way in both.
        cols = (matrix != 0).any(axis=0).nonzero()[0]
        return cls(cols, matrix.take(cols, axis=1), matrix.shape[1])

    @classmethod
    def from_rows(cls, rows, n: int, dim: int) -> "SparseRows":
        """Bit for bit `from_dense` of the [n x dim] matrix whose last rows are
        the (sorted distinct columns, values) pairs ``rows``, the others zero."""
        cols = np.concatenate([np.zeros(0, np.intp), *(c for c, _ in rows)])
        vals = np.concatenate([np.zeros(0), *(v for _, v in rows)])
        # The sorted union of the columns, at less cost than np.unique.
        seen = np.zeros(dim, dtype=bool)
        seen[cols] = True
        union = seen.nonzero()[0]
        values = np.zeros((n, union.size))
        at = np.arange(n - len(rows), n).repeat([len(c) for c, _ in rows])
        values[at, np.searchsorted(union, cols)] = vals
        if np.count_nonzero(vals) < vals.size:
            kept = (values != 0).any(axis=0)
            union, values = union[kept], values[:, kept]
        # Valid by construction, so the checks of __init__ are skipped.
        sparse = object.__new__(cls)
        sparse.cols, sparse.values, sparse.dim = union, values, dim
        return sparse

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[0], self.dim

    @property
    def size(self) -> int:
        return self.values.shape[0] * self.dim

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        whole = np.zeros(self.shape, dtype=self.values.dtype if dtype is None else dtype)
        whole[:, self.cols] = self.values
        return whole


# Output rows per block of `conv1d`'s forward.
_CONV_BLOCK = 4096
# Distinct rows per product of `conv1d` over a table's rows. The chunk size
# picks the BLAS kernel, so it also fixes the bits.
_TABLE_BLOCK = 512
# Output rows per gather of `conv1d` over a table's rows: the gather
# buffer stays small beside a depression chunk's output (8192 rows).
_GATHER_BLOCK = 1024


def conv1d(x: Node | SparseRows, weights: Node, bias: Node, stride: int = 1,
           ids=None) -> Node:
    """1-D convolution over the rows of x [T x d_in] with weights [d_in x k x l].

    x is a dense node, a constant `SparseRows`, or, given ``ids`` (a nonempty
    1-D id sequence), an embedding table node whose rows ``ids`` are the
    input, as `embedding_lookup(x, ids)` would give them, never built.
    Output is pre-activation: out[r, f] = b[f] + sum over j < k of
    x[r * stride + j] dotted with weights[:, j, f]. Rows past the last full
    window are not covered (output has floor((T - k) / stride) + 1 rows).

    Over a dense or sparse x, the forward splits the output rows into
    ceil(rows / 4096) equal blocks. Per block it slices the input rows the
    block reads and accumulates its k matmuls x[j::stride] @ W[:, j] into the
    preallocated output through one reused block-sized temporary; no
    [T x k x l] product is held. The block size is a BLAS constraint: the
    rows of a product of m rows match those of the whole product only when
    both take the same kernel. With OpenBLAS's Haswell kernels at d = 50 and
    25 filters they differ for every m <= 800 (the small-matrix kernel) and
    match from 801 on, so a short tail block would change the last bits.
    Equal blocks hold at least 2048 rows each, and output that fits one
    block is one matmul per window offset. The backward has dW[:, j] =
    x[j::stride]^T @ g and dx[j::stride] += g @ W[:, j]^T, k matmuls each;
    each dW[:, j] product is written straight into one preallocated
    [d_in x k x l] array, and the dx products share one temporary. A
    constant `SparseRows` x reads only the kernel rows of its nonzero
    columns, writes the weight gradient on those rows only, as a `RowGrad`,
    and gets no gradient.

    Over a table's rows, the U distinct ids are found once (`_distinct`).
    Per window offset j, in order, the distinct rows times W[:, j] ([U x l],
    512 rows a matmul, which measured faster than one whole product; the
    chunk size picks the BLAS kernel, so it also fixes the bits) are
    gathered to the windows' positions with `ndarray.take`, 1024 output
    rows at a time: offset 0's products, then += offset 1's, and so on,
    then the bias. Only one offset's products are held; the distinct rows
    are gathered again per offset rather than kept, into the buffer the
    gathers use. The backward sums g per distinct id for each offset (G_j,
    `_scatter_rows`), so dW[:, j] = E^T G_j over the distinct rows E, and
    the table's rows get sum over j of G_j @ W[:, j]^T, as a `RowGrad`; no
    [T x d] array is built. Against the position-order
    products (the lookup, then the conv) only the order of summation
    changes: outputs and gradients agree within 1e-12 of their largest
    magnitude in float64.
    """
    sparse = isinstance(x, SparseRows)
    src = x.values if sparse else x.value         # the rows read, or the table
    T, d_in = x.shape if sparse else src.shape
    if ids is not None:
        ids = np.asarray(ids)
        if ids.dtype.kind not in "iu":      # integer ids, int32 ones too, are read uncopied
            ids = ids.astype(np.intp)
        if sparse:
            raise ValueError("conv1d reads ids from an embedding table node, not SparseRows")
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("conv1d needs a nonempty 1-D id sequence")
        T = ids.size
    d_w, k, l = weights.value.shape
    if d_w != d_in:
        raise ValueError(f"conv input depth {d_in} != filter depth {d_w}")
    if T < k:
        raise ValueError(f"conv input has {T} rows, needs at least window size {k}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = (T - k) // stride + 1
    span = (rows - 1) * stride + 1              # rows from first to last window start
    w = weights.value[x.cols] if sparse else weights.value
    out = np.empty((rows, l), dtype=np.result_type(src, w))
    if ids is None:
        blocks = -(-rows // _CONV_BLOCK)
        bounds = [rows * i // blocks for i in range(blocks + 1)]
        part = np.empty((-(-rows // blocks), l), dtype=out.dtype)   # the largest block's product
        for start, stop in itertools.pairwise(bounds):
            n, xb = stop - start, src[start * stride:(stop - 1) * stride + k]
            block_span = (n - 1) * stride + 1
            block, temp = out[start:stop], part[:n]
            np.matmul(xb[:block_span:stride], w[:, 0], out=block)
            for j in range(1, k):
                block += np.matmul(xb[j:j + block_span:stride], w[:, j], out=temp)
    else:
        # Per window offset j: the distinct rows times W[:, j], then gathered
        # to the windows' positions.
        table_rows, inverse = _distinct(ids, src.shape[0])
        prod = np.empty((table_rows.size, l), dtype=out.dtype)
        # One buffer holds each product's distinct rows, then each gather's
        # products.
        height, width = min(rows, _GATHER_BLOCK), min(table_rows.size, _TABLE_BLOCK)
        buffer = np.empty(max(height * l, width * d_in), dtype=out.dtype)
        temp = buffer[:height * l].reshape(height, l)
        picked = buffer[:width * d_in].reshape(width, d_in)
        for j in range(k):
            for s in range(0, table_rows.size, _TABLE_BLOCK):
                some = table_rows[s:s + _TABLE_BLOCK]
                np.matmul(src.take(some, axis=0, out=picked[:some.size], mode="clip"), w[:, j],
                          out=prod[s:s + _TABLE_BLOCK])
            at = inverse[j:j + span:stride]
            for s in range(0, rows, _GATHER_BLOCK):
                block = out[s:s + _GATHER_BLOCK]
                if j == 0:
                    prod.take(at[s:s + _GATHER_BLOCK], axis=0, out=block, mode="clip")
                else:
                    block += prod.take(at[s:s + _GATHER_BLOCK], axis=0,
                                       out=temp[:block.shape[0]], mode="clip")
        del prod, buffer, temp, picked
    out += bias.value

    def back(g):
        _acc(bias, g.sum(axis=0))
        if ids is not None:
            # Per offset j, g summed per distinct id (G_j): dW[:, j] = E^T G_j
            # and the rows' gradient sums G_j @ W[:, j]^T.
            eu = src[table_rows]
            dw = np.empty((d_in, k, l), dtype=np.result_type(eu, g))
            demb = np.empty((table_rows.size, d_in), dtype=np.result_type(g, w))
            for j in range(k):
                gj = _scatter_rows(inverse[j:j + span:stride], g, table_rows.size)
                np.matmul(eu.T, gj, out=dw[:, j])
                if j == 0:
                    np.matmul(gj, w[:, 0].T, out=demb)
                else:
                    demb += gj @ w[:, j].T
            _acc(weights, dw, fresh=True)
            _acc_rows(x, table_rows, demb)
            return
        dw = np.empty((src.shape[1], k, l), dtype=np.result_type(src, g))
        for j in range(k):
            np.matmul(src[j:j + span:stride].T, g, out=dw[:, j])
        if sparse:
            _acc_rows(weights, x.cols, dw)
            return
        _acc(weights, dw, fresh=True)
        dx = np.zeros_like(src)
        part = np.empty((rows, d_in), dtype=np.result_type(g, w))
        for j in range(k):
            dx[j:j + span:stride] += np.matmul(g, w[:, j].T, out=part)
        _acc(x, dx, fresh=True)

    return Node(out, (weights, bias) if sparse else (x, weights, bias), back)


def relu(x: Node) -> Node:
    """max(x, 0). The backward rule reads its own output: out > 0 where x > 0.
    Under `no_grad` it writes into a fresh op output's array and keeps no
    mask; np.maximum may keep an exact -0.0 that np.where turns to 0.0 (its
    pick between equal zeros depends on the numpy build)."""
    if _grad_mode.enabled:
        out = np.where(x.value > 0, x.value, 0.0)
    else:
        out = np.maximum(x.value, 0.0, out=x.value if x.fresh else None)

    def back(g):
        _acc(x, g * (out > 0), fresh=True)

    return Node(out, (x,), back, scan=_reads_param(x))


def max_pool(x: Node, n: int) -> Node:
    """Per column, max over consecutive blocks of n rows; partial tail block
    is pooled over its actual length. [R x l] -> [ceil(R/n) x l].

    Each block's max is its first (`argmax`'s rule: the first NaN, else the
    first of tied values, so a tie of -0.0 and +0.0 keeps the earlier one),
    read with one flat `take`. Only a partial tail block is padded, with
    -inf, which argmax never picks over a value of the block."""
    if n < 1:
        raise ValueError("pool length must be >= 1")
    rows, cols = x.value.shape
    blocks = -(-rows // n)
    padded = x.value
    if rows % n:
        padded = np.full((blocks * n, cols), -np.inf, dtype=x.value.dtype)
        padded[:rows] = x.value
    arg = padded.reshape(blocks, n, cols).argmax(axis=1)          # [blocks x l]
    # Each max's flat index, the same in x as in padded.
    at = (arg + np.arange(0, blocks * n, n)[:, None]) * cols + np.arange(cols)
    out = padded.take(at)

    def back(g):
        dx = np.zeros(x.value.shape, dtype=x.value.dtype)
        dx.reshape(-1)[at] = g                                    # one entry per (row, column)
        _acc(x, dx, fresh=True)

    return Node(out, (x,), back, scan=_reads_param(x))


def mean_rows(x: Node, starts=None, stops=None) -> Node:
    """Column means of x [R x l] as [l]: average pooling over all rows. Given
    row ranges, one mean per range [starts[i], stops[i]) as [n x l] instead,
    zero for an empty range; nonempty ranges lie in row order, disjoint.

    Every sum is `np.add.reduceat`'s. ``cumsum``, ``np.mean`` and
    ``add.reduce`` add a range's rows in other orders, which changes the
    last bits. The whole-matrix mean is the reduceat of the one range
    [0, R). Ranges are read through one array of bounds: 0, then each
    nonempty range's start and stop, then R."""
    rows, cols = x.value.shape
    if starts is None:
        out = (np.add.reduceat(x.value, [0], axis=0)[0] / rows if rows
               else np.zeros(cols, x.value.dtype))

        def back_whole(g):                            # no rows get no gradient rows
            _acc(x, np.broadcast_to(g / max(rows, 1), (rows, cols)))

        return Node(out, (x,), back_whole)
    starts = np.asarray(starts, dtype=np.intp)
    stops = np.asarray(stops, dtype=np.intp)
    full = stops > starts
    counts = (stops - starts)[full]
    bounds = np.empty(2 * counts.size + 2, dtype=np.intp)
    bounds[0], bounds[-1] = 0, rows
    bounds[1:-1:2], bounds[2:-1:2] = starts[full], stops[full]
    if (stops < starts).any() or (bounds[1:] < bounds[:-1]).any():
        raise ValueError("mean_rows ranges must be ordered, disjoint row ranges of x")
    # In turn, sums of each range and of the gap after it (the last runs to the end).
    sums = np.add.reduceat(x.value, bounds[1:-2] if bounds[-2] == rows else bounds[1:-1],
                           axis=0)
    out = np.zeros((starts.size, cols), dtype=x.value.dtype)
    out[full] = sums[::2] / counts[:, None]

    def back(g):
        parts = np.zeros((bounds.size - 1, cols), dtype=x.value.dtype)
        parts[1::2] = g.reshape(-1, cols)[full] / counts[:, None]
        # Rows of gap, range, gap, ..., range, gap.
        _acc(x, np.repeat(parts, np.diff(bounds), axis=0), fresh=True)

    return Node(out, (x,), back)


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


def concat(*nodes: Node) -> Node:
    """The nodes joined along their first axis; one node is returned as it is."""
    if len(nodes) == 1:
        return nodes[0]
    cuts = np.cumsum([node.value.shape[0] for node in nodes[:-1]])

    def back(g):
        for node, part in zip(nodes, np.split(g, cuts)):
            _acc(node, part)

    return Node(np.concatenate([node.value for node in nodes]), nodes, back,
                scan=_reads_param(*nodes))


def flatten(x: Node) -> Node:
    shape = x.value.shape

    def back(g):
        _acc(x, g.reshape(shape))

    return Node(x.value.reshape(-1), (x,), back, scan=_reads_param(x))


def stack_rows(rows: list[Node]) -> Node:
    """Stack 1-D nodes into a matrix [len(rows) x d]."""
    if not rows:
        raise ValueError("stack_rows needs at least one row")
    out = np.stack([r.value for r in rows])

    def back(g):
        for i, r in enumerate(rows):
            _acc(r, g[i])

    return Node(out, tuple(rows), back, scan=_reads_param(*rows))


def pick(x: Node, index: int) -> Node:
    """Single component of a 1-D node, as a scalar node."""

    def back(g):
        dx = np.zeros_like(x.value)
        dx[index] = g
        _acc(x, dx)

    return Node(x.value[index], (x,), back, scan=_reads_param(x))


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
    """max(0, x) on a scalar node, in an array of its own."""
    active = x.value > 0

    def back(g):
        _acc(x, g if active else np.zeros_like(g))

    return Node(x.value.copy() if active else np.zeros_like(x.value), (x,), back,
                scan=_reads_param(x))


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
# block of its own. A depression-paper benchmark epoch on 2 cores (60 steps
# of 40k-690k live elements, 41 of them under 8 blocks and 16 under 4)
# trained in a median 0.201 / 0.187 / 0.185 / 0.183 s at thresholds
# 8 / 4 / 2 / 1 (8 seeds each). 4 keeps every acceptance-scale model inline:
# the risk variants at 64-dim x 8 sentences have 125k-243k parameters, under
# 4 x 64k, and those slowed when the workers woke on every step.
_POOL_MIN_BLOCKS = 4
# Adam's moment decays and epsilon. Both betas must lie in (0.5, 1), where a
# product with a beta never rounds to -0, for `_adam_block`'s skipped terms.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class AdamState:
    """Per-parameter first/second moments, live rows and step count, for Adam
    at rate ``lr`` with the fixed `ADAM_BETA1`, `ADAM_BETA2` and `ADAM_EPS`.

    ``live`` holds, per parameter, the rows (first axis) that have ever had a
    gradient, in the order of their first one, while every gradient it has had
    was a `RowGrad`; None once the parameter is updated densely (after an array
    gradient, or once more than half its rows are live). A row outside ``live``
    has m = v = 0 and a zero gradient, which Adam leaves exactly as they are,
    so `adam_step` skips it and no moments are kept for it: while ``live`` is
    set, ``m`` and ``v`` are compact [rows // 2 x ...] arrays whose slot i
    holds the moments of row ``live[i]``, and ``slot`` maps each row to its
    slot (-1 for a row not live). They come from ``np.zeros``, so a large one
    takes memory only for the pages its slots reach. Past the half-live switch
    the moments expand once into whole arrays (`densify`); `moments` gives the
    whole arrays either way.

    ``scratch`` holds one set of four block-sized buffers (p, g and two
    temporaries) per usable core. A block is `_ADAM_BLOCK` elements, or one
    row of the widest-rowed parameter if that is more, so the scratch does
    not grow with the largest parameter and a step allocates no
    parameter-sized temporaries.
    """

    def __init__(self, params: ParamStore, lr: float = 1e-3):
        self.lr = lr
        self.step_count = 0
        compact = {name: (arr.shape[0] // 2 if arr.ndim else 0, *arr.shape[1:])
                   for name, arr in params.items()}
        self.m = {name: np.zeros(shape) for name, shape in compact.items()}
        self.v = {name: np.zeros(shape) for name, shape in compact.items()}
        self.live: dict[str, np.ndarray | None] = {
            name: np.empty(0, dtype=np.intp) for name, _ in params.items()}
        self.slot: dict[str, np.ndarray | None] = {
            name: np.full(arr.shape[:1], -1, dtype=np.intp) for name, arr in params.items()}
        self.block = max([_ADAM_BLOCK] + [math.prod(arr.shape[1:]) for _, arr in params.items()])
        self.scratch = [tuple(np.empty(self.block) for _ in range(4))
                        for _ in range(_usable_cores())]

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The whole-array m and v of a parameter (new arrays while its
        moments are compact)."""
        live = self.live[name]
        if live is None:
            return self.m[name], self.v[name]

        def whole(compact: np.ndarray) -> np.ndarray:
            arr = np.zeros((self.slot[name].size, *compact.shape[1:]))
            arr[live] = compact[:live.size]
            return arr

        return whole(self.m[name]), whole(self.v[name])

    def densify(self, name: str) -> None:
        """Update the parameter densely from now on, with whole-array moments."""
        if self.live[name] is not None:
            self.m[name], self.v[name] = self.moments(name)
            self.live[name] = self.slot[name] = None


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
    ``rows`` is None. Else p is the whole parameter, whose rows ``rows`` are
    gathered into ``scratch`` and written back only once they pass the finite
    check; m and v are those rows' compact moments, updated in place; and g
    is (positions among ``rows``, gradient rows, which of them).

    A live row without a gradient this step only decays: m*b1 and v*b2 are
    what m*b1 + (1-b1)*0 and v*b2 + (1-b2)*0*0 give, bit for bit, because
    m and v are never -0. They start at +0, a sum is -0 only when both terms
    are, and with b1, b2 > 0.5 a product with b rounds to -0 only from -0.
    So the gradient terms are added on the gradient rows alone."""
    if rows is not None:
        p_rows = scratch[0][:m.size].reshape(m.shape)
        np.take(p, rows, axis=0, out=p_rows, mode="clip")
        at, values, which = g
        g = scratch[1][:m.size].reshape(m.shape)[:which.size]
        np.take(values, which, axis=0, out=g, mode="clip")
        whole, p = p, p_rows
    a, b = (buf[:p.size].reshape(p.shape) for buf in scratch[2:])
    m *= ADAM_BETA1
    v *= ADAM_BETA2
    if rows is None:
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        v += np.multiply(a, g, out=a)
    else:
        ga = scratch[2][:g.size].reshape(g.shape)
        m[at] += np.multiply(g, 1.0 - ADAM_BETA1, out=ga)
        np.multiply(g, 1.0 - ADAM_BETA2, out=ga)
        v[at] += np.multiply(ga, g, out=ga)
    np.multiply(np.divide(m, bc1, out=a), state.lr, out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
    p -= np.divide(a, b, out=a)
    # A non-finite gradient entry always makes its parameter entry
    # non-finite (NaN stays NaN, inf/inf is NaN), so the written entries are
    # the one scan; the gradient is read only to word the error.
    if not np.isfinite(p).all():
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for {name!r}")
        raise FloatingPointError(f"non-finite values in parameter {name!r} after the Adam step")
    if rows is not None:
        whole[rows] = p


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


def adam_step(params: ParamStore, grads: Mapping[str, np.ndarray | RowGrad],
              state: AdamState) -> ParamStore:
    """One bias-corrected Adam update, in place on the store's arrays.

    A parameter ``grads`` does not name has a `RowGrad` with no rows. Runs,
    with b1, b2 and eps the fixed `ADAM_BETA1`, `ADAM_BETA2` and `ADAM_EPS`,
    m += (1-b1)*g; v += ((1-b2)*g)*g; p -= lr*(m/bc1) / (sqrt(v/bc2)+eps) in
    that operation order, block by block: a dense parameter in contiguous
    flat slices of `AdamState.block` elements, and a parameter whose
    gradients have all been `RowGrad`s, and of which at most half the rows
    are live, on its live rows only, as many whole rows as fit a block: the
    rows of p are gathered into scratch beside the block's gradient rows and
    written back, and m and v are contiguous slots of the compact moments.
    A row first reached takes the next free slot. A live row without a
    gradient this step gets m *= b1 and v *= b2 alone: the gradient terms
    it skips are +0, and adding them changes no bit because b1 and b2 are in
    (0.5, 1). Every element sees the same operations whatever the blocking,
    so results are bit-identical to an update of whole arrays. A step that
    updates at least `_POOL_MIN_BLOCKS` blocks' worth of elements is split
    over the usable cores (`_run_blocks`).

    Each block's written entries are scanned once: a non-finite one rejects
    the step, worded as a non-finite gradient or as a non-finite update, by
    the first failing parameter in store order. Gathered rows of p are
    scanned before they are written back, so a rejected live-row block
    leaves p as it was, while its m and v, updated in place, hold the
    rejected step; a dense parameter's rejected block is left updated in
    all three.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    blocks: list[tuple] = []
    elements = 0
    for name, p in params.items():
        g = grads[name] if name in grads else RowGrad([], np.empty((0, *p.shape[1:])), p.shape)
        live, slot = state.live[name], state.slot[name]
        if live is not None and isinstance(g, RowGrad):
            new = g.rows[slot[g.rows] < 0]
            # With more than half the rows live, gathering and writing back
            # cost more than updating every row.
            if 2 * (live.size + new.size) <= slot.size:
                slot[new] = np.arange(live.size, live.size + new.size)
                live = state.live[name] = np.concatenate([live, new])
                row = math.prod(p.shape[1:])
                per = state.block // max(1, row)
                at = slot[g.rows]                       # each gradient row's slot
                which = np.argsort(at, kind="stable")
                at = at[which]
                m, v = state.m[name], state.v[name]
                for s in range(0, live.size, per):
                    e = min(s + per, live.size)
                    lo, hi = np.searchsorted(at, (s, e))
                    blocks.append((name, p, (at[lo:hi] - s, g.values, which[lo:hi]),
                                   m[s:e], v[s:e], live[s:e]))
                elements += live.size * row
                continue
        state.densify(name)
        flat = [arr.reshape(-1) for arr in (p, np.asarray(g), state.m[name], state.v[name])]
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


def finite_difference_check(loss_fn: Callable[[ParamNodes], Node],
                            params: ParamStore) -> dict[str, float]:
    """Max relative error of analytic vs central-difference gradients, for
    every parameter of the store.

    ``loss_fn`` takes a fresh ParamNodes view and must rebuild the graph on
    every call, deterministically (seed any dropout inside it). Every element
    of every parameter is moved by ±1e-5 in turn.
    """
    eps = 1e-5
    nodes = ParamNodes(params)
    backward(loss_fn(nodes))
    grads = nodes.grads()
    worst: dict[str, float] = {}
    for name in params.names():
        flat = params[name].reshape(-1)
        gflat = np.asarray(grads.get(name, np.zeros_like(flat))).reshape(-1)
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

CHECKPOINT_FORMAT_VERSION = 2
# Bytes of float32 written or read at a time by checkpoint I/O, in whole rows.
_IO_CHUNK = 1 << 18


def _file_rows(arr: np.ndarray) -> Iterator[np.ndarray]:
    """Views of arr as a checkpoint file holds it, a kernel [filters x k x
    d_in] and a 0-d array as one row, in whole rows of about `_IO_CHUNK`
    bytes of float32."""
    rows = arr.transpose(2, 1, 0) if arr.ndim == 3 else arr if arr.ndim else arr.reshape(1)
    per = max(1, _IO_CHUNK // (4 * max(1, math.prod(rows.shape[1:]))))
    return (rows[s:s + per] for s in range(0, rows.shape[0], per))


def checkpoint_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """A parameter's shape in a checkpoint file from its shape in memory, or
    back: a 3-D parameter is a `conv1d` kernel, stored filter first."""
    return tuple(shape[::-1]) if len(shape) == 3 else tuple(shape)


def save_checkpoint(path: str | Path, params: ParamStore, config: Mapping,
                    seed: int, step: int) -> None:
    """Versioned checkpoint: one JSON header line, then raw float32 weights.

    The header is ``json.dumps({config, format_version, params, seed, step},
    sort_keys=True)`` and a newline, where ``params`` lists ``[name, shape]``
    in store order. Each parameter's little-endian float32 bytes follow, back
    to back in that order, written in chunks of whole rows, so that no whole
    converted copy is held. A 3-D parameter is a `conv1d` kernel, [d_in x k x
    filters] in memory; the file holds it as [filters x k x d_in].
    """
    shapes = [[name, list(checkpoint_shape(arr.shape))] for name, arr in params.items()]
    header = json.dumps({"config": dict(config), "format_version": CHECKPOINT_FORMAT_VERSION,
                         "params": shapes, "seed": int(seed), "step": int(step)}, sort_keys=True)
    with atomic_open(path, binary=True) as fh:
        fh.write(header.encode("ascii") + b"\n")
        for _, arr in params.items():
            for rows in _file_rows(arr):
                fh.write(rows.astype("<f4").tobytes())


def load_checkpoint(path: str | Path) -> tuple[ParamStore, dict, int, int]:
    """Returns (params, config, seed, step), with each 3-D parameter swapped
    back from the file's [filters x k x d_in] to [d_in x k x filters].

    The body is read in chunks of whole rows, each converted straight into
    its final array, so neither the file nor a second copy of any parameter
    is held; its size is checked against the header's shapes first. A header
    that is not one JSON line or not format 2 (a format-1 document too), a
    missing field, a bad shape, a body that does not fit the shapes or
    non-finite values is a ValueError naming the file and the field.
    """
    with open(path, "rb") as fh:
        try:
            doc = json.loads(fh.readline())
        except ValueError as exc:
            raise ValueError(f"{path}: not a JSON checkpoint header line: {exc}") from None
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: a checkpoint is a JSON object")
        version = doc.get("format_version")
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint format_version {version!r}")
        for field, kind, what in (("config", dict, "an object"), ("params", list, "a list"),
                                  ("seed", int, "an integer"), ("step", int, "an integer")):
            if field not in doc:
                raise ValueError(f"{path}: checkpoint has no {field!r} field")
            if not isinstance(doc[field], kind):
                raise ValueError(f"{path}: checkpoint field {field!r} is not {what}")
        layout = doc["params"]
        if not all(isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)
                   for item in layout):
            raise ValueError(f"{path}: checkpoint field 'params' is not a list of [name, shape]")
        for name, shape in layout:
            if not (isinstance(shape, list) and all(
                    isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
                raise ValueError(f"{path}: parameter {name!r} has a bad shape {shape!r}")
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        if body != (need := sum(4 * math.prod(shape) for _, shape in layout)):
            raise ValueError(f"{path}: {body} bytes follow the checkpoint header, "
                             f"the shapes in 'params' need {need}")
        params = ParamStore()
        for name, shape in layout:
            if name in params:
                raise ValueError(f"{path}: duplicate parameter {name!r}")
            # The array is the store's own, written through the file's layout.
            arr = params._arrays[name] = np.empty(checkpoint_shape(shape))
            for rows in _file_rows(arr):
                values = np.frombuffer(fh.read(4 * rows.size), "<f4").reshape(rows.shape)
                if not np.isfinite(values).all():
                    raise ValueError(f"{path}: non-finite values in parameter {name!r}")
                rows[...] = values
    return params, doc["config"], doc["seed"], doc["step"]
