"""Minimal neural-network engine: the layer set the classifiers need.

Reverse-mode autodiff over row-major float64 numpy arrays (activations are
vectors and matrices, convolution kernels 3-D), with analytic backward rules
per op, Adam with bias correction, checkpoint I/O (weights stored as
float32), and a central finite-difference oracle for verifying every
gradient. There is no general autodiff beyond the ops defined here.
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

# Every parameter and op output is checked for NaN/Inf: the arrays here are
# small and a poisoned value is much harder to trace later.
def _check_finite(value: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(value)):
        raise FloatingPointError(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# Parameter and gradient stores

class ParamStore:
    """Ordered map of name -> weight array. Arrays are owned by the store."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._arrays: dict[str, np.ndarray] = {}

    def add(self, name: str, values: np.ndarray) -> np.ndarray:
        if name in self._arrays:
            raise ValueError(f"duplicate parameter {name!r}")
        arr = np.array(values, dtype=self.dtype)
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
            arr[...] = src


class GradStore:
    """Gradient arrays mirroring a ParamStore's names and shapes exactly."""

    def __init__(self, params: ParamStore):
        self._arrays = {name: np.zeros_like(arr) for name, arr in params.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._arrays.items())


# ---------------------------------------------------------------------------
# Autodiff graph

class Node:
    """One value in the computation graph, with its local backward rule."""

    __slots__ = ("value", "grad", "parents", "_backward")

    def __init__(self, value, parents: tuple = (), backward: Callable | None = None):
        self.value = np.asarray(value)
        _check_finite(self.value, "op output")
        self.grad: np.ndarray | None = None
        self.parents = parents
        self._backward = backward


def constant(value) -> Node:
    return Node(value)


def _acc(node: Node, grad: np.ndarray) -> None:
    if node.grad is None:
        node.grad = np.array(grad, dtype=node.value.dtype)
    else:
        node.grad += grad


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

    Gradients of parameters never touched by the graph come back as zeros.
    """

    def __init__(self, params: ParamStore):
        self.params = params
        self._nodes: dict[str, Node] = {}

    def __call__(self, name: str) -> Node:
        node = self._nodes.get(name)
        if node is None:
            node = Node(self.params[name])
            self._nodes[name] = node
        return node

    def grads(self) -> GradStore:
        grads = GradStore(self.params)
        for name, node in self._nodes.items():
            if node.grad is not None:
                grads[name][...] = node.grad
        return grads


# ---------------------------------------------------------------------------
# Ops

def embedding_lookup(table: Node, ids) -> Node:
    """Rows of an embedding table for a sequence of token ids: [T x d]."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("embedding_lookup needs a nonempty 1-D id sequence")
    out = table.value[ids]

    def back(g):
        dtable = np.zeros_like(table.value)
        np.add.at(dtable, ids, g)
        _acc(table, dtable)

    return Node(out, (table,), back)


def conv1d(x: Node, weights: Node, bias: Node, stride: int = 1) -> Node:
    """1-D convolution over rows of x [T x d_in] with weights [l x k x d_in].

    Output is pre-activation: out[r, f] = b[f] + sum over the r-th k-row
    window of x dotted with filter f. Rows past the last full window are not
    covered (output has floor((T - k) / stride) + 1 rows).
    """
    T, d_in = x.value.shape
    l, k, d_w = weights.value.shape
    if d_w != d_in:
        raise ValueError(f"conv input depth {d_in} != filter depth {d_w}")
    if T < k:
        raise ValueError(f"conv input has {T} rows, needs at least window size {k}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    rows = (T - k) // stride + 1
    starts = np.arange(rows) * stride
    gather = starts[:, None] + np.arange(k)[None, :]          # [rows x k]
    cols = x.value[gather].reshape(rows, k * d_in)            # [rows x k*d_in]
    w_flat = weights.value.reshape(l, k * d_in)
    out = cols @ w_flat.T + bias.value

    def back(g):
        _acc(weights, (g.T @ cols).reshape(weights.value.shape))
        _acc(bias, g.sum(axis=0))
        dcols = (g @ w_flat).reshape(rows, k, d_in)
        dx = np.zeros_like(x.value)
        np.add.at(dx, gather, dcols)
        _acc(x, dx)

    return Node(out, (x, weights, bias), back)


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
        np.add.at(dx, (row_idx.ravel(), np.tile(np.arange(cols), blocks)), g.ravel())
        _acc(x, dx)

    return Node(out, (x,), back)


def mean_rows(x: Node) -> Node:
    """Column means: [R x l] -> [l]. This is average pooling over all regions."""
    rows = x.value.shape[0]
    out = x.value.mean(axis=0)

    def back(g):
        _acc(x, np.broadcast_to(g / rows, x.value.shape))

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
        _acc(weights, np.outer(g, x.value))
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

class AdamState:
    """Per-parameter first/second moments plus step count."""

    def __init__(self, params: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}


def adam_step(params: ParamStore, grads: GradStore, state: AdamState) -> ParamStore:
    """One bias-corrected Adam update, in place on the store's arrays."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
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
    """Versioned JSON checkpoint; weights as base64 little-endian float32."""
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
            for name, arr in params.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_checkpoint(path: str | Path, dtype=np.float64) -> tuple[ParamStore, dict, int, int]:
    """Returns (params, config, seed, step)."""
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
        params.add(name, arr)
    return params, doc["config"], int(doc["seed"]), int(doc["step"])
