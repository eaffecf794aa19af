"""Reverse-mode automatic differentiation on dense float64 arrays.

Small operator set, batch-first shapes (leading axis = samples), and a
first-class stop-gradient boundary. Everything is 64-bit: gradient checks
against central finite differences at tight tolerances are part of the
contract and are unreliable in 32-bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, TrainingError, UsageError

Array = np.ndarray

_node_ids = itertools.count()

# False inside no_grad(): new nodes keep their data but record no graph.
_recording = True


@contextlib.contextmanager
def no_grad():
    """Scope in which forward passes record no graph.

    A node built inside keeps its data and op but gets no parents and no
    backward rule, so each intermediate array is freed as soon as the next
    op is done with it. Nestable; the previous state returns on exit, also
    when the body raises. For passes that never call backward: scoring,
    targets and diagnostics.
    """
    global _recording
    prev = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = prev


def _as_array(value) -> Array:
    return np.asarray(value, dtype=np.float64)


class Node:
    """One value in a computation graph: data, parents, and a local backward rule.

    Outside recording (see no_grad) parents and backward rule are dropped.
    """

    __slots__ = ("data", "op", "nid", "parents", "_backward", "param")

    def __init__(self, data, op: str = "const", parents: tuple = (),
                 backward: Callable[[Array], tuple] | None = None,
                 param: "Parameter | None" = None):
        self.data = _as_array(data)
        self.op = op
        self.nid = next(_node_ids)
        if _recording:
            self.parents = parents
            self._backward = backward
        else:
            self.parents = ()
            self._backward = None
        self.param = param

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Node({self.op}, shape={self.data.shape}, id={self.nid})"


def constant(value) -> Node:
    """A leaf that never receives gradient."""
    return Node(value, op="const")


class Parameter:
    """Named trainable (or frozen) array. Frozen parameters are never stepped."""

    __slots__ = ("name", "data", "trainable")

    def __init__(self, name: str, data, trainable: bool = True):
        self.name = name
        self.data = _as_array(data)
        self.trainable = trainable

    def node(self) -> Node:
        return Node(self.data, op="param", param=self)

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape}, trainable={self.trainable})"


def _unbroadcast(grad: Array, shape: tuple) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------

def add(a: Node, b: Node) -> Node:
    def back(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)
    return Node(a.data + b.data, op="add", parents=(a, b), backward=back)


def sub(a: Node, b: Node) -> Node:
    def back(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)
    return Node(a.data - b.data, op="sub", parents=(a, b), backward=back)


def mul(a: Node, b: Node) -> Node:
    """Elementwise product with numpy broadcasting."""
    def back(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)
    return Node(a.data * b.data, op="mul", parents=(a, b), backward=back)


def matmul(a: Node, b: Node) -> Node:
    """(n, k) @ (k, m). Raises ConfigError on inner-dimension mismatch."""
    if a.data.shape[-1] != b.data.shape[0]:
        raise ConfigError(
            f"matmul inner dimensions disagree: {a.data.shape} @ {b.data.shape}")

    def back(g):
        return g @ b.data.T, a.data.T @ g
    return Node(a.data @ b.data, op="matmul", parents=(a, b), backward=back)


def concat(nodes: Sequence[Node], axis: int = -1) -> Node:
    nodes = list(nodes)
    sizes = [n.data.shape[axis] for n in nodes]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))
    return Node(np.concatenate([n.data for n in nodes], axis=axis),
                op="concat", parents=tuple(nodes), backward=back)


_SIGMOID_LO = np.nextafter(0.0, 1.0)
_SIGMOID_HI = np.nextafter(1.0, 0.0)


def sigmoid_values(x: Array) -> Array:
    """Stable logistic of an array, clipped strictly inside (0, 1).

    One exp over -|x|: the numerator is 1 where x >= 0 (1 / (1 + e^-x)) and
    e where x < 0 (e^x / (1 + e^x)). Works on 0-d arrays too.
    """
    e = np.empty_like(x)
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)


def sigmoid(a: Node) -> Node:
    """1 / (1 + exp(-x)), computed stably; output strictly inside (0, 1).

    Saturated values are nudged to the nearest representable neighbor of
    0/1 so downstream logs of p and 1-p stay finite without special cases.
    """
    out = sigmoid_values(a.data)

    def back(g):
        return (_activation_grad(g, out, "sigmoid"),)
    return Node(out, op="sigmoid", parents=(a,), backward=back)


def tanh(a: Node) -> Node:
    """Hyperbolic tangent, np.tanh; its gradient is g * (1 - t^2)."""
    out = np.tanh(a.data)

    def back(g):
        return (_activation_grad(g, out, "tanh"),)
    return Node(out, op="tanh", parents=(a,), backward=back)


def _activation_grad(g: Array, out: Array, act: str) -> Array:
    """Gradient at an activation's input from g at its output `out`."""
    if act == "sigmoid":
        return g * out * (1.0 - out)
    if act == "tanh":
        return g * (1.0 - out * out)
    return g


def dense(x: Node, w: Node, b: Node, act: str = "linear") -> Node:
    """act(x @ w + b) as one node: x (n, k), w (k, m), b (m,).

    For sigmoid and linear the arithmetic is that of
    act(add(matmul(x, w), b)), operation for operation. tanh is np.tanh,
    applied in place on the pre-activation buffer.
    """
    if x.data.shape[-1] != w.data.shape[0]:
        raise ConfigError(
            f"dense inner dimensions disagree: {x.data.shape} @ {w.data.shape}")
    if act not in ACTIVATIONS:
        raise ConfigError(f"unknown activation {act!r}")
    z = x.data @ w.data
    z += b.data
    if act == "sigmoid":
        out = sigmoid_values(z)
    elif act == "tanh":
        out = np.tanh(z, out=z)
    else:
        out = z

    def back(g):
        gz = _activation_grad(g, out, act)
        return gz @ w.data.T, x.data.T @ gz, gz.sum(axis=0)
    return Node(out, op="dense", parents=(x, w, b), backward=back)


def columns(a: Node, start: int, stop: int) -> Node:
    """Columns start:stop of a 2-D node; the rest of its gradient is zero."""
    def back(g):
        grad = np.zeros_like(a.data)
        grad[:, start:stop] = g
        return (grad,)
    return Node(a.data[:, start:stop], op="columns", parents=(a,), backward=back)


def square(a: Node) -> Node:
    def back(g):
        return (2.0 * a.data * g,)
    return Node(a.data * a.data, op="square", parents=(a,), backward=back)


def mean(a: Node) -> Node:
    """Mean over all elements; returns a scalar node."""
    size = a.data.size

    def back(g):
        return (np.full(a.data.shape, float(g) / size),)
    return Node(a.data.mean(), op="mean", parents=(a,), backward=back)


def stop_gradient(a: Node) -> Node:
    """Identity forward; the backward pass never crosses this node.

    Implemented as a parentless copy, so ancestors of the wrapped value are
    not even visited during backprop.
    """
    return Node(a.data, op="stop_gradient")


def _scatter_rows(ids: Array, rows: Array, shape: tuple) -> Array:
    """Sum rows (m, dim) into a zero (n, dim) table at ids (m,).

    One bincount over the flat index id*dim + k; each cell sums its rows in
    input order, as a per-column bincount would.
    """
    n, dim = shape
    flat = (ids[:, None] * dim + np.arange(dim)).reshape(-1)
    return np.bincount(flat, weights=rows.reshape(-1), minlength=n * dim).reshape(shape)


def embedding(table: Node, ids: Array) -> Node:
    """Row lookup: ids (n,) int -> (n, dim)."""
    ids = np.asarray(ids)

    def back(g):
        return (_scatter_rows(ids, g, table.data.shape),)
    return Node(table.data[ids], op="embedding", parents=(table,), backward=back)


def embedding_bag(table: Node, ids: Array, mask: Array) -> Node:
    """Masked mean-pool of rows: ids (n, L) int, mask (n, L) in {0,1} -> (n, dim).

    Rows with an all-zero mask pool to the zero vector.
    """
    ids = np.asarray(ids)
    mask = _as_array(mask)
    counts = mask.sum(axis=1)
    denom = np.maximum(counts, 1.0)
    rows = table.data[ids]                       # (n, L, dim)
    pooled = (rows * mask[:, :, None]).sum(axis=1) / denom[:, None]

    def back(g):
        contrib = (g / denom[:, None])[:, None, :] * mask[:, :, None]   # (n, L, dim)
        return (_scatter_rows(ids.reshape(-1), contrib, table.data.shape),)
    return Node(pooled, op="embedding_bag", parents=(table,), backward=back)


# ---------------------------------------------------------------------------
# Tape and backward pass
# ---------------------------------------------------------------------------

# Ops whose nodes are leaves by design; any other op without a backward
# rule was built inside no_grad.
_LEAF_OPS = frozenset(("const", "param", "stop_gradient"))


class Tape:
    """Topologically ordered record of the graph below one node.

    nodes[i] only depends on nodes[:i]; a backward sweep therefore visits
    each node exactly once.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Node]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Node) -> "Tape":
        order: list[Node] = []
        seen: set[int] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return cls(order)

    def backward(self, root: Node, params: Iterable[Parameter] = ()) -> dict[str, Array]:
        """Gradients of the scalar root w.r.t. every trainable parameter.

        Trainable parameters unreachable from the root (or cut off by a
        stop-gradient) get an explicit zero entry when listed in `params`.
        """
        if root.data.shape != ():
            raise UsageError("backward requires a scalar loss node, got shape "
                             f"{root.data.shape}")
        if root._backward is None and root.op not in _LEAF_OPS:
            raise UsageError(f"backward through a {root.op!r} loss built inside "
                             "no_grad, which records no graph")
        grads: dict[int, Array] = {id(root): np.ones(())}
        for node in reversed(self.nodes):
            g = grads.get(id(node))
            if g is None or node._backward is None:
                continue
            for parent, pg in zip(node.parents, node._backward(g)):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg

        out: dict[str, Array] = {}
        for node in self.nodes:
            if node.param is not None and node.param.trainable:
                g = grads.get(id(node))
                if g is not None:
                    prev = out.get(node.param.name)
                    out[node.param.name] = g if prev is None else prev + g
        for p in params:
            if p.trainable and p.name not in out:
                out[p.name] = np.zeros_like(p.data)
        return out


def backward(loss: Node, params: Iterable[Parameter] = ()) -> dict[str, Array]:
    """Trace the graph below `loss` and return its gradient map."""
    return Tape.trace(loss).backward(loss, params)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

PROB_EPS = 1e-7


def bce(p: Node, y, eps: float = PROB_EPS) -> Node:
    """Binary cross-entropy, averaged when batched, as one node.

    p is clamped into [eps, 1 - eps] before the logs; additive probability
    compositions can land outside (0, 1) and the logs must stay finite. No
    gradient passes where the clamp binds. Value and gradient are those of
    mean(-(y log(pc) + (1 - y) log(1 - pc))) built from elementwise nodes,
    operation for operation. y must broadcast to p's shape.
    """
    y = _as_array(y)
    if np.broadcast_shapes(p.data.shape, y.shape) != p.data.shape:
        raise ConfigError(f"bce labels {y.shape} do not fit predictions {p.data.shape}")
    pc = np.clip(p.data, eps, 1.0 - eps)
    inside = (p.data > eps) & (p.data < 1.0 - eps)

    def back(g):
        ga = np.full(p.data.shape, float(g) / p.data.size) * -1.0
        return (((ga * y) / pc + -((ga * (1.0 - y)) / (1.0 - pc))) * inside,)
    return Node(bce_values(p.data, y, eps).mean(), op="bce", parents=(p,), backward=back)


def bce_values(p: Array, y: Array, eps: float = PROB_EPS) -> Array:
    """Per-sample clipped binary cross-entropy on plain arrays (no graph).

    Same clamp as bce; used where a loss is only reported, never trained on.
    """
    pc = np.clip(p, eps, 1.0 - eps)
    return -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

ACTIVATIONS = ("sigmoid", "tanh", "linear")


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> Array:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class MLP:
    """Plain fully connected stack; forward exposes every layer's activation.

    Intermediate activations are first-class outputs because downstream
    consumers tap them layer by layer, not just the head.
    """

    def __init__(self, name: str, layer_sizes: Sequence[int],
                 activations: Sequence[str], rng: np.random.Generator,
                 zero_last: bool = False):
        if len(activations) != len(layer_sizes) - 1:
            raise ConfigError(f"{name}: {len(layer_sizes) - 1} layers but "
                              f"{len(activations)} activations")
        for act in activations:
            if act not in ACTIVATIONS:
                raise ConfigError(f"{name}: unknown activation {act!r}")
        self.name = name
        self.sizes = list(layer_sizes)
        self.activations = list(activations)
        self.weights: list[Parameter] = []
        self.biases: list[Parameter] = []
        n_layers = len(layer_sizes) - 1
        for i, (fi, fo) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            # zero_last starts the output layer at zero, so an untrained
            # probability head emits exactly 0.5.
            if zero_last and i == n_layers - 1:
                w = np.zeros((fi, fo))
            else:
                w = glorot_uniform(rng, fi, fo)
            self.weights.append(Parameter(f"{name}/w{i}", w))
            self.biases.append(Parameter(f"{name}/b{i}", np.zeros(fo)))

    def parameters(self) -> list[Parameter]:
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def forward(self, x: Node) -> list[Node]:
        """Per-layer outputs h^1..h^L; the last entry is the head output."""
        outs: list[Node] = []
        h = x
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if h.data.shape[-1] != w.data.shape[0]:
                raise ConfigError(
                    f"{self.name}: layer {i} expects width {w.data.shape[0]}, "
                    f"got {h.data.shape[-1]}")
            h = dense(h, w.node(), b.node(), act)
            outs.append(h)
        return outs


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

def finite_loss(value: float, stage: str, step: int) -> float:
    """A step's loss value, checked before the optimizer applies its gradients.

    A nan or inf loss would carry into every parameter through Adagrad's
    accumulators, so training stops with TrainingError naming stage and step.
    """
    if not math.isfinite(value):
        raise TrainingError(f"{stage}: non-finite loss {value} at step {step}")
    return value


class Adagrad:
    """Per-coordinate Adagrad: accum += g^2; p -= lr * g / (sqrt(accum) + eps).

    Only trainable parameters are registered; anything else is untouched by
    step() no matter what the gradient map contains.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 0.001,
                 eps: float = 1e-10):
        self.lr = lr
        self.eps = eps
        self._params = [p for p in params if p.trainable]
        names = [p.name for p in self._params]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate parameter names: {sorted(names)}")
        self.accum = {p.name: np.zeros_like(p.data) for p in self._params}
        # Two scratch buffers as large as the largest parameter; each step
        # views their head in the parameter's shape instead of allocating.
        size = max((p.data.size for p in self._params), default=0)
        self._num = np.empty(size)
        self._den = np.empty(size)

    def step(self, grads: dict[str, Array]) -> None:
        for p in self._params:
            g = grads.get(p.name)
            if g is None:
                continue
            acc = self.accum[p.name]
            num = self._num[:p.data.size].reshape(p.data.shape)
            den = self._den[:p.data.size].reshape(p.data.shape)
            np.multiply(g, g, out=num)
            acc += num
            np.multiply(self.lr, g, out=num)
            np.sqrt(acc, out=den)
            den += self.eps
            num /= den
            p.data -= num


def param_hash(params: Iterable[Parameter]) -> str:
    """SHA-256 over raw parameter bytes in name order; detects any mutation."""
    h = hashlib.sha256()
    for p in sorted(params, key=lambda p: p.name):
        h.update(p.name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()
