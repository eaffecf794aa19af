"""Reverse-mode automatic differentiation on dense float64 arrays.

Small operator set, batch-first shapes (leading axis = samples), and a
first-class stop-gradient boundary. Everything is 64-bit: gradient checks
against central finite differences at tight tolerances are part of the
contract and are unreliable in 32-bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, TrainingError, UsageError

Array = np.ndarray

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

    __slots__ = ("data", "op", "parents", "_backward", "param")

    def __init__(self, data, op: str = "const", parents: tuple = (),
                 backward: Callable[[Array], tuple] | None = None,
                 param: "Parameter | None" = None):
        self.data = _as_array(data)
        self.op = op
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
        return f"Node({self.op}, shape={self.data.shape})"


def constant(value) -> Node:
    """A leaf that never receives gradient."""
    return Node(value, op="const")


class Parameter:
    """Named trainable (or frozen) array. Frozen parameters are never stepped."""

    __slots__ = ("name", "data", "trainable")

    def __init__(self, name: str, data, trainable: bool = True):
        self.name = name
        # C order, so that Adagrad's flat views step the array itself.
        self.data = np.asarray(data, dtype=np.float64, order="C")
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

    def back(g, w_grad=None):
        # w_grad, when given, is where the weight gradient is written
        # (Tape.backward hands in the optimizer's scratch); else it is fresh.
        gz = _activation_grad(g, out, act)
        return gz @ w.data.T, np.matmul(x.data.T, gz, out=w_grad), gz.sum(axis=0)
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


def _index(ids) -> Array:
    """Integer ids as np.intp, numpy's own index type: int32 ids would make
    every gather cast them, and id * dim in _scatter_rows could overflow
    int32. Float ids raise TypeError rather than truncate."""
    return np.asarray(ids).astype(np.intp, casting="safe", copy=False)


def embedding(table: Node, ids: Array) -> Node:
    """Row lookup: ids (n,) int -> (n, dim)."""
    ids = _index(ids)

    def back(g):
        return (_scatter_rows(ids, g, table.data.shape),)
    return Node(table.data[ids], op="embedding", parents=(table,), backward=back)


def embedding_bag(table: Node, ids: Array, mask: Array) -> Node:
    """Masked mean-pool of rows: ids (n, L) int, mask (n, L) in {0,1} -> (n, dim).

    Rows with an all-zero mask pool to the zero vector. A bool mask is
    taken as its 0.0/1.0 form.
    """
    ids = _index(ids)
    mask = _as_array(mask)
    counts = mask.sum(axis=1)
    denom = np.maximum(counts, 1.0)
    rows = table.data[ids]                       # (n, L, dim), a fresh gather
    rows *= mask[:, :, None]
    pooled = rows.sum(axis=1) / denom[:, None]

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
    each node exactly once, after every node that consumes it. A node's
    parentless parents (parameters, constants, no_grad outputs) are placed
    directly before it, so the sweep reaches a weight right after the node
    that made its gradient. Only leaves take these places: the order of the
    other nodes, and so of every gradient sum, is that of a plain depth-first
    post-order.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[Node]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Node) -> "Tape":
        order: list[Node] = []
        seen: set[Node] = set()
        stack: list[tuple[Node, bool]] = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            # Leaves go under the other parents: popped after their
            # subtrees, they are placed directly before node.
            leaves = len(stack)
            for parent in node.parents:
                if parent not in seen:
                    if parent.parents:
                        stack.append((parent, False))
                    else:
                        stack.insert(leaves, (parent, False))
                        leaves += 1
        return cls(order)

    def backward(self, root: Node, params: Iterable[Parameter] = (),
                 opt: "Adagrad | None" = None) -> dict[str, Array]:
        """Gradients of the scalar root w.r.t. every trainable parameter.

        One reverse sweep; each node's gradient is dropped once the node has
        passed it on. A trainable parameter's gradient is handed on as soon
        as it is final: at its node, or, for a parameter read through
        several nodes, once the sweep has reached them all, summed over them
        in tape order.

        Without `opt` the gradients are returned by name; trainable
        parameters unreachable from the root (or cut off by a stop-gradient)
        get an explicit zero entry when listed in `params`. With `opt`, each
        gradient of a parameter that opt holds goes to opt.update and is
        dropped, so no whole gradient set is ever held, and {} is returned.
        A `dense` whose weight opt holds, read through one node with one
        consumer, writes that gradient into opt's shared scratch: the weight
        node comes next in the sweep, so it is applied before the next
        `dense` writes there.
        """
        if root.data.shape != ():
            raise UsageError("backward requires a scalar loss node, got shape "
                             f"{root.data.shape}")
        if root._backward is None and root.op not in _LEAF_OPS:
            raise UsageError(f"backward through a {root.op!r} loss built inside "
                             "no_grad, which records no graph")
        reads: dict[str, int] = {}     # trainable parameter -> its nodes
        uses: dict[Node, int] = {}     # node -> its consumers, when updating
        for node in self.nodes:
            p = node.param
            if p is not None and p.trainable:
                reads[p.name] = reads.get(p.name, 0) + 1
            if opt is not None:
                for parent in node.parents:
                    uses[parent] = uses.get(parent, 0) + 1

        out: dict[str, Array] = {}
        held: dict[str, list] = {}     # parts of a multi-node parameter
        grads: dict[Node, Array] = {root: np.ones(())}
        for node in reversed(self.nodes):
            g = grads.pop(node, None)
            p = node.param
            if p is not None and p.trainable:
                if reads[p.name] > 1:
                    parts = held.setdefault(p.name, [])
                    parts.append(g)
                    if len(parts) < reads[p.name]:
                        continue
                    parts = [part for part in reversed(parts) if part is not None]
                    g = sum(parts[1:], parts[0]) if parts else None
                if g is None:
                    continue
                if opt is None:
                    out[p.name] = g
                elif p.name in opt.accum:
                    opt.update(p, g)
                continue
            if g is None or node._backward is None:
                continue
            w = node.parents[1] if opt is not None and node.op == "dense" else None
            if (w is not None and w.param is not None and w.param.trainable
                    and w.param.name in opt.accum and reads[w.param.name] == 1
                    and uses[w] == 1):
                pgs = node._backward(g, opt.weight_grad(w.param))
            else:
                pgs = node._backward(g)
            for parent, pg in zip(node.parents, pgs):
                if pg is None:
                    continue
                acc = grads.get(parent)
                grads[parent] = pg if acc is None else acc + pg

        if opt is None:
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

# Adagrad's block, in floats: 256 KB of float64, so the five arrays that a
# block's seven passes touch stay in a core's cache.
ADAGRAD_BLOCK = 1 << 15


class Adagrad:
    """Per-coordinate Adagrad: accum += g^2; p -= lr * g / (sqrt(accum) + eps).

    Only trainable parameters are registered; anything else is untouched.
    step(loss) is one whole training step: Tape.backward hands each
    registered parameter's gradient to update() as soon as it is final, so
    the step never holds a whole gradient set. The weight gradients that
    `dense` makes go into one scratch buffer, the size of the largest
    parameter, allocated at the first step and shared by every step after.
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
        # Two scratch buffers of one block each; update() runs through a
        # parameter in blocks of ADAGRAD_BLOCK floats instead of allocating.
        size = min(ADAGRAD_BLOCK, max((p.data.size for p in self._params), default=0))
        self._num = np.empty(size)
        self._den = np.empty(size)
        self._weight_grads: Array | None = None

    def step(self, loss: Node) -> None:
        """Backpropagate the scalar loss and update every registered
        parameter it reaches."""
        Tape.trace(loss).backward(loss, opt=self)

    def weight_grad(self, p: Parameter) -> Array:
        """A p-shaped view of the shared weight-gradient scratch."""
        if self._weight_grads is None:
            self._weight_grads = np.empty(max(q.data.size for q in self._params))
        return self._weight_grads[:p.data.size].reshape(p.data.shape)

    def update(self, p: Parameter, g: Array) -> None:
        """Apply one gradient to the registered parameter p."""
        if g.shape != p.data.shape:
            raise UsageError(f"gradient of {p.name!r} has shape {g.shape}, "
                             f"the parameter {p.data.shape}")
        # Views of the C-order parameter and accumulator; a non-contiguous
        # gradient (a split of concat's) is copied once.
        data, acc, g = p.data.reshape(-1), self.accum[p.name].reshape(-1), g.reshape(-1)
        for start in range(0, g.size, ADAGRAD_BLOCK):
            gb = g[start:start + ADAGRAD_BLOCK]
            ab = acc[start:start + ADAGRAD_BLOCK]
            db = data[start:start + ADAGRAD_BLOCK]
            num, den = self._num[:gb.size], self._den[:gb.size]
            np.multiply(gb, gb, out=num)
            ab += num
            np.multiply(self.lr, gb, out=num)
            np.sqrt(ab, out=den)
            den += self.eps
            num /= den
            db -= num


# ---------------------------------------------------------------------------
# Training and scoring loops
# ---------------------------------------------------------------------------

def minimize(params: Iterable[Parameter], data, loss_of: Callable, config,
             rng: np.random.Generator, stage: str) -> tuple[list[float], int]:
    """Minibatch Adagrad over `data`; returns (per-epoch mean losses, steps).

    config supplies learning_rate, batch_size and epochs. Each epoch visits
    the rows of `data` (anything with .n and .take(rows)) in one fresh
    rng.permutation; loss_of(data.take(rows), rows) builds a batch's scalar
    loss node. A step is one Adagrad.step(loss) call, which backpropagates
    and updates in one sweep. A nan or inf loss would carry into every
    parameter through Adagrad's accumulators, so training stops with
    TrainingError naming stage and step before that call.
    """
    if data.n == 0:
        raise DataError(f"{stage}: empty training set")
    opt = Adagrad(params, lr=config.learning_rate)
    epoch_means: list[float] = []
    step = 0
    for _ in range(config.epochs):
        order = rng.permutation(data.n)
        losses = []
        for start in range(0, data.n, config.batch_size):
            rows = order[start:start + config.batch_size]
            loss = loss_of(data.take(rows), rows)
            value = float(loss.data)
            if not math.isfinite(value):
                raise TrainingError(f"{stage}: non-finite loss {value} at step {step}")
            opt.step(loss)
            losses.append(value)
            step += 1
        epoch_means.append(float(np.mean(losses)))
    return epoch_means, step


# A scoring chunk holds at most SCORE_CHUNK rows and SCORE_FLOATS activation
# floats (8 MB of float64). 8192-row chunks faulted in ~10 MB of pages each,
# and at 1 << 22 floats each paper-width predict call faulted in ~40 000
# pages: glibc handed a chunk's freed activations back to the system and the
# next chunk mapped them again.
SCORE_CHUNK = 4096
SCORE_FLOATS = 1 << 20


def score(n: int, forward: Callable[[slice], Sequence[Node]],
          params: Iterable[Parameter]) -> list[Array]:
    """Column 0 of each node forward(rows) returns, over rows 0..n in chunks.

    Runs in no_grad and returns one flat array per returned node. `params`
    are the parameters forward reads; a row emits `width` floats, the sum of
    shape[1] over the 2-D ones (dense weights and embedding tables). A chunk
    holds SCORE_CHUNK rows, halved while rows * width > SCORE_FLOATS (down to
    one row). With OpenBLAS, power-of-two chunks give the bits of one pass
    over the whole set, except in a last chunk of a few rows, which BLAS
    computes through other kernels (an ulp or two off, at any chunk size).
    A 653-row chunk, the float budget alone, also moved rows elsewhere. An
    empty set still makes one pass, over the empty slice, so each output is
    an empty array.
    """
    width = sum(p.data.shape[1] for p in params if p.data.ndim == 2)
    rows = SCORE_CHUNK
    while rows > 1 and rows * width > SCORE_FLOATS:
        rows //= 2
    with no_grad():
        chunks = [forward(slice(start, start + rows))
                  for start in range(0, max(n, 1), rows)]
    return [np.concatenate([node.data[:, 0] for node in nodes]) for nodes in zip(*chunks)]


def param_hash(params: Iterable[Parameter]) -> str:
    """SHA-256 over raw parameter bytes in name order; detects any mutation."""
    h = hashlib.sha256()
    for p in sorted(params, key=lambda p: p.name):
        h.update(p.name.encode())
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()
