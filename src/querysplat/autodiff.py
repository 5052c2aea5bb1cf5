"""Reverse-mode automatic differentiation over dense float64 arrays.

A small define-by-run engine: every operation builds a node holding its
forward value and a vector-Jacobian-product closure. ``Tensor.backward``
walks the recorded graph in reverse topological order with a fixed
accumulation order, so repeated runs on identical inputs are bit-identical.

Everything is 64-bit. The primitive set is deliberately closed; composite
functions (tanh, reciprocals, losses) are built from it in this module so
that one finite-difference check per primitive covers the whole engine.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ParamStore",
    "init_rng",
    "AutodiffError",
    "NonFiniteError",
    "NondeterministicError",
    "set_check_finite",
    "constant",
    "custom",
    "matmul",
    "add",
    "mul",
    "sigmoid",
    "relu",
    "exp",
    "log",
    "softmax",
    "layer_norm",
    "concat",
    "narrow",
    "reshape",
    "reduce_sum",
    "gather",
    "scatter_add",
    "l1_loss",
    "tanh",
    "reciprocal_pos",
    "sqrt_pos",
    "mean",
    "linear",
    "log_softmax",
    "cross_entropy",
    "finite_difference_check",
]


class AutodiffError(Exception):
    """Base class for engine errors."""


class NonFiniteError(AutodiffError):
    """An operation produced NaN or Inf while finite-checking is enabled."""


class NondeterministicError(AutodiffError):
    """Two forward passes of a supposedly pure function disagreed."""


_check_finite = False


def set_check_finite(enabled: bool) -> None:
    """Globally toggle per-operation NaN/Inf validation (off by default)."""
    global _check_finite
    _check_finite = bool(enabled)


def _as_f64(data) -> np.ndarray:
    # np.ascontiguousarray would promote 0-d arrays to 1-d; asarray keeps rank.
    arr = np.asarray(data, dtype=np.float64, order="C")
    return arr


class Tensor:
    """A float64 array plus the recorded operation that produced it.

    Leaf tensors (no producing operation) accumulate gradients into
    ``.grad`` during backward. Intermediate gradients are transient.
    """

    __slots__ = ("data", "grad", "name", "_parents", "_vjp")

    def __init__(
        self,
        data,
        _parents: tuple = (),
        _vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None,
        name: str = "",
    ):
        self.data = _as_f64(data)
        self.grad: np.ndarray | None = None
        self.name = name
        self._parents = _parents
        self._vjp = _vjp
        if _check_finite and not np.all(np.isfinite(self.data)):
            raise NonFiniteError(f"non-finite values in output of node '{name or 'leaf'}'")

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.shape})"

    # -- autograd ------------------------------------------------------

    def backward(self, seed: np.ndarray | float | None = None) -> None:
        """Backpropagate ``seed`` (default: all-ones) from this node.

        Nodes are visited in reverse of a depth-first topological order of
        the graph, which depends only on its structure, so two identical runs
        accumulate gradients in the same order and produce bit-identical
        buffers.

        The pass consumes the graph. Each node is popped off the order and
        loses its VJP closure and its parent links as its VJP runs, so the
        forward state they hold is freed as the pass moves toward the
        leaves; the node keeps only its value. A later ``backward`` that
        reaches a consumed node raises ``AutodiffError``. Pending gradients
        are keyed by object identity. That is sound although consumed nodes
        may be freed mid-pass: a key is added only for a parent of the node
        being visited, which comes earlier in the order, so every key
        belongs to a node still waiting in the order, and such nodes are
        alive and have distinct ids.
        """
        if seed is None:
            seed_arr = np.ones_like(self.data)
        else:
            seed_arr = _as_f64(seed)
        if seed_arr.shape != self.data.shape:
            raise ValueError(
                f"seed gradient shape {seed_arr.shape} does not match "
                f"root output shape {self.data.shape}"
            )

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): seed_arr}
        while order:
            node = order.pop()
            g = grads.pop(id(node), None)
            vjp, parents = node._vjp, node._parents
            if vjp is None:
                if g is not None:
                    if node.grad is None:
                        node.grad = np.zeros_like(node.data)
                    node.grad = node.grad + g
                continue
            if vjp is _consumed:
                if g is None:
                    continue
                raise AutodiffError(
                    f"backward through node '{node.name}', "
                    "whose graph an earlier backward consumed"
                )
            node._vjp, node._parents = _consumed, ()
            if g is None:
                continue
            for parent, pg in zip(parents, vjp(g)):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar (composition of primitives) --------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __neg__(self):
        return mul(self, constant(-1.0))

    def __sub__(self, other):
        return add(self, -_lift(other))

    def __rsub__(self, other):
        return add(_lift(other), -self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not a primitive; use reciprocal_pos")
        return mul(self, constant(1.0 / float(other)))

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)


def _consumed(g):
    """The VJP a node holds once a backward pass has run through it."""
    raise AutodiffError("graph consumed by an earlier backward")


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def constant(x) -> Tensor:
    """A leaf tensor used as a constant (gradients accumulate but are unused)."""
    return Tensor(x, name="const")


def custom(
    parents: Sequence[Tensor],
    value: np.ndarray,
    vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    name: str = "custom",
) -> Tensor:
    """Insert a node whose forward value and VJP were computed externally.

    This is the bridge for operations with hand-written analytic backward
    passes (e.g. rasterization); ``vjp`` receives the output cotangent and
    must return one cotangent (or None) per parent, in order.
    """
    return Tensor(value, tuple(parents), vjp, name=name)


def _topological_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in reversed(node._parents):
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        out = a.data + b.data
    except ValueError as err:
        raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}") from err

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out, (a, b), vjp, name="add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        out = a.data * b.data
    except ValueError as err:
        raise ValueError(f"mul: incompatible shapes {a.shape} and {b.shape}") from err

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor(out, (a, b), vjp, name="mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul: expects 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree, {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def vjp(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor(out, (a, b), vjp, name="matmul")


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    out[~pos] = ez / (1.0 + ez)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, (x,), vjp, name="sigmoid")


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def vjp(g):
        return (g * (x.data > 0.0),)

    return Tensor(out, (x,), vjp, name="relu")


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def vjp(g):
        return (g * out,)

    return Tensor(out, (x,), vjp, name="exp")


def log(x: Tensor) -> Tensor:
    out = np.log(x.data)

    def vjp(g):
        return (g / x.data,)

    return Tensor(out, (x,), vjp, name="log")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return Tensor(out, (x,), vjp, name="softmax")


def layer_norm(x: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (no affine)."""
    d = x.data
    mu = d.mean(axis=-1, keepdims=True)
    xc = d - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def vjp(g):
        gm = g.mean(axis=-1, keepdims=True)
        gx = (g * xhat).mean(axis=-1, keepdims=True)
        return (inv * (g - gm - xhat * gx),)

    return Tensor(xhat, (x,), vjp, name="layer_norm")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_lift(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        parts = []
        for i in range(len(tensors)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offsets[i], offsets[i + 1])
            parts.append(g[tuple(sl)])
        return tuple(parts)

    return Tensor(out, tuple(tensors), vjp, name="concat")


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along ``axis``."""
    if start < 0 or start + length > x.shape[axis]:
        raise ValueError(
            f"narrow: [{start}, {start + length}) out of range for axis {axis} of {x.shape}"
        )
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)
    out = x.data[sl]

    def vjp(g):
        full = np.zeros_like(x.data)
        full[sl] = g
        return (full,)

    return Tensor(out, (x,), vjp, name="narrow")


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.shape),)

    return Tensor(out, (x,), vjp, name="reshape")


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, x.shape).copy(),)

    return Tensor(out, (x,), vjp, name="sum")


def _index_add(shape: tuple, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """np.add.at(zeros(shape), idx, g) via one bincount (much faster)."""
    tail = int(np.prod(shape[1:], dtype=np.int64))
    if g.size == 0 or tail == 0:
        return np.zeros(shape, dtype=np.float64)
    idx_flat = np.asarray(idx, dtype=np.int64).reshape(-1)
    g2 = np.ascontiguousarray(g, dtype=np.float64).reshape(idx_flat.shape[0], tail)
    keys = idx_flat[:, None] * tail + np.arange(tail, dtype=np.int64)
    flat = np.bincount(
        keys.reshape(-1), weights=g2.reshape(-1), minlength=shape[0] * tail
    )
    return flat.reshape(shape)


def gather(x: Tensor, index: np.ndarray) -> Tensor:
    """Index rows of ``x`` along axis 0; output shape index.shape + x.shape[1:]."""
    idx = np.asarray(index)
    if not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("gather: index must be an integer array")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ValueError(
            f"gather: index out of range [0, {x.shape[0]}) (min {idx.min()}, max {idx.max()})"
        )
    out = x.data[idx]

    def vjp(g):
        return (_index_add(x.data.shape, idx, g),)

    return Tensor(out, (x,), vjp, name="gather")


def scatter_add(x: Tensor, index: np.ndarray, num: int) -> Tensor:
    """Sum rows of ``x`` into ``num`` output slots given by ``index``.

    The adjoint of ``gather``; rows are added sequentially in index-array
    order, which keeps accumulation deterministic.
    """
    idx = np.asarray(index)
    if idx.ndim != 1 or idx.shape[0] != x.shape[0]:
        raise ValueError(f"scatter_add: index shape {idx.shape} does not match rows {x.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= num):
        raise ValueError(f"scatter_add: index out of range [0, {num})")
    out = _index_add((num,) + x.shape[1:], idx, x.data)

    def vjp(g):
        return (g[idx],)

    return Tensor(out, (x,), vjp, name="scatter_add")


def l1_loss(a: Tensor, b: Tensor, weight: np.ndarray | None = None) -> Tensor:
    """Weighted sum of absolute differences, as a scalar.

    Subgradient at zero difference is 0, so the loss minimum has an exactly
    zero gradient.
    """
    if a.shape != b.shape:
        raise ValueError(f"l1: shapes disagree, {a.shape} vs {b.shape}")
    diff = a.data - b.data
    sgn = np.sign(diff)
    absd = np.abs(diff)
    if weight is not None:
        w = np.asarray(weight, dtype=np.float64)
        absd = absd * w
        sgn = sgn * w
    out = absd.sum()

    def vjp(g):
        return g * sgn, -g * sgn

    return Tensor(out, (a, b), vjp, name="l1")


# ---------------------------------------------------------------------------
# Composites (no new gradients to trust: built from checked primitives)
# ---------------------------------------------------------------------------


def tanh(x: Tensor) -> Tensor:
    # tanh(x) = 2*sigmoid(2x) - 1
    return sigmoid(x * 2.0) * 2.0 - 1.0


def reciprocal_pos(x: Tensor) -> Tensor:
    """1/x for strictly positive x."""
    return exp(-log(x))


def sqrt_pos(x: Tensor) -> Tensor:
    """sqrt(x) for strictly positive x."""
    return exp(log(x) * 0.5)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        n = x.size
    else:
        n = x.shape[axis]
    return reduce_sum(x, axis=axis, keepdims=keepdims) * (1.0 / n)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused affine map x @ w + b of a 2-D x and w and a 1-D b, one tape
    node instead of two."""
    value = x.data @ w.data + b.data

    def vjp(g):
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0)

    return Tensor(value, (x, w, b), vjp, name="linear")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    # The max shift is a constant offset; the gradient is exact regardless.
    shift = constant(x.data.max(axis=axis, keepdims=True))
    z = x - shift
    lse = log(reduce_sum(exp(z), axis=axis, keepdims=True))
    return z - lse


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer ``targets`` under ``logits`` rows."""
    t = np.asarray(targets)
    n, c = logits.shape
    if t.shape != (n,):
        raise ValueError(f"cross_entropy: targets shape {t.shape} does not match ({n},)")
    lp = log_softmax(logits, axis=-1)
    flat = reshape(lp, (n * c,))
    picked = gather(flat, np.arange(n) * c + t)
    return -mean(picked)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


class _NoDraws:
    """Stands in for a NumPy Generator in parameter init code whose values a
    checkpoint will overwrite. Nothing is sampled: a normal draw is zeros of
    the requested shape, a uniform draw the interval's midpoint, and
    ``integers`` returns the seed None, so a generator seeded from this one
    is one too."""

    def normal(self, size):
        return np.zeros(size)

    def uniform(self, low, high, size):
        return np.full(size, 0.5 * (low + high))

    def integers(self, high):
        return None


def init_rng(seed):
    """The generator init code draws parameter values from: seeded, or for
    seed None a stand-in that draws nothing, for a model a checkpoint fills
    with the same names and shapes."""
    return _NoDraws() if seed is None else np.random.default_rng(seed)


class ParamStore:
    """Named trainable tensors with deterministic iteration order."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def param(self, name: str, init: np.ndarray) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(init, name=name)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return sorted(self._params)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(n, self._params[n]) for n in self.names()]

    def zero_grad(self) -> None:
        for _, t in self.items():
            t.grad = None

    @contextmanager
    def substitute(self, name: str, tensor: Tensor):
        """Temporarily replace a parameter, e.g. to splice in a probe Tensor
        built from graph ops during a finite-difference check."""
        if name not in self._params:
            raise KeyError(f"unknown parameter: {name}")
        saved = self._params[name]
        self._params[name] = tensor
        try:
            yield
        finally:
            self._params[name] = saved

    def state_dict(self) -> dict[str, np.ndarray]:
        return {n: t.data.copy() for n, t in self.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ValueError(
                f"parameter names disagree (missing {sorted(missing)}, unexpected {sorted(extra)})"
            )
        for name, arr in state.items():
            t = self._params[name]
            arr = _as_f64(arr)
            if arr.shape != t.shape:
                raise ValueError(f"shape mismatch for '{name}': {arr.shape} vs {t.shape}")
            t.data = arr


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def finite_difference_check(
    fn: Callable[[Tensor], Tensor],
    point: np.ndarray,
    epsilon: float = 1e-5,
) -> float:
    """Compare backprop gradients of scalar-valued ``fn`` against central differences.

    Returns the maximum elementwise relative error, with relative error
    measured against max(|analytic|, |numeric|, 1e-8). The function is run
    twice up front; any bitwise disagreement raises NondeterministicError.
    """
    if not (1e-7 <= epsilon <= 1e-3):
        raise ValueError(f"epsilon {epsilon} outside [1e-7, 1e-3]")
    # Private copy: perturbations must never leak into the caller's array.
    point = _as_f64(point).copy()

    out_a = fn(Tensor(point.copy())).data
    out_b = fn(Tensor(point.copy())).data
    if out_a.shape != ():
        raise ValueError("finite_difference_check expects a scalar-valued function")
    if out_a.tobytes() != out_b.tobytes():
        raise NondeterministicError("two forward passes produced different outputs")

    leaf = Tensor(point.copy())
    root = fn(leaf)
    root.backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(point)

    numeric = np.zeros_like(point)
    flat = point.ravel()
    num_flat = numeric.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        hi = float(fn(Tensor(point.copy())).data)
        flat[i] = orig - epsilon
        lo = float(fn(Tensor(point.copy())).data)
        flat[i] = orig
        num_flat[i] = (hi - lo) / (2.0 * epsilon)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
