"""Dense-array reverse-mode autodiff substrate.

A ``Tensor`` wraps a numpy array together with an optional gradient buffer.
Operations executed while a ``Tape`` is active append records of the primitive
and its saved inputs; ``backward`` replays the tape in reverse creation order
(which is a reverse topological order for define-by-run graphs), visiting each
record exactly once and accumulating gradients additively into ``.grad``.

Gradients accumulate across tape replays; they are zeroed only by the
optimizer.  Tensors are immutable after creation except for the grad buffer
and in-place optimizer updates, and a tape is confined to a single thread.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GradientError(RuntimeError):
    """Backward pass failed or produced a non-finite gradient."""


class OptimizerError(RuntimeError):
    """Optimizer encountered an invalid (non-finite) gradient."""


_DEFAULT_DTYPE = np.float32


def set_default_dtype(dtype) -> None:
    """Set the dtype used for newly created tensors (float32 or float64)."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dt}; use float32 or float64")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily switch the default tensor dtype."""
    previous = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


class Tensor:
    """A numpy array with an optional same-shape gradient buffer.

    ``requires_grad`` marks leaves (parameters) whose gradients should be
    retained.  Tensors produced by operations inherit ``requires_grad`` from
    their inputs and are recorded on the active tape when one exists.
    """

    __slots__ = ("values", "grad", "requires_grad", "name", "is_leaf")

    def __init__(self, values, requires_grad: bool = False, dtype=None, name: str | None = None):
        self.values = np.asarray(values, dtype=dtype or _DEFAULT_DTYPE)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self.is_leaf = True

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """Constant copy of this tensor; no gradient flows through it."""
        return Tensor(self.values.copy(), requires_grad=False, dtype=self.dtype)

    # arithmetic sugar; all routed through the taped primitives
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None):
        return tmean(self, axis=axis)

    def t(self):
        return transpose(self)

    def __repr__(self):
        tag = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad}{tag})"


def parameter(values, name: str | None = None, dtype=None) -> Tensor:
    """A learnable leaf tensor owning a private copy of ``values``."""
    arr = np.array(values, dtype=dtype or _DEFAULT_DTYPE)
    return Tensor(arr, requires_grad=True, dtype=arr.dtype, name=name)


def as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, dtype=dtype)


class _Record:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: tuple, backward_fn: Callable):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of primitive operations for one forward pass."""

    def __init__(self):
        self.records: list[_Record] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self.records)


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(out_values, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Wrap an op result, recording it on the active tape when grads are needed.

    ``backward_fn`` maps the output gradient to one gradient per input; it
    may return None for an input that does not require a gradient.
    """
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_values, requires_grad=requires, dtype=out_values.dtype)
    tape = active_tape()
    if requires and tape is not None:
        out.is_leaf = False
        tape.records.append(_Record(out, tuple(inputs), backward_fn))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcasted gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.values + b.values

    def bw(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.values - b.values

    def bw(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.values * b.values
    av, bv = a.values, b.values

    def bw(g):
        return (_unbroadcast(g * bv, a.shape) if a.requires_grad else None,
                _unbroadcast(g * av, b.shape) if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.values / b.values
    av, bv = a.values, b.values

    def bw(g):
        return (_unbroadcast(g / bv, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * av / (bv * bv), b.shape) if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _emit(-a.values, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    """Matrix product of two 2-D tensors; gradients flow to both operands."""
    a, b = as_tensor(a), as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeMismatchError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul inner dimensions do not match: {a.shape} x {b.shape}")
    out = a.values @ b.values
    av, bv = a.values, b.values

    def bw(g):
        return (g @ bv.T if a.requires_grad else None,
                av.T @ g if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeMismatchError(f"transpose expects a 2-D tensor, got {a.shape}")
    return _emit(np.ascontiguousarray(a.values.T), (a,), lambda g: (g.T,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.values)
    return _emit(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    av = a.values
    return _emit(np.log(av), (a,), lambda g: (g / av,))


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.values)
    return _emit(out, (a,), lambda g: (g * 0.5 / out,))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    av = a.values
    out = np.empty_like(av)
    pos = av >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
    ex = np.exp(av[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bw(g):
        return (g * out * (1.0 - out),)

    return _emit(out, (a,), bw)


def softplus(a) -> Tensor:
    """log(1 + exp(x)), computed without overflow; the stable -log(sigmoid(-x))."""
    a = as_tensor(a)
    av = a.values
    out = np.logaddexp(0.0, av).astype(av.dtype, copy=False)

    def bw(g):
        s = np.empty_like(av)
        pos = av >= 0
        s[pos] = 1.0 / (1.0 + np.exp(-av[pos]))
        ex = np.exp(av[~pos])
        s[~pos] = ex / (1.0 + ex)
        return (g * s,)

    return _emit(out, (a,), bw)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.values.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, shape).astype(a.dtype, copy=False),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, shape).astype(a.dtype, copy=False),)

    return _emit(np.asarray(out, dtype=a.dtype), (a,), bw)


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    n = a.values.size if axis is None else a.shape[axis]
    return div(tsum(a, axis=axis), float(n))


def square(a) -> Tensor:
    a = as_tensor(a)
    return mul(a, a)


def softmax_rows(a) -> Tensor:
    """Row-wise softmax of a 2-D tensor with max-subtraction for stability."""
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeMismatchError(f"softmax_rows expects a 2-D tensor, got {a.shape}")
    if a.shape[1] == 0:
        raise ValueError("softmax_rows: empty rows")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner),)

    return _emit(out, (a,), bw)


def take(a, idx) -> Tensor:
    """Select rows (axis 0) of ``a`` by integer index; repeated rows accumulate grads."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = a.values[idx]
    rows = a.shape[0]
    trailing = a.shape[1:]

    def bw(g):
        scattered = _scatter_rows(idx, g.reshape(len(idx), -1) if trailing else g, rows)
        return (scattered.reshape((rows,) + trailing),)

    return _emit(out, (a,), bw)


def _scatter_rows(idx: np.ndarray, values: np.ndarray, num: int) -> np.ndarray:
    """Sum rows of ``values`` into ``num`` output slots given by ``idx``."""
    if values.ndim == 1:
        out = np.bincount(idx, weights=values, minlength=num)
        return out.astype(values.dtype, copy=False)
    ind = sp.csr_matrix(
        (np.ones(len(idx), dtype=values.dtype), (idx, np.arange(len(idx)))),
        shape=(num, len(idx)),
    )
    return np.asarray(ind @ values)


def segment_sum(a, idx, num: int) -> Tensor:
    """Scatter-add rows of ``a`` into ``num`` segments; gradient is a gather."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    if len(idx) != a.shape[0]:
        raise ShapeMismatchError(f"segment_sum: {len(idx)} indices for {a.shape[0]} rows")
    out = _scatter_rows(idx, a.values, num)

    def bw(g):
        return (g[idx],)

    return _emit(out, (a,), bw)


def segment_softmax(scores, idx, num: int) -> Tensor:
    """Softmax of ``scores`` within segments given by ``idx``, per column.

    ``scores`` is 1-D, or 2-D with one column per head; the rows sharing an
    ``idx`` entry form one segment.  Stabilized by subtracting the
    per-segment maximum (a constant, which leaves both the value and the
    gradient of the softmax unchanged).  Segments with no entries simply
    produce no outputs.
    """
    scores = as_tensor(scores)
    idx = np.asarray(idx, dtype=np.intp)
    if len(idx) != scores.shape[0]:
        raise ShapeMismatchError(f"segment_softmax: {len(idx)} indices for {scores.shape[0]} rows")
    sv = scores.values
    seg_max = np.full((num,) + sv.shape[1:], -np.inf, dtype=sv.dtype)
    np.maximum.at(seg_max, idx, sv)
    e = np.exp(sv - seg_max[idx])
    out = e / _scatter_rows(idx, e, num)[idx]

    def bw(g):
        inner = _scatter_rows(idx, g * out, num)
        return (out * (g - inner[idx]),)

    return _emit(out, (scores,), bw)


def logsumexp_rows(a) -> Tensor:
    """log(sum(exp(a), axis=1)) of a 2-D tensor, shifted by each row's maximum.

    The gradient is the row softmax scaled by the incoming gradient; it is
    recomputed from ``a`` and the output, so the tape keeps no extra matrix.
    """
    a = as_tensor(a)
    if a.values.ndim != 2:
        raise ShapeMismatchError(f"logsumexp_rows expects a 2-D tensor, got {a.shape}")
    if a.shape[1] == 0:
        raise ValueError("logsumexp_rows: empty rows")
    av = a.values
    row_max = av.max(axis=1, keepdims=True)
    e = av - row_max
    np.exp(e, out=e)
    out = np.log(e.sum(axis=1)) + row_max[:, 0]

    def bw(g):
        p = av - out[:, None]
        np.exp(p, out=p)
        p *= g[:, None]
        return (p,)

    return _emit(out, (a,), bw)


# Graph kernels.  ``g`` is a CSR graph (``data.BipartiteGraph``): node n's
# directed slots are ``csr_offsets[n]:csr_offsets[n + 1]``, slot s runs from
# ``directed_src[s]`` to ``csr_neighbors[s]``.  A dense operand of width
# ``heads * head_dim`` holds head h in columns ``h * head_dim:(h + 1) * head_dim``.


def _check_node_table(g, x: np.ndarray, heads: int, what: str) -> None:
    if x.ndim != 2 or x.shape[0] != g.num_nodes or x.shape[1] % heads:
        raise ShapeMismatchError(
            f"{what}: expected ({g.num_nodes}, a multiple of {heads} heads), got {x.shape}")


def _slot_dots(a: np.ndarray, b: np.ndarray, g, heads: int) -> np.ndarray:
    """Per-head <a[src(s)], b[dst(s)]> for every slot s: shape (num_slots, heads)."""
    shape = (len(g.csr_neighbors), heads, a.shape[1] // heads)
    return np.einsum("shd,shd->sh", np.take(a, g.directed_src, axis=0).reshape(shape),
                     np.take(b, g.csr_neighbors, axis=0).reshape(shape))


def _head_ops(w: np.ndarray, g) -> list[sp.csr_matrix]:
    """One (num_nodes, num_nodes) CSR matrix per column of the slot weights ``w``."""
    n = g.num_nodes
    return [sp.csr_matrix((col, g.csr_neighbors, g.csr_offsets), shape=(n, n))
            for col in np.ascontiguousarray(w.T)]


def _apply_heads(ops: list, x: np.ndarray) -> np.ndarray:
    """op_h @ x[:, head h] for every head, side by side."""
    if len(ops) == 1:
        return ops[0] @ x
    width = x.shape[1] // len(ops)
    out = np.empty((ops[0].shape[0], x.shape[1]), dtype=np.result_type(ops[0].dtype, x.dtype))
    for h, op in enumerate(ops):
        cols = slice(h * width, (h + 1) * width)
        out[:, cols] = op @ x[:, cols]
    return out


def edge_dot(q, k, g, heads: int) -> Tensor:
    """Sampled dense-dense product (SDDMM) over the directed slots of ``g``.

    Returns (num_slots, heads): per head, the dot product of the slot
    source's block of ``q`` with the slot destination's block of ``k``.  The
    backward forms one CSR matrix per head from the incoming gradient and
    multiplies it into ``k`` and (transposed) into ``q``; all heads share one
    tape record.
    """
    q, k = as_tensor(q), as_tensor(k)
    _check_node_table(g, q.values, heads, "edge_dot q")
    if k.shape != q.shape:
        raise ShapeMismatchError(f"edge_dot: q {q.shape} vs k {k.shape}")
    qv, kv = q.values, k.values
    out = _slot_dots(qv, kv, g, heads)

    def bw(grad):
        ops = _head_ops(grad, g)
        return (_apply_heads(ops, kv) if q.requires_grad else None,
                _apply_heads([op.T for op in ops], qv) if k.requires_grad else None)

    return _emit(out, (q, k), bw)


def edge_spmm(w, x, g, heads: int) -> Tensor:
    """Weighted neighbour sums (SpMM) over ``g``, one weight column per head.

    ``w`` is (num_slots, heads).  Row n, head block h of the output is the
    sum over n's slots s of ``w[s, h] * x[dst(s), block h]``; a node without
    neighbours gets a zero row.  The backward is ``op_h.T @ grad`` for ``x``
    and, only when ``w`` requires a gradient, the per-slot dot products
    ``<grad[src(s)], x[dst(s)]>`` per head.  All heads share one tape record.
    """
    w, x = as_tensor(w), as_tensor(x)
    _check_node_table(g, x.values, heads, "edge_spmm x")
    if w.shape != (len(g.csr_neighbors), heads):
        raise ShapeMismatchError(
            f"edge_spmm: expected weights ({len(g.csr_neighbors)}, {heads}), got {w.shape}")
    xv = x.values
    ops = _head_ops(w.values, g)
    out = _apply_heads(ops, xv)

    def bw(grad):
        return (_slot_dots(grad, xv, g, heads) if w.requires_grad else None,
                _apply_heads([op.T for op in ops], grad) if x.requires_grad else None)

    return _emit(out, (w, x), bw)


def concat(tensors: Iterable[Tensor], axis: int = 1) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.values for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit(out, tuple(ts), bw)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    return _emit(a.values.reshape(shape), (a,), lambda g: (g.reshape(old),))


def clip_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    a = as_tensor(a)
    av = a.values
    out = np.maximum(av, floor)

    def bw(g):
        return (g * (av > floor),)

    return _emit(out, (a,), bw)


def detach(a) -> Tensor:
    return as_tensor(a).detach()


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor, tape: Tape | None = None) -> None:
    """Propagate d(loss)/d(x) into ``.grad`` of every reachable tensor.

    The seed gradient is 1.0.  Raises if the loss is not scalar, the tape is
    empty, or any leaf parameter ends up with a non-finite gradient.
    """
    tape = tape or active_tape()
    if tape is None or not tape.records:
        raise GradientError("backward requires a non-empty tape")
    if loss.values.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")

    loss.grad = np.ones_like(loss.values)
    leaves: dict[int, Tensor] = {}
    for record in reversed(tape.records):
        g_out = record.out.grad
        if g_out is None:
            continue
        grads = record.backward_fn(g_out)
        for t, g in zip(record.inputs, grads):
            if not t.requires_grad:
                continue
            # grad buffers are only ever replaced, never written in place,
            # so sharing the incoming array on first assignment is safe
            t.grad = g if t.grad is None else t.grad + g
            if t.is_leaf:
                leaves[id(t)] = t

    for t in leaves.values():
        if t.grad is not None and not np.isfinite(t.grad).all():
            label = t.name or f"tensor{t.shape}"
            raise GradientError(f"non-finite gradient for parameter {label}")


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam over a name -> Tensor parameter mapping.

    ``step`` applies the bias-corrected update in place, advances the moment
    buffers and zeroes the gradients.  A non-finite gradient aborts with the
    offending parameter's name.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.values) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.values) for k, p in self.params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise OptimizerError(f"non-finite gradient for parameter {name}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.values -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
            p.grad = None

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
