"""Dense-array reverse-mode autodiff substrate.

A ``Tensor`` wraps a numpy array.  Operations executed while a ``Tape`` is
active append records of the primitive and its saved inputs; ``backward``
replays the tape in reverse creation order (which is a reverse topological
order for define-by-run graphs), visiting each record exactly once, and
returns the gradients of the leaves as a map keyed by tensor.

Tensors are immutable after creation except for in-place optimizer updates,
and a tape is confined to a single thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import platform
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

# glibc raises its mmap threshold to each mmapped block it frees, so whether a
# large array came from mmap or the heap, and with it peak RSS, varied between
# runs.  Fix M_MMAP_THRESHOLD (-3) at 32 MiB and M_TRIM_THRESHOLD (-1) at 64 MiB.
if platform.libc_ver()[0] == "glibc":
    for _param, _bytes in ((-3, 32 << 20), (-1, 64 << 20)):
        ctypes.CDLL(None).mallopt(_param, _bytes)


class ShapeMismatchError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


@contextlib.contextmanager
def using_dtype(dtype):
    """Refuse a dtype other than float32 or float64; do nothing else, as a
    tensor's dtype is its data's.  It stays only because perfbench/run.py
    calls it, as ``train_epoch``'s unused ``positives`` keyword does."""
    if np.dtype(dtype) not in _FLOATS:
        raise ValueError(f"unsupported dtype {np.dtype(dtype)}; use float32 or float64")
    yield


class Tensor:
    """A numpy array, hashed by identity so it can key a gradient map.

    The dtype is the data's when that is float32 or float64; any other data
    becomes float64.  ``requires_grad`` marks leaves (parameters) whose
    gradients ``backward`` returns.  Tensors produced by operations inherit
    ``requires_grad`` from their inputs and are recorded on the active tape
    when one exists.
    """

    __slots__ = ("values", "requires_grad")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        values = np.asarray(values, dtype=dtype)
        self.values = values if values.dtype in _FLOATS else values.astype(np.float64)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def detach(self) -> "Tensor":
        """Constant copy of this tensor; no gradient flows through it."""
        return Tensor(self.values.copy())


def parameter(values, dtype=None) -> Tensor:
    """A learnable leaf tensor owning a private copy of ``values`` in ``dtype``
    (by default the dtype of ``values``)."""
    return Tensor(np.array(values, dtype=dtype), requires_grad=True)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; one that is not a tensor, such as a number,
    takes the other's dtype, so ``mul(x32, 0.1)`` is float32."""
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(a, dtype=b.dtype), b
    a = as_tensor(a)
    return a, b if isinstance(b, Tensor) else Tensor(b, dtype=a.dtype)


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
    out = Tensor(out_values, requires_grad=requires)
    tape = active_tape()
    if requires and tape is not None:
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
    a, b = _operands(a, b)
    out = a.values + b.values

    def bw(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.values - b.values

    def bw(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.values * b.values
    av, bv = a.values, b.values

    def bw(g):
        return (_unbroadcast(g * bv, a.shape) if a.requires_grad else None,
                _unbroadcast(g * av, b.shape) if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.values / b.values
    av, bv = a.values, b.values

    def bw(g):
        return (_unbroadcast(g / bv, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * av / (bv * bv), b.shape) if b.requires_grad else None)

    return _emit(out, (a, b), bw)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _emit(-a.values, (a,), lambda g: (-g,))


def linear(x, w) -> Tensor:
    """``x @ w.T`` for ``x`` (rows, in) and ``w`` (out, in), without copying
    ``w``; gradients flow to both operands."""
    x, w = as_tensor(x), as_tensor(w)
    if x.values.ndim != 2 or w.values.ndim != 2:
        raise ShapeMismatchError(f"linear expects 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeMismatchError(f"linear inner dimensions do not match: {x.shape} x {w.shape}.T")
    xv, wv = x.values, w.values

    def bw(g):
        return (g @ wv if x.requires_grad else None,
                g.T @ xv if w.requires_grad else None)

    return _emit(xv @ wv.T, (x, w), bw)


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
    av = a.values
    return _emit(av * av, (a,), lambda g: (g * (2 * av),))


def take(a, idx) -> Tensor:
    """Select rows (axis 0) of ``a`` by integer index; repeated rows accumulate grads."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = a.values[idx]
    rows = a.shape[0]
    trailing = a.shape[1:]

    def bw(g):
        if not trailing:
            return (np.bincount(idx, weights=g, minlength=rows).astype(g.dtype, copy=False),)
        scatter = sp.csr_matrix(
            (np.ones(len(idx), dtype=g.dtype), (idx, np.arange(len(idx)))),
            shape=(rows, len(idx)))
        return (np.asarray(scatter @ g.reshape(len(idx), -1)).reshape((rows,) + trailing),)

    return _emit(out, (a,), bw)


# Graph kernels.  ``g`` is a CSR graph (``data.BipartiteGraph``): node n's
# directed slots are ``csr_offsets[n]:csr_offsets[n + 1]``, slot s runs from
# ``directed_src[s]`` to ``csr_neighbors[s]``.  A dense operand of width
# ``heads * head_dim`` holds head h in columns ``h * head_dim:(h + 1) * head_dim``.
# The sparse structures are built once per graph and kept on it
# (``BipartiteGraph.operator``).


def _check_node_table(g, x: np.ndarray, heads: int, what: str) -> None:
    if x.ndim != 2 or x.shape[0] != g.num_nodes or x.shape[1] % heads:
        raise ShapeMismatchError(
            f"{what}: expected ({g.num_nodes}, a multiple of {heads} heads), got {x.shape}")


_SLOT_BLOCK = 4096  # slots gathered at a time by _slot_dots


def _slot_dots(a: np.ndarray, b: np.ndarray, g, heads: int) -> np.ndarray:
    """Per-head <a[src(s)], b[dst(s)]> for every slot s: shape (num_slots, heads).
    The slot rows are gathered and reduced ``_SLOT_BLOCK`` slots at a time, so
    no (num_slots, width) gather is made."""
    num_slots, width = len(g.csr_neighbors), a.shape[1] // heads
    out = np.empty((num_slots, heads), dtype=np.result_type(a.dtype, b.dtype))
    for lo in range(0, num_slots, _SLOT_BLOCK):
        src, dst = g.directed_src[lo:lo + _SLOT_BLOCK], g.csr_neighbors[lo:lo + _SLOT_BLOCK]
        shape = (len(src), heads, width)
        np.einsum("shd,shd->sh", np.take(a, src, axis=0).reshape(shape),
                  np.take(b, dst, axis=0).reshape(shape), out=out[lo:lo + len(src)])
    return out


def _heads_layout(g, heads: int):
    """``(indptr, indices, order)`` of ``g``'s all-heads operator ``kron(A, I_heads)``:
    row ``n * heads + h`` holds node n's slots in slot order, at columns ``dst * heads + h``.
    ``A`` stores slot id + 1 on each slot (a graph's edges are distinct, so no
    slots merge); ``order``, from that data cast to intp (an edgeless graph gives
    an empty float matrix), gathers a (num_slots, heads) weight table into it."""
    a = sp.csr_matrix((np.arange(1, len(g.csr_neighbors) + 1), g.csr_neighbors, g.csr_offsets),
                      shape=(g.num_nodes, g.num_nodes))
    op = sp.kron(a, sp.identity(heads, dtype=np.int64), format="csr")
    return op.indptr, op.indices, (op.data.astype(np.intp) - 1) * heads + op.indices % heads


def _heads_op(w: np.ndarray, g) -> sp.csr_matrix:
    """The (num_nodes * heads, num_nodes * heads) CSR operator of the slot
    weights ``w`` (num_slots, heads): row ``n * heads + h`` is node n's slots
    with head h's weights.  Its structure is built once per graph; scipy
    gave it int32 indices where they fit, so no call copies them."""
    heads = w.shape[1]
    indptr, indices, order = g.operator(("heads", heads), lambda g: _heads_layout(g, heads))
    return sp.csr_matrix((np.take(w, order), indices, indptr), shape=(g.num_nodes * heads,) * 2)


def _apply_heads(op, x: np.ndarray) -> np.ndarray:
    """Every head of ``op`` on its column block of the (num_nodes, heads *
    head_dim) table ``x``, in one product over its (num_nodes * heads,
    head_dim) view."""
    return (op @ x.reshape(op.shape[1], -1)).reshape(x.shape[0], -1)


def _slot_sum_op(g, dtype) -> sp.csr_matrix:
    rows = len(g.csr_neighbors)
    return sp.csr_matrix((np.ones(rows, dtype=dtype), np.arange(rows), g.csr_offsets),
                         shape=(g.num_nodes, rows))


def _node_sums(v: np.ndarray, g) -> np.ndarray:
    """Sum of each node's CSR slot rows of the 2-D ``v``, added in slot order,
    by one product with the graph's cached slot-sum operator (``indptr`` the
    graph's offsets, ``indices`` the slot ids) in ``v``'s own dtype."""
    return g.operator(("slot_sums", v.dtype), lambda g: _slot_sum_op(g, v.dtype)) @ v


def segment_softmax(scores, g) -> Tensor:
    """Softmax of ``scores`` over each node's CSR slots of ``g``, per column.

    ``scores`` is 2-D: one row per directed slot, one column per head.
    Stabilized by subtracting each node's maximum (a constant, which leaves
    both the value and the gradient of the softmax unchanged), taken with
    ``np.maximum.reduceat`` over the offsets of the non-empty rows.  A node
    without slots simply produces no outputs.
    """
    scores = as_tensor(scores)
    sv = scores.values
    if sv.ndim != 2 or sv.shape[0] != len(g.csr_neighbors):
        raise ShapeMismatchError(
            f"segment_softmax: expected ({len(g.csr_neighbors)} slots, heads) scores, "
            f"got {sv.shape}")
    counts = np.diff(g.csr_offsets)
    filled = counts > 0
    row_max = np.maximum.reduceat(sv, g.csr_offsets[:-1][filled], axis=0)
    e = np.exp(sv - np.repeat(row_max, counts[filled], axis=0))
    src = g.directed_src
    out = e / _node_sums(e, g)[src]

    def bw(grad):
        return (out * (grad - _node_sums(grad * out, g)[src]),)

    return _emit(out, (scores,), bw)


def edge_dot(q, k, g, heads: int) -> Tensor:
    """Sampled dense-dense product (SDDMM) over the directed slots of ``g``.

    Returns (num_slots, heads): per head, the dot product of the slot
    source's block of ``q`` with the slot destination's block of ``k``.  The
    backward forms the all-heads operator of the incoming gradient and
    multiplies it into ``k`` and (transposed) into ``q``, every head in one
    product; all heads share one tape record.
    """
    q, k = as_tensor(q), as_tensor(k)
    _check_node_table(g, q.values, heads, "edge_dot q")
    if k.shape != q.shape:
        raise ShapeMismatchError(f"edge_dot: q {q.shape} vs k {k.shape}")
    qv, kv = q.values, k.values
    out = _slot_dots(qv, kv, g, heads)

    def bw(grad):
        op = _heads_op(grad, g)
        return (_apply_heads(op, kv) if q.requires_grad else None,
                _apply_heads(op.T, qv) if k.requires_grad else None)

    return _emit(out, (q, k), bw)


def edge_spmm(w, x, g, heads: int) -> Tensor:
    """Weighted neighbour sums (SpMM) over ``g``, one weight column per head.

    ``w`` is (num_slots, heads).  Row n, head block h of the output is the
    sum over n's slots s of ``w[s, h] * x[dst(s), block h]``; a node without
    neighbours gets a zero row.  Every head is applied in one product with the
    all-heads operator ``op``.  The backward is ``op.T @ grad`` for ``x``
    and, only when ``w`` requires a gradient, the per-slot dot products
    ``<grad[src(s)], x[dst(s)]>`` per head.  All heads share one tape record.
    """
    w, x = as_tensor(w), as_tensor(x)
    _check_node_table(g, x.values, heads, "edge_spmm x")
    if w.shape != (len(g.csr_neighbors), heads):
        raise ShapeMismatchError(
            f"edge_spmm: expected weights ({len(g.csr_neighbors)}, {heads}), got {w.shape}")
    xv = x.values
    op = _heads_op(w.values, g)
    out = _apply_heads(op, xv)

    def bw(grad):
        return (_slot_dots(grad, xv, g, heads) if w.requires_grad else None,
                _apply_heads(op.T, grad) if x.requires_grad else None)

    return _emit(out, (w, x), bw)


# Fused layers.  Each is one tape record that saves only what its backward
# reads, in place of a chain of the ops above that would keep every
# intermediate table until ``backward``.


def layer_mean(op, x, num_layers: int) -> Tensor:
    """``(x + op x + ... + op^L x) / (L + 1)`` for a constant operator ``op``
    (sparse or dense) and ``L = num_layers``, the layers added in order.  The
    record saves only ``op``: the backward runs ``d = g / (L + 1)``, then L
    times ``d = g / (L + 1) + op.T @ d``."""
    x = as_tensor(x)
    count = num_layers + 1
    s = x.values
    out = s.copy()
    for _ in range(num_layers):
        s = op @ s
        out += s
    out /= count

    def bw(g):
        top = g / count
        d = top
        for _ in range(num_layers):
            d = top + op.T @ d
        return (d,)

    return _emit(out, (x,), bw)


def anchor_layer(h, w, anchors: np.ndarray, own: np.ndarray, mix: np.ndarray) -> Tensor:
    """``[own * h | mix @ h[anchors]] @ w.T`` for a node table ``h`` (nodes, d)
    and ``w = [w_own | w_mix]`` (out, 2 d), reassociated as ``own * (h @
    w_own.T) + mix @ (h[anchors] @ w_mix.T)`` so no (nodes, 2 d) table is made.
    ``own`` (nodes, 1) and ``mix`` (nodes, anchors) are constants in ``h``'s
    dtype, and the anchors are distinct, so the backward adds the anchor rows'
    gradient into ``dh[anchors]`` exactly.  The record saves ``h`` and
    ``h[anchors]``."""
    h, w = as_tensor(h), as_tensor(w)
    hv, wv = h.values, w.values
    d = hv.shape[1]
    h_anchor = hv[anchors]
    w_own, w_mix = wv[:, :d], wv[:, d:]
    out = own * (hv @ w_own.T)
    out += mix @ (h_anchor @ w_mix.T)

    def bw(g):
        g_own = own * g
        g_anchor = mix.T @ g
        dh = dw = None
        if h.requires_grad:
            dh = g_own @ w_own
            dh[anchors] += g_anchor @ w_mix
        if w.requires_grad:
            dw = np.concatenate([g_own.T @ hv, g_anchor.T @ h_anchor], axis=1)
        return dh, dw

    return _emit(out, (h, w), bw)


_CE_ROWS = 256  # users per block of softmax_cross_entropy, as evaluation._CHUNK


def softmax_cross_entropy(u, c, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Mean over pairs j of ``logsumexp(u[rows[j]] @ c.T) - u[rows[j]] @
    c[cols[j]]``: each pair's target column against every candidate row of
    ``c`` (candidates, d), with one score row per row of ``u`` (users, d).
    There must be at least one pair and one candidate.

    One record takes the users ``_CE_ROWS`` rows at a time; nothing of size
    users x candidates outlives a block.  A block's scores ``S = U_b Cᵀ`` give
    its rows' log-sum-exp and its pairs' target scores, kept in pair order.
    The loss is a scalar, so, as in Cut Cross-Entropy (arXiv 2411.09009), a
    recorded call then turns S in place into ``D = (count * softmax(S) -
    onehot) / n`` (``count`` the pairs of each row of ``u``, n the pairs)
    and writes ``D C`` into ``du`` and adds ``Dᵀ U_b`` into ``dc``, the only
    tables the record keeps; its backward scales them by the seed gradient.
    """
    u, c = as_tensor(u), as_tensor(c)
    uv, cv = u.values, c.values
    dtype = np.result_type(uv.dtype, cv.dtype)
    n = len(rows)
    count = np.bincount(rows, minlength=len(uv))
    record = (u.requires_grad or c.requires_grad) and active_tape() is not None
    du = np.empty(uv.shape, dtype) if record and u.requires_grad else None
    dc = np.zeros(cv.shape, dtype) if record and c.requires_grad else None
    lse = np.empty(len(uv), dtype)
    target = np.empty(n, dtype)
    by_row = np.argsort(rows, kind="stable")
    sorted_rows = rows[by_row]
    block = np.empty((min(len(uv), _CE_ROWS), len(cv)), dtype)
    for lo in range(0, len(uv), _CE_ROWS):
        users = slice(lo, lo + _CE_ROWS)
        ub = uv[users]
        first, last = np.searchsorted(sorted_rows, (lo, lo + _CE_ROWS))
        pairs = by_row[first:last]
        at = (rows[pairs] - lo, cols[pairs])
        s = np.matmul(ub, cv.T, out=block[:len(ub)])
        target[pairs] = s[at]
        row_max = s.max(axis=1, keepdims=True)
        s -= row_max
        np.exp(s, out=s)
        sums = s.sum(axis=1, keepdims=True)
        lse[users] = np.log(sums[:, 0]) + row_max[:, 0]
        if not record:
            continue
        s *= (count[users, None] / n / sums).astype(dtype, copy=False)
        np.subtract.at(s, at, dtype.type(1.0 / n))
        if du is not None:
            np.matmul(s, cv, out=du[users])
        if dc is not None:
            dc += s.T @ ub

    def bw(g):
        return (g * du if du is not None else None, g * dc if dc is not None else None)

    return _emit((lse[rows] - target).sum() / n, (u, c), bw)


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


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """d(loss)/d(x) for every leaf x on ``tape`` that the loss reaches.

    The seed gradient is 1.0.  An op output's gradient leaves the map when
    its record passes it on, so intermediate gradients are freed during the
    pass and the map returned holds only leaves.  A tensor's second gradient
    allocates the sum; its third and later ones are added into that buffer
    with ``+=``.  An array that a ``backward_fn`` returned is never written,
    because it can be shared (``add`` hands one gradient to both operands) or
    be a read-only ``broadcast_to`` view.  Raises ValueError if the tape is
    empty or the loss is not scalar.
    """
    if not tape.records:
        raise ValueError("backward requires a non-empty tape")
    if loss.values.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")

    grads = {loss: np.ones_like(loss.values)}
    owned: set[Tensor] = set()  # tensors whose entry is a sum allocated here
    for record in reversed(tape.records):
        g_out = grads.pop(record.out, None)
        if g_out is None:
            continue
        owned.discard(record.out)
        for t, g in zip(record.inputs, record.backward_fn(g_out)):
            if not t.requires_grad:
                continue
            total = grads.get(t)
            if total is None:
                grads[t] = g
            elif t in owned and total.dtype == g.dtype and total.shape == g.shape:
                total += g
            else:
                grads[t] = total = total + g
                if total.ndim:  # a 0-d sum comes back as an immutable numpy scalar
                    owned.add(t)
    return grads


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam over a name -> Tensor parameter mapping."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.values) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.values) for k, p in self.params.items()}

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        """Apply one bias-corrected update, in place, to every parameter that
        has a gradient in ``grads`` (the map ``backward`` returns).  All or
        nothing: a non-finite gradient raises FloatingPointError naming its
        parameter before any parameter or moment changes."""
        todo = [(name, p, grads[p]) for name, p in self.params.items() if p in grads]
        for name, _, g in todo:
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient for parameter {name}")
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p, g in todo:
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p.values -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.EPS)
