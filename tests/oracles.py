"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (loops, dense matrices, enumeration)
and shares no code with the implementations under test.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from rgtrec import tensor as T


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += float(a[i, t]) * float(b[t, j])
            out[i, j] = acc
    return out


def finite_difference_grad(f, param: T.Tensor, h: float = 1e-5,
                           max_components: int | None = None,
                           rng: np.random.Generator | None = None):
    """Central-difference gradient of the scalar ``f()`` w.r.t. ``param``.

    Returns (indices, numeric gradient at those flat indices).  ``f`` must
    rebuild the computation from ``param.values`` on every call.
    """
    flat = param.values.reshape(-1)
    idx = np.arange(flat.size)
    if max_components is not None and flat.size > max_components:
        rng = rng or np.random.default_rng(0)
        idx = rng.choice(flat.size, size=max_components, replace=False)
        idx.sort()
    grads = np.zeros(len(idx), dtype=np.float64)
    for pos, i in enumerate(idx):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        grads[pos] = (up - down) / (2.0 * h)
    return idx, grads


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / scale)) if analytic.size else 0.0


def check_gradients(build_loss, params: dict[str, T.Tensor], h: float = 1e-5,
                    tol: float = 1e-4, max_components: int | None = 64,
                    rng: np.random.Generator | None = None) -> float:
    """Compare taped gradients of ``build_loss()`` against central differences.

    ``build_loss`` constructs the scalar loss tensor from the live parameter
    tensors; it is re-run under a fresh tape for the analytic pass and re-run
    (value only) for each perturbation.
    """
    for p in params.values():
        p.grad = None
    with T.Tape() as tape:
        loss = build_loss()
        T.backward(loss, tape)
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.values))
                for k, p in params.items()}

    def value():
        return float(build_loss().values.reshape(()))

    worst = 0.0
    for k, p in params.items():
        idx, numeric = finite_difference_grad(value, p, h=h, max_components=max_components, rng=rng)
        err = max_rel_err(analytic[k].reshape(-1)[idx], numeric)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch for {k}: rel err {err:.3e} >= {tol}"
    return worst


def per_head_light_self_attention(h_in: T.Tensor, g, params) -> T.Tensor:
    """Light self-attention as one loop over heads (the unfused layout).

    Head h uses rows ``h * head_dim:(h + 1) * head_dim`` of the fused
    ``wq``/``wk``/``wv`` matrices, gathered per slot and normalized with a
    composed per-segment softmax; head outputs are concatenated by column.
    Built from elementwise tape ops only, not from the graph kernels.
    """
    src = np.repeat(np.arange(g.num_nodes), np.diff(g.csr_offsets))
    dst = g.csr_neighbors
    dh = params.head_dim
    head_outputs = []
    for hd in range(params.heads):
        rows = np.arange(hd * dh, (hd + 1) * dh)
        q = T.matmul(h_in, T.transpose(T.take(params.wq, rows)))
        k = T.matmul(h_in, T.transpose(T.take(params.wk, rows)))
        v = T.matmul(h_in, T.transpose(T.take(params.wv, rows)))
        raw = T.mul(T.tsum(T.mul(T.take(q, src), T.take(k, dst)), axis=1), 1.0 / np.sqrt(dh))
        seg_max = np.full(g.num_nodes, -np.inf)
        np.maximum.at(seg_max, src, raw.values)
        e = T.exp(T.sub(raw, T.Tensor(seg_max[src], dtype=raw.dtype)))
        alpha = T.div(e, T.take(T.segment_sum(e, src, g.num_nodes), src))
        weighted = T.mul(T.take(v, dst), T.reshape(alpha, (-1, 1)))
        head_outputs.append(T.segment_sum(weighted, src, g.num_nodes))
    stacked = T.concat(head_outputs, axis=1) if len(head_outputs) > 1 else head_outputs[0]
    return T.matmul(stacked, T.transpose(params.wo))


def bfs_distances(num_nodes: int, neighbors: dict[int, list[int]], source: int,
                  cutoff: int | None = None) -> np.ndarray:
    """Unweighted single-source shortest hop distances (inf beyond cutoff)."""
    dist = np.full(num_nodes, np.inf)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if cutoff is not None and dist[u] >= cutoff:
            continue
        for v in neighbors.get(u, ()):
            if dist[v] == np.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def dense_sym_norm_adjacency(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """Dense D^-1/2 A D^-1/2 with identity rows for isolated nodes."""
    a = np.zeros((num_nodes, num_nodes), dtype=np.float64)
    for k, k2 in edges:
        a[k, k2] = 1.0
        a[k2, k] = 1.0
    deg = a.sum(axis=1)
    norm = np.zeros_like(a)
    for i in range(num_nodes):
        if deg[i] == 0:
            norm[i, i] = 1.0
            continue
        for j in range(num_nodes):
            if a[i, j]:
                norm[i, j] = 1.0 / math.sqrt(deg[i] * deg[j])
    return norm


def plackett_luce_topk_inclusion(weights: np.ndarray, k: int) -> np.ndarray:
    """Exact inclusion probabilities of weighted top-k draws without replacement.

    Enumerates all orderings (factorial; use only for tiny inputs).
    """
    import itertools

    n = len(weights)
    w = np.asarray(weights, dtype=np.float64)
    inclusion = np.zeros(n)
    for perm in itertools.permutations(range(n)):
        prob = 1.0
        remaining = w.sum()
        for pos in range(n):
            prob *= w[perm[pos]] / remaining
            remaining -= w[perm[pos]]
        for pos in range(k):
            inclusion[perm[pos]] += prob
    return inclusion
