"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive (loops, dense matrices, enumeration)
and shares no code with the implementations under test.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import scipy.sparse as sp

from rgtrec import tensor as T
from rgtrec.data import TEST, TRAIN, VAL
from rgtrec.seeding import substream


def neighbors(g, node: int) -> np.ndarray:
    """Node ids of ``node``'s neighbours: its row of the graph's CSR arrays."""
    return g.csr_neighbors[g.csr_offsets[node]:g.csr_offsets[node + 1]]


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
    """The worst entry's error over the largest ``|entry|`` of either gradient
    (floored at 1e-8), so the bound is relative to the gradient's own size."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if not analytic.size:
        return 0.0
    scale = max(1e-8, np.abs(analytic).max(), np.abs(numeric).max())
    return float(np.abs(analytic - numeric).max() / scale)


def check_gradients(build_loss, params: dict[str, T.Tensor], h: float = 1e-5,
                    tol: float = 1e-4, max_components: int | None = 64,
                    rng: np.random.Generator | None = None) -> float:
    """Compare taped gradients of ``build_loss()`` against central differences.

    ``build_loss`` constructs the scalar loss tensor from the live parameter
    tensors; it is re-run under a fresh tape for the analytic pass and re-run
    (value only) for each perturbation.
    """
    with T.Tape() as tape:
        grads = T.backward(build_loss(), tape)
    analytic = {k: (grads[p].copy() if p in grads else np.zeros_like(p.values))
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
    Built from elementwise tape ops only, not from the graph kernels; the
    per-node sums are ``T.spmm`` products with a dense one-hot (node, slot)
    matrix.
    """
    src = np.repeat(np.arange(g.num_nodes), np.diff(g.csr_offsets))
    dst = g.csr_neighbors
    scatter = (src[None, :] == np.arange(g.num_nodes)[:, None]).astype(h_in.dtype)
    dh = params.head_dim
    head_outputs = []
    for hd in range(params.heads):
        rows = np.arange(hd * dh, (hd + 1) * dh)
        q = T.linear(h_in, T.take(params.wq, rows))
        k = T.linear(h_in, T.take(params.wk, rows))
        v = T.linear(h_in, T.take(params.wv, rows))
        raw = T.mul(T.tsum(T.mul(T.take(q, src), T.take(k, dst)), axis=1), 1.0 / np.sqrt(dh))
        seg_max = np.full(g.num_nodes, -np.inf)
        np.maximum.at(seg_max, src, raw.values)
        e = T.exp(T.sub(raw, T.Tensor(seg_max[src], dtype=raw.dtype)))
        sums = T.spmm(scatter, e)
        alpha = T.div(e, T.take(sums, src))
        weighted = T.mul(T.take(v, dst), T.reshape(alpha, (-1, 1)))
        head_outputs.append(T.spmm(scatter, weighted))
    stacked = T.concat(head_outputs, axis=1) if len(head_outputs) > 1 else head_outputs[0]
    return T.linear(stacked, params.wo)


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


def segment_softmax(scores, idx, num: int) -> T.Tensor:
    """Softmax of ``scores`` within the segments given by ``idx``, per
    column, as a taped op.

    The generic form that ``tensor.segment_softmax`` specializes to a graph's
    CSR rows, kept as the reference that op must equal bit for bit.
    ``scores`` is 1-D, or 2-D with one column per head; the rows sharing an
    ``idx`` entry form one segment.  Stabilized by subtracting the
    per-segment maximum.  Segments with no entries produce no outputs.
    """
    scores = T.as_tensor(scores)
    idx = np.asarray(idx, dtype=np.intp)
    sv = scores.values
    seg_max = np.full((num,) + sv.shape[1:], -np.inf, dtype=sv.dtype)
    np.maximum.at(seg_max, idx, sv)
    e = np.exp(sv - seg_max[idx])
    out = e / _scatter_rows(idx, e, num)[idx]

    def bw(g):
        inner = _scatter_rows(idx, g * out, num)
        return (out * (g - inner[idx]),)

    return T._emit(out, (scores,), bw)


def _slot_dots(a: np.ndarray, b: np.ndarray, g, heads: int) -> np.ndarray:
    """(num_slots, heads): per head, <a[src(s)] block, b[dst(s)] block>."""
    shape = (len(g.csr_neighbors), heads, a.shape[1] // heads)
    return np.einsum("shd,shd->sh", a[g.directed_src].reshape(shape),
                     b[g.csr_neighbors].reshape(shape))


def _per_head_ops(w: np.ndarray, g) -> list:
    """One (num_nodes, num_nodes) CSR matrix per column of the slot weights."""
    n = g.num_nodes
    return [sp.csr_matrix((col, g.csr_neighbors, g.csr_offsets), shape=(n, n))
            for col in np.ascontiguousarray(w.T)]


def _per_head_apply(ops: list, x: np.ndarray) -> np.ndarray:
    """op_h @ x[:, head h] for every head, one product per head, side by side."""
    if len(ops) == 1:
        return ops[0] @ x
    width = x.shape[1] // len(ops)
    out = np.empty((ops[0].shape[0], x.shape[1]), dtype=np.result_type(ops[0].dtype, x.dtype))
    for h, op in enumerate(ops):
        cols = slice(h * width, (h + 1) * width)
        out[:, cols] = op @ x[:, cols]
    return out


def per_head_edge_dot(q, k, g, heads: int) -> T.Tensor:
    """``tensor.edge_dot`` with a backward of one CSR product per head: the
    reference the all-heads operator must equal bit for bit."""
    q, k = T.as_tensor(q), T.as_tensor(k)
    qv, kv = q.values, k.values

    def bw(grad):
        ops = _per_head_ops(grad, g)
        return (_per_head_apply(ops, kv) if q.requires_grad else None,
                _per_head_apply([op.T for op in ops], qv) if k.requires_grad else None)

    return T._emit(_slot_dots(qv, kv, g, heads), (q, k), bw)


def per_head_edge_spmm(w, x, g, heads: int) -> T.Tensor:
    """``tensor.edge_spmm`` as one CSR product per head, forward and backward."""
    w, x = T.as_tensor(w), T.as_tensor(x)
    xv = x.values
    ops = _per_head_ops(w.values, g)

    def bw(grad):
        return (_slot_dots(grad, xv, g, heads) if w.requires_grad else None,
                _per_head_apply([op.T for op in ops], grad) if x.requires_grad else None)

    return T._emit(_per_head_apply(ops, xv), (w, x), bw)


def keep_mask_lightgcn(g, s0: T.Tensor, num_layers: int) -> T.Tensor:
    """LightGCN as a weighted neighbour sum plus ``keep * s``, where ``keep``
    is 1 on zero-degree nodes and 0 elsewhere: three records per layer, the
    reference for the one-product layer with self-loops."""
    deg = g.degree.astype(np.float64)
    beta = T.Tensor((1.0 / np.sqrt(deg[g.directed_src] * deg[g.csr_neighbors])).reshape(-1, 1),
                    dtype=s0.dtype)
    keep = T.Tensor((g.degree == 0).astype(s0.dtype).reshape(-1, 1), dtype=s0.dtype)
    layers = [s0]
    s = s0
    for _ in range(num_layers):
        s = T.add(per_head_edge_spmm(beta, s, g, 1), T.mul(keep, s))
        layers.append(s)
    out = layers[0]
    for layer in layers[1:]:
        out = T.add(out, layer)
    return T.div(out, float(len(layers)))


def per_pair_loss_rec(s: T.Tensor, batch_pairs: np.ndarray,
                      candidate_item_nodes: np.ndarray) -> T.Tensor:
    """The recommendation loss with one candidate score row per (user,
    positive) pair, so a user with several positives is scored once per pair."""
    users, positives = batch_pairs[:, 0], batch_pairs[:, 1]
    cands = T.take(s, candidate_item_nodes)
    lse = T.logsumexp_rows(T.linear(T.take(s, users), cands))
    pos = T.tsum(T.mul(T.take(s, users), T.take(s, positives)), axis=1)
    return T.tmean(T.sub(lse, pos))


def score_all_items(s: np.ndarray, user: int, train_items: np.ndarray,
                    num_users: int) -> np.ndarray:
    """Dot-product scores of one user against every item; train items -> -inf."""
    num_items = s.shape[0] - num_users
    scores = s[num_users:] @ s[user]
    assert scores.shape == (num_items,)
    scores = scores.copy()
    scores[train_items] = -np.inf
    return scores


def rank_items(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k item indices by score, ties broken by ascending item id."""
    order = np.argsort(-scores, kind="stable")
    return order[:k]


def recall_at_k(topk: np.ndarray, relevant: set, k: int) -> float:
    """Share of ``relevant`` found in the first ``k`` items of a ranking."""
    if not relevant:
        raise ValueError("recall needs at least one relevant item")
    hits = sum(1 for item in topk[:k] if int(item) in relevant)
    return hits / len(relevant)


def ndcg_at_k(topk: np.ndarray, relevant: set, k: int) -> float:
    """DCG of the first ``k`` items over the DCG of a perfect ranking."""
    if not relevant:
        raise ValueError("ndcg needs at least one relevant item")
    dcg = sum(1.0 / np.log2(r + 2) for r, item in enumerate(topk[:k])
              if int(item) in relevant)
    ideal = sum(1.0 / np.log2(r + 2) for r in range(min(k, len(relevant))))
    return dcg / ideal


def per_user_evaluate(s: np.ndarray, ds, split: int, ks: tuple[int, ...]):
    """All-rank evaluation one user at a time: a full stable argsort of each
    user's scores and the set-based Recall@K / NDCG@K formulas.

    Returns ``(user_ids, topk, recall, ndcg)`` laid out as ``RankingResult``.
    """
    max_k = min(max(ks), ds.num_items)
    train_items = ds.positives_by_user(TRAIN)
    relevant_items = ds.positives_by_user(split)
    users = np.array([u for u in range(ds.num_users) if len(relevant_items[u])],
                     dtype=np.int64)
    topk = np.zeros((len(users), max_k), dtype=np.int64)
    recall = {k: np.zeros(len(users)) for k in ks}
    ndcg = {k: np.zeros(len(users)) for k in ks}
    for row, u in enumerate(users):
        order = rank_items(score_all_items(s, u, train_items[u], ds.num_users), max_k)
        topk[row] = order
        relevant = set(int(i) for i in relevant_items[u])
        for k in ks:
            hits = [int(item) in relevant for item in order[:k]]
            recall[k][row] = sum(hits) / len(relevant)
            dcg = sum(1.0 / math.log2(r + 2) for r, hit in enumerate(hits) if hit)
            ideal = sum(1.0 / math.log2(r + 2) for r in range(min(k, len(relevant))))
            ndcg[k][row] = dcg / ideal
    return users, topk, recall, ndcg


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


def per_user_lists_split(ds, ratios, seed: int) -> np.ndarray:
    """``data.split``'s assignment built row by row: each user's rows are
    collected into a list in row order, shuffled with the user's own
    ``substream(seed, "split", u)`` and cut by a largest-remainder
    allocation, with one train row kept for users of fewer than three rows."""
    by_user: dict[int, list[int]] = {}
    for row, (u, _) in enumerate(ds.interactions):
        by_user.setdefault(int(u), []).append(row)
    out = np.empty(ds.num_interactions, dtype=np.int8)
    for u, rows in by_user.items():
        rows = np.asarray(rows)
        substream(seed, "split", u).shuffle(rows)
        n = len(rows)
        quotas = [n * r for r in ratios]
        counts = [int(q) for q in quotas]
        by_remainder = sorted(range(3), key=lambda b: quotas[b] - counts[b], reverse=True)
        for b in by_remainder[:n - sum(counts)]:
            counts[b] += 1
        if n < 3 and counts[0] == 0:
            counts[2 if counts[2] >= counts[1] else 1] -= 1
            counts[0] += 1
        out[rows[:counts[0]]] = TRAIN
        out[rows[counts[0]:counts[0] + counts[1]]] = VAL
        out[rows[counts[0] + counts[1]:]] = TEST
    return out


def rejection_non_neighbors(g, user_nodes: np.ndarray, rng: np.random.Generator,
                            max_tries: int = 200) -> np.ndarray:
    """One item node per user node that the user has no edge to, by drawing
    uniform item nodes until one is not a neighbour (at most ``max_tries``)."""
    lo, hi = g.num_users, g.num_users + g.num_items
    out = np.empty(len(user_nodes), dtype=np.int64)
    for j, user in enumerate(user_nodes.tolist()):
        taken = set(neighbors(g, user).tolist())
        for _ in range(max_tries):
            cand = int(rng.integers(lo, hi))
            if cand not in taken:
                out[j] = cand
                break
        else:
            raise ValueError(f"no non-neighbour of user node {user} in {max_tries} draws")
    return out


def rejection_negative_sample(ds, batch_users: np.ndarray,
                              rng: np.random.Generator) -> np.ndarray:
    """(user, positive item node, negative item node) triples, one user at a
    time: a uniform train item, then uniform items until one is not a train
    item.  Users with no or every train item are skipped."""
    positives = ds.positives_by_user(TRAIN)
    triples = []
    for u in batch_users.tolist():
        items = positives[u]
        if len(items) == 0 or len(items) >= ds.num_items:
            continue
        pos = int(items[rng.integers(len(items))])
        taken = set(items.tolist())
        while True:
            neg = int(rng.integers(ds.num_items))
            if neg not in taken:
                break
        triples.append((u, ds.num_users + pos, ds.num_users + neg))
    return np.asarray(triples, dtype=np.int64).reshape(-1, 3)
