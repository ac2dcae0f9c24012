"""Global topology encoding via anchor nodes and hop-distance weights.

A fixed set of anchor nodes is sampled from the whole node set.  Hop
distances from every node to every anchor (one unweighted
``scipy.sparse.csgraph.dijkstra`` call, truncated past q + 1 hops) turn into
correlation weights w = 1/(d+1) for d <= q and 0 beyond the cutoff.
Stacked anchor-aggregation layers then refine the node embeddings, and the
result is injected additively into the input table.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from . import tensor as T
from .data import BipartiteGraph
from .seeding import substream


def sample_anchors(g: BipartiteGraph, m: int, seed: int) -> np.ndarray:
    """Uniform sample of m distinct anchor nodes over users and items, as a
    sorted int64 array of node ids."""
    if m > g.num_nodes:
        raise ValueError(f"cannot sample {m} anchors from {g.num_nodes} nodes")
    rng = substream(seed, "anchors")
    idx = rng.choice(g.num_nodes, size=m, replace=False)
    return np.sort(idx).astype(np.int64)


def shortest_paths(g: BipartiteGraph, anchors: np.ndarray, q: int) -> np.ndarray:
    """Exact hop distances (num_nodes x num_anchors) from all nodes to each
    anchor, up to depth q + 1.

    One unweighted Dijkstra over the graph's CSR adjacency, started from
    every anchor and abandoned past q + 1 hops; farther nodes get inf.
    """
    if q < 1:
        raise ValueError(f"hop cutoff must be >= 1, got {q}")
    adjacency = sp.csr_matrix(
        (np.ones(len(g.csr_neighbors)), g.csr_neighbors, g.csr_offsets),
        shape=(g.num_nodes, g.num_nodes))
    dist = dijkstra(adjacency, directed=False, indices=anchors,
                    unweighted=True, limit=q + 1)
    return np.ascontiguousarray(dist.T)


def correlation_weights(distances: np.ndarray, q: int) -> np.ndarray:
    """omega = 1/(d+1) within the hop cutoff q, 0 beyond it; values lie in
    {0} U [1/(q+1), 1]."""
    with np.errstate(invalid="ignore"):
        return np.where(distances <= q, 1.0 / (distances + 1.0), 0.0)


def pgnn_layer(h_prev: T.Tensor, anchors: np.ndarray, omega: np.ndarray,
               layer_weight: T.Tensor) -> T.Tensor:
    """One anchor-aggregation layer.

    For every node k the layer averages, over anchors a, the transformed
    weighted concatenation omega[k,a] * W [h_k || h_a]; by linearity this
    equals concat(rowsum(omega) * H, omega @ H_anchors) @ W^T / num_anchors.
    """
    d = h_prev.shape[1]
    if layer_weight.shape != (d, 2 * d):
        raise T.ShapeMismatchError(
            f"layer weight must be ({d}, {2 * d}), got {layer_weight.shape}")
    omega = np.asarray(omega, dtype=h_prev.dtype)
    m = len(anchors)
    h_anchor = T.take(h_prev, anchors)
    own = T.mul(h_prev, omega.sum(axis=1, keepdims=True))
    mixed = T.spmm(omega, h_anchor)
    stacked = T.concat([own, mixed], axis=1)
    return T.div(T.linear(stacked, layer_weight), float(m))


class TopologyEncoder:
    """Anchor correlation weights plus learnable per-layer transforms, applied
    as a chain."""

    def __init__(self, g: BipartiteGraph, anchors: np.ndarray, q: int, latdim: int,
                 num_layers: int, seed: int, dtype=np.float64):
        if num_layers < 1:
            raise ValueError("topology encoder needs at least one layer")
        self.anchors = anchors
        self.omega = correlation_weights(shortest_paths(g, anchors, q), q)
        rng = substream(seed, "topo-init")
        scale = 1.0 / np.sqrt(latdim)
        self.layer_weights = [
            T.parameter(rng.uniform(-scale, scale, size=(latdim, 2 * latdim)), dtype)
            for _ in range(num_layers)
        ]

    def parameters(self) -> dict[str, T.Tensor]:
        return {f"topo.w{l}": w for l, w in enumerate(self.layer_weights)}

    def encode(self, h_id: T.Tensor) -> T.Tensor:
        """Refine through all layers, then inject additively: H_id + chain(H_id)."""
        h = h_id
        for w in self.layer_weights:
            h = pgnn_layer(h, self.anchors, self.omega, w)
        return T.add(h_id, h)

