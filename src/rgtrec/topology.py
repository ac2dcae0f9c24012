"""Global topology encoding via anchor nodes and hop-distance weights.

A fixed set of anchor nodes is sampled from the whole node set.  Hop
distances from every node to every anchor (one unweighted
``scipy.sparse.csgraph.dijkstra`` call, truncated past q + 1 hops) turn into
correlation weights w = 1/(d+1) for d <= q and 0 beyond the cutoff.
Stacked anchor-aggregation layers then refine the node embeddings, and the
result is injected additively into the input table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from . import tensor as T
from .data import BipartiteGraph
from .seeding import substream


@dataclass(frozen=True)
class AnchorSet:
    node_indices: np.ndarray

    def __len__(self) -> int:
        return len(self.node_indices)


def sample_anchors(g: BipartiteGraph, m: int, seed: int) -> AnchorSet:
    """Uniform sample of m distinct anchor nodes over users and items."""
    if m > g.num_nodes:
        raise ValueError(f"cannot sample {m} anchors from {g.num_nodes} nodes")
    rng = substream(seed, "anchors")
    idx = rng.choice(g.num_nodes, size=m, replace=False)
    return AnchorSet(node_indices=np.sort(idx).astype(np.int64))


@dataclass(frozen=True)
class DistanceTable:
    """Hop distances (num_nodes x num_anchors); inf marks beyond-cutoff."""

    distances: np.ndarray
    hop_cutoff: int  # distances are exact up to hop_cutoff + 1


def shortest_paths(g: BipartiteGraph, anchors: AnchorSet, q: int) -> DistanceTable:
    """Exact hop distances from all nodes to each anchor, up to depth q + 1.

    One unweighted Dijkstra over the graph's CSR adjacency, started from
    every anchor and abandoned past q + 1 hops; farther nodes get inf.
    """
    if q < 1:
        raise ValueError(f"hop cutoff must be >= 1, got {q}")
    adjacency = sp.csr_matrix(
        (np.ones(len(g.csr_neighbors)), g.csr_neighbors, g.csr_offsets),
        shape=(g.num_nodes, g.num_nodes))
    dist = dijkstra(adjacency, directed=False, indices=anchors.node_indices,
                    unweighted=True, limit=q + 1)
    return DistanceTable(distances=np.ascontiguousarray(dist.T), hop_cutoff=q)


def correlation_weight(d: float, q: int) -> float:
    """1/(d+1) within the hop cutoff, 0 beyond it."""
    return 1.0 / (d + 1.0) if d <= q else 0.0


@dataclass(frozen=True)
class CorrelationWeights:
    omega: np.ndarray  # (num_nodes, num_anchors) in {0} U [1/(q+1), 1]
    hop_cutoff: int


def correlation_weights(table: DistanceTable, q: int | None = None) -> CorrelationWeights:
    q = table.hop_cutoff if q is None else q
    d = table.distances
    with np.errstate(invalid="ignore"):
        omega = np.where(d <= q, 1.0 / (d + 1.0), 0.0)
    return CorrelationWeights(omega=omega, hop_cutoff=q)


def pgnn_layer(h_prev: T.Tensor, anchors: AnchorSet, weights: CorrelationWeights,
               layer_weight: T.Tensor) -> T.Tensor:
    """One anchor-aggregation layer.

    For every node k the layer averages, over anchors a, the transformed
    weighted concatenation w[k,a] * W [h_k || h_a]; by linearity this equals
    concat(rowsum(w) * H, w @ H_anchors) @ W^T / num_anchors.
    """
    d = h_prev.shape[1]
    if layer_weight.shape != (d, 2 * d):
        raise T.ShapeMismatchError(
            f"layer weight must be ({d}, {2 * d}), got {layer_weight.shape}")
    omega = np.asarray(weights.omega, dtype=h_prev.dtype)
    m = len(anchors)
    h_anchor = T.take(h_prev, anchors.node_indices)
    own = T.mul(h_prev, T.Tensor(omega.sum(axis=1, keepdims=True), dtype=h_prev.dtype))
    mixed = T.matmul(T.Tensor(omega, dtype=h_prev.dtype), h_anchor)
    stacked = T.concat([own, mixed], axis=1)
    return T.div(T.matmul(stacked, T.transpose(layer_weight)), float(m))


class TopologyEncoder:
    """Anchor tables plus learnable per-layer transforms, applied as a chain.

    The distance tables are a property of the graph and can be shared across
    instances via ``tables``; the layer weights are private to each instance.
    """

    def __init__(self, g: BipartiteGraph, num_anchors: int, q: int, latdim: int,
                 num_layers: int, seed: int, anchors: AnchorSet | None = None,
                 tables: "tuple[DistanceTable, CorrelationWeights] | None" = None):
        if num_layers < 1:
            raise ValueError("topology encoder needs at least one layer")
        self.q = q
        self.anchors = anchors if anchors is not None else sample_anchors(g, num_anchors, seed)
        if tables is not None:
            self.distance_table, self.weights = tables
        else:
            self.distance_table = shortest_paths(g, self.anchors, q)
            self.weights = correlation_weights(self.distance_table, q)
        rng = substream(seed, "topo-init")
        scale = 1.0 / np.sqrt(latdim)
        self.layer_weights = [
            T.parameter(rng.uniform(-scale, scale, size=(latdim, 2 * latdim)),
                        name=f"topo.w{l}")
            for l in range(num_layers)
        ]

    @property
    def tables(self) -> "tuple[DistanceTable, CorrelationWeights]":
        return self.distance_table, self.weights

    def refresh_tables(self, g: BipartiteGraph, anchors: AnchorSet) -> None:
        """Swap in distance tables for a new anchor set (keeps the weights)."""
        self.anchors = anchors
        self.distance_table = shortest_paths(g, anchors, self.q)
        self.weights = correlation_weights(self.distance_table, self.q)

    def parameters(self) -> dict[str, T.Tensor]:
        return {w.name: w for w in self.layer_weights}

    def encode(self, h_id: T.Tensor) -> T.Tensor:
        """Refine through all layers, then inject additively: H_id + chain(H_id)."""
        h = h_id
        for w in self.layer_weights:
            h = pgnn_layer(h, self.anchors, self.weights, w)
        return T.add(h_id, h)

