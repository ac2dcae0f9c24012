"""Local collaborative propagation and the masked-graph encoder.

Propagation follows the parameter-free neighborhood averaging of LightGCN:
each layer replaces a node's embedding with the sum of its neighbors'
embeddings weighted by 1/sqrt(deg_k * deg_k'), with degrees taken on the
graph actually being propagated.  A layer is one sparse-dense product
(``tensor.edge_spmm``) over the graph's CSR arrays with those constant
weights.  Zero-degree nodes keep their embedding unchanged.  The encoder
chains this with the topology encoder and the residual transformer on the
masked graph.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import AttentionParams, residual_gt
from .data import BipartiteGraph
from .topology import TopologyEncoder

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PropagationConfig:
    num_layers: int = 1
    combination: str = "mean_of_layers"  # or "last_layer"

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError(f"need at least one propagation layer, got {self.num_layers}")
        if self.combination not in ("mean_of_layers", "last_layer"):
            raise ValueError(f"unknown combination mode {self.combination!r}")


def symmetric_edge_weights(g: BipartiteGraph) -> np.ndarray:
    """1/sqrt(deg_src * deg_dst) per directed CSR slot."""
    deg = g.degree.astype(np.float64)
    src = g.directed_src
    dst = g.csr_neighbors
    return 1.0 / np.sqrt(deg[src] * deg[dst])


def lightgcn_propagate(g: BipartiteGraph, s0: T.Tensor, cfg: PropagationConfig) -> T.Tensor:
    """Degree-normalized neighborhood propagation.

    Returns the mean over layers 0..L by default (last layer only when
    configured).  Zero-degree nodes pass through unchanged and are logged.
    """
    isolated = g.degree == 0
    if isolated.any():
        log.debug("propagation passes %d zero-degree nodes through unchanged",
                  int(isolated.sum()))
    beta = T.Tensor(symmetric_edge_weights(g).reshape(-1, 1), dtype=s0.dtype)
    keep = T.Tensor(isolated.astype(s0.values.dtype).reshape(-1, 1), dtype=s0.dtype)

    layers = [s0]
    s = s0
    for _ in range(cfg.num_layers):
        s = T.add(T.edge_spmm(beta, s, g, 1), T.mul(keep, s))
        layers.append(s)

    if cfg.combination == "last_layer":
        return layers[-1]
    out = layers[0]
    for layer in layers[1:]:
        out = T.add(out, layer)
    return T.div(out, float(len(layers)))


def encode_masked(g_masked: BipartiteGraph, s_local: T.Tensor, topo: TopologyEncoder,
                  attn: AttentionParams, gt_layers: int, residual: bool = True,
                  use_topology: bool = True) -> T.Tensor:
    """Final node embeddings: residual transformer over topology-refined
    local embeddings, evaluated on the (masked) graph."""
    h = topo.encode(s_local) if use_topology else s_local
    return residual_gt(h, g_masked, attn, n_layers=gt_layers, residual=residual)
