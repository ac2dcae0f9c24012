"""Local collaborative propagation and the masked-graph encoder.

Propagation follows the parameter-free neighborhood averaging of LightGCN:
each layer replaces a node's embedding with the sum of its neighbors'
embeddings weighted by 1/sqrt(deg_k * deg_k'), with degrees taken on the
graph actually being propagated.  A layer is one product with the graph's
normalized adjacency, built once per graph and dtype, in which every
zero-degree node is a unit self-loop, so it keeps its embedding unchanged.
All layers and their mean are one tape record (``tensor.layer_mean``).  The
encoder chains this with the topology encoder and the residual transformer on
the masked graph.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.sparse as sp

from . import tensor as T
from .attention import AttentionParams, residual_gt
from .data import BipartiteGraph
from .topology import TopologyEncoder

log = logging.getLogger(__name__)


def symmetric_edge_weights(g: BipartiteGraph) -> np.ndarray:
    """1/sqrt(deg_src * deg_dst) per directed CSR slot."""
    deg = g.degree.astype(np.float64)
    src = g.directed_src
    dst = g.csr_neighbors
    return 1.0 / np.sqrt(deg[src] * deg[dst])


def lightgcn_operator(g: BipartiteGraph, dtype) -> sp.csr_matrix:
    """The (num_nodes, num_nodes) normalized adjacency of ``g`` in ``dtype``,
    with ``symmetric_edge_weights`` on the slots and a unit self-loop on
    every zero-degree node."""
    n = g.num_nodes
    adj = sp.csr_matrix((symmetric_edge_weights(g), g.csr_neighbors, g.csr_offsets),
                        shape=(n, n))
    loops = sp.diags((g.degree == 0).astype(np.float64), format="csr")
    return (adj + loops).astype(dtype)


def lightgcn_propagate(g: BipartiteGraph, s0: T.Tensor, num_layers: int) -> T.Tensor:
    """Degree-normalized neighborhood propagation.

    Returns the mean over layers 0..L, as in LightGCN.  Zero-degree nodes
    pass through unchanged and are logged.
    """
    if num_layers < 1:
        raise ValueError(f"need at least one propagation layer, got {num_layers}")
    isolated = int((g.degree == 0).sum())
    if isolated:
        log.debug("propagation passes %d zero-degree nodes through unchanged", isolated)
    op = g.operator(("lightgcn", s0.dtype), lambda g: lightgcn_operator(g, s0.dtype))
    return T.layer_mean(op, s0, num_layers)


def encode_masked(g_masked: BipartiteGraph, s_local: T.Tensor, topo: TopologyEncoder | None,
                  attn: AttentionParams, gt_layers: int, residual: bool = True) -> T.Tensor:
    """Final node embeddings: residual transformer over topology-refined
    local embeddings (unrefined when ``topo`` is None), evaluated on the
    (masked) graph."""
    h = topo.encode(s_local) if topo is not None else s_local
    return residual_gt(h, g_masked, attn, n_layers=gt_layers, residual=residual)
