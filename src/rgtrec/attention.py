"""Multi-head attention over graph edges and edge-level rationale scores.

Attention is evaluated on graph neighbors only: for each directed edge
(k -> k') the raw score is a scaled query/key dot product, normalized by a
softmax over k's neighborhood.  Head-averaged directed scores are symmetrized
per undirected edge and normalized over the whole edge set to produce a
probability distribution used for rationale sampling.

The propagation block is a light self-attention: linear value transforms
aggregated with the attention weights and passed through an output
projection; no feed-forward sublayer, no layer norm.  Stacked blocks share
one parameter set and combine through residual links.

The heads are fused.  Query, key and value are each one ``latdim x latdim``
matrix whose rows ``h * head_dim:(h + 1) * head_dim`` belong to head h.  The
edge scores of all heads come from one sampled dense-dense product
(``tensor.edge_dot``, SDDMM) over the graph's CSR slots and one segment
softmax over the resulting ``(num_slots, heads)`` table; the aggregation is
one sparse-dense product (``tensor.edge_spmm``, SpMM).  A layer therefore
records the same, fixed number of tape entries whatever the head count.
"""

from __future__ import annotations

import logging

import numpy as np

from . import tensor as T
from .data import BipartiteGraph
from .seeding import substream

log = logging.getLogger(__name__)


class AttentionParams:
    """Fused query/key/value transforms plus a shared output projection.

    Each of ``wq``, ``wk`` and ``wv`` is ``latdim x latdim``; head h owns
    rows ``h * head_dim:(h + 1) * head_dim``.  They are drawn in that order,
    then ``wo``, so each equals the per-head draws stacked by row.
    """

    def __init__(self, latdim: int, heads: int, seed: int):
        if latdim % heads != 0:
            raise ValueError(f"latdim {latdim} not divisible by {heads} heads")
        self.latdim = latdim
        self.heads = heads
        self.head_dim = latdim // heads
        rng = substream(seed, "attn-init", "attn")
        scale = 1.0 / np.sqrt(latdim)

        def mk():
            return T.parameter(rng.uniform(-scale, scale, size=(latdim, latdim)))

        self.wq = mk()
        self.wk = mk()
        self.wv = mk()
        self.wo = mk()

    def parameters(self) -> dict[str, T.Tensor]:
        return {"attn.wq": self.wq, "attn.wk": self.wk, "attn.wv": self.wv, "attn.wo": self.wo}


def _log_isolated(g: BipartiteGraph) -> None:
    isolated = int((g.degree == 0).sum())
    if isolated:
        log.debug("attention skipping %d isolated nodes", isolated)


def attention_scores(h_bar: T.Tensor, g: BipartiteGraph, params: AttentionParams) -> T.Tensor:
    """Neighbor-normalized attention over directed CSR slots, shape
    (num_slots, heads)."""
    _log_isolated(g)
    q = T.linear(h_bar, params.wq)
    k = T.linear(h_bar, params.wk)
    raw = T.mul(T.edge_dot(q, k, g, params.heads), 1.0 / np.sqrt(params.head_dim))
    return T.segment_softmax(raw, g)


def edge_rationale_probs(head_scores: np.ndarray, g: BipartiteGraph) -> np.ndarray:
    """Probability of each undirected edge being a rationale, shape (num_edges,).

    ``head_scores`` is the (num_slots, heads) array of ``attention_scores``.
    Head scores are averaged, the two directions of every edge are averaged,
    and the result is normalized over the edge set so it sums to one.
    """
    if g.num_edges == 0:
        raise ValueError("rationale probabilities need a non-empty edge set")
    mean = head_scores.mean(axis=1)
    per_edge = np.bincount(g.csr_edge_ids, weights=mean,
                           minlength=g.num_edges).astype(mean.dtype) / 2.0
    total = float(per_edge.sum())
    if total <= 0.0:
        raise ValueError("degenerate attention: edge scores sum to zero")
    return per_edge / total


def light_self_attention(h_in: T.Tensor, g: BipartiteGraph, params: AttentionParams) -> T.Tensor:
    """Attention-weighted value aggregation with an output projection.

    Isolated nodes receive a zero row (their neighborhood is empty).
    """
    alphas = attention_scores(h_in, g, params)
    v = T.linear(h_in, params.wv)
    heads_out = T.edge_spmm(alphas, v, g, params.heads)
    return T.linear(heads_out, params.wo)


def residual_gt(h_in: T.Tensor, g: BipartiteGraph, params: AttentionParams,
                n_layers: int, residual: bool = True) -> T.Tensor:
    """n_layers of light self-attention with residual links (shared weights)."""
    if n_layers < 1:
        raise ValueError(f"need at least one transformer layer, got {n_layers}")
    h = h_in
    for _ in range(n_layers):
        out = light_self_attention(h, g, params)
        h = T.add(out, h) if residual else out
    return h
