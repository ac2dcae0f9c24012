"""Rationale, masked and complement edge-set sampling.

All three subgraphs are weighted samples without replacement drawn with the
Gumbel top-k trick: perturb log-weights with standard Gumbel noise and keep
the k largest keys.  The rationale sample is biased towards high-probability
(informative) edges; the masked and complement samples draw from the
inverted distribution so the most informative edges are preferentially
removed (reconstruction targets) or collected as noise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import BipartiteGraph
from .seeding import substream

log = logging.getLogger(__name__)

INVERSION_EPS = 1e-8  # floor so no edge is deterministically excluded

RATIONALE, MASKED, COMPLEMENT = "rationale", "masked", "complement"


@dataclass(frozen=True)
class SampledSubgraph:
    kind: str
    edge_indices: np.ndarray  # sorted indices into the parent edge list
    rate: float

    def __len__(self) -> int:
        return len(self.edge_indices)

    def complement_indices(self, num_edges: int) -> np.ndarray:
        """Edge ids of the parent graph that were *not* sampled."""
        return np.setdiff1d(np.arange(num_edges, dtype=np.int64), self.edge_indices,
                            assume_unique=True)

    def materialize(self, parent: BipartiteGraph) -> BipartiteGraph:
        return parent.edge_subgraph(self.edge_indices)


def _sample_size(rate: float, num_edges: int) -> int:
    # round half away from zero, so rate * |E| = 4.5 keeps 5 edges
    return int(np.floor(rate * num_edges + 0.5))


def gumbel_topk(weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of a weighted sample without replacement of size k."""
    if k > len(weights):
        raise ValueError(f"cannot draw {k} items from {len(weights)} weights")
    if not np.all((weights > 0) & (weights < np.inf)):
        raise ValueError("weights must be finite and strictly positive")
    keys = np.log(weights) + rng.gumbel(size=len(weights))
    top = np.argpartition(-keys, k - 1)[:k] if k < len(weights) else np.arange(len(weights))
    return np.sort(top).astype(np.int64)


def _draw(kind: str, probs: np.ndarray, rate: float, seed: int) -> SampledSubgraph:
    """``rate`` of the edges, weighted by ``probs`` (inverted but for the rationale)."""
    if not np.isfinite(probs).all():
        raise ValueError(f"{kind} sample: edge probabilities must be finite")
    weights = probs + INVERSION_EPS if kind == RATIONALE else inverted_weights(probs)
    k = _sample_size(rate, len(weights))
    if k < 1:
        raise ValueError(f"{kind} sample would be empty: rate {rate} on {len(weights)} edges")
    rng = substream(seed, "sample", kind)
    idx = gumbel_topk(weights, k, rng)
    return SampledSubgraph(kind=kind, edge_indices=idx, rate=rate)


def sample_rationale(probs: np.ndarray, rho_r: float, seed: int) -> SampledSubgraph:
    """Edges drawn proportionally to their rationale probability."""
    if not 0.0 < rho_r <= 1.0:
        raise ValueError(f"rationale rate must be in (0, 1], got {rho_r}")
    return _draw(RATIONALE, probs, rho_r, seed)


def inverted_weights(probs: np.ndarray) -> np.ndarray:
    return (probs.max() - probs) + INVERSION_EPS


def build_masked_graph(probs: np.ndarray, rho_m: float, seed: int) -> SampledSubgraph:
    """Retained edge set E_M, drawn from the inverted rationale scores.

    High-rationale edges are the least likely to be retained; everything
    outside E_M is masked out and becomes a reconstruction target.
    ``TrainConfig.validate`` keeps it denser than the rationale sample.
    """
    if not 0.0 < rho_m < 1.0:
        raise ValueError(f"mask retention rate must be in (0, 1), got {rho_m}")
    return _draw(MASKED, probs, rho_m, seed)


def sample_complement(probs: np.ndarray, rho_c: float, seed: int) -> SampledSubgraph:
    """Small noise-biased edge sample from the same inverted distribution."""
    if not 0.0 < rho_c < 1.0:
        raise ValueError(f"complement rate must be in (0, 1), got {rho_c}")
    return _draw(COMPLEMENT, probs, rho_c, seed)


def dump_subgraph_tsv(sub: SampledSubgraph, g: BipartiteGraph, path) -> None:
    """Debug dump of sampled edges (edge id, user node, item node)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# kind={sub.kind} rate={sub.rate} size={len(sub)}\n")
        fh.write("edge_id\tuser_node\titem_node\n")
        for e in sub.edge_indices:
            k, k2 = g.edge_list[e]
            fh.write(f"{e}\t{k}\t{k2}\n")
