"""All training objectives and their weighted sum.

Every term is a mean over its index set so the weights keep their meaning
regardless of batch size.  Log-sigmoid terms are computed through softplus
(-log sigmoid(x) = softplus(-x)) so nothing saturates, and the contrastive
and recommendation terms use a shifted log-sum-exp.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from . import tensor as T
from .data import BipartiteGraph

if TYPE_CHECKING:
    from .training import TrainConfig

log = logging.getLogger(__name__)

_NORM_EPS = 1e-12


@dataclass
class LossReport:
    """Per-term scalar values for one step; total is the weighted sum."""

    rec: float = 0.0
    mae: float = 0.0
    distill: float = 0.0
    ranking: float = 0.0
    contrast: float = 0.0
    reg: float = 0.0
    total: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


def _pair_scores(s: T.Tensor, left: np.ndarray, right: np.ndarray) -> T.Tensor:
    return T.tsum(T.mul(T.take(s, left), T.take(s, right)), axis=1)


def loss_mae(s: T.Tensor, masked_out_edges: np.ndarray, g: BipartiteGraph,
             rng: np.random.Generator) -> T.Tensor:
    """Reconstruction of masked-out edges against sampled non-edges.

    Mean over masked-out edges of -log sigmoid(score) for the edge plus
    -log sigmoid(-score) for one non-edge of the same user.  The positive
    terms are recorded before the negatives are drawn and scored; the tape
    order fixes the order in which ``backward`` sums gradients.  Edges of
    users that interact with every item have no non-edge and are dropped,
    with a warning.
    """
    saturated = g.degree[masked_out_edges[:, 0]] >= g.num_items
    if saturated.any():
        log.warning("reconstruction skips the edges of %d users that interact with every item",
                    len(np.unique(masked_out_edges[saturated, 0])))
        masked_out_edges = masked_out_edges[~saturated]
    if len(masked_out_edges) == 0:
        log.warning("masked-out edge set is empty; reconstruction loss is 0")
        return T.Tensor(0.0, dtype=s.dtype)
    users = masked_out_edges[:, 0]
    items = masked_out_edges[:, 1]
    loss = T.softplus(T.neg(_pair_scores(s, users, items)))
    negs = g.sample_non_neighbors(users, rng)
    loss = T.add(loss, T.softplus(_pair_scores(s, users, negs)))
    return T.tmean(loss)


def _row_cosines(emb_a: T.Tensor, emb_b: T.Tensor) -> T.Tensor:
    for emb in (emb_a, emb_b):
        norms = np.linalg.norm(emb.values, axis=1)
        if (norms < 1e-9).any():
            log.warning("%d zero-norm embeddings in cosine; treated as 0",
                        int((norms < 1e-9).sum()))
    dot = T.tsum(T.mul(emb_a, emb_b), axis=1)
    na = T.sqrt(T.add(T.tsum(T.square(emb_a), axis=1), _NORM_EPS))
    nb = T.sqrt(T.add(T.tsum(T.square(emb_b), axis=1), _NORM_EPS))
    return T.div(dot, T.mul(na, nb))


def loss_cir(emb_rationale: T.Tensor, emb_complement: T.Tensor,
             temperature: float) -> T.Tensor:
    """log-sum-exp over nodes of the temperature-scaled cosine between the
    rationale-view and complement-view embeddings; minimizing pushes the two
    views apart."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if emb_rationale.shape != emb_complement.shape:
        raise T.ShapeMismatchError(
            f"embedding tables differ: {emb_rationale.shape} vs {emb_complement.shape}")
    scaled = T.div(_row_cosines(emb_rationale, emb_complement), float(temperature))
    shift = float(scaled.values.max())
    return T.add(T.log(T.tsum(T.exp(T.sub(scaled, shift)))), shift)


def loss_rec(s: T.Tensor, batch_pairs: np.ndarray,
             candidate_item_nodes: np.ndarray) -> T.Tensor:
    """Softmax cross-entropy of each (user, positive item) pair against the
    candidate item set (the full item set by default upstream), averaged
    over pairs.

    The candidate scores and their log-sum-exp are computed once per
    distinct batch user (``U × candidates``, not ``pairs × candidates``) and
    gathered back to one value per pair; the gather's backward adds each
    pair's gradient into its user's row, so a user's softmax is weighted by
    its pair count, exactly as if the row were repeated.
    """
    if len(batch_pairs) == 0:
        raise ValueError("recommendation loss needs a non-empty batch")
    users = batch_pairs[:, 0]
    positives = batch_pairs[:, 1]
    missing = np.setdiff1d(positives, candidate_item_nodes)
    if missing.size:
        raise ValueError(f"positive items missing from candidate set: {missing[:5]}")

    uniq, inverse = np.unique(users, return_inverse=True)
    cands = T.take(s, candidate_item_nodes)
    scores = T.linear(T.take(s, uniq), cands)
    lse = T.take(T.logsumexp_rows(scores), inverse)
    pos_scores = _pair_scores(s, users, positives)
    return T.tmean(T.sub(lse, pos_scores))


def loss_bpr(s_pathway: T.Tensor, triples: np.ndarray) -> T.Tensor:
    """Mean -log sigmoid(score(u, p+) - score(u, p-)) over sampled triples."""
    if len(triples) == 0:
        raise ValueError("ranking loss needs a non-empty triple batch")
    pos = _pair_scores(s_pathway, triples[:, 0], triples[:, 1])
    neg = _pair_scores(s_pathway, triples[:, 0], triples[:, 2])
    return T.tmean(T.softplus(T.sub(neg, pos)))


@dataclass
class EmbeddingBundle:
    """The four embedding groups matched between the online model and its
    EMA teacher."""

    user: T.Tensor
    item: T.Tensor
    contrast: T.Tensor
    subgraph: T.Tensor


def loss_distill(student: EmbeddingBundle, teacher: EmbeddingBundle) -> T.Tensor:
    """Sum of slot-wise mean squared errors; the teacher side is frozen."""
    total = None
    for slot in ("user", "item", "contrast", "subgraph"):
        s_emb = getattr(student, slot)
        t_emb = getattr(teacher, slot).detach()
        if s_emb.shape != t_emb.shape:
            raise T.ShapeMismatchError(
                f"distillation slot {slot!r}: student {s_emb.shape} vs teacher {t_emb.shape}")
        mse = T.tmean(T.square(T.sub(s_emb, t_emb)))
        total = mse if total is None else T.add(total, mse)
    return total


def frobenius_penalty(params: dict[str, T.Tensor]) -> T.Tensor:
    total = None
    for p in params.values():
        term = T.tsum(T.square(p))
        total = term if total is None else T.add(total, term)
    return total if total is not None else T.Tensor(0.0)


def total_loss(rec: T.Tensor, mae: T.Tensor, distill: T.Tensor, ranking: T.Tensor,
               contrast: T.Tensor, cfg: TrainConfig,
               params: dict[str, T.Tensor]) -> tuple[T.Tensor, LossReport]:
    """Sum of all terms plus the Frobenius penalty, each weighted by
    ``cfg.lambda_<term>``; a non-finite term raises FloatingPointError."""
    terms = {"rec": rec, "mae": mae, "distill": distill, "ranking": ranking,
             "contrast": contrast, "reg": frobenius_penalty(params)}
    total, report = None, LossReport()
    for name, term in terms.items():
        if not np.isfinite(term.values).all():
            raise FloatingPointError(f"loss term {name!r} is non-finite")
        setattr(report, name, float(term.values))
        weighted = T.mul(term, getattr(cfg, f"lambda_{name}"))
        total = weighted if total is None else T.add(total, weighted)
    report.total = float(total.values)
    return total, report
