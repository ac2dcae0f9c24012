"""All training objectives and their weighted sum; the terms score, never sample.

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


def loss_mae(s: T.Tensor, triples: np.ndarray) -> T.Tensor:
    """Reconstruction of masked-out edges against sampled non-edges.

    Mean over (user, item node, negative item node) rows of -log
    sigmoid(score) for the edge plus -log sigmoid(-score) for the non-edge.
    The positive terms are recorded before the negatives are scored; the tape
    order fixes the order in which ``backward`` sums gradients.  No rows give
    0, with a warning.
    """
    if len(triples) == 0:
        log.warning("masked-out edge set is empty; reconstruction loss is 0")
        return T.Tensor(0.0, dtype=s.dtype)
    loss = T.softplus(T.neg(_pair_scores(s, triples[:, 0], triples[:, 1])))
    loss = T.add(loss, T.softplus(_pair_scores(s, triples[:, 0], triples[:, 2])))
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

    The candidates must be sorted and unique; each positive's column among
    them comes from ``np.searchsorted``.  One ``tensor.softmax_cross_entropy``
    record scores each distinct batch user once against the candidates
    (``U × candidates``, not ``pairs × candidates``) and reads each positive's
    score from those rows; a user's softmax is weighted by its pair count,
    exactly as if the row were repeated.  It scores a block of users at a
    time and, when a gradient is recorded, turns each block into its
    gradient at once, so no ``U × candidates`` table outlives its block.
    """
    if len(batch_pairs) == 0:
        raise ValueError("recommendation loss needs a non-empty batch")
    if (np.diff(candidate_item_nodes) <= 0).any():
        raise ValueError("candidate item nodes must be sorted and unique")
    users = batch_pairs[:, 0]
    positives = batch_pairs[:, 1]
    missing = np.setdiff1d(positives, candidate_item_nodes)
    if missing.size:
        raise ValueError(f"positive items missing from candidate set: {missing[:5]}")

    uniq, rows = np.unique(users, return_inverse=True)
    cols = np.searchsorted(candidate_item_nodes, positives)
    return T.softmax_cross_entropy(T.take(s, uniq), T.take(s, candidate_item_nodes), rows, cols)


def loss_bpr(s_pathway: T.Tensor, triples: np.ndarray) -> T.Tensor:
    """Mean -log sigmoid(score(u, p+) - score(u, p-)) over (user, positive,
    negative) node rows.  No rows give 0, with a warning."""
    if len(triples) == 0:
        log.warning("ranking triple set is empty; ranking loss is 0")
        return T.Tensor(0.0, dtype=s_pathway.dtype)
    pos = _pair_scores(s_pathway, triples[:, 0], triples[:, 1])
    neg = _pair_scores(s_pathway, triples[:, 0], triples[:, 2])
    return T.tmean(T.softplus(T.sub(neg, pos)))


def loss_distill(student: list[T.Tensor], teacher: list[T.Tensor]) -> T.Tensor:
    """Sum of the mean squared errors of two equal-length lists of tables,
    paired by position; the teacher side is frozen."""
    total = None
    for k, (s_emb, t_emb) in enumerate(zip(student, teacher, strict=True)):
        t_emb = t_emb.detach()
        if s_emb.shape != t_emb.shape:
            raise T.ShapeMismatchError(
                f"distillation table {k}: student {s_emb.shape} vs teacher {t_emb.shape}")
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
