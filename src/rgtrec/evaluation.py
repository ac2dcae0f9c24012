"""All-rank top-K evaluation: Recall@K and NDCG@K with train-item exclusion.

Every item the user has not interacted with in the train split is a
candidate; no negative sampling.  Ties in scores break towards the smaller
item id so rankings are reproducible across runs and platforms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import InteractionDataset, TRAIN, VAL, TEST

DEFAULT_KS = (10, 20, 40)
_CHUNK = 256


def recall_at_k(topk: np.ndarray, relevant: set, k: int) -> float:
    if not relevant:
        raise ValueError("recall needs at least one relevant item")
    hits = sum(1 for item in topk[:k] if int(item) in relevant)
    return hits / len(relevant)


def ndcg_at_k(topk: np.ndarray, relevant: set, k: int) -> float:
    if not relevant:
        raise ValueError("ndcg needs at least one relevant item")
    dcg = sum(1.0 / np.log2(r + 2) for r, item in enumerate(topk[:k])
              if int(item) in relevant)
    ideal = sum(1.0 / np.log2(r + 2) for r in range(min(k, len(relevant))))
    return dcg / ideal


@dataclass
class RankingResult:
    """Per-user rankings and metrics plus macro averages for one split."""

    ks: tuple[int, ...]
    user_ids: np.ndarray                      # users with >= 1 relevant item
    topk: np.ndarray                          # (num_users_evaluated, max(ks))
    recall: dict[int, np.ndarray] = field(default_factory=dict)
    ndcg: dict[int, np.ndarray] = field(default_factory=dict)

    def macro(self, metric: str, k: int) -> float:
        """Mean over the evaluated users; NaN when the split has none."""
        values = (self.recall if metric == "recall" else self.ndcg)[k]
        return float(values.mean()) if len(values) else float("nan")

    def summary(self) -> dict[str, float]:
        out = {}
        for k in self.ks:
            out[f"recall@{k}"] = self.macro("recall", k)
            out[f"ndcg@{k}"] = self.macro("ndcg", k)
        return out


def _top_k(neg: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's ``k`` smallest values in ascending order,
    ties broken by ascending column: the first ``k`` of a stable argsort
    (``1 <= k <= neg.shape[1]``).

    A partition finds each row's k-th smallest value v.  The top ``k`` are
    every entry below v plus, in ascending column order, as many entries
    equal to v as places are left; a stable sort of those ``k`` columns by
    value orders them.  Nothing else is sorted.
    """
    rows, n = neg.shape
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    if np.isnan(kth).any():
        raise ValueError("scores are NaN: the embeddings are not finite")
    below = neg < kth
    places = k - np.count_nonzero(below, axis=1)
    tied = np.flatnonzero(neg == kth)      # row-major: columns ascend per row
    tied_row = tied // n
    rank_in_row = np.arange(len(tied)) - np.searchsorted(tied_row, tied_row)
    flat = np.sort(np.concatenate([np.flatnonzero(below),
                                   tied[rank_in_row < places[tied_row]]]))
    cand = (flat % n).reshape(rows, k)
    order = np.argsort(neg.reshape(-1)[flat].reshape(rows, k), axis=1, kind="stable")
    return np.take_along_axis(cand, order, axis=1)


def evaluate(s: np.ndarray, ds: InteractionDataset, split: int,
             ks: tuple[int, ...] = DEFAULT_KS) -> RankingResult:
    """Macro-averaged Recall@K / NDCG@K over users with relevant items in ``split``.

    Users are scored in chunks of rows against every item, train items are
    set to -inf, and each row's top ``max(ks)`` is taken by a partition plus a
    sort of those items only (``_top_k``); the ranking equals a full stable
    sort by descending score, ties going to the smaller item id.  Both
    metrics come from one users × max(ks) hit matrix.
    """
    if split not in (VAL, TEST):
        raise ValueError("evaluate on the val or test split")
    max_k = min(max(ks), ds.num_items)
    pairs = ds.pairs(split)
    relevant = np.unique(pairs[:, 0] * ds.num_items + pairs[:, 1])
    num_relevant = np.bincount(relevant // ds.num_items, minlength=ds.num_users)
    users = np.flatnonzero(num_relevant).astype(np.int64)
    row_of = np.full(ds.num_users, -1, dtype=np.int64)
    row_of[users] = np.arange(len(users))
    train = ds.pairs(TRAIN)
    train_rows, train_items = row_of[train[:, 0]], train[:, 1]

    topk = np.zeros((len(users), max_k), dtype=np.int64)
    item_table = s[ds.num_users:]
    for start in range(0, len(users), _CHUNK):
        batch = users[start:start + _CHUNK]
        scores = s[batch] @ item_table.T
        in_chunk = (train_rows >= start) & (train_rows < start + len(batch))
        scores[train_rows[in_chunk] - start, train_items[in_chunk]] = -np.inf
        np.negative(scores, out=scores)
        topk[start:start + len(batch)] = _top_k(scores, max_k)
        # free this chunk's score matrix before the next chunk allocates its
        # own, so the peak holds one chunk, not two
        del scores

    hits = np.isin(users[:, None] * ds.num_items + topk, relevant)
    num_relevant = num_relevant[users]
    discounts = 1.0 / np.log2(np.arange(max_k) + 2)
    ideal = np.cumsum(discounts)
    recall, ndcg = {}, {}
    for k in ks:
        recall[k] = np.count_nonzero(hits[:, :k], axis=1) / num_relevant
        dcg = (hits[:, :k] * discounts[:k]).sum(axis=1)
        ndcg[k] = dcg / ideal[np.minimum(k, num_relevant) - 1]
    return RankingResult(ks=tuple(ks), user_ids=users, topk=topk,
                         recall=recall, ndcg=ndcg)


def write_metrics_csv(out, results: dict[str, RankingResult]) -> None:
    """CSV rows of (split, K, recall, ndcg), to a path or an open text stream."""
    if not hasattr(out, "write"):
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            write_metrics_csv(fh, results)
        return
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["split", "K", "recall", "ndcg"])
    for split_name, result in results.items():
        for k in result.ks:
            writer.writerow([split_name, k,
                             f"{result.macro('recall', k):.6f}",
                             f"{result.macro('ndcg', k):.6f}"])


def write_metric_series_csv(path, rows: list[dict]) -> None:
    """Generic long-format series emitter (e.g. ablation variants per seed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        raise ValueError("no rows to write")
    keys = list(rows[0])
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
