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
        values = (self.recall if metric == "recall" else self.ndcg)[k]
        return float(values.mean()) if len(values) else 0.0

    def summary(self) -> dict[str, float]:
        out = {}
        for k in self.ks:
            out[f"recall@{k}"] = self.macro("recall", k)
            out[f"ndcg@{k}"] = self.macro("ndcg", k)
        return out


def evaluate(s: np.ndarray, ds: InteractionDataset, split: int,
             ks: tuple[int, ...] = DEFAULT_KS) -> RankingResult:
    """Macro-averaged Recall@K / NDCG@K over users with relevant items in ``split``."""
    if split not in (VAL, TEST):
        raise ValueError("evaluate on the val or test split")
    max_k = min(max(ks), ds.num_items)
    train_items = ds.positives_by_user(TRAIN)
    relevant_items = ds.positives_by_user(split)
    users = np.array([u for u in range(ds.num_users) if len(relevant_items[u])],
                     dtype=np.int64)

    topk = np.zeros((len(users), max_k), dtype=np.int64)
    recall = {k: np.zeros(len(users)) for k in ks}
    ndcg = {k: np.zeros(len(users)) for k in ks}

    item_table = s[ds.num_users:]
    for start in range(0, len(users), _CHUNK):
        batch = users[start:start + _CHUNK]
        scores = s[batch] @ item_table.T
        for row, u in enumerate(batch):
            scores[row, train_items[u]] = -np.inf
        np.negative(scores, out=scores)
        order = np.argsort(scores, axis=1, kind="stable")[:, :max_k]
        topk[start:start + len(batch)] = order
        for row, u in enumerate(batch):
            relevant = set(int(i) for i in relevant_items[u])
            for k in ks:
                recall[k][start + row] = recall_at_k(order[row], relevant, k)
                ndcg[k][start + row] = ndcg_at_k(order[row], relevant, k)
        # free this chunk's score matrix and full argsort before the next
        # chunk allocates its own, so the peak holds one chunk, not two
        del scores, order

    return RankingResult(ks=tuple(ks), user_ids=users, topk=topk,
                         recall=recall, ndcg=ndcg)


def write_metrics_csv(path, results: dict[str, RankingResult]) -> None:
    """CSV rows of (split, K, recall, ndcg)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["split", "K", "recall", "ndcg"])
        for split_name, result in results.items():
            for k in result.ks:
                writer.writerow([split_name, k,
                                 f"{result.macro('recall', k):.6f}",
                                 f"{result.macro('ndcg', k):.6f}"])


def write_per_user_tsv(path, result: RankingResult) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        header = ["user"] + [f"recall@{k}" for k in result.ks] + [f"ndcg@{k}" for k in result.ks]
        fh.write("\t".join(header) + "\n")
        for row, u in enumerate(result.user_ids):
            cells = [str(int(u))]
            cells += [f"{result.recall[k][row]:.6f}" for k in result.ks]
            cells += [f"{result.ndcg[k][row]:.6f}" for k in result.ks]
            fh.write("\t".join(cells) + "\n")


def write_metric_series_csv(path, rows: list[dict]) -> None:
    """Generic long-format series emitter (e.g. ablation variants per seed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        raise ValueError("no rows to write")
    keys = list(rows[0])
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
