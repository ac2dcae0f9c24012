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
_GROUP = 16     # _top_k bounds the k-th score by maxima of max(k, ceil(n / 16)) groups


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
        if metric not in ("recall", "ndcg"):
            raise ValueError(f"metric must be 'recall' or 'ndcg', got {metric!r}")
        if k not in self.ks:
            raise ValueError(f"k={k} was not evaluated; this result holds ks={self.ks}")
        values = (self.recall if metric == "recall" else self.ndcg)[k]
        return float(values.mean()) if len(values) else float("nan")

    def summary(self) -> dict[str, float]:
        out = {}
        for k in self.ks:
            out[f"recall@{k}"] = self.macro("recall", k)
            out[f"ndcg@{k}"] = self.macro("ndcg", k)
        return out


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's ``k`` largest scores in descending order,
    ties broken by ascending column: the first ``k`` of a stable argsort of
    ``-scores`` (``1 <= k <= scores.shape[1]``).

    The ``n`` columns form ``w = max(k, ceil(n / _GROUP))`` strided groups,
    group ``j`` holding columns ``j, j + w, j + 2w, ...``: their maxima are
    one reduction over the ``w``-wide column blocks, plus one ``maximum``
    with a last, shorter block.  Each row's k-th largest group maximum ``t``
    bounds its k-th largest score from below, since ``k`` groups each hold
    an entry ``>= t``; so the top ``k``, ties included, are among the
    entries ``>= t``, and only those candidates are sorted, by descending
    score with ascending column among equals.  A NaN reaches its group's
    maximum, where it is refused.  A row with ``-inf`` in its top ``k`` has
    ``t = -inf``, and every entry is a candidate.

    Worst case: in a row whose scores are all equal every column is a
    candidate, so its chunk's sort block is ``rows x n``; the result is
    still exact.
    """
    rows, n = scores.shape
    w = max(k, -(-n // _GROUP))
    full = n - n % w
    group_max = scores[:, :full].reshape(rows, -1, w).max(axis=1)
    tail = scores[:, full:]
    head = group_max[:, :tail.shape[1]]
    np.maximum(head, tail, out=head)
    if np.isnan(group_max).any():
        raise ValueError("scores are NaN: the embeddings are not finite")
    t = np.partition(group_max, w - k, axis=1)[:, w - k:w - k + 1]
    flat = np.flatnonzero(scores >= t)     # row-major: columns ascend per row
    row, col = np.divmod(flat, n)
    counts = np.bincount(row, minlength=rows)
    first = np.cumsum(counts) - counts    # each row's first candidate in flat
    # pad with +inf keys after each row's candidates; a stable sort keeps a
    # candidate scored -inf ahead of the padding
    keys = np.full((rows, counts.max()), np.inf, dtype=scores.dtype)
    keys[row, np.arange(len(flat)) - np.repeat(first, counts)] = -scores.reshape(-1)[flat]
    order = np.argsort(keys, axis=1, kind="stable")[:, :k]
    return col[first[:, None] + order]


def evaluate(s: np.ndarray, ds: InteractionDataset, split: int,
             ks: tuple[int, ...] = DEFAULT_KS) -> RankingResult:
    """Macro-averaged Recall@K / NDCG@K over users with relevant items in ``split``.

    Users are scored in chunks of rows against every item, train items are
    set to -inf, and each row's top ``max(ks)`` is taken by ``_top_k``: the
    maxima of strided column groups bound each row's K-th score, and only
    the items at or above that bound are sorted.  The ranking equals a full
    stable sort by descending score, ties going to the smaller item id.
    Both metrics come from one users × max(ks) hit matrix.  ``s`` must hold
    the users' rows, then the items'; every K must be an integer >= 1.
    """
    if split not in (VAL, TEST):
        raise ValueError("evaluate on the val or test split")
    if s.ndim != 2 or len(s) != ds.num_users + ds.num_items:
        raise ValueError(f"s must have num_users + num_items = "
                         f"{ds.num_users + ds.num_items} rows, got shape {s.shape}")
    if not ks or not all(isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                         and k >= 1 for k in ks):
        raise ValueError(f"every k must be an integer >= 1, got ks={tuple(ks)}")
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


def write_csv(out, rows: list[dict]) -> None:
    """Dict ``rows`` as CSV under the first row's keys, lines ending in "\\n",
    to a path (its directory made) or an open text stream."""
    if not rows:
        raise ValueError("no rows to write")
    if not hasattr(out, "write"):
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            write_csv(fh, rows)
        return
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
