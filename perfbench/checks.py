"""Output checks that do not trust the code they check.

The top-k reference scores in float64 and orders by score descending, then
item id ascending, with train items excluded, exactly as the evaluation
contract states; it shares no code with ``rgtrec.evaluation``.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Two float32 scores closer than this share of the largest |score| may come
# out of the program in either order: float32 rounding can swap them.
TIE_TOLERANCE = 1e-5


def reference_topk(s: np.ndarray, num_users: int, user: int, train_items: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k item ids for ``user`` and the float64 scores of all items."""
    s64 = np.asarray(s, dtype=np.float64)
    scores = s64[num_users:] @ s64[user]
    scores[train_items] = -np.inf
    order = np.lexsort((np.arange(len(scores)), -scores))
    return order[:k], scores


def check_ranking(s: np.ndarray, result, train_items: list, relevant: list,
                  num_users: int, sample: np.ndarray, k: int = 20) -> list[str]:
    """Compare ``result.topk`` for the sampled rows against the reference,
    recompute Recall@k from the reference and from ``result.topk`` for every
    row, and return one message per failed check (empty when all pass)."""
    failures = []
    width = result.topk.shape[1]
    for row in sample:
        u = int(result.user_ids[row])
        ref, scores = reference_topk(s, num_users, u, train_items[u], width)
        got = result.topk[row]
        tol = TIE_TOLERANCE * float(np.abs(scores[np.isfinite(scores)]).max(initial=0.0))
        diff = np.flatnonzero(ref != got)
        if len(np.unique(got)) != width or np.isin(got, train_items[u]).any():
            failures.append(f"user {u}: top-k repeats an item or holds a train item")
        elif len(diff) and np.abs(scores[ref[diff]] - scores[got[diff]]).max() > tol:
            failures.append(f"user {u}: top-k differs from the reference at rank {diff[0]}")
        elif set(ref[:k]) == set(got[:k]):
            expected = len(set(ref[:k].tolist()) & set(relevant[u].tolist())) / len(relevant[u])
            if expected != result.recall[k][row]:
                failures.append(f"user {u}: recall@{k} {result.recall[k][row]} != {expected}")

    hits = [len(set(result.topk[row, :k].tolist()) & set(relevant[int(u)].tolist()))
            / len(relevant[int(u)]) for row, u in enumerate(result.user_ids)]
    if not math.isclose(float(np.mean(hits)), result.macro("recall", k), rel_tol=1e-12):
        failures.append(f"macro recall@{k} {result.macro('recall', k)} != {np.mean(hits)}")
    return failures


def check_losses(record: dict) -> list[str]:
    """Every numeric value of a step or epoch loss report must be finite."""
    return [f"loss {name}={value} at epoch {record.get('epoch')} step {record.get('step')}"
            for name, value in record.items()
            if isinstance(value, float) and not math.isfinite(value)]


def parameter_digest(pair) -> str:
    """SHA-256 over every parameter of every model of the pair, by name."""
    h = hashlib.sha256()
    for role, state in sorted(pair.states().items()):
        for name, p in sorted(state.parameters().items()):
            h.update(f"{role}/{name}".encode())
            h.update(np.ascontiguousarray(p.values).tobytes())
    return h.hexdigest()[:16]
