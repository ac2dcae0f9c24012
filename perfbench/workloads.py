"""Seeded workload generators and the fixed workload specs of the benchmark.

The generators live here, not in ``rgtrec.synthetic``, so that a change to
the program cannot change the benchmark's inputs.  Each writes the
``user<TAB>item`` file that ``rgtrec.load_interactions`` reads; the program
receives only that file and a config.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The architecture keys of configs/lastfm.cfg and configs/yelp.cfg, copied so
# that an edit to a shipped config cannot change a workload.  Keys that no
# code path reads (ssl_reg, b2, gtw) and the epoch/patience keys, which the
# benchmark does not use because it drives train_epoch itself, are left out.
LASTFM_CFG = {
    "latdim": 64, "heads": 8, "gcn_layers": 1, "gt_layers": 1, "pnn_layers": 2,
    "anchor_set": 32, "batch_size": 4096, "lr": 0.001, "lambda_contrast": 0.005,
    "lambda_reg": 0.0001,
}
YELP_CFG = {
    "latdim": 64, "heads": 2, "gcn_layers": 3, "gt_layers": 2, "pnn_layers": 2,
    "anchor_set": 16, "batch_size": 4096, "lr": 0.001, "lambda_contrast": 0.005,
    "lambda_reg": 0.0001, "rec_candidates": 1024,
}


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), sum(tag.encode())])


def aligned_blocks(num_users: int, num_items: int, num_blocks: int, per_user: int,
                   within: float, seed: int) -> np.ndarray:
    """(user, item) pairs where every user has exactly ``per_user`` distinct
    items, ``round(within * per_user)`` of them from the user's own block."""
    if num_users % num_blocks or num_items % num_blocks:
        raise ValueError("block count must divide both user and item counts")
    rng = _rng(seed, "blocks")
    items_per_block = num_items // num_blocks
    n_in = int(round(within * per_user))
    n_out = per_user - n_in
    if n_in > items_per_block or n_out > num_items - items_per_block:
        raise ValueError("blocks too small for the requested degree")
    users_per_block = num_users // num_blocks
    rows = []
    for u in range(num_users):
        lo = (u // users_per_block) * items_per_block
        inside = lo + rng.choice(items_per_block, size=n_in, replace=False)
        outside = rng.choice(num_items - items_per_block, size=n_out, replace=False)
        outside = np.where(outside >= lo, outside + items_per_block, outside)
        rows.append(np.stack([np.full(per_user, u), np.concatenate([inside, outside])], 1))
    return np.concatenate(rows).astype(np.int64)


def long_tail(num_users: int, num_items: int, num_draws: int, seed: int) -> np.ndarray:
    """(user, item) pairs with power-law user activity and item popularity.

    User activity is proportional to rank^-0.9 (at least 3 draws each) and
    item popularity to rank^-1.0.  Users and items fall into 10 groups.  90%
    of each user's draws are distinct items of the user's own group, chosen by
    popularity without replacement (Gumbel top-k), so hub users keep their
    degree; the rest are drawn by popularity from all items with replacement
    and then deduplicated.
    """
    clusters = 10
    rng = _rng(seed, "longtail")
    activity = rng.permutation(np.arange(1, num_users + 1) ** -0.9)
    counts = np.maximum(3, np.round(num_draws * activity / activity.sum())).astype(np.int64)
    log_pop = np.log(rng.permutation(np.arange(1, num_items + 1) ** -1.0))
    user_cluster = rng.integers(clusters, size=num_users)
    item_cluster = rng.integers(clusters, size=num_items)

    users, items = [], []
    n_in = np.round(0.9 * counts).astype(np.int64)
    for c in range(clusters):
        members = np.flatnonzero(item_cluster == c)
        cu = np.flatnonzero(user_cluster == c)
        keys = log_pop[members] + rng.gumbel(size=(len(cu), len(members)))
        ranked = np.argsort(-keys, axis=1)
        keep = np.arange(len(members)) < n_in[cu][:, None]
        users.append(np.broadcast_to(cu[:, None], ranked.shape)[keep])
        items.append(members[ranked[keep]])

    out_users = np.repeat(np.arange(num_users), counts - n_in)
    cdf = np.cumsum(np.exp(log_pop))
    picks = np.searchsorted(cdf, rng.random(len(out_users)) * cdf[-1], side="right")
    users.append(out_users)
    items.append(np.minimum(picks, num_items - 1))

    keys = np.unique(np.concatenate(users) * num_items + np.concatenate(items))
    return np.stack([keys // num_items, keys % num_items], axis=1)


def write_pairs(pairs: np.ndarray, path: Path) -> None:
    """The ``user<TAB>item`` text file that ``load_interactions`` reads."""
    np.savetxt(path, pairs, fmt="u%d\ti%d")


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    generate: Callable[[int], np.ndarray]  # seed -> (n, 2) int64 pairs
    train: bool               # False: rank from a checkpoint, train only for epoch_s
    epochs: int               # fixed epoch count, warm-up included
    evals: int                # timed predict + evaluate repetitions


# The shipped configs train with lr 0.001, at which a few epochs stay close to
# chance and Recall@20 varies a lot from seed to seed.  The train workloads use
# lr 0.01: the work per step is the same, and Recall@20 after the fixed epochs
# is well above chance, so a change to the arithmetic shows in it.
FAST_LR = {"lr": 0.01}

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="lastfm_train",
            config={**LASTFM_CFG, **FAST_LR},
            generate=lambda seed: aligned_blocks(600, 4800, 40, 27, 0.9, seed),
            train=True,
            epochs=5,
            evals=6,
        ),
        Workload(
            name="longtail_train",
            config={**YELP_CFG, **FAST_LR},
            generate=lambda seed: long_tail(2000, 3000, 16000, seed),
            train=True,
            epochs=5,
            evals=6,
        ),
        Workload(
            name="rank_all",
            config=YELP_CFG,
            generate=lambda seed: long_tail(2000, 16000, 10000, seed),
            train=False,
            epochs=3,
            evals=12,
        ),
    )
}
