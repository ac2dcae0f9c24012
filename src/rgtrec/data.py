"""Interaction data loading, per-user splitting and the bipartite graph.

Users and items are reindexed to contiguous 0-based ids in order of first
appearance.  Node ids place all users first: user u is node u, item i is node
``num_users + i``.  The graph is built from the train split only, so ranking
targets can never leak into message passing.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .seeding import substream

log = logging.getLogger(__name__)

TRAIN, VAL, TEST = 0, 1, 2
SPLIT_NAMES = ("train", "val", "test")


class DataFormatError(ValueError):
    """Raised for malformed or empty interaction files."""


@dataclass
class InteractionDataset:
    """Deduplicated user-item interaction pairs with an optional split."""

    num_users: int
    num_items: int
    interactions: np.ndarray  # (n, 2) int64 of (user, item)
    user_tokens: list[str] = field(default_factory=list)
    item_tokens: list[str] = field(default_factory=list)
    split_assignment: np.ndarray | None = None  # (n,) int8 in {TRAIN, VAL, TEST}

    def __post_init__(self):
        if not self.user_tokens:
            self.user_tokens = [str(u) for u in range(self.num_users)]
        if not self.item_tokens:
            self.item_tokens = [str(i) for i in range(self.num_items)]

    @property
    def num_interactions(self) -> int:
        return len(self.interactions)

    def mask(self, split: int) -> np.ndarray:
        if self.split_assignment is None:
            raise ValueError("dataset has not been split")
        return self.split_assignment == split

    def pairs(self, split: int) -> np.ndarray:
        return self.interactions[self.mask(split)]

    def positives_by_user(self, split: int) -> list[np.ndarray]:
        """Item indices per user within one split (sorted, possibly empty)."""
        out: list[list[int]] = [[] for _ in range(self.num_users)]
        for u, i in self.pairs(split):
            out[u].append(i)
        return [np.asarray(sorted(items), dtype=np.int64) for items in out]


def load_interactions(path, format: str = "tsv_pairs") -> InteractionDataset:
    """Read one interaction per line, reindexing tokens to dense 0-based ids.

    Lines starting with ``#`` are ignored, duplicates collapse to a single
    pair, and malformed lines are reported with their 1-based line number.
    """
    if format not in ("tsv_pairs", "csv_pairs"):
        raise ValueError(f"unknown format {format!r}; expected tsv_pairs or csv_pairs")
    sep = "\t" if format == "tsv_pairs" else ","
    path = Path(path)

    users: dict[str, int] = {}
    items: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()

    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(sep)]
            if len(parts) < 2 or not parts[0] or not parts[1]:
                raise DataFormatError(f"{path}:{lineno}: expected <user>{sep!r}<item>, got {raw!r}")
            u = users.setdefault(parts[0], len(users))
            i = items.setdefault(parts[1], len(items))
            if (u, i) not in seen:
                seen.add((u, i))
                pairs.append((u, i))

    if not pairs:
        raise DataFormatError(f"{path}: no interactions found")

    ds = InteractionDataset(
        num_users=len(users),
        num_items=len(items),
        interactions=np.asarray(pairs, dtype=np.int64),
        user_tokens=list(users),
        item_tokens=list(items),
    )
    log.info("loaded %s: %d users, %d items, %d interactions",
             path, ds.num_users, ds.num_items, ds.num_interactions)
    return ds


def _allocate(n: int, ratios: tuple[float, float, float]) -> list[int]:
    """Largest-remainder allocation of n interactions across three buckets."""
    quotas = [n * r for r in ratios]
    counts = [int(q) for q in quotas]
    order = sorted(range(3), key=lambda s: quotas[s] - counts[s], reverse=True)
    for s in order[: n - sum(counts)]:
        counts[s] += 1
    return counts


def split(ds: InteractionDataset, ratios=(0.7, 0.05, 0.25), seed: int = 0) -> InteractionDataset:
    """Per-user stratified random assignment into train/val/test.

    Bucket sizes follow the ratios to within one interaction per user; users
    with fewer than 3 interactions always keep at least one train interaction.
    Deterministic for a fixed seed.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3:
        raise ValueError("ratios must have three entries")
    if any(r < 0 for r in ratios):
        raise ValueError(f"negative split ratio in {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")

    assignment = np.empty(ds.num_interactions, dtype=np.int8)
    by_user: dict[int, list[int]] = {}
    for row, (u, _) in enumerate(ds.interactions):
        by_user.setdefault(int(u), []).append(row)

    for u, rows in by_user.items():
        rng = substream(seed, "split", u)
        rows = np.asarray(rows)
        rng.shuffle(rows)
        n = len(rows)
        n_train, n_val, n_test = _allocate(n, ratios)
        if n < 3 and n_train == 0:
            if n_test >= n_val:
                n_test -= 1
            else:
                n_val -= 1
            n_train += 1
        assignment[rows[:n_train]] = TRAIN
        assignment[rows[n_train:n_train + n_val]] = VAL
        assignment[rows[n_train + n_val:]] = TEST

    return replace(ds, split_assignment=assignment)


@dataclass
class BipartiteGraph:
    """Symmetric CSR adjacency over user and item nodes, train edges only."""

    num_users: int
    num_items: int
    csr_offsets: np.ndarray   # (num_nodes + 1,)
    csr_neighbors: np.ndarray  # (2 * num_edges,)
    csr_edge_ids: np.ndarray   # undirected edge id per directed slot
    edge_list: np.ndarray      # (num_edges, 2) with user node < item node
    degree: np.ndarray         # (num_nodes,)

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    @property
    def num_edges(self) -> int:
        return len(self.edge_list)

    def neighbors(self, node: int) -> np.ndarray:
        return self.csr_neighbors[self.csr_offsets[node]:self.csr_offsets[node + 1]]

    @cached_property
    def directed_src(self) -> np.ndarray:
        """Source node of every directed CSR slot (repeats each node by degree).
        Computed once per graph; the CSR arrays are never modified."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self.csr_offsets))

    def edge_subgraph(self, edge_indices: np.ndarray) -> "BipartiteGraph":
        """Graph over the same node set restricted to the given edge ids."""
        edges = self.edge_list[np.asarray(edge_indices, dtype=np.int64)]
        return build_graph_from_edges(self.num_users, self.num_items, edges)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.asarray([self.num_users, self.num_items], dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.edge_list).tobytes())
        return h.hexdigest()[:16]


def build_graph_from_edges(num_users: int, num_items: int, edges: np.ndarray) -> BipartiteGraph:
    num_nodes = num_users + num_items
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges):
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]

    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    eid = np.concatenate([np.arange(len(edges))] * 2)
    degree = np.bincount(src, minlength=num_nodes).astype(np.int64)
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(degree, out=offsets[1:])

    order = np.lexsort((dst, src))
    return BipartiteGraph(
        num_users=num_users,
        num_items=num_items,
        csr_offsets=offsets,
        csr_neighbors=dst[order],
        csr_edge_ids=eid[order],
        edge_list=edges,
        degree=degree,
    )


def build_graph(ds: InteractionDataset) -> BipartiteGraph:
    """Bipartite graph over the train split; item node index = num_users + item."""
    if ds.split_assignment is None:
        raise ValueError("split the dataset before building the graph")
    train_pairs = ds.pairs(TRAIN)
    edges = np.stack([train_pairs[:, 0], ds.num_users + train_pairs[:, 1]], axis=1)
    return build_graph_from_edges(ds.num_users, ds.num_items, edges)


# ---------------------------------------------------------------------------
# prepared-directory manifest files
# ---------------------------------------------------------------------------


def save_prepared(ds: InteractionDataset, out_dir) -> None:
    """Write ``splits.tsv`` (user, item, split) and ``ids.tsv`` (kind, token, index)."""
    if ds.split_assignment is None:
        raise ValueError("cannot save an unsplit dataset")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "splits.tsv").open("w", encoding="utf-8") as fh:
        fh.write("user\titem\tsplit\n")
        for (u, i), s in zip(ds.interactions, ds.split_assignment):
            fh.write(f"{ds.user_tokens[u]}\t{ds.item_tokens[i]}\t{SPLIT_NAMES[s]}\n")
    with (out / "ids.tsv").open("w", encoding="utf-8") as fh:
        fh.write("kind\ttoken\tindex\n")
        for idx, tok in enumerate(ds.user_tokens):
            fh.write(f"user\t{tok}\t{idx}\n")
        for idx, tok in enumerate(ds.item_tokens):
            fh.write(f"item\t{tok}\t{idx}\n")


def load_prepared(data_dir) -> InteractionDataset:
    """Rebuild a split dataset from ``splits.tsv`` + ``ids.tsv``."""
    data = Path(data_dir)
    users: dict[str, int] = {}
    items: dict[str, int] = {}
    with (data / "ids.tsv").open("r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            kind, token, idx = line.rstrip("\n").split("\t")
            (users if kind == "user" else items)[token] = int(idx)

    pairs: list[tuple[int, int]] = []
    assignment: list[int] = []
    split_code = {name: code for code, name in enumerate(SPLIT_NAMES)}
    with (data / "splits.tsv").open("r", encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            u_tok, i_tok, s_name = line.rstrip("\n").split("\t")
            pairs.append((users[u_tok], items[i_tok]))
            assignment.append(split_code[s_name])

    user_tokens = [t for t, _ in sorted(users.items(), key=lambda kv: kv[1])]
    item_tokens = [t for t, _ in sorted(items.items(), key=lambda kv: kv[1])]
    return InteractionDataset(
        num_users=len(users),
        num_items=len(items),
        interactions=np.asarray(pairs, dtype=np.int64),
        user_tokens=user_tokens,
        item_tokens=item_tokens,
        split_assignment=np.asarray(assignment, dtype=np.int8),
    )
