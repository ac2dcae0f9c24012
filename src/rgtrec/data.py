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
        users, items = self.pairs(split).T
        order = np.lexsort((items, users))
        ends = np.cumsum(np.bincount(users, minlength=self.num_users))
        return np.split(items[order], ends[:-1])


def _text_lines(path: Path):
    """(1-based line number, line) of a UTF-8 text file; a byte that is not
    UTF-8 raises ``DataFormatError`` naming the file."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


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

    for lineno, raw in _text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(sep)]
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise DataFormatError(f"{path}:{lineno}: expected <user>{sep!r}<item>, got {raw!r}")
        if "\t" in parts[0] or "\t" in parts[1]:  # ids.tsv could not hold it
            raise DataFormatError(f"{path}:{lineno}: a token contains a tab, got {raw!r}")
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
    if not np.isfinite(ratios).all():
        raise ValueError(f"non-finite split ratio in {ratios}")
    if any(r < 0 for r in ratios):
        raise ValueError(f"negative split ratio in {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {sum(ratios)}")

    assignment = np.empty(ds.num_interactions, dtype=np.int8)
    users = ds.interactions[:, 0]
    by_user = np.argsort(users, kind="stable")  # each user's rows, in row order
    counts = np.bincount(users, minlength=ds.num_users)
    ends = np.cumsum(counts)
    for u in np.flatnonzero(counts):
        rng = substream(seed, "split", u)
        rows = by_user[ends[u] - counts[u]:ends[u]]
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
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    @property
    def num_edges(self) -> int:
        return len(self.edge_list)

    @cached_property
    def directed_src(self) -> np.ndarray:
        """Source node of every directed CSR slot (repeats each node by degree).
        Computed once per graph; the CSR arrays are never modified."""
        return np.repeat(np.arange(self.num_nodes), np.diff(self.csr_offsets))

    def operator(self, key, build):
        """``build(self)``, computed once per ``key`` and kept with the graph:
        the sparse operators of the graph kernels, keyed by what they depend
        on (head count, dtype).  The CSR arrays are never modified, so a kept
        operator never goes stale; a sampled subgraph keeps its operators for
        its epoch, the full graph for the whole run."""
        if key not in self._operators:
            self._operators[key] = build(self)
        return self._operators[key]

    @cached_property
    def _non_neighbor_keys(self) -> np.ndarray:
        """``u * (num_items + 1) + (p_k - k)`` for the k-th sorted neighbour
        item ``p_k`` of every user ``u``: ``p_k - k`` counts the user's
        non-neighbours below ``p_k``, so the array is sorted.  User rows only;
        item rows would break the order."""
        slots = np.arange(self.csr_offsets[self.num_users])
        users = self.directed_src[:len(slots)]
        below = self.csr_neighbors[slots] - self.num_users - (slots - self.csr_offsets[users])
        return users * (self.num_items + 1) + below

    def sample_non_neighbors(self, user_nodes: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
        """One uniform item node per entry of ``user_nodes`` that the user has
        no edge to.  Draws ``r`` below the user's non-neighbour count; the
        r-th non-neighbour is ``r`` plus the neighbours whose
        ``p_k - k <= r``.  ``ValueError`` names a user with every item."""
        users = np.asarray(user_nodes, dtype=np.int64)
        free = self.num_items - self.degree[users]
        if (free <= 0).any():
            raise ValueError(f"user node {users[free <= 0][0]} interacts with every item")
        r = rng.integers(free)
        before = np.searchsorted(self._non_neighbor_keys,
                                 users * (self.num_items + 1) + r, side="right")
        return self.num_users + r + before - self.csr_offsets[users]

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


def _tsv_rows(path: Path, columns: int):
    """(line number, fields) of each row after the header line; a file with no
    header or a row without exactly ``columns`` fields raises ``DataFormatError``."""
    lines = _text_lines(path)
    if next(lines, None) is None:
        raise DataFormatError(f"{path}: empty file; expected a header line")
    for lineno, line in lines:
        fields = line.rstrip("\n").split("\t")
        if len(fields) != columns:
            raise DataFormatError(f"{path}:{lineno}: expected {columns} tab-separated "
                                  f"fields, got {len(fields)}")
        yield lineno, fields


def load_prepared(data_dir) -> InteractionDataset:
    """Rebuild a split dataset from ``splits.tsv`` + ``ids.tsv``.  A malformed
    row, or a (user, item) pair listed twice, raises ``DataFormatError``
    naming its file and line."""
    data = Path(data_dir)
    ids: dict[str, dict[str, int]] = {"user": {}, "item": {}}
    path = data / "ids.tsv"
    for lineno, (kind, token, idx) in _tsv_rows(path, 3):
        table = ids.get(kind)
        if table is None:
            raise DataFormatError(f"{path}:{lineno}: unknown kind {kind!r}; "
                                  "expected user or item")
        if token in table or idx != str(len(table)):
            raise DataFormatError(f"{path}:{lineno}: expected a new {kind} token "
                                  f"with index {len(table)}")
        table[token] = len(table)

    first_line: dict[tuple[int, int], int] = {}  # pair -> line, in file order
    assignment: list[int] = []
    split_code = {name: code for code, name in enumerate(SPLIT_NAMES)}
    path = data / "splits.tsv"
    for lineno, (u_tok, i_tok, s_name) in _tsv_rows(path, 3):
        for kind, token in (("user", u_tok), ("item", i_tok)):
            if token not in ids[kind]:
                raise DataFormatError(f"{path}:{lineno}: {kind} {token!r} is not in ids.tsv")
        if s_name not in split_code:
            raise DataFormatError(f"{path}:{lineno}: unknown split {s_name!r}; "
                                  "expected train, val or test")
        first = first_line.setdefault((ids["user"][u_tok], ids["item"][i_tok]), lineno)
        if first != lineno:
            raise DataFormatError(f"{path}:{lineno}: user {u_tok!r} and item {i_tok!r} "
                                  f"already listed on line {first}")
        assignment.append(split_code[s_name])
    if not first_line:
        raise DataFormatError(f"{path}: no interactions")

    return InteractionDataset(
        num_users=len(ids["user"]),
        num_items=len(ids["item"]),
        interactions=np.asarray(list(first_line), dtype=np.int64),
        user_tokens=list(ids["user"]),
        item_tokens=list(ids["item"]),
        split_assignment=np.asarray(assignment, dtype=np.int8),
    )
