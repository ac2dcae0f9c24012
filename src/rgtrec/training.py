"""Training orchestration: configs, model state, epochs and checkpoints.

One epoch: score every edge with the current attention parameters, draw
fresh rationale/masked/complement subgraphs, then iterate mini-batches.
``step_loss`` builds each batch's weighted objective on the caller's tape,
and one Adam step applies its gradients to the model.  With
``self_distill_ema`` on, the distillation term matches the model to an
exponential moving average of its own parameters (a mean teacher, held as
constants).  Evaluation and checkpointing use the trained model.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import logging
import math
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .attention import AttentionParams, attention_scores, edge_rationale_probs, residual_gt
from .data import InteractionDataset, BipartiteGraph, TRAIN, VAL, build_graph
from .evaluation import evaluate
from .losses import (EmbeddingBundle, LossReport, loss_bpr, loss_cir, loss_distill,
                     loss_mae, loss_rec, total_loss)
from .propagation import encode_masked, lightgcn_propagate
from .sampling import (SampledSubgraph, build_masked_graph, sample_complement,
                       sample_rationale)
from .seeding import substream
from .topology import TopologyEncoder, sample_anchors

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid configuration key or value."""


@dataclass
class TrainConfig:
    """Flat training configuration; every field doubles as a config-file key."""

    # architecture
    latdim: int = 64
    heads: int = 8
    gcn_layers: int = 1
    gt_layers: int = 1
    pnn_layers: int = 2
    anchor_set: int = 32
    q: int = 2
    # optimization
    batch_size: int = 4096
    lr: float = 0.001
    epochs: int = 100
    patience: int = 20
    # objective weights
    lambda_rec: float = 1.0
    lambda_mae: float = 1.0
    lambda_distill: float = 0.1
    lambda_ranking: float = 1.0
    lambda_contrast: float = 0.005
    lambda_reg: float = 0.0001
    temperature: float = 0.5
    # subgraph sampling rates
    rho_r: float = 0.5
    rho_m: float = 0.9
    rho_c: float = 0.1
    rec_candidates: int = 0  # 0 = score against the full item set
    # behavior switches
    seed: int = 0
    precision: str = "float32"
    use_topology: bool = True
    use_residual: bool = True
    self_distill_ema: float = 0.0  # > 0 switches to EMA self-distillation

    def validate(self) -> None:
        c = self
        for name, kind in _CONFIG_FIELDS.items():
            if kind == "float" and not math.isfinite(getattr(c, name)):
                raise ConfigError(f"{name} must be finite")
        checks = [
            (c.latdim >= 1, "latdim must be >= 1"),
            (c.heads >= 1, "heads must be >= 1"),
            (c.latdim % c.heads == 0, f"latdim {c.latdim} not divisible by heads {c.heads}"),
            (c.gcn_layers >= 1, "gcn_layers must be >= 1"),
            (c.gt_layers >= 1, "gt_layers must be >= 1"),
            (c.pnn_layers >= 1, "pnn_layers must be >= 1"),
            (c.anchor_set >= 1, "anchor_set must be >= 1"),
            (c.q >= 1, "q must be >= 1"),
            (c.batch_size >= 1, "batch_size must be >= 1"),
            (c.lr > 0, "lr must be positive"),
            (c.epochs >= 1, "epochs must be >= 1"),
            (c.patience >= 0, "patience must be >= 0"),
            (c.temperature > 0, "temperature must be positive"),
            (0 < c.rho_r <= 1, "rho_r must be in (0, 1]"),
            (0 < c.rho_m < 1, "rho_m must be in (0, 1)"),
            (c.rho_m > c.rho_r, "rho_m must exceed rho_r"),
            (0 < c.rho_c <= c.rho_m / 4, "rho_c must be in (0, rho_m / 4]"),
            (c.rec_candidates >= 0, "rec_candidates must be >= 0"),
            (c.precision in ("float32", "float64"), "precision must be float32 or float64"),
            (0.0 <= c.self_distill_ema < 1.0, "self_distill_ema must be in [0, 1)"),
        ] + [(getattr(c, name) >= 0, f"{name} must be >= 0")
             for name in _CONFIG_FIELDS if name.startswith("lambda_")]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def _coerce(key: str, raw: str):
    kind = _CONFIG_FIELDS[key]
    raw = raw.strip()
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        expected = "an integer" if kind == "int" else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None
    return raw


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}; valid keys: "
                              + ", ".join(sorted(_CONFIG_FIELDS)))
        out[key] = _coerce(key, value)
    return out


def load_config(path=None, overrides: dict | None = None) -> TrainConfig:
    values = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
        values.update(parse_config_text(text))
    for key, value in (overrides or {}).items():
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown config key {key!r}; valid keys: "
                              + ", ".join(sorted(_CONFIG_FIELDS)))
        values[key] = _coerce(key, str(value)) if isinstance(value, str) else value
    cfg = TrainConfig(**values)
    cfg.validate()
    return cfg


def dump_config(cfg: TrainConfig) -> str:
    lines = []
    for f in dataclasses.fields(TrainConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# model state
# ---------------------------------------------------------------------------


class ModelState:
    """All learnable parameters of one model, in ``cfg.precision``, with its
    graph and anchors.  ``role`` names the model in traces and errors."""

    def __init__(self, graph: BipartiteGraph, cfg: TrainConfig):
        self.role = "teacher"
        self.graph = graph
        seed = int(substream(cfg.seed, "init", "teacher").integers(0, 2**31 - 1))
        rng = substream(seed, "emb-init")
        bound = 0.5 / np.sqrt(cfg.latdim)
        self.emb = T.parameter(
            rng.uniform(-bound, bound, size=(graph.num_nodes, cfg.latdim)), cfg.precision)
        self.topo: TopologyEncoder | None = None
        if cfg.use_topology:
            self.topo = TopologyEncoder(graph, sample_anchors(graph, cfg.anchor_set, cfg.seed),
                                        cfg.q, cfg.latdim, cfg.pnn_layers, seed=seed,
                                        dtype=cfg.precision)
        self.attn = AttentionParams(cfg.latdim, cfg.heads, seed=seed, dtype=cfg.precision)

    def parameters(self) -> dict[str, T.Tensor]:
        params = {"emb": self.emb}
        if self.topo is not None:
            params.update(self.topo.parameters())
        params.update(self.attn.parameters())
        return params

    def assert_finite(self) -> None:
        for name, p in self.parameters().items():
            if not np.isfinite(p.values).all():
                raise FloatingPointError(f"parameter {name} became non-finite")

    def _arrays(self) -> dict[str, np.ndarray]:
        """The live arrays behind a snapshot, under their snapshot keys."""
        out = {f"param/{k}": p.values for k, p in self.parameters().items()}
        if self.topo is not None:
            out["anchors"] = self.topo.anchors
        return out

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self._arrays().items()}

    def check_snapshot(self, snap: dict[str, np.ndarray]) -> None:
        """Raise ``ValueError`` unless ``snap`` has the keys, array shapes and
        dtype kinds (integer or float) of ``snapshot()`` and the model's anchors."""
        targets = self._arrays()
        for problem, keys in (("missing", targets.keys() - snap.keys()),
                              ("unexpected", snap.keys() - targets.keys())):
            if keys:
                raise ValueError(f"{self.role} snapshot: {problem} "
                                 + ", ".join(sorted(keys)))
        for key, arr in snap.items():
            if targets[key].shape != arr.shape:
                raise ValueError(f"{self.role} snapshot: shape mismatch for {key}: "
                                 f"{arr.shape} vs {targets[key].shape}")
            if targets[key].dtype.kind != arr.dtype.kind:
                raise ValueError(f"{self.role} snapshot: dtype mismatch for {key}: "
                                 f"{arr.dtype} vs {targets[key].dtype}")
        if "anchors" in snap and not np.array_equal(snap["anchors"], targets["anchors"]):
            raise ValueError(f"{self.role} snapshot: anchors differ from the model's")

    def load_snapshot(self, snap: dict[str, np.ndarray]) -> None:
        """Restore from a snapshot; ``check_snapshot`` runs before anything loads."""
        self.check_snapshot(snap)
        targets = self._arrays()
        for key, arr in snap.items():
            if key != "anchors":
                targets[key][...] = arr


@dataclass
class DistillPair:
    """The trained model, ``teacher``, with its optimizer and config, plus its
    EMA copy ``ema`` in EMA mode: constants that only the EMA rule updates."""

    teacher: ModelState
    optimizer: T.Adam
    cfg: TrainConfig
    ema: ModelState | None = None
    epoch: int = 0

    def states(self) -> dict[str, ModelState]:
        out = {"teacher": self.teacher}
        if self.ema is not None:
            out["ema"] = self.ema
        return out


def init_pair(graph: BipartiteGraph, cfg: TrainConfig) -> DistillPair:
    """A fresh teacher and its Adam, plus in EMA mode a constant copy of it
    that shares its graph, anchors and ``omega``."""
    teacher = ModelState(graph, cfg)
    ema = None
    if cfg.self_distill_ema > 0.0:
        topo = teacher.topo
        shared = (graph,) if topo is None else (graph, topo.anchors, topo.omega)
        ema = copy.deepcopy(teacher, {id(x): x for x in shared})
        ema.role = "ema"
        for p in ema.parameters().values():
            p.requires_grad = False
    return DistillPair(teacher=teacher, optimizer=T.Adam(teacher.parameters(), lr=cfg.lr),
                       cfg=cfg, ema=ema)


# ---------------------------------------------------------------------------
# forward pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineOutputs:
    encoded: T.Tensor            # final embeddings from the masked pathway
    emb_rationale: T.Tensor
    emb_complement: T.Tensor


def run_pipeline(state: ModelState, g_masked: BipartiteGraph, g_rationale: BipartiteGraph,
                 g_complement: BipartiteGraph, cfg: TrainConfig) -> PipelineOutputs:
    """The masked-graph encoding and the rationale and complement propagations
    that the step's losses and distillation read."""
    s_local = lightgcn_propagate(g_masked, state.emb, cfg.gcn_layers)
    encoded = encode_masked(g_masked, s_local, state.topo, state.attn, cfg.gt_layers,
                            residual=cfg.use_residual)

    emb_r = lightgcn_propagate(g_rationale, state.emb, cfg.gcn_layers)
    emb_c = lightgcn_propagate(g_complement, state.emb, cfg.gcn_layers)
    return PipelineOutputs(encoded=encoded, emb_rationale=emb_r, emb_complement=emb_c)


def make_bundle(out: PipelineOutputs, num_users: int) -> EmbeddingBundle:
    users = T.take(out.encoded, np.arange(num_users))
    items = T.take(out.encoded, np.arange(num_users, out.encoded.shape[0]))
    contrast = T.concat([out.emb_rationale, out.emb_complement], axis=0)
    means = [T.reshape(T.tmean(emb, axis=0), (1, -1))
             for emb in (out.emb_rationale, out.encoded, out.emb_complement)]
    return EmbeddingBundle(user=users, item=items, contrast=contrast,
                           subgraph=T.concat(means, axis=0))


def rationale_score_table(state: ModelState, graph: BipartiteGraph) -> np.ndarray:
    """The (num_edges,) rationale probabilities of the current parameters
    (no gradients kept)."""
    h_bar = state.topo.encode(state.emb) if state.topo is not None else state.emb
    probs = edge_rationale_probs(attention_scores(h_bar, graph, state.attn).values, graph)
    drift = abs(float(probs.sum()) - 1.0)
    if drift > 1e-6:
        raise FloatingPointError(f"edge probabilities sum drifted by {drift:.2e}")
    return probs


def predict_embeddings(state: ModelState, graph: BipartiteGraph,
                       cfg: TrainConfig) -> np.ndarray:
    """Final prediction embeddings with the full observed graph substituted
    for the masked graph."""
    s_local = lightgcn_propagate(graph, state.emb, cfg.gcn_layers)
    encoded = encode_masked(graph, s_local, state.topo, state.attn, cfg.gt_layers,
                            residual=cfg.use_residual)
    return encoded.values.copy()


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def draw_subgraphs(probs: np.ndarray, cfg: TrainConfig,
                   epoch: int) -> tuple[SampledSubgraph, SampledSubgraph, SampledSubgraph]:
    """The rationale, masked and complement edge samples of ``epoch``."""
    seed = int(substream(cfg.seed, "subgraphs", epoch).integers(0, 2**31 - 1))
    return (sample_rationale(probs, cfg.rho_r, seed),
            build_masked_graph(probs, cfg.rho_m, seed),
            sample_complement(probs, cfg.rho_c, seed))


def negative_sample(graph: BipartiteGraph, batch_users: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """(user, positive item node, negative item node) triples.

    The positive is uniform over the user's train items; the negative is
    uniform over the items the user never interacted with in train.  Users
    without train items are skipped, users with every item with a warning.
    """
    users = np.asarray(batch_users, dtype=np.int64)
    degree = graph.degree[users]
    saturated = degree >= graph.num_items
    if saturated.any():
        log.warning("skipped %d users that interact with every item",
                    len(np.unique(users[saturated])))
    keep = (degree > 0) & ~saturated
    users, degree = users[keep], degree[keep]
    pos = graph.csr_neighbors[graph.csr_offsets[users] + rng.integers(degree)]
    neg = graph.sample_non_neighbors(users, rng)
    return np.stack([users, pos, neg], axis=1)


def _candidate_items(ds: InteractionDataset, batch_pairs: np.ndarray,
                     cfg: TrainConfig, rng: np.random.Generator) -> np.ndarray:
    """Item-node candidate set for the softmax denominator."""
    if cfg.rec_candidates <= 0 or cfg.rec_candidates >= ds.num_items:
        return np.arange(ds.num_users, ds.num_users + ds.num_items, dtype=np.int64)
    sampled = rng.choice(ds.num_items, size=cfg.rec_candidates, replace=False)
    items = np.union1d(sampled, batch_pairs[:, 1] - ds.num_users)
    return ds.num_users + items


# ---------------------------------------------------------------------------
# the epoch loop
# ---------------------------------------------------------------------------


def _check_report(report: LossReport, num_nodes: int, temperature: float) -> None:
    """Raise FloatingPointError when a loss term leaves its range.  Every
    term but ``contrast`` must be non-negative."""
    for name, value in report.as_dict().items():
        if name not in ("contrast", "total") and value < -1e-9:
            raise FloatingPointError(f"loss term {name} went negative: {value}")
    bound = 1.0 / temperature
    center = np.log(num_nodes)
    if not (center - bound - 1e-6 <= report.contrast <= center + bound + 1e-6):
        raise FloatingPointError(
            f"contrast loss {report.contrast:.4f} outside [{center - bound:.4f}, "
            f"{center + bound:.4f}]")


def epoch_views(state: ModelState, graph: BipartiteGraph, cfg: TrainConfig, epoch: int):
    """The epoch's rationale, masked and complement subgraphs, drawn from its
    starting rationale scores, and the (user, item node) edges masked out."""
    sub_r, sub_m, sub_c = draw_subgraphs(rationale_score_table(state, graph), cfg, epoch)
    return (sub_r.materialize(graph), sub_m.materialize(graph), sub_c.materialize(graph),
            graph.edge_list[sub_m.complement_indices(graph.num_edges)])


def step_loss(pair: DistillPair, ds: InteractionDataset, graph: BipartiteGraph, views: tuple,
              batch: np.ndarray, cfg: TrainConfig, epoch: int,
              step: int) -> tuple[T.Tensor, LossReport]:
    """The weighted objective of a batch of (user, item) train pairs over the
    ``epoch_views`` of ``epoch``, recorded on the active tape.  Its random
    draws depend only on ``(cfg.seed, epoch, step)``.  Only the teacher runs
    the rationale pathway (topology plus transformer on the full graph), which
    the ranking loss reads; the EMA forward records nothing."""
    g_rationale, g_masked, g_complement, masked_out = views
    batch_nodes = np.stack([batch[:, 0], ds.num_users + batch[:, 1]], axis=1)
    rng = substream(cfg.seed, "step", epoch, step)
    candidates = _candidate_items(ds, batch_nodes, cfg, rng)
    triples = negative_sample(graph, batch[:, 0], rng)

    teacher = pair.teacher
    h_bar = teacher.topo.encode(teacher.emb) if teacher.topo is not None else teacher.emb
    h_rgt = residual_gt(h_bar, graph, teacher.attn, cfg.gt_layers, residual=cfg.use_residual)
    out = run_pipeline(teacher, g_masked, g_rationale, g_complement, cfg)
    rec = loss_rec(out.encoded, batch_nodes, candidates)
    mae = loss_mae(out.encoded, masked_out, graph, rng)
    ranking = loss_bpr(h_rgt, triples)
    contrast = loss_cir(out.emb_rationale, out.emb_complement, cfg.temperature)
    distill = T.Tensor(0.0, dtype=teacher.emb.dtype)
    if pair.ema is not None:
        ema_out = run_pipeline(pair.ema, g_masked, g_rationale, g_complement, cfg)
        distill = loss_distill(make_bundle(out, ds.num_users), make_bundle(ema_out, ds.num_users))
    return total_loss(rec, mae, distill, ranking, contrast, cfg, teacher.parameters())


def train_epoch(pair: DistillPair, ds: InteractionDataset, graph: BipartiteGraph,
                cfg: TrainConfig, epoch: int, positives=None,
                step_writer=None) -> LossReport:
    """One pass over the train interactions; returns the mean loss report.

    Each step is one Adam step on the teacher; the EMA rule then moves the
    constant EMA parameters toward it.  ``step_writer``, when given, receives
    every per-step loss report as a dict (for the JSON-lines step log).
    """
    # ``positives`` is unused: negatives come from ``graph``; the keyword stays
    # only because the benchmark in perfbench/run.py still passes it
    views = epoch_views(pair.teacher, graph, cfg, epoch)
    train_pairs = ds.pairs(TRAIN)
    order = np.arange(len(train_pairs))
    substream(cfg.seed, "batches", epoch).shuffle(order)

    reports: list[LossReport] = []
    for step, start in enumerate(range(0, len(order), cfg.batch_size)):
        batch = train_pairs[order[start:start + cfg.batch_size]]
        with T.Tape() as tape:
            total, report = step_loss(pair, ds, graph, views, batch, cfg, epoch, step)
            # the gradients go straight to Adam, so none outlives the step
            pair.optimizer.step(T.backward(total, tape))
        pair.teacher.assert_finite()
        if pair.ema is not None:
            mu = cfg.self_distill_ema
            for p, t in zip(pair.ema.parameters().values(), pair.teacher.parameters().values()):
                p.values *= mu
                p.values += (1.0 - mu) * t.values

        _check_report(report, graph.num_nodes, cfg.temperature)
        if step_writer is not None:
            step_writer({"epoch": epoch, "step": step, **report.as_dict()})
        reports.append(report)

    return LossReport(**{f.name: float(np.mean([getattr(r, f.name) for r in reports]))
                         for f in dataclasses.fields(LossReport)})


# ---------------------------------------------------------------------------
# fit with early stopping
# ---------------------------------------------------------------------------


def fit(ds: InteractionDataset, cfg: TrainConfig, out_dir=None) -> tuple[DistillPair, list[dict]]:
    """Train until the epoch limit or until validation Recall@20 stops
    improving for ``patience`` epochs (0 disables early stopping).

    Returns the pair with the best-validation parameters restored (it trained
    on ``pair.teacher.graph``), plus the per-epoch history.  When ``out_dir``
    is given, a JSON-lines log, the best
    checkpoint and a crash checkpoint (when a loss or parameter check fails)
    are written.
    """
    cfg.validate()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    graph = build_graph(ds)
    pair = init_pair(graph, cfg)

    has_val = bool((ds.split_assignment == VAL).any())
    if not has_val:
        log.warning("validation split is empty; early stopping disabled")

    log_fh = (out_path / "train_log.jsonl").open("w", encoding="utf-8") if out_path else None
    step_fh = (out_path / "steps.jsonl").open("w", encoding="utf-8") if out_path else None
    step_writer = None
    if step_fh is not None:
        def step_writer(record):
            step_fh.write(json.dumps(record) + "\n")
    history: list[dict] = []
    best_metric = -np.inf
    best_snapshot = None
    best_epoch = -1
    epochs_since_best = 0

    try:
        for epoch in range(cfg.epochs):
            summary = train_epoch(pair, ds, graph, cfg, epoch, step_writer=step_writer)
            record = {"epoch": epoch, **summary.as_dict()}

            if has_val:
                s_eval = predict_embeddings(pair.teacher, graph, cfg)
                val = evaluate(s_eval, ds, VAL)
                record.update({f"val_{k}": v for k, v in val.summary().items()})
                metric = val.macro("recall", 20)
                if metric > best_metric:
                    best_metric = metric
                    best_snapshot = {role: state.snapshot()
                                     for role, state in pair.states().items()}
                    best_epoch = epoch
                    epochs_since_best = 0
                else:
                    epochs_since_best += 1

            pair.epoch = epoch + 1
            history.append(record)
            if log_fh is not None:
                log_fh.write(json.dumps(record) + "\n")
                log_fh.flush()
            log.info("epoch %d: total=%.4f%s", epoch, summary.total,
                     f" val_recall@20={record.get('val_recall@20', float('nan')):.4f}"
                     if has_val else "")

            if has_val and cfg.patience > 0 and epochs_since_best >= cfg.patience:
                log.info("early stop at epoch %d (best epoch %d)", epoch, best_epoch)
                break
    except FloatingPointError as exc:
        if out_path is not None:
            write_checkpoint(out_path / "crash.ckpt", pair)
            log.error("%s; crash checkpoint written to %s", exc, out_path / "crash.ckpt")
        raise
    finally:
        if log_fh is not None:
            log_fh.close()
        if step_fh is not None:
            step_fh.close()

    if best_snapshot is not None:
        for role, state in pair.states().items():
            state.load_snapshot(best_snapshot[role])
        pair.epoch = best_epoch + 1
    if out_path is not None:
        write_checkpoint(out_path / "model.ckpt", pair)
    return pair, history


# ---------------------------------------------------------------------------
# checkpoint format: a stored zip of .npy members, each with its CRC-32
# ---------------------------------------------------------------------------

_VERSION = 5  # 4: the served model in RGTR blocks; 5: the same members in a zip


def write_checkpoint(path, pair: DistillPair) -> None:
    """Write the version, epoch, config text, graph hash and the teacher's
    parameters and anchors: the served model, without the EMA model or optimizer
    that only shape training.  Members are dated 1980-01-01, so equal pairs give
    equal bytes.  A synced temporary file beside ``path`` replaces ``path``, so a
    failed write leaves the previous checkpoint intact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    members = {"version": np.int64(_VERSION), "epoch": np.int64(pair.epoch),
               "config": np.str_(dump_config(pair.cfg)),
               "graph": np.str_(pair.teacher.graph.content_hash()),
               **pair.teacher._arrays()}
    try:
        with tmp.open("wb") as fh:
            with zipfile.ZipFile(fh, "w") as zf:
                for name, arr in members.items():
                    with zf.open(name, "w") as member:
                        np.lib.format.write_array(member, np.asarray(arr), allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_checkpoint(path) -> dict[str, np.ndarray]:
    """The members of a checkpoint.  Each is read whole, which checks its
    CRC-32, before it is parsed, so anything but an intact zip of ``.npy``
    members raises ``ValueError`` naming the file."""
    path = Path(path)
    with path.open("rb") as fh:
        try:
            with zipfile.ZipFile(fh) as zf:
                return {name: np.lib.format.read_array(io.BytesIO(zf.read(name)),
                                                       allow_pickle=False)
                        for name in zf.namelist()}
        except (zipfile.BadZipFile, EOFError, MemoryError, NotImplementedError, OSError,
                RuntimeError, ValueError, zlib.error) as exc:
            raise ValueError(f"{path} is not a readable checkpoint: {exc}") from None


def _header(path, members: dict[str, np.ndarray]) -> tuple[int, str, str]:
    """Pop the version, epoch, config text and graph hash, and return the last
    three; ``ValueError`` names the first one missing or not a scalar of its
    kind, or the version when it is not this one."""
    values = []
    for name, kind in (("version", "i"), ("epoch", "i"), ("config", "U"), ("graph", "U")):
        if name not in members:
            raise ValueError(f"{path}: checkpoint has no {name} member")
        arr = members.pop(name)
        if arr.shape != () or arr.dtype.kind != kind:
            expected = "an integer" if kind == "i" else "a string"
            raise ValueError(f"{path}: {name} member is {arr.dtype} {arr.shape}, "
                             f"not {expected} scalar")
        values.append(arr.item())
    version, epoch, config, graph = values
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    return epoch, config, graph


def checkpoint_config(path) -> TrainConfig:
    """The config a checkpoint was trained with."""
    _, text, _ = _header(path, read_checkpoint(path))
    try:
        return load_config(None, parse_config_text(text))
    except ConfigError as exc:
        raise ValueError(f"{path}: malformed config member: {exc}") from None


def load_checkpoint_into(path, pair: DistillPair) -> None:
    """Load the served model of a checkpoint into ``pair.teacher``, all or
    nothing: ``ValueError``, raised before anything loads, when the file is
    unreadable, when a header member is missing or malformed, when the config
    text is not ``pair.cfg``'s, when the graph hash is not the teacher graph's,
    or when the keys, shapes, dtype kinds or anchors differ from the teacher's
    snapshot."""
    members = read_checkpoint(path)
    epoch, config, graph_hash = _header(path, members)
    if config != dump_config(pair.cfg):
        raise ValueError(f"{path}: checkpoint config differs from the model's")
    current = pair.teacher.graph.content_hash()
    if graph_hash != current:
        raise ValueError(f"{path}: checkpoint graph {graph_hash!r} differs from "
                         f"this data's graph {current!r}")
    pair.teacher.load_snapshot(members)
    pair.epoch = epoch
