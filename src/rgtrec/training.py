"""Training orchestration: configs, model state, epochs and checkpoints.

One epoch: score every edge with the current attention parameters, draw
fresh rationale/masked/complement subgraphs, then iterate mini-batches.
Each batch runs the forward pipeline under a tape, assembles the weighted
objective, and applies one Adam step to the main model; a separately
initialized mimic model then matches the main model's embedding bundles
through the distillation loss and takes its own Adam step.  Evaluation and
checkpointing always use the main model.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .attention import AttentionParams, attention_scores, edge_rationale_probs, residual_gt
from .data import InteractionDataset, BipartiteGraph, TRAIN, VAL, build_graph
from .evaluation import evaluate
from .losses import (EmbeddingBundle, LossReport, LossWeights, loss_bpr, loss_cir,
                     loss_distill, loss_mae, loss_rec, total_loss)
from .propagation import PropagationConfig, encode_masked, lightgcn_propagate
from .sampling import build_masked_graph, sample_complement, sample_rationale
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
    combination: str = "mean_of_layers"
    # optimization
    batch_size: int = 4096
    lr: float = 0.001
    epochs: int = 100
    patience: int = 20
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
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
    mae_negatives: int = 1
    rec_candidates: int = 0  # 0 = score against the full item set
    # behavior switches
    seed: int = 0
    determinism: bool = False
    precision: str = "float32"
    use_topology: bool = True
    use_residual: bool = True
    use_distillation: bool = True
    resample_anchors_per_epoch: bool = False
    # literal_mae: reconstruction as the unbounded mean of raw negative scores.
    # mae (and so total) may then go negative; the per-step sign guard skips
    # mae, and total_loss still rejects a non-finite mae.
    literal_mae: bool = False
    self_distill_ema: float = 0.0  # > 0 switches to EMA self-distillation
    # tuning-sweep keys kept for config compatibility; not bound to a term
    ssl_reg: float = 0.5
    b2: float = 1.0
    gtw: float = 0.1

    def validate(self) -> None:
        c = self
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
            (c.rho_m > c.rho_r or not (0 < c.rho_r < 1), "rho_m must exceed rho_r"),
            (0 < c.rho_c <= c.rho_m / 4, "rho_c must be in (0, rho_m / 4]"),
            (c.mae_negatives >= 0, "mae_negatives must be >= 0"),
            (c.rec_candidates >= 0, "rec_candidates must be >= 0"),
            (c.precision in ("float32", "float64"), "precision must be float32 or float64"),
            (c.combination in ("mean_of_layers", "last_layer"), "unknown combination mode"),
            (0.0 <= c.self_distill_ema < 1.0, "self_distill_ema must be in [0, 1)"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        for name in ("lambda_rec", "lambda_mae", "lambda_distill", "lambda_ranking",
                     "lambda_contrast", "lambda_reg"):
            if getattr(c, name) < 0:
                raise ConfigError(f"{name} must be >= 0")

    def loss_weights(self) -> LossWeights:
        return LossWeights(rec=self.lambda_rec, mae=self.lambda_mae,
                           distill=self.lambda_distill, ranking=self.lambda_ranking,
                           contrast=self.lambda_contrast, reg=self.lambda_reg,
                           temperature=self.temperature)


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
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
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
        values.update(parse_config_text(Path(path).read_text(encoding="utf-8")))
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


def _role_seed(seed: int, role: str) -> int:
    return int(substream(seed, "init", role).integers(0, 2**31 - 1))


class ModelState:
    """All learnable parameters of one model plus its optimizer."""

    def __init__(self, graph: BipartiteGraph, cfg: TrainConfig, role: str,
                 anchors=None, topo_tables=None, cache_dir=None):
        self.role = role
        self.graph = graph
        seed = _role_seed(cfg.seed, role)
        rng = substream(seed, "emb-init")
        bound = 0.5 / np.sqrt(cfg.latdim)
        self.emb = T.parameter(
            rng.uniform(-bound, bound, size=(graph.num_nodes, cfg.latdim)), name="emb")
        self.topo: TopologyEncoder | None = None
        if cfg.use_topology:
            self.topo = TopologyEncoder(graph, cfg.anchor_set, cfg.q, cfg.latdim,
                                        cfg.pnn_layers, seed=seed, anchors=anchors,
                                        tables=topo_tables, cache_dir=cache_dir)
        self.attn = AttentionParams(cfg.latdim, cfg.heads, seed=seed)
        self.optimizer = T.Adam(self.parameters(), lr=cfg.lr,
                                betas=(cfg.adam_beta1, cfg.adam_beta2), eps=cfg.adam_eps)

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

    def snapshot(self) -> dict[str, np.ndarray]:
        out = {f"param/{k}": p.values.copy() for k, p in self.parameters().items()}
        out.update({f"adam/m/{k}": v.copy() for k, v in self.optimizer.m.items()})
        out.update({f"adam/v/{k}": v.copy() for k, v in self.optimizer.v.items()})
        out["adam/t"] = np.asarray([self.optimizer.t], dtype=np.int64)
        if self.topo is not None:
            out["anchors"] = self.topo.anchors.node_indices.copy()
        return out

    def load_snapshot(self, snap: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        for key, arr in snap.items():
            if key == "adam/t":
                self.optimizer.t = int(arr[0])
                continue
            if key == "anchors":
                if self.topo is None:
                    raise ValueError("snapshot has anchors but topology is disabled")
                if not np.array_equal(arr, self.topo.anchors.node_indices):
                    from .topology import AnchorSet
                    self.topo.refresh_tables(self.graph, AnchorSet(arr.copy(), seed=-1))
                continue
            section, _, name = key.partition("/")
            if section == "param":
                target = params[name].values
            elif key.startswith("adam/m/"):
                target = self.optimizer.m[key[len("adam/m/"):]]
            elif key.startswith("adam/v/"):
                target = self.optimizer.v[key[len("adam/v/"):]]
            else:
                raise ValueError(f"unknown snapshot key {key!r}")
            if target.shape != arr.shape:
                raise ValueError(f"snapshot shape mismatch for {key}: "
                                 f"{arr.shape} vs {target.shape}")
            target[...] = arr


@dataclass
class DistillPair:
    """Main model plus the auxiliary model used by the distillation loss."""

    teacher: ModelState
    student: ModelState | None = None
    ema: ModelState | None = None
    epoch: int = 0

    def states(self) -> dict[str, ModelState]:
        out = {"teacher": self.teacher}
        if self.student is not None:
            out["student"] = self.student
        if self.ema is not None:
            out["ema"] = self.ema
        return out


def init_pair(graph: BipartiteGraph, cfg: TrainConfig, cache_dir=None) -> DistillPair:
    anchors = sample_anchors(graph, cfg.anchor_set, cfg.seed) if cfg.use_topology else None
    teacher = ModelState(graph, cfg, "teacher", anchors=anchors, cache_dir=cache_dir)
    tables = teacher.topo.tables if teacher.topo is not None else None
    student = None
    ema = None
    if cfg.self_distill_ema > 0.0:
        ema = ModelState(graph, cfg, "teacher", anchors=anchors, topo_tables=tables)
        for name, p in ema.parameters().items():
            p.values[...] = teacher.parameters()[name].values
    elif cfg.use_distillation:
        student = ModelState(graph, cfg, "student", anchors=anchors, topo_tables=tables)
    return DistillPair(teacher=teacher, student=student, ema=ema)


# ---------------------------------------------------------------------------
# forward pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineOutputs:
    rationale_pathway: T.Tensor  # topology + transformer on the full graph
    encoded: T.Tensor            # final embeddings from the masked pathway
    emb_rationale: T.Tensor
    emb_complement: T.Tensor


def run_pipeline(state: ModelState, graph: BipartiteGraph, g_masked: BipartiteGraph,
                 g_rationale: BipartiteGraph, g_complement: BipartiteGraph,
                 cfg: TrainConfig) -> PipelineOutputs:
    prop = PropagationConfig(cfg.gcn_layers, cfg.combination)
    h_bar = state.topo.encode(state.emb) if state.topo is not None else state.emb
    h_rgt = residual_gt(h_bar, graph, state.attn, cfg.gt_layers, residual=cfg.use_residual)

    s_local = lightgcn_propagate(g_masked, state.emb, prop)
    encoded = encode_masked(g_masked, s_local, state.topo, state.attn, cfg.gt_layers,
                            residual=cfg.use_residual, use_topology=cfg.use_topology)

    emb_r = lightgcn_propagate(g_rationale, state.emb, prop)
    emb_c = lightgcn_propagate(g_complement, state.emb, prop)
    return PipelineOutputs(rationale_pathway=h_rgt, encoded=encoded,
                           emb_rationale=emb_r, emb_complement=emb_c)


def make_bundle(out: PipelineOutputs, num_users: int) -> EmbeddingBundle:
    users = T.take(out.encoded, np.arange(num_users))
    items = T.take(out.encoded, np.arange(num_users, out.encoded.shape[0]))
    contrast = T.concat([out.emb_rationale, out.emb_complement], axis=0)
    means = [T.reshape(T.tmean(emb, axis=0), (1, -1))
             for emb in (out.emb_rationale, out.encoded, out.emb_complement)]
    return EmbeddingBundle(user=users, item=items, contrast=contrast,
                           subgraph=T.concat(means, axis=0))


def rationale_score_table(state: ModelState, graph: BipartiteGraph, cfg: TrainConfig):
    """Edge probabilities from the current parameters (no gradients kept)."""
    h_bar = state.topo.encode(state.emb) if state.topo is not None else state.emb
    table = edge_rationale_probs(attention_scores(h_bar, graph, state.attn), graph)
    drift = abs(float(table.probs.sum()) - 1.0)
    if drift > 1e-6:
        raise FloatingPointError(f"edge probabilities sum drifted by {drift:.2e}")
    return table


def predict_embeddings(state: ModelState, graph: BipartiteGraph,
                       cfg: TrainConfig) -> np.ndarray:
    """Final prediction embeddings with the full observed graph substituted
    for the masked graph."""
    prop = PropagationConfig(cfg.gcn_layers, cfg.combination)
    s_local = lightgcn_propagate(graph, state.emb, prop)
    encoded = encode_masked(graph, s_local, state.topo, state.attn, cfg.gt_layers,
                            residual=cfg.use_residual, use_topology=cfg.use_topology)
    return encoded.values.copy()


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def negative_sample(ds: InteractionDataset, batch_users: np.ndarray,
                    rng: np.random.Generator,
                    positives: list[np.ndarray] | None = None) -> np.ndarray:
    """(user, positive item node, negative item node) triples.

    The positive is uniform over the user's train items; the negative is
    rejection-sampled uniformly from items the user never interacted with in
    train.  Users interacting with every item are skipped with a warning.
    Each user's positive set is built once per call.
    """
    if positives is None:
        positives = ds.positives_by_user(TRAIN)
    triples = []
    skipped = 0
    pos_sets: dict[int, set] = {}
    for u in batch_users.tolist():
        pos_items = positives[u]
        if len(pos_items) == 0:
            continue
        if len(pos_items) >= ds.num_items:
            skipped += 1
            continue
        pos = int(pos_items[rng.integers(len(pos_items))])
        pos_set = pos_sets.get(u)
        if pos_set is None:
            pos_set = pos_sets[u] = set(pos_items.tolist())
        while True:
            neg = int(rng.integers(ds.num_items))
            if neg not in pos_set:
                break
        triples.append((u, ds.num_users + pos, ds.num_users + neg))
    if skipped:
        log.warning("skipped %d users that interact with every item", skipped)
    return np.asarray(triples, dtype=np.int64).reshape(-1, 3)


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


def _check_report(report: LossReport, num_nodes: int, temperature: float,
                  literal_mae: bool = False) -> None:
    """Raise FloatingPointError when a loss term leaves its range.  Every
    term but ``contrast`` must be non-negative, except ``mae`` in literal
    mode (see ``TrainConfig.literal_mae``)."""
    for name in ("rec", "mae", "ranking", "distill", "reg"):
        if name == "mae" and literal_mae:
            continue
        value = getattr(report, name)
        if value < -1e-9:
            raise FloatingPointError(f"loss term {name} went negative: {value}")
    bound = 1.0 / temperature
    center = np.log(num_nodes)
    if not (center - bound - 1e-6 <= report.contrast <= center + bound + 1e-6):
        raise FloatingPointError(
            f"contrast loss {report.contrast:.4f} outside [{center - bound:.4f}, "
            f"{center + bound:.4f}]")


def train_epoch(pair: DistillPair, ds: InteractionDataset, graph: BipartiteGraph,
                cfg: TrainConfig, epoch: int,
                positives: list[np.ndarray] | None = None,
                step_writer=None) -> LossReport:
    """One pass over the train interactions; returns the mean loss report.

    ``step_writer``, when given, receives every per-step loss report as a
    dict (for the JSON-lines step log).
    """
    teacher = pair.teacher
    if positives is None:
        positives = ds.positives_by_user(TRAIN)

    table = rationale_score_table(teacher, graph, cfg)
    sub_seed = int(substream(cfg.seed, "subgraphs", epoch).integers(0, 2**31 - 1))
    sub_r = sample_rationale(table, cfg.rho_r, sub_seed)
    sub_m = build_masked_graph(table, cfg.rho_m, sub_seed, rho_r=cfg.rho_r)
    sub_c = sample_complement(table, cfg.rho_c, sub_seed, rho_m=cfg.rho_m)
    g_rationale = sub_r.materialize(graph)
    g_masked = sub_m.materialize(graph)
    g_complement = sub_c.materialize(graph)
    masked_out = graph.edge_list[sub_m.complement_indices(graph.num_edges)]

    train_pairs = ds.pairs(TRAIN)
    order = np.arange(len(train_pairs))
    substream(cfg.seed, "batches", epoch).shuffle(order)

    weights = cfg.loss_weights()
    reports: list[LossReport] = []
    for step, start in enumerate(range(0, len(order), cfg.batch_size)):
        batch = train_pairs[order[start:start + cfg.batch_size]]
        batch_nodes = np.stack([batch[:, 0], ds.num_users + batch[:, 1]], axis=1)
        step_rng = substream(cfg.seed, "step", epoch, step)
        candidates = _candidate_items(ds, batch_nodes, cfg, step_rng)
        triples = negative_sample(ds, batch[:, 0], step_rng, positives=positives)

        with T.Tape() as tape:
            out = run_pipeline(teacher, graph, g_masked, g_rationale, g_complement, cfg)
            rec = loss_rec(out.encoded, batch_nodes, candidates)
            mae = loss_mae(out.encoded, masked_out, graph, step_rng,
                           negatives_per_edge=cfg.mae_negatives, literal=cfg.literal_mae)
            ranking = loss_bpr(out.rationale_pathway, triples)
            contrast = loss_cir(out.emb_rationale, out.emb_complement, cfg.temperature)
            distill_t = T.Tensor(0.0)
            if pair.ema is not None:
                ema_out = run_pipeline(pair.ema, graph, g_masked, g_rationale,
                                       g_complement, cfg)
                distill_t = loss_distill(make_bundle(out, ds.num_users),
                                         make_bundle(ema_out, ds.num_users).detached())
            teacher_total, report = total_loss(rec, mae, distill_t, ranking, contrast,
                                               weights, teacher.parameters())
            T.backward(teacher_total, tape)
        teacher.optimizer.step()
        teacher.assert_finite()

        if pair.ema is not None:
            mu = cfg.self_distill_ema
            for name, p in pair.ema.parameters().items():
                p.values *= mu
                p.values += (1.0 - mu) * teacher.parameters()[name].values

        if pair.student is not None:
            teacher_bundle = make_bundle(out, ds.num_users).detached()
            with T.Tape() as tape:
                student_out = run_pipeline(pair.student, graph, g_masked, g_rationale,
                                           g_complement, cfg)
                distill = loss_distill(make_bundle(student_out, ds.num_users),
                                       teacher_bundle)
                student_loss = T.mul(distill, weights.distill)
                T.backward(student_loss, tape)
            pair.student.optimizer.step()
            pair.student.assert_finite()
            report.distill = float(distill.values)
            report.total += weights.distill * report.distill

        _check_report(report, graph.num_nodes, cfg.temperature, cfg.literal_mae)
        if step_writer is not None:
            step_writer({"epoch": epoch, "step": step, **report.as_dict()})
        reports.append(report)

    mean = LossReport()
    for field in ("rec", "mae", "distill", "ranking", "contrast", "reg", "total"):
        setattr(mean, field, float(np.mean([getattr(r, field) for r in reports])))
    return mean


# ---------------------------------------------------------------------------
# fit with early stopping
# ---------------------------------------------------------------------------


def fit(ds: InteractionDataset, cfg: TrainConfig, out_dir=None,
        graph: BipartiteGraph | None = None) -> tuple[DistillPair, list[dict]]:
    """Train until the epoch limit or until validation Recall@20 stops
    improving for ``patience`` epochs (0 disables early stopping).

    Returns the pair with the best-validation parameters restored, plus the
    per-epoch history.  When ``out_dir`` is given, a JSON-lines log, the best
    checkpoint and a crash checkpoint (when a loss or parameter check fails)
    are written.
    """
    cfg.validate()
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)

    prev_threads = os.environ.get("RGTREC_THREADS")
    if cfg.determinism:
        os.environ["RGTREC_THREADS"] = "1"
    try:
        with T.using_dtype(cfg.precision):
            return _fit_inner(ds, cfg, out_path, graph)
    finally:
        if cfg.determinism:
            if prev_threads is None:
                os.environ.pop("RGTREC_THREADS", None)
            else:
                os.environ["RGTREC_THREADS"] = prev_threads


def _fit_inner(ds, cfg, out_path, graph):
    graph = graph if graph is not None else build_graph(ds)
    cache_dir = out_path / "cache" if out_path is not None else None
    pair = init_pair(graph, cfg, cache_dir=cache_dir)
    positives = ds.positives_by_user(TRAIN)

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
            if cfg.resample_anchors_per_epoch and pair.teacher.topo is not None:
                anchor_seed = int(substream(cfg.seed, "anchors-epoch", epoch).integers(0, 2**31 - 1))
                anchors = sample_anchors(graph, cfg.anchor_set, anchor_seed)
                for state in pair.states().values():
                    if state.topo is not None:
                        state.topo.refresh_tables(graph, anchors)

            summary = train_epoch(pair, ds, graph, cfg, epoch, positives=positives,
                                  step_writer=step_writer)
            record = {"epoch": epoch, **summary.as_dict()}

            if has_val:
                s_eval = predict_embeddings(pair.teacher, graph, cfg)
                val = evaluate(s_eval, ds, VAL)
                record.update({f"val_{k}": v for k, v in val.summary().items()})
                metric = val.macro("recall", 20)
                if metric > best_metric:
                    best_metric = metric
                    best_snapshot = pair.teacher.snapshot()
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
        pair.teacher.load_snapshot(best_snapshot)
        pair.epoch = best_epoch + 1
    if out_path is not None:
        write_checkpoint(out_path / "model.ckpt", pair)
    return pair, history


# ---------------------------------------------------------------------------
# checkpoint format: magic "RGTR", version, length-prefixed named blocks
# ---------------------------------------------------------------------------

_MAGIC = b"RGTR"
_VERSION = 2  # 2: fused attention matrices attn.wq/wk/wv replace per-head wq.<h>
_DTYPE_CODES = {np.dtype("float32"): 1, np.dtype("float64"): 2, np.dtype("int64"): 3}
_CODE_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8"), 3: np.dtype("<i8")}


def _write_block(fh, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    code = _DTYPE_CODES[arr.dtype]
    payload = np.ascontiguousarray(arr).astype(_CODE_DTYPES[code], copy=False).tobytes()
    fh.write(struct.pack("<I", len(encoded)))
    fh.write(encoded)
    fh.write(struct.pack("<BI", code, arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(struct.pack("<Q", len(payload)))
    fh.write(payload)


def write_checkpoint(path, pair: DistillPair) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        _write_block(fh, "epoch", np.asarray([pair.epoch], dtype=np.int64))
        for role, state in pair.states().items():
            for key, arr in state.snapshot().items():
                _write_block(fh, f"{role}/{key}", arr)


def read_checkpoint(path) -> dict[str, np.ndarray]:
    path = Path(path)
    blocks: dict[str, np.ndarray] = {}
    with path.open("rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path} is not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        while True:
            head = fh.read(4)
            if not head:
                break
            (name_len,) = struct.unpack("<I", head)
            name = fh.read(name_len).decode("utf-8")
            code, ndim = struct.unpack("<BI", fh.read(5))
            shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim)) if ndim else ()
            (nbytes,) = struct.unpack("<Q", fh.read(8))
            arr = np.frombuffer(fh.read(nbytes), dtype=_CODE_DTYPES[code]).reshape(shape)
            blocks[name] = arr.copy()
    return blocks


def load_checkpoint_into(path, pair: DistillPair) -> None:
    blocks = read_checkpoint(path)
    pair.epoch = int(blocks.pop("epoch")[0])
    per_role: dict[str, dict[str, np.ndarray]] = {}
    for name, arr in blocks.items():
        role, _, key = name.partition("/")
        per_role.setdefault(role, {})[key] = arr
    states = pair.states()
    for role, snap in per_role.items():
        if role not in states:
            raise ValueError(f"checkpoint contains unknown model role {role!r}")
        states[role].load_snapshot(snap)
