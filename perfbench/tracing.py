"""Spans around the calls into each rgtrec module, recorded from outside.

The tracer replaces public functions at the module or class attribute through
which the program calls them (``training.residual_gt`` and
``propagation.residual_gt`` both, for example) and restores the originals when
tracing stops, so an untraced phase runs the unmodified program.  Each call
records a span: name, start, end, parent span, phase, epoch and step.  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from rgtrec import data, evaluation, propagation, sampling, tensor, topology, training


class TraceError(RuntimeError):
    """A traced name is missing from the program."""


def _role_name(args, kwargs):
    state = args[0] if args else kwargs["state"]
    return f"training.run_pipeline.{state.role}"


# (owner, attribute, span name).  The attribute is where the program looks the
# function up at call time; a name can have several owners.
TARGETS = [
    (data, "load_interactions", "data.load"),
    (data, "split", "data.split"),
    (data, "build_graph", "data.build_graph"),
    (topology, "shortest_paths", "topology.shortest_paths"),
    (topology.TopologyEncoder, "encode", "topology.encode"),
    (training, "init_pair", "training.init_pair"),
    (training, "train_epoch", "training.train_epoch"),
    (training, "rationale_score_table", "attention.score_table"),
    (training, "sample_rationale", "sampling.draw"),
    (training, "build_masked_graph", "sampling.draw"),
    (training, "sample_complement", "sampling.draw"),
    (sampling.SampledSubgraph, "materialize", "sampling.materialize"),
    (training, "negative_sample", "training.negative_sample"),
    (training, "run_pipeline", _role_name),
    (training, "residual_gt", "attention.residual_gt"),
    (propagation, "residual_gt", "attention.residual_gt"),
    (training, "lightgcn_propagate", "propagation.lightgcn"),
    (training, "encode_masked", "propagation.encode_masked"),
    (training, "loss_rec", "losses.rec"),
    (training, "loss_mae", "losses.mae"),
    (training, "loss_bpr", "losses.bpr"),
    (training, "loss_cir", "losses.cir"),
    (training, "loss_distill", "losses.distill"),
    (tensor, "backward", "tensor.backward"),
    (tensor.Adam, "step", "tensor.adam"),
    (training, "predict_embeddings", "evaluation.predict"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (training, "read_checkpoint", "training.checkpoint_read"),
    (training, "write_checkpoint", "training.checkpoint_write"),
    (training, "load_checkpoint_into", "training.load_checkpoint"),
]

# metric -> (span name, phase it is averaged over, kind).  Every value is in
# seconds.  Kinds: "self" is the span's duration minus its children's, "wall"
# the whole span.  Values are per traced epoch, set-up or evaluation; phase
# "call" means per call, whatever the phase.
PER_LAYER = {
    "attention.residual_gt_s": ("attention.residual_gt", "epoch", "self"),
    "attention.score_table_s": ("attention.score_table", "epoch", "self"),
    "topology.encode_s": ("topology.encode", "epoch", "self"),
    "propagation.lightgcn_s": ("propagation.lightgcn", "epoch", "self"),
    "propagation.encode_masked_s": ("propagation.encode_masked", "epoch", "self"),
    "losses.rec_s": ("losses.rec", "epoch", "self"),
    "losses.mae_s": ("losses.mae", "epoch", "self"),
    "losses.bpr_s": ("losses.bpr", "epoch", "self"),
    "losses.cir_s": ("losses.cir", "epoch", "self"),
    "losses.distill_s": ("losses.distill", "epoch", "self"),
    "sampling.draw_s": ("sampling.draw", "epoch", "self"),
    "sampling.materialize_s": ("sampling.materialize", "epoch", "self"),
    "training.negative_sample_s": ("training.negative_sample", "epoch", "self"),
    "training.train_epoch_self_s": ("training.train_epoch", "epoch", "self"),
    "tensor.backward_s": ("tensor.backward", "epoch", "self"),
    "tensor.adam_s": ("tensor.adam", "epoch", "self"),
    "training.run_pipeline_s.teacher": ("training.run_pipeline.teacher", "epoch", "wall"),
    "training.run_pipeline_s.student": ("training.run_pipeline.student", "epoch", "wall"),
    "data.load_s": ("data.load", "setup", "self"),
    "data.split_s": ("data.split", "setup", "self"),
    "data.build_graph_s": ("data.build_graph", "setup", "self"),
    "topology.shortest_paths_s": ("topology.shortest_paths", "setup", "self"),
    "training.checkpoint_read_s": ("training.checkpoint_read", "call", "self"),
    "training.checkpoint_write_s": ("training.checkpoint_write", "call", "self"),
    "evaluation.predict_s": ("evaluation.predict", "eval", "wall"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "eval", "wall"),
}
COUNTS = {
    "tensor.tape_records_per_step": "count",
    "tensor.tape_bytes_per_step": "B",
    "training.checkpoint_bytes": "B",
    "evaluation.pairs_scored": "count",
    "training.step_s.count": "count",
}
STEP_QUANTILES = {"training.step_s.p50": 50, "training.step_s.p90": 90}
OVERHEAD = "trace.overhead_pct"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, phase, epoch, step]
        self._stack: list[int] = []
        self.phase = "setup"
        self.epoch = -1
        self.step = 0
        self.units = defaultdict(int)     # phase -> traced repetitions
        self.counters = defaultdict(float)
        self.step_times: list[float] = []
        self._step_start = None
        self._wrappers = []
        for owner, attr, name in TARGETS:
            if attr not in vars(owner):
                raise TraceError(f"{owner.__name__}.{attr} no longer exists; "
                                 "update the benchmark's trace targets")
            original = vars(owner)[attr]
            self._wrappers.append((owner, attr, original, self._wrap(original, name)))

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [label, time.perf_counter(), None, parent, self.phase, self.epoch, self.step]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            self._count(label, span, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _count(self, label, span, args, kwargs, result):
        if label == "tensor.backward":
            tape = args[1] if len(args) > 1 else kwargs.get("tape") or tensor.active_tape()
            self.counters["tape_records"] += len(tape)
            self.counters["tape_bytes"] += sum(r.out.values.nbytes for r in tape.records)
        elif label == "evaluation.evaluate":
            ds = args[1] if len(args) > 1 else kwargs["ds"]
            self.counters["pairs_scored"] += len(result.user_ids) * ds.num_items
        elif label == "training.checkpoint_write":
            path = args[0] if args else kwargs["path"]
            self.counters["checkpoint_bytes"] = os.path.getsize(path)
        elif label == "sampling.materialize":
            self._step_start = span[2]

    @contextmanager
    def active(self, phase: str, epoch: int = -1):
        """Trace one repetition of ``phase`` (a set-up, epoch or evaluation)."""
        self.phase, self.epoch, self.step = phase, epoch, 0
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._wrappers:
                setattr(owner, attr, original)
        self.units[phase] += 1

    def on_step(self) -> None:
        """Called from train_epoch's step_writer at the end of every step."""
        now = time.perf_counter()
        if self._step_start is not None:
            self.step_times.append(now - self._step_start)
        self._step_start = now
        self.step += 1
        self.counters["steps"] += 1

    def self_times(self) -> dict:
        """(phase, name) -> [self seconds, wall seconds, calls]."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, parent, phase, *_) in enumerate(self.spans):
            acc = out[(phase, name)]
            acc[0] += end - start - child[i]
            acc[1] += end - start
            acc[2] += 1
        return out

    def per_layer(self, traced_main: list[float], plain_main: list[float]) -> dict:
        """Every per-layer metric, with its unit; zero where a layer did not run."""
        times = self.self_times()
        metrics = {}
        for metric, (name, phase, kind) in PER_LAYER.items():
            if phase == "call":
                hits = [v for (p, n), v in times.items() if n == name]
                total = sum(v[0] for v in hits)
                reps = sum(v[2] for v in hits)
            else:
                v = times.get((phase, name), [0.0, 0.0, 0])
                total = v[0] if kind == "self" else v[1]
                reps = self.units[phase]
            metrics[metric] = {"value": total / reps if reps else 0.0, "unit": "s"}
        steps = self.counters["steps"]
        evals = self.units["eval"]
        values = {
            "tensor.tape_records_per_step": self.counters["tape_records"] / steps if steps else 0.0,
            "tensor.tape_bytes_per_step": self.counters["tape_bytes"] / steps if steps else 0.0,
            "training.checkpoint_bytes": self.counters["checkpoint_bytes"],
            "evaluation.pairs_scored": self.counters["pairs_scored"] / evals if evals else 0.0,
            "training.step_s.count": float(len(self.step_times)),
        }
        for metric, unit in COUNTS.items():
            metrics[metric] = {"value": values[metric], "unit": unit}
        for metric, q in STEP_QUANTILES.items():
            value = float(np.percentile(self.step_times, q)) if self.step_times else 0.0
            metrics[metric] = {"value": value, "unit": "s"}
        overhead = 0.0
        if traced_main and plain_main:
            base = float(np.median(plain_main))
            overhead = 100.0 * (float(np.median(traced_main)) - base) / base
        metrics[OVERHEAD] = {"value": overhead, "unit": "%"}
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, phase, epoch, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "phase": phase, "epoch": epoch, "step": step}) + "\n")
