"""The rgtrec benchmark: one seeded synthetic workload per process.

    python3 perfbench/run.py --workload lastfm_train --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The benchmark generates its inputs from
``--seed``, builds nothing (the package is imported from ``src/``), measures for
about ``--seconds`` seconds, checks the program's outputs and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a JSON
detail record (samples, digest, machine) that ``steadiness.py`` reads.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: load the interaction file, split, build the graph and
  initialise the model pair (topology distances included); on ``rank_all``
  also load the checkpoint.  One set-up follows every epoch and evaluation,
  so the samples span the whole run; the first set-up is a warm-up and is
  not counted.  Median.
- ``epoch_s``: one ``train_epoch`` call, median over the run; the first
  epoch is a warm-up and is not counted.  On ``rank_all`` the epochs start
  from the loaded checkpoint after the read-only path is done.
- ``eval_s``: ``predict_embeddings`` plus ``evaluate`` on the test split, median.
- ``peak_rss_mb``: ``ru_maxrss`` of this process, read before ``rank_all``
  starts training, so there it is the read-only path's peak.  The model
  ``rank_all`` loads is made in a child process, whose memory is not counted.
- ``recall20``: test Recall@20 after the workload's fixed number of epochs
  (on ``rank_all``, of the loaded checkpoint).  Deterministic for a seed.

With ``--trace 1`` the same plan runs, but alternate epochs (alternate
evaluations on ``rank_all``) run with spans around the calls into each rgtrec
module, and the metrics are the per-layer ones of ``tracing.py``, including
the tracing overhead against the untraced repetitions of the same run.
"""

from __future__ import annotations

import os

# One BLAS thread: the load is this one process, and single-threaded BLAS keeps
# run-to-run spread low on a small shared machine.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import filecmp
import json
import logging
import multiprocessing
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np
import scipy
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import svds

try:
    import rgtrec
    from rgtrec import data, evaluation, training
    from rgtrec import tensor as T
    from rgtrec.data import TEST, TRAIN
except ImportError as exc:
    sys.exit(f"error: cannot import rgtrec from {SRC}: {exc}")

import checks
from tracing import Tracer
from workloads import WORKLOADS, write_pairs

RATIOS = (0.7, 0.05, 0.25)
K = 20
CHECK_USERS = 64  # users whose top-k is checked against the reference


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


class Run:
    """One workload run: the plan, its timings and its failure count."""

    def __init__(self, workload, seed: int, seconds: float, tracer, work: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work = work
        self.cfg = training.load_config(None, {**workload.config, "seed": seed})
        self.path = work / "interactions.tsv"
        self.checkpoint = work / "model.ckpt" if not workload.train else None
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.epoch_s: list[float] = []
        self.eval_s: list[float] = []
        self.traced_main: list[float] = []
        self.plain_main: list[float] = []
        self.detail: dict = {}
        self.first_eval = None  # (embeddings, RankingResult) of the first evaluation

    # -- operations ---------------------------------------------------------

    def phase(self, name: str, traced: bool, epoch: int = -1):
        return self.tracer.active(name, epoch) if traced else nullcontext()

    def setup(self, traced: bool):
        """One timed set-up.  Callers drop the previous set-up's objects first,
        unless they train on them."""
        self.attempted += 1
        with self.phase("setup", traced):
            t = time.perf_counter()
            ds = data.load_interactions(self.path)
            ds = data.split(ds, RATIOS, seed=self.seed)
            graph = data.build_graph(ds)
            pair = training.init_pair(graph, self.cfg)
            if self.checkpoint is not None:
                training.load_checkpoint_into(self.checkpoint, pair)
            self.setup_s.append(time.perf_counter() - t)
        self.detail["shape"] = {"users": ds.num_users, "items": ds.num_items,
                                "train_edges": graph.num_edges,
                                "max_user_degree": int(graph.degree[:ds.num_users].max())}
        return ds, graph, pair

    def epoch(self, pair, ds, graph, positives, epoch: int, traced: bool) -> float:
        bad = []

        def writer(record):
            bad.extend(checks.check_losses(record))
            if traced:
                self.tracer.on_step()

        self.attempted += 1
        with self.phase("epoch", traced, epoch):
            t = time.perf_counter()
            report = training.train_epoch(pair, ds, graph, self.cfg, epoch,
                                          positives=positives, step_writer=writer)
            seconds = time.perf_counter() - t
        bad.extend(checks.check_losses(report.as_dict()))
        if bad:
            self.failures.append("; ".join(bad))
        return seconds

    def evaluate(self, pair, ds, graph, traced: bool) -> None:
        """One timed predict + evaluate.  The first is kept for the output
        checks; every later one must rank exactly as the first did."""
        self.attempted += 1
        with self.phase("eval", traced):
            t = time.perf_counter()
            s = training.predict_embeddings(pair.teacher, graph, self.cfg)
            result = evaluation.evaluate(s, ds, TEST)
            seconds = time.perf_counter() - t
        self.eval_s.append(seconds)
        if self.first_eval is None:
            self.first_eval = (s, result)
            return
        self.attempted += 1
        if not np.array_equal(result.topk, self.first_eval[1].topk):
            self.failures.append("repeated evaluation of the same model gave another ranking")

    def check_outputs(self, ds) -> None:
        s, result = self.first_eval
        self.detail["recall20"] = result.macro("recall", K)
        rng = np.random.default_rng([self.seed, 7])
        sample = np.sort(rng.choice(len(result.user_ids), size=min(CHECK_USERS,
                                    len(result.user_ids)), replace=False))
        self.attempted += len(sample) + 1
        for message in checks.check_ranking(s, result, ds.positives_by_user(TRAIN),
                                            ds.positives_by_user(TEST), ds.num_users,
                                            sample, k=K):
            self.failures.append(message)

    # -- plans --------------------------------------------------------------

    def deadline_left(self, start: float) -> float:
        return start + self.seconds - time.perf_counter()

    def epochs(self, start: float, pair, ds, graph, first: int, minimum: int,
               traced: bool, fill: bool) -> int:
        """Epochs from ``first`` on: ``minimum`` of them, then, with ``fill``,
        more while the run has time for one.  Epoch 0 is an untraced warm-up
        and is not counted; after it traced and untraced epochs alternate.
        Each counted epoch is followed by a set-up whose objects are dropped at
        once.  Returns the next epoch index."""
        positives = ds.positives_by_user(TRAIN)
        e = first
        while e < first + minimum or (fill and self.epoch_s and
                                      self.deadline_left(start) > statistics.median(self.epoch_s)):
            on = traced and e % 2 == 1
            seconds = self.epoch(pair, ds, graph, positives, e, on)
            if e > 0:
                self.epoch_s.append(seconds)
                if traced:
                    (self.traced_main if on else self.plain_main).append(seconds)
                self.setup(traced)
            e += 1
        return e

    def train_plan(self, start: float) -> None:
        """A set-up, the fixed epochs, evaluations, then more epochs while time
        is left; a set-up follows every counted epoch and every evaluation."""
        traced = self.tracer is not None
        ds, graph, pair = self.setup(traced)
        e = self.epochs(start, pair, ds, graph, 0, self.w.epochs, traced, fill=False)
        self.detail["digest"] = checks.parameter_digest(pair)
        for rep in range(self.w.evals):
            self.evaluate(pair, ds, graph, traced and rep == 1)
            self.setup(traced)
        self.check_outputs(ds)
        self.detail["epochs"] = self.epochs(start, pair, ds, graph, e, 0, traced, fill=True)
        self.detail["peak_rss_mb"] = peak_rss_mb()

    def rank_plan(self, start: float) -> None:
        """Read-only path, repeatedly: set up from the checkpoint, predict and
        rank.  The first set-up is the warm-up; each evaluation gets a fresh
        one.  Then, untraced, epochs from the checkpoint for ``epoch_s``; peak
        RSS is read before they start, so it is the read-only path's."""
        child = multiprocessing.get_context("fork").Process(target=self.prepare_checkpoint)
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"preparing the checkpoint failed with exit code {child.exitcode}")
        traced = self.tracer is not None
        ds, graph, pair = self.setup(traced)
        copy = self.work / "copy.ckpt"
        self.attempted += 1
        with self.phase("checkpoint", traced):
            training.write_checkpoint(copy, pair)
        if not filecmp.cmp(copy, self.checkpoint, shallow=False):
            self.failures.append("checkpoint did not round-trip byte for byte")
        self.detail["digest"] = checks.parameter_digest(pair)
        for rep in range(self.w.evals):
            ds = graph = pair = None
            ds, graph, pair = self.setup(traced)
            on = traced and rep % 2 == 1
            self.evaluate(pair, ds, graph, on)
            if traced:
                (self.traced_main if on else self.plain_main).append(self.eval_s[-1])
        self.check_outputs(ds)
        self.detail["peak_rss_mb"] = peak_rss_mb()
        self.detail["epochs"] = self.epochs(start, pair, ds, graph, 0, self.w.epochs,
                                            traced=False, fill=True)

    def prepare_checkpoint(self) -> None:
        """Untimed, in a child process: a stand-in for a trained model, so that
        the ranking has real structure and Recall@20 is well above chance and
        steady across seeds.

        The embedding table is a rank-latdim SVD of the train matrix; the
        topology layer weights and the attention output projection are zero,
        so the model ranks by LightGCN propagation of the SVD factors while
        every layer still does its full work.
        """
        ds = data.split(data.load_interactions(self.path), RATIOS, seed=self.seed)
        graph = data.build_graph(ds)
        pair = training.init_pair(graph, self.cfg)
        train = ds.pairs(TRAIN)
        matrix = csr_matrix((np.ones(len(train)), (train[:, 0], train[:, 1])),
                            shape=(ds.num_users, ds.num_items))
        u, sv, vt = svds(matrix, k=self.cfg.latdim, random_state=self.seed)
        emb = np.concatenate([u * np.sqrt(sv), vt.T * np.sqrt(sv)])
        pair.teacher.emb.values[...] = emb
        for w in pair.teacher.topo.layer_weights:
            w.values[...] = 0.0
        pair.teacher.attn.wo.values[...] = 0.0
        training.write_checkpoint(self.checkpoint, pair)

    def execute(self) -> dict:
        pairs = self.w.generate(self.seed)
        write_pairs(pairs, self.path)
        with T.using_dtype(self.cfg.precision):
            start = time.perf_counter()
            try:
                (self.train_plan if self.w.train else self.rank_plan)(start)
            except Exception:
                self.failures.append(traceback.format_exc())
            self.detail["measured_s"] = time.perf_counter() - start
        return self.metrics()

    def metrics(self) -> dict:
        def med(values):
            return float(statistics.median(values)) if values else float("nan")

        if self.tracer is not None:
            return self.tracer.per_layer(self.traced_main, self.plain_main)
        return {
            "setup_s": {"value": med(self.setup_s[1:]), "unit": "s"},
            "epoch_s": {"value": med(self.epoch_s), "unit": "s"},
            "eval_s": {"value": med(self.eval_s), "unit": "s"},
            "peak_rss_mb": {"value": float(self.detail.get("peak_rss_mb", float("nan"))),
                            "unit": "MB"},
            "recall20": {"value": float(self.detail.get("recall20", float("nan"))),
                         "unit": "ratio"},
        }


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if Path(rgtrec.__file__).resolve().parent != SRC / "rgtrec":
        print(f"error: imported rgtrec from {rgtrec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    logging.getLogger("rgtrec").setLevel(logging.ERROR)

    tracer = Tracer() if args.trace else None
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, tracer, work)
        metrics = run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-{args.seed}.jsonl")
    for message in run.failures:
        print(f"check failed: {message}", file=sys.stderr)
    correct = not run.failures
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": machine(), "setup_samples": run.setup_s,
                      "epoch_samples": run.epoch_s, "eval_samples": run.eval_s,
                      **run.detail}))
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
