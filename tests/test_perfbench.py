"""Guards for what the benchmark under ``perfbench/`` needs from the program."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from rgtrec.training import load_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_every_trace_target_exists(tracing):
    # the tracer looks each name up in the owner's own namespace, as here; a
    # missing one would otherwise surface only as a TraceError in a traced run
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.TARGETS
               if attr not in vars(owner)]
    assert not missing, missing


def test_every_workload_config_loads():
    # run.py builds each workload's config the same way; a key the program no
    # longer has would otherwise fail every benchmark run
    for name, workload in _load("workloads").WORKLOADS.items():
        cfg = load_config(None, {**workload.config, "seed": 0})
        for key, value in workload.config.items():
            assert getattr(cfg, key) == value, (name, key)


def _run_benchmark(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", trace],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stderr
    return last["metrics"]


@pytest.mark.parametrize("workload", sorted(_load("workloads").WORKLOADS))
def test_benchmark_run_passes_its_checks(workload):
    # run.py drives the program itself (train_epoch, checkpoints, evaluate); a
    # change to how it calls them fails here rather than only in a benchmark
    # run.  rank_all is the one that round-trips a checkpoint byte for byte.
    _run_benchmark(workload, "0")


def test_traced_benchmark_run_passes_its_checks():
    # a traced run calls every name in tracing.TARGETS through a wrapper, so
    # a traced function whose signature run.py no longer matches fails here;
    # the backward and Adam spans show the wrappers still see both calls.
    # The tape's length per step is fixed by the model, not by timing, so any
    # record added to a training step shows here.
    metrics = _run_benchmark("lastfm_train", "1")
    for name in ("tensor.backward_s", "tensor.adam_s"):
        assert metrics[name]["value"] > 0, name
    assert metrics["tensor.tape_records_per_step"]["value"] == 104
