"""Guards for what the benchmark under ``perfbench/`` needs from the program."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists(tracing):
    # the tracer looks each name up in the owner's own namespace, as here; a
    # missing one would otherwise surface only as a TraceError in a traced run
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.TARGETS
               if attr not in vars(owner)]
    assert not missing, missing
