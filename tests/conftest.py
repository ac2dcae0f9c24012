import struct

import numpy as np
import pytest

from rgtrec import tensor as T
from rgtrec import training


@pytest.fixture(autouse=True)
def float64_mode():
    """Run the whole suite in 64-bit mode so finite differences have headroom."""
    with T.using_dtype(np.float64):
        yield


@pytest.fixture(params=[1, 2, 3])
def old_checkpoint(request, tmp_path):
    """A checkpoint in a retired layout: version 1, with per-head attention
    blocks, version 2, which also holds a mimic model's blocks, or version 3,
    with Adam state and an ema role."""
    version = request.param
    path = tmp_path / f"v{version}.ckpt"
    with path.open("wb") as fh:
        fh.write(b"RGTR")
        fh.write(struct.pack("<I", version))
        training._write_block(fh, "epoch", np.asarray([1], dtype=np.int64))
        if version == 1:
            for name in ("wq", "wk", "wv"):
                for head in range(2):
                    training._write_block(fh, f"teacher/param/attn.{name}.{head}",
                                          np.zeros((4, 8)))
        elif version == 2:
            for prefix in ("teacher/param/attn.", "student/param/attn."):
                for name in ("wq", "wk", "wv"):
                    training._write_block(fh, prefix + name, np.zeros((8, 8)))
        else:
            for role in ("teacher", "ema"):
                training._write_block(fh, f"{role}/param/attn.wq", np.zeros((8, 8)))
                training._write_block(fh, f"{role}/adam/t", np.asarray([1], dtype=np.int64))
        training._write_block(fh, "teacher/param/attn.wo", np.zeros((8, 8)))
    return version, path


@pytest.fixture
def truncated_checkpoint(tmp_path):
    """A current-version checkpoint cut inside the shape field of a block header."""
    path = tmp_path / "truncated.ckpt"
    with path.open("wb") as fh:
        fh.write(b"RGTR")
        fh.write(struct.pack("<I", training._VERSION))
        training._write_block(fh, "epoch", np.asarray([1], dtype=np.int64))
        training._write_block(fh, "param/emb", np.zeros((4, 8)))
    epoch_block = 4 + len("epoch") + 5 + 4 + 8 + 8
    cut = 8 + epoch_block + 4 + len("param/emb") + 5 + 2  # 2 bytes into the shape
    path.write_bytes(path.read_bytes()[:cut])
    return path
