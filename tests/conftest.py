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


@pytest.fixture
def v1_checkpoint(tmp_path):
    """A checkpoint in the version-1 layout, with per-head attention blocks."""
    path = tmp_path / "v1.ckpt"
    with path.open("wb") as fh:
        fh.write(b"RGTR")
        fh.write(struct.pack("<I", 1))
        training._write_block(fh, "epoch", np.asarray([1], dtype=np.int64))
        for name in ("wq", "wk", "wv"):
            for head in range(2):
                training._write_block(fh, f"teacher/param/attn.{name}.{head}",
                                      np.zeros((4, 8)))
        training._write_block(fh, "teacher/param/attn.wo", np.zeros((8, 8)))
    return path
