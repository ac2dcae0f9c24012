import io
import struct
import zipfile

import numpy as np
import pytest

from rgtrec import tensor as T


@pytest.fixture(autouse=True)
def float64_mode():
    """Run the whole suite in 64-bit mode so finite differences have headroom."""
    with T.using_dtype(np.float64):
        yield


def npy_bytes(arr) -> bytes:
    """One array in the ``.npy`` format, as a checkpoint member holds it."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asarray(arr), allow_pickle=False)
    return buf.getvalue()


def write_zip(path, members: dict[str, bytes]) -> None:
    """A zip of the given raw members, each with a CRC-32 of what it holds."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, raw in members.items():
            zf.writestr(zipfile.ZipInfo(name), raw)


def write_members(path, members: dict) -> None:
    """A checkpoint-shaped zip of ``.npy`` members exactly as given, so a test
    can leave out, add or replace members under valid CRCs."""
    write_zip(path, {name: npy_bytes(arr) for name, arr in members.items()})


@pytest.fixture(params=[1, 2, 3, 4])
def old_checkpoint(request, tmp_path):
    """A checkpoint in the retired ``RGTR`` block layout, versions 1 to 4:
    magic, version, then one block (name length, name, dtype code 3 for
    int64, ndim, shape, payload length, payload)."""
    version = request.param
    path = tmp_path / f"v{version}.ckpt"
    path.write_bytes(b"RGTR" + struct.pack("<I", version)
                     + struct.pack("<I", len(b"epoch")) + b"epoch"
                     + struct.pack("<BIIQ", 3, 1, 1, 8) + struct.pack("<q", 1))
    return version, path


@pytest.fixture
def truncated_checkpoint(tmp_path):
    """A zip of two ``.npy`` members cut inside the second member's payload."""
    path = tmp_path / "truncated.ckpt"
    write_zip(path, {"epoch": npy_bytes(np.int64(1)), "param/emb": npy_bytes(np.zeros((4, 8)))})
    data = path.read_bytes()
    path.write_bytes(data[:data.index(b"param/emb") + 200])
    return path
