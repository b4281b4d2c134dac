"""Versioned binary checkpoints for encoders and flows.

Layout (all integers little-endian):

    magic  b"SEDK"
    u32    format version (currently 1)
    u64    metadata length, then that many bytes of canonical JSON
    per tensor, in metadata order:
        u64    payload length, then float64 little-endian values
    32 bytes  SHA-256 over everything above

The metadata JSON (sorted keys, no whitespace variation) carries the
artifact kind, architecture, vocabulary, and the ordered tensor names
and shapes. The checksum is verified before anything is constructed, so
a corrupt or truncated file never yields a partially loaded model. The
same save on the same artifact is byte-identical, which makes
checkpoint hashes meaningful in run manifests.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import struct

import numpy as np

from .diffcore import Tensor
from .encoder import EncoderArch, EncoderModel, Vocabulary
from .errors import CheckpointError, CheckpointVersionError
from .flow import CouplingFlow

MAGIC = b"SEDK"
VERSION = 1


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_section(buf: io.BytesIO, payload: bytes) -> None:
    buf.write(struct.pack("<Q", len(payload)))
    buf.write(payload)


def _tensor_bytes(t: Tensor) -> bytes:
    return np.ascontiguousarray(t.data, dtype="<f8").tobytes()


def checkpoint_bytes(artifact) -> bytes:
    """Serialized form of an encoder or flow, checksum included."""
    if isinstance(artifact, EncoderModel):
        meta = {
            "kind": "encoder",
            "arch": {
                "layers": artifact.arch.layers,
                "hidden": artifact.arch.hidden,
                "heads": artifact.arch.heads,
                "ff": artifact.arch.ff,
                "max_len": artifact.arch.max_len,
            },
            "vocab": artifact.vocab.tokens[3:],  # specials are implicit
            "tensors": [
                {"name": n, "shape": list(artifact.params[n].data.shape)}
                for n in artifact.param_names()
            ],
        }
        tensors = [artifact.params[n] for n in artifact.param_names()]
    elif isinstance(artifact, CouplingFlow):
        meta = {
            "kind": "flow",
            "dim": artifact.dim,
            "n_layers": artifact.n_layers,
            "hidden": artifact.hidden,
            "tensors": [
                {"name": n, "shape": list(artifact.params[n].data.shape)}
                for n in artifact.param_names()
            ],
        }
        tensors = [artifact.params[n] for n in artifact.param_names()]
    else:
        raise CheckpointError(f"cannot checkpoint {type(artifact).__name__}")
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    _write_section(buf, _canonical_json(meta))
    for t in tensors:
        _write_section(buf, _tensor_bytes(t))
    body = buf.getvalue()
    return body + hashlib.sha256(body).digest()


def save_checkpoint(artifact, path) -> str:
    """Write the artifact to `path`; returns the hex SHA-256 of the file."""
    blob = checkpoint_bytes(artifact)
    write_atomic(path, blob)
    return hashlib.sha256(blob).hexdigest()


def write_atomic(path, blob: bytes) -> None:
    """Write `blob` to a temp file beside `path`, then move it over
    `path`: a failed write leaves any previous file as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, str(path))
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def checkpoint_hash(artifact) -> str:
    return hashlib.sha256(checkpoint_bytes(artifact)).hexdigest()


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.blob):
            raise CheckpointError("checkpoint truncated")
        out = self.blob[self.off : self.off + n]
        self.off += n
        return out

    def section(self) -> bytes:
        (length,) = struct.unpack("<Q", self.take(8))
        return self.take(length)


def load_checkpoint(path):
    """Load an encoder or flow; refuses corrupt, truncated or newer files."""
    with open(str(path), "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 + 32:
        raise CheckpointError("checkpoint truncated")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError("checkpoint checksum mismatch")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", r.take(4))
    if version > VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version} is newer than supported {VERSION}"
        )
    try:
        meta = json.loads(r.section().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint metadata: {exc}") from exc
    arrays: dict[str, np.ndarray] = {}
    for entry in meta["tensors"]:
        raw = r.section()
        shape = tuple(entry["shape"])
        expect = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
        if len(raw) != expect:
            raise CheckpointError(
                f"tensor {entry['name']!r} has {len(raw)} bytes, "
                f"expected {expect}"
            )
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    if r.off != len(body):
        raise CheckpointError("trailing bytes after final tensor section")
    if meta["kind"] == "encoder":
        arch = EncoderArch(**meta["arch"])
        vocab = Vocabulary(meta["vocab"])
        params = {
            name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()
        }
        return EncoderModel(arch, vocab, params)
    if meta["kind"] == "flow":
        flow = CouplingFlow(meta["dim"], n_layers=meta["n_layers"],
                            hidden=meta["hidden"], seed=0)
        for name, arr in arrays.items():
            if name not in flow.params:
                raise CheckpointError(f"unknown flow tensor {name!r}")
            flow.params[name].data = arr
        return flow
    raise CheckpointError(f"unknown artifact kind {meta['kind']!r}")
