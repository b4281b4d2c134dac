"""Versioned binary checkpoints for encoders and flows.

Layout (all integers little-endian):

    magic  b"SEDK"
    u32    format version (currently 1)
    u64    metadata length, then that many bytes of canonical JSON
    per tensor, in metadata order:
        u64    payload length, then float64 little-endian values
    32 bytes  SHA-256 over everything above

The metadata JSON (sorted keys, no whitespace variation) carries the
artifact kind, the constructor arguments (architecture and vocabulary,
or flow sizes) and the ordered tensor names and shapes. The checksum is
verified before anything is constructed, so a corrupt or truncated file
never yields a partially loaded model. Loading rebuilds the artifact
through its constructor and requires the listed tensors to be exactly
the ones that constructor makes, in order, so the constructors are the
only source of tensor names and shapes. The same save on the same
artifact is byte-identical, which makes checkpoint hashes meaningful in
run manifests.

The module also holds the toolkit's plain-file I/O: `write_atomic`, the
one CSV writer (`csv_text`) behind every report table, and the one
text-input reader (`read_text`) that the config loader and, through
`read_lines`, the corpus, STS and NLI loaders parse.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import itertools
import json
import os
import struct

import numpy as np

from .diffcore import Tensor
from .encoder import EncoderArch, EncoderModel, Vocabulary, _build_encoder
from .errors import CheckpointError, CheckpointVersionError, DataError
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


def _header(artifact) -> dict:
    """The metadata from which `_rebuild` constructs `artifact`'s skeleton."""
    if isinstance(artifact, EncoderModel):
        return {"kind": "encoder", "arch": dataclasses.asdict(artifact.arch),
                "vocab": artifact.vocab.tokens[3:]}  # specials are implicit
    if isinstance(artifact, CouplingFlow):
        return {"kind": "flow", "dim": artifact.dim,
                "n_layers": artifact.n_layers, "hidden": artifact.hidden}
    raise CheckpointError(f"cannot checkpoint {type(artifact).__name__}")


def _rebuild(meta: dict):
    """A freshly constructed artifact of the kind and sizes `meta` names;
    its tensors are placeholders that the loader overwrites, so encoder
    weights are left undrawn."""
    if meta["kind"] == "encoder":
        return _build_encoder(EncoderArch(**meta["arch"]),
                              Vocabulary(meta["vocab"]), np.empty)
    if meta["kind"] == "flow":
        if meta["hidden"] != 2 * meta["dim"]:
            raise CheckpointError(
                f"flow hidden width {meta['hidden']} is not 2 * dim = "
                f"{2 * meta['dim']}")
        return CouplingFlow(meta["dim"], meta["n_layers"], seed=0)
    raise CheckpointError(f"unknown artifact kind {meta['kind']!r}")


def _tensor_list(artifact) -> list[dict]:
    return [{"name": n, "shape": list(t.data.shape)}
            for n, t in artifact.params.items()]


def checkpoint_bytes(artifact) -> bytes:
    """Serialized form of an encoder or flow, checksum included."""
    meta = {**_header(artifact), "tensors": _tensor_list(artifact)}
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<I", VERSION))
    _write_section(buf, _canonical_json(meta))
    for t in artifact.params.values():
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


def csv_text(rows, comment: str | None = None) -> str:
    """`rows` as CSV, one "\n"-terminated line each, after a `# comment`
    line when one is given; the comment is written as is, unquoted."""
    buf = io.StringIO()
    if comment is not None:
        buf.write(f"# {comment}\n")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def read_text(path) -> str:
    """The text of the UTF-8 file at `path`, as every text input (corpus,
    STS and NLI files, configs) is read: a leading byte-order mark is
    dropped, and CRLF and a lone CR become LF. A byte that is not UTF-8
    raises `DataError` naming the path and its line."""
    with open(str(path), "rb") as fh:
        text = fh.read().decode("utf-8-sig", "surrogateescape")
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line = text.count("\n", 0, exc.start) + 1
        byte = ord(text[exc.start]) - 0xDC00
        raise DataError(f"{path}: line {line}: byte {byte:#04x} is not "
                        "UTF-8") from None
    return text


def read_lines(path) -> list[tuple[int, str]]:
    """(line number, text) of each non-blank line of `read_text(path)`."""
    return [(n, line)
            for n, line in enumerate(read_text(path).split("\n"), start=1)
            if line.strip()]


def read_tsv(path, parse) -> list:
    """`parse(field_1, field_2, field_3)` of each data line of a 3-field
    TSV file, in file order. Lines starting with '#' are comments. The
    first line without exactly 3 tab-separated fields, or that `parse`
    rejects with a `ValueError`, raises `DataError` naming the path and
    the line; so does a file without data lines."""
    rows = []
    for n, line in read_lines(path):
        if line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}: line {n}: expected 3 tab-separated "
                            f"fields, found {len(fields)}")
        try:
            rows.append(parse(*fields))
        except ValueError as exc:
            raise DataError(f"{path}: line {n}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data lines")
    return rows


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
    """Load an encoder or flow; refuses corrupt or truncated files, any
    format version but `VERSION`, and any file whose tensors are not
    exactly those its metadata implies."""
    return read_checkpoint(path)[0]


def read_checkpoint(path) -> tuple:
    """``(artifact, digest)``: what `load_checkpoint(path)` returns, and
    the hex SHA-256 of the file bytes it was loaded from; the file is
    read once."""
    with open(str(path), "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 + 32:
        raise CheckpointError("checkpoint truncated")
    body, digest = blob[:-32], blob[-32:]
    sha = hashlib.sha256(body)
    if sha.digest() != digest:
        raise CheckpointError("checkpoint checksum mismatch")
    sha.update(digest)  # now the SHA-256 of the whole file
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (version,) = struct.unpack("<I", r.take(4))
    if version != VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version} is not supported; only version "
            f"{VERSION} is")
    raw_meta = r.section()
    try:
        meta = json.loads(raw_meta.decode("utf-8"))
        artifact = _rebuild(meta)
        for i, (got, want) in enumerate(itertools.zip_longest(
                meta["tensors"], _tensor_list(artifact))):
            if got != want:
                raise CheckpointError(
                    f"tensor #{i} is listed as {got}, but a {meta['kind']} "
                    f"with this metadata has {want}")
    except (KeyError, TypeError, ValueError, ArithmeticError,
            MemoryError) as exc:
        raise CheckpointError(f"invalid checkpoint metadata: {exc}") from exc
    for name, t in artifact.params.items():
        raw = r.section()
        if len(raw) != t.data.nbytes:
            raise CheckpointError(f"tensor {name!r} has {len(raw)} bytes, "
                                  f"expected {t.data.nbytes}")
        t.data = np.frombuffer(raw, dtype="<f8").reshape(t.data.shape).copy()
    if r.off != len(body):
        raise CheckpointError("trailing bytes after final tensor section")
    return artifact, sha.hexdigest()
