"""Checkpoint container: bitwise round trips, deterministic bytes, and
refusal of corrupt, truncated, or newer-versioned files."""

import hashlib
import json
import struct

import numpy as np
import pytest

import sedkit.checkpoint as cp
from sedkit.checkpoint import (checkpoint_bytes, checkpoint_hash,
                               load_checkpoint, save_checkpoint)
from sedkit.encoder import PoolingSpec, encode_many
from sedkit.errors import CheckpointError, CheckpointVersionError
from sedkit.evalsts import evaluate_task
from sedkit.flow import CouplingFlow, flow_forward


def test_encoder_round_trip_bitwise(tiny_model, tmp_path):
    path = tmp_path / "m.ckpt"
    digest = save_checkpoint(tiny_model, path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    loaded = load_checkpoint(path)
    assert loaded.arch == tiny_model.arch
    assert loaded.vocab.tokens == tiny_model.vocab.tokens
    assert list(loaded.params) == list(tiny_model.params)
    for a, b in zip(tiny_model.parameters(), loaded.parameters()):
        assert np.array_equal(a.data, b.data)
        assert b.requires_grad


def test_save_load_save_bytes_identical(tiny_model, tmp_path):
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(tiny_model, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_evaluates_identically(tiny_model, tiny_world, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model, path)
    loaded = load_checkpoint(path)
    task = tiny_world.sts["test"]
    pool = PoolingSpec(2)
    assert evaluate_task(loaded, task, pool) == evaluate_task(
        tiny_model, task, pool)
    v1 = encode_many(tiny_model, ["w000 w001"], pool)
    v2 = encode_many(loaded, ["w000 w001"], pool)
    assert np.array_equal(v1, v2)


def test_flow_round_trip(tmp_path):
    flow = CouplingFlow(dim=8, n_layers=3, seed=4)
    rng = np.random.default_rng(0)
    for p in flow.parameters():
        p.data = p.data + rng.normal(0.0, 0.2, size=p.data.shape)
    path = tmp_path / "f.ckpt"
    save_checkpoint(flow, path)
    loaded = load_checkpoint(path)
    assert (loaded.dim, loaded.n_layers, loaded.hidden) == (8, 3, 16)
    x = rng.normal(size=(4, 8))
    z1, ld1 = flow_forward(flow, x)
    z2, ld2 = flow_forward(loaded, x)
    assert np.array_equal(z1, z2)
    assert np.array_equal(ld1, ld2)


def test_failed_save_keeps_previous_file(tiny_model, tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model, path)
    before = path.read_bytes()

    class HalfWriter:
        """Writes the first half of the blob, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, blob):
            self.fh.write(blob[: len(blob) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(cp, "open", lambda p, mode: HalfWriter(open(p, mode)),
                        raising=False)
    changed = tiny_model.clone()
    changed.params["tok_emb"].data += 1.0
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(changed, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]
    monkeypatch.undo()
    assert save_checkpoint(changed, path) == checkpoint_hash(changed)
    assert load_checkpoint(path).params["tok_emb"].data[0, 0] == (
        changed.params["tok_emb"].data[0, 0])


def test_checkpoint_hash_matches_bytes(tiny_model):
    blob = checkpoint_bytes(tiny_model)
    assert checkpoint_hash(tiny_model) == hashlib.sha256(blob).hexdigest()
    # hashing twice gives the same answer: serialization is deterministic
    assert checkpoint_bytes(tiny_model) == blob


def test_truncated_file_refused(tiny_model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model, path)
    blob = path.read_bytes()
    for cut in (10, len(blob) // 2, len(blob) - 1):
        clipped = tmp_path / f"cut{cut}.ckpt"
        clipped.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(clipped)


def test_corrupted_payload_refused(tiny_model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model, path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(bad)


def test_corrupted_metadata_refused(tiny_model, tmp_path):
    # flip a byte inside the JSON metadata section and re-sign the file,
    # so the checksum passes but the metadata is garbage
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model, path)
    blob = bytearray(path.read_bytes()[:-32])
    blob[20] = 0x00  # inside the metadata JSON
    signed = bytes(blob) + hashlib.sha256(bytes(blob)).digest()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(signed)
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def _with_version(tiny_model, tmp_path, version: int):
    """A re-signed copy of `tiny_model`'s checkpoint claiming `version`."""
    blob = bytearray(checkpoint_bytes(tiny_model)[:-32])
    blob[4:8] = struct.pack("<I", version)
    path = tmp_path / f"v{version}.ckpt"
    path.write_bytes(bytes(blob) + hashlib.sha256(bytes(blob)).digest())
    return path


def test_future_version_refused(tiny_model, tmp_path):
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(_with_version(tiny_model, tmp_path, cp.VERSION + 1))


def test_version_zero_refused(tiny_model, tmp_path):
    """Version 1 is the only version: an older number is refused too."""
    with pytest.raises(CheckpointVersionError, match="version 0"):
        load_checkpoint(_with_version(tiny_model, tmp_path, 0))


def test_bad_magic_refused(tiny_model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model, path)
    blob = bytearray(path.read_bytes()[:-32])
    blob[0:4] = b"XXXX"
    signed = bytes(blob) + hashlib.sha256(bytes(blob)).digest()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(signed)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(bad)


def test_trailing_bytes_refused(tiny_model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model, path)
    blob = bytearray(path.read_bytes()[:-32]) + b"\x00" * 8
    signed = bytes(blob) + hashlib.sha256(bytes(blob)).digest()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(signed)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(bad)


def _resealed(blob: bytes, edit) -> bytes:
    """A copy of a checkpoint whose metadata dict and list of tensor
    payloads `edit(meta, payloads)` has changed in place, re-signed so
    that the checksum passes."""
    body = blob[:-32]
    sections, off = [], 8
    while off < len(body):
        (length,) = struct.unpack("<Q", body[off:off + 8])
        sections.append(body[off + 8:off + 8 + length])
        off += 8 + length
    meta = json.loads(sections[0])
    payloads = sections[1:]
    edit(meta, payloads)
    meta_json = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    body = body[:8] + b"".join(struct.pack("<Q", len(s)) + s for s in
                               [meta_json.encode("utf-8")] + payloads)
    return body + hashlib.sha256(body).digest()


def _drop(meta, payloads):
    del meta["tensors"][2], payloads[2]


def _add(meta, payloads):
    meta["tensors"].append({"name": "extra", "shape": [2]})
    payloads.append(np.zeros(2).tobytes())


def _rename(meta, payloads):
    meta["tensors"][0]["name"] = "tok_embedding"


def _reshape(meta, payloads):
    # same byte count, so only the shape check can catch it
    entry = next(t for t in meta["tensors"] if t["name"] == "l0.w1")
    entry["shape"] = entry["shape"][::-1]


def _reorder(meta, payloads):
    t = meta["tensors"]
    t[2], t[3], payloads[2], payloads[3] = t[3], t[2], payloads[3], payloads[2]


def _no_tensors(meta, payloads):
    del meta["tensors"]


def _zero_heads(meta, payloads):
    meta["arch"]["heads"] = 0


def _empty_flow(meta, payloads):
    meta["tensors"], payloads[:] = [], []


def _negative_dim(meta, payloads):
    meta["dim"] = -4


# a flow's hidden width is always 2 * dim, so the two edits below grow
# `dim` with it to reach the constructor


def _overflowing_hidden(meta, payloads):
    meta["dim"], meta["hidden"] = 10**30, 2 * 10**30


def _unallocatable_hidden(meta, payloads):
    # 2**58 bytes per mask: beyond any address space, so allocation fails
    # at once
    meta["dim"], meta["hidden"] = 2**55, 2**56


def _unknown_kind(meta, payloads):
    meta["kind"] = "tokenizer"


@pytest.mark.parametrize("artifact,edit", [
    ("encoder", _drop), ("encoder", _add), ("encoder", _rename),
    ("encoder", _reshape), ("encoder", _reorder), ("encoder", _no_tensors),
    ("encoder", _zero_heads), ("flow", _empty_flow), ("flow", _rename),
    ("flow", _negative_dim), ("flow", _overflowing_hidden),
    ("flow", _unallocatable_hidden), ("flow", _unknown_kind),
])
def test_loader_rejects_metadata_that_disagrees_with_constructor(
        artifact, edit, tiny_model, tmp_path):
    """Checksum-valid files whose metadata does not rebuild exactly the
    tensors they carry raise CheckpointError, never a loaded model or an
    uncaught KeyError/ZeroDivisionError."""
    model = tiny_model if artifact == "encoder" else CouplingFlow(8, 2, seed=0)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(_resealed(checkpoint_bytes(model), edit))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad)


def test_flow_hidden_other_than_twice_dim_refused(tmp_path):
    """A flow's subnetwork width is always 2 * dim; a file recording any
    other width is refused, naming both values."""
    def widen(meta, payloads):
        meta["hidden"] = 12

    bad = tmp_path / "wide.ckpt"
    bad.write_bytes(_resealed(checkpoint_bytes(CouplingFlow(8, 2, seed=0)),
                              widen))
    with pytest.raises(CheckpointError, match="hidden width 12 .* 16"):
        load_checkpoint(bad)


def test_resealed_identity_edit_still_loads(tiny_model, tmp_path):
    path = tmp_path / "same.ckpt"
    path.write_bytes(_resealed(checkpoint_bytes(tiny_model), lambda m, p: None))
    assert checkpoint_bytes(load_checkpoint(path)) == checkpoint_bytes(
        tiny_model)


def test_unknown_artifact_rejected():
    with pytest.raises(CheckpointError):
        checkpoint_bytes({"not": "a model"})
