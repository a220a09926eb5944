"""Binary checkpoint format: round trips, corruption detection, restore."""

import hashlib
import re
import struct

import numpy as np
import pytest

import mlaan
from mlaan.checkpoint import _HEADER, _pack_entries, collect_state
from conftest import make_trainer


def trained(steps=3, **kw):
    tr = make_trainer("mlaan", K=3, k=2, p=1, **kw)
    gen = np.random.default_rng(0)
    bx = gen.standard_normal((6, 1, 12, 12)).astype(np.float32)
    by = gen.integers(0, 10, size=6).astype(np.int64)
    for _ in range(steps):
        tr.step(bx, by, 0.05)
        tr.step_index += 1  # the epoch loop owns this counter
    return tr


def test_round_trip_is_bitwise(tmp_path):
    tr = trained()
    path = str(tmp_path / "run.mlnn")
    rec = mlaan.MetricsRecorder()
    rec.append(1, 0.5, 0.4, 0.1, 10, 1.0)
    mlaan.save_checkpoint(path, tr, {"note": "cfg"}, recorder=rec, epoch=4)

    ckpt = mlaan.load_checkpoint(path)
    assert ckpt.version == 2
    assert ckpt.precision == "float32"
    assert ckpt.step == 3
    assert ckpt.epoch == 4
    assert ckpt.sidecar["config"] == {"note": "cfg"}
    assert ckpt.sidecar["metrics"] == rec.rows
    assert ckpt.sidecar["skipped_steps"] == []

    fresh = make_trainer("mlaan", K=3, k=2, p=1, seed=4)  # different init
    mlaan.restore_into(fresh, ckpt)
    for a, b in zip(fresh.all_params, tr.all_params):
        assert a.name == b.name
        assert np.array_equal(a.data, b.data)
        if a.requires_grad:
            assert np.array_equal(a.velocity, b.velocity)
    for x, y in zip(fresh.backbone.batchnorms(), tr.backbone.batchnorms()):
        assert np.array_equal(x.running_mean, y.running_mean)
        assert np.array_equal(x.running_var, y.running_var)
        assert x.initialized == y.initialized
    assert fresh.step_index == 3


def test_state_covers_params_velocity_and_bn_stats():
    tr = trained(steps=1)
    state = collect_state(tr)
    names = set(state)
    assert any(n.startswith("param/") for n in names)
    assert any(n.startswith("vel/") for n in names)
    assert any(n.endswith(".running_mean") for n in names)
    assert any(n.endswith(".initialized") for n in names)
    # EMA twins are saved but carry no velocity (they never take grads)
    ema_params = [n for n in names if n.startswith("param/") and ".ema" in n]
    assert ema_params
    for n in ema_params:
        assert "vel/" + n[len("param/"):] not in names


def test_flipped_payload_byte_is_detected(tmp_path):
    tr = trained(steps=1)
    path = str(tmp_path / "c.mlnn")
    mlaan.save_checkpoint(path, tr, {})
    raw = bytearray(open(path, "rb").read())
    raw[-1] ^= 0xFF
    open(path, "wb").write(raw)
    with pytest.raises(mlaan.CheckpointError, match="digest"):
        mlaan.load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "not.mlnn"
    path.write_bytes(b"ZIP\x00" + bytes(100))
    with pytest.raises(mlaan.CheckpointError, match="magic"):
        mlaan.load_checkpoint(str(path))


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.mlnn"
    path.write_bytes(b"MLNN" + bytes(10))
    with pytest.raises(mlaan.CheckpointError, match="truncated"):
        mlaan.load_checkpoint(str(path))


def test_unsupported_version_rejected(tmp_path):
    tr = trained(steps=1)
    path = str(tmp_path / "v9.mlnn")
    mlaan.save_checkpoint(path, tr, {})
    raw = bytearray(open(path, "rb").read())
    struct.pack_into("<I", raw, 4, 9)
    open(path, "wb").write(raw)
    with pytest.raises(mlaan.CheckpointError, match="version"):
        mlaan.load_checkpoint(str(path))


def rewrite_blob(path, blob=None, meta=None):
    """Replace the entry blob or the metadata of the checkpoint at `path`,
    with a matching digest."""
    raw = open(path, "rb").read()
    at = 4 + struct.calcsize(_HEADER)
    fields = list(struct.unpack_from(_HEADER, raw, 4))
    end = at + 64 + fields[-1]
    meta = raw[at + 64:end] if meta is None else meta
    body = meta + (raw[end:] if blob is None else blob)
    fields[-1] = len(meta)
    open(path, "wb").write(raw[:4] + struct.pack(_HEADER, *fields)
                           + hashlib.sha256(body).hexdigest().encode() + body)


def test_trailing_garbage_rejected(tmp_path):
    tr = trained(steps=1)
    path = str(tmp_path / "tail.mlnn")
    mlaan.save_checkpoint(path, tr, {})
    rewrite_blob(path, _pack_entries(mlaan.load_checkpoint(path).arrays) + b"junk")
    with pytest.raises(mlaan.CheckpointError, match="4 trailing bytes after entries"):
        mlaan.load_checkpoint(path)


def test_restore_rejects_different_architecture(tmp_path):
    tr = trained(steps=1)
    path = str(tmp_path / "a.mlnn")
    mlaan.save_checkpoint(path, tr, {})
    ckpt = mlaan.load_checkpoint(path)
    other = make_trainer("mlaan", K=2, k=2, p=1)  # different partition
    with pytest.raises(mlaan.CheckpointError, match="mismatch"):
        mlaan.restore_into(other, ckpt)


def test_restore_rejects_reshaped_param(tmp_path):
    tr = trained(steps=1)
    path = str(tmp_path / "b.mlnn")
    mlaan.save_checkpoint(path, tr, {})
    ckpt = mlaan.load_checkpoint(path)
    name = f"param/{tr.all_params[0].name}"
    ckpt.arrays[name] = ckpt.arrays[name].reshape(-1)
    fresh = make_trainer("mlaan", K=3, k=2, p=1)
    with pytest.raises(mlaan.CheckpointError, match="expected"):
        mlaan.restore_into(fresh, ckpt)


@pytest.mark.parametrize("name", ["vel/stem.conv.w", "buf/stem.bn.running_mean"])
def test_restore_rejects_misshapen_state_entry(tmp_path, name):
    tr = trained(steps=1)
    path = str(tmp_path / "s.mlnn")
    mlaan.save_checkpoint(path, tr, {})
    state = dict(mlaan.load_checkpoint(path).arrays)
    state[name] = np.ones(1, dtype=state[name].dtype)
    rewrite_blob(path, _pack_entries(state))
    ckpt = mlaan.load_checkpoint(path)  # the digest holds
    fresh = make_trainer("mlaan", K=3, k=2, p=1)
    with pytest.raises(mlaan.CheckpointError,
                       match=re.escape(f"{name} is float32(1,), expected float32(")):
        mlaan.restore_into(fresh, ckpt)


def test_sidecar_restores_shuffle_stream(tmp_path):
    tr = trained(steps=2)
    draw_next = tr.shuffle_gen.permutation(10)  # advance past saved point
    path = str(tmp_path / "rng.mlnn")
    # re-train to a fresh known RNG point
    tr2 = trained(steps=2)
    _ = tr2.shuffle_gen.permutation(7)
    mlaan.save_checkpoint(path, tr2, {})
    ckpt = mlaan.load_checkpoint(path)
    fresh = make_trainer("mlaan", K=3, k=2, p=1)
    mlaan.restore_into(fresh, ckpt)
    assert np.array_equal(fresh.shuffle_gen.permutation(9),
                          tr2.shuffle_gen.permutation(9))
    del draw_next


def test_save_into_nested_directory(tmp_path):
    tr = trained(steps=1)
    path = str(tmp_path / "deep" / "run" / "x.mlnn")
    mlaan.save_checkpoint(path, tr, {})
    assert mlaan.load_checkpoint(path).step == 1


@pytest.mark.parametrize("text,fragment", [('{"config": ', "not valid JSON"),
                                           ("[1]", "not a JSON object"),
                                           (b'{"step": "\xff"}', "not valid JSON"),
                                           ('{"config": {}}', "not a JSON object with keys")])
def test_malformed_sidecar_rejected(tmp_path, text, fragment):
    """Metadata under a matching digest that is not the JSON object a save writes."""
    tr = trained(steps=1)
    path = str(tmp_path / "c.mlnn")
    mlaan.save_checkpoint(path, tr, {})
    rewrite_blob(path, meta=text.encode() if isinstance(text, str) else text)
    with pytest.raises(mlaan.CheckpointError, match=fragment):
        mlaan.load_checkpoint(path)


def test_version_one_file_is_refused(tmp_path):
    """A version 1 file: its header lacks the metadata length, and its
    config sat in a separate sidecar file."""
    tr = trained(steps=1)
    path = str(tmp_path / "v1.mlnn")
    state = collect_state(tr)
    blob = _pack_entries(state)
    header = b"MLNN" + struct.pack("<IBQII", 1, 0, tr.step_index, 0, len(state))
    open(path, "wb").write(header + hashlib.sha256(blob).hexdigest().encode() + blob)
    with pytest.raises(mlaan.CheckpointError, match="unsupported version 1"):
        mlaan.load_checkpoint(path)
