"""Binary checkpoints.

Layout (all integers little-endian):

    "MLNN" | version u32 | precision u8 | step u64 | epoch u32 | count u32
    | sha256 hex digest of the entry blob (64 ascii bytes) | entry blob

Each entry:

    name_len u16 | name utf-8 | dtype u8 | ndim u8 | dims u32 * ndim
    | nbytes u64 | raw little-endian payload

Entries cover every parameter (`param/`), momentum buffers for trainable
parameters (`vel/`), and batch-norm running statistics (`buf/`). A JSON
sidecar at `<path>.json` carries the config, RNG state, and metrics rows
needed to resume bitwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError

MAGIC = b"MLNN"
VERSION = 1

_PRECISION_CODES = {"float32": 0, "float64": 1}
_PRECISION_NAMES = {v: k for k, v in _PRECISION_CODES.items()}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1,
                np.dtype(np.int64): 2, np.dtype(np.uint8): 3}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


def collect_state(trainer) -> dict:
    """Name -> array snapshot of everything the trajectory depends on."""
    state = {}
    for p in trainer.all_params:
        key = f"param/{p.name}"
        if key in state:
            raise CheckpointError(f"duplicate parameter name {p.name!r}")
        state[key] = p.data
        if p.requires_grad:
            state[f"vel/{p.name}"] = p.velocity
    for bn in trainer.backbone.batchnorms():
        state[f"buf/{bn.name}.running_mean"] = bn.running_mean
        state[f"buf/{bn.name}.running_var"] = bn.running_var
        state[f"buf/{bn.name}.initialized"] = np.array([1 if bn.initialized else 0],
                                                       dtype=np.uint8)
    return state


def _pack_entries(state: dict) -> bytes:
    parts = []
    for name, arr in state.items():
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(arr)
        code = _DTYPE_CODES.get(arr.dtype)
        if code is None:
            raise CheckpointError(f"{name}: unsupported dtype {arr.dtype}")
        payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<BB", code, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(struct.pack("<Q", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def save_checkpoint(path: str, trainer, config_dict: dict, recorder=None,
                    epoch: int = 0) -> None:
    state = collect_state(trainer)
    blob = _pack_entries(state)
    digest = hashlib.sha256(blob).hexdigest().encode("ascii")
    precision = _PRECISION_CODES[str(trainer.backbone.units[0].conv.w.dtype)]
    header = MAGIC + struct.pack("<IBQII", VERSION, precision,
                                 trainer.step_index, epoch, len(state))
    from .rng import generator_state
    sidecar = {
        "config": config_dict,
        "step": trainer.step_index,
        "epoch": epoch,
        "rng": {"shuffle": generator_state(trainer.shuffle_gen)},
        "metrics": recorder.rows if recorder is not None else [],
    }
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    # temp files renamed over the targets, blob first: a save cut short keeps the old one
    temps = {path + ".tmp": header + digest + blob,
             path + ".json.tmp": json.dumps(sidecar, indent=1).encode()}
    try:
        for tmp, data in temps.items():
            with open(tmp, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
        for tmp in temps:
            os.replace(tmp, tmp.removesuffix(".tmp"))
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


@dataclass
class Checkpoint:
    path: str
    version: int
    precision: str
    step: int
    epoch: int
    arrays: dict
    sidecar: dict


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
    head_len = 4 + struct.calcsize("<IBQII")
    if len(raw) < head_len + 64:
        raise CheckpointError(f"{path}: truncated header")
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    version, precision, step, epoch, count = struct.unpack_from("<IBQII", raw, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    if precision not in _PRECISION_NAMES:
        raise CheckpointError(f"{path}: unknown precision code {precision}")
    digest = raw[head_len:head_len + 64]
    blob = raw[head_len + 64:]
    if hashlib.sha256(blob).hexdigest().encode("ascii") != digest:
        raise CheckpointError(f"{path}: digest mismatch (corrupt payload)")

    arrays = {}
    at = 0
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", blob, at)
            at += 2
            name = blob[at:at + name_len].decode("utf-8")
            at += name_len
            code, ndim = struct.unpack_from("<BB", blob, at)
            at += 2
            dims = struct.unpack_from(f"<{ndim}I", blob, at)
            at += 4 * ndim
            (nbytes,) = struct.unpack_from("<Q", blob, at)
            at += 8
            payload = blob[at:at + nbytes]
            at += nbytes
        except (struct.error, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: malformed entry table: {exc}")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"{path}: entry {name!r} has unknown dtype code {code}")
        dt = _CODE_DTYPES[code]
        if len(payload) != nbytes or nbytes != int(np.prod(dims, dtype=np.int64)) * dt.itemsize:
            raise CheckpointError(f"{path}: entry {name!r} payload is truncated")
        arrays[name] = np.frombuffer(payload, dtype=dt.newbyteorder("<")).astype(dt).reshape(dims)
    if at != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - at} trailing bytes after entries")

    sidecar = None
    if os.path.exists(path + ".json"):
        with open(path + ".json") as fh:
            sidecar = json.load(fh)
    return Checkpoint(path, version, _PRECISION_NAMES[precision], step, epoch,
                      arrays, sidecar)


def restore_into(trainer, ckpt: Checkpoint) -> None:
    """Load a checkpoint into a freshly built trainer of the same shape."""
    expected = collect_state(trainer)
    missing = sorted(set(expected) - set(ckpt.arrays))
    extra = sorted(set(ckpt.arrays) - set(expected))
    if missing or extra:
        raise CheckpointError(
            f"{ckpt.path}: state mismatch (missing {missing[:3]}, extra {extra[:3]})")
    for p in trainer.all_params:
        arr = ckpt.arrays[f"param/{p.name}"]
        if arr.shape != p.data.shape or arr.dtype != p.data.dtype:
            raise CheckpointError(f"{ckpt.path}: param/{p.name} is "
                                  f"{arr.dtype}{arr.shape}, expected "
                                  f"{p.data.dtype}{p.data.shape}")
        p.data[...] = arr
        if p.requires_grad:
            p.velocity[...] = ckpt.arrays[f"vel/{p.name}"]
    for bn in trainer.backbone.batchnorms():
        bn.running_mean[...] = ckpt.arrays[f"buf/{bn.name}.running_mean"]
        bn.running_var[...] = ckpt.arrays[f"buf/{bn.name}.running_var"]
        bn.initialized = bool(ckpt.arrays[f"buf/{bn.name}.initialized"][0])
    trainer.step_index = ckpt.step
    if ckpt.sidecar and "rng" in ckpt.sidecar:
        from .rng import restore_generator
        trainer.shuffle_gen = restore_generator(ckpt.sidecar["rng"]["shuffle"])
