"""Binary checkpoint container shared by the transformer and prior models.

Layout, all integers little-endian u32:

    magic "PVIT" | format version | JSON length | JSON header bytes
    | tensor count | per tensor: name length, name, rank, dims..., f32 data

Compute stays float64; storage is float32, so a save/load round trip
reproduces model outputs to f32 quantization.  The JSON header carries
the model kind, its configuration, and training progress counters.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import typing
from typing import Mapping

import numpy as np

from .artifacts import write_artifact
from .errors import FormatError, ShapeError

MAGIC = b"PVIT"
FORMAT_VERSION = 1


def save_checkpoint(path: str, header: dict, tensors: Mapping[str, np.ndarray]) -> None:
    """Write tensors in the mapping's iteration order (the declared order)."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    write_artifact(path, _checkpoint_chunks(blob, tensors))


def _checkpoint_chunks(blob: bytes, tensors: Mapping[str, np.ndarray]):
    yield MAGIC + struct.pack("<II", FORMAT_VERSION, len(blob)) + blob + struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        encoded = name.encode("utf-8")
        arr = np.asarray(arr)
        yield struct.pack(f"<I{len(encoded)}sI{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape)
        yield arr.astype("<f4").tobytes()


def load_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read header and tensors back; values are upcast to float64.  Any
    defect, a truncated file or trailing bytes included, is a FormatError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {data[:4]!r}, expected {MAGIC!r}")
    off = 4

    def take(count: int) -> bytes:
        nonlocal off
        if off + count > len(data):
            raise FormatError(f"{path}: truncated checkpoint")
        off += count
        return data[off - count : off]

    def read_u32() -> int:
        return struct.unpack("<I", take(4))[0]

    version = read_u32()
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        header = json.loads(take(read_u32()).decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("not a JSON object")
        for _ in range(read_u32()):
            name = take(read_u32()).decode("utf-8")
            dims = [read_u32() for _ in range(read_u32())]
            raw = take(4 * math.prod(dims))
            tensors[name] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(dims)
    except ValueError as exc:
        raise FormatError(f"{path}: corrupt checkpoint: {exc}") from None
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes after the last tensor")
    return header, tensors


def load_model(path: str, kind: str, config_cls, make):
    """(``make(config)`` with its ``params`` read back, header, leftover
    tensors) from a ``kind`` checkpoint whose config names exactly
    ``config_cls``'s fields."""
    header, tensors = load_checkpoint(path)
    if header.get("kind") != kind:
        raise FormatError(f"{path}: checkpoint kind {header.get('kind')!r} is not {kind!r}")
    config = header.get("config")
    if not isinstance(config, dict):
        raise FormatError(f"{path}: checkpoint header has no config object")
    fields = [f.name for f in dataclasses.fields(config_cls)]
    unknown_or_missing = sorted(set(config) ^ set(fields))
    if unknown_or_missing:
        raise FormatError(f"{path}: checkpoint config keys {unknown_or_missing} are not {config_cls.__name__}'s fields")
    hints = typing.get_type_hints(config_cls)
    for key in fields:
        if type(config[key]) not in ((int, float) if hints[key] is float else (hints[key],)):
            raise FormatError(f"{path}: checkpoint config {key!r} = {config[key]!r} is not a {hints[key].__name__}")
    try:
        model = make(config_cls(**config))
    except ShapeError as exc:
        raise FormatError(f"{path}: invalid checkpoint config: {exc}") from None
    for name, param in model.params.items():
        if name not in tensors or tensors[name].shape != param.shape:
            raise FormatError(f"{path}: checkpoint has no tensor {name!r} of shape {param.shape}")
        param.data = np.ascontiguousarray(tensors.pop(name))
    return model, header, tensors
