"""Binary checkpoint container shared by the transformer and prior models.

Layout, all integers little-endian u32:

    magic "PVIT" | format version | JSON length | JSON header bytes
    | tensor count | per tensor: name length, name, rank, dims..., f32 data

Storage is float32, and a loaded checkpoint keeps its tensors float32:
a loaded model computes its forward pass at the precision it is stored
in (see :mod:`pvit.tensor`), and saving it again writes the same bytes.
Fresh models and training's master weights are float64; the consumers
that need float64 from a file, a resumed run's :class:`pvit.train.OptimizerState`
and ``attention-dump``, each upcast once.  Both models save through
:class:`Checkpointed`, so every JSON header holds exactly the model's
``kind``, its ``config`` and the training progress counters ``step`` and
``epoch``, and both load through it, so every rule on what a file holds
is :meth:`Checkpointed.load`'s.
"""

from __future__ import annotations

import dataclasses
import json
import math
import reprlib
import struct
from typing import Callable, Iterator, Mapping, Optional

import numpy as np

from .artifacts import write_artifact
from .config import INT64
from .errors import FormatError, ShapeError
from .rng import philox, sized
from .tensor import Tensor

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
    """Read header and tensors back; values are writable float32 arrays, as
    stored.  Any defect, a truncated file or trailing bytes included, is a
    FormatError."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())  # so that each tensor's slice is a writable buffer
    if data[:4] != MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic {bytes(data[:4])!r}, expected {MAGIC!r}")
    off = 4

    def take(count: int) -> bytearray:
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
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims)
    except ValueError as exc:
        raise FormatError(f"{path}: corrupt checkpoint: {exc}") from None
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes after the last tensor")
    return header, tensors


def zeros(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)


class Checkpointed:
    """Base of both models, saved as ``KIND``.  A model states its
    parameters once, in ``layout(config)``: a lazy run of ``(name, shape,
    init)`` in draw order, where ``init(gen, shape)`` draws the initial
    array, such as :func:`pvit.rng.truncated_normal`, :func:`zeros` or
    :func:`ones`.  ``config`` is a ``CONFIG`` dataclass and ``params`` maps
    each name to its tensor; a fresh model draws them in float64, a loaded
    one holds the file's float32 tensors."""

    KIND: str
    CONFIG: type
    STREAM: int  # the Philox stream tag of the initial draw
    layout: Callable[..., Iterator[tuple[str, tuple[int, ...], Callable]]]

    def __init__(self, config, seed: int = 0):
        """A fresh model: ``layout(config)`` drawn in order from ``seed``'s ``STREAM``, each shape :func:`sized`."""
        gen = philox(seed, self.STREAM)
        self.config = config
        self.params = {name: Tensor(init(gen, sized(f"{type(self).__name__} parameter {name!r}", shape)),
                                    requires_grad=True) for name, shape, init in self.layout(config)}

    def parameters(self) -> dict:
        return self.params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def save(self, path: str, step: int = 0, epoch: int = 0, extra_tensors: Optional[dict] = None) -> None:
        header = {"kind": self.KIND, "config": dataclasses.asdict(self.config), "step": int(step), "epoch": int(epoch)}
        save_checkpoint(path, header, {**{name: p.data for name, p in self.params.items()}, **(extra_tensors or {})})

    @classmethod
    def load(cls, path: str) -> tuple["Checkpointed", dict, dict[str, np.ndarray]]:
        """(model, header, leftover tensors such as optimizer state) from a ``KIND``
        checkpoint whose config names exactly ``CONFIG``'s fields, each integer
        an int64, and builds a ``CONFIG``, whose own check tests every value.
        The counters ``step`` and ``epoch`` are ints in [0, 2**63) and every
        tensor, parameter or leftover, is finite.  The model's parameters are
        the file's tensors: the layout is walked against them and stops at
        the first one missing or misshapen, so nothing is drawn and the work
        is bounded by the file, not the header.  Each refusal is a
        FormatError naming ``path`` and the key."""
        header, tensors = load_checkpoint(path)
        if header.get("kind") != cls.KIND:
            raise FormatError(f"{path}: checkpoint kind {header.get('kind')!r} is not {cls.KIND!r}")
        config = header.get("config")
        if not isinstance(config, dict):
            raise FormatError(f"{path}: checkpoint header has no config object")
        unknown_or_missing = sorted(set(config) ^ {f.name for f in dataclasses.fields(cls.CONFIG)})
        if unknown_or_missing:
            raise FormatError(f"{path}: checkpoint config keys {unknown_or_missing} "
                              f"are not {cls.CONFIG.__name__}'s fields")
        for key, value in config.items():
            if type(value) is int and value not in INT64:
                raise FormatError(f"{path}: checkpoint config {key!r} = {reprlib.repr(value)} does not fit an int64")
        try:
            config = cls.CONFIG(**config)
        except ShapeError as exc:
            raise FormatError(f"{path}: invalid checkpoint config: {exc}") from None
        for key in ("step", "epoch"):
            if type(header.get(key)) is not int or not 0 <= header[key] < 2**63:
                raise FormatError(f"{path}: checkpoint key {key!r} must be an integer in [0, 2**63), "
                                  f"got {reprlib.repr(header.get(key))}")
        for name, tensor in tensors.items():
            if not np.isfinite(tensor).all():
                raise FormatError(f"{path}: checkpoint tensor {name!r} has a value that is not finite")
        model = cls.__new__(cls)
        model.config, model.params = config, {}
        for name, shape, _ in cls.layout(config):
            if name not in tensors or tensors[name].shape != shape:
                raise FormatError(f"{path}: checkpoint has no tensor {name!r} of shape {shape}")
            model.params[name] = Tensor(tensors.pop(name), requires_grad=True)
        return model, header, tensors
