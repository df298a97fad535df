"""Dataset ingestion and synthesis.

Three sources: big-endian IDX image/label files, a seeded synthetic
generator (oriented stripe patterns plus Gaussian pixel noise), and
derived OOD sets (uniform noise, frequency-shifted stripes, inverted
images).  Every generator is a pure function of its seed and spec, so
datasets are bit-identical across runs and platforms.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .config import OOD_KINDS, SCHEMA
from .errors import FormatError, ShapeError
from .rng import gaussian, philox

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Immutable image collection with optional labels.

    ``images`` is (n, H, W, C) float64; pixel range is [0, 1] unless
    :func:`normalize` has been applied.
    """

    name: str
    images: np.ndarray
    labels: Optional[np.ndarray] = None
    ids: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ShapeError(f"dataset images must be (n, H, W, C), got {self.images.shape}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if len(self.labels) != len(self.images):
                raise FormatError(
                    f"{self.name}: {len(self.images)} images but {len(self.labels)} labels"
                )
        if not self.ids:
            self.ids = [f"{self.name}-{i:05d}" for i in range(len(self.images))]
        elif len(self.ids) != len(self.images):
            raise FormatError(f"{self.name}: id count does not match image count")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.images.shape[1:])


def _read_idx(path: str, magic: int, kind: str, ndim: int) -> tuple[list[int], bytes]:
    """(dims, payload) of an IDX file of unsigned bytes.  The magic, nonzero
    row/column counts and a file length of exactly header plus declared
    payload are checked before the payload is read."""
    header_size = 4 * (1 + ndim)
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) < header_size:
            raise FormatError(f"{path}: truncated IDX header")
        found, *dims = struct.unpack(f">{1 + ndim}I", header)
        if found != magic:
            raise FormatError(f"{path}: bad {kind} magic 0x{found:08x}, expected 0x{magic:08x}")
        if 0 in dims[1:]:
            raise FormatError(f"{path}: zero row or column count in header dims {dims}")
        declared = math.prod(dims)
        held = os.fstat(fh.fileno()).st_size - header_size
        if held < declared:
            raise FormatError(f"{path}: truncated payload, header declares {declared} bytes, file holds {held}")
        if held > declared:
            raise FormatError(f"{path}: {held - declared} trailing bytes after the {declared}-byte payload")
        return dims, fh.read(declared)


def load_idx(images_path: str, labels_path: Optional[str] = None, name: Optional[str] = None) -> Dataset:
    """Parse big-endian IDX files into a dataset; pixels scale to [0, 1]."""
    (count, rows, cols), payload = _read_idx(images_path, IDX_IMAGES_MAGIC, "image", 3)
    images = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    images = images.reshape(count, rows, cols, 1)

    labels = None
    if labels_path is not None:
        (n_labels,), raw = _read_idx(labels_path, IDX_LABELS_MAGIC, "label", 1)
        if n_labels != count:
            raise FormatError(f"{labels_path}: {n_labels} labels for {count} images")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)

    return Dataset(name or "idx", images, labels)


def stripe_parameters(class_index: int, num_classes: int, shifted: bool = False) -> tuple[float, float, float]:
    """(frequency, angle, phase) of one class's stripe pattern.

    The shifted band starts strictly above the unshifted frequency range,
    so OOD pattern-shift classes never collide with ID classes.
    """
    base = 1.5 + 0.75 * class_index
    if shifted:
        base = 1.5 + 0.75 * num_classes + 1.0 + 0.75 * class_index
    angle = np.pi * (class_index / num_classes) + (np.pi / (2 * num_classes) if shifted else 0.0)
    phase = 2.0 * np.pi * class_index / (num_classes + 1)
    return float(base), float(angle), float(phase)


def _stripe_image(size: int, channels: int, freq: float, angle: float, phase: float) -> np.ndarray:
    u = np.arange(size, dtype=np.float64) / size
    uu, vv = np.meshgrid(u, u, indexing="ij")
    wave = np.sin(2.0 * np.pi * freq * (uu * np.cos(angle) + vv * np.sin(angle)) + phase)
    img = 0.5 + 0.5 * wave
    return np.repeat(img[:, :, None], channels, axis=2)


def synth_dataset(
    classes: int,
    per_class: int,
    size: int = SCHEMA["data.image_size"][1],
    channels: int = SCHEMA["data.channels"][1],
    noise_sigma: float = SCHEMA["data.noise_sigma"][1],
    seed: int = 0,
    name: str = "synth",
    shifted: bool = False,
) -> Dataset:
    """Labeled stripe-pattern images: class base pattern + seeded pixel noise.

    With ``noise_sigma`` 0 every image of a class is the identical base
    pattern.  ``shifted`` draws patterns from the disjoint OOD band.
    """
    if classes < 2 or per_class < 1:
        raise FormatError(f"synth_dataset needs classes >= 2 and per_class >= 1, got {classes}/{per_class}")
    gen = philox(seed, 0xDA7A)
    images = np.empty((classes * per_class, size, size, channels), dtype=np.float64)
    labels = np.empty(classes * per_class, dtype=np.int64)
    i = 0
    for c in range(classes):
        base = _stripe_image(size, channels, *stripe_parameters(c, classes, shifted))
        for _ in range(per_class):
            noisy = base + noise_sigma * gaussian(gen, base.shape)
            images[i] = np.clip(noisy, 0.0, 1.0)
            labels[i] = c
            i += 1
    return Dataset(name, images, labels)


def make_ood(
    kind: str,
    n: int,
    seed: int = 0,
    size: int = SCHEMA["data.image_size"][1],
    channels: int = SCHEMA["data.channels"][1],
    classes: int = SCHEMA["data.classes"][1],
    source: Optional[Dataset] = None,
    noise_sigma: float = SCHEMA["data.noise_sigma"][1],
) -> Dataset:
    """Unlabeled OOD test set of the requested kind, named ``ood-<kind>``.

    ``uniform-noise`` draws i.i.d. pixels; ``pattern-shift`` reuses the
    stripe generator, with the ID sets' pixel noise ``noise_sigma``, on
    the disjoint parameter band; ``inverted`` maps x to 1 - x over the
    images of ``source`` (required for that kind).
    """
    name = f"ood-{kind}"
    if kind == "uniform-noise":
        gen = philox(seed, 0x00D)
        images = gen.random((n, size, size, channels))
        return Dataset(name, images, None)
    if kind == "pattern-shift":
        ds = synth_dataset(classes, (n + classes - 1) // classes, size=size, channels=channels,
                           noise_sigma=noise_sigma, seed=seed, name=name, shifted=True)
        return Dataset(name, ds.images[:n], None)
    if kind == "inverted":
        if source is None:
            raise FormatError("inverted OOD needs a source dataset")
        take = min(n, len(source))
        return Dataset(name, 1.0 - source.images[:take], None)
    raise FormatError(f"unknown OOD kind {kind!r}; expected one of {OOD_KINDS}")


def normalize(dataset: Dataset, mean: float, std: float) -> Dataset:
    """Shift and scale pixels: ``(x - mean) / std``."""
    if std == 0:
        raise FormatError("normalize: std must be nonzero")
    return Dataset(dataset.name, (dataset.images - mean) / std, dataset.labels, ids=list(dataset.ids))


def split_dataset(dataset: Dataset, train_count: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Disjoint seeded index partition into (train, test)."""
    n = len(dataset)
    if not 0 < train_count < n:
        raise FormatError(f"split needs 0 < train_count < {n}, got {train_count}")
    perm = philox(seed, 0x5917).permutation(n)
    tr, te = np.sort(perm[:train_count]), np.sort(perm[train_count:])
    return subset(dataset, tr, f"{dataset.name}-train"), subset(dataset, te, f"{dataset.name}-test")


def subset(dataset: Dataset, indices: Sequence[int], name: Optional[str] = None) -> Dataset:
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        name or dataset.name,
        dataset.images[idx],
        None if dataset.labels is None else dataset.labels[idx],
        ids=[dataset.ids[i] for i in idx],
    )
