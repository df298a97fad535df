"""Dataset ingestion and synthesis.

Three sources: big-endian IDX image/label files, a seeded synthetic
generator (oriented stripe patterns plus Gaussian pixel noise), and
derived OOD sets (uniform noise, frequency-shifted stripes, inverted
images).  Every generator is a pure function of its seed and spec, so
datasets are bit-identical across runs and platforms.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import FormatError, ShapeError
from .rng import gaussian, philox

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

OOD_KINDS = ("uniform-noise", "pattern-shift", "inverted")


@dataclass
class Dataset:
    """Immutable image collection with optional labels.

    ``images`` is (n, H, W, C) float64; pixel range is [0, 1] unless a
    normalization transform has been applied (recorded in ``meta``).
    """

    name: str
    images: np.ndarray
    labels: Optional[np.ndarray] = None
    role: str = "ID-train"  # ID-train | ID-test | OOD-test
    ids: list[str] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

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


def load_idx(images_path: str, labels_path: Optional[str] = None, name: Optional[str] = None) -> Dataset:
    """Parse big-endian IDX files into a dataset; pixels scale to [0, 1]."""
    with open(images_path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise FormatError(f"{images_path}: truncated IDX header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(
                f"{images_path}: bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}"
            )
        payload = fh.read(count * rows * cols)
        if len(payload) != count * rows * cols:
            raise FormatError(f"{images_path}: truncated payload, expected {count * rows * cols} bytes")
    images = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    images = images.reshape(count, rows, cols, 1)

    labels = None
    if labels_path is not None:
        with open(labels_path, "rb") as fh:
            header = fh.read(8)
            if len(header) < 8:
                raise FormatError(f"{labels_path}: truncated IDX header")
            magic, n_labels = struct.unpack(">II", header)
            if magic != IDX_LABELS_MAGIC:
                raise FormatError(
                    f"{labels_path}: bad label magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}"
                )
            raw = fh.read(n_labels)
            if len(raw) != n_labels:
                raise FormatError(f"{labels_path}: truncated payload")
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
    size: int = 28,
    channels: int = 1,
    noise_sigma: float = 0.2,
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
    return Dataset(name, images, labels, role="ID-train")


def make_ood(
    kind: str,
    n: int,
    seed: int = 0,
    size: int = 28,
    channels: int = 1,
    classes: int = 4,
    source: Optional[Dataset] = None,
    name: Optional[str] = None,
) -> Dataset:
    """Unlabeled OOD test set of the requested kind.

    ``uniform-noise`` draws i.i.d. pixels; ``pattern-shift`` reuses the
    stripe generator on the disjoint parameter band; ``inverted`` maps
    x to 1 - x over the images of ``source`` (required for that kind).
    """
    name = name or f"ood-{kind}"
    if kind == "uniform-noise":
        gen = philox(seed, 0x00D)
        images = gen.random((n, size, size, channels))
        return Dataset(name, images, None, role="OOD-test")
    if kind == "pattern-shift":
        ds = synth_dataset(
            classes,
            (n + classes - 1) // classes,
            size=size,
            channels=channels,
            noise_sigma=0.2,
            seed=seed,
            name=name,
            shifted=True,
        )
        return Dataset(name, ds.images[:n], None, role="OOD-test")
    if kind == "inverted":
        if source is None:
            raise FormatError("inverted OOD needs a source dataset")
        take = min(n, len(source))
        return Dataset(name, 1.0 - source.images[:take], None, role="OOD-test")
    raise FormatError(f"unknown OOD kind {kind!r}; expected one of {OOD_KINDS}")


def normalize(dataset: Dataset, mean: float, std: float) -> Dataset:
    """Shift and scale pixels; the transform is recorded in metadata so
    scoring can verify it uses the training preprocessing."""
    if std == 0:
        raise FormatError("normalize: std must be nonzero")
    meta = dict(dataset.meta)
    meta["normalize"] = {"mean": float(mean), "std": float(std)}
    return Dataset(
        dataset.name,
        (dataset.images - mean) / std,
        dataset.labels,
        role=dataset.role,
        ids=list(dataset.ids),
        meta=meta,
    )


def denormalize(dataset: Dataset) -> Dataset:
    """Invert the recorded normalization transform."""
    t = dataset.meta.get("normalize")
    if t is None:
        return dataset
    meta = {k: v for k, v in dataset.meta.items() if k != "normalize"}
    return Dataset(
        dataset.name,
        dataset.images * t["std"] + t["mean"],
        dataset.labels,
        role=dataset.role,
        ids=list(dataset.ids),
        meta=meta,
    )


def split_dataset(dataset: Dataset, train_count: int, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Disjoint seeded index partition into (train, test)."""
    n = len(dataset)
    if not 0 < train_count < n:
        raise FormatError(f"split needs 0 < train_count < {n}, got {train_count}")
    perm = philox(seed, 0x5917).permutation(n)
    tr, te = np.sort(perm[:train_count]), np.sort(perm[train_count:])

    def take(idx: np.ndarray, role: str, suffix: str) -> Dataset:
        return Dataset(
            f"{dataset.name}-{suffix}",
            dataset.images[idx],
            None if dataset.labels is None else dataset.labels[idx],
            role=role,
            ids=[dataset.ids[i] for i in idx],
            meta=dict(dataset.meta),
        )

    return take(tr, "ID-train", "train"), take(te, "ID-test", "test")


def subset(dataset: Dataset, indices: Sequence[int], name: Optional[str] = None) -> Dataset:
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        name or dataset.name,
        dataset.images[idx],
        None if dataset.labels is None else dataset.labels[idx],
        role=dataset.role,
        ids=[dataset.ids[i] for i in idx],
        meta=dict(dataset.meta),
    )
