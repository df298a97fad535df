"""Prior-logits providers.

A prior source answers "what does the prior classifier think of these
samples": ``resolve(dataset)`` returns the whole dataset's (N, K) block
of raw logits in ``dataset.ids`` order, by running a small in-repo MLP
on the pixels or by looking the ids up in a logits file.  Consumers
resolve a dataset once and slice the block, so the two sources agree
to the bit: a logits file holds the block the saved MLP gives for its
split, and JSON round-trips a float64 exactly.  Logits stay raw
(pre-softmax) because the energy and max-logit baselines need them.

Logits file format (UTF-8 JSON Lines):

    {"k": 4, "dataset": "synth-test", "model": "mlp"}
    {"id": "synth-test-00000", "label": 2, "logits": [..., 4 numbers]}
    ...

Numbers are serialized with full round-trip precision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from typing import Optional, Union

import numpy as np

from . import tensor as T
from .checkpoint import load_model, save_checkpoint
from .data import Dataset, subset
from .errors import FormatError, MissingPriorError, TrainingError
from .rng import philox, truncated_normal
from .tensor import Tensor
from .train import run_training


@dataclass
class LogitsRecord:
    """One sample's identifier, optional label, and K-vector of logits."""

    id: str
    label: Optional[int]
    logits: list[float]


@dataclass(frozen=True)
class MLPConfig:
    input_dim: int
    hidden_dim: int = 128
    num_classes: int = 4


class MLPClassifier:
    """Two-layer GELU MLP over flattened pixels; the desk-scale prior model."""

    def __init__(self, config: MLPConfig, seed: int = 0):
        self.config = config
        gen = philox(seed, 0x3117)
        self.params = {
            "fc1.weight": Tensor(truncated_normal(gen, (config.input_dim, config.hidden_dim), std=0.02), requires_grad=True),
            "fc1.bias": Tensor(np.zeros(config.hidden_dim), requires_grad=True),
            "fc2.weight": Tensor(truncated_normal(gen, (config.hidden_dim, config.num_classes), std=0.02), requires_grad=True),
            "fc2.bias": Tensor(np.zeros(config.num_classes), requires_grad=True),
        }

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def logits(self, images: np.ndarray) -> Tensor:
        """Batched forward over (B, H, W, C) images (or pre-flattened rows)."""
        x = np.asarray(images, dtype=np.float64)
        flat = x.reshape(x.shape[0], int(np.prod(x.shape[1:])))  # also for zero rows
        if flat.shape[1] != self.config.input_dim:
            raise FormatError(f"prior model expects {self.config.input_dim} pixels, got {flat.shape[1]}")
        hidden = T.gelu(T.add(T.matmul(Tensor(flat), self.params["fc1.weight"]), self.params["fc1.bias"]))
        return T.add(T.matmul(hidden, self.params["fc2.weight"]), self.params["fc2.bias"])

    def batch_loss(self, images, labels):
        out = self.logits(images)
        loss = T.cross_entropy(out, labels)
        correct = int(np.sum(np.argmax(out.data, axis=1) == np.asarray(labels)))
        return loss, correct

    def save(self, path: str, step: int = 0) -> None:
        header = {"kind": "mlp-prior", "config": asdict(self.config), "step": int(step)}
        save_checkpoint(path, header, {name: p.data for name, p in self.params.items()})

    @classmethod
    def load(cls, path: str) -> "MLPClassifier":
        model, _, _ = load_model(path, "mlp-prior", MLPConfig, cls)
        return model


@dataclass
class ModelSource:
    """Prior source backed by a trained classifier; resolves by pixels."""

    model: MLPClassifier
    name: str = "mlp"

    @property
    def num_classes(self) -> int:
        return self.model.config.num_classes

    def resolve(self, dataset: Dataset) -> np.ndarray:
        """(N, K) prior logits: one MLP pass over all of the dataset's images."""
        # on a copy, as the per-batch gathers this replaced made: freeing one that large
        # raises glibc's mmap threshold, else later forward passes page-fault (~30 % slower)
        return self.model.logits(np.array(dataset.images)).data


@dataclass
class TableSource:
    """Prior source backed by a loaded logits table; resolves by sample id."""

    records: dict[str, LogitsRecord]
    num_classes: int
    dataset: str = ""
    name: str = "table"

    def logits_for(self, ids) -> np.ndarray:
        """(len(ids), K) logits looked up by sample id."""
        missing = [sid for sid in ids if sid not in self.records]
        if missing:
            raise MissingPriorError(f"no prior logits for sample id {missing[0]!r}")
        rows = [self.records[sid].logits for sid in ids]
        return np.asarray(rows or np.empty((0, self.num_classes)), dtype=np.float64)

    def resolve(self, dataset: Dataset) -> np.ndarray:
        """(N, K) prior logits looked up by the dataset's sample ids."""
        return self.logits_for(dataset.ids)


PriorSource = Union[ModelSource, TableSource]


def priors_for_indices(source: PriorSource, dataset: Dataset, indices: np.ndarray) -> np.ndarray:
    """(B, K) prior logits for a batch of dataset indices, resolved as a
    dataset of its own: for a model-backed source the rows can differ from
    ``source.resolve(dataset)[indices]`` in the last bits (BLAS blocks a
    B-row product differently from an N-row one)."""
    return source.resolve(subset(dataset, indices))


def train_prior_model(train_set: Dataset, config, hidden_dim: int = 128, seed: int = 0,
                      num_classes: Optional[int] = None):
    """Fit the MLP prior on a labeled dataset; returns (source, result).

    ``config`` is a :class:`pvit.train.TrainConfig`.  The returned result
    carries the loss curve and per-epoch accuracy.  ``num_classes``
    defaults to the largest label plus one.
    """
    if len(train_set) == 0:
        raise TrainingError("train_prior_model needs a nonempty dataset")
    if train_set.labels is None:
        raise TrainingError("train_prior_model needs labels")
    k = int(train_set.labels.max()) + 1 if num_classes is None else int(num_classes)
    h, w, c = train_set.image_shape
    model = MLPClassifier(MLPConfig(input_dim=h * w * c, hidden_dim=hidden_dim, num_classes=k), seed=seed)
    result = None
    if config.epochs > 0:
        result = run_training(model, train_set, config)
    return ModelSource(model=model), result


def accuracy(source: PriorSource, dataset: Dataset) -> float:
    """Fraction of dataset labels matched by the argmax of the prior logits."""
    return float(np.mean(np.argmax(source.resolve(dataset), axis=1) == dataset.labels))


# ---------------------------------------------------------------------------
# logits file round trip


def export_logits(source: PriorSource, dataset: Dataset, path: str) -> None:
    """Write one logits line per dataset sample, after a k/dataset header."""
    all_logits = source.resolve(dataset)
    with open(path, "w", encoding="utf-8") as fh:
        header = {"k": source.num_classes, "dataset": dataset.name, "model": source.name}
        fh.write(json.dumps(header) + "\n")
        for i, sid in enumerate(dataset.ids):
            label = None if dataset.labels is None else int(dataset.labels[i])
            fh.write(json.dumps({"id": sid, "label": label, "logits": [float(v) for v in all_logits[i]]}) + "\n")


def load_logits(path: str) -> TableSource:
    """Parse a logits file; validates header, per-line K, id uniqueness,
    and that every logits vector is finite."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file, expected a header line")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:1: bad header: {exc}") from None
    if not isinstance(header, dict) or "k" not in header:
        raise FormatError(f"{path}:1: header must be an object with a 'k' field")
    k = int(header["k"])
    records: dict[str, LogitsRecord] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: malformed line: {exc}") from None
        try:
            sid, label, logits = obj["id"], obj["label"], obj["logits"]
        except (KeyError, TypeError):
            raise FormatError(f"{path}:{lineno}: line needs id/label/logits fields") from None
        if len(logits) != k:
            raise FormatError(f"{path}:{lineno}: expected {k} logits, got {len(logits)}")
        values = np.asarray(logits, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise FormatError(f"{path}:{lineno}: non-finite logits")
        if sid in records:
            raise FormatError(f"{path}:{lineno}: duplicate id {sid!r}")
        records[sid] = LogitsRecord(id=sid, label=None if label is None else int(label), logits=[float(v) for v in logits])
    return TableSource(records=records, num_classes=k, dataset=str(header.get("dataset", "")), name=str(header.get("model", "table")))
