"""Prior-logits providers.

A prior source answers "what does the prior classifier think of these
samples": ``resolve(dataset)`` returns the whole dataset's (N, K) block
of raw logits in ``dataset.ids`` order.  :class:`ModelSource` runs the
small in-repo MLP on the pixels; it backs ``train-prior`` and
``export-logits``, which write each split's block to a logits file from
the prior as saved.  :class:`TableSource` looks ids up in a file that
:func:`load_logits` read, the one way priors reach every other command;
JSON round-trips a float64 exactly, so the two agree to the bit.  Logits
stay raw (pre-softmax) because the energy and max-logit baselines need them.
The MLP is :class:`pvit.checkpoint.Checkpointed`, as the transformer is, so
``prior.ckpt``'s header holds ``pvit.ckpt``'s keys: kind, config, step and epoch.

Logits file format (UTF-8 JSON Lines):

    {"k": 4, "dataset": "synth-test", "model": "mlp"}
    {"id": "synth-test-00000", "label": 2, "logits": [..., 4 numbers]}
    ...

Numbers are serialized with full round-trip precision.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .artifacts import NUMBER_TYPES, read_jsonl, write_jsonl
from .checkpoint import Checkpointed, zeros
from .config import check, setting
from .data import Dataset, subset
from .errors import FormatError, MissingPriorError, ShapeError, TrainingError
from .rng import truncated_normal
from .tensor import Tensor
from .train import run_training


@dataclass(frozen=True)
class MLPConfig:
    input_dim: int
    hidden_dim: int = setting("prior.hidden")
    num_classes: int = setting("data.classes")

    def __post_init__(self):
        check(self)
        if self.input_dim < 1:
            raise ShapeError(f"input_dim must be at least 1, got {self}")


class MLPClassifier(Checkpointed):
    """Two-layer GELU MLP over flattened pixels; the desk-scale prior model.
    :meth:`layout` states its four parameters in draw order."""

    KIND = "mlp-prior"
    CONFIG = MLPConfig
    STREAM = 0x3117

    @staticmethod
    def layout(config: MLPConfig):
        yield "fc1.weight", (config.input_dim, config.hidden_dim), truncated_normal
        yield "fc1.bias", (config.hidden_dim,), zeros
        yield "fc2.weight", (config.hidden_dim, config.num_classes), truncated_normal
        yield "fc2.bias", (config.num_classes,), zeros

    def logits(self, images: np.ndarray) -> Tensor:
        """Batched forward over (B, H, W, C) images (or pre-flattened rows),
        at the parameters' precision: a loaded (float32) prior returns float32."""
        x = np.asarray(images, dtype=self.params["fc1.weight"].data.dtype)
        flat = x.reshape(x.shape[0], int(np.prod(x.shape[1:])))  # also for zero rows
        if flat.shape[1] != self.config.input_dim:
            raise FormatError(f"prior model expects {self.config.input_dim} pixels, got {flat.shape[1]}")
        hidden = T.gelu(T.linear(Tensor(flat), self.params["fc1.weight"], self.params["fc1.bias"]))
        return T.linear(hidden, self.params["fc2.weight"], self.params["fc2.bias"])

    def batch_loss(self, images, labels):
        out = self.logits(images)
        loss = T.cross_entropy(out, labels)
        correct = int(np.sum(np.argmax(out.data, axis=1) == np.asarray(labels)))
        return loss, correct


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
        return self.model.logits(dataset.images).data


@dataclass
class TableSource:
    """Prior source backed by a loaded logits table; resolves by sample id.

    ``records`` maps each sample id to its (K,) float64 logits row;
    ``path`` is the file :func:`load_logits` read it from."""

    records: dict[str, np.ndarray]
    num_classes: int
    name: str = "table"
    path: str = "<table>"

    def logits_for(self, ids) -> np.ndarray:
        """(len(ids), K) logits looked up by sample id; an id the table
        lacks raises MissingPriorError naming ``path``."""
        missing = [sid for sid in ids if sid not in self.records]
        if missing:
            raise MissingPriorError(f"{self.path}: no prior logits for sample id {missing[0]!r}")
        rows = [self.records[sid] for sid in ids]
        return np.asarray(rows or np.empty((0, self.num_classes)), dtype=np.float64)

    def resolve(self, dataset: Dataset) -> np.ndarray:
        """(N, K) prior logits looked up by the dataset's sample ids."""
        return self.logits_for(dataset.ids)


def priors_for_indices(source: ModelSource | TableSource, dataset: Dataset, indices: np.ndarray) -> np.ndarray:
    """(B, K) prior logits for a batch of dataset indices, resolved as a
    dataset of its own: for a model-backed source the rows can differ from
    ``source.resolve(dataset)[indices]`` in the last bits (BLAS blocks a
    B-row product differently from an N-row one)."""
    return source.resolve(subset(dataset, indices))


def train_prior_model(train_set: Dataset, config, hidden_dim: int = MLPConfig.hidden_dim, seed: int = 0,
                      num_classes: Optional[int] = None):
    """Fit the MLP prior on a labeled dataset; returns (source, result).

    ``config`` is a :class:`pvit.train.TrainConfig`.  The returned result
    carries the loss curve, whose last point per epoch holds that epoch's
    training accuracy; with 0 epochs the curve is empty and the final
    step 0.  ``num_classes`` defaults to the largest label plus one.
    """
    if len(train_set) == 0:
        raise TrainingError("train_prior_model needs a nonempty dataset")
    if train_set.labels is None:
        raise TrainingError("train_prior_model needs labels")
    k = int(train_set.labels.max()) + 1 if num_classes is None else int(num_classes)
    h, w, c = train_set.image_shape
    model = MLPClassifier(MLPConfig(input_dim=h * w * c, hidden_dim=hidden_dim, num_classes=k), seed=seed)
    return ModelSource(model=model), run_training(model, train_set, config)


# ---------------------------------------------------------------------------
# logits file round trip


@np.errstate(over="ignore", invalid="ignore")  # a prior whose forward pass overflows is refused below
def export_logits(source: ModelSource | TableSource, dataset: Dataset, path: str) -> np.ndarray:
    """Write one logits line per dataset sample, after a k/dataset header;
    returns the (N, K) block written.  A NaN or infinite logit, such as a
    forward pass that overflows gives, is a FormatError naming the dataset
    and the first such sample, raised before anything is written."""
    all_logits = source.resolve(dataset)
    finite = np.isfinite(all_logits).all(axis=1)
    if not finite.all():
        raise FormatError(f"{dataset.name}: sample {dataset.ids[int(np.argmin(finite))]!r} has a NaN or "
                          "infinite prior logit; logits files must be finite")
    labels = [None] * len(dataset) if dataset.labels is None else dataset.labels.tolist()
    header = {"k": source.num_classes, "dataset": dataset.name, "model": source.name}
    write_jsonl(path, header, (
        {"id": sid, "label": label, "logits": row.tolist()}
        for sid, label, row in zip(dataset.ids, labels, all_logits)
    ))
    return all_logits


# the widest (N, K) float64 block numpy makes, even at N = 0
MAX_K = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def load_logits(path: str) -> TableSource:
    """Parse a logits file into a table that keeps ``path``; validates the
    header, field types, per-line K, id uniqueness, and that every logits
    vector is finite: a malformed line raises :class:`FormatError` naming
    ``file:line``.  Labels are checked, not kept.  The table's rows are
    views of one (N, K) float64 block, built once every line has passed."""
    header, rows = read_jsonl(path)
    k = header.get("k")
    if type(k) is not int or not 1 <= k <= MAX_K:
        raise FormatError(f"{path}:1: header 'k' must be an integer in [1, {MAX_K}], got {reprlib.repr(k)}")
    lines: dict[str, list] = {}
    for lineno, obj in rows:
        try:
            sid, label, logits = obj["id"], obj["label"], obj["logits"]
        except KeyError:
            raise FormatError(f"{path}:{lineno}: line needs id/label/logits fields") from None
        if type(sid) is not str or not (label is None or type(label) is int):
            raise FormatError(f"{path}:{lineno}: id must be a string and label an integer or null")
        if type(logits) is not list or not NUMBER_TYPES.issuperset(map(type, logits)):
            raise FormatError(f"{path}:{lineno}: logits must be a list of numbers")
        if len(logits) != k:
            raise FormatError(f"{path}:{lineno}: expected {k} logits, got {len(logits)}")
        try:
            finite = all(map(math.isfinite, logits))
        except OverflowError:  # a JSON integer no float64 holds
            finite = False
        if not finite:
            raise FormatError(f"{path}:{lineno}: non-finite logits")
        if sid in lines:
            raise FormatError(f"{path}:{lineno}: duplicate id {sid!r}")
        lines[sid] = logits
    records = dict(zip(lines, np.array(list(lines.values()), dtype=np.float64).reshape(len(lines), k)))
    return TableSource(records=records, num_classes=k, name=str(header.get("model", "table")), path=path)
