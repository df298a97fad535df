"""Confidence scores for OOD detection.

The composite score is the product of a base confidence (negative
energy, i.e. the logsumexp of the predicted logits) and a guidance term
measuring prior/prediction divergence: cross-entropy of the predicted
class under the prior distribution (CE), KL divergence from prior to
prediction (KL), or the Euclidean distance between the raw logit
vectors (ED).  MSP, MaxLogit and negative energy ride along as
baselines on the predicted logits.

There is one scoring path: :func:`predict_logits` joins the logits of
:func:`forward_batches`, the one batch loop over images and their (N, K)
prior-logits block, and :func:`score_records` builds every record in one
vectorised pass over the predicted and prior blocks; :func:`score_dataset`
resolves a prior source into the block once and feeds both.  Nothing
here scores a single logit vector; the tests keep per-vector reference
scorers as the oracle the records match.

Probabilities are clamped at 1e-12 before any log: near-one-hot priors
otherwise send -log q to infinity and poison downstream AUROC.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import dataclass, field

import numpy as np

from .artifacts import NUMBER_TYPES, read_jsonl, write_jsonl
from .config import GUIDANCE_KINDS, SCORE_FIELDS
from .data import Dataset
from .errors import FormatError, ShapeError
from .tensor import softmax_rows

PROB_CLAMP = 1e-12


@dataclass(slots=True)
class ScoreRecord:
    """Per-sample scores; ``pge`` is exactly ``base * guidance``."""

    id: str
    base: float
    guidance: float
    pge: float
    predicted_class: int
    baselines: dict[str, float] = field(default_factory=dict)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing score raises FormatError instead
def score_records(ids, predicted, priors, guidance_kind: str = "ce") -> list[ScoreRecord]:
    """One record per row of the (N, K) predicted and prior logit blocks:
    base is the predicted row's logsumexp, the predicted class its argmax
    (lowest index on ties) and ``pge`` exactly ``base * guidance``, finite
    or :class:`FormatError` naming the first id whose predicted logits are
    not finite or whose score overflows."""
    if guidance_kind not in GUIDANCE_KINDS:
        raise FormatError(f"unknown guidance kind {guidance_kind!r}; expected one of {GUIDANCE_KINDS}")
    z, p = np.asarray(predicted, dtype=np.float64), np.asarray(priors, dtype=np.float64)
    if not np.isfinite(p).all():
        raise ShapeError("prior logits must be finite")
    if z.ndim != 2 or z.shape != p.shape or len(z) != len(ids):
        raise ShapeError(
            f"need matching (N, K) logit blocks for {len(ids)} ids, got {z.shape} and {p.shape}"
        )
    finite = np.isfinite(z).all(axis=1)
    if not finite.all():  # a model whose forward pass overflows
        raise FormatError(f"sample {ids[int(np.argmin(finite))]!r}: a predicted logit is NaN or infinite; "
                          "scores must be finite")
    pred_class = np.argmax(z, axis=1)
    top = z.max(axis=1)
    e = np.exp(z - top[:, None])
    total = e.sum(axis=1)
    lse = top + np.log(total)
    probs = e / total[:, None]
    if guidance_kind == "ed":
        guidance = np.sqrt(np.sum((p - z) ** 2, axis=1))
    else:
        pp = np.maximum(softmax_rows(p), PROB_CLAMP)
        if guidance_kind == "ce":
            guidance = -np.log(pp[np.arange(len(pp)), pred_class])
        else:
            qq = np.maximum(probs, PROB_CLAMP)
            guidance = np.sum(pp * np.log(pp / qq), axis=1)
    finite = np.isfinite(lse * guidance)  # pge: not finite whenever base or guidance is not
    if not finite.all():
        raise FormatError(f"sample {ids[int(np.argmin(finite))]!r}: a score overflows float64; scores must be finite")
    return [
        ScoreRecord(
            id=sid,
            base=base,
            guidance=g,
            pge=base * g,
            predicted_class=k,
            # energy is oriented so that higher means in-distribution
            baselines={"msp": m, "max_logit": x, "energy": base},
        )
        for sid, base, g, k, m, x in zip(
            ids, lse.tolist(), guidance.tolist(), pred_class.tolist(), probs.max(axis=1).tolist(), top.tolist()
        )
    ]


def forward_batches(model, images: np.ndarray, priors: np.ndarray, alpha=None, batch_size: int = 64):
    """Yield ``(rows, model.forward_batch(images[rows], priors[rows], alpha))`` for consecutive
    row slices of at most ``batch_size`` (N, H, W, C) images and their (N, K) prior-logits rows."""
    if len(priors) != len(images):
        raise ShapeError(f"need one prior-logits row per image: {len(images)} images, {len(priors)} rows")
    for start in range(0, len(images), batch_size):
        rows = slice(start, start + batch_size)
        yield rows, model.forward_batch(images[rows], priors[rows], alpha)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing forward pass is score_records' to refuse
def predict_logits(model, images: np.ndarray, priors: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """(N, K) float64 predicted logits at the model's own alpha, joined
    from :func:`forward_batches` whatever the model's dtype; a forward
    pass that overflows gives NaN or infinite logits without a warning."""
    predicted = [np.empty((0, priors.shape[1]))]
    for _, out in forward_batches(model, images, priors, batch_size=batch_size):
        predicted.append(out.logits.data)
        del out  # the batch's attention weights go before the next batch runs
    return np.concatenate(predicted, dtype=np.float64)


def score_dataset(model, prior_source, dataset: Dataset, guidance_kind: str = "ce",
                  batch_size: int = 64) -> list[ScoreRecord]:
    """Score every sample: its priors resolved once (``prior_source.resolve``), then predicted, then scored."""
    priors = prior_source.resolve(dataset)
    return score_records(dataset.ids, predict_logits(model, dataset.images, priors, batch_size), priors,
                         guidance_kind)


# ---------------------------------------------------------------------------
# score file round trip


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_scores(path: str, records: list[ScoreRecord], guidance_kind: str, alpha: float, checkpoint_hash: str = "") -> None:
    header = {"guidance": guidance_kind, "alpha": float(alpha), "checkpoint_sha256": checkpoint_hash}
    # a dict per line: ScoreRecord has slots and no __dict__, so vars(rec) raises TypeError
    write_jsonl(path, header, ({"id": r.id, "base": r.base, "guidance": r.guidance, "pge": r.pge,
                                "predicted_class": r.predicted_class, "baselines": r.baselines} for r in records))


def read_scores(path: str) -> tuple[dict, list[ScoreRecord]]:
    """Header and records of a score file: JSON objects with numbers for
    scores, one per id, or :class:`FormatError` naming ``file:line``.

    The records form no reference cycles, so the cyclic garbage collector,
    whose full passes would rescan every record built so far, is paused
    while they are built and left as it was found afterwards."""
    header, rows = read_jsonl(path)
    records, seen = [], set()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for lineno, obj in rows:
            baselines = obj.get("baselines")
            if not (type(obj.get("id")) is str and type(obj.get("predicted_class")) is int
                    and type(obj.get("base")) in NUMBER_TYPES and type(obj.get("guidance")) in NUMBER_TYPES
                    and type(obj.get("pge")) in NUMBER_TYPES
                    and type(baselines) is dict and NUMBER_TYPES.issuperset(map(type, baselines.values()))):
                raise FormatError(f"{path}:{lineno}: score line lacks a field or has a non-numeric score")
            if obj["id"] in seen:
                raise FormatError(f"{path}:{lineno}: duplicate id {obj['id']!r}")
            seen.add(obj["id"])
            records.append(ScoreRecord(obj["id"], obj["base"], obj["guidance"], obj["pge"],
                                       obj["predicted_class"], baselines))
    finally:
        if was_enabled:
            gc.enable()
    return header, records


def score_field(record: ScoreRecord, name: str) -> float:
    """Extract a named score from a record, one of :data:`SCORE_FIELDS`;
    a baseline the record does not hold raises :class:`FormatError`."""
    if name in ("pge", "base", "guidance"):
        return getattr(record, name)
    if name in record.baselines:
        return record.baselines[name]
    raise FormatError(f"record {record.id!r} holds no score {name!r}")
