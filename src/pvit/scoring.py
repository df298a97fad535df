"""Confidence scores for OOD detection.

The composite score is the product of a base confidence (negative
energy, i.e. the logsumexp of the predicted logits) and a guidance term
measuring prior/prediction divergence: cross-entropy of the predicted
class under the prior distribution (CE), KL divergence from prior to
prediction (KL), or the Euclidean distance between the raw logit
vectors (ED).  MSP, MaxLogit and negative energy ride along as
baselines on the predicted logits.

There is one scoring path: :func:`predict_logits` resolves a dataset's
priors once and runs the model over it, batch by batch, and
:func:`score_records` builds every record in one vectorised pass over
the (N, K) predicted and prior logits.  The scalar functions
(:func:`energy`, :func:`msp`, :func:`guidance_ce`, ...) score one logit
vector and are the reference the records match.

Probabilities are clamped at 1e-12 before any log: near-one-hot priors
otherwise send -log q to infinity and poison downstream AUROC.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import Dataset
from .errors import FormatError, ShapeError
from .priors import PriorSource

PROB_CLAMP = 1e-12

GUIDANCE_KINDS = ("ce", "kl", "ed")
NUMBER_TYPES = frozenset({int, float})  # what JSON numbers parse to


@dataclass
class ScoreRecord:
    """Per-sample scores; ``pge`` is exactly ``base * guidance``."""

    id: str
    base: float
    guidance: float
    pge: float
    predicted_class: int
    baselines: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class DecisionRule:
    """Threshold rule: oriented score >= gamma means in-distribution."""

    threshold: float
    orientation: str = "as-is"  # as-is | negated


def _finite(z: np.ndarray, what: str) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ShapeError(f"{what} must be finite")
    return z


def _lse(z: np.ndarray) -> float:
    m = float(z.max())
    return m + float(np.log(np.exp(z - m).sum()))


def energy(logits) -> float:
    """Negative logsumexp of the logits; low for confident predictions."""
    z = _finite(logits, "logits")
    return -_lse(z)


def base_score(logits) -> float:
    """Negative energy: the logsumexp itself, higher for confident rows."""
    return -energy(logits)


def msp(logits) -> float:
    """Maximum softmax probability."""
    z = _finite(logits, "logits")
    e = np.exp(z - z.max())
    return float((e / e.sum()).max())


def max_logit(logits) -> float:
    """Largest raw logit."""
    return float(_finite(logits, "logits").max())


def _softmax_clamped(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return np.maximum(e / e.sum(), PROB_CLAMP)


def _softmax_rows_clamped(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return np.maximum(e / e.sum(axis=1, keepdims=True), PROB_CLAMP)


def guidance_ce(prior_logits, predicted_class: int) -> float:
    """-log of the prior probability assigned to the predicted class."""
    p = _finite(prior_logits, "prior logits")
    k = int(predicted_class)
    if not 0 <= k < len(p):
        raise ShapeError(f"predicted class {k} out of range [0, {len(p)})")
    return float(-np.log(_softmax_clamped(p)[k]))


def guidance_kl(prior_logits, predicted_logits) -> float:
    """KL(prior distribution || predicted distribution), both clamped."""
    p = _finite(prior_logits, "prior logits")
    q = _finite(predicted_logits, "predicted logits")
    if p.shape != q.shape:
        raise ShapeError(f"logit vectors disagree in length: {p.shape} vs {q.shape}")
    pp = _softmax_clamped(p)
    qq = _softmax_clamped(q)
    return float(np.sum(pp * np.log(pp / qq)))


def guidance_ed(prior_logits, predicted_logits) -> float:
    """Euclidean distance between the raw logit vectors."""
    p = _finite(prior_logits, "prior logits")
    q = _finite(predicted_logits, "predicted logits")
    if p.shape != q.shape:
        raise ShapeError(f"logit vectors disagree in length: {p.shape} vs {q.shape}")
    return float(np.sqrt(np.sum((p - q) ** 2)))


def pge(base: float, guidance: float) -> float:
    """Exact product of the base confidence and the guidance term."""
    return base * guidance


def cefe_expand(z, k: int) -> tuple[float, float]:
    """Both sides of the score expansion identity for logits ``z``, class ``k``:
    (-z_k + LSE) * LSE must equal -z_k * LSE + LSE^2."""
    z = _finite(z, "logits")
    if not 0 <= k < len(z):
        raise ShapeError(f"class {k} out of range [0, {len(z)})")
    lse = _lse(z)
    factored = (-float(z[k]) + lse) * lse
    expanded = -float(z[k]) * lse + lse * lse
    return factored, expanded


def decide(score: float, rule: DecisionRule) -> str:
    """'ID' when the oriented score clears the threshold, else 'OOD'."""
    if not np.isfinite(score):
        raise ShapeError("decide needs a finite score")
    oriented = -score if rule.orientation == "negated" else score
    return "ID" if oriented >= rule.threshold else "OOD"


def score_records(ids, predicted, priors, guidance_kind: str = "ce") -> list[ScoreRecord]:
    """One record per row of the (N, K) predicted and prior logit blocks.

    Row for row, every field equals the scalar functions above applied
    to that row's logits, to the last bit.
    """
    if guidance_kind not in GUIDANCE_KINDS:
        raise FormatError(f"unknown guidance kind {guidance_kind!r}; expected one of {GUIDANCE_KINDS}")
    z = _finite(predicted, "predicted logits")
    p = _finite(priors, "prior logits")
    if z.ndim != 2 or z.shape != p.shape or len(z) != len(ids):
        raise ShapeError(
            f"need matching (N, K) logit blocks for {len(ids)} ids, got {z.shape} and {p.shape}"
        )
    pred_class = np.argmax(z, axis=1)
    top = z.max(axis=1)
    e = np.exp(z - top[:, None])
    total = e.sum(axis=1)
    lse = top + np.log(total)
    msp_values = (e / total[:, None]).max(axis=1)
    if guidance_kind == "ed":
        guidance = np.sqrt(np.sum((p - z) ** 2, axis=1))
    else:
        pp = _softmax_rows_clamped(p)
        if guidance_kind == "ce":
            guidance = -np.log(pp[np.arange(len(pp)), pred_class])
        else:
            qq = _softmax_rows_clamped(z)
            guidance = np.sum(pp * np.log(pp / qq), axis=1)
    return [
        ScoreRecord(
            id=sid,
            base=base,
            guidance=g,
            pge=pge(base, g),
            predicted_class=k,
            # energy is oriented so that higher means in-distribution
            baselines={"msp": m, "max_logit": x, "energy": base},
        )
        for sid, base, g, k, m, x in zip(
            ids, lse.tolist(), guidance.tolist(), pred_class.tolist(), msp_values.tolist(), top.tolist()
        )
    ]


def predict_logits(model, prior_source: PriorSource, dataset: Dataset, alpha: Optional[float] = None,
                   batch_size: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """(predicted, prior) logits, each (N, K), over the whole dataset.

    The dataset's priors are resolved once into an (N, K) block; batch by
    batch, its rows and the images go through
    ``model.forward_batch(images, priors, alpha)``.
    """
    priors = prior_source.resolve(dataset)
    predicted = [np.empty((0, prior_source.num_classes))]
    for start in range(0, len(dataset), batch_size):
        batch = slice(start, start + batch_size)
        predicted.append(model.forward_batch(dataset.images[batch], priors[batch], alpha).logits.data)
    return np.concatenate(predicted), priors


def score_dataset(
    model,
    prior_source: PriorSource,
    dataset: Dataset,
    guidance_kind: str = "ce",
    alpha: Optional[float] = None,
    batch_size: int = 64,
) -> list[ScoreRecord]:
    """Score every sample: transformer forward, then base/guidance/composite."""
    predicted, priors = predict_logits(model, prior_source, dataset, alpha, batch_size)
    return score_records(dataset.ids, predicted, priors, guidance_kind)


# ---------------------------------------------------------------------------
# score file round trip


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_scores(path: str, records: list[ScoreRecord], guidance_kind: str, alpha: float, checkpoint_hash: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        header = {"guidance": guidance_kind, "alpha": float(alpha), "checkpoint_sha256": checkpoint_hash}
        fh.write(json.dumps(header) + "\n")
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "id": rec.id,
                        "base": rec.base,
                        "guidance": rec.guidance,
                        "pge": rec.pge,
                        "predicted_class": rec.predicted_class,
                        "baselines": rec.baselines,
                    }
                )
                + "\n"
            )


def read_scores(path: str) -> tuple[dict, list[ScoreRecord]]:
    """Header and records of a score file: JSON objects, with numbers for
    scores, or :class:`FormatError` naming ``file:line``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty score file")
    records = []
    for lineno, line in enumerate(lines, start=1):
        if lineno > 1 and not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: malformed JSON: {exc}") from None
        if type(obj) is not dict:
            raise FormatError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
        if lineno == 1:
            header = obj
            continue
        baselines = obj.get("baselines")
        if not (type(obj.get("id")) is str and type(obj.get("predicted_class")) is int
                and {type(obj.get("base")), type(obj.get("guidance")), type(obj.get("pge"))} <= NUMBER_TYPES
                and type(baselines) is dict and set(map(type, baselines.values())) <= NUMBER_TYPES):
            raise FormatError(f"{path}:{lineno}: score line lacks a field or has a non-numeric score")
        records.append(ScoreRecord(obj["id"], obj["base"], obj["guidance"], obj["pge"],
                                   obj["predicted_class"], baselines))
    return header, records


def score_field(record: ScoreRecord, name: str) -> float:
    """Extract a named score from a record; baseline names included."""
    if name in ("pge", "base", "guidance"):
        return getattr(record, name)
    if name in record.baselines:
        return record.baselines[name]
    raise FormatError(f"unknown score field {name!r}")
