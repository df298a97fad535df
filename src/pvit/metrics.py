"""OOD evaluation: AUROC, FPR95 (the false-positive rate at the fixed 95 %
ID TPR of :data:`TPR_PERCENT`), threshold calibration, score-distribution
export.

Convention: higher score means in-distribution, and the threshold test
is inclusive (score >= gamma is ID); :func:`decide` is that rule, and
:func:`fpr_at_tpr` counts false positives through it.  AUROC uses the
rank (Mann-Whitney) formulation with ties counted half, so it equals
the fraction of (ID, OOD) pairs the score orders correctly.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .artifacts import write_artifact
from .config import ORIENTATION_POLICIES, ORIENTATIONS
from .errors import FormatError
from .scoring import ScoreRecord, score_field

TPR_PERCENT = 95  # the ID true-positive rate, in percent, that FPR95 and its threshold are read at


@dataclass(frozen=True)
class OODMetrics:
    auroc: float
    fpr95: float
    threshold: float
    n_id: int
    n_ood: int
    orientation: str  # orientation actually applied to the scores
    tpr_target: float = TPR_PERCENT / 100

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _validate(id_scores, ood_scores) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(id_scores, dtype=np.float64).ravel()
    b = np.asarray(ood_scores, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise FormatError("metrics need nonempty ID and OOD score lists")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise FormatError("metrics need finite scores; found NaN or infinity")
    return a, b


def decide(scores, threshold: float, orientation: str = "as-is") -> np.ndarray:
    """Bool mask, True for in-distribution: the oriented score is >= ``threshold``.

    ``OODMetrics.threshold`` and ``.orientation`` plug in as they are.
    """
    s = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(s)):
        raise FormatError("decide needs finite scores; found NaN or infinity")
    if orientation not in ORIENTATIONS:
        raise FormatError(f"unknown orientation {orientation!r}; expected one of {ORIENTATIONS}")
    return (-s if orientation == "negated" else s) >= threshold


def _mann_whitney_u(ids: np.ndarray, oods: np.ndarray) -> float:
    """(ID, OOD) pairs whose ID score is the larger, ties half: a sum of half-integers,
    so exact, and the negated scores' count is exactly ``len(ids) * len(oods) - u``."""
    pooled = np.sort(np.concatenate([ids, oods]))
    # 1-based midranks of the ID scores in the pooled sample: ties share
    # the average of the ranks they span
    ranks = (np.searchsorted(pooled, ids, "left") + np.searchsorted(pooled, ids, "right") + 1) / 2
    return ranks.sum() - len(ids) * (len(ids) + 1) / 2.0


def auroc(id_scores: Sequence[float], ood_scores: Sequence[float]) -> float:
    """Probability a random ID score exceeds a random OOD score, ties half."""
    ids, oods = _validate(id_scores, ood_scores)
    return float(_mann_whitney_u(ids, oods) / (len(ids) * len(oods)))


def fpr_at_tpr(id_scores: Sequence[float], ood_scores: Sequence[float]) -> tuple[float, float]:
    """(FPR, threshold) at the largest threshold keeping ID TPR >= 95 %.

    The threshold is the m-th largest ID score with m = ceil(0.95 * n_id),
    the largest value whose inclusive count still reaches 95 %.
    """
    ids, oods = _validate(id_scores, ood_scores)
    n = len(ids)
    m = (TPR_PERCENT * n + 99) // 100  # ceil(0.95 n) in exact integers, so 1 <= m <= n
    gamma = float(np.sort(ids)[n - m])
    return float(np.mean(decide(oods, gamma))), gamma


def evaluate(id_records, ood_records, score_name: str = "pge", orientation_policy: str = "auto") -> OODMetrics:
    """AUROC and FPR95 for one score field over ID and OOD record lists.

    ``orientation_policy``: "as-is" and "negated" apply that orientation;
    "auto" picks whichever gives AUROC >= 0.5 and reports the choice.
    Record lists may also be plain score sequences.  The pooled scores
    are ranked once, for both orientations.
    """

    def extract(records) -> np.ndarray:
        if len(records) and isinstance(records[0], ScoreRecord):
            return np.asarray([score_field(r, score_name) for r in records])
        return np.asarray(records, dtype=np.float64)

    if orientation_policy not in ORIENTATION_POLICIES:
        raise FormatError(f"unknown orientation policy {orientation_policy!r}")
    ids, oods = _validate(extract(id_records), extract(ood_records))
    pairs = len(ids) * len(oods)
    u = _mann_whitney_u(ids, oods)
    orientation = orientation_policy
    if orientation_policy == "auto":
        orientation = "as-is" if u / pairs >= 0.5 else "negated"
    if orientation == "negated":
        ids, oods, u = -ids, -oods, pairs - u
    fpr, gamma = fpr_at_tpr(ids, oods)
    return OODMetrics(auroc=float(u / pairs), fpr95=fpr, threshold=gamma, n_id=len(ids), n_ood=len(oods),
                      orientation=orientation)


def histogram_export(
    id_scores: Sequence[float], ood_scores: Sequence[float], bins: int, path: str
) -> None:
    """CSV of shared bin edges and per-class counts over [min, max]."""
    ids, oods = _validate(id_scores, ood_scores)
    if bins < 2:
        raise FormatError(f"histogram needs bins >= 2, got {bins}")
    lo = float(min(ids.min(), oods.min()))
    hi = float(max(ids.max(), oods.max()))
    ulp = math.ulp(max(abs(lo), abs(hi)))
    if hi / 2 - lo / 2 < bins * ulp:  # under two ULPs a bin (one value, say): widen to distinct edges
        pad = max(0.5, 2 * bins * ulp)
        lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
    with np.errstate(over="ignore"):  # halved, so hi - lo fits; linspace resets its last point
        edges = np.linspace(lo / 2, hi / 2, bins + 1) * 2
    edges[0], edges[-1] = lo, hi  # halving a subnormal may round
    id_counts, _ = np.histogram(ids, bins=edges)
    ood_counts, _ = np.histogram(oods, bins=edges)
    lines = ["bin_left,bin_right,id_count,ood_count"]
    edges = edges.tolist()  # Python floats: repr is a plain number whatever numpy's version
    for i in range(bins):
        lines.append(f"{edges[i]!r},{edges[i + 1]!r},{id_counts[i]},{ood_counts[i]}")
    write_artifact(path, [line + "\n" for line in lines])
