"""OOD evaluation: AUROC, FPR at fixed TPR, threshold calibration,
score-distribution export.

Convention: higher score means in-distribution, and the threshold test
is inclusive (score >= gamma is ID).  AUROC uses the rank (Mann-Whitney)
formulation with ties counted half, so it equals the fraction of
(ID, OOD) pairs the score orders correctly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .errors import FormatError


@dataclass(frozen=True)
class OODMetrics:
    auroc: float
    fpr95: float
    threshold: float
    n_id: int
    n_ood: int
    orientation: str  # orientation actually applied to the scores
    tpr_target: float = 0.95

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


def fpr_at_tpr(
    id_scores: Sequence[float], ood_scores: Sequence[float], tpr_target: float = 0.95
) -> tuple[float, float]:
    """(FPR, threshold) at the largest threshold keeping ID TPR >= target.

    The threshold is the m-th largest ID score with m = ceil(target * n_id),
    the largest value whose inclusive count still reaches the target.
    """
    ids, oods = _validate(id_scores, ood_scores)
    if not 0.0 < tpr_target <= 1.0:
        raise FormatError(f"tpr_target must be in (0, 1], got {tpr_target}")
    n = len(ids)
    # tiny guard so exact multiples like 0.95 * 20 do not ceil to m + 1
    m = math.ceil(tpr_target * n - 1e-9)
    m = min(max(m, 1), n)
    gamma = float(np.sort(ids)[n - m])
    fpr = float(np.mean(oods >= gamma))
    return fpr, gamma


def evaluate(
    id_records,
    ood_records,
    score_name: str = "pge",
    orientation_policy: str = "auto",
    tpr_target: float = 0.95,
) -> OODMetrics:
    """Metrics for one score field over ID and OOD record lists.

    ``orientation_policy``: "as-is" and "negated" apply that orientation;
    "auto" picks whichever gives AUROC >= 0.5 and reports the choice.
    Record lists may also be plain score sequences.  The pooled scores
    are ranked once, for both orientations.
    """
    from .scoring import ScoreRecord, score_field

    def extract(records) -> np.ndarray:
        if len(records) and isinstance(records[0], ScoreRecord):
            return np.asarray([score_field(r, score_name) for r in records])
        return np.asarray(records, dtype=np.float64)

    if orientation_policy not in ("as-is", "negated", "auto"):
        raise FormatError(f"unknown orientation policy {orientation_policy!r}")
    ids, oods = _validate(extract(id_records), extract(ood_records))
    pairs = len(ids) * len(oods)
    u = _mann_whitney_u(ids, oods)
    orientation = orientation_policy
    if orientation_policy == "auto":
        orientation = "as-is" if u / pairs >= 0.5 else "negated"
    if orientation == "negated":
        ids, oods, u = -ids, -oods, pairs - u
    fpr, gamma = fpr_at_tpr(ids, oods, tpr_target)
    return OODMetrics(auroc=float(u / pairs), fpr95=fpr, threshold=gamma, n_id=len(ids), n_ood=len(oods),
                      orientation=orientation, tpr_target=tpr_target)


def histogram_export(
    id_scores: Sequence[float], ood_scores: Sequence[float], bins: int, path: str
) -> None:
    """CSV of shared bin edges and per-class counts over [min, max]."""
    ids, oods = _validate(id_scores, ood_scores)
    if bins < 2:
        raise FormatError(f"histogram needs bins >= 2, got {bins}")
    lo = float(min(ids.min(), oods.min()))
    hi = float(max(ids.max(), oods.max()))
    if lo == hi:  # degenerate range: widen so all mass lands in one bin
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    id_counts, _ = np.histogram(ids, bins=edges)
    ood_counts, _ = np.histogram(oods, bins=edges)
    lines = ["bin_left,bin_right,id_count,ood_count"]
    for i in range(bins):
        lines.append(f"{edges[i]!r},{edges[i + 1]!r},{id_counts[i]},{ood_counts[i]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
