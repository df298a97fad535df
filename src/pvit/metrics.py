"""OOD evaluation: AUROC, FPR95 (the false-positive rate at the fixed 95 %
ID TPR of :data:`TPR_PERCENT`), threshold calibration, score-distribution
export.

Convention: higher score means in-distribution, and the threshold test
is inclusive (score >= gamma is ID); :func:`decide` is that rule.  AUROC
is the Mann-Whitney U over n * m, ties half, summed from the ID scores'
placement counts in the OOD column; each column is sorted once, so every
metric costs O((n + m) log(n + m))."""

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
from .scoring import ScoreRecord, score_column

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


def _floats(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, or a FormatError naming ``what``: each
    must be a real number, finite in float64 (an int past its range is
    infinite, as ``eval`` reads it)."""
    try:
        a = np.asarray(values)
        if a.dtype.kind not in "biufO":
            raise TypeError(f"got {a.dtype} values")
        a = a.astype(np.float64, copy=False)
    except OverflowError:
        raise FormatError(f"{what} must be finite; found an int past float64") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what} must be real numbers: {exc}") from None
    if not np.isfinite(a).all():
        raise FormatError(f"{what} must be finite; found NaN or infinity")
    return a


def _validate(id_scores, ood_scores) -> tuple[np.ndarray, np.ndarray]:
    """Both score lists as float64 columns; FormatError unless each is a
    nonempty 1-D sequence of finite real numbers."""
    ids, oods = _floats(id_scores, "ID scores"), _floats(ood_scores, "OOD scores")
    for side, column in (("ID", ids), ("OOD", oods)):
        if column.ndim != 1 or column.size == 0:
            raise FormatError(f"metrics need a nonempty 1-D list of {side} scores, got shape {column.shape}")
    return ids, oods


def decide(scores, threshold: float, orientation: str = "as-is") -> np.ndarray:
    """Bool mask, True for in-distribution: the oriented score is >= ``threshold``.

    ``OODMetrics.threshold`` and ``.orientation`` plug in as they are.
    """
    s = _floats(scores, "decide's scores")
    gamma = float(_floats(threshold, "decide's threshold"))
    if orientation not in ORIENTATIONS:
        raise FormatError(f"unknown orientation {orientation!r}; expected one of {ORIENTATIONS}")
    return (-s if orientation == "negated" else s) >= gamma


def _mann_whitney_u(ids: np.ndarray, oods: np.ndarray) -> float:
    """(ID, OOD) pairs whose ID score is the larger, ties half, for sorted columns: each ID score's
    placement count, #OOD below it plus #OOD at or below it, is twice its share, so U is an integer
    sum halved, exact for n * m < 2**53, and the negated scores' count is exactly ``n * m - u``."""
    return (np.searchsorted(oods, ids, "left").sum() + np.searchsorted(oods, ids, "right").sum()) / 2


def _fpr_at_tpr(ids: np.ndarray, oods: np.ndarray) -> tuple[float, float]:
    """:func:`fpr_at_tpr` for sorted ``ids``: the false positives are the OOD scores decide() marks ID."""
    gamma = float(ids[len(ids) - (TPR_PERCENT * len(ids) + 99) // 100])  # the ceil(0.95 n)-th largest, exactly
    return float(np.count_nonzero(oods >= gamma) / len(oods)), gamma


def auroc(id_scores: Sequence[float], ood_scores: Sequence[float]) -> float:
    """Probability a random ID score exceeds a random OOD score, ties half."""
    ids, oods = _validate(id_scores, ood_scores)
    return float(_mann_whitney_u(np.sort(ids), np.sort(oods)) / (len(ids) * len(oods)))


def fpr_at_tpr(id_scores: Sequence[float], ood_scores: Sequence[float]) -> tuple[float, float]:
    """(FPR, threshold) at the largest threshold keeping ID TPR >= 95 %.

    The threshold is the m-th largest ID score with m = ceil(0.95 * n_id),
    the largest value whose inclusive count still reaches 95 %.
    """
    ids, oods = _validate(id_scores, ood_scores)
    return _fpr_at_tpr(np.sort(ids), oods)


def evaluate(id_records, ood_records, score_name: str = "pge", orientation_policy: str = "auto") -> OODMetrics:
    """AUROC and FPR95 for one score field over ID and OOD record lists.

    ``orientation_policy``: "as-is" and "negated" apply that orientation;
    "auto" picks whichever gives AUROC >= 0.5 and reports the choice.
    Record lists may also be plain score sequences.  They are validated
    once, and U, counted on the sorted columns, serves both orientations.
    """

    def extract(records):
        if len(records) and isinstance(records[0], ScoreRecord):
            return score_column(records, score_name)
        return records

    if orientation_policy not in ORIENTATION_POLICIES:
        raise FormatError(f"unknown orientation policy {orientation_policy!r}")
    ids, oods = _validate(extract(id_records), extract(ood_records))
    pairs = len(ids) * len(oods)
    sorted_ids = np.sort(ids)
    u = _mann_whitney_u(sorted_ids, np.sort(oods))
    orientation = orientation_policy
    if orientation_policy == "auto":
        orientation = "as-is" if u / pairs >= 0.5 else "negated"
    if orientation == "negated":  # -ids sorted afresh, so a threshold at -0.0 or 0.0 keeps the sign it has there
        oods, sorted_ids, u = -oods, np.sort(-ids), pairs - u
    fpr, gamma = _fpr_at_tpr(sorted_ids, oods)
    return OODMetrics(auroc=float(u / pairs), fpr95=fpr, threshold=gamma, n_id=len(ids), n_ood=len(oods),
                      orientation=orientation)


def histogram_lines(id_scores: Sequence[float], ood_scores: Sequence[float], bins: int) -> list[str]:
    """The lines of :func:`histogram_export`'s CSV, each ending in a newline."""
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
    lines = ["bin_left,bin_right,id_count,ood_count\n"]
    edges = edges.tolist()  # Python floats: repr is a plain number whatever numpy's version
    for i in range(bins):
        lines.append(f"{edges[i]!r},{edges[i + 1]!r},{id_counts[i]},{ood_counts[i]}\n")
    return lines


def histogram_export(
    id_scores: Sequence[float], ood_scores: Sequence[float], bins: int, path: str
) -> None:
    """CSV of shared bin edges and per-class counts over [min, max]."""
    write_artifact(path, histogram_lines(id_scores, ood_scores, bins))
