"""Evaluation-metric tests against brute-force oracles.

AUROC is checked against the O(n^2) pairwise count; the FPR/threshold
pair is checked against an exhaustive sweep over all observed score
values.  Random instances deliberately include ties.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import pvit
from pvit.errors import FormatError
from pvit.metrics import OODMetrics, auroc, evaluate, fpr_at_tpr, histogram_export
from pvit.scoring import ScoreRecord


def pairwise_auroc(id_scores, ood_scores):
    """O(n^2) oracle: fraction of (ID, OOD) pairs ordered correctly, ties half."""
    total = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(id_scores) * len(ood_scores))


def sweep_fpr_at_tpr(id_scores, ood_scores, tpr_target=0.95):
    """Exhaustive oracle: try every observed value as the threshold, keep
    the largest with inclusive ID TPR >= target, report its OOD FPR."""
    ids = np.asarray(id_scores, dtype=np.float64)
    oods = np.asarray(ood_scores, dtype=np.float64)
    candidates = np.unique(np.concatenate([ids, oods]))
    best = None
    for gamma in candidates:
        tpr = np.mean(ids >= gamma)
        if tpr >= tpr_target and (best is None or gamma > best):
            best = gamma
    assert best is not None  # the minimum always qualifies
    return float(np.mean(oods >= best)), float(best)


def random_instance(rng):
    """Random scores, integer-valued half the time to force ties."""
    n_id = int(rng.integers(1, 51))
    n_ood = int(rng.integers(1, 51))
    if rng.random() < 0.5:
        ids = rng.integers(-5, 6, n_id).astype(float)
        oods = rng.integers(-5, 6, n_ood).astype(float)
    else:
        ids = rng.normal(1.0, 1.0, n_id)
        oods = rng.normal(0.0, 1.0, n_ood)
    return ids, oods


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([2.0, 3.0], [0.0, 1.0]) == 1.0

    def test_identical_multisets(self):
        assert auroc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            ids, oods = random_instance(rng)
            assert abs(auroc(ids, oods) - pairwise_auroc(ids, oods)) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            auroc([], [1.0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        ids = rng.normal(1, 1, 40)
        oods = rng.normal(0, 1, 30)
        base = auroc(ids, oods)
        assert auroc(np.tanh(ids), np.tanh(oods)) == base
        assert auroc(3 * ids + 7, 3 * oods + 7) == base

    def test_class_swap_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ids, oods = random_instance(rng)
            assert abs(auroc(ids, oods) + auroc(oods, ids) - 1.0) <= 1e-12

    def test_negation_symmetry(self):
        rng = np.random.default_rng(3)
        ids, oods = random_instance(rng)
        assert abs(auroc(ids, oods) + auroc(-ids, -oods) - 1.0) <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(FormatError, match="finite"):
            auroc([0.1, bad, 0.5], [0.2, 0.3])
        with pytest.raises(FormatError, match="finite"):
            auroc([0.1, 0.5], [0.2, bad])


class TestFprAtTpr:
    def test_perfect_separation(self):
        fpr, gamma = fpr_at_tpr([2.0, 3.0, 4.0], [0.0, 1.0])
        assert fpr == 0.0
        assert gamma == 2.0

    def test_same_multiset_has_high_fpr(self):
        scores = list(np.linspace(0, 1, 40))
        fpr, _ = fpr_at_tpr(scores, scores)
        assert fpr >= 0.95 - 1.0 / 40

    def test_matches_exhaustive_sweep(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            ids, oods = random_instance(rng)
            got_fpr, got_gamma = fpr_at_tpr(ids, oods)
            want_fpr, want_gamma = sweep_fpr_at_tpr(ids, oods)
            assert got_gamma == want_gamma, (ids, oods)
            assert abs(got_fpr - want_fpr) <= 1e-12

    def test_monotone_in_target(self):
        rng = np.random.default_rng(5)
        ids = rng.normal(1, 1, 50)
        oods = rng.normal(0, 1, 50)
        previous = -1.0
        for target in (0.5, 0.7, 0.9, 0.95, 0.99, 1.0):
            fpr, _ = fpr_at_tpr(ids, oods, target)
            assert fpr >= previous
            previous = fpr

    def test_bad_target_rejected(self):
        with pytest.raises(FormatError):
            fpr_at_tpr([1.0], [0.0], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(FormatError, match="finite"):
            fpr_at_tpr([0.1, bad, 0.5], [0.2, 0.3])
        with pytest.raises(FormatError, match="finite"):
            fpr_at_tpr([0.1, 0.5], [bad, 0.3])


class TestEvaluate:
    def test_auto_orientation_never_below_half(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            ids, oods = random_instance(rng)
            metrics = evaluate(ids, oods, orientation_policy="auto")
            assert metrics.auroc >= 0.5
            assert metrics.orientation in ("as-is", "negated")

    def test_fixed_as_is_reports_flipped_scores_honestly(self):
        ids = [0.0, 1.0]
        oods = [2.0, 3.0]
        metrics = evaluate(ids, oods, orientation_policy="as-is")
        assert metrics.auroc < 0.5
        assert metrics.orientation == "as-is"

    def test_auto_flips_and_reports(self):
        metrics = evaluate([0.0, 1.0], [2.0, 3.0], orientation_policy="auto")
        assert metrics.auroc == 1.0
        assert metrics.orientation == "negated"

    def test_pge_field_equals_manual_product(self):
        rng = np.random.default_rng(7)

        def records(n, shift):
            out = []
            for i in range(n):
                base = float(rng.normal(shift, 1))
                guidance = float(rng.uniform(0.1, 2.0))
                out.append(ScoreRecord(f"r{i}", base, guidance, base * guidance, 0, {}))
            return out

        id_recs = records(30, 2.0)
        ood_recs = records(30, 0.0)
        via_field = evaluate(id_recs, ood_recs, "pge", "auto")
        manual = evaluate(
            [r.base * r.guidance for r in id_recs],
            [r.base * r.guidance for r in ood_recs],
            orientation_policy="auto",
        )
        assert via_field == manual

    @pytest.mark.parametrize("decimals", [None, 2, 0])
    def test_negated_area_equals_reranked_auroc(self, decimals):
        """One ranking serves both orientations: the negated AUROC is the
        complement of the same pair count, bit for bit."""
        rng = np.random.default_rng(9)
        ids, oods = rng.normal(0.0, 1.0, 3000), rng.normal(0.3, 1.0, 2000)
        if decimals is not None:
            ids, oods = np.round(ids, decimals), np.round(oods, decimals)
        negated = evaluate(ids, oods, orientation_policy="negated")
        assert negated.auroc == auroc(-ids, -oods)
        auto = evaluate(ids, oods, orientation_policy="auto")
        assert auto.orientation == "negated"
        assert auto == negated
        assert evaluate(ids, oods, orientation_policy="as-is").auroc == auroc(ids, oods)

    def test_counts_recorded(self):
        metrics = evaluate([1.0, 2.0, 3.0], [0.0], orientation_policy="as-is")
        assert (metrics.n_id, metrics.n_ood) == (3, 1)
        assert isinstance(metrics, OODMetrics)


class TestHistogramExport:
    def test_counts_sum(self, tmp_path):
        rng = np.random.default_rng(8)
        ids = rng.normal(1, 1, 100)
        oods = rng.normal(0, 1, 60)
        path = str(tmp_path / "hist.csv")
        histogram_export(ids, oods, 12, path)
        rows = [line.split(",") for line in pathlib.Path(path).read_text().strip().splitlines()[1:]]
        assert len(rows) == 12
        assert sum(int(r[2]) for r in rows) == 100
        assert sum(int(r[3]) for r in rows) == 60

    def test_single_value_single_bin(self, tmp_path):
        path = str(tmp_path / "hist.csv")
        histogram_export([1.0] * 5, [1.0] * 3, 8, path)
        rows = [line.split(",") for line in pathlib.Path(path).read_text().strip().splitlines()[1:]]
        occupied = [r for r in rows if int(r[2]) + int(r[3]) > 0]
        assert len(occupied) == 1
        assert int(occupied[0][2]) == 5 and int(occupied[0][3]) == 3

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(9)
        ids = rng.normal(size=50)
        oods = rng.normal(size=50)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        histogram_export(ids, oods, 10, p1)
        histogram_export(ids, oods, 10, p2)
        assert pathlib.Path(p1).read_bytes() == pathlib.Path(p2).read_bytes()

    def test_too_few_bins(self, tmp_path):
        with pytest.raises(FormatError):
            histogram_export([1.0], [2.0], 1, str(tmp_path / "x.csv"))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        with pytest.raises(FormatError, match="finite"):
            histogram_export([1.0, np.nan], [2.0], 4, str(path))
        with pytest.raises(FormatError, match="finite"):
            histogram_export([1.0], [2.0, -np.inf], 4, str(path))
        assert not path.exists()


def loaded_by_import_pvit(module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after ``import pvit``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pvit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, pvit; print({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return result.stdout.strip() == "True"


def test_import_does_not_load_scipy_stats():
    """scipy.stats costs most of a second to import; pvit's startup must not pay it."""
    assert not loaded_by_import_pvit("scipy.stats")


def test_import_does_not_load_scipy_special():
    """scipy.special is most of the rest of ``import pvit``, and only a
    model's GELU needs it: a command that runs no model must not pay it."""
    assert not loaded_by_import_pvit("scipy.special")
