"""Evaluation-metric tests against brute-force oracles.

AUROC is checked against the O(n^2) pairwise count and, bit for bit,
against the pooled-midrank U of :func:`oracle.mann_whitney_u`; the
FPR/threshold pair is checked against an exhaustive sweep over all
observed score values.  Random instances deliberately include ties.
"""

import math
import pathlib
import sys

import numpy as np
import pytest

from oracle import mann_whitney_u
from pvit.config import ORIENTATION_POLICIES, SCORE_FIELDS
from pvit.errors import FormatError
from pvit.metrics import OODMetrics, _mann_whitney_u, auroc, decide, evaluate, fpr_at_tpr, histogram_export
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
            assert auroc(ids, oods) == pairwise_auroc(ids, oods)

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


def bits(x) -> str:
    return float(x).hex()


class TestExactCounts:
    """U from placement counts, and the FPR from one count, are the oracles' to the bit."""

    def test_u_equals_the_pooled_midrank_oracle_in_both_orientations(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            ids, oods = random_instance(rng)
            pairs = len(ids) * len(oods)
            for orientation, a, b in (("as-is", ids, oods), ("negated", -ids, -oods)):
                want = mann_whitney_u(a, b)
                assert bits(_mann_whitney_u(np.sort(a), np.sort(b))) == bits(want), (ids, oods)
                assert bits(evaluate(ids, oods, orientation_policy=orientation).auroc) == bits(want / pairs)

    def test_u_is_exact_for_two_to_the_seventeen_tied_scores_a_side(self):
        rng = np.random.default_rng(13)
        ids, oods = np.round(rng.normal(0.2, 1.0, 2**17), 2), np.round(rng.normal(0.0, 1.0, 2**17), 2)
        for a, b in ((ids, oods), (-ids, -oods)):
            assert bits(_mann_whitney_u(np.sort(a), np.sort(b))) == bits(mann_whitney_u(a, b))
        same = np.full(2**17, 0.25)
        assert auroc(same, same) == 0.5
        assert evaluate(same, same, orientation_policy="auto").auroc == 0.5

    def test_fpr_is_the_mean_of_decide_at_the_threshold(self):
        rng = np.random.default_rng(14)
        instances = [random_instance(rng) for _ in range(100)]
        instances.append((np.round(rng.normal(0.2, 1.0, 2**17), 2), np.round(rng.normal(0.0, 1.0, 2**17), 2)))
        for ids, oods in instances:
            fpr, gamma = fpr_at_tpr(ids, oods)
            assert bits(fpr) == bits(np.mean(decide(oods, gamma)))


class TestMalformedScores:
    """A score list that is not a nonempty 1-D list of finite real numbers is a
    FormatError from every metric, never a plausible number or a bare error."""

    @pytest.mark.parametrize("metric", [auroc, fpr_at_tpr, evaluate], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("ids, oods, match", [
        ([10**400], [1.0], "finite; found an int past float64"),
        ([1.0], [-10**400], "finite; found an int past float64"),
        (["a"], [1.0], "real numbers"),
        ([[1.0, 2.0], [3.0]], [1.0], "real numbers"),
        ([[1.0, 2.0]], [1.0], "1-D"),
        ([[1, 2], [3, 4]], [2.5], "1-D"),
        ([1.0, 2.0], [[0.5]], "1-D"),
    ], ids=["int-past-float64", "ood-int-past-float64", "string", "ragged", "2-D", "2-D-ints", "2-D-ood"])
    def test_refused(self, metric, ids, oods, match):
        with pytest.raises(FormatError, match=match):
            metric(ids, oods)

    @pytest.mark.parametrize("name", ["pge", "msp"])
    @pytest.mark.parametrize("bad", ["a", 10**400], ids=["string", "int-past-float64"])
    @pytest.mark.parametrize("side", ["ID", "OOD"])
    def test_refused_in_records_as_in_lists(self, name, bad, side):
        """A record holding a string or an int past float64, in a field or a
        baseline, raises the FormatError that the same value in a list does."""
        def records(value):
            return [ScoreRecord("r0", 1.0, 1.0, 1.0, 0, {"msp": 0.5}),
                    ScoreRecord("r1", 1.0, 1.0, value if name == "pge" else 1.0, 0, {"msp": value})]

        lists, recs = ([1.0, bad], [1.0, 0.5]), (records(bad), records(0.5))
        if side == "OOD":
            lists, recs = lists[::-1], recs[::-1]
        with pytest.raises(FormatError) as from_list:
            evaluate(*lists)
        with pytest.raises(FormatError) as from_records:
            evaluate(*recs, name)
        assert str(from_records.value) == str(from_list.value)


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
        """The FPR at the fixed 95 % lies between the sweep's FPRs at lower
        and at higher targets, which rise with the target."""
        rng = np.random.default_rng(5)
        ids = rng.normal(1, 1, 50)
        oods = rng.normal(0, 1, 50)
        lower = [sweep_fpr_at_tpr(ids, oods, target)[0] for target in (0.5, 0.7, 0.9)]
        higher = [sweep_fpr_at_tpr(ids, oods, target)[0] for target in (0.99, 1.0)]
        assert lower == sorted(lower) and higher == sorted(higher)
        assert lower[-1] <= fpr_at_tpr(ids, oods)[0] <= higher[0]

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

    @pytest.mark.parametrize("policy", ORIENTATION_POLICIES)
    @pytest.mark.parametrize("name", SCORE_FIELDS)
    def test_records_equal_their_extracted_columns(self, name, policy):
        """evaluate on ScoreRecord lists reports what it reports on the named
        column pulled out of them, field for field."""
        rng = np.random.default_rng(8)
        columns, records = [], []
        for n, shift, tag in ((40, 0.5, "i"), (30, 0.0, "o")):
            scores = dict(zip(SCORE_FIELDS, np.round(rng.normal(shift, 1.0, (6, n)), 1)))  # rounded: ties
            pge, base, guidance, *baselines = (scores[field].tolist() for field in SCORE_FIELDS)
            records.append([ScoreRecord(f"{tag}{i}", base[i], guidance[i], pge[i], 0,
                                        {field: column[i] for field, column in zip(SCORE_FIELDS[3:], baselines)})
                            for i in range(n)])
            columns.append(scores[name])
        assert evaluate(*records, name, policy) == evaluate(*columns, name, policy)

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

    @pytest.mark.parametrize("ids, oods", [
        ([1e308], [-1e308]),  # hi - lo overflows float64
        ([1e20] * 5, [1e20] * 3),  # one value where +-0.5 vanishes
        ([sys.float_info.max] * 2, [sys.float_info.max]),
        ([-sys.float_info.max], [sys.float_info.max]),
        ([1e20], [math.nextafter(1e20, math.inf)]),  # one ULP apart
        ([0.0, 5e-324], [1.5e-323]),  # subnormals
    ])
    @pytest.mark.parametrize("bins", [2, 3, 8])
    def test_edges_strictly_increase_and_counts_cover_every_score(self, tmp_path, ids, oods, bins):
        path = tmp_path / "hist.csv"
        histogram_export(ids, oods, bins, str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        edges = [float(r[0]) for r in rows] + [float(rows[-1][1])]
        assert all(math.isfinite(e) for e in edges)
        assert all(a < b for a, b in zip(edges, edges[1:]))
        assert sum(int(r[2]) for r in rows) == len(ids) and sum(int(r[3]) for r in rows) == len(oods)

    def test_edges_are_plain_numbers(self, tmp_path):
        path = tmp_path / "hist.csv"
        histogram_export([0.25, 1.0], [0.5], 4, str(path))
        assert path.read_text().splitlines()[1:] == ["0.25,0.4375,1,0", "0.4375,0.625,0,1",
                                                     "0.625,0.8125,0,0", "0.8125,1.0,1,0"]

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
