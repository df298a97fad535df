"""Scoring tests: closed-form cases and extended-precision oracles run on
rows of ``score_records``, the path the CLI scores with; the records
match the per-vector oracle to the last bit; the factored/expanded score
identity; the threshold decision rule; dataset scoring and score files."""

import gc
import json
import math

import mpmath
import numpy as np
import pytest

from oracle import cefe_expand, guidance_ce, guidance_kl, scalar_record
import pvit.scoring
from pvit.data import synth_dataset
from pvit.errors import FormatError, MissingPriorError, ShapeError
from pvit.metrics import decide, evaluate
from pvit.model import PViTConfig, PViTModel
from pvit.priors import TableSource, export_logits, load_logits, train_prior_model
from pvit.scoring import (
    ScoreRecord,
    predict_logits,
    read_scores,
    score_dataset,
    score_field,
    score_records,
    write_scores,
)
from pvit.train import TrainConfig

mpmath.mp.dps = 50


def mp_lse(values):
    return float(mpmath.log(mpmath.fsum(mpmath.e**mpmath.mpf(v) for v in values)))


def rows(predicted, priors=None, kind="ce"):
    """Score records of the logit rows ``predicted`` (N, K) against ``priors``
    (the predicted rows themselves if omitted)."""
    predicted = np.asarray(predicted, dtype=np.float64)
    priors = predicted if priors is None else np.asarray(priors, dtype=np.float64)
    return score_records([f"s{i}" for i in range(len(predicted))], predicted, priors, kind)


def row(predicted, prior=None, kind="ce"):
    """The score record of one logit vector."""
    (rec,) = rows([predicted], None if prior is None else [prior], kind)
    return rec


class TestEnergy:
    """The energy baseline is oriented so higher means ID: it is -energy, the logsumexp."""

    def test_four_zeros(self):
        assert abs(row([0.0, 0.0, 0.0, 0.0]).baselines["energy"] - math.log(4)) <= 1e-12

    def test_singleton(self):
        assert row([2.5]).baselines["energy"] == 2.5

    def test_shift_identity(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-5, 5, 6)
        c = 3.7
        shifted, plain = rows([z + c, z])
        assert abs(shifted.baselines["energy"] - (plain.baselines["energy"] + c)) <= 1e-10

    def test_non_finite_rejected(self):
        with pytest.raises(ShapeError, match="finite"):
            row([1.0, np.inf], [0.0, 0.0])


class TestBaseScore:
    def test_ln2(self):
        assert abs(row([0.0, 0.0]).base - math.log(2)) <= 1e-12

    def test_monotone_in_each_logit(self):
        z = np.array([0.1, -0.4, 1.2])
        bumped = z + 0.5 * np.eye(3)
        before, *after = rows(np.vstack([z, bumped]))
        assert all(rec.base > before.base for rec in after)

    def test_matches_extended_precision_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.uniform(-20, 20, rng.integers(2, 12))
            assert abs(row(z).base - mp_lse(z)) <= 1e-12


class TestMsp:
    def test_half(self):
        assert abs(row([0.0, 0.0]).baselines["msp"] - 0.5) <= 1e-12

    def test_confident(self):
        assert row([100.0, 0.0]).baselines["msp"] >= 1.0 - 1e-12

    def test_shift_invariant(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(-3, 3, 5)
        plain, shifted = rows([z, z + 11.0])
        assert abs(plain.baselines["msp"] - shifted.baselines["msp"]) <= 1e-12


class TestMaxLogit:
    def test_max(self):
        assert row([1.0, 3.0, 2.0]).baselines["max_logit"] == 3.0

    def test_shift(self):
        assert row(np.array([1.0, 3.0, 2.0]) + 4.0).baselines["max_logit"] == 7.0

    def test_agrees_with_msp_argmax(self):
        z = np.array([0.3, 2.2, -1.0])
        rec = row(z)
        assert rec.baselines["max_logit"] == z[rec.predicted_class] == z[int(np.argmax(z))]


def predicting(k, num_classes):
    """A logit vector whose argmax is class ``k``."""
    return np.eye(num_classes)[k]


class TestGuidanceCe:
    def test_uniform_prior(self):
        assert abs(row(predicting(2, 4), [0.0] * 4).guidance - math.log(4)) <= 1e-12

    def test_agreement_is_near_zero(self):
        assert row(predicting(0, 2), [100.0, 0.0]).guidance <= 1e-12

    def test_disagreement_clamped(self):
        # prior prob of class 1 is ~e^-100, far below the 1e-12 clamp
        value = row(predicting(1, 2), [100.0, 0.0]).guidance
        assert abs(value - (-math.log(1e-12))) <= 1e-9
        assert value <= -math.log(1e-12) + 1e-9

    def test_class_out_of_range(self):
        # records take the class from the argmax; only the oracle's signature can name a bad one
        with pytest.raises(ShapeError):
            guidance_ce([0.0, 0.0], 2)

    def test_bounds_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = rng.uniform(-50, 50, rng.integers(2, 8))
            rec = row(predicting(int(rng.integers(0, len(z))), len(z)), z)
            assert 0.0 <= rec.guidance <= -math.log(1e-12) + 1e-9


class TestGuidanceKl:
    def test_identical_distributions(self):
        assert row([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "kl").guidance <= 1e-15

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            k = rng.integers(2, 8)
            prior, predicted = rng.uniform(-5, 5, k), rng.uniform(-5, 5, k)
            assert row(predicted, prior, "kl").guidance >= -1e-15

    def test_matches_term_by_term_oracle(self):
        p_logits = [0.3, -1.2, 2.0]
        q_logits = [1.1, 0.0, -0.5]

        def mp_softmax(z):
            exps = [mpmath.e**mpmath.mpf(v) for v in z]
            s = mpmath.fsum(exps)
            return [e / s for e in exps]

        p = mp_softmax(p_logits)
        q = mp_softmax(q_logits)
        oracle = float(mpmath.fsum(pi * mpmath.log(pi / qi) for pi, qi in zip(p, q)))
        assert abs(row(q_logits, p_logits, "kl").guidance - oracle) <= 1e-12

    def test_length_mismatch(self):
        # records reject mismatched blocks in TestScoreRecords; this is the oracle's own check
        with pytest.raises(ShapeError):
            guidance_kl([0.0, 0.0], [0.0, 0.0, 0.0])


class TestGuidanceEd:
    def test_identical(self):
        assert row([1.0, 2.0], [1.0, 2.0], "ed").guidance == 0.0

    def test_three_four_five(self):
        assert abs(row([3.0, 4.0], [0.0, 0.0], "ed").guidance - 5.0) <= 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(-4, 4, 5), rng.uniform(-4, 4, 5)
        assert row(a, b, "ed").guidance == row(b, a, "ed").guidance

    def test_positive_unless_equal(self):
        assert row([0.0, 1.0 + 1e-9], [0.0, 1.0], "ed").guidance > 0.0


class TestPge:
    def test_product(self):
        rng = np.random.default_rng(8)
        predicted, priors = rng.uniform(-6, 6, (100, 5)), rng.uniform(-6, 6, (100, 5))
        for kind in ("ce", "kl", "ed"):
            for rec in rows(predicted, priors, kind):
                assert rec.pge == rec.base * rec.guidance

    def test_zero_guidance(self):
        rng = np.random.default_rng(9)
        block = rng.uniform(-3, 3, (20, 4))
        for rec in rows(block, block, "ed"):
            assert rec.guidance == 0.0 and rec.pge == 0.0 and rec.base != 0.0

    def test_sign_rule(self):
        rng = np.random.default_rng(6)
        # shifted logits give negative as well as positive bases
        records = rows(rng.uniform(-3, 3, (50, 3)) + rng.uniform(-6, 3, (50, 1)), rng.uniform(-3, 3, (50, 3)))
        assert {np.sign(r.base) for r in records} == {-1.0, 1.0}
        for rec in records:
            assert np.sign(rec.pge) == np.sign(rec.base) * np.sign(rec.guidance)


class TestCefeExpand:
    """The oracle's expansion identity, and the records' pge as its factored side:
    with the predicted row as its own prior, CE guidance is -z_k + LSE for k = argmax."""

    def test_two_zeros(self):
        factored, expanded = cefe_expand([0.0, 0.0], 0)
        assert factored == expanded
        assert abs(factored - math.log(2) ** 2) <= 1e-12
        assert abs(row([0.0, 0.0]).pge - factored) <= 1e-12

    def test_fixed_vector_against_extended_precision(self):
        z = [1.0, 2.0, 3.0]
        lse = mpmath.log(mpmath.fsum(mpmath.e**mpmath.mpf(v) for v in z))
        oracle = float((-mpmath.mpf(3.0) + lse) * lse)
        factored, expanded = cefe_expand(z, 2)
        assert abs(factored - oracle) <= 1e-12
        assert abs(expanded - oracle) <= 1e-10
        assert abs(row(z).pge - oracle) <= 1e-12

    def test_identity_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = int(rng.integers(2, 51))
            z = rng.uniform(-20, 20, k)
            factored, expanded = cefe_expand(z, int(rng.integers(0, k)))
            assert abs(factored - expanded) <= 1e-10 * max(1.0, abs(factored))
            top, _ = cefe_expand(z, int(np.argmax(z)))
            assert abs(row(z).pge - top) <= 1e-10 * max(1.0, abs(top))

    def test_index_out_of_range(self):
        with pytest.raises(ShapeError):
            cefe_expand([0.0, 0.0], 2)


class TestDecide:
    """``pvit.metrics.decide``: the inclusive threshold rule ``fpr_at_tpr`` counts with."""

    def test_boundary_is_id(self):
        assert decide([1.5], 1.5).tolist() == [True]

    def test_below_boundary_is_ood(self):
        assert decide([1.5 - 1e-9], 1.5).tolist() == [False]

    def test_negated_orientation(self):
        assert decide([-2.0, -2.0 + 1e-9], 2.0, "negated").tolist() == [True, False]

    def test_monotone(self):
        labels = decide(np.linspace(-1, 1, 21), 0.0).tolist()
        first_id = labels.index(True)
        assert not any(labels[:first_id])
        assert all(labels[first_id:])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(FormatError, match="finite"):
            decide([0.5, bad], 0.0)

    def test_unknown_orientation_rejected(self):
        with pytest.raises(FormatError, match="orientation"):
            decide([0.5], 0.0, "auto")

    @pytest.mark.parametrize("policy", ["as-is", "negated", "auto"])
    def test_reproduces_evaluated_rates(self, policy):
        """An OODMetrics' threshold and orientation, fed back to decide on the
        raw scores, give its FPR and a TPR at or above its target."""
        rng = np.random.default_rng(10)
        ids, oods = rng.normal(0.0, 1.0, 200), rng.normal(1.0, 1.0, 150)  # OOD scores higher: auto negates
        metrics = evaluate(ids, oods, orientation_policy=policy)
        assert np.mean(decide(oods, metrics.threshold, metrics.orientation)) == metrics.fpr95
        assert np.mean(decide(ids, metrics.threshold, metrics.orientation)) >= metrics.tpr_target


def trained_setup(seed=0):
    ds = synth_dataset(3, 12, size=8, seed=seed, name="idt")
    prior, _ = train_prior_model(
        ds,
        TrainConfig(epochs=3, batch_size=12, base_lr=5e-3, warmup_epochs=0, weight_decay=0.0, seed=1),
        hidden_dim=16,
        seed=2,
    )
    cfg = PViTConfig(image_h=8, image_w=8, patch_size=4, embed_dim=16, depth=1,
                     heads=2, mlp_dim=24, num_classes=3, alpha=0.1)
    return PViTModel(cfg, seed=3), prior, ds


class TestScoreDataset:
    def test_deterministic_and_counts(self):
        model, prior, ds = trained_setup()
        a = score_dataset(model, prior, ds, "ce")
        b = score_dataset(model, prior, ds, "ce")
        assert len(a) == len(ds)
        assert [r.id for r in a] == list(ds.ids)
        for x, y in zip(a, b):
            assert (x.base, x.guidance, x.pge, x.baselines) == (y.base, y.guidance, y.pge, y.baselines)

    def test_model_and_exported_table_priors_score_identically(self, tmp_path):
        """Scoring resolves the whole dataset's priors once, so a model-backed
        source and the logits file exported from it give the same records."""
        model, prior, _ = trained_setup(8)
        ds = synth_dataset(3, 90, size=8, seed=9, name="big")
        path = str(tmp_path / "logits.jsonl")
        model_priors = prior.resolve(ds)
        assert export_logits(prior, ds, path).tobytes() == model_priors.tobytes()
        table_priors = load_logits(path).resolve(ds)
        assert table_priors.tobytes() == model_priors.tobytes()
        for batch_size in (7, 64):
            by_model = predict_logits(model, ds.images, model_priors, batch_size=batch_size)
            by_table = predict_logits(model, ds.images, table_priors, batch_size=batch_size)
            assert by_model.tobytes() == by_table.tobytes()
            assert score_dataset(model, prior, ds, "kl", batch_size=batch_size) == score_records(
                ds.ids, by_table, table_priors, "kl")

    @pytest.mark.parametrize("rows", [35, 37])
    def test_prior_block_of_another_length_rejected(self, rows):
        model, _, ds = trained_setup(7)
        with pytest.raises(ShapeError, match=f"36 images, {rows} rows"):
            predict_logits(model, ds.images, np.zeros((rows, 3)))

    def test_pge_is_exact_product(self):
        model, prior, ds = trained_setup(1)
        for rec in score_dataset(model, prior, ds, "kl"):
            assert rec.pge == rec.base * rec.guidance

    def test_guidance_kind_changes_only_guidance(self):
        model, prior, ds = trained_setup(2)
        ce = score_dataset(model, prior, ds, "ce")
        ed = score_dataset(model, prior, ds, "ed")
        for a, b in zip(ce, ed):
            assert a.base == b.base
            assert a.baselines == b.baselines
            assert a.guidance != b.guidance or a.guidance == 0.0

    def test_ed_zero_when_prior_equals_predictions(self):
        records = {f"s{i}": np.array([float(i), 1.0, -0.5]) for i in range(4)}
        tbl = TableSource(records=records, num_classes=3)
        ids = list(tbl.records)
        out = score_records(ids, tbl.logits_for(ids), tbl.logits_for(ids), "ed")
        assert len(out) == 4
        for rec in out:
            assert rec.guidance == 0.0
            assert rec.pge == 0.0

    def test_energy_baseline_is_negative_energy(self):
        model, prior, ds = trained_setup(3)
        for rec in score_dataset(model, prior, ds, "ce"):
            assert rec.baselines["energy"] == rec.base

    def test_missing_prior_propagates(self):
        model, prior, ds = trained_setup(4)
        empty = TableSource(records={}, num_classes=3)
        with pytest.raises(MissingPriorError):
            score_dataset(model, empty, ds, "ce")

    def test_unknown_guidance_kind(self):
        model, prior, ds = trained_setup(5)
        with pytest.raises(FormatError, match="guidance kind"):
            score_dataset(model, prior, ds, "cosine")


class TestScoreRecords:
    @pytest.mark.parametrize("kind", ["ce", "kl", "ed"])
    @pytest.mark.parametrize("k", [2, 4, 17])
    def test_matches_scalar_oracle_record_by_record(self, kind, k):
        rng = np.random.default_rng(k)
        n = 400
        predicted = rng.uniform(-6.0, 6.0, (n, k))
        priors = rng.uniform(-6.0, 6.0, (n, k))
        predicted[n // 2 :] *= 10.0
        # near-one-hot priors: the smallest probabilities fall below the 1e-12 clamp
        priors[::3] *= 40.0
        # tied argmax rows: the lowest tied class wins
        predicted[1::5, :2] = predicted[1::5].max(axis=1, keepdims=True) + 1.0
        ids = [f"s{i}" for i in range(n)]
        for i, rec in enumerate(score_records(ids, predicted, priors, kind)):
            assert repr(rec) == repr(scalar_record(ids[i], predicted[i], priors[i], kind))

    def test_predicted_class_is_argmax(self):
        (rec,) = score_records(["a"], np.array([[1.0, 3.0, 2.0]]), np.zeros((1, 3)), "ce")
        assert rec.predicted_class == 1

    def test_predicted_class_tie_breaks_low(self):
        (rec,) = score_records(["a"], np.array([[2.0, 2.0]]), np.zeros((1, 2)), "ce")
        assert rec.predicted_class == 0

    def test_non_finite_logits_rejected(self):
        block = np.zeros((2, 3))
        bad = block.copy()
        bad[1, 2] = np.nan
        with pytest.raises(ShapeError, match="finite"):
            score_records(["a", "b"], bad, block, "ce")
        with pytest.raises(ShapeError, match="finite"):
            score_records(["a", "b"], block, bad, "kl")

    @pytest.mark.parametrize("row,prior,kind", [
        ([1e200, 0.0], [0.0, 0.0], "ed"),  # guidance overflows
        ([1e160, 0.0], [-1e160, 0.0], "ed"),  # base and guidance finite, their product not
        ([1e308, 0.0], [0.0, 10.0], "ce"),
    ], ids=["guidance", "pge-ed", "pge-ce"])
    def test_overflowing_score_names_the_first_such_id(self, row, prior, kind):
        predicted = np.array([[1.0, 0.0], row, row])
        priors = np.array([[0.0, 0.0], prior, prior])
        with pytest.raises(FormatError, match="sample 'b'.*finite"):
            score_records(["a", "b", "c"], predicted, priors, kind)

    def test_mismatched_blocks_rejected(self):
        with pytest.raises(ShapeError):
            score_records(["a", "b"], np.zeros((2, 3)), np.zeros((2, 4)), "ed")
        with pytest.raises(ShapeError):
            score_records(["a"], np.zeros((2, 3)), np.zeros((2, 3)), "ed")


class TestScoreFile:
    def test_round_trip(self, tmp_path):
        model, prior, ds = trained_setup(6)
        records = score_dataset(model, prior, ds, "ce")
        path = str(tmp_path / "scores.jsonl")
        write_scores(path, records, "ce", 0.1, "abc123")
        header, back = read_scores(path)
        assert header == {"guidance": "ce", "alpha": 0.1, "checkpoint_sha256": "abc123"}
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.id == b.id and a.pge == b.pge and a.baselines == b.baselines

    def test_score_field_lookup(self):
        rec = ScoreRecord("x", 1.0, 2.0, 2.0, 0, {"msp": 0.7})
        assert score_field(rec, "pge") == 2.0
        assert score_field(rec, "msp") == 0.7
        with pytest.raises(FormatError):
            score_field(rec, "mahalanobis")


GOOD_SCORE_LINE = {"id": "a", "base": 1.5, "guidance": 2, "pge": 3.0, "predicted_class": 0,
                   "baselines": {"msp": 0.5}}


def score_file(tmp_path, header, *lines):
    path = tmp_path / "scores.jsonl"
    body = [header if isinstance(header, str) else json.dumps(header)]
    body += [line if isinstance(line, str) else json.dumps(line) for line in lines]
    path.write_text("\n".join(body) + "\n")
    return str(path)


class TestReadScoresValidation:
    HEADER = {"guidance": "ce", "alpha": 0.1, "checkpoint_sha256": ""}

    def test_valid_file_reads(self, tmp_path):
        second = {**GOOD_SCORE_LINE, "id": "b"}
        header, records = read_scores(score_file(tmp_path, self.HEADER, GOOD_SCORE_LINE, "", second))
        assert header == self.HEADER
        assert len(records) == 2 and records[0].guidance == 2

    def test_repeated_id_names_line_and_id(self, tmp_path):
        """A repeated id would count one sample twice in every metric."""
        path = score_file(tmp_path, self.HEADER, GOOD_SCORE_LINE, {**GOOD_SCORE_LINE, "id": "b"}, "",
                          {**GOOD_SCORE_LINE, "pge": 4.0})
        with pytest.raises(FormatError, match=r"scores\.jsonl:5: duplicate id 'a'"):
            read_scores(path)

    @pytest.mark.parametrize("header", ["{not json", "[1, 2]", "", "7"])
    def test_bad_header_names_line_1(self, tmp_path, header):
        with pytest.raises(FormatError, match=r"scores\.jsonl:1: "):
            read_scores(score_file(tmp_path, header, GOOD_SCORE_LINE))

    @pytest.mark.parametrize(
        "line",
        [
            "{oops",
            "[1, 2]",
            '"a string"',
            "null",
            {**GOOD_SCORE_LINE, "pge": "x"},
            {**GOOD_SCORE_LINE, "base": None},
            {**GOOD_SCORE_LINE, "guidance": True},
            {**GOOD_SCORE_LINE, "id": 3},
            {**GOOD_SCORE_LINE, "predicted_class": 1.0},
            {**GOOD_SCORE_LINE, "baselines": [0.5]},
            {**GOOD_SCORE_LINE, "baselines": {"msp": "0.5"}},
            {key: value for key, value in GOOD_SCORE_LINE.items() if key != "pge"},
            {**GOOD_SCORE_LINE, "baselines": {"msp": True}},
            {**GOOD_SCORE_LINE, "baselines": {"msp": 0.5, "energy": None}},
        ],
    )
    def test_bad_record_names_line(self, tmp_path, line):
        with pytest.raises(FormatError, match=r"scores\.jsonl:3: "):
            read_scores(score_file(tmp_path, self.HEADER, GOOD_SCORE_LINE, line))


class TestReadScoresCollector:
    """read_scores builds its records with the cyclic collector paused and
    leaves the collector as the caller had it."""

    HEADER = TestReadScoresValidation.HEADER

    @pytest.fixture
    def collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_paused_while_records_are_built(self, tmp_path, monkeypatch, collector):
        states = []

        def record(*fields):
            states.append(gc.isenabled())
            return ScoreRecord(*fields)

        monkeypatch.setattr(pvit.scoring, "ScoreRecord", record)
        gc.enable()
        read_scores(score_file(tmp_path, self.HEADER, GOOD_SCORE_LINE, {**GOOD_SCORE_LINE, "id": "b"}))
        assert states == [False, False]
        assert gc.isenabled()

    def test_enabled_again_after_a_format_error(self, tmp_path, collector):
        gc.enable()
        with pytest.raises(FormatError, match=r"scores\.jsonl:3: "):
            read_scores(score_file(tmp_path, self.HEADER, GOOD_SCORE_LINE, "{oops"))
        assert gc.isenabled()

    @pytest.mark.parametrize("bad", [False, True])
    def test_a_disabled_collector_stays_disabled(self, tmp_path, collector, bad):
        gc.disable()
        path = score_file(tmp_path, self.HEADER, GOOD_SCORE_LINE, "{oops" if bad else {**GOOD_SCORE_LINE, "id": "b"})
        if bad:
            with pytest.raises(FormatError):
                read_scores(path)
        else:
            assert len(read_scores(path)[1]) == 2
        assert not gc.isenabled()
