"""Prior-source tests: lookup semantics, MLP training, logits file round trip."""

import json

import numpy as np
import pytest

from pvit.data import Dataset
from pvit.errors import FormatError, MissingPriorError
from pvit.priors import (
    LogitsRecord,
    MLPClassifier,
    MLPConfig,
    ModelSource,
    TableSource,
    accuracy,
    export_logits,
    load_logits,
    priors_for_indices,
    train_prior_model,
)
from pvit.rng import philox
from pvit.train import TrainConfig


def table(records, k=3):
    return TableSource(records={r.id: r for r in records}, num_classes=k)


def blobs_dataset(per_class=100, seed=0):
    """Two linearly separable pixel blobs: class 0 dark, class 1 bright."""
    gen = philox(seed, 77)
    n = per_class * 2
    images = np.empty((n, 4, 4, 1))
    labels = np.empty(n, dtype=np.int64)
    for i in range(n):
        c = i % 2
        center = 0.25 if c == 0 else 0.75
        images[i] = np.clip(center + 0.05 * gen.standard_normal((4, 4, 1)), 0, 1)
        labels[i] = c
    return Dataset("blobs", images, labels)


class TestLookup:
    def test_present_id_returns_stored_vector(self):
        rec = LogitsRecord("a", 1, [0.5, -1.0, 2.0])
        src = table([rec])
        ds = Dataset("d", np.zeros((1, 2, 2, 1)), ids=["a"])
        got = priors_for_indices(src, ds, np.array([0]))
        np.testing.assert_array_equal(got, [[0.5, -1.0, 2.0]])

    def test_absent_id_raises(self):
        src = table([LogitsRecord("a", None, [0.0, 0.0, 0.0])])
        ds = Dataset("d", np.zeros((1, 2, 2, 1)), ids=["b"])
        with pytest.raises(MissingPriorError, match="'b'"):
            priors_for_indices(src, ds, np.array([0]))

    def test_model_source_deterministic(self):
        model = MLPClassifier(MLPConfig(input_dim=16, hidden_dim=8, num_classes=3), seed=4)
        src = ModelSource(model)
        ds = Dataset("d", np.full((1, 4, 4, 1), 0.3), ids=["x"])
        a = priors_for_indices(src, ds, np.array([0]))
        b = priors_for_indices(src, ds, np.array([0]))
        assert a.tobytes() == b.tobytes()


class TestTrainPriorModel:
    def test_separable_blobs_reach_99_percent(self):
        ds = blobs_dataset()
        config = TrainConfig(epochs=5, batch_size=20, base_lr=3e-2, warmup_epochs=1,
                             weight_decay=0.0, seed=1)
        src, result = train_prior_model(ds, config, hidden_dim=16, seed=2)
        assert accuracy(src, ds) >= 0.99
        assert result.epoch_accuracy[-1] >= 0.99

    def test_zero_epochs_is_chance_level(self):
        ds = blobs_dataset(per_class=200, seed=3)
        config = TrainConfig(epochs=0, batch_size=20, base_lr=1e-3, warmup_epochs=0, seed=1)
        src, result = train_prior_model(ds, config, hidden_dim=16, seed=5)
        assert result is None
        assert abs(accuracy(src, ds) - 0.5) <= 0.15

    def test_fixed_seed_identical_weights(self):
        ds = blobs_dataset(per_class=30, seed=6)
        config = TrainConfig(epochs=2, batch_size=10, base_lr=1e-3, warmup_epochs=0, seed=9)
        weights = []
        for _ in range(2):
            src, _ = train_prior_model(ds, config, hidden_dim=8, seed=7)
            weights.append({k: v.data.copy() for k, v in src.model.params.items()})
        for name in weights[0]:
            assert weights[0][name].tobytes() == weights[1][name].tobytes()


class TestLogitsFile:
    def test_export_load_round_trip(self, tmp_path):
        ds = blobs_dataset(per_class=5, seed=8)
        model = MLPClassifier(MLPConfig(input_dim=16, hidden_dim=8, num_classes=2), seed=1)
        src = ModelSource(model)
        path = str(tmp_path / "logits.jsonl")
        export_logits(src, ds, path)
        loaded = load_logits(path)
        assert loaded.num_classes == 2
        assert loaded.dataset == "blobs"
        assert len(loaded.records) == len(ds)
        direct = model.logits(ds.images).data
        for i, sid in enumerate(ds.ids):
            np.testing.assert_array_equal(loaded.records[sid].logits, direct[i])
            assert loaded.records[sid].label == int(ds.labels[i])

    def test_short_logits_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"k": 3, "dataset": "d", "model": "m"}) + "\n"
            + json.dumps({"id": "a", "label": 0, "logits": [1.0, 2.0]}) + "\n"
        )
        with pytest.raises(FormatError, match=":2"):
            load_logits(str(path))

    def test_empty_file_with_header_loads(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"k": 4, "dataset": "d", "model": "m"}) + "\n")
        src = load_logits(str(path))
        assert src.records == {} and src.num_classes == 4

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = json.dumps({"id": "a", "label": None, "logits": [0.0, 0.0]})
        path.write_text(json.dumps({"k": 2, "dataset": "d", "model": "m"}) + f"\n{line}\n{line}\n")
        with pytest.raises(FormatError, match="duplicate id"):
            load_logits(str(path))

    def test_non_finite_logits_rejected(self, tmp_path):
        path = tmp_path / "inf.jsonl"
        path.write_text(
            json.dumps({"k": 2, "dataset": "d", "model": "m"}) + "\n"
            + '{"id": "a", "label": null, "logits": [1.0, Infinity]}\n'
        )
        with pytest.raises(FormatError, match="non-finite"):
            load_logits(str(path))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.jsonl"
        path.write_text("")
        with pytest.raises(FormatError, match="header"):
            load_logits(str(path))

    def test_full_precision_round_trip(self, tmp_path):
        value = 0.1 + 0.2  # not representable in short decimal
        rec = LogitsRecord("a", None, [value, -value])
        src = table([rec], k=2)
        ds = Dataset("tiny", np.zeros((1, 2, 2, 1)), ids=["a"])
        path = str(tmp_path / "prec.jsonl")
        export_logits(src, ds, path)
        back = load_logits(path)
        assert back.records["a"].logits[0] == value
