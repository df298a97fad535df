"""Prior-source tests: lookup semantics, MLP training, logits file round trip."""

import json

import numpy as np
import pytest

from pvit.artifacts import read_jsonl
from pvit.cli import _accuracy
from pvit.checkpoint import load_checkpoint, save_checkpoint
from pvit.data import Dataset
from pvit.errors import FormatError, MissingPriorError
from pvit.priors import (
    MLPClassifier,
    MLPConfig,
    ModelSource,
    TableSource,
    export_logits,
    load_logits,
    priors_for_indices,
    train_prior_model,
)
from pvit.rng import philox
from pvit.train import TrainConfig


def table(rows, k=3):
    """A table source holding ``rows``, a mapping of sample id to logits."""
    return TableSource(records={sid: np.asarray(row, dtype=np.float64) for sid, row in rows.items()}, num_classes=k)


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
        src = table({"a": [0.5, -1.0, 2.0]})
        ds = Dataset("d", np.zeros((1, 2, 2, 1)), ids=["a"])
        got = priors_for_indices(src, ds, np.array([0]))
        np.testing.assert_array_equal(got, [[0.5, -1.0, 2.0]])

    def test_absent_id_raises(self):
        src = table({"a": [0.0, 0.0, 0.0]})
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


class TestResolve:
    """``resolve`` gives a whole dataset's (N, K) block, aligned with its ids."""

    def test_table_resolves_in_dataset_order(self):
        src = table({"a": [1.0, 0.0, 0.0], "b": [0.0, 2.0, 0.0]})
        ds = Dataset("d", np.zeros((3, 2, 2, 1)), ids=["b", "a", "b"])
        np.testing.assert_array_equal(src.resolve(ds), [[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])

    def test_exported_table_resolves_bit_identical_to_model(self, tmp_path):
        ds = blobs_dataset(per_class=40, seed=10)
        src = ModelSource(MLPClassifier(MLPConfig(input_dim=16, hidden_dim=8, num_classes=2), seed=3))
        path = str(tmp_path / "logits.jsonl")
        export_logits(src, ds, path)
        assert load_logits(path).resolve(ds).tobytes() == src.resolve(ds).tobytes()

    def test_batch_rows_match_whole_dataset_block_closely(self):
        ds = blobs_dataset(per_class=40, seed=11)
        src = ModelSource(MLPClassifier(MLPConfig(input_dim=16, hidden_dim=8, num_classes=2), seed=4))
        idx = np.array([5, 0, 33])
        np.testing.assert_allclose(priors_for_indices(src, ds, idx), src.resolve(ds)[idx], rtol=0, atol=1e-12)

    def test_empty_dataset_resolves_to_zero_rows(self):
        src = ModelSource(MLPClassifier(MLPConfig(input_dim=4, hidden_dim=8, num_classes=3), seed=5))
        empty = Dataset("e", np.zeros((0, 2, 2, 1)), ids=[])
        assert src.resolve(empty).shape == (0, 3)
        assert table({}).resolve(empty).shape == (0, 3)

    def test_accuracy_takes_either_source(self, tmp_path):
        ds = blobs_dataset(per_class=30, seed=12)
        src = ModelSource(MLPClassifier(MLPConfig(input_dim=16, hidden_dim=8, num_classes=2), seed=6))
        path = str(tmp_path / "logits.jsonl")
        exported = export_logits(src, ds, path)
        assert _accuracy(load_logits(path).resolve(ds), ds.labels) == _accuracy(src.resolve(ds), ds.labels)
        assert _accuracy(exported, ds.labels) == _accuracy(src.resolve(ds), ds.labels)


class TestTrainPriorModel:
    def test_separable_blobs_reach_99_percent(self):
        ds = blobs_dataset()
        config = TrainConfig(epochs=5, batch_size=20, base_lr=3e-2, warmup_epochs=1,
                             weight_decay=0.0, seed=1)
        src, result = train_prior_model(ds, config, hidden_dim=16, seed=2)
        assert _accuracy(src.resolve(ds), ds.labels) >= 0.99
        assert result.curve[-1].accuracy >= 0.99

    def test_zero_epochs_is_chance_level(self):
        ds = blobs_dataset(per_class=200, seed=3)
        config = TrainConfig(epochs=0, batch_size=20, base_lr=1e-3, warmup_epochs=0, seed=1)
        src, result = train_prior_model(ds, config, hidden_dim=16, seed=5)
        assert result.curve == [] and result.final_step == 0
        assert abs(_accuracy(src.resolve(ds), ds.labels) - 0.5) <= 0.15

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
        assert len(loaded.records) == len(ds)
        direct = model.logits(ds.images).data
        for i, sid in enumerate(ds.ids):
            assert loaded.records[sid].dtype == np.float64
            np.testing.assert_array_equal(loaded.records[sid], direct[i])
        # the file names its dataset and each line's label, which loading checks but does not keep
        header, rows = read_jsonl(path)
        assert header["dataset"] == "blobs"
        assert [obj["label"] for _, obj in rows] == ds.labels.tolist()

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
        src = table({"a": [value, -value]}, k=2)
        ds = Dataset("tiny", np.zeros((1, 2, 2, 1)), ids=["a"])
        path = str(tmp_path / "prec.jsonl")
        export_logits(src, ds, path)
        back = load_logits(path)
        assert back.records["a"][0] == value


class TestPriorCheckpoint:
    def test_round_trip_bit_identical_logits(self, tmp_path):
        model = MLPClassifier(MLPConfig(input_dim=16, hidden_dim=8, num_classes=3), seed=7)
        path = str(tmp_path / "prior.ckpt")
        model.save(path)
        ds = blobs_dataset(per_class=5, seed=13)
        once = ModelSource(MLPClassifier.load(path)).resolve(ds)
        MLPClassifier.load(path).save(path)
        assert ModelSource(MLPClassifier.load(path)).resolve(ds).tobytes() == once.tobytes()

    def test_unknown_config_key_names_key(self, tmp_path):
        path = str(tmp_path / "prior.ckpt")
        MLPClassifier(MLPConfig(input_dim=16, hidden_dim=8, num_classes=3), seed=8).save(path)
        header, tensors = load_checkpoint(path)
        header["config"]["dropout"] = 0.1
        save_checkpoint(path, header, tensors)
        with pytest.raises(FormatError, match="'dropout'"):
            MLPClassifier.load(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "prior.ckpt")
        save_checkpoint(path, {"kind": "pvit", "config": {}}, {})
        with pytest.raises(FormatError, match="kind"):
            MLPClassifier.load(path)
