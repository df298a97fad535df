"""Prior-source tests: lookup semantics, MLP training, logits file round trip."""

import json
import re

import numpy as np
import pytest

from pvit.artifacts import read_jsonl
from pvit.cli import _accuracy
from pvit.checkpoint import load_checkpoint, save_checkpoint
from pvit.data import Dataset
from pvit.errors import FormatError, MissingPriorError, ShapeError, TrainingError
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

    def test_single_label_data_is_refused(self):
        """One label gives one class, and ``data.classes`` needs at least 2."""
        ds = blobs_dataset(per_class=5)
        one_label = Dataset("one-label", ds.images, np.zeros(len(ds), dtype=np.int64))
        config = TrainConfig(epochs=1, batch_size=5, warmup_epochs=0)
        with pytest.raises(ShapeError, match=r"^num_classes must be at least 2"):
            train_prior_model(one_label, config, hidden_dim=4, seed=1)

    def test_an_empty_dataset_is_refused(self):
        empty = Dataset("empty", np.zeros((0, 4, 4, 1)), np.zeros(0, dtype=np.int64))
        with pytest.raises(TrainingError, match="^train_prior_model needs a nonempty dataset$"):
            train_prior_model(empty, TrainConfig(epochs=1, batch_size=5, warmup_epochs=0), hidden_dim=4)

    def test_an_unlabeled_dataset_is_refused(self):
        unlabeled = Dataset("unlabeled", blobs_dataset(per_class=5).images, None)
        with pytest.raises(TrainingError, match="^train_prior_model needs labels$"):
            train_prior_model(unlabeled, TrainConfig(epochs=1, batch_size=5, warmup_epochs=0), hidden_dim=4)

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

    def test_non_finite_logits_are_refused_before_writing(self, tmp_path):
        """Such a file would hold ``Infinity``/``NaN``, which is not JSON and
        which load_logits refuses; export names the first such sample."""
        source = table({"a": [0.0, 1.0, 2.0], "b": [0.0, np.inf, 2.0], "c": [np.nan, 1.0, 2.0]})
        ds = Dataset("three", np.zeros((3, 1, 1, 1)), None, ids=["a", "b", "c"])
        path = tmp_path / "logits.jsonl"
        with pytest.raises(FormatError, match="^three: sample 'b' has a NaN or infinite prior logit"):
            export_logits(source, ds, str(path))
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("k", [2**60, 10**29], ids=["past-numpy-bytes", "past-numpy-dims"])
    def test_header_k_no_float64_block_takes_is_refused_at_line_1(self, tmp_path, k):
        """A header-only file checks no row's length against ``k``: the
        header check itself refuses a width no (N, k) float64 array takes."""
        path = tmp_path / "wide.jsonl"
        path.write_text(json.dumps({"k": k}) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}:1: header 'k' must be an integer in [1, ")):
            load_logits(str(path))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = json.dumps({"id": "a", "label": None, "logits": [0.0, 0.0]})
        path.write_text(json.dumps({"k": 2, "dataset": "d", "model": "m"}) + f"\n{line}\n{line}\n")
        with pytest.raises(FormatError, match="duplicate id"):
            load_logits(str(path))

    @pytest.mark.parametrize("bad", ["Infinity", "NaN", str(10**400)], ids=["inf", "nan", "int-beyond-float64"])
    def test_non_finite_logits_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"k": 2, "dataset": "d", "model": "m"}) + "\n"
            + f'{{"id": "a", "label": null, "logits": [1.0, {bad}]}}\n'
        )
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: non-finite logits")):
            load_logits(str(path))

    def test_first_bad_line_is_named_whatever_its_fault(self, tmp_path):
        """Each line is checked whole before the next is read: a NaN on
        line 3 is reported before line 4 repeats line 2's id."""
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"k": 2, "dataset": "d", "model": "m"}) + "\n"
            + '{"id": "a", "label": null, "logits": [1.0, 2.0]}\n'
            + '{"id": "b", "label": null, "logits": [NaN, 2.0]}\n'
            + '{"id": "a", "label": null, "logits": [1.0, 2.0]}\n'
        )
        with pytest.raises(FormatError, match=re.escape(f"{path}:3: non-finite logits")):
            load_logits(str(path))

    def test_rows_are_float64_views_bitwise_equal_to_the_written_block(self, tmp_path):
        """Signed zeros, subnormals and JSON integers (one past 2**53 too)
        come back as the bits float64 gives them, each row a (K,) view of
        one block."""
        block = np.array([[-0.0, 5e-324, 3.0], [1.0, -2.2250738585072014e-308, 2.0 ** 53]], dtype=np.float64)
        path = tmp_path / "bits.jsonl"
        path.write_text(
            json.dumps({"k": 3, "dataset": "d", "model": "m"}) + "\n"
            + '{"id": "a", "label": 0, "logits": [-0.0, 5e-324, 3]}\n'
            + '{"id": "b", "label": 1, "logits": [1, -2.2250738585072014e-308, %d]}\n' % (2 ** 53 + 1)
        )
        loaded = load_logits(str(path))
        rows = [loaded.records["a"], loaded.records["b"]]
        for row, expected in zip(rows, block):
            assert row.dtype == np.float64 and row.shape == (3,)
            assert row.tobytes() == expected.tobytes()
        assert rows[0].base is not None and rows[0].base is rows[1].base
        assert loaded.logits_for(["b", "a"]).tobytes() == block[::-1].tobytes()

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
        once = ModelSource(MLPClassifier.load(path)[0]).resolve(ds)
        MLPClassifier.load(path)[0].save(path)
        assert ModelSource(MLPClassifier.load(path)[0]).resolve(ds).tobytes() == once.tobytes()

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
