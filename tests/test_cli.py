"""End-to-end command-line tests: the full train/score/eval workflow,
exit codes, reproducibility, and output formats."""

import ast
import dataclasses
import json
import math
import os
import pathlib
import reprlib
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import pvit.cli
from pvit.cli import _pvit_config, _train_config, build_datasets, main
from pvit.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from pvit.config import RunConfig
from pvit.data import Dataset, make_ood, normalize, split_dataset, synth_dataset
from pvit.model import PViTConfig, PViTModel
from pvit.priors import MLPClassifier, MLPConfig, ModelSource, export_logits, load_logits
from pvit.scoring import (ScoreRecord, file_sha256, forward_batches, predict_logits, read_scores, score_dataset,
                          write_scores)
from pvit.errors import FormatError, ShapeError
from pvit.train import OptimizerState, TrainConfig, loss_curve_csv, train
from recipe import compare, csv_diff, run_cli, write_cfg
from test_data import write_idx_pair


SPLITS = ["id-train", "id-test", "ood-uniform-noise", "ood-pattern-shift", "ood-inverted"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One fully-run pipeline shared by the read-only assertions."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    cfg, out = write_cfg(tmp_path)
    run_cli(cfg, "train-prior", "train-pvit", "score", "eval", "attention-dump")
    return cfg, out


class TestPipeline:
    def test_logits_files_exist_for_every_split(self, pipeline):
        _, out = pipeline
        for split in SPLITS:
            assert os.path.exists(os.path.join(out, "logits", f"logits_{split}.jsonl")), split

    def test_resolved_config_written_per_command(self, pipeline):
        _, out = pipeline
        for command in ("train-prior", "train-pvit", "score", "eval", "attention-dump"):
            path = os.path.join(out, f"{command}.resolved.cfg")
            assert os.path.exists(path)
            text = pathlib.Path(path).read_text()
            assert "model.alpha = 0.1" in text

    def test_alpha_from_config_reaches_model(self, pipeline):
        _, out = pipeline
        header, _ = load_checkpoint(os.path.join(out, "pvit.ckpt"))
        assert header["config"]["alpha"] == 0.1
        summary = json.loads(pathlib.Path(out, "pvit_train.json").read_text())
        assert summary["alpha"] == 0.1

    def test_reported_accuracies_are_the_saved_checkpoints(self, pipeline):
        """pvit_train.json's accuracies are those of pvit.ckpt loaded back as
        score loads it, float32, not those of the float64 master weights."""
        cfg, out = pipeline
        run = RunConfig.load(cfg)
        datasets = build_datasets(run)
        model = PViTModel.load(os.path.join(out, "pvit.ckpt"))[0]
        assert all(p.data.dtype == np.float32 for p in model.params.values())
        splits = ("id-train", "id-test")
        priors = pvit.cli._split_priors(run, out, {split: datasets[split].ids for split in splits})
        summary = json.loads(pathlib.Path(out, "pvit_train.json").read_text())
        for split in splits:
            logits = predict_logits(model, datasets[split].images, priors[split])
            assert summary[f"{split.replace('-', '_')}_accuracy"] == pvit.cli._accuracy(logits, datasets[split].labels)

    def test_train_pvit_does_not_import_scipy_special(self, tmp_path, pipeline):
        """Training steps and the reported accuracies both run in float32, so
        a fresh process that runs train-pvit never imports scipy.special."""
        cfg, _ = write_cfg(tmp_path, paths__logits_dir=os.path.join(pipeline[1], "logits"))
        script = (f"import sys\nfrom recipe import run_cli\n"
                  f"run_cli({cfg!r}, 'train-pvit')\nprint('scipy.special' in sys.modules)")
        paths = [os.path.dirname(os.path.dirname(os.path.abspath(pvit.cli.__file__))),  # src/, and tests/ for recipe
                 os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        assert done.stdout == "False\n"

    def test_eval_writes_one_json_per_ood_set_plus_summary(self, pipeline):
        _, out = pipeline
        jsons = [f for f in os.listdir(out) if f.startswith("metrics_") and f.endswith(".json")]
        assert len(jsons) == 3  # one per OOD set with the default single score
        assert os.path.exists(os.path.join(out, "eval_summary.csv"))
        summary = pathlib.Path(out, "eval_summary.csv").read_text().strip().splitlines()
        assert summary[0] == "ood_dataset,score,auroc,fpr95,threshold,orientation"
        assert len(summary) == 1 + 3

    def test_attention_rows_sum_to_one(self, pipeline):
        _, out = pipeline
        attn_dir = os.path.join(out, "attention")
        files = sorted(os.listdir(attn_dir))
        assert files
        for name in files[:3]:
            matrix = np.loadtxt(os.path.join(attn_dir, name), delimiter=",")
            np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    def test_score_headers_record_guidance_alpha_hash(self, pipeline):
        _, out = pipeline
        header, records = read_scores(os.path.join(out, "scores_id-test.jsonl"))
        assert header["guidance"] == "ce"
        assert header["alpha"] == 0.1
        assert len(header["checkpoint_sha256"]) == 64
        assert len(records) == 30  # 3 classes x 10 test per class

    def test_every_text_artifact_is_plain(self, pipeline):
        """Every CSV cell outside the text columns is a finite number, and
        every JSON document or line parses as strict JSON: no NaN or
        Infinity, no ``np.float64(...)`` wrapper."""
        def no_constant(name):
            raise ValueError(f"non-standard JSON constant {name}")

        text_columns = {"ood_dataset", "score", "orientation", "sample_id"}
        _, out = pipeline
        checked = set()
        for path in sorted(pathlib.Path(out).rglob("*")):
            if path.suffix == ".csv":
                rows = [line.split(",") for line in path.read_text().splitlines()]
                header = rows.pop(0) if path.parent.name != "attention" else [""] * len(rows[0])
                for row in rows:
                    for name, cell in zip(header, row, strict=True):
                        assert name in text_columns or math.isfinite(float(cell)), (path, name, cell)
            elif path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=no_constant)
            elif path.suffix == ".jsonl":
                for line in path.read_text().splitlines():
                    json.loads(line, parse_constant=no_constant)
            checked.add(path.suffix)
        assert {".csv", ".json", ".jsonl"} <= checked


def artifact_bytes(out):
    """Every file under ``out`` by relative path, less the resolved configs
    and pvit_train.json's checkpoint path, which name the directory."""
    found = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            found[os.path.relpath(path, out)] = pathlib.Path(path).read_bytes()
    summary = json.loads(found.pop("pvit_train.json"))
    del summary["checkpoint"]
    found["pvit_train.json"] = json.dumps(summary, sort_keys=True).encode()
    return {name: data for name, data in found.items() if not name.endswith(".resolved.cfg")}


class TestPriorOnlyThroughLogitsFiles:
    def test_pipeline_runs_without_the_prior_checkpoint(self, tmp_path, pipeline):
        """Past train-prior, commands read priors from the logits files
        alone: with prior.ckpt deleted, the pipeline writes the same bytes."""
        cfg, out = write_cfg(tmp_path)
        run_cli(cfg, "train-prior")
        os.remove(os.path.join(out, "prior.ckpt"))
        run_cli(cfg, "train-pvit", "score", "eval", "attention-dump")
        expected = artifact_bytes(pipeline[1])
        del expected["prior.ckpt"]
        got = artifact_bytes(out)
        assert sorted(got) == sorted(expected)
        assert len([name for name in got if name.startswith("attention" + os.sep)]) == 8
        for name in expected:
            assert got[name] == expected[name], name


class TestReproducibility:
    def test_rerun_train_prior_identical_logits_bytes(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        run_cli(cfg, "train-prior")
        first = {
            split: pathlib.Path(out, "logits", f"logits_{split}.jsonl").read_bytes()
            for split in SPLITS
        }
        run_cli(cfg, "train-prior")
        for split in SPLITS:
            again = pathlib.Path(out, "logits", f"logits_{split}.jsonl").read_bytes()
            assert first[split] == again, split

    def test_export_logits_after_train_prior_is_identical(self, tmp_path):
        """train-prior exports from the saved checkpoint, as export-logits does."""
        cfg, out = write_cfg(tmp_path)
        run_cli(cfg, "train-prior")
        paths = [os.path.join(out, "logits", f"logits_{split}.jsonl") for split in SPLITS]
        first = [pathlib.Path(path).read_bytes() for path in paths]
        run_cli(cfg, "export-logits")
        assert [pathlib.Path(path).read_bytes() for path in paths] == first

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        run_cli(cfg, "train-prior")
        baseline = pathlib.Path(out, "logits", "logits_id-test.jsonl").read_bytes()
        run_cli(cfg, "train-prior", flags=["--seed", "99"])
        shifted = pathlib.Path(out, "logits", "logits_id-test.jsonl").read_bytes()
        assert baseline != shifted

    def test_resolved_config_alone_reproduces_run(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        run_cli(cfg, "train-prior")
        baseline = pathlib.Path(out, "logits", "logits_id-test.jsonl").read_bytes()
        resolved = os.path.join(out, "train-prior.resolved.cfg")
        run_cli(resolved, "train-prior")
        again = pathlib.Path(out, "logits", "logits_id-test.jsonl").read_bytes()
        assert baseline == again


class TestRecipe:
    def test_manifest_is_independent_of_directory_and_hash_seed(self, tmp_path):
        """Every command, run by ``tests/recipe.py`` in two processes under
        PYTHONHASHSEED 1 and 2 into two directories, writes the same bytes."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(pvit.cli.__file__)))
        recipe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "recipe.py")
        runs = [subprocess.Popen([sys.executable, recipe, str(tmp_path / f"hash-seed-{seed}")], stdout=subprocess.PIPE,
                                 env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join(
                                     filter(None, [src, os.environ.get("PYTHONPATH")])))) for seed in (1, 2)]
        outputs = [run.communicate()[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        first, second = (json.loads(output) for output in outputs)
        assert len(first) == 89  # 55 files of the main run, 33 of the ablation, and stdout
        assert first == second

    def test_compare_reports_each_entry_of_either_manifest(self):
        here = {"<stdout>": "aa", "run/pvit.ckpt": "bb", "run/new.csv": "cc"}
        there = {"<stdout>": "aa", "run/pvit.ckpt": "bd", "run/old.csv": "cc"}
        assert compare(here, there, "HEAD~1") == {"<stdout>": "identical", "run/new.csv": "only here",
                                                  "run/old.csv": "only at HEAD~1", "run/pvit.ckpt": "differs"}
        assert set(compare(here, dict(here), "HEAD~1").values()) == {"identical"}

    def test_csv_diff_counts_cells_and_the_largest_numeric_move(self):
        old = b"ood_dataset,score,auroc,fpr95,threshold,orientation\n" \
              b"ood-inverted,pge,0.9,0.1,-1.25,higher_is_id\nood-inverted,msp,0.8,0.2,0.5,higher_is_id\n"
        new = b"ood_dataset,score,auroc,fpr95,threshold,orientation\n" \
              b"ood-inverted,pge,0.9,0.1,-1.2500001,higher_is_id\nood-inverted,msp,0.8,0.25,0.5,lower_is_id\n"
        assert csv_diff(old, new) == ["3 of 18 cells differ, largest |delta| 0.05, 1 not numeric"]
        assert csv_diff(old, new, keyed=True) == [
            "3 of 18 cells differ, largest |delta| 0.05, 1 not numeric",
            "ood-inverted,pge threshold: -1.25 -> -1.2500001",
            "ood-inverted,msp fpr95: 0.2 -> 0.25",
            "ood-inverted,msp orientation: higher_is_id -> lower_is_id",
        ]
        assert csv_diff(old, old, keyed=True) == ["0 of 18 cells differ"]
        assert csv_diff(b"1,2\n3,4\n", b"1,2\n3,4\n5,6\n") == ["shape changed: 2 rows of 2 cells -> 3 rows of 2 cells"]
        assert csv_diff(b"1,2\n3,4\n", b"1,2\n3\n") == ["shape changed: 2 rows of 2 cells -> 2 rows of 1-2 cells"]
        assert csv_diff(b"0.5,1e-3\n", b"0.5,1.5e-3\n") == ["1 of 2 cells differ, largest |delta| 0.0005"]


@pytest.mark.parametrize("noise", [0.0, 1.5])
def test_pattern_shift_set_takes_the_configured_noise(tmp_path, noise):
    """build_datasets hands data.noise_sigma to the pattern-shift set as to
    the ID sets, so its stripes are no cleaner or noisier than theirs."""
    cfg = RunConfig.load(overrides={"data.noise_sigma": noise, "data.classes": 3, "data.train_per_class": 2,
                                    "data.test_per_class": 2, "ood.count": 9, "out.dir": str(tmp_path)})
    built = build_datasets(cfg)["ood-pattern-shift"]
    expected = make_ood("pattern-shift", 9, seed=cfg.seed_for("ood.seed"), classes=3, noise_sigma=noise)
    np.testing.assert_array_equal(built.images, expected.images)
    assert not np.array_equal(built.images, make_ood("pattern-shift", 9, seed=cfg.seed_for("ood.seed"),
                                                     classes=3).images)


class TestNormalization:
    def test_train_prior_exports_logits_of_normalized_datasets(self, tmp_path):
        """With data.normalize_* set, every split reaches the prior normalized:
        the logits files equal export_logits over the library's normalize()."""
        cfg_path, out = write_cfg(tmp_path, data__normalize_mean=0.1, data__normalize_std=0.9)
        run_cli(cfg_path, "train-prior")
        cfg = RunConfig.load(cfg_path)
        combined = synth_dataset(classes=3, per_class=30, size=28, noise_sigma=0.2,
                                 seed=cfg.seed_for("data.seed"), name="synth")
        id_train, id_test = split_dataset(combined, 60, seed=cfg.seed_for("data.split_seed"))
        datasets = {"id-train": id_train, "id-test": id_test}
        for kind in ("uniform-noise", "pattern-shift", "inverted"):
            datasets[f"ood-{kind}"] = make_ood(kind, 30, seed=cfg.seed_for("ood.seed"), size=28,
                                               classes=3, source=id_test)
        prior = ModelSource(MLPClassifier.load(os.path.join(out, "prior.ckpt"))[0])
        (tmp_path / "plain").mkdir()
        plain_cfg, plain_out = write_cfg(tmp_path / "plain")
        run_cli(plain_cfg, "train-prior")
        for split in SPLITS:
            expected = str(tmp_path / f"expected_{split}.jsonl")
            export_logits(prior, normalize(datasets[split], 0.1, 0.9), expected)
            written = pathlib.Path(out, "logits", f"logits_{split}.jsonl").read_bytes()
            assert written == pathlib.Path(expected).read_bytes(), split
            assert written != pathlib.Path(plain_out, "logits", f"logits_{split}.jsonl").read_bytes(), split


class TestResume:
    def test_resume_continues_step_counter(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        run_cli(cfg, "train-prior", "train-pvit")
        header, _ = load_checkpoint(os.path.join(out, "pvit.ckpt"))
        first_steps = header["step"]
        assert first_steps > 0 and header["epoch"] == 2

        resume_cfg, _ = write_cfg(
            tmp_path, name="resume.cfg", train__resume=os.path.join(out, "pvit.ckpt")
        )
        run_cli(resume_cfg, "train-pvit")
        header2, tensors = load_checkpoint(os.path.join(out, "pvit.ckpt"))
        assert header2["step"] == 2 * first_steps
        assert header2["epoch"] == 4
        assert any(name.startswith("opt.m.") for name in tensors)
        curve = pathlib.Path(out, "pvit_loss.csv").read_text().splitlines()
        assert curve[1].startswith(f"{first_steps + 1},0,")

    def test_resumed_state_is_the_checkpoint_step_and_moments(self, tmp_path):
        path = str(tmp_path / "resume.ckpt")
        model = PViTModel(PViTConfig(num_classes=3, embed_dim=16, depth=1, heads=2, mlp_dim=24))
        moments = {f"opt.{kind}.{name}": np.full(p.shape, 0.25) for name, p in model.params.items() for kind in "mv"}
        model.save(path, step=7, epoch=3, extra_tensors=moments)
        _, header, tensors = PViTModel.load(path)
        state = OptimizerState(tensors, t=header["step"])
        state.bind(model.params)
        assert state.t == 7 and header["epoch"] == 3
        assert list(state.moments) == list(moments)
        assert all(np.array_equal(state.moments[key], value) for key, value in moments.items())

    def test_resumed_training_gets_float64_parameters_and_moments(self, tmp_path):
        """A loaded checkpoint holds float32; binding the resumed state hands
        training its values as float64, so a resumed step records its tape as
        any step does."""
        path = str(tmp_path / "resume.ckpt")
        model = PViTModel(PViTConfig(image_h=8, image_w=8, patch_size=4, num_classes=3, embed_dim=16, depth=1,
                                     heads=2, mlp_dim=24))
        moments = {f"opt.{kind}.{name}": np.full(p.shape, 0.3) for name, p in model.params.items() for kind in "mv"}
        model.save(path, step=2, epoch=1, extra_tensors=moments)
        loaded, header, tensors = PViTModel.load(path)
        stored = {name: p.data.copy() for name, p in loaded.params.items()}
        assert {p.data.dtype for p in loaded.params.values()} == {np.dtype(np.float32)}
        state = OptimizerState(tensors, t=header["step"])
        state.bind(loaded.params)
        for name, p in loaded.params.items():
            assert p.data.dtype == np.float64 and np.array_equal(p.data, stored[name]), name
        for key, moment in state.moments.items():
            assert moment.dtype == np.float64 and np.all(moment == np.float32(0.3)), key
        rng = np.random.default_rng(3)
        train(loaded, Dataset("two", rng.uniform(0, 1, (2, 8, 8, 1)), np.array([0, 2])), rng.normal(size=(2, 3)),
              TrainConfig(epochs=1, batch_size=2, warmup_epochs=0), state)
        assert state.t == 3

    @pytest.mark.parametrize("key, change", [
        ("opt.v.head.bias", lambda header, tensors: tensors.pop("opt.v.head.bias")),
        ("opt.m.head.weight", lambda header, tensors: tensors.update({"opt.m.head.weight": np.zeros((3, 16))})),
        ("opt.m.head.gain", lambda header, tensors: tensors.update({"opt.m.head.gain": np.zeros(3)})),
        ("opt.m.patch_embed.weight", lambda header, tensors: [tensors.pop(key) for key in list(tensors)
                                                              if key.startswith("opt.")]),
        ("step", lambda header, tensors: header.update(step="12")),
        ("step", lambda header, tensors: header.update(step=2.5)),
        ("step", lambda header, tensors: header.update(step=-5)),
        ("step", lambda header, tensors: header.pop("step")),
        ("epoch", lambda header, tensors: header.update(epoch="2")),
        ("epoch", lambda header, tensors: header.update(epoch=-1)),
        ("epoch", lambda header, tensors: header.pop("epoch")),
        ("step", lambda header, tensors: header.update(step=10**400)),
        ("epoch", lambda header, tensors: header.update(epoch=2**63)),
        ("opt.v.head.bias", lambda header, tensors: np.put(tensors["opt.v.head.bias"], 1, np.inf)),
        ("opt.m.blocks.0.attn.qkv.weight",
         lambda header, tensors: np.put(tensors["opt.m.blocks.0.attn.qkv.weight"], 7, np.nan)),
        ("opt.v.pos_embed", lambda header, tensors: np.put(tensors["opt.v.pos_embed"], 0, -1e-6)),
        ("head.weight", lambda header, tensors: np.put(tensors["head.weight"], 5, -np.inf)),
        ("cls_token", lambda header, tensors: np.put(tensors["cls_token"], 0, np.nan)),
    ], ids=["moment-without-partner", "moment-shaped-unlike-parameter", "moment-of-no-parameter",
            "past-step-0-without-moments", "string-step", "float-step", "negative-step", "no-step", "string-epoch",
            "negative-epoch", "no-epoch", "step-no-float-holds", "epoch-past-int64", "infinite-second-moment",
            "nan-first-moment", "negative-second-moment", "infinite-parameter", "nan-parameter"])
    def test_bad_resume_checkpoint_exits_2_naming_it_and_the_key(self, tmp_path, capsys, key, change):
        """A resumed state is step and epoch counts, integers in [0, 2**63), and
        opt.m./opt.v. pairs shaped like their parameters, every pair once
        the step is past 0 (so Adam never silently restarts from zero
        moments), with finite parameters and moments and nonnegative second
        moments: the loader refuses bad counters and values that are not
        finite, naming the file, and binding the state refuses the rest,
        changing nothing; either fails before any file is written."""
        path = str(tmp_path / "resume.ckpt")
        model = PViTModel(PViTConfig(num_classes=3, embed_dim=16, depth=1, heads=2, mlp_dim=24))
        moments = {f"opt.{kind}.{name}": np.ones(p.shape) for name, p in model.params.items() for kind in "mv"}
        model.save(path, step=4, epoch=2, extra_tensors=moments)
        header, tensors = load_checkpoint(path)
        change(header, tensors)
        save_checkpoint(path, header, tensors)
        try:
            loaded, header, tensors = PViTModel.load(path)
        except FormatError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            refusal = exc
        else:
            before = {name: p.data for name, p in loaded.params.items()}
            with pytest.raises(ShapeError) as info:
                OptimizerState(tensors, t=header["step"]).bind(loaded.params)
            assert all(p.data is before[name] for name, p in loaded.params.items())
            refusal = info.value
        assert f"'{key}'" in str(refusal), refusal
        cfg, out = write_cfg(tmp_path, train__resume=path, model__depth=1)  # the checkpoint's one layer
        assert main(["train-pvit", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert path in err and f"'{key}'" in err and "Traceback" not in err, err
        assert len(err.splitlines()) == 1 and len(err) < 300, err  # a rejected value is echoed cut short
        assert os.listdir(out) == []

    def test_resume_with_another_architecture_exits_1_naming_keys_and_values(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path)
        run_cli(cfg, "train-prior", "train-pvit")
        ckpt = os.path.join(out, "pvit.ckpt")
        before, ckpt_bytes = sorted(os.listdir(out)), pathlib.Path(ckpt).read_bytes()
        resume_cfg, _ = write_cfg(tmp_path, name="resume.cfg", train__resume=ckpt, model__dim=32, model__alpha=5.0)
        assert main(["train-pvit", "--config", resume_cfg]) == 1
        err = capsys.readouterr().err
        assert "'model.dim' = 32" in err and "has 16" in err, err
        assert "'model.alpha' = 5.0" in err and "has 0.1" in err and "Traceback" not in err, err
        assert sorted(os.listdir(out)) == before and pathlib.Path(ckpt).read_bytes() == ckpt_bytes


class TestCheckpointAgreesWithConfig:
    """Every command that loads a checkpoint checks it against the config
    the run would build: a config key that disagrees exits 1 naming the key
    with both values, and nothing is written."""

    FIELDS = {"prior.hidden": "hidden_dim", "data.classes": "num_classes", "model.alpha": "alpha",
              "model.depth": "depth", "model.dim": "embed_dim"}

    @pytest.mark.parametrize("command, key, ours, theirs", [
        ("export-logits", "prior.hidden", 64, 32),
        ("export-logits", "data.classes", 3, 4),
        ("score", "model.alpha", 1.0, 0.1),
        ("score", "model.depth", 3, 2),
        ("score", "data.classes", 3, 4),
        ("attention-dump", "model.alpha", 1.0, 0.1),
        ("attention-dump", "model.depth", 3, 2),
        ("attention-dump", "data.classes", 3, 4),
        ("train-pvit", "model.dim", 32, 16),
        ("train-pvit", "model.alpha", 5.0, 0.1),
    ])
    def test_config_key_disagreeing_with_the_checkpoint_exits_1_writing_nothing(self, tmp_path, capsys, command,
                                                                                 key, ours, theirs):
        """``ours`` is the config's value, ``theirs`` the checkpoint's; the
        checkpoint otherwise matches SMALL_CFG (train.resume is read by
        train-pvit alone)."""
        name = "prior.ckpt" if command == "export-logits" else "pvit.ckpt"
        ckpt = str(tmp_path / "out" / name)
        cfg, out = write_cfg(tmp_path, train__resume=ckpt, **{key.replace(".", "__"): ours})
        os.makedirs(out)
        if command == "export-logits":
            config = MLPConfig(input_dim=28 * 28, hidden_dim=32, num_classes=3)
            MLPClassifier(dataclasses.replace(config, **{self.FIELDS[key]: theirs})).save(ckpt)
        else:
            config = PViTConfig(num_classes=3, embed_dim=16, depth=2, heads=2, mlp_dim=24, alpha=0.1)
            PViTModel(dataclasses.replace(config, **{self.FIELDS[key]: theirs})).save(ckpt)
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert ckpt in err and f"'{key}' = {ours!r} but the checkpoint has {theirs!r}" in err, err
        assert "Traceback" not in err, err
        assert os.listdir(out) == [name]
        assert not os.path.exists(os.path.join(out, f"{command}.resolved.cfg"))

    def test_cli_loads_checkpoints_through_the_checked_loader_alone(self):
        """An AST walk over ``pvit.cli``: the one ``.load(`` call on a model
        class (``RunConfig.load`` reads the run config) is inside
        ``_load_checked``, which takes the class from its table, and the
        lower-level checkpoint reader appears not at all, so a command
        cannot read a checkpoint that was not checked against the config."""
        tree = ast.parse(pathlib.Path(pvit.cli.__file__).read_text())

        def loads(node):
            return sorted(f"{ast.unparse(n.func)}:{n.lineno}" for n in ast.walk(node)
                          if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "load"
                          and ast.unparse(n.func.value) != "RunConfig")

        checked = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_load_checked")
        assert len(loads(checked)) == 1
        assert loads(tree) == loads(checked)
        readers = [f"{n.id}:{n.lineno}" for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and n.id in ("load_checkpoint", "load_model")]
        assert readers == []

    def test_checkpoint_headers_hold_the_same_keys_and_the_prior_records_its_epochs(self, pipeline):
        """Both kinds save through one base: the run's ``prior.ckpt`` and
        ``pvit.ckpt`` headers hold exactly kind, config, step and epoch, and
        the prior's epoch is ``prior.epochs``."""
        cfg, out = pipeline
        headers = {name: load_checkpoint(os.path.join(out, name))[0] for name in ("prior.ckpt", "pvit.ckpt")}
        for name, header in headers.items():
            assert sorted(header) == ["config", "epoch", "kind", "step"], name
        run = RunConfig.load(cfg)
        assert headers["prior.ckpt"]["epoch"] == run["prior.epochs"] == 3
        assert headers["pvit.ckpt"]["epoch"] == run["train.epochs"]

    @pytest.mark.parametrize("command, name, field, value", [
        ("score", "pvit.ckpt", "heads", 0),
        ("score", "pvit.ckpt", "patch_size", 0),
        ("attention-dump", "pvit.ckpt", "depth", -1),
        ("export-logits", "prior.ckpt", "hidden_dim", -16),
        ("score", "pvit.ckpt", "alpha", float("nan")),
        pytest.param("score", "pvit.ckpt", "alpha", 10**400, id="score-pvit.ckpt-alpha-past-float64"),
        pytest.param("score", "pvit.ckpt", "mlp_dim", 10**400, id="score-pvit.ckpt-mlp_dim-past-int64"),
        ("score", "pvit.ckpt", "num_classes", 1),
        ("export-logits", "prior.ckpt", "num_classes", 1),
    ])
    def test_checkpoint_value_that_cannot_work_exits_2_naming_the_file_writing_nothing(self, tmp_path, capsys,
                                                                                        command, name, field, value):
        """A config value that cannot work exits 2 naming the file and the
        value; an integer past int64 is echoed cut short, never whole."""
        cfg, out = write_cfg(tmp_path)
        os.makedirs(out)
        path = os.path.join(out, name)
        if name == "prior.ckpt":
            MLPClassifier(MLPConfig(input_dim=28 * 28, hidden_dim=32, num_classes=3)).save(path)
        else:
            PViTModel(PViTConfig(num_classes=3, embed_dim=16, depth=2, heads=2, mlp_dim=24)).save(path)
        header, tensors = load_checkpoint(path)
        header["config"][field] = value
        save_checkpoint(path, header, tensors)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        big = type(value) is int and value >= 2**63  # echoed cut short, never whole
        shown = f"{field!r} = {reprlib.repr(value)}" if big else f"{field}={value}"
        assert path in err and shown in err and "Traceback" not in err, err
        assert not big or str(value) not in err, err
        assert os.listdir(out) == [name]

    def test_checkpoint_with_separate_q_k_v_projections_exits_2_naming_the_fused_weight(self, tmp_path, capsys,
                                                                                          pipeline):
        """A ``pvit.ckpt`` of the earlier layout, one ``attn.q``/``k``/``v``
        weight and bias each per block, is not loaded: ``score`` exits 2
        naming the file and the first fused tensor it lacks, and writes no
        score file."""
        out = str(tmp_path / "out")
        shutil.copytree(pipeline[1], out)
        cfg, _ = write_cfg(tmp_path)
        path = os.path.join(out, "pvit.ckpt")
        header, tensors = load_checkpoint(path)
        split = {}
        for name, value in tensors.items():
            if ".attn.qkv." in name:
                for proj, part in zip("qkv", np.split(value, 3, axis=-1)):
                    split[name.replace(".qkv.", f".{proj}.")] = part
            else:
                split[name] = value
        assert "blocks.0.attn.k.bias" in split and "blocks.0.attn.qkv.weight" not in split
        save_checkpoint(path, header, split)
        for name in os.listdir(out):
            if name.startswith("scores_"):
                os.remove(os.path.join(out, name))
        assert main(["score", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert path in err and "'blocks.0.attn.qkv.weight'" in err and "Traceback" not in err, err
        assert not [name for name in os.listdir(out) if name.startswith("scores_")]


class TestCheckpointValuesAreCheckedOnLoad:
    """Every command that loads a checkpoint refuses one whose ``step`` or
    ``epoch`` is not an integer in [0, 2**63) or that holds a NaN or
    infinite tensor: it exits 2 naming the file and the key, in one line,
    and writes nothing."""

    @pytest.mark.parametrize("defect", ["non-finite-parameter", "string-step"])
    @pytest.mark.parametrize("command", ["score", "attention-dump", "export-logits", "train-pvit"])
    def test_bad_checkpoint_exits_2_naming_the_file_and_the_key(self, tmp_path, capsys, command, defect):
        name = "prior.ckpt" if command == "export-logits" else "pvit.ckpt"
        path = str(tmp_path / name)
        cfg, out = write_cfg(tmp_path, train__resume=path, paths__pvit_checkpoint=path, paths__prior_checkpoint=path)
        if name == "prior.ckpt":
            MLPClassifier(MLPConfig(input_dim=28 * 28, hidden_dim=32, num_classes=3)).save(path)
            tensor, value = "fc1.weight", np.nan
        else:
            PViTModel(PViTConfig(num_classes=3, embed_dim=16, depth=2, heads=2, mlp_dim=24)).save(path)
            tensor, value = "blocks.0.attn.qkv.weight", np.inf
        header, tensors = load_checkpoint(path)
        if defect == "string-step":
            key = "step"
            header["step"] = "12"
        else:
            key = tensor
            tensors[tensor].flat[3] = value
        save_checkpoint(path, header, tensors)
        before = pathlib.Path(path).read_bytes()
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"pvit: error: {path}: checkpoint ") and f"'{key}'" in err, err
        assert len(err.splitlines()) == 1 and "Traceback" not in err, err
        assert os.listdir(out) == [] and pathlib.Path(path).read_bytes() == before

    def test_finite_weights_whose_forward_pass_overflows_exit_2_naming_the_split_and_sample(self, tmp_path, capsys,
                                                                                           pipeline):
        """``score`` over a transformer whose float32 head overflows names
        the split and its first sample in one line, without numpy's overflow
        warning, and writes no score file."""
        path = str(tmp_path / "pvit.ckpt")
        header, tensors = load_checkpoint(os.path.join(pipeline[1], "pvit.ckpt"))
        tensors["head.weight"][...] = tensors["head.bias"][...] = 3e38
        save_checkpoint(path, header, tensors)
        cfg, out = write_cfg(tmp_path, paths__pvit_checkpoint=path, paths__logits_dir=os.path.join(pipeline[1], "logits"))
        assert main(["score", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == ("pvit: error: id-test: sample 'synth-00004': a predicted logit is NaN or infinite; "
                       "scores must be finite\n"), err
        assert os.listdir(out) == []


class TestOnePriorLookupAndBatchLoop:
    def test_cli_reads_logits_through_one_table_and_never_calls_forward_batch(self):
        """An AST walk over ``pvit.cli``: ``load_logits`` is called only inside
        ``_logits_table``, and no command calls ``.forward_batch(`` itself, so
        every model pass goes through ``forward_batches``' batches."""
        tree = ast.parse(pathlib.Path(pvit.cli.__file__).read_text())

        def calls(node, name):
            return [f"{name}:{n.lineno}" for n in ast.walk(node) if isinstance(n, ast.Call)
                    and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]

        table = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_logits_table")
        assert len(calls(table, "load_logits")) == 1
        assert calls(tree, "load_logits") == calls(table, "load_logits")
        assert calls(tree, "forward_batch") == []


class TestGuidanceSwitch:
    def test_ce_vs_ed_same_base_different_guidance(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        run_cli(cfg, "train-prior", "train-pvit", "score")
        _, ce = read_scores(os.path.join(out, "scores_id-test.jsonl"))

        ed_cfg, _ = write_cfg(tmp_path, name="ed.cfg", score__guidance="ed")
        run_cli(ed_cfg, "score")
        _, ed = read_scores(os.path.join(out, "scores_id-test.jsonl"))
        assert [r.base for r in ce] == [r.base for r in ed]
        assert [r.guidance for r in ce] != [r.guidance for r in ed]
        assert [r.pge for r in ce] != [r.pge for r in ed]


class TestErrors:
    def test_missing_idx_path_names_key(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, data__kind="idx")
        assert main(["train-prior", "--config", cfg]) == 1
        assert "data.idx_train_images" in capsys.readouterr().err

    def test_idx_label_outside_classes_exits_2(self, tmp_path, capsys):
        images = np.random.default_rng(0).integers(0, 256, (12, 28, 28))
        img_path, lbl_path = write_idx_pair(tmp_path, images, np.arange(12) % 6)
        cfg, out = write_cfg(tmp_path, data__kind="idx", data__classes=4,
                             data__idx_train_images=img_path, data__idx_train_labels=lbl_path,
                             data__idx_test_images=img_path, data__idx_test_labels=lbl_path)
        assert main(["train-prior", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert lbl_path in err and "label 5" in err and "4 classes" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "prior.ckpt"))

    def test_idx_image_side_not_divisible_by_patch_exits_1(self, tmp_path, capsys):
        """An IDX file's image side is known only once the file is read,
        so this patch check runs after the config's own rules, still
        before any file is written."""
        images = np.random.default_rng(0).integers(0, 256, (12, 30, 30))
        img_path, lbl_path = write_idx_pair(tmp_path, images, np.arange(12) % 3)
        cfg, out = write_cfg(tmp_path, data__kind="idx", model__patch=7,
                             data__idx_train_images=img_path, data__idx_train_labels=lbl_path,
                             data__idx_test_images=img_path, data__idx_test_labels=lbl_path)
        os.makedirs(out)
        assert main(["train-pvit", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "'model.patch'" in err and "30x30" in err and "Traceback" not in err, err
        assert os.listdir(out) == []

    def test_non_square_idx_with_generated_ood_sets_exits_1_before_any_write(self, tmp_path, capsys):
        """The uniform-noise and pattern-shift sets are drawn square, so
        non-square IDX images take the inverted set alone."""
        images = np.random.default_rng(0).integers(0, 256, (12, 14, 21))
        img_path, lbl_path = write_idx_pair(tmp_path, images, np.arange(12) % 3)
        idx_keys = dict(data__kind="idx", data__idx_train_images=img_path, data__idx_train_labels=lbl_path,
                        data__idx_test_images=img_path, data__idx_test_labels=lbl_path)
        cfg, out = write_cfg(tmp_path, **idx_keys)
        os.makedirs(out)
        assert main(["train-prior", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "'ood.kinds'" in err and img_path in err and "14x21" in err and "Traceback" not in err, err
        assert os.listdir(out) == []
        cfg, out = write_cfg(tmp_path, ood__kinds="inverted", **idx_keys)
        run_cli(cfg, "train-prior")
        assert sorted(os.listdir(os.path.join(out, "logits"))) == ["logits_id-test.jsonl", "logits_id-train.jsonl",
                                                                   "logits_ood-inverted.jsonl"]

    def test_idx_train_and_test_images_of_different_shapes_exit_2_before_any_write(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        paths = {}
        for split, side in (("train", 28), ("test", 14)):
            (tmp_path / split).mkdir()
            paths[split] = write_idx_pair(tmp_path / split, rng.integers(0, 256, (12, side, side)), np.arange(12) % 3)
        cfg, out = write_cfg(tmp_path, data__kind="idx",
                             data__idx_train_images=paths["train"][0], data__idx_train_labels=paths["train"][1],
                             data__idx_test_images=paths["test"][0], data__idx_test_labels=paths["test"][1])
        os.makedirs(out)
        assert main(["train-prior", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert paths["train"][0] in err and paths["test"][0] in err, err
        assert "28x28x1" in err and "14x14x1" in err and "Traceback" not in err, err
        assert os.listdir(out) == []

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("model.width = 64\n")
        assert main(["train-prior", "--config", str(path)]) == 1
        assert "model.width" in capsys.readouterr().err

    def test_corrupted_checkpoint_magic_names_file(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path)
        os.makedirs(out, exist_ok=True)
        bad = os.path.join(out, "pvit.ckpt")
        with open(bad, "wb") as fh:
            fh.write(b"JUNKJUNKJUNK")
        assert main(["score", "--config", cfg]) == 2
        assert "pvit.ckpt" in capsys.readouterr().err

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["train-prior", "--config", "/nonexistent/run.cfg"]) == 1

    def test_config_that_is_not_utf8_exits_1_naming_it(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path)
        with open(cfg, "ab") as fh:
            fh.write(b"# caf\xe9\n")
        assert main(["train-prior", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pvit: usage error: cannot read config {cfg!r}: ") and "Traceback" not in err, err
        assert not os.path.exists(out)

    def test_removed_prior_broadcast_key_exits_1(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, model__prior_broadcast="sample")
        assert main(["train-prior", "--config", cfg]) == 1
        assert "model.prior_broadcast" in capsys.readouterr().err

    def test_removed_prior_source_key_exits_1(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, prior__source="logits")
        assert main(["train-pvit", "--config", cfg]) == 1
        assert "prior.source" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("seed", -1), ("train.seed", -3), ("data.split_seed", 2**64)])
    def test_out_of_range_config_seed_exits_1(self, tmp_path, capsys, key, value):
        cfg, out = write_cfg(tmp_path, **{key.replace(".", "__"): value})
        assert main(["train-prior", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "U64" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(out, "prior.ckpt"))

    def test_negative_seed_flag_exits_1(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path)
        assert main(["train-prior", "--config", cfg, "--seed", "-20"]) == 1
        err = capsys.readouterr().err
        assert "'seed'" in err and "U64" in err and "Traceback" not in err

    @pytest.mark.parametrize("command, key, value", [
        ("score", "score.guidance", "cosine"),
        ("eval", "eval.orientation", "sideways"),
        ("train-prior", "ood.kinds", "uniform-noise,sideways"),
        ("eval", "eval.bins", 1),
        ("eval", "eval.scores", "pge,mahalanobis"),
        ("attention-dump", "attention.layer", 1),
        ("attention-dump", "attention.layer", -2),
        ("attention-dump", "attention.head", 2),
        ("train-prior", "data.kind", "npz"),
        ("attention-dump", "attention.dataset", "ood-sideways"),
        ("train-prior", "attention.head", 2),
        ("train-prior", "attention.layer", 1),
        ("train-prior", "attention.dataset", "ood-nowhere"),
        ("eval", "data.kind", "idx"),
        ("score", "attention.head", -1),
        ("train-pvit", "attention.layer", -2),
        ("export-logits", "attention.dataset", "ood-sideways"),
    ])
    def test_bad_closed_set_value_exits_1_before_writing(self, tmp_path, capsys, command, key, value):
        cfg, out = write_cfg(tmp_path, model__depth=1, **{key.replace(".", "__"): value})
        write_score_set(out)
        # attention.layer and attention.head must name one of the config's one layer and two heads,
        # which this checkpoint has; every command checks them, as it checks data.kind's IDX files
        PViTModel(PViTConfig(num_classes=3, embed_dim=16, depth=1, heads=2, mlp_dim=24)).save(
            os.path.join(out, "pvit.ckpt"))
        before = sorted(os.listdir(out))
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "Traceback" not in err
        assert sorted(os.listdir(out)) == before

    @pytest.mark.parametrize("command, key, value, entry", [
        ("score", "ood.kinds", "inverted,pattern-shift,inverted", "'inverted'"),
        ("eval", "eval.scores", "pge,msp,pge", "'pge'"),
        ("attention-dump", "attention.alphas", "0.1,0.1", "0.1"),
    ])
    def test_repeated_list_entry_exits_1_naming_key_and_entry(self, tmp_path, capsys, command, key, value, entry):
        """A repeated entry would write one output twice over, or one row twice."""
        cfg, out = write_cfg(tmp_path, **{key.replace(".", "__"): value})
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"config key '{key}': {entry} is repeated" in err and "Traceback" not in err, err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command, key, value, keys", [
        ("train-pvit", "train.batch_size", 0, ["train.batch_size"]),
        ("train-pvit", "train.base_lr", 0, ["train.base_lr"]),
        ("train-pvit", "train.warmup_epochs", 3, ["train.warmup_epochs", "train.epochs"]),
        ("train-prior", "prior.batch_size", 0, ["prior.batch_size"]),
        ("train-prior", "prior.base_lr", 0, ["prior.base_lr"]),
        ("train-prior", "prior.warmup_epochs", 4, ["prior.warmup_epochs", "prior.epochs"]),
        ("train-pvit", "model.heads", 3, ["model.heads", "model.dim"]),
        ("train-pvit", "model.patch", 5, ["model.patch"]),
        ("train-pvit", "model.alpha", -1, ["model.alpha"]),
        ("train-prior", "data.classes", 1, ["data.classes"]),
        ("train-prior", "data.normalize_std", 0, ["data.normalize_std"]),
        ("train-prior", "data.image_size", 0, ["data.image_size"]),
        ("train-pvit", "train.beta1", 1.0, ["train.beta1"]),
        ("train-pvit", "train.beta2", 1.5, ["train.beta2"]),
        ("train-pvit", "train.weight_decay", -5, ["train.weight_decay"]),
        ("train-prior", "ood.count", 0, ["ood.count"]),
        ("train-prior", "data.train_per_class", 0, ["data.train_per_class"]),
        ("attention-dump", "attention.max_samples", 0, ["attention.max_samples"]),
        ("attention-dump", "attention.alphas", -1, ["attention.alphas"]),
        ("attention-dump", "attention.alphas", "nan,1.0", ["attention.alphas"]),
        ("train-prior", "prior.weight_decay", "nan", ["prior.weight_decay"]),
        ("train-pvit", "model.alpha", "inf", ["model.alpha"]),
    ])
    def test_value_the_library_rejects_exits_1_naming_its_keys(self, tmp_path, capsys, command, key, value, keys):
        cfg, out = write_cfg(tmp_path, **{key.replace(".", "__"): value})
        os.makedirs(out)
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert all(f"'{k}'" in err for k in keys) and "Traceback" not in err, err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("line, named", [
        ("data.classes = three", "'data.classes'"),
        ("data.classes 3", "bad.cfg:2:"),
    ])
    def test_unparsable_config_line_exits_1_naming_it(self, tmp_path, capsys, line, named):
        path = tmp_path / "bad.cfg"
        out = tmp_path / "out"
        path.write_text(f"out.dir = {out}\n{line}\n")
        assert main(["train-prior", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err, err
        assert not out.exists()

    def test_key_set_twice_exits_1_naming_it_and_both_lines(self, tmp_path, capsys):
        """A second line for a key used to win silently (``seed = 5`` then
        ``seed = 6`` ran seed 6); the flags still override a key set once."""
        path, out = tmp_path / "twice.cfg", tmp_path / "out"
        path.write_text(f"out.dir = {out}\nseed = 5\n# seed = 4\n\nseed = 6\n")
        for flags in ([], ["--seed", "9"]):
            assert main(["train-prior", "--config", str(path), *flags]) == 1
            err = capsys.readouterr().err
            assert f"{path}: config key 'seed' is set twice, on lines 2 and 5" in err and "Traceback" not in err, err
        assert not out.exists()
        path.write_text(f"out.dir = {out}\nseed = 5\n")
        cfg = RunConfig.load(str(path), {"seed": 9, "out.dir": str(tmp_path / "other")})
        assert (cfg["seed"], cfg["out.dir"]) == (9, str(tmp_path / "other"))

    def test_attention_dump_of_a_model_without_layers_exits_1(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, model__depth=0)
        os.makedirs(out)
        PViTModel(PViTConfig(num_classes=3, embed_dim=16, depth=0, heads=2, mlp_dim=24)).save(
            os.path.join(out, "pvit.ckpt"))
        assert main(["attention-dump", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "'model.depth'" in err and "Traceback" not in err, err
        assert os.listdir(out) == ["pvit.ckpt"]

    @pytest.mark.parametrize("command, key, value, named", [
        ("train-prior", "data.train_per_class", 10**15, "no array takes shape (3000000000000030, 28, 28, 1)"),
        ("train-pvit", "model.dim", 10**12, "Unable to allocate"),
    ], ids=["past-numpy-sizes", "past-memory"])
    def test_oversized_setting_exits_2_without_traceback(self, tmp_path, capsys, command, key, value, named):
        """Sizes whose first array numpy refuses at once: one it cannot
        count the bytes of, one far past any machine's memory (178 TiB)."""
        cfg, out = write_cfg(tmp_path, model__heads=1, **{key.replace(".", "__"): value})
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("pvit: error: ") and named in err and "Traceback" not in err, err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("name", ["a#b", "x\ny = 1", " spaced ", os.fsdecode(b"runs\xff")])
    def test_out_flag_its_resolved_line_would_not_read_back_exits_1(self, tmp_path, capsys, name):
        """The resolved configuration would record another directory than the
        one used, or, for a byte that is not UTF-8, fail to be written once
        the command's outputs are."""
        cfg, _ = write_cfg(tmp_path)
        out = str(tmp_path / name)
        assert main(["eval", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config key 'out.dir'" in err and "reads back" in err and "Traceback" not in err, err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_out_flag_overrides_the_config_directory(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        other = str(tmp_path / "other")
        write_score_set(other)
        run_cli(cfg, "eval", flags=["--out", other])
        assert os.path.exists(os.path.join(other, "eval_summary.csv"))
        assert f"out.dir = {other}\n" in pathlib.Path(other, "eval.resolved.cfg").read_text()
        assert not os.path.exists(out)

    @pytest.mark.parametrize("defect, message", [
        ("version", "unsupported checkpoint version 2"),
        ("header", "not a JSON object"),
    ])
    def test_unreadable_checkpoint_header_exits_2_naming_file(self, tmp_path, capsys, defect, message):
        cfg, out = write_cfg(tmp_path)
        os.makedirs(out)
        path = os.path.join(out, "pvit.ckpt")
        if defect == "version":
            PViTModel(PViTConfig(num_classes=3, embed_dim=16, depth=1, heads=2, mlp_dim=24)).save(path)
            data = bytearray(pathlib.Path(path).read_bytes())
            data[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
        else:
            data = MAGIC + struct.pack("<II", FORMAT_VERSION, 3) + b"[1]" + struct.pack("<I", 0)
        with open(path, "wb") as fh:
            fh.write(data)
        assert main(["score", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert path in err and message in err and "Traceback" not in err, err

    def test_export_logits_with_prior_of_another_image_size_exits_2(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path)
        os.makedirs(out)
        path = os.path.join(out, "prior.ckpt")
        MLPClassifier(MLPConfig(input_dim=14 * 14, hidden_dim=8, num_classes=3)).save(path)
        assert main(["export-logits", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert path in err and "data.image_size" in err and "Traceback" not in err, err
        assert os.listdir(out) == ["prior.ckpt"]

    @pytest.mark.parametrize("values, named", [
        ({"fc2.bias": np.inf}, "{path}: checkpoint tensor 'fc2.bias' has a value that is not finite"),
        ({"fc2.weight": 3e38, "fc2.bias": 3e38},
         "synth-train: sample 'synth-00000' has a NaN or infinite prior logit; logits files must be finite"),
    ], ids=["infinite-tensor", "finite-weights-that-overflow"])
    def test_export_logits_with_an_infinite_prior_tensor_exits_2(self, tmp_path, capsys, values, named):
        """The loader refuses an infinite tensor, naming the file and the
        key; finite weights whose forward pass overflows give infinite
        logits, which export_logits refuses, naming the dataset and the
        first such sample, without numpy's overflow warning.  Either way no
        logits file is written."""
        cfg, out = write_cfg(tmp_path)
        os.makedirs(out)
        path = os.path.join(out, "prior.ckpt")
        prior = MLPClassifier(MLPConfig(input_dim=28 * 28, hidden_dim=32, num_classes=3))
        for name, value in values.items():
            prior.params[name].data[...] = value
        prior.save(path)
        assert main(["export-logits", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"pvit: error: {named.format(path=path)}\n", err
        assert [name for _, _, names in os.walk(out) for name in names] == ["prior.ckpt"]

    def test_export_logits_with_prior_of_another_idx_image_size_names_the_idx_file(self, tmp_path, capsys):
        images = np.random.default_rng(0).integers(0, 256, (12, 14, 14))
        img_path, lbl_path = write_idx_pair(tmp_path, images, np.arange(12) % 3)
        cfg, out = write_cfg(tmp_path, data__kind="idx",
                             data__idx_train_images=img_path, data__idx_train_labels=lbl_path,
                             data__idx_test_images=img_path, data__idx_test_labels=lbl_path)
        os.makedirs(out)
        path = os.path.join(out, "prior.ckpt")
        MLPClassifier(MLPConfig(input_dim=28 * 28, hidden_dim=8, num_classes=3)).save(path)
        assert main(["export-logits", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert path in err and "784" in err and "196" in err and "Traceback" not in err, err
        assert "data.idx_test_images" in err and img_path in err and "data.image_size" not in err, err
        assert os.listdir(out) == ["prior.ckpt"]

    @pytest.mark.parametrize("command", ["train-pvit", "score", "attention-dump"])
    def test_pvit_checkpoint_of_another_image_size_exits_2(self, tmp_path, capsys, command):
        path = str(tmp_path / "out" / "pvit.ckpt")
        cfg, out = write_cfg(tmp_path, data__image_size=14, train__resume=path)
        os.makedirs(out)
        PViTModel(PViTConfig(num_classes=3, embed_dim=16, depth=2, heads=2, mlp_dim=24)).save(path, step=0)
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert path in err and "28x28x1" in err and "14x14x1" in err and "Traceback" not in err, err
        assert os.listdir(out) == ["pvit.ckpt"]

    def test_unknown_checkpoint_config_key_exits_2(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path)
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "pvit.ckpt")
        PViTModel(PViTConfig(num_classes=3, embed_dim=16, depth=1, heads=2, mlp_dim=24)).save(path)
        header, tensors = load_checkpoint(path)
        header["config"]["width"] = 64
        save_checkpoint(path, header, tensors)
        assert main(["score", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "pvit.ckpt" in err and "'width'" in err


def write_score_set(out, guidance="ce", nan_split=None):
    """Score files for id-test and the default OOD sets, with one NaN pge
    in ``nan_split`` if given."""
    os.makedirs(out, exist_ok=True)
    for i, split in enumerate(["id-test"] + SPLITS[2:]):
        records = []
        for j in range(6):
            base = 1.0 + 0.1 * j - 0.5 * i
            pge = float("nan") if split == nan_split and j == 3 else base * 0.5
            records.append(ScoreRecord(f"{split}-{j}", base, 0.5, pge, 0, {"msp": 0.5}))
        write_scores(os.path.join(out, f"scores_{split}.jsonl"), records, guidance, 0.1, "ab" * 32)


class TestEvalInputs:
    def test_hand_written_score_set_evaluates(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        write_score_set(out)
        run_cli(cfg, "eval")

    def test_score_a_record_lacks_exits_2_naming_file_and_record(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path, eval__scores="pge,energy")
        write_score_set(out)
        assert main(["eval", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "scores_id-test.jsonl" in err and "'id-test-0'" in err and "'energy'" in err, err
        assert not os.path.exists(os.path.join(out, "eval_summary.csv"))

    @pytest.mark.parametrize("defect,named", [("nan", "'ood-pattern-shift-3' holds a NaN or infinite score"),
                                               ("int-past-float64", "'ood-pattern-shift-3' holds a NaN or infinite score"),
                                               ("header-only", "holds no score records")],
                             ids=["nan", "int-past-float64", "header-only"])
    def test_nan_score_exits_2(self, tmp_path, capsys, defect, named):
        """A split after the first OOD set fails eval before any output is
        written, naming its file; a JSON integer too large for a float64
        is an infinite score."""
        cfg, out = write_cfg(tmp_path)
        write_score_set(out, nan_split="ood-pattern-shift" if defect == "nan" else None)
        path = os.path.join(out, "scores_ood-pattern-shift.jsonl")
        lines = pathlib.Path(path).read_text().splitlines()
        if defect == "header-only":
            pathlib.Path(path).write_text(lines[0] + "\n")
        elif defect == "int-past-float64":
            lines[4] = json.dumps({**json.loads(lines[4]), "pge": 10**400})  # record 3
            pathlib.Path(path).write_text("\n".join(lines) + "\n")
        assert main(["eval", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{path}: " in err and named in err and "Traceback" not in err, err
        assert not [name for name in os.listdir(out) if name.startswith(("metrics_", "hist_", "eval_summary"))]

    def test_score_range_past_float64_evaluates_and_counts_every_score(self, tmp_path):
        """Finite scores whose range hi - lo overflows float64 still bin."""
        cfg, out = write_cfg(tmp_path)
        write_score_set(out)
        for split, pge in (("id-test", 1e308), ("ood-uniform-noise", -1e308)):
            path = os.path.join(out, f"scores_{split}.jsonl")
            header, records = read_scores(path)
            records[0].pge = pge
            write_scores(path, records, header["guidance"], header["alpha"], header["checkpoint_sha256"])
        run_cli(cfg, "eval")
        rows = [line.split(",") for line in
                pathlib.Path(out, "hist_ood-uniform-noise_pge.csv").read_text().splitlines()[1:]]
        assert sum(int(r[2]) for r in rows) == 6 and sum(int(r[3]) for r in rows) == 6

    @pytest.mark.parametrize("key", ["eval.scores", "ood.kinds"])
    def test_empty_list_exits_1_naming_it_and_keeps_the_summary(self, tmp_path, capsys, key):
        """With no score or no OOD set there is nothing to evaluate: eval
        fails before it reads or writes anything, and an earlier summary stays."""
        cfg, out = write_cfg(tmp_path)
        write_score_set(out)
        run_cli(cfg, "eval")
        before = {name: pathlib.Path(out, name).read_bytes() for name in os.listdir(out)}
        cfg, _ = write_cfg(tmp_path, name="empty.cfg", **{key.replace(".", "__"): ""})
        assert main(["eval", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"config key '{key}' is empty" in err and "Traceback" not in err, err
        assert {name: pathlib.Path(out, name).read_bytes() for name in os.listdir(out)} == before

    def test_mismatched_guidance_header_exits_2(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path)
        write_score_set(out, guidance="ce")
        _, records = read_scores(os.path.join(out, "scores_ood-inverted.jsonl"))
        write_scores(os.path.join(out, "scores_ood-inverted.jsonl"), records, "kl", 0.1, "ab" * 32)
        assert main(["eval", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "scores_ood-inverted.jsonl" in err and "scores_id-test.jsonl" in err
        assert "guidance" in err
        assert not os.path.exists(os.path.join(out, "eval_summary.csv"))

    @pytest.mark.parametrize(
        "split,lineno,text",
        [
            ("id-test", 1, "{not json"),
            ("ood-uniform-noise", 3, "[1, 2, 3]"),
            ("ood-inverted", 4, '{"id": "x", "base": 1.0, "guidance": 0.5, "pge": "x", '
                                '"predicted_class": 0, "baselines": {"msp": 0.5}}'),
            ("ood-pattern-shift", 5, '{"id": "ood-pattern-shift-0", "base": 1.0, "guidance": 0.5, "pge": 0.5, '
                                     '"predicted_class": 0, "baselines": {"msp": 0.5}}'),
        ],
    )
    def test_malformed_score_file_exits_2(self, tmp_path, capsys, split, lineno, text):
        cfg, out = write_cfg(tmp_path)
        write_score_set(out)
        path = os.path.join(out, f"scores_{split}.jsonl")
        lines = pathlib.Path(path).read_text().splitlines()
        lines[lineno - 1] = text
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["eval", "--config", cfg]) == 2
        assert f"scores_{split}.jsonl:{lineno}:" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "eval_summary.csv"))

    def test_score_file_byte_that_is_not_utf8_exits_2_naming_its_line(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path)
        write_score_set(out)
        path = os.path.join(out, "scores_ood-inverted.jsonl")
        data = pathlib.Path(path).read_bytes()
        pathlib.Path(path).write_bytes(data.replace(b'"ood-inverted-1"', b'"ood-inverted-\xff"'))
        assert main(["eval", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: not UTF-8 text: " in err and "Traceback" not in err, err
        assert not os.path.exists(os.path.join(out, "eval_summary.csv"))


def write_logits_set(directory, splits, k=3):
    """Hand-written ``k``-class logits files, two records each."""
    os.makedirs(directory, exist_ok=True)
    for split in splits:
        with open(os.path.join(directory, f"logits_{split}.jsonl"), "w") as fh:
            fh.write(json.dumps({"k": k, "dataset": split, "model": "mlp"}) + "\n")
            for j in range(2):
                logits = [0.5 * j, 0.1, -0.2] + [0.0] * (k - 3)
                fh.write(json.dumps({"id": f"{split}-{j}", "label": j, "logits": logits}) + "\n")


class TestLogitsInputs:
    """Consumers of logits files (every command past train-prior, and the
    two-file scoring ablation) exit 2 on a malformed line, naming it."""

    @pytest.mark.parametrize(
        "lineno,text",
        [
            (1, '{"k": "x", "dataset": "d", "model": "mlp"}'),
            (2, '{"id": "a", "label": "z", "logits": [0.1, 0.2, 0.3]}'),
            (3, '{"id": "b", "label": 0, "logits": "abc"}'),
            (3, '{"id": "b", "label": 0, "logits": 3}'),
            (2, '{"id": ["a"], "label": 0, "logits": [0.1, 0.2, 0.3]}'),
            (2, '{"label": 0, "logits": [0.1, 0.2, 0.3]}'),
            (2, '{"id": "a", "logits": [0.1, 0.2, 0.3]}'),
            (3, '{"id": "b", "label": 0}'),
            (3, '{"id": "b", "label": 0, "logits": [1%s, 0.2, 0.3]}' % ("0" * 400)),  # no float64 holds it
        ],
    )
    @pytest.mark.parametrize("command", ["train-pvit", "score"])
    def test_malformed_logits_file_exits_2(self, tmp_path, capsys, command, lineno, text):
        if command == "train-pvit":
            cfg, out = write_cfg(tmp_path)
            split = "id-train"
        else:
            predicted = str(tmp_path / "predicted")
            write_logits_set(predicted, SPLITS[1:])
            cfg, out = write_cfg(tmp_path, score__predicted_logits=predicted)
            split = "id-test"
        write_logits_set(os.path.join(out, "logits"), SPLITS)
        path = os.path.join(out, "logits", f"logits_{split}.jsonl")
        lines = pathlib.Path(path).read_text().splitlines()
        lines[lineno - 1] = text
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{path}:{lineno}:" in err and "Traceback" not in err, err
        assert os.listdir(out) == ["logits"]

    def test_logits_byte_that_is_not_utf8_exits_2_naming_its_line(self, tmp_path, capsys):
        predicted = str(tmp_path / "predicted")
        write_logits_set(predicted, SPLITS[1:])
        cfg, out = write_cfg(tmp_path, score__predicted_logits=predicted)
        write_logits_set(os.path.join(out, "logits"), SPLITS)
        path = os.path.join(out, "logits", "logits_id-test.jsonl")
        data = pathlib.Path(path).read_bytes()
        pathlib.Path(path).write_bytes(data.replace(b'"id-test-1"', b'"id-test-\xff"'))
        assert main(["score", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{path}:3: not UTF-8 text: " in err and "Traceback" not in err, err
        assert os.listdir(out) == ["logits"]

    def test_header_k_no_array_takes_exits_2_naming_the_file(self, tmp_path, capsys):
        predicted = str(tmp_path / "predicted")
        write_logits_set(predicted, SPLITS[1:])
        path = os.path.join(predicted, "logits_id-test.jsonl")
        pathlib.Path(path).write_text('{"k": 100000000000000000000000000000}\n')
        cfg, out = write_cfg(tmp_path, score__predicted_logits=predicted)
        write_logits_set(os.path.join(out, "logits"), SPLITS)
        assert main(["score", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: header 'k'" in err and "Traceback" not in err, err
        assert os.listdir(out) == ["logits"]

    @pytest.mark.parametrize(
        "lines,message,named",
        [
            (['{"k": 4, "dataset": "d", "model": "mlp"}', '{"id": "id-test-0", "label": 0, "logits": [1, 2, 3, 4]}'],
             "holds 4 logits per sample, but data.classes is 3", "predicted"),
            (['{"k": 3, "dataset": "d", "model": "mlp"}', '{"id": "other-00003", "label": 0, "logits": [1, 2, 3]}'],
             "no prior logits for sample id 'other-00003'", "out/logits"),
        ],
        ids=["k-disagrees", "id-missing"],
    )
    def test_predicted_logits_disagreeing_with_priors_exits_2_naming_the_file(self, tmp_path, capsys, lines,
                                                                              message, named):
        """A predicted file of another K names itself; an id the run's
        logits file lacks names that file, ``named`` under ``tmp_path``."""
        predicted = str(tmp_path / "predicted")
        write_logits_set(predicted, SPLITS[1:])
        with open(os.path.join(predicted, "logits_id-test.jsonl"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        cfg, out = write_cfg(tmp_path, score__predicted_logits=predicted)
        write_logits_set(os.path.join(out, "logits"), SPLITS)
        assert main(["score", "--config", cfg]) == 2
        assert f"{tmp_path / named / 'logits_id-test.jsonl'}: {message}" in capsys.readouterr().err

    def test_overflowing_score_exits_2_before_any_score_file(self, tmp_path, capsys):
        """Finite logits whose ED guidance overflows name their split and
        id; no score file is written or replaced, the earlier splits' neither."""
        predicted = str(tmp_path / "predicted")
        write_logits_set(predicted, SPLITS[1:])
        path = os.path.join(predicted, "logits_ood-pattern-shift.jsonl")
        lines = pathlib.Path(path).read_text().splitlines()
        lines[2] = json.dumps({"id": "ood-pattern-shift-1", "label": 1, "logits": [1e200, 0.0, 0.0]})
        pathlib.Path(path).write_text("\n".join(lines) + "\n")
        cfg, out = write_cfg(tmp_path, score__predicted_logits=predicted, score__guidance="ed")
        write_logits_set(os.path.join(out, "logits"), SPLITS)
        pathlib.Path(out, "scores_id-test.jsonl").write_text("earlier\n")
        assert main(["score", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "ood-pattern-shift: sample 'ood-pattern-shift-1'" in err and "Traceback" not in err, err
        assert sorted(os.listdir(out)) == ["logits", "scores_id-test.jsonl"]
        assert pathlib.Path(out, "scores_id-test.jsonl").read_text() == "earlier\n"

    @pytest.mark.parametrize("command", ["train-pvit", "score"])
    def test_missing_logits_file_exits_2(self, tmp_path, capsys, command):
        cfg, out = write_cfg(tmp_path, model__depth=1)  # the saved checkpoint's one layer
        write_logits_set(os.path.join(out, "logits"), [split for split in SPLITS if split != "id-test"])
        PViTModel(PViTConfig(num_classes=3, embed_dim=16, depth=1, heads=2, mlp_dim=24)).save(
            os.path.join(out, "pvit.ckpt"))
        assert main([command, "--config", cfg]) == 2
        assert os.path.join(out, "logits", "logits_id-test.jsonl") in capsys.readouterr().err


class TestLogitsFilesPerSplit:
    """Each command reads every logits file it needs, checks its K against
    data.classes and looks up every sample id before it writes anything;
    a wrong K or a missing id exits 2 naming the file."""

    @pytest.mark.parametrize("command", ["train-pvit", "score", "attention-dump"])
    def test_logits_of_another_k_exit_2_naming_the_file_and_data_classes(self, tmp_path, capsys, command):
        cfg, out = write_cfg(tmp_path, model__depth=1)  # the saved checkpoint's one layer
        write_logits_set(os.path.join(out, "logits"), SPLITS, k=4)
        PViTModel(PViTConfig(num_classes=3, embed_dim=16, depth=1, heads=2, mlp_dim=24)).save(
            os.path.join(out, "pvit.ckpt"))
        before = sorted(os.listdir(out))
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        split = "id-train" if command == "train-pvit" else "id-test"
        assert os.path.join(out, "logits", f"logits_{split}.jsonl") in err, err
        assert "data.classes is 3" in err and "Traceback" not in err, err
        assert sorted(os.listdir(out)) == before

    def test_ood_count_past_the_exported_logits_exits_2_before_any_score_file(self, tmp_path, capsys, pipeline):
        """A stale logits file names itself, and the splits before it keep
        their score files: every id is looked up before any file is written."""
        out = str(tmp_path / "out")
        shutil.copytree(pipeline[1], out)
        cfg, _ = write_cfg(tmp_path, ood__count=31)
        scores = pathlib.Path(out, "scores_id-test.jsonl").read_bytes()
        assert main(["score", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert os.path.join(out, "logits", "logits_ood-uniform-noise.jsonl") in err, err
        assert "'ood-uniform-noise-00030'" in err and "Traceback" not in err, err
        assert pathlib.Path(out, "scores_id-test.jsonl").read_bytes() == scores


def load_upcast(path):
    """The checkpoint's transformer at float64, as attention-dump runs it."""
    model, _, _ = PViTModel.load(path)
    for p in model.params.values():
        p.data = p.data.astype(np.float64)
    return model


class TestAttentionDump:
    def test_negative_layer_dumps_the_last_layer(self, tmp_path, pipeline):
        """``attention.layer = -1`` names and dumps layer depth - 1: every CSV
        matrix and summary mass is that layer's forward_batch attention."""
        out = str(tmp_path / "out")
        shutil.copytree(pipeline[1], out)
        cfg, _ = write_cfg(tmp_path, attention__layer=-1, attention__head=1, attention__alphas="0.1,1.0")
        run_cli(cfg, "attention-dump")
        model = load_upcast(os.path.join(out, "pvit.ckpt"))
        ds = build_datasets(RunConfig.load(cfg))["id-test"]
        ids = ds.ids[:8]
        priors = load_logits(os.path.join(out, "logits", "logits_id-test.jsonl")).logits_for(ids)
        rows = iter(pathlib.Path(out, "attention_summary.csv").read_text().splitlines()[1:])
        for alpha in (0.1, 1.0):
            matrices = model.forward_batch(ds.images[:8], priors, alpha).attentions[-1][:, 1]
            for sid, matrix in zip(ids, matrices, strict=True):
                dumped = np.loadtxt(os.path.join(out, "attention", f"{sid}_alpha{alpha!r}_L1H1.csv"), delimiter=",")
                np.testing.assert_array_equal(dumped, matrix)
                assert next(rows) == f"{alpha!r},{sid},1,1,{float(matrix[0, -1])!r}"
        assert next(rows, None) is None

    def test_samples_run_in_batches_of_64(self, tmp_path, pipeline, monkeypatch):
        """130 samples at two alphas make batches of 64, 64 and 2 per alpha;
        every CSV matrix and summary row is its batch's ``forward_batches``
        attention."""
        out = str(tmp_path / "out")
        shutil.copytree(pipeline[1], out)
        cfg, _ = write_cfg(tmp_path, data__test_per_class=50, attention__max_samples=130,
                           attention__alphas="0.1,1.0")
        run_cli(cfg, "export-logits")  # the copied prior's logits for 150 id-test samples
        calls, forward_batch = [], PViTModel.forward_batch

        def spy(self, images, prior_logits, alpha=None):
            calls.append(len(images))
            return forward_batch(self, images, prior_logits, alpha)

        monkeypatch.setattr(PViTModel, "forward_batch", spy)
        run_cli(cfg, "attention-dump")
        monkeypatch.undo()
        assert calls == [64, 64, 2] * 2
        model = load_upcast(os.path.join(out, "pvit.ckpt"))
        ds = build_datasets(RunConfig.load(cfg))["id-test"]
        ids = ds.ids[:130]
        priors = load_logits(os.path.join(out, "logits", "logits_id-test.jsonl")).logits_for(ids)
        summary = []
        for alpha in (0.1, 1.0):
            for rows, outputs in forward_batches(model, ds.images[:130], priors, alpha):
                for sid, matrix in zip(ids[rows], outputs.attentions[-1][:, 0], strict=True):
                    dumped = np.loadtxt(os.path.join(out, "attention", f"{sid}_alpha{alpha!r}_L1H0.csv"),
                                        delimiter=",")
                    np.testing.assert_array_equal(dumped, matrix)
                    summary.append(f"{alpha!r},{sid},1,0,{float(matrix[0, -1])!r}")
        assert len(summary) == 2 * 130
        assert pathlib.Path(out, "attention_summary.csv").read_text().splitlines()[1:] == summary


class TestPvitCheckpointPath:
    def test_commands_write_and_read_the_checkpoint_at_paths_pvit_checkpoint(self, tmp_path, pipeline):
        ckpt = str(tmp_path / "elsewhere" / "model.ckpt")
        os.makedirs(os.path.dirname(ckpt))
        cfg, out = write_cfg(tmp_path, paths__pvit_checkpoint=ckpt)
        run_cli(cfg, "train-prior", "train-pvit", "score", "attention-dump")
        assert os.path.exists(ckpt) and not os.path.exists(os.path.join(out, "pvit.ckpt"))
        assert json.loads(pathlib.Path(out, "pvit_train.json").read_text())["checkpoint"] == ckpt
        header, _ = read_scores(os.path.join(out, "scores_id-test.jsonl"))
        assert header["checkpoint_sha256"] == file_sha256(ckpt)
        for name in ["scores_id-test.jsonl", "attention_summary.csv"]:
            assert pathlib.Path(out, name).read_bytes() == pathlib.Path(pipeline[1], name).read_bytes(), name


def library_run(cfg_path, out):
    """train-pvit and score as the CLI runs them, but driven through the
    library with a prior model loaded from prior.ckpt instead of the
    logits files: writes pvit.ckpt, pvit_loss.csv and the score files."""
    cfg = RunConfig.load(cfg_path, {"out.dir": out})
    os.makedirs(out, exist_ok=True)
    datasets = build_datasets(cfg)
    prior = ModelSource(MLPClassifier.load(cfg["paths.prior_checkpoint"])[0])
    config = _train_config(cfg, "train")
    model = PViTModel(_pvit_config(cfg, datasets), seed=cfg.seed_for("model.seed"))
    result = train(model, datasets["id-train"], prior.resolve(datasets["id-train"]), config)
    ckpt = os.path.join(out, "pvit.ckpt")
    model.save(ckpt, step=result.final_step, epoch=config.epochs, extra_tensors=result.optimizer_tensors)
    with open(os.path.join(out, "pvit_loss.csv"), "w") as fh:
        fh.write(loss_curve_csv(result.curve))
    loaded, _, _ = PViTModel.load(ckpt)
    for split in SPLITS[1:]:
        records = score_dataset(loaded, prior, datasets[split], "ce")
        write_scores(os.path.join(out, f"scores_{split}.jsonl"), records, "ce", loaded.config.alpha, file_sha256(ckpt))


class TestLogitsPriorInterchangeability:
    def test_logits_file_priors_train_like_model_priors(self, tmp_path):
        """Table-backed (CLI) and model-backed (library) priors train alike:
        the start of the loss trajectory agrees (the test below pins every byte)."""
        cfg, out = write_cfg(tmp_path, paths__prior_checkpoint=str(tmp_path / "prior.ckpt"))
        run_cli(cfg, "train-prior", "train-pvit")
        table_curve = pathlib.Path(out, "pvit_loss.csv").read_text().splitlines()

        library_run(cfg, str(tmp_path / "library"))
        model_curve = pathlib.Path(tmp_path / "library" / "pvit_loss.csv").read_text().splitlines()

        assert len(model_curve) == len(table_curve)
        for a, b in zip(model_curve[1:4], table_curve[1:4]):
            loss_a, loss_b = float(a.split(",")[3]), float(b.split(",")[3])
            assert abs(loss_a - loss_b) <= 1e-9
        run_cli(cfg, "score")

    def test_model_and_logits_pipelines_write_identical_artifacts(self, tmp_path):
        """The logits files hold what the saved prior resolves each split to,
        so the CLI and the library with the prior model agree to the byte."""
        shared = {"paths__prior_checkpoint": str(tmp_path / "prior.ckpt"),
                  "paths__logits_dir": str(tmp_path / "prior_logits")}
        outs = []
        for source in ("model", "logits"):
            run_dir = tmp_path / source
            run_dir.mkdir()
            cfg, out = write_cfg(run_dir, **shared)
            if source == "model":
                run_cli(cfg, "train-prior")
                library_run(cfg, out)
            else:
                run_cli(cfg, "train-pvit", "score")
            run_cli(cfg, "eval")
            outs.append(out)
        names = ["pvit.ckpt", "pvit_loss.csv", "eval_summary.csv"]
        names += [f"scores_{split}.jsonl" for split in SPLITS[1:]]
        names += [f for f in os.listdir(outs[0]) if f.startswith(("metrics_", "hist_"))]
        assert len(names) == 3 + 4 + 6
        for name in names:
            a, b = (pathlib.Path(out, name).read_bytes() for out in outs)
            assert a == b, name
