"""End-to-end command-line tests: the full train/score/eval workflow,
exit codes, reproducibility, and output formats."""

import json
import os

import numpy as np
import pytest

from pvit.cli import main
from pvit.checkpoint import load_checkpoint, save_checkpoint
from pvit.model import PViTConfig, PViTModel
from pvit.scoring import ScoreRecord, read_scores, write_scores

SMALL_CFG = """
out.dir = {out}
seed = 5
data.classes = 3
data.train_per_class = 20
data.test_per_class = 10
data.image_size = 28
data.noise_sigma = 0.2
ood.count = 30
model.dim = 16
model.depth = 2
model.heads = 2
model.mlp_dim = 24
model.alpha = 0.1
prior.hidden = 32
prior.epochs = 3
prior.base_lr = 1e-2
train.epochs = 2
train.batch_size = 16
"""

SPLITS = ["id-train", "id-test", "ood-uniform-noise", "ood-pattern-shift", "ood-inverted"]


def write_cfg(tmp_path, text=SMALL_CFG, name="run.cfg", **extra):
    out = str(tmp_path / "out")
    body = text.format(out=out)
    for key, value in extra.items():
        body += f"\n{key.replace('__', '.')} = {value}\n"
    path = tmp_path / name
    path.write_text(body)
    return str(path), out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One fully-run pipeline shared by the read-only assertions."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    cfg, out = write_cfg(tmp_path)
    for command in ("train-prior", "train-pvit", "score", "eval", "attention-dump"):
        assert main([command, "--config", cfg]) == 0, command
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
            text = open(path).read()
            assert "model.alpha = 0.1" in text

    def test_alpha_from_config_reaches_model(self, pipeline):
        _, out = pipeline
        header, _ = load_checkpoint(os.path.join(out, "pvit.ckpt"))
        assert header["config"]["alpha"] == 0.1
        summary = json.load(open(os.path.join(out, "pvit_train.json")))
        assert summary["alpha"] == 0.1

    def test_eval_writes_one_json_per_ood_set_plus_summary(self, pipeline):
        _, out = pipeline
        jsons = [f for f in os.listdir(out) if f.startswith("metrics_") and f.endswith(".json")]
        assert len(jsons) == 3  # one per OOD set with the default single score
        assert os.path.exists(os.path.join(out, "eval_summary.csv"))
        summary = open(os.path.join(out, "eval_summary.csv")).read().strip().splitlines()
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


class TestReproducibility:
    def test_rerun_train_prior_identical_logits_bytes(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        assert main(["train-prior", "--config", cfg]) == 0
        first = {
            split: open(os.path.join(out, "logits", f"logits_{split}.jsonl"), "rb").read()
            for split in SPLITS
        }
        assert main(["train-prior", "--config", cfg]) == 0
        for split in SPLITS:
            again = open(os.path.join(out, "logits", f"logits_{split}.jsonl"), "rb").read()
            assert first[split] == again, split

    def test_export_logits_after_train_prior_is_identical(self, tmp_path):
        """train-prior exports from the saved checkpoint, as export-logits does."""
        cfg, out = write_cfg(tmp_path)
        assert main(["train-prior", "--config", cfg]) == 0
        paths = [os.path.join(out, "logits", f"logits_{split}.jsonl") for split in SPLITS]
        first = [open(path, "rb").read() for path in paths]
        assert main(["export-logits", "--config", cfg]) == 0
        assert [open(path, "rb").read() for path in paths] == first

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        assert main(["train-prior", "--config", cfg]) == 0
        baseline = open(os.path.join(out, "logits", "logits_id-test.jsonl"), "rb").read()
        assert main(["train-prior", "--config", cfg, "--seed", "99"]) == 0
        shifted = open(os.path.join(out, "logits", "logits_id-test.jsonl"), "rb").read()
        assert baseline != shifted

    def test_resolved_config_alone_reproduces_run(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        assert main(["train-prior", "--config", cfg]) == 0
        baseline = open(os.path.join(out, "logits", "logits_id-test.jsonl"), "rb").read()
        resolved = os.path.join(out, "train-prior.resolved.cfg")
        assert main(["train-prior", "--config", resolved]) == 0
        again = open(os.path.join(out, "logits", "logits_id-test.jsonl"), "rb").read()
        assert baseline == again


class TestResume:
    def test_resume_continues_step_counter(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        assert main(["train-prior", "--config", cfg]) == 0
        assert main(["train-pvit", "--config", cfg]) == 0
        header, _ = load_checkpoint(os.path.join(out, "pvit.ckpt"))
        first_steps = header["step"]
        assert first_steps > 0

        resume_cfg, _ = write_cfg(
            tmp_path, name="resume.cfg", train__resume=os.path.join(out, "pvit.ckpt")
        )
        assert main(["train-pvit", "--config", resume_cfg]) == 0
        header2, tensors = load_checkpoint(os.path.join(out, "pvit.ckpt"))
        assert header2["step"] == 2 * first_steps
        assert any(name.startswith("opt.m.") for name in tensors)


class TestGuidanceSwitch:
    def test_ce_vs_ed_same_base_different_guidance(self, tmp_path):
        cfg, out = write_cfg(tmp_path)
        assert main(["train-prior", "--config", cfg]) == 0
        assert main(["train-pvit", "--config", cfg]) == 0
        assert main(["score", "--config", cfg]) == 0
        _, ce = read_scores(os.path.join(out, "scores_id-test.jsonl"))

        ed_cfg, _ = write_cfg(tmp_path, name="ed.cfg", score__guidance="ed")
        assert main(["score", "--config", ed_cfg]) == 0
        _, ed = read_scores(os.path.join(out, "scores_id-test.jsonl"))
        assert [r.base for r in ce] == [r.base for r in ed]
        assert [r.guidance for r in ce] != [r.guidance for r in ed]
        assert [r.pge for r in ce] != [r.pge for r in ed]


class TestErrors:
    def test_missing_idx_path_names_key(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, data__kind="idx")
        assert main(["train-prior", "--config", cfg]) == 1
        assert "data.idx_train_images" in capsys.readouterr().err

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

    def test_removed_prior_broadcast_key_exits_1(self, tmp_path, capsys):
        cfg, _ = write_cfg(tmp_path, model__prior_broadcast="sample")
        assert main(["train-prior", "--config", cfg]) == 1
        assert "model.prior_broadcast" in capsys.readouterr().err

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
        assert main(["eval", "--config", cfg]) == 0

    def test_nan_score_exits_2(self, tmp_path, capsys):
        cfg, out = write_cfg(tmp_path)
        write_score_set(out, nan_split="ood-pattern-shift")
        assert main(["eval", "--config", cfg]) == 2
        assert "finite" in capsys.readouterr().err

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
        ],
    )
    def test_malformed_score_file_exits_2(self, tmp_path, capsys, split, lineno, text):
        cfg, out = write_cfg(tmp_path)
        write_score_set(out)
        path = os.path.join(out, f"scores_{split}.jsonl")
        lines = open(path).read().splitlines()
        lines[lineno - 1] = text
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["eval", "--config", cfg]) == 2
        assert f"scores_{split}.jsonl:{lineno}:" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "eval_summary.csv"))


class TestLogitsPriorInterchangeability:
    def test_logits_file_priors_train_like_model_priors(self, tmp_path):
        """Table-backed and model-backed priors train alike: the start of
        the loss trajectory agrees (the test below pins every byte)."""
        cfg, out = write_cfg(tmp_path)
        assert main(["train-prior", "--config", cfg]) == 0
        assert main(["train-pvit", "--config", cfg]) == 0
        model_curve = open(os.path.join(out, "pvit_loss.csv")).read().splitlines()

        logits_cfg, _ = write_cfg(tmp_path, name="logits.cfg", prior__source="logits")
        assert main(["train-pvit", "--config", logits_cfg]) == 0
        table_curve = open(os.path.join(out, "pvit_loss.csv")).read().splitlines()

        assert len(model_curve) == len(table_curve)
        for a, b in zip(model_curve[1:4], table_curve[1:4]):
            loss_a, loss_b = float(a.split(",")[3]), float(b.split(",")[3])
            assert abs(loss_a - loss_b) <= 1e-9
        assert main(["score", "--config", logits_cfg]) == 0

    def test_model_and_logits_pipelines_write_identical_artifacts(self, tmp_path):
        """Both prior sources resolve whole datasets from the same saved
        prior, so the two pipelines agree to the byte."""
        shared = {"paths__prior_checkpoint": str(tmp_path / "prior.ckpt"),
                  "paths__logits_dir": str(tmp_path / "prior_logits")}
        outs = []
        for source in ("model", "logits"):
            run_dir = tmp_path / source
            run_dir.mkdir()
            cfg, out = write_cfg(run_dir, prior__source=source, **shared)
            if source == "model":
                assert main(["train-prior", "--config", cfg]) == 0
            for command in ("train-pvit", "score", "eval"):
                assert main([command, "--config", cfg]) == 0, (source, command)
            outs.append(out)
        names = ["pvit.ckpt", "pvit_loss.csv", "eval_summary.csv"]
        names += [f"scores_{split}.jsonl" for split in SPLITS[1:]]
        names += [f for f in os.listdir(outs[0]) if f.startswith(("metrics_", "hist_"))]
        assert len(names) == 3 + 4 + 6
        for name in names:
            a, b = (open(os.path.join(out, name), "rb").read() for out in outs)
            assert a == b, name
