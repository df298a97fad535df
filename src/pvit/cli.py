"""Command-line entry point.

Subcommands mirror the workflow: ``train-prior`` fits the prior
classifier, saves it and exports the saved prior's logits for every
split, ``train-pvit`` fits the transformer with per-sample prior
tokens, ``score`` writes score records per dataset, ``eval`` turns
them into AUROC/FPR95 reports plus histograms, ``attention-dump``
exports attention matrices and the prior-token attention mass, and
``export-logits`` re-exports logits from a saved prior checkpoint.

Exit codes: 0 success, 1 usage/config error, 2 data or format error.
All outputs are plain text (JSONL / CSV / JSON); every command writes
its fully-resolved configuration next to its outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import Optional

import numpy as np

from .config import RunConfig
from .data import Dataset, load_idx, make_ood, normalize, split_dataset, synth_dataset
from .errors import ConfigError, FormatError, PvitError
from .metrics import evaluate, histogram_export
from .model import PViTConfig, PViTModel, extract_attention
from .priors import (
    MLPClassifier,
    ModelSource,
    TableSource,
    accuracy,
    export_logits,
    load_logits,
    train_prior_model,
)
from .scoring import (
    file_sha256, predict_logits, read_scores, score_dataset, score_field, score_records, write_scores,
)
from .train import TrainConfig, loss_curve_csv, train

COMMANDS = ("train-prior", "train-pvit", "score", "eval", "attention-dump", "export-logits")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="pvit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="run configuration file (key = value lines)")
    common.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
    common.add_argument("--out", metavar="DIR", help="override the output directory")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in COMMANDS:
        subs.add_parser(name, parents=[common])
    return parser


def _resolve(args) -> tuple[RunConfig, str]:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = int(args.seed)
    if args.out is not None:
        overrides["out.dir"] = args.out
    cfg = RunConfig.load(args.config, overrides)
    out = cfg["out.dir"]
    os.makedirs(out, exist_ok=True)
    return cfg, out


def _write_resolved(cfg: RunConfig, out: str, command: str) -> None:
    with open(os.path.join(out, f"{command}.resolved.cfg"), "w", encoding="utf-8") as fh:
        fh.write(cfg.resolved_text())


# ---------------------------------------------------------------------------
# dataset and model construction from config


def build_datasets(cfg: RunConfig) -> dict[str, Dataset]:
    """id-train, id-test and the configured OOD sets, ready for any command."""
    kind = cfg["data.kind"]
    if kind == "synth":
        combined = synth_dataset(
            classes=cfg["data.classes"],
            per_class=cfg["data.train_per_class"] + cfg["data.test_per_class"],
            size=cfg["data.image_size"],
            channels=cfg["data.channels"],
            noise_sigma=cfg["data.noise_sigma"],
            seed=cfg.seed_for("data.seed"),
            name="synth",
        )
        train_count = cfg["data.classes"] * cfg["data.train_per_class"]
        id_train, id_test = split_dataset(combined, train_count, seed=cfg.seed_for("data.split_seed"))
    elif kind == "idx":
        id_train = load_idx(
            cfg.require_path("data.idx_train_images"),
            cfg.require_path("data.idx_train_labels"),
            name="idx-train",
        )
        labels_path = cfg["data.idx_test_labels"] or None
        id_test = load_idx(cfg.require_path("data.idx_test_images"), labels_path, name="idx-test")
        id_train.role, id_test.role = "ID-train", "ID-test"
    else:
        raise ConfigError(f"config key 'data.kind': unknown kind {kind!r} (synth or idx)")

    h, w, c = id_test.image_shape
    datasets = {"id-train": id_train, "id-test": id_test}
    for ood_kind in cfg["ood.kinds"]:
        datasets[f"ood-{ood_kind}"] = make_ood(
            ood_kind,
            cfg["ood.count"],
            seed=cfg.seed_for("ood.seed"),
            size=h,
            channels=c,
            classes=cfg["data.classes"],
            source=id_test,
        )
    mean, std = cfg["data.normalize_mean"], cfg["data.normalize_std"]
    if mean != 0.0 or std != 1.0:
        datasets = {name: normalize(ds, mean, std) for name, ds in datasets.items()}
    return datasets


def _pvit_config(cfg: RunConfig, datasets) -> PViTConfig:
    h, w, c = datasets["id-test"].image_shape
    return PViTConfig(
        image_h=h,
        image_w=w,
        channels=c,
        patch_size=cfg["model.patch"],
        embed_dim=cfg["model.dim"],
        depth=cfg["model.depth"],
        heads=cfg["model.heads"],
        mlp_dim=cfg["model.mlp_dim"],
        num_classes=cfg["data.classes"],
        alpha=cfg["model.alpha"],
    )


def _train_config(cfg: RunConfig, prefix: str) -> TrainConfig:
    return TrainConfig(
        epochs=cfg[f"{prefix}.epochs"],
        batch_size=cfg[f"{prefix}.batch_size"],
        base_lr=cfg[f"{prefix}.base_lr"],
        warmup_epochs=cfg[f"{prefix}.warmup_epochs"],
        beta1=cfg["train.beta1"],
        beta2=cfg["train.beta2"],
        weight_decay=cfg[f"{prefix}.weight_decay"],
        seed=cfg.seed_for(f"{prefix}.seed"),
    )


def _prior_ckpt_path(cfg: RunConfig, out: str) -> str:
    return cfg["paths.prior_checkpoint"] or os.path.join(out, "prior.ckpt")


def _pvit_ckpt_path(cfg: RunConfig, out: str) -> str:
    return cfg["paths.pvit_checkpoint"] or os.path.join(out, "pvit.ckpt")


def _logits_dir(cfg: RunConfig, out: str) -> str:
    return cfg["paths.logits_dir"] or os.path.join(out, "logits")


def _logits_path(directory: str, split: str) -> str:
    return os.path.join(directory, f"logits_{split}.jsonl")


def _prior_source(cfg: RunConfig, out: str, splits) -> TableSource | ModelSource:
    """Model-backed or logits-file-backed priors, bitwise interchangeable:
    each logits file holds what the saved prior resolves its split to."""
    if cfg["prior.source"] == "model":
        return ModelSource(MLPClassifier.load(_prior_ckpt_path(cfg, out)))
    if cfg["prior.source"] != "logits":
        raise ConfigError(f"config key 'prior.source': expected model or logits, got {cfg['prior.source']!r}")
    tables = [load_logits(_logits_path(_logits_dir(cfg, out), split)) for split in splits]
    merged = {sid: record for table in tables for sid, record in table.records.items()}
    return TableSource(records=merged, num_classes=tables[0].num_classes, name="logits-files")


def _export_all_logits(cfg: RunConfig, out: str, datasets) -> tuple[ModelSource, list[str]]:
    """Write every split's logits file from the prior as saved in its
    checkpoint, float32, not from float64 weights still in memory, so the
    files hold what a model-backed source resolves; returns that prior
    and the files written."""
    source = ModelSource(MLPClassifier.load(_prior_ckpt_path(cfg, out)))
    os.makedirs(_logits_dir(cfg, out), exist_ok=True)
    written = [_logits_path(_logits_dir(cfg, out), split) for split in datasets]
    for path, ds in zip(written, datasets.values()):
        export_logits(source, ds, path)
    return source, written


# ---------------------------------------------------------------------------
# commands


def cmd_train_prior(cfg: RunConfig, out: str) -> None:
    datasets = build_datasets(cfg)
    config = _train_config(cfg, "prior")
    source, result = train_prior_model(
        datasets["id-train"],
        config,
        hidden_dim=cfg["prior.hidden"],
        seed=cfg.seed_for("prior.seed"),
        num_classes=cfg["data.classes"],
    )
    ckpt = _prior_ckpt_path(cfg, out)
    source.model.save(ckpt, step=result.final_step if result else 0)
    if result is not None:
        with open(os.path.join(out, "prior_loss.csv"), "w", encoding="utf-8") as fh:
            fh.write(loss_curve_csv(result.curve))
    saved, written = _export_all_logits(cfg, out, datasets)
    train_acc = accuracy(saved, datasets["id-train"])
    test_acc = accuracy(saved, datasets["id-test"]) if datasets["id-test"].labels is not None else float("nan")
    _write_resolved(cfg, out, "train-prior")
    print(f"prior checkpoint: {ckpt}")
    print(f"prior id-train accuracy: {train_acc:.4f}")
    print(f"prior id-test accuracy: {test_acc:.4f}")
    for path in written:
        print(f"logits: {path}")


def cmd_export_logits(cfg: RunConfig, out: str) -> None:
    _, written = _export_all_logits(cfg, out, build_datasets(cfg))
    _write_resolved(cfg, out, "export-logits")
    for path in written:
        print(f"logits: {path}")


def cmd_train_pvit(cfg: RunConfig, out: str) -> None:
    datasets = build_datasets(cfg)
    prior = _prior_source(cfg, out, ["id-train", "id-test"])
    config = _train_config(cfg, "train")
    start_step = 0
    optimizer_tensors: dict[str, np.ndarray] = {}
    if cfg["train.resume"]:
        model, header, extra = PViTModel.load(cfg["train.resume"])
        start_step = int(header.get("step", 0))
        optimizer_tensors = extra
    else:
        model = PViTModel(_pvit_config(cfg, datasets), seed=cfg.seed_for("model.seed"))

    result = train(model, datasets["id-train"], prior, config, start_step=start_step,
                   optimizer_tensors=optimizer_tensors)
    ckpt = _pvit_ckpt_path(cfg, out)
    model.save(ckpt, step=result.final_step, epoch=config.epochs,
               extra_tensors=result.optimizer_tensors)
    with open(os.path.join(out, "pvit_loss.csv"), "w", encoding="utf-8") as fh:
        fh.write(loss_curve_csv(result.curve))

    def id_accuracy(split: str):
        ds = datasets[split]
        if ds.labels is None:
            return None
        predicted, _ = predict_logits(model, prior, ds)
        return int(np.sum(np.argmax(predicted, axis=1) == ds.labels)) / len(ds)

    summary = {
        "checkpoint": ckpt,
        "steps": result.final_step,
        "alpha": model.config.alpha,
        "id_train_accuracy": id_accuracy("id-train"),
        "id_test_accuracy": id_accuracy("id-test"),
        "final_loss": result.curve[-1].loss if result.curve else None,
    }
    with open(os.path.join(out, "pvit_train.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_resolved(cfg, out, "train-pvit")
    print(f"pvit checkpoint: {ckpt}")
    for split in ("id-train", "id-test"):
        value = summary[f"{split.replace('-', '_')}_accuracy"]
        print(f"pvit {split} accuracy: " + ("n/a" if value is None else f"{value:.4f}"))


def _score_splits(cfg: RunConfig) -> list[str]:
    return ["id-test"] + [f"ood-{kind}" for kind in cfg["ood.kinds"]]


def cmd_score(cfg: RunConfig, out: str) -> None:
    guidance = cfg["score.guidance"]
    splits = _score_splits(cfg)
    predicted_dir = cfg["score.predicted_logits"]
    if predicted_dir:
        # no-prior-token ablation: pair two logits files per split, no model;
        # the predicted logits files together stand in for the checkpoint
        prior_dir = _logits_dir(cfg, out)
        source_hash = hashlib.sha256(
            "".join(file_sha256(_logits_path(predicted_dir, split)) for split in splits).encode()
        ).hexdigest()
        for split in splits:
            predicted = load_logits(_logits_path(predicted_dir, split))
            prior = load_logits(_logits_path(prior_dir, split))
            ids = list(predicted.records)
            records = score_records(ids, predicted.logits_for(ids), prior.logits_for(ids), guidance)
            path = os.path.join(out, f"scores_{split}.jsonl")
            write_scores(path, records, guidance, 0.0, source_hash)
            print(f"scores: {path} ({len(records)} records)")
        _write_resolved(cfg, out, "score")
        return

    datasets = build_datasets(cfg)
    ckpt = _pvit_ckpt_path(cfg, out)
    model, _, _ = PViTModel.load(ckpt)
    ckpt_hash = file_sha256(ckpt)
    prior = _prior_source(cfg, out, splits)
    for split in splits:
        records = score_dataset(model, prior, datasets[split], guidance)
        path = os.path.join(out, f"scores_{split}.jsonl")
        write_scores(path, records, guidance, model.config.alpha, ckpt_hash)
        print(f"scores: {path} ({len(records)} records)")
    _write_resolved(cfg, out, "score")


def cmd_eval(cfg: RunConfig, out: str) -> None:
    id_path = os.path.join(out, "scores_id-test.jsonl")
    id_header, id_records = read_scores(id_path)
    ood_sets = {}
    for kind in cfg["ood.kinds"]:
        path = os.path.join(out, f"scores_ood-{kind}.jsonl")
        header, ood_sets[f"ood-{kind}"] = read_scores(path)
        differ = [key for key in ("guidance", "alpha", "checkpoint_sha256") if header.get(key) != id_header.get(key)]
        if differ:
            raise FormatError(f"{path} and {id_path} disagree on {', '.join(differ)}: "
                              "eval compares scores of one checkpoint, guidance and alpha")

    def columns(records) -> dict[str, np.ndarray]:
        return {name: np.array([score_field(r, name) for r in records], dtype=np.float64)
                for name in cfg["eval.scores"]}

    id_columns = columns(id_records)
    rows = []
    for split, ood_records in ood_sets.items():
        ood_columns = columns(ood_records)
        for score_name in cfg["eval.scores"]:
            ids, oods = id_columns[score_name], ood_columns[score_name]
            metrics = evaluate(ids, oods, score_name, cfg["eval.orientation"])
            metrics_path = os.path.join(out, f"metrics_{split}_{score_name}.json")
            with open(metrics_path, "w", encoding="utf-8") as fh:
                fh.write(metrics.to_json())
            histogram_export(ids, oods, cfg["eval.bins"], os.path.join(out, f"hist_{split}_{score_name}.csv"))
            rows.append((split, score_name, metrics))
            print(
                f"{split:24s} {score_name:10s} auroc={metrics.auroc:.4f} "
                f"fpr95={metrics.fpr95:.4f} threshold={metrics.threshold:.4f} ({metrics.orientation})"
            )
    with open(os.path.join(out, "eval_summary.csv"), "w", encoding="utf-8") as fh:
        fh.write("ood_dataset,score,auroc,fpr95,threshold,orientation\n")
        for split, score_name, metrics in rows:
            fh.write(
                f"{split},{score_name},{metrics.auroc!r},{metrics.fpr95!r},"
                f"{metrics.threshold!r},{metrics.orientation}\n"
            )
    _write_resolved(cfg, out, "eval")


def cmd_attention_dump(cfg: RunConfig, out: str) -> None:
    datasets = build_datasets(cfg)
    split = cfg["attention.dataset"]
    if split not in datasets:
        raise ConfigError(f"config key 'attention.dataset': no dataset named {split!r}")
    ds = datasets[split]
    model, _, _ = PViTModel.load(_pvit_ckpt_path(cfg, out))
    prior = _prior_source(cfg, out, [split])
    layer = cfg["attention.layer"]
    if layer < 0:
        layer = model.config.depth + layer
    head = cfg["attention.head"]
    alphas = cfg["attention.alphas"] or [model.config.alpha]
    count = min(cfg["attention.max_samples"], len(ds))
    attn_dir = os.path.join(out, "attention")
    os.makedirs(attn_dir, exist_ok=True)
    priors = prior.resolve(ds)[:count]
    summary = ["alpha,sample_id,layer,head,prior_token_mass"]
    for alpha in alphas:
        outputs = model.forward_batch(ds.images[:count], priors, alpha, want_attention=True)
        matrices, masses = extract_attention(outputs, layer, head)
        for sid, matrix, mass in zip(ds.ids[:count], matrices, masses.tolist()):
            name = f"{sid}_alpha{alpha!r}_L{layer}H{head}.csv"
            np.savetxt(os.path.join(attn_dir, name), matrix, delimiter=",")
            summary.append(f"{alpha!r},{sid},{layer},{head},{mass!r}")
    summary_path = os.path.join(out, "attention_summary.csv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary) + "\n")
    _write_resolved(cfg, out, "attention-dump")
    print(f"attention matrices: {attn_dir} ({count} samples x {len(alphas)} alphas)")
    print(f"attention summary: {summary_path}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        cfg, out = _resolve(args)
        handler = {
            "train-prior": cmd_train_prior,
            "train-pvit": cmd_train_pvit,
            "score": cmd_score,
            "eval": cmd_eval,
            "attention-dump": cmd_attention_dump,
            "export-logits": cmd_export_logits,
        }[args.command]
        handler(cfg, out)
        return 0
    except ConfigError as exc:
        print(f"pvit: usage error: {exc}", file=sys.stderr)
        return 1
    except (PvitError, OSError) as exc:
        print(f"pvit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
