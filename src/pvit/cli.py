"""Command-line entry point.

Subcommands mirror the workflow: ``train-prior`` fits the prior
classifier, saves it and exports the saved prior's logits for every
split (``export-logits`` re-exports them from the checkpoint),
``train-pvit`` fits the transformer with per-sample prior tokens,
``score`` writes score records per dataset, ``eval`` turns them into
AUROC/FPR95 reports plus histograms, and ``attention-dump`` exports
attention matrices and the prior-token attention mass.  Priors cross
commands only as the logits files ``logits_<split>.jsonl``.

Exit codes: 0 success, 1 usage/config error, 2 data or format error.
All outputs are plain text (JSONL / CSV / JSON), each replaced
atomically; every command writes its fully-resolved configuration next
to its outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .artifacts import write_artifact
from .config import RunConfig
from .data import Dataset, load_idx, make_ood, normalize, split_dataset, synth_dataset
from .errors import ConfigError, FormatError, MissingPriorError, PvitError, ShapeError
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
from .scoring import file_sha256, predict_logits, read_scores, score_dataset, score_field, score_records, write_scores
from .train import OptimizerState, TrainConfig, loss_curve_csv, train


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
    cfg = RunConfig.load(args.config, overrides)  # a value breaking a SCHEMA rule or RELATIONS fails here
    out = cfg["out.dir"]
    os.makedirs(out, exist_ok=True)
    return cfg, out


def _write_resolved(cfg: RunConfig, out: str, command: str) -> None:
    write_artifact(os.path.join(out, f"{command}.resolved.cfg"), [cfg.resolved_text()])


# ---------------------------------------------------------------------------
# dataset and model construction from config


def build_datasets(cfg: RunConfig) -> dict[str, Dataset]:
    """id-train, id-test and the configured OOD sets, ready for any command."""
    if cfg["data.kind"] == "synth":
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
    else:
        train_images = cfg.require_path("data.idx_train_images")
        train_labels = cfg.require_path("data.idx_train_labels")
        id_train = load_idx(train_images, train_labels, name="idx-train")
        test_labels = cfg["data.idx_test_labels"] or None
        id_test = load_idx(cfg.require_path("data.idx_test_images"), test_labels, name="idx-test")
        for path, ds in ((train_labels, id_train), (test_labels, id_test)):
            if ds.labels is not None and len(ds.labels) and ds.labels.max() >= cfg["data.classes"]:
                raise FormatError(f"{path}: label {ds.labels.max()} is outside the "
                                  f"{cfg['data.classes']} classes of data.classes")

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


# PViTConfig field -> the config key that sets it; the image shape comes from the datasets
_MODEL_KEYS = {"patch_size": "model.patch", "embed_dim": "model.dim", "depth": "model.depth",
               "heads": "model.heads", "mlp_dim": "model.mlp_dim", "num_classes": "data.classes",
               "alpha": "model.alpha"}


def _pvit_config(cfg: RunConfig, datasets) -> PViTConfig:
    h, w, c = datasets["id-test"].image_shape
    if h % cfg["model.patch"] or w % cfg["model.patch"]:
        raise ConfigError(f"config key 'model.patch': {cfg['model.patch']} does not divide the {h}x{w} images")
    return PViTConfig(**{name: cfg[key] for name, key in _MODEL_KEYS.items()}, image_h=h, image_w=w, channels=c)


def _train_config(cfg: RunConfig, prefix: str) -> TrainConfig:
    names = ("epochs", "batch_size", "base_lr", "warmup_epochs", "weight_decay")
    return TrainConfig(**{name: cfg[f"{prefix}.{name}"] for name in names}, beta1=cfg["train.beta1"],
                       beta2=cfg["train.beta2"], seed=cfg.seed_for(f"{prefix}.seed"))


def _prior_ckpt_path(cfg: RunConfig, out: str) -> str:
    return cfg["paths.prior_checkpoint"] or os.path.join(out, "prior.ckpt")


def _pvit_ckpt_path(cfg: RunConfig, out: str) -> str:
    return cfg["paths.pvit_checkpoint"] or os.path.join(out, "pvit.ckpt")


def _logits_dir(cfg: RunConfig, out: str) -> str:
    return cfg["paths.logits_dir"] or os.path.join(out, "logits")


def _logits_path(directory: str, split: str) -> str:
    return os.path.join(directory, f"logits_{split}.jsonl")


def _logits_priors(cfg: RunConfig, out: str, splits) -> TableSource:
    """The splits' priors as their logits files hold them, the one way
    priors reach a command other than train-prior and export-logits."""
    tables = [load_logits(_logits_path(_logits_dir(cfg, out), split)) for split in splits]
    merged = {sid: record for table in tables for sid, record in table.records.items()}
    return TableSource(records=merged, num_classes=tables[0].num_classes, name="logits-files")


def _export_all_logits(cfg: RunConfig, out: str, datasets) -> tuple[ModelSource, list[str]]:
    """Write every split's logits file from the prior as loaded back from
    its checkpoint (float32); returns that prior and the files written."""
    ckpt = _prior_ckpt_path(cfg, out)
    source = ModelSource(MLPClassifier.load(ckpt))
    pixels = math.prod(datasets["id-test"].image_shape)
    if source.model.config.input_dim != pixels:
        raise FormatError(f"{ckpt}: the prior takes {source.model.config.input_dim} pixels per image, but "
                          f"data.image_size and data.channels give {pixels}")
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
    source.model.save(ckpt, step=result.final_step)
    write_artifact(os.path.join(out, "prior_loss.csv"), [loss_curve_csv(result.curve)])
    saved, written = _export_all_logits(cfg, out, datasets)
    train_acc = accuracy(saved, datasets["id-train"])
    test_acc = accuracy(saved, datasets["id-test"]) if datasets["id-test"].labels is not None else float("nan")
    print(f"prior checkpoint: {ckpt}")
    print(f"prior id-train accuracy: {train_acc:.4f}")
    print(f"prior id-test accuracy: {test_acc:.4f}")
    for path in written:
        print(f"logits: {path}")


def cmd_export_logits(cfg: RunConfig, out: str) -> None:
    _, written = _export_all_logits(cfg, out, build_datasets(cfg))
    for path in written:
        print(f"logits: {path}")


def _check_images(model: PViTModel, path: str, datasets) -> None:
    """A FormatError naming ``path`` unless ``model`` takes the datasets' images."""
    takes = (model.config.image_h, model.config.image_w, model.config.channels)
    given = datasets["id-test"].image_shape
    if takes != given:
        raise FormatError(f"{path}: the model takes {'x'.join(map(str, takes))} images, but the data's are "
                          f"{'x'.join(map(str, given))}")


def _resumed(path: str) -> tuple[PViTModel, OptimizerState]:
    """The model and training state a ``train.resume`` checkpoint holds:
    its ``step`` is the state's ``t``, a non-negative integer, and its
    tensors past the parameters are the state's moments, ``opt.m.<param>``
    and ``opt.v.<param>`` pairs each shaped like its parameter."""
    model, header, moments = PViTModel.load(path)
    step = header.get("step")
    if type(step) is not int or step < 0:
        raise FormatError(f"{path}: checkpoint key 'step' must be a non-negative integer, got {step!r}")
    shapes = {f"opt.{kind}.{name}": p.shape for name, p in model.params.items() for kind in "mv"}
    for key, moment in moments.items():
        if key not in shapes:
            raise FormatError(f"{path}: checkpoint tensor {key!r} is not an opt.m./opt.v. moment of a parameter")
        if moment.shape != shapes[key]:
            raise FormatError(f"{path}: checkpoint tensor {key!r} has shape {moment.shape}, "
                              f"its parameter {shapes[key]}")
        partner = ("opt.v." if key.startswith("opt.m.") else "opt.m.") + key[len("opt.m."):]
        if partner not in moments:
            raise FormatError(f"{path}: checkpoint tensor {key!r} has no partner {partner!r}")
    return model, OptimizerState(moments=moments, t=step)


def cmd_train_pvit(cfg: RunConfig, out: str) -> None:
    datasets = build_datasets(cfg)
    config = _train_config(cfg, "train")
    if cfg["train.resume"]:
        model, state = _resumed(cfg["train.resume"])
        _check_images(model, cfg["train.resume"], datasets)
        differ = [f"{key!r} = {cfg[key]!r} but the checkpoint has {getattr(model.config, name)!r}"
                  for name, key in _MODEL_KEYS.items() if cfg[key] != getattr(model.config, name)]
        if differ:
            raise ConfigError(f"{cfg['train.resume']}: the config disagrees with the checkpoint it resumes: "
                              + "; ".join(differ))
    else:
        model = PViTModel(_pvit_config(cfg, datasets), seed=cfg.seed_for("model.seed"))
        state = OptimizerState()
    prior = _logits_priors(cfg, out, ["id-train", "id-test"])

    result = train(model, datasets["id-train"], prior, config, state)
    ckpt = _pvit_ckpt_path(cfg, out)
    model.save(ckpt, step=state.t, epoch=config.epochs, extra_tensors=state.moments)
    write_artifact(os.path.join(out, "pvit_loss.csv"), [loss_curve_csv(result.curve)])

    def id_accuracy(split: str):
        ds = datasets[split]
        if ds.labels is None:
            return None
        predicted, _ = predict_logits(model, prior, ds)
        return int(np.sum(np.argmax(predicted, axis=1) == ds.labels)) / len(ds)

    summary = {
        "checkpoint": ckpt,
        "steps": state.t,
        "alpha": model.config.alpha,
        "id_train_accuracy": id_accuracy("id-train"),
        "id_test_accuracy": id_accuracy("id-test"),
        "final_loss": result.curve[-1].loss if result.curve else None,
    }
    write_artifact(os.path.join(out, "pvit_train.json"), [json.dumps(summary, indent=2, sort_keys=True) + "\n"])
    print(f"pvit checkpoint: {ckpt}")
    for split in ("id-train", "id-test"):
        value = summary[f"{split.replace('-', '_')}_accuracy"]
        print(f"pvit {split} accuracy: " + ("n/a" if value is None else f"{value:.4f}"))


def cmd_score(cfg: RunConfig, out: str) -> None:
    guidance = cfg["score.guidance"]
    splits = ["id-test"] + [f"ood-{kind}" for kind in cfg["ood.kinds"]]
    predicted_dir = cfg["score.predicted_logits"]
    if predicted_dir:
        # no-prior-token ablation: predicted logits files stand in for model and checkpoint
        alpha = 0.0
        source_hash = hashlib.sha256(
            "".join(file_sha256(_logits_path(predicted_dir, split)) for split in splits).encode()
        ).hexdigest()

        def score(split: str):
            path = _logits_path(predicted_dir, split)
            table = load_logits(path)
            ids = list(table.records)
            try:
                return score_records(ids, table.logits_for(ids), prior.logits_for(ids), guidance)
            except (MissingPriorError, ShapeError) as exc:
                raise type(exc)(f"{path}: {exc}") from None
    else:
        datasets = build_datasets(cfg)
        ckpt = _pvit_ckpt_path(cfg, out)
        model, _, _ = PViTModel.load(ckpt)
        _check_images(model, ckpt, datasets)
        alpha, source_hash = model.config.alpha, file_sha256(ckpt)

        def score(split: str):
            return score_dataset(model, prior, datasets[split], guidance)
    prior = _logits_priors(cfg, out, splits)
    for split in splits:
        records = score(split)
        path = os.path.join(out, f"scores_{split}.jsonl")
        write_scores(path, records, guidance, alpha, source_hash)
        print(f"scores: {path} ({len(records)} records)")


def cmd_eval(cfg: RunConfig, out: str) -> None:
    def read_columns(path: str) -> tuple[dict, dict[str, np.ndarray]]:
        """A score file's header and its ``eval.scores`` columns."""
        header, records = read_scores(path)
        try:
            return header, {name: np.array([score_field(r, name) for r in records], dtype=np.float64)
                            for name in cfg["eval.scores"]}
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None

    id_path = os.path.join(out, "scores_id-test.jsonl")
    id_header, id_columns = read_columns(id_path)
    ood_sets = {}
    for kind in cfg["ood.kinds"]:
        path = os.path.join(out, f"scores_ood-{kind}.jsonl")
        header, ood_sets[f"ood-{kind}"] = read_columns(path)
        differ = [key for key in ("guidance", "alpha", "checkpoint_sha256") if header.get(key) != id_header.get(key)]
        if differ:
            raise FormatError(f"{path} and {id_path} disagree on {', '.join(differ)}: "
                              "eval compares scores of one checkpoint, guidance and alpha")

    summary = ["ood_dataset,score,auroc,fpr95,threshold,orientation"]
    for split, ood_columns in ood_sets.items():
        for score_name in cfg["eval.scores"]:
            ids, oods = id_columns[score_name], ood_columns[score_name]
            metrics = evaluate(ids, oods, score_name, cfg["eval.orientation"])
            metrics_path = os.path.join(out, f"metrics_{split}_{score_name}.json")
            write_artifact(metrics_path, [metrics.to_json()])
            histogram_export(ids, oods, cfg["eval.bins"], os.path.join(out, f"hist_{split}_{score_name}.csv"))
            summary.append(f"{split},{score_name},{metrics.auroc!r},{metrics.fpr95!r},"
                           f"{metrics.threshold!r},{metrics.orientation}")
            print(
                f"{split:24s} {score_name:10s} auroc={metrics.auroc:.4f} "
                f"fpr95={metrics.fpr95:.4f} threshold={metrics.threshold:.4f} ({metrics.orientation})"
            )
    write_artifact(os.path.join(out, "eval_summary.csv"), [line + "\n" for line in summary])


def cmd_attention_dump(cfg: RunConfig, out: str) -> None:
    datasets = build_datasets(cfg)
    split = cfg["attention.dataset"]
    if split not in datasets:
        raise ConfigError(f"config key 'attention.dataset': no dataset named {split!r}")
    ds = datasets[split]
    ckpt = _pvit_ckpt_path(cfg, out)
    model, _, _ = PViTModel.load(ckpt)
    _check_images(model, ckpt, datasets)
    depth, heads = model.config.depth, model.config.heads
    layer = cfg["attention.layer"]
    if not -depth <= layer < depth:
        raise ConfigError(f"config key 'attention.layer': {layer} is outside the model's {depth} layers")
    layer %= depth
    head = cfg["attention.head"]
    if not 0 <= head < heads:
        raise ConfigError(f"config key 'attention.head': {head} is outside the model's {heads} heads")
    prior = _logits_priors(cfg, out, [split])
    alphas = cfg["attention.alphas"] or [model.config.alpha]
    count = min(cfg["attention.max_samples"], len(ds))
    attn_dir = os.path.join(out, "attention")
    os.makedirs(attn_dir, exist_ok=True)
    priors = prior.resolve(ds)[:count]
    summary = ["alpha,sample_id,layer,head,prior_token_mass"]
    for alpha in alphas:
        outputs = model.forward_batch(ds.images[:count], priors, alpha, want_attention=True)
        matrices, masses = extract_attention(outputs, layer, head)
        row_format = ",".join(["%.18e"] * matrices.shape[-1]) + "\n"  # np.savetxt's default
        for sid, matrix, mass in zip(ds.ids[:count], matrices, masses.tolist()):
            name = f"{sid}_alpha{alpha!r}_L{layer}H{head}.csv"
            write_artifact(os.path.join(attn_dir, name), [row_format % tuple(row) for row in matrix])
            summary.append(f"{alpha!r},{sid},{layer},{head},{mass!r}")
    summary_path = os.path.join(out, "attention_summary.csv")
    write_artifact(summary_path, [line + "\n" for line in summary])
    print(f"attention matrices: {attn_dir} ({count} samples x {len(alphas)} alphas)")
    print(f"attention summary: {summary_path}")


COMMANDS = {
    "train-prior": cmd_train_prior,
    "train-pvit": cmd_train_pvit,
    "score": cmd_score,
    "eval": cmd_eval,
    "attention-dump": cmd_attention_dump,
    "export-logits": cmd_export_logits,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        cfg, out = _resolve(args)
        COMMANDS[args.command](cfg, out)
        _write_resolved(cfg, out, args.command)
        return 0
    except ConfigError as exc:
        print(f"pvit: usage error: {exc}", file=sys.stderr)
        return 1
    except (PvitError, OSError) as exc:
        print(f"pvit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
