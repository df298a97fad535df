"""Command-line entry point.

Subcommands mirror the workflow: ``train-prior`` fits the prior
classifier, saves it and exports the saved prior's logits for every
split (``export-logits`` re-exports them from the checkpoint),
``train-pvit`` fits the transformer with per-sample prior tokens,
``score`` writes score records per dataset, ``eval`` turns them into
AUROC/FPR95 reports plus histograms, and ``attention-dump`` exports
attention matrices and the prior-token attention mass.  Priors cross
commands only as the logits files ``logits_<split>.jsonl``, read through
``_split_priors`` alone; inference runs in ``forward_batches`` of 64.

A loaded checkpoint computes in float32, the precision it is stored in:
``export-logits`` (and the export that ends ``train-prior``), ``score``
and the accuracies that end ``train-pvit`` run the saved models in
float32, while ``attention-dump`` upcasts its model to float64, and a
resumed ``train-pvit`` upcasts the checkpoint's values to the float64
master weights every training run keeps (see :mod:`pvit.train`).

Every checkpoint a command loads must agree with the config the run
would build: an image shape or prior pixel count that is not the data's
exits 2, and a field set by a config key that differs exits 1 naming the
key and both values, so a resolved configuration records what ran.

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
from .config import SCHEMA, RunConfig, keyed_fields
from .data import Dataset, load_idx, make_ood, normalize, split_dataset, synth_dataset
from .errors import ConfigError, FormatError, PvitError, ShapeError
from .metrics import evaluate, histogram_lines
from .model import PViTConfig, PViTModel
from .priors import MLPClassifier, MLPConfig, ModelSource, TableSource, export_logits, load_logits, train_prior_model
from .scoring import file_sha256, forward_batches, predict_logits, read_scores, score_column, score_records, write_scores
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
        train_images, train_labels = cfg["data.idx_train_images"], cfg["data.idx_train_labels"]
        id_train = load_idx(train_images, train_labels, name="idx-train")
        test_images = cfg["data.idx_test_images"]
        test_labels = cfg["data.idx_test_labels"] or None
        id_test = load_idx(test_images, test_labels, name="idx-test")
        if id_train.image_shape != id_test.image_shape:
            train_shape, test_shape = ("x".join(map(str, ds.image_shape)) for ds in (id_train, id_test))
            raise FormatError(f"{train_images} holds {train_shape} images but {test_images} holds "
                              f"{test_shape}; one model takes the train and test images alike")
        for path, ds in ((train_labels, id_train), (test_labels, id_test)):
            if ds.labels is not None and len(ds.labels) and ds.labels.max() >= cfg["data.classes"]:
                raise FormatError(f"{path}: label {ds.labels.max()} is outside the "
                                  f"{cfg['data.classes']} classes of data.classes")

    h, w, c = id_test.image_shape
    if h != w and {"uniform-noise", "pattern-shift"} & set(cfg["ood.kinds"]):  # only IDX images can be non-square
        raise ConfigError(f"config key 'ood.kinds': uniform-noise and pattern-shift sets are generated square, "
                          f"but {cfg['data.idx_test_images']} holds {h}x{w} images")
    datasets = {"id-train": id_train, "id-test": id_test}
    for ood_kind in cfg["ood.kinds"]:
        datasets[f"ood-{ood_kind}"] = make_ood(ood_kind, cfg["ood.count"], seed=cfg.seed_for("ood.seed"), size=h,
                                               channels=c, classes=cfg["data.classes"], source=id_test,
                                               noise_sigma=cfg["data.noise_sigma"])
    mean, std = cfg["data.normalize_mean"], cfg["data.normalize_std"]
    if mean != 0.0 or std != 1.0:
        datasets = {name: normalize(ds, mean, std) for name, ds in datasets.items()}
    return datasets


# a checkpoint config class -> its model class; the fields no config key sets come from the
# datasets: the transformer's image shape and the prior's pixel count
_MODELS = {PViTConfig: PViTModel, MLPConfig: MLPClassifier}


def _configured(cls, cfg: RunConfig, section: str = "", **unkeyed):
    """A ``cls`` whose keyed fields take their keys' values, or ``<section>.<field>``'s where
    SCHEMA has that key, and whose other fields are ``unkeyed``."""
    return cls(**{name: cfg[f"{section}.{name}" if f"{section}.{name}" in SCHEMA else key]
                  for name, key in keyed_fields(cls).items()}, **unkeyed)


def _pvit_config(cfg: RunConfig, datasets) -> PViTConfig:
    h, w, c = datasets["id-test"].image_shape
    if h % cfg["model.patch"] or w % cfg["model.patch"]:
        raise ConfigError(f"config key 'model.patch': {cfg['model.patch']} does not divide the {h}x{w} images")
    return _configured(PViTConfig, cfg, image_h=h, image_w=w, channels=c)


def _load_checked(cfg: RunConfig, path: str, wanted):
    """The model, header and leftover tensors of the checkpoint at ``path``
    once its config is ``wanted``, the PViTConfig or MLPConfig the run
    builds; commands load checkpoints here alone (see the module docstring)."""
    keys = keyed_fields(type(wanted))
    model, header, tensors = _MODELS[type(wanted)].load(path)
    shaped = [name for name in vars(wanted) if name not in keys]
    takes, given = ("x".join(str(getattr(config, name)) for name in shaped) for config in (model.config, wanted))
    if takes != given:
        source = (f"the images of data.idx_test_images ({cfg['data.idx_test_images']})"
                  if cfg["data.kind"] == "idx" else "the data (data.image_size, data.channels)")
        raise FormatError(f"{path}: the checkpoint takes {takes} inputs, but {source} give {given}")
    differ = [f"{key!r} = {getattr(wanted, name)!r} but the checkpoint has {getattr(model.config, name)!r}"
              for name, key in keys.items() if getattr(wanted, name) != getattr(model.config, name)]
    if differ:
        raise ConfigError(f"{path}: the config disagrees with the checkpoint: " + "; ".join(differ))
    return model, header, tensors


def _train_config(cfg: RunConfig, section: str) -> TrainConfig:
    """``section`` ("prior" or "train") sets each field it has a key for, ``train.*`` the others."""
    return _configured(TrainConfig, cfg, section, seed=cfg.seed_for(f"{section}.seed"))


def _ckpt_path(cfg: RunConfig, out: str, model: str) -> str:
    """Where the ``model`` ("prior" or "pvit") checkpoint is written and read."""
    return cfg[f"paths.{model}_checkpoint"] or os.path.join(out, f"{model}.ckpt")


def _logits_dir(cfg: RunConfig, out: str) -> str:
    return cfg["paths.logits_dir"] or os.path.join(out, "logits")


def _logits_path(directory: str, split: str) -> str:
    return os.path.join(directory, f"logits_{split}.jsonl")


def _scored_splits(cfg: RunConfig) -> list[str]:
    """What ``score`` writes and ``eval`` reads: id-test, then each ``ood.kinds`` set."""
    return ["id-test"] + [f"ood-{kind}" for kind in cfg["ood.kinds"]]


def _scores_path(out: str, split: str) -> str:
    return os.path.join(out, f"scores_{split}.jsonl")


def _export_all_logits(cfg: RunConfig, out: str, datasets) -> dict[str, np.ndarray]:
    """Write every split's logits file from the prior as loaded back from
    its checkpoint (float32); returns each split's (N, K) block."""
    wanted = _configured(MLPConfig, cfg, input_dim=math.prod(datasets["id-test"].image_shape))
    source = ModelSource(_load_checked(cfg, _ckpt_path(cfg, out, "prior"), wanted)[0])
    directory = _logits_dir(cfg, out)
    os.makedirs(directory, exist_ok=True)
    return {split: export_logits(source, ds, _logits_path(directory, split)) for split, ds in datasets.items()}


def _logits_table(cfg: RunConfig, directory: str, split: str) -> TableSource:
    """A split's logits file in ``directory``, parsed whole: a malformed
    line or a K other than ``data.classes`` raises FormatError naming the
    file, and a lookup of an id it lacks MissingPriorError naming it."""
    table = load_logits(_logits_path(directory, split))
    if table.num_classes != cfg["data.classes"]:
        raise FormatError(f"{table.path}: holds {table.num_classes} logits per sample, "
                          f"but data.classes is {cfg['data.classes']}")
    return table


def _split_priors(cfg: RunConfig, out: str, ids: dict[str, list[str]]) -> dict[str, np.ndarray]:
    """Each split's (N, K) prior block for its ``ids``, every logits file parsed before any id is looked up."""
    tables = {split: _logits_table(cfg, _logits_dir(cfg, out), split) for split in ids}
    return {split: table.logits_for(ids[split]) for split, table in tables.items()}


def _accuracy(logits: np.ndarray, labels: Optional[np.ndarray]) -> Optional[float]:
    """Fraction of labels the logits' argmax matches; None without labels."""
    return None if labels is None else int(np.sum(np.argmax(logits, axis=1) == labels)) / len(labels)


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
    ckpt = _ckpt_path(cfg, out, "prior")
    source.model.save(ckpt, step=result.final_step, epoch=config.epochs)
    write_artifact(os.path.join(out, "prior_loss.csv"), [loss_curve_csv(result.curve)])
    blocks = _export_all_logits(cfg, out, datasets)
    print(f"prior checkpoint: {ckpt}")
    for split in ("id-train", "id-test"):
        value = _accuracy(blocks[split], datasets[split].labels)
        print(f"prior {split} accuracy: " + ("n/a" if value is None else f"{value:.4f}"))
    for split in blocks:
        print(f"logits: {_logits_path(_logits_dir(cfg, out), split)}")


def cmd_export_logits(cfg: RunConfig, out: str) -> None:
    for split in _export_all_logits(cfg, out, build_datasets(cfg)):
        print(f"logits: {_logits_path(_logits_dir(cfg, out), split)}")


def cmd_train_pvit(cfg: RunConfig, out: str) -> None:
    datasets = build_datasets(cfg)
    config = _train_config(cfg, "train")
    wanted = _pvit_config(cfg, datasets)
    if cfg["train.resume"]:
        model, header, moments = _load_checked(cfg, cfg["train.resume"], wanted)
        state, epochs_run = OptimizerState(moments, t=header["step"]), header["epoch"]
        try:  # binding upcasts the parameters to their float64 masters
            state.bind(model.params)
        except ShapeError as exc:
            raise FormatError(f"{cfg['train.resume']}: checkpoint {exc}") from None
    else:
        model, state, epochs_run = PViTModel(wanted, seed=cfg.seed_for("model.seed")), OptimizerState(), 0
    priors = _split_priors(cfg, out, {split: datasets[split].ids for split in ("id-train", "id-test")})

    result = train(model, datasets["id-train"], priors["id-train"], config, state)
    ckpt = _ckpt_path(cfg, out, "pvit")
    model.save(ckpt, step=state.t, epoch=epochs_run + config.epochs, extra_tensors=state.moments)
    write_artifact(os.path.join(out, "pvit_loss.csv"), [loss_curve_csv(result.curve)])
    saved, _, _ = _load_checked(cfg, ckpt, wanted)  # the float32 weights that score runs, not the masters
    accuracies = {split: _accuracy(predict_logits(saved, datasets[split].images, priors[split]),
                                   datasets[split].labels) for split in priors}
    summary = {
        "checkpoint": ckpt,
        "steps": state.t,
        "alpha": model.config.alpha,
        "id_train_accuracy": accuracies["id-train"],
        "id_test_accuracy": accuracies["id-test"],
        "final_loss": result.curve[-1].loss if result.curve else None,
    }
    write_artifact(os.path.join(out, "pvit_train.json"), [json.dumps(summary, indent=2, sort_keys=True) + "\n"])
    print(f"pvit checkpoint: {ckpt}")
    for split, value in accuracies.items():
        print(f"pvit {split} accuracy: " + ("n/a" if value is None else f"{value:.4f}"))


def cmd_score(cfg: RunConfig, out: str) -> None:
    guidance = cfg["score.guidance"]
    splits = _scored_splits(cfg)
    predicted_dir = cfg["score.predicted_logits"]
    if predicted_dir:
        # no-prior-token ablation: predicted logits files stand in for model and checkpoint
        alpha = 0.0
        source_hash = hashlib.sha256(
            "".join(file_sha256(_logits_path(predicted_dir, split)) for split in splits).encode()
        ).hexdigest()
        tables = {split: _logits_table(cfg, predicted_dir, split) for split in splits}
        ids = {split: list(table.records) for split, table in tables.items()}
        predicted = {split: table.logits_for(ids[split]) for split, table in tables.items()}
        priors = _split_priors(cfg, out, ids)
    else:
        datasets = build_datasets(cfg)
        ckpt = _ckpt_path(cfg, out, "pvit")
        model, _, _ = _load_checked(cfg, ckpt, _pvit_config(cfg, datasets))
        alpha, source_hash = model.config.alpha, file_sha256(ckpt)
        ids = {split: datasets[split].ids for split in splits}
        priors = _split_priors(cfg, out, ids)
        predicted = {split: predict_logits(model, datasets[split].images, priors[split]) for split in splits}
    records = {}  # every split scored before the first file is written
    for split in splits:
        try:
            records[split] = score_records(ids[split], predicted[split], priors[split], guidance)
        except FormatError as exc:
            raise FormatError(f"{split}: {exc}") from None
    for split, split_records in records.items():
        path = _scores_path(out, split)
        write_scores(path, split_records, guidance, alpha, source_hash)
        print(f"scores: {path} ({len(split_records)} records)")


def _float_column(values: list) -> np.ndarray:
    """A score file's column as float64; a JSON integer no float64 holds reads as infinite."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        column = np.array(values, dtype=object)
        column[~(np.abs(column) <= sys.float_info.max)] = math.inf
        return column.astype(np.float64)


def _read_columns(path: str, names) -> tuple[dict, dict[str, np.ndarray]]:
    """A score file's header and its columns ``names``; FormatError naming
    the file when it holds no records, a record lacks one of the scores,
    or a score is NaN or infinite (naming the first such record)."""
    header, records = read_scores(path)
    if not records:
        raise FormatError(f"{path}: holds no score records; metrics need nonempty ID and OOD score lists")
    try:
        columns = {name: _float_column(score_column(records, name)) for name in names}
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    finite = np.logical_and.reduce([np.isfinite(column) for column in columns.values()])
    if not finite.all():
        raise FormatError(f"{path}: record {records[int(np.argmin(finite))].id!r} holds a NaN or infinite "
                          "score; metrics need finite scores")
    return header, columns


def cmd_eval(cfg: RunConfig, out: str) -> None:
    """Every score file is read and checked, and every report and
    histogram computed, before the first file is written."""
    for key in ("eval.scores", "ood.kinds"):
        if not cfg[key]:
            raise ConfigError(f"config key {key!r} is empty: eval has nothing to evaluate")
    names, ood_splits = cfg["eval.scores"], _scored_splits(cfg)[1:]
    id_path = _scores_path(out, "id-test")
    id_header, id_columns = _read_columns(id_path, names)
    ood_columns = {}
    for split in ood_splits:
        path = _scores_path(out, split)
        header, ood_columns[split] = _read_columns(path, names)
        differ = [key for key in ("guidance", "alpha", "checkpoint_sha256") if header.get(key) != id_header.get(key)]
        if differ:
            raise FormatError(f"{path} and {id_path} disagree on {', '.join(differ)}: "
                              "eval compares scores of one checkpoint, guidance and alpha")
    reports = {(split, name): (evaluate(id_columns[name], ood_columns[split][name], name, cfg["eval.orientation"]),
                               histogram_lines(id_columns[name], ood_columns[split][name], cfg["eval.bins"]))
               for split in ood_splits for name in names}

    summary = ["ood_dataset,score,auroc,fpr95,threshold,orientation"]
    for (split, score_name), (metrics, histogram) in reports.items():
        write_artifact(os.path.join(out, f"metrics_{split}_{score_name}.json"), [metrics.to_json()])
        write_artifact(os.path.join(out, f"hist_{split}_{score_name}.csv"), histogram)
        summary.append(f"{split},{score_name},{metrics.auroc!r},{metrics.fpr95!r},"
                       f"{metrics.threshold!r},{metrics.orientation}")
        print(
            f"{split:24s} {score_name:10s} auroc={metrics.auroc:.4f} "
            f"fpr95={metrics.fpr95:.4f} threshold={metrics.threshold:.4f} ({metrics.orientation})"
        )
    write_artifact(os.path.join(out, "eval_summary.csv"), [line + "\n" for line in summary])


def cmd_attention_dump(cfg: RunConfig, out: str) -> None:
    """RELATIONS keep ``attention.*`` within the config's model and datasets, which the checkpoint matches."""
    if cfg["model.depth"] == 0:
        raise ConfigError("config key 'model.depth': a model of 0 layers has no attention map to dump")
    datasets = build_datasets(cfg)
    split = cfg["attention.dataset"]
    ds = datasets[split]
    model, _, _ = _load_checked(cfg, _ckpt_path(cfg, out, "pvit"), _pvit_config(cfg, datasets))
    for p in model.params.values():  # the dumped maps are float64, their rows summing to 1 within 1e-9
        p.data = p.data.astype(np.float64)
    layer, head = cfg["attention.layer"] % cfg["model.depth"], cfg["attention.head"]
    alphas = cfg["attention.alphas"] or [model.config.alpha]
    count = min(cfg["attention.max_samples"], len(ds))
    ids, priors = ds.ids[:count], _split_priors(cfg, out, {split: ds.ids})[split][:count]
    attn_dir = os.path.join(out, "attention")
    os.makedirs(attn_dir, exist_ok=True)
    summary = ["alpha,sample_id,layer,head,prior_token_mass"]
    for alpha in alphas:
        for rows, outputs in forward_batches(model, ds.images[:count], priors, alpha):
            matrices = outputs.attentions[layer][:, head]
            row_format = ",".join(["%.18e"] * matrices.shape[-1]) + "\n"  # np.savetxt's default
            for sid, matrix, mass in zip(ids[rows], matrices, matrices[:, 0, -1].tolist()):
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
        write_artifact(os.path.join(out, f"{args.command}.resolved.cfg"), [cfg.resolved_text()])
        return 0
    except ConfigError as exc:
        print(f"pvit: usage error: {exc}", file=sys.stderr)
        return 1
    except (PvitError, OSError, MemoryError) as exc:  # MemoryError: sizes past the machine's memory
        print(f"pvit: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
