"""The three benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs one
user-facing phase of pvit in ``operate`` and verifies the phase's
outputs in ``check``.  Only pvit's public API is called; timing hooks
go through the injection points that API already has: the duck-typed
``trainable``, ``priors_for`` and ``on_step`` of ``run_training`` and
the duck-typed ``model`` of ``score_dataset``.

``time_layers`` times single layer calls at the workload's own shapes, for
calls that pvit makes internally and the benchmark cannot wrap
(``backward`` and ``adam_step`` inside ``run_training``,
``priors_for_indices`` inside ``score_dataset``, ``auroc`` and
``fpr_at_tpr`` inside ``evaluate``).  It runs in the traced run only.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.stats import mannwhitneyu

from pvit import (
    MLPClassifier,
    ModelSource,
    OptimizerState,
    PViTConfig,
    PViTModel,
    ScoreRecord,
    TableSource,
    Tape,
    TrainConfig,
    adam_step,
    auroc,
    backward,
    evaluate,
    export_logits,
    fpr_at_tpr,
    histogram_export,
    load_logits,
    make_ood,
    score_dataset,
    split_dataset,
    synth_dataset,
    train_prior_model,
)
from pvit.priors import MLPConfig, priors_for_indices
from pvit.scoring import file_sha256, read_scores, score_field, write_scores
from pvit.train import run_training

from .clock import LapClock
from .trace import Tracer

# the acceptance desk configuration: 28x28, patch 7, dim 64, 4 layers,
# 4 heads, MLP 128, K=4, alpha=0.1
DESK = PViTConfig(num_classes=4, alpha=0.1)
OOD_SETS = ("uniform-noise", "pattern-shift", "inverted")
TAPE_OPS = ("matmul", "add", "transpose", "reshape", "layer_norm", "mul", "softmax", "gelu",
            "concat", "broadcast_to", "_getitem", "cross_entropy")
EVAL_SCORES = ("pge", "msp", "energy")


def sub_seed(seed: int, k: int) -> int:
    """Distinct generator seed number ``k`` for workload seed ``seed``."""
    return int(seed) * 16 + k


@dataclass
class OpResult:
    """One operation's figures; times are ``LapClock`` laps (scaled)."""

    samples: int  # work items the phase completed
    work_s: float  # time those items took
    prep_s: float  # time of the operation's first phase, which the main phase needs
    steps_ms: list[float]  # latency of each step of the phase
    outputs: dict[str, Any]  # what ``check`` inspects
    named: dict[str, tuple[float, str]] = field(default_factory=dict)  # extra figures: (value, unit) by name
    counts: dict[str, float] = field(default_factory=dict)  # per-layer counts (traced run)


def _median_ms(samples_s: list[float]) -> float:
    return statistics.median(samples_s) * 1e3


# ---------------------------------------------------------------------------
# train-desk


class _Trainable:
    """The desk model as ``run_training``'s trainable, with ``batch_loss``
    timed and, when tracing, the tape's nodes counted per op."""

    def __init__(self, model: PViTModel, tracer: Tracer):
        self.model = model
        self.tracer = tracer
        self.loss_end = 0.0
        self.tapes: list[tuple[Counter, int]] = []

    def parameters(self):
        return self.model.parameters()

    def zero_grad(self) -> None:
        self.model.zero_grad()

    def batch_loss(self, images, labels, priors):
        with self.tracer.span("model.batch_loss"):
            loss, correct = self.model.batch_loss(images, labels, priors)
        self.loss_end = time.perf_counter()
        if self.tracer.enabled:
            nodes = loss.tape.nodes
            ops = Counter(node.grad_fn.__qualname__.split(".", 1)[0] for node in nodes)
            self.tapes.append((ops, sum(node.output.data.nbytes for node in nodes)))
        return loss, correct


class _Resolver:
    """``priors_for``: resolves a batch's prior logits from the prior source
    and counts rows resolved against distinct samples."""

    def __init__(self, source, dataset, tracer: Tracer):
        self.source = source
        self.dataset = dataset
        self.tracer = tracer
        self.rows = 0
        self.seen = np.zeros(len(dataset), dtype=bool)

    def __call__(self, idx: np.ndarray) -> np.ndarray:
        with self.tracer.span("priors.resolve"):
            out = priors_for_indices(self.source, self.dataset, idx)
        self.rows += len(out)
        self.seen[idx] = True
        return out


class _StepClock:
    """``on_step``: step latencies, as laps, and losses; the interval from
    the end of ``batch_loss`` to here is backward plus the optimizer update."""

    def __init__(self, trainable: _Trainable, tracer: Tracer, clock: LapClock):
        self.trainable = trainable
        self.tracer = tracer
        self.clock = clock
        self.steps_ms: list[float] = []
        self.losses: list[float] = []

    def __call__(self, point) -> None:
        self.tracer.add("train.update", self.trainable.loss_end, time.perf_counter())
        self.steps_ms.append(self.clock.lap() * 1e3)
        self.losses.append(point.loss)


class TrainDesk:
    """Fit the MLP prior, train the desk ViT with per-step ModelSource
    priors, save the checkpoint."""

    name = "train-desk"
    named_e2e = {"samples_per_s": "train_samples_per_s", "step_ms.p50": "train_step_ms.p50",
                 "step_ms.p90": "train_step_ms.p90", "prep_s": "prior_fit_s"}

    def __init__(self, per_class: int = 600, train_count: int = 2000, check_count: int = 400,
                 prior_epochs: int = 8, vit_epochs: int = 2, config: PViTConfig = DESK,
                 loss_reference: float = 0.31, loss_tolerance: float = 0.15, min_auroc: float = 0.85):
        self.per_class = per_class
        self.train_count = train_count
        self.check_count = check_count
        self.prior_epochs = prior_epochs
        self.vit_epochs = vit_epochs
        self.config = config
        # final-epoch mean loss at the commit that defined this benchmark
        # (median over seeds) and the distance from it a run may land at
        self.loss_reference = loss_reference
        self.loss_tolerance = loss_tolerance
        self.min_auroc = min_auroc

    def setup(self, seed: int, workdir: str, tracer: Tracer) -> dict:
        k = self.config.num_classes
        with tracer.span("data.synth_dataset"):
            combined = synth_dataset(k, self.per_class, size=self.config.image_h, noise_sigma=0.2,
                                     seed=sub_seed(seed, 0), name="synth")
        with tracer.span("data.split_dataset"):
            train_set, test_set = split_dataset(combined, self.train_count, seed=sub_seed(seed, 1))
        with tracer.span("data.make_ood"):
            noise = make_ood("uniform-noise", self.check_count, seed=sub_seed(seed, 2),
                             size=self.config.image_h, classes=k)
        return {"seed": seed, "train": train_set, "test": test_set, "noise": noise,
                "ckpt": os.path.join(workdir, "pvit.ckpt")}

    def operate(self, state: dict, tracer: Tracer, clock: LapClock) -> OpResult:
        seed, train_set = state["seed"], state["train"]
        prior_config = TrainConfig(epochs=self.prior_epochs, batch_size=64, base_lr=3e-3, warmup_epochs=1,
                                   weight_decay=0.0, seed=sub_seed(seed, 3))
        vit_config = TrainConfig(epochs=self.vit_epochs, batch_size=32, base_lr=3e-4, warmup_epochs=1,
                                 weight_decay=1e-3, seed=sub_seed(seed, 4))
        with tracer.span("priors.train_prior_model"):
            prior, _ = train_prior_model(train_set, prior_config, hidden_dim=128, seed=sub_seed(seed, 5))
        prior_s = clock.lap()
        with tracer.span("model.PViTModel"):
            model = PViTModel(self.config, seed=sub_seed(seed, 6))
        trainable = _Trainable(model, tracer)
        resolver = _Resolver(prior, train_set, tracer)
        steps = _StepClock(trainable, tracer, clock)
        clock.lap()
        with tracer.span("train.run_training"):
            result = run_training(trainable, train_set, vit_config, priors_for=resolver, on_step=steps)
            tail_s = clock.lap()
        with tracer.span("checkpoint.save"):
            model.save(state["ckpt"], step=result.final_step, epoch=self.vit_epochs,
                       extra_tensors=result.optimizer_tensors)
        counts = {}
        if trainable.tapes:
            counts["tensor.tape_nodes"] = statistics.median(sum(ops.values()) for ops, _ in trainable.tapes)
            for op in TAPE_OPS:
                counts[f"tensor.tape_nodes.{op}"] = statistics.median(ops[op] for ops, _ in trainable.tapes)
            counts["tensor.tape_mb"] = statistics.median(nbytes for _, nbytes in trainable.tapes) / 2**20
            counts["priors.rows_per_unique_sample"] = resolver.rows / int(resolver.seen.sum())
        n = len(train_set)
        return OpResult(
            samples=n * self.vit_epochs,
            work_s=sum(steps.steps_ms) / 1e3 + tail_s,
            prep_s=prior_s,
            steps_ms=steps.steps_ms,
            outputs={"losses": steps.losses, "model": model, "prior": prior,
                     "steps_per_epoch": math.ceil(n / vit_config.batch_size)},
            named={"prior_train_samples_per_s": (n * self.prior_epochs / prior_s, "1/s")},
            counts=counts,
        )

    def check(self, state: dict, outputs: dict) -> list[str]:
        failures = []
        losses = outputs["losses"]
        if not losses or not all(math.isfinite(v) for v in losses):
            return ["training loss is not finite at every step"]
        final = statistics.fmean(losses[-outputs["steps_per_epoch"]:])
        if not abs(final - self.loss_reference) <= self.loss_tolerance:
            failures.append(f"final-epoch loss {final:.4f} is not within {self.loss_tolerance} "
                            f"of the reference {self.loss_reference}")
        model, prior = outputs["model"], outputs["prior"]
        loaded, _, _ = PViTModel.load(state["ckpt"])
        for name, p in model.parameters().items():
            if not np.array_equal(loaded.params[name].data, p.data.astype(np.float32)):
                failures.append(f"checkpoint tensor {name!r} does not round-trip to float32")
                break
        id_records = score_dataset(model, prior, state["test"], "ce")
        noise_records = score_dataset(model, prior, state["noise"], "ce")
        area = evaluate(id_records, noise_records, "pge", "auto").auroc
        if not area >= self.min_auroc:
            failures.append(f"PGE-CE AUROC against uniform noise {area:.4f} < {self.min_auroc}")
        return failures

    def time_layers(self, state: dict, outputs: dict) -> dict[str, float]:
        model, prior, train_set = outputs["model"], outputs["prior"], state["train"]
        idx = np.arange(32)
        images, labels = train_set.images[idx], train_set.labels[idx]
        priors = priors_for_indices(prior, train_set, idx)
        params = model.parameters()
        opt, config = OptimizerState(), TrainConfig(epochs=1, batch_size=32)
        back, adam = [], []
        for _ in range(15):
            model.zero_grad()
            with Tape():
                loss, _ = model.batch_loss(images, labels, priors)
            t = time.perf_counter()
            backward(loss)
            back.append(time.perf_counter() - t)
            grads = {name: p.grad for name, p in params.items() if p.grad is not None}
            t = time.perf_counter()
            adam_step(params, grads, opt, 1e-4, config)
            adam.append(time.perf_counter() - t)
        return {"tensor.backward_ms": _median_ms(back), "train.adam_step_ms": _median_ms(adam)}


# ---------------------------------------------------------------------------
# score-bulk


class _BatchClock:
    """``score_dataset``'s duck-typed model: the loaded transformer, with
    each ``forward_batch`` call after a call's first closing a batch lap.
    A call's batches run from its start, through each later batch's
    forward entry, to its return."""

    def __init__(self, model: PViTModel, tracer: Tracer, clock: LapClock):
        self.model = model
        self.tracer = tracer
        self.clock = clock
        self.first = True
        self.steps_ms: list[float] = []

    def forward_batch(self, images, prior_logits, alpha=None):
        if not self.first:
            self.steps_ms.append(self.clock.lap() * 1e3)
        self.first = False
        with self.tracer.span("model.forward_batch"):
            return self.model.forward_batch(images, prior_logits, alpha)

    def end_call(self) -> None:
        self.steps_ms.append(self.clock.lap() * 1e3)
        self.first = True


class ScoreBulk:
    """Load a desk checkpoint and logits files, score the ID test set and
    three OOD sets with CE guidance, write the score files."""

    name = "score-bulk"
    named_e2e = {"samples_per_s": "score_samples_per_s", "prep_s": "load_s"}
    guidance = "ce"
    batch_size = 64

    def __init__(self, per_class: int = 160, ood_count: int = 640, config: PViTConfig = DESK):
        self.per_class = per_class
        self.ood_count = ood_count
        self.config = config

    def setup(self, seed: int, workdir: str, tracer: Tracer) -> dict:
        c = self.config
        with tracer.span("data.synth_dataset"):
            id_test = synth_dataset(c.num_classes, self.per_class, size=c.image_h, noise_sigma=0.2,
                                    seed=sub_seed(seed, 0), name="id-test")
        datasets = {"id-test": id_test}
        for i, kind in enumerate(OOD_SETS):
            with tracer.span("data.make_ood"):
                datasets[f"ood-{kind}"] = make_ood(kind, self.ood_count, seed=sub_seed(seed, 1 + i),
                                                   size=c.image_h, classes=c.num_classes, source=id_test)
        ckpt = os.path.join(workdir, "pvit.ckpt")
        with tracer.span("model.PViTModel"):
            model = PViTModel(c, seed=sub_seed(seed, 4))
        with tracer.span("checkpoint.save"):
            model.save(ckpt)
        # untrained prior: forward and lookup cost do not depend on the weights
        prior = ModelSource(MLPClassifier(MLPConfig(input_dim=c.image_h * c.image_w * c.channels,
                                                    num_classes=c.num_classes), seed=sub_seed(seed, 5)))
        logits = {}
        for split, ds in datasets.items():
            logits[split] = os.path.join(workdir, f"logits_{split}.jsonl")
            with tracer.span("priors.export_logits"):
                export_logits(prior, ds, logits[split])
        return {"datasets": datasets, "ckpt": ckpt, "logits": logits,
                "scores": {split: os.path.join(workdir, f"scores_{split}.jsonl") for split in datasets}}

    def operate(self, state: dict, tracer: Tracer, clock: LapClock) -> OpResult:
        with tracer.span("checkpoint.load"):
            model, _, _ = PViTModel.load(state["ckpt"])
        with tracer.span("scoring.file_sha256"):
            ckpt_hash = file_sha256(state["ckpt"])
        merged = {}
        for path in state["logits"].values():
            with tracer.span("priors.load_logits") as span:
                table = load_logits(path)
                span.n = len(table.records)
            merged.update(table.records)
        prior = TableSource(records=merged, num_classes=self.config.num_classes, name="logits-files")
        prep_s = clock.lap()
        batches = _BatchClock(model, tracer, clock)
        records = {}
        for split, ds in state["datasets"].items():
            with tracer.span("scoring.score_dataset") as span:
                records[split] = score_dataset(batches, prior, ds, self.guidance, batch_size=self.batch_size)
                batches.end_call()
                span.n = len(records[split])
            with tracer.span("scoring.write_scores") as span:
                write_scores(state["scores"][split], records[split], self.guidance, model.config.alpha, ckpt_hash)
                span.n = len(records[split])
            clock.lap()
        return OpResult(
            samples=sum(len(r) for r in records.values()),
            work_s=clock.total,
            prep_s=prep_s,
            steps_ms=batches.steps_ms,
            outputs={"records": records, "prior": prior},
        )

    def check(self, state: dict, outputs: dict) -> list[str]:
        failures = []
        for split, recs in outputs["records"].items():
            if [r.id for r in recs] != state["datasets"][split].ids:
                failures.append(f"{split}: scored ids differ from the dataset's")
            values = np.array([[r.base, r.guidance, r.pge, *r.baselines.values()] for r in recs])
            if not np.all(np.isfinite(values)):
                failures.append(f"{split}: a score is not finite")
            if any(r.pge != r.base * r.guidance for r in recs):
                failures.append(f"{split}: pge differs from base * guidance")
            header, back = read_scores(state["scores"][split])
            if header.get("guidance") != self.guidance or back != recs:
                failures.append(f"{split}: the score file does not read back equal to the records")
        return failures

    def time_layers(self, state: dict, outputs: dict) -> dict[str, float]:
        ds, prior = state["datasets"]["id-test"], outputs["prior"]
        times = []
        for _ in range(3):
            for start in range(0, len(ds), self.batch_size):
                idx = np.arange(start, min(start + self.batch_size, len(ds)))
                t = time.perf_counter()
                priors_for_indices(prior, ds, idx)
                times.append(time.perf_counter() - t)
        return {"priors.resolve_ms": _median_ms(times)}


# ---------------------------------------------------------------------------
# eval-large


def _score_columns(gen: np.random.Generator, n: int, shift: float) -> dict[str, np.ndarray]:
    """Score columns for ``n`` samples; ``shift`` moves the OOD population.

    ``pge`` and ``energy`` are continuous; ``msp`` is rounded to two
    decimals, so it holds heavy exact ties as real MSP scores do.
    """
    base = gen.normal(3.0 - shift, 0.5, n)
    guidance = np.abs(gen.normal(0.5 + shift, 0.3, n))
    return {
        "base": base,
        "guidance": guidance,
        "pge": base * guidance,
        "msp": np.round(gen.beta(6.0 - 3.0 * shift, 2.0, n), 2),
        "max_logit": gen.normal(4.0 - shift, 1.0, n),
        "energy": gen.normal(1.0 - shift, 1.0, n),
        "predicted_class": gen.integers(0, 4, n),
    }


def _records(prefix: str, cols: dict[str, np.ndarray]) -> list[ScoreRecord]:
    c = {k: v.tolist() for k, v in cols.items()}
    return [
        ScoreRecord(f"{prefix}-{i:07d}", c["base"][i], c["guidance"][i], c["pge"][i], c["predicted_class"][i],
                    {"msp": c["msp"][i], "max_logit": c["max_logit"][i], "energy": c["energy"][i]})
        for i in range(len(c["pge"]))
    ]


def _brute_fpr(ids: np.ndarray, oods: np.ndarray) -> tuple[float, float]:
    """FPR at the largest ID-score threshold whose inclusive ID count still
    reaches 95 % TPR, by recounting every distinct ID score as a threshold."""
    ids_sorted = np.sort(ids)
    candidates = np.unique(ids_sorted)
    at_or_above = len(ids) - np.searchsorted(ids_sorted, candidates, side="left")
    gamma = float(candidates[at_or_above * 100 >= 95 * len(ids)].max())
    return int(np.count_nonzero(oods >= gamma)) / len(oods), gamma


class EvalLarge:
    """Read large ID and OOD score files, then evaluate and export
    histograms for a continuous, a heavily tied and a baseline column."""

    name = "eval-large"
    named_e2e = {"samples_per_s": "eval_scores_per_s", "prep_s": "read_scores_s"}
    bins = 50

    def __init__(self, n_id: int = 100_000, n_ood: int = 100_000):
        self.n_id = n_id
        self.n_ood = n_ood

    def setup(self, seed: int, workdir: str, tracer: Tracer) -> dict:
        # no pvit generator makes score records, so they are drawn here
        gen = np.random.default_rng(sub_seed(seed, 0))
        truth = {"id": _score_columns(gen, self.n_id, 0.0), "ood": _score_columns(gen, self.n_ood, 1.0)}
        paths = {}
        for side, cols in truth.items():
            paths[side] = os.path.join(workdir, f"scores_{side}.jsonl")
            records = _records(side, cols)
            with tracer.span("scoring.write_scores") as span:
                write_scores(paths[side], records, "ce", 0.1)
                span.n = len(records)
        return {"truth": truth, "paths": paths,
                "hist": {s: os.path.join(workdir, f"hist_{s}.csv") for s in EVAL_SCORES}}

    def operate(self, state: dict, tracer: Tracer, clock: LapClock) -> OpResult:
        steps = []
        records = {}
        for side, path in state["paths"].items():
            with tracer.span("scoring.read_scores") as span:
                _, records[side] = read_scores(path)
                span.n = len(records[side])
            steps.append(clock.lap() * 1e3)
        prep_s = clock.total
        id_recs, ood_recs = records["id"], records["ood"]
        metrics = {}
        for score in EVAL_SCORES:
            with tracer.span(f"metrics.evaluate.{score}"):
                metrics[score] = evaluate(id_recs, ood_recs, score, "auto")
            with tracer.span("scoring.score_field"):
                ids = [score_field(r, score) for r in id_recs]
                oods = [score_field(r, score) for r in ood_recs]
            with tracer.span("metrics.histogram_export"):
                histogram_export(ids, oods, self.bins, state["hist"][score])
            steps.append(clock.lap() * 1e3)
        return OpResult(
            samples=len(id_recs) + len(ood_recs),
            work_s=clock.total,
            prep_s=prep_s,
            steps_ms=steps,
            outputs={"metrics": metrics},
        )

    def check(self, state: dict, outputs: dict) -> list[str]:
        failures = []
        truth = state["truth"]
        for score, m in outputs["metrics"].items():
            ids, oods = truth["id"][score], truth["ood"][score]
            u = mannwhitneyu(ids, oods, method="asymptotic").statistic / (len(ids) * len(oods))
            orientation = "as-is" if u >= 0.5 else "negated"
            if orientation == "negated":
                # negating both sides turns U into n*m - U
                ids, oods, u = -ids, -oods, 1.0 - u
            if m.orientation != orientation or not abs(m.auroc - u) <= 1e-12:
                failures.append(f"{score}: AUROC {m.auroc!r} ({m.orientation}) differs from "
                                f"Mann-Whitney U/(n*m) {u!r} ({orientation})")
            fpr, gamma = _brute_fpr(ids, oods)
            if m.fpr95 != fpr or m.threshold != gamma:
                failures.append(f"{score}: FPR95 {m.fpr95!r} at {m.threshold!r} differs from "
                                f"the recount {fpr!r} at {gamma!r}")
            with open(state["hist"][score], newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if (len(rows) != self.bins or sum(int(r["id_count"]) for r in rows) != len(ids)
                    or sum(int(r["ood_count"]) for r in rows) != len(oods)):
                failures.append(f"{score}: histogram counts do not cover every score once")
        return failures

    def time_layers(self, state: dict, outputs: dict) -> dict[str, float]:
        truth, out = state["truth"], {}
        for score in ("pge", "msp"):
            ids, oods = truth["id"][score], truth["ood"][score]
            times = []
            for _ in range(2):
                t = time.perf_counter()
                auroc(ids, oods)
                times.append(time.perf_counter() - t)
            out[f"metrics.auroc_ms.{score}"] = _median_ms(times)
        ids, oods = truth["id"]["pge"], truth["ood"]["pge"]
        times = []
        for _ in range(6):
            t = time.perf_counter()
            fpr_at_tpr(ids, oods)
            times.append(time.perf_counter() - t)
        out["metrics.fpr_at_tpr_ms"] = _median_ms(times)
        return out


WORKLOADS = {w.name: w for w in (TrainDesk, ScoreBulk, EvalLarge)}
