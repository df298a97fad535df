"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria cover the score-expansion identity, gradient correctness
against finite differences, metric-oracle equivalence, energy
identities, prior-token linearity, bytewise training determinism, a
seed-fixed end-to-end detection experiment, the logits-file ablation
harness, and checkpoint round-trip fidelity.  Tolerances are pinned in
the assertions.

The determinism, end-to-end and ablation criteria run commands through
``pvit.cli.main`` with ``recipe.run_cli``, as users run them.  The
end-to-end experiment runs train-prior, train-pvit, score and eval at
the default desk config and reads every figure from their outputs.
"""

import functools
import json
import math
import os
import pathlib
import time

import numpy as np

from conftest import central_difference, weighted_sum
from oracle import bmatmul, cefe_expand, reshape, softmax, transpose
from pvit.checkpoint import load_checkpoint
from pvit.data import synth_dataset
from pvit.metrics import auroc, fpr_at_tpr
from pvit.model import PViTConfig, PViTModel
from pvit.priors import train_prior_model
from pvit.scoring import read_scores, score_records
from pvit.tensor import (
    Tape,
    Tensor,
    add,
    attention,
    backward,
    broadcast_to,
    concat,
    cross_entropy,
    gelu,
    layer_norm,
    linear,
    mul,
)
from pvit.train import TrainConfig, train
from recipe import run_cli, write_cfg
from test_metrics import pairwise_auroc, random_instance, sweep_fpr_at_tpr


def criterion(name):
    """Print one pass/fail line per acceptance criterion."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] {name}: FAIL")
                raise
            print(f"[ACCEPTANCE] {name}: PASS")
            return result

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# 1. score-expansion identity


@criterion("CEFE identity (factored == expanded, 1e-10 relative, 1000 vectors)")
def test_cefe_identity_sweep():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        k = int(rng.integers(2, 51))
        z = rng.uniform(-20.0, 20.0, k)
        factored, expanded = cefe_expand(z, int(rng.integers(0, k)))
        assert abs(factored - expanded) <= 1e-10 * max(1.0, abs(factored))
    assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. gradient correctness


def _op_cases(rng):
    """(name, build(tensors) -> scalar loss, arrays) for every differentiable op."""
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (4, 3))
    v = rng.uniform(-2, 2, (4,))
    row = rng.uniform(-2, 2, (2, 5))
    gain = rng.uniform(0.5, 1.5, (5,))
    bias = rng.uniform(-0.5, 0.5, (5,))
    targets = rng.integers(0, 4, 3)
    w34 = rng.normal(size=(3, 4))
    w33 = rng.normal(size=(3, 3))
    w25 = rng.normal(size=(2, 5))
    w22 = rng.normal(size=(2, 2))
    w38 = rng.normal(size=(3, 8))
    w3 = rng.normal(size=(3,))

    # linear and attention reuse drawn arrays, so the draws feeding the model check below stay put
    batched = np.stack([a, a[::-1]])  # (2, 3, 4)
    w233 = np.stack([w33, w33.T])
    w234 = np.stack([w34, w34[::-1]])
    qkv = np.concatenate([batched, batched[:, ::-1], batched[::-1]], axis=-1)  # (2, 3, 12)
    add_b = rng.uniform(-2, 2, (3, 4))
    rng.uniform(-2, 2, (3, 4))  # unused draw: keeps the later cases' and the model check's inputs as pinned
    mul_b = rng.uniform(-2, 2, (3, 4))

    return [
        ("add", lambda x, y: weighted_sum(add(x, y), w34), (a, add_b)),
        ("mul", lambda x, y: weighted_sum(mul(x, y), w34), (a, mul_b)),
        ("mul-broadcast", lambda x, y: weighted_sum(mul(x, y), w34), (a, v)),
        ("linear without bias", lambda x, y: weighted_sum(linear(x, y), w33), (a, b)),
        ("bmatmul", lambda x, y: weighted_sum(bmatmul(x, y), w233), (batched, np.stack([b, b[::-1]]))),
        ("linear", lambda x, y, z: weighted_sum(linear(x, y, z), w33), (a, b, w3)),
        ("linear-batched", lambda x, y, z: weighted_sum(linear(x, y, z), w233), (batched, b, w3)),
        ("linear with bias and residual", lambda x, y, z, r: weighted_sum(linear(x, y, z, r), w233),
         (batched, b, w3, w233[::-1].copy())),
        ("reshape", lambda x: weighted_sum(reshape(x, (4, 3)), w34.T), (a,)),
        ("transpose", lambda x: weighted_sum(transpose(x, (1, 0)), w34.T), (a,)),
        ("getitem", lambda x: weighted_sum(x[1:3, :2], w22), (a,)),
        ("concat", lambda x, y: weighted_sum(concat([x, y], axis=1), w38), (a, a[:, ::-1].copy())),
        ("broadcast_to", lambda x: weighted_sum(broadcast_to(x, (3, 4)), w34), (v,)),
        ("softmax", lambda x: weighted_sum(softmax(x, axis=1), w34), (a,)),
        ("attention", lambda x: weighted_sum(attention(x, 2)[0], w234), (qkv,)),
        ("layer_norm", lambda x, g, bb: weighted_sum(layer_norm(x, g, bb), w25), (row, gain, bias)),
        ("gelu", lambda x: weighted_sum(gelu(x), w34), (a,)),
        ("cross_entropy", lambda x: cross_entropy(x, targets), (a,)),
    ]


@criterion("gradient correctness (all ops + 2-layer model loss, 1e-3 relative, 20 seeds)")
def test_gradient_correctness():
    start = time.monotonic()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        # every differentiable op, all coordinates
        for name, build, arrays in _op_cases(rng):
            tensors = [Tensor(arr, requires_grad=True) for arr in arrays]
            with Tape():
                loss = build(*tensors)
            backward(loss)
            for pos, (tensor, arr) in enumerate(zip(tensors, arrays)):
                def f(x, pos=pos):
                    plugged = [Tensor(x if i == pos else other) for i, other in enumerate(arrays)]
                    return build(*plugged).item()

                fd = central_difference(f, arr)
                err = np.abs(tensor.grad - fd)
                bound = 1e-3 * np.maximum(1.0, np.abs(fd))
                assert np.all(err <= bound), f"seed {seed}, op {name}"

        # full 2-layer model loss: D=16, N=4 (8x8 image, patch 4), K=3
        config = PViTConfig(image_h=8, image_w=8, channels=1, patch_size=4,
                            embed_dim=16, depth=2, heads=2, mlp_dim=24, num_classes=3)
        model = PViTModel(config, seed=seed)
        images = rng.uniform(0, 1, (2, 8, 8, 1))
        priors = rng.normal(size=(2, 3))
        labels = rng.integers(0, 3, 2)

        model.zero_grad()
        with Tape():
            loss, _ = model.batch_loss(images, labels, priors)
        backward(loss)

        def loss_value():
            value, _ = model.batch_loss(images, labels, priors)
            return value.item()

        h = 1e-5
        coord_rng = np.random.default_rng(1000 + seed)
        for name, p in model.params.items():
            flat = p.data.reshape(-1)
            count = min(4, flat.size)
            for ci in coord_rng.choice(flat.size, size=count, replace=False):
                keep = flat[ci]
                flat[ci] = keep + h
                up = loss_value()
                flat[ci] = keep - h
                down = loss_value()
                flat[ci] = keep
                fd = (up - down) / (2 * h)
                got = p.grad.reshape(-1)[ci]
                assert abs(got - fd) <= 1e-3 * max(1.0, abs(fd)), f"seed {seed}, {name}[{ci}]"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gradient sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. metric oracles


@criterion("metric oracles (AUROC pairwise 1e-12, FPR95 sweep, 100 instances)")
def test_metric_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    for _ in range(100):
        ids, oods = random_instance(rng)
        assert abs(auroc(ids, oods) - pairwise_auroc(ids, oods)) <= 1e-12
        got_fpr, got_gamma = fpr_at_tpr(ids, oods)
        want_fpr, want_gamma = sweep_fpr_at_tpr(ids, oods)
        assert got_gamma == want_gamma
        assert abs(got_fpr - want_fpr) <= 1e-12
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 4. energy / logsumexp identities


@criterion("energy identities (shift 1e-10; uniform logits exact to 1e-12)")
def test_energy_identities():
    rng = np.random.default_rng(5)
    for _ in range(200):
        z = rng.uniform(-20, 20, int(rng.integers(2, 11)))
        c = float(rng.uniform(-50, 50))
        shifted, plain = score_records(["shifted", "plain"], np.stack([z + c, z]), np.zeros((2, len(z))))
        assert abs(shifted.base - (plain.base + c)) <= 1e-10
    for k in (2, 10, 1000):
        (uniform,) = score_records(["uniform"], np.zeros((1, k)), np.zeros((1, k)))
        # the energy baseline is the negative energy
        assert abs(uniform.baselines["energy"] - math.log(k)) <= 1e-12


# ---------------------------------------------------------------------------
# 5. prior-token linearity


@criterion("prior-token linearity (2x alpha within 1e-15; alpha 0 zeroes token and gradient)")
def test_prior_token_linearity():
    config = PViTConfig(image_h=8, image_w=8, patch_size=4, embed_dim=16,
                        depth=1, heads=2, mlp_dim=24, num_classes=3)
    model = PViTModel(config, seed=3)
    logits = np.array([[0.9, -0.3, 0.4]])
    for alpha in (0.1, 0.37):
        one = model.make_prior_token(logits, alpha=alpha)
        two = model.make_prior_token(logits, alpha=2 * alpha)
        assert np.all(np.abs(two.data - 2.0 * one.data) <= 1e-15)

    zero = model.make_prior_token(logits, alpha=0.0)
    assert np.all(zero.data == 0.0)

    # one training step at alpha 0 leaves a zero gradient on the projection
    ds = synth_dataset(3, 2, size=8, seed=4)
    prior, _ = train_prior_model(
        ds, TrainConfig(epochs=0, warmup_epochs=0), hidden_dim=8, seed=5, num_classes=3
    )
    zero_model = PViTModel(
        PViTConfig(image_h=8, image_w=8, patch_size=4, embed_dim=16, depth=1,
                   heads=2, mlp_dim=24, num_classes=3, alpha=0.0),
        seed=6,
    )
    before = zero_model.params["prior_proj"].data.copy()
    train(zero_model, ds, prior.resolve(ds),
          TrainConfig(epochs=1, batch_size=6, base_lr=1e-3, warmup_epochs=0,
                      weight_decay=0.0, seed=7))
    grad = zero_model.params["prior_proj"].grad
    assert grad is not None and np.all(grad == 0.0)
    np.testing.assert_array_equal(zero_model.params["prior_proj"].data, before)


# ---------------------------------------------------------------------------
# 6. training determinism (bytewise)


# the determinism and ablation runs' config: each test sets its own keys on it
CLI_CFG = """
out.dir = {out}
seed = 5
data.classes = 3
data.train_per_class = 30
data.test_per_class = 15
ood.count = 30
model.dim = 32
model.depth = 2
model.heads = 2
model.mlp_dim = 48
prior.hidden = 32
prior.epochs = 3
prior.base_lr = 1e-2
train.epochs = 2
train.batch_size = 16
"""


@criterion("determinism (two train-pvit runs: byte-identical checkpoint and loss CSV)")
def test_training_determinism(tmp_path):
    outputs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        cfg, _ = write_cfg(tmp_path, CLI_CFG, f"{run}.cfg", out__dir=out, data__test_per_class=10, ood__count=20,
                           paths__prior_checkpoint=tmp_path / "prior.ckpt", paths__logits_dir=tmp_path / "logits")
        run_cli(cfg, *(["train-prior"] if run == "a" else []), "train-pvit")
        outputs.append((pathlib.Path(out, "pvit.ckpt").read_bytes(), pathlib.Path(out, "pvit_loss.csv").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "checkpoints differ"
    assert outputs[0][1] == outputs[1][1], "loss CSVs differ"


# ---------------------------------------------------------------------------
# 7. end-to-end desk experiment


def _read_json(out, name):
    return json.loads(pathlib.Path(out, name).read_text())


@criterion("end-to-end detection (prior >= 0.90; model within 5 pts; "
           "PGE-CE >= 0.85 vs noise and > MSP; >= 0.70 vs pattern shift; <= 10 min)")
def test_end_to_end_desk_experiment(tmp_path):
    start = time.monotonic()
    cfg, out = write_cfg(tmp_path, "out.dir = {out}", ood__kinds="uniform-noise,pattern-shift", eval__scores="pge,msp")
    run_cli(cfg, "train-prior", "train-pvit", "score", "eval")
    logits = {split: pathlib.Path(out, "logits", f"logits_{split}.jsonl").read_text().splitlines()[1:]
              for split in ("id-train", "id-test")}
    assert len(logits["id-train"]) == 2000 and len(logits["id-test"]) == 400

    records = [json.loads(line) for line in logits["id-test"]]
    prior_acc = sum(int(np.argmax(r["logits"])) == r["label"] for r in records) / len(records)
    assert prior_acc >= 0.90, f"prior test accuracy {prior_acc}"

    config = load_checkpoint(os.path.join(out, "pvit.ckpt"))[0]["config"]
    assert config["embed_dim"] == 64 and config["depth"] == 4
    assert config["heads"] == 4 and config["alpha"] == 0.1
    model_acc = _read_json(out, "pvit_train.json")["id_test_accuracy"]
    assert model_acc >= prior_acc - 0.05, f"model {model_acc} vs prior {prior_acc}"

    pge_noise, msp_noise, pge_shift = (_read_json(out, f"metrics_ood-{name}.json") for name in
                                       ("uniform-noise_pge", "uniform-noise_msp", "pattern-shift_pge"))
    assert pge_noise["auroc"] >= 0.85, f"PGE vs noise auroc {pge_noise['auroc']}"
    assert pge_noise["auroc"] > msp_noise["auroc"], (
        f"PGE {pge_noise['auroc']} does not exceed MSP {msp_noise['auroc']}"
    )
    assert pge_shift["auroc"] >= 0.70, f"PGE vs pattern shift auroc {pge_shift['auroc']}"

    elapsed = time.monotonic() - start
    assert elapsed <= 600.0, f"experiment took {elapsed:.0f}s"
    print(
        f"  prior={prior_acc:.3f} model={model_acc:.3f} "
        f"pge-noise={pge_noise['auroc']:.4f} ({pge_noise['orientation']}) "
        f"msp-noise={msp_noise['auroc']:.4f} pge-shift={pge_shift['auroc']:.4f} "
        f"elapsed={elapsed:.0f}s"
    )


# ---------------------------------------------------------------------------
# 8. ablation harness


@criterion("ablation harness (logits-only scoring for CE/KL/ED; alpha sweep attention dump)")
def test_ablation_harness(tmp_path):
    out = str(tmp_path / "run")

    def cfg(name, run=out, **keys):
        return write_cfg(tmp_path, CLI_CFG, f"{name}.cfg", out__dir=run, **keys)[0]

    run_cli(cfg("run"), "train-prior", "train-pvit")

    # a second classifier stands in for an external model's predicted logits
    other_out = str(tmp_path / "other")
    run_cli(cfg("other", other_out, prior__seed=4242), "train-prior")

    # no-prior-token ablation: two logits files, no transformer involved
    for kind in ("ce", "kl", "ed"):
        ablate_cfg = cfg(f"ablate_{kind}", score__predicted_logits=f"{other_out}/logits", score__guidance=kind)
        run_cli(ablate_cfg, "score")
        header, records = read_scores(os.path.join(out, "scores_id-test.jsonl"))
        assert header["guidance"] == kind
        assert len(records) == 45
        run_cli(ablate_cfg, "eval")
        metrics = _read_json(out, "metrics_ood-uniform-noise_pge.json")
        assert 0.0 <= metrics["auroc"] <= 1.0
        assert 0.0 <= metrics["fpr95"] <= 1.0

    # alpha sweep attention dump on fixed weights
    run_cli(cfg("sweep", attention__alphas="0.1,1,10", attention__max_samples=4), "attention-dump")
    summary_lines = pathlib.Path(out, "attention_summary.csv").read_text().strip().splitlines()
    assert len(summary_lines) == 1 + 3 * 4
    alphas_seen = {line.split(",")[0] for line in summary_lines[1:]}
    assert alphas_seen == {"0.1", "1.0", "10.0"}
    attn_dir = os.path.join(out, "attention")
    for name in os.listdir(attn_dir):
        matrix = np.loadtxt(os.path.join(attn_dir, name), delimiter=",")
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# 9. checkpoint round trip


@criterion("checkpoint round trip (logits within 1e-6 on 100 random inputs)")
def test_checkpoint_round_trip(tmp_path):
    model = PViTModel(PViTConfig(num_classes=4, alpha=0.1), seed=17)
    path = str(tmp_path / "model.ckpt")
    model.save(path)
    loaded, _, _ = PViTModel.load(path)
    rng = np.random.default_rng(8)
    images = rng.uniform(0, 1, (100, 28, 28, 1))
    priors = rng.normal(size=(100, 4))
    a = model.forward_batch(images, priors).logits.data
    b = loaded.forward_batch(images, priors).logits.data
    worst = float(np.max(np.abs(a - b)))
    assert worst <= 1e-6, f"round-trip logit error {worst}"
