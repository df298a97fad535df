"""Optimization: Adam with bias correction, a warmup + linear-decay
learning-rate schedule, and the seeded epoch driver used by both the
prior classifier and the transformer.

Determinism contract: (seed, data, config) fully determine every weight
after training.  Batch order comes from a Philox counter-based
generator, so loss trajectories are reproducible across platforms.

The training state is one :class:`OptimizerState`: its ``t`` counts the
Adam updates applied, which is the training step, and its ``moments``
are keyed as a checkpoint stores them, so a checkpoint's ``step`` and
leftover tensors, read back by :func:`resume_state`, are the state a
resumed run continues from.  Every step applies an update, even at
learning rate 0 (the last step of a decaying schedule), which leaves the
parameters unchanged and folds the gradient into the moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .data import Dataset
from .errors import FormatError, ShapeError, TrainingError
from .rng import philox
from .tensor import Tape, Tensor, backward

ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 32
    base_lr: float = 3e-4
    warmup_epochs: int = 1
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.warmup_epochs > self.epochs:
            raise ShapeError(f"warmup_epochs {self.warmup_epochs} exceeds epochs {self.epochs}")
        if self.batch_size < 1:
            raise ShapeError("batch_size must be >= 1")
        if self.base_lr <= 0:
            raise ShapeError("base_lr must be positive")


@dataclass
class OptimizerState:
    """The updates applied so far, ``t``, and each parameter's first and
    second moments, keyed ``opt.m.<param>`` and ``opt.v.<param>``."""

    moments: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place.

    Weight decay is decoupled: parameters shrink by (1 - lr * decay)
    before the gradient step.  At lr 0 the parameters keep their values
    while ``t`` and the moments advance.  Non-finite gradients abort
    training.
    """
    if lr < 0:
        raise ShapeError(f"adam_step needs lr >= 0, got {lr}")
    state.t += 1
    correction1 = 1.0 - config.beta1**state.t
    correction2 = 1.0 - config.beta2**state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient for {name!r} has shape {g.shape}, parameter is {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name!r} at step {state.t}")
        m = state.moments.setdefault(f"opt.m.{name}", np.zeros_like(p.data))
        v = state.moments.setdefault(f"opt.v.{name}", np.zeros_like(p.data))
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        if config.weight_decay:
            p.data *= 1.0 - lr * config.weight_decay
        m_hat = m / correction1
        v_hat = v / correction2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def resume_state(path: str, header: dict, moments: dict[str, np.ndarray],
                 params: dict[str, Tensor]) -> tuple[OptimizerState, int]:
    """The training state and epoch count of the checkpoint at ``path``:
    its non-negative integers ``step`` (the state's ``t``) and ``epoch``,
    and past ``params`` its ``moments``, opt.m./opt.v. pairs shaped like
    their parameters, every pair once ``step`` > 0; else a FormatError
    naming ``path`` and the key."""
    for key in ("step", "epoch"):
        if type(header.get(key)) is not int or header[key] < 0:
            raise FormatError(f"{path}: checkpoint key {key!r} must be a non-negative integer, got {header.get(key)!r}")
    shapes = {f"opt.{kind}.{name}": p.shape for name, p in params.items() for kind in "mv"}
    for key, moment in moments.items():
        if key not in shapes:
            raise FormatError(f"{path}: checkpoint tensor {key!r} is not an opt.m./opt.v. moment of a parameter")
        if moment.shape != shapes[key]:
            raise FormatError(f"{path}: checkpoint tensor {key!r} has shape {moment.shape}, "
                              f"its parameter {shapes[key]}")
        partner = ("opt.v." if key.startswith("opt.m.") else "opt.m.") + key[len("opt.m."):]
        if partner not in moments:
            raise FormatError(f"{path}: checkpoint tensor {key!r} has no partner {partner!r}")
    missing = [key for key in shapes if key not in moments]
    if header["step"] and missing:
        raise FormatError(f"{path}: checkpoint at step {header['step']} has no optimizer moment {missing[0]!r}")
    return OptimizerState(moments=moments, t=header["step"]), header["epoch"]


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Piecewise-linear schedule: 0 to base_lr over the warmup span, then
    base_lr back to 0 at ``total_steps``.

    The warmup span is the warmup-epoch fraction of ``total_steps``.
    """
    if not 0 <= step <= total_steps:
        raise ShapeError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = (total_steps * config.warmup_epochs) // config.epochs
    if step <= warmup_steps and warmup_steps > 0:
        return config.base_lr * step / warmup_steps
    if total_steps == warmup_steps:
        return config.base_lr
    return config.base_lr * (total_steps - step) / (total_steps - warmup_steps)


@dataclass
class CurvePoint:
    step: int
    epoch: int
    lr: float
    loss: float
    accuracy: float  # cumulative training accuracy within the epoch


@dataclass
class TrainResult:
    curve: list[CurvePoint]
    final_step: int  # the state's t
    optimizer_tensors: dict[str, np.ndarray] = field(default_factory=dict)  # the state's moments


def loss_curve_csv(curve: Iterable[CurvePoint]) -> str:
    lines = ["step,epoch,lr,loss,accuracy"]
    for pt in curve:
        lines.append(f"{pt.step},{pt.epoch},{pt.lr!r},{pt.loss!r},{pt.accuracy!r}")
    return "\n".join(lines) + "\n"


def run_training(
    trainable,
    dataset: Dataset,
    config: TrainConfig,
    priors_for: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    state: Optional[OptimizerState] = None,
    on_step: Optional[Callable[[CurvePoint], None]] = None,
) -> TrainResult:
    """Seeded epoch driver shared by the prior classifier and the transformer.

    ``trainable`` exposes ``parameters()``, ``zero_grad()`` and
    ``batch_loss(images, labels, priors)``; ``priors_for`` maps an index
    array to a (B, K) prior-logits block (None for models that take no
    priors).  ``state``, updated in place, resumes a previous run: its
    ``t`` is the step the run continues from and its moments carry on.
    Returns the per-step loss curve; aborts on non-finite loss.
    """
    if dataset.labels is None:
        raise TrainingError("training needs a labeled dataset")
    n = len(dataset)
    if n == 0:
        raise TrainingError("training needs a nonempty dataset")
    state = OptimizerState() if state is None else state
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = steps_per_epoch * config.epochs + state.t
    gen = philox(config.seed, 0x5EED)
    params = trainable.parameters()
    curve: list[CurvePoint] = []
    for epoch in range(config.epochs):
        order = gen.permutation(n)
        seen = correct_total = 0
        for b in range(steps_per_epoch):
            idx = order[b * config.batch_size : (b + 1) * config.batch_size]
            images = dataset.images[idx]
            labels = dataset.labels[idx]
            priors = () if priors_for is None else (priors_for(idx),)
            trainable.zero_grad()
            with Tape():
                loss, correct = trainable.batch_loss(images, labels, *priors)
            loss_value = loss.item()
            if not math.isfinite(loss_value):
                raise TrainingError(f"non-finite loss {loss_value} at step {state.t + 1}")
            backward(loss)
            lr = lr_at(state.t + 1, total_steps, config)
            grads = {name: p.grad for name, p in params.items() if p.grad is not None}
            adam_step(params, grads, state, lr, config)
            seen += len(idx)
            correct_total += correct
            point = CurvePoint(state.t, epoch, lr, loss_value, correct_total / seen)
            curve.append(point)
            if on_step is not None:
                on_step(point)
    return TrainResult(curve=curve, final_step=state.t, optimizer_tensors=state.moments)


def train(model, dataset: Dataset, priors: np.ndarray, config: TrainConfig,
          state: Optional[OptimizerState] = None) -> TrainResult:
    """Train the prior-token transformer on a labeled dataset, from
    ``state`` if given (see :func:`run_training`).

    ``priors`` is the dataset's (N, K) prior-logits block, row i for
    sample i; each batch takes its rows, so a sample's prior is the same
    in every batch.
    """
    if len(priors) != len(dataset):
        raise ShapeError(f"need one prior-logits row per sample: {len(dataset)} samples, {len(priors)} rows")
    return run_training(model, dataset, config, priors_for=lambda idx: priors[idx], state=state)
