"""Optimization: Adam with bias correction, a warmup + linear-decay
learning-rate schedule, and the seeded epoch driver used by both the
prior classifier and the transformer.

Determinism contract: (seed, data, config) fully determine every weight
after training.  Batch order comes from a Philox counter-based
generator, so loss trajectories are reproducible across platforms.

Training is mixed precision (Micikevicius et al. 2018, "Mixed Precision
Training"): one contiguous float64 vector holds the master weights, in
the order of ``parameters()``, and each parameter's ``data`` is a
reshaped view of it.  Each step copies the masters into one float32
working vector, points every parameter at its working view, runs the
forward and backward pass on one float32 tape, points the parameters
back at their masters, also when the step fails, and hands
:func:`adam_step` the float32 leaf gradients, which it casts into one
float64 vector for that update alone.  Adam's two moments are float64
vectors too, so an update is a handful of whole-vector operations (the
flat-parameter idiom of fairseq's ``FP16Optimizer``); float32's exponent
range makes loss scaling unnecessary.

The training state is one :class:`OptimizerState`: its ``t`` counts the
Adam updates applied, which is the training step, and its ``moments``
are keyed as a checkpoint stores them, so a checkpoint's ``step`` and
leftover tensors, as :meth:`pvit.checkpoint.Checkpointed.load` reads them
back, are the state a resumed run continues from:
``OptimizerState(moments, t=header["step"])``, bound to the loaded
parameters.  A state binds to one set of parameters on its first update,
or when a run starts on it; from then on it holds the vectors, its
moments are views of them, and it refuses other parameters.
Every step applies an update, even at learning rate 0 (the last step of
a decaying schedule), which leaves the parameters unchanged and folds
the gradient into the moments.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .config import check, setting
from .data import Dataset
from .errors import ShapeError, TrainingError
from .rng import philox
from .tensor import Tape, Tensor, backward

ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = setting("train.epochs")
    batch_size: int = setting("train.batch_size")
    base_lr: float = setting("train.base_lr")
    warmup_epochs: int = setting("train.warmup_epochs")
    beta1: float = setting("train.beta1")
    beta2: float = setting("train.beta2")
    weight_decay: float = setting("train.weight_decay")
    seed: int = 0  # the resolved seed: the global seed plus prior.seed or train.seed

    def __post_init__(self):
        check(self)


class OptimizerState:
    """The updates applied so far, ``t``, and each parameter's first and
    second moments, keyed ``opt.m.<param>`` and ``opt.v.<param>``.

    Once bound (:meth:`bind`), the state also holds its ``params`` and,
    in their order, the float64 ``master``, ``m``, ``v`` and ``scratch``
    vectors and the float32 ``work`` vector, with each parameter's
    reshaped views of the masters and the work vector in ``masters`` and
    ``works``.  Every parameter's ``data`` is then its master view and
    every moment a view of ``m`` or ``v``."""

    params: Optional[dict[str, Tensor]] = None  # None while unbound

    def __init__(self, moments: Optional[dict[str, np.ndarray]] = None, t: int = 0):
        self.moments = {} if moments is None else moments
        self.t = t

    def bind(self, params: dict[str, Tensor]) -> None:
        """Bind the state to ``params``, or check that it is bound to them.

        An unbound state refuses, with a ShapeError naming the key, a moment
        of no parameter, one shaped unlike its parameter, one without its
        partner (``opt.m.`` and ``opt.v.`` go in pairs), a missing moment
        once ``t`` is past 0 (so Adam never silently restarts from zero
        moments) and a negative second moment.  Otherwise it copies the
        parameters and moments (zeros where one is missing) into new
        vectors and points each parameter at its master view; ``moments``
        keep their order, and new keys go last, m before v, in parameter
        order.  A bound state takes only the parameters it holds, in
        order, each still at its master view; anything else is a
        TrainingError naming the first parameter that differs.  A refusal
        changes nothing."""
        if self.params is not None:
            given, held = list(params.items()), list(self.params.items())
            for i in range(max(len(given), len(held))):
                if given[i : i + 1] != held[i : i + 1] or given[i][1].data is not self.masters[i]:
                    name = (given[i] if i < len(given) else held[i])[0]
                    raise TrainingError(f"the training state is bound to other parameters: {name!r} differs")
            return
        shapes = {f"opt.{kind}.{name}": p.data.shape for name, p in params.items() for kind in "mv"}
        for key, moment in self.moments.items():
            if key not in shapes:
                raise ShapeError(f"tensor {key!r} is not an opt.m./opt.v. moment of a parameter")
            if moment.shape != shapes[key]:
                raise ShapeError(f"tensor {key!r} has shape {moment.shape}, its parameter {shapes[key]}")
            partner = ("opt.v." if key.startswith("opt.m.") else "opt.m.") + key[len("opt.m."):]
            if partner not in self.moments:
                raise ShapeError(f"tensor {key!r} has no partner {partner!r}")
            if key.startswith("opt.v.") and (moment < 0).any():
                raise ShapeError(f"tensor {key!r} has a negative value; a second moment is nonnegative")
        missing = [key for key in shapes if key not in self.moments]
        if self.t and missing:
            raise ShapeError(f"tensor {missing[0]!r} is missing at step {self.t}; past step 0 Adam needs every moment")
        ends = list(itertools.accumulate(p.data.size for p in params.values()))
        self.master, self.m, self.v, self.scratch = (np.zeros(ends[-1] if ends else 0) for _ in range(4))
        self.work = np.empty(self.master.size, np.float32)

        def views(vector):
            return [vector[end - p.data.size : end].reshape(p.data.shape) for end, p in zip(ends, params.values())]

        self.masters, self.works = views(self.master), views(self.work)
        for name, p, master, m, v in zip(params, params.values(), self.masters, views(self.m), views(self.v)):
            np.copyto(master, p.data)
            for key, view in ((f"opt.m.{name}", m), (f"opt.v.{name}", v)):
                if key in self.moments:
                    np.copyto(view, self.moments[key])
                self.moments[key] = view
        self.params = dict(params)
        self.point(self.masters)

    def point(self, views: list[np.ndarray]) -> None:
        """Set each bound parameter's ``data`` to its view in ``views``."""
        for p, view in zip(self.params.values(), views):
            p.data = view


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, Optional[np.ndarray]],
    state: OptimizerState,
    lr: float,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place, on the vectors of
    ``state`` bound to ``params`` (see :class:`OptimizerState`).

    Weight decay is decoupled: parameters shrink by (1 - lr * decay)
    before the gradient step.  At lr 0 the parameters keep their values
    while ``t`` and the moments advance.  A missing gradient counts as
    zeros.  A gradient shaped unlike its parameter, or a non-finite one,
    refuses the step before anything in the state or the parameters
    changes, so a fresh state stays unbound.
    """
    if lr < 0:
        raise ShapeError(f"adam_step needs lr >= 0, got {lr}")
    for name, p in params.items():
        if grads.get(name) is not None and grads[name].shape != p.data.shape:
            raise ShapeError(f"gradient for {name!r} has shape {grads[name].shape}, parameter is {p.data.shape}")
    g = np.concatenate([np.zeros(p.data.size) if grads.get(name) is None else grads[name].ravel()
                        for name, p in params.items()], dtype=np.float64)
    if not np.isfinite(g).all():
        bad = next(name for name in params if grads.get(name) is not None and not np.isfinite(grads[name]).all())
        raise TrainingError(f"non-finite gradient in {bad!r} at step {state.t + 1}")
    state.bind(params)
    state.t += 1
    beta1, beta2 = config.beta1, config.beta2
    m, v, p, s = state.m, state.v, state.master, state.scratch
    m *= beta1
    m += np.multiply(1.0 - beta1, g, out=s)
    v *= beta2
    np.multiply(g, g, out=s)
    s *= 1.0 - beta2
    v += s
    if config.weight_decay:
        p *= 1.0 - lr * config.weight_decay
    # p -= lr * (m / c1) / (sqrt(v / c2) + eps), each op in the per-tensor order, so every rounding matches
    np.divide(v, 1.0 - beta2**state.t, out=s)
    np.sqrt(s, out=s)
    s += ADAM_EPS
    step = m / (1.0 - beta1**state.t)
    step *= lr
    step /= s
    p -= step


def lr_at(step: int, total_steps: int, config: TrainConfig) -> float:
    """Piecewise-linear schedule: 0 to base_lr over the warmup span, then
    base_lr back to 0 at ``total_steps``.

    The warmup span is the warmup-epoch fraction of ``total_steps``; a
    0-epoch schedule has none, so its step 0 is at base_lr.
    """
    if not 0 <= step <= total_steps:
        raise ShapeError(f"step {step} outside [0, {total_steps}]")
    warmup_steps = (total_steps * config.warmup_epochs) // config.epochs if config.epochs else 0
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
    Every parameter must be float64: the state binds to the parameters,
    so its master vector takes their values over and each ``data``
    becomes a view of that vector (see the module docstring).  Returns
    the per-step loss curve; aborts on non-finite loss.
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
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise TrainingError(f"parameter {name!r} is {p.data.dtype}: training keeps float64 master weights")
    state.bind(params)
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
            np.copyto(state.work, state.master)
            try:
                state.point(state.works)
                with Tape():
                    loss, correct = trainable.batch_loss(images, labels, *priors)
                loss_value = loss.item()
                if not math.isfinite(loss_value):
                    raise TrainingError(f"non-finite loss {loss_value} at step {state.t + 1}")
                backward(loss)
            finally:
                state.point(state.masters)
            lr = lr_at(state.t + 1, total_steps, config)
            adam_step(params, {name: p.grad for name, p in params.items()}, state, lr, config)
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
