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
:func:`adam_step` the float32 leaf gradients, which it gathers into one
float64 gradient vector.  Adam's two moments are float64 vectors too,
so an update is a handful of whole-vector operations (the flat-parameter
idiom of fairseq's ``FP16Optimizer``); float32's exponent range makes
loss scaling unnecessary.

The training state is one :class:`OptimizerState`: its ``t`` counts the
Adam updates applied, which is the training step, its ``flat`` holds the
vectors, and its ``moments`` are their views keyed as a checkpoint
stores them, so a checkpoint's ``step`` and leftover tensors, read back
by :func:`resume_state`, are the state a resumed run continues from.
Every step applies an update, even at learning rate 0 (the last step of
a decaying schedule), which leaves the parameters unchanged and folds
the gradient into the moments.
"""

from __future__ import annotations

import bisect
import itertools
import math
import reprlib
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
        if not 0 <= self.warmup_epochs <= self.epochs:
            raise ShapeError(f"warmup_epochs {self.warmup_epochs} must be in [0, epochs {self.epochs}]")
        if self.batch_size < 1:
            raise ShapeError("batch_size must be >= 1")
        if not 0 < self.base_lr < math.inf:
            raise ShapeError(f"base_lr must be finite and positive, got {self.base_lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1 and 0 <= self.weight_decay < math.inf):
            raise ShapeError(f"beta1 and beta2 must be in [0, 1) and weight_decay finite and nonnegative, got {self}")


class FlatVectors:
    """A training run's state as flat vectors in the order of its
    parameters: float64 ``master`` weights, first and second moments
    ``m`` and ``v``, and gathered gradient ``grad``, a float32 ``work``
    copy of the masters and a float64 ``scratch`` vector.  ``masters``,
    ``ms``, ``vs``, ``grads`` and ``works`` hold each parameter's reshaped
    view of the vector of that name.

    The vectors start as copies, at their own dtypes, of the parameters'
    arrays and of ``moments``' ``opt.m.<name>``/``opt.v.<name>`` entries
    (zeros where one is missing, a ShapeError where one is shaped unlike
    its parameter); neither is touched until a state adopts the vectors
    (:meth:`OptimizerState.adopt`)."""

    def __init__(self, params: dict[str, Tensor], moments: dict[str, np.ndarray]):
        self.names = list(params)
        self.tensors = list(params.values())
        shapes = [p.data.shape for p in self.tensors]
        self.ends = list(itertools.accumulate(p.data.size for p in self.tensors))
        size = self.ends[-1] if self.ends else 0
        self.master, self.m, self.v, self.grad, self.scratch = (np.zeros(size) for _ in range(5))
        self.work = np.empty(size, np.float32)

        def views(vector):
            return [vector[end - math.prod(shape) : end].reshape(shape) for end, shape in zip(self.ends, shapes)]

        self.masters, self.ms, self.vs, self.grads, self.works = map(
            views, (self.master, self.m, self.v, self.grad, self.work))
        for name, p, master, m, v in zip(self.names, self.tensors, self.masters, self.ms, self.vs):
            np.copyto(master, p.data)
            for key, view in ((f"opt.m.{name}", m), (f"opt.v.{name}", v)):
                if key in moments:
                    if moments[key].shape != view.shape:
                        raise ShapeError(f"moment {key!r} has shape {moments[key].shape}, parameter is {view.shape}")
                    np.copyto(view, moments[key])

    def holds(self, params: dict[str, Tensor]) -> bool:
        """Whether ``params`` are the parameters these vectors were built
        from, in order, each pointing at its master view."""
        return list(params) == self.names and all(
            p is tensor and p.data is master for p, tensor, master in zip(params.values(), self.tensors, self.masters))

    def point(self, views: list[np.ndarray]) -> None:
        """Set each parameter's ``data`` to its view in ``views``."""
        for p, view in zip(self.tensors, views):
            p.data = view

    def gather(self, grads: dict[str, Optional[np.ndarray]]) -> None:
        """Copy each parameter's gradient into ``grad``, zeros where it has
        none; a gradient shaped unlike its parameter is a ShapeError."""
        for name, view in zip(self.names, self.grads):
            g = grads.get(name)
            if g is None:
                view.fill(0.0)
            elif g.shape != view.shape:
                raise ShapeError(f"gradient for {name!r} has shape {g.shape}, parameter is {view.shape}")
            else:
                np.copyto(view, g)

    def first_false(self, ok: np.ndarray) -> Optional[str]:
        """The name of the parameter that holds ``ok``'s first False, or
        None if ``ok`` is all True."""
        return None if ok.all() else self.names[bisect.bisect_right(self.ends, int(np.argmin(ok)))]


@dataclass
class OptimizerState:
    """The updates applied so far, ``t``, and each parameter's first and
    second moments, keyed ``opt.m.<param>`` and ``opt.v.<param>``.

    Once the state has stepped, or a training run has started on it,
    ``flat`` holds the run's vectors, every parameter's ``data`` is a view
    of its master vector and every moment a view of a moment vector.  A
    state given other parameters, or parameters pointed elsewhere, builds
    new vectors from them and its moments."""

    moments: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0
    flat: Optional[FlatVectors] = field(default=None, repr=False, compare=False)

    def vectors(self, params: dict[str, Tensor]) -> FlatVectors:
        """``flat`` if it holds ``params``, else new vectors built from
        ``params`` and ``moments``, not yet adopted."""
        if self.flat is not None and self.flat.holds(params):
            return self.flat
        return FlatVectors(params, self.moments)

    def adopt(self, flat: FlatVectors) -> None:
        """Make ``flat`` the state's vectors: if they are new, point each
        parameter at its master view and set each of its two ``moments``
        entries to its view (new keys go last, m before v, in parameter
        order)."""
        if flat is not self.flat:
            flat.point(flat.masters)
            for name, m, v in zip(flat.names, flat.ms, flat.vs):
                self.moments[f"opt.m.{name}"], self.moments[f"opt.v.{name}"] = m, v
            self.flat = flat


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, Optional[np.ndarray]],
    state: OptimizerState,
    lr: float,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update, in place, on the state's flat
    vectors (see :class:`OptimizerState`).

    Weight decay is decoupled: parameters shrink by (1 - lr * decay)
    before the gradient step.  At lr 0 the parameters keep their values
    while ``t`` and the moments advance.  A missing gradient counts as
    zeros.  A gradient shaped unlike its parameter, or a non-finite one,
    refuses the step before anything in the state or the parameters
    changes.
    """
    if lr < 0:
        raise ShapeError(f"adam_step needs lr >= 0, got {lr}")
    flat = state.vectors(params)
    flat.gather(grads)
    bad = flat.first_false(np.isfinite(flat.grad))
    if bad is not None:
        raise TrainingError(f"non-finite gradient in {bad!r} at step {state.t + 1}")
    state.adopt(flat)
    state.t += 1
    beta1, beta2 = config.beta1, config.beta2
    g, m, v, p, s = flat.grad, flat.m, flat.v, flat.master, flat.scratch
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


def resume_state(path: str, header: dict, moments: dict[str, np.ndarray],
                 params: dict[str, Tensor]) -> tuple[OptimizerState, int]:
    """The training state and epoch count of the checkpoint at ``path``:
    its integers in [0, 2**63) ``step`` (the state's ``t``) and ``epoch``,
    and past ``params`` its ``moments``, opt.m./opt.v. pairs shaped like
    their parameters, every pair once ``step`` > 0; the parameters and
    moments must be finite and the second moments nonnegative.  Anything
    else is a FormatError naming ``path`` and the key.  Once the
    checkpoint checks out, the state's flat float64 vectors hold
    ``params`` and the moments, each parameter's ``data`` is its master
    view (a loaded checkpoint holds float32) and the state's ``moments``
    keep the checkpoint's order."""
    for key in ("step", "epoch"):
        if type(header.get(key)) is not int or not 0 <= header[key] < 2**63:
            raise FormatError(f"{path}: checkpoint key {key!r} must be an integer in [0, 2**63), "
                              f"got {reprlib.repr(header.get(key))}")
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
    state = OptimizerState(moments=dict(moments), t=header["step"])
    flat = FlatVectors(params, state.moments)
    for prefix, ok, rule in (("", np.isfinite(flat.master), "finite"),
                             ("opt.m.", np.isfinite(flat.m), "finite"),
                             ("opt.v.", np.isfinite(flat.v) & (flat.v >= 0), "finite and nonnegative")):
        bad = flat.first_false(ok)
        if bad is not None:
            raise FormatError(f"{path}: checkpoint tensor {prefix + bad!r} has a value that is not {rule}")
    state.adopt(flat)
    return state, header["epoch"]


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
    Every parameter must be float64: the state's master vector takes its
    values over, and its ``data`` becomes a view of that vector (see the
    module docstring).  Returns the per-step loss curve; aborts on
    non-finite loss.
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
    flat = state.vectors(params)
    state.adopt(flat)
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
            np.copyto(flat.work, flat.master)
            try:
                flat.point(flat.works)
                with Tape():
                    loss, correct = trainable.batch_loss(images, labels, *priors)
                loss_value = loss.item()
                if not math.isfinite(loss_value):
                    raise TrainingError(f"non-finite loss {loss_value} at step {state.t + 1}")
                backward(loss)
            finally:
                flat.point(flat.masters)
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
