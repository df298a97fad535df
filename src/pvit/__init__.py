"""Prior-token vision transformer with energy-based OOD scoring.

A self-contained desk-scale stack: a float64 autodiff engine, the
transformer with a prior-knowledge token, prior-logits providers, Adam
training with a warmup/linear-decay schedule, the guided energy scoring
family with MSP / MaxLogit / energy baselines (scored a whole (N, K)
logit block at a time), and an AUROC / FPR95 evaluation harness whose
inclusive threshold rule is :func:`decide`.  The ``pvit`` command line
wires the pieces into the train-prior / train-pvit / score / eval
workflow.
"""

from .data import Dataset, load_idx, make_ood, normalize, split_dataset, synth_dataset
from .metrics import OODMetrics, auroc, decide, evaluate, fpr_at_tpr, histogram_export
from .model import PViTConfig, PViTModel, patchify
from .priors import (
    MLPClassifier,
    ModelSource,
    TableSource,
    export_logits,
    load_logits,
    train_prior_model,
)
from .scoring import ScoreRecord, predict_logits, score_dataset, score_records
from .tensor import Tape, Tensor, backward
from .train import OptimizerState, TrainConfig, adam_step, lr_at, train

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "MLPClassifier",
    "ModelSource",
    "OODMetrics",
    "OptimizerState",
    "PViTConfig",
    "PViTModel",
    "ScoreRecord",
    "TableSource",
    "Tape",
    "Tensor",
    "TrainConfig",
    "adam_step",
    "auroc",
    "backward",
    "decide",
    "evaluate",
    "export_logits",
    "fpr_at_tpr",
    "histogram_export",
    "load_idx",
    "load_logits",
    "lr_at",
    "make_ood",
    "normalize",
    "patchify",
    "predict_logits",
    "score_dataset",
    "score_records",
    "split_dataset",
    "synth_dataset",
    "train",
    "train_prior_model",
    "__version__",
]
