"""Plain-text run configuration.

Files hold ``key = value`` lines with ``#`` comments.  :data:`SCHEMA`
declares every key's type, default and rule, :data:`RELATIONS` the rules
that tie keys together; an unknown key or a value breaking a rule fails
loudly, naming the key.  Each command writes its fully-resolved
configuration next to its outputs, and a run is reproducible from that
file alone.

The global ``seed`` is added to every component seed (data, model,
prior, training, ood), so overriding it shifts the whole run while the
components keep distinct streams.  Every seed is a U64, in [0, 2**64).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Optional

from .data import OOD_KINDS
from .errors import ConfigError
from .metrics import ORIENTATION_POLICIES
from .scoring import GUIDANCE_KINDS, SCORE_FIELDS


def _at_least(low):
    return (lambda value: value >= low), f"at least {low}"


def _one_of(allowed):
    return (lambda value: value in allowed), f"one of {', '.join(allowed)}"


POSITIVE = (lambda value: value > 0), "greater than 0"
FRACTION = (lambda value: 0 <= value < 1), "in [0, 1)"
NONZERO = (lambda value: value != 0), "not 0"
U64 = (lambda value: 0 <= value < 2**64), "a U64, in [0, 2**64)"

# key -> (type tag, default, rule or None).  Tags: int, float (finite), str, list_str, list_float;
# a rule is (test that every value or list entry must pass, what passing values are); list entries differ.
SCHEMA: dict[str, tuple[str, Any, Optional[tuple]]] = {
    "out.dir": ("str", "runs", None),
    "seed": ("int", 7, U64),
    # dataset construction
    "data.kind": ("str", "synth", _one_of(("synth", "idx"))),
    "data.classes": ("int", 4, _at_least(2)),
    "data.image_size": ("int", 28, _at_least(1)),
    "data.channels": ("int", 1, _at_least(1)),
    "data.train_per_class": ("int", 500, _at_least(1)),
    "data.test_per_class": ("int", 100, _at_least(1)),
    "data.noise_sigma": ("float", 0.2, _at_least(0)),
    "data.seed": ("int", 11, U64),
    "data.split_seed": ("int", 12, U64),
    "data.idx_train_images": ("str", "", None),
    "data.idx_train_labels": ("str", "", None),
    "data.idx_test_images": ("str", "", None),
    "data.idx_test_labels": ("str", "", None),
    "data.normalize_mean": ("float", 0.0, None),
    "data.normalize_std": ("float", 1.0, NONZERO),
    # OOD test sets
    "ood.kinds": ("list_str", ["uniform-noise", "pattern-shift", "inverted"], _one_of(OOD_KINDS)),
    "ood.count": ("int", 400, _at_least(1)),
    "ood.seed": ("int", 99, U64),
    # transformer architecture
    "model.patch": ("int", 7, _at_least(1)),
    "model.dim": ("int", 64, _at_least(1)),
    "model.depth": ("int", 4, _at_least(0)),
    "model.heads": ("int", 4, _at_least(1)),
    "model.mlp_dim": ("int", 128, _at_least(1)),
    "model.alpha": ("float", 0.1, _at_least(0)),
    "model.seed": ("int", 55, U64),
    # prior classifier
    "prior.hidden": ("int", 128, _at_least(1)),
    "prior.epochs": ("int", 8, _at_least(0)),
    "prior.batch_size": ("int", 64, _at_least(1)),
    "prior.base_lr": ("float", 3e-3, POSITIVE),
    "prior.warmup_epochs": ("int", 1, _at_least(0)),
    "prior.weight_decay": ("float", 0.0, _at_least(0)),
    "prior.seed": ("int", 21, U64),
    # transformer training
    "train.epochs": ("int", 10, _at_least(0)),
    "train.batch_size": ("int", 32, _at_least(1)),
    "train.base_lr": ("float", 3e-4, POSITIVE),
    "train.warmup_epochs": ("int", 1, _at_least(0)),
    "train.beta1": ("float", 0.9, FRACTION),
    "train.beta2": ("float", 0.999, FRACTION),
    "train.weight_decay": ("float", 1e-3, _at_least(0)),
    "train.seed": ("int", 33, U64),
    "train.resume": ("str", "", None),
    # artifact locations (empty means: derive from the output directory)
    "paths.prior_checkpoint": ("str", "", None),
    "paths.pvit_checkpoint": ("str", "", None),
    "paths.logits_dir": ("str", "", None),
    # scoring and evaluation
    "score.guidance": ("str", "ce", _one_of(GUIDANCE_KINDS)),
    "score.predicted_logits": ("str", "", None),  # dir of logits files: no-prior-token ablation
    "eval.scores": ("list_str", ["pge"], _one_of(SCORE_FIELDS)),
    "eval.orientation": ("str", "auto", _one_of(ORIENTATION_POLICIES)),
    "eval.bins": ("int", 30, _at_least(2)),
    # attention dumps
    "attention.layer": ("int", -1, None),
    "attention.head": ("int", 0, None),
    "attention.alphas": ("list_float", [], _at_least(0)),
    "attention.max_samples": ("int", 8, _at_least(1)),
    "attention.dataset": ("str", "id-test", None),
}

# (keys, test over their values, what must hold)
RELATIONS = (
    (("model.dim", "model.heads"), lambda dim, heads: dim % heads == 0, "the dim must split evenly into the heads"),
    (("prior.warmup_epochs", "prior.epochs"), operator.le, "warmup cannot outlast training"),
    (("train.warmup_epochs", "train.epochs"), operator.le, "warmup cannot outlast training"),
)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


_PARSERS = {
    "int": int,
    "float": _finite,
    "str": str,
    "list_str": lambda raw: [part.strip() for part in raw.split(",") if part.strip()],
    "list_float": lambda raw: [_finite(part) for part in raw.split(",") if part.strip()],
}


def _parse_value(key: str, tag: str, raw: str):
    try:
        return _PARSERS[tag](raw.strip())
    except ValueError:
        raise ConfigError(f"config key {key!r}: {raw.strip()!r} is not a valid {tag}") from None


def _format_value(tag: str, value) -> str:
    if tag in ("list_str", "list_float"):
        return ",".join(repr(v) if tag == "list_float" else str(v) for v in value)
    if tag == "float":
        return repr(value)
    return str(value)


@dataclass
class RunConfig:
    values: dict[str, Any]

    def __post_init__(self):
        for key, (tag, _, rule) in SCHEMA.items():
            entries = self.values[key] if tag.startswith("list_") else [self.values[key]]
            for i, entry in enumerate(entries):
                if rule and not rule[0](entry):
                    raise ConfigError(f"config key {key!r}: {entry!r} is not {rule[1]}")
                if entry in entries[:i]:
                    raise ConfigError(f"config key {key!r}: {entry!r} is repeated")
        for keys, test, must in RELATIONS:
            if not test(*(self.values[key] for key in keys)):
                named = ", ".join(f"{key!r} = {self.values[key]!r}" for key in keys)
                raise ConfigError(f"config keys {named}: {must}")

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def require_path(self, key: str) -> str:
        """Value of a path-valued key, rejecting empty with the key named."""
        value = self[key]
        if not value:
            raise ConfigError(f"config key {key!r} is required for this command but is empty")
        return value

    def seed_for(self, component_key: str) -> int:
        return int(self.values["seed"]) + int(self.values[component_key])

    def resolved_text(self) -> str:
        lines = ["# fully resolved run configuration"]
        for key, (tag, _, _) in SCHEMA.items():
            lines.append(f"{key} = {_format_value(tag, self.values[key])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "RunConfig":
        values = {key: default for key, (_, default, _) in SCHEMA.items()}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
            key, raw = stripped.split("=", 1)
            key = key.strip()
            if key not in SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_value(key, SCHEMA[key][0], raw)
        return cls(values)

    @classmethod
    def load(cls, path: Optional[str] = None, overrides: Optional[dict[str, Any]] = None) -> "RunConfig":
        if path is None:
            values = {key: default for key, (_, default, _) in SCHEMA.items()}
        else:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    values = cls.from_text(fh.read(), source=path).values
            except OSError as exc:
                raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        for key in overrides or {}:
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
        return cls({**values, **(overrides or {})})
