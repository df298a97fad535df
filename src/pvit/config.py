"""Plain-text run configuration.

Files hold ``key = value`` lines with ``#`` comments.  Every key is
declared in the schema below; unknown keys are rejected so typos fail
loudly.  Each command writes its fully-resolved configuration (all
defaults filled in) next to its outputs, and a run is reproducible from
that file alone.

The global ``seed`` is added to every component seed (data, model,
prior, training, ood), so overriding it shifts the whole run while the
components keep distinct streams.  Every seed is a U64, in [0, 2**64).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .errors import ConfigError

# key -> (type tag, default); tags: int, float, str, list_str, list_float
SCHEMA: dict[str, tuple[str, Any]] = {
    "out.dir": ("str", "runs"),
    "seed": ("int", 7),
    # dataset construction
    "data.kind": ("str", "synth"),  # synth | idx
    "data.classes": ("int", 4),
    "data.image_size": ("int", 28),
    "data.channels": ("int", 1),
    "data.train_per_class": ("int", 500),
    "data.test_per_class": ("int", 100),
    "data.noise_sigma": ("float", 0.2),
    "data.seed": ("int", 11),
    "data.split_seed": ("int", 12),
    "data.idx_train_images": ("str", ""),
    "data.idx_train_labels": ("str", ""),
    "data.idx_test_images": ("str", ""),
    "data.idx_test_labels": ("str", ""),
    "data.normalize_mean": ("float", 0.0),
    "data.normalize_std": ("float", 1.0),
    # OOD test sets
    "ood.kinds": ("list_str", ["uniform-noise", "pattern-shift", "inverted"]),
    "ood.count": ("int", 400),
    "ood.seed": ("int", 99),
    # transformer architecture
    "model.patch": ("int", 7),
    "model.dim": ("int", 64),
    "model.depth": ("int", 4),
    "model.heads": ("int", 4),
    "model.mlp_dim": ("int", 128),
    "model.alpha": ("float", 0.1),
    "model.seed": ("int", 55),
    # prior classifier
    "prior.hidden": ("int", 128),
    "prior.epochs": ("int", 8),
    "prior.batch_size": ("int", 64),
    "prior.base_lr": ("float", 3e-3),
    "prior.warmup_epochs": ("int", 1),
    "prior.weight_decay": ("float", 0.0),
    "prior.seed": ("int", 21),
    # transformer training
    "train.epochs": ("int", 10),
    "train.batch_size": ("int", 32),
    "train.base_lr": ("float", 3e-4),
    "train.warmup_epochs": ("int", 1),
    "train.beta1": ("float", 0.9),
    "train.beta2": ("float", 0.999),
    "train.weight_decay": ("float", 1e-3),
    "train.seed": ("int", 33),
    "train.resume": ("str", ""),
    # artifact locations (empty means: derive from the output directory)
    "paths.prior_checkpoint": ("str", ""),
    "paths.pvit_checkpoint": ("str", ""),
    "paths.logits_dir": ("str", ""),
    # scoring and evaluation
    "score.guidance": ("str", "ce"),
    "score.predicted_logits": ("str", ""),  # dir of logits files: no-prior-token ablation
    "eval.scores": ("list_str", ["pge"]),
    "eval.orientation": ("str", "auto"),
    "eval.bins": ("int", 30),
    # attention dumps
    "attention.layer": ("int", -1),
    "attention.head": ("int", 0),
    "attention.alphas": ("list_float", []),
    "attention.max_samples": ("int", 8),
    "attention.dataset": ("str", "id-test"),
}


def _parse_value(key: str, tag: str, raw: str):
    raw = raw.strip()
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "str":
            return raw
        if tag == "list_str":
            return [part.strip() for part in raw.split(",") if part.strip()]
        if tag == "list_float":
            return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {tag}") from None
    raise ConfigError(f"config key {key!r}: unknown type tag {tag!r}")


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
        for key, value in self.values.items():
            if key.endswith("seed") and not 0 <= value < 2**64:
                raise ConfigError(f"config key {key!r}: a seed must be a U64 in [0, 2**64), got {value}")

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
        for key, (tag, _) in SCHEMA.items():
            lines.append(f"{key} = {_format_value(tag, self.values[key])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, source: str = "<config>") -> "RunConfig":
        values = {key: default for key, (_, default) in SCHEMA.items()}
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
            values = {key: default for key, (_, default) in SCHEMA.items()}
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
