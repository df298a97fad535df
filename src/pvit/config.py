"""Plain-text run configuration.

Files hold ``key = value`` lines with ``#`` comments.  :data:`SCHEMA`
declares every key's type, default and rule, :data:`RELATIONS` the rules
that tie keys together: each rule on the settings alone, tested for
every command as :class:`RunConfig` is built.  An unknown key, a key set
twice or a value breaking a rule fails loudly, naming the key.  Each
command writes its fully-resolved configuration next to its outputs,
and a run is reproducible from that file alone.

A model or training dataclass field that a key sets is the key's
:func:`setting`, with the key's default, and :func:`check` tests every
field's type and each keyed field's rule, so each setting, and each
closed set a key's values come from, is declared here alone; this
module imports nothing of the package but its errors.

The global ``seed`` is added to every component seed (data, model,
prior, training, ood), so overriding it shifts the whole run while the
components keep distinct streams.  Every seed is a U64, in [0, 2**64).
"""

from __future__ import annotations

import operator
import reprlib
import sys
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from .errors import ConfigError, ShapeError

OOD_KINDS = ("uniform-noise", "pattern-shift", "inverted")
GUIDANCE_KINDS = ("ce", "kl", "ed")
# every score a record holds: its own fields, then its baselines
SCORE_FIELDS = ("pge", "base", "guidance", "msp", "max_logit", "energy")
ORIENTATIONS = ("as-is", "negated")
# what evaluate's orientation_policy (and eval.orientation) accepts: "auto" picks one of ORIENTATIONS
ORIENTATION_POLICIES = ORIENTATIONS + ("auto",)
# the most histogram bins eval takes: it holds every histogram's lines before it writes one
MAX_BINS = 100_000


def _at_least(low):
    return (lambda value: value >= low), f"at least {low}"


def _in_range(low, high):
    return (lambda value: low <= value <= high), f"in [{low}, {high}]"


def _one_of(allowed):
    return (lambda value: value in allowed), f"one of {', '.join(allowed)}"


POSITIVE = (lambda value: value > 0), "greater than 0"
FRACTION = (lambda value: 0 <= value < 1), "in [0, 1)"
NONZERO = (lambda value: value != 0), "not 0"
U64 = (lambda value: 0 <= value < 2**64), "a U64, in [0, 2**64)"
NONEMPTY = (lambda value: value != ""), "a nonempty path"

# key -> (type tag, default, rule or None).  Tags: int, float (finite), str, list_str, list_float;
# a rule is (test that every value or list entry must pass, what passing values are); list entries differ.
SCHEMA: dict[str, tuple[str, Any, Optional[tuple]]] = {
    "out.dir": ("str", "runs", NONEMPTY),
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
    # prior classifier (its Adam takes train.beta1 and train.beta2: there are no prior.beta* keys)
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
    "eval.bins": ("int", 30, _in_range(2, MAX_BINS)),
    # attention dumps
    "attention.layer": ("int", -1, None),
    "attention.head": ("int", 0, None),
    "attention.alphas": ("list_float", [], _at_least(0)),
    "attention.max_samples": ("int", 8, _at_least(1)),
    "attention.dataset": ("str", "id-test", None),
}

# (keys, test over their values, what must hold); every command checks them all as RunConfig is built
RELATIONS = (
    (("model.dim", "model.heads"), lambda dim, heads: dim % heads == 0, "the dim must split evenly into the heads"),
    (("prior.warmup_epochs", "prior.epochs"), operator.le, "warmup cannot outlast training"),
    (("train.warmup_epochs", "train.epochs"), operator.le, "warmup cannot outlast training"),
    *((("data.kind", key), lambda kind, path: kind != "idx" or path != "", "data.kind = idx reads this file")
      for key in ("data.idx_train_images", "data.idx_train_labels", "data.idx_test_images")),
    # a model of depth 0 has no layer to name: attention-dump refuses it
    (("attention.layer", "model.depth"), lambda layer, depth: depth == 0 or -depth <= layer < depth,
     "the layer must be one of the model's, from -depth to depth - 1"),
    (("attention.head", "model.heads"), lambda head, heads: 0 <= head < heads, "the head must be one of the model's"),
    (("attention.dataset", "ood.kinds"),
     lambda split, kinds: split in ("id-train", "id-test", *(f"ood-{kind}" for kind in kinds)),
     "the dataset must be id-train, id-test or ood-<kind> for an ood.kinds entry"),
)


# kind -> (its values' exact types, as a bool is no int nor a numpy scalar; parser; writer); list_<kind>: "a,b,..."
_KINDS = {"int": ((int,), int, str), "float": ((int, float), float, repr), "str": ((str,), str, str)}
INT64 = range(-2**63, 2**63)  # the integers a checkpoint header holds
WRITABLE_INTS = range(1 - 10**4300, 10**4300)  # the integers Python writes in decimal: at most 4,300 digits


def _shown(value, show=repr) -> str:
    """``show(value)``, or the size of an int too long to write in decimal."""
    return show(value) if type(value) is not int or value in WRITABLE_INTS else f"<an int of {value.bit_length()} bits>"


def _broken(tag: str, rule: Optional[tuple], value) -> Optional[str]:
    """What ``value``, a setting's or an entry of a list setting's, fails to be
    under the setting's type tag and then its rule (None for none), or None.
    A float setting takes an int within :data:`INT64`, so that it saves, and
    one that a float64 holds exactly, so that its resolved line reads back;
    an int setting one within :data:`WRITABLE_INTS`, so that its resolved
    line can be written; and a str one what its resolved line reads back
    (each list of strs is a closed set)."""
    kind = tag.removeprefix("list_")
    if type(value) not in _KINDS[kind][0] or (kind == "float" and type(value) is int and value not in INT64):
        return f"{'an' if kind == 'int' else 'a'} {kind}"
    if kind == "float" and type(value) is int and float(value) != value:
        return "a float or an int that a float64 holds exactly"
    if kind == "int" and value not in WRITABLE_INTS:
        return "an int of at most 4300 digits"
    if kind == "float" and not abs(value) <= sys.float_info.max:
        return "finite"
    if kind == "str" and ("#" in value or len(value.splitlines()) > 1 or value != value.strip()
                          or any("\ud800" <= char <= "\udfff" for char in value)):  # UTF-8 holds no surrogate
        return "a str that its resolved line reads back: no '#', line break, surrogate or whitespace at either end"
    return None if rule is None or rule[0](value) else rule[1]


def setting(key: str):
    """A dataclass field that config key ``key`` sets, with the key's default."""
    return field(default=SCHEMA[key][1], metadata={"key": key})


def keyed_fields(cls) -> dict[str, str]:
    """Each :func:`setting` field of dataclass ``cls``, in field order -> its key."""
    return {f.name: f.metadata["key"] for f in fields(cls) if "key" in f.metadata}


def check(config) -> None:
    """Test each field of dataclass instance ``config``, in field order, for its annotation's type
    (``"int"`` or ``"float"``, a SCHEMA tag) and, if a key sets it, the key's rule; then each RELATIONS
    entry whose keys all set fields.  A break raises ShapeError naming the field and showing ``config``,
    each value cut short by :mod:`reprlib`."""
    def shown() -> str:
        values = ", ".join(f"{f.name}={_shown(getattr(config, f.name), reprlib.repr)}" for f in fields(config))
        return f"{type(config).__name__}({values})"

    for f in fields(config):
        key = f.metadata.get("key")
        broken = _broken(f.type, key and SCHEMA[key][2], getattr(config, f.name))
        if broken:
            raise ShapeError(f"{f.name} must be {broken}{f' (config key {key!r})' if key else ''}, got {shown()}")
    names = {key: name for name, key in keyed_fields(type(config)).items()}
    for keys, test, must in RELATIONS:
        if set(keys) <= names.keys() and not test(*(getattr(config, names[key]) for key in keys)):
            raise ShapeError(f"{' and '.join(names[key] for key in keys)}: {must}, got {shown()}")


def _parse_value(key: str, tag: str, raw: str):
    """A value as its line holds it; RunConfig tests it, finiteness included."""
    parse = _KINDS[tag.removeprefix("list_")][1]
    try:
        if tag.startswith("list_"):
            return [parse(part.strip()) for part in raw.split(",") if part.strip()]
        return parse(raw.strip())
    except ValueError:
        raise ConfigError(f"config key {key!r}: {raw.strip()!r} is not a valid {tag}") from None


def _format_value(tag: str, value) -> str:
    write = _KINDS[tag.removeprefix("list_")][2]
    return ",".join(map(write, value)) if tag.startswith("list_") else write(value)


@dataclass
class RunConfig:
    values: dict[str, Any]

    def __post_init__(self):
        for key, (tag, _, rule) in SCHEMA.items():
            entries = self.values[key] if tag.startswith("list_") else [self.values[key]]
            if type(entries) is not list:
                raise ConfigError(f"config key {key!r}: {entries!r} is not a list")
            for i, entry in enumerate(entries):
                broken = _broken(tag, rule, entry)
                if broken:
                    raise ConfigError(f"config key {key!r}: {_shown(entry)} is not {broken}")
                if entry in entries[:i]:
                    raise ConfigError(f"config key {key!r}: {entry!r} is repeated")
        for keys, test, must in RELATIONS:
            if not test(*(self.values[key] for key in keys)):
                named = ", ".join(f"{key!r} = {self.values[key]!r}" for key in keys)
                raise ConfigError(f"config keys {named}: {must}")

    def __getitem__(self, key: str):
        return self.values[key]

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
        set_on: dict[str, int] = {}
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
            if set_on.setdefault(key, lineno) != lineno:
                raise ConfigError(f"{source}: config key {key!r} is set twice, on lines {set_on[key]} and {lineno}")
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
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        for key in overrides or {}:
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
        return cls({**values, **(overrides or {})})
