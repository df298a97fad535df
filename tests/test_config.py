"""The model and training dataclasses against ``pvit.config``: each field
a config key sets refuses what the key's SCHEMA rule refuses, naming the
field, and the defaults the library hands out stay put."""

import dataclasses
import math
import reprlib
import sys

import pytest

from pvit.config import SCHEMA, keyed_fields
from pvit.errors import ShapeError
from pvit.model import PViTConfig
from pvit.priors import MLPConfig
from pvit.train import TrainConfig

# each dataclass, with what its fields no key sets need
CLASSES = {PViTConfig: {}, TrainConfig: {}, MLPConfig: {"input_dim": 1}}


def refused(key):
    """The values at the edge of what ``key``'s rule allows, plus the
    values a float key refuses as not finite: infinities, NaN and an
    integer no float64 holds."""
    tag, _, rule = SCHEMA[key]
    what = rule[1] if rule else ""
    values = []
    if what.startswith("at least "):
        values.append(int(what.removeprefix("at least ")) - 1)
    elif what == "greater than 0":
        values.append(0)
    elif what == "in [0, 1)":
        values += [-0.1, 1.0, 1.5]
    if tag == "float":
        values = [float(value) for value in values] + [math.inf, -math.inf, math.nan, 10**400]
    assert values, f"no refused value known for {key!r}, whose rule is {what!r}"
    for value in values:
        assert not (abs(value) <= sys.float_info.max and rule[0](value)), (key, value)
    return values


CASES = [pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={reprlib.repr(value)}")
         for cls in CLASSES for name, key in keyed_fields(cls).items() for value in refused(key)]


@pytest.mark.parametrize("cls, name, value", CASES)
def test_each_keyed_field_refuses_what_its_key_refuses(cls, name, value):
    with pytest.raises(ShapeError, match=rf"^{name} must be .*, got {cls.__name__}\("):
        cls(**CLASSES[cls], **{name: value})


def test_every_keyed_field_is_covered():
    """The keyed fields the refusals above walk, in field order: every field
    of the three dataclasses but the image shape, the pixel count and the
    resolved seed."""
    assert {cls.__name__: list(keyed_fields(cls).values()) for cls in CLASSES} == {
        "PViTConfig": ["model.patch", "model.dim", "model.depth", "model.heads", "model.mlp_dim",
                       "data.classes", "model.alpha"],
        "TrainConfig": ["train.epochs", "train.batch_size", "train.base_lr", "train.warmup_epochs",
                        "train.beta1", "train.beta2", "train.weight_decay"],
        "MLPConfig": ["prior.hidden", "data.classes"],
    }


def test_a_break_of_two_keys_names_the_first_field():
    """Negative epochs and warmup: the epoch count's own rule is applied
    before the warmup's and before the relation between the two."""
    with pytest.raises(ShapeError, match=r"^epochs must be at least 0 \(config key 'train.epochs'\)"):
        TrainConfig(epochs=-3, warmup_epochs=-3)


@pytest.mark.parametrize("cls, changes, named", [
    (PViTConfig, dict(embed_dim=10, heads=4), "embed_dim and heads: the dim must split evenly into the heads"),
    (TrainConfig, dict(epochs=3, warmup_epochs=4), "warmup_epochs and epochs: warmup cannot outlast training"),
], ids=["dim-by-heads", "warmup-within-epochs"])
def test_relations_among_a_dataclass_s_keys_hold(cls, changes, named):
    with pytest.raises(ShapeError, match=rf"^{named}, got {cls.__name__}\("):
        cls(**changes)


@pytest.mark.parametrize("cls", [PViTConfig, MLPConfig])
def test_one_class_is_refused(cls):
    """``num_classes`` is ``data.classes``, which needs at least 2."""
    with pytest.raises(ShapeError, match=r"^num_classes must be at least 2 \(config key 'data.classes'\)"):
        cls(**CLASSES[cls], num_classes=1)


def test_library_defaults_are_pinned():
    """The three dataclasses' defaults, which ``perfbench`` builds on, as
    literals: taking them from SCHEMA did not move them."""
    assert dataclasses.asdict(PViTConfig()) == {
        "image_h": 28, "image_w": 28, "channels": 1, "patch_size": 7, "embed_dim": 64, "depth": 4,
        "heads": 4, "mlp_dim": 128, "num_classes": 4, "alpha": 0.1}
    assert dataclasses.asdict(TrainConfig()) == {
        "epochs": 10, "batch_size": 32, "base_lr": 3e-4, "warmup_epochs": 1, "beta1": 0.9, "beta2": 0.999,
        "weight_decay": 1e-3, "seed": 0}
    assert dataclasses.asdict(MLPConfig(input_dim=1)) == {"input_dim": 1, "hidden_dim": 128, "num_classes": 4}
    assert type(PViTConfig().alpha) is float and type(TrainConfig().epochs) is int
