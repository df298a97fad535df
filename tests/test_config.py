"""The model and training dataclasses against ``pvit.config``: each field
refuses a value of another type, each field a config key sets refuses
what the key's SCHEMA rule refuses, naming the field, and the defaults
the library hands out stay put and come from SCHEMA."""

import ast
import dataclasses
import inspect
import math
import os
import pathlib
import reprlib
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pvit.config
from pvit.config import SCHEMA, RunConfig, keyed_fields
from pvit.data import make_ood, synth_dataset
from pvit.errors import ConfigError, ShapeError
from pvit.model import PViTConfig, PViTModel
from pvit.priors import MLPClassifier, MLPConfig
from pvit.train import TrainConfig

# each dataclass, with what its fields no key sets need
CLASSES = {PViTConfig: {}, TrainConfig: {}, MLPConfig: {"input_dim": 1}}


def refused(key):
    """The values at the edge of what ``key``'s rule allows, plus the
    values a float key refuses as not finite, infinities and NaN, or
    as no float: an integer past int64."""
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


def test_config_imports_no_package_module_but_errors():
    """``pvit.config`` is the leaf that every module reads settings from: an
    AST walk finds no import of a ``pvit`` module other than ``.errors``
    (importing ``pvit.config`` runs ``pvit/__init__``, so a fresh-process
    import cannot show this)."""
    tree = ast.parse(pathlib.Path(pvit.config.__file__).read_text())
    package = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "pvit"):
            package.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            package += [alias.name for alias in node.names if alias.name.split(".")[0] == "pvit"]
    assert package == [".errors"]


@pytest.mark.parametrize("cls", list(CLASSES), ids=lambda cls: cls.__name__)
def test_every_field_is_annotated_with_a_schema_tag(cls):
    """``check`` reads each field's type from its annotation, a string under
    ``from __future__ import annotations``: a keyed field's is its key's
    SCHEMA tag, and every field's is ``int`` or ``float``."""
    for f in dataclasses.fields(cls):
        assert f.type in ("int", "float"), (f.name, f.type)
        if "key" in f.metadata:
            assert f.type == SCHEMA[f.metadata["key"]][0], (f.name, f.type)


@pytest.mark.parametrize("function, parameter, key", [
    (PViTConfig, "image_h", "data.image_size"),
    (PViTConfig, "image_w", "data.image_size"),
    (PViTConfig, "channels", "data.channels"),
    (synth_dataset, "size", "data.image_size"),
    (synth_dataset, "channels", "data.channels"),
    (synth_dataset, "noise_sigma", "data.noise_sigma"),
    (make_ood, "size", "data.image_size"),
    (make_ood, "channels", "data.channels"),
    (make_ood, "classes", "data.classes"),
    (make_ood, "noise_sigma", "data.noise_sigma"),
])
def test_library_defaults_that_mirror_a_setting_come_from_schema(function, parameter, key):
    default = inspect.signature(function).parameters[parameter].default
    assert default == SCHEMA[key][1] and type(default) is type(SCHEMA[key][1])


def mistyped(tag):
    """Values a field of annotation ``tag`` refuses as of another type."""
    values = [True, False, "1", None, [1], np.float64(1.0), np.int64(1)]
    return values + [1.0, 2.5] if tag == "int" else values


TYPE_CASES = [pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
              for cls in CLASSES for f in dataclasses.fields(cls) for value in mistyped(f.type)]


@pytest.mark.parametrize("cls, name, value", TYPE_CASES)
def test_each_field_refuses_a_value_of_another_type(cls, name, value):
    """An ``int`` field takes an int and not a bool, a float or a numpy
    scalar; a ``float`` field takes an int or a float, not a numpy one."""
    tag = {f.name: f.type for f in dataclasses.fields(cls)}[name]
    with pytest.raises(ShapeError, match=rf"^{name} must be an? {tag}\b.*, got {cls.__name__}\("):
        cls(**{**CLASSES[cls], name: value})


@pytest.mark.parametrize("cls, changes, named", [
    (PViTConfig, dict(alpha=True), "alpha must be a float (config key 'model.alpha')"),
    (PViTConfig, dict(embed_dim=16.0), "embed_dim must be an int (config key 'model.dim')"),
    (PViTConfig, dict(depth="4"), "depth must be an int (config key 'model.depth')"),
    (PViTConfig, dict(embed_dim=np.int64(16), depth=1, heads=2, mlp_dim=8),
     "embed_dim must be an int (config key 'model.dim')"),
    (TrainConfig, dict(epochs=2.5), "epochs must be an int (config key 'train.epochs')"),
    (PViTConfig, dict(alpha=2**63), "alpha must be a float (config key 'model.alpha')"),
    (PViTConfig, dict(alpha=2**63 - 1),
     "alpha must be a float or an int that a float64 holds exactly (config key 'model.alpha')"),
], ids=["alpha-bool", "embed_dim-float", "depth-str", "embed_dim-numpy", "epochs-float", "alpha-int-past-int64",
        "alpha-int-no-float64-holds"])
def test_a_mistyped_value_is_refused_naming_its_field(cls, changes, named):
    """Each of these was accepted, or failed with a bare TypeError, or
    later, at save or in training."""
    with pytest.raises(ShapeError) as info:
        cls(**changes)
    assert str(info.value).startswith(named), str(info.value)


def test_a_float_field_takes_an_int_within_int64():
    """Within int64, as a checkpoint header holds it, and held exactly by a float64."""
    assert PViTConfig(alpha=2**63 - 1024).alpha == 2**63 - 1024 and TrainConfig(base_lr=1).base_lr == 1


def test_a_refused_value_is_echoed_cut_short():
    """The config shown with a refusal cuts each value short, so a huge
    value is never echoed whole."""
    with pytest.raises(ShapeError) as info:
        PViTConfig(depth="4" * 10**6)
    assert len(str(info.value)) < 300


@pytest.mark.parametrize("key, value, named", [
    ("seed", True, "config key 'seed': True is not an int"),
    ("model.dim", 64.0, "config key 'model.dim': 64.0 is not an int"),
    ("model.alpha", "0.1", "config key 'model.alpha': '0.1' is not a float"),
    ("data.kind", 3, "config key 'data.kind': 3 is not a str"),
    ("ood.kinds", ["inverted", 1], "config key 'ood.kinds': 1 is not a str"),
    ("attention.alphas", [1, "x"], "config key 'attention.alphas': 'x' is not a float"),
    ("ood.kinds", "inverted", "config key 'ood.kinds': 'inverted' is not a list"),
    ("attention.alphas", 0.5, "config key 'attention.alphas': 0.5 is not a list"),
])
def test_run_config_refuses_a_value_of_another_type(key, value, named):
    with pytest.raises(ConfigError) as info:
        RunConfig.load(overrides={key: value})
    assert str(info.value) == named


@pytest.mark.parametrize("key, value", [("train.base_lr", 2**53 + 1), ("attention.alphas", [0.5, 2**53 + 1])])
def test_a_float_setting_refuses_an_int_that_no_float64_holds(key, value):
    """Its resolved line would write the int and read back the float
    nearest it, 2**53, so the resolved config would not be the run."""
    with pytest.raises(ConfigError) as info:
        RunConfig.load(overrides={key: value})
    assert str(info.value) == (f"config key {key!r}: 9007199254740993 is not a float or an int that a float64 "
                               "holds exactly")


def test_an_int_too_long_to_write_in_decimal_is_refused_by_its_size():
    """Past 4,300 digits Python writes no int in decimal, so a resolved
    line or a refusal showing it whole would raise; a resolved seed (two
    U64s added) stays well within."""
    huge, named = 4 * 10**5000, "'model.dim': <an int of 16612 bits> is not an int of at most 4300 digits"
    for overrides in ({"model.dim": huge}, {"model.dim": huge, "model.heads": 3}):
        with pytest.raises(ConfigError, match=f"^config key {named}$"):
            RunConfig.load(overrides=overrides)
    with pytest.raises(ShapeError, match=r"^embed_dim must be an int of at most 4300 digits \(config key "
                                         r"'model.dim'\), got PViTConfig\(.*embed_dim=<an int of 16612 bits>, depth"):
        PViTConfig(embed_dim=huge, heads=3)
    assert TrainConfig(seed=2**65 - 2).seed == 2**65 - 2


@pytest.mark.parametrize("text, named", [
    ("model.alpha = nan", "config key 'model.alpha': nan is not finite"),
    ("train.base_lr = 1e400", "config key 'train.base_lr': inf is not finite"),
    ("attention.alphas = 1.0, inf", "config key 'attention.alphas': inf is not finite"),
])
def test_a_parsed_float_that_is_not_finite_is_refused_naming_its_key(text, named):
    with pytest.raises(ConfigError) as info:
        RunConfig.from_text(text)
    assert str(info.value) == named


# a value drawn loose for any field: mostly refused by its type or its rule
LOOSE = st.integers(-1, 4) | st.floats() | st.booleans() | st.sampled_from([np.int64(2), np.float64(0.5), "2", None])


def valid_pvit_fields():
    """Small PViTConfig fields, alpha an int or a float; only an alpha past int64, or an int no float64
    holds, is refused."""
    return st.builds(
        lambda patch, across, channels, heads, width, depth, mlp_dim, classes, alpha: dict(
            image_h=patch * across[0], image_w=patch * across[1], channels=channels, patch_size=patch,
            embed_dim=heads * width, depth=depth, heads=heads, mlp_dim=mlp_dim, num_classes=classes, alpha=alpha),
        st.integers(1, 3), st.tuples(st.integers(1, 2), st.integers(1, 2)), st.integers(1, 2), st.integers(1, 3),
        st.integers(1, 3), st.integers(0, 2), st.integers(1, 6), st.integers(2, 4),
        st.floats(0, 1e300) | st.integers(0, 10**6) | st.sampled_from([2**63 - 1024, 2**63 - 1, 2**63]))


def loosened(cls):
    """Up to three of ``cls``'s fields, each with a :data:`LOOSE` value."""
    return st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(cls)]), LOOSE, max_size=3)


def assert_round_trip(cls, model_cls, fields):
    """Unless the library refuses ``cls(**fields)``, a ``model_cls`` saved with
    it loads back with an equal config whose values keep their types."""
    try:
        config = cls(**fields)
    except ShapeError:
        return
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "m.ckpt")
        model_cls(config).save(path)
        loaded = model_cls.load(path)[0].config
    assert loaded == config and [type(v) for v in vars(loaded).values()] == list(map(type, fields.values()))


@settings(max_examples=100, deadline=None)
@given(fields=valid_pvit_fields(), loose=loosened(PViTConfig))
def test_every_accepted_pvit_config_saves_and_loads_back_equal(fields, loose):
    assert_round_trip(PViTConfig, PViTModel, {**fields, **loose})


@settings(max_examples=100, deadline=None)
@given(fields=st.fixed_dictionaries({"input_dim": st.integers(1, 12), "hidden_dim": st.integers(1, 8),
                                     "num_classes": st.integers(2, 5)}), loose=loosened(MLPConfig))
def test_every_accepted_mlp_config_saves_and_loads_back_equal(fields, loose):
    assert_round_trip(MLPConfig, MLPClassifier, {**fields, **loose})


@pytest.mark.parametrize("key, value", [
    ("out.dir", "runs/a#b"),
    ("out.dir", "runs/x\ny = 1"),
    ("out.dir", "  spaced  "),
    ("train.resume", "runs/a\u2028b.ckpt"),
    ("ood.kinds", ["inverted", " pattern-shift"]),
    ("out.dir", "runs/\udcff"),
])
def test_a_str_its_resolved_line_would_not_read_back_is_refused(key, value):
    """These read back from ``key = value`` as ``runs/a``, as ``runs/x``
    plus the unknown key ``y``, as ``spaced``, as two lines and as
    ``pattern-shift``; the last, a non-UTF-8 byte as ``--out`` decodes it,
    cannot be written to the UTF-8 file at all."""
    entry = value[-1] if type(value) is list else value
    with pytest.raises(ConfigError) as info:
        RunConfig.load(overrides={key: value})
    assert str(info.value) == (f"config key {key!r}: {entry!r} is not a str that its resolved line reads back: "
                               "no '#', line break, surrogate or whitespace at either end")


# every closed-set name a str key or list entry takes, then text rich in what a config line parses
NAMES = st.sampled_from(["synth", "idx", "id-train", "id-test", *pvit.config.OOD_KINDS,
                         *(f"ood-{kind}" for kind in pvit.config.OOD_KINDS), *pvit.config.GUIDANCE_KINDS,
                         *pvit.config.SCORE_FIELDS, *pvit.config.ORIENTATION_POLICIES])
TEXT = NAMES | st.text(st.sampled_from("ab/.=,# \t\n\r\x0b\x0c\x85\u2028") | st.characters(), max_size=12)
NUMBER = st.floats() | st.integers(-2, 8) | st.integers(-2**65, 2**65)
VALUES = {"int": st.integers(-2, 8) | st.integers(-2**65, 2**65) | st.just(4 * 10**5000), "float": NUMBER, "str": TEXT,
          "list_str": st.lists(TEXT, max_size=4), "list_float": st.lists(NUMBER, max_size=4)}
OVERRIDE = st.sampled_from(list(SCHEMA)).flatmap(lambda key: st.tuples(st.just(key), VALUES[SCHEMA[key][0]]))


@settings(max_examples=200, deadline=None)
@given(overrides=st.lists(OVERRIDE, max_size=5).map(dict))
@example(overrides={"train.base_lr": 2**53 + 1})
def test_every_accepted_config_reads_back_from_its_resolved_text(overrides):
    """What a command writes as its resolved configuration is the run it made."""
    try:
        cfg = RunConfig.load(overrides=overrides)
    except ConfigError:
        return
    assert RunConfig.from_text(cfg.resolved_text()).values == cfg.values
