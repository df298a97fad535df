"""The byte-identity recipe: every command of the CLI, run in one process
into a directory, and a sha256 manifest of what the run wrote.

The main run, in ``DIR/run``, is train-prior, train-pvit, score, eval
(pge, msp and energy) and attention-dump (alphas 0.1 and 1.0) at the CLI
tests' small sizes (seed 5, 3 classes), with normalization 0.1/0.9.
The ablation, in ``DIR/ablation``, trains a second prior
(``prior.seed = 77``), scores the run's OOD sets with kl guidance and
that prior's logits standing in for the transformer's
(``score.predicted_logits``), and evaluates them.

The manifest maps each written file's path, relative to ``DIR``, to its
sha256, plus ``<stdout>`` for the commands' printed lines.  Only the
resolved configs, ``pvit_train.json`` and stdout name ``DIR``; there it
is replaced by ``<root>`` before hashing, so runs in different
directories can be compared.  Usage, printing the manifest as JSON::

    PYTHONPATH=src python tests/recipe.py DIR
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from pvit.cli import main

SMALL_CFG = """
out.dir = {out}
seed = 5
data.classes = 3
data.train_per_class = 20
data.test_per_class = 10
data.image_size = 28
data.noise_sigma = 0.2
ood.count = 30
model.dim = 16
model.depth = 2
model.heads = 2
model.mlp_dim = 24
model.alpha = 0.1
prior.hidden = 32
prior.epochs = 3
prior.base_lr = 1e-2
train.epochs = 2
train.batch_size = 16
"""

RECIPE_KEYS = {"data.normalize_mean": 0.1, "data.normalize_std": 0.9, "eval.scores": "pge,msp,energy",
               "attention.alphas": "0.1,1.0"}


def steps(root: str):
    """(output directory, extra config keys, commands) in the order they run."""
    run, ablation = os.path.join(root, "run"), os.path.join(root, "ablation")
    return [
        (run, {}, ["train-prior", "train-pvit", "score", "eval", "attention-dump"]),
        (ablation, {"prior.seed": 77}, ["train-prior"]),
        (ablation, {"score.guidance": "kl", "score.predicted_logits": os.path.join(ablation, "logits"),
                    "paths.logits_dir": os.path.join(run, "logits")}, ["score", "eval"]),
    ]


def run_recipe(root: str) -> dict[str, str]:
    """Run every step into ``root`` and return the manifest (see the module docstring)."""
    stdout = io.StringIO()
    for number, (out, extra, commands) in enumerate(steps(root)):
        os.makedirs(out, exist_ok=True)
        cfg = os.path.join(root, f"step{number}.cfg")
        with open(cfg, "w") as fh:
            fh.write(SMALL_CFG.format(out=out) + "".join(f"{k} = {v}\n" for k, v in {**RECIPE_KEYS, **extra}.items()))
        for command in commands:
            with contextlib.redirect_stdout(stdout):
                code = main([command, "--config", cfg])
            if code != 0:
                raise SystemExit(f"recipe: {command} in {out} exited {code}")
    manifest = {"<stdout>": stdout.getvalue().encode()}
    for top in ("run", "ablation"):
        for directory, _, names in os.walk(os.path.join(root, top)):
            for name in names:
                path = os.path.join(directory, name)
                with open(path, "rb") as fh:
                    manifest[os.path.relpath(path, root)] = fh.read()
    for key in manifest:
        if key == "<stdout>" or key.endswith((".resolved.cfg", "pvit_train.json")):  # the path-dependent ones
            manifest[key] = manifest[key].replace(root.encode(), b"<root>")
    return {key: hashlib.sha256(data).hexdigest() for key, data in sorted(manifest.items())}


if __name__ == "__main__":
    print(json.dumps(run_recipe(os.path.abspath(sys.argv[1])), indent=1))
