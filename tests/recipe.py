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

With ``--against REV`` the recipe also runs, in a fresh process, on the
``src/pvit`` of git revision REV (a ``git archive`` copy), into
``DIR/rev``; each manifest entry is printed as identical, differing or
found on one side only, and the exit code is 0 only when all are
identical::

    PYTHONPATH=src python tests/recipe.py DIR --against HEAD~1
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

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


def compare(here: dict[str, str], there: dict[str, str], rev: str) -> dict[str, str]:
    """Each entry of either manifest -> ``identical``, ``differs``, ``only here``
    or ``only at REV``."""
    def status(key):
        if key not in there:
            return "only here"
        if key not in here:
            return f"only at {rev}"
        return "identical" if here[key] == there[key] else "differs"
    return {key: status(key) for key in sorted(here.keys() | there.keys())}


def run_at_revision(root: str, rev: str) -> dict[str, str]:
    """The manifest of this recipe run in a fresh process on REV's ``src/pvit``."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    archive = subprocess.run(["git", "-C", repo, "archive", rev, "src/pvit"], capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"recipe: git archive {rev}: {archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as copy:
        subprocess.run(["tar", "-x", "-C", copy], input=archive.stdout, check=True)
        run = subprocess.run([sys.executable, os.path.abspath(__file__), root], stdout=subprocess.PIPE,
                             env=dict(os.environ, PYTHONPATH=os.path.join(copy, "src")))
    if run.returncode != 0:
        raise SystemExit(f"recipe: the run at {rev} exited {run.returncode}")
    return json.loads(run.stdout)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Run the byte-identity recipe and print its manifest.")
    parser.add_argument("dir")
    parser.add_argument("--against", metavar="REV", help="also run REV's src/pvit and compare the manifests")
    args = parser.parse_args()
    root = os.path.abspath(args.dir)
    here = run_recipe(root)
    if args.against is None:
        print(json.dumps(here, indent=1))
        sys.exit(0)
    statuses = compare(here, run_at_revision(os.path.join(root, "rev"), args.against), args.against)
    for key, status in statuses.items():
        print(f"{status}: {key}")
    same = sum(status == "identical" for status in statuses.values())
    print(f"{same} of {len(statuses)} entries identical to {args.against}")
    sys.exit(0 if same == len(statuses) else 1)
