"""The in-process runner, and the byte-identity recipe built on it.

:func:`write_cfg` writes a config file from a base text and the keys a
test sets; :func:`run_cli` runs commands on it through
:func:`pvit.cli.main` in this process.  Every test that expects a
command to succeed runs it through them.

The recipe is every command of the CLI, run in one process into a
directory, and a sha256 manifest of what the run wrote.

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
identical.  Under each differing CSV, indented lines from
:func:`csv_diff` say how far it moved::

    PYTHONPATH=src python tests/recipe.py DIR --against HEAD~1
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
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


def write_cfg(tmp_path, text=SMALL_CFG, name="run.cfg", **extra):
    """``text`` with each ``extra`` key (``__`` for ``.``) set on its own
    line, in place of the line that set it there: a file sets a key once."""
    out = str(tmp_path / "out")
    lines = {line.split("=")[0].strip(): line for line in text.format(out=out).splitlines() if line.strip()}
    for key, value in extra.items():
        lines[key.replace("__", ".")] = f"{key.replace('__', '.')} = {value}"
    path = tmp_path / name
    path.write_text("\n".join(lines.values()) + "\n")
    return str(path), out


def run_cli(cfg: str, *commands: str, flags=()) -> str:
    """Run each command through :func:`pvit.cli.main` in this process, with
    ``--config cfg`` and then ``flags``, and return what they printed; a
    command that exits other than 0 raises AssertionError naming it and its code."""
    stdout = io.StringIO()
    for command in commands:
        with contextlib.redirect_stdout(stdout):
            code = main([command, "--config", cfg, *flags])
        if code != 0:
            raise AssertionError(f"{command} --config {cfg} exited {code}")
    return stdout.getvalue()


def run_recipe(root: str) -> dict[str, str]:
    """Run every step into ``root`` and return the manifest (see the module docstring)."""
    printed = ""
    for number, (out, extra, commands) in enumerate(steps(root)):
        os.makedirs(out, exist_ok=True)
        cfg, _ = write_cfg(pathlib.Path(root), name=f"step{number}.cfg", out__dir=out, **RECIPE_KEYS, **extra)
        printed += run_cli(cfg, *commands)
    manifest = {"<stdout>": printed.encode()}
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


def csv_diff(old: bytes, new: bytes, keyed: bool = False) -> list[str]:
    """How a CSV moved from ``old`` to ``new``: one line with how many cells
    differ, the largest |delta| over the numeric ones and how many are not
    numeric, or a line naming the change of shape.  With ``keyed`` (a header
    row, then rows named by their first two cells, as in eval_summary.csv)
    one more line per changed cell: ``<cell 1>,<cell 2> <column>: <old> -> <new>``."""
    before, after = ([line.split(",") for line in data.decode().splitlines()] for data in (old, new))

    def shape(rows):
        widths = sorted({len(row) for row in rows}) or [0]
        return f"{len(rows)} rows of {widths[0]}" + (f"-{widths[-1]}" if len(widths) > 1 else "") + " cells"

    if [len(row) for row in before] != [len(row) for row in after]:
        return [f"shape changed: {shape(before)} -> {shape(after)}"]
    changed = [(i, j, a, b) for i, (row_a, row_b) in enumerate(zip(before, after))
               for j, (a, b) in enumerate(zip(row_a, row_b)) if a != b]
    deltas = []
    for _, _, a, b in changed:
        try:
            deltas.append(abs(float(b) - float(a)))
        except ValueError:
            pass
    summary = f"{len(changed)} of {sum(map(len, before))} cells differ"
    if deltas:
        summary += f", largest |delta| {max(deltas):.3g}"
    if len(deltas) < len(changed):
        summary += f", {len(changed) - len(deltas)} not numeric"
    cells = [f"{before[i][0]},{before[i][1]} {before[0][j]}: {a} -> {b}" for i, j, a, b in changed] if keyed else []
    return [summary] + cells


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
        if status == "differs" and key.endswith(".csv"):
            old, new = (open(os.path.join(side, key), "rb").read() for side in (os.path.join(root, "rev"), root))
            for line in csv_diff(old, new, keyed=key.endswith("eval_summary.csv")):
                print(f"  {line}")
    same = sum(status == "identical" for status in statuses.values())
    print(f"{same} of {len(statuses)} entries identical to {args.against}")
    sys.exit(0 if same == len(statuses) else 1)
