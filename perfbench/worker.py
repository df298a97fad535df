"""One workload in this process: ``python -m perfbench.worker --workload
NAME --seed N --seconds S --trace 0|1 --out FILE``.

Writes the result, the environment and (traced) the spans to ``--out``
as JSON.  ``perfbench/run.py`` starts one worker per workload so that
each workload's peak RSS and collector state are its own.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from perfbench.envinfo import environment
from perfbench.harness import measure
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        result = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["env"] = environment(ROOT, args.workload, args.seed)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
