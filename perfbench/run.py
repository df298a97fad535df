"""Benchmark command: ``python3 perfbench/run.py --workload <name|all>
--seed N --seconds S --trace 0|1``, run from the repository root.

Each workload runs in a fresh worker process, one at a time, with BLAS
threads pinned.  The command prints every metric by name with its unit
(untraced: the end-to-end metrics; traced: the per-layer metrics), the
environment, and as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 0 means every
output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# one BLAS thread: the desk matrices are too small to gain from more, and
# a second thread adds run-to-run noise on a shared machine
BLAS_THREADS = 1


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    out.unlink(missing_ok=True)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    # set-up, the operation running past the budget and the traced run's
    # probes take at most about as long again as the budget itself; run()
    # kills the worker on timeout and waits for it before raising
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=2 * seconds + 120)
    return json.loads(out.read_text())


def _print_metrics(title: str, values: dict[str, tuple[float, str]]) -> None:
    print(f"  {title}")
    for name, (value, unit) in values.items():
        print(f"    {name:34s} {value:>16.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "pvit" / "__init__.py").is_file():
        print(f"perfbench: no pvit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT_DIR.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            result = _run_worker(workload, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"perfbench: {workload} did not produce a result: {exc}", file=sys.stderr)
            return 1
        print(f"== {workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace} ==")
        print("  env " + json.dumps(result["env"], sort_keys=True))
        for failure in result["failures"]:
            print(f"  FAILED CHECK: {failure.strip()}")
        measured = result["per_layer"] if args.trace else result["end_to_end"]
        metrics = {m["name"]: measured[m["name"]] for m in wanted if m["name"] in measured}
        _print_metrics("metrics", {name: (value, units[name]) for name, value in metrics.items()})
        _print_metrics("by the workload's own names; wall_op_s and probe_ms unscaled", result["named"])
        print(f"  attempted={result['attempted']} failed={result['failed']}")
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        complete = len(metrics) == len(wanted)
        summary["correct"] = summary["correct"] and result["failed"] == 0 and complete
        prefix = "" if args.workload != "all" else f"{workload}:"
        for name, value in metrics.items():
            summary["metrics"][prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
