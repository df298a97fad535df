"""Run one workload for a time budget and turn its operations into metrics.

The untraced run reports the end-to-end metrics, whose times are laps
of a ``LapClock`` (see ``clock.py``).  The traced run alternates
untraced and traced operations, so that it can report the per-layer
metrics, the share of each traced operation no span covers and the
tracing overhead from one process; those times are unscaled.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .clock import LapClock
from .trace import GcMonitor, Tracer
from .workloads import EVAL_SCORES, OpResult

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SELF_TIME_LAYERS = ("model", "priors", "train", "checkpoint", "scoring", "metrics")


def spec_metrics(kind: str) -> dict[str, str]:
    """Unit by name of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


# per-call medians of the span of that name, in ms
_PER_CALL = {
    "model.batch_loss": "model.batch_loss_ms",
    "model.forward_batch": "model.forward_batch_ms",
    "checkpoint.save": "checkpoint.save_ms",
    "checkpoint.load": "checkpoint.load_ms",
    "priors.resolve": "priors.resolve_ms",
    "priors.load_logits": "priors.load_logits_ms",
    "train.update": "train.update_ms",
    "metrics.histogram_export": "metrics.histogram_ms",
    "data.synth_dataset": "data.synth_ms",
    "data.make_ood": "data.make_ood_ms",
    **{f"metrics.evaluate.{s}": f"metrics.evaluate_ms.{s}" for s in EVAL_SCORES},
}
# ms per 1k records handled by the span of that name
_PER_1K_RECORDS = {
    "scoring.write_scores": "scoring.write_scores_ms",
    "scoring.read_scores": "scoring.read_scores_ms",
}

SETUP_REPS = 3


@dataclass
class _Op:
    traced: bool
    result: Optional[OpResult] = None
    failures: list[str] = field(default_factory=list)
    root: int = -1  # index of the op's span
    wall_s: float = 0.0  # unscaled, probes included
    op_s: float = 0.0  # scaled, probes excluded
    probe_s: float = 0.0  # median probe time during the op
    gc_pause_s: float = 0.0
    gc_gen2: int = 0


def _run_op(workload, state: dict, tracer: Tracer, traced: bool) -> _Op:
    op = _Op(traced)
    # start from an empty heap, as a fresh command would, so that peak RSS
    # and collector work do not depend on how many operations came before
    gc.collect()
    tracer.enabled = traced
    gc_monitor = GcMonitor()
    try:
        with gc_monitor if traced else contextlib.nullcontext(), tracer.span("op"):
            op.root = len(tracer.spans) - 1
            start = time.perf_counter()
            clock = LapClock(tracer)
            op.result = workload.operate(state, tracer, clock)
            clock.lap()
            op.wall_s = time.perf_counter() - start
        op.op_s, op.probe_s = clock.total, statistics.median(clock.probes)
    except Exception:  # a crashing operation is a failed operation, reported with its traceback
        op.failures = [traceback.format_exc()]
    finally:
        tracer.enabled = False
    op.gc_pause_s, op.gc_gen2 = gc_monitor.pause_s, gc_monitor.gen2
    if op.result is not None:
        try:
            op.failures = workload.check(state, op.result.outputs)
        except Exception:
            op.failures = [traceback.format_exc()]
    return op


def _import_s() -> float:
    """Seconds a fresh interpreter takes to import numpy and pvit, as it
    reports them; the imports are cached in this process."""
    code = "import time; t = time.perf_counter(); import numpy, pvit; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    # run() waits for the interpreter, and kills it on timeout
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True,
                          text=True, timeout=120)
    return float(done.stdout)


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    """Set the workload up ``SETUP_REPS`` times, then run operations for
    about ``seconds`` (at least one); returns counts, metrics and failure
    messages."""
    tracer = Tracer(run_id=f"{workload.name}-seed{seed}-{os.getpid()}")
    setup_s = []
    for rep in range(SETUP_REPS):
        directory = os.path.join(workdir, f"setup{rep}")
        os.makedirs(directory)
        gc.collect()
        tracer.enabled = trace
        with tracer.span("setup"):
            clock = LapClock(tracer)
            import_s = _import_s()
            clock.lap()
            import_s = clock.scale(import_s, (clock.probes[-2] + clock.probes[-1]) / 2)
            state = workload.setup(seed, directory, tracer)
            setup_s.append(import_s + clock.lap())
        tracer.enabled = False

    ops: list[_Op] = []
    layer_outputs = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            op = _run_op(workload, state, tracer, traced)
            ops.append(op)
            if op.result is not None:
                # outputs kept alive would add collector work to later operations
                if traced and not op.failures:
                    layer_outputs = op.result.outputs
                op.result.outputs = None
        now = time.perf_counter()
        # stop at the operation boundary nearest to the time budget
        if now - start + (now - round_start) / 2 >= seconds:
            break
    good = [op for op in ops if not op.failures]
    plain = [op for op in good if not op.traced]
    traced_ops = [op for op in good if op.traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    end_to_end, named = {}, {}
    if plain:
        steps = np.concatenate([op.result.steps_ms for op in plain])
        end_to_end = {
            "setup_s": statistics.median(setup_s),
            "samples_per_s": sum(op.result.samples for op in plain) / sum(op.result.work_s for op in plain),
            "step_ms.p50": float(np.percentile(steps, 50)),
            "step_ms.p90": float(np.percentile(steps, 90)),
            "op_s": statistics.median(op.op_s for op in plain),
            "prep_s": statistics.median(op.result.prep_s for op in plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = spec_metrics("end_to_end")
        named = {alias: (end_to_end[name], units[name]) for name, alias in workload.named_e2e.items()}
        for key, (_, unit) in plain[0].result.named.items():
            named[key] = (statistics.median(op.result.named[key][0] for op in plain), unit)
        named["steps_per_run"] = (len(steps), "count")
        named["wall_op_s"] = (statistics.median(op.wall_s for op in plain), "s")
        named["probe_ms"] = (statistics.median(op.probe_s for op in plain) * 1e3, "ms")
    named["ops_failed_ratio"] = ((len(ops) - len(good)) / len(ops), "ratio")

    per_layer = {}
    if trace and traced_ops and plain:
        per_layer = _per_layer(tracer, traced_ops, plain)
        per_layer.update(workload.time_layers(state, layer_outputs))
    return {
        "workload": workload.name,
        "seed": seed,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "failures": [f for op in ops for f in op.failures],
        "end_to_end": end_to_end,
        "named": named,
        "per_layer": per_layer,
        "setup_s_samples": setup_s,
        "spans": tracer.to_json() if trace else [],
    }


def _per_layer(tracer: Tracer, traced: list[_Op], plain: list[_Op]) -> dict:
    # a workload that does not run a layer reports 0 for it
    out = dict.fromkeys(spec_metrics("per_layer"), 0.0)
    roots = [i for i, s in enumerate(tracer.spans) if s.name == "setup"] + [op.root for op in traced]
    spans = [s for root in roots for s in tracer.descendants(root)]

    for span_name, metric in _PER_CALL.items():
        durations = [s.duration for s in spans if s.name == span_name]
        if durations:
            out[metric] = statistics.median(durations) * 1e3
    for span_name, metric in _PER_1K_RECORDS.items():
        matching = [s for s in spans if s.name == span_name]
        if matching:
            out[metric] = sum(s.duration for s in matching) * 1e3 / (sum(s.n for s in matching) / 1000)
    forwards = [s for s in spans if s.name == "model.forward_batch"]
    if forwards:
        scoring = sum(s.duration for s in spans if s.name == "scoring.score_dataset")
        # the clock's probes at batch boundaries run inside score_dataset too
        probes = sum(s.duration for s in spans
                     if s.name == "probe.host" and tracer.spans[s.parent].name == "scoring.score_dataset")
        out["scoring.records_ms"] = (scoring - probes - sum(s.duration for s in forwards)) * 1e3 / len(forwards)

    unattributed, wall = 0.0, 0.0
    for op in traced:
        per_layer, remainder = tracer.self_times(op.root)
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_ms"] += per_layer.get(layer, 0.0) * 1e3 / len(traced)
        unattributed += remainder
        wall += tracer.spans[op.root].duration
    out["trace.unattributed_ms"] = unattributed * 1e3 / len(traced)
    out["trace.unattributed_pct"] = 100.0 * unattributed / wall
    traced_wall = statistics.median(op.wall_s for op in traced)
    plain_wall = statistics.median(op.wall_s for op in plain)
    out["trace.overhead_ms"] = (traced_wall - plain_wall) * 1e3
    out["trace.overhead_pct"] = 100.0 * (traced_wall - plain_wall) / plain_wall
    out["runtime.gc_pause_ms"] = statistics.fmean(op.gc_pause_s for op in traced) * 1e3
    out["runtime.gc_collections.gen2"] = statistics.fmean(op.gc_gen2 for op in traced)

    for key in traced[0].result.counts:
        out[key] = statistics.median(op.result.counts[key] for op in traced)
    return out
