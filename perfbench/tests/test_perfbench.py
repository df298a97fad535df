"""Tests of the benchmark itself: each workload at a tiny size, the output
checks against corrupted outputs, the harness's failure accounting, the
span arithmetic and the command's exit status.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from pvit import PViTConfig  # noqa: E402
from pvit.scoring import read_scores, write_scores  # noqa: E402

from perfbench import clock, harness  # noqa: E402
from perfbench.clock import LapClock  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import DESK, WORKLOADS, EvalLarge, ScoreBulk, TrainDesk, _Trainable  # noqa: E402

SMALL = PViTConfig(embed_dim=16, depth=1, heads=2, mlp_dim=32, num_classes=4)


def tiny(name):
    if name == "train-desk":
        # too few steps to learn: the loss stays near ln 4 and AUROC near chance
        return TrainDesk(per_class=40, train_count=128, check_count=32, prior_epochs=2, vit_epochs=1,
                         config=SMALL, loss_reference=math.log(4), loss_tolerance=0.1, min_auroc=0.5)
    if name == "score-bulk":
        return ScoreBulk(per_class=16, ood_count=64, config=SMALL)
    return EvalLarge(n_id=3000, n_ood=2000)


def run_once(workload, tmp_path, seed=0, tracer=None):
    tracer = tracer or Tracer(enabled=False)
    state = workload.setup(seed, str(tmp_path), tracer)
    result = workload.operate(state, tracer, LapClock(tracer))
    return state, result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workload = tiny(name)
    state, result = run_once(workload, tmp_path)
    assert workload.check(state, result.outputs) == []
    assert result.samples > 0 and result.work_s > 0 and result.prep_s > 0 and result.steps_ms


def test_score_bulk_check_trips_on_nan_score(tmp_path):
    workload = tiny("score-bulk")
    state, result = run_once(workload, tmp_path)
    result.outputs["records"]["ood-inverted"][3].baselines["msp"] = float("nan")
    assert any("not finite" in f for f in workload.check(state, result.outputs))


def test_score_bulk_check_trips_on_pge_mismatch_and_stale_file(tmp_path):
    workload = tiny("score-bulk")
    state, result = run_once(workload, tmp_path)
    rec = result.outputs["records"]["id-test"][0]
    rec.pge = rec.pge + 1.0
    failures = workload.check(state, result.outputs)
    assert any("base * guidance" in f for f in failures)
    assert any("read back" in f for f in failures)


def test_eval_large_check_trips_on_negated_ood_scores(tmp_path):
    workload = tiny("eval-large")
    state = workload.setup(0, str(tmp_path), Tracer(enabled=False))
    header, records = read_scores(state["paths"]["ood"])
    for r in records:
        r.pge = -r.pge
        r.baselines = {k: -v for k, v in r.baselines.items()}
    write_scores(state["paths"]["ood"], records, header["guidance"], header["alpha"])
    tracer = Tracer(enabled=False)
    result = workload.operate(state, tracer, LapClock(tracer))
    failures = workload.check(state, result.outputs)
    assert any("Mann-Whitney" in f for f in failures)


def test_train_desk_check_trips_on_nonfinite_or_far_loss(tmp_path):
    workload = tiny("train-desk")
    state, result = run_once(workload, tmp_path)
    losses = result.outputs["losses"]
    result.outputs["losses"] = losses[:-1] + [float("nan")]
    assert workload.check(state, result.outputs) == ["training loss is not finite at every step"]
    result.outputs["losses"] = [v + 1.0 for v in losses]
    assert any("reference" in f for f in workload.check(state, result.outputs))


class _Corrupting(ScoreBulk):
    """score-bulk whose scores come out negated: every operation must fail."""

    def operate(self, state, tracer, clock):
        result = super().operate(state, tracer, clock)
        for recs in result.outputs["records"].values():
            for r in recs:
                r.pge = -r.pge
        return result


def test_failed_operations_count_and_yield_no_numbers(tmp_path):
    result = harness.measure(_Corrupting(per_class=8, ood_count=16, config=SMALL), 0, 0.0, False, str(tmp_path))
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert result["end_to_end"] == {} and result["named"]["ops_failed_ratio"] == (1.0, "ratio")
    assert any("base * guidance" in failure for failure in result["failures"])
    assert not any("Traceback" in failure for failure in result["failures"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_measure_reports_every_metric(name, tmp_path):
    result = harness.measure(tiny(name), 1, 0.0, True, str(tmp_path / "a"))
    assert result["failed"] == 0
    assert set(result["end_to_end"]) == set(harness.spec_metrics("end_to_end"))
    assert set(result["per_layer"]) >= set(harness.spec_metrics("per_layer"))
    assert all(v > 0 for v in result["end_to_end"].values())
    assert result["per_layer"]["trace.unattributed_pct"] <= 10.0
    again = harness.measure(tiny(name), 2, 0.0, True, str(tmp_path / "b"))
    for key in ("tensor.tape_nodes", "tensor.tape_mb", "priors.rows_per_unique_sample"):
        assert result["per_layer"][key] == again["per_layer"][key]


def test_desk_training_step_records_135_tape_nodes():
    from pvit import PViTModel, Tape

    tracer = Tracer()
    trainable = _Trainable(PViTModel(DESK, seed=0), tracer)
    rng = np.random.default_rng(0)
    with Tape():
        trainable.batch_loss(rng.random((32, 28, 28, 1)), rng.integers(0, 4, 32), rng.normal(size=(32, 4)))
    ops, _ = trainable.tapes[0]
    assert sum(ops.values()) == 135
    assert ops["matmul"] > 0 and ops["cross_entropy"] == 1


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("model.a"):
            with tracer.span("tensor.b"):
                pass
        with tracer.span("model.c"):
            pass
    for span, (start, end) in zip(tracer.spans, [(0.0, 10.0), (1.0, 5.0), (2.0, 3.0), (6.0, 7.0)]):
        span.start, span.end = start, end
    per_layer, remainder = tracer.self_times(0)
    assert per_layer == {"model": 4.0, "tensor": 1.0}
    assert remainder == 5.0


def test_lap_scales_by_the_probes_at_both_ends(monkeypatch):
    probes = iter([2e-3, 4e-3, 1e-3])
    monkeypatch.setattr(clock, "probe", lambda: next(probes))
    ticks = iter([10.0, 10.3, 10.5, 11.0, 11.2])
    monkeypatch.setattr(clock.time, "perf_counter", lambda: next(ticks))
    lap_clock = LapClock(Tracer(enabled=False))
    first, second = lap_clock.lap(), lap_clock.lap()
    # laps run from the end of one probe to the start of the next
    assert first == pytest.approx(0.3 * clock.REF_PROBE_S / 3e-3)
    assert second == pytest.approx(0.5 * clock.REF_PROBE_S / 2.5e-3)
    assert lap_clock.total == pytest.approx(first + second)


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m["name"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "score-bulk", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
