"""Minimal-size smoke runs of every workload, and the benchmark's checks.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMOKE = workloads.Budget(seconds=0.0, n_check=1, setup_repeats=1)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """(workload, seed, trace) -> (result line, run record), run once."""
    cache = {}

    def get(workload, seed=1, trace=0):
        key = (workload, seed, trace)
        if key not in cache:
            out = tmp_path_factory.mktemp(f"{workload}-{seed}-{trace}")
            cache[key] = run.execute(workload, seed, trace, SMOKE, out)
        return cache[key]
    return get


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(smoke, workload, trace):
    line, _ = smoke(workload, trace=trace)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in line["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert json.loads(json.dumps(line)) == line


def test_benchmark_json_matches_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_digests_agree(smoke, workload):
    _, plain = smoke(workload, trace=0)
    _, traced = smoke(workload, trace=1)
    assert plain["digest"] == traced["digest"] == traced["untraced_digest"]
    assert plain["simulated"] == traced["simulated"]


def test_sweep_layer_split(smoke):
    line, _ = smoke("sweep_noisy", trace=1)
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["lif.run_share_pct"] > 95
    for layer in ("resample", "condition", "apply_itd"):
        assert m[f"frontend.{layer}_ms"] < 1.0
    assert m["readout.poll_loop_ms"] < 1.0
    assert m["lif.steps"] == 11000 and 0 < m["lif.useful_step_ratio"] < 1


def test_simulate_wav_largest_span_is_resample(smoke):
    line, _ = smoke("simulate_wav", trace=1)
    times = {k: v["value"] for k, v in line["metrics"].items()
             if k in run.LAYER_TIMES}
    assert max(times, key=times.get) == "frontend.resample_ms"


def test_planted_wrong_direction_fails(tmp_path, monkeypatch):
    from itdloc import harness, readout

    def shifted(*args, **kwargs):
        return [readout.DirectionEvent(e.t, e.direction + 60.0)
                for e in readout.poll_loop(*args, **kwargs)]
    monkeypatch.setattr(harness, "poll_loop", shifted)
    line, _ = run.execute("sweep_noisy", 1, 0, SMOKE, tmp_path)
    assert not line["correct"]
    assert line["failed"] == line["attempted"]


def test_planted_output_drift_fails(tmp_path, monkeypatch):
    from itdloc import lif

    calls = []
    to_csv = lif.SpikeRecord.to_csv

    def drifting(record, path):
        calls.append(path)
        shifted = lif.SpikeRecord(record.n_neurons,
                                  record.times + len(calls) * 1e-9, record.ids)
        to_csv(shifted, path)
    monkeypatch.setattr(lif.SpikeRecord, "to_csv", drifting)
    line, _ = run.execute("simulate_wav", 1, 0, SMOKE, tmp_path)
    assert not line["correct"] and line["failed"] == 1


def test_planted_wrong_stage_delay_fails(tmp_path, monkeypatch):
    from dataclasses import replace

    from itdloc import jeffress

    calibrate = jeffress.calibrate_stage_delay

    def slow(net, dt, **kwargs):
        cal = calibrate(net, dt, **kwargs)
        if net.n_stages < 50:
            return cal
        return replace(cal, stage_delay_mean=cal.stage_delay_mean + 0.5e-6)
    monkeypatch.setattr(jeffress, "calibrate_stage_delay", slow)
    ctx = workloads.setup(1, tmp_path)
    _, res = workloads.checked_call(workloads.WORKLOADS["calibrate"], ctx, 0)
    assert res.failed == 1 and not res.digest


def test_seed_reaches_the_inputs(tmp_path, smoke):
    a = workloads.setup(1, tmp_path / "a")
    b = workloads.setup(2, tmp_path / "b")
    assert a.wav_path.read_bytes() != b.wav_path.read_bytes()
    sweep = workloads.WORKLOADS["sweep_noisy"]
    assert sweep.inputs(a, 0).base_seed != sweep.inputs(b, 0).base_seed
    assert sweep.inputs(a, 0).base_seed != sweep.inputs(a, 1).base_seed
    sim = workloads.WORKLOADS["simulate_wav"]
    assert sim.inputs(a, 0)[1][-3] != sim.inputs(b, 0)[1][-3]  # --seed value
    _, one = smoke("sweep_noisy", seed=1)
    _, two = smoke("sweep_noisy", seed=2)
    assert one["digest"] != two["digest"]


def test_normalized_divides_out_host_speed():
    calls, refs = [1.0, 2.0], [0.1, 0.2, 0.2]
    r = reference.REF_SECONDS
    assert reference.normalized(calls, refs) == pytest.approx(
        [1.0 * r / 0.15, 2.0 * r / 0.2])
    slower = reference.normalized([1.7 * c for c in calls],
                                  [1.7 * x for x in refs])
    assert slower == pytest.approx(reference.normalized(calls, refs))
    with pytest.raises(ValueError):
        reference.normalized(calls, refs[:2])


def test_run_record_keeps_wall_clock(smoke):
    _, record = smoke("calibrate")
    assert len(record["reference_seconds"]) == record["calls_timed"] + 1
    assert record["wall_trials_per_s"] == pytest.approx(
        record["trials_timed"] / sum(record["call_seconds"]))


def test_self_time_subtracts_children():
    tr = tracer.Tracer()
    with tr.span("outer", new_trial=True):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    outer, a, b = tr.spans
    assert a.parent == b.parent == 0 and a.trial == b.trial == outer.trial == 0
    st = tr.self_times()
    assert st["outer"] == pytest.approx(
        (outer.end - outer.start) - (a.end - a.start) - (b.end - b.start))


def test_tracer_restores_every_name():
    from itdloc import cli, harness, jeffress, lif

    before = (harness.Simulation, harness.resample, cli.load_wav,
              jeffress.build, lif.SpikeRecord.to_csv)
    with tracer.installed(tracer.Tracer()):
        assert harness.Simulation is not before[0]
    assert (harness.Simulation, harness.resample, cli.load_wav,
            jeffress.build, lif.SpikeRecord.to_csv) == before


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "calibrate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
