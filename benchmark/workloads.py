"""The benchmark's workloads: set-up, inputs made from the seed, the timed
call into itdloc, and the checks on every output.

Every workload is a closed loop with one caller: the next call starts when
the previous one has returned and been checked, with jobs=1 and no process
pool. A run measures for at least `seconds` and at least `n_check` calls.
The first `n_check` calls form the check set: their outputs are hashed into
the run's digest and give the simulated results and the hardware-side
counts, so for a given seed those repeat exactly however fast the host is.
"""

from __future__ import annotations

import hashlib
import io
import math
import shutil
import statistics
import time
import wave
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from itdloc import cli, config, frontend, harness, jeffress, readout

import tracer as tracing
from reference import reference

DT = 1e-7
ITDS_US = tuple(float(x) for x in np.linspace(-140.0, 140.0, 8))  # criterion 5
NOISE = 0.07
TARGET_DELAY = 3.8e-6  # criterion 1
WAV_RATE = 48000
WAV_SECONDS = 1.0
DURATION = 1.1e-3  # simulated time per trial in the dumped default config
N_DETECTORS = 50


class CheckFailed(Exception):
    """An output is missing, unparsable or out of range."""


def derive_seed(seed: int, *key: int) -> int:
    """Independent 32-bit seed for one input of one call."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


@dataclass
class Context:
    """What set-up prepares: the default network, its calibrated stage
    delay, a dumped default config and a seeded clap recording."""

    seed: int
    work: Path
    net: object
    delta: float
    config_path: Path
    wav_path: Path


@dataclass
class CallResult:
    """One checked call: its output digest and the simulated results."""

    digest: str
    trials: int
    failed: int
    errors: list = field(default_factory=list)  # |direction - expected|, hits
    misses: int = 0
    latency_steps: list = field(default_factory=list)
    stage_delay: float | None = None


def write_wav(path: Path, samples: np.ndarray, rate: int) -> None:
    ints = np.clip(np.round(samples * 32767), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(ints.tobytes())


def setup(seed: int, work: Path) -> Context:
    """Build and calibrate the default network, dump and reload the
    default config, and synthesize the mono 16-bit clap recording."""
    work.mkdir(parents=True, exist_ok=True)
    net = jeffress.build(jeffress.JeffressConfig())
    delta = jeffress.calibrate_stage_delay(net, DT).stage_delay_mean

    cfg = config.RunConfig()
    config_path = work / "run.json"
    config.save_config(cfg, config_path)
    if config.load_config(config_path) != cfg:
        raise CheckFailed("dumped default config does not reload identically")

    clap = frontend.ClapSpec(rng_seed=derive_seed(seed, 0))
    clip = frontend.synth_clap(clap, WAV_RATE, WAV_SECONDS)
    wav_path = work / "clap.wav"
    write_wav(wav_path, clip.channel(0), WAV_RATE)
    back = frontend.load_wav(wav_path)
    if back.sample_rate != WAV_RATE or back.n_samples != clip.n_samples:
        raise CheckFailed("synthesized recording does not reload")
    return Context(seed, work, net, delta, config_path, wav_path)


def _direction_ok(d: float) -> bool:
    return math.isfinite(d) and 0.0 <= d <= N_DETECTORS - 1


class SweepNoisy:
    """harness.run_sweep over the criterion-5 grid, one seeded trial per
    ITD per call; sweep.csv and stats.csv are checked and hashed."""

    name = "sweep_noisy"
    span = "harness.sweep"
    trials_per_call = len(ITDS_US)

    def inputs(self, ctx: Context, k: int) -> harness.SweepConfig:
        return harness.SweepConfig(
            trial=harness.TrialConfig(net=ctx.net),
            itds=tuple(x * 1e-6 for x in ITDS_US),
            trials=1,
            noise_amplitude=NOISE,
            base_seed=derive_seed(ctx.seed, 1, k),
            stage_delay=ctx.delta,
        )

    def call(self, ctx: Context, inp):
        return harness.run_sweep(inp, jobs=1, out_dir=ctx.work / self.name)

    def check(self, ctx: Context, inp, result) -> CallResult:
        sweep = (ctx.work / self.name / "sweep.csv").read_bytes()
        stats = (ctx.work / self.name / "stats.csv").read_bytes()
        out = CallResult(hashlib.sha256(sweep + stats).hexdigest(),
                         trials=self.trials_per_call, failed=0)
        lines = sweep.decode().splitlines()
        if lines[0] != "itd_us,trial,direction,latency_us,miss":
            raise CheckFailed(f"sweep.csv header {lines[0]!r}")
        if len(lines) - 1 != len(inp.itds) or len(result.rows) != len(inp.itds):
            raise CheckFailed("sweep.csv does not hold one row per ITD")
        stat_lines = stats.decode().splitlines()
        if (stat_lines[0] != "itd_us,mean,std,outliers,misses"
                or len(stat_lines) - 1 != len(inp.itds)):
            raise CheckFailed("stats.csv does not hold one row per ITD")
        for line, row in zip(lines[1:], result.rows):
            try:
                itd_us, _, d, lat, miss = line.split(",")
                if abs(float(itd_us) - row.itd * 1e6) > 5e-4:
                    raise ValueError("ITD column disagrees with the result")
                if miss == "1" and d == "" and row.direction is None:
                    out.misses += 1
                    continue
                d, lat = float(d), float(lat)
                if miss != "0" or not _direction_ok(d):
                    raise ValueError(f"direction {d}")
                if abs(d - row.direction) > 5e-4:
                    raise ValueError("direction column disagrees with the result")
            except ValueError as exc:
                out.failed += 1
                print(f"check: sweep row {line!r}: {exc}")
                continue
            out.errors.append(abs(d - ctx.net.itd_to_position(row.itd, ctx.delta)))
            out.latency_steps.append(lat * 1e-6 / DT)
        return out


class SimulateWav:
    """cli.main('simulate ...') in process on the seeded 1 s, 48 kHz mono
    recording, cycling through the criterion-5 ITDs with a seeded noisy
    shot; events.txt and spikes.csv are checked and hashed."""

    name = "simulate_wav"
    span = "cli.main"
    trials_per_call = 1

    def inputs(self, ctx: Context, k: int) -> tuple:
        itd_us = ITDS_US[k % len(ITDS_US)]
        return (itd_us, [
            "simulate", "--config", str(ctx.config_path),
            "--wav", str(ctx.wav_path), f"--itd={itd_us!r}",
            "--traces", "0,1", "--seed", str(derive_seed(ctx.seed, 2, k)),
            "--out", str(ctx.work / self.name),
        ])

    def call(self, ctx: Context, inp):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(inp[1])
        return rc, buf.getvalue()

    def check(self, ctx: Context, inp, result) -> CallResult:
        itd_us, _ = inp
        rc, stdout = result
        if rc != 0:
            raise CheckFailed(f"simulate exited {rc}")
        out_dir = ctx.work / self.name
        events_bytes = (out_dir / "events.txt").read_bytes()
        spikes_bytes = (out_dir / "spikes.csv").read_bytes()
        out = CallResult(hashlib.sha256(events_bytes + spikes_bytes).hexdigest(),
                         trials=1, failed=0)

        spike_lines = spikes_bytes.decode().splitlines()
        if spike_lines[0] != "time_s,neuron_id":
            raise CheckFailed(f"spikes.csv header {spike_lines[0]!r}")
        spikes = [(float(t), int(i)) for t, i in
                  (line.split(",") for line in spike_lines[1:])]
        events = [readout.serial_decode(line)
                  for line in events_bytes.decode().splitlines()]
        if f"spikes={len(spikes)} events={len(events)}" not in stdout:
            raise CheckFailed("printed summary disagrees with the written files")
        n_samples = int(round(DURATION / DT)) + 1
        with open(out_dir / "traces.csv") as fh:
            n_trace_rows = sum(1 for _ in fh) - 1
        if n_trace_rows != 2 * n_samples:
            raise CheckFailed(f"traces.csv has {n_trace_rows} rows")
        if not (out_dir / "network.txt").is_file():
            raise CheckFailed("network.txt missing")
        if not events:
            out.misses = 1
            return out
        first = events[0]
        if not _direction_ok(first.direction):
            raise CheckFailed(f"direction {first.direction}")
        out.errors.append(abs(first.direction - ctx.net.itd_to_position(
            itd_us * 1e-6, ctx.delta)))
        # the CLI writes no threshold-crossing time, so on this workload
        # detection latency runs from the first input spike
        inputs = [t for t, i in spikes
                  if i in (ctx.net.input_left, ctx.net.input_right)]
        if inputs:
            out.latency_steps.append((first.t - inputs[0]) / DT)
        return out


class Calibrate:
    """The `itdloc calibrate` path: tune the chain weight for the 3.8 us
    target on 9-stage probes, then build and calibrate the 50-stage
    network. It has no random input, so the seed leaves it unchanged."""

    name = "calibrate"
    span = "calibrate.call"
    trials_per_call = 1

    def inputs(self, ctx: Context, k: int) -> float:
        return TARGET_DELAY

    def call(self, ctx: Context, target: float):
        params = ctx.net.config.neuron_params
        weight = jeffress.tune_chain_weight(target, params, DT)
        net = jeffress.build(replace(jeffress.JeffressConfig(), chain_weight=weight))
        return weight, jeffress.calibrate_stage_delay(net, DT)

    def check(self, ctx: Context, target: float, result) -> CallResult:
        weight, cal = result
        digest = hashlib.sha256(
            repr((weight, cal.stage_delays)).encode()).hexdigest()
        if not (math.isfinite(weight) and weight > 0):
            raise CheckFailed(f"chain weight {weight}")
        if len(cal.stage_delays) != N_DETECTORS - 1 or min(cal.stage_delays) <= 0:
            raise CheckFailed("stage delays missing or not positive")
        if abs(cal.stage_delay_mean - target) > 0.1e-6:
            raise CheckFailed(f"stage delay {cal.stage_delay_mean * 1e6:.3f} us "
                              f"misses the {target * 1e6:.1f} us target")
        return CallResult(digest, trials=1, failed=0,
                          stage_delay=cal.stage_delay_mean)


WORKLOADS = {w.name: w for w in (SweepNoisy(), SimulateWav(), Calibrate())}


@dataclass
class Budget:
    """How much a run does; the defaults are the benchmark's own."""

    seconds: float
    n_check: int = 4
    setup_repeats: int = 3


def checked_call(wl, ctx: Context, k: int, tracer=None):
    """Time one call and check its outputs. Returns (seconds, CallResult);
    a call that raises or fails a check counts as failed trials. With a
    tracer the call, not its checks, is the top-level span."""
    inp = wl.inputs(ctx, k)
    shutil.rmtree(ctx.work / wl.name, ignore_errors=True)  # no stale outputs
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = wl.call(ctx, inp)
        else:
            with tracer.span(wl.span, new_trial=True):
                result = wl.call(ctx, inp)
    except Exception as exc:  # a failed call is counted, not fatal
        print(f"call {k} raised: {exc!r}")
        return time.perf_counter() - t0, CallResult(
            "", wl.trials_per_call, wl.trials_per_call)
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, wl.check(ctx, inp, result)
    except (CheckFailed, OSError, ValueError, IndexError) as exc:
        print(f"call {k} output check failed: {exc!r}")
        return elapsed, CallResult("", wl.trials_per_call, wl.trials_per_call)


def run_calls(wl, ctx: Context, budget: Budget):
    """Closed loop over calls 0, 1, ...: at least n_check calls and at
    least budget.seconds of wall time. The reference kernel runs before
    every call and once after the last, to gauge the host's speed."""
    timings, results, ref_times = [], [], []
    start = time.perf_counter()
    k = 0
    while k < budget.n_check or time.perf_counter() - start < budget.seconds:
        ref_times.append(reference())
        dt, res = checked_call(wl, ctx, k)
        timings.append(dt)
        results.append(res)
        k += 1
    ref_times.append(reference())
    return timings, results, ref_times


def mismatched(first, second) -> int:
    """Trials of calls that succeeded twice on the same input with
    different outputs; calls that failed are already counted."""
    return sum(b.trials for a, b in zip(first, second)
               if a.digest and b.digest and a.digest != b.digest)


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.digest.encode())
    return h.hexdigest()


def simulated(ctx: Context, results) -> dict:
    """Simulated results of the check set; they repeat exactly for a seed."""
    errors = [e for r in results for e in r.errors]
    lat = [x for r in results for x in r.latency_steps]
    delays = [r.stage_delay for r in results if r.stage_delay is not None]
    trials = sum(r.trials for r in results)
    return {
        "miss_ratio": sum(r.misses for r in results) / trials,
        "direction_err_units": statistics.fmean(errors) if errors else 0.0,
        "detect_latency_steps_p50": statistics.median(lat) if lat else 0.0,
        "stage_delay_steps": (statistics.fmean(delays) if delays else ctx.delta) / DT,
    }


def run_setup(seed: int, work: Path, repeats: int) -> tuple:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ctx = setup(seed, work)
        times.append(time.perf_counter() - t0)
    return ctx, times


def measure(name: str, seed: int, budget: Budget, work: Path) -> dict:
    """Untraced run: end-to-end timings plus a determinism re-check that
    repeats call 0 and must reproduce its digest."""
    wl = WORKLOADS[name]
    ctx, setup_times = run_setup(seed, work, budget.setup_repeats)
    timings, results, ref_times = run_calls(wl, ctx, budget)
    _, again = checked_call(wl, ctx, 0)
    drift = mismatched([results[0]], [again])
    if drift:
        print("check: repeating call 0 did not reproduce its outputs")
    check_set = results[:budget.n_check]
    trials = sum(r.trials for r in results)
    return {
        "ctx": ctx,
        "setup_times": setup_times,
        "timings": timings,
        "ref_timings": ref_times,
        "trials": trials,
        "attempted": trials + again.trials,
        "failed": sum(r.failed for r in results) + again.failed + drift,
        "digest": digest(check_set),
        "simulated": simulated(ctx, check_set),
    }


def measure_traced(name: str, seed: int, budget: Budget, work: Path) -> dict:
    """Traced run: every call runs twice in a row on the same input, first
    plain, then with every layer wrapped, so the tracing overhead is a
    paired difference. Per-layer times cover all traced calls, counts the
    check set; both runs of a call must give identical outputs."""
    wl = WORKLOADS[name]
    ctx, _ = run_setup(seed, work, budget.setup_repeats)
    tr = tracing.Tracer()
    plain_t, plain, traced_t, traced, counts = [], [], [], [], None
    start = time.perf_counter()
    k = 0
    while k < budget.n_check or time.perf_counter() - start < budget.seconds:
        dt, res = checked_call(wl, ctx, k)
        plain_t.append(dt)
        plain.append(res)
        with tracing.installed(tr):
            dt, res = checked_call(wl, ctx, k, tr)
        traced_t.append(dt)
        traced.append(res)
        k += 1
        if k == budget.n_check:
            counts = dict(tr.counts)
    mismatch = mismatched(plain, traced)
    if mismatch:
        print("check: traced and untraced calls gave different outputs")
    check_set = traced[:budget.n_check]
    trials = sum(r.trials for r in traced)
    return {
        "ctx": ctx,
        "tracer": tr,
        "plain_timings": plain_t,
        "timings": traced_t,
        "trials": trials,
        "check_trials": sum(r.trials for r in check_set),
        "counts": counts,
        "total_counts": dict(tr.counts),
        "attempted": 2 * trials,
        "failed": sum(r.failed for r in plain + traced) + mismatch,
        "digest": digest(check_set),
        "plain_digest": digest(plain[:budget.n_check]),
        "simulated": simulated(ctx, check_set),
    }
