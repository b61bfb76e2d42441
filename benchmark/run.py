"""Benchmark of the itdloc simulator: one workload per run, in one process.

    python3 benchmark/run.py --workload sweep_noisy --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; itdloc is imported from ./src.
The workload runs in this process; two short child interpreters only time
`import itdloc` again, so set-up time is a median of three imports.
Workloads: sweep_noisy, simulate_wav, calibrate (see workloads.py). With
--trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass. Throughput is reported at a fixed
reference host speed: a frozen kernel (reference.py) is timed before and
after every call and divided out, because shared hosts drift in speed by
up to 1.7x between runs; the raw wall-clock figures stay in the record.
Every metric is printed by name with its unit, and the last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The run record (machine and
provenance, simulated results, digests, sample counts and, when traced,
every span) is written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SHAPE = "closed loop, one caller, jobs=1, no process pool"
WORKLOAD_NAMES = ("sweep_noisy", "simulate_wav", "calibrate")

# name -> unit; the names and units of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "norm_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = {  # metric -> span whose self time it reports, ms per trial
    "lif.run_ms": "lif.run",
    "lif.init_ms": "lif.init",
    "lif.injection_ms": "lif.injection",
    "lif.write_csv_ms": "lif.write_csv",
    "frontend.load_wav_ms": "frontend.load_wav",
    "frontend.synth_clap_ms": "frontend.synth_clap",
    "frontend.apply_itd_ms": "frontend.apply_itd",
    "frontend.condition_ms": "frontend.condition",
    "frontend.resample_ms": "frontend.resample",
    "jeffress.tune_ms": "jeffress.tune",
    "jeffress.calibrate_ms": "jeffress.calibrate",
    "jeffress.build_ms": "jeffress.build",
    "readout.poll_loop_ms": "readout.poll_loop",
    "harness.trial_self_ms": "harness.trial",
    "harness.sweep_self_ms": "harness.sweep",
    "cli.main_self_ms": "cli.main",
    "config.load_ms": "config.load",
}
LAYER_COUNTS = ("lif.steps", "lif.quiet_steps", "lif.spikes",
                "frontend.resampled_samples", "jeffress.calibrate_calls",
                "readout.events")  # per trial of the check set
PER_LAYER = {
    **{name: "ms" for name in LAYER_TIMES},
    "lif.us_per_step": "us",
    **{name: "count" for name in LAYER_COUNTS},
    "lif.active_steps": "count",
    "lif.useful_step_ratio": "ratio",
    "lif.run_share_pct": "%",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "sim.miss_ratio": "ratio",
    "sim.direction_err_units": "units",
    "sim.detect_latency_steps_p50": "steps",
    "sim.stage_delay_steps": "steps",
}


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "shape": SHAPE,
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; a
    checkout exported without history reports 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(res: dict, import_s) -> dict:
    import reference

    per_call = res["trials"] / len(res["timings"])
    norm = reference.normalized(res["timings"], res["ref_timings"])
    return {
        "setup_s": (statistics.median(import_s)
                    + statistics.median(res["setup_times"])),
        "norm_trials_per_s": per_call / statistics.median(norm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def import_seconds(in_process: float, children: int = 2) -> list:
    """Time `import itdloc` in this process and in fresh interpreters, so
    set-up time is a median and not one cold or warm sample."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import itdloc; "
            "print(time.perf_counter() - t)")
    times = [in_process]
    for _ in range(children):
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def latency(timings: list) -> dict:
    """Per-call latency for the run record; p90 only from 100 calls up."""
    out = {"calls": len(timings), "p50_ms": statistics.median(timings) * 1e3}
    if len(timings) >= 100:
        out["p90_ms"] = statistics.quantiles(timings, n=10)[-1] * 1e3
    return out


def per_layer(res: dict) -> dict:
    self_s = res["tracer"].self_times()
    n = res["trials"]
    counts, total = res["counts"], res["total_counts"]
    nc = res["check_trials"]
    out = {name: self_s[span] * 1e3 / n for name, span in LAYER_TIMES.items()}
    out.update({name: counts.get(name, 0) / nc for name in LAYER_COUNTS})
    steps = counts["lif.steps"]  # every workload steps the network
    out["lif.active_steps"] = (steps - counts["lif.quiet_steps"]) / nc
    out["lif.useful_step_ratio"] = (
        steps - counts.get("lif.wasted_steps", 0)) / steps
    out["lif.us_per_step"] = self_s["lif.run"] * 1e6 / total["lif.steps"]
    traced, plain = sum(res["timings"]), sum(res["plain_timings"])
    out["lif.run_share_pct"] = 100.0 * self_s["lif.run"] / traced
    out["trace.overhead_ms"] = (traced - plain) * 1e3 / n
    out["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    out.update({f"sim.{k}": v for k, v in res["simulated"].items()})
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "itdloc" / "__init__.py").is_file():
        print(f"error: no itdloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads: one caller, one thread
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    t0 = time.perf_counter()
    import itdloc  # noqa: F401  (timed as part of set-up)
    import_s = import_seconds(time.perf_counter() - t0)
    import workloads

    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    budget = workloads.Budget(seconds=args.seconds)
    line, record = execute(args.workload, args.seed, args.trace, budget,
                           out_dir, import_s)
    units = PER_LAYER if args.trace else END_TO_END
    for name, m in line["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {units[name]}")
    print(f"calls timed {record['calls_timed']} ({record['trials_timed']} "
          f"trials); digest {record['digest'][:16]}; record {out_dir}/result.json")
    print(json.dumps(line))
    return 0


def execute(workload: str, seed: int, trace: int, budget, out_dir: Path,
            import_s=(0.0,)) -> tuple:
    """Run one workload; write the run record (and spans) to out_dir and
    return (result line, run record)."""
    import workloads

    if trace:
        res = workloads.measure_traced(workload, seed, budget, out_dir)
        metrics, units = per_layer(res), PER_LAYER
        (out_dir / "spans.json").write_text(json.dumps(res["tracer"].dump()))
    else:
        res = workloads.measure(workload, seed, budget, out_dir)
        metrics, units = end_to_end(res, import_s), END_TO_END

    record = {
        "workload": workload,
        "trace": trace,
        "seconds": budget.seconds,
        "provenance": provenance(seed),
        "calls_timed": len(res["timings"]),
        "call_seconds": res["timings"],
        "latency": latency(res["timings"]),
        "trials_timed": res["trials"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "digest": res["digest"],
        "simulated": res["simulated"],
        "stage_delay_us": res["ctx"].delta * 1e6,
        "metrics": metrics,
    }
    if trace:
        record["untraced_digest"] = res["plain_digest"]
        record["counts_check_set"] = res["counts"]
    else:
        record["setup_times_s"] = res["setup_times"]
        record["import_s"] = list(import_s)
        record["reference_seconds"] = res["ref_timings"]
        record["wall_trials_per_s"] = res["trials"] / sum(res["timings"])
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    line = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return line, record


if __name__ == "__main__":
    sys.exit(main())
