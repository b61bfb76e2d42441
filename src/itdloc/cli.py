"""Command-line front door: calibration, single-shot simulation, ITD sweeps
and the cross-correlation oracle.

Exit codes: 0 success, 2 configuration or input error (including OS errors
such as an unreadable file), 3 runtime failure, a closed standard output
among them.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, jeffress, readout
from .config import (
    ConfigError,
    RunConfig,
    check_itds,
    dump_config,
    load_config,
    save_config,
)
from .frontend import WavError, apply_itd, load_wav

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load(args) -> RunConfig:
    if args.config:
        return load_config(args.config)
    return RunConfig()


def _network(config: jeffress.JeffressConfig) -> jeffress.JeffressNetwork:
    """The network a config describes; weights that cannot work are an input error."""
    try:
        return jeffress.build(config)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc


def _trial(cfg: RunConfig, wav: str | None) -> harness.TrialConfig:
    """The trial `cfg` describes, on a network built from it, with the
    recording at `wav` in place of the synthetic clap if one is named. A
    recording that is not mono, or resamples to no sample at 1 / dt, is an
    input error."""
    net = _network(cfg.network)
    recording = load_wav(wav) if wav else None
    if recording is not None:
        if recording.n_channels != 1:
            raise WavError(f"{wav}: {recording.n_channels} channels; the "
                           "stimulus recording must be mono")
        rate = round(1.0 / cfg.dt)
        if round(recording.n_samples * rate / recording.sample_rate) < 1:
            raise WavError(
                f"{wav}: {recording.n_samples} sample(s) at "
                f"{recording.sample_rate} Hz resample to none at 1 / dt = "
                f"{rate} Hz")
    return harness.TrialConfig.from_run(cfg, net, recording=recording)


def cmd_calibrate(args) -> int:
    if not 0 < args.target_us < np.inf:
        raise ConfigError(f"--target-us must be finite and > 0, got {args.target_us}")
    cfg = _load(args)
    target = args.target_us * 1e-6
    weight = jeffress.tune_chain_weight(target, cfg.network.neuron_params,
                                        cfg.dt)
    tuned = replace(cfg, network=replace(cfg.network, chain_weight=weight))
    net = _network(tuned.network)
    cal = jeffress.calibrate_stage_delay(net, cfg.dt)
    res = jeffress.angular_resolution(cal.stage_delay_mean, cfg.geometry)
    print(f"chain_weight={weight:.6e} A")
    print(f"stage_delay_mean={cal.stage_delay_mean * 1e6:.3f} us")
    print(f"stage_delay_std={cal.stage_delay_std * 1e6:.3f} us")
    print(f"stages={len(cal.stage_delays) + 1}")
    print(f"resolution_per_stage={np.degrees(res['per_stage_rad']):.2f} deg")
    print(f"resolution_per_detector={np.degrees(res['per_detector_rad']):.2f} deg")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_config(tuned, out / "tuned_config.json")
        print(f"wrote {out / 'tuned_config.json'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    trial_cfg = _trial(cfg, args.wav or cfg.stimulus.wav)
    net = trial_cfg.net
    # noiseless and fully deterministic unless a seed asks for a noisy shot
    noise = cfg.sweep.noise_amplitude if args.seed is not None else 0.0
    itd_us = args.itd or 0.0
    check_itds([itd_us], trial_cfg.mono_stimulus().duration)
    itd = itd_us * 1e-6
    n, ids = net.spec.n_neurons, args.traces.split(",") if args.traces else []
    if not all(x.strip().isdecimal() and int(x) < n for x in ids):
        raise ConfigError(f"--traces takes neuron ids 0..{n - 1}, got {args.traces}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the run

    detail = harness.run_trial_detailed(itd, args.seed, trial_cfg,
                                        record_traces=[int(x) for x in ids],
                                        noise_amplitude=noise)
    detail.record.to_csv(out / "spikes.csv")
    with open(out / "events.txt", "w") as fh:
        for ev in detail.events:
            line = readout.serial_encode(ev)
            fh.write(line)
            sys.stdout.write(line)
    if detail.events:
        readout.write_pwm_csv(out / "pwm.csv", detail.events[0].direction,
                              net.n_stages, cfg.pwm)
    if detail.traces is not None:
        detail.traces.to_csv(out / "traces.csv")
    with open(out / "network.txt", "w") as fh:
        fh.write(net.describe())
    print(f"spikes={len(detail.record)} events={len(detail.events)} -> {out}/")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    flags = {"trials": args.trials, "base_seed": args.seed}
    try:  # the flags pass the section's checks, as the config's values do
        if args.itds is not None:  # "--itds=" is an error, not the default list
            flags["itds_us"] = tuple(float(x) for x in args.itds.split(","))
        sweep = replace(cfg.sweep, **{k: v for k, v in flags.items()
                                      if v is not None})
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    trial_cfg = _trial(cfg, cfg.stimulus.wav)
    check_itds(sweep.itds_us, trial_cfg.mono_stimulus().duration)
    sweep_cfg = harness.SweepConfig(
        trial=trial_cfg, itds=tuple(x * 1e-6 for x in sweep.itds_us),
        trials=sweep.trials, noise_amplitude=sweep.noise_amplitude,
        base_seed=sweep.base_seed)
    out = Path(args.out)
    result = harness.run_sweep(sweep_cfg, out_dir=out)
    misses = sum(1 for r in result.rows if r.miss)
    print(f"rows={len(result.rows)} misses={misses}")
    if result.fit:
        print(f"fit: slope={result.fit.slope:.1f} units/s "
              f"intercept={result.fit.intercept:.2f} "
              f"max_residual={result.fit.max_abs_residual:.2f}")
    print(f"wrote {out / 'sweep.csv'} and {out / 'stats.csv'}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    clip = load_wav(args.wav)
    mono = clip.n_channels == 1
    if mono != (args.itd is not None):
        raise ConfigError(f"{args.wav}: " + (
            "mono input: pass --itd US to self-shift it for the oracle" if mono
            else "stereo input: --itd self-shifts a mono WAV only"))
    if args.itd is not None:
        check_itds([args.itd], clip.duration)
        clip = apply_itd(clip, args.itd * 1e-6)
    max_lag = min(0.49 * clip.duration, 500e-6)
    try:
        itd = harness.xcorr_oracle(clip, max_lag)
    except ValueError as exc:  # a silent channel
        raise WavError(f"{args.wav}: {exc}") from exc
    print(f"itd_us={itd * 1e6:.3f}")
    return EXIT_OK


def cmd_config_dump(args) -> int:
    cfg = _load(args)
    sys.stdout.write(dump_config(cfg))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="itdloc",
        description="Simulate the analog-input spiking sound localizer.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--config", metavar="PATH", help="JSON run config")
        if seed:
            sp.add_argument("--seed", type=int, metavar="N", help="base RNG seed")
        sp.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: out)")

    sp = sub.add_parser("calibrate", help="tune the chain weight and report "
                                          "the per-stage delay")
    common(sp, seed=False)
    sp.add_argument("--target-us", type=float, default=3.8,
                    help="target stage delay in microseconds (default 3.8)")
    sp.set_defaults(func=cmd_calibrate)

    sp = sub.add_parser("simulate", help="run one clap end to end")
    common(sp)
    sp.add_argument("--itd", type=float, metavar="US",
                    help="inter-channel delay in microseconds")
    sp.add_argument("--wav", metavar="PATH", help="mono stimulus recording")
    sp.add_argument("--traces", metavar="ID,ID,...",
                    help="neuron ids whose membrane traces to dump")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="run the ITD x trial grid")
    common(sp)
    sp.add_argument("--trials", type=int, metavar="N",
                    help="override trials per ITD")
    sp.add_argument("--itds", metavar="US,US,...",
                    help="override the ITD list (microseconds)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("oracle", help="estimate the ITD of a stereo WAV by "
                                       "cross-correlation")
    sp.add_argument("--wav", metavar="PATH", required=True)
    sp.add_argument("--itd", type=float, metavar="US",
                    help="self-shift to apply when the WAV is mono")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("config", help="configuration helpers")
    csub = sp.add_subparsers(dest="config_command", required=True)
    cdump = csub.add_parser("dump", help="print the effective config as JSON")
    cdump.add_argument("--config", metavar="PATH")
    cdump.set_defaults(func=cmd_config_dump)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--itds" in argv[:-1]:  # a lone "-40,0,40" would parse as an option
        i = argv.index("--itds")
        argv[i:i + 2] = [f"--itds={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError as exc:  # the reader left; the files are written
        sys.stdout = open(os.devnull, "w")  # so the last flush cannot raise
        print(f"error: standard output closed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, WavError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError) as exc:  # CalibrationError is one
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
