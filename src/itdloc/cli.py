"""Command-line front door: calibration, single-shot simulation, ITD sweeps
and the cross-correlation oracle.

Exit codes: 0 success, 2 configuration or input error (including OS errors
such as an unreadable file), 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, jeffress, readout
from .config import (
    ConfigError,
    RunConfig,
    dump_config,
    load_config,
    save_config,
)
from .frontend import WavError, apply_itd, load_wav
from .jeffress import CalibrationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load(args) -> RunConfig:
    if args.config:
        return load_config(args.config)
    return RunConfig()


def _trial(cfg: RunConfig, wav: str | None) -> harness.TrialConfig:
    """The trial `cfg` describes, on a network built from it, with the
    recording at `wav` in place of the synthetic clap if one is named."""
    net = jeffress.build(cfg.network)
    return harness.TrialConfig.from_run(
        cfg, net, recording=load_wav(wav) if wav else None)


def cmd_calibrate(args) -> int:
    cfg = _load(args)
    target = args.target_us * 1e-6
    weight = jeffress.tune_chain_weight(target, cfg.network.neuron_params,
                                        cfg.dt)
    tuned = replace(cfg, network=replace(cfg.network, chain_weight=weight))
    net = jeffress.build(tuned.network)
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
    itd = (args.itd or 0.0) * 1e-6
    traced = [int(x) for x in args.traces.split(",")] if args.traces else []
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # a bad --out fails before the run

    detail = harness.run_trial_detailed(itd, args.seed, trial_cfg,
                                        record_traces=traced,
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
    trial_cfg = _trial(cfg, cfg.stimulus.wav)
    itds_us = cfg.sweep.itds_us
    if args.itds:
        itds_us = tuple(float(x) for x in args.itds.split(","))
    sweep_cfg = harness.SweepConfig(
        trial=trial_cfg,
        itds=tuple(x * 1e-6 for x in itds_us),
        trials=args.trials if args.trials is not None else cfg.sweep.trials,
        noise_amplitude=cfg.sweep.noise_amplitude,
        base_seed=args.seed if args.seed is not None else cfg.sweep.base_seed,
    )
    out = Path(args.out)
    result = harness.run_sweep(sweep_cfg, jobs=args.jobs, out_dir=out)
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
    if clip.n_channels == 1:
        if args.itd is None:
            raise CliRuntimeError(
                "mono input: pass --itd US to self-shift it for the oracle")
        clip = apply_itd(clip, args.itd * 1e-6)
    max_lag = min(0.49 * clip.duration, 500e-6)
    itd = harness.xcorr_oracle(clip, max_lag)
    print(f"itd_us={itd * 1e6:.3f}")
    return EXIT_OK


def cmd_config_dump(args) -> int:
    cfg = _load(args)
    sys.stdout.write(dump_config(cfg))
    return EXIT_OK


class CliRuntimeError(RuntimeError):
    pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="itdloc",
        description="Simulate the analog-input spiking sound localizer.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="PATH", help="JSON run config")
        sp.add_argument("--seed", type=int, metavar="N", help="base RNG seed")
        sp.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: out)")

    sp = sub.add_parser("calibrate", help="tune the chain weight and report "
                                          "the per-stage delay")
    common(sp)
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
    sp.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="parallel trial workers")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, WavError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CalibrationError, CliRuntimeError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
