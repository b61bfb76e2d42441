"""Automated evaluation: single localization trials, multi-trial ITD sweeps
with per-ITD statistics, latency measurement and an independent
cross-correlation ITD estimator used as ground truth for the network path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import InjectionSection, RunConfig, StimulusSection, SweepSection
from .frontend import (
    AudioClip,
    FrontEndParams,
    apply_itd,
    condition,
    resample,
    synth_clap,
)
from .jeffress import JeffressNetwork, probe_tables
from .lif import AnalogInjection, Simulation, SpikeRecord, injected_spike_steps
from .readout import ReadoutSection, poll_loop

CHUNK = 64  # cells per batch: bounds the stacked arrays to 2 * CHUNK rows


@dataclass(frozen=True)
class TrialConfig:
    """Everything one localization trial needs besides the ITD, the seed and
    the noise amplitude: the built network plus the RunConfig sections that
    a trial reads, with the same defaults."""

    net: JeffressNetwork
    frontend: FrontEndParams = field(default_factory=FrontEndParams)
    stimulus: StimulusSection = field(default_factory=StimulusSection)
    injection: InjectionSection = field(default_factory=InjectionSection)
    readout: ReadoutSection = field(default_factory=ReadoutSection)
    dt: float = RunConfig.dt
    recording: AudioClip | None = None  # loaded clip; overrides the clap synth

    @classmethod
    def from_run(cls, run: RunConfig, net: JeffressNetwork,
                 recording: AudioClip | None = None) -> "TrialConfig":
        """The trial a RunConfig describes, for a network built from it."""
        return cls(net=net, frontend=run.frontend, stimulus=run.stimulus,
                   injection=run.injection, readout=run.readout, dt=run.dt,
                   recording=recording)

    @property
    def duration(self) -> float:
        return self.stimulus.duration

    def mono_stimulus(self) -> AudioClip:
        return self._mono

    @functools.cached_property
    def _mono(self) -> AudioClip:
        """The mono stimulus, made once; its samples are read-only."""
        clip = self.recording or synth_clap(
            self.stimulus.clap, self.stimulus.sample_rate, self.stimulus.duration)
        samples = clip.samples[:1].view()
        samples.flags.writeable = False
        return AudioClip(clip.sample_rate, samples)

    @functools.cached_property
    def _tables(self) -> tuple | None:
        return probe_tables(self.net, self.dt)


@dataclass(frozen=True)
class TrialResult:
    direction: float | None
    latency: float | None
    event_time: float | None = None

    @property
    def miss(self) -> bool:
        return self.direction is None


@dataclass(frozen=True)
class SweepConfig:
    """Grid of ITDs x trials; every trial is independently seeded from
    (base_seed, itd index, trial index). The defaults are the `sweep`
    section's, with the ITDs in seconds."""

    trial: TrialConfig
    itds: tuple = tuple(x * 1e-6 for x in SweepSection.itds_us)
    trials: int = SweepSection.trials
    noise_amplitude: float = SweepSection.noise_amplitude
    base_seed: int = SweepSection.base_seed
    stage_delay: float | None = None  # enables detector-range validation

    def __post_init__(self):
        object.__setattr__(self, "itds", tuple(float(x) for x in self.itds))
        SweepSection(tuple(x * 1e6 for x in self.itds), self.trials,
                     self.noise_amplitude, self.base_seed)  # its checks
        if self.stage_delay is not None:
            reach = (self.trial.net.n_stages - 1) * self.stage_delay
            worst = max(abs(x) for x in self.itds)
            if worst > reach:
                raise ValueError(
                    f"itd {worst * 1e6:.1f}us outside detector range "
                    f"+-{reach * 1e6:.1f}us"
                )


@dataclass(frozen=True)
class SweepRow:
    itd: float
    trial: int
    direction: float | None
    latency: float | None

    @property
    def miss(self) -> bool:
        return self.direction is None


@dataclass(frozen=True)
class ItdStats:
    itd: float
    mean: float | None
    std: float | None
    outliers: int
    misses: int


@dataclass(frozen=True)
class LinearFit:
    slope: float  # detector units per second of ITD
    intercept: float
    max_abs_residual: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    stats: tuple
    fit: LinearFit | None


def trial_seed(base_seed: int, itd_index: int, trial_index: int) -> np.random.SeedSequence:
    """Stable per-trial seed stream."""
    return np.random.SeedSequence(entropy=base_seed,
                                  spawn_key=(itd_index, trial_index))


@dataclass(frozen=True)
class TrialDetail:
    """Intermediate products of one trial, for rasters and trace dumps."""

    result: TrialResult
    record: object
    traces: object
    events: tuple


def _frontend(cfg: TrialConfig, cells, noise_amplitude: float) -> tuple:
    """Each cell's (itd, seed) stimulus, delay and noise, then the stacked
    channels conditioned in one call up to the last sample the run reads:
    (the rows, their rate, per cell the threshold crossing time or None).
    Conditioning is causal, so the rows begin the whole clip's; an input
    fires only on a read sample at or above its threshold, so no event
    follows a first crossing past them."""
    mono, sim_rate = cfg.mono_stimulus(), round(1.0 / cfg.dt)
    fs, n = mono.sample_rate, mono.samples.shape[1]
    # the drive at each of the run's need steps interpolates the samples
    # around it
    need = round(cfg.duration * sim_rate) + 1
    window = min(int(np.ceil(need * fs / sim_rate)) + 2, n)
    raws = []
    for itd, seed in cells:
        # the delay interpolates pointwise, and the window's samples read
        # at most ceil(|itd| fs) + 1 samples past it; a clip that long
        # still outlasts |itd| (a NaN or too long ITD takes the whole clip
        # and apply_itd's check)
        shift = abs(itd) * fs
        reach = min(window + math.ceil(shift) + 2, n) if shift < n else n
        raw = apply_itd(AudioClip(fs, mono.samples[:, :reach]),
                        itd).samples[:, :window]
        if noise_amplitude > 0:
            # the draws of a (2, n) noise array, in order, up to the
            # window of its second row
            noise = np.random.default_rng(seed).normal(
                0.0, noise_amplitude, n + window)
            raw = raw + np.stack((noise[:window], noise[n:]))
        raws.append(raw)
    cond = condition(np.concatenate(raws), fs, cfg.frontend)
    above = (cond >= cfg.net.config.input_params.v_thresh).reshape(
        len(raws), 2, -1).any(axis=1)
    return cond, fs, [float(i) / fs if hit else None for i, hit in zip(
        above.argmax(axis=1).tolist(), above.any(axis=1).tolist())]


def _injections(cfg: TrialConfig, cond, fs: int) -> list:
    """The two conditioned channels resampled to the simulator rate, as
    drives of the input neurons; past its end a drive holds its final
    value. Interpolation is pointwise, so the samples _frontend keeps give
    the run the drive the whole clip gives it."""
    sim_rate = int(round(1.0 / cfg.dt))
    drive = resample(AudioClip(fs, cond), sim_rate / fs).samples
    return [AnalogInjection(target, trace, sim_rate, cfg.injection)
            for target, trace in zip((cfg.net.input_left, cfg.net.input_right),
                                     drive)]


def _result(events, crossing) -> TrialResult:
    if not events:
        return TrialResult(None, None)
    first = events[0]
    latency = first.t - crossing if crossing is not None else None
    return TrialResult(first.direction, latency, first.t)


def run_trial_detailed(itd: float, seed, cfg: TrialConfig, record_traces=(),
                       *, noise_amplitude: float = 0.0) -> TrialDetail:
    """One end-to-end localization: stimulus, inter-channel delay, optional
    per-channel Gaussian noise of standard deviation noise_amplitude (volts,
    drawn from seed), conditioning, resampling to the simulator rate,
    membrane injection, network run over the full duration and readout
    replay.

    Latency is measured from the first time either conditioned channel
    crosses the input neurons' threshold to the readout event.
    """
    cond, fs, (crossing,) = _frontend(cfg, [(itd, seed)], noise_amplitude)
    spec = cfg.net.spec.with_injections(_injections(cfg, cond, fs))
    record, traces = Simulation(spec, cfg.dt).run(cfg.duration,
                                                  record_traces=record_traces)
    events = poll_loop(record, cfg.readout, cfg.net.detectors,
                       t_end=cfg.duration)
    return TrialDetail(result=_result(events, crossing), record=record,
                       traces=traces, events=tuple(events))


def _exact(cfg: TrialConfig, inputs, crossing) -> TrialResult | None:
    """One trial's result with no neuron stepped: from its inputs' first two
    spike steps (the audio-rate screen), chains and detectors from the probe
    tables, then the readout replay. None where stepping may differ: an
    input firing again by the first event's poll."""
    (stage, reach, fire), net, dt = cfg._tables, cfg.net, cfg.dt
    steps = ids = np.zeros(0, dtype=np.int64)
    if stage is not None and all(inputs):
        # the kick steps at each detector position, from each side's chain
        a, b = (spikes[0] + stage * (np.argsort(net.chain_order(side)) + 1)
                for spikes, side in zip(inputs, ("left", "right")))
        off = np.abs(a - b)
        j = np.flatnonzero(off <= reach)
        j = j[fire[off[j]] >= 0]
        steps = np.maximum(a, b)[j] + fire[off[j]]
        order = np.lexsort((j, steps))  # by step, then by id, as stepped
        steps, ids = steps[order], np.asarray(net.detectors)[j[order]]
    record = SpikeRecord(net.spec.n_neurons, steps * dt, ids)
    events = poll_loop(record, cfg.readout, net.detectors, t_end=cfg.duration)
    horizon = events[0].t if events else cfg.duration
    if all(len(spikes) < 2 or spikes[1] * dt > horizon for spikes in inputs):
        return _result(events, crossing)
    return None


def _trials(cfg: TrialConfig, cells, noise_amplitude: float, labels=None) -> list:
    """The results of trials `cells`, (itd, seed) pairs, as
    run_trial_detailed gives them: the front end and the input screen run
    once on the stack, then each cell goes through _exact, or through
    run_trial_detailed where that may differ (see _exact; an input within
    the screen's margin; no tables). With labels, a failure raises
    RuntimeError naming its cell, or a stacked stage's first and last."""
    lo, hi = 0, len(cells) - 1  # the cells a failure names
    try:
        cond, fs, crossings = _frontend(cfg, cells, noise_amplitude)
        inputs = [None] * len(cond)
        if cfg._tables is not None:
            inputs = injected_spike_steps(
                cfg.net.config.input_params, cfg.injection, cfg.dt,
                round(cfg.duration / cfg.dt), cond, fs)
        results = []
        for lo, (itd, seed) in enumerate(cells):
            hi, pair = lo, inputs[2 * lo:2 * lo + 2]
            results.append(
                None not in pair and _exact(cfg, pair, crossings[lo])
                or run_trial_detailed(itd, seed, cfg,
                                      noise_amplitude=noise_amplitude).result)
        return results
    except Exception as exc:
        if labels is None:
            raise
        where = labels[lo] + ("" if lo == hi else f" to {labels[hi]}")
        raise RuntimeError(f"trial failed at {where}: {exc}") from exc


def run_trial(itd: float, seed, cfg: TrialConfig, *,
              noise_amplitude: float = 0.0) -> TrialResult:
    """Direction and latency of one trial, as run_trial_detailed gives them,
    from exact spike arithmetic where it is exact: a batch of one."""
    return _trials(cfg, [(itd, seed)], noise_amplitude)[0]


def run_sweep(cfg: SweepConfig, jobs: int = 1, out_dir=None) -> SweepResult:
    """Run the full ITD x trial grid in batches of CHUNK cells; rows are
    keyed by (itd, trial). When out_dir is given, it is created first, and
    sweep.csv and stats.csv written there. The `jobs` keyword takes only 1:
    it stays for benchmark/workloads.py's `run_sweep(..., jobs=1)` call and
    goes when that call drops it."""
    if jobs != 1:
        raise ValueError("run_sweep runs in one process: jobs must be 1")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    cells = [(i, k) for i in range(len(cfg.itds)) for k in range(cfg.trials)]
    rows = []
    for lo in range(0, len(cells), CHUNK):
        chunk = cells[lo:lo + CHUNK]
        trials = [(cfg.itds[i], trial_seed(cfg.base_seed, i, k))
                  for i, k in chunk]
        labels = [f"itd={cfg.itds[i] * 1e6:.3f}us, trial={k}, "
                  f"seed=({cfg.base_seed}, {i}, {k})" for i, k in chunk]
        results = _trials(cfg.trial, trials, cfg.noise_amplitude, labels)
        rows += [SweepRow(cfg.itds[i], k, res.direction, res.latency)
                 for (i, k), res in zip(chunk, results)]
    stats_rows, fit = stats(rows)
    result = SweepResult(rows=tuple(rows), stats=stats_rows, fit=fit)
    if out_dir is not None:
        write_sweep_csv(out / "sweep.csv", result)
        write_stats_csv(out / "stats.csv", result)
    return result


def stats(rows) -> tuple:
    """Per-ITD mean/std/outlier/miss statistics plus a least-squares line
    through the per-ITD means. ITDs where every trial missed carry absent
    statistics and are excluded from the fit; ITDs whose spread squares to
    zero, like a lone ITD, determine no line."""
    by_itd: dict = {}
    for r in rows:
        by_itd.setdefault(r.itd, []).append(r)
    out = []
    xs, ys = [], []
    for itd in sorted(by_itd):
        cell = by_itd[itd]
        hits = np.array([r.direction for r in cell if r.direction is not None])
        misses = sum(1 for r in cell if r.direction is None)
        if hits.size == 0:
            out.append(ItdStats(itd, None, None, 0, misses))
            continue
        mean = float(np.mean(hits))
        std = float(np.std(hits))
        outliers = int(np.sum(np.abs(hits - mean) > 3.0))
        out.append(ItdStats(itd, mean, std, outliers, misses))
        xs.append(itd)
        ys.append(mean)
    fit = None
    if len(xs) >= 2 and np.var(xs) > 0:
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = np.array(ys) - (slope * np.array(xs) + intercept)
        fit = LinearFit(slope=float(slope), intercept=float(intercept),
                        max_abs_residual=float(np.max(np.abs(resid))))
    return tuple(out), fit


def xcorr_oracle(stereo: AudioClip, max_lag: float) -> float:
    """ITD estimate independent of the network: the lag of the normalized
    cross-correlation peak between the two channels, refined by parabolic
    interpolation. Positive values mean the right channel lags, matching
    apply_itd's sign."""
    if stereo.n_channels != 2:
        raise ValueError("xcorr_oracle needs a stereo clip")
    if not 0 <= max_lag < stereo.duration:
        raise ValueError(f"max_lag must lie in [0, {stereo.duration:.3g}) s, "
                         f"the clip duration; got {max_lag}")
    left = stereo.channel(0) - np.mean(stereo.channel(0))
    right = stereo.channel(1) - np.mean(stereo.channel(1))
    norm = np.sqrt(np.sum(left**2) * np.sum(right**2))
    if norm == 0:
        raise ValueError("xcorr_oracle: a channel is silent (zero variance)")

    n, max_shift = left.size, int(np.floor(max_lag * stereo.sample_rate))
    # lag m correlates right[k + m] with left[k]; positive lag = right lags
    lags = np.arange(-max_shift, max_shift + 1)
    vals = np.array([left[max(-m, 0):n - max(m, 0)]
                     @ right[max(m, 0):n - max(-m, 0)] for m in lags]) / norm
    peak = int(np.argmax(vals))
    lag = float(lags[peak])
    if 0 < peak < vals.size - 1:
        y0, y1, y2 = vals[peak - 1], vals[peak], vals[peak + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:
            lag += 0.5 * (y0 - y2) / denom
    return float(lag / stereo.sample_rate)


def write_sweep_csv(path, result: SweepResult) -> None:
    """Rows as `itd_us,trial,direction,latency_us,miss` with fixed
    3-decimal fields for byte-stable diffs."""
    with open(path, "w") as fh:
        fh.write("itd_us,trial,direction,latency_us,miss\n")
        for r in result.rows:
            d = f"{r.direction:.3f}" if r.direction is not None else ""
            lat = f"{r.latency * 1e6:.3f}" if r.latency is not None else ""
            fh.write(f"{r.itd * 1e6:.3f},{r.trial},{d},{lat},{int(r.miss)}\n")


def write_stats_csv(path, result: SweepResult) -> None:
    """Per-ITD stats as `itd_us,mean,std,outliers,misses`."""
    with open(path, "w") as fh:
        fh.write("itd_us,mean,std,outliers,misses\n")
        for s in result.stats:
            mean = f"{s.mean:.3f}" if s.mean is not None else ""
            std = f"{s.std:.3f}" if s.std is not None else ""
            fh.write(f"{s.itd * 1e6:.3f},{mean},{std},{s.outliers},{s.misses}\n")
