"""Automated evaluation: single localization trials, multi-trial ITD sweeps
with per-ITD statistics, latency measurement and an independent
cross-correlation ITD estimator used as ground truth for the network path.
"""

from __future__ import annotations

import concurrent.futures
import functools
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
from .jeffress import JeffressNetwork
from .lif import AnalogInjection, NetworkSpec, Simulation, SpikeRecord, stack
from .readout import ReadoutConfig, ReadoutSection, poll_loop


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

    def readout_config(self) -> ReadoutConfig:
        return ReadoutConfig(detector_ids=self.net.detectors,
                             iteration_time=self.readout.iteration_time,
                             dead_time=self.readout.dead_time)

    def mono_stimulus(self) -> AudioClip:
        if self.recording is not None:
            if self.recording.n_channels != 1:
                return AudioClip(self.recording.sample_rate,
                                 self.recording.channel(0)[np.newaxis, :])
            return self.recording
        return synth_clap(self.stimulus.clap, self.stimulus.sample_rate,
                          self.stimulus.duration)


@dataclass(frozen=True)
class TrialResult:
    direction: float | None
    latency: float | None
    event_time: float | None = None
    crossing_time: float | None = None

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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
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
    stereo: AudioClip
    conditioned: AudioClip


def _frontend(itd: float, seed, cfg: TrialConfig, noise_amplitude: float):
    """Stimulus, inter-channel delay, noise, conditioning and the drive at
    the simulator rate. Returns (stereo, conditioned samples, threshold
    crossing time or None, drive of shape (2, steps + 1))."""
    stereo = apply_itd(cfg.mono_stimulus(), itd)
    raw = stereo.samples
    if noise_amplitude > 0:
        rng = np.random.default_rng(seed)
        raw = raw + rng.normal(0.0, noise_amplitude, size=raw.shape)

    fs = stereo.sample_rate
    cond = np.stack([condition(raw[i], fs, cfg.frontend) for i in range(2)])

    v_thresh = cfg.net.config.input_params.v_thresh
    above = np.flatnonzero((cond >= v_thresh).any(axis=0))
    crossing = float(above[0]) / fs if above.size else None

    sim_rate = _sim_rate(cfg)
    need = int(round(cfg.duration * sim_rate)) + 1
    # interpolation is pointwise, so resampling only the input samples that
    # cover the run gives the same drive as resampling the whole clip
    window = min(cond.shape[1], int(np.ceil(need * fs / sim_rate)) + 2)
    drive = resample(AudioClip(fs, cond[:, :window]), sim_rate / fs).samples
    drive = drive[:, :need]
    if drive.shape[1] < need:  # rounding slack; extend with the final value
        drive = np.pad(drive, ((0, 0), (0, need - drive.shape[1])), mode="edge")
    return stereo, cond, crossing, drive


def _sim_rate(cfg: TrialConfig) -> int:
    return int(round(1.0 / cfg.dt))


def _injections(cfg: TrialConfig, drive, offset: int = 0) -> list:
    """The two input drives, on the input neurons shifted by offset."""
    return [AnalogInjection(target + offset, trace, _sim_rate(cfg),
                            r_src=cfg.injection.r_src, mode=cfg.injection.mode)
            for target, trace in zip((cfg.net.input_left, cfg.net.input_right),
                                     drive)]


def _result(events, crossing) -> TrialResult:
    if not events:
        return TrialResult(None, None, None, crossing)
    first = events[0]
    latency = first.t - crossing if crossing is not None else None
    return TrialResult(first.direction, latency, first.t, crossing)


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
    stereo, cond, crossing, drive = _frontend(itd, seed, cfg, noise_amplitude)
    spec = cfg.net.spec.with_injections(_injections(cfg, drive))
    record, traces = Simulation(spec, cfg.dt).run(cfg.duration,
                                                  record_traces=record_traces)
    events = poll_loop(record, cfg.readout_config(), t_end=cfg.duration)
    return TrialDetail(result=_result(events, crossing), record=record,
                       traces=traces, events=tuple(events), stereo=stereo,
                       conditioned=AudioClip(stereo.sample_rate, cond))


BLOCK = 32  # trials stepped together as one stacked network


@functools.lru_cache(maxsize=2)
def _stacked(spec: NetworkSpec, copies: int) -> NetworkSpec:
    return stack([spec] * copies)


def _run_block(cfg: TrialConfig, prepared) -> list:
    """Step several trials as one network of disjoint copies, copy b
    driven by prepared[b] = (crossing, drive), and return their results.

    A TrialResult reads only the first readout event, so the block stops
    at the first poll boundary by which every copy has a detector spike,
    or else at the full duration. Each copy's spikes then go through the
    same readout replay as a full run.
    """
    net, readout = cfg.net, cfg.readout_config()
    n = net.spec.n_neurons
    injections = [inj for b, (_, drive) in enumerate(prepared)
                  for inj in _injections(cfg, drive, offset=b * n)]
    sim = Simulation(_stacked(net.spec, len(prepared)).with_injections(
        injections), cfg.dt)
    last = int(round(cfg.duration / cfg.dt))
    record = SpikeRecord(sim.n)
    step = k = 0
    while step < last:
        # poll k counts the spikes at or before its boundary, with
        # poll_loop's 1e-12 slack; a spike lands at (its step + 1) * dt
        k += 1
        boundary = k * readout.iteration_time + 1e-12
        target = min(last, int(boundary / cfg.dt) + 1)
        while target * cfg.dt > boundary:
            target -= 1
        if target <= step:
            continue
        record, _ = sim.run((target - step) * cfg.dt)
        step = target
        seen = record.ids[np.isin(record.ids % n, net.detectors)] // n
        if np.unique(seen).size == len(prepared):
            break

    results = []
    for b, (crossing, _) in enumerate(prepared):
        mine = record.ids // n == b
        own = SpikeRecord(n, record.times[mine], record.ids[mine] - b * n)
        results.append(_result(poll_loop(own, readout, t_end=cfg.duration),
                               crossing))
    return results


def run_trial(itd: float, seed, cfg: TrialConfig, *,
              noise_amplitude: float = 0.0) -> TrialResult:
    """Direction and latency of one trial, as run_trial_detailed gives them,
    but the network steps only until the first readout event."""
    _, _, crossing, drive = _frontend(itd, seed, cfg, noise_amplitude)
    return _run_block(cfg, [(crossing, drive)])[0]


def _where(cell, base_seed: int) -> str:
    i, k, itd = cell
    return f"itd={itd * 1e6:.3f}us, trial={k}, seed=({base_seed}, {i}, {k})"


def _sweep_block(args):
    """Results of one block of sweep cells (itd index, trial index, itd).
    A failure names its cell, or the block's first and last cells when
    stepping fails."""
    cells, cfg, base_seed, noise = args
    prepared = []
    try:
        for cell in cells:
            where = _where(cell, base_seed)
            i, k, itd = cell
            _, _, crossing, drive = _frontend(
                itd, trial_seed(base_seed, i, k), cfg, noise)
            prepared.append((crossing, drive))
        where = (f"the block from {_where(cells[0], base_seed)} "
                 f"to {_where(cells[-1], base_seed)}")
        return _run_block(cfg, prepared)
    except Exception as exc:
        raise RuntimeError(f"trial failed at {where}: {exc}") from exc


def run_sweep(cfg: SweepConfig, jobs: int = 1, out_dir=None) -> SweepResult:
    """Run the full ITD x trial grid in blocks of BLOCK trials, each stepped
    as one network (a block per task with jobs > 1); rows are keyed by
    (itd, trial) and identical regardless of worker count. When out_dir is
    given, it is created first, and sweep.csv and stats.csv written there."""
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    cells = [(i, k, itd) for i, itd in enumerate(cfg.itds)
             for k in range(cfg.trials)]
    tasks = [(cells[lo:lo + BLOCK], cfg.trial, cfg.base_seed,
              cfg.noise_amplitude) for lo in range(0, len(cells), BLOCK)]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            blocks = list(pool.map(_sweep_block, tasks))
    else:
        blocks = [_sweep_block(task) for task in tasks]
    results = [res for block in blocks for res in block]
    rows = tuple(
        SweepRow(itd=itd, trial=k, direction=res.direction,
                 latency=res.latency)
        for (_, k, itd), res in zip(cells, results)
    )
    stats_rows, fit = stats(rows)
    result = SweepResult(rows=rows, stats=stats_rows, fit=fit)
    if out_dir is not None:
        write_sweep_csv(out / "sweep.csv", result)
        write_stats_csv(out / "stats.csv", result)
    return result


def stats(rows) -> tuple:
    """Per-ITD mean/std/outlier/miss statistics plus a least-squares line
    through the per-ITD means. ITDs where every trial missed carry absent
    statistics and are excluded from the fit."""
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
    if len(xs) >= 2:
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
    if max_lag >= stereo.duration:
        raise ValueError("max_lag must be below the clip duration")
    left = stereo.channel(0) - np.mean(stereo.channel(0))
    right = stereo.channel(1) - np.mean(stereo.channel(1))
    norm = np.sqrt(np.sum(left**2) * np.sum(right**2))
    if norm == 0:
        raise ValueError("xcorr_oracle: a channel is silent (zero variance)")

    n = left.size
    max_shift = int(np.floor(max_lag * stereo.sample_rate))
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    spec = np.fft.rfft(right, nfft) * np.conj(np.fft.rfft(left, nfft))
    cc = np.fft.irfft(spec, nfft) / norm
    # cc[m] correlates right[k + m] with left[k]; positive lag = right lags
    lags = np.concatenate([np.arange(-max_shift, 0), np.arange(max_shift + 1)])
    vals = np.concatenate([cc[nfft - max_shift:], cc[:max_shift + 1]])
    peak = int(np.argmax(vals))
    lag = float(lags[peak])
    if 0 < peak < vals.size - 1:
        y0, y1, y2 = vals[peak - 1], vals[peak], vals[peak + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:
            lag += 0.5 * (y0 - y2) / denom
    return lag / stereo.sample_rate


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
