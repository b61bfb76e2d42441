"""Automated evaluation: single localization trials, multi-trial ITD sweeps
with per-ITD statistics, latency measurement and an independent
cross-correlation ITD estimator used as ground truth for the network path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
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
        clip = self.recording or _clap(
            self.stimulus.clap, self.stimulus.sample_rate, self.stimulus.duration)
        samples = clip.samples[:1].view()
        samples.flags.writeable = False
        return AudioClip(clip.sample_rate, samples)

    @functools.cached_property
    def _tables(self) -> tuple | None:
        return probe_tables(self.net, self.dt, round(self.duration / self.dt))


# synth_clap's clip, made once for all configs with an equal stimulus
_clap = functools.lru_cache(maxsize=16)(lambda *key: synth_clap(*key))


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
    rows = np.empty((2 * len(cells), window))
    for raw, (itd, seed) in zip(rows.reshape(len(cells), 2, window), cells):
        # the delay interpolates pointwise, and the window's samples read
        # at most ceil(|itd| fs) + 1 samples past it; a clip that long
        # still outlasts |itd| (a NaN or too long ITD takes the whole clip
        # and apply_itd's check)
        shift = abs(itd) * fs
        reach = min(window + math.ceil(shift) + 2, n) if shift < n else n
        clip = mono if reach == n else AudioClip(fs, mono.samples[:, :reach])
        raw[...] = apply_itd(clip, itd).samples[:, :window]
        if noise_amplitude > 0:
            # the draws of a (2, n) noise array, in order, up to the
            # window of its second row
            noise = np.random.default_rng(seed).normal(
                0.0, noise_amplitude, n + window)
            raw[0] += noise[:window]
            raw[1] += noise[n:]
    cond = condition(rows, fs, cfg.frontend)
    above = (cond >= cfg.net.config.input_params.v_thresh).reshape(
        len(cells), 2, -1).any(axis=1)
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
    membrane injection, network run and readout replay over the full
    duration. Nothing feeds back into the inputs: with tables, only inputs
    traced and neither firing twice (the screen), the record is _records'
    and only traced inputs step; else the whole network does. Latency runs
    from either channel's first threshold crossing to the readout event."""
    cond, fs, (crossing,) = _frontend(cfg, [(itd, seed)], noise_amplitude)
    net, spec, record, traces = cfg.net, cfg.net.spec, None, None
    if cfg._tables and set(record_traces) <= {net.input_left, net.input_right}:
        spikes = injected_spike_steps(net.config.input_params, cfg.injection, cfg.dt,
                                      round(cfg.duration / cfg.dt), cond, fs)
        if all(s is not None and len(s) < 2 for s in spikes):
            (record,) = _records(cfg, np.array([[(s + [-1])[0] for s in spikes]]), True)
            spec = replace(spec, neurons=spec.neurons[:2], synapses=())  # ids 0, 1
    if record is None or record_traces:
        spec = spec.with_injections(_injections(cfg, cond, fs))
        stepped, traces = Simulation(spec, cfg.dt).run(cfg.duration, record_traces)
        record = stepped if record is None else record
    events = poll_loop(record, cfg.readout, net.detectors, t_end=cfg.duration)
    return TrialDetail(result=_result(events, crossing), record=record,
                       traces=traces, events=tuple(events))


def _records(cfg: TrialConfig, first, full: bool = False) -> list:
    """Per cell, the spikes the tables give up to the run's end, sorted by
    step and id, for inputs first firing on steps first[cell] (-1: never):
    the detectors' alone, or with full every neuron's, for inputs firing once."""
    (stage, reach, fire, _), net = cfg._tables, cfg.net
    end = round(cfg.duration / cfg.dt)  # the run's last step
    first = np.where(first < 0, end + 1, first)  # never: past the end
    a = b = det = np.full((len(first), net.n_stages), end + 1)
    if stage is not None:  # each side's chain at each detector position
        a, b = (first[:, side, None] + stage * (np.argsort(net.chain_order(name)) + 1)
                for side, name in enumerate(("left", "right")))
        if reach >= 0:  # some offset fires
            off = np.abs(a - b)
            delay = fire[np.minimum(off, reach)]
            det = np.where((off <= reach) & (delay >= 0),
                           np.maximum(a, b) + delay, end + 1)
    step = np.hstack((first, a, b, det))  # in id order (JeffressNetwork)
    if not full:
        step[:, :net.detectors[0]] = end + 1
    cell, ids = np.nonzero(step <= end)
    steps = step[cell, ids]
    order = np.lexsort((ids, steps, cell))  # by cell, then step, then id
    times, ids = steps[order] * cfg.dt, ids[order]
    cuts = np.searchsorted(cell[order], np.arange(len(first) + 1)).tolist()
    return [SpikeRecord(net.spec.n_neurons, times[lo:hi], ids[lo:hi])
            for lo, hi in zip(cuts, cuts[1:])]


def _trials(cfg: TrialConfig, cells, noise_amplitude: float, labels=None) -> list:
    """The results of trials `cells`, (itd, seed) pairs, as run_trial_detailed
    gives them, from one front end and screen call on the stack, _records
    and poll_loop. A cell is stepped where that may differ: no tables; an
    input within the screen's margin; an input firing again by the first
    event's poll, unless the other never fires and the tables say a lone
    chain fires no detector. With labels, a failure raises RuntimeError
    naming its cell, or a stacked stage's first and last."""
    lo, hi = 0, len(cells) - 1  # the cells a failure names
    try:
        cond, fs, crossings = _frontend(cfg, cells, noise_amplitude)
        inputs, tables = [None] * len(cond), cfg._tables
        if tables is not None:
            inputs = injected_spike_steps(
                cfg.net.config.input_params, cfg.injection, cfg.dt,
                round(cfg.duration / cfg.dt), cond, fs)
        # each input's first two spike steps, -1 for none: (cells, 2, 2)
        first, second = np.array([((s or []) + [-1, -1])[:2] for s in inputs]
                                 ).reshape(-1, 2, 2).transpose(2, 0, 1)
        records = tables and _records(cfg, first)
        silent = ((first < 0).any(axis=1) & bool(tables and tables[3])).tolist()
        again = np.where(second >= 0, second * cfg.dt, np.inf).min(axis=1).tolist()
        results = []
        for lo, (itd, seed) in enumerate(cells):
            hi, res = lo, None
            if None not in inputs[2 * lo:2 * lo + 2]:
                events = poll_loop(records[lo], cfg.readout, cfg.net.detectors,
                                   t_end=cfg.duration)
                horizon = events[0].t if events else cfg.duration
                if silent[lo] or again[lo] > horizon:
                    res = _result(events, crossings[lo])
            results.append(res or run_trial_detailed(
                itd, seed, cfg, noise_amplitude=noise_amplitude).result)
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
    results = []
    for lo in range(0, len(cells), CHUNK):
        chunk = cells[lo:lo + CHUNK]
        trials = [(cfg.itds[i], trial_seed(cfg.base_seed, i, k))
                  for i, k in chunk]
        labels = [f"itd={cfg.itds[i] * 1e6:.3f}us, trial={k}, "
                  f"seed=({cfg.base_seed}, {i}, {k})" for i, k in chunk]
        results += _trials(cfg.trial, trials, cfg.noise_amplitude, labels)
    rows = tuple(SweepRow(cfg.itds[i], k, r.direction, r.latency)
                 for (i, k), r in zip(cells, results))
    result = SweepResult(rows, *stats(rows))
    if out_dir is not None:
        write_sweep_csv(out / "sweep.csv", result)
        write_stats_csv(out / "stats.csv", result)
    return result


def stats(rows) -> tuple:
    """Per-ITD mean/std/outlier/miss statistics in ITD order, and a least-
    squares line through the means. An ITD's hits, in row order, are a row
    of one (ITDs, m) array per hit count m, whose row-wise np.mean and
    np.std are each row's own. An all-miss ITD has absent statistics and no
    part in the fit; ITDs whose spread squares to zero determine no line."""
    cols = np.array([(r.itd, r.direction) for r in rows], dtype=float).reshape(-1, 2)
    itd, d = cols[np.argsort(cols[:, 0], kind="stable")].T
    new, hit = itd != np.append(np.nan, itd[:-1]), ~np.isnan(d)  # NaN: a miss
    group = np.cumsum(new) - 1
    counts = np.bincount(group[hit], minlength=np.count_nonzero(new))
    starts, hits = np.cumsum(counts) - counts, d[hit]
    mean, std, outliers = np.zeros((3, counts.size))
    for m in set(counts.tolist()) - {0}:
        g = np.flatnonzero(counts == m)
        x = hits[starts[g, None] + np.arange(m)]
        mean[g], std[g] = np.mean(x, axis=1), np.std(x, axis=1)
        outliers[g] = np.count_nonzero(np.abs(x - mean[g, None]) > 3.0, axis=1)
    out = tuple(ItdStats(x, mu if n else None, sd if n else None, int(o), size - n)
                for x, n, size, mu, sd, o in zip(
                    itd[new].tolist(), counts.tolist(), np.bincount(group).tolist(),
                    mean.tolist(), std.tolist(), outliers.tolist()))
    xs, ys = itd[new][counts > 0].tolist(), mean[counts > 0].tolist()
    fit = None
    if len(xs) >= 2 and np.var(xs) > 0:
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = np.array(ys) - (slope * np.array(xs) + intercept)
        fit = LinearFit(slope=float(slope), intercept=float(intercept),
                        max_abs_residual=float(np.max(np.abs(resid))))
    return out, fit


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
