"""Spans and hardware-side counts for the benchmark's traced run.

The tracer times itdloc from outside. While installed it replaces the
public functions of frontend, lif, jeffress, readout and config at the
names through which harness, cli, jeffress and the benchmark look them up,
records one span per call, and puts every original back when it is
removed. Counts are derived from the public inputs and outputs of each
call, never from library internals, so for a given input they repeat
exactly.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    trial: int | None  # shared by every span of one top-level call or trial


class Tracer:
    """In-memory span log plus cumulative counts; written out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._trials = 0

    @contextmanager
    def span(self, name: str, new_trial: bool = False):
        parent = self._stack[-1] if self._stack else None
        if new_trial:
            trial = self._trials
            self._trials += 1
        else:
            trial = self.spans[parent].trial if parent is not None else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, trial))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def self_times(self) -> Counter:
        """Seconds per span name: each span's duration minus the time its
        direct children cover (children nest strictly on one thread)."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: Counter = Counter()
        for s, c in zip(self.spans, covered):
            out[s.name] += (s.end - s.start) - c
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextmanager
def installed(tracer: Tracer):
    """Wrap itdloc's public functions for the duration of the block."""
    from itdloc import cli, config, frontend, harness, jeffress, lif, readout

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def timed(name, fn, after=None, new_trial=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, new_trial):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out
        return wrapper

    counts = tracer.counts

    class TracedSimulation(lif.Simulation):
        def __init__(self, spec, dt):
            with tracer.span("lif.init"):
                super().__init__(spec, dt)

        def run(self, duration, record_traces=()):
            with tracer.span("lif.run"):
                record, traces = super().run(duration, record_traces=record_traces)
            steps = int(round(duration / self.dt))
            # Until the first spike or external delivery only the injected
            # neurons move; both input neurons have outgoing synapses.
            ends = [int(e.t / self.dt + 1e-9) for e in self.spec.external_spikes]
            if len(record):
                ends.append(int(round(float(record.times[0]) / self.dt)))
            quiet = min([steps] + ends)
            counts["lif.steps"] += steps
            counts["lif.quiet_steps"] += quiet
            counts["lif.spikes"] += len(record)
            return record, traces

    def after_trial(detail, itd, seed, cfg, **_):
        steps = int(round(cfg.duration / cfg.dt))
        t_event = detail.result.event_time
        useful = steps if t_event is None else int(round(t_event / cfg.dt))
        counts["lif.wasted_steps"] += steps - min(useful, steps)

    def after_resample(clip, *_, **__):
        counts["frontend.resampled_samples"] += clip.samples.size

    def after_poll(events, *_, **__):
        counts["readout.events"] += len(events)

    def after_calibrate(*_, **__):
        counts["jeffress.calibrate_calls"] += 1

    for owner in (harness, jeffress):
        patch(owner, "Simulation", TracedSimulation)
    patch(harness, "AnalogInjection", timed("lif.injection", lif.AnalogInjection))
    patch(harness, "apply_itd", timed("frontend.apply_itd", frontend.apply_itd))
    patch(harness, "condition", timed("frontend.condition", frontend.condition))
    patch(harness, "resample", timed("frontend.resample", frontend.resample,
                                     after_resample))
    patch(harness, "synth_clap", timed("frontend.synth_clap", frontend.synth_clap))
    patch(harness, "poll_loop", timed("readout.poll_loop", readout.poll_loop,
                                      after_poll))
    patch(harness, "run_trial_detailed",
          timed("harness.trial", harness.run_trial_detailed, after_trial,
                new_trial=True))
    wav = timed("frontend.load_wav", frontend.load_wav)
    patch(cli, "load_wav", wav)
    patch(frontend, "load_wav", wav)
    load = timed("config.load", config.load_config)
    patch(cli, "load_config", load)
    patch(config, "load_config", load)
    patch(jeffress, "build", timed("jeffress.build", jeffress.build))
    patch(jeffress, "calibrate_stage_delay",
          timed("jeffress.calibrate", jeffress.calibrate_stage_delay,
                after_calibrate))
    patch(jeffress, "tune_chain_weight",
          timed("jeffress.tune", jeffress.tune_chain_weight))
    for cls in (lif.SpikeRecord, lif.TraceSet):
        patch(cls, "to_csv", timed("lif.write_csv", cls.to_csv))
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
