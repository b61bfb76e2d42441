"""Embedded-processor readout emulation: periodic polling of coincidence
spike counters, id averaging, post-detection dead time with counter reset,
and the two output encodings (servo PWM schedule, serial text frames).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from .lif import SpikeRecord

_SLACK = 1e-12  # seconds; a spike on a poll boundary counts in that poll
# each detector id's position, made once per id tuple; poll_loop only reads it
_positions = functools.lru_cache(16)(lambda ids: {n: j for j, n in enumerate(ids)})


@dataclass(frozen=True)
class ReadoutSection:
    """Polling-loop timing: poll k reads the counters at k * iteration_time;
    after a detection the processor sleeps for dead_time."""

    iteration_time: float = 55e-6
    dead_time: float = 0.2

    def __post_init__(self):
        if not 0 < self.iteration_time < math.inf:
            raise ValueError("iteration_time must be > 0 and finite")
        if not 0 <= self.dead_time < math.inf:
            raise ValueError("dead_time must be >= 0 and finite")

    @property
    def dead_polls(self) -> int:
        """Polls the sleep skips: the dead time in whole iterations; the
        1e-9 keeps an exact multiple whole despite division noise."""
        return int(self.dead_time / self.iteration_time + 1e-9)


@dataclass(frozen=True)
class DirectionEvent:
    """One detection: polling time and direction as a fractional index into
    the detector list."""

    t: float
    direction: float


@dataclass(frozen=True)
class PwmConfig:
    """Hobby-servo pulse timing."""

    period: float = 20e-3
    pulse_min: float = 1.0e-3
    pulse_max: float = 2.0e-3

    def __post_init__(self):
        if not 0 < self.pulse_min < self.pulse_max < self.period < math.inf:
            raise ValueError("need 0 < pulse_min < pulse_max < period, all finite")


def poll_loop(record: SpikeRecord, cfg: ReadoutSection, detector_ids,
              t_end: float):
    """Replay the polling program over a spike record, reading the counters
    of detector_ids (non-empty and unique; a detector's position in it is
    its direction).

    The loop reads all detector counters at each iteration boundary
    k * iteration_time. If any counter is non-zero, the direction is the
    plain mean of the active detector positions (each active detector
    counts once, regardless of its spike count), an event is emitted at the
    boundary, the processor sleeps for dead_time and only then clears the
    counters, skipping dead_polls reads; spikes landing during the sleep
    are wiped by that reset, while spikes after it survive into the next
    read."""
    index_of = _positions(tuple(detector_ids))
    if len(index_of) != len(detector_ids) or not index_of:
        raise ValueError("detector_ids must be non-empty and unique")
    times, ids = record.times.tolist(), record.ids.tolist()
    step, limit = cfg.iteration_time, t_end + _SLACK
    ptr, events = 0, []
    k = 1  # boundary k * iteration_time, never a running float sum
    while ptr < len(times) and times[ptr] <= limit + _SLACK:
        # counters are clear at each poll's start, so skip the polls before
        # the one that reads the next spike (- 2 covers division noise)
        k = max(k, math.ceil((times[ptr] - _SLACK) / step) - 2)
        while times[ptr] > k * step + _SLACK:
            k += 1
        if (boundary := k * step) > limit:
            break
        active = set()
        while ptr < len(times) and times[ptr] <= boundary + _SLACK:
            j = index_of.get(ids[ptr])
            if j is not None:
                active.add(j)
            ptr += 1
        k += 1
        if active:
            events.append(DirectionEvent(t=boundary,
                                         direction=sum(active) / len(active)))
            reset_time = boundary + cfg.dead_time
            while ptr < len(times) and times[ptr] <= reset_time + _SLACK:
                ptr += 1  # discarded: lands before the post-sleep reset
            k += cfg.dead_polls
    return events


def pwm_pulse_width(direction: float, n_detectors: int, cfg: PwmConfig) -> float:
    """Linear map from detector position to servo pulse width."""
    if not 0 <= direction <= n_detectors - 1:
        raise ValueError(f"direction {direction} outside [0, {n_detectors - 1}]")
    frac = direction / (n_detectors - 1)
    return cfg.pulse_min + frac * (cfg.pulse_max - cfg.pulse_min)


def write_pwm_csv(path, direction: float, n_detectors: int, cfg: PwmConfig,
                  n_periods: int = 5) -> None:
    """Export the PWM edge schedule as (t_s, level) CSV: a rising edge at
    each period start and a falling edge one pulse width later."""
    width = pwm_pulse_width(direction, n_detectors, cfg)
    with open(path, "w") as fh:
        fh.write("t_s,level\n")
        for k in range(n_periods):
            t0 = k * cfg.period
            fh.write(f"{t0:.9f},1\n{t0 + width:.9f},0\n")


def serial_encode(event: DirectionEvent) -> str:
    """One text frame per detection: `t_us=<int> dir=<3-decimal>` plus a
    trailing newline."""
    return f"t_us={int(round(event.t * 1e6))} dir={event.direction:.3f}\n"


_SERIAL_RE = re.compile(r"^t_us=(-?\d+) dir=(-?\d+\.\d{3})$")


def serial_decode(line: str) -> DirectionEvent:
    """Parse a frame produced by serial_encode."""
    m = _SERIAL_RE.match(line.strip())
    if not m:
        raise ValueError(f"not a direction frame: {line!r}")
    return DirectionEvent(t=int(m.group(1)) * 1e-6, direction=float(m.group(2)))
