"""Polling-loop semantics on crafted spike streams, PWM encoding and the
serial text framing."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itdloc.lif import SpikeRecord
from itdloc.readout import (
    DirectionEvent,
    PwmConfig,
    ReadoutSection,
    poll_loop,
    pwm_pulse_width,
    serial_decode,
    serial_encode,
    write_pwm_csv,
)

IDS = tuple(range(30))


def record(events, n=30):
    """SpikeRecord from (time, id) pairs."""
    events = sorted(events)
    return SpikeRecord(n, [t for t, _ in events], [i for _, i in events])


def cfg(iteration=55e-6, dead=0.2, ids=IDS):
    """poll_loop's section and detector ids."""
    return ReadoutSection(iteration_time=iteration, dead_time=dead), ids


class TestPollLoop:
    def test_empty_record_no_events(self):
        assert poll_loop(record([]), *cfg(), t_end=10e-3) == []

    def test_two_active_detectors_average(self):
        events = poll_loop(record([(30e-6, 10), (40e-6, 12)]), *cfg(), 5e-3)
        assert len(events) == 1
        assert events[0].direction == 11.0
        assert events[0].t == pytest.approx(55e-6)

    def test_single_detector(self):
        events = poll_loop(record([(30e-6, 25)]), *cfg(), 5e-3)
        assert [e.direction for e in events] == [25.0]

    def test_counts_not_weighted(self):
        # three spikes on 10 and one on 12 still average to 11: each active
        # detector contributes its id once
        spikes = [(20e-6, 10), (30e-6, 10), (40e-6, 10), (45e-6, 12)]
        events = poll_loop(record(spikes), *cfg(), 5e-3)
        assert [e.direction for e in events] == [11.0]

    def test_spike_on_boundary_counts(self):
        events = poll_loop(record([(55e-6, 7)]), *cfg(), 5e-3)
        assert events[0].t == pytest.approx(55e-6)

    def test_late_boundary_has_no_float_drift(self):
        # a simulator spike (step index times dt) exactly on boundary 34529;
        # a running sum of 34529 iteration times falls 1e-12 s short of it
        t_spike = 18990950 * 1e-7
        events = poll_loop(record([(t_spike, 7)]), *cfg(), 2.0)
        assert events[0].t == 34529 * 55e-6
        assert events[0].t == pytest.approx(1.899095, abs=1e-9)

    def test_second_clap_in_dead_time_dropped(self):
        spikes = [(30e-6, 10), (50e-3, 12)]
        events = poll_loop(record(spikes), *cfg(), 0.5)
        assert len(events) == 1
        assert events[0].direction == 10.0

    def test_second_clap_after_dead_time_detected(self):
        spikes = [(30e-6, 10), (250e-3, 12)]
        events = poll_loop(record(spikes), *cfg(), 0.5)
        assert [e.direction for e in events] == [10.0, 12.0]

    def test_first_iteration_preference(self):
        # detector 9 fires after the first active iteration and must not
        # influence the event nor produce a second one
        events = poll_loop(record([(30e-6, 5), (60e-6, 9)]), *cfg(), 0.5)
        assert [e.direction for e in events] == [5.0]

    def test_residue_after_reset_counts_next_read(self):
        # reset happens at 55us + 200ms; a spike just after survives and is
        # read at the next boundary
        t_reset = 55e-6 + 0.2
        spikes = [(30e-6, 5), (t_reset + 1e-6, 20)]
        events = poll_loop(record(spikes), *cfg(), 0.5)
        assert len(events) == 2
        assert events[1].direction == 20.0
        # the second read is the first grid point after the reset
        assert events[1].t == pytest.approx(
            (np.floor(t_reset / 55e-6) + 1) * 55e-6)

    def test_spike_just_before_reset_is_discarded(self):
        t_reset = 55e-6 + 0.2
        spikes = [(30e-6, 5), (t_reset - 1e-6, 20)]
        events = poll_loop(record(spikes), *cfg(), 0.5)
        assert [e.direction for e in events] == [5.0]

    def test_event_spacing_respects_dead_time(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            spikes = [(float(t), int(rng.integers(0, 30)))
                      for t in rng.uniform(0, 1.0, rng.integers(1, 120))]
            events = poll_loop(record(spikes), *cfg(), 1.0)
            gaps = np.diff([e.t for e in events])
            assert np.all(gaps >= 0.2)

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        spikes = [(float(t), int(rng.integers(0, 30)))
                  for t in rng.uniform(0, 0.3, 50)]
        a = poll_loop(record(spikes), *cfg(), 0.3)
        b = poll_loop(record(spikes), *cfg(), 0.3)
        assert a == b

    def test_direction_uses_positions_not_raw_ids(self):
        # detectors listed as global neuron ids 102.. map onto positions 0..
        ids = tuple(range(102, 132))
        events = poll_loop(record([(10e-6, 104), (20e-6, 108)], n=200),
                           *cfg(ids=ids), 1e-3)
        assert [e.direction for e in events] == [4.0]

    def test_zero_dead_time(self):
        spikes = [(30e-6, 3), (80e-6, 4)]
        events = poll_loop(record(spikes), *cfg(dead=0.0), 1e-3)
        assert [e.direction for e in events] == [3.0, 4.0]

    def test_config_validation(self):
        message = "detector_ids must be non-empty and unique"
        with pytest.raises(ValueError, match=message):
            poll_loop(record([]), *cfg(ids=()), 1e-3)
        with pytest.raises(ValueError, match=message):
            poll_loop(record([(30e-6, 1)]), *cfg(ids=(1, 1)), 1e-3)
        with pytest.raises(ValueError):
            ReadoutSection(iteration_time=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["iteration_time", "dead_time"])
    def test_section_refuses_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be .* and finite"):
            ReadoutSection(**{name: bad})


class TestPollTiming:
    """The poll-index rules: a dead time in whole polls, and the last
    simulator step each poll sees."""

    @pytest.mark.parametrize("iteration, m", [(55e-6, 1), (55e-6, 3),
                                              (1e-4, 7), (0.1, 3)])
    def test_dead_time_of_exactly_m_polls(self, iteration, m):
        # one detector spike inside every poll window: after a detection
        # the m polls inside the sleep are skipped and the next one reads
        assert ReadoutSection(iteration, m * iteration).dead_polls == m
        n_polls = 4 * (m + 1)
        spikes = [((k - 0.5) * iteration, 7) for k in range(1, n_polls + 1)]
        events = poll_loop(record(spikes), *cfg(iteration, m * iteration),
                           n_polls * iteration)
        assert [round(e.t / iteration) for e in events] == list(
            range(1, n_polls + 1, m + 1))

    def test_decimal_dead_time_counts_whole_polls(self):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        assert ReadoutSection(iteration_time=0.1, dead_time=0.3).dead_polls == 3
        assert ReadoutSection(iteration_time=0.1, dead_time=0.29).dead_polls == 2

    @pytest.mark.parametrize("iteration, tenths_of_a_step", [(55.03e-6, 5503),
                                                            (55e-6, 5500)])
    def test_last_step_seen_by_each_poll(self, iteration, tenths_of_a_step):
        # poll k reads at k * iteration: 550.3 k steps of 0.1 us off the
        # grid, 550 k steps on it, where the boundary step itself counts
        dt = 1e-7
        for k in range(1, 201):
            s = tenths_of_a_step * k // 10
            # a spike on that step's boundary is read by poll k, one a step
            # later by poll k + 1
            for spike, poll in ((s, k), (s + 1, k + 1)):
                events = poll_loop(record([(spike * dt, 0)]),
                                   *cfg(iteration, 0.0), 300 * iteration)
                assert round(events[0].t / iteration) == poll


def replay(spikes, detector_ids, iteration, dead, t_end):
    """Brute-force polling program on integer time ticks: every poll k in
    turn reads the detector spikes since the previous read or, after a
    detection, since the reset that ends the sleep; a poll inside the
    sleep therefore reads nothing."""
    position = {nid: j for j, nid in enumerate(detector_ids)}
    events, seen_until = [], -1
    for k in range(1, t_end // iteration + 1):
        boundary = k * iteration
        active = sorted({position[i] for t, i in spikes
                         if seen_until < t <= boundary and i in position})
        seen_until = max(seen_until, boundary)
        if active:
            events.append((boundary, sum(active) / len(active)))
            seen_until = boundary + dead
    return events


@st.composite
def poll_cases(draw):
    """Spikes as (tick, id), detector ids, iteration and dead time in
    ticks, and the end tick. Spikes fall anywhere up to tick 3000, and
    detector spikes also on or next to a few anchor polls and the resets
    that would follow a detection there."""
    iteration = draw(st.integers(1, 120))
    dead = draw(st.integers(0, 800))
    detector_ids = draw(st.lists(st.integers(0, 11), min_size=1, max_size=8,
                                 unique=True))
    spikes = draw(st.lists(st.tuples(st.integers(1, 3000), st.integers(0, 11)),
                           max_size=30))
    for k in draw(st.lists(st.integers(1, 3000 // iteration), max_size=4)):
        for at in (k * iteration, k * iteration + dead):
            off = draw(st.sampled_from([-1, 0, 1, None]))
            if off is not None:
                spikes.append((max(1, at + off),
                               draw(st.sampled_from(detector_ids))))
    t_end = draw(st.just(3000) | st.integers(1, 3000))
    return sorted(spikes), detector_ids, iteration, dead, t_end


@settings(max_examples=200, deadline=None)
@given(poll_cases())
# a spike thousands of empty polls past the last read, before and after a
# detection's sleep, and a run of t_end = 1 s
@example(case=([(3, 4), (2950, 4)], [4], 1, 0, 3000))
@example(case=([(5, 2), (9, 7), (2990, 7)], [7, 2], 1, 40, 3000))
@example(case=([(90, 4), (250_000, 5), (999_990, 4)], [4, 5], 100, 300,
               1_000_000))
def test_poll_loop_equals_brute_force_replay(case):
    spikes, detector_ids, iteration, dead, t_end = case
    tick = 1e-6
    rec = SpikeRecord(12, [t * tick for t, _ in spikes],
                      [i for _, i in spikes])
    got = poll_loop(rec, *cfg(iteration * tick, dead * tick, detector_ids),
                    t_end * tick)
    want = replay(spikes, detector_ids, iteration, dead, t_end)
    assert [(round(e.t / tick), e.direction) for e in got] == want


class TestPwm:
    def test_linear_map_endpoints(self):
        c = PwmConfig()
        assert pwm_pulse_width(0, 50, c) == pytest.approx(1.0e-3)
        assert pwm_pulse_width(24.5, 50, c) == pytest.approx(1.5e-3)
        assert pwm_pulse_width(49, 50, c) == pytest.approx(2.0e-3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pwm_pulse_width(-0.5, 50, PwmConfig())
        with pytest.raises(ValueError):
            pwm_pulse_width(49.5, 50, PwmConfig())

    def test_edge_schedule(self, tmp_path):
        # a rising edge at each period start, a falling one a width later
        path = tmp_path / "pwm.csv"
        write_pwm_csv(path, 24.5, 50, PwmConfig(), n_periods=2)
        assert path.read_text().splitlines()[1:] == [
            "0.000000000,1", "0.001500000,0", "0.020000000,1", "0.021500000,0"]

    def test_csv_export(self, tmp_path):
        path = tmp_path / "pwm.csv"
        write_pwm_csv(path, 0.0, 50, PwmConfig(), n_periods=2)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,level"
        assert len(lines) == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PwmConfig(pulse_min=2e-3, pulse_max=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["period", "pulse_min", "pulse_max"])
    def test_config_refuses_non_finite(self, name, bad):
        # an infinite period would write nan and inf edges
        with pytest.raises(ValueError, match="pulse_max < period, all finite"):
            PwmConfig(**{name: bad})


class TestSerial:
    def test_exact_frame(self):
        line = serial_encode(DirectionEvent(t=1.5e-3, direction=24.5))
        assert line == "t_us=1500 dir=24.500\n"

    def test_zero_direction(self):
        assert serial_encode(DirectionEvent(t=0.0, direction=0.0)).endswith(
            "dir=0.000\n")

    def test_roundtrip(self):
        ev = DirectionEvent(t=0.440055, direction=17.832)
        back = serial_decode(serial_encode(ev))
        assert back.t == pytest.approx(ev.t, abs=1e-6)
        assert back.direction == pytest.approx(ev.direction, abs=0.0005)

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            serial_decode("direction: 12")
