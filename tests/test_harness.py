"""Trial pipeline, sweep bookkeeping, statistics and the cross-correlation
oracle."""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from itdloc import harness, jeffress, lif
from itdloc.config import (
    InjectionSection,
    ReadoutSection,
    RunConfig,
    StimulusSection,
)
from itdloc.frontend import AudioClip, ClapSpec, apply_itd, synth_clap
from itdloc.frontend import resample as full_resample
from itdloc.harness import (
    SweepConfig,
    SweepRow,
    TrialConfig,
    run_sweep,
    run_trial,
    run_trial_detailed,
    stats,
    trial_seed,
    write_sweep_csv,
    xcorr_oracle,
)
from itdloc.jeffress import JeffressConfig, LifParams, build, tune_chain_weight
from itdloc.lif import AnalogInjection

from conftest import condition_reference, stepped_trial
from test_lif_reference import probed_networks


def oracle_reference(stereo: AudioClip, max_lag: float) -> float:
    """xcorr_oracle from its definition: np.correlate at every lag, the lags
    within max_lag, then the same parabolic refinement."""
    left = stereo.channel(0) - np.mean(stereo.channel(0))
    right = stereo.channel(1) - np.mean(stereo.channel(1))
    cc = np.correlate(right, left, "full") / np.sqrt(
        np.sum(left**2) * np.sum(right**2))
    n, m = left.size, int(np.floor(max_lag * stereo.sample_rate))
    vals = cc[n - 1 - m:n + m]  # lags -m .. m
    peak = int(np.argmax(vals))
    lag = float(peak - m)
    if 0 < peak < vals.size - 1:
        y0, y1, y2 = vals[peak - 1:peak + 2]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:
            lag += 0.5 * (y0 - y2) / denom
    return lag / stereo.sample_rate


def scipy_oracle(stereo: AudioClip, max_lag: float) -> float:
    """The FFT correlation xcorr_oracle took from scipy.signal before it
    took one dot product per lag: the full correlation, masked to the lag
    window, then the same parabolic refinement."""
    from scipy.signal import correlate, correlation_lags

    left = stereo.channel(0) - np.mean(stereo.channel(0))
    right = stereo.channel(1) - np.mean(stereo.channel(1))
    norm = np.sqrt(np.sum(left**2) * np.sum(right**2))
    lags = correlation_lags(right.size, left.size)
    window = np.abs(lags) <= int(np.floor(max_lag * stereo.sample_rate))
    vals = correlate(right, left, method="fft")[window] / norm
    lags = lags[window]
    peak = int(np.argmax(vals))
    lag = float(lags[peak])
    if 0 < peak < vals.size - 1:
        y0, y1, y2 = vals[peak - 1], vals[peak], vals[peak + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom < 0:
            lag += 0.5 * (y0 - y2) / denom
    return lag / stereo.sample_rate


class TestXcorrOracle:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(48, 400),
           rate=st.sampled_from([8000, 48000, 192000]),
           window=st.integers(0, 40), at_edge=st.booleans(),
           past_edge=st.integers(-2, 2), sign=st.sampled_from([-1, 1]),
           anywhere=st.integers(-45, 45))
    @example(seed=1, n=64, rate=192000, window=0, at_edge=True, past_edge=0,
             sign=1, anywhere=0)
    @example(seed=2, n=64, rate=192000, window=1, at_edge=True, past_edge=0,
             sign=-1, anywhere=0)
    def test_matches_direct_correlation_property(
            self, seed, n, rate, window, at_edge, past_edge, sign, anywhere):
        # the right channel lags the left by `shift` samples, often at or
        # just past the edge of the lag window
        shift = sign * (window + past_edge) if at_edge else anywhere
        noise = np.random.default_rng(seed).normal(size=n + 100)
        stereo = AudioClip(rate, np.stack([noise[50:50 + n],
                                           noise[50 - shift:50 - shift + n]]))
        max_lag = (window + 0.5) / rate
        est = xcorr_oracle(stereo, max_lag)
        assert est == pytest.approx(oracle_reference(stereo, max_lag),
                                    abs=1e-12)
        assert est == pytest.approx(scipy_oracle(stereo, max_lag), abs=1e-12)

    def test_identical_channels_zero_lag(self):
        clap = synth_clap(ClapSpec(rng_seed=3), 192000, 3e-3)
        stereo = apply_itd(clap, 0.0)
        assert xcorr_oracle(stereo, 400e-6) == pytest.approx(0.0, abs=1e-12)

    def test_constructed_shift_recovered(self):
        clap = synth_clap(ClapSpec(rng_seed=4), 192000, 3e-3)
        for itd in (149e-6, -149e-6):
            stereo = apply_itd(clap, itd)
            est = xcorr_oracle(stereo, 400e-6)
            assert type(est) is float
            assert est == pytest.approx(itd, abs=2.6e-6)  # half a sample

    def test_silent_channel_rejected(self):
        stereo = AudioClip(192000, np.stack([np.ones(64), np.zeros(64)]))
        with pytest.raises(ValueError, match="silent"):
            xcorr_oracle(stereo, 1e-4)

    def test_needs_stereo(self):
        with pytest.raises(ValueError, match="stereo"):
            xcorr_oracle(AudioClip(192000, np.ones(64)), 1e-4)

    @pytest.mark.parametrize("max_lag", [-1e-4, np.nan, np.inf, 64 / 192000])
    def test_max_lag_outside_the_clip_rejected(self, max_lag):
        # the last value is the clip's duration
        noise = np.random.default_rng(5).normal(size=(2, 64))
        with pytest.raises(ValueError, match=r"max_lag must lie in \[0, "):
            xcorr_oracle(AudioClip(192000, noise), max_lag)


class TestRunTrial:
    def test_center_direction_and_latency(self, default_trial, default_net):
        res = run_trial(0.0, None, default_trial)
        center = (default_net.n_stages - 1) / 2
        assert res.direction == pytest.approx(center, abs=1.0)
        assert res.latency is not None and res.latency <= 0.5e-3

    def test_edge_itd_matches_detector_map(self, default_trial, default_net,
                                           stage_delay):
        res = run_trial(149e-6, None, default_trial)
        expected = default_net.itd_to_position(149e-6, stage_delay)
        assert res.direction == pytest.approx(expected, abs=2.0)

    def test_miss_on_subthreshold_stimulus(self, default_net):
        quiet = TrialConfig(
            net=default_net,
            stimulus=StimulusSection(clap=ClapSpec(amplitude=0.3, rng_seed=5)),
        )
        for k in range(3):
            detail = run_trial_detailed(0.0, trial_seed(1, 0, k), quiet,
                                        noise_amplitude=0.02)
            assert detail.result.miss
            assert detail.events == ()
            assert len(detail.record) == 0  # not a single spurious spike

    def test_flipped_orientation_mirrors_direction(self, default_trial,
                                                   default_net, stage_delay):
        from itdloc.jeffress import JeffressConfig, build
        flipped_net = build(JeffressConfig(left_first_index=False))
        itd = 80e-6
        d_fwd = run_trial(itd, None, default_trial).direction
        d_flip = run_trial(itd, None, TrialConfig(net=flipped_net)).direction
        n = default_net.n_stages
        assert d_fwd + d_flip == pytest.approx(n - 1, abs=1.0)
        # both orientations decode to the same ITD
        itd_fwd = default_net.detector_itd(d_fwd, stage_delay)
        itd_flip = flipped_net.detector_itd(d_flip, stage_delay)
        assert itd_fwd == pytest.approx(itd_flip, abs=2 * stage_delay)

    @settings(max_examples=10, deadline=None)
    @given(itd_us=st.floats(-180.0, 180.0), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from([0.0, 0.07]))
    def test_mirrored_orientation_mirrors_direction_property(
            self, default_trial, itd_us, seed, noise):
        # mirroring left_first_index mirrors every detector position, so the
        # same trial reads the mirrored direction and the same ITD
        flipped = TrialConfig(net=build(dataclasses.replace(
            default_trial.net.config, left_first_index=False)))
        fwd = run_trial(itd_us * 1e-6, seed, default_trial,
                        noise_amplitude=noise)
        flip = run_trial(itd_us * 1e-6, seed, flipped, noise_amplitude=noise)
        assert fwd.latency == flip.latency
        if fwd.miss:
            assert flip.miss
        else:
            n = default_trial.net.n_stages
            assert flip.direction == pytest.approx(n - 1 - fwd.direction,
                                                   abs=1e-9)

    def test_detail_exposes_record_and_traces(self, default_trial, default_net):
        detail = run_trial_detailed(0.0, None, default_trial,
                                    record_traces=[default_net.input_left])
        assert detail.traces is not None
        assert default_net.input_left in detail.traces.v
        assert len(detail.record) > 0

    def test_trigger_mode_full_pipeline(self, default_net, default_trial):
        trig = dataclasses.replace(default_trial,
                                   injection=InjectionSection(mode="trigger"))
        res = run_trial(0.0, None, trig)
        center = (default_net.n_stages - 1) / 2
        assert res.direction == pytest.approx(center, abs=1.0)

    @pytest.mark.parametrize("mode", ["resistive", "trigger"])
    def test_injections_hold_the_trial_section(self, default_trial, mode):
        # the drives carry the section itself, not copies of its fields
        injection = InjectionSection(r_src=90e3, mode=mode)
        cfg = dataclasses.replace(default_trial, injection=injection)
        cond, fs, _ = harness._frontend(cfg, [(0.0, None)], 0.0)
        drives = harness._injections(cfg, cond, fs)
        assert len(drives) == 2
        assert all(inj.coupling is injection for inj in drives)


class TestRunSweep:
    def test_row_cardinality_and_keys(self, default_trial):
        cfg = SweepConfig(trial=default_trial, itds=(-40e-6, 0.0, 40e-6),
                          trials=2)
        res = run_sweep(cfg)
        assert len(res.rows) == 6
        assert [(r.itd, r.trial) for r in res.rows[:3]] == [
            (-40e-6, 0), (-40e-6, 1), (0.0, 0)]

    def test_csv_bytes_reproducible(self, default_trial, tmp_path):
        cfg = SweepConfig(trial=default_trial, itds=(0.0, 80e-6), trials=2,
                          noise_amplitude=0.1, base_seed=7)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(a, run_sweep(cfg))
        write_sweep_csv(b, run_sweep(cfg))
        assert a.read_bytes() == b.read_bytes()

    def test_rows_are_seeded_noisy_trials(self, default_trial):
        cfg = SweepConfig(trial=default_trial, itds=(60e-6,), trials=1,
                          noise_amplitude=0.1, base_seed=3)
        row = run_sweep(cfg).rows[0]
        res = run_trial(60e-6, trial_seed(3, 0, 0), default_trial,
                        noise_amplitude=0.1)
        assert (row.direction, row.latency) == (res.direction, res.latency)

    def test_itd_outside_detector_range_rejected(self, default_trial,
                                                 stage_delay):
        with pytest.raises(ValueError, match="detector range"):
            SweepConfig(trial=default_trial, itds=(300e-6,),
                        stage_delay=stage_delay)

    def test_failing_trial_aborts_with_context(self, default_net):
        bad = TrialConfig(net=default_net,  # clap onset beyond the duration
                          stimulus=StimulusSection(clap=ClapSpec(onset_time=5e-3)))
        cfg = SweepConfig(trial=bad, itds=(20e-6,), trials=1)
        with pytest.raises(RuntimeError, match=r"itd=20\.000us, trial=0"):
            run_sweep(cfg)

    @pytest.mark.parametrize("jobs", [0, -1, 2])
    def test_jobs_below_one_rejected_before_out_dir(self, default_trial,
                                                    tmp_path, jobs):
        # any jobs but 1 is refused: the sweep runs in one process
        cfg = SweepConfig(trial=default_trial, itds=(0.0,), trials=1)
        with pytest.raises(ValueError, match="^run_sweep runs in one "
                                             "process: jobs must be 1$"):
            run_sweep(cfg, jobs=jobs, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("change, message", [
        ({"itds": ()}, "the ITD list must not be empty"),
        ({"noise_amplitude": -0.01}, "noise_amplitude must be >= 0"),
        ({"trials": 0}, "trials must be >= 1"),
        ({"noise_amplitude": np.nan}, "noise_amplitude must be >= 0 and finite"),
        ({"noise_amplitude": np.inf}, "noise_amplitude must be >= 0 and finite"),
    ], ids=["no-itds", "negative-noise", "no-trials", "nan-noise", "inf-noise"])
    def test_config_runs_the_sweep_section_checks(self, default_trial,
                                                  change, message):
        with pytest.raises(ValueError, match=message):
            SweepConfig(trial=default_trial, **change)

    def test_defaults_are_the_sweep_section(self, default_trial):
        cfg = SweepConfig(trial=default_trial)
        section = RunConfig().sweep
        assert cfg.itds == tuple(x * 1e-6 for x in section.itds_us)
        assert (cfg.trials, cfg.noise_amplitude, cfg.base_seed) == (
            section.trials, section.noise_amplitude, section.base_seed)

    def test_csv_formats(self, default_trial, tmp_path):
        cfg = SweepConfig(trial=default_trial, itds=(0.0,), trials=1,
                          noise_amplitude=0.0)
        res = run_sweep(cfg, out_dir=tmp_path)  # writes both files itself
        sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert sweep_lines[0] == "itd_us,trial,direction,latency_us,miss"
        assert sweep_lines[1].startswith("0.000,0,24.500,")
        stats_lines = (tmp_path / "stats.csv").read_text().splitlines()
        assert stats_lines[0] == "itd_us,mean,std,outliers,misses"
        assert stats_lines[1] == "0.000,24.500,0.000,0,0"


def full_run_rows(cfg: SweepConfig) -> tuple:
    """The rows of a sweep built one full-duration trial at a time, each with
    the whole network stepped."""
    rows = []
    for i, itd in enumerate(cfg.itds):
        for k in range(cfg.trials):
            res = stepped_trial(itd, trial_seed(cfg.base_seed, i, k), cfg.trial,
                                noise_amplitude=cfg.noise_amplitude).result
            rows.append(SweepRow(itd, k, res.direction, res.latency))
    return tuple(rows)


@pytest.fixture(scope="module")
def tuned_trial():
    """The acceptance suite's network: chain weight tuned to 3.8 us."""
    weight = tune_chain_weight(3.8e-6, LifParams(), 1e-7)
    return TrialConfig(net=build(JeffressConfig(chain_weight=weight)))


def csv_digest(result, tmp_path) -> str:
    harness.write_sweep_csv(tmp_path / "sweep.csv", result)
    harness.write_stats_csv(tmp_path / "stats.csv", result)
    return hashlib.sha256((tmp_path / "sweep.csv").read_bytes()
                          + (tmp_path / "stats.csv").read_bytes()).hexdigest()


@pytest.fixture
def fallbacks(monkeypatch):
    """Cells that run_trial hands to run_trial_detailed."""
    calls = []

    def counting(itd, seed, cfg, *args, **kwargs):
        calls.append(itd)
        return run_trial_detailed(itd, seed, cfg, *args, **kwargs)
    monkeypatch.setattr(harness, "run_trial_detailed", counting)
    return calls


class TestEventEngine:
    """run_trial and run_sweep compute each trial from spike arithmetic;
    their rows must be those of full stepped runs."""

    def test_criterion_4_grid_matches_full_runs(self, tuned_trial, tmp_path,
                                                fallbacks):
        cfg = SweepConfig(trial=tuned_trial,
                          itds=tuple(np.linspace(-160e-6, 160e-6, 41)),
                          trials=1, noise_amplitude=0.0)
        result = run_sweep(cfg)
        assert fallbacks == []
        assert result.rows == full_run_rows(cfg)
        # the bytes the stepped sweep wrote before the engine existed
        assert csv_digest(result, tmp_path) == (
            "03dadc69933087f51e9a4b355350958952b3a1a857cac0fb4d74bc0c89196410")

    def test_criterion_5_grid_matches_full_runs(self, tuned_trial, tmp_path,
                                                fallbacks):
        cfg = SweepConfig(trial=tuned_trial,
                          itds=tuple(np.linspace(-140e-6, 140e-6, 8)),
                          trials=100, noise_amplitude=0.07, base_seed=2026)
        result = run_sweep(cfg)
        assert fallbacks == []
        assert csv_digest(result, tmp_path) == (
            "0d634c71904d45b4c5f8cae9eea8211ef18f6564190a5c5c08b7ebd61b4fb0c9")
        # every miss and one trial per ITD, stepped in full
        picked = [n for n, r in enumerate(result.rows)
                  if r.miss or r.trial == 37]
        assert sum(result.rows[n].miss for n in picked) == 3
        for n in picked:
            i, k = divmod(n, cfg.trials)
            full = stepped_trial(cfg.itds[i], trial_seed(cfg.base_seed, i, k),
                                 cfg.trial, noise_amplitude=0.07).result
            assert (result.rows[n].direction, result.rows[n].latency) == (
                full.direction, full.latency)

    def test_noisy_grid_with_a_miss_matches_full_runs(self, default_trial):
        cfg = SweepConfig(trial=default_trial,
                          itds=(-140e-6, -40e-6, 0.0, 100e-6), trials=9,
                          noise_amplitude=0.07, base_seed=5)
        rows = run_sweep(cfg).rows
        assert rows == full_run_rows(cfg)
        assert any(r.miss for r in rows) and not all(r.miss for r in rows)

    @settings(max_examples=12, deadline=None)
    @given(itd_us=st.floats(-180.0, 180.0), noise=st.sampled_from([0.0, 0.07]),
           seed=st.integers(0, 2**32 - 1), left_first_index=st.booleans(),
           w_lsb=st.one_of(st.none(), st.floats(6.5e-9, 2.5e-8)),
           mode=st.sampled_from(["resistive", "trigger"]))
    def test_trial_equals_full_run_property(self, itd_us, noise, seed,
                                            left_first_index, w_lsb, mode):
        cfg = TrialConfig(
            net=build(JeffressConfig(left_first_index=left_first_index,
                                     w_lsb=w_lsb)),
            injection=InjectionSection(mode=mode))
        fast = run_trial(itd_us * 1e-6, seed, cfg, noise_amplitude=noise)
        full = stepped_trial(itd_us * 1e-6, seed, cfg,
                             noise_amplitude=noise).result
        assert fast == full

    @settings(max_examples=8, deadline=None)
    @given(itds_us=st.lists(st.floats(-180.0, 180.0), min_size=1, max_size=2),
           trials=st.integers(1, 3), chunk=st.integers(1, 4),
           noise=st.floats(0.0, 0.1), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["resistive", "trigger"]),
           t_ref=st.sampled_from([5e-4, 1e-4]))
    @example(itds_us=[-100.0, 0.0], trials=2, chunk=3, noise=0.07, seed=1,
             mode="resistive", t_ref=1e-4)
    @example(itds_us=[0.0, 2.734340712671809e-257], trials=1, chunk=1,
             noise=0.0, seed=0, mode="resistive", t_ref=5e-4)
    def test_chunk_rows_equal_batches_of_one(self, itds_us, trials, chunk,
                                             noise, seed, mode, t_ref):
        # each row of a sweep run in chunks is its cell's run_trial, a
        # batch of one, on both sides of a chunk boundary; with a 100 us
        # input refractory period some inputs fire again before the first
        # event, and those cells are stepped
        trial = TrialConfig(
            net=build(JeffressConfig(input_neuron_params=LifParams(t_ref=t_ref))),
            injection=InjectionSection(mode=mode))
        cfg = SweepConfig(trial=trial, itds=tuple(x * 1e-6 for x in itds_us),
                          trials=trials, noise_amplitude=noise, base_seed=seed)
        with mock.patch.object(harness, "CHUNK", chunk):
            rows = run_sweep(cfg).rows
        cells = [(i, k) for i in range(len(cfg.itds)) for k in range(trials)]
        assert len(rows) == len(cells)
        for row, (i, k) in zip(rows, cells):
            res = run_trial(cfg.itds[i], trial_seed(seed, i, k), trial,
                            noise_amplitude=noise)
            assert (row.itd, row.trial, row.direction, row.latency) == (
                cfg.itds[i], k, res.direction, res.latency)

    def test_failing_stacked_stage_names_its_chunk(self, default_trial,
                                                   monkeypatch):
        def broken(*args, **kwargs):
            raise FloatingPointError("overflow")
        monkeypatch.setattr(harness, "condition", broken)
        monkeypatch.setattr(harness, "CHUNK", 3)  # cells (0, 0) .. (1, 0)
        cfg = SweepConfig(trial=default_trial, itds=(-20e-6, 20e-6), trials=2,
                          base_seed=4)
        with pytest.raises(RuntimeError, match=(
                r"trial failed at itd=-20\.000us, trial=0, seed=\(4, 0, 0\) "
                r"to itd=20\.000us, trial=0, seed=\(4, 1, 0\): overflow")):
            run_sweep(cfg)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_rows_do_not_depend_on_the_chunk_size(self, default_trial,
                                                  monkeypatch, chunk):
        # 12 cells in chunks of one or of three, the boundaries inside an
        # ITD, give the rows of one chunk of 64
        cfg = SweepConfig(trial=default_trial, itds=(-40e-6, 0.0, 40e-6),
                          trials=4, noise_amplitude=0.07, base_seed=8)
        assert harness.CHUNK == 64
        rows = run_sweep(cfg).rows
        monkeypatch.setattr(harness, "CHUNK", chunk)
        assert run_sweep(cfg).rows == rows

    def test_engine_spikes_equal_stepped_spikes(self, default_trial, fallbacks,
                                                monkeypatch):
        # the detector spikes the engine hands to poll_loop are the stepped
        # run's, id for id and time for time, up to the first event's poll
        # (the end of the run on a miss)
        records, poll_loop = [], harness.poll_loop

        def capturing(record, *args, **kwargs):
            records.append(record)
            return poll_loop(record, *args, **kwargs)
        monkeypatch.setattr(harness, "poll_loop", capturing)
        cfg, detectors = default_trial, default_trial.net.detectors
        cells = [(itd, None, 0.0) for itd in np.linspace(-160e-6, 160e-6, 41)]
        cells += [(itd, trial_seed(2026, i, k), 0.07) for i, itd in
                  enumerate(np.linspace(-140e-6, 140e-6, 8)) for k in range(3)]
        compared = 0
        for itd, seed, noise in cells:
            records.clear()
            result = run_trial(itd, seed, cfg, noise_amplitude=noise)
            assert fallbacks == []
            (engine,) = records
            stepped = stepped_trial(itd, seed, cfg,
                                    noise_amplitude=noise).record
            horizon = cfg.duration if result.miss else result.event_time

            def upto(record):
                keep = np.isin(record.ids, detectors) & (record.times <= horizon)
                return record.ids[keep].tolist(), record.times[keep].tolist()
            assert upto(engine) == upto(stepped)
            compared += len(upto(engine)[0])
        assert compared > len(cells)

    def test_iteration_time_off_the_step_grid(self, default_trial):
        # 55.03 us is not a whole number of 0.1 us steps
        trial = dataclasses.replace(
            default_trial,
            readout=ReadoutSection(iteration_time=55.03e-6, dead_time=0.0))
        cfg = SweepConfig(trial=trial, itds=(-100e-6, 30e-6), trials=3,
                          noise_amplitude=0.07, base_seed=11)
        assert run_sweep(cfg).rows == full_run_rows(cfg)
        detail = stepped_trial(30e-6, None, trial)
        steps = detail.result.event_time / trial.dt
        assert abs(steps - round(steps)) > 0.1  # the poll falls between steps
        assert run_trial(30e-6, None, trial) == detail.result

    @pytest.mark.parametrize("case", ["drive-inside-margin", "input-fires-twice",
                                      "unit-fires-twice", "tables-in-doubt",
                                      "one-chain-fires-a-detector"])
    def test_fallback_steps_the_trial(self, case, default_net, fallbacks,
                                      monkeypatch, jeffress_margin):
        itds = (-60e-6, 20e-6)
        if case == "drive-inside-margin":
            # every drive lies within a 10 V margin of threshold
            monkeypatch.setattr(lif, "_MARGIN", 10.0)
            trial = TrialConfig(net=default_net)
        elif case == "input-fires-twice":
            # a 2 us refractory period lets the inputs fire again long
            # before any detector does
            trial = TrialConfig(net=build(JeffressConfig(
                input_neuron_params=LifParams(t_ref=2e-6))))
        elif case == "unit-fires-twice":
            # with a 2 us refractory period a chain neuron or detector
            # could fire again, so the network has no tables
            trial = TrialConfig(net=build(JeffressConfig(
                neuron_params=LifParams(t_ref=2e-6))))
            assert trial._tables is None
        elif case == "tables-in-doubt":
            # every table value lies within a 10 V margin of threshold, so
            # the network has no tables
            jeffress_margin(10.0)
            trial = TrialConfig(net=default_net)
            assert trial._tables is None
        else:
            # the right clap starts after the 350 us run, so the right input
            # stays silent, while the left fires 11 times; a 20 us chain
            # clamp lets the left chain's waves pile up on a detector, so
            # the tables do not rule out a lone chain's event, and there is
            # one: direction 1.0 at 330 us, from 8 detector spikes
            trial = TrialConfig(net=build(JeffressConfig(
                neuron_params=LifParams(t_ref=2e-5),
                input_neuron_params=LifParams(t_ref=2e-6))),
                stimulus=StimulusSection(duration=3.5e-4))
            assert trial._tables is not None and trial._tables[3] is False
            detail = stepped_trial(160e-6, None, trial)
            ids = detail.record.ids
            assert (ids == trial.net.input_right).sum() == 0
            assert (ids == trial.net.input_left).sum() == 11
            assert np.isin(ids, trial.net.detectors).sum() == 8
            assert [(e.t, e.direction) for e in detail.events] == [
                (pytest.approx(330e-6, abs=1e-12), 1.0)]
            itds = (160e-6,)
        cfg = SweepConfig(trial=trial, itds=itds, trials=2,
                          noise_amplitude=0.07, base_seed=9)
        rows = run_sweep(cfg).rows
        assert fallbacks == [itd for itd in cfg.itds for _ in range(2)]
        assert rows == full_run_rows(cfg)

    @settings(max_examples=10, deadline=None)
    @given(itd_us=st.floats(160.0, 300.0), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from([0.0, 0.07]),
           t_ref=st.sampled_from([2e-6, 1e-4, 5e-4]))
    @example(itd_us=160.0, seed=0, noise=0.0, t_ref=2e-6)
    def test_silent_input_steps_nothing_property(self, itd_us, seed, noise,
                                                 t_ref):
        # the right clap starts past the 350 us run, so the right input never
        # fires, while the left may fire again before the run ends: at the
        # default 500 us chain clamp a lone chain fires no detector, so the
        # cell is a miss that steps nothing, as the stepped run says
        trial = TrialConfig(
            net=build(JeffressConfig(input_neuron_params=LifParams(t_ref=t_ref))),
            stimulus=StimulusSection(duration=3.5e-4))
        screened, screen = [], harness.injected_spike_steps

        def capturing(*args):
            screened.extend(screen(*args))
            return screened

        def stepping(*args, **kwargs):
            raise AssertionError("a cell with a silent input was stepped")
        with mock.patch.object(harness, "injected_spike_steps", capturing), \
                mock.patch.object(harness, "run_trial_detailed", stepping):
            fast = run_trial(itd_us * 1e-6, seed, trial, noise_amplitude=noise)
        full = stepped_trial(itd_us * 1e-6, seed, trial,
                             noise_amplitude=noise).result
        assert fast == full and fast.miss
        assert screened[0] and screened[1] == []  # the left fires, the right not

    def test_only_fallbacks_resample(self, fallbacks, monkeypatch):
        # a 200 us input refractory period lets a few noisy inputs fire
        # again before the first event; only those trials build the drive
        resampled, resample = [], harness.resample

        def counting(*args, **kwargs):
            resampled.append(None)
            return resample(*args, **kwargs)
        monkeypatch.setattr(harness, "resample", counting)
        trial = TrialConfig(net=build(JeffressConfig(
            input_neuron_params=LifParams(t_ref=2e-4))))
        cfg = SweepConfig(trial=trial, itds=tuple(np.linspace(-140e-6, 140e-6, 8)),
                          trials=10, noise_amplitude=0.07, base_seed=2026)
        rows = run_sweep(cfg).rows
        assert 0 < len(fallbacks) < len(rows)
        assert len(resampled) == len(fallbacks)
        assert rows == full_run_rows(cfg)

    def test_failing_trial_names_its_cell(self, default_trial, monkeypatch):
        calls, poll_loop = [], harness.poll_loop

        def broken(*args, **kwargs):  # fails on the third cell
            calls.append(None)
            if len(calls) == 3:
                raise FloatingPointError("overflow")
            return poll_loop(*args, **kwargs)
        monkeypatch.setattr(harness, "poll_loop", broken)
        cfg = SweepConfig(trial=default_trial, itds=(-20e-6, 20e-6), trials=2,
                          base_seed=4)
        with pytest.raises(RuntimeError, match=(
                r"trial failed at itd=20\.000us, trial=0, seed=\(4, 1, 0\): "
                r"overflow")):
            run_sweep(cfg)

    def test_subthreshold_trial_steps_no_neuron(self, default_net,
                                                monkeypatch):
        quiet = TrialConfig(
            net=default_net,
            stimulus=StimulusSection(clap=ClapSpec(amplitude=0.3, rng_seed=5)))
        # of the tables only D steps, once per TrialConfig
        assert quiet._tables[0] == 38
        steps = []

        class Counting(harness.Simulation):
            def run(self, duration, record_traces=()):
                steps.append(round(duration / self.dt))
                return super().run(duration, record_traces=record_traces)
        monkeypatch.setattr(harness, "Simulation", Counting)
        assert run_trial(0.0, None, quiet).miss
        assert steps == []

    def test_trial_configs_of_one_network_share_one_table(self, default_net,
                                                          monkeypatch):
        # the coincidence tables are cached on the neuron parameters, the
        # coincidence weight, dt and the run length, and are read-only;
        # each TrialConfig still steps its chain's D
        steps = []

        class Counting(jeffress.Simulation):
            def run(self, duration, record_traces=()):
                steps.append(round(duration / self.dt))
                return super().run(duration, record_traces=record_traces)
        monkeypatch.setattr(jeffress, "Simulation", Counting)
        a = TrialConfig(net=default_net)
        b = TrialConfig(net=default_net, readout=ReadoutSection(dead_time=0.1))
        # another chain weight: another D, the same coincidence tables
        c = TrialConfig(net=build(JeffressConfig(chain_weight=4.3e-7)))
        assert a != b
        assert a._tables[0] == b._tables[0] == 38 and c._tables[0] == 36
        assert a._tables[2] is b._tables[2] is c._tables[2]
        assert a._tables[1:] == b._tables[1:]
        assert not a._tables[2].flags.writeable
        assert steps == [39, 39, 37]

    def test_mono_stimulus_is_made_once_and_read_only(self, default_net,
                                                      monkeypatch):
        made = []

        def counting(*args):
            made.append(args)
            return synth_clap(*args)
        monkeypatch.setattr(harness, "synth_clap", counting)
        # a clap no other test makes, so that no earlier config shares it
        stimulus = StimulusSection(clap=ClapSpec(rng_seed=582))
        cfg = TrialConfig(net=default_net, stimulus=stimulus)
        run_sweep(SweepConfig(trial=cfg, itds=(0.0, 40e-6), trials=2,
                              noise_amplitude=0.07))
        assert len(made) == 1
        mono = cfg.mono_stimulus()
        assert mono is cfg.mono_stimulus()
        assert not mono.samples.flags.writeable
        with pytest.raises(ValueError):
            mono.samples[0, 0] = 1.0
        # a second config with an equal stimulus reads the same samples
        other = TrialConfig(net=default_net, stimulus=StimulusSection(
            clap=ClapSpec(rng_seed=582)))
        run_trial(0.0, None, other)
        assert len(made) == 1
        assert np.shares_memory(other.mono_stimulus().samples, mono.samples)


def detailed_against_stepped(cfg, itd, seed, noise, traces) -> list:
    """Asserts that run_trial_detailed gives the whole network's stepped
    record, events and traces, and returns the neuron count of each
    Simulation it made."""
    sizes = []

    class Sized(harness.Simulation):
        def __init__(self, spec, dt):
            sizes.append(spec.n_neurons)
            super().__init__(spec, dt)
    with mock.patch.object(harness, "Simulation", Sized):
        got = run_trial_detailed(itd, seed, cfg, traces, noise_amplitude=noise)
    want = stepped_trial(itd, seed, cfg, traces, noise_amplitude=noise)
    assert (got.result, got.events) == (want.result, want.events)
    for rec in (got.record, want.record):
        assert (rec.times.dtype, rec.ids.dtype) == (np.float64, np.int64)
    assert got.record.n_neurons == want.record.n_neurons
    assert got.record.times.tolist() == want.record.times.tolist()
    assert got.record.ids.tolist() == want.record.ids.tolist()
    if not traces:
        assert got.traces is None and want.traces is None
        return sizes
    assert got.traces.times.tobytes() == want.traces.times.tobytes()
    assert sorted(got.traces.v) == sorted(want.traces.v) == sorted(set(traces))
    for i in traces:
        assert got.traces.v[i].tobytes() == want.traces.v[i].tobytes()
        assert got.traces.i_syn[i].tobytes() == want.traces.i_syn[i].tobytes()
    return sizes


@st.composite
def detailed_trials(draw):
    """A trial config, on the default, a mirrored, a quantized or a random
    probed network (whose inputs take its neuron params or the defaults),
    in either injection mode; an ITD, a seed, a noise amplitude and the
    traced ids."""
    kind = draw(st.sampled_from(["default", "mirrored", "quantized", "probed"]))
    dt = 1e-7
    if kind == "probed":
        net, dt = draw(probed_networks())
        if draw(st.booleans()):
            net = build(dataclasses.replace(net.config,
                                            input_neuron_params=LifParams()))
    else:
        net = build(JeffressConfig(left_first_index=kind != "mirrored",
                                   w_lsb=2e-8 if kind == "quantized" else None))
    mode = draw(st.sampled_from(["resistive", "trigger"]))
    cfg = TrialConfig(net=net, injection=InjectionSection(mode=mode), dt=dt)
    return (cfg, draw(st.floats(-180.0, 180.0)) * 1e-6,
            draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.0, 0.07, 0.2])),
            draw(st.sampled_from([(), (0,), (0, 1)])))


class TestTwoInputPath:
    """Where the tables hold for the whole run, run_trial_detailed steps at
    most the two input neurons; its record, events and input traces must be
    those of the whole network stepped."""

    def test_detailed_trial_equals_whole_network_property(self):
        paths = []

        # derandomized: the share asserted below is of one fixed draw of
        # examples, not a bound on chance
        @settings(max_examples=30, deadline=None, derandomize=True,
                  phases=set(Phase) - {Phase.explain})
        @given(detailed_trials())
        def check(case):
            sizes = detailed_against_stepped(*case)
            assert sizes in ([], [2], [152])
            assert (sizes == []) == (sizes != [152] and not case[4])
            paths.append(sizes != [152])
        check()
        # the inputs alone carry a fair share of the examples
        assert sum(paths) >= len(paths) / 5

    @pytest.mark.parametrize("traces, sizes", [((), []), ((0, 1), [2]),
                                               ((1,), [2])])
    def test_inputs_step_alone_and_only_for_their_traces(self, default_trial,
                                                         traces, sizes):
        assert detailed_against_stepped(default_trial, -80e-6, 7, 0.07,
                                        traces) == sizes

    @pytest.mark.parametrize("case", ["input-fires-twice", "traced-chain",
                                      "no-tables"])
    def test_whole_network_steps_past_the_tables(self, case, default_trial,
                                                 jeffress_margin):
        cfg, traces = default_trial, (0, 1)
        if case == "input-fires-twice":
            # a 200 us input clamp lets the right input fire again on step
            # 7413, after its first wave
            cfg = TrialConfig(net=build(JeffressConfig(
                input_neuron_params=LifParams(t_ref=2e-4))))
        elif case == "traced-chain":
            traces = (0, 1, 40)
        else:  # every table value within a 10 V margin of threshold
            jeffress_margin(10.0)
            cfg = TrialConfig(net=default_trial.net)
            assert cfg._tables is None
        assert detailed_against_stepped(cfg, -80e-6, 3, 0.07, traces) == [152]
        if case == "input-fires-twice":
            record = run_trial_detailed(-80e-6, 3, cfg, noise_amplitude=0.07).record
            assert (record.ids == cfg.net.input_right).sum() == 2


class TestResampleWindow:
    """Only the input samples the run reads are conditioned and resampled;
    on each step the stepper holds the sample it holds on the whole clip's
    conditioned and resampled channels, whose last sample is held past
    their end."""

    @pytest.mark.parametrize("rate, seconds", [
        (48000, 0.05), (44100, 0.05), (8000, 0.05), (48000, 0.8e-3)],
        ids=["48k", "44k1", "8k", "shorter-than-run"])
    def test_window_equals_full_resample(self, default_trial, rate, seconds):
        clip = synth_clap(ClapSpec(onset_time=1e-4, rng_seed=2), rate, seconds)
        cfg = dataclasses.replace(default_trial, recording=clip)
        # an advance reads ceil(|itd| fs) + 1 samples past the window
        for itd in (-613.7e-6, 40e-6):
            cond, _, _ = harness._frontend(cfg, [(itd, 3)], 0.05)
            raw = apply_itd(clip, itd).samples
            raw = raw + np.random.default_rng(3).normal(0.0, 0.05, raw.shape)
            whole = condition_reference(raw, rate, cfg.frontend)
            assert np.array_equal(cond, whole[:, :cond.shape[1]])
        sim_rate = round(1 / cfg.dt)
        times = np.arange(round(cfg.duration * sim_rate) + 1) * cfg.dt
        full = full_resample(AudioClip(rate, whole), sim_rate / rate)
        drives = [AnalogInjection(0, trace, sim_rate) for trace in full.samples]
        assert np.array_equal(
            lif._held(harness._injections(cfg, cond, rate), times),
            lif._held(drives, times))

    @staticmethod
    def _recording(cfg, onset):
        """cfg with a 20 ms, 48 kHz clap recording starting at onset."""
        clip = synth_clap(ClapSpec(onset_time=onset, rng_seed=2), 48000, 0.02)
        return dataclasses.replace(cfg, recording=clip)

    def _whole_crossing(self, cfg, itd) -> float | None:
        """The first threshold crossing over the whole conditioned clip."""
        cond = condition_reference(apply_itd(cfg.recording, itd).samples,
                                   48000, cfg.frontend)
        above = (cond >= cfg.net.config.input_params.v_thresh).any(axis=0)
        return float(np.argmax(above)) / 48000 if above.any() else None

    def test_latency_from_the_whole_clip_crossing(self, default_trial):
        cfg = self._recording(default_trial, 1e-4)
        res = run_trial_detailed(40e-6, None, cfg).result
        assert not res.miss
        assert res.latency == res.event_time - self._whole_crossing(cfg, 40e-6)
        assert run_trial(40e-6, None, cfg) == res == stepped_trial(
            40e-6, None, cfg).result

    def test_clap_past_the_window_misses(self, default_trial):
        # the clap crosses threshold at about 4.8 ms, after the 1.1 ms run
        cfg = self._recording(default_trial, 4e-3)
        assert self._whole_crossing(cfg, 40e-6) > cfg.duration
        res = run_trial_detailed(40e-6, None, cfg).result
        assert res.miss and res.latency is None
        assert run_trial(40e-6, None, cfg) == res == stepped_trial(
            40e-6, None, cfg).result


def stats_reference(rows) -> tuple:
    """stats as a dict regroup: rows by ITD, one np.mean and np.std each."""
    by_itd: dict = {}
    for r in rows:
        by_itd.setdefault(r.itd, []).append(r.direction)
    out, xs, ys = [], [], []
    for itd in sorted(by_itd):
        hits = np.array([d for d in by_itd[itd] if d is not None])
        misses = len(by_itd[itd]) - hits.size
        if not hits.size:
            out.append(harness.ItdStats(itd, None, None, 0, misses))
            continue
        mean, std = float(np.mean(hits)), float(np.std(hits))
        outliers = int(np.sum(np.abs(hits - mean) > 3.0))
        out.append(harness.ItdStats(itd, mean, std, outliers, misses))
        xs.append(itd)
        ys.append(mean)
    fit = None
    if len(xs) >= 2 and np.var(xs) > 0:
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = np.array(ys) - (slope * np.array(xs) + intercept)
        fit = harness.LinearFit(float(slope), float(intercept),
                                float(np.max(np.abs(resid))))
    return tuple(out), fit


class TestStats:
    def test_constant_rows_zero_std(self):
        rows = [SweepRow(0.0, k, 12.0, 1e-4) for k in range(5)]
        out, fit = stats(rows)
        assert out[0].std == 0.0 and out[0].mean == 12.0
        assert fit is None  # a single ITD cannot define a line

    def test_symmetric_itds_mirror(self, default_trial, default_net):
        res_p = run_trial(+100e-6, None, default_trial)
        res_m = run_trial(-100e-6, None, default_trial)
        center = default_net.n_stages - 1
        assert res_p.direction + res_m.direction == pytest.approx(center, abs=1.0)

    def test_itds_whose_spread_squares_to_zero_give_no_fit(self):
        # two distinct ITDs 1e-300 s apart: their variance underflows to
        # zero, and a least-squares line through them is undetermined
        rows = [SweepRow(0.0, 0, 12.0, 1e-4), SweepRow(1e-300, 0, 13.0, 1e-4)]
        out, fit = stats(rows)
        assert [s.mean for s in out] == [12.0, 13.0]
        assert fit is None

    def test_unsorted_itds_with_repeats(self, default_trial):
        # the two 40 us entries give one stats row, after the 0 us row, over
        # both entries' trials in row order
        cfg = SweepConfig(trial=default_trial, itds=(40e-6, 0.0, 40e-6),
                          trials=3, noise_amplitude=0.07, base_seed=3)
        result = run_sweep(cfg)
        assert [s.itd for s in result.stats] == [0.0, 40e-6]
        merged = [r.direction for r in result.rows if r.itd == 40e-6]
        hits = [d for d in merged if d is not None]
        assert len(merged) == 6 and len(set(hits)) > 1
        s = result.stats[1]
        assert (s.mean, s.std, s.misses) == (
            float(np.mean(hits)), float(np.std(hits)), 6 - len(hits))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.sampled_from([-40e-6, -0.0, 0.0, 20e-6, 1e-300]),
        st.one_of(st.none(), st.builds(lambda a, n: a / n, st.integers(0, 490),
                                       st.integers(1, 10)))),
        max_size=60))
    def test_equals_a_dict_regroup_property(self, cells):
        # the column form gives the floats of one np.mean and np.std per
        # ITD over its hits in row order, groups of over 8 hits included;
        # directions like 7 / 3, as poll_loop's means, round by the order
        rows = [SweepRow(itd, k, d, None) for k, (itd, d) in enumerate(cells)]
        assert stats(rows) == stats_reference(rows)

    def test_all_miss_itd_absent_not_zero(self):
        rows = [SweepRow(0.0, 0, None, None), SweepRow(1e-5, 0, 3.0, 1e-4),
                SweepRow(2e-5, 0, 5.0, 1e-4)]
        out, fit = stats(rows)
        assert out[0].mean is None and out[0].std is None
        assert out[0].misses == 1
        assert fit is not None  # fitted over the two live ITDs

    def test_outlier_definition(self):
        rows = [SweepRow(0.0, k, v, 1e-4)
                for k, v in enumerate([10.0, 10.2, 9.8, 15.0])]
        out, _ = stats(rows)
        assert out[0].outliers == 1  # 15.0 sits beyond 3 units from the mean


def test_trial_seed_stable():
    a = np.random.default_rng(trial_seed(1, 2, 3)).integers(0, 1 << 30, 4)
    b = np.random.default_rng(trial_seed(1, 2, 3)).integers(0, 1 << 30, 4)
    c = np.random.default_rng(trial_seed(1, 2, 4)).integers(0, 1 << 30, 4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stereo_stimulus_uses_first_channel(default_net):
    clap = synth_clap(ClapSpec(rng_seed=8), 192000, 1.1e-3)
    fake_stereo = AudioClip(192000, np.stack([clap.channel(0),
                                              np.zeros(clap.n_samples)]))
    cfg = TrialConfig(net=default_net, recording=fake_stereo)
    assert np.array_equal(cfg.mono_stimulus().channel(0), clap.channel(0))
