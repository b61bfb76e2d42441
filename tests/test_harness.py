"""Trial pipeline, sweep bookkeeping, statistics and the cross-correlation
oracle."""

import dataclasses

import numpy as np
import pytest

from itdloc import harness
from itdloc.config import (
    InjectionSection,
    ReadoutSection,
    RunConfig,
    StimulusSection,
)
from itdloc.frontend import AudioClip, ClapSpec, apply_itd, synth_clap
from itdloc.frontend import resample as full_resample
from itdloc.harness import (
    BLOCK,
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


class TestXcorrOracle:
    def test_identical_channels_zero_lag(self):
        clap = synth_clap(ClapSpec(rng_seed=3), 192000, 3e-3)
        stereo = apply_itd(clap, 0.0)
        assert xcorr_oracle(stereo, 400e-6) == pytest.approx(0.0, abs=1e-12)

    def test_constructed_shift_recovered(self):
        clap = synth_clap(ClapSpec(rng_seed=4), 192000, 3e-3)
        for itd in (149e-6, -149e-6):
            stereo = apply_itd(clap, itd)
            est = xcorr_oracle(stereo, 400e-6)
            assert est == pytest.approx(itd, abs=2.6e-6)  # half a sample

    def test_silent_channel_rejected(self):
        stereo = AudioClip(192000, np.stack([np.ones(64), np.zeros(64)]))
        with pytest.raises(ValueError, match="silent"):
            xcorr_oracle(stereo, 1e-4)

    def test_needs_stereo(self):
        with pytest.raises(ValueError, match="stereo"):
            xcorr_oracle(AudioClip(192000, np.ones(64)), 1e-4)


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

    def test_detail_exposes_record_and_traces(self, default_trial, default_net):
        detail = run_trial_detailed(0.0, None, default_trial,
                                    record_traces=[default_net.input_left])
        assert detail.traces is not None
        assert default_net.input_left in detail.traces.v
        assert len(detail.record) > 0
        assert detail.conditioned.n_channels == 2

    def test_trigger_mode_full_pipeline(self, default_net, default_trial):
        trig = dataclasses.replace(default_trial,
                                   injection=InjectionSection(mode="trigger"))
        res = run_trial(0.0, None, trig)
        center = (default_net.n_stages - 1) / 2
        assert res.direction == pytest.approx(center, abs=1.0)


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

    def test_parallel_equals_serial(self, default_trial):
        cfg = SweepConfig(trial=default_trial, itds=(0.0, 60e-6), trials=2,
                          noise_amplitude=0.1, base_seed=3)
        assert run_sweep(cfg, jobs=2).rows == run_sweep(cfg, jobs=1).rows

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
    """The rows of a sweep built one full-duration trial at a time."""
    rows = []
    for i, itd in enumerate(cfg.itds):
        for k in range(cfg.trials):
            res = run_trial_detailed(itd, trial_seed(cfg.base_seed, i, k),
                                     cfg.trial,
                                     noise_amplitude=cfg.noise_amplitude).result
            rows.append(SweepRow(itd, k, res.direction, res.latency))
    return tuple(rows)


@pytest.fixture
def chunks(monkeypatch):
    """Steps of each Simulation.run call the harness makes."""
    steps = []

    class Counting(harness.Simulation):
        def run(self, duration, record_traces=()):
            steps.append(round(duration / self.dt))
            return super().run(duration, record_traces=record_traces)
    monkeypatch.setattr(harness, "Simulation", Counting)
    return steps


class TestBlockedSweep:
    """run_sweep steps BLOCK trials as one stacked network and stops at the
    first readout event; its rows must be those of full single runs."""

    def test_noisy_grid_with_a_miss_matches_full_runs(self, default_trial):
        # 36 cells: a full block whose first trial misses, then 4 more
        cfg = SweepConfig(trial=default_trial,
                          itds=(-140e-6, -40e-6, 0.0, 100e-6), trials=9,
                          noise_amplitude=0.07, base_seed=5)
        assert len(cfg.itds) * cfg.trials % BLOCK != 0
        rows = run_sweep(cfg).rows
        assert rows == full_run_rows(cfg)
        first_block = rows[:BLOCK]
        assert any(r.miss for r in first_block)
        assert not all(r.miss for r in first_block)
        assert run_sweep(cfg, jobs=2).rows == rows

    def test_iteration_time_off_the_step_grid(self, default_trial, chunks):
        # 55.03 us is not a whole number of 0.1 us steps
        trial = dataclasses.replace(
            default_trial,
            readout=ReadoutSection(iteration_time=55.03e-6, dead_time=0.0))
        cfg = SweepConfig(trial=trial, itds=(-100e-6, 30e-6), trials=3,
                          noise_amplitude=0.07, base_seed=11)
        assert run_sweep(cfg).rows == full_run_rows(cfg)
        detail = run_trial_detailed(30e-6, None, trial)
        steps = detail.result.event_time / trial.dt
        assert abs(steps - round(steps)) > 0.1  # the poll falls between steps
        chunks.clear()
        assert run_trial(30e-6, None, trial) == detail.result
        # each chunk ends on the last step at or before poll k's boundary
        ends = np.cumsum(chunks)
        it, dt = trial.readout.iteration_time, trial.dt
        assert len(ends) == round(detail.result.event_time / it)
        for k, end in enumerate(ends, start=1):
            assert end * dt <= k * it + 1e-12 < (end + 1) * dt

    def test_failing_block_names_its_cells(self, default_trial, monkeypatch):
        def broken(self, duration, record_traces=()):
            raise FloatingPointError("overflow")
        monkeypatch.setattr(harness.Simulation, "run", broken)
        cfg = SweepConfig(trial=default_trial, itds=(-20e-6, 20e-6), trials=2,
                          base_seed=4)
        with pytest.raises(RuntimeError, match=(
                r"block from itd=-20\.000us, trial=0, seed=\(4, 0, 0\) "
                r"to itd=20\.000us, trial=1, seed=\(4, 1, 1\): overflow")):
            run_sweep(cfg)

    def test_subthreshold_block_runs_the_full_duration(self, default_net,
                                                       chunks):
        quiet = TrialConfig(
            net=default_net,
            stimulus=StimulusSection(clap=ClapSpec(amplitude=0.3, rng_seed=5)))
        assert run_trial(0.0, None, quiet).miss
        assert sum(chunks) == round(quiet.duration / quiet.dt)


class TestResampleWindow:
    """Only the input samples that cover the run are resampled; the drive
    equals the head of the whole clip's resample, padded as before."""

    @pytest.mark.parametrize("rate, seconds", [
        (48000, 0.05), (44100, 0.05), (8000, 0.05), (48000, 0.8e-3)],
        ids=["48k", "44k1", "8k", "shorter-than-run"])
    def test_window_equals_full_resample(self, default_trial, rate, seconds):
        clip = synth_clap(ClapSpec(onset_time=1e-4, rng_seed=2), rate, seconds)
        cfg = dataclasses.replace(default_trial, recording=clip)
        _, cond, _, drive = harness._frontend(40e-6, 3, cfg, 0.05)
        sim_rate = round(1 / cfg.dt)
        need = round(cfg.duration * sim_rate) + 1
        full = full_resample(AudioClip(rate, cond), sim_rate / rate).samples
        if full.shape[1] < need:
            full = np.pad(full, ((0, 0), (0, need - full.shape[1])),
                          mode="edge")
        assert np.array_equal(drive, full[:, :need])


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
