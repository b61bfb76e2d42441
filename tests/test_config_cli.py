"""Strict config round-tripping and the command-line surface: subcommands,
outputs and exit codes."""

import contextlib
import copy
import io
import json
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from itdloc import cli, harness, jeffress
from itdloc.config import (
    ConfigError,
    InjectionSection,
    ReadoutSection,
    RunConfig,
    StimulusSection,
    SweepSection,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
    save_config,
)

from conftest import raw_wav_bytes, write_wav_16bit
from itdloc.frontend import ClapSpec, FrontEndParams, apply_itd, synth_clap
from itdloc.jeffress import GeometryParams, JeffressConfig
from itdloc.lif import LifParams


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_lif = st.builds(LifParams, tau_m=_floats(1e-6, 1e-4), tau_syn=_floats(1e-6, 1e-4),
                 v_reset=_floats(0.0, 0.45), t_ref=_floats(1e-6, 1e-3))
valid_configs = st.builds(
    RunConfig,
    dt=_floats(1e-9, 1e-7),  # at most min(tau_m, tau_syn) / 10
    frontend=st.builds(FrontEndParams, v_clip=_floats(0.5, 3.0),
                       highpass_cutoff=_floats(0.0, 200.0),
                       preamp_gain=_floats(0.1, 10.0)),
    geometry=st.builds(GeometryParams, mic_distance=_floats(0.01, 1.0),
                       head_radius=st.none() | _floats(0.01, 1.0)),
    network=st.builds(JeffressConfig, n_stages=st.integers(2, 100),
                      chain_weight=_floats(1e-9, 1e-5),
                      coincidence_weight=st.none() | _floats(1e-9, 1e-6),
                      left_first_index=st.booleans(),
                      w_lsb=st.none() | _floats(1e-10, 1e-7),
                      neuron_params=_lif,
                      input_neuron_params=st.none() | _lif),
    injection=st.builds(InjectionSection, r_src=_floats(1.0, 1e7),
                        mode=st.sampled_from(["resistive", "trigger"])),
    readout=st.builds(ReadoutSection, iteration_time=_floats(1e-6, 1e-2),
                      dead_time=_floats(0.0, 1.0)),
    stimulus=st.builds(StimulusSection, sample_rate=st.integers(8000, 400000),
                       # the shortest clip, at least 300 - 62.5 us after
                       # rounding to samples, is longer than every ITD
                       duration=_floats(3e-4, 1.0),
                       wav=st.none() | st.text(max_size=12),
                       # the onset stays below the shortest duration
                       clap=st.builds(ClapSpec, onset_time=_floats(0.0, 9e-5),
                                      rng_seed=st.integers(0, 2**32))),
    sweep=st.builds(SweepSection, itds_us=st.lists(_floats(-200.0, 200.0),
                                                   min_size=1, max_size=5),
                    trials=st.integers(1, 500),
                    base_seed=st.integers(0, 2**32)),
)


SMALL = {
    "network": {"n_stages": 8},
    "stimulus": {"duration": 9e-4,
                 "clap": {"onset_time": 1e-4, "rise_time": 5e-5}},
}


class TestConfig:
    def test_defaults_roundtrip(self):
        cfg = RunConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_dump_is_json_and_reloads(self, tmp_path):
        path = tmp_path / "cfg.json"
        save_config(RunConfig(), path)
        assert config_from_dict(json.loads(path.read_text())) == RunConfig()
        assert load_config(path) == RunConfig()

    def test_partial_override(self):
        cfg = config_from_dict(SMALL)
        assert cfg.network.n_stages == 8
        assert cfg.network.chain_weight == RunConfig().network.chain_weight
        assert cfg.stimulus.clap.onset_time == pytest.approx(1e-4)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown keys.*dtt"):
            config_from_dict({"dtt": 1e-7})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="network.*unknown"):
            config_from_dict({"network": {"nstages": 8}})

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError, match="frontend"):
            config_from_dict({"frontend": {"v_floor": 2.0}})

    @settings(max_examples=30, deadline=None)
    @given(valid_configs)
    def test_random_config_roundtrip(self, cfg):
        assert config_from_dict(config_to_dict(cfg)) == cfg
        assert config_from_dict(json.loads(dump_config(cfg))) == cfg

    def test_optional_nested_input_neuron(self):
        cfg = config_from_dict(
            {"network": {"input_neuron_params": {"t_ref": 1e-3}}})
        assert cfg.network.input_neuron_params.t_ref == pytest.approx(1e-3)
        assert cfg.network.input_neuron_params.tau_m == pytest.approx(15e-6)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_stimulus_duration_refuses_non_finite(self, bad):
        # a NaN duration would reach synth_clap's int() and the clap cache
        with pytest.raises(ValueError, match="duration must be > 0 and finite"):
            StimulusSection(duration=bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)
        assert cli.main(["config", "dump", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    return path


class TestCli:
    def test_help_all_subcommands(self, capsys):
        for argv in (["--help"], ["calibrate", "--help"],
                     ["simulate", "--help"], ["sweep", "--help"],
                     ["oracle", "--help"], ["config", "--help"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out

    def test_config_dump_roundtrip(self, capsys):
        assert cli.main(["config", "dump"]) == 0
        out = capsys.readouterr().out
        assert config_from_dict(json.loads(out)) == RunConfig()
        assert RunConfig().network == JeffressConfig()

    def test_calibrate(self, small_config, tmp_path, capsys):
        rc = cli.main(["calibrate", "--config", str(small_config),
                       "--out", str(tmp_path / "cal")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stage_delay_mean=3.800 us" in out
        # the input config with only the chain weight replaced
        tuned = config_to_dict(
            load_config(tmp_path / "cal" / "tuned_config.json"))
        given = config_to_dict(load_config(small_config))
        weight = tuned["network"].pop("chain_weight")
        assert given["network"].pop("chain_weight") != weight
        assert f"chain_weight={weight:.6e} A" in out
        assert tuned == given

    def test_calibrate_resolution_follows_mic_distance(self, tmp_path, capsys):
        # a dumped config leaves the head radius unset, so the microphone
        # spacing sets it: 4x the spacing gives a quarter of the resolution
        assert cli.main(["config", "dump"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["geometry"]["head_radius"] is None
        resolutions = []
        for mic_distance in (0.051, 0.204):
            doc["geometry"]["mic_distance"] = mic_distance
            path = tmp_path / f"{mic_distance}.json"
            path.write_text(json.dumps(doc))
            assert cli.main(["calibrate", "--config", str(path)]) == 0
            line = [x for x in capsys.readouterr().out.splitlines()
                    if x.startswith("resolution_per_stage=")]
            resolutions.append(float(line[0].split("=")[1].split()[0]))
        assert resolutions[1] == pytest.approx(resolutions[0] / 4, abs=0.01)

    def test_calibrate_absurd_target_exit_3(self, small_config, capsys):
        rc = cli.main(["calibrate", "--config", str(small_config),
                       "--target-us", "0.001"])
        assert rc == 3
        assert "achievable range" in capsys.readouterr().err

    def test_calibrate_refusal_names_the_tuner_exit_3(self, tmp_path, capsys):
        # with a 2 us clamp every weight of the 38-step band fires its
        # probe chain's head twice: the refusal names the tuner, the target
        # step and the weight, and calls the chain a probe chain
        path = tmp_path / "tref.json"
        path.write_text(json.dumps({"network": {"neuron_params": {"t_ref": 2e-6}}}))
        rc = cli.main(["calibrate", "--config", str(path), "--target-us", "3.8",
                       "--out", str(tmp_path / "cal")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: chain weight tuner: weight ")
        assert "in the band of the 38-step stage delay" in err
        assert "9-stage probe chain: chain stage 0 (neuron 0) fired 2 times" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "cal").exists()

    @pytest.mark.parametrize("target", ["inf", "nan", "0", "-1"])
    def test_calibrate_bad_target_exit_2(self, target, tmp_path, capsys):
        # refused as an input error before any probe
        out = tmp_path / "cal"
        with mock.patch.object(jeffress, "tune_chain_weight") as tune:
            rc = cli.main(["calibrate", f"--target-us={target}", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: --target-us must be finite and > 0")
        assert err.count("\n") == 1
        assert not (tune.called or out.exists())

    @pytest.mark.parametrize("traces", ["999", "152", "-1", "0,x", "0,,1"])
    def test_simulate_bad_traces_exit_2(self, traces, tmp_path, capsys,
                                        monkeypatch):
        # the default network has neurons 0..151; a bad id is found before
        # --out is made and before any Simulation
        built = []

        class Counting(harness.Simulation):
            def __init__(self, spec, dt):
                built.append(spec)
                super().__init__(spec, dt)
        monkeypatch.setattr(harness, "Simulation", Counting)
        out = tmp_path / "sim"
        rc = cli.main(["simulate", "--itd", "0", f"--traces={traces}",
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: --traces takes neuron ids 0..151, got {traces}\n"
        assert built == [] and not out.exists()

    def test_simulate_writes_outputs(self, small_config, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = cli.main(["simulate", "--config", str(small_config),
                       "--itd", "0", "--traces", "0,1", "--out", str(out)])
        assert rc == 0
        assert (out / "spikes.csv").exists()
        assert (out / "traces.csv").exists()
        assert (out / "network.txt").exists()
        events = (out / "events.txt").read_text().splitlines()
        assert len(events) == 1 and " dir=3.500" in events[0]
        # servo schedule of the event: 1.5 ms pulses for the center detector
        assert (out / "pwm.csv").read_text().splitlines()[:3] == [
            "t_s,level", "0.000000000,1", "0.001500000,0"]

    def test_closed_stdout_exit_3(self, small_config, tmp_path, capsys,
                                  monkeypatch):
        # a reader that leaves early, as `itdloc simulate | grep -m1` does,
        # is no input error: exit 3, one error line, the files written
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        out = tmp_path / "sim"
        rc = cli.main(["simulate", "--config", str(small_config),
                       "--itd", "0", "--out", str(out)])
        sys.stdout.close()  # the os.devnull stream main put in its place
        err = capsys.readouterr().err
        assert rc == 3
        assert err == "error: standard output closed: [Errno 32] Broken pipe\n"
        assert (out / "spikes.csv").exists()

    def test_simulate_pwm_period_from_config(self, tmp_path):
        path = tmp_path / "pwm.json"
        path.write_text(json.dumps({**SMALL, "pwm": {"period": 0.01}}))
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(path), "--itd", "0",
                         "--out", str(out)]) == 0
        rows = (out / "pwm.csv").read_text().splitlines()
        assert rows[3] == "0.010000000,1"  # second rising edge

    def test_simulate_without_event_writes_no_pwm(self, small_config, tmp_path):
        # a silent recording never crosses threshold, so nothing is detected
        wav = tmp_path / "silence.wav"
        write_wav_16bit(wav, np.zeros((1, 192)), 192000)
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--config", str(small_config),
                         "--wav", str(wav), "--out", str(out)]) == 0
        assert (out / "events.txt").read_text() == ""
        assert not (out / "pwm.csv").exists()

    def test_simulate_mirrored_rasters(self, small_config, tmp_path):
        # +-20 us stays inside the 8-stage detector range of +-26.6 us
        dirs = []
        for tag, itd in (("p", "20"), ("m", "-20")):
            out = tmp_path / tag
            assert cli.main(["simulate", "--config", str(small_config),
                             "--itd", itd, "--out", str(out)]) == 0
            line = (out / "events.txt").read_text()
            dirs.append(float(line.split("dir=")[1]))
        assert dirs[0] + dirs[1] == pytest.approx(7.0, abs=1.0)

    def test_simulate_seeded_noise_reproducible(self, small_config, tmp_path):
        lines = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = cli.main(["simulate", "--config", str(small_config),
                           "--itd", "10", "--seed", "5", "--out", str(out)])
            assert rc == 0
            lines.append((out / "events.txt").read_text())
        assert lines[0] == lines[1]

    def test_simulate_from_wav_stimulus(self, small_config, tmp_path):
        clap = synth_clap(ClapSpec(rng_seed=9), 192000, 9e-4)
        wav = tmp_path / "stim.wav"
        write_wav_16bit(wav, clap.samples, 192000)
        out = tmp_path / "simw"
        rc = cli.main(["simulate", "--config", str(small_config),
                       "--wav", str(wav), "--itd", "0", "--out", str(out)])
        assert rc == 0
        assert "dir=" in (out / "events.txt").read_text()

    def test_simulate_from_an_extensible_wav(self, small_config, tmp_path,
                                             capsys):
        # the same 16-bit samples under format tag 0xFFFE give the same
        # spikes; with the fmt chunk too short for a subformat, exit 2
        clap = synth_clap(ClapSpec(rng_seed=9), 192000, 9e-4)
        payload = np.round(clap.channel(0) * 32767).astype("<i2").tobytes()
        spikes = []
        for name, extensible in (("plain", False), ("ext", True)):
            wav, out = tmp_path / f"{name}.wav", tmp_path / name
            wav.write_bytes(raw_wav_bytes(1, 16, 1, 192000, payload, extensible))
            assert cli.main(["simulate", "--config", str(small_config), "--wav",
                             str(wav), "--itd", "0", "--out", str(out)]) == 0
            spikes.append((out / "spikes.csv").read_bytes())
        assert spikes[0] == spikes[1]
        capsys.readouterr()
        wav, out = tmp_path / "short.wav", tmp_path / "short"
        wav.write_bytes(raw_wav_bytes(0xFFFE, 16, 1, 192000, payload))
        assert cli.main(["simulate", "--config", str(small_config), "--wav",
                         str(wav), "--itd", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {wav}: truncated extensible fmt chunk"]
        assert not out.exists()

    def test_simulate_wav_flag_replaces_config_wav(self, tmp_path):
        # the config names a file that does not exist; only --wav is read
        cfg = dict(SMALL, stimulus=dict(SMALL["stimulus"],
                                        wav=str(tmp_path / "ghost.wav")))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        wav = tmp_path / "stim.wav"
        write_wav_16bit(wav, synth_clap(ClapSpec(rng_seed=9), 192000,
                                        9e-4).samples, 192000)
        rc = cli.main(["simulate", "--config", str(path), "--wav", str(wav),
                       "--itd", "0", "--out", str(tmp_path / "o")])
        assert rc == 0

    def test_cli_trial_config_matches_library_defaults(self, tmp_path,
                                                        monkeypatch):
        seen = []

        def capture(cfg, out_dir=None):
            seen.append(cfg.trial)
            raise RuntimeError("captured")

        monkeypatch.setattr(harness, "run_sweep", capture)
        assert cli.main(["sweep", "--out", str(tmp_path)]) == 3
        net = jeffress.build(jeffress.JeffressConfig())
        assert seen == [harness.TrialConfig(net=net)]

    def test_simulate_missing_wav_exit_2(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--wav", str(tmp_path / "ghost.wav"),
                       "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "ghost.wav" in capsys.readouterr().err

    def test_simulate_wav_rate_zero_exit_2(self, tmp_path, capsys):
        wav = tmp_path / "zero.wav"
        write_wav_16bit(wav, np.zeros((1, 192)), 192000)
        data = bytearray(wav.read_bytes())
        data[24:28] = bytes(4)  # the fmt chunk's sample rate
        wav.write_bytes(bytes(data))
        rc = cli.main(["simulate", "--wav", str(wav), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "sample rate 0" in err[0]

    @staticmethod
    def _stereo_wav(path):
        clap = synth_clap(ClapSpec(rng_seed=9), 192000, 9e-4)
        write_wav_16bit(path, apply_itd(clap, 40e-6).samples, 192000)
        return path

    def test_simulate_stereo_wav_exit_2(self, small_config, tmp_path, capsys):
        # the right channel would be dropped: refused, naming the file
        wav = self._stereo_wav(tmp_path / "s.wav")
        out = tmp_path / "o"
        rc = cli.main(["simulate", "--config", str(small_config), "--wav",
                       str(wav), "--itd", "40", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(wav) in err[0] and "2 channels" in err[0]
        assert not out.exists()

    def test_sweep_config_stereo_wav_exit_2(self, tmp_path, capsys):
        wav = self._stereo_wav(tmp_path / "s.wav")
        cfg = dict(SMALL, stimulus=dict(SMALL["stimulus"], wav=str(wav)))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = cli.main(["sweep", "--config", str(path), "--trials", "1",
                       "--itds", "0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(wav) in err[0] and "2 channels" in err[0]
        assert not out.exists()

    def test_sweep_single_cell(self, small_config, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = cli.main(["sweep", "--config", str(small_config),
                       "--trials", "1", "--itds", "0", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one row
        assert (out / "stats.csv").exists()

    def test_sweep_itds_may_start_with_a_minus(self, small_config, tmp_path,
                                               capsys):
        # "--itds -40,0,40" as documented writes what "--itds=-40,0,40" does
        outs = [tmp_path / "spaced", tmp_path / "joined"]
        for out, spelling in zip(outs, (["--itds", "-40,0,40"],
                                        ["--itds=-40,0,40"])):
            rc = cli.main(["sweep", "--config", str(small_config), *spelling,
                           "--trials", "2", "--out", str(out)])
            assert rc == 0
        for name in ("sweep.csv", "stats.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        itds = [line.split(",")[0] for line in
                (outs[0] / "stats.csv").read_text().splitlines()[1:]]
        assert itds == ["-40.000", "0.000", "40.000"]

    def test_oracle_on_self_shifted_clip(self, tmp_path, capsys):
        clap = synth_clap(ClapSpec(rng_seed=12), 192000, 3e-3)
        wav = tmp_path / "clap.wav"
        write_wav_16bit(wav, clap.samples, 192000)
        rc = cli.main(["oracle", "--wav", str(wav), "--itd", "100"])
        assert rc == 0
        est = float(capsys.readouterr().out.split("itd_us=")[1])
        assert est == pytest.approx(100.0, abs=2.6)

    def test_oracle_itd_past_a_mono_clip_exit_2(self, tmp_path, capsys):
        wav = tmp_path / "m.wav"  # 2.08 ms
        write_wav_16bit(wav, np.sin(np.linspace(0, 50, 400)), 192000)
        rc = cli.main(["oracle", "--wav", str(wav), "--itd", "5000"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be smaller than the clip duration" in err

    def test_oracle_mono_without_itd_exit_2(self, tmp_path, capsys):
        wav = tmp_path / "m.wav"
        write_wav_16bit(wav, np.sin(np.linspace(0, 50, 4000)), 192000)
        rc = cli.main(["oracle", "--wav", str(wav)])
        assert rc == 2
        assert "--itd" in capsys.readouterr().err

    def test_oracle_itd_on_a_stereo_wav_exit_2(self, tmp_path, capsys):
        wav = tmp_path / "s.wav"
        clap = synth_clap(ClapSpec(rng_seed=12), 192000, 3e-3)
        write_wav_16bit(wav, apply_itd(clap, 100e-6).samples, 192000)
        rc = cli.main(["oracle", "--wav", str(wav), "--itd", "300"])
        err = capsys.readouterr()
        assert rc == 2 and err.out == ""
        assert err.err.startswith("error: ") and err.err.count("\n") == 1
        assert "--itd" in err.err

    def test_oracle_silent_channel_exit_2(self, tmp_path, capsys):
        wav = tmp_path / "s.wav"
        clap = synth_clap(ClapSpec(rng_seed=12), 192000, 3e-3).samples[0]
        write_wav_16bit(wav, np.stack([clap, np.zeros_like(clap)]), 192000)
        rc = cli.main(["oracle", "--wav", str(wav)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == f"error: {wav}: xcorr_oracle: a channel is silent " \
                      "(zero variance)\n"

    @pytest.mark.parametrize("doc, message", [
        ({"unknown_section": 1}, "unknown keys"),
        ({"network": {"n_stages": 1}}, "n_stages must be >= 2"),
        ({"network": {"chain_weight": 0}}, "chain_weight must be > 0"),
        ({"network": {"neuron": {}}}, "unknown keys ['neuron']"),
        ({"readout": {"iteration_time": 0}}, "iteration_time must be > 0"),
        ({"sweep": {"itds_us": []}}, "the ITD list must not be empty"),
        ({"dt": 1e-5}, "dt=1e-05 too coarse"),
        ({"stimulus": {"duration": 1e-7}}, "must exceed the clap onset_time"),
        ({"stimulus": {"duration": 1e-4}}, "must exceed the clap onset_time"),
        ({"stimulus": {"sample_rate": 8000, "duration": 5e-5,
                       "clap": {"onset_time": 1e-5}}}, "gives no sample"),
        ({"stimulus": {"duration": 3e-4}, "sweep": {"itds_us": [0, 400]}},
         "|itd|=400us must be smaller than the clip duration"),
        ({"network": {"n_stages": 2.5}},
         "network.n_stages: expected int, got 2.5"),
        ({"sweep": {"trials": 1.5, "itds_us": [0]}},
         "sweep.trials: expected int, got 1.5"),
        ({"stimulus": {"sample_rate": 192000.5}},
         "stimulus.sample_rate: expected int, got 192000.5"),
        ({"sweep": {"base_seed": 1.5, "itds_us": [0], "trials": 1}},
         "sweep.base_seed: expected int, got 1.5"),
        ({"sweep": {"base_seed": -1}}, "base_seed must be >= 0"),
        ({"stimulus": {"clap": {"rng_seed": -1}}}, "rng_seed must be >= 0"),
        ({"dt": True}, "dt: expected float, got True"),
        ({"sweep": {"itds_us": [0, "40"]}},
         "sweep.itds_us[1]: expected float, got '40'"),
        ({"network": {"chain_weight": 1e-9}}, "the chain cannot propagate"),
        ({"network": {"coincidence_weight": 1e-6}},
         "a lone chain would trigger detectors"),
        ({"network": {"w_lsb": 1e-3}}, "the chain cannot propagate"),
    ], ids=["unknown-section", "one-stage", "zero-chain-weight",
            "old-neuron-key", "zero-iteration-time", "empty-itds",
            "coarse-dt", "duration-one-step", "duration-before-onset",
            "duration-under-one-sample", "itd-past-clip", "float-stages",
            "float-trials", "float-sample-rate", "float-base-seed",
            "negative-base-seed", "negative-clap-seed", "bool-dt",
            "string-itd", "weak-chain", "strong-coincidence", "coarse-w-lsb"])
    def test_bad_config_exit_2(self, doc, message, tmp_path, capsys):
        # the command that runs trials rejects the config before the first
        # one: run_sweep makes the --out directory first
        path, out = tmp_path / "bad.json", tmp_path / "sw"
        path.write_text(json.dumps(doc))
        rc = cli.main(["sweep", "--config", str(path), "--trials", "1",
                       "--itds", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()

    def test_calibrate_tunes_a_chain_weight_too_weak_to_run(self, tmp_path):
        path = tmp_path / "weak.json"
        path.write_text(json.dumps({"network": {"chain_weight": 1e-9}}))
        assert cli.main(["calibrate", "--config", str(path),
                         "--out", str(tmp_path / "cal")]) == 0

    def test_calibrate_takes_no_seed(self, capsys):
        # calibration draws no random number, so a seed would be ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["calibrate", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["sweep", "--seed", "-1"],
                                         ["simulate", "--seed", "-3"]],
                             ids=["sweep", "simulate"])
    def test_negative_seed_exit_2(self, command, tmp_path, capsys):
        # as a negative sweep.base_seed in the config, before any trial
        out = tmp_path / "o"
        with mock.patch.object(harness, "run_trial_detailed") as detailed, \
                mock.patch.object(harness, "run_sweep") as sweep:
            rc = cli.main([*command, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --seed must be >= 0, got {command[-1]}\n")
        assert not (out.exists() or detailed.called or sweep.called)

    def test_short_duration_runs_on_a_config_wav(self, tmp_path):
        # the recording replaces the clap, so its onset does not bound
        # the duration
        wav = tmp_path / "stim.wav"
        write_wav_16bit(wav, synth_clap(ClapSpec(onset_time=1e-5), 192000,
                                        1e-3).samples, 192000)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"stimulus": {"duration": 1e-4,
                                                 "wav": str(wav)}}))
        assert cli.main(["simulate", "--config", str(path), "--itd", "0",
                         "--out", str(tmp_path / "sim")]) == 0

    @pytest.mark.parametrize("case", ["simulate-itd", "sweep-itds",
                                      "sweep-config", "simulate-wav",
                                      "sweep-config-wav", "simulate-nan",
                                      "sweep-nan"])
    def test_itd_past_the_clip_exit_2(self, case, tmp_path, capsys,
                                      monkeypatch):
        # an ITD the clip cannot hold is an input error, found before any
        # trial: from the flags, from the config, or against a recording
        trials = []
        monkeypatch.setattr(harness, "_frontend",
                            lambda *a: trials.append(a))
        wav = tmp_path / "short.wav"  # 98.96 us
        write_wav_16bit(wav, synth_clap(ClapSpec(onset_time=1e-5), 192000,
                                        1e-4).samples, 192000)
        path = tmp_path / "run.json"
        out = ["--out", str(tmp_path / "o")]
        argv = {
            "simulate-itd": ["simulate", "--itd", "2000", *out],
            "sweep-itds": ["sweep", "--trials", "1", "--itds=0,2000", *out],
            "sweep-config": ["sweep", "--config", str(path), "--trials", "1",
                             *out],
            "simulate-wav": ["simulate", "--wav", str(wav), "--itd", "-100",
                             *out],
            "sweep-config-wav": ["sweep", "--config", str(path), "--trials",
                                 "1", *out],
            # a NaN ITD is no shorter than any clip
            "simulate-nan": ["simulate", "--itd", "nan", *out],
            "sweep-nan": ["sweep", "--trials", "1", "--itds=0,nan", *out],
        }[case]
        doc = ({"stimulus": {"wav": str(wav)}} if case == "sweep-config-wav"
               else {"stimulus": {"duration": 3e-4},
                     "sweep": {"itds_us": [0, 400]}})
        path.write_text(json.dumps(doc))
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be smaller than the clip duration" in err
        assert trials == []

    def test_itd_inside_the_clip_runs(self, tmp_path):
        # 1e-4 s at 192 kHz rounds to 19 samples, 98.96 us: they hold an
        # ITD of 98 us
        wav = tmp_path / "short.wav"
        write_wav_16bit(wav, synth_clap(ClapSpec(onset_time=1e-5), 192000,
                                        1e-4).samples, 192000)
        assert cli.main(["simulate", "--wav", str(wav), "--itd", "98",
                         "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_wav_with_no_sample_at_1_over_dt_exit_2(self, command, tmp_path,
                                                    capsys, monkeypatch):
        # one sample at 30 MHz lasts 1/3 step of 1e-7 s: it resamples to
        # none, so the command fails before any trial
        trials = []
        monkeypatch.setattr(harness, "_frontend",
                            lambda *a: trials.append(a))
        wav = tmp_path / "short.wav"
        write_wav_16bit(wav, np.full((1, 1), 0.5), 30_000_000)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"stimulus": {"wav": str(wav)}}))
        rc = cli.main([command, "--config", str(path), "--itds=0",
                       "--trials", "1", "--out", str(tmp_path / "o")]
                      if command == "sweep" else
                      [command, "--wav", str(wav), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "resample to none" in err
        assert trials == []

    @pytest.mark.parametrize("case", ["out-is-file", "out-under-file",
                                      "wav-is-dir"])
    def test_os_error_exit_2(self, case, small_config, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = ["simulate", "--config", str(small_config), "--itd", "0",
                "--out", str(tmp_path / "o")]
        if case == "out-is-file":
            argv[-1] = str(afile)
        elif case == "out-under-file":
            argv[-1] = str(afile / "o")
        else:
            argv += ["--wav", str(tmp_path)]
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_bad_out_fails_before_any_trial(self, command, small_config,
                                            tmp_path, capsys, monkeypatch):
        built = []

        class Counting(harness.Simulation):
            def __init__(self, spec, dt):
                built.append(spec)
                super().__init__(spec, dt)
        monkeypatch.setattr(harness, "Simulation", Counting)
        afile = tmp_path / "afile"
        afile.write_text("")
        extra = ["--itds=-40,0,40", "--trials", "2"] if command == "sweep" \
            else ["--itd", "0"]
        rc = cli.main([command, "--config", str(small_config), *extra,
                       "--out", str(afile)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert built == []

    def test_sweep_zero_trials_exit_2(self, small_config, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = cli.main(["sweep", "--config", str(small_config), "--itds", "0",
                       "--trials", "0", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: sweep: trials must be >= 1\n"
        assert not out.exists()

    def _bad_itds_flag(self, itds, small_config, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = cli.main(["sweep", "--config", str(small_config), f"--itds={itds}",
                       "--trials", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep: ") and err.count("\n") == 1
        assert not out.exists()

    def test_sweep_empty_itds_flag_exit_2(self, small_config, tmp_path,
                                          capsys):
        self._bad_itds_flag("", small_config, tmp_path, capsys)

    def test_sweep_unparsable_itds_flag_exit_2(self, small_config, tmp_path,
                                               capsys):
        self._bad_itds_flag("abc", small_config, tmp_path, capsys)

    def _jobs_flag_refused(self, jobs, small_config, tmp_path, capsys):
        # a sweep runs in one process: argparse refuses --jobs
        out = tmp_path / "sw"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", str(small_config), "--itds", "0",
                      "--trials", "1", "--jobs", jobs, "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --jobs {jobs}" in err
        assert not out.exists()

    def test_sweep_jobs_flag_gone_exit_2(self, small_config, tmp_path,
                                         capsys):
        self._jobs_flag_refused("2", small_config, tmp_path, capsys)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_sweep_jobs_below_one_exit_2(self, jobs, small_config, tmp_path,
                                         capsys):
        self._jobs_flag_refused(jobs, small_config, tmp_path, capsys)


def _cli(argv) -> tuple:
    """cli.main's exit code and its standard error lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return rc, err.getvalue().splitlines()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)),
                min_size=1, max_size=6))
def test_simulate_on_a_mutated_wav_header(tmp_path_factory, mutations):
    # any bytes in the 44-byte header of a valid WAV: simulate runs, or
    # exits with its documented code and one error line, never a traceback
    tmp = tmp_path_factory.mktemp("wav")
    wav, path = tmp / "m.wav", tmp / "run.json"
    write_wav_16bit(wav, synth_clap(ClapSpec(onset_time=1e-5), 192000,
                                    3e-4).samples, 192000)
    data = bytearray(wav.read_bytes())
    for at, byte in mutations:
        data[at] = byte
    wav.write_bytes(bytes(data))
    path.write_text(json.dumps({"network": {"n_stages": 8},
                                "stimulus": {"duration": 3e-4}}))
    rc, lines = _cli(["simulate", "--config", str(path), "--wav", str(wav),
                      "--out", str(tmp / "o")])
    assert rc in (0, 2, 3)
    assert [line for line in lines if line.startswith("error:")] == (
        [] if rc == 0 else lines[-1:])


def _leaves(doc: dict, path=()):
    """The path of every value in a config document that is not a section."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, (*path, key))
        else:
            yield (*path, key)


_DUMP = json.loads(dump_config(RunConfig()))  # what `config dump` prints
_LEAVES = sorted(_leaves(_DUMP))
# one value just past a documented range. No value of the right type drawn
# for n_stages, sweep.trials, stimulus.sample_rate or stimulus.duration
# exceeds its default, and none for dt falls below it, so no run asks for
# a billion stages, trials, samples or steps
_PAST_RANGE = {
    ("dt",): 1.51e-6,  # min(tau_m, tau_syn) / 10 = 1.5e-6
    ("network", "n_stages"): 1,
    ("network", "chain_weight"): 2.1e-7,  # the single-spike firing weight
    ("network", "coincidence_weight"): 2.2e-7,  # is 2.175e-7
    ("network", "w_lsb"): 1e-6,
    ("network", "neuron_params", "v_reset"): 1.0,
    ("network", "neuron_params", "v_leak"): 1.0,
    ("frontend", "v_floor"): 0.81,
    ("frontend", "v_clip"): 0.2,
    ("injection", "mode"): "capacitive",
    ("stimulus", "duration"): 2e-4,  # the clap onset
    ("stimulus", "sample_rate"): 454,  # under one sample in 1.1 ms
    ("sweep", "itds_us"): [1100.0],  # the clip duration
}


def _perturbed(path: tuple) -> list:
    """The dumped value at `path` as another JSON type at the same
    magnitude, 0, -1 and, where documented, just past its range."""
    value = _DUMP
    for key in path:
        value = value[key]
    out = [str(value), 1 if isinstance(value, bool) else True, None,
           [value], 0, -1]
    if isinstance(value, float):
        out.append(int(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        out.append(value + 0.5)
    if path in _PAST_RANGE:
        out.append(_PAST_RANGE[path])
    return out


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_LEAVES).flatmap(
    lambda path: st.tuples(st.just(path), st.sampled_from(_perturbed(path)))))
# a 1 s membrane time constant: a PSP rising for ten million steps gets no
# event-engine tables, so the sweep steps its trial
@example(case=(("network", "neuron_params", "tau_m"), 1.0))
# a negative coincidence weight builds, and then no offset fires a
# detector: the tables have reach -1 and an empty fire table
@example(case=(("network", "coincidence_weight"), -1))
def test_cli_on_a_perturbed_config(tmp_path_factory, case):
    # one dumped value changed in type or range: sweep and simulate run or
    # exit with a documented code and one error line, never a traceback,
    # and a config that loads, builds its network and names no WAV (a
    # string drawn for stimulus.wav names no file) runs the sweep
    path, value = case
    doc = copy.deepcopy(_DUMP)
    section = doc
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    tmp = tmp_path_factory.mktemp("cfg")
    cfg = tmp / "run.json"
    cfg.write_text(json.dumps(doc))
    try:
        run = config_from_dict(doc)
        jeffress.build(run.network)
        loads = run.stimulus.wav is None
    except ValueError:  # ConfigError is one
        loads = False
    codes = []
    for argv in (["sweep", "--trials", "1", "--itds", "0"], ["simulate"]):
        rc, lines = _cli([*argv, "--config", str(cfg), "--out", str(tmp / argv[0])])
        assert rc in (0, 2, 3)
        assert not any("Traceback" in line for line in lines)
        assert [line for line in lines if line.startswith("error:")] == (
            [] if rc == 0 else lines[-1:])
        codes.append(rc)
    assert codes[0] == (0 if loads else 2)
