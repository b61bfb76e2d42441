"""Strict config round-tripping and the command-line surface: subcommands,
outputs and exit codes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
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

from conftest import write_wav_16bit
from itdloc.frontend import ClapSpec, FrontEndParams, synth_clap
from itdloc.jeffress import GeometryParams, JeffressConfig
from itdloc.lif import LifParams


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_lif = st.builds(LifParams, tau_m=_floats(1e-6, 1e-4), tau_syn=_floats(1e-6, 1e-4),
                 v_reset=_floats(0.0, 0.45), t_ref=_floats(1e-6, 1e-3))
valid_configs = st.builds(
    RunConfig,
    dt=_floats(1e-9, 1e-6),
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
                       duration=_floats(1e-4, 1.0),
                       wav=st.none() | st.text(max_size=12),
                       clap=st.builds(ClapSpec, onset_time=_floats(0.0, 1e-3),
                                      rng_seed=st.integers(0, 2**32))),
    sweep=st.builds(SweepSection, itds_us=st.lists(_floats(-200.0, 200.0),
                                                   max_size=5),
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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


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

    def test_calibrate_absurd_target_exit_3(self, small_config, capsys):
        rc = cli.main(["calibrate", "--config", str(small_config),
                       "--target-us", "0.001"])
        assert rc == 3
        assert "achievable range" in capsys.readouterr().err

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

        def capture(cfg, jobs=1, out_dir=None):
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

    def test_sweep_single_cell(self, small_config, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = cli.main(["sweep", "--config", str(small_config),
                       "--trials", "1", "--itds", "0", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2  # header + one row
        assert (out / "stats.csv").exists()

    def test_oracle_on_self_shifted_clip(self, tmp_path, capsys):
        clap = synth_clap(ClapSpec(rng_seed=12), 192000, 3e-3)
        wav = tmp_path / "clap.wav"
        write_wav_16bit(wav, clap.samples, 192000)
        rc = cli.main(["oracle", "--wav", str(wav), "--itd", "100"])
        assert rc == 0
        est = float(capsys.readouterr().out.split("itd_us=")[1])
        assert est == pytest.approx(100.0, abs=2.6)

    def test_oracle_mono_without_itd_exit_3(self, tmp_path, capsys):
        wav = tmp_path / "m.wav"
        write_wav_16bit(wav, np.sin(np.linspace(0, 50, 4000)), 192000)
        rc = cli.main(["oracle", "--wav", str(wav)])
        assert rc == 3
        assert "--itd" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ({"unknown_section": 1}, "unknown keys"),
        ({"network": {"n_stages": 1}}, "n_stages must be >= 2"),
        ({"network": {"chain_weight": 0}}, "chain_weight must be > 0"),
        ({"network": {"neuron": {}}}, "unknown keys ['neuron']"),
        ({"readout": {"iteration_time": 0}}, "iteration_time must be > 0"),
    ], ids=["unknown-section", "one-stage", "zero-chain-weight",
            "old-neuron-key", "zero-iteration-time"])
    def test_bad_config_exit_2(self, doc, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = cli.main(["config", "dump", "--config", str(path)])
        assert rc == 2
        assert message in capsys.readouterr().err

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

    def test_sweep_zero_trials_exit_3(self, small_config, tmp_path, capsys):
        out = tmp_path / "sw"
        rc = cli.main(["sweep", "--config", str(small_config), "--itds", "0",
                       "--trials", "0", "--out", str(out)])
        assert rc == 3
        assert "trials must be >= 1" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
