"""What a fresh interpreter loads: itdloc needs only numpy, in its
commands, trials, cross-correlation oracle and Woodworth inverse alike;
none of them loads concurrent.futures or logging, and a calibration
leaves numpy.ma unloaded."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import itdloc
from itdloc import harness
from itdloc.frontend import ClapSpec, synth_clap

from conftest import write_wav_16bit

SRC = str(Path(itdloc.__file__).resolve().parents[1])
NOISY = (40e-6, 7, 0.07)  # itd, seed, noise amplitude


def _fresh(code: str, *args: str) -> str:
    """Standard output of `code` run in a new interpreter that imports this
    checkout's itdloc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return proc.stdout


def test_import_dump_and_calibrate_leave_scipy_unloaded(tmp_path):
    # and so do a noisy simulate and a sweep, which run trials, the
    # oracle on a self-shifted mono WAV and the Woodworth inverse; none of
    # them loads concurrent.futures or logging either
    write_wav_16bit(tmp_path / "mono.wav",
                    synth_clap(ClapSpec(rng_seed=12), 192000, 3e-3).samples,
                    192000)
    code = """if True:
        import contextlib, io, json, sys

        def unwanted():
            return sorted(m for m in sys.modules if m.split(".")[0] in
                          ("scipy", "concurrent", "logging"))

        seen = {}
        import itdloc
        from itdloc import cli
        seen["import"] = unwanted()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = [cli.main(["config", "dump"])]
            seen["config dump"] = unwanted()
            rc.append(cli.main(["calibrate", "--out", sys.argv[1] + "/cal"]))
            seen["calibrate"] = unwanted()
            rc.append(cli.main(["simulate", "--seed", "5",
                                "--out", sys.argv[1] + "/sim"]))
            seen["simulate"] = unwanted()
            rc.append(cli.main(["sweep", "--trials", "1", "--itds=-40,0,40",
                                "--out", sys.argv[1] + "/sw"]))
            seen["sweep"] = unwanted()
            rc.append(cli.main(["oracle", "--wav", sys.argv[1] + "/mono.wav",
                                "--itd", "100"]))
            seen["oracle"] = unwanted()
        itdloc.woodworth_angle(100e-6, itdloc.GeometryParams())
        seen["woodworth_angle"] = unwanted()
        print(json.dumps({"rc": rc, "seen": seen}))
    """
    out = json.loads(_fresh(code, str(tmp_path)))
    assert out["rc"] == [0, 0, 0, 0, 0]
    assert out["seen"] == {"import": [], "config dump": [], "calibrate": [],
                           "simulate": [], "sweep": [], "oracle": [],
                           "woodworth_angle": []}
    assert (tmp_path / "cal" / "tuned_config.json").is_file()
    assert (tmp_path / "sim" / "spikes.csv").is_file()
    assert len((tmp_path / "sw" / "sweep.csv").read_text().splitlines()) == 4


def test_calibration_leaves_numpy_ma_unloaded():
    # np.unique loads numpy.ma on its first call, about 12 ms
    code = """if True:
        import sys
        from itdloc.jeffress import JeffressConfig, build, calibrate_stage_delay

        calibrate_stage_delay(build(JeffressConfig()), 1e-7)
        print("numpy.ma" in sys.modules)
    """
    assert _fresh(code).strip() == "False"


def test_noisy_trial_leaves_scipy_unloaded_and_matches(default_trial):
    code = """if True:
        import dataclasses, json, sys
        from itdloc import harness, jeffress

        itd, seed, noise = json.loads(sys.argv[1])
        cfg = harness.TrialConfig(net=jeffress.build(jeffress.JeffressConfig()))
        res = harness.run_trial(itd, seed, cfg, noise_amplitude=noise)
        detail = harness.run_trial_detailed(itd, seed, cfg,
                                            noise_amplitude=noise)
        sweep = harness.run_sweep(harness.SweepConfig(
            cfg, itds=(-itd, itd), trials=2, noise_amplitude=noise))
        print(json.dumps({
            "scipy": sorted(m for m in sys.modules
                            if m.split(".")[0] == "scipy"),
            "result": dataclasses.astuple(res),
            "detailed": dataclasses.astuple(detail.result),
            "rows": len(sweep.rows)}))
    """
    out = json.loads(_fresh(code, json.dumps(NOISY)))
    itd, seed, noise = NOISY
    here = harness.run_trial(itd, seed, default_trial, noise_amplitude=noise)
    assert out["scipy"] == []
    assert out["rows"] == 4
    assert out["detailed"] == out["result"]
    assert not here.miss
    # json writes each float by repr, so equal tuples are equal bits
    assert out["result"] == list(dataclasses.astuple(here))
