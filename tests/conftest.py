"""Shared fixtures: the default network (built once), its calibrated stage
delay, the whole-network stepped trial every fast path is checked against,
and independent signal oracles used to freeze expected values."""

from __future__ import annotations

import struct
import wave

import numpy as np
import pytest

from itdloc import harness, jeffress, lif, readout
from itdloc.harness import TrialConfig

DT = 1e-7


@pytest.fixture(scope="session")
def default_net():
    return jeffress.build(jeffress.JeffressConfig())


@pytest.fixture(scope="session")
def stage_delay(default_net):
    return jeffress.calibrate_stage_delay(default_net, DT).stage_delay_mean


@pytest.fixture(scope="session")
def default_trial(default_net):
    return TrialConfig(net=default_net)


@pytest.fixture
def jeffress_margin(monkeypatch):
    """Sets jeffress._MARGIN for one test. The coincidence tables are cached
    on the assumption that it stays fixed, so the cache is emptied before
    the change and after the test."""
    def set_margin(value):
        jeffress._coincidence.cache_clear()
        monkeypatch.setattr(jeffress, "_MARGIN", value)
    yield set_margin
    jeffress._coincidence.cache_clear()


def stepped_trial(itd, seed, cfg: TrialConfig, record_traces=(), *,
                  noise_amplitude: float = 0.0) -> harness.TrialDetail:
    """run_trial_detailed with every neuron of the network stepped over the
    full run, on the drives and front end the trial builds: the reference
    that the event engine's records and the two-input path must equal."""
    cond, fs, (crossing,) = harness._frontend(cfg, [(itd, seed)], noise_amplitude)
    spec = cfg.net.spec.with_injections(harness._injections(cfg, cond, fs))
    record, traces = lif.Simulation(spec, cfg.dt).run(cfg.duration,
                                                      record_traces=record_traces)
    events = readout.poll_loop(record, cfg.readout, cfg.net.detectors,
                               t_end=cfg.duration)
    return harness.TrialDetail(harness._result(events, crossing), record,
                               traces, tuple(events))


def sinc_interpolate(x: np.ndarray, t_samples: np.ndarray) -> np.ndarray:
    """Whittaker-Shannon interpolation of x at (fractional) sample times;
    the independent oracle for delay and resampling checks."""
    k = np.arange(x.size)
    out = np.empty(t_samples.size)
    chunk = 4096
    for lo in range(0, t_samples.size, chunk):
        part = t_samples[lo:lo + chunk, np.newaxis] - k[np.newaxis, :]
        out[lo:lo + chunk] = np.sinc(part) @ x
    return out


def condition_reference(samples, sample_rate: float, params) -> np.ndarray:
    """frontend.condition with its high-pass run by scipy.signal.lfilter,
    the state primed so that a constant row gives exactly 0."""
    from scipy.signal import lfilter

    x = np.asarray(samples, dtype=float) * params.preamp_gain
    if params.highpass_cutoff > 0 and x.size:
        rc = 1.0 / (2.0 * np.pi * params.highpass_cutoff)
        alpha = rc / (rc + 1.0 / sample_rate)
        x, _ = lfilter([alpha, -alpha], [1.0, -alpha], x, axis=-1,
                       zi=-alpha * x[..., :1])
    y = np.maximum(x + params.v_offset - params.v_diode, params.v_floor)
    return np.minimum(y, params.v_clip)


def write_wav_16bit(path, channels: np.ndarray, rate: int) -> None:
    """Write float [-1, 1] channels as a 16-bit PCM WAV via the stdlib."""
    channels = np.atleast_2d(channels)
    ints = np.clip(np.round(channels * 32767), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels.shape[0])
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(ints.T.tobytes())


# the 14 bytes that follow a subformat code in a WAVE_FORMAT_EXTENSIBLE
# SubFormat GUID (KSDATAFORMAT_SUBTYPE_PCM and _IEEE_FLOAT share them)
_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def raw_wav_bytes(fmt_code: int, bits: int, n_channels: int, rate: int,
                  payload: bytes, extensible: bool = False) -> bytes:
    """Assemble a minimal RIFF/WAVE file by hand; extensible writes format
    tag 0xFFFE with fmt_code as the subformat, in a 40-byte fmt chunk."""
    block = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else fmt_code,
                      n_channels, rate, rate * block, block, bits)
    if extensible:  # cbSize, valid bits, channel mask, SubFormat GUID
        fmt += struct.pack("<HHIH", 22, bits, 0, fmt_code) + _GUID_TAIL
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks
