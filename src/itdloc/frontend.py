"""Analog front-end model: stimulus synthesis, WAV ingest, inter-channel
delays and the passive conditioning chain that maps microphone voltages
into the window an injected neuron membrane can accept.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np


class WavError(ValueError):
    """Raised when a WAV file cannot be decoded."""


@dataclass(frozen=True, eq=False)
class AudioClip:
    """Sampled voltage traces, one or two channels, fixed rate.

    samples has shape (n_channels, n_samples) in volts; all channels are
    the same length and every value is finite.
    """

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if s.ndim != 2 or s.shape[0] not in (1, 2):
            raise ValueError("AudioClip needs 1 or 2 channels of equal length")
        if not np.isfinite(s).all():
            raise ValueError("AudioClip samples must be finite")
        rate = int(self.sample_rate)
        if rate <= 0 or rate != self.sample_rate:
            raise ValueError("sample_rate must be a positive integer")
        object.__setattr__(self, "sample_rate", rate)
        object.__setattr__(self, "samples", s)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate

    def channel(self, i: int) -> np.ndarray:
        return self.samples[i]


@dataclass(frozen=True)
class FrontEndParams:
    """Passive conditioning board: high-pass, re-bias, series diode, clamp."""

    v_offset: float = 0.8
    v_diode: float = 0.6
    v_floor: float = 0.2
    v_clip: float = 1.2
    highpass_cutoff: float = 20.0  # Hz, 0 disables the filter
    preamp_gain: float = 1.0

    def __post_init__(self):
        bad = [f.name for f in fields(self) if not np.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"{' and '.join(bad)} must be finite")
        if self.v_floor > self.v_offset:
            raise ValueError("v_floor must not exceed v_offset")
        if self.v_clip <= self.v_floor:
            raise ValueError("v_clip must exceed v_floor")
        if self.v_diode < 0:
            raise ValueError("v_diode must be non-negative")
        if self.highpass_cutoff < 0:
            raise ValueError("highpass_cutoff must be >= 0")


@dataclass(frozen=True)
class ClapSpec:
    """Synthetic transient stimulus: band-limited noise under a rise/decay
    envelope, standing in for a recorded hand clap."""

    onset_time: float = 2e-4
    rise_time: float = 1e-4
    decay_time: float = 2e-3
    amplitude: float = 1.0
    noise_bandwidth: float = 8000.0
    rng_seed: int = 20260809

    def __post_init__(self):
        times = np.array((self.onset_time, self.rise_time, self.decay_time))
        if not ((times >= 0) & (times < np.inf)).all():
            raise ValueError("onset_time, rise_time, decay_time must be finite, >= 0")
        if not 0 < self.amplitude < np.inf:
            raise ValueError("clap amplitude must be > 0 and finite")
        if not np.isfinite(self.noise_bandwidth):
            raise ValueError("noise_bandwidth must be finite")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


def load_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file into an AudioClip.

    Supports PCM 16/24-bit and IEEE float 32-bit, 1 or 2 channels, as
    plain formats or as WAVE_FORMAT_EXTENSIBLE subformats.
    Integer samples are scaled by the full-scale magnitude so values land
    in [-1, +1] volts around zero; no gain or offset is applied here.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            if len(body) < 16:
                raise WavError(f"{path}: truncated fmt chunk")
            fmt = body
        elif cid == b"data":
            if len(body) < size:
                raise WavError(f"{path}: truncated data chunk")
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavError(f"{path}: missing fmt chunk")
    if payload is None:
        raise WavError(f"{path}: missing data chunk")
    if len(payload) == 0:
        raise WavError(f"{path}: empty data")

    audio_format, n_channels, sample_rate, _, block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt)
    kind = "format"
    if audio_format == 0xFFFE:  # WAVE_FORMAT_EXTENSIBLE: SubFormat GUID at 24
        if len(fmt) < 40:
            raise WavError(f"{path}: truncated extensible fmt chunk")
        kind, (audio_format,) = "extensible subformat", struct.unpack_from("<H", fmt, 24)
    if n_channels == 0 or n_channels > 2:
        raise WavError(f"{path}: {n_channels} channels unsupported (need 1 or 2)")
    if sample_rate == 0:
        raise WavError(f"{path}: sample rate 0")

    if audio_format == 1 and bits == 16:
        raw = np.frombuffer(payload[:len(payload) - len(payload) % 2], dtype="<i2")
        values = raw.astype(float) / 32768.0
    elif audio_format == 1 and bits == 24:
        usable = len(payload) - len(payload) % 3
        b = np.frombuffer(payload[:usable], dtype=np.uint8).reshape(-1, 3)
        raw = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        raw = np.where(raw & 0x800000, raw - 0x1000000, raw)
        values = raw.astype(float) / 8388608.0
    elif audio_format == 3 and bits == 32:
        raw = np.frombuffer(payload[:len(payload) - len(payload) % 4], dtype="<f4")
        values = raw.astype(float)
    else:
        raise WavError(
            f"{path}: unsupported encoding ({kind} {audio_format}, {bits}-bit)"
        )

    if values.size == 0 or values.size % n_channels:
        raise WavError(f"{path}: truncated data chunk")
    frames = values.reshape(-1, n_channels).T
    if not np.all(np.isfinite(frames)):
        raise WavError(f"{path}: non-finite samples")
    return AudioClip(sample_rate=int(sample_rate), samples=frames)


def clap_envelope(spec: ClapSpec, t: np.ndarray) -> np.ndarray:
    """Amplitude envelope of a synthetic clap at times t (seconds).

    Zero before onset, linear rise to 1 over rise_time, then exponential
    decay with time constant decay_time.
    """
    t = np.asarray(t, dtype=float)
    rise_end = spec.onset_time + spec.rise_time
    env = np.zeros_like(t)
    if spec.rise_time > 0:
        rising = (t >= spec.onset_time) & (t < rise_end)
        env[rising] = (t[rising] - spec.onset_time) / spec.rise_time
    if spec.decay_time > 0:
        falling = t >= rise_end
        env[falling] = np.exp(-(t[falling] - rise_end) / spec.decay_time)
    return env


def synth_clap(spec: ClapSpec, sample_rate: int, duration: float) -> AudioClip:
    """Generate a mono clap: band-limited white noise times the envelope.

    Deterministic for a fixed rng_seed; the waveform peak is scaled to
    exactly spec.amplitude.
    """
    if duration <= spec.onset_time:
        raise ValueError("duration must exceed the clap onset_time")
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    rng = np.random.default_rng(spec.rng_seed)
    noise = rng.standard_normal(n)
    if spec.noise_bandwidth > 0 and spec.noise_bandwidth < sample_rate / 2:
        spec_f = np.fft.rfft(noise)
        freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
        spec_f[freqs > spec.noise_bandwidth] = 0.0
        noise = np.fft.irfft(spec_f, n=n)
    wave = noise * clap_envelope(spec, t)
    peak = np.max(np.abs(wave))
    if peak > 0:
        wave *= spec.amplitude / peak
    return AudioClip(sample_rate=sample_rate, samples=wave[np.newaxis, :])


def fractional_delay(x: np.ndarray, delay_samples: float) -> np.ndarray:
    """Shift a 1-D signal by a possibly fractional number of samples using
    linear interpolation; regions shifted in from beyond the ends are zero."""
    x = np.asarray(x, dtype=float)
    base = np.arange(x.shape[0], dtype=float)
    return np.interp(base - delay_samples, base, x, left=0.0, right=0.0)


def apply_itd(mono: AudioClip, itd: float) -> AudioClip:
    """Expand a mono clip into a stereo pair with an inter-channel delay.

    Channel 0 (left) is the original; channel 1 (right) is delayed by itd
    seconds (advanced when itd < 0). Positive itd therefore means the
    sound reaches the right channel later, i.e. the source sits to the
    left of the array; the numeric sign bookkeeping downstream is owned
    by the network orientation flag.
    """
    if mono.n_channels != 1:
        raise ValueError("apply_itd expects a mono clip")
    if not abs(itd) < mono.duration:  # NaN too
        raise ValueError("|itd| must be smaller than the clip duration")
    left = mono.channel(0)
    right = fractional_delay(left, itd * mono.sample_rate)
    return AudioClip(sample_rate=mono.sample_rate, samples=np.array((left, right)))


def condition(samples: np.ndarray, sample_rate: float, params: FrontEndParams) -> np.ndarray:
    """Run each channel, time on the last axis, through the passive chain.

    Stages: preamp gain, single-pole high-pass (DC removal, skipped when
    highpass_cutoff is 0), re-bias by v_offset, series-diode cut
    max(x - v_diode, v_floor) and clamp to v_clip. Output is always
    inside [v_floor, v_clip]. The filter is causal: the first n outputs
    are the output of the first n samples.
    """
    x = np.asarray(samples, dtype=float) * params.preamp_gain
    if not np.all(np.isfinite(x)):
        raise ValueError("condition input must be finite")
    if params.highpass_cutoff > 0 and x.size:
        rc = 1.0 / (2.0 * np.pi * params.highpass_cutoff)
        alpha = rc / (rc + 1.0 / sample_rate)
        # y[n] = alpha * (y[n-1] + x[n] - x[n-1]) in direct form II
        # transposed, rounded as lfilter rounds it, one sample of every row
        # at a time; the state starts at -a[0], so a constant row gives 0
        a = np.multiply(x.reshape(-1, x.shape[-1]).T, alpha, order="C")
        hp, z, alphas = np.empty_like(a), -a[0], np.full(len(a[0]), alpha)
        for a_n, y_n in zip(a, hp):  # positional outs: cheaper calls
            np.add(z, a_n, y_n)
            np.multiply(y_n, alphas, z)
            np.subtract(z, a_n, z)
        x = np.ascontiguousarray(hp.T).reshape(x.shape)
    y = x + params.v_offset
    y = np.maximum(y - params.v_diode, params.v_floor)
    return np.minimum(y, params.v_clip)


def resample(clip: AudioClip, factor) -> AudioClip:
    """Linear-interpolation resampling by a positive rational/real factor.

    The new sample rate is the old one times factor, rounded to integer Hz.
    """
    factor = float(factor)
    if factor <= 0:
        raise ValueError("resample factor must be > 0")
    new_rate = int(round(clip.sample_rate * factor))
    if new_rate <= 0:
        raise ValueError("resample factor collapses the sample rate to zero")
    if new_rate == clip.sample_rate:
        return clip
    n_new = int(round(clip.n_samples * new_rate / clip.sample_rate))
    t_new = np.arange(n_new) * (clip.sample_rate / new_rate)
    base = np.arange(clip.n_samples, dtype=float)
    out = np.stack([np.interp(t_new, base, clip.channel(i))
                    for i in range(clip.n_channels)])
    return AudioClip(sample_rate=new_rate, samples=out)


def write_trace_csv(path, samples: np.ndarray, sample_rate: float) -> None:
    """Dump one voltage trace as (time_s, volts) CSV for debugging."""
    samples = np.asarray(samples, dtype=float)
    with open(path, "w") as fh:
        fh.write("time_s,volts\n")
        for i, v in enumerate(samples):
            fh.write(f"{i / sample_rate:.9f},{v:.9f}\n")
