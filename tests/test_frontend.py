"""Front-end tests: WAV decoding, clap synthesis, inter-channel delay,
conditioning and resampling, each against an independent oracle where the
expected value is not trivial."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itdloc.frontend import (
    AudioClip,
    ClapSpec,
    FrontEndParams,
    WavError,
    apply_itd,
    clap_envelope,
    condition,
    fractional_delay,
    load_wav,
    resample,
    synth_clap,
    write_trace_csv,
)

from conftest import (
    condition_reference,
    raw_wav_bytes,
    sinc_interpolate,
    write_wav_16bit,
)


class TestAudioClip:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            AudioClip(48000, np.array([0.0, np.nan]))

    def test_rejects_three_channels(self):
        with pytest.raises(ValueError, match="channels"):
            AudioClip(48000, np.zeros((3, 10)))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="sample_rate"):
            AudioClip(0, np.zeros(4))

    def test_duration(self):
        clip = AudioClip(192000, np.zeros(192))
        assert clip.duration == pytest.approx(1e-3)


class TestLoadWav:
    def test_16bit_fullscale(self, tmp_path):
        path = tmp_path / "fs.wav"
        write_wav_16bit(path, np.array([[32767 / 32767, -1.0, 0.0],
                                        [0.5, -0.5, 0.25]]), 192000)
        clip = load_wav(path)
        assert clip.n_channels == 2
        assert clip.sample_rate == 192000
        assert clip.channel(0)[0] == pytest.approx(32767 / 32768, abs=1e-12)
        assert clip.channel(0)[0] == pytest.approx(0.99997, abs=1e-5)

    def test_mono_header_passthrough(self, tmp_path):
        path = tmp_path / "mono.wav"
        write_wav_16bit(path, np.zeros(321), 192000)
        clip = load_wav(path)
        assert (clip.sample_rate, clip.n_channels, clip.n_samples) == (192000, 1, 321)

    def test_empty_data_chunk(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(raw_wav_bytes(1, 16, 1, 48000, b""))
        with pytest.raises(WavError, match="empty data"):
            load_wav(path)

    def test_three_channels_rejected(self, tmp_path):
        path = tmp_path / "tri.wav"
        path.write_bytes(raw_wav_bytes(1, 16, 3, 48000, b"\x00" * 12))
        with pytest.raises(WavError, match="channels"):
            load_wav(path)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "u8.wav"
        path.write_bytes(raw_wav_bytes(1, 8, 1, 48000, b"\x80" * 8))
        with pytest.raises(WavError, match="unsupported encoding"):
            load_wav(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.wav"
        full = raw_wav_bytes(1, 16, 2, 48000, b"\x00" * 64)
        path.write_bytes(full[:-10])
        with pytest.raises(WavError, match="truncated"):
            load_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavError, match="RIFF"):
            load_wav(path)

    def test_24bit(self, tmp_path):
        # +full scale, -full scale, half scale
        payload = b"\xff\xff\x7f" + b"\x00\x00\x80" + b"\x00\x00\x40"
        path = tmp_path / "b24.wav"
        path.write_bytes(raw_wav_bytes(1, 24, 1, 96000, payload))
        clip = load_wav(path)
        expected = [8388607 / 8388608, -1.0, 0.5]
        assert np.allclose(clip.channel(0), expected, atol=1e-9)

    def test_float32(self, tmp_path):
        vals = np.array([0.125, -0.75, 1.0], dtype="<f4")
        path = tmp_path / "f32.wav"
        path.write_bytes(raw_wav_bytes(3, 32, 1, 48000, vals.tobytes()))
        clip = load_wav(path)
        assert np.allclose(clip.channel(0), vals, atol=1e-7)

    @pytest.mark.parametrize("fmt_code, bits, n_channels, payload", [
        (1, 16, 1, np.array([32767, -32768, 0, 16384], "<i2").tobytes()),
        (1, 16, 2, np.array([32767, -32768, 0, 16384], "<i2").tobytes()),
        (1, 24, 1, b"\xff\xff\x7f" + b"\x00\x00\x80" + b"\x00\x00\x40"),
        (3, 32, 1, np.array([0.125, -0.75, 1.0], "<f4").tobytes()),
    ])
    def test_extensible_loads_as_plain(self, tmp_path, fmt_code, bits,
                                       n_channels, payload):
        # format tag 0xFFFE, the one the spec asks for above 16 bits, with
        # the PCM or float subformat: the clip the plain tag gives
        plain, ext = tmp_path / "plain.wav", tmp_path / "ext.wav"
        plain.write_bytes(raw_wav_bytes(fmt_code, bits, n_channels, 48000, payload))
        ext.write_bytes(raw_wav_bytes(fmt_code, bits, n_channels, 48000, payload,
                                      extensible=True))
        want, got = load_wav(plain), load_wav(ext)
        assert got.sample_rate == want.sample_rate
        assert np.array_equal(got.samples, want.samples)

    def test_extensible_subformat_unsupported(self, tmp_path):
        path = tmp_path / "alaw.wav"  # subformat 6, A-law
        path.write_bytes(raw_wav_bytes(6, 16, 1, 48000, b"\x00" * 8,
                                       extensible=True))
        with pytest.raises(WavError, match=r"extensible subformat 6, 16-bit"):
            load_wav(path)

    def test_extensible_fmt_chunk_without_subformat(self, tmp_path):
        path = tmp_path / "short.wav"  # tag 0xFFFE in a 16-byte fmt chunk
        path.write_bytes(raw_wav_bytes(0xFFFE, 16, 1, 48000, b"\x00" * 8))
        with pytest.raises(WavError, match="truncated extensible fmt chunk"):
            load_wav(path)


class TestSynthClap:
    SPEC = ClapSpec(onset_time=2e-4, rise_time=1e-4, decay_time=2e-3,
                    amplitude=1.0, noise_bandwidth=8000.0, rng_seed=11)

    def test_silent_before_onset(self):
        clip = synth_clap(self.SPEC, 192000, 3e-3)
        before = clip.channel(0)[: int(2e-4 * 192000)]
        assert np.all(before == 0.0)

    def test_deterministic(self):
        a = synth_clap(self.SPEC, 192000, 3e-3)
        b = synth_clap(self.SPEC, 192000, 3e-3)
        assert np.array_equal(a.samples, b.samples)

    def test_peak_amplitude(self):
        clip = synth_clap(self.SPEC, 192000, 3e-3)
        assert np.max(np.abs(clip.samples)) == pytest.approx(1.0)

    def test_envelope_decay_ratio(self):
        # e^-1 between one decay constant after the rise and the rise end
        t_top = self.SPEC.onset_time + self.SPEC.rise_time
        env = clap_envelope(self.SPEC, np.array([t_top, t_top + 2e-3]))
        assert env[1] / env[0] == pytest.approx(np.exp(-1), rel=0.01)

    def test_seeds_decorrelated(self):
        a = synth_clap(self.SPEC, 192000, 3e-3).channel(0)
        b = synth_clap(ClapSpec(onset_time=2e-4, rise_time=1e-4, rng_seed=12),
                       192000, 3e-3).channel(0)
        live = slice(int(2e-4 * 192000) + 1, None)
        corr = np.corrcoef(a[live], b[live])[0, 1]
        assert abs(corr) < 0.2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["onset_time", "rise_time", "decay_time",
                                      "amplitude", "noise_bandwidth"])
    def test_clap_spec_refuses_non_finite(self, name, bad):
        # a ClapSpec keys the shared clap, and a NaN key never equals itself
        with pytest.raises(ValueError, match=f"{name}.* finite"):
            ClapSpec(**{name: bad})

    def test_duration_must_exceed_onset(self):
        with pytest.raises(ValueError, match="onset"):
            synth_clap(self.SPEC, 192000, 1e-4)


def _windowed_tone(freq=1000.0, rate=192000, duration=0.02):
    t = np.arange(int(rate * duration)) / rate
    return np.sin(2 * np.pi * freq * t) * np.hanning(t.size), t


class TestApplyItd:
    def test_zero_shift_identical(self):
        tone, _ = _windowed_tone()
        stereo = apply_itd(AudioClip(192000, tone), 0.0)
        assert np.array_equal(stereo.channel(0), stereo.channel(1))

    def test_149us_is_28_608_samples(self):
        assert 149e-6 * 192000 == pytest.approx(28.608)

    def test_fractional_shift_matches_sinc_oracle(self):
        # measure the achieved shift of a 1 kHz tone by phase projection;
        # reference tolerance is a thousandth of a sample
        rate, freq = 192000, 1000.0
        t = np.arange(int(rate * 0.02)) / rate
        tone = np.sin(2 * np.pi * freq * t)
        stereo = apply_itd(AudioClip(rate, tone), 149e-6)
        inner = slice(int(0.005 * rate), int(0.005 * rate) + 2 * int(rate / freq))
        seg, t_seg = stereo.channel(1)[inner], t[inner]
        a = 2 * np.mean(seg * np.sin(2 * np.pi * freq * t_seg))
        b = 2 * np.mean(seg * np.cos(2 * np.pi * freq * t_seg))
        delay = -np.arctan2(b, a) / (2 * np.pi * freq)
        assert delay * rate == pytest.approx(28.608, abs=1e-3)

    def test_roundtrip_recovers_original(self):
        tone, _ = _windowed_tone()
        stereo = apply_itd(AudioClip(192000, tone), 80e-6)
        back = fractional_delay(stereo.channel(1), -80e-6 * 192000)
        inner = slice(100, -100)
        rms = np.sqrt(np.mean((back[inner] - tone[inner]) ** 2))
        assert rms < 1e-3

    def test_half_space_constant(self):
        # 51 mm spacing spans the half-space within about +-149 us
        assert 0.051 / 343.0 == pytest.approx(149e-6, abs=0.5e-6)

    def test_rejects_overlong_shift(self):
        # a NaN ITD is refused with the same message
        clip = AudioClip(192000, np.zeros(192))
        for itd in (1.5e-3, np.nan, -np.inf, np.inf):
            with pytest.raises(ValueError, match="duration"):
                apply_itd(clip, itd)

    def test_rejects_stereo_input(self):
        with pytest.raises(ValueError, match="mono"):
            apply_itd(AudioClip(192000, np.zeros((2, 64))), 0.0)


class TestFrontEndParams:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["v_offset", "v_diode", "v_floor", "v_clip",
                                      "highpass_cutoff", "preamp_gain"])
    def test_refuses_non_finite(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            FrontEndParams(**{name: bad})

    def test_names_every_non_finite_field(self):
        with pytest.raises(ValueError, match="^v_offset and highpass_cutoff must"):
            FrontEndParams(v_offset=np.nan, highpass_cutoff=np.nan)


class TestCondition:
    def test_silent_input_rests_at_floor(self):
        out = condition(np.full(500, 0.0), 192000, FrontEndParams())
        assert np.allclose(out, 0.2, atol=1e-12)

    def test_constant_input_rests_at_floor(self):
        # the high-pass removes any DC, so constants land at offset - diode
        out = condition(np.full(500, 0.37), 192000, FrontEndParams())
        assert np.allclose(out, 0.2, atol=1e-12)

    def test_large_swing_clips(self):
        x = np.zeros(64)
        x[10] = 1.65  # 0.8 + 1.65 - 0.6 = 1.85 pre-clamp
        out = condition(x, 192000, FrontEndParams())
        assert out[10] == pytest.approx(1.2, abs=1e-3)

    def test_no_highpass_transfer(self):
        p = FrontEndParams(highpass_cutoff=0.0)
        out = condition(np.array([0.0, 1.65, -2.0, 0.45]), 192000, p)
        assert np.allclose(out, [0.2, 1.2, 0.2, 0.65])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=400),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 2.0),
           st.floats(0.0, 1.0), st.sampled_from([0.0, 20.0, 2000.0]),
           st.floats(0.1, 30.0), st.sampled_from([8000, 48000, 192000]))
    def test_bounds_property(self, x, v_floor, above_floor, clip_span, v_diode,
                             cutoff, gain, rate):
        p = FrontEndParams(v_offset=v_floor + above_floor, v_diode=v_diode,
                           v_floor=v_floor, v_clip=v_floor + clip_span,
                           highpass_cutoff=cutoff, preamp_gain=gain)
        out = condition(np.array(x), rate, p)
        assert np.all(out >= p.v_floor) and np.all(out <= p.v_clip)
        # two channels in one call: each row as the 1-D call gives it
        rows = np.array([x, [-0.5 * v for v in reversed(x)]])
        both = condition(rows, rate, p)
        assert np.array_equal(both[0], out)
        assert np.array_equal(both[1], condition(rows[1], rate, p))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 130), st.integers(1, 400), st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3), st.sampled_from([8000, 44100, 48000, 192000])
           | st.integers(100, 10**7), st.floats(0.01, 30.0),
           st.sampled_from([0.0, 20.0]) | st.floats(1e-3, 1e5))
    def test_equals_lfilter_reference(self, rows, n, seed, scale, rate, gain,
                                      cutoff):
        # bit for bit, and every prefix conditioned alone is the prefix of
        # the whole: the filter is causal, which the harness's window uses
        x = np.random.default_rng(seed).normal(0.0, scale, (rows, n))
        p = FrontEndParams(highpass_cutoff=cutoff, preamp_gain=gain)
        out = condition(x, rate, p)
        assert np.array_equal(out, condition_reference(x, rate, p))
        cut = 1 + seed % n
        assert np.array_equal(condition(x[:, :cut], rate, p), out[:, :cut])
        assert np.array_equal(condition(x[0], rate, p), out[0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=130),
           st.integers(1, 400), st.floats(1e-3, 1e5),
           st.integers(100, 10**7), st.floats(0.01, 30.0))
    def test_constant_row_high_pass_is_zero(self, levels, n, cutoff, rate,
                                            gain):
        # with no offset, diode or clamp in reach the output is the
        # high-pass itself
        p = FrontEndParams(v_offset=0.0, v_diode=0.0, v_floor=-1e9,
                           v_clip=1e9, highpass_cutoff=cutoff,
                           preamp_gain=gain)
        x = np.repeat(np.array(levels)[:, None], n, axis=1)
        out = condition(x, rate, p)
        assert np.all(out == 0.0)
        assert np.array_equal(out, condition_reference(x, rate, p))

    def test_clamp_stage_idempotent(self):
        # with offset and diode zeroed the chain reduces to the clamp, which
        # is idempotent on its own output
        p = FrontEndParams(v_offset=0.0, v_diode=0.0, v_floor=0.0,
                           highpass_cutoff=0.0)
        rng = np.random.default_rng(6)
        x = rng.normal(0.5, 2.0, 300)
        once = condition(x, 192000, p)
        assert np.array_equal(condition(once, 192000, p), once)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FrontEndParams(v_floor=1.0, v_offset=0.5)
        with pytest.raises(ValueError):
            FrontEndParams(v_clip=0.1)


class TestResample:
    def test_identity(self):
        clip = AudioClip(192000, np.arange(10.0))
        assert resample(clip, 1) is clip

    def test_factor_two_midpoints(self):
        clip = AudioClip(1000, np.array([0.0, 2.0, 4.0, 6.0]))
        up = resample(clip, 2)
        assert up.sample_rate == 2000
        ramp = up.channel(0)
        assert np.allclose(ramp[1:7:2], [1.0, 3.0, 5.0])

    def test_tone_vs_sinc_oracle(self):
        rate = 192000
        t = np.arange(int(rate * 1e-3)) / rate
        tone = np.sin(2 * np.pi * 1000 * t) * np.hanning(t.size)
        up = resample(AudioClip(rate, tone), 625 / 12)
        assert up.sample_rate == 10_000_000
        m = up.n_samples
        t_frac = np.arange(m) * (rate / 10_000_000)
        oracle = sinc_interpolate(tone, t_frac)
        inner = slice(int(0.2 * m), int(0.8 * m))
        rms = np.sqrt(np.mean((up.channel(0)[inner] - oracle[inner]) ** 2))
        assert rms < 1e-3

    def test_rejects_nonpositive_factor(self):
        clip = AudioClip(1000, np.zeros(8))
        with pytest.raises(ValueError):
            resample(clip, 0)
        with pytest.raises(ValueError):
            resample(clip, -2)


def test_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(path, np.array([0.25, -0.5]), 192000)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,volts"
    assert lines[1].startswith("0.000000000,0.25")
    assert len(lines) == 3
