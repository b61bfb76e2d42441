"""Simulator core tests: integrator exactness against closed forms, spike
and refractory semantics, determinism and weight quantization."""

import math
import warnings

import numpy as np
import pytest

from itdloc import jeffress
from itdloc.lif import (
    AnalogInjection,
    ExternalSpike,
    InjectionSection,
    LifParams,
    NetworkSpec,
    Simulation,
    SpikeRecord,
    SynapseSpec,
    quantize_weight,
    run,
)

DT = 1e-7


def single_neuron(params=None, **spec_kwargs):
    return NetworkSpec(neurons=(params or LifParams(),), **spec_kwargs)


class TestIntegrator:
    def test_leaky_decay_matches_analytic(self):
        p = LifParams(v_leak=0.0, v_thresh=2.0, v_reset=-0.5)
        sim = Simulation(single_neuron(p), DT)
        sim.v[:] = 1.0
        sim.run(15e-6)
        assert sim.v[0] == pytest.approx(np.exp(-1.0), abs=1e-3)
        assert sim.v[0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_rest_is_fixed_point(self):
        rec, traces = run(single_neuron(), 100e-6, DT, record_traces=[0])
        assert len(rec) == 0
        assert np.all(traces.v[0] == LifParams().v_leak)
        assert np.all(traces.i_syn[0] == 0.0)

    def test_piecewise_constant_input_exact(self):
        # resistive drive held constant over 5 us segments; the discrete
        # trace must match the per-step analytic solution to 1e-6 relative
        p = LifParams(v_thresh=10.0)
        rng = np.random.default_rng(7)
        seg = rng.uniform(0.2, 1.2, 40)
        inj = AnalogInjection(0, seg, 200000.0, InjectionSection(r_src=110e3))
        _, traces = run(single_neuron(p, injections=(inj,)), 200e-6, DT,
                        record_traces=[0])
        g = 1.0 / (110e3 * p.c_m)
        rate = 1.0 / p.tau_m + g
        v, expect = p.v_leak, [p.v_leak]
        for k in range(2000):
            drive = seg[min(int(k * DT * 200000.0 + 1e-6), seg.size - 1)]
            v_inf = (p.v_leak / p.tau_m + g * drive) / rate
            v = v_inf + (v - v_inf) * np.exp(-DT * rate)
            expect.append(v)
        expect = np.asarray(expect)
        rel = np.abs(traces.v[0] - expect) / np.maximum(np.abs(expect), 1e-12)
        assert np.max(rel) < 1e-6

    def test_constant_superthreshold_drive_fires_at_refractory_rate(self):
        p = LifParams()
        inj = AnalogInjection(0, np.full(3001, 1.19), 1e6,
                              InjectionSection(r_src=110e3))
        rec, _ = run(single_neuron(p, injections=(inj,)), 3e-3, DT)
        assert len(rec) >= 4
        isis = np.diff(rec.times)
        assert np.all(isis >= p.t_ref)
        assert np.all(isis <= p.t_ref + 10 * DT)

    def test_spike_time_shift_below_dt_when_dt_halved(self):
        w = 2.0 * jeffress.single_spike_fire_weight(LifParams())
        spec = single_neuron(external_spikes=(ExternalSpike(10e-6, 0, w),))
        t_coarse = run(spec, 100e-6, DT)[0].times[0]
        t_fine = run(spec, 100e-6, DT / 2)[0].times[0]
        assert abs(t_coarse - t_fine) < DT


class TestStepRules:
    """Each time that enters the stepper becomes a whole step, pinned where
    the float form could fall either side of a step boundary."""

    @pytest.mark.parametrize("t_ref, clamped", [(3e-6, 30), (5e-4, 5000)])
    @pytest.mark.parametrize("mode", ["resistive", "trigger"])
    def test_constant_drive_gives_one_interval(self, mode, t_ref, clamped):
        # the spikes fall on many absolute steps; each clamps ceil(t_ref / dt)
        p = LifParams(t_ref=t_ref)
        inj = AnalogInjection(0, np.full(3, 2.0), 1e3, InjectionSection(mode=mode))
        rec, tr = run(single_neuron(p, injections=(inj,)), 2e-3, DT,
                      record_traces=[0])
        steps = np.round(rec.times / DT).astype(int)  # spike step boundaries
        assert len(steps) >= 4
        isis = set(np.diff(steps).tolist())
        assert len(isis) == 1
        if mode == "trigger":
            assert isis == {clamped + 1}
        for s in steps[:-1]:
            assert np.all(tr.v[0][s + 1:s + clamped + 1] == p.v_reset)
            if mode == "resistive":
                assert tr.v[0][s + clamped + 1] > p.v_reset

    # 13 * DT / DT and 183 * DT / DT fall just below 13 and 183
    @pytest.mark.parametrize("t, step", [(13 * DT, 13), (183 * DT, 183),
                                         (3.7e-6, 37), (3.75e-6, 37),
                                         (55e-6, 550), (1.0999e-3, 10999)])
    def test_external_spike_on_a_step_lands_on_it(self, t, step):
        spec = single_neuron(external_spikes=(ExternalSpike(t, 0, 1e-9),))
        _, tr = run(spec, (step + 2) * DT, DT, record_traces=[0])
        assert tr.i_syn[0][step] == 0.0
        assert tr.i_syn[0][step + 1] == 1e-9

    @pytest.mark.parametrize("sample", [0, 3, 29, 550, 1001])
    def test_injection_at_the_simulator_rate_holds_one_sample_per_step(
            self, sample):
        # a lone supra-threshold trigger sample fires on its own step
        trace = np.zeros(sample + 5)
        trace[sample] = 2.0
        inj = AnalogInjection(0, trace, 10_000_000, InjectionSection(mode="trigger"))
        rec, _ = run(single_neuron(injections=(inj,)), trace.size * DT, DT)
        assert rec.times.tolist() == [(sample + 1) * DT]


class TestSpikes:
    def test_empty_network(self):
        rec, traces = run(NetworkSpec(neurons=()), 1e-4, DT)
        assert len(rec) == 0 and traces is None

    def test_single_strong_spike_fires_once_in_psp_window(self):
        p = LifParams()
        w = 2.0 * jeffress.single_spike_fire_weight(p)
        spec = single_neuron(p, external_spikes=(ExternalSpike(10e-6, 0, w),))
        rec, _ = run(spec, 200e-6, DT)
        assert len(rec) == 1
        assert 10e-6 < rec.times[0] <= 10e-6 + 5 * p.tau_m
        # dense-dt reference pins the crossing
        dense = run(spec, 200e-6, DT / 10)[0].times[0]
        assert abs(rec.times[0] - dense) <= DT

    def test_one_step_transmission_delay(self):
        p = LifParams()
        w = 2.0 * jeffress.single_spike_fire_weight(p)
        spec = NetworkSpec(neurons=(p, p), synapses=(SynapseSpec(0, 1, w),),
                           external_spikes=(ExternalSpike(10e-6, 0, w),))
        rec, traces = run(spec, 200e-6, DT, record_traces=[1])
        t_pre = rec.times[rec.ids == 0][0]
        k_pre = int(round(t_pre / DT))
        assert traces.i_syn[1][k_pre] == 0.0
        assert traces.i_syn[1][k_pre + 1] > 0.0

    def test_determinism(self):
        p = LifParams()
        w = 1.5 * jeffress.single_spike_fire_weight(p)
        spec = NetworkSpec(
            neurons=(p,) * 4,
            synapses=tuple(SynapseSpec(i, i + 1, w) for i in range(3)),
            external_spikes=(ExternalSpike(5e-6, 0, w),),
        )
        a, _ = run(spec, 0.4e-3, DT)
        b, _ = run(spec, 0.4e-3, DT)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.ids, b.ids)

    def test_refractory_and_counter_invariants(self):
        rng = np.random.default_rng(21)
        p = LifParams(t_ref=50e-6)
        w_fire = jeffress.single_spike_fire_weight(p)
        n = 12
        synapses = tuple(
            SynapseSpec(int(rng.integers(0, n)), int(rng.integers(0, n)),
                        float(rng.uniform(0.4, 1.6) * w_fire))
            for _ in range(30)
        )
        ext = tuple(ExternalSpike(float(rng.uniform(0, 2e-4)),
                                  int(rng.integers(0, n)), 1.5 * w_fire)
                    for _ in range(8))
        rec, _ = run(NetworkSpec(neurons=(p,) * n, synapses=synapses,
                                 external_spikes=ext), 1e-3, DT)
        assert len(rec) > 0
        for i in range(n):
            isis = np.diff(rec.times[rec.ids == i])
            assert np.all(isis >= p.t_ref)
        # every spike belongs to exactly one in-range neuron
        assert sum(rec.times[rec.ids == i].size for i in range(n)) == len(rec)


class TestInjection:
    def test_trigger_matches_resistive_spike_count_on_tone(self):
        fs = 1_000_000
        t = np.arange(int(0.01 * fs)) / fs
        tone = 0.5 + 0.6 * np.sin(2 * np.pi * 1000 * t)
        counts = {}
        for mode in ("resistive", "trigger"):
            inj = AnalogInjection(0, tone, fs, InjectionSection(mode=mode))
            rec, _ = run(single_neuron(injections=(inj,)), 0.01, DT)
            counts[mode] = len(rec)
        assert counts["trigger"] == counts["resistive"] == 10

    def test_short_trace_holds_its_last_sample(self):
        inj = AnalogInjection(0, np.array([1.19, 1.19]), 1e6,
                              InjectionSection(r_src=110e3))
        spec = single_neuron(injections=(inj,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # holding is the model, not a fault
            rec, _ = run(spec, 2e-3, DT)
        assert len(rec) >= 2  # the held DC keeps driving spikes

    def test_injection_validation(self):
        with pytest.raises(ValueError, match="finite"):
            AnalogInjection(0, np.array([np.inf]), 1e6)
        with pytest.raises(ValueError, match="r_src"):
            InjectionSection(r_src=0.0)
        with pytest.raises(ValueError, match="mode"):
            InjectionSection(mode="capacitive")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_injection_section_refuses_non_finite(self, bad):
        with pytest.raises(ValueError, match="r_src must be > 0 and finite"):
            InjectionSection(r_src=bad)


class TestValidation:
    def test_dt_too_coarse(self):
        with pytest.raises(ValueError, match="dt"):
            Simulation(single_neuron(), 2e-6)

    def test_lif_params(self):
        with pytest.raises(ValueError):
            LifParams(v_reset=1.5)
        with pytest.raises(ValueError):
            LifParams(tau_m=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["tau_m", "tau_syn", "v_leak", "v_thresh",
                                      "v_reset", "t_ref", "c_m"])
    def test_lif_params_refuse_non_finite(self, name, bad):
        # each field alone: min(1.0, nan) is 1.0, so one min over the
        # fields would pass a NaN that is not its first argument
        with pytest.raises(ValueError, match=f"{name}.* finite"):
            LifParams(**{name: bad})

    def test_one_resistive_injection_per_neuron(self):
        drive = np.full(3, 1.19)
        spec = NetworkSpec(neurons=(LifParams(), LifParams()), injections=(
            AnalogInjection(1, drive, 1e6),
            AnalogInjection(1, drive, 1e6, InjectionSection(mode="trigger")),
            AnalogInjection(1, drive, 1e6)))
        with pytest.raises(ValueError, match="neuron 1 has two resistive injections"):
            Simulation(spec, DT)
        Simulation(spec.with_injections(spec.injections[:2]), DT)  # one each

    def test_synapse_range_checked(self):
        spec = NetworkSpec(neurons=(LifParams(),),
                           synapses=(SynapseSpec(0, 5, 1e-9),))
        with pytest.raises(ValueError, match="out of range"):
            Simulation(spec, DT)


class TestQuantize:
    def test_zero(self):
        assert quantize_weight(0.0, 1e-9) == 0.0

    def test_clamps_at_63(self):
        assert quantize_weight(100e-9, 1e-9) == pytest.approx(63e-9)
        assert quantize_weight(-100e-9, 1e-9) == pytest.approx(-63e-9)

    def test_round_half_away_from_zero(self):
        assert quantize_weight(10.5e-9, 1e-9) == pytest.approx(11e-9)
        assert quantize_weight(-10.5e-9, 1e-9) == pytest.approx(-11e-9)

    def test_requires_positive_lsb(self):
        with pytest.raises(ValueError):
            quantize_weight(1e-9, 0.0)

    def test_w_lsb_snaps_built_weights(self):
        plain = jeffress.build(jeffress.JeffressConfig(n_stages=4))
        lsb = 2e-8
        snapped = jeffress.build(jeffress.JeffressConfig(n_stages=4, w_lsb=lsb))
        before = [s.weight for s in plain.spec.synapses]
        after = [s.weight for s in snapped.spec.synapses]
        assert after == [quantize_weight(w, lsb) for w in before]
        assert after != before
        assert [(s.pre, s.post) for s in snapped.spec.synapses] == \
            [(s.pre, s.post) for s in plain.spec.synapses]
        # the detector check sees the snapped weight: 0.7 w_fire rounds up
        # to one step of 2.2e-7 A, above the single-spike firing weight
        with pytest.raises(ValueError, match="coincidence_weight"):
            jeffress.build(jeffress.JeffressConfig(n_stages=4, w_lsb=2.2e-7))


class TestSpikeRecord:
    def test_csv_export(self, tmp_path):
        rec = SpikeRecord(2, [1.5e-6], [1])
        path = tmp_path / "spikes.csv"
        rec.to_csv(path)
        assert path.read_text().splitlines() == ["time_s,neuron_id",
                                                 "0.000001500,1"]


def test_trace_csv_export(tmp_path):
    rec, traces = run(single_neuron(), 1e-6, DT, record_traces=[0])
    path = tmp_path / "traces.csv"
    traces.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_s,neuron_id,v_volts,i_syn_amps"
    assert len(lines) == 12  # 10 steps + initial sample + header
