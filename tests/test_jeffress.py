"""Topology, calibration, weight tuning and the ITD/angle mathematics."""

import dataclasses
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from itdloc import jeffress, readout
from itdloc.jeffress import (
    CalibrationError,
    GeometryParams,
    JeffressConfig,
    angular_resolution,
    build,
    calibrate_stage_delay,
    detector_to_itd,
    itd_from_distances,
    planewave_angle,
    single_spike_fire_weight,
    tune_chain_weight,
    woodworth_angle,
    woodworth_itd,
)
from itdloc.lif import ExternalSpike, LifParams, NetworkSpec, Simulation, run

from conftest import DT


class TestBuild:
    def test_spec_cannot_be_replaced(self, default_net):
        # the spec is derived from the config, never given
        with pytest.raises(TypeError):
            dataclasses.replace(default_net, spec=default_net.spec)

    def test_builds_of_one_config_are_equal(self, default_net):
        twin = build(JeffressConfig())
        assert twin is not default_net
        assert twin == default_net and hash(twin) == hash(default_net)
        assert twin != build(JeffressConfig(left_first_index=False))

    def test_counts_for_default_size(self, default_net):
        assert default_net.spec.n_neurons == 3 * 50 + 2 == 152
        # 2 entry synapses + 2*(N-1) chain links + 2N coincidence inputs
        assert len(default_net.spec.synapses) == 2 + 2 * 49 + 2 * 50 == 200

    def test_minimal_network_simulates(self):
        net = build(JeffressConfig(n_stages=2))
        assert net.spec.n_neurons == 8
        rec, _ = run(net.spec, 1e-4, DT)
        assert len(rec) == 0

    def test_rejects_single_stage(self):
        with pytest.raises(ValueError):
            JeffressConfig(n_stages=1)

    def test_rejects_detector_firing_weight(self):
        w_fire = single_spike_fire_weight(LifParams())
        with pytest.raises(ValueError, match="lone chain"):
            build(JeffressConfig(coincidence_weight=1.1 * w_fire))

    def test_rejects_nonpropagating_chain_weight(self):
        w_fire = single_spike_fire_weight(LifParams())
        with pytest.raises(ValueError, match="cannot propagate"):
            build(JeffressConfig(chain_weight=0.9 * w_fire))

    def test_describe_layout(self, default_net):
        text = default_net.describe()
        assert "input_left=0" in text
        assert "input_right=1" in text
        assert "detectors=102..151" in text
        assert text.count("->") == 200

    def test_describe_reports_built_weights(self):
        net = build(JeffressConfig(w_lsb=2e-8))
        lines = net.describe().splitlines()
        table = {line.split(" w=")[0]: line.split(" w=")[1] for line in lines
                 if " w=" in line}
        assert f"chain_weight={table['0->2']}" in lines
        assert f"coincidence_weight={table['2->102']}" in lines
        assert table["0->2"] == "4.000000e-07"
        assert net.chain_weight != net.config.chain_weight

    @pytest.mark.parametrize("left_first_index", [True, False])
    def test_chains_link_in_firing_order(self, left_first_index):
        net = build(JeffressConfig(n_stages=5,
                                   left_first_index=left_first_index))
        links = {(s.pre, s.post) for s in net.spec.synapses}
        for side, head in (("left", net.input_left), ("right", net.input_right)):
            order = net.chain_order(side)
            assert (head, order[0]) in links
            assert all((a, b) in links for a, b in zip(order, order[1:]))
        # the left chain fires up the detector positions with the flag set,
        # the right chain down them; clearing it mirrors both
        up, down = net.left_chain, net.right_chain[::-1]
        if not left_first_index:
            up, down = net.left_chain[::-1], net.right_chain
        assert net.chain_order("left") == up
        assert net.chain_order("right") == down
        with pytest.raises(ValueError, match="side"):
            net.chain_order("middle")

    def test_id_layout_deterministic(self, default_net):
        assert default_net.left_chain == tuple(range(2, 52))
        assert default_net.right_chain == tuple(range(52, 102))
        assert default_net.detectors == tuple(range(102, 152))


class TestCalibration:
    def test_default_network_hits_3_8us(self, default_net):
        cal = calibrate_stage_delay(default_net, DT)
        assert cal.stage_delay_mean == pytest.approx(3.8e-6, abs=0.05e-6)
        assert cal.stage_delay_std == pytest.approx(0.0, abs=1e-9)

    def test_first_differences_length(self, default_net):
        cal = calibrate_stage_delay(default_net, DT)
        assert len(cal.stage_delays) == default_net.n_stages - 1

    def test_delay_decreases_with_weight(self):
        w_fire = single_spike_fire_weight(LifParams())
        delays = []
        for factor in (1.5, 2.5, 4.0):
            net = build(JeffressConfig(n_stages=8, chain_weight=factor * w_fire))
            delays.append(calibrate_stage_delay(net, DT).stage_delay_mean)
        assert delays[0] > delays[1] > delays[2]

    def test_stage_delay_against_dense_dt_reference(self):
        w_fire = single_spike_fire_weight(LifParams())
        net = build(JeffressConfig(n_stages=6, chain_weight=2.0 * w_fire))
        coarse = calibrate_stage_delay(net, DT).stage_delay_mean
        dense = calibrate_stage_delay(net, DT / 5).stage_delay_mean
        assert abs(coarse - dense) <= DT

    def test_two_stage_network_single_delay(self):
        net = build(JeffressConfig(n_stages=2))
        cal = calibrate_stage_delay(net, DT)
        assert len(cal.stage_delays) == 1
        assert cal.stage_delay_mean == pytest.approx(3.8e-6, abs=0.1e-6)


def stepped_calibration(net, dt):
    """The calibration stepped whole: the network run from rest for the
    calibration window with one spike into the left chain head, the stage
    spike times read off the record. Returns the CalibrationResult, or the
    CalibrationError message calibrate_stage_delay gives."""
    order = net.chain_order("left")
    spec = NetworkSpec(net.spec.neurons, net.spec.synapses, external_spikes=[
        ExternalSpike(jeffress._T_INJECT, order[0], net.chain_weight)])
    record, _ = run(spec, jeffress._T_INJECT
                    + net.n_stages * jeffress._WINDOW_PER_STAGE, dt)
    times = []
    for stage, nid in enumerate(order):
        fired = record.times[record.ids == nid]
        if fired.size != 1:
            return (f"chain stage {stage} (neuron {nid}) never fired"
                    if fired.size == 0 else
                    f"chain stage {stage} (neuron {nid}) fired {fired.size} times")
        times.append(fired[0])
    deltas = np.diff(times)
    return jeffress.CalibrationResult(tuple(float(d) for d in deltas),
                                      float(np.mean(deltas)), float(np.std(deltas)))


@contextmanager
def simulated_sizes():
    """The size of every network jeffress simulates inside the block; a
    JeffressNetwork.spec read there fails."""
    sizes = []

    class Sized(Simulation):
        def __init__(self, spec, dt):
            sizes.append(spec.n_neurons)
            super().__init__(spec, dt)

    def no_spec(net):
        raise AssertionError("the network's spec was built")

    with mock.patch.object(jeffress, "Simulation", Sized), \
            mock.patch.object(jeffress.JeffressNetwork, "spec", property(no_spec)):
        yield sizes


def calibrated(net, dt):
    """calibrate_stage_delay's result or CalibrationError message, and the
    size of every network it simulated."""
    with simulated_sizes() as sizes:
        try:
            return calibrate_stage_delay(net, dt), sizes
        except CalibrationError as exc:
            return str(exc), sizes


# neuron constants whose clamp may lift with most of a kick left (t_ref of
# a few us), so that a chain neuron can fire twice, as well as ones whose
# clamp outlasts any kick (the default 500 us); a slow PSP and a weight
# near the firing weight put a stage past the 30 us per stage window
_PARAMS = st.builds(LifParams, tau_m=st.floats(5e-6, 120e-6),
                    tau_syn=st.floats(5e-6, 120e-6),
                    t_ref=st.sampled_from([1e-6, 2e-6, 5e-6, 20e-6, 5e-4]))


class TestChainWalk:
    """calibrate_stage_delay walks the chain from its head: a one-neuron
    probe where the head cannot fire twice, the head alone stepped over the
    window otherwise. Either way it equals the stepped calibration, and it
    simulates no network wider than one neuron."""

    @settings(max_examples=40, deadline=None)
    @given(params=_PARAMS,
           factor=st.floats(1.0005, 1.02) | st.floats(1.05, 8.0),
           n_stages=st.integers(2, 12), dt=st.sampled_from([1e-7, 5e-8, 2e-8]),
           w_lsb=st.sampled_from([None, 2e-8]), left_first=st.booleans())
    def test_walk_equals_stepped_calibration(self, params, factor, n_stages,
                                             dt, w_lsb, left_first):
        w = factor * single_spike_fire_weight(params)
        try:
            net = build(JeffressConfig(n_stages=n_stages, chain_weight=w,
                                       neuron_params=params, w_lsb=w_lsb,
                                       left_first_index=left_first))
        except ValueError:  # the quantized chain weight cannot propagate
            assume(False)
        fast, sizes = calibrated(net, dt)
        reference = stepped_calibration(net, dt)
        assert set(sizes) <= {1}
        assert fast == reference  # every field, each stage delay exactly

    def test_stage_that_can_fire_again_is_stepped(self):
        # a 2 us clamp lifts with most of the kick left: the head fires
        # again, which only stepping shows
        p = LifParams(t_ref=2e-6)
        net = build(JeffressConfig(n_stages=4, neuron_params=p,
                                   chain_weight=3 * single_spike_fire_weight(p)))
        message, sizes = calibrated(net, DT)
        assert message == "chain stage 0 (neuron 2) fired 3 times"
        assert message == stepped_calibration(net, DT)
        assert sizes == [1]  # the head alone, over the window

    def test_stage_past_the_window_never_fired(self):
        # a stage delay of over 60 us: stage 1 fires after the 125 us window
        p = LifParams(tau_m=100e-6, tau_syn=100e-6)
        net = build(JeffressConfig(n_stages=4, neuron_params=p,
                                   chain_weight=1.0005 * single_spike_fire_weight(p)))
        message, sizes = calibrated(net, DT)
        assert message == "chain stage 1 (neuron 3) never fired"
        assert message == stepped_calibration(net, DT)
        assert set(sizes) == {1}

    def test_coarse_dt_for_the_inputs_refused(self):
        # the chain neurons allow dt = 0.1 us, the input neurons do not
        net = build(JeffressConfig(
            n_stages=3, input_neuron_params=LifParams(tau_m=5e-7, tau_syn=5e-7)))
        with pytest.raises(ValueError, match="too coarse"):
            calibrate_stage_delay(net, DT)

    @settings(max_examples=20, deadline=None)
    @given(params=_PARAMS, factor=st.floats(1.02, 400.0),
           dt=st.sampled_from([1e-7, 5e-8]))
    def test_probe_equals_stepped_probe_network(self, params, factor, dt):
        # the tuner's probe: the whole steps D each stage of a bare 9-stage
        # chain network stepped whole takes, or no D where it does not
        # propagate
        w = factor * single_spike_fire_weight(params)
        net = build(JeffressConfig(
            n_stages=jeffress._PROBE_STAGES, chain_weight=w, neuron_params=params,
            coincidence_weight=0.5 * single_spike_fire_weight(params)))
        reference = stepped_calibration(net, dt)
        with simulated_sizes() as sizes:
            try:
                d = jeffress._chain_walk(
                    params, w, dt, range(jeffress._PROBE_STAGES))[1]
            except CalibrationError:
                d = None
        assert set(sizes) <= {1}
        if isinstance(reference, str):
            assert d is None
        else:
            assert {round(x / dt) for x in reference.stage_delays} == {d}

    def test_tune_and_calibrate_simulate_at_most_two_neurons(self):
        # a 5 us clamp lets a chain neuron kicked hard fire twice, as the
        # tuner's strongest bracket weight does: the tuner reads the target
        # step's band off the PSP, so it tunes as at the default clamp, and
        # its check and the calibration step the head alone
        p = LifParams(t_ref=5e-6)
        with simulated_sizes() as sizes:
            w = tune_chain_weight(3.8e-6, p, DT)
            cal = calibrate_stage_delay(build(JeffressConfig(
                neuron_params=p, chain_weight=w)), DT)
        assert f"{w:.6e}" == "4.124536e-07"
        assert w == tune_chain_weight(3.8e-6, LifParams(), DT)
        assert cal.stage_delay_mean == pytest.approx(3.8e-6, abs=1e-12)
        assert max(sizes) == 1


class TestKickFireStep:
    def test_slow_membrane_steps_only_to_the_crossing(self):
        # with tau_m = 1 s the PSP peaks after about 1,670 steps, and a
        # quarter of max(tau_m, tau_syn) / dt is 2.5 million steps: the
        # first run ends one step past the closed-form crossing, so a kick
        # that fires steps D + 1 steps, and D is the stepper's
        params = LifParams(tau_m=1.0)
        w = 1.5 * single_spike_fire_weight(params)
        with mock.patch.object(
                jeffress.Simulation, "run", autospec=True,
                side_effect=Simulation.run) as runs:
            d = jeffress.kick_fire_step(params, w, DT)
        steps = [round(call.args[1] / DT) for call in runs.call_args_list]
        assert steps == [d + 1]
        record, _ = run(NetworkSpec((params,), external_spikes=(
            ExternalSpike(0.0, 0, w),)), (d + 10) * DT, DT)
        assert round(record.times[0] / DT) == d

    @pytest.mark.parametrize("factor", [0.3, 0.7, 1.2, 3.0])
    def test_one_run_to_the_crossing(self, factor):
        # a kick that fires is stepped in one run, to one step past the
        # closed-form crossing, and gives the step of one run past its
        # peak; a kick whose closed-form PSP peaks below threshold is not
        # stepped at all
        params = LifParams()
        w = factor * single_spike_fire_weight(params)
        with mock.patch.object(jeffress.Simulation, "run", autospec=True,
                               side_effect=Simulation.run) as runs:
            d = jeffress.kick_fire_step(params, w, DT)
        steps = [round(call.args[1] / DT) for call in runs.call_args_list]
        record, _ = run(NetworkSpec((params,), external_spikes=(
            ExternalSpike(0.0, 0, w),)), 200 * DT, DT)
        assert d == (round(record.times[0] / DT) if len(record) else None)
        if d is None:
            assert steps == []
        else:
            assert len(steps) == 1 and steps[0] >= d

    def test_slow_membrane_that_never_fires_is_not_stepped(self):
        # with tau_m = 1 s, half the firing weight peaks far below
        # threshold after about 1,670 steps: the closed form says so
        params = LifParams(tau_m=1.0)
        w = 0.5 * single_spike_fire_weight(params)
        with simulated_sizes() as sizes:
            assert jeffress.kick_fire_step(params, w, DT) is None
        assert sizes == []

    # each example's weight is bisected so that the stepped membrane's
    # peak lies within 1e-11 V of threshold: the closed form cannot tell
    # whether it fires, so the kick is stepped
    @settings(max_examples=60, deadline=None)
    @given(tau_m=st.floats(2e-6, 40e-6), tau_syn=st.none() | st.floats(2e-6, 40e-6),
           factor=st.floats(0.3, 400.0), dt=st.sampled_from([1e-7, 5e-8, 2e-8]))
    @example(tau_m=15e-6, tau_syn=None, factor=0.9966703703510573, dt=1e-7)
    @example(tau_m=15e-6, tau_syn=5e-6, factor=0.9950145790498935, dt=5e-8)
    def test_equals_a_long_stepped_run(self, tau_m, tau_syn, factor, dt):
        # one run, or none where the closed-form PSP peaks more than
        # _MARGIN below threshold, gives the first spike of a run well past
        # the kick's peak; tau_syn None is tau_m, the default network's
        # case, and up to 400x the firing weight spans the tuner's bracket
        params = LifParams(tau_m=tau_m, tau_syn=tau_m if tau_syn is None else tau_syn)
        w = factor * single_spike_fire_weight(params)
        with simulated_sizes() as sizes:
            d = jeffress.kick_fire_step(params, w, dt)
        n = math.ceil(max(params.tau_m, params.tau_syn) / dt) + 10
        record, traces = run(NetworkSpec((params,), external_spikes=(
            ExternalSpike(0.0, 0, w),)), n * dt, dt, record_traces=[0])
        assert d == (round(record.times[0] / dt) if len(record) else None)
        peak = traces.v[0].max()  # a kick that fires resets the membrane
        if not len(record) and peak < params.v_thresh - 2 * jeffress._MARGIN:
            assert sizes == []
        else:
            assert sizes == [1]


class TestClosedFormStep:
    """kick_fire_step's closed-form PSP sets the length of its one run: one
    step past the boundary where it passes threshold by _MARGIN, else two
    past the kick's peak; a kick whose membrane comes within _MARGIN of
    threshold is left to the stepper."""

    # each example's weight is bisected so that the stepped membrane's
    # peak lies within 1e-11 V of threshold: the kick must be stepped
    @settings(max_examples=60, deadline=None)
    @given(tau_m=st.floats(2e-6, 40e-6), tau_syn=st.none() | st.floats(2e-6, 40e-6),
           factor=st.floats(0.3, 400.0), dt=st.sampled_from([1e-7, 5e-8, 2e-8]))
    @example(tau_m=15e-6, tau_syn=None, factor=0.9966703703510573, dt=1e-7)
    @example(tau_m=15e-6, tau_syn=5e-6, factor=0.9950145790498935, dt=5e-8)
    def test_answers_as_a_long_stepped_run(self, tau_m, tau_syn, factor, dt):
        # tau_syn None is tau_m, the default network's case; 1.02x to 400x
        # the firing weight is the tuner's bracket
        params = LifParams(tau_m=tau_m, tau_syn=tau_m if tau_syn is None else tau_syn)
        w = factor * single_spike_fire_weight(params)
        with mock.patch.object(jeffress.Simulation, "run", autospec=True,
                               side_effect=Simulation.run) as runs:
            d = jeffress.kick_fire_step(params, w, dt)
        steps = [round(call.args[1] / dt) for call in runs.call_args_list]
        kicks = (ExternalSpike(0.0, 0, w),)
        n = math.ceil(max(params.tau_m, params.tau_syn) / dt) + 10
        record, _ = run(NetworkSpec((params,), external_spikes=kicks), n * dt, dt)
        first = round(record.times[0] / dt) if len(record) else None
        # the same membrane with threshold out of reach: the values the
        # stepper compares, up to its first spike
        free = dataclasses.replace(params, v_thresh=1e6)
        _, traces = run(NetworkSpec((free,), external_spikes=kicks), n * dt, dt,
                        record_traces=[0])
        seen = traces.v[0][:n + 1 if first is None else first + 1]
        # a stepped value within 1e-10 V of threshold puts the closed
        # form's within _MARGIN of it: the kick is stepped
        if (np.abs(seen - params.v_thresh) < 1e-10).any():
            assert len(steps) == 1
        if first is not None:
            assert len(steps) == 1 and steps[0] > first
        assert d == first


def stepped_tune(target_delay, params, dt):
    """The tuner's bisection with each midpoint probed by stepping: one
    neuron kicked once at rest, run to past the target's step d, fires on
    d (found), before it (too strong) or not yet (too weak)."""
    d, w_fire = round(target_delay / dt), single_spike_fire_weight(params)
    lo, hi = 1.02 * w_fire, 400.0 * w_fire
    for _ in range(jeffress._MAX_ITER):
        mid = 0.5 * (lo + hi)
        record, _ = run(NetworkSpec((params,), external_spikes=(
            ExternalSpike(0.0, 0, mid),)), (d + 2) * dt, dt)
        first = round(record.times[0] / dt) if len(record) else math.inf
        if first == d:
            return mid
        lo, hi = (mid, hi) if first > d else (lo, mid)
    return None


class TestTuner:
    def test_only_the_calibration_steps(self):
        # the tuner reads its band off one closed-form PSP and steps one
        # kick, the check of the weight it found; the calibration that
        # follows steps its one kick
        with simulated_sizes() as sizes:
            w = tune_chain_weight(3.8e-6, LifParams(), DT)
        assert sizes == [1]
        with simulated_sizes() as sizes:
            calibrate_stage_delay(build(JeffressConfig(chain_weight=w)), DT)
        assert sizes == [1]

    @pytest.mark.parametrize("target_us", [round(1 + k / 10, 1) for k in range(71)])
    def test_closed_form_probes_tune_as_stepped_ones(self, target_us):
        # every target from 1.0 to 8.0 us at the defaults: the band read off
        # the closed-form PSP stops the bisection on the midpoint at which
        # a stepped probe first fires on the target step
        target = target_us * 1e-6
        assert tune_chain_weight(target, LifParams(), DT) == stepped_tune(
            target, LifParams(), DT)

    def test_bracket_weight_that_fires_twice_does_not_refuse(self):
        # the bracket's strongest weight fires twice under a 2 us clamp;
        # the 8 us step's band lies below it and tunes (a 5 us clamp at
        # 3.8 us: TestChainWalk)
        p = LifParams(t_ref=2e-6)
        w = tune_chain_weight(8e-6, p, DT)
        assert w == stepped_tune(8e-6, p, DT)
        cal = calibrate_stage_delay(build(JeffressConfig(neuron_params=p,
                                                         chain_weight=w)), DT)
        assert round(cal.stage_delay_mean / DT) == 80

    @pytest.mark.parametrize("target", [100e-6, 1.0])
    def test_target_past_the_window_refused_unbuilt(self, target):
        # with tau_m = 1 s a 100 us stage delay is a weight in the bracket,
        # but the 9-stage probe chain outlasts its 270 us window: refused
        # before the PSP is built or a neuron stepped, as is a 1 s target
        params = LifParams(tau_m=1.0)
        with mock.patch.object(jeffress, "_lone_psp",
                               wraps=jeffress._lone_psp) as psps, \
                simulated_sizes() as sizes:
            with pytest.raises(ValueError, match="achievable range"):
                tune_chain_weight(target, params, DT)
        assert psps.call_count == 0 and sizes == []

    @pytest.mark.parametrize("target", [math.inf, math.nan, -math.inf])
    def test_non_finite_target_refused(self, target):
        with pytest.raises(ValueError, match="finite and > 0"):
            tune_chain_weight(target, LifParams(), DT)

    def test_hits_target_within_tolerance(self, default_net):
        w = tune_chain_weight(3.8e-6, LifParams(), DT)
        net = build(JeffressConfig(chain_weight=w))
        cal = calibrate_stage_delay(net, DT)
        assert abs(cal.stage_delay_mean - 3.8e-6) < 0.1e-6

    def test_unachievable_target_reports_range(self):
        with pytest.raises(ValueError, match="achievable range"):
            tune_chain_weight(1e-9, LifParams(), DT)

    def test_coarse_dt_reported(self):
        # dt = 10 us is above min(tau_m, tau_syn) / 10 = 1.5 us
        with pytest.raises(ValueError, match="too coarse"):
            tune_chain_weight(3.8e-6, LifParams(), 1e-5)

    def test_larger_target_gives_smaller_weight(self):
        w_fast = tune_chain_weight(3e-6, LifParams(), DT)
        w_slow = tune_chain_weight(6e-6, LifParams(), DT)
        assert w_slow < w_fast

    @pytest.mark.parametrize("target_us", [3.0, 3.7, 3.9])
    def test_lands_on_the_nearest_whole_step(self, target_us):
        # a probe one step off is one step off, not within a tolerance of
        # one step that the last bit of a float mean decides
        w = tune_chain_weight(target_us * 1e-6, LifParams(), DT)
        cal = calibrate_stage_delay(build(JeffressConfig(chain_weight=w)), DT)
        assert round(cal.stage_delay_mean / DT) == round(target_us * 10)

    @settings(max_examples=15, deadline=None)
    @given(tau_m=st.floats(2e-6, 30e-6), tau_syn=st.floats(2e-6, 30e-6),
           factor=st.floats(1.02, 400.0), dt=st.sampled_from([1e-7, 5e-8]))
    def test_tuned_weight_fires_on_the_target_step(self, tau_m, tau_syn,
                                                   factor, dt):
        # a target on the step grid that some bracket weight reaches: the
        # tuned weight's kick fires on exactly that step, and it is the
        # stepped bisection's weight
        params = LifParams(tau_m=tau_m, tau_syn=tau_syn)
        w_fire = single_spike_fire_weight(params)
        assume(jeffress.fires_once(params, 400.0 * w_fire))
        try:
            _, d = jeffress._chain_walk(params, factor * w_fire, dt,
                                        range(jeffress._PROBE_STAGES))
        except CalibrationError:  # the probe chain outlasts its window
            assume(False)
        target = d * dt
        w = tune_chain_weight(target, params, dt)
        assert jeffress.kick_fire_step(params, w, dt) == round(target / dt)
        assert w == stepped_tune(target, params, dt)


class TestDetectorMap:
    def test_endpoint_values(self):
        assert detector_to_itd(0, 3.8e-6, 50) == pytest.approx(186.2e-6)
        assert detector_to_itd(49, 3.8e-6, 50) == pytest.approx(-186.2e-6)

    def test_center_is_zero(self):
        assert detector_to_itd(24.5, 3.8e-6, 50) == pytest.approx(0.0)

    def test_linear_with_step_minus_two_delta(self):
        delta = 3.8e-6
        vals = [detector_to_itd(j, delta, 50) for j in range(50)]
        assert np.allclose(np.diff(vals), -2 * delta)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            detector_to_itd(50, 3.8e-6, 50)
        with pytest.raises(ValueError):
            detector_to_itd(-0.5, 3.8e-6, 50)

    def test_orientation_roundtrip(self, default_net, stage_delay):
        flipped = build(JeffressConfig(left_first_index=False))
        for j in (0.0, 10.25, 24.5, 49.0):
            itd = default_net.detector_itd(j, stage_delay)
            assert default_net.itd_to_position(itd, stage_delay) == pytest.approx(j)
            assert flipped.detector_itd(j, stage_delay) == -itd
            assert flipped.itd_to_position(-itd, stage_delay) == pytest.approx(j)


class TestGeometryMath:
    def test_itd_from_distances_zero(self):
        assert itd_from_distances(1.0, 1.0) == 0.0

    def test_half_space_constant(self):
        itd = itd_from_distances(0.051, 0.0, 343.0)
        assert itd == pytest.approx(148.7e-6, abs=0.05e-6)
        assert itd == pytest.approx(149e-6, abs=0.5e-6)

    def test_antisymmetric(self):
        assert itd_from_distances(2.0, 1.4) == -itd_from_distances(1.4, 2.0)

    def test_woodworth_zero(self):
        assert woodworth_itd(0.0, GeometryParams()) == 0.0

    def test_woodworth_quarter_turn(self):
        g = GeometryParams(mic_distance=0.051)
        expect = 0.0255 / 343.0 * (math.pi / 2 + 1.0)
        assert woodworth_itd(math.pi / 2, g) == pytest.approx(expect, rel=1e-12)
        assert woodworth_itd(math.pi / 2, g) == pytest.approx(191.1e-6, abs=0.1e-6)

    def test_woodworth_odd(self):
        g = GeometryParams()
        for theta in (0.3, 0.9, 1.5):
            assert woodworth_itd(-theta, g) == -woodworth_itd(theta, g)

    def test_woodworth_strictly_increasing(self):
        g = GeometryParams()
        thetas = np.linspace(-math.pi / 2, math.pi / 2, 201)
        vals = [woodworth_itd(t, g) for t in thetas]
        assert np.all(np.diff(vals) > 0)

    def test_woodworth_domain(self):
        with pytest.raises(ValueError):
            woodworth_itd(2.0, GeometryParams())

    def test_inverse_roundtrip(self):
        g = GeometryParams()
        rng = np.random.default_rng(9)
        for theta in rng.uniform(-math.pi / 2, math.pi / 2, 100):
            back = woodworth_angle(woodworth_itd(theta, g), g)
            assert back == pytest.approx(theta, abs=1e-6)

    def test_inverse_residual_below_1ns(self):
        g = GeometryParams()
        for itd in np.linspace(-0.9, 0.9, 19) * woodworth_itd(math.pi / 2, g):
            theta = woodworth_angle(itd, g)
            assert abs(woodworth_itd(theta, g) - itd) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(fraction=st.floats(-1.0, 1.0),
           mic_distance=st.floats(0.01, 1.0))
    @example(fraction=0.0, mic_distance=0.051)
    @example(fraction=1.0, mic_distance=0.051)
    def test_inverse_matches_brentq_property(self, fraction, mic_distance):
        # the Brent root woodworth_angle took from scipy.optimize before it
        # bisected; the bisection is exactly odd and maps 0 to 0
        from scipy.optimize import brentq

        g = GeometryParams(mic_distance=mic_distance)
        itd = fraction * woodworth_itd(math.pi / 2, g)
        ref = brentq(lambda th: woodworth_itd(th, g) - itd,
                     -math.pi / 2, math.pi / 2, xtol=1e-10)
        theta = woodworth_angle(itd, g)
        assert theta == pytest.approx(ref, abs=1e-10)
        assert woodworth_angle(-itd, g) == -theta
        assert math.copysign(1.0, woodworth_angle(0.0, g)) == 1.0  # not -0.0

    def test_inverse_out_of_range(self):
        with pytest.raises(ValueError):
            woodworth_angle(1e-3, GeometryParams())

    @pytest.mark.parametrize("itd", [math.nan, math.inf, -math.inf])
    def test_inverse_not_finite(self, itd):
        # the range check refuses these; the bisection alone would
        # return 0 for a NaN
        with pytest.raises(ValueError, match="half-space maximum"):
            woodworth_angle(itd, GeometryParams())

    def test_human_one_degree(self):
        # a 0.0875 m head radius maps 8.9 us to one degree of azimuth
        g = GeometryParams(mic_distance=0.175)
        assert g.resolved_head_radius() == pytest.approx(0.0875)
        theta = woodworth_angle(8.9e-6, g)
        assert math.degrees(theta) == pytest.approx(1.0, abs=0.01)

    def test_planewave_zero(self):
        assert planewave_angle(0.0, 0.051) == 0.0

    def test_planewave_edges(self):
        # the rounded 149 us half-space constant overshoots arcsin's domain
        # by 0.2 percent and is clamped to the pole
        assert planewave_angle(149e-6, 0.051) == pytest.approx(math.pi / 2)
        assert planewave_angle(-149e-6, 0.051) == pytest.approx(-math.pi / 2)

    def test_planewave_odd(self):
        assert planewave_angle(-80e-6, 0.051) == -planewave_angle(80e-6, 0.051)

    def test_planewave_out_of_range(self):
        with pytest.raises(ValueError):
            planewave_angle(200e-6, 0.051)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_planewave_not_finite(self, bad):
        # a NaN fails every comparison, so the range check alone would
        # let it through to the clamp
        for args in ((bad, 0.051, 343.0), (80e-6, bad, 343.0),
                     (80e-6, 0.051, bad)):
            with pytest.raises(ValueError, match="finite"):
                planewave_angle(*args)

    def test_angular_resolution_report(self):
        res = angular_resolution(3.8e-6, GeometryParams(mic_distance=0.051))
        assert math.degrees(res["per_stage_rad"]) == pytest.approx(1.46, abs=0.01)
        assert res["per_detector_rad"] == pytest.approx(2 * res["per_stage_rad"])

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            GeometryParams(mic_distance=0.0)
        with pytest.raises(ValueError):
            GeometryParams(head_radius=0.0)
        # unset, the head radius follows the spacing; set, it wins
        g = GeometryParams(mic_distance=0.08)
        assert g.head_radius is None
        assert g.resolved_head_radius() == pytest.approx(0.04)
        g = GeometryParams(mic_distance=0.08, head_radius=0.1)
        assert g.resolved_head_radius() == 0.1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["mic_distance", "head_radius",
                                      "speed_of_sound"])
    def test_geometry_refuses_non_finite(self, name, bad):
        # a NaN spacing would give a NaN resolution and half-space maximum
        with pytest.raises(ValueError, match=f"{name}.* > 0 and finite"):
            GeometryParams(**{name: bad})


def _head_spike_direction(net, offset, t0=20e-6, duration=0.8e-3):
    """Direction read out after spiking both chain heads `offset` apart
    (positive offset delays the right head)."""
    w = net.chain_weight
    spec = NetworkSpec(
        neurons=net.spec.neurons,
        synapses=net.spec.synapses,
        external_spikes=(
            ExternalSpike(t0, net.chain_order("left")[0], w),
            ExternalSpike(t0 + offset, net.chain_order("right")[0], w),
        ),
    )
    rec, _ = run(spec, duration, DT)
    events = readout.poll_loop(rec, readout.ReadoutSection(), net.detectors,
                               t_end=duration)
    assert events, "head spikes produced no detection"
    return events[0].direction


class TestCoincidence:
    def test_single_chain_never_fires_detectors(self, default_net):
        rng = np.random.default_rng(31)
        w_fire = single_spike_fire_weight(LifParams())
        for _ in range(5):
            jitter = 1.0 + rng.uniform(-0.1, 0.1)
            cfg = JeffressConfig(coincidence_weight=jitter * 0.7 * w_fire)
            net = build(cfg)
            spec = NetworkSpec(
                neurons=net.spec.neurons, synapses=net.spec.synapses,
                external_spikes=(ExternalSpike(5e-6, net.chain_order("left")[0],
                                               cfg.chain_weight),),
            )
            rec, _ = run(spec, 0.6e-3, DT)
            detector_spikes = sum(1 for _, i in rec.events()
                                  if i in set(net.detectors))
            assert detector_spikes == 0
            assert len(rec) == net.n_stages  # the whole chain still fired

    def test_offset_shifts_winner_one_detector_per_two_delta(
            self, default_net, stage_delay):
        center = _head_spike_direction(default_net, 0.0)
        assert center == pytest.approx(24.5, abs=0.5)
        plus = _head_spike_direction(default_net, +2 * stage_delay)
        minus = _head_spike_direction(default_net, -2 * stage_delay)
        assert plus - center == pytest.approx(+1.0, abs=0.25)
        assert minus - center == pytest.approx(-1.0, abs=0.25)
        # consistent with the detector map: the tuned ITD of the winner
        # equals the injected right-head delay
        assert default_net.detector_itd(plus, stage_delay) == pytest.approx(
            +2 * stage_delay, abs=stage_delay)

    def test_orientation_flip_mirrors_pattern(self, default_net, stage_delay):
        flipped = build(JeffressConfig(left_first_index=False))
        offset = 4 * stage_delay
        d_default = _head_spike_direction(default_net, offset)
        d_flipped = _head_spike_direction(flipped, offset)
        n = default_net.n_stages
        assert d_default + d_flipped == pytest.approx(n - 1, abs=1.0)
