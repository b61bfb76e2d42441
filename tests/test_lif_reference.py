"""Differential tests against a scalar reference: random small networks
must give the stepper's spike ids and times, and membranes within 1e-12 V,
and a run split into random chunks, cut where clamps lift, must give the
one-call run's spikes and traces bit for bit, as must the per-step loop
the block stepper replaced, whether a block steps as rows or as float
columns; the input screen must give the stepper's input spikes; and the
event engine's probe tables must be those the reference steps out, or
absent where a value the stepper compares lies within _MARGIN of
threshold or of a tie."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from itdloc import harness, jeffress, lif
from itdloc.config import InjectionSection, StimulusSection
from itdloc.harness import TrialConfig
from itdloc.jeffress import JeffressConfig, build
from itdloc.lif import (
    AnalogInjection,
    ExternalSpike,
    LifParams,
    NetworkSpec,
    Simulation,
    SynapseSpec,
)

from conftest import stepped_trial

DT = 1e-7
STEPS = 11000  # the default run, 1.1 ms at DT


def reference_run(spec: NetworkSpec, dt: float, n_steps: int):
    """Step the documented model one neuron at a time: each step, synaptic
    currents decay by exp(-dt / tau_syn) and take the deliveries due (spikes
    of the previous step, external spikes at step floor(t / dt)); the
    membrane then follows the exact solution with current, held injection
    samples (trace[int(t * rate)], the last one held past the end) and leak
    frozen over the step. A neuron fires at the step end when it reaches v_thresh
    or a trigger sample it receives does; firing on step k clamps it to
    v_reset for steps k + 1 .. k + ceil(t_ref / dt), a whole number of
    steps fixed up front (the 1e-9 keeps an on-grid t_ref exact). Returns
    spike times, spike ids and the membrane history, one row per step
    boundary."""
    ps = spec.neurons
    n = len(ps)
    v = [p.v_leak for p in ps]
    i_syn, pending = [0.0] * n, [0.0] * n
    ref_steps = [math.ceil(p.t_ref / dt - 1e-9) for p in ps]
    free_from = [0] * n
    ext = sorted(spec.external_spikes, key=lambda e: (e.t, e.target))
    times, ids, history = [], [], [list(v)]
    for k in range(n_steps):
        t, t_next = k * dt, (k + 1) * dt
        for e in ext:
            if math.floor(e.t / dt + 1e-9) == k:
                pending[e.target] += e.weight
        fired = []
        for i, p in enumerate(ps):
            i_syn[i] = i_syn[i] * math.exp(-dt / p.tau_syn) + pending[i]
            pending[i] = 0.0
            rate = 1.0 / p.tau_m
            drive = p.v_leak / p.tau_m + i_syn[i] / p.c_m
            trigger = False
            for inj in spec.injections:
                if inj.target != i:
                    continue
                u = inj.trace[min(int(t * inj.sample_rate + 1e-6), inj.trace.size - 1)]
                if inj.coupling.mode == "resistive":
                    g = 1.0 / (inj.coupling.r_src * p.c_m)
                    rate, drive = rate + g, drive + g * u
                else:
                    trigger = trigger or u >= p.v_thresh
            v_inf = drive / rate
            v[i] = v_inf + (v[i] - v_inf) * math.exp(-dt * rate)
            if free_from[i] > k:
                v[i] = p.v_reset
            elif v[i] >= p.v_thresh or trigger:
                fired.append(i)
        for i in fired:
            v[i] = ps[i].v_reset
            free_from[i] = k + 1 + ref_steps[i]
            times.append(t_next)
            ids.append(i)
            for s in spec.synapses:
                if s.pre == i:
                    pending[s.post] += s.weight
        history.append(list(v))
    return times, ids, np.array(history)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_params = st.builds(LifParams, tau_m=_floats(1e-6, 3e-5), tau_syn=_floats(1e-6, 3e-5),
                    v_leak=_floats(0.0, 0.9), v_thresh=_floats(1.0, 1.2),
                    v_reset=_floats(0.0, 0.9), t_ref=_floats(1e-7, 5e-6),
                    c_m=_floats(1e-12, 5e-12))
_couplings = st.builds(InjectionSection, _floats(5e4, 5e5),
                       st.sampled_from(("resistive", "trigger")))


@st.composite
def networks(draw):
    """A NetworkSpec of 1-6 neurons with random synapses, resistive and
    trigger injections on short traces (at most one resistive per neuron),
    and external spikes; plus a run length in steps."""
    neurons = tuple(draw(st.lists(_params, min_size=1, max_size=6)))
    n = len(neurons)
    ids = st.integers(0, n - 1)
    n_steps = draw(st.integers(2, 300))
    synapses = draw(st.lists(st.builds(SynapseSpec, ids, ids, _floats(-2e-7, 6e-7)),
                             max_size=10))
    injections = draw(st.lists(st.builds(
        AnalogInjection, ids,
        st.lists(_floats(0.4, 1.6), min_size=1, max_size=12).map(np.array),
        _floats(1e5, 2e7), _couplings), max_size=3,
        # triggers may share a neuron, resistive injections may not
        unique_by=lambda inj: (inj.target if inj.coupling.mode == "resistive"
                               else id(inj))))
    external = draw(st.lists(st.builds(ExternalSpike, _floats(0.0, n_steps * DT), ids,
                                       _floats(-2e-7, 6e-7)), max_size=4))
    spec = NetworkSpec(neurons=neurons, synapses=synapses, injections=injections,
                       external_spikes=external)
    return spec, n_steps


def _clamps(spec: NetworkSpec, times, ids) -> list:
    """(spike step, lift step, neuron) of each reference spike: the neuron
    is clamped from the spike step up to, not including, the lift step."""
    steps = [round(t / DT) for t in times]
    return [(s, s + math.ceil(spec.neurons[i].t_ref / DT - 1e-9), i)
            for s, i in zip(steps, ids)]


# the explain phase, which reruns a failure with parts of the example
# varied, ran for minutes at gigabytes of memory on this property
@settings(max_examples=40, deadline=None, phases=set(Phase) - {Phase.explain})
@given(networks(), st.data())
def test_stepper_matches_reference(case, data):
    spec, n_steps = case
    n = spec.n_neurons
    times, ids, v_ref = reference_run(spec, DT, n_steps)
    clamps = _clamps(spec, times, ids)
    if clamps:  # external spikes that land on a clamped neuron
        landing = st.sampled_from(clamps).flatmap(lambda c: st.builds(
            ExternalSpike, st.integers(c[0], c[1] - 1).map(lambda s: s * DT),
            st.just(c[2]), _floats(-2e-7, 6e-7)))
        extra = data.draw(st.lists(landing, max_size=3), label="on clamped")
        spec = replace(spec, external_spikes=spec.external_spikes + tuple(extra))
        times, ids, v_ref = reference_run(spec, DT, n_steps)
        clamps = _clamps(spec, times, ids)
    # chunk boundaries: anywhere, and where a clamp lifts or inside a clamp
    cut = st.integers(1, n_steps - 1)
    if clamps:
        cut = st.one_of(cut, st.sampled_from(clamps).flatmap(
            lambda c: st.one_of(st.just(c[1]), st.integers(c[0] + 1, c[1]))))
    cuts = data.draw(st.lists(cut, min_size=1, max_size=6), label="cuts")
    bounds = [0, *sorted({c for c in cuts if 0 < c < n_steps}), n_steps]

    rec, tr = Simulation(spec, DT).run(n_steps * DT, record_traces=range(n))
    chunked = Simulation(spec, DT)
    parts = [chunked.run((b - a) * DT, record_traces=range(n))
             for a, b in zip(bounds, bounds[1:])]

    assert rec.ids.tolist() == ids
    assert rec.times.tolist() == times
    v = np.stack([tr.v[i] for i in range(n)], axis=1)
    assert np.max(np.abs(v - v_ref)) <= 1e-12
    # the calls continue exactly where one call of the summed length goes
    chunked_rec = parts[-1][0]
    assert chunked_rec.ids.tolist() == ids
    assert chunked_rec.times.tolist() == times
    for a, (_, part) in zip(bounds, parts):
        assert np.array_equal(part.times, tr.times[a:a + part.times.size])
        for i in range(n):
            assert np.array_equal(part.v[i], tr.v[i][a:a + part.times.size])
            assert np.array_equal(part.i_syn[i],
                                  tr.i_syn[i][a:a + part.times.size])


_NET = build(JeffressConfig())  # only its input ids reach the drive


def _at_threshold(params: LifParams, injection: InjectionSection) -> float:
    """The held sample whose resting point is the threshold: the membrane
    creeps up to it, and rounding decides whether and when it fires."""
    if injection.mode == "trigger":
        return params.v_thresh
    g = 1.0 / (injection.r_src * params.c_m)
    return (params.v_thresh * (1.0 / params.tau_m + g)
            - params.v_leak / params.tau_m) / g


@st.composite
def screened_inputs(draw, couplings=_couplings):
    """Input params, an injection section drawn from couplings, a step, a
    sample rate, two conditioned channels and a run length. Rates need not
    divide 1 / dt, nor 1 / dt be whole, clips may end before the run, and
    samples may sit at or near the level whose resting point is the
    threshold."""
    params = draw(_params)
    injection = draw(couplings)
    rate = draw(st.one_of(st.sampled_from((44100, 48000, 192000, 8_000_000)),
                          st.integers(1000, 30_000_000)))
    sample = _floats(0.2, 1.6)
    if draw(st.booleans()):
        level = _at_threshold(params, injection)
        sample = st.one_of(sample, st.sampled_from(
            (level, level - 1e-10, level + 1e-10, level - 1e-3, level + 1e-3)))
    dt = draw(st.sampled_from((DT, 7e-8, 3e-8)))
    n_samples = draw(st.integers(1, 60))
    assume(round(n_samples * round(1 / dt) / rate) >= 1)  # resamples to some
    rows = draw(st.lists(st.lists(sample, min_size=n_samples, max_size=n_samples),
                         min_size=2, max_size=2))
    return params, injection, dt, rate, np.array(rows), draw(st.integers(1, 3000))


def _stepped_input_spikes(params, injection, dt, rate, samples, n_steps) -> list:
    """The first two spike steps of each input, stepped on the drive that
    run_trial_detailed resamples from the samples."""
    cfg = TrialConfig(net=_NET, stimulus=StimulusSection(duration=n_steps * dt),
                      injection=injection, dt=dt)
    spec = NetworkSpec((params, params),
                       injections=harness._injections(cfg, samples, rate))
    rec, _ = Simulation(spec, dt).run(n_steps * dt)
    return [[round(t / dt) for t in rec.times[rec.ids == i]][:2] for i in (0, 1)]


def _screen_matches_stepper(case):
    params, injection, dt, rate, samples, n_steps = case
    screened = lif.injected_spike_steps(params, injection, dt, n_steps,
                                        samples, rate)
    if screened != [None, None]:  # None: a row's membrane came within 1 nV
        for row, stepped in zip(screened, _stepped_input_spikes(*case)):
            assert row is None or row == stepped


@settings(max_examples=120, deadline=None, phases=set(Phase) - {Phase.explain})
@given(screened_inputs())
def test_input_screen_matches_stepper(case):
    _screen_matches_stepper(case)


# r_src * c_m below dt / 2.7 at every dt drawn: one step decays the
# membrane by d < 0.067, so d ** 128 < 1e-150 and a wave's later decay
# powers are zero
@settings(max_examples=40, deadline=None, phases=set(Phase) - {Phase.explain})
@given(screened_inputs(st.builds(InjectionSection, _floats(100.0, 2000.0),
                                 st.just("resistive"))))
def test_input_screen_matches_stepper_on_a_fast_membrane(case):
    params, injection, dt = case[:3]
    rate = 1.0 / params.tau_m + 1.0 / (injection.r_src * params.c_m)
    assert math.exp(-dt * rate) ** 128 < 1e-150
    _screen_matches_stepper(case)


@settings(max_examples=60, deadline=None, phases=set(Phase) - {Phase.explain})
@given(screened_inputs(), st.integers(0, 2))
def test_input_screen_refuses_only_the_row_near_threshold(case, at):
    # a row held at the level whose resting point is the threshold creeps
    # to within 1 nV of it over 3000 steps, so its result is None; every
    # other row gives what its own single-row call gives
    params, injection, dt, rate, samples, _ = case
    rows = np.insert(samples, at, _at_threshold(params, injection), axis=0)
    screened = lif.injected_spike_steps(params, injection, dt, 3000, rows, rate)
    assert screened[at] is None
    assert screened[:at] + screened[at + 1:] == [
        lif.injected_spike_steps(params, injection, dt, 3000, row, rate)[0]
        for row in samples]


@pytest.mark.parametrize("mode", ["resistive", "trigger"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_input_screen_at_the_range_edge(default_net, stage_delay, sign, mode):
    # a clap at ITD +-(N - 1) delta, noiseless and noisy: the screen gives
    # the input spikes that the full stepped trial records
    cfg = TrialConfig(net=default_net, injection=InjectionSection(mode=mode))
    itd = sign * (default_net.n_stages - 1) * stage_delay
    n_steps = round(cfg.duration / DT)
    for seed, noise in ((None, 0.0), (3, 0.07)):
        cond, fs, _ = harness._frontend(cfg, [(itd, seed)], noise)
        screened = lif.injected_spike_steps(
            default_net.config.input_params, cfg.injection, DT, n_steps, cond,
            fs)
        record = stepped_trial(itd, seed, cfg, noise_amplitude=noise).record
        assert screened == [[round(t / DT) for t in record.times[record.ids == i]][:2]
                            for i in (default_net.input_left,
                                      default_net.input_right)]
        assert all(screened)


def test_input_screen_refuses_a_membrane_at_threshold():
    p = LifParams()
    for mode in ("resistive", "trigger"):
        injection = InjectionSection(mode=mode)
        samples = np.full((2, 10), _at_threshold(p, injection))
        assert lif.injected_spike_steps(p, injection, DT, 3000, samples,
                                        192000) == [None, None]
        # 1 mV higher it fires, and the screen gives the stepper's spikes
        samples += 1e-3
        screened = lif.injected_spike_steps(p, injection, DT, 3000, samples,
                                            192000)
        assert screened == _stepped_input_spikes(p, injection, DT, 192000,
                                                 samples, 3000)
        assert screened[0]


def reference_tables(net, dt: float = DT) -> tuple:
    """(tables, near, lead). tables: the chain delay D, the widest coincident
    offset W and the detector delays g by offset, stepped out by
    reference_run: one chain neuron kicked from rest, one detector kicked
    once, then a detector kicked at 0 and at each offset up to 3 * peak
    until the first offset past the lone PSP's peak that stays silent; None
    if the lone detector fires or no such offset is silent. near: the
    smallest |v - v_thresh| among the values the stepper compares, the lone
    membrane up to its peak + 1 and each copy up to its first crossing;
    lead: the lone membrane's two highest values apart. Each unit is stepped
    with its threshold out of reach, so that the trace keeps the value
    that crosses, and fires where that value first reaches v_thresh."""
    params = net.config.neuron_params
    free = replace(params, v_thresh=np.finfo(float).max)  # LifParams is finite
    peak = math.ceil(max(params.tau_m, params.tau_syn) / dt)

    def kicked(kicks, n_steps):
        spec = NetworkSpec((free,), external_spikes=[
            ExternalSpike(step * dt, 0, w) for step, w in kicks])
        v = reference_run(spec, dt, n_steps)[2][:, 0]
        fired = np.flatnonzero(v >= params.v_thresh)[:1].tolist()
        return fired, v[:fired[0] + 1] if fired else v

    chain, _ = kicked([(0, net.chain_weight)], 4 * peak)
    lone, v = kicked([(0, net.coincidence_weight)], 4 * peak)
    top = int(np.argmax(v))
    near = np.abs(v[:top + 2] - params.v_thresh).min()
    lead = float(np.diff(np.sort(v)[-2:])[0])
    if lone:
        return None, near, lead
    gaps = []
    for off in range(3 * peak + 1):
        fired, seen = kicked([(0, net.coincidence_weight),
                              (off, net.coincidence_weight)], off + top + 3)
        near = min(near, np.abs(seen - params.v_thresh).min())
        if not fired and off >= top:
            return (chain[0] if chain else None, off - 1, gaps), near, lead
        gaps.append(fired[0] - off if fired else -1)
    return None, near, lead


def _tables(tables) -> tuple | None:
    return tables and (*tables[:2], tables[2].tolist())


@pytest.mark.parametrize("w_lsb", [None, 2e-8], ids=["default", "quantized"])
def test_probe_tables_match_reference(w_lsb):
    net = build(JeffressConfig(w_lsb=w_lsb))
    stage, reach, fire, lone = jeffress.probe_tables(net, DT, STEPS)
    assert (stage, reach, fire.tolist()) == reference_tables(net)[0]
    assert lone is True  # a default run: one chain fires no detector
    if w_lsb is None:
        assert (stage, reach) == (38, 308)


@pytest.mark.parametrize("t_ref, n_steps, lone", [
    (5e-4, 11000, True), (2e-5, 3500, False)], ids=["default", "short-clamp"])
def test_lone_flag_bounds_the_densest_kicks(t_ref, n_steps, lone):
    # one chain neuron kicks its detector at most every ceil(t_ref / dt) + 1
    # steps; kicked that often over the whole run, a stepped detector stays
    # _MARGIN below threshold where the flag holds, and passes it where the
    # flag does not (the 2e-5 s clamp lets 18 kicks pile up)
    params = LifParams(t_ref=t_ref)
    net = build(JeffressConfig(neuron_params=params))
    assert jeffress.probe_tables(net, DT, n_steps)[3] is lone
    apart = math.ceil(t_ref / DT - 1e-9) + 1
    free = replace(params, v_thresh=np.finfo(float).max)
    spec = NetworkSpec((free,), external_spikes=[
        ExternalSpike(s * DT, 0, net.coincidence_weight)
        for s in range(0, n_steps, apart)])
    v = reference_run(spec, DT, n_steps)[2][:, 0]
    assert bool(v.max() < params.v_thresh - jeffress._MARGIN) is lone


@st.composite
def probed_networks(draw):
    """A network whose units fire once, on random neuron params with
    tau_m == tau_syn or not, a coincidence weight of 0.5-0.95 of the
    single-spike weight, quantized or not; plus a step. The taus are short
    so that the reference steps few offsets."""
    tau_m = draw(_floats(1e-6, 4e-6))
    tau_syn = tau_m if draw(st.booleans()) else draw(_floats(1e-6, 4e-6))
    params = LifParams(tau_m=tau_m, tau_syn=tau_syn,
                       v_leak=draw(_floats(0.0, 0.9)),
                       v_thresh=draw(_floats(1.0, 1.2)),
                       v_reset=draw(_floats(0.0, 0.9)),
                       t_ref=draw(_floats(1e-5, 5e-4)),
                       c_m=draw(_floats(1e-12, 5e-12)))
    w_fire = jeffress.single_spike_fire_weight(params)
    w_lsb = draw(st.one_of(st.none(), st.integers(5, 20).map(lambda n: w_fire / n)))
    try:
        net = build(JeffressConfig(
            chain_weight=draw(_floats(1.1, 3.0)) * w_fire,
            coincidence_weight=draw(_floats(0.5, 0.95)) * w_fire,
            neuron_params=params, w_lsb=w_lsb))
    except ValueError:  # quantized past the single-spike weight
        assume(False)
    # no chain neuron (one kick) and no detector (two kicks) fires twice
    assume(jeffress.fires_once(params, max(abs(net.chain_weight),
                                           2 * abs(net.coincidence_weight))))
    return net, draw(st.sampled_from((DT, 7e-8, 3e-8)))


@settings(max_examples=40, deadline=None, phases=set(Phase) - {Phase.explain})
@given(probed_networks())
def test_probe_tables_match_reference_on_random_networks(case):
    # the tables are the reference's, or there are none where a value the
    # stepper compares, or the lone peak's lead, is inside the margin (the
    # closed form's values are the stepper's to well under _MARGIN)
    net, dt = case
    tables = _tables(jeffress.probe_tables(net, dt, STEPS))
    reference, near, lead = reference_tables(net, dt)
    assert tables == reference or (
        tables is None and min(near, lead) < 2 * jeffress._MARGIN)


@pytest.fixture()
def stepped(monkeypatch):
    """The weight of each kick_fire_step call from here on."""
    calls, kick_fire_step = [], jeffress.kick_fire_step

    def counting(params, weight, dt):
        calls.append(weight)
        return kick_fire_step(params, weight, dt)
    monkeypatch.setattr(jeffress, "kick_fire_step", counting)
    return calls


@pytest.mark.parametrize("case", ["peak-tie", "one-kick-fires"])
def test_probe_tables_match_reference_at_the_edges(case, stepped):
    # at tau = dt / ln(12 / 11) the lone PSP is as high 11 steps after its
    # kick as 12, up to rounding: the stepper gives a peak step, but the
    # closed form cannot, so there are no tables and the trials are
    # stepped; at dt = tau / 10, 0.98 of the single-spike weight
    # (continuous time) fires a detector on one kick, so there are no
    # tables in either; neither steps a kick
    tau = DT / math.log(12 / 11) if case == "peak-tie" else 1e-6
    params = LifParams(tau_m=tau, tau_syn=tau)
    w_fire = jeffress.single_spike_fire_weight(params)
    net = build(JeffressConfig(
        chain_weight=2 * w_fire, neuron_params=params,
        coincidence_weight=(0.5 if case == "peak-tie" else 0.98) * w_fire))
    assert jeffress.probe_tables(net, DT, STEPS) is None
    assert stepped == []
    reference, _, lead = reference_tables(net)
    if case == "peak-tie":  # D = 3, W = 10 stepped out
        assert reference[:2] == (3, 10) and lead < 1e-15
    else:
        assert reference is None


@pytest.mark.parametrize("w_lsb", [None, 2e-8], ids=["default", "quantized"])
def test_probe_tables_step_every_copy_inside_the_margin(w_lsb, stepped,
                                                        jeffress_margin):
    # a margin under half the smallest distance of a compared value to
    # threshold keeps the tables; one past it, but inside the lone peak's
    # lead, puts a copy in doubt, and a 10 V margin the lone peak itself:
    # then there are no tables, so every trial is stepped, and no kick is
    net = build(JeffressConfig(w_lsb=w_lsb))
    tables, near, lead = reference_tables(net)
    assert 1.5 * near < lead
    jeffress_margin(near / 2)
    assert _tables(jeffress.probe_tables(net, DT, STEPS)) == tables
    for margin in (1.5 * near, 10.0):
        stepped.clear()
        jeffress_margin(margin)
        assert jeffress.probe_tables(net, DT, STEPS) is None
        assert stepped == []


class StepOracle(Simulation):
    """Simulation.run as one update per step: the stepper's loop before it
    went in blocks, kept as the oracle that the block loop must equal bit
    for bit. It reads the arrays Simulation.__init__ builds and keeps its
    own copy of the step state's updates."""

    def _emit_step(self, ids, step: int) -> None:
        for i in ids.tolist():
            self.v[i] = self._v_reset[i]
            free = step + self._ref_steps[i]
            self._free_from[i] = free
            self._refr[i] = True
            self._lift = min(self._lift, free)
            self._ev_times.append(step * self.dt)
            self._ev_ids.append(i)
            lo, hi = self._syn_ptr[i], self._syn_ptr[i + 1]
            if hi > lo:
                np.add.at(self._pending, self._syn_post[lo:hi],
                          self._syn_w[lo:hi])
                self._pending_any = True

    def run(self, duration: float, record_traces=()) -> tuple:
        n_steps = int(round(duration / self.dt))
        k0 = self._k
        times = np.arange(k0, k0 + n_steps + 1) * self.dt
        traced = sorted(set(record_traces))
        traces = lif.TraceSet(times=times,
                              v={i: np.empty(n_steps + 1) for i in traced},
                              i_syn={i: np.empty(n_steps + 1) for i in traced})
        for i in traced:
            traces.v[i][0] = self.v[i]
            traces.i_syn[i][0] = self.i_syn[i]

        res_targets, trig_targets = self._res_targets, self._trig_targets
        if res_targets.size:
            drives = lif._held(self._resistive, times) * self._res_gain
        if trig_targets.size:
            above = lif._held(self._triggers, times) >= self._v_thresh[trig_targets]
        recorded = [(i, traces.v[i], traces.i_syn[i]) for i in traced]

        v, i_syn, pending = self.v, self.i_syn, self._pending
        t1, buf = np.empty(self.n), np.empty(self.n)
        fired = np.empty(self.n, dtype=bool)
        refr, free_from = self._refr, self._free_from
        decay_syn, gain_syn = self._decay_syn, self._gain_syn
        decay_v, v_rest = self._decay_v, self._v_leak_eff
        v_reset, v_thresh = self._v_reset, self._v_thresh
        ext, ext_steps, n_ext = self._ext, self._ext_steps, len(self._ext)
        ext_ptr, live, lift = self._ext_ptr, self._syn_live, self._lift
        for j in range(n_steps):
            k = k0 + j
            while ext_ptr < n_ext and ext_steps[ext_ptr] <= k:
                e = ext[ext_ptr]
                pending[e.target] += e.weight
                self._pending_any = True
                ext_ptr += 1

            if live:
                i_syn *= decay_syn
            if self._pending_any:
                i_syn += pending
                pending.fill(0.0)
                self._pending_any = False
                live = True

            np.subtract(v, v_rest, out=t1)
            t1 *= decay_v
            t1 += v_rest
            if live:
                np.multiply(i_syn, gain_syn, out=buf)
                t1 += buf
            if res_targets.size:
                t1[res_targets] += drives[j]

            if k >= lift:
                np.greater(free_from, k, out=refr)
                clamped = free_from[refr]
                lift = int(clamped.min()) if clamped.size else math.inf
            if lift < math.inf:
                np.copyto(t1, v_reset, where=refr)
            np.greater_equal(t1, v_thresh, out=fired)
            if trig_targets.size:
                hit = trig_targets[above[j]]
                fired[hit[~refr[hit]]] = True

            v, t1 = t1, v
            if np.count_nonzero(fired):
                self.v, self._lift = v, lift
                self._emit_step(np.flatnonzero(fired), k + 1)
                lift = self._lift
            for i, tv, ts in recorded:
                tv[j + 1] = v[i]
                ts[j + 1] = i_syn[i]

        self.v, self._k = v, k0 + n_steps
        self._ext_ptr, self._syn_live, self._lift = ext_ptr, live, lift
        return lif.SpikeRecord(self.n, self._ev_times, self._ev_ids), traces


@st.composite
def block_networks(draw):
    """A network from networks() plus what decides where a block of steps
    ends: two trigger injections on one neuron, a resistively driven neuron
    that also receives synapses, external spikes on random steps and clamps
    of 1-80 steps, so that some lift inside a would-be block of 64."""
    spec, n_steps = draw(networks())
    n = spec.n_neurons
    ids = st.integers(0, n - 1)
    neurons = tuple(replace(p, t_ref=draw(st.integers(1, 80)) * DT)
                    if draw(st.booleans()) else p for p in spec.neurons)
    trace = st.lists(_floats(0.4, 1.6), min_size=1, max_size=12).map(np.array)
    rate = _floats(1e5, 2e7)
    injections = list(spec.injections)
    if draw(st.booleans()):  # two triggers on one neuron
        target = draw(ids)
        injections += [AnalogInjection(target, draw(trace), draw(rate),
                                       InjectionSection(mode="trigger"))
                       for _ in range(2)]
    synapses = list(spec.synapses)
    driven = {inj.target for inj in injections if inj.coupling.mode == "resistive"}
    if draw(st.booleans()):  # a resistive target that receives synapses
        free = [i for i in range(n) if i not in driven]
        target = draw(st.sampled_from(sorted(driven) or free))
        if target not in driven:
            injections.append(AnalogInjection(target, draw(trace), draw(rate)))
        synapses += draw(st.lists(st.builds(SynapseSpec, ids, st.just(target),
                                            _floats(-2e-7, 6e-7)),
                                  min_size=1, max_size=3))
    external = spec.external_spikes + tuple(draw(st.lists(st.builds(
        ExternalSpike, st.integers(0, n_steps - 1).map(lambda s: s * DT), ids,
        _floats(-2e-7, 6e-7)), max_size=6)))
    return NetworkSpec(neurons, synapses, injections, external), n_steps


@settings(max_examples=60, deadline=None, phases=set(Phase) - {Phase.explain})
@given(block_networks(), st.lists(st.integers(1, 399), max_size=4))
# calibrate's one-neuron kick, and one neuron both driven and kicked, whose
# rows add the drive apart
@example((NetworkSpec((LifParams(),), external_spikes=(
    ExternalSpike(0.0, 0, 4.124536e-07),)), 39), [])
@example((NetworkSpec((LifParams(),), injections=(
    AnalogInjection(0, np.array([0.5, 1.4, 0.9]), 1e6),), external_spikes=(
    ExternalSpike(0.0, 0, 4.124536e-07),)), 60), [25])
def test_block_stepper_matches_per_step_oracle(case, cuts):
    _matches_per_step_oracle(case, cuts)


@settings(max_examples=30, deadline=None, phases=set(Phase) - {Phase.explain})
@given(block_networks(), st.lists(st.integers(1, 399), max_size=4))
def test_row_loop_matches_per_step_oracle(case, cuts):
    # these networks are narrow enough to step their columns as floats;
    # stepped as rows, as a wide network is, they give the same bits
    with mock.patch.object(lif, "_FLOAT_COLUMNS", 0):
        _matches_per_step_oracle(case, cuts)


def _matches_per_step_oracle(case, cuts) -> None:
    # whole runs and runs chunked at the same cuts give the oracle's spike
    # ids and times, every traced value and the end state bit for bit
    spec, n_steps = case
    bounds = [0, *sorted({c for c in cuts if c < n_steps}), n_steps]
    sims = Simulation(spec, DT), StepOracle(spec, DT)
    runs = [[sim.run((b - a) * DT, record_traces=range(spec.n_neurons))
             for a, b in zip(bounds, bounds[1:])] for sim in sims]
    for (rec, tr), (want, want_tr) in zip(*runs):
        assert rec.ids.tolist() == want.ids.tolist()
        assert rec.times.tolist() == want.times.tolist()
        for i in range(spec.n_neurons):
            assert tr.v[i].tobytes() == want_tr.v[i].tobytes()
            assert tr.i_syn[i].tobytes() == want_tr.i_syn[i].tobytes()
    got, want = sims
    assert got.v.tobytes() == want.v.tobytes()
    assert got.i_syn.tobytes() == want.i_syn.tobytes()
