"""Differential test of the stepper against a scalar reference: random small
networks must give the same spike ids and times, and membranes within
1e-12 V, including a run split over two calls. Stacked networks must step
each copy exactly as it steps alone."""

import math
import warnings

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from itdloc.lif import (
    AnalogInjection,
    ExternalSpike,
    LifParams,
    NetworkSpec,
    Simulation,
    SynapseSpec,
    stack,
)

DT = 1e-7


def reference_run(spec: NetworkSpec, dt: float, n_steps: int):
    """Step the documented model one neuron at a time: each step, synaptic
    currents decay by exp(-dt / tau_syn) and take the deliveries due (spikes
    of the previous step, external spikes at step floor(t / dt)); the
    membrane then follows the exact solution with current, held injection
    samples (trace[int(t * rate)], padded with the last one) and leak frozen
    over the step. A neuron fires at the step end when it reaches v_thresh
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
                if inj.mode == "resistive":
                    g = 1.0 / (inj.r_src * p.c_m)
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


@st.composite
def networks(draw):
    """A NetworkSpec of 1-6 neurons with random synapses, resistive and
    trigger injections on short traces, and external spikes; plus a run
    length in steps and a split point."""
    neurons = tuple(draw(st.lists(_params, min_size=1, max_size=6)))
    n = len(neurons)
    ids = st.integers(0, n - 1)
    n_steps = draw(st.integers(2, 300))
    synapses = draw(st.lists(st.builds(SynapseSpec, ids, ids, _floats(-2e-7, 6e-7)),
                             max_size=10))
    injections = draw(st.lists(st.builds(
        AnalogInjection, ids,
        st.lists(_floats(0.4, 1.6), min_size=1, max_size=12).map(np.array),
        _floats(1e5, 2e7), r_src=_floats(5e4, 5e5),
        mode=st.sampled_from(("resistive", "trigger"))), max_size=3))
    external = draw(st.lists(st.builds(ExternalSpike, _floats(0.0, n_steps * DT), ids,
                                       _floats(-2e-7, 6e-7)), max_size=4))
    spec = NetworkSpec(neurons=neurons, synapses=synapses, injections=injections,
                       external_spikes=external)
    return spec, n_steps, draw(st.integers(1, n_steps - 1))


# the explain phase, which reruns a failure with parts of the example
# varied, ran for minutes at gigabytes of memory on this property
@settings(max_examples=40, deadline=None, phases=set(Phase) - {Phase.explain})
@given(networks())
def test_stepper_matches_reference(case):
    spec, n_steps, split = case
    n = spec.n_neurons
    times, ids, v_ref = reference_run(spec, DT, n_steps)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short traces are padded by design
        sim = Simulation(spec, DT)
        rec, tr = sim.run(n_steps * DT, record_traces=range(n))
        split_sim = Simulation(spec, DT)
        _, tr_a = split_sim.run(split * DT, record_traces=range(n))
        split_rec, tr_b = split_sim.run((n_steps - split) * DT,
                                        record_traces=range(n))

    assert rec.ids.tolist() == ids
    assert rec.times.tolist() == times
    v = np.stack([tr.v[i] for i in range(n)], axis=1)
    assert np.max(np.abs(v - v_ref)) <= 1e-12
    # two calls continue exactly where one call of the summed length goes
    assert split_rec.ids.tolist() == ids
    assert split_rec.times.tolist() == times
    assert np.array_equal(tr_b.times, tr.times[split:])
    for i in range(n):
        assert np.array_equal(np.concatenate([tr_a.v[i], tr_b.v[i][1:]]), tr.v[i])


@settings(max_examples=25, deadline=None, phases=set(Phase) - {Phase.explain})
@given(st.lists(networks(), min_size=2, max_size=3))
def test_stacked_copies_step_as_alone(cases):
    specs = [spec for spec, _, _ in cases]
    n_steps = min(steps for _, steps, _ in cases)
    split = min(cases[0][2], n_steps - 1)
    stacked = stack(specs)
    assert stacked.n_neurons == sum(spec.n_neurons for spec in specs)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # short traces are padded by design
        sim = Simulation(stacked, DT)
        _, tr_a = sim.run(split * DT, record_traces=range(sim.n))
        rec, tr_b = sim.run((n_steps - split) * DT, record_traces=range(sim.n))
        off = 0
        for spec in specs:
            alone, tr = Simulation(spec, DT).run(
                n_steps * DT, record_traces=range(spec.n_neurons))
            mine = (rec.ids >= off) & (rec.ids < off + spec.n_neurons)
            assert (rec.ids[mine] - off).tolist() == alone.ids.tolist()
            assert rec.times[mine].tolist() == alone.times.tolist()
            for i in range(spec.n_neurons):
                v = np.concatenate([tr_a.v[off + i], tr_b.v[off + i][1:]])
                assert np.array_equal(v, tr.v[i])
            off += spec.n_neurons
