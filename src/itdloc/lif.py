"""Deterministic fixed-timestep simulator of current-based LIF neurons with
exponential synapses and direct analog membrane injection.

Time is hardware time in seconds (microsecond-scale constants), voltages in
volts, synaptic weights in amperes. The membrane update is the exact
exponential propagator for inputs frozen over one step, so piecewise-constant
drive is integrated to machine precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

WEIGHT_LEVELS = 63  # signed 6-bit weight range


@dataclass(frozen=True)
class LifParams:
    """Leaky integrate-and-fire neuron constants."""

    tau_m: float = 15e-6
    tau_syn: float = 15e-6
    v_leak: float = 0.5
    v_thresh: float = 1.0
    v_reset: float = 0.3
    t_ref: float = 5e-4
    c_m: float = 2.4e-12

    def __post_init__(self):
        if min(self.tau_m, self.tau_syn, self.t_ref, self.c_m) <= 0:
            raise ValueError("tau_m, tau_syn, t_ref and c_m must be > 0")
        if self.v_reset >= self.v_thresh:
            raise ValueError("v_reset must be below v_thresh")
        if self.v_leak >= self.v_thresh:
            raise ValueError("v_leak must be below v_thresh")


@dataclass(frozen=True)
class SynapseSpec:
    """Directed current synapse: one presynaptic spike adds `weight` amperes
    to the target's synaptic current on the step after the spike."""

    pre: int
    post: int
    weight: float


@dataclass(frozen=True, eq=False)
class AnalogInjection:
    """Continuous voltage drive attached to one neuron's membrane.

    Each sample is held until the next one. In resistive mode the trace
    couples through r_src ohms; in trigger mode the neuron fires whenever
    the trace is at or above its threshold and the neuron is not refractory.
    """

    target: int
    trace: np.ndarray
    sample_rate: float
    r_src: float = 110e3
    mode: str = "resistive"

    def __post_init__(self):
        trace = np.asarray(self.trace, dtype=float).ravel()
        if not np.all(np.isfinite(trace)):
            raise ValueError("injection trace must be finite")
        if trace.size == 0:
            raise ValueError("injection trace is empty")
        if self.r_src <= 0:
            raise ValueError("r_src must be > 0")
        if self.sample_rate <= 0:
            raise ValueError("injection sample_rate must be > 0")
        if self.mode not in ("resistive", "trigger"):
            raise ValueError(f"unknown injection mode {self.mode!r}")
        object.__setattr__(self, "trace", trace)

    @property
    def duration(self) -> float:
        return self.trace.size / self.sample_rate


@dataclass(frozen=True)
class ExternalSpike:
    """Synthetic spike delivered straight into a neuron's synaptic current."""

    t: float
    target: int
    weight: float


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable network description: per-neuron parameters, synapse list,
    analog injections and scheduled external spikes."""

    neurons: tuple
    synapses: tuple = ()
    injections: tuple = ()
    external_spikes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "neurons", tuple(self.neurons))
        object.__setattr__(self, "synapses", tuple(self.synapses))
        object.__setattr__(self, "injections", tuple(self.injections))
        object.__setattr__(self, "external_spikes", tuple(self.external_spikes))

    @property
    def n_neurons(self) -> int:
        return len(self.neurons)

    def with_injections(self, injections) -> "NetworkSpec":
        return replace(self, injections=tuple(injections))


def stack(specs) -> NetworkSpec:
    """Disjoint union of networks as one spec: each network's neuron ids are
    offset by the neurons of the networks before it, so the copies step
    together without interacting and each spikes as it would alone."""
    neurons, synapses, injections, external = [], [], [], []
    for spec in specs:
        off = len(neurons)
        neurons += spec.neurons
        synapses += [SynapseSpec(s.pre + off, s.post + off, s.weight)
                     for s in spec.synapses]
        injections += [replace(inj, target=inj.target + off)
                       for inj in spec.injections]
        external += [replace(e, target=e.target + off)
                     for e in spec.external_spikes]
    return NetworkSpec(neurons, synapses, injections, external)


def quantize_weight(w: float, w_lsb: float) -> float:
    """Snap a weight to the signed 6-bit grid: round(w / w_lsb), half away
    from zero, clamped to +-63 levels."""
    if w_lsb <= 0:
        raise ValueError("w_lsb must be > 0")
    # the 1e-12 absorbs division noise on exactly-half ratios
    k = np.floor(abs(w) / w_lsb + 0.5 + 1e-12)
    k = min(k, WEIGHT_LEVELS)
    return float(np.copysign(k, w) * w_lsb) if w != 0 else 0.0


class SpikeRecord:
    """Time-ordered spike events: parallel arrays of times and neuron ids."""

    def __init__(self, n_neurons: int, times=None, ids=None):
        self.n_neurons = n_neurons
        self.times = np.asarray(times if times is not None else [], dtype=float)
        self.ids = np.asarray(ids if ids is not None else [], dtype=np.int64)

    def __len__(self) -> int:
        return self.times.size

    def events(self):
        """Iterate (time, neuron id) in time order."""
        return zip(self.times.tolist(), self.ids.tolist())

    def spikes_of(self, neuron_id: int) -> np.ndarray:
        return self.times[self.ids == neuron_id]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("time_s,neuron_id\n")
            for t, i in self.events():
                fh.write(f"{t:.9f},{i}\n")


@dataclass
class TraceSet:
    """Recorded membrane and synaptic-current traces for selected neurons."""

    times: np.ndarray
    v: dict
    i_syn: dict

    def to_csv(self, path) -> None:
        ids = sorted(self.v)
        with open(path, "w") as fh:
            fh.write("time_s,neuron_id,v_volts,i_syn_amps\n")
            for k, t in enumerate(self.times):
                for i in ids:
                    fh.write(f"{t:.9f},{i},{self.v[i][k]:.9f},{self.i_syn[i][k]:.6e}\n")


class Simulation:
    """Stepped simulation of one NetworkSpec.

    A single simulation is strictly single-threaded; identical network
    spec, dt and call sequence give bit-identical spike records. The
    NetworkSpec is never mutated, so it may be shared across concurrent
    simulations.
    """

    def __init__(self, spec: NetworkSpec, dt: float):
        n = spec.n_neurons
        if dt <= 0:
            raise ValueError("dt must be > 0")
        if n:
            tau_min = min(min(p.tau_m, p.tau_syn) for p in spec.neurons)
            if dt > tau_min / 10 + 1e-18:
                raise ValueError(
                    f"dt={dt:g} too coarse: must be <= min(tau_m, tau_syn)/10 = {tau_min / 10:g}"
                )
        self.spec = spec
        self.dt = dt
        self.n = n
        self._k = 0  # completed steps

        tau_m = np.array([p.tau_m for p in spec.neurons], dtype=float)
        tau_s = np.array([p.tau_syn for p in spec.neurons], dtype=float)
        c_m = np.array([p.c_m for p in spec.neurons], dtype=float)
        self._v_leak = np.array([p.v_leak for p in spec.neurons], dtype=float)
        self._v_thresh = np.array([p.v_thresh for p in spec.neurons], dtype=float)
        self._v_reset = np.array([p.v_reset for p in spec.neurons], dtype=float)
        self._t_ref = np.array([p.t_ref for p in spec.neurons], dtype=float)

        g_inj = np.zeros(n, dtype=float)
        for inj in spec.injections:
            if not 0 <= inj.target < n:
                raise ValueError(f"injection target {inj.target} out of range")
            if inj.mode == "resistive":
                g_inj[inj.target] += 1.0 / (inj.r_src * c_m[inj.target])
        rate = 1.0 / tau_m + g_inj
        self._decay_syn = np.exp(-dt / tau_s) if n else np.zeros(0)
        self._decay_v = np.exp(-dt * rate) if n else np.zeros(0)
        b = -np.expm1(-dt * rate) / rate if n else np.zeros(0)
        self._gain_syn = b / c_m if n else np.zeros(0)
        v_leak_eff = (self._v_leak / tau_m) / rate if n else np.zeros(0)
        v_leak_eff[g_inj == 0.0] = self._v_leak[g_inj == 0.0]  # exact rest point
        self._v_leak_eff = v_leak_eff

        # per-injection drive gain: weight of the trace sample in the update
        self._resistive = [inj for inj in spec.injections
                           if inj.mode == "resistive"]
        self._res_targets = np.array([inj.target for inj in self._resistive],
                                     dtype=np.int64)
        self._res_gain = np.array(
            [b[inj.target] / (inj.r_src * c_m[inj.target])
             for inj in self._resistive], dtype=float)
        self._triggers = [inj for inj in spec.injections if inj.mode == "trigger"]
        self._trig_targets = np.array([inj.target for inj in self._triggers],
                                      dtype=np.int64)

        # synapses sorted by presynaptic neuron, stably, so each neuron's
        # deliveries keep their spec order; neuron i's are the slice
        # _syn_ptr[i]:_syn_ptr[i + 1]
        for syn in spec.synapses:
            if not (0 <= syn.pre < n and 0 <= syn.post < n):
                raise ValueError(f"synapse {syn.pre}->{syn.post} out of range")
        pre = np.array([syn.pre for syn in spec.synapses], dtype=np.int64)
        order = np.argsort(pre, kind="stable")
        self._syn_post = np.array([syn.post for syn in spec.synapses],
                                  dtype=np.int64)[order]
        self._syn_w = np.array([syn.weight for syn in spec.synapses],
                               dtype=float)[order]
        self._syn_ptr = [0, *np.cumsum(np.bincount(pre, minlength=n)).tolist()]

        ext = sorted(spec.external_spikes, key=lambda e: (e.t, e.target))
        for e in ext:
            if not 0 <= e.target < n:
                raise ValueError(f"external spike target {e.target} out of range")
        self._ext_steps = np.array([int(np.floor(e.t / dt + 1e-9)) for e in ext],
                                   dtype=np.int64)
        self._ext = ext
        self._ext_ptr = 0

        self.v = self._v_leak.copy()
        self.i_syn = np.zeros(n, dtype=float)
        self.refractory_until = np.full(n, -np.inf)
        self._pending = np.zeros(n, dtype=float)
        self._pending_any = False
        self._t1 = np.empty(n, dtype=float)
        self._buf = np.empty(n, dtype=float)
        self._refr = np.empty(n, dtype=bool)
        self._fired = np.empty(n, dtype=bool)

        self._ev_times: list[float] = []
        self._ev_ids: list[int] = []

    def _emit(self, ids, t_spike: float) -> None:
        for i in ids:
            i = int(i)
            self.v[i] = self._v_reset[i]
            self.refractory_until[i] = t_spike + self._t_ref[i]
            self._ev_times.append(t_spike)
            self._ev_ids.append(i)
            lo, hi = self._syn_ptr[i], self._syn_ptr[i + 1]
            if hi > lo:
                np.add.at(self._pending, self._syn_post[lo:hi],
                          self._syn_w[lo:hi])
                self._pending_any = True

    def run(self, duration: float, record_traces=()) -> tuple:
        """Step for `duration` seconds; returns (SpikeRecord, TraceSet or None).

        Consecutive calls continue from the current step. Injection traces
        shorter than the run are padded with their final value and a
        warning is issued.
        """
        if duration <= 0:
            raise ValueError("duration must be > 0")
        n_steps = int(round(duration / self.dt))
        k0 = self._k
        times = np.arange(k0, k0 + n_steps + 1) * self.dt  # step boundaries
        end_t = times[-1]
        for inj in self.spec.injections:
            if inj.duration < end_t - 1e-12:
                warnings.warn(
                    f"injection trace for neuron {inj.target} ends at "
                    f"{inj.duration:.6g}s, before the run end {end_t:.6g}s; "
                    "padding with its final value",
                    stacklevel=2,
                )

        traced = sorted(set(record_traces))
        traces = None
        if traced:
            bad = [i for i in traced if not 0 <= i < self.n]
            if bad:
                raise ValueError(f"trace ids out of range: {bad}")
            traces = TraceSet(
                times=times,
                v={i: np.empty(n_steps + 1) for i in traced},
                i_syn={i: np.empty(n_steps + 1) for i in traced},
            )
            for i in traced:
                traces.v[i][0] = self.v[i]
                traces.i_syn[i][0] = self.i_syn[i]

        def held(injections):
            """The sample each injection holds at each step start of this
            run, one row per step and one column per injection."""
            cols = []
            for inj in injections:
                # the 1e-6 absorbs drift when rates align with dt
                i = (times[:-1] * inj.sample_rate + 1e-6).astype(np.int64)
                cols.append(inj.trace[np.minimum(i, inj.trace.size - 1)])
            return np.stack(cols, axis=1)

        res_targets, trig_targets = self._res_targets, self._trig_targets
        if res_targets.size:
            drives = held(self._resistive) * self._res_gain
        if trig_targets.size:
            above = held(self._triggers) >= self._v_thresh[trig_targets]

        for j in range(n_steps):
            k = k0 + j
            t = k * self.dt
            while (self._ext_ptr < len(self._ext)
                   and self._ext_steps[self._ext_ptr] <= k):
                e = self._ext[self._ext_ptr]
                self._pending[e.target] += e.weight
                self._pending_any = True
                self._ext_ptr += 1

            self.i_syn *= self._decay_syn
            if self._pending_any:
                self.i_syn += self._pending
                self._pending[:] = 0.0
                self._pending_any = False

            t1 = self._t1
            np.subtract(self.v, self._v_leak_eff, out=t1)
            t1 *= self._decay_v
            t1 += self._v_leak_eff
            np.multiply(self.i_syn, self._gain_syn, out=self._buf)
            t1 += self._buf
            if res_targets.size:
                # adds repeated targets one after another, in injection order
                np.add.at(t1, res_targets, drives[j])

            np.greater(self.refractory_until, t, out=self._refr)
            np.copyto(t1, self._v_reset, where=self._refr)
            # a refractory neuron sits at v_reset < v_thresh, so cannot fire
            np.greater_equal(t1, self._v_thresh, out=self._fired)
            if trig_targets.size:
                hit = trig_targets[above[j]]
                self._fired[hit[~self._refr[hit]]] = True

            self.v, self._t1 = t1, self.v
            if self._fired.any():
                self._emit(np.flatnonzero(self._fired), (k + 1) * self.dt)
            self._k = k + 1
            for i in traced:
                traces.v[i][j + 1] = self.v[i]
                traces.i_syn[i][j + 1] = self.i_syn[i]

        return SpikeRecord(self.n, self._ev_times, self._ev_ids), traces

def run(spec: NetworkSpec, duration: float, dt: float, record_traces=()) -> tuple:
    """One-shot simulation of a spec from rest."""
    return Simulation(spec, dt).run(duration, record_traces=record_traces)
