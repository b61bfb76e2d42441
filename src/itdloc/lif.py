"""Deterministic fixed-timestep simulator of current-based LIF neurons with
exponential synapses and direct analog membrane injection.

Time is hardware time in seconds (microsecond-scale constants), voltages in
volts, synaptic weights in amperes. The membrane update is the exact
exponential propagator for inputs frozen over one step, so piecewise-constant
drive is integrated to machine precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

WEIGHT_LEVELS = 63  # signed 6-bit weight range
_STEP_SLACK = 1e-9  # steps; a time on the step grid keeps its step
_MARGIN = 1e-9  # volts; a membrane this near threshold is decided by stepping
_CSV_STEPS = 1024  # steps of a trace CSV formatted and written at a time
_WAVE_STEPS = 128  # steps per row the input screen resolves at once
_BLOCK = 64  # most steps Simulation.run advances before a threshold test
_FLOAT_COLUMNS = 10  # fewer neurons step one column at a time, as floats


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
        if not all(0 < x < math.inf
                   for x in (self.tau_m, self.tau_syn, self.t_ref, self.c_m)):
            raise ValueError("tau_m, tau_syn, t_ref and c_m must be > 0 and finite")
        if not all(map(math.isfinite, (self.v_leak, self.v_thresh, self.v_reset))):
            raise ValueError("v_leak, v_thresh and v_reset must be finite")
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


@dataclass(frozen=True)
class InjectionSection:
    """How a drive reaches a membrane: through r_src ohms, or as a trigger."""

    r_src: float = 110e3
    mode: str = "resistive"

    def __post_init__(self):
        if not 0 < self.r_src < math.inf:
            raise ValueError("r_src must be > 0 and finite")
        if self.mode not in ("resistive", "trigger"):
            raise ValueError(f"unknown injection mode {self.mode!r}")


@dataclass(frozen=True, eq=False)
class AnalogInjection:
    """Continuous voltage drive attached to one neuron's membrane.

    Each sample is held until the next one, the last past the trace's end.
    In resistive mode the trace couples through r_src ohms; in trigger mode
    the neuron fires whenever the trace is at or above its threshold and
    the neuron is not refractory."""

    target: int
    trace: np.ndarray
    sample_rate: float
    coupling: InjectionSection = InjectionSection()

    def __post_init__(self):
        trace = np.asarray(self.trace, dtype=float).ravel()
        if not np.all(np.isfinite(trace)):
            raise ValueError("injection trace must be finite")
        if trace.size == 0:
            raise ValueError("injection trace is empty")
        if self.sample_rate <= 0:
            raise ValueError("injection sample_rate must be > 0")
        object.__setattr__(self, "trace", trace)


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
        for name in ("neurons", "synapses", "injections", "external_spikes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    @property
    def n_neurons(self) -> int:
        return len(self.neurons)

    def with_injections(self, injections) -> "NetworkSpec":
        return replace(self, injections=tuple(injections))


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
            # one template per step, filled from columns taken a chunk of
            # steps at a time; each chunk is written as one string
            row = "".join(f"%s,{i},%s,%s\n" for i in ids)
            for lo in range(0, self.times.size, _CSV_STEPS):
                part = slice(lo, lo + _CSV_STEPS)
                t = [f"{x:.9f}" for x in self.times[part].tolist()]
                cols = [col for i in ids for col in (
                    t, _texts(self.v[i][part], ".9f"),
                    _texts(self.i_syn[i][part], ".6e"))]
                fh.write("".join(row % step for step in zip(*cols)))


def _texts(values, spec: str) -> list:
    """Float values formatted with `spec`, each distinct value once and all
    of them in one call; values are told apart by their bits, so -0.0 keeps
    its sign."""
    bits, index = np.unique(np.asarray(values, dtype=float).view(np.int64),
                            return_inverse=True)
    distinct = bits.view(float).tolist()
    texts = (f"%{spec}\n" * len(distinct) % tuple(distinct)).split("\n")
    return np.array(texts[:-1], dtype=object)[index].tolist()


def _held_index(times, sample_rate, size: int) -> np.ndarray:
    """Index of the trace sample held at each step start times[:-1]; a
    trace of `size` samples holds its last one past its end."""
    # rates may be off the step grid; 1e-6 keeps on-grid samples
    i = (times[:-1] * sample_rate + 1e-6).astype(np.int64)
    return np.minimum(i, size - 1)


def _held(injections, times) -> np.ndarray:
    """The sample each injection holds at each step start times[:-1], one
    row per step and one column per injection."""
    return np.stack([inj.trace[_held_index(times, inj.sample_rate, inj.trace.size)]
                     for inj in injections], axis=1)


def _propagator(tau_m, v_leak, g_inj, dt: float) -> tuple:
    """(decay, b, v_rest) per neuron of the exact one-step update for inputs
    held over the step, v' = decay * (v - v_rest) + v_rest + b * (i_syn +
    u / r_src) / c_m, u the source voltage of resistive injections whose
    1 / (r_src * c_m) sum to g_inj."""
    rate = 1.0 / tau_m + g_inj
    decay = np.exp(-dt * rate)
    b = -np.expm1(-dt * rate) / rate
    v_rest = (v_leak / tau_m) / rate
    v_rest[g_inj == 0.0] = v_leak[g_inj == 0.0]  # exact rest point
    return decay, b, v_rest


def _refractory_steps(params: LifParams, dt: float) -> int:
    """Whole steps a neuron stays clamped after firing: ceil(t_ref / dt)."""
    return math.ceil(params.t_ref / dt - _STEP_SLACK)


def check_dt(neurons, dt: float) -> None:
    """Raise ValueError unless 0 < dt <= min(tau_m, tau_syn) / 10 over the
    given neuron parameters, as a Simulation of them requires."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    tau_min = min((min(p.tau_m, p.tau_syn) for p in neurons), default=math.inf)
    if dt > tau_min / 10 + 1e-18:
        raise ValueError(
            f"dt={dt:g} too coarse: must be <= min(tau_m, tau_syn)/10 = {tau_min / 10:g}"
        )


class Simulation:
    """Stepped simulation of one NetworkSpec.

    A single simulation is strictly single-threaded; identical network
    spec, dt and call sequence give bit-identical spike records. The
    NetworkSpec is never mutated, so several simulations may share it.
    """

    def __init__(self, spec: NetworkSpec, dt: float):
        n = spec.n_neurons
        check_dt(spec.neurons, dt)
        self.spec = spec
        self.dt = dt
        self.n = n
        self._k = 0  # completed steps

        # one row per constant, each contiguous
        tau_m, tau_s, c_m, self._v_leak, self._v_thresh, self._v_reset = np.array(
            [(p.tau_m, p.tau_syn, p.c_m, p.v_leak, p.v_thresh, p.v_reset)
             for p in spec.neurons], dtype=float).reshape(n, 6).T.copy()
        # firing on step k clamps steps k + 1 .. k + ceil(t_ref / dt)
        self._ref_steps = [_refractory_steps(p, dt) for p in spec.neurons]

        g_inj = np.zeros(n, dtype=float)
        for inj in spec.injections:
            if not 0 <= inj.target < n:
                raise ValueError(f"injection target {inj.target} out of range")
            if inj.coupling.mode == "resistive":
                if g_inj[inj.target]:
                    raise ValueError(f"neuron {inj.target} has two resistive injections")
                g_inj[inj.target] = 1.0 / (inj.coupling.r_src * c_m[inj.target])
        self._decay_syn = np.exp(-dt / tau_s)
        self._decay_v, b, self._v_leak_eff = _propagator(tau_m, self._v_leak,
                                                         g_inj, dt)
        self._gain_syn = b / c_m

        # per-injection drive gain: weight of the trace sample in the update
        self._resistive = [inj for inj in spec.injections
                           if inj.coupling.mode == "resistive"]
        self._res_targets = np.array([inj.target for inj in self._resistive],
                                     dtype=np.int64)
        self._res_gain = np.array(
            [b[inj.target] / (inj.coupling.r_src * c_m[inj.target])
             for inj in self._resistive], dtype=float)
        # a driven neuron that no synapse or external spike reaches keeps
        # i_syn at +0.0, and x + 0.0 + d == x + (0.0 + d) for every x, so
        # its drive may join the synaptic term before the membrane's add
        fed = {syn.post for syn in spec.synapses} | {
            e.target for e in spec.external_spikes}
        self._drive_apart = bool(fed & set(self._res_targets.tolist()))
        self._triggers = [inj for inj in spec.injections
                          if inj.coupling.mode == "trigger"]
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
        # times may be off the step grid; _STEP_SLACK keeps on-grid ones
        self._ext_steps = np.array(
            [math.floor(e.t / dt + _STEP_SLACK) for e in ext], dtype=np.int64)
        self._ext = ext
        self._ext_ptr = 0

        self.v = self._v_leak.copy()
        self.i_syn = np.zeros(n, dtype=float)
        self._free_from = np.zeros(n, dtype=np.int64)  # first unclamped step
        self._refr = np.zeros(n, dtype=bool)  # clamped on the current step
        self._lift = math.inf  # the first step on which a clamp lifts
        self._pending = np.zeros(n, dtype=float)
        self._pending_any = False
        self._syn_live = False  # every i_syn is exactly 0 until a delivery

        self._ev_times: list[float] = []
        self._ev_ids: list[int] = []

    def _emit(self, ids, step: int, v) -> None:
        for i in ids.tolist():
            v[i] = self._v_reset[i]
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
        """Step for `duration` seconds; returns (SpikeRecord, TraceSet or None).

        Consecutive calls continue from the current step, in blocks of up
        to _BLOCK rows: per block the synaptic currents, their membrane terms
        and the held drives; per step only the membrane row (under
        _FLOAT_COLUMNS neurons, each column in floats, same operations); per
        block the clamp, the threshold and trigger test and the trace copy.
        A block ends on its first row where a neuron fires, and steps again
        from the emitted state; it never spans a clamp lift or an external
        delivery. Columns do not mix: each accepted row is the one-step update's."""
        if duration <= 0:
            raise ValueError("duration must be > 0")
        n_steps = int(round(duration / self.dt))
        k0, n = self._k, self.n
        traced = sorted(set(record_traces))
        if traced or self.spec.injections:  # step boundaries
            times = np.arange(k0, k0 + n_steps + 1) * self.dt
        traces = None
        if traced:
            bad = [i for i in traced if not 0 <= i < self.n]
            if bad:
                raise ValueError(f"trace ids out of range: {bad}")
            trace_v = np.empty((len(traced), n_steps + 1))
            trace_i = np.empty((len(traced), n_steps + 1))
            trace_v[:, 0], trace_i[:, 0] = self.v[traced], self.i_syn[traced]
            traces = TraceSet(times=times, v=dict(zip(traced, trace_v)),
                              i_syn=dict(zip(traced, trace_i)))

        rows = min(_BLOCK, n_steps)
        # v_block[0] holds the state a block starts from, the rows after it
        # its steps; s_block the synaptic terms, d_block the drives, -0.0
        # off the targets: adding -0.0 leaves every value, -0.0 too
        v_block = np.empty((rows + 1, n))
        v_block[0] = self.v
        i_block, s_block = np.empty((rows, n)), np.empty((rows, n))
        d_block = np.full((rows, n), -0.0)
        fired = np.empty((rows, n), dtype=bool)
        v_rows, s_rows, d_rows = list(v_block), [], []
        a, b = np.empty(n), np.empty(n)  # scratch rows: no out is an input
        res_targets = self._res_targets
        if res_targets.size:
            drives = _held(self._resistive, times) * self._res_gain
        trig = sorted(set(self._trig_targets.tolist()))
        if trig:  # per triggered neuron, whether any of its samples is above
            above = _held(self._triggers, times) >= self._v_thresh[self._trig_targets]
            trig_above = np.stack([above[:, self._trig_targets == i].any(axis=1)
                                   for i in trig], axis=1)

        i_syn, pending, refr, free_from = (self.i_syn, self._pending, self._refr,
                                           self._free_from)
        decay_syn, gain_syn = self._decay_syn, self._gain_syn
        decay_v, v_rest = self._decay_v, self._v_leak_eff
        decay_f, rest_f = decay_v.tolist(), v_rest.tolist()
        v_reset, v_thresh = self._v_reset, self._v_thresh
        ext, ext_steps, n_ext = self._ext, self._ext_steps.tolist(), len(self._ext)
        ext_ptr, live, size, j = self._ext_ptr, self._syn_live, rows, 0
        subtract, multiply, add = np.subtract, np.multiply, np.add
        while j < n_steps:
            k = k0 + j
            while ext_ptr < n_ext and ext_steps[ext_ptr] <= k:
                e = ext[ext_ptr]
                pending[e.target] += e.weight
                self._pending_any = True
                ext_ptr += 1
            if k >= self._lift:  # a clamp lifts: rebuild the mask
                np.greater(free_from, k, out=refr)
                clamped = free_from[refr]
                self._lift = int(clamped.min()) if clamped.size else math.inf
            m = min(size, n_steps - j, self._lift - k,
                    ext_steps[ext_ptr] - k if ext_ptr < n_ext else rows)

            if self._pending_any:
                if live:
                    np.multiply(i_syn, decay_syn, out=i_block[0])
                    i_block[0] += pending
                else:
                    np.add(i_syn, pending, out=i_block[0])
                pending.fill(0.0)
                self._pending_any, live = False, True
            elif live:
                np.multiply(i_syn, decay_syn, out=i_block[0])
            if res_targets.size:
                d_block[:m, res_targets] = drives[j:j + m]
            # each step adds one term row, and the drive row apart only
            # where a driven neuron has a synaptic current; the row views
            # (about 0.16 us each) are made on the first block that reads them
            extra = None
            if live:
                if m > 1:  # i_syn *= decay_syn on each later step
                    i_block[1:m] = decay_syn
                    np.multiply.accumulate(i_block[:m], axis=0, out=i_block[:m])
                np.multiply(i_block[:m], gain_syn, out=s_block[:m])
                term = s_rows = s_rows or list(s_block)
                if self._drive_apart:
                    extra = d_rows = d_rows or list(d_block)
                elif res_targets.size:
                    np.add(s_block[:m], d_block[:m], out=s_block[:m])
            else:
                term = d_rows = d_rows or list(d_block)

            if n < _FLOAT_COLUMNS:  # the row loop's operations, per column
                for i, (x, q, d) in enumerate(zip(v_block[0].tolist(), rest_f, decay_f)):
                    us = (s_block if live else d_block)[:m, i].tolist()
                    es = d_block[:m, i].tolist() if extra else ()
                    v_block[1:m + 1, i] = [x := (x - q) * d + q + u + e for u, e in zip(
                        us, es)] if extra else [x := (x - q) * d + q + u for u in us]
            else:
                for r in range(m):  # positional outs: cheaper calls
                    subtract(v_rows[r], v_rest, a)
                    multiply(a, decay_v, b)
                    add(b, v_rest, a)
                    if extra:
                        add(a, term[r], b)
                        add(b, extra[r], v_rows[r + 1])
                    else:
                        add(a, term[r], v_rows[r + 1])

            v_new = v_block[1:m + 1]
            if self._lift < math.inf:
                np.copyto(v_new, v_reset, where=refr)
            # a refractory neuron sits at v_reset < v_thresh, so cannot fire
            hit = np.greater_equal(v_new, v_thresh, out=fired[:m])
            if trig:
                hit[:, trig] |= trig_above[j:j + m] & ~refr[trig]
            first = int(hit.argmax()) if n else 0  # no argmax of no neuron
            if n and hit.flat[first]:  # accept up to the first row that fires
                m = first // n + 1
                self._emit(hit[m - 1].nonzero()[0], k + m, v_block[m])
                size = min(2 * m, _BLOCK)
            else:
                size = min(2 * size, _BLOCK)
            if live:
                i_syn[:] = i_block[m - 1]
            if traced:
                trace_v[:, j + 1:j + m + 1] = v_block[1:m + 1, traced].T
                trace_i[:, j + 1:j + m + 1] = (i_block[:m, traced].T if live
                                               else i_syn[traced, None])
            v_block[0] = v_block[m]
            j += m

        self.v[:] = v_block[0]
        self._k, self._ext_ptr, self._syn_live = k0 + n_steps, ext_ptr, live
        return SpikeRecord(self.n, self._ev_times, self._ev_ids), traces


@functools.lru_cache(maxsize=16)
def _audio_intervals(params: LifParams, injection: InjectionSection, dt: float,
                     n_steps: int, sample_rate: int, n_samples: int) -> tuple:
    """What injected_spike_steps needs of a run besides the samples: each
    step's drive position on the audio sample axis, as the sample j at or
    below it and the distance past j; the audio intervals that hold steps,
    their samples j and first steps; per interval the terms of a resistive
    membrane's end from its start, y' = m * y + alpha * c[j] + beta *
    c[j + 1] with y = v - v_rest; the one-step decay, gain, v_rest; the
    matrix that takes a wave's drives to its membrane, and the decay of its
    start."""
    rate = round(1.0 / dt)  # the drive's sample rate at the simulator
    # the drive is the clip resampled to `rate` by linear interpolation
    # (frontend.resample), its final value held past the resampled end
    held = _held_index(np.arange(n_steps + 1) * dt, rate,
                       round(n_samples * rate / sample_rate))
    pos = held * (sample_rate / rate)
    j = np.minimum(np.floor(pos).astype(np.int64), n_samples - 1)
    past = pos - j  # np.interp's x - xp[j]
    w = np.where(j < n_samples - 1, past, 0.0)  # weight of sample j + 1
    first = np.flatnonzero(np.diff(j, prepend=-1))
    g_inj = (1.0 / (injection.r_src * params.c_m)
             if injection.mode == "resistive" else 0.0)
    decay, b, v_rest = (float(x[0]) for x in _propagator(
        np.array([params.tau_m]), np.array([params.v_leak]),
        np.array([g_inj]), dt))
    gain = b / (injection.r_src * params.c_m)
    # step k's drive reaches the interval's end decayed d^(steps after k)
    interval = np.repeat(np.arange(first.size), np.diff(first, append=n_steps))
    ends = np.append(first[1:], n_steps)
    weight = gain * decay ** (ends[interval] - 1 - np.arange(n_steps))
    alpha = np.bincount(interval, weight * (1.0 - w))
    beta = np.bincount(interval, weight * w)
    m = decay ** (ends - first)
    # a wave's v - v_rest at its step t: the sum over s <= t of u[s]
    # d^(t-s), plus its start's d^(t+1); powers under 1e-150 change no sum
    # (and would go subnormal)
    powers = decay ** np.arange(_WAVE_STEPS + 1)
    powers[powers < 1e-150] = 0.0
    steps = np.arange(_WAVE_STEPS)
    wave = np.triu(powers[np.abs(steps - steps[:, None])])
    return (j, past, j[first], first, m, alpha, beta, decay, gain, v_rest,
            wave, powers[1:])


def injected_spike_steps(params: LifParams, injection: InjectionSection,
                         dt: float, n_steps: int, samples, sample_rate: int) -> list:
    """The first two spike steps of an input neuron in a run of n_steps from
    rest, for each row of audio-rate samples, without building the drive.

    The neuron has no synapse, and its one injection is the samples as
    run_trial_detailed drives it: resampled linearly to 1 / dt, the final
    value held past the end. Within audio interval j the held drive is
    linear in samples j and j + 1, so a resistive membrane runs from
    interval end to interval end. It is resolved step by step only where it
    can reach thresh - _MARGIN: where an interval starts there or its
    drive's highest rest point lies there. A trigger input is resolved only
    where an interval's endpoint samples reach it. The rows go in waves: a
    row at a cool interval's start is carried to the next hot one, then
    each row resolves up to _WAVE_STEPS steps of its interval, or of the
    hot run it starts, in one 2-D interpolation and one matrix product:
    the membrane in closed form, the drives through a triangular matrix of
    decay powers plus the start's decay. A row equals the stepper's up to
    rounding: None where its membrane, or a trigger sample, comes within
    _MARGIN volts of threshold."""
    c = np.atleast_2d(samples)
    (at, past, j, first, m, alpha, beta, d, gain, v_rest, wave,
     carry) = _audio_intervals(params, injection, dt, n_steps, sample_rate,
                               c.shape[1])
    c = np.concatenate((c, c[:, -1:]), axis=1)  # the last sample held on
    # np.interp's slopes at unit spacing, shaped like c (the last unread)
    slope = np.diff(c, axis=1, append=0.0)
    lo, hi = c[:, j], c[:, j + 1]
    top, y0 = np.maximum(lo, hi), params.v_leak - v_rest
    resistive, lim = injection.mode == "resistive", params.v_thresh - _MARGIN
    if resistive:  # the membrane never passes max(its start, this)
        top = v_rest + gain * top / (1 - d)
        # free[:, i]: y at interval i's start from rest if it never fired,
        # an inclusive scan of y' = m y + u; factors under 1e-150 change no
        # sum (and would go subnormal)
        a, free = np.where(m < 1e-150, 0.0, m), (alpha * lo + beta * hi).T
        s = 1
        while s < a.size and a[s:].any():
            free[s:] += a[s:, None] * free[:-s]
            a[s:] *= a[:-s]
            a[a < 1e-150], s = 0.0, 2 * s
        free = np.hstack((np.full((len(c), 1), y0), (a[:, None] * y0 + free).T))
    hot = top >= lim
    rows, n_int = hot.shape
    # per interval, the first one from it on that is hot, and that is not
    next_hot, next_cool = (
        np.minimum.accumulate(np.where(h, np.arange(n_int), n_int)[:, ::-1],
                              axis=1)[:, ::-1] for h in (hot, ~hot))
    starts, ref = np.append(first, n_steps), _refractory_steps(params, dt)
    spikes = np.zeros((rows, 2), dtype=np.int64)
    count, refused = np.zeros(rows, dtype=np.int64), np.zeros(rows, dtype=bool)
    # the rows still screened, each at step k with y = v - v_rest
    live, k, y = np.arange(rows), np.zeros(rows, dtype=np.int64), np.full(rows, y0)
    while live.size:
        g = np.searchsorted(first, k, side="right") - 1
        cool = (k == first[g]) & ~hot[live, g] & ((y + v_rest < lim) | (not resistive))
        if cool.any():  # whole intervals up to the next hot one
            r, g0 = live[cool], g[cool]
            k[cool], g[cool] = starts[next_hot[r, g0]], next_hot[r, g0]
            if resistive:
                y[cool] = free[r, g[cool]] + (y[cool] - free[r, g0]) * d ** (
                    k[cool] - starts[g0])
            on = k < n_steps
            live, k, y, g = live[on], k[on], y[on], g[on]
            if not live.size:
                break
        # step to the end of this interval, or of the hot run it starts
        end = np.where(hot[live, g], starts[next_cool[live, g]], starts[g + 1])
        n = np.minimum(end - k, _WAVE_STEPS)
        step = np.minimum(np.add.outer(k, np.arange(n.max())), n_steps - 1)
        flat = at[step] + live[:, None] * c.shape[1]  # rows flattened
        v = slope.take(flat) * past[step] + c.take(flat)
        if resistive:
            w = v.shape[1]
            v = (v * gain) @ wave[:w, :w] + y[:, None] * carry[:w] + v_rest
        above = (v >= lim) & (np.arange(n.max()) < n[:, None])
        i, each = above.argmax(axis=1), np.arange(live.size)
        near = above[each, i] & (v[each, i] < params.v_thresh + _MARGIN)
        fire = above[each, i] & ~near
        refused[live[near]] = True
        spikes[live[fire], count[live[fire]]] = (k + i + 1)[fire]
        count[live[fire]] += 1
        y = np.where(fire, params.v_reset - v_rest, v[each, n - 1] - v_rest)
        k = np.where(fire, k + i + 1 + ref, k + n)
        on = (k < n_steps) & ~near & (count[live] < 2)
        live, k, y = live[on], k[on], y[on]
    return [None if no else s[:n].tolist() for s, n, no in zip(spikes, count, refused)]


def run(spec: NetworkSpec, duration: float, dt: float, record_traces=()) -> tuple:
    """One-shot simulation of a spec from rest."""
    return Simulation(spec, dt).run(duration, record_traces=record_traces)
