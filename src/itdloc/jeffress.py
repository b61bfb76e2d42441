"""Jeffress-style coincidence network: two counter-directional delay chains
of LIF neurons plus a coincidence-detector layer, the calibration of the
emergent per-stage delay, and the ITD/angle conversions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lif import (
    _MARGIN,
    _STEP_SLACK,
    ExternalSpike,
    LifParams,
    NetworkSpec,
    Simulation,
    SynapseSpec,
    _propagator,
    _refractory_steps,
    check_dt,
    quantize_weight,
)

# a 3.8 us stage delay at the default neuron parameters and dt = 0.1 us: near
# the middle of the step-38 weight band [4.0548e-07, 4.1367e-07), which
# tune_chain_weight enters at 4.124536e-07
DEFAULT_CHAIN_WEIGHT = 4.095e-07

_T_INJECT = 5e-6  # when the calibration spike enters the chain head
_WINDOW_PER_STAGE = 30e-6  # calibration run time per stage
_PROBE_STAGES = 9  # length of the chain tune_chain_weight walks at its weight
_MAX_ITER = 80  # bisection steps before tune_chain_weight gives up
_RESIDUAL_TOL = 1e-9  # seconds of ITD woodworth_angle may miss by
_MAX_PEAK_STEPS = 2000  # probe_tables' peak bound: a 96 MB pair table at it


class CalibrationError(RuntimeError):
    """Raised when a delay chain fails to propagate cleanly."""


def psp_peak_per_ampere(params: LifParams) -> float:
    """Peak membrane deflection (volts) caused by 1 A of instantaneous
    synaptic current decaying with tau_syn, in continuous time."""
    tm, ts = params.tau_m, params.tau_syn
    if abs(tm - ts) < 1e-12 * tm:
        peak = tm / math.e
    else:
        t_star = (ts * tm / (tm - ts)) * math.log(tm / ts)
        peak = (ts * tm / (tm - ts)) * (
            math.exp(-t_star / tm) - math.exp(-t_star / ts)
        )
    return peak / params.c_m


def fires_once(params: LifParams, weight: float) -> bool:
    """Whether a neuron that fired with at most |weight| amperes in i_syn
    cannot fire again from them: the clamp lifts with at most
    |weight| * exp(-t_ref / tau_syn) left, which must move the membrane
    less than half way to threshold."""
    left = abs(weight) * math.exp(-params.t_ref / params.tau_syn)
    return 2 * left * psp_peak_per_ampere(params) < params.v_thresh - max(
        params.v_reset, params.v_leak)


def kick_fire_step(params: LifParams, weight: float, dt: float):
    """The step D on which a neuron at rest, kicked with `weight` amperes on
    step 0, fires; None if never. One Simulation run, as long as the
    closed-form PSP v says: one past the first boundary where v passes
    threshold by _MARGIN, else two past its peak; none if v peaks more than
    _MARGIN below threshold. v doubles in length until it crosses or peaks,
    so no array is sized by the taus."""
    thresh, n = params.v_thresh - params.v_leak, 64
    while True:
        y = _lone_psp(params, weight, dt, n)
        cross = np.flatnonzero(y - thresh >= _MARGIN)[:1]
        if cross.size or np.argmax(y) < n:  # or the peak is in
            break
        n *= 2
    if cross.size:
        steps = int(cross[0]) + 1
    elif y.max() - thresh > -_MARGIN:
        steps = int(np.argmax(y)) + 2
    else:
        return None
    sim = Simulation(NetworkSpec((params,), external_spikes=(
        ExternalSpike(0.0, 0, weight),)), dt)
    record, _ = sim.run(steps * dt)
    return int(round(record.times[0] / dt)) if len(record) else None


def single_spike_fire_weight(params: LifParams) -> float:
    """Smallest synaptic weight (amperes) whose lone PSP just reaches
    threshold from rest, in continuous time."""
    return (params.v_thresh - params.v_leak) / psp_peak_per_ampere(params)


@dataclass(frozen=True)
class JeffressConfig:
    """Geometry-free network configuration.

    coincidence_weight defaults to 0.7x the single-spike firing weight so a
    lone chain never triggers a detector while two roughly coincident
    arrivals always do. With w_lsb set, build() snaps every synaptic weight
    to the signed 6-bit grid of that step (see quantize_weight).
    """

    n_stages: int = 50
    chain_weight: float = DEFAULT_CHAIN_WEIGHT
    coincidence_weight: float | None = None
    neuron_params: LifParams = field(default_factory=LifParams)
    input_neuron_params: LifParams | None = None
    left_first_index: bool = True
    w_lsb: float | None = None

    def __post_init__(self):
        if self.n_stages < 2:
            raise ValueError("n_stages must be >= 2")
        if self.chain_weight <= 0:
            raise ValueError("chain_weight must be > 0")

    @property
    def input_params(self) -> LifParams:
        return self.input_neuron_params or self.neuron_params

    def resolved_coincidence_weight(self) -> float:
        if self.coincidence_weight is not None:
            return self.coincidence_weight
        return 0.7 * single_spike_fire_weight(self.neuron_params)


@dataclass(frozen=True)
class GeometryParams:
    """Receiver geometry: microphone spacing, head radius (half the spacing
    unless set), speed of sound."""

    mic_distance: float = 0.051
    head_radius: float | None = None
    speed_of_sound: float = 343.0

    def __post_init__(self):
        if not (0 < self.mic_distance < math.inf
                and 0 < self.speed_of_sound < math.inf):
            raise ValueError("mic_distance and speed_of_sound must be > 0 and finite")
        if self.head_radius is not None and not 0 < self.head_radius < math.inf:
            raise ValueError("head_radius must be > 0 and finite")

    def resolved_head_radius(self) -> float:
        return self.head_radius or self.mic_distance / 2


@dataclass(frozen=True)
class CalibrationResult:
    """Measured propagation delays of one chain traversal."""

    stage_delays: tuple
    stage_delay_mean: float
    stage_delay_std: float


@dataclass(frozen=True)
class JeffressNetwork:
    """The 3N+2 neuron network a config describes: 2 analog-injected
    inputs, two N-stage chains fed from opposite ends, and N coincidence
    detectors, detector j receiving left-chain j and right-chain j.

    The config is the only field; the ids, the weights and spec are derived
    from it, so equality and hashing go by config. Ids: 0 left input,
    1 right input, 2..N+1 left chain (by detector position), N+2..2N+1
    right chain (by detector position), 2N+2..3N+1 coincidence detectors.
    With left_first_index the left input feeds position 0 and the right
    input feeds position N-1; flipping the flag mirrors the two entry
    points. chain_weight and coincidence_weight are the weights as built,
    after any quantization, and construction checks them.
    """

    config: JeffressConfig
    input_left = 0  # class attributes, not fields
    input_right = 1

    def __post_init__(self):
        cfg, n = self.config, self.config.n_stages
        w_coin, w_chain = cfg.resolved_coincidence_weight(), cfg.chain_weight
        if cfg.w_lsb is not None:
            w_coin = quantize_weight(w_coin, cfg.w_lsb)
            w_chain = quantize_weight(w_chain, cfg.w_lsb)
        w_fire = single_spike_fire_weight(cfg.neuron_params)
        if w_coin >= w_fire:
            raise ValueError(
                f"coincidence_weight {w_coin:.3e} >= single-spike firing weight "
                f"{w_fire:.3e}; a lone chain would trigger detectors"
            )
        if w_chain <= w_fire:
            raise ValueError(
                f"chain_weight {w_chain:.3e} <= single-spike firing "
                f"weight {w_fire:.3e}; the chain cannot propagate"
            )
        # derived, not fields: set past the frozen __setattr__
        self.__dict__.update(
            chain_weight=w_chain, coincidence_weight=w_coin,
            left_chain=tuple(range(2, n + 2)),
            right_chain=tuple(range(n + 2, 2 * n + 2)),
            detectors=tuple(range(2 * n + 2, 3 * n + 2)))

    @functools.cached_property
    def spec(self) -> NetworkSpec:
        """Neurons and synapses, built on first use."""
        cfg, w_chain = self.config, self.chain_weight
        left, right = self.chain_order("left"), self.chain_order("right")
        synapses = [SynapseSpec(self.input_left, left[0], w_chain),
                    SynapseSpec(self.input_right, right[0], w_chain)]
        for order in (left, right):
            synapses += [SynapseSpec(a, b, w_chain) for a, b in zip(order, order[1:])]
        for a, b, det in zip(self.left_chain, self.right_chain, self.detectors):
            synapses += [SynapseSpec(a, det, self.coincidence_weight),
                         SynapseSpec(b, det, self.coincidence_weight)]
        neurons = (cfg.input_params,) * 2 + (cfg.neuron_params,) * (3 * cfg.n_stages)
        return NetworkSpec(neurons=neurons, synapses=tuple(synapses))

    @property
    def n_stages(self) -> int:
        return self.config.n_stages

    def chain_order(self, side: str) -> tuple:
        """Chain ids in propagation order for 'left' or 'right': with
        left_first_index the left chain fires up the detector positions
        and the right chain down; else mirrored."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        chain = self.left_chain if side == "left" else self.right_chain
        return chain if (side == "left") == self.config.left_first_index else chain[::-1]

    def detector_index(self, neuron_id: int) -> int:
        return self.detectors.index(neuron_id)

    @property
    def _itd_sign(self) -> float:  # -1 when the left chain fires up the positions
        return -1.0 if self.config.left_first_index else 1.0

    def detector_itd(self, j, delta: float) -> float:
        """ITD (right-channel delay, seconds) a detector position is tuned
        to, consistent with this network's orientation."""
        return self._itd_sign * detector_to_itd(j, delta, self.n_stages)

    def itd_to_position(self, itd: float, delta: float) -> float:
        """Fractional detector position tuned to a given ITD."""
        return (self.n_stages - 1 - self._itd_sign * itd / delta) / 2.0

    def describe(self) -> str:
        """Structured text dump: parameters, id layout and synapse table."""
        cfg = self.config
        lines = [
            "[network]",
            f"n_stages={cfg.n_stages}",
            f"n_neurons={self.spec.n_neurons}",
            f"n_synapses={len(self.spec.synapses)}",
            f"left_first_index={cfg.left_first_index}",
            f"chain_weight={self.chain_weight:.6e}",
            f"coincidence_weight={self.coincidence_weight:.6e}",
            "[layout]",
            f"input_left={self.input_left}",
            f"input_right={self.input_right}",
            f"left_chain={self.left_chain[0]}..{self.left_chain[-1]}",
            f"right_chain={self.right_chain[0]}..{self.right_chain[-1]}",
            f"detectors={self.detectors[0]}..{self.detectors[-1]}",
            "[neuron_params]",
        ]
        for name, p in (("chain", cfg.neuron_params), ("input", cfg.input_params)):
            lines.append(
                f"{name}: tau_m={p.tau_m:g} tau_syn={p.tau_syn:g} "
                f"v_leak={p.v_leak:g} v_thresh={p.v_thresh:g} "
                f"v_reset={p.v_reset:g} t_ref={p.t_ref:g} c_m={p.c_m:g}"
            )
        lines.append("[synapses]")
        for s in self.spec.synapses:
            lines.append(f"{s.pre}->{s.post} w={s.weight:.6e}")
        return "\n".join(lines) + "\n"


def build(cfg: JeffressConfig) -> JeffressNetwork:
    """The network a config describes (see JeffressNetwork)."""
    return JeffressNetwork(cfg)


def _lone_psp(params: LifParams, weight: float, dt: float, n: int) -> np.ndarray:
    """v - v_leak on step boundaries 0..n after one kick of `weight` on step
    0: the stepper's y[s] = decay y[s - 1] + gain weight ds^(s - 1), summed
    as gain weight hi^(s - 1) (1 + r + ... + r^(s - 1)) with r = lo / hi
    for the decays lo <= hi, which stays stable when tau_m == tau_syn."""
    decay, b, _ = (float(x[0]) for x in _propagator(
        np.array([params.tau_m]), np.array([params.v_leak]), np.zeros(1), dt))
    lo, hi = sorted((decay, math.exp(-dt / params.tau_syn)))
    m = np.arange(n, dtype=float)
    return np.concatenate(([0.0], b / params.c_m * weight * hi ** m
                           * np.cumsum((lo / hi) ** m)))


def probe_tables(net: JeffressNetwork, dt: float, n_steps: int) -> tuple | None:
    """(stage, reach, fire, lone): a chain neuron kicked on step s fires on
    step s + stage (never if None; one kick_fire_step run per call), the
    rest is _coincidence's; None where a chain neuron can fire twice too."""
    params, w = net.config.neuron_params, net.chain_weight
    coin = fires_once(params, w) and _coincidence(
        params, net.coincidence_weight, dt, n_steps)
    return (kick_fire_step(params, w, dt), *coin) if coin else None


@functools.lru_cache(maxsize=16)
def _coincidence(params: LifParams, w_coin: float, dt: float, n_steps: int):
    """(reach, fire, lone) of probe_tables, read-only: a detector kicked on
    steps a and b fires on step max(a, b) + fire[|b - a|] if |b - a| <=
    reach and that is >= 0, else never. Below threshold a detector kicked
    on steps 0 and off sits at v_leak + y[off + m] + y[m] m steps after its
    second kick, y the lone PSP, which peaks on step top; fire[off] is the
    first m <= top + 1 at which that reaches threshold. Past top the first
    PSP only falls, so the first silent offset past top ends the reach.
    lone: in n_steps one chain alone fires no detector. A chain neuron
    fires R = ceil(t_ref / dt) + 1 steps apart or more, so with top <= R
    its detector stays below v_leak + y[top] + ceil(n_steps / R) y[min(R,
    len(y) - 1)], which lies _MARGIN below threshold. None if a detector
    can fire twice, if peak > _MAX_PEAK_STEPS (at the default taus, dt <
    7.5 ns), if no offset up to 3 * peak is silent, or if the lone peak or
    a value compared up to the reach + 1 lies within _MARGIN of threshold
    or of a tie."""
    peak = math.ceil(max(params.tau_m, params.tau_syn) / dt)  # a bound on it
    if not fires_once(params, 2 * abs(w_coin)) or peak > _MAX_PEAK_STEPS:
        return None
    thresh = params.v_thresh - params.v_leak
    k, y = 3 * peak, _lone_psp(params, w_coin, dt, 5 * peak)
    top = int(np.argmax(y))
    if (y[top] - thresh > -_MARGIN
            or np.count_nonzero(y > y[top] - _MARGIN) > 1):
        return None
    # row off, column m: the copy kicked on steps 0 and off, m steps on
    pair = sliding_window_view(y, top + 2)[:k + 1] + y[:top + 2]
    pair -= thresh  # in place, one table; x - thresh >= 0 iff x >= thresh
    hit = pair >= 0
    fire = np.where(hit.any(axis=1), np.argmax(hit, axis=1), -1)
    fire.flags.writeable = False  # shared by every caller of the cache
    silent = np.flatnonzero(fire[top:] < 0)
    if not silent.size:
        return None
    reach = top + int(silent[0]) - 1
    # the values the stepper compares: up to the first hit, or all
    last = np.where(fire < 0, top + 1, fire)[:reach + 2, None]
    near = np.abs(pair, out=pair)[:reach + 2] < _MARGIN
    if (near & (np.arange(top + 2) <= last)).any():
        return None
    r = _refractory_steps(params, dt) + 1  # a chain neuron's spikes lie >= r apart
    lone = bool(top <= r and y[top] + math.ceil(n_steps / r)
                * y[min(r, len(y) - 1)] - thresh <= -_MARGIN)
    return reach, fire[:reach + 1], lone


def _stages_fired(d, stages: int, dt: float) -> int:
    """How many of `stages` chain stages fire in the calibration window if
    stage k - 1 fires k d steps after the head's kick (none if d is inf)."""
    start = math.floor(_T_INJECT / dt + _STEP_SLACK)
    end = round((_T_INJECT + stages * _WINDOW_PER_STAGE) / dt)
    return min(stages, int((end - start) // d))


def _chain_walk(params: LifParams, weight: float, dt: float, order) -> tuple:
    """(e, D): a chain of identical neurons linked by `weight`, ids `order`
    head first, has its head kicked on step e (at _T_INJECT); nothing feeds
    back into a chain, so a head that fires once in the window, D steps
    later, has stage k fire on step e + (k + 1) D. D is from kick_fire_step
    where fires_once; else the head alone is stepped over the window, where
    the error counts its spikes. CalibrationError names the first stage
    that is silent in the window or fires there more than once."""
    start = math.floor(_T_INJECT / dt + _STEP_SLACK)
    if fires_once(params, weight):
        d = kick_fire_step(params, weight, dt)
        head = [] if d is None else [start + d]
    else:
        spec = NetworkSpec((params,), external_spikes=(
            ExternalSpike(_T_INJECT, 0, weight),))
        record, _ = Simulation(spec, dt).run(_T_INJECT + len(order) * _WINDOW_PER_STAGE)
        head = [round(t / dt) for t in record.times.tolist()]
    if len(head) > 1:
        raise CalibrationError(
            f"chain stage 0 (neuron {order[0]}) fired {len(head)} times")
    d = head[0] - start if head else math.inf
    fired = _stages_fired(d, len(order), dt)
    if fired < len(order):
        raise CalibrationError(
            f"chain stage {fired} (neuron {order[fired]}) never fired")
    return start, d


def calibrate_stage_delay(net: JeffressNetwork, dt: float) -> CalibrationResult:
    """Kick the left chain head once and take the stage delay as the first
    difference of the chain's spike times (see _chain_walk), which fails
    if a stage stays silent or fires more than once in the window."""
    cfg = net.config
    check_dt((cfg.input_params, cfg.neuron_params), dt)
    start, d = _chain_walk(cfg.neuron_params, net.chain_weight, dt,
                           net.chain_order("left"))
    # each spike time as Simulation records it
    deltas = np.diff([(start + k * d) * dt for k in range(1, cfg.n_stages + 1)])
    return CalibrationResult(tuple(float(x) for x in deltas),
                             float(np.mean(deltas)), float(np.std(deltas)))


def tune_chain_weight(target_delay: float, params: LifParams, dt: float) -> float:
    """Bisect the chain weight into the band of weights whose kick fires
    on the target's nearest whole step d: below threshold a kick of w gives
    w u, u the unit PSP, which rises until its peak, so the band runs from
    thresh / u[d] up to thresh / max(u[:d]). A bare _PROBE_STAGES-stage
    chain walked at the weight found (_chain_walk) must give D == d."""
    if not 0 < target_delay < math.inf:
        raise ValueError(f"target_delay must be finite and > 0, got {target_delay}")
    check_dt((params,), dt)
    d, w_fire = round(target_delay / dt), single_spike_fire_weight(params)
    lo, hi = 1.02 * w_fire, 400.0 * w_fire
    bottom = top = math.inf  # the band [bottom, top), empty past the window
    if d >= 1 and _stages_fired(d, _PROBE_STAGES, dt) == _PROBE_STAGES:
        u, thresh = _lone_psp(params, 1.0, dt, d), params.v_thresh - params.v_leak
        bottom, rise = thresh / u[d], u[:d].max()
        top = thresh / rise if rise > 0 else math.inf
    if not (bottom < top and bottom <= hi and lo < top):
        raise ValueError(
            f"target delay {target_delay:.3g}s outside achievable range: no "
            f"chain weight in [{lo:.3g}, {hi:.3g}] A gives a {_PROBE_STAGES}-"
            f"stage chain a {d}-step stage delay")
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid < bottom:
            lo = mid  # too slow, drive harder
        elif mid >= top:
            hi = mid
        else:  # the walk names ids of the probe chain, not of any network
            try:
                if _chain_walk(params, mid, dt, range(_PROBE_STAGES))[1] == d:
                    return mid
            except CalibrationError as exc:
                raise CalibrationError(
                    f"chain weight tuner: weight {mid:.6e} A, in the band of "
                    f"the {d}-step stage delay, fails its {_PROBE_STAGES}-"
                    f"stage probe chain: {exc}") from exc
            raise CalibrationError(f"chain weight tuner: weight {mid:.6e} A "
                                   f"misses the {d}-step stage delay")
    raise RuntimeError(
        f"chain weight search did not converge to {target_delay:.3g}s "
        f"within {_MAX_ITER} iterations")


def detector_to_itd(j, delta: float, n_stages: int) -> float:
    """ITD coded by detector position j for per-stage delay `delta`:
    (N - 1 - 2 j) * delta; linear in j, accepts fractional j from the
    averaging readout. Orientation handling may negate the result."""
    j = float(j)
    if not 0 <= j <= n_stages - 1:
        raise ValueError(f"detector index {j} outside [0, {n_stages - 1}]")
    return (n_stages - 1 - 2.0 * j) * delta


def itd_from_distances(d_left: float, d_right: float, c_sound: float = 343.0) -> float:
    """Arrival-time difference of a point source at distances d_left and
    d_right from the two receivers."""
    if c_sound <= 0:
        raise ValueError("speed of sound must be > 0")
    return (d_left - d_right) / c_sound


def woodworth_itd(theta: float, geom: GeometryParams) -> float:
    """Far-field head-diffraction ITD for azimuth theta in [-pi/2, pi/2]:
    r_head / c * (theta + sin(theta))."""
    if not -math.pi / 2 - 1e-12 <= theta <= math.pi / 2 + 1e-12:
        raise ValueError("theta outside [-pi/2, pi/2]")
    return (geom.resolved_head_radius() / geom.speed_of_sound
            * (theta + math.sin(theta)))


def woodworth_angle(itd: float, geom: GeometryParams) -> float:
    """Invert the Woodworth map: bisect the strictly increasing forward
    formula for |itd| over [0, pi/2] until the bracket is under 5e-11 rad,
    and give its lower end itd's sign, so the map is exactly odd and 0
    maps to 0. The angle reproduces itd within _RESIDUAL_TOL seconds."""
    bound = woodworth_itd(math.pi / 2, geom)
    if not abs(itd) <= bound + _RESIDUAL_TOL:  # a NaN fails here too
        raise ValueError(
            f"|itd|={abs(itd):.3g}s exceeds the half-space maximum {bound:.3g}s")
    lo, hi = 0.0, math.pi / 2
    while hi - lo > 5e-11:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if woodworth_itd(mid, geom) < abs(itd) else (lo, mid)
    theta = math.copysign(lo, itd)
    if abs(woodworth_itd(theta, geom) - itd) >= _RESIDUAL_TOL:
        raise RuntimeError("woodworth inversion failed to converge")
    return theta


def planewave_angle(itd: float, mic_distance: float,
                    c_sound: float = 343.0) -> float:
    """Far-field two-receiver azimuth arcsin(itd * c / d).

    Arguments overshooting |1| by up to 0.5 % (rounded ITDs at the
    half-space edge) are clamped; anything larger is an error.
    """
    if not (math.isfinite(itd) and 0 < mic_distance < math.inf
            and 0 < c_sound < math.inf):
        raise ValueError("itd must be finite, and mic_distance and c_sound "
                         f"finite and > 0; got {itd}, {mic_distance}, {c_sound}")
    arg = itd * c_sound / mic_distance
    if abs(arg) > 1.005:
        raise ValueError(f"|itd * c / d| = {abs(arg):.4g} > 1: no real angle")
    return math.asin(max(-1.0, min(1.0, arg)))


def angular_resolution(delta: float, geom: GeometryParams) -> dict:
    """Small-angle spatial resolution near the midline implied by the stage
    delay: one entry for a single stage delay, one for the 2-delta detector
    pitch. Reported, never asserted."""
    factor = geom.speed_of_sound / (2.0 * geom.resolved_head_radius())
    return {
        "per_stage_rad": delta * factor,
        "per_detector_rad": 2.0 * delta * factor,
    }
