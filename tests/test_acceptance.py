"""Acceptance suite: every release criterion at its stated tolerance, one
printed pass/fail line per criterion. Run with `pytest tests/test_acceptance.py -s`
to see the lines as they pass."""

import time

import numpy as np
import pytest

from itdloc import jeffress, readout
from itdloc.frontend import AudioClip, ClapSpec, FrontEndParams, apply_itd, \
    condition, resample, synth_clap
from itdloc.harness import SweepConfig, TrialConfig, run_sweep, run_trial, \
    xcorr_oracle
from itdloc.jeffress import JeffressConfig, LifParams, \
    build, calibrate_stage_delay, itd_from_distances, tune_chain_weight
from itdloc.lif import AnalogInjection, ExternalSpike, InjectionSection, \
    NetworkSpec, Simulation, run

DT = 1e-7
N_STAGES = 50


def report(num, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tuned():
    t0 = time.monotonic()
    weight = tune_chain_weight(3.8e-6, LifParams(), DT)
    net = build(JeffressConfig(chain_weight=weight))
    cal = calibrate_stage_delay(net, DT)
    elapsed = time.monotonic() - t0
    return weight, net, cal, elapsed


@pytest.fixture(scope="module")
def noiseless_sweep(tuned):
    _, net, cal, _ = tuned
    cfg = SweepConfig(
        trial=TrialConfig(net=net),
        itds=tuple(np.linspace(-160e-6, 160e-6, 41)),
        trials=1,
        noise_amplitude=0.0,
        stage_delay=cal.stage_delay_mean,
    )
    t0 = time.monotonic()
    result = run_sweep(cfg)
    return result, time.monotonic() - t0


def test_criterion_1_stage_delay(tuned):
    weight, _, cal, elapsed = tuned
    delta = cal.stage_delay_mean
    ok = (abs(delta - 3.8e-6) <= 0.8e-6
          and abs(delta - 3.8e-6) <= 0.1e-6
          and elapsed < 10.0)
    report(1, ok, f"stage delay {delta * 1e6:.3f} us (target 3.8 +- 0.1, "
                  f"band +- 0.8), weight {weight:.4e} A, tuned+calibrated "
                  f"in {elapsed:.2f} s < 10 s")


def test_criterion_2_latency(tuned):
    _, net, _, _ = tuned
    res = run_trial(0.0, None, TrialConfig(net=net))
    ok = (res.latency is not None) and res.latency <= 0.5e-3
    report(2, ok, f"detection latency {res.latency * 1e6:.1f} us <= 500 us "
                  f"after the first conditioned threshold crossing")


def test_criterion_3_half_space_constant():
    itd = itd_from_distances(0.051, 0.0, 343.0)
    ok = abs(itd - 148.7e-6) <= 0.5e-6 and abs(itd - 149e-6) <= 0.5e-6
    report(3, ok, f"51 mm spacing maps to {itd * 1e6:.1f} us "
                  f"(148.7 us expected, +-0.5 us of the 149 us half-space)")


def test_criterion_4_linearity(noiseless_sweep):
    result, elapsed = noiseless_sweep
    means = [s.mean for s in result.stats]
    misses = sum(1 for r in result.rows if r.miss)
    monotone = all(b >= a - 1e-9 for a, b in zip(means, means[1:])) or \
        all(b <= a + 1e-9 for a, b in zip(means, means[1:]))
    ok = (misses == 0 and monotone
          and result.fit.max_abs_residual <= 2.0
          and elapsed < 300.0)
    report(4, ok, f"41-point noiseless sweep: monotone={monotone}, "
                  f"max residual {result.fit.max_abs_residual:.2f} <= 2 units, "
                  f"misses={misses}, ran in {elapsed:.1f} s < 300 s")


def test_criterion_5_trial_spread(tuned):
    _, net, _, _ = tuned
    cfg = SweepConfig(
        trial=TrialConfig(net=net),
        itds=tuple(np.linspace(-140e-6, 140e-6, 8)),
        trials=100,
        noise_amplitude=0.07,
        base_seed=2026,
    )
    result = run_sweep(cfg)
    misses = sum(1 for r in result.rows if r.miss)
    stds = [s.std for s in result.stats]
    ok = (misses / len(result.rows) < 0.05
          and all(s is not None and 0.5 <= s <= 4.0 for s in stds))
    report(5, ok, f"per-ITD std over 100 trials at 8 ITDs: "
                  f"[{min(stds):.2f}, {max(stds):.2f}] units inside [0.5, 4], "
                  f"misses {misses}/{len(result.rows)} < 5%")


def test_criterion_6_oracle_equivalence(tuned, noiseless_sweep):
    _, net, cal, _ = tuned
    result, _ = noiseless_sweep
    delta = cal.stage_delay_mean
    mono = TrialConfig(net=net).mono_stimulus()
    agree = 0
    rows = [r for r in result.rows if not r.miss]
    for row in rows:
        itd_snn = net.detector_itd(row.direction, delta)
        itd_xc = xcorr_oracle(apply_itd(mono, row.itd), 400e-6)
        if abs(itd_snn - itd_xc) <= 2 * delta:
            agree += 1
    ok = agree >= 0.95 * len(rows)
    report(6, ok, f"network ITD within 2 delta of the cross-correlation "
                  f"oracle on {agree}/{len(rows)} noiseless points (>= 95%)")


def test_criterion_7_readout_program_fidelity():
    ids = tuple(range(50))
    cfg = readout.ReadoutSection(iteration_time=55e-6, dead_time=0.2)

    def play(spikes, t_end=0.6):
        rec = __import__("itdloc.lif", fromlist=["SpikeRecord"]).SpikeRecord(
            50, [t for t, _ in spikes], [i for _, i in spikes])
        return readout.poll_loop(rec, cfg, ids, t_end)

    checks = []
    # empty stream: the loop never leaves its continue branch
    checks.append(play([]) == [])
    # id averaging across one iteration
    ev = play([(30e-6, 10), (40e-6, 12)])
    checks.append([e.direction for e in ev] == [11.0])
    # single active detector
    checks.append([e.direction for e in play([(30e-6, 25)])] == [25.0])
    # multiple spikes on one detector still count it once
    ev = play([(20e-6, 10), (25e-6, 10), (40e-6, 12)])
    checks.append([e.direction for e in ev] == [11.0])
    # dead-time collision: second burst 50 ms later is wiped by the reset
    checks.append(len(play([(30e-6, 5), (50e-3, 9)])) == 1)
    # bursts 250 ms apart give two events
    checks.append([e.direction for e in play([(30e-6, 5), (250e-3, 9)])]
                  == [5.0, 9.0])
    # first-iteration preference: later spikes cannot join the event
    checks.append([e.direction for e in play([(30e-6, 5), (60e-6, 9)])]
                  == [5.0])
    ok = all(checks)
    report(7, ok, f"readout program fidelity on {len(checks)} crafted "
                  f"counter streams (empty/single/multi/dead-time/preference)")


def test_criterion_8_integrator_correctness():
    p = LifParams(v_thresh=10.0)
    rng = np.random.default_rng(7)
    seg = rng.uniform(0.2, 1.2, 40)
    inj = AnalogInjection(0, seg, 200000.0, InjectionSection(r_src=110e3))
    _, traces = run(NetworkSpec(neurons=(p,), injections=(inj,)), 200e-6, DT,
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
    rel = np.max(np.abs(traces.v[0] - expect) / np.maximum(np.abs(expect), 1e-12))

    w = 2.0 * jeffress.single_spike_fire_weight(LifParams())
    spec = NetworkSpec(neurons=(LifParams(),),
                       external_spikes=(ExternalSpike(10e-6, 0, w),))
    t_coarse = run(spec, 100e-6, DT)[0].times[0]
    t_fine = run(spec, 100e-6, DT / 2)[0].times[0]
    shift = abs(t_coarse - t_fine)

    ok = rel < 1e-6 and shift < DT
    report(8, ok, f"piecewise-constant relative error {rel:.2e} < 1e-6 per "
                  f"step; spike time shifted {shift * 1e9:.1f} ns < dt when "
                  f"dt halved")


def test_criterion_9_symmetry(tuned):
    _, net, _, _ = tuned
    trial = TrialConfig(net=net)
    sums_ok = []
    for itd in (40e-6, 100e-6, 149e-6):
        d_plus = run_trial(+itd, None, trial).direction
        d_minus = run_trial(-itd, None, trial).direction
        sums_ok.append(abs(d_plus + d_minus - (N_STAGES - 1)) <= 1.0)

    # single active chain: silence on the right channel, clap on the left
    clap = synth_clap(ClapSpec(), 192000, trial.duration)
    fe = FrontEndParams()
    cond_l = condition(clap.channel(0), 192000, fe)
    cond_r = condition(np.zeros(clap.n_samples), 192000, fe)
    sim_rate = int(round(1.0 / DT))
    clip = resample(AudioClip(192000, np.stack([cond_l, cond_r])),
                    sim_rate / 192000)
    spec = net.spec.with_injections((
        AnalogInjection(net.input_left, clip.channel(0), sim_rate),
        AnalogInjection(net.input_right, clip.channel(1), sim_rate),
    ))
    rec, _ = Simulation(spec, DT).run(clip.duration)  # chain settles well before
    detector_spikes = sum(1 for _, i in rec.events() if i in set(net.detectors))
    chain_fired = len(rec) == N_STAGES + 1  # left input plus its full chain

    ok = all(sums_ok) and detector_spikes == 0 and chain_fired
    report(9, ok, f"mirrored stimuli sum to N-1 +- 1 at 3 ITDs; single-chain "
                  f"stimulation fired {detector_spikes} detectors (chain "
                  f"itself fired {len(rec)} neurons)")
