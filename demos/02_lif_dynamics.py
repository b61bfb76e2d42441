#!/usr/bin/env python3
"""Microsecond-scale LIF behavior: exact leak decay, the synaptic kernel
that creates the per-stage delay, and direct analog drive.

All time constants sit at 15 us, so post-synaptic potentials rise within a
few microseconds; that rise time is the delay element the localization
chains are built from.
"""

import numpy as np

from itdloc import (
    AnalogInjection,
    ExternalSpike,
    InjectionSection,
    LifParams,
    NetworkSpec,
    Simulation,
    run,
    single_spike_fire_weight,
)

DT = 1e-7

# 1. free decay from 1 V toward a 0 V leak: exactly exp(-t / tau_m)
p = LifParams(v_leak=0.0, v_thresh=2.0, v_reset=-0.5)
sim = Simulation(NetworkSpec(neurons=(p,)), DT)
sim.v[:] = 1.0
sim.run(15e-6)
print(f"decay after one tau_m: v = {sim.v[0]:.6f}  (exp(-1) = {np.exp(-1):.6f})")

# 2. one presynaptic spike at twice the just-fires weight
params = LifParams()
w = 2.0 * single_spike_fire_weight(params)
spec = NetworkSpec(neurons=(params,),
                   external_spikes=(ExternalSpike(10e-6, 0, w),))
record, traces = run(spec, 100e-6, DT, record_traces=[0])
t_spike = record.times[0]
print(f"spike input at 10 us -> output spike at {t_spike * 1e6:.1f} us "
      f"(PSP rise supplies the {1e6 * (t_spike - 10e-6):.1f} us delay)")

# 3. continuous voltage drive through a 110 kOhm source
drive = np.full(4000, 1.19)
inj = AnalogInjection(0, drive, 1_000_000, InjectionSection(r_src=110e3))
record, _ = run(NetworkSpec(neurons=(params,), injections=(inj,)), 3e-3, DT)
isis = np.diff(record.times)
print(f"super-threshold analog drive: {len(record)} spikes, "
      f"ISI = {isis.mean() * 1e3:.3f} ms (refractory floor "
      f"{params.t_ref * 1e3:.1f} ms)")
