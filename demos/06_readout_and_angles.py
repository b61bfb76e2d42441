#!/usr/bin/env python3
"""The readout side: polling-program semantics on a crafted spike stream,
servo PWM encoding, and converting detector positions into azimuth angles.
"""

import math
from pathlib import Path

import numpy as np

from itdloc import (
    DirectionEvent,
    GeometryParams,
    PwmConfig,
    ReadoutSection,
    SpikeRecord,
    detector_to_itd,
    planewave_angle,
    poll_loop,
    pwm_pulse_width,
    serial_encode,
    woodworth_angle,
    write_pwm_csv,
)

# polling: two detectors fire inside the first 55 us iteration, one more
# during the dead time (discarded), a second burst 250 ms later
spikes = [(30e-6, 21), (41e-6, 25), (80e-6, 30), (0.25, 40)]
record = SpikeRecord(50, [t for t, _ in spikes], [i for _, i in spikes])
events = poll_loop(record, ReadoutSection(), tuple(range(50)), t_end=0.3)
print("crafted stream ->", len(events), "events")
for ev in events:
    print("  " + serial_encode(ev).strip(),
          f"(pulse width {pwm_pulse_width(ev.direction, 50, PwmConfig()) * 1e3:.3f} ms)")

Path("out").mkdir(exist_ok=True)
write_pwm_csv("out/pwm_schedule.csv", events[0].direction, 50, PwmConfig(),
              n_periods=3)
print("wrote out/pwm_schedule.csv (t_s, level)")

# place code -> angle, for a 3.8 us stage delay and 51 mm spacing
delta, n = 3.8e-6, 50
geom = GeometryParams(mic_distance=0.051)
print("\ndetector  itd_us   woodworth_deg  planewave_deg")
for j in (0, 10, 24.5, 39, 49):
    itd = detector_to_itd(j, delta, n)
    inside = abs(itd) <= 0.0255 / 343 * (math.pi / 2 + 1)
    wood = math.degrees(woodworth_angle(itd, geom)) if inside else float("nan")
    try:
        plane = math.degrees(planewave_angle(itd, geom.mic_distance))
    except ValueError:
        plane = float("nan")
    print(f"{j:8} {itd * 1e6:+8.1f} {wood:13.1f} {plane:14.1f}")
print("\n(the outermost detectors code delays beyond the physical half-space;"
      "\n they only fire for jittered or artificial stimuli)")
