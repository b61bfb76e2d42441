"""A fixed reference kernel that measures how fast the host is right now.

The benchmark runs on shared hosts whose speed drifts by up to 1.7x for
seconds to minutes at a time, with the same code and inputs. Timing this
kernel next to every call and dividing it out leaves the program's own
speed. The kernel belongs to the benchmark and never changes with
itdloc, so a change to itdloc moves the normalized figures by exactly its
own effect. Its instruction mix is the simulator's: a per-step Python
loop of small numpy operations on a 152-neuron state, plus a vectorized
pass over a signal of about 1 MB (the front end's kind of work).
"""

from __future__ import annotations

import time

import numpy as np

# normalized times are seconds on a host where reference() takes this long
REF_SECONDS = 0.1

_N = 152
_STEPS = 4000
_SIGNAL = 1 << 16


def _state():
    rng = np.random.default_rng(12345)
    weights = rng.random((_N, _N)) * 0.01
    drive = rng.random(_N) * 0.2
    signal = rng.standard_normal(_SIGNAL)
    return weights, drive, signal


_WEIGHTS, _DRIVE, _SIGNAL_DATA = _state()


def reference() -> float:
    """Run the kernel once; return its host seconds. Deterministic work."""
    v = np.zeros(_N)
    i_syn = np.zeros(_N)
    t0 = time.perf_counter()
    for _ in range(_STEPS):  # LIF-like stepping
        i_syn *= 0.95
        i_syn += _DRIVE
        v += 0.05 * (i_syn - v)
        fired = np.flatnonzero(v > 1.0)
        if fired.size:
            v[fired] = 0.0
            i_syn += _WEIGHTS[:, fired].sum(axis=1)
    grid = np.linspace(0.0, _SIGNAL - 1.0, 2 * _SIGNAL)  # resample-like
    up = np.interp(grid, np.arange(_SIGNAL), _SIGNAL_DATA)
    np.cumsum(np.abs(up), out=up)
    return time.perf_counter() - t0


def normalized(call_s: list, ref_s: list) -> list:
    """Each call's host time at the reference speed: call i is scaled by
    the mean of the reference runs just before and just after it, so
    ref_s holds one more entry than call_s."""
    if len(ref_s) != len(call_s) + 1:
        raise ValueError("need one reference run before each call and one after the last")
    return [c * 2 * REF_SECONDS / (ref_s[i] + ref_s[i + 1])
            for i, c in enumerate(call_s)]
