"""Simulator of an analog-input spiking sound localizer.

A stereo transient is conditioned by a passive front-end model, injected
as a continuous voltage onto two LIF membranes, converted into a place
code by counter-directional delay chains with coincidence detectors, and
turned into direction events by an emulation of the embedded polling
readout.
"""

from .frontend import (
    AudioClip,
    ClapSpec,
    FrontEndParams,
    WavError,
    apply_itd,
    clap_envelope,
    condition,
    fractional_delay,
    load_wav,
    resample,
    synth_clap,
    write_trace_csv,
)
from .harness import (
    SweepConfig,
    SweepResult,
    TrialConfig,
    TrialResult,
    run_sweep,
    run_trial,
    run_trial_detailed,
    stats,
    trial_seed,
    write_stats_csv,
    write_sweep_csv,
    xcorr_oracle,
)
from .jeffress import (
    CalibrationError,
    CalibrationResult,
    GeometryParams,
    JeffressConfig,
    JeffressNetwork,
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
from .lif import (
    AnalogInjection,
    ExternalSpike,
    InjectionSection,
    LifParams,
    NetworkSpec,
    Simulation,
    SpikeRecord,
    SynapseSpec,
    TraceSet,
    quantize_weight,
    run,
)
from .readout import (
    DirectionEvent,
    PwmConfig,
    ReadoutSection,
    poll_loop,
    pwm_pulse_width,
    serial_decode,
    serial_encode,
    write_pwm_csv,
)

__version__ = "0.1.0"
