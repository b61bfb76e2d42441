"""Run configuration: one JSON document that fully determines a run.

Loading is strict: unknown keys are rejected and every value passes the
owning dataclass's validation, so a dumped config reloads to an identical
run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .frontend import ClapSpec, FrontEndParams
from .jeffress import GeometryParams, JeffressConfig
from .lif import InjectionSection, check_dt
from .readout import PwmConfig, ReadoutSection


class ConfigError(ValueError):
    """Raised for unreadable, unknown or invalid configuration input."""


@dataclass(frozen=True)
class StimulusSection:
    sample_rate: int = 192000
    duration: float = 1.1e-3
    wav: str | None = None
    clap: ClapSpec = field(default_factory=ClapSpec)

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        if not 0 < self.duration < math.inf:
            raise ValueError("duration must be > 0 and finite")


@dataclass(frozen=True)
class SweepSection:
    itds_us: tuple[float, ...] = tuple(float(x) for x in np.linspace(-160, 160, 41))
    trials: int = 100
    noise_amplitude: float = 0.07
    base_seed: int = 2026

    def __post_init__(self):
        object.__setattr__(self, "itds_us", tuple(float(x) for x in self.itds_us))
        if not self.itds_us:
            raise ValueError("the ITD list must not be empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= self.noise_amplitude < math.inf:  # a NaN skips the noise
            raise ValueError("noise_amplitude must be >= 0 and finite")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    dt: float = 1e-7
    frontend: FrontEndParams = field(default_factory=FrontEndParams)
    geometry: GeometryParams = field(default_factory=GeometryParams)
    network: JeffressConfig = field(default_factory=JeffressConfig)
    injection: InjectionSection = field(default_factory=InjectionSection)
    readout: ReadoutSection = field(default_factory=ReadoutSection)
    pwm: PwmConfig = field(default_factory=PwmConfig)
    stimulus: StimulusSection = field(default_factory=StimulusSection)
    sweep: SweepSection = field(default_factory=SweepSection)

    def __post_init__(self):
        check_dt((self.network.input_params, self.network.neuron_params), self.dt)
        stim = self.stimulus
        if stim.wav is not None:  # the recording's length is known at run time
            return
        if stim.duration <= stim.clap.onset_time:
            raise ValueError("stimulus.duration must exceed the clap "
                             "onset_time unless stimulus.wav replaces the clap")
        # the synthesized clap's length, as synth_clap rounds it
        n = int(round(stim.duration * stim.sample_rate))
        if n < 1:
            raise ValueError(
                f"stimulus.duration={stim.duration:g}s gives no sample at "
                f"stimulus.sample_rate={stim.sample_rate} Hz")
        check_itds(self.sweep.itds_us, n / stim.sample_rate)


def check_itds(itds_us, clip_duration: float) -> None:
    """Every ITD must be a number shorter than the clip it delays (apply_itd)."""
    worst = float(np.max(np.abs(itds_us)))  # nan if any is
    if not worst * 1e-6 < clip_duration:
        raise ConfigError(f"|itd|={worst:g}us must be smaller than the clip "
                         f"duration {clip_duration * 1e6:g}us")


def _value(hint, value, here: str):
    """A JSON value as a field of type `hint` takes it: a section from an
    object, a tuple from an array, an int from an integer, a float from a
    finite number (neither from a bool), None only for an `X | None`."""
    args = get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        hint, args = args[0], get_args(args[0])  # `X | None` lists X first
    if is_dataclass(hint):
        return _build(hint, value, here)
    kind = get_origin(hint) or hint
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not {int: number and isinstance(value, int), tuple: isinstance(value, list),
            float: number and math.isfinite(value), bool: isinstance(value, bool),
            str: isinstance(value, str)}[kind]:
        raise ConfigError(f"{here}: expected {kind.__name__}, got {value!r}")
    if kind is tuple:
        return tuple(_value(args[0], x, f"{here}[{i}]") for i, x in enumerate(value))
    return value


def _build(cls, data, path):
    """Recursively instantiate dataclass `cls` from a mapping, rejecting
    unknown keys and values of the wrong type."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'top level'}: expected an object")
    hints = get_type_hints(cls)
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{path or 'top level'}: unknown keys {sorted(unknown)}")
    kwargs = {name: _value(hints[name], value, f"{path}.{name}" if path else name)
              for name, value in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path or 'top level'}: {exc}") from exc


def _to_plain(obj):
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_to_plain(x) for x in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def config_to_dict(cfg: RunConfig) -> dict:
    return _to_plain(cfg)


def config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig, data, "")


def dump_config(cfg: RunConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_config(cfg))
