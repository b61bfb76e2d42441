"""Run configuration: one JSON document that fully determines a run.

Loading is strict: unknown keys are rejected and every value passes the
owning dataclass's validation, so a dumped config reloads to an identical
run.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_args, get_type_hints

import numpy as np

from .frontend import ClapSpec, FrontEndParams
from .jeffress import GeometryParams, JeffressConfig
from .lif import LifParams
from .readout import PwmConfig


class ConfigError(ValueError):
    """Raised for unreadable, unknown or invalid configuration input."""


@dataclass(frozen=True)
class NetworkSection:
    n_stages: int = 50
    chain_weight: float = JeffressConfig().chain_weight
    coincidence_weight: float | None = None
    left_first_index: bool = True
    w_lsb: float | None = None
    neuron: LifParams = field(default_factory=LifParams)
    input_neuron: LifParams | None = None

    def to_jeffress(self) -> JeffressConfig:
        return JeffressConfig(
            n_stages=self.n_stages,
            chain_weight=self.chain_weight,
            coincidence_weight=self.coincidence_weight,
            neuron_params=self.neuron,
            input_neuron_params=self.input_neuron,
            left_first_index=self.left_first_index,
            w_lsb=self.w_lsb,
        )


@dataclass(frozen=True)
class InjectionSection:
    r_src: float = 110e3
    mode: str = "resistive"

    def __post_init__(self):
        if self.r_src <= 0:
            raise ValueError("r_src must be > 0")
        if self.mode not in ("resistive", "trigger"):
            raise ValueError(f"unknown injection mode {self.mode!r}")


@dataclass(frozen=True)
class ReadoutSection:
    iteration_time: float = 55e-6
    dead_time: float = 0.2

    def __post_init__(self):
        if self.iteration_time <= 0:
            raise ValueError("iteration_time must be > 0")
        if self.dead_time < 0:
            raise ValueError("dead_time must be >= 0")


@dataclass(frozen=True)
class StimulusSection:
    sample_rate: int = 192000
    duration: float = 1.1e-3
    wav: str | None = None
    clap: ClapSpec = field(default_factory=ClapSpec)

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")


@dataclass(frozen=True)
class SweepSection:
    itds_us: tuple = tuple(float(x) for x in np.linspace(-160, 160, 41))
    trials: int = 100
    noise_amplitude: float = 0.07
    base_seed: int = 2026

    def __post_init__(self):
        object.__setattr__(self, "itds_us", tuple(float(x) for x in self.itds_us))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.noise_amplitude < 0:
            raise ValueError("noise_amplitude must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    dt: float = 1e-7
    frontend: FrontEndParams = field(default_factory=FrontEndParams)
    geometry: GeometryParams = field(default_factory=GeometryParams)
    network: NetworkSection = field(default_factory=NetworkSection)
    injection: InjectionSection = field(default_factory=InjectionSection)
    readout: ReadoutSection = field(default_factory=ReadoutSection)
    pwm: PwmConfig = field(default_factory=PwmConfig)
    stimulus: StimulusSection = field(default_factory=StimulusSection)
    sweep: SweepSection = field(default_factory=SweepSection)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")


def _build(cls, data, path):
    """Recursively instantiate dataclass `cls` from a mapping, rejecting
    unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'top level'}: expected an object")
    hints = get_type_hints(cls)
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{path or 'top level'}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        hint = hints[name]
        # the dataclass of a section, also inside an `X | None` annotation
        sub = next((t for t in (hint, *get_args(hint)) if is_dataclass(t)), None)
        here = f"{path}.{name}" if path else name
        if sub is not None and value is not None:
            kwargs[name] = _build(sub, value, here)
        else:
            kwargs[name] = tuple(value) if isinstance(value, list) else value
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_config(cfg))


def tuned_copy(cfg: RunConfig, chain_weight: float) -> RunConfig:
    """Config with the network chain weight replaced."""
    network = dataclasses.replace(cfg.network, chain_weight=chain_weight)
    return dataclasses.replace(cfg, network=network)
