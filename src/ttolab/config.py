"""Run configuration: JSON file -> validated nested dataclasses.

Unknown keys are rejected (typos should fail loudly, exit code 2), file
values and CLI overrides alike take the type of the field they set, and
every tolerance is checked positive.  CLI flags override file values;
the seed is recorded in every report so runs can be reproduced.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .harmonic import QuadratureSettings


class ConfigError(Exception):
    pass


def positive_exponents(values, name: str) -> list:
    """The exponents as floats; ConfigError unless each is positive."""
    try:
        exponents = [float(p) for p in values]
        if all(p > 0 for p in exponents):
            return exponents
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{name} entries must be positive numbers")


def _check_positive(section, where: str, names):
    for name in names:
        if not getattr(section, name) > 0:
            raise ConfigError(f"{where}.{name} must be positive")


@dataclass
class QuadratureConfig:
    m_init: int = 256
    m_cap: int = 1 << 20
    tol: float = 1e-12

    def settings(self) -> QuadratureSettings:
        try:
            return QuadratureSettings(self.m_init, self.m_cap, self.tol)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class ToleranceConfig:
    identity: float = 1e-10      # exact structural identities
    spectral: float = 1e-8       # eigenvalue / equivalence comparisons
    nehari_slack: float = 1e-6   # dual lower-bound slack

    def validate(self):
        _check_positive(self, "tolerances", ("identity", "spectral", "nehari_slack"))


@dataclass
class SweepConfig:
    seed: int = 20250815
    max_zero_modulus: float = 0.9
    min_zero_gap: float = 0.12

    def validate(self):
        if not 0 < self.max_zero_modulus < 1:
            raise ConfigError("sweep.max_zero_modulus must lie in (0, 1)")


@dataclass
class EssentialConfig:
    n_list: list = field(default_factory=lambda: [2, 4, 6, 8, 10, 12, 13, 14])
    delta: float = 0.05
    ratio: float = 0.5           # zeros approach the boundary like 1 - ratio^n
    quad_tol: float = 1e-10
    gram_tol: float = 1e-7

    def validate(self):
        if not self.n_list or any(int(n) < 1 for n in self.n_list):
            raise ConfigError("essential.n_list must hold positive integers")
        if not 0 < self.ratio < 1:
            raise ConfigError("essential.ratio must lie in (0, 1)")
        _check_positive(self, "essential", ("delta", "quad_tol", "gram_tol"))


@dataclass
class DecayConfig:
    n_max: int = 12
    ratio: float = 0.5
    threshold: float = 0.05
    quad_tol: float = 1e-10
    gram_tol: float = 1e-7

    def validate(self):
        if self.n_max < 1:
            raise ConfigError("decay.n_max must be >= 1")
        if not 0 < self.ratio < 1:
            raise ConfigError("decay.ratio must lie in (0, 1)")
        _check_positive(self, "decay", ("threshold", "quad_tol", "gram_tol"))


@dataclass
class NehariConfig:
    instances: int = 50
    multistart: int = 64            # accepted for old configs; ignored
    grid_m: int = 4096
    max_degree: int = 4
    max_band: int = 3
    r_list: list = field(default_factory=lambda: [0.9, 0.99, 0.999])

    def validate(self):
        if self.instances < 1 or self.multistart < 1:
            raise ConfigError("nehari counts must be >= 1")
        if self.grid_m < 2:
            raise ConfigError("nehari.grid_m must be >= 2")
        if any(not 0 < float(r) < 1 for r in self.r_list):
            raise ConfigError("nehari.r_list entries must lie in (0, 1)")


@dataclass
class BesovConfig:
    degree: int = 3
    alpha_angle: float = 0.0
    p_list: list = field(default_factory=lambda: [0.5, 1.0, 2.0])
    eps_grid: list = field(default_factory=lambda: [0.05, 0.1, 0.2, 0.4,
                                                    0.8, 1.2, 2.0])

    def validate(self):
        if self.degree < 1:
            raise ConfigError("besov.degree must be >= 1")
        positive_exponents(self.p_list, "besov.p_list")
        positive_exponents(self.eps_grid, "besov.eps_grid")


@dataclass
class ConjectureConfig:
    degrees: list = field(default_factory=lambda: [2, 3])
    corpus: int = 12
    alpha_angle: float = 0.0
    p_list: list = field(default_factory=lambda: [0.5, 1.0, 2.0])
    max_band: int = 4

    def validate(self):
        if self.corpus < 1:
            raise ConfigError("conjecture.corpus must be >= 1")
        if any(int(d) < 1 for d in self.degrees):
            raise ConfigError("conjecture.degrees must hold positive integers")
        positive_exponents(self.p_list, "conjecture.p_list")


_SECTIONS = {
    "quadrature": QuadratureConfig,
    "tolerances": ToleranceConfig,
    "sweep": SweepConfig,
    "essential": EssentialConfig,
    "decay": DecayConfig,
    "nehari": NehariConfig,
    "besov": BesovConfig,
    "conjecture": ConjectureConfig,
}


@dataclass
class RunConfig:
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    essential: EssentialConfig = field(default_factory=EssentialConfig)
    decay: DecayConfig = field(default_factory=DecayConfig)
    nehari: NehariConfig = field(default_factory=NehariConfig)
    besov: BesovConfig = field(default_factory=BesovConfig)
    conjecture: ConjectureConfig = field(default_factory=ConjectureConfig)
    output_dir: str = ""

    def validate(self) -> "RunConfig":
        self.quadrature.settings()
        for name in _SECTIONS:
            section = getattr(self, name)
            if hasattr(section, "validate"):
                section.validate()
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _fill_section(cls, data: dict, where: str):
    known = {f.name for f in dataclasses.fields(cls)}
    section = cls()
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"unknown key {where}.{key}")
        setattr(section, key, _coerce_like(f"{where}.{key}", getattr(section, key), value))
    return section


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    kwargs = {}
    for key, value in data.items():
        if key == "output_dir":
            if not isinstance(value, str):
                raise ConfigError("output_dir must be a string")
            kwargs[key] = value
        elif key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key} must be a JSON object")
            kwargs[key] = _fill_section(_SECTIONS[key], value, key)
        else:
            raise ConfigError(f"unknown configuration key {key}")
    return RunConfig(**kwargs).validate()


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig().validate()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def _coerce_like(path, current, value):
    """A file value or override in the type of the field it sets.  Bools
    are refused for numbers, and numbers with a fraction for integers."""
    if isinstance(current, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            try:
                return int(value)
            except ValueError:
                pass
        raise ConfigError(f"{path} expects an integer, got {value!r}")
    if isinstance(current, float):
        if not isinstance(value, bool):
            try:
                return float(value)
            except (TypeError, ValueError):
                pass
        raise ConfigError(f"{path} expects a number, got {value!r}")
    if isinstance(current, list) and not isinstance(value, list):
        raise ConfigError(f"{path} expects a JSON list, got {value!r}")
    return value


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Dotted-path overrides from CLI flags, e.g. {"sweep.seed": 7}."""
    for path, value in overrides.items():
        if value is None:
            continue
        if path == "output_dir":
            config.output_dir = str(value)
            continue
        section, _, key = path.partition(".")
        if section not in _SECTIONS or not key:
            raise ConfigError(f"unknown override {path}")
        target = getattr(config, section)
        if key not in {f.name for f in dataclasses.fields(target)}:
            raise ConfigError(f"unknown override {path}")
        setattr(target, key, _coerce_like(path, getattr(target, key), value))
    return config.validate()
