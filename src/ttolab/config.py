"""Run configuration: JSON file -> validated nested dataclasses.

Unknown keys are rejected (typos should fail loudly, exit code 2).  Every
value, from the file or a CLI override, takes one typed path: it is
converted to the type of its field's default (a list entry to that of the
default's entries), then checked against the range its field declares
beside the default.  An error names `section.key`, with `[i]` for a list
entry.  CLI flags override file values; the seed is recorded in every
report so runs can be reproduced.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .harmonic import QuadratureSettings


class ConfigError(Exception):
    pass


# The ranges a field declares: a test of one value, and how errors say it.
def _at_least(low):
    return lambda x: x >= low, f">= {low}"


_POSITIVE = (lambda x: 0 < x < math.inf, "positive and finite")
_UNIT = (lambda x: 0 < x < 1, "in (0, 1)")
_FINITE = (math.isfinite, "finite")


def _ranged(default, valid):
    """A field with its default and the range its value, or each entry of
    a list, must lie in."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"range": valid})
    return field(default=default, metadata={"range": valid})


@dataclass
class QuadratureConfig:
    # QuadratureSettings checks these; settings() names the section
    m_init: int = 256
    m_cap: int = 1 << 20
    tol: float = 1e-12

    def settings(self) -> QuadratureSettings:
        try:
            return QuadratureSettings(self.m_init, self.m_cap, self.tol)
        except ValueError as exc:
            raise ConfigError(f"quadrature.{exc}") from exc


@dataclass
class ToleranceConfig:
    identity: float = _ranged(1e-10, _POSITIVE)      # exact structural identities
    spectral: float = _ranged(1e-8, _POSITIVE)       # eigenvalue / equivalence comparisons
    nehari_slack: float = _ranged(1e-6, _POSITIVE)   # dual lower-bound slack


@dataclass
class SweepConfig:
    seed: int = _ranged(20250815, _at_least(0))
    max_zero_modulus: float = _ranged(0.9, _UNIT)
    min_zero_gap: float = _ranged(0.12, _UNIT)


@dataclass
class EssentialConfig:
    n_list: list = _ranged([2, 4, 6, 8, 10, 12, 13, 14], _at_least(1))
    delta: float = _ranged(0.05, _POSITIVE)
    ratio: float = _ranged(0.5, _UNIT)     # zeros approach the boundary like 1 - ratio^n
    quad_tol: float = _ranged(1e-10, _POSITIVE)
    gram_tol: float = _ranged(1e-7, _POSITIVE)


@dataclass
class DecayConfig:
    n_max: int = _ranged(12, _at_least(1))
    ratio: float = _ranged(0.5, _UNIT)
    threshold: float = _ranged(0.05, _POSITIVE)
    quad_tol: float = _ranged(1e-10, _POSITIVE)
    gram_tol: float = _ranged(1e-7, _POSITIVE)


@dataclass
class NehariConfig:
    instances: int = _ranged(50, _at_least(1))
    multistart: int = _ranged(64, _at_least(1))     # accepted for old configs; ignored
    grid_m: int = _ranged(4096, _at_least(2))
    max_degree: int = _ranged(4, _at_least(1))
    max_band: int = _ranged(3, _at_least(1))
    r_list: list = _ranged([0.9, 0.99, 0.999], _UNIT)


@dataclass
class BesovConfig:
    degree: int = _ranged(3, _at_least(1))
    alpha_angle: float = _ranged(0.0, _FINITE)
    p_list: list = _ranged([0.5, 1.0, 2.0], _POSITIVE)
    eps_grid: list = _ranged([0.05, 0.1, 0.2, 0.4, 0.8, 1.2, 2.0], _POSITIVE)


@dataclass
class ConjectureConfig:
    degrees: list = _ranged([2, 3], _at_least(1))
    corpus: int = _ranged(12, _at_least(1))
    alpha_angle: float = _ranged(0.0, _FINITE)
    p_list: list = _ranged([0.5, 1.0, 2.0], _POSITIVE)
    max_band: int = _ranged(4, _at_least(1))


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
        """Type every section value like its field's default, then check
        the value, or each entry of a list, against the field's range."""
        for where, cls in _SECTIONS.items():
            section, defaults = getattr(self, where), cls()
            for f in dataclasses.fields(cls):
                key = f"{where}.{f.name}"
                value = _coerce_like(key, getattr(defaults, f.name),
                                     getattr(section, f.name))
                setattr(section, f.name, value)
                if value == []:
                    raise ConfigError(f"{key} must not be empty")
                if "range" not in f.metadata:
                    continue
                valid, phrase = f.metadata["range"]
                entries = value if isinstance(value, list) else [value]
                for i, entry in enumerate(entries):
                    if not valid(entry):
                        at = f"{key}[{i}]" if isinstance(value, list) else key
                        raise ConfigError(f"{at} must be {phrase}, got {entry!r}")
        for i, n in enumerate(self.essential.n_list):
            _check_geometric_zero(f"essential.n_list[{i}]", n, self.essential.ratio)
        _check_geometric_zero("decay.n_max", self.decay.n_max, self.decay.ratio)
        self.quadrature.settings()
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _check_geometric_zero(key, n, ratio):
    """Refuse a step n whose zero 1 - ratio^n (`geometric_zero_generator`)
    rounds to 1, off the open disk."""
    try:
        inside = 1.0 - ratio ** n < 1.0
    except OverflowError:           # n beyond any float: ratio^n is 0
        inside = False
    if not inside:
        raise ConfigError(f"{key} = {n} puts the zero 1 - ratio^n at 1 in double "
                          f"precision (ratio {ratio!r})")


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(RunConfig)
             if f.default_factory is not dataclasses.MISSING}


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a JSON object")
    flat = {}
    for key, value in data.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"section {key} must be a JSON object")
            flat.update((f"{key}.{name}", entry) for name, entry in value.items())
        elif key == "output_dir":
            flat[key] = value
        else:
            raise ConfigError(f"unknown configuration key {key}")
    return apply_overrides(RunConfig(), flat)


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


def _coerce_like(path, default, value):
    """A value in the type of its field's default, a list's entries in the
    type of the default's entries.  Bools are refused for numbers, and
    numbers with a fraction for integers."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} expects a JSON list, got {value!r}")
        return [_coerce_like(f"{path}[{i}]", default[0], entry)
                for i, entry in enumerate(value)]
    if isinstance(default, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            try:
                return int(value)
            except ValueError:
                pass
        raise ConfigError(f"{path} expects an integer, got {value!r}")
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{path} expects a number, got {value!r}")


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Dotted-path values, e.g. {"sweep.seed": 7} from CLI flags, set on
    the config, which is then validated."""
    for path, value in overrides.items():
        section, _, key = path.partition(".")
        if path == "output_dir":
            if not isinstance(value, str):
                raise ConfigError(f"output_dir must be a string, got {value!r}")
            config.output_dir = value
        elif section in _SECTIONS and key in _SECTIONS[section].__dataclass_fields__:
            setattr(getattr(config, section), key, value)
        else:
            raise ConfigError(f"unknown key {path}")
    return config.validate()
