"""Pipeline configuration: JSON file, explicit defaults, strict keys.

Precedence: built-in defaults < config file < the ``--seed`` and
``--input-mode`` flags; no environment variable is read. Paths are used
exactly as written (relative paths resolve against the working directory),
so identical runs from identical trees produce byte-identical outputs.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .registration import RegistrationError, RegistrationParams
from .training import INPUT_MODES, TrainConfig, TrainingError


class ConfigError(ValueError):
    """Malformed configuration file or flag combination."""


@dataclass
class PathsConfig:
    data_root: str = "data"
    cache_dir: str = "cache"
    output_dir: str = "out"


@dataclass
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    registration: RegistrationParams = field(default_factory=RegistrationParams)
    calibration_session: str = ""
    training: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def train_config(self, **overrides) -> TrainConfig:
        """Training section with the pipeline seed folded in."""
        try:
            return dataclasses.replace(self.training, **{"seed": self.seed, **overrides})
        except TrainingError as exc:
            raise ConfigError(str(exc)) from exc

    def registration_params(self) -> RegistrationParams:
        """Registration section with the pipeline seed folded in."""
        return dataclasses.replace(self.registration, seed=self.seed)


def config_to_dict(cfg: PipelineConfig) -> dict:
    d = dataclasses.asdict(cfg)
    for value in d.values():
        if isinstance(value, dict):
            value.pop("seed", None)  # the pipeline seed is the single source
    return d


def _check_type(name: str, value, default) -> None:
    """``value`` has exactly ``default``'s type: a bool never stands for an int."""
    kind = type(default)
    if type(value) is not kind:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")


def _apply_section(obj, values, section: str):
    """Copy of a config section with ``values`` applied, type-checked and validated."""
    if not isinstance(values, dict):
        raise ConfigError(f"{section} must be an object, got {values!r}")
    defaults = {f.name: f.default for f in dataclasses.fields(obj)}
    if "seed" in defaults and "seed" in values:
        raise ConfigError(f"{section}.seed is not a key; set the top-level seed")
    defaults.pop("seed", None)
    unknown = set(values) - set(defaults)
    if unknown:
        named = ", ".join(f"{section}.{key}" for key in sorted(unknown))
        raise ConfigError(f"unknown key(s) {named}; allowed in {section}: {sorted(defaults)}")
    for key, value in values.items():
        _check_type(f"{section}.{key}", value, defaults[key])
    try:
        return dataclasses.replace(obj, **values)
    except (RegistrationError, TrainingError) as exc:
        raise ConfigError(str(exc)) from exc


def config_from_dict(data: dict) -> PipelineConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    cfg = PipelineConfig()
    names = [f.name for f in dataclasses.fields(cfg)]
    unknown = set(data) - set(names)
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}; "
                          f"allowed: {sorted(names)}")
    for name in names:
        if name not in data:
            continue
        value, default = data[name], getattr(cfg, name)
        if dataclasses.is_dataclass(default):
            value = _apply_section(default, value, name)
        else:
            _check_type(name, value, default)
        setattr(cfg, name, value)
    return cfg


def load_config(path) -> PipelineConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def resolve_config(config_path: str | None, seed: int | None = None,
                   input_mode: str | None = None) -> PipelineConfig:
    """Defaults, then file, then flags."""
    cfg = load_config(config_path) if config_path else PipelineConfig()
    if seed is not None:
        cfg.seed = seed
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if input_mode is not None:
        if input_mode not in INPUT_MODES:
            raise ConfigError(f"--input-mode must be one of {INPUT_MODES}, got {input_mode}")
        cfg.training.input_mode = input_mode
    return cfg


def render_config(cfg: PipelineConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def write_resolved_config(cfg: PipelineConfig, path) -> None:
    """Echo the fully resolved configuration next to a command's outputs."""
    Path(path).write_text(render_config(cfg))
