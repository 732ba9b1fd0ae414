"""Flat INI-style key=value configuration shared by the CLI subcommands.

A config file is a sequence of `key = value` lines with optional
`[section]` headers; sectioned keys flatten to `section.key`. Training
options live under `train.*`, architecture options under `model.*`, and
pipeline options (seed, quantiles, bin_width, ...) at top level. CLI flags
always take precedence over file values.
"""

import configparser
from dataclasses import fields

from .errors import ConfigError
from .model import ModelConfig
from .train import TrainConfig

_LIST_FIELDS = {"stage_channels", "stage_heads", "stage_strides", "stage_depths", "sr_ratios"}


def read_config(path) -> dict[str, str]:
    """Parse a key=value file into a flat string mapping."""
    with open(path) as fh:
        return _parse(fh.read(), path)


def _parse(text: str, source) -> dict[str, str]:
    """Flatten key=value text; `source` names it in a ConfigError."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case as written
    try:
        # headerless files are valid; give them an implicit top section
        parser.read_string("[top]\n" + text)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config {source}: {err}") from None
    flat = {}
    for section in parser.sections():
        prefix = "" if section == "top" else f"{section}."
        for key, value in parser.items(section):
            flat[f"{prefix}{key}"] = value.strip()
    return flat


def section(mapping: dict[str, str], prefix: str) -> dict[str, str]:
    """Keys under `prefix.` with the prefix stripped."""
    start = prefix + "."
    return {k[len(start) :]: v for k, v in mapping.items() if k.startswith(start)}


def number(mapping, key: str, default, kind=int):
    """`mapping[key]` parsed by `kind` (int or float), or `default` when absent."""
    raw = mapping.get(key)
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for {key!r}") from None


def train_config_from(mapping: dict[str, str], **overrides) -> TrainConfig:
    """TrainConfig from the `train.*` keys plus keyword overrides."""
    values = section(mapping, "train")
    values.update({k: str(v) for k, v in overrides.items() if v is not None})
    return TrainConfig.from_mapping(values)


def model_config_from(mapping: dict[str, str]) -> ModelConfig:
    """ModelConfig from the `model.*` keys; list values are comma-separated."""
    values = section(mapping, "model")
    known = {f.name for f in fields(ModelConfig)}
    kwargs = {}
    for key, raw in values.items():
        if key not in known:
            raise ConfigError(f"unknown model config key {key!r}")
        try:
            kwargs[key] = [int(v) for v in raw.split(",")] if key in _LIST_FIELDS else int(raw)
        except ValueError:
            raise ConfigError(f"bad value {raw!r} for model config key {key!r}") from None
    return ModelConfig(**kwargs)


def model_config_to_text(config: ModelConfig) -> str:
    """Serialize a ModelConfig as `model.*` key=value lines."""
    lines = []
    for f in fields(ModelConfig):
        value = getattr(config, f.name)
        if f.name in _LIST_FIELDS:
            value = ",".join(str(int(v)) for v in value)
        lines.append(f"model.{f.name} = {value}")
    return "\n".join(lines) + "\n"


def model_config_from_text(text: str) -> ModelConfig:
    """Inverse of `model_config_to_text`."""
    return model_config_from(_parse(text, "text"))
