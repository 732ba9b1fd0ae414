"""Flat INI-style key=value configuration shared by the CLI subcommands.

A config file is a sequence of `key = value` lines with optional
`[section]` headers; sectioned keys flatten to `section.key`. Training
options live under `train.*`, architecture options under `model.*`, and
pipeline options (seed, quantiles, bin_width, ...) at top level. Every
value is resolved by `option`: a CLI flag that was given beats the file's
key, which beats the default.
"""

import configparser
from dataclasses import fields

from .errors import ConfigError
from .model import ModelConfig


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


def option(flag, mapping, key: str, default, kind=int):
    """`flag` unless it is None, else `mapping[key]` parsed as `kind`, else
    `default`.

    `kind` is int, float, str or list[int] (written comma-separated). A flag
    of 0 counts as given, so range checks downstream see what was typed.
    """
    if flag is not None:
        return flag
    raw = mapping.get(key)
    if raw is None:
        return default
    try:
        return [int(v) for v in raw.split(",")] if kind == list[int] else kind(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for {key!r}") from None


def _dataclass_from(cls, mapping: dict[str, str], prefix: str, flags: dict):
    """`cls` from the `prefix.*` keys, each parsed as its field's declared
    type; fields with neither a flag nor a key keep their defaults."""
    kinds = {f.name: f.type for f in fields(cls)}
    for key in section(mapping, prefix):
        if key not in kinds:
            raise ConfigError(f"unknown {prefix} config key {key!r}")
    values = {
        name: option(flags.get(name), mapping, f"{prefix}.{name}", None, kind)
        for name, kind in kinds.items()
    }
    return cls(**{name: v for name, v in values.items() if v is not None})


def train_config_from(mapping: dict[str, str], **flags) -> "TrainConfig":
    """TrainConfig from the `train.*` keys; a keyword that is not None
    beats its key."""
    from .train import TrainConfig  # here, so that loading a model never imports train

    return _dataclass_from(TrainConfig, mapping, "train", flags)


def model_config_from(mapping: dict[str, str]) -> ModelConfig:
    """ModelConfig from the `model.*` keys; list values are comma-separated."""
    return _dataclass_from(ModelConfig, mapping, "model", {})


def model_config_to_text(config: ModelConfig) -> str:
    """Serialize a ModelConfig as `model.*` key=value lines."""
    lines = []
    for f in fields(ModelConfig):
        value = getattr(config, f.name)
        if f.type == list[int]:
            value = ",".join(str(int(v)) for v in value)
        lines.append(f"model.{f.name} = {value}")
    return "\n".join(lines) + "\n"


def model_config_from_text(text: str) -> ModelConfig:
    """Inverse of `model_config_to_text`."""
    return model_config_from(_parse(text, "text"))
