"""Run configuration files, environment overrides, and the run manifest.

Config files are plain ``key = value`` lines with ``#`` comments, mapping
one-to-one onto EvolutionConfig plus run-level paths. Scalar fields may be
overridden by ``FLOWEVO_<KEY>`` environment variables; command-line flags
take precedence over both (flag > env > file > default).
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import __version__
from .engine import EvolutionConfig
from .operators import OperatorKind


class ConfigError(Exception):
    pass


# config key -> EvolutionConfig field, for every field with a scalar default; a
# value read for the key is cast to the type of that default
_SCALAR_KEYS = {f.name.rstrip("_"): f.name for f in fields(EvolutionConfig) if f.default is not None}


@dataclass
class RunConfig:
    """Everything needed to reproduce one evolution run."""

    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    seeds: tuple[str, ...] = ()
    history: str = "history.jsonl"
    manifest: str = "manifest.json"
    registry: str | None = None
    proposer_cmd: str | None = None
    judge_cmd: str | None = None
    evaluator_cmd: str | None = None

    def to_dict(self) -> dict:
        out = {key: getattr(self.evolution, name) for key, name in _SCALAR_KEYS.items()}
        out["operator_weights"] = {k.value: v for k, v in self.evolution.weights().items()}
        out.update((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "evolution")
        out["seeds"] = list(self.seeds)
        return out


def _parse_file(path) -> dict:
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 ({exc})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _env_overrides() -> dict:
    values = {}
    for key in _SCALAR_KEYS:
        env_name = "FLOWEVO_" + key.upper()
        if env_name in os.environ:
            values[key] = os.environ[env_name]
    return values


def load_run_config(path=None, overrides=None) -> RunConfig:
    """Merge file, environment, and explicit overrides into a RunConfig."""
    raw: dict = {}
    if path is not None:
        raw.update(_parse_file(path))
    raw.update(_env_overrides())
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value

    if "crossover_rate" in raw and any(key.startswith("weights.") for key in raw):
        # the weights replace the crossover_rate split whole, so the rate would be ignored
        raise ConfigError("crossover_rate cannot be combined with weights.* keys; use weights.crossover")

    # only the keys that were set: EvolutionConfig states every default
    knobs: dict = {}
    for key, name in _SCALAR_KEYS.items():
        if key in raw:
            try:
                knobs[name] = type(getattr(EvolutionConfig, name))(raw.pop(key))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc

    weights = {}
    for key in list(raw):
        if key.startswith("weights."):
            name = key[len("weights.") :]
            try:
                weights[OperatorKind(name)] = float(raw.pop(key))
            except ValueError as exc:
                raise ConfigError(f"bad operator weight {key!r}: {exc}") from exc
    if weights:
        knobs["operator_weights"] = weights

    try:
        evolution = EvolutionConfig(**knobs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    seeds = tuple(
        part.strip() for part in raw.pop("seeds", "").split(",") if part.strip()
    )
    config = RunConfig(evolution=evolution, seeds=seeds)
    for f in fields(RunConfig)[2:]:  # the paths and commands, after evolution and seeds
        if f.name in raw:
            setattr(config, f.name, raw.pop(f.name) or None)
    if raw:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(raw))}")
    return config


def write_manifest(config: RunConfig, path) -> None:
    manifest = {
        "tool": "flowevo",
        "version": __version__,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": config.to_dict(),
    }
    Path(path).write_text(json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
