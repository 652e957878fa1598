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
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .engine import EvolutionConfig
from .operators import OperatorKind


class ConfigError(Exception):
    pass


_SCALAR_KEYS = {
    "lambda": float,
    "alpha": float,
    "candidate_pool": int,
    "max_rounds": int,
    "num_tries": int,
    "seed": int,
    "crossover_rate": float,
    "site_budget": int,
    "domain": str,
    "scenario": str,
}

_PATH_KEYS = ("history", "manifest", "registry")
_CMD_KEYS = ("proposer_cmd", "judge_cmd", "evaluator_cmd")


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
        weights = {k.value: v for k, v in self.evolution.weights().items()}
        return {
            "lambda": self.evolution.lambda_,
            "alpha": self.evolution.alpha,
            "candidate_pool": self.evolution.candidate_pool,
            "max_rounds": self.evolution.max_rounds,
            "num_tries": self.evolution.num_tries,
            "seed": self.evolution.seed,
            "crossover_rate": self.evolution.crossover_rate,
            "site_budget": self.evolution.site_budget,
            "domain": self.evolution.domain,
            "scenario": self.evolution.scenario,
            "operator_weights": weights,
            "seeds": list(self.seeds),
            "history": self.history,
            "manifest": self.manifest,
            "registry": self.registry,
            "proposer_cmd": self.proposer_cmd,
            "judge_cmd": self.judge_cmd,
            "evaluator_cmd": self.evaluator_cmd,
        }


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

    # only the keys that were set: EvolutionConfig states every default
    knobs: dict = {}
    for key, cast in _SCALAR_KEYS.items():
        if key in raw:
            try:
                knobs["lambda_" if key == "lambda" else key] = cast(raw.pop(key))
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
    for key in _PATH_KEYS + _CMD_KEYS:
        if key in raw:
            setattr(config, key, raw.pop(key) or None)
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


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
