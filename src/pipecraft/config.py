"""Configuration objects: operator thresholds, evaluation settings, run settings."""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

ENV_AGENT_ENDPOINT = "PIPECRAFT_AGENT_ENDPOINT"
ENV_EMBEDDER_ENDPOINT = "PIPECRAFT_EMBEDDER_ENDPOINT"
ENV_SCREENER_ENDPOINT = "PIPECRAFT_SCREENER_ENDPOINT"
ENV_TRAINER_ENDPOINT = "PIPECRAFT_TRAINER_ENDPOINT"
ENV_CACHE_ROOT = "PIPECRAFT_CACHE_ROOT"


class ConfigError(ValueError):
    """Invalid or missing configuration."""


@dataclass(frozen=True)
class MinhashConfig:
    shingle_size: int = 5
    num_permutations: int = 128
    bands: int = 16
    rows_per_band: int = 8
    jaccard_threshold: float = 0.8

    def __post_init__(self) -> None:
        if self.bands * self.rows_per_band != self.num_permutations:
            raise ConfigError("bands * rows_per_band must equal num_permutations")
        if not 0.0 <= self.jaccard_threshold <= 1.0:
            raise ConfigError("jaccard_threshold must be in [0, 1]")
        if self.shingle_size < 1:
            raise ConfigError("shingle_size must be >= 1")


@dataclass(frozen=True)
class NgramConfig:
    n: int = 5
    max_repetition_ratio: float = 0.3

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("ngram n must be >= 1")
        if not 0.0 <= self.max_repetition_ratio <= 1.0:
            raise ConfigError("max_repetition_ratio must be in [0, 1]")


@dataclass(frozen=True)
class OperatorConfig:
    """Thresholds for the cleaning filters and the selection keep fraction."""

    minhash: MinhashConfig = field(default_factory=MinhashConfig)
    special_char_range: tuple[float, float] = (0.0, 0.25)
    token_range: tuple[int, int] = (10, 4096)
    ngram: NgramConfig = field(default_factory=NgramConfig)
    selection_keep_fraction: float = 0.5

    def __post_init__(self) -> None:
        lo, hi = self.special_char_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise ConfigError("special_char_range must satisfy 0 <= lo <= hi <= 1")
        tlo, thi = self.token_range
        if tlo < 0 or tlo > thi:
            raise ConfigError("token_range must satisfy 0 <= lo <= hi")
        if not 0.0 < self.selection_keep_fraction <= 1.0:
            raise ConfigError("selection_keep_fraction must be in (0, 1]")

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TrainerConfig:
    base_model: str = ""
    epochs: int = 3
    validation_set: str = ""

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")


DEFAULT_PROXY_WEIGHTS = (0.4, 0.3, 0.2, 0.1)


@dataclass(frozen=True)
class EvalConfig:
    """mode "proxy" scores datasets directly; "trainer" delegates to a trainer client."""

    mode: str = "proxy"
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    proxy_weights: tuple[float, float, float, float] = DEFAULT_PROXY_WEIGHTS

    def __post_init__(self) -> None:
        if self.mode not in ("proxy", "trainer"):
            raise ConfigError(f"unknown eval mode {self.mode!r}")
        if len(self.proxy_weights) != 4 or any(w < 0 for w in self.proxy_weights):
            raise ConfigError("proxy_weights must be four non-negative numbers")
        if abs(sum(self.proxy_weights) - 1.0) > 1e-9:
            raise ConfigError("proxy_weights must sum to 1")


@dataclass(frozen=True)
class Endpoints:
    agent: str | None = None
    embedder: str | None = None
    screener: str | None = None
    trainer: str | None = None


@dataclass(frozen=True)
class RunConfig:
    dataset: str = ""
    sampling_rate: float = 0.20
    initial_group_size: int = 4
    max_group_size: int = 6
    max_rounds: int = 5
    temperature: float = 0.6
    seed: int = 0
    operators: OperatorConfig = field(default_factory=OperatorConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    endpoints: Endpoints = field(default_factory=Endpoints)
    cache_root: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ConfigError("sampling_rate must be in (0, 1]")
        if self.initial_group_size < 1:
            raise ConfigError("initial_group_size must be >= 1")
        if self.max_group_size < 1:
            raise ConfigError("max_group_size must be >= 1")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")


def from_json(kind, value, where: str):
    """Build a ``kind`` from decoded JSON, checking each value against the
    field annotations; any mismatch is a ``ConfigError`` naming ``where``.

    A dataclass reads from an object whose keys all name fields (a missing
    field takes its default), a fixed-length tuple from a list of that length,
    and a float from any finite JSON number; ``X | None`` also accepts ``null``.
    """
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {json.dumps(value)}")
        unknown = sorted(set(value) - {f.name for f in fields(kind)})
        if unknown:
            raise ConfigError(f"{where} has unknown key(s): {', '.join(unknown)}")
        hints = get_type_hints(kind)
        kwargs = {name: from_json(hints[name], v, f"{where}.{name}") for name, v in value.items()}
        try:  # TypeError: a field without a default is missing
            return kind(**kwargs)
        except (ConfigError, TypeError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    args = get_args(kind)
    if get_origin(kind) is tuple:
        if not isinstance(value, list) or len(value) != len(args):
            raise ConfigError(f"{where} must be a list of {len(args)}, got {json.dumps(value)}")
        return tuple(from_json(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if get_origin(kind) is UnionType:  # X | None
        inner, _none = args
        return None if value is None else from_json(inner, value, where)
    # bool is a subclass of int, so exact type tests keep true/false out;
    # json.loads also yields NaN and Infinity, which no field can use
    if kind is float and type(value) in (int, float) and math.isfinite(value):
        return float(value)
    if kind in (int, str) and type(value) is kind:
        return value
    raise ConfigError(f"{where} must be {kind.__name__}, got {json.dumps(value)}")


def load_run_config(path: str | Path) -> RunConfig:
    """Read a JSON run config; endpoint and cache-root env vars take precedence."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    endpoints = raw.setdefault("endpoints", {})
    if isinstance(endpoints, dict):  # from_json reports any other value
        for name, var in (("agent", ENV_AGENT_ENDPOINT), ("embedder", ENV_EMBEDDER_ENDPOINT),
                          ("screener", ENV_SCREENER_ENDPOINT), ("trainer", ENV_TRAINER_ENDPOINT)):
            if var in os.environ:
                endpoints[name] = os.environ[var]
    if ENV_CACHE_ROOT in os.environ:
        raw["cache_root"] = os.environ[ENV_CACHE_ROOT]
    return from_json(RunConfig, raw, "config")


def run_config_snapshot(cfg: RunConfig) -> dict:
    """JSON-serializable snapshot written into the run artifacts directory."""
    return asdict(cfg)
