"""Flat key=value configuration shared by every command.

One file, one key per line, every key optional and defaulted; unknown
keys are rejected so typos fail loudly.  Command-line flags override
file values.  The zero sentinel on rf_max_depth and
rf_features_per_split means "unlimited" and "automatic" respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

from .forest import ForestConfig
from .gaze import GazeConfig, GazeThresholds
from .streams import SessionFormatError, read_lines


MAX_CADENCE_HZ = 1000.0


class ConfigError(SessionFormatError):
    """Bad configuration file or values; carries its line number if known."""


@dataclass
class Config:
    cadence_hz: float = 10.0
    window_w: int = 20
    gaze_yaw_center: float = 0.15
    gaze_pitch_center: float = 0.15
    gaze_debounce: int = 2
    min_confidence: float = 0.5
    nb_alpha: float = 1.0
    nb_use_aggregates: bool = True
    rf_n_trees: int = 100
    rf_max_depth: int = 0  # 0: unlimited
    rf_min_samples_leaf: int = 1
    rf_features_per_split: int = 0  # 0: ceil(sqrt(3 * window_w))
    rf_bootstrap: bool = True
    seed: int = 0

    def validate(self) -> None:
        # ticks fall on whole milliseconds, which stay distinct up to 1 kHz
        if not 0 < self.cadence_hz <= MAX_CADENCE_HZ:
            raise ConfigError(f"cadence_hz must be in (0, {MAX_CADENCE_HZ}]")
        if self.window_w < 1:
            raise ConfigError("window_w must be >= 1")
        if not (self.gaze_yaw_center > 0 and self.gaze_pitch_center > 0):
            raise ConfigError("gaze center half-widths must be > 0")
        if self.gaze_debounce < 1:
            raise ConfigError("gaze_debounce must be >= 1")
        if not 0.0 <= self.min_confidence <= 1.0:
            raise ConfigError("min_confidence must be in [0, 1]")
        if not self.nb_alpha > 0:
            raise ConfigError("nb_alpha must be > 0")
        if self.rf_n_trees < 1:
            raise ConfigError("rf_n_trees must be >= 1")
        if self.rf_max_depth < 0:
            raise ConfigError("rf_max_depth must be >= 0 (0 = unlimited)")
        if self.rf_min_samples_leaf < 1:
            raise ConfigError("rf_min_samples_leaf must be >= 1")
        if self.rf_features_per_split < 0:
            raise ConfigError("rf_features_per_split must be >= 0 (0 = auto)")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def thresholds(self) -> GazeThresholds:
        return GazeThresholds(
            yaw_center=self.gaze_yaw_center,
            pitch_center=self.gaze_pitch_center,
        )

    def gaze_config(self) -> GazeConfig:
        return GazeConfig(
            thresholds=self.thresholds(),
            debounce=self.gaze_debounce,
            min_confidence=self.min_confidence,
        )

    def forest_config(self) -> ForestConfig:
        return ForestConfig(
            n_trees=self.rf_n_trees,
            max_depth=self.rf_max_depth or None,
            min_samples_leaf=self.rf_min_samples_leaf,
            features_per_split=self.rf_features_per_split or None,
            bootstrap=self.rf_bootstrap,
            seed=self.seed,
        )

    def to_lines(self) -> list[str]:
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                text = str(int(value))
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            out.append(f"{f.name}={text}")
        return out


def _convert(name: str, raw: str, kind: type):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"bad value for {name!r}: {raw!r}")


def config_from_items(items: dict[str, str]) -> Config:
    kinds = {f.name: type(f.default) for f in fields(Config)}
    kwargs = {}
    for name, raw in items.items():
        if name not in kinds:
            raise ConfigError(f"unknown config key {name!r}")
        kwargs[name] = _convert(name, raw, kinds[name])
    cfg = Config(**kwargs)
    cfg.validate()
    return cfg


def load_config(path: str | Path) -> Config:
    """Read a key=value config file; blank lines and # comments allowed.
    Every error names the path and the line."""
    return read_lines(path, _parse_config)


def _parse_config(lines: Iterable[str]) -> Config:
    items: dict[str, str] = {}
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected key=value", i)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in items:
            raise ConfigError(f"duplicate key {key!r}", i)
        try:
            # every check on a value involves that value alone
            config_from_items({key: value})
        except ConfigError as exc:
            raise ConfigError(str(exc), i) from None
        items[key] = value
    return config_from_items(items)
