"""Flat key=value configuration shared by every command.

One file, one key per line, every key optional; each `Config` field
holds its key's default and accepted range.  Unknown keys are rejected
so typos fail loudly.  Command-line flags override file values.  A
training manifest records every key in the same form.  The zero sentinel
on rf_max_depth and rf_features_per_split means "unlimited" and
"automatic" respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable

from .forest import ForestConfig
from .gaze import GazeConfig, GazeThresholds
from .streams import SessionFormatError, read_lines


MAX_CADENCE_HZ = 1000.0
# the fit keeps a row array and a draw buffer per tree, and a row holds
# 3 * window_w features: upper bounds keep both sizes sane
MAX_TREES = 10_000
MAX_WINDOW_W = 10_000


class ConfigError(SessionFormatError):
    """Bad configuration file or values; carries its line number if known."""


def _key(default, low=None, high=None, above=False):
    """A config field: its default and the range `validate` holds it to,
    [low, high], or (low, high] where `above` is set; None is no bound."""
    return field(default=default, metadata=dict(low=low, high=high, above=above))


def _check(name: str, value, low, high, above) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    if low is not None and not (value > low if above else value >= low):
        raise ConfigError(f"{name} must be {'>' if above else '>='} {low}")
    if high is not None and not value <= high:
        raise ConfigError(f"{name} must be <= {high}")


@dataclass
class Config:
    # ticks fall on whole milliseconds, which stay distinct up to 1 kHz
    cadence_hz: float = _key(10.0, 0, MAX_CADENCE_HZ, above=True)
    window_w: int = _key(20, 1, MAX_WINDOW_W)
    gaze_yaw_center: float = _key(0.15, 0, above=True)
    gaze_pitch_center: float = _key(0.15, 0, above=True)
    gaze_debounce: int = _key(2, 1)
    min_confidence: float = _key(0.5, 0, 1)
    nb_alpha: float = _key(1.0, 0, above=True)
    nb_use_aggregates: bool = _key(True)
    rf_n_trees: int = _key(100, 1, MAX_TREES)
    rf_max_depth: int = _key(0, 0)  # 0: unlimited
    rf_min_samples_leaf: int = _key(1, 1)
    rf_features_per_split: int = _key(0, 0)  # 0: ceil(sqrt(3 * window_w))
    rf_bootstrap: bool = _key(True)
    seed: int = _key(0, 0)

    def validate(self) -> None:
        for f in fields(self):
            _check(f.name, getattr(self, f.name), **f.metadata)

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
        if line and not line.startswith("#"):
            add_item(items, line, i)
    return config_from_items(items)


def add_item(items: dict[str, str], line: str, line_no: int) -> None:
    """Add the `key=value` of line `line_no` to `items`.  A line without
    `=`, a duplicate or unknown key or a bad value is an error naming the
    line."""
    key, eq, value = line.partition("=")
    if not eq:
        raise ConfigError("expected key=value", line_no)
    key = key.strip()
    if key in items:
        raise ConfigError(f"duplicate key {key!r}", line_no)
    try:
        # every check on a value involves that value alone
        config_from_items({key: value})
    except ConfigError as exc:
        raise ConfigError(str(exc), line_no) from None
    items[key] = value
