"""Stand-in models for the tests of the live shell, and a fresh
interpreter for the tests of what a process loads at start."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import needsense
from needsense import fusion
from needsense.gaze import GazeConfig


class RecordingModel:
    """Stands in for the forest: records every window it is given and
    decides 0."""

    def __init__(self):
        self.windows = []

    def predict_batch(self, X):
        self.windows.append(tuple(X[0].tolist()))
        return np.zeros(1, dtype=np.int64), np.zeros(1)


class EchoText:
    """Stands in for the text model: an utterance's posterior is the number
    its text spells, and any other text tokenizes to nothing."""

    def predict_text(self, text):
        try:
            return float(text)
        except ValueError:
            return None


class EchoTracker:
    """Stands in for the gaze tracker: a frame's mutual and confirmatory
    need are its yaw and pitch."""

    def __init__(self, config):
        pass

    def update(self, t, obs):
        return obs.yaw, obs.pitch


@pytest.fixture(scope="session")
def live_shell():
    """Builds `live_pipeline` over a `RecordingModel` forest and returns
    (pipe, sink, forest), the sink a list of the decisions made so far.
    The gaze tracker is an `EchoTracker` unless a `gaze_config` is given,
    and the text model an `EchoText` unless an `nb_model` is given."""

    def build(cadence_hz=10.0, window=1, nb_model=None, gaze_config=None):
        forest = RecordingModel()
        sink = []
        tracker = EchoTracker if gaze_config is None else fusion.GazeNeedTracker
        with mock.patch.object(fusion, "GazeNeedTracker", tracker):
            pipe, _ = fusion.live_pipeline(
                nb_model or EchoText(),
                forest,
                gaze_config or GazeConfig(),
                cadence_hz,
                window,
                sink.extend,
            )
        return pipe, sink, forest

    return build


@pytest.fixture(scope="session")
def fresh_python():
    """Runs `code` in a fresh interpreter that imports this checkout's
    needsense and returns its stdout.  Keyword arguments set environment
    variables, and a value of None unsets one."""
    src = str(Path(needsense.__file__).parents[1])

    def run(code, **env):
        full = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        for name, value in env.items():
            if value is None:
                full.pop(name, None)
            else:
                full[name] = value
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=full, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
