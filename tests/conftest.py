"""Stand-in models for the tests of the live shell."""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

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
        return SimpleNamespace(mutual=obs.yaw, confirmatory=obs.pitch)


@pytest.fixture(scope="session")
def live_shell():
    """Builds `live_pipeline` over a `RecordingModel` forest and returns
    (pipe, sink, forest).  The gaze tracker is an `EchoTracker` unless a
    `gaze_config` is given, and the text model an `EchoText` unless an
    `nb_model` is given."""

    def build(cadence_hz=10.0, window=1, nb_model=None, gaze_config=None):
        forest = RecordingModel()
        tracker = EchoTracker if gaze_config is None else fusion.GazeNeedTracker
        with mock.patch.object(fusion, "GazeNeedTracker", tracker):
            pipe, sink = fusion.live_pipeline(
                nb_model or EchoText(),
                forest,
                gaze_config or GazeConfig(),
                cadence_hz,
                window,
            )
        return pipe, sink, forest

    return build
