"""Gaze-pattern need models.

Raw gaze angles are quantized into nine qualitative directions, the
directions are interpreted against the assumed scene layout (robot directly
ahead, task on the table below), contiguous same-target runs are segmented
with debouncing, and two models score the current run:

* mutual gaze - a sustained look at the robot; value min(1, d/2.5) where d
  is the run duration in seconds.
* confirmatory gaze - brief (< 2.5 s) back-and-forth glances between task
  and robot; the current glance is scored min(1, d/2.5) while both glances
  stay brief, and returns to 0 once the glance stops being brief.

A value of at least 0.5 (reached at d = 1.25 s) is read as the user
exhibiting the pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

# Run duration at which a need value saturates at 1.0; also the cutoff
# under which a glance counts as "brief" for the confirmatory pattern.
GLANCE_THRESHOLD_S = 2.5


class QualitativeGazeDirection(Enum):
    UP = "Up"
    UP_RIGHT = "UpRight"
    RIGHT = "Right"
    DOWN_RIGHT = "DownRight"
    DOWN = "Down"
    DOWN_LEFT = "DownLeft"
    LEFT = "Left"
    UP_LEFT = "UpLeft"
    CENTER = "Center"


class GazeTarget(Enum):
    ROBOT = "Robot"
    TASK = "Task"
    ELSEWHERE = "Elsewhere"


@dataclass(frozen=True, slots=True)
class GazeObservation:
    """One gaze estimate: yaw (positive toward the user's right), pitch
    (positive upward), both in radians, and tracker confidence in [0, 1]."""

    yaw: float
    pitch: float
    confidence: float = 1.0


@dataclass(frozen=True)
class GazeThresholds:
    """Half-widths of the Center box, in radians."""

    yaw_center: float = 0.15
    pitch_center: float = 0.15

    def __post_init__(self) -> None:
        if not (self.yaw_center > 0 and self.pitch_center > 0):
            raise ValueError("center box half-widths must be > 0")


@dataclass(frozen=True)
class GazeConfig:
    thresholds: GazeThresholds = GazeThresholds()
    debounce: int = 2
    min_confidence: float = 0.5

    def __post_init__(self) -> None:
        if self.debounce < 1:
            raise ValueError("debounce must be >= 1")


@dataclass(frozen=True)
class GazeRun:
    """A contiguous run of frames on one target.  `duration` is the time
    elapsed since the run's first frame (0.0 on that frame)."""

    target: GazeTarget
    start: float
    duration: float


def classify_direction(
    obs: GazeObservation, th: GazeThresholds
) -> QualitativeGazeDirection:
    """Quantize a gaze observation into one of the nine directions.

    Center iff both angles are within the center box; otherwise the 8-way
    sector from the horizontal excess (Left/Right) and vertical excess
    (Up/Down).  Exactly one direction matches any finite observation.
    """
    if not (math.isfinite(obs.yaw) and math.isfinite(obs.pitch)):
        raise ValueError("gaze angles must be finite")
    horiz = ""
    vert = ""
    if obs.yaw > th.yaw_center:
        horiz = "Right"
    elif obs.yaw < -th.yaw_center:
        horiz = "Left"
    if obs.pitch > th.pitch_center:
        vert = "Up"
    elif obs.pitch < -th.pitch_center:
        vert = "Down"
    if not horiz and not vert:
        return QualitativeGazeDirection.CENTER
    return QualitativeGazeDirection(vert + horiz if vert else horiz)


# Scene layout assumption: robot straight ahead, task on the table below.
_TARGET_BY_DIRECTION = {
    QualitativeGazeDirection.CENTER: GazeTarget.ROBOT,
    QualitativeGazeDirection.DOWN: GazeTarget.TASK,
    QualitativeGazeDirection.DOWN_LEFT: GazeTarget.TASK,
    QualitativeGazeDirection.DOWN_RIGHT: GazeTarget.TASK,
}


def interpret_target(direction: QualitativeGazeDirection) -> GazeTarget:
    """Center -> Robot; the down directions -> Task; all else -> Elsewhere."""
    return _TARGET_BY_DIRECTION.get(direction, GazeTarget.ELSEWHERE)


def need_from_duration(d: float) -> float:
    return min(1.0, d / GLANCE_THRESHOLD_S)


def mutual_gaze_need(run: GazeRun) -> float:
    """min(1, d/2.5) while the user looks at the robot, else 0."""
    if run.target is GazeTarget.ROBOT:
        return need_from_duration(run.duration)
    return 0.0


def confirmatory_gaze_need(run: GazeRun, prev: GazeRun | None) -> float:
    """Score the current glance of a task/robot back-and-forth.

    Fires only when the previous run and the current run alternate between
    Task and Robot and both are brief (< 2.5 s).  The value ramps with the
    current glance's duration and drops back to 0 once the glance is no
    longer brief.
    """
    if prev is None:
        return 0.0
    pair = (prev.target, run.target)
    if pair not in (
        (GazeTarget.TASK, GazeTarget.ROBOT),
        (GazeTarget.ROBOT, GazeTarget.TASK),
    ):
        return 0.0
    if prev.duration >= GLANCE_THRESHOLD_S or run.duration >= GLANCE_THRESHOLD_S:
        return 0.0
    return need_from_duration(run.duration)


class GazeSegmenter:
    """Debounced run segmentation over a frame-by-frame target stream.

    The current run's target switches only after `debounce` consecutive
    frames of a new target, and the new run is backdated to the first of
    those frames.  Frames below the confidence floor keep the current run
    alive without advancing a pending switch.
    """

    def __init__(self, debounce: int = 2, min_confidence: float = 0.5):
        if debounce < 1:
            raise ValueError("debounce must be >= 1")
        self.debounce = debounce
        self.min_confidence = min_confidence
        self._target: GazeTarget | None = None
        self._start = 0.0
        self._prev: GazeRun | None = None
        self._cand_target: GazeTarget | None = None
        self._cand_count = 0
        self._cand_first_t = 0.0

    @property
    def previous_run(self) -> GazeRun | None:
        return self._prev

    def update(
        self, t: float, target: GazeTarget, confidence: float = 1.0
    ) -> GazeRun:
        if self._target is None:
            self._target = target
            self._start = t
            return GazeRun(target, t, 0.0)
        if confidence < self.min_confidence:
            return GazeRun(self._target, self._start, t - self._start)
        if target is self._target:
            self._cand_target = None
            self._cand_count = 0
            return GazeRun(self._target, self._start, t - self._start)
        if target is self._cand_target:
            self._cand_count += 1
        else:
            self._cand_target = target
            self._cand_count = 1
            self._cand_first_t = t
        if self._cand_count >= self.debounce:
            self._prev = GazeRun(
                self._target, self._start, self._cand_first_t - self._start
            )
            self._target = target
            self._start = self._cand_first_t
            self._cand_target = None
            self._cand_count = 0
        return GazeRun(self._target, self._start, t - self._start)


@dataclass(frozen=True)
class TrackerFrame:
    """Per-frame output of the gaze need tracker."""

    t: float
    direction: QualitativeGazeDirection
    target: GazeTarget
    run: GazeRun
    mutual: float
    confirmatory: float


class GazeNeedTracker:
    """Stateful per-session pipeline from raw observations to the two
    need values, one TrackerFrame per input frame."""

    def __init__(self, config: GazeConfig | None = None):
        self.config = config or GazeConfig()
        self._segmenter = GazeSegmenter(
            self.config.debounce, self.config.min_confidence
        )

    def update(self, t: float, obs: GazeObservation) -> TrackerFrame:
        direction = classify_direction(obs, self.config.thresholds)
        target = interpret_target(direction)
        run = self._segmenter.update(t, target, obs.confidence)
        return TrackerFrame(
            t=t,
            direction=direction,
            target=target,
            run=run,
            mutual=mutual_gaze_need(run),
            confirmatory=confirmatory_gaze_need(run, self._segmenter.previous_run),
        )
