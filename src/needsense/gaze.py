"""Gaze-pattern need models.

Each raw gaze frame is read as a look at one of three targets under the
assumed scene layout: robot directly ahead, task on the table below.  The
paper quantizes the angles into nine qualitative directions around a
closed Center box (|yaw| <= yaw_center and |pitch| <= pitch_center) and
maps each direction to a target:

    direction   yaw                 pitch                 target
    ---------   -----------------   -------------------   ---------
    Center      in the box          in the box            Robot
    Down        in the box          < -pitch_center       Task
    DownLeft    < -yaw_center       < -pitch_center       Task
    DownRight   > yaw_center        < -pitch_center       Task
    Up          in the box          > pitch_center        Elsewhere
    UpLeft      < -yaw_center       > pitch_center        Elsewhere
    UpRight     > yaw_center        > pitch_center        Elsewhere
    Left        < -yaw_center       in the box            Elsewhere
    Right       > yaw_center        in the box            Elsewhere

Only the target is used, so `gaze_target` reads it straight from the
angles.  Contiguous same-target runs are segmented with debouncing, and
two models score the current run:

* mutual gaze - a sustained look at the robot; value min(1, d/2.5) where d
  is the run duration in seconds.
* confirmatory gaze - brief (< 2.5 s) back-and-forth glances between task
  and robot; the current glance is scored min(1, d/2.5) while both glances
  stay brief, and returns to 0 once the glance stops being brief.

A value of at least 0.5 (reached at d = 1.25 s) is read as the user
exhibiting the pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

# Run duration at which a need value saturates at 1.0; also the cutoff
# under which a glance counts as "brief" for the confirmatory pattern.
GLANCE_THRESHOLD_S = 2.5

# the three gaze targets
ROBOT, TASK, ELSEWHERE = 0, 1, 2


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


@dataclass(frozen=True)
class GazeConfig:
    thresholds: GazeThresholds = GazeThresholds()
    debounce: int = 2
    min_confidence: float = 0.5


def gaze_target(obs: GazeObservation, th: GazeThresholds) -> int:
    """The target of the observation's direction in the table above: TASK
    below the Center box, ROBOT in it, ELSEWHERE otherwise."""
    if obs.pitch < -th.pitch_center:
        return TASK
    if abs(obs.yaw) <= th.yaw_center and obs.pitch <= th.pitch_center:
        return ROBOT
    return ELSEWHERE


def need_from_duration(d: float) -> float:
    return min(1.0, d / GLANCE_THRESHOLD_S)


class GazeNeedTracker:
    """Per-session state machine from raw observations to the two need
    values.

    The current run's target switches only after `debounce` consecutive
    frames of a new target, and the new run is backdated to the first of
    those frames.  Frames below the confidence floor keep the current run
    alive without advancing a pending switch.
    """

    def __init__(self, config: GazeConfig | None = None):
        self.config = config or GazeConfig()
        # the current run; no target before the first frame
        self.target: int | None = None
        self.start = 0.0
        # the run before it; while there is none, it scores as Elsewhere
        self.prev_target = ELSEWHERE
        self.prev_duration = 0.0
        # a new target seen on `pending_count` frames since `pending_start`
        self.pending: int | None = None
        self.pending_count = 0
        self.pending_start = 0.0

    def update(self, t: float, obs: GazeObservation) -> tuple[float, float]:
        """The (mutual, confirmatory) need once the frame at `t` is seen."""
        cfg = self.config
        target = gaze_target(obs, cfg.thresholds)
        if self.target is None:
            self.target, self.start = target, t
            return 0.0, 0.0
        if obs.confidence < cfg.min_confidence:
            pass  # the run and any pending switch stay as they are
        elif target == self.target:
            self.pending = None
        else:
            if target == self.pending:
                self.pending_count += 1
            else:
                self.pending, self.pending_count, self.pending_start = target, 1, t
            if self.pending_count >= cfg.debounce:
                self.prev_target = self.target
                self.prev_duration = self.pending_start - self.start
                self.target, self.start = target, self.pending_start
                self.pending = None
        d = t - self.start
        mutual = need_from_duration(d) if self.target == ROBOT else 0.0
        # a run's target differs from the one before it, so two runs off
        # Elsewhere alternate between Task and Robot
        if (
            ELSEWHERE in (self.target, self.prev_target)
            or self.prev_duration >= GLANCE_THRESHOLD_S
            or d >= GLANCE_THRESHOLD_S
        ):
            return mutual, 0.0
        return mutual, need_from_duration(d)
