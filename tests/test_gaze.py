"""Gaze targets, debounced runs and the two need models of the tracker."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needsense.gaze import (
    ELSEWHERE,
    GLANCE_THRESHOLD_S,
    ROBOT,
    TASK,
    GazeConfig,
    GazeNeedTracker,
    GazeObservation,
    GazeThresholds,
    gaze_target,
    need_from_duration,
)

TH = GazeThresholds(0.15, 0.15)

# the paper's nine directions and the target the scene layout gives each
TARGET_OF_DIRECTION = {
    "Center": ROBOT,
    "Down": TASK,
    "DownLeft": TASK,
    "DownRight": TASK,
    "Up": ELSEWHERE,
    "UpLeft": ELSEWHERE,
    "UpRight": ELSEWHERE,
    "Left": ELSEWHERE,
    "Right": ELSEWHERE,
}
TARGET_OF_NAME = {"Robot": ROBOT, "Task": TASK, "Elsewhere": ELSEWHERE}

# one observation looking at each target
LOOK = {
    ROBOT: GazeObservation(0.0, 0.0),
    TASK: GazeObservation(0.0, -0.45),
    ELSEWHERE: GazeObservation(0.45, 0.0),
}


def target_of(yaw, pitch):
    return gaze_target(GazeObservation(yaw, pitch), TH)


def feed(tracker, frames):
    """The (mutual, confirmatory) of each (t, target) or (t, target,
    confidence) frame, looking at the target."""
    out = []
    for t, target, *confidence in frames:
        look = LOOK[target]
        obs = GazeObservation(look.yaw, look.pitch, *confidence)
        out.append(tracker.update(t, obs))
    return out


def assert_run(tracker, target, start):
    """The current run is on `target` and began at `start`."""
    assert (tracker.target, tracker.start) == (target, start)


class TestClassifyDirection:
    @pytest.mark.parametrize(
        "yaw, pitch, expected",
        [
            (0.0, 0.0, "Center"),
            (0.1, -0.1, "Center"),
            (0.0, 0.3, "Up"),
            (0.3, 0.3, "UpRight"),
            (0.3, 0.0, "Right"),
            (0.3, -0.3, "DownRight"),
            (0.0, -0.3, "Down"),
            (-0.3, -0.3, "DownLeft"),
            (-0.3, 0.0, "Left"),
            (-0.3, 0.3, "UpLeft"),
        ],
    )
    def test_nine_way_table(self, yaw, pitch, expected):
        assert target_of(yaw, pitch) == TARGET_OF_DIRECTION[expected]

    def test_box_edge_is_center(self):
        # the center box is closed: only a strict excess leaves it
        assert target_of(0.15, 0.15) == ROBOT
        assert target_of(-0.15, -0.15) == ROBOT
        assert target_of(0.15000001, 0.0) == ELSEWHERE  # Right
        assert target_of(0.0, -0.15000001) == TASK  # Down

    def test_mixed_axis(self):
        assert target_of(0.2, 0.1) == ELSEWHERE  # Right
        assert target_of(-0.05, -0.2) == TASK  # Down

    @given(
        yaw=st.floats(-2, 2, allow_nan=False),
        pitch=st.floats(-2, 2, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_total_over_finite_angles(self, yaw, pitch):
        target = target_of(yaw, pitch)
        assert target in (ROBOT, TASK, ELSEWHERE)
        assert target == _ref_target(GazeObservation(yaw, pitch), TH)


# points in each direction's sector: the yaws and pitches that read as
# left/in the box/right and below/in the box/above
_IN_BOX = (-0.15, 0.0, 0.15)
_YAWS = {"Left": (-2.0, -0.15000001), "": _IN_BOX, "Right": (0.15000001, 2.0)}
_PITCHES = {"Down": (-2.0, -0.15000001), "": _IN_BOX, "Up": (0.15000001, 2.0)}


class TestInterpretTarget:
    @pytest.mark.parametrize(
        "direction, target",
        [
            ("Center", "Robot"),
            ("Down", "Task"),
            ("DownLeft", "Task"),
            ("DownRight", "Task"),
            ("Up", "Elsewhere"),
            ("UpLeft", "Elsewhere"),
            ("UpRight", "Elsewhere"),
            ("Left", "Elsewhere"),
            ("Right", "Elsewhere"),
        ],
    )
    def test_layout_mapping(self, direction, target):
        name = direction.removeprefix("Center")
        vert = next((v for v in ("Down", "Up") if name.startswith(v)), "")
        horiz = name.removeprefix(vert)
        for yaw in _YAWS[horiz]:
            for pitch in _PITCHES[vert]:
                assert target_of(yaw, pitch) == TARGET_OF_NAME[target], (yaw, pitch)


class TestNeedFromDuration:
    def test_anchors(self):
        assert need_from_duration(0.0) == 0.0
        assert need_from_duration(1.25) == 0.5
        assert need_from_duration(2.5) == 1.0
        assert need_from_duration(10.0) == 1.0

    @given(st.floats(0, 100, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_linear_ramp_saturating(self, d):
        v = need_from_duration(d)
        assert 0.0 <= v <= 1.0
        if d < GLANCE_THRESHOLD_S:
            assert v == d / GLANCE_THRESHOLD_S

    def test_threshold_constant(self):
        assert GLANCE_THRESHOLD_S == 2.5


class TestMutualGazeNeed:
    def test_robot_run_ramps(self):
        values = feed(GazeNeedTracker(), [(0.0, ROBOT), (1.25, ROBOT)])
        assert values[-1][0] == 0.5

    def test_other_targets_zero(self):
        for target in (TASK, ELSEWHERE):
            values = feed(GazeNeedTracker(), [(0.0, target), (5.0, target)])
            assert values[-1][0] == 0.0


class TestConfirmatoryGazeNeed:
    # with a debounce of 1 a run starts on the first frame of its target
    @staticmethod
    def confirmatory(frames):
        return feed(GazeNeedTracker(GazeConfig(debounce=1)), frames)[-1][1]

    def test_task_then_robot_ramps(self):
        v = self.confirmatory([(0.0, TASK), (1.0, ROBOT), (2.25, ROBOT)])
        assert v == 0.5

    def test_robot_then_task_ramps(self):
        v = self.confirmatory([(0.0, ROBOT), (2.0, TASK), (2.5, TASK)])
        assert v == 0.2

    def test_no_previous_run(self):
        assert self.confirmatory([(0.0, ROBOT), (1.0, ROBOT)]) == 0.0

    def test_elsewhere_breaks_alternation(self):
        v = self.confirmatory([(0.0, ELSEWHERE), (1.0, ROBOT), (2.0, ROBOT)])
        assert v == 0.0

    def test_long_previous_glance_gates(self):
        v = self.confirmatory([(0.0, TASK), (2.5, ROBOT), (3.5, ROBOT)])
        assert v == 0.0

    def test_current_glance_stops_being_brief(self):
        prev = [(0.0, TASK), (1.0, ROBOT)]
        assert self.confirmatory([*prev, (3.49, ROBOT)]) > 0
        assert self.confirmatory([*prev, (3.5, ROBOT)]) == 0.0


class TestGazeSegmenter:
    def test_first_frame_starts_run(self):
        tracker = GazeNeedTracker(GazeConfig(debounce=2))
        assert tracker.update(0.0, LOOK[TASK]) == (0.0, 0.0)
        assert_run(tracker, TASK, 0.0)

    def test_single_frame_flicker_ignored(self):
        tracker = GazeNeedTracker(GazeConfig(debounce=2))
        frames = [
            (0.0, TASK),
            (0.1, TASK),
            (0.2, ROBOT),
            (0.3, TASK),
            (0.4, TASK),
        ]
        for frame in frames:
            feed(tracker, [frame])
            assert tracker.target == TASK
        assert_run(tracker, TASK, 0.0)

    def test_switch_backdated_to_first_candidate_frame(self):
        tracker = GazeNeedTracker(GazeConfig(debounce=2))
        feed(tracker, [(0.0, TASK), (0.1, TASK), (0.2, ROBOT)])
        assert_run(tracker, TASK, 0.0)
        (mutual, _), = feed(tracker, [(0.3, ROBOT)])
        assert_run(tracker, ROBOT, 0.2)
        assert mutual == pytest.approx(0.1 / 2.5, abs=1e-12)
        assert (tracker.prev_target, tracker.prev_duration) == (TASK, 0.2)

    def test_candidate_resets_on_return_to_current(self):
        tracker = GazeNeedTracker(GazeConfig(debounce=2))
        feed(tracker, [(0.0, TASK), (0.1, ROBOT), (0.2, TASK), (0.3, ROBOT)])
        # switch confirmed by the 0.3/0.4 pair, backdated to 0.3
        assert tracker.target == TASK
        feed(tracker, [(0.4, ROBOT)])
        assert_run(tracker, ROBOT, 0.3)

    def test_candidate_replaced_by_different_target(self):
        tracker = GazeNeedTracker(GazeConfig(debounce=2))
        feed(tracker, [(0.0, TASK), (0.1, ROBOT), (0.2, ELSEWHERE), (0.3, ELSEWHERE)])
        assert_run(tracker, ELSEWHERE, 0.2)

    def test_low_confidence_keeps_run_alive(self):
        tracker = GazeNeedTracker(GazeConfig(debounce=2, min_confidence=0.5))
        feed(tracker, [(0.0, TASK), (0.5, ROBOT, 0.2)])
        assert_run(tracker, TASK, 0.0)

    def test_low_confidence_does_not_advance_pending_switch(self):
        tracker = GazeNeedTracker(GazeConfig(debounce=2, min_confidence=0.5))
        feed(tracker, [(0.0, TASK, 1.0), (0.1, ROBOT, 1.0), (0.2, ROBOT, 0.2)])
        assert tracker.target == TASK
        feed(tracker, [(0.3, ROBOT, 1.0)])
        assert_run(tracker, ROBOT, 0.1)

    def test_debounce_one_switches_immediately(self):
        tracker = GazeNeedTracker(GazeConfig(debounce=1))
        feed(tracker, [(0.0, TASK)])
        assert tracker.update(0.1, LOOK[ROBOT]) == (0.0, 0.0)
        assert_run(tracker, ROBOT, 0.1)


class TestGazeNeedTracker:
    def test_sustained_robot_gaze_ramps_mutual(self):
        tracker = GazeNeedTracker(GazeConfig())
        for k in range(30):
            mutual, confirmatory = tracker.update(
                round(k / 10, 3), GazeObservation(0.0, 0.0)
            )
            assert tracker.target == ROBOT
            expected = min(1.0, round(k / 10, 3) / 2.5)
            assert mutual == pytest.approx(expected, abs=1e-12)
            assert confirmatory == 0.0

    def test_task_gaze_scores_zero(self):
        tracker = GazeNeedTracker(GazeConfig())
        values = [
            tracker.update(round(k / 10, 3), GazeObservation(0.0, -0.45))
            for k in range(20)
        ]
        assert values == [(0.0, 0.0)] * 20

    def test_brief_alternation_fires_confirmatory(self):
        # 1.0 s on task, then 1.0 s toward the robot: the robot glance is
        # confirmed by the debouncer after its second frame and backdated
        tracker = GazeNeedTracker(GazeConfig())
        task = GazeObservation(0.0, -0.45)
        robot = GazeObservation(0.0, 0.0)
        values = []
        for k in range(20):
            obs = task if k < 10 else robot
            values.append(tracker.update(round(k / 10, 3), obs)[1])
        assert values[:11] == [0.0] * 11  # debounce pending at k=10
        for k in range(11, 20):
            d = round(k / 10, 3) - 1.0  # robot run backdated to t=1.0
            assert values[k] == pytest.approx(d / 2.5, abs=1e-12)

    def test_long_first_glance_gates_confirmatory(self):
        tracker = GazeNeedTracker(GazeConfig())
        task = GazeObservation(0.0, -0.45)
        robot = GazeObservation(0.0, 0.0)
        values = []
        for k in range(40):  # 3.0 s on task (not brief), then robot
            obs = task if k < 30 else robot
            values.append(tracker.update(round(k / 10, 3), obs)[1])
        assert values == [0.0] * 40

    def test_direction_and_run_reported(self):
        # a rightward look (direction Right) is a run on Elsewhere that
        # starts at the first frame and scores neither pattern
        tracker = GazeNeedTracker(GazeConfig())
        obs = GazeObservation(0.3, 0.0)
        assert gaze_target(obs, tracker.config.thresholds) == ELSEWHERE
        assert tracker.update(0.0, obs) == (0.0, 0.0)
        assert_run(tracker, ELSEWHERE, 0.0)
        assert tracker.update(3.0, obs) == (0.0, 0.0)
        assert_run(tracker, ELSEWHERE, 0.0)


# -- equivalence with the reference tracker ---------------------------------
#
# The tracker as it was before it became one state machine: a nine-way
# direction, a target looked up from it, a debounced segmenter producing a
# run per frame, and the two need models scoring the run and the previous
# one.  Kept unchanged as the oracle for the state machine.


class _Direction(Enum):
    UP = "Up"
    UP_RIGHT = "UpRight"
    RIGHT = "Right"
    DOWN_RIGHT = "DownRight"
    DOWN = "Down"
    DOWN_LEFT = "DownLeft"
    LEFT = "Left"
    UP_LEFT = "UpLeft"
    CENTER = "Center"


class _Target(Enum):
    ROBOT = "Robot"
    TASK = "Task"
    ELSEWHERE = "Elsewhere"


@dataclass(frozen=True)
class _Run:
    target: _Target
    start: float
    duration: float


def _ref_direction(obs: GazeObservation, th: GazeThresholds) -> _Direction:
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
        return _Direction.CENTER
    return _Direction(vert + horiz if vert else horiz)


_REF_TARGET_BY_DIRECTION = {
    _Direction.CENTER: _Target.ROBOT,
    _Direction.DOWN: _Target.TASK,
    _Direction.DOWN_LEFT: _Target.TASK,
    _Direction.DOWN_RIGHT: _Target.TASK,
}


def _ref_interpret(direction: _Direction) -> _Target:
    return _REF_TARGET_BY_DIRECTION.get(direction, _Target.ELSEWHERE)


def _ref_target(obs: GazeObservation, th: GazeThresholds) -> int:
    target = _ref_interpret(_ref_direction(obs, th))
    return {_Target.ROBOT: ROBOT, _Target.TASK: TASK}.get(target, ELSEWHERE)


def _ref_mutual(run: _Run) -> float:
    if run.target is _Target.ROBOT:
        return need_from_duration(run.duration)
    return 0.0


def _ref_confirmatory(run: _Run, prev: _Run | None) -> float:
    if prev is None:
        return 0.0
    pair = (prev.target, run.target)
    if pair not in ((_Target.TASK, _Target.ROBOT), (_Target.ROBOT, _Target.TASK)):
        return 0.0
    if prev.duration >= GLANCE_THRESHOLD_S or run.duration >= GLANCE_THRESHOLD_S:
        return 0.0
    return need_from_duration(run.duration)


class _RefSegmenter:
    def __init__(self, debounce: int = 2, min_confidence: float = 0.5):
        if debounce < 1:
            raise ValueError("debounce must be >= 1")
        self.debounce = debounce
        self.min_confidence = min_confidence
        self._target: _Target | None = None
        self._start = 0.0
        self.previous_run: _Run | None = None
        self._cand_target: _Target | None = None
        self._cand_count = 0
        self._cand_first_t = 0.0

    def update(self, t: float, target: _Target, confidence: float = 1.0) -> _Run:
        if self._target is None:
            self._target = target
            self._start = t
            return _Run(target, t, 0.0)
        if confidence < self.min_confidence:
            return _Run(self._target, self._start, t - self._start)
        if target is self._target:
            self._cand_target = None
            self._cand_count = 0
            return _Run(self._target, self._start, t - self._start)
        if target is self._cand_target:
            self._cand_count += 1
        else:
            self._cand_target = target
            self._cand_count = 1
            self._cand_first_t = t
        if self._cand_count >= self.debounce:
            self.previous_run = _Run(
                self._target, self._start, self._cand_first_t - self._start
            )
            self._target = target
            self._start = self._cand_first_t
            self._cand_target = None
            self._cand_count = 0
        return _Run(self._target, self._start, t - self._start)


class _RefTracker:
    def __init__(self, config: GazeConfig):
        self.config = config
        self._segmenter = _RefSegmenter(config.debounce, config.min_confidence)

    def update(self, t: float, obs: GazeObservation) -> tuple[float, float]:
        direction = _ref_direction(obs, self.config.thresholds)
        run = self._segmenter.update(t, _ref_interpret(direction), obs.confidence)
        return (
            _ref_mutual(run),
            _ref_confirmatory(run, self._segmenter.previous_run),
        )


@st.composite
def _gaze_sessions(draw):
    """A config and a stream of frames built from blocks of repeated
    looks.  Angles sit on the Center box's edges, just past them, inside
    or far out; each frame's confidence sits at the floor, just below it,
    or well clear of it; a block of `debounce - 1` frames is a switch one
    frame short."""
    yc, pc = draw(st.sampled_from([(0.15, 0.15), (0.2, 0.1)]))
    floor = draw(st.sampled_from([0.5, 0.3]))
    config = GazeConfig(GazeThresholds(yc, pc), draw(st.integers(1, 4)), floor)

    def angle(edge):
        past = math.nextafter(edge, math.inf)
        return st.sampled_from([0.0, edge, -edge, past, -past, 3 * edge, -3 * edge])

    # mostly confident, so that switches complete between the dropouts
    confidence = st.sampled_from(
        [1.0, 1.0, 1.0, floor, math.nextafter(floor, -math.inf), 0.0]
    )
    step = st.sampled_from([0.033, 0.1, 0.5, 1.25, 2.5]) | st.floats(0.001, 3.0)
    frames = []
    t = draw(st.sampled_from([0.0, 1.0]))
    for _ in range(draw(st.integers(1, 12))):
        yaw, pitch = draw(angle(yc)), draw(angle(pc))
        for _ in range(draw(st.integers(1, 5))):
            frames.append((t, GazeObservation(yaw, pitch, draw(confidence))))
            t = round(t + draw(step), 3)
    return config, frames


_ONE = GazeConfig(debounce=1)
_TWO = GazeConfig(debounce=2)
_DROPOUT = GazeObservation(0.0, 0.0, confidence=0.2)


class TestEquivalenceWithReference:
    @given(_gaze_sessions())
    # a previous glance, then a current one, of exactly 2.5 s
    @example((_ONE, [(0.0, LOOK[TASK]), (2.5, LOOK[ROBOT]), (3.0, LOOK[ROBOT])]))
    @example((_ONE, [(0.0, LOOK[TASK]), (1.0, LOOK[ROBOT]), (3.5, LOOK[ROBOT])]))
    # a previous glance brief only up to the first frame of the switch
    @example(
        (_TWO, [(0.0, LOOK[TASK]), *[(t, LOOK[ROBOT]) for t in (2.4, 2.5, 2.6)]])
    )
    # a dropout in the middle of a pending switch
    @example(
        (_TWO, [(0.0, LOOK[TASK]), (0.1, LOOK[ROBOT]), (0.2, _DROPOUT),
                (0.3, LOOK[ROBOT])])
    )
    @settings(max_examples=400, deadline=None)
    def test_update_matches_reference_tracker(self, session):
        config, frames = session
        tracker, reference = GazeNeedTracker(config), _RefTracker(config)
        for t, obs in frames:
            assert gaze_target(obs, config.thresholds) == _ref_target(
                obs, config.thresholds
            )
            assert tracker.update(t, obs) == reference.update(t, obs), t
