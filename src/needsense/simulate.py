"""Synthetic labeled sessions for training and evaluation.

A scenario script is a list of segments, each with a duration, a
need-level label, a gaze behavior, and scheduled utterances.  Simulation
renders the script into a session record: gaze observations at 30 Hz
following the behavior's fixation point plus seeded Gaussian angular
noise, utterances at their scheduled times, and one label span per
segment.  Everything is deterministic per seed.

The benchmark suite correlates the cues with the labels the way a desk
assembly task would: flowing work keeps eyes on the task, brief
task/robot alternation marks rising uncertainty, and outright appeals
combine a sustained look at the robot with help-seeking phrasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .gaze import GazeObservation, GazeThresholds
from .sessions import (
    MAX_SESSION_S,
    LabelSpan,
    NeedLevelLabel,
    SessionFormatError,
    SessionRecord,
    _escape,
    _header,
    _need_level,
    _parse_fields,
    _parse_float,
    _quoted_text,
    fmt_time,
)
from .streams import TimestampedMessage, read_lines

FRAME_HZ = 30.0

SCRIPT_VERSION = 1

# Fixation points as multiples of the center-box half-widths; three
# half-widths out is unambiguous even with several sigma of noise.
_TASK_MULT = (0.0, -3.0)
_ROBOT_MULT = (0.0, 0.0)
_AWAY_MULT = (3.0, 3.0)


def _parse_behavior(text: str) -> tuple[str, float | None]:
    if text in ("fix-task", "fix-robot", "fix-away"):
        return text, None
    if text.startswith("alternate:"):
        try:
            period = float(text.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad alternation period in {text!r}")
        if not period > 0:
            raise ValueError("alternation period must be > 0")
        return "alternate", period
    raise ValueError(f"unknown gaze behavior {text!r}")


@dataclass(frozen=True)
class SegmentSpec:
    """One scripted segment: `utterances` holds (offset, text) pairs
    with offsets relative to the segment start."""

    duration: float
    level: NeedLevelLabel
    behavior: str
    utterances: tuple[tuple[float, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.duration > 0:
            raise ValueError("segment duration must be > 0")
        _parse_behavior(self.behavior)
        last = None
        for offset, text in self.utterances:
            if not 0.0 <= offset < self.duration:
                raise ValueError(
                    f"utterance offset {offset} outside segment of "
                    f"duration {self.duration}"
                )
            if last is not None and offset <= last:
                raise ValueError("utterance offsets must strictly increase")
            if not text.strip():
                raise ValueError("utterance text must be non-empty")
            last = offset


@dataclass(frozen=True)
class ScenarioScript:
    segments: tuple[SegmentSpec, ...]
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("script needs at least one segment")
        # an angle's std-dev in radians: past pi the angles say nothing
        if not 0.0 <= self.noise <= math.pi:
            raise ValueError("noise must be in [0, pi]")

    @property
    def duration(self) -> float:
        t = 0.0
        for seg in self.segments:
            t = round(t + seg.duration, 3)
        return t


def _fixation(
    behavior: str, period: float | None, tau: float, th: GazeThresholds
) -> tuple[float, float]:
    if behavior == "fix-task":
        mult = _TASK_MULT
    elif behavior == "fix-robot":
        mult = _ROBOT_MULT
    elif behavior == "fix-away":
        mult = _AWAY_MULT
    else:  # alternate: even glances on the task, odd on the robot
        mult = _TASK_MULT if int(tau // period) % 2 == 0 else _ROBOT_MULT
    return mult[0] * th.yaw_center, mult[1] * th.pitch_center


def _utterance_time(
    start: float, end: float, offset: float, last: float | None
) -> float:
    """The time on the millisecond grid of an utterance at `offset` into
    the segment [start, end), after one at `last`, if any."""
    t = round(start + offset, 3)
    if t >= end:
        raise ValueError(f"utterance at offset {offset} rounds past its segment")
    if last is not None and t <= last:
        raise ValueError(f"utterances collide at t={t}")
    return t


def simulate(
    script: ScenarioScript,
    session_id: str,
    thresholds: GazeThresholds | None = None,
) -> SessionRecord:
    """Render a script into a session record.

    Gaze frames run at 30 Hz over [0, duration); angles are rounded to
    the 6-decimal wire precision so the in-memory record equals its own
    save/load round trip.
    """
    th = thresholds or GazeThresholds()
    rng = np.random.default_rng(script.seed)

    bounds = [0.0]
    utterances: list[TimestampedMessage] = []
    for seg in script.segments:
        start = bounds[-1]
        bounds.append(round(start + seg.duration, 3))
        for offset, text in seg.utterances:
            last = utterances[-1].originating_time if utterances else None
            t = _utterance_time(start, bounds[-1], offset, last)
            utterances.append(TimestampedMessage(t, text))
    duration = bounds[-1]
    labels = [
        LabelSpan(bounds[i], bounds[i + 1], seg.level)
        for i, seg in enumerate(script.segments)
    ]

    frames: list[TimestampedMessage] = []
    seg_idx = 0
    k = 0
    while True:
        t = round(k / FRAME_HZ, 3)
        if t >= duration:
            break
        while t >= bounds[seg_idx + 1]:
            seg_idx += 1
        seg = script.segments[seg_idx]
        behavior, period = _parse_behavior(seg.behavior)
        yaw, pitch = _fixation(behavior, period, t - bounds[seg_idx], th)
        if script.noise > 0:
            yaw += float(rng.normal(0.0, script.noise))
            pitch += float(rng.normal(0.0, script.noise))
        frames.append(
            TimestampedMessage(
                t, GazeObservation(round(yaw, 6), round(pitch, 6), 1.0)
            )
        )
        k += 1

    streams: dict[str, list[TimestampedMessage]] = {"gaze_raw": frames}
    if utterances:
        streams["utterance"] = utterances
    record = SessionRecord(
        session_id=session_id,
        duration=duration,
        streams=streams,
        labels=labels,
    )
    return record


def script_to_lines(script: ScenarioScript) -> list[str]:
    lines = [
        f"script_version={SCRIPT_VERSION} seed={script.seed} "
        f"noise={script.noise!r}"
    ]
    for seg in script.segments:
        lines.append(
            f"segment duration={fmt_time(seg.duration)} "
            f"label={seg.level.value} gaze={seg.behavior}"
        )
        for offset, text in seg.utterances:
            lines.append(
                f'utterance offset={fmt_time(offset)} text="{_escape(text)}"'
            )
    return lines


def save_script(script: ScenarioScript, path: str | Path) -> None:
    Path(path).write_text(
        "\n".join(script_to_lines(script)) + "\n", encoding="utf-8"
    )


def parse_script(lines: Iterable[str]) -> ScenarioScript:
    """Parse a script file; errors carry the offending line number."""
    head, fields, rows = _header(lines, "script", "script_version", SCRIPT_VERSION)
    try:
        seed = int(fields.get("seed", "0"))
    except ValueError:
        raise SessionFormatError(f"bad seed {fields.get('seed')!r}", head)
    if seed < 0:
        raise SessionFormatError("seed must be >= 0", head)
    noise = _parse_float(fields, "noise", head) if "noise" in fields else 0.0

    segments: list[SegmentSpec] = []
    current: list | None = None  # line number, then the open segment's fields
    # the open segment's start and the last utterance's time, on the grid
    # `simulate` renders onto, so a value that rounding breaks names its line
    start, last = 0.0, None

    def close_current() -> None:
        nonlocal start, last
        if current is None:
            return
        line_no, *spec, utterances = current
        try:
            segments.append(SegmentSpec(*spec, tuple(u[1:] for u in utterances)))
        except ValueError as exc:
            raise SessionFormatError(str(exc), line_no)
        end = round(start + spec[0], 3)
        if not end > start:  # else `simulate` makes an empty label span
            raise SessionFormatError(
                f"segment duration {spec[0]} rounds to 0 on the millisecond grid",
                line_no,
            )
        if end > MAX_SESSION_S:  # a runaway duration fails at its line
            raise SessionFormatError(
                f"script runs to {fmt_time(end)} s, past the "
                f"{MAX_SESSION_S:.0f} s a script may render",
                line_no,
            )
        for line_no, offset, _ in utterances:
            try:
                last = _utterance_time(start, end, offset, last)
            except ValueError as exc:
                raise SessionFormatError(str(exc), line_no)
        start = end

    for line_no, line in rows:
        keyword, _, rest = line.strip().partition(" ")
        fields = _parse_fields(rest, line_no)
        if keyword == "segment":
            close_current()
            level = _need_level(fields.get("label", ""), line_no)
            behavior = fields.get("gaze", "")
            try:
                _parse_behavior(behavior)
            except ValueError as exc:
                raise SessionFormatError(str(exc), line_no)
            duration = _parse_float(fields, "duration", line_no)
            current = [line_no, duration, level, behavior, []]
        elif keyword == "utterance":
            if current is None:
                raise SessionFormatError(
                    "utterance before any segment", line_no
                )
            text = _quoted_text(fields, line_no)
            offset = _parse_float(fields, "offset", line_no)
            current[-1].append((line_no, offset, text))
        else:
            raise SessionFormatError(
                f"unrecognized script line {keyword!r}", line_no
            )
    close_current()
    if not segments:
        raise SessionFormatError("script has no segments")
    try:  # what is left to check is the header's noise
        return ScenarioScript(tuple(segments), noise=noise, seed=seed)
    except ValueError as exc:
        raise SessionFormatError(str(exc), head)


def load_script(path: str | Path) -> ScenarioScript:
    """Read and parse a script file; every error names the file."""
    return read_lines(path, parse_script)


# Phrase banks for the benchmark suite.  Vocabulary deliberately bleeds
# across classes (question words in non-help segments, "let me" on both
# sides) so the language model is informative but imperfect.
FLOW_PHRASES = (
    "okay this piece goes here",
    "that looks right",
    "nice it fits",
    "building the next part now",
    "this one is easy",
    "there we go",
)
L0_PHRASES = (
    "hmm okay",
    "let me think",
    "hold on a moment",
)
L1_PHRASES = (
    "where does this one go",
    "hmm not sure about this",
    "wait that seems wrong",
    "is this the right piece",
)
L2_PHRASES = (
    "let me check the instructions",
    "i should look at the manual",
    "maybe the picture shows it",
    "let me see that diagram again",
)
L3_PHRASES = (
    "can you help me",
    "i need help with this",
    "what do i do next",
    "which piece goes here",
    "help please",
    "robot can you show me",
)

_SEGMENT_KINDS = {
    "Flow": (NeedLevelLabel.FLOW, "fix-task", (8.0, 12.0), FLOW_PHRASES),
    "L0": (NeedLevelLabel.L0, "fix-task", (4.0, 6.0), L0_PHRASES),
    "L1": (NeedLevelLabel.L1, "alternate:3.0", (6.0, 9.0), L1_PHRASES),
    "L2": (NeedLevelLabel.L2, "alternate:1.5", (6.0, 9.0), L2_PHRASES),
    "L3": (NeedLevelLabel.L3, "fix-robot", (5.0, 8.0), L3_PHRASES),
}


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def benchmark_suite(
    n_sessions: int = 20, seed: int = 0, noise: float = 0.02
) -> list[ScenarioScript]:
    """Deterministic family of scripts whose gaze patterns and phrasing
    correlate with the L2/L3 spans, with enough ambiguity that no single
    model is sufficient.  Every session contains both classes."""
    scripts = []
    for i in range(n_sessions):
        rng = np.random.default_rng([seed, i])
        plan = [
            "Flow",
            _pick(rng, ("L0", "L1")),
            _pick(rng, ("L2", "L3")),
            _pick(rng, ("Flow", "L1")),
            _pick(rng, ("L2", "L3")),
        ]
        segments = []
        for kind in plan:
            level, behavior, (lo, hi), bank = _SEGMENT_KINDS[kind]
            dur = round(float(rng.uniform(lo, hi)), 3)
            utts = []
            offset = round(1.0 + float(rng.uniform(0.0, 1.0)), 3)
            while offset < dur - 1.0:
                utts.append((offset, _pick(rng, bank)))
                offset = round(offset + 3.5 + float(rng.uniform(0.0, 2.5)), 3)
            segments.append(SegmentSpec(dur, level, behavior, tuple(utts)))
        scripts.append(
            ScenarioScript(
                tuple(segments),
                noise=noise,
                seed=int(rng.integers(2**31)),
            )
        )
    return scripts
