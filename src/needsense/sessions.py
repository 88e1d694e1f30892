"""Persisted session recordings and their export to training data.

A session file is line-oriented UTF-8 text: a header, the need-level
label spans, then every recorded message.  Times carry 3 decimal places
and need values 6; the canonical form orders messages globally by
(time, stream), which keeps files diffable, byte-reproducible, and
directly replayable in time order.

A file's lines, read a line at a time by `streams.read_lines`, and
those of a live session on standard input pass through one incremental
reader (`SessionReader`), so either names its first faulty line in line
order, and a fault within one stream reads alike from every command.

Two stores share this format: raw recordings (gaze observations and
utterances) and derived recordings (per-tick model outputs).  `train`
and `eval` hand each raw recording's gaze frames to the gaze models as
the reader yields them and keep none.  In memory the first training
stage gives plain (ticks, frames) arrays; `save_derived` writes them as
the derived recording `train` keeps, one need stream per column.  The
text model's training data are plain rows, (text, label) per utterance
(`export_language_corpus`); `fusion` cuts the forest's windowed rows
(`TrainingMatrix`) from the frames.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .gaze import GazeObservation
from .streams import (
    LIVE_INPUTS,
    STREAM_NAMES,
    SessionFormatError,
    TimestampedMessage,
    read_lines,
)

FORMAT_VERSION = 1

# A session lasts at most one hour: `train` and `eval` hold two gaze holds
# and a label per tick (36,000 ticks at 10 Hz, each a row of 3 * window_w
# features once exported), and `simulate` holds its gaze frames (108,000),
# so a runaway duration fails at the line that declares it
MAX_SESSION_S = 3600.0

NEED_STREAMS = ("need_mutual", "need_confirmatory", "need_language")

# Canonical cross-stream order for tiebreaks at equal times.
_STREAM_ORDER = {name: i for i, name in enumerate(STREAM_NAMES)}

_SESSION_ID_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


class NeedLevelLabel(Enum):
    """The five annotated need levels; levels 2 and 3 mean the robot
    should help."""

    FLOW = "Flow"
    L0 = "L0"
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"

    @property
    def weight(self) -> int:
        """Weight used by the session-average help statistic."""
        return {"Flow": -1, "L0": 0, "L1": 1, "L2": 2, "L3": 3}[self.value]

    @property
    def binary(self) -> int:
        return 1 if self in (NeedLevelLabel.L2, NeedLevelLabel.L3) else 0


@dataclass(frozen=True)
class LabelSpan:
    """Half-open span [start, end) carrying one need level."""

    start: float
    end: float
    level: NeedLevelLabel


def fmt_time(t: float) -> str:
    return f"{round(t, 3) + 0.0:.3f}"


def fmt_value(v: float) -> str:
    return f"{round(v, 6) + 0.0:.6f}"


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _unescape(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text, flags=re.DOTALL)


@dataclass
class SessionRecord:
    """One recorded session: all message streams plus the label track."""

    session_id: str
    duration: float
    streams: dict[str, list[TimestampedMessage]] = field(default_factory=dict)
    labels: list[LabelSpan] = field(default_factory=list)

    def messages(self, name: str) -> list[TimestampedMessage]:
        return self.streams.get(name, [])

    def all_messages(self) -> list[tuple[str, TimestampedMessage]]:
        """Every message, globally ordered by (time, canonical stream)."""
        return sorted(
            ((name, msg) for name, msgs in self.streams.items() for msg in msgs),
            key=lambda sm: (sm[1].originating_time, _STREAM_ORDER[sm[0]]),
        )

    def validate(self) -> None:
        """Refuse what `load` would refuse of the lines `to_lines` writes,
        whose times are rounded to whole milliseconds."""
        duration = _checked_duration(self.session_id, self.duration)
        last_t: dict[str, float] = {}
        for name, msgs in self.streams.items():
            if name not in STREAM_NAMES:
                raise SessionFormatError(f"unknown stream name {name!r}")
            for msg in msgs:
                t = msg.originating_time
                _check_time(name, round(t, 3), duration, last_t)
                problem = _payload_problem(name, msg.payload)
                if problem:  # else it would not load back
                    raise SessionFormatError(f"{name} at {t}: {problem}")
        _validate_rounded_labels(self.labels, duration)

    def _head_lines(self) -> list[str]:
        """The header and label lines that every serialization starts with."""
        lines = [
            f"format_version={FORMAT_VERSION} session_id={self.session_id} "
            f"duration={fmt_time(self.duration)}"
        ]
        for span in sorted(self.labels, key=lambda s: s.start):
            lines.append(
                f"stream=label start={fmt_time(span.start)} "
                f"end={fmt_time(span.end)} level={span.level.value}"
            )
        return lines

    def to_lines(self) -> list[str]:
        """Canonical serialization.  Identity under save/load requires the
        record's times and values to already be at wire precision."""
        lines = self._head_lines()
        for name, msg in self.all_messages():
            lines.append(_message_line(name, msg))
        return lines

    def save(self, path: str | Path) -> None:
        self.validate()
        Path(path).write_text(
            "\n".join(self.to_lines()) + "\n", encoding="utf-8"
        )


def _checked_duration(session_id: str, duration: float) -> float:
    """The duration `to_lines` writes, once it and the session id are shown
    to be ones `load` reads back."""
    if not _SESSION_ID_RE.match(session_id):
        raise SessionFormatError(f"invalid session id {session_id!r}")
    duration = round(duration, 3)
    if not duration > 0:
        raise SessionFormatError("duration must be > 0")
    if not math.isfinite(duration):
        raise SessionFormatError("non-finite value for 'duration'")
    _check_length(duration)
    return duration


def _check_length(duration: float, line_no: int | None = None) -> None:
    if duration > MAX_SESSION_S:
        raise SessionFormatError(
            f"duration must be <= {MAX_SESSION_S:.0f} s, not {fmt_time(duration)}",
            line_no,
        )


def _validate_rounded_labels(
    labels: list[LabelSpan], duration: float, lines: list[int] | None = None
) -> None:
    """`_validate_labels` of the spans and the duration as `to_lines`
    writes them."""
    spans = [LabelSpan(round(s.start, 3), round(s.end, 3), s.level) for s in labels]
    _validate_labels(spans, round(duration, 3), lines)


def _message_line(name: str, msg: TimestampedMessage) -> str:
    t = fmt_time(msg.originating_time)
    if name == "gaze_raw":
        obs: GazeObservation = msg.payload
        return (
            f"stream=gaze_raw t={t} yaw={fmt_value(obs.yaw)} "
            f"pitch={fmt_value(obs.pitch)} conf={fmt_value(obs.confidence)}"
        )
    if name == "utterance":
        return f'stream=utterance t={t} text="{_escape(msg.payload)}"'
    return f"stream={name} t={t} v={fmt_value(msg.payload)}"


def _validate_labels(
    labels: list[LabelSpan],
    duration: float,
    lines: list[int] | None = None,
) -> None:
    """The spans must tile [0, duration); an error names the line of the
    span at fault, `lines[i]` being that of `labels[i]`, if given."""
    if not labels:
        raise SessionFormatError("session has no label spans")
    spans = sorted(
        zip(labels, lines or [None] * len(labels)), key=lambda p: p[0].start
    )
    for span, line in spans:
        if not span.start < span.end:
            raise SessionFormatError(
                f"label span start {span.start} not before end {span.end}", line
            )
    first, line = spans[0]
    if first.start != 0.0:
        raise SessionFormatError(
            f"label coverage starts at {first.start}, expected 0.0", line
        )
    for (prev, _), (cur, line) in zip(spans, spans[1:]):
        if cur.start < prev.end:
            raise SessionFormatError(f"label overlap at {fmt_time(cur.start)}", line)
        if cur.start > prev.end:
            raise SessionFormatError(f"label gap at {fmt_time(prev.end)}", line)
    last, line = spans[-1]
    if last.end != duration:
        raise SessionFormatError(
            f"label coverage ends at {last.end}, expected {duration}", line
        )


_FIELD_RE = re.compile(r'(\w+)=("(?:[^"\\]|\\.)*"|\S+)')


def _parse_fields(line: str, line_no: int) -> dict[str, str]:
    fields: dict[str, str] = {}
    pos = 0
    for m in _FIELD_RE.finditer(line):
        if line[pos:m.start()].strip():
            raise SessionFormatError(
                f"unparseable text {line[pos:m.start()].strip()!r}", line_no
            )
        key, raw = m.group(1), m.group(2)
        if key in fields:
            raise SessionFormatError(f"duplicate field {key!r}", line_no)
        fields[key] = raw
        pos = m.end()
    if line[pos:].strip():
        raise SessionFormatError(f"unparseable text {line[pos:].strip()!r}", line_no)
    return fields


# a gaze line with its fields in canonical order, as nearly every line of a
# recording is; `_plain_gaze` reads it without `_parse_fields`
_GAZE_LINE = re.compile(r"stream=gaze_raw t=(\S+) yaw=(\S+) pitch=(\S+) conf=(\S+)")


def _plain_gaze(line: str) -> tuple[float, GazeObservation] | None:
    """(t, observation) of a `_GAZE_LINE` whose values are finite numbers and
    whose conf lies in [0, 1], else None.  Such a line passes every check of
    the general path but the time checks, and gives the same message; any
    other line takes the general path, which names its fault."""
    match = _GAZE_LINE.fullmatch(line)
    if match is None:
        return None
    try:
        t, yaw, pitch, conf = map(float, match.groups())
    except ValueError:
        return None
    if not (math.isfinite(t) and math.isfinite(yaw) and math.isfinite(pitch)):
        return None
    return (t, GazeObservation(yaw, pitch, conf)) if 0.0 <= conf <= 1.0 else None


def _parse_float(fields: dict[str, str], key: str, line_no: int) -> float:
    if key not in fields:
        raise SessionFormatError(f"missing field {key!r}", line_no)
    try:
        v = float(fields[key])
    except ValueError:
        raise SessionFormatError(f"bad number for {key!r}: {fields[key]}", line_no)
    if not math.isfinite(v):
        raise SessionFormatError(f"non-finite value for {key!r}", line_no)
    return v


def _header(
    lines: Iterable[str], kind: str, version_key: str, version: int
) -> tuple[int, dict[str, str], Iterator[tuple[int, str]]]:
    """The line number and fields of the first nonblank line, a header
    with `version_key`=`version`, and the numbered nonblank lines after it."""
    rows = ((i, line) for i, line in enumerate(lines, start=1) if line.strip())
    first = next(rows, None)
    if first is None:
        raise SessionFormatError(f"empty {kind} file")
    line_no, header = first
    fields = _parse_fields(header, line_no)
    if fields.get(version_key) != str(version):
        raise SessionFormatError(
            f"unsupported or missing {version_key} in header", line_no
        )
    return line_no, fields, rows


def _check_time(
    name: str, t: float, duration: float, last_t: dict[str, float], line_no=None
) -> None:
    """A message's t must lie in [0, duration] and be later than the previous
    message on its stream; records it as that stream's last time."""
    if not 0.0 <= t <= duration:
        raise SessionFormatError(
            f"stream {name}: time {t} outside [0, {duration}]", line_no
        )
    if name in last_t and t <= last_t[name]:
        raise SessionFormatError(
            f"stream {name}: non-monotone time {t} after {last_t[name]}",
            line_no,
        )
    last_t[name] = t


class SessionReader:
    """Session-format lines read one at a time, the header on construction.
    Iterating yields (line number, stream name, `LabelSpan` or
    `TimestampedMessage`) per later line once it passes every check that
    needs no later line; `live` input, which `run` reads, also bars a
    stream the live shell does not read and a message earlier than the one
    before it, and `labeled` input, whose utterances `train` and `eval`
    label, an utterance at the duration, which no half-open label span
    covers.  A message's time is checked against its own stream before a
    mode's rule on it, so a fault within one stream reads alike in every
    mode.
    Input that has arrived `whole` keeps its spans in `labels`, and once its
    last line is read they must tile [0, duration), also as `train` writes
    them back to the millisecond; an error names the span's line."""

    def __init__(
        self, lines: Iterable[str], live: bool = False, labeled: bool = False,
        whole: bool = False,
    ):
        line_no, fields, self._rows = _header(
            lines, "session", "format_version", FORMAT_VERSION
        )
        self.session_id = fields.get("session_id", "")
        if not _SESSION_ID_RE.match(self.session_id):
            raise SessionFormatError(f"invalid session id {self.session_id!r}", line_no)
        self.duration = _parse_float(fields, "duration", line_no)
        _check_length(self.duration, line_no)
        self.live = live
        self.labeled = labeled
        self.whole = whole
        self.labels: list[LabelSpan] = []

    def __iter__(self) -> Iterator[tuple[int, str, object]]:
        last_t: dict[str, float] = {}
        latest = float("-inf")
        label_lines: list[int] = []
        for line_no, line in self._rows:
            gaze = _plain_gaze(line)
            if gaze:
                name = "gaze_raw"
                t, payload = gaze
            else:
                fields = _parse_fields(line, line_no)
                name = fields.get("stream")
                if name is None:
                    raise SessionFormatError("missing stream field", line_no)
                if name == "label":
                    start = _parse_float(fields, "start", line_no)
                    end = _parse_float(fields, "end", line_no)
                    level = _need_level(fields.get("level", ""), line_no)
                    span = LabelSpan(start, end, level)
                    if self.whole:
                        self.labels.append(span)
                        label_lines.append(line_no)
                    yield line_no, name, span
                    continue
                if name not in STREAM_NAMES:
                    raise SessionFormatError(f"unknown stream name {name!r}", line_no)
                if self.live and name not in LIVE_INPUTS:
                    raise SessionFormatError(
                        f"stream {name!r} is not a live input", line_no
                    )
                t = _parse_float(fields, "t", line_no)
            _check_time(name, t, self.duration, last_t, line_no)
            if self.live and t < latest:
                raise SessionFormatError(
                    f"message at t={t} arrives after t={latest}; live input "
                    "must be in global time order",
                    line_no,
                )
            latest = t
            if t == self.duration and name == "utterance" and self.labeled:
                raise SessionFormatError(
                    f"stream utterance: time {t} outside [0, {self.duration})",
                    line_no,
                )
            if not gaze:
                payload = _parse_payload(name, fields, line_no)
            yield line_no, name, TimestampedMessage(t, payload)
        if self.whole:
            _validate_labels(self.labels, self.duration, label_lines)
            _validate_rounded_labels(self.labels, self.duration, label_lines)


def parse_session(lines: Iterable[str], labeled: bool = False) -> SessionRecord:
    """Parse and validate a session, read as `labeled` input if asked (see
    `SessionReader`); errors name the offending line."""
    reader = SessionReader(lines, labeled=labeled, whole=True)
    streams: dict[str, list[TimestampedMessage]] = {}
    for _, name, item in reader:
        if name != "label":
            streams.setdefault(name, []).append(item)
    return SessionRecord(reader.session_id, reader.duration, streams, reader.labels)


def _need_level(text: str, line_no: int) -> NeedLevelLabel:
    try:
        return NeedLevelLabel(text)
    except ValueError:
        raise SessionFormatError(f"unknown need level {text!r}", line_no) from None


def _payload_problem(name: str, payload) -> str | None:
    """Why a message payload cannot be stored, or None: a gaze value that is
    not finite or a conf outside [0, 1], a need value outside [0, 1], or an
    utterance that is blank or spans lines.  Plain float comparisons, since
    every message of every saved or loaded session passes here."""
    if name == "gaze_raw":
        for key, v in (("yaw", payload.yaw), ("pitch", payload.pitch)):
            if not math.isfinite(v):
                return f"non-finite value for {key!r}"
        if not 0.0 <= payload.confidence <= 1.0:
            return f"conf {payload.confidence} outside [0, 1]"
    elif name == "utterance":
        if not payload.strip() or {"\n", "\r"} & set(payload):
            return "utterance text is empty or spans lines"
    elif not 0.0 <= payload <= 1.0:
        return f"need value {payload} outside [0, 1]"
    return None


def _parse_payload(name: str, fields: dict[str, str], line_no: int):
    if name == "gaze_raw":
        payload = GazeObservation(
            yaw=_parse_float(fields, "yaw", line_no),
            pitch=_parse_float(fields, "pitch", line_no),
            confidence=_parse_float(fields, "conf", line_no),
        )
    elif name == "utterance":
        payload = _quoted_text(fields, line_no)
    else:
        payload = _parse_float(fields, "v", line_no)
    problem = _payload_problem(name, payload)
    if problem:
        raise SessionFormatError(problem, line_no)
    return payload


def _quoted_text(fields: dict[str, str], line_no: int) -> str:
    raw = fields.get("text")
    if raw is None or not (raw.startswith('"') and raw.endswith('"')):
        raise SessionFormatError("utterance missing quoted text", line_no)
    return _unescape(raw[1:-1])


def load(path: str | Path, labeled: bool = False) -> SessionRecord:
    """Read and parse a session file; every error names the file."""
    return read_lines(path, lambda lines: parse_session(lines, labeled))


def binary_labels(record: SessionRecord, times) -> np.ndarray:
    """1 where the user needs the robot's help (levels 2 and 3), else 0,
    at each time; span starts are inclusive, ends exclusive."""
    times = np.asarray(times, dtype=np.float64)
    outside = ~((times >= 0.0) & (times < record.duration))
    if outside.any():
        raise ValueError(
            f"time {float(times[outside][0])} outside [0, {record.duration})"
        )
    spans = sorted(record.labels, key=lambda s: s.start)
    # index 0 stands for "before every span", which nothing covers
    idx = np.searchsorted([s.start for s in spans], times, side="right")
    uncovered = times >= np.array([-np.inf, *(s.end for s in spans)])[idx]
    if uncovered.any():
        raise ValueError(
            f"no label span covers time {float(times[uncovered][0])}"
        )
    return np.array([0, *(s.level.binary for s in spans)], dtype=np.int64)[idx]


@dataclass
class TrainingMatrix:
    """Windowed feature rows and their binary labels, in canonical order,
    sessions by id and ticks ascending, as `fusion` exports them; the
    forest is fitted on them in that order."""

    features: np.ndarray
    labels: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def export_language_corpus(records: list[SessionRecord]) -> list[tuple[str, int]]:
    """One (text, binary label) row per utterance, labeled by the need
    level at the utterance's finalization time."""
    rows = []
    for record in sorted(records, key=lambda r: r.session_id):
        msgs = record.messages("utterance")
        labels = binary_labels(record, [m.originating_time for m in msgs])
        rows.extend(zip((m.payload for m in msgs), labels.tolist()))
    return rows


def save_derived(
    path: str | Path, record: SessionRecord, ticks: list[float], frames: np.ndarray
) -> None:
    """Write the derived session of raw session `record`: its stage-1
    (T, 3) frames on `ticks` as the three need streams, with the record's
    labels.  The bytes, and the error for a value `load` would refuse, are
    those `SessionRecord.save` gives for a record of those messages; the
    lines are formatted straight from the arrays, tick by tick with the need
    streams in canonical order, which is the order `to_lines` sorts them
    into."""
    duration = _checked_duration(record.session_id, record.duration)
    _check_needs(ticks, frames, duration)
    _validate_rounded_labels(record.labels, duration)
    lines = record._head_lines()
    for tick, (mutual, confirmatory, language) in zip(ticks, frames.tolist()):
        t = fmt_time(tick)
        lines.append(
            f"stream=need_mutual t={t} v={fmt_value(mutual)}\n"
            f"stream=need_confirmatory t={t} v={fmt_value(confirmatory)}\n"
            f"stream=need_language t={t} v={fmt_value(language)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_needs(ticks: list[float], frames: np.ndarray, duration: float) -> None:
    """Raise what `SessionRecord.validate` raises first of the need streams
    (ticks, frames) would make: it checks each stream in turn, a message's
    time before its value.  Every stream has the same times, so only the
    first can fault on one, and only up to its first faulty value."""
    ticks, frames = ticks[: len(frames)], frames[: len(ticks)]  # as zip pairs them
    outside = ~((frames >= 0.0) & (frames <= 1.0))  # NaN too
    last_t: dict[str, float] = {}
    for k, name in enumerate(NEED_STREAMS):
        bad = np.flatnonzero(outside[:, k])[:1].tolist()
        if k == 0:
            for t in ticks[: bad[0] + 1 if bad else len(ticks)]:
                _check_time(name, round(t, 3), duration, last_t)
        if bad:
            problem = _payload_problem(name, float(frames[bad[0], k]))
            raise SessionFormatError(f"{name} at {ticks[bad[0]]}: {problem}")


def frame_windows(frames: np.ndarray, window: int) -> np.ndarray:
    """Sliding windows over (T, 3) frames: row i concatenates frames i to
    i + window - 1, oldest first, so it is anchored at frame
    i + window - 1.  No rows until `window` frames exist (no padding).
    The rows are a read-only view of the frames, one frame apart."""
    if window < 1:
        raise ValueError(f"window must be >= 1, not {window}")
    frames = np.ascontiguousarray(frames, dtype=np.float64)
    shape = (max(len(frames) - window + 1, 0), 3 * window)
    rows = np.ndarray(shape, np.float64, frames, strides=(3 * 8, 8))
    rows.flags.writeable = False
    return rows
