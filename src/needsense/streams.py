"""Timestamped message streams with originating-time semantics.

Every message carries the time its data originated at the source, and the
scheduler orders deliveries and ticks by those times, never by when they
are processed.  `Pipeline` is the one tick clock and hold: `run` drives
one over both input streams, and `train` and `eval` one per stream of a
recorded session (see `fusion`), so batch and live see the same
originating times regardless of processing latency and hold the same
values.  Streams keep no message, so a run's memory does not grow with
its length.

Every text input but `rf.model`, a file any command reads or a live
session on standard input, is read a line at a time through one line
reader (`text_lines`), so a data error is named at the input's first
faulty line in line order.

Time resolution is one millisecond; producers are expected to round
originating times to 3 decimal places (the wire precision) so in-memory
values match what survives a save/load round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

# The streams a session file holds, in their order at equal times.
STREAM_NAMES = (
    "gaze_raw",
    "need_mutual",
    "need_confirmatory",
    "utterance",
    "need_language",
)

# The streams the live shell reads: raw gaze frames and utterances.
LIVE_INPUTS = ("gaze_raw", "utterance")


class SessionFormatError(ValueError):
    """Malformed line-oriented input; carries its line number if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def text_lines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines of text arriving in chunks of whole lines, as a text
    stream read with `newline="\n"` gives them, each line as soon as its
    chunk.  The one newline rule: "\n", "\r\n" or "\r" and nothing else,
    so a line keeps the U+2028, form feeds and the like str.splitlines
    splits at.  A line holding a lone surrogate, a byte that is not UTF-8
    which the decoder escaped, is an error naming its line."""
    line_no = 0
    for chunk in chunks:
        lines = chunk.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if not lines[-1]:
            lines.pop()  # nothing follows the chunk's last line end
        for line in lines:
            line_no += 1
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise SessionFormatError("not UTF-8 text", line_no) from None
            yield line


def read_lines(
    path: str | Path, parse: Callable[[Iterator[str]], Any], digest=None
) -> Any:
    """`parse` of the `text_lines` of a UTF-8 file, read a line at a time
    as standard input is, a byte that is not UTF-8 escaped as a lone
    surrogate; a hashlib `digest`, if given, is updated with the bytes
    read.  Every `ValueError` gets the path prefixed, keeping its type and
    `line`."""
    try:
        with open(
            path, encoding="utf-8", errors="surrogateescape", newline="\n"
        ) as f:
            return parse(text_lines(f if digest is None else _hashed(f, digest)))
    except ValueError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _hashed(lines: Iterable[str], digest) -> Iterator[str]:
    """`lines` as they come, `digest` updated with the bytes each was
    decoded from."""
    for line in lines:
        digest.update(line.encode("utf-8", "surrogateescape"))
        yield line


@dataclass(frozen=True, slots=True)
class TimestampedMessage:
    """A payload stamped with the time its data originated, in seconds."""

    originating_time: float
    payload: Any


class Stream:
    """A message stream with one producer that keeps no message.
    Subscribers get each message's (time, payload), synchronously and in
    subscription order."""

    def __init__(self) -> None:
        self._subscribers: list[Callable[[float, Any], None]] = []

    def subscribe(self, fn: Callable[[float, Any], None]) -> None:
        self._subscribers.append(fn)

    def emit(self, t: float, payload: Any) -> None:
        for fn in self._subscribers:
            fn(t, payload)


def _tick(k: int, cadence_hz: float) -> float:
    """The time of tick k: k / cadence_hz rounded to the millisecond wire
    precision, so the ticks never decrease as k grows."""
    return round(k / cadence_hz, 3)


class Pipeline:
    """The engine that fires ticks and holds inputs for every command: an
    input stream per name in `LIVE_INPUTS`, and one tick schedule.

    Driving rule: before a message at time t is delivered, all pending
    ticks strictly before t fire; ticks at exactly t fire only once time
    moves past t (or at finalize).  A hold that samples "inputs with
    originating time <= tick" therefore always sees the message that
    arrived exactly at the tick.
    """

    def __init__(self) -> None:
        self.streams = {name: Stream() for name in LIVE_INPUTS}
        # per-stream counters, which perfbench's tracer reads at finalize;
        # no current operator records an error
        self.error_counts: dict[str, int] = {}
        self.drop_counts: dict[str, int] = {}
        self._next = math.inf  # the next tick's time; none until add_ticker

    def add_ticker(self, cadence_hz: float, fn: Callable[[float], None]) -> None:
        """Set the tick schedule: tick k calls fn at `_tick(k, cadence_hz)`."""
        self._cadence, self._on_tick = cadence_hz, fn
        self._k, self._next = 0, 0.0

    def _tick_until(self, t: float, inclusive: bool) -> None:
        while self._next < t or (inclusive and self._next == t):
            tick = self._next
            self._k += 1
            self._next = _tick(self._k, self._cadence)
            self._on_tick(tick)

    def emit(self, name: str, t: float, payload: Any) -> None:
        """Fire the ticks before t, then deliver the message on `name`."""
        self._tick_until(t, inclusive=False)
        self.streams[name].emit(t, payload)

    def finalize(self, t_end: float) -> None:
        """Fire all remaining ticks up to and including t_end."""
        self._tick_until(t_end, inclusive=True)


def tick_times(duration: float, cadence_hz: float) -> list[float]:
    """All tick times in [0, duration] at the given cadence, rounded to
    the millisecond wire precision: the ticks of a `Pipeline` with no
    input finalized at `duration`.  Count is floor(duration*cadence)+1."""
    pipe, ticks = Pipeline(), []
    pipe.add_ticker(cadence_hz, ticks.append)
    pipe.finalize(duration)
    return ticks


def ticks_before(duration: float, cadence_hz: float) -> int:
    """How many ticks a `Pipeline` at `cadence_hz` fires before `duration`,
    the k with `_tick(k, cadence_hz) < duration`, found from the ticks next
    to the duration without firing the others."""
    k = math.ceil(max(duration, 0.0) * cadence_hz)
    while k > 0 and _tick(k - 1, cadence_hz) >= duration:
        k -= 1
    while _tick(k, cadence_hz) < duration:
        k += 1
    return k
