"""Timestamped message streams with originating-time semantics.

Every message carries the time its data originated at the source, and the
scheduler orders deliveries and ticks by those times, never by when they
are processed.  This is what makes the live shell, callbacks on a
`Pipeline`'s input streams and ticks (see `fusion`), reproduce the batch
computation over a recorded session exactly: both see the same
originating times regardless of processing latency.  Streams keep no
message, so a live run's memory does not grow with its length.  A
session file and a live session on standard input are read through one
line reader.

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


def _split(text: str) -> list[str]:
    # the one newline rule: "\n", "\r\n" or "\r" and nothing else, so text
    # keeps the U+2028, form feeds and the like str.splitlines splits at
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def text_lines(chunks: Iterable[str]) -> Iterator[str]:
    """The lines of text arriving in chunks of whole lines, as a text
    stream's lines or a whole file do, each line as soon as its chunk."""
    for chunk in chunks:
        lines = _split(chunk)
        if not lines[-1]:
            lines.pop()  # nothing follows the chunk's last line end
        yield from lines


def read_lines(
    path: str | Path, parse: Callable[[Iterator[str]], Any], digest=None
) -> Any:
    """`parse` of the `text_lines` of a UTF-8 file, read once; a hashlib
    `digest`, if given, is updated with its bytes.  A byte that is not
    UTF-8 is an error naming its line, and every `ValueError` gets the path
    prefixed, keeping its type and `line`."""
    data = Path(path).read_bytes()
    if digest is not None:
        digest.update(data)
    try:
        return parse(text_lines([data.decode("utf-8")]))
    except UnicodeDecodeError as exc:
        line = len(_split(data[: exc.start].decode("utf-8")))
        error = SessionFormatError("not UTF-8 text", line)
    except ValueError as exc:
        error = exc
    error.args = (f"{path}: {error}",)
    raise error from None


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


class Pipeline:
    """The live shell's input streams, one per name in `LIVE_INPUTS`, and
    its one tick schedule.

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
        """Set the tick schedule: tick k calls fn at round(k / cadence_hz, 3)."""
        self._cadence, self._on_tick = cadence_hz, fn
        self._k, self._next = 0, 0.0

    def _tick_until(self, t: float, inclusive: bool) -> None:
        while self._next < t or (inclusive and self._next == t):
            tick = self._next
            self._k += 1
            self._next = round(self._k / self._cadence, 3)
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
    the millisecond wire precision.  Count is floor(duration*cadence)+1."""
    if not cadence_hz > 0:
        raise ValueError("cadence must be > 0")
    ticks = []
    k = 0
    while True:
        t = round(k / cadence_hz, 3)
        if t > duration:
            break
        ticks.append(t)
        k += 1
    return ticks
