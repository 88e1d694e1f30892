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

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

# The streams a session file holds, in their order at equal times; wiring
# any other name is an error.
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


class StreamError(Exception):
    """Base class for stream wiring and delivery errors."""


class WiringError(StreamError):
    """Unknown stream name or invalid operator parameters."""


@dataclass(frozen=True, slots=True)
class TimestampedMessage:
    """A payload stamped with the time its data originated, in seconds."""

    originating_time: float
    payload: Any


class Stream:
    """A message stream with one producer that keeps no message.
    Subscribers are invoked synchronously in subscription order."""

    def __init__(self) -> None:
        self._subscribers: list[Callable[[TimestampedMessage], None]] = []

    def subscribe(self, fn: Callable[[TimestampedMessage], None]) -> None:
        self._subscribers.append(fn)

    def emit(self, t: float, payload: Any) -> None:
        msg = TimestampedMessage(t, payload)
        for fn in self._subscribers:
            fn(msg)


class _Ticker:
    """Fixed-cadence tick source.  Tick k fires at round(k/cadence, 3)."""

    def __init__(self, cadence_hz: float, fn: Callable[[float], None]):
        if not cadence_hz > 0:
            raise WiringError("cadence must be > 0")
        self.cadence = cadence_hz
        self.fn = fn
        self._k = 0

    def next_time(self) -> float:
        return round(self._k / self.cadence, 3)

    def fire_until(self, limit: float, inclusive: bool) -> None:
        while True:
            t = self.next_time()
            if t < limit or (inclusive and t == limit):
                self._k += 1
                self.fn(t)
            else:
                break


class Pipeline:
    """A set of named streams plus the scheduler that drives them.

    Driving rule: before a message at time t is delivered, all pending
    ticks strictly before t fire; ticks at exactly t fire only once time
    moves past t (or at finalize).  A hold that samples "inputs with
    originating time <= tick" therefore always sees the message that
    arrived exactly at the tick.
    """

    def __init__(self) -> None:
        self.streams: dict[str, Stream] = {}
        self._tickers: list[_Ticker] = []
        # per-stream counters; no current operator records an error
        self.error_counts: dict[str, int] = {}
        self.drop_counts: dict[str, int] = {}
        self._finalized = False

    def stream(self, name: str) -> Stream:
        if name not in STREAM_NAMES:
            raise WiringError(f"unknown stream name {name!r}")
        if name not in self.streams:
            self.streams[name] = Stream()
        return self.streams[name]

    def add_ticker(self, cadence_hz: float, fn: Callable[[float], None]) -> None:
        self._tickers.append(_Ticker(cadence_hz, fn))

    def advance_to(self, t: float) -> None:
        for ticker in self._tickers:
            ticker.fire_until(t, inclusive=False)

    def emit(self, name: str, t: float, payload: Any) -> None:
        if self._finalized:
            raise StreamError("pipeline already finalized")
        self.advance_to(t)
        self.stream(name).emit(t, payload)

    def finalize(self, t_end: float) -> None:
        """Fire all remaining ticks up to and including t_end.  No
        further emissions are accepted."""
        for ticker in self._tickers:
            ticker.fire_until(t_end, inclusive=True)
        self._finalized = True

    def _count_drop(self, name: str) -> None:
        self.drop_counts[name] = self.drop_counts.get(name, 0) + 1


# Canonical cross-stream order for tiebreaks at equal times.
_STREAM_ORDER = {name: i for i, name in enumerate(STREAM_NAMES)}


def time_ordered(
    messages: Iterable[tuple[str, TimestampedMessage]],
) -> list[tuple[str, TimestampedMessage]]:
    """(stream, message) pairs in global originating-time order; ties
    across streams break by the canonical stream order."""
    return sorted(
        messages, key=lambda sm: (sm[1].originating_time, _STREAM_ORDER[sm[0]])
    )


def replay(
    pipe: Pipeline,
    messages: Iterable[tuple[str, TimestampedMessage]],
    duration: float,
) -> None:
    """Deliver recorded (stream, message) pairs in global originating-time
    order (see `time_ordered`), then finalize at `duration`."""
    for name, msg in time_ordered(messages):
        pipe.emit(name, msg.originating_time, msg.payload)
    pipe.finalize(duration)


def tick_times(duration: float, cadence_hz: float) -> list[float]:
    """All tick times in [0, duration] at the given cadence, rounded to
    the millisecond wire precision.  Count is floor(duration*cadence)+1."""
    if not cadence_hz > 0:
        raise WiringError("cadence must be > 0")
    ticks = []
    k = 0
    while True:
        t = round(k / cadence_hz, 3)
        if t > duration:
            break
        ticks.append(t)
        k += 1
    return ticks
