"""Stream substrate: the line reader every text input passes through,
delivery, tick schedule and recorded message order, and the live shell's
hold and window that run on it."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needsense.gaze import GazeObservation
from needsense.sessions import SessionRecord
from needsense.streams import (
    Pipeline,
    SessionFormatError,
    TimestampedMessage,
    read_lines,
    text_lines,
    tick_times,
)


class TestReadLines:
    @pytest.mark.parametrize(
        "data, lines",
        [
            pytest.param(b"a\nb\n", ["a", "b"], id="LF"),
            pytest.param(b"a\r\nb\r\n", ["a", "b"], id="CRLF"),
            pytest.param(b"a\rb\n", ["a", "b"], id="lone-CR"),
            pytest.param(b"a\n\n\r\n\nb\n", ["a", "", "", "", "b"], id="blank"),
            pytest.param(b"a\nb", ["a", "b"], id="no-final-line-end"),
            pytest.param("a\u2028b\n".encode(), ["a\u2028b"], id="U+2028"),
        ],
    )
    def test_digest_holds_the_bytes_read(self, tmp_path, data, lines):
        # not the lines parsed, which lose each line end's spelling
        path = tmp_path / "a.txt"
        path.write_bytes(data)
        digest = hashlib.sha256()
        assert read_lines(path, list, digest) == lines
        assert digest.digest() == hashlib.sha256(data).digest()

    def test_each_line_comes_before_the_next_is_checked(self):
        lines = text_lines(["a\n", "b\udcff\n"])
        assert next(lines) == "a"
        with pytest.raises(SessionFormatError, match="line 2: not UTF-8 text"):
            next(lines)


def held_language(sink) -> list[tuple[float, float]]:
    """The language value of each frame the live hold decided on."""
    return [(d.t, d.language) for d in sink]


def live_windows(live_shell, size, frames, cadence_hz=1.0):
    """(time, window) for each decision of the live ring buffer over
    (tick time, frame) inputs, each frame held from its tick on."""
    pipe, sink, forest = live_shell(cadence_hz, size)
    for t, (mutual, confirmatory, language) in frames:
        pipe.emit("gaze_raw", t, GazeObservation(mutual, confirmatory))
        pipe.emit("utterance", t, repr(language))
    if frames:
        pipe.finalize(frames[-1][0])
    assert len(sink) == len(forest.windows)
    return [(d.t, w) for d, w in zip(sink, forest.windows)]


def frame(k):
    return (float(k), 0.5, 0.25)


class TestEmit:
    def test_subscribers_see_messages_in_order(self):
        pipe = Pipeline()
        seen = []
        pipe.streams["gaze_raw"].subscribe(lambda t, p: seen.append((t, p)))
        pipe.emit("gaze_raw", 1.0, 0.4)
        pipe.emit("gaze_raw", 2.0, 0.5)
        assert seen == [(1.0, 0.4), (2.0, 0.5)]

    def test_ticks_before_a_message_fire_first_and_at_it_after(self):
        pipe = Pipeline()
        events = []
        pipe.streams["utterance"].subscribe(lambda t, p: events.append(("msg", t)))
        pipe.add_ticker(10.0, lambda t: events.append(("tick", t)))
        pipe.emit("utterance", 0.2, "hi")
        pipe.emit("utterance", 0.25, "yo")
        pipe.finalize(0.3)
        assert events == [
            ("tick", 0.0), ("tick", 0.1), ("msg", 0.2),
            ("tick", 0.2), ("msg", 0.25), ("tick", 0.3),
        ]

    def test_payloads_immutable(self):
        msg = TimestampedMessage(1.0, 0.4)
        with pytest.raises(AttributeError):
            msg.payload = 0.5


class TestSampleHold:
    """The live shell's zero-order hold of one model's output."""

    def test_initial_until_first_input(self, live_shell):
        pipe, sink, _ = live_shell()
        pipe.emit("utterance", 0.95, "0.8")
        pipe.finalize(1.5)
        out = held_language(sink)
        for t, v in out:
            assert v == (0.0 if t < 1.0 else 0.8)
        assert [t for t, _ in out] == [round(k / 10, 3) for k in range(16)]

    def test_no_input_emits_initial_forever(self, live_shell):
        pipe, sink, _ = live_shell()
        pipe.finalize(0.5)
        assert [
            (d.t, (d.mutual, d.confirmatory, d.language)) for d in sink
        ] == [(round(k / 10, 3), (0.0, 0.0, 0.0)) for k in range(6)]

    def test_latest_at_or_before_tick(self, live_shell):
        pipe, sink, _ = live_shell()
        pipe.emit("utterance", 1.0, "0.2")
        pipe.emit("utterance", 1.05, "0.9")
        pipe.finalize(1.2)
        out = dict(held_language(sink))
        assert out[1.0] == 0.2
        assert out[1.1] == 0.9

    @given(
        times_values=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=48),
                st.floats(0, 1, allow_nan=False),
            ),
            max_size=12,
        ),
        cut=st.integers(min_value=0, max_value=48),
    )
    @settings(max_examples=60, deadline=None)
    def test_causality_under_truncation(self, live_shell, times_values, cut):
        # output at ticks <= T only depends on inputs at times <= T
        msgs = sorted({round(k / 10, 3): v for k, v in times_values}.items())
        t_cut = round(cut / 10, 3)

        def run(messages):
            pipe, sink, _ = live_shell()
            for t, v in messages:
                pipe.emit("utterance", t, repr(v))
            pipe.finalize(5.0)
            return held_language(sink)

        full = [o for o in run(msgs) if o[0] <= t_cut]
        truncated = [
            o for o in run([m for m in msgs if m[0] <= t_cut]) if o[0] <= t_cut
        ]
        assert full == truncated


class TestSlidingWindow:
    """The live shell's ring buffer over held frames."""

    def test_size_one_wraps_input(self, live_shell):
        out = live_windows(live_shell, 1, [(float(k), frame(k)) for k in range(4)])
        assert out == [(float(k), frame(k)) for k in range(4)]

    def test_w3_example(self, live_shell):
        a, b, c, d = (frame(k) for k in range(4))
        out = live_windows(live_shell, 3, [(float(k), frame(k)) for k in range(4)])
        assert out == [
            (2.0, a + b + c),
            (3.0, b + c + d),
        ]

    def test_100_ticks_w20_gives_81_windows_matching_offline_slices(
        self, live_shell
    ):
        out = live_windows(
            live_shell, 20, [(round(k / 10, 3), frame(k)) for k in range(100)], 10.0
        )
        assert len(out) == 81
        for i, (t, window) in enumerate(out):
            assert t == round((i + 19) / 10, 3)
            assert window == sum((frame(k) for k in range(i, i + 20)), ())

    def test_no_output_during_warmup(self, live_shell):
        out = live_windows(live_shell, 5, [(float(k), frame(k)) for k in range(4)])
        assert out == []

    @given(
        n=st.integers(min_value=0, max_value=60),
        w=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_count(self, live_shell, n, w):
        out = live_windows(live_shell, w, [(float(k), frame(k)) for k in range(n)])
        assert len(out) == max(0, n - w + 1)


def recorded(messages) -> SessionRecord:
    """A session holding (stream, message) pairs, each stream's in the
    order given."""
    streams = {}
    for name, msg in messages:
        streams.setdefault(name, []).append(msg)
    return SessionRecord("r00", 5.0, streams)


class TestRecordedOrder:
    """`SessionRecord.all_messages`, the order the live shell is driven in
    over a recording."""

    def test_global_time_order_with_stream_tiebreak(self):
        record = recorded(
            [
                ("utterance", TimestampedMessage(1.0, "hi")),
                ("gaze_raw", TimestampedMessage(0.5, "g1")),
                ("gaze_raw", TimestampedMessage(1.0, "g2")),
                ("utterance", TimestampedMessage(0.2, "yo")),
            ]
        )
        assert [(name, m.originating_time) for name, m in record.all_messages()] == [
            ("utterance", 0.2),
            ("gaze_raw", 0.5),
            ("gaze_raw", 1.0),  # gaze_raw precedes utterance at equal times
            ("utterance", 1.0),
        ]

    @given(ticks=st.sets(st.integers(min_value=0, max_value=40), max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_per_stream_order_equals_time_order(self, ticks):
        record = recorded(
            (
                "need_mutual" if k % 2 else "need_language",
                TimestampedMessage(round(k / 10, 3), k),
            )
            for k in sorted(ticks, reverse=True)
        )
        seen = {}
        for name, msg in record.all_messages():
            seen.setdefault(name, []).append(msg.originating_time)
        for times in seen.values():
            assert times == sorted(times)


class TestTickTimes:
    def test_endpoint_included(self):
        assert tick_times(1.0, 10.0) == [round(k / 10, 3) for k in range(11)]

    def test_count_formula(self):
        for duration in (0.05, 0.1, 1.0, 2.35, 9.9, 10.0):
            ticks = tick_times(duration, 10.0)
            assert len(ticks) == int(duration * 10) + 1

    @given(
        cadence=st.floats(min_value=1.0, max_value=1000.0),
        duration=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_ticks_distinct_up_to_the_config_cadence_bound(self, cadence, duration):
        # Config.validate caps cadence_hz at 1 kHz, the millisecond wire grid
        ticks = tick_times(duration, cadence)
        assert all(a < b for a, b in zip(ticks, ticks[1:]))

    def test_ticks_collide_above_the_config_cadence_bound(self):
        ticks = tick_times(0.01, 1500.0)
        assert len(set(ticks)) < len(ticks)
