"""Stream substrate: ordering, replay, and the live shell's hold and
window that run on it."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needsense.gaze import GazeObservation
from needsense.streams import (
    Pipeline,
    TimestampedMessage,
    WiringError,
    replay,
    tick_times,
)


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
        pipe.stream("need_mutual").subscribe(
            lambda m: seen.append((m.originating_time, m.payload))
        )
        pipe.emit("need_mutual", 1.0, 0.4)
        pipe.emit("need_mutual", 2.0, 0.5)
        assert seen == [(1.0, 0.4), (2.0, 0.5)]

    def test_unknown_stream_rejected_at_wiring(self):
        pipe = Pipeline()
        with pytest.raises(WiringError):
            pipe.stream("bogus")

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

    def test_bad_size_rejected(self, live_shell):
        with pytest.raises(WiringError):
            live_shell(window=0)

    @given(
        n=st.integers(min_value=0, max_value=60),
        w=st.integers(min_value=1, max_value=25),
    )
    @settings(max_examples=60, deadline=None)
    def test_output_count(self, live_shell, n, w):
        out = live_windows(live_shell, w, [(float(k), frame(k)) for k in range(n)])
        assert len(out) == max(0, n - w + 1)


class TestReplay:
    def test_global_time_order_with_stream_tiebreak(self):
        pipe = Pipeline()
        delivered = []
        for name in ("gaze_raw", "utterance"):
            pipe.stream(name).subscribe(
                lambda m, name=name: delivered.append((name, m.originating_time))
            )
        messages = [
            ("utterance", TimestampedMessage(1.0, "hi")),
            ("gaze_raw", TimestampedMessage(0.5, "g1")),
            ("gaze_raw", TimestampedMessage(1.0, "g2")),
            ("utterance", TimestampedMessage(0.2, "yo")),
        ]
        replay(pipe, messages, 2.0)
        assert delivered == [
            ("utterance", 0.2),
            ("gaze_raw", 0.5),
            ("gaze_raw", 1.0),  # gaze_raw precedes utterance at equal times
            ("utterance", 1.0),
        ]

    def test_replay_reemits_stored_messages_exactly(self, live_shell):
        messages = [
            (
                "gaze_raw",
                TimestampedMessage(round(k / 7, 3), GazeObservation(k / 10, 0.0)),
            )
            for k in range(10)
        ]
        pipe, _, _ = live_shell()
        delivered = []
        pipe.stream("gaze_raw").subscribe(delivered.append)
        replay(pipe, list(messages), 3.0)
        assert delivered == [m for _, m in messages]

    @given(ticks=st.sets(st.integers(min_value=0, max_value=40), max_size=15))
    @settings(max_examples=50, deadline=None)
    def test_per_stream_delivery_equals_time_order(self, ticks):
        messages = []
        for k in sorted(ticks):
            name = "need_mutual" if k % 2 else "need_language"
            messages.append((name, TimestampedMessage(round(k / 10, 3), k)))
        pipe = Pipeline()
        seen = {"need_mutual": [], "need_language": []}
        for name in seen:
            pipe.stream(name).subscribe(
                lambda m, name=name: seen[name].append(m.originating_time)
            )
        replay(pipe, messages, 5.0)
        for name, times in seen.items():
            assert times == sorted(times)


class TestTickTimes:
    def test_endpoint_included(self):
        assert tick_times(1.0, 10.0) == [round(k / 10, 3) for k in range(11)]

    def test_count_formula(self):
        for duration in (0.05, 0.1, 1.0, 2.35, 9.9, 10.0):
            ticks = tick_times(duration, 10.0)
            assert len(ticks) == int(duration * 10) + 1

    def test_bad_cadence(self):
        with pytest.raises(WiringError):
            tick_times(1.0, 0.0)

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
