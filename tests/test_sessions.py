"""Session file format: round trips, validation, labels, exports."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import needsense.sessions as sessions_module
from needsense.fusion import export_fusion_matrix, held_session
from needsense.gaze import GazeConfig, GazeObservation
from needsense.sessions import (
    NEED_STREAMS,
    LabelSpan,
    NeedLevelLabel,
    SessionFormatError,
    SessionReader,
    SessionRecord,
    binary_labels,
    export_language_corpus,
    fmt_time,
    fmt_value,
    frame_windows,
    load,
    parse_session,
    save_derived,
)
from needsense.streams import TimestampedMessage, tick_times


# every character str.splitlines splits at besides \n and \r
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def make_record(session_id="s00", duration=2.0):
    return SessionRecord(
        session_id=session_id,
        duration=duration,
        streams={
            "gaze_raw": [
                TimestampedMessage(0.0, GazeObservation(0.01, -0.4, 0.9)),
                TimestampedMessage(0.5, GazeObservation(0.02, 0.0, 0.95)),
            ],
            "utterance": [TimestampedMessage(0.5, 'she said "hi\\there"')],
            "need_mutual": [
                TimestampedMessage(0.0, 0.0),
                TimestampedMessage(0.5, 0.2),
            ],
        },
        labels=[
            LabelSpan(0.0, 1.0, NeedLevelLabel.FLOW),
            LabelSpan(1.0, 2.0, NeedLevelLabel.L2),
        ],
    )


def ticks_session(session_id="t00", duration=10.0):
    """A raw session's labels (L3, then Flow from the midpoint) and the
    stage-1 (ticks, frames) of all three need values on the 10 Hz grid."""
    ticks = tick_times(duration, 10.0)
    record = SessionRecord(
        session_id=session_id,
        duration=duration,
        labels=[
            LabelSpan(0.0, duration / 2, NeedLevelLabel.L3),
            LabelSpan(duration / 2, duration, NeedLevelLabel.FLOW),
        ],
    )
    frames = np.array(
        [[round((t * (j + 1)) % 1.0, 6) for j in range(3)] for t in ticks]
    )
    return record, (ticks, frames)


def derived_record(record, ticks, frames):
    """The derived session of `record` as messages: its (T, 3) frames on
    `ticks` as the three need streams, with its labels.  `save` of it is
    the reference `save_derived` must match."""
    return SessionRecord(
        session_id=record.session_id,
        duration=record.duration,
        streams={
            name: [TimestampedMessage(t, v) for t, v in zip(ticks, values)]
            for name, values in zip(
                ("need_mutual", "need_confirmatory", "need_language"),
                frames.T.tolist(),
            )
        },
        labels=list(record.labels),
    )


def row_ticks(record, window):
    """The ticks a session's training rows end at: the 10 Hz grid from the
    window's last frame on, short of the duration."""
    ticks = tick_times(record.duration, 10.0)[window - 1:]
    return [t for t in ticks if t < record.duration]


def held(record):
    """The `HeldSession` of a raw session with no gaze frames at 10 Hz: its
    gaze holds are zero, and its labels those of every tick before the
    duration."""
    return held_session(record, [], GazeConfig(), 10.0)


def export(sessions, window):
    """`export_fusion_matrix` over (record, (ticks, frames)) pairs."""
    return export_fusion_matrix(
        [held(record) for record, _ in sessions],
        [frames for _, (_, frames) in sessions],
        window,
    )


class TestFormatting:
    def test_fmt_time(self):
        assert fmt_time(0.0) == "0.000"
        assert fmt_time(1.25) == "1.250"
        assert fmt_time(10.0) == "10.000"

    def test_fmt_value(self):
        assert fmt_value(0.5) == "0.500000"
        assert fmt_value(1.0) == "1.000000"
        assert fmt_value(0.1234567) == "0.123457"

    def test_negative_zero_normalized(self):
        assert fmt_time(-0.0) == "0.000"
        assert fmt_value(-0.0000001) == "0.000000"
        assert "-" not in fmt_value(-1e-9)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_fmt_value_round_trips_at_wire_precision(self, v):
        wire = round(v, 6)
        assert float(fmt_value(wire)) == wire or wire == -0.0

    @given(st.floats(min_value=0, max_value=1000, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_fmt_time_round_trips_at_wire_precision(self, t):
        assert float(fmt_time(round(t, 3))) == round(t, 3)


class TestRoundTrip:
    def test_to_lines_parse_identity(self):
        record = make_record()
        lines = record.to_lines()
        back = parse_session(lines)
        assert back.to_lines() == lines
        assert back.session_id == record.session_id
        assert back.duration == record.duration
        assert back.labels == record.labels
        assert back.messages("utterance")[0].payload == 'she said "hi\\there"'

    def test_file_round_trip(self, tmp_path):
        record = make_record()
        path = tmp_path / "s00.session"
        record.save(path)
        assert load(path).to_lines() == record.to_lines()

    def test_messages_interleaved_globally_by_time_then_stream(self):
        lines = make_record().to_lines()
        body = [ln for ln in lines if not ln.startswith(("format", "stream=label"))]
        # ties at t=0.5 break by canonical stream order
        assert body == [
            "stream=gaze_raw t=0.000 yaw=0.010000 pitch=-0.400000 conf=0.900000",
            "stream=need_mutual t=0.000 v=0.000000",
            "stream=gaze_raw t=0.500 yaw=0.020000 pitch=0.000000 conf=0.950000",
            "stream=need_mutual t=0.500 v=0.200000",
            'stream=utterance t=0.500 text="she said \\"hi\\\\there\\""',
        ]

    def test_label_spans_sorted_in_output(self):
        record = make_record()
        record.labels = list(reversed(record.labels))
        lines = record.to_lines()
        label_lines = [ln for ln in lines if ln.startswith("stream=label")]
        assert label_lines == [
            "stream=label start=0.000 end=1.000 level=Flow",
            "stream=label start=1.000 end=2.000 level=L2",
        ]


def wire(scale: int, lo: int, hi: int):
    """Floats k / scale for integers k in [lo, hi]: values a session file
    writes and reads back exactly."""
    return st.integers(lo, hi).map(lambda k: k / scale)


# mostly wire-precision values in [0, 1], sometimes ones outside it and ones
# no session file may hold
UNIT_VALUES = wire(10**6, 0, 10**6)
PAYLOAD_VALUES = st.one_of(
    *[UNIT_VALUES] * 6,
    wire(10**6, -2 * 10**6, 2 * 10**6),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def storable_records(draw):
    """Session records at wire precision with every storable stream and
    labels covering [0, duration); some hold values that `validate`
    refuses, such as NaN, an infinity or a range error."""
    ms = draw(st.integers(1, 5000))
    duration = draw(st.sampled_from([ms / 1000] * 9 + [math.inf]))
    cuts = draw(st.lists(st.integers(1, ms - 1), unique=True, max_size=3)) if ms > 1 else []
    bounds = [0.0, *(c / 1000 for c in sorted(cuts)), duration]
    levels = st.sampled_from(list(NeedLevelLabel))
    labels = [LabelSpan(a, b, draw(levels)) for a, b in zip(bounds, bounds[1:])]
    times = st.lists(st.integers(0, ms), unique=True, min_size=1, max_size=4).map(
        lambda ks: [k / 1000 for k in sorted(ks)]
    )
    payloads = {
        "gaze_raw": st.builds(
            GazeObservation, PAYLOAD_VALUES, PAYLOAD_VALUES, PAYLOAD_VALUES
        ),
        "utterance": st.text(min_size=1, max_size=12),
        **dict.fromkeys(
            ["need_mutual", "need_confirmatory", "need_language"],
            PAYLOAD_VALUES,
        ),
    }
    names = draw(st.lists(st.sampled_from(sorted(payloads)), unique=True))
    streams = {
        name: [TimestampedMessage(t, draw(payloads[name])) for t in draw(times)]
        for name in names
    }
    session_id = draw(st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True))
    return SessionRecord(session_id, duration, streams, labels)


def _stream(name, *messages):
    """A record edit that sets stream `name` to `messages`, each a
    (time, payload) pair."""

    def edit(record):
        record.streams[name] = [TimestampedMessage(t, p) for t, p in messages]

    return edit


def _at_1_5(name, payload):
    """A record edit that puts `payload` on stream `name` at t=1.5, and
    the start of the error naming it."""
    return _stream(name, (1.5, payload)), f"{name} at 1.5: "


def _labels(*spans):
    """A record edit that sets the labels to `spans`, each a
    (start, end, level) triple."""

    def edit(record):
        record.labels = [
            LabelSpan(start, end, NeedLevelLabel(level)) for start, end, level in spans
        ]

    return edit


class TestValidation:
    def parse_one_bad(self, mutate):
        lines = make_record().to_lines()
        mutate(lines)
        with pytest.raises(SessionFormatError) as err:
            parse_session(lines)
        return str(err.value)

    def test_empty_file(self):
        with pytest.raises(SessionFormatError, match="empty"):
            parse_session([])

    def test_missing_format_version(self):
        msg = self.parse_one_bad(
            lambda ls: ls.__setitem__(0, "session_id=s00 duration=2.000")
        )
        assert "format_version" in msg and "line 1" in msg

    def test_label_gap_reports_line(self):
        msg = self.parse_one_bad(
            lambda ls: ls.__setitem__(
                1, "stream=label start=0.000 end=0.900 level=Flow"
            )
        )
        assert "gap" in msg and "line 3" in msg

    def test_label_overlap(self):
        msg = self.parse_one_bad(
            lambda ls: ls.__setitem__(
                1, "stream=label start=0.000 end=1.100 level=Flow"
            )
        )
        assert "overlap" in msg

    def test_labels_must_start_at_zero(self):
        msg = self.parse_one_bad(
            lambda ls: ls.__setitem__(
                1, "stream=label start=0.100 end=1.000 level=Flow"
            )
        )
        assert "starts at" in msg

    def test_labels_must_end_at_duration(self):
        msg = self.parse_one_bad(
            lambda ls: ls.__setitem__(
                2, "stream=label start=1.000 end=1.900 level=L2"
            )
        )
        assert "ends at" in msg

    def test_unknown_level(self):
        msg = self.parse_one_bad(
            lambda ls: ls.__setitem__(
                2, "stream=label start=1.000 end=2.000 level=L9"
            )
        )
        assert "L9" in msg

    def test_non_monotone_stream_time(self):
        msg = self.parse_one_bad(
            lambda ls: ls.append("stream=need_mutual t=0.400 v=0.100000")
        )
        assert "non-monotone" in msg and "line 9" in msg

    def test_time_outside_duration(self):
        msg = self.parse_one_bad(
            lambda ls: ls.append("stream=need_mutual t=2.500 v=0.100000")
        )
        assert "outside" in msg

    def test_need_value_outside_unit_interval(self):
        msg = self.parse_one_bad(
            lambda ls: ls.append("stream=need_mutual t=1.500 v=1.100000")
        )
        assert "outside [0, 1]" in msg

    def test_confidence_outside_unit_interval(self):
        msg = self.parse_one_bad(
            lambda ls: ls.append(
                "stream=gaze_raw t=1.500 yaw=0.0 pitch=0.0 conf=1.200000"
            )
        )
        assert "conf" in msg

    def test_unknown_stream(self):
        msg = self.parse_one_bad(
            lambda ls: ls.append("stream=telemetry t=1.500 v=0.100000")
        )
        assert "telemetry" in msg

    def test_fused_scores_are_not_a_stream(self):
        msg = self.parse_one_bad(
            lambda ls: ls.append("stream=need_fused t=1.500 v=0.100000")
        )
        assert "line 9: unknown stream name 'need_fused'" in msg

    def test_unparseable_text(self):
        msg = self.parse_one_bad(lambda ls: ls.append("what is this"))
        assert "unparseable" in msg

    def test_duplicate_field(self):
        msg = self.parse_one_bad(
            lambda ls: ls.append("stream=need_mutual t=1.500 t=1.600 v=0.1")
        )
        assert "duplicate" in msg

    def test_empty_utterance_text(self):
        msg = self.parse_one_bad(
            lambda ls: ls.append('stream=utterance t=1.500 text="  "')
        )
        assert "empty" in msg

    @pytest.mark.parametrize(
        "line_no, field, edit",
        [
            (1, "duration", lambda ls: ls.__setitem__(0, ls[0].replace("2.000", "nan"))),
            (9, "t", lambda ls: ls.append("stream=need_mutual t=inf v=0.100000")),
            (
                9,
                "yaw",
                lambda ls: ls.append(
                    "stream=gaze_raw t=1.500 yaw=nan pitch=0.000000 conf=0.900000"
                ),
            ),
            (9, "v", lambda ls: ls.append("stream=need_mutual t=1.500 v=-inf")),
        ],
        ids=["duration=nan", "t=inf", "yaw=nan", "v=-inf"],
    )
    def test_non_finite_number_names_field_and_line(self, line_no, field, edit):
        msg = self.parse_one_bad(edit)
        assert f"line {line_no}" in msg
        assert f"non-finite value for {field!r}" in msg

    def test_bad_number(self):
        msg = self.parse_one_bad(
            lambda ls: ls.append("stream=need_mutual t=abc v=0.1")
        )
        assert "bad number" in msg

    def test_file_errors_name_the_path_once_and_keep_the_line(self, tmp_path):
        path = tmp_path / "s00.session"
        lines = make_record().to_lines()
        lines[2] = lines[2].replace("start=1.000", "start=abc")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SessionFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}: line 3: bad number for 'start': abc"
        assert err.value.line == 3
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(SessionFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}: empty session file"

    def test_non_utf8_byte_names_path_and_line(self, tmp_path):
        path = tmp_path / "s00.session"
        make_record().save(path)
        data = path.read_bytes()
        path.write_bytes(data + b"\xff")
        with pytest.raises(SessionFormatError) as err:
            load(path)
        line = data.count(b"\n") + 1
        assert str(err.value) == f"{path}: line {line}: not UTF-8 text"
        assert err.value.line == line
        lines = data.split(b"\n")
        lines[3] += b" \xff"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(SessionFormatError) as err:
            load(path)
        assert str(err.value) == f"{path}: line 4: not UTF-8 text"

    @pytest.mark.parametrize(
        "sep", SEPARATORS, ids=[f"U+{ord(c):04X}" for c in SEPARATORS]
    )
    def test_utterance_with_a_separator_character_round_trips(self, tmp_path, sep):
        # a line ends only at \n, \r\n or \r, not wherever str.splitlines would
        record = make_record()
        text = f"where{sep}does this go"
        record.streams["utterance"] = [TimestampedMessage(0.5, text)]
        path = tmp_path / "s00.session"
        record.save(path)
        back = load(path)
        assert back.messages("utterance")[0].payload == text
        assert back.to_lines() == record.to_lines()

    @pytest.mark.parametrize("text", ["two\nlines", "two\rlines", "two\r\nlines", " "])
    def test_validate_rejects_an_utterance_that_would_not_load_back(self, text):
        record = make_record()
        record.streams["utterance"] = [TimestampedMessage(0.5, text)]
        with pytest.raises(SessionFormatError, match="utterance at 0.5"):
            record.validate()

    @pytest.mark.parametrize(
        "edit, match",
        [
            _at_1_5("gaze_raw", GazeObservation(math.nan, 0.0, 0.9)),
            _at_1_5("gaze_raw", GazeObservation(0.0, -math.inf, 0.9)),
            _at_1_5("gaze_raw", GazeObservation(0.0, 0.0, math.nan)),
            _at_1_5("gaze_raw", GazeObservation(0.0, 0.0, 1.5)),
            _at_1_5("need_mutual", math.nan),
            _at_1_5("need_mutual", 1.5),
            _at_1_5("need_mutual", -0.25),
            # a file holds times rounded to whole milliseconds
            (
                _stream("need_mutual", (0.0001, 0.1), (0.0002, 0.2)),
                "non-monotone time 0.0 after 0.0",
            ),
            (
                _labels(
                    (0.0, 1.0001, "Flow"), (1.0001, 1.0003, "L1"), (1.0003, 2.0, "L2")
                ),
                "label span start 1.0 not before end 1.0",
            ),
        ],
        ids=[
            "yaw=nan", "pitch=-inf", "conf=nan", "conf=1.5", "v=nan", "v=1.5",
            "v=-0.25", "t=0.0001,0.0002", "span=1.0001-1.0003",
        ],
    )
    def test_validate_rejects_a_payload_that_would_not_load_back(
        self, tmp_path, edit, match
    ):
        record = make_record()
        edit(record)
        with pytest.raises(SessionFormatError, match=match):
            record.save(tmp_path / "s00.session")
        assert not (tmp_path / "s00.session").exists()

    def test_validate_rejects_an_infinite_duration(self):
        record = make_record(duration=math.inf)
        record.labels[-1] = LabelSpan(1.0, math.inf, NeedLevelLabel.L2)
        with pytest.raises(SessionFormatError, match="duration"):
            record.validate()

    @given(record=storable_records())
    @settings(max_examples=150, deadline=None)
    def test_every_record_validate_accepts_loads_back_equal(
        self, tmp_path_factory, record
    ):
        path = tmp_path_factory.getbasetemp() / "round_trip.session"
        try:
            record.save(path)
        except SessionFormatError:
            return
        assert load(path) == record

    @pytest.mark.parametrize("live", [False, True])
    def test_a_session_lasts_at_most_an_hour(self, tmp_path, live):
        # `save` rounds to the millisecond first, as the file holds it
        for duration in (3600.0, 3600.0004):
            record = make_record(duration=duration)
            record.labels[-1] = LabelSpan(1.0, duration, NeedLevelLabel.L2)
            record.save(tmp_path / "s00.session")
            assert load(tmp_path / "s00.session").duration == 3600.0
        record = make_record(duration=3600.001)
        record.labels[-1] = LabelSpan(1.0, 3600.001, NeedLevelLabel.L2)
        why = "duration must be <= 3600 s, not 3600.001"
        with pytest.raises(SessionFormatError, match=f"^{why}$"):
            record.save(tmp_path / "long.session")
        path = tmp_path / "long.session"
        path.write_text("\n".join(record.to_lines()) + "\n", encoding="utf-8")
        with pytest.raises(SessionFormatError) as err:
            load(path, live)
        assert str(err.value) == f"{path}: line 1: {why}"

    def test_validate_rejects_bad_session_id(self):
        record = make_record(session_id="has space")
        with pytest.raises(SessionFormatError, match="session id"):
            record.validate()


class TestLabelAt:
    """The binary label at given times (`binary_labels`)."""

    def record(self):
        return make_record()  # Flow on [0,1), L2 on [1,2)

    def test_span_start_inclusive(self):
        assert binary_labels(self.record(), [1.0]).tolist() == [1]

    def test_span_end_exclusive(self):
        assert binary_labels(self.record(), [0.999]).tolist() == [0]

    def test_zero(self):
        assert binary_labels(self.record(), [0.0]).tolist() == [0]

    def test_duration_is_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            binary_labels(self.record(), [0.5, 2.0])

    def test_negative_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            binary_labels(self.record(), [-0.1])

    def test_binary_mapping(self):
        weights = {
            NeedLevelLabel.FLOW: (-1, 0),
            NeedLevelLabel.L0: (0, 0),
            NeedLevelLabel.L1: (1, 0),
            NeedLevelLabel.L2: (2, 1),
            NeedLevelLabel.L3: (3, 1),
        }
        for level, (weight, binary) in weights.items():
            assert level.weight == weight
            assert level.binary == binary

    def test_binary_label_at(self):
        labels = binary_labels(self.record(), [0.5, 1.5])
        assert labels.tolist() == [0, 1]
        assert labels.dtype == np.int64

    def test_gap_in_unvalidated_record(self):
        record = make_record()
        record.labels = [
            LabelSpan(0.0, 0.5, NeedLevelLabel.FLOW),
            LabelSpan(1.0, 2.0, NeedLevelLabel.L2),
        ]
        assert binary_labels(record, [0.4, 1.0]).tolist() == [0, 1]
        with pytest.raises(ValueError, match="no label span covers time 0.5"):
            binary_labels(record, [0.4, 0.5])

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_time_reference(self, data):
        """Random contiguous span layouts, possibly with one span
        dropped (an unvalidated record with a gap), probed on every span
        boundary, at 0, just below the duration and anywhere between."""
        cuts = sorted(
            data.draw(st.sets(st.integers(1, 9999), min_size=1, max_size=8))
        )
        bounds = [0, *cuts]
        levels = data.draw(
            st.lists(
                st.sampled_from(list(NeedLevelLabel)),
                min_size=len(bounds) - 1,
                max_size=len(bounds) - 1,
            )
        )
        spans = [
            LabelSpan(a / 1000, b / 1000, level)
            for a, b, level in zip(bounds, bounds[1:], levels)
        ]
        if len(spans) > 1 and data.draw(st.booleans()):
            spans.pop(data.draw(st.integers(0, len(spans) - 1)))
        order = data.draw(st.permutations(spans))
        duration = bounds[-1] / 1000
        record = SessionRecord("h00", duration, labels=list(order))
        edges = [b / 1000 for b in bounds]
        probes = [*edges, 0.0, np.nextafter(duration, 0.0), -0.001]
        times = data.draw(
            st.lists(
                st.sampled_from(probes)
                | st.floats(-0.01, duration + 0.01, allow_nan=False),
                max_size=12,
            )
        )

        # every time is range-checked before any is looked up
        outside = [t for t in times if not 0.0 <= t < duration]
        covering = [[s for s in spans if s.start <= t < s.end] for t in times]
        uncovered = [t for t, c in zip(times, covering) if not c]
        if outside or uncovered:
            message = (
                f"time {outside[0]} outside [0, {duration})"
                if outside
                else f"no label span covers time {uncovered[0]}"
            )
            with pytest.raises(ValueError) as err:
                binary_labels(record, times)
            assert str(err.value) == message
        else:
            expected = [c[0].level.binary for c in covering]
            assert binary_labels(record, times).tolist() == expected


class TestLanguageCorpusExport:
    def test_labels_taken_at_utterance_time(self):
        record = make_record()
        record.streams["utterance"] = [
            TimestampedMessage(0.5, "going fine"),
            TimestampedMessage(1.5, "please help"),
        ]
        corpus = export_language_corpus([record])
        assert corpus == [
            ("going fine", 0),
            ("please help", 1),
        ]

    def test_sessions_ordered_by_id(self):
        a, b = make_record("a1"), make_record("b1")
        a.streams["utterance"] = [TimestampedMessage(0.3, "from a")]
        b.streams["utterance"] = [TimestampedMessage(0.2, "from b")]
        corpus = export_language_corpus([b, a])
        assert [text for text, _ in corpus] == ["from a", "from b"]

    def test_no_utterances(self):
        record = make_record()
        record.streams.pop("utterance")
        assert export_language_corpus([record]) == []


class TestFusionMatrixExport:
    def test_single_session_row_count_and_dim(self):
        matrix = export([ticks_session()], window=20)
        assert matrix.n_rows == 81
        assert matrix.dim == 60
        assert len(matrix.labels) == 81

    def test_rows_match_python_slices(self):
        record, (ticks, frames) = ticks_session()
        matrix = export([(record, (ticks, frames))], window=20)
        series = frames.tolist()
        anchors = row_ticks(record, 20)
        assert matrix.n_rows == len(anchors)
        for i, anchor_t in enumerate(anchors):
            assert anchor_t == ticks[i + 19]
            expected = []
            for k in range(i, i + 20):
                expected += series[k]
            assert matrix.features[i].tolist() == expected
            (level,) = [
                span.level
                for span in record.labels
                if span.start <= anchor_t < span.end
            ]
            assert matrix.labels[i] == level.binary

    def test_final_grid_point_contributes_no_row(self):
        record, (ticks, frames) = ticks_session()
        matrix = export([(record, (ticks, frames))], window=20)
        # the rows end at the ticks from 1.9 s to 9.9 s, none at the duration
        assert (ticks[19], ticks[-2], ticks[-1]) == (1.9, 9.9, 10.0)
        windows = frame_windows(frames, 20)
        assert matrix.features.tolist() == windows[:-1].tolist()

    def test_sessions_concatenated_in_id_order(self):
        # b0 is shorter, so its labels turn at another tick than a0's
        a, b = ticks_session("a0"), ticks_session("b0", duration=8.0)
        matrix = export([b, a], window=20)
        assert matrix.n_rows == 81 + 61
        assert matrix.labels.tolist() == [
            label
            for record, _ in (a, b)
            for label in binary_labels(record, row_ticks(record, 20)).tolist()
        ]
        assert matrix.features.tolist() == [
            *export([a], window=20).features.tolist(),
            *export([b], window=20).features.tolist(),
        ]

    def test_window_one(self):
        matrix = export([ticks_session()], window=1)
        assert matrix.n_rows == 100
        assert matrix.dim == 3

    def test_short_session_contributes_nothing(self):
        matrix = export([ticks_session(duration=1.0)], window=20)
        assert matrix.n_rows == 0
        assert matrix.dim == 60

    def test_records_and_frames_must_line_up(self):
        record, (_, frames) = ticks_session()
        with pytest.raises(ValueError):
            export_fusion_matrix([held(record)], [frames, frames], window=20)

    def test_dtype_and_bounds(self):
        matrix = export([ticks_session()], window=20)
        assert matrix.features.dtype == np.float64
        assert matrix.features.min() >= 0.0
        assert matrix.features.max() <= 1.0

    def test_export_leaves_numpy_ma_unloaded(self, fresh_python):
        # `np.unique` loads numpy.ma, ~15 ms of a `train` or `eval` start
        code = """
import sys
import numpy as np
from needsense.fusion import export_fusion_matrix, held_session
from needsense.gaze import GazeConfig
from needsense.simulate import benchmark_suite, simulate
records = [simulate(s, f"s{i}") for i, s in enumerate(benchmark_suite(2))]
held = [held_session(r, [], GazeConfig(), 10.0) for r in records]
frames = [np.zeros((len(h.gaze[0]), 3)) for h in held]
assert export_fusion_matrix(held, frames, 20).n_rows
print("numpy.ma" in sys.modules)
"""
        assert fresh_python(code) == "False\n"



def read_items(lines, live):
    """What a `SessionReader` gives for `lines`: the repr of the items it
    yields, then the text and line of the error it ends with, if any."""
    items = []
    try:
        items.extend(SessionReader(lines, live))
    except SessionFormatError as exc:
        return repr(items), (str(exc), exc.line)
    return repr(items), None


# a valid gaze line's fields; the line before it is a gaze line at 0.4 and an
# utterance at 0.45 comes between them, so a t of 0.42 is in order for its
# stream but not in the global order live input needs
GAZE_FIELDS = [("t", "0.500"), ("yaw", "0.010000"), ("pitch", "-0.400000"), ("conf", "0.900000")]
GAZE_VALUE_TEXTS = st.one_of(
    st.sampled_from(
        [
            "nan", "inf", "-inf", "Infinity", "1_0", '"0.5"', "'0.5'", "1e400",
            "0x1", "", ".5", "+1", "-0.0", "1.5", "-0.1", "0.300", "0.400",
            "0.450", "2.500", "\u0663", "1=2", "0.5,",
        ]
    ),
    st.text(alphabet="0123456789.e+-_naif\"= ", max_size=6),
)
GAZE_TIME_TEXTS = st.one_of(
    st.sampled_from(["0.300", "0.400", "0.420", "0.450", "0.45", "1.000", "2.000", "2.001"]),
    GAZE_VALUE_TEXTS,
)


@st.composite
def mutated_gaze_lines(draw):
    """A valid gaze line with some values replaced, fields reordered,
    dropped or added, and its spaces changed."""
    fields = [
        (key, draw(GAZE_TIME_TEXTS if key == "t" else GAZE_VALUE_TEXTS))
        if draw(st.integers(0, 3)) == 0 else (key, value)
        for key, value in GAZE_FIELDS
    ]
    if draw(st.booleans()):
        fields = draw(st.permutations(fields))
    if draw(st.booleans()):
        del fields[draw(st.integers(0, len(fields) - 1))]
    if draw(st.booleans()):
        key = draw(st.sampled_from(["t", "yaw", "extra", "v", "text"]))
        fields.insert(draw(st.integers(0, len(fields))), (key, draw(GAZE_VALUE_TEXTS)))
    stream = draw(st.sampled_from(["gaze_raw"] * 4 + ["need_mutual", "gaze"]))
    parts = [f"stream={stream}", *(f"{key}={value}" for key, value in fields)]
    gaps = [draw(st.sampled_from([" "] * 6 + ["  ", "\t"])) for _ in parts[1:]]
    line = parts[0] + "".join(gap + part for gap, part in zip(gaps, parts[1:]))
    return draw(st.sampled_from(["", "", " "])) + line + draw(st.sampled_from(["", "", " "]))


class TestGazeLineFastPath:
    """`SessionReader` reads a plain gaze line with one pattern match; every
    line must read as the general path alone reads it."""

    @given(line=mutated_gaze_lines())
    @settings(max_examples=400, deadline=None)
    def test_same_items_and_errors_as_the_general_path(self, line):
        lines = [
            "format_version=1 session_id=g0 duration=2.000",
            "stream=label start=0.000 end=2.000 level=L1",
            "stream=gaze_raw t=0.400 yaw=0.000000 pitch=0.000000 conf=1.000000",
            'stream=utterance t=0.450 text="where"',
            line,
            "stream=gaze_raw t=1.000 yaw=0.100000 pitch=0.200000 conf=0.300000",
        ]
        fast = [read_items(lines, live) for live in (False, True)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sessions_module, "_GAZE_LINE", re.compile(r"(?!)"))
            general = [read_items(lines, live) for live in (False, True)]
        assert fast == general

    def test_a_plain_gaze_line_skips_the_field_parser(self):
        def parsed_fields(line):
            """The lines the reader hands `_parse_fields`, `line` after
            the header."""
            calls = []
            parse = sessions_module._parse_fields

            def counted(text, line_no):
                calls.append(line_no)
                return parse(text, line_no)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sessions_module, "_parse_fields", counted)
                read_items(["format_version=1 session_id=g0 duration=2.000", line], False)
            return calls

        plain = "stream=gaze_raw t=0.500 yaw=0.010000 pitch=-0.400000 conf=0.900000"
        assert parsed_fields(plain) == [1]
        assert parsed_fields(plain.replace("yaw=0.010000", "yaw=nan")) == [1, 2]


@st.composite
def derived_inputs(draw):
    """(record, ticks, frames) for a derived session: labels covering
    [0, duration), ticks mostly ascending on the millisecond grid, and
    frames mostly of wire-precision values in [0, 1]; some break a rule
    `save` checks, such as a NaN, a value outside [0, 1], a time outside
    the session or one that repeats once rounded to the millisecond."""
    ms = draw(st.integers(1, 3000))
    duration = draw(st.sampled_from([ms / 1000] * 9 + [math.inf]))
    cuts = draw(st.lists(st.integers(1, ms - 1), unique=True, max_size=3)) if ms > 1 else []
    bounds = [0.0, *(c / 1000 for c in sorted(cuts)), duration]
    levels = st.sampled_from(list(NeedLevelLabel))
    labels = [LabelSpan(a, b, draw(levels)) for a, b in zip(bounds, bounds[1:])]
    scale = draw(st.sampled_from([1000] * 4 + [10000]))
    ks = draw(st.lists(st.integers(0, ms * scale // 1000 + 2), max_size=8))
    if draw(st.integers(0, 4)):
        ks = sorted(set(ks))
    ticks = [k / scale for k in ks]
    value = st.one_of(*[UNIT_VALUES] * 30, PAYLOAD_VALUES)
    frames = np.array([[draw(value) for _ in range(3)] for _ in ticks]).reshape(-1, 3)
    session_id = draw(st.sampled_from(["d00"] * 9 + ["bad id"]))
    return SessionRecord(session_id, duration, {}, labels), ticks, frames


class TestSaveDerived:
    @given(inputs=derived_inputs())
    @settings(max_examples=300, deadline=None)
    def test_bytes_and_errors_match_save_of_the_record(self, tmp_path_factory, inputs):
        record, ticks, frames = inputs
        root = tmp_path_factory.getbasetemp()
        outcomes = []
        for path, write in [
            (root / "save.session", lambda p: derived_record(record, ticks, frames).save(p)),
            (root / "derived.session", lambda p: save_derived(p, record, ticks, frames)),
        ]:
            path.unlink(missing_ok=True)
            try:
                write(path)
            except SessionFormatError as exc:
                outcomes.append(("error", str(exc), path.exists()))
            else:
                outcomes.append(("bytes", path.read_bytes()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize(
        "row, column, value, message",
        [
            (3, 1, math.nan, "need_confirmatory at 0.3: need value nan outside [0, 1]"),
            (0, 2, 1.5, "need_language at 0.0: need value 1.5 outside [0, 1]"),
            (7, 0, -0.25, "need_mutual at 0.7: need value -0.25 outside [0, 1]"),
        ],
    )
    def test_a_value_load_would_refuse_raises_saves_message(
        self, tmp_path, row, column, value, message
    ):
        record, (ticks, frames) = ticks_session()
        frames[row, column] = value
        with pytest.raises(SessionFormatError) as err:
            derived_record(record, ticks, frames).save(tmp_path / "a.session")
        assert str(err.value) == message
        with pytest.raises(SessionFormatError) as err:
            save_derived(tmp_path / "b.session", record, ticks, frames)
        assert str(err.value) == message
        assert not (tmp_path / "b.session").exists()

    def test_reads_back_as_its_frames(self, tmp_path):
        record, (ticks, frames) = ticks_session()
        save_derived(tmp_path / "t00.session", record, ticks, frames)
        back = load(tmp_path / "t00.session")
        assert back.labels == record.labels
        expected = derived_record(record, ticks, frames)
        for name in NEED_STREAMS:
            assert back.messages(name) == expected.messages(name), name
