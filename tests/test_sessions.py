"""Session file format: round trips, validation, labels, exports."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needsense.gaze import GazeObservation
from needsense.sessions import (
    LabelSpan,
    NeedLevelLabel,
    SessionFormatError,
    SessionRecord,
    binary_labels,
    derived_record,
    export_fusion_matrix,
    export_language_corpus,
    fmt_time,
    fmt_value,
    load,
    need_frames,
    parse_session,
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


def export(sessions, window):
    """`export_fusion_matrix` over (record, (ticks, frames)) pairs."""
    return export_fusion_matrix(
        [record for record, _ in sessions],
        [derived for _, derived in sessions],
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
        assert [(u.text, y) for u, y in corpus] == [
            ("going fine", 0),
            ("please help", 1),
        ]

    def test_sessions_ordered_by_id(self):
        a, b = make_record("a1"), make_record("b1")
        a.streams["utterance"] = [TimestampedMessage(0.3, "from a")]
        b.streams["utterance"] = [TimestampedMessage(0.2, "from b")]
        corpus = export_language_corpus([b, a])
        assert [u.text for u, _ in corpus] == ["from a", "from b"]

    def test_no_utterances(self):
        record = make_record()
        record.streams.pop("utterance")
        assert export_language_corpus([record]) == []


class TestFusionMatrixExport:
    def test_single_session_row_count_and_dim(self):
        matrix = export([ticks_session()], window=20)
        assert matrix.n_rows == 81
        assert matrix.dim == 60
        assert len(matrix.anchors) == 81

    def test_rows_match_python_slices(self):
        record, (ticks, frames) = ticks_session()
        matrix = export([(record, (ticks, frames))], window=20)
        series = frames.tolist()
        for i, (sid, anchor_t) in enumerate(matrix.anchors):
            assert sid == record.session_id
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
        matrix = export([ticks_session()], window=20)
        assert all(t < 10.0 for _, t in matrix.anchors)
        assert matrix.anchors[-1] == ("t00", 9.9)
        assert matrix.anchors[0] == ("t00", 1.9)

    def test_sessions_concatenated_in_id_order(self):
        a, b = ticks_session("a0"), ticks_session("b0")
        matrix = export([b, a], window=20)
        assert matrix.n_rows == 162
        assert [sid for sid, _ in matrix.anchors[:81]] == ["a0"] * 81
        assert [sid for sid, _ in matrix.anchors[81:]] == ["b0"] * 81

    def test_window_one(self):
        matrix = export([ticks_session()], window=1)
        assert matrix.n_rows == 100
        assert matrix.dim == 3

    def test_short_session_contributes_nothing(self):
        matrix = export([ticks_session(duration=1.0)], window=20)
        assert matrix.n_rows == 0
        assert matrix.dim == 60

    def test_records_and_frames_must_line_up(self):
        record, derived = ticks_session()
        with pytest.raises(ValueError):
            export_fusion_matrix([record], [derived, derived], window=20)

    def test_missing_stream_rejected(self):
        record, (ticks, frames) = ticks_session()
        record = derived_record(record, ticks, frames)
        record.streams.pop("need_language")
        with pytest.raises(SessionFormatError, match="need_language"):
            need_frames(record)

    def test_off_grid_stream_rejected(self):
        record, (ticks, frames) = ticks_session()
        record = derived_record(record, ticks, frames)
        record.streams["need_language"] = record.streams["need_language"][:-1]
        with pytest.raises(SessionFormatError, match="grid"):
            need_frames(record)

    def test_dtype_and_bounds(self):
        matrix = export([ticks_session()], window=20)
        assert matrix.features.dtype == np.float64
        assert matrix.features.min() >= 0.0
        assert matrix.features.max() <= 1.0

