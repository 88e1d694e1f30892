"""Scenario scripts, session rendering, and the benchmark suite."""

from __future__ import annotations

import math

import pytest

from needsense.gaze import (
    ELSEWHERE,
    ROBOT,
    TASK,
    GazeConfig,
    GazeNeedTracker,
    GazeThresholds,
    gaze_target,
)
from needsense.sessions import NeedLevelLabel, SessionFormatError, parse_session
from needsense.simulate import (
    FRAME_HZ,
    ScenarioScript,
    SegmentSpec,
    benchmark_suite,
    load_script,
    parse_script,
    save_script,
    script_to_lines,
    simulate,
)

TH = GazeThresholds()


def seg(duration, level="Flow", behavior="fix-task", utterances=()):
    return SegmentSpec(
        duration, NeedLevelLabel(level), behavior, tuple(utterances)
    )


def one_segment_session(behavior, duration=3.0, session_id="b00"):
    script = ScenarioScript((seg(duration, "Flow", behavior),), noise=0.0)
    return simulate(script, session_id)


def targets_of(record):
    return [gaze_target(m.payload, TH) for m in record.messages("gaze_raw")]


class TestSegmentSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="duration"):
            seg(0.0)
        with pytest.raises(ValueError, match="behavior"):
            seg(2.0, behavior="stare")
        with pytest.raises(ValueError, match="period"):
            seg(2.0, behavior="alternate:0")
        with pytest.raises(ValueError, match="offset"):
            seg(2.0, utterances=[(2.0, "late")])
        with pytest.raises(ValueError, match="offset"):
            seg(2.0, utterances=[(-0.1, "early")])
        with pytest.raises(ValueError, match="increase"):
            seg(2.0, utterances=[(0.5, "a"), (0.5, "b")])
        with pytest.raises(ValueError, match="non-empty"):
            seg(2.0, utterances=[(0.5, "  ")])

    def test_script_validation(self):
        with pytest.raises(ValueError, match="segment"):
            ScenarioScript(())
        past_pi = math.nextafter(math.pi, 4)
        for noise in (-0.1, math.nan, math.inf, 1e308, past_pi):
            with pytest.raises(ValueError, match="noise"):
                ScenarioScript((seg(2.0),), noise=noise)
        assert ScenarioScript((seg(2.0),), noise=math.pi).noise == math.pi

    def test_duration_accumulates_at_wire_precision(self):
        script = ScenarioScript((seg(1.1), seg(2.2), seg(3.3)))
        assert script.duration == 6.6


class TestGazeBehaviors:
    def test_fix_robot_looks_center(self):
        record = one_segment_session("fix-robot")
        assert set(targets_of(record)) == {ROBOT}

    def test_fix_task_looks_down(self):
        record = one_segment_session("fix-task")
        assert set(targets_of(record)) == {TASK}

    def test_fix_away_looks_elsewhere(self):
        record = one_segment_session("fix-away")
        assert set(targets_of(record)) == {ELSEWHERE}

    def test_alternation_parity(self):
        record = one_segment_session("alternate:1.5", duration=6.0)
        for msg, target in zip(record.messages("gaze_raw"), targets_of(record)):
            glance = int(msg.originating_time // 1.5)
            expected = TASK if glance % 2 == 0 else ROBOT
            assert target == expected

    def test_mutual_saturates_under_fix_robot(self):
        record = one_segment_session("fix-robot", duration=4.0)
        tracker = GazeNeedTracker(GazeConfig())
        values = [
            tracker.update(m.originating_time, m.payload)[0]
            for m in record.messages("gaze_raw")
        ]
        assert values[0] == 0.0
        assert values[-1] == 1.0

    def test_brief_alternation_triggers_confirmatory(self):
        record = one_segment_session("alternate:1.5", duration=6.0)
        tracker = GazeNeedTracker(GazeConfig())
        peak = max(
            tracker.update(m.originating_time, m.payload)[1]
            for m in record.messages("gaze_raw")
        )
        assert peak >= 0.5

    def test_slow_alternation_never_triggers_confirmatory(self):
        # 3 s glances: the previous glance is never brief
        record = one_segment_session("alternate:3.0", duration=12.0)
        tracker = GazeNeedTracker(GazeConfig())
        peak = max(
            tracker.update(m.originating_time, m.payload)[1]
            for m in record.messages("gaze_raw")
        )
        assert peak == 0.0


class TestSimulate:
    def script(self):
        return ScenarioScript(
            (
                seg(2.0, "Flow", "fix-task", [(0.5, "going well")]),
                seg(1.5, "L3", "fix-robot", [(0.25, "help me out")]),
            ),
            noise=0.0,
            seed=9,
        )

    def test_frame_times_cover_half_open_interval(self):
        record = simulate(self.script(), "s00")
        times = [m.originating_time for m in record.messages("gaze_raw")]
        assert times[0] == 0.0
        assert len(times) == int(3.5 * FRAME_HZ)
        assert times[-1] < 3.5

    def test_label_spans_from_cumulative_durations(self):
        record = simulate(self.script(), "s00")
        assert [(s.start, s.end, s.level.value) for s in record.labels] == [
            (0.0, 2.0, "Flow"),
            (2.0, 3.5, "L3"),
        ]

    def test_utterances_at_absolute_times(self):
        record = simulate(self.script(), "s00")
        assert [
            (m.originating_time, m.payload)
            for m in record.messages("utterance")
        ] == [(0.5, "going well"), (2.25, "help me out")]

    def test_utterance_at_a_segment_s_start(self):
        script = ScenarioScript(
            (
                seg(2.0, "Flow", "fix-task", [(0.0, "going well")]),
                seg(1.5, "L3", "fix-robot", [(0.0, "help me out")]),
            )
        )
        record = simulate(script, "s00")
        assert [
            (m.originating_time, m.payload)
            for m in record.messages("utterance")
        ] == [(0.0, "going well"), (2.0, "help me out")]

    def test_a_frame_on_a_segment_boundary_belongs_to_the_next_segment(self):
        # at 30 Hz the frame at 1.0 s starts the second segment
        script = ScenarioScript(
            (seg(1.0, "Flow", "fix-task"), seg(1.0, "L3", "fix-robot")), noise=0.0
        )
        frames = simulate(script, "s00").messages("gaze_raw")
        targets = {m.originating_time: gaze_target(m.payload, TH) for m in frames}
        assert (targets[0.967], targets[1.0]) == (TASK, ROBOT)

    def test_same_seed_reproduces_bytes(self):
        script = ScenarioScript((seg(2.0),), noise=0.05, seed=4)
        a = simulate(script, "s00").to_lines()
        b = simulate(script, "s00").to_lines()
        assert a == b

    def test_different_seed_changes_noise(self):
        base = (seg(2.0),)
        a = simulate(ScenarioScript(base, noise=0.05, seed=4), "s00").to_lines()
        b = simulate(ScenarioScript(base, noise=0.05, seed=5), "s00").to_lines()
        assert a != b

    def test_noise_free_record_round_trips_bytes(self):
        record = simulate(self.script(), "s00")
        assert parse_session(record.to_lines()).to_lines() == record.to_lines()

    def test_noisy_record_round_trips_bytes(self):
        script = ScenarioScript((seg(2.0),), noise=0.05, seed=4)
        record = simulate(script, "s00")
        assert parse_session(record.to_lines()).to_lines() == record.to_lines()

    def test_noise_offsets_angles(self):
        quiet = simulate(ScenarioScript((seg(1.0),), noise=0.0), "s00")
        noisy = simulate(ScenarioScript((seg(1.0),), noise=0.05, seed=1), "s00")
        quiet_pitch = quiet.messages("gaze_raw")[0].payload.pitch
        noisy_pitches = {
            m.payload.pitch for m in noisy.messages("gaze_raw")
        }
        assert len(noisy_pitches) > 1
        assert quiet_pitch == -0.45  # three half-widths below center


class TestScriptFiles:
    def script(self):
        return ScenarioScript(
            (
                seg(8.0, "Flow", "fix-task", [(1.25, 'say "hi"')]),
                seg(6.5, "L2", "alternate:1.5"),
            ),
            noise=0.02,
            seed=77,
        )

    def test_round_trip_through_lines(self):
        script = self.script()
        assert parse_script(script_to_lines(script)) == script

    def test_file_round_trip(self, tmp_path):
        script = self.script()
        path = tmp_path / "a.script"
        save_script(script, path)
        assert load_script(path) == script
        save_script(load_script(path), tmp_path / "b.script")
        assert path.read_bytes() == (tmp_path / "b.script").read_bytes()

    def test_file_errors_name_the_path_and_keep_the_line(self, tmp_path):
        path = tmp_path / "bad.script"
        lines = script_to_lines(self.script())
        lines[1] = lines[1].replace("duration=8.000", "duration=abc")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SessionFormatError) as err:
            load_script(path)
        assert str(err.value) == f"{path}: line 2: bad number for 'duration': abc"
        assert err.value.line == 2
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(SessionFormatError) as err:
            load_script(path)
        assert str(err.value) == f"{path}: empty script file"

    def test_non_utf8_byte_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.script"
        save_script(self.script(), path)
        lines = path.read_bytes().split(b"\n")
        lines[2] += b" \xff"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(SessionFormatError) as err:
            load_script(path)
        assert str(err.value) == f"{path}: line 3: not UTF-8 text"
        assert err.value.line == 3

    def test_benchmark_scripts_round_trip(self):
        for script in benchmark_suite(4, seed=2):
            assert parse_script(script_to_lines(script)) == script

    def parse_bad(self, lines):
        with pytest.raises(SessionFormatError) as err:
            parse_script(lines)
        return str(err.value)

    def test_empty_file(self):
        assert "empty" in self.parse_bad([])

    def test_missing_version(self):
        assert "script_version" in self.parse_bad(["seed=1"])

    def test_no_segments(self):
        assert "no segments" in self.parse_bad(["script_version=1 seed=0"])

    def test_unknown_level(self):
        msg = self.parse_bad(
            [
                "script_version=1 seed=0",
                "segment duration=2.000 label=L7 gaze=fix-task",
            ]
        )
        assert "L7" in msg and "line 2" in msg

    def test_unknown_behavior(self):
        msg = self.parse_bad(
            [
                "script_version=1 seed=0",
                "segment duration=2.000 label=Flow gaze=wander",
            ]
        )
        assert "wander" in msg and "line 2" in msg

    def test_utterance_before_segment(self):
        msg = self.parse_bad(
            [
                "script_version=1 seed=0",
                'utterance offset=0.500 text="hi"',
            ]
        )
        assert "before any segment" in msg

    def test_bad_offset_blames_segment_line(self):
        msg = self.parse_bad(
            [
                "script_version=1 seed=0",
                "segment duration=2.000 label=Flow gaze=fix-task",
                'utterance offset=3.000 text="late"',
            ]
        )
        assert "offset" in msg and "line 2" in msg

    # values the millisecond grid breaks, which `simulate` would reject
    # with no line

    def test_negative_seed_names_the_header(self):
        msg = self.parse_bad(
            [
                "script_version=1 seed=-1",
                "segment duration=5 label=Flow gaze=fix-task",
            ]
        )
        assert msg == "line 1: seed must be >= 0"

    def test_duration_rounding_to_nothing_names_its_segment(self):
        msg = self.parse_bad(
            [
                "script_version=1 seed=0",
                "segment duration=0.0004 label=Flow gaze=fix-task",
            ]
        )
        assert msg == (
            "line 2: segment duration 0.0004 rounds to 0 on the millisecond grid"
        )

    def test_duration_rounding_to_nothing_after_a_segment(self):
        msg = self.parse_bad(
            [
                "script_version=1 seed=0",
                "segment duration=5 label=Flow gaze=fix-task",
                "segment duration=0.0004 label=L3 gaze=fix-robot",
            ]
        )
        assert msg == (
            "line 3: segment duration 0.0004 rounds to 0 on the millisecond grid"
        )

    # `simulate` holds every frame in memory: past an hour a script fails
    # where it is read, not with a MemoryError while it renders

    def test_runaway_duration_names_its_segment(self):
        msg = self.parse_bad(
            [
                "script_version=1 seed=0",
                "segment duration=5 label=Flow gaze=fix-task",
                "segment duration=9999999 label=L3 gaze=fix-robot",
            ]
        )
        assert msg == (
            "line 3: script runs to 10000004.000 s, past the 3600 s a script "
            "may render"
        )

    def test_running_total_is_bounded_at_one_hour(self, tmp_path):
        segment = "segment duration=1200 label=Flow gaze=fix-task"
        path = tmp_path / "long.script"
        path.write_text(
            "\n".join(["script_version=1 seed=0", *[segment] * 3]) + "\n",
            encoding="utf-8",
        )
        assert load_script(path).duration == 3600.0
        path.write_text(
            path.read_text(encoding="utf-8")
            + "segment duration=0.001 label=L3 gaze=fix-robot\n",
            encoding="utf-8",
        )
        with pytest.raises(SessionFormatError) as err:
            load_script(path)
        assert err.value.line == 5
        assert str(err.value) == (
            f"{path}: line 5: script runs to 3600.001 s, past the 3600 s a "
            "script may render"
        )

    def test_offsets_rounding_together_name_the_second(self):
        msg = self.parse_bad(
            [
                "script_version=1 seed=0",
                "segment duration=5 label=Flow gaze=fix-task",
                'utterance offset=1.0001 text="one"',
                'utterance offset=1.0002 text="two"',
            ]
        )
        assert msg == "line 4: utterances collide at t=1.0"

    def test_offset_rounding_onto_the_segment_end_names_its_line(self):
        msg = self.parse_bad(
            [
                "script_version=1 seed=0",
                "segment duration=5 label=Flow gaze=fix-task",
                'utterance offset=4.9999 text="late"',
            ]
        )
        assert msg == "line 3: utterance at offset 4.9999 rounds past its segment"

    def test_unrecognized_keyword(self):
        msg = self.parse_bad(
            ["script_version=1 seed=0", "chapter number=1"]
        )
        assert "chapter" in msg and "line 2" in msg

    def test_unquoted_utterance_text(self):
        msg = self.parse_bad(
            [
                "script_version=1 seed=0",
                "segment duration=2.000 label=Flow gaze=fix-task",
                "utterance offset=0.500 text=hi",
            ]
        )
        assert "quoted" in msg


class TestBenchmarkSuite:
    def test_deterministic(self):
        assert benchmark_suite(5, seed=8) == benchmark_suite(5, seed=8)

    def test_seed_changes_content(self):
        assert benchmark_suite(5, seed=8) != benchmark_suite(5, seed=9)

    def test_session_count(self):
        assert len(benchmark_suite(20, seed=0)) == 20

    def test_every_session_contains_both_classes(self):
        for i, script in enumerate(benchmark_suite(20, seed=0)):
            record = simulate(script, f"s{i:02d}")
            binaries = {span.level.binary for span in record.labels}
            assert binaries == {0, 1}

    def test_sessions_vary_across_the_suite(self):
        scripts = benchmark_suite(10, seed=0)
        assert len({script_to_lines(s)[1] for s in scripts}) > 1
        assert len({s.duration for s in scripts}) > 1

    def test_no_utterance_in_a_segment_s_last_second(self):
        # session 81 of seed 4 draws its last segment's second offset at
        # 6.025 s, exactly 1 s before the segment's end, and leaves it out
        scripts = benchmark_suite(82, seed=4)
        last = scripts[81].segments[4]
        assert (last.duration, len(last.utterances)) == (7.025, 1)
        for script in scripts:
            for segment in script.segments:
                for offset, _ in segment.utterances:
                    assert offset < segment.duration - 1.0

    def test_noise_parameter_propagates(self):
        for script in benchmark_suite(3, seed=0, noise=0.04):
            assert script.noise == 0.04

    def test_rendered_sessions_validate(self):
        for i, script in enumerate(benchmark_suite(5, seed=1)):
            simulate(script, f"v{i:02d}").validate()
