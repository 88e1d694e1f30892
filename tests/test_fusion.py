"""Fusion wiring: frames, windows, two-stage training, run/batch parity."""

from __future__ import annotations

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needsense import forest
from needsense.cli import _decision_line, _run
from needsense.config import Config
from needsense.forest import ForestConfig
from needsense.fusion import (
    export_fusion_matrix,
    held_session,
    predict_session,
    stage1_materialize,
    train_rf,
)
from needsense.gaze import GazeConfig, GazeNeedTracker, GazeObservation
from needsense.language import train_from_utterances
from needsense.sessions import (
    NEED_STREAMS,
    LabelSpan,
    NeedLevelLabel,
    SessionRecord,
    binary_labels,
    export_language_corpus,
    frame_windows,
    load as load_session,
    parse_session,
    save_derived,
)
from needsense.simulate import benchmark_suite, simulate
from needsense.streams import LIVE_INPUTS, TimestampedMessage, tick_times

LIGHT_FOREST = ForestConfig(
    n_trees=10, max_depth=6, min_samples_leaf=3, seed=5
)


def export(sessions):
    """`export_fusion_matrix` at W=20 over (record, (ticks, frames)) pairs
    on the 10 Hz grid, each record's tick labels from `held_session`."""
    return export_fusion_matrix(
        [held_session(record, [], GazeConfig(), 10.0) for record, _ in sessions],
        [frames for _, (_, frames) in sessions],
        20,
    )


def stage2_fit(sessions):
    """Stage 2 as `needsense train` runs it: export, then fit."""
    return train_rf(export(sessions), LIGHT_FOREST)


def step_session(session_id="d00", duration=10.0):
    """A raw session's labels and the stage-1 (ticks, frames) whose mutual
    value equals the binary label."""
    ticks = tick_times(duration, 10.0)
    half = duration / 2
    frames = np.array(
        [
            [
                1.0 if t >= half else 0.0,
                round((t * 0.07) % 0.5, 6),
                round((t * 0.13) % 0.9, 6),
            ]
            for t in ticks
        ]
    )
    record = SessionRecord(
        session_id=session_id,
        duration=duration,
        labels=[
            LabelSpan(0.0, half, NeedLevelLabel.FLOW),
            LabelSpan(half, duration, NeedLevelLabel.L3),
        ],
    )
    return record, (ticks, frames)


def held_frames(sink) -> list[tuple[float, tuple[float, float, float]]]:
    """(tick, held (mutual, confirmatory, language) frame) per decision."""
    return [(d.t, (d.mutual, d.confirmatory, d.language)) for d in sink]


class TestFrameTypes:
    def test_as_tuple_order(self, live_shell):
        pipe, sink, _ = live_shell()
        pipe.emit("utterance", 0.5, "0.3")
        pipe.emit("gaze_raw", 0.6, GazeObservation(0.0, 0.2))
        pipe.emit("gaze_raw", 0.7, GazeObservation(0.1, 0.2))
        pipe.finalize(1.0)
        assert held_frames(sink)[-1][1] == (0.1, 0.2, 0.3)


class TestAssemble:
    """The batch sliding window (`frame_windows`)."""

    def frames(self, n):
        return np.array([[k / 100, 0.0, 0.0] for k in range(n)])

    def test_window_one(self):
        rows = frame_windows(self.frames(3), 1)
        # each row is its own frame, anchored at that frame
        assert rows.tolist() == self.frames(3).tolist()
        assert rows[1].tolist() == [0.01, 0.0, 0.0]

    def test_oldest_first_concatenation(self):
        rows = frame_windows(self.frames(3), 2)
        assert len(rows) == 2
        assert rows[0].tolist() == [0.0, 0.0, 0.0, 0.01, 0.0, 0.0]
        assert rows[1].tolist() == [0.01, 0.0, 0.0, 0.02, 0.0, 0.0]

    def test_warmup_produces_nothing(self):
        assert frame_windows(self.frames(4), 5).shape == (0, 15)

    def test_matches_stream_operator_on_same_frames(self):
        frames = self.frames(30)
        rows = frame_windows(frames, 20)
        assert len(rows) == 11
        for i, row in enumerate(rows):
            chunk = frames.tolist()[i : i + 20]
            assert row.tolist() == [v for f in chunk for v in f]

    def test_bad_window(self):
        with pytest.raises(ValueError):
            frame_windows(self.frames(3), 0)


class TestWireGaze:
    """The live shell holds the gaze tracker's values, wire-rounded."""

    def test_emits_wire_rounded_tracker_values(self, live_shell):
        # one tick per frame: the gaze frames arrive on the 30 Hz grid
        pipe, sink, _ = live_shell(30.0, gaze_config=GazeConfig())
        times = [round(k / 30, 3) for k in range(45)]
        gaze = [TimestampedMessage(t, GazeObservation(0.0, 0.0, 1.0)) for t in times]
        for msg in gaze:
            pipe.emit("gaze_raw", msg.originating_time, msg.payload)
        pipe.finalize(times[-1])
        mutual = [(d.t, d.mutual) for d in sink]
        assert [t for t, _ in mutual] == times
        tracker = GazeNeedTracker(GazeConfig())
        for msg in gaze:
            value, _ = tracker.update(msg.originating_time, msg.payload)
            held = mutual[times.index(msg.originating_time)][1]
            assert held == round(value, 6)
            assert held == round(held, 6)

    def test_confirmatory_also_wired(self, live_shell):
        pipe, sink, _ = live_shell(gaze_config=GazeConfig())
        pipe.emit("gaze_raw", 0.0, GazeObservation(0.0, -0.45, 1.0))
        pipe.finalize(0.0)
        conf = [(d.t, d.confirmatory) for d in sink]
        assert conf == [(0.0, 0.0)]


class TestWireLanguage:
    def model(self):
        return train_from_utterances([("help me", 1), ("looks good", 0)])

    def test_posterior_emitted_at_utterance_time(self, live_shell):
        model = self.model()
        pipe, sink, _ = live_shell(nb_model=model)
        pipe.emit("utterance", 2.5, "help")
        pipe.finalize(2.5)
        out = [(d.t, d.language) for d in sink if d.language]
        assert len(out) == 1
        assert out[0][0] == 2.5
        assert out[0][1] == round(model.predict_text("help"), 6)

    def test_empty_tokenization_dropped_and_counted(self, live_shell):
        pipe, sink, _ = live_shell(nb_model=self.model())
        pipe.emit("utterance", 1.0, "???")
        pipe.finalize(2.0)
        assert [d.language for d in sink if d.language] == []
        assert pipe.drop_counts["need_language"] == 1


class TestMakeFrames:
    """The live shell's hold of all three values onto the tick grid."""

    def test_holds_between_messages(self, live_shell):
        pipe, sink, _ = live_shell()
        pipe.emit("utterance", 3.0, "0.9")
        pipe.finalize(4.0)
        frames = held_frames(sink)
        assert len(frames) == 41
        for t, (mutual, confirmatory, language) in frames:
            assert language == (0.9 if t >= 3.0 else 0.0)
            assert mutual == 0.0 and confirmatory == 0.0

    def test_message_at_tick_time_is_seen_by_that_tick(self, live_shell):
        pipe, sink, _ = live_shell()
        pipe.emit("gaze_raw", 0.2, GazeObservation(0.5, 0.0))
        pipe.finalize(0.3)
        by_t = {t: frame[0] for t, frame in held_frames(sink)}
        assert by_t == {0.0: 0.0, 0.1: 0.0, 0.2: 0.5, 0.3: 0.5}

    def test_frame_count_includes_duration_tick(self, live_shell):
        pipe, sink, _ = live_shell()
        pipe.finalize(10.0)
        assert len(held_frames(sink)) == 101


class TestStage1:
    def raw_session(self, seed=3):
        return simulate(benchmark_suite(1, seed=seed)[0], "raw00")

    def nb(self, record):
        return train_from_utterances(export_language_corpus([record]))

    def test_outputs_on_full_tick_grid(self, tmp_path):
        record = self.raw_session()
        ticks, frames = stage1_materialize(
            record, self.nb(record), GazeConfig(), 10.0
        )
        assert ticks == tick_times(record.duration, 10.0)
        assert frames.shape == (len(ticks), 3)
        save_derived(tmp_path / "raw00.session", record, ticks, frames)
        derived = load_session(tmp_path / "raw00.session")
        for name in ("need_mutual", "need_confirmatory", "need_language"):
            assert [
                m.originating_time for m in derived.messages(name)
            ] == ticks
        assert derived.labels == record.labels
        assert derived.session_id == record.session_id
        assert derived.duration == record.duration

    def test_deterministic(self):
        record = self.raw_session()
        nb = self.nb(record)
        a_ticks, a = stage1_materialize(record, nb, GazeConfig(), 10.0)
        b_ticks, b = stage1_materialize(record, nb, GazeConfig(), 10.0)
        assert a_ticks == b_ticks
        assert a.tobytes() == b.tobytes()

    def test_no_utterances_means_zero_language(self):
        script = benchmark_suite(1, seed=3)[0]
        silent = simulate(
            type(script)(
                tuple(
                    type(seg)(seg.duration, seg.level, seg.behavior, ())
                    for seg in script.segments
                ),
                noise=script.noise,
                seed=script.seed,
            ),
            "silent0",
        )
        other = self.raw_session(seed=4)
        nb = self.nb(other)
        _, frames = stage1_materialize(silent, nb, GazeConfig(), 10.0)
        assert all(v == 0.0 for v in frames[:, 2].tolist())

    def test_derived_session_round_trips_through_format(self, tmp_path):
        record = self.raw_session()
        ticks, frames = stage1_materialize(
            record, self.nb(record), GazeConfig(), 10.0
        )
        path = tmp_path / "raw00.session"
        save_derived(path, record, ticks, frames)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert parse_session(lines).to_lines() == lines
        back = load_session(path)
        for k, name in enumerate(NEED_STREAMS):
            msgs = back.messages(name)
            assert [m.originating_time for m in msgs] == ticks
            assert np.array([m.payload for m in msgs]).tobytes() == (
                frames[:, k].tobytes()
            )


# "???" and "..." tokenize to nothing, so they carry no language value
TEXTS = ("can you help me", "???", "this looks right", "what goes here", "...")
POSES = (0.0, 0.1, 0.4, -0.4)


@st.composite
def raw_sessions(draw):
    """A raw session and a cadence: gaze frames at arbitrary milliseconds,
    exactly on ticks and at the duration; utterances anywhere, including
    none at all and ones that tokenize to nothing."""
    cadence = draw(st.sampled_from((10.0, 7.0, 30.0)))
    duration_ms = draw(st.integers(min_value=1, max_value=3000))
    tick_ms = [round(t * 1000) for t in tick_times(duration_ms / 1000, cadence)]
    gaze_ms = draw(st.sets(st.sampled_from(tick_ms), max_size=30))
    gaze_ms |= draw(st.sets(st.integers(0, duration_ms), max_size=30))
    if draw(st.booleans()):
        gaze_ms.add(duration_ms)
    utter_ms = draw(
        st.sets(st.sampled_from(tick_ms) | st.integers(0, duration_ms), max_size=4)
    )
    gaze = [
        TimestampedMessage(
            ms / 1000,
            GazeObservation(
                draw(st.sampled_from(POSES)),
                draw(st.sampled_from(POSES)),
                draw(st.sampled_from((1.0, 0.2))),
            ),
        )
        for ms in sorted(gaze_ms)
    ]
    utterances = [
        TimestampedMessage(ms / 1000, draw(st.sampled_from(TEXTS)))
        for ms in sorted(utter_ms)
    ]
    record = SessionRecord(
        session_id="h00",
        duration=duration_ms / 1000,
        streams={"gaze_raw": gaze, "utterance": utterances},
        labels=[LabelSpan(0.0, duration_ms / 1000, NeedLevelLabel.FLOW)],
    )
    return record, cadence


class TestBatchLiveHoldParity:
    nb = train_from_utterances(
        [("can you help me", 1), ("what goes here", 1), ("this looks right", 0)]
    )

    @given(session=raw_sessions())
    @settings(max_examples=150, deadline=None)
    def test_stage1_equals_live_held_frames(self, live_shell, session):
        record, cadence = session
        ticks, frames = stage1_materialize(
            record, self.nb, GazeConfig(), cadence
        )

        # window 1: one decision per tick, warm-up included
        pipe, sink, _ = live_shell(
            cadence, nb_model=self.nb, gaze_config=GazeConfig()
        )
        for name, msg in record.all_messages():
            if name in LIVE_INPUTS:
                pipe.emit(name, msg.originating_time, msg.payload)
        pipe.finalize(record.duration)
        live = held_frames(sink)

        batch = list(zip(ticks, map(tuple, frames.tolist())))
        assert live == batch
        assert [t for t, _ in batch] == tick_times(record.duration, cadence)


class TestStage2:
    def test_separable_construction_reaches_full_training_accuracy(self):
        session = step_session()
        model = stage2_fit([session])
        matrix = export([session])
        labels, _ = model.predict_batch(matrix.features)
        assert labels.tolist() == matrix.labels.tolist()

    def test_same_seed_same_model(self):
        session = step_session()
        a = stage2_fit([session])
        b = stage2_fit([session])
        assert a.to_lines() == b.to_lines()

    def test_no_records_rejected(self):
        with pytest.raises(ValueError):
            stage2_fit([])

    def test_train_rf_invariant_under_row_permutation(self):
        # the export owns the canonical row order, so sessions passed in
        # any order give the same rows and so the same model
        sessions = [
            step_session(f"d{i:02d}", duration)
            for i, duration in enumerate([10.0, 6.0, 8.5, 12.0])
        ]
        rng = np.random.default_rng(0)
        shuffled = [sessions[i] for i in rng.permutation(len(sessions))]
        assert shuffled[0][0].session_id != "d00"
        a, b = (export(pairs) for pairs in (sessions, shuffled))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        # sessions by id, each labeled at its ticks from the window's last
        # frame on, short of the duration
        expected = []
        for record, _ in sessions:
            ticks = tick_times(record.duration, 10.0)[19:]
            kept = [t for t in ticks if t < record.duration]
            expected += binary_labels(record, kept).tolist()
        assert a.labels.tolist() == expected
        assert (
            train_rf(a, LIGHT_FOREST).to_lines()
            == train_rf(b, LIGHT_FOREST).to_lines()
        )


class TestSessionFrames:
    """A derived session reads back as its need streams, one per column of
    its frames."""

    def test_reconstructs_tick_triples(self, tmp_path):
        record, (ticks, frames) = step_session()
        save_derived(tmp_path / "d00.session", record, ticks, frames)
        mutual = load_session(tmp_path / "d00.session").messages("need_mutual")
        assert len(mutual) == 101
        assert mutual[50].originating_time == 5.0
        assert mutual[50].payload == 1.0
        assert mutual[49].payload == 0.0


class TestPredictSession:
    def test_matches_per_vector_prediction(self):
        session = step_session()
        model = stage2_fit([session])
        ticks, frames = session[1]
        decisions = predict_session((ticks, frames), model, 20)
        frames = frames.tolist()
        assert len(decisions) == len(frames) - 19 == 82  # includes t == duration
        for i, decision in enumerate(decisions):
            vec = [v for f in frames[i : i + 20] for v in f]
            labels, scores = model.predict_batch(np.array([vec]))
            assert decision.t == ticks[i + 19]
            assert decision.label == int(labels[0])
            assert decision.score == round(float(scores[0]), 6)
        # one is made per tick, so it keeps no dict per instance
        assert not hasattr(decisions[0], "__dict__")

    def test_a_long_session_is_scored_in_bounded_blocks(self):
        model = stage2_fit([step_session()])
        _, derived = step_session(duration=2_000.0)  # 20,001 ticks
        tracemalloc.start()
        try:
            decisions = predict_session(derived, model, 20)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(decisions) == 20_001 - 19
        # beyond the decisions returned, about one block's windows and votes:
        # the windows of one batch take 9.6 MB
        assert peak - held < 4 << 20

    @pytest.mark.parametrize("rows", [1, 7, 82])
    def test_blocks_give_the_decisions_of_one_batch(self, rows, monkeypatch):
        session = step_session()
        model = stage2_fit([session])
        monkeypatch.setattr(forest, "SCORE_ROWS", 1 << 30)
        whole = predict_session(session[1], model, 20)
        monkeypatch.setattr(forest, "SCORE_ROWS", rows)
        assert predict_session(session[1], model, 20) == whole
        assert len(whole) == 82

    def test_short_session_gives_no_decisions(self):
        _, derived = step_session(duration=1.0)
        model = stage2_fit([step_session()])
        assert predict_session(derived, model, 20) == []


class TestLiveBatchParity:
    def test_live_pipeline_equals_batch_recomputation(self):
        # `run`'s path, the reader and the live engine over a session's
        # lines, from a file (`whole`) and from standard input
        cfg = Config()
        scripts = benchmark_suite(2, seed=5)
        records = [
            simulate(s, f"p{i:02d}") for i, s in enumerate(scripts)
        ]
        nb = train_from_utterances(export_language_corpus(records))
        derived = [
            stage1_materialize(r, nb, cfg.gaze_config(), cfg.cadence_hz)
            for r in records
        ]
        rf = stage2_fit(list(zip(records, derived)))
        for raw, ds1 in zip(records, derived):
            batch = [_decision_line(d) for d in predict_session(ds1, rf, 20)]
            assert len(batch) > 1
            for whole in (False, True):
                out = io.StringIO()
                assert _run(cfg, nb, rf, raw.to_lines(), out, whole) == 0
                assert out.getvalue().splitlines() == batch
