"""Decision-level fusion of the per-modality need models.

The three need streams are resampled onto a shared tick grid with a
causal zero-order hold, a sliding window of W ticks of (mutual,
confirmatory, language) values is concatenated into one 3W feature
vector, and a random forest maps the vector to the final binary help
decision.

Training is two-stage: stage 1 runs the gaze and language models over
each raw recording in one batch pass, holds their outputs onto the tick
grid and persists them as derived sessions; stage 2 exports windowed
rows from those sessions and fits the forest.  Scoring a recorded
session uses the same batch core: stage 1, then one forest call over all
its windows (`predict_session`).  Input that arrives over time goes
through the live shell instead, which computes the same holds
incrementally on a `Pipeline` (`wire_gaze`, `wire_language`,
`make_frames`, `wire_fused`) and decides each tick from the messages
before it.  Because both paths quantize times to 3 decimals and need
values to 6 before any windowing, the live shell driven over a recorded
session reproduces the batch predictions bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .forest import ForestConfig, RFModel, fit_forest
from .gaze import GazeConfig, GazeNeedTracker
from .language import NBModel
from .sessions import (
    NEED_STREAMS,
    SessionRecord,
    TrainingMatrix,
    frame_windows,
    need_frames,
)
from .streams import (
    Pipeline,
    TimestampedMessage,
    WiringError,
    replay,
    tick_times,
)


@dataclass(frozen=True)
class FusedDecision:
    """One output line of the running system: the three held model values
    at the tick, the forest score, and the binary decision."""

    t: float
    mutual: float
    confirmatory: float
    language: float
    score: float
    label: int


def zero_order_hold(
    times: list[float],
    values: list[float],
    ticks: list[float],
    initial: float = 0.0,
) -> list[float]:
    """At each tick, the latest value with time <= tick, else `initial`.
    Batch counterpart of the live hold; times and ticks must ascend."""
    out = []
    held = initial
    i = 0
    for t in ticks:
        while i < len(times) and times[i] <= t:
            held = values[i]
            i += 1
        out.append(held)
    return out


def gaze_holds(
    record: SessionRecord, config: GazeConfig, ticks: list[float]
) -> tuple[list[float], list[float]]:
    """Mutual and confirmatory need at wire precision, from the gaze
    models run over a raw session's frames and held onto `ticks`."""
    tracker = GazeNeedTracker(config)
    times: list[float] = []
    mutual: list[float] = []
    conf: list[float] = []
    for msg in record.messages("gaze_raw"):
        frame = tracker.update(msg.originating_time, msg.payload)
        times.append(msg.originating_time)
        mutual.append(round(frame.mutual, 6))
        conf.append(round(frame.confirmatory, 6))
    return (
        zero_order_hold(times, mutual, ticks),
        zero_order_hold(times, conf, ticks),
    )


def derived_session(
    record: SessionRecord,
    ticks: list[float],
    gaze: tuple[list[float], list[float]],
    nb_model: NBModel,
) -> SessionRecord:
    """Stage 1 of training for one raw session whose gaze holds on
    `ticks` are given: add the language posterior held onto the same
    ticks and keep all three as a derived session.  Utterances that
    tokenize to nothing contribute nothing; labels are copied."""
    lang_t: list[float] = []
    lang_v: list[float] = []
    for msg in record.messages("utterance"):
        v = nb_model.predict_text(msg.payload)
        if v is not None:
            lang_t.append(msg.originating_time)
            lang_v.append(round(v, 6))
    held = (*gaze, zero_order_hold(lang_t, lang_v, ticks))
    return SessionRecord(
        session_id=record.session_id,
        duration=record.duration,
        streams={
            name: [TimestampedMessage(t, v) for t, v in zip(ticks, values)]
            for name, values in zip(NEED_STREAMS, held)
        },
        labels=list(record.labels),
    )


def stage1_materialize(
    record: SessionRecord,
    nb_model: NBModel,
    gaze_config: GazeConfig,
    cadence_hz: float,
) -> SessionRecord:
    """Stage 1 of training: the gaze and language models' outputs over
    one raw session, held onto its tick grid, as a derived session."""
    ticks = tick_times(record.duration, cadence_hz)
    return derived_session(
        record, ticks, gaze_holds(record, gaze_config, ticks), nb_model
    )


def train_rf(matrix: TrainingMatrix, config: ForestConfig) -> RFModel:
    """Fit the forest on the matrix in canonical row order, so permuting
    the rows of an otherwise identical matrix changes nothing."""
    order = sorted(range(matrix.n_rows), key=lambda i: matrix.anchors[i])
    return fit_forest(matrix.features[order], matrix.labels[order], config)


def predict_session(
    record: SessionRecord, model: RFModel, window: int
) -> list[FusedDecision]:
    """Batch predictions for every full window of a derived session,
    including the final grid point at the session duration."""
    times, frames = need_frames(record)
    rows = frame_windows(frames, window)
    if not len(rows):
        return []
    labels, scores = model.predict_batch(rows)
    return [
        FusedDecision(t, *frame, round(float(score), 6), int(label))
        for t, frame, score, label in zip(
            times[window - 1:], frames[window - 1:].tolist(), scores, labels
        )
    ]


def wire_gaze(pipe: Pipeline, config: GazeConfig) -> None:
    """gaze_raw -> need_mutual + need_confirmatory, one value per frame,
    rounded to wire precision so live values match persisted ones."""
    tracker = GazeNeedTracker(config)
    mutual = pipe.stream("need_mutual")
    conf = pipe.stream("need_confirmatory")

    def on_frame(msg: TimestampedMessage) -> None:
        frame = tracker.update(msg.originating_time, msg.payload)
        mutual.emit(msg.originating_time, round(frame.mutual, 6))
        conf.emit(msg.originating_time, round(frame.confirmatory, 6))

    pipe.stream("gaze_raw").subscribe(on_frame)


def wire_language(pipe: Pipeline, model: NBModel) -> None:
    """utterance -> need_language at the utterance's originating time.
    Utterances that tokenize to nothing produce no output (counted)."""
    lang = pipe.stream("need_language")

    def on_utterance(msg: TimestampedMessage) -> None:
        v = model.predict_text(msg.payload)
        if v is None:
            pipe._count_drop("need_language")
            return
        lang.emit(msg.originating_time, round(v, 6))

    pipe.stream("utterance").subscribe(on_utterance)


def make_frames(pipe: Pipeline, cadence_hz: float) -> None:
    """Zero-order hold of the three need streams onto one tick grid:
    emits one (mutual, confirmatory, language) tuple per tick on
    fusion_frame.  All initials 0.0."""
    held = dict.fromkeys(NEED_STREAMS, 0.0)
    frames = pipe.stream("fusion_frame")

    for name in NEED_STREAMS:
        def on_need(msg: TimestampedMessage, name: str = name) -> None:
            held[name] = msg.payload

        pipe.stream(name).subscribe(on_need)

    def on_tick(t: float) -> None:
        frames.emit(t, tuple(held.values()))

    pipe.add_ticker(cadence_hz, on_tick)


def wire_fused(
    pipe: Pipeline, model: RFModel, window: int, sink: list[FusedDecision]
) -> None:
    """fusion_frame -> need_fused via the forest over the last `window`
    frames, oldest first.  No decisions during warm-up.  Scores are
    wire-rounded; vote fractions are never close enough to 0.5 for that
    to flip the label."""
    if window < 1:
        raise WiringError("window must be >= 1")
    fused = pipe.stream("need_fused")
    buf: deque[tuple[float, float, float]] = deque(maxlen=window)

    def on_frame(msg: TimestampedMessage) -> None:
        buf.append(msg.payload)
        if len(buf) < window:
            return
        labels, scores = model.predict_batch(
            np.array(buf, dtype=np.float64).reshape(1, -1)
        )
        score = round(float(scores[0]), 6)
        fused.emit(msg.originating_time, score)
        sink.append(
            FusedDecision(
                msg.originating_time, *msg.payload, score, int(labels[0])
            )
        )

    pipe.stream("fusion_frame").subscribe(on_frame)


def live_pipeline(
    nb_model: NBModel,
    rf_model: RFModel,
    gaze_config: GazeConfig,
    cadence_hz: float,
    window: int,
) -> tuple[Pipeline, list[FusedDecision]]:
    """The live shell: raw gaze frames and utterances go into the
    pipeline, and one decision per tick, once the window has filled, comes
    out in the returned sink."""
    pipe = Pipeline()
    sink: list[FusedDecision] = []
    wire_gaze(pipe, gaze_config)
    wire_language(pipe, nb_model)
    make_frames(pipe, cadence_hz)
    wire_fused(pipe, rf_model, window, sink)
    return pipe, sink


def live_decisions(
    record: SessionRecord,
    nb_model: NBModel,
    rf_model: RFModel,
    gaze_config: GazeConfig,
    cadence_hz: float,
    window: int,
) -> list[FusedDecision]:
    """Run the live shell over a raw session's messages in
    originating-time order and collect the per-tick decisions.  `run`
    scores a file with `predict_session` instead; this drives the live
    path over a recording for the parity tests and the benchmarks."""
    pipe, sink = live_pipeline(
        nb_model, rf_model, gaze_config, cadence_hz, window
    )
    messages = [
        (name, msg)
        for name in ("gaze_raw", "utterance")
        for msg in record.messages(name)
    ]
    replay(pipe, messages, record.duration)
    return sink
