"""Decision-level fusion of the per-modality need models.

The three need streams are resampled onto a shared tick grid with a
causal zero-order hold, a sliding window of W ticks of (mutual,
confirmatory, language) values is concatenated into one 3W feature
vector, and a random forest maps the vector to the final binary help
decision.

Training is two-stage: stage 1 runs the gaze and language models over
each raw recording in one batch pass and holds their outputs onto the
tick grid, giving the tick times and a (T, 3) array of (mutual,
confirmatory, language) frames; stage 2 exports windowed rows from
those arrays and fits the forest.  The frames become derived session
records only where `train` writes them to disk.  Scoring a recorded
session uses the same batch core: stage 1, then forest calls over its
windows, SCORE_ROWS at a time (`predict_session`).  Input that arrives
over time goes through the live shell instead (`live_pipeline`): a
`Pipeline` with a callback on each of its two input streams, holding
that model's latest output, and its one tick schedule, deciding over the
last W held frames at each tick, so it keeps nothing but those frames
and computes the same holds incrementally.  Because both paths quantize times to 3 decimals
and need values to 6 before any windowing, the live shell driven over a
recorded session in `SessionRecord.all_messages` order
(`live_decisions`) reproduces the batch predictions bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .forest import SCORE_ROWS, ForestConfig, RFModel, fit_forest
from .gaze import GazeConfig, GazeNeedTracker, GazeObservation
from .language import NBModel
from .sessions import SessionRecord, TrainingMatrix, frame_windows
from .streams import LIVE_INPUTS, Pipeline, tick_times


@dataclass(frozen=True, slots=True)
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
) -> np.ndarray:
    """At each tick, the latest value with time <= tick, else `initial`.
    Batch counterpart of the live hold; times and ticks must ascend."""
    held = np.array([initial, *values], dtype=np.float64)
    return held[np.searchsorted(times, ticks, side="right")]


def gaze_holds(
    record: SessionRecord, config: GazeConfig, ticks: list[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Mutual and confirmatory need at wire precision, from the gaze
    models run over a raw session's frames and held onto `ticks`."""
    tracker = GazeNeedTracker(config)
    times: list[float] = []
    mutual: list[float] = []
    conf: list[float] = []
    for msg in record.messages("gaze_raw"):
        m, c = tracker.update(msg.originating_time, msg.payload)
        times.append(msg.originating_time)
        mutual.append(m)
        conf.append(c)
    # rounding commutes with the hold, and a 10 Hz tick samples a third of
    # the 30 Hz frames, so only the held values are rounded
    return tuple(
        np.array([round(v, 6) for v in zero_order_hold(times, raw, ticks).tolist()])
        for raw in (mutual, conf)
    )


def derived_session(
    record: SessionRecord,
    ticks: list[float],
    gaze: tuple[np.ndarray, np.ndarray],
    nb_model: NBModel,
) -> np.ndarray:
    """Stage 1 for one raw session whose gaze holds on `ticks` are given:
    the (T, 3) frames of mutual, confirmatory and language need, the
    language posterior held onto the same ticks.  Utterances that
    tokenize to nothing contribute nothing."""
    lang_t: list[float] = []
    lang_v: list[float] = []
    for msg in record.messages("utterance"):
        v = nb_model.predict_text(msg.payload)
        if v is not None:
            lang_t.append(msg.originating_time)
            lang_v.append(round(v, 6))
    return np.column_stack((*gaze, zero_order_hold(lang_t, lang_v, ticks)))


def stage1_materialize(
    record: SessionRecord,
    nb_model: NBModel,
    gaze_config: GazeConfig,
    cadence_hz: float,
) -> tuple[list[float], np.ndarray]:
    """Stage 1 of training: the tick grid of one raw session and the
    gaze and language models' outputs held onto it, as (T, 3) frames."""
    ticks = tick_times(record.duration, cadence_hz)
    return ticks, derived_session(
        record, ticks, gaze_holds(record, gaze_config, ticks), nb_model
    )


def train_rf(matrix: TrainingMatrix, config: ForestConfig) -> RFModel:
    """Fit the forest on the matrix's rows in the order given, which
    `export_fusion_matrix` makes canonical, so the same sessions give the
    same model in whatever order they are passed.

    The fit reads the features only to build its tables, and no name here
    or in `fit_forest` holds them or the matrix after that, so a caller that
    passes its only reference frees the rows before the trees grow."""
    # the features reach the fit through a list it pops, not a name
    labels, features = matrix.labels, [matrix.features]
    del matrix
    return fit_forest(features.pop(), labels, config)


def decision_blocks(
    derived: tuple[list[float], np.ndarray], model: RFModel, window: int
) -> Iterator[list[FusedDecision]]:
    """`predict_session`'s decisions a block at a time, one forest call of
    up to SCORE_ROWS windows each, so the windows copied at once stay
    bounded however long the session, and a caller that writes each block
    out holds no more decisions than that."""
    times, frames = derived
    for start in range(0, len(frames) - window + 1, SCORE_ROWS):
        rows = frame_windows(frames[start : start + SCORE_ROWS + window - 1], window)
        labels, scores = model.predict_batch(rows)
        anchors = slice(start + window - 1, start + window - 1 + len(rows))
        yield [
            FusedDecision(t, *frame, round(float(score), 6), int(label))
            for t, frame, score, label in zip(
                times[anchors], frames[anchors].tolist(), scores, labels
            )
        ]


def predict_session(
    derived: tuple[list[float], np.ndarray], model: RFModel, window: int
) -> list[FusedDecision]:
    """Batch predictions for every full window of a session's stage-1
    (ticks, frames), including the final grid point at the duration."""
    return [d for block in decision_blocks(derived, model, window) for d in block]


def live_pipeline(
    nb_model: NBModel,
    rf_model: RFModel,
    gaze_config: GazeConfig,
    cadence_hz: float,
    window: int,
    on_decision: Callable[[FusedDecision], None],
) -> Pipeline:
    """The live shell: raw gaze frames and utterances go into the
    pipeline, and one decision per tick, once the window has filled, goes
    to `on_decision` as the tick fires.

    Each input stream holds its model's latest values at wire precision,
    0.0 before the first; each tick decides over the last `window` held
    frames, oldest first.  Scores are wire-rounded; vote fractions are
    never close enough to 0.5 for that to flip the label."""
    pipe = Pipeline()
    tracker = GazeNeedTracker(gaze_config)
    held = [0.0, 0.0, 0.0]  # mutual, confirmatory, language
    frames: deque[tuple[float, float, float]] = deque(maxlen=window)

    def on_gaze(t: float, obs: GazeObservation) -> None:
        mutual, conf = tracker.update(t, obs)
        held[0] = round(mutual, 6)
        held[1] = round(conf, 6)

    def on_utterance(t: float, text: str) -> None:
        v = nb_model.predict_text(text)
        if v is None:  # it tokenizes to nothing
            drops = pipe.drop_counts
            drops["need_language"] = drops.get("need_language", 0) + 1
        else:
            held[2] = round(v, 6)

    def on_tick(t: float) -> None:
        frames.append(tuple(held))
        if len(frames) < window:
            return
        labels, scores = rf_model.predict_batch(
            np.array(frames, dtype=np.float64).reshape(1, -1)
        )
        on_decision(
            FusedDecision(
                t, *frames[-1], round(float(scores[0]), 6), int(labels[0])
            )
        )

    pipe.streams["gaze_raw"].subscribe(on_gaze)
    pipe.streams["utterance"].subscribe(on_utterance)
    pipe.add_ticker(cadence_hz, on_tick)
    return pipe


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
    decisions: list[FusedDecision] = []
    pipe = live_pipeline(
        nb_model, rf_model, gaze_config, cadence_hz, window, decisions.append
    )
    for name, msg in record.all_messages():
        if name in LIVE_INPUTS:
            pipe.emit(name, msg.originating_time, msg.payload)
    pipe.finalize(record.duration)
    return decisions
