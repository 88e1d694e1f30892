"""Decision-level fusion of the per-modality need models.

The three need streams are resampled onto a shared tick grid with a
causal zero-order hold, a sliding window of W ticks of (mutual,
confirmatory, language) values is concatenated into one 3W feature
vector, and a random forest maps the vector to the final binary help
decision.

One engine, `streams.Pipeline`, fires the ticks and holds the inputs for
every command: `hold_gaze` and `hold_language` subscribe the gaze and
text models to its input streams, each setting that model's latest
output, and a tick takes the held values at wire precision.  Training is
two-stage: stage 1 gives each raw recording's tick times and a (T, 3)
array of (mutual, confirmatory, language) frames; stage 2 exports
windowed rows from those arrays and fits the forest.  The gaze half needs
no training, so `train` and `eval` run it on a pipeline as a recording is
read (`held_session`), keep only its holds and the labels of its ticks,
the one place those are decided (`HeldSession`), and hold the language
column on a second pipeline once the text model is trained
(`derived_session`): one pipeline per stream, since a file need only be
in time order within each stream.  `predict_session` scores the frames in
one forest call: the batch reference.  `run` decides through one pipeline
over both streams (`live_pipeline`), whose input is in global time order,
deciding over the last W held frames at each tick, so it keeps no more
than the frames of the windows it has yet to score and reproduces the
batch predictions bit for bit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .forest import SCORE_ROWS, ForestConfig, RFModel, fit_forest
from .gaze import GazeConfig, GazeNeedTracker, GazeObservation
from .language import NBModel
from .sessions import SessionRecord, TrainingMatrix, binary_labels, frame_windows
from .streams import Pipeline, TimestampedMessage


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


@dataclass
class HeldSession:
    """A raw session once its gaze frames have been through the gaze models
    (`held_session`): the record without them, its tick cadence, the
    binary label of each tick before the duration (int8), and the mutual
    and confirmatory holds at every tick, the one at the duration too."""

    record: SessionRecord
    cadence_hz: float
    labels: np.ndarray
    gaze: tuple[np.ndarray, np.ndarray]


def hold_gaze(pipe: Pipeline, held: list[float], config: GazeConfig) -> None:
    """Subscribe the gaze models to `pipe`'s gaze stream: each frame sets
    held[0] and held[1] to the mutual and confirmatory need it gives."""
    tracker = GazeNeedTracker(config)

    def on_gaze(t: float, obs: GazeObservation) -> None:
        held[0], held[1] = tracker.update(t, obs)

    pipe.streams["gaze_raw"].subscribe(on_gaze)


def hold_language(pipe: Pipeline, held: list[float], nb_model: NBModel) -> None:
    """Subscribe the text model to `pipe`'s utterance stream: each
    utterance sets held[2] to its posterior, or, if it tokenizes to
    nothing, counts as a drop on need_language."""
    drops = pipe.drop_counts  # not the pipe, which holds this callback

    def on_utterance(t: float, text: str) -> None:
        v = nb_model.predict_text(text)
        if v is None:
            drops["need_language"] = drops.get("need_language", 0) + 1
        else:
            held[2] = v

    pipe.streams["utterance"].subscribe(on_utterance)


def _wire(values: list[float]) -> np.ndarray:
    """The values a pipeline's ticks took, rounded to the wire's 6 places:
    rounding commutes with the hold, and most ticks take a value an earlier
    tick took, so each distinct value is rounded once."""
    rounded = {v: round(v, 6) for v in set(values)}
    return np.array([rounded[v] for v in values], dtype=np.float64)


def held_session(
    record: SessionRecord,
    frames: Iterable[TimestampedMessage],
    gaze_config: GazeConfig,
    cadence_hz: float,
) -> HeldSession:
    """Stage 1's gaze half for raw session `record`: its gaze `frames`, in
    time order, through the gaze models on their own `Pipeline`, each read
    once as `frames` yields it and none kept, the holds of each tick, and
    the labels of those before the duration, which training rows end at."""
    pipe, held = Pipeline(), [0.0, 0.0, 0.0]
    hold_gaze(pipe, held, gaze_config)
    ticks, mutual, conf = [], [], []

    def on_tick(t: float) -> None:
        ticks.append(t)
        mutual.append(held[0])
        conf.append(held[1])

    pipe.add_ticker(cadence_hz, on_tick)
    for msg in frames:
        pipe.emit("gaze_raw", msg.originating_time, msg.payload)
    pipe.finalize(record.duration)
    gaze, times = (_wire(mutual), _wire(conf)), np.array(ticks)
    ticks.clear()  # the tick floats are freed before the labels are found
    labels = binary_labels(record, times[times < record.duration]).astype(np.int8)
    return HeldSession(record, cadence_hz, labels, gaze)


def derived_session(
    held: HeldSession, nb_model: NBModel
) -> tuple[list[float], np.ndarray]:
    """Stage 1 for one raw session whose gaze holds are given: the ticks and
    the (T, 3) frames of mutual, confirmatory and language need, the record's
    utterances through the text model on their own `Pipeline` with the same
    ticks.  An utterance that tokenizes to nothing holds nothing."""
    pipe, values = Pipeline(), [0.0, 0.0, 0.0]
    hold_language(pipe, values, nb_model)
    ticks, language = [], []

    def on_tick(t: float) -> None:
        ticks.append(t)
        language.append(values[2])

    pipe.add_ticker(held.cadence_hz, on_tick)
    for msg in held.record.messages("utterance"):
        pipe.emit("utterance", msg.originating_time, msg.payload)
    pipe.finalize(held.record.duration)
    return ticks, np.column_stack((*held.gaze, _wire(language)))


def stage1_materialize(
    record: SessionRecord,
    nb_model: NBModel,
    gaze_config: GazeConfig,
    cadence_hz: float,
) -> tuple[list[float], np.ndarray]:
    """Stage 1 of training: the tick grid of one raw session and the
    gaze and language models' outputs held onto it, as (T, 3) frames."""
    return derived_session(
        held_session(record, record.messages("gaze_raw"), gaze_config, cadence_hz),
        nb_model,
    )


def export_fusion_matrix(
    sessions: list[HeldSession], frames: list[np.ndarray], window: int
) -> TrainingMatrix:
    """Sliding-window rows over the stage-1 (T, 3) frames of each raw
    session, `frames[i]` belonging to `sessions[i]`.

    Each row concatenates `window` consecutive (mutual, confirmatory,
    language) frames oldest first and carries the label `held_session`
    gave its newest tick.  Warm-up ticks and the unlabeled final grid
    point (at exactly the session duration) contribute no rows.  Rows come
    in canonical order, sessions by id and each one's ticks ascending,
    whatever the order of `sessions`.
    """
    blocks = [np.empty((0, window * 3), dtype=np.float64)]
    label_blocks = [np.empty(0, dtype=np.int8)]
    ordered = sorted(
        zip(sessions, frames, strict=True), key=lambda p: p[0].record.session_id
    )
    for held, session_frames in ordered:
        labels = held.labels[window - 1:]  # the first windows end at these
        blocks.append(frame_windows(session_frames, window)[: len(labels)])
        label_blocks.append(labels)
    return TrainingMatrix(np.concatenate(blocks), np.concatenate(label_blocks))


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


def _decide(
    model: RFModel, ticks: list[float], frames: np.ndarray, window: int
) -> list[FusedDecision]:
    """The decisions of one forest call over every full window of (T, 3)
    `frames`, the window ending at frame `window - 1 + i` made at
    `ticks[i]`."""
    labels, scores = model.predict_batch(frame_windows(frames, window))
    return [
        FusedDecision(t, *frame, round(score, 6), label)
        for t, frame, score, label in zip(
            ticks, frames[window - 1:].tolist(), scores.tolist(), labels.tolist()
        )
    ]


def predict_session(
    derived: tuple[list[float], np.ndarray], model: RFModel, window: int
) -> list[FusedDecision]:
    """Batch predictions for every full window of a session's stage-1
    (ticks, frames), including the final grid point at the duration: the
    reference `run` is checked against.  The windows are a view of the
    frames, and the forest votes on SCORE_ROWS of them at a time."""
    ticks, frames = derived
    return _decide(model, ticks[window - 1:], frames, window)


def live_pipeline(
    nb_model: NBModel,
    rf_model: RFModel,
    gaze_config: GazeConfig,
    cadence_hz: float,
    window: int,
    on_decisions: Callable[[list[FusedDecision]], None],
    whole: bool = False,
) -> tuple[Pipeline, Callable[[], None]]:
    """The live engine: raw gaze frames and utterances go into the
    pipeline, and one decision per tick, once the window has filled, goes
    to `on_decisions`, in blocks of one forest call: one decision as its
    tick fires, or SCORE_ROWS for input that has arrived `whole`.  The
    function returned with the pipeline scores the windows still waiting
    once `finalize` has fired the last tick.

    Each input stream holds its model's latest output (`hold_gaze`,
    `hold_language`), 0.0 before the first; each tick decides over the
    last `window` held frames, oldest first.  Frames and scores are
    wire-rounded; no vote fraction is close enough to 0.5 to flip a label."""
    pipe, held = Pipeline(), [0.0, 0.0, 0.0]  # mutual, confirmatory, language
    hold_gaze(pipe, held, gaze_config)
    hold_language(pipe, held, nb_model)
    rows = SCORE_ROWS if whole else 1
    # the frames of the windows yet to be scored, and their ticks
    frames: deque[tuple[float, float, float]] = deque(maxlen=window + rows - 1)
    ticks: list[float] = []

    def score_waiting() -> None:
        if ticks:
            recent = np.array(frames, dtype=np.float64)[-(len(ticks) + window - 1):]
            decisions = _decide(rf_model, ticks, recent, window)
            ticks.clear()
            on_decisions(decisions)

    def on_tick(t: float) -> None:
        frames.append((round(held[0], 6), round(held[1], 6), round(held[2], 6)))
        if len(frames) >= window:
            ticks.append(t)
            if len(ticks) == rows:
                score_waiting()

    pipe.add_ticker(cadence_hz, on_tick)
    return pipe, score_waiting
