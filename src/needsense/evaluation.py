"""Metrics, cross validation, and the full evaluation protocol.

Per-tick predictions are scored against the session's binary labels
with micro-averaged precision/recall/F1.  The gaze models need no
training and are evaluated over every session; the language and fusion
models are evaluated with session-level k-fold cross validation, with
the text classifier and the forest retrained inside each fold so no
session ever influences a model that scores it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forest import ForestConfig
from .fusion import derived_session, gaze_holds, predict_session, train_rf
from .gaze import GazeConfig
from .language import train_from_utterances
from .sessions import (
    SessionRecord,
    binary_label_at,
    export_fusion_matrix,
    export_language_corpus,
)
from .streams import tick_times


@dataclass(frozen=True)
class MetricsReport:
    """Confusion counts and the derived scores for one model.

    When no positive was predicted, precision has no defined value; it
    is reported as 0.0 with the flag set rather than hidden."""

    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    precision_undefined: bool


def metrics_from_counts(tp: int, fp: int, fn: int, tn: int) -> MetricsReport:
    if min(tp, fp, fn, tn) < 0:
        raise ValueError("confusion counts must be non-negative")
    precision_undefined = (tp + fp) == 0
    precision = 0.0 if precision_undefined else tp / (tp + fp)
    recall = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else (
        2 * precision * recall / (precision + recall)
    )
    return MetricsReport(
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        precision=precision,
        recall=recall,
        f1=f1,
        precision_undefined=precision_undefined,
    )


def labeled_ticks(record: SessionRecord, cadence_hz: float) -> list[float]:
    """Tick grid points that carry a label: every tick in [0, duration)."""
    return [
        t for t in tick_times(record.duration, cadence_hz) if t < record.duration
    ]


def confusion_counts(
    predictions: list[tuple[float, int]],
    record: SessionRecord,
    cadence_hz: float,
) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) of per-tick predictions against the labels.

    Every prediction time must lie on the session's labeled tick grid in
    increasing order; prediction streams that start late (window warm-up)
    are fine, off-grid times are not.
    """
    grid = set(labeled_ticks(record, cadence_hz))
    tp = fp = fn = tn = 0
    last = None
    for t, pred in predictions:
        if t not in grid:
            raise ValueError(
                f"prediction time {t} not on the tick grid of session "
                f"{record.session_id}"
            )
        if last is not None and t <= last:
            raise ValueError("prediction times must strictly increase")
        last = t
        if pred not in (0, 1):
            raise ValueError(f"predictions must be 0 or 1, got {pred!r}")
        truth = binary_label_at(record, t)
        if pred and truth:
            tp += 1
        elif pred and not truth:
            fp += 1
        elif truth:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def evaluate(
    predictions: list[tuple[float, int]],
    record: SessionRecord,
    cadence_hz: float,
) -> MetricsReport:
    """Score a per-tick binary prediction stream against one session."""
    return metrics_from_counts(*confusion_counts(predictions, record, cadence_hz))


def threshold_model_eval(
    values: list[tuple[float, float]],
    record: SessionRecord,
    cadence_hz: float,
    threshold: float = 0.5,
) -> MetricsReport:
    """Binarize a single model's need values (value >= threshold means
    help) and score them."""
    return evaluate(
        [(t, 1 if v >= threshold else 0) for t, v in values], record, cadence_hz
    )


def kfold(
    sessions: list[SessionRecord], k: int = 10, seed: int = 0
) -> list[tuple[list[SessionRecord], list[SessionRecord]]]:
    """Session-level folds: a seeded shuffle split into k parts whose
    sizes differ by at most one; no session appears in two test sets."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(sessions) < k:
        raise ValueError(f"need at least {k} sessions for {k}-fold CV")
    canon = sorted(sessions, key=lambda r: r.session_id)
    perm = np.random.default_rng(seed).permutation(len(canon))
    base, extra = divmod(len(canon), k)
    folds = []
    pos = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        test_ids = {canon[j].session_id for j in perm[pos : pos + size]}
        pos += size
        test = [r for r in canon if r.session_id in test_ids]
        train = [r for r in canon if r.session_id not in test_ids]
        folds.append((train, test))
    return folds


def average_help(record: SessionRecord) -> float:
    """Duration-weighted mean need level over the session, counting the
    flow state as -1 so confident progress pulls the average down."""
    total = sum(
        span.level.weight * (span.end - span.start) for span in record.labels
    )
    return total / record.duration


@dataclass
class EvalReport:
    """Per-model metrics; rows keyed mutual, confirmatory, language, fused."""

    rows: dict[str, MetricsReport]

    _DISPLAY = {
        "mutual": "Mutual",
        "confirmatory": "Confirmatory",
        "language": "Language",
        "fused": "Fusion",
    }

    def table(self) -> str:
        lines = [
            f"{'Model':<14} {'Precision':>9} {'Recall':>9} {'F1':>9} "
            f"{'TP':>6} {'FP':>6} {'FN':>6} {'TN':>6}"
        ]
        for key, m in self.rows.items():
            name = self._DISPLAY.get(key, key)
            star = "*" if m.precision_undefined else ""
            lines.append(
                f"{name:<14} {m.precision:>9.6f} {m.recall:>9.6f} "
                f"{m.f1:>9.6f} {m.tp:>6d} {m.fp:>6d} {m.fn:>6d} {m.tn:>6d}"
                f"{star}"
            )
        return "\n".join(lines)

    def kv_lines(self) -> list[str]:
        out = []
        for key, m in self.rows.items():
            out.append(
                f"model={key} precision={m.precision:.6f} "
                f"recall={m.recall:.6f} f1={m.f1:.6f} "
                f"tp={m.tp} fp={m.fp} fn={m.fn} tn={m.tn} "
                f"precision_undefined={int(m.precision_undefined)}"
            )
        return out

    def render(self) -> str:
        return self.table() + "\n\n" + "\n".join(self.kv_lines()) + "\n"


def run_full_eval(
    sessions: list[SessionRecord],
    *,
    gaze_config: GazeConfig | None = None,
    forest_config: ForestConfig | None = None,
    cadence_hz: float = 10.0,
    window: int = 20,
    nb_alpha: float = 1.0,
    nb_use_aggregates: bool = True,
    folds: int = 10,
    seed: int = 0,
) -> EvalReport:
    """The full protocol: gaze models scored over every session, language
    and fusion scored by session-level cross validation with per-fold
    retraining.  Fusion predictions exist only once the window is full,
    so its counts cover slightly fewer ticks than the per-model rows."""
    gaze_config = gaze_config or GazeConfig()
    forest_config = forest_config or ForestConfig()
    canon = sorted(sessions, key=lambda r: r.session_id)

    # the gaze models need no training: run them once per session
    ticks_of: dict[str, list[float]] = {}
    gaze: dict[str, tuple[list[float], list[float]]] = {}
    for rec in canon:
        ticks = tick_times(rec.duration, cadence_hz)
        ticks_of[rec.session_id] = ticks
        gaze[rec.session_id] = gaze_holds(rec, gaze_config, ticks)

    def tallied(rows: list[tuple[int, int, int, int]]) -> MetricsReport:
        tp = sum(r[0] for r in rows)
        fp = sum(r[1] for r in rows)
        fn = sum(r[2] for r in rows)
        tn = sum(r[3] for r in rows)
        return metrics_from_counts(tp, fp, fn, tn)

    def held_counts(
        rec: SessionRecord, values: list[float]
    ) -> tuple[int, int, int, int]:
        # a model's held values, thresholded at 0.5, on the labeled ticks
        preds = [
            (t, 1 if v >= 0.5 else 0)
            for t, v in zip(ticks_of[rec.session_id], values)
            if t < rec.duration
        ]
        return confusion_counts(preds, rec, cadence_hz)

    def gaze_row(index: int) -> MetricsReport:
        return tallied(
            [held_counts(rec, gaze[rec.session_id][index]) for rec in canon]
        )

    lang_rows: list[tuple[int, int, int, int]] = []
    fused_rows: list[tuple[int, int, int, int]] = []
    for train, test in kfold(canon, folds, seed):
        nb = train_from_utterances(
            export_language_corpus(train),
            alpha=nb_alpha,
            use_aggregates=nb_use_aggregates,
        )

        def ds1(rec: SessionRecord) -> SessionRecord:
            return derived_session(
                rec, ticks_of[rec.session_id], gaze[rec.session_id], nb
            )

        rf = train_rf(
            export_fusion_matrix([ds1(rec) for rec in train], window),
            forest_config,
        )
        for rec in test:
            derived = ds1(rec)
            lang = [m.payload for m in derived.messages("need_language")]
            lang_rows.append(held_counts(rec, lang))
            decisions = predict_session(derived, rf, window)
            fused_preds = [
                (d.t, d.label) for d in decisions if d.t < rec.duration
            ]
            fused_rows.append(confusion_counts(fused_preds, rec, cadence_hz))

    return EvalReport(
        rows={
            "mutual": gaze_row(0),
            "confirmatory": gaze_row(1),
            "language": tallied(lang_rows),
            "fused": tallied(fused_rows),
        }
    )
