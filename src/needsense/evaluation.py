"""Metrics, cross validation, and the full evaluation protocol.

Per-tick predictions are scored against the session's binary labels
with micro-averaged precision/recall/F1.  The gaze models need no
training and are evaluated over every session; the language and fusion
models are evaluated with session-level k-fold cross validation, with
the text classifier and the forest retrained inside each fold so no
session ever influences a model that scores it.  The fused model is
scored on exactly the rows `train` fits, exported from the test
sessions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config
from .fusion import HeldSession, derived_session, export_fusion_matrix, train_rf
from .language import train_from_utterances
from .sessions import SessionRecord, export_language_corpus


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


def confusion_counts(pred, truth) -> tuple[int, int, int, int]:
    """(tp, fp, fn, tn) of 0/1 predictions against the 0/1 labels of the
    same ticks, the two aligned position by position."""
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    return tp, fp, fn, len(pred) - tp - fp - fn


def kfold(
    sessions: list[SessionRecord], k: int = 10, seed: int = 0
) -> list[tuple[list[SessionRecord], list[SessionRecord]]]:
    """Session-level folds: a seeded shuffle split into k parts whose
    sizes differ by at most one; no session appears in two test sets."""
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
    sessions: list[HeldSession], cfg: Config, folds: int = 10
) -> EvalReport:
    """The full protocol under one config: gaze models scored over every
    session, language and fusion scored by session-level cross validation
    with per-fold retraining.  Each model is scored on the ticks before the
    session's duration, the fused model only on the rows `train` exports,
    one per such tick with a full window, so its counts cover fewer ticks.
    The sessions' gaze holds are those of `cfg`'s gaze config and cadence."""
    totals = {
        key: np.zeros(4, dtype=np.int64)
        for key in ("mutual", "confirmatory", "language", "fused")
    }
    # the gaze holds need no training, so they are scored here, each
    # against the labels of the ticks before the duration
    for held in sessions:
        labels = held.labels
        for key, hold in zip(("mutual", "confirmatory"), held.gaze):
            totals[key] += confusion_counts(hold[: len(labels)] >= 0.5, labels)

    by_id = {held.record.session_id: held for held in sessions}
    for train, test in kfold([held.record for held in sessions], folds, cfg.seed):
        nb = train_from_utterances(
            export_language_corpus(train),
            alpha=cfg.nb_alpha,
            use_aggregates=cfg.nb_use_aggregates,
        )
        train_held = [by_id[rec.session_id] for rec in train]
        rf = train_rf(
            export_fusion_matrix(
                train_held,
                [derived_session(held, nb)[1] for held in train_held],
                cfg.window_w,
            ),
            cfg.forest_config(),
        )
        test_held = [by_id[rec.session_id] for rec in test]
        frames = [derived_session(held, nb)[1] for held in test_held]
        for held, session_frames in zip(test_held, frames):
            totals["language"] += confusion_counts(
                session_frames[: len(held.labels), 2] >= 0.5, held.labels
            )
        # the fused model is scored on the rows `train` would make of the
        # test sessions, in one forest call
        rows = export_fusion_matrix(test_held, frames, cfg.window_w)
        totals["fused"] += confusion_counts(
            rf.predict_batch(rows.features)[0], rows.labels
        )

    return EvalReport(
        rows={
            key: metrics_from_counts(*counts.tolist())
            for key, counts in totals.items()
        }
    )
