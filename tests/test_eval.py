"""Metrics, cross validation, session statistics, evaluation protocol."""

from __future__ import annotations

import weakref
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needsense import evaluation, forest
from needsense.config import Config
from needsense.evaluation import (
    EvalReport,
    MetricsReport,
    average_help,
    confusion_counts,
    kfold,
    metrics_from_counts,
    run_full_eval,
)
from needsense.forest import RFModel
from needsense.fusion import derived_session, held_session
from needsense.gaze import GazeConfig
from needsense.sessions import (
    LabelSpan,
    NeedLevelLabel,
    SessionRecord,
    binary_labels,
)
from needsense.simulate import (
    ScenarioScript,
    SegmentSpec,
    benchmark_suite,
    simulate,
)
from needsense.streams import TimestampedMessage, tick_times

from conftest import EchoText

LIGHT_CONFIG = Config(
    rf_n_trees=10, rf_max_depth=6, rf_min_samples_leaf=3, seed=1
)


def labeled_record(spans, session_id="e00"):
    """Label-only session; spans are (start, end, level-name) triples."""
    labels = [
        LabelSpan(s, e, NeedLevelLabel(lv)) for s, e, lv in spans
    ]
    return SessionRecord(
        session_id=session_id,
        duration=labels[-1].end,
        streams={},
        labels=labels,
    )


def two_phase(duration=4.0, flip=2.0, session_id="e00"):
    return labeled_record(
        [(0.0, flip, "Flow"), (flip, duration, "L3")], session_id
    )


class TestMetricsFromCounts:
    def test_formulas(self):
        m = metrics_from_counts(tp=3, fp=1, fn=2, tn=4)
        assert m.precision == 3 / 4
        assert m.recall == 3 / 5
        assert m.f1 == pytest.approx(2 * (3 / 4) * (3 / 5) / (3 / 4 + 3 / 5))
        assert not m.precision_undefined

    def test_no_predicted_positives_flags_precision(self):
        m = metrics_from_counts(tp=0, fp=0, fn=2, tn=3)
        assert m.precision == 0.0
        assert m.precision_undefined
        assert m.recall == 0.0
        assert m.f1 == 0.0

    def test_no_actual_positives(self):
        m = metrics_from_counts(tp=0, fp=2, fn=0, tn=3)
        assert m.recall == 0.0
        assert m.precision == 0.0
        assert not m.precision_undefined

    def test_perfect(self):
        m = metrics_from_counts(tp=5, fp=0, fn=0, tn=5)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_all_zero(self):
        m = metrics_from_counts(0, 0, 0, 0)
        assert m.precision_undefined
        assert m.f1 == 0.0

    @given(
        a=st.tuples(*[st.integers(0, 20)] * 4),
        b=st.tuples(*[st.integers(0, 20)] * 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_micro_average_adds_counts(self, a, b):
        # micro-averaging concatenated streams = summing the count cells
        combined = metrics_from_counts(*(x + y for x, y in zip(a, b)))
        assert combined.tp == a[0] + b[0]
        assert combined.tn == a[3] + b[3]


class TestConfusionCounts:
    def test_counts_against_labels(self):
        record = two_phase(duration=4.0, flip=2.0)
        truth = binary_labels(record, [0.0, 1.0, 2.0, 3.0])
        assert confusion_counts([0, 1, 1, 0], truth) == (1, 1, 1, 1)

    def test_late_start_allowed(self):
        # a model that starts late is scored on the labels of its ticks
        truth = binary_labels(two_phase(), [3.0])
        assert confusion_counts([1], truth) == (1, 0, 0, 0)

    def test_empty_allowed(self):
        assert confusion_counts([], []) == (0, 0, 0, 0)
        assert confusion_counts(np.empty(0, bool), np.empty(0, int)) == (
            0, 0, 0, 0,
        )

    @given(
        pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1))),
        as_bool=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_python_loop(self, pairs, as_bool):
        pred = np.array([p for p, _ in pairs], dtype=bool if as_bool else int)
        truth = np.array([t for _, t in pairs], dtype=np.int64)
        expected = [0, 0, 0, 0]
        for p, t in pairs:
            expected[{(1, 1): 0, (1, 0): 1, (0, 1): 2, (0, 0): 3}[p, t]] += 1
        assert confusion_counts(pred, truth) == tuple(expected)


def language_hold(utterances, duration):
    """The language column `derived_session` holds at each 10 Hz tick for
    (time, text) utterances, each text's posterior the number it spells."""
    record = SessionRecord(
        "z00", duration,
        {"utterance": [TimestampedMessage(t, text) for t, text in utterances]},
        # `held_session` labels every tick before the duration
        [LabelSpan(0.0, duration, NeedLevelLabel.FLOW)],
    )
    held = held_session(record, [], GazeConfig(), 10.0)
    ticks, frames = derived_session(held, EchoText())
    return dict(zip(ticks, frames[:, 2].tolist()))


class TestZeroOrderHold:
    """The batch language hold: `derived_session` on its own pipeline."""

    def test_example(self):
        out = language_hold([(0.95, "0.8"), (1.05, "0.9")], 1.1)
        assert [out[t] for t in (0.9, 1.0, 1.1)] == [0.0, 0.8, 0.9]

    def test_tick_equal_to_time_sees_value(self):
        out = language_hold([(1.0, "0.7")], 1.0)
        assert out[1.0] == 0.7 and out[0.9] == 0.0

    def test_before_the_first_utterance_and_past_a_dropped_one(self):
        out = language_hold([(0.5, "???"), (0.75, "0.25")], 1.0)
        assert [out[t] for t in (0.0, 0.5, 0.7, 0.8, 1.0)] == [
            0.0, 0.0, 0.0, 0.25, 0.25
        ]

    @given(
        events=st.lists(
            st.tuples(
                st.one_of(st.integers(0, 50).map(lambda k: 100 * k),
                          st.integers(0, 5000)),
                st.floats(0, 1, allow_nan=False),
            ),
            max_size=20,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_bisect_oracle(self, events):
        # utterance times in whole milliseconds, on ticks and between them
        dedup = sorted({round(ms / 1000, 3): v for ms, v in events}.items())
        times = [t for t, _ in dedup]
        values = [v for _, v in dedup]
        out = language_hold([(t, repr(v)) for t, v in dedup], 5.0)
        assert list(out) == tick_times(5.0, 10.0)
        for t, held in out.items():
            i = bisect_right(times, t) - 1
            assert held == (round(values[i], 6) if i >= 0 else 0.0)


class TestKfold:
    def sessions(self, n):
        return [two_phase(session_id=f"s{i:02d}") for i in range(n)]

    def test_fold_shapes(self):
        folds = kfold(self.sessions(20), k=10, seed=0)
        assert len(folds) == 10
        for train, test in folds:
            assert len(test) == 2
            assert len(train) == 18

    def test_uneven_sizes_differ_by_at_most_one(self):
        folds = kfold(self.sessions(7), k=3, seed=0)
        sizes = sorted(len(test) for _, test in folds)
        assert sizes == [2, 2, 3]

    def test_test_sets_partition_the_sessions(self):
        sessions = self.sessions(11)
        folds = kfold(sessions, k=4, seed=3)
        seen = [r.session_id for _, test in folds for r in test]
        assert sorted(seen) == sorted(r.session_id for r in sessions)

    def test_no_session_in_its_own_training_set(self):
        for train, test in kfold(self.sessions(9), k=3, seed=1):
            train_ids = {r.session_id for r in train}
            assert all(r.session_id not in train_ids for r in test)

    def test_deterministic_and_seed_sensitive(self):
        sessions = self.sessions(10)

        def shape(folds):
            return [[r.session_id for r in test] for _, test in folds]

        assert shape(kfold(sessions, 5, seed=2)) == shape(kfold(sessions, 5, seed=2))
        assert shape(kfold(sessions, 5, seed=2)) != shape(kfold(sessions, 5, seed=3))

    def test_input_order_irrelevant(self):
        sessions = self.sessions(8)
        reordered = list(reversed(sessions))

        def shape(folds):
            return [[r.session_id for r in test] for _, test in folds]

        assert shape(kfold(sessions, 4, seed=0)) == shape(
            kfold(reordered, 4, seed=0)
        )

    def test_errors(self):
        with pytest.raises(ValueError, match="at least"):
            kfold(self.sessions(3), k=4)

    @given(
        n=st.integers(min_value=2, max_value=25),
        k=st.integers(min_value=2, max_value=25),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, n, k, seed):
        if n < k:
            return
        sessions = self.sessions(n)
        folds = kfold(sessions, k, seed)
        seen = sorted(r.session_id for _, test in folds for r in test)
        assert seen == sorted(r.session_id for r in sessions)
        sizes = {len(test) for _, test in folds}
        assert max(sizes) - min(sizes) <= 1


class TestAverageHelp:
    def test_all_flow_is_minus_one(self):
        record = labeled_record([(0.0, 60.0, "Flow")])
        assert average_help(record) == -1.0

    def test_weighted_mix(self):
        record = labeled_record(
            [(0.0, 30.0, "Flow"), (30.0, 40.0, "L1"), (40.0, 60.0, "L3")]
        )
        assert average_help(record) == pytest.approx((-30 + 10 + 60) / 60)

    def test_all_l2_is_two(self):
        record = labeled_record([(0.0, 5.0, "L2")])
        assert average_help(record) == 2.0

    @given(
        splits=st.lists(
            st.integers(min_value=1, max_value=59), min_size=1, max_size=6,
            unique=True,
        ),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_invariant_under_span_splitting(self, splits, seed):
        rng = np.random.default_rng(seed)
        levels = ["Flow", "L0", "L1", "L2", "L3"]
        record = labeled_record(
            [(0.0, 60.0, levels[int(rng.integers(5))])]
        )
        base = average_help(record)
        bounds = [0.0] + sorted(float(s) for s in splits) + [60.0]
        level = record.labels[0].level.value
        split_record = labeled_record(
            [(a, b, level) for a, b in zip(bounds, bounds[1:])]
        )
        assert average_help(split_record) == pytest.approx(base, abs=1e-9)


class TestEvalReport:
    def report(self):
        return EvalReport(
            rows={
                "mutual": metrics_from_counts(3, 1, 2, 4),
                "confirmatory": metrics_from_counts(0, 0, 5, 5),
                "language": metrics_from_counts(4, 0, 1, 5),
                "fused": metrics_from_counts(5, 0, 0, 5),
            }
        )

    def test_table_has_display_names(self):
        table = self.report().table()
        for name in ("Mutual", "Confirmatory", "Language", "Fusion"):
            assert name in table

    def test_undefined_precision_marked(self):
        lines = self.report().table().splitlines()
        starred = [ln for ln in lines if ln.endswith("*")]
        assert len(starred) == 1
        assert starred[0].startswith("Confirmatory")

    def test_kv_lines_parseable(self):
        for line in self.report().kv_lines():
            fields = dict(p.split("=") for p in line.split())
            assert set(fields) == {
                "model", "precision", "recall", "f1",
                "tp", "fp", "fn", "tn", "precision_undefined",
            }

    def test_render_combines_table_and_kv(self):
        text = self.report().render()
        assert text.endswith("\n")
        table, kv = text.split("\n\n")
        assert table == self.report().table()
        assert kv.strip().splitlines() == self.report().kv_lines()


@pytest.fixture(scope="module")
def small_suite():
    scripts = benchmark_suite(6, seed=1)
    return [simulate(s, f"r{i:02d}") for i, s in enumerate(scripts)]


def ticks_before_duration(record: SessionRecord) -> list[float]:
    return [t for t in tick_times(record.duration, 10.0) if t < record.duration]


class TestRunFullEval:
    @pytest.fixture(autouse=True)
    def _held(self, held_sessions):
        self.held = held_sessions

    def run(self, records, folds=3):
        return run_full_eval(self.held(records, LIGHT_CONFIG), LIGHT_CONFIG, folds)

    def test_report_rows(self, small_suite):
        report = self.run(small_suite)
        assert list(report.rows) == [
            "mutual", "confirmatory", "language", "fused",
        ]
        for m in report.rows.values():
            assert m.tp + m.fp + m.fn + m.tn > 0

    def test_fold_fit_frees_its_matrix_before_the_trees_grow(self, small_suite):
        # as in `train`: the features are read only to build the fit's tables
        export, search = evaluation.export_fusion_matrix, forest._best_splits
        exported = []
        at_first_search = []

        def export_recorded(*args):
            matrix = export(*args)
            exported.append((weakref.ref(matrix), weakref.ref(matrix.features)))
            return matrix

        def search_checked(*args):
            if not at_first_search:
                # the first fold's training matrix, exported before its fit
                at_first_search.extend(ref() for ref in exported[0])
            return search(*args)

        with mock.patch.object(evaluation, "export_fusion_matrix", export_recorded), \
                mock.patch.object(forest, "_best_splits", search_checked):
            self.run(small_suite)
        assert at_first_search == [None, None]

    def test_deterministic(self, small_suite):
        assert self.run(small_suite).render() == self.run(small_suite).render()

    def test_tick_coverage(self, small_suite):
        report = self.run(small_suite)
        labeled = [len(ticks_before_duration(r)) for r in small_suite]
        per_model_total = sum(labeled)
        warmup = 19  # a 20-tick window is first full at the 20th tick
        fused_total = sum(n - warmup for n in labeled)
        for key in ("mutual", "confirmatory", "language"):
            m = report.rows[key]
            assert m.tp + m.fp + m.fn + m.tn == per_model_total
        f = report.rows["fused"]
        assert f.tp + f.fp + f.fn + f.tn == fused_total

    def test_session_shorter_than_the_window(self, small_suite):
        # 1.5 s at 10 Hz is 15 labeled ticks, fewer than the 20-tick window
        short = simulate(
            ScenarioScript(
                (SegmentSpec(1.5, NeedLevelLabel.L3, "fix-robot"),), seed=3
            ),
            "r99",
        )
        sessions = [*small_suite, short]
        report = self.run(sessions)
        window = LIGHT_CONFIG.window_w
        fused_total = sum(
            max(0, len(ticks_before_duration(r)) - window + 1) for r in sessions
        )
        f = report.rows["fused"]
        assert f.tp + f.fp + f.fn + f.tn == fused_total
        m = report.rows["mutual"]
        assert m.tp + m.fp + m.fn + m.tn == sum(
            len(ticks_before_duration(r)) for r in sessions
        )

    def test_one_forest_call_per_fold(self, small_suite, monkeypatch):
        calls = []
        predict = RFModel.predict_batch

        def counted(model, X):
            calls.append(len(X))
            return predict(model, X)

        monkeypatch.setattr(RFModel, "predict_batch", counted)
        report = self.run(small_suite, folds=3)
        assert len(calls) == 3
        f = report.rows["fused"]
        assert sum(calls) == f.tp + f.fp + f.fn + f.tn

    def test_session_order_irrelevant(self, small_suite):
        forward = self.run(small_suite).render()
        backward = self.run(list(reversed(small_suite))).render()
        assert forward == backward
