"""Acceptance suite: the shipping bar for the package.

One test per criterion, named test_criterion_N_*, so `pytest -v` emits a
single pass/fail line for each.  Oracles are independent recomputations
(exact rational arithmetic for the probabilistic models, closed-form
geometry for the gaze models, plain-python slicing for the exports);
tolerances and runtime budgets are asserted inside each test.
"""

from __future__ import annotations

import io
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from needsense.cli import main
from needsense.config import Config
from needsense.evaluation import (
    average_help,
    confusion_counts,
    metrics_from_counts,
    run_full_eval,
)
from needsense.forest import ForestConfig, RFModel, fit_forest
from needsense.fusion import (
    derived_session,
    export_fusion_matrix,
    held_session,
    predict_session,
)
from needsense.gaze import GazeConfig, GazeNeedTracker
from needsense.language import (
    NEG,
    QWORD,
    extract_features,
    tokenize,
    train_from_utterances,
)
from needsense.sessions import (
    LabelSpan,
    NeedLevelLabel,
    SessionRecord,
    binary_labels,
    export_language_corpus,
    fmt_time,
    fmt_value,
    NEED_STREAMS,
    load as load_session,
)
from needsense.simulate import (
    ScenarioScript,
    SegmentSpec,
    benchmark_suite,
    simulate,
)
from needsense.streams import tick_times


class _criterion:
    """Prints one [PASS]/[FAIL] line per criterion, with timing."""

    def __init__(self, num: int, title: str):
        self.num = num
        self.title = title

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"[{status}] criterion {self.num}: {self.title} "
            f"({self.elapsed:.2f}s)"
        )
        return False


def spans(*triples):
    return [LabelSpan(s, e, NeedLevelLabel(lv)) for s, e, lv in triples]


def test_criterion_1_gaze_need_formula_exactness():
    with _criterion(1, "gaze need equals min(1, d/2.5) frame by frame") as c:
        # sustained look at the robot: run duration is exactly the frame time
        script = ScenarioScript(
            (SegmentSpec(5.0, NeedLevelLabel.L3, "fix-robot"),), noise=0.0
        )
        record = simulate(script, "a1")
        tracker = GazeNeedTracker(GazeConfig())
        for msg in record.messages("gaze_raw"):
            t = msg.originating_time
            mutual, _ = tracker.update(t, msg.payload)
            assert abs(mutual - min(1.0, t / 2.5)) <= 1e-9

        # the half-way anchor: a 1.25 s run scores exactly 0.5
        anchored = GazeNeedTracker(GazeConfig())
        obs = record.messages("gaze_raw")[0].payload
        anchored.update(0.0, obs)
        assert anchored.update(1.25, obs)[0] == 0.5

        # alternating glances: run durations derived from script geometry
        period = 1.5
        alt = simulate(
            ScenarioScript(
                (SegmentSpec(9.0, NeedLevelLabel.L2, "alternate:1.5"),),
                noise=0.0,
            ),
            "a2",
        )
        tracker = GazeNeedTracker(GazeConfig())
        for msg in alt.messages("gaze_raw"):
            t = msg.originating_time
            mutual, _ = tracker.update(t, msg.payload)
            glance = int(t // period)
            start = glance * period
            if t == start and glance >= 1:
                # boundary frame: the switch is still one frame from
                # confirmation, so the previous glance's run is reported
                on_robot = (glance - 1) % 2 == 1
                d = t - (start - period)
            else:
                on_robot = glance % 2 == 1
                d = t - start
            expected = min(1.0, d / 2.5) if on_robot else 0.0
            assert abs(mutual - expected) <= 1e-9, t

        # eyes on the task: mutual stays exactly zero
        task = simulate(
            ScenarioScript(
                (SegmentSpec(4.0, NeedLevelLabel.FLOW, "fix-task"),), noise=0.0
            ),
            "a3",
        )
        tracker = GazeNeedTracker(GazeConfig())
        for msg in task.messages("gaze_raw"):
            assert tracker.update(msg.originating_time, msg.payload)[0] == 0.0

        assert c.elapsed < 1.0


def nb_fraction_oracle(pairs, alpha, use_aggregates):
    """Naive Bayes in exact rational arithmetic, from the raw texts."""
    docs = [0, 0]
    counts: dict[str, list[int]] = {}
    for text, label in pairs:
        tokens = tokenize(text)
        if not tokens:
            continue
        docs[label] += 1
        for token, c in extract_features(tokens, use_aggregates).items():
            if c:
                counts.setdefault(token, [0, 0])[label] += c
    if use_aggregates:
        counts.setdefault(QWORD, [0, 0])
        counts.setdefault(NEG, [0, 0])
    a = Fraction(alpha)
    v = len(counts)
    totals = [sum(c[label] for c in counts.values()) for label in (0, 1)]

    def likelihood(token, label):
        return (counts[token][label] + a) / (totals[label] + a * v)

    def posterior(text):
        feats = extract_features(tokenize(text), use_aggregates)
        nums = []
        for label in (0, 1):
            p = Fraction(docs[label], docs[0] + docs[1])
            for token, c in feats.items():
                if c and token in counts:
                    p *= likelihood(token, label) ** c
            nums.append(p)
        return nums[1] / (nums[0] + nums[1])

    return set(counts), likelihood, posterior


def test_criterion_2_naive_bayes_matches_exact_oracle():
    corpora = [
        # (pairs, alpha, use_aggregates, probes)
        (
            [("help me", 1), ("looks good", 0), ("what goes here", 1),
             ("this is fun", 0)],
            1.0, True,
            ["help", "what goes here", "looks fun", "nothing matches here"],
        ),
        (
            [("what now", 1), ("i don't know", 1), ("all good", 0),
             ("fine by me", 0)],
            1.0, True,
            ["what", "don't", "all fine", "what what what"],
        ),
        (
            [("help help help", 1), ("ok ok", 0), ("need a hand", 1),
             ("ok", 0)],
            2.0, True,
            ["help ok", "need need", "a hand please"],
        ),
        (
            [("where is it", 1), ("done already", 0), ("how does it fit", 1),
             ("smooth sailing", 0)],
            0.5, False,
            ["where how", "done", "it it it"],
        ),
    ]
    with _criterion(2, "NB likelihoods/posteriors match a Fraction oracle") as c:
        for pairs, alpha, use_aggregates, probes in corpora:
            assert len(pairs) <= 6
            assert all(len(tokenize(text)) <= 10 for text, _ in pairs)
            model = train_from_utterances(
                pairs,
                alpha=alpha,
                use_aggregates=use_aggregates,
            )
            vocab, likelihood, posterior = nb_fraction_oracle(
                pairs, alpha, use_aggregates
            )
            assert set(model.token_counts) == vocab
            for token in sorted(vocab):
                for label in (0, 1):
                    assert abs(
                        model.likelihood(token, label)
                        - float(likelihood(token, label))
                    ) <= 1e-9
            for probe in probes:
                assert abs(
                    model.predict_text(probe) - float(posterior(probe))
                ) <= 1e-9
        assert c.elapsed < 1.0


def test_criterion_3_window_export_exactness():
    with _criterion(3, "100-tick session exports 81 x 60 rows exactly") as c:
        script = ScenarioScript(
            (
                SegmentSpec(
                    4.0, NeedLevelLabel.FLOW, "fix-task",
                    ((1.0, "this looks right"),),
                ),
                SegmentSpec(2.5, NeedLevelLabel.L1, "alternate:1.5"),
                SegmentSpec(
                    3.5, NeedLevelLabel.L3, "fix-robot",
                    ((0.5, "can you help me"), (2.0, "what goes here")),
                ),
            ),
            noise=0.0,
            seed=2,
        )
        record = simulate(script, "w00")
        assert record.duration == 10.0

        # system path: batch stage 1, then the exporter
        nb = train_from_utterances(export_language_corpus([record]))
        session = held_session(
            record, record.messages("gaze_raw"), GazeConfig(), 10.0
        )
        _, frames = derived_session(session, nb)
        matrix = export_fusion_matrix([session], [frames], 20)
        assert matrix.n_rows == 81
        assert matrix.dim == 60

        # oracle path: tracker and text model replayed by hand, a
        # plain-python hold onto the tick grid, rows sliced and labeled
        # by hand
        tracker = GazeNeedTracker(GazeConfig())
        gaze_t, mutual_v, conf_v = [], [], []
        for msg in record.messages("gaze_raw"):
            mutual, conf = tracker.update(msg.originating_time, msg.payload)
            gaze_t.append(msg.originating_time)
            mutual_v.append(round(mutual, 6))
            conf_v.append(round(conf, 6))
        lang_t, lang_v = [], []
        for msg in record.messages("utterance"):
            v = nb.predict_text(msg.payload)
            if v is not None:
                lang_t.append(msg.originating_time)
                lang_v.append(round(v, 6))
        ticks = tick_times(record.duration, 10.0)
        assert len(ticks) == 101  # 100 labeled ticks + the endpoint

        def hold(times, values):
            out = []
            for tick in ticks:
                held = 0.0
                for t, v in zip(times, values):
                    if t <= tick:
                        held = v
                out.append(held)
            return out

        series = [
            hold(gaze_t, mutual_v),
            hold(gaze_t, conf_v),
            hold(lang_t, lang_v),
        ]

        for i in range(81):
            anchor = ticks[19 + i]
            expected = []
            for k in range(i, i + 20):
                expected += [series[0][k], series[1][k], series[2][k]]
            assert matrix.features[i].tolist() == expected
            (level,) = [
                span.level
                for span in record.labels
                if span.start <= anchor < span.end
            ]
            assert matrix.labels[i] == level.binary
        assert c.elapsed < 5.0


def test_criterion_4_forest_stump_memorization_determinism(tmp_path):
    with _criterion(4, "Gini stump, <=200-row memorization, bit-stable") as c:
        # unique Gini-optimal stump: candidate decreases are 1/6, 1/2, 1/6
        X = np.array([[-2.0], [-1.0], [1.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_forest(X, y, ForestConfig(n_trees=1, bootstrap=False, seed=0))
        assert (model.feature[0], model.threshold[0]) == (0, 0.0)
        # in preorder the left child is node 1; the right child is right[0]
        assert model.feature[1] == -1 and model.value[1] == 0
        right = model.right[0]
        assert model.feature[right] == -1 and model.value[right] == 1
        labels, _ = model.predict_batch(X)
        assert labels.tolist() == y.tolist()

        # unlimited depth memorizes consistent labels (identical rows get
        # identical labels by construction) up to 200 rows
        for seed, n, d in [(11, 200, 6), (23, 57, 2), (37, 121, 8), (41, 3, 1)]:
            rng = np.random.default_rng(seed)
            Xr = rng.integers(0, 4, size=(n, d)).astype(np.float64)
            yr = (Xr.sum(axis=1) % 2).astype(np.int64)
            if len(set(yr.tolist())) < 2:
                yr[0] = 1 - yr[0]
                Xr[0] += 10.0  # keep the flipped row distinct
            forest = fit_forest(
                Xr, yr, ForestConfig(n_trees=7, bootstrap=False, seed=seed)
            )
            pred, _ = forest.predict_batch(Xr)
            assert pred.tolist() == yr.tolist(), f"seed {seed}"

        # fixed seed reproduces the serialized model bit for bit
        rng = np.random.default_rng(3)
        Xb = rng.random((120, 5))
        yb = (Xb[:, 0] + Xb[:, 3] > 1.0).astype(np.int64)
        cfg = ForestConfig(n_trees=12, max_depth=7, seed=29)
        first = fit_forest(Xb, yb, cfg)
        second = fit_forest(Xb, yb, cfg)
        assert first.to_lines() == second.to_lines()
        first.save(tmp_path / "rf.model")
        assert RFModel.load(tmp_path / "rf.model").to_lines() == first.to_lines()
        assert c.elapsed < 10.0


def test_criterion_5_fusion_beats_every_single_model(held_sessions):
    with _criterion(5, "10-fold fused F1 beats best single model by 0.05") as c:
        scripts = benchmark_suite(20, seed=11, noise=0.02)
        sessions = [simulate(s, f"s{i:02d}") for i, s in enumerate(scripts)]
        assert len(sessions) >= 20
        cfg = Config(
            rf_n_trees=30, rf_max_depth=8, rf_min_samples_leaf=5, seed=11
        )
        report = run_full_eval(held_sessions(sessions, cfg), cfg, folds=10)
        parts = {
            key: report.rows[key].f1
            for key in ("mutual", "confirmatory", "language")
        }
        fused = report.rows["fused"].f1
        margin = fused - max(parts.values())
        print(
            f"    fused F1 {fused:.3f} vs parts "
            + ", ".join(f"{k} {v:.3f}" for k, v in parts.items())
            + f" (margin {margin:+.3f})"
        )
        assert margin >= 0.05
        assert c.elapsed < 60.0


@pytest.fixture(scope="module")
def trained_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    config = root / "needsense.cfg"
    config.write_text(
        "rf_n_trees=20\nrf_max_depth=8\nrf_min_samples_leaf=3\nseed=17\n",
        encoding="utf-8",
    )
    scripts = root / "scripts"
    ds0 = root / "ds0"
    models = root / "models"
    assert main(
        ["gen-scripts", "--config", str(config), "--count", "5",
         "--out", str(scripts)]
    ) == 0
    assert main(
        ["simulate", "--config", str(config),
         *map(str, sorted(scripts.glob("*.script"))), "--out", str(ds0)]
    ) == 0
    assert main(
        ["train", "--config", str(config), str(ds0), "--out", str(models)]
    ) == 0
    return {"config": config, "ds0": ds0, "models": models}


def test_criterion_6_live_replay_equals_batch_prediction(
    trained_workspace, capsys, monkeypatch
):
    with _criterion(6, "live replay decisions identical to batch rows") as c:
        ws = trained_workspace
        rf = RFModel.load(ws["models"] / "rf.model")
        for session_path in sorted(ws["ds0"].glob("*.session")):
            capsys.readouterr()
            assert main(
                ["run", str(session_path), "--models", str(ws["models"])]
            ) == 0
            file_lines = capsys.readouterr().out.splitlines()

            # the live engine scores standard input a tick at a time and a
            # file in blocks
            monkeypatch.setattr(
                "sys.stdin",
                io.StringIO(session_path.read_text(encoding="utf-8")),
            )
            assert main(
                ["run", "--models", str(ws["models"])]
            ) == 0
            stdin_lines = capsys.readouterr().out.splitlines()

            back = load_session(ws["models"] / "ds1" / session_path.name)
            derived = (
                [m.originating_time for m in back.messages(NEED_STREAMS[0])],
                np.array(
                    [[m.payload for m in back.messages(n)] for n in NEED_STREAMS]
                ).T,
            )
            batch_lines = [
                f"t={fmt_time(d.t)} mutual={fmt_value(d.mutual)} "
                f"conf={fmt_value(d.confirmatory)} "
                f"lang={fmt_value(d.language)} fused={fmt_value(d.score)} "
                f"help={d.label}"
                for d in predict_session(derived, rf, 20)
            ]
            assert file_lines == batch_lines, session_path.name
            assert stdin_lines == file_lines, session_path.name
            assert stdin_lines == batch_lines, session_path.name
            assert len(file_lines) > 0
        assert c.elapsed < 30.0


def test_criterion_7_metrics_closed_form_on_all_small_matrices():
    with _criterion(7, "P/R/F1 closed form for all counts in 0..5") as c:
        for tp in range(6):
            for fp in range(6):
                for fn in range(6):
                    for tn in range(6):
                        total = tp + fp + fn + tn
                        pos = tp + fn
                        if total == 0:
                            record = SessionRecord(
                                "m0", 1.0, {}, spans((0.0, 1.0, "Flow"))
                            )
                        else:
                            label_spans = []
                            if pos:
                                label_spans.append((0.0, float(pos), "L3"))
                            if total - pos:
                                label_spans.append(
                                    (float(pos), float(total), "Flow")
                                )
                            record = SessionRecord(
                                "m0", float(total), {}, spans(*label_spans)
                            )
                        # one tick per second: the first `pos` are positive
                        ticks = [float(i) for i in range(total)]
                        preds = [1 if i < tp else 0 for i in range(pos)] + [
                            1 if j < fp else 0 for j in range(total - pos)
                        ]
                        m = metrics_from_counts(
                            *confusion_counts(
                                preds, binary_labels(record, ticks)
                            )
                        )
                        assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)

                        precision = 0.0 if tp + fp == 0 else tp / (tp + fp)
                        recall = 0.0 if tp + fn == 0 else tp / (tp + fn)
                        f1 = (
                            0.0
                            if precision + recall == 0
                            else 2 * precision * recall / (precision + recall)
                        )
                        assert m.precision == precision
                        assert m.recall == recall
                        assert m.f1 == f1
                        assert m.precision_undefined == (tp + fp == 0)
                        if precision + recall > 0:
                            exact = Fraction(2 * tp, 2 * tp + fp + fn)
                            assert abs(m.f1 - float(exact)) <= 1e-12
        assert c.elapsed < 10.0


def test_criterion_8_average_help_anchors_and_split_invariance():
    with _criterion(8, "average help: -1.0, 2/3 mix, split invariance") as c:
        all_flow = SessionRecord("h0", 60.0, {}, spans((0.0, 60.0, "Flow")))
        assert average_help(all_flow) == -1.0

        mixed = SessionRecord(
            "h1",
            60.0,
            {},
            spans((0.0, 30.0, "Flow"), (30.0, 40.0, "L1"), (40.0, 60.0, "L3")),
        )
        # (-30 + 10 + 60) / 60
        assert abs(average_help(mixed) - Fraction(2, 3)) <= 1e-9

        all_l2 = SessionRecord("h2", 5.0, {}, spans((0.0, 5.0, "L2")))
        assert average_help(all_l2) == 2.0

        levels = ["Flow", "L0", "L1", "L2", "L3"]
        rng = np.random.default_rng(8)
        for case in range(100):
            n_spans = int(rng.integers(1, 7))
            durations = [
                round(float(rng.uniform(0.5, 20.0)), 3) for _ in range(n_spans)
            ]
            triples = []
            start = 0.0
            for dur in durations:
                end = round(start + dur, 3)
                triples.append(
                    (start, end, levels[int(rng.integers(5))])
                )
                start = end
            base = SessionRecord(f"r{case}", start, {}, spans(*triples))

            refined = []
            for s, e, lv in triples:
                pieces = int(rng.integers(1, 4))
                cuts = sorted(
                    round(float(rng.uniform(s, e)), 3)
                    for _ in range(pieces - 1)
                )
                bounds = [s] + [x for x in cuts if s < x < e] + [e]
                refined += [
                    (a, b, lv) for a, b in zip(bounds, bounds[1:]) if a < b
                ]
            split = SessionRecord(f"r{case}s", start, {}, spans(*refined))
            assert abs(average_help(base) - average_help(split)) <= 1e-9
        assert c.elapsed < 10.0


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    with _criterion(9, "seeded rerun gives byte-identical artifacts") as c:
        def pipeline(workdir: Path) -> tuple[bytes, bytes]:
            workdir.mkdir()
            config = workdir / "needsense.cfg"
            config.write_text(
                "rf_n_trees=25\nrf_max_depth=8\nrf_min_samples_leaf=3\n"
                "seed=13\n",
                encoding="utf-8",
            )
            scripts = workdir / "scripts"
            ds0 = workdir / "ds0"
            models = workdir / "models"
            report = workdir / "report.txt"
            assert main(
                ["gen-scripts", "--config", str(config), "--count", "6",
                 "--out", str(scripts)]
            ) == 0
            assert main(
                ["simulate", "--config", str(config),
                 *map(str, sorted(scripts.glob("*.script"))),
                 "--out", str(ds0)]
            ) == 0
            assert main(
                ["train", "--config", str(config), str(ds0),
                 "--out", str(models)]
            ) == 0
            assert main(
                ["eval", "--config", str(config), str(ds0), "--folds", "3",
                 "--out", str(report)]
            ) == 0
            capsys.readouterr()
            return (
                (models / "manifest.txt").read_bytes(),
                report.read_bytes(),
            )

        manifest_a, report_a = pipeline(tmp_path / "runA")
        manifest_b, report_b = pipeline(tmp_path / "runB")
        assert manifest_a == manifest_b
        assert report_a == report_b
        assert b"manifest_version=1" in manifest_a
        assert b"model=fused" in report_a
        assert c.elapsed < 60.0
