"""Per-layer benchmarks at the default config.

Each case times one layer of `needsense simulate`, `needsense train` or
`needsense run` on the canonical suite (`benchmark_suite(20, seed=0)`: 20
sessions, 23,138 gaze frames, 7,339 training rows x 60): simulating the
20 scripts, loading the 20 session files, reading them as `train` and
`eval` do (the reader and the gaze models), the gaze tracker over every
gaze frame, training the text model on the suite's utterances and its
posterior for each of them, stage-1 materialize, writing the 20 derived
sessions, the fusion-matrix export, batch prediction over every training row,
loading the saved forest, and the decisions of one session, both through
`run`'s reader and live engine and through the batch reference (stage 1
plus batch prediction).  `testpaths` does not collect this directory, so run it
directly:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py

The module fixture fits the default 100-tree forest once (several
seconds) before the timed cases start.
"""

from __future__ import annotations

import hashlib
import io
import tracemalloc

import pytest

from needsense.cli import _decision_line, _read_sessions, _run
from needsense.config import Config
from needsense.forest import RFModel
from needsense.fusion import (
    derived_session,
    export_fusion_matrix,
    held_session,
    predict_session,
    stage1_materialize,
    train_rf,
)
from needsense.gaze import GazeNeedTracker
from needsense.language import train_from_utterances
from needsense.sessions import (
    export_language_corpus,
    load as load_session,
    save_derived,
)
from needsense.simulate import benchmark_suite, simulate
from needsense.streams import read_lines, tick_times
from test_end_to_end import DEFAULT_DS1

SUITE_ROWS = 7_339
SUITE_GAZE_FRAMES = 23_138
# sha256 of the repr of the list of every (mutual, confirmatory) the
# tracker gives over the suite's gaze frames, session by session
SUITE_GAZE_NEEDS = "54b5956415e5362b4a6357df31c35d266d855f8cb595e94563b7b32447decb74"
SUITE_UTTERANCES = 165
SUITE_TICKS = 7_719
# sha256 of the repr of, per session `_read_sessions` keeps: id, duration,
# label spans, utterances, the binary labels of the ticks before the
# duration, and the mutual and confirmatory holds
SUITE_HELD_SESSIONS = "54ed2a4e087ac745e5e26b59734fda5cd910804c2a339eaa6f3cc0cd9f77e247"
# sha256 of the repr of the list of the default text model's posterior for
# each of the suite's utterances, session by session
SUITE_NB_POSTERIORS = "c687dffa4f8de785204f4399acc9c9bf0a776c409662639d7779c8cf978771bf"
# sha256 of the 20 suite sessions' bytes, one after another
SUITE_SESSIONS = "3dcd00f5737f8a943464c2ec9fec18fc6cce38325b01a4d802d7aa9381b14696"
# sha256 of the default forest's rf.model, as in test_forest_fit.py
DEFAULT_RF_MODEL = "d4e22da88dd6da98befcffe93307b39d52cc46d48b291d674d449f84dad63a05"
# tracemalloc peak of loading the default rf.model over the file's size,
# measured at 2.84x (numpy 2.4): the file's bytes, a 19-byte slot per line
# and a block's temporaries, then the node arrays
DEFAULT_LOAD_PEAK_MULTIPLE = 3.0


@pytest.fixture(scope="module")
def session_paths(tmp_path_factory):
    """The suite's 20 session files, as `needsense simulate` writes them."""
    cfg = Config()
    ds0 = tmp_path_factory.mktemp("ds0")
    paths = []
    for i, script in enumerate(benchmark_suite(20, seed=0)):
        path = ds0 / f"s{i:02d}.session"
        simulate(script, path.stem, thresholds=cfg.thresholds()).save(path)
        paths.append(path)
    return paths


def held_sessions(cfg, records):
    """Stage 1's gaze half of each raw session, with its tick labels."""
    return [
        held_session(r, r.messages("gaze_raw"), cfg.gaze_config(), cfg.cadence_hz)
        for r in records
    ]


@pytest.fixture(scope="module")
def suite(session_paths):
    """Raw sessions, the text model, their stage-1 (ticks, frames) and
    the default forest, as `needsense train` makes them."""
    cfg = Config()
    records = [load_session(path) for path in session_paths]
    nb = train_from_utterances(
        export_language_corpus(records),
        alpha=cfg.nb_alpha,
        use_aggregates=cfg.nb_use_aggregates,
    )
    held = held_sessions(cfg, records)
    ds1 = [derived_session(h, nb) for h in held]
    matrix = export_fusion_matrix(held, [frames for _, frames in ds1], cfg.window_w)
    rf = train_rf(matrix, cfg.forest_config())
    return cfg, records, nb, ds1, matrix, rf


def test_simulate_suite_scripts(benchmark, session_paths):
    thresholds = Config().thresholds()
    scripts = benchmark_suite(20, seed=0)
    records = benchmark.pedantic(
        lambda: [
            simulate(script, f"s{i:02d}", thresholds=thresholds)
            for i, script in enumerate(scripts)
        ],
        rounds=5,
        iterations=1,
    )
    data = [("\n".join(r.to_lines()) + "\n").encode("utf-8") for r in records]
    assert hashlib.sha256(b"".join(data)).hexdigest() == SUITE_SESSIONS
    assert data == [path.read_bytes() for path in session_paths]


def test_parse_suite_sessions(benchmark, session_paths):
    records = benchmark.pedantic(
        lambda: [load_session(path) for path in session_paths],
        rounds=5,
        iterations=1,
    )
    for path, record in zip(session_paths, records, strict=True):
        data = ("\n".join(record.to_lines()) + "\n").encode("utf-8")
        assert data == path.read_bytes(), path.name


def test_read_sessions_suite(benchmark, session_paths):
    """`train` and `eval`'s read of the suite: each file's lines through the
    reader, and the gaze frames through the gaze models on a pipeline as
    they are read, keeping each session's holds."""
    directory = str(session_paths[0].parent)
    sessions = benchmark.pedantic(
        _read_sessions, args=(directory, Config()), rounds=5, iterations=1
    )
    parts = [
        (
            held.record.session_id,
            held.record.duration,
            [(s.start, s.end, s.level.value) for s in held.record.labels],
            [
                (m.originating_time, m.payload)
                for m in held.record.messages("utterance")
            ],
            held.labels.tolist(),
            held.gaze[0].tolist(),
            held.gaze[1].tolist(),
        )
        for held in sessions
    ]
    assert sum(len(held.gaze[0]) for held in sessions) == SUITE_TICKS
    digest = hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
    assert digest == SUITE_HELD_SESSIONS


def test_gaze_tracker_suite_frames(benchmark, session_paths):
    """`GazeNeedTracker.update` over every gaze frame of the suite, a new
    tracker per session, as stage 1 and the live shell call it."""
    config = Config().gaze_config()
    sessions = [
        [(m.originating_time, m.payload) for m in load_session(p).messages("gaze_raw")]
        for p in session_paths
    ]

    def track():
        needs = []
        for frames in sessions:
            update = GazeNeedTracker(config).update
            needs.extend([update(t, obs) for t, obs in frames])
        return needs

    needs = benchmark.pedantic(track, rounds=5, iterations=1)
    assert len(needs) == SUITE_GAZE_FRAMES
    digest = hashlib.sha256(repr(needs).encode("utf-8")).hexdigest()
    assert digest == SUITE_GAZE_NEEDS


def test_nb_train_suite_utterances(benchmark, suite):
    """The text model `needsense train` fits first, from the suite's
    labeled utterances."""
    cfg, records, nb, *_ = suite
    corpus = export_language_corpus(records)
    model = benchmark.pedantic(
        train_from_utterances,
        args=(corpus,),
        kwargs={"alpha": cfg.nb_alpha, "use_aggregates": cfg.nb_use_aggregates},
        rounds=5,
        iterations=1,
    )
    assert len(corpus) == SUITE_UTTERANCES
    assert model.to_lines() == nb.to_lines()


def test_nb_predict_suite_utterances(benchmark, suite):
    """`NBModel.predict_text` over every utterance of the suite, as stage 1
    and the live shell call it."""
    _, records, nb, *_ = suite
    texts = [m.payload for r in records for m in r.messages("utterance")]
    posteriors = benchmark.pedantic(
        lambda: [nb.predict_text(text) for text in texts], rounds=5, iterations=1
    )
    assert len(posteriors) == SUITE_UTTERANCES
    digest = hashlib.sha256(repr(posteriors).encode("utf-8")).hexdigest()
    assert digest == SUITE_NB_POSTERIORS


def test_stage1_materialize_20_sessions(benchmark, suite):
    cfg, records, nb, ds1, _, _ = suite

    def materialize():
        return [
            stage1_materialize(r, nb, cfg.gaze_config(), cfg.cadence_hz)
            for r in records
        ]

    out = benchmark.pedantic(materialize, rounds=5, iterations=1)
    assert [ticks for ticks, _ in out] == [ticks for ticks, _ in ds1]
    assert [f.tobytes() for _, f in out] == [f.tobytes() for _, f in ds1]


def test_write_derived_sessions(benchmark, suite, tmp_path):
    """The 20 derived sessions a default `train` writes under ds1/."""
    _, records, _, ds1, _, _ = suite

    def write():
        for record, (ticks, frames) in zip(records, ds1, strict=True):
            save_derived(tmp_path / f"{record.session_id}.session", record, ticks, frames)

    benchmark.pedantic(write, rounds=5, iterations=1)
    written = {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.session"))
    }
    assert written == DEFAULT_DS1


def test_export_fusion_matrix(benchmark, suite):
    cfg, records, _, ds1, _, _ = suite
    matrix = benchmark.pedantic(
        export_fusion_matrix,
        args=(held_sessions(cfg, records), [f for _, f in ds1], cfg.window_w),
        rounds=5,
        iterations=1,
    )
    assert matrix.features.shape == (SUITE_ROWS, 3 * cfg.window_w)


def test_batch_predict_suite_rows(benchmark, suite):
    _, _, _, _, matrix, rf = suite
    labels, _ = benchmark.pedantic(
        rf.predict_batch, args=(matrix.features,), rounds=5, iterations=1
    )
    assert len(labels) == SUITE_ROWS


def test_load_default_forest(benchmark, suite, tmp_path):
    *_, rf = suite
    path = tmp_path / "rf.model"
    rf.save(path)
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == DEFAULT_RF_MODEL
    model = benchmark.pedantic(RFModel.load, args=(path,), rounds=10, iterations=1)
    assert ("\n".join(model.to_lines()) + "\n").encode("utf-8") == data
    tracemalloc.start()
    try:
        RFModel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= DEFAULT_LOAD_PEAK_MULTIPLE * len(data)


def run_lines(cfg, nb, rf, lines) -> list[str]:
    """The decision lines `run <file>` writes for a session's lines."""
    out = io.StringIO()
    assert _run(cfg, nb, rf, lines, out, whole=True) == 0
    return out.getvalue().splitlines()


def test_run_one_session(benchmark, suite, session_paths):
    """`run` of one session file once the models are loaded: its lines
    through the reader and the live engine."""
    cfg, records, nb, ds1, _, rf = suite
    lines = read_lines(session_paths[0], list)
    decided = benchmark.pedantic(
        run_lines, args=(cfg, nb, rf, lines), rounds=5, iterations=1
    )
    ticks = tick_times(records[0].duration, cfg.cadence_hz)
    assert len(decided) == len(ticks) - cfg.window_w + 1
    assert decided == [
        _decision_line(d) for d in predict_session(ds1[0], rf, cfg.window_w)
    ]


def test_file_decisions_one_session(benchmark, suite, session_paths):
    """Stage 1 and batch prediction over a whole session
    (`predict_session`, the reference `run` is checked against), deciding
    as `run` does."""
    cfg, records, nb, _, _, rf = suite
    record = records[0]

    def decide():
        derived = stage1_materialize(
            record, nb, cfg.gaze_config(), cfg.cadence_hz
        )
        return predict_session(derived, rf, cfg.window_w)

    decisions = benchmark.pedantic(decide, rounds=5, iterations=1)
    assert [_decision_line(d) for d in decisions] == run_lines(
        cfg, nb, rf, read_lines(session_paths[0], list)
    )
