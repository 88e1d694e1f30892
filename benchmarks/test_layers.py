"""Per-layer benchmarks at the default config.

Each case times one layer of `needsense train` or `needsense run` on the
canonical suite (`benchmark_suite(20, seed=0)`: 20 sessions, 7,339
training rows x 60): loading the 20 session files, stage-1 materialize,
the fusion-matrix export, batch prediction over every training row,
loading the saved forest, and the decisions of one session, both through
the live shell and as `run` scores a file (stage 1 plus one batch
prediction).  `testpaths` does not collect this directory, so run it
directly:

    PYTHONPATH=src python -m pytest benchmarks/test_layers.py

The module fixture fits the default 100-tree forest once (several
seconds) before the timed cases start.
"""

from __future__ import annotations

import hashlib

import pytest

from needsense.config import Config
from needsense.forest import RFModel
from needsense.fusion import (
    live_decisions,
    predict_session,
    stage1_materialize,
    train_rf,
)
from needsense.language import train_from_utterances
from needsense.sessions import (
    export_fusion_matrix,
    export_language_corpus,
    load as load_session,
)
from needsense.simulate import benchmark_suite, simulate
from needsense.streams import tick_times

SUITE_ROWS = 7_339
# sha256 of the default forest's rf.model, as in test_forest_fit.py
DEFAULT_RF_MODEL = "d4e22da88dd6da98befcffe93307b39d52cc46d48b291d674d449f84dad63a05"


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
    ds1 = [
        stage1_materialize(r, nb, cfg.gaze_config(), cfg.cadence_hz)
        for r in records
    ]
    matrix = export_fusion_matrix(records, ds1, cfg.window_w)
    rf = train_rf(matrix, cfg.forest_config())
    return cfg, records, nb, ds1, matrix, rf


def test_parse_suite_sessions(benchmark, session_paths):
    records = benchmark.pedantic(
        lambda: [load_session(path) for path in session_paths],
        rounds=5,
        iterations=1,
    )
    for path, record in zip(session_paths, records, strict=True):
        data = ("\n".join(record.to_lines()) + "\n").encode("utf-8")
        assert data == path.read_bytes(), path.name


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


def test_export_fusion_matrix(benchmark, suite):
    cfg, records, _, ds1, _, _ = suite
    matrix = benchmark.pedantic(
        export_fusion_matrix,
        args=(records, ds1, cfg.window_w),
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


def test_live_decisions_one_session(benchmark, suite):
    cfg, records, nb, _, _, rf = suite
    record = records[0]
    decisions = benchmark.pedantic(
        live_decisions,
        args=(record, nb, rf, cfg.gaze_config(), cfg.cadence_hz, cfg.window_w),
        rounds=5,
        iterations=1,
    )
    ticks = tick_times(record.duration, cfg.cadence_hz)
    assert [d.t for d in decisions] == ticks[cfg.window_w - 1:]


def test_file_decisions_one_session(benchmark, suite):
    """`run <file>`: stage 1 and one batch prediction over the whole
    session, deciding as the live shell does."""
    cfg, records, nb, _, _, rf = suite
    record = records[0]

    def decide():
        derived = stage1_materialize(
            record, nb, cfg.gaze_config(), cfg.cadence_hz
        )
        return predict_session(derived, rf, cfg.window_w)

    decisions = benchmark.pedantic(decide, rounds=5, iterations=1)
    assert decisions == live_decisions(
        record, nb, rf, cfg.gaze_config(), cfg.cadence_hz, cfg.window_w
    )
