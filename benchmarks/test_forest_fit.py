"""Forest fit micro-benchmark at the default config.

Fits the default 100-tree forest on the canonical suite's stage-2 matrix
(`benchmark_suite(20, seed=0)`: 7,339 rows x 60), as `needsense train`
does.  `testpaths` does not collect this directory, so run it directly:

    PYTHONPATH=src python -m pytest benchmarks/test_forest_fit.py

Each round takes several seconds; pass `--benchmark-disable` to run the
fit once as a plain test.
"""

from __future__ import annotations

import hashlib

import pytest

from needsense.config import Config
from needsense.forest import fit_forest
from needsense.fusion import stage1_materialize
from needsense.language import train_from_utterances
from needsense.sessions import (
    export_fusion_matrix,
    export_language_corpus,
    load as load_session,
)
from needsense.simulate import benchmark_suite, simulate

DEFAULT_FIT_NODES = 54_974
# sha256 of the default fit's model file, "\n".join(to_lines()) + "\n"
DEFAULT_FIT_SHA256 = "d4e22da88dd6da98befcffe93307b39d52cc46d48b291d674d449f84dad63a05"


@pytest.fixture(scope="module")
def suite_matrix(tmp_path_factory):
    """The (X, y) that `needsense train` fits, rows in canonical order."""
    cfg = Config()
    ds0 = tmp_path_factory.mktemp("ds0")
    records = []
    for i, script in enumerate(benchmark_suite(20, seed=0)):
        path = ds0 / f"s{i:02d}.session"
        simulate(script, path.stem, thresholds=cfg.thresholds()).save(path)
        records.append(load_session(path))
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
    order = sorted(range(matrix.n_rows), key=lambda i: matrix.anchors[i])
    return matrix.features[order], matrix.labels[order]


def test_fit_default_forest(benchmark, suite_matrix):
    X, y = suite_matrix
    assert X.shape == (7339, 60)
    model = benchmark.pedantic(
        fit_forest, args=(X, y, Config().forest_config()), rounds=3, iterations=1
    )
    assert len(model.feature) == DEFAULT_FIT_NODES
    text = "\n".join(model.to_lines()) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DEFAULT_FIT_SHA256
