"""Forest fit micro-benchmark at the default config.

Fits the default 100-tree forest on the canonical suite's stage-2 matrix
(`benchmark_suite(20, seed=0)`: 7,339 rows x 60), as `needsense train`
does, at seed 0 and at seed 7 (`needsense train --seed 7`).  `testpaths`
does not collect this directory, so run it directly:

    PYTHONPATH=src python -m pytest benchmarks/test_forest_fit.py

Each round takes a few seconds; pass `--benchmark-disable` to run the
fit once as a plain test.  `extra_info` holds each fit's minor page faults
(`fit_minflt`) and CPU seconds (`fit_cpu_s`), averaged over its rounds, and
the lockstep steps it took (`fit_steps`), the `_best_splits` calls it made
(`fit_searches`) and the nodes they searched (`fit_nodes_searched`) per
fit.  One more fit at the default config is untimed: it reads the fit's
tracemalloc peak.
"""

from __future__ import annotations

import hashlib
import resource
import tracemalloc

import numpy as np
import pytest

from needsense.config import Config
from needsense import forest
from needsense.forest import ForestConfig, fit_forest
from needsense.fusion import derived_session, export_fusion_matrix, held_session
from needsense.language import train_from_utterances
from needsense.sessions import (
    binary_labels,
    export_language_corpus,
    load as load_session,
)
from needsense.simulate import benchmark_suite, simulate

DEFAULT_FIT_NODES = 54_974
# sha256 of the default fit's model file, "\n".join(to_lines()) + "\n"
DEFAULT_FIT_SHA256 = "d4e22da88dd6da98befcffe93307b39d52cc46d48b291d674d449f84dad63a05"
# the same at seed 7, as `needsense train --seed 7` fits
SEED_7_FIT_NODES = 55_368
SEED_7_FIT_SHA256 = "002f183a9e67369264b9f1a1881798c33f496ad2df5fea7791d355566b944eaa"
# lockstep steps, `_best_splits` calls and nodes those calls search, of the
# default fit at seed 0: any change to the draw order or to the widening
# moves them
DEFAULT_FIT_STEPS = 372
DEFAULT_FIT_SEARCHES = 719
DEFAULT_FIT_NODES_SEARCHED = 36_474
# bound on the tracemalloc peak of the default fit at seed 0, X held by the
# caller: 8 MiB
DEFAULT_FIT_PEAK_BYTES = 8 << 20


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
    held = [
        held_session(r, r.messages("gaze_raw"), cfg.gaze_config(), cfg.cadence_hz)
        for r in records
    ]
    ds1 = [derived_session(h, nb) for h in held]
    matrix = export_fusion_matrix(held, [frames for _, frames in ds1], cfg.window_w)
    # the export's own order, the canonical one: sessions by id, each
    # labeled at its ticks from the window's last frame on, short of the end
    by_id = sorted(zip(records, ds1), key=lambda p: p[0].session_id)
    labels = [
        binary_labels(r, [t for t in ticks[cfg.window_w - 1:] if t < r.duration])
        for r, (ticks, _) in by_id
    ]
    assert np.array_equal(matrix.labels, np.concatenate(labels))
    return matrix.features, matrix.labels


def measured_fit(benchmark, X, y, config, rounds, monkeypatch):
    """The model of `benchmark.pedantic` over `fit_forest`, with the fit's
    minor page faults and CPU seconds per call in `extra_info`, so that
    allocation churn shows beside the time, and its lockstep steps,
    `_best_splits` calls and nodes searched per call."""
    usage = dict.fromkeys(("calls", "minflt", "cpu_s", "steps", "searches", "nodes"), 0)
    draws, search = forest._FeatureDraws, forest._best_splits

    class StepCounted(draws):
        # a step samples the features of its nodes once
        def sample(self, trees):
            usage["steps"] += 1
            return super().sample(trees)

    def counted(*args):
        # the features to search: one row per node
        usage["searches"] += 1
        usage["nodes"] += len(args[-3])
        return search(*args)

    monkeypatch.setattr(forest, "_FeatureDraws", StepCounted)
    monkeypatch.setattr(forest, "_best_splits", counted)

    def fit():
        before = resource.getrusage(resource.RUSAGE_SELF)
        model = fit_forest(X, y, config)
        after = resource.getrusage(resource.RUSAGE_SELF)
        usage["calls"] += 1
        usage["minflt"] += after.ru_minflt - before.ru_minflt
        usage["cpu_s"] += (after.ru_utime - before.ru_utime) + (
            after.ru_stime - before.ru_stime
        )
        return model

    model = benchmark.pedantic(fit, rounds=rounds, iterations=1)
    benchmark.extra_info["fit_minflt"] = usage["minflt"] / usage["calls"]
    benchmark.extra_info["fit_cpu_s"] = usage["cpu_s"] / usage["calls"]
    benchmark.extra_info["fit_steps"] = usage["steps"] / usage["calls"]
    benchmark.extra_info["fit_searches"] = usage["searches"] / usage["calls"]
    benchmark.extra_info["fit_nodes_searched"] = usage["nodes"] / usage["calls"]
    return model


def model_sha256(model) -> str:
    text = "\n".join(model.to_lines()) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_fit_default_forest(benchmark, suite_matrix, monkeypatch):
    X, y = suite_matrix
    assert X.shape == (7339, 60)
    model = measured_fit(
        benchmark, X, y, Config().forest_config(), rounds=3, monkeypatch=monkeypatch
    )
    assert len(model.feature) == DEFAULT_FIT_NODES
    assert model_sha256(model) == DEFAULT_FIT_SHA256
    assert benchmark.extra_info["fit_steps"] == DEFAULT_FIT_STEPS
    assert benchmark.extra_info["fit_searches"] == DEFAULT_FIT_SEARCHES
    assert benchmark.extra_info["fit_nodes_searched"] == DEFAULT_FIT_NODES_SEARCHED


def test_fit_default_forest_seed_7(benchmark, suite_matrix, monkeypatch):
    X, y = suite_matrix
    model = measured_fit(
        benchmark, X, y, Config(seed=7).forest_config(), rounds=1,
        monkeypatch=monkeypatch,
    )
    assert len(model.feature) == SEED_7_FIT_NODES
    assert model_sha256(model) == SEED_7_FIT_SHA256


def test_fit_default_forest_peak(suite_matrix):
    X, y = suite_matrix
    # a small fit first, so that what numpy imports or caches on first use
    # is not counted
    fit_forest(X[:200], y[:200], ForestConfig(n_trees=2))
    tracemalloc.start()
    try:
        fit_forest(X, y, Config().forest_config())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= DEFAULT_FIT_PEAK_BYTES, f"{peak / 2**20:.2f} MiB"
