"""Golden artifacts: byte-exact hashes of a reduced seeded pipeline.

The first four sessions of the canonical suite, `benchmark_suite(20,
seed=0)`, are simulated, trained and evaluated (4 folds) at the default
config except for a 10-tree forest.  Any change to simulation, stage 1,
the forest's fit or serialization, cross-validation, or the live decision
path moves one of these hashes; a change that does so on purpose says why
in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from needsense.cli import main
from needsense.simulate import benchmark_suite, save_script

GOLDEN_RF_MODEL = "3c8b7ac09d8e1f1fe929077626b14bb56c2ef090e996026554ac65d30c326f10"
GOLDEN_MANIFEST = "0297d3291145c4fecce0c55bdf73c5741315f6c9d03794125cbdd9d91adeb1cb"
GOLDEN_RUN_S02 = "cdfbf7ae0c58b936c6ca8905f4fc58b31c2c09d1b82cf5e806cf4c71cbe1c482"
GOLDEN_EVAL_4_FOLDS = "ef017d28fbbb9097f9f7396ad34ab94f50bf6a818c2a34fe16c4d9d696c72f68"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    scripts = root / "scripts"
    scripts.mkdir()
    for i, script in enumerate(benchmark_suite(20, seed=0)[:4]):
        save_script(script, scripts / f"s{i:02d}.script")
    ds0 = root / "ds0"
    models = root / "models"
    paths = sorted(str(p) for p in scripts.glob("*.script"))
    assert main(["simulate", *paths, "--out", str(ds0)]) == 0
    config = root / "golden.cfg"
    config.write_text("rf_n_trees=10\n", encoding="utf-8")
    assert main(
        ["train", "--config", str(config), str(ds0), "--out", str(models)]
    ) == 0
    return {"config": config, "ds0": ds0, "models": models}


def test_rf_model_hash(golden):
    assert _sha256((golden["models"] / "rf.model").read_bytes()) == GOLDEN_RF_MODEL


def test_manifest_hash_covers_every_artifact(golden):
    # the manifest lists the sha256 of nb.model, each ds1 session and rf.model
    manifest = golden["models"] / "manifest.txt"
    assert _sha256(manifest.read_bytes()) == GOLDEN_MANIFEST


def test_run_decision_lines_hash(golden, capsys):
    capsys.readouterr()
    code = main(
        ["run", "--config", str(golden["config"]),
         str(golden["ds0"] / "s02.session"), "--models", str(golden["models"])]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") > 100
    assert _sha256(out.encode("utf-8")) == GOLDEN_RUN_S02


def test_eval_report_hash(golden, capsys):
    capsys.readouterr()
    code = main(
        ["eval", "--config", str(golden["config"]), str(golden["ds0"]),
         "--folds", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("Model ")
    assert _sha256(out.encode("utf-8")) == GOLDEN_EVAL_4_FOLDS
