"""End-to-end timings of `needsense train`, `needsense eval` and
`needsense run` at the default config.

The commands run in-process on the canonical suite
(`benchmark_suite(20, seed=0)`, simulated once by the module fixture),
and each checks its output against a golden sha256: the default 100-tree
`rf.model`, the 10-fold report `eval` prints, and the decision lines
`run` prints for session s00 with the models of a default `train`, both
from the file and from standard input.
`testpaths` does not collect this directory, so run it directly:

    PYTHONPATH=src python -m pytest benchmarks/test_end_to_end.py

`train` takes several seconds and `eval` well over half a minute.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from needsense.cli import main
from needsense.simulate import benchmark_suite, save_script

DEFAULT_RF_MODEL = "d4e22da88dd6da98befcffe93307b39d52cc46d48b291d674d449f84dad63a05"
DEFAULT_EVAL_10_FOLDS = (
    "65b301e72341fc292f4657cd82fb2c7abd40a5ee9264da61cb3964acc2a4e079"
)
DEFAULT_RUN_S00 = "8f377cc14e9ce921d5d200c806ea729f9f71b98653ae6e69aa87cab572ec2294"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def ds0(tmp_path_factory):
    """The suite's recorded sessions, as `needsense simulate` writes them."""
    root = tmp_path_factory.mktemp("suite")
    scripts = root / "scripts"
    scripts.mkdir()
    for i, script in enumerate(benchmark_suite(20, seed=0)):
        save_script(script, scripts / f"s{i:02d}.script")
    paths = sorted(str(p) for p in scripts.glob("*.script"))
    assert main(["simulate", *paths, "--out", str(root / "ds0")]) == 0
    return root / "ds0"


@pytest.fixture(scope="module")
def models(ds0, tmp_path_factory):
    """The models of a default `needsense train` of the suite."""
    out = tmp_path_factory.mktemp("models")
    assert main(["train", str(ds0), "--out", str(out)]) == 0
    return out


def test_train_default(benchmark, ds0, tmp_path):
    models = tmp_path / "models"
    code = benchmark.pedantic(
        main, args=(["train", str(ds0), "--out", str(models)],), rounds=1, iterations=1
    )
    assert code == 0
    assert _sha256((models / "rf.model").read_bytes()) == DEFAULT_RF_MODEL


def test_eval_default_10_folds(benchmark, ds0, capsys):
    capsys.readouterr()
    code = benchmark.pedantic(
        main, args=(["eval", str(ds0), "--folds", "10"],), rounds=1, iterations=1
    )
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == DEFAULT_EVAL_10_FOLDS


def test_run_default_s00(benchmark, ds0, models, capsys):
    capsys.readouterr()
    args = ["run", str(ds0 / "s00.session"), "--models", str(models)]
    code = benchmark.pedantic(main, args=(args,), rounds=1, iterations=1)
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == DEFAULT_RUN_S00


def test_run_default_s00_stdin(benchmark, ds0, models, capsys, monkeypatch):
    """The live shell on standard input prints the same bytes as `run`
    on the file."""
    text = (ds0 / "s00.session").read_text(encoding="utf-8")
    capsys.readouterr()

    def run_stdin():
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        return main(["run", "--models", str(models)])

    code = benchmark.pedantic(run_stdin, rounds=1, iterations=1)
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == DEFAULT_RUN_S00
