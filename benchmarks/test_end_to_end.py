"""End-to-end timings of `needsense train`, `needsense eval` and
`needsense run` at the default config.

The commands run in-process on the canonical suite
(`benchmark_suite(20, seed=0)`, simulated once by the module fixture),
and each checks its output against a golden sha256: the default 100-tree
`rf.model`, the 20 derived sessions and the manifest a default `train`
writes, the 10-fold report `eval` prints at the default config and with
one tree (`rf_n_trees=1`, which leaves little but the non-fit cost), and
the decision lines `run` prints for session s00 with the models of a
default `train`, both from the file and from standard input, and for s00
played 10 times in a row, from a file and on standard input.  One more default `train`,
and the default `eval`, run as processes of their own, so that their peak
RSS can be read apart from this one's: pytest-benchmark's JSON reports
them as `train_maxrss_mb` and `eval_maxrss_mb`, with their minor page
faults as `train_minflt` and `eval_minflt`.  `run` set-up, on a header with
nothing to decide, runs as processes of their own too, so that their
start-up shows: child wall and CPU seconds as `setup_wall_s` and
`setup_cpu_s`.
`testpaths` does not collect this directory, so run it directly:

    PYTHONPATH=src python -m pytest benchmarks/test_end_to_end.py

`train` takes several seconds, the default `eval` well over half a minute
and each of the five one-tree `eval` rounds a few seconds.
"""

from __future__ import annotations

import hashlib
import io
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import needsense
from needsense.cli import main
from needsense.sessions import LabelSpan, SessionRecord, load as load_session
from needsense.simulate import benchmark_suite, save_script
from needsense.streams import TimestampedMessage

DEFAULT_RF_MODEL = "d4e22da88dd6da98befcffe93307b39d52cc46d48b291d674d449f84dad63a05"
DEFAULT_EVAL_10_FOLDS = (
    "65b301e72341fc292f4657cd82fb2c7abd40a5ee9264da61cb3964acc2a4e079"
)
DEFAULT_RUN_S00 = "8f377cc14e9ce921d5d200c806ea729f9f71b98653ae6e69aa87cab572ec2294"
# s00 played 10 times in a row: 3,938 decisions
DEFAULT_RUN_S00_10X = (
    "af8e3d74421124f4df1775d2a921cb765cf63c790c739810869560fb5eb02ed7"
)
DEFAULT_MANIFEST = (
    "95ebfb224f3e35ee731e1ca434f8f1e0ebb508acfce290334cc22f815a7e7dfe"
)
DEFAULT_DS1 = {
    "s00": "f556773e0ad586518399fc07dcdc341f905d6d3d8be7ff73eb83fd63ba678985",
    "s01": "00c91de1e39dbf825b75103d2e6c28995e4d81cb4161fe80b9ca8cb4d0f3038b",
    "s02": "192572ad3e469838b10ccfce6e72e6f8c5a4fca9d8175732322b583f961782b2",
    "s03": "da8be7251e23e801d9033dbcbc6655ddef2a0bdc5873952c4dc32a9f4dc6fbd1",
    "s04": "8979146845331982390f5ff325a34061d81668b877198cdd3517a35d7283cf4f",
    "s05": "651888f248f7311adacd8c2c62aee1e45e7e55f7d075dc18b85ed4341599f42a",
    "s06": "51ae519b71771adc2db78b41864254484e9e4af3fd23958110c61a99ff38519d",
    "s07": "2d4c8bc949cda7dc430783c22ac4b8bcd8807643615ca256b2180e6bfae9585e",
    "s08": "bea6c5ce136d9f1012931f44742ea9ee286b2de56e5821d352f191aae1fc9427",
    "s09": "1c0f0679c37bbca5774dbad308d126cff82e7f6a7021a0ff657c31c26b4f34f5",
    "s10": "15f06c9401ce95ba2c497f75414b18a8cfc67b9abfd8a0c35e18ec4a2c7b811b",
    "s11": "d13c8863b9387c440b9aac3a2e70f162b37cd105a2f751b7d082a9230d97eb77",
    "s12": "274fd4707f61a25f52a00dd89e935e2cc5b9d6ad30f15bdd10607da7ed7259f7",
    "s13": "802922dd003ef09ad11ec7cbfa24bdc338c686dfaf375a618c3d8db5647eeb23",
    "s14": "223ad39094198bd490297d5cfb557bac8c77e565330c24191f8915924411938f",
    "s15": "5a45df13c6346c7e3af173b862ca6e9bf1f0b2a4c70f6fe903cd453901903d90",
    "s16": "552da61bf11766d9f3cf60cfe344160f49d6bd73e58caa9e0ed6b6b06f8d3843",
    "s17": "2f99e0dadcdbb6d6bb2b07ac82597a93f956c9475936ffe843d806d7cbd9c6e2",
    "s18": "faac1c62b50b99de06df69c8a47598b2e5f0351fcd08a2d74c1af22536e338e7",
    "s19": "3bd3274e481853b11d386d6a3de6aeffef22939f48b86b3d827b4e4bfb76691e",
}
ONE_TREE_EVAL_10_FOLDS = (
    "6f7cc241c0a878f95691656240adbd0a3cc0c8da50c963c408f24e9a35cdcf25"
)


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


# Runs `python <its arguments>` in a child and prints, from os.wait4, the
# child's ru_maxrss (KiB), ru_minflt (minor page faults) and CPU seconds
# (ru_utime + ru_stime), then its wall seconds from spawn to reaping.  It
# runs in a fresh interpreter that imports only os, sys and time, so the
# child's reading holds the few MB this launcher has at the spawn, never the
# RSS of the process that runs the tests.
CHILD_LAUNCHER = """\
import os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(usage.ru_maxrss, usage.ru_minflt, usage.ru_utime + usage.ru_stime, wall)
sys.exit(os.waitstatus_to_exitcode(status))
"""

# the variables OpenBLAS reads its thread count from: importing needsense
# sets one in this process, and a child started from a shell sets none
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def test_train_default_peak_rss(benchmark, ds0, tmp_path):
    """A default `train` in a process of its own: its artifacts, its own
    peak RSS in `extra_info["train_maxrss_mb"]` and its minor page faults in
    `extra_info["train_minflt"]`."""
    models = tmp_path / "models"
    src = Path(needsense.__file__).resolve().parents[1]
    command = [
        sys.executable, "-c", CHILD_LAUNCHER,
        "-m", "needsense", "train", str(ds0), "--out", str(models),
    ]

    def train():
        return subprocess.run(
            command, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )

    proc = benchmark.pedantic(train, rounds=1, iterations=1)
    maxrss_kib, minflt = map(int, proc.stdout.split()[-4:-2])
    benchmark.extra_info["train_maxrss_mb"] = maxrss_kib / 1024
    benchmark.extra_info["train_minflt"] = minflt
    assert _sha256((models / "rf.model").read_bytes()) == DEFAULT_RF_MODEL
    assert _sha256((models / "manifest.txt").read_bytes()) == DEFAULT_MANIFEST


def test_train_default_derived_sessions_and_manifest(models):
    ds1 = {
        path.stem: _sha256(path.read_bytes())
        for path in sorted((models / "ds1").glob("*.session"))
    }
    assert ds1 == DEFAULT_DS1
    assert _sha256((models / "manifest.txt").read_bytes()) == DEFAULT_MANIFEST


def test_eval_default_10_folds(benchmark, ds0):
    """A default 10-fold `eval` in a process of its own: its report, its own
    peak RSS in `extra_info["eval_maxrss_mb"]` and its minor page faults in
    `extra_info["eval_minflt"]`."""
    src = Path(needsense.__file__).resolve().parents[1]
    command = [
        sys.executable, "-c", CHILD_LAUNCHER,
        "-m", "needsense", "eval", str(ds0), "--folds", "10",
    ]

    def run_eval():
        return subprocess.run(
            command, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )

    proc = benchmark.pedantic(run_eval, rounds=1, iterations=1)
    # the report, then the launcher's line once the child has exited
    report, usage = proc.stdout.rstrip("\n").rsplit("\n", 1)
    maxrss_kib, minflt = map(int, usage.split()[:2])
    benchmark.extra_info["eval_maxrss_mb"] = maxrss_kib / 1024
    benchmark.extra_info["eval_minflt"] = minflt
    assert _sha256(f"{report}\n".encode("utf-8")) == DEFAULT_EVAL_10_FOLDS


def test_eval_one_tree_10_folds(benchmark, ds0, tmp_path, capsys):
    config = tmp_path / "one_tree.cfg"
    config.write_text("rf_n_trees=1\n", encoding="utf-8")
    args = ["eval", str(ds0), "--folds", "10", "--config", str(config)]
    capsys.readouterr()
    codes = []

    def run_eval():
        codes.append(main(args))
        return capsys.readouterr().out

    out = benchmark.pedantic(run_eval, rounds=5, iterations=1)
    # five rounds when timed, one under --benchmark-disable
    assert codes and all(code == 0 for code in codes)
    assert _sha256(out.encode("utf-8")) == ONE_TREE_EVAL_10_FOLDS


def test_run_setup_fresh_process(benchmark, models, tmp_path):
    """`run` set-up in a process of its own, as from a shell that sets no
    thread count: a zero-duration header on standard input, so the child
    loads the default models, decides nothing and prints nothing.  Over the
    rounds, `extra_info` holds the child's median wall seconds
    (`setup_wall_s`) and median CPU seconds, user plus system
    (`setup_cpu_s`); CPU time shows start-up work that an idle second core
    hides from the wall clock."""
    header = tmp_path / "header.txt"
    header.write_text(
        "format_version=1 session_id=setup duration=0.000\n", encoding="utf-8"
    )
    src = Path(needsense.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = str(src)
    command = [
        sys.executable, "-c", CHILD_LAUNCHER,
        "-m", "needsense", "run", "--models", str(models),
    ]
    walls, cpus = [], []

    def setup():
        with open(header, "rb") as stdin:
            proc = subprocess.run(
                command, env=env, stdin=stdin, capture_output=True, text=True,
                check=True,
            )
        # the launcher's line alone: the child printed no decision
        _, _, cpu, wall = proc.stdout.split()
        cpus.append(float(cpu))
        walls.append(float(wall))

    benchmark.pedantic(setup, rounds=10, iterations=1)
    benchmark.extra_info["setup_wall_s"] = statistics.median(walls)
    benchmark.extra_info["setup_cpu_s"] = statistics.median(cpus)


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


def repeated(record: SessionRecord, k: int) -> SessionRecord:
    """The session played `k` times in a row: copy i has its messages and
    label spans shifted by i durations, in whole milliseconds."""
    period = round(record.duration * 1000)

    def shift(t: float, i: int) -> float:
        return (round(t * 1000) + i * period) / 1000

    return SessionRecord(
        record.session_id,
        k * period / 1000,
        {
            name: [
                TimestampedMessage(shift(m.originating_time, i), m.payload)
                for i in range(k)
                for m in msgs
            ]
            for name, msgs in record.streams.items()
        },
        [
            LabelSpan(shift(s.start, i), shift(s.end, i), s.level)
            for i in range(k)
            for s in record.labels
        ],
    )


def test_run_default_s00_10x_file(benchmark, ds0, models, tmp_path, capsys):
    """A long session file: s00 ten times over, read line by line."""
    path = tmp_path / "s00x10.session"
    repeated(load_session(ds0 / "s00.session"), 10).save(path)
    capsys.readouterr()
    args = ["run", str(path), "--models", str(models)]
    code = benchmark.pedantic(main, args=(args,), rounds=1, iterations=1)
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == DEFAULT_RUN_S00_10X


def test_run_default_s00_10x_stdin(benchmark, ds0, models, capsys, monkeypatch):
    """A long live session: s00 ten times over on standard input."""
    record = repeated(load_session(ds0 / "s00.session"), 10)
    text = "\n".join(record.to_lines()) + "\n"
    capsys.readouterr()

    def run_stdin():
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        return main(["run", "--models", str(models)])

    code = benchmark.pedantic(run_stdin, rounds=1, iterations=1)
    out = capsys.readouterr().out
    assert code == 0
    assert _sha256(out.encode("utf-8")) == DEFAULT_RUN_S00_10X
