"""Command-line workflow: scripts, sessions, training, eval, live runs."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import needsense
from needsense import cli, forest, fusion, streams
from needsense.cli import _decision_line, _run, build_parser, main
from needsense.config import (
    MAX_TREES,
    MAX_WINDOW_W,
    Config,
    ConfigError,
    config_from_items,
    load_config,
)
from needsense.forest import RFModel
from needsense.gaze import GazeObservation
from needsense.language import NBModel
from needsense.sessions import (
    LabelSpan,
    NeedLevelLabel,
    SessionFormatError,
    SessionRecord,
    fmt_time,
    load as load_session,
)
from needsense.fusion import predict_session, stage1_materialize
from needsense.simulate import benchmark_suite, load_script, simulate
from needsense.streams import TimestampedMessage, text_lines

LIGHT_CONFIG = "\n".join(
    [
        "# keep forests small so tests stay fast",
        "rf_n_trees=15",
        "rf_max_depth=6",
        "rf_min_samples_leaf=3",
        "seed=7",
    ]
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scripts, sessions, and trained models under one directory tree."""
    root = tmp_path_factory.mktemp("ws")
    config = root / "needsense.cfg"
    config.write_text(LIGHT_CONFIG + "\n", encoding="utf-8")
    scripts = root / "scripts"
    ds0 = root / "ds0"
    models = root / "models"
    assert main(
        ["gen-scripts", "--config", str(config), "--count", "4",
         "--out", str(scripts)]
    ) == 0
    script_paths = sorted(scripts.glob("*.script"))
    assert main(
        ["simulate", "--config", str(config), *map(str, script_paths),
         "--out", str(ds0)]
    ) == 0
    assert main(
        ["train", "--config", str(config), str(ds0), "--out", str(models)]
    ) == 0
    return {
        "root": root,
        "config": config,
        "scripts": scripts,
        "ds0": ds0,
        "models": models,
    }


# each key's accepted range as (low, high, above): [low, high], or
# (low, high] where above is set; None is no bound
KEY_RANGES = {
    "cadence_hz": (0, 1000.0, True),
    "window_w": (1, 10_000, False),
    "gaze_yaw_center": (0, None, True),
    "gaze_pitch_center": (0, None, True),
    "gaze_debounce": (1, None, False),
    "min_confidence": (0, 1, False),
    "nb_alpha": (0, None, True),
    "nb_use_aggregates": (None, None, False),
    "rf_n_trees": (1, 10_000, False),
    "rf_max_depth": (0, None, False),
    "rf_min_samples_leaf": (1, None, False),
    "rf_features_per_split": (0, None, False),
    "rf_bootstrap": (None, None, False),
    "seed": (0, None, False),
}


def boundary_cases() -> list[tuple[str, object, str | None]]:
    """(key, value, why it is refused or None) for each bound's accepted
    value and the refused one next to it, for NaN and +-inf in every float
    key and for both values of every bool key."""
    cases = []
    for f in fields(Config):
        low, high, above = KEY_RANGES.get(f.name, (None, None, False))
        kind = type(f.default)

        def past(x, toward):  # the next value after x toward +-inf
            if kind is float:
                return math.nextafter(x, toward)
            return x + (1 if toward > 0 else -1)

        if low is not None:
            if above:
                accepted, refused = past(low, math.inf), low
            else:
                accepted, refused = low, past(low, -math.inf)
            why = f"must be {'>' if above else '>='} {low}"
            cases += [(f.name, accepted, None), (f.name, refused, why)]
        if high is not None:
            why = f"must be <= {high}"
            cases += [(f.name, high, None), (f.name, past(high, math.inf), why)]
        if kind is float:
            cases += [
                (f.name, v, "must be finite") for v in (math.nan, math.inf, -math.inf)
            ]
        if kind is bool:
            cases += [(f.name, v, None) for v in (False, True)]
    return cases


class TestConfig:
    def test_defaults_round_trip_through_lines(self):
        cfg = Config()
        again = config_from_items(
            dict(line.split("=", 1) for line in cfg.to_lines())
        )
        assert again == cfg

    def test_zero_means_unlimited_depth_and_auto_features(self):
        cfg = Config()
        forest = cfg.forest_config()
        assert forest.max_depth is None
        assert forest.features_per_split is None
        limited = config_from_items({"rf_max_depth": "5"})
        assert limited.forest_config().max_depth == 5

    def test_bool_spellings(self):
        for text in ("1", "true", "yes", "on", "True"):
            assert config_from_items({"rf_bootstrap": text}).rf_bootstrap
        for text in ("0", "false", "no", "off"):
            assert not config_from_items({"rf_bootstrap": text}).rf_bootstrap
        with pytest.raises(ConfigError):
            config_from_items({"rf_bootstrap": "maybe"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_items({"rf_trees": "10"})

    def test_validation(self):
        with pytest.raises(ConfigError):
            config_from_items({"window_w": "0"}).validate()
        with pytest.raises(ConfigError):
            config_from_items({"cadence_hz": "0"}).validate()
        with pytest.raises(ConfigError):
            config_from_items({"nb_alpha": "0"}).validate()
        for text in ("inf", "nan"):
            with pytest.raises(ConfigError, match="nb_alpha must be finite"):
                config_from_items({"nb_alpha": text})

    @pytest.mark.parametrize("key", ["gaze_yaw_center", "gaze_pitch_center"])
    @pytest.mark.parametrize(
        "text, why",
        [("inf", "finite"), ("nan", "finite"), ("0", "> 0"), ("-0.1", "> 0")],
    )
    def test_gaze_centers_must_be_finite_and_positive(self, key, text, why):
        with pytest.raises(ConfigError, match=f"^{key} must be {why}$"):
            config_from_items({key: text})
        cfg = Config()
        setattr(cfg, key, float(text))
        with pytest.raises(ConfigError, match=f"^{key} must be {why}$"):
            cfg.validate()

    @pytest.mark.parametrize(
        "key, bound", [("rf_n_trees", MAX_TREES), ("window_w", MAX_WINDOW_W)]
    )
    def test_tree_count_and_window_have_an_upper_bound(self, key, bound):
        # checked through validate alone: a fit or run at the bound would
        # allocate for every tree or every window column
        cfg = Config()
        setattr(cfg, key, bound)
        cfg.validate()
        setattr(cfg, key, bound + 1)
        with pytest.raises(ConfigError, match=f"^{key} must be <= {bound}$"):
            cfg.validate()
        with pytest.raises(ConfigError, match=f"{key} must be <= {bound}"):
            config_from_items({key: str(10 * bound)})

    def test_cadence_above_one_khz_rejected(self):
        # the tick grid is whole milliseconds: above 1 kHz ticks collide,
        # and an infinite cadence would never advance
        for text in ("1000.5", "1e6", "inf"):
            with pytest.raises(ConfigError, match="cadence_hz"):
                config_from_items({"cadence_hz": text})
        assert config_from_items({"cadence_hz": "1000"}).cadence_hz == 1000.0

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(
            "# comment\n\nwindow_w=10\nrf_bootstrap=0\n", encoding="utf-8"
        )
        cfg = load_config(path)
        assert cfg.window_w == 10
        assert cfg.rf_bootstrap is False
        assert cfg.cadence_hz == 10.0

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("seed=1\nseed=2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (b"seed=1\nwindow_w\n", 2, "expected key=value"),
            (b"seed=1\nseed=2\n", 2, "duplicate key 'seed'"),
            (b"# c\n\nrf_trees=10\n", 3, "unknown config key 'rf_trees'"),
            (b"seed=abc\n", 1, "bad value for 'seed': 'abc'"),
            (b"seed=1\nwindow_w=0\n", 2, "window_w must be >= 1"),
            (b"seed=1\nseed\xff=2\n", 2, "not UTF-8 text"),
            # a file's first fault in line order, before a later line's byte
            (b"seed=abc\nseed\xff=2\n", 1, "bad value for 'seed': 'abc'"),
        ],
    )
    def test_file_errors_name_the_path_and_the_line(
        self, tmp_path, text, line, message
    ):
        path = tmp_path / "a.cfg"
        path.write_bytes(text)
        with pytest.raises(SessionFormatError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: line {line}: {message}"
        assert err.value.line == line
        assert isinstance(err.value, ConfigError) == (message != "not UTF-8 text")

    def test_every_key_has_a_range(self):
        assert list(KEY_RANGES) == [f.name for f in fields(Config)]

    @pytest.mark.parametrize("key, value, why", boundary_cases())
    def test_each_bound_accepts_its_edge_and_refuses_the_value_past_it(
        self, tmp_path, key, value, why
    ):
        path = tmp_path / "a.cfg"
        text = str(int(value)) if isinstance(value, bool) else repr(value)
        path.write_text(f"{key}={text}\n", encoding="utf-8")
        if why is None:
            assert getattr(load_config(path), key) == value
        else:
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert str(err.value) == f"{path}: line 1: {key} {why}"

    def test_readme_names_every_key_and_its_default(self):
        readme = Path(__file__).parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8").split("Keys and defaults:", 1)[1]
        sentence = re.split(r"\.\s", text, maxsplit=1)[0]
        pairs = re.findall(r"`(\w+=[^`]*)`", sentence)
        assert pairs == Config().to_lines()

    def test_gaze_config_carries_thresholds(self):
        cfg = config_from_items(
            {"gaze_yaw_center": "0.2", "gaze_debounce": "3"}
        )
        gaze = cfg.gaze_config()
        assert gaze.thresholds.yaw_center == 0.2
        assert gaze.debounce == 3


class TestGenScripts:
    def test_writes_requested_count(self, workspace):
        assert len(list(workspace["scripts"].glob("*.script"))) == 4

    def test_deterministic_bytes(self, workspace, tmp_path):
        again = tmp_path / "scripts2"
        assert main(
            ["gen-scripts", "--config", str(workspace["config"]),
             "--count", "4", "--out", str(again)]
        ) == 0
        for path in sorted(workspace["scripts"].glob("*.script")):
            assert (again / path.name).read_bytes() == path.read_bytes()

    def test_seed_flag_changes_output(self, workspace, tmp_path):
        other = tmp_path / "scripts3"
        assert main(
            ["gen-scripts", "--config", str(workspace["config"]),
             "--seed", "8", "--count", "4", "--out", str(other)]
        ) == 0
        ours = sorted(p.read_bytes() for p in workspace["scripts"].glob("*"))
        theirs = sorted(p.read_bytes() for p in other.glob("*"))
        assert ours != theirs

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1", "1e308"])
    def test_bad_noise_is_exit_three_and_writes_nothing(
        self, tmp_path, capsys, noise
    ):
        out = tmp_path / "scripts"
        code = main(["gen-scripts", "--noise", noise, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error: noise must be in [0, pi]\n"
        assert not out.exists()

    def test_noise_of_pi_renders(self, tmp_path):
        scripts = tmp_path / "scripts"
        assert main(
            ["gen-scripts", "--count", "1", "--noise", repr(math.pi),
             "--out", str(scripts)]
        ) == 0
        assert load_script(scripts / "s00.script").noise == math.pi
        out = tmp_path / "out"
        assert main(
            ["simulate", str(scripts / "s00.script"), "--out", str(out)]
        ) == 0
        load_session(out / "s00.session").validate()

    def test_script_noise_past_pi_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "loud.script"
        path.write_text(
            "script_version=1 seed=0 noise=1e308\n"
            "segment duration=2 label=Flow gaze=fix-task\n",
            encoding="utf-8",
        )
        argv = ["simulate", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: line 1: noise must be in [0, pi]\n"
        )


class TestSimulateCommand:
    def test_session_ids_come_from_script_stems(self, workspace):
        sessions = sorted(workspace["ds0"].glob("*.session"))
        assert [p.stem for p in sessions] == ["s00", "s01", "s02", "s03"]
        for path in sessions:
            record = load_session(path)
            assert record.session_id == path.stem
            record.validate()

    def test_missing_script_is_a_data_error(self, workspace, tmp_path, capsys):
        code = main(
            ["simulate", str(tmp_path / "nope.script"), "--out",
             str(tmp_path / "out")]
        )
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_bad_script_names_the_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "bad.script"
        path.write_text(
            "script_version=1 seed=0\n"
            "segment duration=abc label=Flow gaze=fix-task\n",
            encoding="utf-8",
        )
        argv = ["simulate", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 2: bad number for 'duration': abc\n"
        # the first fault in line order wins over a later line's byte
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 2: bad number for 'duration': abc\n"
        path.write_bytes(path.read_bytes().replace(b"=abc", b"=1"))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 3: not UTF-8 text\n"

    def test_script_that_does_not_render_names_the_file(
        self, tmp_path, capsys
    ):
        # the offset lies inside its segment, but rounds onto its end
        path = tmp_path / "late.script"
        path.write_text(
            "script_version=1 seed=0\n"
            "segment duration=1 label=Flow gaze=fix-task\n"
            'utterance offset=0.9996 text="done"\n',
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: utterance at offset 0.9996 rounds past "
            "its segment\n"
        )
        assert not (out / "late.session").exists()

    def test_script_whose_stem_is_no_session_id_names_the_file(
        self, tmp_path, capsys
    ):
        # the session id is the script's stem
        script = tmp_path / "two words.script"
        script.write_text(
            "script_version=1 seed=0\n"
            "segment duration=1 label=Flow gaze=fix-task\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["simulate", str(script), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {script}: invalid session id 'two words'\n"
        )
        assert not list(out.glob("*.session"))

    def test_script_whose_frames_are_not_finite_names_the_file(
        self, tmp_path, capsys
    ):
        # a look at the task lies three pitch half-widths below the robot,
        # which overflows to -inf
        script = tmp_path / "far.script"
        script.write_text(
            "script_version=1 seed=0 noise=0\n"
            "segment duration=1 label=Flow gaze=fix-task\n",
            encoding="utf-8",
        )
        config = tmp_path / "far.cfg"
        config.write_text("gaze_pitch_center=1e308\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(config), str(script), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {script}: gaze_raw at 0.0: non-finite value for 'pitch'\n"
        )
        assert not (out / "far.session").exists()


class TestTrainCommand:
    def test_artifacts_exist(self, workspace):
        models = workspace["models"]
        assert (models / "nb.model").is_file()
        assert (models / "rf.model").is_file()
        assert (models / "manifest.txt").is_file()
        assert len(list((models / "ds1").glob("*.session"))) == 4

    def test_manifest_lists_config_and_hashes(self, workspace):
        models = workspace["models"]
        lines = (models / "manifest.txt").read_text().splitlines()
        assert lines[0] == "manifest_version=1"
        body = "\n".join(lines)
        assert "window_w=20" in body
        assert "cadence_hz=10.0" in body
        assert "rf_n_trees=15" in body
        artifacts = [ln for ln in lines if ln.startswith("artifact=")]
        assert len(artifacts) == 2 + 4  # both models + one ds1 per session
        for line in artifacts:
            m = re.match(r"artifact=(\S+) sha256=([0-9a-f]{64})$", line)
            assert m, line
            digest = hashlib.sha256(
                (models / m.group(1)).read_bytes()
            ).hexdigest()
            assert digest == m.group(2)

    def test_derived_sessions_are_valid_tick_recordings(self, workspace):
        from needsense.streams import tick_times

        for path in (workspace["models"] / "ds1").glob("*.session"):
            derived = load_session(path)
            ticks = [
                m.originating_time for m in derived.messages("need_mutual")
            ]
            assert ticks == tick_times(derived.duration, 10.0)

    def test_retrain_reproduces_manifest(self, workspace, tmp_path):
        again = tmp_path / "models2"
        assert main(
            ["train", "--config", str(workspace["config"]),
             str(workspace["ds0"]), "--out", str(again)]
        ) == 0
        assert (again / "manifest.txt").read_bytes() == (
            workspace["models"] / "manifest.txt"
        ).read_bytes()

    def test_sessions_are_freed_before_the_fit(self, workspace, tmp_path):
        # the forest fit is train's largest stage, and it reads only the matrix
        read, train_rf = cli._read_sessions, cli.train_rf
        loaded = []
        fitted = []

        def read_recorded(directory, cfg):
            sessions = read(directory, cfg)
            for held in sessions:
                loaded.extend(
                    weakref.ref(obj) for obj in (held, held.record, *held.gaze)
                )
            return sessions

        def train_checked(matrix, config):
            assert loaded and all(ref() is None for ref in loaded)
            fitted.append(matrix.n_rows)
            return train_rf(matrix, config)

        with mock.patch.object(cli, "_read_sessions", read_recorded), \
                mock.patch.object(cli, "train_rf", train_checked):
            assert main(
                ["train", "--config", str(workspace["config"]),
                 str(workspace["ds0"]), "--out", str(tmp_path / "m")]
            ) == 0
        assert len(loaded) == 4 * 4 and fitted
        # a session's messages and gaze frames keep no dict per instance
        assert not hasattr(TimestampedMessage(0.0, 1.0), "__dict__")
        assert not hasattr(GazeObservation(0.0, 0.0), "__dict__")

    def test_reader_keeps_no_gaze_frame(self, workspace, tmp_path):
        # s00 against a copy with ten gaze lines for each original one, the
        # new times between the old ones to the millisecond, at the same
        # duration and so the same ticks: the loader's tracemalloc peak is
        # the same within 16 KiB, where keeping the extra frames, about
        # 10,000 at 136 B each as messages, would add over 1 MB
        record = load_session(sorted(workspace["ds0"].glob("*.session"))[0])
        gaze = record.messages("gaze_raw")
        dense = []
        for msg, after in zip(gaze, gaze[1:]):
            start = round(msg.originating_time * 1000)
            gap = round(after.originating_time * 1000) - start
            dense.extend(
                TimestampedMessage((start + gap * j // 10) / 1000, msg.payload)
                for j in range(10)
            )
        dense.append(gaze[-1])
        plain_dir, dense_dir = tmp_path / "plain", tmp_path / "dense"
        plain_dir.mkdir()
        dense_dir.mkdir()
        record.save(plain_dir / "s00.session")
        record.streams["gaze_raw"] = dense
        record.save(dense_dir / "s00.session")

        def peak(directory: Path) -> int:
            tracemalloc.start()
            try:
                cli._read_sessions(str(directory), Config())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(plain_dir)  # the first read compiles and caches what it uses
        assert abs(peak(dense_dir) - peak(plain_dir)) <= 16 * 1024

    def test_reader_keeps_under_32_bytes_a_tick(self, workspace):
        # per tick, two float64 gaze holds and an int8 label: 17 B, where a
        # list of Python float ticks alone would add 32 B more
        cli._read_sessions(str(workspace["ds0"]), Config())  # compiles, caches
        tracemalloc.start()
        try:
            sessions = cli._read_sessions(
                str(workspace["ds0"]), Config(cadence_hz=1000.0)
            )
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        ticks = sum(len(held.gaze[0]) for held in sessions)
        assert ticks > 100_000
        assert kept < 32 * ticks

    def test_a_fault_is_named_before_any_tick_fires(self, tmp_path):
        # an hour at 1 kHz is 3.6M ticks, rows of 3 cells at window_w=1 and
        # so within the bound, and the label on line 2 is bad: the reader
        # names it before the grid is built, so little is allocated
        (tmp_path / "s00.session").write_text(
            "format_version=1 session_id=s00 duration=3600.000\n"
            "stream=label start=0.000 end=3600.000 level=L9\n",
            encoding="utf-8",
        )
        cfg = Config(cadence_hz=1000.0, window_w=1)
        tracemalloc.start()
        try:
            with pytest.raises(SessionFormatError, match="line 2: unknown need"):
                cli._read_sessions(str(tmp_path), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_matrix_is_freed_before_the_trees_grow(self, workspace, tmp_path):
        # the fit reads the float features only to build its rank and code
        # tables, and the trees grow from those
        export, search = cli.export_fusion_matrix, forest._best_splits
        exported = []
        at_first_search = []

        def export_recorded(*args):
            matrix = export(*args)
            exported.extend((weakref.ref(matrix), weakref.ref(matrix.features)))
            return matrix

        def search_checked(*args):
            if not at_first_search:
                at_first_search.extend(ref() for ref in exported)
            return search(*args)

        with mock.patch.object(cli, "export_fusion_matrix", export_recorded), \
                mock.patch.object(forest, "_best_splits", search_checked):
            assert main(
                ["train", "--config", str(workspace["config"]),
                 str(workspace["ds0"]), "--out", str(tmp_path / "m")]
            ) == 0
        assert len(exported) == 2 and at_first_search == [None, None]

    def test_empty_directory_is_a_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["train", str(empty), "--out", str(tmp_path / "m")])
        assert code == 3
        assert "no .session files" in capsys.readouterr().err


MATRIX_BOUND_ERROR = re.compile(
    r"error: the training matrix would hold at least ([\d,]+) cells "
    r"\(([\d,]+) rows x (\d+)\), above the bound of ([\d,]+): lower "
    r"cadence_hz=(\S+) or window_w=(\d+)\n"
)


# spawns the command it is given and prints the child's peak RSS in KiB once
# it exits: a child spawned straight from the test process would count that
# process's RSS, as it shares its memory until it execs
RSS_LAUNCHER = """\
import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss)
sys.exit(os.waitstatus_to_exitcode(status))
"""


class TestMatrixBound:
    """`train` and `eval` refuse a training matrix above `MAX_MATRIX_CELLS`
    as the sessions are read, from the header of the first session whose
    rows take the count past it, before anything is built from them."""

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_legal_keys_past_the_bound_are_exit_3(
        self, workspace, tmp_path, capsys, command
    ):
        # each key is legal, but their product asks for gigabytes of cells
        out = ["--out", str(tmp_path / "m")] if command == "train" else []
        tracemalloc.start()
        try:
            code = main(
                [command, "--config", str(workspace["config"]),
                 str(workspace["ds0"]), "--cadence", "1000", "--window",
                 "10000", *out]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        match = MATRIX_BOUND_ERROR.fullmatch(capsys.readouterr().err)
        assert match, "no bound line"
        cells, rows, dim, bound, cadence, window = match.groups()
        assert int(cells.replace(",", "")) == int(rows.replace(",", "")) * 30_000
        assert (dim, cadence, window) == ("30000", "1000.0", "10000")
        assert int(bound.replace(",", "")) == cli.MAX_MATRIX_CELLS
        # the tick grid of the first 1 kHz session, not the matrix
        assert peak < 32 << 20
        assert not (tmp_path / "m").exists()

    def test_sessions_past_the_bound_are_not_read(
        self, workspace, tmp_path, capsys
    ):
        # the first session alone passes the bound, so a malformed file
        # sorted after it is never opened
        ds0 = tmp_path / "ds0"
        shutil.copytree(workspace["ds0"], ds0)
        (ds0 / "z99.session").write_text(
            "format_version=1 session_id=z99 duration=oops\n", encoding="utf-8"
        )
        code = main(
            ["train", "--config", str(workspace["config"]), str(ds0),
             "--cadence", "1000", "--window", "10000",
             "--out", str(tmp_path / "m")]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert MATRIX_BOUND_ERROR.fullmatch(err), err
        assert "z99" not in err and "line 1" not in err

    def test_an_oversized_session_is_refused_from_its_header(self, tmp_path):
        # an hour at 1 kHz and window_w=7: 3,599,994 rows of 21 cells; no
        # tick fires, so the child stays near its zero-input size
        ds0 = tmp_path / "ds0"
        ds0.mkdir()
        gaze = "".join(
            f"stream=gaze_raw t={60 * i}.000 yaw=0.000000 pitch=0.000000 "
            "conf=0.900000\n"
            for i in range(60)
        )
        (ds0 / "h00.session").write_text(
            "format_version=1 session_id=h00 duration=3600.000\n"
            f"stream=label start=0.000 end=3600.000 level=L3\n{gaze}",
            encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, "-c", RSS_LAUNCHER, "-m", "needsense", "train",
             str(ds0), "--cadence", "1000", "--window", "7",
             "--out", str(tmp_path / "m")],
            capture_output=True, text=True, env=checkout_env(), timeout=120,
        )
        assert proc.returncode == 3
        match = MATRIX_BOUND_ERROR.fullmatch(proc.stderr)
        assert match, proc.stderr
        assert match.group(2) == "3,599,994"
        assert int(proc.stdout) / 1024 < 64  # peak RSS in MB
        assert not (tmp_path / "m").exists()

    def test_a_fault_after_an_oversized_header_reports_the_bound(
        self, tmp_path, capsys
    ):
        # the rows are counted from the header, before line 2 is read
        ds0 = tmp_path / "ds0"
        ds0.mkdir()
        (ds0 / "h00.session").write_text(
            "format_version=1 session_id=h00 duration=3600.000\n"
            "stream=label start=0.000 end=3600.000 level=L9\n",
            encoding="utf-8",
        )
        code = main(["train", str(ds0), "--cadence", "1000", "--window", "7",
                     "--out", str(tmp_path / "m")])
        assert code == 3
        assert MATRIX_BOUND_ERROR.fullmatch(capsys.readouterr().err)

    def test_the_bound_is_inclusive(self, workspace, tmp_path, monkeypatch):
        cells = 3 * 20 * sum(
            len(held.labels[19:])
            for held in cli._read_sessions(str(workspace["ds0"]), Config())
        )
        argv = ["train", "--config", str(workspace["config"]),
                str(workspace["ds0"]), "--out", str(tmp_path / "m")]
        monkeypatch.setattr(cli, "MAX_MATRIX_CELLS", cells - 1)
        assert main(argv) == 3
        monkeypatch.setattr(cli, "MAX_MATRIX_CELLS", cells)
        assert main(argv) == 0

    def test_the_suite_trains_at_10_and_100_hz(self, workspace, tmp_path):
        ds0 = tmp_path / "ds0"
        ds0.mkdir()
        for i, script in enumerate(benchmark_suite(20, seed=0)):
            record = simulate(script, f"s{i:02d}", thresholds=Config().thresholds())
            record.save(ds0 / f"s{i:02d}.session")
        for cadence in ("10", "100"):
            assert main(
                ["train", "--config", str(workspace["config"]), str(ds0),
                 "--cadence", cadence, "--out", str(tmp_path / cadence)]
            ) == 0


class TestEvalCommand:
    def test_report_to_stdout_and_file(self, workspace, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(
            ["eval", "--config", str(workspace["config"]),
             str(workspace["ds0"]), "--folds", "2", "--out", str(out)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout == out.read_text(encoding="utf-8")
        for name in ("Mutual", "Confirmatory", "Language", "Fusion"):
            assert name in stdout
        assert "model=fused" in stdout

    def test_too_many_folds_is_a_data_error(self, workspace, capsys):
        code = main(
            ["eval", "--config", str(workspace["config"]),
             str(workspace["ds0"]), "--folds", "5"]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "error: need at least 5 sessions for 5-fold CV\n"
        )


@pytest.mark.parametrize(
    "command, options",
    [
        ("gen-scripts", ["--config", "--seed", "--count", "--noise", "--out"]),
        ("simulate", ["--config", "--out"]),
        ("train", ["--config", "--seed", "--cadence", "--window", "--out"]),
        (
            "eval",
            ["--config", "--seed", "--cadence", "--window", "--folds", "--out"],
        ),
        ("run", ["--models"]),
    ],
)
def test_each_command_takes_only_the_flags_it_reads(command, options):
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    parser = commands.choices[command]
    taken = [flag for action in parser._actions for flag in action.option_strings]
    assert sorted(taken) == sorted(["-h", "--help", *options])


def test_import_leaves_out_the_modules_of_other_commands(fresh_python):
    # `run` and `train` never compile the modules only `eval`, `simulate`
    # and `gen-scripts` use; a checkout without bytecode compiles each import
    code = (
        "import sys, needsense.cli; "
        "print(*sorted(set(sys.modules) & "
        "{'needsense.evaluation', 'needsense.simulate'}))"
    )
    assert fresh_python(code) == "\n"


# the variables OpenBLAS reads its thread count from when numpy loads
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or (os.cpu_count() or 1) < 2,
    reason="counts threads in /proc, and OpenBLAS starts none on one CPU",
)
def test_import_starts_no_blas_worker(fresh_python):
    # nothing calls BLAS, so a worker would only spin at every start
    code = "import os, needsense.cli; print(len(os.listdir('/proc/self/task')))"
    assert fresh_python(code, **dict.fromkeys(BLAS_THREADS)) == "1\n"


def test_a_blas_thread_count_already_set_is_kept(fresh_python):
    code = "import os, needsense.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_python(code, OPENBLAS_NUM_THREADS="2") == "2\n"


def test_the_process_entry_freezes_what_it_imports(fresh_python):
    # the installed script imports needsense.__main__ as this does; the
    # collector is back on and the imports sit in the permanent generation
    code = (
        "import gc, needsense.__main__; "
        "print(gc.isenabled(), gc.get_freeze_count() > 10_000)"
    )
    assert fresh_python(code) == "True True\n"


def test_importing_the_package_leaves_the_collector_alone(fresh_python):
    code = "import gc, needsense.cli; print(gc.isenabled(), gc.get_freeze_count())"
    assert fresh_python(code) == "True 0\n"


def test_the_installed_script_calls_what_python_m_calls(fresh_python):
    # so both launchers get the entry's collector policy
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as file:
        entry = tomllib.load(file)["project"]["scripts"]["needsense"]
    module, _, name = entry.partition(":")
    assert module == "needsense.__main__"
    code = (
        "import importlib, runpy, needsense.cli; "
        f"main = getattr(importlib.import_module({module!r}), {name!r}); "
        "ran = runpy.run_module('needsense', run_name='not_main'); "
        "print(main is ran['main'] is needsense.cli.main)"
    )
    assert fresh_python(code) == "True\n"


TRACED = Path(__file__).parents[1] / "perfbench" / "traced.py"


def checkout_env() -> dict[str, str]:
    """The environment with this checkout's needsense first on the path."""
    src = str(Path(needsense.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}


@pytest.mark.parametrize("source", ["-", "file"])
def test_tracer_hooks_stay_live_over_a_run(workspace, tmp_path, source):
    # perfbench/traced.py wraps the names it finds on the live path and
    # lists those it does not; a change to these names shows here first
    session = sorted(workspace["ds0"].glob("*.session"))[0]
    spans = tmp_path / "spans.json"
    env = checkout_env()
    run = [
        "run", "-" if source == "-" else str(session),
        "--models", str(workspace["models"]),
    ]
    traced = [sys.executable, str(TRACED), str(spans), "r0", *run]
    outputs = []
    for argv in (traced, [sys.executable, "-m", "needsense", *run]):
        with open(session, "rb") as stdin:
            proc = subprocess.run(
                argv, stdin=stdin, capture_output=True, env=env, timeout=120
            )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and outputs[0]
    report = json.loads(spans.read_text(encoding="utf-8"))
    # `train` and `eval` read sessions through `_read_sessions`, so the
    # loader and stage-1 names the tracer wraps on `cli` are gone too
    assert report["missing"] == [
        f"needsense.cli.{name}"
        for name in (
            "load_session", "_parse_fields", "_parse_payload",
            "stage1_materialize", "live_decisions",
        )
    ]
    names = {span[2] for span in report["spans"]}
    assert {"streams.emit", "fusion.callback"} <= names


def test_tracer_hooks_stay_live_over_a_train(workspace, tmp_path):
    # perfbench's train workload counts the rows of the matrix that
    # `cli.export_fusion_matrix` returns, and times the export and the fit
    spans = tmp_path / "spans.json"
    train = ["train", "--config", str(workspace["config"]), str(workspace["ds0"])]
    rows = []
    for out, argv in (
        ("traced", [sys.executable, str(TRACED), str(spans), "t0", *train]),
        ("plain", [sys.executable, "-m", "needsense", *train]),
    ):
        proc = subprocess.run(
            [*argv, "--out", str(tmp_path / out)], capture_output=True,
            text=True, env=checkout_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        rows.append(int(re.search(r"\((\d+) rows x ", proc.stdout).group(1)))
    artifacts = [
        {
            path.relative_to(tmp_path / out): path.read_bytes()
            for path in sorted((tmp_path / out).rglob("*")) if path.is_file()
        }
        for out in ("traced", "plain")
    ]
    assert artifacts[0] == artifacts[1] and artifacts[0]
    assert rows[0] == rows[1]
    report = json.loads(spans.read_text(encoding="utf-8"))
    assert report["counts"]["sessions.export_rows"] == rows[0]
    names = {span[2] for span in report["spans"]}
    assert {"sessions.export", "fusion.train", "forest.fit"} <= names


def test_perfbench_finds_what_it_imports_and_wraps(monkeypatch):
    # perfbench/run.py exits at load if a name it imports from needsense is
    # gone, and traced.py wraps the callbacks these two methods take
    path = Path(__file__).parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # it puts src/ first
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look here
    try:
        spec.loader.exec_module(module)
    except SystemExit as exc:
        pytest.fail(str(exc))
    assert module.predict_session is predict_session
    assert "subscribe" in vars(streams.Stream)
    assert "add_ticker" in vars(streams.Pipeline)


# every character str.splitlines splits at besides \n and \r
SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def run_lines(workspace, capsys, *extra):
    session = sorted(workspace["ds0"].glob("*.session"))[0]
    code = main(
        ["run", str(session), "--models", str(workspace["models"]), *extra]
    )
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


DECISION_RE = re.compile(
    r"^t=\d+\.\d{3} mutual=\d\.\d{6} conf=\d\.\d{6} lang=\d\.\d{6} "
    r"fused=\d\.\d{6} help=[01]$"
)


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


class DiscardingOut:
    """A standard output that keeps no text."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def run_peak(monkeypatch, models: Path, session: str = "-", text: str = "") -> int:
    """The tracemalloc peak of `run` of `session`, with `text` on standard
    input and standard output discarded."""
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    monkeypatch.setattr("sys.stdout", DiscardingOut())
    tracemalloc.start()
    try:
        assert main(["run", session, "--models", str(models)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRunCommand:
    def test_decision_lines_parse(self, workspace, capsys):
        code, lines, _ = run_lines(workspace, capsys)
        assert code == 0
        assert lines
        for line in lines:
            assert DECISION_RE.match(line), line

    def test_decision_count_matches_window_arithmetic(self, workspace, capsys):
        _, lines, _ = run_lines(workspace, capsys)
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        record = load_session(session)
        ticks = int(record.duration * 10) + 1
        assert len(lines) == ticks - 19  # first 19 ticks are warm-up

    def test_file_is_scored_in_one_forest_call(
        self, workspace, capsys, monkeypatch
    ):
        calls = []
        predict_batch = RFModel.predict_batch

        def counted(model, rows):
            calls.append(len(rows))
            return predict_batch(model, rows)

        monkeypatch.setattr(RFModel, "predict_batch", counted)
        code, lines, _ = run_lines(workspace, capsys)
        assert code == 0
        assert len(lines) > 1
        assert calls == [len(lines)]

    def test_stdin_mode_matches_file_mode(self, workspace, capsys, monkeypatch):
        code, file_lines, _ = run_lines(workspace, capsys)
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(session.read_text(encoding="utf-8"))
        )
        code = main(
            ["run", "-", "--models", str(workspace["models"])]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == file_lines

    def test_stdin_decisions_are_causal(self, workspace, capsys, monkeypatch):
        # removing a later utterance must not change earlier decisions
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        lines = session.read_text(encoding="utf-8").splitlines()
        utter = [i for i, ln in enumerate(lines) if "utterance" in ln]
        assert utter, "fixture session must contain utterances"
        cut_line = lines[utter[-1]]
        cut_t = float(re.search(r"t=(\d+\.\d+)", cut_line).group(1))

        def run_with(text):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(
                ["run", "-", "--models", str(workspace["models"])]
            ) == 0
            return capsys.readouterr().out.splitlines()

        full = run_with("\n".join(lines) + "\n")
        cut = run_with(
            "\n".join(ln for i, ln in enumerate(lines) if i != utter[-1]) + "\n"
        )

        def before(decisions):
            return [
                d for d in decisions
                if float(re.search(r"t=(\d+\.\d+)", d).group(1)) < cut_t
            ]

        assert before(full) == before(cut)

    def time_travel(self, workspace):
        """s00's header and two of its messages in reverse time order, each
        pair with the error that names the second: two gaze frames, which
        break their stream's order, then the first utterance and a gaze
        frame after it, which break only the global order."""
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        lines = session.read_text(encoding="utf-8").splitlines()

        def t(line):
            return float(re.search(r" t=(\S+)", line).group(1))

        gaze = [ln for ln in lines if ln.startswith("stream=gaze_raw")]
        said = next(ln for ln in lines if ln.startswith("stream=utterance"))
        later = next(ln for ln in gaze if t(ln) > t(said))
        return [
            (
                [lines[0], gaze[1], gaze[0]],
                f"line 3: stream gaze_raw: non-monotone time {t(gaze[0])} "
                f"after {t(gaze[1])}\n",
            ),
            (
                [lines[0], later, said],
                f"line 3: message at t={t(said)} arrives after t={t(later)}; "
                "live input must be in global time order\n",
            ),
        ]

    def test_stdin_rejects_time_travel(self, workspace, capsys, monkeypatch):
        for lines, error in self.time_travel(workspace):
            monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
            code = main(["run", "-", "--models", str(workspace["models"])])
            assert (code, capsys.readouterr().err) == (3, f"error: {error}")

    def test_file_rejects_time_travel_as_stdin_does(
        self, workspace, tmp_path, capsys
    ):
        path = tmp_path / "s00.session"
        for lines, error in self.time_travel(workspace):
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            code = main(["run", str(path), "--models", str(workspace["models"])])
            assert (code, capsys.readouterr().err) == (3, f"error: {path}: {error}")

    def stdin_run(self, workspace, capsys, monkeypatch, lines):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(
            ["run", "-", "--models", str(workspace["models"])]
        )
        return code, capsys.readouterr().err

    def test_stdin_equal_times_on_one_stream_is_exit_three(
        self, workspace, capsys, monkeypatch
    ):
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        lines = session.read_text(encoding="utf-8").splitlines()
        gaze = [ln for ln in lines if ln.startswith("stream=gaze_raw")]
        code, err = self.stdin_run(
            workspace, capsys, monkeypatch, [lines[0], gaze[0], gaze[1], gaze[1]]
        )
        assert code == 3
        assert "Traceback" not in err
        assert "line 4: stream gaze_raw: non-monotone time" in err

    @pytest.mark.parametrize("where", ["after_duration", "negative"])
    def test_stdin_time_outside_duration_is_exit_three(
        self, workspace, capsys, monkeypatch, where
    ):
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        lines = session.read_text(encoding="utf-8").splitlines()
        duration = load_session(session).duration
        gaze = [ln for ln in lines if ln.startswith("stream=gaze_raw")]
        t = duration + 0.1 if where == "after_duration" else -0.5
        stray = re.sub(r"\bt=[^ ]+", f"t={t:.3f}", gaze[-1])
        body = [stray] if where == "negative" else [*gaze[:3], stray]
        code, err = self.stdin_run(workspace, capsys, monkeypatch, [lines[0], *body])
        assert code == 3
        assert "Traceback" not in err
        assert f"line {1 + len(body)}: stream gaze_raw: time" in err
        assert f"outside [0, {duration}]" in err

    @pytest.mark.parametrize("mode", ["file", "stdin"])
    def test_stream_the_live_shell_does_not_read_is_exit_three(
        self, workspace, capsys, monkeypatch, mode
    ):
        derived = sorted((workspace["models"] / "ds1").glob("*.session"))[0]
        lines = derived.read_text(encoding="utf-8").splitlines()
        line_no = 1 + next(
            i for i, ln in enumerate(lines) if ln.startswith("stream=need_")
        )
        assert lines[line_no - 1].startswith("stream=need_mutual ")
        argv = ["run", "--models", str(workspace["models"])]
        if mode == "file":
            code = main([*argv, str(derived)])
            where = f"{derived}: "
        else:
            monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
            code = main([*argv, "-"])
            where = ""
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: {where}line {line_no}: stream 'need_mutual' is not a live "
            "input\n"
        )

    def test_stdin_requires_header(self, workspace, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("stream=gaze_raw t=0.000 yaw=0.0 pitch=0.0 conf=1.0\n"),
        )
        code = main(
            ["run", "-", "--models", str(workspace["models"])]
        )
        assert code == 3
        assert "header" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["inside_quotes", "after_quotes"])
    def test_stdin_byte_that_is_not_utf8_names_its_line(
        self, workspace, capsys, monkeypatch, where
    ):
        # a C or POSIX locale's standard input escapes byte 0xff as U+DCFF
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        lines = session.read_text(encoding="utf-8").splitlines()
        line_no = 1 + next(
            i for i, ln in enumerate(lines) if ln.startswith("stream=utterance")
        )
        line = lines[line_no - 1]
        lines[line_no - 1] = (
            line.replace('text="', 'text="\udcff', 1)
            if where == "inside_quotes"
            else line + "\udcff"
        )
        code, err = self.stdin_run(workspace, capsys, monkeypatch, lines)
        assert code == 3
        assert err == f"error: line {line_no}: not UTF-8 text\n"

    @pytest.mark.parametrize(
        "sep", SEPARATORS, ids=[f"U+{ord(c):04X}" for c in SEPARATORS]
    )
    def test_utterance_with_a_separator_runs_alike_from_file_and_stdin(
        self, workspace, tmp_path, capsys, monkeypatch, sep
    ):
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        text = session.read_text(encoding="utf-8")
        assert 'text="' in text
        text = text.replace('text="', f'text="help{sep}', 1)
        path = tmp_path / session.name
        path.write_text(text, encoding="utf-8")
        argv = ["run", "--models", str(workspace["models"])]
        assert main([*argv, str(path)]) == 0
        from_file = capsys.readouterr().out
        assert from_file
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main([*argv, "-"]) == 0
        assert capsys.readouterr().out == from_file

    def test_stdin_memory_stays_flat_as_the_session_grows(
        self, workspace, monkeypatch
    ):
        record = load_session(sorted(workspace["ds0"].glob("*.session"))[0])

        def peak(k: int) -> int:
            text = "\n".join(repeated(record, k).to_lines()) + "\n"
            return run_peak(monkeypatch, workspace["models"], text=text)

        # garbage awaiting the cycle collector moves a peak by some kB; a
        # shell that kept its messages or decisions would add megabytes
        once, ten_times = peak(1), peak(10)
        assert ten_times <= once + 64 * 1024, (once, ten_times)

    def test_stdin_memory_stays_flat_as_the_tail_grows(self, workspace, monkeypatch):
        # the ticks after the last message write each decision as it is made
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        lines = session.read_text(encoding="utf-8").splitlines()
        duration = load_session(session).duration

        def peak(tail_s: float) -> int:
            header = re.sub(
                r"duration=\S+", f"duration={duration + tail_s:.3f}", lines[0]
            )
            text = "\n".join([header, *lines[1:]]) + "\n"
            return run_peak(monkeypatch, workspace["models"], text=text)

        # a tail of 20 s holds 200 decisions and one of 200 s 2,000: kept
        # in a list, those would add hundreds of kB
        once, ten_times = peak(20.0), peak(200.0)
        assert ten_times <= once + 64 * 1024, (once, ten_times)

    def test_stdin_memory_stays_flat_over_label_lines(self, workspace, monkeypatch):
        # standard input has no label rule, so it keeps no span it reads
        header = "format_version=1 session_id=x duration=10.000"
        span = "stream=label start=0.000 end=10.000 level=L0"

        def peak(n: int) -> int:
            text = "\n".join([header, *[span] * n]) + "\n"
            return run_peak(monkeypatch, workspace["models"], text=text)

        # kept, 9,000 more spans and their lines would add over 1 MB
        once, ten_times = peak(1_000), peak(10_000)
        assert ten_times <= once + 64 * 1024, (once, ten_times)

    def test_file_memory_stays_flat_as_the_session_grows(
        self, workspace, tmp_path, monkeypatch
    ):
        # blocks of 256 windows, so that both sessions span several
        monkeypatch.setattr(fusion, "SCORE_ROWS", 256)
        monkeypatch.setattr(forest, "SCORE_ROWS", 256)
        record = load_session(sorted(workspace["ds0"].glob("*.session"))[0])

        def peak(k: int) -> int:
            path = tmp_path / f"x{k}.session"
            repeated(record, k).save(path)
            return run_peak(monkeypatch, workspace["models"], str(path))

        # a file held whole, or its whole stage 1, would add megabytes
        once, ten_times = peak(1), peak(10)
        assert ten_times <= once + 64 * 1024, (once, ten_times)

    @pytest.mark.parametrize("mode", ["file", "stdin", "train"])
    def test_a_session_declared_longer_than_an_hour_is_exit_three(
        self, workspace, tmp_path, capsys, monkeypatch, mode
    ):
        # refused at its header, before a tick or a row is made for it
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        lines = session.read_text(encoding="utf-8").splitlines()
        lines[0] = re.sub(r"duration=\S+", "duration=99999999", lines[0])
        text = "\n".join(lines) + "\n"
        path = tmp_path / "ds" / session.name
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
        models = ["--models", str(workspace["models"])]
        if mode == "file":
            code, where = main(["run", str(path), *models]), f"{path}: "
        elif mode == "stdin":
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            code, where = main(["run", "-", *models]), ""
        else:
            code = main(
                ["train", "--config", str(workspace["config"]), str(path.parent),
                 "--out", str(tmp_path / "models")]
            )
            where = f"{path}: "
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: {where}line 1: duration must be <= 3600 s, not 99999999.000\n"
        )

    def test_stdin_flushes_each_decision_before_reading_on(self, workspace):
        class RecordingOut:
            def __init__(self):
                self.written = 0
                self.unflushed = 0
                self.flushes = 0

            def write(self, text):
                self.written += text.count("\n")
                self.unflushed += text.count("\n")

            def flush(self):
                self.unflushed = 0
                self.flushes += 1

        def checked(out, lines):
            for line in lines:
                assert out.unflushed == 0, "decision left in the buffer"
                yield line

        cfg = load_config(workspace["config"])
        nb = NBModel.load(workspace["models"] / "nb.model")
        rf = RFModel.load(workspace["models"] / "rf.model")
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        lines = session.read_text(encoding="utf-8").splitlines(keepends=True)
        out = RecordingOut()
        assert _run(cfg, nb, rf, text_lines(checked(out, lines)), out) == 0
        assert out.unflushed == 0
        assert 1 < out.flushes <= out.written

    def test_short_session_warns_about_warmup(self, workspace, tmp_path, capsys):
        script = tmp_path / "tiny.script"
        script.write_text(
            "script_version=1 seed=0 noise=0.0\n"
            "segment duration=1.500 label=Flow gaze=fix-task\n",
            encoding="utf-8",
        )
        out = tmp_path / "tiny"
        assert main(["simulate", str(script), "--out", str(out)]) == 0
        capsys.readouterr()  # drain the simulate progress line
        code = main(
            ["run", str(out / "tiny.session"), "--models", str(workspace["models"])]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "warm-up" in captured.err

    def test_settings_come_from_the_manifest(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        config = tmp_path / "5hz.cfg"
        config.write_text(
            LIGHT_CONFIG + "\ncadence_hz=5.0\nwindow_w=10\n", encoding="utf-8"
        )
        models = tmp_path / "models"
        assert main(
            ["train", "--config", str(config), str(workspace["ds0"]),
             "--out", str(models)]
        ) == 0
        cfg = load_config(config)
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        derived = stage1_materialize(
            load_session(session),
            NBModel.load(models / "nb.model"),
            cfg.gaze_config(),
            cfg.cadence_hz,
        )
        rf = RFModel.load(models / "rf.model")
        expected = [
            _decision_line(d) for d in predict_session(derived, rf, cfg.window_w)
        ]
        assert expected[0].startswith("t=1.800 ")  # 10 ticks at 5 Hz
        capsys.readouterr()
        assert main(["run", str(session), "--models", str(models)]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(session.read_text(encoding="utf-8"))
        )
        assert main(["run", "--models", str(models)]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", str(config), str(session),
                  "--models", str(models)])
        assert err.value.code == 2
        # a manifest edited to another cadence no longer runs
        manifest = models / "manifest.txt"
        manifest.write_text(
            manifest.read_text(encoding="utf-8").replace(
                "\ncadence_hz=5.0\n", "\ncadence_hz=10.0\n"
            ),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["run", str(session), "--models", str(models)]) == 4
        assert capsys.readouterr().out == ""


def _first(lines, prefix):
    return next(i for i, line in enumerate(lines) if line.startswith(prefix))


def _drop_seed(lines):
    return [lines[0], lines[1].replace(" seed=7", ""), *lines[2:]], 2


def _edit_line(prefix, edit):
    """Apply `edit` to the first line starting with `prefix`."""

    def mutate(lines):
        i = _first(lines, prefix)
        lines[i] = edit(lines[i])
        return lines, i + 1

    return mutate


def _replace_field(prefix, key, value):
    """Set `key` on the first line starting with `prefix`."""
    return _edit_line(
        prefix, lambda line: re.sub(rf"{key}=\S+", f"{key}={value}", line)
    )


def _drop_field(prefix, key):
    """Remove `key` from the first line starting with `prefix`."""
    return _edit_line(prefix, lambda line: re.sub(rf" {key}=\S+", "", line))


def _node_before_tree(lines):
    return [*lines[:2], "leaf 0 class=1", *lines[2:]], 3


def _shift_leaf_id(lines):
    i = _first(lines, "leaf ")
    lines[i] = lines[i].replace(f"leaf {i - 3} ", f"leaf {i - 2} ", 1)
    return lines, i + 1


def _drop_last_line(lines):
    """A forest whose last tree ends early: that tree's line is named."""
    last_tree = max(i for i, line in enumerate(lines, 1) if line.startswith("tree "))
    return lines[:-1], last_tree


def _header(edit):
    """Apply `edit` to the header, line 2 of an rf.model."""
    return _edit_line("n_trees=", edit)


# each mutation of a valid rf.model returns the lines and the 1-based line
# number that the loader must name; beside it, how its message starts
MALFORMED_MODELS = {
    "header_missing_seed": (_drop_seed, "bad model header: missing key 'seed'"),
    "feature_out_of_range": (_replace_field("node ", "feat", "60"), "feat out of range"),
    "leaf_class_two": (_replace_field("leaf ", "class", "2"),
                       "unrecognized model line: leaf "),
    "node_before_first_tree": (_node_before_tree, "node before the first tree"),
    "node_id_not_preorder": (_shift_leaf_id, "node id out of preorder"),
    "nan_threshold": (_replace_field("node ", "thr", "nan"), "thr is not finite"),
    "not_a_forest": (lambda lines: (["format=other", *lines[1:]], 1),
                     "not a random forest model file"),
    "carriage_return": (_header(lambda h: h.replace(" seed=", " \rseed=")),
                        "bad model header: carriage return inside the line"),
    "unknown_key": (_header(lambda h: h + " depth=3"),
                    "bad model header: unknown key 'depth'"),
    "duplicate_key": (_header(lambda h: h + " seed=7"),
                      "bad model header: duplicate key 'seed'"),
    "leading_zero": (_header(lambda h: h.replace(" seed=7", " seed=07")),
                     "bad model header: seed='07' is not an integer in canonical form"),
    "bootstrap_two": (_header(lambda h: h.replace("bootstrap=1", "bootstrap=2")),
                      "bad model header: bootstrap must be 0 or 1"),
    "no_features": (_header(lambda h: h.replace("n_features=60", "n_features=0")),
                    "bad model header: n_features must be >= 1"),
    "no_features_per_split": (
        _header(lambda h: re.sub(r"features_per_split=\d+", "features_per_split=0", h)),
        "bad model header: features_per_split must be in [1, n_features]",
    ),
    "no_trees": (_header(lambda h: h.replace("n_trees=15", "n_trees=0")),
                 "bad model header: n_trees must be >= 1"),
    "no_leaf_size": (_header(lambda h: h.replace("min_samples_leaf=3", "min_samples_leaf=0")),
                     "bad model header: min_samples_leaf must be >= 1"),
    "no_depth": (_header(lambda h: h.replace("max_depth=6", "max_depth=0")),
                 "bad model header: max_depth must be >= 1 or None"),
    "tree_count": (_header(lambda h: h.replace("n_trees=15", "n_trees=16")),
                   "n_trees=16 but 15 trees"),
    "truncated_tree": (_drop_last_line, "truncated tree"),
}


# each mutation of a valid nb.model returns the lines and the 1-based line
# number that the loader must name
MALFORMED_TEXT_MODELS = {
    "token_missing_c0": _drop_field("token=NEG ", "c0"),
    "docs_missing_c1": _drop_field("docs ", "c1"),
    "alpha_negative": _replace_field("alpha=", "alpha", "-1"),
    "docs_zero": _replace_field("docs ", "c0", "0"),
    "unknown_field": _edit_line("token=", lambda line: line + " c2=3"),
}


# a session file's faults that `train` and `run` name alike: (text, error
# after the path)
_HEAD = "format_version=1 session_id=n00 duration=1.000\n"
_SPAN = "stream=label start=0.000 end=1.000 level=L0\n"
SESSION_FAULTS = {
    "empty": ("", "empty session file"),
    "bad_id": ("format_version=1 session_id=../n00 duration=1.000\n",
               "line 1: invalid session id '../n00'"),
    "no_label_span": (_HEAD, "session has no label spans"),
    "late_start": (
        _HEAD + "stream=label start=0.500 end=1.000 level=L0\n",
        "line 2: label coverage starts at 0.5, expected 0.0",
    ),
    "empty_span": (
        _HEAD + "stream=label start=0.000 end=0.000 level=L0\n" + _SPAN,
        "line 2: label span start 0.0 not before end 0.0",
    ),
    "overlap": (
        _HEAD + "stream=label start=0.000 end=0.600 level=L0\n"
        "stream=label start=0.500 end=1.000 level=L1\n",
        "line 3: label overlap at 0.500",
    ),
    "gap": (
        _HEAD + "stream=label start=0.000 end=0.400 level=L0\n"
        "stream=label start=0.500 end=1.000 level=L1\n",
        "line 3: label gap at 0.400",
    ),
    "short_cover": (
        _HEAD + "stream=label start=0.000 end=0.900 level=L0\n",
        "line 2: label coverage ends at 0.9, expected 1.0",
    ),
    "text_between_fields": (
        _HEAD + _SPAN + 'stream=utterance junk t=0.500 text="hi"\n',
        "line 3: unparseable text 'junk'",
    ),
    "text_after_fields": (
        _HEAD + _SPAN + 'stream=utterance t=0.500 text="hi" junk\n',
        "line 3: unparseable text 'junk'",
    ),
    "duplicate_field": (
        _HEAD + _SPAN + 'stream=utterance t=0.500 t=0.600 text="hi"\n',
        "line 3: duplicate field 't'",
    ),
    "no_stream": (_HEAD + _SPAN + "t=0.500 v=0.100000\n",
                  "line 3: missing stream field"),
    "unknown_stream": (_HEAD + _SPAN + "stream=need_fused t=0.500 v=0.100000\n",
                       "line 3: unknown stream name 'need_fused'"),
    "non_finite": (_HEAD + _SPAN + 'stream=utterance t=nan text="hi"\n',
                   "line 3: non-finite value for 't'"),
    "conf_outside": (
        _HEAD + _SPAN + "stream=gaze_raw t=0.100 yaw=0.0 pitch=0.0 conf=1.5\n",
        "line 3: conf 1.5 outside [0, 1]",
    ),
    "unquoted_text": (_HEAD + _SPAN + "stream=utterance t=0.500 text=hi\n",
                      "line 3: utterance missing quoted text"),
}


def _resealed(edit):
    """Apply `edit` to the lines before a manifest's last and seal the
    result with their sha256, as `train` does."""

    def mutate(lines):
        body, message = edit(lines[:-1])
        text = "".join(f"{line}\n" for line in body)
        seal = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return [*body, f"manifest_sha256={seal}"], message

    return mutate


# each mutation of a valid manifest returns the lines and the error that
# `run` must print after the path
MALFORMED_MANIFESTS = {
    "seal_missing": lambda ls: (ls[:-1], "manifest_sha256 line missing"),
    "line_after_seal": lambda ls: (
        [*ls, ls[-1]], f"line {len(ls) + 1}: line after the manifest_sha256 line"
    ),
    "key_missing": _resealed(
        lambda ls: (
            [ln for ln in ls if not ln.startswith("seed=")],
            "config key 'seed' missing",
        )
    ),
    "key_repeated": _resealed(
        lambda ls: ([*ls[:2], ls[1], *ls[2:]], "line 3: duplicate key 'cadence_hz'")
    ),
    "key_unknown": _resealed(
        lambda ls: (
            [*ls[:2], "rf_trees=10", *ls[2:]],
            "line 3: unknown config key 'rf_trees'",
        )
    ),
}


@pytest.fixture(scope="module")
def long_session(workspace):
    """A 200 s session, whose decision lines overfill a pipe's buffer."""
    script = workspace["root"] / "long.script"
    script.write_text(
        "script_version=1 seed=0 noise=0.02\n"
        "segment duration=200.000 label=Flow gaze=fix-task\n",
        encoding="utf-8",
    )
    out = workspace["root"] / "long"
    assert main(["simulate", str(script), "--out", str(out)]) == 0
    return out / "long.session"


class TestExitCodes:
    @pytest.mark.parametrize("mode", ["file", "stdin"])
    def test_reader_closing_early_is_exit_one_and_quiet(
        self, workspace, long_session, mode
    ):
        # as `needsense run ... | head -2`: the reader takes two decision
        # lines and closes the pipe while `run` still has more to write
        argv = [
            sys.executable, "-m", "needsense", "run",
            "--models", str(workspace["models"]),
        ]
        src = str(Path(needsense.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        with open(long_session, "rb") as session:
            if mode == "file":
                argv.append(str(long_session))
            proc = subprocess.Popen(
                argv,
                stdin=session if mode == "stdin" else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            lines = [proc.stdout.readline().decode() for _ in range(2)]
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert all(DECISION_RE.match(line.rstrip("\n")) for line in lines), lines
        assert proc.returncode == 1
        assert err == b""

    def test_usage_error_is_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["run"])  # --models is required
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "ds0", "--folds", "1"],
             "argument --folds: must be >= 2"),
            (["eval", "ds0", "--folds", "x"],
             "argument --folds: invalid int value: 'x'"),
            (["gen-scripts", "--count", "0", "--out", "o"],
             "argument --count: must be >= 1"),
        ],
    )
    def test_too_few_folds_or_scripts_is_a_usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f": error: {message}\n")

    def test_bad_config_file_is_exit_three(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("rf_trees=10\n", encoding="utf-8")
        models = tmp_path / "models"
        code = main(
            ["train", "--config", str(bad), str(workspace["ds0"]),
             "--out", str(models)]
        )
        assert code == 3
        assert "unknown" in capsys.readouterr().err
        assert not models.exists()

    @pytest.mark.parametrize("alpha", ["inf", "nan"])
    def test_non_finite_nb_alpha_names_the_config_line(
        self, workspace, tmp_path, capsys, alpha
    ):
        config = tmp_path / "alpha.cfg"
        config.write_text(f"nb_alpha={alpha}\n", encoding="utf-8")
        models = tmp_path / "models"
        code = main(
            ["train", "--config", str(config), str(workspace["ds0"]),
             "--out", str(models)]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {config}: line 1: nb_alpha must be finite\n"
        )
        assert not models.exists()

    @pytest.mark.parametrize("command", ["train", "simulate"])
    def test_infinite_gaze_center_names_the_config_line(
        self, workspace, tmp_path, capsys, command
    ):
        config = tmp_path / "center.cfg"
        config.write_text("rf_n_trees=3\ngaze_yaw_center=inf\n", encoding="utf-8")
        out = tmp_path / "out"
        inputs = {
            "train": [str(workspace["ds0"])],
            "simulate": [str(p) for p in sorted(workspace["scripts"].glob("*.script"))],
        }[command]
        code = main([command, "--config", str(config), *inputs, "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {config}: line 2: gaze_yaw_center must be finite\n"
        )
        assert not out.exists()

    def test_nb_alpha_that_overflows_smoothing_fails_stage_one(
        self, workspace, tmp_path, capsys
    ):
        # finite, but alpha times the vocabulary is not
        config = tmp_path / "alpha.cfg"
        config.write_text("nb_alpha=1e308\n", encoding="utf-8")
        models = tmp_path / "models"
        code = main(
            ["train", "--config", str(config), str(workspace["ds0"]),
             "--out", str(models)]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: stage 1: alpha=1e+308 over a vocabulary of ")
        assert err.endswith(" gives a smoothed likelihood of 0\n")
        assert not (models / "nb.model").exists()

    def test_a_window_past_every_session_is_an_empty_matrix(
        self, workspace, tmp_path, capsys
    ):
        # each session of the workspace has fewer than 1,000 ticks at 10 Hz
        code = main(
            ["train", "--config", str(workspace["config"]), str(workspace["ds0"]),
             "--window", "1000", "--out", str(tmp_path / "m")]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "error: stage 2: cannot train on an empty matrix\n"
        )

    @pytest.mark.parametrize(
        "spans, utterances, why",
        [
            # the only help span ends before the first full window
            ([(0, 1, "L3"), (1, 10, "Flow")],
             [(0.5, "please help me"), (5, "all good here")],
             "stage 2: training matrix must contain both classes"),
            ([(0, 10, "Flow")], [(5, "all good here")],
             "stage 1: training corpus has no help-class utterances"),
        ],
    )
    def test_one_class_of_label_fails_its_stage(
        self, tmp_path, capsys, spans, utterances, why
    ):
        ds0 = tmp_path / "ds0"
        ds0.mkdir()
        (ds0 / "c00.session").write_text(
            "format_version=1 session_id=c00 duration=10.000\n"
            + "".join(
                f"stream=label start={a}.000 end={b}.000 level={level}\n"
                for a, b, level in spans
            )
            + "".join(
                f'stream=utterance t={t:.3f} text="{text}"\n'
                for t, text in utterances
            ),
            encoding="utf-8",
        )
        code = main(["train", str(ds0), "--out", str(tmp_path / "m")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {why}\n"

    def test_cadence_above_one_khz_is_exit_three(self, workspace, tmp_path, capsys):
        code = main(
            ["train", "--config", str(workspace["config"]), "--cadence", "1500",
             str(workspace["ds0"]), "--out", str(tmp_path / "models")]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err == "error: cadence_hz must be <= 1000.0\n"

    # the window and cadence ranges are checked in `Config` alone: a flag
    # past them stops `train` and `eval` before any session is read
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "flag, why", [("--window", "window_w must be >= 1"),
                      ("--cadence", "cadence_hz must be > 0")]
    )
    def test_window_or_cadence_flag_of_zero_is_exit_three(
        self, workspace, tmp_path, capsys, command, flag, why, monkeypatch
    ):
        def no_read(directory, cfg):
            raise AssertionError("sessions read")

        monkeypatch.setattr(cli, "_read_sessions", no_read)
        out = tmp_path / "out"
        code = main(
            [command, "--config", str(workspace["config"]), flag, "0",
             str(workspace["ds0"]), "--out", str(out)]
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {why}\n"
        assert not out.exists()

    def test_corrupt_manifest_is_exit_three(self, workspace, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(workspace["models"], broken)
        manifest = broken / "manifest.txt"
        manifest.write_text(
            manifest.read_text().replace(
                "manifest_version=1", "manifest_version=9"
            ),
            encoding="utf-8",
        )
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        code = main(
            ["run", str(session), "--models", str(broken)]
        )
        assert code == 3
        assert "manifest" in capsys.readouterr().err

    def test_gaze_key_mismatch_is_exit_four(self, workspace, tmp_path, capsys):
        # gaze settings live in no model file, only in the manifest, whose
        # last line holds the sha256 of the lines before it
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        manifest = models / "manifest.txt"
        text = manifest.read_text(encoding="utf-8")
        assert "\ngaze_debounce=2\n" in text
        manifest.write_text(
            text.replace("\ngaze_debounce=2\n", "\ngaze_debounce=5\n"),
            encoding="utf-8",
        )
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        code = main(["run", str(session), "--models", str(models)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == (
            f"error: {manifest}: lines do not match the sha256 on its "
            "manifest_sha256 line\n"
        )

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_unsealed_or_incomplete_manifest_is_exit_three(
        self, workspace, tmp_path, capsys, case
    ):
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        manifest = models / "manifest.txt"
        lines, message = MALFORMED_MANIFESTS[case](
            manifest.read_text(encoding="utf-8").splitlines()
        )
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        code = main(["run", str(session), "--models", str(models)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {manifest}: {message}\n"

    # `run` takes its settings from the manifest, whose keys are held to
    # the same ranges as a config file's, before any input is read
    @pytest.mark.parametrize(
        "key, value, why",
        [
            ("cadence_hz", "0.0", "must be > 0"),
            ("window_w", "0", "must be >= 1"),
            ("gaze_yaw_center", "0.0", "must be > 0"),
            ("gaze_pitch_center", "-0.1", "must be > 0"),
            ("gaze_debounce", "0", "must be >= 1"),
        ],
    )
    def test_manifest_key_out_of_range_is_exit_three(
        self, workspace, tmp_path, capsys, key, value, why
    ):
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        manifest = models / "manifest.txt"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        (line_no,) = [
            i for i, line in enumerate(lines, start=1) if line.startswith(f"{key}=")
        ]
        edit = _resealed(
            lambda ls: ([*ls[: line_no - 1], f"{key}={value}", *ls[line_no:]], None)
        )
        lines, _ = edit(lines)
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        code = main(["run", str(session), "--models", str(models)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {manifest}: line {line_no}: {key} {why}\n"

    def test_a_resealed_window_the_forest_was_not_fitted_on_is_exit_four(
        self, workspace, tmp_path, capsys
    ):
        # the forest scores rows of the width it was fitted on, which `run`
        # checks against the manifest's window before any input is read
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        manifest = models / "manifest.txt"
        edit = _resealed(
            lambda ls: ([ln.replace("window_w=20", "window_w=21") for ln in ls], None)
        )
        lines, _ = edit(manifest.read_text(encoding="utf-8").splitlines())
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        code = main(["run", str(session), "--models", str(models)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: forest expects 60 features, window_w=21 yields 63\n"

    @pytest.mark.parametrize("command", ["train", "run"])
    @pytest.mark.parametrize("text, why", SESSION_FAULTS.values(), ids=SESSION_FAULTS)
    def test_a_session_fault_is_exit_three(
        self, workspace, tmp_path, capsys, command, text, why
    ):
        ds0 = tmp_path / "ds0"
        ds0.mkdir()
        path = ds0 / "n00.session"
        path.write_text(text, encoding="utf-8")
        argv = {
            "train": ["train", str(ds0), "--out", str(tmp_path / "m")],
            "run": ["run", str(path), "--models", str(workspace["models"])],
        }[command]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"error: {path}: {why}\n"

    def test_edited_text_model_is_exit_four(self, workspace, tmp_path, capsys):
        import shutil

        edited = tmp_path / "edited"
        shutil.copytree(workspace["models"], edited)
        nb_path = edited / "nb.model"
        text = nb_path.read_text(encoding="utf-8")
        assert "alpha=1.0\n" in text
        nb_path.write_text(
            text.replace("alpha=1.0\n", "alpha=2.0\n"), encoding="utf-8"
        )
        NBModel.load(nb_path)  # still a valid model
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        code = main(
            ["run", str(session), "--models", str(edited)]
        )
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "nb.model does not match the sha256" in captured.err

    def test_models_replaced_after_parsing_is_exit_four(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        # a `train --out` into the models directory finishes after `run`
        # parsed the models and before it reads their manifest
        import shutil

        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        other = tmp_path / "5hz"
        assert main(
            ["train", "--config", str(workspace["config"]), "--cadence", "5",
             str(workspace["ds0"]), "--out", str(other)]
        ) == 0
        load = RFModel.load

        def load_then_retrain(*args):
            model = load(*args)
            for name in ("nb.model", "rf.model", "manifest.txt"):
                shutil.copyfile(other / name, models / name)
            return model

        monkeypatch.setattr(RFModel, "load", load_then_retrain)
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        capsys.readouterr()
        code = main(["run", str(session), "--models", str(models)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        # the text model does not depend on the cadence, the forest does
        assert "rf.model does not match the sha256" in captured.err

    @pytest.mark.parametrize("target", ["config", "manifest"])
    def test_non_utf8_config_or_manifest_is_exit_three(
        self, workspace, tmp_path, capsys, target
    ):
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        config = tmp_path / "needsense.cfg"
        shutil.copy(workspace["config"], config)
        path = config if target == "config" else models / "manifest.txt"
        lines = path.read_bytes().split(b"\n")
        lines[2] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        if target == "config":
            argv = ["train", "--config", str(config), str(workspace["ds0"]),
                    "--out", str(tmp_path / "out")]
        else:
            argv = ["run", str(session), "--models", str(models)]
        code = main(argv)
        assert code == 3
        assert capsys.readouterr().err == f"error: {path}: line 3: not UTF-8 text\n"

    @pytest.mark.parametrize("bad", ["not a manifest line", "artifact=nb.model"])
    def test_malformed_manifest_line_is_exit_three(
        self, workspace, tmp_path, capsys, bad
    ):
        models = tmp_path / "models"
        shutil.copytree(workspace["models"], models)
        manifest = models / "manifest.txt"
        lines = manifest.read_text(encoding="utf-8").splitlines()
        at = lines.index("rf_n_trees=15")
        lines[at] = bad
        manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        code = main(
            ["run", str(session), "--models", str(models)]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: {manifest}: line {at + 1}: expected key=value or "
            "artifact=<name> sha256=<digest>\n"
        )

    def test_missing_manifest_is_exit_three(self, workspace, tmp_path, capsys):
        import shutil

        bare = tmp_path / "bare"
        shutil.copytree(workspace["models"], bare)
        (bare / "manifest.txt").unlink()
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        code = main(
            ["run", str(session), "--models", str(bare)]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert "manifest.txt: training manifest missing" in err

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_malformed_session_file_is_exit_three(
        self, workspace, tmp_path, capsys, command
    ):
        import shutil

        ds0 = tmp_path / "ds0"
        shutil.copytree(workspace["ds0"], ds0)
        bad = sorted(ds0.glob("*.session"))[1]
        lines = bad.read_text(encoding="utf-8").splitlines()
        assert lines[4].startswith("stream=label start=")
        lines[4] = re.sub(r"start=[^ ]+", "start=abc", lines[4])
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if command == "train":
            argv = ["train", "--config", str(workspace["config"]), str(ds0),
                    "--out", str(tmp_path / "m")]
        else:
            argv = ["run", str(bad), "--models", str(workspace["models"])]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: {bad}: line 5: bad number for 'start': abc\n"

    @pytest.mark.parametrize("command", ["train", "run"])
    @pytest.mark.parametrize("case", ["sub_ms_span", "zero_duration"])
    def test_spans_that_round_to_nothing_name_their_line(
        self, workspace, tmp_path, capsys, command, case
    ):
        # `train` writes each session's duration and spans back to the
        # millisecond, where the first span ends where it starts
        ds0 = tmp_path / "ds0"
        shutil.copytree(workspace["ds0"], ds0)
        bad = sorted(ds0.glob("*.session"))[0]
        lines = bad.read_text(encoding="utf-8").splitlines()
        first = re.sub(r"end=\S+", "end=0.0004", lines[1])
        if case == "sub_ms_span":
            lines[1:2] = [first, lines[1].replace("start=0.000", "start=0.0004")]
        else:
            lines = [re.sub(r"duration=\S+", "duration=0.0004", lines[0]), first]
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "m"
        if command == "train":
            argv = ["train", "--config", str(workspace["config"]), str(ds0),
                    "--out", str(out)]
        else:
            argv = ["run", str(bad), "--models", str(workspace["models"])]
        assert main(argv) == 3
        assert capsys.readouterr() == (
            "", f"error: {bad}: line 2: label span start 0.0 not before end 0.0\n"
        )
        assert not out.exists()

    def test_utterance_at_the_duration_is_refused_for_training_only(
        self, workspace, tmp_path, capsys
    ):
        # `train` and `eval` label an utterance by the half-open span that
        # covers it, and none covers the duration; `run` labels nothing
        ds0 = tmp_path / "ds0"
        shutil.copytree(workspace["ds0"], ds0)
        bad = sorted(ds0.glob("*.session"))[0]
        lines = bad.read_text(encoding="utf-8").splitlines()
        duration = float(re.search(r"duration=(\S+)", lines[0])[1])
        lines.append(f'stream=utterance t={fmt_time(duration)} text="help me"')
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "m"
        for argv in (
            ["train", "--config", str(workspace["config"]), str(ds0),
             "--out", str(out)],
            ["eval", "--config", str(workspace["config"]), str(ds0),
             "--folds", "2"],
        ):
            assert main(argv) == 3
            assert capsys.readouterr() == ("", (
                f"error: {bad}: line {len(lines)}: stream utterance: time "
                f"{duration} outside [0, {duration})\n"
            ))
        assert not out.exists()
        assert main(["run", str(bad), "--models", str(workspace["models"])]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_non_utf8_session_file_is_exit_three(
        self, workspace, tmp_path, capsys, command
    ):
        import shutil

        ds0 = tmp_path / "ds0"
        shutil.copytree(workspace["ds0"], ds0)
        bad = sorted(ds0.glob("*.session"))[0]
        data = bad.read_bytes()
        bad.write_bytes(data + b"\xff")
        if command == "train":
            argv = ["train", "--config", str(workspace["config"]), str(ds0),
                    "--out", str(tmp_path / "m")]
        else:
            argv = ["run", str(bad), "--models", str(workspace["models"])]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 3
        line = data.count(b"\n") + 1
        assert err == f"error: {bad}: line {line}: not UTF-8 text\n"

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_malformed_forest_is_exit_three(self, workspace, tmp_path, capsys, case):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(workspace["models"], broken)
        rf_path = broken / "rf.model"
        mutate, why = MALFORMED_MODELS[case]
        lines, line_no = mutate(rf_path.read_text(encoding="utf-8").splitlines())
        rf_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        code = main(
            ["run", str(session), "--models", str(broken)]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: {rf_path}: line {line_no}: {why}")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("case", sorted(MALFORMED_TEXT_MODELS))
    def test_malformed_text_model_is_exit_three(
        self, workspace, tmp_path, capsys, case
    ):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(workspace["models"], broken)
        nb_path = broken / "nb.model"
        lines, line_no = MALFORMED_TEXT_MODELS[case](
            nb_path.read_text(encoding="utf-8").splitlines()
        )
        nb_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        session = sorted(workspace["ds0"].glob("*.session"))[0]
        code = main(
            ["run", str(session), "--models", str(broken)]
        )
        err = capsys.readouterr().err
        assert code == 3
        assert "Traceback" not in err
        assert err.startswith(f"error: {nb_path}: line {line_no}: ")

    def test_flag_overrides_beat_config_file(self, workspace, tmp_path, capsys):
        # the same manifest as a train without window_w=10 in the file
        # proves the flag took effect over the file
        mism = tmp_path / "w10.cfg"
        mism.write_text(LIGHT_CONFIG + "\nwindow_w=10\n", encoding="utf-8")
        models = tmp_path / "models"
        code = main(
            ["train", "--config", str(mism), "--window", "20",
             str(workspace["ds0"]), "--out", str(models)]
        )
        assert code == 0
        assert (models / "manifest.txt").read_bytes() == (
            workspace["models"] / "manifest.txt"
        ).read_bytes()
        capsys.readouterr()


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """`data` with one line deleted, duplicated, swapped with another or
    cut short, or with one byte replaced."""
    lines = data.splitlines(keepends=True)
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "cut", "byte"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "cut":
        body = lines[i].rstrip(b"\r\n")
        lines[i] = body[: draw(st.integers(0, len(body)))] + lines[i][len(body):]
    else:
        out = bytearray(data)
        out[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    return b"".join(lines)


@pytest.fixture(scope="module")
def fuzz_inputs(workspace, tmp_path_factory):
    """A copy of the trained models, the config and two of the sessions
    (`ds0`, for `train`), a 3 s session, the same with three label spans
    (`fz3.session`) and a 3 s script.  The sessions' durations and
    the script's segment durations are one digit each, so no one-byte edit
    declares an hours-long session, which `run` would spend ticking through
    and `simulate` rendering."""
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(workspace["models"], root / "models")
    (root / "ds0").mkdir()
    for path in sorted(workspace["ds0"].glob("*.session"))[:2]:
        shutil.copy(path, root / "ds0")
    shutil.copy(workspace["config"], root / "needsense.cfg")
    s00 = load_session(sorted(workspace["ds0"].glob("*.session"))[0])
    record = SessionRecord(
        session_id="fz",
        duration=3.0,
        streams={
            "gaze_raw": [
                m for m in s00.messages("gaze_raw") if m.originating_time < 3
            ],
            "utterance": [TimestampedMessage(1.5, "where does this piece go")],
        },
        labels=[LabelSpan(0.0, 3.0, NeedLevelLabel.L0)],
    )
    lines = record.to_lines()
    lines[0] = "format_version=1 session_id=fz duration=3"
    session = root / "fz.session"
    session.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines[1:2] = [
        "stream=label start=0.000 end=1.000 level=Flow",
        "stream=label start=1.000 end=2.000 level=L2",
        "stream=label start=2.000 end=3.000 level=L3",
    ]
    (root / "fz3.session").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "fz.script").write_text(
        "script_version=1 seed=3 noise=0.02\n"
        "segment duration=2 label=Flow gaze=fix-task\n"
        'utterance offset=0.5 text="this looks right"\n'
        "segment duration=1 label=L3 gaze=alternate:0.5\n"
        'utterance offset=0.25 text="can you help me"\n',
        encoding="utf-8",
    )
    return root, session


def run_captured(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of `main(argv)` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_in_process(argv: list[str], stdin: str = "") -> tuple[int, str]:
    code, _, err = run_captured(argv, stdin)
    return code, err


def run_file_and_stdin(path: Path, models: Path):
    """`run` of the session file at `path`, then of its bytes on standard
    input, decoded as a C or POSIX locale decodes them: each as (exit code,
    stdout, stderr), the file's stderr without its `<path>: ` prefix."""
    code, out, err = run_captured(["run", str(path), "--models", str(models)])
    text = path.read_bytes().decode("utf-8", "surrogateescape")
    return (
        (code, out, err.replace(f"error: {path}: ", "error: ", 1)),
        run_captured(["run", "-", "--models", str(models)], text),
    )


# what a file's label rule refuses: a span at fault, or no span at all
LABEL_RULE_ERROR = re.compile(r"error: (line \d+: label |session has no label spans)")

# what only one reader mode refuses: live input, which `run` reads, a need
# stream or a message out of global time order; labeled input, which
# `train` reads, an utterance at the duration
LIVE_ONLY = re.compile(r"line \d+: (stream '\w+' is not a live input|message at .* order)")
LABELED_ONLY = re.compile(r"line \d+: stream utterance: time \S+ outside ")


def train_and_run(path: Path, root: Path) -> tuple[str | None, str | None]:
    """What `train` of the directory holding the session file at `path`,
    and nothing else, and `run` of that file make of reading it: None where
    the command read it, else its error after the `error: <path>: ` that
    names the file.  A failed training stage counts as read."""
    verdicts = []
    for argv in (
        ["train", "--config", str(root / "needsense.cfg"), str(path.parent),
         "--out", str(root / "out")],
        ["run", str(path), "--models", str(root / "models")],
    ):
        try:
            code, err = run_in_process(argv)
        finally:
            shutil.rmtree(root / "out", ignore_errors=True)
        if code == 0 or err.startswith("error: stage "):
            verdicts.append(None)
        else:
            assert code == 3 and err.startswith(f"error: {path}: "), err
            verdicts.append(err.removeprefix(f"error: {path}: "))
    return verdicts[0], verdicts[1]


def fault_line(verdict: str | None) -> float:
    """The line a verdict names; a file read, or an error found once its
    last line is read, lies past every line."""
    match = re.match(r"line (\d+): ", verdict or "")
    return int(match.group(1)) if match else math.inf


def two_fault_s00(root: Path, directory: Path) -> Path:
    """The fixture's s00 in `directory`, with a bad number on line 8 and a
    byte that is not UTF-8 on line 501."""
    lines = (root / "ds0" / "s00.session").read_bytes().splitlines(keepends=True)
    assert lines[7].startswith(b"stream=gaze_raw ") and len(lines) > 501
    lines[7] = re.sub(rb"yaw=\S+", b"yaw=abc", lines[7])
    lines[500] = lines[500].replace(b"stream=", b"stream=\xff", 1)
    path = directory / "s00.session"
    path.write_bytes(b"".join(lines))
    return path


class TestMutatedInputs:
    """Every mutated input ends in exit 0, 3 or 4 without a traceback, and
    a data error names the mutated file, or a line of standard input."""

    @pytest.mark.parametrize(
        "target, command",
        [
            pytest.param("models/nb.model", "run", id="models/nb.model"),
            pytest.param("models/rf.model", "run", id="models/rf.model"),
            pytest.param("models/manifest.txt", "run", id="models/manifest.txt"),
            # `run` reads no config file
            pytest.param("needsense.cfg", "gen-scripts", id="needsense.cfg"),
            pytest.param("needsense.cfg", "simulate", id="needsense.cfg-simulate"),
            pytest.param("needsense.cfg", "train", id="needsense.cfg-train"),
            pytest.param("fz.session", "run", id="fz.session"),
            pytest.param("ds0/s00.session", "train", id="ds0.session-train"),
            pytest.param("fz.script", "simulate", id="fz.script"),
        ],
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_file(self, fuzz_inputs, target, command, data):
        root, session = fuzz_inputs
        path = root / target
        original = path.read_bytes()
        mutant = data.draw(mutated(original))
        path.write_bytes(mutant)
        # `train` fits the shallow forest of the fixture's config
        fixture_config = target == "needsense.cfg" or command == "train"
        config = ["--config", str(root / "needsense.cfg")] if fixture_config else []
        out = ["--out", str(root / "out")]
        argv = {
            "gen-scripts": ["gen-scripts", *config, "--count", "1", *out],
            "simulate": ["simulate", *config, str(root / "fz.script"), *out],
            "train": ["train", *config, str(root / "ds0"), *out],
            "run": ["run", str(session), "--models", str(root / "models")],
        }[command]
        try:
            code, err = run_in_process(argv)
        finally:
            path.write_bytes(original)
            shutil.rmtree(root / "out", ignore_errors=True)
        assert code in (0, 3, 4), err
        assert "Traceback" not in err
        if code == 3:
            assert err.startswith(f"error: {path}: "), err
        if code == 0 and target == "models/manifest.txt":
            # the sealed manifest admits no edit but a line end's spelling
            assert list(text_lines([mutant.decode("utf-8")])) == list(
                text_lines([original.decode("utf-8")])
            )

    @pytest.mark.parametrize("name", ["fz.session", "fz3.session"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_file_runs_as_its_bytes_on_stdin(self, fuzz_inputs, name, data):
        # differential: one input, the two ways `run` reads it, one verdict
        root, _ = fuzz_inputs
        path = root / "mutant" / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(data.draw(mutated((root / name).read_bytes())))
        from_file, from_stdin = run_file_and_stdin(path, root / "models")
        code, out, err = from_file
        if code == 3 and from_stdin[0] == 0 and LABEL_RULE_ERROR.match(err):
            return  # the one rule only a file keeps: its spans tile it
        assert (code, err) == (from_stdin[0], from_stdin[2])
        if code == 0:
            assert out == from_stdin[1]

    def test_a_file_names_its_first_fault_in_line_order(self, fuzz_inputs, tmp_path):
        root, _ = fuzz_inputs
        path = two_fault_s00(root, tmp_path)
        fault = "line 8: bad number for 'yaw': abc\n"
        from_file, from_stdin = run_file_and_stdin(path, root / "models")
        assert from_file == from_stdin == (3, "", f"error: {fault}")
        # the plain case of the differential pair `train` against `run <file>`
        assert train_and_run(path, root) == (fault, fault)
        code, err = run_in_process(
            ["eval", "--config", str(root / "needsense.cfg"), str(tmp_path)]
        )
        assert (code, err) == (3, f"error: {path}: {fault}")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_train_reads_a_file_as_run_does(self, fuzz_inputs, data):
        # differential: one input, `train` and `run <file>`, one reading
        # but for the rules of their reader modes
        root, _ = fuzz_inputs
        path = root / "train" / "fz3.session"  # the only file of its directory
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(data.draw(mutated((root / "fz3.session").read_bytes())))
        train, run = train_and_run(path, root)
        if train != run:
            live = bool(run and LIVE_ONLY.match(run))
            labeled = bool(train and LABELED_ONLY.match(train))
            assert live or labeled, (train, run)
            # a reader stops at a rule of its mode alone only on a line the
            # other reader passes, or where the other stops at one of its own
            assert labeled or fault_line(run) < fault_line(train), (train, run)
            assert live or fault_line(train) < fault_line(run), (train, run)

    @pytest.mark.parametrize(
        "case", ["need-stream", "global-order", "utterance-at-end", "gaze-swap"]
    )
    def test_train_and_run_differ_only_by_their_reader_modes(
        self, fuzz_inputs, tmp_path, case
    ):
        root, _ = fuzz_inputs
        lines = (root / "fz3.session").read_text(encoding="utf-8").splitlines()
        utterance = next(
            i for i, line in enumerate(lines) if line.startswith("stream=utterance ")
        )
        if case == "need-stream":
            # after the header and the three label spans
            lines.insert(4, "stream=need_mutual t=0.000 v=0.500")
            expected = (None, "line 5: stream 'need_mutual' is not a live input\n")
        elif case == "global-order":
            # each stream's times still rise, but not every message's: the
            # utterance at 1.5 s moves to just after the gaze frame at 2 s
            moved = lines.pop(utterance)
            later = 1 + next(
                i for i, line in enumerate(lines) if "stream=gaze_raw t=2.000 " in line
            )
            lines.insert(later, moved)
            expected = (
                None,
                f"line {later + 1}: message at t=1.5 arrives after t=2.0; live "
                "input must be in global time order\n",
            )
        elif case == "gaze-swap":
            # one stream out of order reads alike in both modes: the gaze
            # frame at 0.5 s moves to just after the one at 2 s
            moved = lines.pop(
                next(i for i, ln in enumerate(lines) if "gaze_raw t=0.500 " in ln)
            )
            later = 1 + next(
                i for i, ln in enumerate(lines) if "gaze_raw t=2.000 " in ln
            )
            lines.insert(later, moved)
            error = (
                f"line {later + 1}: stream gaze_raw: non-monotone time 0.5 "
                "after 2.0\n"
            )
            expected = (error, error)
        else:
            # no half-open label span covers an utterance at the duration
            lines.append(lines.pop(utterance).replace("t=1.500", "t=3.000"))
            expected = (
                f"line {len(lines)}: stream utterance: time 3.0 outside [0, 3.0)\n",
                None,
            )
        path = tmp_path / "fz3.session"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert train_and_run(path, root) == expected

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_stdin(self, fuzz_inputs, data):
        root, session = fuzz_inputs
        # read as the standard input of a C or POSIX locale decodes it
        text = data.draw(mutated(session.read_bytes())).decode(
            "utf-8", "surrogateescape"
        )
        code, err = run_in_process(
            ["run", "-", "--models", str(root / "models")],
            text,
        )
        assert code in (0, 3, 4), err
        assert "Traceback" not in err
        if code == 3:
            assert re.match(r"error: line [1-9][0-9]*: ", err), err
