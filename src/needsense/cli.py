"""Command-line surface: simulate sessions, train the two stages,
evaluate, and decide: `run` scores a session file in one batch and feeds
standard input through the live decision pipeline.

Exit codes: 0 success, 2 usage, 3 data error, 4 model/config mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import Iterable

from .config import Config, load_config
from .forest import RFModel
from .fusion import (
    FusedDecision,
    live_pipeline,
    predict_session,
    stage1_materialize,
    train_rf,
)
from .language import CorpusError, NBModel, train_from_utterances
from .evaluation import run_full_eval
from .sessions import (
    SessionFormatError,
    SessionReader,
    derived_record,
    export_fusion_matrix,
    export_language_corpus,
    fmt_time,
    fmt_value,
    load as load_session,
)
from .simulate import benchmark_suite, load_script, save_script, simulate
from .streams import read_lines, text_lines

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MISMATCH = 4

MANIFEST_NAME = "manifest.txt"
NB_MODEL_NAME = "nb.model"
RF_MODEL_NAME = "rf.model"


class MismatchError(Exception):
    """Models differ from their manifest or were trained under another
    run-time config."""


class StageError(Exception):
    """A training stage failed; the message names the stage."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _active_config(args: argparse.Namespace) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "cadence", None) is not None:
        cfg.cadence_hz = args.cadence
    if getattr(args, "window", None) is not None:
        cfg.window_w = args.window
    cfg.validate()
    return cfg


def _load_sessions(directory: str):
    paths = sorted(Path(directory).glob("*.session"))
    if not paths:
        raise StageError(f"no .session files in {directory}")
    return [load_session(p) for p in paths]


def cmd_gen_scripts(args: argparse.Namespace) -> int:
    cfg = _active_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scripts = benchmark_suite(args.count, seed=cfg.seed, noise=args.noise)
    for i, script in enumerate(scripts):
        save_script(script, out / f"s{i:02d}.script")
    print(f"wrote {len(scripts)} scripts to {out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _active_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for path in args.scripts:
        script = load_script(path)
        session_id = Path(path).stem
        record = simulate(script, session_id, thresholds=cfg.thresholds())
        record.save(out / f"{session_id}.session")
    print(f"wrote {len(args.scripts)} sessions to {out}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _active_config(args)
    records = _load_sessions(args.ds0)
    out = Path(args.out)
    ds1_dir = out / "ds1"
    ds1_dir.mkdir(parents=True, exist_ok=True)

    try:
        nb = train_from_utterances(
            export_language_corpus(records),
            alpha=cfg.nb_alpha,
            use_aggregates=cfg.nb_use_aggregates,
        )
    except CorpusError as exc:
        raise StageError(f"stage 1: {exc}")
    nb.save(out / NB_MODEL_NAME)

    derived = []
    ds1_names = []
    for record in records:
        ticks, frames = stage1_materialize(
            record, nb, cfg.gaze_config(), cfg.cadence_hz
        )
        name = f"ds1/{record.session_id}.session"
        derived_record(record, ticks, frames).save(out / name)
        derived.append((ticks, frames))
        ds1_names.append(name)

    try:
        matrix = export_fusion_matrix(records, derived, cfg.window_w)
        rf = train_rf(matrix, cfg.forest_config())
    except ValueError as exc:
        raise StageError(f"stage 2: {exc}")
    rf.save(out / RF_MODEL_NAME)

    lines = ["manifest_version=1"]
    lines.extend(cfg.to_lines())
    for name in [NB_MODEL_NAME, *ds1_names, RF_MODEL_NAME]:
        lines.append(f"artifact={name} sha256={_sha256(out / name)}")
    (out / MANIFEST_NAME).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        f"trained on {len(records)} sessions: {NB_MODEL_NAME}, "
        f"{len(ds1_names)} derived sessions, {RF_MODEL_NAME} "
        f"({matrix.n_rows} rows x {matrix.dim}); manifest at "
        f"{out / MANIFEST_NAME}"
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = _active_config(args)
    records = _load_sessions(args.ds0)
    report = run_full_eval(
        records,
        gaze_config=cfg.gaze_config(),
        forest_config=cfg.forest_config(),
        cadence_hz=cfg.cadence_hz,
        window=cfg.window_w,
        nb_alpha=cfg.nb_alpha,
        nb_use_aggregates=cfg.nb_use_aggregates,
        folds=args.folds,
        seed=cfg.seed,
    )
    text = report.render()
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


# Config keys that change what `run` computes but that no model file
# encodes; the models' own settings are covered by their sha256.
RUN_KEYS = (
    "cadence_hz",
    "window_w",
    "gaze_yaw_center",
    "gaze_pitch_center",
    "gaze_debounce",
    "min_confidence",
)


def _parse_manifest(lines: Iterable[str]) -> tuple[dict[str, str], dict[str, str]]:
    """The config items and the sha256 per artifact of a training
    manifest."""
    items: dict[str, str] = {}
    digests: dict[str, str] = {}
    for line_no, line in enumerate(lines, start=1):
        key, eq, value = line.strip().partition("=")
        name, sha, digest = value.partition(" sha256=")
        if key == "artifact" and sha:
            digests[name] = digest
        elif eq and key != "artifact":
            items[key] = value
        elif line.strip():
            raise SessionFormatError(
                "expected key=value or artifact=<name> sha256=<digest>", line_no
            )
    if items.get("manifest_version") != "1":
        raise SessionFormatError("unsupported manifest version")
    return items, digests


def _check_manifest(cfg: Config, models: Path, rf: RFModel) -> None:
    """The parsed models must be the ones the manifest records, trained
    under the active values of every run-time key."""
    path = models / MANIFEST_NAME
    if not path.is_file():
        raise SessionFormatError(f"{path}: training manifest missing")
    items, digests = read_lines(path, _parse_manifest)
    for name in (NB_MODEL_NAME, RF_MODEL_NAME):
        if digests.get(name) != _sha256(models / name):
            raise MismatchError(
                f"{models / name} does not match the sha256 recorded in "
                f"{MANIFEST_NAME}"
            )
    active = dict(line.split("=", 1) for line in cfg.to_lines())
    for key in RUN_KEYS:
        if items.get(key) != active[key]:
            raise MismatchError(
                f"models were trained with {key}={items.get(key)}, "
                f"configured {active[key]}"
            )
    if rf.n_features != 3 * cfg.window_w:
        raise MismatchError(
            f"forest expects {rf.n_features} features, window_w="
            f"{cfg.window_w} yields {3 * cfg.window_w}"
        )


def _decision_line(d: FusedDecision) -> str:
    return (
        f"t={fmt_time(d.t)} mutual={fmt_value(d.mutual)} "
        f"conf={fmt_value(d.confirmatory)} lang={fmt_value(d.language)} "
        f"fused={fmt_value(d.score)} help={d.label}"
    )


def _warn_warmup(cfg: Config) -> None:
    print(
        f"warning: session shorter than the fusion warm-up "
        f"({cfg.window_w} ticks at {cfg.cadence_hz} Hz); no decisions",
        file=sys.stderr,
    )


def _run_stdin(cfg: Config, nb: NBModel, rf: RFModel, stream, out) -> int:
    """Causal line-by-line mode: each decision is printed using only the
    input received so far, read as a session file is but with live input
    streams only, in non-decreasing global time order."""
    pipe, sink = live_pipeline(
        nb, rf, cfg.gaze_config(), cfg.cadence_hz, cfg.window_w
    )

    emitted = 0

    def flush() -> None:
        nonlocal emitted
        if emitted < len(sink):
            for decision in sink[emitted:]:
                out.write(_decision_line(decision) + "\n")
            emitted = len(sink)
            out.flush()  # a pipe reader sees each decision as its tick is reached

    reader = SessionReader(text_lines(stream), in_time_order=True)
    for line_no, name, item in reader:
        if name == "label":
            continue
        if name not in ("gaze_raw", "utterance"):
            raise SessionFormatError(
                f"stream {name!r} is not a live input", line_no
            )
        pipe.emit(name, item.originating_time, item.payload)
        flush()
    pipe.finalize(reader.duration)
    flush()
    if not sink:
        _warn_warmup(cfg)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _active_config(args)
    models = Path(args.models)
    nb = NBModel.load(models / NB_MODEL_NAME)
    rf = RFModel.load(models / RF_MODEL_NAME)
    _check_manifest(cfg, models, rf)
    if args.session is None or args.session == "-":
        return _run_stdin(cfg, nb, rf, sys.stdin, sys.stdout)
    # a file has arrived whole, so it is scored in one batch; the live
    # shell's holds give the same decisions (acceptance criterion 6)
    record = load_session(args.session)
    derived = stage1_materialize(record, nb, cfg.gaze_config(), cfg.cadence_hz)
    decisions = predict_session(derived, rf, cfg.window_w)
    for d in decisions:
        sys.stdout.write(_decision_line(d) + "\n")
    if not decisions:
        _warn_warmup(cfg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="needsense",
        description=(
            "Detect when a user needs assistance by fusing gaze patterns "
            "and utterance classification over sliding windows."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key=value config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument(
        "--cadence", type=float, help="tick cadence in Hz (overrides config)"
    )
    common.add_argument(
        "--window", type=int, help="fusion window in ticks (overrides config)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen-scripts",
        parents=[common],
        help="write a deterministic benchmark scenario suite",
    )
    p.add_argument("--count", type=int, default=20, help="number of scripts")
    p.add_argument(
        "--noise", type=float, default=0.02, help="gaze noise std-dev (radians)"
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_gen_scripts)

    p = sub.add_parser(
        "simulate", parents=[common], help="render scenario scripts to sessions"
    )
    p.add_argument("scripts", nargs="+", help="scenario script files")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "train",
        parents=[common],
        help="two-stage training: text model, derived sessions, then forest",
    )
    p.add_argument("ds0", help="directory of recorded .session files")
    p.add_argument("--out", required=True, help="output directory for models")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser(
        "eval", parents=[common], help="cross-validated per-model metrics"
    )
    p.add_argument("ds0", help="directory of recorded .session files")
    p.add_argument("--folds", type=int, default=10, help="cross-validation folds")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser(
        "run",
        parents=[common],
        help="score a session file (or read one live on stdin) and print "
        "decisions",
    )
    p.add_argument(
        "session",
        nargs="?",
        help="session file; omit or '-' to read live from standard input",
    )
    p.add_argument(
        "--models", required=True, help="directory holding trained models"
    )
    p.set_defaults(fn=cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except MismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (StageError, OSError, ValueError) as exc:  # every data error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
