"""Command-line surface: simulate sessions, train the two stages,
evaluate, and decide: `run` takes every setting from the training
manifest of the models it runs, scores a session file in one batch and
feeds standard input through the live decision pipeline.

Exit codes: 0 success, 1 standard output closed early (a reader such as
`head` stopped; no error line), 2 usage, 3 data error, 4 models or
manifest changed since `train` wrote them.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterable

from .config import Config, add_item, config_from_items, load_config
from .forest import RFModel
from .fusion import (
    FusedDecision,
    live_pipeline,
    predict_session,
    stage1_materialize,
    train_rf,
)
from .language import CorpusError, NBModel, train_from_utterances
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
from .streams import read_lines, text_lines

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_MISMATCH = 4

MANIFEST_NAME = "manifest.txt"
NB_MODEL_NAME = "nb.model"
RF_MODEL_NAME = "rf.model"
# the last manifest line: the sha256 of the lines before it
MANIFEST_SEAL = "manifest_sha256"


class MismatchError(Exception):
    """A manifest's lines differ from the ones `train` sealed it with, or
    the models differ from the manifest or from each other."""


class StageError(Exception):
    """A training stage failed; the message names the stage."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _active_config(args: argparse.Namespace) -> Config:
    cfg = load_config(args.config) if args.config else Config()
    if getattr(args, "seed", None) is not None:
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
    from .simulate import benchmark_suite, save_script
    cfg = _active_config(args)
    scripts = benchmark_suite(args.count, seed=cfg.seed, noise=args.noise)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for i, script in enumerate(scripts):
        save_script(script, out / f"s{i:02d}.script")
    print(f"wrote {len(scripts)} scripts to {out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .simulate import load_script, simulate
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
    text = "".join(f"{line}\n" for line in lines)
    seal = hashlib.sha256(text.encode("utf-8")).hexdigest()
    (out / MANIFEST_NAME).write_text(
        f"{text}{MANIFEST_SEAL}={seal}\n", encoding="utf-8"
    )
    print(
        f"trained on {len(records)} sessions: {NB_MODEL_NAME}, "
        f"{len(ds1_names)} derived sessions, {RF_MODEL_NAME} "
        f"({matrix.n_rows} rows x {matrix.dim}); manifest at "
        f"{out / MANIFEST_NAME}"
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import run_full_eval
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


def _parse_manifest(lines: Iterable[str]) -> tuple[Config, dict[str, str], bool]:
    """The config and the sha256 per artifact that a training manifest
    records, and whether its last line holds the sha256 of the lines
    before it."""
    items: dict[str, str] = {}
    digests: dict[str, str] = {}
    version = seal = None
    body = hashlib.sha256()
    for line_no, line in enumerate(lines, start=1):
        if seal is not None:
            raise SessionFormatError(
                f"line after the {MANIFEST_SEAL} line", line_no
            )
        key, eq, value = line.partition("=")
        name, sha, digest = value.partition(" sha256=")
        if key == MANIFEST_SEAL:
            seal = value
            continue
        if key == "manifest_version":
            version = value
        elif key == "artifact" and sha:
            digests[name] = digest
        elif eq and key != "artifact":
            add_item(items, line, line_no)
        else:
            raise SessionFormatError(
                "expected key=value or artifact=<name> sha256=<digest>", line_no
            )
        body.update(f"{line}\n".encode("utf-8"))
    if version != "1":
        raise SessionFormatError("unsupported manifest version")
    if seal is None:
        raise SessionFormatError(f"{MANIFEST_SEAL} line missing")
    for field in fields(Config):
        if field.name not in items:
            raise SessionFormatError(f"config key {field.name!r} missing")
    return config_from_items(items), digests, seal == body.hexdigest()


def _check_manifest(models: Path, rf: RFModel) -> Config:
    """The config the models were trained under, read from their
    manifest once the manifest's lines, the parsed models and the window
    are shown to be the ones `train` wrote."""
    path = models / MANIFEST_NAME
    if not path.is_file():
        raise SessionFormatError(f"{path}: training manifest missing")
    cfg, digests, sealed = read_lines(path, _parse_manifest)
    if not sealed:
        raise MismatchError(
            f"{path}: lines do not match the sha256 on its {MANIFEST_SEAL} line"
        )
    for name in (NB_MODEL_NAME, RF_MODEL_NAME):
        if digests.get(name) != _sha256(models / name):
            raise MismatchError(
                f"{models / name} does not match the sha256 recorded in "
                f"{MANIFEST_NAME}"
            )
    if rf.n_features != 3 * cfg.window_w:
        raise MismatchError(
            f"forest expects {rf.n_features} features, window_w="
            f"{cfg.window_w} yields {3 * cfg.window_w}"
        )
    return cfg


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
    streams only, in non-decreasing global time order.  Decisions are
    written and dropped as they are made, so memory stays flat however
    long the session runs."""
    pipe, sink = live_pipeline(
        nb, rf, cfg.gaze_config(), cfg.cadence_hz, cfg.window_w
    )
    written = 0

    def flush() -> None:
        nonlocal written
        if sink:
            out.write("".join(_decision_line(d) + "\n" for d in sink))
            out.flush()  # a pipe reader sees each decision as its tick is reached
            written += len(sink)
            sink.clear()

    reader = SessionReader(text_lines(stream), live=True)
    for _, name, item in reader:
        if name != "label":
            pipe.emit(name, item.originating_time, item.payload)
            flush()
    pipe.finalize(reader.duration)
    flush()
    if not written:
        _warn_warmup(cfg)
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    models = Path(args.models)
    nb = NBModel.load(models / NB_MODEL_NAME)
    rf = RFModel.load(models / RF_MODEL_NAME)
    cfg = _check_manifest(models, rf)
    if args.session is None or args.session == "-":
        return _run_stdin(cfg, nb, rf, sys.stdin, sys.stdout)
    # a file is read as live input is but has arrived whole, so it is
    # scored in one batch; the live shell's holds give the same decisions
    # (acceptance criterion 6)
    record = load_session(args.session, live=True)
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
    # each command takes the flags it reads; `run` reads its manifest
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="FILE", help="key=value config file")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, help="override the config seed")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument(
        "--cadence", type=float, help="tick cadence in Hz (overrides config)"
    )
    grid.add_argument(
        "--window", type=int, help="fusion window in ticks (overrides config)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen-scripts",
        parents=[config, seed],
        help="write a deterministic benchmark scenario suite",
    )
    p.add_argument("--count", type=int, default=20, help="number of scripts")
    p.add_argument(
        "--noise", type=float, default=0.02, help="gaze noise std-dev (radians)"
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_gen_scripts)

    p = sub.add_parser(
        "simulate", parents=[config], help="render scenario scripts to sessions"
    )
    p.add_argument("scripts", nargs="+", help="scenario script files")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser(
        "train",
        parents=[config, seed, grid],
        help="two-stage training: text model, derived sessions, then forest",
    )
    p.add_argument("ds0", help="directory of recorded .session files")
    p.add_argument("--out", required=True, help="output directory for models")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser(
        "eval",
        parents=[config, seed, grid],
        help="cross-validated per-model metrics",
    )
    p.add_argument("ds0", help="directory of recorded .session files")
    p.add_argument("--folds", type=int, default=10, help="cross-validation folds")
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser(
        "run",
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
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout stopped early, which is not bad input; the
        # output still buffered goes to os.devnull so that exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED
    except MismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (StageError, OSError, ValueError) as exc:  # every data error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
