"""Command-line surface: simulate sessions, train the two stages,
evaluate, and decide: `run` takes every setting from the training
manifest of the models it runs and reads a session file or standard
input line by line through one live decision engine.  `train` and `eval`
read each raw session line by line too, its gaze frames going through the
same engine as each is read (`fusion.held_session`), until the sessions
read would make a training matrix past `MAX_MATRIX_CELLS`.  Every text
input but `rf.model`, which is parsed from its bytes, passes through
`streams.text_lines`, so a data error names the input's first faulty
line in line order, after a file's path.

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
from typing import Callable, Iterable

from .config import Config, add_item, config_from_items, load_config
from .forest import RFModel
from .fusion import (
    FusedDecision,
    HeldSession,
    derived_session,
    export_fusion_matrix,
    held_session,
    live_pipeline,
    train_rf,
)
from .language import CorpusError, NBModel, train_from_utterances
from .sessions import (
    SessionFormatError,
    SessionReader,
    SessionRecord,
    export_language_corpus,
    fmt_time,
    fmt_value,
    save_derived,
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
# the most float64 cells, rows x 3 * window_w, of the training matrix `train`
# and `eval` build: beyond about 45 MB, their peak grows about 16 B a cell
# (the 20-session suite at 100 Hz: 4.6M cells, 118 MB; with window_w=76:
# 17.2M cells, 323 MB), and the config bounds each key, not their product
MAX_MATRIX_CELLS = 1 << 24


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


def _read_sessions(directory: str, cfg: Config) -> list[HeldSession]:
    """Each raw session in `directory`, read a line at a time as `load`
    reads it, with stage 1's gaze half done as it is read: each gaze frame
    goes through the gaze models as its line is read and is then dropped,
    so only the holds and labels on the tick grid are kept.  Past the
    first that would make the training matrix exceed `MAX_MATRIX_CELLS`,
    no session is read."""
    paths = sorted(Path(directory).glob("*.session"))
    if not paths:
        raise StageError(f"no .session files in {directory}")
    sessions, rows, dim = [], 0, 3 * cfg.window_w
    for path in paths:
        held = read_lines(path, lambda lines: _held_session(lines, cfg))
        sessions.append(held)
        # `export_fusion_matrix`'s rows: the labeled ticks, less warm-up
        rows += max(len(held.labels) - cfg.window_w + 1, 0)
        if rows * dim > MAX_MATRIX_CELLS:
            raise StageError(
                f"the training matrix would hold at least {rows * dim:,} cells "
                f"({rows:,} rows x {dim}), above the bound of "
                f"{MAX_MATRIX_CELLS:,}: lower cadence_hz={cfg.cadence_hz} or "
                f"window_w={cfg.window_w}"
            )
    return sessions


def _held_session(lines: Iterable[str], cfg: Config) -> HeldSession:
    # `train` and `eval` label each utterance by the span covering it
    reader = SessionReader(lines, labeled=True, whole=True)
    utterances = []
    # the reader fills its `labels` as it reads
    record = SessionRecord(
        reader.session_id, reader.duration, {"utterance": utterances},
        reader.labels,
    )

    def gaze_frames():
        for _, name, item in reader:
            if name == "gaze_raw":
                yield item
            elif name == "utterance":
                utterances.append(item)
            # a need stream is checked by the reader and dropped

    return held_session(record, gaze_frames(), cfg.gaze_config(), cfg.cadence_hz)


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
        try:
            record = simulate(script, session_id, thresholds=cfg.thresholds())
            record.save(out / f"{session_id}.session")
        except ValueError as exc:  # a script that renders to invalid values
            exc.args = (f"{path}: {exc}",)
            raise
    print(f"wrote {len(args.scripts)} sessions to {out}")
    return EXIT_OK


def _write_stage1(sessions: list[HeldSession], nb: NBModel, out: Path):
    """Stage 1 of each raw session, written under `out` as a derived
    session: the frames of each and the names of the files."""
    frames, ds1_names = [], []
    for held in sessions:
        ticks, session_frames = derived_session(held, nb)
        name = f"ds1/{held.record.session_id}.session"
        save_derived(out / name, held.record, ticks, session_frames)
        frames.append(session_frames)
        ds1_names.append(name)
    return frames, ds1_names


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _active_config(args)
    sessions = _read_sessions(args.ds0, cfg)
    out = Path(args.out)
    ds1_dir = out / "ds1"
    ds1_dir.mkdir(parents=True, exist_ok=True)

    try:
        nb = train_from_utterances(
            export_language_corpus([held.record for held in sessions]),
            alpha=cfg.nb_alpha,
            use_aggregates=cfg.nb_use_aggregates,
        )
    except CorpusError as exc:
        raise StageError(f"stage 1: {exc}")
    nb.save(out / NB_MODEL_NAME)

    frames, ds1_names = _write_stage1(sessions, nb, out)
    try:
        matrix = [export_fusion_matrix(sessions, frames, cfg.window_w)]
        n_sessions, n_rows, dim = len(sessions), matrix[0].n_rows, matrix[0].dim
        # the fit reads only the matrix, and that only until its tables are
        # built: the sessions are freed before it and the matrix is handed
        # over, so no name here holds it while the trees grow
        del sessions, frames
        rf = train_rf(matrix.pop(), cfg.forest_config())
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
        f"trained on {n_sessions} sessions: {NB_MODEL_NAME}, "
        f"{len(ds1_names)} derived sessions, {RF_MODEL_NAME} "
        f"({n_rows} rows x {dim}); manifest at "
        f"{out / MANIFEST_NAME}"
    )
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import run_full_eval
    cfg = _active_config(args)
    sessions = _read_sessions(args.ds0, cfg)
    text = run_full_eval(sessions, cfg, args.folds).render()
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


def _check_manifest(models: Path, rf: RFModel, parsed: dict[str, str]) -> Config:
    """The config the models were trained under, read from their
    manifest once the manifest's lines, the window and the models parsed
    (`parsed`: the sha256 of the bytes parsed, per file name) are shown to
    be the ones `train` wrote."""
    path = models / MANIFEST_NAME
    if not path.is_file():
        raise SessionFormatError(f"{path}: training manifest missing")
    cfg, digests, sealed = read_lines(path, _parse_manifest)
    if not sealed:
        raise MismatchError(
            f"{path}: lines do not match the sha256 on its {MANIFEST_SEAL} line"
        )
    for name, digest in parsed.items():
        if digests.get(name) != digest:
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


def _run(
    cfg: Config, nb: NBModel, rf: RFModel, lines, out, whole: bool = False
) -> int:
    """Decide over the session whose `text_lines` are `lines`, read with
    live input streams only, in non-decreasing global time order, so each
    decision uses only the input read before it.  Decisions are written
    and dropped as they are made, so memory stays flat however long the
    session runs.  Input that has arrived `whole`, a file, is scored in
    blocks, and once its last line is read its label spans must tile it."""
    written = 0

    def write(decisions: list[FusedDecision]) -> None:
        nonlocal written
        for d in decisions:
            # a line at a time: the text layer passes a long write on whole,
            # and a pipe closed during it loses the rest without an error
            out.write(_decision_line(d) + "\n")
        out.flush()  # a pipe reader sees each decision as its block is made
        written += len(decisions)

    pipe, score_rest = live_pipeline(
        nb, rf, cfg.gaze_config(), cfg.cadence_hz, cfg.window_w, write, whole
    )
    reader = SessionReader(lines, live=True, whole=whole)
    for _, name, item in reader:
        if name != "label":
            pipe.emit(name, item.originating_time, item.payload)
    pipe.finalize(reader.duration)
    score_rest()
    if not written:
        print(
            f"warning: session shorter than the fusion warm-up "
            f"({cfg.window_w} ticks at {cfg.cadence_hz} Hz); no decisions",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    models = Path(args.models)
    # each model is checked against the manifest by the bytes it was parsed
    # from, so a `train` rewriting the directory meanwhile cannot pass
    nb_sha, rf_sha = hashlib.sha256(), hashlib.sha256()
    nb = NBModel.load(models / NB_MODEL_NAME, nb_sha)
    rf = RFModel.load(models / RF_MODEL_NAME, rf_sha)
    parsed = {NB_MODEL_NAME: nb_sha.hexdigest(), RF_MODEL_NAME: rf_sha.hexdigest()}
    cfg = _check_manifest(models, rf, parsed)
    if args.session is None or args.session == "-":
        return _run(cfg, nb, rf, text_lines(sys.stdin), sys.stdout)
    return read_lines(
        args.session,
        lambda lines: _run(cfg, nb, rf, lines, sys.stdout, whole=True),
    )


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least `low`.  Text that is no
    integer gets the message `type=int` gives."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


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
    p.add_argument(
        "--count", type=_int_at_least(1), default=20, help="number of scripts"
    )
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
    p.add_argument(
        "--folds", type=_int_at_least(2), default=10, help="cross-validation folds"
    )
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
