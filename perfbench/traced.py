"""Run one needsense command with a timed span around each call into a
module's public functions, then write the spans to a JSON file.

    python3 perfbench/traced.py SPANS_FILE RUN_ID <needsense arguments>

A span is [id, parent id (-1 for none), name, start, end], with times from
time.perf_counter, which is one clock for every process on the machine.
The wrappers replace the attributes that callers look up (methods on the
classes, and the names `needsense.cli` and `needsense.fusion` imported),
so no file of the program changes.  Callbacks passed to
`Stream.subscribe` and `Pipeline.add_ticker` get a span named after the
module that defined them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, after=None):
        """fn with a span around each call; after(tracer, args, result)
        records counts once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self.stack[-1] if self.stack else -1, name, 0.0, 0.0]
            self.spans.append(span)
            self.stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                self.stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        raw = vars(owner).get(attr)
        if raw is None:
            # a later version of the program dropped the name; say so
            # rather than fail, and let the metric read 0
            self.missing.append(f"{owner.__name__}.{attr}")
        elif isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, after)))
        else:
            setattr(owner, attr, self.wrap(raw, name, after))

    def patch_callbacks(self, cls, attr: str, index: int) -> None:
        """Wrap the callback that cls.attr receives as positional argument
        `index` (after self)."""
        original = vars(cls)[attr]

        @functools.wraps(original)
        def patched(obj, *args):
            args = list(args)
            fn = args[index]
            layer = fn.__module__.rsplit(".", 1)[-1]
            args[index] = self.wrap(fn, f"{layer}.callback")
            return original(obj, *args)

        setattr(cls, attr, patched)


class TimedInput:
    """Standard input whose reads are spans, so the time `run` spends
    waiting for its next input line is not counted as cli self time."""

    def __init__(self, stream, tracer: Tracer) -> None:
        self.readline = tracer.wrap(stream.readline, "input.wait")

    def __iter__(self):
        return iter(self.readline, "")


def node_count(model) -> int:
    return sum(1 for line in model.to_lines() if line.startswith(("node ", "leaf ")))


def _nodes(tracer, args, model) -> None:
    tracer.counts["forest.nodes"] = node_count(model)


def _fit(tracer, args, model) -> None:
    tracer.add("forest.fit_rows", len(args[0]))
    _nodes(tracer, args, model)


def _session_lines(tracer, args, record) -> None:
    messages = sum(len(msgs) for msgs in record.streams.values())
    tracer.add("sessions.lines_parsed", 1 + len(record.labels) + messages)


def _finalize(tracer, args, result) -> None:
    pipe = args[0]
    frames = pipe.streams.get("fusion_frame")
    tracer.add("streams.ticks", len(frames.messages) if frames else 0)
    tracer.add("streams.drops", sum(pipe.drop_counts.values()))
    tracer.add("streams.errors", sum(pipe.error_counts.values()))


def install(tracer: Tracer) -> None:
    from needsense import cli, forest, fusion, gaze, language, sessions, streams

    rf = forest.RFModel
    tracer.patch(
        rf, "predict_batch", "forest.predict",
        lambda t, args, r: t.add("forest.predict_rows", len(args[1])),
    )
    tracer.patch(rf, "load", "forest.load", _nodes)
    tracer.patch(rf, "save", "forest.save")
    tracer.patch(fusion, "fit_forest", "forest.fit", _fit)

    tracer.patch(gaze.GazeNeedTracker, "update", "gaze.update")

    tracer.patch(streams.Pipeline, "emit", "streams.emit")
    tracer.patch(streams.Pipeline, "finalize", "streams.finalize", _finalize)
    tracer.patch_callbacks(streams.Stream, "subscribe", 0)
    tracer.patch_callbacks(streams.Pipeline, "add_ticker", 1)

    nb = language.NBModel
    tracer.patch(nb, "predict_text", "language.predict")
    tracer.patch(nb, "load", "language.load")
    tracer.patch(nb, "save", "language.save")
    tracer.patch(cli, "train_from_utterances", "language.train")

    tracer.patch(cli, "load_session", "sessions.parse", _session_lines)
    # standard-input mode parses line by line with these two
    tracer.patch(
        cli, "_parse_fields", "sessions.parse_line",
        lambda t, args, r: t.add("sessions.lines_parsed", 1),
    )
    tracer.patch(cli, "_parse_payload", "sessions.parse_line")
    tracer.patch(sessions.SessionRecord, "save", "sessions.write")
    tracer.patch(
        cli, "export_fusion_matrix", "sessions.export",
        lambda t, args, r: t.add("sessions.export_rows", r.n_rows),
    )
    tracer.patch(cli, "export_language_corpus", "sessions.export")

    tracer.patch(cli, "stage1_materialize", "fusion.stage1")
    tracer.patch(cli, "train_rf", "fusion.train")
    tracer.patch(cli, "live_decisions", "fusion.live")


def main() -> int:
    spans_path, run_id, *argv = sys.argv[1:]
    start = clock()
    import needsense.cli

    import_s = clock() - start
    tracer = Tracer()
    install(tracer)
    sys.stdin = TimedInput(sys.stdin, tracer)
    code = 1
    try:
        code = tracer.wrap(needsense.cli.main, "cli.main")(argv)
    finally:
        # hand the decisions over before the spans are written, as an
        # untraced run would at exit
        sys.stdout.flush()
        Path(spans_path).write_text(
            json.dumps(
                {
                    "run": run_id,
                    "import_s": import_s,
                    "counts": tracer.counts,
                    "missing": tracer.missing,
                    "spans": tracer.spans,
                }
            ),
            encoding="utf-8",
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
