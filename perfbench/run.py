"""Benchmark of the needsense command: paced `live`, unpaced `replay` and
default-config `train`.

Run from the root of the repository:

    python3 perfbench/run.py --workload live --seed 1 --seconds 10 --trace 0

`--workload all` runs the three in turn.  The report names every metric
with its unit and sample count and checks every output against an
independent oracle.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with `--trace 0`, the per-layer metrics of a traced rerun of the
same inputs with `--trace 1`.  NOTES.md says why each workload exists and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
TRACED = Path(__file__).resolve().parent / "traced.py"

sys.path.insert(0, str(SRC))
try:
    if not (SRC / "needsense" / "__init__.py").is_file():
        raise ImportError("no src/needsense package")
    import numpy as np
    from needsense.config import Config
    from needsense.forest import RFModel
    from needsense.fusion import predict_session, stage1_materialize
    from needsense.language import NBModel
    from needsense.sessions import LabelSpan, SessionRecord, fmt_time, fmt_value
    from needsense.simulate import benchmark_suite, simulate
    from needsense.streams import tick_times
except ImportError as exc:
    sys.exit(f"perfbench: cannot import needsense from {SRC}: {exc}")

WORKLOADS = ("live", "replay", "train")
# live and replay use models trained once on the canonical 20-session suite
MODEL_SUITE_SEED = 0
# held-out sessions come from suite seed HELD_OUT_BASE + S, never the
# training suite, cut to SESSION_S seconds so every seed feeds 301 ticks
HELD_OUT_BASE = 2**32
SESSION_S = 30.0
SUITE_SIZE = 20
SETUP_REPS = 3
# This machine is shared and its speed drifts by 20% and more within
# minutes.  A fixed reference loop (`probe`) is timed every PROBE_PERIOD_S
# while a replay or train process runs, and before and after each set-up
# run; times are then scaled to a machine on which the loop takes
# PROBE_NOMINAL_S.  Live is paced by the session clock and stays unscaled.
PROBE_PERIOD_S = 0.5
PROBE_NOMINAL_S = 0.002
# PYTHONUNBUFFERED hides that `needsense run` never flushes decisions on
# standard input; see NOTES.md
REMOVED_ENV = ("PYTHONUNBUFFERED",)

END_TO_END = (
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("forest.predict_calls", "count"),
    ("forest.predict_rows", "count"),
    ("forest.predict_s", "s"),
    ("forest.predict_call_p50_ms", "ms"),
    ("forest.fit_s", "s"),
    ("forest.fit_rows", "count"),
    ("forest.nodes", "count"),
    ("forest.save_s", "s"),
    ("forest.load_s", "s"),
    ("gaze.frames", "count"),
    ("gaze.update_s", "s"),
    ("streams.messages_in", "count"),
    ("streams.ticks", "count"),
    ("streams.self_s", "s"),
    ("streams.drops", "count"),
    ("streams.errors", "count"),
    ("language.train_s", "s"),
    ("language.predict_calls", "count"),
    ("language.predict_s", "s"),
    ("sessions.parse_s", "s"),
    ("sessions.lines_parsed", "count"),
    ("sessions.write_s", "s"),
    ("sessions.export_s", "s"),
    ("sessions.export_rows", "count"),
    ("fusion.stage1_s", "s"),
    ("fusion.stage1_sessions", "count"),
    ("fusion.decisions", "count"),
    ("fusion.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("simulate.s", "s"),
    # live latency is unbounded while a tick takes longer than the tick
    # period (see NOTES.md), so it is recorded here rather than gated
    ("live_latency_p50_ms", "ms"),
    ("live_latency_p95_ms", "ms"),
    ("generator.late_p95_ms", "ms"),
    ("generator.late_max_ms", "ms"),
    ("input.wait_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_cpu_s", "s"),
    ("trace.spans", "count"),
)


class BenchError(Exception):
    """The benchmark could not prepare or run its inputs."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in REMOVED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


def probe() -> float:
    """Seconds taken by a fixed mix of interpreted code and small numpy
    operations, the mix that dominates the program's own hot loops."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    values = np.arange(64.0)
    rows = np.arange(32)
    for _ in range(200):
        rows[values[rows] <= 10.0]
    return time.perf_counter() - start


class Prober:
    """Calls probe() every PROBE_PERIOD_S on its own thread until the
    `with` block ends."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop)

    def _loop(self) -> None:
        while True:
            self.samples.append(probe())
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "Prober":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def sleep_until(deadline: float) -> None:
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


@dataclass
class Feed:
    """Input lines, each written when its due offset (s) from the start
    of the schedule comes; standard input closes at `eof`."""

    lines: list[bytes]
    due: list[float]
    eof: float
    origin: float = 0.0
    late_ms: list[float] = field(default_factory=list)

    def send(self, pipe) -> None:
        # every write is scheduled from the session clock, never from
        # when the previous write returned
        self.origin = time.perf_counter()
        try:
            for data, due in zip(self.lines, self.due):
                sleep_until(self.origin + due)
                self.late_ms.append((time.perf_counter() - self.origin - due) * 1e3)
                pipe.write(data)
                pipe.flush()
            sleep_until(self.origin + self.eof)
        except BrokenPipeError:
            pass  # the program exited early; its exit code counts it
        finally:
            try:
                pipe.close()
            except BrokenPipeError:
                pass


@dataclass
class Proc:
    code: int
    start: float
    wall_s: float
    ref_s: float | None  # wall_s scaled to the nominal probe speed
    cpu_s: float
    rss_mb: float
    lines: list[tuple[float, str]]  # (arrival time, line) on stdout
    stderr: str


def _read_lines(pipe, out: list[tuple[float, str]]) -> None:
    for raw in pipe:
        out.append((time.perf_counter(), raw.decode("utf-8").rstrip("\n")))


def run_program(
    args: list[str],
    work: Path,
    stdin_path: Path | None = None,
    feed: Feed | None = None,
    spans_path: Path | None = None,
    probed: bool = False,
) -> Proc:
    """Run one needsense command to its end, timestamping each stdout line
    as it arrives; peak RSS comes from the child's rusage.  With `probed`,
    the machine's speed is sampled while it runs."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "needsense", *args]
    else:
        cmd = [sys.executable, str(TRACED), str(spans_path), spans_path.stem, *args]
    err_path = work / "stderr.txt"
    lines: list[tuple[float, str]] = []
    if feed is not None:
        stdin = subprocess.PIPE
    elif stdin_path is not None:
        stdin = open(stdin_path, "rb")
    else:
        stdin = subprocess.DEVNULL
    try:
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=child_env(), stdin=stdin,
                stdout=subprocess.PIPE, stderr=err,
            )
            reader = threading.Thread(target=_read_lines, args=(proc.stdout, lines))
            reader.start()
            prober = Prober()
            try:
                if feed is not None:
                    feed.send(proc.stdin)
                with prober if probed else contextlib.nullcontext():
                    _, status, usage = os.wait4(proc.pid, 0)
                    end = time.perf_counter()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                reader.join()
                proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdin_path is not None and feed is None:
            stdin.close()
    return Proc(
        code=proc.returncode,
        start=start,
        wall_s=end - start,
        ref_s=scaled(end - start, prober.samples),
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        lines=lines,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def scaled(seconds: float, samples: list[float]) -> float | None:
    """`seconds` as they would read on a machine where probe() takes
    PROBE_NOMINAL_S, or None without samples."""
    return seconds * PROBE_NOMINAL_S / statistics.median(samples) if samples else None


def write_suite(directory: Path, seed: int, spans: list | None = None) -> list[SessionRecord]:
    """Simulate and save the 20-session suite; `spans` collects the
    (start, end) of each simulate call."""
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    for i, script in enumerate(benchmark_suite(SUITE_SIZE, seed=seed)):
        start = time.perf_counter()
        record = simulate(script, f"s{i:02d}")
        if spans is not None:
            spans.append((start, time.perf_counter()))
        record.save(directory / f"{record.session_id}.session")
        records.append(record)
    return records


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_errors(models: Path) -> list[str]:
    """Artifacts whose sha256 disagrees with the manifest."""
    manifest = models / "manifest.txt"
    if not manifest.is_file():
        return ["manifest.txt missing"]
    errors = []
    listed = 0
    for line in manifest.read_text(encoding="utf-8").splitlines():
        if not line.startswith("artifact="):
            continue
        name_field, _, hash_field = line.partition(" ")
        name = name_field.removeprefix("artifact=")
        listed += 1
        path = models / name
        if not path.is_file() or sha256(path) != hash_field.removeprefix("sha256="):
            errors.append(f"{name}: sha256 disagrees with the manifest")
    if not listed:
        errors.append("manifest lists no artifacts")
    return errors


def prepare_models() -> Path:
    """Models for live and replay: `needsense train` at the default config
    on the canonical suite, trained once per source tree and kept."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "needsense").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    models = OUT / f"models-{digest.hexdigest()[:16]}"
    if not models.is_dir():
        tmp = OUT / f"tmp-models-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        write_suite(tmp / "ds0", MODEL_SUITE_SEED)
        proc = run_program(["train", str(tmp / "ds0"), "--out", str(tmp / "M")], tmp)
        if proc.code != 0:
            raise BenchError(f"model training exited {proc.code}: {proc.stderr.strip()}")
        (tmp / "M").rename(models)
        shutil.rmtree(tmp)
    errors = manifest_errors(models)
    if errors:
        raise BenchError(f"cached models in {models}: {'; '.join(errors)}")
    return models


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def decision_line(d) -> str:
    return (
        f"t={fmt_time(d.t)} mutual={fmt_value(d.mutual)} "
        f"conf={fmt_value(d.confirmatory)} lang={fmt_value(d.language)} "
        f"fused={fmt_value(d.score)} help={d.label}"
    )


def cut(record: SessionRecord, duration: float) -> SessionRecord:
    """The first `duration` seconds of a raw session."""
    return SessionRecord(
        session_id=record.session_id,
        duration=duration,
        streams={
            name: [m for m in msgs if m.originating_time <= duration]
            for name, msgs in record.streams.items()
        },
        labels=[
            LabelSpan(s.start, min(s.end, duration), s.level)
            for s in record.labels
            if s.start < duration
        ],
    )


@dataclass
class HeldOut:
    record: SessionRecord
    expected: list[tuple[float, str]]  # (tick time, decision line)


@dataclass
class Tally:
    """What one pass over a workload's operations measured."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    latency_ms: list[float] = field(default_factory=list)  # live decisions
    late_ms: list[float] = field(default_factory=list)
    work: int = 0  # decisions (live, replay) or training rows (train)
    busy_s: float = 0.0  # time the work took
    ref_busy_s: float = 0.0  # the same, scaled by the probe on replay and train
    walls: list[float] = field(default_factory=list)  # one per process
    wall_s: float = 0.0  # their sum
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    decisions: int = 0

    def add_process(self, proc: Proc) -> None:
        self.walls.append(proc.wall_s)
        self.wall_s += proc.wall_s
        self.cpu_s += proc.cpu_s
        self.rss_mb = max(self.rss_mb, proc.rss_mb)
        if proc.code != 0:
            self.errors.append(f"exit {proc.code}: {proc.stderr.strip()[-300:]}")

    def score_decisions(self, proc: Proc, expected: list[tuple[float, str]], due=None) -> None:
        """Compare decision lines with the oracle; a missing, extra or
        unequal line fails, and a non-zero exit fails them all.  `due(k)`,
        given on live, is when the input releasing decision k was due."""
        got = proc.lines
        n = max(len(expected), len(got))
        self.attempted += n
        self.decisions += len(got)
        if proc.code != 0:
            self.failed += n
            return
        for k in range(n):
            if k < len(expected) and k < len(got) and got[k][1] == expected[k][1]:
                if due is not None:
                    self.latency_ms.append((got[k][0] - due(k)) * 1e3)
            else:
                self.failed += 1
                if len(self.errors) < 5:
                    want = expected[k][1] if k < len(expected) else "<none>"
                    have = got[k][1] if k < len(got) else "<none>"
                    self.errors.append(f"decision {k}: expected {want!r}, got {have!r}")


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = OUT / f"work-{workload}-{os.getpid()}"
        self.trace_dir = OUT / f"trace-{workload}-{seed}"
        self.cfg = Config()
        self.models = prepare_models()
        self.sim_spans: list[tuple[float, float]] = []
        self.held_out: list[HeldOut] = []
        self.scripts_used = 0
        self.ds0_rows = 0
        self.train_digests: dict[str, str] | None = None
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # inputs ---------------------------------------------------------------

    @functools.cached_property
    def oracle_models(self) -> tuple[NBModel, RFModel]:
        return NBModel.load(self.models / "nb.model"), RFModel.load(self.models / "rf.model")

    def session(self, i: int) -> HeldOut:
        """Held-out session i with its oracle decisions, made on first use."""
        while len(self.held_out) <= i:
            j = self.scripts_used
            script = benchmark_suite(j + 1, seed=HELD_OUT_BASE + self.seed)[j]
            self.scripts_used += 1
            if script.duration < SESSION_S:
                continue  # rare: the suite's sessions last 28 s to 55 s
            start = time.perf_counter()
            record = simulate(script, f"h{j:02d}")
            self.sim_spans.append((start, time.perf_counter()))
            record = cut(record, SESSION_S)
            nb, rf = self.oracle_models
            derived = stage1_materialize(record, nb, self.cfg.gaze_config(), self.cfg.cadence_hz)
            expected = [
                (d.t, decision_line(d))
                for d in predict_session(derived, rf, self.cfg.window_w)
            ]
            self.held_out.append(HeldOut(record, expected))
        return self.held_out[i]

    def ds0(self) -> Path:
        path = self.work / "ds0"
        if not path.is_dir():
            records = write_suite(path, MODEL_SUITE_SEED, self.sim_spans)
            w = self.cfg.window_w
            self.ds0_rows = sum(
                sum(1 for t in tick_times(r.duration, self.cfg.cadence_hz)[w - 1:] if t < r.duration)
                for r in records
            )
        return path

    # operations -----------------------------------------------------------

    def setup(self, reps: int, tally: Tally) -> tuple[list[float], list[float]]:
        """Raw and probe-scaled wall times of `reps` set-up runs."""
        header = self.work / "header.txt"
        header.write_text("format_version=1 session_id=setup duration=0.000\n", encoding="utf-8")
        walls, ref_walls = [], []
        for _ in range(reps):
            samples = [probe() for _ in range(5)]
            proc = run_program(["run", "--models", str(self.models)], self.work, stdin_path=header)
            samples += [probe() for _ in range(5)]
            if proc.code != 0 or proc.lines:
                tally.errors.append(f"setup run: exit {proc.code}, {len(proc.lines)} stdout lines")
            walls.append(proc.wall_s)
            ref_walls.append(scaled(proc.wall_s, samples))
        return walls, ref_walls

    def op_live(self, i: int, tally: Tally, spans_path: Path | None) -> None:
        held = self.session(i)
        record = held.record
        lines = record.to_lines()
        body = lines[1 + len(record.labels):]
        times = [m.originating_time for _, m in record.all_messages()]
        feed = Feed(
            lines=[(line + "\n").encode() for line in [lines[0], *body]],
            due=[0.0, *times],
            eof=record.duration,
        )

        def due(k: int) -> float:
            # the first input after the tick releases it; EOF the last ones
            j = bisect_right(times, held.expected[k][0])
            return feed.origin + (times[j] if j < len(times) else feed.eof)

        proc = run_program(["run", "--models", str(self.models)], self.work, feed=feed, spans_path=spans_path)
        tally.add_process(proc)
        tally.score_decisions(proc, held.expected, due)
        tally.late_ms.extend(feed.late_ms)
        tally.work += len(proc.lines)
        if proc.lines:
            tally.busy_s += proc.lines[-1][0] - feed.origin
            tally.ref_busy_s += proc.lines[-1][0] - feed.origin

    def op_replay(self, i: int, tally: Tally, spans_path: Path | None) -> None:
        held = self.session(i)
        path = self.work / f"{held.record.session_id}.session"
        held.record.save(path)
        proc = run_program(
            ["run", str(path), "--models", str(self.models)],
            self.work, spans_path=spans_path, probed=True,
        )
        tally.add_process(proc)
        tally.score_decisions(proc, held.expected)
        tally.work += len(proc.lines)
        tally.busy_s += proc.wall_s
        tally.ref_busy_s += proc.ref_s

    def op_train(self, i: int, tally: Tally, spans_path: Path | None) -> None:
        out = self.work / f"M{i}"
        shutil.rmtree(out, ignore_errors=True)
        proc = run_program(
            ["train", str(self.ds0()), "--out", str(out), "--seed", str(self.seed)],
            self.work, spans_path=spans_path, probed=True,
        )
        tally.add_process(proc)
        tally.attempted += 1
        errors = []
        if proc.code == 0:
            errors += manifest_errors(out)
            rf_path = out / "rf.model"
            if rf_path.is_file():
                text = "\n".join(RFModel.load(rf_path).to_lines()) + "\n"
                if text.encode("utf-8") != rf_path.read_bytes():
                    errors.append("rf.model does not round-trip through RFModel.load/to_lines")
            digests = {
                p.relative_to(out).as_posix(): sha256(p)
                for p in sorted(out.rglob("*")) if p.is_file()
            }
            first = self.train_digests
            if first is None:
                self.train_digests = digests
            elif digests != first:
                changed = sorted(k for k in first.keys() | digests.keys() if first.get(k) != digests.get(k))
                errors.append(f"artifacts differ from the first run: {', '.join(changed[:5])}")
        if proc.code != 0 or errors:
            tally.failed += 1
            tally.errors.extend(errors)
        tally.work += self.ds0_rows
        tally.busy_s += proc.wall_s
        tally.ref_busy_s += proc.ref_s
        shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, ops: int | None, traced: bool) -> tuple[Tally, int]:
        """Operations until `seconds` have passed (at least one), or
        exactly `ops` of them; returns the tally and the count."""
        op = getattr(self, f"op_{self.workload}")
        if self.workload == "train":
            self.ds0()
        else:
            self.session(0)
        if traced:
            shutil.rmtree(self.trace_dir, ignore_errors=True)
            self.trace_dir.mkdir(parents=True)
        tally = Tally()
        start = time.perf_counter()

        def more(i: int) -> bool:
            if ops is not None:
                return i < ops
            return i == 0 or time.perf_counter() - start < self.seconds

        i = 0
        while more(i):
            spans_path = self.trace_dir / f"{self.workload}-{self.seed}-{i}.json" if traced else None
            op(i, tally, spans_path)
            i += 1
        return tally, i


# per-layer metrics from spans ---------------------------------------------

def layer_metrics(trace_dir: Path, sim_spans, tally: Tally, untraced: Tally):
    """Per-layer metrics from the span files a traced pass wrote, plus
    [total s, self s, calls] per span name, self seconds per module, and
    the wrapped names the program no longer has."""
    totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    predict_ms: list[float] = []
    counts: dict[str, int] = defaultdict(int)
    import_s = 0.0
    n_spans = 0
    missing: set[str] = set()
    for path in sorted(trace_dir.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        import_s += data["import_s"]
        missing.update(data["missing"])
        for key, value in data["counts"].items():
            counts[key] = max(counts[key], value) if key == "forest.nodes" else counts[key] + value
        spans = data["spans"]
        n_spans += len(spans)
        child_s = [0.0] * len(spans)
        for sid, parent, name, start, end in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for sid, parent, name, start, end in spans:
            entry = totals[name]
            entry[0] += end - start
            entry[1] += end - start - child_s[sid]
            entry[2] += 1
            if name == "forest.predict":
                predict_ms.append((end - start) * 1e3)
    for start, end in sim_spans:
        entry = totals["simulate.run"]
        entry[0] += end - start
        entry[1] += end - start
        entry[2] += 1
    (trace_dir / "benchmark.json").write_text(
        json.dumps({"simulate_spans": sim_spans}), encoding="utf-8"
    )

    def total(*names):
        return sum(totals[n][0] for n in names if n in totals)

    def count(name):
        return totals[name][2] if name in totals else 0

    by_layer: dict[str, float] = defaultdict(float)
    for name, (_, own, _) in totals.items():
        by_layer[name.split(".")[0]] += own

    m = {
        "forest.predict_calls": count("forest.predict"),
        "forest.predict_rows": counts["forest.predict_rows"],
        "forest.predict_s": total("forest.predict"),
        "forest.predict_call_p50_ms": percentile(predict_ms, 50),
        "forest.fit_s": total("forest.fit"),
        "forest.fit_rows": counts["forest.fit_rows"],
        "forest.nodes": counts["forest.nodes"],
        "forest.save_s": total("forest.save"),
        "forest.load_s": total("forest.load"),
        "gaze.frames": count("gaze.update"),
        "gaze.update_s": total("gaze.update"),
        "streams.messages_in": count("streams.emit"),
        "streams.ticks": counts["streams.ticks"],
        "streams.self_s": by_layer["streams"],
        "streams.drops": counts["streams.drops"],
        "streams.errors": counts["streams.errors"],
        "language.train_s": total("language.train"),
        "language.predict_calls": count("language.predict"),
        "language.predict_s": total("language.predict"),
        "sessions.parse_s": total("sessions.parse", "sessions.parse_line"),
        "sessions.lines_parsed": counts["sessions.lines_parsed"],
        "sessions.write_s": total("sessions.write"),
        "sessions.export_s": total("sessions.export"),
        "sessions.export_rows": counts["sessions.export_rows"],
        "fusion.stage1_s": total("fusion.stage1"),
        "fusion.stage1_sessions": count("fusion.stage1"),
        "fusion.decisions": tally.decisions,
        "fusion.self_s": by_layer["fusion"],
        "cli.import_s": import_s,
        "cli.self_s": by_layer["cli"],
        "simulate.s": total("simulate.run"),
        "live_latency_p50_ms": percentile(untraced.latency_ms, 50),
        "live_latency_p95_ms": percentile(untraced.latency_ms, 95),
        "generator.late_p95_ms": percentile(untraced.late_ms, 95),
        "generator.late_max_ms": max(untraced.late_ms, default=0.0),
        "input.wait_s": total("input.wait"),
        "trace.overhead_s": tally.wall_s - untraced.wall_s,
        "trace.overhead_cpu_s": tally.cpu_s - untraced.cpu_s,
        "trace.spans": n_spans,
    }
    return m, dict(totals), dict(by_layer), sorted(missing)


# reporting -----------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> str:
    removed = [k for k in REMOVED_ENV if k in os.environ] or ["none"]
    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={np.__version__} commit={git_commit()} env_removed={','.join(removed)}"
    )


def line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<28} {value:>14.4f} {unit:<6} {note}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload, seed, seconds)
    try:
        setup_tally = Tally()
        setup, ref_setup = ([], []) if trace else bench.setup(SETUP_REPS, setup_tally)
        tally, ops = bench.run_pass(None, traced=False)
        traced = bench.run_pass(ops, traced=True)[0] if trace else None
    finally:
        bench.close()

    print(f"workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)} operations={ops}")
    print(f"  machine: {machine_facts()}")
    print(f"  models: {bench.models.relative_to(ROOT)} (default config, suite seed {MODEL_SUITE_SEED})")
    lat = tally.latency_ms
    n = len(lat)
    p95_note = f"n={n} ({n - int(np.ceil(0.95 * n)) if n else 0} beyond)"
    e2e = {
        "setup_s": statistics.median(ref_setup) if ref_setup else 0.0,
        "ticks_per_s": tally.work / tally.ref_busy_s if tally.ref_busy_s else 0.0,
        "peak_rss_mb": tally.rss_mb,
    }
    raw_rate = tally.work / tally.busy_s if tally.busy_s else 0.0
    if workload == "live":
        print(line("live_latency_p50_ms", percentile(lat, 50), "ms", f"n={n}"))
        print(line("live_latency_p95_ms", percentile(lat, 95), "ms", p95_note))
        print(line("live_ticks_per_s", raw_rate, "1/s", f"n={tally.work} decisions"))
        late = tally.late_ms
        print(line("generator_late_p95_ms", percentile(late, 95), "ms", f"n={len(late)} writes"))
        print(line("generator_late_max_ms", max(late, default=0.0), "ms", f"n={len(late)} writes"))
    elif workload == "replay":
        print(line("replay_ticks_per_s", raw_rate, "1/s", f"n={tally.work} decisions, {ops} sessions"))
    else:
        print(line("train_s", statistics.median(tally.walls), "s", f"n={len(tally.walls)} runs, {bench.ds0_rows} rows"))
    if setup:
        print(line("setup_s", statistics.median(setup), "s", f"n={len(setup)}"))
    print(line("peak_rss_mb", tally.rss_mb, "MB", f"n={len(tally.walls)} processes"))
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(line("fail_ratio", fail_ratio, "ratio", f"n={tally.attempted} ({tally.failed} failed)"))
    if not trace:
        print(
            "  end-to-end metrics, times scaled to the reference probe (live's rate is not): "
            + ", ".join(f"{k}={v:.6g}" for k, v in e2e.items())
        )

    errors = setup_tally.errors + tally.errors
    attempted, failed = tally.attempted, tally.failed
    if trace:
        errors += traced.errors
        attempted += traced.attempted
        failed += traced.failed
        metrics, totals, by_layer, missing = layer_metrics(bench.trace_dir, bench.sim_spans, traced, tally)
        print(
            f"  traced pass: wall {traced.wall_s:.3f} s, cpu {traced.cpu_s:.3f} s; untraced: "
            f"wall {tally.wall_s:.3f} s, cpu {tally.cpu_s:.3f} s; spans in {bench.trace_dir.relative_to(ROOT)}"
        )
        if missing:
            print(f"  not traced (absent from the program): {', '.join(missing)}")
        print("  self time by span (s), largest first:")
        for name, (tot, own, calls) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
            print(f"    {name:<24} self {own:>10.4f}  total {tot:>10.4f}  calls {calls}")
        print("  self time by module (s): " + ", ".join(
            f"{k}={v:.4f}" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])))
        for name, unit in PER_LAYER:
            print(line(name, metrics[name], unit))
        units = dict(PER_LAYER)
    else:
        metrics = e2e
        units = dict(END_TO_END)
    for err in errors[:10]:
        print(f"  error: {err}")
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long one pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
