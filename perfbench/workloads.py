"""The three benchmark workloads and their correctness gates.

Every workload is a closed loop on one thread: the next operation starts
only after the previous one returned.  An operation is one whole campaign
on ``semi_sweep`` and ``blind_10k``, and one round of ``parcelfuzz
replay`` calls, one per saved crash, on ``replay_cli``.  Each operation
ends with one write of its canonical report.  The workload seed is the
only input: it shuffles the scenario order the corpus is recorded in, and
on ``blind_10k`` it is also the campaign's ``rng_seed``.

Benchmark hosts are often shared.  On a shared 2-vCPU virtual machine the
speed of one process moved by up to 2x, both from one campaign to the
next and over minutes, with CPU time moving as much as wall time, so no
choice of estimator over one process's timings held still.  An untraced
run therefore measures the program against a reference: the frozen copy
of parcelfuzz under ``reference/src``, driven through the same workload
by ``refserver.py`` in a second process.  Both processes run at once on
one CPU, which the kernel shares between them in slices of a few
milliseconds, so both meet the same machine; each times itself in its
own CPU time (``CPU_CLOCK``), which the other's slices do not add to.
Every timing metric is a ratio of the program's value to the value of
the reference operations that ran at the same time, times the
reference's value on the machine the baseline was recorded on
(``reference/nominal.json``): the program's figure as that machine
would have read it.  Only program changes move the ratio, since the
reference never changes.

Traced runs alternate untraced operations with operations under the
wrappers of ``spans.py``, check that the wrappers change no output, and
report per-layer metrics per operation plus the tracer's overhead.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import io
import json
import random
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from parcelfuzz import cli, harness
from parcelfuzz.harness import FuzzConfig, manifest_fingerprints, save_report
from parcelfuzz.recorder import SCENARIOS, record_session, save_corpus

from spans import Patcher, Tracer, install_case_stamps, install_tracer, layer_metrics

HERE = Path(__file__).resolve().parent
BUDGET = 10_000
# Every time a metric is made of: this thread's CPU time.  Wall time
# (time.monotonic_ns, one clock for all processes) only orders operations.
CPU_CLOCK = time.thread_time_ns
# The reference's metrics on the baseline machine; fixed for good, since
# changing them rescales every result.
NOMINAL = json.loads((HERE / "reference" / "nominal.json").read_text(encoding="utf-8"))
# How long the reference process may take to end once its stdin closes.
REFERENCE_GRACE_S = 5
# Latency samples behind one p99, so that ten lie beyond it.
P99_SAMPLES = 1000


class GateError(Exception):
    """A correctness gate failed; the run must not print numbers."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass(frozen=True)
class Sizes:
    """How much work one run does; the self-test shrinks these."""

    scenario_copies: int = 4
    blind_budget: int = BUDGET
    # Set-ups each side makes in an untraced run.  A campaign set-up
    # records a corpus in milliseconds; a replay_cli one runs a campaign.
    campaign_setups: int = 24
    replay_setups: int = 3
    # Report writes per campaign; report_write_ms takes their median.  A
    # blind_10k report writes in about a millisecond, mostly a noisy
    # write(2), so it gets more writes.
    semi_writes: int = 5
    blind_writes: int = 25


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


@dataclass
class Sample:
    """What one operation measured."""

    cases: int
    busy_ns: int
    write_ns: int
    latencies_ms: array
    # When the operation ran, in wall time.
    start_ns: int = 0
    end_ns: int = 0

    def to_json(self) -> dict:
        data = dataclasses.asdict(self)
        data["latencies_ms"] = base64.b64encode(self.latencies_ms.tobytes()).decode("ascii")
        return data

    @classmethod
    def from_json(cls, data: dict) -> Sample:
        latencies = array("d")
        latencies.frombytes(base64.b64decode(data["latencies_ms"]))
        return cls(**dict(data, latencies_ms=latencies))


@dataclass
class SetUp:
    """What one set-up measured."""

    seconds: float
    start_ns: int
    end_ns: int


@dataclass
class Side:
    """Everything one side of an untraced run measured."""

    setups: list[SetUp]
    samples: list[Sample]

    def to_json(self) -> str:
        return json.dumps({
            "setups": [dataclasses.asdict(s) for s in self.setups],
            "samples": [s.to_json() for s in self.samples],
        })

    @classmethod
    def from_json(cls, text: str) -> Side:
        data = json.loads(text)
        return cls([SetUp(**s) for s in data["setups"]], [Sample.from_json(s) for s in data["samples"]])


def shuffled_scenarios(seed: int, copies: int) -> list[str]:
    names = [name for name in SCENARIOS for _ in range(copies)]
    random.Random(seed).shuffle(names)
    return names


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_call(tracer: Tracer | None, name: str, fn, *args):
    """fn(*args), inside a span when tracing; returns (result, CPU ns)."""
    start = CPU_CLOCK()
    result = fn(*args) if tracer is None else tracer.call(name, fn, *args)
    return result, CPU_CLOCK() - start


def timed_write(path: Path, report) -> tuple[str, int]:
    start = CPU_CLOCK()
    text = report.to_canonical_json()
    path.write_text(text, encoding="utf-8")
    return text, CPU_CLOCK() - start


def timed_writes(path: Path, report, writes: int) -> tuple[str, int]:
    """Write report, then writes - 1 fresh copies of it rebuilt from its
    JSON, so that no write reuses the work of the one before.

    Returns the report's text and the median write time.
    """
    text, first = timed_write(path, report)
    times = [first]
    for _ in range(writes - 1):
        copy_text, ns = timed_write(path, type(report).from_json(json.loads(text)))
        check(copy_text == text, "a report rebuilt from its JSON serialised differently")
        times.append(ns)
    return text, int(statistics.median(times))


def run_ops(seconds: float, op) -> list:
    """Call op() until the next call would likely end more than half an
    operation past seconds; at least once.

    Returns what every call returned, leaving out None.
    """
    samples = []
    calls = 0
    start = time.perf_counter()
    while True:
        sample = op()
        calls += 1
        if sample is not None:
            samples.append(sample)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / calls / 2 > seconds:
            return samples


def op_metrics(samples: list[Sample]) -> dict[str, float]:
    """Per-operation timing metrics of some samples: medians, and the 99th percentile."""
    latencies = [ms for s in samples for ms in s.latencies_ms]
    return {
        "cases_per_s": statistics.median(s.cases / s.busy_ns * 1e9 for s in samples),
        "replay_ms_p50": statistics.median(latencies),
        "replay_ms_p99": statistics.quantiles(latencies, n=100, method="inclusive")[98],
        "report_write_ms": statistics.median(s.write_ns for s in samples) / 1e6,
    }


UNITS = {"cases_per_s": "1/s", "replay_ms_p50": "ms", "replay_ms_p99": "ms", "report_write_ms": "ms", "setup_s": "s"}


def run_side(seconds: float, runner, stop_peer, peer_stopped) -> Side:
    """One side of an untraced run.

    runner.setups set-ups, then operations for seconds; then stop_peer(),
    and more operations, not measured, until peer_stopped().  The two
    sides of a run share one CPU, and this keeps it shared until the
    peer's last measured operation has ended.
    """
    setups = []
    for _ in range(runner.setups):
        start = time.monotonic_ns()
        seconds_cpu = runner.setup()
        setups.append(SetUp(seconds_cpu, start, time.monotonic_ns()))

    def op():
        start = time.monotonic_ns()
        sample = runner.op()
        if sample is not None:
            sample.start_ns, sample.end_ns = start, time.monotonic_ns()
        return sample

    samples = run_ops(seconds, op)
    stop_peer()
    while not peer_stopped():
        runner.op()
    return Side(setups, samples)


def alongside(group: list, others: list) -> list:
    """The items of others that ran at the same time as group: those whose
    midpoint lies between group's start and end, else the nearest one."""
    start, end = group[0].start_ns, group[-1].end_ns
    inside = [o for o in others if start <= (o.start_ns + o.end_ns) // 2 <= end]
    if inside:
        return inside
    return [min(others, key=lambda o: abs(o.start_ns + o.end_ns - start - end))]


def compare(own: Side, ref: Side, nominal: dict[str, float]) -> tuple[dict, str]:
    """Every timing metric as nominal * program / reference.

    Program operations are taken a group at a time, as few as hold
    P99_SAMPLES latencies (one campaign; 100 rounds of replay_cli).  Each
    group's metrics are divided by those of the reference operations that
    ran alongside it, and each set-up's time by that of the reference
    set-ups alongside it.  A metric is the median of its ratios.
    """
    check(bool(own.samples) and bool(ref.samples), "no operation succeeded")
    samples = own.samples
    group = -(-P99_SAMPLES // len(samples[0].latencies_ms))
    groups = [samples[i:i + group] for i in range(0, max(len(samples) - group, 0) + 1, group)]
    ratios = {name: [] for name in UNITS}
    for ops in groups:
        mine = op_metrics(ops)
        theirs = op_metrics(alongside(ops, ref.samples))
        for name, value in mine.items():
            ratios[name].append(value / theirs[name])
    for setup in own.setups:
        theirs = statistics.median(s.seconds for s in alongside([setup], ref.setups))
        ratios["setup_s"].append(setup.seconds / theirs)
    metrics = {name: (nominal[name] * statistics.median(ratios[name]), unit) for name, unit in UNITS.items()}
    mine, theirs = op_metrics(own.samples), op_metrics(ref.samples)
    note = "%d program and %d reference operations in %d groups, %d set-ups each; " \
        "program / reference in CPU time: %s" % (
            len(own.samples), len(ref.samples), len(groups), len(own.setups),
            ", ".join("%s %.6g / %.6g" % (name, mine[name], theirs[name]) for name in mine))
    return metrics, note


def measure_traced(seconds: float, op, ops_in) -> tuple[dict, Tracer, str]:
    """Per-layer metrics per operation, and the tracer's overhead.

    Untraced and traced operations alternate, so both see the same phases
    of machine load; the wrappers are installed before every traced
    operation and removed after it.  ops_in(samples) says how many
    benchmark operations the samples hold.
    """
    tracer = Tracer()
    restored = 0

    def pair():
        nonlocal restored
        plain = op()
        patcher = Patcher()
        install_tracer(patcher, tracer)
        try:
            traced = op(tracer)
        finally:
            restored = patcher.restore()
        check(plain is not None and traced is not None, "an operation failed")
        return plain, traced

    pairs = run_ops(seconds, pair)
    untraced = [plain for plain, _t in pairs]
    traced = [t for _p, t in pairs]
    metrics = layer_metrics(tracer, ops_in(traced))
    overhead = statistics.median(s.busy_ns for s in traced) / statistics.median(s.busy_ns for s in untraced) - 1
    metrics["trace.overhead_share"] = (overhead, "ratio")
    note = "traced %d operations (%d spans) against %d untraced; %d patched names restored" % (
        len(traced), len(tracer), len(untraced), restored)
    return metrics, tracer, note


class Reference:
    """The reference copy of parcelfuzz, served by refserver.py in a child
    process that opens the same workload.

    Use it as a context manager: leaving the block ends the child and
    waits for it, on every way out.  Between start() and side(), the child
    measures the reference's side of an untraced run while this process
    measures the program's.
    """

    def __init__(self, name: str, seed: int, workdir: Path, sizes: Sizes):
        argv = [
            sys.executable, str(HERE / "refserver.py"),
            "--workload", name, "--seed", str(seed), "--workdir", str(workdir),
            "--sizes", json.dumps(dataclasses.asdict(sizes)),
        ]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Reference:
        try:
            check(self._reply() == "ready", "the reference process did not start")
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(REFERENCE_GRACE_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        check(bool(line), "the reference process ended early (exit %s)" % self.proc.poll())
        return line.strip()

    def _send(self, request: str) -> None:
        try:
            self.proc.stdin.write(request + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise GateError("the reference process ended early (exit %s)" % self.proc.poll()) from None

    def start(self, seconds: float) -> None:
        """Start the reference's side of an untraced run of seconds."""
        self._send("run %r" % seconds)

    def stop(self) -> None:
        """Tell the reference that the program's side has measured enough."""
        self._send("stop")

    def stopped(self) -> bool:
        return readable(self.proc.stdout)

    def side(self) -> Side:
        """What the reference's side measured; call after stop()."""
        return Side.from_json(self._reply())


def readable(stream) -> bool:
    """Whether a read from stream would not block."""
    return bool(select.select([stream], [], [], 0)[0])


# ---------------------------------------------------------------------------
# Campaign workloads: semi_sweep and blind_10k.
# ---------------------------------------------------------------------------


def campaign_corpus(name: str, seed: int, sizes: Sizes):
    if name == "semi_sweep":
        return record_session(shuffled_scenarios(seed, sizes.scenario_copies))
    return record_session(["all"])


def campaign_config(name: str, corpus, seed: int, sizes: Sizes) -> FuzzConfig:
    if name == "semi_sweep":
        return FuzzConfig(policy="semi-valid", budget=BUDGET, corpus=corpus)
    return FuzzConfig(policy=["empty", "random"], budget=sizes.blind_budget, rng_seed=seed, corpus=corpus)


class CampaignRunner:
    """Runs one config repeatedly and gates every report it produces."""

    def __init__(self, name: str, seed: int, sizes: Sizes, report_path: Path, result: Result):
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.setups = sizes.campaign_setups
        self.writes = sizes.semi_writes if name == "semi_sweep" else sizes.blind_writes
        self.config: FuzzConfig | None = None
        self.report_path = report_path
        self.result = result
        self.reference: str | None = None
        self.stamps: list[int] = []

    def setup(self) -> float:
        """Record the corpus; later campaigns use the newest recording."""
        start = CPU_CLOCK()
        corpus = campaign_corpus(self.name, self.seed, self.sizes)
        elapsed = (CPU_CLOCK() - start) / 1e9
        self.config = campaign_config(self.name, corpus, self.seed, self.sizes)
        return elapsed

    def gate(self, report, text: str, manifest: set[str] | None = None) -> None:
        check(
            sum(report.counters.values()) == report.executed,
            "counters %r do not sum to executed=%d" % (report.counters, report.executed),
        )
        if manifest is not None:
            missing = manifest - report.distinct_fingerprints()
            check(not missing, "campaign missed %d seeded fingerprint(s)" % len(missing))
        if self.reference is None:
            self.reference = text
        check(text == self.reference, "two campaigns of one config gave different reports")

    def op(self, tracer: Tracer | None = None) -> Sample | None:
        """One campaign plus its report write."""
        self.stamps.clear()
        if tracer is not None:
            tracer.begin_op()
        try:
            report, busy = timed_call(tracer, "harness.run_fuzz", harness.run_fuzz, self.config)
        except Exception:  # counted as a failed operation; the run goes on
            traceback.print_exc()
            self.result.attempted += 1
            self.result.failed += 1
            return None
        if tracer is not None:
            tracer.end_op()
        # A traced campaign writes once, so that per-layer figures stay per campaign.
        text, write_ns = timed_writes(self.report_path, report, 1 if tracer is not None else self.writes)
        self.result.attempted += report.executed
        self.result.failed += report.counters["unreplayable"]
        self.gate(report, text)
        stamps = self.stamps
        latencies = array("d", [(b - a) / 1e6 for a, b in zip(stamps, stamps[1:])])
        return Sample(report.executed, busy, write_ns, latencies)

    @staticmethod
    def ops_in(samples: list[Sample]) -> int:
        return len(samples)


def open_campaign(name: str, seed: int, workdir: Path, sizes: Sizes, result: Result) -> CampaignRunner:
    runner = CampaignRunner(name, seed, sizes, workdir / "report.json", result)
    runner.setup()
    # Warm-up campaign: fills caches, and its report is the reference that
    # every later campaign, traced or not, must reproduce byte for byte.
    report = harness.run_fuzz(runner.config)
    result.attempted += report.executed
    result.failed += report.counters["unreplayable"]
    runner.gate(report, report.to_canonical_json(), manifest_fingerprints() if name == "semi_sweep" else None)
    result.notes.append(
        "%s: %d cases per campaign over %d records, counters %s, %d distinct fingerprints"
        % (name, report.executed, len(runner.config.corpus), report.counters, len(report.distinct_fingerprints()))
    )
    return runner


# ---------------------------------------------------------------------------
# replay_cli: one `parcelfuzz replay` per saved crash, round-robin.
# ---------------------------------------------------------------------------


class ReplayRunner:
    """Replays every crash of a saved report through cli.main, in seed order."""

    def __init__(self, seed: int, workdir: Path, sizes: Sizes, result: Result):
        self.seed = seed
        self.sizes = sizes
        self.setups = sizes.replay_setups
        self.corpus_path = workdir / "corpus.jsonl"
        self.report_path = workdir / "report.json"
        self.write_path = workdir / "report-write.json"
        self.result = result
        self.first_text: str | None = None
        self.setup()
        crashes = sorted(self.report.crashes, key=lambda c: (c.provenance["seed_seq"], c.first_seen_case_id))
        self.argvs = [
            ["replay", "--report", str(self.report_path), "--fingerprint", c.fingerprint,
             "--corpus", str(self.corpus_path)]
            for c in crashes
        ]
        self.fingerprints = [c.fingerprint for c in crashes]
        self.outputs: dict[str, str] = {}

    def setup(self) -> float:
        """Record, save the corpus, run the semi_sweep campaign, save its report.

        Every set-up must save the report of the first one byte for byte.
        """
        start = CPU_CLOCK()
        corpus = record_session(shuffled_scenarios(self.seed, self.sizes.scenario_copies))
        save_corpus(corpus, self.corpus_path)
        report = harness.run_fuzz(FuzzConfig(policy="semi-valid", budget=BUDGET, corpus=corpus))
        save_report(report, self.report_path)
        elapsed = (CPU_CLOCK() - start) / 1e9
        text = self.report_path.read_text(encoding="utf-8")
        if self.first_text is None:
            self.first_text, self.report, self.records = text, report, len(corpus)
        check(text == self.first_text, "two campaigns of one config gave different reports")
        return elapsed

    def replay(self, index: int, tracer: Tracer | None) -> int:
        """One CLI replay, gated on exit 2 and the printed fingerprint; returns its CPU ns."""
        fp = self.fingerprints[index]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.case += 1
                tracer.begin_op()
            code, busy = timed_call(tracer, "cli.main", cli.main, self.argvs[index])
            if tracer is not None:
                tracer.end_op()
        self.result.attempted += 1
        text = out.getvalue()
        if code != 2 or not text.startswith("reproduced %s\n" % fp):
            self.result.failed += 1
            raise GateError("replay of %s exited %r: %s%s" % (fp[:12], code, text, err.getvalue()))
        check(self.outputs.setdefault(fp, text) == text, "replay of %s printed different output" % fp[:12])
        return busy

    def op(self, tracer: Tracer | None = None) -> Sample:
        """One round: every crash replayed once, then one report write.

        Whole rounds keep per-replay counts exactly repeatable.
        """
        busy = [self.replay(index, tracer) for index in range(len(self.argvs))]
        _text, write_ns = timed_write(self.write_path, self.report)
        return Sample(len(busy), sum(busy), write_ns, array("d", [ns / 1e6 for ns in busy]))

    @staticmethod
    def ops_in(samples: list[Sample]) -> int:
        return sum(s.cases for s in samples)


def open_replay(seed: int, workdir: Path, sizes: Sizes, result: Result) -> ReplayRunner:
    runner = ReplayRunner(seed, workdir, sizes, result)
    check(bool(runner.argvs), "the saved report holds no crash to replay")
    result.notes.append(
        "replay_cli: %d crashes from %d cases over %d records"
        % (len(runner.argvs), runner.report.executed, runner.records)
    )
    # Warm-up round; its outputs are the reference for every later replay.
    runner.op()
    return runner


def open_workload(name: str, seed: int, workdir: Path, sizes: Sizes, result: Result):
    """Set up the workload, gate and run its warm-up operation; returns its runner."""
    if name == "replay_cli":
        return open_replay(seed, workdir, sizes, result)
    return open_campaign(name, seed, workdir, sizes, result)


@contextlib.contextmanager
def case_stamps(runner):
    """Time every campaign case while the block runs; replays time themselves."""
    patcher = Patcher()
    if isinstance(runner, CampaignRunner):
        install_case_stamps(patcher, runner.stamps)
    try:
        yield
    finally:
        patcher.restore()


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, sizes: Sizes = Sizes()) -> Result:
    result = Result()
    runner = open_workload(name, seed, workdir, sizes, result)
    if trace:
        metrics, tracer, note = measure_traced(seconds, runner.op, runner.ops_in)
        tracer.write(workdir.parent / ("spans-%s.jsonl" % name))
    else:
        refdir = workdir / "reference"
        refdir.mkdir()
        with Reference(name, seed, refdir, sizes) as reference, case_stamps(runner):
            reference.start(seconds)
            own = run_side(seconds, runner, reference.stop, reference.stopped)
            # Before the reference's reply, which only the benchmark holds.
            rss = peak_rss_mb()
            ref = reference.side()
        metrics, note = compare(own, ref, NOMINAL[name])
        metrics["peak_rss_mb"] = (rss, "MB")
    result.metrics = metrics
    result.notes.append(note)
    return result
