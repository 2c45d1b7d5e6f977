"""Spans and counters recorded from outside the parcelfuzz package.

The package under ``src/`` carries no instrumentation.  Instead, wrappers
are installed at run time on the names the callers look up: module
globals such as ``harness.ReplaySession`` or ``replayer.fresh_router``,
and class attributes such as ``Router.transact``.  ``Patcher`` remembers
every original and puts it back, and ``Patcher.restore`` verifies that it
did.

A span records its name, start, end, parent span and the case index it
belongs to.  Spans stay in memory until the run ends.  Calls that take
about a microsecond (parcel reads, parcel construction, trace-hook leaves)
are counted, never timed, because a span around them would mostly measure
the tracer.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    """In-memory span log plus named counters for one traced run.

    Spans live in parallel arrays, 40 bytes each, because a traced
    ``blind_10k`` run records several hundred thousand of them.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.cases = array("q")
        self.counts: Counter = Counter()
        # Index of the case (campaign case or CLI replay) now in progress,
        # counted across the whole run so that it identifies one request.
        self.case = -1
        self._stack: list[int] = []
        self._op_fingerprints: set[str] = set()
        self.distinct_fingerprints = 0

    def __len__(self) -> int:
        return len(self.names)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named name."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.cases.append(self.case)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._stack.pop()

    def rows(self):
        """Every span as (name, start_ns, end_ns, parent_index, case_index)."""
        return zip(self.names, self.starts, self.ends, self.parents, self.cases)

    def begin_op(self) -> None:
        """Start one benchmark operation (a campaign or a CLI replay)."""
        self._op_fingerprints = set()

    def end_op(self) -> None:
        self.distinct_fingerprints += len(self._op_fingerprints)

    def saw_fingerprint(self, digest: str) -> None:
        self._op_fingerprints.add(digest)

    def write(self, path) -> None:
        """One JSON array per span: name, start_ns, end_ns, parent, case."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row, separators=(",", ":")))
                fh.write("\n")


def totals(rows) -> dict[str, tuple[int, int, int]]:
    """Per span name: (count, total ns, self ns).

    Self time is a span's duration minus the durations of its direct
    children.  Spans of one thread nest, so the children never overlap.
    """
    rows = list(rows)
    child_ns = [0] * len(rows)
    for _name, start, end, parent, _case in rows:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for index, (name, start, end, _parent, _case) in enumerate(rows):
        entry = out[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns[index]
    return {name: tuple(entry) for name, entry in out.items()}


class Patcher:
    """Replaces attributes where they are defined and puts them back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make):
        """Set owner.attr to make(original); owner must define attr itself."""
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> int:
        """Undo every wrap, newest first; returns how many names were restored."""
        restored = len(self._saved)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                raise RuntimeError("could not restore %s.%s" % (owner.__name__, attr))
        return restored


def install_case_stamps(patcher: Patcher, stamps: list[int]) -> None:
    """Record this thread's CPU time each time run_fuzz asks its case
    stream for a case.

    Consecutive stamps bound one case: generating it, replaying its
    supports, dispatching it and triaging the reply.  This is the only
    probe the untraced run installs.
    """
    from parcelfuzz import harness

    clock = time.thread_time_ns

    def stamped(inner):
        stamps.append(clock())
        for case in inner:
            yield case
            stamps.append(clock())

    patcher.wrap(harness, "generate_campaign", lambda orig: lambda *a, **k: stamped(orig(*a, **k)))


def install_tracer(patcher: Patcher, tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from parcelfuzz import cli, harness, mutator, parcel, recorder, replayer, router

    counts = tracer.counts

    def timed(name):
        def make(original):
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, *args, **kwargs)

            return wrapper

        return make

    def counted(name):
        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        return make

    # parcel: counted only.
    patcher.wrap(parcel.Parcel, "read_value", counted("parcel.reads"))
    patcher.wrap(parcel.Parcel, "read_handle", counted("parcel.reads"))
    patcher.wrap(parcel.Parcel, "__init__", counted("parcel.parcels_built"))

    # router: every dispatch, support replays included.
    def make_transact(original):
        def transact(self, *args, **kwargs):
            before = len(self.edges)
            try:
                return tracer.call("router.transact", original, self, *args, **kwargs)
            finally:
                counts["router.edges"] += len(self.edges) - before

        return transact

    patcher.wrap(router.Router, "transact", make_transact)

    # services and recorder, as the replayer looks them up.
    patcher.wrap(replayer, "fresh_router", timed("services.fresh_router"))
    patcher.wrap(replayer, "build_dependency_graph", timed("recorder.graph_build"))
    patcher.wrap(recorder.TraceBuilder, "on_leaf", counted("recorder.trace_leaves"))
    patcher.wrap(recorder.TraceBuilder, "finish", timed("recorder.trace_finish"))
    patcher.wrap(cli, "load_corpus", timed("recorder.corpus_load"))

    # mutator: the case stream run_fuzz iterates, one span per next().
    def traced_stream(inner):
        while True:
            index = len(tracer)
            try:
                case = tracer.call("mutator.next", next, inner)
            except StopIteration:
                return
            counts["mutator.cases"] += 1
            # The span that generated the case belongs to that case.
            tracer.case = tracer.cases[index] = counts["mutator.cases"]
            yield case

    patcher.wrap(harness, "generate_campaign", lambda orig: lambda *a, **k: traced_stream(orig(*a, **k)))
    patcher.wrap(mutator, "decompose", counted("mutator.decompose_calls"))

    # replayer: session construction, prepare, supports, unreplayable cases.
    patcher.wrap(harness, "ReplaySession", timed("replayer.session_init"))

    def make_prepare(original):
        def prepare(self, *args, **kwargs):
            try:
                return tracer.call("replayer.prepare", original, self, *args, **kwargs)
            except replayer.Unreplayable:
                counts["replayer.unreplayable"] += 1
                raise

        return prepare

    patcher.wrap(replayer.ReplaySession, "prepare", make_prepare)

    def make_ensure_supports(original):
        def ensure_supports(self, *args, **kwargs):
            executed = original(self, *args, **kwargs)
            counts["replayer.supports_replayed"] += len(executed)
            return executed

        return ensure_supports

    patcher.wrap(replayer.ReplaySession, "ensure_supports", make_ensure_supports)

    # harness: triage, serialization, report loading.
    def make_fingerprint(original):
        def fingerprint(crash):
            digest = tracer.call("harness.fingerprint", original, crash)
            tracer.saw_fingerprint(digest)
            return digest

        return fingerprint

    patcher.wrap(harness, "fingerprint", make_fingerprint)
    patcher.wrap(harness.CampaignReport, "to_canonical_json", timed("harness.report_serialize"))
    patcher.wrap(cli, "load_report", timed("harness.report_load"))


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per benchmark operation, from one traced run.

    ``harness.run_fuzz`` and ``cli.main`` spans are opened by the
    benchmark itself around its calls into the package.
    """
    spans = totals(tracer.rows())
    counts = tracer.counts

    def n(name):
        return spans.get(name, (0, 0, 0))[0]

    def total_s(name):
        return spans.get(name, (0, 0, 0))[1] / 1e9 / ops

    def self_s(name):
        return spans.get(name, (0, 0, 0))[2] / 1e9 / ops

    def per_op(value):
        return value / ops

    prepares = n("replayer.prepare")
    fingerprints = n("harness.fingerprint")
    return {
        "parcel.reads": (per_op(counts["parcel.reads"]), "count"),
        "parcel.parcels_built": (per_op(counts["parcel.parcels_built"]), "count"),
        "router.transacts": (per_op(n("router.transact")), "count"),
        "router.transact_self_s": (self_s("router.transact"), "s"),
        "router.edges": (per_op(counts["router.edges"]), "count"),
        "services.fresh_router_calls": (per_op(n("services.fresh_router")), "count"),
        "services.fresh_router_s": (total_s("services.fresh_router"), "s"),
        "recorder.graph_builds": (per_op(n("recorder.graph_build")), "count"),
        "recorder.graph_build_s": (total_s("recorder.graph_build"), "s"),
        "recorder.trace_leaves": (per_op(counts["recorder.trace_leaves"]), "count"),
        "recorder.trace_finish_s": (total_s("recorder.trace_finish"), "s"),
        "recorder.corpus_load_s": (total_s("recorder.corpus_load"), "s"),
        "mutator.cases": (per_op(counts["mutator.cases"]), "count"),
        "mutator.generate_s": (total_s("mutator.next"), "s"),
        "mutator.decompose_calls": (per_op(counts["mutator.decompose_calls"]), "count"),
        "replayer.sessions": (per_op(n("replayer.session_init")), "count"),
        "replayer.session_init_self_s": (self_s("replayer.session_init"), "s"),
        "replayer.prepare_self_s": (self_s("replayer.prepare"), "s"),
        "replayer.supports_replayed": (per_op(counts["replayer.supports_replayed"]), "count"),
        "replayer.supports_per_case": (
            counts["replayer.supports_replayed"] / prepares if prepares else 0.0,
            "ratio",
        ),
        "replayer.unreplayable": (per_op(counts["replayer.unreplayable"]), "count"),
        "harness.fingerprints": (per_op(fingerprints), "count"),
        "harness.fingerprint_s": (total_s("harness.fingerprint"), "s"),
        "harness.dedup_ratio": (
            tracer.distinct_fingerprints / fingerprints if fingerprints else 0.0,
            "ratio",
        ),
        "harness.run_fuzz_self_s": (self_s("harness.run_fuzz"), "s"),
        "harness.report_serialize_s": (total_s("harness.report_serialize"), "s"),
        "harness.report_load_s": (total_s("harness.report_load"), "s"),
        "cli.main_self_s": (self_s("cli.main"), "s"),
    }
