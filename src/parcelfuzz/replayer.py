"""Dependency-ordered replay and live-handle materialization.

A fuzz case built from a seed may reference handles that only exist while
the recorded session is alive: the session object a service handed out,
for example.  Before dispatching such a case, the supporting transactions
that produced those handles are replayed against the current router, in
recorded order, and the fresh handles they return are collected in the
session's map of recorded to live handles.  Static handles are resolved by
name from the router every time they are needed.  Materialization then
rewrites every handle slot in the case payload from recorded ids to live
ids, honoring mutation directives that pin a slot's bytes or swap in a
different service's handle.

Live handles are deliberately made to differ from recorded ones: each
session burns one handle number up front, so a replay that accidentally
relied on recorded ids would fail loudly instead of passing by luck.
"""

from __future__ import annotations

import struct
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .parcel import Kind, Parcel, handle_at
from .recorder import (
    CorpusError,
    DependencyGraph,
    SeedRecord,
    build_dependency_graph,
)
from .router import (
    Reply,
    ReplyKind,
    Service,
    Transaction,
    SERVICE_MANAGER_DESCRIPTOR,
    SERVICE_MANAGER_HANDLE,
    UnknownServiceError,
)
from .services import fresh_router

SUPPORT_SENDER = "replayer"
FUZZ_SENDER = "fuzzer"


class ReplayError(Exception):
    """Replay could not be set up (bad corpus reference, unknown service)."""


class Unreplayable(ReplayError):
    """A supporting transaction failed, or a required handle has no live value."""

    def __init__(self, reason: str, support_seq: int | None = None):
        super().__init__(reason)
        self.support_seq = support_seq


def plan(seed_seq: int, graph: DependencyGraph) -> list[int]:
    """All ancestors of seed_seq, ascending; the seed itself excluded.

    Ascending seq is a valid topological order because every edge points
    from an earlier record to a later one.  ``prepare_corpus`` computes
    the same plans for every seed at once; this walk is their reference.
    """
    if seed_seq not in graph.nodes:
        raise CorpusError("seed %d is not in the dependency graph" % seed_seq)
    ancestors: set[int] = set()
    frontier = [seed_seq]
    while frontier:
        node = frontier.pop()
        for edge in graph.edges:
            if edge.consumer_seq == node and edge.producer_seq not in ancestors:
                ancestors.add(edge.producer_seq)
                frontier.append(edge.producer_seq)
    return sorted(ancestors)


class PreparedCorpus(NamedTuple):
    """What replay derives from a corpus alone, built once and only read.

    records maps seq to record; static_names maps each handle value a
    service-manager lookup produced to the descriptor it was looked up
    under, recovered from the recorded requests; plans maps each seq to
    its support plan (see ``plan``).
    """

    records: Mapping[int, SeedRecord]
    static_names: Mapping[int, str]
    plans: Mapping[int, tuple[int, ...]]


def prepare_corpus(records) -> PreparedCorpus:
    """Validate a corpus and derive everything replay needs from it."""
    ordered = sorted(records, key=lambda r: r.seq)
    graph = build_dependency_graph(ordered)
    static_names: dict[int, str] = {}
    for record in ordered:
        if record.target == SERVICE_MANAGER_HANDLE and record.reply_kind == ReplyKind.OK.value:
            name = record.parcel().read_lenient(Kind.STRING)
            if name is not None:
                for value, _pos in record.produced_handles:
                    static_names[value] = name
    # Edges come in ascending consumer order and point forward, so each
    # producer's plan is final before any edge out of it is reached.
    plans = dict.fromkeys(graph.nodes, ())
    for edge in graph.edges:
        found = {*plans[edge.consumer_seq], edge.producer_seq, *plans[edge.producer_seq]}
        plans[edge.consumer_seq] = tuple(sorted(found))
    return PreparedCorpus(
        MappingProxyType({r.seq: r for r in ordered}), MappingProxyType(static_names), MappingProxyType(plans)
    )


def check_replies(prepared: PreparedCorpus) -> None:
    """Replay every record once, unmutated, in seq order, on one fresh
    session, and refuse the corpus unless each replies as recorded.

    Loading checks each record against itself.  A STRING length prefix
    that lies but still ends inside its leaf's padding passes every such
    check; the service then reads another string, and its reply tells.
    """
    session = ReplaySession(prepared)
    for record in prepared.records.values():
        replied = session._execute_record(record).kind.value
        if replied != record.reply_kind:
            raise CorpusError("record %d recorded %s, replayed %s" % (record.seq, record.reply_kind, replied))


class ReplaySession:
    """One fresh router over a prepared corpus: the unit of replay isolation.

    The harness builds one session per fuzz case over a corpus it prepared
    once for the whole campaign.  A session only reads that corpus.
    ``live`` maps each recorded dynamic handle a replayed support produced
    to the live handle it produced this time.  Within a session each
    support is replayed at most once (see ``ensure_supports``).
    """

    def __init__(self, prepared: PreparedCorpus):
        self.prepared = prepared
        self.router = fresh_router()
        self.live: dict[int, int] = {}
        self._replayed: set[int] = set()
        self.probe_handle = self.router.register_service("", Service())

    # -- static resolution ------------------------------------------------------

    def resolve_static(self, descriptor: str) -> int:
        """The live handle of a named service.  The router's name map never
        changes during a session, so a service-manager lookup replayed in
        it returns this same handle."""
        if descriptor == SERVICE_MANAGER_DESCRIPTOR:
            return SERVICE_MANAGER_HANDLE
        try:
            return self.router.get_service(descriptor)
        except UnknownServiceError:
            raise Unreplayable("static prerequisite %r is not hosted" % descriptor) from None

    # -- replaying records ------------------------------------------------------

    def ensure_supports(self, seed_seq: int) -> list[int]:
        """Replay whatever ancestors of seed_seq have not run yet."""
        try:
            support_plan = self.prepared.plans[seed_seq]
        except KeyError:
            raise CorpusError("seed %d is not in the dependency graph" % seed_seq) from None
        executed = []
        for support_seq in support_plan:
            if support_seq in self._replayed:
                continue
            record = self.prepared.records[support_seq]
            reply = self._execute_record(record)
            if reply.kind is not ReplyKind.OK:
                raise Unreplayable(
                    "support %d (%s code %d) replied %s"
                    % (support_seq, record.descriptor, record.code, reply.kind.value),
                    support_seq,
                )
            self._replayed.add(support_seq)
            executed.append(support_seq)
        return executed

    def replay_seed(self, seed_seq: int) -> Reply:
        """Replay one record, unmutated, with its supports; returns its reply."""
        record = self.prepared.records.get(seed_seq)
        if record is None:
            raise CorpusError("no record with seq %d" % seed_seq)
        self.ensure_supports(seed_seq)
        return self._execute_record(record)

    def _execute_record(self, record: SeedRecord) -> Reply:
        payload = self._patch_record_slots(record)
        txn = Transaction(self._record_target(record), record.code, payload, SUPPORT_SENDER)
        reply = self.router.transact(txn)
        # What a service-manager lookup returns is resolved by name instead.
        if reply.kind is ReplyKind.OK and record.target != SERVICE_MANAGER_HANDLE:
            for recorded_value, pos in record.produced_handles:
                if pos not in reply.payload.offsets:
                    raise Unreplayable("record %d replied with no handle at %d" % (record.seq, pos), record.seq)
                self.live[recorded_value] = handle_at(reply.payload.buffer, pos)
        return reply

    def _record_target(self, record: SeedRecord) -> int:
        if record.target == SERVICE_MANAGER_HANDLE:
            return SERVICE_MANAGER_HANDLE
        if record.target in self.live:
            return self.live[record.target]
        return self.resolve_static(record.descriptor)

    def _patch_record_slots(self, record: SeedRecord) -> Parcel:
        buf = bytearray(record.payload)
        for pos in record.offsets:
            struct.pack_into("<i", buf, pos, self._live_handle(handle_at(buf, pos)))
        return Parcel(buf, record.offsets)

    def _live_handle(self, recorded: int) -> int:
        if recorded == SERVICE_MANAGER_HANDLE:
            return SERVICE_MANAGER_HANDLE
        if recorded in self.live:
            return self.live[recorded]
        name = self.prepared.static_names.get(recorded)
        if name is not None:
            return self.resolve_static(name)
        raise Unreplayable("recorded handle %d has no live mapping" % recorded)

    # -- fuzz case flow -----------------------------------------------------------

    def prepare(self, case) -> Transaction:
        """Replay the case's missing supports, then materialize it."""
        if case.seed_seq is not None:
            self.ensure_supports(case.seed_seq)
        return self.materialize(case)

    def materialize(self, case) -> Transaction:
        """Live-handle-patched Transaction for a case whose supports are ready."""
        buf = bytearray(case.payload)
        overrides = dict(case.slot_overrides)
        for pos in case.offsets:
            directive = overrides.get(pos)
            if directive == "pin":
                continue
            if directive is not None and directive.startswith("swap:"):
                live = self.resolve_static(directive[len("swap:"):])
            else:
                live = self._live_handle(handle_at(buf, pos))
            struct.pack_into("<i", buf, pos, live)
        payload = Parcel(buf, case.offsets)
        return Transaction(self._case_target(case), case.code, payload, FUZZ_SENDER)

    def _case_target(self, case) -> int:
        if case.seed_seq is not None:
            return self._record_target(self.prepared.records[case.seed_seq])
        return self.resolve_static(case.descriptor)
