"""Dependency-ordered replay and live-handle materialization.

A fuzz case built from a seed may reference handles that only exist while
the recorded session is alive: the session object a service handed out,
for example.  Before dispatching such a case, the supporting transactions
that produced those handles are replayed against the current router, in
recorded order, and the fresh handles they return are collected into a
HandleMap.  Materialization then rewrites every handle slot in the case
payload from recorded ids to live ids, honoring mutation directives that
pin a slot's bytes or swap in a different service's handle.

Live handles are deliberately made to differ from recorded ones: each
session burns one handle number up front, so a replay that accidentally
relied on recorded ids would fail loudly instead of passing by luck.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .parcel import Kind, Parcel, handle_at
from .recorder import (
    CorpusError,
    DependencyGraph,
    MANAGER_DESCRIPTOR,
    SeedRecord,
    build_dependency_graph,
)
from .router import (
    Reply,
    ReplyKind,
    Router,
    Service,
    Transaction,
    SERVICE_MANAGER_HANDLE,
    UnknownServiceError,
)
from .services import fresh_router

SUPPORT_SENDER = "replayer"


class ReplayError(Exception):
    """Replay could not be set up (bad corpus reference, unknown service)."""


class Unreplayable(ReplayError):
    """A supporting transaction failed, or a required handle has no live value."""

    def __init__(self, reason: str, support_seq: int | None = None):
        super().__init__(reason)
        self.support_seq = support_seq


@dataclass
class HandleMap:
    """Recorded handle ids to live ones, plus resolved static services."""

    dynamic: dict[int, int] = field(default_factory=dict)
    static: dict[str, int] = field(default_factory=dict)


def plan(seed_seq: int, graph: DependencyGraph) -> list[int]:
    """All ancestors of seed_seq, ascending; the seed itself excluded.

    Ascending seq is a valid topological order because every edge points
    from an earlier record to a later one.
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


class ReplaySession:
    """One router, one handle map, one corpus: the unit of replay isolation.

    The default flow is one session per fuzz case on a fresh router.  A
    longer-lived session caches which supports it has already replayed and
    only executes the ones a new case adds, which is what the harness's
    fast mode leans on (it resets named services between cases; anonymous
    objects and therefore the handle map survive the reset).
    """

    def __init__(self, corpus, router: Router | None = None, burn_probe: bool = True):
        records = sorted(corpus, key=lambda r: r.seq)
        self.router = router if router is not None else fresh_router()
        self.corpus: dict[int, SeedRecord] = {r.seq: r for r in records}
        self.graph = build_dependency_graph(records)
        self.map = HandleMap()
        self._replayed: set[int] = set()
        # Descriptor each manager-produced handle value was looked up under,
        # recovered from the recorded lookup requests themselves.
        self._recorded_static: dict[int, str] = {}
        for record in records:
            if record.target == SERVICE_MANAGER_HANDLE and record.reply_kind == ReplyKind.OK.value:
                request = record.payload()
                name = request.read_lenient(Kind.STRING)
                if name is not None:
                    for value, _pos in record.produced_handles:
                        self._recorded_static[value] = name
        self.probe_handle: int | None = None
        if burn_probe:
            self.probe_handle = self.router.register_service("", Service())

    # -- static resolution ------------------------------------------------------

    def resolve_static(self, descriptor: str) -> int:
        if descriptor == MANAGER_DESCRIPTOR:
            return SERVICE_MANAGER_HANDLE
        if descriptor not in self.map.static:
            try:
                self.map.static[descriptor] = self.router.get_service(descriptor)
            except UnknownServiceError:
                raise Unreplayable("static prerequisite %r is not hosted" % descriptor) from None
        return self.map.static[descriptor]

    # -- replaying records ------------------------------------------------------

    def missing_supports(self, seed_seq: int) -> list[int]:
        return [s for s in plan(seed_seq, self.graph) if s not in self._replayed]

    def ensure_supports(self, seed_seq: int) -> list[int]:
        """Replay whatever ancestors of seed_seq have not run yet."""
        executed = []
        for support_seq in self.missing_supports(seed_seq):
            record = self.corpus[support_seq]
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
        if seed_seq not in self.corpus:
            raise CorpusError("no record with seq %d" % seed_seq)
        self.ensure_supports(seed_seq)
        return self._execute_record(self.corpus[seed_seq])

    def _execute_record(self, record: SeedRecord) -> Reply:
        payload = self._patch_record_slots(record)
        target = self._record_target(record)
        txn = Transaction(target, record.code, payload, 0, SUPPORT_SENDER)
        reply = self.router.transact(txn)
        if reply.kind is ReplyKind.OK and reply.payload is not None:
            for recorded_value, pos in record.produced_handles:
                live_value = handle_at(reply.payload.buffer, pos)
                if record.target == SERVICE_MANAGER_HANDLE:
                    name = self._recorded_static.get(recorded_value)
                    if name is not None:
                        self.map.static[name] = live_value
                else:
                    self.map.dynamic[recorded_value] = live_value
        return reply

    def _record_target(self, record: SeedRecord) -> int:
        if record.target == SERVICE_MANAGER_HANDLE:
            return SERVICE_MANAGER_HANDLE
        if record.target in self.map.dynamic:
            return self.map.dynamic[record.target]
        return self.resolve_static(record.descriptor)

    def _patch_record_slots(self, record: SeedRecord) -> Parcel:
        buf = bytearray(bytes.fromhex(record.payload_hex))
        for pos in record.offsets:
            recorded = handle_at(bytes(buf), pos)
            struct.pack_into("<i", buf, pos, self._live_handle(recorded))
        return Parcel.from_hex(bytes(buf).hex(), list(record.offsets))

    def _live_handle(self, recorded: int) -> int:
        if recorded == SERVICE_MANAGER_HANDLE:
            return SERVICE_MANAGER_HANDLE
        if recorded in self.map.dynamic:
            return self.map.dynamic[recorded]
        name = self._recorded_static.get(recorded)
        if name is not None:
            return self.resolve_static(name)
        raise Unreplayable("recorded handle %d has no live mapping" % recorded)

    # -- fuzz case flow -----------------------------------------------------------

    def prepare(self, case, sender_id: str = "fuzzer") -> Transaction:
        """Replay the case's missing supports, then materialize it."""
        if case.seed_seq is not None:
            self.ensure_supports(case.seed_seq)
        return self.materialize(case, sender_id)

    def materialize(self, case, sender_id: str = "fuzzer") -> Transaction:
        """Live-handle-patched Transaction for a case whose supports are ready."""
        buf = bytearray(bytes.fromhex(case.payload_hex))
        overrides = dict(case.slot_overrides)
        for pos in case.offsets:
            directive = overrides.get(pos)
            if directive == "pin":
                continue
            if directive is not None and directive.startswith("swap:"):
                live = self.resolve_static(directive[len("swap:"):])
            else:
                live = self._live_handle(handle_at(bytes(buf), pos))
            struct.pack_into("<i", buf, pos, live)
        payload = Parcel.from_hex(bytes(buf).hex(), list(case.offsets))
        return Transaction(self._case_target(case), case.code, payload, 0, sender_id)

    def _case_target(self, case) -> int:
        if case.seed_seq is not None:
            return self._record_target(self.corpus[case.seed_seq])
        if case.descriptor == MANAGER_DESCRIPTOR:
            return SERVICE_MANAGER_HANDLE
        return self.resolve_static(case.descriptor)
