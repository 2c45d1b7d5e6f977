"""Dependency-ordered replay and live-handle materialization.

A fuzz case built from a seed may reference handles that only exist while
the recorded session is alive: the session object a service handed out,
for example.  Before dispatching such a case, the supporting transactions
that produced those handles are replayed against the current router, in
recorded order, and the fresh handles they return are collected in the
session's map of recorded to live handles.  Static handles are resolved
from the router every time they are needed, by the name the dependency
graph gave them when the corpus was prepared.  Materialization then
rewrites every handle slot in the case payload from recorded ids to live
ids, honoring mutation directives that pin a slot's bytes or swap in a
different service's handle.

Live handles are deliberately made to differ from recorded ones: each
session burns one handle number up front, so a replay that accidentally
relied on recorded ids would fail loudly instead of passing by luck.

A case with no seed has no supports and no handle slots, so it needs no
session: ``seedless_transaction`` gives it a router of its own, burnt
the same way, and the transaction a session would have sent.  It reads
the target from the shipped host table (``services.HOSTED``) and builds
the transaction positionally: a blind campaign builds one per case.
"""

from __future__ import annotations

import struct
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .parcel import Parcel, handle_at
from .recorder import CorpusError, SeedRecord, build_dependency_graph
from .router import (
    OK,
    Reply,
    Router,
    Service,
    Transaction,
    SERVICE_MANAGER_DESCRIPTOR,
    SERVICE_MANAGER_HANDLE,
    UnknownServiceError,
)
from .services import HOSTED, fresh_router

SUPPORT_SENDER = "replayer"
FUZZ_SENDER = "fuzzer"


class ReplayError(Exception):
    """Replay could not be set up (bad corpus reference, unknown service)."""


class Unreplayable(ReplayError):
    """A supporting transaction failed, or a required handle has no live value."""

    def __init__(self, reason: str, support_seq: int | None = None):
        super().__init__(reason)
        self.support_seq = support_seq


class PreparedCorpus(NamedTuple):
    """What replay derives from a corpus alone, built once and only read.

    records maps seq to record, in seq order; static_names maps each
    static handle value to the service it was looked up as (see
    ``build_dependency_graph``), so every static handle a record targets
    or carries resolves by the same name; plans maps each seq to its
    support plan: its ancestors, ascending, the order they replay in.
    """

    records: Mapping[int, SeedRecord]
    static_names: Mapping[int, str]
    plans: Mapping[int, tuple[int, ...]]


def prepare_corpus(records) -> PreparedCorpus:
    """Validate a sequence of records, in any order, in the dependency
    graph's one walk, and derive everything replay needs from them."""
    graph = build_dependency_graph(records)
    # The graph's nodes are the seqs, ascending and each held once.
    by_seq = dict.fromkeys(graph.nodes)
    by_seq.update((r.seq, r) for r in records)
    # Edges come in ascending consumer order and point forward, so each
    # producer's plan is final before any edge out of it is reached.
    plans = dict.fromkeys(graph.nodes, ())
    for edge in graph.edges:
        found = {*plans[edge.consumer_seq], edge.producer_seq, *plans[edge.producer_seq]}
        plans[edge.consumer_seq] = tuple(sorted(found))
    return PreparedCorpus(
        MappingProxyType(by_seq), MappingProxyType(graph.static_names), MappingProxyType(plans)
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
        replied = session._execute_record(record)[1].kind
        if replied != record.reply_kind:
            raise CorpusError("record %d recorded %s, replayed %s" % (record.seq, record.reply_kind, replied))


def _static_handle(router: Router, descriptor: str) -> int:
    """The live handle of a named service.  A router's names are its host
    table's and never change, so a service-manager lookup replayed on it
    returns this same handle."""
    if descriptor == SERVICE_MANAGER_DESCRIPTOR:
        return SERVICE_MANAGER_HANDLE
    try:
        return router.get_service(descriptor)
    except UnknownServiceError:
        raise Unreplayable("static prerequisite %r is not hosted" % descriptor) from None


def seedless_transaction(case) -> tuple[Router, Transaction]:
    """A fresh router for a generated case with no seed, its probe handle
    burnt as a session's is, and the transaction a ReplaySession would
    send for the case: its bytes, which hold no handle slot, to its
    descriptor's static handle.

    The router is the one ``fresh_router`` builds, and the handle comes
    from the host table the router answers lookups from.  Only a name the
    table lacks goes through _static_handle: the service manager resolves
    there, and an unhosted name raises its Unreplayable.  The Transaction
    is built positionally, every field given.
    """
    router = Router(HOSTED)
    router.export(Service())
    handle = HOSTED.names.get(case.descriptor)
    if handle is None:
        handle = _static_handle(router, case.descriptor)
    return router, tuple.__new__(Transaction, (handle, case.code, Parcel(case.payload), FUZZ_SENDER))


class ReplaySession:
    """One fresh router over a prepared corpus: the unit of replay isolation.

    The harness builds a session over a corpus it prepared once for the
    whole campaign, and dispatches at most one fuzz case on it.  A session
    only reads that corpus.  ``live`` maps each recorded dynamic handle a
    replayed support produced to the live handle it produced this time.
    Within a session each support is replayed at most once (see
    ``ensure_supports``), and ``_replayed`` maps each replayed support's
    seq to the Transaction it sent, in the order they were sent.
    """

    def __init__(self, prepared: PreparedCorpus):
        self.prepared = prepared
        self.router = fresh_router()
        self.live: dict[int, int] = {}
        self._replayed: dict[int, Transaction] = {}
        self.probe_handle = self.router.export(Service())

    # -- static resolution ------------------------------------------------------

    def resolve_static(self, descriptor: str) -> int:
        """The live handle of a named service (see _static_handle)."""
        return _static_handle(self.router, descriptor)

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
            txn, reply = self._execute_record(record)
            if reply.kind != OK:
                raise Unreplayable(
                    "support %d (%s code %d) replied %s"
                    % (support_seq, record.descriptor, record.code, reply.kind),
                    support_seq,
                )
            self._replayed[support_seq] = txn
            executed.append(support_seq)
        return executed

    def _execute_record(self, record: SeedRecord) -> tuple[Transaction, Reply]:
        """Send record, live-handle-patched; returns what was sent and the reply."""
        payload = self._patched(record.payload, record.offsets, ())
        txn = Transaction(self._live_handle(record.target), record.code, payload, SUPPORT_SENDER)
        reply = self.router.transact(txn)
        # What a service-manager lookup returns is resolved by name instead.
        if reply.kind == OK and record.target != SERVICE_MANAGER_HANDLE:
            for recorded_value, pos in record.produced_handles:
                if pos not in reply.payload.offsets:
                    raise Unreplayable("record %d replied with no handle at %d" % (record.seq, pos), record.seq)
                self.live[recorded_value] = handle_at(reply.payload.buffer, pos)
        return txn, reply

    def _patched(self, payload: bytes, offsets: tuple[int, ...], slot_overrides) -> Parcel:
        """payload with the live handle in every slot at offsets, except
        where slot_overrides pins a slot's bytes or swaps in the handle of
        another service.  The parcel copies payload once, and its own
        buffer is patched in place before anything else can read it."""
        parcel = Parcel(payload, offsets)
        buf = parcel._buf
        overrides = dict(slot_overrides)
        for pos in offsets:
            directive = overrides.get(pos)
            if directive == "pin":
                continue
            if directive is not None and directive.startswith("swap:"):
                live = self.resolve_static(directive[len("swap:"):])
            else:
                live = self._live_handle(handle_at(buf, pos))
            struct.pack_into("<i", buf, pos, live)
        return parcel

    def _live_handle(self, recorded: int) -> int:
        """The live handle for a recorded target or slot value: the one a
        replayed support produced, else the named service's."""
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
        payload = self._patched(case.payload, case.offsets, case.slot_overrides)
        return Transaction(self._case_target(case), case.code, payload, FUZZ_SENDER)

    def _case_target(self, case) -> int:
        if case.seed_seq is not None:
            return self._live_handle(self.prepared.records[case.seed_seq].target)
        return self.resolve_static(case.descriptor)
