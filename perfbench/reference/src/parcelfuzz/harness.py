"""Campaign orchestration, crash triage, and reporting.

One fuzz case travels: generate (mutator) -> replay supports and
materialize (replayer) -> dispatch (router) -> classify the reply ->
fingerprint and deduplicate if it crashed.  The campaign report is
canonical JSON with no wall-clock anywhere, so identical configurations
serialize byte-identically; every crash embeds enough provenance to be
re-run from the report plus the corpus, nothing else.

Fingerprints hash the exception kind and the five innermost dispatch
frames.  Services push frames at function and failure-site granularity
(never per recursion level), which is what makes parameter variants of
one bug collapse while distinct sites stay apart.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .mutator import (
    CATALOG_VERSION,
    ConfigurationError,
    FuzzCase,
    Policy,
    _normalize_policies,
    generate_campaign,
)
from .recorder import SeedRecord, TraceBuilder, TraceNode, corpus_text
from .replayer import ReplaySession, Unreplayable
from .router import CrashInfo, Reply, ReplyKind, Router, Transaction
from .services import SEEDED_BUGS, SERVICE_CLASSES, fresh_router

FINGERPRINT_FRAMES = 5
ATTRIBUTION_WINDOW = 64
SCHEMA_DEPTH_LIMIT = 32

OUTCOMES = ("ok", "rejected", "handled_fault", "fatal_crash", "unreplayable")

_OUTCOME_BY_KIND = {
    ReplyKind.OK: "ok",
    ReplyKind.REJECTED: "rejected",
    ReplyKind.HANDLED_FAULT: "handled_fault",
    ReplyKind.FATAL_CRASH: "fatal_crash",
}


class HarnessError(Exception):
    """The harness itself was misused (bad report, bad reference)."""


class FingerprintMismatch(HarnessError):
    """A reproduced case did not land on the fingerprint it was saved under."""


class ManifestError(Exception):
    """A seeded bug does not behave as the catalog promises."""


def classify(reply: Reply) -> str:
    return _OUTCOME_BY_KIND[reply.kind]


def fingerprint(crash: CrashInfo) -> str:
    digest = hashlib.sha256()
    digest.update(crash.exception_kind.encode("utf-8"))
    for frame in crash.stack_frames[:FINGERPRINT_FRAMES]:
        digest.update(b"|")
        digest.update(frame.encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Report types.
# ---------------------------------------------------------------------------


@dataclass
class CrashReport:
    fingerprint: str
    exception_kind: str
    descriptor: str
    code: int
    stack_frames: tuple[str, ...]
    detail: str
    provenance: dict
    schema: dict
    first_seen_case_id: int
    hit_count: int = 1

    def to_json(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "exception_kind": self.exception_kind,
            "descriptor": self.descriptor,
            "code": self.code,
            "stack_frames": list(self.stack_frames),
            "detail": self.detail,
            "provenance": self.provenance,
            "schema": self.schema,
            "first_seen_case_id": self.first_seen_case_id,
            "hit_count": self.hit_count,
        }

    @classmethod
    def from_json(cls, obj) -> "CrashReport":
        return cls(
            fingerprint=obj["fingerprint"],
            exception_kind=obj["exception_kind"],
            descriptor=obj["descriptor"],
            code=int(obj["code"]),
            stack_frames=tuple(obj["stack_frames"]),
            detail=obj.get("detail", ""),
            provenance=obj["provenance"],
            schema=obj.get("schema", {}),
            first_seen_case_id=int(obj["first_seen_case_id"]),
            hit_count=int(obj["hit_count"]),
        )


@dataclass
class CampaignReport:
    config: dict
    counters: dict
    crashes: list[CrashReport]
    per_method: dict
    edge_summary: dict
    executed: int
    unexecuted: int

    def distinct_fingerprints(self) -> set[str]:
        return {c.fingerprint for c in self.crashes}

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "counters": self.counters,
            "crashes": [c.to_json() for c in sorted(self.crashes, key=lambda c: c.fingerprint)],
            "per_method": self.per_method,
            "edge_summary": self.edge_summary,
            "executed": self.executed,
            "unexecuted": self.unexecuted,
        }

    def to_canonical_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, obj) -> "CampaignReport":
        return cls(
            config=obj["config"],
            counters=obj["counters"],
            crashes=[CrashReport.from_json(c) for c in obj["crashes"]],
            per_method=obj["per_method"],
            edge_summary=obj["edge_summary"],
            executed=int(obj["executed"]),
            unexecuted=int(obj["unexecuted"]),
        )


def save_report(report: CampaignReport, path) -> None:
    Path(path).write_text(report.to_canonical_json(), encoding="utf-8")


def load_report(path) -> CampaignReport:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        return CampaignReport.from_json(obj)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise HarnessError("unreadable campaign report %s: %s" % (path, exc)) from None


# ---------------------------------------------------------------------------
# Campaign execution.
# ---------------------------------------------------------------------------


@dataclass
class FuzzConfig:
    policy: object
    budget: int
    rng_seed: int = 1
    corpus: list[SeedRecord] = field(default_factory=list)
    corpus_id: str | None = None
    mode: str = "isolated"
    sender_id: str = "fuzzer"

    def __post_init__(self):
        if self.mode not in ("isolated", "fast"):
            raise ConfigurationError("mode must be isolated or fast, got %r" % self.mode)


def corpus_digest(records) -> str:
    """Identity a corpus would have on disk; matches recorder.corpus_id."""
    return hashlib.sha256(corpus_text(records).encode("utf-8")).hexdigest()


def run_fuzz(config: FuzzConfig) -> CampaignReport:
    """Run one deterministic campaign and triage everything it dispatched."""
    cases = generate_campaign(config.corpus, config.policy, config.budget, config.rng_seed)

    counters = {name: 0 for name in OUTCOMES}
    per_method: dict[str, dict[str, int]] = {}
    crashes: dict[str, CrashReport] = {}
    edge_total = 0
    edges_by_sender: dict[str, int] = {}
    edges_by_descriptor: dict[str, int] = {}

    shared_session = None
    if config.mode == "fast":
        shared_session = ReplaySession(config.corpus)

    executed = 0
    for case in cases:
        executed += 1
        if config.mode == "fast":
            session = shared_session
            session.router.reset_named_services()
        else:
            session = ReplaySession(config.corpus)

        method_key = "%s:%d" % (case.descriptor, case.code)
        tally = per_method.setdefault(method_key, {name: 0 for name in OUTCOMES})

        try:
            txn = session.prepare(case, config.sender_id)
        except Unreplayable:
            counters["unreplayable"] += 1
            tally["unreplayable"] += 1
            if config.mode == "isolated":
                _absorb_edges(session.router, edges_by_sender, edges_by_descriptor)
                edge_total += len(session.router.edges)
            continue

        builder = TraceBuilder()
        reply = session.router.transact(txn, trace_hook=builder)
        outcome = classify(reply)
        counters[outcome] += 1
        tally[outcome] += 1

        if reply.kind is ReplyKind.FATAL_CRASH:
            _record_crash(crashes, case, reply.crash, builder.finish(), config)

        if config.mode == "isolated":
            _absorb_edges(session.router, edges_by_sender, edges_by_descriptor)
            edge_total += len(session.router.edges)

    if config.mode == "fast":
        _absorb_edges(shared_session.router, edges_by_sender, edges_by_descriptor)
        edge_total += len(shared_session.router.edges)

    policy_echo = [p.value for p in _normalize_policies(config.policy)]

    report = CampaignReport(
        config={
            "policy": policy_echo,
            "budget": config.budget,
            "rng_seed": config.rng_seed,
            "catalog_version": CATALOG_VERSION,
            "corpus_id": config.corpus_id or (corpus_digest(config.corpus) if config.corpus else None),
            "mode": config.mode,
        },
        counters=counters,
        crashes=sorted(crashes.values(), key=lambda c: c.fingerprint),
        per_method=per_method,
        edge_summary={
            "total": edge_total,
            "by_sender": edges_by_sender,
            "by_descriptor": edges_by_descriptor,
        },
        executed=executed,
        unexecuted=config.budget - executed,
    )
    return report


def _absorb_edges(router: Router, by_sender: dict, by_descriptor: dict) -> None:
    for edge in router.edges:
        by_sender[edge.sender_id] = by_sender.get(edge.sender_id, 0) + 1
        by_descriptor[edge.target_descriptor] = by_descriptor.get(edge.target_descriptor, 0) + 1


def _schema_json(node: TraceNode, depth: int = 0) -> dict:
    """Trace tree as JSON, truncated below SCHEMA_DEPTH_LIMIT.

    A runaway recursive decoder leaves a trace hundreds of levels deep;
    the report keeps enough of it to read the failure, not all of it.
    """
    obj = {"kind": node.kind, "label": node.label, "byte_range": [node.start, node.end]}
    if node.is_leaf:
        return obj
    if depth >= SCHEMA_DEPTH_LIMIT:
        obj["children"] = []
        obj["truncated"] = True
        return obj
    obj["children"] = [_schema_json(child, depth + 1) for child in node.children]
    return obj


def _record_crash(crashes, case: FuzzCase, crash: CrashInfo, schema: TraceNode, config: FuzzConfig) -> None:
    digest = fingerprint(crash)
    existing = crashes.get(digest)
    if existing is not None:
        existing.hit_count += 1
        return
    crashes[digest] = CrashReport(
        fingerprint=digest,
        exception_kind=crash.exception_kind,
        descriptor=case.descriptor,
        code=case.code,
        stack_frames=crash.stack_frames,
        detail=crash.detail,
        provenance={
            "policy": case.policy.value,
            "seed_seq": case.seed_seq,
            "field_path": list(case.field_path) if case.field_path is not None else None,
            "mutation_id": case.mutation_id,
            "rng_seed": config.rng_seed,
            "case": case.to_json(),
        },
        schema=_schema_json(schema),
        first_seen_case_id=case.case_id,
    )


# ---------------------------------------------------------------------------
# Reproduction and attribution.
# ---------------------------------------------------------------------------


def find_crash(report: CampaignReport, fingerprint_hex: str) -> CrashReport:
    """Exact match first, then a unique prefix; anything else is an error."""
    exact = [c for c in report.crashes if c.fingerprint == fingerprint_hex]
    if exact:
        return exact[0]
    prefixed = [c for c in report.crashes if c.fingerprint.startswith(fingerprint_hex)]
    if len(prefixed) == 1:
        return prefixed[0]
    if not prefixed:
        raise HarnessError("no crash with fingerprint %r in report" % fingerprint_hex)
    raise HarnessError("fingerprint prefix %r is ambiguous (%d matches)" % (fingerprint_hex, len(prefixed)))


def reproduce(report: CampaignReport, fingerprint_hex: str, corpus) -> Reply:
    """Re-run a saved crash from its provenance; the fingerprint must match."""
    saved = find_crash(report, fingerprint_hex)
    try:
        case = FuzzCase.from_json(saved.provenance["case"])
    except (KeyError, TypeError, ValueError) as exc:
        raise HarnessError("crash provenance is unusable: %s" % exc) from None
    session = ReplaySession(corpus)
    txn = session.prepare(case)
    reply = session.router.transact(txn)
    if reply.kind is not ReplyKind.FATAL_CRASH:
        raise FingerprintMismatch(
            "expected FATAL_CRASH %s, got %s" % (saved.fingerprint[:12], reply.kind.value)
        )
    got = fingerprint(reply.crash)
    if got != saved.fingerprint:
        raise FingerprintMismatch("reproduced %s, expected %s" % (got[:12], saved.fingerprint[:12]))
    return reply


def attribute(crash, edges, anchor: int | None = None, window: int = ATTRIBUTION_WINDOW) -> list[str]:
    """Candidate senders for a crash: who recently transacted with the victim.

    Looks at the last `window` edges at or before `anchor` (default: the
    end of the log), keeps those into the crash's descriptor, and returns
    their senders most-recent-first without duplicates.
    """
    descriptor = crash.descriptor if hasattr(crash, "descriptor") else str(crash)
    if anchor is None:
        scoped = list(edges)
    else:
        scoped = [e for e in edges if e.timestamp <= anchor]
    recent = scoped[-window:]
    senders: list[str] = []
    for edge in reversed(recent):
        if edge.target_descriptor == descriptor and edge.sender_id not in senders:
            senders.append(edge.sender_id)
    return senders


# ---------------------------------------------------------------------------
# Corpus manifest.
# ---------------------------------------------------------------------------


def build_manifest() -> dict:
    """Execute every seeded bug's trigger and pin its fingerprint.

    This is the recall oracle: campaign results are judged against the
    fingerprints measured here, one isolated dispatch per bug, with no
    fuzzing machinery involved.
    """
    bugs_by_descriptor: dict[str, list[dict]] = {}
    fingerprints: set[str] = set()
    for bug in SEEDED_BUGS:
        router = fresh_router()
        txn = Transaction(
            router.get_service(bug.descriptor), bug.code, bug.build_trigger(), 0, "manifest"
        )
        reply = router.transact(txn)
        if reply.kind is not ReplyKind.FATAL_CRASH:
            raise ManifestError("seeded bug %s did not crash (%s)" % (bug.bug_id, reply.kind.value))
        if reply.crash.exception_kind != bug.exception_kind:
            raise ManifestError(
                "seeded bug %s raised %s, catalog promises %s"
                % (bug.bug_id, reply.crash.exception_kind, bug.exception_kind)
            )
        digest = fingerprint(reply.crash)
        fingerprints.add(digest)
        bugs_by_descriptor.setdefault(bug.descriptor, []).append(
            {
                "id": bug.bug_id,
                "code": bug.code,
                "summary": bug.summary,
                "exception_kind": bug.exception_kind,
                "fingerprint": digest,
                "needs_structure": bug.needs_structure,
            }
        )
    if not 7 <= len(fingerprints) <= 10:
        raise ManifestError("expected 7..10 distinct fingerprints, measured %d" % len(fingerprints))
    services = []
    for cls in SERVICE_CLASSES:
        services.append(
            {
                "descriptor": cls.DESCRIPTOR,
                "methods": [
                    {
                        "code": spec.code,
                        "name": spec.name,
                        "signature": list(spec.signature),
                        "hidden": spec.hidden,
                    }
                    for spec in cls.REGISTRY.methods
                ],
                "seeded_bugs": bugs_by_descriptor.get(cls.DESCRIPTOR, []),
            }
        )
    return {
        "format_version": 1,
        "catalog_version": CATALOG_VERSION,
        "services": services,
        "fingerprint_count": len(fingerprints),
    }


def manifest_fingerprints(manifest: dict | None = None) -> set[str]:
    manifest = manifest or build_manifest()
    return {
        bug["fingerprint"]
        for service in manifest["services"]
        for bug in service["seeded_bugs"]
    }
