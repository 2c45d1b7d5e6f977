"""Campaign orchestration, crash triage, and reporting.

One fuzz case travels: generate (mutator) -> replay supports and
materialize (replayer) -> dispatch (router) -> classify the reply ->
fingerprint and deduplicate if it crashed.  The campaign report is
canonical JSON with no wall-clock anywhere, so identical configurations
serialize byte-identically; every crash embeds enough provenance to be
re-run from the report plus the corpus, nothing else.

Cases dispatch without a trace hook.  A crash's schema (the type trace
of the input that caused it) comes from one traced replay of the first
case to reach each distinct fingerprint, on a fresh session over the
same prepared corpus; repeat crashes only count hits.

Fingerprints hash the exception kind and the five innermost dispatch
frames.  Services push frames at function and failure-site granularity
(never per recursion level), which is what makes parameter variants of
one bug collapse while distinct sites stay apart.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from types import NoneType
from typing import NamedTuple, Sequence

from .mutator import (
    CATALOG_VERSION,
    FuzzCase,
    Policy,
    _normalize_policies,
    generate_campaign,
)
from .recorder import SeedRecord, TraceBuilder, TraceNode, _excerpt, _field, _items, corpus_digest
from .replayer import PreparedCorpus, ReplaySession, Unreplayable, check_replies, prepare_corpus
from .router import CrashInfo, Reply, ReplyKind, Router, Transaction
from .services import SEEDED_BUGS, SERVICE_CLASSES, fresh_router

FINGERPRINT_FRAMES = 5
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
# Canonical JSON.
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii


def canonical_json(value) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it,
    byte for byte, for every value json.loads returns; tuples are
    written as lists.  A key that is not a str, or a value of any other
    type, is a TypeError.

    The stdlib writes an indented dump through a pure-Python generator
    per nesting level, every chunk passing up through each level above
    it; a crash schema nests reports about 69 levels deep.  Here each
    chunk is appended once, to one list.
    """
    chunks: list[str] = []
    _encode(value, "\n", chunks.append)
    return "".join(chunks)


def _encode(value, newline: str, append) -> None:
    """Append value's chunks, its nested lines indented by newline.

    A module-level function, not a closure over chunks: a closure that
    calls itself is a reference cycle, which would keep every call's
    chunk list alive until the cyclic collector runs.
    """
    kind = type(value)
    if kind is str:
        append(_encode_str(value))
    elif kind is int:
        append(int.__repr__(value))
    elif kind is dict:
        if not value:
            append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError("keys must be str, not %s" % type(key).__name__)
            append(separator + _encode_str(key) + ": ")
            _encode(value[key], inner, append)
            separator = "," + inner
        append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            append(separator)
            _encode(item, inner, append)
            separator = "," + inner
        append(newline + "]")
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif kind is float:
        append(json.dumps(value))
    else:
        raise TypeError("Object of type %s is not JSON serializable" % kind.__name__)


# ---------------------------------------------------------------------------
# Report types.
# ---------------------------------------------------------------------------


class CrashReport(NamedTuple):
    fingerprint: str
    exception_kind: str
    descriptor: str
    code: int
    stack_frames: tuple[str, ...]
    detail: str
    provenance: dict
    schema: dict
    first_seen_case_id: int
    hit_count: int

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
    def from_json(cls, obj, where: str = "crash") -> "CrashReport":
        """Parse a saved crash, checking the type of every field; where
        names the crash in a HarnessError."""
        if type(obj) is not dict:
            raise HarnessError("%s is not an object: %s" % (where, _excerpt(obj)))
        provenance = _field(obj, "provenance", (dict,), where, HarnessError)
        _field(provenance, "policy", (str,), where + " provenance", HarnessError)
        return cls(
            fingerprint=_field(obj, "fingerprint", (str,), where, HarnessError),
            exception_kind=_field(obj, "exception_kind", (str,), where, HarnessError),
            descriptor=_field(obj, "descriptor", (str,), where, HarnessError),
            code=_field(obj, "code", (int,), where, HarnessError),
            stack_frames=tuple(_items(obj, "stack_frames", (str,), where, HarnessError)),
            detail=_field(obj, "detail", (str,), where, HarnessError, ""),
            provenance=provenance,
            schema=_field(obj, "schema", (dict,), where, HarnessError, {}),
            first_seen_case_id=_field(obj, "first_seen_case_id", (int,), where, HarnessError),
            hit_count=_field(obj, "hit_count", (int,), where, HarnessError),
        )


class CampaignReport(NamedTuple):
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
        """The report as saved: canonical_json of to_json, which is
        json.dumps(sort_keys=True, indent=2), plus a final newline."""
        return canonical_json(self.to_json()) + "\n"

    @classmethod
    def from_json(cls, obj) -> "CampaignReport":
        """Parse a saved report.  A field that the text report, find_crash
        or reproduce reads and that has the wrong type is a HarnessError
        naming it; the checks cost one pass over crashes and methods."""
        if type(obj) is not dict:
            raise HarnessError("report is not an object: %s" % _excerpt(obj))
        config = _field(obj, "config", (dict,), "report", HarnessError)
        _items(config, "policy", (str,), "report config", HarnessError)
        _field(config, "budget", (int,), "report config", HarnessError)
        _field(config, "rng_seed", (int,), "report config", HarnessError)
        _field(config, "catalog_version", (str,), "report config", HarnessError)
        _field(config, "mode", (str,), "report config", HarnessError)
        _field(config, "corpus_id", (str, NoneType), "report config", HarnessError)
        per_method = _field(obj, "per_method", (dict,), "report", HarnessError)
        for method in per_method:
            _items(per_method, method, (int,), "report per_method", HarnessError, dict)
        edge_summary = _field(obj, "edge_summary", (dict,), "report", HarnessError)
        _field(edge_summary, "total", (int,), "report edge_summary", HarnessError)
        return cls(
            config=config,
            counters=_items(obj, "counters", (int,), "report", HarnessError, dict),
            crashes=[
                CrashReport.from_json(c, "crashes[%d]" % i)
                for i, c in enumerate(_field(obj, "crashes", (list,), "report", HarnessError))
            ],
            per_method=per_method,
            edge_summary=edge_summary,
            executed=_field(obj, "executed", (int,), "report", HarnessError),
            unexecuted=_field(obj, "unexecuted", (int,), "report", HarnessError),
        )


def save_report(report: CampaignReport, path) -> None:
    Path(path).write_text(report.to_canonical_json(), encoding="utf-8")


def load_report(path) -> CampaignReport:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        return CampaignReport.from_json(obj)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, HarnessError) as exc:
        raise HarnessError("unreadable campaign report %s: %s" % (path, exc)) from None
    except RecursionError:
        raise HarnessError("unreadable campaign report %s: nested too deeply" % path) from None


# ---------------------------------------------------------------------------
# Campaign execution.
# ---------------------------------------------------------------------------


class FuzzConfig(NamedTuple):
    policy: object
    budget: int
    rng_seed: int = 1
    corpus: Sequence[SeedRecord] = ()


def run_fuzz(config: FuzzConfig) -> CampaignReport:
    """Run one deterministic campaign and triage everything it dispatched.

    The corpus is prepared once and replayed once, whole, to check that
    every record replies as recorded; every case then replays on a fresh
    router of its own, so nothing one case does reaches the next.
    """
    policies = _normalize_policies(config.policy)
    cases = generate_campaign(config.corpus, policies, config.budget, config.rng_seed)
    prepared = prepare_corpus(config.corpus)
    check_replies(prepared)

    counters = dict.fromkeys(OUTCOMES, 0)
    tallies: dict[tuple[str, int], dict[str, int]] = {}
    hits: dict[str, int] = {}
    first_hits: dict[str, tuple[FuzzCase, CrashInfo, TraceNode]] = {}
    edge_total = 0
    edges_by_sender: dict[str, int] = {}
    edges_by_descriptor: dict[str, int] = {}

    executed = 0
    for case in cases:
        executed += 1
        session = ReplaySession(prepared)

        method = (case.descriptor, case.code)
        tally = tallies.get(method)
        if tally is None:
            tally = tallies[method] = dict.fromkeys(OUTCOMES, 0)

        try:
            txn = session.prepare(case)
        except Unreplayable:
            outcome = "unreplayable"
        else:
            reply = session.router.transact(txn)
            outcome = classify(reply)
            if reply.kind is ReplyKind.FATAL_CRASH:
                digest = fingerprint(reply.crash)
                hits[digest] = hits.get(digest, 0) + 1
                if hits[digest] == 1:
                    first_hits[digest] = (case, reply.crash, _traced_rerun(prepared, case, digest))
        counters[outcome] += 1
        tally[outcome] += 1

        _absorb_edges(session.router, edges_by_sender, edges_by_descriptor)
        edge_total += len(session.router.edges)

    report = CampaignReport(
        config={
            "policy": [p.value for p in policies],
            "budget": config.budget,
            "rng_seed": config.rng_seed,
            "catalog_version": CATALOG_VERSION,
            "corpus_id": corpus_digest(config.corpus) if config.corpus else None,
            # Every case runs isolated; the key keeps reports comparable
            # byte for byte with those of versions that had a second mode.
            "mode": "isolated",
        },
        counters=counters,
        crashes=[_crash_report(digest, *first_hits[digest], hits[digest], config) for digest in sorted(first_hits)],
        per_method={"%s:%d" % method: tally for method, tally in tallies.items()},
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


def _traced_rerun(prepared: PreparedCorpus, case: FuzzCase, digest: str) -> TraceNode:
    """Type trace of a crashing case, from one more run of it, traced,
    on a fresh session; replay is deterministic, so the run must crash
    with the same fingerprint again."""
    session = ReplaySession(prepared)
    builder = TraceBuilder()
    reply = session.router.transact(session.prepare(case), trace_hook=builder)
    got = fingerprint(reply.crash) if reply.kind is ReplyKind.FATAL_CRASH else reply.kind.value
    if got != digest:
        raise HarnessError(
            "case %d crashed as %s, but its traced re-run gave %s" % (case.case_id, digest[:12], got[:12])
        )
    return builder.finish()


def _crash_report(
    digest: str, case: FuzzCase, crash: CrashInfo, schema: TraceNode, hit_count: int, config: FuzzConfig
) -> CrashReport:
    return CrashReport(
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
        schema=schema.to_json(max_depth=SCHEMA_DEPTH_LIMIT),
        first_seen_case_id=case.case_id,
        hit_count=hit_count,
    )


# ---------------------------------------------------------------------------
# Reproduction.
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
    """Re-run a saved crash from its provenance; the fingerprint must match.

    A case made from a seed must name a seed the corpus holds and that
    seed's method: replay addresses the seed's target, so a case naming
    another method would otherwise reproduce under the wrong name.
    """
    saved = find_crash(report, fingerprint_hex)
    try:
        case = FuzzCase.from_json(saved.provenance["case"])
    except (KeyError, TypeError, ValueError) as exc:
        raise HarnessError("crash provenance is unusable: %s" % exc) from None
    session = ReplaySession(prepare_corpus(corpus))
    if case.seed_seq is not None:
        seed = session.prepared.records.get(case.seed_seq)
        if seed is None:
            raise HarnessError(
                "crash provenance is unusable: case %d names seed %d, which the corpus does not hold"
                % (case.case_id, case.seed_seq)
            )
        if (seed.descriptor, seed.code) != (case.descriptor, case.code):
            raise HarnessError(
                "crash provenance is unusable: case %d targets %s code %d, its seed %d is %s code %d"
                % (case.case_id, case.descriptor, case.code, seed.seq, seed.descriptor, seed.code)
            )
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
        txn = Transaction(router.get_service(bug.descriptor), bug.code, bug.build_trigger(), "manifest")
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
                        "code": code,
                        "name": spec.name,
                        "signature": list(spec.signature),
                        "hidden": spec.hidden,
                    }
                    for code, spec in enumerate(cls.REGISTRY.methods, 1)
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
