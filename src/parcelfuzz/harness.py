"""Campaign orchestration, crash triage, and reporting.

One fuzz case travels: generate (mutator) -> replay supports and
materialize (replayer) -> dispatch (router) -> classify the reply ->
fingerprint and deduplicate if it crashed.  The campaign report is
canonical JSON with no wall-clock anywhere, so identical configurations
serialize byte-identically; every crash embeds enough provenance to be
re-run from the report plus the corpus, nothing else.

A campaign is one stream and one fold.  _answers answers each case in
turn and owns the memo below; run_fuzz folds that stream into the
report.  Cases dispatch without a trace hook, and the report holds no
type trace: `parcelfuzz replay --schema` traces a crash's saved case
when someone asks (see reproduce).  The first case to reach each
distinct fingerprint runs once more, on a fresh session over the same
prepared corpus, and must crash exactly as before; repeat crashes only
count hits.

A fresh router's replies depend only on the transactions it receives,
so a case whose key shows that it sends exactly what an earlier case
sent is not dispatched again: it gets the answer that dispatch stored,
whole (its outcome, fingerprint, crash and every IPC edge it left).  A
seeded case's key needs no session: each seed's supports are replayed
once per campaign, and seeds whose supports send the same bytes and
leave the same live target and handle map, and whose cases the mutator
makes from the same content, share an id; (id, field_path, mutation_id)
then names what a case sends.  Every miss is dispatched, a seed's first
on the session that replayed its supports and each later one on a fresh
session.  A digest of each miss's supports and case bytes would catch a
few more repeats, but hashing every miss, some of them 64 KiB, costs
about what the dispatches it would save cost.  A case with no seed has
no supports and no handle slots, so it is sent on a fresh router without
a session.  An empty one, EMPTY or an empty RANDOM case, sends nothing
but an empty transaction to its method's static handle, so its method
is its key.  A non-empty RANDOM payload is fresh SHAKE-128 output that
no other case repeats, so it is never keyed.

Fingerprints hash the exception kind and the five innermost dispatch
frames.  Services push frames at function and failure-site granularity
(never per recursion level), which is what makes parameter variants of
one bug collapse while distinct sites stay apart; a campaign hashes each
such site once.
"""

from __future__ import annotations

import hashlib
import json
from types import NoneType
from typing import NamedTuple, Sequence

from .mutator import (
    CATALOG_VERSION,
    FuzzCase,
    _normalize_policies,
    generate_campaign,
)
from .recorder import SeedRecord, _encode_str, _excerpt, _field, _items, corpus_digest
from .replayer import PreparedCorpus, ReplaySession, check_replies, prepare_corpus, seedless_transaction
from .router import FATAL_CRASH, HANDLED_FAULT, OK, REJECTED, CrashInfo, IpcEdge, Reply, Transaction
from .services import SEEDED_BUGS, SERVICE_CLASSES, fresh_router

FINGERPRINT_FRAMES = 5

# "unreplayable" is always 0: a support that fails inside a campaign stops
# it (see _open_seed).  The report format lists the counter until its next
# version, and perfbench counts it as failed operations.
OUTCOMES = ("ok", "rejected", "handled_fault", "fatal_crash", "unreplayable")

_OUTCOME_BY_KIND = {OK: "ok", REJECTED: "rejected", HANDLED_FAULT: "handled_fault", FATAL_CRASH: "fatal_crash"}


class HarnessError(Exception):
    """The harness itself was misused (bad report, bad reference)."""


class FingerprintMismatch(HarnessError):
    """A reproduced case did not land on the fingerprint it was saved under."""


class ManifestError(Exception):
    """A seeded bug does not behave as the catalog promises."""


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


def canonical_json(value) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it,
    byte for byte, for every value json.loads returns; tuples are
    written as lists.  A key that is not a str, or a value of any other
    type, is a TypeError.

    The stdlib writes an indented dump through a pure-Python generator
    per nesting level, every chunk passing up through each level above
    it.  Here each chunk is appended once, to one list: the 31 KB report
    of a semi-valid campaign over four copies of every scenario takes
    about 0.3 ms of thread time, against about 0.5 ms for
    json.dumps(indent=2) (Python 3.11 on a shared Xeon VM).
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
            "first_seen_case_id": self.first_seen_case_id,
            "hit_count": self.hit_count,
        }

    @classmethod
    def from_json(cls, obj, where: str = "crash") -> "CrashReport":
        """Parse a saved crash, checking the type of every field; where
        names the crash in a HarnessError.  Keys it does not read are
        ignored, such as the schema reports once held."""
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
    with open(path, "w", encoding="utf-8") as out:
        out.write(report.to_canonical_json())


def load_report(path) -> CampaignReport:
    try:
        with open(path, encoding="utf-8") as source:
            obj = json.loads(source.read())
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
    every record replies as recorded; _answers then answers every case
    as if on a fresh router of its own, so nothing one case does reaches
    the next.  This folds that stream into the report: the counters, the
    per-method tallies, the hit count of each fingerprint and the edge
    summary.  The first case to reach a fingerprint is always one that
    _answers dispatched; it is that crash's saved case, and it runs once
    more to check that replay reproduces it (see _rerun).
    """
    policies = _normalize_policies(config.policy)
    cases = generate_campaign(config.corpus, policies, config.budget, config.rng_seed)
    prepared = prepare_corpus(config.corpus)
    check_replies(prepared)

    counters = dict.fromkeys(OUTCOMES, 0)
    tallies: dict[tuple[str, int], dict[str, int]] = {}
    hits: dict[str, int] = {}
    first_hits: dict[str, tuple[FuzzCase, CrashInfo]] = {}
    edge_total = 0
    edges_by_sender: dict[str, int] = {}
    edges_by_descriptor: dict[str, int] = {}

    executed = 0
    for case, (outcome, digest, crash, edges) in _answers(prepared, cases):
        executed += 1
        method = (case.descriptor, case.code)
        tally = tallies.get(method)
        if tally is None:
            tally = tallies[method] = dict.fromkeys(OUTCOMES, 0)
        if digest is not None:
            if digest not in first_hits:
                _rerun(prepared, case, crash)
                first_hits[digest] = (case, crash)
            hits[digest] = hits.get(digest, 0) + 1
        counters[outcome] += 1
        tally[outcome] += 1
        for edge in edges:
            edges_by_sender[edge.sender_id] = edges_by_sender.get(edge.sender_id, 0) + 1
            edges_by_descriptor[edge.target_descriptor] = edges_by_descriptor.get(edge.target_descriptor, 0) + 1
        edge_total += len(edges)

    return CampaignReport(
        config={
            "policy": list(policies),
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


def _answers(prepared: PreparedCorpus, cases):
    """Yield (case, answer) for each of cases, pulling them one at a time.

    An answer is (outcome, fingerprint or None, CrashInfo or None, the
    IPC edges the dispatch left: the supports', then the case's), stored
    as it is yielded; a case whose key an earlier case had (see the
    module docstring) gets the stored answer object itself.  A seed whose
    supports fail raises their Unreplayable when its first case arrives
    (see _open_seed).
    """
    # Each dispatch's answer under its case's key: (seed id, field_path,
    # mutation_id), or for an empty seedless case its method.
    dispatched: dict[tuple, tuple[str, str | None, CrashInfo | None, list[IpcEdge]]] = {}
    # The fingerprint of each crash site: its exception kind and the
    # frames fingerprint hashes.
    sites: dict[tuple[str, tuple[str, ...]], str] = {}
    # The id of each seed class and content (see _open_seed).
    seed_ids: dict[tuple, int] = {}
    # The seed whose cases are arriving (the stream runs seed by seed): its
    # id, and a session that has replayed its supports and dispatched
    # nothing, or None once it has dispatched.
    open_seq = seed_id = pristine = None

    for case in cases:
        seq = case.seed_seq
        if seq is None:
            key = None if case.payload else (case.descriptor, case.code)
        else:
            if seq != open_seq:
                open_seq = seq
                seed_id, pristine = _open_seed(prepared, seq, seed_ids)
            key = (seed_id, case.field_path, case.mutation_id)
        answer = None if key is None else dispatched.get(key)
        if answer is None:
            if seq is None:
                router, txn = seedless_transaction(case)
            else:
                session = pristine or ReplaySession(prepared)
                pristine = None
                router = session.router
                txn = session.prepare(case)
            reply = router.transact(txn)
            digest = None
            crash = reply.crash
            if crash is not None:
                site = (crash.exception_kind, crash.stack_frames[:FINGERPRINT_FRAMES])
                digest = sites.get(site)
                if digest is None:
                    digest = sites[site] = fingerprint(crash)
            answer = (_OUTCOME_BY_KIND[reply.kind], digest, crash, router.edges)
            if key is not None:
                dispatched[key] = answer
        yield case, answer


def _open_seed(prepared: PreparedCorpus, seq: int, seed_ids: dict[tuple, int]) -> tuple[int, ReplaySession]:
    """Replay seed seq's supports on a fresh session; returns the seed's
    id and the session.  A support that fails, or a target with no live
    handle, raises Unreplayable: check_replies has already replayed every
    record, so that is a corpus the campaign cannot run, not an outcome.

    A seed's class is the digest of its support sends, its live target
    and its live handle map (recorded -> live); its content is what the
    mutator makes its cases from (see SeedRecord.content).  Seeds of one
    class and content get one id from seed_ids, so a case whose id,
    field_path and mutation_id another case has sends the same
    transactions: the supports, then the same case bytes patched by the
    same handles.  That key is the campaign's only memo key for a seeded
    case; it holds the seed's payload, not any case's, and costs one
    digest of the supports per seed.
    """
    session = ReplaySession(prepared)
    record = prepared.records[seq]
    session.ensure_supports(seq)
    seed = (
        _sent_digest(session._replayed.values()),
        session._live_handle(record.target),
        tuple(session.live.items()),
        record.content,
    )
    return seed_ids.setdefault(seed, len(seed_ids)), session


def _sent_digest(sent) -> bytes:
    """sha256 over a sequence of transactions, the supports a session
    replayed for a seed, in order: the class part of _open_seed's seed
    key.  Each transaction enters as a header, its target handle, code,
    payload length and offsets list in decimal, then its payload bytes,
    so two sequences share an input only if they are the same."""
    digest = hashlib.sha256()
    for txn in sent:
        data = txn.data
        digest.update(b"%d %d %d %a;" % (txn.target_handle, txn.code, len(data), data.offsets))
        # The parcel's own bytearray, hashed in place: .buffer would copy it.
        digest.update(data._buf)
    return digest.digest()


def _rerun(prepared: PreparedCorpus, case: FuzzCase, crash: CrashInfo) -> None:
    """Run a crashing case once more, on a fresh session; replay is
    deterministic, so it must crash exactly as before: the same kind,
    frames and detail."""
    session = ReplaySession(prepared)
    again = session.router.transact(session.prepare(case)).crash
    if again != crash:
        raise HarnessError("case %d crashed as %r, but its re-run gave %r" % (case.case_id, crash, again))


def _crash_report(
    digest: str, case: FuzzCase, crash: CrashInfo, hit_count: int, config: FuzzConfig
) -> CrashReport:
    return CrashReport(
        fingerprint=digest,
        exception_kind=crash.exception_kind,
        descriptor=case.descriptor,
        code=case.code,
        stack_frames=crash.stack_frames,
        detail=crash.detail,
        provenance={
            "policy": case.policy,
            "seed_seq": case.seed_seq,
            "field_path": list(case.field_path) if case.field_path is not None else None,
            "mutation_id": case.mutation_id,
            "rng_seed": config.rng_seed,
            "case": case.to_json(),
        },
        first_seen_case_id=case.case_id,
        hit_count=hit_count,
    )


# ---------------------------------------------------------------------------
# Reproduction.
# ---------------------------------------------------------------------------


def find_crash(report: CampaignReport, fingerprint_hex: str) -> CrashReport:
    """Exact match first, then a unique prefix; anything else is an error.
    An empty prefix, which every fingerprint starts with, is refused."""
    if not fingerprint_hex:
        raise HarnessError("fingerprint is empty")
    exact = [c for c in report.crashes if c.fingerprint == fingerprint_hex]
    if exact:
        return exact[0]
    prefixed = [c for c in report.crashes if c.fingerprint.startswith(fingerprint_hex)]
    if len(prefixed) == 1:
        return prefixed[0]
    if not prefixed:
        raise HarnessError("no crash with fingerprint %r in report" % fingerprint_hex)
    raise HarnessError("fingerprint prefix %r is ambiguous (%d matches)" % (fingerprint_hex, len(prefixed)))


def reproduce(report: CampaignReport, fingerprint_hex: str, corpus, trace_hook=None) -> Reply:
    """Re-run a saved crash from its provenance; the fingerprint must match.

    trace_hook, if given, is passed to Router.transact: a TraceBuilder
    there records the crash's schema, the type trace of its input, and
    the fingerprint check proves that tracing changed nothing.

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
    reply = session.router.transact(session.prepare(case), trace_hook)
    if reply.kind != FATAL_CRASH:
        raise FingerprintMismatch("expected FATAL_CRASH %s, got %s" % (saved.fingerprint[:12], reply.kind))
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
    fuzzing machinery involved.  Every seeded bug must crash with its own
    fingerprint: two bugs that share one would count as one in recall.
    """
    bugs_by_descriptor: dict[str, list[dict]] = {}
    fingerprints: set[str] = set()
    for bug in SEEDED_BUGS:
        router = fresh_router()
        txn = Transaction(router.get_service(bug.descriptor), bug.code, bug.build_trigger(), "manifest")
        reply = router.transact(txn)
        if reply.kind != FATAL_CRASH:
            raise ManifestError("seeded bug %s did not crash (%s)" % (bug.bug_id, reply.kind))
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
    if len(fingerprints) != len(SEEDED_BUGS):
        raise ManifestError(
            "expected one distinct fingerprint per seeded bug (%d), measured %d" % (len(SEEDED_BUGS), len(fingerprints))
        )
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
