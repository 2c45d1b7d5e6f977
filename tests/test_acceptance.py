"""Acceptance gate: one test per shipped guarantee.

Run with -v for one pass/fail line per criterion:

    python3 -m pytest tests/test_acceptance.py -v
"""

import random
import re
import struct
import time
from collections import Counter

import pytest

from parcelfuzz.harness import (
    _OUTCOME_BY_KIND,
    FuzzConfig,
    fingerprint,
    manifest_fingerprints,
    reproduce,
    run_fuzz,
)
from parcelfuzz.mutator import EMPTY, RANDOM, SEMI_VALID, generate_campaign
from parcelfuzz.parcel import BOOL, BYTES, F64, HANDLE, I32, I64, STRING, Parcel, handle_at
from parcelfuzz.recorder import SCENARIOS
from parcelfuzz.replayer import ReplaySession, prepare_corpus
from parcelfuzz.router import FATAL_CRASH, OK, REJECTED, InternalFault, Reject, Service, Transaction
from parcelfuzz.services import SEEDED_BUGS, all_methods, fresh_router

from conftest import KeepingClient

BUDGET = 10_000


def classify(reply) -> str:
    """The outcome a campaign counts reply under."""
    return _OUTCOME_BY_KIND[reply.kind]


def _bug_fingerprint(manifest, bug_id):
    for service in manifest["services"]:
        for bug in service["seeded_bugs"]:
            if bug["id"] == bug_id:
                return bug["fingerprint"]
    raise LookupError(bug_id)


@pytest.fixture(scope="module")
def campaigns(corpus):
    started = time.monotonic()
    semi = run_fuzz(FuzzConfig(policy="semi-valid", budget=BUDGET, corpus=corpus))
    unstructured = run_fuzz(FuzzConfig(policy=["empty", "random"], budget=BUDGET, corpus=corpus))
    elapsed = time.monotonic() - started
    return {"semi": semi, "unstructured": unstructured, "elapsed": elapsed}


# -- criterion 1 -------------------------------------------------------------------


def test_criterion_01_parcel_round_trip_1000_randomized_sequences():
    rng = random.Random(0xA11CE)
    kinds = (I32, I64, F64, BOOL, STRING, BYTES, HANDLE)

    def draw(kind):
        if kind is I32:
            return rng.randint(-(1 << 31), (1 << 31) - 1)
        if kind is I64:
            return rng.randint(-(1 << 63), (1 << 63) - 1)
        if kind is F64:
            return rng.choice(
                [0.0, -0.0, 1.5, -2.75, float("inf"), float("-inf"), float("nan"), rng.uniform(-1e18, 1e18)]
            )
        if kind is BOOL:
            return rng.random() < 0.5
        if kind is STRING:
            return "".join(chr(rng.randint(1, 0x2FF)) for _ in range(rng.randint(0, 24)))
        if kind is BYTES:
            return rng.randbytes(rng.randint(0, 24))
        return rng.randint(0, 1 << 20)  # HANDLE

    started = time.monotonic()
    for _ in range(1000):
        sequence = [(k := rng.choice(kinds), draw(k)) for _ in range(rng.randint(1, 8))]
        parcel = Parcel()
        expected_offsets = []
        for kind, value in sequence:
            if kind is HANDLE:
                expected_offsets.append(len(parcel.buffer))
                parcel.write_handle(value)
            else:
                parcel.write_value(kind, value)
            # invariants on every intermediate state
            assert len(parcel.buffer) % 4 == 0
            assert list(parcel.offsets) == expected_offsets
            assert all(pos % 4 == 0 and pos + 4 <= len(parcel.buffer) for pos in parcel.offsets)
            assert parcel.offsets == sorted(set(parcel.offsets))

        reader = Parcel(parcel.buffer, list(parcel.offsets))
        for kind, value in sequence:
            if kind is HANDLE:
                got, slot_valid = reader.read_handle()
                assert got == value and slot_valid
            elif kind is F64:
                got = reader.read_value(kind)
                assert struct.pack("<d", got) == struct.pack("<d", value)
            else:
                assert reader.read_value(kind) == value
            assert reader.cursor % 4 == 0
        assert reader.cursor == len(reader)
    assert time.monotonic() - started < 5.0


# -- criterion 2 -------------------------------------------------------------------


def test_criterion_02_recorded_traces_equal_writer_logs_exactly(trace_leaves, parcel_writes):
    client = KeepingClient(fresh_router())
    for scenario in SCENARIOS.values():
        scenario(client)
    assert len(client.records) == len(client.sent) > 0
    for record, data in zip(client.records, client.sent):
        traced = [(leaf.kind, leaf.start, leaf.end) for leaf in trace_leaves(record.trace)]
        assert traced == parcel_writes[data], "record %d diverged" % record.seq


# -- criterion 3 -------------------------------------------------------------------


def test_criterion_03_callback_scenario_replays_on_live_handles(semi_valid_case, corpus, replay_seed):
    register = next(r for r in corpus if (r.descriptor, r.code) == ("svc.audio", 2))
    recorded_handle = handle_at(register.payload, register.offsets[0])

    # unmutated terminal transaction is accepted on a fresh router
    session = ReplaySession(prepare_corpus(corpus))
    reply = replay_seed(session, register.seq)
    assert reply.kind == OK
    assert session.live[recorded_handle] != recorded_handle

    # a mutated fuzz case built from the same seed also materializes and runs
    case = semi_valid_case(register, (0,), "cross_service_swap", case_id=1)
    session = ReplaySession(prepare_corpus(corpus))
    txn = session.prepare(case)
    live = handle_at(txn.data.buffer, register.offsets[0])
    assert live != recorded_handle
    assert session.router.transact(txn).kind in (OK, REJECTED)


# -- criterion 4 -------------------------------------------------------------------


def test_criterion_04_structured_policy_outfishes_unstructured(campaigns, manifest, manifest_fps):
    semi_found = campaigns["semi"].distinct_fingerprints()
    unstructured_found = campaigns["unstructured"].distinct_fingerprints()

    assert manifest["fingerprint_count"] == len(SEEDED_BUGS)
    assert semi_found == manifest_fps
    assert unstructured_found < semi_found
    assert _bug_fingerprint(manifest, "view-unbounded-recursion") not in unstructured_found
    assert _bug_fingerprint(manifest, "graphics-alloc-wrap") not in unstructured_found
    assert campaigns["elapsed"] < 120.0


# -- criterion 5 -------------------------------------------------------------------


def test_criterion_05_single_method_yields_three_plus_fingerprints(campaigns):
    activity_methods = [m for m in all_methods() if m[0] == "svc.activity"]
    assert len(activity_methods) == 1
    activity_crashes = {
        c.fingerprint for c in campaigns["semi"].crashes if c.descriptor == "svc.activity"
    }
    assert len(activity_crashes) >= 3


# -- criterion 6 -------------------------------------------------------------------


def test_criterion_06_overflow_variants_collapse_to_one_fingerprint(semi_valid_case, corpus, campaigns):
    gfx = next(r for r in corpus if r.descriptor == "svc.graphics")
    fingerprints = set()
    for path in ((1,), (2,)):  # two different mutated fields
        case = semi_valid_case(gfx, path, "max", case_id=1)
        session = ReplaySession(prepare_corpus(corpus))
        reply = session.router.transact(session.prepare(case))
        assert reply.kind == FATAL_CRASH
        assert reply.crash.exception_kind == "MEMORY_CORRUPTION"
        fingerprints.add(fingerprint(reply.crash))
    assert len(fingerprints) == 1

    report_level = [
        c for c in campaigns["semi"].crashes if c.exception_kind == "MEMORY_CORRUPTION"
    ]
    assert len(report_level) == 1
    assert report_level[0].hit_count >= 2


# -- criterion 7 -------------------------------------------------------------------


class _Scripted(Service):
    def handle_transaction(self, code, data, ctx):
        if code == 1:
            return Parcel()
        if code == 2:
            raise Reject("scripted refusal")
        if code == 3:
            raise InternalFault("scripted fault")
        ctx.fail("NULL_DEREF", "scripted crash")
        return None


def test_criterion_07_four_reply_kinds_classify_without_confusion():
    router = fresh_router()
    handle = router.export(_Scripted())
    expected = {1: "ok", 2: "rejected", 3: "handled_fault", 4: "fatal_crash"}
    confusion = {}
    for code, outcome in expected.items():
        reply = router.transact(Transaction(handle, code, Parcel(), "acceptance"))
        confusion[code] = classify(reply)
    assert confusion == expected
    assert len(set(confusion.values())) == 4


# -- criterion 8 -------------------------------------------------------------------


def test_criterion_08_reports_are_deterministic_and_crashes_reproduce(corpus, campaigns):
    rerun = run_fuzz(FuzzConfig(policy="semi-valid", budget=BUDGET, corpus=corpus))
    assert rerun.to_canonical_json() == campaigns["semi"].to_canonical_json()

    report = campaigns["semi"]
    assert report.crashes, "campaign found no crashes to reproduce"
    for crash in report.crashes:
        reproduced = 0
        for _ in range(100):
            reply = reproduce(report, crash.fingerprint, corpus)
            assert fingerprint(reply.crash) == crash.fingerprint
            reproduced += 1
        assert reproduced == 100


# -- criterion 9 -------------------------------------------------------------------


def test_criterion_09_mixed_campaign_is_contained_and_queue_is_clean(corpus, manifest_fps):
    policies = ["empty", "random", "semi-valid"]
    report = run_fuzz(FuzzConfig(policy=policies, budget=BUDGET, corpus=corpus))
    # every requested policy gets cases, counted from the stream the campaign ran
    ran = Counter(case.policy for case in generate_campaign(corpus, policies, BUDGET, 1))
    assert set(ran) == {EMPTY, RANDOM, SEMI_VALID}
    assert manifest_fps <= report.distinct_fingerprints()
    # reaching this line at all means no case took the process down
    assert report.executed == BUDGET
    assert sum(report.counters.values()) == BUDGET
    assert report.counters["fatal_crash"] > 0  # plenty of faults, all absorbed
    assert all(c.descriptor != "svc.queue" for c in report.crashes)
    for method, tally in report.per_method.items():
        if method.startswith("svc.queue:"):
            assert tally["fatal_crash"] == 0


# -- criterion 10 ------------------------------------------------------------------


def test_criterion_10_wrapped_allocation_matches_the_modular_oracle(manifest):
    num_fds, num_ints = 1, 0x7FFFFFFF

    # independent 32-bit modular-arithmetic oracle
    header, slot = 12, 4
    wide = header + slot * (num_fds + num_ints)
    wrapped = wide % (1 << 32)
    assert wrapped == 12
    assert wide > wrapped  # the under-allocation the service must notice

    router = fresh_router()
    payload = (
        Parcel()
        .write_value(STRING, "oracle")
        .write_value(I32, num_fds)
        .write_value(I32, num_ints)
    )
    reply = router.transact(
        Transaction(router.get_service("svc.graphics"), 1, payload, "acceptance")
    )
    assert reply.kind == FATAL_CRASH
    assert reply.crash.exception_kind == "MEMORY_CORRUPTION"
    reported = re.search(r"allocated (\d+) bytes", reply.crash.detail)
    assert reported and int(reported.group(1)) == wrapped
    assert fingerprint(reply.crash) == _bug_fingerprint(manifest, "graphics-alloc-wrap")
