"""Campaign orchestration: triage, fingerprints, reproduction, reporting, CLI."""

import contextlib
import copy
import hashlib
import io
import argparse
import itertools
import json
import math
import os
import platform
import random
import re
import shutil
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import parse_both_ways
from parcelfuzz import cli, harness
from parcelfuzz.cli import COMMANDS, SCHEMA_DEPTH_LIMIT, main
from parcelfuzz.harness import (
    _OUTCOME_BY_KIND,
    FINGERPRINT_FRAMES,
    OUTCOMES,
    CampaignReport,
    CrashReport,
    FingerprintMismatch,
    FuzzConfig,
    HarnessError,
    ManifestError,
    build_manifest,
    canonical_json,
    find_crash,
    fingerprint,
    load_report,
    manifest_fingerprints,
    reproduce,
    run_fuzz,
    save_report,
)
from parcelfuzz.mutator import (
    CATALOG_VERSION,
    RANDOM_LENGTH_CYCLE,
    ConfigurationError,
    EMPTY,
    FuzzCase,
    generate_campaign,
    make_random,
)
from parcelfuzz.recorder import (
    CorpusError,
    TraceBuilder,
    TraceNode,
    corpus_digest,
    corpus_text,
    load_corpus,
    record_session,
    save_corpus,
)
from parcelfuzz.parcel import BOOL, BYTES, COMPOSITE, F64, HANDLE, I32, I64, STRING
from parcelfuzz.replayer import ReplaySession, Unreplayable, prepare_corpus
from parcelfuzz.router import FATAL_CRASH, HANDLED_FAULT, OK, REJECTED, CrashInfo, IpcEdge, Reply, Router
from parcelfuzz.services import SEEDED_BUGS, all_methods


@pytest.fixture(scope="module")
def semi_report(corpus):
    return run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=corpus))


def _crash(kind="NULL_DEREF", frames=("a", "b"), detail=""):
    return CrashInfo(kind, tuple(frames), detail)


def classify(reply) -> str:
    """The outcome a campaign counts reply under."""
    return _OUTCOME_BY_KIND[reply.kind]


# -- classification ---------------------------------------------------------------


def test_classify_maps_each_reply_kind():
    assert classify(Reply(OK)) == "ok"
    assert classify(Reply(REJECTED, message="nope")) == "rejected"
    assert classify(Reply(HANDLED_FAULT, message="hmm")) == "handled_fault"
    assert classify(Reply(FATAL_CRASH, crash=_crash())) == "fatal_crash"
    assert set(OUTCOMES) >= {"ok", "rejected", "handled_fault", "fatal_crash", "unreplayable"}


# -- fingerprints ----------------------------------------------------------------


def test_fingerprint_is_deterministic_and_sensitive():
    base = fingerprint(_crash())
    assert base == fingerprint(_crash())
    assert len(base) == 64
    assert int(base, 16) >= 0
    assert fingerprint(_crash(kind="OUT_OF_BOUNDS")) != base
    assert fingerprint(_crash(frames=("a", "c"))) != base


def test_fingerprint_ignores_detail_and_deep_frames():
    assert fingerprint(_crash(detail="x")) == fingerprint(_crash(detail="y"))
    frames = tuple("f%d" % i for i in range(FINGERPRINT_FRAMES))
    assert fingerprint(_crash(frames=frames + ("outer1",))) == fingerprint(
        _crash(frames=frames + ("outer2", "outer3"))
    )


def test_fingerprint_hashes_all_frames_when_fewer_than_five():
    short = ("f0", "f1", "f2")
    assert fingerprint(_crash(frames=short)) != fingerprint(_crash(frames=short + ("f3",)))


# -- campaign accounting -------------------------------------------------------------


def test_counters_account_for_every_case(semi_report, corpus):
    report = semi_report
    assert report.executed == 349
    assert report.executed + report.unexecuted == 400
    assert sum(report.counters.values()) == report.executed
    assert report.counters["unreplayable"] == 0
    for outcome in OUTCOMES:
        per_method_total = sum(t[outcome] for t in report.per_method.values())
        assert per_method_total == report.counters[outcome]
    assert sum(c.hit_count for c in report.crashes) == report.counters["fatal_crash"]


def test_semi_campaign_recovers_every_seeded_fingerprint(semi_report, manifest_fps):
    assert semi_report.distinct_fingerprints() == manifest_fps


def test_unstructured_policies_find_strictly_fewer(corpus, manifest_fps, semi_report):
    report = run_fuzz(FuzzConfig(policy=["empty", "random"], budget=2000, corpus=corpus))
    found = report.distinct_fingerprints()
    assert found < manifest_fps
    kinds = {c.exception_kind for c in report.crashes}
    assert "STACK_OVERFLOW" not in kinds
    assert "MEMORY_CORRUPTION" not in kinds


def test_a_support_that_fails_behind_the_corpus_check_stops_the_campaign(monkeypatch, corpus):
    broken = [
        r._replace(code=99) if (r.descriptor, r.code) == ("svc.audio", 3) else r
        for r in corpus
    ]
    # The campaign's replay of the whole corpus refuses it up front...
    with pytest.raises(CorpusError, match=r"^record 8 recorded OK, replayed REJECTED$"):
        run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=broken))
    # ...and behind that check, the first seed that needs the failed
    # support stops the campaign with that support's error.
    monkeypatch.setattr(harness, "check_replies", lambda prepared: None)
    with pytest.raises(Unreplayable, match=r"^support 8 \(svc.audio code 99\) replied REJECTED$") as raised:
        run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=broken))
    assert raised.value.support_seq == 8


def test_a_campaign_leaves_its_prepared_corpus_unchanged(monkeypatch, corpus):
    prepared = []

    def capture(records):
        prepared.append(prepare_corpus(records))
        return prepared[-1]

    monkeypatch.setattr(harness, "prepare_corpus", capture)

    def snapshot(p):
        return copy.deepcopy((dict(p.records), dict(p.static_names), dict(p.plans)))

    report = run_fuzz(FuzzConfig(policy=["semi-valid", "empty", "random"], budget=500, corpus=corpus))
    assert report.executed == 500
    (once,) = prepared
    assert snapshot(once) == snapshot(prepare_corpus(corpus))


def test_a_non_contiguous_corpus_fails_before_any_dispatch(monkeypatch, corpus):
    dispatched = []
    monkeypatch.setattr(Router, "transact", lambda self, *args, **kwargs: dispatched.append(args))
    with pytest.raises(CorpusError):
        run_fuzz(FuzzConfig(policy=["empty", "random"], budget=50, corpus=list(corpus)[1:]))
    assert dispatched == []


def test_config_echo_includes_the_corpus_digest(semi_report, corpus):
    config = semi_report.config
    assert config["policy"] == ["SEMI_VALID"]
    assert config["budget"] == 400
    assert config["catalog_version"] == CATALOG_VERSION
    assert config["mode"] == "isolated"
    assert config["corpus_id"] == corpus_digest(corpus)
    assert corpus_digest(corpus) == hashlib.sha256(corpus_text(corpus).encode()).hexdigest()


def test_a_corpus_padded_with_blank_lines_keeps_its_identity(tmp_path, capsys):
    """A corpus's identity is the digest of its records, not of its file:
    blank lines a hand edit leaves change neither the records nor the id."""
    canonical, padded = tmp_path / "corpus.jsonl", tmp_path / "padded.jsonl"
    assert main(["record", "--scenario", "queue_session", "--out", str(canonical)]) == 0
    recorded = capsys.readouterr().out
    padded.write_text("\n\n" + canonical.read_text().replace("\n", "\n\n  \n") + "\n")
    ids = []
    for path in (canonical, padded):
        report_path = tmp_path / ("%s.report.json" % path.stem)
        main(["fuzz", "--policy", "semi-valid", "--corpus", str(path), "--budget", "5", "--out", str(report_path)])
        ids.append(load_report(report_path).config["corpus_id"])
    assert ids[0] == ids[1] == corpus_digest(load_corpus(canonical))
    assert "(%s)" % ids[0][:12] in recorded


def test_a_loaded_corpus_holds_parcels_own_kinds_and_fuzzes_as_recorded(tmp_path, shuffled_corpus_of):
    """Parcel's writers dispatch on a kind's identity, so a loaded trace
    node must hold parcel's own constant, not the equal string the JSON
    parser made: a semi-valid campaign over a saved and reloaded corpus
    writes the report its in-memory corpus writes."""
    recorded = shuffled_corpus_of(1)
    save_corpus(recorded, tmp_path / "corpus.jsonl")
    loaded = load_corpus(tmp_path / "corpus.jsonl")
    constants = (I32, I64, F64, BOOL, STRING, BYTES, HANDLE, COMPOSITE)
    nodes = [record.trace for record in loaded]
    while nodes:
        node = nodes.pop()
        assert any(node.kind is constant for constant in constants), node
        nodes.extend(node.children)
    for name, records in (("recorded", recorded), ("loaded", loaded)):
        save_report(run_fuzz(FuzzConfig(policy="semi-valid", budget=10000, corpus=records)), tmp_path / name)
    assert (tmp_path / "loaded").read_bytes() == (tmp_path / "recorded").read_bytes()


def test_crash_provenance_carries_the_full_case(semi_report):
    for crash in semi_report.crashes:
        prov = crash.provenance
        assert prov["policy"] == "SEMI_VALID"
        assert prov["case"]["payload_hex"] == crash.provenance["case"]["payload_hex"]
        assert prov["case"]["case_id"] == crash.first_seen_case_id


def test_a_campaign_traces_nothing_and_reruns_each_fingerprint_once(monkeypatch, corpus):
    built, reruns = [], []
    init, rerun = TraceBuilder.__init__, harness._rerun

    def counting_init(self):
        built.append(self)
        init(self)

    def counting_rerun(prepared, case, crash):
        reruns.append(case.case_id)
        rerun(prepared, case, crash)

    monkeypatch.setattr(TraceBuilder, "__init__", counting_init)
    monkeypatch.setattr(harness, "_rerun", counting_rerun)
    report = run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=corpus))
    assert report.counters["fatal_crash"] > len(report.crashes) == 10
    assert built == []
    assert sorted(reruns) == sorted(c.first_seen_case_id for c in report.crashes)


def test_a_rerun_that_crashes_otherwise_is_a_harness_error(monkeypatch, in_rerun, corpus, semi_report):
    """The re-run must crash as the dispatch did, detail included: here
    it differs in the detail alone, which the fingerprint does not hash."""
    transact = Router.transact

    def detail_moved_in_rerun(self, txn, trace_hook=None):
        reply = transact(self, txn, trace_hook)
        if not in_rerun[0] or reply.crash is None:
            return reply
        return reply._replace(crash=reply.crash._replace(detail=reply.crash.detail + " again"))

    monkeypatch.setattr(Router, "transact", detail_moved_in_rerun)
    first = min(semi_report.crashes, key=lambda c: c.first_seen_case_id)
    crash = CrashInfo(first.exception_kind, first.stack_frames, first.detail)
    message = "case %d crashed as %r, but its re-run gave %r" % (
        first.first_seen_case_id, crash, crash._replace(detail=crash.detail + " again")
    )
    with pytest.raises(HarnessError, match="^%s$" % re.escape(message)):
        run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=corpus))


def test_per_case_values_are_immutable():
    case = FuzzCase(1, EMPTY, "svc.queue", 1, b"", ())
    values = (
        (case, "payload", b"\x00"),
        (Reply(OK), "kind", REJECTED),
        (_crash(), "stack_frames", ()),
        (IpcEdge("fuzzer", "svc.queue", 1), "sender_id", "other"),
    )
    for value, name, replacement in values:
        with pytest.raises(AttributeError):
            setattr(value, name, replacement)


def test_replaced_values_are_checked_again():
    case = FuzzCase(1, EMPTY, "svc.queue", 1, b"", ())
    assert case._replace(code=2).code == 2


# -- repeated dispatches -------------------------------------------------------------


@pytest.fixture
def records(request, shuffled_corpus_of):
    """The corpus a test is parametrized with: a fixture's name, or the
    shuffle seed that shuffled_corpus_of records four copies in."""
    source = request.param
    return shuffled_corpus_of(source) if isinstance(source, int) else request.getfixturevalue(source)


@pytest.fixture
def in_rerun(monkeypatch):
    """A one-item list that holds True while harness._rerun runs."""
    rerun, flag = harness._rerun, [False]

    def marked(*args):
        flag[0] = True
        try:
            return rerun(*args)
        finally:
            flag[0] = False

    monkeypatch.setattr(harness, "_rerun", marked)
    return flag


@pytest.fixture
def fuzzer_sends(monkeypatch, in_rerun):
    """Every transaction fuzz cases send from here on, in order, as
    (target descriptor, transaction, rerun): dispatches and the re-runs
    of first crashes (rerun True), no supports."""
    transact, sends = Router.transact, []

    def logged(self, txn, trace_hook=None):
        if txn.sender_id == "fuzzer":
            sends.append((self.descriptor_of(txn.target_handle), txn, in_rerun[0]))
        return transact(self, txn, trace_hook)

    monkeypatch.setattr(Router, "transact", logged)
    return sends


def _dispatch_every_case(records, policy, budget):
    """(case, answer) for each case of a campaign, as _answers gives them,
    each case dispatched on a fresh session of its own, with nothing
    remembered from one case to the next."""
    prepared = prepare_corpus(records)
    for case in generate_campaign(records, policy, budget, 1):
        session = ReplaySession(prepared)
        reply = session.router.transact(session.prepare(case))
        digest = fingerprint(reply.crash) if reply.kind == FATAL_CRASH else None
        yield case, (classify(reply), digest, reply.crash, session.router.edges)


def _check_against_every_dispatch(records, policy, budget):
    """Compare _answers' stream with _dispatch_every_case's item by item,
    and the campaign's report with this test's own tally of the latter;
    returns the report."""
    expected = list(_dispatch_every_case(records, policy, budget))
    answers = harness._answers(prepare_corpus(records), generate_campaign(records, policy, budget, 1))
    for got, want in itertools.zip_longest(answers, expected):
        assert got == want, "case %d is answered otherwise" % (want or got)[0].case_id

    counters, per_method, crashes = dict.fromkeys(OUTCOMES, 0), {}, {}
    for case, (outcome, digest, _crash, _edges) in expected:
        counters[outcome] += 1
        per_method.setdefault("%s:%d" % (case.descriptor, case.code), dict.fromkeys(OUTCOMES, 0))[outcome] += 1
        if digest is not None:
            crashes.setdefault(digest, [case.case_id, 0])[1] += 1
    edges = [edge for _case, answer in expected for edge in answer[3]]
    by_sender, by_descriptor = Counter(e.sender_id for e in edges), Counter(e.target_descriptor for e in edges)
    report = run_fuzz(FuzzConfig(policy=policy, budget=budget, rng_seed=1, corpus=records))
    assert (report.counters, report.per_method) == (counters, per_method)
    assert report.edge_summary == {"total": len(edges), "by_sender": by_sender, "by_descriptor": by_descriptor}
    assert {c.fingerprint: [c.first_seen_case_id, c.hit_count] for c in report.crashes} == crashes
    return report


@pytest.mark.parametrize("policy", ["semi-valid", "empty,random", "empty,random,semi-valid"])
@pytest.mark.parametrize("records", ["corpus", "shuffled_corpus", 1, 2, 3, 13, "eight_copy_corpus"], indirect=True)
def test_a_campaign_counts_what_dispatching_every_case_gives(records, policy):
    _check_against_every_dispatch(records, policy.split(","), 10000)


def _reject_open_session(record):
    return record._replace(code=99)


def _move_open_session_handle(record):
    # open_session's reply holds the session handle at 0 and an int at 4.
    return record._replace(produced_handles=((record.produced_handles[0][0], 4),))


@pytest.mark.parametrize("policy", ["semi-valid", "empty,random,semi-valid"])
@pytest.mark.parametrize("records", ["corpus", 1, 2], indirect=True)
def _until_unreplayable(stream) -> tuple[list, Unreplayable]:
    """The items stream yields before it raises Unreplayable, and that error."""
    items = []
    with pytest.raises(Unreplayable) as raised:
        for item in stream:
            items.append(item)
    return items, raised.value


@pytest.mark.parametrize("policy", ["semi-valid", "empty,random,semi-valid"])
@pytest.mark.parametrize("records", ["corpus", 1, 2], indirect=True)
@pytest.mark.parametrize("break_support", [_reject_open_session, _move_open_session_handle])
def test_a_seed_whose_supports_fail_stops_where_dispatching_every_case_does(monkeypatch, records, policy, break_support):
    """Behind the corpus check, the first case of a seed whose supports
    cannot be replayed raises the support's Unreplayable, naming it.
    _answers replays the supports once per seed, the reference once per
    case; both give the same items before it."""
    audio_seq = next(r.seq for r in records if (r.descriptor, r.code) == ("svc.audio", 3))
    broken = [break_support(r) if r.seq == audio_seq else r for r in records]
    expected, refused = _until_unreplayable(_dispatch_every_case(broken, policy.split(","), 3000))
    answers = harness._answers(prepare_corpus(broken), generate_campaign(broken, policy.split(","), 3000, 1))
    got, error = _until_unreplayable(answers)
    assert got == expected
    assert expected, "the broken seed's first case is the campaign's first"
    assert (str(error), error.support_seq) == (str(refused), audio_seq)
    monkeypatch.setattr(harness, "check_replies", lambda prepared: None)
    with pytest.raises(Unreplayable, match="^%s$" % re.escape(str(error))):
        run_fuzz(FuzzConfig(policy=policy.split(","), budget=3000, rng_seed=1, corpus=broken))


@pytest.mark.parametrize(
    "policy,budget,corpus_fixture,executed,dispatched",
    [
        # A seeded case dispatches once per key: the 1396 cases of four
        # copies have 388 keys, the 349 of one copy 349.
        ("semi-valid", 10000, "shuffled_corpus", 1396, 388),
        ("semi-valid", 10000, "corpus", 349, 349),
        # RANDOM case i goes to method i mod 11, its length stepping
        # through the six of the cycle once per round of 11.  339 of the
        # 1989 RANDOM cases are empty (30 whole rounds and 9 cases of
        # round 180), and each repeats the EMPTY case of its method.  The
        # four methods that read nothing each get 181 RANDOM cases, 31 of
        # them empty, and their 4 x 150 others repeat the method's EMPTY
        # case too: 2000 - 339 - 600.
        ("empty,random", 2000, "corpus", 2000, 1061),
        # The benchmark's blind campaign: 1672 of the 9989 RANDOM cases
        # are empty (152 rounds), and the methods that read nothing get
        # 908 each, 152 of them empty: 10000 - 1672 - 4 x 756.
        ("empty,random", 10000, "corpus", 10000, 5304),
    ],
)
def test_a_case_whose_session_repeats_an_earlier_one_is_not_dispatched(
    fuzzer_sends, request, read_nothing, policy, budget, corpus_fixture, executed, dispatched
):
    records = request.getfixturevalue(corpus_fixture)
    report = run_fuzz(FuzzConfig(policy=policy.split(","), budget=budget, rng_seed=1, corpus=records))
    assert report.executed == executed
    assert sum(not rerun for _target, _txn, rerun in fuzzer_sends) == dispatched
    if "semi-valid" not in policy:
        cases = generate_campaign(records, policy.split(","), budget, 1)
        assert len(list(_dispatched_by_rule(cases, read_nothing))) == dispatched


def _dispatched_by_rule(cases, read_nothing):
    """The seedless cases among cases that _answers dispatches, in order.
    An empty case repeats its method's first empty case.  A case of a
    method that reads nothing repeats the first case of its method,
    whatever either payload is: that dispatch left its parcel unobserved."""
    seen = set()
    for case in cases:
        method = (case.descriptor, case.code)
        if not case.payload or method in read_nothing:
            if method in seen:
                continue
            seen.add(method)
        yield case


@pytest.mark.parametrize(
    "records,policy",
    [
        *itertools.product([1, 2, 3, 13, "eight_copy_corpus"], ["semi-valid", "empty,random", "empty,random,semi-valid"]),
        # The benchmark's semi-valid corpora are four copies of every
        # scenario in the orders shuffle seeds 1 to 10 give.  Only the
        # seeded cases depend on the order, and at this budget the mixed
        # policy makes the same ones as semi-valid.
        *[(order, "semi-valid") for order in ["shuffled_corpus", *range(4, 11)]],
    ],
    indirect=["records"],
)
def test_cases_with_one_first_level_key_send_the_same_transactions(records, policy):
    """_answers looks a seeded case up by (seed id, field_path,
    mutation_id) before it builds a session, and an empty seedless case
    by its method.  Each case here also replays on a fresh session of its
    own: every case under one key must send what the first one sent.
    (The non-empty cases of a method that reads nothing share its key
    too; they send other bytes, and test_service_contract checks that
    they get one answer.)"""
    prepared = prepare_corpus(records)
    seed_ids, opened, sent_under = {}, {}, {}
    keyed = 0
    for case in generate_campaign(records, policy.split(","), 10000, 1):
        if case.seed_seq is not None:
            if case.seed_seq not in opened:
                opened[case.seed_seq] = harness._open_seed(prepared, case.seed_seq, seed_ids)[0]
            key = (opened[case.seed_seq], case.field_path, case.mutation_id)
        elif not case.payload:
            key = (case.descriptor, case.code)
        else:
            continue
        session = ReplaySession(prepared)
        txn = session.prepare(case)
        sent = harness._sent_digest((*session._replayed.values(), txn))
        assert sent_under.setdefault(key, sent) == sent, "case %d" % case.case_id
        keyed += 1
    assert len(sent_under) < keyed
    if opened:
        # Copies of one scenario share seed ids, so their cases share keys.
        assert len(set(opened.values())) < len(opened)


@pytest.mark.parametrize(
    "policy,corpus_fixture,sessions",
    [
        # One session checks the corpus, one opens each seed (76 here),
        # one re-runs each of the 10 first crashes, and one serves each
        # miss whose seed's session an earlier case already dispatched
        # on: 1 + 76 + 10 + 363.
        ("semi-valid", "shuffled_corpus", 450),
        ("semi-valid", "corpus", 360),
        # Seedless cases build none: the corpus check and 4 re-runs.
        ("empty,random", "corpus", 5),
    ],
)
def test_a_campaign_builds_a_session_per_seed_and_per_dispatch(monkeypatch, request, policy, corpus_fixture, sessions):
    records = request.getfixturevalue(corpus_fixture)
    init = ReplaySession.__init__
    built = []

    def counting(self, prepared):
        built.append(self)
        init(self, prepared)

    monkeypatch.setattr(ReplaySession, "__init__", counting)
    run_fuzz(FuzzConfig(policy=policy.split(","), budget=10000, rng_seed=1, corpus=records))
    assert len(built) == sessions


def test_an_empty_seedless_case_dispatches_once_per_method(fuzzer_sends, read_nothing):
    # Three turns of the length cycle: every method gets three empty
    # RANDOM cases, and no EMPTY case runs before them.  A method that
    # reads nothing dispatches only its first case of the 18.
    budget = 3 * len(all_methods()) * len(RANDOM_LENGTH_CYCLE)
    report = run_fuzz(FuzzConfig(policy="random", budget=budget))
    sent = [(target, txn.code, txn.data.buffer) for target, txn, rerun in fuzzer_sends if not rerun]

    cases = generate_campaign((), ["random"], budget, 1)
    expected = [(case.descriptor, case.code, case.payload) for case in _dispatched_by_rule(cases, read_nothing)]
    assert sent == expected
    assert len(sent) == budget - 2 * len(all_methods()) - 3 * (len(RANDOM_LENGTH_CYCLE) - 1) * len(read_nothing)
    assert _check_against_every_dispatch((), ["random"], budget) == report


def test_a_method_whose_first_case_is_not_empty_is_keyed_by_what_that_dispatch_read(fuzzer_sends, read_nothing):
    """Every campaign sends each method an empty case first, so here the
    stream is built by hand: peek, which reads nothing, answers its later
    cases, empty or not, from its first dispatch; add, which reads its
    request, dispatches every non-empty case and its first empty one."""
    peek, add = ("svc.queue", 2), ("svc.queue", 1)
    assert peek in read_nothing and add not in read_nothing
    plan = [(peek, 16), (peek, 0), (peek, 64), (add, 16), (add, 0), (add, 64), (add, 0)]
    cases = [make_random(*method, length, 7 + i, i) for i, (method, length) in enumerate(plan)]
    prepared = prepare_corpus(())
    answers = list(harness._answers(prepared, iter(cases)))

    sent = [txn.data.buffer for _target, txn, _rerun in fuzzer_sends]
    assert sent == [case.payload for case in _dispatched_by_rule(cases, read_nothing)]
    assert len(sent) == 4
    assert answers[1][1] is answers[0][1] and answers[2][1] is answers[0][1]
    assert answers[6][1] is answers[4][1]
    for case, answer in answers:
        session = ReplaySession(prepared)
        reply = session.router.transact(session.prepare(case))
        assert answer == (classify(reply), None, reply.crash, session.router.edges), case.case_id


def test_a_campaign_answers_each_case_before_it_pulls_the_next(monkeypatch, fuzzer_sends, corpus):
    """The benchmark times a case as the span between two pulls of the
    case stream (perfbench's install_case_stamps), so each case's
    dispatch and re-run must fall between its own pull and the next: a
    campaign that drew its cases ahead would time none of them."""
    generate, pulls = harness.generate_campaign, []

    def pulled(inner):
        for case in inner:
            pulls.append((case, len(fuzzer_sends)))
            yield case

    monkeypatch.setattr(harness, "generate_campaign", lambda *a, **k: pulled(generate(*a, **k)))
    report = run_fuzz(FuzzConfig(policy=["empty", "random", "semi-valid"], budget=2000, corpus=corpus))
    assert len(pulls) == report.executed == 2000
    rerun = set()
    for (case, start), (_next, end) in zip(pulls, pulls[1:] + [(None, len(fuzzer_sends))]):
        sent = fuzzer_sends[start:end]
        assert [r for _target, _txn, r in sent] in ([], [False], [False, True]), case.case_id
        assert all((txn.code, len(txn.data.buffer)) == (case.code, len(case.payload)) for _, txn, _ in sent)
        if len(sent) == 2:
            rerun.add(case.case_id)
    assert rerun == {c.first_seen_case_id for c in report.crashes} != set()


def test_a_case_repeats_only_if_its_supports_sent_the_same_bytes(fuzzer_sends):
    # One recording of a scenario, then a second open_session (5) and a
    # register_client (6) that is record 4 byte for byte but carries the
    # session handle record 5 produced.  Seeds 4 and 6 have one content,
    # and their supports send the same bytes.  open_session reads
    # nothing, so each open_session carries a 4-byte pad, covered by an
    # I32 leaf of its trace: what the pad holds changes what a support
    # sends and nothing the corpus replies.
    def with_pads(records, pads):
        return [
            r._replace(payload=pads[r.seq], trace=TraceNode(COMPOSITE, "request", 0, 4, (TraceNode(I32, "", 0, 4),)))
            if r.seq in pads else r
            for r in records
        ]

    one = record_session(["audio_callback"])
    recorded = [*one, one[2]._replace(seq=5), one[4]._replace(seq=6, consumed_handles=((0, 5),))]
    corpus = with_pads(recorded, {2: b"\x00\x00\x00\x00", 5: b"\x00\x00\x00\x00"})
    plans = prepare_corpus(corpus).plans
    assert (plans[4], plans[6]) == ((2,), (5,))
    assert corpus[4].content == corpus[6].content
    # Record 5's pad now differs from record 2's.
    padded = with_pads(recorded, {2: b"\x00\x00\x00\x00", 5: b"\x01\x00\x00\x00"})

    def campaign(records):
        fuzzer_sends.clear()
        report = run_fuzz(FuzzConfig(policy="semi-valid", budget=10000, corpus=records))
        registered = [target for target, txn, rerun in fuzzer_sends if not rerun and txn.code == 2]
        return report, registered.count("svc.audio")

    (report, once), (padded_report, twice) = campaign(corpus), campaign(padded)
    seeds = Counter(case.seed_seq for case in generate_campaign(corpus, ["semi-valid"], 10000, 1))
    assert once == seeds[4] == seeds[6] > 0
    assert twice == seeds[4] + seeds[6]
    assert padded_report.counters == report.counters


# -- determinism and persistence ------------------------------------------------------


def test_identical_configs_serialize_identically(corpus, semi_report):
    again = run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=corpus))
    assert again.to_canonical_json() == semi_report.to_canonical_json()


# sha256 of the canonical report of each config, pinned from a build
# known to be right: any byte a change moves in a report shows up here.
PINNED_REPORTS = [
    ("semi-valid", 10000, "corpus", "76da270510fd9b9bd9671b03af299a2c16e9b5d820aaeef02e38fbcf6a988edf"),
    ("semi-valid", 10000, "shuffled_corpus", "d8d540e51d457ea09382a1145d6f910c7dc383ee3d244320c46d69dc5e962150"),
    ("empty,random", 10000, "corpus", "b274c11f11a3527d9fbf138cf96986a316898057bf648b95e91815f32591aebf"),
]

# sha256 of the same reports as they were written while each crash held
# its schema, the type trace that `replay --schema` now prints: the pins
# from before schemas left the report.
PINNED_REPORTS_WITH_SCHEMAS = {
    "semi-valid-corpus": "670557ca73187b3961a3a09dd39422871f401fde3774993e53e481147af09466",
    "semi-valid-shuffled_corpus": "2f30d2eadbbecf04cfb01f5389b0d409c4a5c98a4721a93e058d559988abadce",
    "empty,random-corpus": "00931f7dafd4b071599b91301157e0f1a7de42332cdb67885a6db3670719e57c",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _replay_schema(capsys, report_path, corpus_path, fingerprint_hex) -> dict:
    """The schema `replay --schema` prints for a saved crash.  The lines
    before it must be the whole output of the same replay without the
    flag, and both must exit 2 with nothing on stderr."""
    argv = ["replay", "--report", str(report_path), "--fingerprint", fingerprint_hex, "--corpus", str(corpus_path)]
    assert main(argv) == 2
    plain, err = capsys.readouterr()
    assert (main(argv + ["--schema"]), err) == (2, "")
    out, err = capsys.readouterr()
    assert (out[: len(plain)], err) == (plain, "")
    return json.loads(out[len(plain):])


def _with_schemas(report, records, directory, capsys) -> dict:
    """report in the layout it had while it held schemas: its JSON, each
    crash with the schema that `replay --schema` prints for it."""
    corpus_path, report_path = directory / "corpus.jsonl", directory / "report.json"
    save_corpus(records, corpus_path)
    save_report(report, report_path)
    old = report.to_json()
    for crash in old["crashes"]:
        crash["schema"] = _replay_schema(capsys, report_path, corpus_path, crash["fingerprint"])
    return old


@pytest.mark.parametrize(
    "policy,budget,corpus_fixture,digest", PINNED_REPORTS, ids=["%s-%d-%s" % pin[:3] for pin in PINNED_REPORTS]
)
def test_canonical_reports_are_pinned(request, tmp_path, capsys, policy, budget, corpus_fixture, digest):
    """Each report is pinned, and re-adding its crashes' schemas gives
    back the bytes pinned before they left: nothing else moved.  A report
    that still holds them loads as the report without them and replays."""
    records = request.getfixturevalue(corpus_fixture)
    report = run_fuzz(FuzzConfig(policy=policy.split(","), budget=budget, rng_seed=1, corpus=records))
    assert _sha256(report.to_canonical_json()) == digest
    old = _with_schemas(report, records, tmp_path, capsys)
    assert _sha256(canonical_json(old) + "\n") == PINNED_REPORTS_WITH_SCHEMAS["%s-%s" % (policy, corpus_fixture)]

    old_path = tmp_path / "old.json"
    old_path.write_text(canonical_json(old) + "\n")
    assert load_report(old_path).to_canonical_json() == report.to_canonical_json()
    crash = old["crashes"][0]
    assert _replay_schema(capsys, old_path, tmp_path / "corpus.jsonl", crash["fingerprint"]) == crash["schema"]


# sha256 of the same semi-valid reports under catalog-v1, whose RANDOM
# bytes came from a seeded Mersenne Twister, in the layout of
# PINNED_REPORTS_WITH_SCHEMAS.  Semi-valid cases draw no random bytes,
# so the catalog version is all that moved.
CATALOG_V1_SEMI_VALID_REPORTS = [
    ("corpus", "698083aa82ed576bf0cd952fe19b51c6240fe9b7ae40565be28c2cdd990f9423"),
    ("shuffled_corpus", "c04004d732831d30a321266ca766a458c48a6c162d869260ef5706ad4fb0bb28"),
]


@pytest.mark.parametrize(
    "corpus_fixture,digest", CATALOG_V1_SEMI_VALID_REPORTS, ids=[pin[0] for pin in CATALOG_V1_SEMI_VALID_REPORTS]
)
def test_semi_valid_reports_differ_from_catalog_v1_in_the_version_alone(request, tmp_path, capsys, corpus_fixture, digest):
    records = request.getfixturevalue(corpus_fixture)
    report = run_fuzz(FuzzConfig(policy=["semi-valid"], budget=10000, rng_seed=1, corpus=records))
    assert report.config["catalog_version"] == CATALOG_VERSION != "catalog-v1"
    v1 = _with_schemas(report, records, tmp_path, capsys)
    v1["config"]["catalog_version"] = "catalog-v1"
    assert _sha256(canonical_json(v1) + "\n") == digest


# sha256 of the semi-valid case stream of the shipped corpus and then the
# shuffled one, as scripts/determinism.py prints it.
SEMI_VALID_STREAM_DIGEST = "68926f40b7928bc5e1ab3fc8f39cf942368c4abf68d4ae4ac61bb7ecd7847670"
DETERMINISM_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "determinism.py"


def _other_interpreters() -> dict[str, str]:
    """Python 3.10+ interpreters other than this one, by path, with their
    versions: python3.N on PATH and the pythons beside sys.base_prefix.
    One counts only if a version probe exits 0; a shim that names an
    interpreter it cannot find exits non-zero."""
    candidates = [shutil.which("python3.%d" % minor) for minor in range(10, 30)]
    candidates += sorted(map(str, Path(sys.base_prefix).parent.glob("*/bin/python3.*")))
    probe = "import sys; print(sys.version.split()[0], sys.version_info >= (3, 10), sys.executable)"
    seen, found = {os.path.realpath(sys.executable)}, {}
    for path in candidates:
        if path is None or not re.fullmatch(r"python3\.\d+", os.path.basename(path)):
            continue
        try:
            result = subprocess.run([path, "-c", probe], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = result.stdout.split()
        if result.returncode != 0 or len(fields) != 3 or fields[1] != "True":
            continue
        executable = os.path.realpath(fields[2])
        if executable not in seen:
            seen.add(executable)
            found[path] = fields[0]
    return found


def test_reports_do_not_depend_on_the_interpreter_or_the_hash_seed():
    """scripts/determinism.py prints the pinned report digests and the
    pinned case-stream digest under this interpreter with two hash seeds
    and under every other Python 3.10+ found here."""
    runs = [(sys.executable, platform.python_version(), seed) for seed in ("0", "12345")]
    runs += [(path, version, "1") for path, version in _other_interpreters().items()]
    expected = ["%s %d %s %s" % pin for pin in PINNED_REPORTS] + ["semi-valid-stream " + SEMI_VALID_STREAM_DIGEST]
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    children = [
        subprocess.Popen([path, str(DETERMINISM_SCRIPT)], env={**env, "PYTHONHASHSEED": seed},
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for path, _version, seed in runs
    ]
    try:
        for (path, version, seed), child in zip(runs, children):
            out, err = child.communicate(timeout=300)
            print("ran %s (Python %s) with PYTHONHASHSEED=%s" % (path, version, seed))
            assert (child.returncode, out.splitlines()) == (0, expected), (path, version, seed, err)
    finally:
        for child in children:
            child.kill()
            child.wait()


def test_report_round_trips_through_disk(tmp_path, semi_report):
    path = tmp_path / "report.json"
    save_report(semi_report, path)
    loaded = load_report(path)
    assert isinstance(loaded, CampaignReport)
    assert loaded.to_canonical_json() == semi_report.to_canonical_json()
    assert all(isinstance(c, CrashReport) for c in loaded.crashes)


# -- canonical JSON -----------------------------------------------------------------------

# Text with the characters JSON escapes or writes as \u escapes:
# quotes, backslashes, control characters, lone surrogates and
# characters past the BMP, mixed with any other character.
_json_text = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
        st.characters(exclude_categories=()),
    ),
    max_size=12,
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**30, -(2**63)]) | st.floats() | _json_text,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_json_text, children, max_size=4)
    ),
    max_leaves=12,
)


@given(_json_values)
@settings(max_examples=60, deadline=None)
def test_canonical_json_is_the_stdlib_indented_dump(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_canonical_json_of_a_deeply_nested_value():
    value = "leaf"
    for depth in range(40):
        value = {"k%d" % depth: [value, depth], "": {}}
    assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": [{None: 1}]}, {"a", "b"}, [b"bytes"]])
def test_canonical_json_refuses_what_json_cannot_load(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def test_the_deepest_loadable_report_renders_as_json(tmp_path, capsys, saved_campaign):
    """The deepest value a crash's provenance, which a report keeps
    whole, can hold and still load also writes through the CLI, with no
    traceback."""
    _corpus_path, saved = saved_campaign
    report_path = tmp_path / "report.json"
    crash = saved["crashes"][0]
    report = dict(saved, crashes=[dict(crash, provenance=dict(crash["provenance"], nested="@@"))])
    text = json.dumps(report)
    opening = '{"kind": "COMPOSITE", "label": "x", "byte_range": [0, 4], "children": ['
    leaf = '{"kind": "I32", "label": "v", "byte_range": [0, 4]}'

    def loads_at(depth):
        report_path.write_text(text.replace('"@@"', opening * depth + leaf + "]}" * depth))
        code = main(["report", "--in", str(report_path)])
        err = capsys.readouterr().err
        assert code in (1, 2) and err.count("\n") <= 1, err
        return code == 2

    low, high = 1, 2000
    assert loads_at(low) and not loads_at(high)
    while high - low > 1:
        middle = (low + high) // 2
        if loads_at(middle):
            low = middle
        else:
            high = middle
    assert low > 100
    assert loads_at(low)
    assert main(["report", "--in", str(report_path), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    # The same value, compared compactly: the stdlib's indented dump takes
    # time quadratic in the depth here.
    assert json.dumps(json.loads(out)) == json.dumps(json.loads(report_path.read_text()), sort_keys=True)


def test_load_report_failures_are_harness_errors(tmp_path):
    with pytest.raises(HarnessError):
        load_report(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(HarnessError):
        load_report(bad)


def test_crashes_are_sorted_by_fingerprint(semi_report):
    fps = [c.fingerprint for c in semi_report.crashes]
    assert fps == sorted(fps)
    assert len(fps) == len(set(fps))


# -- lookup and reproduction -----------------------------------------------------------


def test_find_crash_accepts_unique_prefixes(semi_report):
    crash = semi_report.crashes[0]
    assert find_crash(semi_report, crash.fingerprint) is crash
    assert find_crash(semi_report, crash.fingerprint[:12]) is crash
    with pytest.raises(HarnessError):
        find_crash(semi_report, "")  # every fingerprint matches
    with pytest.raises(HarnessError):
        find_crash(semi_report, "zz")


def test_every_saved_crash_reproduces(semi_report, corpus):
    for crash in semi_report.crashes:
        reply = reproduce(semi_report, crash.fingerprint, corpus)
        assert reply.kind == FATAL_CRASH
        assert fingerprint(reply.crash) == crash.fingerprint


def test_reproduce_flags_provenance_that_no_longer_crashes(semi_report, corpus):
    doctored = copy.deepcopy(semi_report)
    crash = doctored.crashes[0]
    seed = next(r for r in corpus if r.seq == crash.provenance["case"]["seed_seq"])
    crash.provenance["case"]["payload_hex"] = seed.payload.hex()
    crash.provenance["case"]["offsets"] = list(seed.offsets)
    crash.provenance["case"]["slot_overrides"] = []
    with pytest.raises(FingerprintMismatch):
        reproduce(doctored, crash.fingerprint, corpus)


def test_reproduce_flags_the_wrong_crash(semi_report, corpus):
    doctored = copy.deepcopy(semi_report)
    a, b = doctored.crashes[0], doctored.crashes[1]
    a.provenance["case"] = b.provenance["case"]
    with pytest.raises(FingerprintMismatch):
        reproduce(doctored, a.fingerprint, corpus)


def test_reproduce_rejects_gutted_provenance(semi_report, corpus):
    doctored = copy.deepcopy(semi_report)
    doctored.crashes[0].provenance["case"] = {"nonsense": True}
    with pytest.raises(HarnessError):
        reproduce(doctored, doctored.crashes[0].fingerprint, corpus)


# -- the defect manifest ----------------------------------------------------------------


def test_manifest_shape(manifest):
    assert manifest["format_version"] == 1
    assert manifest["catalog_version"] == CATALOG_VERSION
    services = manifest["services"]
    assert len(services) == 6
    assert sum(len(s["methods"]) for s in services) == 11
    bugs = [b for s in services for b in s["seeded_bugs"]]
    assert len(bugs) == 10
    for bug in bugs:
        assert len(bug["fingerprint"]) == 64
        assert bug["exception_kind"]
        assert isinstance(bug["needs_structure"], bool)
    assert manifest["fingerprint_count"] == 10


def test_manifest_fingerprints_match_the_build(manifest, manifest_fps):
    assert manifest_fingerprints(manifest) == manifest_fps
    assert manifest_fingerprints() == manifest_fps
    assert len(manifest_fps) == 10


def test_manifest_needs_one_fingerprint_per_seeded_bug(monkeypatch):
    # A bug listed twice crashes with its own fingerprint twice: one fewer
    # distinct fingerprint than bugs.
    monkeypatch.setattr(harness, "SEEDED_BUGS", SEEDED_BUGS + SEEDED_BUGS[:1])
    with pytest.raises(ManifestError, match=r"^expected one distinct fingerprint per seeded bug \(11\), measured 10$"):
        build_manifest()


def test_structure_requirements_are_flagged(manifest):
    no_structure = {
        b["id"]
        for s in manifest["services"]
        for b in s["seeded_bugs"]
        if not b["needs_structure"]
    }
    assert no_structure == {
        "audio-null-client",
        "bluetooth-table-overrun",
        "bluetooth-count-overread",
        "activity-args-malformed",
    }


# -- the command line --------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "svc.queue" in out and "svc.activity" in out
    assert main(["list", "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(build_manifest(), sort_keys=True, indent=2) + "\n"
    listed = json.loads(out)
    for service in listed["services"]:
        assert [m["code"] for m in service["methods"]] == list(range(1, len(service["methods"]) + 1))
    assert {s["descriptor"] for s in listed["services"]} == {
        "svc.queue",
        "svc.audio",
        "svc.bluetooth",
        "svc.view",
        "svc.graphics",
        "svc.activity",
    }


def test_cli_end_to_end(tmp_path, capsys, manifest_fps):
    corpus_path = tmp_path / "corpus.jsonl"
    report_path = tmp_path / "report.json"
    assert main(["record", "--scenario", "all", "--out", str(corpus_path)]) == 0
    capsys.readouterr()

    code = main(
        [
            "fuzz",
            "--policy",
            "semi-valid",
            "--corpus",
            str(corpus_path),
            "--budget",
            "400",
            "--out",
            str(report_path),
        ]
    )
    assert code == 2  # crashes were found
    capsys.readouterr()

    report = load_report(report_path)
    assert report.distinct_fingerprints() == manifest_fps

    assert main(["report", "--in", str(report_path)]) == 2
    text = capsys.readouterr().out
    assert "fatal_crash" in text

    assert main(["report", "--in", str(report_path), "--format", "json"]) == 2
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["counters"]["fatal_crash"] > 0

    prefix = report.crashes[0].fingerprint[:12]
    code = main(
        [
            "replay",
            "--report",
            str(report_path),
            "--fingerprint",
            prefix,
            "--corpus",
            str(corpus_path),
        ]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert report.crashes[0].fingerprint in out
    assert out.startswith("reproduced %s\n" % report.crashes[0].fingerprint)


def test_cli_clean_campaign_exits_zero(tmp_path, capsys):
    corpus_path = tmp_path / "queue.jsonl"
    report_path = tmp_path / "report.json"
    assert main(["record", "--scenario", "queue_session", "--out", str(corpus_path)]) == 0
    code = main(
        [
            "fuzz",
            "--policy",
            "semi-valid",
            "--corpus",
            str(corpus_path),
            "--budget",
            "200",
            "--out",
            str(report_path),
        ]
    )
    assert code == 0
    assert load_report(report_path).counters["fatal_crash"] == 0
    assert main(["report", "--in", str(report_path)]) == 0
    capsys.readouterr()


def test_random_seeds_are_any_int_and_their_sign_matters(tmp_path, capsys):
    for seed in (1, 99, 1_000_003, 10**30):
        for length in (4, 64):
            assert make_random("svc.queue", 1, length, -seed).payload != make_random("svc.queue", 1, length, seed).payload

    corpus_path = tmp_path / "corpus.jsonl"
    assert main(["record", "--scenario", "all", "--out", str(corpus_path)]) == 0
    for seed in ("-1", "99999999999999999999999"):
        texts = []
        for run in ("first", "second"):
            out = tmp_path / ("report-%s-%s.json" % (seed, run))
            argv = ["fuzz", "--policy", "empty,random", "--corpus", str(corpus_path), "--budget", "200"]
            code = main(argv + ["--rng-seed", seed, "--out", str(out)])
            assert code in (0, 2), seed
            texts.append(out.read_bytes())
        assert texts[0] == texts[1], seed
        assert load_report(tmp_path / ("report-%s-first.json" % seed)).config["rng_seed"] == int(seed)
    capsys.readouterr()


def test_cli_error_paths(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    capsys.readouterr()

    code = main(
        [
            "fuzz",
            "--policy",
            "bogus",
            "--corpus",
            str(corpus_path),
            "--budget",
            "10",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err

    argv = ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "99999999999999999999999",
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err, err

    assert main(["report", "--in", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()

    assert main(["record", "--scenario", "no_such_scenario", "--out", str(tmp_path / "x.jsonl")]) == 1
    capsys.readouterr()


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    for argv in (
        ["fuzz", "--policy", "empty", "--budget", "x", "--out", out],
        ["bogus"],
        ["fuzz", "--policy", "empty", "--out", out],
    ):
        assert main(argv) == 1, argv
        assert "error:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: parcelfuzz")


_USAGE = "usage: parcelfuzz [-h] {list,record,fuzz,replay,report} ...\n"
_HELP = _USAGE + """
positional arguments:
  {list,record,fuzz,replay,report}
    list                show services, methods and seeded defects
    record              record seed scenarios into a corpus file
    fuzz                run a fuzzing campaign
    replay              reproduce one crash from a report
    report              render a saved campaign report

options:
  -h, --help            show this help message and exit
"""
_RECORD_USAGE = "usage: parcelfuzz record [-h] [--scenario NAME] --out PATH\n"
_FUZZ_USAGE = """usage: parcelfuzz fuzz [-h] --policy POLICY [--corpus PATH] --budget N
                       [--rng-seed S] --out PATH
"""
_REPLAY_USAGE = """usage: parcelfuzz replay [-h] --report PATH --fingerprint HEX [--corpus PATH]
                         [--schema]
"""
_REPORT_USAGE = "usage: parcelfuzz report [-h] --in PATH [--format {text,json}]\n"


# argv, exit code, stdout, stderr.
_CLI_OUTPUTS = [
    ([], 1, "", _USAGE + "parcelfuzz: error: the following arguments are required: command\n"),
    (
        ["bogus"],
        1,
        "",
        _USAGE + "parcelfuzz: error: argument command: invalid choice: 'bogus' "
        "(choose from 'list', 'record', 'fuzz', 'replay', 'report')\n",
    ),
    (["--help"], 0, _HELP, ""),
    (["--help", "replay"], 0, _HELP, ""),
    (
        ["list", "--help"],
        0,
        """usage: parcelfuzz list [-h] [--json]

options:
  -h, --help  show this help message and exit
  --json      emit the manifest as JSON
""",
        "",
    ),
    (
        ["record", "--help"],
        0,
        _RECORD_USAGE + """
options:
  -h, --help       show this help message and exit
  --scenario NAME  scenario to record (repeatable; default: all). One of:
                   queue_session, audio_callback, bluetooth_profile,
                   view_inflate, graphics_alloc, activity_launch, all
  --out PATH       corpus file to write
""",
        "",
    ),
    (
        ["fuzz", "--help"],
        0,
        _FUZZ_USAGE + """
options:
  -h, --help       show this help message and exit
  --policy POLICY  empty, random or semi-valid; comma-separate to combine
                   (random runs last)
  --corpus PATH    seed corpus (required for semi-valid)
  --budget N
  --rng-seed S
  --out PATH       report file to write
""",
        "",
    ),
    (
        ["replay", "--help"],
        0,
        _REPLAY_USAGE + """
options:
  -h, --help         show this help message and exit
  --report PATH
  --fingerprint HEX
  --corpus PATH      corpus the campaign was run against
  --schema           also print the type trace of the crashing input
""",
        "",
    ),
    (
        ["report", "--help"],
        0,
        _REPORT_USAGE + """
options:
  -h, --help            show this help message and exit
  --in PATH
  --format {text,json}
""",
        "",
    ),
    (["list", "--bogus"], 1, "", _USAGE + "parcelfuzz: error: unrecognized arguments: --bogus\n"),
    (["list", "extra"], 1, "", _USAGE + "parcelfuzz: error: unrecognized arguments: extra\n"),
    (["record"], 1, "", _RECORD_USAGE + "parcelfuzz record: error: the following arguments are required: --out\n"),
    (
        ["replay"],
        1,
        "",
        _REPLAY_USAGE + "parcelfuzz replay: error: the following arguments are required: --report, --fingerprint\n",
    ),
    (
        ["fuzz", "--policy", "empty", "--budget", "x", "--out", "r.json"],
        1,
        "",
        _FUZZ_USAGE + "parcelfuzz fuzz: error: argument --budget: invalid int value: 'x'\n",
    ),
    (
        ["report", "--format", "yaml", "--in", "r.json"],
        1,
        "",
        _REPORT_USAGE + "parcelfuzz report: error: argument --format: invalid choice: 'yaml' "
        "(choose from 'text', 'json')\n",
    ),
]


@pytest.mark.parametrize("argv, code, out, err", _CLI_OUTPUTS, ids=[" ".join(row[0]) or "no-args" for row in _CLI_OUTPUTS])
def test_cli_help_usage_and_errors_are_pinned(monkeypatch, capsys, argv, code, out, err):
    """Every help, usage and argument error, byte for byte.  A top-level
    usage line names all five subcommands, however many subparsers the
    command line needed built."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    assert main(argv) == code
    assert capsys.readouterr() == (out, err)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_command_line_parses_as_the_full_parser_parses_it(data):
    """main parses a command line that starts with a subcommand with that
    subcommand's parser alone.  Exit code, stdout, stderr and the
    handler's Namespace must be what build_parser().parse_args gives:
    flags whole, abbreviated and with =value, repeated, "--", -h anywhere,
    extra words and unknown flags."""
    name = data.draw(st.sampled_from(list(COMMANDS)))
    argv = [name] + data.draw(st.lists(st.sampled_from(parse_both_ways.words(name)), max_size=8))
    fast, full = parse_both_ways.both(argv)
    assert fast == full


def _command_lines(count: int, seed: int = 0) -> list[list[str]]:
    """Command lines drawn as the property above draws them, and every
    pinned one."""
    rng = random.Random(seed)
    lines = [argv for argv, *_ in _CLI_OUTPUTS]
    for _ in range(count):
        name = rng.choice(list(COMMANDS))
        vocabulary = parse_both_ways.words(name)
        lines.append([name] + [rng.choice(vocabulary) for _ in range(rng.randrange(9))])
    return lines


def test_a_command_line_parses_as_the_full_parser_parses_it_under_every_python():
    """argparse's texts, and how it reports the words a subparser leaves,
    vary by version: the fast parse must match under every Python 3.10+
    found here too."""
    lines = json.dumps(_command_lines(400))
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), COLUMNS="80")
    probe = str(Path(parse_both_ways.__file__).resolve())
    for path, version in _other_interpreters().items():
        run = subprocess.run([path, probe], input=lines, env=env, capture_output=True, text=True, timeout=300)
        print("ran %s (Python %s)" % (path, version))
        assert (run.returncode, run.stderr, json.loads(run.stdout or "null")) == (0, "", []), (path, version)


def test_a_replay_builds_one_parser_and_loads_each_file_once(monkeypatch, tmp_path, capsys, saved_campaign):
    """A valid replay line builds its subcommand's parser alone, and calls
    cli.load_corpus and cli.load_report, the names perfbench times, once
    each."""
    corpus_path, saved = saved_campaign
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted("parser", argparse.ArgumentParser.__init__))
    monkeypatch.setattr(cli, "load_corpus", counted("load_corpus", cli.load_corpus))
    monkeypatch.setattr(cli, "load_report", counted("load_report", cli.load_report))
    argv = ["replay", "--report", str(_written(tmp_path, saved)), "--fingerprint", saved["crashes"][0]["fingerprint"],
            "--corpus", str(corpus_path)]
    assert main(argv) == 2
    assert capsys.readouterr().out.startswith("reproduced %s\n" % saved["crashes"][0]["fingerprint"])
    assert calls == {"parser": 1, "load_corpus": 1, "load_report": 1}


def test_a_repeated_policy_is_refused_before_the_campaign_runs(tmp_path, capsys):
    with pytest.raises(ConfigurationError, match="^policy EMPTY is given more than once$"):
        run_fuzz(FuzzConfig(policy=["empty", "empty"], budget=100))
    out = tmp_path / "r.json"
    assert main(["fuzz", "--policy", "empty,Empty", "--budget", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: policy EMPTY is given more than once\n"
    assert not out.exists()


def test_an_unknown_policy_is_named_as_given(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["fuzz", "--policy", "bogus", "--budget", "100", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: unknown policy 'bogus'\n")
    assert not out.exists()


def _loaded_after_import(module: str, wanted: str) -> str:
    """The printed sorted list of the names in sys.modules for which
    wanted, an expression over name, holds, in a fresh interpreter that
    has imported module from this checkout."""
    src = str(Path(harness.__file__).resolve().parents[1])
    probe = "import sys; sys.path.insert(0, %r); import %s; print(sorted(name for name in sys.modules if %s))"
    run = subprocess.run([sys.executable, "-I", "-S", "-c", probe % (src, module, wanted)], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    return run.stdout


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every replay is a fresh process that imports the package first;
    dataclasses and the inspect module it loads cost about a quarter of
    that import, and the package declares its records without them.
    pathlib, with the urllib.parse and ipaddress it imports, is left out
    too: the package reads and writes its files with open()."""
    unwanted = {"dataclasses", "inspect", "pathlib", "urllib.parse", "ipaddress"}
    assert _loaded_after_import("parcelfuzz.cli", "name in %r" % unwanted) == "[]\n"


@pytest.mark.parametrize(
    "module,loaded", [("parcelfuzz", ["parcelfuzz"]), ("parcelfuzz.parcel", ["parcelfuzz", "parcelfuzz.parcel"])]
)
def test_importing_a_module_loads_only_the_modules_it_imports(module, loaded):
    """The package root re-exports nothing: importing it loads no module
    of the package, and importing the parcel format, which imports no
    other, loads that module alone."""
    assert _loaded_after_import(module, "name.partition('.')[0] == 'parcelfuzz'") == "%r\n" % loaded


def _written(tmp_path, saved) -> Path:
    path = tmp_path / "report.json"
    path.write_text(json.dumps(saved))
    return path


def test_crash_schema_is_depth_capped(tmp_path, capsys, saved_campaign):
    corpus_path, saved = saved_campaign
    crash = next(c for c in saved["crashes"] if c["exception_kind"] == "STACK_OVERFLOW")
    schema = _replay_schema(capsys, _written(tmp_path, saved), corpus_path, crash["fingerprint"])

    def walk(node, depth=0):
        yield node, depth
        for child in node.get("children", []):
            yield from walk(child, depth + 1)

    depths = list(walk(schema))
    assert max(d for _, d in depths) == SCHEMA_DEPTH_LIMIT
    assert any(n.get("truncated") for n, _ in depths)
    assert all(set(n) >= {"kind", "label", "byte_range"} for n, _ in depths)


def test_every_crash_schema_is_the_trace_of_its_saved_case(tmp_path, capsys, saved_campaign):
    corpus_path, saved = saved_campaign
    report_path = _written(tmp_path, saved)
    prepared = prepare_corpus(load_corpus(corpus_path))
    for crash in saved["crashes"]:
        session = ReplaySession(prepared)
        builder = TraceBuilder()
        case = FuzzCase.from_json(crash["provenance"]["case"])
        reply = session.router.transact(session.prepare(case), trace_hook=builder)
        assert fingerprint(reply.crash) == crash["fingerprint"]
        schema = _replay_schema(capsys, report_path, corpus_path, crash["fingerprint"])
        assert schema == builder.finish().to_json(max_depth=SCHEMA_DEPTH_LIMIT)


def test_a_schema_replay_that_lands_elsewhere_is_a_mismatch(monkeypatch, tmp_path, capsys, saved_campaign):
    """Tracing must change nothing: a traced dispatch that crashes on
    another fingerprint exits 1 with one line, and prints no schema."""
    corpus_path, saved = saved_campaign
    transact, elsewhere = Router.transact, _crash("ELSEWHERE", ("elsewhere",))

    def elsewhere_when_traced(self, txn, trace_hook=None):
        reply = transact(self, txn, trace_hook)
        if trace_hook is None or reply.kind != FATAL_CRASH:
            return reply
        return Reply(FATAL_CRASH, crash=elsewhere)

    monkeypatch.setattr(Router, "transact", elsewhere_when_traced)
    expected = saved["crashes"][0]["fingerprint"]
    argv = ["replay", "--report", str(_written(tmp_path, saved)), "--fingerprint", expected,
            "--corpus", str(corpus_path)]
    assert main(argv) == 2
    capsys.readouterr()
    assert main(argv + ["--schema"]) == 1
    assert capsys.readouterr() == (
        "", "fingerprint mismatch: reproduced %s, expected %s\n" % (fingerprint(elsewhere)[:12], expected[:12])
    )


def test_cli_replay_mismatch_is_an_error(tmp_path, capsys, corpus):
    corpus_path = tmp_path / "corpus.jsonl"
    report_path = tmp_path / "report.json"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    main(
        [
            "fuzz",
            "--policy",
            "semi-valid",
            "--corpus",
            str(corpus_path),
            "--budget",
            "400",
            "--out",
            str(report_path),
        ]
    )
    capsys.readouterr()
    assert main(["replay", "--report", str(report_path), "--fingerprint", "zz", "--corpus", str(corpus_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_a_trace_leaf_past_the_payload(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    header, first, *rest = corpus_path.read_text().splitlines()
    record = json.loads(first)
    leaf = record["trace"]
    while "children" in leaf:
        leaf = leaf["children"][0]
    size = len(record["payload_hex"]) // 2
    leaf["byte_range"] = [size, size + 4]
    corpus_path.write_text("\n".join([header, json.dumps(record, sort_keys=True), *rest]) + "\n")
    capsys.readouterr()
    argv = ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "10",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


# A value an edit can put in a record to have it written as the JSON
# number 1e400, which json.loads reads as float("inf").
_HUGE = "<1e400>"


def _fuzz_on_edited_corpus(tmp_path, capsys, edit, line=1, budget=10) -> tuple[int, str]:
    """Exit code and stderr of a semi-valid fuzz run of budget cases on
    the shipped corpus with one line passed through edit: by default its
    first record, and line 0 is the header.  line may also be a range of
    lines."""
    corpus_path = tmp_path / "corpus.jsonl"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    lines = corpus_path.read_text().splitlines()
    for number in [line] if type(line) is int else line:
        obj = json.loads(lines[number])
        edit(obj)
        lines[number] = json.dumps(obj, sort_keys=True).replace(json.dumps(_HUGE), "1e400")
    corpus_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", str(budget),
            "--out", str(tmp_path / "report.json")]
    code = main(argv)
    assert not (tmp_path / "report.json").exists()
    return code, capsys.readouterr().err


def test_cli_error_for_a_large_malformed_record_is_one_short_line(tmp_path, capsys):
    def edit(record):
        del record["seq"]
        record["payload_hex"] += "00" * 50000

    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
    assert code == 1
    assert err == "error: corpus line 2 has no 'seq'\n"

    def edit(record):
        record["trace"]["children"][0]["byte_range"] = "x" * 50000

    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
    assert code == 1
    assert err == "error: record 0 trace: trace node byte_range must be list, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'\n"


def test_cli_rejects_a_length_prefix_that_disagrees_with_its_leaf(tmp_path, capsys):
    # Record 0 looks up "svc.queue": a STRING leaf over [0, 16) whose
    # prefix declares 9 bytes, padded to 12.
    for declared in (13, 8, -1):
        def edit(record):
            assert record["payload_hex"][:8] == "09000000"
            record["payload_hex"] = struct.pack("<i", declared).hex() + record["payload_hex"][8:]

        code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
        assert code == 1
        assert err == "error: record 0 trace: trace leaf STRING at [0, 16) declares %d bytes\n" % declared


def test_cli_rejects_a_string_leaf_that_is_not_utf8(tmp_path, capsys):
    def edit(record):
        assert record["payload_hex"][:10] == "0900000073"  # "svc.queue"
        record["payload_hex"] = record["payload_hex"][:8] + "ff" + record["payload_hex"][10:]

    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
    assert code == 1
    assert err == "error: record 0 trace: trace leaf STRING at [0, 16) is not UTF-8: invalid start byte\n"


def _set_field(name, value, line=1):
    """An edit that sets one field of the corpus line at line."""
    def edit(obj):
        obj[name] = value

    edit.line = line
    return edit


def _set_first_byte_range(record):
    record["trace"]["children"][0]["byte_range"] = [0, _HUGE]


def _set_trace_byte_range_true(record):
    record["trace"]["byte_range"] = [0, True]


@pytest.mark.parametrize(
    "edit, error",
    [
        (_set_field("seq", _HUGE), "error: corpus line 2 seq must be int, got inf\n"),
        (_set_field("code", _HUGE), "error: record 0 code must be int, got inf\n"),
        (_set_field("offsets", [0, _HUGE]), "error: record 0 offsets must hold only int values, got [0, inf]\n"),
        (_set_first_byte_range, "error: record 0 trace: trace node byte_range must hold only int values, got [0, inf]\n"),
        (_set_field("format_version", True, line=0), "error: corpus header format_version must be int, got True\n"),
        (_set_field("code", 3.0), "error: record 0 code must be int, got 3.0\n"),
        (_set_field("seq", True, line=2), "error: corpus line 3 seq must be int, got True\n"),
        (_set_field("descriptor", None), "error: record 0 descriptor must be str, got None\n"),
        (_set_field("reply_kind", 7), "error: record 0 reply_kind must be str, got 7\n"),
        (_set_trace_byte_range_true, "error: record 0 trace: trace node byte_range must hold only int values, got [0, True]\n"),
    ],
)
def test_cli_rejects_a_corpus_number_too_large_for_an_int(tmp_path, capsys, edit, error):
    """Each field must have its exact JSON type: a number too large for an
    int loads as a float, and a bool, a float or null is no int or str."""
    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit, getattr(edit, "line", 1))
    assert code == 1
    assert err == error


def test_cli_rejects_a_corpus_record_that_replays_otherwise(tmp_path, capsys):
    # Record 0 looks up "svc.queue" with a prefix of 9 inside a 12-byte
    # padded body; a prefix of 12 still ends the leaf, so the lookup now
    # names "svc.queue\0\0\0".  Records 1-5, which target its handle,
    # still name svc.queue, and loading refuses that.  With them renamed
    # too, only replaying record 0 shows that no such service is hosted.
    lookup = "svc.queue\0\0\0"

    def edit(record):
        record["payload_hex"] = struct.pack("<i", 12).hex() + record["payload_hex"][8:]

    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
    assert code == 1
    assert err == "error: record 1 is for 'svc.queue', but its target, handle 1, was looked up as %r\n" % lookup

    def edit_all(record):
        if record["seq"] == 0:
            edit(record)
        else:
            record["descriptor"] = lookup

    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit_all, line=range(1, 7))
    assert code == 1
    assert err == "error: record 0 recorded OK, replayed REJECTED\n"
    # Record 1 adds to the queue.  Code 0 names no method: the router
    # refuses it when the record is replayed, as it would any request.
    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, _set_field("code", 0), line=2)
    assert code == 1
    assert err == "error: record 1 recorded OK, replayed REJECTED\n"


def _reject_open_session_line(record):
    record["code"] = 99


def _move_open_session_handle_line(record):
    record["produced_handles"][0][1] = 4


@pytest.mark.parametrize(
    "edit, checked, unchecked",
    [
        (
            _reject_open_session_line,
            "error: record 8 recorded OK, replayed REJECTED\n",
            "error: support 8 (svc.audio code 99) replied REJECTED\n",
        ),
        (
            _move_open_session_handle_line,
            "error: record 8 replied with no handle at 4\n",
            "error: record 8 replied with no handle at 4\n",
        ),
    ],
)
def test_cli_rejects_a_corpus_whose_session_support_fails(monkeypatch, tmp_path, capsys, edit, checked, unchecked):
    """Record 8 opens the audio session that later records use.  Rejected,
    or with its handle moved, it refuses the corpus; behind the corpus
    check, the first seed that needs it stops the campaign instead."""
    assert _fuzz_on_edited_corpus(tmp_path, capsys, edit, line=9, budget=400) == (1, checked)
    monkeypatch.setattr(harness, "check_replies", lambda prepared: None)
    assert _fuzz_on_edited_corpus(tmp_path, capsys, edit, line=9, budget=400) == (1, unchecked)


def test_cli_rejects_a_corpus_payload_that_is_not_hex(tmp_path, capsys):
    for bad in ("zz" + "00" * 8, "0" * 17, "00 00"):
        def edit(record):
            record["payload_hex"] = bad

        code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: record 0 ") and err.count("\n") == 1
        assert "payload_hex" in err


def test_cli_replay_rejects_a_report_payload_that_is_not_hex(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    report_path = tmp_path / "report.json"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    main(["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "400",
          "--out", str(report_path)])
    report = json.loads(report_path.read_text())
    crash = report["crashes"][0]
    for bad in ("zz", "000"):
        crash["provenance"]["case"]["payload_hex"] = bad
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        argv = ["replay", "--report", str(report_path), "--fingerprint", crash["fingerprint"],
                "--corpus", str(corpus_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: crash provenance is unusable") and err.count("\n") == 1


@pytest.fixture(scope="module")
def saved_campaign(tmp_path_factory):
    """A recorded corpus and a saved semi-valid report, as files."""
    root = tmp_path_factory.mktemp("saved")
    corpus_path, report_path = root / "corpus.jsonl", root / "report.json"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    main(["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "400",
          "--out", str(report_path)])
    return corpus_path, json.loads(report_path.read_text())


_DROP = object()


def test_cli_replay_names_a_saved_policy_it_does_not_know(tmp_path, capsys, saved_campaign):
    corpus_path, saved = saved_campaign
    report = copy.deepcopy(saved)
    crash = report["crashes"][0]
    crash["provenance"]["case"]["policy"] = "BOGUS"
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    argv = ["replay", "--report", str(report_path), "--fingerprint", crash["fingerprint"], "--corpus", str(corpus_path)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: crash provenance is unusable: 'BOGUS' is not a valid Policy\n")


@pytest.mark.parametrize(
    "field, value",
    [
        ("offsets", [1_000_000_000_000]),
        ("offsets", [-4]),
        ("offsets", [1]),
        ("offsets", [0, 0]),
        ("offsets", ["0"]),
        ("offsets", _DROP),
        ("seed_seq", "x"),
        ("seed_seq", 1_000_000),
        ("descriptor", "svc.queue"),
        ("code", 99),
        ("field_path", "ab"),
        ("case_id", "7"),
        ("policy", "BLIND"),
        ("frame_breaking", "yes"),
        ("payload_hex", 5),
        ("slot_overrides", [[4, "pin"]]),
        ("slot_overrides", [[0, "steal"]]),
        ("slot_overrides", [[0, "swap:"]]),
        ("slot_overrides", [[0, "pin"], [0, "pin"]]),
        ("slot_overrides", [0]),
    ],
)
def test_cli_replay_refuses_a_malformed_saved_case(tmp_path, capsys, saved_campaign, field, value):
    """Each edit makes a case no campaign writes; the replay exits 1
    with one error line naming the provenance as unusable, before it
    dispatches anything."""
    corpus_path, saved = saved_campaign
    report = copy.deepcopy(saved)
    # The audio crash's case carries a handle slot at 0 with a pin override.
    crash = next(c for c in report["crashes"] if c["provenance"]["case"]["offsets"])
    case = crash["provenance"]["case"]
    assert case["descriptor"] == "svc.audio" and case["offsets"] == [0]
    if value is _DROP:
        del case[field]
    else:
        case[field] = value
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    argv = ["replay", "--report", str(report_path), "--fingerprint", crash["fingerprint"],
            "--corpus", str(corpus_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: crash provenance is unusable: ") and err.count("\n") == 1, err
    assert "Traceback" not in out + err


def test_cli_rejects_a_corpus_handle_outside_the_writable_range(tmp_path, capsys):
    """Record 10 registers an audio client: its one handle slot is at 0.
    A negative handle there, with a static origin so the dependency graph
    has nothing to say, is refused when the corpus loads."""
    corpus_path = tmp_path / "corpus.jsonl"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    lines = corpus_path.read_text().splitlines()
    record = json.loads(lines[11])
    assert record["seq"] == 10 and record["offsets"] == [0]
    record["consumed_handles"] = [[0, "STATIC:svc.queue"]]
    record["payload_hex"] = struct.pack("<i", -5).hex() + record["payload_hex"][8:]
    lines[11] = json.dumps(record, sort_keys=True)
    corpus_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "1000",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "error: record 10 trace: trace leaf HANDLE at [0, 4) holds handle -5, outside [0, 2147483647]\n"
    assert "Traceback" not in out + err
    assert not (tmp_path / "report.json").exists()


def _refused_by_fuzz_and_replay(tmp_path, capsys, semi_report, edits):
    """stderr of fuzz and of replay on the shipped corpus with the record
    of each seq in edits passed through each of its edits.  Both must
    exit 1 and print nothing to stdout, and fuzz must write no report."""
    corpus_path = tmp_path / "corpus.jsonl"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    lines = corpus_path.read_text().splitlines()
    for seq, record_edits in edits.items():
        record = json.loads(lines[seq + 1])
        assert record["seq"] == seq
        for edit in record_edits:
            edit(record)
        lines[seq + 1] = json.dumps(record, sort_keys=True)
    corpus_path.write_text("\n".join(lines) + "\n")
    report_path = tmp_path / "saved.json"
    save_report(semi_report, report_path)
    capsys.readouterr()
    errors = []
    for argv in (
        ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "400",
         "--out", str(tmp_path / "report.json")],
        ["replay", "--report", str(report_path), "--fingerprint", semi_report.crashes[0].fingerprint,
         "--corpus", str(corpus_path)],
    ):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert not (tmp_path / "report.json").exists()
    return errors


def _misalign_record_10(record):
    assert record["payload_hex"] == "07000000" "07000000" + b"monitor\0".hex()
    record["payload_hex"] = "0000" "07000000" "0000" + record["payload_hex"][8:]
    handle_leaf, string_leaf = record["trace"]["children"]
    handle_leaf["byte_range"], string_leaf["byte_range"] = [2, 6], [8, 20]
    record["trace"]["byte_range"] = [0, 20]
    record["offsets"], record["consumed_handles"] = [2], [[2, 8]]


def test_cli_rejects_a_corpus_record_with_a_misaligned_offset(tmp_path, capsys, semi_report):
    """Record 10 holds handle 7 at 0 and a STRING at [4, 16).  Moved to a
    handle at 2 and a STRING at [8, 20), with its HANDLE leaf and offset
    both at 2, it is refused when the corpus loads, by fuzz and replay alike."""
    errors = _refused_by_fuzz_and_replay(tmp_path, capsys, semi_report, {10: [_misalign_record_10]})
    assert errors == ["error: record 10 offsets: offset 2 is not 4-byte aligned\n"] * 2


@pytest.mark.parametrize(
    "consumed, message",
    [
        (
            [[0, "STATIC:svc.queue"]],
            "record 10 consumes handle 7 as 'STATIC:svc.queue', but no service-manager lookup produced it",
        ),
        ([[0, "STATIC:"]], "record 10 consumes handle 7 as 'STATIC:', but no service-manager lookup produced it"),
        ([], "record 10: consumed_handles cover positions [], offsets are (0,)"),
        ([[0, 8], [0, 8]], "record 10: consumed_handles cover positions [0, 0], offsets are (0,)"),
    ],
    ids=["static-name", "static-prefix-only", "no-pairs", "repeated-pair"],
)
def test_cli_rejects_a_corpus_whose_handle_bookkeeping_lies(tmp_path, capsys, semi_report, consumed, message):
    """Record 10's one handle slot, at 0, holds handle 7, which record 8
    produced.  Bookkeeping that calls it static, or that does not pair
    each offset with one origin, is refused by fuzz and replay alike."""

    def edit(record):
        assert record["consumed_handles"] == [[0, 8]]
        record["consumed_handles"] = consumed

    assert _refused_by_fuzz_and_replay(tmp_path, capsys, semi_report, {10: [edit]}) == ["error: %s\n" % message] * 2


def _set_payload_handle(value):
    def edit(record):
        record["payload_hex"] = struct.pack("<i", value).hex() + record["payload_hex"][8:]
    return edit


def _check_field(name, value):
    def edit(record):
        assert record[name] == value
    return edit


# The audio records that target svc.audio by its handle, 2.
_AUDIO_TARGETS = {seq: [_check_field("target", 2), _set_field("target", 1)] for seq in (7, 8, 10)}


@pytest.mark.parametrize(
    "edits, message",
    [
        (
            {1: [_set_field("descriptor", "svc.audio")]},
            "record 1 is for 'svc.audio', but its target, handle 1, was looked up as 'svc.queue'",
        ),
        (
            {0: [_set_field("descriptor", "svc.queue")]},
            "record 0 is for 'svc.queue', but its target, handle 0, was looked up as 'service_manager'",
        ),
        (
            {10: [_set_payload_handle(1), _set_field("consumed_handles", [[0, "STATIC:svc.audio"]])]},
            "record 10 consumes handle 1 as 'STATIC:svc.audio', but it was looked up as 'svc.queue'",
        ),
        (
            {1: [_set_field("descriptor", "svc.audio")], 10: [_set_field("consumed_handles", [[0, "STATIC:svc.queue"]])]},
            "record 1 is for 'svc.audio', but its target, handle 1, was looked up as 'svc.queue'",
        ),
        (
            {6: [_check_field("produced_handles", [[2, 0]]), _set_field("produced_handles", [[1, 0]])], **_AUDIO_TARGETS},
            "record 7 is for 'svc.audio', but its target, handle 1, was looked up as 'svc.queue'",
        ),
    ],
    ids=["target-descriptor", "service-manager-descriptor", "static-origin", "first-fault-in-seq-order", "second-lookup"],
)
def test_cli_rejects_a_record_that_names_a_static_handle_otherwise(tmp_path, capsys, semi_report, edits, message):
    """Replay resolves a static handle by the name it was looked up under.
    A record that names its static target otherwise, or a STATIC:<name>
    slot origin that names another lookup, would run against one service
    and be tallied under another; fuzz and replay refuse it alike.

    One walk in seq order makes every corpus check, so of two faults the
    one in the earlier record is named.  The first lookup of a handle
    names it: a later lookup of svc.audio as handle 1 would otherwise
    send the queue's records, which ran earlier, to the audio service."""
    assert _refused_by_fuzz_and_replay(tmp_path, capsys, semi_report, edits) == ["error: %s\n" % message] * 2


def _repeat_first_leaf(record):
    children = record["trace"]["children"]
    assert [c["kind"] for c in children] == ["STRING"]
    children.append(dict(children[0]))


def _drop_last_leaf(record):
    children = record["trace"]["children"]
    assert record["descriptor"] == "svc.graphics" and [c["kind"] for c in children] == ["STRING", "I32", "I32"]
    del children[-1]


@pytest.mark.parametrize(
    "edits, message",
    [
        (
            {0: [_repeat_first_leaf]},
            "record 0 trace: leaves do not tile the 16-byte payload: leaf STRING at [0, 16) does not start at 16",
        ),
        ({16: [_drop_last_leaf]}, "record 16 trace: leaves do not tile the 24-byte payload: they end at 20"),
    ],
    ids=["leaf-twice", "leaf-dropped"],
)
def test_cli_rejects_a_trace_that_does_not_tile_its_payload(tmp_path, capsys, semi_report, edits, message):
    """A leaf listed twice would be swept twice, and a leaf left out never
    (the graphics allocation defect hides behind the last I32), so a
    trace whose leaves do not cover the payload end to end is refused."""
    assert _refused_by_fuzz_and_replay(tmp_path, capsys, semi_report, edits) == ["error: %s\n" % message] * 2


def _widen_num_fds(record):
    """Record 16's num_fds I32, at [16, 20), widened over num_ints,
    which is dropped: the leaves still tile the payload."""
    children = record["trace"]["children"]
    assert record["descriptor"] == "svc.graphics" and children[1]["byte_range"] == [16, 20]
    children[1]["byte_range"] = [16, 24]
    del children[2]


def _pad_alpha(record):
    """Record 1's STRING "alpha" with its last pad byte, 11, set to 'A'."""
    assert bytes.fromhex(record["payload_hex"]) == b"\x05\x00\x00\x00alpha\x00\x00\x00"
    record["payload_hex"] = record["payload_hex"][:22] + "41"


def _num_fds_as_bool(record):
    """Record 16's num_fds I32, which holds 2, relabelled BOOL."""
    leaf = record["trace"]["children"][1]
    assert leaf["kind"] == "I32" and bytes.fromhex(record["payload_hex"])[16:20] == b"\x02\x00\x00\x00"
    leaf["kind"] = "BOOL"


@pytest.mark.parametrize(
    "edits, message",
    [
        ({16: [_widen_num_fds]}, "record 16 trace: trace leaf I32 at [16, 24) is 8 bytes wide, not 4"),
        ({1: [_pad_alpha]}, "record 1 trace: trace leaf STRING at [0, 12) pads its value with nonzero bytes"),
        ({16: [_num_fds_as_bool]}, "record 16 trace: trace leaf BOOL at [16, 20) holds 2, not 0 or 1"),
    ],
    ids=["wide-fixed-leaf", "nonzero-padding", "bool-neither-0-nor-1"],
)
def test_cli_rejects_a_leaf_that_does_not_reencode_to_its_own_bytes(tmp_path, capsys, semi_report, edits, message):
    """A seed's cases are made from its re-encoded leaves.  A leaf of the
    right type that re-encodes to other bytes passes every other check
    and replies as recorded, but would change every case of its seed:
    num_ints gone, zero padding, or the BOOL written as 1.  fuzz and
    replay refuse it alike."""
    assert _refused_by_fuzz_and_replay(tmp_path, capsys, semi_report, edits) == ["error: %s\n" % message] * 2


def test_cli_refuses_an_empty_fingerprint(tmp_path, capsys):
    """An empty prefix matches every crash; on a report of one crash it
    would reproduce that crash as if it had been named."""
    report_path = tmp_path / "report.json"
    assert main(["fuzz", "--policy", "empty", "--budget", "6", "--out", str(report_path)]) == 2
    assert len(load_report(report_path).crashes) == 1
    capsys.readouterr()
    assert main(["replay", "--report", str(report_path), "--fingerprint", ""]) == 1
    assert capsys.readouterr() == ("", "error: fingerprint is empty\n")


def _set(*path, value):
    """An edit that sets report[path[0]][path[1]]... to value."""
    def edit(report):
        target = report
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("replay", _set("crashes", 0, "fingerprint", value=5), "crashes[0] fingerprint must be str, got 5"),
        ("report", _set("config", "budget", value="x"), "report config budget must be int, got 'x'"),
        ("report", _set("crashes", 0, "provenance", value=[]), "crashes[0] provenance must be dict, got []"),
        ("report", _set("crashes", 0, "code", value=True), "crashes[0] code must be int, got True"),
        ("replay", _set("crashes", 0, "hit_count", value=False), "crashes[0] hit_count must be int, got False"),
        ("report", _set("executed", value=True), "report executed must be int, got True"),
        ("report", _set("config", "rng_seed", value="1"), "report config rng_seed must be int, got '1'"),
        ("report", _set("config", "corpus_id", value=5), "report config corpus_id must be str or null, got 5"),
        ("report", _set("crashes", 0, "stack_frames", value=["a", 1]), "crashes[0] stack_frames must hold only str values, got ['a', 1]"),
        ("replay", _set("crashes", value=[[]]), "crashes[0] is not an object: []"),
    ],
)
def test_cli_refuses_a_report_field_of_the_wrong_type(tmp_path, capsys, saved_campaign, command, edit, message):
    """Each edit used to end in a traceback from find_crash, reproduce or
    the text report; now the report is refused when it loads."""
    corpus_path, saved = saved_campaign
    report = copy.deepcopy(saved)
    fingerprint_hex = report["crashes"][0]["fingerprint"]
    edit(report)
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    if command == "replay":
        argv = ["replay", "--report", str(report_path), "--fingerprint", fingerprint_hex[:12],
                "--corpus", str(corpus_path)]
    else:
        argv = ["report", "--in", str(report_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "error: unreadable campaign report %s: %s\n" % (report_path, message)
    assert "Traceback" not in out + err


def test_a_per_method_count_of_the_wrong_type_is_refused(tmp_path, saved_campaign):
    report = copy.deepcopy(saved_campaign[1])
    method = sorted(report["per_method"])[0]
    report["per_method"][method]["ok"] = "x"
    with pytest.raises(HarnessError, match=re.escape("report per_method %s must hold only int values" % method)):
        CampaignReport.from_json(report)


def test_cli_names_a_corpus_that_is_not_utf8(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_bytes(b"\xff\xfe" + "{}\n".encode("utf-16-le"))
    report_path = tmp_path / "report.json"
    assert main(["fuzz", "--policy", "empty", "--budget", "1", "--out", str(report_path)]) == 0
    capsys.readouterr()
    for argv in (
        ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "10", "--out", str(tmp_path / "r.json")],
        ["replay", "--report", str(report_path), "--fingerprint", "zz", "--corpus", str(corpus_path)],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: corpus %s is not UTF-8: " % corpus_path) and err.count("\n") == 1, err


def test_cli_rejects_a_corpus_line_nested_too_deeply(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    header, first, *rest = corpus_path.read_text().splitlines()
    trace = json.dumps(json.loads(first)["trace"], sort_keys=True)
    depth = 2000
    opening = '{"kind": "COMPOSITE", "label": "x", "byte_range": [0, 0], "children": ['
    line = first.replace(trace, opening * depth + trace + "]}" * depth)
    assert line != first
    corpus_path.write_text("\n".join([header, line, *rest]) + "\n")
    capsys.readouterr()
    argv = ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "10",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    # The JSON parser refuses the line before Python 3.13, the trace walk on 3.13.
    assert err == "error: corpus line 2 nests too deeply: %r\n" % line[:80]
    assert not (tmp_path / "report.json").exists()

    corpus_path.write_text("\n".join(["[" * depth + "]" * depth, line, *rest]) + "\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    if sys.version_info < (3, 13):
        assert err == "error: corpus header nests too deeply\n"
    else:  # The JSON parser of 3.13 reads 2000 levels.
        assert err == "error: unsupported corpus header: [[[[[[[...]]]]]]]\n"


def test_cli_rejects_a_report_nested_too_deeply(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    report_path.write_text("[" * 5000 + "]" * 5000)
    assert main(["report", "--in", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# -- the report boundary under mutation -------------------------------------------------


def _json_paths(value, path=()):
    """The path of every value inside value, value's own first."""
    yield path
    if type(value) is dict:
        for key, item in value.items():
            yield from _json_paths(item, path + (key,))
    elif type(value) is list:
        for index, item in enumerate(value):
            yield from _json_paths(item, path + (index,))


def _json_type(value) -> str:
    """The JSON type of value, telling an integer (int) from a float."""
    return "array" if type(value) in (list, tuple) else type(value).__name__


class _Boundary:
    """A JSON value that an input file holds, the paths into it, and the
    CLI runs that read the file.

    The file is prefix, then the value's text, then suffix; text is the
    value's text as saved.
    """

    def __init__(self, saved, text: bytes, path, argvs, prefix=b"", suffix=b""):
        self.saved = saved
        self.text = text
        self.paths = list(_json_paths(saved))
        self.objects = [p for p in self.paths if type(self._at(saved, p)) is dict and self._at(saved, p)]
        self.path = path
        self.argvs = argvs
        self.prefix = prefix
        self.suffix = suffix

    @staticmethod
    def _at(value, path):
        for step in path:
            value = value[step]
        return value

    def edited(self, path, edit):
        """A copy of the report with the value at path passed through edit."""
        report = copy.deepcopy(self.saved)
        if not path:
            return edit(report)
        parent = self._at(report, path[:-1])
        parent[path[-1]] = edit(parent[path[-1]])
        return report

    def check(self, data: bytes) -> None:
        """Each command on the file with data as the value's text exits
        0, 1 or 2, with at most one line on stderr and no traceback."""
        self.path.write_bytes(self.prefix + data + self.suffix)
        for argv in self.argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            errors = err.getvalue()
            assert code in (0, 1, 2), (argv[0], code)
            assert errors.count("\n") <= 1 and "Traceback" not in out.getvalue() + errors, errors


@pytest.fixture(scope="module")
def boundary(saved_campaign, tmp_path_factory):
    """A saved semi-valid report, read by report (text and json) and replay."""
    corpus_path, saved = saved_campaign
    path = tmp_path_factory.mktemp("boundary") / "mutated.json"
    fingerprint_hex = saved["crashes"][0]["fingerprint"][:12]
    argvs = [
        ["report", "--in", str(path)],
        ["report", "--in", str(path), "--format", "json"],
        ["replay", "--report", str(path), "--fingerprint", fingerprint_hex, "--corpus", str(corpus_path)],
    ]
    return _Boundary(saved, (canonical_json(saved) + "\n").encode("utf-8"), path, argvs)


@pytest.fixture(scope="module")
def read_inputs(saved_campaign, tmp_path_factory):
    """Each line of the shipped corpus, read by a semi-valid fuzz run, and
    the saved case of a crash with a handle slot, read by replay."""
    corpus_path, saved = saved_campaign
    workdir = tmp_path_factory.mktemp("inputs")
    header, *lines = corpus_path.read_bytes().splitlines()
    path = workdir / "corpus.jsonl"
    argvs = [["fuzz", "--policy", "semi-valid", "--corpus", str(path), "--budget", "50",
              "--out", str(workdir / "report.json")]]
    corpus_lines = [
        _Boundary(json.loads(line), line, path, argvs,
                  prefix=b"\n".join([header, *lines[:index], b""]), suffix=b"\n".join([b"", *lines[index + 1:], b""]))
        for index, line in enumerate(lines)
    ]
    report = copy.deepcopy(saved)
    crash = next(c for c in report["crashes"] if c["provenance"]["case"]["offsets"])
    case = crash["provenance"]["case"]
    crash["provenance"]["case"] = "<case>"
    prefix, suffix = json.dumps(report).encode("utf-8").split(b'"<case>"')
    path = workdir / "report.json"
    argvs = [["replay", "--report", str(path), "--fingerprint", crash["fingerprint"], "--corpus", str(corpus_path)]]
    saved_case = _Boundary(case, json.dumps(case).encode("utf-8"), path, argvs, prefix, suffix)
    return {"corpus line": corpus_lines, "saved case": [saved_case]}


# One value of each JSON type, nested at most one level.  The infinities
# are what the JSON numbers 1e400 and -1e400 load as, and 3.0 is a float
# that int() would take.
_json_swaps = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, 3.0]),
    _json_text,
    st.lists(st.integers() | _json_text, max_size=3),
    st.dictionaries(_json_text, st.integers() | _json_text, max_size=3),
)
_FUZZ_SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _flip_bytes(boundary, data):
    text = bytearray(boundary.text)
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(text) - 1), st.integers(0, 255)), min_size=1, max_size=4))
    for position, byte in flips:
        text[position] = byte
    boundary.check(bytes(text))


def _delete_a_key(boundary, data):
    path = data.draw(st.sampled_from(boundary.objects))
    key = data.draw(st.sampled_from(sorted(boundary._at(boundary.saved, path))))

    def delete(obj):
        del obj[key]
        return obj

    boundary.check(json.dumps(boundary.edited(path, delete)).encode("utf-8"))


def _swap_a_type(boundary, data):
    path = data.draw(st.sampled_from(boundary.paths))
    old = _json_type(boundary._at(boundary.saved, path))
    new = data.draw(_json_swaps.filter(lambda v: _json_type(v) != old))
    boundary.check(json.dumps(boundary.edited(path, lambda _old: new)).encode("utf-8"))


@_FUZZ_SETTINGS
@given(data=st.data())
def test_a_report_with_flipped_bytes_never_ends_in_a_traceback(boundary, data):
    _flip_bytes(boundary, data)


@_FUZZ_SETTINGS
@given(data=st.data())
def test_a_report_with_a_deleted_key_never_ends_in_a_traceback(boundary, data):
    _delete_a_key(boundary, data)


@_FUZZ_SETTINGS
@given(data=st.data())
def test_a_report_with_a_value_of_another_type_never_ends_in_a_traceback(boundary, data):
    _swap_a_type(boundary, data)


@pytest.mark.parametrize("name", ["corpus line", "saved case"])
@_FUZZ_SETTINGS
@given(data=st.data())
def test_an_input_with_flipped_bytes_never_ends_in_a_traceback(read_inputs, name, data):
    _flip_bytes(data.draw(st.sampled_from(read_inputs[name])), data)


@pytest.mark.parametrize("name", ["corpus line", "saved case"])
@_FUZZ_SETTINGS
@given(data=st.data())
def test_an_input_with_a_deleted_key_never_ends_in_a_traceback(read_inputs, name, data):
    _delete_a_key(data.draw(st.sampled_from(read_inputs[name])), data)


@pytest.mark.parametrize("name", ["corpus line", "saved case"])
@_FUZZ_SETTINGS
@given(data=st.data())
def test_an_input_with_a_value_of_another_type_never_ends_in_a_traceback(read_inputs, name, data):
    _swap_a_type(data.draw(st.sampled_from(read_inputs[name])), data)


def test_manifest_error_is_distinct():
    assert issubclass(FingerprintMismatch, HarnessError)
    assert not issubclass(ManifestError, HarnessError)
