"""Replay planning, handle materialization, and the probe-burn guarantee."""

import pytest

from parcelfuzz.harness import FuzzConfig, run_fuzz
from parcelfuzz.mutator import EMPTY, RANDOM_LENGTH_CYCLE, SEMI_VALID, FuzzCase, generate_campaign
from parcelfuzz.parcel import I32_MAX, STRING, handle_at
from parcelfuzz.recorder import CorpusError, DependencyGraph, build_dependency_graph, corpus_digest
from parcelfuzz.replayer import FUZZ_SENDER, ReplaySession, Unreplayable, prepare_corpus, seedless_transaction
from parcelfuzz.router import (
    FATAL_CRASH,
    OK,
    REJECTED,
    SERVICE_MANAGER_DESCRIPTOR,
    SERVICE_MANAGER_HANDLE,
    Service,
    Transaction,
)
from parcelfuzz.services import SERVICE_CLASSES, AudioClient, Client, QueueClient, all_methods


def _seq_of(corpus, descriptor, code):
    for record in corpus:
        if record.descriptor == descriptor and record.code == code:
            return record.seq
    raise LookupError((descriptor, code))


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


@pytest.fixture(scope="module")
def prepared(corpus):
    return prepare_corpus(corpus)


@pytest.fixture()
def audio_seqs(corpus):
    return {
        "open_session": _seq_of(corpus, "svc.audio", 3),
        "ping": next(r.seq for r in corpus if r.descriptor.startswith("<anonymous:")),
        "register": _seq_of(corpus, "svc.audio", 2),
    }


# -- planning ---------------------------------------------------------------------


def test_plan_matches_a_brute_force_transitive_closure(corpus, graph):
    direct = {}
    for edge in graph.edges:
        direct.setdefault(edge.consumer_seq, set()).add(edge.producer_seq)

    def closure(seq):
        out = set()
        stack = [seq]
        while stack:
            for parent in direct.get(stack.pop(), ()):
                if parent not in out:
                    out.add(parent)
                    stack.append(parent)
        return out

    for record in corpus:
        expected = sorted(closure(record.seq))
        assert plan(record.seq, graph) == expected


def test_plan_order_is_topological(corpus, graph):
    for edge in graph.edges:
        assert edge.producer_seq < edge.consumer_seq
    for record in corpus:
        for ancestor in plan(record.seq, graph):
            assert ancestor < record.seq


def test_plan_rejects_unknown_seqs(graph):
    with pytest.raises(CorpusError):
        plan(999, graph)


def test_only_the_audio_scenario_needs_supports(corpus, graph, audio_seqs):
    dependents = {seq for seq in graph.nodes if plan(seq, graph)}
    assert dependents == {audio_seqs["ping"], audio_seqs["register"]}
    assert plan(audio_seqs["ping"], graph) == [audio_seqs["open_session"]]
    assert plan(audio_seqs["register"], graph) == [audio_seqs["open_session"]]


def test_prepared_plans_match_plan_for_every_seed(shuffled_corpus):
    prepared = prepare_corpus(shuffled_corpus)
    graph = build_dependency_graph(shuffled_corpus)
    assert set(prepared.plans) == {r.seq for r in shuffled_corpus}
    for record in shuffled_corpus:
        assert prepared.plans[record.seq] == tuple(plan(record.seq, graph))
    assert sum(1 for p in prepared.plans.values() if p) == 8  # ping + register, four times


def test_records_in_any_order_prepare_and_fuzz_alike(shuffled_corpus):
    """check_replies and the harness walk prepared.records in its order,
    which must be seq order whatever order the caller's list is in.  The
    reports differ only in corpus_id, which hashes the list as given."""
    backwards = list(reversed(shuffled_corpus))
    prepared, reference = prepare_corpus(backwards), prepare_corpus(shuffled_corpus)
    assert list(prepared.records) == list(range(len(shuffled_corpus)))
    assert dict(prepared.static_names) == dict(reference.static_names)
    assert dict(prepared.plans) == dict(reference.plans)
    reports = [
        run_fuzz(FuzzConfig(policy="semi-valid", budget=2000, corpus=records))
        .to_canonical_json()
        .replace(corpus_digest(records), "<corpus_id>")
        for records in (backwards, shuffled_corpus)
    ]
    assert reports[0] == reports[1]


def test_a_prepared_corpus_serves_many_sessions(prepared, audio_seqs):
    for _ in range(2):
        session = ReplaySession(prepared)
        assert session.prepared is prepared
        assert session.ensure_supports(audio_seqs["ping"]) == [audio_seqs["open_session"]]
    with pytest.raises(TypeError):
        prepared.plans[audio_seqs["ping"]] = ()


# -- replay soundness --------------------------------------------------------------


def test_every_seed_replays_clean_on_a_fresh_router(corpus, prepared, replay_seed):
    for record in corpus:
        session = ReplaySession(prepared)
        reply = replay_seed(session, record.seq)
        assert reply.kind == OK, "seq %d (%s code %d) replied %s" % (
            record.seq,
            record.descriptor,
            record.code,
            reply.kind,
        )


def test_one_session_replays_the_whole_corpus_in_order(corpus, prepared, replay_seed):
    session = ReplaySession(prepared)
    for record in corpus:
        assert replay_seed(session, record.seq).kind == OK


# -- the probe burn ------------------------------------------------------------------


def test_live_session_handle_differs_from_the_recorded_one(prepared, audio_seqs):
    session = ReplaySession(prepared)
    session.ensure_supports(audio_seqs["ping"])
    (recorded,) = session.live
    live = session.live[recorded]
    assert live != recorded
    assert live == recorded + 1  # exactly one handle burned up front


# -- support bookkeeping ---------------------------------------------------------------


def test_ensure_supports_runs_each_ancestor_once(prepared, audio_seqs):
    session = ReplaySession(prepared)
    first = session.ensure_supports(audio_seqs["ping"])
    assert first == [audio_seqs["open_session"]]
    assert session.ensure_supports(audio_seqs["ping"]) == []
    assert session.ensure_supports(audio_seqs["register"]) == []


def test_support_failure_is_unreplayable_with_the_culprit_seq(corpus, audio_seqs):
    broken = [
        r._replace(code=99) if r.seq == audio_seqs["open_session"] else r
        for r in corpus
    ]
    session = ReplaySession(prepare_corpus(broken))
    with pytest.raises(Unreplayable) as info:
        session.ensure_supports(audio_seqs["ping"])
    assert info.value.support_seq == audio_seqs["open_session"]
    assert "REJECTED" in str(info.value)


def test_a_support_reply_without_its_recorded_handle_is_unreplayable(corpus, audio_seqs):
    # open_session's reply holds the session handle at 0 and an int at 4.
    for pos in (4, 8, -1):
        broken = [
            r._replace(produced_handles=((r.produced_handles[0][0], pos),))
            if r.seq == audio_seqs["open_session"] else r
            for r in corpus
        ]
        session = ReplaySession(prepare_corpus(broken))
        with pytest.raises(Unreplayable, match="replied with no handle at %d" % pos) as info:
            session.ensure_supports(audio_seqs["ping"])
        assert info.value.support_seq == audio_seqs["open_session"]


# -- materialization -------------------------------------------------------------------


def test_unmutated_case_gets_the_live_handle(corpus, audio_seqs, prepared):
    register = next(r for r in corpus if r.seq == audio_seqs["register"])
    case = FuzzCase(
        1,
        SEMI_VALID,
        register.descriptor,
        register.code,
        register.payload,
        register.offsets,
        seed_seq=register.seq,
        field_path=(0,),
        mutation_id="plus_one",
    )
    session = ReplaySession(prepared)
    txn = session.prepare(case)
    slot = handle_at(txn.data.buffer, 0)
    recorded = handle_at(register.payload, 0)
    assert slot == session.live[recorded]
    assert slot != recorded
    assert session.router.transact(txn).kind == OK


def test_pin_directive_keeps_the_mutated_slot_bytes(semi_valid_case, corpus, audio_seqs, prepared):
    register = next(r for r in corpus if r.seq == audio_seqs["register"])
    case = semi_valid_case(register, (0,), "huge_handle", case_id=1)
    session = ReplaySession(prepared)
    txn = session.prepare(case)
    assert handle_at(txn.data.buffer, 0) == I32_MAX


def test_zero_handle_pin_survives_too(semi_valid_case, corpus, audio_seqs, prepared):
    register = next(r for r in corpus if r.seq == audio_seqs["register"])
    case = semi_valid_case(register, (0,), "zero_handle", case_id=1)
    session = ReplaySession(prepared)
    txn = session.prepare(case)
    assert handle_at(txn.data.buffer, 0) == 0


def test_swap_directive_resolves_the_other_services_live_handle(semi_valid_case, corpus, audio_seqs, prepared):
    register = next(r for r in corpus if r.seq == audio_seqs["register"])
    case = semi_valid_case(register, (0,), "cross_service_swap", case_id=1)
    session = ReplaySession(prepared)
    txn = session.prepare(case)
    assert handle_at(txn.data.buffer, 0) == session.router.get_service("svc.queue")


def test_materialize_without_supports_has_no_live_mapping(corpus, audio_seqs, prepared):
    register = next(r for r in corpus if r.seq == audio_seqs["register"])
    case = FuzzCase(
        1,
        SEMI_VALID,
        register.descriptor,
        register.code,
        register.payload,
        register.offsets,
        seed_seq=register.seq,
        field_path=(0,),
        mutation_id="plus_one",
    )
    with pytest.raises(Unreplayable):
        ReplaySession(prepared).materialize(case)


def test_unknown_static_descriptor_is_unreplayable(prepared):
    case = FuzzCase(1, EMPTY, "svc.ghost", 1, b"", ())
    with pytest.raises(Unreplayable):
        ReplaySession(prepared).prepare(case)


def test_empty_policy_case_targets_the_named_service(prepared):
    case = FuzzCase(1, EMPTY, "svc.queue", 2, b"", ())
    session = ReplaySession(prepared)
    txn = session.prepare(case)
    assert txn.target_handle == session.router.get_service("svc.queue")
    assert session.router.transact(txn).kind == OK


# -- static resolution ------------------------------------------------------------------


def test_static_descriptors_are_recovered_from_manager_records(prepared):
    assert dict(prepared.static_names) == {
        0: "service_manager",
        1: "svc.queue",
        2: "svc.audio",
        3: "svc.bluetooth",
        4: "svc.view",
        5: "svc.graphics",
        6: "svc.activity",
    }


def test_resolve_static_answers_by_name_and_manager_is_special(prepared):
    session = ReplaySession(prepared)
    assert session.resolve_static("svc.view") == session.router.get_service("svc.view")
    assert session.resolve_static("service_manager") == 0
    with pytest.raises(Unreplayable):
        session.resolve_static("svc.ghost")


def test_every_replayed_manager_lookup_returns_what_resolve_static_gives(corpus, prepared, replay_seed):
    # Why a session needs no cache of static handles: a lookup replayed
    # anywhere in a session returns the handle resolving the name gives.
    session = ReplaySession(prepared)
    lookups = 0
    for record in corpus:
        reply = replay_seed(session, record.seq)
        if record.descriptor == "service_manager":
            name = record.parcel().read_value(STRING)
            for _recorded, pos in record.produced_handles:
                assert handle_at(reply.payload.buffer, pos) == session.resolve_static(name)
                lookups += 1
    assert lookups == 6


def test_a_seedless_case_sends_without_a_session_what_a_session_sends(prepared):
    # Every EMPTY case, then two turns of the RANDOM length cycle.
    budget = len(all_methods()) * (1 + 2 * len(RANDOM_LENGTH_CYCLE))
    kinds = set()
    for case in generate_campaign((), ["empty", "random"], budget, 1):
        router, txn = seedless_transaction(case)
        session = ReplaySession(prepared)
        expected = session.prepare(case)
        assert txn.data.buffer == expected.data.buffer
        assert (txn.target_handle, txn.code, txn.data.offsets, txn.sender_id) == (
            expected.target_handle, expected.code, expected.data.offsets, expected.sender_id
        )
        # The probe handle is burnt on both routers.
        assert router.export(Service()) == session.router.export(Service()) == session.probe_handle + 1
        # Both dispatch alike: same reply, crash and logged edge.
        reply, expected_reply = router.transact(txn), session.router.transact(expected)
        assert (reply.kind, reply.message, reply.crash) == (expected_reply.kind, expected_reply.message, expected_reply.crash)
        if reply.kind == OK:
            assert (reply.payload.buffer, reply.payload.offsets) == (expected_reply.payload.buffer, expected_reply.payload.offsets)
        assert router.edges == session.router.edges == [(FUZZ_SENDER, case.descriptor, case.code)]
        kinds.add(reply.kind)
    # The comparison covers crashes and refusals, not only accepted cases.
    assert kinds == {OK, REJECTED, FATAL_CRASH}


def test_seedless_transaction_builds_every_field_of_its_transaction():
    # It builds the Transaction positionally, which skips its defaults, and
    # takes the target from the host table; keywords and the router agree.
    for case in generate_campaign((), ["empty", "random"], 3 * len(all_methods()), 1):
        router, txn = seedless_transaction(case)
        assert type(txn) is Transaction and len(txn) == len(Transaction._fields)
        assert txn == Transaction(
            target_handle=router.get_service(case.descriptor), code=case.code, data=txn.data, sender_id=FUZZ_SENDER
        )
        assert (txn.data.buffer, txn.data.offsets, txn.data.cursor) == (case.payload, [], 0)


def test_a_seedless_case_off_the_host_table_resolves_as_a_session_does(prepared):
    # A name the table lacks goes the way ReplaySession.resolve_static goes:
    # the service manager sits at its reserved handle, and an unhosted
    # service is Unreplayable with the same text.
    manager = FuzzCase(1, EMPTY, SERVICE_MANAGER_DESCRIPTOR, 1, b"", ())
    _router, txn = seedless_transaction(manager)
    assert txn.target_handle == SERVICE_MANAGER_HANDLE == ReplaySession(prepared).prepare(manager).target_handle
    ghost = FuzzCase(1, EMPTY, "svc.ghost", 1, b"", ())
    for build in (seedless_transaction, ReplaySession(prepared).prepare):
        with pytest.raises(Unreplayable, match=r"^static prerequisite 'svc\.ghost' is not hosted$") as caught:
            build(ghost)
        assert caught.value.support_seq is None


def test_handle_numbering_hosted_then_probe_then_exports(prepared):
    session = ReplaySession(prepared)
    for handle, cls in enumerate(SERVICE_CLASSES, 1):
        assert session.router.get_service(cls.DESCRIPTOR) == handle
    assert session.probe_handle == 7
    session_handle, _index = AudioClient(Client(session.router)).open_session()
    assert session_handle == 8


def test_service_state_never_crosses_sessions(prepared):
    first = QueueClient(Client(ReplaySession(prepared).router))
    assert first.add("left behind")
    assert first.peek() == "left behind"
    assert QueueClient(Client(ReplaySession(prepared).router)).peek() == ""
