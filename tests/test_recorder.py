"""Recording layer: trace fidelity, handle bookkeeping, the dependency
graph, and corpus persistence.

The corpus fixture (conftest) is the full shipped scenario set; several
tests lean on its exact shape, which is stable by construction: scenario
order is fixed and every wrapper call is deterministic.
"""

import pytest

from parcelfuzz.parcel import Kind, handle_at
from parcelfuzz.recorder import (
    SCENARIOS,
    CorpusError,
    RecordingAborted,
    RecordingClient,
    SeedRecord,
    TraceBuilder,
    TraceNode,
    build_dependency_graph,
    corpus_digest,
    corpus_text,
    coverage_gaps,
    load_corpus,
    record_session,
    save_corpus,
    scenario_names,
)
from parcelfuzz.services import fresh_router


# -- corpus shape ---------------------------------------------------------------


def test_corpus_shape(corpus):
    assert len(corpus) == 19
    assert [r.seq for r in corpus] == list(range(19))
    assert all(r.reply_kind == "OK" for r in corpus)
    assert {r.scenario for r in corpus} == set(SCENARIOS)


def test_every_registry_method_is_exercised(corpus):
    assert coverage_gaps(corpus) == []


def test_scenario_names_offer_all():
    names = scenario_names()
    assert "all" in names and len(names) == 7


def test_unknown_scenario_is_refused():
    with pytest.raises(ValueError):
        record_session(["no_such_thing"])


# -- trace fidelity ----------------------------------------------------------------


def test_reader_traces_match_writer_logs_exactly():
    """What each service's reads traced is byte-for-byte what the client wrote."""
    client = RecordingClient(fresh_router())
    for name, scenario in SCENARIOS.items():
        client.scenario = name
        scenario(client)
    assert len(client.records) == len(client.writer_logs) == 19
    for record, writer_log in zip(client.records, client.writer_logs):
        traced = [(Kind(leaf.kind), leaf.start, leaf.end) for leaf in record.trace.iter_leaves()]
        assert traced == writer_log, "trace diverged on record %d" % record.seq


def test_traces_tile_their_payloads(corpus):
    for record in corpus:
        leaves = list(record.trace.iter_leaves())
        cursor = 0
        for leaf in leaves:
            assert leaf.start == cursor
            assert leaf.end > leaf.start or leaf.end == leaf.start
            cursor = leaf.end
        assert cursor == len(record.parcel())
        handle_positions = [leaf.start for leaf in leaves if leaf.kind == Kind.HANDLE.value]
        assert tuple(handle_positions) == record.offsets


def test_trace_roots_are_request_composites(corpus):
    for record in corpus:
        assert not record.trace.is_leaf
        assert record.trace.label == "request"
        assert record.trace.byte_range == (0, len(record.parcel()))


def test_a_composite_whose_first_child_is_a_composite_starts_at_its_first_read():
    builder = TraceBuilder()
    builder.on_leaf(Kind.I32, 0, 4)
    builder.on_leaf(Kind.I32, 4, 8)
    builder.enter_composite("outer")
    builder.enter_composite("inner")
    builder.on_leaf(Kind.I32, 8, 12)
    builder.exit_composite()
    builder.on_leaf(Kind.I32, 12, 16)
    builder.exit_composite()
    root = builder.finish()
    outer = root.children[2]
    assert (outer.label, outer.byte_range) == ("outer", (8, 16))
    assert outer.children[0].byte_range == (8, 12)
    assert root.byte_range == (0, 16)


# -- handle bookkeeping --------------------------------------------------------------


def _by_scenario(corpus, name):
    return [r for r in corpus if r.scenario == name]


def test_manager_lookups_record_static_production(corpus):
    lookups = [r for r in corpus if r.descriptor == "service_manager"]
    assert len(lookups) == 6
    for record in lookups:
        assert record.target == 0
        assert record.consumed_handles == ()
        (value, pos) = record.produced_handles[0]
        assert pos == 0 and value > 0


def test_audio_scenario_bookkeeping(corpus):
    audio = _by_scenario(corpus, "audio_callback")
    lookup, play, open_session, ping, register = audio
    assert play.consumed_handles == ()
    # open_session replied with a fresh session handle at payload start
    (session_value, reply_pos) = open_session.produced_handles[0]
    assert reply_pos == 0
    # the ping targeted that dynamic handle
    assert ping.target == session_value
    assert ping.payload == b""
    # register_client embedded it in a declared slot, attributed to open_session
    (pos, origin) = register.consumed_handles[0]
    assert origin == open_session.seq
    assert handle_at(register.parcel().buffer, pos) == session_value


# -- dependency graph -----------------------------------------------------------------


def test_graph_edges_capture_dynamic_flow_only(corpus, graph):
    audio = _by_scenario(corpus, "audio_callback")
    _, _, open_session, ping, register = audio
    got = {(e.producer_seq, e.consumer_seq) for e in graph.edges}
    assert got == {(open_session.seq, ping.seq), (open_session.seq, register.seq)}
    for edge in graph.edges:
        assert edge.producer_seq < edge.consumer_seq


def test_graph_nodes_are_all_seqs(corpus, graph):
    assert graph.nodes == tuple(range(len(corpus)))


def test_graph_rejects_gapped_seqs(corpus):
    tampered = [corpus[-1]._replace(seq=40)]
    with pytest.raises(CorpusError):
        build_dependency_graph(list(corpus[:-1]) + tampered)


def test_graph_rejects_false_attribution(corpus):
    register = _by_scenario(corpus, "audio_callback")[-1]
    (pos, _origin) = register.consumed_handles[0]
    lying = register._replace(consumed_handles=((pos, 2),))
    records = [lying if r.seq == register.seq else r for r in corpus]
    with pytest.raises(CorpusError):
        build_dependency_graph(records)


def test_graph_rejects_unattributed_target(corpus):
    ping = _by_scenario(corpus, "audio_callback")[3]
    lost = ping._replace(target=999)
    records = [lost if r.seq == ping.seq else r for r in corpus]
    with pytest.raises(CorpusError):
        build_dependency_graph(records)


# -- persistence ------------------------------------------------------------------------


def test_corpus_round_trips_through_jsonl(tmp_path, corpus):
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    loaded = load_corpus(path)
    assert loaded == list(corpus)
    assert corpus_digest(loaded) == corpus_digest(corpus)


def test_saved_corpus_text_is_pinned(tmp_path, corpus):
    """save_corpus writes the shipped corpus byte for byte as the
    hex-carrying data model of earlier versions did."""
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    assert path.read_text(encoding="utf-8") == corpus_text(corpus)
    assert corpus_digest(load_corpus(path)) == "5062513bed9b0b3a0490f7cea319c990ca7cf1fba422d1877e221fdc0f4691d6"


def test_recording_is_deterministic(tmp_path, corpus):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_corpus(corpus, first)
    save_corpus(record_session(["all"]), second)
    assert first.read_bytes() == second.read_bytes()


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format_version": 99}\n')
    with pytest.raises(CorpusError):
        load_corpus(path)


def test_load_rejects_malformed_records(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"corpus_manifest_ref": "corpus-manifest-v1", "format_version": 1}\n\n{"seq": "x"}\n'
    )
    with pytest.raises(CorpusError, match=r"^corpus line 3 seq must be int, got 'x'$"):
        load_corpus(path)


def test_malformed_record_errors_name_the_record_and_the_field(corpus):
    good = corpus[3].to_json()
    cases = (
        ({"seq": "x"}, "seed record seq must be int, got 'x'"),
        ({"seq": None}, "seed record seq must be int, got None"),
        ({"seq": True}, "seed record seq must be int, got True"),
        ({"code": 3.0}, "record 3 code must be int, got 3.0"),
        ({"descriptor": None}, "record 3 descriptor must be str, got None"),
        ({"reply_kind": 7}, "record 3 reply_kind must be str, got 7"),
        ({"payload_hex": "abc"}, "record 3 payload_hex is not hex: Odd-length string"),
        ({"offsets": [0, "x"]}, "record 3 offsets must hold only int values, got [0, 'x']"),
        (
            {"consumed_handles": [[0, "nowhere"]]},
            "record 3 consumed_handles must hold [int, int or 'STATIC:<descriptor>'] pairs, got [0, 'nowhere']",
        ),
        ({"produced_handles": [[1, True]]}, "record 3 produced_handles must hold [int, int] pairs, got [1, True]"),
    )
    for change, message in cases:
        with pytest.raises(CorpusError) as info:
            SeedRecord.from_json({**good, **change})
        assert str(info.value) == message
    with pytest.raises(CorpusError) as info:
        SeedRecord.from_json({**good, "code": "x" * 100000})
    assert str(info.value).startswith("record 3 code must be int, got 'xxx")
    assert len(str(info.value)) <= 110
    for key in ("seq", "descriptor", "trace", "reply_kind"):
        obj = dict(good)
        del obj[key]
        with pytest.raises(CorpusError) as info:
            SeedRecord.from_json(obj)
        assert str(info.value) == ("seed record has no 'seq'" if key == "seq" else "record 3 has no %r" % key)
    with pytest.raises(CorpusError) as info:
        SeedRecord.from_json([good])
    assert str(info.value).startswith("seed record is not an object: [{")
    assert len(str(info.value)) <= 110


def test_seed_record_json_round_trip(corpus, shuffled_corpus):
    for record in list(corpus) + list(shuffled_corpus):
        assert SeedRecord.from_json(record.to_json()) == record


def test_records_whose_trace_misdescribes_the_payload_are_rejected(corpus):
    record = next(r for r in corpus if r.offsets)
    size = len(record.payload)

    def first_leaf(obj):
        while "children" in obj:
            obj = obj["children"][0]
        return obj

    past_end = record.to_json()
    first_leaf(past_end["trace"])["byte_range"] = [size, size + 4]
    straddling = record.to_json()
    first_leaf(straddling["trace"])["byte_range"] = [size - 2, size]
    unbacked_offset = record.to_json()
    unbacked_offset["offsets"].append(size - 4)
    for obj in (past_end, straddling, unbacked_offset):
        with pytest.raises(CorpusError):
            SeedRecord.from_json(obj)


def test_trace_node_json_validation():
    payload = bytes(4)
    with pytest.raises(CorpusError):
        TraceNode.from_json({"kind": "WAT", "byte_range": [0, 4]}, payload, [])
    with pytest.raises(CorpusError):
        TraceNode.from_json(
            {
                "kind": "I32",
                "byte_range": [0, 4],
                "children": [{"kind": "I32", "byte_range": [0, 4]}],
            },
            payload,
            [],
        )
    with pytest.raises(CorpusError):
        TraceNode.from_json({"nope": 1}, payload, [])
    with pytest.raises(CorpusError, match=r"^trace node label must be str, got None$"):
        TraceNode.from_json({"kind": "I32", "label": None, "byte_range": [0, 4]}, payload, [])
    with pytest.raises(CorpusError, match=r"^trace node byte_range must hold only int values, got \[0, inf\]$"):
        TraceNode.from_json({"kind": "I32", "byte_range": [0, float("inf")]}, payload, [])
    with pytest.raises(CorpusError, match=r"^trace leaf STRING at \[0, 8\) is not UTF-8"):
        TraceNode.from_json({"kind": "STRING", "byte_range": [0, 8]}, b"\x02\x00\x00\x00\xff\xfe\x00\x00", [])


# -- failure handling ----------------------------------------------------------------


def test_recording_aborted_names_the_scenario(monkeypatch):
    def broken(client):
        raise RuntimeError("wrapper refused")

    monkeypatch.setitem(SCENARIOS, "broken_scenario", broken)
    with pytest.raises(RecordingAborted) as exc_info:
        record_session(["queue_session", "broken_scenario"])
    err = exc_info.value
    assert err.scenario == "broken_scenario"
    assert err.records_kept == 6
    assert isinstance(err.cause, RuntimeError)
