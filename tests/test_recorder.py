"""Recording layer: trace fidelity, handle bookkeeping, the dependency
graph, and corpus persistence.

The corpus fixture (conftest) is the full shipped scenario set; several
tests lean on its exact shape, which is stable by construction: scenario
order is fixed and every wrapper call is deterministic.
"""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcelfuzz.parcel import (
    BOOL,
    BYTES,
    COMPOSITE,
    F64,
    HANDLE,
    I32,
    I32_MAX,
    I32_MIN,
    I64,
    I64_MAX,
    I64_MIN,
    STRING,
    Parcel,
    handle_at,
)
from parcelfuzz.mutator import decompose
from parcelfuzz.recorder import (
    SCENARIOS,
    STATIC_PREFIX,
    CorpusError,
    RecordingAborted,
    SeedRecord,
    TraceBuilder,
    TraceNode,
    _refuse_noncanonical,
    build_dependency_graph,
    corpus_digest,
    corpus_text,
    load_corpus,
    record_session,
    save_corpus,
    scenario_names,
)
from parcelfuzz.router import FATAL_CRASH, Router, Service, Transaction
from parcelfuzz.services import all_methods, fresh_router

from conftest import KeepingClient, rebuild


# -- corpus shape ---------------------------------------------------------------


def test_corpus_shape(corpus):
    assert len(corpus) == 19
    assert [r.seq for r in corpus] == list(range(19))
    assert all(r.reply_kind == "OK" for r in corpus)
    assert {r.scenario for r in corpus} == set(SCENARIOS)


def test_every_registry_method_is_exercised(corpus):
    assert {(d, c) for d, c, _name in all_methods()} <= {(r.descriptor, r.code) for r in corpus}


def test_scenario_names_offer_all():
    names = scenario_names()
    assert "all" in names and len(names) == 7


def test_unknown_scenario_is_refused():
    with pytest.raises(ValueError):
        record_session(["no_such_thing"])


# -- trace fidelity ----------------------------------------------------------------


def test_reader_traces_match_writer_logs_exactly(trace_leaves, parcel_writes):
    """What each service's reads traced is byte-for-byte what the client wrote."""
    client = KeepingClient(fresh_router())
    for name, scenario in SCENARIOS.items():
        client.scenario = name
        scenario(client)
    assert len(client.records) == len(client.sent) == 19
    for record, data in zip(client.records, client.sent):
        traced = [(leaf.kind, leaf.start, leaf.end) for leaf in trace_leaves(record.trace)]
        assert traced == parcel_writes[data], "trace diverged on record %d" % record.seq


def test_traces_tile_their_payloads(trace_leaves, corpus):
    for record in corpus:
        leaves = trace_leaves(record.trace)
        cursor = 0
        for leaf in leaves:
            assert leaf.start == cursor
            assert leaf.end > leaf.start or leaf.end == leaf.start
            cursor = leaf.end
        assert cursor == len(record.parcel())
        handle_positions = [leaf.start for leaf in leaves if leaf.kind == HANDLE]
        assert tuple(handle_positions) == record.offsets


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(sorted(SCENARIOS)), min_size=1, max_size=8))
def test_every_recorded_seed_is_canonical(names):
    """The writer's half of the mutator's invariant: whatever scenarios a
    session runs, in whatever order and how often, each record it makes
    passes the mutator's check, and is what the reference encoder writes
    for its decomposed leaves."""
    for record in record_session(names):
        _refuse_noncanonical(record)
        parcel, _spans = rebuild(decompose(record))
        assert (parcel.buffer, tuple(parcel.offsets)) == (record.payload, record.offsets), record.seq


def test_trace_roots_are_request_composites(corpus):
    for record in corpus:
        assert not record.trace.is_leaf
        assert record.trace.label == "request"
        assert (record.trace.start, record.trace.end) == (0, len(record.parcel()))


def test_a_composite_whose_first_child_is_a_composite_starts_at_its_first_read():
    builder = TraceBuilder()
    builder.on_leaf(I32, 0, 4)
    builder.on_leaf(I32, 4, 8)
    builder.enter_composite("outer")
    builder.enter_composite("inner")
    builder.on_leaf(I32, 8, 12)
    builder.exit_composite()
    builder.on_leaf(I32, 12, 16)
    builder.exit_composite()
    root = builder.finish()
    outer = root.children[2]
    assert (outer.label, outer.start, outer.end) == ("outer", 8, 16)
    assert (outer.children[0].start, outer.children[0].end) == (8, 12)
    assert (root.start, root.end) == (0, 16)


# A read tree: a leaf is its width in bytes, a composite the tuple of its
# children, which may be empty or begin with a composite.
_read_trees = st.lists(
    st.recursive(st.sampled_from([4, 8]), lambda kids: st.lists(kids, max_size=4).map(tuple), max_leaves=40),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_read_trees)
def test_the_builder_matches_an_oracle_over_the_whole_event_sequence(tree):
    """Replay the hook events of a read tree; each composite must start at
    the end of the last leaf read before its enter and end at the end of
    the last leaf read before its exit (0 if there is none), with its
    children in read order."""
    events = []  # ("leaf", start, end), ("enter", label) or ("exit",)

    def end_before(index):
        return max((e[2] for e in events[:index] if e[0] == "leaf"), default=0)

    def emit(item):
        """Append item's events; return a leaf's node, or a composite's
        enter index, exit index and children."""
        if isinstance(item, int):
            start = end_before(len(events))
            events.append(("leaf", start, start + item))
            return TraceNode("I32" if item == 4 else "I64", "", start, start + item)
        enter = len(events)
        events.append(("enter", "c%d" % enter))
        children = [emit(child) for child in item]
        events.append(("exit",))
        return enter, len(events) - 1, children

    def expected(shape):
        if isinstance(shape, TraceNode):
            return shape
        enter, exit_, children = shape
        label = events[enter][1]
        return TraceNode("COMPOSITE", label, end_before(enter), end_before(exit_), tuple(map(expected, children)))

    shapes = [emit(item) for item in tree]
    builder = TraceBuilder()
    for event in events:
        if event[0] == "leaf":
            builder.on_leaf(I32 if event[2] - event[1] == 4 else I64, event[1], event[2])
        elif event[0] == "enter":
            builder.enter_composite(event[1])
        else:
            builder.exit_composite()
    root = TraceNode("COMPOSITE", "request", 0, end_before(len(events)), tuple(map(expected, shapes)))
    assert builder.finish() == root


def test_a_decoder_stopped_by_the_recursion_limit_keeps_its_trace():
    """Every exit still arrives when the interpreter's recursion limit
    unwinds a traced decoder, so the nested composites all stay in the
    trace, each holding the read made inside it."""

    class Runaway(Service):
        def handle_transaction(self, code, data, ctx):
            def descend():
                with data.composite("level"):
                    data.read_value(I32)
                    descend()

            descend()

    router = Router()
    builder = TraceBuilder()
    reply = router.transact(Transaction(router.export(Runaway()), 1, Parcel(bytes(40000))), trace_hook=builder)
    assert reply.kind == FATAL_CRASH and reply.crash.detail == "host recursion limit"
    (node,) = builder.finish().children
    depth = 1
    while len(node.children) == 2:
        node, depth = node.children[1], depth + 1
    assert depth > 100
    assert node.children in ((), (TraceNode("I32", "", 4 * depth - 4, 4 * depth),))


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


def _dumped_corpus_text(records) -> str:
    """The corpus text as json.dumps writes each line: the oracle that
    corpus_text must match byte for byte."""
    header = {"format_version": 1, "corpus_manifest_ref": "corpus-manifest-v1"}
    lines = [json.dumps(header, sort_keys=True)] + [json.dumps(r.to_json(), sort_keys=True) for r in records]
    return "\n".join(lines) + "\n"


def _copied_trace(node):
    """node as an equal tree of distinct TraceNode objects."""
    return TraceNode(node.kind, node.label, node.start, node.end, tuple(map(_copied_trace, node.children)))


# Characters json.dumps writes as they are, and ones it escapes: control
# characters, quote and backslash, non-ASCII, astral and a lone surrogate.
_CHARACTERS = 'a~ /\x00\x1f\x7f"\\\u2028\xe9\U0001f600'
_text = st.text(st.sampled_from(_CHARACTERS + "\ud800"), max_size=6)
_leaf_values = {
    I32: st.integers(I32_MIN, I32_MAX),
    I64: st.integers(I64_MIN, I64_MAX),
    F64: st.floats(),
    BOOL: st.booleans(),
    STRING: st.text(st.sampled_from(_CHARACTERS), max_size=6),
    BYTES: st.binary(max_size=6),
    HANDLE: st.integers(0, I32_MAX),
}
# A trace shape: a leaf is (kind, value, label), a composite (label, children).
_leaf_shapes = st.sampled_from(sorted(_leaf_values)).flatmap(lambda kind: st.tuples(st.just(kind), _leaf_values[kind], _text))
_trace_shapes = st.recursive(_leaf_shapes, lambda children: st.tuples(_text, st.lists(children, max_size=4)), max_leaves=10)


def _written_trace(shape, parcel, draw):
    """Write shape's leaves to parcel in order; returns its TraceNode.  A
    composite's byte_range is any pair of ints, as the loader allows."""
    if len(shape) == 3:
        kind, value, label = shape
        start = len(parcel)
        if kind is HANDLE:
            parcel.write_handle(value)
        else:
            parcel.write_value(kind, value)
        return TraceNode(kind, label, start, len(parcel))
    label, shapes = shape
    children = tuple(_written_trace(child, parcel, draw) for child in shapes)
    return TraceNode(COMPOSITE, label, draw(st.integers()), draw(st.integers()), children)


@st.composite
def _loadable_records(draw):
    parcel = Parcel()
    trace = _written_trace(draw(_trace_shapes), parcel, draw)
    origins = st.integers() | _text.map(lambda name: STATIC_PREFIX + name)
    return SeedRecord(
        seq=draw(st.integers()),
        scenario=draw(_text),
        descriptor=draw(_text),
        code=draw(st.integers()),
        target=draw(st.integers()),
        payload=parcel.buffer,
        offsets=tuple(parcel.offsets),
        trace=trace,
        consumed_handles=tuple((position, draw(origins)) for position in parcel.offsets),
        produced_handles=tuple(draw(st.lists(st.tuples(st.integers(), st.integers()), max_size=3))),
        reply_kind=draw(_text),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_corpus_text_writes_each_loadable_record_as_json_dumps_does(tmp_path_factory, data):
    """Records the loader accepts, some repeated with their trace object
    shared and some with an equal trace of distinct objects: corpus_text
    writes each line as json.dumps(sort_keys=True) does, and the file
    loads back to the same records."""
    records = data.draw(st.lists(_loadable_records(), min_size=1, max_size=4))
    for record in data.draw(st.lists(st.sampled_from(records), max_size=4)):
        shared = data.draw(st.booleans())
        records.append(record if shared else record._replace(trace=_copied_trace(record.trace)))
    text = corpus_text(records)
    assert text == _dumped_corpus_text(records)
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    save_corpus(records, path)
    assert load_corpus(path) == records


def test_corpus_text_of_the_recorded_corpora_is_as_json_dumps_writes_it(tmp_path, corpus, shuffled_corpus):
    """The shipped corpus and the four-copy one, as recorded (a trace
    object per record) and as loaded (one per repeated seed)."""
    for records in (corpus, shuffled_corpus):
        save_corpus(records, tmp_path / "corpus.jsonl")
        loaded = load_corpus(tmp_path / "corpus.jsonl")
        assert corpus_text(records) == corpus_text(loaded) == _dumped_corpus_text(records)


def test_corpus_text_writes_the_deepest_trace_that_loads(tmp_path, corpus):
    """A trace as deep as a corpus file can hold (see
    test_the_deepest_trace_loads_twice_and_one_level_deeper_is_refused)
    is written without recursion, as json.dumps writes it with room to
    recurse, and saves to a file that loads back to it."""
    record = corpus[1].to_json()
    leaf = json.dumps(record.pop("trace"))
    path = tmp_path / "corpus.jsonl"
    wrapper = '{"kind": "COMPOSITE", "label": "w", "byte_range": [0, 12], "children": ['

    def load(depth):
        line = json.dumps(record)[:-1] + ', "trace": ' + wrapper * depth + leaf + "]}" * depth + "}"
        path.write_text(json.dumps({"format_version": 1}) + "\n" + line + "\n")
        try:
            return load_corpus(path)
        except CorpusError:
            return None

    low, high = 0, 4096
    while low + 1 < high:
        middle = (low + high) // 2
        if load(middle) is None:
            high = middle
        else:
            low = middle
    deepest = load(low)
    text = corpus_text(deepest)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 4 * low)
    try:
        assert text == _dumped_corpus_text(deepest)
    finally:
        sys.setrecursionlimit(limit)
    path.write_text(text)
    assert corpus_text(load_corpus(path)) == text


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


_HEADER = '{"corpus_manifest_ref": "corpus-manifest-v1", "format_version": 1}\n'


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "corpus file is empty"),
        ("\n  \n\t\n", "corpus file is empty"),
        ('{"format_version": 99}\n', "unsupported corpus header: {'format_version': 99}"),
        ("[1]\n", "unsupported corpus header: [1]"),
        ('{"format_version": 1\n', "corpus header is not JSON"),
        ('{"format_version": 1} {}\n', "corpus header is not JSON"),
        ('\ufeff{"format_version": 1}\n', "corpus header is not JSON"),
        # Deeper than the JSON parser of any supported Python accepts.
        ("[" * 100000 + "]" * 100000 + "\n", "corpus header nests too deeply"),
        (_HEADER + '\n{"seq": 0,\n', "corpus line 3 is not JSON: '{\"seq\": 0,'"),
        (_HEADER + "{} []\n", "corpus line 2 is not JSON: '{} []'"),
        (_HEADER + "\xa0{}\n", "corpus line 2 is not JSON: '\\xa0{}'"),
        (_HEADER + "[" * 100000 + "]" * 100000, "corpus line 2 nests too deeply: %r" % ("[" * 80)),
        # Lines end at "\n" alone: a line that holds a form feed is blank,
        # and a carriage return inside a line is JSON whitespace.
        (_HEADER + "\f\n{} []\n", "corpus line 3 is not JSON: '{} []'"),
        ('{"format_version":\r1}\n{} []\n', "corpus line 2 is not JSON: '{} []'"),
        (_HEADER + '{"seq": "\u2028"}\n', "corpus line 2 seq must be int, got '\\u2028'"),
    ],
    ids=[
        "no-lines", "blank-lines", "format-version", "header-list", "header-cut", "header-extra", "header-bom",
        "header-deep", "line-cut", "line-extra", "line-nbsp", "line-deep", "after-form-feed", "lone-cr",
        "line-separator",
    ],
)
def test_each_broken_corpus_file_has_its_exact_error(tmp_path, text, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CorpusError) as info:
        load_corpus(path)
    assert str(info.value) == message


def test_json_whitespace_around_a_corpus_line_is_read_past(tmp_path, corpus):
    """json.loads reads past spaces, tabs and carriage returns around a value."""
    path = tmp_path / "corpus.jsonl"
    lines = corpus_text(corpus).splitlines()
    path.write_text("\n".join(" \t%s \r" % line for line in lines) + "\n", encoding="utf-8")
    assert load_corpus(path) == list(corpus)


def test_a_corpus_line_ends_at_a_newline_alone(tmp_path, corpus):
    """JSON allows U+2028, U+2029, \\x85 and the other characters at which
    str.splitlines also breaks raw inside a string, so a line that holds
    them loads; a CRLF file loads too."""
    scenario = "queue\u2028session\u2029\x85\x1c"
    lines = corpus_text(corpus).splitlines()[:1] + [
        json.dumps({**record.to_json(), "scenario": scenario}, ensure_ascii=False, sort_keys=True) for record in corpus
    ]
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    assert load_corpus(path) == [record._replace(scenario=scenario) for record in corpus]
    path.write_bytes(corpus_text(corpus).replace("\n", "\r\n").encode("utf-8"))
    assert load_corpus(path) == list(corpus)


def test_a_load_reuses_no_trace_checked_by_an_earlier_load(tmp_path, shuffled_corpus):
    """Each load checks its distinct traces anew: after a file loads, the
    same file with a repeated record's trace broken is refused."""
    path = tmp_path / "corpus.jsonl"
    save_corpus(shuffled_corpus, path)
    assert load_corpus(path) == list(shuffled_corpus)
    seen = {}
    repeat = next(r for r in shuffled_corpus if seen.setdefault((r.payload, r.trace), r.seq) != r.seq)
    lines = path.read_text().splitlines()
    record = json.loads(lines[repeat.seq + 1])
    record["trace"]["kind"] = "NOPE"
    lines[repeat.seq + 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError) as info:
        load_corpus(path)
    assert str(info.value) == "record %d trace: unknown trace leaf kind 'NOPE'" % repeat.seq


def test_offsets_are_checked_before_a_trace_too_deep_to_walk(corpus):
    """The offsets are read before the trace, so their error is named even
    when the trace is nested past the recursion limit."""
    record = corpus[1].to_json()
    for _ in range(5000):
        record["trace"] = _root_over([record["trace"]], 12)
    with pytest.raises(RecursionError):
        SeedRecord.from_json(record)
    record["offsets"] = [2]
    with pytest.raises(CorpusError) as info:
        SeedRecord.from_json(record)
    assert str(info.value) == "record 1 offsets: offset 2 is not 4-byte aligned"


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


_DELETE = object()


def _root_over(children, size):
    """A trace root over a size-byte payload with the given children."""
    return {"kind": "COMPOSITE", "label": "request", "byte_range": [0, size], "children": children}


@pytest.mark.parametrize(
    "where, changes, message",
    [
        ("leaf", {"kind": _DELETE}, "record 1 trace: trace node has no 'kind'"),
        ("leaf", {"kind": 7}, "record 1 trace: trace node kind must be str, got 7"),
        ("leaf", {"label": None}, "record 1 trace: trace node label must be str, got None"),
        ("leaf", {"byte_range": [0, 12, 12]}, "record 1 trace: trace node byte_range must be [start, end], got [0, 12, 12]"),
        ("leaf", {"byte_range": [0, True]}, "record 1 trace: trace node byte_range must hold only int values, got [0, True]"),
        ("root", {"byte_range": _DELETE}, "record 1 trace: trace node has no 'byte_range'"),
        ("root", {"children": {}}, "record 1 trace: trace node children must be list, got {}"),
        ("root", {"children": None}, "record 1 trace: trace node children must be list, got None"),
        ("record", {"scenario": 7}, "record 1 scenario must be str, got 7"),
        ("record", {"descriptor": _DELETE}, "record 1 has no 'descriptor'"),
        ("record", {"code": True}, "record 1 code must be int, got True"),
        ("record", {"target": "1"}, "record 1 target must be int, got '1'"),
        ("record", {"payload_hex": None}, "record 1 payload_hex must be str, got None"),
        ("record", {"offsets": None}, "record 1 offsets must be list, got None"),
        ("record", {"trace": []}, "record 1 trace must be dict, got []"),
        ("record", {"consumed_handles": _DELETE}, "record 1 has no 'consumed_handles'"),
        ("record", {"produced_handles": [[1, 0], 2]}, "record 1 produced_handles must hold only list values, got [[1, 0], 2]"),
        ("record", {"reply_kind": _DELETE}, "record 1 has no 'reply_kind'"),
        # Two broken fields: the first in the order the loader reads them is named.
        ("leaf", {"kind": 7, "byte_range": [0, 12, 12]}, "record 1 trace: trace node kind must be str, got 7"),
        ("leaf", {"label": None, "byte_range": [0, True]}, "record 1 trace: trace node label must be str, got None"),
        ("leaf", {"byte_range": [0, 12, True]}, "record 1 trace: trace node byte_range must hold only int values, got [0, 12, True]"),
        ("record", {"scenario": 7, "descriptor": _DELETE}, "record 1 scenario must be str, got 7"),
        ("record", {"code": True, "payload_hex": None}, "record 1 code must be int, got True"),
        ("record", {"seq": None, "code": True}, "seed record seq must be int, got None"),
        ("record", {"payload_hex": "zz", "offsets": None}, "record 1 payload_hex is not hex: Non-hexadecimal digit found"),
        ("record", {"offsets": [2], "trace": []}, "record 1 offsets: offset 2 is not 4-byte aligned"),
        ("record", {"consumed_handles": [[0, "x"], "y"]}, "record 1 consumed_handles must hold only list values, got [[0, 'x'], 'y']"),
        (
            "record",
            {"consumed_handles": [[0, "x"]], "reply_kind": None},
            "record 1 consumed_handles must hold [int, int or 'STATIC:<descriptor>'] pairs, got [0, 'x']",
        ),
        # Each leaf check.
        ("leaf", {"kind": "WAT"}, "record 1 trace: unknown trace leaf kind 'WAT'"),
        ("leaf", {"children": [{}]}, "record 1 trace: trace leaf 'STRING' carries children"),
        ("leaf", {"byte_range": [4, 16]}, "record 1 trace: trace leaf STRING at [4, 16) does not fit the 12-byte payload"),
        ("leaf", {"byte_range": [0, 8]}, "record 1 trace: trace leaf STRING at [0, 8) declares 5 bytes"),
        ("leaf", {"kind": "BYTES", "byte_range": [0, 8]}, "record 1 trace: trace leaf BYTES at [0, 8) declares 5 bytes"),
        (
            "record",
            {"payload_hex": "ffffffff", "offsets": [0], "trace": _root_over([{"kind": "HANDLE", "byte_range": [0, 4]}], 4)},
            "record 1 trace: trace leaf HANDLE at [0, 4) holds handle -1, outside [0, 2147483647]",
        ),
        # The leaves against the offsets, the payload and consumed_handles.
        ("leaf", {"kind": "HANDLE", "byte_range": [0, 4]}, "record 1: HANDLE leaves start at [0], offsets are ()"),
        ("record", {"offsets": [0]}, "record 1: HANDLE leaves start at [], offsets are (0,)"),
        ("record", {"offsets": [12]}, "record 1 offsets: offset 12 leaves no room for a handle in 12 bytes"),
        ("record", {"offsets": [4, 0]}, "record 1 offsets: offset 0 is negative or not above the offset before it"),
        (
            "root",
            {"children": [{"kind": "STRING", "byte_range": [0, 12]}] * 2},
            "record 1 trace: leaves do not tile the 12-byte payload: leaf STRING at [0, 12) does not start at 12",
        ),
        ("root", {"children": []}, "record 1 trace: leaves do not tile the 12-byte payload: they end at 0"),
        ("record", {"consumed_handles": [[0, 1]]}, "record 1: consumed_handles cover positions [0], offsets are ()"),
        # The offsets are read before the trace, the leaves before consumed_handles.
        ("record", {"offsets": [16], "trace": {"kind": "WAT"}}, "record 1 offsets: offset 16 leaves no room for a handle in 12 bytes"),
        ("record", {"offsets": [4, 0], "trace": None}, "record 1 offsets: offset 0 is negative or not above the offset before it"),
        ("record", {"offsets": [0], "consumed_handles": [[0, "x"]]}, "record 1: HANDLE leaves start at [], offsets are (0,)"),
        (
            "record",
            {"trace": _root_over([], 12), "consumed_handles": [[0, "x"]]},
            "record 1 trace: leaves do not tile the 12-byte payload: they end at 0",
        ),
    ],
)
def test_each_broken_corpus_field_has_its_exact_error(corpus, where, changes, message):
    """Record 1 (a STRING under the root) with one or two fields broken."""
    record = corpus[1].to_json()
    node = {"record": record, "root": record["trace"], "leaf": record["trace"]["children"][0]}[where]
    for name, value in changes.items():
        if value is _DELETE:
            del node[name]
        else:
            node[name] = value
    with pytest.raises(CorpusError) as info:
        SeedRecord.from_json(record)
    assert str(info.value) == message


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
