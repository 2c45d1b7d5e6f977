"""Mutation engine: decomposition, the catalog, and campaign enumeration.

The enumeration tests re-derive expected orders with independent tree
walks over the recorded traces rather than calling back into the
functions under test.
"""

import hashlib
import itertools
import json
import random
import struct
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parcelfuzz import mutator
from parcelfuzz.harness import FuzzConfig, run_fuzz
from parcelfuzz.mutator import (
    BYTES_MUTATIONS,
    CATALOG,
    CATALOG_VERSION,
    EMPTY,
    F64_MUTATIONS,
    F64_VALUES,
    FRAME_BREAKING_MUTATIONS,
    HANDLE_MUTATIONS,
    INT_MUTATIONS,
    RANDOM,
    RANDOM_LENGTH_CYCLE,
    SEMI_VALID,
    STRING_MUTATIONS,
    ConfigurationError,
    FuzzCase,
    _subtrees,
    decompose,
    generate_campaign,
    make_random,
)
from parcelfuzz.parcel import BOOL, BYTES, F64, HANDLE, I32, I32_MAX, I64, I32_MIN, STRING, Parcel
from parcelfuzz.recorder import COMPOSITE, SCENARIOS, CorpusError, SeedRecord, TraceNode, load_corpus, record_session, save_corpus
from parcelfuzz.services import all_methods

from conftest import rebuild, semi_valid_cases


def _record_for(corpus, descriptor, code=None):
    for record in corpus:
        if record.descriptor == descriptor and (code is None or record.code == code):
            return record
    raise LookupError(descriptor)


def _synthetic_four_ints():
    payload = Parcel()
    for value in (10, 20, 30, 40):
        payload.write_value(I32, value)
    trace = TraceNode(
        COMPOSITE,
        "request",
        0,
        16,
        tuple(TraceNode(I32, "", i * 4, i * 4 + 4) for i in range(4)),
    )
    return SeedRecord(
        seq=0,
        scenario="synthetic",
        descriptor="svc.queue",
        code=1,
        target=1,
        payload=payload.buffer,
        offsets=(),
        trace=trace,
        consumed_handles=(),
        produced_handles=(),
        reply_kind="OK",
    )


# -- catalog contents ----------------------------------------------------------


def test_catalog_is_pinned():
    assert CATALOG_VERSION == "catalog-v2"
    assert INT_MUTATIONS == ("plus_one", "minus_one", "zero", "max", "min", "negate", "flip_high_bit")
    assert F64_MUTATIONS == ("zero", "nan", "pos_inf", "neg_inf", "max", "min_positive")
    assert STRING_MUTATIONS == (
        "empty",
        "long_64k",
        "embedded_nul",
        "invalid_utf8",
        "format_specials",
        "declared_length_plus_4",
    )
    assert BYTES_MUTATIONS == ("truncate_half", "declared_length_max")
    assert HANDLE_MUTATIONS == ("zero_handle", "huge_handle", "cross_service_swap")
    assert CATALOG["BOOL"] is INT_MUTATIONS
    assert FRAME_BREAKING_MUTATIONS == {"declared_length_plus_4", "declared_length_max"}


# -- decomposition and identity --------------------------------------------------


def test_identity_rebuild_reproduces_every_seed_exactly(corpus):
    for record in corpus:
        rebuilt, _spans = rebuild(decompose(record))
        assert rebuilt.buffer == record.payload, "record %d" % record.seq
        assert tuple(rebuilt.offsets) == record.offsets


def test_decompose_paths_match_an_independent_walk(corpus):
    for record in corpus:
        expected = []

        def walk(node, path):
            if node.is_leaf:
                expected.append(path)
                return
            for i, child in enumerate(node.children):
                walk(child, path + (i,))

        walk(record.trace, ())
        assert [leaf.path for leaf in decompose(record)] == expected


def test_subtrees_are_preorder_with_root_first(corpus):
    activity = _record_for(corpus, "svc.activity")
    paths = list(_subtrees(activity.trace))
    assert paths[0] == ()
    assert paths == sorted(paths, key=lambda p: (len(p) and 1, p))
    # root, intent wrapper, outer bundle, four entries, nested bundle, its entry
    assert len(paths) == 9


# -- field mutations ---------------------------------------------------------------


def test_int_max_mutation_rewrites_exactly_one_leaf(semi_valid_case, corpus):
    gfx = _record_for(corpus, "svc.graphics")
    case = semi_valid_case(gfx, (1,), "max")
    original = gfx.payload
    mutated = case.payload
    leaf = gfx.trace.children[1]
    assert len(mutated) == len(original)
    assert struct.unpack_from("<i", mutated, leaf.start)[0] == I32_MAX
    assert mutated[: leaf.start] == original[: leaf.start]
    assert mutated[leaf.end :] == original[leaf.end :]
    assert case.policy == SEMI_VALID
    assert not case.frame_breaking


def test_int_wrapping_mutations(semi_valid_case):
    record = _synthetic_four_ints()
    top = semi_valid_case(record, (0,), "flip_high_bit")
    assert struct.unpack_from("<i", top.payload, 0)[0] == _wrap(10 ^ (1 << 31))
    negated = semi_valid_case(record, (1,), "negate")
    assert struct.unpack_from("<i", negated.payload, 4)[0] == -20


def _wrap(value):
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value


def test_string_empty_shrinks_and_shifts(semi_valid_case, corpus):
    add = _record_for(corpus, "svc.queue", 1)
    case = semi_valid_case(add, (0,), "empty")
    assert case.payload == bytes.fromhex("00000000")


def test_string_long_64k(semi_valid_case, corpus):
    add = _record_for(corpus, "svc.queue", 1)
    case = semi_valid_case(add, (0,), "long_64k")
    buf = case.payload
    assert struct.unpack_from("<i", buf, 0)[0] == 65536
    assert len(buf) == 4 + 65536


def test_string_embedded_nul(semi_valid_case, corpus):
    add = _record_for(corpus, "svc.queue", 1)
    case = semi_valid_case(add, (0,), "embedded_nul")
    buf = case.payload
    declared = struct.unpack_from("<i", buf, 0)[0]
    assert b"\x00" in buf[4 : 4 + declared]
    assert declared == 6  # "alpha" with one NUL inserted


def test_string_invalid_utf8_keeps_string_framing(semi_valid_case, corpus):
    add = _record_for(corpus, "svc.queue", 1)
    case = semi_valid_case(add, (0,), "invalid_utf8")
    assert case.payload == bytes.fromhex("03000000eda08000")


def test_string_declared_length_plus_4_only_touches_the_prefix(semi_valid_case, corpus):
    add = _record_for(corpus, "svc.queue", 1)
    case = semi_valid_case(add, (0,), "declared_length_plus_4")
    original = add.payload
    mutated = case.payload
    assert struct.unpack_from("<i", mutated, 0)[0] == struct.unpack_from("<i", original, 0)[0] + 4
    assert mutated[4:] == original[4:]
    assert case.frame_breaking


def test_bytes_mutations(semi_valid_case, corpus):
    activity = _record_for(corpus, "svc.activity")
    # the "blob" entry value is the only BYTES leaf in the corpus
    blob_path = next(leaf.path for leaf in decompose(activity) if leaf.kind == "BYTES")
    truncated = semi_valid_case(activity, blob_path, "truncate_half")
    t_buf = truncated.payload
    lied = semi_valid_case(activity, blob_path, "declared_length_max")
    l_buf = lied.payload
    original = activity.payload
    node = activity.trace
    for index in blob_path:
        node = node.children[index]
    assert struct.unpack_from("<i", t_buf, node.start)[0] == 2
    assert struct.unpack_from("<i", l_buf, node.start)[0] == I32_MAX
    assert len(l_buf) == len(original)
    assert lied.frame_breaking and not truncated.frame_breaking


def _kind_at(record, path):
    node = record.trace
    for index in path:
        node = node.children[index]
    return node.kind


def test_handle_mutations_pin_or_swap(semi_valid_case, corpus):
    register = _record_for(corpus, "svc.audio", 2)
    zeroed = semi_valid_case(register, (0,), "zero_handle")
    assert struct.unpack_from("<i", zeroed.payload, 0)[0] == 0
    assert zeroed.slot_overrides == ((0, "pin"),)
    huge = semi_valid_case(register, (0,), "huge_handle")
    assert struct.unpack_from("<i", huge.payload, 0)[0] == I32_MAX
    assert huge.slot_overrides == ((0, "pin"),)
    swapped = semi_valid_case(register, (0,), "cross_service_swap")
    assert swapped.slot_overrides == ((0, "swap:svc.queue"),)
    assert swapped.offsets == (0,)


def test_f64_mutations_apply(semi_valid_case):
    payload = Parcel().write_value(F64, 2.5)
    trace = TraceNode(COMPOSITE, "request", 0, 8, (TraceNode(F64, "", 0, 8),))
    record = SeedRecord(0, "synthetic", "svc.queue", 1, 1, payload.buffer, (), trace, (), (), "OK")
    tiny = semi_valid_case(record, (0,), "min_positive")
    assert struct.unpack_from("<d", tiny.payload, 0)[0] == 5e-324
    gone = semi_valid_case(record, (0,), "nan")
    value = struct.unpack_from("<d", gone.payload, 0)[0]
    assert value != value


# -- structural mutations -------------------------------------------------------------


def test_structural_menu_for_plain_composites(corpus):
    view = _record_for(corpus, "svc.view")
    assert [c.mutation_id for c in semi_valid_cases(view) if c.field_path == ()] == ["duplicate_subtree", "remove_subtree"]


def test_structural_menu_for_bundle_entries(corpus):
    activity = _record_for(corpus, "svc.activity")
    entry_path = _entry_paths(activity)[0]
    menu = [c.mutation_id for c in semi_valid_cases(activity) if c.field_path == entry_path]
    assert menu[:2] == ["duplicate_subtree", "remove_subtree"]
    swaps = menu[2:]
    assert len(swaps) == 6
    assert all(m.startswith("tag_swap_to_") for m in swaps)
    # the first entry is the I32-tagged "mode"; 1 is excluded
    assert "tag_swap_to_1" not in swaps


def _entry_paths(record):
    return [path for path, (node, _first, _past) in _subtrees(record.trace).items() if node.label.startswith("Bundle.entry[")]


def test_duplicate_subtree_splices_the_leaf_slice(semi_valid_case, corpus):
    view = _record_for(corpus, "svc.view")
    # duplicate the first child of the root pair node (a leaf view)
    case = semi_valid_case(view, (1, 1), "duplicate_subtree")
    original_leaves = decompose(view)
    mutated = case.payload
    subtree = [leaf for leaf in original_leaves if leaf.path[:2] == (1, 1)]
    assert len(subtree) == 2  # mode + content
    assert case.frame_breaking
    assert len(mutated) > len(view.payload)


def test_remove_subtree_drops_the_leaf_slice(semi_valid_case, corpus):
    view = _record_for(corpus, "svc.view")
    case = semi_valid_case(view, (1, 1), "remove_subtree")
    assert len(case.payload) < len(view.payload)


def test_tag_swap_rewrites_only_the_tag(semi_valid_case, corpus):
    activity = _record_for(corpus, "svc.activity")
    entry_path = _entry_paths(activity)[0]
    case = semi_valid_case(activity, entry_path, "tag_swap_to_6")
    original = activity.payload
    mutated = case.payload
    assert len(mutated) == len(original)
    diff = [i for i, (a, b) in enumerate(zip(original, mutated)) if a != b]
    tag_node = activity.trace
    for index in entry_path + (1,):
        tag_node = tag_node.children[index]
    assert diff and all(tag_node.start <= i < tag_node.end for i in diff)


# -- unstructured policies ---------------------------------------------------------


def _shortest_signed_le(n: int) -> bytes:
    """n in the fewest two's-complement little-endian bytes, found by
    widening until it fits rather than from its bit length."""
    width = 1
    while not -(1 << (8 * width - 1)) <= n < 1 << (8 * width - 1):
        width += 1
    return n.to_bytes(width, "little", signed=True)


def test_empty_random_payloads_match_a_seeded_generator():
    seeds = (0, 1, 2, 99, 127, 128, 255, 256, -1, -128, -129, 1_000_003, 7 * 1_000_003 + 5, -(10**30), 1 << 20000)
    for index, seed in enumerate(seeds):
        assert make_random("svc.queue", 1, 0, seed).payload == b""
        for length in RANDOM_LENGTH_CYCLE:
            case = make_random("svc.queue", 1, length, seed)
            assert case.payload == hashlib.shake_128(_shortest_signed_le(seed)).digest(length), (index, length)


@pytest.mark.parametrize("length", [0, 4096])
def test_make_random_builds_every_field_of_its_case(length):
    # make_random builds its case positionally, which skips FuzzCase's
    # defaults: the case must still be the one keywords build.
    case = make_random("svc.queue", 2, length, -77, case_id=9)
    assert type(case) is FuzzCase and len(case) == len(FuzzCase._fields)
    assert case == FuzzCase(
        case_id=9, policy=RANDOM, descriptor="svc.queue", code=2,
        payload=hashlib.shake_128(_shortest_signed_le(-77)).digest(length), offsets=(),
    )
    assert FuzzCase.from_json(case.to_json()) == case


def test_make_random_is_seed_deterministic():
    a = make_random("svc.queue", 1, 64, 99)
    b = make_random("svc.queue", 1, 64, 99)
    c = make_random("svc.queue", 1, 64, 100)
    assert a.payload == b.payload
    assert a.payload != c.payload
    with pytest.raises(ConfigurationError):
        make_random("svc.queue", 1, 1 << 20, 1)


# -- case bookkeeping -----------------------------------------------------------------


def test_fuzz_case_reference_validation():
    """A saved case's provenance must fit its policy; the check lives in
    from_json, the only place a case comes from outside."""
    semi = FuzzCase(1, SEMI_VALID, "svc.queue", 1, b"", (), 3, (0,), "zero").to_json()
    assert FuzzCase.from_json(semi).seed_seq == 3
    for field in ("seed_seq", "field_path", "mutation_id"):
        with pytest.raises(ValueError, match="^SEMI_VALID cases reference a seed, a path, and a mutation$"):
            FuzzCase.from_json({**semi, field: None})
    empty = FuzzCase(1, EMPTY, "svc.queue", 1, b"", ()).to_json()
    for field, value in (("seed_seq", 3), ("field_path", [0]), ("mutation_id", "zero")):
        with pytest.raises(ValueError, match="^EMPTY cases reference no seed$"):
            FuzzCase.from_json({**empty, field: value})


def test_fuzz_case_json_round_trip(semi_valid_case, corpus):
    register = _record_for(corpus, "svc.audio", 2)
    case = semi_valid_case(register, (0,), "cross_service_swap", case_id=17)
    assert FuzzCase.from_json(case.to_json()) == case


def test_case_json_is_pinned(corpus, shuffled_corpus):
    """Case JSON, payload_hex included, is byte for byte what the
    hex-carrying data model of earlier versions wrote, and what a full
    re-serialization per semi-valid case wrote."""
    pins = (
        ("semi-valid", 10000, corpus, 349, "02779d25783c316a34c80e8ff80d7b9e2996f7cfd76744306fbbe02f0a367277"),
        ("semi-valid", 10000, shuffled_corpus, 1396, "f0babf7d4b59070d6cf66b21d2c202281f171fd69244a6667f8799bf60518236"),
        ("empty,random", 300, corpus, 300, "759566e766722a51ef2fdb5def3ad36941b54171abac260d3aa91551b0f828f8"),
    )
    for policy, budget, records, count, expected in pins:
        cases = list(generate_campaign(records, policy.split(","), budget, 1))
        digest = hashlib.sha256()
        for case in cases:
            digest.update(json.dumps(case.to_json(), sort_keys=True).encode("utf-8") + b"\n")
        assert (len(cases), digest.hexdigest()) == (count, expected), policy


def test_random_cases_differ_from_catalog_v1_in_their_payload_bytes_alone(corpus):
    """With each RANDOM payload put back to the Mersenne Twister bytes of
    catalog-v1 (random.Random(sub_seed).randbytes), the empty,random
    stream is byte for byte the one catalog-v1 pinned."""
    digest = hashlib.sha256()
    for case in generate_campaign(corpus, ["empty", "random"], 300, 1):
        obj = case.to_json()
        if case.policy == RANDOM:
            sub_seed = 1 * 1_000_003 + case.case_id - 12  # the 11 EMPTY cases come first
            obj["payload_hex"] = random.Random(sub_seed).randbytes(len(case.payload)).hex()
        digest.update(json.dumps(obj, sort_keys=True).encode("utf-8") + b"\n")
    assert digest.hexdigest() == "e4ad1868cca6aa7b678cc124b8eede9a53016e2e05ca93eeb51e522d8ed154ec"


# -- campaign enumeration ---------------------------------------------------------------


def test_budget_slices_the_leaf_sweep_mid_leaf():
    record = _synthetic_four_ints()
    cases = list(generate_campaign([record], "semi-valid", 10, 1))
    assert [c.case_id for c in cases] == list(range(1, 11))
    assert [c.field_path for c in cases[:7]] == [(0,)] * 7
    assert [c.mutation_id for c in cases[:7]] == list(INT_MUTATIONS)
    assert [c.field_path for c in cases[7:]] == [(1,)] * 3
    assert [c.mutation_id for c in cases[7:]] == list(INT_MUTATIONS[:3])


def test_semi_valid_order_is_seeds_then_leaves_then_structural(corpus):
    record = _record_for(corpus, "svc.view")
    cases = list(semi_valid_cases(record))
    first_structural = next(i for i, c in enumerate(cases) if c.mutation_id in ("duplicate_subtree", "remove_subtree"))
    assert all(c.mutation_id in CATALOG[_kind_at(record, c.field_path)] for c in cases[:first_structural])
    assert all(
        c.mutation_id in ("duplicate_subtree", "remove_subtree") or c.mutation_id.startswith("tag_swap")
        for c in cases[first_structural:]
    )


def test_semi_valid_cases_decompose_each_seed_once(monkeypatch, corpus):
    """One decompose per seed; what each case holds is checked against a
    full rebuild in test_every_spliced_case_equals_a_full_rebuild."""
    calls = []
    monkeypatch.setattr(mutator, "decompose", lambda record: calls.append(record.seq) or decompose(record))
    for record in corpus:
        list(semi_valid_cases(record))
        assert calls == [record.seq]
        calls.clear()


def _content(record):
    """What a seed's semi-valid cases are made from, beside its seq."""
    return (record.descriptor, record.code, record.payload, record.trace)


def test_a_campaign_decomposes_each_seed_content_once(monkeypatch, shuffled_corpus_of):
    corpus = shuffled_corpus_of(1)
    calls = []
    monkeypatch.setattr(mutator, "decompose", lambda record: calls.append(record.seq) or decompose(record))
    first_of_content = {}
    for record in sorted(corpus, key=lambda r: r.seq):
        first_of_content.setdefault(_content(record), record.seq)
    for _campaign in range(2):
        cases = list(generate_campaign(corpus, "semi-valid", sys.maxsize, 1))
        assert (len(corpus), len(cases)) == (76, 1396)
        assert calls == sorted(first_of_content.values())
        assert len(calls) == 25
        calls.clear()


def test_a_campaign_checks_each_seed_content_once_before_its_first_case(monkeypatch, shuffled_corpus_of):
    corpus = shuffled_corpus_of(1)
    checked = []
    check = mutator._refuse_noncanonical
    monkeypatch.setattr(mutator, "_refuse_noncanonical", lambda record: checked.append(record.seq) or check(record))
    first_of_content = {}
    for record in sorted(corpus, key=lambda r: r.seq):
        first_of_content.setdefault(_content(record), record.seq)
    by_seq = {record.seq: record for record in corpus}
    for case in generate_campaign(corpus, "semi-valid", sys.maxsize, 1):
        assert first_of_content[_content(by_seq[case.seed_seq])] in checked
    assert checked == sorted(first_of_content.values())


def _seed_by_seed(records, budget):
    """The cases semi_valid_cases gives each record, in seq order,
    numbered from 1 and cut at budget."""
    case_ids = itertools.count(1)
    ordered = sorted(records, key=lambda r: r.seq)
    return list(itertools.islice(itertools.chain.from_iterable(semi_valid_cases(r, case_ids) for r in ordered), budget))


def _retraced(record):
    """record's trace under one more composite: its payload, other paths."""
    trace = record.trace
    return record._replace(trace=TraceNode(COMPOSITE, "wrapped", trace.start, trace.end, (trace,)))


_VARIANTS = {
    "code": lambda record: record._replace(code=record.code + 100),
    "descriptor": lambda record: record._replace(descriptor="svc.audio" if record.descriptor == "svc.queue" else "svc.queue"),
    "trace": _retraced,
}


@pytest.mark.parametrize("part", sorted(_VARIANTS))
def test_a_seed_that_differs_in_one_part_of_its_content_makes_its_own_cases(corpus, part):
    past = max(r.seq for r in corpus) + 1
    records = list(corpus) + [_VARIANTS[part](r)._replace(seq=past + r.seq) for r in corpus]
    cases = [case.to_json() for case in generate_campaign(records, "semi-valid", sys.maxsize, 1)]
    assert cases == [case.to_json() for case in _seed_by_seed(records, sys.maxsize)]


@st.composite
def _recorded_corpora(draw):
    """A recording of a drawn multiset of scenarios, each run one to four
    times in a drawn order, plus copies of drawn records that differ from
    their original in one part of its content only."""
    names = draw(st.lists(st.sampled_from(sorted(SCENARIOS)), min_size=1, unique=True))
    copies = draw(st.lists(st.integers(1, 4), min_size=len(names), max_size=len(names)))
    records = record_session(draw(st.permutations([n for n, k in zip(names, copies) for _ in range(k)])))
    variants = draw(st.lists(st.tuples(st.sampled_from(sorted(_VARIANTS)), st.integers(0, len(records) - 1)), max_size=3))
    past = max(r.seq for r in records) + 1
    return records + [_VARIANTS[part](records[i])._replace(seq=past + n) for n, (part, i) in enumerate(variants)]


@given(_recorded_corpora(), st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_campaign_makes_the_cases_each_seed_makes_alone(records, data):
    """Seeds whose content repeats reuse the first one's splices; what a
    campaign yields must still be, case for case, what each seed makes on
    its own.  Checked whole, cut at a drawn budget, and cut inside a seed
    whose content an earlier seed had."""
    expected = [case.to_json() for case in _seed_by_seed(records, sys.maxsize)]
    budgets = [len(expected) + data.draw(st.integers(0, 3)), data.draw(st.integers(1, len(expected)))]
    seen, past = set(), 0
    for record in sorted(records, key=lambda r: r.seq):
        start, past = past, past + sum(1 for _ in semi_valid_cases(record))
        if _content(record) in seen and past - start >= 2:
            budgets.append(data.draw(st.integers(start + 1, past - 1), label="inside a repeated seed"))
            break
        seen.add(_content(record))
    for budget in budgets:
        cases = [case.to_json() for case in generate_campaign(records, "semi-valid", budget, 1)]
        assert cases == expected[:budget]


def _synthetic_handles_and_empty_subtree():
    """A canonical seed with handles before and after sized leaves, a
    handle-bearing pair and an empty composite: what the splice has to
    shift, copy or drop."""
    payload = Parcel()
    payload.write_value(STRING, "ab")  # [0, 8)
    payload.write_handle(3)  # [8, 12)
    payload.write_value(BOOL, 1)  # [12, 16)
    payload.write_value(BYTES, b"xyz")  # [16, 24)
    payload.write_handle(7)  # [24, 28)
    trace = TraceNode(
        COMPOSITE,
        "request",
        0,
        28,
        (
            TraceNode(STRING, "", 0, 8),
            TraceNode(COMPOSITE, "pair", 8, 16, (TraceNode(HANDLE, "", 8, 12), TraceNode(BOOL, "", 12, 16))),
            TraceNode(COMPOSITE, "empty", 16, 16),
            TraceNode(BYTES, "", 16, 24),
            TraceNode(HANDLE, "", 24, 28),
        ),
    )
    consumed = tuple((pos, "STATIC:svc.queue") for pos in payload.offsets)
    return SeedRecord(
        3, "synthetic", "svc.audio", 2, 1, payload.buffer, tuple(payload.offsets), trace, consumed, (), "OK"
    )


def _full_rebuild_case(record, case):
    """(payload, offsets, slot_overrides) of case, made the long way: edit
    a copy of the seed's leaf list, then re-serialize every leaf."""
    leaves = decompose(record)
    path, mutation_id = case.field_path, case.mutation_id
    patch, directive = None, None
    if mutation_id == "duplicate_subtree" or mutation_id == "remove_subtree" or mutation_id.startswith("tag_swap_to_"):
        inside = [i for i, leaf in enumerate(leaves) if leaf.path[: len(path)] == path]
        lo, hi = (inside[0], inside[-1] + 1) if inside else (0, 0)
        if mutation_id == "duplicate_subtree":
            leaves = leaves[:hi] + leaves[lo:hi] + leaves[hi:]
        elif mutation_id == "remove_subtree":
            leaves = leaves[:lo] + leaves[hi:]
        else:
            tag = next(i for i, leaf in enumerate(leaves) if leaf.path == path + (1,))
            leaves[tag] = leaves[tag]._replace(value=int(mutation_id.rsplit("_", 1)[1]))
        parcel, _spans = rebuild(leaves)
        return parcel.buffer, tuple(parcel.offsets), ()
    index = next(i for i, leaf in enumerate(leaves) if leaf.path == path)
    leaf = leaves[index]
    if leaf.kind in (I32, BOOL, I64):
        bits = 64 if leaf.kind == I64 else 32
        value = mutator.INT_VALUES[mutation_id](leaf.value, 1 << (bits - 1)) & ((1 << bits) - 1)
        leaves[index] = leaf._replace(value=value - (1 << bits) if value >> (bits - 1) else value)
    elif leaf.kind == F64:
        leaves[index] = leaf._replace(value=F64_VALUES[mutation_id])
    elif leaf.kind == STRING:
        value = mutator.STRING_VALUES[mutation_id](leaf.value)
        leaves[index] = leaf._replace(kind=BYTES if isinstance(value, bytes) else STRING, value=value)
        patch = 4 if mutation_id == "declared_length_plus_4" else None
    elif leaf.kind == BYTES:
        if mutation_id == "truncate_half":
            leaves[index] = leaf._replace(value=leaf.value[: len(leaf.value) // 2])
        else:
            patch = "max"
    elif mutation_id == "cross_service_swap":
        directive = "swap:" + ("svc.queue" if record.descriptor != "svc.queue" else "svc.audio")
    else:
        leaves[index] = leaf._replace(value=0 if mutation_id == "zero_handle" else I32_MAX)
        directive = "pin"
    parcel, spans = rebuild(leaves)
    payload = parcel.buffer
    start = spans[index][0]
    if patch is not None:
        declared = struct.unpack_from("<i", payload, start)[0]
        lie = I32_MAX if patch == "max" else declared + 4
        payload = payload[:start] + struct.pack("<i", lie) + payload[start + 4 :]
    overrides = ((start, directive),) if directive else ()
    return payload, tuple(parcel.offsets), overrides


def test_every_spliced_case_equals_a_full_rebuild(corpus, shuffled_corpus):
    records = list(corpus) + list(shuffled_corpus) + [_synthetic_four_ints(), _synthetic_handles_and_empty_subtree()]
    checked = set()
    for record in records:
        for case in semi_valid_cases(record):
            expected = _full_rebuild_case(record, case)
            assert (case.payload, case.offsets, case.slot_overrides) == expected, (record.seq, case.field_path, case.mutation_id)
            checked.add(case.mutation_id)
    assert checked >= set(INT_MUTATIONS + STRING_MUTATIONS + BYTES_MUTATIONS + HANDLE_MUTATIONS)
    assert checked >= {"duplicate_subtree", "remove_subtree", "tag_swap_to_6"}


def test_splice_moves_handles_with_the_bytes_around_them(semi_valid_case):
    record = _synthetic_handles_and_empty_subtree()
    assert record.offsets == (8, 24)
    longer = semi_valid_case(record, (0,), "long_64k")
    assert longer.offsets == (65540, 65556)
    doubled = semi_valid_case(record, (1,), "duplicate_subtree")
    assert doubled.offsets == (8, 16, 32)
    dropped = semi_valid_case(record, (1,), "remove_subtree")
    assert dropped.offsets == (16,)
    for mutation_id in ("duplicate_subtree", "remove_subtree"):
        unchanged = semi_valid_case(record, (2,), mutation_id)
        assert (unchanged.payload, unchanged.offsets) == (record.payload, record.offsets)


def test_a_negative_handle_is_refused_at_the_seeds_first_case():
    record = _synthetic_handles_and_empty_subtree()
    bad = record.payload[:8] + struct.pack("<i", -5) + record.payload[12:]
    cases = semi_valid_cases(record._replace(payload=bad))
    with pytest.raises(CorpusError) as refused:
        next(cases)
    assert str(refused.value) == "record 3 trace: trace leaf HANDLE at [8, 12) holds handle -5, outside [0, 2147483647]"


# Each lie the loader refuses, as (payload, the trace's leaves as (kind,
# start, end), what the loader's text says of it).  Each is told by a
# record of open_session, which reads nothing and replies OK to any bytes.
_LIES = {
    "bool_of_5": ("05000000", [(BOOL, 0, 4)], "trace leaf BOOL at [0, 4) holds 5, not 0 or 1"),
    "nonzero_padding": ("020000006162ffff", [(STRING, 0, 8)], "trace leaf STRING at [0, 8) pads its value with nonzero bytes"),
    "wide_fixed_width": ("0100000002000000", [(I32, 0, 8)], "trace leaf I32 at [0, 8) is 8 bytes wide, not 4"),
    "declared_length": ("0900000061626364", [(STRING, 0, 8)], "trace leaf STRING at [0, 8) declares 9 bytes"),
    "negative_handle": ("fbffffff", [(HANDLE, 0, 4)], "trace leaf HANDLE at [0, 4) holds handle -5, outside [0, 2147483647]"),
    "not_utf8": ("02000000fffe0000", [(STRING, 0, 8)], "trace leaf STRING at [0, 8) is not UTF-8: invalid start byte"),
    "no_tiling": ("0100000002000000", [(I32, 0, 4)], "leaves do not tile the 8-byte payload: they end at 4"),
    "handle_off_the_offsets": ("00000000", [(HANDLE, 0, 4)], "HANDLE leaves start at [0], offsets are ()"),
}


@pytest.mark.parametrize("lie", sorted(_LIES))
def test_a_seed_built_in_memory_is_refused_as_its_file_is(tmp_path, lie):
    """A seed that is not canonical is refused at its first case, by a
    campaign and by run_fuzz alike, with the text load_corpus gives for
    the file save_corpus writes of it."""
    payload_hex, leaves, told = _LIES[lie]
    payload = bytes.fromhex(payload_hex)
    trace = TraceNode(COMPOSITE, "request", 0, len(payload), tuple(TraceNode(kind, "", start, end) for kind, start, end in leaves))
    recorded = record_session(["audio_callback"])
    assert (recorded[2].descriptor, recorded[2].code, recorded[2].payload) == ("svc.audio", 3, b"")
    corpus = [r._replace(payload=payload, trace=trace) if r.seq == 2 else r for r in recorded]
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    with pytest.raises(CorpusError) as from_file:
        load_corpus(tmp_path / "corpus.jsonl")
    text = str(from_file.value)
    assert text.startswith("record 2") and text.endswith(told)

    # Seeds 0 and 1 make their cases first.
    before = [r.seq for r in recorded[:2] for _ in semi_valid_cases(r)]
    cases = generate_campaign(corpus, "semi-valid", sys.maxsize, 1)
    assert [case.seed_seq for case in itertools.islice(cases, len(before))] == before
    with pytest.raises(CorpusError) as from_campaign:
        next(cases)
    with pytest.raises(CorpusError) as from_run:
        run_fuzz(FuzzConfig(policy="semi-valid", budget=10000, corpus=corpus))
    assert str(from_campaign.value) == str(from_run.value) == text


def test_empty_policy_covers_every_method_once(corpus):
    cases = list(generate_campaign(corpus, "empty", 100, 1))
    assert len(cases) == 11
    assert [(c.descriptor, c.code) for c in cases] == [(d, c) for d, c, _ in all_methods()]
    assert all(c.payload == b"" and c.policy == EMPTY for c in cases)


def test_random_policy_round_robins_with_the_length_cycle(corpus):
    cases = list(generate_campaign(corpus, "random", 23, 5))
    methods = all_methods()
    for i, case in enumerate(cases):
        descriptor, code, _name = methods[i % 11]
        assert (case.descriptor, case.code) == (descriptor, code)
        expected_length = RANDOM_LENGTH_CYCLE[(i // 11) % len(RANDOM_LENGTH_CYCLE)]
        assert len(case.payload) == expected_length


def test_random_policy_numbers_its_sub_seeds_across_length_rounds(corpus):
    # Past two turns of the length cycle, case i is make_random's case for
    # method i mod n, its round's length and sub-seed rng_seed * 1_000_003 + i.
    methods = all_methods()
    count = 2 * len(methods) * len(RANDOM_LENGTH_CYCLE) + 5
    cases = list(generate_campaign(corpus, "random", count, 5))
    assert len(cases) == count
    for i, case in enumerate(cases):
        descriptor, code, _name = methods[i % len(methods)]
        length = RANDOM_LENGTH_CYCLE[(i // len(methods)) % len(RANDOM_LENGTH_CYCLE)]
        assert case == make_random(descriptor, code, length, 5 * 1_000_003 + i, i + 1), i


def test_policies_concatenate_in_order(monkeypatch, corpus):
    built = []
    monkeypatch.setattr(mutator, "make_random", lambda *args: built.append(args) or make_random(*args))
    cases = list(generate_campaign(corpus, ["empty", "random"], 15, 1))
    assert [c.policy for c in cases[:11]] == [EMPTY] * 11
    assert [c.policy for c in cases[11:]] == [RANDOM] * 4
    assert [c.case_id for c in cases] == list(range(1, 16))
    assert len(built) == 4  # no 16th case is built past the budget


def test_finite_policies_run_before_random_in_the_order_given(corpus):
    cases = list(generate_campaign(corpus, ["random", "semi-valid", "empty"], 400, 1))
    assert [c.policy for c in cases] == [SEMI_VALID] * 349 + [EMPTY] * 11 + [RANDOM] * 40
    assert [c.case_id for c in cases] == list(range(1, 401))
    alone = list(generate_campaign(corpus, "semi-valid", 400, 1))
    assert [c.to_json() for c in cases[:349]] == [c.to_json() for c in alone]
    # RANDOM's sub-seeds count its own cases, so they do not depend on what ran first.
    assert [c.payload for c in cases[360:]] == [c.payload for c in generate_campaign(corpus, "random", 40, 1)]


def test_campaign_is_deterministic(corpus):
    first = [c.to_json() for c in generate_campaign(corpus, "semi-valid", 400, 3)]
    second = [c.to_json() for c in generate_campaign(corpus, "semi-valid", 400, 3)]
    assert first == second
    assert len(first) == 349  # the natural SEMI_VALID enumeration of the shipped corpus


def test_campaign_configuration_errors(corpus):
    with pytest.raises(ConfigurationError):
        generate_campaign(corpus, "semi-valid", 0, 1)
    with pytest.raises(ConfigurationError, match=r"^budget must be in \[1, %d\], got %d$" % (sys.maxsize, sys.maxsize + 1)):
        generate_campaign(corpus, "semi-valid", sys.maxsize + 1, 1)
    with pytest.raises(ConfigurationError):
        generate_campaign([], "semi-valid", 10, 1)
    with pytest.raises(ConfigurationError):
        generate_campaign(corpus, "made-up", 10, 1)
    with pytest.raises(ConfigurationError):
        generate_campaign(corpus, [], 10, 1)


@pytest.mark.parametrize(
    "policy, repeated",
    [(["empty", "empty"], "EMPTY"), (["semi-valid", "SEMI_VALID"], "SEMI_VALID"), ([RANDOM, "empty", "random"], "RANDOM")],
)
def test_a_repeated_policy_is_refused(corpus, policy, repeated):
    with pytest.raises(ConfigurationError, match=r"^policy %s is given more than once$" % repeated):
        generate_campaign(corpus, policy, 100, 1)


def test_policy_spellings_normalize(corpus):
    for spelling in ("semi-valid", "SEMI_VALID", SEMI_VALID, "Semi-Valid"):
        case = next(iter(generate_campaign(corpus, spelling, 1, 1)))
        assert case.policy == SEMI_VALID


# -- a rebuild property -----------------------------------------------------------------


@given(st.lists(st.integers(I32_MIN, I32_MAX), min_size=1, max_size=8), st.data())
@settings(max_examples=100)
def test_every_int_mutation_yields_a_decodable_payload(semi_valid_case, values, data):
    payload = Parcel()
    for value in values:
        payload.write_value(I32, value)
    trace = TraceNode(
        COMPOSITE,
        "request",
        0,
        len(values) * 4,
        tuple(TraceNode(I32, "", i * 4, i * 4 + 4) for i in range(len(values))),
    )
    record = SeedRecord(
        0, "synthetic", "svc.queue", 1, 1, payload.buffer, (), trace, (), (), "OK"
    )
    index = data.draw(st.integers(0, len(values) - 1))
    mutation = data.draw(st.sampled_from(INT_MUTATIONS))
    case = semi_valid_case(record, (index,), mutation)
    reader = Parcel(case.payload)
    out = [reader.read_value(I32) for _ in values]
    assert reader.cursor == len(reader)
    for i, (before, after) in enumerate(zip(values, out)):
        if i != index:
            assert before == after
