"""Mutation engine: decomposition, the catalog, and campaign enumeration.

The enumeration tests re-derive expected orders with independent tree
walks over the recorded traces rather than calling back into the
functions under test.
"""

import hashlib
import json
import random
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcelfuzz import mutator
from parcelfuzz.mutator import (
    BYTES_MUTATIONS,
    CATALOG,
    CATALOG_VERSION,
    F64_MUTATIONS,
    FRAME_BREAKING_MUTATIONS,
    HANDLE_MUTATIONS,
    INT_MUTATIONS,
    RANDOM_LENGTH_CYCLE,
    STRING_MUTATIONS,
    CatalogError,
    ConfigurationError,
    FuzzCase,
    Policy,
    _rebuild,
    decompose,
    enumerate_composites,
    enumerate_fields,
    generate_campaign,
    make_random,
    mutate_field,
    mutate_structural,
    semi_valid_cases,
    structural_mutations_for,
)
from parcelfuzz.parcel import I32_MAX, I32_MIN, CapacityError, Kind, Parcel
from parcelfuzz.recorder import COMPOSITE, SeedRecord, TraceNode
from parcelfuzz.services import all_methods


def _record_for(corpus, descriptor, code=None):
    for record in corpus:
        if record.descriptor == descriptor and (code is None or record.code == code):
            return record
    raise LookupError(descriptor)


def _synthetic_four_ints():
    payload = Parcel()
    for value in (10, 20, 30, 40):
        payload.write_value(Kind.I32, value)
    trace = TraceNode(
        COMPOSITE,
        "request",
        0,
        16,
        [TraceNode("I32", "", i * 4, i * 4 + 4) for i in range(4)],
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
        rebuilt = _rebuild(decompose(record))
        assert rebuilt.buffer == record.payload, "record %d" % record.seq
        assert tuple(rebuilt.offsets) == record.offsets


def test_enumerate_fields_matches_an_independent_walk(corpus):
    for record in corpus:
        expected = []

        def walk(node, path):
            if node.is_leaf:
                expected.append(path)
                return
            for i, child in enumerate(node.children):
                walk(child, path + (i,))

        walk(record.trace, ())
        assert enumerate_fields(record) == expected


def test_enumerate_composites_is_preorder_with_root_first(corpus):
    activity = _record_for(corpus, "svc.activity")
    paths = enumerate_composites(activity)
    assert paths[0] == ()
    assert paths == sorted(paths, key=lambda p: (len(p) and 1, p))
    # root, intent wrapper, outer bundle, four entries, nested bundle, its entry
    assert len(paths) == 9


# -- field mutations ---------------------------------------------------------------


def test_int_max_mutation_rewrites_exactly_one_leaf(corpus):
    gfx = _record_for(corpus, "svc.graphics")
    case = mutate_field(gfx, (1,), "max")
    original = gfx.payload
    mutated = case.payload
    leaf = gfx.trace.children[1]
    assert len(mutated) == len(original)
    assert struct.unpack_from("<i", mutated, leaf.start)[0] == I32_MAX
    assert mutated[: leaf.start] == original[: leaf.start]
    assert mutated[leaf.end :] == original[leaf.end :]
    assert case.policy is Policy.SEMI_VALID
    assert not case.frame_breaking


def test_int_wrapping_mutations():
    record = _synthetic_four_ints()
    top = mutate_field(record, (0,), "flip_high_bit")
    assert struct.unpack_from("<i", top.payload, 0)[0] == _wrap(10 ^ (1 << 31))
    negated = mutate_field(record, (1,), "negate")
    assert struct.unpack_from("<i", negated.payload, 4)[0] == -20


def _wrap(value):
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value


def test_string_empty_shrinks_and_shifts(corpus):
    add = _record_for(corpus, "svc.queue", 1)
    case = mutate_field(add, (0,), "empty")
    assert case.payload == bytes.fromhex("00000000")


def test_string_long_64k(corpus):
    add = _record_for(corpus, "svc.queue", 1)
    case = mutate_field(add, (0,), "long_64k")
    buf = case.payload
    assert struct.unpack_from("<i", buf, 0)[0] == 65536
    assert len(buf) == 4 + 65536


def test_string_embedded_nul(corpus):
    add = _record_for(corpus, "svc.queue", 1)
    case = mutate_field(add, (0,), "embedded_nul")
    buf = case.payload
    declared = struct.unpack_from("<i", buf, 0)[0]
    assert b"\x00" in buf[4 : 4 + declared]
    assert declared == 6  # "alpha" with one NUL inserted


def test_string_invalid_utf8_keeps_string_framing(corpus):
    add = _record_for(corpus, "svc.queue", 1)
    case = mutate_field(add, (0,), "invalid_utf8")
    assert case.payload == bytes.fromhex("03000000eda08000")


def test_string_declared_length_plus_4_only_touches_the_prefix(corpus):
    add = _record_for(corpus, "svc.queue", 1)
    case = mutate_field(add, (0,), "declared_length_plus_4")
    original = add.payload
    mutated = case.payload
    assert struct.unpack_from("<i", mutated, 0)[0] == struct.unpack_from("<i", original, 0)[0] + 4
    assert mutated[4:] == original[4:]
    assert case.frame_breaking


def test_bytes_mutations(corpus):
    activity = _record_for(corpus, "svc.activity")
    # the "blob" entry value is the only BYTES leaf in the corpus
    blob_path = next(
        p for p in enumerate_fields(activity) if _kind_at(activity, p) == "BYTES"
    )
    truncated = mutate_field(activity, blob_path, "truncate_half")
    t_buf = truncated.payload
    lied = mutate_field(activity, blob_path, "declared_length_max")
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


def test_handle_mutations_pin_or_swap(corpus):
    register = _record_for(corpus, "svc.audio", 2)
    zeroed = mutate_field(register, (0,), "zero_handle")
    assert struct.unpack_from("<i", zeroed.payload, 0)[0] == 0
    assert zeroed.slot_overrides == ((0, "pin"),)
    huge = mutate_field(register, (0,), "huge_handle")
    assert struct.unpack_from("<i", huge.payload, 0)[0] == I32_MAX
    assert huge.slot_overrides == ((0, "pin"),)
    swapped = mutate_field(register, (0,), "cross_service_swap")
    assert swapped.slot_overrides == ((0, "swap:svc.queue"),)
    assert swapped.offsets == (0,)


def test_f64_mutations_apply():
    payload = Parcel().write_value(Kind.F64, 2.5)
    trace = TraceNode(COMPOSITE, "request", 0, 8, [TraceNode("F64", "", 0, 8)])
    record = SeedRecord(0, "synthetic", "svc.queue", 1, 1, payload.buffer, (), trace, (), (), "OK")
    tiny = mutate_field(record, (0,), "min_positive")
    assert struct.unpack_from("<d", tiny.payload, 0)[0] == 5e-324
    gone = mutate_field(record, (0,), "nan")
    value = struct.unpack_from("<d", gone.payload, 0)[0]
    assert value != value


def test_mutation_kind_mismatches_are_catalog_errors(corpus):
    gfx = _record_for(corpus, "svc.graphics")
    with pytest.raises(CatalogError):
        mutate_field(gfx, (1,), "empty")
    with pytest.raises(CatalogError):
        mutate_field(gfx, (1,), "no_such_mutation")
    with pytest.raises(CatalogError):
        mutate_field(gfx, (), "zero")
    with pytest.raises(CatalogError):
        mutate_field(gfx, (9, 9), "zero")


# -- structural mutations -------------------------------------------------------------


def test_structural_menu_for_plain_composites(corpus):
    view = _record_for(corpus, "svc.view")
    assert structural_mutations_for(view, ()) == ["duplicate_subtree", "remove_subtree"]


def test_structural_menu_for_bundle_entries(corpus):
    activity = _record_for(corpus, "svc.activity")
    entry_path = _entry_paths(activity)[0]
    menu = structural_mutations_for(activity, entry_path)
    assert menu[:2] == ["duplicate_subtree", "remove_subtree"]
    swaps = menu[2:]
    assert len(swaps) == 6
    assert all(m.startswith("tag_swap_to_") for m in swaps)
    # the first entry is the I32-tagged "mode"; 1 is excluded
    assert "tag_swap_to_1" not in swaps


def _entry_paths(record):
    return [
        p
        for p in enumerate_composites(record)
        if _label_at(record, p).startswith("Bundle.entry[")
    ]


def _label_at(record, path):
    node = record.trace
    for index in path:
        node = node.children[index]
    return node.label


def test_duplicate_subtree_splices_the_leaf_slice(corpus):
    view = _record_for(corpus, "svc.view")
    # duplicate the first child of the root pair node (a leaf view)
    case = mutate_structural(view, (1, 1), "duplicate_subtree")
    original_leaves = decompose(view)
    mutated = case.payload
    subtree = [leaf for leaf in original_leaves if leaf.path[:2] == (1, 1)]
    assert len(subtree) == 2  # mode + content
    assert case.frame_breaking
    assert len(mutated) > len(view.payload)


def test_remove_subtree_drops_the_leaf_slice(corpus):
    view = _record_for(corpus, "svc.view")
    case = mutate_structural(view, (1, 1), "remove_subtree")
    assert len(case.payload) < len(view.payload)


def test_tag_swap_rewrites_only_the_tag(corpus):
    activity = _record_for(corpus, "svc.activity")
    entry_path = _entry_paths(activity)[0]
    case = mutate_structural(activity, entry_path, "tag_swap_to_6")
    original = activity.payload
    mutated = case.payload
    assert len(mutated) == len(original)
    diff = [i for i, (a, b) in enumerate(zip(original, mutated)) if a != b]
    tag_node = activity.trace
    for index in entry_path + (1,):
        tag_node = tag_node.children[index]
    assert diff and all(tag_node.start <= i < tag_node.end for i in diff)


def test_structural_mutation_validation(corpus):
    view = _record_for(corpus, "svc.view")
    with pytest.raises(CatalogError):
        mutate_structural(view, (0,), "duplicate_subtree")  # a leaf, not a composite
    with pytest.raises(CatalogError):
        mutate_structural(view, (), "tag_swap_to_3")


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
    with pytest.raises(ValueError):
        FuzzCase(1, Policy.SEMI_VALID, "svc.queue", 1, b"", ())
    with pytest.raises(ValueError):
        FuzzCase(1, Policy.EMPTY, "svc.queue", 1, b"", (), seed_seq=3)


def test_fuzz_case_json_round_trip(corpus):
    register = _record_for(corpus, "svc.audio", 2)
    case = mutate_field(register, (0,), "cross_service_swap", case_id=17)
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
        if case.policy is Policy.RANDOM:
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


def test_semi_valid_cases_decompose_once_and_match_one_off_mutations(monkeypatch, corpus):
    calls = []
    monkeypatch.setattr(mutator, "decompose", lambda record: calls.append(record.seq) or decompose(record))
    for record in corpus:
        cases = list(semi_valid_cases(record))
        assert calls == [record.seq]
        for case in cases:
            if case.mutation_id in CATALOG.get(_kind_at(record, case.field_path), ()):
                expected = mutate_field(record, case.field_path, case.mutation_id)
            else:
                expected = mutate_structural(record, case.field_path, case.mutation_id)
            assert case == expected
        calls.clear()


def _synthetic_handles_and_empty_subtree():
    """A seed with handles before and after sized leaves, a BOOL stored
    as 5 (the rebuild writes 1), a handle-bearing pair and an empty
    composite: what the splice has to shift, copy, drop or normalize."""
    payload = Parcel()
    payload.write_value(Kind.STRING, "ab")
    payload.write_handle(3)
    payload.write_value(Kind.I32, 5)
    payload.write_value(Kind.BYTES, b"xyz")
    payload.write_handle(7)
    (_s, s0, s1), (_h, h0, h1), (_b, b0, b1), (_y, y0, y1), (_g, g0, g1) = payload.write_log
    trace = TraceNode(
        COMPOSITE,
        "request",
        0,
        g1,
        [
            TraceNode("STRING", "", s0, s1),
            TraceNode(COMPOSITE, "pair", h0, b1, [TraceNode("HANDLE", "", h0, h1), TraceNode("BOOL", "", b0, b1)]),
            TraceNode(COMPOSITE, "empty", y0, y0),
            TraceNode("BYTES", "", y0, y1),
            TraceNode("HANDLE", "", g0, g1),
        ],
    )
    return SeedRecord(
        3, "synthetic", "svc.audio", 2, 1, payload.buffer, tuple(payload.offsets), trace, (), (), "OK"
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
        parcel = _rebuild(leaves)
        return parcel.buffer, tuple(parcel.offsets), ()
    index = next(i for i, leaf in enumerate(leaves) if leaf.path == path)
    leaf = leaves[index]
    if leaf.kind in ("I32", "BOOL", "I64"):
        leaves[index] = leaf._replace(value=mutator._mutate_int(leaf.value, mutation_id, 64 if leaf.kind == "I64" else 32))
    elif leaf.kind == "F64":
        leaves[index] = leaf._replace(value=mutator._mutate_f64(leaf.value, mutation_id))
    elif leaf.kind == "STRING":
        value, write_as = mutator._mutate_string(leaf.value, mutation_id)
        leaves[index] = leaf._replace(value=value, write_as=write_as)
        patch = 4 if mutation_id == "declared_length_plus_4" else None
    elif leaf.kind == "BYTES":
        if mutation_id == "truncate_half":
            leaves[index] = leaf._replace(value=leaf.value[: len(leaf.value) // 2])
        else:
            patch = "max"
    elif mutation_id == "cross_service_swap":
        directive = "swap:" + ("svc.queue" if record.descriptor != "svc.queue" else "svc.audio")
    else:
        leaves[index] = leaf._replace(value=0 if mutation_id == "zero_handle" else I32_MAX)
        directive = "pin"
    parcel = _rebuild(leaves)
    payload = parcel.buffer
    start = parcel.write_log[index][1]
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


def test_splice_moves_handles_with_the_bytes_around_them():
    record = _synthetic_handles_and_empty_subtree()
    assert record.offsets == (8, 24)
    assert struct.unpack_from("<i", record.payload, 12)[0] == 5
    longer = mutate_field(record, (0,), "long_64k")
    assert longer.offsets == (65540, 65556)
    assert struct.unpack_from("<i", longer.payload, 65544)[0] == 1  # the BOOL, normalized
    doubled = mutate_structural(record, (1,), "duplicate_subtree")
    assert doubled.offsets == (8, 16, 32)
    dropped = mutate_structural(record, (1,), "remove_subtree")
    assert dropped.offsets == (16,)
    seed_bytes = _rebuild(decompose(record)).buffer
    for mutation_id in ("duplicate_subtree", "remove_subtree"):
        unchanged = mutate_structural(record, (2,), mutation_id)
        assert (unchanged.payload, unchanged.offsets) == (seed_bytes, record.offsets)


def test_a_handle_the_rebuild_refuses_fails_at_the_seeds_first_case():
    record = _synthetic_handles_and_empty_subtree()
    bad = record.payload[:8] + struct.pack("<i", -5) + record.payload[12:]
    cases = semi_valid_cases(record._replace(payload=bad))
    with pytest.raises(CapacityError, match="handle out of range: -5"):
        next(cases)


def test_empty_policy_covers_every_method_once(corpus):
    cases = list(generate_campaign(corpus, "empty", 100, 1))
    assert len(cases) == 11
    assert [(c.descriptor, c.code) for c in cases] == [(d, c) for d, c, _ in all_methods()]
    assert all(c.payload == b"" and c.policy is Policy.EMPTY for c in cases)


def test_random_policy_round_robins_with_the_length_cycle(corpus):
    cases = list(generate_campaign(corpus, "random", 23, 5))
    methods = all_methods()
    for i, case in enumerate(cases):
        descriptor, code, _name = methods[i % 11]
        assert (case.descriptor, case.code) == (descriptor, code)
        expected_length = RANDOM_LENGTH_CYCLE[(i // 11) % len(RANDOM_LENGTH_CYCLE)]
        assert len(case.payload) == expected_length


def test_policies_concatenate_in_order(monkeypatch, corpus):
    built = []
    monkeypatch.setattr(mutator, "make_random", lambda *args: built.append(args) or make_random(*args))
    cases = list(generate_campaign(corpus, ["empty", "random"], 15, 1))
    assert [c.policy for c in cases[:11]] == [Policy.EMPTY] * 11
    assert [c.policy for c in cases[11:]] == [Policy.RANDOM] * 4
    assert [c.case_id for c in cases] == list(range(1, 16))
    assert len(built) == 4  # no 16th case is built past the budget


def test_finite_policies_run_before_random_in_the_order_given(corpus):
    cases = list(generate_campaign(corpus, ["random", "semi-valid", "empty"], 400, 1))
    assert [c.policy for c in cases] == [Policy.SEMI_VALID] * 349 + [Policy.EMPTY] * 11 + [Policy.RANDOM] * 40
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
    [(["empty", "empty"], "EMPTY"), (["semi-valid", "SEMI_VALID"], "SEMI_VALID"), ([Policy.RANDOM, "empty", "random"], "RANDOM")],
)
def test_a_repeated_policy_is_refused(corpus, policy, repeated):
    with pytest.raises(ConfigurationError, match=r"^policy %s is given more than once$" % repeated):
        generate_campaign(corpus, policy, 100, 1)


def test_policy_spellings_normalize(corpus):
    for spelling in ("semi-valid", "SEMI_VALID", Policy.SEMI_VALID, "Semi-Valid"):
        case = next(iter(generate_campaign(corpus, spelling, 1, 1)))
        assert case.policy is Policy.SEMI_VALID


# -- a rebuild property -----------------------------------------------------------------


@given(st.lists(st.integers(I32_MIN, I32_MAX), min_size=1, max_size=8), st.data())
@settings(max_examples=100)
def test_every_int_mutation_yields_a_decodable_payload(values, data):
    payload = Parcel()
    for value in values:
        payload.write_value(Kind.I32, value)
    trace = TraceNode(
        COMPOSITE,
        "request",
        0,
        len(values) * 4,
        [TraceNode("I32", "", i * 4, i * 4 + 4) for i in range(len(values))],
    )
    record = SeedRecord(
        0, "synthetic", "svc.queue", 1, 1, payload.buffer, (), trace, (), (), "OK"
    )
    index = data.draw(st.integers(0, len(values) - 1))
    mutation = data.draw(st.sampled_from(INT_MUTATIONS))
    case = mutate_field(record, (index,), mutation)
    reader = Parcel(case.payload)
    out = [reader.read_value(Kind.I32) for _ in values]
    assert reader.remaining() == 0
    for i, (before, after) in enumerate(zip(values, out)):
        if i != index:
            assert before == after
