"""Fuzz case generation: empty, random, and one-field-off semi-valid.

The semi-valid policy is the interesting one.  A recorded seed is
decomposed into its primitive leaves using the type trace captured at
record time, exactly one leaf gets one mutation from a fixed versioned
catalog, and the payload is what re-serializing the edited leaf list
would write, so length prefixes, padding, and the handle-offsets table
come out right.  Each integer and string mutation is declared once, as
a table entry that makes the new value from the old, and the tables'
keys are the catalog's lists.  A seed's cases depend on its content
alone (descriptor, code, payload and trace), and a campaign decomposes
and re-serializes each distinct content once, keeping every leaf's byte
range.  A case is a splice of those bytes: only the edited leaf is
encoded, to go in place of the original, and the handle offsets after
it move by the change in length.  A later seed of the same content makes
its cases from the first one's splices.  Every leaf encodes to a
multiple of four bytes wherever it sits, so the splice writes the same
bytes a full rebuild would.  The two declared-length mutations exist to
lie about framing: they patch the edited leaf's length prefix after
encoding it and are flagged frame_breaking, as are the structural
mutations, which copy or drop a subtree's contiguous byte range or
re-encode a bundle entry's tag.

Payloads are ``bytes`` from the seed to the dispatched parcel: a case is
built as bytes and materialized from them.  Hex appears only where a case
or a seed is written to or read from JSON (``payload_hex`` in corpus and
report files).

Campaign enumeration is a pure function of (corpus, policies, budget,
rng_seed, catalog version): seeds ascending, leaves in depth-first order,
mutations in catalog order, then each seed's structural mutations; EMPTY
is one case per registry method; RANDOM round-robins the registry with a
fixed length cycle and per-case sub-seeds.  A RANDOM payload is the
SHAKE-128 digest of its sub-seed's shortest signed little-endian bytes,
so it depends on the sub-seed alone, sign included, on every Python
version.  The finite policies run before RANDOM, which fills the budget.
"""

from __future__ import annotations

import binascii
import hashlib
import itertools
import math
import re
import struct
import sys
from bisect import bisect_left
from types import NoneType
from typing import Iterator, NamedTuple

from .parcel import BOOL, BYTES, F64, HANDLE, I32, I32_MAX, I64, STRING, Parcel, _check_offsets
from .recorder import SeedRecord, TraceNode, _excerpt, _field, _items
from .services import TAG_NAMES, all_methods

CATALOG_VERSION = "catalog-v2"

RANDOM_LENGTH_CYCLE = (0, 4, 16, 64, 256, 4096)
MAX_RANDOM_LENGTH = 65536
LONG_STRING_LENGTH = 65536

_ENTRY_LABEL = re.compile(r"^Bundle\.entry\[\d+\]$")


# Policies, as case and report files name them.
EMPTY, RANDOM, SEMI_VALID = "EMPTY", "RANDOM", "SEMI_VALID"
POLICIES = (EMPTY, RANDOM, SEMI_VALID)


class ConfigurationError(Exception):
    """The campaign request itself is unusable (bad budget, missing corpus)."""


# Catalog order is load-bearing: campaign case numbering follows it.
# Each mutation is declared once, by what it makes of the leaf's value.
# An integer mutation is given the value and the high bit of its width,
# and what it returns is wrapped to that width.
INT_VALUES = {
    "plus_one": lambda value, high_bit: value + 1,
    "minus_one": lambda value, high_bit: value - 1,
    "zero": lambda value, high_bit: 0,
    "max": lambda value, high_bit: high_bit - 1,
    "min": lambda value, high_bit: -high_bit,
    "negate": lambda value, high_bit: -value,
    "flip_high_bit": lambda value, high_bit: value ^ high_bit,
}
INT_MUTATIONS = tuple(INT_VALUES)
F64_VALUES = {
    "zero": 0.0,
    "nan": math.nan,
    "pos_inf": math.inf,
    "neg_inf": -math.inf,
    "max": 1.7976931348623157e308,
    "min_positive": 5e-324,
}
F64_MUTATIONS = tuple(F64_VALUES)
# Content of the invalid_utf8 mutation: an encoded surrogate, which no
# UTF-8 decoder accepts.  A bytes value is written as a BYTES leaf, whose
# framing is a string's.
INVALID_UTF8_BYTES = b"\xed\xa0\x80"
# declared_length_plus_4 keeps the value; its lie is patched into the
# length prefix after encoding (see FRAME_BREAKING_MUTATIONS).
STRING_VALUES = {
    "empty": lambda value: "",
    "long_64k": lambda value: "A" * LONG_STRING_LENGTH,
    "embedded_nul": lambda value: value[: len(value) // 2] + "\x00" + value[len(value) // 2 :],
    "invalid_utf8": lambda value: INVALID_UTF8_BYTES,
    "format_specials": lambda value: "%s%n%x",
    "declared_length_plus_4": lambda value: value,
}
STRING_MUTATIONS = tuple(STRING_VALUES)
BYTES_MUTATIONS = ("truncate_half", "declared_length_max")
HANDLE_MUTATIONS = ("zero_handle", "huge_handle", "cross_service_swap")
STRUCTURAL_MUTATIONS = ("duplicate_subtree", "remove_subtree")

# BOOL rides the integer list: it is an I32 on the wire.
CATALOG: dict[str, tuple[str, ...]] = {
    I32: INT_MUTATIONS,
    I64: INT_MUTATIONS,
    BOOL: INT_MUTATIONS,
    F64: F64_MUTATIONS,
    STRING: STRING_MUTATIONS,
    BYTES: BYTES_MUTATIONS,
    HANDLE: HANDLE_MUTATIONS,
}

FRAME_BREAKING_MUTATIONS = {"declared_length_plus_4", "declared_length_max"}


class FuzzCase(NamedTuple):
    """One dispatchable input, with provenance when a seed was involved.

    slot_overrides maps handle-slot byte positions to materialization
    directives: "pin" keeps the mutated slot bytes as they are, and
    "swap:<descriptor>" asks for a live handle of that service instead of
    the recorded one.  Every other offsets slot is patched with its live
    handle as usual.

    A case is a plain immutable tuple.  Every generated case is built,
    whether or not the harness dispatches it.  The generators build only
    consistent cases; ``from_json``, the one place a case comes from
    outside, checks what a saved case can get wrong.
    """

    case_id: int
    policy: str
    descriptor: str
    code: int
    payload: bytes
    offsets: tuple[int, ...]
    seed_seq: int | None = None
    field_path: tuple[int, ...] | None = None
    mutation_id: str | None = None
    frame_breaking: bool = False
    slot_overrides: tuple[tuple[int, str], ...] = ()

    def to_json(self) -> dict:
        return {
            "case_id": self.case_id,
            "policy": self.policy,
            "descriptor": self.descriptor,
            "code": self.code,
            "payload_hex": self.payload.hex(),
            "offsets": list(self.offsets),
            "seed_seq": self.seed_seq,
            "field_path": list(self.field_path) if self.field_path is not None else None,
            "mutation_id": self.mutation_id,
            "frame_breaking": self.frame_breaking,
            "slot_overrides": [[pos, directive] for pos, directive in self.slot_overrides],
        }

    @classmethod
    def from_json(cls, obj) -> "FuzzCase":
        """Parse a saved case.

        Refuses, with a ValueError that names the field, what no
        generated case holds: a field of the wrong JSON type, handle
        offsets that are not 4-aligned, ascending and inside the payload,
        a slot override that is not a ``pin`` or ``swap:<descriptor>``
        directive on one of those offsets, and provenance that does not
        fit the policy: a SEMI_VALID case names a seed, a path and a
        mutation, and a case of another policy names none of them.
        """
        if type(obj) is not dict:
            raise ValueError("case is not an object: %s" % _excerpt(obj))
        try:
            payload = binascii.unhexlify(_field(obj, "payload_hex", (str,), "case", ValueError))
        except ValueError as exc:
            raise ValueError("case payload_hex is not hex: %s" % exc) from None
        offsets = tuple(_items(obj, "offsets", (int,), "case", ValueError))
        try:
            _check_offsets(offsets, len(payload))
        except ValueError as exc:
            raise ValueError("case offsets: %s" % exc) from None
        overrides: dict[int, str] = {}
        for pair in _field(obj, "slot_overrides", (list,), "case", ValueError, []):
            if not (
                type(pair) is list
                and len(pair) == 2
                and type(pair[0]) is int
                and pair[0] in offsets
                and pair[0] not in overrides
                and type(pair[1]) is str
                and (pair[1] == "pin" or (pair[1].startswith("swap:") and len(pair[1]) > 5))
            ):
                raise ValueError(
                    "case slot override %s is not one pin or swap:<descriptor> on a handle offset" % _excerpt(pair)
                )
            overrides[pair[0]] = pair[1]
        field_path = _field(obj, "field_path", (list, NoneType), "case", ValueError, None)
        if field_path is not None:
            field_path = tuple(_items(obj, "field_path", (int,), "case", ValueError))
        case = cls(
            case_id=_field(obj, "case_id", (int,), "case", ValueError),
            policy=_case_policy(obj),
            descriptor=_field(obj, "descriptor", (str,), "case", ValueError),
            code=_field(obj, "code", (int,), "case", ValueError),
            payload=payload,
            offsets=offsets,
            seed_seq=_field(obj, "seed_seq", (int, NoneType), "case", ValueError, None),
            field_path=field_path,
            mutation_id=_field(obj, "mutation_id", (str, NoneType), "case", ValueError, None),
            frame_breaking=_field(obj, "frame_breaking", (bool,), "case", ValueError, False),
            slot_overrides=tuple(overrides.items()),
        )
        provenance = (case.seed_seq, case.field_path, case.mutation_id)
        if case.policy == SEMI_VALID:
            if None in provenance:
                raise ValueError("SEMI_VALID cases reference a seed, a path, and a mutation")
        elif provenance != (None, None, None):
            raise ValueError("%s cases reference no seed" % case.policy)
        return case


def _case_policy(obj: dict) -> str:
    """A saved case's policy: one of POLICIES, as written."""
    policy = _field(obj, "policy", (str,), "case", ValueError)
    if policy not in POLICIES:
        raise ValueError("%r is not a valid Policy" % policy)
    return policy


# ---------------------------------------------------------------------------
# Decomposition and re-serialization.
# ---------------------------------------------------------------------------


class _Leaf(NamedTuple):
    kind: str
    path: tuple[int, ...]
    value: object


_I32 = struct.Struct("<i")
_FIXED_CODECS = {I32: _I32, I64: struct.Struct("<q"), F64: struct.Struct("<d"), BOOL: _I32, HANDLE: _I32}


def _decode_leaf(buf: bytes, node: TraceNode) -> object:
    codec = _FIXED_CODECS.get(node.kind)
    if codec is not None:
        return codec.unpack_from(buf, node.start)[0]
    declared = _I32.unpack_from(buf, node.start)[0]
    content = buf[node.start + 4 : node.start + 4 + declared]
    if node.kind == STRING:
        return content.decode("utf-8")
    return content


def decompose(record: SeedRecord) -> list[_Leaf]:
    """Seed payload as an ordered list of typed leaf values."""
    buf = record.payload
    leaves: list[_Leaf] = []

    def walk(node: TraceNode, path: tuple[int, ...]) -> None:
        if node.is_leaf:
            leaves.append(_Leaf(node.kind, path, _decode_leaf(buf, node)))
            return
        for i, child in enumerate(node.children):
            walk(child, path + (i,))

    walk(record.trace, ())
    return leaves


def _write_leaf(parcel: Parcel, kind: str, value) -> None:
    if kind == HANDLE:
        parcel.write_handle(value)
    else:
        parcel.write_value(kind, value)


def _rebuild(leaves) -> tuple[Parcel, list[tuple[int, int]]]:
    """The parcel leaves encode to, and each leaf's [start, end) in it."""
    parcel = Parcel()
    spans = []
    for leaf in leaves:
        start = len(parcel)
        _write_leaf(parcel, leaf.kind, leaf.value)
        spans.append((start, len(parcel)))
    return parcel, spans


def _encode_leaf(kind: str, value) -> bytes:
    """What _rebuild writes for one leaf, on its own."""
    parcel = Parcel()
    _write_leaf(parcel, kind, value)
    return parcel.buffer


# long_64k makes one value whatever the leaf held; its 64 KiB encoding is
# made once, not once per case.
_LONG_64K_LEAF = _encode_leaf(STRING, STRING_VALUES["long_64k"](""))


class _SeedEncoding(NamedTuple):
    """A seed's identity rebuild, made once and shared by all its cases;
    spans[i] is the [start, end) of leaves[i] in payload, and
    subtrees[path] the composite node at path with its [first, past) leaf
    indices, every composite in pre-order."""

    leaves: list[_Leaf]
    payload: bytes
    spans: list[tuple[int, int]]
    offsets: tuple[int, ...]
    subtrees: dict[tuple[int, ...], tuple[TraceNode, int, int]]


def _encode_seed(record: SeedRecord) -> _SeedEncoding:
    leaves = decompose(record)
    parcel, spans = _rebuild(leaves)
    return _SeedEncoding(leaves, parcel.buffer, spans, tuple(parcel.offsets), _subtrees(record.trace))


def _subtrees(trace: TraceNode) -> dict[tuple[int, ...], tuple[TraceNode, int, int]]:
    """Every composite node with its [first, past) leaf indices, by path,
    in pre-order: one walk of the trace."""
    subtrees: dict[tuple[int, ...], tuple[TraceNode, int, int]] = {}
    _add_subtrees(trace, (), 0, subtrees)
    return subtrees


def _add_subtrees(node: TraceNode, path: tuple[int, ...], first: int, subtrees: dict) -> int:
    """Add node's composites, each beside its leaf range, node's first
    leaf having index first; returns the index past its last leaf."""
    if node.is_leaf:
        return first + 1
    subtrees[path] = None  # holds path's pre-order place until its range is known
    past = first
    for i, child in enumerate(node.children):
        past = _add_subtrees(child, path + (i,), past, subtrees)
    subtrees[path] = (node, first, past)
    return past


# ---------------------------------------------------------------------------
# Leaf mutations.
# ---------------------------------------------------------------------------


class _Splice(NamedTuple):
    """One semi-valid case as an edit of its seed's re-encoded payload:
    insert replaces payload[start:end], and the rest is the case's own."""

    start: int
    insert: bytes
    end: int
    offsets: tuple[int, ...]
    field_path: tuple[int, ...]
    mutation_id: str
    frame_breaking: bool
    slot_overrides: tuple[tuple[int, str], ...]


def _spliced_case(record: SeedRecord, base: bytes, splice: _Splice, case_id: int) -> FuzzCase:
    """The case splice makes of record, whose re-encoded payload is base."""
    start, insert, end, offsets, field_path, mutation_id, frame_breaking, slot_overrides = splice
    payload = b"".join((base[:start], insert, base[end:]))
    return tuple.__new__(FuzzCase, (
        case_id, SEMI_VALID, record.descriptor, record.code, payload, offsets,
        record.seq, field_path, mutation_id, frame_breaking, slot_overrides,
    ))


def _mutate_leaf(record: SeedRecord, seed: _SeedEncoding, index: int, mutation_id: str) -> _Splice:
    """One catalog mutation applied to leaves[index] of an encoded seed:
    only the edited leaf is encoded, to go in place of the original."""
    leaf = seed.leaves[index]
    kind, value = leaf.kind, leaf.value
    slot_directive = None
    patch = None
    encoded = None

    if kind in (I32, BOOL, I64):
        high_bit = 1 << (63 if kind == I64 else 31)
        value = ((INT_VALUES[mutation_id](value, high_bit) + high_bit) & (2 * high_bit - 1)) - high_bit
    elif kind == F64:
        value = F64_VALUES[mutation_id]
    elif kind == STRING:
        if mutation_id == "long_64k":
            encoded = _LONG_64K_LEAF
        else:
            value = STRING_VALUES[mutation_id](value)
            if type(value) is bytes:
                kind = BYTES
            elif mutation_id == "declared_length_plus_4":
                patch = "plus_4"
    elif kind == BYTES:
        if mutation_id == "truncate_half":
            value = value[: len(value) // 2]
        else:
            patch = "max"
    else:  # HANDLE
        if mutation_id == "zero_handle":
            value = 0
            slot_directive = "pin"
        elif mutation_id == "huge_handle":
            value = I32_MAX
            slot_directive = "pin"
        else:
            slot_directive = "swap:%s" % ("svc.queue" if record.descriptor != "svc.queue" else "svc.audio")

    start, end = seed.spans[index]
    if encoded is None:
        encoded = _encode_leaf(kind, value)
    if patch is not None:
        declared = _I32.unpack_from(encoded)[0]
        encoded = _I32.pack(declared + 4 if patch == "plus_4" else I32_MAX) + encoded[4:]
    offsets = seed.offsets
    delta = len(encoded) - (end - start)
    if delta:  # a STRING or BYTES leaf: no handle inside, the ones after it move
        past = bisect_left(offsets, end)
        offsets = offsets[:past] + tuple(pos + delta for pos in offsets[past:])

    return _Splice(
        start,
        encoded,
        end,
        offsets,
        leaf.path,
        mutation_id,
        mutation_id in FRAME_BREAKING_MUTATIONS,
        ((start, slot_directive),) if slot_directive is not None else (),
    )


# ---------------------------------------------------------------------------
# Structural mutations.
# ---------------------------------------------------------------------------


def _structural_mutations(record: SeedRecord, node: TraceNode) -> list[str]:
    """Catalog entries applicable to a composite node of record, in order."""
    out = list(STRUCTURAL_MUTATIONS)
    if _ENTRY_LABEL.match(node.label) and len(node.children) >= 2:
        tag_leaf = node.children[1]
        if tag_leaf.is_leaf and tag_leaf.kind == I32:
            current = _I32.unpack_from(record.payload, tag_leaf.start)[0]
            out.extend("tag_swap_to_%d" % t for t in sorted(TAG_NAMES) if t != current)
    return out


def _mutate_subtree(seed: _SeedEncoding, path: tuple[int, ...], mutation_id: str) -> _Splice:
    """Subtree duplication or removal, or a bundle-entry tag rewrite, on
    an encoded seed.  A subtree's leaves are contiguous in depth-first
    order, so its bytes are one range of the seed's: duplication repeats
    the range, removal drops it, and a tag swap re-encodes the one tag
    leaf.  A subtree with no leaves leaves the seed encoding as it is."""
    offsets = seed.offsets
    _node, first_leaf, past_leaf = seed.subtrees[path]
    start = end = 0
    insert = b""

    if mutation_id in STRUCTURAL_MUTATIONS:
        if past_leaf > first_leaf:
            start, end = seed.spans[first_leaf][0], seed.spans[past_leaf - 1][1]
            first, past = bisect_left(offsets, start), bisect_left(offsets, end)
            width = end - start
            if mutation_id == "duplicate_subtree":
                insert, start = seed.payload[start:end], end  # the copy goes in after the range
                offsets = offsets[:past] + tuple(pos + width for pos in offsets[first:])
            else:
                offsets = offsets[:first] + tuple(pos - width for pos in offsets[past:])
    else:
        tag_path = path + (1,)
        tag_index = next(i for i in range(first_leaf, past_leaf) if seed.leaves[i].path == tag_path)
        start, end = seed.spans[tag_index]
        insert = _encode_leaf(I32, int(mutation_id.rsplit("_", 1)[1]))

    return _Splice(start, insert, end, offsets, path, mutation_id, True, ())


# ---------------------------------------------------------------------------
# Unstructured policies.
# ---------------------------------------------------------------------------


def make_empty(descriptor: str, code: int, case_id: int = 0) -> FuzzCase:
    return FuzzCase(case_id, EMPTY, descriptor, code, b"", ())


def make_random(descriptor: str, code: int, length: int, rng_seed: int, case_id: int = 0) -> FuzzCase:
    """The RANDOM case of length bytes for a method, from its sub-seed.

    The only builder of a RANDOM case.  Like ``_spliced_case``, it builds
    the FuzzCase positionally, every field given, since a campaign can
    make millions of them.
    """
    if not 0 <= length <= MAX_RANDOM_LENGTH:
        raise ConfigurationError("random payload length %d outside [0, %d]" % (length, MAX_RANDOM_LENGTH))
    # SHAKE-128 of the seed's shortest signed little-endian encoding: any
    # int has exactly one, and hashing it costs far less than seeding a
    # generator.  One RANDOM case in six is empty and needs no hash.
    if length:
        key = rng_seed.to_bytes(((rng_seed if rng_seed >= 0 else ~rng_seed).bit_length() + 8) // 8, "little", signed=True)
        payload = hashlib.shake_128(key).digest(length)
    else:
        payload = b""
    return tuple.__new__(FuzzCase, (case_id, RANDOM, descriptor, code, payload, (), None, None, None, False, ()))


# ---------------------------------------------------------------------------
# Campaign enumeration.
# ---------------------------------------------------------------------------


def _normalize_policies(policy) -> tuple[str, ...]:
    if isinstance(policy, str):
        policy = [policy]
    out = []
    for given in policy:
        p = str(given).strip().upper().replace("-", "_")
        if p not in POLICIES:
            raise ConfigurationError("unknown policy %r" % (given,))
        if p in out:
            raise ConfigurationError("policy %s is given more than once" % p)
        out.append(p)
    if not out:
        raise ConfigurationError("at least one policy is required")
    return tuple(out)


def _splices(record: SeedRecord, seed: _SeedEncoding) -> Iterator[_Splice]:
    """The splice of each of record's semi-valid cases, in case order,
    each made when it is asked for."""
    for index, leaf in enumerate(seed.leaves):
        for mutation_id in CATALOG.get(leaf.kind, ()):
            yield _mutate_leaf(record, seed, index, mutation_id)
    for path, (node, _first, _past) in seed.subtrees.items():
        for mutation_id in _structural_mutations(record, node):
            yield _mutate_subtree(seed, path, mutation_id)


def _policy_stream(policy: str, corpus, rng_seed: int, case_ids: Iterator[int]):
    if policy == EMPTY:
        for descriptor, code, _name in all_methods():
            yield make_empty(descriptor, code, next(case_ids))
    elif policy == RANDOM:
        # Case i of the policy goes to method i mod n, with sub-seed
        # rng_seed * 1_000_003 + i; the length steps through the cycle
        # once per round of the registry.
        methods = all_methods()
        sub_seeds = itertools.count(rng_seed * 1_000_003)
        while True:
            for length in RANDOM_LENGTH_CYCLE:
                for descriptor, code, _name in methods:
                    yield make_random(descriptor, code, length, next(sub_seeds), next(case_ids))
    else:
        # Splices depend on a seed's content alone: the first seed with a
        # content keeps its re-encoded payload and each splice as its case
        # is made, and a later seed of that content builds its cases from
        # them.  The list is stored once every splice is made.
        spliced: dict[tuple, tuple[bytes, list[_Splice]]] = {}
        for record in sorted(corpus, key=lambda r: r.seq):
            content = record.content
            known = spliced.get(content)
            if known is not None:
                base, splices = known
                for splice in splices:
                    yield _spliced_case(record, base, splice, next(case_ids))
                continue
            seed = _encode_seed(record)
            splices = []
            for splice in _splices(record, seed):
                splices.append(splice)
                yield _spliced_case(record, seed.payload, splice, next(case_ids))
            spliced[content] = (seed.payload, splices)


def generate_campaign(corpus, policy, budget: int, rng_seed: int):
    """Ordered, deterministic case stream, truncated at budget.

    EMPTY and SEMI_VALID are finite (the method registry, respectively
    the seed enumeration) and run first, in the order given; RANDOM never
    runs dry, so it runs last and fills the rest of the budget.  case_id
    numbers the combined stream from 1, each case getting its id as it
    is built, and no case past the budget is built.
    """
    policies = _normalize_policies(policy)
    if not 1 <= budget <= sys.maxsize:
        raise ConfigurationError("budget must be in [1, %d], got %d" % (sys.maxsize, budget))
    if SEMI_VALID in policies and not corpus:
        raise ConfigurationError("SEMI_VALID needs a non-empty seed corpus")

    case_ids = itertools.count(1)
    ordered = sorted(policies, key=lambda p: p == RANDOM)  # stable: finite ones keep their order
    streams = (_policy_stream(p, corpus, rng_seed, case_ids) for p in ordered)
    return itertools.islice(itertools.chain.from_iterable(streams), budget)

