"""Fuzz case generation: empty, random, and one-field-off semi-valid.

The semi-valid policy is the interesting one.  A recorded seed is
decomposed into its primitive leaves using the type trace captured at
record time, exactly one leaf gets one mutation from a fixed versioned
catalog, and the payload is what re-serializing the edited leaf list
would write, so length prefixes, padding, and the handle-offsets table
come out right.  Each seed is decomposed and re-serialized once, keeping
every leaf's byte range; a case then encodes only the edited leaf and
splices it in place of the original, moving the handle offsets after it
by the change in length.  Every leaf encodes to a multiple of four bytes
wherever it sits, so the splice writes the same bytes a full rebuild
would.  The two declared-length mutations exist to lie about framing:
they patch the edited leaf's length prefix after encoding it and are
flagged frame_breaking, as are the structural mutations, which copy or
drop a subtree's contiguous byte range or re-encode a bundle entry's tag.

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
from enum import Enum
from types import NoneType
from typing import Iterator, NamedTuple

from .parcel import I32_MAX, Kind, Parcel, _check_offsets
from .recorder import SeedRecord, TraceNode, _excerpt, _field, _items
from .services import TAG_NAMES, all_methods

CATALOG_VERSION = "catalog-v2"

RANDOM_LENGTH_CYCLE = (0, 4, 16, 64, 256, 4096)
MAX_RANDOM_LENGTH = 65536
LONG_STRING_LENGTH = 65536

_ENTRY_LABEL = re.compile(r"^Bundle\.entry\[\d+\]$")


class Policy(str, Enum):
    EMPTY = "EMPTY"
    RANDOM = "RANDOM"
    SEMI_VALID = "SEMI_VALID"


class CatalogError(Exception):
    """A mutation was requested for a leaf kind it does not apply to."""


class ConfigurationError(Exception):
    """The campaign request itself is unusable (bad budget, missing corpus)."""


# Catalog order is load-bearing: campaign case numbering follows it.
INT_MUTATIONS = ("plus_one", "minus_one", "zero", "max", "min", "negate", "flip_high_bit")
F64_MUTATIONS = ("zero", "nan", "pos_inf", "neg_inf", "max", "min_positive")
STRING_MUTATIONS = (
    "empty",
    "long_64k",
    "embedded_nul",
    "invalid_utf8",
    "format_specials",
    "declared_length_plus_4",
)
BYTES_MUTATIONS = ("truncate_half", "declared_length_max")
HANDLE_MUTATIONS = ("zero_handle", "huge_handle", "cross_service_swap")
STRUCTURAL_MUTATIONS = ("duplicate_subtree", "remove_subtree")

# BOOL rides the integer list: it is an I32 on the wire.
CATALOG: dict[str, tuple[str, ...]] = {
    "I32": INT_MUTATIONS,
    "I64": INT_MUTATIONS,
    "BOOL": INT_MUTATIONS,
    "F64": F64_MUTATIONS,
    "STRING": STRING_MUTATIONS,
    "BYTES": BYTES_MUTATIONS,
    "HANDLE": HANDLE_MUTATIONS,
}

# Content of the invalid_utf8 mutation: an encoded surrogate, which no
# UTF-8 decoder accepts, written with byte-identical framing to a string.
INVALID_UTF8_BYTES = b"\xed\xa0\x80"

FRAME_BREAKING_MUTATIONS = {"declared_length_plus_4", "declared_length_max"}


class _CaseFields(NamedTuple):
    case_id: int
    policy: Policy
    descriptor: str
    code: int
    payload: bytes
    offsets: tuple[int, ...]
    seed_seq: int | None = None
    field_path: tuple[int, ...] | None = None
    mutation_id: str | None = None
    frame_breaking: bool = False
    slot_overrides: tuple[tuple[int, str], ...] = ()


class FuzzCase(_CaseFields):
    """One dispatchable input, with provenance when a seed was involved.

    slot_overrides maps handle-slot byte positions to materialization
    directives: "pin" keeps the mutated slot bytes as they are, and
    "swap:<descriptor>" asks for a live handle of that service instead of
    the recorded one.  Every other offsets slot is patched with its live
    handle as usual.

    A case is an immutable tuple, built once per dispatched case; the
    constructor checks only what ties the provenance fields to the
    policy.  ``from_json`` checks everything else a saved case can get
    wrong.
    """

    __slots__ = ()

    def __new__(
        cls,
        case_id: int,
        policy: Policy,
        descriptor: str,
        code: int,
        payload: bytes,
        offsets: tuple[int, ...],
        seed_seq: int | None = None,
        field_path: tuple[int, ...] | None = None,
        mutation_id: str | None = None,
        frame_breaking: bool = False,
        slot_overrides: tuple[tuple[int, str], ...] = (),
    ):
        if policy is Policy.SEMI_VALID:
            if seed_seq is None or field_path is None or mutation_id is None:
                raise ValueError("SEMI_VALID cases reference a seed, a path, and a mutation")
        elif seed_seq is not None or field_path is not None or mutation_id is not None:
            raise ValueError("%s cases reference no seed" % policy.value)
        return tuple.__new__(
            cls,
            (case_id, policy, descriptor, code, payload, offsets, seed_seq, field_path, mutation_id, frame_breaking, slot_overrides),
        )

    @classmethod
    def _make(cls, iterable) -> "FuzzCase":
        # _replace builds through _make; route it through the checks.
        return cls(*iterable)

    def parcel(self) -> Parcel:
        return Parcel(self.payload, self.offsets)

    def to_json(self) -> dict:
        return {
            "case_id": self.case_id,
            "policy": self.policy.value,
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
        and a slot override that is not a ``pin`` or ``swap:<descriptor>``
        directive on one of those offsets.
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
        return cls(
            case_id=_field(obj, "case_id", (int,), "case", ValueError),
            policy=Policy(_field(obj, "policy", (str,), "case", ValueError)),
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


# ---------------------------------------------------------------------------
# Decomposition and re-serialization.
# ---------------------------------------------------------------------------


class _Leaf(NamedTuple):
    kind: str
    path: tuple[int, ...]
    value: object
    write_as: str


_I32 = struct.Struct("<i")
_FIXED_CODECS = {"I32": _I32, "I64": struct.Struct("<q"), "F64": struct.Struct("<d"), "BOOL": _I32, "HANDLE": _I32}


def _decode_leaf(buf: bytes, node: TraceNode) -> object:
    codec = _FIXED_CODECS.get(node.kind)
    if codec is not None:
        return codec.unpack_from(buf, node.start)[0]
    declared = _I32.unpack_from(buf, node.start)[0]
    content = buf[node.start + 4 : node.start + 4 + declared]
    if node.kind == "STRING":
        return content.decode("utf-8")
    return content


def decompose(record: SeedRecord) -> list[_Leaf]:
    """Seed payload as an ordered list of typed leaf values."""
    buf = record.payload
    leaves: list[_Leaf] = []

    def walk(node: TraceNode, path: tuple[int, ...]) -> None:
        if node.is_leaf:
            leaves.append(_Leaf(node.kind, path, _decode_leaf(buf, node), node.kind))
            return
        for i, child in enumerate(node.children):
            walk(child, path + (i,))

    walk(record.trace, ())
    return leaves


# Kind by name, without an Enum call per leaf.
_KIND_NAMED = {kind.value: kind for kind in Kind}


def _write_leaf(parcel: Parcel, kind: str, write_as: str, value) -> None:
    if kind == "HANDLE":
        parcel.write_handle(value)
    else:
        parcel.write_value(_KIND_NAMED[write_as], value)


def _rebuild(leaves) -> Parcel:
    parcel = Parcel()
    for leaf in leaves:
        _write_leaf(parcel, leaf.kind, leaf.write_as, leaf.value)
    return parcel


def _encode_leaf(kind: str, write_as: str, value) -> bytes:
    """What _rebuild writes for one leaf, on its own."""
    parcel = Parcel()
    _write_leaf(parcel, kind, write_as, value)
    return parcel.buffer


class _SeedEncoding(NamedTuple):
    """A seed's identity rebuild, made once and shared by all its cases;
    spans[i] is the [start, end) of leaves[i] in payload, and
    subtrees[path] the [first, past) leaf indices of the composite at
    path, every composite in pre-order."""

    leaves: list[_Leaf]
    payload: bytes
    spans: list[tuple[int, int]]
    offsets: tuple[int, ...]
    subtrees: dict[tuple[int, ...], tuple[int, int]]


def _encode_seed(record: SeedRecord) -> _SeedEncoding:
    leaves = decompose(record)
    parcel = _rebuild(leaves)
    spans = [(start, end) for _kind, start, end in parcel.write_log]
    return _SeedEncoding(leaves, parcel.buffer, spans, tuple(parcel.offsets), _subtrees(record.trace))


def _subtrees(trace: TraceNode) -> dict[tuple[int, ...], tuple[int, int]]:
    """The [first, past) leaf indices of every composite, by path, in
    pre-order: one walk of the trace."""
    subtrees: dict[tuple[int, ...], tuple[int, int]] = {}
    _add_subtrees(trace, (), 0, subtrees)
    return subtrees


def _add_subtrees(node: TraceNode, path: tuple[int, ...], first: int, subtrees: dict) -> int:
    """Add node's composites, its first leaf having index first; returns
    the index past its last leaf."""
    if node.is_leaf:
        return first + 1
    subtrees[path] = None  # holds path's pre-order place until its range is known
    past = first
    for i, child in enumerate(node.children):
        past = _add_subtrees(child, path + (i,), past, subtrees)
    subtrees[path] = (first, past)
    return past


def enumerate_fields(record: SeedRecord) -> list[tuple[int, ...]]:
    """Depth-first, left-to-right paths of every primitive leaf."""
    return [leaf.path for leaf in decompose(record)]


def _node_at(trace: TraceNode, path: tuple[int, ...]) -> TraceNode:
    node = trace
    for index in path:
        try:
            node = node.children[index]
        except (IndexError, TypeError):
            raise CatalogError("path %r does not exist in trace" % (path,)) from None
    return node


def enumerate_composites(record: SeedRecord) -> list[tuple[int, ...]]:
    """Pre-order paths of every composite node, the whole payload first."""
    return list(_subtrees(record.trace))


# ---------------------------------------------------------------------------
# Leaf mutations.
# ---------------------------------------------------------------------------


def _wrap_int(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    unsigned = value & mask
    if unsigned >= 1 << (bits - 1):
        return unsigned - (1 << bits)
    return unsigned


def _mutate_int(value: int, mutation: str, bits: int) -> int:
    if mutation == "plus_one":
        return _wrap_int(value + 1, bits)
    if mutation == "minus_one":
        return _wrap_int(value - 1, bits)
    if mutation == "zero":
        return 0
    if mutation == "max":
        return (1 << (bits - 1)) - 1
    if mutation == "min":
        return -(1 << (bits - 1))
    if mutation == "negate":
        return _wrap_int(-value, bits)
    if mutation == "flip_high_bit":
        return _wrap_int(value ^ (1 << (bits - 1)), bits)
    raise CatalogError("unknown integer mutation %r" % mutation)


def _mutate_f64(value: float, mutation: str) -> float:
    table = {
        "zero": 0.0,
        "nan": math.nan,
        "pos_inf": math.inf,
        "neg_inf": -math.inf,
        "max": 1.7976931348623157e308,
        "min_positive": 5e-324,
    }
    try:
        return table[mutation]
    except KeyError:
        raise CatalogError("unknown F64 mutation %r" % mutation) from None


def _mutate_string(value: str, mutation: str) -> tuple[object, str]:
    """Returns (new value, write_as kind name)."""
    if mutation == "empty":
        return "", "STRING"
    if mutation == "long_64k":
        return "A" * LONG_STRING_LENGTH, "STRING"
    if mutation == "embedded_nul":
        mid = len(value) // 2
        return value[:mid] + "\x00" + value[mid:], "STRING"
    if mutation == "invalid_utf8":
        return INVALID_UTF8_BYTES, "BYTES"
    if mutation == "format_specials":
        return "%s%n%x", "STRING"
    if mutation == "declared_length_plus_4":
        return value, "STRING"
    raise CatalogError("unknown STRING mutation %r" % mutation)


def mutate_field(record: SeedRecord, field_path, mutation_id: str, case_id: int = 0) -> FuzzCase:
    """One catalog mutation applied to one leaf, everything else re-encoded as was."""
    field_path = tuple(field_path)
    node = _node_at(record.trace, field_path)
    if not node.is_leaf:
        raise CatalogError("path %r is a composite; use mutate_structural" % (field_path,))
    allowed = CATALOG.get(node.kind, ())
    if mutation_id not in allowed:
        raise CatalogError("mutation %r does not apply to %s" % (mutation_id, node.kind))

    seed = _encode_seed(record)
    index = next(i for i, leaf in enumerate(seed.leaves) if leaf.path == field_path)
    return _mutate_leaf(record, seed, index, mutation_id, case_id)


def _mutate_leaf(record: SeedRecord, seed: _SeedEncoding, index: int, mutation_id: str, case_id: int = 0) -> FuzzCase:
    """mutate_field on an already encoded seed: only the edited leaf is
    encoded, and spliced into the seed's bytes in place of the original."""
    leaf = seed.leaves[index]
    kind = leaf.kind
    value, write_as = leaf.value, leaf.write_as
    slot_directive = None
    patch = None

    if kind in ("I32", "BOOL"):
        value = _mutate_int(value, mutation_id, 32)
    elif kind == "I64":
        value = _mutate_int(value, mutation_id, 64)
    elif kind == "F64":
        value = _mutate_f64(value, mutation_id)
    elif kind == "STRING":
        value, write_as = _mutate_string(value, mutation_id)
        if mutation_id == "declared_length_plus_4":
            patch = "plus_4"
    elif kind == "BYTES":
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
    encoded = _encode_leaf(kind, write_as, value)
    if patch is not None:
        declared = _I32.unpack_from(encoded)[0]
        encoded = _I32.pack(declared + 4 if patch == "plus_4" else I32_MAX) + encoded[4:]
    offsets = seed.offsets
    delta = len(encoded) - (end - start)
    if delta:  # a STRING or BYTES leaf: no handle inside, the ones after it move
        past = bisect_left(offsets, end)
        offsets = offsets[:past] + tuple(pos + delta for pos in offsets[past:])

    return FuzzCase(
        case_id=case_id,
        policy=Policy.SEMI_VALID,
        descriptor=record.descriptor,
        code=record.code,
        payload=seed.payload[:start] + encoded + seed.payload[end:],
        offsets=offsets,
        seed_seq=record.seq,
        field_path=leaf.path,
        mutation_id=mutation_id,
        frame_breaking=mutation_id in FRAME_BREAKING_MUTATIONS,
        slot_overrides=((start, slot_directive),) if slot_directive is not None else (),
    )


# ---------------------------------------------------------------------------
# Structural mutations.
# ---------------------------------------------------------------------------


def structural_mutations_for(record: SeedRecord, path) -> list[str]:
    """Catalog entries applicable to the composite at path, in order."""
    node = _node_at(record.trace, tuple(path))
    if node.is_leaf:
        return []
    out = list(STRUCTURAL_MUTATIONS)
    if _ENTRY_LABEL.match(node.label) and len(node.children) >= 2:
        tag_leaf = node.children[1]
        if tag_leaf.is_leaf and tag_leaf.kind == "I32":
            current = _I32.unpack_from(record.payload, tag_leaf.start)[0]
            out.extend("tag_swap_to_%d" % t for t in sorted(TAG_NAMES) if t != current)
    return out


def mutate_structural(record: SeedRecord, path, mutation_id: str, case_id: int = 0) -> FuzzCase:
    """Subtree duplication/removal, or a bundle-entry tag rewrite."""
    path = tuple(path)
    if mutation_id not in structural_mutations_for(record, path):
        raise CatalogError("mutation %r does not apply at %r" % (mutation_id, path))

    return _mutate_subtree(record, _encode_seed(record), path, mutation_id, case_id)


def _mutate_subtree(record: SeedRecord, seed: _SeedEncoding, path: tuple[int, ...], mutation_id: str, case_id: int = 0) -> FuzzCase:
    """mutate_structural on an already encoded seed.  A subtree's leaves
    are contiguous in depth-first order, so its bytes are one range of the
    seed's: duplication repeats the range, removal drops it, and a tag swap
    re-encodes the one tag leaf.  A subtree with no leaves leaves the seed
    encoding as it is."""
    payload, offsets = seed.payload, seed.offsets
    first_leaf, past_leaf = seed.subtrees[path]

    if mutation_id in STRUCTURAL_MUTATIONS:
        if past_leaf > first_leaf:
            start, end = seed.spans[first_leaf][0], seed.spans[past_leaf - 1][1]
            first, past = bisect_left(offsets, start), bisect_left(offsets, end)
            width = end - start
            if mutation_id == "duplicate_subtree":
                payload = payload[:end] + payload[start:]
                offsets = offsets[:past] + tuple(pos + width for pos in offsets[first:])
            else:
                payload = payload[:start] + payload[end:]
                offsets = offsets[:first] + tuple(pos - width for pos in offsets[past:])
    else:
        tag_path = path + (1,)
        tag_index = next(i for i in range(first_leaf, past_leaf) if seed.leaves[i].path == tag_path)
        start, end = seed.spans[tag_index]
        payload = payload[:start] + _encode_leaf("I32", "I32", int(mutation_id.rsplit("_", 1)[1])) + payload[end:]

    return FuzzCase(
        case_id=case_id,
        policy=Policy.SEMI_VALID,
        descriptor=record.descriptor,
        code=record.code,
        payload=payload,
        offsets=offsets,
        seed_seq=record.seq,
        field_path=path,
        mutation_id=mutation_id,
        frame_breaking=True,
    )


# ---------------------------------------------------------------------------
# Unstructured policies.
# ---------------------------------------------------------------------------


def make_empty(descriptor: str, code: int, case_id: int = 0) -> FuzzCase:
    return FuzzCase(
        case_id=case_id,
        policy=Policy.EMPTY,
        descriptor=descriptor,
        code=code,
        payload=b"",
        offsets=(),
    )


def make_random(descriptor: str, code: int, length: int, rng_seed: int, case_id: int = 0) -> FuzzCase:
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
    return FuzzCase(
        case_id=case_id,
        policy=Policy.RANDOM,
        descriptor=descriptor,
        code=code,
        payload=payload,
        offsets=(),
    )


# ---------------------------------------------------------------------------
# Campaign enumeration.
# ---------------------------------------------------------------------------


def _normalize_policies(policy) -> tuple[Policy, ...]:
    if isinstance(policy, (Policy, str)):
        policy = [policy]
    out = []
    for p in policy:
        if not isinstance(p, Policy):
            try:
                p = Policy(str(p).strip().upper().replace("-", "_"))
            except ValueError:
                raise ConfigurationError("unknown policy %r" % (p,)) from None
        if p in out:
            raise ConfigurationError("policy %s is given more than once" % p.value)
        out.append(p)
    if not out:
        raise ConfigurationError("at least one policy is required")
    return tuple(out)


def semi_valid_cases(record: SeedRecord, case_ids: Iterator[int] | None = None):
    """Every semi-valid case for one seed: leaf sweeps, then structural.

    The seed is decomposed and encoded once; each case splices into
    that encoding.  Each case takes its case_id from case_ids as it is
    built (0 without).
    """
    if case_ids is None:
        case_ids = itertools.repeat(0)
    seed = _encode_seed(record)
    for index, leaf in enumerate(seed.leaves):
        for mutation_id in CATALOG.get(leaf.kind, ()):
            yield _mutate_leaf(record, seed, index, mutation_id, next(case_ids))
    for path in seed.subtrees:
        for mutation_id in structural_mutations_for(record, path):
            yield _mutate_subtree(record, seed, path, mutation_id, next(case_ids))


def _policy_stream(policy: Policy, corpus, rng_seed: int, case_ids: Iterator[int]):
    if policy is Policy.EMPTY:
        for descriptor, code, _name in all_methods():
            yield make_empty(descriptor, code, next(case_ids))
    elif policy is Policy.RANDOM:
        methods = all_methods()
        for i in itertools.count():
            descriptor, code, _name = methods[i % len(methods)]
            length = RANDOM_LENGTH_CYCLE[(i // len(methods)) % len(RANDOM_LENGTH_CYCLE)]
            yield make_random(descriptor, code, length, rng_seed * 1_000_003 + i, next(case_ids))
    else:
        for record in sorted(corpus, key=lambda r: r.seq):
            yield from semi_valid_cases(record, case_ids)


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
    if Policy.SEMI_VALID in policies and not corpus:
        raise ConfigurationError("SEMI_VALID needs a non-empty seed corpus")

    case_ids = itertools.count(1)
    ordered = sorted(policies, key=lambda p: p is Policy.RANDOM)  # stable: finite ones keep their order
    streams = (_policy_stream(p, corpus, rng_seed, case_ids) for p in ordered)
    return itertools.islice(itertools.chain.from_iterable(streams), budget)

