"""Fuzz case generation: empty, random, and one-field-off semi-valid.

The semi-valid policy is the interesting one.  A recorded seed is
decomposed into its primitive leaves using the type trace captured at
record time, exactly one leaf gets one mutation from a fixed versioned
catalog, and the whole payload is re-serialized from the leaf list, so
length prefixes, padding, and the handle-offsets table come out right
without any by-hand byte surgery.  The two declared-length mutations are
the exception: they exist to lie about framing, so they patch the length
prefix in place after an identity rebuild and are flagged frame_breaking,
as are the structural mutations (subtree duplication and removal, bundle
tag rewrites), which change the leaf list itself.

Campaign enumeration is a pure function of (corpus, policies, budget,
rng_seed, catalog version): seeds ascending, leaves in depth-first order,
mutations in catalog order, then each seed's structural mutations; EMPTY
is one case per registry method; RANDOM round-robins the registry with a
fixed length cycle and per-case sub-seeds.
"""

from __future__ import annotations

import math
import random
import re
import struct
from dataclasses import dataclass, field
from enum import Enum

from .parcel import I32_MAX, Kind, Parcel
from .recorder import COMPOSITE, SeedRecord, TraceNode
from .services import TAG_NAMES, all_methods

CATALOG_VERSION = "catalog-v1"

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


@dataclass(frozen=True)
class FuzzCase:
    """One dispatchable input, with provenance when a seed was involved.

    slot_overrides maps handle-slot byte positions to materialization
    directives: "pin" keeps the mutated slot bytes as they are, and
    "swap:<descriptor>" asks for a live handle of that service instead of
    the recorded one.  Every other offsets slot is patched from the
    replay handle map as usual.
    """

    case_id: int
    policy: Policy
    descriptor: str
    code: int
    payload_hex: str
    offsets: tuple[int, ...]
    seed_seq: int | None = None
    field_path: tuple[int, ...] | None = None
    mutation_id: str | None = None
    frame_breaking: bool = False
    slot_overrides: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        refs = (self.seed_seq, self.field_path, self.mutation_id)
        if self.policy is Policy.SEMI_VALID:
            if any(r is None for r in refs):
                raise ValueError("SEMI_VALID cases reference a seed, a path, and a mutation")
        elif any(r is not None for r in refs):
            raise ValueError("%s cases reference no seed" % self.policy.value)

    def payload(self) -> Parcel:
        return Parcel.from_hex(self.payload_hex, self.offsets)

    def to_json(self) -> dict:
        return {
            "case_id": self.case_id,
            "policy": self.policy.value,
            "descriptor": self.descriptor,
            "code": self.code,
            "payload_hex": self.payload_hex,
            "offsets": list(self.offsets),
            "seed_seq": self.seed_seq,
            "field_path": list(self.field_path) if self.field_path is not None else None,
            "mutation_id": self.mutation_id,
            "frame_breaking": self.frame_breaking,
            "slot_overrides": [[pos, directive] for pos, directive in self.slot_overrides],
        }

    @classmethod
    def from_json(cls, obj) -> "FuzzCase":
        path = obj.get("field_path")
        return cls(
            case_id=int(obj["case_id"]),
            policy=Policy(obj["policy"]),
            descriptor=str(obj["descriptor"]),
            code=int(obj["code"]),
            payload_hex=str(obj["payload_hex"]),
            offsets=tuple(int(p) for p in obj["offsets"]),
            seed_seq=obj.get("seed_seq"),
            field_path=tuple(path) if path is not None else None,
            mutation_id=obj.get("mutation_id"),
            frame_breaking=bool(obj.get("frame_breaking", False)),
            slot_overrides=tuple((int(p), str(d)) for p, d in obj.get("slot_overrides", ())),
        )


# ---------------------------------------------------------------------------
# Decomposition and re-serialization.
# ---------------------------------------------------------------------------


@dataclass
class _Leaf:
    kind: str
    path: tuple[int, ...]
    value: object
    write_as: str = ""

    def __post_init__(self):
        if not self.write_as:
            self.write_as = self.kind


_FIXED_FORMATS = {"I32": "<i", "I64": "<q", "F64": "<d", "BOOL": "<i", "HANDLE": "<i"}


def _decode_leaf(buf: bytes, node: TraceNode) -> object:
    fmt = _FIXED_FORMATS.get(node.kind)
    if fmt is not None:
        return struct.unpack_from(fmt, buf, node.start)[0]
    declared = struct.unpack_from("<i", buf, node.start)[0]
    content = buf[node.start + 4 : node.start + 4 + declared]
    if node.kind == "STRING":
        return content.decode("utf-8")
    return content


def decompose(record: SeedRecord) -> list[_Leaf]:
    """Seed payload as an ordered list of typed leaf values."""
    buf = bytes.fromhex(record.payload_hex)
    leaves: list[_Leaf] = []

    def walk(node: TraceNode, path: tuple[int, ...]) -> None:
        if node.is_leaf:
            leaves.append(_Leaf(node.kind, path, _decode_leaf(buf, node)))
            return
        for i, child in enumerate(node.children):
            walk(child, path + (i,))

    walk(record.trace, ())
    return leaves


def _rebuild(leaves) -> Parcel:
    parcel = Parcel()
    for leaf in leaves:
        if leaf.kind == "HANDLE":
            parcel.write_handle(leaf.value)
        elif leaf.write_as == "BYTES":
            parcel.write_value(Kind.BYTES, leaf.value)
        else:
            parcel.write_value(Kind(leaf.write_as), leaf.value)
    return parcel


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
    paths: list[tuple[int, ...]] = []

    def walk(node: TraceNode, path: tuple[int, ...]) -> None:
        if node.is_leaf:
            return
        paths.append(path)
        for i, child in enumerate(node.children):
            walk(child, path + (i,))

    walk(record.trace, ())
    return paths


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

    leaves = decompose(record)
    index = next(i for i, leaf in enumerate(leaves) if leaf.path == field_path)
    leaf = leaves[index]
    overrides: list[tuple[int, str]] = []
    patch = None

    if node.kind in ("I32", "BOOL"):
        leaf.value = _mutate_int(leaf.value, mutation_id, 32)
    elif node.kind == "I64":
        leaf.value = _mutate_int(leaf.value, mutation_id, 64)
    elif node.kind == "F64":
        leaf.value = _mutate_f64(leaf.value, mutation_id)
    elif node.kind == "STRING":
        leaf.value, leaf.write_as = _mutate_string(leaf.value, mutation_id)
        if mutation_id == "declared_length_plus_4":
            patch = "plus_4"
    elif node.kind == "BYTES":
        if mutation_id == "truncate_half":
            leaf.value = leaf.value[: len(leaf.value) // 2]
        else:
            patch = "max"
    else:  # HANDLE
        if mutation_id == "zero_handle":
            leaf.value = 0
            overrides.append(("pin",))
        elif mutation_id == "huge_handle":
            leaf.value = I32_MAX
            overrides.append(("pin",))
        else:
            swap_to = "svc.queue" if record.descriptor != "svc.queue" else "svc.audio"
            overrides.append(("swap:%s" % swap_to,))

    parcel = _rebuild(leaves)
    new_start = parcel.write_log[index][1]
    buf = bytearray(parcel.buffer)
    if patch == "plus_4":
        declared = struct.unpack_from("<i", buf, new_start)[0]
        struct.pack_into("<i", buf, new_start, declared + 4)
    elif patch == "max":
        struct.pack_into("<i", buf, new_start, I32_MAX)

    return FuzzCase(
        case_id=case_id,
        policy=Policy.SEMI_VALID,
        descriptor=record.descriptor,
        code=record.code,
        payload_hex=bytes(buf).hex(),
        offsets=tuple(parcel.offsets),
        seed_seq=record.seq,
        field_path=field_path,
        mutation_id=mutation_id,
        frame_breaking=mutation_id in FRAME_BREAKING_MUTATIONS,
        slot_overrides=tuple((new_start, d[0]) for d in overrides),
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
            buf = bytes.fromhex(record.payload_hex)
            current = struct.unpack_from("<i", buf, tag_leaf.start)[0]
            out.extend("tag_swap_to_%d" % t for t in sorted(TAG_NAMES) if t != current)
    return out


def mutate_structural(record: SeedRecord, path, mutation_id: str, case_id: int = 0) -> FuzzCase:
    """Subtree duplication/removal, or a bundle-entry tag rewrite."""
    path = tuple(path)
    if mutation_id not in structural_mutations_for(record, path):
        raise CatalogError("mutation %r does not apply at %r" % (mutation_id, path))

    leaves = decompose(record)
    in_subtree = [i for i, leaf in enumerate(leaves) if leaf.path[: len(path)] == path]
    lo = in_subtree[0] if in_subtree else 0
    hi = in_subtree[-1] + 1 if in_subtree else 0

    if mutation_id == "duplicate_subtree":
        leaves = leaves[:hi] + leaves[lo:hi] + leaves[hi:]
    elif mutation_id == "remove_subtree":
        leaves = leaves[:lo] + leaves[hi:]
    else:
        tag_value = int(mutation_id.rsplit("_", 1)[1])
        tag_path = path + (1,)
        tag_leaf = next(leaf for leaf in leaves if leaf.path == tag_path)
        tag_leaf.value = tag_value

    parcel = _rebuild(leaves)
    return FuzzCase(
        case_id=case_id,
        policy=Policy.SEMI_VALID,
        descriptor=record.descriptor,
        code=record.code,
        payload_hex=parcel.to_hex(),
        offsets=tuple(parcel.offsets),
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
        payload_hex="",
        offsets=(),
    )


def make_random(descriptor: str, code: int, length: int, rng_seed: int, case_id: int = 0) -> FuzzCase:
    if not 0 <= length <= MAX_RANDOM_LENGTH:
        raise ConfigurationError("random payload length %d outside [0, %d]" % (length, MAX_RANDOM_LENGTH))
    payload = random.Random(rng_seed).randbytes(length)
    return FuzzCase(
        case_id=case_id,
        policy=Policy.RANDOM,
        descriptor=descriptor,
        code=code,
        payload_hex=payload.hex(),
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
        if isinstance(p, Policy):
            out.append(p)
        else:
            try:
                out.append(Policy(str(p).strip().upper().replace("-", "_")))
            except ValueError:
                raise ConfigurationError("unknown policy %r" % (p,)) from None
    if not out:
        raise ConfigurationError("at least one policy is required")
    return tuple(out)


def semi_valid_cases(record: SeedRecord):
    """Every semi-valid case for one seed: leaf sweeps, then structural."""
    for path in enumerate_fields(record):
        kind = _node_at(record.trace, path).kind
        for mutation_id in CATALOG.get(kind, ()):
            yield mutate_field(record, path, mutation_id)
    for path in enumerate_composites(record):
        for mutation_id in structural_mutations_for(record, path):
            yield mutate_structural(record, path, mutation_id)


def _policy_stream(policy: Policy, corpus, rng_seed: int):
    if policy is Policy.EMPTY:
        for descriptor, code, _name in all_methods():
            yield make_empty(descriptor, code)
    elif policy is Policy.RANDOM:
        methods = all_methods()
        i = 0
        while True:
            descriptor, code, _name = methods[i % len(methods)]
            length = RANDOM_LENGTH_CYCLE[(i // len(methods)) % len(RANDOM_LENGTH_CYCLE)]
            yield make_random(descriptor, code, length, rng_seed * 1_000_003 + i)
            i += 1
    else:
        for record in sorted(corpus, key=lambda r: r.seq):
            yield from semi_valid_cases(record)


def generate_campaign(corpus, policy, budget: int, rng_seed: int):
    """Ordered, deterministic case stream, truncated at budget.

    Multiple policies concatenate in the order given; case_id numbers the
    combined stream from 1.  EMPTY and SEMI_VALID are finite (the method
    registry, respectively the seed enumeration); RANDOM never runs dry,
    so it is the natural filler when combined with EMPTY.
    """
    policies = _normalize_policies(policy)
    if budget < 1:
        raise ConfigurationError("budget must be at least 1, got %d" % budget)
    if Policy.SEMI_VALID in policies and not corpus:
        raise ConfigurationError("SEMI_VALID needs a non-empty seed corpus")

    def stream():
        case_id = 0
        for p in policies:
            for case in _policy_stream(p, corpus, rng_seed):
                case_id += 1
                if case_id > budget:
                    return
                yield _with_case_id(case, case_id)
            if case_id >= budget:
                return

    return stream()


def _with_case_id(case: FuzzCase, case_id: int) -> FuzzCase:
    return FuzzCase(
        case_id=case_id,
        policy=case.policy,
        descriptor=case.descriptor,
        code=case.code,
        payload_hex=case.payload_hex,
        offsets=case.offsets,
        seed_seq=case.seed_seq,
        field_path=case.field_path,
        mutation_id=case.mutation_id,
        frame_breaking=case.frame_breaking,
        slot_overrides=case.slot_overrides,
    )
