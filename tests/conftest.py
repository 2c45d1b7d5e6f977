import collections
import functools
import itertools
import random

import pytest

from parcelfuzz.harness import build_manifest, manifest_fingerprints
from parcelfuzz.mutator import _spliced_case, _splices
from parcelfuzz.parcel import HANDLE, Parcel
from parcelfuzz.recorder import SCENARIOS, RecordingClient, build_dependency_graph, record_session
from watched_parcel import methods_that_read_nothing


def semi_valid_cases(record, case_ids=None):
    """Every semi-valid case for one seed, made from that seed alone:
    leaf sweeps, then structural.  The reference that generate_campaign's
    semi-valid stream, which reuses the splices of a seed whose content
    it has seen, is checked against.  Each case takes its case_id from
    case_ids as it is built (0 without)."""
    if case_ids is None:
        case_ids = itertools.repeat(0)
    for splice in _splices(record):
        yield _spliced_case(record, splice, next(case_ids))


def rebuild(leaves):
    """The reference encoder: the parcel the parcel writer makes of
    leaves, each with a kind and a value, written one after another, and
    each leaf's [start, end) in it.  A canonical seed is what this writes
    for its decomposed leaves."""
    parcel = Parcel()
    spans = []
    for leaf in leaves:
        start = len(parcel)
        if leaf.kind == HANDLE:
            parcel.write_handle(leaf.value)
        else:
            parcel.write_value(leaf.kind, leaf.value)
        spans.append((start, len(parcel)))
    return parcel, spans


@pytest.fixture(scope="session")
def corpus():
    """The full shipped scenario set, recorded once per test run."""
    return record_session(["all"])


@pytest.fixture(scope="session")
def shuffled_corpus_of():
    """shuffled_corpus_of(seed, copies=4): copies of every scenario in the
    order random.Random(seed) shuffles them into, recorded once per seed
    and count: with four copies, 76 records, several audio sessions whose
    supports interleave with other scenarios."""

    @functools.cache
    def record(seed, copies=4):
        names = [name for name in SCENARIOS for _ in range(copies)]
        random.Random(seed).shuffle(names)
        return record_session(names)

    return record


@pytest.fixture(scope="session")
def shuffled_corpus(shuffled_corpus_of):
    return shuffled_corpus_of(11)


@pytest.fixture(scope="session")
def eight_copy_corpus(shuffled_corpus_of):
    """Eight copies of every scenario: 152 records."""
    return shuffled_corpus_of(11, 8)


@pytest.fixture(scope="session")
def graph(corpus):
    return build_dependency_graph(corpus)


@pytest.fixture(scope="session")
def read_nothing():
    """The hosted methods whose handlers read nothing of a request."""
    return methods_that_read_nothing()


@pytest.fixture(scope="session")
def manifest():
    return build_manifest()


@pytest.fixture(scope="session")
def manifest_fps(manifest):
    return manifest_fingerprints(manifest)


@pytest.fixture(scope="session")
def semi_valid_case():
    """case(record, field_path, mutation_id, case_id=0): the case that
    semi_valid_cases(record) builds for that field and mutation."""

    def case(record, field_path, mutation_id, case_id=0):
        wanted = (field_path, mutation_id)
        found = next(c for c in semi_valid_cases(record) if (c.field_path, c.mutation_id) == wanted)
        return found._replace(case_id=case_id)

    return case


@pytest.fixture(scope="session")
def replay_seed():
    """replay_seed(session, seq): the reply of record seq, replayed
    unmutated on session once its supports have run there."""

    def replay(session, seq):
        session.ensure_supports(seq)
        return session._execute_record(session.prepared.records[seq])[1]

    return replay


@pytest.fixture(scope="session")
def trace_leaves():
    """leaves(node): the leaves of a trace tree, depth-first."""

    def leaves(node):
        if node.is_leaf:
            return [node]
        return [leaf for child in node.children for leaf in leaves(child)]

    return leaves


class KeepingClient(RecordingClient):
    """A RecordingClient that also keeps each parcel it sends, in order:
    sent[i] is the parcel records[i] was recorded from."""

    def __init__(self, router):
        super().__init__(router)
        self.sent = []

    def transact(self, handle, code, data):
        self.sent.append(data)
        return super().transact(handle, code, data)


@pytest.fixture
def parcel_writes(monkeypatch):
    """writes[parcel]: every (kind, start, end) written to parcel from here
    on, in order, as the writer measured it, [] for a parcel never
    written: the ground truth a reader's trace is checked against."""
    writes = collections.defaultdict(list)
    write_value, write_handle = Parcel.write_value, Parcel.write_handle

    def logged(write, kind):
        def wrapper(parcel, *args):
            start = len(parcel)
            write(parcel, *args)
            writes[parcel].append((kind or args[0], start, len(parcel)))
            return parcel

        return wrapper

    monkeypatch.setattr(Parcel, "write_value", logged(write_value, None))
    monkeypatch.setattr(Parcel, "write_handle", logged(write_handle, HANDLE))
    return writes
