"""The premise of the seedless memo, checked from outside the harness.

_answers answers a seedless case from an earlier dispatch of its method
when the payload is empty, or when that dispatch left its parcel
unobserved.  Both rest on two facts: a fresh router's reply depends only
on what it receives, and a service sees a request only through Parcel's
public readers, the ones that set Parcel.observed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parcelfuzz.harness import FuzzConfig, run_fuzz
from parcelfuzz.mutator import RANDOM, RANDOM_LENGTH_CYCLE, FuzzCase
from parcelfuzz.replayer import seedless_transaction
from parcelfuzz.services import SERVICE_CLASSES, all_methods
from watched_parcel import WatchedParcel, dispatch

# Every hosted method, then one code past each service's last method.
TARGETS = (
    *((descriptor, code) for descriptor, code, _name in all_methods()),
    *((cls.DESCRIPTOR, len(cls.REGISTRY.methods) + 1) for cls in SERVICE_CLASSES),
)


def _recorded(corpus, descriptor, code):
    return [r.payload for r in corpus if (r.descriptor, r.code) == (descriptor, code)]


def test_the_methods_that_read_nothing_are_the_queue_readers_and_open_session(read_nothing):
    assert read_nothing == {("svc.queue", 2), ("svc.queue", 3), ("svc.queue", 4), ("svc.audio", 3)}


@pytest.mark.parametrize("descriptor,code", TARGETS)
def test_a_service_sees_a_request_only_through_the_public_readers(corpus, descriptor, code):
    """Every read of a request's bytes, offsets or cursor during dispatch
    is made by Parcel's own code, whatever the payload: empty, random at
    each length a RANDOM case has, or recorded for the method."""
    rng = random.Random(code)
    payloads = [rng.randbytes(length) for length in RANDOM_LENGTH_CYCLE]
    payloads += _recorded(corpus, descriptor, code)
    for payload in payloads:
        data = WatchedParcel(payload)
        dispatch(descriptor, code, data)
        assert [name for name, own in data.looks if not own] == [], "a %d-byte request" % len(payload)


def _seedless_answer(descriptor, code, payload):
    """What a fresh router answers a seedless case of payload, as _answers
    sends it: (kind, message, reply bytes, crash, edges), and whether the
    request was observed."""
    router, txn = seedless_transaction(FuzzCase(0, RANDOM, descriptor, code, payload, ()))
    reply = router.transact(txn)
    answer = (
        reply.kind,
        reply.message,
        None if reply.payload is None else reply.payload.buffer,
        reply.crash,
        router.edges,
    )
    return answer, txn.data.observed


@pytest.mark.parametrize("descriptor,code", TARGETS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_fresh_router_answers_a_seedless_case_from_its_payload_alone(corpus, descriptor, code, data):
    """Differential: the same payload on a fresh router before and after
    a throwaway campaign gets the same answer, and a method that did not
    observe a payload answers it as it answers the empty one."""
    sources = [st.just(b""), st.binary(max_size=512)]
    recorded = _recorded(corpus, descriptor, code)
    if recorded:
        sources.append(st.sampled_from(recorded))
    payload = data.draw(st.one_of(sources), label="payload")

    before, observed = _seedless_answer(descriptor, code, payload)
    run_fuzz(FuzzConfig(policy=["empty", "random"], budget=4 * len(all_methods())))
    after, _observed = _seedless_answer(descriptor, code, payload)
    assert after == before
    if not observed:
        assert _seedless_answer(descriptor, code, b"")[0] == before
