"""Shipped services: wrapper happy paths, client-side checks, seeded defects.

The frame tuples pinned in EXPECTED_CRASH_SHAPE are the ground truth the
whole triage pipeline hangs off: fingerprints hash exactly these frames,
so any accidental change to frame placement shows up here first.
"""

import random
import re

import pytest

from parcelfuzz.parcel import I32_MAX, Kind, Parcel
from parcelfuzz.router import DispatchContext, DuplicateServiceError, Reject, ReplyKind, Transaction
from parcelfuzz.services import (
    SEEDED_BUGS,
    SERVICE_CLASSES,
    TAG_BUNDLE,
    TAG_HANDLE,
    TAG_I32,
    TAG_STRING,
    ActivityClient,
    AudioClient,
    AudioService,
    AudioSession,
    BluetoothClient,
    Client,
    ClientCheckError,
    GraphicsClient,
    MethodRegistry,
    MethodSpec,
    QueueClient,
    QueueService,
    RegistryService,
    ReplyError,
    ViewClient,
    ViewNode,
    all_methods,
    fresh_router,
    write_bundle,
    write_view_node,
)


@pytest.fixture
def router():
    return fresh_router()


@pytest.fixture
def client(router):
    return Client(router, "tester")


def _raw(router, descriptor, code, data, sender="raw"):
    handle = router.get_service(descriptor)
    return router.transact(Transaction(handle, code, data, sender))


# -- wrapper happy paths -------------------------------------------------------


def test_queue_lifecycle(client):
    q = QueueClient(client)
    assert q.add("alpha") is True
    assert q.add("beta") is True
    assert q.peek() == "alpha"
    assert q.poll() == "alpha"
    assert q.remove() is True
    assert q.remove() is False


def test_queue_reads_are_total_on_empty(client):
    q = QueueClient(client)
    assert q.peek() == ""
    assert q.poll() == ""
    assert q.remove() is False


def test_audio_play_and_sessions(client):
    audio = AudioClient(client)
    assert audio.play("track-one") is True
    first_handle, first_index = audio.open_session()
    second_handle, second_index = audio.open_session()
    assert (first_index, second_index) == (0, 1)
    assert first_handle != second_handle
    # the exported session object is live and callable
    from parcelfuzz.services import AudioSession

    reply = client.transact(first_handle, AudioSession.PING, Parcel())
    assert reply.kind is ReplyKind.OK
    assert audio._register_client(first_handle, "monitor") is True


def test_bluetooth_configuration(client):
    bt = BluetoothClient(client)
    assert bt.register_app_configuration(["hfp", "a2dp"]) is True
    assert bt.register_app_configuration([]) is True


def test_view_inflate_counts_nodes(client):
    view = ViewClient(client)
    tree = ViewNode.pair(ViewNode.leaf("header"), ViewNode.leaf("body"))
    assert view.inflate("card", tree) == 3
    assert view.inflate("single", ViewNode.leaf("x")) == 1


def test_graphics_allocation_size(client):
    gfx = GraphicsClient(client)
    assert gfx.create_native_handle("framebuffer", 2, 3) == 12 + 4 * 5


def test_activity_launch_with_nested_extras(client):
    activity = ActivityClient(client)
    extras = [
        ("mode", TAG_I32, 7),
        ("meta", TAG_BUNDLE, [("origin", TAG_STRING, "launcher")]),
    ]
    assert activity.start_activity("app.intent.MAIN", "content://item/1", extras) is True


def test_wrapper_surfaces_non_ok_replies(client):
    with pytest.raises(ReplyError):
        client.get_service("svc.ghost")


# -- client-side validation (refused before any transaction) --------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda c: QueueClient(c).add(7),
        lambda c: AudioClient(c).play(""),
        lambda c: AudioClient(c)._register_client(0, "x"),
        lambda c: AudioClient(c)._register_client(3, ""),
        lambda c: BluetoothClient(c).register_app_configuration(["a"] * 20),
        lambda c: BluetoothClient(c).register_app_configuration(["a"], declared_count=2),
        lambda c: BluetoothClient(c).register_app_configuration([1]),
        lambda c: GraphicsClient(c).create_native_handle("", 1, 1),
        lambda c: GraphicsClient(c).create_native_handle("fb", 65, 0),
        lambda c: GraphicsClient(c).create_native_handle("fb", 0, I32_MAX),
        lambda c: ViewClient(c).inflate(7, ViewNode.leaf("x")),
        lambda c: ActivityClient(c).start_activity("", "uri"),
        lambda c: ActivityClient(c).start_activity("a", "u", [("k", 99, "v")]),
        lambda c: ActivityClient(c).start_activity("a", "u", [(5, TAG_I32, 1)]),
    ],
)
def test_wrapper_checks_refuse_without_transacting(router, build):
    client = Client(router, "tester")
    edges_before = len(router.edges)
    with pytest.raises(ClientCheckError):
        build(client)
    assert len(router.edges) == edges_before


def test_view_writer_depth_limit():
    node = ViewNode.leaf("base")
    for _ in range(16):
        node = ViewNode.pair(node, ViewNode.leaf("pad"))
    with pytest.raises(ClientCheckError):
        write_view_node(Parcel(), node)


def test_bundle_writer_rejects_unknown_tag():
    with pytest.raises(ClientCheckError):
        write_bundle(Parcel(), [("k", 42, None)])


def test_bundle_writer_declares_handle_slots():
    p = Parcel()
    write_bundle(p, [("cb", TAG_HANDLE, 9)])
    assert len(p.offsets) == 1


# -- server-side semantics reachable only with raw parcels -----------------------


def test_audio_play_empty_track_is_a_handled_fault(router):
    reply = _raw(router, "svc.audio", AudioService.PLAY, Parcel().write_value(Kind.STRING, ""))
    assert reply.kind is ReplyKind.HANDLED_FAULT
    assert "empty track" in reply.message


def test_bluetooth_negative_count_skips_the_loop(router):
    data = Parcel().write_value(Kind.I32, -5)
    reply = _raw(router, "svc.bluetooth", 1, data)
    assert reply.kind is ReplyKind.OK


def test_graphics_wide_reply_survives_i32_overflow(router):
    # alloc fits in 32 bits unsigned but not in a signed I32; the reply is
    # written wide so a legitimate large allocation is not itself a crash.
    data = (
        Parcel()
        .write_value(Kind.STRING, "big")
        .write_value(Kind.I32, 0)
        .write_value(Kind.I32, 0x1FFFFFFF)
    )
    reply = _raw(router, "svc.graphics", 1, data)
    assert reply.kind is ReplyKind.OK
    assert reply.payload.read_value(Kind.I64) == 12 + 4 * 0x1FFFFFFF


def test_unstructured_input_bounces_off_guarded_leading_reads(router):
    # services whose first argument is a validated string reject junk
    # bytes outright, which is what keeps blind fuzzing away from the
    # structure-gated defects
    junk = Parcel(bytes.fromhex("deadbeef" * 4))
    for descriptor in ("svc.view", "svc.graphics"):
        data = Parcel(junk.buffer)
        assert _raw(router, descriptor, 1, data).kind is ReplyKind.REJECTED


# -- seeded defects ---------------------------------------------------------------

EXPECTED_CRASH_SHAPE = {
    "audio-null-client": ("audio.register_client",),
    "bluetooth-table-overrun": ("bluetooth.register_app_configuration",),
    "bluetooth-count-overread": ("bluetooth.register_app_configuration",),
    "view-unbounded-recursion": ("view.inflate",),
    "view-node-underflow": ("view.inflate",),
    "graphics-alloc-wrap": ("graphics.create_native_handle",),
    "activity-args-malformed": (
        "activity.start_activity.decode_intent",
        "activity.start_activity",
    ),
    "activity-entry-overread": (
        "activity.bundle.entry_loop",
        "activity.start_activity.decode_intent",
        "activity.start_activity",
    ),
    "activity-tag-confusion": (
        "activity.bundle.tag_switch",
        "activity.start_activity.decode_intent",
        "activity.start_activity",
    ),
    "activity-bytes-length": (
        "activity.bundle.bytes_length",
        "activity.start_activity.decode_intent",
        "activity.start_activity",
    ),
}


@pytest.mark.parametrize("bug", SEEDED_BUGS, ids=lambda b: b.bug_id)
def test_seeded_bug_triggers(router, bug):
    reply = _raw(router, bug.descriptor, bug.code, bug.build_trigger())
    assert reply.kind is ReplyKind.FATAL_CRASH
    assert reply.crash.exception_kind == bug.exception_kind
    assert reply.crash.stack_frames == EXPECTED_CRASH_SHAPE[bug.bug_id]


def test_seeded_bugs_are_pairwise_distinct():
    shapes = {
        (bug.exception_kind, EXPECTED_CRASH_SHAPE[bug.bug_id][:5]) for bug in SEEDED_BUGS
    }
    assert len(shapes) == len(SEEDED_BUGS) == 10


def test_view_recursion_crash_shape_is_depth_independent(router):
    # different recursion depths must not produce different stacks
    def probe(words):
        data = Parcel().write_value(Kind.STRING, "probe")
        for _ in range(words):
            data.write_value(Kind.I32, 1)
        return _raw(router, "svc.view", 1, data)

    deep = probe(600)
    deeper = probe(900)
    assert deep.kind is deeper.kind is ReplyKind.FATAL_CRASH
    assert deep.crash.exception_kind == deeper.crash.exception_kind
    assert deep.crash.stack_frames == deeper.crash.stack_frames


def test_graphics_wrap_detail_reports_both_sizes(router):
    data = (
        Parcel()
        .write_value(Kind.STRING, "fb0")
        .write_value(Kind.I32, 1)
        .write_value(Kind.I32, I32_MAX)
    )
    reply = _raw(router, "svc.graphics", 1, data)
    assert reply.kind is ReplyKind.FATAL_CRASH
    assert "allocated 12 bytes" in reply.crash.detail


# -- robustness of the control service ---------------------------------------------


def test_queue_never_crashes_on_truncation_sweep(router):
    full = Parcel().write_value(Kind.STRING, "payload")
    raw = full.buffer
    for cut in range(len(raw) + 1):
        for code in (1, 2, 3, 4):
            reply = _raw(router, "svc.queue", code, Parcel(raw[:cut]))
            assert reply.kind in (ReplyKind.OK, ReplyKind.REJECTED)


def test_queue_never_crashes_on_random_parcels(router):
    rng = random.Random(1234)
    for _ in range(200):
        blob = rng.randbytes(rng.randrange(0, 64))
        code = rng.randrange(1, 6)
        reply = _raw(router, "svc.queue", code, Parcel(blob))
        assert reply.kind in (ReplyKind.OK, ReplyKind.REJECTED)


# -- registry plumbing ---------------------------------------------------------------


def test_all_methods_lists_the_full_surface():
    methods = all_methods()
    assert len(methods) == 11
    assert ("svc.audio", 2, "register_client") in methods
    assert len({(d, c) for d, c, _ in methods}) == 11


def test_fresh_router_hosts_every_descriptor():
    router = fresh_router()
    for handle, cls in enumerate(SERVICE_CLASSES, 1):
        assert router.get_service(cls.DESCRIPTOR) == handle
        # answered from the host table: no transaction has reached it
        assert router.descriptor_of(handle) == cls.DESCRIPTOR
    assert router.descriptor_of(len(SERVICE_CLASSES) + 1) == "<unknown>"


def test_registering_a_hosted_name_is_refused(router):
    with pytest.raises(DuplicateServiceError):
        router.register_service(QueueService.DESCRIPTOR, QueueService())


def test_crash_resets_a_service_built_on_first_reach(router, client):
    audio = AudioClient(client)
    assert [audio.open_session()[1] for _ in range(2)] == [0, 1]
    reply = _raw(router, AudioService.DESCRIPTOR, AudioService.REGISTER_CLIENT, Parcel())
    assert reply.kind is ReplyKind.FATAL_CRASH
    # the instance that counted two sessions is gone; the handle is not
    assert audio.open_session()[1] == 0
    assert router.get_service(AudioService.DESCRIPTOR) == 2


def test_registry_codes_are_contiguous_from_one():
    for cls in SERVICE_CLASSES:
        codes = [code for descriptor, code, _ in all_methods() if descriptor == cls.DESCRIPTOR]
        assert codes == list(range(1, len(cls.REGISTRY.methods) + 1))


def test_code_constants_name_their_registry_methods():
    for cls in (*SERVICE_CLASSES, AudioSession):
        for code, spec in enumerate(cls.REGISTRY.methods, 1):
            assert getattr(cls, spec.name.upper()) == code


def test_unknown_codes_are_refused_outside_any_frame(router, client):
    session, _ = AudioClient(client).open_session()
    targets = [(router.get_service(cls.DESCRIPTOR), cls) for cls in SERVICE_CLASSES] + [(session, AudioSession)]
    for handle, cls in targets:
        short, past = cls.REGISTRY.short, len(cls.REGISTRY.methods) + 1
        rejected = (ReplyKind.REJECTED, "unknown %s code %d" % (short, past))
        reply = router.transact(Transaction(handle, past, Parcel(), "raw"))  # builds a hosted service
        instance = router._registrations[handle].instance
        assert (reply.kind, reply.message) == rejected
        reply = router.transact(Transaction(handle, past, Parcel(), "raw"))
        assert (reply.kind, reply.message) == rejected
        # the router refuses code 0 before dispatch, so send it to the instance
        ctx = DispatchContext(router, short)
        with pytest.raises(Reject, match="^%s$" % re.escape("unknown %s code 0" % short)):
            instance.handle_transaction(0, Parcel(), ctx)
        assert ctx.fault_frames("none") == ("none",)
        assert router._registrations[handle].instance is instance
    assert AudioSession.REGISTRY.short == "audio.session"


def test_a_registry_method_the_class_lacks_fails_its_definition():
    with pytest.raises(TypeError, match=r"^Partial has no method for pong$"):

        class Partial(RegistryService):
            REGISTRY = MethodRegistry("svc.partial", (MethodSpec("ping", ()), MethodSpec("pong", ())))

            def ping(self, data, ctx):
                return Parcel()
