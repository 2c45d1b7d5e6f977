"""Router behavior: registration, dispatch, containment, and the edge log.

Uses a purpose-built scripted service rather than the shipped ones so
each reply kind and containment rule is driven in isolation.
"""

import contextlib

import pytest

from parcelfuzz.parcel import I32, STRING, Parcel, handle_at
from parcelfuzz.router import (
    FATAL_CRASH,
    GET_SERVICE,
    HANDLED_FAULT,
    NULL_DEREF,
    OK,
    OUT_OF_BOUNDS,
    REJECTED,
    SERVICE_MANAGER_HANDLE,
    STACK_LIMIT,
    STACK_OVERFLOW,
    CrashInfo,
    DispatchContext,
    HostTable,
    InternalFault,
    IpcEdge,
    Reject,
    Reply,
    Router,
    Service,
    ServiceFault,
    Transaction,
    UnknownServiceError,
)


class Moody(Service):
    """Scripted replies: one method code per outcome class."""

    DESCRIPTOR = "test.moody"

    ANSWER = 1
    REFUSE = 2
    FAULT = 3
    CRASH = 4
    BUG = 5
    CRASH_NESTED = 6
    FRAME_RUNAWAY = 7
    EXPORT = 8

    def __init__(self):
        self.calls = 0

    def handle_transaction(self, code, data, ctx):
        self.calls += 1
        if code == self.ANSWER:
            return Parcel().write_value(I32, self.calls)
        if code == self.REFUSE:
            raise Reject("not like this")
        if code == self.FAULT:
            raise InternalFault("caught downstream failure")
        if code == self.CRASH:
            with ctx.frame("moody.crash"):
                ctx.fail(NULL_DEREF, "missing object")
        if code == self.BUG:
            raise ValueError("implementation bug")
        if code == self.CRASH_NESTED:
            with ctx.frame("moody.outer"):
                with ctx.frame("moody.inner"):
                    ctx.fail(OUT_OF_BOUNDS, "index 99")
        if code == self.FRAME_RUNAWAY:
            with contextlib.ExitStack() as stack:
                for _ in range(STACK_LIMIT + 10):
                    stack.enter_context(ctx.frame("moody.descend"))
        if code == self.EXPORT:
            handle = ctx.export_object(Moody())
            return Parcel().write_handle(handle)
        raise Reject("unknown code %d" % code)


@pytest.fixture
def router():
    return Router(HostTable((Moody,)))


def _call(router, handle, code, data=None, sender="t"):
    return router.transact(Transaction(handle, code, data or Parcel(), sender))


# -- registration and lookup ---------------------------------------------------


def test_manager_lives_at_handle_zero():
    r = Router()
    assert r.descriptor_of(SERVICE_MANAGER_HANDLE) == "service_manager"


def test_handles_are_monotonic_and_never_reused(router):
    a = router.export(Moody())
    b = router.export(Moody())
    assert b == a + 1
    # a crash resets the instance behind a handle without recycling it
    moody = router.get_service("test.moody")
    _call(router, moody, Moody.CRASH)
    c = router.export(Moody())
    assert c == b + 1


class Counted(Moody):
    """Moody under its own descriptor, counting how often it is built."""

    DESCRIPTOR = "test.counted"
    built = 0

    def __init__(self):
        super().__init__()
        Counted.built += 1


def test_hosted_service_is_built_by_its_first_transaction():
    Counted.built = 0
    r = Router(HostTable((Counted,)))
    handle = r.get_service("test.counted")
    assert handle == 1
    assert r.descriptor_of(handle) == "test.counted"
    assert Counted.built == 0
    assert _call(r, handle, Moody.ANSWER).payload.read_value(I32) == 1
    assert _call(r, handle, Moody.ANSWER).payload.read_value(I32) == 2
    assert Counted.built == 1
    assert [e.target_descriptor for e in r.edges] == ["test.counted"] * 2
    # the next handle follows the hosted ones; a second router starts clean
    assert r.export(Moody()) == 2
    assert _call(Router(HostTable((Counted,))), handle, Moody.ANSWER).payload.read_value(I32) == 1


def test_a_host_table_refuses_two_services_with_one_name():
    with pytest.raises(ValueError, match="two hosted services are named 'test.moody'"):
        HostTable((Moody, Moody))


def test_unknown_descriptor_raises(router):
    with pytest.raises(UnknownServiceError):
        router.get_service("test.ghost")


def test_descriptor_of_fallbacks(router):
    anon = router.export(Moody())
    assert router.descriptor_of(anon) == "<anonymous:%d>" % anon
    assert router.descriptor_of(10_000) == "<unknown>"


# -- the service manager protocol ------------------------------------------------


def test_get_service_reply_carries_a_declared_handle_slot(router):
    request = Parcel().write_value(STRING, "test.moody")
    reply = _call(router, SERVICE_MANAGER_HANDLE, GET_SERVICE, request)
    assert reply.kind == OK
    assert reply.payload.offsets == [0]
    assert handle_at(reply.payload.buffer, 0) == router.get_service("test.moody")


def test_get_service_unknown_name_rejects(router):
    request = Parcel().write_value(STRING, "test.ghost")
    reply = _call(router, SERVICE_MANAGER_HANDLE, GET_SERVICE, request)
    assert reply.kind == REJECTED


def test_get_service_quotes_only_the_start_of_a_long_unknown_name(router):
    request = Parcel().write_value(STRING, "x" * 65536)
    reply = _call(router, SERVICE_MANAGER_HANDLE, GET_SERVICE, request)
    assert reply.kind == REJECTED
    assert reply.message.startswith("no such service: 'xxx")
    assert len(reply.message) < 200


def test_get_service_malformed_request_rejects(router):
    reply = _call(router, SERVICE_MANAGER_HANDLE, GET_SERVICE, Parcel(bytes.fromhex("ffffff7f")))
    assert reply.kind == REJECTED
    reply = _call(router, SERVICE_MANAGER_HANDLE, 9, Parcel())
    assert reply.kind == REJECTED


# -- the four reply kinds ---------------------------------------------------------


def test_reply_kinds_never_blur(router):
    moody = router.get_service("test.moody")
    ok = _call(router, moody, Moody.ANSWER)
    refused = _call(router, moody, Moody.REFUSE)
    fault = _call(router, moody, Moody.FAULT)
    crash = _call(router, moody, Moody.CRASH)

    assert ok.kind == OK and ok.payload is not None and ok.crash is None
    assert refused.kind == REJECTED and refused.message and refused.crash is None
    assert fault.kind == HANDLED_FAULT and fault.message and fault.crash is None
    assert crash.kind == FATAL_CRASH and crash.crash is not None
    assert len({r.kind for r in (ok, refused, fault, crash)}) == 4


def test_crash_info_frames_are_innermost_first(router):
    moody = router.get_service("test.moody")
    reply = _call(router, moody, Moody.CRASH_NESTED)
    assert reply.crash.exception_kind == OUT_OF_BOUNDS
    assert reply.crash.stack_frames == ("moody.inner", "moody.outer")
    assert "index 99" in reply.crash.detail


class Recovering(Service):
    """Catches a fault from an optional part, then faults in a required one."""

    def handle_transaction(self, code, data, ctx):
        with ctx.frame("recovering.method"):
            try:
                with ctx.frame("recovering.optional_part"):
                    ctx.fail(NULL_DEREF, "optional part missing")
            except ServiceFault:
                pass
            with ctx.frame("recovering.required_part"):
                ctx.fail(OUT_OF_BOUNDS, "index 7")


def test_a_fault_after_a_caught_one_reports_its_own_frames():
    r = Router()
    reply = _call(r, r.export(Recovering()), 1)
    assert reply.crash == (OUT_OF_BOUNDS, ("recovering.required_part", "recovering.method"), "index 7")


def test_uncaught_exception_is_contained_with_backstop_kind(router):
    moody = router.get_service("test.moody")
    reply = _call(router, moody, Moody.BUG)
    assert reply.kind == FATAL_CRASH
    assert reply.crash.exception_kind == "UNCAUGHT_ValueError"
    assert reply.crash.stack_frames == ("test.moody.dispatch",)


def test_unknown_handle_rejects_but_still_logs_an_edge(router):
    for handle in (4242, -1):
        before = len(router.edges)
        reply = _call(router, handle, 1)
        assert (reply.kind, reply.message) == (REJECTED, "no such handle %d" % handle)
        assert len(router.edges) == before + 1
        assert router.edges[-1].target_descriptor == "<unknown>"


def _whole(record, cls) -> bool:
    return type(record) is cls and len(record) == len(cls._fields)


# transact builds its records positionally, which skips a NamedTuple's
# defaults: each must still be the one keywords build, every field there.
@pytest.mark.parametrize(
    "code, kind, message, crash",
    [
        (Moody.ANSWER, OK, None, None),
        (Moody.REFUSE, REJECTED, "not like this", None),
        (Moody.FAULT, HANDLED_FAULT, "caught downstream failure", None),
        (Moody.CRASH, FATAL_CRASH, None, CrashInfo(exception_kind=NULL_DEREF, stack_frames=("moody.crash",), detail="missing object")),
        (Moody.BUG, FATAL_CRASH, None, CrashInfo(exception_kind="UNCAUGHT_ValueError", stack_frames=("test.moody.dispatch",), detail="implementation bug")),
    ],
)
def test_transact_builds_whole_records(router, code, kind, message, crash):
    reply = _call(router, router.get_service("test.moody"), code, sender="s")
    payload = reply.payload if kind == OK else None
    assert kind != OK or isinstance(payload, Parcel)
    assert _whole(reply, Reply)
    assert reply == Reply(kind=kind, payload=payload, message=message, crash=crash)
    assert crash is None or _whole(reply.crash, CrashInfo)
    assert router.edges == [IpcEdge(sender_id="s", target_descriptor="test.moody", code=code)]
    assert _whole(router.edges[0], IpcEdge)


def test_transact_builds_whole_records_for_a_dead_handle(router):
    reply = _call(router, 4242, 3, sender="s")
    assert _whole(reply, Reply)
    assert reply == Reply(kind=REJECTED, payload=None, message="no such handle 4242", crash=None)
    assert router.edges == [IpcEdge(sender_id="s", target_descriptor="<unknown>", code=3)]
    assert _whole(router.edges[0], IpcEdge)


# -- containment and reset ---------------------------------------------------------


def test_crash_factory_resets_state_but_not_the_handle(router):
    moody = router.get_service("test.moody")
    assert _call(router, moody, Moody.ANSWER).payload.read_value(I32) == 1
    assert _call(router, moody, Moody.ANSWER).payload.read_value(I32) == 2
    _call(router, moody, Moody.CRASH)
    # same handle answers again, with fresh state
    assert _call(router, moody, Moody.ANSWER).payload.read_value(I32) == 1


def test_rejections_and_handled_faults_keep_state(router):
    moody = router.get_service("test.moody")
    _call(router, moody, Moody.ANSWER)
    _call(router, moody, Moody.REFUSE)
    _call(router, moody, Moody.FAULT)
    assert _call(router, moody, Moody.ANSWER).payload.read_value(I32) == 4


def test_exported_objects_get_fresh_callable_handles(router):
    moody = router.get_service("test.moody")
    reply = _call(router, moody, Moody.EXPORT)
    exported, slot_valid = reply.payload.read_handle()
    assert slot_valid
    assert exported != moody
    assert _call(router, exported, Moody.ANSWER).kind == OK


# -- dispatch mechanics --------------------------------------------------------------


def test_dispatch_rewinds_the_request_cursor(router):
    moody = router.get_service("test.moody")
    data = Parcel().write_value(I32, 5)
    data.cursor = 4
    reply = _call(router, moody, Moody.ANSWER, data)
    assert reply.kind == OK


def test_frame_stack_has_a_hard_limit(router):
    moody = router.get_service("test.moody")
    reply = _call(router, moody, Moody.FRAME_RUNAWAY)
    assert reply.kind == FATAL_CRASH
    assert reply.crash.exception_kind == STACK_OVERFLOW
    assert len(reply.crash.stack_frames) == STACK_LIMIT


def test_check_depth_guards_recursive_decoders():
    ctx = DispatchContext(Router(), "test")
    ctx.check_depth(STACK_LIMIT)
    with pytest.raises(ServiceFault) as exc_info:
        ctx.check_depth(STACK_LIMIT + 1)
    assert exc_info.value.kind == STACK_OVERFLOW


def test_recursion_error_maps_to_stack_overflow():
    class Spiral(Service):
        def handle_transaction(self, code, data, ctx):
            def dig():
                return dig()

            dig()

    r = Router()
    h = r.export(Spiral())
    reply = _call(r, h, 1)
    assert reply.kind == FATAL_CRASH
    assert reply.crash.exception_kind == STACK_OVERFLOW


# -- edge log --------------------------------------------------------------------------


def test_every_transact_logs_exactly_one_edge(router):
    moody = router.get_service("test.moody")
    _call(router, moody, Moody.ANSWER, sender="alice")
    _call(router, moody, Moody.CRASH, sender="bob")
    _call(router, 999, 1, sender="carol")
    assert [e.sender_id for e in router.edges] == ["alice", "bob", "carol"]
    assert [e.target_descriptor for e in router.edges] == ["test.moody", "test.moody", "<unknown>"]
    assert router.edges[0].code == Moody.ANSWER
