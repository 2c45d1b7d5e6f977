"""In-process message router with a fault-isolation boundary.

The router plays the role a kernel driver plus service manager would play
in a real binder stack, scaled down to one process: services register and
receive integer handles, clients address transactions to handles, and
every dispatch is wrapped in a boundary that converts uncontained faults
into FATAL_CRASH replies instead of letting them unwind the caller.

Reply taxonomy, mirroring how a hardened server can react to hostile input:

    OK             request accepted, payload parcel attached
    REJECTED       input refused up front (bad handle, failed validation)
    HANDLED_FAULT  server started work, hit an internal error it caught
    FATAL_CRASH    uncontained fault; CrashInfo attached, service state reset

The boundary also keeps the IPC edge log: one edge per transact call, in
arrival order, regardless of outcome.  A campaign report counts the
edges by sender and by target descriptor.

A router can host services from the moment it exists: a ``HostTable``,
built once and shared read-only by every router made from it, places each
hosted service class at a fixed handle, and a router builds a hosted
service's instance only when the first transaction reaches it.  Lookup by
name and descriptor queries answer from the table and build nothing, so
creating a router builds no service at all.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

from .parcel import Kind, Parcel, ParcelError

# Reserved handle, name and method code for service lookup.
SERVICE_MANAGER_HANDLE = 0
SERVICE_MANAGER_DESCRIPTOR = "service_manager"
GET_SERVICE = 1

# Simulated stack budget shared by all dispatches.  Recursive decoders that
# track their depth against this limit fault with STACK_OVERFLOW.
STACK_LIMIT = 512

# Exception kinds used in CrashInfo.  Plain strings so reports serialize
# without ceremony.
NULL_DEREF = "NULL_DEREF"
OUT_OF_BOUNDS = "OUT_OF_BOUNDS"
STACK_OVERFLOW = "STACK_OVERFLOW"
MEMORY_CORRUPTION = "MEMORY_CORRUPTION"
MALFORMED_PARCEL = "MALFORMED_PARCEL"


class ReplyKind(str, Enum):
    OK = "OK"
    REJECTED = "REJECTED"
    HANDLED_FAULT = "HANDLED_FAULT"
    FATAL_CRASH = "FATAL_CRASH"


class _CrashFields(NamedTuple):
    exception_kind: str
    stack_frames: tuple[str, ...]
    detail: str = ""


class CrashInfo(_CrashFields):
    __slots__ = ()

    def __new__(cls, exception_kind: str, stack_frames: tuple[str, ...], detail: str = ""):
        if not stack_frames:
            raise ValueError("CrashInfo requires at least one stack frame")
        return tuple.__new__(cls, (exception_kind, stack_frames, detail))

    @classmethod
    def _make(cls, iterable) -> "CrashInfo":
        # _replace builds through _make; route it through the check.
        return cls(*iterable)


class Reply(NamedTuple):
    kind: ReplyKind
    payload: Parcel | None = None
    message: str | None = None
    crash: CrashInfo | None = None

    @classmethod
    def ok(cls, payload: Parcel | None = None) -> "Reply":
        return cls(ReplyKind.OK, payload=payload if payload is not None else Parcel())

    @classmethod
    def rejected(cls, message: str) -> "Reply":
        return cls(ReplyKind.REJECTED, message=message)

    @classmethod
    def handled_fault(cls, message: str) -> "Reply":
        return cls(ReplyKind.HANDLED_FAULT, message=message)

    @classmethod
    def fatal(cls, crash: CrashInfo) -> "Reply":
        return cls(ReplyKind.FATAL_CRASH, crash=crash)


class Transaction:
    """One request: a method code and payload addressed to a handle."""

    __slots__ = ("target_handle", "code", "data", "sender_id")

    def __init__(self, target_handle: int, code: int, data: Parcel, sender_id: str = "anonymous"):
        if target_handle < 0:
            raise ValueError("target_handle must be >= 0")
        if code < 1:
            raise ValueError("code must be >= 1")
        self.target_handle = target_handle
        self.code = code
        self.data = data
        self.sender_id = sender_id


class IpcEdge(NamedTuple):
    sender_id: str
    target_descriptor: str
    code: int


class Reject(Exception):
    """Raised by a service to refuse a request; becomes REJECTED."""


class InternalFault(Exception):
    """Raised by a service that caught its own failure; becomes HANDLED_FAULT."""


class ServiceFault(Exception):
    """An uncontained fault a service simulates; becomes FATAL_CRASH."""

    def __init__(self, kind: str, detail: str = ""):
        super().__init__("%s: %s" % (kind, detail) if detail else kind)
        self.kind = kind
        self.detail = detail


class RouterError(Exception):
    """Registration or lookup misuse of the router itself."""


class UnknownServiceError(RouterError):
    pass


class DuplicateServiceError(RouterError):
    pass


class Service:
    """Base class for anything registrable with the router.

    Subclasses set ``descriptor`` (empty string means anonymous) and
    implement :meth:`handle_transaction`.  Instances must be rebuildable by
    calling their class with no arguments; the router does exactly that to
    reset a service after it crashes.
    """

    descriptor: str = ""

    def handle_transaction(self, code: int, data: Parcel, ctx: "DispatchContext") -> Parcel | None:
        raise Reject("service implements no methods")


class DispatchContext:
    """Per-dispatch environment handed to a service handler.

    Carries the simulated call-stack frames used for crash fingerprints, a
    depth guard against runaway recursive decoders, and the ability to
    publish new objects (the reply-side source of dynamic handles).
    """

    def __init__(self, router: "Router", descriptor: str):
        self._router = router
        self.descriptor = descriptor
        self._frames: list[str] = []
        self._fault_frames: tuple[str, ...] | None = None

    def frame(self, label: str):
        return _Frame(self, label)

    def snapshot(self) -> tuple[str, ...]:
        """Current frames, innermost first."""
        return tuple(reversed(self._frames))

    def fail(self, kind: str, detail: str = ""):
        raise ServiceFault(kind, detail)

    def check_depth(self, depth: int):
        """Fault with STACK_OVERFLOW once a decoder exceeds the stack budget."""
        if depth > STACK_LIMIT:
            self.fail(STACK_OVERFLOW, "recursion depth %d exceeds limit %d" % (depth, STACK_LIMIT))

    def export_object(self, impl: Service) -> int:
        """Register an anonymous object and return its fresh handle."""
        return self._router.register_service("", impl)

    def _capture_fault(self):
        if self._fault_frames is None and self._frames:
            self._fault_frames = self.snapshot()

    def fault_frames(self, fallback: str) -> tuple[str, ...]:
        if self._fault_frames is not None:
            return self._fault_frames
        if self._frames:
            return self.snapshot()
        return (fallback,)


class _Frame:
    """Context manager that snapshots the stack if an exception passes through."""

    __slots__ = ("_ctx", "_label")

    def __init__(self, ctx: DispatchContext, label: str):
        self._ctx = ctx
        self._label = label

    def __enter__(self):
        frames = self._ctx._frames
        if len(frames) >= STACK_LIMIT:
            self._ctx._capture_fault()
            raise ServiceFault(STACK_OVERFLOW, "simulated stack limit %d reached" % STACK_LIMIT)
        frames.append(self._label)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self._ctx._capture_fault()
        self._ctx._frames.pop()
        return False


class _Registration:
    __slots__ = ("handle", "descriptor", "instance", "factory")

    def __init__(self, handle: int, descriptor: str, instance: Service):
        self.handle = handle
        self.descriptor = descriptor
        self.instance = instance
        self.factory = type(instance)


class _ServiceManager(Service):
    """Built-in name resolver living at handle 0; it answers from the
    name map of the router that dispatches to it."""

    descriptor = SERVICE_MANAGER_DESCRIPTOR

    def handle_transaction(self, code, data, ctx):
        if code != GET_SERVICE:
            raise Reject("service manager supports only GET_SERVICE, got code %d" % code)
        try:
            name = data.read_value(Kind.STRING)
        except ParcelError as exc:
            raise Reject("malformed lookup request: %s" % exc) from None
        handle = ctx._router._by_name.get(name)
        if handle is None:
            # A fuzzed name can be 64 KiB long; quote only its start.
            raise Reject("no such service: %r" % name[:64])
        return Parcel().write_handle(handle)


class HostTable:
    """Service classes hosted at fixed handles, shared read-only by every
    router built from it.

    The service manager sits at handle 0 and the given classes at handles
    1..n in order; ``classes`` maps each handle to its (descriptor,
    class) pair and ``names`` each hosted descriptor to its handle.  The
    first handle a router allocates after them is n + 1.
    """

    __slots__ = ("classes", "names", "next_handle")

    def __init__(self, services: tuple[type, ...] = ()):
        classes = {SERVICE_MANAGER_HANDLE: (_ServiceManager.descriptor, _ServiceManager)}
        names: dict[str, int] = {}
        for handle, cls in enumerate(services, 1):
            classes[handle] = (cls.DESCRIPTOR, cls)
            names[cls.DESCRIPTOR] = handle
        self.classes = MappingProxyType(classes)
        self.names = MappingProxyType(names)
        self.next_handle = len(services) + 1


_MANAGER_ONLY = HostTable()


class Router:
    """Handle table, dispatch boundary, and IPC edge log.

    ``hosted`` names the services the router hosts from creation (by
    default only the service manager).  ``_registrations`` holds what was
    built or registered since then: a hosted service's instance appears
    there on the first transaction that reaches it, a registered one on
    registration.  Every router starts with no instances at all, so two
    routers never share service state.
    """

    def __init__(self, hosted: HostTable = _MANAGER_ONLY):
        self._hosted = hosted.classes
        self._by_name: dict[str, int] = hosted.names.copy()
        self._registrations: dict[int, _Registration] = {}
        self._next_handle = hosted.next_handle
        self.edges: list[IpcEdge] = []

    # -- registration and lookup ----------------------------------------------

    def register_service(self, descriptor: str, impl: Service) -> int:
        """Register impl under descriptor; empty descriptor means anonymous.

        Handles are allocated monotonically and never reused, even after a
        crash-reset replaces the instance behind one.
        """
        if descriptor and descriptor in self._by_name:
            raise DuplicateServiceError("descriptor already registered: %r" % descriptor)
        handle = self._next_handle
        self._next_handle += 1
        impl.descriptor = descriptor or impl.descriptor or ""
        reg = _Registration(handle, descriptor, impl)
        self._registrations[handle] = reg
        if descriptor:
            self._by_name[descriptor] = handle
        return handle

    def get_service(self, descriptor: str) -> int:
        try:
            return self._by_name[descriptor]
        except KeyError:
            raise UnknownServiceError("no such service: %r" % descriptor) from None

    def descriptor_of(self, handle: int) -> str:
        reg = self._registrations.get(handle)
        if reg is not None:
            return reg.descriptor or "<anonymous:%d>" % handle
        hosted = self._hosted.get(handle)
        return "<unknown>" if hosted is None else hosted[0]

    def _host(self, handle: int) -> _Registration | None:
        """Build the hosted service at handle, or None if none is hosted there."""
        hosted = self._hosted.get(handle)
        if hosted is None:
            return None
        descriptor, factory = hosted
        reg = self._registrations[handle] = _Registration(handle, descriptor, factory())
        return reg

    # -- dispatch ---------------------------------------------------------------

    def transact(self, txn: Transaction, trace_hook=None) -> Reply:
        """Dispatch a transaction; always returns a Reply.

        The IPC edge is logged before the service runs, and for a dead
        handle too, so every transaction leaves evidence.  A hosted
        service's instance is built here, on the first transaction that
        reaches it.
        """
        handle = txn.target_handle
        reg = self._registrations.get(handle) or self._host(handle)
        if reg is None:
            self.edges.append(IpcEdge(txn.sender_id, "<unknown>", txn.code))
            return Reply.rejected("no such handle %d" % handle)
        descriptor = reg.descriptor or "<anonymous:%d>" % handle
        self.edges.append(IpcEdge(txn.sender_id, descriptor, txn.code))

        ctx = DispatchContext(self, descriptor)
        data = txn.data
        data.cursor = 0
        if trace_hook is not None:
            data.install_read_hook(trace_hook)
        try:
            payload = reg.instance.handle_transaction(txn.code, data, ctx)
            return Reply.ok(payload)
        except Reject as exc:
            return Reply.rejected(str(exc))
        except InternalFault as exc:
            return Reply.handled_fault(str(exc))
        except ServiceFault as exc:
            return self._contain(reg, ctx, exc.kind, exc.detail)
        except ParcelError as exc:
            return self._contain(reg, ctx, MALFORMED_PARCEL, str(exc))
        except RecursionError:
            return self._contain(reg, ctx, STACK_OVERFLOW, "host recursion limit")
        except Exception as exc:  # a bug in a service is still contained
            return self._contain(reg, ctx, "UNCAUGHT_%s" % type(exc).__name__, str(exc))
        finally:
            if trace_hook is not None:
                data.clear_read_hook()

    def _contain(self, reg: _Registration, ctx: DispatchContext, kind: str, detail: str) -> Reply:
        frames = ctx.fault_frames("%s.dispatch" % (reg.descriptor or "anonymous"))
        crash = CrashInfo(exception_kind=kind, stack_frames=frames, detail=detail)
        if reg.handle != SERVICE_MANAGER_HANDLE:
            reg.instance = reg.factory()
        return Reply.fatal(crash)
