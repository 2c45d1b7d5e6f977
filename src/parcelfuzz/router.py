"""In-process message router with a fault-isolation boundary.

The router plays the role a kernel driver plus service manager would play
in a real binder stack, scaled down to one process: services sit at
integer handles, clients address transactions to handles, and every
dispatch is wrapped in a boundary that converts uncontained faults into
FATAL_CRASH replies instead of letting them unwind the caller.

Reply taxonomy, mirroring how a hardened server can react to hostile input:

    OK             request accepted, payload parcel attached
    REJECTED       input refused up front (bad handle, failed validation)
    HANDLED_FAULT  server started work, hit an internal error it caught
    FATAL_CRASH    uncontained fault; CrashInfo attached, service state reset

The router is the only judge of a request: a ``Transaction`` is a plain
record that takes any handle and code, and the router rejects a handle
nothing sits at and a code no method has.  A crash is reported with the
frames of the innermost frame its fault left (see ``DispatchContext``).

The boundary also keeps the IPC edge log: one edge per transact call, in
arrival order, regardless of outcome.  A campaign report counts the
edges by sender and by target descriptor.

A router can host services from the moment it exists: a ``HostTable``,
built once and shared read-only by every router made from it, places each
hosted service class at a fixed handle, and a router builds a hosted
service's instance only when the first transaction reaches it.  Lookup by
name and descriptor queries answer from the table and build nothing, so
creating a router builds no service at all.  The table is the only place
names come from: an object a service exports at run time is anonymous.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from .parcel import STRING, Parcel, ParcelError

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


# Reply kinds: the strings corpus records hold as reply_kind.
OK, REJECTED, HANDLED_FAULT, FATAL_CRASH = "OK", "REJECTED", "HANDLED_FAULT", "FATAL_CRASH"


class CrashInfo(NamedTuple):
    exception_kind: str
    stack_frames: tuple[str, ...]
    detail: str = ""


class Reply(NamedTuple):
    kind: str
    payload: Parcel | None = None
    message: str | None = None
    crash: CrashInfo | None = None


class Transaction(NamedTuple):
    """One request: a method code and payload addressed to a handle.  Any
    handle and code can be sent; the router rejects what it cannot serve."""

    target_handle: int
    code: int
    data: Parcel
    sender_id: str = "anonymous"


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


class Service:
    """Base class for anything a router can dispatch to.

    Subclasses implement :meth:`handle_transaction`; a class hosted in a
    ``HostTable`` also sets ``DESCRIPTOR``, the name it is looked up by.
    Instances must be rebuildable by calling their class with no
    arguments; the router does exactly that to reset a service after it
    crashes.
    """

    def handle_transaction(self, code: int, data: Parcel, ctx: "DispatchContext") -> Parcel | None:
        raise Reject("service implements no methods")


class DispatchContext:
    """Per-dispatch environment handed to a service handler.

    Carries the simulated call-stack frames used for crash fingerprints, a
    depth guard against runaway recursive decoders, and the ability to
    publish new objects (the reply-side source of dynamic handles).

    ``with ctx.frame(label):`` runs its body inside a frame: ``frame``
    pushes the label and returns the context, whose exit pops it.  An
    exception leaving a frame is stamped with the stack as it stood in the
    innermost frame it left, so a fault raised after the service caught
    another one is reported where it was raised.
    """

    def __init__(self, router: "Router", descriptor: str):
        self._router = router
        self.descriptor = descriptor
        self._frames: list[str] = []

    def frame(self, label: str) -> "DispatchContext":
        frames = self._frames
        if len(frames) >= STACK_LIMIT:
            # Raised before the push: the frame it leaves stamps the full stack.
            raise ServiceFault(STACK_OVERFLOW, "simulated stack limit %d reached" % STACK_LIMIT)
        frames.append(label)
        return self

    def __enter__(self) -> "DispatchContext":
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not hasattr(exc, "stack_frames"):
            exc.stack_frames = self.snapshot()
        self._frames.pop()
        return False

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
        return self._router.export(impl)


class _Registration:
    __slots__ = ("handle", "descriptor", "instance")

    def __init__(self, handle: int, descriptor: str, instance: Service):
        self.handle = handle
        self.descriptor = descriptor
        self.instance = instance


class _ServiceManager(Service):
    """Built-in name resolver living at handle 0; it answers from the
    host table of the router that dispatches to it."""

    DESCRIPTOR = SERVICE_MANAGER_DESCRIPTOR

    def handle_transaction(self, code, data, ctx):
        if code != GET_SERVICE:
            raise Reject("service manager supports only GET_SERVICE, got code %d" % code)
        try:
            name = data.read_value(STRING)
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
    class) pair and ``names`` each hosted descriptor to its handle, so
    two classes with one DESCRIPTOR are a ValueError.  The first handle a
    router allocates after them is n + 1.
    """

    __slots__ = ("classes", "names", "next_handle")

    def __init__(self, services: tuple[type, ...] = ()):
        classes = {SERVICE_MANAGER_HANDLE: (_ServiceManager.DESCRIPTOR, _ServiceManager)}
        names: dict[str, int] = {}
        for handle, cls in enumerate(services, 1):
            if cls.DESCRIPTOR in names:
                raise ValueError("two hosted services are named %r" % cls.DESCRIPTOR)
            classes[handle] = (cls.DESCRIPTOR, cls)
            names[cls.DESCRIPTOR] = handle
        self.classes = MappingProxyType(classes)
        self.names = MappingProxyType(names)
        self.next_handle = len(services) + 1


_MANAGER_ONLY = HostTable()


class Router:
    """Handle table, dispatch boundary, and IPC edge log.

    ``hosted`` names the services the router hosts from creation (by
    default only the service manager); lookups by name answer from it
    alone.  ``_registrations`` holds what was built or exported since
    then: a hosted service's instance appears there on the first
    transaction that reaches it, an exported object on export.  Every
    router starts with no instances at all, so two routers never share
    service state.
    """

    def __init__(self, hosted: HostTable = _MANAGER_ONLY):
        self._hosted = hosted.classes
        self._by_name = hosted.names
        self._registrations: dict[int, _Registration] = {}
        self._next_handle = hosted.next_handle
        self.edges: list[IpcEdge] = []

    # -- registration and lookup ----------------------------------------------

    def export(self, impl: Service) -> int:
        """Register impl as an anonymous object and return its handle.

        Handles are allocated monotonically and never reused, even after a
        crash-reset replaces the instance behind one.
        """
        handle = self._next_handle
        self._next_handle += 1
        self._registrations[handle] = _Registration(handle, "", impl)
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
        # Records are built positionally, every field given (tuple.__new__
        # skips the NamedTuple's keyword defaults and its Python __new__).
        if reg is None:
            self.edges.append(tuple.__new__(IpcEdge, (txn.sender_id, "<unknown>", txn.code)))
            return tuple.__new__(Reply, (REJECTED, None, "no such handle %d" % handle, None))
        descriptor = reg.descriptor or "<anonymous:%d>" % handle
        self.edges.append(tuple.__new__(IpcEdge, (txn.sender_id, descriptor, txn.code)))

        ctx = DispatchContext(self, descriptor)
        data = txn.data
        data.cursor = 0
        if trace_hook is not None:
            data.install_read_hook(trace_hook)
        try:
            payload = reg.instance.handle_transaction(txn.code, data, ctx)
            return tuple.__new__(Reply, (OK, payload if payload is not None else Parcel(), None, None))
        except Reject as exc:
            return tuple.__new__(Reply, (REJECTED, None, str(exc), None))
        except InternalFault as exc:
            return tuple.__new__(Reply, (HANDLED_FAULT, None, str(exc), None))
        except ServiceFault as exc:
            return self._contain(reg, exc, exc.kind, exc.detail)
        except ParcelError as exc:
            return self._contain(reg, exc, MALFORMED_PARCEL, str(exc))
        except RecursionError as exc:
            return self._contain(reg, exc, STACK_OVERFLOW, "host recursion limit")
        except Exception as exc:  # a bug in a service is still contained
            return self._contain(reg, exc, "UNCAUGHT_%s" % type(exc).__name__, str(exc))
        finally:
            if trace_hook is not None:
                data.clear_read_hook()

    def _contain(self, reg: _Registration, exc: Exception, kind: str, detail: str) -> Reply:
        """A fault raised outside any frame is reported in a
        ``<descriptor>.dispatch`` frame of its own."""
        frames = getattr(exc, "stack_frames", None) or ("%s.dispatch" % (reg.descriptor or "anonymous"),)
        if reg.handle != SERVICE_MANAGER_HANDLE:
            reg.instance = type(reg.instance)()
        return tuple.__new__(Reply, (FATAL_CRASH, None, None, tuple.__new__(CrashInfo, (kind, frames, detail))))
