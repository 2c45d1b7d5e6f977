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
arrival order, regardless of outcome.  Crash attribution walks this log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .parcel import Kind, Parcel, ParcelError

# Reserved handle and method code for service lookup.
SERVICE_MANAGER_HANDLE = 0
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


@dataclass(frozen=True)
class CrashInfo:
    exception_kind: str
    stack_frames: tuple[str, ...]
    detail: str = ""

    def __post_init__(self):
        if not self.stack_frames:
            raise ValueError("CrashInfo requires at least one stack frame")


@dataclass(frozen=True)
class Reply:
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


@dataclass
class Transaction:
    target_handle: int
    code: int
    data: Parcel
    flags: int = 0
    sender_id: str = "anonymous"

    def __post_init__(self):
        if self.target_handle < 0:
            raise ValueError("target_handle must be >= 0")
        if self.code < 1:
            raise ValueError("code must be >= 1")
        if self.flags != 0:
            raise ValueError("flags must be 0 in this model")


@dataclass(frozen=True)
class IpcEdge:
    sender_id: str
    target_descriptor: str
    code: int
    timestamp: int


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
        self.stack_limit = STACK_LIMIT
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
        if depth > self.stack_limit:
            self.fail(STACK_OVERFLOW, "recursion depth %d exceeds limit %d" % (depth, self.stack_limit))

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
        if len(frames) >= self._ctx.stack_limit:
            self._ctx._capture_fault()
            raise ServiceFault(
                STACK_OVERFLOW,
                "simulated stack limit %d reached" % self._ctx.stack_limit,
            )
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
    """Built-in name resolver living at handle 0."""

    descriptor = "service_manager"

    def __init__(self, router: "Router" = None):
        self._router = router

    def handle_transaction(self, code, data, ctx):
        if code != GET_SERVICE:
            raise Reject("service manager supports only GET_SERVICE, got code %d" % code)
        try:
            name = data.read_value(Kind.STRING)
        except ParcelError as exc:
            raise Reject("malformed lookup request: %s" % exc) from None
        handle = self._router._by_name.get(name)
        if handle is None:
            # A fuzzed name can be 64 KiB long; quote only its start.
            raise Reject("no such service: %r" % name[:64])
        return Parcel().write_handle(handle)


class Router:
    """Handle table, dispatch boundary, and IPC edge log."""

    def __init__(self):
        self._registrations: dict[int, _Registration] = {}
        self._by_name: dict[str, int] = {}
        self._next_handle = 1
        self._edge_seq = 0
        self.edges: list[IpcEdge] = []
        manager = _ServiceManager(self)
        self._registrations[SERVICE_MANAGER_HANDLE] = _Registration(
            SERVICE_MANAGER_HANDLE, manager.descriptor, manager
        )

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
        if reg is None:
            return "<unknown>"
        return reg.descriptor or "<anonymous:%d>" % handle

    # -- dispatch ---------------------------------------------------------------

    def transact(self, txn: Transaction, trace_hook=None) -> Reply:
        """Dispatch a transaction; always returns a Reply.

        The IPC edge is logged before target resolution, so even
        transactions to dead handles leave evidence.
        """
        self._edge_seq += 1
        descriptor = self.descriptor_of(txn.target_handle)
        self.edges.append(IpcEdge(txn.sender_id, descriptor, txn.code, self._edge_seq))

        reg = self._registrations.get(txn.target_handle)
        if reg is None:
            return Reply.rejected("no such handle %d" % txn.target_handle)

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

    # -- edge log ----------------------------------------------------------------

    def edges_jsonl(self) -> str:
        """Edge log as JSON-lines: {seq, sender, descriptor, code} per line."""
        lines = [
            json.dumps(
                {
                    "seq": e.timestamp,
                    "sender": e.sender_id,
                    "descriptor": e.target_descriptor,
                    "code": e.code,
                },
                sort_keys=True,
            )
            for e in self.edges
        ]
        return "\n".join(lines) + ("\n" if lines else "")
