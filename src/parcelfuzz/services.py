"""Simulated system services with deliberately planted server-side bugs.

Every router ``fresh_router`` returns hosts six services, each built on
the first transaction that reaches it.  One of them (the queue) is a
hardened negative control that validates everything it reads.  The other
five each carry one classic deserialization-trust flaw on the server side
while their client wrappers refuse to build the triggering input, so the
flaws are reachable only by talking to the router directly:

    svc.audio      a hidden method reads (HANDLE, STRING) leniently and
                   dereferences whatever came back, null included
    svc.bluetooth  trusts a client-declared entry count, both as a table
                   bound and as a read loop bound
    svc.view       recursively decodes a nested layout tree with no depth
                   bound and no read guards past the template name
    svc.graphics   sizes an allocation with 32-bit wrapping arithmetic
                   while the true requirement is computed wide
    svc.activity   deserializes a structured intent (two strings plus a
                   tagged bundle) with no guards at all

Each service declares its methods once, in a ``MethodRegistry``; the one
``RegistryService`` dispatcher pushes each method's frame and decoders
push inner ones.  The frame stack at fault time is what the harness
fingerprints, so frame placement here decides which failures collapse
into one report and which stay distinct.  Decoders additionally open
``parcel.composite`` scopes so a recording hook can reconstruct the type
structure of what was read.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .parcel import I32_MAX, Kind, Parcel, ParcelError
from .router import (
    MALFORMED_PARCEL,
    MEMORY_CORRUPTION,
    NULL_DEREF,
    OUT_OF_BOUNDS,
    STACK_OVERFLOW,
    DispatchContext,
    InternalFault,
    Reject,
    Reply,
    ReplyKind,
    Router,
    Service,
    SERVICE_MANAGER_HANDLE,
    GET_SERVICE,
    HostTable,
    Transaction,
)

# Kind members bound to module names, as in parcel.py: looking a member
# up on the Enum class costs about a third of a decoder's read.
_K_I32, _K_I64, _K_F64, _K_BOOL = Kind.I32, Kind.I64, Kind.F64, Kind.BOOL
_K_STRING, _K_BYTES = Kind.STRING, Kind.BYTES

# Bundle entry value tags.
TAG_I32 = 1
TAG_I64 = 2
TAG_F64 = 3
TAG_STRING = 4
TAG_BYTES = 5
TAG_BUNDLE = 6
TAG_HANDLE = 7

TAG_NAMES = {
    TAG_I32: "I32",
    TAG_I64: "I64",
    TAG_F64: "F64",
    TAG_STRING: "STRING",
    TAG_BYTES: "BYTES",
    TAG_BUNDLE: "BUNDLE",
    TAG_HANDLE: "HANDLE",
}

# Writer-side nesting limits.  The deserializers deliberately do not
# enforce these; only well-behaved clients do.
BUNDLE_WRITER_DEPTH_LIMIT = 64
VIEW_WRITER_DEPTH_LIMIT = 16


class ClientCheckError(Exception):
    """A client wrapper refused to build a transaction (nothing was sent)."""


class ReplyError(Exception):
    """A wrapper call got a non-OK reply."""

    def __init__(self, reply: Reply):
        if reply.crash is not None:
            what = "%s (%s)" % (reply.kind.value, reply.crash.exception_kind)
        else:
            what = "%s: %s" % (reply.kind.value, reply.message)
        super().__init__(what)
        self.reply = reply


class MethodSpec(NamedTuple):
    name: str
    signature: tuple[str, ...]
    hidden: bool = False


class MethodRegistry:
    """A service's methods in code order: code n is ``methods[n - 1]``, and
    ``dispatch[n]`` its (frame label ``<short>.<name>``, method name)."""

    __slots__ = ("short", "methods", "dispatch")

    def __init__(self, descriptor: str, methods: tuple[MethodSpec, ...]):
        self.short = short = descriptor.removeprefix("svc.")
        self.methods = methods
        self.dispatch = {n: ("%s.%s" % (short, m.name), m.name) for n, m in enumerate(methods, 1)}


class RegistryService(Service):
    """Runs code n as the method its ``REGISTRY`` names nth, with ``(data,
    ctx)``, inside that method's frame; refuses other codes outside any."""

    REGISTRY: MethodRegistry

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        missing = [s.name for s in cls.REGISTRY.methods if not callable(getattr(cls, s.name, None))]
        if missing:
            raise TypeError("%s has no method for %s" % (cls.__name__, ", ".join(missing)))

    def handle_transaction(self, code, data, ctx):
        entry = self.REGISTRY.dispatch.get(code)
        if entry is None:
            raise Reject("unknown %s code %d" % (self.REGISTRY.short, code))
        label, name = entry
        with ctx.frame(label):
            return getattr(self, name)(data, ctx)


# ---------------------------------------------------------------------------
# Queue service: the hardened negative control.
# ---------------------------------------------------------------------------


class QueueService(RegistryService):
    """String FIFO that validates every read and never crashes."""

    DESCRIPTOR = "svc.queue"
    ADD, PEEK, POLL, REMOVE = 1, 2, 3, 4
    REGISTRY = MethodRegistry(
        DESCRIPTOR,
        (
            MethodSpec("add", ("STRING",)),
            MethodSpec("peek", ()),
            MethodSpec("poll", ()),
            MethodSpec("remove", ()),
        ),
    )

    def __init__(self):
        self._items: list[str] = []

    def add(self, data, ctx):
        try:
            item = data.read_value(_K_STRING)
        except ParcelError as exc:
            raise Reject("malformed add request: %s" % exc) from None
        self._items.append(item)
        return Parcel().write_value(_K_BOOL, True)

    def peek(self, data, ctx):
        head = self._items[0] if self._items else ""
        return Parcel().write_value(_K_STRING, head)

    def poll(self, data, ctx):
        head = self._items.pop(0) if self._items else ""
        return Parcel().write_value(_K_STRING, head)

    def remove(self, data, ctx):
        removed = bool(self._items)
        if removed:
            del self._items[0]
        return Parcel().write_value(_K_BOOL, removed)


# ---------------------------------------------------------------------------
# Audio service: hidden method trusts lenient reads.
# ---------------------------------------------------------------------------


class AudioSession(RegistryService):
    """Anonymous per-client object handed out by AudioService.open_session."""

    PING = 1
    REGISTRY = MethodRegistry("svc.audio.session", (MethodSpec("ping", ()),))

    def ping(self, data, ctx):
        return Parcel().write_value(_K_BOOL, True)


class AudioService(RegistryService):
    """Playback front end.

    ``register_client`` is deliberately absent from the public wrapper
    surface; middleware invokes it on the caller's behalf.  Its handler
    reads its arguments leniently (missing data comes back as None) and
    uses them without a null check, so an empty or short parcel, or a
    zeroed handle slot, dereferences null.
    """

    DESCRIPTOR = "svc.audio"
    PLAY, REGISTER_CLIENT, OPEN_SESSION = 1, 2, 3
    REGISTRY = MethodRegistry(
        DESCRIPTOR,
        (
            MethodSpec("play", ("STRING",)),
            MethodSpec("register_client", ("HANDLE", "STRING"), hidden=True),
            MethodSpec("open_session", ()),
        ),
    )

    def __init__(self):
        self._now_playing: str | None = None
        self._clients: dict[str, int] = {}
        self._session_count = 0

    def play(self, data, ctx):
        try:
            track = data.read_value(_K_STRING)
        except ParcelError as exc:
            raise Reject("malformed play request: %s" % exc) from None
        if not track:
            # The server notices mid-flight and reports its own failure.
            raise InternalFault("playback failed: empty track name")
        self._now_playing = track
        return Parcel().write_value(_K_BOOL, True)

    def register_client(self, data, ctx):
        callback, _slot_declared = data.read_handle_lenient()
        name = data.read_lenient(_K_STRING)
        if not callback or name is None:
            ctx.fail(NULL_DEREF, "callback=%r name=%r" % (callback, name))
        self._clients[name] = callback
        return Parcel().write_value(_K_BOOL, True)

    def open_session(self, data, ctx):
        handle = ctx.export_object(AudioSession())
        index = self._session_count
        self._session_count += 1
        return Parcel().write_handle(handle).write_value(_K_I32, index)


# ---------------------------------------------------------------------------
# Bluetooth service: server trusts a client-declared count.
# ---------------------------------------------------------------------------


class BluetoothService(RegistryService):
    """Registers app configuration entries into a fixed 16-slot table.

    All range checking lives in the wrapper.  The server reserves ``count``
    slots before reading a single entry, so an oversized count overruns the
    table and an undersupplied one runs the read loop off the end of the
    parcel.
    """

    DESCRIPTOR = "svc.bluetooth"
    REGISTER_APP_CONFIGURATION = 1
    SLOTS = 16
    REGISTRY = MethodRegistry(
        DESCRIPTOR,
        (MethodSpec("register_app_configuration", ("I32", "STRING...")),),
    )

    def __init__(self):
        self._table: list[str] = []

    def register_app_configuration(self, data, ctx):
        count = data.read_value(_K_I32)
        if count > self.SLOTS:
            ctx.fail(OUT_OF_BOUNDS, "reserving %d entries in a %d-slot table" % (count, self.SLOTS))
        table = []
        for _ in range(max(count, 0)):
            table.append(data.read_value(_K_STRING))
        self._table = table
        return Parcel().write_value(_K_BOOL, True)


# ---------------------------------------------------------------------------
# View service: unbounded recursive decoder.
# ---------------------------------------------------------------------------


class ViewNode:
    """Layout tree node: either a text leaf or a pair of children."""

    __slots__ = ("content", "children")

    def __init__(self, content: str | None = None, children: tuple["ViewNode", ...] = ()):
        if content is None:
            if len(children) != 2:
                raise ValueError("a non-leaf node holds exactly two children")
        elif children:
            raise ValueError("a leaf node holds no children")
        self.content = content
        self.children = children

    @property
    def is_leaf(self) -> bool:
        return self.content is not None

    @classmethod
    def leaf(cls, content: str) -> "ViewNode":
        return cls(content=content)

    @classmethod
    def pair(cls, first: "ViewNode", second: "ViewNode") -> "ViewNode":
        return cls(children=(first, second))


MODE_NORMAL = 0


def write_view_node(parcel: Parcel, node: ViewNode, depth: int = 1) -> None:
    """Encode a layout tree; writers refuse nesting past the documented limit."""
    if depth > VIEW_WRITER_DEPTH_LIMIT:
        raise ClientCheckError("view tree deeper than %d" % VIEW_WRITER_DEPTH_LIMIT)
    if node.is_leaf:
        parcel.write_value(_K_I32, MODE_NORMAL)
        parcel.write_value(_K_STRING, node.content)
    else:
        parcel.write_value(_K_I32, 1)
        write_view_node(parcel, node.children[0], depth + 1)
        write_view_node(parcel, node.children[1], depth + 1)


class ViewService(RegistryService):
    """Inflates a layout tree received over IPC.

    The decoder mirrors the classic recursive-constructor pattern: any
    nonzero mode means "decode two children from the stream", with nothing
    bounding the recursion except the dispatch context's simulated stack
    budget.  Only the leading template name is read defensively.
    """

    DESCRIPTOR = "svc.view"
    INFLATE = 1
    REGISTRY = MethodRegistry(
        DESCRIPTOR,
        (MethodSpec("inflate", ("STRING", "VIEW_TREE")),),
    )

    def __init__(self):
        self._inflated = 0

    def inflate(self, data, ctx):
        try:
            _template = data.read_value(_K_STRING)
        except ParcelError as exc:
            raise Reject("bad template name: %s" % exc) from None
        nodes = self._decode_node(data, ctx, 1)
        self._inflated += 1
        return Parcel().write_value(_K_I32, nodes)

    def _decode_node(self, data: Parcel, ctx: DispatchContext, depth: int) -> int:
        ctx.check_depth(depth)
        with data.composite("view.node"):
            mode = data.read_value(_K_I32)
            if mode == MODE_NORMAL:
                data.read_value(_K_STRING)
                return 1
            count = 1
            count += self._decode_node(data, ctx, depth + 1)
            count += self._decode_node(data, ctx, depth + 1)
            return count


# ---------------------------------------------------------------------------
# Graphics service: 32-bit wrapping size arithmetic.
# ---------------------------------------------------------------------------


class GraphicsService(RegistryService):
    """Allocates a native-handle-shaped record sized from caller counts.

    The allocation size is computed in 32-bit wrapping arithmetic while the
    amount the slots actually need is computed wide, an under-allocation is
    reported as memory corruption.  Count values are read defensively but
    their magnitudes are trusted completely, negative included.
    """

    DESCRIPTOR = "svc.graphics"
    CREATE_NATIVE_HANDLE = 1
    HEADER_BYTES = 12
    SLOT_BYTES = 4
    REGISTRY = MethodRegistry(
        DESCRIPTOR,
        (MethodSpec("create_native_handle", ("STRING", "I32", "I32")),),
    )

    def __init__(self):
        self._allocations: list[tuple[str, int]] = []

    def create_native_handle(self, data, ctx):
        try:
            name = data.read_value(_K_STRING)
            num_fds = data.read_value(_K_I32)
            num_ints = data.read_value(_K_I32)
        except ParcelError as exc:
            raise Reject("malformed allocation request: %s" % exc) from None
        total_slots = num_fds + num_ints
        alloc_size = (self.HEADER_BYTES + self.SLOT_BYTES * total_slots) & 0xFFFFFFFF
        required = self.HEADER_BYTES + self.SLOT_BYTES * total_slots
        if required > alloc_size:
            ctx.fail(MEMORY_CORRUPTION, "allocated %d bytes, slot data needs %d" % (alloc_size, required))
        self._allocations.append((name, alloc_size))
        return Parcel().write_value(_K_I64, alloc_size)


# ---------------------------------------------------------------------------
# Activity service: trusted structured deserialization.
# ---------------------------------------------------------------------------


class ActivityService(RegistryService):
    """Launch entry point that parses an intent before any sanity check.

    The intent is two strings plus a tagged bundle.  Every read is trusted;
    the three bundle-specific failure points (tag dispatch, entry loop,
    byte-array length) sit under their own frames so they fingerprint
    separately, while argument-level failures share the decode_intent
    frame.
    """

    DESCRIPTOR = "svc.activity"
    START_ACTIVITY = 1
    REGISTRY = MethodRegistry(
        DESCRIPTOR,
        (MethodSpec("start_activity", ("STRING", "STRING", "BUNDLE")),),
    )

    def __init__(self):
        self._launched: list[str] = []

    def start_activity(self, data, ctx):
        with ctx.frame("activity.start_activity.decode_intent"):
            with data.composite("Intent"):
                action = data.read_value(_K_STRING)
                _data_uri = data.read_value(_K_STRING)
                _extras = self._read_bundle(data, ctx, 1)
        self._launched.append(action)
        return Parcel().write_value(_K_BOOL, True)

    def _read_bundle(self, data: Parcel, ctx: DispatchContext, depth: int):
        ctx.check_depth(depth)
        with data.composite("Bundle"):
            count = data.read_value(_K_I32)
            entries = []
            for i in range(max(count, 0)):
                with data.composite("Bundle.entry[%d]" % i):
                    with ctx.frame("activity.bundle.entry_loop"):
                        key = data.read_value(_K_STRING)
                    with ctx.frame("activity.bundle.tag_switch"):
                        tag = data.read_value(_K_I32)
                        if tag not in TAG_NAMES:
                            ctx.fail(MALFORMED_PARCEL, "unknown extras tag %d" % tag)
                    value = self._read_entry_value(data, ctx, tag, depth)
                entries.append((key, tag, value))
            return entries

    def _read_entry_value(self, data: Parcel, ctx: DispatchContext, tag: int, depth: int):
        if tag == TAG_BUNDLE:
            # Recurse outside any per-read frame so nested failures collapse
            # into the same fingerprints as top-level ones.
            return self._read_bundle(data, ctx, depth + 1)
        if tag == TAG_BYTES:
            with ctx.frame("activity.bundle.bytes_length"):
                return data.read_value(_K_BYTES)
        with ctx.frame("activity.bundle.entry_loop"):
            if tag == TAG_I32:
                return data.read_value(_K_I32)
            if tag == TAG_I64:
                return data.read_value(_K_I64)
            if tag == TAG_F64:
                return data.read_value(_K_F64)
            if tag == TAG_STRING:
                return data.read_value(_K_STRING)
            value, _slot_declared = data.read_handle()
            return value


def write_bundle(parcel: Parcel, entries, depth: int = 1) -> None:
    """Writer-side bundle encoder with full validation (tags, types, depth)."""
    if depth > BUNDLE_WRITER_DEPTH_LIMIT:
        raise ClientCheckError("bundle nested deeper than %d" % BUNDLE_WRITER_DEPTH_LIMIT)
    parcel.write_value(_K_I32, len(entries))
    for key, tag, value in entries:
        if not isinstance(key, str):
            raise ClientCheckError("bundle key must be str, got %r" % (key,))
        parcel.write_value(_K_STRING, key)
        parcel.write_value(_K_I32, tag)
        if tag == TAG_I32:
            parcel.write_value(_K_I32, value)
        elif tag == TAG_I64:
            parcel.write_value(_K_I64, value)
        elif tag == TAG_F64:
            parcel.write_value(_K_F64, value)
        elif tag == TAG_STRING:
            parcel.write_value(_K_STRING, value)
        elif tag == TAG_BYTES:
            parcel.write_value(_K_BYTES, value)
        elif tag == TAG_BUNDLE:
            write_bundle(parcel, value, depth + 1)
        elif tag == TAG_HANDLE:
            parcel.write_handle(value)
        else:
            raise ClientCheckError("unknown bundle tag %r" % (tag,))


# ---------------------------------------------------------------------------
# Client endpoint and per-service wrappers.
# ---------------------------------------------------------------------------


class Client:
    """Plain client endpoint: resolves services by name and sends transactions."""

    def __init__(self, router: Router, sender_id: str = "client"):
        self.router = router
        self.sender_id = sender_id

    def transact(self, handle: int, code: int, data: Parcel) -> Reply:
        return self.router.transact(Transaction(handle, code, data, self.sender_id))

    def get_service(self, descriptor: str) -> int:
        request = Parcel().write_value(_K_STRING, descriptor)
        reply = self.transact(SERVICE_MANAGER_HANDLE, GET_SERVICE, request)
        payload = _expect_ok(reply)
        handle, _ = payload.read_handle()
        return handle


def _expect_ok(reply: Reply) -> Parcel:
    if reply.kind is not ReplyKind.OK:
        raise ReplyError(reply)
    payload = reply.payload
    payload.cursor = 0
    return payload


class _Wrapper:
    SERVICE: type

    def __init__(self, client: Client):
        self._client = client
        self._handle: int | None = None

    @property
    def handle(self) -> int:
        if self._handle is None:
            self._handle = self._client.get_service(self.SERVICE.DESCRIPTOR)
        return self._handle

    def _call(self, code: int, data: Parcel) -> Parcel:
        return _expect_ok(self._client.transact(self.handle, code, data))


class QueueClient(_Wrapper):
    SERVICE = QueueService

    def add(self, item: str) -> bool:
        if not isinstance(item, str):
            raise ClientCheckError("queue items are strings")
        reply = self._call(QueueService.ADD, Parcel().write_value(_K_STRING, item))
        return reply.read_value(_K_BOOL)

    def peek(self) -> str:
        return self._call(QueueService.PEEK, Parcel()).read_value(_K_STRING)

    def poll(self) -> str:
        return self._call(QueueService.POLL, Parcel()).read_value(_K_STRING)

    def remove(self) -> bool:
        return self._call(QueueService.REMOVE, Parcel()).read_value(_K_BOOL)


class AudioClient(_Wrapper):
    """Public audio surface: play and open_session only.

    register_client is not part of this wrapper's public API; middleware
    calls :meth:`_register_client` with arguments it has already validated.
    """

    SERVICE = AudioService

    def play(self, track: str) -> bool:
        if not isinstance(track, str) or not track:
            raise ClientCheckError("track name must be a non-empty string")
        reply = self._call(AudioService.PLAY, Parcel().write_value(_K_STRING, track))
        return reply.read_value(_K_BOOL)

    def open_session(self) -> tuple[int, int]:
        """Returns (session handle, session index)."""
        reply = self._call(AudioService.OPEN_SESSION, Parcel())
        handle, _ = reply.read_handle()
        index = reply.read_value(_K_I32)
        return handle, index

    def _register_client(self, callback_handle: int, name: str) -> bool:
        # Middleware-only entry point; not offered to applications.
        if not isinstance(callback_handle, int) or callback_handle <= 0:
            raise ClientCheckError("callback handle must be a positive handle")
        if not isinstance(name, str) or not name:
            raise ClientCheckError("client name must be a non-empty string")
        data = Parcel().write_handle(callback_handle).write_value(_K_STRING, name)
        return self._call(AudioService.REGISTER_CLIENT, data).read_value(_K_BOOL)


class BluetoothClient(_Wrapper):
    SERVICE = BluetoothService

    def register_app_configuration(self, entries: list[str], declared_count: int | None = None) -> bool:
        count = len(entries) if declared_count is None else declared_count
        if count != len(entries):
            raise ClientCheckError(
                "declared count %d does not match %d entries" % (count, len(entries))
            )
        if not 0 <= count <= BluetoothService.SLOTS:
            raise ClientCheckError("entry count %d outside [0, %d]" % (count, BluetoothService.SLOTS))
        data = Parcel().write_value(_K_I32, count)
        for entry in entries:
            if not isinstance(entry, str):
                raise ClientCheckError("configuration entries are strings")
            data.write_value(_K_STRING, entry)
        reply = self._call(BluetoothService.REGISTER_APP_CONFIGURATION, data)
        return reply.read_value(_K_BOOL)


class ViewClient(_Wrapper):
    SERVICE = ViewService

    def inflate(self, template: str, root: ViewNode) -> int:
        if not isinstance(template, str):
            raise ClientCheckError("template name must be a string")
        data = Parcel().write_value(_K_STRING, template)
        write_view_node(data, root)
        return self._call(ViewService.INFLATE, data).read_value(_K_I32)


class GraphicsClient(_Wrapper):
    SERVICE = GraphicsService
    MAX_FDS = 64
    MAX_INTS = 4096

    def create_native_handle(self, name: str, num_fds: int, num_ints: int) -> int:
        if not isinstance(name, str) or not name:
            raise ClientCheckError("buffer name must be a non-empty string")
        if not 0 <= num_fds <= self.MAX_FDS:
            raise ClientCheckError("num_fds %r outside [0, %d]" % (num_fds, self.MAX_FDS))
        if not 0 <= num_ints <= self.MAX_INTS:
            raise ClientCheckError("num_ints %r outside [0, %d]" % (num_ints, self.MAX_INTS))
        data = (
            Parcel()
            .write_value(_K_STRING, name)
            .write_value(_K_I32, num_fds)
            .write_value(_K_I32, num_ints)
        )
        return self._call(GraphicsService.CREATE_NATIVE_HANDLE, data).read_value(_K_I64)


class ActivityClient(_Wrapper):
    SERVICE = ActivityService

    def start_activity(self, action: str, data_uri: str, extras=()) -> bool:
        if not isinstance(action, str) or not action:
            raise ClientCheckError("action must be a non-empty string")
        if not isinstance(data_uri, str):
            raise ClientCheckError("data uri must be a string")
        data = Parcel().write_value(_K_STRING, action).write_value(_K_STRING, data_uri)
        write_bundle(data, list(extras))
        reply = self._call(ActivityService.START_ACTIVITY, data)
        return reply.read_value(_K_BOOL)


# ---------------------------------------------------------------------------
# Registry plumbing and the seeded-bug catalog.
# ---------------------------------------------------------------------------

SERVICE_CLASSES: tuple[type, ...] = (
    QueueService,
    AudioService,
    BluetoothService,
    ViewService,
    GraphicsService,
    ActivityService,
)


# Every shipped service at handles 1..6 in SERVICE_CLASSES order.
HOSTED = HostTable(SERVICE_CLASSES)


def fresh_router() -> Router:
    """A router hosting every shipped service, none of them built yet."""
    return Router(HOSTED)


def all_methods() -> tuple[tuple[str, int, str], ...]:
    """Every (descriptor, code, method name) in fixed enumeration order."""
    return tuple(
        (cls.DESCRIPTOR, n, m.name) for cls in SERVICE_CLASSES for n, m in enumerate(cls.REGISTRY.methods, 1)
    )


class SeededBug(NamedTuple):
    """One planted defect: where it lives, what trips it, what it raises."""

    bug_id: str
    descriptor: str
    code: int
    exception_kind: str
    summary: str
    needs_structure: bool
    build_trigger: Callable[[], Parcel]


def _trigger_audio_null() -> Parcel:
    return Parcel()


def _trigger_bt_table_overrun() -> Parcel:
    data = Parcel().write_value(_K_I32, 20)
    for i in range(20):
        data.write_value(_K_STRING, "cfg%d" % i)
    return data


def _trigger_bt_count_overread() -> Parcel:
    return Parcel().write_value(_K_I32, 5).write_value(_K_STRING, "only-one")


def _trigger_view_recursion() -> Parcel:
    data = Parcel().write_value(_K_STRING, "probe")
    for _ in range(600):
        data.write_value(_K_I32, 1)
    return data


def _trigger_view_underflow() -> Parcel:
    return Parcel().write_value(_K_STRING, "probe").write_value(_K_I32, 1)


def _trigger_gfx_alloc_wrap() -> Parcel:
    return (
        Parcel()
        .write_value(_K_STRING, "fb0")
        .write_value(_K_I32, 1)
        .write_value(_K_I32, I32_MAX)
    )


def _trigger_activity_bad_args() -> Parcel:
    # A negative declared length where the action string should start.
    return Parcel().write_value(_K_I32, -1)


def _intent_prefix() -> Parcel:
    return (
        Parcel()
        .write_value(_K_STRING, "app.intent.MAIN")
        .write_value(_K_STRING, "content://item/1")
    )


def _trigger_activity_entry_overread() -> Parcel:
    data = _intent_prefix()
    data.write_value(_K_I32, 5)  # declares five entries
    data.write_value(_K_STRING, "mode").write_value(_K_I32, TAG_I32).write_value(_K_I32, 7)
    return data


def _trigger_activity_tag_confusion() -> Parcel:
    data = _intent_prefix()
    data.write_value(_K_I32, 1)
    data.write_value(_K_STRING, "mode").write_value(_K_I32, 9).write_value(_K_I32, 7)
    return data


def _trigger_activity_bytes_length() -> Parcel:
    data = _intent_prefix()
    data.write_value(_K_I32, 1)
    data.write_value(_K_STRING, "blob").write_value(_K_I32, TAG_BYTES)
    data.write_value(_K_I32, -8)  # negative declared byte-array length
    return data


SEEDED_BUGS: tuple[SeededBug, ...] = (
    SeededBug(
        "audio-null-client",
        AudioService.DESCRIPTOR,
        AudioService.REGISTER_CLIENT,
        NULL_DEREF,
        "hidden register_client uses lenient reads and dereferences missing arguments",
        False,
        _trigger_audio_null,
    ),
    SeededBug(
        "bluetooth-table-overrun",
        BluetoothService.DESCRIPTOR,
        BluetoothService.REGISTER_APP_CONFIGURATION,
        OUT_OF_BOUNDS,
        "declared count reserves slots past the 16-slot table",
        False,
        _trigger_bt_table_overrun,
    ),
    SeededBug(
        "bluetooth-count-overread",
        BluetoothService.DESCRIPTOR,
        BluetoothService.REGISTER_APP_CONFIGURATION,
        MALFORMED_PARCEL,
        "declared count larger than supplied entries runs the read loop off the parcel",
        False,
        _trigger_bt_count_overread,
    ),
    SeededBug(
        "view-unbounded-recursion",
        ViewService.DESCRIPTOR,
        ViewService.INFLATE,
        STACK_OVERFLOW,
        "non-normal mode chain recurses past the simulated stack budget",
        True,
        _trigger_view_recursion,
    ),
    SeededBug(
        "view-node-underflow",
        ViewService.DESCRIPTOR,
        ViewService.INFLATE,
        MALFORMED_PARCEL,
        "tree decode runs out of bytes mid-recursion",
        True,
        _trigger_view_underflow,
    ),
    SeededBug(
        "graphics-alloc-wrap",
        GraphicsService.DESCRIPTOR,
        GraphicsService.CREATE_NATIVE_HANDLE,
        MEMORY_CORRUPTION,
        "32-bit wrapped allocation size smaller than the wide requirement",
        True,
        _trigger_gfx_alloc_wrap,
    ),
    SeededBug(
        "activity-args-malformed",
        ActivityService.DESCRIPTOR,
        ActivityService.START_ACTIVITY,
        MALFORMED_PARCEL,
        "intent argument strings parsed with no guards",
        False,
        _trigger_activity_bad_args,
    ),
    SeededBug(
        "activity-entry-overread",
        ActivityService.DESCRIPTOR,
        ActivityService.START_ACTIVITY,
        MALFORMED_PARCEL,
        "bundle entry count larger than encoded entries starves the entry loop",
        True,
        _trigger_activity_entry_overread,
    ),
    SeededBug(
        "activity-tag-confusion",
        ActivityService.DESCRIPTOR,
        ActivityService.START_ACTIVITY,
        MALFORMED_PARCEL,
        "unknown bundle entry tag rejected inside the tag switch",
        True,
        _trigger_activity_tag_confusion,
    ),
    SeededBug(
        "activity-bytes-length",
        ActivityService.DESCRIPTOR,
        ActivityService.START_ACTIVITY,
        MALFORMED_PARCEL,
        "negative declared byte-array length inside a bundle entry",
        True,
        _trigger_activity_bytes_length,
    ),
)
