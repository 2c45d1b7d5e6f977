"""A Parcel that logs every look at its bytes, and the dispatch helpers
the tests of the memo's premise share.

_answers keys a seedless case by its method once a dispatch of that
method left its parcel unobserved (Parcel.observed, which only the
public readers set).  That is sound only if no service looks at a
request any other way.  WatchedParcel checks this from outside the flag:
it logs every read of the slots that hold a request's bytes and its
reader state, with whether Parcel's own code made it.
"""

import sys
from types import FunctionType

from parcelfuzz.parcel import Parcel
from parcelfuzz.router import Transaction
from parcelfuzz.services import HOSTED, all_methods, fresh_router

# The code of every function Parcel defines, property getters included.
_OWN_CODE = frozenset(
    (value.fget if isinstance(value, property) else value).__code__
    for value in vars(Parcel).values()
    if isinstance(value, (FunctionType, property))
)


class WatchedParcel(Parcel):
    """looks lists each read of _buf, offsets or cursor, in order, as
    (slot name, whether a function of Parcel's own made it)."""

    __slots__ = ("looks",)

    def __init__(self, data: bytes = b""):
        self.looks = []
        super().__init__(data)


def _watched(name):
    slot = vars(Parcel)[name]

    def get(parcel):
        parcel.looks.append((name, sys._getframe(1).f_code in _OWN_CODE))
        return slot.__get__(parcel)

    return property(get, slot.__set__)


for _name in ("_buf", "offsets", "cursor"):
    setattr(WatchedParcel, _name, _watched(_name))


def dispatch(descriptor: str, code: int, data: Parcel):
    """Send data to a hosted method on a fresh router, with no handle
    slots, as a seedless case is sent; returns the router and the reply."""
    router = fresh_router()
    return router, router.transact(Transaction(HOSTED.names[descriptor], code, data, "fuzzer"))


def methods_that_read_nothing() -> set[tuple[str, int]]:
    """Each hosted method whose handler, sent an empty request on a fresh
    router, reads none of the request's slots."""
    quiet = set()
    for descriptor, code, _name in all_methods():
        data = WatchedParcel()
        dispatch(descriptor, code, data)
        if not data.looks:
            quiet.add((descriptor, code))
    return quiet
