"""A campaign leaves the dispatch modules as it found them.

The memo in harness._answers reuses a stored answer whenever a case would
send what an earlier case sent, and a seed's supports are replayed once
per campaign.  Both are sound only if a fresh router's replies depend on
what it receives alone: no state may outlive a router in router.py,
services.py or parcel.py, at module level or on a class.
"""

from types import BuiltinFunctionType, FunctionType, MappingProxyType, ModuleType

from parcelfuzz import parcel, router, services
from parcelfuzz.harness import FuzzConfig, run_fuzz

_PLAIN = (int, float, complex, str, bytes, bool, type(None))


def _state(value, path=()):
    """A copy of value that compares equal to a later copy only if nothing
    reachable from it changed.  Functions, classes and modules compare by
    identity; tuples, lists, dicts, mapping proxies and objects with a
    __dict__ or __slots__ by their contents, recursively; anything else,
    such as a struct.Struct or a descriptor, by identity."""
    if type(value) in _PLAIN or isinstance(value, (type, FunctionType, BuiltinFunctionType, ModuleType)):
        return value
    if id(value) in path:
        return ("cycle", id(value))
    path = (*path, id(value))
    if isinstance(value, (tuple, list)):
        return (type(value), tuple(_state(item, path) for item in value))
    if isinstance(value, (dict, MappingProxyType)):
        return (type(value), tuple((key, _state(item, path)) for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return (type(value), frozenset(value))
    if isinstance(value, bytearray):
        return (bytearray, bytes(value))
    fields = dict(getattr(value, "__dict__", {}))
    for cls in type(value).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name not in fields and hasattr(value, name):
                fields[name] = getattr(value, name)
    if not fields:
        return value
    return (type(value), tuple((name, _state(item, path)) for name, item in sorted(fields.items())))


def module_state(*modules):
    """Every module-level value of modules but the import machinery's
    dunders, and every attribute of each class a module defines."""
    snapshot = {}
    for module in modules:
        for name, value in vars(module).items():
            if name.startswith("__") and name.endswith("__"):
                continue
            snapshot[module.__name__, name] = _state(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                snapshot[module.__name__, name, "class"] = _state(dict(vars(value)))
    return snapshot


def test_the_snapshot_reaches_hosted_services_and_registries():
    state = module_state(services)
    hosted = dict(state["parcelfuzz.services", "HOSTED"][1])
    assert dict(hosted["names"][1]) == {cls.DESCRIPTOR: n for n, cls in enumerate(services.SERVICE_CLASSES, 1)}
    audio = dict(state["parcelfuzz.services", "AudioService", "class"][1])
    assert dict(audio["REGISTRY"][1])["short"] == "audio"


def test_a_mixed_campaign_changes_no_module_state(shuffled_corpus):
    modules = (router, services, parcel)
    before = module_state(*modules)
    report = run_fuzz(FuzzConfig(policy=["empty", "random", "semi-valid"], budget=10000, corpus=shuffled_corpus))
    assert report.executed == 10000
    after = module_state(*modules)
    changed = sorted(key for key in before.keys() | after.keys() if before.get(key) != after.get(key))
    assert changed == []
