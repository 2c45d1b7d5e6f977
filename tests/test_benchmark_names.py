"""The names the benchmark under perfbench/ reaches into still exist.

perfbench wraps package functions and methods by name and reads a few
fields of what they return, so a refactor that renames or drops one
breaks the benchmark, not this suite.  This reads the benchmark's files
without running them and takes no timings; perfbench's own self-test,
which times, stays outside this suite.
"""

import ast
import importlib
from pathlib import Path

from parcelfuzz import harness
from parcelfuzz.router import Router

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("run.py", "spans.py", "workloads.py")


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"), name)


def _resolve(node):
    """The object a dotted expression such as ``replayer.ReplaySession``
    names, its first part being a package module."""
    if isinstance(node, ast.Name):
        return importlib.import_module("parcelfuzz." + node.id)
    return getattr(_resolve(node.value), node.attr)


def _modules_imported(tree):
    """The package modules a file imports by name, anywhere in it."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "parcelfuzz"
        for alias in node.names
    }


def test_every_name_the_tracer_wraps_exists():
    wrapped, missing = set(), []
    for node in ast.walk(_tree("spans.py")):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "wrap":
            owner, name = node.args[0], node.args[1].value
            dotted = "%s.%s" % (ast.unparse(owner), name)
            wrapped.add(dotted)
            try:
                found = hasattr(_resolve(owner), name)
            except AttributeError:
                found = False
            if not found:
                missing.append(dotted)
    assert missing == []
    assert {"replayer.ReplaySession.ensure_supports", "router.Router.transact", "harness.ReplaySession"} <= wrapped


def test_every_name_the_benchmark_imports_exists():
    missing = []
    for name in FILES:
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("parcelfuzz"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        try:
                            importlib.import_module("%s.%s" % (node.module, alias.name))
                        except ImportError:
                            missing.append("%s.%s" % (node.module, alias.name))
    assert missing == []


def test_every_module_attribute_the_benchmark_reads_exists():
    """Each ``<module>.<name>`` a file reads, for the package modules it
    imports by name: harness.run_fuzz, replayer.Unreplayable and the like."""
    read, missing = set(), []
    for name in FILES:
        tree = _tree(name)
        modules = _modules_imported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                read.add(ast.unparse(node))
                if not hasattr(_resolve(node.value), node.attr):
                    missing.append(ast.unparse(node))
    assert missing == []
    assert {"harness.run_fuzz", "cli.main", "replayer.Unreplayable", "router.Router"} <= read


def test_the_report_and_router_fields_the_benchmark_reads_exist():
    # workloads.py counts report.counters["unreplayable"] as failed
    # operations and reads report.distinct_fingerprints(); spans.py
    # counts len(router.edges) around each Router.transact.
    assert "unreplayable" in harness.OUTCOMES
    assert callable(harness.CampaignReport.distinct_fingerprints)
    assert Router().edges == []
