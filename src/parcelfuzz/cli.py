"""Command-line front end.

Subcommands mirror the workflow: `list` the fuzzable surface, `record` a
seed corpus, `fuzz` a campaign against it, `replay` a crash out of a
saved report (with --schema, also the type trace of its input), and
`report` to render one.  Exit status is 0 for a clean run, 2 when
crashes were found (or reproduced), 1 for usage and I/O errors.

Each subcommand is declared once, in COMMANDS: its help line, handler
and arguments.  A command line that starts with a subcommand is parsed
by that subcommand's parser alone: a replay is one short call, and
building the full parser around it was a large share of it.  Any other
command line (none, --help, an unknown word, or words the subcommand
leaves over) goes to the full parser, which builds all five.  Help,
usage and error texts are the same either way.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, NamedTuple

from .harness import (
    FingerprintMismatch,
    FuzzConfig,
    HarnessError,
    ManifestError,
    build_manifest,
    canonical_json,
    fingerprint,
    load_report,
    reproduce,
    run_fuzz,
    save_report,
)
from .mutator import ConfigurationError
from .recorder import (
    CorpusError,
    RecordingError,
    TraceBuilder,
    load_corpus,
    record_session,
    save_corpus,
    scenario_names,
)
from .replayer import ReplayError

# Trace nodes deeper than this print as truncated in a `replay --schema`.
SCHEMA_DEPTH_LIMIT = 32

_ERRORS = (
    HarnessError,
    ManifestError,
    ConfigurationError,
    CorpusError,
    RecordingError,
    ReplayError,
    OSError,
    ValueError,
)


def _cmd_list(args) -> int:
    manifest = build_manifest()
    if args.json:
        print(canonical_json(manifest))
        return 0
    for service in manifest["services"]:
        print(service["descriptor"])
        for method in service["methods"]:
            hidden = "  (hidden)" if method["hidden"] else ""
            signature = ", ".join(method["signature"]) or "-"
            print("  %d %s(%s)%s" % (method["code"], method["name"], signature, hidden))
        for bug in service["seeded_bugs"]:
            print("  defect %s: %s [%s, %s]" % (bug["id"], bug["summary"], bug["exception_kind"], bug["fingerprint"][:12]))
    print("%d distinct seeded fingerprints" % manifest["fingerprint_count"])
    return 0


def _cmd_record(args) -> int:
    names = args.scenario or ["all"]
    records = record_session(names)
    digest = save_corpus(records, args.out)
    print("wrote %d records to %s (%s)" % (len(records), args.out, digest[:12]))
    return 0


def _cmd_fuzz(args) -> int:
    corpus = load_corpus(args.corpus) if args.corpus else []
    policies = [p.strip() for p in args.policy.split(",") if p.strip()]
    if not policies:
        raise ConfigurationError("no policy given")
    config = FuzzConfig(
        policy=policies,
        budget=args.budget,
        rng_seed=args.rng_seed,
        corpus=corpus,
    )
    report = run_fuzz(config)
    save_report(report, args.out)
    crash_count = len(report.crashes)
    print(
        "executed %d of %d cases: %s; %d distinct crash(es) -> %s"
        % (report.executed, args.budget, _counter_line(report.counters), crash_count, args.out)
    )
    return 2 if report.counters["fatal_crash"] else 0


def _cmd_replay(args) -> int:
    report = load_report(args.report)
    corpus = load_corpus(args.corpus) if args.corpus else []
    builder = TraceBuilder() if args.schema else None
    crash = reproduce(report, args.fingerprint, corpus, builder).crash
    print("reproduced %s" % fingerprint(crash))
    print("  %s in %s" % (crash.exception_kind, " < ".join(crash.stack_frames)))
    print("  detail: %s" % crash.detail)
    if builder is not None:
        print(canonical_json(builder.finish().to_json(max_depth=SCHEMA_DEPTH_LIMIT)))
    return 2


def _cmd_report(args) -> int:
    report = load_report(args.path)
    if args.format == "json":
        sys.stdout.write(report.to_canonical_json())
    else:
        _render_text(report)
    return 2 if report.crashes else 0


def _counter_line(counters) -> str:
    return ", ".join("%s=%d" % (name, counters[name]) for name in sorted(counters))


def _render_text(report) -> None:
    cfg = report.config
    print("campaign: policy=%s budget=%d rng_seed=%d mode=%s" % ("+".join(cfg["policy"]), cfg["budget"], cfg["rng_seed"], cfg["mode"]))
    print("catalog %s, corpus %s" % (cfg["catalog_version"], (cfg["corpus_id"] or "none")[:12]))
    print("executed %d, unexecuted %d (%s)" % (report.executed, report.unexecuted, _counter_line(report.counters)))
    print()
    if not report.crashes:
        print("no crashes.")
    for crash in report.crashes:
        print("%s  %s  %s:%d" % (crash.fingerprint[:16], crash.exception_kind, crash.descriptor, crash.code))
        print("  frames: %s" % " < ".join(crash.stack_frames))
        print("  hits %d, first case %d, policy %s" % (crash.hit_count, crash.first_seen_case_id, crash.provenance["policy"]))
    print()
    print("per method:")
    for key in sorted(report.per_method):
        print("  %s: %s" % (key, _counter_line(report.per_method[key])))
    print("ipc edges: %d" % report.edge_summary["total"])


class Command(NamedTuple):
    """One subcommand: its help line, the function that runs it, and its
    arguments as (flag, add_argument keywords) pairs."""

    help: str
    handler: Callable[[argparse.Namespace], int]
    arguments: tuple[tuple[str, dict], ...]


# Every subcommand, in the order usage lists them.  Its parser, alone or
# as a subparser of build_parser's, is built from this table, and main
# runs its handler.
COMMANDS = {
    "list": Command(
        "show services, methods and seeded defects",
        _cmd_list,
        (("--json", dict(action="store_true", help="emit the manifest as JSON")),),
    ),
    "record": Command(
        "record seed scenarios into a corpus file",
        _cmd_record,
        (
            ("--scenario", dict(
                action="append",
                default=None,
                metavar="NAME",
                help="scenario to record (repeatable; default: all). One of: %s" % ", ".join(scenario_names()),
            )),
            ("--out", dict(required=True, metavar="PATH", help="corpus file to write")),
        ),
    ),
    "fuzz": Command(
        "run a fuzzing campaign",
        _cmd_fuzz,
        (
            ("--policy", dict(
                required=True,
                metavar="POLICY",
                help="empty, random or semi-valid; comma-separate to combine (random runs last)",
            )),
            ("--corpus", dict(metavar="PATH", help="seed corpus (required for semi-valid)")),
            ("--budget", dict(required=True, type=int, metavar="N")),
            ("--rng-seed", dict(type=int, default=1, metavar="S")),
            ("--out", dict(required=True, metavar="PATH", help="report file to write")),
        ),
    ),
    "replay": Command(
        "reproduce one crash from a report",
        _cmd_replay,
        (
            ("--report", dict(required=True, metavar="PATH")),
            ("--fingerprint", dict(required=True, metavar="HEX")),
            ("--corpus", dict(metavar="PATH", help="corpus the campaign was run against")),
            ("--schema", dict(action="store_true", help="also print the type trace of the crashing input")),
        ),
    ),
    "report": Command(
        "render a saved campaign report",
        _cmd_report,
        (
            ("--in", dict(dest="path", required=True, metavar="PATH")),
            ("--format", dict(choices=("text", "json"), default="text")),
        ),
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    for flag, keywords in COMMANDS[name].arguments:
        parser.add_argument(flag, **keywords)


def build_parser() -> argparse.ArgumentParser:
    """The full parser, every subcommand's subparser in it.  main builds
    it only for a command line that does not start with a subcommand, or
    that its subcommand's parser leaves words of, so help and errors name
    every subcommand."""
    parser = argparse.ArgumentParser(prog="parcelfuzz")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=command.help), name)
    return parser


def _parse(argv) -> argparse.Namespace:
    """argv parsed as build_parser().parse_args(argv) parses it.  A command
    line that starts with a subcommand is parsed by that subcommand's
    parser alone, which is the parser the full one hands the rest of the
    line to: its help and errors are the same.  Only words it leaves over
    need the full parser, which names them in the top-level usage."""
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        parser = argparse.ArgumentParser(prog="parcelfuzz " + name)
        _add_arguments(parser, name)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            args.command = name
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    try:
        return COMMANDS[args.command].handler(args)
    except FingerprintMismatch as exc:
        print("fingerprint mismatch: %s" % exc, file=sys.stderr)
        return 1
    except _ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
