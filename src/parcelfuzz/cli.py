"""Command-line front end.

Subcommands mirror the workflow: `list` the fuzzable surface, `record` a
seed corpus, `fuzz` a campaign against it, `replay` a crash out of a
saved report, and `report` to render one.  Exit status is 0 for a clean
run, 2 when crashes were found (or reproduced), 1 for usage and I/O
errors.
"""

from __future__ import annotations

import argparse
import sys

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
from .mutator import CatalogError, ConfigurationError
from .recorder import (
    CorpusError,
    RecordingError,
    corpus_digest,
    load_corpus,
    record_session,
    save_corpus,
    scenario_names,
)
from .replayer import ReplayError

_ERRORS = (
    HarnessError,
    ManifestError,
    ConfigurationError,
    CatalogError,
    CorpusError,
    RecordingError,
    ReplayError,
    OSError,
    ValueError,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parcelfuzz")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show services, methods and seeded defects")
    p_list.add_argument("--json", action="store_true", help="emit the manifest as JSON")

    p_record = sub.add_parser("record", help="record seed scenarios into a corpus file")
    p_record.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="scenario to record (repeatable; default: all). One of: %s" % ", ".join(scenario_names()),
    )
    p_record.add_argument("--out", required=True, metavar="PATH", help="corpus file to write")

    p_fuzz = sub.add_parser("fuzz", help="run a fuzzing campaign")
    p_fuzz.add_argument(
        "--policy",
        required=True,
        metavar="POLICY",
        help="empty, random or semi-valid; comma-separate to combine (random runs last)",
    )
    p_fuzz.add_argument("--corpus", metavar="PATH", help="seed corpus (required for semi-valid)")
    p_fuzz.add_argument("--budget", required=True, type=int, metavar="N")
    p_fuzz.add_argument("--rng-seed", type=int, default=1, metavar="S")
    p_fuzz.add_argument("--out", required=True, metavar="PATH", help="report file to write")

    p_replay = sub.add_parser("replay", help="reproduce one crash from a report")
    p_replay.add_argument("--report", required=True, metavar="PATH")
    p_replay.add_argument("--fingerprint", required=True, metavar="HEX")
    p_replay.add_argument("--corpus", metavar="PATH", help="corpus the campaign was run against")

    p_report = sub.add_parser("report", help="render a saved campaign report")
    p_report.add_argument("--in", dest="path", required=True, metavar="PATH")
    p_report.add_argument("--format", choices=("text", "json"), default="text")

    return parser


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
    save_corpus(records, args.out)
    print("wrote %d records to %s (%s)" % (len(records), args.out, corpus_digest(records)[:12]))
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
    crash = reproduce(report, args.fingerprint, corpus).crash
    print("reproduced %s" % fingerprint(crash))
    print("  %s in %s" % (crash.exception_kind, " < ".join(crash.stack_frames)))
    print("  detail: %s" % crash.detail)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "record": _cmd_record,
        "fuzz": _cmd_fuzz,
        "replay": _cmd_replay,
        "report": _cmd_report,
    }[args.command]
    try:
        return handler(args)
    except FingerprintMismatch as exc:
        print("fingerprint mismatch: %s" % exc, file=sys.stderr)
        return 1
    except _ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
