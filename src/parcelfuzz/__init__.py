"""A fuzzing workbench for a simulated binder-style IPC system.

Six toy system services speak an untagged binary parcel format through a
central router.  The package records seed transactions from scripted
clients, mutates them field by field with a fixed catalog, replays the
handle-passing prefix each mutant needs, and triages what crashes.
"""

from .harness import (
    CampaignReport,
    CrashReport,
    FingerprintMismatch,
    FuzzConfig,
    HarnessError,
    build_manifest,
    fingerprint,
    load_report,
    manifest_fingerprints,
    reproduce,
    run_fuzz,
    save_report,
)
from .mutator import CATALOG_VERSION, FuzzCase, Policy, generate_campaign
from .parcel import (
    CapacityError,
    EncodingError,
    Kind,
    MalformedLengthError,
    Parcel,
    ParcelError,
    TruncationError,
)
from .recorder import (
    DependencyGraph,
    SeedRecord,
    TraceBuilder,
    TraceNode,
    build_dependency_graph,
    load_corpus,
    record_session,
    save_corpus,
)
from .replayer import PreparedCorpus, ReplaySession, Unreplayable, plan, prepare_corpus
from .router import (
    CrashInfo,
    DispatchContext,
    IpcEdge,
    Reply,
    ReplyKind,
    Router,
    Service,
    Transaction,
)
from .services import SEEDED_BUGS, all_methods, fresh_router

__all__ = [
    "CampaignReport",
    "CrashReport",
    "FingerprintMismatch",
    "FuzzConfig",
    "HarnessError",
    "build_manifest",
    "fingerprint",
    "load_report",
    "manifest_fingerprints",
    "reproduce",
    "run_fuzz",
    "save_report",
    "CATALOG_VERSION",
    "FuzzCase",
    "Policy",
    "generate_campaign",
    "CapacityError",
    "EncodingError",
    "Kind",
    "MalformedLengthError",
    "Parcel",
    "ParcelError",
    "TruncationError",
    "DependencyGraph",
    "SeedRecord",
    "TraceBuilder",
    "TraceNode",
    "build_dependency_graph",
    "load_corpus",
    "record_session",
    "save_corpus",
    "PreparedCorpus",
    "ReplaySession",
    "Unreplayable",
    "plan",
    "prepare_corpus",
    "CrashInfo",
    "DispatchContext",
    "IpcEdge",
    "Reply",
    "ReplyKind",
    "Router",
    "Service",
    "Transaction",
    "SEEDED_BUGS",
    "all_methods",
    "fresh_router",
]
