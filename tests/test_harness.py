"""Campaign orchestration: triage, fingerprints, reproduction, reporting, CLI."""

import contextlib
import copy
import hashlib
import io
import json
import math
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from parcelfuzz import harness
from parcelfuzz.cli import main
from parcelfuzz.harness import (
    FINGERPRINT_FRAMES,
    OUTCOMES,
    SCHEMA_DEPTH_LIMIT,
    CampaignReport,
    CrashReport,
    FingerprintMismatch,
    FuzzConfig,
    HarnessError,
    ManifestError,
    build_manifest,
    canonical_json,
    classify,
    find_crash,
    fingerprint,
    load_report,
    manifest_fingerprints,
    reproduce,
    run_fuzz,
    save_report,
)
from parcelfuzz.mutator import CATALOG_VERSION, ConfigurationError, FuzzCase, Policy, make_random
from parcelfuzz.recorder import CorpusError, TraceBuilder, corpus_digest, corpus_text, load_corpus, record_session
from parcelfuzz.replayer import ReplaySession, prepare_corpus
from parcelfuzz.router import CrashInfo, IpcEdge, Reply, ReplyKind, Router


@pytest.fixture(scope="module")
def semi_report(corpus):
    return run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=corpus))


def _crash(kind="NULL_DEREF", frames=("a", "b"), detail=""):
    return CrashInfo(kind, tuple(frames), detail)


# -- classification ---------------------------------------------------------------


def test_classify_maps_each_reply_kind():
    assert classify(Reply.ok()) == "ok"
    assert classify(Reply.rejected("nope")) == "rejected"
    assert classify(Reply.handled_fault("hmm")) == "handled_fault"
    assert classify(Reply.fatal(_crash())) == "fatal_crash"
    assert set(OUTCOMES) >= {"ok", "rejected", "handled_fault", "fatal_crash", "unreplayable"}


# -- fingerprints ----------------------------------------------------------------


def test_fingerprint_is_deterministic_and_sensitive():
    base = fingerprint(_crash())
    assert base == fingerprint(_crash())
    assert len(base) == 64
    assert int(base, 16) >= 0
    assert fingerprint(_crash(kind="OUT_OF_BOUNDS")) != base
    assert fingerprint(_crash(frames=("a", "c"))) != base


def test_fingerprint_ignores_detail_and_deep_frames():
    assert fingerprint(_crash(detail="x")) == fingerprint(_crash(detail="y"))
    frames = tuple("f%d" % i for i in range(FINGERPRINT_FRAMES))
    assert fingerprint(_crash(frames=frames + ("outer1",))) == fingerprint(
        _crash(frames=frames + ("outer2", "outer3"))
    )


def test_fingerprint_hashes_all_frames_when_fewer_than_five():
    short = ("f0", "f1", "f2")
    assert fingerprint(_crash(frames=short)) != fingerprint(_crash(frames=short + ("f3",)))


# -- campaign accounting -------------------------------------------------------------


def test_counters_account_for_every_case(semi_report, corpus):
    report = semi_report
    assert report.executed == 349
    assert report.executed + report.unexecuted == 400
    assert sum(report.counters.values()) == report.executed
    assert report.counters["unreplayable"] == 0
    for outcome in OUTCOMES:
        per_method_total = sum(t[outcome] for t in report.per_method.values())
        assert per_method_total == report.counters[outcome]
    assert sum(c.hit_count for c in report.crashes) == report.counters["fatal_crash"]


def test_semi_campaign_recovers_every_seeded_fingerprint(semi_report, manifest_fps):
    assert semi_report.distinct_fingerprints() == manifest_fps


def test_unstructured_policies_find_strictly_fewer(corpus, manifest_fps, semi_report):
    report = run_fuzz(FuzzConfig(policy=["empty", "random"], budget=2000, corpus=corpus))
    found = report.distinct_fingerprints()
    assert found < manifest_fps
    kinds = {c.exception_kind for c in report.crashes}
    assert "STACK_OVERFLOW" not in kinds
    assert "MEMORY_CORRUPTION" not in kinds


def test_unreplayable_cases_are_counted_not_fatal(monkeypatch, corpus):
    broken = [
        r._replace(code=99) if (r.descriptor, r.code) == ("svc.audio", 3) else r
        for r in corpus
    ]
    # The campaign's replay of the whole corpus refuses it up front...
    with pytest.raises(CorpusError, match=r"^record 8 recorded OK, replayed REJECTED$"):
        run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=broken))
    # ...and behind that check, a case whose support fails is counted.
    monkeypatch.setattr(harness, "check_replies", lambda prepared: None)
    report = run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=broken))
    assert report.counters["unreplayable"] > 0
    assert sum(report.counters.values()) == report.executed


def test_a_campaign_leaves_its_prepared_corpus_unchanged(monkeypatch, corpus):
    prepared = []

    def capture(records):
        prepared.append(prepare_corpus(records))
        return prepared[-1]

    monkeypatch.setattr(harness, "prepare_corpus", capture)

    def snapshot(p):
        return copy.deepcopy((dict(p.records), dict(p.static_names), dict(p.plans)))

    report = run_fuzz(FuzzConfig(policy=["semi-valid", "empty", "random"], budget=500, corpus=corpus))
    assert report.executed == 500
    (once,) = prepared
    assert snapshot(once) == snapshot(prepare_corpus(corpus))


def test_a_failed_support_replay_leaves_later_cases_alone(monkeypatch, corpus, semi_report):
    broken = [
        r._replace(code=99) if (r.descriptor, r.code) == ("svc.audio", 3) else r
        for r in corpus
    ]
    # run_fuzz refuses this corpus (see above); the per-case path is
    # what this test is about.
    monkeypatch.setattr(harness, "check_replies", lambda prepared: None)
    report = run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=broken))
    assert report.counters["unreplayable"] > 0
    # Every scenario recorded after the audio one runs as if nothing failed.
    later_services = ("svc.bluetooth", "svc.view", "svc.graphics", "svc.activity")
    later = [key for key in semi_report.per_method if key.split(":")[0] in later_services]
    assert later
    for key in later:
        assert report.per_method[key] == semi_report.per_method[key]
    later_crashes = {c.fingerprint for c in semi_report.crashes if c.descriptor != "svc.audio"}
    assert later_crashes <= report.distinct_fingerprints()


def test_a_non_contiguous_corpus_fails_before_any_dispatch(monkeypatch, corpus):
    dispatched = []
    monkeypatch.setattr(Router, "transact", lambda self, *args, **kwargs: dispatched.append(args))
    with pytest.raises(CorpusError):
        run_fuzz(FuzzConfig(policy=["empty", "random"], budget=50, corpus=list(corpus)[1:]))
    assert dispatched == []


def test_config_echo_includes_the_corpus_digest(semi_report, corpus):
    config = semi_report.config
    assert config["policy"] == ["SEMI_VALID"]
    assert config["budget"] == 400
    assert config["catalog_version"] == CATALOG_VERSION
    assert config["mode"] == "isolated"
    assert config["corpus_id"] == corpus_digest(corpus)
    assert corpus_digest(corpus) == hashlib.sha256(corpus_text(corpus).encode()).hexdigest()


def test_a_corpus_padded_with_blank_lines_keeps_its_identity(tmp_path, capsys):
    """A corpus's identity is the digest of its records, not of its file:
    blank lines a hand edit leaves change neither the records nor the id."""
    canonical, padded = tmp_path / "corpus.jsonl", tmp_path / "padded.jsonl"
    assert main(["record", "--scenario", "queue_session", "--out", str(canonical)]) == 0
    recorded = capsys.readouterr().out
    padded.write_text("\n\n" + canonical.read_text().replace("\n", "\n\n  \n") + "\n")
    ids = []
    for path in (canonical, padded):
        report_path = tmp_path / ("%s.report.json" % path.stem)
        main(["fuzz", "--policy", "semi-valid", "--corpus", str(path), "--budget", "5", "--out", str(report_path)])
        ids.append(load_report(report_path).config["corpus_id"])
    assert ids[0] == ids[1] == corpus_digest(load_corpus(canonical))
    assert "(%s)" % ids[0][:12] in recorded


def test_crash_schema_is_depth_capped(semi_report):
    crash = next(c for c in semi_report.crashes if c.exception_kind == "STACK_OVERFLOW")

    def walk(node, depth=0):
        yield node, depth
        for child in node.get("children", []):
            yield from walk(child, depth + 1)

    depths = [(n, d) for n, d in walk(crash.schema)]
    assert max(d for _, d in depths) <= SCHEMA_DEPTH_LIMIT
    assert any(n.get("truncated") for n, _ in depths)
    assert all(set(n) >= {"kind", "label", "byte_range"} for n, _ in depths)


def test_crash_provenance_carries_the_full_case(semi_report):
    for crash in semi_report.crashes:
        prov = crash.provenance
        assert prov["policy"] == "SEMI_VALID"
        assert prov["case"]["payload_hex"] == crash.provenance["case"]["payload_hex"]
        assert prov["case"]["case_id"] == crash.first_seen_case_id


def test_a_campaign_traces_once_per_distinct_fingerprint(monkeypatch, corpus):
    built = []

    class CountingBuilder(TraceBuilder):
        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(harness, "TraceBuilder", CountingBuilder)
    report = run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=corpus))
    assert report.counters["fatal_crash"] > len(report.crashes) == 10
    assert len(built) == len(report.crashes)


def test_every_crash_schema_is_the_trace_of_its_saved_case(semi_report, corpus):
    prepared = prepare_corpus(corpus)
    for crash in semi_report.crashes:
        session = ReplaySession(prepared)
        builder = TraceBuilder()
        case = FuzzCase.from_json(crash.provenance["case"])
        reply = session.router.transact(session.prepare(case), trace_hook=builder)
        assert fingerprint(reply.crash) == crash.fingerprint
        assert crash.schema == builder.finish().to_json(max_depth=SCHEMA_DEPTH_LIMIT)


def test_a_traced_rerun_on_another_fingerprint_is_a_harness_error(monkeypatch, corpus, semi_report):
    transact = Router.transact

    def elsewhere_when_traced(self, txn, trace_hook=None):
        reply = transact(self, txn, trace_hook)
        if trace_hook is None or reply.kind is not ReplyKind.FATAL_CRASH:
            return reply
        return Reply.fatal(_crash("ELSEWHERE", ("elsewhere",)))

    monkeypatch.setattr(Router, "transact", elsewhere_when_traced)
    first = min(c.first_seen_case_id for c in semi_report.crashes)
    with pytest.raises(HarnessError, match=r"^case %d crashed as " % first):
        run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=corpus))


def test_per_case_values_are_immutable():
    case = FuzzCase(1, Policy.EMPTY, "svc.queue", 1, b"", ())
    values = (
        (case, "payload", b"\x00"),
        (Reply.ok(), "kind", ReplyKind.REJECTED),
        (_crash(), "stack_frames", ()),
        (IpcEdge("fuzzer", "svc.queue", 1), "sender_id", "other"),
    )
    for value, name, replacement in values:
        with pytest.raises(AttributeError):
            setattr(value, name, replacement)


def test_replaced_values_are_checked_again():
    case = FuzzCase(1, Policy.EMPTY, "svc.queue", 1, b"", ())
    assert case._replace(code=2).code == 2
    with pytest.raises(ValueError):
        case._replace(seed_seq=3)
    with pytest.raises(ValueError):
        _crash()._replace(stack_frames=())


# -- determinism and persistence ------------------------------------------------------


def test_identical_configs_serialize_identically(corpus, semi_report):
    again = run_fuzz(FuzzConfig(policy="semi-valid", budget=400, corpus=corpus))
    assert again.to_canonical_json() == semi_report.to_canonical_json()


# sha256 of the canonical report of each config, pinned from a build
# known to be right: any byte a change moves in a report shows up here.
PINNED_REPORTS = [
    ("semi-valid", 10000, "corpus", "670557ca73187b3961a3a09dd39422871f401fde3774993e53e481147af09466"),
    ("semi-valid", 10000, "shuffled_corpus", "2f30d2eadbbecf04cfb01f5389b0d409c4a5c98a4721a93e058d559988abadce"),
    ("empty,random", 10000, "corpus", "00931f7dafd4b071599b91301157e0f1a7de42332cdb67885a6db3670719e57c"),
]


@pytest.mark.parametrize(
    "policy,budget,corpus_fixture,digest", PINNED_REPORTS, ids=["%s-%d-%s" % pin[:3] for pin in PINNED_REPORTS]
)
def test_canonical_reports_are_pinned(request, policy, budget, corpus_fixture, digest):
    records = request.getfixturevalue(corpus_fixture)
    report = run_fuzz(FuzzConfig(policy=policy.split(","), budget=budget, rng_seed=1, corpus=records))
    assert hashlib.sha256(report.to_canonical_json().encode("utf-8")).hexdigest() == digest


# sha256 of the same semi-valid reports under catalog-v1, whose RANDOM
# bytes came from a seeded Mersenne Twister.  Semi-valid cases draw no
# random bytes, so the catalog version is all that moved.
CATALOG_V1_SEMI_VALID_REPORTS = [
    ("corpus", "698083aa82ed576bf0cd952fe19b51c6240fe9b7ae40565be28c2cdd990f9423"),
    ("shuffled_corpus", "c04004d732831d30a321266ca766a458c48a6c162d869260ef5706ad4fb0bb28"),
]


@pytest.mark.parametrize(
    "corpus_fixture,digest", CATALOG_V1_SEMI_VALID_REPORTS, ids=[pin[0] for pin in CATALOG_V1_SEMI_VALID_REPORTS]
)
def test_semi_valid_reports_differ_from_catalog_v1_in_the_version_alone(request, corpus_fixture, digest):
    records = request.getfixturevalue(corpus_fixture)
    report = run_fuzz(FuzzConfig(policy=["semi-valid"], budget=10000, rng_seed=1, corpus=records))
    assert report.config["catalog_version"] == CATALOG_VERSION != "catalog-v1"
    v1 = report._replace(config={**report.config, "catalog_version": "catalog-v1"})
    assert hashlib.sha256(v1.to_canonical_json().encode("utf-8")).hexdigest() == digest


def test_report_round_trips_through_disk(tmp_path, semi_report):
    path = tmp_path / "report.json"
    save_report(semi_report, path)
    loaded = load_report(path)
    assert isinstance(loaded, CampaignReport)
    assert loaded.to_canonical_json() == semi_report.to_canonical_json()
    assert all(isinstance(c, CrashReport) for c in loaded.crashes)


# -- canonical JSON -----------------------------------------------------------------------

# Text with the characters JSON escapes or writes as \u escapes:
# quotes, backslashes, control characters, lone surrogates and
# characters past the BMP, mixed with any other character.
_json_text = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
        st.characters(exclude_categories=()),
    ),
    max_size=12,
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**30, -(2**63)]) | st.floats() | _json_text,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_json_text, children, max_size=4)
    ),
    max_leaves=12,
)


@given(_json_values)
@settings(max_examples=60, deadline=None)
def test_canonical_json_is_the_stdlib_indented_dump(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_canonical_json_of_a_deeply_nested_value():
    value = "leaf"
    for depth in range(40):
        value = {"k%d" % depth: [value, depth], "": {}}
    assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{1: "a"}, {"a": [{None: 1}]}, {"a", "b"}, [b"bytes"]])
def test_canonical_json_refuses_what_json_cannot_load(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def test_the_deepest_loadable_report_renders_as_json(tmp_path, capsys, saved_campaign):
    """The deepest crash schema a report can hold and still load also
    writes through the CLI, with no traceback."""
    _corpus_path, saved = saved_campaign
    report_path = tmp_path / "report.json"
    report = dict(saved, crashes=[dict(saved["crashes"][0], schema="@@")])
    text = json.dumps(report)
    opening = '{"kind": "COMPOSITE", "label": "x", "byte_range": [0, 4], "children": ['
    leaf = '{"kind": "I32", "label": "v", "byte_range": [0, 4]}'

    def loads_at(depth):
        report_path.write_text(text.replace('"@@"', opening * depth + leaf + "]}" * depth))
        code = main(["report", "--in", str(report_path)])
        err = capsys.readouterr().err
        assert code in (1, 2) and err.count("\n") <= 1, err
        return code == 2

    low, high = 1, 2000
    assert loads_at(low) and not loads_at(high)
    while high - low > 1:
        middle = (low + high) // 2
        if loads_at(middle):
            low = middle
        else:
            high = middle
    assert low > 100
    assert loads_at(low)
    assert main(["report", "--in", str(report_path), "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert err == ""
    # The same value, compared compactly: the stdlib's indented dump takes
    # time quadratic in the depth here.
    assert json.dumps(json.loads(out)) == json.dumps(json.loads(report_path.read_text()), sort_keys=True)


def test_load_report_failures_are_harness_errors(tmp_path):
    with pytest.raises(HarnessError):
        load_report(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(HarnessError):
        load_report(bad)


def test_crashes_are_sorted_by_fingerprint(semi_report):
    fps = [c.fingerprint for c in semi_report.crashes]
    assert fps == sorted(fps)
    assert len(fps) == len(set(fps))


# -- lookup and reproduction -----------------------------------------------------------


def test_find_crash_accepts_unique_prefixes(semi_report):
    crash = semi_report.crashes[0]
    assert find_crash(semi_report, crash.fingerprint) is crash
    assert find_crash(semi_report, crash.fingerprint[:12]) is crash
    with pytest.raises(HarnessError):
        find_crash(semi_report, "")  # every fingerprint matches
    with pytest.raises(HarnessError):
        find_crash(semi_report, "zz")


def test_every_saved_crash_reproduces(semi_report, corpus):
    for crash in semi_report.crashes:
        reply = reproduce(semi_report, crash.fingerprint, corpus)
        assert reply.kind is ReplyKind.FATAL_CRASH
        assert fingerprint(reply.crash) == crash.fingerprint


def test_reproduce_flags_provenance_that_no_longer_crashes(semi_report, corpus):
    doctored = copy.deepcopy(semi_report)
    crash = doctored.crashes[0]
    seed = next(r for r in corpus if r.seq == crash.provenance["case"]["seed_seq"])
    crash.provenance["case"]["payload_hex"] = seed.payload.hex()
    crash.provenance["case"]["offsets"] = list(seed.offsets)
    crash.provenance["case"]["slot_overrides"] = []
    with pytest.raises(FingerprintMismatch):
        reproduce(doctored, crash.fingerprint, corpus)


def test_reproduce_flags_the_wrong_crash(semi_report, corpus):
    doctored = copy.deepcopy(semi_report)
    a, b = doctored.crashes[0], doctored.crashes[1]
    a.provenance["case"] = b.provenance["case"]
    with pytest.raises(FingerprintMismatch):
        reproduce(doctored, a.fingerprint, corpus)


def test_reproduce_rejects_gutted_provenance(semi_report, corpus):
    doctored = copy.deepcopy(semi_report)
    doctored.crashes[0].provenance["case"] = {"nonsense": True}
    with pytest.raises(HarnessError):
        reproduce(doctored, doctored.crashes[0].fingerprint, corpus)


# -- the defect manifest ----------------------------------------------------------------


def test_manifest_shape(manifest):
    assert manifest["format_version"] == 1
    assert manifest["catalog_version"] == CATALOG_VERSION
    services = manifest["services"]
    assert len(services) == 6
    assert sum(len(s["methods"]) for s in services) == 11
    bugs = [b for s in services for b in s["seeded_bugs"]]
    assert len(bugs) == 10
    for bug in bugs:
        assert len(bug["fingerprint"]) == 64
        assert bug["exception_kind"]
        assert isinstance(bug["needs_structure"], bool)
    assert manifest["fingerprint_count"] == 10


def test_manifest_fingerprints_match_the_build(manifest, manifest_fps):
    assert manifest_fingerprints(manifest) == manifest_fps
    assert manifest_fingerprints() == manifest_fps
    assert len(manifest_fps) == 10


def test_structure_requirements_are_flagged(manifest):
    no_structure = {
        b["id"]
        for s in manifest["services"]
        for b in s["seeded_bugs"]
        if not b["needs_structure"]
    }
    assert no_structure == {
        "audio-null-client",
        "bluetooth-table-overrun",
        "bluetooth-count-overread",
        "activity-args-malformed",
    }


# -- the command line --------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "svc.queue" in out and "svc.activity" in out
    assert main(["list", "--json"]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(build_manifest(), sort_keys=True, indent=2) + "\n"
    listed = json.loads(out)
    for service in listed["services"]:
        assert [m["code"] for m in service["methods"]] == list(range(1, len(service["methods"]) + 1))
    assert {s["descriptor"] for s in listed["services"]} == {
        "svc.queue",
        "svc.audio",
        "svc.bluetooth",
        "svc.view",
        "svc.graphics",
        "svc.activity",
    }


def test_cli_end_to_end(tmp_path, capsys, manifest_fps):
    corpus_path = tmp_path / "corpus.jsonl"
    report_path = tmp_path / "report.json"
    assert main(["record", "--scenario", "all", "--out", str(corpus_path)]) == 0
    capsys.readouterr()

    code = main(
        [
            "fuzz",
            "--policy",
            "semi-valid",
            "--corpus",
            str(corpus_path),
            "--budget",
            "400",
            "--out",
            str(report_path),
        ]
    )
    assert code == 2  # crashes were found
    capsys.readouterr()

    report = load_report(report_path)
    assert report.distinct_fingerprints() == manifest_fps

    assert main(["report", "--in", str(report_path)]) == 2
    text = capsys.readouterr().out
    assert "fatal_crash" in text

    assert main(["report", "--in", str(report_path), "--format", "json"]) == 2
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["counters"]["fatal_crash"] > 0

    prefix = report.crashes[0].fingerprint[:12]
    code = main(
        [
            "replay",
            "--report",
            str(report_path),
            "--fingerprint",
            prefix,
            "--corpus",
            str(corpus_path),
        ]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert report.crashes[0].fingerprint in out
    assert out.startswith("reproduced %s\n" % report.crashes[0].fingerprint)


def test_cli_clean_campaign_exits_zero(tmp_path, capsys):
    corpus_path = tmp_path / "queue.jsonl"
    report_path = tmp_path / "report.json"
    assert main(["record", "--scenario", "queue_session", "--out", str(corpus_path)]) == 0
    code = main(
        [
            "fuzz",
            "--policy",
            "semi-valid",
            "--corpus",
            str(corpus_path),
            "--budget",
            "200",
            "--out",
            str(report_path),
        ]
    )
    assert code == 0
    assert load_report(report_path).counters["fatal_crash"] == 0
    assert main(["report", "--in", str(report_path)]) == 0
    capsys.readouterr()


def test_random_seeds_are_any_int_and_their_sign_matters(tmp_path, capsys):
    for seed in (1, 99, 1_000_003, 10**30):
        for length in (4, 64):
            assert make_random("svc.queue", 1, length, -seed).payload != make_random("svc.queue", 1, length, seed).payload

    corpus_path = tmp_path / "corpus.jsonl"
    assert main(["record", "--scenario", "all", "--out", str(corpus_path)]) == 0
    for seed in ("-1", "99999999999999999999999"):
        texts = []
        for run in ("first", "second"):
            out = tmp_path / ("report-%s-%s.json" % (seed, run))
            argv = ["fuzz", "--policy", "empty,random", "--corpus", str(corpus_path), "--budget", "200"]
            code = main(argv + ["--rng-seed", seed, "--out", str(out)])
            assert code in (0, 2), seed
            texts.append(out.read_bytes())
        assert texts[0] == texts[1], seed
        assert load_report(tmp_path / ("report-%s-first.json" % seed)).config["rng_seed"] == int(seed)
    capsys.readouterr()


def test_cli_error_paths(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    capsys.readouterr()

    code = main(
        [
            "fuzz",
            "--policy",
            "bogus",
            "--corpus",
            str(corpus_path),
            "--budget",
            "10",
            "--out",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err

    argv = ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "99999999999999999999999",
            "--out", str(tmp_path / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err, err

    assert main(["report", "--in", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()

    assert main(["record", "--scenario", "no_such_scenario", "--out", str(tmp_path / "x.jsonl")]) == 1
    capsys.readouterr()


def test_cli_usage_errors_exit_one(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    for argv in (
        ["fuzz", "--policy", "empty", "--budget", "x", "--out", out],
        ["bogus"],
        ["fuzz", "--policy", "empty", "--out", out],
    ):
        assert main(argv) == 1, argv
        assert "error:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: parcelfuzz")


def test_a_repeated_policy_is_refused_before_the_campaign_runs(tmp_path, capsys):
    with pytest.raises(ConfigurationError, match="^policy EMPTY is given more than once$"):
        run_fuzz(FuzzConfig(policy=["empty", "empty"], budget=100))
    out = tmp_path / "r.json"
    assert main(["fuzz", "--policy", "empty,Empty", "--budget", "100", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: policy EMPTY is given more than once\n"
    assert not out.exists()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every replay is a fresh process that imports the package first;
    dataclasses and the inspect module it loads cost about a quarter of
    that import, and the package declares its records without them."""
    src = str(Path(harness.__file__).resolve().parents[1])
    probe = "import sys; sys.path.insert(0, %r); import parcelfuzz.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-I", "-S", "-c", probe % src], capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_cli_replay_mismatch_is_an_error(tmp_path, capsys, corpus):
    corpus_path = tmp_path / "corpus.jsonl"
    report_path = tmp_path / "report.json"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    main(
        [
            "fuzz",
            "--policy",
            "semi-valid",
            "--corpus",
            str(corpus_path),
            "--budget",
            "400",
            "--out",
            str(report_path),
        ]
    )
    capsys.readouterr()
    assert main(["replay", "--report", str(report_path), "--fingerprint", "zz", "--corpus", str(corpus_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_a_trace_leaf_past_the_payload(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    header, first, *rest = corpus_path.read_text().splitlines()
    record = json.loads(first)
    leaf = record["trace"]
    while "children" in leaf:
        leaf = leaf["children"][0]
    size = len(record["payload_hex"]) // 2
    leaf["byte_range"] = [size, size + 4]
    corpus_path.write_text("\n".join([header, json.dumps(record, sort_keys=True), *rest]) + "\n")
    capsys.readouterr()
    argv = ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "10",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


# A value an edit can put in a record to have it written as the JSON
# number 1e400, which json.loads reads as float("inf").
_HUGE = "<1e400>"


def _fuzz_on_edited_corpus(tmp_path, capsys, edit, line=1) -> tuple[int, str]:
    """Exit code and stderr of a semi-valid fuzz run on the shipped corpus
    with one line passed through edit: by default its first record, and
    line 0 is the header."""
    corpus_path = tmp_path / "corpus.jsonl"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    lines = corpus_path.read_text().splitlines()
    obj = json.loads(lines[line])
    edit(obj)
    lines[line] = json.dumps(obj, sort_keys=True).replace(json.dumps(_HUGE), "1e400")
    corpus_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "10",
            "--out", str(tmp_path / "report.json")]
    code = main(argv)
    assert not (tmp_path / "report.json").exists()
    return code, capsys.readouterr().err


def test_cli_error_for_a_large_malformed_record_is_one_short_line(tmp_path, capsys):
    def edit(record):
        del record["seq"]
        record["payload_hex"] += "00" * 50000

    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
    assert code == 1
    assert err == "error: corpus line 2 has no 'seq'\n"

    def edit(record):
        record["trace"]["children"][0]["byte_range"] = "x" * 50000

    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
    assert code == 1
    assert err == "error: record 0 trace: trace node byte_range must be list, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'\n"


def test_cli_rejects_a_length_prefix_that_disagrees_with_its_leaf(tmp_path, capsys):
    # Record 0 looks up "svc.queue": a STRING leaf over [0, 16) whose
    # prefix declares 9 bytes, padded to 12.
    for declared in (13, 8, -1):
        def edit(record):
            assert record["payload_hex"][:8] == "09000000"
            record["payload_hex"] = struct.pack("<i", declared).hex() + record["payload_hex"][8:]

        code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
        assert code == 1
        assert err == "error: record 0 trace: trace leaf STRING at [0, 16) declares %d bytes\n" % declared


def test_cli_rejects_a_string_leaf_that_is_not_utf8(tmp_path, capsys):
    def edit(record):
        assert record["payload_hex"][:10] == "0900000073"  # "svc.queue"
        record["payload_hex"] = record["payload_hex"][:8] + "ff" + record["payload_hex"][10:]

    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
    assert code == 1
    assert err == "error: record 0 trace: trace leaf STRING at [0, 16) is not UTF-8: invalid start byte\n"


def _set_field(name, value, line=1):
    """An edit that sets one field of the corpus line at line."""
    def edit(obj):
        obj[name] = value

    edit.line = line
    return edit


def _set_first_byte_range(record):
    record["trace"]["children"][0]["byte_range"] = [0, _HUGE]


def _set_trace_byte_range_true(record):
    record["trace"]["byte_range"] = [0, True]


@pytest.mark.parametrize(
    "edit, error",
    [
        (_set_field("seq", _HUGE), "error: corpus line 2 seq must be int, got inf\n"),
        (_set_field("code", _HUGE), "error: record 0 code must be int, got inf\n"),
        (_set_field("offsets", [0, _HUGE]), "error: record 0 offsets must hold only int values, got [0, inf]\n"),
        (_set_first_byte_range, "error: record 0 trace: trace node byte_range must hold only int values, got [0, inf]\n"),
        (_set_field("format_version", True, line=0), "error: corpus header format_version must be int, got True\n"),
        (_set_field("code", 3.0), "error: record 0 code must be int, got 3.0\n"),
        (_set_field("seq", True, line=2), "error: corpus line 3 seq must be int, got True\n"),
        (_set_field("descriptor", None), "error: record 0 descriptor must be str, got None\n"),
        (_set_field("reply_kind", 7), "error: record 0 reply_kind must be str, got 7\n"),
        (_set_trace_byte_range_true, "error: record 0 trace: trace node byte_range must hold only int values, got [0, True]\n"),
    ],
)
def test_cli_rejects_a_corpus_number_too_large_for_an_int(tmp_path, capsys, edit, error):
    """Each field must have its exact JSON type: a number too large for an
    int loads as a float, and a bool, a float or null is no int or str."""
    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit, getattr(edit, "line", 1))
    assert code == 1
    assert err == error


def test_cli_rejects_a_corpus_record_that_replays_otherwise(tmp_path, capsys):
    # Record 0 looks up "svc.queue" with a prefix of 9 inside a 12-byte
    # padded body; a prefix of 12 still ends the leaf, so only replaying
    # the record shows that the lookup now names another service.
    def edit(record):
        record["payload_hex"] = struct.pack("<i", 12).hex() + record["payload_hex"][8:]

    code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
    assert code == 1
    assert err == "error: record 0 recorded OK, replayed REJECTED\n"


def test_cli_rejects_a_corpus_payload_that_is_not_hex(tmp_path, capsys):
    for bad in ("zz" + "00" * 8, "0" * 17, "00 00"):
        def edit(record):
            record["payload_hex"] = bad

        code, err = _fuzz_on_edited_corpus(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: record 0 ") and err.count("\n") == 1
        assert "payload_hex" in err


def test_cli_replay_rejects_a_report_payload_that_is_not_hex(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    report_path = tmp_path / "report.json"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    main(["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "400",
          "--out", str(report_path)])
    report = json.loads(report_path.read_text())
    crash = report["crashes"][0]
    for bad in ("zz", "000"):
        crash["provenance"]["case"]["payload_hex"] = bad
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        argv = ["replay", "--report", str(report_path), "--fingerprint", crash["fingerprint"],
                "--corpus", str(corpus_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: crash provenance is unusable") and err.count("\n") == 1


@pytest.fixture(scope="module")
def saved_campaign(tmp_path_factory):
    """A recorded corpus and a saved semi-valid report, as files."""
    root = tmp_path_factory.mktemp("saved")
    corpus_path, report_path = root / "corpus.jsonl", root / "report.json"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    main(["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "400",
          "--out", str(report_path)])
    return corpus_path, json.loads(report_path.read_text())


_DROP = object()


@pytest.mark.parametrize(
    "field, value",
    [
        ("offsets", [1_000_000_000_000]),
        ("offsets", [-4]),
        ("offsets", [1]),
        ("offsets", [0, 0]),
        ("offsets", ["0"]),
        ("offsets", _DROP),
        ("seed_seq", "x"),
        ("seed_seq", 1_000_000),
        ("descriptor", "svc.queue"),
        ("code", 99),
        ("field_path", "ab"),
        ("case_id", "7"),
        ("policy", "BLIND"),
        ("frame_breaking", "yes"),
        ("payload_hex", 5),
        ("slot_overrides", [[4, "pin"]]),
        ("slot_overrides", [[0, "steal"]]),
        ("slot_overrides", [[0, "swap:"]]),
        ("slot_overrides", [[0, "pin"], [0, "pin"]]),
        ("slot_overrides", [0]),
    ],
)
def test_cli_replay_refuses_a_malformed_saved_case(tmp_path, capsys, saved_campaign, field, value):
    """Each edit makes a case no campaign writes; the replay exits 1
    with one error line naming the provenance as unusable, before it
    dispatches anything."""
    corpus_path, saved = saved_campaign
    report = copy.deepcopy(saved)
    # The audio crash's case carries a handle slot at 0 with a pin override.
    crash = next(c for c in report["crashes"] if c["provenance"]["case"]["offsets"])
    case = crash["provenance"]["case"]
    assert case["descriptor"] == "svc.audio" and case["offsets"] == [0]
    if value is _DROP:
        del case[field]
    else:
        case[field] = value
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    argv = ["replay", "--report", str(report_path), "--fingerprint", crash["fingerprint"],
            "--corpus", str(corpus_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: crash provenance is unusable: ") and err.count("\n") == 1, err
    assert "Traceback" not in out + err


def test_cli_rejects_a_corpus_handle_outside_the_writable_range(tmp_path, capsys):
    """Record 10 registers an audio client: its one handle slot is at 0.
    A negative handle there, with a static origin so the dependency graph
    has nothing to say, is refused when the corpus loads."""
    corpus_path = tmp_path / "corpus.jsonl"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    lines = corpus_path.read_text().splitlines()
    record = json.loads(lines[11])
    assert record["seq"] == 10 and record["offsets"] == [0]
    record["consumed_handles"] = [[0, "STATIC:svc.queue"]]
    record["payload_hex"] = struct.pack("<i", -5).hex() + record["payload_hex"][8:]
    lines[11] = json.dumps(record, sort_keys=True)
    corpus_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "1000",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "error: record 10 trace: trace leaf HANDLE at [0, 4) holds handle -5, outside [0, 2147483647]\n"
    assert "Traceback" not in out + err
    assert not (tmp_path / "report.json").exists()


def _set(*path, value):
    """An edit that sets report[path[0]][path[1]]... to value."""
    def edit(report):
        target = report
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
    return edit


@pytest.mark.parametrize(
    "command, edit, message",
    [
        ("replay", _set("crashes", 0, "fingerprint", value=5), "crashes[0] fingerprint must be str, got 5"),
        ("report", _set("config", "budget", value="x"), "report config budget must be int, got 'x'"),
        ("report", _set("crashes", 0, "provenance", value=[]), "crashes[0] provenance must be dict, got []"),
        ("report", _set("crashes", 0, "code", value=True), "crashes[0] code must be int, got True"),
        ("replay", _set("crashes", 0, "hit_count", value=False), "crashes[0] hit_count must be int, got False"),
        ("report", _set("executed", value=True), "report executed must be int, got True"),
        ("report", _set("config", "rng_seed", value="1"), "report config rng_seed must be int, got '1'"),
        ("report", _set("config", "corpus_id", value=5), "report config corpus_id must be str or null, got 5"),
        ("report", _set("crashes", 0, "stack_frames", value=["a", 1]), "crashes[0] stack_frames must hold only str values, got ['a', 1]"),
        ("replay", _set("crashes", value=[[]]), "crashes[0] is not an object: []"),
    ],
)
def test_cli_refuses_a_report_field_of_the_wrong_type(tmp_path, capsys, saved_campaign, command, edit, message):
    """Each edit used to end in a traceback from find_crash, reproduce or
    the text report; now the report is refused when it loads."""
    corpus_path, saved = saved_campaign
    report = copy.deepcopy(saved)
    fingerprint_hex = report["crashes"][0]["fingerprint"]
    edit(report)
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    capsys.readouterr()
    if command == "replay":
        argv = ["replay", "--report", str(report_path), "--fingerprint", fingerprint_hex[:12],
                "--corpus", str(corpus_path)]
    else:
        argv = ["report", "--in", str(report_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "error: unreadable campaign report %s: %s\n" % (report_path, message)
    assert "Traceback" not in out + err


def test_a_per_method_count_of_the_wrong_type_is_refused(tmp_path, saved_campaign):
    report = copy.deepcopy(saved_campaign[1])
    method = sorted(report["per_method"])[0]
    report["per_method"][method]["ok"] = "x"
    with pytest.raises(HarnessError, match=re.escape("report per_method %s must hold only int values" % method)):
        CampaignReport.from_json(report)


def test_cli_rejects_a_corpus_line_nested_too_deeply(tmp_path, capsys):
    corpus_path = tmp_path / "corpus.jsonl"
    main(["record", "--scenario", "all", "--out", str(corpus_path)])
    header, first, *rest = corpus_path.read_text().splitlines()
    trace = json.dumps(json.loads(first)["trace"], sort_keys=True)
    depth = 2000
    opening = '{"kind": "COMPOSITE", "label": "x", "byte_range": [0, 0], "children": ['
    line = first.replace(trace, opening * depth + trace + "]}" * depth)
    assert line != first
    corpus_path.write_text("\n".join([header, line, *rest]) + "\n")
    capsys.readouterr()
    argv = ["fuzz", "--policy", "semi-valid", "--corpus", str(corpus_path), "--budget", "10",
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()

    corpus_path.write_text("\n".join(["[" * depth + "]" * depth, line, *rest]) + "\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_rejects_a_report_nested_too_deeply(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    report_path.write_text("[" * 5000 + "]" * 5000)
    assert main(["report", "--in", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# -- the report boundary under mutation -------------------------------------------------


def _json_paths(value, path=()):
    """The path of every value inside value, value's own first."""
    yield path
    if type(value) is dict:
        for key, item in value.items():
            yield from _json_paths(item, path + (key,))
    elif type(value) is list:
        for index, item in enumerate(value):
            yield from _json_paths(item, path + (index,))


def _json_type(value) -> str:
    """The JSON type of value, telling an integer (int) from a float."""
    return "array" if type(value) in (list, tuple) else type(value).__name__


class _Boundary:
    """A JSON value that an input file holds, the paths into it, and the
    CLI runs that read the file.

    The file is prefix, then the value's text, then suffix; text is the
    value's text as saved.
    """

    def __init__(self, saved, text: bytes, path, argvs, prefix=b"", suffix=b""):
        self.saved = saved
        self.text = text
        self.paths = list(_json_paths(saved))
        self.objects = [p for p in self.paths if type(self._at(saved, p)) is dict and self._at(saved, p)]
        self.path = path
        self.argvs = argvs
        self.prefix = prefix
        self.suffix = suffix

    @staticmethod
    def _at(value, path):
        for step in path:
            value = value[step]
        return value

    def edited(self, path, edit):
        """A copy of the report with the value at path passed through edit."""
        report = copy.deepcopy(self.saved)
        if not path:
            return edit(report)
        parent = self._at(report, path[:-1])
        parent[path[-1]] = edit(parent[path[-1]])
        return report

    def check(self, data: bytes) -> None:
        """Each command on the file with data as the value's text exits
        0, 1 or 2, with at most one line on stderr and no traceback."""
        self.path.write_bytes(self.prefix + data + self.suffix)
        for argv in self.argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            errors = err.getvalue()
            assert code in (0, 1, 2), (argv[0], code)
            assert errors.count("\n") <= 1 and "Traceback" not in out.getvalue() + errors, errors


@pytest.fixture(scope="module")
def boundary(saved_campaign, tmp_path_factory):
    """A saved semi-valid report, read by report (text and json) and replay."""
    corpus_path, saved = saved_campaign
    path = tmp_path_factory.mktemp("boundary") / "mutated.json"
    fingerprint_hex = saved["crashes"][0]["fingerprint"][:12]
    argvs = [
        ["report", "--in", str(path)],
        ["report", "--in", str(path), "--format", "json"],
        ["replay", "--report", str(path), "--fingerprint", fingerprint_hex, "--corpus", str(corpus_path)],
    ]
    return _Boundary(saved, (canonical_json(saved) + "\n").encode("utf-8"), path, argvs)


@pytest.fixture(scope="module")
def read_inputs(saved_campaign, tmp_path_factory):
    """Each line of the shipped corpus, read by a semi-valid fuzz run, and
    the saved case of a crash with a handle slot, read by replay."""
    corpus_path, saved = saved_campaign
    workdir = tmp_path_factory.mktemp("inputs")
    header, *lines = corpus_path.read_bytes().splitlines()
    path = workdir / "corpus.jsonl"
    argvs = [["fuzz", "--policy", "semi-valid", "--corpus", str(path), "--budget", "50",
              "--out", str(workdir / "report.json")]]
    corpus_lines = [
        _Boundary(json.loads(line), line, path, argvs,
                  prefix=b"\n".join([header, *lines[:index], b""]), suffix=b"\n".join([b"", *lines[index + 1:], b""]))
        for index, line in enumerate(lines)
    ]
    report = copy.deepcopy(saved)
    crash = next(c for c in report["crashes"] if c["provenance"]["case"]["offsets"])
    case = crash["provenance"]["case"]
    crash["provenance"]["case"] = "<case>"
    prefix, suffix = json.dumps(report).encode("utf-8").split(b'"<case>"')
    path = workdir / "report.json"
    argvs = [["replay", "--report", str(path), "--fingerprint", crash["fingerprint"], "--corpus", str(corpus_path)]]
    saved_case = _Boundary(case, json.dumps(case).encode("utf-8"), path, argvs, prefix, suffix)
    return {"corpus line": corpus_lines, "saved case": [saved_case]}


# One value of each JSON type, nested at most one level.  The infinities
# are what the JSON numbers 1e400 and -1e400 load as, and 3.0 is a float
# that int() would take.
_json_swaps = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, 3.0]),
    _json_text,
    st.lists(st.integers() | _json_text, max_size=3),
    st.dictionaries(_json_text, st.integers() | _json_text, max_size=3),
)
_FUZZ_SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _flip_bytes(boundary, data):
    text = bytearray(boundary.text)
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(text) - 1), st.integers(0, 255)), min_size=1, max_size=4))
    for position, byte in flips:
        text[position] = byte
    boundary.check(bytes(text))


def _delete_a_key(boundary, data):
    path = data.draw(st.sampled_from(boundary.objects))
    key = data.draw(st.sampled_from(sorted(boundary._at(boundary.saved, path))))

    def delete(obj):
        del obj[key]
        return obj

    boundary.check(json.dumps(boundary.edited(path, delete)).encode("utf-8"))


def _swap_a_type(boundary, data):
    path = data.draw(st.sampled_from(boundary.paths))
    old = _json_type(boundary._at(boundary.saved, path))
    new = data.draw(_json_swaps.filter(lambda v: _json_type(v) != old))
    boundary.check(json.dumps(boundary.edited(path, lambda _old: new)).encode("utf-8"))


@_FUZZ_SETTINGS
@given(data=st.data())
def test_a_report_with_flipped_bytes_never_ends_in_a_traceback(boundary, data):
    _flip_bytes(boundary, data)


@_FUZZ_SETTINGS
@given(data=st.data())
def test_a_report_with_a_deleted_key_never_ends_in_a_traceback(boundary, data):
    _delete_a_key(boundary, data)


@_FUZZ_SETTINGS
@given(data=st.data())
def test_a_report_with_a_value_of_another_type_never_ends_in_a_traceback(boundary, data):
    _swap_a_type(boundary, data)


@pytest.mark.parametrize("name", ["corpus line", "saved case"])
@_FUZZ_SETTINGS
@given(data=st.data())
def test_an_input_with_flipped_bytes_never_ends_in_a_traceback(read_inputs, name, data):
    _flip_bytes(data.draw(st.sampled_from(read_inputs[name])), data)


@pytest.mark.parametrize("name", ["corpus line", "saved case"])
@_FUZZ_SETTINGS
@given(data=st.data())
def test_an_input_with_a_deleted_key_never_ends_in_a_traceback(read_inputs, name, data):
    _delete_a_key(data.draw(st.sampled_from(read_inputs[name])), data)


@pytest.mark.parametrize("name", ["corpus line", "saved case"])
@_FUZZ_SETTINGS
@given(data=st.data())
def test_an_input_with_a_value_of_another_type_never_ends_in_a_traceback(read_inputs, name, data):
    _swap_a_type(data.draw(st.sampled_from(read_inputs[name])), data)


def test_manifest_error_is_distinct():
    assert issubclass(FingerprintMismatch, HarnessError)
    assert not issubclass(ManifestError, HarnessError)
