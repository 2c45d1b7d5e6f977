"""Quick self-test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

It sits outside the tier-1 ``testpaths``, so the tier-1 suite stays free
of timing.  It checks the benchmark's plumbing, not the program's speed:
every metric BENCHMARK.json names is emitted with its unit, spans nest,
self times are non-negative, every patched name is restored, a broken
gate stops the run, the reference process ends with every untraced run,
and a checkout without sources yields no result.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import spans  # noqa: E402
import workloads  # noqa: E402
from parcelfuzz import cli, harness, mutator, parcel, recorder, replayer, router  # noqa: E402

TINY = workloads.Sizes(scenario_copies=1, blind_budget=300, campaign_setups=2, replay_setups=1)
SECONDS = 0.3
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    result = workloads.run_workload(workload, 1, SECONDS, False, tmp_path, TINY)
    assert {name: unit for name, (_v, unit) in result.metrics.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _unit in result.metrics.values())
    assert result.attempted > 0 and result.failed == 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_nests(workload, tmp_path):
    owners = (cli, harness, mutator, replayer, parcel.Parcel, router.Router,
              recorder.TraceBuilder, replayer.ReplaySession, harness.CampaignReport)
    before = [dict(vars(owner)) for owner in owners]

    workdir = tmp_path / "work"
    workdir.mkdir()
    result = workloads.run_workload(workload, 1, SECONDS, True, workdir, TINY)

    assert {name: unit for name, (_v, unit) in result.metrics.items()} == _declared("per_layer")
    after = [dict(vars(owner)) for owner in owners]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[attr] is value for attr, value in old.items())

    with open(tmp_path / ("spans-%s.jsonl" % workload), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert rows
    for name, start, end, parent, case in rows:
        assert start <= end
        if parent >= 0:
            _pname, pstart, pend, _pparent, pcase = rows[parent]
            assert pstart <= start and end <= pend, name
    assert all(self_ns >= 0 for _count, _total, self_ns in spans.totals(rows).values())


class RecordedReference(workloads.Reference):
    started: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.started.append(self.proc)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_ends_its_reference_process(workload, tmp_path, monkeypatch):
    RecordedReference.started = []
    monkeypatch.setattr(workloads, "Reference", RecordedReference)
    workloads.run_workload(workload, 1, SECONDS, False, tmp_path, TINY)
    assert len(RecordedReference.started) == 1
    assert RecordedReference.started[0].returncode == 0


def test_a_campaign_that_disagrees_with_the_reference_fails_the_gate(tmp_path, monkeypatch):
    RecordedReference.started = []
    monkeypatch.setattr(workloads, "Reference", RecordedReference)
    original = harness.run_fuzz
    calls = []

    def drifting(config):
        report = original(config)
        calls.append(1)
        if len(calls) > 1:
            report.counters["ok"] += 1
            report.executed += 1
        return report

    monkeypatch.setattr(harness, "run_fuzz", drifting)
    with pytest.raises(workloads.GateError):
        workloads.run_workload("semi_sweep", 1, SECONDS, False, tmp_path, TINY)
    assert [proc.returncode is not None for proc in RecordedReference.started] == [True]


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "semi_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
