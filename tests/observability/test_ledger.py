"""Tests for the run ledger: recorder, index, diff, gc."""

import json
import os
import time

import pytest

from repro.observability import MetricsRegistry
from repro.observability.ledger import (
    DEFAULT_RUNS_ROOT,
    LEDGER_NAME,
    MANIFEST_NAME,
    METRICS_NAME,
    RUNS_DIR_ENV,
    STATS_NAME,
    LedgerError,
    RunRecorder,
    baseline_for,
    config_digest,
    diff_runs,
    file_digest,
    gc_runs,
    list_runs,
    load_manifest,
    read_ledger,
    resolve_run,
    resolve_runs_root,
)

CONFIG = {"command": "analyze", "model_sha256": "abc", "max_faults": 2}


@pytest.fixture
def fake_durations(monkeypatch):
    """Make perf_counter scripted so run durations are deterministic.

    Returns a feeder: ``feed(t0, t1, ...)`` queues the next readings;
    once the queue drains, readings stick at the last value.
    """
    queue = []

    def perf_counter():
        if len(queue) > 1:
            return queue.pop(0)
        return queue[0] if queue else 0.0

    def feed(*values):
        queue[:] = values

    monkeypatch.setattr(time, "perf_counter", perf_counter)
    return feed


def record_run(
    root,
    config=CONFIG,
    command="analyze",
    result_digest="r1",
    scenarios=100,
    violating=40,
    finish=True,
):
    recorder = RunRecorder(
        command, config, root=str(root), registry=MetricsRegistry()
    )
    if finish:
        recorder.note(scenarios=scenarios, violating=violating)
        recorder.finish(result_digest=result_digest)
    return recorder


class TestRootAndDigests:
    def test_root_resolution_order(self, monkeypatch):
        monkeypatch.setenv(RUNS_DIR_ENV, "/env/runs")
        assert resolve_runs_root("/explicit") == "/explicit"
        assert resolve_runs_root() == "/env/runs"
        monkeypatch.delenv(RUNS_DIR_ENV)
        assert resolve_runs_root() == DEFAULT_RUNS_ROOT

    def test_config_digest_ignores_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_file_digest_tracks_content(self, tmp_path):
        path = tmp_path / "model.xml"
        path.write_text("<system/>")
        first = file_digest(str(path))
        path.write_text("<system><tank/></system>")
        assert file_digest(str(path)) != first


class TestRunRecorder:
    def test_started_line_lands_before_any_work(self, tmp_path):
        recorder = record_run(tmp_path, finish=False)
        # a kill right here must still leave a valid partial entry
        records = read_ledger(str(tmp_path))
        assert [r["event"] for r in records] == ["started"]
        assert records[0]["run_id"] == recorder.run_id
        (entry,) = list_runs(str(tmp_path))
        assert entry["status"] == "partial"
        assert os.path.isfile(
            os.path.join(recorder.path, MANIFEST_NAME)
        )
        assert load_manifest(recorder.run_id, str(tmp_path))["status"] == (
            "running"
        )

    def test_metrics_file_derives_counters_from_the_stats_tree(
        self, tmp_path
    ):
        recorder = RunRecorder(
            "analyze", CONFIG, root=str(tmp_path), registry=MetricsRegistry()
        )
        run_id = recorder.finish(
            stats={"summary": {"calls": 8, "models": {"enumerated": 23}}}
        )
        text = open(
            os.path.join(str(tmp_path), run_id, METRICS_NAME)
        ).read()
        assert "\nrepro_models_total 23\n" in text
        assert "\nrepro_solve_calls_total 8\n" in text

    def test_finish_writes_artifacts_and_finished_line(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "test counter").inc(3)
        trace = tmp_path / "trace.json"
        trace.write_text("[]")
        recorder = RunRecorder(
            "analyze", CONFIG, root=str(tmp_path), registry=registry
        )
        recorder.note(scenarios=254, violating=232)
        run_id = recorder.finish(
            stats={"solver": {"conflicts": 9}},
            result_digest="deadbeef",
            trace_file=str(trace),
        )
        manifest = load_manifest(run_id, str(tmp_path))
        assert manifest["status"] == "complete"
        assert manifest["result_digest"] == "deadbeef"
        assert manifest["summary"] == {"scenarios": 254, "violating": 232}
        assert "stats_digest" in manifest
        run_dir = os.path.join(str(tmp_path), run_id)
        assert "repro_test_total 3" in open(
            os.path.join(run_dir, METRICS_NAME)
        ).read()
        stats = json.load(open(os.path.join(run_dir, STATS_NAME)))
        assert stats["tree"] == {"solver": {"conflicts": 9}}
        assert stats["digest"] == manifest["stats_digest"]
        assert os.path.isfile(os.path.join(run_dir, "trace.json"))
        finished = read_ledger(str(tmp_path))[-1]
        assert finished["event"] == "finished"
        assert finished["scenarios"] == 254

    def test_double_finish_raises(self, tmp_path):
        recorder = record_run(tmp_path)
        with pytest.raises(LedgerError):
            recorder.finish()

    def test_fail_records_error_status(self, tmp_path):
        recorder = record_run(tmp_path, finish=False)
        recorder.fail(ValueError("boom"))
        (entry,) = list_runs(str(tmp_path))
        assert entry["status"] == "error"
        manifest = load_manifest(entry["run_id"], str(tmp_path))
        assert "boom" in manifest["summary"]["error"]

    def test_same_second_run_ids_disambiguate(self, tmp_path):
        a = record_run(tmp_path)
        b = record_run(tmp_path)
        assert a.run_id != b.run_id

    def test_malformed_ledger_rejected(self, tmp_path):
        record_run(tmp_path)
        with open(os.path.join(str(tmp_path), LEDGER_NAME), "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(LedgerError):
            read_ledger(str(tmp_path))


class TestResolveRun:
    def test_latest_and_prefix(self, tmp_path):
        old = record_run(tmp_path, command="alpha")
        new = record_run(tmp_path, command="beta")
        root = str(tmp_path)
        assert resolve_run("latest", root) == new.run_id
        assert resolve_run("", root) == new.run_id
        assert resolve_run(old.run_id, root) == old.run_id
        # the command segment makes this prefix unique
        assert resolve_run(old.run_id[:-1], root) == old.run_id

    def test_ambiguous_and_unknown_refs(self, tmp_path):
        record_run(tmp_path, command="alpha")
        record_run(tmp_path, command="beta")
        root = str(tmp_path)
        with pytest.raises(LedgerError):
            resolve_run("2", root)  # both ids start with the timestamp
        with pytest.raises(LedgerError):
            resolve_run("nosuchrun", root)

    def test_empty_ledger_raises(self, tmp_path):
        with pytest.raises(LedgerError):
            resolve_run("latest", str(tmp_path))


class TestDiff:
    def test_same_config_round_trip_is_zero_deltas(
        self, tmp_path, fake_durations
    ):
        fake_durations(0.0, 1.0)  # baseline: 1s
        record_run(tmp_path, result_digest="same")
        fake_durations(0.0, 1.0)  # repeat: 1s
        record_run(tmp_path, result_digest="same")
        diff = diff_runs("latest", root=str(tmp_path))
        assert diff["config_match"] is True
        assert diff["result_match"] is True
        assert diff["scenarios_delta"] == 0
        assert diff["violating_delta"] == 0
        assert diff["zero_deltas"] is True
        assert diff["regression"] is False

    def test_result_change_under_same_config_is_a_regression(
        self, tmp_path, fake_durations
    ):
        fake_durations(0.0, 1.0)
        record_run(tmp_path, result_digest="aaa")
        fake_durations(0.0, 1.0)
        record_run(tmp_path, result_digest="bbb", violating=41)
        diff = diff_runs("latest", root=str(tmp_path))
        assert diff["result_match"] is False
        assert diff["violating_delta"] == 1
        assert diff["zero_deltas"] is False
        assert diff["regression"] is True

    def test_duration_blowup_is_a_regression(self, tmp_path, fake_durations):
        fake_durations(0.0, 1.0)  # baseline: 1s
        record_run(tmp_path, result_digest="same")
        fake_durations(0.0, 2.0)  # repeat: 2s -> ratio 2.0 > 1.25
        record_run(tmp_path, result_digest="same")
        diff = diff_runs("latest", root=str(tmp_path))
        assert diff["zero_deltas"] is True  # numbers still agree
        assert diff["duration_ratio"] == 2.0
        assert diff["regression"] is True

    def test_baseline_skips_other_configs_and_partials(self, tmp_path):
        other = dict(CONFIG, max_faults=3)
        base = record_run(tmp_path)
        record_run(tmp_path, config=other)  # different config digest
        record_run(tmp_path, finish=False)  # partial: never a baseline
        target = record_run(tmp_path)
        assert baseline_for(target.run_id, str(tmp_path)) == base.run_id

    def test_diff_without_baseline_raises(self, tmp_path):
        record_run(tmp_path)
        with pytest.raises(LedgerError):
            diff_runs("latest", root=str(tmp_path))

    def test_explicit_pair_diff(self, tmp_path):
        a = record_run(tmp_path, command="alpha", result_digest="x")
        b = record_run(tmp_path, command="beta", result_digest="x")
        diff = diff_runs(b.run_id, a.run_id, root=str(tmp_path))
        assert diff["a"] == b.run_id
        assert diff["b"] == a.run_id
        assert diff["result_match"] is True


class TestGc:
    def test_gc_drops_oldest_and_compacts_the_ledger(self, tmp_path):
        runs = [record_run(tmp_path, command="c%d" % i) for i in range(4)]
        removed = gc_runs(keep=2, root=str(tmp_path))
        assert removed == [runs[0].run_id, runs[1].run_id]
        for recorder in runs[:2]:
            assert not os.path.exists(recorder.path)
        survivors = {r["run_id"] for r in list_runs(str(tmp_path))}
        assert survivors == {runs[2].run_id, runs[3].run_id}
        # the rewritten ledger holds only survivor lines
        for record in read_ledger(str(tmp_path)):
            assert record["run_id"] in survivors

    def test_gc_noop_when_under_budget(self, tmp_path):
        record_run(tmp_path)
        assert gc_runs(keep=5, root=str(tmp_path)) == []

    def test_gc_rejects_negative_keep(self, tmp_path):
        with pytest.raises(LedgerError):
            gc_runs(keep=-1, root=str(tmp_path))
