"""Tests of the benchmark's own accounting.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

bench.import_program()

import layers  # noqa: E402
from workloads import CheckFailed, Op, Workload  # noqa: E402


class Scripted(Workload):
    """A workload whose operations are given by the test."""

    name = "scripted"
    family = "scripted"

    def __init__(self, calls):
        self.calls = calls

    def setup(self, seed: int) -> None:
        pass

    def pass_ops(self):
        return [
            Op("probe", "op-%d" % index, lambda call=call: call, check, ref=ref)
            for index, (call, check, ref) in enumerate(self.calls)
        ]


def answer(value):
    return lambda: value


def accept(value):
    return 1, str(value).encode()


def raising():
    raise RecursionError("maximum recursion depth exceeded")


def test_raising_op_is_counted_and_the_run_goes_on():
    workload = Scripted(
        [(raising, accept, None), (answer(7), accept, None)]
    )
    run = bench.Run(workload, {})
    run.run_pass()
    assert run.attempted == 2
    assert run.failed == 1
    assert [record.kind for record in run.records] == ["probe"]
    assert "RecursionError" in run.errors[0]
    assert not run.correct


def test_wrong_answer_is_a_failed_op():
    def refuse(value):
        raise CheckFailed("expected 8, got %s" % value)

    run = bench.Run(Scripted([(answer(7), refuse, None)]), {})
    run.run_pass()
    assert (run.attempted, run.failed, run.correct) == (1, 1, False)


def test_reference_digests_decide_correctness():
    workload = Scripted([(answer(7), accept, "seven")])
    recorded = bench.Run(workload, {})
    recorded.run_pass()
    good = bench.Run(workload, dict(recorded.digests))
    good.run_pass()
    assert good.correct and not good.unreferenced
    bad = bench.Run(workload, {"scripted/seven": "0" * 64})
    bad.run_pass()
    assert bad.failed == 0 and bad.mismatches == ["scripted/seven"]
    assert not bad.correct


def test_passes_with_different_answers_disagree():
    values = iter([1, 2])
    workload = Scripted([(lambda: next(values), accept, None)])
    run = bench.Run(workload, {})
    run.run_pass()
    run.run_pass()
    assert not run.correct


def test_nearest_rank_p99_leaves_ten_samples_beyond():
    samples = list(range(1000))
    cut = bench.percentile(samples, 0.99)
    assert sum(1 for value in samples if value > cut) == 10


def test_shims_attribute_self_time_and_restore_the_program():
    from repro.asp import Control
    from repro.asp.solver import StableModelSolver

    originals = (Control.ground, StableModelSolver.models, Control.solve_iter)
    tracer = layers.Tracer()
    restore = layers.install(tracer)
    try:
        tracer.active = True
        control = Control()
        control.add("{ a; b }. c :- a.")
        models = control.solve()
        tracer.active = False
    finally:
        restore()
    assert len(models) == 4
    assert (Control.ground, StableModelSolver.models, Control.solve_iter) == originals
    assert tracer.self_s["asp.grounder.ground"] > 0
    assert tracer.self_s["asp.solver.search"] > 0
    assert tracer.counts["asp.parser.statements"] == 2
    assert tracer.counts["asp.grounder.rules"] > 0
    spans = {span_id: (parent, start, end) for span_id, parent, _n, start, end in tracer.spans}
    for parent, start, end in spans.values():
        assert end >= start
        if parent:
            assert spans[parent][1] <= start and end <= spans[parent][2]


def test_tracer_is_inert_outside_operations():
    tracer = layers.Tracer()
    restore = layers.install(tracer)
    try:
        from repro.asp import Control

        Control("a.").solve()
    finally:
        restore()
    assert not tracer.spans and not tracer.counts


def test_engine_spans_cover_per_model_work_only():
    from repro.security.fleet import FleetSpec, fleet_engine

    spec = FleetSpec(
        tiers=1, components_per_tier=3, fault_modes_per_component=1, max_faults=2
    )
    engine = fleet_engine(spec)
    tracer = layers.Tracer()
    restore = layers.install(tracer)
    try:
        tracer.active = True
        report = engine.analyze(max_faults=spec.max_faults)
        tracer.active = False
    finally:
        restore()
    assert tracer.counts["epa.engine.scenarios"] == len(report) == 7
    # one span per extracted model; the entry point itself is no span
    names = [name for _id, _parent, name, _start, _end in tracer.spans]
    assert names.count("epa.engine") == len(report)


def test_traced_run_discards_a_warm_up_and_pairs_its_passes(tmp_path, monkeypatch):
    from repro.asp import Control

    monkeypatch.setattr(bench, "OUTPUT", str(tmp_path))
    original = Control.ground
    shimmed = []

    def probe():
        shimmed.append(Control.ground is not original)
        return 7

    run, metrics, _lines = bench.traced(
        Scripted([(probe, accept, None)]), 0.0, {}, seed=0
    )
    # warm-up, then one untraced and one traced pass; shims only in the latter
    assert run.passes == 3 and run.correct
    assert shimmed == [False, False, True]
    assert Control.ground is original
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert (tmp_path / "trace-scripted-seed0.json").exists()


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


def test_unknown_workload_is_refused():
    with pytest.raises(SystemExit) as excinfo:
        bench.main(["--workload", "bogus"])
    assert excinfo.value.code != 0
