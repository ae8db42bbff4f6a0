"""Tests for the worker-pool layer and the sharded EPA sweeps.

The contract under test: parallel runs are *identical* to sequential
ones (same results, same order), and pool-level failures surface as
clean exceptions — a crashed worker process must become an
:class:`~repro.epa.EpaError`, never a hang or a half-filled report.
"""

import os

import pytest

from repro.epa import EpaEngine, EpaError, StaticRequirement
from repro.hierarchy.cegar import cegar_loop
from repro.parallel import ParallelError, parallel_map
from repro.qualitative.spaces import QuantitySpace
from repro.risk.sensitivity import one_at_a_time
from repro.modeling import RelationshipType, SystemModel, standard_cps_library

REQ = [
    StaticRequirement("rv", "err(v, K), hazardous_kind(K)", focus="v", magnitude="VH"),
]


def chain_model():
    library = standard_cps_library()
    model = SystemModel("chain")
    library.instantiate(model, "sensor", "s")
    library.instantiate(model, "controller", "c")
    library.instantiate(model, "actuator", "v")
    model.add_relationship("s", "c", RelationshipType.FLOW)
    model.add_relationship("c", "v", RelationshipType.FLOW)
    return model


def _square(value):  # must be module-level: the process backend pickles it
    return value * value


def _die(payload):  # simulates a worker killed by the OS (OOM, signal)
    os._exit(1)


class TestParallelMap:
    def test_preserves_submission_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=4) == [
            value * value for value in items
        ]

    def test_degenerate_cases_run_sequentially(self):
        assert parallel_map(_square, [3], workers=8) == [9]
        assert parallel_map(_square, [2, 3], workers=1) == [4, 9]
        assert parallel_map(_square, [], workers=4) == []

    def test_thread_backend_supports_closures(self):
        offset = 10
        results = parallel_map(
            lambda v: v + offset, range(8), workers=4, backend="thread"
        )
        assert results == [v + 10 for v in range(8)]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(_square, [1, 2], workers=2, backend="fiber")

    def test_function_exceptions_propagate(self):
        def boom(value):
            raise KeyError(value)

        with pytest.raises(KeyError):
            parallel_map(boom, [1, 2, 3], workers=2, backend="thread")

    def test_crashed_worker_raises_parallel_error(self):
        with pytest.raises(ParallelError):
            parallel_map(_die, [1, 2, 3, 4], workers=2)


class TestShardedAnalyze:
    def test_parallel_report_equals_sequential(self):
        sequential = EpaEngine(chain_model(), REQ).analyze(max_faults=2)
        parallel = EpaEngine(chain_model(), REQ, workers=4).analyze(max_faults=2)
        assert [
            (o.key(), tuple(sorted(o.violated)), o.severity_rank)
            for o in parallel.outcomes
        ] == [
            (o.key(), tuple(sorted(o.violated)), o.severity_rank)
            for o in sequential.outcomes
        ]

    def test_parallel_run_accounts_shards_in_stats(self):
        engine = EpaEngine(chain_model(), REQ, workers=4)
        engine.analyze(max_faults=1)
        stats = engine.statistics
        assert stats["epa"]["parallel"]["shards"] >= 4
        assert stats["epa"]["parallel"]["workers"] == 4
        # worker solving counters were folded back into the parent tree
        assert stats["solving"]["models"] >= 10

    def test_crashed_worker_becomes_epa_error(self, monkeypatch):
        import repro.epa.engine as engine_module

        monkeypatch.setattr(engine_module, "_cube_worker", _die)
        engine = EpaEngine(chain_model(), REQ, workers=4)
        with pytest.raises(EpaError):
            engine.analyze(max_faults=1)


class TestThreadedCallers:
    def test_cegar_verdicts_match_sequential(self):
        engine = EpaEngine(chain_model(), REQ)
        report = engine.analyze(max_faults=2)
        oracle = lambda outcome: outcome.fault_count <= 1
        run = lambda workers: cegar_loop(
            analysis=lambda: report,
            oracle=oracle,
            refiner=lambda spurious: None,
            workers=workers,
        )
        sequential, threaded = run(None), run(4)
        assert [o.key() for o in threaded.confirmed] == [
            o.key() for o in sequential.confirmed
        ]
        assert threaded.converged == sequential.converged

    def test_sensitivity_results_match_sequential(self):
        space = QuantitySpace("risk", ("VL", "L", "M", "H", "VH"))
        table = {
            ("L", "VL"): "VL",
            ("L", "L"): "VL",
            ("L", "M"): "L",
            ("L", "VH"): "M",
        }
        function = lambda lef, lm: table[(lef, lm)]
        kwargs = dict(
            fixed={"lef": "L"},
            uncertain={"lm": ("VL", "L", "M", "VH")},
            outcome_space=space,
        )
        assert one_at_a_time(function, workers=4, **kwargs) == one_at_a_time(
            function, **kwargs
        )


def _sleep_square(payload):  # skewed task cost: (seconds, value)
    seconds, value = payload
    import time

    time.sleep(seconds)
    return value * value


def _die_once(payload):  # crashes the first time only (flag-file trick)
    flag, value = payload
    if os.path.exists(flag):
        return value * value
    with open(flag, "w"):
        pass
    os._exit(1)


def _raise_tagged(value):
    raise KeyError("nope-%d" % value)


class TestWorkStealingPool:
    def test_preserves_submission_order(self):
        from repro.parallel import WorkStealingPool

        pool = WorkStealingPool(4)
        items = list(range(17))
        assert pool.map(_square, items) == [v * v for v in items]
        assert sorted(pool.last_assignments) == items

    def test_degenerate_runs_inline(self):
        from repro.parallel import WorkStealingPool

        pool = WorkStealingPool(1)
        assert pool.map(_square, [2, 3]) == [4, 9]
        assert pool.last_assignments == {0: 0, 1: 0}
        # a single item never forks either, whatever the worker count
        assert WorkStealingPool(8).map(_square, [5]) == [25]

    def test_invalid_worker_count_rejected(self):
        from repro.parallel import WorkStealingPool

        with pytest.raises(ValueError):
            WorkStealingPool(0)

    def test_skewed_tasks_trigger_steals(self):
        from repro.observability.metrics import get_registry
        from repro.parallel import WorkStealingPool

        # home tags are index % workers: even items land on worker 0 and
        # sleep, odd items land on worker 1 and return immediately —
        # worker 1 must steal worker 0's backlog to finish the batch
        items = [(0.2 if i % 2 == 0 else 0.0, i) for i in range(8)]
        steals = get_registry().counter(
            "repro_parallel_steals_total",
            "tasks executed by a worker other than their home worker",
        )
        before = steals.value
        results = WorkStealingPool(2).map(_sleep_square, items)
        assert results == [i * i for i in range(8)]
        assert steals.value > before

    def test_crashed_worker_retries_and_recovers(self, tmp_path):
        from repro.parallel import WorkStealingPool

        # the task kills its worker once, then succeeds on the retry:
        # the pool must respawn the worker and still return every result
        flag = str(tmp_path / "died-once")
        items = [(flag, value) for value in range(4)]
        results = WorkStealingPool(2).map(_die_once, items)
        assert results == [value * value for value in range(4)]

    def test_repeated_crashes_exhaust_attempts(self):
        from repro.parallel import MAX_TASK_ATTEMPTS, WorkStealingPool

        with pytest.raises(ParallelError) as excinfo:
            WorkStealingPool(2).map(_die, list(range(4)))
        assert str(MAX_TASK_ATTEMPTS) in str(excinfo.value)

    def test_function_exception_carries_worker_traceback(self):
        from repro.parallel import WorkStealingPool

        with pytest.raises(KeyError) as excinfo:
            WorkStealingPool(2).map(_raise_tagged, [1, 2, 3])
        cause = excinfo.value.__cause__
        assert isinstance(cause, ParallelError)
        assert cause.worker_traceback is not None
        assert "_raise_tagged" in cause.worker_traceback

    def test_dead_worker_warns_before_the_respawn(self, tmp_path):
        from repro.observability.metrics import get_registry
        from repro.parallel import WorkStealingPool

        stalled = get_registry().counter(
            "repro_worker_stalled_total",
            "pool workers detected stalled (silent past the timeout) or "
            "dead while holding a task",
        )
        respawns = get_registry().counter(
            "repro_parallel_respawns_total",
            "worker processes respawned after dying mid-task",
        )
        stalled_before = stalled.value
        respawns_before = respawns.value
        events = []

        def on_stall(worker, task, silent_s, reason):
            # capture the respawn counter *at warning time*: the health
            # warning must precede the respawn it explains
            events.append((worker, task, reason, respawns.value))

        flag = str(tmp_path / "died-once")
        items = [(flag, value) for value in range(4)]
        results = WorkStealingPool(2, on_stall=on_stall).map(_die_once, items)
        assert results == [value * value for value in range(4)]
        died = [event for event in events if event[2] == "died"]
        assert died, "worker death must raise a health warning"
        assert stalled.value > stalled_before
        assert died[0][3] == respawns_before
        assert respawns.value > respawns_before


class TestParallelByteIdentity:
    """The cube path must stay byte-identical to serial in every mode."""

    def _pairs(self, report):
        return [
            (
                o.key(),
                tuple(sorted(o.violated)),
                o.severity_rank,
                tuple(sorted(o.detected_at)),
                tuple(sorted((c, tuple(sorted(k))) for c, k in o.erroneous.items())),
            )
            for o in report.outcomes
        ]

    def test_restricted_sweep_matches_sequential(self):
        sequential = EpaEngine(chain_model(), REQ).analyze(max_faults=2)
        singles = [
            next(iter(o.active_faults))
            for o in sequential.outcomes
            if o.fault_count == 1
        ]
        restrict = singles[:4]
        serial = EpaEngine(chain_model(), REQ).analyze(
            max_faults=2, restrict_faults=restrict
        )
        parallel = EpaEngine(chain_model(), REQ, workers=4).analyze(
            max_faults=2, restrict_faults=restrict
        )
        assert self._pairs(parallel) == self._pairs(serial)

    def test_with_paths_matches_sequential(self):
        serial = EpaEngine(chain_model(), REQ).analyze(
            max_faults=2, with_paths=True
        )
        parallel = EpaEngine(chain_model(), REQ, workers=4).analyze(
            max_faults=2, with_paths=True
        )
        assert self._pairs(parallel) == self._pairs(serial)
        assert [o.paths for o in parallel.outcomes] == [
            o.paths for o in serial.outcomes
        ]

    def test_cube_mode_matches_sequential(self):
        serial = EpaEngine(chain_model(), REQ).analyze(max_faults=2)
        parallel = EpaEngine(
            chain_model(), REQ, workers=4, cube_factor=1
        ).analyze(max_faults=2)
        assert self._pairs(parallel) == self._pairs(serial)

    def test_scenario_verdict_invariant_across_parallel_mode(self):
        """A pinned scenario is one propagation leaf on the persistent
        control, whatever ``workers`` says: no pool width may change
        its verdict."""
        serial_engine = EpaEngine(chain_model(), REQ)
        report = serial_engine.analyze(max_faults=1)
        target = next(
            o for o in report.outcomes if o.fault_count == 1
        ).active_faults
        serial = serial_engine.analyze_scenario(target)
        for workers in (1, 2, 4):
            engine = EpaEngine(chain_model(), REQ, workers=workers)
            verdict = engine.analyze_scenario(target)
            assert verdict.violated == serial.violated
            assert verdict.severity_rank == serial.severity_rank
            assert verdict.paths == serial.paths
