"""Benchmark of the parallel solve path (the cube sweep).

``test_bench_parallel_analyze_4_workers`` times a 4-worker
cube-and-conquer sweep of the water-tank scenario space at
``max_faults=3`` (1794 scenarios) and asserts the output is identical
to a sequential sweep.  ``run_bench.py`` compares the median against
the recorded *sequential fresh-path* baseline, so the speedup column in
``BENCH_asp.json`` is the wall-clock effect of the parallel rebuild —
ground-once serialization, occurrence-ordered cubes, propagation-driven
projected enumeration in the workers — on the machine that ran the
suite.  The gain is algorithmic first and multi-core second: the cube
path beats the sequential baseline by >3x even on a single core, and
``--check`` gates the speedup at >=2.0 (see ``docs/parallelism.md``).
"""

from repro.casestudy import build_system_model, static_requirements
from repro.epa import EpaEngine
from repro.observability import ProgressTracker

MAX_FAULTS = 3
#: C(22,0..3) fault combinations of the 22 water-tank fault pairs
EXPECTED_SCENARIOS = 1794


def _outcome_vector(report):
    return [
        (o.key(), tuple(sorted(o.violated)), o.severity_rank)
        for o in report.outcomes
    ]


def test_bench_parallel_analyze_4_workers(benchmark):
    # the tracker rides inside the timed region on purpose: the
    # SPEEDUP_FLOORS gate in run_bench.py --check is what keeps the
    # progress/heartbeat overhead honest
    def sweep():
        engine = EpaEngine(
            build_system_model(),
            static_requirements(),
            workers=4,
            progress=ProgressTracker(),
        )
        return engine, engine.analyze(max_faults=MAX_FAULTS)

    engine, report = benchmark.pedantic(sweep, rounds=3, iterations=1)
    assert len(report) == EXPECTED_SCENARIOS
    stats = engine.statistics
    assert stats["epa"]["parallel"]["shards"] >= 4
    assert stats["epa"]["parallel"]["workers"] == 4
    # the sharded sweep must be identical to the sequential one —
    # same scenarios, same verdicts, same order
    sequential = EpaEngine(build_system_model(), static_requirements())
    assert _outcome_vector(report) == _outcome_vector(
        sequential.analyze(max_faults=MAX_FAULTS)
    )

