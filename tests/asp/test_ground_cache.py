"""The process-wide ground-program cache on :class:`Control`.

Grounding is memoized across controls keyed by the rendered program
text (the reuse pattern of the EPA engine, the CEGAR loop and the
mitigation optimizer, which all rebuild controls around the same model
facts).  These tests pin the cache contract: hits/misses are counted in
``statistics["grounding"]["cache"]``, ``add()`` invalidates, controls
with a trace sink bypass the cache (observability wins), and
:func:`clear_ground_cache` really empties it.
"""

import pytest

from repro.asp import Control, clear_ground_cache
from repro.observability import MemoryTraceSink, format_statistics

PROGRAM = """
component(tank). component(valve).
fault(leak).
potential_fault(C, F) :- component(C), fault(F).
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_ground_cache()
    yield
    clear_ground_cache()


def cache_counters(control):
    cache = control.statistics.get_path("grounding.cache")
    return (
        cache.get("hits", 0) if cache else 0,
        cache.get("misses", 0) if cache else 0,
    )


def test_first_grounding_is_a_miss():
    control = Control(PROGRAM)
    control.ground()
    assert cache_counters(control) == (0, 1)


def test_same_text_second_control_hits():
    first = Control(PROGRAM)
    first_ground = first.ground()
    second = Control(PROGRAM)
    second_ground = second.ground()
    assert cache_counters(second) == (1, 0)
    # the cached instance itself is reused, not regrounded
    assert second_ground is first_ground


def test_cached_grounding_solves_identically():
    baseline = {frozenset(m.atoms) for m in Control(PROGRAM).solve()}
    cached = {frozenset(m.atoms) for m in Control(PROGRAM).solve()}
    assert cached == baseline


def test_hit_merges_grounding_statistics():
    Control(PROGRAM).ground()
    control = Control(PROGRAM)
    control.ground()
    assert control.statistics.get_path("grounding.rules") > 0
    assert control.statistics.get_path("grounding.cache.hits") == 1


def test_add_invalidates_per_control_and_misses():
    control = Control(PROGRAM)
    control.ground()
    control.add("component(pump).")
    control.ground()
    hits, misses = cache_counters(control)
    assert hits == 0 and misses == 2


def test_repeated_ground_same_control_uses_local_cache():
    control = Control(PROGRAM)
    first = control.ground()
    second = control.ground()
    assert first is second
    # no second cache transaction: the per-control memo answered
    assert cache_counters(control) == (0, 1)


def test_trace_sink_bypasses_shared_cache():
    Control(PROGRAM).ground()  # seed the shared cache
    sink = MemoryTraceSink()
    traced = Control(PROGRAM, trace=sink)
    traced.ground()
    hits, misses = cache_counters(traced)
    assert (hits, misses) == (0, 1)
    # the observability contract survives: grounder events were emitted
    assert any(event.name == "grounder.done" for event in sink.events)


def test_clear_ground_cache_forces_regrounding():
    Control(PROGRAM).ground()
    clear_ground_cache()
    control = Control(PROGRAM)
    control.ground()
    assert cache_counters(control) == (0, 1)


def test_format_statistics_shows_index_and_cache_lines():
    Control(PROGRAM).ground()
    control = Control(PROGRAM)
    control.solve()
    text = format_statistics(control.statistics)
    assert "Ground-cache" in text
    assert "1 hits, 0 misses" in text
    assert "Index" in text


class TestProcessMetrics:
    """The repro_ground_cache_{hits,misses}_total counters, derived from
    the ``grounding.cache`` section of a run's statistics tree."""

    def counters(self, *controls):
        from repro.observability import SolveStats
        from repro.observability.export import derived_metrics

        run = SolveStats()
        for control in controls:
            run.merge(control.statistics)
        metrics = derived_metrics(run)
        return (
            metrics["repro_ground_cache_hits_total"],
            metrics["repro_ground_cache_misses_total"],
        )

    def test_miss_then_hit_increment_the_counters(self):
        first = Control(PROGRAM)
        first.ground()
        assert self.counters(first) == (0, 1)
        second = Control(PROGRAM)
        second.ground()
        assert self.counters(first, second) == (1, 1)

    def test_provenance_controls_bypass_cache_and_counters(self):
        first = Control(PROGRAM)
        first_ground = first.ground()
        tracked = Control(PROGRAM, provenance=True)
        tracked_ground = tracked.ground()
        # fresh grounding (cached instance has no origins): counts as a
        # miss — same accounting as trace-sink bypass — never as a hit
        assert tracked_ground is not first_ground
        assert tracked_ground.origins is not None
        assert self.counters(tracked) == (0, 1)
        # and the provenance-tracking grounding was not shared back
        assert Control(PROGRAM).ground() is first_ground
