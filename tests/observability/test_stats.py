"""Unit tests for the SolveStats tree, timers and trace sinks."""

import io
import json

import pytest

from repro.observability import (
    HumanTraceSink,
    JsonLinesTraceSink,
    MemoryTraceSink,
    NULL_SINK,
    NullTraceSink,
    SolveStats,
    StatsError,
    Timer,
    TraceEvent,
    format_statistics,
    open_trace,
)


class TestSolveStats:
    def test_dotted_set_and_get(self):
        stats = SolveStats()
        stats.set("solving.solvers.choices", 5)
        assert stats["solving"]["solvers"]["choices"] == 5
        assert stats.get_path("solving.solvers.choices") == 5

    def test_get_path_default(self):
        stats = SolveStats()
        assert stats.get_path("no.such.path") is None
        assert stats.get_path("no.such.path", 0) == 0

    def test_get_path_through_leaf_returns_default(self):
        stats = SolveStats()
        stats.set("a.b", 1)
        assert stats.get_path("a.b.c", "d") == "d"

    def test_incr_creates_and_accumulates(self):
        stats = SolveStats()
        stats.incr("x.y")
        stats.incr("x.y", 4)
        assert stats.get_path("x.y") == 5

    def test_incr_interior_node_raises(self):
        stats = SolveStats()
        stats.set("a.b", 1)
        with pytest.raises(StatsError):
            stats.incr("a")

    def test_child_through_leaf_raises(self):
        stats = SolveStats()
        stats.set("a", 1)
        with pytest.raises(StatsError):
            stats.child("a.b")

    def test_mapping_protocol(self):
        stats = SolveStats({"a": 1, "b": {"c": 2}})
        assert len(stats) == 2
        assert sorted(stats) == ["a", "b"]
        assert isinstance(stats["b"], SolveStats)
        del stats["a"]
        assert "a" not in stats

    def test_merge_sums_numeric_leaves(self):
        left = SolveStats({"solving": {"solvers": {"conflicts": 2}}})
        right = SolveStats({"solving": {"solvers": {"conflicts": 3, "choices": 1}}})
        left.merge(right)
        assert left.get_path("solving.solvers.conflicts") == 5
        assert left.get_path("solving.solvers.choices") == 1

    def test_merge_recurses_and_overwrites_non_numeric(self):
        left = SolveStats({"summary": {"costs": [9], "calls": 1}})
        right = SolveStats({"summary": {"costs": [4], "calls": 1}})
        left.merge(right)
        assert left.get_path("summary.costs") == [4]
        assert left.get_path("summary.calls") == 2

    def test_merge_plain_dict(self):
        stats = SolveStats()
        stats.merge({"grounding": {"rules": 6}})
        stats.merge({"grounding": {"rules": 6}})
        assert stats.get_path("grounding.rules") == 12

    def test_merge_returns_self(self):
        stats = SolveStats()
        assert stats.merge({"a": 1}) is stats

    def test_to_dict_roundtrip(self):
        stats = SolveStats()
        stats.incr("solving.solvers.conflicts", 7)
        stats.set("summary.costs", (1, 2))
        data = stats.to_dict()
        assert data == {
            "solving": {"solvers": {"conflicts": 7}},
            "summary": {"costs": [1, 2]},
        }
        rebuilt = SolveStats.from_dict(data)
        assert rebuilt.to_dict() == data

    def test_to_json(self):
        stats = SolveStats({"a": {"b": 1}})
        assert json.loads(stats.to_json()) == {"a": {"b": 1}}

    def test_timer_accumulates_into_path(self):
        stats = SolveStats()
        with stats.timer("summary.times.ground"):
            pass
        with stats.timer("summary.times.ground"):
            pass
        elapsed = stats.get_path("summary.times.ground")
        assert elapsed >= 0
        assert isinstance(elapsed, float)


class TestTimerCounter:
    def test_timer_context_manager(self):
        timer = Timer()
        with timer:
            pass
        assert timer.elapsed >= 0

    def test_timer_start_stop_accumulates(self):
        timer = Timer()
        first = timer.start().stop()
        second = timer.start().stop()
        assert timer.elapsed >= first + second >= 0

    def test_timer_on_stop_callback(self):
        seen = []
        timer = Timer(on_stop=seen.append)
        with timer:
            pass
        assert len(seen) == 1 and seen[0] >= 0


class TestTraceSinks:
    def test_null_sink_is_noop(self):
        NULL_SINK.emit("anything", a=1)
        NULL_SINK.close()
        assert isinstance(NULL_SINK, NullTraceSink)

    def test_memory_sink_records_and_filters(self):
        sink = MemoryTraceSink()
        sink.emit("solver.model", number=1)
        sink.emit("grounder.round", round=1)
        sink.emit("solver.model", number=2)
        assert [e.name for e in sink.events] == [
            "solver.model", "grounder.round", "solver.model",
        ]
        assert [e.payload["number"] for e in sink.named("solver.model")] == [1, 2]

    def test_jsonlines_sink_on_stream(self):
        stream = io.StringIO()
        sink = JsonLinesTraceSink(stream)
        sink.emit("solver.model", number=1, atoms=4)
        sink.close()  # borrowed stream: flushed, not closed
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["event"] == "solver.model"
        assert record["number"] == 1 and record["atoms"] == 4
        assert record["t"] >= 0

    def test_jsonlines_sink_on_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonLinesTraceSink(path) as sink:
            sink.emit("a", x=1)
            sink.emit("b", y=2)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["a", "b"]

    def test_human_sink_format(self):
        stream = io.StringIO()
        sink = HumanTraceSink(stream)
        sink.emit("solver.model", number=1)
        sink.close()
        line = stream.getvalue()
        assert "solver.model" in line and "number=1" in line

    def test_trace_event_str(self):
        event = TraceEvent("grounder.done", 0.25, {"rules": 6})
        assert "grounder.done" in str(event) and "rules=6" in str(event)

    def test_open_trace_dispatch(self, tmp_path):
        assert open_trace(None) is NULL_SINK
        assert open_trace("") is NULL_SINK
        assert isinstance(open_trace("-"), HumanTraceSink)
        sink = open_trace(str(tmp_path / "t.jsonl"))
        assert isinstance(sink, JsonLinesTraceSink)
        sink.close()


class TestFormatStatistics:
    def test_empty_tree_renders_empty(self):
        assert format_statistics(SolveStats()) == ""

    def test_full_tree_renders_clingo_style(self):
        stats = SolveStats({
            "grounding": {"rules": 6, "rules_nonground": 6, "atoms": 7,
                          "instantiations": 7, "rounds": 3},
            "solving": {"variables": 9, "unfounded_checks": 2, "loop_nogoods": 4,
                        "solvers": {"choices": 10, "conflicts": 3,
                                    "propagations": 99, "restarts": 1,
                                    "learnt": 3}},
            "summary": {"calls": 2, "models": {"enumerated": 5, "optimal": 1},
                        "times": {"ground": 0.5, "solve": 1.0, "total": 1.5},
                        "costs": [4, 2]},
        })
        text = format_statistics(stats)
        assert "Models       : 5 (Optimal: 1)" in text
        assert "Calls        : 2" in text
        assert "Optimization : 4 2" in text
        assert "Time         : 1.500s (Ground: 0.500s Solve: 1.000s)" in text
        assert "Rules        : 6 (non-ground: 6)" in text
        assert "Grounding    : 7 instantiations over 3 rounds" in text
        assert "Variables    : 9" in text
        assert "Choices      : 10" in text
        assert "Conflicts    : 3 (Restarts: 1)" in text
        assert "Propagations : 99" in text
        assert "Learnt       : 3 nogoods" in text
        assert "Stability    : 2 unfounded checks, 4 loop nogoods" in text

    def test_accepts_plain_dict(self):
        text = format_statistics({"summary": {"calls": 1}})
        assert "Calls" in text
