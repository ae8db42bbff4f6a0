"""Exporters: Chrome trace JSON, Prometheus exposition, run manifests."""

import io
import json

from repro.observability import (
    ChromeTraceSink,
    MemoryTraceSink,
    MetricsRegistry,
    SolveStats,
    Tracer,
    prometheus_exposition,
    run_manifest,
    stats_digest,
    to_chrome_trace,
    write_metrics,
)
from repro.observability.export import DERIVED_METRICS, derived_metrics


def _span_stream():
    """A realistic nested span stream recorded off a tracer."""
    sink = MemoryTraceSink()
    tracer = Tracer(sink)
    with tracer.span("pipeline.run"):
        with tracer.span("control.solve") as span:
            span.update(models=2)
        tracer.event("solver.model", number=1)
    return sink.events


class TestChromeTrace:
    def test_span_pairs_collapse_to_complete_events(self):
        doc = to_chrome_trace(_span_stream())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert sorted(e["name"] for e in complete) == [
            "control.solve",
            "pipeline.run",
        ]
        for event in complete:
            assert event["dur"] >= 0
            assert event["ts"] >= 0

    def test_begin_events_are_dropped(self):
        doc = to_chrome_trace(_span_stream())
        assert not any(
            e.get("args", {}).get("span") for e in doc["traceEvents"]
        )
        # 2 spans -> 2 X events, 1 flat event -> 1 instant
        assert len(doc["traceEvents"]) == 3

    def test_flat_events_become_instants(self):
        doc = to_chrome_trace(_span_stream())
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["solver.model"]
        assert instants[0]["s"] == "t"
        assert instants[0]["args"]["number"] == 1

    def test_complete_event_anchored_at_start(self):
        events = [("work", 1.5, {"span": "E", "seconds": 0.5, "id": 1})]
        doc = to_chrome_trace(events)
        (event,) = doc["traceEvents"]
        assert event["ts"] == 1.0 * 1e6
        assert event["dur"] == 0.5 * 1e6

    def test_worker_tag_becomes_track_id(self):
        events = [
            ("work", 1.0, {"span": "E", "seconds": 0.1, "worker": 3}),
            ("tick", 2.0, {"worker": 5}),
        ]
        doc = to_chrome_trace(events)
        assert [e["tid"] for e in doc["traceEvents"]] == [3, 5]
        # the tag moved into tid, out of args
        assert all("worker" not in e["args"] for e in doc["traceEvents"])

    def test_schema_has_required_keys(self):
        doc = to_chrome_trace(_span_stream())
        assert doc["displayTimeUnit"] == "ms"
        for event in doc["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid", "cat"} <= set(event)

    def test_chrome_sink_writes_one_valid_json_document(self):
        stream = io.StringIO()
        sink = ChromeTraceSink(stream)
        tracer = Tracer(sink)
        with tracer.span("stage"):
            pass
        sink.close()
        doc = json.loads(stream.getvalue())
        assert [e["name"] for e in doc["traceEvents"]] == ["stage"]

    def test_chrome_sink_owns_path_targets(self, tmp_path):
        path = tmp_path / "trace.json"
        with ChromeTraceSink(str(path)) as sink:
            sink.emit("tick", n=1)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"][0]["args"] == {"n": 1}


class TestPrometheusExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_parallel_steals_total", "tasks stolen").inc(12)
        registry.gauge("repro_workers").set(4)
        hist = registry.histogram(
            "repro_stage_seconds",
            "stage latency",
            buckets=(0.1, 1.0),
            stage="solve",
        )
        hist.observe(0.05)
        hist.observe(0.5)
        return registry

    def test_counter_with_help_and_type(self):
        text = prometheus_exposition(None, self._registry())
        assert "# HELP repro_parallel_steals_total tasks stolen\n" in text
        assert "# TYPE repro_parallel_steals_total counter\n" in text
        assert "\nrepro_parallel_steals_total 12\n" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        lines = prometheus_exposition(None, self._registry()).splitlines()
        buckets = [l for l in lines if l.startswith("repro_stage_seconds_bucket")]
        assert buckets == [
            'repro_stage_seconds_bucket{stage="solve",le="0.1"} 1',
            'repro_stage_seconds_bucket{stage="solve",le="1"} 2',
            'repro_stage_seconds_bucket{stage="solve",le="+Inf"} 2',
        ]
        assert 'repro_stage_seconds_count{stage="solve"} 2' in lines
        assert any(
            l.startswith('repro_stage_seconds_sum{stage="solve"}')
            for l in lines
        )

    def test_families_sorted_and_headers_unique(self):
        text = prometheus_exposition(_every_path_tree(), self._registry())
        type_lines = [
            l for l in text.splitlines() if l.startswith("# TYPE")
        ]
        names = [l.split()[2] for l in type_lines]
        assert names == sorted(names)
        assert len(names) == len(set(names))

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path='a"b\\c\nd').inc()
        text = prometheus_exposition(None, registry)
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_exposition(None, MetricsRegistry()) == ""

    def test_write_metrics_to_stream_and_path(self, tmp_path):
        registry = self._registry()
        tree = _every_path_tree()
        stream = io.StringIO()
        write_metrics(tree, stream, registry)
        assert stream.getvalue() == prometheus_exposition(tree, registry)
        path = tmp_path / "metrics.prom"
        write_metrics(tree, str(path), registry)
        assert path.read_text() == prometheus_exposition(tree, registry)

    def test_write_metrics_dash_is_stdout(self, capsys):
        write_metrics(None, "-", self._registry())
        assert "repro_parallel_steals_total 12" in capsys.readouterr().out


def _every_path_tree():
    """A statistics tree holding a distinct value at every path the
    derived metrics read."""
    tree = SolveStats()
    paths = sorted(
        {path for _, _, paths in DERIVED_METRICS.values() for path in paths}
    )
    for value, path in enumerate(paths, start=1):
        tree.set(path, value * 10)
    return tree


class TestDerivedMetrics:
    def test_every_derived_metric_equals_its_stats_paths(self):
        tree = _every_path_tree()
        derived = derived_metrics(tree)
        assert sorted(derived) == sorted(DERIVED_METRICS)
        lines = prometheus_exposition(tree, MetricsRegistry()).splitlines()
        for name, (kind, help_text, paths) in DERIVED_METRICS.items():
            assert derived[name] == sum(tree.get_path(p) for p in paths)
            assert "# HELP %s %s" % (name, help_text) in lines
            assert "# TYPE %s %s" % (name, kind) in lines
            assert "%s %d" % (name, derived[name]) in lines

    def test_counters_come_from_the_tree_not_the_registry(self):
        tree = SolveStats()
        tree.set("summary.models.enumerated", 23)
        tree.set("summary.calls", 8)
        text = prometheus_exposition(tree, MetricsRegistry())
        assert "\nrepro_models_total 23\n" in text
        assert "\nrepro_solve_calls_total 8\n" in text

    def test_component_metrics_render_only_when_the_component_ran(self):
        tree = SolveStats()
        tree.set("summary.calls", 1)
        derived = derived_metrics(tree)
        # the ASP core always reports, zero when nothing was counted
        assert derived["repro_conflicts_total"] == 0
        assert derived["repro_ground_cache_hits_total"] == 0
        for absent in (
            "repro_cegar_iterations_total",
            "repro_mitigation_optimize_calls_total",
            "repro_mitigation_optimality_cores_total",
            "repro_parallel_cubes_total",
        ):
            assert absent not in derived
        tree.set("epa.parallel.shards", 8)
        assert derived_metrics(tree)["repro_parallel_cubes_total"] == 8

    def test_no_tree_derives_nothing(self):
        assert prometheus_exposition(None, MetricsRegistry()) == ""


class TestRunManifest:
    def test_manifest_shape(self):
        manifest = run_manifest(
            argv=["repro", "assess", "model.xml"],
            stats={"a": 1},
            seed=7,
            extra={"bench": "smoke"},
        )
        assert manifest["argv"] == ["repro", "assess", "model.xml"]
        assert manifest["seed"] == 7
        assert manifest["bench"] == "smoke"
        assert len(manifest["stats_digest"]) == 64
        assert "python" in manifest and "date" in manifest
        json.dumps(manifest)

    def test_digest_is_stable_and_order_insensitive(self):
        assert stats_digest({"a": 1, "b": 2}) == stats_digest({"b": 2, "a": 1})
        assert stats_digest({"a": 1}) != stats_digest({"a": 2})

    def test_digest_uses_to_dict_when_available(self):
        class Tree:
            def to_dict(self):
                return {"a": 1}

        assert stats_digest(Tree()) == stats_digest({"a": 1})
