"""Metrics registry: instrument semantics."""

import pytest

from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    MetricsError,
    MetricsRegistry,
    get_registry,
)


class TestCounter:
    def test_inc_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("models_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("models_total")
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        a = registry.counter("c", stage="ground")
        b = registry.counter("c", stage="solve")
        assert a is not b
        a.inc()
        assert b.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("workers")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3


class TestHistogram:
    def test_observations_land_in_the_right_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.1, 0.5, 5.0, 50.0):
            hist.observe(value)
        # per-bucket (non-cumulative) counts, +Inf slot last
        assert hist.bucket_counts == [2, 1, 1, 1]
        assert hist.count == 5
        assert hist.sum == pytest.approx(55.65)

    def test_cumulative_counts_roll_up(self):
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        assert hist.cumulative_counts() == [1, 2, 3]

    def test_boundary_value_falls_in_its_bucket(self):
        # Prometheus buckets are upper-inclusive: le=1.0 counts 1.0
        hist = MetricsRegistry().histogram("lat", buckets=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.bucket_counts == [1, 0, 0]

    def test_default_buckets_are_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().histogram("lat", buckets=(1.0, 0.5))

    def test_duplicate_buckets_rejected(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().histogram("lat", buckets=(1.0, 1.0))


class TestRegistry:
    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(MetricsError):
            registry.gauge("m")
        with pytest.raises(MetricsError):
            registry.histogram("m")

    def test_kind_collision_across_label_sets_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", stage="a")
        with pytest.raises(MetricsError):
            registry.gauge("m", stage="b")

    def test_first_help_wins(self):
        registry = MetricsRegistry()
        registry.counter("m", "first description")
        registry.counter("m", "second description")
        assert registry.help_for("m") == "first description"

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("m")
        hist = registry.histogram("h", buckets=(1.0,))
        counter.inc(3)
        hist.observe(0.5)
        registry.reset()
        assert counter.value == 0
        assert hist.count == 0 and hist.sum == 0
        # the cached handle is still the registered instrument
        counter.inc()
        assert registry.counter("m").value == 1

    def test_process_default_registry_is_shared(self):
        assert get_registry() is get_registry()
