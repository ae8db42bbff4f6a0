"""A process-wide registry of counters, gauges and histograms.

Statistics trees (:mod:`repro.observability.stats`) are *per run* and
the one store of every counted solver fact; ``--metrics`` derives the
Prometheus counters for those facts from the tree
(:data:`repro.observability.export.DERIVED_METRICS`).  This registry
holds only what no tree does: histograms (``repro_stage_seconds``,
provenance core sizes and proof depths), live gauges (progress,
heartbeat ages, peak RSS) and the counters of components that own no
tree (pool steals, respawns and busy seconds, worker stalls,
provenance justifications).

Three instrument kinds, all label-aware:

:class:`Counter`
    a monotonically increasing total (``repro_parallel_steals_total``);
:class:`Gauge`
    a settable point-in-time value (``repro_peak_rss_bytes``);
:class:`Histogram`
    cumulative-bucket latency/size distribution with ``sum`` and
    ``count`` (``repro_stage_seconds{stage="solve"}``).

The process-wide default registry is :func:`get_registry`; layers cache
metric handles at import time, which stays correct because
:meth:`MetricsRegistry.reset` *zeroes values in place* instead of
dropping the instruments.  Pool workers ship no registry state: the
parent-side pool owns the cross-worker instruments.

Rendering to Prometheus text exposition lives in
:mod:`repro.observability.export`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: default latency buckets (seconds) — Prometheus-style, sub-ms to 10s
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: size buckets for count-valued histograms (core sizes, proof depths)
SIZE_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    1000.0,
)

#: label values as a canonical, hashable key
LabelKey = Tuple[Tuple[str, str], ...]


class MetricsError(Exception):
    """Raised on kind collisions or malformed instruments."""


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise MetricsError("counter %r cannot decrease" % self.name)
        self.value += amount

    def _zero(self) -> None:
        self.value = 0.0



class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def _zero(self) -> None:
        self.value = 0.0



class Histogram:
    """A cumulative-bucket distribution (Prometheus semantics).

    ``buckets`` are ascending upper bounds; an implicit ``+Inf`` bucket
    catches the rest.  ``bucket_counts[i]`` counts observations ``<=
    buckets[i]`` *for that bucket alone* internally — the cumulative
    rollup happens at exposition time — plus running ``sum``/``count``.
    """

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricsError(
                "histogram %r buckets must be strictly ascending" % name
            )
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        self.bucket_counts[index] += 1
        self.sum += value
        self.count += 1

    def cumulative_counts(self) -> List[int]:
        """Counts ``<= bound`` per bucket, ending with the total."""
        rollup: List[int] = []
        running = 0
        for count in self.bucket_counts:
            running += count
            rollup.append(running)
        return rollup

    def _zero(self) -> None:
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0



class MetricsRegistry:
    """All instruments of one process.

    Accessors are get-or-create and idempotent: asking for the same
    (name, labels) twice returns the same object, so handles can be
    cached.  Asking for an existing name with a different kind raises
    :class:`MetricsError`.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], object] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # instrument accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        return self._get_or_create(Counter, name, help, _label_key(labels))

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, help, _label_key(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            self._register_help(name, help)
            metric = Histogram(name, key[1], buckets=buckets)
            self._check_kind(name, Histogram)
            self._metrics[key] = metric
        elif not isinstance(metric, Histogram):
            raise MetricsError(
                "metric %r is a %s, not a histogram" % (name, metric.kind)  # type: ignore[attr-defined]
            )
        return metric

    def _get_or_create(self, cls: type, name: str, help: str, labels: LabelKey):
        key = (name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            self._register_help(name, help)
            self._check_kind(name, cls)
            metric = cls(name, labels)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise MetricsError(
                "metric %r is a %s, not a %s"
                % (name, metric.kind, cls.kind)  # type: ignore[attr-defined]
            )
        return metric

    def _check_kind(self, name: str, cls: type) -> None:
        for (existing_name, _), metric in self._metrics.items():
            if existing_name == name and not isinstance(metric, cls):
                raise MetricsError(
                    "metric %r already registered as a %s"
                    % (name, metric.kind)  # type: ignore[attr-defined]
                )

    def _register_help(self, name: str, help: str) -> None:
        if help and name not in self._help:
            self._help[name] = help

    def help_for(self, name: str) -> str:
        return self._help.get(name, "")

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def collect(self) -> Iterator[object]:
        """Instruments in canonical (name, labels) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def reset(self) -> None:
        """Zero every instrument *in place* (cached handles stay live)."""
        for metric in self._metrics.values():
            metric._zero()  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self._metrics)


#: the process-wide default registry every instrumented layer reports to
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return REGISTRY


def record_peak_rss(registry: Optional[MetricsRegistry] = None) -> Optional[int]:
    """Record this process's peak RSS as ``repro_peak_rss_bytes``.

    Reads ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` (kilobytes on
    Linux, bytes on macOS), sets the gauge on ``registry`` (default: the
    process-wide registry) and returns the value in bytes — the memory
    half of the streaming-sweep acceptance story (``docs/streaming.md``).
    Returns ``None`` on platforms without the :mod:`resource` module;
    the gauge is then left untouched.
    """
    try:
        import resource
        import sys
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024
    peak = int(maxrss) * scale
    (registry or REGISTRY).gauge(
        "repro_peak_rss_bytes", "peak resident set size of the process"
    ).set(peak)
    return peak


__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "REGISTRY",
    "SIZE_BUCKETS",
    "get_registry",
    "record_peak_rss",
]
