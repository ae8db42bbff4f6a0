"""Standard-format exporters: Chrome trace JSON, Prometheus text, run
manifests.

Spans and events become artifacts other tools already understand:

:func:`to_chrome_trace` / :class:`ChromeTraceSink`
    the Chrome trace-event JSON object format — drop the file on
    https://ui.perfetto.dev or ``chrome://tracing`` and read the solver
    pipeline as a flame chart.  Span close events (``span="E"``)
    become complete (``"ph": "X"``) duration slices; flat events
    become instants (``"ph": "i"``); worker tags become track
    (``tid``) assignments, so a ``--workers N`` run renders as N
    parallel lanes.
:func:`prometheus_exposition` / :func:`write_metrics`
    the Prometheus text exposition format (version 0.0.4) of one run:
    the counters :data:`DERIVED_METRICS` mirrors from its statistics
    tree plus the instruments of a
    :class:`~repro.observability.MetricsRegistry` — counters, gauges,
    and cumulative-bucket histograms with ``_sum``/``_count``.
:func:`run_manifest`
    a small JSON provenance record (argv, git revision, python,
    platform, seed, a SHA-256 digest of the statistics tree) pinning
    *which* code produced *which* numbers — bench history and CI
    artifacts embed it.
:func:`proof_to_dot` / :func:`proof_to_json`
    Graphviz DOT and JSON renderings of a
    :class:`~repro.provenance.ProofNode` derivation DAG — solid edges
    for positive support, dashed edges for the absent atoms a step
    relies on.

Everything here is pure serialization: no exporter mutates the
statistics tree, registry or event stream it reads.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
import time
from itertools import chain
from typing import Any, Dict, IO, Iterable, List, Mapping, Optional, Tuple, Union

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry
from .stats import SolveStats
from .trace import TraceEvent, TraceSink


# ----------------------------------------------------------------------
# Chrome trace-event JSON (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
def to_chrome_trace(events: Iterable[object]) -> Dict[str, Any]:
    """Convert a trace-event stream to the Chrome trace *object format*.

    Accepts :class:`~repro.observability.TraceEvent` objects or
    ``(name, seconds, payload)`` triples.  Span pairs collapse into one
    complete event (``ph="X"``) anchored at ``end - duration`` — the
    begin event is dropped (its attributes are a subset of the end
    event's) unless the span never closed, in which case nothing is
    lost because unclosed spans have no extent to draw.  Timestamps are
    microseconds, as the format requires.
    """
    trace_events: List[Dict[str, Any]] = []
    for event in events:
        if isinstance(event, TraceEvent):
            name, seconds, payload = event.name, event.seconds, event.payload
        else:
            name, seconds, payload = event  # type: ignore[misc]
        payload = dict(payload)
        phase = payload.pop("span", None)
        worker = payload.pop("worker", 0)
        if phase == "B":
            continue
        record: Dict[str, Any] = {
            "name": name,
            "cat": "repro",
            "pid": 0,
            "tid": worker,
            "args": payload,
        }
        if phase == "E":
            duration = float(payload.get("seconds", 0.0) or 0.0)
            record["ph"] = "X"
            record["ts"] = round((seconds - duration) * 1e6, 3)
            record["dur"] = round(duration * 1e6, 3)
        else:
            record["ph"] = "i"
            record["s"] = "t"
            record["ts"] = round(seconds * 1e6, 3)
        trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


class ChromeTraceSink(TraceSink):
    """A :class:`~repro.observability.TraceSink` writing Chrome trace
    JSON on close.

    Events buffer in memory (the format is one JSON document, not a
    stream); :meth:`close` serializes through :func:`to_chrome_trace`.
    Accepts a path (opened and owned) or an open text stream
    (borrowed, only flushed).
    """

    def __init__(self, target: object):
        if hasattr(target, "write"):
            self._stream: IO[str] = target  # type: ignore[assignment]
            self._owned = False
        else:
            self._stream = open(str(target), "w", encoding="utf-8")
            self._owned = True
        self._epoch = time.perf_counter()
        self.events: List[TraceEvent] = []

    def emit(self, name: str, **payload: Any) -> None:
        self.events.append(
            TraceEvent(name, time.perf_counter() - self._epoch, payload)
        )

    def close(self) -> None:
        json.dump(to_chrome_trace(self.events), self._stream, default=str)
        self._stream.write("\n")
        if self._owned:
            self._stream.close()
        else:
            self._stream.flush()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_text(labels: Iterable[object], extra: str = "") -> str:
    parts = [
        '%s="%s"' % (key, _escape_label_value(str(value)))
        for key, value in labels
    ]
    if extra:
        parts.append(extra)
    return "{%s}" % ",".join(parts) if parts else ""


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


#: counters (and one gauge) mirrored from a run's statistics tree:
#: metric name -> (kind, help, stats paths summed).  The tree is the
#: only store of these facts.  Series of the ASP core (paths under
#: :data:`_CORE_SECTIONS`) render for every tree, 0 when nothing was
#: counted; the others render when CEGAR, the mitigation optimizer or
#: the cube pool ran, i.e. when one of their paths is present.
DERIVED_METRICS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "repro_cegar_iterations_total": (
        "counter", "CEGAR refinement iterations run", ("cegar.iterations",)),
    "repro_conflicts_total": (
        "counter", "CDCL conflicts analyzed", ("solving.solvers.conflicts",)),
    "repro_ground_cache_hits_total": (
        "counter", "process-wide ground-cache hits", ("grounding.cache.hits",)),
    "repro_ground_cache_misses_total": (
        "counter", "process-wide ground-cache misses",
        ("grounding.cache.misses",)),
    "repro_ground_rules_total": (
        "counter", "ground rules of every grounding", ("grounding.rules",)),
    "repro_mitigation_optimality_cores_total": (
        "counter", "optimality unsat-core queries answered",
        ("mitigation.optimality_cores",)),
    "repro_mitigation_optimize_calls_total": (
        "counter", "exact ASP mitigation optimizations run",
        ("mitigation.optimize_calls",)),
    "repro_models_total": (
        "counter", "stable models enumerated", ("summary.models.enumerated",)),
    "repro_parallel_cubes_total": (
        "counter", "tasks (cubes) completed by the work-stealing pool",
        ("epa.aggregate.cubes", "epa.parallel.shards")),
    "repro_provenance_rules_recorded_total": (
        "counter", "ground rules with a recorded non-ground origin",
        ("grounding.provenance_rules",)),
    "repro_sat_lbd_avg": (
        "gauge", "average literal block distance of learnt clauses",
        ("solving.solvers.lbd_avg",)),
    "repro_sat_learnt_deleted_total": (
        "counter", "learnt clauses deleted by reduce-DB",
        ("solving.solvers.learnt_deleted",)),
    "repro_solve_calls_total": (
        "counter", "solve/optimize calls issued", ("summary.calls",)),
}

#: the statistics sections every solving run's tree reports
_CORE_SECTIONS = ("grounding", "solving", "summary")


def derived_metrics(stats: Optional[Mapping[str, Any]]) -> Dict[str, float]:
    """The :data:`DERIVED_METRICS` values a statistics tree yields
    (none without a tree)."""
    if stats is None:
        return {}
    tree = stats if isinstance(stats, SolveStats) else SolveStats(stats)
    values: Dict[str, float] = {}
    for name, (_kind, _help, paths) in DERIVED_METRICS.items():
        found = [tree.get_path(path) for path in paths]
        present = [value for value in found if value is not None]
        if present or paths[0].split(".")[0] in _CORE_SECTIONS:
            values[name] = sum(present)
    return values


def prometheus_exposition(
    stats: Optional[Mapping[str, Any]],
    registry: Optional[MetricsRegistry] = None,
) -> str:
    """Render a run in the Prometheus text exposition format.

    The counters of :data:`DERIVED_METRICS` come from ``stats`` (the
    run's statistics tree; ``None`` renders none of them), every other
    series from ``registry`` (default: the process-wide one).
    Deterministic: metric families sort by name, series by label set;
    histogram buckets expose cumulative counts with a closing
    ``le="+Inf"`` bucket equal to ``_count``, per the format spec.
    """
    registry = registry if registry is not None else get_registry()
    derived = MetricsRegistry()
    for name, value in derived_metrics(stats).items():
        kind, help_text, _paths = DERIVED_METRICS[name]
        getattr(derived, kind)(name, help_text).value = value
    lines: List[str] = []
    seen_header: set = set()
    for metric in sorted(
        chain(registry.collect(), derived.collect()),
        key=lambda metric: (metric.name, metric.labels),  # type: ignore[attr-defined]
    ):
        name = metric.name  # type: ignore[attr-defined]
        if name not in seen_header:
            seen_header.add(name)
            help_text = derived.help_for(name) or registry.help_for(name)
            if help_text:
                lines.append("# HELP %s %s" % (name, help_text))
            lines.append("# TYPE %s %s" % (name, metric.kind))  # type: ignore[attr-defined]
        labels = metric.labels  # type: ignore[attr-defined]
        if isinstance(metric, Histogram):
            cumulative = metric.cumulative_counts()
            for bound, count in zip(metric.buckets, cumulative):
                lines.append(
                    "%s_bucket%s %d"
                    % (
                        name,
                        _label_text(labels, 'le="%s"' % _format_value(bound)),
                        count,
                    )
                )
            lines.append(
                '%s_bucket%s %d'
                % (name, _label_text(labels, 'le="+Inf"'), metric.count)
            )
            lines.append(
                "%s_sum%s %s" % (name, _label_text(labels), _format_value(metric.sum))
            )
            lines.append("%s_count%s %d" % (name, _label_text(labels), metric.count))
        elif isinstance(metric, (Counter, Gauge)):
            lines.append(
                "%s%s %s" % (name, _label_text(labels), _format_value(metric.value))
            )
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics(
    stats: Optional[Mapping[str, Any]],
    spec: Union[str, IO[str]],
    registry: Optional[MetricsRegistry] = None,
) -> None:
    """Write :func:`prometheus_exposition` of ``stats`` (plus
    ``registry``) to a path, stream, or ``"-"`` (stdout)."""
    text = prometheus_exposition(stats, registry)
    if hasattr(spec, "write"):
        spec.write(text)  # type: ignore[union-attr]
        return
    if spec == "-":
        sys.stdout.write(text)
        return
    with open(str(spec), "w", encoding="utf-8") as handle:
        handle.write(text)


# ----------------------------------------------------------------------
# proof DAG exporters (Graphviz DOT / JSON)
# ----------------------------------------------------------------------
def _escape_dot(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def proof_to_dot(root: object) -> str:
    """Render a proof DAG as Graphviz DOT text.

    ``root`` is a :class:`~repro.provenance.ProofNode` (duck-typed:
    anything with ``atom``/``kind``/``children``/``negative``/``origin``
    works).  Proved atoms are boxes — facts and chosen atoms filled —
    with solid edges to their positive premises; the absent atoms a
    derivation relies on render as dashed ellipses.  Deterministic:
    nodes and edges appear in DFS-discovery order from the root.
    """
    lines = [
        "digraph proof {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="monospace"];',
    ]
    names: Dict[str, str] = {}
    absent: Dict[str, str] = {}
    edges: List[str] = []

    def name_of(atom: str) -> str:
        if atom not in names:
            names[atom] = "n%d" % len(names)
        return names[atom]

    stack = [root]
    seen: set = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        atom = str(node.atom)  # type: ignore[attr-defined]
        ident = name_of(atom)
        kind = node.kind  # type: ignore[attr-defined]
        label = atom if kind == "rule" else "%s\\n[%s]" % (_escape_dot(atom), kind)
        style = ', style=filled, fillcolor="lightgrey"' if kind != "rule" else ""
        origin = getattr(node, "origin", None)
        tooltip = (
            ', tooltip="%s"' % _escape_dot(str(origin)) if origin is not None else ""
        )
        lines.append(
            '  %s [label="%s"%s%s];' % (ident, _escape_dot(label), style, tooltip)
        )
        for child in node.children:  # type: ignore[attr-defined]
            edges.append("  %s -> %s;" % (name_of(str(child.atom)), ident))
            stack.append(child)
        for missing in node.negative:  # type: ignore[attr-defined]
            key = str(missing)
            if key not in absent:
                absent[key] = "a%d" % len(absent)
                lines.append(
                    '  %s [label="not %s", shape=ellipse, style=dashed];'
                    % (absent[key], _escape_dot(key))
                )
            edges.append("  %s -> %s [style=dashed];" % (absent[key], ident))
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def proof_to_json(root: object) -> str:
    """Serialize a proof DAG as a JSON document (sorted keys)."""
    # imported lazily: repro.provenance itself imports this package's
    # metrics, so a top-level import would be circular
    from ..provenance.justify import proof_to_dict

    return json.dumps(proof_to_dict(root), sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# run manifest
# ----------------------------------------------------------------------
def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The short git revision of ``cwd`` (or the process cwd), if any."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def stats_digest(stats: Mapping[str, Any]) -> str:
    """A stable SHA-256 over a statistics tree (or any JSON-able map)."""
    to_dict = getattr(stats, "to_dict", None)
    payload = to_dict() if callable(to_dict) else dict(stats)
    encoded = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def run_manifest(
    argv: Optional[Iterable[str]] = None,
    stats: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """A JSON-safe provenance record for one run.

    Captures the command line, the git revision, interpreter and
    platform, an optional RNG seed, and a digest of the final
    statistics tree — enough to answer "what produced this trace/bench
    row" months later.
    """
    manifest: Dict[str, Any] = {
        "argv": list(argv if argv is not None else sys.argv),
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if seed is not None:
        manifest["seed"] = seed
    if stats is not None:
        manifest["stats_digest"] = stats_digest(stats)
    if extra:
        manifest.update(extra)
    return manifest


__all__ = [
    "ChromeTraceSink",
    "git_revision",
    "prometheus_exposition",
    "proof_to_dot",
    "proof_to_json",
    "run_manifest",
    "stats_digest",
    "to_chrome_trace",
    "write_metrics",
]
