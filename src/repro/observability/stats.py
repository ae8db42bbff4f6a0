"""The :class:`SolveStats` tree — a clingo-``statistics``-compatible,
nested, dict-like accumulator.

clingo exposes solver introspection as a nested mapping
(``Control.statistics``) with well-known top-level keys; this module
reproduces that shape for the embedded engine so downstream tooling can
treat both interchangeably:

``grounding``
    rule/atom/instantiation counts and semi-naive iteration rounds from
    :class:`repro.asp.grounder.Grounder`;
``solving``
    the CDCL search counters (``solvers`` holds choices, conflicts,
    propagations, restarts, learnt nogoods) plus stable-model-specific
    counters (unfounded-set checks, loop nogoods);
``summary``
    per-stage wall-clock times, call/model counts and the final
    optimization bounds.

Leaves are ``int``/``float`` (or short lists of numbers for costs);
interior nodes are :class:`SolveStats`.  Nodes are addressed with dotted
paths: ``stats.incr("solving.solvers.conflicts")``.  Trees merge by
summing numeric leaves (:meth:`SolveStats.merge`), which is how the EPA
engine, the CEGAR loop and the pipeline aggregate per-solve statistics
into one roll-up.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Mapping, MutableMapping, Optional, Tuple

from .timing import Timer

#: leaf value types permitted in the tree
Leaf = (int, float, str, list, tuple)


class StatsError(Exception):
    """Raised on malformed paths or leaf/node collisions."""


class SolveStats(MutableMapping):
    """A nested statistics tree with dotted-path accessors.

    Behaves as a mapping of ``str`` to either a numeric/string leaf or a
    child :class:`SolveStats`.  All mutation helpers create intermediate
    nodes on demand, so instrumentation code never has to pre-build the
    shape::

        stats = SolveStats()
        stats.incr("solving.solvers.conflicts")
        stats.add_time("summary.times.solve", 0.25)
        stats["solving"]["solvers"]["conflicts"]   # -> 1
    """

    __slots__ = ("_data",)

    def __init__(self, initial: Optional[Mapping[str, Any]] = None):
        self._data: Dict[str, Any] = {}
        if initial:
            for key, value in initial.items():
                self[key] = value

    # ------------------------------------------------------------------
    # mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __setitem__(self, key: str, value: Any) -> None:
        if isinstance(value, Mapping) and not isinstance(value, SolveStats):
            value = SolveStats(value)
        self._data[key] = value

    def __delitem__(self, key: str) -> None:
        del self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __repr__(self) -> str:
        return "SolveStats(%r)" % (self.to_dict(),)

    # ------------------------------------------------------------------
    # dotted-path accessors
    # ------------------------------------------------------------------
    def child(self, path: str) -> "SolveStats":
        """Return (creating as needed) the interior node at ``path``."""
        node = self
        for part in path.split("."):
            nxt = node._data.get(part)
            if nxt is None:
                nxt = SolveStats()
                node._data[part] = nxt
            elif not isinstance(nxt, SolveStats):
                raise StatsError("path %r crosses the leaf %r" % (path, part))
            node = nxt
        return node

    def _split(self, path: str) -> Tuple["SolveStats", str]:
        parent, _, leaf = path.rpartition(".")
        node = self.child(parent) if parent else self
        return node, leaf

    def get_path(self, path: str, default: Any = None) -> Any:
        """Read the value at a dotted ``path`` (``default`` when absent)."""
        node: Any = self
        for part in path.split("."):
            if not isinstance(node, SolveStats) or part not in node._data:
                return default
            node = node._data[part]
        return node

    def set(self, path: str, value: Any) -> None:
        """Set the leaf at ``path``, creating intermediate nodes."""
        node, leaf = self._split(path)
        node[leaf] = value

    def incr(self, path: str, amount: float = 1) -> None:
        """Add ``amount`` to the numeric leaf at ``path`` (0 when new)."""
        node, leaf = self._split(path)
        current = node._data.get(leaf, 0)
        if isinstance(current, SolveStats):
            raise StatsError("cannot increment interior node %r" % path)
        node._data[leaf] = current + amount

    def add_time(self, path: str, seconds: float) -> None:
        """Accumulate ``seconds`` into the timing leaf at ``path``."""
        self.incr(path, seconds)

    def timer(self, path: str) -> Timer:
        """A context manager accumulating its elapsed time into ``path``::

        with stats.timer("summary.times.ground"):
            ...
        """
        return Timer(on_stop=lambda seconds: self.add_time(path, seconds))

    # ------------------------------------------------------------------
    # merging and serialization
    # ------------------------------------------------------------------
    def merge(self, other: Mapping[str, Any]) -> "SolveStats":
        """Merge ``other`` into this tree, in place.

        Numeric leaves sum; child mappings merge recursively; any other
        leaf (string, cost list) is overwritten by the newer value.
        Returns ``self`` for chaining.
        """
        for key, value in other.items():
            mine = self._data.get(key)
            if isinstance(value, Mapping):
                if not isinstance(mine, SolveStats):
                    mine = SolveStats()
                    self._data[key] = mine
                mine.merge(value)
            elif isinstance(value, (int, float)) and not isinstance(value, bool) \
                    and isinstance(mine, (int, float)) and not isinstance(mine, bool):
                self._data[key] = mine + value
            else:
                self[key] = value
        return self

    def to_dict(self) -> Dict[str, Any]:
        """A plain nested ``dict`` copy (JSON-serializable)."""
        result: Dict[str, Any] = {}
        for key, value in self._data.items():
            if isinstance(value, SolveStats):
                result[key] = value.to_dict()
            elif isinstance(value, tuple):
                result[key] = list(value)
            else:
                result[key] = value
        return result

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveStats":
        """Rebuild a tree from :meth:`to_dict` output."""
        return cls(data)

    def to_json(self, indent: Optional[int] = None) -> str:
        """JSON rendering of the tree."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def finalize_solver_stats(solvers: MutableMapping) -> float:
    """Derive presentation-level solver stats in place; returns lbd_avg.

    The SAT layer ships ``lbd_sum`` as a summable integer so multishot
    deltas and cross-worker merges stay exact; this helper computes the
    derived ``lbd_avg`` (0.0 when nothing was learnt) at presentation
    time.  Safe to call repeatedly — it overwrites, never accumulates.
    """
    learnt = solvers.get("learnt") or 0
    lbd_sum = solvers.get("lbd_sum") or 0
    avg = round(lbd_sum / learnt, 4) if learnt else 0.0
    solvers["lbd_avg"] = avg
    return avg


def format_statistics(stats: Mapping[str, Any]) -> str:
    """Render a stats tree as a clingo-style terminal summary block.

    Mirrors the shape of clingo's ``--stats`` epilogue: model/call
    counts and per-stage times first, then grounding sizes, then the
    CDCL search counters.  Unknown or missing keys are simply omitted,
    so partially populated trees render cleanly.
    """
    if isinstance(stats, SolveStats):
        get = stats.get_path
    else:
        tree = SolveStats(stats)
        get = tree.get_path

    def number(path: str) -> Optional[float]:
        value = get(path)
        return value if isinstance(value, (int, float)) else None

    lines: List[str] = []

    def emit(label: str, text: str) -> None:
        lines.append("%-12s : %s" % (label, text))

    models = number("summary.models.enumerated")
    if models is not None:
        optimal = number("summary.models.optimal")
        suffix = " (Optimal: %d)" % optimal if optimal else ""
        emit("Models", "%d%s" % (models, suffix))
    calls = number("summary.calls")
    if calls is not None:
        emit("Calls", "%d" % calls)
    costs = get("summary.costs")
    if costs:
        emit("Optimization", " ".join(str(c) for c in costs))
    ground_t = number("summary.times.ground") or 0.0
    solve_t = number("summary.times.solve") or 0.0
    total_t = number("summary.times.total")
    if total_t is None:
        total_t = ground_t + solve_t
    if ground_t or solve_t or total_t:
        emit(
            "Time",
            "%.3fs (Ground: %.3fs Solve: %.3fs)" % (total_t, ground_t, solve_t),
        )
    rules = number("grounding.rules")
    if rules is not None:
        emit("Rules", "%d (non-ground: %d)" % (rules, number("grounding.rules_nonground") or 0))
        emit("Atoms", "%d" % (number("grounding.atoms") or 0))
        emit(
            "Grounding",
            "%d instantiations over %d rounds"
            % (number("grounding.instantiations") or 0, number("grounding.rounds") or 0),
        )
    index_hits = number("grounding.index.hits")
    if index_hits is not None:
        emit(
            "Index",
            "%d hits, %d scans, %d delta hits"
            % (
                index_hits,
                number("grounding.index.scans") or 0,
                number("grounding.index.delta_hits") or 0,
            ),
        )
    cache_hits = number("grounding.cache.hits")
    cache_misses = number("grounding.cache.misses")
    if cache_hits is not None or cache_misses is not None:
        emit(
            "Ground-cache",
            "%d hits, %d misses" % (cache_hits or 0, cache_misses or 0),
        )
    variables = number("solving.variables")
    if variables is not None:
        emit("Variables", "%d" % variables)
    choices = number("solving.solvers.choices")
    if choices is not None:
        emit("Choices", "%d" % choices)
        restarts = number("solving.solvers.restarts") or 0
        emit("Conflicts", "%d (Restarts: %d)" % (number("solving.solvers.conflicts") or 0, restarts))
        emit("Propagations", "%d" % (number("solving.solvers.propagations") or 0))
        learnt = number("solving.solvers.learnt") or 0
        emit("Learnt", "%d nogoods" % learnt)
        lbd_sum = number("solving.solvers.lbd_sum")
        if lbd_sum is not None and learnt:
            emit(
                "LBD",
                "%.2f avg (deleted: %d)"
                % (
                    lbd_sum / learnt,
                    number("solving.solvers.learnt_deleted") or 0,
                ),
            )
    loop_nogoods = number("solving.loop_nogoods")
    if loop_nogoods is not None:
        emit(
            "Stability",
            "%d unfounded checks, %d loop nogoods"
            % (number("solving.unfounded_checks") or 0, loop_nogoods),
        )
    return "\n".join(lines)


__all__ = [
    "SolveStats",
    "StatsError",
    "finalize_solver_stats",
    "format_statistics",
]
