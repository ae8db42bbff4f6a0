"""Per-layer self times, measured from outside the program.

The traced run wraps public entry points of each layer (parser,
grounder, solver, aggregate fold/codec, RGP1 publish, the worker pool,
and the pipeline phases' helpers) and the EPA engine's per-model work
in spans kept in memory.
A layer's self time is the total of its spans minus the time their
child spans cover, so self times never double count and
``unattributed = op wall - sum(self times)``.

Nothing here is imported by the timed run: :func:`install` patches the
program's classes and module attributes and returns a function that
restores them.  Counters come from the public statistics trees the
wrapped calls expose (``Control.statistics``,
``StableModelSolver.statistics``); the tracer records only in the
process that created it, so forked pool workers pay a pass-through.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: span name -> per-layer self-time metric
SPAN_METRICS = {
    "asp.parser.parse": "asp.parser.parse_s",
    "asp.grounder.ground": "asp.grounder.ground_s",
    "asp.solver.encode": "asp.solver.encode_s",
    "asp.solver.search": "asp.solver.search_s",
    "asp.solver.optimize": "asp.solver.optimize_s",
    "epa.engine": "epa.engine.extract_s",
    "epa.aggregate.fold": "epa.aggregate.fold_s",
    "epa.aggregate.merge": "epa.aggregate.merge_s",
    "asp.serialize.publish": "asp.serialize.publish_s",
    "parallel.pool": "parallel.pool_s",
    "security.mutations": "security.mutations_s",
    "risk.register": "risk.register_s",
    "mitigation.optimizer.optimize": "mitigation.optimizer.optimize_s",
    "hierarchy.cegar": "hierarchy.cegar_s",
    "provenance.proof": "provenance.proof_s",
}

#: counters recorded at the same boundaries (name -> unit)
COUNTERS = {
    "asp.parser.statements": "count",
    "asp.grounder.rules": "count",
    "asp.grounder.cache_hits": "count",
    "asp.solver.bound_improvements": "count",
    "asp.sat.propagations": "count",
    "asp.sat.conflicts": "count",
    "asp.sat.choices": "count",
    "asp.control.solves": "count",
    "asp.control.reground_avoided": "count",
    "asp.control.reused_learnts": "count",
    "epa.engine.scenarios": "count",
    "epa.aggregate.rag1_bytes": "bytes",
    "asp.serialize.rgp1_bytes": "bytes",
    "asp.cubes.cubes": "count",
    "parallel.retries": "count",
}

#: counter -> SolveStats path in the program's own top-level tree
#: (``EpaEngine.statistics`` / ``AssessmentResult.statistics``); a path
#: absent there is reported as a gap, never estimated
STATS_PATHS = {
    "asp.grounder.cache_hits": "grounding.cache.hits",
    "asp.solver.bound_improvements": "solving.bound_improvements",
    "asp.sat.propagations": "solving.solvers.propagations",
    "asp.sat.conflicts": "solving.solvers.conflicts",
    "asp.sat.choices": "solving.solvers.choices",
    "asp.control.solves": "solving.multishot.solves",
    "asp.control.reground_avoided": "solving.multishot.reground_avoided",
    "asp.control.reused_learnts": "solving.multishot.reused_learnts",
    "asp.cubes.cubes": "epa.aggregate.cubes",
}

SAT_KEYS = ("propagations", "conflicts", "choices")
MULTISHOT_KEYS = ("solves", "reground_avoided", "reused_learnts")

#: individual spans kept for the trace file; totals are always exact
MAX_STORED_SPANS = 200_000


class Tracer:
    """In-memory span recorder with exact self-time totals."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.active = False
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.dropped = 0
        # open spans: [name, start, child seconds, span id]
        self._stack: List[list] = []
        self._next_id = 0
        self._solver_depth = 0

    def recording(self) -> bool:
        return self.active and os.getpid() == self.pid

    def begin(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def end(self) -> None:
        now = time.perf_counter()
        name, start, children, span_id = self._stack.pop()
        duration = now - start
        self.self_s[name] += duration - children
        parent = 0
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((span_id, parent, name, start, now))
        else:
            self.dropped += 1

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def call(self, name: str, function: Callable, *args, **kwargs):
        if not self.recording():
            return function(*args, **kwargs)
        self.begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.end()


def _stats_get(stats, path: str) -> float:
    value = stats.get_path(path, 0)
    return value if isinstance(value, (int, float)) else 0


def _sat_snapshot(solver) -> Dict[str, int]:
    counters = solver.statistics["solvers"]
    return {key: counters.get(key, 0) for key in SAT_KEYS}


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every measured entry point; returns the restore function."""
    from repro.asp import control as control_module
    from repro.asp.control import Control
    from repro.asp.grounder import Grounder
    from repro.asp.solver import StableModelSolver
    from repro.core import pipeline as pipeline_module
    from repro.epa import engine as engine_module
    from repro.epa import explain as explain_module
    from repro.epa.aggregate import ScenarioAggregate
    from repro.epa.engine import EpaEngine
    from repro.epa.explain import ScenarioProof
    from repro.parallel import WorkStealingPool
    from repro.risk.assessment import RiskRegister

    saved: List[Tuple[object, str, object]] = []

    def patch(owner: object, name: str, make: Callable[[Callable], Callable]):
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        saved.append((owner, name, original))
        if isinstance(original, classmethod):
            inner = original.__func__
            setattr(owner, name, classmethod(make(inner)))
        else:
            setattr(owner, name, make(original))

    def spanned(name: str, after: Optional[Callable] = None):
        """Wrap a call in a span; ``after(result, args)`` records counts."""

        def make(function: Callable) -> Callable:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                if not tracer.recording():
                    return function(*args, **kwargs)
                tracer.begin(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.end()
                if after is not None:
                    after(result, args)
                return result

            return wrapper

        return make

    def in_span(name: str, callback: Optional[Callable]) -> Optional[Callable]:
        if callback is None:
            return None

        def wrapper(*args, **kwargs):
            return tracer.call(name, callback, *args, **kwargs)

        return wrapper

    # -- parser ---------------------------------------------------------
    def parsed(program, _args) -> None:
        tracer.count(
            "asp.parser.statements",
            len(program.rules)
            + len(program.weak_constraints)
            + len(program.minimize)
            + len(program.shows),
        )

    patch(control_module, "parse_program", spanned("asp.parser.parse", parsed))

    # -- grounder -------------------------------------------------------
    def make_control_ground(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(self):
            if not tracer.recording():
                return function(self)
            hits = _stats_get(self.statistics, "grounding.cache.hits")
            tracer.begin("asp.grounder.ground")
            try:
                return function(self)
            finally:
                tracer.end()
                tracer.count(
                    "asp.grounder.cache_hits",
                    _stats_get(self.statistics, "grounding.cache.hits") - hits,
                )

        return wrapper

    patch(Control, "ground", make_control_ground)

    def grounded(program, _args) -> None:
        tracer.count("asp.grounder.rules", len(program.rules))

    patch(Grounder, "ground", spanned("asp.grounder.ground", grounded))

    # -- solver: encode, search, optimize ---------------------------------
    patch(StableModelSolver, "__init__", spanned("asp.solver.encode"))

    @contextmanager
    def solver_counting(solver):
        """SAT and bound-improvement deltas of the outermost solver call
        (``optimize`` may enumerate through ``models`` internally)."""
        outer = tracer._solver_depth == 0
        before = _sat_snapshot(solver)
        bounds = solver.statistics["bound_improvements"]
        tracer._solver_depth += 1
        try:
            yield
        finally:
            tracer._solver_depth -= 1
            if outer:
                after = _sat_snapshot(solver)
                for key in SAT_KEYS:
                    tracer.count("asp.sat." + key, after[key] - before[key])
                tracer.count(
                    "asp.solver.bound_improvements",
                    solver.statistics["bound_improvements"] - bounds,
                )

    @contextmanager
    def multishot_counting(control):
        """``solving.multishot.*`` deltas of one control call."""
        def read():
            return {
                key: _stats_get(control.statistics, "solving.multishot." + key)
                for key in MULTISHOT_KEYS
            }

        before = read()
        try:
            yield
        finally:
            after = read()
            for key in MULTISHOT_KEYS:
                tracer.count("asp.control." + key, after[key] - before[key])

    def searched(iterator, counting):
        """Time only the work inside ``next()``: the consumer's handling
        of each item belongs to the consumer's span."""
        with counting:
            try:
                while True:
                    tracer.begin("asp.solver.search")
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.end()
                    yield item
            finally:
                tracer.call("asp.solver.search", iterator.close)

    def make_project_models(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(self, project, on_model, *args, **kwargs):
            if not tracer.recording():
                return function(self, project, on_model, *args, **kwargs)
            with solver_counting(self):
                return tracer.call(
                    "asp.solver.search", function, self, project,
                    in_span("epa.engine", on_model), *args, **kwargs
                )

        return wrapper

    def make_models(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(self, *args, **kwargs):
            if not tracer.recording():
                return function(self, *args, **kwargs)
            return searched(
                function(self, *args, **kwargs), solver_counting(self)
            )

        return wrapper

    def make_solver_optimize(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(self, *args, **kwargs):
            if not tracer.recording():
                return function(self, *args, **kwargs)
            with solver_counting(self):
                return function(self, *args, **kwargs)

        return wrapper

    def make_solve_iter(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(self, *args, **kwargs):
            if not tracer.recording():
                return function(self, *args, **kwargs)
            return searched(
                function(self, *args, **kwargs), multishot_counting(self)
            )

        return wrapper

    def make_control_optimize(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(self, *args, **kwargs):
            if not tracer.recording():
                return function(self, *args, **kwargs)
            with multishot_counting(self):
                return tracer.call("asp.solver.optimize", function, self,
                                   *args, **kwargs)

        return wrapper

    patch(StableModelSolver, "project_models", make_project_models)
    patch(StableModelSolver, "models", make_models)
    patch(StableModelSolver, "optimize", make_solver_optimize)
    patch(Control, "solve_iter", make_solve_iter)
    patch(Control, "optimize", make_control_optimize)

    # -- EPA engine and aggregate -----------------------------------------
    # Only per-model work opens an ``epa.engine`` span: the model, partial
    # and result callbacks the engine hands to the solver and the pool
    # (wrapped above and below), and ``EpaEngine._extract`` /
    # ``_model_extract``, which the ``analyze()`` paths and the CDCL
    # fallback call once per model instead of a callback.  The rest of
    # the engine's entry points (building controls, probes, reports,
    # statistics) stays outside every span, in ``unattributed_s``.
    def counted(count: Callable[[object], int]):
        def make(function: Callable) -> Callable:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                result = function(*args, **kwargs)
                if tracer.recording():
                    tracer.count("epa.engine.scenarios", count(result))
                return result

            return wrapper

        return make

    patch(EpaEngine, "analyze", counted(len))
    patch(EpaEngine, "analyze_scenario", counted(lambda _outcome: 1))
    patch(EpaEngine, "aggregate", counted(lambda result: result.scenarios))
    patch(EpaEngine, "_extract", spanned("epa.engine"))
    patch(engine_module, "_model_extract", spanned("epa.engine"))
    patch(ScenarioAggregate, "add", spanned("epa.aggregate.fold"))
    patch(ScenarioAggregate, "merge", spanned("epa.aggregate.merge"))
    patch(
        ScenarioAggregate,
        "dumps",
        spanned(
            "epa.aggregate.merge",
            lambda blob, _a: tracer.count("epa.aggregate.rag1_bytes", len(blob)),
        ),
    )
    patch(
        ScenarioAggregate,
        "loads",
        spanned(
            "epa.aggregate.merge",
            lambda _result, args: tracer.count(
                "epa.aggregate.rag1_bytes", len(args[-1])
            ),
        ),
    )
    patch(
        engine_module,
        "publish",
        spanned(
            "asp.serialize.publish",
            lambda result, _a: tracer.count(
                "asp.serialize.rgp1_bytes", len(result[1])
            ),
        ),
    )

    # -- worker pool: wall minus the parent-side callbacks ----------------
    def make_pool_map(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(self, task, items, on_partial=None, on_retry=None,
                    on_result=None, decorate=None):
            if not tracer.recording():
                return function(self, task, items, on_partial, on_retry,
                                on_result, decorate)
            items = list(items)
            tracer.count("asp.cubes.cubes", len(items))

            def retried(position: int) -> None:
                tracer.count("parallel.retries", 1)
                if on_retry is not None:
                    tracer.call("epa.engine", on_retry, position)

            tracer.begin("parallel.pool")
            try:
                return function(
                    self,
                    task,
                    items,
                    in_span("epa.engine", on_partial),
                    retried,
                    in_span("epa.engine", on_result),
                    in_span("epa.engine", decorate),
                )
            finally:
                tracer.end()

        return wrapper

    patch(WorkStealingPool, "map", make_pool_map)

    # -- pipeline phases ------------------------------------------------
    patch(pipeline_module, "candidate_mutations", spanned("security.mutations"))
    patch(
        pipeline_module,
        "optimize_asp",
        spanned("mitigation.optimizer.optimize"),
    )
    patch(pipeline_module, "cegar_loop", spanned("hierarchy.cegar"))
    patch(RiskRegister, "add", spanned("risk.register"))

    # -- provenance -------------------------------------------------------
    patch(explain_module, "scenario_proof", spanned("provenance.proof"))
    patch(ScenarioProof, "why", spanned("provenance.proof"))

    def restore() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return restore


def stats_gaps(tree) -> List[str]:
    """Counters the program's own top-level statistics tree lacks."""
    gaps = []
    for metric, path in sorted(STATS_PATHS.items()):
        if tree is None or tree.get_path(path, None) is None:
            gaps.append("%s (%s)" % (metric, path))
    return gaps
