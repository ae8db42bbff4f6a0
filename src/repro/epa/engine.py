"""The qualitative EPA engine (topology-level analysis).

Joins the system-model facts, the EPA rule base, the mitigation
configuration and the safety requirements into one ASP program whose
stable models are exactly the candidate attack/fault scenarios; every
scenario is checked exhaustively ("all the candidate attack scenarios
over the joint model undergo exhaustive analysis by automated formal
methods", Fig. 1 step 4).

Observability: the engine aggregates the statistics of every solve it
issues into one :class:`~repro.observability.SolveStats`, exposed as
:attr:`EpaEngine.statistics` (per-call counts live under its ``epa``
section).  Pass ``trace=`` a sink to stream grounder/solver events plus
``epa.analyze`` summaries.

One enumeration kernel: the engine keeps one persistent multi-shot
:class:`~repro.asp.Control` per ``max_faults`` bound whose mitigation
deployments (``active_mitigation``) and fault restrictions
(``allowed_fault`` behind an ``epa_restrict`` guard) are external
atoms, so a what-if query flips assumptions instead of regrounding.
:meth:`EpaEngine._enumerate` passes the externals and an optional cube
(a partial fault assignment) as assumptions to the propagation-driven
projected search over the fault-activation atoms
(:meth:`~repro.asp.solver.StableModelSolver.project_models`) and reads
each outcome off the assignment through one probe table.  If a leaf
stays open to propagation (:class:`~repro.asp.solver.ProjectionIncomplete`)
the kernel discards its partial output and enumerates the same space
by CDCL search instead — slower, never different.  The entry points
are sinks over the kernel: :meth:`EpaEngine.analyze` collects a list,
:meth:`EpaEngine.aggregate` folds a
:class:`~repro.epa.aggregate.ScenarioAggregate`,
:meth:`EpaEngine.analyze_scenario` pins every potential fault (one
leaf), and :meth:`EpaEngine.analyze_stream` lazily iterates the CDCL
enumerator.

Parallel solving: ``workers=N`` shards :meth:`EpaEngine.analyze` and
:meth:`EpaEngine.aggregate` over occurrence-ordered cubes (see
:mod:`repro.asp.cubes`) in a work-stealing process pool
(:class:`~repro.parallel.WorkStealingPool`).  The parent publishes the
multi-shot ground program (RGP1) and a solver template, which forked
workers inherit copy-on-write; each worker runs the kernel on its cube
under the parent's external assignment and ships partial results back,
then returns one ``(stats, events)`` envelope: its solver statistics
delta, merged into :attr:`EpaEngine.statistics` by
:meth:`~repro.observability.SolveStats.merge` alone, and its trace
events, replayed tagged ``worker=<i>``.  Cubes partition the scenario
space, so the merged result — and the model count — equals a
sequential run (see ``docs/parallelism.md``).
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import networkx as nx

from ..asp import Control, Model, atom
from ..asp.control import _copy_stats, _stats_delta
from ..asp.cubes import linear_cubes, order_by_occurrence, resolve_cube_factor
from ..asp.sat import TRUE
from ..asp.serialize import publish, shared_program
from ..asp.solver import ProjectionIncomplete, StableModelSolver
from ..asp.syntax import Atom, Program
from ..asp.terms import Number
from ..observability import (
    NULL_SINK,
    SolveStats,
    Tracer,
    finalize_solver_stats,
)
from ..observability.health import default_on_stall
from ..observability.metrics import record_peak_rss
from ..observability.progress import ProgressTracker
from ..modeling.model import SystemModel
from ..modeling.to_asp import to_asp_program
from ..parallel import ParallelError, WorkStealingPool, emit_partial
from ..provenance import minimize_core
from ..security.mapping import CandidateMutation
from .aggregate import (
    DEFAULT_MAX_MINIMAL_SETS,
    ScenarioAggregate,
    read_checkpoint,
    write_checkpoint,
)
from .faults import FaultRef
from .results import EpaReport, PropagationStep, ScenarioOutcome
from .rules import epa_rule_base, scenario_choice


class EpaError(Exception):
    """Raised for malformed requirements or mitigation declarations."""


@dataclass(frozen=True)
class StaticRequirement:
    """A safety requirement for the topology-level analysis.

    ``condition`` is an ASP body over the EPA vocabulary that holds when
    the requirement is *violated* — e.g. ``"err(water_tank, value)"`` for
    "the tank must not receive erroneous actuation".  ``focus`` names the
    component the requirement protects (used for propagation-path
    extraction); ``magnitude`` is the O-RA Loss Magnitude label of a
    violation.
    """

    name: str
    condition: str
    focus: str = ""
    magnitude: str = "H"
    description: str = ""


class EpaEngine:
    """Exhaustive topology-level error propagation analysis."""

    def __init__(
        self,
        model: SystemModel,
        requirements: Sequence[StaticRequirement],
        fault_mitigations: Mapping[str, Sequence[str]] = (),
        component_mitigations: Mapping[Tuple[str, str], Sequence[str]] = (),
        extra_mutations: Sequence[CandidateMutation] = (),
        trace: Optional[object] = None,
        workers: Optional[int] = None,
        cube_factor: Optional[int] = None,
        progress: Optional[ProgressTracker] = None,
    ):
        """``fault_mitigations`` maps fault-mode name -> mitigation ids
        (the paper's ``mitigation(F, M)``); ``component_mitigations``
        maps (component, fault) -> mitigation ids; ``trace`` is an
        optional :class:`~repro.observability.TraceSink` threaded into
        every solve the engine issues.  ``workers`` sets the default
        process-pool width for :meth:`analyze` and :meth:`aggregate`
        (``None``/``1`` = sequential); with more than one worker, full
        enumerations are sharded over cubes.  ``cube_factor`` overrides
        the cube oversubscription factor (see
        :func:`repro.asp.cubes.resolve_cube_factor`).  ``progress``
        attaches a :class:`~repro.observability.ProgressTracker` fed per
        scenario sequentially and per partial and cube on sharded
        sweeps — results are identical with or without it."""
        names = [r.name for r in requirements]
        if len(set(names)) != len(names):
            raise EpaError("duplicate requirement names")
        self.model = model
        self.requirements = tuple(requirements)
        self.fault_mitigations = {
            fault: tuple(ms) for fault, ms in dict(fault_mitigations).items()
        }
        self.component_mitigations = {
            key: tuple(ms)
            for key, ms in dict(component_mitigations).items()
        }
        self.extra_mutations = tuple(extra_mutations)
        self._requirement_names = {
            _requirement_symbol(r.name): r.name for r in self.requirements
        }
        self._graph = model.propagation_graph()
        self._trace = trace if trace is not None else NULL_SINK
        self._tracer = Tracer(self._trace)
        self._stats = SolveStats()
        self._workers = workers
        self._cube_factor = cube_factor
        self._progress = progress
        self._base_program: Optional[Program] = None
        self._controls: Dict[int, Control] = {}
        #: probe tables of each persistent control's solver
        self._probes: Dict[int, Dict[str, object]] = {}
        # separate multi-shot controls for unsat-core queries: they
        # carry extra blocking machinery the analysis controls must not
        # see (differential tests pin analysis output byte-identical)
        self._core_controls: Dict[int, Control] = {}

    @property
    def statistics(self) -> SolveStats:
        """Aggregated solver statistics across every solve this engine
        issued (``grounding``/``solving``/``summary`` sections merged
        per call; scenario counts under ``epa``).  Returns a merged
        snapshot: persistent multi-shot controls contribute their
        cumulative trees alongside the per-call aggregate."""
        merged = SolveStats()
        merged.merge(self._stats)
        for control in self._controls.values():
            merged.merge(control.statistics)
        for control in self._core_controls.values():
            merged.merge(control.statistics)
        # lbd_avg is a derived quotient, not a summable counter: the
        # merges above summed lbd_sum/learnt exactly, so recompute the
        # average over the merged totals
        solvers = merged.get_path("solving.solvers")
        if isinstance(solvers, SolveStats):
            finalize_solver_stats(solvers)
        return merged

    # ------------------------------------------------------------------
    # program assembly
    # ------------------------------------------------------------------
    def _assemble_base_program(self) -> Program:
        """The mitigation-independent program slice, built once per
        engine (model facts, rule base, mutations, mitigation
        declarations, requirements) so every control — and the
        process-wide ground-program LRU — reuses one rendering."""
        if self._base_program is not None:
            return self._base_program
        builder = Control()
        builder._program.extend(to_asp_program(self.model))
        builder.add(epa_rule_base())
        for mutation in self.extra_mutations:
            builder.add_fact("fault_mode", mutation.component, mutation.fault)
            builder.add_fact(
                "fault_behaviour",
                mutation.component,
                mutation.fault,
                mutation.behaviour,
            )
            builder.add_fact(
                "fault_severity",
                mutation.component,
                mutation.fault,
                mutation.severity.lower(),
            )
        for fault, mitigations in sorted(self.fault_mitigations.items()):
            for mitigation in mitigations:
                builder.add_fact("mitigation", fault, _mitigation_symbol(mitigation))
        for (component, fault), mitigations in sorted(
            self.component_mitigations.items()
        ):
            for mitigation in mitigations:
                builder.add_fact(
                    "mitigation", component, fault, _mitigation_symbol(mitigation)
                )
        for requirement in self.requirements:
            builder.add_fact("requirement", _requirement_symbol(requirement.name))
            builder.add(
                "violated(%s) :- %s."
                % (_requirement_symbol(requirement.name), requirement.condition)
            )
        self._base_program = builder._program
        return self._base_program

    def _base_control(
        self,
        active_mitigations: Mapping[str, Sequence[str]],
        provenance: bool = False,
    ) -> Control:
        control = Control(trace=self._trace, provenance=provenance)
        control._program.extend(self._assemble_base_program())
        for component, mitigations in sorted(dict(active_mitigations).items()):
            for mitigation in mitigations:
                control.add_fact(
                    "active_mitigation", component, _mitigation_symbol(mitigation)
                )
        return control

    def _incremental_control(self, max_faults: int) -> Control:
        """The persistent multi-shot control for one choice shape.

        Mitigation deployments and fault restrictions are declared as
        externals, so later calls only flip assumptions: one grounding,
        one SAT encoding, learnt clauses shared across the sweep.
        """
        control = self._controls.get(max_faults)
        if control is None:
            control = Control(trace=self._trace, multishot=True)
            control._program.extend(self._assemble_base_program())
            control.add(scenario_choice(max_faults))
            # restriction machinery: inert while epa_restrict is false
            control.add(
                ":- active_fault(C, F), not allowed_fault(C, F), epa_restrict."
            )
            control.add_external("epa_restrict")
            for ref in self._fault_pairs():
                control.add_external("allowed_fault", ref.component, ref.fault)
            for component, mitigation in self._relevant_mitigation_pairs():
                control.add_external("active_mitigation", component, mitigation)
            self._controls[max_faults] = control
        return control

    def _fault_pairs(self) -> List[FaultRef]:
        """Every declared (component, fault-mode) pair, model order."""
        pairs: List[FaultRef] = []
        seen: Set[FaultRef] = set()
        for element in self.model.elements:
            for fault in element.properties.get("fault_modes", []) or []:
                ref = FaultRef(element.identifier, fault["name"])
                if ref not in seen:
                    seen.add(ref)
                    pairs.append(ref)
        for mutation in self.extra_mutations:
            ref = FaultRef(mutation.component, mutation.fault)
            if ref not in seen:
                seen.add(ref)
                pairs.append(ref)
        return pairs

    def _relevant_mitigation_pairs(self) -> List[Tuple[str, str]]:
        """(component, mitigation-symbol) pairs that can suppress a
        fault — the external universe; deployments outside it have no
        semantic effect (``covers`` requires a declaration)."""
        return list(self._mitigation_names())

    def _potential_faults(
        self, active_mitigations: Mapping[str, Sequence[str]]
    ) -> List[FaultRef]:
        """Python mirror of the ASP suppression logic: the fault pairs
        not suppressed by the given deployment (= the scenario-choice
        space the solver sees)."""
        active = _deployed(active_mitigations)
        return [
            ref
            for ref in self._fault_pairs()
            if not any(
                (ref.component, _mitigation_symbol(m)) in active
                for m in self.fault_mitigations.get(ref.fault, ())
                + self.component_mitigations.get((ref.component, ref.fault), ())
            )
        ]

    def _assign_externals(
        self,
        control: Control,
        deployment: Mapping[str, Sequence[str]],
        restrict: Optional[Sequence[FaultRef]],
    ) -> None:
        """Pin every external for one call (a free external would leave
        the projected search's leaves open to propagation)."""
        active = _deployed(deployment)
        for pair in self._relevant_mitigation_pairs():
            control.assign_external(
                "active_mitigation", *pair, value=pair in active
            )
        control.assign_external("epa_restrict", value=restrict is not None)
        allowed = {(f.component, f.fault) for f in restrict or ()}
        for ref in self._fault_pairs():
            control.assign_external(
                "allowed_fault",
                ref.component,
                ref.fault,
                value=(ref.component, ref.fault) in allowed,
            )

    # ------------------------------------------------------------------
    # the enumeration kernel
    # ------------------------------------------------------------------
    def _enumerate(
        self,
        max_faults: int,
        deployment: Mapping[str, Sequence[str]],
        restrict: Optional[Sequence[FaultRef]],
        cube: Sequence[Tuple[Atom, bool]],
        sink,
    ) -> int:
        """Feed every scenario of one query to ``sink``.

        Pins the persistent control's externals to ``deployment`` and
        ``restrict``, assumes ``cube`` on top, and runs :func:`_project`
        on the control's solver; the CDCL fallback reuses that solver,
        retracting its enumeration clauses afterwards.  ``sink`` takes
        ``add(outcome)`` and ``clear()``; an attached progress tracker
        follows it.  Returns the scenario count.
        """
        if self._progress is not None:
            sink = _Tracked(sink, self._progress)
        control = self._incremental_control(max_faults)
        self._assign_externals(control, deployment, restrict)
        project = _fault_atoms(self._potential_faults(deployment))
        with control.solver_call(cube) as (solver, assumptions):
            probes = self._probes.get(max_faults)
            if probes is None:
                probes = _build_probes(
                    solver,
                    control.ground().possible_atoms,
                    self._requirement_names,
                )
                self._probes[max_faults] = probes
            count = _project(
                solver, project, assumptions, probes, sink, lambda: solver
            )
        self._note_analysis(scenarios=count)
        return count

    def _query(
        self,
        active_mitigations: Mapping[str, Sequence[str]],
        restrict_faults: Optional[Iterable[FaultRef]] = None,
    ) -> Tuple[Dict[str, Tuple[str, ...]], Optional[List[FaultRef]]]:
        """Normalized ``(deployment, restriction)`` of one query."""
        deployment = {
            component: tuple(ms)
            for component, ms in dict(active_mitigations or {}).items()
        }
        if restrict_faults is None:
            return deployment, None
        return deployment, list(restrict_faults)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def analyze(
        self,
        active_mitigations: Mapping[str, Sequence[str]] = (),
        max_faults: int = 0,
        restrict_faults: Optional[Iterable[FaultRef]] = None,
        with_paths: bool = False,
        limit: Optional[int] = None,
        workers: Optional[int] = None,
    ) -> EpaReport:
        """Enumerate and evaluate the scenario space.

        ``active_mitigations`` maps component -> deployed mitigation ids.
        ``max_faults`` bounds simultaneous fault activations (0 =
        unbounded); ``restrict_faults`` limits the scenario space to a
        subset of fault refs (used for targeted what-if queries).
        ``limit`` stops after that many scenarios, taken from the CDCL
        enumerator of :meth:`analyze_stream`.  ``workers`` (default:
        the engine's) shards the enumeration over a process pool;
        sharding kicks in only for full enumerations (``limit=None``).
        With a trace sink attached, worker events are shipped back in
        the result envelopes and re-emitted on the parent's sink tagged
        ``worker=<i>``, so ``--trace`` composes with ``--workers N``.
        """
        deployment, restrict = self._query(active_mitigations, restrict_faults)
        if workers is None:
            workers = self._workers
        with self._tracer.span("epa.analyze", max_faults=max_faults) as span:
            if limit is not None:
                outcomes = list(
                    self.analyze_stream(
                        deployment, max_faults, restrict, limit=limit
                    )
                )
            elif workers and workers > 1:
                outcomes = self._shard(
                    deployment, max_faults, restrict, workers, _Outcomes, "models"
                )
            else:
                outcomes = _Outcomes()
                self._enumerate(max_faults, deployment, restrict, (), outcomes)
            if with_paths:
                outcomes = [self._with_paths(outcome) for outcome in outcomes]
            span.update(
                scenarios=len(outcomes),
                violating=sum(1 for o in outcomes if o.violated),
            )
        # the materialized path peaks memory here, not in a streamed
        # fold — record it on every analyze, not only on aggregate()
        record_peak_rss()
        self._progress_finish()
        return self._report(outcomes, deployment)

    def analyze_stream(
        self,
        active_mitigations: Mapping[str, Sequence[str]] = (),
        max_faults: int = 0,
        restrict_faults: Optional[Iterable[FaultRef]] = None,
        with_paths: bool = False,
        limit: Optional[int] = None,
    ) -> Iterator[ScenarioOutcome]:
        """Lazily yield scenario outcomes as models are found.

        The streaming counterpart of :meth:`analyze`: same scenario
        space, same outcomes, but drawn one model at a time from the
        kernel's CDCL enumerator on the persistent control and never
        collected — closing the iterator early stops the search (and
        retracts its blocking clauses).  Memory stays bounded by one
        model, regardless of how many scenarios the sweep visits;
        callers who want totals without the list feed the outcomes to
        a :class:`~repro.epa.aggregate.ScenarioAggregate` (or call
        :meth:`aggregate`, which also shards and checkpoints).
        """
        deployment, restrict = self._query(active_mitigations, restrict_faults)
        control = self._incremental_control(max_faults)
        self._assign_externals(control, deployment, restrict)
        project = _fault_atoms(self._potential_faults(deployment))
        count = 0
        with control.solver_call() as (solver, assumptions):
            models = _reference_models(solver, assumptions, project, limit)
            try:
                for model in models:
                    count += 1
                    self._progress_scenarios(1)
                    yield self._extract(model, with_paths)
            finally:
                models.close()
                self._note_analysis(scenarios=count)
                self._progress_finish()

    def aggregate(
        self,
        active_mitigations: Mapping[str, Sequence[str]] = (),
        max_faults: int = 0,
        restrict_faults: Optional[Iterable[FaultRef]] = None,
        workers: Optional[int] = None,
        stream_mode: str = "aggregate",
        checkpoint: Optional[str] = None,
        checkpoint_every: int = 8,
        chunk_size: int = 512,
        max_minimal_sets: int = DEFAULT_MAX_MINIMAL_SETS,
    ) -> ScenarioAggregate:
        """Sweep the scenario space into a bounded-memory aggregate.

        The full-sweep engine for fleet-scale workloads: enumerates the
        same scenario space as :meth:`analyze` but folds every model
        into a :class:`~repro.epa.aggregate.ScenarioAggregate` on the
        fly — the model list never exists.  With ``workers > 1`` (or a
        ``checkpoint``) the sweep shards over occurrence-ordered cubes;
        ``stream_mode`` picks what workers ship on the pool's result
        channel: ``"aggregate"`` (default) sends pre-folded partial
        aggregates every ``chunk_size`` scenarios, ``"models"`` sends
        the extracted outcomes themselves (heavier traffic, parent-side
        folding).  Both merge cube-ordered and byte-identically to the
        sequential path.

        ``checkpoint`` names a file that periodically (every
        ``checkpoint_every`` completed cubes) receives a compact resume
        token — completed cube ids plus the partial aggregate — so a
        killed sweep restarts where it left off: call again with the
        same configuration and the same path.  A checkpoint written by
        a different sweep configuration is refused.
        """
        if stream_mode not in ("aggregate", "models"):
            raise EpaError(
                "stream_mode must be 'aggregate' or 'models', not %r"
                % (stream_mode,)
            )
        deployment, restrict = self._query(active_mitigations, restrict_faults)
        if workers is None:
            workers = self._workers or 1
        names, magnitudes = self._aggregate_names()

        def part() -> ScenarioAggregate:
            return ScenarioAggregate(names, magnitudes, max_minimal_sets)

        with self._tracer.span(
            "epa.aggregate", max_faults=max_faults, workers=workers
        ) as span:
            if (workers and workers > 1) or checkpoint is not None:
                result = self._shard(
                    deployment, max_faults, restrict, workers, part,
                    stream_mode, chunk_size, checkpoint, checkpoint_every,
                    max_minimal_sets,
                )
            else:
                result = part()
                self._enumerate(max_faults, deployment, restrict, (), result)
            span.update(
                scenarios=result.scenarios, violating=result.violating
            )
        record_peak_rss()
        self._progress_finish()
        return result

    def _aggregate_names(self) -> Tuple[List[str], Dict[str, str]]:
        names = [r.name for r in self.requirements]
        magnitudes = {r.name: r.magnitude for r in self.requirements}
        return names, magnitudes

    def analyze_scenario(
        self,
        faults: Iterable[FaultRef],
        active_mitigations: Mapping[str, Sequence[str]] = (),
        with_paths: bool = True,
    ) -> ScenarioOutcome:
        """Evaluate one specific fault combination.

        Faults suppressed by an active mitigation simply stay inactive,
        mirroring the paper's workflow where activating a mitigation
        "allows excluding this specific scenario from the evaluation".
        Every potential fault is pinned, so the kernel's search is a
        single leaf.
        """
        deployment, _ = self._query(active_mitigations)
        requested = {(f.component, f.fault) for f in faults}
        cube = [
            (
                atom("active_fault", ref.component, ref.fault),
                (ref.component, ref.fault) in requested,
            )
            for ref in self._potential_faults(deployment)
        ]
        outcomes = _Outcomes()
        self._enumerate(0, deployment, None, cube, outcomes)
        if not outcomes:
            raise EpaError("scenario program unexpectedly unsatisfiable")
        return self._with_paths(outcomes[0]) if with_paths else outcomes[0]

    # ------------------------------------------------------------------
    # sharded sweeps (see docs/parallelism.md, docs/streaming.md)
    # ------------------------------------------------------------------
    def _shard(
        self,
        deployment: Mapping[str, Sequence[str]],
        max_faults: int,
        restrict: Optional[Sequence[FaultRef]],
        workers: int,
        part: Callable[[], object],
        stream_mode: str,
        chunk_size: int = 512,
        checkpoint: Optional[str] = None,
        checkpoint_every: int = 8,
        max_minimal_sets: int = DEFAULT_MAX_MINIMAL_SETS,
    ):
        """Run the kernel cube by cube in a work-stealing pool.

        Publishes the persistent control's ground program and cuts the
        space into occurrence-ordered linear cubes (for one worker too:
        a checkpoint needs cube granularity); :func:`_cube_worker` runs
        each cube under the external assignment and ships partials.
        Per cube the parent buffers them in a ``part()`` (an outcome
        list or a :class:`ScenarioAggregate`), promotes the buffer when
        the cube's envelope arrives — a crash-retried cube's buffer is
        dropped — and merges completed parts in cube order on top of
        the resumed checkpoint.  The cubes partition the space, so the
        result equals the sequential one.
        """
        control = self._incremental_control(max_faults)
        self._assign_externals(control, deployment, restrict)
        ground = control.ground()
        choices = self._potential_faults(deployment)
        split = choices
        if restrict is not None:
            allowed = {(f.component, f.fault) for f in restrict}
            split = [
                ref for ref in choices if (ref.component, ref.fault) in allowed
            ]
        cubes = linear_cubes(
            order_by_occurrence(ground, _fault_atoms(split)),
            max(2, workers * resolve_cube_factor(self._cube_factor)),
        )
        digest, blob = _publish_cube_context(ground, self._requirement_names)

        resumed = part()
        completed: Set[int] = set()
        if checkpoint is not None:
            config_digest = _sweep_digest(
                digest, cubes, max_faults, max_minimal_sets, deployment, restrict
            )
            if os.path.exists(checkpoint):
                with self._tracer.span(
                    "epa.checkpoint", path=checkpoint, mode="read"
                ):
                    state = read_checkpoint(checkpoint)
                if state.digest != config_digest:
                    raise EpaError(
                        "checkpoint %s was written by a different sweep "
                        "configuration (model, deployment, cube layout, "
                        "max_faults and cube factor must match to resume)"
                        % checkpoint
                    )
                completed = set(state.completed)
                resumed = ScenarioAggregate.loads(state.aggregate)
                self._stats.incr("epa.aggregate.resumed_cubes", len(completed))
        pending = [
            index for index in range(len(cubes)) if index not in completed
        ]
        if self._progress is not None:
            self._progress.set_total_cubes(len(cubes), done=len(completed))
            if resumed.scenarios:
                self._progress.preseed_scenarios(resumed.scenarios)

        pool = WorkStealingPool(workers, on_stall=self._on_stall)
        names, magnitudes = self._aggregate_names()
        externals = [
            (target, bool(value))
            for target, value in control.externals.items()
            if value is not None
        ]
        # fork workers inherit the published context; only spawn
        # workers need the blob to rebuild it
        shipped_blob = (
            blob
            if workers > 1 and len(pending) > 1 and pool.start_method != "fork"
            else None
        )
        payloads = [
            {
                "digest": digest,
                "blob": shipped_blob,
                "requirement_names": self._requirement_names,
                "project": _fault_atoms(choices),
                "externals": externals,
                "cube": cubes[cube_id],
                "index": cube_id,
                "traced": self._trace is not NULL_SINK,
                "stream_mode": stream_mode,
                "chunk": max(1, chunk_size),
                "aggregate_requirements": names,
                "magnitudes": magnitudes,
                "max_minimal_sets": max_minimal_sets,
            }
            for cube_id in pending
        ]

        parts: Dict[int, object] = {}
        buffers: Dict[int, object] = {}
        finished = [0]

        def assemble():
            total = part()
            total.merge(resumed)
            for cube_id in sorted(parts):
                total.merge(parts[cube_id])
            return total

        def snapshot() -> None:
            if checkpoint is None:
                return
            with self._tracer.span(
                "epa.checkpoint",
                path=checkpoint,
                mode="write",
                cubes=len(completed),
                total=len(cubes),
            ):
                write_checkpoint(
                    checkpoint, config_digest, completed, assemble().dumps()
                )

        def on_partial(position: int, value: Tuple[str, object]) -> None:
            cube_id = pending[position]
            kind = value[0]
            if kind == "reset":
                # the worker fell back to the CDCL enumeration and will
                # re-stream the whole cube
                held = buffers.pop(cube_id, None)
                if held is not None:
                    self._progress_scenarios(-held.scenarios)
            else:
                held = buffers.get(cube_id)
                if held is None:
                    held = buffers[cube_id] = part()
                if kind == "agg":
                    chunk = ScenarioAggregate.loads(value[1])
                    held.merge(chunk)
                    self._progress_scenarios(chunk.scenarios)
                else:  # "outcomes"
                    for outcome in value[1]:
                        held.add(outcome)
                    self._progress_scenarios(len(value[1]))

        def on_retry(position: int) -> None:
            held = buffers.pop(pending[position], None)
            if held is not None:
                self._progress_scenarios(-held.scenarios)

        def on_result(position: int, _envelope: object) -> None:
            cube_id = pending[position]
            held = buffers.pop(cube_id, None)
            parts[cube_id] = held if held is not None else part()
            completed.add(cube_id)
            finished[0] += 1
            self._progress_cube_done()
            if checkpoint_every > 0 and finished[0] % checkpoint_every == 0:
                snapshot()

        try:
            envelopes = pool.map(
                _cube_worker,
                payloads,
                on_partial=on_partial,
                on_retry=on_retry,
                on_result=on_result,
            )
        except ParallelError as error:
            raise EpaError("sharded EPA sweep failed: %s" % error) from error
        lanes = pool.last_assignments
        for position, (shard_stats, events) in enumerate(envelopes):
            self._stats.merge(shard_stats)
            # replay the shard's trace stream on the parent sink, tagged
            # with the worker lane it actually ran in
            for name, _seconds, event_payload in events:
                payload = dict(event_payload)
                payload.setdefault("worker", lanes.get(position, position))
                self._trace.emit(name, **payload)
        result = assemble()
        snapshot()
        self._stats.incr(
            "epa.aggregate.cubes"
            if isinstance(result, ScenarioAggregate)
            else "epa.parallel.shards",
            len(pending),
        )
        self._stats.set("epa.parallel.workers", workers)
        self._note_analysis(scenarios=result.scenarios - resumed.scenarios)
        return result

    # ------------------------------------------------------------------
    # provenance / explanation
    # ------------------------------------------------------------------
    def _core_control(self, max_faults: int) -> Control:
        """The persistent control for blocking-core queries.

        Same shape as :meth:`_incremental_control` minus the
        restriction machinery, plus an ``epa_require_violation``
        external that, when assumed true, makes the program
        unsatisfiable exactly when the active deployment blocks every
        violating scenario — the resulting unsat core names the
        mitigations that did the blocking.
        """
        control = self._core_controls.get(max_faults)
        if control is None:
            control = Control(trace=self._trace, multishot=True)
            control._program.extend(self._assemble_base_program())
            control.add(scenario_choice(max_faults))
            control.add("epa_some_violation :- violated(R), requirement(R).")
            control.add(":- epa_require_violation, not epa_some_violation.")
            control.add_external("epa_require_violation")
            for component, mitigation in self._relevant_mitigation_pairs():
                control.add_external("active_mitigation", component, mitigation)
            self._core_controls[max_faults] = control
        return control

    def blocking_core(
        self,
        active_mitigations: Mapping[str, Sequence[str]],
        max_faults: int = 0,
        minimize: bool = True,
    ) -> Optional[List[Tuple[str, str]]]:
        """Which deployed mitigations a violation-free result rests on.

        Returns ``None`` when some scenario still violates a
        requirement under the deployment (there is nothing to
        explain), and otherwise the ``(component, mitigation)`` subset
        of the deployment whose presence makes every violating
        scenario impossible — an unsat core of the query "find a
        violation", minimized to a MUS when ``minimize`` is true
        (dropping any returned mitigation re-admits a violating
        scenario).
        """
        control = self._core_control(max_faults)
        universe = self._relevant_mitigation_pairs()
        active = _deployed(active_mitigations)

        def is_blocking(pairs: Iterable[Tuple[str, str]]) -> bool:
            # assign *every* mitigation external each trial —
            # assignments persist on multi-shot controls, so a dropped
            # element must be actively flipped back to false
            chosen = set(pairs)
            for component, mitigation in universe:
                control.assign_external(
                    "active_mitigation",
                    component,
                    mitigation,
                    value=(component, mitigation) in chosen,
                )
            control.assign_external("epa_require_violation", value=True)
            return not control.is_satisfiable()

        self._stats.incr("epa.blocking_core_calls")
        deployed = [pair for pair in universe if pair in active]
        if not is_blocking(deployed):
            return None
        core = [
            (str(head.arguments[0]), str(head.arguments[1]))
            for head, value in control.unsat_core or []
            if value and head.predicate == "active_mitigation"
        ]
        if minimize:
            core = minimize_core(is_blocking, core)
        names = self._mitigation_names()
        return sorted(
            (component, names.get((component, symbol), symbol))
            for component, symbol in core
        )

    def prove_scenario(
        self,
        faults: Iterable[FaultRef],
        active_mitigations: Mapping[str, Sequence[str]] = (),
    ) -> "ScenarioProof":
        """A proof-backed view of one scenario: ``why``/``why_not`` over
        the scenario's stable model (see :mod:`repro.epa.explain`)."""
        from .explain import scenario_proof

        return scenario_proof(self, faults, active_mitigations)

    def _mitigation_names(self) -> Dict[Tuple[str, str], str]:
        """(component, mitigation-symbol) back to the declared id."""
        names: Dict[Tuple[str, str], str] = {}
        for ref in self._fault_pairs():
            for mitigation in self.fault_mitigations.get(ref.fault, ()):
                names.setdefault(
                    (ref.component, _mitigation_symbol(mitigation)), mitigation
                )
        for (component, _fault), mitigations in sorted(
            self.component_mitigations.items()
        ):
            for mitigation in mitigations:
                names.setdefault(
                    (component, _mitigation_symbol(mitigation)), mitigation
                )
        return names

    def _report(
        self,
        outcomes: Sequence[ScenarioOutcome],
        deployment: Mapping[str, Sequence[str]],
    ) -> EpaReport:
        return EpaReport(
            outcomes,
            [r.name for r in self.requirements],
            {component: tuple(ms) for component, ms in deployment.items()},
        )

    def _note_analysis(self, scenarios: int) -> None:
        """Count one scenario query (solver statistics live on the
        persistent controls / worker shards)."""
        self._stats.incr("epa.analyze_calls")
        self._stats.incr("epa.scenarios", scenarios)

    # ------------------------------------------------------------------
    # progress / health hooks
    # ------------------------------------------------------------------
    def _progress_scenarios(self, count: int) -> None:
        if self._progress is not None and count:
            self._progress.add_scenarios(count)

    def _progress_cube_done(self) -> None:
        if self._progress is not None:
            self._progress.cube_done()

    def _progress_finish(self) -> None:
        if self._progress is not None:
            self._progress.finish()

    def _on_stall(
        self, worker: int, task_index: int, silent_s: float, reason: str
    ) -> None:
        """Pool stall warnings: a trace event plus the stderr default."""
        self._trace.emit(
            "health.worker_stalled",
            worker=worker,
            task=task_index,
            silent_s=round(silent_s, 3),
            reason=reason,
        )
        default_on_stall(worker, task_index, silent_s, reason)

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------
    def _extract(self, model: Model, with_paths: bool) -> ScenarioOutcome:
        """The outcome of one :class:`Model`, with paths on request."""
        outcome = _model_extract(model, self._requirement_names)
        return self._with_paths(outcome) if with_paths else outcome

    def _with_paths(self, outcome: ScenarioOutcome) -> ScenarioOutcome:
        return replace(
            outcome, paths=self._paths(outcome.active_faults, outcome.violated)
        )

    def _paths(
        self, active: Iterable[FaultRef], violated: Iterable[str]
    ) -> Dict[str, Tuple[PropagationStep, ...]]:
        """Shortest propagation path to each violated requirement's
        focus.  Faults are tried in sorted order, so among equally short
        paths the one from the smallest fault wins — independent of set
        iteration (hash) order."""
        paths: Dict[str, Tuple[PropagationStep, ...]] = {}
        focus_by_requirement = {
            r.name: r.focus for r in self.requirements if r.focus
        }
        faults = sorted(active, key=lambda ref: (ref.component, ref.fault))
        for requirement in sorted(violated):
            focus = focus_by_requirement.get(requirement)
            if not focus:
                continue
            best: Optional[List[str]] = None
            for fault in faults:
                try:
                    candidate = nx.shortest_path(
                        self._graph, fault.component, focus
                    )
                except (nx.NetworkXNoPath, nx.NodeNotFound):
                    continue
                if best is None or len(candidate) < len(best):
                    best = candidate
            if best and len(best) > 1:
                paths[requirement] = tuple(
                    PropagationStep(a, b) for a, b in zip(best, best[1:])
                )
        return paths


def _fault_atoms(faults: Iterable[FaultRef]) -> List[Atom]:
    """The ``active_fault`` atoms of ``faults`` (projection, cubes)."""
    return [atom("active_fault", ref.component, ref.fault) for ref in faults]


class _Outcomes(list):
    """An outcome list with the kernel's sink interface (``add`` /
    ``clear``) and the merge interface of the sharded driver."""

    add = list.append
    merge = list.extend

    @property
    def scenarios(self) -> int:
        return len(self)


class _Tracked:
    """A sink wrapper feeding the progress tracker; ``clear`` takes
    back what the cleared attempt reported."""

    def __init__(self, sink, progress: ProgressTracker):
        self.sink = sink
        self.progress = progress
        self.count = 0

    def add(self, outcome: ScenarioOutcome) -> None:
        self.sink.add(outcome)
        self.count += 1
        self.progress.add_scenarios(1)

    def clear(self) -> None:
        self.sink.clear()
        self.progress.add_scenarios(-self.count)
        self.count = 0


#: cube-worker context published by the parent before forking:
#: ``digest -> (solver template, probe tables)``
_CUBE_CONTEXTS: Dict[str, Tuple[StableModelSolver, Dict[str, object]]] = {}


#: outcome fields, in the slot order of :func:`_outcome_entry`
_FAULT, _VIOLATED, _ERR, _DETECTED, _SEVERITY = range(5)


def _outcome_entry(
    ground_atom: Atom, requirement_names: Mapping[str, str]
) -> Optional[Tuple[int, object]]:
    """``(slot, entry)`` when ``ground_atom`` shapes an outcome: an
    ``active_fault`` ref, a ``violated`` requirement name, an ``err``
    (component, kind) pair, a ``detected`` component or a
    ``scenario_severity`` rank; ``None`` for every other atom."""
    predicate = ground_atom.predicate
    arguments = ground_atom.arguments
    if predicate == "active_fault":
        return _FAULT, FaultRef(str(arguments[0]), str(arguments[1]))
    if predicate == "violated":
        name = str(arguments[0])
        return _VIOLATED, requirement_names.get(name, name)
    if predicate == "err":
        return _ERR, (str(arguments[0]), str(arguments[1]))
    if predicate == "detected":
        return _DETECTED, str(arguments[0])
    if predicate == "scenario_severity" and isinstance(arguments[0], Number):
        return _SEVERITY, arguments[0].value
    return None


def _outcome(found: Sequence[List[object]]) -> ScenarioOutcome:
    """The outcome of one answer set's entries, listed per slot."""
    faults, violated, errs, detected, severities = found
    erroneous: Dict[str, Set[str]] = {}
    for component, kind in errs:
        erroneous.setdefault(component, set()).add(kind)
    return ScenarioOutcome(
        frozenset(faults),
        frozenset(violated),
        {c: frozenset(kinds) for c, kinds in erroneous.items()},
        frozenset(detected),
        {},
        max(severities, default=0),
    )


def _build_probes(
    solver: StableModelSolver,
    possible_atoms: Sequence[Atom],
    requirement_names: Mapping[str, str],
) -> Dict[str, object]:
    """The probe table for outcome extraction.

    Lists ``(variable, slot, entry)`` for every outcome-shaping ground
    atom, so the kernel reads a whole :class:`ScenarioOutcome` straight
    off the propagation-complete assignment array without
    materializing a :class:`Model`.  The requirement-name map rides
    along under ``names`` for the CDCL fallback's
    :func:`_model_extract`.
    """
    table = []
    for ground_atom in possible_atoms:
        variable = solver.atom_var(ground_atom)
        entry = _outcome_entry(ground_atom, requirement_names)
        if variable is not None and entry is not None:
            table.append((variable,) + entry)
    return {"table": table, "names": dict(requirement_names)}


def _publish_cube_context(
    ground, requirement_names: Mapping[str, str]
) -> Tuple[str, bytes]:
    """Publish the shared worker context for one sharded sweep.

    Serializes the ground program (priming the
    :mod:`repro.asp.serialize` shared cache) and stores a solver
    template plus probe tables under the program digest.  Workers forked
    after this call inherit the whole context copy-on-write — their
    first task starts at a dict lookup instead of a program decode and
    solver encode.  The multi-shot program does not depend on the
    deployment or restriction, so one engine publishes one context per
    ``max_faults`` bound.
    """
    digest, blob = publish(ground)
    _cube_context({"digest": digest, "requirement_names": requirement_names})
    return digest, blob


def _probe_extract(
    assignment: Sequence[int], probes: Mapping[str, object]
) -> ScenarioOutcome:
    """One outcome read straight off a complete assignment array."""
    found: Tuple[List[object], ...] = ([], [], [], [], [])
    for variable, slot, entry in probes["table"]:
        if assignment[variable] == TRUE:
            found[slot].append(entry)
    return _outcome(found)


def _model_extract(
    model: Model, requirement_names: Mapping[str, str]
) -> ScenarioOutcome:
    """Outcome extraction from a full :class:`Model` (CDCL path)."""
    found: Tuple[List[object], ...] = ([], [], [], [], [])
    for model_atom in model.atoms:
        entry = _outcome_entry(model_atom, requirement_names)
        if entry is not None:
            found[entry[0]].append(entry[1])
    return _outcome(found)


def _project(
    solver: StableModelSolver,
    project: Sequence[Atom],
    assumptions: Sequence[Tuple[Atom, bool]],
    probes: Mapping[str, object],
    sink,
    reference: Callable[[], StableModelSolver],
) -> int:
    """The kernel's search: every stable model under ``assumptions``
    into ``sink``, one :class:`ScenarioOutcome` each.

    Runs the propagation-driven projected search over ``project`` and
    reads each outcome off the assignment through ``probes``.  If a
    leaf stays open to propagation the search raises
    :class:`ProjectionIncomplete`: ``sink.clear()`` discards the partial
    output and the same space is enumerated by CDCL search on
    ``reference()`` — slower, never different.  Returns the number of
    scenarios the sink kept.
    """
    try:
        return solver.project_models(
            project,
            lambda assignment: sink.add(_probe_extract(assignment, probes)),
            assumptions=assumptions,
        )
    except ProjectionIncomplete:
        sink.clear()
    names = probes["names"]
    count = 0
    models = _reference_models(reference(), assumptions, project)
    try:
        for model in models:
            sink.add(_model_extract(model, names))
            count += 1
    finally:
        models.close()
    return count


def _reference_models(
    solver: StableModelSolver,
    assumptions: Sequence[Tuple[Atom, bool]],
    project: Sequence[Atom],
    limit: Optional[int] = None,
) -> Iterator[Model]:
    """The complete CDCL enumeration of one scenario space.

    The fault-activation atoms determine every model, so the blocking
    clauses are projected onto them; they are retracted when the
    iterator closes, which keeps a persistent solver reusable.
    """
    return solver.models(
        limit=limit, assumptions=assumptions, retract=True, project=project
    )


def _cube_context(
    payload: Mapping[str, object]
) -> Tuple[StableModelSolver, Dict[str, object]]:
    """The worker-side context: inherited via fork, or rebuilt once.

    Fork-started workers find the parent's published context in
    :data:`_CUBE_CONTEXTS`.  Spawn-started workers (no fork on the
    platform) miss and rebuild it from the serialized program blob in
    the payload; the rebuilt context is cached, so only the worker's
    first task pays the decode + solver encode.
    """
    digest = payload["digest"]
    context = _CUBE_CONTEXTS.get(digest)
    if context is None:
        program = shared_program(digest, payload.get("blob"))
        solver = StableModelSolver(program)
        probes = _build_probes(
            solver, program.possible_atoms, payload["requirement_names"]
        )
        context = _CUBE_CONTEXTS[digest] = (solver, probes)
    return context


class _Shipper:
    """A cube worker's sink: ships results to the parent as it goes.

    Every ``chunk`` scenarios it pushes a partial through
    :func:`repro.parallel.emit_partial` — ``("agg", blob)`` carrying a
    pre-folded :class:`ScenarioAggregate` in ``stream_mode="aggregate"``,
    ``("outcomes", [...])`` carrying the outcomes themselves in
    ``stream_mode="models"`` — so parent-side memory tracks the merged
    result, not the model count.  ``clear`` ships ``("reset",)``: the
    parent drops what the cube streamed before a fallback.
    """

    def __init__(self, payload: Mapping[str, object]):
        self.payload = payload
        self.chunk = payload["chunk"]
        self.count = 0
        self.part = self._new()

    def _new(self):
        if self.payload["stream_mode"] == "aggregate":
            return ScenarioAggregate(
                self.payload["aggregate_requirements"],
                self.payload["magnitudes"],
                self.payload["max_minimal_sets"],
            )
        return _Outcomes()

    def add(self, outcome: ScenarioOutcome) -> None:
        self.count += 1
        self.part.add(outcome)
        if self.part.scenarios >= self.chunk:
            self.flush()

    def flush(self) -> None:
        if not self.part.scenarios:
            return
        if isinstance(self.part, ScenarioAggregate):
            emit_partial(("agg", self.part.dumps()))
        else:
            emit_partial(("outcomes", list(self.part)))
        self.part = self._new()

    def clear(self) -> None:
        emit_partial(("reset",))
        self.count = 0
        self.part = self._new()


def _cube_worker(
    payload: Dict[str, object]
) -> Tuple[Dict[str, object], List[Tuple[str, float, Dict[str, object]]]]:
    """Run the kernel's search on one cube, shipping results as found.

    Runs in a pool worker (in-process when the pool degenerates to one
    task): looks up the published context, runs :func:`_project` under
    the parent's external assignment plus the cube, streaming into a
    :class:`_Shipper`, and returns the envelope ``(stats, trace
    events)``.  ``stats`` is the cube's solver statistics delta — the
    published solver's plus any fallback's — in the shape
    :meth:`~repro.asp.Control._record_solve` folds per call, so the
    parent's one merge (:meth:`~repro.observability.SolveStats.merge`)
    makes ``--stats`` and ``--metrics`` compose with ``--workers N``;
    the parent replays the events on its own sink tagged ``worker=<i>``.
    A fallback enumerates on a fresh CDCL solver over the same
    published program.
    """
    solver, probes = _cube_context(payload)
    before = _copy_stats(solver.statistics)
    cube = payload["cube"]
    sink = _Shipper(payload)
    references: List[StableModelSolver] = []

    def reference() -> StableModelSolver:
        references.append(StableModelSolver(shared_program(payload["digest"])))
        return references[-1]

    start = time.perf_counter()
    _project(
        solver,
        payload["project"],
        list(payload["externals"]) + list(cube),
        probes,
        sink,
        reference,
    )
    sink.flush()
    elapsed = time.perf_counter() - start
    events: List[Tuple[str, float, Dict[str, object]]] = []
    if payload["traced"]:
        events.append(
            (
                "epa.cube",
                elapsed,
                {
                    "cube": payload["index"],
                    "models": sink.count,
                    "assumed": len(cube),
                    "fallback": bool(references),
                    "stream": payload["stream_mode"],
                    "seconds": elapsed,
                },
            )
        )
    solving = SolveStats(_stats_delta(solver.statistics, before))
    for fallback in references:
        solving.merge(fallback.statistics)
    # encoding sizes describe a solver, not a call: never summed
    del solving["variables"], solving["tight"]
    stats = {
        "solving": solving.to_dict(),
        "summary": {"calls": 1, "models": {"enumerated": solving["models"]}},
    }
    return stats, events


def _sweep_digest(
    program_digest: str,
    cubes: Sequence[Sequence[Tuple[Atom, bool]]],
    max_faults: int,
    max_minimal_sets: int,
    deployment: Mapping[str, Sequence[str]],
    restrict: Optional[Sequence[FaultRef]],
) -> str:
    """The configuration fingerprint a checkpoint is valid against.

    Covers everything that determines which scenarios each cube id
    enumerates — the ground program, the cube layout (and therefore
    workers x cube factor), the fault bound, the aggregate's antichain
    cap, the deployment and any restriction — so resuming under a
    different configuration is refused instead of silently merging
    mismatched shards.
    """
    parts = [program_digest, str(max_faults), str(max_minimal_sets)]
    for cube in cubes:
        parts.append(
            ";".join("%s=%d" % (cube_atom, value) for cube_atom, value in cube)
        )
    for component, mitigations in sorted(deployment.items()):
        parts.append("%s:%s" % (component, ",".join(mitigations)))
    if restrict is not None:
        parts.append("restrict:" + ",".join(sorted(str(f) for f in restrict)))
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def _deployed(deployment: Mapping[str, Sequence[str]]) -> Set[Tuple[str, str]]:
    """The (component, mitigation-symbol) pairs a deployment activates."""
    return {
        (component, _mitigation_symbol(mitigation))
        for component, mitigations in dict(deployment or {}).items()
        for mitigation in mitigations
    }


def _mitigation_symbol(identifier: str) -> str:
    """Mitigation ids like ``M0917`` become ASP-safe symbols."""
    lowered = identifier.lower().replace("-", "_")
    if not lowered[0].isalpha():
        lowered = "m_" + lowered
    return lowered


def _requirement_symbol(name: str) -> str:
    lowered = name.lower().replace("-", "_").replace(" ", "_")
    if not lowered[0].isalpha():
        lowered = "r_" + lowered
    return lowered
