"""Optimal-scenario queries over the EPA model (paper Sec. IV-D).

The optimization tasks the paper lists are two-sided:

* **attacker view** — "Attack Cost: resources that an attacker must
  expend to successfully attack the system" and "Most efficient attack":
  the cheapest fault/technique combination that still violates a
  requirement;
* **analyst view** — "when searching for the most critical consequence,
  the severity of the faults can be set as cost metrics" (Sec. II-C):
  the most severe scenario a bounded adversary can cause.

Both are single ASP optimization calls over the same joint model the
exhaustive analysis uses — weak constraints on ``active_fault``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..asp import Control
from ..parallel import ParallelError, parallel_map
from .engine import EpaEngine, _mitigation_symbol
from .faults import FaultRef
from .results import ScenarioOutcome
from .rules import scenario_choice


class OptimalQueryError(Exception):
    """Raised when a query is infeasible (no scenario can violate)."""


@dataclass(frozen=True)
class OptimalScenario:
    """Result of an optimal-scenario query."""

    outcome: ScenarioOutcome
    objective: int
    #: objective meaning depends on the query: attacker cost or severity

    def __str__(self) -> str:
        return "%s [objective=%d]" % (self.outcome, self.objective)


def _default_costs(engine: EpaEngine) -> Dict[FaultRef, int]:
    """Attack cost defaults: severity-weighted — harder/more protected
    faults cost more to activate (rank 1..5 -> cost)."""
    costs: Dict[FaultRef, int] = {}
    for element in engine.model.elements:
        for fault in element.properties.get("fault_modes", []) or []:
            costs[FaultRef(element.identifier, fault["name"])] = 3
    for mutation in engine.extra_mutations:
        costs[FaultRef(mutation.component, mutation.fault)] = 3
    return costs


def cheapest_attack(
    engine: EpaEngine,
    requirement: str,
    costs: Optional[Mapping[FaultRef, int]] = None,
    active_mitigations: Mapping[str, Sequence[str]] = (),
) -> OptimalScenario:
    """The minimum-cost fault combination violating ``requirement``.

    ``costs`` maps fault refs to attacker expenditure (defaults to a
    uniform cost); mitigated faults cannot be activated, so deploying a
    mitigation raises (or infinitizes) the real attack cost — exactly
    the trade-off the cost-benefit step balances.
    """
    if requirement not in {r.name for r in engine.requirements}:
        raise OptimalQueryError("unknown requirement %r" % requirement)
    cost_map = dict(costs) if costs is not None else _default_costs(engine)
    control = engine._base_control(dict(active_mitigations or {}))
    control.add(scenario_choice(0))
    requirement_symbol = _requirement_symbol(requirement)
    control.add(":- not violated(%s)." % requirement_symbol)
    for fault, cost in sorted(cost_map.items(), key=lambda kv: str(kv[0])):
        control.add_fact("attack_cost", fault.component, fault.fault, cost)
    control.add(
        ":~ active_fault(C, F), attack_cost(C, F, W). [W@1, C, F]"
    )
    # faults without a declared cost default to cost 1
    control.add(
        "priced(C, F) :- attack_cost(C, F, _)."
    )
    control.add(
        ":~ active_fault(C, F), not priced(C, F). [1@1, C, F]"
    )
    models = control.optimize()
    if not models:
        raise OptimalQueryError(
            "no scenario can violate %r under the given mitigations"
            % requirement
        )
    outcome = engine._extract(models[0], with_paths=True)
    objective = models[0].cost[0][1] if models[0].cost else 0
    return OptimalScenario(outcome, objective)


def most_severe_attack(
    engine: EpaEngine,
    max_faults: int = 1,
    active_mitigations: Mapping[str, Sequence[str]] = (),
) -> OptimalScenario:
    """The worst consequence a bounded adversary can cause.

    Maximizes (requirement magnitude weight summed over violations,
    then the scenario severity rank) subject to at most ``max_faults``
    simultaneous activations — the paper's "most critical consequence"
    query with severity as the cost metric.
    """
    control = engine._base_control(dict(active_mitigations or {}))
    control.add(scenario_choice(max_faults))
    weights = {"VL": 1, "L": 2, "M": 3, "H": 4, "VH": 5}
    for requirement in engine.requirements:
        control.add_fact(
            "req_weight",
            _requirement_symbol(requirement.name),
            weights.get(requirement.magnitude, 3),
        )
    control.add("#maximize { W@2,R : violated(R), req_weight(R, W) }.")
    control.add("#maximize { S@1 : scenario_severity(S) }.")
    models = control.optimize()
    if not models:
        raise OptimalQueryError("model is unsatisfiable")
    outcome = engine._extract(models[0], with_paths=True)
    violated_weight = sum(
        weights.get(r.magnitude, 3)
        for r in engine.requirements
        if r.name in outcome.violated
    )
    return OptimalScenario(outcome, violated_weight)


def attack_cost_of_mitigation(
    engine: EpaEngine,
    requirement: str,
    mitigation_deployments: Sequence[Mapping[str, Sequence[str]]],
    costs: Optional[Mapping[FaultRef, int]] = None,
    workers: Optional[int] = None,
    multishot: bool = True,
) -> Dict[int, Optional[int]]:
    """How much each candidate deployment raises the attacker's bill.

    For each deployment (index -> cheapest attack cost, or ``None`` when
    the requirement becomes unviolatable): the security gain of a
    mitigation is precisely this cost increase (the economic reading of
    "blocking" in Sec. IV-D).

    By default the whole sweep runs on one persistent multi-shot
    control: deployments are external-atom assignments, so the attack
    program grounds once and every optimization call reuses the same
    solver.  ``multishot=False`` restores the fresh-control-per-
    deployment loop (the differential baseline); ``workers=N`` fans the
    deployments out over a process pool instead (each worker runs the
    fresh path).
    """
    if workers and workers > 1:
        return _sweep_parallel(
            engine, requirement, mitigation_deployments, costs, workers
        )
    if not multishot:
        results: Dict[int, Optional[int]] = {}
        for index, deployment in enumerate(mitigation_deployments):
            try:
                results[index] = cheapest_attack(
                    engine, requirement, costs, deployment
                ).objective
            except OptimalQueryError:
                results[index] = None
        return results
    return _sweep_multishot(engine, requirement, mitigation_deployments, costs)


def _sweep_multishot(
    engine: EpaEngine,
    requirement: str,
    mitigation_deployments: Sequence[Mapping[str, Sequence[str]]],
    costs: Optional[Mapping[FaultRef, int]],
) -> Dict[int, Optional[int]]:
    """One persistent control, one grounding; deployments are assumptions."""
    if requirement not in {r.name for r in engine.requirements}:
        raise OptimalQueryError("unknown requirement %r" % requirement)
    cost_map = dict(costs) if costs is not None else _default_costs(engine)
    control = Control(trace=engine._trace, multishot=True)
    control._program.extend(engine._assemble_base_program())
    control.add(scenario_choice(0))
    control.add(":- not violated(%s)." % _requirement_symbol(requirement))
    for fault, cost in sorted(cost_map.items(), key=lambda kv: str(kv[0])):
        control.add_fact("attack_cost", fault.component, fault.fault, cost)
    control.add(
        ":~ active_fault(C, F), attack_cost(C, F, W). [W@1, C, F]"
    )
    control.add("priced(C, F) :- attack_cost(C, F, _).")
    control.add(":~ active_fault(C, F), not priced(C, F). [1@1, C, F]")
    pairs = engine._relevant_mitigation_pairs()
    for component, mitigation in pairs:
        control.add_external("active_mitigation", component, mitigation)
    results: Dict[int, Optional[int]] = {}
    for index, deployment in enumerate(mitigation_deployments):
        active = {
            (component, _mitigation_symbol(mitigation))
            for component, mitigations in dict(deployment or {}).items()
            for mitigation in mitigations
        }
        for component, mitigation in pairs:
            control.assign_external(
                "active_mitigation",
                component,
                mitigation,
                value=(component, mitigation) in active,
            )
        models = control.optimize()
        if not models:
            results[index] = None
        else:
            results[index] = models[0].cost[0][1] if models[0].cost else 0
    engine._stats.merge(control.statistics)
    engine._stats.incr("epa.deployment_sweeps")
    return results


def _sweep_parallel(
    engine: EpaEngine,
    requirement: str,
    mitigation_deployments: Sequence[Mapping[str, Sequence[str]]],
    costs: Optional[Mapping[FaultRef, int]],
    workers: int,
) -> Dict[int, Optional[int]]:
    """Fan independent deployments out over a process pool."""
    cost_map = dict(costs) if costs is not None else None
    payloads = [
        {
            "model": engine.model,
            "requirements": engine.requirements,
            "fault_mitigations": engine.fault_mitigations,
            "component_mitigations": engine.component_mitigations,
            "extra_mutations": engine.extra_mutations,
            "requirement": requirement,
            "costs": cost_map,
            "deployment": dict(deployment or {}),
        }
        for deployment in mitigation_deployments
    ]
    try:
        objectives: List[Optional[int]] = parallel_map(
            _deployment_worker, payloads, workers=workers
        )
    except ParallelError as error:
        raise OptimalQueryError(
            "parallel deployment sweep failed: %s" % error
        ) from error
    return {index: objective for index, objective in enumerate(objectives)}


def _deployment_worker(payload: Dict[str, object]) -> Optional[int]:
    """Evaluate one deployment in a child process (fresh engine)."""
    engine = EpaEngine(
        payload["model"],
        payload["requirements"],
        fault_mitigations=payload["fault_mitigations"],
        component_mitigations=payload["component_mitigations"],
        extra_mutations=payload["extra_mutations"],
    )
    try:
        return cheapest_attack(
            engine,
            payload["requirement"],
            payload["costs"],
            payload["deployment"],
        ).objective
    except OptimalQueryError:
        return None


def _requirement_symbol(name: str) -> str:
    lowered = name.lower().replace("-", "_").replace(" ", "_")
    if not lowered[0].isalpha():
        lowered = "r_" + lowered
    return lowered
