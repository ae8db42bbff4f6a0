"""The CDCL reference the engine's scenario paths are checked against.

Every query gets a fresh one-shot :class:`~repro.asp.Control` over the
engine's program text — deployments, restrictions and pinned faults
become facts and constraints, not externals or assumptions — and is
enumerated by CDCL search with blocking clauses projected onto the
fault-activation atoms.  No persistent solver, no projected search and
no probe tables are involved, so state leaking between the engine's
calls, or a kernel extraction bug, shows up as a difference.
"""

from repro.asp import atom
from repro.epa import EpaReport, ScenarioAggregate
from repro.epa.rules import scenario_choice


def _deployment(active_mitigations):
    return {
        component: tuple(ms)
        for component, ms in dict(active_mitigations or {}).items()
    }


def _models(engine, control, deployment):
    project = [
        atom("active_fault", ref.component, ref.fault)
        for ref in engine._potential_faults(deployment)
    ]
    return control.solve(project=project)


def cdcl_report(
    engine,
    active_mitigations=(),
    max_faults=0,
    restrict_faults=None,
    with_paths=False,
):
    """The reference :class:`EpaReport` of one ``analyze`` query."""
    deployment = _deployment(active_mitigations)
    control = engine._base_control(deployment)
    control.add(scenario_choice(max_faults))
    if restrict_faults is not None:
        for fault in restrict_faults:
            control.add_fact("allowed_fault", fault.component, fault.fault)
        control.add(":- active_fault(C, F), not allowed_fault(C, F).")
    outcomes = [
        engine._extract(model, with_paths)
        for model in _models(engine, control, deployment)
    ]
    return EpaReport(
        outcomes, [r.name for r in engine.requirements], deployment
    )


def cdcl_aggregate(engine, **query):
    """The reference aggregate: the folded :func:`cdcl_report`."""
    magnitudes = {r.name: r.magnitude for r in engine.requirements}
    return ScenarioAggregate.from_report(cdcl_report(engine, **query), magnitudes)


def cdcl_scenario(engine, faults, active_mitigations=(), with_paths=True):
    """The reference outcome of one ``analyze_scenario`` query."""
    deployment = _deployment(active_mitigations)
    control = engine._base_control(deployment)
    for fault in faults:
        control.add(
            "active_fault(%s, %s) :- potential_fault(%s, %s)."
            % (fault.component, fault.fault, fault.component, fault.fault)
        )
    models = _models(engine, control, deployment)
    assert len(models) == 1, "a pinned scenario has exactly one model"
    return engine._extract(models[0], with_paths)


def full_fingerprint(outcomes):
    """Every field of every outcome, paths included, in report order."""
    return [
        (
            outcome.key(),
            tuple(sorted(outcome.violated)),
            tuple(
                sorted((c, tuple(sorted(k))) for c, k in outcome.erroneous.items())
            ),
            tuple(sorted(outcome.detected_at)),
            outcome.severity_rank,
            tuple(sorted(outcome.paths.items())),
        )
        for outcome in outcomes
    ]
