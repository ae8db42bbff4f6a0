"""Differential validation of the EPA engine's enumeration kernel.

:class:`~repro.epa.EpaEngine` keeps one persistent multi-shot control
per ``max_faults`` bound and answers deployment / restriction /
single-scenario queries by flipping externals and assumptions of one
projected search.  These tests require every such answer to be
identical to the CDCL oracle of :mod:`tests.epa.oracle`, which
regrounds a fresh one-shot control per query — on the three-component
chain model, the water-tank case study, and the deployment sweeps of
``epa.optimal``.  EPA reports sort outcomes canonically, so full report
equality (not just set equality) is the bar.
"""

import pytest

from repro.asp.solver import ProjectionIncomplete, StableModelSolver
from repro.epa import EpaEngine, FaultRef, ScenarioAggregate, StaticRequirement
from repro.epa.optimal import attack_cost_of_mitigation
from repro.modeling import RelationshipType, SystemModel, standard_cps_library
from repro.observability import ProgressTracker

from .oracle import (
    cdcl_aggregate,
    cdcl_report,
    cdcl_scenario,
    full_fingerprint,
)

REQ = [
    StaticRequirement("rv", "err(v, K), hazardous_kind(K)", focus="v", magnitude="VH"),
]

#: chain faults that a (made-up) training mitigation can suppress
MITIGATIONS = {
    "no_signal": ("shielding",),
    "compromised": ("hardening", "monitoring"),
    "stuck_at_open": ("maintenance",),
}


def chain_model():
    """sensor -> controller -> actuator (9 fault modes, 512 scenarios)."""
    library = standard_cps_library()
    model = SystemModel("chain")
    library.instantiate(model, "sensor", "s")
    library.instantiate(model, "controller", "c")
    library.instantiate(model, "actuator", "v")
    model.add_relationship("s", "c", RelationshipType.FLOW)
    model.add_relationship("c", "v", RelationshipType.FLOW)
    return model


def chain_engine(**kwargs):
    return EpaEngine(chain_model(), REQ, fault_mitigations=MITIGATIONS, **kwargs)


def fingerprint(report):
    return [
        (outcome.key(), tuple(sorted(outcome.violated)), outcome.severity_rank)
        for outcome in report.outcomes
    ]


class TestChainDifferential:
    @pytest.mark.parametrize("max_faults", [0, 1, 2])
    def test_plain_enumeration(self, max_faults):
        engine = chain_engine()
        assert fingerprint(
            engine.analyze(max_faults=max_faults)
        ) == fingerprint(cdcl_report(engine, max_faults=max_faults))

    def test_deployment_sweep_on_one_engine(self):
        engine = chain_engine()
        deployments = [
            {},
            {"s": ("shielding",)},
            {"c": ("hardening",)},
            {"s": ("shielding",), "c": ("monitoring",), "v": ("maintenance",)},
            {},  # back to empty: externals fully retracted
        ]
        for deployment in deployments:
            assert fingerprint(
                engine.analyze(
                    active_mitigations=deployment, max_faults=2
                )
            ) == fingerprint(
                cdcl_report(engine, active_mitigations=deployment, max_faults=2)
            )
        multishot = engine.statistics["solving"]["multishot"]
        assert multishot["solves"] == len(deployments)
        assert multishot["reground_avoided"] == len(deployments) - 1

    def test_restrict_faults(self):
        engine = chain_engine()
        restrict = [FaultRef("s", "drift"), FaultRef("c", "crash")]
        assert fingerprint(
            engine.analyze(restrict_faults=restrict)
        ) == fingerprint(cdcl_report(engine, restrict_faults=restrict))
        # the restriction must not leak into the next unrestricted call
        assert len(engine.analyze(max_faults=1)) == 10

    def test_analyze_scenario(self):
        engine = chain_engine()
        scenarios = [
            (),
            (FaultRef("s", "no_signal"),),
            (FaultRef("c", "compromised"), FaultRef("v", "stuck_at_open")),
        ]
        for faults in scenarios:
            ours = engine.analyze_scenario(faults)
            reference = cdcl_scenario(engine, faults)
            assert ours.key() == reference.key()
            assert ours.violated == reference.violated

    def test_analyze_scenario_respects_mitigations(self):
        engine = chain_engine()
        deployment = {"s": ("shielding",)}
        faults = (FaultRef("s", "no_signal"),)
        ours = engine.analyze_scenario(faults, active_mitigations=deployment)
        reference = cdcl_scenario(engine, faults, active_mitigations=deployment)
        # the suppressed fault stays inactive on both paths
        assert ours.key() == reference.key() == ()

    def test_limit_falls_back_without_poisoning(self):
        engine = chain_engine()
        assert len(engine.analyze(max_faults=1, limit=3)) == 3
        assert len(engine.analyze(max_faults=1)) == 10


class TestWaterTankDifferential:
    """The paper's case study, bounded to keep its 2^22 space at bay."""

    def test_bounded_enumeration(self):
        from repro.casestudy import build_system_model, static_requirements

        engine = EpaEngine(build_system_model(), static_requirements())
        assert fingerprint(engine.analyze(max_faults=1)) == fingerprint(
            cdcl_report(engine, max_faults=1)
        )


class TestAttackCostSweep:
    def test_multishot_matches_fresh_and_parallel(self):
        deployments = [
            {},
            {"s": ("shielding",)},
            {"c": ("hardening",)},
            {"s": ("shielding",), "v": ("maintenance",)},
        ]
        multishot = attack_cost_of_mitigation(chain_engine(), "rv", deployments)
        legacy = attack_cost_of_mitigation(
            chain_engine(), "rv", deployments, multishot=False
        )
        parallel_engine = chain_engine()
        parallel = attack_cost_of_mitigation(
            parallel_engine, "rv", deployments, workers=2
        )
        assert multishot == legacy == parallel
        assert set(multishot) == set(range(len(deployments)))


class TestKernelState:
    """One engine, one persistent control per bound: whatever a query
    leaves behind (externals, retracted blocking clauses, learnt
    clauses) must not change the next query's answer."""

    def test_mixed_sequence_matches_oracle(self):
        engine = chain_engine()
        deployment = {"c": ("hardening",)}
        restrict = [
            FaultRef("s", "drift"),
            FaultRef("c", "crash"),
            FaultRef("v", "stuck_at_open"),
        ]
        faults = (FaultRef("c", "compromised"), FaultRef("v", "stuck_at_open"))
        names = [r.name for r in REQ]
        magnitudes = {r.name: r.magnitude for r in REQ}

        verdict = engine.analyze_scenario(faults)
        assert full_fingerprint([verdict]) == full_fingerprint(
            [cdcl_scenario(engine, faults)]
        )
        resweep = engine.analyze(
            active_mitigations=deployment,
            max_faults=2,
            restrict_faults=restrict,
            with_paths=True,
        )
        assert full_fingerprint(resweep.outcomes) == full_fingerprint(
            cdcl_report(
                engine,
                active_mitigations=deployment,
                max_faults=2,
                restrict_faults=restrict,
                with_paths=True,
            ).outcomes
        )
        swept = engine.aggregate(max_faults=2)
        assert swept.dumps() == cdcl_aggregate(engine, max_faults=2).dumps()
        full = engine.analyze(max_faults=2, with_paths=True)
        assert full_fingerprint(full.outcomes) == full_fingerprint(
            cdcl_report(engine, max_faults=2, with_paths=True).outcomes
        )
        streamed = ScenarioAggregate.from_outcomes(
            engine.analyze_stream(active_mitigations=deployment, max_faults=2),
            names,
            magnitudes,
        )
        reference = cdcl_aggregate(
            engine, active_mitigations=deployment, max_faults=2
        )
        assert streamed.dumps() == reference.dumps()
        # and back to the first question, after everything above
        again = engine.analyze_scenario(faults)
        assert full_fingerprint([again]) == full_fingerprint([verdict])

    def test_fallback_discards_partial_output_and_progress(self, monkeypatch):
        """A projected search that gives up midway: the kernel must drop
        what the sink already received and take the progress back, then
        redo the whole space by CDCL search."""
        real = StableModelSolver.project_models
        attempts = []

        def gives_up(self, project, on_model, assumptions=()):
            def partial(assignment):
                on_model(assignment)
                if len(attempts) == 3:
                    raise ProjectionIncomplete("forced by test")
                attempts.append(None)

            return real(self, project, partial, assumptions=assumptions)

        monkeypatch.setattr(StableModelSolver, "project_models", gives_up)
        tracker = ProgressTracker(min_interval=0.0)
        engine = chain_engine(progress=tracker)
        report = engine.analyze(max_faults=2)
        assert len(attempts) == 3  # the search did deliver, then gave up
        assert fingerprint(report) == fingerprint(
            cdcl_report(engine, max_faults=2)
        )
        assert tracker.scenarios == len(report)

        attempts.clear()
        tracker = ProgressTracker(min_interval=0.0)
        engine = chain_engine(progress=tracker)
        swept = engine.aggregate(max_faults=2)
        assert swept.dumps() == cdcl_aggregate(engine, max_faults=2).dumps()
        assert tracker.scenarios == swept.scenarios
