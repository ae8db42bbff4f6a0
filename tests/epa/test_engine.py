"""Unit tests for the topology-level EPA engine."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro

from repro.epa import (
    EpaEngine,
    EpaError,
    FaultRef,
    StaticRequirement,
    error_kind,
)
from repro.epa.faults import FaultTaxonomyError
from repro.modeling import RelationshipType, SystemModel, standard_cps_library


def chain_model():
    """sensor -> controller -> actuator, plus a masking filter variant."""
    library = standard_cps_library()
    model = SystemModel("chain")
    library.instantiate(model, "sensor", "s")
    library.instantiate(model, "controller", "c")
    library.instantiate(model, "actuator", "v")
    model.add_relationship("s", "c", RelationshipType.FLOW)
    model.add_relationship("c", "v", RelationshipType.FLOW)
    return model


REQ = [
    StaticRequirement("rv", "err(v, K), hazardous_kind(K)", focus="v", magnitude="VH"),
]


class TestFaultTaxonomy:
    def test_error_kinds(self):
        assert error_kind("omission") == "omission"
        assert error_kind("stuck_at_x") == "value"
        assert error_kind("compromised") == "malicious"

    def test_unknown_behaviour_rejected(self):
        with pytest.raises(FaultTaxonomyError):
            error_kind("teleports")

    def test_fault_ref_parse(self):
        ref = FaultRef.parse("pump.stuck_at_open")
        assert ref == FaultRef("pump", "stuck_at_open")
        with pytest.raises(FaultTaxonomyError):
            FaultRef.parse("nodot")


class TestScenarioEnumeration:
    def test_scenario_count_unbounded(self):
        engine = EpaEngine(chain_model(), REQ)
        report = engine.analyze()
        # 9 fault modes -> 2^9 scenarios
        assert len(report) == 2 ** 9

    def test_scenario_count_bounded(self):
        engine = EpaEngine(chain_model(), REQ)
        report = engine.analyze(max_faults=1)
        assert len(report) == 10

    def test_scenario_bound_builds_no_counter(self):
        """The ``max_faults`` bound is a native SAT constraint: the
        encoding has exactly as many variables as the unbounded one."""
        variables = []
        for max_faults in (0, 2):
            engine = EpaEngine(chain_model(), REQ)
            engine.analyze(max_faults=max_faults)
            variables.append(engine.statistics["solving"]["variables"])
        assert variables[0] == variables[1]

    def test_empty_scenario_is_safe(self):
        engine = EpaEngine(chain_model(), REQ)
        report = engine.analyze(max_faults=1)
        nominal = report.outcome_for([])
        assert nominal.is_safe

    def test_upstream_fault_propagates_downstream(self):
        engine = EpaEngine(chain_model(), REQ)
        outcome = engine.analyze_scenario([FaultRef("s", "stuck_at_value")])
        assert outcome.violates("rv")
        assert "v" in outcome.erroneous

    def test_restricted_fault_space(self):
        engine = EpaEngine(chain_model(), REQ)
        report = engine.analyze(
            restrict_faults=[FaultRef("s", "no_signal")],
        )
        assert len(report) == 2  # empty + the single allowed fault

    def test_duplicate_requirement_names_rejected(self):
        with pytest.raises(EpaError):
            EpaEngine(chain_model(), REQ + REQ)


class TestMaskingAndDetection:
    def _masked_model(self):
        library = standard_cps_library()
        model = SystemModel("masked")
        library.instantiate(model, "sensor", "s")
        library.instantiate(model, "filter", "f")
        library.instantiate(model, "actuator", "v")
        model.add_relationship("s", "f", RelationshipType.FLOW)
        model.add_relationship("f", "v", RelationshipType.FLOW)
        return model

    def test_masking_component_absorbs_value_errors(self):
        engine = EpaEngine(self._masked_model(), REQ)
        outcome = engine.analyze_scenario([FaultRef("s", "stuck_at_value")])
        assert outcome.is_safe
        assert "v" not in outcome.erroneous

    def test_malicious_bypasses_masking(self):
        library = standard_cps_library()
        model = self._masked_model()
        library.instantiate(model, "workstation", "ws")
        model.add_relationship("ws", "f", RelationshipType.FLOW)
        engine = EpaEngine(model, REQ)
        outcome = engine.analyze_scenario([FaultRef("ws", "infected")])
        assert outcome.violates("rv")

    def test_detection_raises_detected(self):
        library = standard_cps_library()
        model = SystemModel("d")
        library.instantiate(model, "sensor", "s")
        library.instantiate(model, "hmi", "h")
        model.add_relationship("s", "h", RelationshipType.FLOW)
        engine = EpaEngine(
            model,
            [StaticRequirement("r", "err(h, K), alert_losing_kind(K)", focus="h")],
        )
        outcome = engine.analyze_scenario([FaultRef("s", "stuck_at_value")])
        assert "h" in outcome.detected_at

    def test_silent_detector_does_not_detect(self):
        library = standard_cps_library()
        model = SystemModel("d")
        library.instantiate(model, "sensor", "s")
        library.instantiate(model, "hmi", "h")
        model.add_relationship("s", "h", RelationshipType.FLOW)
        engine = EpaEngine(model, [])
        outcome = engine.analyze_scenario(
            [FaultRef("s", "stuck_at_value"), FaultRef("h", "no_signal")]
        )
        assert "h" not in outcome.detected_at


class TestMitigations:
    def test_fault_level_mitigation_suppresses(self):
        engine = EpaEngine(
            chain_model(),
            REQ,
            fault_mitigations={"compromised": ("m_edr",)},
        )
        unmitigated = engine.analyze(max_faults=1)
        assert any(
            FaultRef("c", "compromised") in o.active_faults
            for o in unmitigated.violating()
        )
        mitigated = engine.analyze(
            active_mitigations={"c": ("m_edr",)}, max_faults=1
        )
        assert not any(
            FaultRef("c", "compromised") in o.active_faults
            for o in mitigated.outcomes
        )

    def test_component_level_mitigation(self):
        engine = EpaEngine(
            chain_model(),
            REQ,
            component_mitigations={("s", "no_signal"): ("m_redundant",)},
        )
        mitigated = engine.analyze(
            active_mitigations={"s": ("m_redundant",)}, max_faults=1
        )
        assert not any(
            FaultRef("s", "no_signal") in o.active_faults
            for o in mitigated.outcomes
        )

    def test_mitigation_on_other_component_has_no_effect(self):
        engine = EpaEngine(
            chain_model(),
            REQ,
            fault_mitigations={"compromised": ("m_edr",)},
        )
        report = engine.analyze(
            active_mitigations={"v": ("m_edr",)}, max_faults=1
        )
        assert any(
            FaultRef("c", "compromised") in o.active_faults
            for o in report.outcomes
        )


class TestReportQueries:
    def _report(self):
        return EpaEngine(chain_model(), REQ).analyze(max_faults=2)

    def test_minimal_violating_are_single_faults_here(self):
        report = self._report()
        minimal = report.minimal_violating("rv")
        assert minimal
        assert all(len(cut) == 1 for cut in minimal)

    def test_single_points_of_failure(self):
        report = self._report()
        spofs = {str(f) for f in report.single_points_of_failure()}
        assert "s.stuck_at_value" in spofs
        assert "c.wrong_output" in spofs

    def test_violation_counts(self):
        report = self._report()
        counts = report.violation_counts()
        assert counts["rv"] == len(report.violating("rv"))

    def test_criticality_ranking(self):
        report = self._report()
        criticality = report.criticality()
        assert set(criticality) <= {"s", "c", "v"}
        ranks = list(criticality.values())
        assert ranks == sorted(ranks, reverse=True)

    def test_outcome_for_unknown_scenario_raises(self):
        report = EpaEngine(chain_model(), REQ).analyze(max_faults=1)
        with pytest.raises(KeyError):
            report.outcome_for(["s.stuck_at_value", "c.crash"])

    def test_paths_extracted(self):
        engine = EpaEngine(chain_model(), REQ)
        outcome = engine.analyze_scenario([FaultRef("s", "stuck_at_value")])
        assert "rv" in outcome.paths
        path = outcome.paths["rv"]
        assert path[0].source == "s"
        assert path[-1].target == "v"


class TestPathDeterminism:
    def test_paths_independent_of_hash_seed(self):
        """Equally short propagation paths tie-break on fault order, not
        on set iteration order: interpreters with different string-hash
        seeds must report the same paths."""
        script = textwrap.dedent(
            """
            from repro.security.fleet import FleetSpec, fleet_engine

            spec = FleetSpec(tiers=2, components_per_tier=3,
                             fault_modes_per_component=2, max_faults=2)
            report = fleet_engine(spec).analyze(max_faults=2, with_paths=True)
            for outcome in report.outcomes:
                print(outcome.key(), sorted(outcome.paths.items()))
            """
        )
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=source_root)
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", script],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert "PropagationStep" in outputs[0]
        assert outputs[0] == outputs[1]
