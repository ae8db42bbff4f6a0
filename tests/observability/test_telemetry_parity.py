"""One telemetry source: a sharded sweep counts what a sequential one does.

The statistics tree is the only store of counted solver facts, and the
Prometheus counters are derived from it.  Cube workers ship their
solver statistics delta in the result envelope, so a ``workers=2``
sweep reports the same model count as a sequential one, through the
tree and through the derived ``repro_models_total`` alike.
"""

import pytest

from repro.observability.export import derived_metrics
from repro.security.fleet import FleetSpec, fleet_engine

SPEC = FleetSpec(
    tiers=2, components_per_tier=3, fault_modes_per_component=2, max_faults=2
)


def _sweep(entry, workers):
    engine = fleet_engine(SPEC, workers=workers)
    getattr(engine, entry)(max_faults=SPEC.max_faults)
    return engine.statistics


@pytest.mark.parametrize("entry", ["analyze", "aggregate"])
def test_workers_report_the_sequential_model_count(entry):
    sequential = _sweep(entry, 1)
    sharded = _sweep(entry, 2)
    models = sequential.get_path("summary.models.enumerated")
    assert models == SPEC.scenario_count(SPEC.max_faults)
    assert sharded.get_path("summary.models.enumerated") == models
    assert (
        derived_metrics(sharded)["repro_models_total"]
        == derived_metrics(sequential)["repro_models_total"]
        == models
    )
    # the cube solvers' search counters travel home too
    assert sharded.get_path("solving.solvers.choices") is not None
    assert sharded.get_path("epa.parallel.workers") == 2
