"""Tests for the streaming sweep spine (``docs/streaming.md``).

Four contracts:

* **byte identity** — the streamed aggregate (sequential probe path,
  sharded cube path in both stream modes, deployments, restrictions)
  is byte-for-byte identical to folding the materialized
  :class:`~repro.epa.EpaReport`;
* **bounded residency** — :meth:`~repro.epa.EpaEngine.analyze_stream`
  never accumulates outcomes: at any point only a handful of yielded
  objects are alive;
* **checkpoint/resume** — a killed sweep resumes from its token to the
  same bytes, and a token from a different configuration is refused;
* **channel plumbing** — :func:`repro.parallel.emit_partial` and the
  pool's ``on_partial``/``on_retry``/``on_result`` callbacks behave
  identically in-process and across worker processes, and drop stale
  partials from crashed attempts.
"""

import gc
import os
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.cubes import (
    DEFAULT_CUBE_FACTOR,
    generate_cubes,
    resolve_cube_factor,
)
from repro.asp.serialize import SerializeError
from repro.epa import (
    EpaEngine,
    EpaError,
    FaultRef,
    ScenarioAggregate,
    StaticRequirement,
    read_checkpoint,
    write_checkpoint,
)
from repro.epa.aggregate import AggregateError
from repro.epa.results import ScenarioOutcome
from repro.modeling import RelationshipType, SystemModel, standard_cps_library
from repro.parallel import WorkStealingPool, emit_partial

from .oracle import cdcl_aggregate

REQ = [
    StaticRequirement(
        "rv", "err(v, K), hazardous_kind(K)", focus="v", magnitude="VH"
    ),
]


def chain_model():
    library = standard_cps_library()
    model = SystemModel("chain")
    library.instantiate(model, "sensor", "s")
    library.instantiate(model, "controller", "c")
    library.instantiate(model, "actuator", "v")
    model.add_relationship("s", "c", RelationshipType.FLOW)
    model.add_relationship("c", "v", RelationshipType.FLOW)
    return model


def _reference(engine, **kwargs):
    """The CDCL oracle's fold every streamed variant must reproduce."""
    return cdcl_aggregate(engine, **kwargs).dumps()


class TestStreamedByteIdentity:
    def test_sequential_stream_matches_materialized(self):
        reference = _reference(EpaEngine(chain_model(), REQ), max_faults=2)
        streamed = EpaEngine(chain_model(), REQ).aggregate(max_faults=2)
        assert streamed.dumps() == reference

    def test_analyze_stream_fold_matches(self):
        engine = EpaEngine(chain_model(), REQ)
        reference = _reference(EpaEngine(chain_model(), REQ), max_faults=2)
        folded = ScenarioAggregate.from_outcomes(
            engine.analyze_stream(max_faults=2),
            [r.name for r in REQ],
            {r.name: r.magnitude for r in REQ},
        )
        assert folded.dumps() == reference

    @pytest.mark.parametrize("stream_mode", ["aggregate", "models"])
    def test_sharded_stream_matches(self, stream_mode):
        reference = _reference(EpaEngine(chain_model(), REQ), max_faults=2)
        sharded = EpaEngine(chain_model(), REQ, workers=2).aggregate(
            max_faults=2, stream_mode=stream_mode, chunk_size=3
        )
        assert sharded.dumps() == reference

    def test_deployment_and_restriction_match(self):
        deployment = {"s": ("redundancy",)}
        restrict = [FaultRef("s", "no_signal"), FaultRef("c", "crash")]
        kwargs = dict(
            active_mitigations=deployment,
            max_faults=2,
            restrict_faults=restrict,
        )
        reference = _reference(EpaEngine(chain_model(), REQ), **kwargs)
        sequential = EpaEngine(chain_model(), REQ).aggregate(**kwargs)
        sharded = EpaEngine(chain_model(), REQ, workers=2).aggregate(**kwargs)
        assert sequential.dumps() == reference
        assert sharded.dumps() == reference

    def test_unbounded_sweep_matches(self):
        reference = _reference(EpaEngine(chain_model(), REQ))
        streamed = EpaEngine(chain_model(), REQ).aggregate()
        assert streamed.scenarios == 2 ** 9
        assert streamed.dumps() == reference

    def test_invalid_stream_mode_rejected(self):
        with pytest.raises(EpaError):
            EpaEngine(chain_model(), REQ).aggregate(stream_mode="firehose")

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 16),
        tiers=st.integers(min_value=2, max_value=3),
        components=st.integers(min_value=1, max_value=3),
        modes=st.integers(min_value=1, max_value=2),
        max_faults=st.integers(min_value=1, max_value=2),
    )
    def test_property_streamed_matches_on_seeded_fleets(
        self, seed, tiers, components, modes, max_faults
    ):
        """Property over seeded fleet models: for any spec in the
        sampled range, the streamed aggregate reproduces the
        materialized-report fold byte for byte."""
        from repro.security.fleet import FleetSpec, fleet_engine

        spec = FleetSpec(
            seed=seed,
            tiers=tiers,
            components_per_tier=components,
            fault_modes_per_component=modes,
            max_faults=max_faults,
        )
        reference = cdcl_aggregate(fleet_engine(spec), max_faults=max_faults)
        assert reference.scenarios == spec.scenario_count(max_faults)
        streamed = fleet_engine(spec).aggregate(max_faults=max_faults)
        assert streamed.dumps() == reference.dumps()


class TestBoundedResidency:
    def test_analyze_stream_keeps_few_outcomes_alive(self):
        engine = EpaEngine(chain_model(), REQ)
        refs = []
        count = 0
        for outcome in engine.analyze_stream():
            assert isinstance(outcome, ScenarioOutcome)
            refs.append(weakref.ref(outcome))
            count += 1
            if count % 64 == 0:
                gc.collect()
                alive = sum(1 for ref in refs if ref() is not None)
                # nothing in the pipeline may retain the yielded
                # outcomes: only the loop variable itself stays alive
                assert alive <= 4
        assert count == 2 ** 9

    def test_early_close_stops_cleanly(self):
        engine = EpaEngine(chain_model(), REQ)
        stream = engine.analyze_stream(max_faults=2)
        first = next(stream)
        stream.close()
        assert isinstance(first, ScenarioOutcome)
        # the engine remains usable after an abandoned stream
        assert engine.aggregate(max_faults=1).scenarios == 10


class TestAggregateFold:
    def test_merge_rejects_mismatched_requirements(self):
        left = ScenarioAggregate(["a"], {})
        right = ScenarioAggregate(["b"], {})
        with pytest.raises(AggregateError):
            left.merge(right)

    def test_minimal_sets_are_an_antichain(self):
        aggregate = ScenarioAggregate(["rv"], {})
        single = frozenset([FaultRef("s", "no_signal")])
        pair = frozenset(
            [FaultRef("s", "no_signal"), FaultRef("c", "crash")]
        )
        for faults in (pair, single, pair):
            aggregate.add(
                ScenarioOutcome(faults, frozenset(["rv"]), {}, frozenset())
            )
        assert aggregate.minimal_sets() == [single]
        assert aggregate.single_points_of_failure() == sorted(single, key=str)

    def test_truncation_cap_sets_flag(self):
        aggregate = ScenarioAggregate(["rv"], {}, max_minimal_sets=2)
        for name in ("one", "two", "three"):
            faults = frozenset([FaultRef(name, "crash")])
            aggregate.add(
                ScenarioOutcome(faults, frozenset(["rv"]), {}, frozenset())
            )
        assert len(aggregate.minimal_violating) == 2
        assert aggregate.minimal_truncated

    def test_roundtrip_and_equality(self):
        engine = EpaEngine(chain_model(), REQ)
        aggregate = engine.aggregate(max_faults=2)
        clone = ScenarioAggregate.loads(aggregate.dumps())
        assert clone == aggregate
        assert clone.to_dict() == aggregate.to_dict()
        assert "scenarios analyzed" in clone.summary()

    def test_trailing_bytes_rejected(self):
        blob = ScenarioAggregate(["rv"], {}).dumps()
        with pytest.raises(AggregateError, match="trailing"):
            ScenarioAggregate.loads(blob + b"\x00junk")


    def test_seeded_bit_flips_decode_or_raise_the_typed_error(self):
        """A flipped bit either still decodes (RAG1 has no checksum) or
        raises AggregateError — never an IndexError, UnicodeDecodeError
        or FaultTaxonomyError from deep inside the decoder."""
        import random

        blob = EpaEngine(chain_model(), REQ).aggregate(max_faults=2).dumps()
        rng = random.Random(20231)
        rejected = 0
        for _ in range(300):
            data = bytearray(blob)
            data[rng.randrange(4, len(data))] ^= 1 << rng.randrange(8)
            try:
                ScenarioAggregate.loads(bytes(data))
            except AggregateError:
                rejected += 1
        assert rejected


class TestCheckpointResume:
    def test_token_roundtrip(self, tmp_path):
        path = str(tmp_path / "token.ckpt")
        aggregate = ScenarioAggregate(["rv"], {"rv": "VH"})
        write_checkpoint(path, "cafe" * 16, [3, 1, 2], aggregate.dumps())
        state = read_checkpoint(path)
        assert state.digest == "cafe" * 16
        assert list(state.completed) == [1, 2, 3]
        assert ScenarioAggregate.loads(state.aggregate) == aggregate

    def test_torn_token_rejected(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        aggregate = ScenarioAggregate(["rv"], {})
        write_checkpoint(str(path), "00" * 32, [0], aggregate.dumps())
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(SerializeError):
            read_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.ckpt"
        write_checkpoint(str(path), "00" * 32, [0], ScenarioAggregate(["rv"], {}).dumps())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(SerializeError):
            read_checkpoint(str(path))

    def test_outdated_layout_named_as_such(self, tmp_path):
        path = tmp_path / "old.ckpt"
        write_checkpoint(str(path), "00" * 32, [0], ScenarioAggregate(["rv"], {}).dumps())
        path.write_bytes(b"RCK1" + path.read_bytes()[4:-32])
        with pytest.raises(SerializeError, match="outdated RCK1"):
            read_checkpoint(str(path))

    def test_every_bit_flip_rejected(self, tmp_path):
        """No single flipped bit decodes: every corruption of a token
        raises the typed error, never different counts."""
        path = tmp_path / "flip.ckpt"
        aggregate = ScenarioAggregate(["rv"], {"rv": "VH"})
        aggregate.scenarios = 7
        write_checkpoint(str(path), "ab" * 8, [0, 2, 5], aggregate.dumps())
        good = path.read_bytes()
        for position in range(len(good)):
            for bit in range(8):
                corrupt = bytearray(good)
                corrupt[position] ^= 1 << bit
                path.write_bytes(bytes(corrupt))
                with pytest.raises(SerializeError):
                    read_checkpoint(str(path))

    def test_kill_and_resume_reproduces_bytes(self, tmp_path, monkeypatch):
        import repro.epa.engine as engine_module

        path = str(tmp_path / "sweep.ckpt")
        reference = cdcl_aggregate(EpaEngine(chain_model(), REQ), max_faults=2)

        real_write = engine_module.write_checkpoint
        calls = []

        def dying_write(target, digest, completed, aggregate):
            written = real_write(target, digest, completed, aggregate)
            calls.append(len(completed))
            if len(calls) == 2:
                raise KeyboardInterrupt("simulated kill")
            return written

        monkeypatch.setattr(engine_module, "write_checkpoint", dying_write)
        with pytest.raises(KeyboardInterrupt):
            EpaEngine(chain_model(), REQ).aggregate(
                max_faults=2, checkpoint=path, checkpoint_every=1
            )
        monkeypatch.setattr(engine_module, "write_checkpoint", real_write)
        assert calls == [1, 2]

        resumed = EpaEngine(chain_model(), REQ).aggregate(
            max_faults=2, checkpoint=path, checkpoint_every=1
        )
        assert resumed.dumps() == reference.dumps()
        stats = read_checkpoint(path)
        assert ScenarioAggregate.loads(stats.aggregate) == reference

    def test_completed_token_short_circuits(self, tmp_path):
        path = str(tmp_path / "done.ckpt")
        reference = EpaEngine(chain_model(), REQ).aggregate(
            max_faults=2, checkpoint=path
        )
        again = EpaEngine(chain_model(), REQ).aggregate(
            max_faults=2, checkpoint=path
        )
        assert again.dumps() == reference.dumps()

    def test_mismatched_configuration_refused(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        EpaEngine(chain_model(), REQ).aggregate(max_faults=1, checkpoint=path)
        with pytest.raises(EpaError):
            EpaEngine(chain_model(), REQ).aggregate(
                max_faults=2, checkpoint=path
            )


    def test_checkpoint_of_the_one_shot_program_refused(self, tmp_path):
        """Tokens written before sweeps ran on the multi-shot program
        digest a different ground program: refused, never merged."""
        from repro.asp import atom
        from repro.asp.cubes import linear_cubes, order_by_occurrence
        from repro.asp.serialize import publish
        from repro.epa.aggregate import DEFAULT_MAX_MINIMAL_SETS
        from repro.epa.engine import _sweep_digest
        from repro.epa.rules import scenario_choice

        engine = EpaEngine(chain_model(), REQ)
        control = engine._base_control({})
        control.add(scenario_choice(2))
        ground = control.ground()
        atoms = [
            atom("active_fault", ref.component, ref.fault)
            for ref in engine._potential_faults({})
        ]
        cubes = linear_cubes(
            order_by_occurrence(ground, atoms), resolve_cube_factor()
        )
        digest = _sweep_digest(
            publish(ground)[0], cubes, 2, DEFAULT_MAX_MINIMAL_SETS, {}, None
        )
        path = str(tmp_path / "one-shot.ckpt")
        partial = ScenarioAggregate([r.name for r in REQ], {"rv": "VH"})
        write_checkpoint(path, digest, [0], partial.dumps())
        with pytest.raises(EpaError):
            engine.aggregate(max_faults=2, checkpoint=path)


class TestCubeFactor:
    def test_default_and_explicit(self):
        assert resolve_cube_factor() == DEFAULT_CUBE_FACTOR
        assert resolve_cube_factor(7) == 7
        with pytest.raises(ValueError):
            resolve_cube_factor(0)

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CUBE_FACTOR", "9")
        assert resolve_cube_factor() == 9
        assert resolve_cube_factor(2) == 2  # explicit beats the env
        monkeypatch.setenv("REPRO_CUBE_FACTOR", "banana")
        with pytest.raises(ValueError):
            resolve_cube_factor()

    def test_generate_cubes_scales_with_factor(self):
        engine = EpaEngine(chain_model(), REQ)
        control = engine._base_control({})
        from repro.epa.rules import scenario_choice

        control.add(scenario_choice(2))
        ground = control.ground()
        from repro.asp import atom

        atoms = [
            atom("active_fault", ref.component, ref.fault)
            for ref in engine._potential_faults({})
        ]
        wide = generate_cubes(ground, atoms, 2, oversubscribe=4)
        narrow = generate_cubes(ground, atoms, 2, oversubscribe=1)
        assert len(wide) == 8  # 2 workers x factor 4
        assert len(narrow) == 2


def _emit_three(value):
    """Ship two partials then return (module-level: workers pickle it)."""
    emit_partial(("part", value, 1))
    emit_partial(("part", value, 2))
    return value * 10


def _emit_or_die(item):
    """Emit a partial, then crash on the first attempt of item 1.

    The sentinel file makes the crash happen exactly once across the
    retried worker processes: the first attempt creates it and dies,
    the retry finds it and succeeds.
    """
    value, die_path = item
    emit_partial(("part", value))
    if value == 1:
        try:
            with open(die_path, "x"):
                pass
        except FileExistsError:
            pass
        else:
            os._exit(1)
    return value


class TestResultChannel:
    def test_emit_partial_without_channel_is_noop(self):
        assert emit_partial(("orphan",)) is False

    def test_in_process_channel(self):
        pool = WorkStealingPool(1)
        partials = []
        order = []
        results = pool.map(
            _emit_three,
            [5],
            on_partial=lambda index, value: partials.append((index, value)),
            on_result=lambda index, value: order.append((index, value)),
        )
        assert results == [50]
        assert partials == [(0, ("part", 5, 1)), (0, ("part", 5, 2))]
        assert order == [(0, 50)]

    def test_subprocess_channel(self):
        pool = WorkStealingPool(2)
        partials = {}
        done = []
        results = pool.map(
            _emit_three,
            [0, 1, 2, 3],
            on_partial=lambda index, value: partials.setdefault(
                index, []
            ).append(value),
            on_result=lambda index, value: done.append(index),
        )
        assert results == [0, 10, 20, 30]
        assert sorted(done) == [0, 1, 2, 3]
        for index in range(4):
            assert partials[index] == [
                ("part", index, 1),
                ("part", index, 2),
            ]

    def test_crash_retries_and_reports(self, tmp_path):
        pool = WorkStealingPool(2)
        retried = []
        buffers = {}
        die_path = str(tmp_path / "died.once")

        def on_partial(index, value):
            buffers.setdefault(index, []).append(value)

        def on_retry(index):
            # the client contract: a retry invalidates every partial
            # buffered for that task (docs/streaming.md)
            retried.append(index)
            buffers.pop(index, None)

        results = pool.map(
            _emit_or_die,
            [(value, die_path) for value in range(4)],
            on_partial=on_partial,
            on_retry=on_retry,
        )
        assert results == [0, 1, 2, 3]
        # item 1 crashed at least once and was retried
        assert 1 in retried
        # only the successful attempt's partial survives the clears
        assert buffers[1] == [("part", 1)]
