"""Homogeneous multi-GPU scaling (section 3.4 extension, docs/distributed.md).

A homogeneous cluster is the degenerate fleet: every test here builds a
uniform fleet with :func:`uniform_fleet` and prices the data-parallel
degree and the data-vs-pipeline decision with the fleet measurer and
the fleet search.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fleet import (
    NVLINK,
    PCIE,
    FleetMeasurer,
    Strategy,
    enumerate_strategies,
    run_fleet_search,
    uniform_fleet,
)
from repro.fleet.measure import gradient_bytes
from repro.fleet.strategy import balanced_shards
from repro.gpu.device import P100
from repro.models import MODEL_BUILDERS
from tests.conftest import TINY


def _measurer(model: str, config, count: int, fabric=PCIE, **kwargs):
    return FleetMeasurer(
        MODEL_BUILDERS[model], config,
        uniform_fleet(fabric.name, P100, count, fabric), **kwargs,
    )


def _data(world: int, batch: int) -> Strategy:
    return Strategy("data", ("P100",) * world, balanced_shards(batch, world))


def _pipe(stages: int, layers: int = 4) -> Strategy:
    return Strategy(
        "pipeline", ("P100",) * stages, cuts=(layers // stages,) * stages,
        microbatches=4,
    )


#: a four-layer stack: the smallest model with a pipeline to cut
DEEP = TINY.scaled(batch_size=16, num_layers=4)


class TestInterconnect:
    def test_allreduce_zero_for_single(self):
        assert PCIE.allreduce_us(10**6, 1) == 0.0
        assert NVLINK.allreduce_us(10**6, 1) == 0.0

    def test_allreduce_grows_with_world(self):
        assert PCIE.allreduce_us(10**6, 4) > PCIE.allreduce_us(10**6, 2)

    def test_allreduce_grows_with_bytes(self):
        assert PCIE.allreduce_us(10**7, 4) > PCIE.allreduce_us(10**6, 4)

    @settings(max_examples=30, deadline=None)
    @given(nbytes=st.integers(1, 1 << 30), world=st.integers(2, 16))
    @example(nbytes=10**7, world=4)
    def test_nvlink_faster_than_pcie(self, nbytes, world):
        """NVLink has more bandwidth and less latency per message than
        PCIe, so it wins every collective the fleets price."""
        assert NVLINK.allreduce_us(nbytes, world) < \
            PCIE.allreduce_us(nbytes, world)

    @settings(max_examples=30, deadline=None)
    @given(
        fabric=st.sampled_from([NVLINK, PCIE]),
        nbytes=st.integers(1, 1 << 30),
        world=st.integers(2, 16),
    )
    @example(fabric=PCIE, nbytes=10**7, world=16)
    def test_ring_volume_saturates(self, fabric, nbytes, world):
        """Each link of the ring carries 2(N-1)/N of the gradient, which
        approaches but never reaches twice the bytes: past the latency
        steps, a ring of any size costs less than moving the gradient
        twice, so growing the ring far from multiplies the time."""
        floor = 2 * (world - 1) * fabric.latency_us
        ceiling = floor + 2 * nbytes / fabric.link_bw_bytes_per_us
        assert fabric.allreduce_us(nbytes, world) < ceiling


class TestMeasureDegree:
    def test_strong_scaling_divides_batch(self):
        measurer = _measurer("sublstm", TINY.scaled(batch_size=8), 4)
        (x4,) = [
            s for s in enumerate_strategies(
                measurer.fleet, batch_size=8,
                num_layer_scopes=len(measurer.scopes),
            )
            if s.kind == "data" and s.world == 4
        ]
        outcome = measurer.measure_strategy(x4)
        assert [r["shard"] for r in outcome.detail["replicas"]] == [2] * 4
        assert outcome.samples == 8

    def test_communication_overlap_bounded(self):
        for fabric in (PCIE, NVLINK):
            measurer = _measurer(
                "sublstm", TINY.scaled(batch_size=8), 4, fabric,
            )
            for world in (1, 2, 4):
                detail = measurer.measure_strategy(_data(world, 8)).detail
                assert 0.0 <= detail["exposed_comm_us"] <= \
                    detail["allreduce_us"]
                assert (detail["allreduce_us"] > 0.0) == (world > 1)

    def test_gradient_bytes_counts_params(self, tiny_sublstm):
        params = list(tiny_sublstm.graph.params())
        assert params
        assert gradient_bytes(tiny_sublstm.graph) == sum(
            n.spec.size_bytes for n in params
        )
        measurer = _measurer("sublstm", TINY, 2)
        assert measurer.grad_bytes == gradient_bytes(tiny_sublstm.graph)

    def test_astra_inside_replicas(self):
        """Section 6.7: single-GPU adaptation speeds up every replica."""
        config = TINY.scaled(batch_size=8)
        native = _measurer("sublstm", config, 2)
        tuned = _measurer("sublstm", config, 2, use_astra=True)
        assert tuned.compute_us("P100", 4) < native.compute_us("P100", 4)
        assert tuned.measure_strategy(_data(2, 8)).per_sample_us < \
            native.measure_strategy(_data(2, 8)).per_sample_us


class TestChooseParallelism:
    def test_fabric_changes_the_answer(self):
        """The paper's point: the ideal degree depends on the physical
        network, so it is measured per deployment -- here by the fleet
        search over uniform eight-GPU fleets."""
        config = TINY.scaled(
            batch_size=256, seq_len=2, hidden_size=512, embed_size=512,
        )
        best = {
            fabric.name: run_fleet_search(
                MODEL_BUILDERS["sublstm"], config,
                uniform_fleet(fabric.name, P100, 8, fabric),
            ).winner.world
            for fabric in (PCIE, NVLINK)
        }
        assert best["nvlink"] > best["pcie"] > 1, best

    def test_degrees_beyond_batch_skipped(self):
        """Two samples cannot feed more than two replicas, however many
        devices the fleet has."""
        config = TINY.scaled(batch_size=2)
        fleet = uniform_fleet("pcie", P100, 8, PCIE)
        strategies = enumerate_strategies(
            fleet, batch_size=2, num_layer_scopes=1,
        )
        assert {s.world for s in strategies if s.kind == "data"} == {1, 2}
        report = run_fleet_search(MODEL_BUILDERS["sublstm"], config, fleet)
        assert report.strategies_total == len(strategies)
        assert report.winner.world <= 2

    def test_scaling_efficiency_baseline(self):
        """One replica is the plain single-GPU step: no all-reduce, no
        exposed communication, so it is the efficiency baseline."""
        measurer = _measurer("sublstm", TINY.scaled(batch_size=16), 2)
        base = measurer.measure_strategy(_data(1, 16))
        assert base.detail["allreduce_us"] == 0.0
        assert base.detail["exposed_comm_us"] == 0.0
        assert base.step_us == measurer.compute_us("P100", 16)
        assert base.per_sample_us == base.step_us / 16
        pair = measurer.measure_strategy(_data(2, 16))
        efficiency = [
            base.per_sample_us / o.per_sample_us for o in (base, pair)
        ]
        assert efficiency[0] == pytest.approx(1.0)
        assert efficiency[1] > 0.0


class TestPipeline:
    @pytest.fixture(scope="class")
    def deep_x4(self):
        return _measurer("stacked_lstm", DEEP, 4)

    def test_stages_partition_layers(self, deep_x4):
        stages = deep_x4.measure_strategy(_pipe(2)).detail["stages"]
        scopes = [scope for stage in stages for scope in stage["scopes"]]
        assert tuple(scopes) == deep_x4.scopes  # disjoint, in order
        assert len(set(scopes)) == len(scopes) == 4
        assert all(stage["compute_us"] > 0 for stage in stages)

    def test_bubble_grows_with_stages(self, deep_x4):
        """A GPipe step is (microbatches + stages - 1) beats: deeper
        pipelines pay more bubble slots."""
        two = deep_x4.measure_strategy(_pipe(2))
        four = deep_x4.measure_strategy(_pipe(4))
        assert four.step_us / four.detail["beat_us"] > \
            two.step_us / two.detail["beat_us"]

    def test_too_many_stages_rejected(self):
        """A single-layer model has one scope: five stages cannot each
        take a non-empty slice of it."""
        measurer = _measurer("sublstm", TINY, 5)
        assert len(measurer.scopes) == 1
        with pytest.raises(ValueError):
            measurer.measure_strategy(_pipe(5, layers=5))

    def test_partitioning_decision_measured(self):
        """On two devices a four-layer stack offers both data and
        pipeline partitionings; both are measured and the search picks
        the faster."""
        fleet = uniform_fleet("pcie", P100, 2, PCIE)
        report = run_fleet_search(
            MODEL_BUILDERS["stacked_lstm"], DEEP, fleet, exhaustive=True,
        )
        measurer = FleetMeasurer(MODEL_BUILDERS["stacked_lstm"], DEEP, fleet)
        outcomes = [
            measurer.measure_strategy(s)
            for s in enumerate_strategies(
                fleet, batch_size=16, num_layer_scopes=len(measurer.scopes),
            )
            if s.world == 2
        ]
        assert {o.strategy.kind for o in outcomes} == {"data", "pipeline"}
        assert all(o.per_sample_us > 0 for o in outcomes)
        assert report.strategies_measured == report.strategies_total
        assert report.winner_per_sample_us <= min(
            o.per_sample_us for o in outcomes
        )

    def test_single_layer_model_has_no_pipeline_option(self):
        config = TINY.scaled(batch_size=6)
        fleet = uniform_fleet("pcie", P100, 3, PCIE)
        report = run_fleet_search(
            MODEL_BUILDERS["sublstm"], config, fleet, exhaustive=True,
        )
        kinds = {row["kind"] for row in report.table}
        assert kinds == {"data"}
        assert report.winner.kind == "data"
