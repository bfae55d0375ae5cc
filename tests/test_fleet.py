"""Multi-GPU fleet strategy search (docs/distributed.md).

The load-bearing claims, each pinned here:

* the interconnect all-reduce and contention models are monotone where
  physics says they must be (hypothesis properties);
* a homogeneous cluster is the degenerate fleet: the section 3.4 degree
  curve and the data-vs-pipeline decision of
  ``benchmarks/results/ablation_multigpu.json`` come out of the fleet
  measurer exactly (the rest of homogeneous scaling is pinned in
  ``tests/test_distributed.py``);
* the analytic strategy bound is *admissible* -- never above the
  measured per-sample time -- so bound pruning is winner-preserving:
  the pruned search's winner is bit-identical to the exhaustive
  sweep's, on any worker count;
* pruning stands down whenever its exactness preconditions fail
  (fault injection, autoboost clocks, inner-Astra compute), and a
  faulted search still converges to the same faulted winner pruned or
  exhaustive;
* inner-Astra compute pre-ranks each device class's FK choices with the
  cost model and measures fewer of them, yet every calibration value,
  every compute primitive and the winner equal the exhaustive search's,
  at one worker and at two;
* on the default NVLink hetero fleet at batch 256, the winner is a
  heterogeneous placement that beats the best homogeneous one -- the
  claim the fleet exists to demonstrate -- and it is the committed
  winner at the committed per-sample time, found after measuring 1 of
  12 strategies.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.fleet.pool as fleet_pool
import repro.fleet.search as fleet_search
from repro.core import wirer
from repro.faults.plan import FaultPlan
from repro.fleet import (
    FLEETS,
    NVLINK,
    PCIE,
    FleetMeasurer,
    Strategy,
    enumerate_strategies,
    get_fleet,
    run_fleet_search,
    uniform_fleet,
    with_clock,
)
from repro.fleet.pool import FleetWorkerSpec
from repro.fleet.strategy import (
    balanced_shards, resolve_weighted_shards, weighted_shards,
)
from repro.gpu.device import P100
from repro.models import MODEL_BUILDERS
from repro.obs.observer import Observer
from repro.perf.ranker import prune_fk_tree

#: the committed section 3.4 / 6.7 ablation document
ABLATION_MULTIGPU = (
    Path(__file__).resolve().parents[1]
    / "benchmarks" / "results" / "ablation_multigpu.json"
)


def _config(name: str, batch: int = 64):
    module = __import__(f"repro.models.{name}", fromlist=["DEFAULT_CONFIG"])
    return module.DEFAULT_CONFIG.scaled(batch_size=batch, seq_len=5)


def _search(name: str, batch: int = 64, **kwargs):
    return run_fleet_search(
        MODEL_BUILDERS[name], _config(name, batch), get_fleet("hetero"),
        model_name=name, **kwargs,
    )


@pytest.fixture(scope="module")
def scrnn_exhaustive():
    return _search("scrnn", exhaustive=True)


#: scrnn b256 seq5 on the hetero fleet, seed 0: the committed winner
HETERO_256_WINNER = "data x4 [P100,P100,V100,V100] weighted (54/54/74/74)"
HETERO_256_US = 7.529488581727436


@pytest.fixture(scope="module")
def scrnn_256_exhaustive():
    return _search("scrnn", batch=256, exhaustive=True)


# ---------------------------------------------------------------------------
# interconnect contention model
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    fabric=st.sampled_from([NVLINK, PCIE]),
    nbytes=st.integers(1, 1 << 30),
    extra=st.integers(1, 1 << 20),
    world=st.integers(2, 8),
)
def test_allreduce_monotone_in_bytes(fabric, nbytes, extra, world):
    assert fabric.allreduce_us(nbytes + extra, world) >= \
        fabric.allreduce_us(nbytes, world)


@settings(max_examples=30, deadline=None)
@given(
    fabric=st.sampled_from([NVLINK, PCIE]),
    nbytes=st.integers(1, 1 << 30),
    world=st.integers(1, 7),
)
# a single replica has nothing to reduce
@example(fabric=PCIE, nbytes=10**6, world=1)
@example(fabric=PCIE, nbytes=10**6, world=3)
def test_allreduce_cost_non_decreasing_in_world(fabric, nbytes, world):
    """Growing the ring never makes the collective cheaper: the latency
    term grows linearly and the bandwidth term's (world-1)/world factor
    approaches 1 from below.  Each added replica adds two latency-bound
    steps, so the cost in fact grows strictly, from exactly zero at one
    replica."""
    assert fabric.allreduce_us(nbytes, 1) == 0.0
    assert fabric.allreduce_us(nbytes, world + 1) > \
        fabric.allreduce_us(nbytes, world)


@settings(max_examples=30, deadline=None)
@given(
    fabric=st.sampled_from([NVLINK, PCIE]),
    nbytes=st.integers(1, 1 << 30),
    extra=st.integers(1, 1 << 20),
    concurrent=st.integers(1, 7),
)
def test_contended_us_monotone(fabric, nbytes, extra, concurrent):
    """More bytes and more concurrent transfers both cost more; a single
    transfer is the uncontended floor."""
    base = fabric.contended_us(nbytes, concurrent)
    assert fabric.contended_us(nbytes + extra, concurrent) >= base
    assert fabric.contended_us(nbytes, concurrent + 1) >= base
    assert fabric.contended_us(nbytes, 1) <= base


# ---------------------------------------------------------------------------
# strategy space
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(batch=st.integers(1, 512), world=st.integers(1, 8))
# the strong-scaling case: every replica takes batch / world
@example(batch=8, world=4)
def test_balanced_shards_partition_the_batch(batch, world):
    shards = balanced_shards(batch, world)
    assert sum(shards) == batch
    assert max(shards) - min(shards) <= 1


@settings(max_examples=30, deadline=None)
@given(
    batch=st.integers(4, 512),
    speeds=st.lists(st.floats(10.0, 1000.0), min_size=2, max_size=4),
)
# the one-sample floor lifts the slow replica to 1; it must not then also
# take the leftover sample ahead of the fast ones
@example(batch=5, speeds=[10.0, 10.0, 10.0, 14.0])
# the floor overshoots the batch: the sample clawed back must come from
# the replica most over its raw share, not from the fastest one
@example(batch=5, speeds=[40.8, 48.8, 400.0, 400.0])
@example(batch=5, speeds=[10.0, 10.0, 40.0, 40.0])
def test_weighted_shards_partition_and_favor_fast_devices(batch, speeds):
    placement = tuple(f"cls{i}" for i in range(len(speeds)))
    speed_us = dict(zip(placement, speeds))
    shards = weighted_shards(batch, placement, speed_us)
    assert sum(shards) == batch
    assert all(s >= 1 for s in shards)
    # deterministic
    assert shards == weighted_shards(batch, placement, speed_us)
    # a faster device never gets fewer samples; equal speeds favour the
    # lower index
    for i in range(len(speeds)):
        for j in range(i + 1, len(speeds)):
            if speeds[i] <= speeds[j]:
                assert shards[i] >= shards[j], (i, j, shards)
            else:
                assert shards[i] <= shards[j], (i, j, shards)


def test_strategy_key_roundtrip_over_enumeration():
    fleet = get_fleet("hetero")
    strategies = enumerate_strategies(
        fleet, batch_size=64, num_layer_scopes=2, microbatches=4,
    )
    keys = [s.key() for s in strategies]
    assert len(set(keys)) == len(keys), "strategy keys must be unique"
    for s, key in zip(strategies, keys):
        assert Strategy.from_key(key) == s
    kinds = {s.kind for s in strategies}
    assert kinds == {"data", "pipeline"}


@settings(max_examples=30, deadline=None)
@given(
    fleet=st.sampled_from(sorted(FLEETS)),
    batch=st.integers(1, 8),
    scopes=st.integers(1, 5),
)
@example(fleet="p100x4", batch=2, scopes=4)
def test_enumeration_respects_world_batch_and_scopes(fleet, batch, scopes):
    """No data strategy has more replicas than devices or samples, and no
    pipeline has more stages than devices or layer scopes to cut."""
    spec = get_fleet(fleet)
    strategies = enumerate_strategies(
        spec, batch_size=batch, num_layer_scopes=scopes,
    )
    for s in strategies:
        if s.kind == "data":
            assert s.world <= min(spec.world, batch), s.label
        else:
            assert len(s.cuts) <= min(spec.world, scopes), s.label
            assert sum(s.cuts) == scopes, s.label


def test_single_scope_model_enumerates_no_pipelines():
    strategies = enumerate_strategies(
        get_fleet("hetero"), batch_size=64, num_layer_scopes=1,
    )
    assert all(s.kind == "data" for s in strategies)


# ---------------------------------------------------------------------------
# bound admissibility and pruning equivalence
# ---------------------------------------------------------------------------


def test_bound_admissible_on_every_measured_strategy(scrnn_exhaustive):
    rows = [r for r in scrnn_exhaustive.table if r["per_sample_us"] is not None]
    assert len(rows) == scrnn_exhaustive.strategies_total
    for row in rows:
        assert row["bound_us"] <= row["per_sample_us"] + 1e-9, row["label"]


@pytest.mark.parametrize("name", ["scrnn", "milstm"])
def test_pruned_winner_identical_to_exhaustive(name):
    pruned = _search(name)
    exhaustive = _search(name, exhaustive=True)
    assert pruned.winner.key() == exhaustive.winner.key()
    assert pruned.winner_per_sample_us == exhaustive.winner_per_sample_us
    assert pruned.strategies_pruned > 0
    assert pruned.measured_fraction <= 0.5
    assert pruned.standdown is None


def test_pruned_winner_identical_on_two_workers(scrnn_exhaustive):
    """Worker count changes wall-clock only: the multi-process search
    merges worker records deterministically and lands on the same winner
    and the same value."""
    two = _search("scrnn", exhaustive=True, workers=2)
    assert two.winner.key() == scrnn_exhaustive.winner.key()
    assert two.winner_per_sample_us == scrnn_exhaustive.winner_per_sample_us
    assert two.engine.get("workers") == 2


def _document(report) -> dict:
    doc = report.to_dict()
    del doc["engine"], doc["workers"]
    return doc


def _benchmark_job(workers: int, **kwargs):
    """The benchmark's fleet job: milstm b256 seq 2 on the hetero fleet
    with inner-Astra compute, so strategy pruning stands down (the inner
    sessions' FK pre-ranking still runs)."""
    config = _config("milstm", 256).scaled(seq_len=2)
    return run_fleet_search(
        MODEL_BUILDERS["milstm"], config, get_fleet("hetero"),
        model_name="milstm", workers=workers, use_astra=True, **kwargs,
    )


def _chaos_exhaustive(workers: int, **kwargs):
    return _search(
        "scrnn", faults=FaultPlan.single("slowdown", 0.5, seed=7),
        exhaustive=True, workers=workers, **kwargs,
    )


@pytest.mark.parametrize("job", [_benchmark_job, _chaos_exhaustive])
def test_report_identical_at_one_and_two_workers(job):
    """Every reported number, bounds included, is the same whichever
    width measured the primitives and wherever their prices came from;
    so are the ``fleet.*`` metrics, measurement counts included."""
    docs, fleet_metrics = [], []
    for workers in (1, 2):
        observer = Observer()
        docs.append(_document(job(workers, observer=observer)))
        fleet_metrics.append({
            name: value for name, value in observer.metrics().snapshot().items()
            if name.startswith("fleet.")
        })
    assert docs[0] == docs[1]
    assert fleet_metrics[0] == fleet_metrics[1]
    assert fleet_metrics[0]["fleet.measure.strategies"]["value"] == 12


def test_wave_dispatches_each_missing_primitive_once():
    """The wave holds exactly the distinct (class, shard) primitives
    calibration left unmeasured: no primitive is dispatched twice."""
    report = _benchmark_job(2)
    batch = report.batch_size
    strategies = resolve_weighted_shards(
        enumerate_strategies(get_fleet("hetero"), batch_size=batch,
                             num_layer_scopes=1),
        batch, report.calibration,
    )
    assert all(s.kind == "data" for s in strategies)
    wanted = {
        (cls, shard)
        for s in strategies for cls, shard in zip(s.placement, s.shards)
    } - {(cls, batch) for cls in report.calibration}
    assert report.engine["candidates"] == len(wanted) == 17
    assert report.engine["shards"] == 2


def _searched_index(monkeypatch, job, **kwargs):
    """Run ``job`` and return its report, the search measurer's index and
    how many FK choices in-process inner sessions pruned."""
    made, pruned = [], []

    class Capturing(FleetMeasurer):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    def counting_prune(*args, **kw):
        pruned.append(prune_fk_tree(*args, **kw))
        return pruned[-1]

    monkeypatch.setattr(fleet_search, "FleetMeasurer", Capturing)
    monkeypatch.setattr(wirer, "prune_fk_tree", counting_prune)
    report = job(**kwargs)
    (measurer,) = made
    return report, measurer.index.snapshot(), measurer, sum(pruned)


def test_inner_prerank_measures_less_and_changes_nothing(monkeypatch):
    """Inner sessions pre-rank their FK choices unless the search is
    exhaustive, which prunes none.  The pruned search stores fewer
    inner-session entries, yet every calibration value, every compute
    primitive the wave measured and the winner equal the exhaustive
    search's.  At two workers the merged index and the document equal
    width one's.  At width 1 every inner session counts its pruning on
    the search's observer."""
    pruned, pruned_index, measurer, choices_pruned = _searched_index(
        monkeypatch, _benchmark_job, workers=1, observer=Observer(),
    )
    exhaustive, exhaustive_index, _, none_pruned = _searched_index(
        monkeypatch, _benchmark_job, workers=1, exhaustive=True,
    )
    two, two_index, _, _ = _searched_index(
        monkeypatch, _benchmark_job, workers=2,
    )
    assert choices_pruned > 0 and none_pruned == 0

    context = len(measurer.context)

    def entries(index, kind):
        return {k: v for k, v in index.items() if k[context] == kind}

    assert pruned.calibration == exhaustive.calibration
    compute = entries(pruned_index, "compute")
    metrics = measurer.observer.metrics().snapshot()
    assert len(compute) == metrics["fleet.measure.compute"]["value"]
    assert metrics["perf.prune.choices_pruned"]["value"] == choices_pruned
    assert len(compute) == len(pruned.calibration) + two.engine["candidates"]
    assert compute == entries(exhaustive_index, "compute")
    assert pruned.winner.key() == exhaustive.winner.key()
    assert pruned.winner_per_sample_us == exhaustive.winner_per_sample_us
    inner, inner_all = (
        entries(pruned_index, "inner"), entries(exhaustive_index, "inner"),
    )
    assert 0 < len(inner) < len(inner_all)
    assert set(inner) < set(inner_all)

    assert _document(two) == _document(pruned)
    assert two_index == pruned_index


def test_inner_sessions_leave_no_run_gauges():
    """Each inner session observes on its own observer and hands the
    search everything but its gauges, which hold one session's value:
    the search's metrics carry no ``astra.best_time_us`` and no
    ``perf.choices_*`` gauge, while the counters still sum over every
    session."""
    observer = Observer()
    _benchmark_job(1, observer=observer)
    metrics = observer.metrics().snapshot()
    assert "astra.best_time_us" not in metrics
    assert "perf.choices_pruned" not in metrics
    assert not any(name.startswith("profile_index.") for name in metrics)
    assert metrics["perf.prune.choices_pruned"]["value"] == 1216


def test_width_one_builds_each_batch_once():
    """At width 1 the composition measures every primitive on the
    search's own measurer, so the graphs it built for calibration,
    measurement and pricing are never rebuilt."""
    built: list[int] = []

    def counting_builder(config):
        built.append(config.batch_size)
        return MODEL_BUILDERS["scrnn"](config)

    observer = Observer()
    report = run_fleet_search(
        counting_builder, _config("scrnn", 256), get_fleet("hetero"),
        model_name="scrnn", exhaustive=True, observer=observer,
    )
    assert report.engine == {}
    measured = observer.metrics().snapshot()["fleet.measure.compute"]["value"]
    assert measured > len(report.calibration) + 1
    assert sorted(built) == sorted(set(built))
    assert len(built) > 1


def test_pool_worker_builds_no_full_batch_model(monkeypatch):
    """A pool worker adopts the parent's job identity from its spec: it
    builds only the graphs of the primitives it measures, never the
    full-batch model, and keys them exactly as the parent does."""
    config = _config("scrnn", 256)
    fleet = get_fleet("hetero")
    parent = FleetMeasurer(MODEL_BUILDERS["scrnn"], config, fleet)
    built: list[int] = []

    def counting_builder(config):
        built.append(config.batch_size)
        return MODEL_BUILDERS["scrnn"](config)

    spec = FleetWorkerSpec(
        builder=counting_builder, config=config, fleet=fleet, job=parent.job,
    )
    monkeypatch.setattr(fleet_pool, "_MEASURER", spec.measurer())
    primitive = ("compute", sorted(fleet.class_specs())[0], 64)
    (outcome,) = fleet_pool.run_shard([primitive])
    assert built == [64]
    parent.measure_primitive(primitive)
    assert dict(outcome.records) == parent.index.snapshot()


def test_pipeline_strategies_measured_on_multilayer_model():
    report = _search_stacked(exhaustive=True)
    pipeline_rows = [r for r in report.table if r["kind"] == "pipeline"]
    assert pipeline_rows, "stacked_lstm must enumerate pipeline cuts"
    for row in pipeline_rows:
        assert row["per_sample_us"] is not None
        assert row["bound_us"] <= row["per_sample_us"] + 1e-9


def _search_stacked(**kwargs):
    return run_fleet_search(
        MODEL_BUILDERS["stacked_lstm"], _config("stacked_lstm"),
        get_fleet("hetero"), model_name="stacked_lstm", **kwargs,
    )


def test_hetero_winner_beats_best_homogeneous_at_full_batch(
    scrnn_256_exhaustive,
):
    report = scrnn_256_exhaustive
    assert report.hetero_winner, report.winner.label
    assert report.best_homogeneous_measured
    assert report.winner_per_sample_us < report.best_homogeneous_us
    # the committed winner, exact: any drift is a behaviour change
    assert report.winner.label == HETERO_256_WINNER
    assert report.winner_per_sample_us == HETERO_256_US
    assert report.strategies_measured == report.strategies_total == 12

    # bound pruning lands on the same winner after measuring only it
    pruned = _search("scrnn", batch=256)
    assert pruned.winner.label == HETERO_256_WINNER
    assert pruned.winner_per_sample_us == HETERO_256_US
    assert (pruned.strategies_measured, pruned.strategies_total) == (1, 12)


# ---------------------------------------------------------------------------
# stand-downs
# ---------------------------------------------------------------------------


def test_chaos_standdown_and_same_faulted_winner():
    plan = FaultPlan.single("slowdown", 0.5, seed=7)
    pruned = _search("scrnn", faults=plan)
    exhaustive = _search("scrnn", faults=plan, exhaustive=True)
    assert pruned.standdown == "faults"
    assert pruned.strategies_pruned == 0
    assert pruned.winner.key() == exhaustive.winner.key()
    assert pruned.winner_per_sample_us == exhaustive.winner_per_sample_us


def test_inner_astra_stands_pruning_down():
    report = _search("scrnn", use_astra=True)
    assert report.standdown == "inner_astra"
    assert report.strategies_pruned == 0


def test_autoboost_clock_stands_pruning_down():
    fleet = with_clock(get_fleet("hetero"), "autoboost")
    report = run_fleet_search(
        MODEL_BUILDERS["scrnn"], _config("scrnn"), fleet, model_name="scrnn",
    )
    assert report.standdown == "clock"
    assert report.strategies_pruned == 0


def test_use_astra_and_faults_are_mutually_exclusive():
    with pytest.raises(ValueError):
        FleetMeasurer(
            MODEL_BUILDERS["scrnn"], _config("scrnn"), get_fleet("hetero"),
            use_astra=True, faults=FaultPlan.single("slowdown", 0.5, seed=1),
        )


# ---------------------------------------------------------------------------
# measurement sharing and accounting
# ---------------------------------------------------------------------------


def test_primitives_shared_across_strategies(scrnn_exhaustive):
    """Measuring all 12 strategies must not cost 12 full measurements:
    same (class, shard) compute primitives are measured once and shared."""
    measurer = FleetMeasurer(
        MODEL_BUILDERS["scrnn"], _config("scrnn"), get_fleet("hetero"),
    )
    a = measurer.compute_us("V100", 32)
    snapshot = len(measurer.index.snapshot())
    b = measurer.compute_us("V100", 32)
    assert a == b
    assert len(measurer.index.snapshot()) == snapshot, "cache hit re-recorded"


def test_pipeline_sample_accounting_when_batch_below_microbatches():
    """batch < microbatches degenerates to micro-batch 1 and the step
    still accounts for microbatches * micro samples."""
    measurer = FleetMeasurer(
        MODEL_BUILDERS["stacked_lstm"], _config("stacked_lstm", batch=2),
        get_fleet("hetero"),
    )
    strategy = Strategy(
        kind="pipeline", placement=("P100", "V100"), cuts=(1, 1),
        microbatches=4,
    )
    outcome = measurer.measure_strategy(strategy)
    assert outcome.detail["microbatch"] == 1
    assert outcome.samples == 4
    assert outcome.per_sample_us == outcome.step_us / 4


def test_analytic_stage_sheet_matches_measured_at_base_clock():
    """The admissibility argument leans on analytic and measured stage
    attribution being byte-identical at base clock -- same per-unit
    costs, same scope attribution.  Pin it."""
    measurer = FleetMeasurer(
        MODEL_BUILDERS["stacked_lstm"], _config("stacked_lstm"),
        get_fleet("hetero"),
    )
    for cls in ("P100", "V100"):
        analytic = measurer.analytic_stage_lo(cls, 16)
        measured = measurer.stage_us(cls, 16)
        assert set(analytic) >= set(measured)
        for scope, value in measured.items():
            assert analytic[scope] == pytest.approx(value, rel=1e-9), (
                cls, scope,
            )


# ---------------------------------------------------------------------------
# homogeneous scaling: the degenerate fleet
# ---------------------------------------------------------------------------


def _data(world: int, batch: int) -> Strategy:
    return Strategy("data", ("P100",) * world, balanced_shards(batch, world))


def test_multigpu_ablation_matches_committed_document():
    """The section 3.4 degree curve and the world-2 partitioning decision,
    priced by the fleet measurer the way the ablation benchmark prices
    them, equal every committed number of ``ablation_multigpu.json``."""
    committed = json.loads(ABLATION_MULTIGPU.read_text())
    config = _config("sublstm", batch=128)
    for fabric in (PCIE, NVLINK):
        measurer = FleetMeasurer(
            MODEL_BUILDERS["sublstm"], config,
            uniform_fleet(fabric.name, P100, 8, fabric),
        )
        outcomes = [
            measurer.measure_strategy(_data(w, 128)) for w in (1, 2, 4, 8)
        ]
        rows = [
            {
                "world": o.strategy.world,
                "per_sample_us": o.per_sample_us,
                "exposed_comm_us": o.detail["exposed_comm_us"],
                "efficiency": outcomes[0].per_sample_us / o.per_sample_us,
            }
            for o in outcomes
        ]
        assert rows == committed[fabric.name]
        best = min(outcomes, key=lambda o: o.per_sample_us).strategy.world
        assert best == committed[fabric.name + "_best"]

    deep = _config("stacked_lstm", batch=32).scaled(seq_len=4, num_layers=4)
    pair = FleetMeasurer(
        MODEL_BUILDERS["stacked_lstm"], deep,
        uniform_fleet("pcie", P100, 2, PCIE),
    )
    data = pair.measure_strategy(_data(2, 32))
    pipe = pair.measure_strategy(Strategy(
        "pipeline", ("P100", "P100"), cuts=(2, 2), microbatches=4,
    ))
    assert committed["partitioning"] == [
        {"kind": "data", "per_sample_us": data.per_sample_us},
        {"kind": "pipeline", "per_sample_us": pipe.per_sample_us},
    ]


# ---------------------------------------------------------------------------
# report, trace, bench
# ---------------------------------------------------------------------------


def test_report_to_dict_is_json_serializable(scrnn_exhaustive):
    doc = scrnn_exhaustive.to_dict()
    text = json.dumps(doc)
    assert json.loads(text)["winner"]["label"] == scrnn_exhaustive.winner.label


def test_fleet_trace_validates(scrnn_exhaustive):
    from repro.obs.trace import fleet_trace, validate_chrome_trace

    doc = fleet_trace(scrnn_exhaustive)
    summary = validate_chrome_trace(doc)
    assert summary["events"] > 0
    assert len(summary["tracks"]) >= scrnn_exhaustive.winner.world


def test_fleet_trace_validates_for_pipeline_winner():
    from repro.obs.trace import fleet_trace, validate_chrome_trace

    measurer = FleetMeasurer(
        MODEL_BUILDERS["stacked_lstm"], _config("stacked_lstm"),
        get_fleet("hetero"),
    )
    strategy = Strategy(
        kind="pipeline", placement=("P100", "V100"), cuts=(1, 1),
        microbatches=4,
    )
    outcome = measurer.measure_strategy(strategy)

    class _Rep:
        winner = strategy
        winner_detail = outcome.detail
        winner_per_sample_us = outcome.per_sample_us
        winner_step_us = outcome.step_us
        fleet = "hetero"

    doc = fleet_trace(_Rep())
    assert validate_chrome_trace(doc)["events"] > 0
