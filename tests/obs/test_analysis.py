"""Tests for critical-path attribution over executed timelines.

The analysis reads only a mini-batch's Chrome trace document, so every
graph here is built from ``chrome_trace`` of a real execution."""

import pytest

from repro.gpu import P100
from repro.gpu.kernels import ElementwiseLaunch, GemmLaunch
from repro.obs import chrome_trace
from repro.obs.analysis import (
    SEG_KERNEL,
    TimelineGraph,
    analyze,
    analyze_trace,
)
from repro.obs.observer import Observer
from repro.runtime import ExecutionPlan, Executor, Unit


@pytest.fixture()
def diamond_execution():
    """x -> (a, b) -> c with b on stream 1: two concurrent tracks plus a
    cross-stream wait edge, the smallest schedule with real contention."""
    from repro.ir import Tracer as IrTracer

    tr = IrTracer("diamond")
    x = tr.input((64, 64))
    w1 = tr.param((64, 256))
    w2 = tr.param((64, 256))
    a = tr.matmul(x, w1)
    b = tr.matmul(x, w2)
    c = tr.add(a, b)
    tr.output(c)
    units = [
        Unit(0, GemmLaunch(64, 64, 256, "cublas"), (a.node.node_id,)),
        Unit(1, GemmLaunch(64, 64, 256, "oai_1"), (b.node.node_id,)),
        Unit(2, ElementwiseLaunch(num_elements=64 * 256), (c.node.node_id,)),
    ]
    plan = ExecutionPlan(units=units, stream_of={0: 0, 1: 1, 2: 0})
    executor = Executor(tr.graph, P100)
    lowered = executor.dispatcher.lower(plan)
    result = executor.run_lowered(lowered).raw
    return result, lowered


def _graph(result, lowered) -> TimelineGraph:
    return TimelineGraph.from_chrome_trace(
        chrome_trace(result, lowered=lowered, device=P100)
    )


def _report(result, lowered):
    return analyze_trace(chrome_trace(result, lowered=lowered, device=P100))


def overlap_fraction(graph: TimelineGraph) -> float:
    """Fraction of wall time during which >= 2 kernels run concurrently."""
    edges = sorted(
        [(n.start, 1) for n in graph.nodes] + [(n.end, -1) for n in graph.nodes]
    )
    active, overlap, last = 0, 0.0, 0.0
    for time, delta in edges:
        if active >= 2:
            overlap += time - last
        active += delta
        last = time
    return overlap / max(graph.total_time_us, 1e-9)


class TestTimelineGraph:
    def test_one_node_per_record(self, diamond_execution):
        result, lowered = diamond_execution
        graph = _graph(result, lowered)
        assert len(graph.nodes) == len(result.records)

    def test_edges_point_index_forward(self, diamond_execution):
        result, lowered = diamond_execution
        graph = _graph(result, lowered)
        for consumer, producers in graph.wait_producers.items():
            for producer in producers:
                assert producer < consumer

    def test_cross_stream_edge_exists(self, diamond_execution):
        result, lowered = diamond_execution
        graph = _graph(result, lowered)
        cross = [
            (p, consumer)
            for consumer, producers in graph.wait_producers.items()
            for p in producers
            if graph.nodes[p].stream != graph.nodes[consumer].stream
        ]
        assert cross, "diamond join must produce a cross-stream wait edge"


class TestCriticalPath:
    def test_segments_partition_total_exactly(self, diamond_execution):
        result, lowered = diamond_execution
        report = _report(result, lowered)
        covered = sum(s.duration for s in report.segments)
        assert covered == pytest.approx(result.total_time_us, abs=1e-6)

    def test_segments_contiguous_and_ordered(self, diamond_execution):
        result, lowered = diamond_execution
        report = _report(result, lowered)
        assert report.segments[0].start == pytest.approx(0.0)
        assert report.segments[-1].end == pytest.approx(result.total_time_us)
        for prev, cur in zip(report.segments, report.segments[1:]):
            assert cur.start == pytest.approx(prev.end, abs=1e-6)

    def test_kernel_contributions_bounded_by_durations(self, diamond_execution):
        result, lowered = diamond_execution
        report = _report(result, lowered)
        graph = report.graph
        per_node: dict = {}
        for seg in report.segments:
            if seg.kind == SEG_KERNEL and seg.index is not None:
                per_node[seg.index] = per_node.get(seg.index, 0.0) + seg.duration
        for index, contribution in per_node.items():
            assert contribution <= graph.nodes[index].duration + 1e-6

    def test_kernel_table_ranked_descending(self, diamond_execution):
        result, lowered = diamond_execution
        report = _report(result, lowered)
        shares = [row["critical_us"] for row in report.kernels]
        assert shares == sorted(shares, reverse=True)

    def test_critical_records_in_time_order(self, diamond_execution):
        result, lowered = diamond_execution
        report = _report(result, lowered)
        starts = [report.graph.nodes[i].start for i in report.critical_records]
        assert starts == sorted(starts)

    def test_critical_nodes_have_zero_slack(self, diamond_execution):
        result, lowered = diamond_execution
        report = _report(result, lowered)
        # a node whose end time bounds the makespan cannot be slid at all
        makespan_enders = [
            n.index for n in report.graph.nodes
            if n.end == pytest.approx(report.gpu_makespan_us)
        ]
        for index in makespan_enders:
            assert report.slack_us[index] == pytest.approx(0.0, abs=1e-6)


class TestStreamAttribution:
    def test_per_stream_accounting_sums_to_total(self, diamond_execution):
        result, lowered = diamond_execution
        report = _report(result, lowered)
        assert report.streams, "two-stream plan must produce attributions"
        for stream in report.streams:
            covered = (
                stream.busy_us + stream.stall_wait_us
                + stream.stall_dispatch_us + stream.idle_us
            )
            assert covered == pytest.approx(result.total_time_us, abs=1e-6)

    def test_busy_matches_recorded_durations(self, diamond_execution):
        result, lowered = diamond_execution
        report = _report(result, lowered)
        for stream in report.streams:
            recorded = sum(
                n.duration for n in report.graph.nodes
                if n.stream == stream.stream
            )
            assert stream.busy_us == pytest.approx(recorded, abs=1e-6)


class TestTraceRoundTrip:
    def test_trace_analysis_matches_execution_analysis(self, diamond_execution):
        """The trace carries the execution's exact times: one node per
        record with the record's issue, start and end, and the total."""
        result, lowered = diamond_execution
        from_trace = analyze_trace(chrome_trace(result, lowered=lowered, device=P100))
        assert from_trace.total_time_us == pytest.approx(result.total_time_us)
        assert len(from_trace.graph.nodes) == len(result.records)
        for node, rec in zip(from_trace.graph.nodes, result.records):
            assert (node.issue, node.start, node.end) == pytest.approx(
                (rec.issue_time, rec.start_time, rec.end_time), rel=1e-6
            )

    def test_flow_edges_recovered_from_trace(self, diamond_execution):
        result, lowered = diamond_execution
        doc = chrome_trace(result, lowered=lowered, device=P100)
        graph = TimelineGraph.from_chrome_trace(doc)
        assert any(graph.wait_producers.values())


class TestReportOutputs:
    def test_render_mentions_top_kernel(self, diamond_execution):
        result, lowered = diamond_execution
        report = _report(result, lowered)
        text = report.render(top=5)
        assert "critical" in text
        assert report.kernels[0]["name"] in text

    def test_to_dict_is_json_clean(self, diamond_execution):
        import json

        result, lowered = diamond_execution
        report = _report(result, lowered)
        json.dumps(report.to_dict())

    def test_observe_into_publishes_gauges(self, diamond_execution):
        result, lowered = diamond_execution
        report = _report(result, lowered)
        observer = Observer()
        report.observe_into(observer)
        metrics = observer.metrics()
        assert metrics.gauge("analysis.total_time_us").value == pytest.approx(
            result.total_time_us
        )
        assert "analysis.critical.kernel_us" in metrics

    def test_empty_timeline_still_partitions(self):
        graph = TimelineGraph([], total_time_us=5.0, cpu_time_us=5.0)
        report = analyze(graph)
        assert sum(s.duration for s in report.segments) == pytest.approx(5.0)


class TestZooModels:
    def test_native_plan_critical_path_consistent(self, tiny_scrnn):
        from repro.baselines.native import native_plan

        graph = tiny_scrnn.graph
        executor = Executor(graph, P100)
        lowered = executor.dispatcher.lower(native_plan(graph))
        result = executor.run_lowered(lowered).raw
        report = _report(result, lowered)
        covered = sum(s.duration for s in report.segments)
        assert covered == pytest.approx(result.total_time_us, abs=1e-6)
        # single stream: busy time is the whole makespan story
        assert len(report.streams) == 1


def _gemm_pair(streams):
    """Two 256x1024x1024 GEMMs on ``streams``, run through the simulator."""
    from repro.gpu import GemmLaunch, HostSyncItem, LaunchItem, StreamSimulator

    items = [LaunchItem(GemmLaunch(256, 1024, 1024, "cublas"), s) for s in streams]
    return StreamSimulator(P100).run(items + [HostSyncItem()])


class TestOverlap:
    def test_utilization_per_stream(self):
        report = analyze_trace(chrome_trace(_gemm_pair((0, 1)), device=P100))
        util = {s.stream: s.utilization(report.total_time_us) for s in report.streams}
        assert set(util) == {0, 1}
        assert all(0 < u <= 1 for u in util.values())

    def test_overlap_positive_for_two_streams(self):
        graph = TimelineGraph.from_chrome_trace(chrome_trace(_gemm_pair((0, 1))))
        assert overlap_fraction(graph) > 0.5

    def test_overlap_zero_for_single_stream(self):
        graph = TimelineGraph.from_chrome_trace(chrome_trace(_gemm_pair((0, 0))))
        assert overlap_fraction(graph) == pytest.approx(0.0, abs=1e-9)

    def test_astra_streams_increase_overlap(self, small_sublstm, device):
        """Stream adaptation should produce measurable kernel overlap."""
        from repro import AstraSession

        fk = AstraSession(small_sublstm, features="FK", seed=1).optimize()
        fks = AstraSession(small_sublstm, features="FKS", seed=1).optimize()
        executor = Executor(small_sublstm.graph, device)
        overlaps = []
        for report in (fk, fks):
            lowered = executor.dispatcher.lower(report.astra.best_plan)
            result = executor.run_lowered(lowered).raw
            overlaps.append(overlap_fraction(_graph(result, lowered)))
        fk_overlap, fks_overlap = overlaps
        assert fks_overlap >= fk_overlap
