"""Section 3.4 extension: data-parallel degree chosen by measurement.

"Depending on the communication cost of the model and the physical
characteristics of the network, the choice of ideal degree of parallelism
... could be taken in an automated manner with runtime measurement and
adaptation."  This bench measures subLSTM scaling over PCIe and NVLink
fabrics: the best degree differs per fabric, which is exactly why a
static choice is wrong.  A homogeneous cluster is the degenerate fleet,
so every number here is priced by the one fleet measurer: the degree
curve as data strategies on uniform P100 fleets, the data-vs-pipeline
decision as two strategies on a P100 pair, and the mixed fleet as the
full strategy search.
"""

from harness import DEFAULT_CONFIGS, emit
from repro.fleet import (
    NVLINK, PCIE, FleetMeasurer, Strategy, get_fleet, run_fleet_search,
    uniform_fleet,
)
from repro.fleet.strategy import balanced_shards
from repro.gpu.device import P100
from repro.models import build_scrnn, build_stacked_lstm, build_sublstm


def build_table():
    config = DEFAULT_CONFIGS["sublstm"].scaled(batch_size=128, seq_len=5)
    payload = {}
    for fabric in (PCIE, NVLINK):
        measurer = FleetMeasurer(
            build_sublstm, config, uniform_fleet(fabric.name, P100, 8, fabric)
        )
        outcomes = [
            measurer.measure_strategy(Strategy(
                "data", ("P100",) * world,
                balanced_shards(config.batch_size, world),
            ))
            for world in (1, 2, 4, 8)
        ]
        base = outcomes[0]
        payload[fabric.name] = [
            {
                "world": o.strategy.world,
                "per_sample_us": o.per_sample_us,
                "exposed_comm_us": o.detail["exposed_comm_us"],
                "efficiency": base.per_sample_us / o.per_sample_us,
            }
            for o in outcomes
        ]
        best = min(outcomes, key=lambda o: o.per_sample_us)
        payload[fabric.name + "_best"] = best.strategy.world

    # model partitioning: data vs pipeline at world=2 on a 4-layer stack
    deep = DEFAULT_CONFIGS["stacked_lstm"].scaled(
        batch_size=32, seq_len=4, num_layers=4
    )
    pair = FleetMeasurer(
        build_stacked_lstm, deep, uniform_fleet("pcie", P100, 2, PCIE)
    )
    decisions = sorted(
        (
            pair.measure_strategy(Strategy(
                "data", ("P100", "P100"), balanced_shards(deep.batch_size, 2)
            )),
            pair.measure_strategy(Strategy(
                "pipeline", ("P100", "P100"), cuts=(2, 2), microbatches=4
            )),
        ),
        key=lambda o: o.per_sample_us,
    )
    payload["partitioning"] = [
        {"kind": o.strategy.kind, "per_sample_us": o.per_sample_us}
        for o in decisions
    ]

    # heterogeneous fleet: the exhaustive sweep over a mixed 2xP100+2xV100
    # NVLink fleet finds a weighted-split winner that no homogeneous subset
    # matches at full batch
    fleet = get_fleet("hetero")
    scrnn = DEFAULT_CONFIGS["scrnn"].scaled(batch_size=256, seq_len=5)
    report = run_fleet_search(
        build_scrnn, scrnn, fleet, model_name="scrnn", exhaustive=True
    )
    payload["fleet"] = {
        "model": "scrnn",
        "batch": scrnn.batch_size,
        "fleet": report.fleet,
        "winner": report.winner.label,
        "winner_hetero": report.hetero_winner,
        "winner_per_sample_us": report.winner_per_sample_us,
        "best_homogeneous": report.best_homogeneous_label,
        "best_homogeneous_us": report.best_homogeneous_us,
        "strategies": [
            {
                "label": row["label"],
                "kind": row["kind"],
                "heterogeneous": row["heterogeneous"],
                "per_sample_us": row["per_sample_us"],
            }
            for row in report.table
        ],
    }

    # the same fleet on a deep stack enumerates pipeline cuts alongside
    # data-parallel strategies -- both kinds land in one adaptive variable
    deep_report = run_fleet_search(
        build_stacked_lstm,
        deep,
        fleet,
        model_name="stacked_lstm",
        exhaustive=True,
        microbatches=4,
    )
    payload["fleet_partitioning"] = {
        "model": "stacked_lstm",
        "winner": deep_report.winner.label,
        "winner_kind": deep_report.winner.kind,
        "strategies": [
            {
                "label": row["label"],
                "kind": row["kind"],
                "per_sample_us": row["per_sample_us"],
            }
            for row in deep_report.table
        ],
    }
    return payload


def test_ablation_multigpu(table_benchmark):
    payload = table_benchmark(build_table)
    rows = []
    for fabric in ("pcie", "nvlink"):
        for m in payload[fabric]:
            rows.append([
                fabric, m["world"], f"{m['per_sample_us']:.1f}",
                f"{m['exposed_comm_us']:.0f}us", f"{m['efficiency']:.2f}",
            ])
    emit(
        "Ablation (section 3.4): data-parallel degree by measurement",
        ["fabric", "GPUs", "us/sample", "exposed comm", "efficiency"],
        rows,
        "ablation_multigpu",
        payload,
    )
    rows2 = [
        ["(partitioning)", d["kind"], f"{d['per_sample_us']:.1f}", "-", "-"]
        for d in payload["partitioning"]
    ]
    for s in payload["fleet_partitioning"]["strategies"]:
        us = s["per_sample_us"]
        rows2.append([
            "(hetero fleet)", s["kind"],
            f"{us:.1f}" if us is not None else "-", s["label"], "-",
        ])
    emit(
        "Ablation (section 6.7): data vs pipeline partitioning at world=2",
        ["fabric", "kind", "us/sample", "-", "-"],
        rows2,
        "ablation_partitioning",
        {
            "world2": payload["partitioning"],
            "hetero_fleet": payload["fleet_partitioning"],
        },
    )
    fleet = payload["fleet"]
    rows3 = [
        [
            s["kind"], "hetero" if s["heterogeneous"] else "homo",
            f"{s['per_sample_us']:.3f}" if s["per_sample_us"] is not None else "-",
            s["label"],
        ]
        for s in fleet["strategies"]
    ]
    emit(
        f"Ablation (hetero fleet): scrnn@{fleet['batch']} on {fleet['fleet']}",
        ["kind", "mix", "us/sample", "strategy"],
        rows3,
        "ablation_fleet",
        fleet,
    )
    # communication-bound on PCIe caps scaling earlier than NVLink
    assert payload["nvlink_best"] >= payload["pcie_best"]
    # efficiency decays with world size on the slower fabric
    pcie_eff = [m["efficiency"] for m in payload["pcie"]]
    assert pcie_eff[-1] < pcie_eff[0] * 1.5
    # both partitioning kinds measured; ordering by measured time
    kinds = [d["kind"] for d in payload["partitioning"]]
    assert set(kinds) == {"data", "pipeline"}
    # the mixed fleet's winner uses both device classes and beats every
    # homogeneous placement at full batch
    assert fleet["winner_hetero"], fleet["winner"]
    assert fleet["winner_per_sample_us"] < fleet["best_homogeneous_us"]
    # the deep stack enumerates both partitioning kinds in one variable
    fleet_kinds = {s["kind"] for s in payload["fleet_partitioning"]["strategies"]}
    assert fleet_kinds == {"data", "pipeline"}
