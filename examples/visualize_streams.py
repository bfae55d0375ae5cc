#!/usr/bin/env python
"""Visualize what stream adaptation actually does to a schedule.

Analyzes the executed mini-batch before and after Astra's stream phase
(paper section 4.5.3-4.5.5): the single-stream fusion-only plan vs the
custom-wired multi-stream plan.  Each mini-batch is rendered as a Chrome
trace, and the trace's critical-path analysis prints what bounds the
epoch and per-stream busy/stall attribution: with streams, the busy
times add up to more than the epoch, because kernels overlap.  For the
zoomable timeline of the same data, write the trace with
``python -m repro profile sublstm --features FKS -o`` and open it in
https://ui.perfetto.dev.

Run:  python examples/visualize_streams.py
"""

from repro import AstraSession
from repro.gpu import P100
from repro.models import ModelConfig, build_sublstm
from repro.obs import analyze_trace, chrome_trace
from repro.runtime import Executor


def show(title: str, executor: Executor, plan) -> None:
    lowered = executor.dispatcher.lower(plan)
    report = analyze_trace(chrome_trace(
        executor.run_lowered(lowered).raw, lowered=lowered, device=P100,
    ))
    print(f"\n== {title}")
    print(report.render(top=5))


def main() -> None:
    config = ModelConfig(batch_size=16, seq_len=4, hidden_size=650,
                         embed_size=650, vocab_size=2000)
    model = build_sublstm(config)
    executor = Executor(model.graph, P100)

    fk = AstraSession(model, features="FK", seed=1).optimize()
    fks = AstraSession(model, features="FKS", seed=1).optimize()

    show("Astra_FK: fusion + kernel selection, single stream",
         executor, fk.astra.best_plan)
    show("Astra_FKS: + stream adaptation (barrier/prefix exploration)",
         executor, fks.astra.best_plan)

    print(f"\nmini-batch: {fk.best_time_us / 1000:.2f} ms -> "
          f"{fks.best_time_us / 1000:.2f} ms "
          f"({fk.best_time_us / fks.best_time_us:.2f}x from streams)")


if __name__ == "__main__":
    main()
