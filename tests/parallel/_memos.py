"""Reset process-wide memos so a compared run starts cold.

Without this, whichever run goes first warms the GEMM-plan memo for the
next, and a comparison between runs, or of a run against a golden cell,
would depend on run order.
"""

from repro.gpu import libraries


def clear_process_memos() -> None:
    libraries._PLAN_MEMO.clear()
