"""Reset process-wide memos so a width comparison starts cold.

Without this, whichever run goes first warms the GEMM-plan and
kernel-key memos for the second, and a comparison across widths would
depend on run order.
"""

from repro.gpu import libraries
from repro.perf import signature


def clear_process_memos() -> None:
    libraries._PLAN_MEMO.clear()
    signature._KERNEL_KEY_MEMO.clear()
