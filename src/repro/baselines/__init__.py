"""Baselines the paper compares against: native frameworks, cuDNN-style
compound kernels, and an XLA-style static compiler."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "native": ("native_plan", "run_native"),
    "cudnn": ("cudnn_applicable", "cudnn_plan", "detect_lstm_steps", "run_cudnn"),
    "xla": ("run_xla", "xla_plan"),
})
