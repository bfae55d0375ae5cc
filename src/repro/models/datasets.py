"""Synthetic dataset length distributions.

The paper's experiments only depend on input *shapes*, never values
(section 4.1) -- so the datasets are modelled by their sentence-length
distributions.  The PTB distribution drives the dynamic-graph bucketing
experiment (section 5.5 / Table 8): the paper calibrated 5 buckets on PTB
and obtained bucket boundaries of 13, 18, 24, 30 and 83 tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

#: the bucket boundaries the paper reports for PTB with 5 buckets
PAPER_PTB_BUCKETS = (13, 18, 24, 30, 83)


@dataclass(frozen=True)
class LengthDistribution:
    """A sentence-length distribution used to drive dynamic-graph runs."""

    name: str
    mean_log: float
    sigma_log: float
    min_len: int
    max_len: int

    def sample(self, count: int, seed: int = 0) -> np.ndarray:
        import numpy as np

        rng = np.random.default_rng(seed)
        lengths = np.exp(rng.normal(self.mean_log, self.sigma_log, size=count))
        return np.clip(np.round(lengths), self.min_len, self.max_len).astype(int)


#: log-normal fit loosely matching PTB's length histogram (mean ~21 tokens,
#: long tail to 82) -- reproduces the paper's bucket boundaries when
#: quantile-bucketed into 5 buckets (see compute_buckets)
PTB_LENGTHS = LengthDistribution("ptb", mean_log=3.03, sigma_log=0.55, min_len=3, max_len=83)

#: Hutter is character-level and trained on fixed-length chunks
HUTTER_LENGTHS = LengthDistribution("hutter", mean_log=4.0, sigma_log=0.0, min_len=50, max_len=50)


def compute_buckets(lengths: np.ndarray, num_buckets: int = 5) -> tuple[int, ...]:
    """Quantile-calibrated bucket upper bounds (the paper's approach:
    "calibrated on the distribution of input sentence lengths", 6.5).

    Each bucket's bound is the smallest length that covers its quantile
    share; the last bucket always covers the maximum.
    """
    if num_buckets < 1:
        raise ValueError("need at least one bucket")
    import numpy as np

    sorted_lengths = np.sort(lengths)
    bounds = []
    for i in range(1, num_buckets):
        q = i / num_buckets
        bounds.append(int(sorted_lengths[min(len(sorted_lengths) - 1, int(q * len(sorted_lengths)))]))
    bounds.append(int(sorted_lengths[-1]))
    # deduplicate while keeping order (degenerate distributions)
    unique: list[int] = []
    for b in bounds:
        if not unique or b > unique[-1]:
            unique.append(b)
    return tuple(unique)


def bucket_for(length: int, buckets: tuple[int, ...]) -> int:
    """Index of the smallest bucket that fits ``length`` (mapping to the
    nearest *larger* bucket, section 6.5)."""
    for i, bound in enumerate(buckets):
        if length <= bound:
            return i
    return len(buckets) - 1
