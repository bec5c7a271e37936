"""Summary statistics over probe samples: trimmed delay bounds, jitter, loss.

Pure functions, no I/O. Lost samples are excluded from delay statistics but
count in the loss-rate denominator. Percentiles are nearest-rank order
statistics (no interpolation) so outputs are bit-comparable across runs.
Jitter is the mean absolute difference of consecutive delays, taken over the
samples in the order given (send order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InsufficientSamples, NoSamples
from .probe import SampleBatch, Samples

TRIM_FRACTION = 0.025


def _scaled_sum(sum_of, values: np.ndarray) -> tuple:
    """(sum_of(values), 1.0) for the sum (np.add.reduce) or the running sum
    (np.add.accumulate) of nonnegative values; only when that overflows
    float64, (sum_of(values / scale), scale) with scale = max(values)."""
    try:
        with np.errstate(over="raise"):
            return sum_of(values), 1.0
    except FloatingPointError:
        scale = float(values.max())
        return sum_of(values / scale), scale


@dataclass(frozen=True)
class DelaySummary:
    """Trimmed delay statistics; delay fields are None when every sample
    was lost."""

    n_total: int
    n_lost: int
    mean_s: Optional[float]
    lower_2_5_s: Optional[float]
    upper_97_5_s: Optional[float]
    jitter_s: Optional[float]
    loss_rate: float


def summarize(samples: Samples) -> DelaySummary:
    """Mean, 2.5%/97.5% nearest-rank bounds, jitter, and loss rate.

    Bounds cut the first and last 2.5% of the sorted non-lost delays:
    lower = sorted[floor(0.025*m)], upper = sorted[m-1-floor(0.025*m)].
    """
    batch = SampleBatch.from_samples(samples)
    n_total = len(batch)
    if not n_total:
        raise NoSamples("no samples to summarize")
    delays = batch.rtt_s[~batch.lost]
    m = len(delays)
    n_lost = n_total - m
    if not m:
        return DelaySummary(
            n_total=n_total, n_lost=n_lost,
            mean_s=None, lower_2_5_s=None, upper_97_5_s=None, jitter_s=None,
            loss_rate=1.0,
        )
    ordered = np.sort(delays)
    k = int(TRIM_FRACTION * m)
    total, scale = _scaled_sum(np.add.reduce, delays)
    step_total, step_scale = _scaled_sum(np.add.reduce, np.abs(delays[1:] - delays[:-1]))
    return DelaySummary(
        n_total=n_total,
        n_lost=n_lost,
        mean_s=float(total) / m * scale,
        lower_2_5_s=float(ordered[k]),
        upper_97_5_s=float(ordered[m - 1 - k]),
        jitter_s=float(step_total) / (m - 1) * step_scale if m > 1 else 0.0,
        loss_rate=n_lost / n_total,
    )


def jitter_series(
    samples: Samples, window: int
) -> list[tuple[int, float]]:
    """Sliding-window jitter over the non-lost samples in send order.

    Each entry is (sent_at_us of the window's last sample, jitter within the
    window). Raises InsufficientSamples when fewer than `window` non-lost
    samples exist.
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    batch = SampleBatch.from_samples(samples)
    alive = ~batch.lost
    delays = batch.rtt_s[alive]
    if len(delays) < window:
        raise InsufficientSamples(
            f"need >= {window} non-lost samples, got {len(delays)}"
        )
    # window sums of |delta| as differences of one running sum; its terms are
    # nonnegative, so a window of equal delays sums to exactly zero
    running, scale = _scaled_sum(np.add.accumulate, np.abs(delays[1:] - delays[:-1]))
    running = np.concatenate(([0.0], running))
    jitter = (running[window - 1:] - running[:len(running) - window + 1]) / (window - 1) * scale
    return list(zip(batch.sent_at_us[alive][window - 1:].tolist(), jitter.tolist()))
