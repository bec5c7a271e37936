"""Bandwidth and fixed-delay estimation from size/delay measurements.

The delay of a probe packet on an uncongested path is affine in its wire
size: D = a + W / B, where the slope 1/B is set by the link capacities and
the intercept a collects propagation, processing, and header costs. Taking
the per-size minimum over many samples strips one-sided queueing noise and
exposes that affine relationship; the estimators here recover B and a from
the filtered points.

Everything in this module is a pure function of its inputs. Sizes are bits,
delays are seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DelayNotAboveIntercept,
    EqualSizes,
    InsufficientPoints,
    NonFiniteEstimate,
    NonPositiveDelayDifference,
    NonPositiveSlope,
    NoSamples,
    NoUsableSizes,
)
from .probe import SampleBatch, Samples, read_only_column

METHOD_PAIRWISE = "pairwise"
METHOD_REGRESSION = "regression"
METHOD_INTERCEPT_CORRECTED = "intercept_corrected"

_ESTIMATE_METHODS = frozenset(
    {METHOD_PAIRWISE, METHOD_REGRESSION, METHOD_INTERCEPT_CORRECTED}
)

# Minimum filtering needs enough samples per size for the one-sided noise
# floor to be hit; 30 is a pragmatic default for live probing.
DEFAULT_MIN_SAMPLES_PER_SIZE = 30

NEGATIVE_INTERCEPT_WARNING = "negative intercept"


@dataclass(frozen=True)
class SizeDelayPoint:
    """A wire size (bits) with its measured delay (seconds)."""

    size_bits: int
    delay_s: float

    def __post_init__(self):
        if self.size_bits <= 0:
            raise ValueError(f"size_bits must be positive, got {self.size_bits}")
        if not self.delay_s > 0:
            raise ValueError(f"delay_s must be positive, got {self.delay_s}")


@dataclass(frozen=True, eq=False)
class DelayProfile:
    """Per-size filtered minimum delays for one path, as read-only columns
    sorted by size: `sizes_bits` and `counts` (int64, the non-lost samples
    behind each minimum) and `min_delay_s` (float64)."""

    path_id: str
    sizes_bits: np.ndarray
    min_delay_s: np.ndarray
    counts: np.ndarray
    dropped_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        for name, dtype in (("sizes_bits", np.int64), ("min_delay_s", np.float64),
                            ("counts", np.int64)):
            object.__setattr__(self, name, read_only_column(getattr(self, name), dtype, name))
        sizes, delays, counts = self.sizes_bits, self.min_delay_s, self.counts
        if not (sizes.size and sizes.shape == delays.shape == counts.shape
                and (sizes > 0).all() and (sizes[1:] > sizes[:-1]).all()
                and (delays > 0).all() and (counts >= 1).all()):
            raise ValueError("profile needs nonempty columns of one length, sizes positive, "
                             f"distinct and sorted, delays and counts positive: {self}")

    @property
    def points(self) -> tuple[SizeDelayPoint, ...]:
        return tuple(map(SizeDelayPoint, self.sizes_bits.tolist(), self.min_delay_s.tolist()))

    @property
    def samples_per_size(self) -> dict[int, int]:
        return dict(zip(self.sizes_bits.tolist(), self.counts.tolist()))


@dataclass(frozen=True)
class BandwidthEstimate:
    """Estimated available bandwidth with the fixed-delay intercept; every
    number is finite (NonFiniteEstimate otherwise)."""

    b_av_bps: float
    intercept_s: float
    method: str
    residual_rms_s: float = 0.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not all(map(math.isfinite, (self.b_av_bps, self.intercept_s, self.residual_rms_s))):
            raise NonFiniteEstimate(f"the estimate overflows float64: {self}")
        if not self.b_av_bps > 0:
            raise ValueError(f"b_av_bps must be positive, got {self.b_av_bps}")
        if self.residual_rms_s < 0:
            raise ValueError("residual_rms_s must be nonnegative")
        if self.method not in _ESTIMATE_METHODS:
            raise ValueError(f"unknown estimate method {self.method!r}")


def min_delay_profile(
    samples: Samples,
    min_samples_per_size: int = DEFAULT_MIN_SAMPLES_PER_SIZE,
) -> DelayProfile:
    """Group non-lost samples by wire size and keep each size's minimum delay.

    Sizes with fewer than `min_samples_per_size` non-lost samples are dropped
    and reported in the profile's `dropped_sizes`. Raises NoUsableSizes when
    no size group meets the threshold.
    """
    batch = SampleBatch.from_samples(samples)
    if not len(batch):
        raise ValueError("samples is empty")
    if min_samples_per_size < 1:
        raise ValueError("min_samples_per_size must be >= 1")

    # one sort by size, then each group runs from one bound to the next
    alive = ~batch.lost
    wire = batch.wire_bits[alive]
    order = wire.argsort()
    wire = wire[order]
    edges = np.ones(len(wire) + 1, dtype=bool)
    np.not_equal(wire[1:], wire[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    starts = bounds[:-1]
    counts = bounds[1:] - starts

    kept = counts >= min_samples_per_size
    if not kept.any():  # an all-lost batch has no starts and stops here
        raise NoUsableSizes(
            f"no size has >= {min_samples_per_size} non-lost samples "
            f"({len(starts)} sizes seen)"
        )
    sizes = wire[starts]
    minima = np.minimum.reduceat(batch.rtt_s[alive][order], starts)
    return DelayProfile(
        path_id=batch.path_id,
        sizes_bits=sizes[kept],
        min_delay_s=minima[kept],
        counts=counts[kept],
        dropped_sizes=tuple(sizes[~kept].tolist()),
    )


def _ordered_pair(p1: SizeDelayPoint, p2: SizeDelayPoint) -> tuple[SizeDelayPoint, SizeDelayPoint]:
    if p1.size_bits == p2.size_bits:
        raise EqualSizes(f"both points have size {p1.size_bits} bits")
    return (p1, p2) if p1.size_bits < p2.size_bits else (p2, p1)


def estimate_intercept(p1: SizeDelayPoint, p2: SizeDelayPoint) -> float:
    """Fixed-delay intercept a = (W2*D1 - W1*D2) / (W2 - W1) from two points.

    Order-independent; may be negative on noisy input.
    """
    small, large = _ordered_pair(p1, p2)
    w1, d1 = small.size_bits, small.delay_s
    w2, d2 = large.size_bits, large.delay_s
    return (w2 * d1 - w1 * d2) / (w2 - w1)


def estimate_pairwise(p1: SizeDelayPoint, p2: SizeDelayPoint) -> BandwidthEstimate:
    """Two-size estimate: B = dW/dD, intercept from the same pair.

    The pair is ordered by size internally, so the result does not depend on
    argument order. Raises NonPositiveDelayDifference when the larger packet
    was not slower (no physical interpretation in the affine delay model).
    """
    small, large = _ordered_pair(p1, p2)
    delay_diff = large.delay_s - small.delay_s
    if delay_diff <= 0:
        raise NonPositiveDelayDifference(
            f"delay did not increase with size: {small.size_bits}b -> {small.delay_s}s, "
            f"{large.size_bits}b -> {large.delay_s}s"
        )
    b_av = (large.size_bits - small.size_bits) / delay_diff
    intercept = estimate_intercept(small, large)
    warnings = (NEGATIVE_INTERCEPT_WARNING,) if intercept < 0 else ()
    return BandwidthEstimate(
        b_av_bps=b_av,
        intercept_s=intercept,
        method=METHOD_PAIRWISE,
        warnings=warnings,
    )


def estimate_from_intercept(point: SizeDelayPoint, intercept_s: float) -> BandwidthEstimate:
    """Single-point estimate with a known intercept: B = W / (D - a)."""
    if point.delay_s <= intercept_s:
        raise DelayNotAboveIntercept(
            f"delay {point.delay_s}s does not exceed intercept {intercept_s}s"
        )
    return BandwidthEstimate(
        b_av_bps=point.size_bits / (point.delay_s - intercept_s),
        intercept_s=intercept_s,
        method=METHOD_INTERCEPT_CORRECTED,
    )


def fit_line(sizes_bits: np.ndarray, delays_s: np.ndarray) -> tuple[np.ndarray, ...]:
    """Least-squares (slope s/bit, intercept s, residual rms s) of delay on
    size over the last axis, from centered sums: (k,) numpy columns give one
    fit, (R, k) delays R fits. An overflow gives non-finite results, unwarned."""
    n = delays_s.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        mean_w = sizes_bits.sum(axis=-1) / n
        mean_d = delays_s.sum(axis=-1) / n
        dw = sizes_bits - mean_w[..., None]
        sxx = (dw ** 2).sum(axis=-1)
        sxy = (dw * (delays_s - mean_d[..., None])).sum(axis=-1)
        slope = sxy / sxx
        intercept = mean_d - slope * mean_w
        residuals = delays_s - (intercept[..., None] + slope[..., None] * sizes_bits)
        return slope, intercept, np.sqrt((residuals ** 2).sum(axis=-1) / n)


def invert_slope(slope_s_per_bit: float) -> float:
    """The fitted slope is the inverse of the available bandwidth."""
    if not slope_s_per_bit > 0:
        raise NonPositiveSlope(f"fitted slope {slope_s_per_bit} s/bit is not positive")
    return 1.0 / slope_s_per_bit


def estimate_regression(profile: DelayProfile) -> BandwidthEstimate:
    """Multi-size estimate: the `fit_line` of the profile's minima, its slope
    inverted. Two points give the exact line through them. Raises
    InsufficientPoints below two points, NonPositiveSlope for a slope that
    is not positive, then NonFiniteEstimate for a fit that is not finite."""
    n = len(profile.sizes_bits)
    if n < 2:
        raise InsufficientPoints(f"need >= 2 profile points, got {n}")
    slope, intercept, rms = map(float, fit_line(profile.sizes_bits, profile.min_delay_s))
    b_av = invert_slope(slope)
    if not all(map(math.isfinite, (slope, intercept, rms))):
        raise NonFiniteEstimate(f"the fit overflows float64: slope_s_per_bit={slope}, "
                                f"intercept_s={intercept}, residual_rms_s={rms}")
    return BandwidthEstimate(
        b_av_bps=b_av,
        intercept_s=intercept,
        method=METHOD_REGRESSION,
        residual_rms_s=rms,
        warnings=(NEGATIVE_INTERCEPT_WARNING,) if intercept < 0 else (),
    )


def estimate_bandwidth(
    samples: Samples,
    min_samples_per_size: int = DEFAULT_MIN_SAMPLES_PER_SIZE,
) -> tuple[BandwidthEstimate, DelayProfile]:
    """The estimate of a session and the profile it was read off: per-size
    minima, then the pairwise estimate for two sizes or the regression for
    more. Raises NoSamples on an empty batch, NoUsableSizes when fewer than
    two sizes keep enough samples and NonFiniteEstimate when a result
    overflows float64."""
    batch = SampleBatch.from_samples(samples)
    if not len(batch):
        raise NoSamples("no samples to estimate from")
    profile = min_delay_profile(batch, min_samples_per_size)
    if len(profile.sizes_bits) < 2:
        raise NoUsableSizes(
            f"only {len(profile.sizes_bits)} usable size(s); need at least 2 "
            f"(dropped: {list(profile.dropped_sizes) or 'none'})"
        )
    if len(profile.sizes_bits) == 2:
        return estimate_pairwise(*profile.points), profile
    return estimate_regression(profile), profile
