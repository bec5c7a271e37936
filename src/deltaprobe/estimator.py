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
from typing import Mapping

import numpy as np

from .errors import (
    DelayNotAboveIntercept,
    EqualSizes,
    InsufficientPoints,
    NonPositiveDelayDifference,
    NonPositiveSlope,
    NoUsableSizes,
)
from .probe import SampleBatch, Samples

METHOD_DIRECT = "direct"
METHOD_PAIRWISE = "pairwise"
METHOD_REGRESSION = "regression"
METHOD_INTERCEPT_CORRECTED = "intercept_corrected"

_ESTIMATE_METHODS = frozenset(
    {METHOD_DIRECT, METHOD_PAIRWISE, METHOD_REGRESSION, METHOD_INTERCEPT_CORRECTED}
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


@dataclass(frozen=True)
class DelayProfile:
    """Per-size filtered minimum delays for one path, sorted by size."""

    path_id: str
    points: tuple[SizeDelayPoint, ...]
    samples_per_size: Mapping[int, int]
    dropped_sizes: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.points:
            raise ValueError("profile needs at least one point")
        sizes = [p.size_bits for p in self.points]
        if len(set(sizes)) != len(sizes):
            raise ValueError(f"profile sizes must be distinct, got {sizes}")
        if sizes != sorted(sizes):
            raise ValueError("profile points must be sorted by size")
        for size, count in self.samples_per_size.items():
            if count < 1:
                raise ValueError(f"samples_per_size[{size}] must be >= 1, got {count}")


@dataclass(frozen=True)
class BandwidthEstimate:
    """Estimated available bandwidth with the fixed-delay intercept."""

    b_av_bps: float
    intercept_s: float
    method: str
    residual_rms_s: float = 0.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.b_av_bps > 0:
            raise ValueError(f"b_av_bps must be positive, got {self.b_av_bps}")
        if self.residual_rms_s < 0:
            raise ValueError("residual_rms_s must be nonnegative")
        if self.method not in _ESTIMATE_METHODS:
            raise ValueError(f"unknown estimate method {self.method!r}")


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least-squares fit of delay against wire size."""

    slope_s_per_bit: float
    intercept_s: float
    residual_rms_s: float
    n_points: int

    def __post_init__(self):
        if not self.slope_s_per_bit > 0:
            raise ValueError("slope_s_per_bit must be positive")
        if self.residual_rms_s < 0:
            raise ValueError("residual_rms_s must be nonnegative")
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")


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

    alive = ~batch.lost
    sizes, group, counts = np.unique(
        batch.wire_bits[alive], return_inverse=True, return_counts=True
    )
    minima = np.full(len(sizes), np.inf)
    np.minimum.at(minima, group, batch.rtt_s[alive])

    kept = counts >= min_samples_per_size
    if not kept.any():
        raise NoUsableSizes(
            f"no size has >= {min_samples_per_size} non-lost samples "
            f"({len(sizes)} sizes seen)"
        )
    sizes, minima, counts = sizes.tolist(), minima.tolist(), counts.tolist()
    kept = kept.tolist()
    return DelayProfile(
        path_id=batch.path_id,
        points=tuple(SizeDelayPoint(w, d) for w, d, k in zip(sizes, minima, kept) if k),
        samples_per_size={w: c for w, c, k in zip(sizes, counts, kept) if k},
        dropped_sizes=tuple(w for w, k in zip(sizes, kept) if not k),
    )


def estimate_direct(point: SizeDelayPoint) -> BandwidthEstimate:
    """Single-point throughput W/D; only exact on a path without fixed delay."""
    return BandwidthEstimate(
        b_av_bps=point.size_bits / point.delay_s,
        intercept_s=0.0,
        method=METHOD_DIRECT,
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


def fit_linear(profile: DelayProfile) -> LinearFit:
    """Unweighted least-squares line through the profile's (size, delay) points.

    Uses centered sums for numerical stability; with exactly two points the
    fit is exact and matches the pairwise solution.
    """
    points = profile.points
    n = len(points)
    if n < 2:
        raise InsufficientPoints(f"need >= 2 profile points, got {n}")
    mean_w = sum(p.size_bits for p in points) / n
    mean_d = sum(p.delay_s for p in points) / n
    sxx = sum((p.size_bits - mean_w) ** 2 for p in points)
    sxy = sum((p.size_bits - mean_w) * (p.delay_s - mean_d) for p in points)
    slope = sxy / sxx  # sxx > 0: sizes are distinct
    if slope <= 0:
        raise NonPositiveSlope(f"fitted slope {slope} s/bit is not positive")
    intercept = mean_d - slope * mean_w
    sq = sum((p.delay_s - (intercept + slope * p.size_bits)) ** 2 for p in points)
    return LinearFit(
        slope_s_per_bit=slope,
        intercept_s=intercept,
        residual_rms_s=math.sqrt(sq / n),
        n_points=n,
    )


def invert_slope(slope_s_per_bit: float) -> float:
    """The fitted slope is the inverse of the available bandwidth."""
    if not slope_s_per_bit > 0:
        raise NonPositiveSlope(f"slope must be positive, got {slope_s_per_bit}")
    return 1.0 / slope_s_per_bit


def estimate_regression(profile: DelayProfile) -> BandwidthEstimate:
    """Multi-size estimate: fit the profile, invert the slope."""
    fit = fit_linear(profile)
    warnings = (NEGATIVE_INTERCEPT_WARNING,) if fit.intercept_s < 0 else ()
    return BandwidthEstimate(
        b_av_bps=invert_slope(fit.slope_s_per_bit),
        intercept_s=fit.intercept_s,
        method=METHOD_REGRESSION,
        residual_rms_s=fit.residual_rms_s,
        warnings=warnings,
    )
