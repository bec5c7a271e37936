import math

import numpy as np
import pytest

from conftest import make_sample, make_series
from deltaprobe.errors import (
    DelayNotAboveIntercept,
    EqualSizes,
    InsufficientPoints,
    NonFiniteEstimate,
    NonPositiveDelayDifference,
    NonPositiveSlope,
    NoUsableSizes,
)
from deltaprobe.estimator import (
    BandwidthEstimate,
    DelayProfile,
    SizeDelayPoint,
    estimate_bandwidth,
    estimate_from_intercept,
    estimate_intercept,
    estimate_pairwise,
    estimate_regression,
    fit_line,
    invert_slope,
    min_delay_profile,
)

# The worked ADSL pair: 100 and 1124 payload bytes as bits, idle and
# FTP-loaded round-trip delays.
ADSL_SMALL = SizeDelayPoint(800, 0.018)
ADSL_LARGE = SizeDelayPoint(8992, 0.042)
FTP_SMALL = SizeDelayPoint(800, 0.300)
FTP_LARGE = SizeDelayPoint(8992, 0.425)

# Independent arithmetic for the expected values: B = dW/dD, a by Eq-style
# cross product.
ADSL_BPS = (8992 - 800) / (0.042 - 0.018)           # 341333.33...
ADSL_INTERCEPT = (8992 * 0.018 - 800 * 0.042) / (8992 - 800)  # 0.01565625
FTP_BPS = (8992 - 800) / (0.425 - 0.300)            # 65536.0


def affine_points(a0, rate_bps, sizes):
    return [SizeDelayPoint(w, a0 + w / rate_bps) for w in sizes]


def profile_from_points(points, path_id="p"):
    pts = sorted(points, key=lambda p: p.size_bits)
    return DelayProfile(path_id=path_id, sizes_bits=[p.size_bits for p in pts],
                        min_delay_s=[p.delay_s for p in pts], counts=[1] * len(pts))


# ---------------------------------------------------------------------------
# domain type invariants
# ---------------------------------------------------------------------------

def test_point_rejects_zero_delay():
    with pytest.raises(ValueError):
        SizeDelayPoint(8192, 0.0)


def test_point_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        SizeDelayPoint(0, 0.01)


@pytest.mark.parametrize("sizes, delays, counts", [
    pytest.param([8992, 800], [0.042, 0.018], [1, 1], id="unsorted"),
    pytest.param([800, 800], [0.018, 0.020], [1, 1], id="duplicate"),
    pytest.param([800, 8992], [0.018], [1, 1], id="shape_mismatch"),
    pytest.param([800, 8992], [0.018, 0.0], [1, 1], id="nonpositive_delay"),
    pytest.param([800, 8992], [0.018, 0.042], [1, 0], id="zero_count"),
])
def test_profile_rejects_bad_columns(sizes, delays, counts):
    with pytest.raises(ValueError):
        DelayProfile(path_id="p", sizes_bits=sizes, min_delay_s=delays, counts=counts)


def test_estimate_rejects_nonpositive_bandwidth():
    with pytest.raises(ValueError):
        BandwidthEstimate(b_av_bps=0.0, intercept_s=0.0, method="pairwise")


@pytest.mark.parametrize("call", [
    lambda: estimate_pairwise(SizeDelayPoint(800, 1e-300),
                              SizeDelayPoint(8992, 1.0000000000000002e-300)),
    lambda: estimate_from_intercept(SizeDelayPoint(800, 1e-300), 0.9999999999999999e-300),
], ids=["pairwise", "from_intercept"])
def test_estimate_that_overflows_is_refused_where_it_is_built(call):
    # a delay difference of a few subnormals gives a bandwidth of inf
    with pytest.raises(NonFiniteEstimate, match=r"overflows float64: .*b_av_bps=inf"):
        call()


# ---------------------------------------------------------------------------
# min_delay_profile
# ---------------------------------------------------------------------------

def test_min_delay_takes_group_minimum():
    samples = make_series(800, [0.012, 0.010, 0.011])
    profile = min_delay_profile(samples, min_samples_per_size=3)
    assert profile.points == (SizeDelayPoint(800, 0.010),)
    assert profile.samples_per_size == {800: 3}
    assert profile.dropped_sizes == ()


def test_min_delay_drops_thin_sizes():
    samples = make_series(800, [0.012, 0.010, 0.011])
    samples += make_series(8992, [0.020, 0.019], start_seq=3)
    profile = min_delay_profile(samples, min_samples_per_size=3)
    assert [p.size_bits for p in profile.points] == [800]
    assert profile.dropped_sizes == (8992,)


def test_min_delay_ignores_lost_samples():
    samples = make_series(800, [0.012, None, 0.011])
    profile = min_delay_profile(samples, min_samples_per_size=2)
    assert profile.points[0].delay_s == 0.011
    assert profile.samples_per_size[800] == 2


def test_min_delay_no_usable_sizes():
    samples = make_series(800, [0.012, 0.010])
    with pytest.raises(NoUsableSizes):
        min_delay_profile(samples, min_samples_per_size=3)


def test_min_delay_empty_input_rejected():
    with pytest.raises(ValueError):
        min_delay_profile([], min_samples_per_size=1)


def _loop_profile(samples, min_samples_per_size):
    """Per-size minima, counts and dropped sizes by a plain loop over rows."""
    by_size = {}
    for s in samples:
        if not s.lost:
            by_size.setdefault(s.wire_bits, []).append(s.rtt_s)
    sizes = sorted(by_size)
    kept = [w for w in sizes if len(by_size[w]) >= min_samples_per_size]
    return (kept, [min(by_size[w]) for w in kept], [len(by_size[w]) for w in kept],
            tuple(w for w in sizes if w not in kept))


@pytest.mark.parametrize("n_sizes", [1, 2, 5, 300])
def test_min_delay_profile_matches_the_loop_reference(n_sizes):
    rng = np.random.default_rng(17 + n_sizes)
    for trial in range(40):
        sizes = rng.choice(np.arange(64, 80000, 8), n_sizes, replace=False)
        n = int(rng.integers(1, 4 * n_sizes + 60))
        wire = rng.choice(sizes, n)  # random order, some sizes thin or absent
        loss = rng.choice([0.0, 0.3, 0.9])
        samples = [make_sample(int(w), None if rng.random() < loss else
                               float(rng.uniform(1e-6, 2.0)) * 10.0 ** int(rng.integers(-4, 2)),
                               seq=k)
                   for k, w in enumerate(wire)]
        if trial % 4 == 0:  # one size entirely lost
            samples = [make_sample(s.wire_bits, None, seq=s.seq) if s.wire_bits == wire[0] else s
                       for s in samples]
        for min_samples in range(1, 6):
            sizes_ref, minima_ref, counts_ref, dropped_ref = _loop_profile(samples, min_samples)
            if not sizes_ref:
                with pytest.raises(NoUsableSizes):
                    min_delay_profile(samples, min_samples)
                continue
            profile = min_delay_profile(samples, min_samples)
            assert profile.sizes_bits.dtype == profile.counts.dtype == np.int64
            assert profile.min_delay_s.dtype == np.float64
            assert profile.sizes_bits.tolist() == sizes_ref
            assert np.array_equal(profile.min_delay_s, np.array(minima_ref))
            assert profile.counts.tolist() == counts_ref
            assert profile.dropped_sizes == dropped_ref


def test_all_lost_batch_has_no_usable_sizes():
    samples = [make_sample(800 if k % 2 else 8992, None, seq=k) for k in range(6)]
    for call in (min_delay_profile, estimate_bandwidth):
        with pytest.raises(NoUsableSizes, match=r"\(0 sizes seen\)"):
            call(samples, 1)


def test_min_delay_approaches_fixed_delay_under_one_sided_noise():
    # One hop with exponential queueing noise: the per-size minimum over 30
    # samples should sit just above the analytic fixed delay.
    from deltaprobe.simulator import Hop, SimPath, fixed_delay, run_experiment

    noise_mean = 0.002
    path = SimPath(hops=(Hop(capacity_bps=1e6, propagation_s=0.01,
                             queue_noise_mean_s=noise_mean),), seed=7)
    samples = run_experiment(path, sizes=[800, 8992], count_per_size=30)
    profile = min_delay_profile(samples, min_samples_per_size=30)
    for point in profile.points:
        floor = fixed_delay(path, point.size_bits)
        assert point.delay_s >= floor
        # P(min of 30 exponentials > mean/2) = exp(-15), far below flake level
        assert point.delay_s - floor < noise_mean / 2


def test_min_delay_is_lower_bound_and_attained():
    rng = np.random.default_rng(11)
    for _ in range(50):
        sizes = rng.choice([800, 4096, 8992], size=40)
        samples = []
        for i, size in enumerate(sizes):
            lost = rng.random() < 0.1
            delay = None if lost else float(rng.uniform(0.001, 0.1))
            samples.append(make_sample(int(size), delay, seq=i))
        try:
            profile = min_delay_profile(samples, min_samples_per_size=1)
        except NoUsableSizes:
            continue
        by_size = {}
        for s in samples:
            if not s.lost:
                by_size.setdefault(s.wire_bits, []).append(s.rtt_s)
        for point in profile.points:
            assert point.delay_s == min(by_size[point.size_bits])


# ---------------------------------------------------------------------------
# pairwise / intercept estimators
# ---------------------------------------------------------------------------

def test_pairwise_adsl_pair():
    est = estimate_pairwise(ADSL_SMALL, ADSL_LARGE)
    assert est.b_av_bps == pytest.approx(ADSL_BPS, abs=1.0)
    assert est.intercept_s == pytest.approx(ADSL_INTERCEPT, abs=1e-6)
    assert est.method == "pairwise"
    assert est.warnings == ()


def test_pairwise_ftp_pair():
    est = estimate_pairwise(FTP_SMALL, FTP_LARGE)
    assert est.b_av_bps == pytest.approx(FTP_BPS, abs=1.0)
    assert est.b_av_bps == pytest.approx(65536.0, abs=1.0)


def test_pairwise_equal_sizes_rejected():
    with pytest.raises(EqualSizes):
        estimate_pairwise(SizeDelayPoint(800, 0.020), SizeDelayPoint(800, 0.025))


def test_pairwise_larger_packet_not_slower():
    with pytest.raises(NonPositiveDelayDifference):
        estimate_pairwise(SizeDelayPoint(800, 0.042), SizeDelayPoint(8992, 0.018))


def test_pairwise_order_independence_bit_for_bit():
    a = estimate_pairwise(ADSL_SMALL, ADSL_LARGE)
    b = estimate_pairwise(ADSL_LARGE, ADSL_SMALL)
    assert a.b_av_bps == b.b_av_bps
    assert a.intercept_s == b.intercept_s


def test_pairwise_negative_intercept_warned():
    # Descending-intercept geometry: the line through these points crosses
    # below zero at W=0.
    est = estimate_pairwise(SizeDelayPoint(800, 0.001), SizeDelayPoint(8992, 0.02))
    assert est.intercept_s < 0
    assert "negative intercept" in est.warnings


def test_intercept_adsl_value():
    a = estimate_intercept(ADSL_SMALL, ADSL_LARGE)
    assert a == pytest.approx(0.01565625, abs=1e-9)
    assert a == estimate_intercept(ADSL_LARGE, ADSL_SMALL)


def test_intercept_reconstructs_affine_offset():
    p1, p2 = affine_points(0.004, 2e6, [800, 8992])
    assert estimate_intercept(p1, p2) == pytest.approx(0.004, rel=1e-12)


def test_intercept_equal_sizes_rejected():
    with pytest.raises(EqualSizes):
        estimate_intercept(SizeDelayPoint(800, 0.02), SizeDelayPoint(800, 0.03))


def test_from_intercept_matches_pairwise_on_adsl():
    a = estimate_intercept(ADSL_SMALL, ADSL_LARGE)
    est = estimate_from_intercept(ADSL_SMALL, a)
    assert est.b_av_bps == pytest.approx(ADSL_BPS, rel=1e-9)
    assert est.method == "intercept_corrected"


def test_from_intercept_zero_reduces_to_direct():
    est = estimate_from_intercept(SizeDelayPoint(8192, 1.0), 0.0)
    assert est.b_av_bps == 8192.0


def test_from_intercept_delay_not_above():
    with pytest.raises(DelayNotAboveIntercept):
        estimate_from_intercept(SizeDelayPoint(800, 0.010), 0.012)


# ---------------------------------------------------------------------------
# linear fit / slope inversion / regression
# ---------------------------------------------------------------------------

def test_regression_two_points_is_exact_pairwise_solution():
    est = estimate_regression(profile_from_points([ADSL_SMALL, ADSL_LARGE]))
    assert 1 / est.b_av_bps == pytest.approx(0.024 / 8192, rel=1e-12)
    assert 1 / est.b_av_bps == pytest.approx(2.9296875e-6, rel=1e-9)
    assert est.intercept_s == pytest.approx(ADSL_INTERCEPT, rel=1e-9)
    assert est.residual_rms_s < 1e-12


def test_regression_exact_affine_five_points():
    points = affine_points(0.002, 1e6, [800, 2048, 4096, 8192, 8992])
    est = estimate_regression(profile_from_points(points))
    assert 1 / est.b_av_bps == pytest.approx(1e-6, rel=1e-9)
    assert est.intercept_s == pytest.approx(0.002, rel=1e-9)
    assert est.residual_rms_s < 1e-12


def test_regression_negative_slope_rejected():
    points = [SizeDelayPoint(w, 0.1 - w * 1e-6) for w in (800, 2048, 4096, 8192, 8992)]
    with pytest.raises(NonPositiveSlope):
        estimate_regression(profile_from_points(points))


def test_fit_single_point_rejected():
    # the thin 8992-bit size is dropped, so many samples leave one point to fit
    samples = make_series(800, [0.012, 0.010, 0.011])
    samples += make_series(8992, [0.020], start_seq=3)
    profile = min_delay_profile(samples, min_samples_per_size=3)
    assert len(profile.sizes_bits) == 1
    with pytest.raises(InsufficientPoints, match="got 1"):
        estimate_regression(profile)


def _loop_fit(sizes, delays):
    # reference: centered sums added left to right in Python
    n = len(sizes)
    mean_w, mean_d = sum(sizes) / n, sum(delays) / n
    sxx = sum((w - mean_w) ** 2 for w in sizes)
    slope = sum((w - mean_w) * (d - mean_d) for w, d in zip(sizes, delays)) / sxx
    intercept = mean_d - slope * mean_w
    sq = sum((d - (intercept + slope * w)) ** 2 for w, d in zip(sizes, delays))
    return slope, intercept, math.sqrt(sq / n)


def test_fit_line_batch_equals_single_fits_and_the_loop_reference():
    rng = np.random.default_rng(107)
    for k in (2, 3, 5, 8, 12):
        sizes = np.sort(rng.choice(np.arange(256, 65536), size=k, replace=False))
        delays = 0.01 + sizes / 1e6 + rng.exponential(0.002, size=(50, k))
        batch = fit_line(sizes, delays)
        for row, delays_row in enumerate(delays):
            single = tuple(map(float, fit_line(sizes, delays_row)))
            assert single == tuple(column[row] for column in batch)
            reference = _loop_fit(sizes.tolist(), delays_row.tolist())
            if k < 8:  # numpy adds fewer than 8 terms left to right, as Python does
                assert single == reference
            else:
                assert single == pytest.approx(reference, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("rate_bps", [285e6, 128e6, 222e6, 205e6])
def test_invert_slope_reference_rates(rate_bps):
    # Feed the inverse of each quoted rate back through the inverter.
    slope = 1.0 / rate_bps
    assert invert_slope(slope) == pytest.approx(rate_bps, rel=0.005)


def test_invert_slope_unit_case():
    assert invert_slope(1.0) == 1.0


def test_invert_slope_rejects_nonpositive():
    with pytest.raises(NonPositiveSlope):
        invert_slope(0.0)


def test_regression_equals_pairwise_on_adsl_profile():
    est = estimate_regression(profile_from_points([ADSL_SMALL, ADSL_LARGE]))
    pair = estimate_pairwise(ADSL_SMALL, ADSL_LARGE)
    assert est.b_av_bps == pytest.approx(pair.b_av_bps, rel=1e-9)
    assert est.intercept_s == pytest.approx(pair.intercept_s, rel=1e-9)
    assert est.method == "regression"


def test_regression_recovers_two_hop_harmonic_rate():
    from deltaprobe.simulator import Hop, SimPath, fixed_delay

    path = SimPath(hops=(Hop(capacity_bps=1e6), Hop(capacity_bps=2e6)), seed=0)
    sizes = [800, 2048, 4096, 8192, 8992]
    points = [SizeDelayPoint(w, fixed_delay(path, w)) for w in sizes]
    est = estimate_regression(profile_from_points(points))
    harmonic = 1.0 / (1 / 1e6 + 1 / 2e6)
    assert est.b_av_bps == pytest.approx(harmonic, rel=1e-9)
    assert est.b_av_bps == pytest.approx(666666.67, abs=1.0)


def test_regression_single_point_rejected():
    with pytest.raises(InsufficientPoints):
        estimate_regression(profile_from_points([ADSL_SMALL]))


# ---------------------------------------------------------------------------
# algebraic properties over randomized inputs
# ---------------------------------------------------------------------------

def _random_pair(rng):
    a0 = rng.uniform(0.0, 0.5)
    rate = 10 ** rng.uniform(4, 8)  # 10 kbps .. 100 Mbps
    w1, w2 = rng.choice(np.arange(800, 16000), size=2, replace=False)
    return affine_points(a0, rate, [int(w1), int(w2)]), a0, rate


def test_property_order_independence():
    rng = np.random.default_rng(101)
    for _ in range(200):
        (p1, p2), _, _ = _random_pair(rng)
        a = estimate_pairwise(p1, p2)
        b = estimate_pairwise(p2, p1)
        assert a.b_av_bps == b.b_av_bps
        assert a.intercept_s == b.intercept_s


def test_property_pair_intercept_consistency():
    # Correcting either point by the pair's intercept reproduces the
    # pairwise bandwidth.
    rng = np.random.default_rng(102)
    for _ in range(200):
        (p1, p2), _, _ = _random_pair(rng)
        pair = estimate_pairwise(p1, p2)
        a = estimate_intercept(p1, p2)
        for point in (p1, p2):
            est = estimate_from_intercept(point, a)
            assert est.b_av_bps == pytest.approx(pair.b_av_bps, rel=1e-9)


def test_property_two_point_regression_equivalence():
    rng = np.random.default_rng(103)
    for _ in range(200):
        (p1, p2), _, _ = _random_pair(rng)
        pair = estimate_pairwise(p1, p2)
        reg = estimate_regression(profile_from_points([p1, p2]))
        assert reg.b_av_bps == pytest.approx(pair.b_av_bps, rel=1e-9)
        assert reg.intercept_s == pytest.approx(pair.intercept_s, rel=1e-9, abs=1e-15)


def test_property_affine_exactness():
    rng = np.random.default_rng(104)
    for _ in range(200):
        a0 = rng.uniform(0.0, 1.0)
        rate = 10 ** rng.uniform(3, 10)  # 1 kbps .. 10 Gbps
        n_sizes = int(rng.integers(2, 9))
        sizes = rng.choice(np.arange(256, 65536), size=n_sizes, replace=False)
        points = affine_points(a0, rate, [int(w) for w in sorted(sizes)])
        est = estimate_regression(profile_from_points(points))
        assert est.b_av_bps == pytest.approx(rate, rel=1e-6)
        assert est.intercept_s == pytest.approx(a0, rel=1e-6, abs=1e-12)
        assert est.residual_rms_s < 1e-12


def test_property_delay_scaling_covariance():
    rng = np.random.default_rng(105)
    for _ in range(100):
        (p1, p2), _, _ = _random_pair(rng)
        k = 10 ** rng.uniform(-3, 3)
        q1 = SizeDelayPoint(p1.size_bits, k * p1.delay_s)
        q2 = SizeDelayPoint(p2.size_bits, k * p2.delay_s)
        base = estimate_pairwise(p1, p2)
        scaled = estimate_pairwise(q1, q2)
        assert scaled.b_av_bps == pytest.approx(base.b_av_bps / k, rel=1e-9)
        assert scaled.intercept_s == pytest.approx(base.intercept_s * k, rel=1e-9, abs=1e-18)
        reg_base = estimate_regression(profile_from_points([p1, p2]))
        reg_scaled = estimate_regression(profile_from_points([q1, q2]))
        assert reg_scaled.b_av_bps == pytest.approx(reg_base.b_av_bps / k, rel=1e-9)
        assert reg_scaled.intercept_s == pytest.approx(reg_base.intercept_s * k, rel=1e-9, abs=1e-18)


def test_property_size_offset_invariance():
    # A constant header offset h cancels in dW, so the bandwidth is
    # untouched and the intercept absorbs exactly -h/B.
    rng = np.random.default_rng(106)
    for _ in range(100):
        a0 = rng.uniform(1e-4, 0.5)
        rate = 10 ** rng.uniform(4, 8)
        w1, w2 = 800, int(rng.integers(2000, 16000))
        h = int(rng.integers(1, 512))
        p1, p2 = affine_points(a0, rate, [w1, w2])
        s1 = SizeDelayPoint(w1 + h, p1.delay_s)
        s2 = SizeDelayPoint(w2 + h, p2.delay_s)
        base = estimate_pairwise(p1, p2)
        shifted = estimate_pairwise(s1, s2)
        assert shifted.b_av_bps == base.b_av_bps  # integer dW identical
        assert shifted.intercept_s == pytest.approx(
            base.intercept_s - h / rate, rel=1e-9, abs=1e-15
        )
