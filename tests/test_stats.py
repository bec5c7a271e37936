import numpy as np
import pytest

from conftest import make_sample, make_series
from deltaprobe.errors import InsufficientSamples, NoSamples
from deltaprobe.stats import jitter_series, summarize


def trimmed_bounds_oracle(delays):
    """Independent nearest-rank oracle: full sort, pure integer rank math."""
    ordered = sorted(delays)
    m = len(ordered)
    k = (25 * m) // 1000  # floor of 2.5% of m
    return ordered[k], ordered[m - 1 - k]


# ---------------------------------------------------------------------------
# summarize
# ---------------------------------------------------------------------------

def test_summary_hundred_distinct_delays():
    delays = [i * 1e-3 for i in range(100)]  # 0 .. 99 ms
    # delay must be positive; shift the zero up a hair without moving ranks
    delays[0] = 1e-9
    samples = make_series(800, delays)
    summary = summarize(samples)
    assert summary.lower_2_5_s == pytest.approx(0.002)
    assert summary.upper_97_5_s == pytest.approx(0.097)
    assert summary.mean_s == pytest.approx(sum(delays) / 100)
    assert summary.loss_rate == 0.0


def test_summary_constant_series_degenerate():
    samples = make_series(800, [0.010] * 50)
    summary = summarize(samples)
    assert summary.jitter_s == 0.0
    assert summary.lower_2_5_s == summary.upper_97_5_s == 0.010
    assert summary.mean_s == pytest.approx(0.010, rel=1e-12)


def test_summary_loss_rate_is_exact_ratio():
    delays = [0.01] * 90 + [None] * 10
    samples = make_series(800, delays)
    summary = summarize(samples)
    assert summary.loss_rate == pytest.approx(0.10)
    assert summary.n_total == 100
    assert summary.n_lost == 10


def test_summary_all_lost():
    samples = make_series(800, [None, None, None])
    summary = summarize(samples)
    assert summary.loss_rate == 1.0
    assert summary.mean_s is None
    assert summary.lower_2_5_s is None
    assert summary.jitter_s is None


def test_summary_empty_rejected():
    with pytest.raises(NoSamples):
        summarize([])


def test_summary_jitter_consecutive_differences():
    samples = make_series(800, [0.010, 0.020, 0.010, 0.020])
    summary = summarize(samples)
    assert summary.jitter_s == pytest.approx(0.010)


def test_summary_single_sample_jitter_zero():
    summary = summarize(make_series(800, [0.015]))
    assert summary.jitter_s == 0.0
    assert summary.lower_2_5_s == summary.upper_97_5_s == 0.015


def test_property_bounds_match_sort_oracle():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        m = int(rng.integers(1, 300))
        delays = [float(d) for d in rng.uniform(1e-6, 0.5, size=m)]
        summary = summarize(make_series(800, delays))
        lo, hi = trimmed_bounds_oracle(delays)
        assert summary.lower_2_5_s == lo
        assert summary.upper_97_5_s == hi


def test_property_jitter_translation_invariant():
    rng = np.random.default_rng(42)
    for _ in range(100):
        delays = [float(d) for d in rng.uniform(0.001, 0.2, size=40)]
        shifted = [d + 0.123 for d in delays]
        a = summarize(make_series(800, delays)).jitter_s
        b = summarize(make_series(800, shifted)).jitter_s
        assert b == pytest.approx(a, rel=1e-9)


def test_property_mean_bounds_loss_permutation_invariant():
    rng = np.random.default_rng(43)
    delays = [float(d) for d in rng.uniform(0.001, 0.2, size=60)] + [None] * 6
    base = summarize(make_series(800, delays))
    for _ in range(10):
        perm = list(rng.permutation(len(delays)))
        shuffled = [delays[i] for i in perm]
        other = summarize(make_series(800, shuffled))
        assert other.mean_s == pytest.approx(base.mean_s, rel=1e-12)
        assert other.lower_2_5_s == base.lower_2_5_s
        assert other.upper_97_5_s == base.upper_97_5_s
        assert other.loss_rate == base.loss_rate


# ---------------------------------------------------------------------------
# jitter series
# ---------------------------------------------------------------------------

def test_series_constant_delays_all_zero():
    samples = make_series(800, [0.010] * 20)
    series = jitter_series(samples, window=5)
    assert len(series) == 16
    assert all(j == 0.0 for _, j in series)


def test_series_alternating_delays():
    samples = make_series(800, [0.010, 0.020] * 10)
    series = jitter_series(samples, window=10)
    assert len(series) == 11
    for _, jitter in series:
        assert jitter == pytest.approx(0.010)


def test_series_timestamps_track_window_end():
    samples = make_series(800, [0.01, 0.02, 0.03, 0.04])
    series = jitter_series(samples, window=2)
    assert [ts for ts, _ in series] == [s.sent_at_us for s in samples[1:]]


def test_series_skips_lost_samples():
    samples = make_series(800, [0.010, None, 0.020, None, 0.010])
    series = jitter_series(samples, window=2)
    assert [j for _, j in series] == [pytest.approx(0.010)] * 2


def test_series_insufficient_samples():
    with pytest.raises(InsufficientSamples):
        jitter_series(make_series(800, [0.01]), window=2)


def test_series_window_validation():
    with pytest.raises(ValueError):
        jitter_series(make_series(800, [0.01, 0.02]), window=1)


def test_series_matches_per_window_loop_on_long_input():
    # the running-sum windows against one sum per window; with 20k delays
    # the running sum drifts by about n * eps relative to one window's sum
    rng = np.random.default_rng(44)
    delays = [None if rng.random() < 0.01 else float(d) for d in rng.uniform(0.001, 0.2, 20_000)]
    samples = make_series(800, delays)
    window = 10
    alive = [s for s in samples if not s.lost]
    expected = []
    for end in range(window, len(alive) + 1):
        chunk = [s.rtt_s for s in alive[end - window:end]]
        total = sum(abs(b - a) for a, b in zip(chunk, chunk[1:]))
        expected.append((alive[end - 1].sent_at_us, total / (window - 1)))
    series = jitter_series(samples, window)
    assert [ts for ts, _ in series] == [ts for ts, _ in expected]
    scale = sum(j for _, j in expected) / len(expected)
    assert max(abs(a - b) for (_, a), (_, b) in zip(series, expected)) <= 1e-9 * scale


def test_finite_delays_near_float64_max_keep_finite_statistics():
    # their plain sums overflow float64; mean and jitter do not
    samples = make_series(800, [1e308, 1.7e308] * 4)
    summary = summarize(samples)
    assert summary.mean_s == pytest.approx(1.35e308)
    assert summary.jitter_s == pytest.approx(0.7e308)
    series = jitter_series(samples, 2)
    assert [jitter for _, jitter in series] == pytest.approx([0.7e308] * 7)


def test_finite_sums_keep_the_plain_formula():
    delays = np.random.default_rng(5).uniform(0.001, 0.1, 101)
    summary = summarize(make_series(800, delays.tolist()))
    assert summary.mean_s == float(delays.sum()) / 101
    assert summary.jitter_s == float(np.abs(np.diff(delays)).sum()) / 100
    running = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(delays)))))
    series = jitter_series(make_series(800, delays.tolist()), 10)
    assert [jitter for _, jitter in series] == ((running[9:] - running[:-9]) / 9).tolist()
