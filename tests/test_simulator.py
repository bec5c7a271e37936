import json
import math

import numpy as np
import pytest

from deltaprobe.errors import ConfigError
from deltaprobe.estimator import (
    SizeDelayPoint,
    estimate_intercept,
    estimate_pairwise,
    min_delay_profile,
)
from deltaprobe.simulator import (
    Hop,
    SimPath,
    fixed_delay,
    fixed_overhead,
    ground_truth_rate,
    load_path_file,
    path_from_config,
    run_experiment,
)


def single_hop(capacity=1e6, prop=0.01, proc=0.0, noise=0.0, loss=0.0, seed=0):
    return SimPath(hops=(Hop(capacity_bps=capacity, propagation_s=prop,
                             processing_s=proc, queue_noise_mean_s=noise,
                             loss_prob=loss),), seed=seed)


def random_path(rng, max_hops=10, noise=0.0, loss=0.0):
    hops = tuple(
        Hop(
            capacity_bps=float(10 ** rng.uniform(math.log10(64e3), 10)),
            propagation_s=float(rng.uniform(1e-4, 0.03)),
            processing_s=float(rng.uniform(0, 1e-3)),
            queue_noise_mean_s=noise,
            loss_prob=loss,
        )
        for _ in range(int(rng.integers(1, max_hops + 1)))
    )
    return SimPath(hops=hops, seed=int(rng.integers(0, 2**63)))


# ---------------------------------------------------------------------------
# fixed delay and ground truth
# ---------------------------------------------------------------------------

def test_fixed_delay_single_hop():
    path = single_hop(capacity=1e6, prop=0.01)
    assert fixed_delay(path, 800) == pytest.approx(0.0108, rel=1e-12)
    assert fixed_delay(path, 8992) == pytest.approx(0.018992, rel=1e-12)


def test_fixed_delay_two_hops():
    path = SimPath(hops=(Hop(capacity_bps=1e6), Hop(capacity_bps=2e6)), seed=0)
    assert fixed_delay(path, 8192) == pytest.approx(8192 * 1.5e-6, rel=1e-12)
    assert fixed_delay(path, 8192) == pytest.approx(0.012288, rel=1e-9)


def test_fixed_delay_is_affine_in_size():
    rng = np.random.default_rng(31)
    for _ in range(50):
        path = random_path(rng)
        slope = sum(1.0 / h.capacity_bps for h in path.hops)
        base = fixed_overhead(path)
        for wire in (8, 800, 8992, 65536):
            assert fixed_delay(path, wire) == pytest.approx(
                base + wire * slope, rel=1e-12
            )


def test_ground_truth_single_hop_identity():
    assert ground_truth_rate(single_hop(capacity=1e6)) == pytest.approx(1e6, rel=1e-12)


def test_ground_truth_harmonic_combination():
    path = SimPath(hops=(Hop(capacity_bps=1e6), Hop(capacity_bps=2e6)), seed=0)
    assert ground_truth_rate(path) == pytest.approx(666666.67, abs=0.01)
    triple = SimPath(hops=tuple(Hop(capacity_bps=1e7) for _ in range(3)), seed=0)
    assert ground_truth_rate(triple) == pytest.approx(1e7 / 3, rel=1e-12)


# ---------------------------------------------------------------------------
# probe simulation
# ---------------------------------------------------------------------------

def test_probe_noise_free_equals_fixed_delay():
    path = single_hop()
    assert run_experiment(path, (800,), 10).rtt_s.tolist() == [fixed_delay(path, 800)] * 10


def test_probe_delay_never_below_fixed_delay():
    path = single_hop(noise=0.005)
    assert (run_experiment(path, (8992,), 1000).rtt_s >= fixed_delay(path, 8992)).all()


def test_probe_loss_fraction_within_binomial_bounds():
    loss = 0.9
    path = single_hop(loss=loss, seed=42)
    n = 10_000
    lost = int(run_experiment(path, (800,), n).lost.sum())
    sigma = math.sqrt(n * loss * (1 - loss))
    assert abs(lost - n * loss) < 3 * sigma


def test_probe_stream_determinism():
    path = single_hop(noise=0.002, loss=0.1, seed=1234)
    assert run_experiment(path, (800,), 200) == run_experiment(path, (800,), 200)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_experiment_noise_free_round_robin():
    path = single_hop()
    samples = run_experiment(path, sizes=[800, 8992], count_per_size=1)
    assert [s.wire_bits for s in samples] == [800, 8992]
    assert samples[0].rtt_s == fixed_delay(path, 800)
    assert samples[1].rtt_s == fixed_delay(path, 8992)
    assert all(s.method == "simulated" for s in samples)
    assert [s.seq for s in samples] == [0, 1]


def test_experiment_identical_seeds_identical_samples():
    path = single_hop(noise=0.003, loss=0.05, seed=77)
    a = run_experiment(path, sizes=[800, 8992], count_per_size=50)
    b = run_experiment(path, sizes=[800, 8992], count_per_size=50)
    assert a == b


def test_experiment_different_seeds_differ():
    noisy = single_hop(noise=0.003, seed=1)
    other = SimPath(hops=noisy.hops, seed=2)
    a = run_experiment(noisy, sizes=[800], count_per_size=20)
    b = run_experiment(other, sizes=[800], count_per_size=20)
    assert [s.rtt_s for s in a] != [s.rtt_s for s in b]


def test_experiment_rejects_duplicate_sizes():
    with pytest.raises(ValueError):
        run_experiment(single_hop(), sizes=[800, 800], count_per_size=1)


def test_experiment_min_filter_pairwise_close_to_truth_under_noise():
    # Noise floor argument: with 1000 samples per size and per-hop noise around
    # 20% of the fixed delay, the minimum sits close enough to the floor for a
    # pairwise estimate within 5%.
    path = SimPath(
        hops=tuple(
            Hop(capacity_bps=1e6, propagation_s=0.001, processing_s=1e-4,
                queue_noise_mean_s=0.0012)
            for _ in range(3)
        ),
        seed=99,
    )
    samples = run_experiment(path, sizes=[800, 8992], count_per_size=1000)
    profile = min_delay_profile(samples, min_samples_per_size=30)
    est = estimate_pairwise(*profile.points)
    truth = ground_truth_rate(path)
    assert abs(est.b_av_bps - truth) / truth < 0.05


# ---------------------------------------------------------------------------
# estimator-vs-oracle equivalences (noise-free)
# ---------------------------------------------------------------------------

def test_property_pairwise_recovers_ground_truth():
    rng = np.random.default_rng(32)
    for _ in range(150):
        path = random_path(rng)
        p1 = SizeDelayPoint(800, fixed_delay(path, 800))
        p2 = SizeDelayPoint(12000, fixed_delay(path, 12000))
        est = estimate_pairwise(p1, p2)
        assert est.b_av_bps == pytest.approx(ground_truth_rate(path), rel=1e-9)


def test_property_intercept_recovers_fixed_overhead():
    rng = np.random.default_rng(33)
    for _ in range(150):
        path = random_path(rng)
        p1 = SizeDelayPoint(800, fixed_delay(path, 800))
        p2 = SizeDelayPoint(12000, fixed_delay(path, 12000))
        a = estimate_intercept(p1, p2)
        assert a == pytest.approx(fixed_overhead(path), rel=1e-9)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def test_path_from_config_full():
    path = path_from_config({
        "seed": 42,
        "hops": [
            {"capacity_bps": 1e6, "propagation_s": 0.01},
            {"capacity_bps": 2e6, "queue_noise_mean_s": 0.001, "loss_prob": 0.1},
        ],
    })
    assert path.seed == 42
    assert len(path.hops) == 2
    assert path.hops[1].loss_prob == 0.1


def test_path_from_config_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        path_from_config({"hops": []})
    with pytest.raises(ConfigError):
        path_from_config({"hops": [{"capacity_bps": -1}]})
    with pytest.raises(ConfigError):
        path_from_config({"hops": [{"capacity_bps": 1e6, "color": "red"}]})
    with pytest.raises(ConfigError):
        path_from_config([1, 2, 3])


def test_load_path_file(tmp_path):
    config = {"seed": 7, "hops": [{"capacity_bps": 1e6}]}
    p = tmp_path / "path.json"
    p.write_text(json.dumps(config))
    path = load_path_file(p)
    assert path.seed == 7
    assert ground_truth_rate(path) == pytest.approx(1e6)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_path_file(bad)


def test_hop_validation():
    with pytest.raises(ValueError):
        Hop(capacity_bps=0.0)
    with pytest.raises(ValueError):
        Hop(capacity_bps=1e6, loss_prob=1.0)
    with pytest.raises(ValueError):
        Hop(capacity_bps=1e6, propagation_s=-0.1)
    for bad in ({"capacity_bps": math.inf}, {"capacity_bps": math.nan},
                {"capacity_bps": math.inf, "propagation_s": 0.01},
                {"capacity_bps": 1e6, "propagation_s": math.nan},
                {"capacity_bps": 1e6, "propagation_s": math.inf},
                {"capacity_bps": 1e6, "processing_s": math.nan},
                {"capacity_bps": 1e6, "queue_noise_mean_s": math.nan},
                {"capacity_bps": 1e6, "queue_noise_mean_s": math.inf}):
        with pytest.raises(ValueError, match="finite"):
            Hop(**bad)
    for bad in ({"capacity_bps": True}, {"capacity_bps": 1e6, "propagation_s": False},
                {"capacity_bps": 1e6, "processing_s": True},
                {"capacity_bps": 1e6, "queue_noise_mean_s": True},
                {"capacity_bps": 1e6, "loss_prob": False}):
        name, value = list(bad.items())[-1]
        with pytest.raises(TypeError, match=f"{name} must be a number, got {value!r}"):
            Hop(**bad)
    with pytest.raises(ValueError):
        SimPath(hops=(), seed=0)
