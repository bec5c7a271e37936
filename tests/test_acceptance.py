"""Acceptance suite: one test per release criterion, each printing a PASS
line with the measured numbers (run with -s or -v to see them).

Criteria covered:
  1. two-size worked example (idle ADSL pair)     -> 341,333 bps +/- 1, a = 15.65625 ms +/- 1 us, < 1 ms
  2. two-size worked example (FTP-loaded pair)    -> 65,536 bps +/- 1, < 1 ms
  3. slope inversion reference rates              -> 285/128/222/205 Mbps within 0.5%
  4. estimator vs simulator oracle, noise-free    -> 1e-9 relative over 100+ random paths, < 5 s
  5. noise robustness with min-filtering          -> within 5% of truth in >= 95/100 seeded trials, < 30 s
  6. intercept-model recovery                     -> exact to 1e-9; noisy within 3 SE vs normal equations
  7. statistics vs brute-force sort oracle        -> exact trimmed bounds on 1000 random inputs
  8. simulate determinism                         -> byte-identical session files
  9. persistence round-trip fidelity              -> save/load and export/import lossless
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import make_sample
from deltaprobe.cli import main
from deltaprobe.estimator import (
    SizeDelayPoint,
    estimate_intercept,
    estimate_pairwise,
    estimate_regression,
    invert_slope,
    min_delay_profile,
)
from deltaprobe.intercept import PathFeatures, fit_intercept_model
from deltaprobe.simulator import (
    Hop,
    SimPath,
    fixed_delay,
    fixed_overhead,
    ground_truth_rate,
    run_experiment,
)
from deltaprobe.stats import summarize
from deltaprobe.store import (
    CANONICAL_CSV_COLUMNS,
    SessionRecord,
    export_csv,
    import_csv,
    load_session,
    save_session,
)


def _timed(fn):
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_1_adsl_worked_example():
    p_small = SizeDelayPoint(800, 0.018)
    p_large = SizeDelayPoint(8992, 0.042)
    est, runtime = _timed(lambda: estimate_pairwise(p_small, p_large))
    assert abs(est.b_av_bps - 341333) <= 1.0
    assert abs(est.intercept_s - 0.01565625) <= 1e-6
    assert runtime < 1e-3
    print(f"\nPASS criterion 1: B_av = {est.b_av_bps:.2f} bps (341,333 +/- 1), "
          f"a = {est.intercept_s * 1e3:.5f} ms (15.65625 +/- 0.001), "
          f"{runtime * 1e6:.1f} us")


def test_criterion_2_ftp_worked_example():
    p_small = SizeDelayPoint(800, 0.300)
    p_large = SizeDelayPoint(8992, 0.425)
    est, runtime = _timed(lambda: estimate_pairwise(p_small, p_large))
    assert abs(est.b_av_bps - 65536) <= 1.0
    assert runtime < 1e-3
    print(f"\nPASS criterion 2: B_av = {est.b_av_bps:.2f} bps (65,536 +/- 1), "
          f"{runtime * 1e6:.1f} us")


def test_criterion_3_slope_inversion_reference_rates():
    rates = (285e6, 128e6, 222e6, 205e6)
    worst = 0.0
    for rate in rates:
        recovered = invert_slope(1.0 / rate)
        rel = abs(recovered - rate) / rate
        worst = max(worst, rel)
        assert rel < 0.005
    print(f"\nPASS criterion 3: 285/128/222/205 Mbps recovered, "
          f"worst relative error {worst:.2e} (< 5e-3)")


def test_criterion_4_oracle_equivalence_noise_free():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    n_paths = 120
    for _ in range(n_paths):
        hops = tuple(
            Hop(
                capacity_bps=float(10 ** rng.uniform(math.log10(64e3), 10)),
                propagation_s=float(rng.uniform(1e-4, 0.03)),
                processing_s=float(rng.uniform(0, 1e-3)),
            )
            for _ in range(int(rng.integers(1, 11)))
        )
        path = SimPath(hops=hops, seed=0)
        truth = ground_truth_rate(path)
        overhead = fixed_overhead(path)

        sizes = [800, 4096, 8992, 12000]
        points = [SizeDelayPoint(w, fixed_delay(path, w)) for w in sizes]
        pair = estimate_pairwise(points[0], points[-1])
        assert pair.b_av_bps == pytest.approx(truth, rel=1e-9)
        assert estimate_intercept(points[0], points[-1]) == pytest.approx(overhead, rel=1e-9)

        profile = min_delay_profile(
            run_experiment(path, sizes, count_per_size=1), min_samples_per_size=1
        )
        reg = estimate_regression(profile)
        assert reg.b_av_bps == pytest.approx(truth, rel=1e-9)
        assert reg.intercept_s == pytest.approx(overhead, rel=1e-9)
    runtime = time.perf_counter() - t0
    assert runtime < 5.0
    print(f"\nPASS criterion 4: {n_paths} random paths, pairwise/regression/"
          f"intercept all within 1e-9 relative, {runtime:.2f} s (< 5 s)")


def test_criterion_5_noise_robustness():
    # 3-hop path; per-hop exponential queueing noise with mean 20% of that
    # hop's fixed delay, evaluated at the midpoint of the two probe sizes.
    sizes = (800, 8992)
    mid_size = sum(sizes) / 2
    capacity, prop, proc = 1e6, 1e-3, 1e-4
    hop_fixed_mid = mid_size / capacity + prop + proc
    noise_mean = 0.2 * hop_fixed_mid

    t0 = time.perf_counter()
    trials = 100
    hits = 0
    for seed in range(trials):
        path = SimPath(
            hops=tuple(
                Hop(capacity_bps=capacity, propagation_s=prop, processing_s=proc,
                    queue_noise_mean_s=noise_mean)
                for _ in range(3)
            ),
            seed=seed,
        )
        samples = run_experiment(path, sizes, count_per_size=1000)
        profile = min_delay_profile(samples, min_samples_per_size=30)
        est = estimate_pairwise(*profile.points)
        truth = ground_truth_rate(path)
        if abs(est.b_av_bps - truth) / truth < 0.05:
            hits += 1
    runtime = time.perf_counter() - t0
    assert hits >= 95
    assert runtime < 30.0
    print(f"\nPASS criterion 5: {hits}/100 trials within 5% of ground truth "
          f"(>= 95 required), {runtime:.1f} s (< 30 s)")


def test_criterion_6_intercept_model_recovery():
    alpha, beta = 1e-4, 5e-6
    rng = np.random.default_rng(25)

    pairs = [(int(rng.integers(1, 25)), float(rng.uniform(0, 5000))) for _ in range(10)]
    clean = [
        (PathFeatures(path_id=f"c{i}", hop_count_n=n, route_length_l_km=l),
         alpha * n + beta * l)
        for i, (n, l) in enumerate(pairs)
    ]
    model = fit_intercept_model(clean)
    assert model.alpha_s_per_hop == pytest.approx(alpha, rel=1e-9)
    assert model.beta_s_per_km == pytest.approx(beta, rel=1e-9)

    sigma = 5e-5  # 0.05 ms
    pairs = [(int(rng.integers(1, 25)), float(rng.uniform(0, 5000))) for _ in range(200)]
    noise = rng.normal(0.0, sigma, size=200)
    noisy = [
        (PathFeatures(path_id=f"n{i}", hop_count_n=n, route_length_l_km=l),
         alpha * n + beta * l + noise[i])
        for i, (n, l) in enumerate(pairs)
    ]
    fitted = fit_intercept_model(noisy)

    # independent brute-force normal equations (Cramer's rule)
    snn = sum(f.hop_count_n ** 2 for f, _ in noisy)
    sll = sum(f.route_length_l_km ** 2 for f, _ in noisy)
    snl = sum(f.hop_count_n * f.route_length_l_km for f, _ in noisy)
    sna = sum(f.hop_count_n * a for f, a in noisy)
    sla = sum(f.route_length_l_km * a for f, a in noisy)
    det = snn * sll - snl * snl
    oracle_alpha = (sna * sll - sla * snl) / det
    oracle_beta = (sla * snn - sna * snl) / det
    assert fitted.alpha_s_per_hop == pytest.approx(oracle_alpha, rel=1e-9)
    assert fitted.beta_s_per_km == pytest.approx(oracle_beta, rel=1e-9)

    se_alpha = sigma * math.sqrt(sll / det)
    se_beta = sigma * math.sqrt(snn / det)
    z_alpha = abs(fitted.alpha_s_per_hop - alpha) / se_alpha
    z_beta = abs(fitted.beta_s_per_km - beta) / se_beta
    assert z_alpha < 3 and z_beta < 3
    print(f"\nPASS criterion 6: exact recovery to 1e-9; noisy fit matches "
          f"normal equations, |z_alpha| = {z_alpha:.2f}, |z_beta| = {z_beta:.2f} (< 3)")


def test_criterion_7_statistics_oracle():
    rng = np.random.default_rng(777)
    for trial in range(1000):
        m = int(rng.integers(1, 250))
        n_lost = int(rng.integers(0, 20))
        delays = [float(d) for d in rng.uniform(1e-6, 1.0, size=m)]
        values = delays + [None] * n_lost
        rng.shuffle(values)
        samples = [make_sample(800, v, seq=i) for i, v in enumerate(values)]
        summary = summarize(samples)

        ordered = sorted(delays)
        k = (25 * m) // 1000
        assert summary.lower_2_5_s == ordered[k]
        assert summary.upper_97_5_s == ordered[m - 1 - k]
        assert summary.loss_rate == n_lost / (m + n_lost)

    constant = summarize([make_sample(800, 0.01, seq=i) for i in range(64)])
    assert constant.jitter_s == 0.0
    print("\nPASS criterion 7: trimmed bounds equal the sort oracle on 1000 "
          "random inputs; loss rate exact; constant series has zero jitter")


def test_criterion_8_simulate_determinism(tmp_path):
    config = tmp_path / "path.json"
    config.write_text(json.dumps({
        "seed": 31337,
        "hops": [
            {"capacity_bps": 1e6, "propagation_s": 0.002,
             "queue_noise_mean_s": 0.0005, "loss_prob": 0.02},
            {"capacity_bps": 5e6, "propagation_s": 0.001},
        ],
    }))
    out1, out2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    assert main(["simulate", str(config), "--output", str(out1)]) == 0
    assert main(["simulate", str(config), "--output", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    print(f"\nPASS criterion 8: repeated simulate runs byte-identical "
          f"({len(b1)} bytes)")


def test_criterion_9_round_trip_fidelity(tmp_path):
    rng = np.random.default_rng(909)
    for i in range(20):
        n = int(rng.integers(1, 60))
        samples = []
        for seq in range(n):
            wire = int(rng.choice([1024, 4096, 9216]))
            lost = bool(rng.random() < 0.25)
            rtt = None if lost else float(rng.uniform(1e-4, 0.8))
            samples.append(make_sample(wire, rtt, seq=seq, method="udp_echo"))
        record = SessionRecord(
            session_id=f"rt{i}",
            created_at="2026-08-09T00:00:00+00:00",
            plan=SimPath(hops=(Hop(capacity_bps=1e6),), seed=int(rng.integers(0, 2**63))),
            samples=samples,
        )
        session_path = tmp_path / f"rt{i}.jsonl"
        save_session(record, session_path)
        assert load_session(session_path) == record

        csv_path = tmp_path / f"rt{i}.csv"
        export_csv(samples, csv_path)
        back = import_csv(csv_path, **CANONICAL_CSV_COLUMNS)
        assert [s.wire_bits for s in back] == [s.wire_bits for s in samples]
        assert [s.rtt_s for s in back] == [s.rtt_s for s in samples]
        assert [s.lost for s in back] == [s.lost for s in samples]
    print("\nPASS criterion 9: save/load identity and export/import "
          "size/delay/loss fidelity on 20 randomized sessions")
