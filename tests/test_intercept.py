import math

import numpy as np
import pytest

from deltaprobe.errors import (
    DelayNotAboveIntercept,
    InsufficientObservations,
    NonFiniteModel,
    RankDeficient,
)
from deltaprobe.estimator import SizeDelayPoint
from deltaprobe.intercept import (
    InterceptModel,
    InvalidObservation,
    Observations,
    PathFeatures,
    estimate_with_model,
    fit_intercept_model,
    predict_intercept,
)


def synth_observations(alpha, beta, pairs, noise=None):
    obs = []
    for i, (n, l) in enumerate(pairs):
        a = alpha * n + beta * l
        if noise is not None:
            a += noise[i]
        obs.append((PathFeatures(path_id=f"p{i}", hop_count_n=n, route_length_l_km=l), a))
    return obs


def normal_equations_fit(obs):
    """Brute-force 2x2 normal equations by Cramer's rule (test oracle)."""
    snn = sum(f.hop_count_n ** 2 for f, _ in obs)
    sll = sum(f.route_length_l_km ** 2 for f, _ in obs)
    snl = sum(f.hop_count_n * f.route_length_l_km for f, _ in obs)
    sna = sum(f.hop_count_n * a for f, a in obs)
    sla = sum(f.route_length_l_km * a for f, a in obs)
    det = snn * sll - snl * snl
    alpha = (sna * sll - sla * snl) / det
    beta = (sla * snn - sna * snl) / det
    return alpha, beta, det, snn, sll


def random_pairs(rng, count):
    return [(int(rng.integers(1, 25)), float(rng.uniform(0, 5000))) for _ in range(count)]


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_recovers_noise_free_model():
    rng = np.random.default_rng(21)
    alpha, beta = 1e-4, 5e-6  # 0.1 ms/hop, 0.005 ms/km
    obs = synth_observations(alpha, beta, random_pairs(rng, 10))
    model = fit_intercept_model(obs)
    assert model.alpha_s_per_hop == pytest.approx(alpha, rel=1e-9)
    assert model.beta_s_per_km == pytest.approx(beta, rel=1e-9)
    assert model.residual_rms_s < 1e-12
    assert model.n_observations == 10


def test_fit_rank_deficient_identical_rows():
    obs = synth_observations(1e-4, 5e-6, [(5, 1000.0)] * 3)
    with pytest.raises(RankDeficient):
        fit_intercept_model(obs)


def test_fit_rank_deficient_proportional_rows():
    obs = synth_observations(1e-4, 5e-6, [(2, 500.0), (4, 1000.0), (8, 2000.0)])
    with pytest.raises(RankDeficient):
        fit_intercept_model(obs)


def test_fit_too_few_observations():
    obs = synth_observations(1e-4, 5e-6, [(5, 1000.0)])
    with pytest.raises(InsufficientObservations):
        fit_intercept_model(obs)


def test_fit_matches_normal_equations_oracle_under_noise():
    rng = np.random.default_rng(25)
    alpha, beta = 1e-4, 5e-6
    sigma = 5e-5  # 0.05 ms
    pairs = random_pairs(rng, 200)
    noise = rng.normal(0.0, sigma, size=200)
    obs = synth_observations(alpha, beta, pairs, noise=noise)

    model = fit_intercept_model(obs)
    alpha_hat, beta_hat, det, snn, sll = normal_equations_fit(obs)
    assert model.alpha_s_per_hop == pytest.approx(alpha_hat, rel=1e-9)
    assert model.beta_s_per_km == pytest.approx(beta_hat, rel=1e-9)

    # and within 3 standard errors of the generating coefficients
    se_alpha = sigma * math.sqrt(sll / det)
    se_beta = sigma * math.sqrt(snn / det)
    assert abs(model.alpha_s_per_hop - alpha) < 3 * se_alpha
    assert abs(model.beta_s_per_km - beta) < 3 * se_beta


def test_fit_with_constant_term():
    rng = np.random.default_rng(23)
    obs = synth_observations(1e-4, 5e-6, random_pairs(rng, 20))
    obs = [(f, a + 2e-3) for f, a in obs]
    plain = fit_intercept_model(obs)
    affine = fit_intercept_model(obs, include_constant=True)
    assert plain.residual_rms_s > affine.residual_rms_s
    assert affine.const_s == pytest.approx(2e-3, rel=1e-6)
    assert affine.alpha_s_per_hop == pytest.approx(1e-4, rel=1e-6)


def test_property_exact_recovery_random_models():
    rng = np.random.default_rng(24)
    for _ in range(100):
        alpha = float(rng.uniform(-1e-3, 1e-3))
        beta = float(rng.uniform(-1e-5, 1e-5))
        obs = synth_observations(alpha, beta, random_pairs(rng, 8))
        try:
            model = fit_intercept_model(obs)
        except RankDeficient:
            continue
        assert model.alpha_s_per_hop == pytest.approx(alpha, rel=1e-9, abs=1e-18)
        assert model.beta_s_per_km == pytest.approx(beta, rel=1e-9, abs=1e-18)


def test_property_residual_invariant_under_reordering():
    rng = np.random.default_rng(25)
    pairs = random_pairs(rng, 30)
    noise = rng.normal(0, 1e-4, size=30)
    obs = synth_observations(1e-4, 5e-6, pairs, noise=noise)
    model = fit_intercept_model(obs)
    for _ in range(5):
        perm = rng.permutation(len(obs))
        shuffled = [obs[i] for i in perm]
        other = fit_intercept_model(shuffled)
        assert other.residual_rms_s == pytest.approx(model.residual_rms_s, rel=1e-12)


# ---------------------------------------------------------------------------
# prediction and composition
# ---------------------------------------------------------------------------

def test_predict_zero_model():
    model = InterceptModel(alpha_s_per_hop=0.0, beta_s_per_km=0.0,
                           residual_rms_s=0.0, n_observations=2)
    features = PathFeatures(path_id="p", hop_count_n=9, route_length_l_km=1234.0)
    assert predict_intercept(model, features) == 0.0


def test_predict_direct_arithmetic():
    model = InterceptModel(alpha_s_per_hop=1e-4, beta_s_per_km=5e-6,
                           residual_rms_s=0.0, n_observations=2)
    features = PathFeatures(path_id="p", hop_count_n=5, route_length_l_km=1000.0)
    assert predict_intercept(model, features) == pytest.approx(5.5e-3, rel=1e-12)


def test_predict_reproduces_training_data_after_exact_fit():
    rng = np.random.default_rng(26)
    obs = synth_observations(2e-4, 3e-6, random_pairs(rng, 12))
    model = fit_intercept_model(obs)
    for features, a in obs:
        assert predict_intercept(model, features) == pytest.approx(a, rel=1e-9)


def test_predict_linearity_in_features():
    model = InterceptModel(alpha_s_per_hop=1e-4, beta_s_per_km=5e-6,
                           residual_rms_s=0.0, n_observations=2)
    f1 = PathFeatures(path_id="a", hop_count_n=3, route_length_l_km=100.0)
    f2 = PathFeatures(path_id="b", hop_count_n=4, route_length_l_km=250.0)
    combined = PathFeatures(path_id="ab", hop_count_n=7, route_length_l_km=350.0)
    assert predict_intercept(model, combined) == pytest.approx(
        predict_intercept(model, f1) + predict_intercept(model, f2), rel=1e-12
    )


def test_estimate_with_zero_model_reduces_to_direct():
    model = InterceptModel(alpha_s_per_hop=0.0, beta_s_per_km=0.0,
                           residual_rms_s=0.0, n_observations=2)
    features = PathFeatures(path_id="p", hop_count_n=1, route_length_l_km=0.0)
    est = estimate_with_model(SizeDelayPoint(8192, 1.0), model, features)
    assert est.b_av_bps == 8192.0


def test_estimate_with_model_matches_pairwise_adsl():
    # model tuned to emit exactly the ADSL pair's intercept
    model = InterceptModel(alpha_s_per_hop=0.01565625, beta_s_per_km=0.0,
                           residual_rms_s=0.0, n_observations=2)
    features = PathFeatures(path_id="p", hop_count_n=1, route_length_l_km=0.0)
    est = estimate_with_model(SizeDelayPoint(800, 0.018), model, features)
    assert est.b_av_bps == pytest.approx(341333.33, abs=1.0)


def test_estimate_with_model_delay_below_prediction():
    model = InterceptModel(alpha_s_per_hop=1e-2, beta_s_per_km=0.0,
                           residual_rms_s=0.0, n_observations=2)
    features = PathFeatures(path_id="p", hop_count_n=2, route_length_l_km=0.0)
    with pytest.raises(DelayNotAboveIntercept):
        estimate_with_model(SizeDelayPoint(800, 0.010), model, features)


def test_features_validation():
    with pytest.raises(ValueError):
        PathFeatures(path_id="p", hop_count_n=0, route_length_l_km=0.0)
    with pytest.raises(ValueError):
        PathFeatures(path_id="p", hop_count_n=1, route_length_l_km=-1.0)


def test_observations_name_the_first_bad_row():
    good = [("p0", 5, 100.0, 0.001)] * 3
    for bad, index, message in (
        ([("p", 0, 1.0, 0.1)], 3, "hop_count_n must be >= 1"),
        ([("p", 1, -1.0, 0.1)], 3, "route_length_l_km must be >= 0"),
        ([("p", 1, math.inf, 0.1)], 3, "route_length_l_km must be >= 0 and finite"),
        ([("p", 1, 1.0, math.nan), ("p", 0, -1.0, 0.1)], 3, "a_s must be finite"),
        ([("p", 1, 1.0, 0.1), ("p", 0, math.nan, -math.inf)], 4, "hop_count_n must be >= 1"),
    ):
        with pytest.raises(InvalidObservation, match=message) as excinfo:
            Observations(*zip(*(good + bad)))
        assert excinfo.value.index == index


def test_observations_accept_the_float64_range():
    obs = Observations(("a", "b", "c"), [1, 2, 2**62], [0.0, 5e-324, 1.7976931348623157e308],
                       [-1.7976931348623157e308, -0.0, 1.7976931348623157e308])
    assert len(obs) == 3 and obs.hop_count_n.tolist()[2] == 2**62
    assert len(Observations((), [], [], [])) == 0


def test_observations_from_rows_round_trip():
    rows = synth_observations(1e-4, 5e-6, [(2, 500.0), (4, 1000.5), (8, 0.0)])
    obs = Observations.from_rows(rows)
    assert Observations.from_rows(obs) is obs
    assert obs.path_id == tuple(f.path_id for f, _ in rows)
    assert obs.hop_count_n.tolist() == [f.hop_count_n for f, _ in rows]
    assert obs.route_length_l_km.tolist() == [f.route_length_l_km for f, _ in rows]
    assert obs.a_s.tolist() == [a for _, a in rows]
    assert obs.hop_count_n.dtype == np.int64 and obs.a_s.dtype == np.float64


def test_fit_rejects_nonfinite_observations():
    rows = synth_observations(1e-4, 5e-6, [(2, 500.0), (4, 1000.0), (8, 2000.0)])
    rows[1] = (rows[1][0], math.nan)
    with pytest.raises(InvalidObservation) as excinfo:
        fit_intercept_model(rows)
    assert excinfo.value.index == 1


def test_fit_that_overflows_float64_raises():
    # intercepts near 1e200 s: the residuals' squares overflow
    rows = [(PathFeatures(f"p{i}", n, l), a)
            for i, (n, l, a) in enumerate([(5, 1.0, 1e200), (10, 2.0, -1e200),
                                           (3, 7.0, 1e200), (7, 3.0, 5.0)])]
    with pytest.raises(NonFiniteModel):
        fit_intercept_model(rows)
