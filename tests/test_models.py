import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from skypix.geostat import (CovarianceModel, correlation, cov_model,
                            variogram_model, fit_variogram, EmpiricalCurve,
                            FAMILIES)
from skypix.errors import DomainError, ParameterError


def make(family, sigmasq=1.0, psi=1.0, **kw):
    if family == "multiquadric":
        psi = min(psi, 0.7)
    return CovarianceModel(family, sigmasq, psi, **kw)


def test_askey_paper_value():
    model = CovarianceModel("askey", 1.0, math.pi, kappa=4.0)
    assert_allclose(cov_model(math.pi / 4, model), 0.3164062, atol=1e-7)
    assert cov_model(math.pi / 4, model) == (1 - 0.25) ** 4


def test_askey_closed_form_everywhere():
    model = CovarianceModel("askey", 2.0, 1.3, kappa=3.0)
    h = np.linspace(0, math.pi, 200)
    expect = 2.0 * np.maximum(0.0, 1 - h / 1.3) ** 3
    assert_allclose(cov_model(h, model), expect, atol=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_rho_is_one_at_zero(family):
    model = make(family, sigmasq=2.5, psi=0.8)
    assert_allclose(cov_model(0.0, model), 2.5, rtol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_rho_bounded_on_dense_grid(family):
    model = make(family, psi=0.6)
    h = np.linspace(0, math.pi, 4001)
    rho = correlation(model, h)
    assert np.all(np.abs(rho) <= 1 + 1e-12)


def test_spherical_compact_support():
    model = CovarianceModel("spherical", 1.0, 0.5)
    assert cov_model(0.5, model) == 0.0
    assert cov_model(2.0, model) == 0.0
    assert cov_model(0.49, model) > 0.0


def test_matern_half_integer_closed_forms():
    # kappa = 1/2 is the exponential; kappa = 3/2 is (1 + t) e^-t
    t = np.linspace(1e-3, math.pi, 50)
    m05 = CovarianceModel("matern", 1.0, 1.0, kappa=0.5)
    assert_allclose(correlation(m05, t), np.exp(-t), rtol=1e-10)
    m15 = CovarianceModel("matern", 1.0, 1.0, kappa=1.5)
    assert_allclose(correlation(m15, t), (1 + t) * np.exp(-t), rtol=1e-10)


def test_nugget_only_at_zero():
    model = CovarianceModel("exponential", 1.0, 1.0, nugget=0.25)
    assert_allclose(cov_model(0.0, model), 1.25)
    assert_allclose(cov_model(1e-9, model), math.exp(-1e-9), rtol=1e-9)
    assert variogram_model(0.0, model) == 0.0
    assert_allclose(variogram_model(1e-12, model), 0.25, rtol=1e-3)


def test_parameter_domains():
    with pytest.raises(ParameterError):
        CovarianceModel("askey", 1.0, 1.0, kappa=1.5)
    with pytest.raises(ParameterError):
        CovarianceModel("powered.exponential", 1.0, 1.0, kappa=2.5)
    with pytest.raises(ParameterError):
        CovarianceModel("multiquadric", 1.0, 1.5, kappa=1.0)
    with pytest.raises(ParameterError):
        CovarianceModel("exponential", -1.0, 1.0)
    with pytest.raises(ParameterError):
        CovarianceModel("exponential", 1.0, 0.0)
    with pytest.raises(ParameterError):
        CovarianceModel("nope", 1.0, 1.0)
    with pytest.raises(DomainError):
        cov_model(3.5, CovarianceModel("exponential", 1.0, 1.0))


def test_gencauchy_kappa2_default_and_domain():
    m = CovarianceModel("gencauchy", 1.0, 1.0, kappa=1.2)
    assert m.kappa2 == 1.0
    with pytest.raises(ParameterError):
        CovarianceModel("gencauchy", 1.0, 1.0, kappa=1.2, kappa2=3.0)


# ---------------------------------------------------------------------------
# fitting

def synth_curve(model, n_lags=30, max_dist=None, noise=0.0, seed=0):
    max_dist = max_dist or math.pi
    lags = (np.arange(1, n_lags + 1) - 0.5) * (max_dist / n_lags)
    values = variogram_model(lags, model)
    if noise:
        rng = np.random.default_rng(seed)
        values = values * (1 + noise * rng.standard_normal(n_lags))
    counts = np.full(n_lags, 500.0)
    return EmpiricalCurve(lags, values, counts, max_dist, n_lags)


def test_fit_recovers_askey_exactly():
    truth = CovarianceModel("askey", 1.0, math.pi, kappa=4.0)
    fit = fit_variogram(synth_curve(truth), "askey", weights="equal")
    assert fit.converged
    assert_allclose(fit.model.sigmasq, 1.0, rtol=1e-4)
    assert_allclose(fit.model.psi, math.pi, rtol=1e-4)
    assert_allclose(fit.model.kappa, 4.0, rtol=1e-4)


def test_fit_recovers_matern_exactly():
    truth = CovarianceModel("matern", 2.0, 0.3, kappa=1.5)
    fit = fit_variogram(synth_curve(truth, max_dist=1.5), "matern")
    assert fit.converged
    assert_allclose(fit.model.sigmasq, 2.0, rtol=1e-4)
    assert_allclose(fit.model.psi, 0.3, rtol=1e-4)
    assert_allclose(fit.model.kappa, 1.5, rtol=1e-4)


def test_fit_noisy_matern_within_ten_percent():
    truth = CovarianceModel("matern", 2.0, 0.3, kappa=1.5)
    curve = synth_curve(truth, max_dist=1.5, noise=0.10, seed=42)
    fit = fit_variogram(curve, "matern", seed=1)
    assert_allclose(fit.model.sigmasq, 2.0, rtol=0.10)
    assert_allclose(fit.model.psi, 0.3, rtol=0.10)
    assert_allclose(fit.model.kappa, 1.5, rtol=0.10)


def test_fit_zero_curve_gives_zero_variance():
    lags = np.linspace(0.05, 1.0, 12)
    curve = EmpiricalCurve(lags, np.zeros(12), np.full(12, 10.0), 1.0, 12)
    for family in FAMILIES:
        fit = fit_variogram(curve, family)
        assert fit.model.sigmasq == 0.0 and fit.converged
        # psi is multiquadric's shape, in (0, 1)
        assert fit.model.psi == (0.5 if family == "multiquadric" else 1.0)


def test_fit_free_nugget():
    truth = CovarianceModel("exponential", 1.0, 0.4, nugget=0.2)
    curve = synth_curve(truth, max_dist=1.6)
    fit = fit_variogram(curve, "exponential", fix_nugget=False)
    assert_allclose(fit.model.sigmasq, 1.0, rtol=1e-3)
    assert_allclose(fit.model.psi, 0.4, rtol=1e-3)
    assert_allclose(fit.model.nugget, 0.2, atol=1e-3)


def test_fit_weight_options():
    truth = CovarianceModel("exponential", 1.0, 0.4)
    curve = synth_curve(truth, max_dist=1.6)
    for weights in ("equal", "npairs", "cressie"):
        fit = fit_variogram(curve, "exponential", weights=weights)
        assert_allclose(fit.model.psi, 0.4, rtol=1e-3)
    with pytest.raises(DomainError):
        fit_variogram(curve, "exponential", weights="volume")


def test_fit_survives_parameter_drift_to_overflow():
    # sinepower ignores psi, so the simplex can walk log(psi) until exp()
    # overflows; such points score as invalid and the fit still reports
    lags = (np.arange(1, 31) - 0.5) * (0.1 / 30)
    noise = np.random.default_rng(1).standard_normal(30)
    values = 1.0 - 0.9 * np.exp(-lags / 0.01) + 0.01 * noise
    curve = EmpiricalCurve(lags, values, np.full(30, 1000.0), 0.1, 30)
    fit = fit_variogram(curve, "sinepower", seed=4)
    params = [fit.model.sigmasq, fit.model.psi, fit.model.kappa]
    assert all(math.isfinite(p) for p in params)
    assert isinstance(fit.converged, bool)
    assert fit.objective < 1e30


def test_fit_insufficient_bins():
    curve = EmpiricalCurve([0.1, 0.2], [0.5, 0.6], [3.0, 3.0], 0.3, 2)
    with pytest.raises(DomainError):
        fit_variogram(curve, "matern")
