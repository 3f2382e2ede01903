import math
import os
from fractions import Fraction
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import optimize

import skypix
from skypix.geostat import (CovarianceModel, correlation, cov_model,
                            variogram_model, fit_variogram, EmpiricalCurve,
                            FAMILIES)
from skypix.geostat.models import _KAPPA_RULES
from skypix.errors import DomainError, ParameterError
from skypix.rng import numpy_generator


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


@pytest.mark.parametrize("n", [2, 20, 29, 30, 45, 131, 400])
def test_matern_matches_half_integer_closed_form(n):
    # kappa = n + 1/2: rho = exp(-t) * sum_k n!(2n-k)!/((2n)!k!(n-k)!) (2t)^k,
    # summed exactly; past kappa 30 rho comes from K's uniform expansion,
    # and below it tp**kappa * kv overflows at the smallest and largest t
    t = np.array([1e-12, 1e-3, 0.1, 1.0, 5.0, 20.0, 60.0, 150.0, 300.0,
                  800.0])
    f = math.factorial
    coef = [Fraction(f(n) * f(2 * n - k), f(2 * n) * f(k) * f(n - k))
            for k in range(n + 1)]
    exact = [float(sum(c * Fraction(2 * x) ** k for k, c in enumerate(coef)))
             * math.exp(-x / 2) * math.exp(-x / 2) for x in t]
    model = CovarianceModel("matern", 1.0, 1.0, kappa=n + 0.5)
    assert_allclose(correlation(model, t), exact, rtol=1e-12, atol=1e-300)


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


def test_fit_unknown_family_names_the_families():
    lags = np.linspace(0.1, 1.0, 10)
    curve = EmpiricalCurve(lags, 1 - np.exp(-lags), np.full(10, 5.0), 1.0, 10)
    with pytest.raises(ParameterError, match="bogus.*matern"):
        fit_variogram(curve, "bogus")

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


@pytest.mark.parametrize("weights", ["equal", "npairs", "cressie"])
@pytest.mark.parametrize("fix_nugget", [True, False])
def test_multiquadric_fit_of_a_flat_curve_keeps_its_shape_below_one(
        weights, fix_nugget):
    # a flat curve is fit by sending the shape psi to 1, the edge of its
    # domain, where exp(log psi) rounds to 1.0 first
    rng = np.random.default_rng(11)
    lags = (np.arange(1, 31) - 0.5) * (0.05 / 30)
    values = 1.0 + 0.001 * rng.standard_normal(30)
    counts = np.round(1e4 * (0.5 + rng.random(30)))
    curve = EmpiricalCurve(lags, values, counts, 0.05, 30)
    fit = fit_variogram(curve, "multiquadric", weights=weights,
                        fix_nugget=fix_nugget, seed=3)
    assert 0 < fit.model.psi < 1
    assert math.isfinite(fit.objective)


def test_fit_insufficient_bins():
    curve = EmpiricalCurve([0.1, 0.2], [0.5, 0.6], [3.0, 3.0], 0.3, 2)
    with pytest.raises(DomainError):
        fit_variogram(curve, "matern")


# ---------------------------------------------------------------------------
# the bounded least-squares fit against a reference simplex

def reference_fit(curve, family, weights="equal", fix_nugget=True, seed=0):
    """Objective of the four-start Nelder-Mead fit plus polish that
    fit_variogram ran before its least-squares stage, on the current model
    forms: one CovarianceModel per evaluation, 1e30 outside the domain."""
    uses_kappa, kappa0, _ = _KAPPA_RULES[family]
    lags, values, counts = (np.asarray(a, dtype=np.float64) for a in
                            (curve.lags, curve.values, curve.counts))
    sigma0 = float(np.max(values))
    psi0 = 0.5 if family == "multiquadric" else float(lags.max())
    start = [math.log(sigma0), math.log(psi0)]
    if uses_kappa:
        start.append(math.log(kappa0))
    if not fix_nugget:
        start.append(math.log(0.1 * sigma0))

    def objective(u):
        try:
            sigmasq, psi, *rest = map(math.exp, u)
            model = CovarianceModel(family, sigmasq, psi,
                                    rest[0] if uses_kappa else None, 1.0,
                                    0.0 if fix_nugget else rest[-1])
        except (OverflowError, ParameterError):
            return 1e30
        gm = variogram_model(lags, model)
        w = {"equal": 1.0, "npairs": counts,
             "cressie": counts / np.maximum(gm, 1e-300) ** 2}[weights]
        return float(np.sum(w * (values - gm) ** 2))

    rng = numpy_generator(seed)
    starts = [np.array(start)]
    for _ in range(3):
        starts.append(starts[0] + rng.normal(scale=0.4, size=len(start)))
    with np.errstate(all="ignore"):
        best = min((optimize.minimize(
            objective, u0, method="Nelder-Mead",
            options={"maxiter": 10000, "xatol": 1e-12, "fatol": 1e-14,
                     "adaptive": True}) for u0 in starts),
            key=lambda res: res.fun)
        polish = optimize.minimize(
            objective, best.x, method="Nelder-Mead",
            options={"maxiter": 10000, "xatol": 1e-13, "fatol": 1e-15,
                     "adaptive": True})
    return min(best.fun, polish.fun)


def gaussian_like_curve():
    """A step-like rise over large pair counts: matern heads for large
    kappa, where its formula overflows."""
    lags = (np.arange(1, 31) - 0.5) * (0.1 / 30)
    noise = np.random.default_rng(7).standard_normal(30)
    values = 0.5 + 0.5 * (1 - np.exp(-(lags / 0.02) ** 2)) + 0.01 * noise
    return EmpiricalCurve(lags, values, np.round(1e6 * lags / 0.1), 0.1, 30)


@pytest.mark.parametrize("family", FAMILIES)
def test_fit_reaches_the_reference_simplex(family):
    truth = CovarianceModel("matern", 2.0, 0.3, kappa=1.5)
    curve = synth_curve(truth, max_dist=1.5, noise=0.10, seed=42)
    fit = fit_variogram(curve, family, seed=1)
    assert fit.objective <= reference_fit(curve, family, seed=1) * (1 + 1e-10)


@pytest.mark.parametrize("weights", ["npairs", "cressie"])
@pytest.mark.parametrize("fix_nugget", [True, False])
def test_fit_with_million_pair_counts_converges(weights, fix_nugget):
    lags = (np.arange(1, 31) - 0.5) * (0.1 / 30)
    truth = CovarianceModel("matern", 1.0, 0.02, kappa=1.5, nugget=0.1)
    noise = np.random.default_rng(7).standard_normal(30)
    values = variogram_model(lags, truth) * (1 + 0.02 * noise)
    counts = np.round(1e6 * (0.5 + lags / 0.1))
    curve = EmpiricalCurve(lags, values, counts, 0.1, 30)
    for family in ("matern", "exponential", "cauchy", "askey"):
        fit = fit_variogram(curve, family, weights=weights,
                            fix_nugget=fix_nugget)
        assert fit.converged, family
        # the objective is reported on the scale of the pair counts
        gm = variogram_model(lags, fit.model)
        w = counts / gm ** 2 if weights == "cressie" else counts
        assert_allclose(fit.objective, np.sum(w * (values - gm) ** 2),
                        rtol=1e-9)


def test_fits_raise_no_runtime_warnings():
    curve = gaussian_like_curve()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for family in FAMILIES:
            for weights in ("equal", "npairs", "cressie"):
                for fix_nugget in (True, False):
                    fit = fit_variogram(curve, family, weights=weights,
                                        fix_nugget=fix_nugget)
                    assert math.isfinite(fit.objective)


def test_cli_fit_prints_nothing_to_stderr(tmp_path):
    path = tmp_path / "v.csv"
    gaussian_like_curve().write_csv(path)
    src = os.path.dirname(os.path.dirname(skypix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "skypix.cli", "fit", str(path), "--family",
         "matern", "--weights", "cressie", "--free-nugget"],
        capture_output=True, text=True, check=True, env=env)
    assert done.stderr == ""
    assert '"family": "matern"' in done.stdout
