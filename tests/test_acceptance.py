"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one pass/fail line (run with ``pytest -s`` to see the
lines stream)."""

import functools
import math
import timeit

import numpy as np
import pytest
from scipy.special import eval_legendre
from scipy.stats import chi2

import skypix as sp
from skypix import fits, frame, geom, geostat
from skypix.geostat import (CovarianceModel, EmpiricalCurve, PowerSpectrum,
                            cov_from_power_spectrum, empirical_covariance,
                            empirical_variogram, fit_variogram,
                            legendre_sum, renyi_function, q_statistic,
                            variogram_model)
from skypix.rng import numpy_generator, sample_without_replacement


def criterion(number, title):
    def decorate(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            try:
                extra = func(*args, **kwargs)
            except BaseException:
                print("[FAIL] criterion %2d: %s" % (number, title))
                raise
            note = (" (%s)" % extra) if extra else ""
            print("[PASS] criterion %2d: %s%s" % (number, title, note))
        return wrapper
    return decorate


@criterion(1, "askey covariance point value 0.3164062 within 1e-7")
def test_criterion_01():
    model = CovarianceModel("askey", 1.0, math.pi, kappa=4.0)
    value = geostat.cov_model(math.pi / 4, model)
    assert abs(value - 0.3164062) <= 1e-7


@criterion(2, "window areas 2.8884 / 11.7972 within 5e-4; annulus coverage "
              "2.11917 within 0.2% at nside=1024")
def test_criterion_02():
    disc1 = geom.disc(math.pi / 2, 0.0, 1.0)
    minus_half = geom.disc(math.pi / 2, 0.0, 0.5, complement=True)
    assert abs(disc1.area() - 2.8884) <= 5e-4
    assert abs(minus_half.area() - 11.7972) <= 5e-4

    full = frame.full_frame(1024, sp.RING)
    annulus = geom.WindowSet((minus_half, geom.disc(math.pi / 2, 0.0, 1.0)))
    covered = frame.geo_area(frame.extract_window(full, annulus))
    assert abs(covered - 2.11917) / 2.11917 <= 0.002
    return "covered area %.5f" % covered


@criterion(3, "ancestor chain of pixel 1000 is 250, 63, 16, 4, 1")
def test_criterion_03():
    chain = [sp.ancestor_index(1000, k) for k in range(1, 6)]
    assert chain == [250, 63, 16, 4, 1]


@criterion(4, "ordering round trip is the identity and centers agree to "
              "1e-12 for nside up to 64")
def test_criterion_04():
    for nside in (1, 2, 4, 8, 16, 32, 64):
        idx = np.arange(1, sp.npix(nside) + 1)
        ring = sp.nest2ring(nside, idx)
        assert len(np.unique(ring)) == idx.size
        assert np.array_equal(sp.ring2nest(nside, ring), idx)
        zn, pn = sp.pix2zphi(nside, idx, sp.NESTED)
        zr, pr = sp.pix2zphi(nside, ring, sp.RING)
        assert np.max(np.abs(zn - zr)) <= 1e-12
        assert np.max(np.abs(pn - pr)) <= 1e-12


@criterion(5, "centers lie on exactly 4*nside - 1 distinct latitudes")
def test_criterion_05():
    for nside in (1, 4, 16):
        z, _ = sp.pix2zphi(nside, np.arange(1, sp.npix(nside) + 1))
        assert len(np.unique(np.round(z, 12))) == 4 * nside - 1


@criterion(6, "nearest-pixel search: 56 candidates at nside=2048; within one "
              "pixel diagonal of optimal; >= 10x faster than a linear scan")
def test_criterion_06():
    # (a) candidate-visit count
    _, visits = sp.nest_search(2048, np.array([0.6, 0.8, 0.0]),
                               count_visits=True)
    assert visits == 12 + 4 * 11 == 56

    # (b) 1e4 random targets at nside=16 against the brute-force oracle
    nside = 16
    rng = numpy_generator(606)
    targets = rng.normal(size=(10000, 3))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    centers = sp.pix2vec(nside, np.arange(1, sp.npix(nside) + 1), sp.NESTED)
    brute = np.argmax(targets @ centers.T, axis=1) + 1
    got = sp.nest_search(nside, targets)
    d_got = np.arccos(np.clip(
        np.einsum("ij,ij->i", targets, centers[got - 1]), -1, 1))
    d_best = np.arccos(np.clip(
        np.einsum("ij,ij->i", targets, centers[brute - 1]), -1, 1))
    diagonal = 0.0
    for p in range(1, sp.npix(nside) + 1):
        b = sp.pixel_boundary(sp.PixelId(p, sp.NESTED, nside), 1)
        diagonal = max(diagonal, float(np.arccos(np.clip(b @ b.T, -1, 1)).max()))
    assert np.all(d_got - d_best <= diagonal)
    exact_rate = float(np.mean(got == brute))

    # (c) wall clock against the linear scan at nside=256
    nside = 256
    centers256 = sp.pix2vec(nside, np.arange(1, sp.npix(nside) + 1), sp.NESTED)
    target = np.array([0.6, 0.8, 0.0])
    sp.nest_search(nside, target)
    # per-call time of the fastest of 15 batches: slower batches measure
    # what else the machine was doing, not the code.  The two sides'
    # batches alternate, so a slow spell of the machine lands on both, and
    # one that spans several batches still leaves a few quiet ones.
    hier = linear = math.inf
    for _ in range(15):
        hier = min(hier, timeit.timeit(lambda: sp.nest_search(nside, target),
                                       number=100) / 100)
        linear = min(linear, timeit.timeit(
            lambda: int(np.argmax(centers256 @ target)), number=30) / 30)
    assert linear / hier >= 10
    return "exact-match rate %.3f, speedup %.0fx" % (exact_rate, linear / hier)


@criterion(7, "selective reads of a 12*1024^2-row map match the full read "
              "bit-exactly touching < 0.01% of the file")
def test_criterion_07(tmp_path_factory):
    nside = 1024
    n = sp.npix(nside)
    path = tmp_path_factory.mktemp("bigmap") / "big.fits"
    rng = numpy_generator(7)
    column = rng.standard_normal(n).astype(np.float32)
    size = fits.write_map(path, {"I": column}, nside=nside, ordering="nested")

    src = fits.open_map(path)
    assert src.payload_bytes_read == 0           # header-only open
    rows = np.array([1, 2, 4, 7, 11])
    partial = src.read_rows(rows, ["I"])
    touched = src.payload_bytes_read
    full_src = fits.open_map(path)
    full = full_src.read_all(["I"])
    assert np.array_equal(partial["I"], full["I"][rows - 1])
    assert np.array_equal(full["I"], column)
    assert touched / size < 1e-4
    return "touched %d of %d bytes" % (touched, size)


@criterion(8, "spectrum-to-covariance sums match a direct Legendre oracle "
              "to 1e-10 up to lmax=2000")
def test_criterion_08():
    grid = np.linspace(-1, 1, 51)
    out = cov_from_power_spectrum(PowerSpectrum([0], [4 * math.pi]), 0, grid)
    assert np.max(np.abs(out.values - 1.0)) <= 1e-14
    out = cov_from_power_spectrum(PowerSpectrum([0, 1], [0.0, 1.0]), 1, grid)
    assert np.max(np.abs(out.values - 3 * grid / (4 * math.pi))) <= 1e-14

    lmax = 2000
    rng = numpy_generator(8)
    cl = rng.uniform(0, 1, lmax + 1) / (1 + np.arange(lmax + 1)) ** 2
    ps = PowerSpectrum(np.arange(lmax + 1), cl)
    got = cov_from_power_spectrum(ps, lmax, grid).values
    direct = np.zeros_like(grid)
    for l in range(lmax + 1):
        direct += (2 * l + 1) * cl[l] * eval_legendre(l, grid)
    direct /= 4 * math.pi
    scale = np.abs(direct).max()
    assert np.max(np.abs(got - direct)) <= 1e-10 * max(scale, 1.0)


@criterion(9, "variogram and covariance estimates obey gamma(h) = C(0) - "
              "C(h) bin-wise within 3 standard errors on a simulated field")
def test_criterion_09():
    nside, m, lmax, bins = 32, 2500, 64, 10
    ell = np.arange(lmax + 1)
    cl = 1.0 / (1 + ell) ** 2
    cl *= 4 * np.pi / ((2 * ell + 1) * cl).sum()      # unit field variance
    pix = sample_without_replacement(sp.npix(nside), m, seed=2024)
    xyz = sp.pix2vec(nside, pix, sp.NESTED)
    gram = np.clip(xyz @ xyz.T, -1.0, 1.0)
    coeffs = (2 * ell + 1) * cl / (4 * np.pi)
    cov = legendre_sum(coeffs, gram)
    cov[np.diag_indices(m)] += 1e-10
    chol = np.linalg.cholesky(cov)

    rng = numpy_generator(77)
    field = chol @ rng.standard_normal(m)
    f = frame.SkyFrame(pix, sp.NESTED, nside, {"I": field})
    vario = empirical_variogram(f, "I", math.pi, bins)
    covar = empirical_covariance(f, "I", math.pi, bins)
    deviation = vario.values + covar.values[1:] - covar.values[0]

    # standard errors from replicate simulations off the same factor
    iu, ju = np.triu_indices(m, k=1)
    d = np.arccos(gram[iu, ju])
    keep = d > 0
    idx = np.clip(np.ceil(d / (math.pi / bins)).astype(int) - 1, 0, bins - 1)
    counts = np.bincount(idx[keep], minlength=bins)
    reps = []
    for _ in range(40):
        sim = chol @ rng.standard_normal(m)
        a = sim - sim.mean()
        sq = np.bincount(idx[keep], weights=((sim[iu] - sim[ju]) ** 2)[keep],
                         minlength=bins)
        pr = np.bincount(idx[keep], weights=(a[iu] * a[ju])[keep],
                         minlength=bins)
        reps.append(sq / (2 * counts) + pr / counts - (a ** 2).mean())
    se = np.array(reps).std(axis=0, ddof=1)
    assert np.all(np.abs(deviation) <= 3 * se)
    return "max |deviation| / s.e. = %.2f" % float(np.max(np.abs(deviation) / se))


@criterion(10, "variogram fits recover noise-free parameters to 1e-4 "
               "relative and 10%-noise parameters to 10%")
def test_criterion_10():
    def synth(model, noise=0.0, seed=0, max_dist=math.pi):
        lags = (np.arange(1, 31) - 0.5) * (max_dist / 30)
        values = variogram_model(lags, model)
        if noise:
            values = values * (1 + noise * numpy_generator(seed).standard_normal(30))
        return EmpiricalCurve(lags, values, np.full(30, 400.0), max_dist, 30)

    for family, truth, max_dist in (
            ("askey", CovarianceModel("askey", 1.0, math.pi, kappa=4.0), math.pi),
            ("matern", CovarianceModel("matern", 2.0, 0.3, kappa=1.5), 1.5)):
        fit = fit_variogram(synth(truth, max_dist=max_dist), family)
        assert abs(fit.model.sigmasq - truth.sigmasq) / truth.sigmasq <= 1e-4
        assert abs(fit.model.psi - truth.psi) / truth.psi <= 1e-4
        assert abs(fit.model.kappa - truth.kappa) / truth.kappa <= 1e-4

    truth = CovarianceModel("matern", 2.0, 0.3, kappa=1.5)
    fit = fit_variogram(synth(truth, noise=0.10, seed=42, max_dist=1.5),
                        "matern", seed=1)
    assert abs(fit.model.sigmasq - truth.sigmasq) / truth.sigmasq <= 0.10
    assert abs(fit.model.psi - truth.psi) / truth.psi <= 0.10
    assert abs(fit.model.kappa - truth.kappa) / truth.kappa <= 0.10


@criterion(11, "sample Renyi function: linear in q for a Gaussian field "
               "(R^2 > 0.99) and exactly constant for uniform mass")
def test_criterion_11():
    nside, box_level = 64, 3
    noise = numpy_generator(5).standard_normal(sp.npix(nside))
    f = frame.full_frame(nside, columns={"I": noise})
    q, t = renyi_function(f, "I", 1.01, 10.0, 20, box_level)
    design = np.vstack([q, np.ones_like(q)]).T
    _, residual, *_ = np.linalg.lstsq(design, t, rcond=None)
    ss_tot = float(((t - t.mean()) ** 2).sum())
    r_squared = 1 - float(residual[0]) / ss_tot
    assert r_squared > 0.99

    n_boxes = 12 * 4 ** box_level
    per_box = sp.npix(nside) // n_boxes
    pattern = np.arange(per_box, dtype=float)
    uniform = frame.full_frame(nside,
                               columns={"I": np.tile(pattern, n_boxes)})
    q2, t2 = renyi_function(uniform, "I", 1.01, 10.0, 20, box_level)
    assert np.max(np.abs(t2 - math.log2(n_boxes) / box_level)) <= 1e-9
    return "R^2 = %.5f" % r_squared


@criterion(12, "q statistic: 0 for one stratum, 1 for piecewise-constant "
               "strata, < 0.05 for an i.i.d. field in two strata")
def test_criterion_12():
    north = geom.disc(0.0, 0.0, math.pi / 2 - 1e-9)
    south = geom.disc(math.pi, 0.0, math.pi / 2 - 1e-9)

    rng = numpy_generator(12)
    f = frame.full_frame(8, columns={"I": rng.standard_normal(sp.npix(8))})
    assert q_statistic(f, "I", [geom.WindowSet(())]) == 0.0

    z = sp.pix2vec(8, np.arange(1, sp.npix(8) + 1), sp.NESTED)[:, 2]
    g = frame.SkyFrame(np.arange(1, sp.npix(8) + 1), sp.NESTED, 8,
                       {"I": np.where(z > 0, 3.0, -2.0)})
    assert q_statistic(g, "I", [north, south]) == 1.0

    big = frame.full_frame(32)
    values = numpy_generator(123).standard_normal(len(big))
    big = frame.SkyFrame(big.pix, sp.NESTED, 32, {"I": values})
    sampled = frame.sample_frame(big, 10000, seed=3)
    q = q_statistic(sampled, "I", [north, south])
    assert 0.0 <= q < 0.05
    return "i.i.d. q = %.4f" % q


@criterion(13, "one million uniform directions bin uniformly over the "
               "equal-area pixels (chi-square at the 0.999 level)")
def test_criterion_13():
    nside = 8
    rng = numpy_generator(13)
    counts = np.zeros(sp.npix(nside), dtype=np.int64)
    for _ in range(10):
        v = rng.normal(size=(100000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        pix = sp.nest_search(nside, v)
        counts += np.bincount(pix, minlength=sp.npix(nside) + 1)[1:]
    expected = 1e6 / sp.npix(nside)
    statistic = float(((counts - expected) ** 2 / expected).sum())
    bound = chi2.ppf(0.999, sp.npix(nside) - 1)
    assert statistic < bound
    return "chi2 = %.1f < %.1f" % (statistic, bound)


@criterion(14, "map-dependent published figures are out of desk scope; "
               "substituted structural checks hold")
def test_criterion_14():
    # the published maxDist/fmf/entropy/qstat/covariance values need the
    # real released map plus in-package seeded sampling; at desk scale the
    # contract is the structural behaviour checked here (plus criteria 9-12)
    rng = numpy_generator(14)
    f = frame.full_frame(16, columns={"I": rng.standard_normal(sp.npix(16))})

    curve = empirical_covariance(f, "I", 0.03, 10)
    assert curve.values.size == 11               # bins + zero-lag bin

    values = f.columns["I"]
    assert geostat.first_minkowski(f, "I", values.min() - 1) == pytest.approx(
        frame.geo_area(f))
    assert geostat.first_minkowski(f, "I", values.max()) == 0.0

    bits = geostat.entropy(f, "I", 64)
    assert 0.0 < bits <= 6.0
    assert geostat.entropy(
        frame.SkyFrame([1, 2], sp.NESTED, 1, {"I": [5.0, 5.0]}), "I") == 0.0
