import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_legendre

from skypix.errors import DomainError, FormatError
from skypix.geostat import (C_L, D_L, PowerSpectrum, cov_from_power_spectrum,
                            legendre_sum, read_spectrum_csv,
                            write_spectrum_csv)


def test_monopole_only_gives_constant_one():
    ps = PowerSpectrum([0], [4 * math.pi])
    out = cov_from_power_spectrum(ps, 0, np.linspace(-1, 1, 11))
    assert_allclose(out.values, 1.0, rtol=1e-15)


def test_dipole_only_gives_scaled_cosine():
    ps = PowerSpectrum([0, 1], [0.0, 1.0])
    grid = np.linspace(-1, 1, 21)
    out = cov_from_power_spectrum(ps, 1, grid)
    assert_allclose(out.values, 3 * grid / (4 * math.pi), rtol=1e-14)


def test_value_at_one_is_total_power():
    rng = np.random.default_rng(0)
    cl = rng.uniform(0, 2, size=40)
    ps = PowerSpectrum(np.arange(40), cl)
    out = cov_from_power_spectrum(ps, 39, np.array([1.0]))
    expect = ((2 * np.arange(40) + 1) * cl).sum() / (4 * math.pi)
    assert_allclose(out.values[0], expect, rtol=1e-12)


def test_recurrence_matches_direct_legendre_oracle():
    rng = np.random.default_rng(1)
    lmax = 300
    cl = rng.uniform(0, 1, size=lmax + 1) / (1 + np.arange(lmax + 1)) ** 2
    ps = PowerSpectrum(np.arange(lmax + 1), cl)
    grid = np.linspace(-1, 1, 101)
    out = cov_from_power_spectrum(ps, lmax, grid)
    ell = np.arange(lmax + 1)
    direct = sum((2 * l + 1) * cl[l] * eval_legendre(l, grid) for l in ell)
    direct /= 4 * math.pi
    assert_allclose(out.values, direct, atol=1e-10 * np.abs(direct).max())


def test_dl_conversion():
    # D_l = l (l+1) C_l / (2 pi): converting back recovers C_l for l >= 1
    cl = np.array([0.7, 0.5, 0.3, 0.2])
    ell = np.arange(4)
    dl = np.zeros(4)
    dl[1:] = ell[1:] * (ell[1:] + 1) * cl[1:] / (2 * math.pi)
    grid = np.linspace(-1, 1, 31)
    from_dl = cov_from_power_spectrum(PowerSpectrum(ell, dl, D_L), 3, grid)
    cl0 = cl.copy()
    cl0[0] = 0.0   # the monopole cannot survive the D_l convention
    from_cl = cov_from_power_spectrum(PowerSpectrum(ell, cl0, C_L), 3, grid)
    assert_allclose(from_dl.values, from_cl.values, rtol=1e-12)
    assert any("l=0" in note for note in from_dl.diagnostics)


def test_planck_style_spectrum_starting_at_two():
    ps = PowerSpectrum([2, 3, 4], [1.0, 1.0, 1.0], D_L)
    out = cov_from_power_spectrum(ps, 4, np.array([0.3]))
    assert any("below l=2" in note for note in out.diagnostics)


def test_gap_raises_truncation_warns():
    with pytest.raises(DomainError):
        cov_from_power_spectrum(PowerSpectrum([0, 1, 3], [1, 1, 1]), 3,
                                np.array([0.0]))
    out = cov_from_power_spectrum(PowerSpectrum([0, 1, 2], [1, 1, 1]), 10,
                                  np.array([0.0]))
    assert any("truncated" in note for note in out.diagnostics)


def test_grid_validation():
    ps = PowerSpectrum([0], [1.0])
    with pytest.raises(DomainError):
        cov_from_power_spectrum(ps, 0, np.array([1.5]))


def test_spectrum_validation():
    with pytest.raises(DomainError):
        PowerSpectrum([1, 1], [0.5, 0.5])
    with pytest.raises(DomainError):
        PowerSpectrum([-1, 0], [0.5, 0.5])
    with pytest.raises(DomainError):
        PowerSpectrum([0], [0.5], convention="E_l")


def recurrence_sum(coeffs, x):
    """``sum_l coeffs[l] * P_l(x)`` by the upward three-term recurrence
    ``(l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}``."""
    p_prev, p = np.ones_like(x), x
    total = coeffs[0] + coeffs[1] * x
    for l in range(1, len(coeffs) - 1):
        p_prev, p = p, ((2 * l + 1) * x * p - l * p_prev) / (l + 1)
        total = total + coeffs[l + 1] * p
    return total


@pytest.mark.parametrize("power", [0.0, 2.0], ids=["flat", "decaying"])
def test_legendre_sum_matches_the_recurrence(power):
    # rounding in either evaluation grows at most with the square of the
    # number of terms
    ell = np.arange(501)
    coeffs = (2 * ell + 1) / (4 * np.pi) / (1.0 + ell) ** power
    x = np.cos(np.linspace(0, np.pi, 1001))
    ref = recurrence_sum(coeffs, x)
    tol = ell.size ** 2 * np.finfo(np.float64).eps * np.abs(ref).max()
    assert np.abs(legendre_sum(coeffs, x) - ref).max() <= tol


def test_legendre_sum_low_order_exact():
    x = np.linspace(-1, 1, 9)
    assert_allclose(legendre_sum([2.0], x), 2.0)
    assert_allclose(legendre_sum([0.0, 1.0], x), x)
    assert_allclose(legendre_sum([0.0, 0.0, 1.0], x), 0.5 * (3 * x ** 2 - 1),
                    atol=1e-15)


def test_spectrum_csv_round_trip(tmp_path):
    ps = PowerSpectrum([2, 3, 4, 5], [1.25, 0.5, 0.125, 0.0625], D_L)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(ps, path)
    back = read_spectrum_csv(path)
    assert back.convention == D_L
    assert_allclose(back.ell, ps.ell)
    assert_allclose(back.values, ps.values)


def test_spectrum_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("l,P_l\n0,1.0\n")
    with pytest.raises(FormatError):
        read_spectrum_csv(path)


def test_spectrum_csv_skips_blank_lines_and_rejects_bad_numbers(tmp_path):
    path = tmp_path / "spec.csv"
    path.write_text("l,C_l\n2,1.5\n\n3,0.25\n\n")
    back = read_spectrum_csv(path)
    assert back.ell.tolist() == [2, 3]
    assert back.values.tolist() == [1.5, 0.25]
    for body in ("2.0,1.5\n", "2,1.5x\n", "2\n"):
        path.write_text("l,C_l\n" + body)
        with pytest.raises(FormatError, match="spec.csv"):
            read_spectrum_csv(path)
    path.write_text("l,C_l\n")
    with pytest.raises(FormatError, match="empty"):
        read_spectrum_csv(path)
