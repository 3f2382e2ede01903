"""Covariance synthesis from an angular power spectrum.

The covariance of an isotropic field and its spectrum are linked by the
Legendre series

    cov(cos T) = (1/4pi) * sum_l (2l+1) * C_l * P_l(cos T),

evaluated here with numpy's ``legval``.  Spectra in the ``D_l``
convention are converted via ``C_l = 2 pi D_l / (l (l+1))`` for ``l >= 1``;
an absent monopole/dipole defaults to zero with a diagnostic.
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import legval

from ..csvio import read_table, write_table
from ..errors import DomainError, FormatError

C_L = "C_l"
D_L = "D_l"


@dataclass
class PowerSpectrum:
    """Spectrum values per multipole; ``ell`` strictly increasing ints."""

    ell: np.ndarray
    values: np.ndarray
    convention: str = C_L

    def __post_init__(self):
        self.ell = np.asarray(self.ell, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.ell.size != self.values.size:
            raise DomainError("ell and values must have equal length")
        if np.any(self.ell < 0):
            raise DomainError("multipoles must be >= 0")
        if np.any(np.diff(self.ell) <= 0):
            raise DomainError("multipoles must be strictly increasing")
        if self.convention not in (C_L, D_L):
            raise DomainError("convention must be %r or %r" % (C_L, D_L))

    def to_cl(self, lmax):
        """Dense C_l array for l = 0..lmax, plus diagnostic notes.

        Interior gaps raise; leading multipoles below the first tabulated
        one (the Planck files start at l=2) default to zero with a note,
        and so does a requested lmax beyond the data (truncation).
        """
        notes = []
        first = int(self.ell[0])
        last = int(self.ell[-1])
        span = self.ell[self.ell <= lmax]
        if span.size and np.any(np.diff(span) != 1):
            missing = int(span[np.nonzero(np.diff(span) != 1)[0][0]]) + 1
            raise DomainError("spectrum has a gap at l=%d" % missing)
        effective = min(lmax, last)
        if effective < lmax:
            notes.append("spectrum truncated at l=%d (requested %d)"
                         % (effective, lmax))
        cl = np.zeros(lmax + 1)
        take = (self.ell >= 0) & (self.ell <= effective)
        ells = self.ell[take]
        vals = self.values[take]
        if self.convention == D_L:
            usable = ells >= 1
            cl[ells[usable]] = (2 * np.pi * vals[usable]
                                / (ells[usable] * (ells[usable] + 1.0)))
            if np.any(~usable):
                notes.append("D_l at l=0 has no C_l equivalent; set to 0")
        else:
            cl[ells] = vals
        if first > 0:
            notes.append("multipoles below l=%d default to 0" % first)
        return cl, notes


@dataclass
class SpectrumCovariance:
    cos_theta: np.ndarray
    values: np.ndarray
    lmax: int
    diagnostics: list = field(default_factory=list)


def legendre_sum(coeffs, x):
    """``sum_l coeffs[l] * P_l(x)``, vectorized in x."""
    return legval(np.asarray(x, dtype=np.float64), coeffs)


def cov_from_power_spectrum(ps, lmax, grid):
    """Covariance estimate on ``grid`` (cosines of angular separations)."""
    grid = np.asarray(grid, dtype=np.float64)
    if np.any((grid < -1) | (grid > 1)):
        raise DomainError("grid points must be cosines in [-1, 1]")
    if lmax < 0:
        raise DomainError("lmax must be >= 0")
    cl, notes = ps.to_cl(lmax)
    ell = np.arange(lmax + 1)
    coeffs = (2 * ell + 1) * cl / (4 * np.pi)
    values = legendre_sum(coeffs, grid)
    return SpectrumCovariance(grid, values, lmax, notes)


# ---------------------------------------------------------------------------
# two-column CSV with a convention-bearing header

def write_spectrum_csv(ps, path):
    write_table(path, ["l", ps.convention], [ps.ell], [ps.values])


def read_spectrum_csv(path):
    def check_header(header):
        if len(header) != 2 or header[0] != "l" or header[1] not in (C_L, D_L):
            raise FormatError(
                "spectrum CSV needs header 'l,C_l' or 'l,D_l', got %r" % header)

    header, (ell, values) = read_table(path, check_header, (np.int64,),
                                     FormatError)
    if not ell.size:
        raise FormatError("empty spectrum file")
    return PowerSpectrum(ell, values, header[1])
