"""Equal-area isolatitude pixelation of the sphere.

The sphere is split into 12 equal-area base faces, each subdivided into
``nside x nside`` quadrilateral pixels (``nside`` a power of two), for a
total of ``12 * nside**2`` pixels whose centers lie on ``4*nside - 1``
rings of constant latitude.  Two orderings address the same pixels:

* ``ring``   -- indices increase with colatitude, then longitude;
* ``nested`` -- indices encode the subdivision hierarchy, so the four
  children of pixel ``p`` (1-based) are ``4*(p-1)+1 .. 4*(p-1)+4``.

All public indices are 1-based.  Internal arithmetic is 0-based.

Geometry conventions (0-based face ``f``; in-face coords ``x, y`` counted
from the southernmost corner of the face, both axes pointing northward
along the face edges):

* ring ``i`` from the north pole, ``1 <= i <= 4*nside - 1``;
* north cap rings ``i < nside``: ``z = 1 - i**2/(3*nside**2)``, ``4*i``
  pixels at ``phi = (pi/(2*i)) * (k - 1/2)``;
* equatorial belt ``nside <= i <= 3*nside``: ``z = 4/3 - 2*i/(3*nside)``,
  ``4*nside`` pixels at ``phi = (pi/(2*nside)) * (k - fodd)`` where
  ``fodd`` is 1/2 when ``i - nside`` is even and 1 when odd (longitudes
  canonical in ``[0, 2*pi)``, indices in longitude-sorted order);
* south cap mirrors the north cap.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AddressingError, DomainError

RING = "ring"
NESTED = "nested"
SCHEMES = (RING, NESTED)

MAX_LEVEL = 29

# Ring offset (jrll) and longitude offset (jpll) of each base face; jpll
# doubles as the face-center abscissa in the projection plane, in units of
# pi/4 (north faces sit at phi = pi/4, 3pi/4, ...; equatorial at 0, pi/2,
# ...; south mirrors north).
_JRLL = np.array([2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4], dtype=np.int64)
_JPLL = np.array([1, 3, 5, 7, 0, 2, 4, 6, 1, 3, 5, 7], dtype=np.int64)

# Neighbour step tables.  Steps are indexed SW, W, NW, N, NE, E, SE, S in
# face coordinates; a step that leaves the face selects a row of
# _NB_FACE/_NB_SWAP by 4 + sx + 3*sy where sx, sy in {-1, 0, 1} flag the
# coordinate overflow.  -1 marks the eight three-face corners where the
# diagonal neighbour does not exist.  Swap bits: 1 mirrors x, 2 mirrors y,
# 4 transposes.
_NB_XSTEP = (-1, -1, 0, 1, 1, 1, 0, -1)
_NB_YSTEP = (0, 1, 1, 1, 0, -1, -1, -1)
_NB_FACE = np.array([
    [8, 9, 10, 11, -1, -1, -1, -1, 10, 11, 8, 9],    # S
    [5, 6, 7, 4, 8, 9, 10, 11, 9, 10, 11, 8],        # SE
    [-1, -1, -1, -1, 5, 6, 7, 4, -1, -1, -1, -1],    # E
    [4, 5, 6, 7, 11, 8, 9, 10, 11, 8, 9, 10],        # SW
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],          # stay
    [1, 2, 3, 0, 0, 1, 2, 3, 5, 6, 7, 4],            # NE
    [-1, -1, -1, -1, 7, 4, 5, 6, -1, -1, -1, -1],    # W
    [3, 0, 1, 2, 3, 0, 1, 2, 4, 5, 6, 7],            # NW
    [2, 3, 0, 1, -1, -1, -1, -1, 0, 1, 2, 3],        # N
], dtype=np.int64)
_NB_SWAP = np.array([
    [0, 0, 3],   # S
    [0, 0, 6],   # SE
    [0, 0, 0],   # E
    [0, 0, 5],   # SW
    [0, 0, 0],   # stay
    [5, 0, 0],   # NE
    [0, 0, 0],   # W
    [6, 0, 0],   # NW
    [3, 0, 0],   # N
], dtype=np.int64)


def _check_nside(nside):
    if not isinstance(nside, (int, np.integer)):
        raise AddressingError("nside must be an integer, got %r" % (nside,))
    nside = int(nside)
    if nside < 1 or nside > (1 << MAX_LEVEL) or (nside & (nside - 1)) != 0:
        raise AddressingError(
            "nside must be a power of two in [1, 2^%d], got %d" % (MAX_LEVEL, nside))
    return nside


def _check_scheme(scheme):
    if scheme not in SCHEMES:
        raise AddressingError("unknown ordering scheme %r" % (scheme,))
    return scheme


@dataclass(frozen=True)
class Resolution:
    """Grid resolution: ``nside`` is a power of two, ``j = log2(nside)``."""

    nside: int

    def __post_init__(self):
        object.__setattr__(self, "nside", _check_nside(self.nside))

    @property
    def j(self):
        return self.nside.bit_length() - 1

    @property
    def npix(self):
        return 12 * self.nside * self.nside

    @property
    def pixel_area(self):
        return 4.0 * math.pi / self.npix


@dataclass(frozen=True)
class PixelId:
    """A 1-based pixel index under a given ordering scheme and resolution."""

    index: int
    scheme: str
    nside: int

    def __post_init__(self):
        _check_scheme(self.scheme)
        n = _check_nside(self.nside)
        if not 1 <= int(self.index) <= 12 * n * n:
            raise AddressingError(
                "pixel index %d out of range 1..%d at nside=%d"
                % (self.index, 12 * n * n, n))
        object.__setattr__(self, "index", int(self.index))

    @property
    def resolution(self):
        return Resolution(self.nside)


def npix(nside):
    """Total pixel count ``12 * nside**2``."""
    if isinstance(nside, Resolution):
        nside = nside.nside
    return 12 * _check_nside(nside) ** 2


def pixel_area(nside):
    """Area of every pixel, in steradians (the partition is equal-area)."""
    return 4.0 * math.pi / npix(nside)


# ---------------------------------------------------------------------------
# bit interleaving (x bits on even positions, y on odd)

def _spread_bits(v):
    v = v & np.int64(0xFFFFFFFF)
    v = (v | (v << 16)) & np.int64(0x0000FFFF0000FFFF)
    v = (v | (v << 8)) & np.int64(0x00FF00FF00FF00FF)
    v = (v | (v << 4)) & np.int64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << 2)) & np.int64(0x3333333333333333)
    v = (v | (v << 1)) & np.int64(0x5555555555555555)
    return v


def _compact_bits(v):
    v = v & np.int64(0x5555555555555555)
    v = (v | (v >> 1)) & np.int64(0x3333333333333333)
    v = (v | (v >> 2)) & np.int64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> 4)) & np.int64(0x00FF00FF00FF00FF)
    v = (v | (v >> 8)) & np.int64(0x0000FFFF0000FFFF)
    v = (v | (v >> 16)) & np.int64(0x00000000FFFFFFFF)
    return v


def _isqrt(v):
    """Element-wise integer sqrt with float round-off fixed up."""
    s = np.sqrt(np.asarray(v, dtype=np.float64)).astype(np.int64)
    s = s + ((s + 1) * (s + 1) <= v)
    s = s - (s * s > v)
    return s


# ---------------------------------------------------------------------------
# nested index <-> face coordinates

def _nest_decompose(nside, p0):
    two_j = 2 * (nside.bit_length() - 1)
    f = p0 >> two_j
    within = p0 & np.int64(nside * nside - 1)
    return f, _compact_bits(within), _compact_bits(within >> 1)


def _nest_compose(nside, f, x, y):
    two_j = 2 * (nside.bit_length() - 1)
    return (f.astype(np.int64) << two_j) | _spread_bits(x) | (_spread_bits(y) << 1)


# ---------------------------------------------------------------------------
# ring position (jr = ring from north pole, jp = 1-based index within ring,
# nr = cap ring radius, kshift = equatorial phase flag)

def _fxy_to_ringpos(nside, f, x, y):
    jr = _JRLL[f] * nside - x - y - 1
    nr = np.where(jr < nside, jr, np.where(jr > 3 * nside, 4 * nside - jr, nside))
    kshift = np.where((jr >= nside) & (jr <= 3 * nside), (jr - nside) & 1, 0)
    jp = (_JPLL[f] * nr + x - y + 1 + kshift) >> 1
    jp = np.where(jp > 4 * nr, jp - 4 * nr, jp)
    jp = np.where(jp < 1, jp + 4 * nr, jp)
    return jr, jp, nr, kshift


def _ringpos_to_fxy(nside, jr, jp, nr, kshift):
    north = jr < nside
    south = jr > 3 * nside
    eq = ~(north | south)

    f = np.empty_like(jr)
    f[north] = (jp[north] - 1) // nr[north]
    f[south] = 8 + (jp[south] - 1) // nr[south]
    if np.any(eq):
        ire = jr[eq] - nside + 1
        irm = 2 * nside + 2 - ire
        ifm = (jp[eq] - ire // 2 + nside - 1) // nside
        ifp = (jp[eq] - irm // 2 + nside - 1) // nside
        feq = np.where(ifp == ifm, ifp | 4, np.where(ifp < ifm, ifp, ifm + 8))
        f[eq] = feq

    irt = jr - _JRLL[f] * nside + 1
    ipt = 2 * jp - _JPLL[f] * nr - kshift - 1
    ipt = np.where(ipt >= 2 * nside, ipt - 8 * nside, ipt)
    x = (ipt - irt) >> 1
    y = (-ipt - irt) >> 1
    return f, x, y


def _ring_decompose(nside, p0):
    ncap = 2 * nside * (nside - 1)
    npx = 12 * nside * nside
    north = p0 < ncap
    south = p0 >= npx - ncap
    eq = ~(north | south)

    jr = np.empty_like(p0)
    jp = np.empty_like(p0)
    nr = np.empty_like(p0)
    kshift = np.zeros_like(p0)

    if np.any(north):
        pn = p0[north]
        i = (1 + _isqrt(1 + 2 * pn)) >> 1
        jr[north] = i
        nr[north] = i
        jp[north] = pn - 2 * i * (i - 1) + 1
    if np.any(eq):
        ip = p0[eq] - ncap
        i = ip // (4 * nside) + nside
        jr[eq] = i
        nr[eq] = nside
        jp[eq] = ip % (4 * nside) + 1
        kshift[eq] = (i - nside) & 1
    if np.any(south):
        ip = npx - p0[south]
        i = (1 + _isqrt(2 * ip - 1)) >> 1
        jr[south] = 4 * nside - i
        nr[south] = i
        jp[south] = 4 * i + 1 - (ip - 2 * i * (i - 1))
    return jr, jp, nr, kshift


def _ring_compose(nside, jr, jp, nr, kshift):
    ncap = 2 * nside * (nside - 1)
    npx = 12 * nside * nside
    north = jr < nside
    south = jr > 3 * nside
    out = np.empty_like(jr)
    out[north] = 2 * nr[north] * (nr[north] - 1) + jp[north] - 1
    eq = ~(north | south)
    out[eq] = ncap + (jr[eq] - nside) * 4 * nside + jp[eq] - 1
    out[south] = npx - 2 * nr[south] * (nr[south] + 1) + jp[south] - 1
    return out


def _ringpos_to_zphi(nside, jr, jp, nr, kshift):
    north = jr < nside
    south = jr > 3 * nside
    z = np.empty(jr.shape, dtype=np.float64)
    cap = nr.astype(np.float64) ** 2 / (3.0 * nside * nside)
    z[north] = 1.0 - cap[north]
    z[south] = cap[south] - 1.0
    eq = ~(north | south)
    z[eq] = (2.0 * nside - jr[eq]) * 2.0 / (3.0 * nside)
    phi = (jp - 0.5 * (1 + kshift)) * (np.pi / 2) / nr
    return z, phi


# ---------------------------------------------------------------------------
# index -> center

def _as_index_array(nside, ipix):
    arr = np.asarray(ipix, dtype=np.int64)
    if arr.size and (arr.min() < 1 or arr.max() > 12 * nside * nside):
        raise AddressingError("pixel index out of range 1..%d" % (12 * nside * nside))
    return arr


def pix2zphi(nside, ipix, scheme=RING):
    """Centers of 1-based pixels as ``(z, phi)`` with ``z = cos(theta)``."""
    nside = _check_nside(nside)
    _check_scheme(scheme)
    arr = np.atleast_1d(_as_index_array(nside, ipix)) - 1
    if scheme == RING:
        pos = _ring_decompose(nside, arr)
    else:
        f, x, y = _nest_decompose(nside, arr)
        pos = _fxy_to_ringpos(nside, f, x, y)
    z, phi = _ringpos_to_zphi(nside, *pos)
    if np.isscalar(ipix) or np.ndim(ipix) == 0:
        return z[0], phi[0]
    return z, phi


def pix2ang(nside, ipix, scheme=RING):
    """Pixel centers as colatitude/longitude ``(theta, phi)`` in radians."""
    z, phi = pix2zphi(nside, ipix, scheme)
    return np.arccos(z), phi


def pix2vec(nside, ipix, scheme=RING):
    """Pixel centers as unit vectors, shape ``(..., 3)``."""
    z, phi = pix2zphi(nside, ipix, scheme)
    st = np.sqrt(np.maximum(0.0, 1.0 - np.asarray(z) ** 2))
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.asarray(z)], axis=-1)


# ---------------------------------------------------------------------------
# angle -> index (the pixel containing the direction)

def _zphi_quadrants(theta, phi):
    z = np.cos(theta)
    tt = (phi / (0.5 * np.pi)) % 4.0
    # sqrt(3*(1-|z|)) computed from theta for stability near the poles
    half = 0.5 * theta
    rtz = np.where(z >= 0, np.sqrt(6.0) * np.sin(half), np.sqrt(6.0) * np.cos(half))
    return z, tt, rtz


def ang2pix(nside, theta, phi, scheme=RING):
    """1-based index of the pixel containing direction ``(theta, phi)``:
    ``theta`` in ``[0, pi]``, any finite ``phi``; arrays broadcast."""
    nside = _check_nside(nside)
    _check_scheme(scheme)
    if np.ndim(theta) == 0 and np.ndim(phi) == 0:
        # one direction: the same zone arithmetic on numpy scalars, without
        # the masking, costs a quarter of the 1-element array path
        theta, phi = np.float64(theta), np.float64(phi)
        if not (np.isfinite(theta) and np.isfinite(phi)):
            raise DomainError("non-finite direction")
        if not 0.0 <= theta <= np.pi:
            raise DomainError("theta must be in [0, pi]")
        z, tt, rtz = _zphi_quadrants(theta, phi)
        if abs(z) > 2.0 / 3.0:
            return int(_polar_zone_pix(nside, tt, z, rtz, scheme)) + 1
        return int(_eq_zone_pix(nside, tt, z, scheme)) + 1
    theta_a = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi_a = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    if not (np.all(np.isfinite(theta_a)) and np.all(np.isfinite(phi_a))):
        raise DomainError("non-finite direction")
    if np.any(theta_a < 0.0) or np.any(theta_a > np.pi):
        raise DomainError("theta must be in [0, pi]")
    theta_a, phi_a = np.broadcast_arrays(theta_a, phi_a)
    z, tt, rtz = _zphi_quadrants(theta_a, phi_a)
    polar = np.abs(z) > 2.0 / 3.0

    out = np.empty(z.shape, dtype=np.int64)
    if np.any(~polar):
        out[~polar] = _eq_zone_pix(nside, tt[~polar], z[~polar], scheme)
    if np.any(polar):
        out[polar] = _polar_zone_pix(nside, tt[polar], z[polar], rtz[polar], scheme)
    out += 1
    return out


def _eq_zone_pix(nside, tt, z, scheme):
    temp1 = nside * (0.5 + tt)
    temp2 = nside * (0.75 * z)
    jp = np.floor(temp1 - temp2).astype(np.int64)  # ascending edge line
    jm = np.floor(temp1 + temp2).astype(np.int64)  # descending edge line
    if scheme == RING:
        ir = nside + 1 + jp - jm          # ring within the belt, 1..2n+1
        kshift = 1 - (ir & 1)
        ip = ((jp + jm - nside + kshift + 1) >> 1) % (4 * nside)
        return 2 * nside * (nside - 1) + (ir - 1) * 4 * nside + ip
    factor = nside.bit_length() - 1
    ifp = jp >> factor
    ifm = jm >> factor
    f = np.where(ifp == ifm, ifp | 4, np.where(ifp < ifm, ifp, ifm + 8))
    x = jm & (nside - 1)
    y = (nside - 1) - (jp & (nside - 1))
    return _nest_compose(nside, f, x, y)


def _polar_zone_pix(nside, tt, z, rtz, scheme):
    ntt = np.minimum(np.floor(tt).astype(np.int64), 3)
    tp = tt - ntt
    tmp = nside * rtz
    jp = np.floor(tp * tmp).astype(np.int64)          # increasing longitude
    jm = np.floor((1.0 - tp) * tmp).astype(np.int64)  # decreasing longitude
    if scheme == RING:
        ir = jp + jm + 1                               # ring from nearest pole
        ip = np.floor(tt * ir).astype(np.int64) % (4 * ir)
        npx = 12 * nside * nside
        return np.where(z > 0, 2 * ir * (ir - 1) + ip, npx - 2 * ir * (ir + 1) + ip)
    jp = np.minimum(jp, nside - 1)
    jm = np.minimum(jm, nside - 1)
    f = np.where(z >= 0, ntt, ntt + 8)
    x = np.where(z >= 0, nside - 1 - jm, jp)
    y = np.where(z >= 0, nside - 1 - jp, jm)
    return _nest_compose(nside, f, x, y)


def vec2pix(nside, xyz, scheme=RING):
    """Containing pixel of unit vectors, shape ``(..., 3)`` -> 1-based index."""
    xyz = np.asarray(xyz, dtype=np.float64)
    theta = np.arccos(np.clip(xyz[..., 2], -1.0, 1.0))
    phi = np.arctan2(xyz[..., 1], xyz[..., 0]) % (2 * np.pi)
    return ang2pix(nside, theta, phi, scheme)


# ---------------------------------------------------------------------------
# ordering conversion

def nest2ring(nside, ipix):
    """Nested index -> ring index addressing the same pixel (1-based)."""
    nside = _check_nside(nside)
    arr = np.atleast_1d(_as_index_array(nside, ipix)) - 1
    f, x, y = _nest_decompose(nside, arr)
    out = _ring_compose(nside, *_fxy_to_ringpos(nside, f, x, y)) + 1
    return int(out[0]) if np.ndim(ipix) == 0 else out


def ring2nest(nside, ipix):
    """Ring index -> nested index addressing the same pixel (1-based)."""
    nside = _check_nside(nside)
    arr = np.atleast_1d(_as_index_array(nside, ipix)) - 1
    jr, jp, nr, kshift = _ring_decompose(nside, arr)
    f, x, y = _ringpos_to_fxy(nside, jr, jp, nr, kshift)
    out = _nest_compose(nside, f, x, y) + 1
    return int(out[0]) if np.ndim(ipix) == 0 else out


def convert_ordering(pixel, target):
    """Re-address ``pixel`` in the ``target`` scheme (identity if equal)."""
    _check_scheme(target)
    if pixel.scheme == target:
        return pixel
    if target == RING:
        return PixelId(nest2ring(pixel.nside, pixel.index), RING, pixel.nside)
    return PixelId(ring2nest(pixel.nside, pixel.index), NESTED, pixel.nside)


def pixel_center(pixel):
    """Center of a :class:`PixelId` as a unit vector ``(x, y, z)``."""
    return pix2vec(pixel.nside, pixel.index, pixel.scheme)


# ---------------------------------------------------------------------------
# nested hierarchy

def ancestor_index(index, k):
    """Hierarchy walk on bare nested indices; independent of resolution."""
    index = np.asarray(index, dtype=np.int64)
    k = np.asarray(k, dtype=np.int64)
    if np.any(k < 0):
        raise DomainError("k must be non-negative")
    out = ((index - 1) >> (2 * k)) + 1
    return int(out) if out.ndim == 0 else out


def ancestor(pixel, k):
    """Pixel ``k`` levels up the nested hierarchy (base faces sit at j=0)."""
    if pixel.scheme != NESTED:
        raise AddressingError("ancestor requires the nested scheme")
    j = Resolution(pixel.nside).j
    if not 1 <= k <= j:
        raise DomainError("k must be in 1..%d for nside=%d" % (j, pixel.nside))
    return PixelId(ancestor_index(pixel.index, k), NESTED, pixel.nside >> k)


def children_index(index):
    index = np.asarray(index, dtype=np.int64)
    return (index - 1)[..., None] * 4 + np.arange(1, 5, dtype=np.int64)


def children(pixel):
    """The four pixels one level down the nested hierarchy."""
    if pixel.scheme != NESTED:
        raise AddressingError("children requires the nested scheme")
    if pixel.nside >= (1 << MAX_LEVEL):
        raise AddressingError("children would exceed the maximum resolution")
    return [PixelId(int(i), NESTED, pixel.nside * 2)
            for i in children_index(pixel.index)]


def pixel_window(j1, j2, pix_j1):
    """All nested indices at level ``j2`` inside pixel ``pix_j1`` at level ``j1``."""
    if j2 < j1:
        raise DomainError("j2 must be >= j1")
    if j1 < 0 or j2 > MAX_LEVEL:
        raise DomainError("levels must be in 0..%d" % MAX_LEVEL)
    n1 = 1 << j1
    if not 1 <= pix_j1 <= 12 * n1 * n1:
        raise AddressingError("pix_j1 out of range at level j1")
    step = 1 << (2 * (j2 - j1))
    start = (pix_j1 - 1) * step + 1
    return np.arange(start, start + step, dtype=np.int64)


# ---------------------------------------------------------------------------
# neighbours

def neighbours_index(nside, ipix):
    """Adjacent nested pixels of 1-based ``ipix``; shape ``(..., 8)``, -1 pads.

    Steps are returned in SW, W, NW, N, NE, E, SE, S order; entries are -1
    where the diagonal neighbour is absent (three-face corners).
    """
    nside = _check_nside(nside)
    arr = np.atleast_1d(_as_index_array(nside, ipix)) - 1
    f, x, y = _nest_decompose(nside, arr)
    out = np.empty(arr.shape + (8,), dtype=np.int64)
    for m in range(8):
        xs = x + _NB_XSTEP[m]
        ys = y + _NB_YSTEP[m]
        sx = (xs >= nside).astype(np.int64) - (xs < 0)
        sy = (ys >= nside).astype(np.int64) - (ys < 0)
        nb = 4 + sx + 3 * sy
        f2 = _NB_FACE[nb, f]
        xs = xs - sx * nside
        ys = ys - sy * nside
        bits = _NB_SWAP[nb, f >> 2]
        xs2 = np.where(bits & 1, nside - 1 - xs, xs)
        ys2 = np.where(bits & 2, nside - 1 - ys, ys)
        swap = (bits & 4) != 0
        xf = np.where(swap, ys2, xs2)
        yf = np.where(swap, xs2, ys2)
        pix = _nest_compose(nside, np.maximum(f2, 0), xf, yf) + 1
        out[..., m] = np.where(f2 < 0, -1, pix)
    return out[0] if np.ndim(ipix) == 0 else out


def neighbours(pixel):
    """Edge- and corner-adjacent pixels, ascending; 8 generically, 7 at the
    24 pixels beside a three-face corner (6 for the base faces themselves)."""
    if pixel.scheme != NESTED:
        raise AddressingError("neighbours requires the nested scheme")
    raw = neighbours_index(pixel.nside, pixel.index)
    idx = sorted(set(int(i) for i in raw if i > 0))
    return [PixelId(i, NESTED, pixel.nside) for i in idx]


# ---------------------------------------------------------------------------
# containing pixel of unit vectors

def nest_search(nside, target, count_visits=False):
    """Nested pixel holding the unit vector ``target``.

    The answer is the containing pixel, computed in constant time per
    target: :func:`vec2pix` takes the direction's ``(z, phi)`` and the zone
    arithmetic of :func:`ang2pix` locates the face and the position within
    it, with no search over candidate centers.  That pixel's center is
    within one pixel diameter of the nearest center (the two coincide away
    from cell fringes, and always when the target is itself a pixel
    center).  Cell membership is half-open, so a target equidistant from
    two centers resolves to the cell that contains it.

    ``target`` may be a single vector or an ``(n, 3)`` array; each must
    have unit norm within 1e-9.  Returns the 1-based index (or array), plus
    with ``count_visits`` the candidate count a descent of the nested
    hierarchy would inspect, ``12 + 4*log2(nside)``; it is derived from
    ``nside``, not counted.
    """
    nside = _check_nside(nside)
    xyz = np.asarray(target, dtype=np.float64)
    norms = np.sqrt((xyz ** 2).sum(axis=-1))
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise DomainError("target vectors must be normalized")
    result = vec2pix(nside, xyz, NESTED)
    visits = 12 + 4 * (nside.bit_length() - 1)
    if count_visits:
        return result, visits
    return result


# ---------------------------------------------------------------------------
# boundaries via the equal-area projection plane

def _proj_to_zphi(px, py):
    """Inverse projection: plane ``(px, py)`` -> ``(z, phi)``.

    Pixel and face edges are straight +-45 degree segments in this plane;
    the equatorial zone |py| <= pi/4 maps linearly to z, the polar zones
    shear longitudes toward the poles.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    z = np.empty(px.shape)
    phi = np.empty(px.shape)
    eq = np.abs(py) <= 0.25 * np.pi
    z[eq] = py[eq] * 8.0 / (3.0 * np.pi)
    phi[eq] = px[eq]
    pol = ~eq
    if np.any(pol):
        ya = np.abs(py[pol])
        xt = px[pol] % (0.5 * np.pi)
        denom = ya - 0.5 * np.pi
        shear = np.where(denom != 0.0, (ya - 0.25 * np.pi) / np.where(denom == 0, 1, denom), 0.0)
        phi[pol] = px[pol] - shear * (xt - 0.25 * np.pi)
        zz = 1.0 - (2.0 - 4.0 * ya / np.pi) ** 2 / 3.0
        z[pol] = np.where(py[pol] > 0, zz, -zz)
    return z, phi % (2 * np.pi)


def _nest_center_proj(nside, f, x, y):
    """Projection-plane center of nested pixel ``(f, x, y)``."""
    d = np.pi / (4.0 * nside)
    cx = _JPLL[f] * (0.25 * np.pi) + (x - y) * d
    cy = (1 - (f >> 2)) * (0.25 * np.pi) - 0.25 * np.pi + (x + y + 1) * d
    return cx, cy


def pixel_boundary(pixel, samples_per_edge=8):
    """Closed polyline tracing the pixel's four edges, ``(4*s, 3)`` vectors.

    Edges are straight in the projection plane (they are not geodesics on
    the sphere); each edge contributes ``samples_per_edge`` points starting
    at a vertex, and the loop closes back onto the first point.
    """
    if samples_per_edge < 1:
        raise DomainError("samples_per_edge must be >= 1")
    p = pixel if pixel.scheme == NESTED else convert_ordering(pixel, NESTED)
    f, x, y = _nest_decompose(p.nside, np.atleast_1d(np.int64(p.index - 1)))
    cx, cy = _nest_center_proj(p.nside, f[0], x[0], y[0])
    d = np.pi / (4.0 * p.nside)
    verts = np.array([(cx, cy + d), (cx + d, cy), (cx, cy - d), (cx - d, cy)])
    t = np.arange(samples_per_edge) / samples_per_edge
    pts = []
    for k in range(4):
        a = verts[k]
        b = verts[(k + 1) % 4]
        pts.append(a[None, :] * (1 - t[:, None]) + b[None, :] * t[:, None])
    pts = np.concatenate(pts)
    z, phi = _proj_to_zphi(pts[:, 0], pts[:, 1])
    st = np.sqrt(np.maximum(0.0, 1.0 - z ** 2))
    return np.stack([st * np.cos(phi), st * np.sin(phi), z], axis=-1)
