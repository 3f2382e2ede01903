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

Array entry points run every zone's formula on blocks of 2**15 keys and keep
one result per key with a select; divisions and remainders by powers of two
are shifts and masks, and bit interleaving reads 16-bit lookup tables.  The
per-row coordinate kernels (:func:`vec2pix` here, ``geom.sph2cart`` and
``geom.geodesic_distance``) share the one block evaluator, :func:`_by_block`:
a call holds its outputs plus one block of temporaries.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AddressingError, DomainError

RING = "ring"
NESTED = "nested"
SCHEMES = (RING, NESTED)

MAX_LEVEL = 29

# keys per block of the array kernels: a block's temporaries stay in cache
_BLOCK = 1 << 15

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


def is_valid_nside(nside):
    """Whether the integer ``nside`` is a power of two in [1, 2^MAX_LEVEL]."""
    return 1 <= nside <= (1 << MAX_LEVEL) and nside & (nside - 1) == 0


def _check_nside(nside):
    if not isinstance(nside, (int, np.integer)) or isinstance(nside, bool):
        raise AddressingError("nside must be an integer, got %r" % (nside,))
    nside = int(nside)
    if not is_valid_nside(nside):
        raise AddressingError(
            "nside must be a power of two in [1, 2^%d], got %d" % (MAX_LEVEL, nside))
    return nside


def _check_scheme(scheme):
    if scheme not in SCHEMES:
        raise AddressingError("unknown ordering scheme %r" % (scheme,))
    return scheme


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


def npix(nside):
    """Total pixel count ``12 * nside**2``."""
    return 12 * _check_nside(nside) ** 2


def pixel_area(nside):
    """Area of every pixel, in steradians (the partition is equal-area)."""
    return 4.0 * math.pi / npix(nside)


# ---------------------------------------------------------------------------
# bit interleaving (x bits on even positions, y on odd) of 16-bit words

def _spread_bits(v):
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
    return v


# 16-bit lookup tables: _SPREAD16 puts a 16-bit word on the even bits of a
# 32-bit word; _COMPACT16 takes 16 interleaved bits to their 8 even bits in
# the low half and their 8 odd bits in the high half of a 64-bit word
_WORDS16 = np.arange(1 << 16, dtype=np.int64)
_SPREAD16 = _spread_bits(_WORDS16)
_COMPACT16 = _compact_bits(_WORDS16) | (_compact_bits(_WORDS16 >> 1) << 32)


def _select(cond, a, b):
    """``np.where(cond, a, b)`` for boolean ``cond`` and integers, blended:
    where branches per key, which costs twice as much on unsorted keys."""
    return b + cond * (a - b)


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
    within = p0 & np.int64(nside * nside - 1)
    # 16 bits of p at bit k hold 8 bits of x and of y at bit k/2
    xy = _COMPACT16[within & 0xFFFF]
    for k in range(16, two_j, 16):
        xy |= _COMPACT16[(within >> k) & 0xFFFF] << (k >> 1)
    return p0 >> two_j, xy & 0xFFFFFFFF, xy >> 32


def _nest_compose(nside, f, x, y):
    two_j = 2 * (nside.bit_length() - 1)
    out = (f << two_j) | _SPREAD16[x & 0xFFFF] | (_SPREAD16[y & 0xFFFF] << 1)
    if nside > 1 << 16:
        out |= _SPREAD16[x >> 16] << 32
        out |= _SPREAD16[y >> 16] << 33
    return out


# ---------------------------------------------------------------------------
# ring position (jr = ring from north pole, jp = 1-based index within ring,
# nr = cap ring radius, kshift = equatorial phase flag)

def _fxy_to_ringpos(nside, f, x, y):
    jr = _JRLL[f] * nside - x - y - 1
    nr = _select(jr < nside, jr, _select(jr > 3 * nside, 4 * nside - jr, nside))
    kshift = _select((jr >= nside) & (jr <= 3 * nside), (jr - nside) & 1, 0)
    jp = (_JPLL[f] * nr + x - y + 1 + kshift) >> 1
    jp = _select(jp > 4 * nr, jp - 4 * nr, jp)
    jp = _select(jp < 1, jp + 4 * nr, jp)
    return jr, jp, nr, kshift


def _ringpos_to_fxy(nside, jr, jp, nr, kshift):
    j = nside.bit_length() - 1
    fcap = (jp - 1) // nr
    ire = jr - nside + 1
    irm = 2 * nside + 2 - ire
    ifm = (jp - (ire >> 1) + nside - 1) >> j
    ifp = (jp - (irm >> 1) + nside - 1) >> j
    f = _select(jr < nside, fcap,
                _select(jr > 3 * nside, fcap + 8, _eq_face(ifp, ifm)))

    irt = jr - _JRLL[f] * nside + 1
    ipt = 2 * jp - _JPLL[f] * nr - kshift - 1
    ipt = _select(ipt >= 2 * nside, ipt - 8 * nside, ipt)
    return f, (ipt - irt) >> 1, (-ipt - irt) >> 1


def _eq_face(ifp, ifm):
    """Base face of belt keys whose edge lines fall in face columns ``ifp``
    and ``ifm``."""
    return _select(ifp == ifm, ifp | 4, _select(ifp < ifm, ifp, ifm + 8))


def _ring_decompose(nside, p0):
    j = nside.bit_length() - 1
    ncap = 2 * nside * (nside - 1)
    npx = 12 * nside * nside
    north = p0 < ncap
    south = p0 >= npx - ncap
    # cap rings; the south cap mirrors pixel p onto npx - 1 - p of the north
    pc = np.minimum(p0, npx - 1 - p0)
    i = (1 + _isqrt(1 + 2 * pc)) >> 1
    jpc = pc - 2 * i * (i - 1) + 1
    ip = p0 - ncap
    ieq = (ip >> (j + 2)) + nside
    cap = north | south
    jr = _select(north, i, _select(south, 4 * nside - i, ieq))
    nr = _select(cap, i, nside)
    jp = _select(north, jpc,
                 _select(south, 4 * i + 1 - jpc, (ip & (4 * nside - 1)) + 1))
    kshift = _select(cap, 0, (ieq - nside) & 1)
    return jr, jp, nr, kshift


def _ring_compose(nside, jr, jp, nr, kshift):
    ncap = 2 * nside * (nside - 1)
    npx = 12 * nside * nside
    first = _select(jr < nside, 2 * nr * (nr - 1),
                    _select(jr > 3 * nside, npx - 2 * nr * (nr + 1),
                            ncap + (jr - nside) * (4 * nside)))
    return first + jp - 1


def _ringpos_to_zphi(nside, jr, jp, nr, kshift):
    cap = nr.astype(np.float64) ** 2 / (3.0 * nside * nside)
    z = np.where(jr < nside, 1.0 - cap,
                 np.where(jr > 3 * nside, cap - 1.0,
                          (2.0 * nside - jr) * 2.0 / (3.0 * nside)))
    phi = (jp - 0.5 * (1 + kshift)) * (np.pi / 2) / nr
    return z, phi


# ---------------------------------------------------------------------------
# evaluation in blocks

def _by_block(kernel, shape, inputs, trailing=((),), dtype=np.int64):
    """``kernel`` over blocks of ``_BLOCK`` elements of the flat ``inputs``,
    returning one block of each output; output ``i`` has shape ``shape +
    trailing[i]``.  Temporaries are a block long, so they stay in cache."""
    n = len(inputs[0])
    outs = [np.empty((n,) + t, dtype) for t in trailing]
    for lo in range(0, n, _BLOCK):
        parts = kernel(*[a[lo:lo + _BLOCK] for a in inputs])
        for out, part in zip(outs, parts):
            out[lo:lo + _BLOCK] = part
    return [out.reshape(shape + t) for out, t in zip(outs, trailing)]


def _flat_inputs(*arrays, core=0):
    """The broadcast shape of ``arrays`` less its last ``core`` axes, and the
    arrays broadcast and flattened over it for :func:`_by_block`: views,
    copied only where an input broadcasts along an inner axis."""
    shape = np.broadcast(*arrays).shape
    cut = len(shape) - core
    return shape[:cut], [
        (a if a.shape == shape else np.broadcast_to(a, shape)).reshape(
            (-1,) + shape[cut:]) for a in arrays]


def _index_map(nside, ipix, kernel, trailing=((),), dtype=np.int64):
    """:func:`_by_block` over the 1-based indices ``ipix``, checked in range."""
    arr = np.asarray(ipix, dtype=np.int64)
    if arr.size and (arr.min() < 1 or arr.max() > 12 * nside * nside):
        raise AddressingError("pixel index out of range 1..%d" % (12 * nside * nside))
    return _by_block(kernel, arr.shape, [arr.reshape(-1)], trailing, dtype)


# ---------------------------------------------------------------------------
# index -> center

def _center_map(nside, ipix, scheme, kernel, trailing):
    """``kernel(z, phi)`` at the centers of ``ipix``, as in :func:`_by_block`."""
    nside = _check_nside(nside)
    _check_scheme(scheme)

    def centers(keys):
        if scheme == RING:
            pos = _ring_decompose(nside, keys - 1)
        else:
            pos = _fxy_to_ringpos(nside, *_nest_decompose(nside, keys - 1))
        return kernel(*_ringpos_to_zphi(nside, *pos))
    return _index_map(nside, ipix, centers, trailing, np.float64)


def pix2zphi(nside, ipix, scheme=RING):
    """Centers of 1-based pixels as ``(z, phi)`` with ``z = cos(theta)``."""
    z, phi = _center_map(nside, ipix, scheme, lambda z, phi: (z, phi), [(), ()])
    return z[()], phi[()]       # numpy scalars for a 0-d index


def pix2ang(nside, ipix, scheme=RING):
    """Pixel centers as colatitude/longitude ``(theta, phi)`` in radians."""
    theta, phi = _center_map(nside, ipix, scheme,
                             lambda z, phi: (np.arccos(z), phi), [(), ()])
    return theta[()], phi[()]


def _unit_vectors(z, phi):
    st = np.sqrt(np.maximum(0.0, 1.0 - z ** 2))
    return [np.stack([st * np.cos(phi), st * np.sin(phi), z], axis=-1)]


def pix2vec(nside, ipix, scheme=RING):
    """Pixel centers as unit vectors, shape ``(..., 3)``."""
    return _center_map(nside, ipix, scheme, _unit_vectors, [(3,)])[0]


# ---------------------------------------------------------------------------
# angle -> index (the pixel containing the direction)

def _zphi_quadrants(theta, phi):
    z = np.cos(theta)
    tt = (phi / (0.5 * np.pi)) % 4.0
    # sqrt(3*(1-|z|)) computed from theta for stability near the poles
    half = 0.5 * theta
    rtz = np.where(z >= 0, np.sqrt(6.0) * np.sin(half), np.sqrt(6.0) * np.cos(half))
    return z, tt, rtz


def _check_angles(theta, phi):
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise DomainError("non-finite direction")
    if not ((theta >= 0.0) & (theta <= np.pi)).all():
        raise DomainError("theta must be in [0, pi]")


def _zone_pixels(nside, z, tt, rtz, scheme):
    """1-based pixels of :func:`_zphi_quadrants` arrays, each key's own zone
    selected."""
    return _select(np.abs(z) > 2.0 / 3.0,
                   _polar_zone_pix(nside, tt, z, rtz, scheme),
                   _eq_zone_pix(nside, tt, z, scheme)) + 1


def ang2pix(nside, theta, phi, scheme=RING):
    """1-based index of the pixel containing direction ``(theta, phi)``
    (an ``int`` for one direction): ``theta`` in ``[0, pi]``, any finite
    ``phi``; arrays broadcast."""
    nside = _check_nside(nside)
    _check_scheme(scheme)
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    _check_angles(theta, phi)
    out, = _by_block(
        lambda t, p: [_zone_pixels(nside, *_zphi_quadrants(t, p), scheme)],
        *_flat_inputs(theta, phi))
    return int(out) if out.ndim == 0 else out


def _eq_zone_pix(nside, tt, z, scheme):
    temp1 = nside * (0.5 + tt)
    temp2 = nside * (0.75 * z)
    jp = np.floor(temp1 - temp2).astype(np.int64)  # ascending edge line
    jm = np.floor(temp1 + temp2).astype(np.int64)  # descending edge line
    del temp1, temp2        # a block's dead temporaries go as soon as they can
    if scheme == RING:
        ir = nside + 1 + jp - jm          # ring within the belt, 1..2n+1
        kshift = 1 - (ir & 1)
        ip = ((jp + jm - nside + kshift + 1) >> 1) & (4 * nside - 1)
        return 2 * nside * (nside - 1) + (ir - 1) * 4 * nside + ip
    factor = nside.bit_length() - 1
    f = _eq_face(jp >> factor, jm >> factor)
    x = jm & (nside - 1)
    y = (nside - 1) - (jp & (nside - 1))
    del jp, jm
    return _nest_compose(nside, f, x, y)


def _polar_zone_pix(nside, tt, z, rtz, scheme):
    ntt = np.minimum(np.floor(tt).astype(np.int64), 3)
    tp = tt - ntt
    tmp = nside * rtz
    jp = np.floor(tp * tmp).astype(np.int64)          # increasing longitude
    jm = np.floor((1.0 - tp) * tmp).astype(np.int64)  # decreasing longitude
    del tp, tmp
    if scheme == RING:
        ir = jp + jm + 1                               # ring from nearest pole
        ip = np.floor(tt * ir).astype(np.int64) % (4 * ir)
        npx = 12 * nside * nside
        return _select(z > 0, 2 * ir * (ir - 1) + ip, npx - 2 * ir * (ir + 1) + ip)
    jp = np.minimum(jp, nside - 1)
    jm = np.minimum(jm, nside - 1)
    f = _select(z >= 0, ntt, ntt + 8)
    x = _select(z >= 0, nside - 1 - jm, jp)
    y = _select(z >= 0, nside - 1 - jp, jm)
    del ntt, jp, jm
    return _nest_compose(nside, f, x, y)


def _vec_angles(v):
    """``(theta, phi)`` of the vectors ``v``, ``(n, 3)``, checked as
    :func:`ang2pix` checks its input."""
    theta = np.arccos(np.clip(v[:, 2], -1.0, 1.0))
    phi = np.arctan2(v[:, 1], v[:, 0]) % (2 * np.pi)
    _check_angles(theta, phi)
    return theta, phi


def vec2pix(nside, xyz, scheme=RING):
    """Containing pixel of unit vectors, shape ``(..., 3)`` -> 1-based index
    (an ``int`` for one vector).  Evaluated on 2**15-row blocks by
    :func:`_by_block`, each block's vectors going to ``(theta, phi)`` and
    through :func:`ang2pix`'s zone arithmetic: a call holds its output plus
    one block of temporaries."""
    nside = _check_nside(nside)
    _check_scheme(scheme)
    xyz = np.asarray(xyz, dtype=np.float64)

    def pixels(v):
        # theta and phi are freed once they are reduced to (z, tt, rtz)
        return [_zone_pixels(nside, *_zphi_quadrants(*_vec_angles(v)), scheme)]
    out, = _by_block(pixels, *_flat_inputs(xyz, core=1))
    return int(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# ordering conversion

def nest2ring(nside, ipix):
    """Nested index -> ring index addressing the same pixel (1-based)."""
    nside = _check_nside(nside)
    out, = _index_map(nside, ipix, lambda keys: [_ring_compose(
        nside, *_fxy_to_ringpos(nside, *_nest_decompose(nside, keys - 1))) + 1])
    return int(out) if out.ndim == 0 else out


def ring2nest(nside, ipix):
    """Ring index -> nested index addressing the same pixel (1-based)."""
    nside = _check_nside(nside)
    out, = _index_map(nside, ipix, lambda keys: [_nest_compose(
        nside, *_ringpos_to_fxy(nside, *_ring_decompose(nside, keys - 1))) + 1])
    return int(out) if out.ndim == 0 else out


def convert_ordering(pixel, target):
    """Re-address ``pixel`` in the ``target`` scheme (identity if equal)."""
    _check_scheme(target)
    if pixel.scheme == target:
        return pixel
    if target == RING:
        return PixelId(nest2ring(pixel.nside, pixel.index), RING, pixel.nside)
    return PixelId(ring2nest(pixel.nside, pixel.index), NESTED, pixel.nside)


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
    j = _check_nside(pixel.nside).bit_length() - 1
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

def _neighbours(nside, keys):
    f, x, y = _nest_decompose(nside, keys - 1)
    out = np.empty(keys.shape + (8,), dtype=np.int64)
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
        out[:, m] = np.where(f2 < 0, -1, pix)
    return [out]


def neighbours_index(nside, ipix):
    """Adjacent nested pixels of 1-based ``ipix``; shape ``(..., 8)``, -1 pads.

    Steps are returned in SW, W, NW, N, NE, E, SE, S order; entries are -1
    where the diagonal neighbour is absent (three-face corners).
    """
    nside = _check_nside(nside)
    return _index_map(nside, ipix, lambda keys: _neighbours(nside, keys),
                      [(8,)])[0]


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
    norms = np.einsum("...i,...i", xyz, xyz).reshape(-1)  # no (n, 3) copy
    np.sqrt(norms, out=norms)
    if np.any(np.abs(np.subtract(norms, 1.0, out=norms), out=norms) > 1e-9):
        raise DomainError("target vectors must be normalized")
    del norms                           # before vec2pix makes its output
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
    ya = np.abs(py)
    denom = ya - 0.5 * np.pi
    shear = np.where(denom != 0.0, (ya - 0.25 * np.pi) / np.where(denom == 0, 1, denom), 0.0)
    zz = 1.0 - (2.0 - 4.0 * ya / np.pi) ** 2 / 3.0
    eq = ya <= 0.25 * np.pi
    z = np.where(eq, py * 8.0 / (3.0 * np.pi), np.where(py > 0, zz, -zz))
    phi = np.where(eq, px, px - shear * (px % (0.5 * np.pi) - 0.25 * np.pi))
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
    return _unit_vectors(*_proj_to_zphi(pts[:, 0], pts[:, 1]))[0]
