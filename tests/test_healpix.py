import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

import skypix as sp
from skypix.errors import AddressingError, DomainError
from skypix.healpix import (
    _BLOCK, _JPLL, MAX_LEVEL, _nest_decompose, neighbours_index,
    pixel_boundary,
)


def test_npix_values():
    assert sp.npix(1024) == 12582912
    assert sp.npix(1) == 12
    assert sp.npix(2048) == 50331648


def test_npix_rejects_bad_nside():
    for bad in (0, 3, -2, 5, 2 ** 30):
        with pytest.raises(AddressingError):
            sp.npix(bad)


def test_pixel_area():
    assert_allclose(sp.pixel_area(1), math.pi / 3)
    assert_allclose(sp.pixel_area(2), math.pi / 12)
    assert_allclose(sp.pixel_area(1024), 4 * math.pi / 12582912)


def test_pixelid_validation():
    sp.PixelId(12, sp.RING, 1)
    with pytest.raises(AddressingError):
        sp.PixelId(13, sp.RING, 1)
    with pytest.raises(AddressingError):
        sp.PixelId(1, "spiral", 1)


# ---------------------------------------------------------------------------
# centers

def test_first_pixel_center_nside1():
    theta, phi = sp.pix2ang(1, 1)
    assert_allclose(theta, math.acos(2.0 / 3.0), rtol=0, atol=1e-15)
    assert_allclose(phi, math.pi / 4, rtol=0, atol=1e-15)


def test_last_pixel_center_nside1_south_mirror():
    theta, _ = sp.pix2ang(1, 12)
    assert_allclose(theta, math.acos(-2.0 / 3.0), rtol=0, atol=1e-15)


@pytest.mark.parametrize("nside", [1, 4, 16])
def test_isolatitude_ring_count(nside):
    z, _ = sp.pix2zphi(nside, np.arange(1, sp.npix(nside) + 1))
    assert len(np.unique(np.round(z, 12))) == 4 * nside - 1


@pytest.mark.parametrize("nside", [1, 2, 8])
def test_centers_unit_norm_and_phi_range(nside):
    vec = sp.pix2vec(nside, np.arange(1, sp.npix(nside) + 1))
    assert_allclose(np.linalg.norm(vec, axis=1), 1.0, atol=1e-12)
    _, phi = sp.pix2ang(nside, np.arange(1, sp.npix(nside) + 1))
    assert phi.min() >= 0 and phi.max() < 2 * math.pi


@pytest.mark.parametrize("nside", [1, 2, 4, 8])
def test_ring_order_is_sorted_by_colatitude_then_longitude(nside):
    # independent construction of ring order: sort all centers
    z, phi = sp.pix2zphi(nside, np.arange(1, sp.npix(nside) + 1), sp.RING)
    order = np.lexsort((phi, -z))
    assert np.array_equal(order, np.arange(sp.npix(nside)))


# ---------------------------------------------------------------------------
# ordering conversion

def test_nside1_schemes_coincide():
    idx = np.arange(1, 13)
    assert np.array_equal(sp.nest2ring(1, idx), idx)


def test_nested_to_ring_matches_geometric_oracle():
    # independent oracle: nested centers matched against the sorted-center
    # ring order at nside=2
    nside = 2
    zn, pn = sp.pix2zphi(nside, np.arange(1, 49), sp.NESTED)
    z, phi = sp.pix2zphi(nside, np.arange(1, 49), sp.RING)
    for p0 in range(48):
        match = np.nonzero((z == zn[p0]) & (phi == pn[p0]))[0]
        assert match.size == 1
        assert sp.nest2ring(nside, p0 + 1) == match[0] + 1
    assert sp.convert_ordering(sp.PixelId(1, sp.NESTED, 2), sp.RING).index == 14


@pytest.mark.parametrize("nside", [1, 2, 4, 8, 16, 32, 64])
def test_ordering_bijection_round_trip(nside):
    idx = np.arange(1, sp.npix(nside) + 1)
    r = sp.nest2ring(nside, idx)
    assert len(np.unique(r)) == idx.size
    assert np.array_equal(sp.ring2nest(nside, r), idx)


_ORACLE_JRLL = (2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4)
_ORACLE_JPLL = (1, 3, 5, 7, 0, 2, 4, 6, 1, 3, 5, 7)


def _oracle_nest2ring(nside, q):
    """1-based nested -> ring index over python ints, from the face layout
    of Gorski et al. (2005): pixel (x, y) of face f lies on ring
    jrll(f)*nside - x - y - 1 from the north pole, at the longitude index
    set by jpll(f); the ring's first index follows from the rings above."""
    j = nside.bit_length() - 1
    f, within = divmod(q - 1, nside * nside)
    x = sum(((within >> (2 * b)) & 1) << b for b in range(j))
    y = sum(((within >> (2 * b + 1)) & 1) << b for b in range(j))
    jr = _ORACLE_JRLL[f] * nside - x - y - 1
    if jr < nside:                      # north cap: 4*jr pixels a ring
        nr, kshift, first = jr, 0, 2 * jr * (jr - 1)
    elif jr > 3 * nside:                # south cap mirrors the north
        nr, kshift = 4 * nside - jr, 0
        first = 12 * nside * nside - 2 * nr * (nr + 1)
    else:                               # belt: 4*nside pixels a ring
        nr, kshift = nside, (jr - nside) % 2
        first = 2 * nside * (nside - 1) + (jr - nside) * 4 * nside
    jp = (_ORACLE_JPLL[f] * nr + x - y + 1 + kshift) // 2
    return first + (jp - 1) % (4 * nr) + 1


@settings(max_examples=400, deadline=None)
@given(st.data(), st.integers(0, MAX_LEVEL))
def test_ordering_conversion_matches_int_oracle(data, level):
    # both directions, levels 0-29: the oracle is a bijection, so
    # oracle(ring2nest(r)) == r pins ring2nest(r) to the one right answer
    nside = 1 << level
    keys = data.draw(st.lists(st.integers(1, sp.npix(nside)), min_size=1,
                              max_size=8))
    want = [_oracle_nest2ring(nside, q) for q in keys]
    assert sp.nest2ring(nside, np.array(keys)).tolist() == want
    assert sp.nest2ring(nside, keys[0]) == want[0]
    back = sp.ring2nest(nside, np.array(keys))
    assert [_oracle_nest2ring(nside, q) for q in back.tolist()] == keys
    assert sp.ring2nest(nside, keys[0]) == back[0]


@pytest.mark.parametrize("nside", [1, 4, 32])
def test_centers_agree_across_schemes(nside):
    idx = np.arange(1, sp.npix(nside) + 1)
    zn, pn = sp.pix2zphi(nside, idx, sp.NESTED)
    zr, pr = sp.pix2zphi(nside, sp.nest2ring(nside, idx), sp.RING)
    assert_allclose(zn, zr, atol=1e-12)
    assert_allclose(pn, pr, atol=1e-12)


def test_convert_ordering_identity_and_errors():
    p = sp.PixelId(5, sp.RING, 1)
    assert sp.convert_ordering(p, sp.RING) is p
    assert sp.convert_ordering(p, sp.NESTED).index == 5
    with pytest.raises(AddressingError):
        sp.convert_ordering(p, "diagonal")


# ---------------------------------------------------------------------------
# hierarchy

def test_ancestor_chain_of_1000():
    assert [sp.ancestor_index(1000, k) for k in range(1, 6)] == [250, 63, 16, 4, 1]


def test_ancestor_first_child_chain_and_power():
    assert all(sp.ancestor_index(1, k) == 1 for k in range(1, 10))
    for k in range(1, 8):
        assert sp.ancestor_index(4 ** k, k) == 1


def test_ancestor_pixelid_and_domain():
    p = sp.PixelId(1000, sp.NESTED, 32)
    chain = [sp.ancestor(p, k) for k in range(1, 6)]
    assert [a.index for a in chain] == [250, 63, 16, 4, 1]
    assert [a.nside for a in chain] == [16, 8, 4, 2, 1]
    with pytest.raises(DomainError):
        sp.ancestor(p, 6)
    with pytest.raises(AddressingError):
        sp.ancestor(sp.PixelId(1000, sp.RING, 32), 1)


def test_children_inverse_of_ancestor():
    p = sp.PixelId(1, sp.NESTED, 1)
    assert [c.index for c in sp.children(p)] == [1, 2, 3, 4]
    q = sp.PixelId(250, sp.NESTED, 8)
    assert [c.index for c in sp.children(q)] == [997, 998, 999, 1000]
    rng = np.random.default_rng(3)
    for idx in rng.integers(1, sp.npix(16) + 1, size=20):
        pix = sp.PixelId(int(idx), sp.NESTED, 16)
        for c in sp.children(pix):
            assert sp.ancestor(c, 1) == pix


def test_pixel_window():
    win = sp.pixel_window(1, 5, 1)
    assert win[0] == 1 and win[-1] == 256 and win.size == 256
    assert np.array_equal(sp.pixel_window(3, 3, 17), [17])
    assert np.array_equal(sp.pixel_window(0, 1, 12), [45, 46, 47, 48])
    with pytest.raises(DomainError):
        sp.pixel_window(5, 1, 1)


# ---------------------------------------------------------------------------
# neighbours, against an exact vertex-sharing oracle

def _vertex_keys(nside, p0):
    """Exact sphere identities of the 4 vertices of nested pixel p0 (0-based).

    Vertices live on the integer lattice of the projection plane (units of
    pi/(4*nside)); keys fold the longitude wrap, the polar shear and the
    pole degeneracy so that equal keys mean equal points on the sphere.
    """
    f, x, y = _nest_decompose(nside, np.atleast_1d(np.int64(p0)))
    f, x, y = int(f[0]), int(x[0]), int(y[0])
    cx = int(_JPLL[f]) * nside + (x - y)
    cy = (1 - (f >> 2)) * nside - nside + (x + y + 1)
    keys = set()
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        vx, vy = cx + dx, cy + dy
        ya = abs(vy)
        if ya == 2 * nside:
            keys.add(("pole", vy > 0))
        elif ya <= nside:
            keys.add(("eq", vy, vx % (8 * nside)))
        else:
            shear = Fraction(ya - nside, ya - 2 * nside)
            lon = Fraction(vx) - shear * ((vx % (2 * nside)) - nside)
            keys.add(("polar", vy, lon % (8 * nside)))
    return keys


@pytest.mark.parametrize("nside", [1, 2, 4, 8])
def test_neighbours_match_vertex_oracle(nside):
    total = sp.npix(nside)
    keys = [_vertex_keys(nside, p) for p in range(total)]
    sevens = 0
    for p0 in range(total):
        oracle = {q + 1 for q in range(total) if q != p0 and keys[p0] & keys[q]}
        got = {n.index for n in sp.neighbours(sp.PixelId(p0 + 1, sp.NESTED, nside))}
        assert got == oracle
        sevens += len(got) == 7
    if nside > 1:
        assert sevens == 24  # pixels flanking the eight three-face corners


def test_neighbour_counts_at_nside8():
    counts = {len(sp.neighbours(sp.PixelId(p, sp.NESTED, 8))) for p in range(1, 769)}
    assert counts == {7, 8}


def test_neighbours_symmetric_nside4():
    nb = {p: {q.index for q in sp.neighbours(sp.PixelId(p, sp.NESTED, 4))}
          for p in range(1, sp.npix(4) + 1)}
    for p, qs in nb.items():
        for q in qs:
            assert p in nb[q]


def test_base_pixel_neighbours():
    # each base face touches 4 faces along edges and 2 across corners
    got = {n.index for n in sp.neighbours(sp.PixelId(1, sp.NESTED, 1))}
    assert got == {2, 3, 4, 5, 6, 9}


# ---------------------------------------------------------------------------
# nearest-pixel search

def test_nest_search_own_center_and_visits():
    rng = np.random.default_rng(11)
    idx = rng.integers(1, sp.npix(16) + 1, size=400)
    found, visits = sp.nest_search(16, sp.pix2vec(16, idx, sp.NESTED),
                                   count_visits=True)
    assert np.array_equal(found, idx)
    assert visits == 12 + 4 * 4


def test_nest_search_benchmark_point_matches_linear_scan():
    target = np.array([0.6, 0.8, 0.0])
    centers = sp.pix2vec(16, np.arange(1, sp.npix(16) + 1), sp.NESTED)
    brute = int(np.argmax(centers @ target)) + 1
    assert sp.nest_search(16, target) == brute


def test_nest_search_visit_count_2048():
    _, visits = sp.nest_search(2048, np.array([0.6, 0.8, 0.0]), count_visits=True)
    assert visits == 56


def test_nest_search_rejects_unnormalized():
    with pytest.raises(DomainError):
        sp.nest_search(4, np.array([1.0, 1.0, 0.0]))


def test_nest_search_memory_is_one_block():
    # squaring the whole (n, 3) array to check the norms peaked at 4x the
    # output on 2^20 rows
    xyz = _unit_rows(np.random.default_rng(6), (1 << 20,))
    tracemalloc.start()
    try:
        out = sp.nest_search(1024, xyz)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, sp.vec2pix(1024, xyz, sp.NESTED))
    assert peak <= out.nbytes + 4 * 2**20


@pytest.mark.parametrize("nside", [4, 16, 64])
def test_nest_search_within_one_pixel_diagonal(nside):
    rng = np.random.default_rng(5)
    v = rng.normal(size=(2000, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    centers = sp.pix2vec(nside, np.arange(1, sp.npix(nside) + 1), sp.NESTED)
    best = np.argmax(v @ centers.T, axis=1) + 1
    got = sp.nest_search(nside, v)
    d_got = np.arccos(np.clip(np.einsum("ij,ij->i", v, centers[got - 1]), -1, 1))
    d_best = np.arccos(np.clip(np.einsum("ij,ij->i", v, centers[best - 1]), -1, 1))
    diag = _max_pixel_diagonal(nside)
    assert np.all(d_got - d_best <= diag)


def _max_pixel_diagonal(nside):
    """Largest vertex-to-vertex distance over all pixels (vectorized)."""
    from skypix.healpix import _nest_decompose, _nest_center_proj, _proj_to_zphi
    p0 = np.arange(sp.npix(nside), dtype=np.int64)
    f, x, y = _nest_decompose(nside, p0)
    cx, cy = _nest_center_proj(nside, f, x, y)
    d = np.pi / (4 * nside)
    verts = []
    for dx, dy in ((0, d), (d, 0), (0, -d), (-d, 0)):
        z, phi = _proj_to_zphi(cx + dx, cy + dy)
        st = np.sqrt(np.maximum(0.0, 1 - z ** 2))
        verts.append(np.stack([st * np.cos(phi), st * np.sin(phi), z], axis=-1))
    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            dots = np.clip(np.einsum("ij,ij->i", verts[a], verts[b]), -1, 1)
            worst = max(worst, float(np.arccos(dots).max()))
    return worst


# ---------------------------------------------------------------------------
# boundaries

def test_boundary_points_on_sphere_and_count():
    b = sp.pixel_boundary(sp.PixelId(7, sp.NESTED, 2), 6)
    assert b.shape == (24, 3)
    assert_allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-12)


def test_boundaries_partition_sphere_at_nside1():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(20000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pix = sp.vec2pix(1, pts, sp.NESTED)
    counts = np.bincount(pix, minlength=13)[1:]
    assert counts.sum() == 20000
    # equal-area cells: each holds its share within Poisson noise
    assert np.all(np.abs(counts - 20000 / 12) < 5 * math.sqrt(20000 / 12))


def test_child_boundary_stays_inside_ancestor():
    for p in (5, 17, 44):
        child = sp.PixelId(p, sp.NESTED, 2)
        parent = sp.ancestor(child, 1)
        b = sp.pixel_boundary(child, 8)
        # nudge boundary points toward the child's center to land strictly
        # inside, then check they resolve to the same base pixel
        c = sp.pix2vec(child.nside, child.index, child.scheme)
        nudged = b + 1e-9 * (c - b)
        nudged /= np.linalg.norm(nudged, axis=1, keepdims=True)
        assert np.all(sp.ancestor_index(sp.vec2pix(2, nudged, sp.NESTED), 1)
                      == parent.index)


def test_boundary_requires_positive_samples():
    with pytest.raises(DomainError):
        sp.pixel_boundary(sp.PixelId(1, sp.NESTED, 2), 0)


# ---------------------------------------------------------------------------
# containment vs centers

@pytest.mark.parametrize("scheme", [sp.RING, sp.NESTED])
@pytest.mark.parametrize("nside", [1, 2, 8, 64])
def test_ang2pix_maps_centers_to_themselves(nside, scheme):
    idx = np.arange(1, sp.npix(nside) + 1)
    theta, phi = sp.pix2ang(nside, idx, scheme)
    assert np.array_equal(sp.ang2pix(nside, theta, phi, scheme), idx)


def test_ang2pix_rejects_nonfinite():
    with pytest.raises(DomainError):
        sp.ang2pix(4, float("nan"), 0.0)
    with pytest.raises(DomainError):
        sp.ang2pix(4, 1.0, np.float64("inf"))


@pytest.mark.parametrize("theta", [4.0, -1e-12, math.pi + 1e-12])
def test_ang2pix_rejects_theta_outside_0_pi(theta):
    # on both the scalar and the array path
    with pytest.raises(DomainError, match="theta"):
        sp.ang2pix(4, theta, 0.0, sp.NESTED)
    with pytest.raises(DomainError, match="theta"):
        sp.ang2pix(4, np.array([1.0, theta]), 0.0, sp.NESTED)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 29), st.sampled_from([sp.RING, sp.NESTED]),
       st.floats(0.0, math.pi), st.floats(-20.0, 20.0))
@example(0, sp.RING, 1.0, 2.0)
@example(0, sp.NESTED, 0.1, -3.0)
@example(29, sp.RING, 2.9, 5.0)
@example(29, sp.NESTED, math.pi / 2, 0.7)
def test_ang2pix_scalar_matches_array(level, scheme, theta, phi):
    # one direction gives an int, equal to a 1-element array's key
    nside = 1 << level
    got = sp.ang2pix(nside, theta, phi, scheme)
    assert type(got) is int
    assert got == sp.ang2pix(nside, [theta], [phi], scheme)[0]
    xyz = np.array([math.sin(theta) * math.cos(phi),
                    math.sin(theta) * math.sin(phi), math.cos(theta)])
    xyz /= np.linalg.norm(xyz)
    if scheme == sp.NESTED:
        assert sp.nest_search(nside, xyz) == sp.nest_search(nside, xyz[None])[0]


# ---------------------------------------------------------------------------
# array entry points evaluate blocks of _BLOCK keys

_EDGE_NSIDES = [1024, 1 << 29]
_INDEX_FUNCS = {
    "nest2ring": sp.nest2ring,
    "ring2nest": sp.ring2nest,
    "neighbours_index": neighbours_index,
    "pix2zphi ring": lambda n, k: np.stack(sp.pix2zphi(n, k, sp.RING), -1),
    "pix2ang nested": lambda n, k: np.stack(sp.pix2ang(n, k, sp.NESTED), -1),
    "pix2vec ring": lambda n, k: sp.pix2vec(n, k, sp.RING),
    "pix2vec nested": lambda n, k: sp.pix2vec(n, k, sp.NESTED),
}


def _edge_positions(size, rng):
    """Positions on both sides of every block edge, plus a seeded few."""
    edges = np.arange(0, size + _BLOCK, _BLOCK)
    near = (edges[:, None] + np.arange(-2, 2)).ravel()
    picked = np.concatenate([near, rng.integers(0, size, 20), [size - 1]])
    return np.unique(picked[(picked >= 0) & (picked < size)])


@pytest.mark.parametrize("nside", _EDGE_NSIDES)
@pytest.mark.parametrize("name", sorted(_INDEX_FUNCS))
def test_index_functions_equal_one_key_at_a_time(name, nside):
    func = _INDEX_FUNCS[name]
    rng = np.random.default_rng(nside % 97)
    for size in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
        keys = rng.integers(1, sp.npix(nside) + 1, size)
        got = func(nside, keys)
        assert got.shape[0] == size
        for i in _edge_positions(size, rng):
            one = np.asarray(func(nside, keys[i]))
            assert one.dtype == got.dtype and one.shape == got.shape[1:]
            assert one.tobytes() == got[i].tobytes(), (size, i)
    keys = rng.integers(1, sp.npix(nside) + 1, (3, 5))
    got = func(nside, keys)
    assert got.shape[:2] == (3, 5)
    assert got.tobytes() == func(nside, keys.ravel()).tobytes()
    empty = func(nside, np.empty(0, dtype=np.int64))
    assert empty.shape == (0,) + got.shape[2:] and empty.dtype == got.dtype


def test_zero_d_indices_keep_scalar_results():
    assert type(sp.nest2ring(1024, 77)) is int
    assert type(sp.ring2nest(1024, np.int64(77))) is int
    z, phi = sp.pix2zphi(1024, 77)
    theta, phi2 = sp.pix2ang(1024, np.array(77), sp.NESTED)
    assert all(type(v) is np.float64 for v in (z, phi, theta, phi2))
    assert sp.pix2vec(1024, 77).shape == (3,)
    assert neighbours_index(1024, 77).shape == (8,)


@pytest.mark.parametrize("nside", _EDGE_NSIDES)
@pytest.mark.parametrize("scheme", [sp.RING, sp.NESTED])
def test_ang2pix_equals_one_direction_at_a_time(nside, scheme):
    rng = np.random.default_rng(7)
    for size in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3):
        theta = np.arccos(rng.uniform(-1.0, 1.0, size))
        phi = rng.uniform(-7.0, 7.0, size)
        got = sp.ang2pix(nside, theta, phi, scheme)
        assert got.shape == (size,) and got.dtype == np.int64
        for i in _edge_positions(size, rng):
            assert sp.ang2pix(nside, theta[i], phi[i], scheme) == got[i]
            assert sp.ang2pix(nside, theta[i:i + 1], phi[i:i + 1],
                              scheme).tolist() == [got[i]]
    # theta (n, 1) against phi (m,) broadcasts to (n, m) over several blocks
    theta = np.arccos(rng.uniform(-1.0, 1.0, (190, 1)))
    phi = rng.uniform(0.0, 2 * np.pi, 180)
    got = sp.ang2pix(nside, theta, phi, scheme)
    assert got.shape == (190, 180) and got.size > _BLOCK
    full_t, full_p = np.broadcast_arrays(theta, phi)
    assert np.array_equal(got.ravel(), sp.ang2pix(
        nside, full_t.ravel(), full_p.ravel(), scheme))
    for i, j in [(0, 0), (182, 7), (182, 8), (189, 179)]:
        assert sp.ang2pix(nside, theta[i, 0], phi[j], scheme) == got[i, j]
    empty = sp.ang2pix(nside, np.empty(0), np.empty(0), scheme)
    assert empty.shape == (0,) and empty.dtype == np.int64


def vec2pix_whole(nside, xyz, scheme):
    """The whole-array angles vec2pix takes its vectors to, then ang2pix."""
    xyz = np.asarray(xyz, dtype=np.float64)
    theta = np.arccos(np.clip(xyz[..., 2], -1.0, 1.0))
    phi = np.arctan2(xyz[..., 1], xyz[..., 0]) % (2 * np.pi)
    return sp.ang2pix(nside, theta, phi, scheme)


def _unit_rows(rng, shape):
    v = rng.standard_normal(shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.mark.parametrize("nside", _EDGE_NSIDES)
@pytest.mark.parametrize("scheme", [sp.RING, sp.NESTED])
@pytest.mark.parametrize("shape", [(), (1,), (_BLOCK - 1,), (_BLOCK,),
                                   (_BLOCK + 1,), (3 * _BLOCK + 7,),
                                   (190, 180)])
def test_vec2pix_blocks_equal_whole_array(shape, scheme, nside):
    rng = np.random.default_rng(sum(shape))
    xyz = _unit_rows(rng, shape)
    # the poles and two points of the equator lead any array of four or more
    poles = np.array([[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, -1, 0]], float)
    if xyz.size >= poles.size:
        xyz.reshape(-1, 3)[:4] = poles
    got = sp.vec2pix(nside, xyz, scheme)
    want = vec2pix_whole(nside, xyz, scheme)
    # one vector gives an int, as one direction does in ang2pix
    assert type(got) is type(want) is (int if shape == () else np.ndarray)
    assert np.shape(got) == shape
    assert np.array_equal(got, want)


def test_vec2pix_of_nan_vector_raises():
    xyz = _unit_rows(np.random.default_rng(1), (3 * _BLOCK + 7,))
    with pytest.raises(DomainError, match="non-finite"):
        sp.vec2pix(64, [np.nan, 0.0, 1.0])
    for row in (0, _BLOCK, len(xyz) - 1):
        bad = xyz.copy()
        bad[row, row % 3] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            sp.vec2pix(64, bad, sp.NESTED)


@pytest.mark.parametrize("scheme", [sp.RING, sp.NESTED])
def test_vec2pix_memory_is_one_block(scheme):
    # the whole-array angles peaked at 3.5x the output on 2^20 rows
    xyz = _unit_rows(np.random.default_rng(2), (1 << 20,))
    tracemalloc.start()
    try:
        out = sp.vec2pix(1024, xyz, scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 2**20
