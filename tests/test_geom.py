import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from skypix import geom
from skypix.healpix import _BLOCK
from skypix.errors import DomainError, GeometryError


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# coordinates

def test_north_pole_geographic():
    theta, phi = geom.convert_coords((0.0, math.pi / 2), geom.GEOGRAPHIC,
                                     geom.SPHERICAL)
    assert theta == 0.0 and phi == 0.0


def test_benchmark_point_cartesian_to_spherical():
    theta, phi = geom.convert_coords((0.6, 0.8, 0.0), geom.CARTESIAN,
                                     geom.SPHERICAL)
    assert_allclose(theta, math.pi / 2)
    assert_allclose(phi, math.atan2(0.8, 0.6))


def test_cartesian_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = unit(rng.normal(size=3))
        s = geom.convert_coords(tuple(v), geom.CARTESIAN, geom.SPHERICAL)
        back = geom.convert_coords(s, geom.SPHERICAL, geom.CARTESIAN)
        assert_allclose(back, v, atol=1e-12)


def test_geographic_round_trip():
    lon, lat = 1.2, -0.4
    s = geom.convert_coords((lon, lat), geom.GEOGRAPHIC, geom.SPHERICAL)
    assert_allclose(geom.convert_coords(s, geom.SPHERICAL, geom.GEOGRAPHIC),
                    (lon, lat), atol=1e-12)


def test_convert_coords_rejects_nonfinite():
    with pytest.raises(DomainError):
        geom.convert_coords((float("inf"), 0.0), geom.GEOGRAPHIC, geom.SPHERICAL)


def test_hms_to_degrees():
    assert geom.hms_to_degrees(0, 0, 0) == 0.0
    assert geom.hms_to_degrees(12, 0, 0) == 180.0
    assert geom.hms_to_degrees(6, 30, 0) == 97.5
    with pytest.raises(DomainError):
        geom.hms_to_degrees(24, 0, 0)


# ---------------------------------------------------------------------------
# distances

def test_geodesic_distance_basics():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert geom.geodesic_distance(a, a) == 0.0
    assert_allclose(geom.geodesic_distance(a, b), math.pi / 2)
    assert_allclose(geom.geodesic_distance(a, -a), math.pi)


def exact_angle(a, b):
    """``atan2(|a x b|, a . b)``, with the cross and dot products of the
    vectors' float components in exact rational arithmetic."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    cross = [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
             a[0] * b[1] - a[1] * b[0]]
    return math.atan2(math.sqrt(sum(x * x for x in cross)),
                      float(sum(x * y for x, y in zip(a, b))))


@pytest.mark.parametrize("level, separation", [(24, 8.25e-8), (27, 1.03e-8),
                                               (29, 2.58e-9)])
def test_geodesic_distance_of_adjacent_deep_centers(level, separation):
    # the centers of a nested pixel near (1.3, 0.7) and of its north
    # neighbour: an arccos of their dot product is 0.6% off at level 24
    # and 2 to 6 times too large at levels 27 and 29
    import skypix as sp
    nside = 2 ** level
    p = sp.ang2pix(nside, 1.3, 0.7, sp.NESTED)
    a, b = sp.pix2vec(nside, [p, sp.neighbours_index(nside, p)[3]], sp.NESTED)
    exact = exact_angle(a, b)
    assert_allclose(exact, separation, rtol=0.01)
    assert_allclose(geom.geodesic_distance(a, b), exact, rtol=1e-14, atol=0)
    assert_allclose(geom.geodesic_distance(b, a), exact, rtol=1e-14, atol=0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=9, max_size=9))
def test_distance_metric_axioms(raw):
    vs = np.array(raw).reshape(3, 3)
    if np.any(np.linalg.norm(vs, axis=1) < 1e-3):
        return
    a, b, c = (unit(v) for v in vs)
    dab = geom.geodesic_distance(a, b)
    assert_allclose(dab, geom.geodesic_distance(b, a), atol=1e-12)
    assert geom.geodesic_distance(a, a) <= 1e-7
    assert dab <= geom.geodesic_distance(a, c) + geom.geodesic_distance(c, b) + 1e-9


def test_extremal_distance_to_target():
    north = np.array([[0.0, 0.0, 1.0]])
    assert_allclose(geom.extremal_distance(north, target=[0, 0, -1]), math.pi)


def test_extremal_pairwise_matches_brute_force():
    import skypix as sp
    pts = sp.pix2vec(1, np.arange(1, 13), sp.NESTED)
    d = np.arccos(np.clip(pts @ pts.T, -1, 1))
    assert_allclose(geom.extremal_distance(pts, mode="max"), d.max())
    np.fill_diagonal(d, math.pi)
    assert_allclose(geom.extremal_distance(pts, mode="min"), d.min())


def brute_extremes(pts):
    """Dense pairwise (max, min) geodesic distance, the angle of each pair
    taken as atan2(|a x b|, a . b), which keeps its digits at every
    separation; self pairs are left out of the minimum."""
    best_max, best_min = 0.0, math.pi
    for lo in range(0, len(pts), 250):
        rows = pts[lo:lo + 250]
        d = np.arctan2(np.linalg.norm(np.cross(rows[:, None], pts[None]),
                                      axis=-1), rows @ pts.T)
        best_max = max(best_max, d.max())
        d[np.arange(len(rows)), lo + np.arange(len(rows))] = math.pi
        best_min = min(best_min, d.min())
    return best_max, best_min


def extremes(pts):
    return (geom.extremal_distance(pts, mode="max"),
            geom.extremal_distance(pts, mode="min"))


def test_extremal_pairwise_matches_dense_on_random_and_healpix_points():
    import skypix as sp
    rng = np.random.default_rng(12)
    random = rng.normal(size=(2000, 3))
    random /= np.linalg.norm(random, axis=1)[:, None]
    rows = rng.choice(sp.npix(32), 2000, replace=False) + 1
    centers = sp.pix2vec(32, rows, sp.RING)
    for pts in (random, centers):
        assert_allclose(extremes(pts), brute_extremes(pts), rtol=0,
                        atol=1e-12)


def test_extremal_pairwise_duplicates_antipodes_and_two_points():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(50, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    with_duplicate = np.vstack([pts, pts[17]])
    assert geom.extremal_distance(with_duplicate, mode="min") == 0.0
    with_antipode = np.vstack([pts, -pts[3]])
    assert geom.extremal_distance(with_antipode, mode="max") == math.pi
    two = np.array([[0.0, 0.0, 1.0], [math.sin(1.0), 0.0, math.cos(1.0)]])
    assert_allclose(extremes(two), (1.0, 1.0), rtol=0, atol=1e-12)
    assert extremes(two[[0, 0]]) == (0.0, 0.0)


def test_extremal_distance_errors():
    with pytest.raises(DomainError):
        geom.extremal_distance(np.empty((0, 3)))
    with pytest.raises(DomainError):
        geom.extremal_distance(np.array([[0, 0, 1.0], [np.nan, 0, 0]]))
    with pytest.raises(DomainError):
        geom.extremal_distance(np.array([[0, 0, 1.0]]), mode="max")
    with pytest.raises(DomainError):
        geom.extremal_distance(np.array([[0, 0, 1.0]]), target=[np.nan, 0, 0])


# ---------------------------------------------------------------------------
# per-row kernels evaluate blocks of _BLOCK rows

def geodesic_whole(a, b):
    """The whole-array chord expression geodesic_distance evaluates."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    half_chord = np.einsum("...i->...", (a - b) ** 2) ** 0.5 / 2
    return 2 * np.arcsin(np.minimum(half_chord, 1.0))


def sph2cart_whole(theta, phi):
    """The whole-array expression sph2cart evaluates."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)],
                    axis=-1)


def assert_same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def unit_rows(rng, shape):
    v = rng.standard_normal(shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


BLOCK_SIZES = [(), (1,), (_BLOCK - 1,), (_BLOCK,), (_BLOCK + 1,),
               (3 * _BLOCK + 7,)]


@pytest.mark.parametrize("shape", BLOCK_SIZES)
def test_geodesic_distance_blocks_equal_whole_array(shape):
    rng = np.random.default_rng(sum(shape))
    a, b, c = unit_rows(rng, shape), unit_rows(rng, shape), unit_rows(rng, ())
    if shape:
        b[::5] = a[::5]             # coincident rows: 0 exactly
        b[1::7] = -a[1::7]          # antipodes: the chord clipped at 2
    assert_same_bits(geom.geodesic_distance(a, b), geodesic_whole(a, b))
    # against one (3,) vector
    assert_same_bits(geom.geodesic_distance(a, c), geodesic_whole(a, c))


def test_geodesic_distance_broadcasts_over_blocks():
    rng = np.random.default_rng(3)
    a, b = unit_rows(rng, (190, 180)), unit_rows(rng, (180,))
    got = geom.geodesic_distance(a, b)
    assert got.shape == (190, 180) and got.size > _BLOCK
    assert_same_bits(got, geodesic_whole(a, b))
    assert_same_bits(geom.geodesic_distance(b, a), geodesic_whole(b, a))
    assert_same_bits(geom.geodesic_distance(a[:0], b[0]),
                     geodesic_whole(a[:0], b[0]))
    # two vectors give a numpy scalar, as the whole-array expression does
    assert type(geom.geodesic_distance(a[0, 0], b[0])) is np.float64


@pytest.mark.parametrize("shape", BLOCK_SIZES)
def test_sph2cart_blocks_equal_whole_array(shape):
    rng = np.random.default_rng(sum(shape))
    theta = np.arccos(rng.uniform(-1.0, 1.0, shape))
    phi = rng.uniform(-7.0, 7.0, shape)
    got = geom.sph2cart(theta, phi)
    assert got.shape == shape + (3,)
    assert_same_bits(got, sph2cart_whole(theta, phi))
    # an array against one float broadcasts
    assert_same_bits(geom.sph2cart(theta, 0.25), sph2cart_whole(theta, 0.25))


def test_sph2cart_broadcasts_over_blocks():
    rng = np.random.default_rng(4)
    theta = np.arccos(rng.uniform(-1.0, 1.0, (190, 1)))
    phi = rng.uniform(0.0, 2 * np.pi, 180)
    got = geom.sph2cart(theta, phi)
    assert got.shape == (190, 180, 3) and got.shape[0] * 180 > _BLOCK
    # the whole-array expression stacks cos(theta) unbroadcast, so the
    # reference takes the arrays broadcast beforehand
    assert_same_bits(got, sph2cart_whole(*np.broadcast_arrays(theta, phi)))
    # Python floats give one (3,) vector
    assert_same_bits(geom.sph2cart(1.3, 0.7), sph2cart_whole(1.3, 0.7))
    assert_same_bits(geom.sph2cart(np.empty(0), 1.0),
                     sph2cart_whole(np.empty(0), 1.0))


def cart2sph_whole(xyz):
    """The whole-array expressions cart2sph evaluates."""
    theta = np.arccos(np.clip(xyz[..., 2], -1.0, 1.0))
    phi = np.arctan2(xyz[..., 1], xyz[..., 0]) % (2 * np.pi)
    # [()]: a numpy scalar for one vector, as theta is
    return theta, np.where(np.abs(xyz[..., 2]) >= 1.0, 0.0, phi)[()]


@pytest.mark.parametrize("shape", BLOCK_SIZES + [(190, 180)])
def test_cart2sph_blocks_equal_whole_array(shape):
    rng = np.random.default_rng(sum(shape))
    xyz = unit_rows(rng, shape)
    # the poles, and z rounded past them, take phi = 0
    poles = np.array([[0, 0, 1], [0, 0, -1], [1e-17, 0, 1 + 2.0**-52],
                      [0, 1e-9, -1]], float)
    if xyz.size >= poles.size:
        xyz.reshape(-1, 3)[:4] = poles
    got, want = geom.cart2sph(xyz), cart2sph_whole(xyz)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


def traced_peak(func, *args):
    """``func(*args)`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = func(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_geodesic_distance_memory_is_one_block():
    # the whole-array expression peaks at 4x its output on 2^20 rows
    rng = np.random.default_rng(8)
    a, b = unit_rows(rng, (1 << 20,)), unit_rows(rng, (1 << 20,))
    out, peak = traced_peak(geom.geodesic_distance, a, b)
    assert peak <= out.nbytes + 4 * 2**20


def test_cart2sph_memory_is_one_block():
    # the whole-array expressions peak at 1.6x the two outputs on 2^20 rows
    xyz = unit_rows(np.random.default_rng(10), (1 << 20,))
    (theta, phi), peak = traced_peak(geom.cart2sph, xyz)
    assert peak <= theta.nbytes + phi.nbytes + 4 * 2**20


def test_sph2cart_memory_is_one_block():
    # the whole-array expression peaks at 2.3x its output on 2^20 rows
    rng = np.random.default_rng(9)
    theta = np.arccos(rng.uniform(-1.0, 1.0, 1 << 20))
    phi = rng.uniform(0.0, 2 * np.pi, 1 << 20)
    out, peak = traced_peak(geom.sph2cart, theta, phi)
    assert peak <= out.nbytes + 4 * 2**20


# ---------------------------------------------------------------------------
# window areas

def test_disc_area_values():
    # closed forms, then the published 4-decimal figures
    assert_allclose(geom.disc(math.pi / 2, 0, 1.0).area(),
                    2 * math.pi * (1 - math.cos(1.0)), rtol=1e-15)
    assert_allclose(geom.disc(math.pi / 2, 0, 1.0).area(), 2.8884, atol=5e-4)
    assert_allclose(geom.disc(math.pi / 2, 0, 0.5, complement=True).area(),
                    4 * math.pi - 2 * math.pi * (1 - math.cos(0.5)), rtol=1e-15)
    assert_allclose(geom.disc(math.pi / 2, 0, 0.5, complement=True).area(),
                    11.7972, atol=5e-4)
    assert_allclose(geom.disc(0, 0, math.pi / 2).area(), 2 * math.pi)


def test_polygon_area_octant():
    # the +x+y+z octant: three right angles, area pi/2
    w = geom.polygon([(math.pi / 2, 0), (math.pi / 2, math.pi / 2), (0, 0)])
    assert_allclose(w.area(), math.pi / 2, atol=1e-12)
    assert_allclose(w.complemented().area(), 4 * math.pi - math.pi / 2, atol=1e-12)


def test_quad_area_equals_triangle_sum():
    quad = geom.polygon([(1.2, 0.1), (1.3, 0.8), (0.7, 0.9), (0.6, 0.2)])
    tris = geom.triangulate(quad)
    assert len(tris) == 2
    total = sum(geom.spherical_triangle_area(*t) for t in tris)
    assert_allclose(quad.area(), total, atol=1e-9)


@pytest.mark.parametrize("side", [1e-6, 1e-8])
def test_thin_triangle_area_matches_tangent_plane(side):
    # the flat triangle on the same vertices differs from the spherical
    # one by a relative O(side^2): 2e-13 at 1e-6 rad sides
    a = geom.sph2cart(1.3, 0.7)
    e1 = unit(np.cross([0.0, 0.0, 1.0], a))
    e2 = np.cross(a, e1)
    b = unit(a + side * e1)
    c = unit(a + side * (0.5 * e1 + 0.8 * e2))
    flat = 0.5 * np.linalg.norm(np.cross(b - a, c - a))
    assert_allclose(geom.spherical_triangle_area(a, b, c), flat, rtol=1e-12,
                    atol=0)


def test_polygon_triangulates_once(monkeypatch):
    calls = []
    real = geom.triangulate
    monkeypatch.setattr(geom, "triangulate",
                        lambda w: calls.append(w) or real(w))
    tri = geom.polygon([(1.2, 0.1), (1.3, 0.8), (0.7, 0.9)])
    areas = {tri.area() for _ in range(3)} | {tri.describe()["area"]}
    assert len(calls) == 1
    assert len(areas) == 1
    # the complement shares the triangulated pieces
    rest = tri.complemented()
    assert len(calls) == 1
    assert rest.complement and rest.area() == 4 * math.pi - tri.area()
    assert rest.complemented() == tri
    pts = geom.sph2cart(np.linspace(0.5, 1.5, 50), np.linspace(0, 1, 50))
    assert np.array_equal(rest.contains(pts), ~tri.contains(pts))


def test_monte_carlo_area_agreement():
    rng = np.random.default_rng(42)
    pts = rng.normal(size=(200000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    for w in (geom.disc(math.pi / 2, 0.0, 1.0),
              geom.polygon([(1.2, 0.1), (1.3, 0.8), (0.7, 0.9), (0.6, 0.2)])):
        frac = w.contains(pts).mean()
        area = w.area()
        p = area / (4 * math.pi)
        sigma = math.sqrt(p * (1 - p) / len(pts)) * 4 * math.pi
        assert abs(frac * 4 * math.pi - area) < 3 * sigma


# ---------------------------------------------------------------------------
# membership

def test_disc_contains_center_and_boundary():
    w = geom.disc(0.0, 0.0, 0.5)
    assert w.contains(np.array([0.0, 0.0, 1.0]))
    rim = geom.sph2cart(0.5, 1.0)
    assert w.contains(rim)  # closed region


def test_annulus_membership():
    center = geom.sph2cart(math.pi / 2, 0.0)
    region = geom.WindowSet((geom.disc(math.pi / 2, 0, 0.5, complement=True),
                             geom.disc(math.pi / 2, 0, 1.0)))
    for dist, expect in ((0.75, True), (0.25, False), (1.25, False)):
        p = geom.sph2cart(math.pi / 2 - dist, 0.0)
        assert bool(region.contains(p)) is expect
    assert not region.contains(center)


def test_empty_windowset_is_full_sphere():
    region = geom.WindowSet(())
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(100, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert region.contains(pts).all()


def test_triangle_contains_centroid_not_antipode():
    tri = geom.polygon([(1.2, 0.1), (1.1, 1.0), (0.4, 0.5)])
    centroid = unit(tri.vertex_array().mean(axis=0))
    assert tri.contains(centroid)
    assert not tri.contains(-centroid)
    # winding-number style oracle: ray sampling along a great circle from
    # the centroid crosses the boundary an odd number of times
    assert tri.complemented().contains(-centroid)


def test_convex_flag_agrees_with_triangulated_test():
    rng = np.random.default_rng(3)
    poly_pts = [(1.2, 0.1), (1.3, 0.8), (0.7, 0.9), (0.6, 0.2)]
    w1 = geom.polygon(poly_pts, assumed_convex=True)
    w2 = geom.polygon(poly_pts, assumed_convex=False)
    pts = rng.normal(size=(5000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.array_equal(w1.contains(pts), w2.contains(pts))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0, 6.28), st.floats(0.05, 3.0))
def test_complement_consistency(theta, phi, r):
    theta = min(theta, math.pi)
    w = geom.disc(theta, phi, min(r, math.pi - 1e-6))
    rng = np.random.default_rng(99)
    pts = rng.normal(size=(200, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    inside = w.contains(pts)
    outside = w.complemented().contains(pts)
    assert np.all(inside ^ outside)


def _around(center, rho, az):
    """Points at angles ``rho`` from ``center``, at azimuths ``az``."""
    helper = [1.0, 0.0, 0.0] if abs(center[0]) < 0.9 else [0.0, 1.0, 0.0]
    e1 = unit(np.cross(center, helper))
    e2 = np.cross(center, e1)
    rho = np.asarray(rho)[..., None]
    az = np.asarray(az)[..., None]
    return np.cos(rho) * center + np.sin(rho) * (np.cos(az) * e1
                                                 + np.sin(az) * e2)


@st.composite
def _bounded_regions(draw):
    """``(anchor, region)``: a window or window set near ``anchor`` made of
    discs with radii out to the clip edges of the half-space bounds, convex
    and star-shaped polygons, and complements."""
    anchor = geom.sph2cart(draw(st.floats(0.0, math.pi)),
                           draw(st.floats(0.0, 2 * math.pi)))
    windows = []
    for _ in range(draw(st.integers(1, 3))):
        complement = draw(st.booleans())
        center = _around(anchor, draw(st.floats(0.0, 0.3)),
                         draw(st.floats(0.0, 2 * math.pi)))
        kind = draw(st.sampled_from(["disc", "convex", "star"]))
        if kind == "disc":
            r = draw(st.sampled_from([1e-9, math.pi - 1e-9])
                     | st.floats(1e-9, math.pi - 1e-9))
            windows.append(geom.disc(*geom.cart2sph(center), r, complement))
            continue
        n = draw(st.integers(3, 8))
        size = draw(st.floats(1e-4, 1.2))
        rho = np.full(2 * n if kind == "star" else n, size)
        if kind == "star":   # every other vertex pulled in
            rho[::2] *= 0.4
        az = draw(st.floats(0.0, 2 * math.pi)) + np.linspace(
            0.0, 2 * math.pi, len(rho), endpoint=False)
        points = zip(*geom.cart2sph(_around(center, rho, az)))
        windows.append(geom.polygon(points, complement,
                                    assumed_convex=kind == "convex"))
    region = windows[0] if len(windows) == 1 else geom.WindowSet(windows)
    return anchor, region


@settings(max_examples=60, deadline=None)
@given(_bounded_regions(), st.integers(0, 2**32 - 1),
       st.sampled_from([1e-7, 1e-3, 0.05, 0.5, 2.0]))
def test_cap_bounds_sound_against_contains(drawn, seed, radius):
    # caps about points near the region and anywhere on the sphere; points
    # spread over each cap, half of them on its rim
    anchor, region = drawn
    rng = np.random.default_rng(seed)
    centers = np.concatenate([
        _around(anchor, rng.uniform(0, 3 * radius + 1.5, 30),
                rng.uniform(0, 2 * math.pi, 30)),
        geom.sph2cart(np.arccos(rng.uniform(-1, 1, 10)),
                      rng.uniform(0, 2 * math.pi, 10))])
    all_in, any_in = region.cap_bounds(centers, radius)
    assert not np.any(all_in & ~any_in)
    for c, every, some in zip(centers, all_in, any_in):
        rho = radius * np.sqrt(rng.uniform(size=200))
        rho[100:] = radius
        inside = region.contains(_around(c, rho,
                                         rng.uniform(0, 2 * math.pi, 200)))
        if every:
            assert inside.all()
        if not some:
            assert not inside.any()


# ---------------------------------------------------------------------------
# triangulation

def test_triangle_triangulates_to_itself():
    tri = geom.polygon([(1.2, 0.1), (1.1, 1.0), (0.4, 0.5)])
    out = geom.triangulate(tri)
    assert len(out) == 1
    assert_allclose(np.sort(np.ravel(out[0])), np.sort(tri.vertex_array().ravel()))


def test_thirteen_vertex_polygon_gives_eleven_triangles():
    # a 13-vertex star-ish polygon within one hemisphere
    angles = np.linspace(0, 2 * math.pi, 13, endpoint=False)
    pts = [(0.6 + 0.25 * (i % 2), a) for i, a in enumerate(angles)]
    w = geom.polygon(pts)
    tris = geom.triangulate(w)
    assert len(tris) == 11
    total = sum(geom.spherical_triangle_area(*t) for t in tris)
    assert_allclose(total, w.area(), atol=1e-9)


def test_triangulation_interiors_disjoint():
    rng = np.random.default_rng(5)
    angles = np.linspace(0, 2 * math.pi, 9, endpoint=False)
    w = geom.polygon([(0.5 + 0.3 * (i % 2), a) for i, a in enumerate(angles)])
    tris = [geom.polygon([tuple(geom.cart2sph(v)) for v in t], assumed_convex=True)
            for t in geom.triangulate(w)]
    pts = rng.normal(size=(4000, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    hits = np.zeros(len(pts), dtype=int)
    for t in tris:
        hits += t.contains(pts)
    inside = w.contains(pts)
    # interior points fall in exactly one triangle (edges may double-count)
    strict = hits[inside]
    assert (strict >= 1).all()
    assert np.mean(strict == 1) > 0.99
    assert (hits[~inside] == 0).all()


def test_self_intersecting_polygon_rejected():
    with pytest.raises(GeometryError):
        geom.polygon([(1.0, 0.0), (1.0, 1.0), (1.4, 0.0), (1.4, 1.0)])


def test_polygon_spanning_hemisphere_rejected():
    with pytest.raises(GeometryError):
        geom.polygon([(math.pi / 2, a) for a in (0.0, 2.0, 4.0)])


def test_false_convex_flag_rejected():
    # a concave pentagon, notched at its fourth vertex
    corners = [(0.9, 1.7), (0.9, 2.3), (1.5, 2.3), (1.2, 2.0), (1.5, 1.7)]
    geom.polygon(corners)
    with pytest.raises(GeometryError):
        geom.polygon(corners, assumed_convex=True)
    spec = geom.polygon(corners).to_dict()
    spec["assumedConvex"] = True
    with pytest.raises(GeometryError):
        geom.Window.from_dict(spec)


def test_degenerate_windows_rejected():
    with pytest.raises(GeometryError):
        geom.disc(0, 0, 0.0)
    with pytest.raises(GeometryError):
        geom.polygon([(1.0, 0.0), (1.0, 0.0), (1.2, 0.4)])
    with pytest.raises(GeometryError):
        geom.Window("blob")


# ---------------------------------------------------------------------------
# serialization

def test_window_spec_round_trip():
    w = geom.disc(math.pi / 2, 0.25, 0.5, complement=True)
    assert geom.Window.from_dict(w.to_dict()) == w
    p = geom.polygon([(1.2, 0.1), (1.1, 1.0), (0.4, 0.5)], assumed_convex=True)
    assert geom.Window.from_dict(p.to_dict()) == p
    ws = geom.WindowSet((w, p))
    again = geom.WindowSet.from_spec(ws.to_list())
    assert again == ws
