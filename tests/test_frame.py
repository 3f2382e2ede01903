import csv
import io
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import skypix as sp
from skypix import csvio, fits, frame, geom
from skypix.errors import (AddressingError, DomainError, FormatError,
                           SchemaError, UniquenessError)


@pytest.fixture
def map_source(tmp_path):
    path = tmp_path / "m.fits"
    fits.write_map(path, {"I": np.arange(1, 13, dtype=np.float32)},
                   nside=1, ordering="nested")
    return fits.open_map(path)


def test_frame_from_full_map(map_source):
    f = frame.frame_from_map(map_source)
    assert len(f) == 12
    assert_array_equal(f.pix, np.arange(1, 13))
    assert f.scheme == "nested" and f.nside == 1 and f.mode == frame.CMB


def test_frame_from_selected_rows(map_source):
    f = frame.frame_from_map(map_source, rows=[1, 2, 4, 7, 11])
    assert_array_equal(f.pix, [1, 2, 4, 7, 11])
    assert_array_equal(f.columns["I"], [1, 2, 4, 7, 11])


def test_frame_sample_reproducible(map_source):
    f1 = frame.frame_from_map(map_source, sample_size=4, seed=7)
    f2 = frame.frame_from_map(map_source, sample_size=4, seed=7)
    assert_array_equal(f1.pix, f2.pix)
    assert len(np.unique(f1.pix)) == 4


def test_frame_from_map_rejects_rows_disagreeing_with_nside(tmp_path):
    # NSIDE=4 needs 192 rows; keying 100 rows as pixels would be silent
    path = tmp_path / "short.fits"
    fits.write_map(path, {"I": np.zeros(100, np.float32)}, nside=4,
                   ordering="nested")
    src = fits.open_map(path)
    for kwargs in ({}, {"rows": [1, 2]}, {"sample_size": 5}):
        with pytest.raises(FormatError, match="100 rows"):
            frame.frame_from_map(src, **kwargs)


def test_cmb_coordinates_derive_from_centers(map_source):
    f = frame.frame_from_map(map_source)
    theta, phi = f.angles()
    t2, p2 = sp.pix2ang(1, np.arange(1, 13), "nested")
    assert_allclose(theta, t2)
    assert_allclose(phi, p2)


def test_cmb_mode_rejects_duplicate_keys():
    for keys in ([1, 1], [5, 2, 5], [7, 3, 9, 3]):
        with pytest.raises(UniquenessError):
            frame.SkyFrame(keys, "nested", 2, {})


def test_cmb_mode_accepts_unsorted_unique_keys():
    ring = frame.full_frame(4).with_scheme(sp.RING)
    assert np.any(np.diff(ring.pix) < 0)
    assert_array_equal(np.sort(ring.pix), np.arange(1, sp.npix(4) + 1))
    again = frame.SkyFrame(ring.pix[::-1], sp.RING, 4)
    assert len(again) == sp.npix(4)


def test_column_length_mismatch():
    with pytest.raises(SchemaError):
        frame.SkyFrame([1, 2], "nested", 1, {"I": [1.0]})


def test_numpy_nside_is_stored_as_int_and_round_trips(tmp_path):
    f = frame.SkyFrame([1, 5], "nested", np.int64(2), {"I": [0.5, 1.5]})
    assert type(f.nside) is int
    frame.write_csv(f, tmp_path / "f.csv")
    back = frame.read_csv(tmp_path / "f.csv")
    assert back.nside == 2
    assert_array_equal(back.pix, f.pix)


def test_bool_nside_is_rejected():
    with pytest.raises(AddressingError):
        frame.SkyFrame([1], "nested", True)


@pytest.mark.parametrize("coords", [
    ([0.1, 0.2], [0.3]), ([0.1], [0.3]), ([0.1, 0.2],),
    ([[0.1, 0.2]], [[0.3, 0.4]])],
    ids=["short-phi", "short-both", "no-phi", "2-d"])
def test_hp_coords_must_hold_one_pair_per_row(coords):
    with pytest.raises(SchemaError):
        frame.SkyFrame([1, 2], "nested", 1, mode=frame.HP, coords=coords)


@pytest.mark.parametrize("theta, phi", [
    (4.0, 0.3), (-1e-300, 0.3), (math.nan, 0.3), (math.inf, 0.3),
    (0.5, math.nan), (0.5, -math.inf)],
    ids=["theta-4", "theta-negative", "theta-nan", "theta-inf", "phi-nan",
         "phi-inf"])
def test_hp_coords_must_be_finite_with_theta_in_0_pi(theta, phi):
    with pytest.raises(SchemaError, match="theta"):
        frame.SkyFrame([1, 2], "nested", 1, mode=frame.HP,
                       coords=([0.0, theta], [0.3, phi]))
    # the closed ends and any finite phi are accepted
    frame.SkyFrame([1, 12], "nested", 1, mode=frame.HP,
                   coords=([0.0, math.pi], [-7.0, 1e300]))


def test_keys_must_be_1d():
    with pytest.raises(SchemaError):
        frame.SkyFrame([[1, 2]], "nested", 1)


# ---------------------------------------------------------------------------
# assign_pixels

def test_assign_pixel_centers_round_trip():
    nside = 4
    idx = np.arange(1, sp.npix(nside) + 1)
    theta, phi = sp.pix2ang(nside, idx, "nested")
    f = frame.assign_pixels(theta, phi, {"v": np.ones(idx.size)}, nside)
    assert f.mode == frame.CMB
    assert_array_equal(np.sort(f.pix), idx)


def test_assign_collision_makes_hp_frame():
    theta = np.array([0.01, 0.012])   # both essentially at the north pole
    phi = np.array([0.0, 0.1])
    f = frame.assign_pixels(theta, phi, {"v": [1.0, 2.0]}, 1)
    assert f.mode == frame.HP
    assert len(f) == 2
    assert f.pix[0] == f.pix[1]
    t, p = f.angles()                  # hp keeps the original coordinates
    assert_allclose(t, theta)


def test_assign_require_unique_raises():
    theta = np.array([0.01, 0.012])
    phi = np.array([0.0, 0.1])
    with pytest.raises(UniquenessError, match=r"^2 rows collide in 1 pixels"):
        frame.assign_pixels(theta, phi, {}, 1, require_unique=True)
    # three rows in one pixel and two in another, one row alone
    theta = np.array([0.01, 3.1, 0.012, 0.011, 1.6, 3.12])
    phi = np.array([0.0, 0.1, 0.1, 0.2, 0.3, 0.2])
    with pytest.raises(UniquenessError) as info:
        frame.assign_pixels(theta, phi, {}, 1, require_unique=True)
    assert str(info.value) == ("5 rows collide in 2 pixels "
                               "(rows [0, 1, 2, 3, 5]...)")


def test_assign_many_points_keeps_row_count():
    rng = np.random.default_rng(0)
    n = 5000
    theta = np.arccos(rng.uniform(-1, 1, n))
    phi = rng.uniform(0, 2 * math.pi, n)
    f = frame.assign_pixels(theta, phi, {"I": np.ones(n)}, 64)
    assert len(f) == n


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 29),
       st.lists(st.tuples(st.floats(0.0, math.pi), st.floats(-20.0, 20.0)),
                min_size=1, max_size=30),
       st.floats(-10.0, 10.0).filter(lambda t: not 0.0 <= t <= math.pi))
def test_assign_keys_are_nested_ang2pix(level, points, outside):
    nside = 1 << level
    theta, phi = np.array(points).T
    f = frame.assign_pixels(theta, phi, {}, nside)
    assert_array_equal(f.pix, sp.ang2pix(nside, theta, phi, sp.NESTED))
    with pytest.raises(DomainError, match="theta"):
        frame.assign_pixels(np.append(theta, outside), np.append(phi, 0.0),
                            {}, nside)


# ---------------------------------------------------------------------------
# windows

def test_extract_full_sphere_is_identity():
    f = frame.full_frame(4, columns={"I": np.arange(192.0)})
    out = frame.extract_window(f, geom.WindowSet(()))
    assert len(out) == len(f)
    assert_array_equal(out.pix, f.pix)


def test_extract_disc_area_tracks_analytic():
    f = frame.full_frame(64)
    w = geom.disc(math.pi / 2, 0.0, 1.0)
    out = frame.extract_window(f, w)
    assert abs(frame.geo_area(out) - w.area()) / w.area() < 0.02


def test_extract_window_idempotent():
    f = frame.full_frame(16, columns={"I": np.arange(3072.0)})
    w = geom.disc(1.0, 2.0, 0.7)
    once = frame.extract_window(f, w)
    twice = frame.extract_window(once, w)
    assert_array_equal(once.pix, twice.pix)


def test_extract_partition_by_complement():
    f = frame.full_frame(8)
    w = geom.disc(0.9, 1.1, 0.6)
    inside = frame.extract_window(f, w)
    outside = frame.extract_window(f, w.complemented())
    joined = np.sort(np.concatenate([inside.pix, outside.pix]))
    assert_array_equal(joined, f.pix)


def test_geo_area_monotone_under_nesting():
    f = frame.full_frame(16)
    small = frame.extract_window(f, geom.disc(1.2, 0.3, 0.4))
    large = frame.extract_window(f, geom.disc(1.2, 0.3, 0.8))
    assert frame.geo_area(small) <= frame.geo_area(large)


def test_geo_area_values():
    assert_allclose(frame.geo_area(frame.full_frame(1)), 4 * math.pi)
    one = frame.SkyFrame([5], "nested", 2, {})
    assert_allclose(frame.geo_area(one), math.pi / 12)


def test_empty_extraction_is_fine():
    f = frame.full_frame(2)
    w = geom.disc(0.0, 0.0, 0.05)
    # shift the disc to a pixel-free zone? any tiny disc may still grab a
    # center; make it truly empty by intersecting two disjoint discs
    region = geom.WindowSet((geom.disc(0.0, 0.0, 0.05, complement=True),
                             geom.disc(0.0, 0.0, 0.04)))
    out = frame.extract_window(f, region)
    assert len(out) == 0
    assert frame.summarize(out)["rows"] == 0


def test_cell_radius_bounds_every_cell():
    fine = 512
    pix = np.arange(1, sp.npix(fine) + 1)
    xyz = sp.pix2vec(fine, pix, sp.NESTED)
    for cells in (1, 2, 4, 8, 16, frame._CELL_NSIDE):
        centers = sp.pix2vec(cells, np.arange(1, sp.npix(cells) + 1),
                             sp.NESTED)
        owner = (pix - 1) >> (2 * (fine // cells).bit_length() - 2)
        dots = np.einsum("ij,ij->i", xyz, centers[owner])
        assert np.arccos(np.clip(dots, -1, 1)).max() <= frame._cell_radius(
            cells)


def _offset(anchor, bearing, dist):
    """The direction ``dist`` radians from ``anchor`` along ``bearing``."""
    e1 = np.cross(anchor, [0.0, 0.0, 1.0] if abs(anchor[2]) < 0.9
                  else [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(anchor, e1)
    v = (math.cos(dist) * anchor
         + math.sin(dist) * (math.cos(bearing) * e1 + math.sin(bearing) * e2))
    return geom.cart2sph(v / np.linalg.norm(v))


@st.composite
def _windows(draw, nside, size, complements):
    """1-3 discs and polygons within ``size`` of an anchor that sits on a
    corner, an edge or the center of a cell at ``frame._CELL_NSIDE``."""
    cell = draw(st.integers(1, sp.npix(frame._CELL_NSIDE)))
    outline = sp.pixel_boundary(
        sp.PixelId(cell, sp.NESTED, frame._CELL_NSIDE), 2)
    spot = draw(st.integers(-1, len(outline) - 1))
    anchor = (sp.pix2vec(frame._CELL_NSIDE, cell, sp.NESTED) if spot < 0
              else outline[spot])
    windows = []
    for _ in range(draw(st.integers(1, 3))):
        complement = complements and draw(st.booleans())
        center = _offset(anchor, draw(st.floats(0, 2 * math.pi)),
                         draw(st.floats(0, size / 4)))
        kind = draw(st.sampled_from(["disc", "rim", "convex", "star"]))
        if kind in ("disc", "rim"):
            r = draw(st.floats(size / 100, size))
            if kind == "rim":   # the rim runs through a pixel center
                near = sp.ang2pix(nside, *_offset(
                    geom.sph2cart(*center), 0.0, r), sp.NESTED)
                r = float(geom.geodesic_distance(
                    geom.sph2cart(*center), sp.pix2vec(nside, near,
                                                       sp.NESTED)))
            windows.append(geom.disc(*center, max(r, 1e-9), complement))
            continue
        n = draw(st.integers(3, 7))
        radius = draw(st.floats(size / 4, size))
        if kind == "star":   # non-convex: every other vertex pulled in
            n = max(n, 4)
            radii = [radius if k % 2 else radius / 3 for k in range(n)]
        else:
            radii = [radius] * n
        turn = draw(st.floats(0, 2 * math.pi))
        points = [_offset(geom.sph2cart(*center), turn + 2 * math.pi * k / n,
                          radii[k]) for k in range(n)]
        windows.append(geom.polygon(
            points, complement,
            assumed_convex=kind == "convex" and draw(st.booleans())))
    return anchor, geom.WindowSet(tuple(windows))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(0, 7), st.sampled_from([0.05, 0.5, 1.5]),
       st.booleans())
def test_window_pixels_match_full_resolution(data, level, size, ring):
    nside = 1 << level
    _, region = data.draw(_windows(nside, size, complements=True))
    scheme = sp.RING if ring else sp.NESTED
    pix = np.arange(1, sp.npix(nside) + 1)
    expected = pix[region.contains(sp.pix2vec(nside, pix, scheme))]
    assert_array_equal(frame.window_pixels(nside, region, scheme), expected)
    sky = frame.full_frame(nside, scheme)
    assert_array_equal(frame.extract_window(sky, region).pix, expected)
    # the same centers as explicit hp coordinates, longitudes wrapped by up
    # to 1.5e5 turns: the grid's cell bounds must keep every row that
    # contains() accepts
    theta, phi = sp.pix2ang(nside, pix, scheme)
    turns = np.random.default_rng(level).integers(-150_000, 150_000, pix.size)
    _assert_hp_membership(theta, phi + 2 * math.pi * turns, region)


def _assert_hp_membership(theta, phi, region):
    """``extract_window`` of an hp frame with these coordinates keeps
    exactly the rows that ``contains`` accepts."""
    rows = np.arange(theta.size)
    f = frame.SkyFrame(np.ones(theta.size, dtype=np.int64), sp.NESTED, 1,
                       {"row": rows}, frame.HP, coords=(theta, phi))
    expected = rows[region.contains(geom.sph2cart(theta, phi))]
    assert_array_equal(frame.extract_window(f, region).column("row"),
                       expected)


def _shell(center, dist, n, rng):
    """``(theta, phi)`` of ``n`` points ``dist`` radians from ``center``."""
    return geom.cart2sph(np.array([geom.sph2cart(*_offset(
        center, b, d)) for b, d in zip(rng.uniform(0, 2 * math.pi, n),
                                       np.broadcast_to(dist, n))]))


def test_hp_membership_matches_every_row_at_the_edge_tolerance():
    """Points straddling each member's boundary and its edge-tolerance band
    (1e-12 / sin r wide on a disc of radius r, and wider at the sharp tip
    of a thin triangle), near both poles and with longitudes up to 1e6 in
    magnitude, against caps that reach a pole or not."""
    rng = np.random.default_rng(20)
    # a triangle 1e-9 rad thick along the equator from 0 to 2: contains()
    # takes equator points up to ~1e-3 rad beyond either end
    h = math.pi / 2
    sliver = [(h, 0.0), (h + 1e-9, 1.0), (h, 2.0)]
    tips = np.concatenate([-np.logspace(-12, -1, 45),
                           2 + np.logspace(-12, -1, 45)])
    members = [geom.disc(1.0, 2.0, 1e-6), geom.disc(0.3, 5.0, 0.3),
               geom.disc(3.0, 1.0, 0.2), geom.disc(1.6, 4.0, 2.5),
               geom.polygon(sliver), geom.polygon(sliver, assumed_convex=True),
               geom.polygon([(0.2, 0.0), (0.2, 2.0), (0.05, 1.0), (0.2, 4.0)]),
               geom.polygon([(2.9, 0.0), (2.9, 2.1), (3.1, 4.2)], True)]
    regions = [geom.WindowSet((w,)) for w in members] + [
        geom.WindowSet((members[0], members[4], members[1].complemented())),
        geom.WindowSet((members[6], members[7])),
        geom.WindowSet((members[2].complemented(),))]
    for region in regions:
        theta, phi = [np.arccos(rng.uniform(-1, 1, 2000))], [
            rng.uniform(-7, 14, 2000)]
        for w in region.windows:
            anchors = ([w.center.to_vector()] if w.kind == "disc"
                       else list(w.vertex_array()))
            radii = [w.r, math.acos(math.cos(w.r) - 1e-12)] if w.r else [0]
            for a in anchors:
                for r in radii:
                    for scale in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
                        t, p = _shell(a, r + scale * rng.uniform(-1, 1, 50),
                                      50, rng)
                        theta.append(t)
                        phi.append(p)
        theta = np.concatenate(theta + [rng.uniform(0, 0.05, 200),
                                        math.pi - rng.uniform(0, 0.05, 200),
                                        np.full(tips.size, h)])
        phi = np.concatenate(phi + [rng.uniform(0, 7, 400), tips])
        turns = rng.integers(-150_000, 150_000, phi.size)
        _assert_hp_membership(theta, phi + 2 * math.pi * turns, region)


def test_hp_membership_keeps_long_longitudes():
    """Longitudes of 1e9 reduce mod 2 pi with an error of ~4e-8 rad in
    floating point (1e6 with ~4e-11, and 1e300 with more than 2 pi),
    while sph2cart reduces them exactly: rows 1e-12 inside a disc's eastern
    or western tip must stay in."""
    for lon in (1e9, -1e9, 1e6 + 0.5, -1e6 - 0.5, 1e300, -1e300):
        true = math.atan2(math.sin(lon), math.cos(lon))
        for side in (1.0, -1.0):
            w = geom.disc(math.pi / 2, (true - side * (0.1 - 1e-12)) % (
                2 * math.pi), 0.1)
            _assert_hp_membership(np.array([math.pi / 2]), np.array([lon]),
                                  geom.WindowSet((w,)))
            assert w.contains(geom.sph2cart(math.pi / 2, lon))


def test_grid_radius_bounds_every_cell():
    """Every corner, edge midpoint and 100 random points of every cell of
    the theta-phi grid, polar bands included, lie within the grid radius
    of the cell's center; the random points lie in the cell that
    ``_grid_cell_block`` names."""
    centers, radius = frame._grid_cells()
    step = math.pi / frame._GRID
    band, sector = np.divmod(np.arange(len(centers)), 2 * frame._GRID)
    outline = [[0, 0], [0, 0.5], [0, 1], [0.5, 1], [1, 1], [1, 0.5], [1, 0],
               [0.5, 0]]
    spots = np.concatenate([outline, np.random.default_rng(24).uniform(
        0, 1, (100, 2))])
    theta = (band[:, None] + spots[:, 0]) * step
    phi = (sector[:, None] + spots[:, 1]) * step
    dist = geom.geodesic_distance(geom.sph2cart(theta, phi),
                                  centers[:, None])
    assert dist.max() <= radius
    inner = np.s_[:, len(outline):]
    cell, = frame._grid_cell_block(theta[inner].ravel(), phi[inner].ravel())
    assert_array_equal(cell, np.repeat(band * 2 * frame._GRID + sector, 100))


def test_grid_cell_of_edge_coordinates():
    """The poles, band and sector edges and the floats beside them,
    negative longitudes and longitudes up to the float limit raise no
    warning, and put each row within the grid radius of its cell's
    center, or in the cell past the last, whose rows are always tested,
    exactly when ``|phi| >= 2**20``."""
    step = math.pi / frame._GRID
    bands = np.arange(frame._GRID + 1) * step
    theta = np.clip(np.concatenate([bands, np.nextafter(bands, -1),
                                    np.nextafter(bands, 4), [math.pi]]),
                    0, math.pi)
    sectors = np.arange(2 * frame._GRID + 1) * step
    phi = np.concatenate([sectors, np.nextafter(sectors, -1),
                          np.nextafter(sectors, 7),
                          2.0 ** 20 + np.array([-1, 0, 1]), [1.7e308]])
    phi = np.concatenate([phi, -phi])
    theta, phi = (a.ravel() for a in np.meshgrid(theta, phi))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cell, = frame._grid_cell_block(theta, phi)
    centers, radius = frame._grid_cells()
    far = np.abs(phi) >= 2.0 ** 20
    assert_array_equal(cell == len(centers), far)
    assert cell.min() >= 0
    dist = geom.geodesic_distance(geom.sph2cart(theta[~far], phi[~far]),
                                  centers[cell[~far]])
    assert dist.max() <= radius


# the benchmark's concave pentagon, notched at (1.2, 2.0)
_PENTAGON = [(0.9, 1.7), (0.9, 2.3), (1.5, 2.3), (1.2, 2.0), (1.5, 1.7)]


def test_hp_membership_of_complements_sets_and_the_pentagon():
    rng = np.random.default_rng(24)
    pentagon = geom.polygon(_PENTAGON)
    theta, phi = [np.arccos(rng.uniform(-1, 1, 100_000))], [
        rng.uniform(-20, 20, 100_000)]
    for vertex in pentagon.vertex_array():
        t, p = _shell(vertex, np.logspace(-12, -2, 50), 50, rng)
        theta.append(t)
        phi.append(p)
    theta, phi = np.concatenate(theta), np.concatenate(phi)
    d = geom.disc(1.2, 2.0, 0.7)
    for members in [(d.complemented(),),
                    (d.complemented(), geom.disc(2.8, 5.0, 0.3, True)),
                    (d, pentagon, geom.disc(0.0, 0.0, 0.3)),
                    (d, geom.disc(1.0, 2.2, 0.2), pentagon.complemented()),
                    (pentagon,)]:
        _assert_hp_membership(theta, phi, geom.WindowSet(members))


def test_hp_window_mask_memory():
    # the bounding caps this replaced peaked at 20.0 MiB on the pentagon,
    # and at 49.2 MiB on a complement-only disc, which tested every row
    rng = np.random.default_rng(7)
    n = 1_000_000
    f = frame.SkyFrame(np.ones(n, dtype=np.int64), sp.NESTED, 1, {},
                       frame.HP, coords=(np.arccos(rng.uniform(-1, 1, n)),
                                         rng.uniform(0, 2 * math.pi, n)))
    for region in (geom.polygon(_PENTAGON),
                   geom.disc(1.2, 2.0, 0.7, complement=True)):
        tracemalloc.start()
        try:
            frame.window_mask(f, region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(8, 12), st.booleans())
def test_window_pixels_match_local_pixels_up_to_nside_4096(data, level, ring):
    nside = 1 << level
    anchor, region = data.draw(_windows(nside, 0.02, complements=False))
    # every member lies within 0.03 of the anchor, so within 0.07 of the
    # center of its cell: test every pixel of those cells at full resolution
    cells = np.arange(1, sp.npix(frame._CELL_NSIDE) + 1)
    near = cells[geom.geodesic_distance(
        sp.pix2vec(frame._CELL_NSIDE, cells, sp.NESTED), anchor) <= 0.07]
    per_cell = (nside // frame._CELL_NSIDE) ** 2
    local = ((near[:, None] - 1) * per_cell
             + np.arange(1, per_cell + 1)).ravel()
    expected = local[region.contains(sp.pix2vec(nside, local, sp.NESTED))]
    if ring:
        expected = np.sort(sp.nest2ring(nside, expected))
    scheme = sp.RING if ring else sp.NESTED
    assert_array_equal(frame.window_pixels(nside, region, scheme), expected)
    # a cmb frame of those pixels, against the plain and the complemented
    # region, in its own ordering
    sky = frame.SkyFrame(local, sp.NESTED, nside).with_scheme(scheme)
    for cut in (region, geom.WindowSet(tuple(w.complemented()
                                             for w in region.windows))):
        keep = cut.contains(sky.positions())
        assert_array_equal(frame.extract_window(sky, cut).pix, sky.pix[keep])


def test_window_pixels_rows_read_only_window_rows(tmp_path):
    nside = 64
    n = sp.npix(nside)
    region = geom.WindowSet((geom.disc(math.pi / 2, 0.0, 0.5, True),
                             geom.disc(math.pi / 2, 0.0, 1.0)))
    for ordering in ("nested", "ring"):
        path = tmp_path / (ordering + ".fits")
        fits.write_map(path, {"I": np.arange(n, dtype=np.float32),
                              "Q": -np.arange(n, dtype=np.float64)},
                       nside=nside, ordering=ordering)
        whole = frame.extract_window(frame.frame_from_map(fits.open_map(path)),
                                     region)
        src = fits.open_map(path)
        rows = frame.window_pixels(nside, region, src.ordering)
        cut = frame.frame_from_map(src, rows=rows)
        assert_array_equal(cut.pix, whole.pix)
        for name in ("I", "Q"):
            assert cut.columns[name].dtype == whole.columns[name].dtype
            assert_array_equal(cut.columns[name], whole.columns[name])
        assert src.payload_bytes_read == len(cut) * src.row_bytes
        assert src.payload_bytes_read <= 0.25 * n * src.row_bytes


# ---------------------------------------------------------------------------
# sampling

def test_sample_frame_full_is_everything():
    f = frame.full_frame(2, columns={"I": np.arange(48.0)})
    out = frame.sample_frame(f, 48, seed=3)
    assert_array_equal(np.sort(out.pix), f.pix)


def test_sample_frame_deterministic():
    f = frame.full_frame(8)
    a = frame.sample_frame(f, 100, seed=5)
    b = frame.sample_frame(f, 100, seed=5)
    assert_array_equal(a.pix, b.pix)
    with pytest.raises(DomainError):
        frame.sample_frame(f, len(f) + 1, seed=0)


def test_sample_longitudes_uniform():
    f = frame.full_frame(64)
    out = frame.sample_frame(f, 20000, seed=11)
    _, phi = out.angles()
    counts, _ = np.histogram(phi, bins=16, range=(0, 2 * math.pi))
    expected = 20000 / 16
    chi2 = ((counts - expected) ** 2 / expected).sum()
    # chi2(15) 0.999 quantile is 37.70
    assert chi2 < 37.70


# ---------------------------------------------------------------------------
# binding

def test_bind_rows_disjoint_stays_cmb():
    a = frame.SkyFrame([1, 2], "nested", 2, {"I": [1.0, 2.0]})
    b = frame.SkyFrame([5, 9], "nested", 2, {"I": [5.0, 9.0]})
    out = frame.bind_frames([a, b])
    assert out.mode == frame.CMB and not out.demoted
    assert_array_equal(out.pix, [1, 2, 5, 9])


def test_bind_rows_overlap_demotes_to_hp():
    a = frame.SkyFrame([1, 2], "nested", 2, {"I": [1.0, 2.0]})
    b = frame.SkyFrame([2, 3], "nested", 2, {"I": [5.0, 9.0]})
    out = frame.bind_frames([a, b])
    assert out.mode == frame.HP and out.demoted
    assert len(out) == 4


def test_bind_rows_keeps_explicit_coordinates():
    theta, phi = np.array([0.3, 2.0]), np.array([1.0, 5.5])
    a = frame.SkyFrame(sp.ang2pix(2, theta, phi, sp.NESTED), "nested", 2,
                       {"I": [1.0, 2.0]}, frame.HP, coords=(theta, phi))
    b = frame.SkyFrame([5, 9], "nested", 2, {"I": [5.0, 9.0]})
    out = frame.bind_frames([a, b])
    assert out.mode == frame.HP and not out.demoted
    centers = sp.pix2ang(2, np.array([5, 9]), sp.NESTED)
    for got, mine, theirs in zip(out.coords, (theta, phi), centers):
        assert_array_equal(got, np.concatenate([mine, theirs]))


def test_bind_rows_schema_and_resolution_errors():
    a = frame.SkyFrame([1], "nested", 2, {"I": [1.0]})
    with pytest.raises(SchemaError):
        frame.bind_frames([a, frame.SkyFrame([2], "nested", 2, {"J": [1.0]})])
    with pytest.raises(AddressingError):
        frame.bind_frames([a, frame.SkyFrame([2], "nested", 4, {"I": [1.0]})])


def test_bind_then_split_recovers_rows():
    a = frame.SkyFrame([1, 4], "nested", 2, {"I": [1.0, 4.0]})
    b = frame.SkyFrame([7, 9], "nested", 2, {"I": [7.0, 9.0]})
    out = frame.bind_frames([a, b])
    assert_array_equal(out.columns["I"][:2], a.columns["I"])
    assert_array_equal(out.columns["I"][2:], b.columns["I"])


def test_bind_columns():
    a = frame.SkyFrame([1, 2], "nested", 2, {"I": [1.0, 2.0]})
    b = frame.SkyFrame([1, 2], "nested", 2, {"M": [0.0, 1.0]})
    out = frame.bind_frames([a, b], axis="columns")
    assert out.column_names == ["I", "M"]
    with pytest.raises(SchemaError):
        frame.bind_frames([a, a], axis="columns")
    c = frame.SkyFrame([1, 3], "nested", 2, {"M": [0.0, 1.0]})
    with pytest.raises(SchemaError):
        frame.bind_frames([a, c], axis="columns")


# ---------------------------------------------------------------------------
# summary

def test_summary_constant_column():
    f = frame.SkyFrame([1, 2, 3], "nested", 2, {"I": [2.5, 2.5, 2.5]})
    stats = frame.summarize(f)["columns"]["I"]
    assert all(stats[k] == 2.5 for k in ("min", "q1", "median", "mean", "q3", "max"))


def test_summary_quartiles_one_to_five():
    f = frame.SkyFrame([1, 2, 3, 4, 5], "nested", 2,
                       {"I": [1.0, 2.0, 3.0, 4.0, 5.0]})
    stats = frame.summarize(f)["columns"]["I"]
    assert stats["median"] == 3.0 and stats["mean"] == 3.0
    assert stats["q1"] == 2.0 and stats["q3"] == 4.0


def test_summary_reports_windows():
    f = frame.full_frame(16)
    region = geom.WindowSet((geom.disc(math.pi / 2, 0, 0.5, complement=True),
                             geom.disc(math.pi / 2, 0, 1.0)))
    out = frame.extract_window(f, region)
    summary = frame.summarize(out)
    kinds = [w["kind"] for w in summary["windows"]]
    assert kinds == ["minus.disc", "disc"]
    assert_allclose(summary["windows"][0]["area"], 11.7972, atol=5e-4)
    assert_allclose(summary["windows"][1]["area"], 2.8884, atol=5e-4)
    annulus = 2 * math.pi * (math.cos(0.5) - math.cos(1.0))
    assert abs(summary["covered_area"] - annulus) / annulus < 0.05


# ---------------------------------------------------------------------------
# persistence

def test_csv_round_trip(tmp_path):
    f = frame.SkyFrame([3, 5, 9], "ring", 2,
                       {"I": [0.5, -1.25, 3.0], "M": [0.0, 1.0, 0.0]})
    path = tmp_path / "frame.csv"
    frame.write_csv(f, path)
    back = frame.read_csv(path)
    assert_array_equal(back.pix, f.pix)
    assert back.scheme == "ring" and back.nside == 2 and back.mode == frame.CMB
    assert_array_equal(back.columns["I"], f.columns["I"])
    assert_array_equal(back.columns["M"], f.columns["M"])


def test_csv_requires_sidecar(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("pix,theta,phi\n")
    with pytest.raises(SchemaError):
        frame.read_csv(path)


def test_csv_sidecar_is_checked_before_the_body(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("pix,theta,phi,I\n1,1.0,1.0,0.5x\n")
    (tmp_path / "x.csv.meta.json").write_text(
        '{"nside": 3, "ordering": "nested", "mode": "cmb"}')
    with pytest.raises(SchemaError, match="x.csv.meta.json.*power of two"):
        frame.read_csv(path)


@pytest.mark.parametrize("edit", ["drop", "extra"])
@pytest.mark.parametrize("cell", [0, 1, 2, 3])
def test_cmb_csv_row_of_wrong_length_raises(tmp_path, edit, cell):
    # theta and phi of a cmb frame are not parsed, but each row must hold
    # them: one cell missing or added anywhere in a row is malformed
    f = frame.SkyFrame([3, 5, 9], "ring", 2, {"I": [0.5, -1.25, 3.0]})
    path = tmp_path / "bad.csv"
    frame.write_csv(f, path)
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[2].split(b",")
    if edit == "drop":
        del cells[cell]
    else:
        cells.insert(cell + 1, b"0.5")
    lines[2] = b",".join(cells)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(SchemaError, match="bad.csv: row at line 3 has %d "
                       "cells, the header 4$" % len(cells)):
        frame.read_csv(path)


def test_cmb_csv_read_memory_is_bounded(tmp_path):
    # 2^17+ rows of pix,theta,phi,I: pix and I converted, theta and phi
    # only counted; parsing all four cells peaks at 64 bytes a row
    rng = np.random.default_rng(5)
    f = frame.full_frame(128, "ring", {"I": rng.standard_normal(12 * 128**2)})
    path = tmp_path / "f.csv"
    frame.write_csv(f, path)
    tracemalloc.start()
    try:
        back = frame.read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_array_equal(back.pix, f.pix)
    assert_array_equal(back.columns["I"], f.columns["I"])
    assert peak < 49 * len(f)


def test_hp_csv_round_trip_keeps_coords(tmp_path):
    theta = np.array([0.01, 0.012])
    phi = np.array([0.0, 0.1])
    f = frame.assign_pixels(theta, phi, {"v": [1.0, 2.0]}, 1)
    path = tmp_path / "hp.csv"
    frame.write_csv(f, path)
    back = frame.read_csv(path)
    assert back.mode == frame.HP
    t, _ = back.angles()
    assert_allclose(t, theta)


def golden_frame():
    """Five hp rows covering signed zeros, NaN, infinities, a subnormal,
    int and bool columns, a quoted column name and the largest keys."""
    return frame.SkyFrame(
        [1, 1, 5, 12 * 4**29 - 1, 12 * 4**29], "nested", 2**29,
        {"a": [-0.0, math.nan, math.inf, -math.inf, 1e-300],
         "n": np.array([-3, 0, 7, 2**53 + 1, 10**17]),
         "b": np.array([True, False, True, True, False]),
         "x,y": [0.1, 1 / 3, 2.5, 1e16, 123456789.125]},
        mode=frame.HP,
        coords=(np.array([0.0, 0.1, math.pi / 3, math.pi, 5e-324]),
                np.array([-0.0, 0.0, 2 * math.pi, 1.5, 2.0])))


def test_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "golden.csv"
    frame.write_csv(golden_frame(), path)
    assert path.read_bytes() == (
        b'pix,theta,phi,a,n,b,"x,y"\r\n'
        b"1,0.0,-0.0,-0.0,-3.0,1.0,0.1\r\n"
        b"1,0.1,0.0,nan,0.0,0.0,0.3333333333333333\r\n"
        b"5,1.0471975511965976,6.283185307179586,inf,7.0,1.0,2.5\r\n"
        b"3458764513820540927,3.141592653589793,1.5,-inf,"
        b"9007199254740992.0,1.0,1e+16\r\n"
        b"3458764513820540928,5e-324,2.0,1e-300,1e+17,0.0,123456789.125\r\n")
    back = frame.read_csv(path)
    assert back.column_names == ["a", "n", "b", "x,y"]
    assert back.pix.tolist() == golden_frame().pix.tolist()


def row_by_row_csv(f):
    """The format written one row at a time through ``csv.writer``."""
    theta, phi = (np.atleast_1d(x) for x in f.angles())
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["pix", "theta", "phi"] + f.column_names)
    for i in range(len(f)):
        row = [int(f.pix[i]), repr(float(theta[i])), repr(float(phi[i]))]
        row += [repr(float(f.columns[n][i])) for n in f.column_names]
        writer.writerow(row)
    return out.getvalue().encode()


@pytest.mark.parametrize("rows", [0, 1, csvio.CHUNK + 1])
def test_csv_rows_around_chunk_boundaries(tmp_path, rows):
    rng = np.random.default_rng(rows)
    f = frame.full_frame(128, "ring",
                         {"I": rng.standard_normal(12 * 128**2)})
    f = f.take(np.arange(rows))
    path = tmp_path / "f.csv"
    frame.write_csv(f, path)
    assert path.read_bytes() == row_by_row_csv(f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no "input contained no data"
        back = frame.read_csv(path)
    assert len(back) == rows and back.pix.dtype == np.int64
    assert_array_equal(back.pix, f.pix)
    assert_array_equal(back.columns["I"], f.columns["I"])


# signed zeros, subnormals, infinities, NaN and any other bit pattern
float64s = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     math.inf, -math.inf, math.nan]),
    st.floats(),
    st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))))
# the coordinates a frame accepts: theta in [0, pi] and a finite phi
thetas = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, math.pi]),
                   st.floats(0.0, math.pi))
phis = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                 st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 12 * 4**29), thetas, phis,
                          float64s), max_size=40))
def test_csv_round_trip_is_bitwise(rows):
    pix = np.array([r[0] for r in rows], dtype=np.int64)
    theta, phi, value = np.array([r[1:] for r in rows]).reshape(-1, 3).T
    f = frame.SkyFrame(pix, "nested", 2**29, {"v": value}, mode=frame.HP,
                       coords=(theta, phi))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        frame.write_csv(f, path)
        back = frame.read_csv(path)
    assert back.pix.tolist() == pix.tolist()
    for got, want in zip((*back.angles(), back.columns["v"]),
                         (theta, phi, value)):
        nan = np.isnan(want)
        assert_array_equal(np.isnan(got), nan)
        assert_array_equal(got[~nan].view(np.uint64),
                           want[~nan].view(np.uint64))


def test_string_key_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    axis = np.array(["theta", "theta", "phi", "longer_label"])
    values = np.array([0.5, math.nan, -0.0, 1e-300])
    csvio.write_table(path, ["axis", "v"], [axis], [values])
    assert path.read_bytes() == (b"axis,v\r\ntheta,0.5\r\ntheta,nan\r\n"
                                 b"phi,-0.0\r\nlonger_label,1e-300\r\n")
    header, (keys, back) = csvio.read_table(path, lambda h: None, (object,),
                                            FormatError)
    assert header == ["axis", "v"]
    assert keys.tolist() == axis.tolist()
    assert_array_equal(back.view(np.uint64), values.view(np.uint64))
