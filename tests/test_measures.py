import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import skypix as sp
from skypix import frame, geom
from skypix.errors import DomainError, StratificationError
from skypix.geostat import (angular_marginals, entropy, first_minkowski,
                            q_statistic, qq_pairs, renyi_function)


def frame_with(values, nside=4, scheme="nested"):
    values = np.asarray(values, dtype=np.float64)
    return frame.SkyFrame(np.arange(1, values.size + 1), scheme, nside,
                          {"I": values})


# ---------------------------------------------------------------------------
# entropy

def test_entropy_constant_is_zero():
    assert entropy(frame_with(np.full(50, 2.0)), "I") == 0.0


def test_entropy_uniform_over_power_of_two_bins():
    k = 3
    # 8 equally occupied bins: values at bin centers
    values = np.repeat(np.arange(2 ** k, dtype=float), 10) + 0.5
    f = frame_with(values, nside=8)
    assert_allclose(entropy(f, "I", bin_count=2 ** k), k, rtol=1e-12)


def test_entropy_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    values = rng.standard_normal(150)
    f = frame_with(values, nside=8)
    bins = 64
    got = entropy(f, "I", bin_count=bins)
    counts, _ = np.histogram(values, bins=bins,
                             range=(values.min(), values.max()))
    expect = 0.0
    for c in counts:
        if c:
            p = c / values.size
            expect -= p * math.log2(p)
    assert_allclose(got, expect, atol=1e-12)
    assert got <= math.log2(bins)


def test_entropy_sturges_default():
    f = frame_with(np.arange(128.0), nside=8)
    assert entropy(f, "I") <= math.log2(1 + 7 + 1)


# ---------------------------------------------------------------------------
# first Minkowski functional

def test_minkowski_endpoints():
    values = np.arange(1.0, 49.0)
    f = frame_with(values, nside=2)
    assert_allclose(first_minkowski(f, "I", 0.0), frame.geo_area(f))
    assert first_minkowski(f, "I", values.max()) == 0.0


def test_minkowski_half_area_on_symmetric_field():
    rng = np.random.default_rng(9)
    n = sp.npix(16)
    f = frame.full_frame(16, columns={"I": rng.standard_normal(n)})
    area = first_minkowski(f, "I", 0.0)
    half = 2 * math.pi
    # binomial error around half the sphere
    sigma = 4 * math.pi * 0.5 / math.sqrt(n)
    assert abs(area - half) < 4 * sigma


# ---------------------------------------------------------------------------
# Renyi function

def test_renyi_uniform_measure_is_constant():
    # identical value pattern inside every box: equal box masses after the
    # minimum shift (nested boxes are contiguous index ranges)
    nside, box_level = 8, 2
    n_boxes = 12 * 4 ** box_level
    per_box = sp.npix(nside) // n_boxes
    pattern = np.arange(per_box, dtype=float)
    f = frame.full_frame(nside, columns={"I": np.tile(pattern, n_boxes)})
    q, t = renyi_function(f, "I", 1.5, 6.0, 10, box_level)
    assert_allclose(t, math.log2(n_boxes) / box_level, rtol=1e-12)


def test_renyi_single_box_is_zero():
    # all mass inside box 1, zero elsewhere
    nside, box_level = 4, 1
    values = np.zeros(sp.npix(nside))
    values[sp.pixel_window(box_level, 2, 1) - 1] = 2.0
    f = frame.full_frame(nside, columns={"I": values})
    q, t = renyi_function(f, "I", 1.5, 4.0, 6, box_level)
    assert_allclose(t, 0.0, atol=1e-12)


def test_renyi_monotone_in_q():
    rng = np.random.default_rng(14)
    f = frame.full_frame(8, columns={"I": rng.uniform(0, 1, sp.npix(8))})
    q, t = renyi_function(f, "I", 1.01, 10.0, 25, 2)
    assert np.all(np.diff(t) <= 1e-12)


def test_renyi_handles_ring_frames():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1, sp.npix(8))
    nest = frame.full_frame(8, columns={"I": values})
    ring = nest.with_scheme("ring")
    q1, t1 = renyi_function(nest, "I", 1.5, 5.0, 8, 2)
    q2, t2 = renyi_function(ring, "I", 1.5, 5.0, 8, 2)
    assert_allclose(t1, t2, rtol=1e-12)


def _renyi_by_unique(f, box_level, q):
    """T(q) with box masses summed over ``np.unique``'s inverse."""
    j = f.nside.bit_length() - 1
    pix = f.pix if f.scheme == sp.NESTED else sp.ring2nest(f.nside, f.pix)
    values = f.column("I")
    _, inverse = np.unique((pix - 1) >> (2 * (j - box_level)),
                           return_inverse=True)
    masses = np.bincount(inverse, weights=values - values.min())
    mu = masses / masses.sum()
    mu = mu[mu > 0]
    return np.array([math.log2(float((mu ** qi).sum()))
                     / ((qi - 1) * -box_level) for qi in q])


@pytest.mark.parametrize("rows", [767, 768, 3000])
def test_renyi_box_sums_match_unique_on_both_sides_of_the_rule(rows):
    # nside 16: 12 * 4**3 = 768 boxes at level 3; a frame of 767 rows
    # sums them over np.unique, one of 768 with bincount.  Values repeat
    # their minimum, so some boxes hold zero mass, and keys repeat (hp)
    rng = np.random.default_rng(rows)
    pix = rng.integers(1, sp.npix(16) + 1, rows)
    values = np.round(rng.uniform(0, 3, rows)) * rng.uniform(1, 2, rows)
    for scheme in (sp.NESTED, sp.RING):
        f = frame.SkyFrame(pix, scheme, 16, {"I": values}, frame.HP)
        for box_level in (1, 2, 3, 4):
            q, t = renyi_function(f, "I", 1.01, 10.0, 20, box_level)
            assert np.array_equal(t, _renyi_by_unique(f, box_level, q))


def test_renyi_errors():
    f = frame.full_frame(4, columns={"I": np.zeros(sp.npix(4))})
    with pytest.raises(DomainError):
        renyi_function(f, "I", 1.5, 5.0, 8, 1)   # zero total mass
    g = frame.full_frame(4, columns={"I": np.ones(sp.npix(4))})
    with pytest.raises(DomainError):
        renyi_function(g, "I", 0.5, 2.0, 4, 1)   # grid would hit q = 1
    with pytest.raises(DomainError):
        renyi_function(g, "I", 1.5, 5.0, 8, 3)   # box level too deep


# ---------------------------------------------------------------------------
# q statistic

def test_qstat_single_stratum_is_zero():
    rng = np.random.default_rng(6)
    f = frame.full_frame(8, columns={"I": rng.normal(size=sp.npix(8))})
    q = q_statistic(f, "I", [geom.WindowSet(())])
    assert q == 0.0


def test_qstat_piecewise_constant_is_one():
    f = frame.full_frame(8)
    z = sp.pix2vec(8, f.pix, "nested")[:, 2]
    values = np.where(z > 0, 4.0, -1.0)
    g = frame.SkyFrame(f.pix, "nested", 8, {"I": values})
    north = geom.disc(0.0, 0.0, math.pi / 2 - 1e-9)
    south = geom.disc(math.pi, 0.0, math.pi / 2 - 1e-9)
    assert q_statistic(g, "I", [north, south]) == 1.0


def test_qstat_iid_two_strata_near_zero():
    rng = np.random.default_rng(123)
    f = frame.full_frame(32, columns={"I": rng.normal(size=sp.npix(32))})
    north = geom.disc(0.0, 0.0, math.pi / 2 - 1e-9)
    south = geom.disc(math.pi, 0.0, math.pi / 2 - 1e-9)
    q = q_statistic(f, "I", [north, south])
    assert 0 <= q < 0.05


def test_qstat_bounds_and_degenerate():
    f = frame.full_frame(4, columns={"I": np.ones(sp.npix(4))})
    assert math.isnan(q_statistic(f, "I", [geom.WindowSet(())]))


def test_qstat_errors():
    rng = np.random.default_rng(1)
    f = frame.full_frame(8, columns={"I": rng.normal(size=sp.npix(8))})
    empty = geom.WindowSet((geom.disc(0.0, 0.0, 0.01, complement=True),
                            geom.disc(0.0, 0.0, 0.005)))
    with pytest.raises(StratificationError):
        q_statistic(f, "I", [empty])
    overlapping = [geom.disc(0.0, 0.0, 1.0), geom.disc(0.0, 0.0, 0.5)]
    with pytest.raises(StratificationError):
        q_statistic(f, "I", overlapping)
    with pytest.raises(StratificationError):
        q_statistic(f, "I", [])


def test_qstat_repeated_key_within_one_stratum():
    # hp frame: three observations share pixel 1, all in the north cap
    theta = np.array([0.01, 0.012, 0.011, 3.0, 3.1])
    phi = np.array([0.1, 0.2, 0.3, 1.0, 2.0])
    pix = sp.ang2pix(4, theta, phi, sp.NESTED)
    assert len(np.unique(pix)) < len(pix)
    f = frame.SkyFrame(pix, sp.NESTED, 4, {"I": [1.0, 2.0, 3.0, 4.0, 6.0]},
                       mode=frame.HP, coords=(theta, phi))
    north, south = geom.disc(0.0, 0.0, 1.0), geom.disc(math.pi, 0.0, 1.0)
    q = q_statistic(f, "I", [north, south])
    within = 3 * np.var([1.0, 2.0, 3.0]) + 2 * np.var([4.0, 6.0])
    assert q == pytest.approx(1 - within / (5 * np.var([1, 2, 3, 4, 6.0])))
    # the same pixel in two strata names both
    with pytest.raises(StratificationError,
                       match=r"pixel %d \(strata 0 and 2\)" % pix[0]):
        q_statistic(f, "I", [north, south, geom.disc(0.0, 0.0, 0.05)])


def test_qstat_overlap_on_unsorted_cmb_keys_names_smallest_pixel():
    # a cmb frame in shuffled key order; strata 1 to 4 overlap in pairs,
    # three of them on the smallest shared pixel, and stratum 0 on none
    f = frame.full_frame(8, columns={"I": np.arange(768.0)})
    f = f.take(np.random.default_rng(4).permutation(len(f)))
    assert not np.all(np.diff(f.pix) > 0)
    strata = [geom.disc(math.pi, 0.0, 0.3), geom.disc(1.0, 1.2, 0.5),
              geom.disc(1.5, 0.8, 0.2), geom.disc(1.2, 0.5, 0.6),
              geom.disc(1.5, 1.0, 0.6)]
    held = [frame.extract_window(f, s).pix for s in strata]
    owners = {}
    for k, pix in enumerate(held):
        for p in pix.tolist():
            owners.setdefault(p, []).append(k)
    pixel = min(p for p, ks in owners.items() if len(ks) > 1)
    assert len(owners[pixel]) == 3
    a, b = owners[pixel][:2]
    with pytest.raises(StratificationError,
                       match=r"^strata overlap on pixel %d \(strata %d and %d\)$"
                       % (pixel, a, b)):
        q_statistic(f, "I", strata)


@pytest.mark.parametrize("scheme", ["nested", "ring"])
def test_qstat_memory_is_bounded(scheme):
    # two hemispheres over 2^17+ rows: the strata are row masks, not
    # sub-frames, and cmb keys are not sorted to prove them disjoint
    rng = np.random.default_rng(8)
    f = frame.full_frame(128, scheme, {"I": rng.standard_normal(12 * 128**2)})
    north = geom.disc(0.0, 0.0, math.pi / 2 - 1e-9)
    south = geom.disc(math.pi, 0.0, math.pi / 2 - 1e-9)
    tracemalloc.start()
    try:
        q = q_statistic(f, "I", [north, south])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 <= q < 0.01
    assert peak < 43 * len(f)


# ---------------------------------------------------------------------------
# QQ pairs

def test_qq_same_region_is_diagonal():
    rng = np.random.default_rng(2)
    f = frame.full_frame(8, columns={"I": rng.normal(size=sp.npix(8))})
    w = geom.disc(1.0, 1.0, 0.8)
    qa, qb = qq_pairs(f, "I", w, w, 25)
    assert_allclose(qa, qb)


def test_qq_shifted_region():
    # identical value sets north and south, shifted by c in the south
    f = frame.full_frame(8)
    z = sp.pix2vec(8, f.pix, "nested")[:, 2]
    rng = np.random.default_rng(31)
    c = 2.5
    keep = z != 0
    pix = f.pix[keep]
    zk = z[keep]
    half = np.sort(rng.normal(size=int((zk > 0).sum())))
    values = np.empty(pix.size)
    values[zk > 0] = half
    values[zk < 0] = half + c
    g = frame.SkyFrame(pix, "nested", 8, {"I": values})
    north = geom.disc(0.0, 0.0, math.pi / 2 - 1e-9)
    south = geom.disc(math.pi, 0.0, math.pi / 2 - 1e-9)
    qa, qb = qq_pairs(g, "I", north, south, 11)
    assert_allclose(qb - qa, c, atol=1e-9)


def test_qq_iid_regions_close():
    rng = np.random.default_rng(17)
    f = frame.full_frame(16, columns={"I": rng.normal(size=sp.npix(16))})
    a = geom.disc(1.0, 0.5, 0.9)
    b = geom.disc(2.0, 3.5, 0.9)
    qa, qb = qq_pairs(f, "I", a, b, 21)
    iqr = np.quantile(qa, 0.75) - np.quantile(qa, 0.25)
    inner = slice(2, -2)   # extremes of small samples wobble
    assert np.max(np.abs(qa[inner] - qb[inner])) < 0.5 * iqr


def test_qq_empty_region_raises():
    f = frame.full_frame(4, columns={"I": np.zeros(sp.npix(4))})
    empty = geom.WindowSet((geom.disc(0.0, 0.0, 0.01, complement=True),
                            geom.disc(0.0, 0.0, 0.005)))
    with pytest.raises(DomainError):
        qq_pairs(f, "I", empty, geom.WindowSet(()), 5)


# ---------------------------------------------------------------------------
# angular marginals

def test_marginals_constant_field():
    f = frame.full_frame(8, columns={"I": np.full(sp.npix(8), 1.5)})
    out = angular_marginals(f, "I", 10, 12)
    for axis in ("theta", "phi"):
        populated = out[axis]["count"] > 0
        assert_allclose(out[axis]["mean"][populated], 1.5)
    assert out["theta"]["count"].sum() == sp.npix(8)


def test_marginals_cosine_field_tracks_bin_centers():
    f = frame.full_frame(32)
    theta, _ = f.angles()
    g = frame.SkyFrame(f.pix, "nested", 32, {"I": np.cos(theta)})
    out = angular_marginals(g, "I", 12, 8)
    means = out["theta"]["mean"]
    centers = out["theta"]["centers"]
    assert np.all(np.diff(means) < 0)          # monotone decreasing
    assert_allclose(means, np.cos(centers), atol=0.05)


def test_marginals_empty_bins_flagged():
    f = frame.SkyFrame([1, 2], "nested", 8, {"I": [1.0, 2.0]})
    out = angular_marginals(f, "I", 18, 36)
    empties = out["theta"]["count"] == 0
    assert empties.any()
    assert np.all(np.isnan(out["theta"]["mean"][empties]))


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 30), st.integers(2, 30))
def test_marginals_counts_total(theta_bins, phi_bins):
    f = frame.full_frame(4, columns={"I": np.arange(float(sp.npix(4)))})
    out = angular_marginals(f, "I", theta_bins, phi_bins)
    assert out["theta"]["count"].sum() == sp.npix(4)
    assert out["phi"]["count"].sum() == sp.npix(4)


def _digitized(angles, nbins, top):
    """The bins of ``np.digitize`` on the ``linspace`` edges, clipped."""
    edges = np.linspace(0.0, top, nbins + 1)
    return np.clip(np.digitize(angles, edges) - 1, 0, nbins - 1)


@pytest.mark.parametrize("nbins", [1, 2, 3, 7, 18, 36, 100, 1000, 4096, 4097])
def test_marginal_bins_match_digitize_at_every_edge(nbins):
    # each row a distinct power of two, so a bin's sum names its rows
    for name, top in (("theta", math.pi), ("phi", 2 * math.pi)):
        edges = np.linspace(0.0, top, nbins + 1)
        angles = np.concatenate([edges, np.nextafter(edges, 0),
                                 np.nextafter(edges, 4.0), [top]])
        if name == "phi":
            angles = np.concatenate([angles, [-0.5, -1e-300, 7.0, 1e300,
                                              -1e300, 1e6 + 0.25]])
            theta, phi = np.full(angles.size, 1.0), angles
            reduced = np.where((phi < 0) | (phi >= top), phi % top, phi)
        else:
            angles = angles[angles <= math.pi]
            theta, phi = angles, np.full(angles.size, 1.0)
            reduced = angles
        for lo in range(0, angles.size, 60):
            sel = slice(lo, lo + 60)
            weights = 2.0 ** np.arange(angles[sel].size)
            f = frame.SkyFrame(np.ones(weights.size, dtype=np.int64),
                               sp.NESTED, 1, {"I": weights}, frame.HP,
                               coords=(theta[sel], phi[sel]))
            out = angular_marginals(f, "I", nbins, nbins)[name]
            bins = _digitized(reduced[sel], nbins, top)
            counts = np.bincount(bins, minlength=nbins)
            assert np.array_equal(out["count"], counts)
            means = np.divide(np.bincount(bins, weights, minlength=nbins),
                              counts, out=np.full(nbins, np.nan),
                              where=counts > 0)
            assert_array_equal(out["mean"], means)


def test_marginals_reduce_longitudes_outside_0_2pi():
    phi = np.array([-0.5, 2 * math.pi - 0.5, 7.0, 7.0 - 2 * math.pi])
    f = frame.assign_pixels(np.full(4, 1.0), phi, {"I": [1.0, 2.0, 4.0, 8.0]},
                            1)
    assert f.mode == frame.HP
    out = angular_marginals(f, "I", 18, 36)["phi"]
    assert np.flatnonzero(out["count"]).tolist() == [4, 33]
    assert out["count"][[4, 33]].tolist() == [2, 2]
    assert out["mean"][[4, 33]].tolist() == [6.0, 1.5]
