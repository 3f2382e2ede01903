import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import skypix as sp
from skypix import frame
from skypix.errors import DomainError, FormatError
from skypix.geostat import (EmpiricalCurve, empirical,
                            empirical_covariance, empirical_variogram)
from skypix.rng import sample_without_replacement


def brute_curves(xyz, values, max_dist, bins):
    """Direct per-pair evaluation of both binned estimators; the lag of a
    pair is ``sp.geodesic_distance`` of its rows, as specified."""
    n = len(values)
    width = max_dist / bins
    centered = values - values.mean()
    cov_sum = np.zeros(bins)
    var_sum = np.zeros(bins)
    counts = np.zeros(bins)
    iu, ju = np.triu_indices(n, k=1)
    lags = sp.geodesic_distance(xyz[iu], xyz[ju])
    keep = (lags > 0) & (lags <= max_dist)
    for i, j, d in zip(iu[keep], ju[keep], lags[keep]):
        b = min(bins - 1, int(math.ceil(d / width)) - 1)
        cov_sum[b] += centered[i] * centered[j]
        var_sum[b] += (values[i] - values[j]) ** 2
        counts[b] += 1
    with np.errstate(invalid="ignore"):
        cov = np.where(counts > 0, cov_sum / np.maximum(counts, 1), np.nan)
        var = np.where(counts > 0, var_sum / (2 * np.maximum(counts, 1)), np.nan)
    return cov, var, counts


def edge_frame():
    """Six points on the equator, as explicit coordinates."""
    phi = np.array([0.0, 0.3, 0.6, 1.7, 2.9, 0.45])
    theta = np.full(phi.size, math.pi / 2)
    values = np.array([0.5, -1.0, 2.0, 0.25, 1.5, -0.75])
    pix = sp.ang2pix(4, theta, phi, sp.NESTED)
    return frame.SkyFrame(pix, sp.NESTED, 4, {"I": values}, mode=frame.HP,
                          coords=(theta, phi))


def pair_lag(f, i, j):
    xyz = f.positions()
    return float(sp.geodesic_distance(xyz[i], xyz[j]))


@pytest.fixture
def random_frame():
    f = frame.full_frame(4)
    rng = np.random.default_rng(8)
    return frame.SkyFrame(f.pix[:100], f.scheme, 4,
                          {"I": rng.normal(size=100)})


def edge_cases():
    """(frame, max_dist, bins): a pair at exactly max_dist, just beyond
    it, and exactly on the edge between bins 0 and 1."""
    f = edge_frame()
    at_max = pair_lag(f, 0, 2)
    return [(f, at_max, 4), (f, np.nextafter(at_max, 0.0), 4),
            (f, 2 * pair_lag(f, 0, 1), 2)]


def ring_frame():
    """300 rows of an nside-8 map keyed in RING order."""
    rng = np.random.default_rng(9)
    f = frame.full_frame(8, sp.RING, {"I": rng.normal(size=sp.npix(8))})
    return f.take(rng.permutation(sp.npix(8))[:300])


def one_key_frame():
    """600 hp rows all keyed by one nside-8 pixel, their coordinates spread
    over the whole sphere."""
    rng = np.random.default_rng(10)
    theta, phi = np.arccos(rng.uniform(-1, 1, 600)), rng.uniform(0, 7, 600)
    return frame.SkyFrame(np.full(600, 77), sp.NESTED, 8,
                          {"I": rng.normal(size=600)}, mode=frame.HP,
                          coords=(theta, phi))


def clustered_frame():
    """2,000 hp rows keyed at nside 64: 1,800 in a cluster of 0.01 rad
    about the center of one nside-4 cell, and 200 uniform.  A trend in
    theta keeps each covariance bin's mean of products well away from zero,
    where summation order alone moves it by more than 1e-12 relative."""
    rng = np.random.default_rng(11)
    theta0, phi0 = sp.pix2ang(4, 70, sp.NESTED)
    theta = np.concatenate([rng.normal(theta0, 0.01, 1800),
                            np.arccos(rng.uniform(-1, 1, 200))])
    phi = np.concatenate([rng.normal(phi0, 0.01, 1800),
                          rng.uniform(0, 2 * math.pi, 200)])
    values = 5 * np.cos(theta) + rng.normal(size=2000)
    f = frame.assign_pixels(theta, phi, {"I": values}, 64)
    assert f.mode == frame.HP
    assert np.bincount((f.pix - 1) >> 8).max() > 1500   # nside-4 cells
    return f


def test_estimators_match_brute_force(random_frame):
    cases = [(random_frame, 2.0, 7), (random_frame, 0.4, 5),
             (random_frame, math.pi, 9)] + edge_cases() + [
        (ring_frame(), 0.5, 6), (one_key_frame(), 0.3, 5),
        (clustered_frame(), 0.008, 5)]
    for f, max_dist, bins in cases:
        cov = empirical_covariance(f, "I", max_dist, bins)
        var = empirical_variogram(f, "I", max_dist, bins)
        xyz = f.positions()
        bcov, bvar, bcounts = brute_curves(xyz, f.columns["I"], max_dist,
                                           bins)
        assert_allclose(cov.values[1:], bcov, rtol=1e-12)
        assert_allclose(var.values, bvar, rtol=1e-12)
        assert_array_equal(cov.counts[1:], bcounts)
        assert_array_equal(var.counts, bcounts)
        # the bounds on the pairs in range, zero lags included
        _, _, ranges, centers, radii, _ = empirical._layout(
            f, np.arange(len(f)))
        lower, upper = empirical._pair_bounds(ranges, centers, radii,
                                              max_dist)
        iu, ju = np.triu_indices(len(f), k=1)
        within = np.sum(sp.geodesic_distance(xyz[iu], xyz[ju]) <= max_dist)
        assert lower <= within <= upper


def test_pair_at_max_dist_and_on_bin_edge_placement():
    (f, at_max, _), (_, below, _), (_, edge, _) = edge_cases()
    # (0, 2) at exactly max_dist counts, in the last bin; just beyond, not
    pair = f.take([0, 2])
    assert_array_equal(empirical_variogram(pair, "I", at_max, 4).counts,
                       [0, 0, 0, 1])
    assert_array_equal(empirical_variogram(pair, "I", below, 4).counts,
                       [0, 0, 0, 0])
    # (0, 1) on the edge between bins 0 and 1 falls in the lower bin
    assert pair_lag(f, 0, 1) == edge / 2
    assert_array_equal(empirical_variogram(f.take([0, 1]), "I", edge, 2).counts,
                       [1, 0])


def test_covariance_has_bins_plus_one_values(random_frame):
    cov = empirical_covariance(random_frame, "I", 0.5, 10)
    assert cov.values.size == 11
    assert cov.lags[0] == 0.0
    v = random_frame.columns["I"]
    assert_allclose(cov.values[0], ((v - v.mean()) ** 2).mean())
    assert cov.counts[0] == len(v)


def test_variogram_has_bins_values(random_frame):
    var = empirical_variogram(random_frame, "I", 0.5, 10)
    assert var.values.size == 10
    assert var.lags[0] == 0.025


def test_constant_field_gives_zero():
    f = frame.SkyFrame(np.arange(1, 101), "nested", 4,
                       {"I": np.full(100, 3.25)})
    cov = empirical_covariance(f, "I", 1.0, 5)
    var = empirical_variogram(f, "I", 1.0, 5)
    assert_allclose(cov.values[cov.counts > 0], 0.0, atol=1e-30)
    assert_allclose(var.values[var.counts > 0], 0.0, atol=1e-30)


def test_two_cap_field_cross_bins():
    # +c on a north polar cap, -c on the south cap: far bins pair points
    # across the caps only, so the estimator sits at exactly 2c^2 there
    c = 1.5
    f = frame.full_frame(8)
    z = sp.pix2vec(8, f.pix, "nested")[:, 2]
    caps = np.abs(z) > math.cos(0.3)
    g = frame.SkyFrame(f.pix[caps], f.scheme, 8,
                       {"I": np.where(z[caps] > 0, c, -c)})
    var = empirical_variogram(g, "I", math.pi, 6)
    cross_only = var.lags > 0.7
    populated = cross_only & (var.counts > 0)
    assert populated.any()
    assert_allclose(var.values[populated], 2 * c * c, rtol=1e-12)
    # short-lag bins pair same-cap points only: constant field, zero
    assert_allclose(var.values[0], 0.0, atol=1e-30)


def test_white_noise_covariance_near_zero():
    rng = np.random.default_rng(12)
    f = frame.full_frame(16, columns={"I": rng.normal(size=sp.npix(16))})
    cov = empirical_covariance(f, "I", math.pi, 8)
    se = 1.0 / np.sqrt(cov.counts[1:])
    assert np.all(np.abs(cov.values[1:]) < 3 * se)


def test_variogram_covariance_identity_on_noise():
    rng = np.random.default_rng(21)
    f = frame.full_frame(8, columns={"I": rng.normal(size=sp.npix(8))})
    cov = empirical_covariance(f, "I", math.pi, 6)
    var = empirical_variogram(f, "I", math.pi, 6)
    gap = var.values + cov.values[1:] - cov.values[0]
    se = 3.0 / np.sqrt(cov.counts[1:])
    assert np.all(np.abs(gap) < 3 * se)


def test_pair_subsampling_close_to_exact():
    rng = np.random.default_rng(5)
    f = frame.full_frame(8, columns={"I": rng.normal(size=sp.npix(8))})
    exact = empirical_variogram(f, "I", 2.0, 4)
    sub = empirical_variogram(f, "I", 2.0, 4, pair_budget=40000, seed=3)
    assert_allclose(sub.counts.sum(), exact.counts.sum(), rtol=0.05)
    assert_allclose(sub.values, exact.values, rtol=0.2)
    again = empirical_variogram(f, "I", 2.0, 4, pair_budget=40000, seed=3)
    assert_array_equal(sub.values, again.values)


def test_pair_budget_counts_pairs_in_range():
    # 768 rows make 294,528 pairs, of which only a few thousand lie within
    # 0.2 rad: a budget between the two keeps the estimate exact
    rng = np.random.default_rng(6)
    f = frame.full_frame(8, columns={"I": rng.normal(size=sp.npix(8))})
    exact = empirical_variogram(f, "I", 0.2, 4)
    in_range = int(exact.counts.sum())
    assert 0 < in_range < len(f) * (len(f) - 1) // 2 // 10
    at_budget = empirical_variogram(f, "I", 0.2, 4, pair_budget=in_range)
    assert_array_equal(at_budget.counts, exact.counts)
    assert_allclose(at_budget.values, exact.values, rtol=1e-12)
    over = empirical_variogram(f, "I", 0.2, 4, pair_budget=in_range - 1)
    assert not np.array_equal(over.counts, exact.counts)


def test_coincident_rows_do_not_count_towards_budget():
    # 1200 observations at one position and three elsewhere: 720k pairs lie
    # at lag zero, outside every bin, and only 3,603 pairs are in range
    theta = np.concatenate([np.full(1200, math.pi / 2), [1.0, 2.0, 2.5]])
    phi = np.concatenate([np.zeros(1200), [0.2, 3.0, 5.0]])
    pix = sp.ang2pix(4, theta, phi, sp.NESTED)
    f = frame.SkyFrame(pix, sp.NESTED, 4, {"I": np.arange(1203.0)},
                       mode=frame.HP, coords=(theta, phi))
    assert pair_lag(f, 0, 1) == 0.0
    exact = empirical_variogram(f, "I", math.pi, 6)
    assert exact.counts.sum() == 1200 * 3 + 3
    budgeted = empirical_variogram(f, "I", math.pi, 6, pair_budget=3603)
    assert_array_equal(budgeted.counts, exact.counts)


def test_coincident_pairs_match_brute_force():
    # runs of equal rows among distinct ones, with zeros of either sign,
    # which sit at one position
    rng = np.random.default_rng(19)
    for _ in range(50):
        spots = rng.normal(size=(rng.integers(1, 6), 3))
        spots[rng.random(spots.shape) < 0.3] = 0.0
        pos = spots[rng.integers(0, len(spots), rng.integers(2, 40))]
        pos[(pos == 0) & (rng.random(pos.shape) < 0.5)] = -0.0
        iu, ju = np.triu_indices(len(pos), k=1)
        expect = int(np.all(pos[iu] == pos[ju], axis=1).sum())
        assert empirical._coincident_pairs(pos) == expect


@pytest.mark.parametrize("level", [24, 27, 29])
def test_adjacent_deep_centers_make_one_pair(level):
    # the centers of a nested pixel near (1.3, 0.7) and of its north
    # neighbour, 8.2e-8 to 2.6e-9 rad apart, are a pair in range of twice
    # their chord
    nside = 2 ** level
    p = sp.ang2pix(nside, 1.3, 0.7, sp.NESTED)
    pix = np.array([p, sp.neighbours_index(nside, p)[3]])
    a, b = sp.pix2vec(nside, pix, sp.NESTED)
    f = frame.SkyFrame(pix, sp.NESTED, nside, {"I": np.array([0.0, 1.0])})
    curve = empirical_variogram(f, "I", 2 * np.linalg.norm(a - b), 1)
    assert curve.counts.tolist() == [1.0]
    assert curve.values.tolist() == [0.5]


def test_coincident_rows_sit_at_lag_zero_in_any_direction():
    # two clusters of 30 coincident rows in random directions: rows at one
    # position have a chord of exactly 0, so only the 900 cross-cluster
    # pairs may land in a bin, on both pair paths
    rng = np.random.default_rng(185)
    for _ in range(20):
        theta = np.repeat(rng.uniform(0.1, math.pi - 0.1, 2), 30)
        phi = np.repeat(rng.uniform(0, 2 * math.pi, 2), 30)
        pix = sp.ang2pix(4, theta, phi, sp.NESTED)
        f = frame.SkyFrame(pix, sp.NESTED, 4, {"I": rng.normal(size=60)},
                           mode=frame.HP, coords=(theta, phi))
        cross = pair_lag(f, 0, 30)
        bin_cross = math.ceil(cross / (math.pi / 60)) - 1
        exact = empirical_variogram(f, "I", math.pi, 60)
        assert np.flatnonzero(exact.counts).tolist() == [bin_cross]
        assert exact.counts.sum() == 900
        sampled = empirical_variogram(f, "I", math.pi, 60, pair_budget=100)
        assert np.flatnonzero(sampled.counts).tolist() == [bin_cross]


def test_blocks_of_one_position_are_not_paired(monkeypatch):
    # 3,000 rows at one pixel center fill 12 blocks whose 4.5M pairs all
    # sit at lag zero; only the pairs with the 3 other rows are enumerated
    yielded, pairs_within = [], empirical._pairs_within

    def spy(*args):
        for done, i, j in pairs_within(*args):
            yielded.append(len(i))
            yield done, i, j

    pix = np.concatenate([np.full(3000, 100), [5, 300, 700]])
    values = np.random.default_rng(18).normal(size=pix.size)
    f = frame.SkyFrame(pix, sp.NESTED, 8, {"I": values}, mode=frame.HP)
    monkeypatch.setattr(empirical, "_pairs_within", spy)
    vario = empirical_variogram(f, "I", math.pi, 6)
    assert sum(yielded) < 100_000
    _, var, counts = brute_curves(f.positions(), values, math.pi, 6)
    assert_array_equal(vario.counts, counts)
    assert_allclose(vario.values, var, rtol=1e-12)


# sha256 of (values, counts) of both curves on sampled_frame() at max_dist
# pi, 12 bins, a budget of 3 * 2**20 + 1 pairs and seed 7, as recorded when
# the sampled path binned every pair of a seeded row subsample, with lags
# from the chord rule of sp.geodesic_distance
SAMPLED_SHA256 = {
    "empirical_variogram": (
        "c84b86385a2828400a62a2681eab677b619d75fdb678186855fefc5bf80a9b7b",
        "4c3610033f073ecce6a1e568aa6dcab05a46d335bb37469be32f3bbaf16fee62"),
    "empirical_covariance": (
        "4eec626996e1b02af793e5b5ee00cc21fb5772669897c81662d9ba2aab774b84",
        "3988a3e6d2743843dc23f32968718eb9814701785116aa45a541d04aedd58860"),
}


def sampled_frame(nside=16):
    rng = np.random.default_rng(21)
    return frame.full_frame(nside,
                            columns={"I": rng.normal(size=sp.npix(nside))})


@pytest.mark.parametrize("estimator", [empirical_variogram,
                                       empirical_covariance])
def test_sampled_curves_are_pinned(estimator):
    # 3,072 rows make 4.7M pairs in range, over the budget: the pairs of a
    # seeded row subsample stand in, and must not move a single bit
    curve = estimator(sampled_frame(), "I", math.pi, 12,
                      pair_budget=3 * 2**20 + 1, seed=7)
    assert (hashlib.sha256(curve.values.tobytes()).hexdigest(),
            hashlib.sha256(curve.counts.tobytes()).hexdigest()) == \
        SAMPLED_SHA256[estimator.__name__]


def test_sampled_path_memory_is_bounded():
    # 8M pairs of a row subsample, binned a block pair at a time: the
    # whole estimate stays well under 64 MB
    f = sampled_frame(32)
    tracemalloc.start()
    try:
        curve = empirical_variogram(f, "I", math.pi, 12,
                                    pair_budget=8_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # counts rescaled from a subsample: the sampled path ran
    assert not np.array_equal(curve.counts, np.round(curve.counts))
    assert peak < 64 * 2**20


@pytest.mark.parametrize("estimator", [empirical_variogram,
                                       empirical_covariance])
def test_pair_budget_below_one_raises(estimator):
    f = frame.full_frame(2, columns={"I": np.arange(48.0)})
    for budget in (0, -5):
        with pytest.raises(DomainError, match="pair_budget"):
            estimator(f, "I", math.pi, 4, pair_budget=budget)


def test_pair_budget_of_one_bins_one_pair_of_two_rows():
    # 1,128 pairs of 48 rows are in range at pi: a budget of 1 leaves two
    # sampled rows, whose one pair stands for all of them
    values = np.arange(48.0)
    f = frame.full_frame(2, columns={"I": values})
    i, j = sample_without_replacement(48, 2, 0) - 1
    vario = empirical_variogram(f, "I", math.pi, 4, pair_budget=1)
    assert_array_equal(vario.counts, [1128, 0, 0, 0])
    assert vario.values[0] == (values[i] - values[j]) ** 2 / 2
    cov = empirical_covariance(f, "I", math.pi, 4, pair_budget=1)
    assert_array_equal(cov.counts, [48, 1128, 0, 0, 0])
    # centered over all 48 rows, not over the two sampled
    centered = values - values.mean()
    assert cov.values[0] == np.var(values)
    assert cov.values[1] == centered[i] * centered[j]
    assert np.all(np.isnan(cov.values[2:]))


@pytest.mark.parametrize("budget, first_rows", [
    (1_000_000, "sample"), (3_000_000, "whole")],
    ids=["bound-over-budget", "attempt-over-budget"])
def test_sampled_variogram_within_noise_of_exact(monkeypatch, budget,
                                                 first_rows):
    # 10.1M of the pairs of 12,288 rows lie within 0.75 rad.  Their lower
    # bound (2.16M, from 192 blocks of 64) is over the first budget,
    # so a subsample is drawn at once; it is under the second, so the whole
    # frame is tried first.  A bin of m pairs among s rows of unit white
    # noise has a standard deviation of about sqrt(2/m + 2/s) about the
    # exact one, from its pairs and from its rows; six of them are allowed.
    rows, pairs_within = [], empirical._pairs_within

    def spy(pos, *args):
        rows.append(len(pos))
        return pairs_within(pos, *args)

    f = sampled_frame(32)
    n = len(f)
    exact = empirical_variogram(f, "I", 0.75, 5)
    assert exact.counts.sum() > budget
    monkeypatch.setattr(empirical, "_pairs_within", spy)
    sub = empirical_variogram(f, "I", 0.75, 5, pair_budget=budget, seed=4)
    assert (rows[0] == n) == (first_rows == "whole")
    s = rows[-1]
    assert 2 < s < n
    pairs = np.round(sub.counts * s * (s - 1) / (n * (n - 1)))
    assert 0 < pairs.sum() <= budget
    assert_allclose(pairs * n * (n - 1) / (s * (s - 1)), sub.counts)
    bound = 6 * np.sqrt(2 / pairs + 2 / s)
    assert np.all(np.abs(sub.values - exact.values) <= bound)


def test_empty_bins_flagged():
    # two tight clusters: middle bins hold no pairs
    f = frame.SkyFrame([1, 2, 190, 191], "nested", 4,
                       {"I": [1.0, 2.0, 3.0, 4.0]})
    cov = empirical_covariance(f, "I", math.pi, 8)
    assert np.any(cov.counts[1:] == 0)
    assert np.all(np.isnan(cov.values[1:][cov.counts[1:] == 0]))


def test_argument_validation(random_frame):
    with pytest.raises(DomainError):
        empirical_covariance(random_frame, "I", 0.0, 5)
    with pytest.raises(DomainError):
        empirical_covariance(random_frame, "I", 4.0, 5)
    with pytest.raises(DomainError):
        empirical_covariance(random_frame, "I", 1.0, 0)
    one = frame.SkyFrame([1], "nested", 4, {"I": [1.0]})
    with pytest.raises(DomainError):
        empirical_variogram(one, "I", 1.0, 5)


def test_curve_csv_round_trip(tmp_path, random_frame):
    path = tmp_path / "curve.csv"
    for estimator in (empirical_covariance, empirical_variogram):
        for max_dist, bins in [(1.0, 12), (0.3, 6), (math.pi, 30)]:
            cov = estimator(random_frame, "I", max_dist, bins)
            cov.write_csv(path)
            back = EmpiricalCurve.read_csv(path)
            assert_allclose(back.lags, cov.lags)
            assert np.array_equal(np.isnan(back.values), np.isnan(cov.values))
            ok = ~np.isnan(cov.values)
            assert_allclose(back.values[ok], cov.values[ok])
            assert_array_equal(back.counts, cov.counts)
            # the file holds bin centers; max_dist comes back from them
            assert abs(back.max_dist - max_dist) <= 1e-12
            assert back.bins == bins


def test_curve_csv_rejects_bad_header_cells_and_no_rows(tmp_path):
    path = tmp_path / "curve.csv"
    for text, match in [("lag,value\n0.1,1.0\n", "header"),
                        ("lag,value,count\n0.1,1.0,2x\n", "curve.csv"),
                        ("lag,value,count\n0.1,1.0\n", "curve.csv"),
                        ("lag,value,count\n", "no rows")]:
        path.write_text(text)
        with pytest.raises(FormatError, match=match):
            EmpiricalCurve.read_csv(path)


def test_curve_validation():
    with pytest.raises(DomainError):
        EmpiricalCurve([0.2, 0.1], [1.0, 1.0], [1.0, 1.0], 0.3, 2)
    with pytest.raises(DomainError):
        EmpiricalCurve([0.1, 0.2], [1.0, np.nan], [1.0, 5.0], 0.3, 2)
    with pytest.raises(DomainError):
        EmpiricalCurve([0.1, 0.2], [1.0, 1.0], [1.0, -1.0], 0.3, 2)
