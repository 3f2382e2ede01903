"""Empirical covariance and variogram estimators over point pairs.

Pairs are binned by geodesic separation, from the chord rule of
``geom.geodesic_distance``, into equal-width bins on ``(0, max_dist]``:
only rows at one position sit at lag zero.  The covariance curve carries
an extra leading bin: bin 0 holds the zero-lag variance estimate (the
sample variance over all points), so ``bins=10`` yields 11 values.  The
variogram estimator is the classical

    gamma(h) = (1 / (2 N_h)) * sum over pairs at lag h of (Y1 - Y2)^2

and reports only the positive-lag bins.  The covariance subtracts the
global sample mean.

Pairs are found in one way: rows sorted by nested key fall in blocks that
are nested HEALPix cells, and only the pairs whose chord can put them in
range are binned, block pair by block pair; blocks of rows at one position
(lag zero) are not paired.  The rows are the whole frame when at most
``pair_budget`` (default ``PAIR_BUDGET``) pairs are in range, else a sample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .. import geom, healpix
from ..csvio import read_table, write_table
from ..errors import DomainError, FormatError
from ..frame import HP
from ..rng import sample_without_replacement

PAIR_BUDGET = 50_000_000
_BLOCK = 256       # a block is a nested cell of fewer rows, or a range


@dataclass
class EmpiricalCurve:
    """Binned lag estimates: bin-center lags, values, pair counts."""

    lags: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    max_dist: float
    bins: int

    def __post_init__(self):
        self.lags = np.asarray(self.lags, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if not 0 < self.max_dist <= math.pi + 1e-12:
            raise DomainError("max_dist must be in (0, pi]")
        if np.any(np.diff(self.lags) <= 0):
            raise DomainError("lags must be strictly increasing")
        if self.lags.size and self.lags.max() > self.max_dist + 1e-12:
            raise DomainError("lags must not exceed max_dist")
        if np.any(self.counts < 0):
            raise DomainError("counts must be >= 0")
        populated = self.counts > 0
        if not np.all(np.isfinite(self.values[populated])):
            raise DomainError("populated bins must hold finite values")

    def write_csv(self, path):
        write_table(path, ["lag", "value", "count"], [],
                    [self.lags, self.values, self.counts])

    @classmethod
    def read_csv(cls, path):
        def check_header(header):
            if header != ["lag", "value", "count"]:
                raise FormatError("curve CSV must have lag,value,count header")

        _, (lags, values, counts) = read_table(path, check_header, (),
                                               FormatError)
        pos = lags[lags > 0]
        if not pos.size:
            raise FormatError("curve CSV %s has no rows at a positive lag" % path)
        # equal-width bins: the first center sits half a bin above zero and
        # the last half a bin below max_dist
        return cls(lags, values, counts, float(pos[-1] + pos[0]), pos.size)


def _layout(frame, rows):
    """``rows`` of ``frame`` sorted by nested key, their unit vectors, their
    blocks (the coarsest nested cells of fewer than ``_BLOCK`` rows, fuller
    pixels cut every ``_BLOCK``), and each block's center, chord radius and
    shared position (NaN if none), taken from its rows, not its hp keys."""
    nest = (frame.pix[rows] if frame.scheme == healpix.NESTED
            else healpix.ring2nest(frame.nside, frame.pix[rows]))
    order = np.argsort(nest, kind="stable")
    rows, keys = rows[order], nest[order] - 1
    cells, starts = np.arange(12), []
    for shift in range(2 * frame.nside.bit_length() - 2, -1, -2):
        lo, hi = np.searchsorted(keys, [cells << shift, (cells + 1) << shift])
        split = (hi - lo >= _BLOCK) & (shift > 0)
        starts.append(lo[~split & (hi > lo)])
        cells = (4 * cells[split, None] + np.arange(4)).ravel()
    # the cells kept tile the sorted rows; a fuller pixel is cut every _BLOCK
    cut = _BLOCK + np.flatnonzero(keys[_BLOCK:] == keys[:-_BLOCK])
    starts.append(cut[(cut - np.searchsorted(keys, keys[cut])) % _BLOCK == 0])
    starts = np.sort(np.concatenate(starts))
    sizes = np.diff(starts, append=len(rows))
    pos = frame.positions(rows)
    centers = np.add.reduceat(pos, starts) / sizes[:, None]
    spread = sum((pos[:, k] - np.repeat(centers[:, k], sizes)) ** 2
                 for k in range(3))
    radii = np.sqrt(np.maximum.reduceat(spread, starts))
    low = np.minimum.reduceat(pos, starts)
    point = np.all(low == np.maximum.reduceat(pos, starts), axis=1)
    spots = np.where(point[:, None], low, np.nan)
    ranges = np.column_stack([starts, starts + sizes]).tolist()
    return rows, pos, ranges, centers, radii, spots


def _coincident_pairs(pos):
    """The number of row pairs of ``pos`` at one position: sorted by
    position, the rows fall in runs of c equal rows, each c(c-1)/2 pairs."""
    order = np.lexsort(pos.T)
    same = np.ones(len(order) - 1, dtype=bool)
    for coord in pos.T:
        coord = coord[order]
        same &= coord[1:] == coord[:-1]
    tied = np.flatnonzero(same)   # sorted row i + 1 equals row i
    starts = np.flatnonzero(np.diff(tied, prepend=-2) != 1)
    ties = np.diff(starts, append=tied.size)   # a run of k ties has k + 1 rows
    return int(np.sum(ties * (ties + 1) // 2))


def _pair_bounds(ranges, centers, radii, max_dist):
    """Bounds ``(lower, upper)`` on the row pairs within ``max_dist``, zero
    lags included: those of the block pairs whose centers are closer than
    the chord of ``max_dist``, narrowed or widened by a relative 1e-9 that
    rounding cannot cross, less or plus twice the largest block radius."""
    from scipy.spatial import cKDTree
    sizes = np.array([hi - lo for lo, hi in ranges], dtype=np.float64)
    rim = 2 * radii.max()
    chord = 2 * math.sin(max_dist / 2)
    near = (math.inf if max_dist >= math.pi   # every pair is in range
            else chord * (1 - 1e-9) - rim)
    tree = cKDTree(centers)
    # ordered block pairs, each block with itself too, so n of the row
    # pairs weighed in are a row with itself; scipy counts pairs at a
    # negative radius as at its absolute value, so none is passed
    ordered = tree.count_neighbors(
        tree, [max(near, 0.0), chord * (1 + 1e-9) + rim], weights=sizes)
    lower, upper = (int(w - sizes.sum()) // 2 for w in ordered)
    return (lower if near >= 0 else 0), upper


def _pairs_within(pos, ranges, centers, radii, spots, max_dist):
    """Yield ``(done, i, j)``: row arrays ``i``, ``j`` holding, once each,
    every pair of rows of ``pos`` whose chord may put it within
    ``max_dist``, one block pair (at most ``_BLOCK**2`` pairs) at a time,
    and the rows ``done`` of the blocks entered so far.  Two blocks whose
    rows all share one position (``spots``), or one such block with itself,
    hold only pairs at lag zero and are not paired."""
    from scipy.spatial import cKDTree
    chord = 2 * math.sin(max_dist / 2) * (1 + 1e-9)
    trees = [cKDTree(pos[lo:hi]) for lo, hi in ranges]
    for a, (lo, hi) in enumerate(ranges):
        gap = np.linalg.norm(centers[a:] - centers[a], axis=1)
        near = gap - radii[a] - radii[a:] <= chord
        near &= ~np.all(spots[a:] == spots[a], axis=1)   # NaN never equal
        for b in a + np.flatnonzero(near):
            m = trees[a].sparse_distance_matrix(trees[b], chord,
                                                output_type="ndarray")
            i, j = m["i"], m["j"]
            if a == b:
                upper = j > i
                i, j = i[upper], j[upper]
            yield hi, lo + i, ranges[b][0] + j


def _pair_bins(frame, column, max_dist, bins, pair_budget, seed, mode):
    """Accumulate per-bin pair sums; mode 'cov' sums a_i*a_j of centered
    values, mode 'vario' sums squared differences.  Returns the field, the
    sums, the pair counts binned and their scale to the pair population.

    Every pair in range of a row set is binned: the whole frame when at
    most ``pair_budget`` pairs are in range, otherwise the seeded sample
    of s rows that ``frame.sample_frame`` would draw, with counts scaled by
    n(n-1)/(s(s-1)).  The field is centered over all n rows.  When the
    bounds on the pairs in range put them surely over the budget, s starts
    at n * sqrt(budget / upper bound) without trying the whole frame."""
    if not 0 < max_dist <= math.pi:
        raise DomainError("max_dist must be in (0, pi]")
    if bins < 1:
        raise DomainError("bins must be >= 1")
    if pair_budget < 1:
        raise DomainError("pair_budget must be >= 1")
    values = np.asarray(frame.column(column), dtype=np.float64)
    n = len(values)
    if n < 2:
        raise DomainError("need at least two rows")
    width = max_dist / bins
    field = values - values.mean() if mode == "cov" else values
    sums, counts = np.zeros(bins), np.zeros(bins)

    # Pairs are found on rows in nested-key order, each block a slice.
    rows, pos, ranges, centers, radii, spots = _layout(frame, np.arange(n))
    lower, upper = _pair_bounds(ranges, centers, radii, max_dist)
    if lower > pair_budget and frame.mode == HP:
        # rows at one position sit at lag zero, outside every bin; those of
        # a cmb frame are distinct pixel centers
        lower -= _coincident_pairs(pos)
    s = n
    if lower > pair_budget:
        s = max(2, int(n * math.sqrt(pair_budget / upper)))
    while True:
        if s < n:
            rows, pos, ranges, centers, radii, spots = _layout(
                frame, sample_without_replacement(n, s, seed) - 1)
        fld, binned = field[rows], 0
        for done, a, b in _pairs_within(pos, ranges, centers, radii, spots,
                                        max_dist):
            d = geom.geodesic_distance(pos.take(a, axis=0),
                                       pos.take(b, axis=0))
            inside = (d > 0) & (d <= max_dist)
            if not inside.all():
                a, b, d = a[inside], b[inside], d[inside]
            binned += len(d)
            if binned > pair_budget:
                break
            fa, fb = fld.take(a), fld.take(b)
            prod = fa * fb if mode == "cov" else (fa - fb) ** 2
            idx = np.ceil(d / width).astype(np.int64) - 1   # >= 0 as d > 0
            np.minimum(idx, bins - 1, out=idx)
            sums += np.bincount(idx, prod, bins)
            counts += np.bincount(idx, minlength=bins)
        else:
            return field, sums, counts, n * (n - 1) / (s * (s - 1))
        # over the budget: shrink s by the square root of the budget over
        # the pairs this attempt was heading for, and draw the rows anew
        sums[:] = counts[:] = 0.0
        s = max(2, int(math.sqrt(s * pair_budget * done / binned)))


def empirical_covariance(frame, column, max_dist, bins, pair_budget=PAIR_BUDGET,
                         seed=0):
    """Binned covariance estimate; ``bins + 1`` values, bin 0 at lag zero."""
    centered, sums, counts, scale = _pair_bins(
        frame, column, max_dist, bins, pair_budget, seed, "cov")
    est = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    var0 = float(np.mean(centered ** 2))
    lags = np.concatenate([[0.0], (np.arange(1, bins + 1) - 0.5)
                           * (max_dist / bins)])
    out_values = np.concatenate([[var0], est])
    out_counts = np.concatenate([[len(centered)], counts * scale])
    return EmpiricalCurve(lags, out_values, out_counts, max_dist, bins)


def empirical_variogram(frame, column, max_dist, bins, pair_budget=PAIR_BUDGET,
                        seed=0):
    """Classical variogram estimate over the positive-lag bins."""
    _, sums, counts, scale = _pair_bins(
        frame, column, max_dist, bins, pair_budget, seed, "vario")
    est = np.where(counts > 0, sums / (2.0 * np.maximum(counts, 1)), np.nan)
    lags = (np.arange(1, bins + 1) - 0.5) * (max_dist / bins)
    return EmpiricalCurve(lags, est, counts * scale, max_dist, bins)
