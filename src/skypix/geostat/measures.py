"""Descriptive statistics on sky frames: entropy, excursion area, sample
Renyi function, stratified-heterogeneity q-statistic, QQ pairs and angular
marginals.

Conventions fixed here (the underlying definitions leave them open):
entropy uses equal-width bins spanning the observed range, defaulting to
the Sturges count; the Renyi box scale is ``2**(-box_level)`` because the
pixel linear scale halves per nesting level.
"""

import math

import numpy as np

from .. import healpix
from ..errors import DomainError, StratificationError
from ..frame import CMB, window_mask

__all__ = ["entropy", "first_minkowski", "renyi_function", "q_statistic",
           "qq_pairs", "angular_marginals"]


def entropy(frame, column, bin_count=None):
    """Histogram entropy of a column, in bits.

    Equal-width bins span [min, max]; empty bins drop out of the sum.  A
    constant column has zero entropy; the maximum is log2(bin_count),
    reached exactly at uniform occupancy.
    """
    values = np.asarray(frame.column(column), dtype=np.float64)
    if values.size == 0:
        raise DomainError("entropy of an empty frame")
    if bin_count is None:
        bin_count = int(math.ceil(1 + math.log2(values.size)))
    if bin_count < 1:
        raise DomainError("bin_count must be >= 1")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return 0.0
    counts, _ = np.histogram(values, bins=bin_count, range=(lo, hi))
    p = counts[counts > 0] / values.size
    return float(-(p * np.log2(p)).sum())


def first_minkowski(frame, column, alpha):
    """Area of the excursion region where the column exceeds ``alpha``."""
    values = np.asarray(frame.column(column), dtype=np.float64)
    above = int((values > alpha).sum())
    return above * healpix.pixel_area(frame.nside)


def renyi_function(frame, column, q_min=1.01, q_max=10.0, n_points=20,
                   box_level=1):
    """Sample Renyi function T(q) on a uniform q grid.

    The frame's pixels aggregate into their nesting-level ``box_level``
    ancestors (boxes of linear scale ``2**-box_level``); the measure is the
    column shifted to be non-negative, normalized to box masses mu_j.  Then

        T(q) = log2(sum_j mu_j**q) / ((q - 1) * log2(2**-box_level)).

    Returns ``(q, T)`` arrays.  Uniform mass over n boxes gives the
    constant log2(n)/box_level; a single massive box gives 0.

    Box masses are summed with ``np.bincount`` on the box indices when the
    frame has at least ``12 * 4**box_level`` rows (one per box), else on
    ``np.unique``'s inverse; both give the same masses, so the same T(q).
    """
    if n_points < 2:
        raise DomainError("n_points must be >= 2")
    q = np.linspace(q_min, q_max, n_points)
    if np.any(q == 1.0):
        raise DomainError("q = 1 is excluded from the grid")
    j = frame.nside.bit_length() - 1
    if not 1 <= box_level <= j:
        raise DomainError("box_level must be in 1..%d for nside=%d"
                          % (j, frame.nside))
    values = np.asarray(frame.column(column), dtype=np.float64)
    if values.size == 0:
        raise DomainError("empty frame")
    pix = frame.nested_pix()
    boxes = (pix - 1) >> (2 * (j - box_level))
    if 12 * 4 ** box_level > len(pix):   # more boxes than rows
        boxes = np.unique(boxes, return_inverse=True)[1]
    masses = np.bincount(boxes, values - values.min())[np.bincount(boxes) > 0]
    total = masses.sum()
    if total <= 0:
        raise DomainError("degenerate measure: total mass is zero")
    mu = masses / total
    mu = mu[mu > 0]
    t = np.array([math.log2(float((mu ** qi).sum())) / ((qi - 1) * -box_level)
                  for qi in q])
    return q, t


def q_statistic(frame, column, strata):
    """Spatial stratified heterogeneity in [0, 1]:
    ``1 - sum_h N_h var_h / (N var)`` over the union of the strata.

    Strata must be non-empty and pairwise disjoint on the frame's pixels.
    Strata are row masks (:func:`~skypix.frame.window_mask`), not sub-frames.
    Returns NaN when the union has zero variance.
    """
    if not strata:
        raise StratificationError("no strata given")
    masks = [window_mask(frame, region) for region in strata]
    for k, mask in enumerate(masks):
        if not mask.any():
            raise StratificationError("stratum %d holds no pixels" % k)
    shared = _shared_pixel(frame, masks)
    if shared:
        raise StratificationError(
            "strata overlap on pixel %d (strata %d and %d)" % shared)
    col = np.asarray(frame.column(column), dtype=np.float64)
    values = [col[mask] for mask in masks]
    pooled = np.concatenate(values)
    total_var = pooled.var()
    if total_var == 0:
        return float("nan")
    within = sum(v.size * v.var() for v in values)
    return float(1.0 - within / (pooled.size * total_var))


def _shared_pixel(frame, masks):
    """``(pixel, a, b)``: the smallest pixel two strata share and the first
    two strata holding it, or None.  A cmb frame's keys are unique, so a
    shared pixel is a row two masks hold; an hp frame's key may repeat
    within one stratum, so each stratum's distinct keys are compared."""
    if frame.mode == CMB:
        seen, shared = np.zeros((2, len(frame)), dtype=bool)
        for mask in masks:
            shared |= seen & mask
            seen |= mask
        shared = frame.pix[shared]
    else:
        keys = np.sort(np.concatenate([np.unique(frame.pix[m])
                                       for m in masks]))
        shared = keys[1:][keys[1:] == keys[:-1]]
    if not shared.size:
        return None
    pixel = shared.min()
    a, b = [k for k, m in enumerate(masks) if pixel in frame.pix[m]][:2]
    return pixel, a, b


def qq_pairs(frame, column, region_a, region_b, n_quantiles=99):
    """Matched quantiles of a column in two regions (type-7 interpolation).

    Identical distributions put the pairs on the diagonal; a constant shift
    c moves them onto y = x + c.
    """
    if n_quantiles < 2:
        raise DomainError("n_quantiles must be >= 2")
    masks = [window_mask(frame, region) for region in (region_a, region_b)]
    if not all(mask.any() for mask in masks):
        raise DomainError("both regions must hold data")
    col = np.asarray(frame.column(column), dtype=np.float64)
    probs = np.linspace(0.0, 1.0, n_quantiles)
    return tuple(np.quantile(col[mask], probs) for mask in masks)


def angular_marginals(frame, column, theta_bins=18, phi_bins=36):
    """Per-bin mean and count of the column against colatitude and
    longitude; empty bins report count 0 and NaN mean.

    Bins are the ``linspace`` intervals of [0, pi] and [0, 2 pi], closed on
    the left; longitudes outside [0, 2 pi) are first reduced mod 2 pi, and
    an angle at the top edge (or out of range) counts in the end bin."""
    if theta_bins < 1 or phi_bins < 1:
        raise DomainError("bin counts must be >= 1")
    theta, phi = frame.angles()
    if np.any((phi < 0) | (phi >= 2 * math.pi)):
        phi = phi % (2 * math.pi)
    values = np.asarray(frame.column(column), dtype=np.float64)
    out = {}
    for name, angles, nbins, top in (("theta", theta, theta_bins, math.pi),
                                     ("phi", phi, phi_bins, 2 * math.pi)):
        edges = np.linspace(0.0, top, nbins + 1)
        # the scaled angle is off by at most one bin; the edges decide
        idx = np.clip(angles * (nbins / top), 0, nbins - 1).astype(np.int64)
        idx += (angles >= edges[idx + 1]) & (idx < nbins - 1)
        idx -= (angles < edges[idx]) & (idx > 0)
        counts = np.bincount(idx, minlength=nbins).astype(np.float64)
        sums = np.bincount(idx, weights=values, minlength=nbins)
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        out[name] = {"centers": 0.5 * (edges[:-1] + edges[1:]),
                     "mean": means, "count": counts}
    return out
