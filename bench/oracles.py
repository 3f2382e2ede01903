"""Reference implementations the benchmark checks skypix's outputs against.

Each oracle is written from the specification (a docstring, the FITS
layout, a textbook formula), not by calling the function it checks.
Where an oracle needs pixel centers it takes them as an argument, so the
check is about the layer under test (sampling, windows, pair binning),
not about addressing, which ``catalog_hp`` checks on its own.
"""

import math

import numpy as np
from numpy.polynomial import legendre
from scipy.spatial import cKDTree

BLOCK = 2880
BOUNDARY_TOL = 1e-12


# ---------------------------------------------------------------------------
# sampling: splitmix64 + partial Fisher-Yates, as specified in skypix/rng.py

def splitmix64_sample(n, k, seed):
    """Sorted 1-based sample of ``k`` from ``1..n`` per the rng.py spec."""
    mask = (1 << 64) - 1
    state = seed & mask
    virtual = {}
    out = []
    for i in range(k):
        bound = n - i
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            if z < limit:
                break
        j = i + z % bound
        out.append(virtual.get(j, j + 1))
        virtual[j] = virtual.get(i, i + 1)
    return np.sort(np.array(out, dtype=np.int64))


# ---------------------------------------------------------------------------
# FITS: locate the payload by scanning header blocks, decode with memmap

def read_headers(path):
    """Cards of the primary and first extension headers, and the byte
    offset of the extension's data (map files carry no primary data)."""
    cards, offset = {}, 0
    with open(path, "rb") as fh:
        for _ in range(2):
            done = False
            while not done:
                block = fh.read(BLOCK)
                if len(block) < BLOCK:
                    raise ValueError("truncated header in %s" % path)
                offset += BLOCK
                for i in range(0, BLOCK, 80):
                    card = block[i:i + 80].decode("ascii")
                    if card[:8].rstrip() == "END":
                        done = True
                        break
                    if card[8:10] == "= ":
                        value = card[10:].split("/")[0].strip().strip("'")
                        cards[card[:8].rstrip()] = value.strip()
    return cards, offset


def memmap_table(path, names, rows):
    """Big-endian float32 columns of ``path`` as a read-only memmap."""
    dtype = np.dtype([(name, ">f4") for name in names])
    return np.memmap(path, dtype=dtype, mode="r", offset=read_headers(path)[1],
                     shape=(rows,))


def contiguous_runs(rows):
    rows = np.asarray(rows)
    return int(rows.size and 1 + np.count_nonzero(np.diff(rows) != 1))


# ---------------------------------------------------------------------------
# windows: brute-force membership on every center or point

def disc_membership(xyz, center, r):
    """(inside, near_boundary) for the closed disc of radius ``r``."""
    dots = xyz @ center
    gap = dots - math.cos(r)
    return gap >= 0, np.abs(gap) <= BOUNDARY_TOL


def fan_polygon_membership(xyz, apex, ring):
    """Membership in a polygon that is star-shaped about vertex ``apex``.

    ``ring`` lists the other vertices in order; the polygon is the union of
    triangles (apex, ring[i], ring[i+1]).  Returns (inside, near_boundary),
    where near_boundary flags points within BOUNDARY_TOL of an outer edge.
    """
    inside = np.zeros(len(xyz), dtype=bool)
    for a, b in zip(ring[:-1], ring[1:]):
        tri = (apex, a, b)
        ok = np.ones(len(xyz), dtype=bool)
        for k in range(3):
            u, v, w = tri[k], tri[(k + 1) % 3], tri[(k + 2) % 3]
            normal = np.cross(u, v)
            normal /= np.linalg.norm(normal)
            if normal @ w < 0:
                normal = -normal
            ok &= xyz @ normal >= 0
        inside |= ok
    outline = [apex] + list(ring) + [apex]
    near = np.zeros(len(xyz), dtype=bool)
    for u, v in zip(outline[:-1], outline[1:]):
        normal = np.cross(u, v)
        normal /= np.linalg.norm(normal)
        near |= np.abs(xyz @ normal) <= BOUNDARY_TOL
    return inside, near


# ---------------------------------------------------------------------------
# estimators

def q_statistic(groups):
    """1 - sum_h N_h var_h / (N var) over the pooled groups."""
    pooled = np.concatenate(groups)
    within = sum(g.size * np.var(g) for g in groups)
    return 1.0 - within / (pooled.size * np.var(pooled))


def entropy_bits(values, bins):
    """Equal-width histogram on [min, max] (last bin closed), in bits."""
    lo, hi = values.min(), values.max()
    edges = np.linspace(lo, hi, bins + 1)
    idx = np.clip(np.searchsorted(edges, values, side="right") - 1, 0,
                  bins - 1)
    p = np.bincount(idx, minlength=bins) / values.size
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def distinct_count(keys):
    ordered = np.sort(keys)
    return int(ordered.size and 1 + np.count_nonzero(np.diff(ordered)))


def renyi(nested_pix, values, level, box_level, q):
    """T(q) over nested boxes at ``box_level`` from pixels at ``level``."""
    boxes = (nested_pix - 1) // 4 ** (level - box_level)
    mass = np.bincount(boxes, weights=values - values.min())
    mu = mass / mass.sum()
    mu = mu[mu > 0]
    return np.array([np.log2(np.sum(mu ** qi)) / ((qi - 1) * -box_level)
                     for qi in q])


def exact_variogram(xyz, values, max_dist, bins):
    """Every pair within ``max_dist``, binned as skypix bins them.

    A k-d tree prefilters pairs at a chord radius enlarged by 1e-9, then the
    geodesic distance is ``arccos`` of the clipped dot product and bin
    ``ceil(d / width) - 1`` holds ``(0, max_dist]``.  Returns per-bin
    counts, estimates, and the variance of the half squared differences.
    """
    chord = 2 * math.sin(max_dist / 2) * (1 + 1e-9)
    pairs = cKDTree(xyz).query_pairs(chord, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    d = np.arccos(np.clip(np.einsum("ij,ij->i", xyz[i], xyz[j]), -1.0, 1.0))
    keep = (d > 0) & (d <= max_dist)
    width = max_dist / bins
    idx = np.clip(np.ceil(d[keep] / width).astype(np.int64) - 1, 0, bins - 1)
    half_sq = 0.5 * (values[i[keep]] - values[j[keep]]) ** 2
    counts = np.bincount(idx, minlength=bins).astype(np.float64)
    sums = np.bincount(idx, weights=half_sq, minlength=bins)
    sums2 = np.bincount(idx, weights=half_sq ** 2, minlength=bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        est = sums / counts
        var = sums2 / counts - est ** 2
    return counts, est, var


def legendre_covariance(cl, grid):
    """(1/4pi) sum_l (2l+1) C_l P_l(x) by numpy's Clenshaw evaluation."""
    ell = np.arange(cl.size)
    return legendre.legval(grid, (2 * ell + 1) * cl / (4 * np.pi))
