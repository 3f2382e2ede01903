"""Pixel-indexed columnar tables joining grid addressing with data columns.

A :class:`SkyFrame` keys every row by a pixel index under one scheme and
resolution.  Two modes exist: ``cmb`` frames have strictly unique pixel
keys and derive row coordinates from pixel centers on demand; ``hp``
frames allow repeated keys (several observations in one pixel) and may
carry explicit per-row coordinates.  ``SkyFrame.__post_init__`` is the
one place a frame is checked; readers such as :func:`read_csv` hand it
what they parse.
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import healpix
from .csvio import read_table, write_table
from .errors import (AddressingError, DomainError, FormatError, SchemaError,
                     SkypixError, UniquenessError)
from .geom import WindowSet, geodesic_distance, sph2cart
from .rng import sample_without_replacement

_CHUNK = 1 << 20
# windows classify the nested cells of this resolution (or of the frame's
# own, when coarser) before any pixel center is tested
_CELL_NSIDE = 32
# and explicit coordinates those of this many colatitude bands by twice as
# many longitude sectors
_GRID = 64

CMB = "cmb"
HP = "hp"


@dataclass
class SkyFrame:
    pix: np.ndarray
    scheme: str
    nside: int
    columns: dict = field(default_factory=dict)
    mode: str = CMB
    windows: list = field(default_factory=list)
    coords: tuple | None = None   # explicit (theta, phi), hp mode only
    demoted: bool = False         # True when binding collided cmb keys

    def __post_init__(self):
        self.pix = np.asarray(self.pix, dtype=np.int64)
        if self.pix.ndim != 1:
            raise SchemaError("pixel keys must be 1-d, got shape %s"
                              % (self.pix.shape,))
        self.nside = healpix._check_nside(self.nside)
        healpix._check_scheme(self.scheme)
        if self.pix.size and (self.pix.min() < 1
                              or self.pix.max() > healpix.npix(self.nside)):
            raise AddressingError("pixel index out of range")
        self.columns = {k: np.asarray(v) for k, v in self.columns.items()}
        for name, col in self.columns.items():
            if len(col) != len(self.pix):
                raise SchemaError("column %r length %d != %d rows"
                                  % (name, len(col), len(self.pix)))
        if self.mode == CMB:
            # ascending keys (every frame the pipeline builds) are unique
            # at a glance; others are sorted and compared with neighbours
            keys = self.pix
            if not np.all(keys[1:] > keys[:-1]):
                keys = np.sort(keys)
                if np.any(keys[1:] == keys[:-1]):
                    raise UniquenessError("cmb mode requires unique pixel keys")
            self.coords = None
        elif self.mode != HP:
            raise DomainError("mode must be 'cmb' or 'hp'")
        elif self.coords is not None:
            self.coords = tuple(np.asarray(c, dtype=np.float64)
                                for c in self.coords)
            if [c.shape for c in self.coords] != [self.pix.shape] * 2:
                raise SchemaError("hp coordinates must hold one (theta, phi) "
                                  "per row")
            theta, phi = self.coords
            if not (np.all((theta >= 0) & (theta <= math.pi))
                    and np.isfinite(phi).all()):
                raise SchemaError("hp theta must be in [0, pi], phi finite")

    def __len__(self):
        return len(self.pix)

    @property
    def column_names(self):
        return list(self.columns)

    def angles(self):
        """Row coordinates ``(theta, phi)``; pixel centers unless explicit."""
        if self.coords is not None:
            return self.coords
        return healpix.pix2ang(self.nside, self.pix, self.scheme)

    def positions(self, rows=slice(None)):
        """Coordinates of the selected rows as unit vectors, shape (n, 3)."""
        if self.coords is not None:
            return sph2cart(self.coords[0][rows], self.coords[1][rows])
        return healpix.pix2vec(self.nside, self.pix[rows], self.scheme)

    def with_scheme(self, scheme):
        """Same frame re-addressed under the other ordering scheme."""
        if scheme == self.scheme:
            return self
        if scheme == healpix.NESTED:
            pix = healpix.ring2nest(self.nside, self.pix)
        else:
            pix = healpix.nest2ring(self.nside, self.pix)
        return replace(self, pix=pix, scheme=scheme,
                       columns=dict(self.columns), windows=list(self.windows))

    def take(self, sel):
        coords = self.coords and tuple(c[sel] for c in self.coords)
        return replace(self, pix=self.pix[sel], windows=list(self.windows),
                       columns={k: v[sel] for k, v in self.columns.items()},
                       coords=coords)

    def column(self, name):
        if name not in self.columns:
            raise SchemaError("no column %r; frame has %s"
                              % (name, self.column_names))
        return self.columns[name]


def full_frame(nside, scheme=healpix.NESTED, columns=None):
    """cmb-mode frame covering every pixel at the given resolution."""
    pix = np.arange(1, healpix.npix(nside) + 1, dtype=np.int64)
    return SkyFrame(pix, scheme, nside, columns or {})


def frame_from_map(src, rows=None, sample_size=None, seed=0, columns=None):
    """Build a cmb frame from an opened map source.

    ``rows`` selects explicit 1-based row indices (sorted, unique);
    ``sample_size`` draws a seeded simple random sample instead.  Pixel
    indices equal the selected row indices under the header's ordering,
    so the map must hold one row per pixel.
    """
    if src.row_count != healpix.npix(src.nside):
        raise FormatError("%s holds %d rows; NSIDE %d needs %d"
                          % (src.path, src.row_count, src.nside,
                             healpix.npix(src.nside)))
    if rows is not None and sample_size is not None:
        raise DomainError("pass rows or sample_size, not both")
    scheme = src.ordering or healpix.RING
    if sample_size is not None:
        table, pix = src.sample_rows(sample_size, seed, columns)
    elif rows is not None:
        pix = np.asarray(rows, dtype=np.int64)
        table = src.read_rows(pix, columns)
    else:
        pix = np.arange(1, src.row_count + 1, dtype=np.int64)
        table = src.read_all(columns)
    return SkyFrame(pix, scheme, src.nside, table)


def assign_pixels(theta, phi, columns, nside, require_unique=False):
    """Key raw spherical points by the pixel holding each one.

    Rows whose points share a pixel make the result an hp frame with the
    original coordinates attached; fully unique keys yield a cmb frame.
    With ``require_unique`` a collision raises instead, listing the
    offending rows.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    phi = np.atleast_1d(np.asarray(phi, dtype=np.float64))
    pix = healpix.ang2pix(nside, theta, phi, healpix.NESTED)
    keys = np.sort(pix)
    repeated = keys[1:] == keys[:-1]
    if not repeated.any():
        return SkyFrame(pix, healpix.NESTED, nside, columns, CMB)
    if require_unique:
        clashing = np.unique(keys[1:][repeated])
        rows = np.nonzero(np.isin(pix, clashing))[0]
        raise UniquenessError(
            "%d rows collide in %d pixels (rows %s...)"
            % (len(rows), len(clashing), rows[:10].tolist()))
    return SkyFrame(pix, healpix.NESTED, nside, columns, HP,
                    coords=(theta, phi))


def _cell_radius(nside):
    """Bound on the angle from a nested pixel's center to any point of the
    pixel: HEALPix ``max_pixrad`` (Gorski et al. 2005), the angle from the
    center of the pixel at a face's polar corner to that corner, widened
    by 5% to absorb rounding in the angles it is compared with."""
    z_a = 2.0 / 3.0
    z_b = 1.0 - (1.0 - 1.0 / nside) ** 2 / 3.0
    a = sph2cart(math.acos(z_a), math.pi / (4 * nside))
    b = sph2cart(math.acos(z_b), 0.0)
    return 1.05 * float(geodesic_distance(a, b))


def _cell_bounds(nside, region):
    """``(all_in, any_in, shift)`` of the region over the nested cells at
    ``min(nside, _CELL_NSIDE)``: whether it holds every point of a cell,
    whether it may hold any, and the shift that maps a 0-based nested
    index at ``nside`` to its cell."""
    cells = min(nside, _CELL_NSIDE)
    centers = healpix.pix2vec(cells, np.arange(1, healpix.npix(cells) + 1),
                              healpix.NESTED)
    all_in, any_in = region.cap_bounds(centers, _cell_radius(cells))
    return all_in, any_in, 2 * (nside // cells).bit_length() - 2


def _grid_cells():
    """Unit-vector centers of the grid's cells, band by band, and the angle
    from a center to its cell's farthest point, a corner, widened by 5% as
    in :func:`_cell_radius`."""
    step = math.pi / _GRID
    theta = (np.arange(_GRID) + 0.5) * step
    centers = sph2cart(theta[:, None], (np.arange(2 * _GRID) + 0.5) * step)
    corners = sph2cart(np.append(theta - step / 2, theta + step / 2), step / 2)
    radius = geodesic_distance(corners, sph2cart(np.tile(theta, 2), 0.0))
    return centers.reshape(-1, 3), 1.05 * float(radius.max())


def _grid_cell_block(theta, phi):
    """Index of each row's cell in :func:`_grid_cells`, or one past the last
    where ``|phi| >= 2**20``, as the float 2 pi drifts there from the exact
    reduction ``sph2cart`` makes.  ``fmod`` is exact and keeps the sector's
    cast in range for any finite ``phi``."""
    band = np.minimum(theta * (_GRID / math.pi), _GRID - 1).astype(np.int16)
    sector = np.floor(np.fmod(phi, 2 * math.pi) * (_GRID / math.pi))
    cell = band * (2 * _GRID) + (sector.astype(np.int16) & (2 * _GRID - 1))
    return [np.where(np.abs(phi) >= 2.0 ** 20, 2 * _GRID ** 2, cell)]


def window_mask(frame, region):
    """Boolean mask of the rows whose coordinates fall inside the region.

    Rows are decided a whole cell at a time by ``region.cap_bounds``, on
    the nested cells of :func:`_cell_bounds` when keyed by pixel centers
    and on the grid cells of :func:`_grid_cells` when explicit.  Only rows
    of cells that straddle the boundary go through ``contains``."""
    region = WindowSet(region)
    if frame.coords is None:
        all_in, any_in, shift = _cell_bounds(frame.nside, region)
        nest = frame.pix
        if frame.scheme != healpix.NESTED:
            nest = healpix.ring2nest(frame.nside, nest)
        cell = (nest - 1) >> shift
    else:
        all_in, any_in = region.cap_bounds(*_grid_cells())
        # int16 holds the 2 * _GRID**2 + 1 cells
        cell, = healpix._by_block(_grid_cell_block, (len(frame),),
                                  frame.coords, dtype=np.int16)
    # 2: the cell is inside, 1: it straddles the boundary, 0: outside; the
    # cell past the last holds rows that are always tested
    state = np.append(all_in + any_in.astype(np.int8), np.int8(1))[cell]
    keep = state == 2
    test = np.flatnonzero(state == 1)
    for lo in range(0, len(test), _CHUNK):
        rows = test[lo:lo + _CHUNK]
        keep[rows] = region.contains(frame.positions(rows))
    return keep


def extract_window(frame, region):
    """The rows :func:`window_mask` keeps; the region is recorded as
    provenance."""
    region = WindowSet(region)
    out = frame.take(window_mask(frame, region))
    out.windows = list(frame.windows) + [region]
    return out


def window_pixels(nside, region, scheme=healpix.NESTED):
    """Sorted 1-based indices, under ``scheme``, of the pixels whose
    centers lie in the region.

    Only the pixels of nested cells that the region may reach are listed,
    and only those of cells that straddle its boundary are tested, so a
    small window costs in proportion to its area, not to the sky."""
    region = WindowSet(region)
    _, any_in, shift = _cell_bounds(nside, region)
    pix = ((np.flatnonzero(any_in)[:, None] << shift)
           + np.arange(1, (1 << shift) + 1)).ravel()
    pix = pix[window_mask(SkyFrame(pix, healpix.NESTED, nside), region)]
    if scheme == healpix.NESTED:
        return pix
    return np.sort(healpix.nest2ring(nside, pix))


def sample_frame(frame, sample_size, seed):
    """Seeded without-replacement row sample; frames on the equal-area grid
    make this an approximately uniform spatial sample."""
    if not 0 < sample_size <= len(frame):
        raise DomainError("sample size must be in 1..%d" % len(frame))
    rows = sample_without_replacement(len(frame), sample_size, seed) - 1
    return frame.take(rows)


def geo_area(frame):
    """Area covered by the frame's pixels: distinct count times pixel area."""
    distinct = len(frame.pix) if frame.mode == CMB else len(np.unique(frame.pix))
    return distinct * healpix.pixel_area(frame.nside)


def bind_frames(frames, axis="rows"):
    """Concatenate frames by rows (same schema/addressing, keys may repeat,
    demoting to hp mode) or by columns (identical pixel key sequences)."""
    frames = list(frames)
    if not frames:
        raise DomainError("nothing to bind")
    first = frames[0]
    if axis == "rows":
        for f in frames[1:]:
            if f.column_names != first.column_names:
                raise SchemaError("row binding needs identical column schemas")
            if (f.nside, f.scheme) != (first.nside, first.scheme):
                raise AddressingError("row binding needs one scheme/resolution")
        pix = np.concatenate([f.pix for f in frames])
        cols = {name: np.concatenate([f.columns[name] for f in frames])
                for name in first.column_names}
        have_coords = any(f.coords is not None for f in frames)
        modes = {f.mode for f in frames}
        unique = len(np.unique(pix)) == len(pix)
        if unique and modes == {CMB}:
            return SkyFrame(pix, first.scheme, first.nside, cols, CMB)
        coords = None
        if have_coords or modes != {CMB}:
            coords = tuple(map(np.concatenate,
                               zip(*(f.angles() for f in frames))))
        out = SkyFrame(pix, first.scheme, first.nside, cols, HP, coords=coords)
        out.demoted = not unique and modes == {CMB}
        return out
    if axis == "columns":
        for f in frames[1:]:
            if (f.nside, f.scheme) != (first.nside, first.scheme):
                raise AddressingError("column binding needs one scheme/resolution")
            if not np.array_equal(f.pix, first.pix):
                raise SchemaError("column binding needs identical pixel keys")
        cols = {}
        for f in frames:
            for name, arr in f.columns.items():
                if name in cols:
                    raise SchemaError("duplicate column %r" % name)
                cols[name] = arr
        return SkyFrame(first.pix.copy(), first.scheme, first.nside, cols,
                        first.mode, coords=first.coords)
    raise DomainError("axis must be 'rows' or 'columns'")


def _column_stats(values):
    values = np.asarray(values, dtype=np.float64)
    q1, med, q3 = np.quantile(values, [0.25, 0.5, 0.75])  # type-7 interpolation
    return {"min": float(values.min()), "q1": float(q1), "median": float(med),
            "mean": float(values.mean()), "q3": float(q3),
            "max": float(values.max())}


def summarize(frame):
    """Window provenance (kind + analytic area), covered area, and the
    six-number summary of every data column."""
    windows = [w for region in frame.windows for w in region.describe()]
    stats = {name: _column_stats(col) for name, col in frame.columns.items()
             if len(frame) and np.issubdtype(col.dtype, np.number)}
    return {"rows": len(frame), "windows": windows,
            "covered_area": geo_area(frame), "columns": stats,
            "nside": frame.nside, "ordering": frame.scheme, "mode": frame.mode}


# ---------------------------------------------------------------------------
# CSV + sidecar persistence

def _sidecar_path(path):
    return str(path) + ".meta.json"


def write_csv(frame, path):
    """Write ``pix,theta,phi`` plus data columns at full precision, with a
    JSON metadata sidecar next to the file."""
    values = [*frame.angles(), *(frame.columns[n] for n in frame.column_names)]
    write_table(path, ["pix", "theta", "phi"] + frame.column_names,
                [frame.pix], values)
    meta = {"nside": frame.nside, "ordering": frame.scheme, "mode": frame.mode}
    with open(_sidecar_path(path), "w") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")


def read_csv(path):
    """Load a frame written by :func:`write_csv` (sidecar required, and
    checked on an empty frame before the body is parsed); a sidecar or key
    the frame rejects raises ``SchemaError`` naming both files.  A cmb
    frame's ``theta`` and ``phi`` restate its pixel centers: every row must
    have both cells, but they are not parsed."""
    sidecar = _sidecar_path(path)
    try:
        with open(sidecar) as fh:
            meta = json.load(fh)
        scheme, nside = meta["ordering"], meta["nside"]
        mode = meta.get("mode", CMB)
    except FileNotFoundError:
        raise SchemaError("missing metadata sidecar %s" % sidecar)
    except (ValueError, KeyError, TypeError) as exc:
        raise SchemaError("malformed metadata sidecar %s (%s: %s)"
                          % (sidecar, type(exc).__name__, exc))

    def frame(pix, columns, coords=None):
        try:
            return SkyFrame(pix, scheme, nside, columns, mode, coords=coords)
        except SkypixError as exc:
            raise SchemaError("frame CSV %s with sidecar %s: %s"
                              % (path, sidecar, exc))

    def check_header(header):
        if header[:3] != ["pix", "theta", "phi"]:
            raise SchemaError("frame CSV must start with pix,theta,phi")

    frame([], {})
    keys = (np.int64,) if mode == HP else (np.int64, None, None)
    header, (pix, theta, phi, *data) = read_table(
        path, check_header, keys, SchemaError)
    return frame(pix, dict(zip(header[3:], data)),
                 (theta, phi) if mode == HP else None)
