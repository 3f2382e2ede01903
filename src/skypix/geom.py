"""Spherical geometry: coordinates, geodesics, windows and triangulation.

Windows are closed regions: points exactly on a disc rim or polygon edge
count as inside.  Polygon vertices are joined by great-circle arcs and the
polygon must fit inside an open hemisphere; larger regions are expressed as
complements or window-set combinations.

Each window is reduced once, when built, to a union of convex pieces of
half-spaces (see :class:`Window`), so that polygon errors are raised on
construction; point membership and whole-cap bounds are one loop over the
pieces, and a :class:`WindowSet` combines them under one set rule.
"""

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FormatError, GeometryError
from .healpix import _by_block, _flat_inputs

CARTESIAN = "cartesian"
SPHERICAL = "spherical"
GEOGRAPHIC = "geographic"

_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class SphericalPoint:
    """Colatitude/longitude pair in radians, theta in [0, pi], phi in [0, 2pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise DomainError("non-finite angle")
        if not 0.0 <= self.theta <= math.pi:
            raise DomainError("theta must be in [0, pi]")
        object.__setattr__(self, "phi", self.phi % (2 * math.pi))

    def to_vector(self):
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi),
                         math.cos(self.theta)])


def _cart2sph_block(xyz):
    phi = np.arctan2(xyz[:, 1], xyz[:, 0]) % (2 * np.pi)
    phi[np.abs(xyz[:, 2]) >= 1.0] = 0.0
    return np.arccos(np.clip(xyz[:, 2], -1.0, 1.0)), phi


def cart2sph(xyz):
    """Unit vectors ``(..., 3)`` -> ``(theta, phi)``; phi canonical in
    [0, 2pi), 0 at the poles; on 2**15-row blocks, as :func:`sph2cart`."""
    xyz = np.asarray(xyz, dtype=np.float64)
    theta, phi = _by_block(_cart2sph_block, *_flat_inputs(xyz, core=1),
                           [(), ()], np.float64)
    return theta[()], phi[()]   # numpy scalars for one vector


def _sph2cart_block(theta, phi):
    st = np.sin(theta)
    return [np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)],
                     axis=-1)]


def sph2cart(theta, phi):
    """``(theta, phi)`` -> unit vectors, stacked on the last axis; arrays
    broadcast.  Evaluated on 2**15-row blocks by the shared evaluator,
    :func:`healpix._by_block`: a call holds its output plus one block of
    temporaries."""
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    return _by_block(_sph2cart_block, *_flat_inputs(theta, phi), [(3,)],
                     np.float64)[0]


def geo2sph(lon, lat):
    """Geographic (lon, lat) radians -> (theta, phi): theta = pi/2 - lat."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    if np.any(np.abs(lat) > math.pi / 2 + 1e-12):
        raise DomainError("latitude must be in [-pi/2, pi/2]")
    return math.pi / 2 - lat, lon % (2 * np.pi)


def sph2geo(theta, phi):
    theta = np.asarray(theta, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    return phi % (2 * np.pi), math.pi / 2 - theta


def convert_coords(point, source, target):
    """Convert a point tuple between cartesian/spherical/geographic systems.

    ``cartesian`` is ``(x, y, z)``, ``spherical`` is ``(theta, phi)`` and
    ``geographic`` is ``(lon, lat)``, all angles in radians.
    """
    systems = (CARTESIAN, SPHERICAL, GEOGRAPHIC)
    if source not in systems or target not in systems:
        raise DomainError("unknown coordinate system")
    values = np.asarray(point, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise DomainError("non-finite coordinates")
    if source == CARTESIAN:
        norm = np.linalg.norm(values)
        if abs(norm - 1.0) > 1e-9:
            raise DomainError("cartesian input must be a unit vector")
        theta, phi = cart2sph(values)
    elif source == SPHERICAL:
        theta, phi = values[0], values[1] % (2 * math.pi)
        if not 0 <= theta <= math.pi:
            raise DomainError("theta must be in [0, pi]")
    else:
        theta, phi = geo2sph(values[0], values[1])
    if target == CARTESIAN:
        return tuple(sph2cart(theta, phi))
    if target == SPHERICAL:
        return float(theta), float(phi)
    lon, lat = sph2geo(theta, phi)
    return float(lon), float(lat)


def hms_to_degrees(hours, minutes, seconds):
    """Celestial (h, m, s) -> degrees: 15 * (h + m/60 + s/3600)."""
    if not (0 <= hours < 24 and 0 <= minutes < 60 and 0 <= seconds < 60):
        raise DomainError("h/m/s out of range")
    return 15.0 * (hours + minutes / 60.0 + seconds / 3600.0)


def geodesic_distance(a, b):
    """Great-circle angle between unit vectors, ``2 asin(min(c/2, 1))`` of
    their chord ``c = |a - b|``: 0 exactly when they coincide, and accurate
    to rounding at small angles, where an arccos of their dot rounds to 0.
    ``(..., 3)`` arrays broadcast, and are evaluated on 2**15-row blocks by
    the shared evaluator, :func:`healpix._by_block`: a call holds its output
    plus one block of temporaries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d, = _by_block(_geodesic_block, *_flat_inputs(a, b, core=1),
                   dtype=np.float64)
    return d[()]                # a numpy scalar for two vectors


def _geodesic_block(a, b):
    # squared in place: one temporary block of (a - b), as for a dot product
    half_chord = np.einsum("...i->...", (a - b) ** 2) ** 0.5 / 2
    return [2 * np.arcsin(np.minimum(half_chord, 1.0))]


def extremal_distance(points, target=None, mode="max"):
    """Extremal geodesic distance, pairwise or from every point to a target.

    Pairwise, a k-d tree finds the nearest other point to each point (the
    minimum, 0 for duplicates) and to each point's antipode (the maximum is
    pi less that angle), and ``geodesic_distance`` gives the angles."""
    if mode not in ("max", "min"):
        raise DomainError("mode must be 'max' or 'min'")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if (pts.size == 0 or not np.isfinite(pts).all()
            or target is not None and not np.isfinite(target).all()):
        raise DomainError("need a non-empty set of finite points and target")
    if target is not None:
        d = geodesic_distance(pts, np.asarray(target, dtype=np.float64))
        return float(d.max() if mode == "max" else d.min())
    if len(pts) < 2:
        raise DomainError("pairwise mode needs at least two points")
    from scipy.spatial import cKDTree
    tree = cKDTree(pts)
    if mode == "min":
        near = tree.query(pts, k=[2])[1][:, 0]
        return float(geodesic_distance(pts, pts[near]).min())
    near = tree.query(-pts)[1]
    return math.pi - float(geodesic_distance(-pts, pts[near]).min())


# ---------------------------------------------------------------------------
# windows

@dataclass(frozen=True)
class Window:
    """A spherical disc or polygon, optionally complemented.

    ``center``/``r`` describe a disc (geodesic radius in (0, pi)); polygons
    list at least three vertices, joined by great-circle arcs, all within an
    open hemisphere and not self-intersecting.

    ``pieces`` is the shape as a union of convex pieces, each a tuple of
    half-spaces ``(n, h)``, ``x . n >= h``: a disc's center with ``cos r``,
    or a polygon's edge planes (``h = 0``, ``|n|`` the edge's sine), in one
    piece when ``assumed_convex`` (checked on every vertex) and one piece
    per triangle of :func:`triangulate` otherwise.  ``base_area`` is the
    area of the un-complemented shape, steradians.
    """

    kind: str
    complement: bool = False
    center: SphericalPoint | None = None
    r: float | None = None
    vertices: tuple = ()
    assumed_convex: bool = False
    pieces: tuple = field(init=False, repr=False, compare=False)
    base_area: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "disc":
            if self.center is None or self.r is None:
                raise GeometryError("disc window needs center and r")
            if not 0.0 < self.r < math.pi:
                raise GeometryError("disc radius must be in (0, pi)")
            pieces = (((self.center.to_vector(), math.cos(self.r)),),)
            base_area = 2 * math.pi * (1 - math.cos(self.r))
        elif self.kind == "polygon":
            object.__setattr__(self, "vertices", tuple(self.vertices))
            if len(self.vertices) < 3:
                raise GeometryError("polygon needs at least 3 vertices")
            arr = self.vertex_array()
            same = (np.abs(arr - np.roll(arr, -1, axis=0)).max(axis=1) < 1e-15)
            if same.any():
                raise GeometryError("repeated consecutive vertices")
            triangles = triangulate(self)
            normals = [_edge_normals(np.array(t)) for t in
                       ((arr,) if self.assumed_convex else triangles)]
            if self.assumed_convex and np.any(arr @ normals[0].T < -_EDGE_TOL):
                raise GeometryError("polygon declared convex is not convex")
            pieces = tuple(tuple((n, 0.0) for n in ns) for ns in normals)
            base_area = sum(spherical_triangle_area(*t) for t in triangles)
        else:
            raise GeometryError("window kind must be 'disc' or 'polygon'")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "base_area", base_area)

    # -- geometry ---------------------------------------------------------

    def vertex_array(self):
        return np.array([v.to_vector() for v in self.vertices])

    def area(self):
        """Analytic window area; 4*pi minus the base area when complemented."""
        base = self.base_area
        return 4 * math.pi - base if self.complement else base

    def complemented(self):
        """The complement, sharing this window's pieces and base area."""
        out = copy.copy(self)
        object.__setattr__(out, "complement", not self.complement)
        return out

    def contains(self, xyz):
        """Membership of unit vectors ``(..., 3)``; boundaries are inside."""
        xyz = np.asarray(xyz, dtype=np.float64)
        inside = np.zeros(xyz.shape[:-1], dtype=bool)
        for (n, h), *rest in self.pieces:
            part = (xyz @ n) >= h - _EDGE_TOL
            for n, h in rest:
                part &= (xyz @ n) >= h - _EDGE_TOL
            inside |= part
        return ~inside if self.complement else inside

    def cap_bounds(self, centers, radius):
        """Membership of whole caps: for spherical caps of angular
        ``radius`` about the unit vectors ``centers`` (n, 3), returns
        ``(all_in, any_in)``.  Where ``all_in`` holds, :meth:`contains`
        accepts every point of the cap; where ``any_in`` fails, it accepts
        none.  Both allow for the edge tolerance, so only caps with
        ``any_in & ~all_in`` need their points tested.

        Per half-space, a cap's points lie within ``radius`` of the
        elevation ``s`` of its center above the plane ``x . n = 0``, and
        ``x . n >= h`` is an elevation of at least ``asin(h / |n|)``."""
        all_in = np.zeros(len(centers), dtype=bool)
        any_in = np.zeros(len(centers), dtype=bool)
        for piece in self.pieces:
            piece_all = np.ones(len(centers), dtype=bool)
            piece_any = np.ones(len(centers), dtype=bool)
            for n, h in piece:
                norm = np.linalg.norm(n)
                s = np.arcsin(np.clip(centers @ n / norm, -1.0, 1.0))
                beta = np.arcsin(np.clip(h / norm, -1.0, 1.0))
                piece_all &= s - radius >= beta
                nearest = norm * np.sin(np.minimum(s + radius, 0.5 * math.pi))
                piece_any &= nearest >= h - 2 * _EDGE_TOL
            all_in |= piece_all
            any_in |= piece_any
        return (~any_in, ~all_in) if self.complement else (all_in, any_in)

    def describe(self):
        kind = ("minus." if self.complement else "") + self.kind
        return {"kind": kind, "area": self.area()}

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        d = {"kind": self.kind, "complement": self.complement}
        if self.kind == "disc":
            d["center"] = {"theta": self.center.theta, "phi": self.center.phi}
            d["r"] = self.r
        else:
            d["vertices"] = [{"theta": v.theta, "phi": v.phi} for v in self.vertices]
            d["assumedConvex"] = self.assumed_convex
        return d

    @classmethod
    def from_dict(cls, d):
        """Build from a parsed spec object; a non-object entry or a missing
        or ill-typed field raises ``FormatError``."""
        kind = _spec_field(d, "kind", str)
        complement = _spec_field(d, "complement", bool, False)
        if kind == "disc":
            center = _spec_point(_spec_field(d, "center", dict))
            return cls("disc", complement, center=center,
                       r=_spec_field(d, "r", float))
        if kind == "polygon":
            verts = _spec_field(d, "vertices", list)
            return cls("polygon", complement,
                       vertices=tuple(_spec_point(v) for v in verts),
                       assumed_convex=_spec_field(d, "assumedConvex", bool,
                                                  False))
        raise GeometryError("window spec kind must be 'disc' or 'polygon'")


def _spec_field(d, key, kind, default=None):
    """``d[key]`` of a window spec object, checked to be a ``kind`` (float
    takes any JSON number that is a finite float, and returns it as one);
    ``default`` when the key is absent."""
    if not isinstance(d, dict):
        raise FormatError("window spec entry %r is not an object" % (d,))
    value = d.get(key, default)
    if kind is float and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:   # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    elif kind is not float and isinstance(value, kind):
        return value
    raise FormatError("window spec field %r must be a %s, got %.80r" % (
        key, "finite number" if kind is float else kind.__name__, value))


def _spec_point(d):
    return SphericalPoint(_spec_field(d, "theta", float),
                          _spec_field(d, "phi", float))


def disc(theta, phi, r, complement=False):
    """Shorthand for a disc window centered at (theta, phi)."""
    return Window("disc", complement, center=SphericalPoint(theta, phi), r=r)


def polygon(points, complement=False, assumed_convex=False):
    """Shorthand for a polygon window from (theta, phi) pairs."""
    verts = tuple(SphericalPoint(t, p) for t, p in points)
    return Window("polygon", complement, vertices=verts,
                  assumed_convex=assumed_convex)


def _edge_normals(verts):
    """Edge-plane normals of a convex polygon that :func:`triangulate` has
    accepted, each turned toward the vertex centroid; unnormalized, so
    ``|n|`` is the sine of the edge."""
    centroid = verts.mean(axis=0)
    centroid = centroid / np.linalg.norm(centroid)
    normals = np.cross(verts, np.roll(verts, -1, axis=0))
    return normals * np.where(normals @ centroid >= 0, 1.0, -1.0)[:, None]


@dataclass(frozen=True)
class WindowSet:
    """Combination of windows: the union of the plain members intersected
    with every complemented member (no plain members = the full sphere)."""

    windows: tuple

    def __init__(self, windows):
        if isinstance(windows, WindowSet):
            windows = windows.windows
        elif isinstance(windows, Window):
            windows = (windows,)
        object.__setattr__(self, "windows", tuple(windows))

    def _set_rule(self, query, shape, width):
        """The set rule over ``query(w)``, a tuple of ``width`` boolean
        arrays per window: ORed over the plain members (all True when there
        are none), then ANDed with each complemented member's."""
        plain = [w for w in self.windows if not w.complement]
        out = [np.full(shape, not plain) for _ in range(width)]
        for w in plain + [w for w in self.windows if w.complement]:
            combine = np.logical_and if w.complement else np.logical_or
            for acc, part in zip(out, query(w)):
                combine(acc, part, out=acc)
        return out

    def contains(self, xyz):
        xyz = np.asarray(xyz, dtype=np.float64)
        return self._set_rule(lambda w: (w.contains(xyz),), xyz.shape[:-1],
                              1)[0]

    def cap_bounds(self, centers, radius):
        """``(all_in, any_in)`` of :meth:`Window.cap_bounds`, combined
        under the set rule: a bound on each member is a bound on the set."""
        return tuple(self._set_rule(lambda w: w.cap_bounds(centers, radius),
                                    len(centers), 2))

    def describe(self):
        return [w.describe() for w in self.windows]

    def to_list(self):
        return [w.to_dict() for w in self.windows]

    @classmethod
    def from_spec(cls, spec):
        """Build from parsed JSON: a window object or a list of them."""
        if isinstance(spec, dict):
            spec = [spec]
        if not isinstance(spec, list):
            raise FormatError("window spec must be an object or a list")
        return cls(tuple(Window.from_dict(d) for d in spec))


# ---------------------------------------------------------------------------
# triangulation

def spherical_triangle_area(a, b, c):
    """Spherical excess via L'Huilier's theorem, on sides from the chord
    rule of ``geodesic_distance``: stable for thin triangles."""
    ar = geodesic_distance(b, c)
    br = geodesic_distance(a, c)
    cr = geodesic_distance(a, b)
    s = 0.5 * (ar + br + cr)
    inner = (math.tan(0.5 * s) * math.tan(0.5 * (s - ar))
             * math.tan(0.5 * (s - br)) * math.tan(0.5 * (s - cr)))
    return 4.0 * math.atan(math.sqrt(max(0.0, inner)))


def _gnomonic(verts, pole):
    """Project onto the tangent plane at ``pole``; geodesics map to lines."""
    e1 = np.cross(pole, [0.0, 0.0, 1.0])
    if np.linalg.norm(e1) < 1e-9:
        e1 = np.cross(pole, [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(pole, e1)
    w = verts @ pole
    if np.any(w <= 1e-9):
        raise GeometryError("polygon does not fit inside a hemisphere")
    return np.stack([verts @ e1 / w, verts @ e2 / w], axis=-1)


def _segments_intersect(p1, p2, p3, p4):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def triangulate(w):
    """Split a polygon window into n-2 spherical triangles with disjoint
    interiors whose union is the polygon (ear clipping in the gnomonic
    plane about the vertex centroid)."""
    if w.kind != "polygon":
        raise GeometryError("only polygon windows can be triangulated")
    verts = w.vertex_array()
    n = len(verts)
    centroid = verts.mean(axis=0)
    if np.linalg.norm(centroid) < 1e-12:
        raise GeometryError("degenerate polygon")
    centroid /= np.linalg.norm(centroid)
    plane = _gnomonic(verts, centroid)

    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(plane[i], plane[(i + 1) % n],
                                   plane[j], plane[(j + 1) % n]):
                raise GeometryError("self-intersecting polygon")

    order = list(range(n))
    signed = 0.0
    for i in range(n):
        x1, y1 = plane[i]
        x2, y2 = plane[(i + 1) % n]
        signed += x1 * y2 - x2 * y1
    if signed < 0:
        order.reverse()

    def cross2(o, a, b):
        return ((plane[a][0] - plane[o][0]) * (plane[b][1] - plane[o][1])
                - (plane[a][1] - plane[o][1]) * (plane[b][0] - plane[o][0]))

    def point_in_tri(p, a, b, c):
        def side(u, v):
            return ((plane[v][0] - plane[u][0]) * (plane[p][1] - plane[u][1])
                    - (plane[v][1] - plane[u][1]) * (plane[p][0] - plane[u][0]))
        return side(a, b) > 0 and side(b, c) > 0 and side(c, a) > 0

    triangles = []
    guard = 0
    while len(order) > 3:
        guard += 1
        if guard > 2 * n * n:
            raise GeometryError("triangulation failed; polygon may be degenerate")
        m = len(order)
        clipped = False
        for k in range(m):
            a, b, c = order[(k - 1) % m], order[k], order[(k + 1) % m]
            if cross2(a, b, c) <= 0:
                continue
            if any(point_in_tri(q, a, b, c) for q in order if q not in (a, b, c)):
                continue
            triangles.append((verts[a], verts[b], verts[c]))
            order.pop(k)
            clipped = True
            break
        if not clipped:
            raise GeometryError("no ear found; polygon may be self-intersecting")
    triangles.append(tuple(verts[i] for i in order))
    return triangles
