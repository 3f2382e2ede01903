"""skypix: equal-area sky pixelation, lazy FITS maps, spherical windows and
geostatistics on the unit sphere."""

from .errors import (
    SkypixError, AddressingError, DomainError, BoundsError, FormatError,
    SchemaError, UniquenessError, GeometryError, ParameterError,
    StratificationError, NetworkError,
)
from .healpix import (
    RING, NESTED, PixelId, npix, pixel_area,
    pix2ang, pix2vec, pix2zphi, ang2pix, vec2pix,
    nest2ring, ring2nest, convert_ordering,
    ancestor, ancestor_index, children, children_index, pixel_window,
    neighbours, neighbours_index, nest_search, pixel_boundary,
)
from .geom import (
    SphericalPoint, Window, WindowSet, disc, polygon,
    convert_coords, hms_to_degrees, geodesic_distance, extremal_distance,
    spherical_triangle_area, triangulate,
)
from .fits import MapSource, open_map, write_map
from .frame import (
    SkyFrame, full_frame, frame_from_map, assign_pixels, extract_window,
    sample_frame, geo_area, bind_frames, summarize, window_mask,
)
from . import geostat

__version__ = "0.1.0"
