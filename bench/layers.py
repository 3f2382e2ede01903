"""Which skypix functions the traced run wraps, and the per-layer metrics
computed from their spans.

Each span is declared once, in ``instrument``, with the fields it reports.
A metric is named ``<span>.<field>`` (``<module>.<function>.<quantity>``),
except for the renamed counts in ``RENAMED``.  Counts (rows, items, bytes,
extents, iterations) are read from the arguments, the results or the
program's own counters (``MapSource.payload_reads``), never computed from
a formula.  Every metric is reported per traced pass; a function that a
workload never calls reports 0.
"""

import os

import numpy as np

HEALPIX = ("pix2vec", "pix2ang", "ang2pix", "nest_search", "ring2nest",
           "nest2ring", "neighbours_index")
FRAME_SELF = ("frame_from_map", "extract_window", "assign_pixels",
              "sample_frame", "summarize")
MEASURES = ("q_statistic", "renyi_function", "entropy", "angular_marginals")
CLI = ("sample", "window", "qstat", "variogram", "fit", "covps")
VARIOGRAM = "geostat.empirical.empirical_variogram"

# unit of each field; any field not listed is a count
UNITS = {"self_s": "s", "maxrss_rise_mb": "MB", "bytes": "bytes",
         "payload_bytes": "bytes"}
# (span, field) -> metric name, where it is not "<span>.<field>"
RENAMED = {("fits.read_rows", "payload_bytes"): "fits.payload_bytes",
           ("fits.read_rows", "extents"): "fits.extents",
           (VARIOGRAM, "pairs_binned"): "geostat.empirical.pairs_binned"}


def _items_in(args, kwargs, result, state):
    """Addressing calls take ``(nside, indices_or_angles, ...)``."""
    return {"items": int(np.size(args[1]))}


def _vectors_in(args, kwargs, result, state):
    return {"items": int(np.size(args[1]) // 3)}


def _read_rows_pre(args, kwargs):
    return len(args[0].payload_reads)


def _read_rows_post(args, kwargs, result, before):
    src = args[0]
    new = src.payload_reads[before:]
    rows = int(np.size(args[1]))
    names = args[2] if len(args) > 2 else kwargs.get("columns")
    widths = {c.name: c.nbytes for c in src.columns}
    requested = sum(widths[n] for n in (names or widths))
    return {"rows": rows, "payload_bytes": sum(n for _, n in new),
            "extents": len(new), "requested_bytes": rows * requested}


def instrument(tracer, sp):
    """Install span wrappers on the skypix modules bundled in ``sp``.

    Returns ``{metric: (unit, span, field)}`` for every span declared.
    """
    spec = {}

    def report(span, fields):
        for field in fields:
            metric = RENAMED.get((span, field), "%s.%s" % (span, field))
            spec[metric] = (UNITS.get(field, "count"), span, field)

    def function(span, module, attribute, fields=("self_s",), **kw):
        tracer.function(span, module, attribute, **kw)
        report(span, fields)

    def method(span, cls, attribute, fields=("self_s",), **kw):
        tracer.method(span, cls, attribute, **kw)
        report(span, fields)

    for name in HEALPIX:
        function("healpix." + name, sp.healpix, name, ("self_s", "items"),
                 post=_vectors_in if name == "nest_search" else _items_in)

    fits = sp.fits
    function("fits.open_map", fits, "open_map")
    method("fits.read_rows", fits.MapSource, "read_rows",
           ("self_s", "rows", "payload_bytes", "extents"),
           pre=_read_rows_pre, post=_read_rows_post)
    method("fits.read_all", fits.MapSource, "read_all")
    method("fits.sample_rows", fits.MapSource, "sample_rows")
    function("fits.write_map", fits, "write_map", ("self_s", "bytes"),
             post=lambda a, k, r, s: {"bytes": int(r)})

    function("rng.sample_without_replacement", sp.rng,
             "sample_without_replacement", ("self_s", "items"),
             post=lambda a, k, r, s: {"items": int(a[1])})

    geom = sp.geom
    method("geom.WindowSet.contains", geom.WindowSet, "contains",
           ("self_s", "items"),
           post=lambda a, k, r, s: {"items": int(np.size(r))})
    function("geom.triangulate", geom, "triangulate", ("self_s", "calls"))
    function("geom.sph2cart", geom, "sph2cart")
    function("geom.geodesic_distance", geom, "geodesic_distance")

    frame = sp.frame
    method("frame.SkyFrame.init", frame.SkyFrame, "__init__",
           ("self_s", "calls", "items"),
           post=lambda a, k, r, s: {"items": len(a[0].pix)})
    method("frame.take", frame.SkyFrame, "take")
    for name in FRAME_SELF:
        function("frame." + name, frame, name)
    function("frame.write_csv", frame, "write_csv",
             ("self_s", "items", "bytes"),
             post=lambda a, k, r, s: {"items": len(a[0]),
                                      "bytes": os.path.getsize(a[1])})
    function("frame.read_csv", frame, "read_csv", ("self_s", "items"),
             post=lambda a, k, r, s: {"items": len(r)})

    function(VARIOGRAM, sp.geostat.empirical, "empirical_variogram",
             ("self_s", "items", "maxrss_rise_mb", "pairs_binned"), rss=True,
             post=lambda a, k, r, s: {"items": len(a[0]),
                                      "pairs_binned": float(np.sum(r.counts))})
    models = sp.geostat.models
    function("geostat.models.fit_variogram", models, "fit_variogram",
             ("self_s", "iterations"),
             post=lambda a, k, r, s: {"iterations": int(r.iterations)})
    # runs tens of thousands of times per fit: counted, its time stays in
    # fit_variogram's self time
    function("geostat.models.variogram_model", models, "variogram_model",
             ("calls",), calls_only=True)
    for name in ("cov_from_power_spectrum", "legendre_sum"):
        function("geostat.spectrum." + name, sp.geostat.spectrum, name)
    for name in MEASURES:
        function("geostat.measures." + name, sp.geostat.measures, name)

    for name in CLI:
        tracer.command("cli." + name, sp.cli.main.commands[name])
        report("cli." + name, ("self_s",))
    return spec


def per_layer(spec, totals, passes):
    """Per-pass per-layer metrics from ``Tracer.totals()`` over ``passes``."""
    out = {}
    for metric, (unit, span, field) in spec.items():
        value = totals.get(span, {}).get(field, 0.0)
        if field != "maxrss_rise_mb":
            value = value / passes
        out[metric] = (value, unit)
    items = sum(totals.get("healpix." + n, {}).get("items", 0)
                for n in HEALPIX)
    busy = sum(totals.get("healpix." + n, {}).get("self_s", 0.0)
               for n in HEALPIX)
    out["healpix.items_per_s"] = (items / busy if busy else 0.0, "1/s")
    reads = totals.get("fits.read_rows", {})
    payload = reads.get("payload_bytes", 0)
    out["fits.useful_byte_ratio"] = (
        reads.get("requested_bytes", 0) / payload if payload else 0.0, "ratio")
    return out
