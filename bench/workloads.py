"""The three benchmark workloads.

A workload builds its fixtures and oracles in ``setup`` (from the seed
alone) and lists the operations of one pass in ``ops``.  Each operation is
timed on its own; its check runs afterwards, outside the timing, and
raises :class:`Mismatch` when the output is wrong.  Checks compare against
values computed in ``setup`` and call no skypix function, so the traced
run sees only the operations' own calls.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracles


class Mismatch(Exception):
    """An operation returned a wrong output."""


@dataclass
class Op:
    name: str
    metric: str      # end-to-end metric the op's time adds to
    run: object      # () -> output
    check: object    # (output) -> None, raises Mismatch


def expect(condition, message, *args):
    if not condition:
        raise Mismatch(message % args)


def unit(theta, phi):
    return np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi), math.cos(theta)])


def disc_spec(theta, phi, r, complement=False):
    return {"kind": "disc", "complement": complement,
            "center": {"theta": theta, "phi": phi}, "r": r}


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh)


def file_record(path, rows):
    return {"path": os.path.basename(path), "rows": int(rows),
            "bytes": os.path.getsize(path)}


def load_frame_csv(path, columns):
    """Parse a frame CSV written by skypix with numpy alone."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    expect(header == ["pix", "theta", "phi"] + columns,
           "%s header %s", os.path.basename(path), header)
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(path + ".meta.json") as fh:
        meta = json.load(fh)
    return data, meta


def check_frame_csv(path, pix, theta, phi, values, meta):
    data, got_meta = load_frame_csv(path, ["I"])
    expect(got_meta == meta, "sidecar %s != %s", got_meta, meta)
    expect(len(data) == len(pix), "%d rows, expected %d", len(data), len(pix))
    expect(np.array_equal(data[:, 0], pix), "pixel keys differ")
    expect(np.array_equal(data[:, 1], theta), "theta differs")
    expect(np.array_equal(data[:, 2], phi), "phi differs")
    expect(np.array_equal(data[:, 3], values), "column I differs")


class Workload:
    """Base: subclasses fill ``self.ops`` and ``self.fixtures`` in setup."""

    def __init__(self, sp, seed, workdir):
        self.sp = sp
        self.seed = seed
        self.dir = workdir
        self.ops = []
        self.fixtures = {}
        self.observed = {}   # measurements taken by checks, e.g. max_abs_dev

    def path(self, name):
        return os.path.join(self.dir, name)


# ---------------------------------------------------------------------------

class MapPipeline(Workload):
    """The analyst's CLI path on an nside-512 NESTED single-column map."""

    NSIDE = 512
    CELL_NSIDE = 64
    SAMPLE = 20000
    SUBSAMPLE = 8000
    MAX_DIST = 0.1
    BINS = 30
    LMAX = 2500
    POINTS = 1001
    # a bin passes when within this many standard errors of the exact value
    SUBSAMPLE_Z = 6.0
    # families the fit op leaves out: they raise on some seeds (README.md)
    UNFIT = ("sinepower",)

    def cli(self, *args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.sp.cli.main([str(a) for a in args], standalone_mode=False)
        return buf.getvalue()

    def setup(self):
        sp, seed, nside = self.sp, self.seed, self.NSIDE
        healpix = sp.healpix
        npix = healpix.npix(nside)
        pix = np.arange(1, npix + 1, dtype=np.int64)
        xyz = healpix.pix2vec(nside, pix, healpix.NESTED)
        # One normal value per nside-64 cell (~0.016 rad) plus pixel noise:
        # the variogram rises over ~0.03 rad, inside max_dist, so the fits
        # are well posed.  On white noise (what mkfits writes) the curve is
        # flat and the fit times swing about fivefold from seed to seed.
        rng = np.random.default_rng(seed)
        cells = rng.standard_normal(healpix.npix(self.CELL_NSIDE))
        shift = 2 * (nside // self.CELL_NSIDE).bit_length() - 2
        field = cells[(pix - 1) >> shift] + 0.3 * rng.standard_normal(npix)
        self.map = self.path("map.fits")
        sp.fits.write_map(self.map, {"I": field.astype(np.float32)},
                          nside=nside, ordering="nested")
        values = np.asarray(oracles.memmap_table(self.map, ["I"], npix)["I"],
                            dtype=np.float64)
        meta = {"nside": nside, "ordering": "nested", "mode": "cmb"}

        # the sample: reference splitmix64 rows, memmap values
        rows = oracles.splitmix64_sample(npix, self.SAMPLE, seed)
        s_theta, s_phi = healpix.pix2ang(nside, rows, healpix.NESTED)
        s_values = values[rows - 1]
        self.sample_csv = self.path("s.csv")

        # the annulus window: brute force over every center
        center = unit(math.pi / 2, 0.0)
        self.annulus = self.path("annulus.json")
        write_json(self.annulus, [disc_spec(math.pi / 2, 0.0, 0.5, True),
                                  disc_spec(math.pi / 2, 0.0, 1.0)])
        outer, near_outer = oracles.disc_membership(xyz, center, 1.0)
        hole, near_hole = oracles.disc_membership(xyz, center, 0.5)
        w_inside = outer & ~hole
        w_near = near_outer | near_hole
        self.window_csv = self.path("w.csv")
        self.window_report = self.path("w.report.json")

        # hemisphere strata: north holds the equator ring, south does not
        self.strata = [self.path("north-hemisphere.json"),
                       self.path("south-hemisphere.json")]
        write_json(self.strata[0], disc_spec(0.0, 0.0, math.pi / 2 + 1e-6))
        write_json(self.strata[1], disc_spec(math.pi, 0.0, math.pi / 2 - 1e-6))
        w_z = xyz[w_inside, 2]
        w_vals = values[w_inside]
        north = w_z >= -math.sin(1e-6)
        south = w_z <= -math.sin(1e-6)
        expect(not np.any(north & south), "oracle strata overlap")
        q_ref = oracles.q_statistic([w_vals[north], w_vals[south]])

        # variograms: exact pairs within max_dist
        xyz20 = healpix.pix2vec(nside, rows, healpix.NESTED)
        v20 = oracles.exact_variogram(xyz20, s_values, self.MAX_DIST,
                                      self.BINS)
        sub = oracles.splitmix64_sample(self.SAMPLE, self.SUBSAMPLE, seed) - 1
        xyz8 = healpix.pix2vec(nside, rows[sub], healpix.NESTED)
        v8 = oracles.exact_variogram(xyz8, s_values[sub], self.MAX_DIST,
                                     self.BINS)
        self.v20_csv = self.path("v20.csv")
        self.v8_csv = self.path("v8.csv")

        # a smooth spectrum from l=2, and its Legendre-series oracle
        ell = np.arange(2, self.LMAX + 1)
        cl = 1e3 / (ell + 10.0) ** 2 * (1 + 0.1 * rng.standard_normal(ell.size))
        self.spectrum = self.path("spectrum.csv")
        with open(self.spectrum, "w") as fh:
            fh.write("l,C_l\n")
            fh.writelines("%d,%r\n" % (l, float(c)) for l, c in zip(ell, cl))
        cl_dense = np.zeros(self.LMAX + 1)
        cl_dense[ell] = cl
        grid = np.cos(np.linspace(0.0, math.pi, self.POINTS))
        cov_ref = oracles.legendre_covariance(cl_dense, grid)
        self.cov_csv = self.path("cov.csv")

        self.fixtures = {"map": file_record(self.map, npix),
                         "spectrum": file_record(self.spectrum, ell.size),
                         "window_rows": int(w_inside.sum()),
                         "window_boundary_rows": int(w_near.sum()),
                         "sample_rows": self.SAMPLE}

        def check_sample(_):
            check_frame_csv(self.sample_csv, rows, s_theta, s_phi, s_values,
                            meta)

        def check_window(_):
            data, got_meta = load_frame_csv(self.window_csv, ["I"])
            expect(got_meta == meta, "sidecar %s", got_meta)
            got = np.zeros(npix, dtype=bool)
            got[data[:, 0].astype(np.int64) - 1] = True
            wrong = (got != w_inside) & ~w_near
            expect(not wrong.any(), "%d window rows differ from brute force",
                   int(wrong.sum()))
            expect(np.array_equal(data[:, 3], values[got]),
                   "window values differ")
            with open(self.window_report) as fh:
                report = json.load(fh)
            expect(report["rows"] == len(data), "report rows %s",
                   report["rows"])

        def check_qstat(out):
            q = json.loads(out)["q"]
            expect(q is not None and abs(q - q_ref) <= 1e-10,
                   "q %r, oracle %r", q, q_ref)

        def read_curve(path):
            with open(path) as fh:
                expect(fh.readline().strip() == "lag,value,count",
                       "curve header")
            return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)

        width = self.MAX_DIST / self.BINS
        lags = (np.arange(1, self.BINS + 1) - 0.5) * width

        def check_v20(_):
            curve = read_curve(self.v20_csv)
            counts, est, var = v20
            expect(np.allclose(curve[:, 0], lags, rtol=1e-12), "lags differ")
            # Above PAIR_BUDGET enumerated pairs skypix bins a seeded
            # with-replacement subsample of PAIR_BUDGET ordered draws, of
            # which a pair in bin b is hit budget*count_b/n**2 times on
            # average; the bin mean then has standard error
            # sqrt(var_b / hits_b).  An exact estimator has error ~1e-15.
            hits = self.sp.geostat.PAIR_BUDGET * counts / self.SAMPLE ** 2
            populated = counts > 0
            dev = np.abs(curve[:, 1] - est)[populated]
            se = np.sqrt(var[populated] / hits[populated])
            self.observed["geostat.empirical.max_abs_dev"] = float(dev.max())
            z = dev / np.maximum(se, 1e-12 * np.abs(est[populated]))
            expect(np.all(z <= self.SUBSAMPLE_Z),
                   "20k curve off the exact one by %.1f standard errors",
                   float(z.max()))

        def check_v8(_):
            curve = read_curve(self.v8_csv)
            counts, est, _ = v8
            expect(np.array_equal(curve[:, 2], counts), "8k pair counts differ")
            populated = counts > 0
            expect(np.allclose(curve[populated, 1], est[populated],
                               rtol=1e-9, atol=0), "8k values differ")

        def check_fit(path, family):
            def check(_):
                with open(path) as fh:
                    fit = json.load(fh)
                params = [fit[k] for k in ("sigmasq", "psi", "kappa",
                                           "kappa2", "nugget")
                          if fit[k] is not None]
                expect(fit["family"] == family, "family %s", fit["family"])
                expect(all(math.isfinite(p) for p in params),
                       "%s parameters not finite: %s", family, params)
                expect(family != "matern" or fit["converged"],
                       "matern fit did not converge")
            return check

        def check_covps(out):
            json.loads(out)
            got = np.loadtxt(self.cov_csv, delimiter=",", skiprows=1, ndmin=2)
            expect(np.array_equal(got[:, 0], grid), "covps grid differs")
            err = np.max(np.abs(got[:, 1] - cov_ref))
            expect(err <= 1e-9 * np.max(np.abs(cov_ref)),
                   "covps off Legendre oracle by %g", err)

        s = seed
        self.ops = [
            Op("sample", "sample_s",
               lambda: self.cli("sample", self.map, "--size", self.SAMPLE,
                                "--seed", s, "-o", self.sample_csv),
               check_sample),
            Op("window", "window_s",
               lambda: self.cli("window", self.map, "--spec", self.annulus,
                                "-o", self.window_csv,
                                "--report", self.window_report),
               check_window),
            Op("qstat", "qstat_s",
               lambda: self.cli("qstat", self.window_csv,
                                "--strata", self.strata[0],
                                "--strata", self.strata[1]),
               check_qstat),
            Op("variogram20k", "variogram20k_s",
               lambda: self.cli("variogram", self.sample_csv,
                                "--max-dist", self.MAX_DIST,
                                "--bins", self.BINS, "--seed", s,
                                "-o", self.v20_csv),
               check_v20),
            Op("variogram8k", "variogram8k_s",
               lambda: self.cli("variogram", self.sample_csv,
                                "--sample", self.SUBSAMPLE,
                                "--max-dist", self.MAX_DIST,
                                "--bins", self.BINS, "--seed", s,
                                "-o", self.v8_csv),
               check_v8),
        ]
        # every family but sinepower, whose fit raises OverflowError on
        # about 30% of seeds (known defect 2 in README.md)
        for family in sp.geostat.FAMILIES:
            if family in self.UNFIT:
                continue
            out = self.path("fit-%s.json" % family)
            self.ops.append(Op(
                "fit." + family, "model_s",
                lambda f=family, o=out: self.cli(
                    "fit", self.v20_csv, "--family", f, "--weights", "equal",
                    "--seed", s, "-o", o),
                check_fit(out, family)))
        self.ops.append(Op(
            "covps", "model_s",
            lambda: self.cli("covps", self.spectrum, "--lmax", self.LMAX,
                             "--points", self.POINTS, "-o", self.cov_csv),
            check_covps))


# ---------------------------------------------------------------------------

class CatalogHp(Workload):
    """A point catalogue of seeded directions keyed at nside 1024."""

    NSIDE = 1024
    POINTS = 1_000_000
    NEIGHBOURS = 100_000
    BOX_LEVEL = 4

    def setup(self):
        sp, nside = self.sp, self.NSIDE
        healpix, geom, frame = sp.healpix, sp.geom, sp.frame
        rng = np.random.default_rng(self.seed)
        theta = np.arccos(rng.uniform(-1.0, 1.0, self.POINTS))
        phi = rng.uniform(0.0, 2 * np.pi, self.POINTS)
        st = np.sin(theta)
        xyz = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)],
                       axis=-1)
        values = rng.standard_normal(self.POINTS)
        columns = {"I": values}

        # RING assignment mapped to NESTED must equal the nested keys
        keys = healpix.ring2nest(nside, healpix.ang2pix(nside, theta, phi,
                                                        healpix.RING))
        distinct = oracles.distinct_count(keys)
        expect(distinct < keys.size,
               "catalogue must collide to exercise hp mode")
        npix = healpix.npix(nside)
        pixel_size = math.sqrt(4 * math.pi / npix)

        # a concave pentagon (notch at D), star-shaped about D
        t0, p0 = 1.2, 2.0
        corners = [(t0 - 0.3, p0 - 0.3), (t0 - 0.3, p0 + 0.3),
                   (t0 + 0.3, p0 + 0.3), (t0, p0), (t0 + 0.3, p0 - 0.3)]
        region = geom.polygon(corners, assumed_convex=False)
        a, b, c, d, e = [unit(t, p) for t, p in corners]
        inside, near = oracles.fan_polygon_membership(xyz, d, [e, a, b, c])

        q = np.linspace(1.01, 10.0, 20)
        renyi_ref = oracles.renyi(keys, values, 10, self.BOX_LEVEL, q)
        bins = int(math.ceil(1 + math.log2(self.POINTS)))
        entropy_ref = oracles.entropy_bits(values, bins)
        theta_edges = np.linspace(0.0, math.pi, 19)
        theta_counts = np.bincount(
            np.clip(np.searchsorted(theta_edges, theta, side="right") - 1,
                    0, 17), minlength=18)
        w_keys = keys[inside]
        w_vals = values[inside]

        self.fixtures = {"points": {"rows": self.POINTS,
                                    "bytes": int(3 * 8 * self.POINTS)},
                         "window_rows": int(inside.sum()),
                         "distinct_pixels": distinct}
        state = {}

        def assign():
            state["frame"] = frame.assign_pixels(theta, phi, columns, nside)
            return state["frame"]

        def window():
            state["window"] = frame.extract_window(state["frame"], region)
            return state["window"]

        def check_assign(f):
            expect(f.mode == "hp", "collisions must give an hp frame")
            expect(np.array_equal(f.pix, keys),
                   "nested keys differ from RING ang2pix -> ring2nest")
            expect(f.coords is not None
                   and np.array_equal(f.coords[0], theta)
                   and np.array_equal(f.coords[1], phi),
                   "explicit coordinates not kept")

        def check_round_trip(back):
            expect(np.array_equal(back, keys), "ring2nest(nest2ring(k)) != k")

        def check_neighbours(nb):
            own = keys[:self.NEIGHBOURS]
            expect(nb.shape == (own.size, 8), "neighbour shape %s", nb.shape)
            valid = nb > 0
            expect(np.all(nb[valid] <= npix) and np.all(nb != own[:, None]),
                   "neighbour indices out of range or self")
            expect(np.all(valid.sum(axis=1) >= 7), "fewer than 7 neighbours")

        def check_centers(dist):
            expect(dist.shape == (self.POINTS,), "distance shape")
            expect(np.all(np.isfinite(dist))
                   and np.all(dist <= 1.5 * pixel_size),
                   "a point lies %.3g pixel sizes from its center",
                   float(np.max(dist)) / pixel_size)

        order = np.argsort(theta, kind="stable")
        order_theta = theta[order]

        def check_window(sub):
            # rows keep their catalogue coordinates, which identify them
            idx = order[np.searchsorted(order_theta, sub.coords[0])]
            expect(np.array_equal(theta[idx], sub.coords[0])
                   and np.array_equal(phi[idx], sub.coords[1]),
                   "window rows are not catalogue rows")
            expect(np.array_equal(sub.pix, keys[idx])
                   and np.array_equal(sub.column("I"), values[idx]),
                   "window keys or values differ")
            got = np.zeros(self.POINTS, dtype=bool)
            got[idx] = True
            expect(np.count_nonzero(got) == len(sub), "duplicate window rows")
            wrong = (got != inside) & ~near
            expect(not wrong.any(), "%d catalogue rows differ from brute "
                   "force", int(wrong.sum()))

        def check_summary(summary):
            expect(summary["rows"] == w_keys.size, "summary rows")
            area = oracles.distinct_count(w_keys) * 4 * math.pi / npix
            expect(math.isclose(summary["covered_area"], area, rel_tol=1e-12),
                   "covered area %r, oracle %r", summary["covered_area"], area)
            stats = summary["columns"]["I"]
            expect(stats["min"] == w_vals.min() and stats["max"] == w_vals.max()
                   and math.isclose(stats["mean"], w_vals.mean(),
                                    rel_tol=1e-9, abs_tol=1e-12),
                   "summary stats differ")

        def check_renyi(out):
            got_q, got_t = out
            expect(np.array_equal(got_q, q), "renyi q grid")
            expect(np.allclose(got_t, renyi_ref, rtol=1e-9, atol=0),
                   "renyi T(q) differs")

        def check_entropy(h):
            expect(math.isclose(h, entropy_ref, rel_tol=1e-12),
                   "entropy %r, oracle %r", h, entropy_ref)

        def check_marginals(marg):
            expect(np.array_equal(marg["theta"]["count"], theta_counts),
                   "theta marginal counts differ")
            expect(marg["phi"]["count"].sum() == self.POINTS,
                   "phi marginal counts")

        measures = sp.geostat
        self.ops = [
            Op("assign", "assign_s", assign, check_assign),
            Op("round_trip", "addressing_s",
               lambda: healpix.ring2nest(nside, healpix.nest2ring(
                   nside, state["frame"].pix)),
               check_round_trip),
            Op("neighbours", "addressing_s",
               lambda: healpix.neighbours_index(
                   nside, state["frame"].pix[:self.NEIGHBOURS]),
               check_neighbours),
            Op("centers", "addressing_s",
               lambda: geom.geodesic_distance(xyz, healpix.pix2vec(
                   nside, state["frame"].pix, healpix.NESTED)),
               check_centers),
            Op("window", "window_s", window, check_window),
            Op("summarize", "measures_s",
               lambda: frame.summarize(state["window"]), check_summary),
            Op("renyi", "measures_s",
               lambda: measures.renyi_function(state["frame"], "I",
                                               box_level=self.BOX_LEVEL),
               check_renyi),
            Op("entropy", "measures_s",
               lambda: measures.entropy(state["frame"], "I"), check_entropy),
            Op("marginals", "measures_s",
               lambda: measures.angular_marginals(state["frame"], "I"),
               check_marginals),
        ]


# ---------------------------------------------------------------------------

class LazyIo(Workload):
    """Reads beside writes on an nside-1024 two-column map."""

    NSIDE = 1024
    SCATTERED = 50_000
    WINDOWS = 40
    SAMPLE = 50_000
    EXPORT_NSIDE = 512

    def setup(self):
        sp = self.sp
        healpix, fits = sp.healpix, sp.fits
        rng = np.random.default_rng(self.seed)
        npix = healpix.npix(self.NSIDE)
        table = {"I": rng.standard_normal(npix).astype(np.float32),
                 "Q": rng.standard_normal(npix).astype(np.float32)}
        self.map = self.path("map.fits")
        fits.write_map(self.map, table, nside=self.NSIDE, ordering="nested")
        disk = oracles.memmap_table(self.map, ["I", "Q"], npix)
        expect(np.array_equal(disk["I"], table["I"])
               and np.array_equal(disk["Q"], table["Q"]),
               "fixture does not decode to the written columns")
        col_i = table["I"].astype(np.float64)
        row_bytes = 8

        scattered = np.unique(rng.integers(1, npix + 1, 2 * self.SCATTERED))
        scattered = np.sort(rng.choice(scattered, self.SCATTERED,
                                       replace=False))
        coarse = np.sort(rng.choice(healpix.npix(8), self.WINDOWS,
                                    replace=False) + 1)
        ranges = [healpix.pixel_window(3, 10, int(p)) for p in coarse]
        sample = oracles.splitmix64_sample(npix, self.SAMPLE, self.seed)

        # the export: the map averaged to nside 512 over nested children
        export = {name: col.reshape(-1, 4).mean(axis=1, dtype=np.float32)
                  for name, col in table.items()}
        self.export = self.path("export.fits")
        export_rows = healpix.npix(self.EXPORT_NSIDE)

        self.fixtures = {"map": file_record(self.map, npix),
                         "scattered_rows": int(scattered.size),
                         "window_rows": int(sum(r.size for r in ranges)),
                         "export_rows": int(export_rows)}
        state = {}

        def reads(run):
            """Run ``run(src)``; return its output and the new extents."""
            def op():
                src = state["src"]
                before = len(src.payload_reads)
                return run(src), src.payload_reads[before:]
            return op

        def expect_reads(new, rows):
            got = sum(n for _, n in new)
            expect(got == rows.size * row_bytes, "payload bytes %d for %d rows",
                   got, rows.size)
            expect(len(new) == oracles.contiguous_runs(rows),
                   "%d extents, %d runs", len(new),
                   oracles.contiguous_runs(rows))

        def open_map():
            state["src"] = fits.open_map(self.map)
            return state["src"]

        def check_open(src):
            expect((src.nside, src.ordering, src.row_count, src.row_bytes)
                   == (self.NSIDE, "nested", npix, row_bytes),
                   "header differs")
            expect([c.name for c in src.columns] == ["I", "Q"], "columns")
            expect(src.payload_reads == [], "open touched the payload")

        def check_scattered(out):
            got, new = out
            expect(np.array_equal(got["I"], col_i[scattered - 1]),
                   "scattered rows differ from memmap decode")
            expect_reads(new, scattered)

        def check_windows(out):
            got, new = out
            for rows, part in zip(ranges, got):
                expect(np.array_equal(part["I"], table["I"][rows - 1])
                       and np.array_equal(part["Q"], table["Q"][rows - 1]),
                       "window rows differ from memmap decode")
            expect(len(new) == len(ranges), "one extent per window range")
            expect(sum(n for _, n in new)
                   == sum(r.size for r in ranges) * row_bytes,
                   "window payload bytes")

        def check_sample(out):
            (got, rows), new = out
            expect(np.array_equal(rows, sample),
                   "sample rows differ from reference splitmix64")
            expect(np.array_equal(got["I"], col_i[sample - 1]),
                   "sampled values differ")
            expect_reads(new, sample)

        def check_read_all(out):
            got, new = out
            expect(np.array_equal(got["I"], table["I"]), "read_all differs")
            expect_reads(new, np.arange(1, npix + 1))

        def check_export(nbytes):
            expect(nbytes == os.path.getsize(self.export), "byte count")
            cards, _ = oracles.read_headers(self.export)
            expect([cards.get(k) for k in ("NSIDE", "ORDERING", "NAXIS2",
                                           "TTYPE1", "TTYPE2", "TFORM1",
                                           "TFORM2")]
                   == [str(self.EXPORT_NSIDE), "NESTED", str(export_rows),
                       "I", "Q", "1E", "1E"], "export header differs: %s",
                   cards)
            disk = oracles.memmap_table(self.export, ["I", "Q"], export_rows)
            expect(np.array_equal(disk["I"], export["I"])
                   and np.array_equal(disk["Q"], export["Q"]),
                   "export data differs")

        self.ops = [
            Op("open_map", "open_s", open_map, check_open),
            Op("read_rows.scattered", "read_rows_s",
               reads(lambda src: src.read_rows(scattered, ["I"])),
               check_scattered),
            Op("read_rows.windows", "read_rows_s",
               reads(lambda src: [src.read_rows(r, ["I", "Q"])
                                  for r in ranges]),
               check_windows),
            Op("sample_rows", "sample_s",
               reads(lambda src: src.sample_rows(self.SAMPLE, self.seed,
                                                 ["I"])),
               check_sample),
            Op("read_all", "read_all_s",
               reads(lambda src: src.read_all(["I"])), check_read_all),
            Op("write_map", "write_s",
               lambda: fits.write_map(self.export, export,
                                      nside=self.EXPORT_NSIDE,
                                      ordering="nested"),
               check_export),
        ]


WORKLOADS = {"map_pipeline": MapPipeline, "catalog_hp": CatalogHp,
             "lazy_io": LazyIo}

# end-to-end metrics each workload reports besides the shared ones
OP_METRICS = {
    "map_pipeline": ("sample_s", "window_s", "qstat_s", "variogram20k_s",
                     "variogram8k_s", "model_s"),
    "catalog_hp": ("assign_s", "addressing_s", "window_s", "measures_s"),
    "lazy_io": ("open_s", "read_rows_s", "sample_s", "read_all_s",
                "write_s"),
}
