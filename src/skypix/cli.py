"""Command line front end.

Exit codes: 0 success, 2 usage or input-parse failure (a missing or
unreadable input file, or an unwritable output file, included), 3 network
failure, 4 computation failure (the message names the failing command).
Commands raise; :class:`ErrorBoundary`, the click group, is the one place
that maps an error to its exit code.  Every subcommand is deterministic
given ``--seed``: identical invocations write byte-identical CSV/JSON/SVG
outputs.
"""

import json
import math
import sys

import click
import numpy as np

from . import download as dl
from . import fits as fitsio
from . import frame as skyframe
from . import csvio, geom, geostat, healpix, plotsvg
from .errors import (FormatError, NetworkError, SchemaError, SkypixError)

# first match wins: NetworkError is an OSError
EXIT_CODES = (((FormatError, SchemaError), 2), (NetworkError, 3), (OSError, 2),
              ((SkypixError, ValueError), 4))
ANGDIST_HEADER = ["axis", "center", "mean", "count"]


class ErrorBoundary(click.Group):
    """Runs a subcommand; an error it raises is printed as ``<command>:
    <message>`` on stderr and exits with its code in ``EXIT_CODES``."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (SkypixError, ValueError, OSError) as exc:
            click.echo("%s: %s" % (ctx.invoked_subcommand, exc), err=True)
            sys.exit(next(code for kinds, code in EXIT_CODES
                          if isinstance(exc, kinds)))


def _json_out(payload, out):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _check_sample_size(sample, rows):
    """A sample outside ``1..rows`` is a usage error (exit 2)."""
    if sample is not None and not 0 < sample <= rows:
        raise click.UsageError("sample size %d must be in 1..%d" % (sample, rows))


def _load_frame(path, sample=None, seed=0, columns=None, region=None):
    """A frame from either a map file or a frame CSV, optionally sampled or
    cut to a window region (a map then reads only the rows inside it)."""
    if str(path).endswith(".csv"):
        f = skyframe.read_csv(path)
        for name in columns or ():
            f.column(name)
        if region is not None:
            f = skyframe.extract_window(f, region)
        _check_sample_size(sample, len(f))
    else:
        src = fitsio.open_map(path)
        _check_sample_size(sample, src.row_count)
        if sample is not None:
            return skyframe.frame_from_map(src, sample_size=sample, seed=seed,
                                           columns=columns)
        if region is None:
            f = skyframe.frame_from_map(src, columns=columns)
        else:
            rows = skyframe.window_pixels(src.nside, region,
                                          src.ordering or healpix.RING)
            f = skyframe.frame_from_map(src, rows=rows, columns=columns)
            f.windows.append(region)
    if sample is not None:
        f = skyframe.sample_frame(f, sample, seed)
    return f


def _read_table(path, header, keys=()):
    """Columns of a table CSV whose header must be exactly ``header``."""
    def check_header(got):
        if got != header:
            raise FormatError("%s must have header %s"
                              % (path, ",".join(header)))
    return csvio.read_table(path, check_header, keys, FormatError)[1]


def _load_json(path, what):
    """Parsed JSON of ``path``; malformed text raises ``FormatError``."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError("%s %s is not valid JSON: %s"
                              % (what, path, exc))


def _load_windows(paths):
    regions = []
    for p in paths:
        spec = _load_json(p, "window spec")
        try:
            regions.append(geom.WindowSet.from_spec(spec))
        except FormatError as exc:
            raise FormatError("%s: %s" % (p, exc))
    return regions


def _load_fit_model(path):
    """The covariance model of a fit JSON that ``skypix fit`` wrote."""
    d = _load_json(path, "fit JSON")
    try:
        return geostat.CovarianceModel(
            d["family"], d["sigmasq"], d["psi"], d.get("kappa"),
            d.get("kappa2"), d.get("nugget", 0.0))
    except (KeyError, TypeError) as exc:
        raise FormatError("fit JSON %s: missing or ill-typed field (%s: %s)"
                          % (path, type(exc).__name__, exc))


@click.group(cls=ErrorBoundary)
def main():
    """Equal-area sky maps: inspection, windows, sampling and estimators."""


@main.command()
@click.argument("map_path", type=click.Path())
@click.option("-o", "--out", type=click.Path(), help="Write JSON here instead of stdout.")
def info(map_path, out):
    """Report header metadata of a map file."""
    src = fitsio.open_map(map_path)
    area = healpix.pixel_area(src.nside)
    _json_out({
        "nside": src.nside,
        "ordering": src.ordering,
        "rows": src.row_count,
        "row_bytes": src.row_bytes,
        "columns": [{"name": c.name, "tform": "1" + c.tform}
                    for c in src.columns],
        "resolution_arcmin": math.sqrt(area) * (180 / math.pi) * 60,
    }, out)


@main.command()
@click.argument("out_path", type=click.Path())
@click.option("--nside", type=int, default=16, show_default=True)
@click.option("--scheme", type=click.Choice(["ring", "nested"]), default="nested",
              show_default=True)
@click.option("--columns", default="I", show_default=True,
              help="Comma-separated column names.")
@click.option("--pattern", type=click.Choice(["random", "index"]), default="random",
              show_default=True, help="random: seeded normals; index: row number.")
@click.option("--seed", type=int, default=0, show_default=True)
def mkfits(out_path, nside, scheme, columns, pattern, seed):
    """Generate a synthetic full-sky map file (test fixture)."""
    n = healpix.npix(nside)
    rng = np.random.default_rng(seed)
    table = {}
    for name in columns.split(","):
        if pattern == "index":
            table[name] = np.arange(1, n + 1, dtype=np.float32)
        else:
            table[name] = rng.standard_normal(n).astype(np.float32)
    fitsio.write_map(out_path, table, nside=nside, ordering=scheme)
    fitsio.open_map(out_path)   # wrote-it-reads-back smoke check


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--size", type=int, required=True, help="Sample size.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--out", type=click.Path(), required=True,
              help="Output frame CSV.")
def sample(input_path, size, seed, out):
    """Draw a seeded random sample of rows into a frame CSV."""
    skyframe.write_csv(_load_frame(input_path, sample=size, seed=seed), out)


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--spec", "spec_path", type=click.Path(), required=True,
              help="Window JSON (object or list).")
@click.option("-o", "--out", type=click.Path(), help="Extracted frame CSV.")
@click.option("--report", type=click.Path(), help="Write the JSON report here.")
def window(input_path, spec_path, out, report):
    """Extract the rows inside a window region; print a summary report."""
    sub = _load_frame(input_path, region=_load_windows([spec_path])[0])
    if out:
        skyframe.write_csv(sub, out)
    _json_out(skyframe.summarize(sub), report)


def _curve_command(kind):
    @click.argument("input_path", type=click.Path())
    @click.option("--column", default="I", show_default=True)
    @click.option("--max-dist", type=float, default=math.pi, show_default=True)
    @click.option("--bins", type=int, default=30, show_default=True)
    @click.option("--sample", type=int, default=None,
                  help="Sample this many rows first.")
    @click.option("--seed", type=int, default=0, show_default=True)
    @click.option("--degrees", is_flag=True,
                  help="Interpret --max-dist in degrees.")
    @click.option("-o", "--out", type=click.Path(), required=True,
                  help="Output curve CSV (lag,value,count).")
    def run_command(input_path, column, max_dist, bins, sample, seed, degrees,
                    out):
        if degrees:
            max_dist = math.radians(max_dist)
        f = _load_frame(input_path, sample=sample, seed=seed, columns=[column])
        estimate = (geostat.empirical_covariance if kind == "cov"
                    else geostat.empirical_variogram)
        estimate(f, column, max_dist, bins, seed=seed).write_csv(out)
    return run_command


main.command("cov", help="Empirical covariance curve (bin 0 at lag zero).")(
    _curve_command("cov"))
main.command("variogram", help="Empirical variogram curve.")(
    _curve_command("variogram"))


@main.command()
@click.argument("curve_path", type=click.Path())
@click.option("--family", type=click.Choice(list(geostat.FAMILIES)),
              default="matern", show_default=True)
@click.option("--weights", type=click.Choice(["equal", "npairs", "cressie"]),
              default="equal", show_default=True)
@click.option("--fix-nugget/--free-nugget", default=True, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--out", type=click.Path(), help="Write fit JSON here.")
def fit(curve_path, family, weights, fix_nugget, seed, out):
    """Fit a covariance-family variogram to an empirical curve."""
    curve = geostat.EmpiricalCurve.read_csv(curve_path)
    result = geostat.fit_variogram(curve, family, weights=weights,
                                   fix_nugget=fix_nugget, seed=seed)
    _json_out(result.to_dict(), out)


@main.command()
@click.argument("spectrum_path", type=click.Path())
@click.option("--lmax", type=int, required=True)
@click.option("--points", type=int, default=1001, show_default=True,
              help="Angular grid size over [0, pi].")
@click.option("-o", "--out", type=click.Path(), required=True,
              help="Output CSV (cos_theta,value).")
def covps(spectrum_path, lmax, points, out):
    """Covariance estimate from an angular power spectrum CSV."""
    ps = geostat.read_spectrum_csv(spectrum_path)
    grid = np.cos(np.linspace(0.0, math.pi, points))
    cov = geostat.cov_from_power_spectrum(ps, lmax, grid)
    csvio.write_table(out, ["cos_theta", "value"], [],
                      [cov.cos_theta, cov.values])
    _json_out({"lmax": cov.lmax, "diagnostics": cov.diagnostics}, None)


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--column", default="I", show_default=True)
@click.option("--bins", type=int, default=None,
              help="Histogram bins (default: Sturges).")
@click.option("--window", "window_path", type=click.Path(), default=None,
              help="Restrict to this window JSON first.")
def entropy(input_path, column, bins, window_path):
    """Histogram entropy of a column, in bits."""
    region = _load_windows([window_path])[0] if window_path else None
    f = _load_frame(input_path, columns=[column], region=region)
    _json_out({"entropy_bits": geostat.entropy(f, column, bins)}, None)


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--column", default="I", show_default=True)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--window", "window_path", type=click.Path(), default=None)
def fmf(input_path, column, alpha, window_path):
    """Excursion-set area: where the column exceeds the threshold."""
    region = _load_windows([window_path])[0] if window_path else None
    f = _load_frame(input_path, columns=[column], region=region)
    _json_out({"area": geostat.first_minkowski(f, column, alpha)}, None)


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--column", default="I", show_default=True)
@click.option("--qmin", type=float, default=1.01, show_default=True)
@click.option("--qmax", type=float, default=10.0, show_default=True)
@click.option("--points", type=int, default=20, show_default=True)
@click.option("--box-level", type=int, default=1, show_default=True)
@click.option("-o", "--out", type=click.Path(), required=True,
              help="Output CSV (q,T).")
def renyi(input_path, column, qmin, qmax, points, box_level, out):
    """Sample Renyi function on a uniform q grid."""
    f = _load_frame(input_path, columns=[column])
    q, t = geostat.renyi_function(f, column, qmin, qmax, points, box_level)
    csvio.write_table(out, ["q", "T"], [], [q, t])


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--column", default="I", show_default=True)
@click.option("--strata", "strata_paths", type=click.Path(), multiple=True,
              required=True, help="Window JSON per stratum (repeatable).")
def qstat(input_path, column, strata_paths):
    """Stratified-heterogeneity statistic over disjoint strata."""
    f = _load_frame(input_path, columns=[column])
    value = geostat.q_statistic(f, column, _load_windows(strata_paths))
    _json_out({"q": value if not math.isnan(value) else None,
               "defined": not math.isnan(value)}, None)


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--column", default="I", show_default=True)
@click.option("--window-a", type=click.Path(), required=True)
@click.option("--window-b", type=click.Path(), required=True)
@click.option("--quantiles", type=int, default=99, show_default=True)
@click.option("-o", "--out", type=click.Path(), required=True,
              help="Output CSV (quantile_a,quantile_b).")
def qq(input_path, column, window_a, window_b, quantiles, out):
    """Matched quantiles of a column in two regions."""
    f = _load_frame(input_path, columns=[column])
    wa, wb = _load_windows([window_a, window_b])
    qa, qb = geostat.qq_pairs(f, column, wa, wb, quantiles)
    csvio.write_table(out, ["quantile_a", "quantile_b"], [], [qa, qb])


@main.command()
@click.argument("input_path", type=click.Path())
@click.option("--column", default="I", show_default=True)
@click.option("--theta-bins", type=int, default=18, show_default=True)
@click.option("--phi-bins", type=int, default=36, show_default=True)
@click.option("-o", "--out", type=click.Path(), required=True,
              help="Output CSV (axis,center,mean,count).")
def angdist(input_path, column, theta_bins, phi_bins, out):
    """Angular marginals: per-bin means against colatitude and longitude."""
    f = _load_frame(input_path, columns=[column])
    marg = geostat.angular_marginals(f, column, theta_bins, phi_bins)
    axis = np.repeat(["theta", "phi"], [theta_bins, phi_bins])
    csvio.write_table(out, ANGDIST_HEADER, [axis],
                      [np.concatenate([marg["theta"][k], marg["phi"][k]])
                       for k in ("centers", "mean", "count")])


@main.command()
@click.argument("kind", type=click.Choice(["curve", "fit", "renyi", "angdist",
                                           "map"]))
@click.argument("input_path", type=click.Path())
@click.option("--fit-json", type=click.Path(), default=None,
              help="Overlay this fit (kind=fit).")
@click.option("--column", default="I", show_default=True,
              help="Color column for kind=map.")
@click.option("--sample", type=int, default=20000, show_default=True,
              help="Points plotted for kind=map.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("-o", "--out", type=click.Path(), required=True,
              help="Output SVG.")
def plot(kind, input_path, fit_json, column, sample, seed, out):
    """Render a static SVG chart from a curve/fit/map input."""
    if kind in ("curve", "fit"):
        curve = geostat.EmpiricalCurve.read_csv(input_path)
        series = [(curve.lags, curve.values, "points")]
        if kind == "fit":
            if not fit_json:
                raise SchemaError("kind=fit needs --fit-json")
            model = _load_fit_model(fit_json)
            lags = np.linspace(0, curve.max_dist, 200)
            series.append((lags, geostat.variogram_model(lags, model),
                           "dashed"))
        svg = plotsvg.line_chart(series, xlabel="geodesic lag",
                                 ylabel="value", title=kind)
    elif kind == "renyi":
        q, t = _read_table(input_path, ["q", "T"])
        svg = plotsvg.line_chart([(q, t, "points")], xlabel="q",
                                 ylabel="T(q)", title="sample Renyi function")
    elif kind == "angdist":
        axis, center, mean, _ = _read_table(input_path, ANGDIST_HEADER,
                                            (object,))
        theta = axis == "theta"   # bar_chart drops the NaN means
        svg = plotsvg.bar_chart(center[theta], mean[theta],
                                xlabel="colatitude", ylabel="mean",
                                title="angular marginal")
    else:
        f = _load_frame(input_path, columns=[column])
        if sample and sample < len(f):
            f = skyframe.sample_frame(f, sample, seed)
        svg = plotsvg.sky_chart(*f.angles(), f.column(column),
                                title="sky view")
    with open(out, "w") as fh:
        fh.write(svg)


@main.command("download")
@click.argument("product", type=click.Choice(["map", "powerspectrum"]))
@click.option("--foreground", type=click.Choice(list(dl.FOREGROUNDS)),
              default="smica", show_default=True)
@click.option("--nside", type=int, default=1024, show_default=True)
@click.option("--link", type=int, default=1, show_default=True,
              help="Numbered spectrum product.")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="URL template overrides (key = value lines).")
@click.option("--offline", is_flag=True, help="Fail fast without touching the network.")
@click.option("-o", "--out", type=click.Path(), required=True)
def download_cmd(product, foreground, nside, link, config_path, offline, out):
    """Fetch a released map or power-spectrum product."""
    config = dl.read_config(config_path)
    if product == "map":
        dl.download_map(foreground, nside, out, config, offline)
    else:
        dl.download_power_spectrum(link, out, config, offline)
    _json_out({"out": out}, None)


if __name__ == "__main__":
    main()
