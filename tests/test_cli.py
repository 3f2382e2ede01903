import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import skypix
from skypix import cli, fits, frame, geom
from skypix.geostat import (EmpiricalCurve, empirical_covariance,
                            empirical_variogram)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def small_map(tmp_path):
    path = tmp_path / "map.fits"
    rng = np.random.default_rng(1)
    n = 16
    fits.write_map(path, {"I": rng.standard_normal(12 * n * n).astype(np.float32)},
                   nside=n, ordering="nested")
    return path


def invoke(runner, args, code=0):
    """Run one command in-process; it must exit with ``code``."""
    result = runner.invoke(cli.main, args, catch_exceptions=False)
    assert result.exit_code == code, result.output
    return result


def test_cli_import_loads_no_scipy():
    # scipy is imported by the functions that use it, not at start-up
    src = os.path.dirname(os.path.dirname(skypix.__file__))
    code = "import json, sys, skypix.cli; print(json.dumps(list(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, cwd=src,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    modules = json.loads(out)
    assert "skypix.cli" in modules
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


def test_info_reports_header(runner, small_map):
    result = invoke(runner, ["info", str(small_map)])
    payload = json.loads(result.output)
    assert payload["nside"] == 16
    assert payload["ordering"] == "nested"
    assert payload["rows"] == 3072
    assert payload["columns"][0] == {"name": "I", "tform": "1E"}


def test_info_resolution_scales_with_nside(runner, tmp_path):
    for nside in (8, 16):
        path = tmp_path / ("m%d.fits" % nside)
        fits.write_map(path, {"I": np.zeros(12 * nside * nside, np.float32)},
                       nside=nside, ordering="ring")
        payload = json.loads(invoke(runner, ["info", str(path)]).output)
        expect = math.sqrt(4 * math.pi / (12 * nside * nside)) * 180 / math.pi * 60
        assert abs(payload["resolution_arcmin"] - expect) < 1e-9


def test_info_missing_file_exits_2(runner, tmp_path):
    invoke(runner, ["info", str(tmp_path / "nope.fits")], 2)


def test_info_unterminated_card_exits_2(runner, small_map, tmp_path):
    blob = small_map.read_bytes()
    assert b"= 'NESTED  '" in blob
    bad = tmp_path / "bad.fits"
    bad.write_bytes(blob.replace(b"= 'NESTED  '", b"= 'NESTED   ", 1))
    invoke(runner, ["info", str(bad)], 2)


@pytest.mark.parametrize("card", [b"3", b"0", b"-16", b"16.0", b"T"])
def test_info_bad_nside_card_exits_2(runner, small_map, tmp_path, card):
    blob = small_map.read_bytes()
    good = b"NSIDE   = " + b"16".rjust(20)
    assert good in blob
    bad = tmp_path / "bad.fits"
    bad.write_bytes(blob.replace(good, b"NSIDE   = " + card.rjust(20), 1))
    result = invoke(runner, ["info", str(bad)], 2)
    assert "NSIDE card" in result.output


def test_mkfits_round_trip(runner, tmp_path):
    out = tmp_path / "fixture.fits"
    invoke(runner, ["mkfits", str(out), "--nside", "4", "--pattern", "index"])
    src = fits.open_map(out)
    assert src.nside == 4
    assert src.read_rows([5])["I"][0] == 5.0


def test_sample_deterministic(runner, small_map, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        invoke(runner, ["sample", str(small_map), "--size", "50",
                        "--seed", "9", "-o", str(out)])
    assert a.read_bytes() == b.read_bytes()
    f = frame.read_csv(a)
    assert len(f) == 50


def catalogue_csv(tmp_path):
    """2,000 points at nside 16, whose keys collide (an hp frame), with
    longitudes outside [0, 2 pi), six of them +-1e300."""
    rng = np.random.default_rng(1)
    theta, phi = np.arccos(rng.uniform(-1, 1, 2000)), rng.uniform(-7, 14, 2000)
    phi[:6] = (1e300, -1e300) * 3
    f = frame.assign_pixels(theta, phi, {"I": rng.standard_normal(2000)}, 16)
    frame.write_csv(f, tmp_path / "cat.csv")
    assert f.mode == frame.HP
    return str(tmp_path / "cat.csv")


def test_window_report(runner, small_map, tmp_path):
    spec = tmp_path / "annulus.json"
    annulus = geom.WindowSet((geom.disc(math.pi / 2, 0, 0.5, complement=True),
                              geom.disc(math.pi / 2, 0, 1.0)))
    spec.write_text(json.dumps(annulus.to_list()))
    out = tmp_path / "win.csv"
    result = invoke(runner, ["window", str(small_map), "--spec", str(spec),
                             "-o", str(out)])
    payload = json.loads(result.output)
    kinds = [w["kind"] for w in payload["windows"]]
    assert kinds == ["minus.disc", "disc"]
    annulus_area = 2 * math.pi * (math.cos(0.5) - math.cos(1.0))
    assert abs(payload["covered_area"] - annulus_area) / annulus_area < 0.1
    extracted = frame.read_csv(out)
    assert len(extracted) == payload["rows"]
    # a disc and its complement split the rows of an hp catalogue
    cat, rows = catalogue_csv(tmp_path), []
    for complement in (False, True):
        spec.write_text(json.dumps(geom.disc(1.2, 2.0, 0.7,
                                             complement).to_dict()))
        rows.append(json.loads(invoke(runner, ["window", cat, "--spec",
                                               str(spec)]).output)["rows"])
    assert min(rows) > 0 and sum(rows) == 2000, rows


@pytest.mark.parametrize("ordering", ["nested", "ring"])
def test_window_reads_only_member_rows(runner, tmp_path, monkeypatch,
                                       ordering):
    nside = 64
    n = 12 * nside * nside
    path = tmp_path / "m.fits"
    fits.write_map(path, {"I": np.random.default_rng(3).standard_normal(
        n).astype(np.float32)}, nside=nside, ordering=ordering)
    annulus = geom.WindowSet((geom.disc(math.pi / 2, 0, 0.5, complement=True),
                              geom.disc(math.pi / 2, 0, 1.0)))
    spec = tmp_path / "annulus.json"
    spec.write_text(json.dumps(annulus.to_list()))
    opened, real_open = [], fits.open_map

    def spy(p):
        opened.append(real_open(p))
        return opened[-1]

    monkeypatch.setattr(fits, "open_map", spy)
    out, report = tmp_path / "w.csv", tmp_path / "w.json"
    invoke(runner, ["window", str(path), "--spec", str(spec), "-o", str(out),
                    "--report", str(report)])
    # the whole map, then the window test on every pixel center
    whole = frame.extract_window(frame.frame_from_map(fits.open_map(path)),
                                 annulus)
    frame.write_csv(whole, tmp_path / "full.csv")
    assert out.read_bytes() == (tmp_path / "full.csv").read_bytes()
    assert (tmp_path / "w.csv.meta.json").read_bytes() == (
        tmp_path / "full.csv.meta.json").read_bytes()
    assert json.loads(report.read_text()) == json.loads(json.dumps(
        frame.summarize(whole)))
    src = opened[0]
    assert src.payload_bytes_read == len(whole) * src.row_bytes
    assert src.payload_bytes_read < 0.25 * n * src.row_bytes


def test_cov_bin_structure(runner, small_map, tmp_path):
    out = tmp_path / "cov.csv"
    invoke(runner, ["cov", str(small_map), "--max-dist", "0.5",
                    "--bins", "10", "-o", str(out)])
    curve = EmpiricalCurve.read_csv(out)
    assert curve.values.size == 11          # bins + zero-lag bin
    assert curve.lags[0] == 0.0


def test_variogram_then_fit(runner, tmp_path):
    # synthesize an exact variogram curve, then fit it through the CLI
    from skypix.geostat import CovarianceModel, variogram_model
    truth = CovarianceModel("askey", 1.0, math.pi, kappa=4.0)
    lags = (np.arange(1, 31) - 0.5) * (math.pi / 30)
    curve = EmpiricalCurve(lags, variogram_model(lags, truth),
                           np.full(30, 100.0), math.pi, 30)
    path = tmp_path / "curve.csv"
    curve.write_csv(path)
    result = invoke(runner, ["fit", str(path), "--family", "askey",
                             "--weights", "equal"])
    payload = json.loads(result.output)
    assert abs(payload["sigmasq"] - 1.0) < 1e-4
    assert abs(payload["psi"] - math.pi) / math.pi < 1e-4
    assert abs(payload["kappa"] - 4.0) / 4.0 < 1e-4


def test_covps_curve(runner, tmp_path):
    spec = tmp_path / "spec.csv"
    spec.write_text("l,C_l\n0,%r\n" % (4 * math.pi))
    out = tmp_path / "cov.csv"
    invoke(runner, ["covps", str(spec), "--lmax", "0",
                    "--points", "5", "-o", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "cos_theta,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(abs(v - 1.0) < 1e-12 for v in values)


def test_entropy_and_fmf(runner, small_map):
    result = invoke(runner, ["entropy", str(small_map), "--bins", "64"])
    assert 0 < json.loads(result.output)["entropy_bits"] <= 6.0
    result = invoke(runner, ["fmf", str(small_map), "--alpha", "0"])
    area = json.loads(result.output)["area"]
    assert 0 < area < 4 * math.pi


def test_renyi_qstat_qq_angdist(runner, small_map, tmp_path):
    out = tmp_path / "renyi.csv"
    invoke(runner, ["renyi", str(small_map), "--box-level", "2",
                    "-o", str(out)])
    assert out.read_text().startswith("q,T\n")

    north = tmp_path / "north.json"
    south = tmp_path / "south.json"
    north.write_text(json.dumps(geom.disc(0, 0, math.pi / 2 - 1e-9).to_dict()))
    south.write_text(json.dumps(
        geom.disc(math.pi, 0, math.pi / 2 - 1e-9).to_dict()))
    result = invoke(runner, ["qstat", str(small_map), "--strata", str(north),
                             "--strata", str(south)])
    assert 0 <= json.loads(result.output)["q"] < 0.2

    qq_out = tmp_path / "qq.csv"
    invoke(runner, ["qq", str(small_map), "--window-a", str(north),
                    "--window-b", str(south), "--quantiles", "21",
                    "-o", str(qq_out)])
    assert len(qq_out.read_text().splitlines()) == 22

    ang_out = tmp_path / "ang.csv"
    invoke(runner, ["angdist", str(small_map), "-o", str(ang_out)])
    assert ang_out.read_text().startswith("axis,center,mean,count\n")

    # on an hp catalogue with longitudes of +-1e300; at box level 3 its
    # 2,000 rows fill 768 boxes with np.bincount, at 4, 3,072 with np.unique
    cat = catalogue_csv(tmp_path)
    for args in (["angdist"], ["renyi", "--box-level", "3"],
                 ["renyi", "--box-level", "4"]):
        invoke(runner, [args[0], cat, *args[1:], "-o", str(out)])


def test_qstat_overlapping_strata_exits_4(runner, small_map, frame_csvs,
                                         tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(geom.disc(0, 0, 1.0).to_dict()))
    b.write_text(json.dumps(geom.disc(0, 0, 0.5).to_dict()))
    result = invoke(runner, ["qstat", str(small_map),
                             "--strata", str(a), "--strata", str(b)], 4)
    assert "qstat" in result.output or "qstat" in (result.stderr or "")
    # hemispheres split the sky CSV, the north one holding the equator
    # ring; the north one and the sky overlap
    a.write_text(json.dumps(geom.disc(0, 0, 1.5707973267948966).to_dict()))
    b.write_text(json.dumps(
        geom.disc(math.pi, 0, 1.5707953267948966).to_dict()))
    sky = str(frame_csvs[2])
    q = json.loads(invoke(runner, ["qstat", sky, "--strata", str(a),
                                   "--strata", str(b)]).output)
    assert q["defined"] and 0 <= q["q"] <= 1, q
    invoke(runner, ["qstat", sky, "--strata", str(a), "--strata",
                    str(tmp_path / "sky.json")], 4)


def test_plot_outputs_svg(runner, small_map, tmp_path):
    cov_out = tmp_path / "cov.csv"
    invoke(runner, ["cov", str(small_map), "--max-dist", "1.0", "--bins", "8",
                    "-o", str(cov_out)])
    svg_out = tmp_path / "cov.svg"
    invoke(runner, ["plot", "curve", str(cov_out), "-o", str(svg_out)])
    text = svg_out.read_text()
    assert text.startswith("<?xml") and "</svg>" in text

    map_svg = tmp_path / "sky.svg"
    invoke(runner, ["plot", "map", str(small_map), "--sample", "500",
                    "-o", str(map_svg)])
    assert "<ellipse" in map_svg.read_text()


def test_plot_deterministic(runner, small_map, tmp_path):
    outs = []
    for name in ("a.svg", "b.svg"):
        out = tmp_path / name
        invoke(runner, ["plot", "map", str(small_map), "--sample", "200",
                        "--seed", "3", "-o", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("size", [500, 0])
def test_sample_outside_the_map_exits_2(runner, tmp_path, size):
    path = tmp_path / "m192.fits"
    fits.write_map(path, {"I": np.zeros(192, dtype=np.float32)}, nside=4,
                   ordering="nested")
    out = tmp_path / "s.csv"
    result = invoke(runner, ["sample", str(path), "--size", str(size),
                             "-o", str(out)], 2)
    assert "sample size %d must be in 1..192" % size in result.output
    assert not out.exists()


def test_usage_error_exits_2(runner):
    invoke(runner, ["cov"], 2)


def corrupt_last_cell(path, row):
    """Replace the last cell of data row ``row`` with ``0.5x``."""
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[row + 1].split(b",")
    lines[row + 1] = b",".join(cells[:-1] + [b"0.5x"])
    path.write_bytes(b"\r\n".join(lines))


def test_malformed_frame_csv_cell_exits_2(runner, small_map, tmp_path):
    frame_csv = tmp_path / "s.csv"
    invoke(runner, ["sample", str(small_map), "--size", "50",
                    "-o", str(frame_csv)])
    corrupt_last_cell(frame_csv, 7)
    result = invoke(runner, ["variogram", str(frame_csv),
                             "-o", str(tmp_path / "v.csv")], 2)
    assert "s.csv" in result.output and "0.5x" in result.output


@pytest.mark.parametrize("cells", [[b"1"], [b"1", b"1.5", b"2.5"],
                                   [b"1", b"1.5", b"2.5", b"0.5", b"0.5"]])
def test_frame_csv_row_of_wrong_length_exits_2(runner, small_map, tmp_path,
                                               cells):
    # a cmb frame's theta and phi are not parsed, but a row must hold them
    frame_csv = tmp_path / "s.csv"
    invoke(runner, ["sample", str(small_map), "--size", "50",
                    "-o", str(frame_csv)])
    lines = frame_csv.read_bytes().split(b"\r\n")
    lines[8] = b",".join(cells)
    frame_csv.write_bytes(b"\r\n".join(lines))
    result = invoke(runner, ["entropy", str(frame_csv)], 2)
    assert ("s.csv: row at line 9 has %d cells, the header 4\n" % len(cells)
            in result.output)


@pytest.mark.parametrize("line", [8, -2])
def test_frame_csv_non_utf8_byte_exits_2(runner, small_map, tmp_path, line):
    # one 0xff byte in a body cell: near the top it is decoded with the
    # header, past the first 8 KB chunk while the body is parsed
    frame_csv = tmp_path / "s.csv"
    invoke(runner, ["sample", str(small_map), "--size", "2000",
                    "-o", str(frame_csv)])
    lines = frame_csv.read_bytes().split(b"\r\n")
    assert frame_csv.stat().st_size > 8192 and lines[line]
    lines[line] = lines[line][:-3] + b"\xff" + lines[line][-2:]
    frame_csv.write_bytes(b"\r\n".join(lines))
    result = invoke(runner, ["entropy", str(frame_csv)], 2)
    assert "malformed CSV %s: " % frame_csv in result.output
    assert "can't decode byte 0xff" in result.output


def test_hp_frame_csv_malformed_theta_exits_2(runner, tmp_path):
    # an hp frame's theta and phi are its coordinates, parsed as float64
    rng = np.random.default_rng(2)
    f = frame.assign_pixels(np.arccos(rng.uniform(-1, 1, 200)),
                            rng.uniform(0, 2 * math.pi, 200),
                            {"I": rng.standard_normal(200)}, 4)
    assert f.mode == frame.HP
    path = tmp_path / "hp.csv"
    frame.write_csv(f, path)
    lines = path.read_bytes().split(b"\r\n")
    cells = lines[5].split(b",")
    lines[5] = b",".join([cells[0], b"0.5x"] + cells[2:])
    path.write_bytes(b"\r\n".join(lines))
    result = invoke(runner, ["entropy", str(path)], 2)
    assert "hp.csv" in result.output and "0.5x" in result.output


def test_variogram_degrees_converts_max_dist(runner, small_map, tmp_path):
    # math.radians(90.0) == math.pi / 2 exactly, so the curves match bytewise
    deg, rad = tmp_path / "deg.csv", tmp_path / "rad.csv"
    invoke(runner, ["variogram", str(small_map), "--max-dist", "90",
                    "--degrees", "--bins", "8", "-o", str(deg)])
    invoke(runner, ["variogram", str(small_map), "--max-dist",
                    "1.5707963267948966", "--bins", "8", "-o", str(rad)])
    assert deg.read_bytes() == rad.read_bytes()


def test_malformed_curve_csv_cell_exits_2(runner, small_map, tmp_path):
    curve_csv = tmp_path / "v.csv"
    invoke(runner, ["variogram", str(small_map), "--max-dist", "1.0",
                    "--bins", "8", "-o", str(curve_csv)])
    corrupt_last_cell(curve_csv, 3)
    result = invoke(runner, ["fit", str(curve_csv)], 2)
    assert "v.csv" in result.output and "0.5x" in result.output


def test_malformed_spectrum_csv_cell_exits_2(runner, tmp_path):
    spec = tmp_path / "spec.csv"
    spec.write_text("l,C_l\n0,1.0\n1,0.5x\n")
    result = invoke(runner, ["covps", str(spec), "--lmax", "1",
                             "-o", str(tmp_path / "cov.csv")], 2)
    assert "spec.csv" in result.output and "0.5x" in result.output


def test_map_rows_disagreeing_with_nside_exit_2(runner, tmp_path):
    path = tmp_path / "short.fits"
    fits.write_map(path, {"I": np.zeros(100, np.float32)}, nside=4,
                   ordering="nested")
    result = invoke(runner, ["sample", str(path), "--size", "10",
                             "-o", str(tmp_path / "s.csv")], 2)
    assert "100 rows" in result.output


@pytest.fixture
def index_map(tmp_path):
    """NSIDE-2 nested map whose value is the row number, 1..48."""
    path = tmp_path / "idx.fits"
    fits.write_map(path, {"I": np.arange(1, 49, dtype=np.float32)}, nside=2,
                   ordering="nested")
    return path


def test_cli_tables_bytes_are_pinned(runner, index_map, tmp_path):
    # CRLF rows and repr cells, as in every other skypix CSV
    spec = tmp_path / "spec.csv"
    spec.write_text("l,C_l\n0,%r\n1,0.5\n" % (4 * math.pi))
    north = tmp_path / "north.json"
    south = tmp_path / "south.json"
    north.write_text(json.dumps(geom.disc(0, 0, math.pi / 2 - 1e-9).to_dict()))
    south.write_text(json.dumps(
        geom.disc(math.pi, 0, math.pi / 2 - 1e-9).to_dict()))
    # sampled keys follow the splitmix64 stream (theta and phi are left
    # out, as libm may differ in their last digits)
    index64 = str(tmp_path / "mi.fits")
    invoke(runner, ["mkfits", index64, "--nside", "64", "--pattern", "index"])
    runs = {
        "sample": ["sample", index64, "--size", "5000", "--seed", "7"],
        "covps": ["covps", str(spec), "--lmax", "1", "--points", "3"],
        "renyi": ["renyi", str(index_map), "--points", "3",
                  "--box-level", "1"],
        "qq": ["qq", str(index_map), "--window-a", str(north),
               "--window-b", str(south), "--quantiles", "3"],
        "angdist": ["angdist", str(index_map), "--theta-bins", "8",
                    "--phi-bins", "2"],
    }
    got = {}
    for name, args in runs.items():
        out = tmp_path / (name + ".csv")
        invoke(runner, args + ["-o", str(out)])
        got[name] = out.read_bytes()
    keys = b"".join(row.split(b",")[0] + b"\n"
                    for row in got["sample"].split(b"\r\n") if row)
    assert hashlib.sha256(keys).hexdigest() == (
        "402a524b12edbbdf009edc5407af1a1cb78a1e9b21c5c29056d22e3401a63773")
    assert got["covps"] == (
        b"cos_theta,value\r\n"
        b"1.0,1.1193662073189214\r\n"
        b"6.123233995736766e-17,1.0\r\n"
        b"-1.0,0.8806337926810786\r\n")
    assert got["renyi"] == (
        b"q,T\r\n"
        b"1.01,5.288770681981655\r\n"
        b"5.505,4.9475744087604285\r\n"
        b"10.0,4.843273820246594\r\n")
    assert got["qq"] == (
        b"quantile_a,quantile_b\r\n"
        b"1.0,17.0\r\n"
        b"10.5,38.5\r\n"
        b"32.0,48.0\r\n")
    assert got["angdist"] == (      # empty colatitude bins: NaN mean
        b"axis,center,mean,count\r\n"
        b"theta,0.19634954084936207,nan,0.0\r\n"
        b"theta,0.5890486225480862,10.0,4.0\r\n"
        b"theta,0.9817477042468103,8.5,8.0\r\n"
        b"theta,1.3744467859455345,16.5,8.0\r\n"
        b"theta,1.7671458676442586,28.5,16.0\r\n"
        b"theta,2.1598449493429825,40.5,8.0\r\n"
        b"theta,2.552544031041707,39.0,4.0\r\n"
        b"theta,2.945243112740431,nan,0.0\r\n"
        b"phi,1.5707963267948966,20.833333333333332,24.0\r\n"
        b"phi,4.71238898038469,28.166666666666668,24.0\r\n")


@pytest.mark.parametrize("kind, text, bad", [
    ("renyi", "q,T\n1.01,5.2\n5.5,0.5x\n", "0.5x"),
    ("renyi", "q,T,extra\n1.01,5.2,1.0\n", "q,T"),
    ("angdist", "axis,center,mean,count\ntheta,0.2,1.0,3.0\ntheta,0.6\n",
     "row at line 3 has 2 cells, the header 4"),
], ids=["renyi-bad-cell", "renyi-bad-header", "angdist-short-row"])
def test_plot_malformed_table_exits_2(runner, tmp_path, kind, text, bad):
    path = tmp_path / "table.csv"
    path.write_text(text)
    result = invoke(runner, ["plot", kind, str(path),
                             "-o", str(tmp_path / "out.svg")], 2)
    assert "table.csv" in result.output and bad in result.output


def test_plot_draws_written_tables(runner, index_map, tmp_path):
    # 20 Renyi points; 6 of the 8 colatitude bins hold pixels, and the
    # chart adds 2 rects of its own to one per bar
    for kind, args, marker, count in [
            ("renyi", ["--box-level", "1"], "<circle", 20),
            ("angdist", ["--theta-bins", "8"], "<rect", 2 + 6)]:
        table = tmp_path / (kind + ".csv")
        invoke(runner, [kind, str(index_map), "-o", str(table)] + args)
        svg = tmp_path / (kind + ".svg")
        invoke(runner, ["plot", kind, str(table), "-o", str(svg)])
        assert svg.read_text().count(marker) == count


@pytest.mark.parametrize("args", [
    ["fit", "nope.csv"],
    ["covps", "nope.csv", "--lmax", "2", "-o", "c.csv"],
    ["plot", "renyi", "nope.csv", "-o", "p.svg"],
    ["window", "MAP", "--spec", "nope.json"],
], ids=["fit", "covps", "plot-renyi", "window-spec"])
def test_missing_input_file_exits_2(runner, small_map, tmp_path, monkeypatch,
                                    args):
    monkeypatch.chdir(tmp_path)
    args = [str(small_map) if a == "MAP" else a for a in args]
    result = invoke(runner, args, 2)
    assert "nope." in result.output


@pytest.fixture
def fit_inputs(small_map, tmp_path):
    """A frame CSV with its sidecar and a variogram curve CSV."""
    frame_csv = tmp_path / "s.csv"
    invoke(CliRunner(), ["sample", str(small_map), "--size", "50",
                         "-o", str(frame_csv)])
    curve_csv = tmp_path / "v.csv"
    lags = np.linspace(0.1, 1.0, 10)
    EmpiricalCurve(lags, 1 - np.exp(-lags), np.full(10, 5.0), 1.0,
                   10).write_csv(curve_csv)
    return frame_csv, curve_csv


@pytest.mark.parametrize("kind, text, code", [
    ("spec", '{"kind": "disc",', 2),
    ("spec", '{"kind": "disc"}', 2),
    ("spec", '{"kind": "disc", "center": {"theta": "a", "phi": 0}, "r": 0.5}',
     2),
    ("spec", "[1]", 2),
    ("spec", '{"kind": "disc", "center": {"theta": 1%s, "phi": 0}, "r": 0.5}'
     % ("0" * 400), 2),
    ("spec", '{"kind": "disc", "center": {"theta": 1, "phi": 0}, "r": 4}', 4),
    ("spec", '{"kind": "polygon", "vertices": [%s]}' % ", ".join(
        '{"theta": %s, "phi": %s}' % v
        for v in ((1.0, 0.0), (1.0, 1.0), (1.4, 0.0), (1.4, 1.0))), 4),
    ("spec", '{"kind": "polygon", "assumedConvex": true, "vertices": [%s]}'
     % ", ".join('{"theta": %s, "phi": %s}' % v
                 for v in ((0.9, 1.7), (0.9, 2.3), (1.5, 2.3), (1.2, 2.0),
                           (1.5, 1.7))), 4),
    ("sidecar", "{}", 2),
    ("sidecar", '{"nside": 16,', 2),
    ("sidecar", '{"nside": 3, "ordering": "nested", "mode": "cmb"}', 2),
    ("sidecar", '{"nside": 0, "ordering": "nested", "mode": "cmb"}', 2),
    ("sidecar", '{"nside": 16, "ordering": "nestd", "mode": "cmb"}', 2),
    ("sidecar", '{"nside": 16, "ordering": "nested", "mode": "xx"}', 2),
    ("sidecar", '{"nside": true, "ordering": "nested", "mode": "cmb"}', 2),
    ("fit", '{"family": "exponential", "psi": 0.5}', 2),
    ("fit", '{"family": "exponential",', 2),
], ids=["spec-truncated", "spec-no-center", "spec-string-theta",
        "spec-not-object", "spec-huge-theta", "spec-radius-domain",
        "spec-self-intersecting", "spec-false-convex", "sidecar-empty",
        "sidecar-truncated", "sidecar-nside-3", "sidecar-nside-0",
        "sidecar-ordering", "sidecar-mode", "sidecar-nside-bool",
        "fit-no-sigmasq",
        "fit-truncated"])
def test_malformed_json_input_exits_2(runner, small_map, fit_inputs, tmp_path,
                                      kind, text, code):
    frame_csv, curve_csv = fit_inputs
    bad = tmp_path / ("s.csv.meta.json" if kind == "sidecar" else "bad.json")
    bad.write_text(text)
    args = {"spec": ["window", str(small_map), "--spec", str(bad)],
            "sidecar": ["variogram", str(frame_csv),
                        "-o", str(tmp_path / "x.csv")],
            "fit": ["plot", "fit", str(curve_csv), "--fit-json", str(bad),
                    "-o", str(tmp_path / "p.svg")]}[kind]
    result = invoke(runner, args, code)
    if code == 2:   # a domain error in a well-formed spec stays exit 4
        assert bad.name in result.output


@pytest.mark.parametrize("command, flag", [
    ("info", "-o"), ("window", "--report"), ("fit", "-o")])
def test_unwritable_output_exits_2(runner, small_map, fit_inputs, tmp_path,
                                   command, flag):
    disc = tmp_path / "disc.json"
    disc.write_text(json.dumps(geom.disc(0.5, 0.0, 0.3).to_dict()))
    target = str(tmp_path / "missing" / "out.json")
    args = {"info": ["info", str(small_map)],
            "window": ["window", str(small_map), "--spec", str(disc)],
            "fit": ["fit", str(fit_inputs[1])]}[command]
    result = invoke(runner, args + [flag, target], 2)
    assert result.output.startswith(command + ": ")
    assert target in result.output


@pytest.mark.parametrize("keys", [[0, 5], [5, 13], [3, 3]],
                         ids=["key-0", "key-above-npix", "repeated-cmb-key"])
def test_frame_csv_bad_keys_exit_2(runner, tmp_path, keys):
    path = tmp_path / "f.csv"
    path.write_text("pix,theta,phi,I\n"
                    + "".join("%d,1.0,1.0,0.5\n" % k for k in keys))
    (tmp_path / "f.csv.meta.json").write_text(
        '{"nside": 1, "ordering": "nested", "mode": "cmb"}')
    result = invoke(runner, ["entropy", str(path)], 2)
    assert result.output.startswith("entropy: ")
    assert str(path) in result.output


# ---------------------------------------------------------------------------
# commands on frame CSVs give what the same command gives on the map

CURVE_ARGS = [["--max-dist", "1", "--bins", "6"],
              ["--max-dist", "1", "--bins", "6", "--sample", "500",
               "--seed", "4"]]


@pytest.fixture
def frame_csvs(runner, small_map, tmp_path):
    """A sample CSV holding every row of the map, a window CSV cut by
    ``north.json``, two disjoint strata inside that window, and a window
    CSV cut by ``sky.json``, which holds every pixel center."""
    specs = {"north": geom.disc(0, 0, 1.2), "cap": geom.disc(0, 0, 0.5),
             "spot": geom.disc(0.9, 0, 0.25), "sky": geom.disc(0, 0, 3.14159)}
    for name, region in specs.items():
        (tmp_path / (name + ".json")).write_text(json.dumps(region.to_dict()))
    whole, cut, sky = (tmp_path / (name + ".csv")
                       for name in ("whole", "cut", "sky"))
    for args in (["sample", small_map, "--size", "3072", "-o", whole],
                 ["window", small_map, "--spec", tmp_path / "north.json",
                  "-o", cut],
                 ["window", small_map, "--spec", tmp_path / "sky.json",
                  "-o", sky]):
        invoke(runner, [str(a) for a in args])
    return whole, cut, sky


def run(runner, args, out=None):
    """Stdout and the bytes of ``out`` of one command, which exits 0."""
    result = invoke(runner, [str(a) for a in args]
                    + (["-o", str(out)] if out else []))
    return result.output, out and out.read_bytes()


@pytest.mark.parametrize("args", CURVE_ARGS, ids=["all-rows", "sampled"])
@pytest.mark.parametrize("command", ["variogram", "cov"])
def test_curve_on_sample_csv_equals_map(runner, small_map, frame_csvs,
                                        tmp_path, command, args):
    on_map = run(runner, [command, small_map, *args], tmp_path / "a.csv")
    on_csv = run(runner, [command, frame_csvs[0], *args], tmp_path / "b.csv")
    assert on_csv == on_map


@pytest.mark.parametrize("args", CURVE_ARGS, ids=["all-rows", "sampled"])
@pytest.mark.parametrize("command", ["variogram", "cov"])
def test_curve_on_window_csv_equals_map_window(runner, small_map, frame_csvs,
                                               tmp_path, command, args):
    region = geom.WindowSet.from_spec(
        json.loads((tmp_path / "north.json").read_text()))
    f = frame.extract_window(frame.frame_from_map(fits.open_map(small_map)),
                             region)
    if "--sample" in args:
        f = frame.sample_frame(f, 500, 4)
    estimate = (empirical_covariance if command == "cov"
                else empirical_variogram)
    estimate(f, "I", 1.0, 6, seed=4 if "--sample" in args else 0).write_csv(
        tmp_path / "a.csv")
    _, got = run(runner, [command, frame_csvs[1], *args], tmp_path / "b.csv")
    assert got == (tmp_path / "a.csv").read_bytes()


@pytest.mark.parametrize("command, args, window_args", [
    ("entropy", ["--bins", "16"], ["--window", "north.json"]),
    ("qstat", ["--strata", "cap.json", "--strata", "spot.json"], []),
    ("window", ["--spec", "north.json"], []),
])
def test_commands_on_frame_csvs_equal_map(runner, small_map, frame_csvs,
                                          tmp_path, monkeypatch, command,
                                          args, window_args):
    """On the sample and sky CSVs a command gives what it gives on the map
    (but for window's report, which names the windows it was cut by); on
    the window CSV, what it gives on the map cut by the same window
    (qstat's strata and the window spec lie inside that window already)."""
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.csv" if command == "window" else None

    def output(path, extra=()):
        return run(runner, [command, path, *args, *extra], out)

    on_map = output(small_map)
    assert output(frame_csvs[0]) == on_map
    assert output(frame_csvs[1]) == output(small_map, window_args)
    if command != "window":
        assert output(frame_csvs[2]) == on_map


def test_missing_csv_column_exits_2(runner, frame_csvs):
    result = invoke(runner, ["entropy", str(frame_csvs[0]),
                             "--column", "Z"], 2)
    assert result.output.startswith("entropy: ") and "'Z'" in result.output


@pytest.mark.parametrize("cell, text", [(1, "4.0"), (2, "nan")],
                         ids=["theta-4", "phi-nan"])
def test_hp_csv_coordinate_out_of_range_exits_2(runner, tmp_path, cell, text):
    rng = np.random.default_rng(3)
    f = frame.assign_pixels(rng.uniform(0.2, 2.9, 30), rng.uniform(0, 6, 30),
                            {"I": rng.normal(size=30)}, 4)
    path = tmp_path / "hp.csv"
    frame.write_csv(f, path)
    lines = path.read_text().splitlines()
    row = lines[2].split(",")
    row[cell] = text
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    spec = tmp_path / "disc.json"
    spec.write_text(json.dumps(geom.disc(0, 0, 3.0).to_dict()))
    for args in (["variogram", "--max-dist", "1", "-o", "v.csv"],
                 ["angdist", "-o", "a.csv"],
                 ["window", "--spec", str(spec), "-o", "w.csv"]):
        result = invoke(runner, [args[0], str(path), *args[1:]], 2)
        assert result.output.startswith(args[0] + ": ")
        assert "theta" in result.output


def test_plot_fit_overlays_the_fit(runner, small_map, tmp_path):
    curve, fit_json, svg = (tmp_path / n for n in ("v.csv", "f.json", "p.svg"))
    invoke(runner, ["variogram", str(small_map), "--max-dist", "1",
                    "--bins", "8", "-o", str(curve)])
    invoke(runner, ["fit", str(curve), "--family", "exponential",
                    "-o", str(fit_json)])
    invoke(runner, ["plot", "fit", str(curve), "--fit-json",
                    str(fit_json), "-o", str(svg)])
    text = svg.read_text()
    assert text.count("<circle") == 8
    assert text.count('stroke-dasharray="6 4"') == 1
    result = invoke(runner, ["plot", "fit", str(curve), "-o", str(svg)], 2)
    assert "--fit-json" in result.output


def _recard(blob, key, value, start=0):
    """``blob`` with the first card ``key`` at or after ``start`` given the
    raw value text ``value``."""
    pos = blob.index(key.ljust(8).encode() + b"= ", start)
    card = ("%-8s= %-20s" % (key, value)).encode()
    return blob[:pos] + card + blob[pos + len(card):]


@pytest.mark.parametrize("key, value, ext, message", [
    ("NAXIS1", "'abc'", True, "NAXIS1"),
    ("NAXIS", "'x'", False, "NAXIS"),
    ("NAXIS2", "-12", True, "NAXIS2"),
    ("TTYPE2", "'I'", True, "'I'"),
    ("SIMPLE", "F", False, "missing SIMPLE = T"),
    ("XTENSION", "'IMAGE'", True, "not a BINTABLE"),
    ("NAXIS1", "12", True, "NAXIS1 does not match"),
    ("ORDERING", "'SPIRAL'", True, "unrecognised ORDERING 'spiral'"),
    ("NSIDE", "1.2.3", True, "unparseable card value '1.2.3'"),
], ids=["naxis1-string", "primary-naxis-string", "naxis2-negative",
        "repeated-column", "simple-false", "xtension-image", "naxis1-width",
        "ordering-unknown", "unparseable-value"])
def test_malformed_header_card_exits_2(runner, tmp_path, key, value, ext,
                                       message):
    path = tmp_path / "m.fits"
    fits.write_map(path, {"I": np.zeros(12, np.float32),
                          "Q": np.zeros(12, np.float32)}, nside=1,
                   ordering="nested")
    blob = path.read_bytes()
    path.write_bytes(_recard(blob, key, value, fits.BLOCK if ext else 0))
    for command in ("info", "entropy"):
        result = invoke(runner, [command, str(path)], 2)
        assert result.output.startswith(command + ": ")
        assert message in result.output
