import hashlib
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_array_equal

from skypix import cli, fits
from skypix.errors import (BoundsError, DomainError, FormatError,
                           SchemaError, SkypixError)


@pytest.fixture
def small_map(tmp_path):
    """12-row nside=1 map whose I column equals the row index."""
    path = tmp_path / "small.fits"
    table = {"I": np.arange(1, 13, dtype=np.float32),
             "TMASK": np.zeros(12, dtype=np.int32)}
    fits.write_map(path, table, nside=1, ordering="nested")
    return path


def test_header_cards(small_map):
    src = fits.open_map(small_map)
    assert src.nside == 1
    assert src.ordering == "nested"
    assert src.row_count == 12
    assert src.row_bytes == 8
    assert [c.name for c in src.columns] == ["I", "TMASK"]


def test_open_reads_no_payload(small_map):
    src = fits.open_map(small_map)
    assert src.payload_reads == []
    assert src.payload_bytes_read == 0


def test_nside_card_values(tmp_path):
    path = tmp_path / "n64.fits"
    fits.write_map(path, {"I": np.zeros(12 * 64 * 64, dtype=np.float32)},
                   nside=64, ordering="ring")
    src = fits.open_map(path)
    assert src.nside == 64 and src.ordering == "ring"


def test_nside_inferred_when_card_missing(tmp_path):
    path = tmp_path / "bare.fits"
    fits.write_map(path, {"I": np.zeros(48, dtype=np.float32)})
    assert fits.open_map(path).nside == 2


def test_open_fails_on_non_4k_rowcount_without_card(tmp_path):
    path = tmp_path / "odd.fits"
    fits.write_map(path, {"I": np.zeros(10, dtype=np.float32)})
    with pytest.raises(FormatError):
        fits.open_map(path)


def test_read_all_round_trip(small_map):
    src = fits.open_map(small_map)
    out = src.read_all()
    assert_array_equal(out["I"], np.arange(1, 13, dtype=np.float32))
    assert_array_equal(out["TMASK"], np.zeros(12, dtype=np.int32))
    assert [a.dtype for a in out.values()] == [np.float32, np.int32]
    assert all(a.flags.owndata and a.flags.writeable for a in out.values())
    # the whole table is one contiguous run
    assert src.payload_reads == [(src.data_start, 12 * src.row_bytes)]


def test_read_all_builds_no_row_index(tmp_path):
    path = tmp_path / "two.fits"
    n = 12 * 64 * 64
    fits.write_map(path, {"I": np.arange(n, dtype=np.float32),
                          "Q": np.ones(n, dtype=np.float32)}, nside=64)
    src = fits.open_map(path)
    tracemalloc.start()
    try:
        out = src.read_all(["I"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a per-row index takes at least 8 bytes a row against 4 returned
    assert peak < 2 * out["I"].nbytes
    assert_array_equal(out["I"], np.arange(n, dtype=np.float32))


def test_selective_read_equals_full_read(small_map):
    src = fits.open_map(small_map)
    rows = np.array([1, 2, 4, 7, 11])
    partial = src.read_rows(rows, ["I"])
    full = src.read_all(["I"])
    assert_array_equal(partial["I"], full["I"][rows - 1])


def test_read_single_row(small_map):
    src = fits.open_map(small_map)
    out = src.read_rows([5])
    assert out["I"][0] == 5.0


def test_bytes_touched_stay_within_requested_rows(small_map):
    src = fits.open_map(small_map)
    src.read_rows([1, 2, 4, 7, 11], ["I"])
    extents = [(1, 2), (4, 4), (7, 7), (11, 11)]  # coalesced runs
    assert len(src.payload_reads) == len(extents)
    for (off, length), (a, b) in zip(src.payload_reads, extents):
        assert off == src.data_start + (a - 1) * src.row_bytes
        assert length == (b - a + 1) * src.row_bytes
    assert src.payload_bytes_read == 5 * src.row_bytes


def test_big_endian_float_pattern(tmp_path):
    # hand-build a row so decoding is pinned to the byte level
    path = tmp_path / "pattern.fits"
    fits.write_map(path, {"I": np.array([1.0], dtype=np.float32)}, nside=1)
    blob = path.read_bytes()
    payload = blob[2 * fits.BLOCK:2 * fits.BLOCK + 4]
    assert payload == bytes.fromhex("3F800000")
    assert fits.open_map(path).read_rows([1])["I"][0] == 1.0


def test_row_and_column_errors(small_map):
    src = fits.open_map(small_map)
    with pytest.raises(BoundsError):
        src.read_rows([0])
    with pytest.raises(BoundsError):
        src.read_rows([13])
    with pytest.raises(SchemaError):
        src.read_rows([1], ["Q"])
    with pytest.raises(DomainError):
        src.read_rows([3, 2])


def test_empty_column_selection(small_map):
    src = fits.open_map(small_map)
    out = src.read_rows([1, 2], columns=[])
    assert out == {}


@pytest.fixture(scope="module")
def mixed_map(tmp_path_factory):
    """64-row map with one column of each supported TFORM."""
    path = tmp_path_factory.mktemp("mixed") / "mixed.fits"
    rng = np.random.default_rng(3)
    table = {"E": rng.standard_normal(64).astype(np.float32),
             "J": rng.integers(-2 ** 31, 2 ** 31, 64).astype(np.int32),
             "D": rng.standard_normal(64),
             "I": rng.integers(-2 ** 15, 2 ** 15, 64).astype(np.int16)}
    fits.write_map(path, table, nside=2, ordering="ring")
    return path


def test_empty_row_list_keeps_column_dtypes(mixed_map):
    out = fits.open_map(mixed_map).read_rows([])
    assert {name: arr.dtype for name, arr in out.items()} == {
        "E": np.float32, "J": np.int32, "D": np.float64, "I": np.int16}
    assert all(arr.size == 0 for arr in out.values())


def _memmap_decode(src):
    """Brute-force big-endian decode of the whole payload."""
    dtype = np.dtype([(c.name, c.dtype) for c in src.columns])
    return np.memmap(src.path, dtype=dtype, mode="r", offset=src.data_start,
                     shape=(src.row_count,))


def _runs(rows):
    return 1 + int(np.count_nonzero(np.diff(rows) > 1)) if rows.size else 0


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(1, 64)),
       st.lists(st.sampled_from(["E", "J", "D", "I"]), unique=True))
def test_gather_matches_brute_force_decode(mixed_map, picked, names):
    src = fits.open_map(mixed_map)
    rows = np.array(sorted(picked), dtype=np.int64)
    expect = _memmap_decode(src)
    before = len(src.payload_reads)
    out = src.read_rows(rows, names)
    new = src.payload_reads[before:]
    assert list(out) == names
    for name in names:
        assert_array_equal(out[name], expect[name][rows - 1])
        assert out[name].dtype == expect[name].dtype.newbyteorder("=")
        assert out[name].flags.writeable and out[name].flags.owndata
    assert len(new) == _runs(rows)
    assert sum(n for _, n in new) == rows.size * src.row_bytes


def _split_runs(src, rows):
    """``(offset, length)`` of each run of consecutive rows, one row at a
    time."""
    pairs = []
    for row in rows:
        offset = src.data_start + (row - 1) * src.row_bytes
        if pairs and sum(pairs[-1]) == offset:
            pairs[-1] = (pairs[-1][0], pairs[-1][1] + src.row_bytes)
        else:
            pairs.append((offset, src.row_bytes))
    return pairs


_READ = st.one_of(st.tuples(st.just("rows"), st.sets(st.integers(1, 64))),
                  st.tuples(st.just("sample"), st.integers(1, 64),
                            st.integers(0, 2 ** 64 - 1)),
                  st.tuples(st.just("all")))


@settings(max_examples=60, deadline=None)
@given(st.lists(_READ, max_size=6), st.integers(-8, 8))
def test_extent_log_matches_split_runs(mixed_map, reads, cut):
    src = fits.open_map(mixed_map)
    log, expect = src.payload_reads, []
    for read in reads:
        if read[0] == "rows":
            rows = sorted(read[1])
            src.read_rows(rows, ["E"])
        elif read[0] == "sample":
            rows = src.sample_rows(read[1], read[2], ["J"])[1].tolist()
        else:
            src.read_all(["D"])
            rows = range(1, src.row_count + 1)
        expect += _split_runs(src, rows)
        assert len(log) == len(expect)
        assert log == expect and expect == log
        assert src.payload_bytes_read == sum(n for _, n in expect)
    assert list(log) == expect
    assert all(type(v) is int for pair in log for v in pair)
    assert [log[i] for i in range(-len(log), len(log))] == expect + expect
    for part in (slice(cut, None), slice(None, cut), slice(None, None, 2)):
        assert len(log[part]) == len(expect[part])
        assert log[part] == expect[part] and expect[part] == log[part]
        assert log[part].nbytes == sum(n for _, n in expect[part])
    assert log != expect + [(0, 8)] and expect + [(0, 8)] != log
    assert log == log[:] and log[:] == log


def test_extent_log_repr_is_short(tmp_path, small_map):
    src = fits.open_map(small_map)
    src.read_rows([1, 2, 4, 7, 11])
    assert repr(src.payload_reads) == "ExtentLog(4 extents, 40 bytes)"
    path = tmp_path / "mid.fits"
    fits.write_map(path, {"I": np.zeros(12 * 64 * 64, dtype=np.float32)},
                   nside=64)
    src = fits.open_map(path)
    src.sample_rows(20000, seed=1)
    assert "payload_reads=ExtentLog(%d extents, 80000 bytes)" % len(
        src.payload_reads) in repr(src)
    assert len(repr(src)) < 400


@pytest.fixture
def truncated_map(tmp_path, small_map):
    """``small_map`` with its payload cut after row 5."""
    src = fits.open_map(small_map)
    path = tmp_path / "trunc.fits"
    path.write_bytes(small_map.read_bytes()[:src.data_start
                                           + 5 * src.row_bytes])
    return path


def test_truncated_payload(truncated_map):
    src = fits.open_map(truncated_map)
    assert_array_equal(src.read_rows([1, 2, 3])["I"], [1.0, 2.0, 3.0])
    with pytest.raises(FormatError, match="truncated payload"):
        src.read_rows([6])
    with pytest.raises(FormatError, match="truncated payload"):
        src.read_all()
    with pytest.raises(FormatError, match="truncated payload"):
        src.sample_rows(10, seed=0)


def test_truncated_payload_cli_exit(truncated_map, tmp_path):
    result = CliRunner().invoke(
        cli.main, ["sample", str(truncated_map), "--size", "10",
                   "-o", str(tmp_path / "x.csv")], catch_exceptions=False)
    assert result.exit_code == 2
    assert "truncated payload" in result.output


def test_sample_rows_deterministic(small_map):
    src = fits.open_map(small_map)
    t1, rows1 = src.sample_rows(4, seed=123)
    t2, rows2 = src.sample_rows(4, seed=123)
    assert_array_equal(rows1, rows2)
    assert_array_equal(t1["I"], t2["I"])
    assert len(np.unique(rows1)) == 4
    assert np.all(np.diff(rows1) > 0)


def test_sample_all_rows_is_full_set(small_map):
    src = fits.open_map(small_map)
    _, rows = src.sample_rows(12, seed=9)
    assert_array_equal(rows, np.arange(1, 13))


def test_sample_oversize_rejected(small_map):
    src = fits.open_map(small_map)
    with pytest.raises(DomainError):
        src.sample_rows(13, seed=0)


def test_sample_touches_few_bytes(tmp_path):
    path = tmp_path / "mid.fits"
    n = 64
    fits.write_map(path, {"I": np.random.default_rng(0).normal(
        size=12 * n * n).astype(np.float32)}, nside=n, ordering="ring")
    src = fits.open_map(path)
    _, rows = src.sample_rows(100, seed=5)
    # coalescing merges adjacent rows but never widens the extent
    assert src.payload_bytes_read == 100 * src.row_bytes
    assert src.payload_bytes_read < 0.05 * (12 * n * n * src.row_bytes)


def test_file_size_block_arithmetic(tmp_path):
    path = tmp_path / "size.fits"
    rows = 1000
    written = fits.write_map(path, {"I": np.zeros(rows, dtype=np.float32),
                                    "M": np.zeros(rows, dtype=np.int16)})
    row_bytes = 6
    expect = fits.BLOCK + fits.BLOCK + ((rows * row_bytes + fits.BLOCK - 1)
                                        // fits.BLOCK) * fits.BLOCK
    assert written == expect == path.stat().st_size
    assert path.stat().st_size % fits.BLOCK == 0


def test_written_bytes_are_pinned(tmp_path):
    # sha256 of the file that the write path assembling the whole file in
    # memory (header, cards, rows.tobytes(), zero padding) wrote for this
    # table; writing straight to the file keeps every byte
    path = tmp_path / "pinned.fits"
    table = {"I": np.array([1.5, -2.25, 3e30], dtype=np.float32),
             "Q": np.array([7, -8, 2 ** 31 - 1], dtype=np.int32),
             "U": np.array([np.pi, -0.0, 1e-300]),
             "M": np.array([1, -1, 32767], dtype=np.int16)}
    assert fits.write_map(path, table, nside=1, ordering="ring") == 8640
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "69c757d8cb5a17a15021fb0a360edf05cb7e90acc9efc597931e9e882f18d127")


@pytest.mark.parametrize("rows", [0, 1, (1 << 16) - 1, 1 << 16, 2 * (1 << 16) + 3])
def test_write_round_trips_across_write_buffers(tmp_path, rows):
    path = tmp_path / "rows.fits"
    table = {"I": np.arange(rows, dtype=np.float32) - 0.5,
             "M": (np.arange(rows) % 30000).astype(np.int16)}
    written = fits.write_map(path, table, nside=1)
    assert written == path.stat().st_size and written % fits.BLOCK == 0
    src = fits.open_map(path)
    got = src.read_all()
    assert_array_equal(got["I"], table["I"])
    assert_array_equal(got["M"], table["M"])
    assert [a.dtype for a in got.values()] == [np.float32, np.int16]
    # an empty table touches no payload
    assert src.payload_reads == ([(src.data_start, rows * 6)] if rows else [])


def test_write_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(FormatError):
        fits.write_map(tmp_path / "bad.fits",
                       {"I": np.zeros(4, dtype=np.uint8)})


def test_all_supported_dtypes_round_trip(tmp_path):
    path = tmp_path / "mixed.fits"
    table = {
        "A": np.array([1.5, -2.25, 3.0], dtype=np.float32),
        "B": np.array([7, -9, 2 ** 30], dtype=np.int32),
        "C": np.array([1e-300, 2.0, -4.5], dtype=np.float64),
        "D": np.array([-3, 0, 255], dtype=np.int16),
    }
    fits.write_map(path, table, nside=1)
    out = fits.open_map(path).read_all()
    for name, arr in table.items():
        assert_array_equal(out[name], arr)


def test_write_rejects_empty_and_ragged_tables(tmp_path):
    with pytest.raises(FormatError, match="no columns"):
        fits.write_map(tmp_path / "none.fits", {})
    with pytest.raises(FormatError, match="equal length"):
        fits.write_map(tmp_path / "ragged.fits",
                       {"A": np.zeros(12, np.float32),
                        "B": np.zeros(11, np.float32)})


def test_quoted_column_name_round_trips(tmp_path):
    # the quote is written doubled inside the card and read back single
    path = tmp_path / "quote.fits"
    fits.write_map(path, {"O'Brien": np.arange(12, dtype=np.int32)}, nside=1)
    assert b"TTYPE1  = 'O''Brien'" in path.read_bytes()
    out = fits.open_map(path).read_all()
    assert list(out) == ["O'Brien"]
    assert_array_equal(out["O'Brien"], np.arange(12))


def test_comment_card_is_not_parsed(tmp_path, small_map):
    # a COMMENT card is free text, even when it looks like a bad value
    blob = small_map.read_bytes()
    extend = b"EXTEND  =                    T"
    assert extend in blob
    comment = b"COMMENT = 'unterminated".ljust(len(extend))
    path = tmp_path / "comment.fits"
    path.write_bytes(blob.replace(extend, comment, 1))
    out = fits.open_map(path).read_all()
    assert_array_equal(out["I"], fits.open_map(small_map).read_all()["I"])


def test_open_rejects_missing_bintable(tmp_path):
    path = tmp_path / "primary_only.fits"
    header = (fits._format_card("SIMPLE", True)
              + fits._format_card("BITPIX", 8)
              + fits._format_card("NAXIS", 0)
              + "END".ljust(fits.CARD))
    path.write_bytes(fits._pad_block(header.encode("ascii")))
    with pytest.raises(FormatError):
        fits.open_map(path)


def test_primary_data_is_skipped(tmp_path, small_map):
    # 1000 float32 values (BITPIX -32) fill two blocks before the table
    cards = [("SIMPLE", True), ("BITPIX", -32), ("NAXIS", 1), ("NAXIS1", 1000)]
    header = "".join([fits._format_card(*c) for c in cards]) + "END".ljust(80)
    path = tmp_path / "primary_data.fits"
    path.write_bytes(fits._pad_block(header.encode("ascii"))
                     + fits._pad_block(b"\x01" * 4000)
                     + small_map.read_bytes()[fits.BLOCK:])
    src, plain = fits.open_map(path), fits.open_map(small_map)
    assert src.data_start == plain.data_start + 2 * fits.BLOCK
    assert_array_equal(src.read_all()["I"], plain.read_all()["I"])


def test_empty_column_name_reads_back(tmp_path, small_map):
    blob = small_map.read_bytes()
    named = b"TTYPE1  = 'I       '"
    assert named in blob
    path = tmp_path / "unnamed.fits"
    path.write_bytes(blob.replace(named, b"TTYPE1  = ''".ljust(len(named)), 1))
    out = fits.open_map(path).read_all()
    assert list(out) == ["", "TMASK"]
    assert_array_equal(out[""], np.arange(1, 13))


def test_open_rejects_truncated_header(tmp_path):
    path = tmp_path / "trunc.fits"
    path.write_bytes(b"SIMPLE  =                    T")
    with pytest.raises(FormatError):
        fits.open_map(path)


def test_open_rejects_unsupported_tform(tmp_path, small_map):
    blob = bytearray(small_map.read_bytes())
    pos = blob.find(b"1J")
    blob[pos:pos + 2] = b"3A"
    bad = tmp_path / "badform.fits"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError):
        fits.open_map(bad)


def test_open_rejects_unterminated_string_card(tmp_path, small_map):
    blob = bytearray(small_map.read_bytes())
    start = blob.find(b"= 'NESTED")
    end = blob.index(b"'", start + 3)
    blob[end:end + 1] = b" "
    bad = tmp_path / "unterminated.fits"
    bad.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="unterminated string"):
        fits.open_map(bad)


def test_missing_file(tmp_path):
    with pytest.raises(FormatError):
        fits.open_map(tmp_path / "nope.fits")


_CARD_VALUES = st.one_of(
    st.integers(-2 ** 70, 2 ** 70).map(str),
    st.sampled_from(["0", "1", "-1", "999", "1000", "T", "F", "", "1.5",
                     "1E400", "NAN", "'1E'", "'1D'", "'2E'", "'1X'", "'E'",
                     "''", "'", "'unterminated", "64 / comment"]))
_CARD = st.one_of(
    st.builds("{:<8}= {:>20}".format,
              st.sampled_from(["NAXIS2", "NSIDE", "TFORM1", "TFORM2",
                               "BITPIX", "NAXIS", "NAXIS1", "TFIELDS"]),
              _CARD_VALUES),
    st.sampled_from(["END", "", "COMMENT"]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 19), _CARD),
                max_size=3),
       st.one_of(st.none(), st.integers(0, 3 * fits.BLOCK)))
@example(cards=[(0, 2, "NAXIS   = 1"), (0, 3, "NAXIS1  = %d" % 2 ** 70)],
         cut=None)
@example(cards=[(0, 2, "NAXIS   = 1000000000")], cut=None)
@example(cards=[(1, 3, "NAXIS1  = 0"), (1, 7, "TFIELDS = 0")], cut=None)
def test_open_map_fuzz_raises_only_skypix_errors(mixed_map, cards, cut):
    # overwrite header cards of either HDU, then maybe cut the file short;
    # the examples are primary data of 2^70 bytes, which must not reach
    # seek, a NAXIS whose NAXISn cards must not be looked up one by one,
    # and a table of no columns, which once opened and read as {}
    blob = bytearray(mixed_map.read_bytes())
    for hdu, slot, card in cards:
        at = hdu * fits.BLOCK + slot * fits.CARD
        blob[at:at + fits.CARD] = card[:fits.CARD].ljust(fits.CARD).encode()
    path = mixed_map.parent / "fuzzed.fits"
    path.write_bytes(bytes(blob[:cut]))
    try:
        src = fits.open_map(path)
        assert src.columns
        src.read_all()
        src.read_rows([1, 2, 5])
        src.sample_rows(1, seed=0)
    except SkypixError:
        pass
