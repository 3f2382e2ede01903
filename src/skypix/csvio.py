"""Column-wise CSV tables: the one writer and reader behind every skypix
CSV file (frames, curves, spectra and the CLI's result tables).

A table is a header row followed by rows ending in CRLF, as ``csv.writer``
writes them.  The leading key columns (pixel indices, multipoles, or a
label such as an axis name) are written with ``str``; every other column
is float64 written as the shortest ``repr``, so values round-trip bit for
bit.  Integer keys are parsed as int64 and never pass through float64,
which holds them exactly up to ``12 * 4**29``.  A column a reader leaves
unconverted must still have a cell in every row.
"""

import csv
import warnings

import numpy as np

# rows joined into text at once; at 2^16 a later CSV read in the same
# process peaked ~7 MB higher
CHUNK = 1 << 14


def _float_text(col):
    """Shortest ``repr`` of each float64 in ``col``.  Each distinct bit
    pattern is formatted once (HEALPix rings share one colatitude); bits,
    not values, tell ``-0.0`` from ``0.0``."""
    col = np.ascontiguousarray(col, dtype=np.float64)
    bits, inverse = np.unique(col.view(np.uint64), return_inverse=True)
    text = np.array([repr(x) for x in bits.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse].tolist()


def _rows_text(keys, values):
    """CSV text of the rows of ``keys`` and ``values`` columns, each row
    ending in CRLF.  The cells and their separators go into one list that
    is joined once; it and its cells are freed on return, before the next
    chunk is formatted."""
    width = 2 * (len(keys) + len(values))   # a cell and its separator
    rows = len(keys[0] if keys else values[0])
    text = [","] * (width * rows)
    for c, k in enumerate(keys):
        text[2 * c::width] = map(str, k.tolist())
    for c, v in enumerate(values, len(keys)):
        text[2 * c::width] = _float_text(v)
    text[width - 1::width] = ["\r\n"] * rows
    return "".join(text)


def write_table(path, header, keys, values):
    """Write ``header``, then one row per index: the ``keys`` arrays first,
    each element through ``str`` (integers or strings without commas), then
    the ``values`` columns as float64."""
    n = len(keys[0] if keys else values[0])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, n, CHUNK):
            fh.write(_rows_text([k[lo:lo + CHUNK] for k in keys],
                                [v[lo:lo + CHUNK] for v in values]))


def read_table(path, check_header, keys, error):
    """Header and columns of a table written by :func:`write_table`.

    ``check_header`` vets the header row before the body is parsed.
    ``keys`` holds the dtypes of the leading columns: ``np.int64`` for
    pixel or multipole keys, ``object`` for a text label (each cell a
    ``str``), and ``None`` for a column every row must have but that is not
    converted (it comes back as None).  The remaining columns come back as
    float64.  Empty lines are skipped, and a row of the wrong length, a
    malformed cell in a converted column or a byte that is not UTF-8 raises
    ``error`` naming the file.
    """
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), [])
            check_header(header)
            kinds = (list(keys) + [np.float64] * len(header))[:len(header)]
            # a one-byte field, unlike usecols, keeps loadtxt's cell count
            dtype = np.dtype([("f%d" % i, "S1" if k is None else k)
                              for i, k in enumerate(kinds)])
            with warnings.catch_warnings():
                # a header without rows is an empty table, not a warning
                warnings.filterwarnings("ignore",
                                        "loadtxt: input contained no data")
                try:
                    data = np.loadtxt(fh, dtype=dtype, delimiter=",",
                                      comments=None, ndmin=1)
                except ValueError as exc:
                    fh.seek(0)
                    for line, text in enumerate(fh, 1):
                        cells = text.rstrip("\r\n").split(",")
                        if len(cells) != len(header) and text.strip():
                            exc = ("row at line %d has %d cells, the header %d"
                                   % (line, len(cells), len(header)))
                            break
                    raise error("malformed CSV %s: %s" % (path, exc)) from None
    except UnicodeDecodeError as exc:
        # the text is decoded a chunk at a time, so the header read, the
        # parse and the rescan of a bad row can each meet a non-UTF-8 byte
        raise error("malformed CSV %s: %s" % (path, exc)) from None
    # contiguous columns, not strided views pinning the whole record array
    return header, [None if k is None else data["f%d" % i].copy()
                    for i, k in enumerate(kinds)]
