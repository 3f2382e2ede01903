"""Reading and writing sky maps stored as FITS binary tables.

Only the layout used by full-sky map products is supported: a header-only
primary HDU followed by one BINTABLE extension holding fixed-width
big-endian rows.  Files are addressed by byte offset so that selected rows
can be pulled out of a multi-hundred-megabyte map without reading the
payload; opening a file touches the header blocks only.  Reads map the
file read-only and copy out the requested rows in one gather, or each
column of the whole table with no gather, recording each payload access on
the source as one ``(offset, length)`` extent per contiguous run of rows.

Structure recap: 2880-byte logical blocks; headers are 80-character ASCII
cards ``KEYWORD = value / comment`` ended by ``END``; the table payload
follows the extension header, zero-padded to a block boundary.
"""

import math
import mmap
import os
from dataclasses import dataclass, field

import numpy as np

from . import healpix
from .errors import BoundsError, DomainError, FormatError, SchemaError
from .rng import sample_without_replacement

BLOCK = 2880
CARD = 80

# TFORM repeat-1 codes accepted for map columns -> numpy big-endian dtypes
_TFORM_DTYPES = {"E": ">f4", "J": ">i4", "D": ">f8", "I": ">i2"}
_DTYPE_TFORMS = {np.dtype(d).newbyteorder("="): t
                 for t, d in _TFORM_DTYPES.items()}


@dataclass
class Column:
    name: str
    tform: str

    @property
    def dtype(self):
        return np.dtype(_TFORM_DTYPES[self.tform])

    @property
    def nbytes(self):
        return self.dtype.itemsize


def _parse_card(raw):
    """``(key, value)`` of one header card; comments are not kept."""
    key = raw[:8].strip()
    if key in ("", "COMMENT", "HISTORY") or raw[8:10] != "= ":
        return key, None
    body = raw[10:]
    if body.lstrip().startswith("'"):
        start = body.index("'")
        end = start + 1
        while True:
            end = body.find("'", end)
            if end < 0:
                raise FormatError("unterminated string in card %r" % key)
            if body[end + 1:end + 2] == "'":   # escaped quote
                end += 2
                continue
            break
        return key, body[start + 1:end].replace("''", "'").rstrip()
    token = body.split("/", 1)[0].strip()
    if token in ("T", "F"):
        return key, token == "T"
    if token == "":
        return key, None
    try:
        return key, int(token)
    except ValueError:
        try:
            return key, float(token.replace("D", "E"))
        except ValueError:
            raise FormatError("unparseable card value %r" % token)


def _read_header_blocks(fh):
    """Consume whole blocks until the END card; returns cards and bytes read."""
    cards = []
    consumed = 0
    while True:
        block = fh.read(BLOCK)
        consumed += len(block)
        if len(block) < BLOCK:
            raise FormatError("truncated header block")
        text = block.decode("ascii", errors="replace")
        done = False
        for i in range(0, BLOCK, CARD):
            raw = text[i:i + CARD]
            if raw[:8].strip() == "END":
                done = True
                break
            cards.append(_parse_card(raw))
        if done:
            return cards, consumed


def _int_card(cards, key, default=None, lowest=0):
    """An integer header card's value, at least ``lowest``; anything else,
    a missing card without a default included, raises ``FormatError``."""
    value = cards.get(key, default)
    if type(value) is not int or value < lowest:
        raise FormatError("header card %s must hold an integer >= %d, not %r"
                          % (key, lowest, value))
    return value


def _map_nside(card, row_count):
    """The NSIDE card's value, or with no card the nside whose full sky has
    ``row_count`` rows; either must pass healpix's nside rule."""
    if card is None:
        nside = math.isqrt(row_count // 12)
        if 12 * nside * nside == row_count and healpix.is_valid_nside(nside):
            return nside
        raise FormatError("cannot infer nside: row count %d is not 12*4^k "
                          "and no NSIDE card" % row_count)
    if type(card) is not int or not healpix.is_valid_nside(card):
        raise FormatError("NSIDE card %r is not an integer power of two in "
                          "[1, 2^%d]" % (card, healpix.MAX_LEVEL))
    return card


@dataclass(eq=False)
class MapSource:
    """Lazily readable handle to the binary table of an opened map file.

    Immutable after open; row ``k`` (1-based) lives at byte offset
    ``data_start + (k-1)*row_bytes``.  ``payload_reads`` collects the
    ``(offset, length)`` extents of every payload access so tests (and
    curious users) can audit how much of the file was touched.
    """

    path: str
    nside: int
    ordering: str | None
    row_bytes: int
    row_count: int
    columns: list
    data_start: int
    payload_reads: list = field(default_factory=list)

    @property
    def payload_bytes_read(self):
        return sum(length for _, length in self.payload_reads)

    def _row_dtype(self):
        return np.dtype({"names": [c.name for c in self.columns],
                         "formats": [c.dtype for c in self.columns]})

    def _check_columns(self, names):
        if names is None:
            return [c.name for c in self.columns]
        known = {c.name for c in self.columns}
        for name in names:
            if name not in known:
                raise SchemaError("unknown column %r; file has %s"
                                  % (name, sorted(known)))
        return list(names)

    def read_rows(self, rows, columns=None):
        """Decode the given 1-based rows (sorted, unique) into named arrays.

        The rows are copied out of the mapped payload in one gather, and
        each contiguous run is recorded as one ``(offset, length)`` extent
        in ``payload_reads``.  Only the selected columns are byte-swapped;
        the arrays own their data, and no view of the mapping outlives it.
        """
        names = self._check_columns(columns)
        rows = np.asarray(rows, dtype=np.int64)
        raw = self._gather(rows) if rows.size else self._payload(0)
        return {name: raw[name].astype(raw[name].dtype.newbyteorder("="))
                for name in names}

    def _payload(self, count):
        """The first ``count`` payload rows, viewed in a read-only mapping."""
        end = self.data_start + count * self.row_bytes
        with open(self.path, "rb") as fh:
            if os.fstat(fh.fileno()).st_size < end:
                raise FormatError("truncated payload")
            mapped = mmap.mmap(fh.fileno(), end, access=mmap.ACCESS_READ)
        return np.frombuffer(mapped, dtype=self._row_dtype(), count=count,
                             offset=self.data_start)

    def _gather(self, rows):
        """The payload rows at ``rows``, one extent recorded per run."""
        if rows.min() < 1 or rows.max() > self.row_count:
            raise BoundsError("row index out of range 1..%d" % self.row_count)
        steps = np.diff(rows)
        if np.any(steps <= 0):
            raise DomainError("rows must be sorted and unique")
        payload = self._payload(int(rows[-1]))
        first = np.concatenate([[0], np.flatnonzero(steps > 1) + 1])
        counts = np.diff(np.append(first, rows.size))
        offsets = self.data_start + (rows[first] - 1) * self.row_bytes
        self.payload_reads.extend(zip(offsets.tolist(),
                                      (counts * self.row_bytes).tolist()))
        return payload[rows[0] - 1:] if first.size == 1 else payload[rows - 1]

    def read_all(self, columns=None):
        """Decode the whole table (still honouring column selection) as
        ``read_rows`` does, but from one extent and with no row index."""
        names = self._check_columns(columns)
        raw = self._payload(self.row_count)
        if raw.size:
            self.payload_reads.append((self.data_start, raw.nbytes))
        return {name: raw[name].astype(raw[name].dtype.newbyteorder("="))
                for name in names}

    def sample_rows(self, sample_size, seed, columns=None):
        """Seeded simple random sample of rows, without replacement.

        Returns ``(table, row_indices)``; indices ascend and the bytes
        touched scale with the sample, not the table.
        """
        if not 0 < sample_size <= self.row_count:
            raise DomainError("sample size must be in 1..%d" % self.row_count)
        rows = sample_without_replacement(self.row_count, sample_size, seed)
        return self.read_rows(rows, columns), rows


def open_map(path):
    """Parse the headers of a map file; the payload is never touched."""
    if not os.path.exists(path):
        raise FormatError("no such file: %s" % path)
    with open(path, "rb") as fh:
        primary, consumed = _read_header_blocks(fh)
        pdict = dict(primary)
        if pdict.get("SIMPLE") is not True:
            raise FormatError("not a FITS file (missing SIMPLE = T)")
        # skip any primary data (BITPIX/NAXIS driven); map files carry none
        naxis = _int_card(pdict, "NAXIS", 0)
        if naxis:
            # floating-point data has a negative BITPIX
            size = abs(_int_card(pdict, "BITPIX", 8, lowest=-64)) // 8
            for i in range(1, naxis + 1):
                size *= _int_card(pdict, "NAXIS%d" % i, 0)
            consumed += ((size + BLOCK - 1) // BLOCK) * BLOCK
            fh.seek(consumed)
        ext, ext_bytes = _read_header_blocks(fh)
    edict = dict(ext)
    if str(edict.get("XTENSION", "")).strip() != "BINTABLE":
        raise FormatError("first extension is not a BINTABLE")
    row_bytes, row_count, tfields = (_int_card(edict, key) for key in
                                     ("NAXIS1", "NAXIS2", "TFIELDS"))
    columns = []
    for i in range(1, tfields + 1):
        tform = str(edict.get("TFORM%d" % i, "")).strip()
        name = str(edict.get("TTYPE%d" % i, "COL%d" % i)).strip()
        code = tform.lstrip("1")
        if tform not in _TFORM_DTYPES and (tform[:1] != "1" or
                                           code not in _TFORM_DTYPES):
            raise FormatError("unsupported TFORM %r (supported: 1E 1J 1D 1I)"
                              % tform)
        if name in {c.name for c in columns}:
            raise FormatError("repeated column name %r" % name)
        columns.append(Column(name, code))
    if sum(c.nbytes for c in columns) != row_bytes:
        raise FormatError("NAXIS1 does not match the declared column widths")

    ordering = edict.get("ORDERING")
    if ordering is not None:
        ordering = str(ordering).strip().lower()
        if ordering not in ("ring", "nested"):
            raise FormatError("unrecognised ORDERING %r" % ordering)
    nside = _map_nside(edict.get("NSIDE"), row_count)

    return MapSource(path, nside, ordering, row_bytes, row_count, columns,
                     consumed + ext_bytes)


# ---------------------------------------------------------------------------
# writing (fixture generation and export)

def _format_card(key, value, comment=""):
    if isinstance(value, bool):
        body = "%20s" % ("T" if value else "F")
    elif isinstance(value, str):
        body = "'%-8s'" % value.replace("'", "''")
    else:
        body = "%20d" % value
    card = "%-8s= %s" % (key[:8], body)
    if comment:
        card += " / " + comment
    return card[:CARD].ljust(CARD)


def _pad_block(data):
    pad = (-len(data)) % BLOCK
    return data + b"\x00" * pad


def write_map(path, table, nside=None, ordering=None):
    """Write named columns as a primary HDU plus one BINTABLE extension.

    Column dtypes must be float32/int32/float64/int16; values are stored
    big-endian.  ``nside``/``ordering`` become NSIDE/ORDERING cards when
    given.  Returns the number of bytes written.
    """
    names = list(table)
    if not names:
        raise FormatError("cannot write a table with no columns")
    arrays = []
    length = None
    for name in names:
        arr = np.asarray(table[name])
        if arr.dtype not in _DTYPE_TFORMS:
            raise FormatError("unsupported column dtype %s (use f4/i4/f8/i2)"
                              % arr.dtype)
        if length is None:
            length = arr.size
        elif arr.size != length:
            raise FormatError("columns must have equal length")
        arrays.append(arr)

    header = "".join([
        _format_card("SIMPLE", True, "conforms to the FITS standard"),
        _format_card("BITPIX", 8),
        _format_card("NAXIS", 0),
        _format_card("EXTEND", True),
        "END".ljust(CARD),
    ])
    cards = [
        _format_card("XTENSION", "BINTABLE", "binary table extension"),
        _format_card("BITPIX", 8),
        _format_card("NAXIS", 2),
        _format_card("NAXIS1", int(sum(a.dtype.itemsize for a in arrays))),
        _format_card("NAXIS2", int(length)),
        _format_card("PCOUNT", 0),
        _format_card("GCOUNT", 1),
        _format_card("TFIELDS", len(names)),
    ]
    for i, (name, arr) in enumerate(zip(names, arrays), start=1):
        cards.append(_format_card("TTYPE%d" % i, name))
        cards.append(_format_card("TFORM%d" % i, "1" + _DTYPE_TFORMS[arr.dtype]))
    if nside is not None:
        cards.append(_format_card("NSIDE", int(nside), "grid resolution"))
    if ordering is not None:
        cards.append(_format_card("ORDERING", ordering.upper(),
                                  "pixel ordering scheme"))
    cards.append("END".ljust(CARD))

    dtype = np.dtype([(name, ">" + np.dtype(arr.dtype).str[1:])
                      for name, arr in zip(names, arrays)])
    with open(path, "wb") as fh:
        fh.write(_pad_block(header.encode("ascii")))
        fh.write(_pad_block("".join(cards).encode("ascii")))
        # a reused buffer: a payload-sized array, once freed, stays on the heap
        step = 1 << 16
        rows = np.empty(min(length, step), dtype=dtype)
        for lo in range(0, length, step):
            part = rows[:min(step, length - lo)]
            for name, arr in zip(names, arrays):
                part[name] = arr[lo:lo + step]
            fh.write(memoryview(part))
        fh.write(b"\x00" * ((-length * dtype.itemsize) % BLOCK))
        return fh.tell()
