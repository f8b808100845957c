"""File formats: signal/points CSV, TSV dumps, JSON reports, PGM images,
and the run manifest that makes every CLI invocation replayable.

All text is written with explicit "\n" newlines and floats carry 17
significant digits, so outputs are deterministic bytes and numeric
round-trips are exact.

Each JSON file is asdict() of one dataclass (SingularityReport,
HurstEstimate, RunManifest) passed to write_json, which sorts its keys, so
the schema of a file is the fields of its dataclass and this module keeps
no field list of its own.

Every float the CSV and TSV writers write is the bytes of Python's
'%.17g' % x, made for a whole array by one numpy kernel (_fields). It takes
e = floor(log10 |x|) and computes y = |x| * 10**(16 - e) as p + t: p is the
rounded product of |x| with the double nearest 10**(16 - e), Dekker's
TwoProduct gives that product's rounding error exactly, and the power's
remainder, also a double, adds the rest. e is corrected once if p falls
outside [1e16, 1e17). t is then within 2**-46 of the exact y - p, far
inside the 2**-30 guard below, so the 17 digits p + floor(t) +
[frac(t) > 1/2] are y rounded to nearest. They are read four at a time from
a table and laid out by %g's rules: fixed notation for -4 <= e < 17,
otherwise d.ddde+XX, without trailing zeros or a bare point, with '-' on
negatives. The values the kernel cannot settle go to '%.17g' % x itself,
so every byte is the same by construction: 0, -0, inf and nan; |x|
outside [1e-280, 1e280]; a remainder frac(t) within 2**-30 of one half,
where y may sit on a tie; and p within 64 of 1e16 or 1e17, where the
rounding may carry into the next decade.

A field is 48 bytes with NUL where the text has no character. The writers
work in blocks of at most _BLOCK_ROWS rows: a block lays its fields and
separators side by side and writes them with the NULs dropped, so no file
is built whole in memory. A block keeps about 250 bytes a row alive (the
kernel's arrays, about 130 bytes a value, then the side-by-side rows and
their text), about 1 MB for 4096 rows; blocks of 8192 rows wrote no faster
and raised the peak RSS of an 8k dump by 2 MB more. Columns that repeat,
the time and scale labels of the scalogram and maxima TSVs, are formatted
once and held as 24-byte text, the longest '%.17g' gives, and gathered per
block. The scalogram is written one scale at a time through scalogram_tsv,
so a caller can stream it from the transform's rows.

The signal and point readers open their input once, as UTF-8 whatever the
locale, and read it in chunks of about _CHUNK bytes of whole lines, so a
file and a pipe take the same route and nothing but the table grows with
the input. A byte that is not UTF-8 decodes to a lone surrogate, so it
cannot stop a chunk part-way. A chunk that is not ASCII goes to the
per-line loop, which refuses the first line that holds such a byte,
comment lines included. Any other chunk is parsed by np.loadtxt with
comments off. These formats allow comments only
as whole lines; with comments off, any '#' in a chunk makes loadtxt refuse
it, so "1.0,2.0 # note" needs no separate scan. A refused chunk is parsed
once more from the lines the per-line loop keeps, the blank and comment
lines dropped: loadtxt also refuses a line that holds only whitespace. When
that also fails, or the column count is one the format does not allow or
unlike the first rows', the per-line loop parses that chunk, numbering its
lines on from the chunks before. The loop is the only source of error
messages, which name file:line, and it also takes the rare forms float()
accepts and loadtxt does not ("1_0", non-ASCII digits). All routes give
the same float64 values.
"""

from __future__ import annotations

import json
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSignalError
from .series import TimeSeries

_BLOCK_ROWS = 4096
_CHUNK = 1 << 16         # bytes of lines the CSV readers parse at a time
_LABEL = 24             # the longest '%.17g' text: -2.2250738585072014e-308
_EMAX = 282             # the exponent tables cover 10**-282 .. 10**282
_SPLITTER = 134217729.0     # 2**27 + 1, Dekker's split into 26-bit halves


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _powers_of_ten() -> np.ndarray:
    """Row e + _EMAX: 10**(16 - e) as hi + lo, then hi's two halves.

    float(int) and int / int round correctly, so hi is the double nearest
    10**(16 - e) and lo the double nearest the exact rest.
    """
    rows = []
    for e in range(-_EMAX, _EMAX + 1):
        num, den = (10 ** (16 - e), 1) if e <= 16 else (1, 10 ** (e - 16))
        hi = num / den
        n, d = hi.as_integer_ratio()
        rows.append((hi, (num * d - n * den) / (den * d)))
    hi, lo = np.array(rows).T
    return np.column_stack([hi, *_split(hi), lo])


def _words(items) -> np.ndarray:
    """Byte strings of at most 8 bytes as little-endian words, NUL padded."""
    return np.array(items, dtype="S8").view("<u8")


# A field is 48 bytes, six little-endian words, with NUL wherever the
# '%.17g' text has no character; dropping the NULs leaves the text:
#   0        '-' for a negative value
#   1..5     '0.' and up to three '0' before the digits when 1e-4 <= |x| < 1
#   6..39    the 17 digits at the even offsets, each followed by a slot
#            that holds '.' if the fraction starts after that digit
#   40..47   'e', the exponent's sign and its two or three digits
_POW10 = _powers_of_ten()
_EXPONENTS = range(-_EMAX, _EMAX + 1)
_PREFIX = _words([b"\0" + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")
                  for x in _EXPONENTS])
_SUFFIX = _words([b"" if -4 <= x < 17 else b"e%+03d" % x for x in _EXPONENTS])
# digits that fixed notation keeps however many trailing zeros they hold
_INTEGER = np.array([x + 1 if 0 <= x < 17 else 0 for x in _EXPONENTS], np.int8)
# the digit whose slot takes the point (-1: the prefix holds it)
_POINT = np.array([x if 0 <= x < 17 else -1 if -4 <= x < 0 else 0
                   for x in _EXPONENTS])
_GROUPS = np.arange(10000, dtype=np.uint64)
# the four digits of 0..9999 as ASCII at a word's even bytes
_DIGITS = sum((_GROUPS // np.uint64(10 ** (3 - i)) % np.uint64(10)
               + np.uint64(48)) << np.uint64(16 * i) for i in range(4))
# _KEPT[k, g]: how many of the 17 digits are left when the last nonzero
# one is in the four-digit group k (k = 0 holds digits 1..4) and is g's
_KEPT = np.where(_GROUPS == 0, 0, 4 * np.arange(4)[:, None] + 5
                 - sum(_GROUPS % np.uint64(10 ** i) == 0 for i in (1, 2, 3)))
_KEPT = _KEPT.astype(np.int8)
# _MASK[kept, k]: the bytes of group k's word that hold one of the first
# kept digits
_MASK = np.array([[sum(0xFF << 16 * i for i in range(4)
                       if 4 * k + 1 + i < kept) for k in range(4)]
                  for kept in range(18)], np.uint64)


def _scaled(a: np.ndarray, e: np.ndarray):
    """a * 10**(16 - e) as p + t: p = fl(a * hi), t the rest.

    Dekker's TwoProduct gives a * hi - p exactly, so t is off by at most
    the rounding of a * lo and of the sum, under 2**-46 when p < 1e17.
    """
    c = np.take(_POW10, e + _EMAX, axis=0)
    p = a * c[:, 0]
    ah, al = _split(a)
    err = ((ah * c[:, 1] - p) + ah * c[:, 2] + al * c[:, 1]) + al * c[:, 2]
    return p, err + a * c[:, 3]


def _decimal(x: np.ndarray):
    """e, the 17-digit integer d nearest |x| * 10**(16 - e), and whether
    the kernel settles x (see the module docstring for the rest)."""
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p, t = _scaled(a, e)
    # log10 may put a value next to a power of ten in the wrong decade
    off = np.flatnonzero((p < 1e16) | (p >= 1e17))
    if off.size:
        e[off] += np.where(p[off] < 1e16, -1, 1)
        p[off], t[off] = _scaled(a[off], e[off])
    whole = np.floor(t)
    t -= whole
    fast &= np.abs(t - 0.5) >= 2.0 ** -30
    fast &= (p >= 1e16 + 64) & (p <= 1e17 - 64)
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    d += t > 0.5
    return e, d, fast


def _fast_fields(values: np.ndarray):
    """The fields of the values, and the indices of the values the kernel
    leaves to '%.17g', whose rows hold no valid text: 0, -0, inf, nan, |x|
    outside [1e-280, 1e280], p within 64 of 1e16 or 1e17, and frac(t)
    within 2**-30 of one half (see the module docstring).
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    e, low, fast = _decimal(x)
    # the 17 digits: the leading one, then four groups of four
    top = low // 10 ** 8
    low -= top * 10 ** 8
    g = np.empty((4, x.size), np.int64)
    np.floor_divide(low, 10 ** 4, out=g[2])
    np.subtract(low, g[2] * 10 ** 4, out=g[3])
    head = top // 10 ** 4
    np.subtract(top, head * 10 ** 4, out=g[1])
    lead = head // 10 ** 4
    np.subtract(head, lead * 10 ** 4, out=g[0])
    del low, top, head

    xi = e + _EMAX
    xi[~fast] = _EMAX
    kept = np.take(_INTEGER, xi)
    for k in range(4):
        np.maximum(kept, np.take(_KEPT[k], g[k]), out=kept)
    np.maximum(kept, 1, out=kept)

    w = np.empty((x.size, 6), "<u8")
    w[:, 0] = np.take(_PREFIX, xi) | (lead + 48).astype(np.uint64) << 48 \
        | np.signbit(x).astype(np.uint64) * 45
    for k in range(4):
        np.bitwise_and(np.take(_DIGITS, g[k]), np.take(_MASK[:, k], kept),
                       out=w[:, k + 1])
    w[:, 5] = np.take(_SUFFIX, xi)
    point = np.take(_POINT, xi)
    rows = np.flatnonzero((point >= 0) & (kept > point + 1))
    slot = 7 + 2 * point[rows]
    w.reshape(-1)[6 * rows + slot // 8] |= \
        np.uint64(46) << (8 * (slot % 8)).astype(np.uint64)
    return w.view(np.uint8), np.flatnonzero(~fast)


def _fields(values: np.ndarray) -> np.ndarray:
    """Each value's '%.17g' text as a 48-byte field, NULs to be dropped."""
    x = np.asarray(values, dtype=np.float64).ravel()
    fields, slow = _fast_fields(x)
    if slow.size:
        fields[slow] = np.array([b"%.17g" % v for v in x[slow].tolist()],
                                dtype="S48").view(np.uint8).reshape(-1, 48)
    return fields


def _labels(values: np.ndarray) -> np.ndarray:
    """Each value's '%.17g' text left-aligned in _LABEL bytes, NUL padded."""
    values = np.asarray(values, dtype=np.float64).ravel()
    out = np.zeros((values.size, _LABEL), np.uint8)
    for lo in range(0, values.size, _BLOCK_ROWS):
        fields = _fields(values[lo:lo + _BLOCK_ROWS])
        text = fields != 0
        out[lo:lo + len(fields)][
            np.arange(_LABEL) < text.sum(axis=1)[:, None]] = fields[text]
    return out


def _write_rows(fh, sep: bytes, *columns) -> None:
    """Write one line per row of the columns, their fields joined by sep.

    A column is a float64 array, formatted a block of rows at a time; a
    2-D uint8 array of fields; or a pair (fields, index), whose rows are
    fields[index] gathered a block at a time. Each block's fields are laid
    side by side and written with their NULs dropped.
    """
    first = columns[0]
    total = len(first[1] if isinstance(first, tuple) else first)
    for lo in range(0, total, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, total)
        gap = np.full((hi - lo, 1), sep[0], np.uint8)
        parts = []
        for col in columns:
            if isinstance(col, tuple):
                parts.append(col[0][col[1][lo:hi]])
            elif col.ndim == 2:
                parts.append(col[lo:hi])
            else:
                parts.append(_fields(col[lo:hi]))
            parts.append(gap)
        parts[-1] = np.full((hi - lo, 1), ord("\n"), np.uint8)
        block = np.concatenate(parts, axis=1).tobytes()
        fh.write(block.translate(None, b"\0"))


# ---------------------------------------------------------------- signals

def write_signal_csv(path: str, f: TimeSeries) -> None:
    """Two-column t,value CSV with a comment header."""
    with open(path, "wb") as fh:
        fh.write(b"# t,value\n")
        _write_rows(fh, b",", f.time_axis(), f.samples)


def read_signal_csv(path: str) -> TimeSeries:
    """Parse a signal CSV: either value-per-line or t,value rows.

    Lines starting with '#' and blank lines are skipped. With explicit
    times the spacing must be uniform to within a relative jitter of
    1e-9; value-only files get dt = 1. Malformed content raises
    InvalidSignalError naming the offending line.
    """
    table = _table(path, (1, 2), "expected 1 or 2 columns, got {}",
                   "inconsistent column count")
    if len(table) == 0:
        raise InvalidSignalError(f"{path}: no samples")
    if len(table) < 2:
        raise InvalidSignalError(f"{path}: need at least 2 samples")
    samples = table[:, -1].copy()
    if table.shape[1] == 1:
        return TimeSeries(samples=samples, dt=1.0, t0=0.0)

    t = table[:, 0]
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise InvalidSignalError(
            f"{path}: time in data row {bad[0] + 1} is not finite")
    # Python floats: a span past float64's range becomes inf without a warning
    span = float(t[-1]) - float(t[0])
    if not math.isfinite(span):
        raise InvalidSignalError(
            f"{path}: times in data rows 1 and {len(t)} are further apart "
            f"than float64 holds")
    dt = span / (len(t) - 1)
    if dt <= 0:
        raise InvalidSignalError(f"{path}: time column must increase")
    # a step past float64's range reads as inf jitter at its row
    with np.errstate(over="ignore"):
        jitter = np.abs(np.diff(t) - dt)
    worst = int(np.argmax(jitter))
    if jitter[worst] > 1e-9 * abs(dt):
        raise InvalidSignalError(
            f"{path}: nonuniform spacing near data row {worst + 1} "
            f"(jitter {jitter[worst]:.3g} vs dt {dt:.6g})")
    return TimeSeries(samples=samples, dt=float(dt), t0=float(t[0]))


# ----------------------------------------------------------- point clouds

def write_points_csv(path: str, points: np.ndarray) -> None:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    with open(path, "wb") as fh:
        fh.write(b"# x,y\n")
        _write_rows(fh, b",", pts[:, 0], pts[:, 1])


def read_points_csv(path: str) -> np.ndarray:
    """Parse an x,y point CSV into an (n, 2) array.

    The grammar is the signal reader's, with exactly two columns.
    """
    table = _table(path, (2,), "expected x,y", "expected x,y")
    if len(table) == 0:
        raise InvalidSignalError(f"{path}: no points")
    return table


# ------------------------------------------------------------ CSV tables

def _table(path: str, widths: tuple, bad_width: str,
           inconsistent: str) -> np.ndarray:
    """The numeric rows of a CSV as an (n, k) float64 array, k in widths.

    bad_width ("{}" takes the count) names a first data row whose column
    count is not in widths; inconsistent names a later row whose count
    differs from the first's.
    """
    table, width, done = np.empty((0, widths[0])), None, 0
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        while chunk := fh.readlines(_CHUNK):
            part = _loadtxt(chunk) if "".join(chunk).isascii() else _rows(
                path, chunk, done, width, widths, bad_width, inconsistent)
            if part is None:
                part = _loadtxt(_data_lines(chunk))
            if part is None or len(part) and \
                    part.shape[1] not in ((width,) if width else widths):
                part = _rows(path, chunk, done, width, widths, bad_width,
                             inconsistent)
            done += len(chunk)
            if len(part):
                width, n = part.shape[1], len(table)
                # realloc: a large table's pages are moved, not copied
                table.resize((n + len(part), width), refcheck=False)
                table[n:] = part
    return table


def _data_lines(lines):
    """The lines the per-line loop parses: neither blank nor a comment."""
    return (line for line in lines if line.strip()[:1] not in ("", "#"))


def _loadtxt(lines) -> np.ndarray | None:
    """The lines as an (n, k) float64 table, or None if loadtxt refuses them.

    With comments off, a '#' anywhere in the lines is a refusal.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(lines, delimiter=",", comments=None,
                              dtype=np.float64, ndmin=2)
        except ValueError:
            return None


def _rows(path: str, lines: list, done: int, width: int | None,
          widths: tuple, bad_width: str, inconsistent: str) -> np.ndarray:
    """_table of one chunk, a line at a time, after done lines whose rows had
    width columns (None: no row yet); raises InvalidSignalError at file:line,
    also at a line, comment or not, that held a byte that is not UTF-8."""
    rows = []
    for lineno, raw in enumerate(lines, start=done + 1):
        try:
            raw.encode()  # refuses the lone surrogate such a byte became
        except UnicodeEncodeError:
            raise InvalidSignalError(
                f"{path}:{lineno}: not UTF-8 text") from None
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if width is None:
            width = len(parts)
            if width not in widths:
                raise InvalidSignalError(
                    f"{path}:{lineno}: " + bad_width.format(width))
        elif len(parts) != width:
            raise InvalidSignalError(f"{path}:{lineno}: {inconsistent}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise InvalidSignalError(
                f"{path}:{lineno}: not numeric: {line!r}") from None
    return np.array(rows, dtype=np.float64).reshape(len(rows),
                                                    width or widths[0])


# ------------------------------------------------------------- TSV dumps

@contextmanager
def scalogram_tsv(path: str, times: np.ndarray):
    """Yield write(a, power), which appends the rows of one scale a of a
    scalogram TSV: time b, scale a, normalized power S, one row per time.

    The file is created at the first write, so a run refused before its
    first row leaves no file, and it is closed when the block ends.
    """
    fh, labels = None, _labels(times)

    def write(a: float, power: np.ndarray) -> None:
        nonlocal fh
        if fh is None:
            fh = open(path, "wb")
            fh.write(b"# b\ta\tS\n")
        scale = np.broadcast_to(_labels([a]), labels.shape)
        _write_rows(fh, b"\t", labels, scale, power)

    try:
        yield write
    finally:
        if fh is not None:
            fh.close()


def write_scalogram_tsv(path: str, s) -> None:
    """Long-form rows: time b, scale a, normalized power S."""
    with scalogram_tsv(path, s.times) as write:
        for a, power in zip(s.scales, s.values):
            write(a, power)


def write_maxima_tsv(path: str, m) -> None:
    """Long-form rows: time b, scale a, modulus |W|."""
    with open(path, "wb") as fh:
        fh.write(b"# b\ta\tabs_w\n")
        _write_rows(fh, b"\t", (_labels(m.times), m.time_idx),
                    (_labels(m.scales), m.scale_idx), m.values)


# ------------------------------------------------------------- JSON views

def write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_covariance_tsv(path: str, r) -> None:
    counts = np.asarray(r.counts, dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write(b"# a\tvariance\tcount\n")
        _write_rows(fh, b"\t", r.scales, r.values,
                    counts.astype("S20").view(np.uint8).reshape(-1, 20))


# ------------------------------------------------------------- PGM images

def _pixels(v: np.ndarray, lo: float, span: float, size: int) -> np.ndarray:
    """Pixel index of each coordinate, (v - lo) / span * size, cut to the image.

    The coordinates are first clipped in float to [lo, lo + span], outside
    which the index is cut to 0 or size - 1 anyway, so a far point neither
    overflows the scaling nor meets an undefined int64 cast.
    """
    v = np.clip(v, lo, lo + span)
    return np.clip(((v - lo) / span * size).astype(np.int64), 0, size - 1)


def points_to_image(points: np.ndarray, width: int, height: int,
                    bbox: tuple | None = None) -> np.ndarray:
    """Rasterize points to a grayscale density image.

    Counts per pixel are compressed with log1p and scaled so the busiest
    pixel maps to 255. Row 0 is the top of the bounding box (y max).
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise InvalidSignalError("points must be a nonempty (n, 2) array")
    if width < 1 or height < 1:
        raise InvalidSignalError("image dimensions must be positive")
    if not np.all(np.isfinite(pts)):
        raise InvalidSignalError("points must be finite")
    if bbox is None:
        bbox = (pts[:, 0].min(), pts[:, 0].max(),
                pts[:, 1].min(), pts[:, 1].max())
    elif not np.all(np.isfinite(bbox)):
        raise InvalidSignalError(f"bbox must be finite, got {tuple(bbox)}")
    # Python floats: a span past float64's range becomes inf without a warning
    x_lo, x_hi, y_lo, y_hi = (float(v) for v in bbox)
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    if not (np.isfinite(x_span) and np.isfinite(y_span)):
        raise InvalidSignalError(
            f"bbox {(x_lo, x_hi, y_lo, y_hi)} spans more than float64 holds")
    if x_span < 0 or y_span < 0:
        raise InvalidSignalError(
            f"bbox {(x_lo, x_hi, y_lo, y_hi)} is reversed: need XLO <= XHI "
            "and YLO <= YHI")
    x_span = x_span or 1.0
    y_span = y_span or 1.0

    ix = _pixels(pts[:, 0], x_lo, x_span, width)
    # rows count down from y_hi; negating is exact, so -y - -y_hi is y_hi - y
    iy = _pixels(-pts[:, 1], -y_hi, y_span, height)
    counts = np.zeros((height, width), dtype=np.int64)
    np.add.at(counts, (iy, ix), 1)

    # log and rounding in place on the one float copy: 17 bytes a pixel
    img = counts.astype(np.float64)
    np.log1p(img, out=img)
    peak = img.max()
    if peak > 0:
        img *= 255.0 / peak
    return np.rint(img, out=img).astype(np.uint8)


def write_pgm(path: str, image: np.ndarray) -> None:
    """Binary (P5) PGM, maxval 255."""
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise InvalidSignalError("image must be 2-D")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_pgm(path: str) -> np.ndarray:
    """An 8-bit binary (P5) PGM as a (height, width) uint8 array; any other
    header or maxval raises InvalidSignalError naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise InvalidSignalError(f"{path}: not a binary PGM")
    if not all(v.isdigit() for v in fields[1:]):
        raise InvalidSignalError(
            f"{path}: PGM header is truncated or not numeric")
    w, h, maxval = (int(v) for v in fields[1:])
    if not 0 < maxval < 256:
        raise InvalidSignalError(
            f"{path}: PGM maxval {maxval}; only 8-bit images are read")
    pos += 1  # single whitespace byte after maxval
    raster = np.frombuffer(data[pos:pos + w * h], dtype=np.uint8)
    if raster.size != w * h:
        raise InvalidSignalError(f"{path}: truncated raster")
    return raster.reshape(h, w)


# ------------------------------------------------------------- manifests

@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one CLI invocation byte for byte."""

    subcommand: str
    argv: tuple
    params: dict
    inputs: tuple
    outputs: tuple
    version: str


def read_run_manifest(path: str) -> RunManifest:
    """The RunManifest whose asdict() was written to path; its keys are the
    field names, and JSON gives the tuple fields back as lists."""
    return RunManifest(**{k: tuple(v) if isinstance(v, list) else v
                          for k, v in read_json(path).items()})
