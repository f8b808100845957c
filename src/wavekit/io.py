"""File formats: signal/points CSV, TSV dumps, JSON reports, PGM images,
and the run manifest that makes every CLI invocation replayable.

All text is written with explicit "\n" newlines and floats carry 17
significant digits, so outputs are deterministic bytes and numeric
round-trips are exact.

The CSV and TSV writers format their rows in blocks: one %-template per
block of at most _BLOCK_ROWS rows (one per scale for the scalogram, whose
time column is formatted once), applied to a tuple of the block's values.
"%.17g" formats a Python float and an np.float64 alike, so the bytes are
those of formatting each value on its own; no file is built whole in
memory.

The signal and point readers parse a file in one np.loadtxt pass. A
memory-mapped scan first checks that every '#' begins its line (after
blanks): loadtxt would cut a line at any '#', while these formats allow
comments only as whole lines. When the scan finds such a '#', or loadtxt
refuses the file or finds a column count the format does not allow, one
per-line loop parses the file again. That loop is the only source of
error messages, which name file:line, and it also takes the rare forms
float() accepts and loadtxt does not ("1_0", non-ASCII digits, blank
lines holding whitespace). Both routes give the same float64 values.
"""

from __future__ import annotations

import json
import mmap
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidSignalError
from .series import TimeSeries

_FMT = "%.17g"
_BLOCK_ROWS = 65536


def _fnum(v: float) -> str:
    return _FMT % v


def _strings(values: np.ndarray) -> np.ndarray:
    """Each value formatted once, as an object array for fancy indexing."""
    return np.array([_FMT % v for v in values.tolist()], dtype=object)


def _write_rows(fh, row: str, *columns: np.ndarray) -> None:
    """Write the %-template row once per index of the columns.

    Each block of rows is one % of the repeated template against the
    block's values, interleaved row by row from the columns.
    """
    width = len(columns)
    total = len(columns[0])
    for lo in range(0, total, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, total)
        args = [None] * ((hi - lo) * width)
        for k, col in enumerate(columns):
            args[k::width] = col[lo:hi].tolist()
        fh.write(row * (hi - lo) % tuple(args))


# ---------------------------------------------------------------- signals

def write_signal_csv(path: str, f: TimeSeries) -> None:
    """Two-column t,value CSV with a comment header."""
    with open(path, "w", newline="\n") as fh:
        fh.write("# t,value\n")
        _write_rows(fh, _FMT + "," + _FMT + "\n", f.time_axis(), f.samples)


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
    dt = (t[-1] - t[0]) / (len(t) - 1)
    if dt <= 0:
        raise InvalidSignalError(f"{path}: time column must increase")
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
    with open(path, "w", newline="\n") as fh:
        fh.write("# x,y\n")
        _write_rows(fh, _FMT + "," + _FMT + "\n", pts[:, 0], pts[:, 1])


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
    if _comments_are_whole_lines(path):
        with open(path) as fh, warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning)
            try:
                table = np.loadtxt(fh, delimiter=",", comments="#",
                                   dtype=np.float64, ndmin=2)
            except ValueError:
                table = None
        if table is not None and table.shape[1] in widths:
            return table
    return _rows(path, widths, bad_width, inconsistent)


def _comments_are_whole_lines(path: str) -> bool:
    """Whether every '#' in the file has only blanks before it on its line.

    False as well for a file that cannot be mapped (empty, or not a
    regular file), which leaves it to the per-line loop.
    """
    with open(path, "rb") as fh:
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return False
    with mm:
        lo, pos = 0, mm.find(b"#")
        while pos >= 0:
            # With no line break since the previous '#', this one sits on
            # the same comment line and needs no check.
            start = max(mm.rfind(b"\n", lo, pos), mm.rfind(b"\r", lo, pos)) + 1
            if (start or not lo) and mm[start:pos].strip():
                return False
            lo, pos = pos + 1, mm.find(b"#", pos + 1)
    return True


def _rows(path: str, widths: tuple, bad_width: str,
          inconsistent: str) -> np.ndarray:
    """_table one line at a time; raises InvalidSignalError at file:line."""
    rows, width = [], None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
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

def write_scalogram_tsv(path: str, s) -> None:
    """Long-form rows: time b, scale a, normalized power S."""
    times = _strings(s.times)
    with open(path, "w", newline="\n") as fh:
        fh.write("# b\ta\tS\n")
        for j in range(s.scales.size):
            row = "%s\t" + _fnum(s.scales[j]) + "\t" + _FMT + "\n"
            _write_rows(fh, row, times, s.values[j])


def write_maxima_tsv(path: str, m) -> None:
    """Long-form rows: time b, scale a, modulus |W|."""
    with open(path, "w", newline="\n") as fh:
        fh.write("# b\ta\tabs_w\n")
        _write_rows(fh, "%s\t%s\t" + _FMT + "\n",
                    _strings(m.times)[m.time_idx],
                    _strings(m.scales)[m.scale_idx], m.values)


# ------------------------------------------------------------- JSON views

def write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def report_to_dict(report) -> dict:
    return {
        "events": [
            {"location": e.location, "kind": e.kind, "strength": e.strength,
             "alpha": e.alpha, "line_span_octaves": e.line_span_octaves}
            for e in report.events
        ],
        "sigma_hat": report.sigma_hat,
        "n_lines": report.n_lines,
        "n_significant": report.n_significant,
        "wavelet": report.wavelet,
        "config": asdict(report.config),
    }


def estimate_to_dict(est) -> dict:
    return {
        "beta": est.beta,
        "log_intercept": est.log_intercept,
        "r_squared": est.r_squared,
        "hurst": est.hurst,
        "dimension": est.dimension,
        "classification": est.classification,
        "scale_range": list(est.scale_range),
        "n_scales_used": est.n_scales_used,
        "warnings": list(est.warnings),
    }


def write_covariance_tsv(path: str, r) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("# a\tvariance\tcount\n")
        for j in range(r.scales.size):
            fh.write(_fnum(r.scales[j]) + "\t" + _fnum(r.values[j]) + "\t"
                     + str(int(r.counts[j])) + "\n")


# ------------------------------------------------------------- PGM images

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
    x_span = x_span or 1.0
    y_span = y_span or 1.0

    ix = np.clip(((pts[:, 0] - x_lo) / x_span * width).astype(np.int64),
                 0, width - 1)
    iy = np.clip(((y_hi - pts[:, 1]) / y_span * height).astype(np.int64),
                 0, height - 1)
    counts = np.zeros((height, width), dtype=np.int64)
    np.add.at(counts, (iy, ix), 1)

    img = np.log1p(counts.astype(np.float64))
    peak = img.max()
    if peak > 0:
        img *= 255.0 / peak
    return np.rint(img).astype(np.uint8)


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
    w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
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


def write_run_manifest(path: str, m: RunManifest) -> None:
    payload = {
        "subcommand": m.subcommand,
        "argv": list(m.argv),
        "params": m.params,
        "inputs": list(m.inputs),
        "outputs": list(m.outputs),
        "version": m.version,
    }
    write_json(path, payload)


def read_run_manifest(path: str) -> RunManifest:
    d = read_json(path)
    return RunManifest(subcommand=d["subcommand"], argv=tuple(d["argv"]),
                       params=d["params"], inputs=tuple(d["inputs"]),
                       outputs=tuple(d["outputs"]), version=d["version"])
