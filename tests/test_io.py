import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavekit.io
from wavekit import (DetectionConfig, InvalidSignalError, MaximaSet,
                     MexicanHat, ScaleGrid, Scalogram, TimeSeries,
                     barnsley_tree_model, chaos_game, cwt_fft,
                     detect_singularities, gen_chirp_jump, modulus_maxima,
                     scalogram, wavelet_autocovariance)
from wavekit.io import (RunManifest, _fnum, estimate_to_dict, points_to_image,
                        read_json, read_pgm, read_points_csv,
                        read_run_manifest, read_signal_csv, report_to_dict,
                        write_covariance_tsv, write_json, write_maxima_tsv,
                        write_pgm, write_points_csv, write_run_manifest,
                        write_scalogram_tsv, write_signal_csv)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


# ------------------------------------------------------------ number format

@given(finite)
def test_seventeen_digits_round_trip_any_double(v):
    assert float(_fnum(v)) == v


# -------------------------------------------------------------- signal CSV

@settings(max_examples=40, deadline=None)
@given(st.lists(finite, min_size=2, max_size=64),
       st.floats(1e-6, 1e3),
       st.floats(-1e4, 1e4))
def test_signal_csv_round_trip(tmp_path_factory, values, dt, offset):
    path = str(tmp_path_factory.mktemp("sig") / "f.csv")
    f = TimeSeries(samples=np.asarray(values), dt=dt, t0=offset * dt)
    write_signal_csv(path, f)
    g = read_signal_csv(path)
    assert np.array_equal(g.samples, f.samples)
    assert g.t0 == f.t0
    assert g.dt == pytest.approx(f.dt, rel=1e-12)


def test_value_only_files_get_unit_spacing(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("# values\n\n1.5\n2.5\n-3.5\n")
    f = read_signal_csv(str(p))
    assert np.array_equal(f.samples, [1.5, 2.5, -3.5])
    assert f.dt == 1.0 and f.t0 == 0.0


def test_comments_and_blanks_are_skipped(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("# header\n0.0,1.0\n\n# midstream note\n0.5,2.0\n1.0,3.0\n")
    f = read_signal_csv(str(p))
    assert f.n == 3 and f.dt == pytest.approx(0.5)


@pytest.mark.parametrize("body, message", [
    ("", "no samples"),
    ("# only a comment\n", "no samples"),
    ("1.0,2.0\n", "need at least 2 samples"),
    ("1,2,3\n4,5,6\n", "expected 1 or 2 columns, got 3"),
    ("0.0,1.0\n0.5\n", ":2: inconsistent column count"),
    ("0.0,1.0\n0.5,oops\n", ":2: not numeric"),
    ("0.0,1.0\n-0.5,2.0\n", "time column must increase"),
    ("0.0,1.0\n0.1,2.0\n0.9,3.0\n1.0,4.0\n", "nonuniform spacing near data row"),
])
def test_signal_csv_rejects_malformed_input(tmp_path, body, message):
    p = tmp_path / "bad.csv"
    p.write_text(body)
    with pytest.raises(InvalidSignalError, match=message):
        read_signal_csv(str(p))


@pytest.mark.parametrize("body, row", [
    ("0,1\n1,2\ninf,3\n", 3),
    ("-inf,1\n1,2\n2,3\n", 1),
    ("# t,value\n0,1\nnan,2\n2,3\n", 2),
])
def test_signal_csv_names_the_first_non_finite_time(tmp_path, body, row):
    p = tmp_path / "t.csv"
    p.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSignalError,
                           match=f"t.csv: time in data row {row} is not "
                                 f"finite"):
            read_signal_csv(str(p))


def test_parse_errors_name_the_file_and_line(tmp_path):
    p = tmp_path / "named.csv"
    p.write_text("# h\n0.0,1.0\nnope,2.0\n")
    with pytest.raises(InvalidSignalError, match=r"named\.csv:3: not numeric"):
        read_signal_csv(str(p))


# -------------------------------------------------------------- points CSV

def test_points_csv_round_trip(tmp_path):
    pts = chaos_game(barnsley_tree_model(), n=500, seed=4).points
    p = str(tmp_path / "pts.csv")
    write_points_csv(p, pts)
    assert np.array_equal(read_points_csv(p), pts)


@pytest.mark.parametrize("body, message", [
    ("", "no points"),
    ("1.0\n", "expected x,y"),
    ("1.0,2.0,3.0\n", "expected x,y"),
    ("1.0,zz\n", ":1: not numeric"),
])
def test_points_csv_rejects_malformed_input(tmp_path, body, message):
    p = tmp_path / "bad.csv"
    p.write_text(body)
    with pytest.raises(InvalidSignalError, match=message):
        read_points_csv(str(p))


# --------------------------------------------------------------- TSV dumps

@pytest.fixture(scope="module")
def small_transform():
    f = gen_chirp_jump(512)
    g = ScaleGrid.with_count(2.0 * f.dt, 20.0 * f.dt, 10)
    return cwt_fft(f, MexicanHat(), g)


def test_scalogram_tsv_is_loadable_and_exact(small_transform, tmp_path):
    s = scalogram(small_transform)
    p = str(tmp_path / "s.tsv")
    write_scalogram_tsv(p, s)
    rows = np.loadtxt(p)
    assert rows.shape == (s.scales.size * s.times.size, 3)
    assert np.array_equal(rows[:, 2], s.values.ravel())
    assert np.array_equal(rows[: s.times.size, 0], s.times)
    assert np.all(rows[: s.times.size, 1] == s.scales[0])


def test_maxima_tsv_matches_the_point_set(small_transform, tmp_path):
    m = modulus_maxima(small_transform)
    p = str(tmp_path / "m.tsv")
    write_maxima_tsv(p, m)
    rows = np.loadtxt(p, ndmin=2)
    assert rows.shape == (m.n_points, 3)
    assert np.array_equal(rows[:, 0], m.times[m.time_idx])
    assert np.array_equal(rows[:, 1], m.scales[m.scale_idx])
    assert np.array_equal(rows[:, 2], m.values)


def test_covariance_tsv_round_trip(small_transform, tmp_path):
    r = wavelet_autocovariance(small_transform)
    p = str(tmp_path / "r.tsv")
    write_covariance_tsv(p, r)
    rows = np.loadtxt(p, ndmin=2)
    assert np.array_equal(rows[:, 0], r.scales)
    assert np.array_equal(rows[:, 1], r.values)
    assert np.array_equal(rows[:, 2].astype(np.int64), r.counts)


# -------------------------------------------------------------- JSON views

def test_json_round_trip_and_layout(tmp_path):
    p = str(tmp_path / "d.json")
    payload = {"zeta": 1.25, "alpha": [1, 2, 3], "mid": {"k": None}}
    write_json(p, payload)
    text = open(p).read()
    assert text.endswith("}\n")
    assert text.index('"alpha"') < text.index('"mid"') < text.index('"zeta"')
    assert read_json(p) == payload


def test_report_dict_shape():
    rep = detect_singularities(gen_chirp_jump(1024), MexicanHat(),
                               config=DetectionConfig(max_alpha=2.0))
    d = report_to_dict(rep)
    assert set(d) == {"events", "sigma_hat", "n_lines", "n_significant",
                      "wavelet", "config"}
    assert d["config"]["max_alpha"] == 2.0
    assert d["config"]["threshold_multiplier"] == 3.0
    for ev in d["events"]:
        assert set(ev) == {"location", "kind", "strength", "alpha",
                           "line_span_octaves"}
    assert json.dumps(d)  # JSON-serializable as is


def test_estimate_dict_shape(small_transform):
    from wavekit import fit_power_law
    d = estimate_to_dict(fit_power_law(wavelet_autocovariance(small_transform)))
    assert set(d) == {"beta", "log_intercept", "r_squared", "hurst",
                      "dimension", "classification", "scale_range",
                      "n_scales_used", "warnings"}
    assert isinstance(d["scale_range"], list)
    assert isinstance(d["warnings"], list)
    assert json.dumps(d)


# -------------------------------------------------------------- PGM images

def test_pgm_round_trip(tmp_path):
    img = np.arange(35, dtype=np.uint8).reshape(5, 7) * 7
    p = str(tmp_path / "i.pgm")
    write_pgm(p, img)
    assert np.array_equal(read_pgm(p), img)


def test_pgm_header_comments_are_skipped(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# made by hand\n2 2\n255\n\x00\x10\x20\x30")
    assert np.array_equal(read_pgm(str(p)),
                          [[0x00, 0x10], [0x20, 0x30]])


def test_pgm_rejects_other_formats(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(InvalidSignalError, match="not a binary PGM"):
        read_pgm(str(p))


def test_pgm_rejects_short_raster(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x01\x02")
    with pytest.raises(InvalidSignalError, match="truncated raster"):
        read_pgm(str(p))


# ---------------------------------------------------------- rasterization

def test_density_image_basics():
    rng = np.random.default_rng(0)
    pts = rng.random((5000, 2))
    img = points_to_image(pts, 32, 16)
    assert img.shape == (16, 32) and img.dtype == np.uint8
    assert img.max() == 255


def test_density_image_orientation_and_log_scaling():
    pts = np.array([[0.0, 1.0]] * 1 + [[1.0, 0.0]] * 60)
    img = points_to_image(pts, 4, 4, bbox=(0.0, 1.0, 0.0, 1.0))
    assert img[0, 0] > 0          # y max lands on the top row
    assert img[3, 3] == 255       # busiest pixel saturates
    assert img[0, 0] < 255        # log1p keeps the single point dimmer
    assert img.sum() == int(img[0, 0]) + int(img[3, 3])


def test_density_image_clips_to_bbox():
    pts = np.array([[0.5, 0.5], [99.0, 99.0], [-99.0, -99.0]])
    img = points_to_image(pts, 8, 8, bbox=(0.0, 1.0, 0.0, 1.0))
    assert img[0, 7] > 0 and img[7, 0] > 0  # outliers pinned to corners


@pytest.mark.parametrize("pts", [np.empty((0, 2)), np.zeros((3, 3)),
                                 np.zeros(4), np.array([[0.0, 0.0],
                                                        [np.nan, 1.0]]),
                                 np.array([[0.0, -np.inf], [1.0, 1.0]])])
def test_density_image_rejects_bad_points(pts):
    with pytest.raises(InvalidSignalError):
        points_to_image(pts, 8, 8)


@pytest.mark.parametrize("bbox", [(np.nan, 1.0, 0.0, 1.0),
                                  (0.0, np.inf, 0.0, 1.0),
                                  (0.0, 1.0, -np.inf, np.inf)])
def test_density_image_rejects_non_finite_bbox(bbox):
    with pytest.raises(InvalidSignalError, match="bbox must be finite"):
        points_to_image(np.zeros((4, 2)), 8, 8, bbox=bbox)


@pytest.mark.parametrize("pts, bbox", [
    ([[-1e308, 0.0], [1e308, 1.0]], None),
    ([[0.0, -1e308], [1.0, 1e308]], None),
    ([[0.0, 0.0], [1.0, 1.0]], (-1e308, 1e308, 0.0, 1.0)),
    ([[0.0, 0.0], [1.0, 1.0]], (0.0, 1.0, 1e308, -1e308)),
])
def test_density_image_rejects_extents_past_float64(pts, bbox):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSignalError,
                           match=r"spans more than float64 holds"):
            points_to_image(np.array(pts), 8, 8, bbox=bbox)


@pytest.mark.parametrize("bbox, digest", [
    (None, "f762feca1cfd9f8c82b439b43ddc958f27577ec0f06ac02161f2165dee7ec566"),
    ((-1.0, 1.0, 0.0, 2.0),
     "98a150c254d7451162744d16e1b9f3e329e6c053d7131f4a7bb45f135599d355"),
])
def test_density_image_bytes_are_pinned(bbox, digest):
    pts = chaos_game(barnsley_tree_model(), n=5000, seed=2).points
    img = points_to_image(pts, 40, 60, bbox=bbox)
    assert hashlib.sha256(img.tobytes()).hexdigest() == digest


def test_density_image_rejects_bad_dims():
    with pytest.raises(InvalidSignalError):
        points_to_image(np.zeros((4, 2)), 0, 8)


# ----------------------------------------------------------------- manifests

def test_manifest_round_trip(tmp_path):
    m = RunManifest(subcommand="analyze",
                    argv=("analyze", "f.csv", "--report", "r.json"),
                    params={"threshold": 3.0, "max_alpha": None},
                    inputs=("f.csv",),
                    outputs=("r.json",),
                    version="0.1.0")
    p = str(tmp_path / "run.manifest.json")
    write_run_manifest(p, m)
    assert read_run_manifest(p) == m


# ----------------------------------------------- writer bytes, row by row

_SPECIAL = np.array([-0.0, 0.0, 5e-324, 2.5e-310, 1e308, -1e308, 3.0, -7.0,
                     2.0 ** 53, 0.1, 1.0 / 3.0, np.nan, np.inf, -np.inf])


def _row_bytes(header, sep, rows):
    """The writers' format, one value at a time: the reference for bytes."""
    return (header + "".join(sep.join("%.17g" % v for v in row) + "\n"
                             for row in rows)).encode()


def _special_values(size, seed):
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 308, size)
    k = min(size, _SPECIAL.size)
    out[:k] = _SPECIAL[:k]
    return out


@pytest.fixture(params=[7, 65536], ids=["blocks-of-7", "default-blocks"])
def block_rows(request, monkeypatch):
    monkeypatch.setattr(wavekit.io, "_BLOCK_ROWS", request.param)
    return request.param


def test_points_csv_bytes_match_the_row_formatter(tmp_path, block_rows):
    pts = _special_values(2 * 40, 1).reshape(-1, 2)
    p = tmp_path / "pts.csv"
    write_points_csv(str(p), pts)
    assert p.read_bytes() == _row_bytes("# x,y\n", ",", pts.tolist())
    write_points_csv(str(p), np.empty((0, 2)))
    assert p.read_bytes() == b"# x,y\n"


def test_signal_csv_bytes_match_the_row_formatter(tmp_path, block_rows):
    values = _special_values(40, 2)
    f = TimeSeries(samples=values[np.isfinite(values)], dt=0.1, t0=-2.5)
    p = tmp_path / "sig.csv"
    write_signal_csv(str(p), f)
    assert p.read_bytes() == _row_bytes(
        "# t,value\n", ",", zip(f.time_axis(), f.samples))


def test_scalogram_tsv_bytes_match_the_row_formatter(tmp_path, block_rows):
    times = _special_values(20, 3)
    scales = np.array([5e-324, 0.5, 1e308, np.inf])
    values = _special_values(scales.size * times.size, 4).reshape(
        scales.size, times.size)
    p = tmp_path / "s.tsv"
    write_scalogram_tsv(str(p), Scalogram(values=values, scales=scales,
                                          times=times))
    assert p.read_bytes() == _row_bytes(
        "# b\ta\tS\n", "\t",
        [(times[i], scales[j], values[j, i])
         for j in range(scales.size) for i in range(times.size)])


def test_maxima_tsv_bytes_match_the_row_formatter(tmp_path, block_rows):
    rng = np.random.default_rng(5)
    times, scales = _special_values(30, 6), _special_values(6, 7)
    scale_idx = np.sort(rng.integers(0, scales.size, 50))
    time_idx = rng.integers(0, times.size, 50)
    m = MaximaSet(time_idx=time_idx, scale_idx=scale_idx,
                  values=_special_values(50, 8), line_id=np.arange(50),
                  lines=(), scales=scales, times=times)
    p = tmp_path / "m.tsv"
    write_maxima_tsv(str(p), m)
    assert p.read_bytes() == _row_bytes(
        "# b\ta\tabs_w\n", "\t",
        [(times[i], scales[j], v)
         for i, j, v in zip(time_idx, scale_idx, m.values)])


def test_scalogram_tsv_bytes_are_pinned(tmp_path):
    i = np.arange(6)
    scales = np.array([0.2, 0.4, 0.8, 1.6])
    values = np.sqrt(1.0 + i[None, :]) / (scales * np.sqrt(scales))[:, None]
    values[1, 2], values[2, 3], values[3, 4], values[0, 5] = \
        -0.0, 5e-324, 1e308, 3.0
    p = tmp_path / "pin.tsv"
    write_scalogram_tsv(str(p), Scalogram(values=values, scales=scales,
                                          times=0.1 * i - 0.25))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == \
        "a60f63f21b72a06681b7c642a1c0195361fd683a61a889cd69b43da524b34804"


# ------------------------------------------- readers against the line loops

def _old_read_signal_csv(path: str) -> TimeSeries:
    """The per-line signal reader the bulk parse replaced: the reference."""
    ts, vs = [], []
    ncols = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if ncols is None:
                ncols = len(parts)
                if ncols not in (1, 2):
                    raise InvalidSignalError(
                        f"{path}:{lineno}: expected 1 or 2 columns, got {ncols}")
            elif len(parts) != ncols:
                raise InvalidSignalError(
                    f"{path}:{lineno}: inconsistent column count")
            try:
                row = [float(p) for p in parts]
            except ValueError:
                raise InvalidSignalError(
                    f"{path}:{lineno}: not numeric: {line!r}") from None
            if ncols == 2:
                ts.append(row[0])
                vs.append(row[1])
            else:
                vs.append(row[0])
    if not vs:
        raise InvalidSignalError(f"{path}: no samples")
    if len(vs) < 2:
        raise InvalidSignalError(f"{path}: need at least 2 samples")

    if ncols == 1:
        return TimeSeries(samples=np.asarray(vs), dt=1.0, t0=0.0)

    t = np.asarray(ts)
    # the finite-time check came after the line loops; it runs on the table
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
    return TimeSeries(samples=np.asarray(vs), dt=float(dt), t0=float(t[0]))


def _old_read_points_csv(path: str) -> np.ndarray:
    """The per-line points reader the bulk parse replaced: the reference."""
    rows = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise InvalidSignalError(
                    f"{path}:{lineno}: expected x,y")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise InvalidSignalError(
                    f"{path}:{lineno}: not numeric: {line!r}") from None
    if not rows:
        raise InvalidSignalError(f"{path}: no points")
    return np.asarray(rows, dtype=np.float64)


def _outcome(read, path):
    """What a reader returns, to the bit, or the type and text it raises."""
    try:
        got = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(got, TimeSeries):
        assert got.samples.flags.c_contiguous and got.samples.flags.owndata
        return got.samples.tobytes(), got.dt, got.t0
    assert got.flags.c_contiguous
    return got.shape, got.tobytes()


def _assert_readers_agree(path):
    assert _outcome(read_signal_csv, path) == \
        _outcome(_old_read_signal_csv, path)
    assert _outcome(read_points_csv, path) == \
        _outcome(_old_read_points_csv, path)


_CORPUS = {
    "header": "# t,value\n0,1\n0.5,2\n1,3\n",
    "inline-note": "0,1\n0.5,2 # note\n1,3\n",
    "inline-note-values": "1\n2 # note\n3\n",
    "inline-hash-only": "0,1#\n1,2\n",
    "hashes-in-a-comment": "## title # more\n0,1\n1,2\n",
    "indented-comment": "  # c\n\t# d\n0,1\n1,2\n",
    "underscore": "0,1_0\n1,2\n",
    "underscore-values": "1_0\n2\n",
    "arabic-indic-digits": "١,2\n٢,3\n",
    "fullwidth-digits": "０,1\n１,2\n",
    "bom-header": "﻿# t,value\n0,1\n1,2\n",
    "bom-number": "﻿0,1\n1,2\n",
    "crlf": "# h\r\n0,1\r\n1,2\r\n",
    "lone-cr": "# h\r0,1\r1,2\r",
    "mixed-endings": "0,1\r\n1,2\r2,3\n",
    "spaces-and-tabs": " 0 ,\t1 \n\t1,  2\t\n",
    "nbsp": "\xa00,1\xa0\n1,2\n",
    "whitespace-lines": "0,1\n   \n\t\n1,2\n",
    "form-feed-line": "0,1\n\x0c\n1,2\n",
    "file-separator": "0,1\x1c\n1,2\n",
    "nul": "0,1\x00\n1,2\n",
    "trailing-comma": "0,1,\n1,2,\n",
    "empty-field": "0,\n1,2\n",
    "only-commas": ",\n,\n",
    "three-columns": "1,2,3\n4,5,6\n",
    "three-columns-later": "0,1\n1,2,3\n",
    "one-then-two": "1\n2,3\n",
    "two-then-one": "0,1\n2\n",
    "specials": "nan,inf\n1e400,1e-400\n-0,-nan\n",
    "nan-value": "nan\n1\n",
    "inf-value": "inf\n1\n",
    "overflow": "1e400\n1\n",
    "underflow": "0,1e-400\n1,-0\n",
    "spellings": "Infinity,NaN\n-INF,+nan\n",
    "nan-times": "nan,1\nnan,2\n",
    "long-field": "0." + "0" * 200 + "1,1\n1,2\n",
    "quoted": '"0",1\n1,2\n',
    "hex": "0x1\n2\n",
    "one-row": "0,1\n",
    "one-value": "5\n",
    "empty": "",
    "only-comments": "# a\n# b\n",
    "only-blanks": "\n  \n",
    "nonuniform": "0,1\n0.1,2\n0.9,3\n1.0,4\n",
    "decreasing": "1,1\n0,2\n",
    "equal-times": "0,1\n0,2\n",
    "not-numeric": "0,1\nabc,2\n",
    "no-final-newline": "0,1\n1,2",
}


@pytest.mark.parametrize("text", list(_CORPUS.values()), ids=list(_CORPUS))
def test_readers_match_the_line_loops_on_the_corpus(tmp_path, text):
    p = tmp_path / "c.csv"
    p.write_bytes(text.encode())
    _assert_readers_agree(str(p))


def test_readers_match_the_line_loops_on_undecodable_bytes(tmp_path):
    p = tmp_path / "c.csv"
    p.write_bytes(b"0,1\n1,2\xff\n")
    _assert_readers_agree(str(p))


_FUZZ_CHARS = "0123456789.e+-,#_naif \t\n\r"
_FIELD = st.one_of(st.floats(width=64).map(repr), st.integers(-3, 3).map(str),
                   st.text(_FUZZ_CHARS, max_size=6))
_LINE = st.one_of(st.lists(_FIELD, min_size=1, max_size=3).map(",".join),
                  st.text(_FUZZ_CHARS, max_size=10))


@st.composite
def _csv_texts(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.text(_FUZZ_CHARS, max_size=60))
    lines = draw(st.lists(_LINE, max_size=8))
    if kind == 2:  # a time column that counts up, so signals can parse
        lines = [f"{k},{line}" for k, line in enumerate(lines)]
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


@settings(max_examples=300, deadline=None)
@given(_csv_texts())
def test_readers_match_the_line_loops_on_fuzzed_text(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("fuzz") / "f.csv"
    p.write_bytes(text.encode())
    _assert_readers_agree(str(p))


def test_readers_round_trip_seventeen_digits_at_64k(tmp_path):
    n = 65536
    values = _special_values(3 * n, 9)
    samples = values[np.isfinite(values)][:n]
    sig = str(tmp_path / "sig.csv")
    write_signal_csv(sig, TimeSeries(samples=samples, dt=0.1, t0=-2.5))
    assert np.array_equal(read_signal_csv(sig).samples, samples)
    pts = values[:2 * n].reshape(n, 2)
    cloud = str(tmp_path / "pts.csv")
    write_points_csv(cloud, pts)
    assert read_points_csv(cloud).tobytes() == pts.tobytes()
    for path in (sig, cloud):
        _assert_readers_agree(path)


def test_clean_files_skip_the_line_loop(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("line loop called")

    sig, cloud = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
    write_signal_csv(sig, gen_chirp_jump(300))
    write_points_csv(cloud, chaos_game(barnsley_tree_model(), n=300,
                                       seed=1).points)
    hashes = tmp_path / "hashes.csv"
    hashes.write_text("## title # more\n# x,y\n0,1\n1,2 \n## end\n")
    monkeypatch.setattr(wavekit.io, "_rows", refuse)
    assert read_signal_csv(sig).n == 300
    assert read_points_csv(cloud).shape == (300, 2)
    assert read_points_csv(str(hashes)).shape == (2, 2)
    p = tmp_path / "note.csv"
    p.write_text("0,1\n1,2 # note\n")
    with pytest.raises(AssertionError, match="line loop called"):
        read_signal_csv(str(p))
