import hashlib
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wavekit.io
from wavekit import (DetectionConfig, InvalidSignalError, MaximaSet,
                     MexicanHat, ScaleGrid, Scalogram, TimeSeries,
                     WaveletAutoCovariance, barnsley_tree_model, chaos_game,
                     cwt_fft, detect_singularities, gen_chirp_jump,
                     modulus_maxima, scalogram, wavelet_autocovariance)
from wavekit.io import (RunManifest, _fast_fields, _fields, points_to_image,
                        read_json, read_pgm, read_points_csv, read_run_manifest,
                        read_signal_csv, scalogram_tsv,
                        write_covariance_tsv, write_json,
                        write_maxima_tsv, write_pgm, write_points_csv,
                        write_scalogram_tsv, write_signal_csv)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


# ------------------------------------------------------------ number format

def _texts(values) -> list:
    """The formatting kernel's text of each value, as bytes."""
    values = np.asarray(values, dtype=np.float64)
    out = []
    for lo in range(0, values.size, 1 << 16):
        fields = _fields(values[lo:lo + (1 << 16)])
        ends = np.full((len(fields), 1), ord("\n"), np.uint8)
        text = np.hstack([fields, ends]).tobytes().translate(None, b"\0")
        out += text.split(b"\n")[:-1]
    return out


@given(finite)
def test_seventeen_digits_round_trip_any_double(v):
    assert float(_texts([v])[0]) == v


def _hard_values(rng) -> np.ndarray:
    """The values a '%.17g' kernel is most likely to get wrong."""
    tens = np.array([float(10 ** k) for k in range(309)]
                    + [1 / 10 ** k for k in range(1, 324)])
    # doubles that sit on a tie once rounded to 17 digits: q / 2**j with q
    # odd and q * 5**j an 18-digit integer, which then ends in 5
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        ties += [math.ldexp(q | 1, -j) for q in rng.integers(lo, hi - 1, 200)
                 .tolist()]
    # the first doubles whose 17 digits carry into the next decade, and
    # their neighbours, and ...9.5 with up to 15 nines
    carries = [float(Fraction(10) ** k * (1 - Fraction(5, 10 ** 18)))
               for k in range(-300, 300)]
    carries = np.array(carries)
    carries = np.concatenate([carries, np.nextafter(carries, 0),
                              np.nextafter(carries, np.inf)])
    nines = np.array([10.0 ** m - 0.5 for m in range(1, 16)])
    # both sides of the switch to scientific notation, 1e-4 and 1e17
    switch = (rng.uniform(1, 10, 20000)
              * 10.0 ** rng.integers(-7, 20, 20000))
    subnormal = rng.integers(1, 2 ** 52, 20000).view(np.float64)
    near_2_53 = 2.0 ** 53 + np.arange(-5000, 5001)
    special = [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e-280, 1e280]
    hard = np.concatenate([tens, np.nextafter(tens, 0),
                           np.nextafter(tens, np.inf), ties, carries, nines,
                           switch, subnormal, near_2_53, special])
    return np.concatenate([hard, -hard])


def test_format_kernel_is_percent_17g_byte_for_byte():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64)
    values = np.concatenate([bits, _hard_values(rng)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _texts(values)
    want = [b"%.17g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def test_format_kernel_settles_nearly_every_value_itself():
    # the values left to '%.17g' are few, so the test above checks the
    # kernel's own digits: here 0 of 10**5 normal values, and 73 of the
    # 90 698 random doubles in range, exact ties between 1e13 and 1e16
    rng = np.random.default_rng(18)
    for values in (rng.standard_normal(10 ** 5),
                   rng.integers(0, 2 ** 64, 10 ** 5,
                                dtype=np.uint64).view(np.float64)):
        inside = np.abs(values[np.isfinite(values)])
        inside = inside[(inside >= 1e-280) & (inside <= 1e280)]
        _, slow = _fast_fields(inside)
        assert slow.size <= 0.01 * inside.size


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


@pytest.mark.parametrize("body, message", [
    ("-1e308,1\n1e308,2\n",
     "times in data rows 1 and 2 are further apart than float64 holds"),
    ("# t,value\n1e308,1\n0,2\n-1e308,3\n",
     "times in data rows 1 and 3 are further apart than float64 holds"),
    ("0,1\n1.5e308,2\n-1e308,3\n1,4\n",
     r"nonuniform spacing near data row 2 \(jitter inf"),
])
def test_signal_csv_names_the_rows_of_a_span_past_float64(tmp_path, body,
                                                          message):
    p = tmp_path / "t.csv"
    p.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSignalError, match=f"t.csv: {message}"):
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


def test_report_dict_shape(tmp_path):
    rep = detect_singularities(gen_chirp_jump(1024), MexicanHat(),
                               config=DetectionConfig(max_alpha=2.0))
    p = str(tmp_path / "r.json")
    write_json(p, asdict(rep))
    d = read_json(p)
    assert set(d) == {"events", "sigma_hat", "n_lines", "n_significant",
                      "wavelet", "config"}
    # the fixed readout reaches the report beside the settings
    assert d["config"] == {"threshold_multiplier": 3.0,
                           "persistence_octaves": 2.0,
                           "fine_scale_count": 4, "fit_octaves": 3.0,
                           "max_alpha": 2.0, "min_amplitude_fraction": 0.0}
    assert len(d["events"]) == len(rep.events) > 0
    for ev in d["events"]:
        assert set(ev) == {"location", "kind", "strength", "alpha",
                           "line_span_octaves"}


def test_estimate_dict_shape(tmp_path, small_transform):
    from wavekit import fit_power_law
    est = fit_power_law(wavelet_autocovariance(small_transform))
    p = str(tmp_path / "e.json")
    write_json(p, asdict(est))
    d = read_json(p)
    assert set(d) == {"beta", "log_intercept", "r_squared", "hurst",
                      "dimension", "classification", "scale_range",
                      "n_scales_used", "warnings"}
    assert d["scale_range"] == list(est.scale_range)
    assert d["warnings"] == list(est.warnings)


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


@pytest.mark.parametrize("header", [b"P5\n2", b"P5\nx y\n255\n",
                                    b"P5\n2 -1\n255\n\x00\x00"])
def test_pgm_rejects_a_truncated_or_non_numeric_header(tmp_path, header):
    p = tmp_path / "h.pgm"
    p.write_bytes(header)
    with pytest.raises(InvalidSignalError,
                       match=re.escape(f"{p}: PGM header is truncated")):
        read_pgm(str(p))


@pytest.mark.parametrize("maxval", [0, 256, 65535])
def test_pgm_rejects_a_maxval_outside_8_bits(tmp_path, maxval):
    # a 16-bit 2 x 1 image, two bytes a pixel, once read as [[0, 1]]
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n2 1\n%d\n\x00\x01\x00\x02" % maxval)
    with pytest.raises(InvalidSignalError, match=re.escape(f"{p}: PGM maxval {maxval};")):
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


@pytest.mark.parametrize("bbox", [(3.0, -3.0, 11.0, -1.0),
                                  (0.0, 1.0, 1.0, 0.0),
                                  (0.0, -5e-324, 0.0, 1.0)])
def test_density_image_rejects_a_reversed_bbox(bbox):
    with pytest.raises(InvalidSignalError, match="bbox .* is reversed"):
        points_to_image(np.zeros((4, 2)), 16, 16, bbox=bbox)


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


def test_density_image_puts_far_points_on_the_border():
    far = np.array([[-1e308, 0.5], [1e308, 0.5], [0.5, -1e308], [0.5, 1e308],
                    [1.7e308, -1.7e308]])
    edge = np.array([[-1.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.5, 1.0],
                     [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        img = points_to_image(far, 8, 6, bbox=(-1.0, 1.0, 0.0, 1.0))
    assert np.array_equal(img, points_to_image(edge, 8, 6,
                                               bbox=(-1.0, 1.0, 0.0, 1.0)))


@pytest.mark.parametrize("seed", range(4))
def test_density_image_pixels_match_the_unclipped_formula(seed):
    # points up to ten boxes away on either side, and a zero-width box:
    # the float clip changes no pixel the plain formula got right
    rng = np.random.default_rng(seed)
    x_lo, y_lo = rng.normal(size=2)
    x_span, y_span = rng.choice([0.0, 1e-3, 1.0, 7.5], size=2)
    pts = np.column_stack(
        [x_lo + (x_span or 1.0) * rng.uniform(-10, 11, 400),
         y_lo + (y_span or 1.0) * rng.uniform(-10, 11, 400)])
    pts[:20] = [x_lo, y_lo]
    w, h = int(rng.integers(1, 30)), int(rng.integers(1, 30))
    bbox = (x_lo, x_lo + x_span, y_lo, y_lo + y_span)
    sx, sy = (bbox[1] - bbox[0]) or 1.0, (bbox[3] - bbox[2]) or 1.0
    ix = np.clip(((pts[:, 0] - bbox[0]) / sx * w).astype(np.int64), 0, w - 1)
    iy = np.clip(((bbox[3] - pts[:, 1]) / sy * h).astype(np.int64), 0, h - 1)
    counts = np.zeros((h, w), dtype=np.int64)
    np.add.at(counts, (iy, ix), 1)
    want = np.log1p(counts.astype(np.float64))
    want = np.rint(want * (255.0 / want.max())).astype(np.uint8)
    assert np.array_equal(points_to_image(pts, w, h, bbox=bbox), want)


@pytest.mark.parametrize("bbox, digest", [
    (None, "f762feca1cfd9f8c82b439b43ddc958f27577ec0f06ac02161f2165dee7ec566"),
    ((-1.0, 1.0, 0.0, 2.0),
     "98a150c254d7451162744d16e1b9f3e329e6c053d7131f4a7bb45f135599d355"),
])
def test_density_image_bytes_are_pinned(bbox, digest):
    pts = chaos_game(barnsley_tree_model(), n=5000, seed=2).points
    img = points_to_image(pts, 40, 60, bbox=bbox)
    assert hashlib.sha256(img.tobytes()).hexdigest() == digest


def test_density_image_working_memory_per_pixel():
    """Peak traced memory at 1024 x 1024, the image included: the int64
    counts, one float64 copy that takes the log and the rounding in place,
    and the uint8 result, 17 bytes a pixel (a new array per step made 25)."""
    pts = np.random.default_rng(0).uniform(0.0, 1.0, (1000, 2))
    tracemalloc.start()
    try:
        points_to_image(pts, 1024, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 18 * 2 ** 20


def test_density_image_rejects_bad_dims():
    with pytest.raises(InvalidSignalError):
        points_to_image(np.zeros((4, 2)), 0, 8)


# ----------------------------------------------------------------- manifests

def test_manifest_round_trip(tmp_path):
    m = RunManifest(subcommand="analyze",
                    argv=("analyze", "f.csv", "--report", "r.json"),
                    params={"threshold": 3.0, "max_alpha": None,
                            "bbox": [-3.0, 3.0, 0.0, 10.0]},
                    inputs=("f.csv",),
                    outputs=("r.json",),
                    version="0.1.0")
    p = str(tmp_path / "run.manifest.json")
    write_json(p, asdict(m))
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


@pytest.fixture(params=[7, wavekit.io._BLOCK_ROWS],
                ids=["blocks-of-7", "default-blocks"])
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


def test_scalogram_tsv_is_created_at_its_first_row(tmp_path):
    p = tmp_path / "s.tsv"
    with scalogram_tsv(str(p), np.arange(3.0)) as write:
        assert not p.exists()
        write(0.5, np.ones(3))
        assert p.exists()
    assert p.read_bytes().count(b"\n") == 4
    with scalogram_tsv(str(p.with_name("none.tsv")), np.arange(3.0)):
        pass
    assert sorted(os.listdir(tmp_path)) == ["s.tsv"]


def test_maxima_tsv_bytes_match_the_row_formatter(tmp_path, block_rows):
    rng = np.random.default_rng(5)
    times, scales = _special_values(30, 6), _special_values(6, 7)
    scale_idx = np.sort(rng.integers(0, scales.size, 50))
    time_idx = rng.integers(0, times.size, 50)
    m = MaximaSet(time_idx=time_idx, scale_idx=scale_idx,
                  values=_special_values(50, 8), line_points=np.arange(50),
                  line_offsets=np.arange(51), line_host=np.full(50, -1),
                  scales=scales, times=times,
                  cone_of_influence=np.zeros(scales.size, np.int64), dt=1.0,
                  wavelet=MexicanHat(), row_max=np.zeros(scales.size),
                  finest=np.zeros(times.size))
    p = tmp_path / "m.tsv"
    write_maxima_tsv(str(p), m)
    assert p.read_bytes() == _row_bytes(
        "# b\ta\tabs_w\n", "\t",
        [(times[i], scales[j], v)
         for i, j, v in zip(time_idx, scale_idx, m.values)])


def test_covariance_tsv_bytes_match_the_row_formatter(tmp_path, block_rows):
    scales = _special_values(30, 9)
    counts = np.random.default_rng(10).integers(0, 2 ** 62, scales.size)
    counts[:3] = [0, 1, 2 ** 63 - 1]
    r = WaveletAutoCovariance(scales=scales, values=_special_values(30, 11),
                              counts=counts, wavelet="mexican-hat",
                              n_samples=64, dt=1.0)
    p = tmp_path / "r.tsv"
    write_covariance_tsv(str(p), r)
    assert p.read_bytes() == (
        "# a\tvariance\tcount\n"
        + "".join("%.17g\t%.17g\t%s\n" % (a, v, str(int(k)))
                  for a, v, k in zip(scales, r.values, counts))).encode()


# The %-template writers the formatting kernel replaced, kept as the
# reference: one template per block of rows, applied to the block's values.

def _template_rows(fh, row, *columns):
    width = len(columns)
    total = len(columns[0])
    for lo in range(0, total, 8192):
        hi = min(lo + 8192, total)
        args = [None] * ((hi - lo) * width)
        for k, col in enumerate(columns):
            args[k::width] = col[lo:hi].tolist()
        fh.write(row * (hi - lo) % tuple(args))


def _template_strings(values):
    return np.array(["%.17g" % v for v in values.tolist()], dtype=object)


def _template_signal_csv(path, f):
    with open(path, "w", newline="\n") as fh:
        fh.write("# t,value\n")
        _template_rows(fh, "%.17g,%.17g\n", f.time_axis(), f.samples)


def _template_points_csv(path, pts):
    with open(path, "w", newline="\n") as fh:
        fh.write("# x,y\n")
        _template_rows(fh, "%.17g,%.17g\n", pts[:, 0], pts[:, 1])


def _template_scalogram_tsv(path, s):
    labels = _template_strings(s.times)
    with open(path, "w", newline="\n") as fh:
        fh.write("# b\ta\tS\n")
        for a, power in zip(s.scales, s.values):
            _template_rows(fh, "%s\t" + "%.17g" % a + "\t%.17g\n", labels,
                           power)


def _template_maxima_tsv(path, m):
    with open(path, "w", newline="\n") as fh:
        fh.write("# b\ta\tabs_w\n")
        _template_rows(fh, "%s\t%s\t%.17g\n",
                       _template_strings(m.times)[m.time_idx],
                       _template_strings(m.scales)[m.scale_idx], m.values)


def _template_covariance_tsv(path, r):
    with open(path, "w", newline="\n") as fh:
        fh.write("# a\tvariance\tcount\n")
        _template_rows(fh, "%.17g\t%.17g\t%d\n", r.scales, r.values, r.counts)


def _writer_inputs(kind, rng):
    """Negative and mixed-magnitude values, integer-valued times and
    scales, and 64-bit counts, for each of the five writers."""
    values = _special_values(9000, 12)
    values[::3] *= -1.0
    values[1::5] = rng.integers(-10 ** 6, 10 ** 6, values[1::5].size)
    finite = values[np.isfinite(values)]
    if kind == "signal":
        return TimeSeries(samples=finite, dt=1.0, t0=-4000.0)
    if kind == "points":
        return values[:8000].reshape(-1, 2)
    times = np.arange(-40.0, 260.0)
    scales = np.array([1.0, 2.0, 0.5, 3.0, 1.0 / 3.0, 1e-5, 1234567.0])
    if kind == "scalogram":
        return Scalogram(values=values[:scales.size * times.size].reshape(
            scales.size, times.size), scales=scales, times=times)
    if kind == "maxima":
        n = 9000
        return MaximaSet(
            time_idx=rng.integers(0, times.size, n),
            scale_idx=np.sort(rng.integers(0, scales.size, n)),
            values=values, line_points=np.arange(n),
            line_offsets=np.arange(n + 1), line_host=np.full(n, -1),
            scales=scales, times=times,
            cone_of_influence=np.zeros(scales.size, np.int64), dt=1.0,
            wavelet=MexicanHat(), row_max=np.zeros(scales.size),
            finest=np.zeros(times.size))
    counts = rng.integers(0, 2 ** 63 - 1, 300, endpoint=True)
    counts[:4] = [0, 1, 2 ** 53 + 1, 2 ** 63 - 1]
    return WaveletAutoCovariance(scales=np.arange(1.0, 301.0),
                                 values=values[:300], counts=counts,
                                 wavelet="mexican-hat", n_samples=64, dt=1.0)


@pytest.mark.parametrize("kind, writer, reference", [
    ("signal", write_signal_csv, _template_signal_csv),
    ("points", write_points_csv, _template_points_csv),
    ("scalogram", write_scalogram_tsv, _template_scalogram_tsv),
    ("maxima", write_maxima_tsv, _template_maxima_tsv),
    ("covariance", write_covariance_tsv, _template_covariance_tsv),
], ids=["signal", "points", "scalogram", "maxima", "covariance"])
def test_writers_match_the_template_writers(tmp_path, block_rows, kind,
                                            writer, reference):
    data = _writer_inputs(kind, np.random.default_rng(13))
    writer(str(tmp_path / "new"), data)
    reference(str(tmp_path / "old"), data)
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


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

def _refuse_undecoded(path, lineno, raw):
    """The line loops' UTF-8 rule: a line that held a byte which is not
    UTF-8, decoded to a lone surrogate, is refused, comment or not."""
    if not raw.isascii() and any("\udc80" <= ch <= "\udcff" for ch in raw):
        raise InvalidSignalError(f"{path}:{lineno}: not UTF-8 text")


def _old_read_signal_csv(path: str) -> TimeSeries:
    """The per-line signal reader the bulk parse replaced: the reference."""
    ts, vs = [], []
    ncols = None
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            _refuse_undecoded(path, lineno, raw)
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
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            _refuse_undecoded(path, lineno, raw)
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
    "comment-between-rows": "0,1\n# mid\n1,2\n",
    "comment-after-last-row": "0,1\n1,2\n# end",
    "note-after-a-header": "# h\n0,1 # x\n1,2\n",
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


# a few bytes: each chunk is one or two lines, so every row, error line,
# width change and comment or blank run falls across a chunk boundary
_SMALL_CHUNK = 3


@pytest.fixture(params=[wavekit.io._CHUNK, _SMALL_CHUNK],
                ids=["default-chunks", f"chunks-of-{_SMALL_CHUNK}"])
def chunk(request, monkeypatch):
    monkeypatch.setattr(wavekit.io, "_CHUNK", request.param)
    return request.param


# the corpus cases keep their ids at the default chunk size
@pytest.mark.parametrize(
    "text, chunk",
    [(text, size) for size in (wavekit.io._CHUNK, _SMALL_CHUNK)
     for text in _CORPUS.values()],
    ids=[*_CORPUS, *(f"{k}-chunks-of-{_SMALL_CHUNK}" for k in _CORPUS)],
    indirect=["chunk"])
def test_readers_match_the_line_loops_on_the_corpus(tmp_path, text, chunk):
    p = tmp_path / "c.csv"
    p.write_bytes(text.encode())
    _assert_readers_agree(str(p))


def test_readers_match_the_line_loops_on_undecodable_bytes(tmp_path, chunk):
    rows = b"".join(b"%d,%d\n" % (k, k) for k in range(2, 5002))
    for body, message in [
            (b"0,1\n1,2\xff\n", ":2: not UTF-8 text"),
            (b"# caf\xe9\n0,1\n1,2\n", ":1: not UTF-8 text"),
            # an earlier bad line is reported first, in one chunk or not
            (b"0,1\nabc,2\n" + rows + b"\xff\n", ":2: not numeric: 'abc,2'")]:
        p = tmp_path / "c.csv"
        p.write_bytes(body)
        _assert_readers_agree(str(p))
        for read in (read_signal_csv, read_points_csv):
            assert _outcome(read, str(p)) == \
                (InvalidSignalError, f"{p}{message}")


# reads the signal CSV in argv[1] in a fresh interpreter and prints its
# samples
_READ_SIGNAL_CHILD = """
import sys
import wavekit.io

print(wavekit.io.read_signal_csv(sys.argv[1]).samples.tolist())
"""


def test_the_readers_decode_utf8_under_an_ascii_locale(tmp_path):
    # with no locale coercion and no UTF-8 mode the C locale's encoding is
    # ASCII, which cannot decode the comment
    p = tmp_path / "c.csv"
    p.write_bytes("# temp\u00e9rature\n0,1\n1,2\n".encode())
    src = os.path.dirname(os.path.dirname(wavekit.io.__file__))
    env = dict(os.environ, PYTHONCOERCECLOCALE="0", LC_ALL="C",
               PYTHONPATH=os.pathsep.join(
                   [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", _READ_SIGNAL_CHILD, str(p)],
        env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "[1.0, 2.0]\n"), done.stderr


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


# chunk only sets a module constant, so its examples may share it
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_texts())
def test_readers_match_the_line_loops_on_fuzzed_text(tmp_path_factory, chunk,
                                                     text):
    p = tmp_path_factory.mktemp("fuzz") / "f.csv"
    p.write_bytes(text.encode())
    _assert_readers_agree(str(p))


def test_readers_round_trip_seventeen_digits_at_64k(tmp_path, chunk):
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


def _refuse_line_loop(*args):
    raise AssertionError("line loop called")


def test_clean_files_skip_the_line_loop(tmp_path, monkeypatch):
    sig, cloud = str(tmp_path / "s.csv"), str(tmp_path / "p.csv")
    write_signal_csv(sig, gen_chirp_jump(300))
    write_points_csv(cloud, chaos_game(barnsley_tree_model(), n=300,
                                       seed=1).points)
    hashes = tmp_path / "hashes.csv"
    hashes.write_text("## title # more\n# x,y\n0,1\n1,2 \n## end\n")
    monkeypatch.setattr(wavekit.io, "_rows", _refuse_line_loop)
    assert read_signal_csv(sig).n == 300
    assert read_points_csv(cloud).shape == (300, 2)
    assert read_points_csv(str(hashes)).shape == (2, 2)
    p = tmp_path / "note.csv"
    p.write_text("0,1\n1,2 # note\n")
    with pytest.raises(AssertionError, match="line loop called"):
        read_signal_csv(str(p))


def test_blank_and_indented_comment_lines_skip_the_line_loop(tmp_path,
                                                             monkeypatch):
    """loadtxt refuses a whitespace-only line and an indented comment; the
    retry without them gives the values of the file without them."""
    clean = tmp_path / "clean.csv"
    write_signal_csv(str(clean), gen_chirp_jump(300))
    lines = clean.read_text().splitlines(keepends=True)
    noisy = tmp_path / "noisy.csv"
    noisy.write_text("".join(lines[:100] + [" \t \n", "  # note\n"]
                             + lines[100:] + ["\t# end\n", "   \n"]))
    cloud = tmp_path / "cloud.csv"
    cloud.write_text("  # x,y\n0,1\n \n1,2\n")
    want = read_signal_csv(str(clean))
    monkeypatch.setattr(wavekit.io, "_rows", _refuse_line_loop)
    got = read_signal_csv(str(noisy))
    assert got.samples.tobytes() == want.samples.tobytes()
    assert (got.dt, got.t0) == (want.dt, want.t0)
    assert read_points_csv(str(cloud)).tolist() == [[0.0, 1.0], [1.0, 2.0]]


def _read_from_fifo(tmp_path, text, read):
    """read(path) of a FIFO that a thread writes text into once: what it
    returns, or the exception it raises.

    A reader that opens the FIFO a second time would wait for a writer
    forever, so it runs in a thread too, and a join timeout ends the wait.
    """
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w") as fh:
            fh.write(text)

    outcome = []

    def run():
        try:
            outcome.append(read(fifo))
        except Exception as exc:
            outcome.append(exc)

    writer = threading.Thread(target=write, daemon=True)
    reader = threading.Thread(target=run, daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=30)
    if reader.is_alive():
        # an empty write end ends the waiting open with EOF
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=30)
        pytest.fail("the reader opened the FIFO more than once")
    writer.join(timeout=30)
    assert not writer.is_alive()
    os.unlink(fifo)
    return outcome[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_fifo_is_read_in_one_pass(tmp_path):
    clean = tmp_path / "clean.csv"
    write_signal_csv(str(clean), gen_chirp_jump(300))
    want = read_signal_csv(str(clean))
    got = _read_from_fifo(tmp_path, clean.read_text(), read_signal_csv)
    assert got.samples.tobytes() == want.samples.tobytes()
    assert (got.dt, got.t0) == (want.dt, want.t0)
    bad = _read_from_fifo(tmp_path, "0,1\nabc,2\n", read_points_csv)
    assert isinstance(bad, InvalidSignalError)
    assert str(bad).startswith(str(tmp_path / "fifo") + ":2: not numeric")


# reads the points CSV in argv[1] in a fresh interpreter and prints the rise
# of its peak resident set size in KiB; VmHWM, since ru_maxrss would also
# count the memory of the test process the child was forked from
_READ_PEAK_CHILD = """
import sys
import wavekit.io

def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh
                    if line.startswith("VmHWM:"))

before = hwm()
wavekit.io.read_points_csv(sys.argv[1])
print(hwm() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak resident set size from /proc")
@pytest.mark.parametrize("piped", [False, True], ids=["path", "pipe"])
def test_reading_points_does_not_hold_the_file_in_memory(tmp_path, piped):
    # 400 000 points are a 6.4 MB table in a 16.1 MB file: reading them by
    # path or from a pipe raises the peak by about 6 MB; mapping the whole
    # file to look for a '#' inside a line raised it by about 15.2 MB, and
    # parsing a pipe a line at a time into Python lists by about 78 MB
    cloud = str(tmp_path / "cloud.csv")
    write_points_csv(cloud, np.random.default_rng(1).normal(size=(400000, 2)))
    src = os.path.dirname(os.path.dirname(wavekit.io.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run(
        [sys.executable, "-c", _READ_PEAK_CHILD,
         "/dev/stdin" if piped else cloud],
        input=(tmp_path / "cloud.csv").read_text() if piped else None,
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert int(done.stdout) / 1024 <= 11.0
