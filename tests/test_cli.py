import argparse
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import wavekit
from wavekit import cli, errors
from wavekit import (DetectionConfig, ScaleGrid, TimeSeries, by_name, cwt_fft,
                     detect_singularities, gen_chirp_jump, gen_fbm,
                     modulus_maxima, scalogram)
from wavekit.cli import main
from wavekit.io import (read_json, read_pgm, read_signal_csv, write_json,
                        write_maxima_tsv, write_scalogram_tsv,
                        write_signal_csv)

pytestmark = pytest.mark.usefixtures("tmp_path")


def _gen_signal(tmp_path, name="f.csv", n=1024, extra=()):
    path = str(tmp_path / name)
    assert main(["gen", "eq11", "--n", str(n), "--out", path, *extra]) == 0
    return path


# ------------------------------------------------------------ happy paths

def test_gen_writes_signal_and_manifest(tmp_path, capsys):
    path = _gen_signal(tmp_path)
    out = capsys.readouterr().out
    assert "wrote" in out and "1024 samples" in out
    f = read_signal_csv(path)
    assert f.n == 1024
    m = read_json(path + ".manifest.json")
    assert m["subcommand"] == "gen eq11"
    assert m["outputs"] == [path]
    assert m["version"]


def test_analyze_reports_events(tmp_path, capsys):
    sig = _gen_signal(tmp_path)
    report = str(tmp_path / "report.json")
    assert main(["analyze", sig, "--report", report]) == 0
    out = capsys.readouterr().out
    assert "events" in out and "sigma_hat" in out
    d = read_json(report)
    kinds = {e["kind"] for e in d["events"]}
    assert kinds <= {"jump", "cusp"} and d["events"]
    assert d["config"]["max_alpha"] is None
    assert d["wavelet"] == "mexican-hat"


def test_max_alpha_flag_lands_in_the_report(tmp_path):
    sig = _gen_signal(tmp_path)
    report = str(tmp_path / "report.json")
    assert main(["analyze", sig, "--max-alpha", "1.0",
                 "--report", report]) == 0
    d = read_json(report)
    assert d["config"]["max_alpha"] == 1.0
    assert all(e["alpha"] <= 1.0 for e in d["events"])


_NON_FINITE = [
    ("--threshold", "nan", "threshold_multiplier"),
    ("--threshold", "-inf", "threshold_multiplier"),
    ("--persistence", "inf", "persistence_octaves"),
    ("--max-alpha", "nan", "max_alpha"),
]


@pytest.mark.parametrize("flag, value, name", _NON_FINITE)
def test_analyze_rejects_non_finite_settings(tmp_path, capsys, flag, value,
                                             name):
    # NaN and Infinity are not JSON: no report or manifest may carry them
    sig = _gen_signal(tmp_path, n=256)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["analyze", sig, f"{flag}={value}",
                 "--report", str(report)]) == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["f.csv", "f.csv.manifest.json"]


def test_analyze_side_files_and_manifests(tmp_path):
    sig = _gen_signal(tmp_path, n=512)
    sca = str(tmp_path / "s.tsv")
    mx = str(tmp_path / "m.tsv")
    assert main(["analyze", sig, "--scalogram", sca, "--maxima", mx]) == 0
    assert np.loadtxt(sca).shape[1] == 3
    assert np.loadtxt(mx, ndmin=2).shape[1] == 3
    for out in (sca, mx):
        m = read_json(out + ".manifest.json")
        assert m["subcommand"] == "analyze"
        assert m["inputs"] == [sig]
        assert set(m["outputs"]) == {sca, mx}
        assert m["params"]["threshold"] == 3.0


@pytest.mark.parametrize("wavelet", ["mexican-hat", "morlet"])
def test_analyze_dumps_match_the_library(tmp_path, wavelet):
    """One transform feeds the report and both dumps; each file holds the
    same bytes as the library pipeline run on its own."""
    sig = _gen_signal(tmp_path, n=512, extra=("--sigma", "0.2", "--seed", "3"))
    got = {k: str(tmp_path / f"got.{k}") for k in ("json", "s.tsv", "m.tsv")}
    assert main(["analyze", sig, "--wavelet", wavelet, "--report", got["json"],
                 "--scalogram", got["s.tsv"], "--maxima", got["m.tsv"]]) == 0

    f = read_signal_csv(sig)
    w = by_name(wavelet)
    g = ScaleGrid.default_for(f)
    c = cwt_fft(f, w, g)
    want = {k: str(tmp_path / f"want.{k}") for k in got}
    write_json(want["json"], asdict(
        detect_singularities(f, w, g, DetectionConfig())))
    write_scalogram_tsv(want["s.tsv"], scalogram(c))
    write_maxima_tsv(want["m.tsv"], modulus_maxima(c))
    for k in got:
        with open(got[k], "rb") as a, open(want[k], "rb") as b:
            assert a.read() == b.read(), k


def test_estimate_writes_fit_json(tmp_path, capsys):
    fbm = str(tmp_path / "b.csv")
    assert main(["gen", "fbm", "--hurst", "0.8", "--seed", "0",
                 "--n", "2048", "--out", fbm]) == 0
    est = str(tmp_path / "est.json")
    cov = str(tmp_path / "cov.tsv")
    assert main(["estimate", fbm, "--json", est, "--covariance", cov]) == 0
    d = read_json(est)
    assert 1.0 < d["beta"] < 3.0
    assert d["classification"] in {"persistent", "brownian", "antipersistent"}
    assert np.loadtxt(cov).shape[1] == 3
    assert "beta=" in capsys.readouterr().out


def test_estimate_warns_on_stderr_for_flat_spectra(tmp_path, capsys):
    path = str(tmp_path / "wn.csv")
    rng = np.random.default_rng(0)
    write_signal_csv(path, TimeSeries(samples=rng.standard_normal(512),
                                      dt=1.0))
    est = str(tmp_path / "est.json")
    assert main(["estimate", path, "--json", est]) == 0
    err = capsys.readouterr().err
    assert "warning:" in err and "outside the self-affine band" in err
    assert read_json(est)["warnings"]


def test_rasterize_produces_a_dense_pgm(tmp_path):
    pts = str(tmp_path / "tree.csv")
    assert main(["gen", "ifs", "--n", "5000", "--seed", "1",
                 "--out", pts]) == 0
    img_path = str(tmp_path / "tree.pgm")
    assert main(["rasterize", pts, "--width", "64", "--height", "64",
                 "--out", img_path]) == 0
    img = read_pgm(img_path)
    assert img.shape == (64, 64)
    assert np.count_nonzero(img) > 0.01 * img.size


def test_noise_add_round_trip(tmp_path):
    sig = _gen_signal(tmp_path, n=512)
    noisy = str(tmp_path / "noisy.csv")
    assert main(["gen", "noise-add", "--input", sig, "--sigma", "0.5",
                 "--seed", "3", "--out", noisy]) == 0
    clean = read_signal_csv(sig)
    dirty = read_signal_csv(noisy)
    resid = dirty.samples - clean.samples
    assert resid.std() == pytest.approx(0.5, rel=0.15)


def test_generation_is_deterministic_across_invocations(tmp_path):
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    for out in (a, b):
        assert main(["gen", "eq11", "--sigma", "0.2", "--seed", "7",
                     "--out", out]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


_TRANSFORM = {"wavelet": "mexican-hat", "omega0": 6.0, "voices": 8}
_DETECTION = {"threshold": 3.0, "persistence": 2.0, "max_alpha": None}

# each run's whole manifest but its argv and version, which are the run's
# tokens and the package's; the inputs f.csv (eq11), b.csv (fbm, dt = 1)
# and p.csv (ifs) hold 512, 512 and 2000 rows. a_min and a_max are the
# first and last scales of the grid the run used, never a flag's value
_MANIFESTS = {
    "gen-chirp-jump": (
        "gen chirp-jump --n 300 --sigma 0.5 --seed 7 --out c.csv",
        "gen chirp-jump", [], ["c.csv"], {"n": 300, "sigma": 0.5, "seed": 7}),
    "gen-eq11": (
        "gen eq11 --n 300 --out e.csv",
        "gen eq11", [], ["e.csv"], {"n": 300, "sigma": 0.0, "seed": None}),
    "gen-fbm": (
        "gen fbm --hurst 0.3 --seed 2 --n 300 --out w.csv",
        "gen fbm", [], ["w.csv"],
        {"n": 300, "hurst": 0.3, "seed": 2, "dt": 1.0}),
    "gen-ifs": (
        "gen ifs --seed 3 --n 500 --burn-in 10 --out t.csv",
        "gen ifs", [], ["t.csv"],
        {"model": "barnsley", "n": 500, "seed": 3, "burn_in": 10}),
    "gen-noise-add": (
        "gen noise-add --input f.csv --sigma 0.1 --seed 4 --out g.csv",
        "gen noise-add", ["f.csv"], ["g.csv"], {"sigma": 0.1, "seed": 4}),
    # the outputs are listed in the flags' fixed order, not the argv's
    "analyze-dumps": (
        "analyze b.csv --maxima m.tsv --report r.json --scalogram s.tsv",
        "analyze", ["b.csv"], ["r.json", "s.tsv", "m.tsv"],
        {**_TRANSFORM, "a_min": 2.0, "a_max": 128.0, **_DETECTION}),
    # the last scale of 8 voices from 2 at or below the flag's 100
    "analyze-a-max": (
        "analyze b.csv --wavelet morlet --a-max 100 --threshold 2.5 "
        "--max-alpha 1.0 --maxima m.tsv",
        "analyze", ["b.csv"], ["m.tsv"],
        {**_TRANSFORM, "wavelet": "morlet", "a_min": 2.0,
         "a_max": 2 * 2 ** (45 / 8), **_DETECTION, "threshold": 2.5,
         "max_alpha": 1.0}),
    # the default grid runs from 2 to at most 512 / 20
    "estimate": (
        "estimate b.csv --json j.json",
        "estimate", ["b.csv"], ["j.json"],
        {**_TRANSFORM, "a_min": 2.0, "a_max": 2 * 2 ** (29 / 8)}),
    # from 3 up to the default grid's last scale, 2 * 2**(14 / 4)
    "estimate-covariance": (
        "estimate b.csv --voices 4 --a-min 3 --covariance v.tsv --json j.json",
        "estimate", ["b.csv"], ["j.json", "v.tsv"],
        {**_TRANSFORM, "voices": 4, "a_min": 3.0, "a_max": 3 * 2 ** (11 / 4)}),
    "rasterize": (
        "rasterize p.csv --width 32 --height 20 --out i.pgm",
        "rasterize", ["p.csv"], ["i.pgm"],
        {"width": 32, "height": 20, "bbox": None}),
    "rasterize-bbox": (
        "rasterize p.csv --bbox -3 3 0 11 --out i.pgm",
        "rasterize", ["p.csv"], ["i.pgm"],
        {"width": 512, "height": 512, "bbox": [-3.0, 3.0, 0.0, 11.0]}),
}


@pytest.mark.parametrize("run", list(_MANIFESTS))
def test_every_subcommand_writes_its_whole_manifest(tmp_path, monkeypatch,
                                                    run):
    monkeypatch.chdir(tmp_path)
    for argv in ("gen eq11 --n 512 --out f.csv",
                 "gen fbm --hurst 0.7 --seed 1 --n 512 --out b.csv",
                 "gen ifs --seed 1 --n 2000 --out p.csv"):
        assert main(argv.split()) == 0
    line, subcommand, inputs, outputs, params = _MANIFESTS[run]
    argv = line.split()
    assert main(argv) == 0
    for out in outputs:
        assert read_json(out + ".manifest.json") == {
            "subcommand": subcommand, "argv": argv, "inputs": inputs,
            "outputs": outputs, "params": params,
            "version": wavekit.__version__}


# -------------------------------------------------------------- exit codes

def test_missing_input_is_an_io_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.csv")]) == 3
    assert capsys.readouterr().err.startswith("error:")


# every error the command line turns into an exit code, with its code
_EXIT_CODES = {
    errors.WavekitError: 2,
    errors.InvalidSignalError: 2,
    errors.ScaleTooFineError: 4,
    errors.TooFewScalesError: 4,
    errors.InvalidModelError: 2,
    errors.InvalidHurstError: 2,
    errors.NoValidSamplesError: 5,
    errors.DegenerateFitError: 5,
    errors.OutOfRangeError: 2,
    ValueError: 2,
    MemoryError: 2,
    OSError: 3,
}


@pytest.mark.parametrize("exc, code", list(_EXIT_CODES.items()),
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_exit_code_table(capsys, exc, code):
    def handler(args):
        raise exc("the handler failed")

    assert cli._run(argparse.Namespace(handler=handler)) == code
    assert capsys.readouterr().err == "error: the handler failed\n"


def test_exit_code_table_holds_every_error_class():
    classes = {obj for obj in vars(errors).values()
               if isinstance(obj, type) and issubclass(obj, Exception)}
    assert classes <= set(_EXIT_CODES)


def test_an_exception_outside_the_table_is_not_an_exit_code():
    def handler(args):
        raise RuntimeError("a fault in the program")

    with pytest.raises(RuntimeError):
        cli._run(argparse.Namespace(handler=handler))


@pytest.mark.parametrize("kind, maker, extra", [
    ("chirp-jump", "gen_chirp_jump", []),
    ("eq11", "gen_eq11", []),
    ("fbm", "gen_fbm", ["--hurst", "0.7", "--seed", "1"]),
    ("ifs", "chaos_game", ["--seed", "1"]),
], ids=["chirp-jump", "eq11", "fbm", "ifs"])
def test_a_request_too_large_to_allocate_exits_2(tmp_path, capsys,
                                                 monkeypatch, kind, maker,
                                                 extra):
    """A generator that cannot allocate its output ends the run with exit
    2 and leaves no file. The generator is a stub: whether a real
    allocation of 10^12 samples fails depends on the host's memory
    overcommit policy."""
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, maker, no_memory)
    out = tmp_path / "g.csv"
    assert main(["gen", kind, "--n", "1000000000000", "--out", str(out),
                 *extra]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"
    assert list(tmp_path.iterdir()) == []


def test_malformed_csv_names_the_line(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("0.0,1.0\n0.5,zz\n")
    assert main(["analyze", str(p)]) == 2
    assert "bad.csv:2" in capsys.readouterr().err


def test_empty_signal_file(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    p.write_text("")
    assert main(["analyze", str(p)]) == 2
    assert "no samples" in capsys.readouterr().err


def test_estimate_refuses_short_signals(tmp_path, capsys):
    p = tmp_path / "short.csv"
    p.write_text("".join(f"{float(k)}\n" for k in range(10)))
    assert main(["estimate", str(p), "--json",
                 str(tmp_path / "e.json")]) == 2
    assert "at least 256 samples" in capsys.readouterr().err


@pytest.mark.parametrize("n, code", [(255, 2), (256, 0)])
def test_estimate_needs_256_samples(tmp_path, capsys, n, code):
    fbm = str(tmp_path / "b.csv")
    assert main(["gen", "fbm", "--hurst", "0.7", "--seed", "1",
                 "--n", str(n), "--out", fbm]) == 0
    assert main(["estimate", fbm, "--json", str(tmp_path / "e.json")]) == code
    err = capsys.readouterr().err
    assert ("estimate needs at least 256 samples, got 255" in err) == (n < 256)


def _dump_flags(tmp_path, unwritable=None):
    """analyze's three outputs in tmp_path, one of them in a directory that
    does not exist."""
    flags = []
    for flag, name in [("--report", "r.json"), ("--scalogram", "s.tsv"),
                       ("--maxima", "m.tsv")]:
        where = tmp_path / "absent" if flag == unwritable else tmp_path
        flags += [flag, str(where / name)]
    return flags


@pytest.mark.parametrize("unwritable", ["--report", "--maxima"])
def test_a_failed_analyze_removes_every_output_it_wrote(tmp_path, capsys,
                                                        unwritable):
    # the scalogram is streamed before the report is written, and the
    # maxima after it; a run that fails leaves neither a full nor a
    # truncated file, and no manifest
    sig = _gen_signal(tmp_path, n=512)
    (tmp_path / "s.tsv").write_text("an earlier run's scalogram\n")
    assert main(["analyze", sig, *_dump_flags(tmp_path, unwritable)]) == 3
    assert "No such file or directory" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["f.csv", "f.csv.manifest.json"]


@pytest.mark.parametrize("error, code", [(OSError("disk full"), 3),
                                         (RuntimeError("bug"), None)],
                         ids=["io-error", "traceback"])
def test_a_failure_during_the_transform_removes_the_partial_scalogram(
        tmp_path, monkeypatch, capsys, error, code):
    sig = _gen_signal(tmp_path, n=512)
    rows = []

    def failing(row, a):
        rows.append(a)
        if len(rows) == 5:
            raise error
        return wavekit.transform.energy_density(row, a)

    monkeypatch.setattr(wavekit.cli, "energy_density", failing)
    argv = ["analyze", sig, *_dump_flags(tmp_path)]
    if code is None:
        with pytest.raises(RuntimeError, match="bug"):
            main(argv)
    else:
        assert main(argv) == code
    assert len(rows) == 5
    assert sorted(os.listdir(tmp_path)) == ["f.csv", "f.csv.manifest.json"]


def test_a_refused_run_leaves_files_it_did_not_write(tmp_path, capsys):
    sig = _gen_signal(tmp_path, n=512)
    report = tmp_path / "r.json"
    report.write_text("an earlier report\n")
    target = tmp_path / "elsewhere.tsv"
    (tmp_path / "s.tsv").symlink_to(target)
    # refused before any output: the report stays as it was
    assert main(["analyze", sig, "--a-min", "0.0001",
                 "--report", str(report)]) == 4
    assert report.read_text() == "an earlier report\n"
    # a symlink is not removed, though the run wrote through it
    assert main(["analyze", sig, "--scalogram", str(tmp_path / "s.tsv"),
                 "--report", str(tmp_path / "absent" / "r.json")]) == 3
    assert (tmp_path / "s.tsv").is_symlink() and target.stat().st_size > 0
    assert report.read_text() == "an earlier report\n"


def test_scale_below_sampling_limit(tmp_path, capsys):
    sig = _gen_signal(tmp_path, n=512)  # dt about 0.002
    assert main(["analyze", sig, "--a-min", "0.0001"]) == 4
    assert "below 2*dt" in capsys.readouterr().err


def test_too_few_scales_for_a_fit(tmp_path, capsys):
    fbm = str(tmp_path / "b.csv")
    assert main(["gen", "fbm", "--hurst", "0.5", "--seed", "1",
                 "--n", "512", "--out", fbm]) == 0
    assert main(["estimate", fbm, "--json", str(tmp_path / "e.json"),
                 "--a-min", "2.0", "--a-max", "2.5"]) == 4
    assert "cannot support a fit" in capsys.readouterr().err


def test_cone_swallowing_the_record_is_degenerate(tmp_path, capsys):
    fbm = str(tmp_path / "b.csv")
    assert main(["gen", "fbm", "--hurst", "0.5", "--seed", "1",
                 "--n", "512", "--out", fbm]) == 0
    assert main(["estimate", fbm, "--json", str(tmp_path / "e.json"),
                 "--a-max", "40"]) == 5
    assert "cone of influence" in capsys.readouterr().err


def test_noise_add_needs_a_seed(tmp_path, capsys):
    sig = _gen_signal(tmp_path, n=64)
    assert main(["gen", "noise-add", "--input", sig, "--sigma", "0.5",
                 "--out", str(tmp_path / "n.csv")]) == 2
    assert "seed is required" in capsys.readouterr().err


def test_rasterize_rejects_tiny_images(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    pts.write_text("# x,y\n0.0,0.0\n1.0,1.0\n")
    out = tmp_path / "p.pgm"
    assert main(["rasterize", str(pts), "--width", "8",
                 "--out", str(out)]) == 2
    assert "at least 16x16" in capsys.readouterr().err
    for side in ("--width", "--height"):
        assert main(["rasterize", str(pts), side, "4097",
                     "--out", str(out)]) == 2
        assert "must be at most 4096" in capsys.readouterr().err
    assert not out.exists()


def test_rasterize_rejects_empty_point_files(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    pts.write_text("# x,y\n")
    assert main(["rasterize", str(pts),
                 "--out", str(tmp_path / "p.pgm")]) == 2
    assert "no points" in capsys.readouterr().err


@pytest.mark.parametrize("body, extra, message", [
    ("0,0\nnan,1\n1,1\n", [], "points must be finite"),
    ("0,0\n1,inf\n1,1\n", [], "points must be finite"),
    ("0,0\n1,1\n", ["--bbox", "nan", "1", "0", "1"], "bbox must be finite"),
])
def test_rasterize_rejects_non_finite_input(tmp_path, capsys, body, extra,
                                            message):
    pts = tmp_path / "p.csv"
    pts.write_text(body)
    out = tmp_path / "p.pgm"
    assert main(["rasterize", str(pts), "--out", str(out), *extra]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_time_is_invalid_input(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text("0,1\n1,2\ninf,3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(p)]) == 2
    assert "t.csv: time in data row 3 is not finite" in \
        capsys.readouterr().err


def test_time_span_past_float64_is_invalid_input(tmp_path, capsys):
    p = tmp_path / "t.csv"
    p.write_text("-1e308,1\n1e308,2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", str(p)]) == 2
    assert "t.csv: times in data rows 1 and 2 are further apart than " \
        "float64 holds" in capsys.readouterr().err


def test_rasterize_puts_far_points_on_the_border(tmp_path):
    pts, edge = tmp_path / "p.csv", tmp_path / "e.csv"
    pts.write_text("-1e308,0\n1e308,1\n")
    edge.write_text("-1,0\n1,1\n")
    box = ["--bbox", "-1", "1", "0", "1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rasterize", str(pts), "--out",
                     str(tmp_path / "p.pgm"), *box]) == 0
    assert main(["rasterize", str(edge), "--out",
                 str(tmp_path / "e.pgm"), *box]) == 0
    assert read_pgm(str(tmp_path / "p.pgm")).tobytes() == \
        read_pgm(str(tmp_path / "e.pgm")).tobytes()


@pytest.mark.parametrize("box", [["3", "-3", "11", "-1"],
                                 ["-3", "3", "11", "-1"]])
def test_rasterize_rejects_a_reversed_bbox(tmp_path, capsys, box):
    pts = tmp_path / "p.csv"
    pts.write_text("0,0\n1,1\n")
    out = tmp_path / "p.pgm"
    assert main(["rasterize", str(pts), "--out", str(out),
                 "--bbox", *box]) == 2
    assert "is reversed: need XLO <= XHI" in capsys.readouterr().err
    assert not out.exists()


def test_rasterize_rejects_extents_past_float64(tmp_path, capsys):
    pts = tmp_path / "p.csv"
    pts.write_text("-1e308,0\n1e308,1\n")
    out = tmp_path / "p.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["rasterize", str(pts), "--out", str(out)]) == 2
    assert "spans more than float64 holds" in capsys.readouterr().err
    assert not out.exists()


def test_fbm_hurst_domain(tmp_path, capsys):
    assert main(["gen", "fbm", "--hurst", "1.5", "--seed", "1",
                 "--out", str(tmp_path / "b.csv")]) == 2
    assert "hurst" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("sweep_inputs")
    chirp, fbm = str(d / "chirp.csv"), str(d / "fbm.csv")
    assert main(["gen", "chirp-jump", "--n", "1024", "--out", chirp]) == 0
    assert main(["gen", "fbm", "--hurst", "0.7", "--seed", "1",
                 "--n", "1024", "--out", fbm]) == 0
    return {"analyze": chirp, "estimate": fbm}


def _strict_json(path):
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")
    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


_EXTREMES = ("nan", "inf", "-inf", "1e308", "-1e308", "1e20")
_SWEEP = [(cmd, f"{flag}={value}")
          for cmd, flags in (
              ("analyze", ("--omega0", "--a-min", "--a-max", "--threshold",
                           "--persistence", "--max-alpha")),
              ("estimate", ("--omega0", "--a-min", "--a-max")))
          for flag in flags for value in _EXTREMES]
_SWEEP += [(cmd, f"--voices={v}") for cmd in ("analyze", "estimate")
           for v in (0, -1)]


def _wavelet_for(setting):
    """Morlet's flags for a setting that only Morlet reads."""
    return ("--wavelet", "morlet") if setting.startswith("--omega0") else ()


@pytest.mark.parametrize("command, setting", _SWEEP)
def test_extreme_settings_end_in_an_exit_code(tmp_path, sweep_inputs,
                                              command, setting):
    """Every float flag at NaN, the infinities and float64's edges ends in a
    documented exit code, never a traceback or a warning, and every JSON
    file it leaves is strict JSON; a refused run writes nothing."""
    out = str(tmp_path / "out.json")
    to = "--report" if command == "analyze" else "--json"
    code = main([command, sweep_inputs[command], setting, to, out,
                 *_wavelet_for(setting)])
    assert code in {0, 2, 4, 5}
    written = sorted(os.listdir(tmp_path))
    if code:
        assert written == []
    for name in written:
        if name.endswith(".json"):
            _strict_json(str(tmp_path / name))


_REFUSED = [
    ("analyze", "--omega0=nan", 2, "omega0 must be finite"),
    ("estimate", "--omega0=inf", 2, "omega0 must be finite"),
    # finite, but Morlet's kernel takes its square
    ("analyze", "--omega0=1e155 --wavelet=morlet", 2, "squared must be finite"),
    ("estimate", "--omega0=1e155 --wavelet=morlet", 2,
     "squared must be finite"),
    ("analyze", "--a-max=inf", 2, "a_max / a_min must be finite"),
    ("analyze", "--a-max=1e308", 2, "a_max / a_min must be finite"),
    ("estimate", "--a-max=inf", 2, "a_max / a_min must be finite"),
    ("analyze", "--voices=0", 2, "voices per octave must be positive"),
    ("estimate", "--voices=-1", 2, "voices per octave must be positive"),
    # scale counts whose allocation numpy would refuse at once, as bytes
    # and past its index range, now meet the CLI's ceiling first
    ("analyze", "--voices=1000000000000000", 2,
     "--voices must be at most 64"),
    ("analyze", "--voices=100000000000000000000", 2,
     "--voices must be at most 64"),
    ("estimate", "--voices=1000000000000000", 2,
     "--voices must be at most 64"),
    ("analyze", "--voices=65", 2, "--voices must be at most 64, got 65"),
    ("estimate", "--voices=65", 2, "--voices must be at most 64, got 65"),
    # the chirp's dt is 1/1023, so 2 dt is about 0.00196
    ("analyze", "--a-min=0.001", 4, "is below 2*dt"),
    ("analyze", "--a-max=0.0025", 4, "scales is too coarse a grid"),
]
_DUMPS = ("--scalogram", "s.tsv", "--maxima", "m.tsv")


@pytest.mark.parametrize(
    "command, setting, code, message, dumps",
    [pytest.param(*case, dumps, id="-".join((*case[:2], case[3]))
                  + ("-dumps" if dumps else ""))
     for case in _REFUSED
     for dumps in ((), _DUMPS)[:2 if case[0] == "analyze" else 1]])
def test_out_of_range_grid_and_wavelet_are_invalid_input(
        tmp_path, capsys, sweep_inputs, command, setting, code, message,
        dumps):
    """A refused run writes nothing, the streamed scalogram included."""
    to = "--report" if command == "analyze" else "--json"
    argv = [command, sweep_inputs[command], *setting.split(), to,
            str(tmp_path / "out.json")]
    argv += [str(tmp_path / a) if a.endswith(".tsv") else a for a in dumps]
    assert main(argv) == code
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# the refusals that read no input: the options alone decide them
_OPTION_ONLY = [case[:2] + case[3:] for case in _REFUSED
                if case[1].startswith(("--omega0", "--voices"))] + \
    [("analyze", f"{flag}={value}", f"{name} must be finite")
     for flag, value, name in _NON_FINITE]


@pytest.mark.parametrize("command, setting, message", _OPTION_ONLY,
                         ids=["-".join(case) for case in _OPTION_ONLY])
def test_option_errors_are_refused_before_the_input_is_read(
        tmp_path, capsys, command, setting, message):
    """A missing input would exit 3 if it were read first."""
    to = "--report" if command == "analyze" else "--json"
    assert main([command, str(tmp_path / "missing.csv"), *setting.split(),
                 to, str(tmp_path / "out.json")]) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["analyze", "estimate"])
def test_voices_run_up_to_64_and_more_are_refused_before_the_input_is_read(
        tmp_path, capsys, sweep_inputs, command):
    to = "--report" if command == "analyze" else "--json"
    assert main([command, sweep_inputs[command], "--voices=64", to,
                 str(tmp_path / "out.json")]) == 0
    # a missing input would exit 3 if it were read first
    missing = str(tmp_path / "missing.csv")
    assert main([command, missing, "--voices=65", to,
                 str(tmp_path / "refused.json")]) == 2
    assert "--voices must be at most 64, got 65" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["out.json",
                                            "out.json.manifest.json"]


@pytest.mark.parametrize("command", ["analyze", "estimate"])
def test_a_scale_past_float64_in_samples_is_invalid_input(
        tmp_path, capsys, sweep_inputs, command):
    """On the dt = 1 fBm record, --a-max=1e308 keeps a_max / a_min finite
    but not the 8 a / dt samples the kernel spans: exit 2, nothing written."""
    to = "--report" if command == "analyze" else "--json"
    assert main([command, sweep_inputs["estimate"], "--a-max=1e308", to,
                 str(tmp_path / "out.json")]) == 2
    assert "more than float64 holds" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# ------------------------------------------------------------------ memory

# runs `python -m wavekit` as the child's main module, then prints the
# child's own peak resident set size in KiB on a last line. That is VmHWM,
# the high-water mark of the memory map made at exec: ru_maxrss would also
# count the memory of the test process the child was forked from.
_PEAK_RSS_CHILD = """
import runpy, sys
sys.argv = ["wavekit"] + sys.argv[1:]
code = None
try:
    runpy.run_module("wavekit", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open("/proc/self/status") as fh:
    hwm = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print("rc", code, "peak_kib", hwm)
"""


def _peak_mb(*argv) -> float:
    """The peak RSS, in MB, of `wavekit *argv` run in a fresh child, which
    must exit 0."""
    src = str(Path(wavekit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    last = done.stdout.split("\n")[-2].split()
    assert last[:2] == ["rc", "0"], done.stderr
    return int(last[3]) / 1024


_NEEDS_PROC = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"),
    reason="reads the peak resident set size from /proc")


@_NEEDS_PROC
def test_analyze_report_at_64k_holds_no_scale_time_matrix(tmp_path):
    # the 105 x 65 536 coefficient matrix alone is 55 MB, and a |W| copy
    # of it as much again; the report needs neither, and peaks at about
    # 54 MB
    signal = str(tmp_path / "big.csv")
    write_signal_csv(signal, gen_chirp_jump(65536, sigma=0.3, seed=1))
    assert _peak_mb("analyze", signal,
                    "--report", str(tmp_path / "r.json")) <= 70.0


@_NEEDS_PROC
def test_analyze_streams_its_dumps(tmp_path):
    # the scalogram is written row by row as the transform makes the rows,
    # so the dumps add little to the peak of the report alone on the same
    # input (about 3 MB: one row's text and the maxima writer's block);
    # the 81 x 8192 complex matrix with its |W| and |W|^2 / a copies
    # added 20 MB
    signal = str(tmp_path / "chirp.csv")
    write_signal_csv(signal, gen_chirp_jump(8192, sigma=0.3, seed=1))
    run = ("analyze", signal, "--wavelet", "morlet",
           "--report", str(tmp_path / "r.json"))
    alone = _peak_mb(*run)
    dumps = _peak_mb(*run, "--scalogram", str(tmp_path / "s.tsv"),
                     "--maxima", str(tmp_path / "m.tsv"))
    assert dumps - alone <= 5.0


@_NEEDS_PROC
def test_estimate_at_256k_computes_only_interior_rows(tmp_path):
    # 262 144 samples at the estimation grid's 102 scales: the variance
    # rows run in blocks sized to their kernels, whose spectra each block
    # length computes once, and only their columns outside the cone reach
    # the reducer, a chunk of blocks at a time (about 63 MB); all of a
    # row's blocks at once peaked at about 77 MB, and padding each row to
    # its own length, up to 364 500, and reducing full rows at 76-83 MB
    signal = str(tmp_path / "fbm.csv")
    write_signal_csv(signal, gen_fbm(hurst=0.7, n=262144, seed=1))
    assert _peak_mb("estimate", signal, "--json", str(tmp_path / "e.json"),
                    "--covariance", str(tmp_path / "c.tsv")) <= 70.0


@_NEEDS_PROC
def test_gen_fbm_at_256k_runs_its_ffts_in_place(tmp_path):
    # both FFTs of the circulant embedding write into their own input, so
    # no extra length-2n complex array is alive where the synthesis peaks
    # (about 62 MB); an FFT output beside each input peaked at about 70 MB
    assert _peak_mb("gen", "fbm", "--n", "262144", "--hurst", "0.7",
                    "--seed", "1", "--out", str(tmp_path / "f.csv")) <= 66.0


# ----------------------------------------------------------- argparse layer

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_fbm_requires_seed_and_hurst(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "fbm", "--out", str(tmp_path / "b.csv")])
    assert exc.value.code == 2
