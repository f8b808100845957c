import json
import warnings

import numpy as np
import pytest

from wavekit import (DetectionConfig, ScaleGrid, TimeSeries, by_name, cwt_fft,
                     detect_singularities, modulus_maxima, scalogram)
from wavekit.cli import main
from wavekit.io import (read_json, read_pgm, read_signal_csv, report_to_dict,
                        write_json, write_maxima_tsv, write_scalogram_tsv,
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
    write_json(want["json"], report_to_dict(
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


# -------------------------------------------------------------- exit codes

def test_missing_input_is_an_io_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.csv")]) == 3
    assert capsys.readouterr().err.startswith("error:")


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
    assert main(["rasterize", str(pts), "--width", "8",
                 "--out", str(tmp_path / "p.pgm")]) == 2
    assert "at least 16x16" in capsys.readouterr().err


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
