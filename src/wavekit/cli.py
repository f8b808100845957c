"""Command-line front end.

Subcommands: gen (synthetic signals and point clouds), analyze (transform,
maxima, singularity report), estimate (scaling exponents), rasterize (point
cloud to PGM). Every output file gets a sibling <name>.manifest.json whose
argv replays the invocation byte for byte. _run writes the manifests of
every subcommand from the parsed options, after the handler has written
the outputs: params holds every option other than the file names, with
the scale range that analyze and estimate resolved in place of the flags.

Exit codes: 0 ok, 2 invalid input, parameters or allocation size, 3 I/O
failure, 4 incompatible scale grid, 5 degenerate estimation: each toolkit
error carries its own as exit_code. A run that ends with any other code
than 0 removes every output file it wrote, manifests too.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from dataclasses import asdict

from . import __version__
from .detect import (DetectionConfig, detect_from_maxima,
                     require_detection_grid)
from .errors import WavekitError
from .generate import (NoiseSpec, add_noise, barnsley_tree_model, chaos_game,
                       gen_chirp_jump, gen_eq11, gen_fbm)
from .io import (RunManifest, points_to_image, read_points_csv,
                 read_signal_csv, scalogram_tsv, write_covariance_tsv,
                 write_json, write_maxima_tsv, write_pgm, write_points_csv,
                 write_signal_csv)
from .selfsim import (estimation_grid, fit_power_law, require_estimable,
                      require_fit_grid, wavelet_variance)
from .transform import ScaleGrid, cwt_maxima, energy_density
from .wavelets import by_name

# the flags that name output files; each output has a <name>.manifest.json
_OUTPUT_FLAGS = ("out", "report", "scalogram", "maxima", "json", "covariance")
# the parsed values a manifest records elsewhere or not at all; the rest
# are its params
_NOT_PARAMS = {"command", "kind", "handler", "maker", "_argv", "input",
               *_OUTPUT_FLAGS}
# rasterize's largest image side: points_to_image peaks at about 17 bytes
# a pixel, so a 4096 x 4096 image takes about 285 MB
_MAX_IMAGE_SIDE = 4096
# analyze's and estimate's most scales per octave, eight times the default:
# it bounds every per-scale array, the maxima and the scalogram's rows by a
# constant times their size at the default
_MAX_VOICES = 64


def main(argv=None) -> int:
    tokens = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(tokens)
    args._argv = tokens
    before = {path: _file_id(path) for path in _output_paths(args)}
    code = None
    try:
        code = _run(args)
    finally:
        if code != 0:
            _remove_written(before)
    return code


def _run(args) -> int:
    """Run the handler, write the manifests, then print the warnings and
    the summary the handler returned, so a run that fails prints no line
    for a file it removes."""
    try:
        summary, warnings = args.handler(args)
        _manifests(args)
    except (WavekitError, ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, OSError) else getattr(exc, "exit_code", 2)
    for note in warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(summary)
    return 0


def _outputs(args) -> list:
    """The output file names given, in _OUTPUT_FLAGS order."""
    names = [getattr(args, flag, None) for flag in _OUTPUT_FLAGS]
    return [name for name in names if name]


def _output_paths(args) -> list:
    return [name + suffix for name in _outputs(args)
            for suffix in ("", ".manifest.json")]


def _manifests(args) -> None:
    """Write <name>.manifest.json beside each output: the subcommand, the
    input if it takes one, and every other parsed value as params."""
    outputs = _outputs(args)
    m = asdict(RunManifest(
        subcommand=" ".join(filter(None, [args.command,
                                          getattr(args, "kind", None)])),
        argv=tuple(args._argv),
        params={k: v for k, v in vars(args).items() if k not in _NOT_PARAMS},
        inputs=(args.input,) if hasattr(args, "input") else (),
        outputs=tuple(outputs), version=__version__))
    for out in outputs:
        write_json(out + ".manifest.json", m)


def _file_id(path: str):
    """Inode, mtime and size of the regular file at path, else None.

    A rewrite that keeps the size within one tick of the file system's
    clock keeps this too, and is then taken for a file left alone.
    """
    try:
        st = os.lstat(path)
    except OSError:
        return None
    if not stat.S_ISREG(st.st_mode):
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


def _remove_written(before: dict) -> None:
    """Remove each output that is now a regular file the run created or
    rewrote; a device, a symlink or a file the run left alone stays."""
    for path, was in before.items():
        now = _file_id(path)
        if now is not None and now != was:
            try:
                os.remove(path)
            except OSError:
                pass


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wavekit",
                                description="wavelet singularity and "
                                            "self-similarity toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic data")
    gsub = gen.add_subparsers(dest="kind", required=True)

    for kind, maker, text in [
            ("chirp-jump", gen_chirp_jump, "chirp + step + cusp test signal"),
            ("eq11", gen_eq11, "sine + cusp + step test signal")]:
        g = gsub.add_parser(kind, help=text)
        g.add_argument("--n", type=int, default=1024)
        g.add_argument("--sigma", type=float, default=0.0)
        g.add_argument("--seed", type=int)
        g.add_argument("--out", required=True)
        g.set_defaults(handler=_cmd_gen_signal, maker=maker)

    g = gsub.add_parser("fbm", help="fractional Brownian motion")
    g.add_argument("--n", type=int, default=4096)
    g.add_argument("--hurst", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--dt", type=float, default=1.0)
    g.add_argument("--out", required=True)
    g.set_defaults(handler=_cmd_gen_fbm)

    g = gsub.add_parser("ifs", help="chaos-game point cloud")
    g.add_argument("--model", default="barnsley", choices=["barnsley"])
    g.add_argument("--n", type=int, default=100000)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--burn-in", type=int, default=100)
    g.add_argument("--out", required=True)
    g.set_defaults(handler=_cmd_gen_ifs)

    g = gsub.add_parser("noise-add", help="add white noise to a signal file")
    g.add_argument("--input", required=True)
    g.add_argument("--sigma", type=float, required=True)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(handler=_cmd_noise_add)

    a = sub.add_parser("analyze", help="transform a signal and report "
                                       "detected singularities")
    a.add_argument("input")
    _add_transform_flags(a)
    a.add_argument("--threshold", type=float, default=3.0,
                   help="significance threshold in noise sigmas")
    a.add_argument("--persistence", type=float, default=2.0,
                   help="required significant span in octaves")
    a.add_argument("--max-alpha", type=float, default=None,
                   help="drop events whose exponent reads at or above this")
    a.add_argument("--report", help="write the event report as JSON")
    a.add_argument("--scalogram",
                   help="write normalized power as TSV, one row per sample "
                        "and scale: n x n_scales rows (6.9 M rows, about "
                        "434 MB, for a default run on 65536 samples)")
    a.add_argument("--maxima", help="write modulus-maxima points as TSV")
    a.set_defaults(handler=_cmd_analyze)

    e = sub.add_parser("estimate", help="fit the scaling exponent of a signal")
    e.add_argument("input")
    _add_transform_flags(e)
    e.add_argument("--json", required=True, help="write the estimate as JSON")
    e.add_argument("--covariance", help="write per-scale variance as TSV")
    e.set_defaults(handler=_cmd_estimate)

    r = sub.add_parser("rasterize", help="render a point cloud to a PGM image")
    r.add_argument("input")
    r.add_argument("--width", type=int, default=512)
    r.add_argument("--height", type=int, default=512)
    r.add_argument("--bbox", type=float, nargs=4,
                   metavar=("XLO", "XHI", "YLO", "YHI"))
    r.add_argument("--out", required=True)
    r.set_defaults(handler=_cmd_rasterize)
    return p


def _add_transform_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--wavelet", default="mexican-hat",
                    choices=["mexican-hat", "morlet", "haar"])
    sp.add_argument("--omega0", type=float, default=6.0)
    sp.add_argument("--voices", type=int, default=8,
                    help=f"scales per octave, at most {_MAX_VOICES}")
    sp.add_argument("--a-min", type=float, dest="a_min")
    sp.add_argument("--a-max", type=float, dest="a_max")


def _check_voices(args) -> None:
    """Refuse a --voices below 1 or above _MAX_VOICES, before anything is
    read."""
    if args.voices < 1:
        raise ValueError(
            f"voices per octave must be positive, got {args.voices}")
    if args.voices > _MAX_VOICES:
        raise ValueError(
            f"--voices must be at most {_MAX_VOICES}, got {args.voices}")


def _grid_for(args, f, default) -> ScaleGrid:
    """The grid of the run; its range goes back into args, so the manifest
    records the scales used, not the flags."""
    g = default(f, args.voices)
    if args.a_min is not None or args.a_max is not None:
        g = ScaleGrid.log_spaced(g.a_min if args.a_min is None else args.a_min,
                                 g.a_max if args.a_max is None else args.a_max,
                                 args.voices)
    args.a_min, args.a_max = g.a_min, g.a_max
    return g


# ------------------------------------------------------------- handlers
# each reads, computes and writes its outputs, and returns its summary and
# its warnings; _run writes the manifests and prints both

def _cmd_gen_signal(args) -> tuple:
    f = args.maker(n=args.n, sigma=args.sigma, seed=args.seed)
    write_signal_csv(args.out, f)
    return f"wrote {args.out} ({f.n} samples)", ()


def _cmd_gen_fbm(args) -> tuple:
    f = gen_fbm(hurst=args.hurst, n=args.n, seed=args.seed, dt=args.dt)
    write_signal_csv(args.out, f)
    return f"wrote {args.out} ({f.n} samples)", ()


def _cmd_gen_ifs(args) -> tuple:
    model = barnsley_tree_model()
    cloud = chaos_game(model, n=args.n, seed=args.seed, burn_in=args.burn_in)
    write_points_csv(args.out, cloud.points)
    return f"wrote {args.out} ({args.n} points)", ()


def _cmd_noise_add(args) -> tuple:
    f = read_signal_csv(args.input)
    noisy = add_noise(f, NoiseSpec(sigma=args.sigma, seed=args.seed))
    write_signal_csv(args.out, noisy)
    return f"wrote {args.out} ({noisy.n} samples)", ()


def _cmd_analyze(args) -> tuple:
    _check_voices(args)
    w = by_name(args.wavelet, omega0=args.omega0)
    cfg = DetectionConfig(threshold_multiplier=args.threshold,
                          persistence_octaves=args.persistence,
                          max_alpha=args.max_alpha)
    f = read_signal_csv(args.input)
    g = _grid_for(args, f, ScaleGrid.default_for)
    require_detection_grid(g.scales)
    # the scalogram is written row by row as the transform makes the rows
    # (the calling thread formats one row while helper threads compute
    # others), so no path holds the scale x time matrix
    if args.scalogram:
        with scalogram_tsv(args.scalogram, f.time_axis()) as write:
            maxima = cwt_maxima(f, w, g, lambda j, row: write(
                g.scales[j], energy_density(row, g.scales[j])))
    else:
        maxima = cwt_maxima(f, w, g)
    report = detect_from_maxima(maxima, cfg)
    if args.report:
        write_json(args.report, asdict(report))
    if args.maxima:
        write_maxima_tsv(args.maxima, maxima)
    return "\n".join(
        [f"{len(report.events)} events "
         f"(sigma_hat={report.sigma_hat:.6g}, lines={report.n_lines})"]
        + [f"  {e.kind} at b={e.location:.6g} alpha={e.alpha:.4g} "
           f"strength={e.strength:.6g}" for e in report.events]), ()


def _cmd_estimate(args) -> tuple:
    _check_voices(args)
    w = by_name(args.wavelet, omega0=args.omega0)
    f = read_signal_csv(args.input)
    require_estimable(f)
    g = _grid_for(args, f, estimation_grid)
    require_fit_grid(g)
    r = wavelet_variance(f, w, g)
    est = fit_power_law(r)

    write_json(args.json, asdict(est))
    if args.covariance:
        write_covariance_tsv(args.covariance, r)
    return (f"beta={est.beta:.6g} hurst={est.hurst:.6g} "
            f"dimension={est.dimension:.6g} r2={est.r_squared:.6g} "
            f"({est.classification})"), est.warnings


def _cmd_rasterize(args) -> tuple:
    if args.width < 16 or args.height < 16:
        raise ValueError(
            f"image must be at least 16x16, got {args.width}x{args.height}")
    if max(args.width, args.height) > _MAX_IMAGE_SIDE:
        raise ValueError(
            f"--width and --height must be at most {_MAX_IMAGE_SIDE}, "
            f"got {args.width}x{args.height}")
    pts = read_points_csv(args.input)
    bbox = tuple(args.bbox) if args.bbox else None
    img = points_to_image(pts, args.width, args.height, bbox)
    write_pgm(args.out, img)
    return f"wrote {args.out} ({args.width}x{args.height})", ()
