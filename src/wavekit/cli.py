"""Command-line front end.

Subcommands: gen (synthetic signals and point clouds), analyze (transform,
maxima, singularity report), estimate (scaling exponents), rasterize (point
cloud to PGM). Every output file gets a sibling <name>.manifest.json whose
argv replays the invocation byte for byte.

Exit codes: 0 ok, 2 invalid input or parameters, 3 I/O failure,
4 incompatible scale grid, 5 degenerate estimation.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .detect import DetectionConfig, detect_from_maxima
from .errors import (DegenerateFitError, InvalidHurstError, InvalidModelError,
                     InvalidSignalError, NoValidSamplesError,
                     OutOfRangeError, ScaleTooFineError, TooFewScalesError)
from .generate import (NoiseSpec, add_noise, barnsley_tree_model, chaos_game,
                       gen_chirp_jump, gen_eq11, gen_fbm)
from .io import (RunManifest, estimate_to_dict, points_to_image,
                 read_points_csv, read_signal_csv, report_to_dict,
                 write_covariance_tsv, write_json, write_maxima_tsv,
                 write_pgm, write_points_csv, write_run_manifest,
                 write_scalogram_tsv, write_signal_csv)
from .selfsim import (EstimationConfig, estimation_grid, fit_power_law,
                      require_estimable, require_fit_grid, wavelet_variance)
from .transform import ScaleGrid, cwt_fft, modulus_maxima, scalogram
from .wavelets import by_name

_BAD_INPUT = (InvalidSignalError, InvalidModelError, InvalidHurstError,
              OutOfRangeError, ValueError)
_BAD_GRID = (ScaleTooFineError, TooFewScalesError)
_DEGENERATE = (DegenerateFitError, NoValidSamplesError)


def main(argv=None) -> int:
    tokens = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(tokens)
    args._argv = tokens
    try:
        args.handler(args)
    except _BAD_GRID as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _DEGENERATE as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except _BAD_INPUT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wavekit",
                                description="wavelet singularity and "
                                            "self-similarity toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate synthetic data")
    gsub = gen.add_subparsers(dest="kind", required=True)

    g = gsub.add_parser("chirp-jump", help="chirp + step + cusp test signal")
    g.add_argument("--n", type=int, default=1024)
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(handler=_cmd_gen_signal, maker=gen_chirp_jump)

    g = gsub.add_parser("eq11", help="sine + cusp + step test signal")
    g.add_argument("--n", type=int, default=1024)
    g.add_argument("--sigma", type=float, default=0.0)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(handler=_cmd_gen_signal, maker=gen_eq11)

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
    a.add_argument("--scalogram", help="write normalized power as TSV")
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
                    help="scales per octave")
    sp.add_argument("--a-min", type=float, dest="a_min")
    sp.add_argument("--a-max", type=float, dest="a_max")


def _manifests(args, subcommand: str, params: dict, inputs: list,
               outputs: list) -> None:
    m = RunManifest(subcommand=subcommand, argv=tuple(args._argv),
                    params=params, inputs=tuple(inputs),
                    outputs=tuple(outputs), version=__version__)
    for out in outputs:
        write_run_manifest(out + ".manifest.json", m)


def _grid_for(args, f, default) -> ScaleGrid:
    base = default(f, args.voices)
    if args.a_min is None and args.a_max is None:
        return base
    return ScaleGrid.log_spaced(base.a_min if args.a_min is None else args.a_min,
                                base.a_max if args.a_max is None else args.a_max,
                                args.voices)


# ------------------------------------------------------------- handlers

def _cmd_gen_signal(args) -> None:
    f = args.maker(n=args.n, sigma=args.sigma, seed=args.seed)
    write_signal_csv(args.out, f)
    params = {"n": args.n, "sigma": args.sigma, "seed": args.seed}
    _manifests(args, f"gen {args.kind}", params, [], [args.out])
    print(f"wrote {args.out} ({f.n} samples)")


def _cmd_gen_fbm(args) -> None:
    f = gen_fbm(hurst=args.hurst, n=args.n, seed=args.seed, dt=args.dt)
    write_signal_csv(args.out, f)
    params = {"n": args.n, "hurst": args.hurst, "seed": args.seed,
              "dt": args.dt}
    _manifests(args, "gen fbm", params, [], [args.out])
    print(f"wrote {args.out} ({f.n} samples)")


def _cmd_gen_ifs(args) -> None:
    model = barnsley_tree_model()
    cloud = chaos_game(model, n=args.n, seed=args.seed, burn_in=args.burn_in)
    write_points_csv(args.out, cloud.points)
    params = {"model": args.model, "n": args.n, "seed": args.seed,
              "burn_in": args.burn_in}
    _manifests(args, "gen ifs", params, [], [args.out])
    print(f"wrote {args.out} ({args.n} points)")


def _cmd_noise_add(args) -> None:
    f = read_signal_csv(args.input)
    if args.sigma > 0 and args.seed is None:
        raise InvalidSignalError("a seed is required when sigma > 0")
    noisy = add_noise(f, NoiseSpec(sigma=args.sigma, seed=args.seed or 0))
    write_signal_csv(args.out, noisy)
    params = {"sigma": args.sigma, "seed": args.seed}
    _manifests(args, "gen noise-add", params, [args.input], [args.out])
    print(f"wrote {args.out} ({noisy.n} samples)")


def _cmd_analyze(args) -> None:
    f = read_signal_csv(args.input)
    w = by_name(args.wavelet, omega0=args.omega0)
    g = _grid_for(args, f, ScaleGrid.default_for)
    cfg = DetectionConfig(threshold_multiplier=args.threshold,
                          persistence_octaves=args.persistence,
                          max_alpha=args.max_alpha)
    c = cwt_fft(f, w, g)
    maxima = modulus_maxima(c, cfg.min_amplitude_fraction)
    report = detect_from_maxima(c, maxima, cfg)

    outputs = []
    if args.report:
        write_json(args.report, report_to_dict(report))
        outputs.append(args.report)
    if args.scalogram:
        write_scalogram_tsv(args.scalogram, scalogram(c))
        outputs.append(args.scalogram)
    if args.maxima:
        write_maxima_tsv(args.maxima, maxima)
        outputs.append(args.maxima)

    params = {"wavelet": args.wavelet, "omega0": args.omega0,
              "voices": args.voices, "a_min": g.a_min, "a_max": g.a_max,
              "threshold": args.threshold, "persistence": args.persistence,
              "max_alpha": args.max_alpha}
    _manifests(args, "analyze", params, [args.input], outputs)

    print(f"{len(report.events)} events "
          f"(sigma_hat={report.sigma_hat:.6g}, lines={report.n_lines})")
    for e in report.events:
        print(f"  {e.kind} at b={e.location:.6g} alpha={e.alpha:.4g} "
              f"strength={e.strength:.6g}")


def _cmd_estimate(args) -> None:
    f = read_signal_csv(args.input)
    require_estimable(f)
    w = by_name(args.wavelet, omega0=args.omega0)
    g = _grid_for(args, f, estimation_grid)
    require_fit_grid(g)
    cfg = EstimationConfig()
    r = wavelet_variance(f, w, g, cfg)
    est = fit_power_law(r, cfg)

    write_json(args.json, estimate_to_dict(est))
    outputs = [args.json]
    if args.covariance:
        write_covariance_tsv(args.covariance, r)
        outputs.append(args.covariance)

    params = {"wavelet": args.wavelet, "omega0": args.omega0,
              "voices": args.voices, "a_min": g.a_min, "a_max": g.a_max}
    _manifests(args, "estimate", params, [args.input], outputs)

    for note in est.warnings:
        print(f"warning: {note}", file=sys.stderr)
    print(f"beta={est.beta:.6g} hurst={est.hurst:.6g} "
          f"dimension={est.dimension:.6g} r2={est.r_squared:.6g} "
          f"({est.classification})")


def _cmd_rasterize(args) -> None:
    if args.width < 16 or args.height < 16:
        raise InvalidSignalError(
            f"image must be at least 16x16, got {args.width}x{args.height}")
    pts = read_points_csv(args.input)
    bbox = tuple(args.bbox) if args.bbox else None
    img = points_to_image(pts, args.width, args.height, bbox)
    write_pgm(args.out, img)
    params = {"width": args.width, "height": args.height,
              "bbox": list(args.bbox) if args.bbox else None}
    _manifests(args, "rasterize", params, [args.input], [args.out])
    print(f"wrote {args.out} ({args.width}x{args.height})")


if __name__ == "__main__":
    sys.exit(main())
