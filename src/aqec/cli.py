"""Command-line interface.

Subcommands: optimize, evolve, sweep, scan-reset, reproduce, fit.
Exit codes: 0 success, 2 configuration/validation error, 3 optimizer
non-convergence, 4 numerical-integrity failure.
"""

from __future__ import annotations

import argparse
import sys

from . import runner
from .config import ConfigError, ExperimentConfig, load_config, with_overrides
from .dynamics import IntegrationError, IntegrityError
from .optimize import ConvergenceError
from .presets import list_presets, preset_config

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_INTEGRITY = 4
WORKERS_HELP = "processes for the points; overrides [run] workers"


def _worker_count(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser, workers: bool = False) -> None:
    p.add_argument("--config", help="path to an experiment config file")
    p.add_argument("--out", default=None, help="output directory")
    if workers:
        p.add_argument("--workers", type=_worker_count, default=None,
                       help=WORKERS_HELP)
    p.add_argument("--preset", default=None,
                   help=f"named preset ({', '.join(list_presets())})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqec",
        description="Dissipative state stabilization with optimized "
                    "pulse-reset cycles")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("optimize", help="optimize a coupling pulse"))
    _add_common(sub.add_parser("evolve", help="run pulse-reset cycles"))
    _add_common(sub.add_parser("sweep", help="sweep the configured T1 axis"),
                workers=True)
    _add_common(sub.add_parser("scan-reset", help="scan reset durations"),
                workers=True)

    rep = sub.add_parser("reproduce", help="reproduce a published figure/table")
    rep.add_argument("figure", choices=list_presets())
    rep.add_argument("--out", default=None)
    rep.add_argument("--workers", type=_worker_count, default=None,
                     help=WORKERS_HELP)

    fit = sub.add_parser("fit", help="fit a decay or power law to CSV columns")
    fit.add_argument("--csv", required=True)
    fit.add_argument("--xcol", required=True)
    fit.add_argument("--ycol", required=True)
    fit.add_argument("--kind", default="exp",
                     choices=["exp", "exp_with_offset",
                              "power", "power_with_offset"])
    fit.add_argument("--out", default="out")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    if getattr(args, "preset", None):
        cfg = preset_config(args.preset)
    elif args.config:
        cfg = load_config(args.config)
    else:
        raise ConfigError("either --config or --preset is required")
    if getattr(args, "workers", None) is not None:
        cfg = with_overrides(cfg, workers=args.workers)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "optimize":
            cfg = _resolve_config(args)
            result = runner.cmd_optimize(cfg, args.out or cfg.out_dir)
            print(f"fidelity {result.fidelity:.8f} "
                  f"after {result.iterations} iterations")
        elif args.command == "evolve":
            cfg = _resolve_config(args)
            traj = runner.cmd_evolve(cfg, args.out or cfg.out_dir)
            print(f"evolved {cfg.n_cycles} cycles to t={traj.times[-1]:.1f} ns")
        elif args.command == "sweep":
            cfg = _resolve_config(args)
            runner.cmd_sweep(cfg, args.out or cfg.out_dir)
            print("sweep complete")
        elif args.command == "scan-reset":
            cfg = _resolve_config(args)
            res = runner.cmd_scan_reset(cfg, args.out or cfg.out_dir)
            for t1_us, t_r, r in res["best"]:
                print(f"T1={t1_us:g} us: best t_r={t_r:g} ns "
                      f"(residual {r:.3e})")
        elif args.command == "reproduce":
            out = args.out or f"out_{args.figure}"
            summary = runner.cmd_reproduce(args.figure, out, args.workers)
            for key, value in sorted(summary.items()):
                if not isinstance(value, (list, dict)):
                    print(f"{key}: {value}")
        elif args.command == "fit":
            payload = runner.cmd_fit(args.csv, args.xcol, args.ycol,
                                     args.kind, args.out)
            for key in ("lifetime", "exponent", "prefactor", "offset",
                        "amplitude", "r_squared", "residual"):
                if key in payload:
                    print(f"{key}: {payload[key]:.6g}")
        return EXIT_OK
    except (ConfigError, ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (IntegrityError, IntegrationError) as exc:
        print(f"numerical-integrity failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
