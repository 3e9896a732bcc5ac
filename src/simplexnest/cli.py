"""Command-line entry point.

Subcommands: generate, fit, eval, experiment, alpha-curve, gamma-table.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness
from .harness import ConfigError, ExperimentConfig


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    overrides = {
        "kernel": args.kernel,
        "sigma": args.sigma,
        "trials": args.trials,
        "D": args.D,
        "K": args.K,
        "alpha": args.alpha,
        "n": args.n,
        "c_min": args.c_min,
        "seeds": args.seeds,
        "methods": getattr(args, "methods", None),
        "metrics": getattr(args, "metrics", None),
        "gamma_table": getattr(args, "gamma_table", None),
        "restarts": getattr(args, "restarts", None),
        "n_heldout": getattr(args, "n_heldout", None),
        "out": args.out,
        "workers": getattr(args, "workers", None),
        "paper_scale": True if getattr(args, "paper_scale", False) else None,
        "normalize": False if getattr(args, "raw_counts", False) else None,
    }
    return cfg.with_overrides(overrides)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--kernel", choices=["noiseless", "gaussian", "poisson", "multinomial"])
    p.add_argument("--sigma", type=float, help="gaussian noise standard deviation")
    p.add_argument("--trials", type=int, help="multinomial trial count N")
    p.add_argument("--D", type=int, help="ambient dimension")
    p.add_argument("--K", type=int, help="number of vertices")
    p.add_argument("--alpha", type=float, nargs="+", help="concentration value(s)")
    p.add_argument("--n", type=int, nargs="+", help="sample size(s)")
    p.add_argument("--c-min", dest="c_min", type=float, nargs="+", help="skew factor lower bound(s)")
    p.add_argument("--seeds", type=int, nargs="+")
    p.add_argument("--out", help="output directory")
    p.add_argument("--raw-counts", action="store_true",
                   help="fit multinomial counts without normalizing by N")
    p.add_argument("--paper-scale", action="store_true",
                   help="use the full simulation-protocol defaults instead of desk scale")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simplexnest")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic dataset directories")
    _add_model_flags(p)
    p.set_defaults(func=_do_generate)

    p = sub.add_parser("fit", help="fit one estimator on a saved dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--method", required=True,
                   help="vlad | vlad_alpha | gdm | gdm_mc | spa | external:<vertices.csv>")
    p.add_argument("--out", required=True, help="fit output directory")
    p.add_argument("--K", type=int)
    p.add_argument("--gamma", type=float, help="extension factor (skips the table lookup)")
    p.add_argument("--gamma-table", dest="gamma_table", help="saved gamma table (default: quadrature)")
    p.add_argument("--alpha", type=float, help="known concentration that sets gamma")
    p.add_argument("--alpha-search", dest="alpha_search", type=float, nargs=2, default=[0.02, 10.0])
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--raw-counts", action="store_true")
    p.set_defaults(func=_do_fit)

    p = sub.add_parser("eval", help="score a fit directory against dataset truth")
    p.add_argument("--fit", required=True, help="fit directory (or a vertices.csv)")
    p.add_argument("--data", required=True, help="dataset directory with truth sidecar")
    p.add_argument("--heldout", help="held-out dataset directory")
    p.add_argument("--metrics", nargs="+", default=["mm", "volume"],
                   choices=list(harness.KNOWN_METRICS))
    p.add_argument("--results-csv", dest="results_csv", help="append a row to this CSV")
    p.add_argument("--raw-counts", action="store_true")
    p.set_defaults(func=_do_eval)

    p = sub.add_parser("experiment", help="run a full sweep from a config")
    _add_model_flags(p)
    p.add_argument("--methods", nargs="+")
    p.add_argument("--metrics", nargs="+")
    p.add_argument("--gamma-table", dest="gamma_table")
    p.add_argument("--restarts", type=int)
    p.add_argument("--n-heldout", dest="n_heldout", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=_do_experiment)

    p = sub.add_parser("alpha-curve", help="tabulate the exact gamma(alpha) and varphi(alpha)")
    p.add_argument("--K", type=int, default=10)
    p.add_argument("--grid", type=float, nargs=3, default=[0.1, 5.0, 40],
                   metavar=("LO", "HI", "NPOINTS"))
    p.add_argument("--out", default="alpha_curve.csv")
    p.set_defaults(func=_do_alpha_curve)

    p = sub.add_parser("gamma-table", help="build and save a gamma table by Monte Carlo (paper protocol)")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--grid", type=float, nargs=3, default=[0.02, 10.0, 40],
                   metavar=("LO", "HI", "NPOINTS"))
    p.add_argument("--m", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", default="gamma_table.json")
    p.set_defaults(func=_do_gamma_table)
    return parser


def _do_generate(args) -> int:
    cfg = _config_from_args(args)
    for path in harness.cmd_generate(cfg):
        print(path)
    return 0


def _do_fit(args) -> int:
    out = harness.cmd_fit(
        args.data, args.method, args.out,
        K=args.K, gamma=args.gamma, gamma_table=args.gamma_table,
        alpha=args.alpha, alpha_search=tuple(args.alpha_search),
        restarts=args.restarts, seed=args.seed,
        normalize=not args.raw_counts,
    )
    print(out)
    return 0


def _do_eval(args) -> int:
    report = harness.cmd_eval(
        args.fit, args.data, metrics=tuple(args.metrics),
        heldout_dir=args.heldout, results_csv=args.results_csv,
        normalize=not args.raw_counts,
    )
    for key, value in report.items():
        if value is not None and key != "diagnostics":
            print(f"{key}: {value}")
    return 0


def _do_experiment(args) -> int:
    cfg = _config_from_args(args)
    run_root = harness.run_experiment(cfg)
    print(run_root / "results.csv")
    return 0


def _do_alpha_curve(args) -> int:
    out = harness.cmd_alpha_curve(K=args.K, grid=tuple(args.grid), out_path=args.out)
    print(out)
    return 0


def _do_gamma_table(args) -> int:
    out = harness.cmd_gamma_table(
        K=args.K, grid=tuple(args.grid), m=args.m, seed=args.seed,
        out_path=args.out, restarts=args.restarts, workers=args.workers,
    )
    print(out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
