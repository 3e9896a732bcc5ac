"""Command-line entry point.

Subcommands: generate, fit, eval, experiment, alpha-curve, gamma-table.
Exit codes: 0 success, 2 configuration error, 3 numerical failure. A flag's
dest is the ExperimentConfig field (generate, experiment) or the harness
command keyword (the others) it sets; a flag left out parses to None and sets
nothing, so the config or the command owns every default.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

import numpy as np

from . import harness
from .harness import KNOWN_METHODS, ConfigError, ExperimentConfig
from .metrics import METRIC_NAMES
from .model import KERNEL_NAMES


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The --config JSON (or the defaults) overridden by every flag given."""
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    fields = ExperimentConfig.__dataclass_fields__
    return cfg.with_overrides({k: v for k, v in vars(args).items() if k in fields})


def _run_with_flags(command: Callable) -> Callable:
    """The adapter of a harness command: call it with the flags that were
    given, each as the keyword its dest names, and print what it returns."""

    def run(args: argparse.Namespace) -> int:
        given = {k: v for k, v in vars(args).items() if v is not None and k not in ("command", "func")}
        result = command(**given)
        if isinstance(result, dict):  # an eval report
            result = "\n".join(f"{k}: {v}" for k, v in result.items() if v is not None and k != "diagnostics")
        print(result)
        return 0

    return run


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--kernel", choices=KERNEL_NAMES)
    p.add_argument("--sigma", type=float, help="gaussian noise standard deviation")
    p.add_argument("--trials", type=int, help="multinomial trial count N")
    p.add_argument("--D", type=int, help="ambient dimension")
    p.add_argument("--K", type=int, help="number of vertices")
    p.add_argument("--alpha", type=float, nargs="+", help="concentration value(s)")
    p.add_argument("--n", type=int, nargs="+", help="sample size(s)")
    p.add_argument("--c-min", dest="c_min", type=float, nargs="+", help="skew factor lower bound(s)")
    p.add_argument("--seeds", type=int, nargs="+")
    p.add_argument("--out", help="output directory")
    p.add_argument("--paper-scale", action="store_true", default=None,
                   help="use the full simulation-protocol defaults instead of desk scale")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simplexnest")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write synthetic dataset directories")
    _add_model_flags(p)
    p.set_defaults(func=_do_generate)

    p = sub.add_parser("fit", help="fit one estimator on a saved dataset")
    p.add_argument("--data", dest="data_dir", required=True, help="dataset directory")
    p.add_argument("--method", required=True,
                   help=" | ".join((*KNOWN_METHODS, "external:<vertices.csv>")))
    p.add_argument("--out", dest="out_dir", required=True, help="fit output directory")
    p.add_argument("--K", type=int)
    p.add_argument("--gamma", type=float, help="extension factor (skips the table lookup; not vlad_alpha)")
    p.add_argument("--gamma-table", dest="gamma_table", help="saved gamma table (default: quadrature)")
    p.add_argument("--alpha", type=float, help="known concentration that sets gamma")
    p.add_argument("--alpha-search", dest="alpha_search", type=float, nargs=2)
    p.add_argument("--restarts", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_run_with_flags(harness.cmd_fit))

    p = sub.add_parser("eval", help="score a fit directory against dataset truth")
    p.add_argument("--fit", dest="fit_dir", required=True, help="fit directory (or a vertices.csv)")
    p.add_argument("--data", dest="data_dir", required=True, help="dataset directory with truth sidecar")
    p.add_argument("--heldout", dest="heldout_dir", help="held-out dataset directory")
    p.add_argument("--metrics", nargs="+", choices=METRIC_NAMES)
    p.add_argument("--results-csv", dest="results_csv", help="append a row to this CSV")
    p.set_defaults(func=_run_with_flags(harness.cmd_eval))

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
    p.add_argument("--K", type=int)
    p.add_argument("--grid", type=float, nargs=3, metavar=("LO", "HI", "NPOINTS"))
    p.add_argument("--out", dest="out_path")
    p.set_defaults(func=_run_with_flags(harness.cmd_alpha_curve))

    p = sub.add_parser("gamma-table", help="build and save a gamma table by Monte Carlo (paper protocol)")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--grid", type=float, nargs=3, metavar=("LO", "HI", "NPOINTS"))
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--restarts", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", dest="out_path")
    p.set_defaults(func=_run_with_flags(harness.cmd_gamma_table))
    return parser


def _do_generate(args) -> int:
    cfg = _config_from_args(args)
    for path in harness.cmd_generate(cfg):
        print(path)
    return 0


def _do_experiment(args) -> int:
    cfg = _config_from_args(args)
    run_root = harness.run_experiment(cfg)
    print(run_root / "results.csv")
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
