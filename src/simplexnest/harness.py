"""Experiment harness: config resolution, dataset/fit/eval commands, and
deterministic sweep execution writing plot-ready CSVs.

A run directory is laid out as ``<out>/<config-hash>/s<seed>/<cell>/<method>/``
with ``results.csv`` at the run root. Every per-cell random stream is derived
from (seed, cell index), and rows are sorted canonically before writing, so
results.csv is byte-identical regardless of worker count. Wall times are
kept out of results.csv for the same reason; they live in the fit meta.json
files and in timings.csv.

The alpha-aware methods take gamma as a function gamma(K, alpha): the exact
``quadrature_gamma``, or a saved ``GammaTable`` when one is named. The alpha
search is ``alpha_search`` clamped to that function's alpha range (the
``gamma_grid`` ends for the quadrature in a sweep).
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import baselines, vlad
from ._matrix_io import format_float
from .extension import GammaTable, build_gamma_table, quadrature_gamma, varphi
from .metrics import evaluate_fit
from .model import (
    Dataset,
    Kernel,
    SimplexNest,
    generate,
    load_dataset,
    sample_vertices,
    save_dataset,
    skew_simplex,
)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


KNOWN_METHODS = ("vlad", "vlad_alpha", "gdm", "gdm_mc", "spa")
KNOWN_METRICS = ("mm", "heldout", "volume", "likelihood")

# Salts separating the random streams derived from (seed, cell).
_SALT_VERTICES = 11
_SALT_SKEW = 13
_SALT_DATA = 17
_SALT_HELDOUT = 19
_SALT_FIT = 23

RESULT_COLUMNS = (
    "kernel",
    "D",
    "K",
    "alpha",
    "n",
    "c_min",
    "seed",
    "method",
    "status",
    "gamma",
    "alpha_hat",
    "mm_distance",
    "mm_frobenius",
    "volume",
    "frobenius_heldout",
    "nll",
    "perplexity",
)


@dataclass
class ExperimentConfig:
    """Full description of a simulation run.

    ``alpha``, ``n`` and ``c_min`` are lists; axes with more than one value
    are swept (their cartesian product forms the grid). Fields left at None
    resolve to scale-dependent defaults: quick desk values, or the full
    simulation-protocol values under ``paper_scale``.
    """

    kernel: str = "gaussian"
    sigma: float = 1.0
    trials: int = 500
    D: int | None = None
    K: int = 10
    alpha: list = field(default_factory=lambda: [2.0])
    n: list = field(default_factory=lambda: [10000])
    c_min: list = field(default_factory=lambda: [1.0])
    seeds: list | None = None
    methods: list = field(default_factory=lambda: ["vlad"])
    metrics: list = field(default_factory=lambda: ["mm", "volume"])
    gamma_table: str | None = None
    # only [lo, hi] is read: without gamma_table it bounds the alpha search
    gamma_grid: list = field(default_factory=lambda: [0.02, 10.0, 40])
    gamma_m: int | None = None  # read by nothing; the benchmark's desk config still passes it
    restarts: int = 8
    normalize: bool = True
    n_heldout: int = 0
    alpha_search: list = field(default_factory=lambda: [0.02, 10.0])
    out: str = "runs"
    workers: int = 1
    paper_scale: bool = False

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        """CLI flags override JSON fields; None values are skipped."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(updates) - set(self.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config overrides: {sorted(unknown)}")
        return replace(self, **updates)

    def resolved(self) -> "ExperimentConfig":
        """Fill scale-dependent defaults and validate."""
        cfg = replace(self)
        if cfg.kernel not in ("noiseless", "gaussian", "poisson", "multinomial"):
            raise ConfigError(f"unknown kernel {cfg.kernel!r}")
        if cfg.K < 2:
            raise ConfigError("K must be >= 2")
        if cfg.D is None:
            if cfg.paper_scale:
                cfg.D = 2000 if cfg.kernel == "multinomial" else 500
            else:
                cfg.D = 200 if cfg.kernel == "multinomial" else 100
        if cfg.seeds is None:
            cfg.seeds = list(range(20 if cfg.paper_scale else 10))
        for name in ("alpha", "n", "c_min"):
            value = getattr(cfg, name)
            if not isinstance(value, list):
                setattr(cfg, name, [value])
        if len(set(map(int, cfg.seeds))) != len(cfg.seeds):
            raise ConfigError("seeds must be distinct")
        for m in cfg.methods:
            if not (m in KNOWN_METHODS or str(m).startswith("external:")):
                raise ConfigError(f"unknown method {m!r}")
        for m in cfg.metrics:
            if m not in KNOWN_METRICS:
                raise ConfigError(f"unknown metric {m!r}")
        if any(isinstance(a, (list, tuple)) for a in cfg.alpha):
            symmetric_only = {"vlad", "gdm", "gdm_mc"}
            bad = symmetric_only.intersection(cfg.methods)
            if bad:
                raise ConfigError(
                    f"methods {sorted(bad)} need a symmetric (scalar) alpha; "
                    "asymmetric runs support vlad_alpha and spa only"
                )
        if ("heldout" in cfg.metrics or "likelihood" in cfg.metrics) and cfg.n_heldout < 1:
            raise ConfigError("heldout/likelihood metrics require n_heldout >= 1")
        if cfg.kernel == "gaussian" and cfg.sigma <= 0:
            raise ConfigError("sigma must be > 0")
        if cfg.kernel == "multinomial" and cfg.trials < 2:
            raise ConfigError("multinomial trials must be >= 2")
        g = cfg.gamma_grid
        if len(g) != 3 or not (0 < g[0] < g[1]) or int(g[2]) < 2:
            raise ConfigError("gamma_grid must be [lo, hi, n_points] with 0 < lo < hi, n_points >= 2")
        s = cfg.alpha_search
        if len(s) != 2 or not 0 < s[0] < s[1]:
            raise ConfigError("alpha_search must be [lo, hi] with 0 < lo < hi")
        return cfg

    def scientific_dict(self) -> dict:
        """Resolved fields that define the run output (hash input).

        Excludes out/workers, which only affect where and how fast.
        """
        d = asdict(self)
        d.pop("out")
        d.pop("workers")
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.scientific_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _kernel_from_config(cfg: ExperimentConfig) -> Kernel:
    if cfg.kernel == "gaussian":
        return Kernel.gaussian(cfg.sigma)
    if cfg.kernel == "multinomial":
        return Kernel.multinomial(cfg.trials)
    if cfg.kernel == "poisson":
        return Kernel.poisson()
    return Kernel.noiseless()


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def build_model(cfg: ExperimentConfig, seed: int, c_min: float, c_idx: int, alpha) -> SimplexNest:
    """Base vertices depend on the seed only, so sweeps share geometry."""
    kern = _kernel_from_config(cfg)
    vertices = sample_vertices(cfg.D, cfg.K, kern, _rng(seed, _SALT_VERTICES))
    if c_min < 1.0:
        vertices = skew_simplex(vertices, c_min, _rng(seed, c_idx, _SALT_SKEW))
    return SimplexNest(vertices, np.asarray(alpha, dtype=float), kern)


def load_gamma_table(path: str | Path, K: int) -> GammaTable:
    """Read a saved gamma table for K vertices; any defect is a ConfigError."""
    try:
        table = GammaTable.load(path)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read gamma table {path}: {exc}") from exc
    if table.K != K:
        raise ConfigError(f"gamma table K = {table.K} does not match K = {K}")
    return table


def _clamped_search(cfg: ExperimentConfig, lo: float, hi: float) -> ExperimentConfig:
    """cfg with alpha_search clamped to gamma's alpha range [lo, hi]."""
    s_lo, s_hi = max(float(cfg.alpha_search[0]), lo), min(float(cfg.alpha_search[1]), hi)
    if not s_lo < s_hi:
        raise ConfigError(f"alpha_search {cfg.alpha_search} is outside gamma's alpha range [{lo}, {hi}]")
    return replace(cfg, alpha_search=[s_lo, s_hi])


def run_method(
    method: str,
    data: Dataset,
    cfg: ExperimentConfig,
    gamma_fn: Callable,
    alpha,
    rng: np.random.Generator,
):
    """Dispatch one estimator on truth-stripped data.

    Returns (vertices-bearing fit object, info dict). ``gamma_fn`` is
    gamma(K, alpha). ``alpha`` is the generating concentration, used only as
    the known hyperparameter of the alpha-aware methods.
    """
    blind = data.without_truth()
    if method in ("vlad", "gdm", "gdm_mc"):
        if isinstance(alpha, (list, tuple, np.ndarray)):
            raise ConfigError(f"method {method!r} needs a symmetric alpha")
        gamma = float(gamma_fn(cfg.K, alpha))
        if method == "vlad":
            fit = vlad.fit(blind, cfg.K, gamma=gamma, restarts=cfg.restarts, rng=rng,
                           normalize=cfg.normalize)
            return fit, {"gamma": gamma, "alpha_hat": None}
        fit = baselines.gdm(blind, cfg.K, gamma=gamma, restarts=cfg.restarts, rng=rng,
                            normalize=cfg.normalize, method_tag=method)
        return fit, {"gamma": gamma, "alpha_hat": None}
    if method == "vlad_alpha":
        fit = vlad.fit_auto(blind, cfg.K, gamma_fn, alpha_search=tuple(cfg.alpha_search),
                            restarts=cfg.restarts, rng=rng, normalize=cfg.normalize)
        return fit, {"gamma": fit.gamma, "alpha_hat": fit.alpha}
    if method == "spa":
        fit = baselines.spa(blind, cfg.K, normalize=cfg.normalize)
        return fit, {"gamma": None, "alpha_hat": None}
    if method.startswith("external:"):
        path = method.split(":", 1)[1]
        vertices = baselines.load_vertices(path)
        if vertices.shape != (data.dim, cfg.K):
            raise ConfigError(
                f"external vertices at {path} have shape {vertices.shape}, expected {(data.dim, cfg.K)}"
            )
        fit = baselines.BaselineFit(vertices=vertices, method_tag=method, meta={"path": path})
        return fit, {"gamma": None, "alpha_hat": None}
    raise ConfigError(f"unknown method {method!r}")


def _method_dirname(method: str) -> str:
    return method.replace(":", "_").replace("/", "_")


def _alpha_label(alpha) -> str:
    if isinstance(alpha, (list, tuple, np.ndarray)):
        return "|".join(format_float(a) for a in alpha)
    return format_float(alpha)


def _cell_dirname(n: int, c_min: float, alpha) -> str:
    return f"n{n}_c{format_float(c_min)}_a{_alpha_label(alpha)}"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def _write_rows_csv(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def _run_cell(cfg, gamma_fn, run_root, seed, i_n, i_c, i_a) -> list[dict]:
    """Generate one dataset cell, run every method, return result rows."""
    n = int(cfg.n[i_n])
    c_min = float(cfg.c_min[i_c])
    alpha = cfg.alpha[i_a]
    model = build_model(cfg, seed, c_min, i_c, alpha)
    data = generate(model, n, _rng(seed, i_n, i_c, i_a, _SALT_DATA))
    heldout = None
    if cfg.n_heldout > 0:
        heldout = generate(model, cfg.n_heldout, _rng(seed, i_n, i_c, i_a, _SALT_HELDOUT))

    rows = []
    for j, method in enumerate(cfg.methods):
        base = {
            "kernel": cfg.kernel, "D": cfg.D, "K": cfg.K,
            "alpha": _alpha_label(alpha), "n": n, "c_min": c_min,
            "seed": seed, "method": method,
        }
        cell_dir = run_root / f"s{seed}" / _cell_dirname(n, c_min, alpha) / _method_dirname(method)
        try:
            rng = _rng(seed, i_n, i_c, i_a, j, _SALT_FIT)
            started = time.perf_counter()
            fit, info = run_method(method, data, cfg, gamma_fn, alpha, rng)
            elapsed = time.perf_counter() - started
            report = evaluate_fit(
                fit, dataset=data, heldout=heldout,
                metrics=tuple(cfg.metrics), wall_time_s=elapsed,
                normalize=cfg.normalize,
            )
            if isinstance(fit, vlad.VladFit):
                vlad.save_fit(fit, cell_dir, seed=seed)
            else:
                baselines.save_baseline(fit, cell_dir, seed=seed)
            with open(cell_dir / "eval.json", "w") as fh:
                json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            rows.append({
                **base, "status": "ok",
                "gamma": info.get("gamma"), "alpha_hat": info.get("alpha_hat"),
                "mm_distance": report.mm_distance, "mm_frobenius": report.mm_frobenius,
                "volume": report.volume, "frobenius_heldout": report.frobenius_heldout,
                "nll": report.nll, "perplexity": report.perplexity,
                "_wall_time_s": elapsed,
            })
        except Exception as exc:  # record the failure, keep sweeping
            rows.append({**base, "status": f"error({type(exc).__name__})"})
    return rows


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Sweep the config grid; write results.csv and per-figure CSVs.

    Returns the run root directory. Cells execute in a thread pool of
    ``cfg.workers``; output is identical for any worker count.
    """
    cfg = cfg.resolved()
    run_root = Path(cfg.out) / cfg.config_hash()
    gamma_fn, lo, hi = quadrature_gamma, float(cfg.gamma_grid[0]), float(cfg.gamma_grid[1])
    if cfg.gamma_table:
        gamma_fn = load_gamma_table(cfg.gamma_table, cfg.K)
        lo, hi = gamma_fn.alpha_min, gamma_fn.alpha_max
    scientific = cfg.scientific_dict()
    cfg = _clamped_search(cfg, lo, hi)
    run_root.mkdir(parents=True, exist_ok=True)
    with open(run_root / "config.json", "w") as fh:
        json.dump(scientific, fh, indent=2, sort_keys=True)
        fh.write("\n")

    cells = [
        (seed, i_n, i_c, i_a)
        for i_n in range(len(cfg.n))
        for i_c in range(len(cfg.c_min))
        for i_a in range(len(cfg.alpha))
        for seed in cfg.seeds
    ]
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            cell_rows = list(pool.map(lambda c: _run_cell(cfg, gamma_fn, run_root, *c), cells))
    else:
        cell_rows = [_run_cell(cfg, gamma_fn, run_root, *cell) for cell in cells]

    rows = [row for group in cell_rows for row in group]
    method_order = {m: i for i, m in enumerate(cfg.methods)}
    rows.sort(key=lambda r: (r["n"], r["c_min"], r["alpha"], r["seed"], method_order[r["method"]]))

    timing_rows = [r for r in rows if "_wall_time_s" in r]
    _write_rows_csv(
        run_root / "timings.csv",
        ("kernel", "n", "c_min", "alpha", "seed", "method", "_wall_time_s"),
        timing_rows,
    )
    for r in rows:
        r.pop("_wall_time_s", None)
    _write_rows_csv(run_root / "results.csv", RESULT_COLUMNS, rows)
    _write_figure_csvs(cfg, rows, run_root)
    return run_root


def _write_figure_csvs(cfg: ExperimentConfig, rows: list[dict], run_root: Path) -> None:
    """One summary CSV per swept axis: columns x, method, mean, half_sd."""
    axes = {"n": cfg.n, "c_min": cfg.c_min, "alpha": cfg.alpha}
    swept = [name for name, values in axes.items() if len(values) > 1]
    if not swept or "mm" not in cfg.metrics:
        return
    for axis in swept:
        out_rows = []
        for x in axes[axis]:
            x_label = _alpha_label(x) if axis == "alpha" else x
            for method in cfg.methods:
                vals = [
                    r["mm_distance"]
                    for r in rows
                    if r["method"] == method and r["status"] == "ok"
                    and r[axis] == (x_label if axis == "alpha" else x)
                    and r["mm_distance"] is not None
                ]
                if not vals:
                    continue
                arr = np.asarray(vals, dtype=float)
                half_sd = float(arr.std(ddof=1) / 2.0) if arr.size > 1 else 0.0
                out_rows.append({
                    "x": x_label, "method": method,
                    "mean": float(arr.mean()), "half_sd": half_sd,
                })
        _write_rows_csv(run_root / f"figure_mm_by_{axis}.csv", ("x", "method", "mean", "half_sd"), out_rows)


def cmd_generate(cfg: ExperimentConfig) -> list[Path]:
    """Write one dataset directory (CSV + truth sidecar) per seed.

    Generation defaults follow the full simulation protocol (D = 500,
    n = 10000, multinomial D = 2000) regardless of the desk-scale flag.
    """
    if cfg.seeds is None:
        cfg = replace(cfg, seeds=[0])
    cfg = replace(cfg, paper_scale=True).resolved()
    out = Path(cfg.out)
    written = []
    for i_n in range(len(cfg.n)):
        for i_c in range(len(cfg.c_min)):
            for i_a in range(len(cfg.alpha)):
                for seed in cfg.seeds:
                    n = int(cfg.n[i_n])
                    c_min = float(cfg.c_min[i_c])
                    alpha = cfg.alpha[i_a]
                    model = build_model(cfg, seed, c_min, i_c, alpha)
                    data = generate(model, n, _rng(seed, i_n, i_c, i_a, _SALT_DATA))
                    name = f"data_{cfg.kernel}_{_cell_dirname(n, c_min, alpha)}_s{seed}"
                    written.append(save_dataset(data, out / name))
    return written


def cmd_fit(
    data_dir: str | Path,
    method: str,
    out_dir: str | Path,
    K: int | None = None,
    gamma: float | None = None,
    gamma_table: str | None = None,
    alpha: float | None = None,
    alpha_search: tuple[float, float] = (0.02, 10.0),
    restarts: int = 8,
    seed: int = 0,
    normalize: bool = True,
) -> Path:
    """Fit one method on a saved dataset; write a fit directory.

    ``gamma`` may be given directly for the known-alpha methods, and is a
    ConfigError for ``vlad_alpha``, which estimates it; otherwise
    gamma(K, alpha) comes from the saved ``gamma_table``, whose alpha range
    also clamps ``alpha_search``, or else from the exact quadrature.
    """
    if alpha is not None and not alpha > 0:
        raise ConfigError("need alpha > 0")
    if gamma is not None and method == "vlad_alpha":
        raise ConfigError("method 'vlad_alpha' estimates gamma; drop --gamma")
    data = load_dataset(data_dir)
    if K is None:
        if data.truth is None:
            raise ConfigError("K is required when the dataset has no truth block")
        K = data.truth.simplex.n_vertices
    cfg = ExperimentConfig(
        kernel=data.kernel.name,
        sigma=data.kernel.sigma or 1.0,
        trials=data.kernel.trials or 500,
        D=data.dim, K=K, restarts=restarts, normalize=normalize,
        alpha_search=list(alpha_search),
    ).resolved()
    gamma_fn = quadrature_gamma
    if method in ("vlad", "gdm", "gdm_mc", "vlad_alpha"):
        if gamma is not None:
            gamma_fn = lambda K, a: gamma
        elif gamma_table is not None:
            gamma_fn = load_gamma_table(gamma_table, K)
            cfg = _clamped_search(cfg, gamma_fn.alpha_min, gamma_fn.alpha_max)
        if method != "vlad_alpha" and gamma is None and alpha is None:
            raise ConfigError(f"method {method!r} needs --alpha (or an explicit --gamma)")
    rng = _rng(seed, _SALT_FIT)
    started = time.perf_counter()
    fit, info = run_method(method, data, cfg, gamma_fn, alpha, rng)
    elapsed = time.perf_counter() - started
    out_dir = Path(out_dir)
    if isinstance(fit, vlad.VladFit):
        vlad.save_fit(fit, out_dir, seed=seed)
    else:
        baselines.save_baseline(fit, out_dir, seed=seed)
    with open(out_dir / "meta.json") as fh:
        meta = json.load(fh)
    meta["method"] = method
    meta["wall_time_s"] = elapsed
    meta.update({k: v for k, v in info.items() if v is not None})
    if method == "vlad_alpha":
        meta.update(_alpha_report(fit, data, cfg, gamma_fn, out_dir))
    with open(out_dir / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


def _alpha_report(fit, data: Dataset, cfg: ExperimentConfig, gamma_fn: Callable, out_dir: Path) -> dict:
    """Objective value at alpha_hat, the noise-variance estimate when one
    was used, and the objective curve over cfg.alpha_search as grid_curve.csv."""
    from .alpha_est import corrected_covariance, gmm_objective

    target = corrected_covariance(data, cfg.K, normalize=cfg.normalize)
    grid = np.geomspace(*cfg.alpha_search, 64)
    values = gmm_objective(fit, target, gamma_fn, grid)
    lines = ["alpha,objective"]
    lines += [f"{format_float(a)},{format_float(v)}" for a, v in zip(grid, values)]
    (out_dir / "grid_curve.csv").write_text("\n".join(lines) + "\n")
    report = {"objective_value": float(gmm_objective(fit, target, gamma_fn, fit.alpha)[0])}
    if "sigma2_hat" in target.correction_meta:
        report["sigma2_hat"] = target.correction_meta["sigma2_hat"]
    return report


def cmd_eval(
    fit_dir: str | Path,
    data_dir: str | Path,
    metrics: tuple[str, ...] = ("mm", "volume"),
    heldout_dir: str | Path | None = None,
    results_csv: str | Path | None = None,
    normalize: bool = True,
) -> dict:
    """Score a fit directory against a dataset's truth sidecar."""
    vertices = baselines.load_vertices(Path(fit_dir))
    data = load_dataset(data_dir)
    heldout = load_dataset(heldout_dir) if heldout_dir else None
    report = evaluate_fit(vertices, dataset=data, heldout=heldout,
                          metrics=tuple(metrics), normalize=normalize)
    out = report.to_dict()
    with open(Path(fit_dir) / "eval.json", "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if results_csv is not None:
        results_csv = Path(results_csv)
        columns = ("fit_dir", "data_dir", "mm_distance", "mm_frobenius",
                   "volume", "frobenius_heldout", "nll", "perplexity")
        row = {
            "fit_dir": str(fit_dir), "data_dir": str(data_dir),
            "mm_distance": report.mm_distance, "mm_frobenius": report.mm_frobenius,
            "volume": report.volume, "frobenius_heldout": report.frobenius_heldout,
            "nll": report.nll, "perplexity": report.perplexity,
        }
        line = ",".join(_format_cell(row.get(c)) for c in columns)
        if not results_csv.exists():
            results_csv.write_text(",".join(columns) + "\n" + line + "\n")
        else:
            with open(results_csv, "a") as fh:
                fh.write(line + "\n")
    return out


def cmd_alpha_curve(
    K: int = 10,
    grid: tuple[float, float, int] = (0.1, 5.0, 40),
    out_path: str | Path = "alpha_curve.csv",
) -> Path:
    """Tabulate the exact gamma(alpha) and the moment ratio varphi over a log grid."""
    if K < 2:
        raise ConfigError("K must be >= 2")
    lo, hi, npts = float(grid[0]), float(grid[1]), int(grid[2])
    if not (0 < lo < hi) or npts < 2:
        raise ConfigError("grid must be (lo, hi, n_points) with 0 < lo < hi, n_points >= 2")
    alphas = np.geomspace(lo, hi, npts)
    out_path = Path(out_path)
    lines = ["alpha,gamma,varphi"]
    for a, g in zip(alphas, quadrature_gamma(K, alphas)):
        lines.append(f"{format_float(a)},{format_float(g)},{format_float(varphi(K, a, g))}")
    out_path.write_text("\n".join(lines) + "\n")
    return out_path


def cmd_gamma_table(
    K: int,
    grid: tuple[float, float, int] = (0.02, 10.0, 40),
    m: int = 100_000,
    seed: int = 7,
    out_path: str | Path = "gamma_table.json",
    restarts: int = 8,
    workers: int | None = None,
) -> Path:
    """Build and save a gamma lookup table by the paper's Monte-Carlo protocol."""
    if K < 2 or m < K:
        raise ConfigError("need K >= 2 and m >= K Monte Carlo samples")
    lo, hi, npts = float(grid[0]), float(grid[1]), int(grid[2])
    if not (0 < lo < hi) or npts < 1:
        raise ConfigError("grid must be (lo, hi, n_points) with 0 < lo < hi, n_points >= 1")
    alphas = np.geomspace(lo, hi, npts) if npts > 1 else np.asarray([lo])
    table = build_gamma_table(K, alphas, m=m, seed=seed, restarts=restarts, workers=workers)
    table.save(out_path)
    return Path(out_path)
