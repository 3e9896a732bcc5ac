"""Experiment harness: config resolution, dataset/fit/eval commands, and
deterministic sweep execution writing plot-ready CSVs.

A run directory is laid out as ``<out>/<config-hash>/s<seed>/<cell>/<method>/``
with ``results.csv`` at the run root. ``_cells`` lists the grid for both the
sweep and ``cmd_generate``. Every per-cell random stream is derived from
(seed, cell index), and rows are sorted canonically before writing, so
results.csv is byte-identical regardless of worker count. Wall times are
kept out of results.csv for the same reason; they live in the fit meta.json
files and in timings.csv. A config field of the wrong type or value is a
ConfigError from ``resolved()``.

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
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, vlad
from ._matrix_io import format_float, write_json
from .alpha_est import _check_correction, _phi_star, _reduced_moments
from .extension import GammaTable, build_gamma_table, quadrature_gamma, varphi
from .metrics import HELDOUT_METRICS, METRIC_NAMES, evaluate_fit
from .model import (
    KERNEL_NAMES,
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
KNOWN_ALPHA_METHODS = ("vlad", "gdm", "gdm_mc")  # gamma from a known, symmetric alpha
# A log-spaced alpha grid is a table for a person to read or a gamma
# calibration; far beyond 40 points it is a typo that would exhaust memory.
GRID_MAX_POINTS = 10_000

# Salts separating the random streams derived from (seed, cell).
_SALT_VERTICES = 11
_SALT_SKEW = 13
_SALT_DATA = 17
_SALT_HELDOUT = 19
_SALT_FIT = 23

SCORE_COLUMNS = ("mm_distance", "mm_frobenius", "volume", "frobenius_heldout", "nll", "perplexity")
RESULT_COLUMNS = ("kernel", "D", "K", "alpha", "n", "c_min", "seed", "method", "status",
                  "gamma", "alpha_hat", *SCORE_COLUMNS)


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
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        """CLI flags override JSON fields; None values are skipped."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return self.from_dict({**asdict(self), **updates})

    def resolved(self) -> "ExperimentConfig":
        """Fill scale-dependent defaults; any value the run would fail on or ignore is a ConfigError."""
        cfg = replace(self)
        if cfg.kernel not in KERNEL_NAMES:
            raise ConfigError(f"unknown kernel {cfg.kernel!r}")
        for name in ("normalize", "paper_scale"):
            if not isinstance(getattr(cfg, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(cfg, name)!r}")
        for name in ("trials", "restarts", "n_heldout", "workers"):
            _require_numbers(name, [getattr(cfg, name)], integer=True)
        _require_numbers("sigma", [cfg.sigma])
        _require_k(cfg.K)
        for name, least in (("restarts", 1), ("n_heldout", 0), ("workers", 1)):
            if getattr(cfg, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if cfg.D is None:
            if cfg.paper_scale:
                cfg.D = 2000 if cfg.kernel == "multinomial" else 500
            else:
                cfg.D = 200 if cfg.kernel == "multinomial" else 100
        _require_numbers("D", [cfg.D], integer=True)
        # K affinely independent vertices need K - 1 dimensions, or K on the probability simplex
        least_d = cfg.K if cfg.kernel == "multinomial" else cfg.K - 1
        if cfg.D < least_d:
            raise ConfigError(f"D must be >= {least_d} for K = {cfg.K} {cfg.kernel} vertices")
        if cfg.seeds is None:
            cfg.seeds = list(range(20 if cfg.paper_scale else 10))
        for name in ("alpha", "n", "c_min"):
            value = getattr(cfg, name)
            if not isinstance(value, list):
                setattr(cfg, name, [value])
        _require_numbers("n", cfg.n, integer=True)
        _require_numbers("c_min", cfg.c_min)
        _require_numbers("seeds", cfg.seeds, integer=True)
        if not all(n >= 1 for n in cfg.n):
            raise ConfigError(f"n must be >= 1, got {cfg.n}")
        if not all(0 < c <= 1 for c in cfg.c_min):
            raise ConfigError(f"c_min must lie in (0, 1], got {cfg.c_min}")
        if not all(s >= 0 for s in cfg.seeds):
            raise ConfigError(f"seeds must be >= 0, got {cfg.seeds}")
        for a in cfg.alpha:
            entries = a if isinstance(a, (list, tuple)) else [a]
            _require_numbers("alpha", entries)
            if not all(0 < v < np.inf for v in entries):
                raise ConfigError(f"alpha entries must be finite and > 0, got {a!r}")
            if isinstance(a, (list, tuple)) and len(a) != cfg.K:
                raise ConfigError(f"an asymmetric alpha needs K = {cfg.K} entries, got {a!r}")
        _require_numbers("alpha_search", cfg.alpha_search)
        for name in ("methods", "metrics"):
            if not isinstance(getattr(cfg, name), (list, tuple)):
                raise ConfigError(f"{name} must be a list of names")
        if len(set(map(int, cfg.seeds))) != len(cfg.seeds):
            raise ConfigError("seeds must be distinct")
        for m in cfg.methods:
            if not (m in KNOWN_METHODS or str(m).startswith("external:")):
                raise ConfigError(f"unknown method {m!r}")
        for m in cfg.metrics:
            if m not in METRIC_NAMES:
                raise ConfigError(f"unknown metric {m!r}")
        if any(isinstance(a, (list, tuple)) for a in cfg.alpha):
            bad = set(KNOWN_ALPHA_METHODS).intersection(cfg.methods)
            if bad:
                raise ConfigError(
                    f"methods {sorted(bad)} need a symmetric (scalar) alpha; "
                    "asymmetric runs support vlad_alpha and spa only"
                )
        if set(HELDOUT_METRICS).intersection(cfg.metrics) and cfg.n_heldout < 1:
            raise ConfigError("heldout/likelihood metrics require n_heldout >= 1")
        if cfg.kernel == "gaussian" and not 0 < cfg.sigma < np.inf:
            raise ConfigError("sigma must be finite and > 0")
        if cfg.kernel == "multinomial" and cfg.trials < 2:
            raise ConfigError("multinomial trials must be >= 2")
        if "vlad_alpha" in cfg.methods:
            try:
                _check_correction(_kernel_from_config(cfg), cfg.D, cfg.K, cfg.normalize)
            except ValueError as exc:
                raise ConfigError(f"vlad_alpha: {exc}") from exc
        s = cfg.alpha_search
        if len(s) != 2 or not 0 < s[0] < s[1] < np.inf:
            raise ConfigError("alpha_search must be [lo, hi] with 0 < lo < hi < inf")
        _log_grid("gamma_grid", cfg.gamma_grid)
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


def _require_numbers(name: str, values, integer: bool = False) -> None:
    """ConfigError unless ``values`` is a list of numbers (of integers if asked)."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if not (isinstance(values, (list, tuple))
            and all(isinstance(v, kinds) and not isinstance(v, bool) for v in values)):
        kind = "integers" if integer else "numbers"
        raise ConfigError(f"{name} must hold {kind}, got {values!r}")


def _require_k(K) -> None:
    """ConfigError unless K is an integer >= 2."""
    _require_numbers("K", [K], integer=True)
    if K < 2:
        raise ConfigError("K must be >= 2")


def _log_grid(name: str, grid) -> tuple[float, float, int]:
    """(lo, hi, n_points) of a log-spaced alpha grid; ConfigError unless
    0 < lo < hi < inf and n_points is a whole number in [1, GRID_MAX_POINTS]."""
    _require_numbers(name, grid)
    if (len(grid) != 3 or not 0 < grid[0] < grid[1] < np.inf
            or not (float(grid[2]).is_integer() and 1 <= grid[2] <= GRID_MAX_POINTS)):
        raise ConfigError(f"{name} must be (lo, hi, n_points) with 0 < lo < hi < inf, "
                          f"whole n_points in [1, {GRID_MAX_POINTS}]")
    return float(grid[0]), float(grid[1]), int(grid[2])


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


def _gamma_and_search(cfg: ExperimentConfig, gamma: float | None = None) -> tuple[Callable, ExperimentConfig]:
    """gamma(K, alpha) for a run, and cfg with alpha_search clamped to its alpha range.

    A fixed ``gamma`` is used as given (nothing searches alpha then); else the
    saved cfg.gamma_table, whose every defect is a ConfigError, or the exact
    quadrature over gamma_grid's [lo, hi].
    """
    if gamma is not None:
        return (lambda K, alpha: gamma), cfg
    gamma_fn, lo, hi = quadrature_gamma, float(cfg.gamma_grid[0]), float(cfg.gamma_grid[1])
    if cfg.gamma_table:
        try:
            gamma_fn = GammaTable.load(cfg.gamma_table)
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot read gamma table {cfg.gamma_table}: {exc}") from exc
        if gamma_fn.K != cfg.K:
            raise ConfigError(f"gamma table K = {gamma_fn.K} does not match K = {cfg.K}")
        lo, hi = gamma_fn.alpha_min, gamma_fn.alpha_max
    s_lo, s_hi = max(float(cfg.alpha_search[0]), lo), min(float(cfg.alpha_search[1]), hi)
    if not s_lo < s_hi:
        raise ConfigError(f"alpha_search {cfg.alpha_search} is outside gamma's alpha range [{lo}, {hi}]")
    return gamma_fn, replace(cfg, alpha_search=[s_lo, s_hi])


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
    if method in KNOWN_ALPHA_METHODS:
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


class _Cell(NamedTuple):
    """One grid point; its first four fields key the cell's random streams."""

    seed: int
    i_n: int
    i_c: int
    i_a: int
    n: int
    c_min: float
    alpha: object


def _cell_dirname(cell: _Cell) -> str:
    return f"n{cell.n}_c{format_float(cell.c_min)}_a{_alpha_label(cell.alpha)}"


def _cells(cfg: ExperimentConfig) -> list[_Cell]:
    """The grid in sweep order: n, then c_min, then alpha, then seed."""
    return [
        _Cell(seed, i_n, i_c, i_a, int(n), float(c_min), alpha)
        for i_n, n in enumerate(cfg.n)
        for i_c, c_min in enumerate(cfg.c_min)
        for i_a, alpha in enumerate(cfg.alpha)
        for seed in cfg.seeds
    ]


def _cell_data(cfg: ExperimentConfig, cell: _Cell) -> tuple[SimplexNest, Dataset]:
    """The cell's generating model and its n observations."""
    model = build_model(cfg, cell.seed, cell.c_min, cell.i_c, cell.alpha)
    return model, generate(model, cell.n, _rng(*cell[:4], _SALT_DATA))


def _save(fit, out_dir: Path, seed: int, **meta) -> None:
    """Write the fit directory; ``meta`` entries are added to its meta.json."""
    save = vlad.save_fit if isinstance(fit, vlad.VladFit) else baselines.save_baseline
    save(fit, out_dir, seed=seed, **meta)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


def _csv_line(columns: tuple[str, ...], row: dict) -> str:
    return ",".join(_format_cell(row.get(c)) for c in columns)


def _write_rows_csv(path: Path, columns: tuple[str, ...], rows: list[dict]) -> None:
    lines = [",".join(columns), *(_csv_line(columns, row) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


def _run_cell(cfg, gamma_fn, run_root, cell: _Cell) -> list[dict]:
    """Generate one dataset cell, run every method, return result rows."""
    model, data = _cell_data(cfg, cell)
    heldout = None
    if cfg.n_heldout > 0:
        heldout = generate(model, cfg.n_heldout, _rng(*cell[:4], _SALT_HELDOUT))

    rows = []
    for j, method in enumerate(cfg.methods):
        base = {
            "kernel": cfg.kernel, "D": cfg.D, "K": cfg.K,
            "alpha": _alpha_label(cell.alpha), "n": cell.n, "c_min": cell.c_min,
            "seed": cell.seed, "method": method,
        }
        cell_dir = run_root / f"s{cell.seed}" / _cell_dirname(cell) / _method_dirname(method)
        try:
            rng = _rng(*cell[:4], j, _SALT_FIT)
            started = time.perf_counter()
            fit, info = run_method(method, data, cfg, gamma_fn, cell.alpha, rng)
            elapsed = time.perf_counter() - started
            _save(fit, cell_dir, cell.seed)
            report = evaluate_fit(
                fit, dataset=data, heldout=heldout,
                metrics=tuple(cfg.metrics), wall_time_s=elapsed,
                normalize=cfg.normalize,
            ).to_dict()
            write_json(cell_dir / "eval.json", report)
            rows.append({**base, "status": "ok", **info, **report, "_wall_time_s": elapsed})
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
    scientific = cfg.scientific_dict()
    gamma_fn, cfg = _gamma_and_search(cfg)
    run_root.mkdir(parents=True, exist_ok=True)
    write_json(run_root / "config.json", scientific)

    cells = _cells(cfg)
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            cell_rows = list(pool.map(lambda c: _run_cell(cfg, gamma_fn, run_root, c), cells))
    else:
        cell_rows = [_run_cell(cfg, gamma_fn, run_root, cell) for cell in cells]

    rows = [row for group in cell_rows for row in group]
    method_order = {m: i for i, m in enumerate(cfg.methods)}
    rows.sort(key=lambda r: (r["n"], r["c_min"], r["alpha"], r["seed"], method_order[r["method"]]))

    timing_rows = [r for r in rows if "_wall_time_s" in r]
    _write_rows_csv(
        run_root / "timings.csv",
        ("kernel", "n", "c_min", "alpha", "seed", "method", "_wall_time_s"),
        timing_rows,
    )
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
                    and r[axis] == x_label
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
    written = []
    for cell in _cells(cfg):
        name = f"data_{cfg.kernel}_{_cell_dirname(cell)}_s{cell.seed}"
        written.append(save_dataset(_cell_data(cfg, cell)[1], Path(cfg.out) / name))
    return written


def cmd_fit(
    data_dir: str | Path,
    method: str,
    out_dir: str | Path,
    K: int | None = None,
    gamma: float | None = None,
    gamma_table: str | None = None,
    alpha: float | None = None,
    alpha_search: tuple[float, float] | None = None,
    restarts: int | None = None,
    seed: int | None = None,
    normalize: bool = True,
) -> Path:
    """Fit one method on a saved dataset; write a fit directory.

    The known-alpha methods take ``gamma`` directly, or else gamma(K, alpha)
    from the saved ``gamma_table``, whose alpha range also clamps
    ``alpha_search``, or from the exact quadrature. A value the method ignores
    is a ConfigError: ``vlad_alpha`` estimates gamma and alpha, only it
    searches alpha, and ``spa`` and ``external:`` use neither gamma nor the
    K-means ``restarts`` and ``seed``. Left at None, ``alpha_search`` and
    ``restarts`` take the ExperimentConfig defaults and ``seed`` is 0.
    """
    data = load_dataset(data_dir)
    if K is None:
        if data.truth is None:
            raise ConfigError("K is required when the dataset has no truth block")
        K = data.truth.simplex.n_vertices
    defaults = ExperimentConfig()
    search = defaults.alpha_search if alpha_search is None else list(alpha_search)
    cfg = ExperimentConfig(
        kernel=data.kernel.name,
        sigma=data.kernel.sigma or 1.0,
        trials=data.kernel.trials or 500,
        D=data.dim, K=K, methods=[method], normalize=normalize, gamma_table=gamma_table,
        restarts=defaults.restarts if restarts is None else restarts, alpha_search=search,
        gamma_grid=[*search, 2],  # the quadrature covers every alpha: only a table clamps
    ).resolved()
    for name, value in (("alpha", alpha), ("gamma", gamma)):
        if value is not None and not 0 < value < np.inf:
            raise ConfigError(f"{name} must be finite and > 0")
    if method == "vlad_alpha" and (gamma, alpha) != (None, None):
        raise ConfigError("method 'vlad_alpha' estimates gamma and alpha; drop --gamma and --alpha")
    if method not in (*KNOWN_ALPHA_METHODS, "vlad_alpha") and (gamma, alpha, gamma_table) != (None,) * 3:
        raise ConfigError(f"method {method!r} uses no gamma; drop --gamma, --alpha and --gamma-table")
    if gamma is not None and gamma_table is not None:
        raise ConfigError("give --gamma or --gamma-table, not both")
    if method in KNOWN_ALPHA_METHODS and gamma is None and alpha is None:
        raise ConfigError(f"method {method!r} needs --alpha (or an explicit --gamma)")
    if alpha_search is not None and method != "vlad_alpha":
        raise ConfigError(f"method {method!r} searches no alpha; drop --alpha-search")
    if (restarts, seed) != (None, None) and method not in (*KNOWN_ALPHA_METHODS, "vlad_alpha"):
        raise ConfigError(f"method {method!r} runs no K-means; drop --restarts and --seed")
    seed = 0 if seed is None else seed
    gamma_fn, cfg = _gamma_and_search(cfg, gamma)
    started = time.perf_counter()
    fit, info = run_method(method, data, cfg, gamma_fn, alpha, _rng(seed, _SALT_FIT))
    elapsed = time.perf_counter() - started
    out_dir = Path(out_dir)
    meta = {"method": method, "wall_time_s": elapsed, **{k: v for k, v in info.items() if v is not None}}
    if method == "vlad_alpha":
        out_dir.mkdir(parents=True, exist_ok=True)
        meta.update(_alpha_report(fit, data, cfg, gamma_fn, out_dir))
    _save(fit, out_dir, seed, **meta)
    return out_dir


def _alpha_report(fit, data: Dataset, cfg: ExperimentConfig, gamma_fn: Callable, out_dir: Path) -> dict:
    """phi* = <A,T>/<A,A>, which phi(alpha_hat) matches, the noise-variance
    estimate when one was used, and grid_curve.csv over cfg.alpha_search.

    The curve is the excess mismatch sqrt(<A,A>) |phi(alpha) - phi*|, whose
    square is ||phi A - T||_F^2 less its phi-free floor ||T||_F^2 -
    <A,T>^2/<A,A>; only that floor needs a D x D matrix.
    """
    aa, at = _reduced_moments(fit, data.kernel)
    phi_star = _phi_star(aa, at)
    grid = np.geomspace(*cfg.alpha_search, 64)
    excess = [np.sqrt(aa) * abs(varphi(cfg.K, a, gamma_fn(cfg.K, a)) - phi_star) for a in grid]
    _write_rows_csv(out_dir / "grid_curve.csv", ("alpha", "excess_mismatch"),
                    [{"alpha": a, "excess_mismatch": v} for a, v in zip(grid, excess)])
    return {"phi_star": phi_star, **({} if fit.sigma2_hat is None else {"sigma2_hat": fit.sigma2_hat})}


def cmd_eval(
    fit_dir: str | Path,
    data_dir: str | Path,
    metrics: tuple[str, ...] = ("mm", "volume"),
    heldout_dir: str | Path | None = None,
    results_csv: str | Path | None = None,
    normalize: bool = True,
) -> dict:
    """Score a fit directory against a dataset's truth sidecar.

    With ``results_csv``, append one row to it; a file whose header is not
    the eval columns is a ConfigError and is left untouched.
    """
    if not heldout_dir and set(HELDOUT_METRICS).intersection(metrics):
        raise ConfigError("the heldout and likelihood metrics need a held-out dataset (--heldout)")
    columns = ("fit_dir", "data_dir", *SCORE_COLUMNS)
    header = ",".join(columns)
    if results_csv is not None and Path(results_csv).exists():
        with open(results_csv) as fh:
            if fh.readline().rstrip("\n") != header:
                raise ConfigError(f"{results_csv} does not start with the eval header {header!r}")
    vertices = baselines.load_vertices(Path(fit_dir))
    data = load_dataset(data_dir)
    heldout = load_dataset(heldout_dir) if heldout_dir else None
    out = evaluate_fit(vertices, dataset=data, heldout=heldout,
                       metrics=tuple(metrics), normalize=normalize).to_dict()
    write_json(Path(fit_dir) / "eval.json", out)
    if results_csv is not None:
        row = {**out, "fit_dir": str(fit_dir), "data_dir": str(data_dir)}
        with open(results_csv, "a") as fh:
            if fh.tell() == 0:  # a new file
                fh.write(header + "\n")
            fh.write(_csv_line(columns, row) + "\n")
    return out


def cmd_alpha_curve(
    K: int = 10,
    grid: tuple[float, float, int] = (0.1, 5.0, 40),
    out_path: str | Path = "alpha_curve.csv",
) -> Path:
    """Tabulate the exact gamma(alpha) and the moment ratio varphi over a log grid."""
    _require_k(K)
    alphas = np.geomspace(*_log_grid("grid", grid))
    rows = [{"alpha": a, "gamma": g, "varphi": varphi(K, a, g)}
            for a, g in zip(alphas, quadrature_gamma(K, alphas))]
    _write_rows_csv(Path(out_path), ("alpha", "gamma", "varphi"), rows)
    return Path(out_path)


def cmd_gamma_table(
    K: int,
    grid: tuple[float, float, int] = (0.02, 10.0, 40),
    m: int = 100_000,
    seed: int = 7,
    out_path: str | Path = "gamma_table.json",
    restarts: int = 8,
    workers: int | None = None,
) -> Path:
    """Build and save a gamma lookup table by the paper's Monte-Carlo protocol.

    A value the build would fail on or ignore is a ConfigError, as in
    ``ExperimentConfig.resolved``; ``workers`` left at None takes the
    thread pool's default.
    """
    _require_k(K)
    if m < K:
        raise ConfigError("need m >= K Monte Carlo samples")
    for name, value, least in (("seed", seed, 0), ("restarts", restarts, 1), ("workers", workers, 1)):
        if value is not None:
            _require_numbers(name, [value], integer=True)
            if value < least:
                raise ConfigError(f"{name} must be >= {least}")
    alphas = np.geomspace(*_log_grid("grid", grid))
    table = build_gamma_table(K, alphas, m=m, seed=seed, restarts=restarts, workers=workers)
    table.save(out_path)
    return Path(out_path)
