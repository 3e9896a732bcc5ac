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

The alpha-aware methods take gamma(K, alpha) from the exact
``quadrature_gamma``, or ``cmd_fit``'s fixed ``gamma``. A sweep searches
alpha over ``alpha_search`` clamped to the [lo, hi] of ``gamma_grid``;
``cmd_fit`` searches ``alpha_search`` as given.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import baselines, vlad
from ._matrix_io import format_float, write_json
from .alpha_est import _check_correction, _phi_star, _reduced_moments
from .extension import GAMMA_ALPHA_MIN, quadrature_gamma, varphi
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
# A log-spaced alpha grid is a table for a person to read; far beyond 40
# points it is a typo that would exhaust memory.
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
    # only [lo, hi] is read, to clamp a sweep's alpha_search; the benchmark's
    # desk config still passes a whole grid
    gamma_grid: list = field(default_factory=lambda: [0.02, 10.0, 40])
    gamma_m: int | None = None  # read by nothing; the benchmark's desk config still passes it
    restarts: int = 8
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
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be a JSON object, got {data!r}")
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
        if not isinstance(cfg.paper_scale, bool):
            raise ConfigError(f"paper_scale must be true or false, got {cfg.paper_scale!r}")
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
        known_alpha = sorted(set(KNOWN_ALPHA_METHODS).intersection(cfg.methods))
        if known_alpha and any(isinstance(a, (list, tuple)) for a in cfg.alpha):
            raise ConfigError(
                f"methods {known_alpha} need a symmetric (scalar) alpha; "
                "asymmetric runs support vlad_alpha and spa only"
            )
        if known_alpha and min(cfg.alpha) < GAMMA_ALPHA_MIN:
            raise ConfigError(f"methods {known_alpha} take gamma at alpha >= GAMMA_ALPHA_MIN = "
                              f"{GAMMA_ALPHA_MIN:g}, got {min(cfg.alpha)!r}")
        if set(HELDOUT_METRICS).intersection(cfg.metrics) and cfg.n_heldout < 1:
            raise ConfigError("heldout/likelihood metrics require n_heldout >= 1")
        if cfg.kernel == "gaussian" and not 0 < cfg.sigma < np.inf:
            raise ConfigError("sigma must be finite and > 0")
        if cfg.kernel == "multinomial" and cfg.trials < 1:
            raise ConfigError("multinomial trials must be >= 1")
        if "vlad_alpha" in cfg.methods:
            try:
                _check_correction(_kernel_from_config(cfg), cfg.D, cfg.K)
            except ValueError as exc:
                raise ConfigError(f"vlad_alpha: {exc}") from exc
        s = cfg.alpha_search
        if len(s) != 2 or not GAMMA_ALPHA_MIN <= s[0] < s[1] < np.inf:
            raise ConfigError(f"alpha_search must be [lo, hi] with GAMMA_ALPHA_MIN = {GAMMA_ALPHA_MIN:g} "
                              "<= lo < hi < inf")
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


def run_method(
    method: str,
    data: Dataset,
    cfg: ExperimentConfig,
    alpha,
    rng: np.random.Generator,
    gamma: float | None = None,
):
    """Dispatch one estimator on truth-stripped data.

    Returns (vertices-bearing fit object, info dict). ``alpha`` is the
    generating concentration, used only as the known hyperparameter of the
    alpha-aware methods, which take gamma(K, alpha) from ``quadrature_gamma``
    unless a fixed ``gamma`` is given.
    """
    blind = data.without_truth()
    if method in KNOWN_ALPHA_METHODS:
        gamma = float(quadrature_gamma(cfg.K, alpha)) if gamma is None else gamma
        if method == "vlad":
            fit = vlad.fit(blind, cfg.K, gamma=gamma, restarts=cfg.restarts, rng=rng)
            return fit, {"gamma": gamma, "alpha_hat": None}
        fit = baselines.gdm(blind, cfg.K, gamma=gamma, restarts=cfg.restarts, rng=rng,
                            method_tag=method)
        return fit, {"gamma": gamma, "alpha_hat": None}
    if method == "vlad_alpha":
        fit = vlad.fit_auto(blind, cfg.K, alpha_search=tuple(cfg.alpha_search),
                            restarts=cfg.restarts, rng=rng)
        return fit, {"gamma": fit.gamma, "alpha_hat": fit.alpha}
    if method == "spa":
        fit = baselines.spa(blind, cfg.K)
        return fit, {"gamma": None, "alpha_hat": None}
    if method.startswith("external:"):
        path = method.split(":", 1)[1]
        try:
            vertices = baselines.load_vertices(path)
        except ValueError as exc:  # the file comes from outside the program, as in cmd_eval
            raise ConfigError(str(exc)) from exc
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


def _run_cell(cfg, run_root, cell: _Cell) -> list[dict]:
    """Generate one dataset cell, run every method, return result rows."""
    model, data = _cell_data(cfg, cell)
    blind = data.without_truth()  # validated once per cell; run_method leaves it as it is
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
            fit, info = run_method(method, blind, cfg, cell.alpha, rng)
            elapsed = time.perf_counter() - started
            _save(fit, cell_dir, cell.seed)
            report = evaluate_fit(
                fit, dataset=data, heldout=heldout,
                metrics=tuple(cfg.metrics), wall_time_s=elapsed,
            ).to_dict()
            write_json(cell_dir / "eval.json", report)
            rows.append({**base, "status": "ok", **info, **report, "_wall_time_s": elapsed})
        except Exception as exc:  # record the failure, keep sweeping
            rows.append({**base, "status": f"error({type(exc).__name__})"})
            cell_dir.mkdir(parents=True, exist_ok=True)
            write_json(cell_dir / "error.json", {"type": type(exc).__name__, "message": str(exc),
                                                 "traceback": traceback.format_exc()})
    return rows


def run_experiment(cfg: ExperimentConfig) -> Path:
    """Sweep the config grid; write results.csv and per-figure CSVs.

    Returns the run root directory. Cells execute in a thread pool of
    ``cfg.workers``; output is identical for any worker count.
    """
    cfg = cfg.resolved()
    run_root = Path(cfg.out) / cfg.config_hash()
    scientific = cfg.scientific_dict()
    lo, hi = float(cfg.gamma_grid[0]), float(cfg.gamma_grid[1])
    search = [max(float(cfg.alpha_search[0]), lo), min(float(cfg.alpha_search[1]), hi)]
    if not search[0] < search[1]:
        raise ConfigError(f"alpha_search {cfg.alpha_search} is outside gamma's alpha range [{lo}, {hi}]")
    cfg = replace(cfg, alpha_search=search)
    run_root.mkdir(parents=True, exist_ok=True)
    write_json(run_root / "config.json", scientific)

    cells = _cells(cfg)
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            cell_rows = list(pool.map(lambda c: _run_cell(cfg, run_root, c), cells))
    else:
        cell_rows = [_run_cell(cfg, run_root, cell) for cell in cells]

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


def _read_dataset(directory: str | Path) -> Dataset:
    """load_dataset on a directory from outside the program: a dataset.json
    that is not JSON or lacks an entry, and a kernel, matrix or truth that
    load_dataset rejects, are a ConfigError naming the directory."""
    try:
        return load_dataset(directory)
    except KeyError as exc:
        raise ConfigError(f"{Path(directory) / 'dataset.json'} has no entry {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read dataset {directory}: {exc}") from exc


def cmd_fit(
    data_dir: str | Path,
    method: str,
    out_dir: str | Path,
    K: int | None = None,
    gamma: float | None = None,
    alpha: float | None = None,
    alpha_search: tuple[float, float] | None = None,
    restarts: int | None = None,
    seed: int | None = None,
) -> Path:
    """Fit one method on a saved dataset; write a fit directory.

    The known-alpha methods take ``gamma`` directly, or else gamma(K, alpha)
    from the exact quadrature; ``vlad_alpha`` searches ``alpha_search`` as
    given. A value the method ignores is a ConfigError: ``vlad_alpha``
    estimates gamma and alpha, only it searches alpha, and ``spa`` and
    ``external:`` use neither gamma nor the K-means ``restarts`` and
    ``seed``. Left at None, ``alpha_search`` and ``restarts`` take the
    ExperimentConfig defaults and ``seed`` is 0.
    """
    data = _read_dataset(data_dir)
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
        D=data.dim, K=K, methods=[method],
        restarts=defaults.restarts if restarts is None else restarts, alpha_search=search,
    ).resolved()
    for name, value in (("alpha", alpha), ("gamma", gamma)):
        if value is not None and not 0 < value < np.inf:
            raise ConfigError(f"{name} must be finite and > 0")
    if method == "vlad_alpha" and (gamma, alpha) != (None, None):
        raise ConfigError("method 'vlad_alpha' estimates gamma and alpha; drop --gamma and --alpha")
    if method not in (*KNOWN_ALPHA_METHODS, "vlad_alpha") and (gamma, alpha) != (None, None):
        raise ConfigError(f"method {method!r} uses no gamma; drop --gamma and --alpha")
    if method in KNOWN_ALPHA_METHODS and gamma is None and alpha is None:
        raise ConfigError(f"method {method!r} needs --alpha (or an explicit --gamma)")
    if gamma is None and alpha is not None and alpha < GAMMA_ALPHA_MIN:
        raise ConfigError(f"gamma needs --alpha >= GAMMA_ALPHA_MIN = {GAMMA_ALPHA_MIN:g}")
    if alpha_search is not None and method != "vlad_alpha":
        raise ConfigError(f"method {method!r} searches no alpha; drop --alpha-search")
    if (restarts, seed) != (None, None) and method not in (*KNOWN_ALPHA_METHODS, "vlad_alpha"):
        raise ConfigError(f"method {method!r} runs no K-means; drop --restarts and --seed")
    seed = 0 if seed is None else seed
    started = time.perf_counter()
    fit, info = run_method(method, data, cfg, alpha, _rng(seed, _SALT_FIT), gamma)
    elapsed = time.perf_counter() - started
    out_dir = Path(out_dir)
    meta = {"method": method, "wall_time_s": elapsed, **{k: v for k, v in info.items() if v is not None}}
    if method == "vlad_alpha":
        out_dir.mkdir(parents=True, exist_ok=True)
        meta.update(_alpha_report(fit, data, cfg, out_dir))
    _save(fit, out_dir, seed, **meta)
    return out_dir


def _alpha_report(fit, data: Dataset, cfg: ExperimentConfig, out_dir: Path) -> dict:
    """phi* = <A,T>/<A,A>, which phi(alpha_hat) matches, the noise-variance
    estimate when one was used, and grid_curve.csv over cfg.alpha_search.

    The curve is the excess mismatch sqrt(<A,A>) |phi(alpha) - phi*|, whose
    square is ||phi A - T||_F^2 less its phi-free floor ||T||_F^2 -
    <A,T>^2/<A,A>; only that floor needs a D x D matrix.
    """
    aa, at = _reduced_moments(fit, data.kernel)
    phi_star = _phi_star(aa, at)
    grid = np.geomspace(*cfg.alpha_search, 64)
    excess = [np.sqrt(aa) * abs(varphi(cfg.K, a, quadrature_gamma(cfg.K, a)) - phi_star) for a in grid]
    _write_rows_csv(out_dir / "grid_curve.csv", ("alpha", "excess_mismatch"),
                    [{"alpha": a, "excess_mismatch": v} for a, v in zip(grid, excess)])
    return {"phi_star": phi_star, **({} if fit.sigma2_hat is None else {"sigma2_hat": fit.sigma2_hat})}


def cmd_eval(
    fit_dir: str | Path,
    data_dir: str | Path,
    metrics: tuple[str, ...] = ("mm", "volume"),
    heldout_dir: str | Path | None = None,
    results_csv: str | Path | None = None,
) -> dict:
    """Score a fit directory against a dataset's truth sidecar.

    The vertices and datasets come from outside the program: a non-finite
    vertex entry, a vertices shape other than (D, K) of the dataset (K of its
    truth), a held-out dataset of another D or another kernel (a multinomial
    one may have another trial count) and a dataset directory that
    ``_read_dataset`` rejects are a ConfigError. With ``results_csv``,
    append one row to it; a file whose header is not the eval columns is a
    ConfigError and is left untouched.
    """
    if not heldout_dir and set(HELDOUT_METRICS).intersection(metrics):
        raise ConfigError("the heldout and likelihood metrics need a held-out dataset (--heldout)")
    columns = ("fit_dir", "data_dir", *SCORE_COLUMNS)
    header = ",".join(columns)
    if results_csv is not None and Path(results_csv).exists():
        with open(results_csv) as fh:
            if fh.readline().rstrip("\n") != header:
                raise ConfigError(f"{results_csv} does not start with the eval header {header!r}")
    try:
        vertices = baselines.load_vertices(Path(fit_dir))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    data = _read_dataset(data_dir)
    K = data.truth.simplex.n_vertices if data.truth is not None else vertices.shape[1]
    if vertices.shape != (data.dim, K):
        raise ConfigError(f"vertices in {fit_dir} have shape {vertices.shape}, expected {(data.dim, K)}")
    heldout = _read_dataset(heldout_dir) if heldout_dir else None
    if heldout is not None and heldout.dim != data.dim:
        raise ConfigError(f"held-out observations in {heldout_dir} have shape {heldout.observations.shape}, "
                          f"but the vertices have shape {vertices.shape}")
    # another trial count is fine: both sides are scored as word distributions
    if heldout is not None and heldout.kernel.name != data.kernel.name:
        raise ConfigError(f"the held-out dataset in {heldout_dir} has kernel {heldout.kernel.name}, "
                          f"but the dataset in {data_dir} has kernel {data.kernel.name}")
    out = evaluate_fit(vertices, dataset=data, heldout=heldout,
                       metrics=tuple(metrics)).to_dict()
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
    lo, hi, n_points = _log_grid("grid", grid)
    if lo < GAMMA_ALPHA_MIN:
        raise ConfigError(f"grid must start at alpha >= GAMMA_ALPHA_MIN = {GAMMA_ALPHA_MIN:g}, got {lo:g}")
    alphas = np.geomspace(lo, hi, n_points)
    rows = [{"alpha": a, "gamma": g, "varphi": varphi(K, a, g)}
            for a, g in zip(alphas, quadrature_gamma(K, alphas))]
    _write_rows_csv(Path(out_path), ("alpha", "gamma", "varphi"), rows)
    return Path(out_path)
