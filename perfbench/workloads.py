"""The benchmark's workloads: set-up, one timed op, and the op's output checks.

Each workload turns the workload seed into inputs, hands the package only
those inputs (ground truth is stripped before any fit), and calls the
package through its public functions, looked up on the module at call
time so a :class:`trace.Tracer` sees them. An op repeats exactly for a
fixed seed, so every op of a run must return the same outputs.

Sizes: ``full`` is the measured size, ``smoke`` a seconds-long version of
the same code path for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from simplexnest import extension, harness, metrics, model, vlad

HERE = Path(__file__).resolve().parent
GAMMA_FIXTURE = HERE / "fixtures" / "gamma_k10.json"
RESULTS_SHA256 = HERE / "fixtures" / "desk_results_sha256.json"

WEIGHT_SUM_TOL = 1e-9
# One sweep worker: two pool threads on top of OpenBLAS's two threads
# overload a 2-core machine without changing results.csv.
HARNESS_WORKERS = 1


class CheckError(Exception):
    """An op's output broke one of the benchmark's checks."""


@dataclass
class OpResult:
    fits: int
    accuracy: dict            # name -> value, compared against the workload tolerance
    outputs: tuple            # arrays or bytes that must repeat exactly across ops
    results_sha256: str | None = None


@dataclass
class Workload:
    sizes: dict
    setup: object             # (seed, size_name, size, scratch_dir) -> state
    op: object                # state -> OpResult


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def load_gamma_fixture() -> extension.GammaTable:
    """The committed K = 10 gamma table, checked against its provenance."""
    record = json.loads(GAMMA_FIXTURE.read_text())
    prov = record["provenance"]
    table = extension.GammaTable.load(GAMMA_FIXTURE)
    lo, hi, npts = prov["grid"]
    if (table.K, table.m, table.seed) != (prov["K"], prov["m"], prov["seed"]):
        raise CheckError("gamma fixture K, m or seed differs from its provenance")
    if not np.allclose(table.alphas, np.geomspace(lo, hi, npts), rtol=1e-12, atol=0.0):
        raise CheckError("gamma fixture alpha grid differs from its provenance")
    if not np.all(np.isfinite(table.gammas)) or np.any(table.gammas < 1.0):
        raise CheckError("gamma fixture holds a gamma below 1 or non-finite")
    return table


def check_vertices(vertices: np.ndarray) -> None:
    if not np.all(np.isfinite(vertices)):
        raise CheckError("fitted vertices are not finite")


def check_weights(weights: np.ndarray) -> None:
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        raise CheckError("recovered weights are negative or not finite")
    if np.max(np.abs(weights.sum(axis=1) - 1.0)) > WEIGHT_SUM_TOL:
        raise CheckError(f"a recovered weight row misses sum 1 by more than {WEIGHT_SUM_TOL}")


def check_accuracy(accuracy: dict, tolerances: dict) -> None:
    for name, value in accuracy.items():
        if not math.isfinite(value) or value > tolerances[name]:
            raise CheckError(f"{name} = {value!r} exceeds the tolerance {tolerances[name]}")


def _theta_rmse(weights: np.ndarray, truth: np.ndarray, permutation: np.ndarray) -> float:
    """RMSE of recovered weights, columns aligned to truth by the matching."""
    return float(np.sqrt(np.mean((weights[:, permutation] - truth) ** 2)))


# --- paper_multinomial_alpha -------------------------------------------------

@dataclass
class PaperState:
    size: dict
    seed: int
    data: model.Dataset
    blind: model.Dataset
    weight_data: model.Dataset
    table: extension.GammaTable


def _paper_setup(kernel: model.Kernel, seed: int, size: dict) -> PaperState:
    table = load_gamma_fixture()
    rng = _rng(seed, 1)
    vertices = model.sample_vertices(size["D"], size["K"], kernel, rng)
    data = model.generate(model.SimplexNest(vertices, size["alpha"], kernel), size["n"], rng)
    blind = data.without_truth()
    rows = size.get("weight_rows", size["n"])
    weight_data = blind if rows == size["n"] else model.Dataset(blind.observations[:rows], kernel)
    return PaperState(size, seed, data, blind, weight_data, table)


def _paper_accuracy(state: PaperState, fit: vlad.VladFit, weights: np.ndarray) -> dict:
    truth = state.data.truth
    match = metrics.min_matching(fit.vertices, truth.simplex.vertices)
    diameter = truth.simplex.diameter()
    rows = weights.shape[0]
    return {
        "mm_rel": match.distance / diameter,
        "mm_rms_rel": match.frobenius / math.sqrt(fit.n_vertices) / diameter,
        "theta_rmse": _theta_rmse(weights, truth.weights[:rows], match.permutation),
    }


def multinomial_setup(seed: int, size_name: str, size: dict, scratch: Path) -> PaperState:
    return _paper_setup(model.Kernel.multinomial(size["trials"]), seed, size)


def multinomial_op(state: PaperState) -> OpResult:
    size = state.size
    fit = vlad.fit_auto(state.blind, size["K"], state.table, rng=_rng(state.seed, 2))
    weights = vlad.recover_weights(fit, state.weight_data)
    check_vertices(fit.vertices)
    check_weights(weights)
    accuracy = _paper_accuracy(state, fit, weights)
    accuracy["alpha_log_err"] = abs(math.log(fit.alpha / size["alpha"]))
    check_accuracy(accuracy, size["tol"])
    return OpResult(fits=1, accuracy=accuracy, outputs=(fit.vertices, weights))


# --- paper_poisson_weights ---------------------------------------------------

def poisson_setup(seed: int, size_name: str, size: dict, scratch: Path) -> PaperState:
    return _paper_setup(model.Kernel.poisson(), seed, size)


def poisson_op(state: PaperState) -> OpResult:
    size = state.size
    gamma = state.table.lookup(size["alpha"])
    fit = vlad.fit(state.blind, size["K"], gamma=gamma, rng=_rng(state.seed, 2))
    weights = vlad.recover_weights(fit, state.weight_data)
    check_vertices(fit.vertices)
    check_weights(weights)
    accuracy = _paper_accuracy(state, fit, weights)
    check_accuracy(accuracy, size["tol"])
    return OpResult(fits=1, accuracy=accuracy, outputs=(fit.vertices, weights))


# --- desk_sweep --------------------------------------------------------------

DESK_METHODS = ("vlad", "vlad_alpha", "gdm_mc", "spa")
VLAD_FAMILY = ("vlad", "vlad_alpha")


@dataclass
class DeskState:
    size: dict
    config: harness.ExperimentConfig
    out: Path
    diameters: dict
    expected_sha256: str | None


def desk_setup(seed: int, size_name: str, size: dict, scratch: Path) -> DeskState:
    seeds = [size["seeds"] * seed + i for i in range(size["seeds"])]
    out = scratch / "desk_runs"
    config = harness.ExperimentConfig(
        kernel="gaussian", sigma=1.0, D=size["D"], K=size["K"],
        alpha=[size["alpha"]], n=[size["n"]], c_min=[size["c_min"]], seeds=seeds,
        methods=list(DESK_METHODS), metrics=["mm", "volume"],
        gamma_grid=size["gamma_grid"], gamma_m=size["gamma_m"],
        out=str(out), workers=HARNESS_WORKERS,
    )
    resolved = config.resolved()
    diameters = {
        s: harness.build_model(resolved, s, size["c_min"], 0, size["alpha"]).diameter() for s in seeds
    }
    recorded = json.loads(RESULTS_SHA256.read_text()) if RESULTS_SHA256.exists() else {}
    expected = recorded.get(size_name, {}).get(str(seed))
    return DeskState(size, config, out, diameters, expected)


def desk_op(state: DeskState) -> OpResult:
    shutil.rmtree(state.out, ignore_errors=True)
    run_root = harness.run_experiment(state.config)
    raw = (run_root / "results.csv").read_bytes()
    lines = raw.decode().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    expected_rows = len(state.diameters) * len(DESK_METHODS)
    if len(rows) != expected_rows:
        raise CheckError(f"results.csv has {len(rows)} rows, expected {expected_rows}")
    bad = [f"{r['seed']}/{r['method']}={r['status']}" for r in rows if r["status"] != "ok"]
    if bad:
        raise CheckError(f"results.csv rows not ok: {', '.join(bad)}")
    vertex_files = sorted(run_root.glob("s*/*/*/vertices.csv"))
    if len(vertex_files) != expected_rows:
        raise CheckError(f"found {len(vertex_files)} fitted vertex files, expected {expected_rows}")
    for path in vertex_files:
        check_vertices(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2))
    vlad_rows = [r for r in rows if r["method"] in VLAD_FAMILY]
    mm_rel = [float(r["mm_distance"]) / state.diameters[int(r["seed"])] for r in vlad_rows]
    mm_rms_rel = [float(r["mm_frobenius"]) / math.sqrt(state.size["K"]) / state.diameters[int(r["seed"])]
                  for r in vlad_rows]
    alpha_err = [abs(math.log(float(r["alpha_hat"]) / state.size["alpha"]))
                 for r in rows if r["method"] == "vlad_alpha"]
    accuracy = {
        "mm_rel": float(np.median(mm_rel)),
        # A mean: the median of 6 fits from two estimators jumps between them.
        "mm_rms_rel": float(np.mean(mm_rms_rel)),
        "alpha_log_err": float(np.median(alpha_err)),
    }
    check_accuracy(accuracy, state.size["tol"])
    return OpResult(fits=len(rows), accuracy=accuracy, outputs=(raw,),
                    results_sha256=hashlib.sha256(raw).hexdigest())


WORKLOADS = {
    "paper_multinomial_alpha": Workload(
        sizes={
            "full": {"D": 2000, "K": 10, "trials": 500, "alpha": 0.5, "n": 10_000,
                     "tol": {"mm_rel": 0.15, "mm_rms_rel": 0.12, "theta_rmse": 0.05, "alpha_log_err": 0.35}},
            "smoke": {"D": 60, "K": 10, "trials": 500, "alpha": 0.5, "n": 1_000,
                      "tol": {"mm_rel": 0.5, "mm_rms_rel": 0.4, "theta_rmse": 0.1, "alpha_log_err": 1.0}},
        },
        setup=multinomial_setup,
        op=multinomial_op,
    ),
    "paper_poisson_weights": Workload(
        sizes={
            "full": {"D": 500, "K": 10, "alpha": 0.5, "n": 10_000, "weight_rows": 2_000,
                     "tol": {"mm_rel": 0.08, "mm_rms_rel": 0.06, "theta_rmse": 0.035}},
            "smoke": {"D": 60, "K": 10, "alpha": 0.5, "n": 1_000, "weight_rows": 200,
                      "tol": {"mm_rel": 0.5, "mm_rms_rel": 0.4, "theta_rmse": 0.1}},
        },
        setup=poisson_setup,
        op=poisson_op,
    ),
    "desk_sweep": Workload(
        sizes={
            "full": {"D": 100, "K": 10, "n": 10_000, "alpha": 2.0, "c_min": 0.3,
                     "seeds": 3, "gamma_grid": [0.02, 10.0, 40], "gamma_m": None,
                     "tol": {"mm_rel": 0.4, "mm_rms_rel": 0.3, "alpha_log_err": 1.5}},
            "smoke": {"D": 20, "K": 4, "n": 400, "alpha": 2.0, "c_min": 0.3,
                      "seeds": 1, "gamma_grid": [0.5, 5.0, 4], "gamma_m": 2_000,
                      "tol": {"mm_rel": 1.5, "mm_rms_rel": 1.0, "alpha_log_err": 3.0}},
        },
        setup=desk_setup,
        op=desk_op,
    ),
}
