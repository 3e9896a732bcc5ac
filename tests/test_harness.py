import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import simplexnest.model
import simplexnest.numerics
import simplexnest.vlad
from simplexnest import Kernel, SimplexNest, generate, sample_vertices, save_dataset
from simplexnest import harness
from simplexnest.alpha_est import _moments, corrected_covariance
from simplexnest.baselines import BaselineFit, save_baseline, spa
from simplexnest.cli import _config_from_args, build_parser, main
from simplexnest.extension import GammaTable, quadrature_gamma, varphi
from simplexnest.harness import (
    GRID_MAX_POINTS,
    ConfigError,
    ExperimentConfig,
    cmd_alpha_curve,
    cmd_eval,
    cmd_fit,
    cmd_generate,
    run_experiment,
)
from simplexnest.vlad import fit_auto, load_fit, save_fit


_EXPERIMENT = ["experiment", "--kernel", "noiseless", "--D", "10", "--K", "3", "--n", "100", "--seeds", "0",
               "--methods", "vlad", "gdm"]


def _tiny_config(out, **overrides):
    base = dict(
        kernel="noiseless", D=15, K=3, alpha=[2.0], n=[200], c_min=[1.0],
        seeds=[0, 1], methods=["vlad"], metrics=["mm", "volume"],
        gamma_grid=[0.5, 5.0, 5], gamma_m=3000, out=str(out), workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _rows(root):
    lines = (root / "results.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _spy_search(monkeypatch):
    """Record the alpha_search of every vlad_alpha finish the harness makes."""
    seen = []
    original = simplexnest.vlad._finish_auto

    def spy(base, kernel, gamma, alpha_search):
        seen.append(tuple(alpha_search))
        return original(base, kernel, gamma, alpha_search)

    monkeypatch.setattr("simplexnest.harness.vlad._finish_auto", spy)
    return seen


class TestConfig:
    def test_json_roundtrip_and_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kernel": "poisson", "K": 4, "n": [500]}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.kernel == "poisson" and cfg.K == 4
        cfg2 = cfg.with_overrides({"K": 6, "n": None})
        assert cfg2.K == 6 and cfg2.n == [500]

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"kernle": "poisson"}))
        with pytest.raises(ConfigError, match="unknown config fields"):
            ExperimentConfig.from_json(path)
        with pytest.raises(ConfigError):
            ExperimentConfig().with_overrides({"bogus": 1})

    def test_scale_dependent_defaults(self):
        desk = ExperimentConfig(kernel="gaussian").resolved()
        assert desk.D == 100 and len(desk.seeds) == 10
        paper = ExperimentConfig(kernel="gaussian", paper_scale=True).resolved()
        assert paper.D == 500 and len(paper.seeds) == 20
        lda = ExperimentConfig(kernel="multinomial", paper_scale=True).resolved()
        assert lda.D == 2000

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="distinct"):
            ExperimentConfig(seeds=[1, 1]).resolved()
        with pytest.raises(ConfigError, match="unknown method"):
            ExperimentConfig(methods=["mcmc"]).resolved()
        with pytest.raises(ConfigError, match="unknown metric"):
            ExperimentConfig(metrics=["coherence"]).resolved()
        with pytest.raises(ConfigError, match="unknown kernel"):
            ExperimentConfig(kernel="cauchy").resolved()
        with pytest.raises(ConfigError, match="symmetric"):
            ExperimentConfig(alpha=[[1.0, 2.0, 3.0]], K=3, methods=["gdm"]).resolved()
        with pytest.raises(ConfigError, match="n_heldout"):
            ExperimentConfig(metrics=["heldout"]).resolved()

    @pytest.mark.parametrize("overrides,message", [
        ({"alpha_search": [5.0, 0.5]}, "alpha_search"),
        ({"alpha_search": [0.0, 5.0]}, "alpha_search"),
        ({"alpha_search": [0.5]}, "alpha_search"),
        ({"alpha_search": [0.5, 2.0, 5.0]}, "alpha_search"),
        ({"K": 1}, "K must be >= 2"),
        ({"gamma_grid": [0.5, 5.0, 2.5]}, "gamma_grid"),
        ({"gamma_grid": [0.5, 5.0, 0]}, "gamma_grid"),
        ({"alpha_search": [1e-6, 5.0]}, "GAMMA_ALPHA_MIN"),
        ({"alpha": [2.0, 1e-6]}, "GAMMA_ALPHA_MIN"),
    ])
    def test_bad_alpha_search_or_k_rejected(self, tmp_path, overrides, message):
        cfg = _tiny_config(tmp_path / "runs", methods=["vlad", "vlad_alpha"], **overrides)
        with pytest.raises(ConfigError, match=message):
            cfg.resolved()
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg)
        assert not (tmp_path / "runs").exists()

    def test_log_grid_bounds_the_point_count(self):
        assert harness._log_grid("grid", [0.1, 5.0, GRID_MAX_POINTS]) == (0.1, 5.0, GRID_MAX_POINTS)
        for n_points in (GRID_MAX_POINTS + 1, 1e9):
            with pytest.raises(ConfigError, match="n_points"):
                harness._log_grid("grid", [0.1, 5.0, n_points])

    def test_hash_excludes_outdir_and_workers(self):
        a = _tiny_config("/tmp/a", workers=1).resolved()
        b = _tiny_config("/tmp/b", workers=4).resolved()
        assert a.config_hash() == b.config_hash()
        c = _tiny_config("/tmp/a", K=4).resolved()
        assert c.config_hash() != a.config_hash()


class TestCmdGenerate:
    def test_default_resolution_follows_protocol(self):
        cfg = ExperimentConfig(kernel="gaussian", paper_scale=True).resolved()
        assert cfg.D == 500 and cfg.n == [10000]
        assert ExperimentConfig(kernel="multinomial", paper_scale=True).resolved().D == 2000

    def test_writes_dataset_per_seed_and_is_reproducible(self, tmp_path):
        cfg = ExperimentConfig(kernel="gaussian", D=8, K=3, n=[40], seeds=[3, 4],
                               out=str(tmp_path / "a"))
        paths = cmd_generate(cfg)
        assert len(paths) == 2
        for p in paths:
            assert (p / "X.csv").exists() and (p / "dataset.json").exists()
            assert (p / "B.csv").exists() and (p / "theta.csv").exists()
        cfg2 = ExperimentConfig(kernel="gaussian", D=8, K=3, n=[40], seeds=[3, 4],
                                out=str(tmp_path / "b"))
        paths2 = cmd_generate(cfg2)
        assert (paths[0] / "X.csv").read_bytes() == (paths2[0] / "X.csv").read_bytes()
        meta = json.loads((paths[0] / "dataset.json").read_text())
        assert meta["kernel"]["name"] == "gaussian"
        assert meta["alpha"] == [2.0, 2.0, 2.0]


@pytest.fixture()
def dataset_dir(tmp_path):
    kern = Kernel.noiseless()
    V = sample_vertices(10, 3, kern, np.random.default_rng(0))
    model = SimplexNest(V, 2.0, kern)
    data = generate(model, 400, np.random.default_rng(1))
    return save_dataset(data, tmp_path / "data"), model


@pytest.fixture(scope="module")
def multinomial_dir(tmp_path_factory):
    kern = Kernel.multinomial(50)
    model = SimplexNest(sample_vertices(10, 3, kern, np.random.default_rng(0)), 2.0, kern)
    return save_dataset(generate(model, 200, np.random.default_rng(1)), tmp_path_factory.mktemp("data") / "counts")


@pytest.fixture(scope="module")
def gaussian_dir(tmp_path_factory):
    kern = Kernel.gaussian(0.1)
    model = SimplexNest(sample_vertices(10, 3, kern, np.random.default_rng(0)), 2.0, kern)
    return save_dataset(generate(model, 400, np.random.default_rng(1)), tmp_path_factory.mktemp("data") / "gauss")


@pytest.fixture(scope="module")
def narrow_gaussian_dir(tmp_path_factory):
    # D = K - 1: the vertices fit, but no trailing eigenvalue is left for the noise variance
    kern = Kernel.gaussian(1.0)
    model = SimplexNest(sample_vertices(2, 3, kern, np.random.default_rng(0)), 2.0, kern)
    return save_dataset(generate(model, 100, np.random.default_rng(1)), tmp_path_factory.mktemp("data") / "narrow")


@pytest.fixture(scope="module")
def foreign_dataset_dirs(tmp_path_factory):
    """Dataset directories, as from outside the program, whose dataset.json lacks
    its kernel, is not JSON, or names an unknown kernel."""
    kern = Kernel.noiseless()
    data = generate(SimplexNest(sample_vertices(10, 3, kern, np.random.default_rng(0)), 2.0, kern),
                    100, np.random.default_rng(1))
    root = tmp_path_factory.mktemp("foreign")
    dirs = {}
    for defect in ("no_kernel", "not_json", "unknown_kernel"):
        sidecar = save_dataset(data, root / defect) / "dataset.json"
        meta = json.loads(sidecar.read_text())
        if defect == "no_kernel":
            del meta["kernel"]
        elif defect == "unknown_kernel":
            meta["kernel"]["name"] = "cauchy"
        sidecar.write_text("{not json" if defect == "not_json" else json.dumps(meta))
        dirs[defect] = sidecar.parent
    return dirs


class TestCmdFit:
    def test_vlad_with_explicit_gamma(self, dataset_dir, tmp_path):
        data_dir, _ = dataset_dir
        out = cmd_fit(data_dir, "vlad", tmp_path / "fit", gamma=3.0, seed=5)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["gamma"] == 3.0 and meta["method"] == "vlad"
        assert (out / "vertices.csv").exists()

    @pytest.mark.parametrize("kernel", ["gaussian", "multinomial"])
    def test_writes_the_public_fits(self, gaussian_dir, multinomial_dir, tmp_path, kernel):
        # cmd_fit finishes vlad and vlad_alpha through run_method: its fits are vlad.fit and vlad.fit_auto
        data_dir = gaussian_dir if kernel == "gaussian" else multinomial_dir
        data = harness.load_dataset(data_dir)
        for seed in (0, 7):
            def rng():
                return harness._rng(seed, harness._SALT_FIT)

            cases = {
                "alpha": ({"method": "vlad", "alpha": 2.0},
                          simplexnest.vlad.fit(data, 3, float(quadrature_gamma(3, 2.0)), rng=rng())),
                "gamma": ({"method": "vlad", "gamma": 3.0}, simplexnest.vlad.fit(data, 3, 3.0, rng=rng())),
                "search": ({"method": "vlad_alpha", "alpha_search": (0.1, 5.0)},
                           fit_auto(data, 3, alpha_search=(0.1, 5.0), rng=rng())),
            }
            for name, (flags, expected) in cases.items():
                out = cmd_fit(data_dir, out_dir=tmp_path / f"{name}{seed}", seed=seed, **flags)
                public = save_fit(expected, tmp_path / f"public_{name}{seed}", seed=seed)
                for file in ("vertices.csv", "centroids.csv"):
                    assert (out / file).read_bytes() == (public / file).read_bytes(), (name, seed, file)

    def test_gdm_and_spa(self, dataset_dir, tmp_path):
        data_dir, _ = dataset_dir
        out = cmd_fit(data_dir, "gdm_mc", tmp_path / "g", alpha=2.0, seed=5)
        assert json.loads((out / "meta.json").read_text())["method"] == "gdm_mc"
        out = cmd_fit(data_dir, "spa", tmp_path / "s")
        assert (out / "vertices.csv").exists()

    def test_external_passthrough(self, dataset_dir, tmp_path):
        data_dir, model = dataset_dir
        src = tmp_path / "third_party"
        save_baseline(BaselineFit(model.vertices, "theirs", {}), src)
        out = cmd_fit(data_dir, f"external:{src / 'vertices.csv'}", tmp_path / "ext")
        got = np.loadtxt(out / "vertices.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(got, model.vertices)

    @pytest.mark.parametrize("kernel", [Kernel.noiseless(), Kernel.gaussian(0.1)], ids=lambda k: k.name)
    def test_vlad_alpha_reports_without_a_dxd_matrix(self, tmp_path, monkeypatch, kernel):
        data = generate(SimplexNest(sample_vertices(10, 3, kernel, np.random.default_rng(0)), 2.0, kernel),
                        400, np.random.default_rng(1))
        data_dir = save_dataset(data, tmp_path / "data")

        def forbidden(*args, **kwargs):
            raise AssertionError("D x D matrix formed")

        for name in ("alpha_est.corrected_covariance", "alpha_est.gmm_objective", "numerics.sample_covariance"):
            monkeypatch.setattr(f"simplexnest.{name}", forbidden)
        out = cmd_fit(data_dir, "vlad_alpha", tmp_path / "fit", alpha_search=(0.5, 5.0), seed=5)
        monkeypatch.undo()
        meta = json.loads((out / "meta.json").read_text())
        phi_hat = varphi(3, meta["alpha_hat"], meta["gamma"])
        assert meta["phi_star"] == pytest.approx(phi_hat, rel=1e-10)
        curve = np.loadtxt(out / "grid_curve.csv", delimiter=",", skiprows=1)
        phis = np.array([varphi(3, a, quadrature_gamma(3, a)) for a in curve[:, 0]])
        assert np.argmin(curve[:, 1]) == np.argmin(np.abs(phis - phi_hat))
        if kernel.name == "gaussian":
            dense = corrected_covariance(data.without_truth(), 3).correction_meta["sigma2_hat"]
            assert meta["sigma2_hat"] == pytest.approx(dense, rel=1e-12)
        else:
            assert "sigma2_hat" not in meta

    @pytest.mark.parametrize("method,flags", [("vlad_alpha", {}), ("gdm", {"alpha": 2.0}), ("spa", {})])
    def test_meta_json_written_once(self, dataset_dir, tmp_path, monkeypatch, method, flags):
        real, written = Path.write_text, []

        def spy(path, *args, **kwargs):
            written.append(path.name)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", spy)
        out = cmd_fit(dataset_dir[0], method, tmp_path / "fit", **flags)
        assert written.count("meta.json") == 1
        meta = json.loads((out / "meta.json").read_text())
        assert meta["method"] == method and meta["wall_time_s"] > 0

    def test_method_errors(self, dataset_dir, tmp_path):
        data_dir, _ = dataset_dir
        with pytest.raises(ConfigError, match="unknown method"):
            cmd_fit(data_dir, "hmc", tmp_path / "x")
        with pytest.raises(ConfigError, match="needs --alpha"):
            cmd_fit(data_dir, "vlad", tmp_path / "x")

    def test_quadrature_gamma_without_a_table(self, dataset_dir, tmp_path):
        data_dir, _ = dataset_dir
        out = cmd_fit(data_dir, "vlad", tmp_path / "fit", alpha=2.0, seed=5)
        assert json.loads((out / "meta.json").read_text())["gamma"] == quadrature_gamma(3, 2.0)
        out = cmd_fit(data_dir, "vlad_alpha", tmp_path / "auto", alpha_search=(0.5, 5.0), seed=5)
        meta = json.loads((out / "meta.json").read_text())
        assert 0.5 <= meta["alpha_hat"] <= 5.0 and meta["phi_star"] > 0

    def test_search_clamped_to_a_saved_table_only(self, dataset_dir, tmp_path, monkeypatch):
        # cmd_fit searches alpha_search as given: only a sweep clamps it, to gamma_grid
        data_dir, _ = dataset_dir
        seen = _spy_search(monkeypatch)
        out = cmd_fit(data_dir, "vlad_alpha", tmp_path / "q", alpha_search=(0.3, 7.0), seed=5)
        curve = np.loadtxt(out / "grid_curve.csv", delimiter=",", skiprows=1)
        assert curve.shape == (64, 2) and (curve[0, 0], curve[-1, 0]) == (0.3, 7.0)
        assert seen == [(0.3, 7.0)]


class TestCmdEval:
    def test_scores_and_appends_rows(self, dataset_dir, tmp_path):
        data_dir, model = dataset_dir
        fit_dir = cmd_fit(data_dir, "vlad", tmp_path / "fit", gamma=3.0, seed=5)
        csv = tmp_path / "results.csv"
        rep1 = cmd_eval(fit_dir, data_dir, metrics=("mm", "volume"), results_csv=csv)
        assert rep1["mm_distance"] >= 0 and rep1["volume"] > 0
        cmd_eval(fit_dir, data_dir, metrics=("mm", "volume"), results_csv=csv)
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 3  # header + two appended rows
        assert (fit_dir / "eval.json").exists()

    def test_foreign_results_csv_left_untouched(self, dataset_dir, tmp_path, capsys):
        data_dir, _ = dataset_dir
        fit_dir = cmd_fit(data_dir, "vlad", tmp_path / "fit", gamma=3.0, seed=5)
        csv = tmp_path / "results.csv"
        csv.write_text("a,b,c\n1,2,3\n")
        assert main(["eval", "--fit", str(fit_dir), "--data", str(data_dir),
                     "--results-csv", str(csv)]) == 2
        assert "config error" in capsys.readouterr().err
        assert csv.read_text() == "a,b,c\n1,2,3\n"

    @pytest.mark.parametrize("edit", ["nan", "inf", "extra column", "missing row"])
    def test_unusable_vertices_file_rejected(self, dataset_dir, tmp_path, edit, capsys):
        data_dir, model = dataset_dir
        V = model.vertices.copy()
        if edit in ("nan", "inf"):
            V[1, 2] = float(edit)
        elif edit == "extra column":
            V = np.hstack([V, V[:, :1]])
        else:
            V = V[:-1]
        fit_dir = save_baseline(BaselineFit(V, "theirs", {}), tmp_path / "theirs")
        assert main(["eval", "--fit", str(fit_dir), "--data", str(data_dir)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(fit_dir) in err
        assert not (fit_dir / "eval.json").exists()

    def test_heldout_directory(self, dataset_dir, tmp_path):
        data_dir, model = dataset_dir
        heldout = generate(model, 80, np.random.default_rng(99))
        heldout_dir = save_dataset(heldout, tmp_path / "heldout")
        fit_dir = cmd_fit(data_dir, "vlad", tmp_path / "fit", gamma=3.0, seed=5)
        rep = cmd_eval(fit_dir, data_dir, metrics=("heldout", "likelihood"),
                       heldout_dir=heldout_dir)
        assert rep["frobenius_heldout"] >= 0
        assert rep["nll"] is not None


    @pytest.mark.parametrize("kernel, scored", [
        (Kernel.gaussian(1.0), False),     # real-valued rows are not counts of a word distribution
        (Kernel.poisson(), False),
        (Kernel.multinomial(80), True),    # another trial count: both sides are word distributions
    ], ids=["gaussian", "poisson", "multinomial-other-trials"])
    def test_heldout_of_another_kernel_rejected(self, multinomial_dir, tmp_path, capsys, kernel, scored):
        fit_dir = cmd_fit(multinomial_dir, "spa", tmp_path / "fit")
        rng = np.random.default_rng(2)
        heldout = generate(SimplexNest(sample_vertices(10, 3, kernel, rng), 2.0, kernel), 60, rng)
        heldout_dir = save_dataset(heldout, tmp_path / "heldout")
        code = main(["eval", "--fit", str(fit_dir), "--data", str(multinomial_dir),
                     "--heldout", str(heldout_dir), "--metrics", "heldout", "likelihood"])
        assert code == (0 if scored else 2)
        assert (fit_dir / "eval.json").exists() == scored
        if not scored:
            err = capsys.readouterr().err
            assert "config error" in err and f"kernel {kernel.name}" in err


class TestRunExperiment:
    def test_layout_and_results(self, tmp_path):
        cfg = _tiny_config(tmp_path / "runs", methods=["vlad", "spa"], n=[150, 300])
        root = run_experiment(cfg)
        assert (root / "config.json").exists()
        assert (root / "results.csv").exists()
        assert not (root / "gamma_table.json").exists()
        assert (root / "figure_mm_by_n.csv").exists()
        assert (root / "s0" / "n150_c1_a2" / "vlad" / "vertices.csv").exists()
        lines = (root / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2  # two n cells x two seeds x two methods
        fig = (root / "figure_mm_by_n.csv").read_text().strip().splitlines()
        assert fig[0] == "x,method,mean,half_sd"
        assert len(fig) == 1 + 2 * 2

    def test_partial_failure_recorded(self, tmp_path):
        cfg = _tiny_config(tmp_path / "runs", methods=["vlad", "external:/nonexistent.csv"])
        root = run_experiment(cfg)
        rows = (root / "results.csv").read_text().strip().splitlines()[1:]
        statuses = [r.split(",")[8] for r in rows]
        assert statuses.count("ok") == 2
        assert sum(s.startswith("error") for s in statuses) == 2

    def test_failed_cell_keeps_its_message_and_traceback(self, tmp_path):
        missing = tmp_path / "missing" / "vertices.csv"
        cfg = _tiny_config(tmp_path / "runs", seeds=[0], methods=["spa", f"external:{missing}"])
        root = run_experiment(cfg)
        assert [r["status"] for r in _rows(root)] == ["ok", "error(FileNotFoundError)"]
        error = json.loads(next(root.rglob("error.json")).read_text())
        assert error["type"] == "FileNotFoundError"
        assert str(missing) in error["message"]
        assert error["traceback"].startswith("Traceback") and "load_vertices" in error["traceback"]
        assert len(list(root.rglob("error.json"))) == 1  # none beside the spa fit

    def test_fitting_never_sees_truth(self, tmp_path, monkeypatch):
        # a sweep fits vlad through the VLAD family's base fit, not through vlad.fit
        seen = []
        original = simplexnest.vlad._base

        def spy(data, *args, **kwargs):
            seen.append(data.truth)
            return original(data, *args, **kwargs)

        monkeypatch.setattr("simplexnest.harness.vlad._base", spy)
        run_experiment(_tiny_config(tmp_path / "runs"))
        assert seen and all(t is None for t in seen)

    def test_truth_stripped_once_per_cell(self, tmp_path, monkeypatch):
        # one blind copy per cell, shared by every method, and stripping re-runs no data check
        stripped, checked = [], []
        strip = simplexnest.model.Dataset.without_truth
        validate = simplexnest.model.Dataset.__post_init__

        def counting_strip(data):
            stripped.append(data.truth is not None)
            return strip(data)

        def counting_check(data):
            checked.append(data.truth is None)
            validate(data)

        monkeypatch.setattr(simplexnest.model.Dataset, "without_truth", counting_strip)
        monkeypatch.setattr(simplexnest.model.Dataset, "__post_init__", counting_check)
        counts = []
        for methods in (["vlad"], ["vlad", "vlad_alpha", "gdm", "spa"]):
            stripped.clear()
            checked.clear()
            run_experiment(_tiny_config(tmp_path / str(len(methods)), methods=methods, seeds=[0]))
            counts.append((stripped.count(True), checked.count(True)))
        assert counts == [(1, 0), (1, 0)]

    def test_no_monte_carlo_without_a_table_file(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("estimate_gamma called")

        monkeypatch.setattr("simplexnest.extension.estimate_gamma", forbidden)
        cfg = _tiny_config(tmp_path / "runs", methods=["vlad", "vlad_alpha", "gdm_mc"], seeds=[0])
        root = run_experiment(cfg)
        rows = (root / "results.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[8] for r in rows] == ["ok"] * 3

    def test_gamma_is_exact_without_a_table_file(self, tmp_path):
        cfg = _tiny_config(tmp_path / "runs", methods=["vlad", "vlad_alpha", "gdm_mc"], seeds=[0])
        root = run_experiment(cfg)
        rows = {r["method"]: r for r in _rows(root)}
        assert float(rows["vlad"]["gamma"]) == quadrature_gamma(3, 2.0)
        assert float(rows["gdm_mc"]["gamma"]) == quadrature_gamma(3, 2.0)
        # alpha_hat solves the exact phi(alpha) = phi* of the saved fit
        alpha_hat = float(rows["vlad_alpha"]["alpha_hat"])
        assert 0.5 < alpha_hat < 5.0
        assert float(rows["vlad_alpha"]["gamma"]) == quadrature_gamma(3, alpha_hat)
        resolved = cfg.resolved()
        model = harness.build_model(resolved, 0, 1.0, 0, 2.0)
        data = generate(model, 200, harness._rng(0, 0, 0, 0, harness._SALT_DATA))
        fit = load_fit(root / "s0" / "n200_c1_a2" / "vlad_alpha")
        aa, at, _ = _moments(fit, corrected_covariance(data.without_truth(), 3))
        assert varphi(3, alpha_hat, quadrature_gamma(3, alpha_hat)) == pytest.approx(at / aa, rel=1e-10)

    def test_search_clamped_to_gamma_range(self, tmp_path, monkeypatch):
        # a sweep finishes vlad_alpha from the family's base fit, not through vlad.fit_auto
        seen = []
        original = simplexnest.vlad._finish_auto

        def spy(base, kernel, gamma, alpha_search):
            seen.append(tuple(alpha_search))
            return original(base, kernel, gamma, alpha_search)

        monkeypatch.setattr("simplexnest.harness.vlad._finish_auto", spy)
        run_experiment(_tiny_config(tmp_path / "a", methods=["vlad_alpha"], seeds=[0]))
        assert seen == [(0.5, 5.0)]  # gamma_grid ends

    def test_search_outside_gamma_range_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="outside gamma's alpha range"):
            run_experiment(_tiny_config(tmp_path / "a", alpha_search=[6.0, 9.0]))
        assert not (tmp_path / "a").exists()

    def test_timings_separate_from_results(self, tmp_path):
        root = run_experiment(_tiny_config(tmp_path / "runs"))
        assert (root / "timings.csv").exists()
        header = (root / "results.csv").read_text().splitlines()[0]
        assert "wall_time" not in header

    def test_geometry_and_alpha_sweeps(self, tmp_path):
        cfg = _tiny_config(tmp_path / "g", c_min=[0.5, 1.0], seeds=[0])
        root = run_experiment(cfg)
        assert (root / "figure_mm_by_c_min.csv").exists()
        cfg = _tiny_config(tmp_path / "a", alpha=[1.0, 3.0], seeds=[0])
        root = run_experiment(cfg)
        fig = (root / "figure_mm_by_alpha.csv").read_text().splitlines()
        assert len(fig) == 1 + 2

    def test_heldout_metrics_through_harness(self, tmp_path):
        cfg = _tiny_config(tmp_path / "h", metrics=["mm", "heldout", "likelihood"],
                           n_heldout=50, seeds=[0])
        root = run_experiment(cfg)
        header, row = (root / "results.csv").read_text().splitlines()[:2]
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["frobenius_heldout"]) >= 0
        assert cols["nll"] != ""

    def test_asymmetric_alpha_diagnostic_run(self, tmp_path):
        # vector concentration: generation is supported, symmetric-only
        # methods are rejected, the alpha-estimating method still runs
        cfg = _tiny_config(tmp_path / "asym", alpha=[[0.5, 1.0, 2.0]],
                           methods=["vlad_alpha", "spa"], seeds=[0])
        root = run_experiment(cfg)
        rows = (root / "results.csv").read_text().strip().splitlines()[1:]
        assert all(r.split(",")[8] == "ok" for r in rows)
        with pytest.raises(ConfigError, match="symmetric"):
            _tiny_config(tmp_path / "bad", alpha=[[0.5, 1.0, 2.0]], methods=["gdm"]).resolved()


def _count_calls(monkeypatch, name: str) -> list:
    """Count the calls of ``numerics.<name>`` from every simplexnest module that holds it."""
    calls = []
    original = getattr(simplexnest.numerics, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == "simplexnest":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _method_lines(root, method: str) -> list[str]:
    lines = (root / "results.csv").read_text().splitlines()
    return [line for line in lines[1:] if line.split(",")[7] == method]


class TestVladFamily:
    """vlad and vlad_alpha share one base fit per cell and differ only in gamma."""

    def test_one_base_per_cell(self, tmp_path, monkeypatch):
        svd = _count_calls(monkeypatch, "truncated_svd")
        km = _count_calls(monkeypatch, "kmeans")
        family = run_experiment(_tiny_config(tmp_path / "family", methods=["vlad", "vlad_alpha", "gdm", "spa"]))
        assert len(svd) == 2  # one per cell, 2 seeds
        assert len(km) == 4   # per cell the family's and gdm's
        assert all(r["status"] == "ok" for r in _rows(family))
        alone = run_experiment(_tiny_config(tmp_path / "alone", methods=["vlad"]))
        assert _method_lines(family, "vlad") == _method_lines(alone, "vlad")
        for seed in (0, 1):
            fitted = [(root / f"s{seed}" / "n200_c1_a2" / "vlad" / "vertices.csv").read_bytes()
                      for root in (family, alone)]
            assert fitted[0] == fitted[1]

    def test_vlad_alpha_alone_is_fit_auto_on_its_own_stream(self, tmp_path):
        cfg = _tiny_config(tmp_path / "runs", methods=["vlad_alpha"], seeds=[0, 1])
        root = run_experiment(cfg)
        resolved = cfg.resolved()
        for cell in harness._cells(resolved):
            _, data = harness._cell_data(resolved, cell)
            expected = fit_auto(data.without_truth(), 3, alpha_search=(0.5, 5.0), restarts=resolved.restarts,
                                rng=harness._rng(*cell[:4], 0, harness._SALT_FIT))
            saved = load_fit(root / f"s{cell.seed}" / harness._cell_dirname(cell) / "vlad_alpha")
            np.testing.assert_array_equal(saved.vertices, expected.vertices)
            assert (saved.alpha, saved.gamma) == (expected.alpha, expected.gamma)

    def test_a_failing_base_fails_each_member(self, tmp_path):
        # n = K observations: the base raises once, and both rows record it
        root = run_experiment(_tiny_config(tmp_path / "runs", n=[3], seeds=[0],
                                           methods=["vlad", "vlad_alpha", "spa"]))
        assert [r["status"] for r in _rows(root)] == ["error(ValueError)"] * 2 + ["ok"]
        errors = [json.loads((root / "s0" / "n3_c1_a2" / method / "error.json").read_text())
                  for method in ("vlad", "vlad_alpha")]
        assert errors[0] == errors[1]  # raising it again adds no frames to the traceback
        assert errors[0]["type"] == "ValueError" and "need n > K" in errors[0]["message"]
        assert errors[0]["traceback"].count("in _run_cell") == 1 and "in _base" in errors[0]["traceback"]

    def test_each_member_times_the_shared_base(self, tmp_path, monkeypatch):
        original = simplexnest.vlad._base

        def slow_base(*args, **kwargs):
            time.sleep(0.2)
            return original(*args, **kwargs)

        monkeypatch.setattr("simplexnest.harness.vlad._base", slow_base)
        root = run_experiment(_tiny_config(tmp_path / "runs", seeds=[0], methods=["vlad_alpha", "spa", "vlad"]))
        lines = (root / "timings.csv").read_text().splitlines()
        seconds = {line.split(",")[5]: float(line.split(",")[6]) for line in lines[1:]}
        assert seconds["vlad"] >= 0.2 and seconds["vlad_alpha"] >= 0.2 and seconds["spa"] < 0.2


def test_no_gamma_table_on_the_default_paths(dataset_dir, tmp_path, monkeypatch):
    def forbidden(self):
        raise AssertionError("GammaTable constructed")

    monkeypatch.setattr(GammaTable, "__post_init__", forbidden)
    cfg = _tiny_config(tmp_path / "runs", methods=["vlad", "vlad_alpha", "gdm_mc"], seeds=[0])
    assert [r["status"] for r in _rows(run_experiment(cfg))] == ["ok"] * 3
    data_dir, model = dataset_dir
    data = harness.load_dataset(data_dir)
    assert fit_auto(data, 3, alpha_search=(0.5, 5.0), rng=np.random.default_rng(0)).alpha > 0
    cmd_fit(data_dir, "vlad", tmp_path / "vlad", alpha=2.0)
    cmd_fit(data_dir, "vlad_alpha", tmp_path / "auto")


class TestAlphaCurveAndGammaTable:
    def test_alpha_curve_csv(self, tmp_path):
        out = cmd_alpha_curve(K=3, grid=(0.5, 3.0, 4), out_path=tmp_path / "curve.csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,gamma,varphi"
        assert len(lines) == 5
        curve = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(curve[:, 1], quadrature_gamma(3, curve[:, 0]), rtol=1e-15)
        assert np.all(np.diff(curve[:, 2]) > 0)


class TestCli:
    def test_generate_and_fit_and_eval(self, tmp_path):
        rc = main([
            "generate", "--kernel", "noiseless", "--D", "8", "--K", "3",
            "--n", "60", "--seeds", "1", "--out", str(tmp_path / "data"),
        ])
        assert rc == 0
        data_dir = next((tmp_path / "data").iterdir())
        rc = main([
            "fit", "--data", str(data_dir), "--method", "vlad", "--gamma", "2.5",
            "--out", str(tmp_path / "fit"),
        ])
        assert rc == 0
        rc = main([
            "eval", "--fit", str(tmp_path / "fit"), "--data", str(data_dir),
            "--metrics", "mm", "volume",
        ])
        assert rc == 0

    def test_experiment_via_config_file(self, tmp_path):
        cfg = dict(kernel="noiseless", D=10, K=3, n=[100], seeds=[0],
                   methods=["spa"], metrics=["mm"], out=str(tmp_path / "runs"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 0
        assert any((tmp_path / "runs").rglob("results.csv"))

    def test_config_error_exit_code(self, tmp_path):
        assert main(["experiment", "--config", str(tmp_path / "missing.json")]) == 2
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"methods": ["hmc"]}))
        assert main(["experiment", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("payload", [
        {"K": "10"},
        {"seeds": 3},
        {"alpha_search": [1, "x"]},
        {"n": [100.5]},
        {"normalize": False},  # a field no longer read is unknown
        {"paper_scale": 1},
        {"kernel": "noiseless", "D": 10, "K": 3, "alpha": [[1.0, 2.0]], "methods": ["spa"]},
        {"gamma_table": "t.json"},  # gamma comes from the quadrature alone
        5,  # a top level that is not a JSON object
        None,
        "abc",
    ])
    def test_wrong_typed_config_exit_code(self, tmp_path, payload, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(payload))
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "runs")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["generate", "experiment"])
    def test_flags_and_json_set_the_same_config(self, tmp_path, command):
        parser = build_parser()
        fields = ExperimentConfig.__dataclass_fields__
        settable = {k for k in vars(parser.parse_args([command])) if k in fields}
        values = {  # field: (flags, the same value in JSON)
            "kernel": (["--kernel", "poisson"], "poisson"),
            "sigma": (["--sigma", "0.5"], 0.5),
            "trials": (["--trials", "50"], 50),
            "D": (["--D", "12"], 12),
            "K": (["--K", "4"], 4),
            "alpha": (["--alpha", "1", "3"], [1.0, 3.0]),
            "n": (["--n", "100", "200"], [100, 200]),
            "c_min": (["--c-min", "0.5"], [0.5]),
            "seeds": (["--seeds", "3", "4"], [3, 4]),
            "out": (["--out", "elsewhere"], "elsewhere"),
            "paper_scale": (["--paper-scale"], True),
            "methods": (["--methods", "spa", "vlad"], ["spa", "vlad"]),
            "metrics": (["--metrics", "mm"], ["mm"]),
            "restarts": (["--restarts", "3"], 3),
            "n_heldout": (["--n-heldout", "5"], 5),
            "workers": (["--workers", "2"], 2),
        }
        experiment_only = {"methods", "metrics", "restarts", "n_heldout", "workers"}
        assert settable == set(values) - (experiment_only if command == "generate" else set())
        for name in settable:
            flags, value = values[name]
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({name: value}))
            by_flag = _config_from_args(parser.parse_args([command, *flags]))
            by_json = _config_from_args(parser.parse_args([command, "--config", str(path)]))
            assert getattr(by_flag, name) != getattr(ExperimentConfig(), name)
            assert by_flag.resolved() == by_json.resolved()
        path = tmp_path / "kept.json"
        path.write_text(json.dumps({"paper_scale": True}))
        kept = _config_from_args(parser.parse_args([command, "--config", str(path)]))
        assert kept.paper_scale is True

    def test_fit_without_a_table_then_eval(self, tmp_path):
        assert main(["generate", "--kernel", "gaussian", "--sigma", "0.1", "--D", "12", "--K", "3",
                     "--n", "500", "--seeds", "2", "--out", str(tmp_path / "data")]) == 0
        data_dir = next((tmp_path / "data").iterdir())
        assert main(["fit", "--data", str(data_dir), "--method", "vlad_alpha",
                     "--out", str(tmp_path / "fit")]) == 0
        assert main(["eval", "--fit", str(tmp_path / "fit"), "--data", str(data_dir)]) == 0

    @pytest.mark.parametrize("flags", [["--method", "vlad", "--alpha", "-1"],
                                       ["--method", "vlad_alpha", "--alpha-search", "0", "5"],
                                       ["--method", "vlad_alpha", "--alpha-search", "5", "0.5"]])
    def test_bad_alpha_flags_exit_code(self, dataset_dir, tmp_path, flags):
        data_dir, _ = dataset_dir
        assert main(["fit", "--data", str(data_dir), "--out", str(tmp_path / "fit"), *flags]) == 2

    def test_gamma_flag_rejected_for_vlad_alpha(self, dataset_dir, tmp_path, capsys):
        data_dir, _ = dataset_dir
        assert main(["fit", "--data", str(data_dir), "--method", "vlad_alpha", "--gamma", "2",
                     "--out", str(tmp_path / "fit")]) == 2
        assert "config error: method 'vlad_alpha' estimates gamma" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("argv", [
        ["alpha-curve", "--K", "1"],
        ["experiment", "--kernel", "noiseless", "--D", "10", "--K", "1", "--n", "100", "--seeds", "0"],
        ["generate", "--kernel", "noiseless", "--D", "10", "--K", "1", "--n", "100", "--seeds", "0"],
    ])
    def test_bad_k_exit_code(self, tmp_path, argv, capsys):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        # values that only failed once the sweep ran, or that it silently ignored
        [*_EXPERIMENT, "--restarts", "0"],
        [*_EXPERIMENT, "--c-min", "1.5"],
        [*_EXPERIMENT, "--c-min", "0"],
        [*_EXPERIMENT, "--c-min", "-0.5"],
        [*_EXPERIMENT, "--alpha", "-1"],
        [*_EXPERIMENT, "--D", "1"],
        [*_EXPERIMENT, "--kernel", "multinomial", "--D", "2"],
        [*_EXPERIMENT, "--n", "0"],
        [*_EXPERIMENT, "--n-heldout", "-3"],
        [*_EXPERIMENT, "--seeds", "-1"],
        [*_EXPERIMENT, "--workers", "0"],
        [*_EXPERIMENT, "--workers", "-2"],
        # fit flags the method would ignore, and values that only failed in the fit
        ["fit", "--method", "spa", "--alpha-search", "5", "9"],
        ["fit", "--method", "vlad", "--alpha", "2", "--alpha-search", "0.5", "5"],
        ["fit", "--method", "spa", "--seed", "1"],
        ["fit", "--method", "spa", "--restarts", "2"],
        ["fit", "--method", "external:{vertices}", "--seed", "1"],
        ["fit", "--method", "external:{vertices}", "--restarts", "2"],
        ["fit", "--method", "spa", "--gamma", "2"],
        ["fit", "--method", "spa", "--alpha", "2"],
        ["fit", "--method", "external:{vertices}", "--gamma", "2"],
        ["fit", "--method", "external:{vertices}", "--alpha", "2"],
        ["fit", "--method", "vlad_alpha", "--alpha", "2"],
        ["fit", "--method", "vlad", "--gamma", "-1"],
        ["fit", "--method", "vlad", "--alpha", "2", "--restarts", "0"],
        ["fit", "--method", "vlad", "--alpha", "2", "--seed", "-1"],
        # a point count that is not a whole number, or past GRID_MAX_POINTS
        ["alpha-curve", "--K", "3", "--grid", "0.1", "5", "2.9"],
        ["alpha-curve", "--K", "3", "--grid", "0.1", "5", "1e9"],
        # non-finite bounds, and alpha fits on raw multinomial counts
        ["fit", "--method", "vlad_alpha", "--alpha-search", "0.5", "inf"],
        ["alpha-curve", "--K", "3", "--grid", "0.1", "inf", "5"],
        # multinomial fits with more vertices than words, or alpha fits with no count noise to correct
        ["fit", "--method", "vlad_alpha", "--K", "11", "--data", "{multinomial}"],
        ["experiment", "--kernel", "multinomial", "--trials", "1", "--D", "10", "--K", "3", "--n", "100",
         "--seeds", "0", "--methods", "vlad_alpha"],
        # gaussian alpha fits with no trailing eigenvalue to estimate the noise from (D = K - 1)
        ["experiment", "--kernel", "gaussian", "--D", "2", "--K", "3", "--n", "100", "--seeds", "0",
         "--methods", "vlad_alpha"],
        ["fit", "--method", "vlad_alpha", "--data", "{narrow}"],
        # a dataset directory from outside the program that cannot be read as a dataset
        ["fit", "--method", "spa", "--data", "{no_kernel}"],
        ["fit", "--method", "spa", "--data", "{not_json}"],
        ["fit", "--method", "spa", "--data", "{unknown_kernel}"],
        # an alpha below GAMMA_ALPHA_MIN, where the quadrature keeps too few digits
        ["fit", "--method", "vlad_alpha", "--alpha-search", "1e-6", "5"],
        ["alpha-curve", "--K", "3", "--grid", "1e-20", "5", "5"],
        ["fit", "--method", "vlad", "--alpha", "1e-6"],
        [*_EXPERIMENT, "--alpha", "1e-6"],
    ])
    def test_rejected_before_any_output(self, dataset_dir, multinomial_dir, narrow_gaussian_dir,
                                        foreign_dataset_dirs, tmp_path, argv, capsys):
        data_dir, model = dataset_dir
        vertices = save_baseline(BaselineFit(model.vertices, "theirs", {}), tmp_path / "theirs") / "vertices.csv"
        argv = [a.format(vertices=vertices, multinomial=multinomial_dir, narrow=narrow_gaussian_dir,
                         **foreign_dataset_dirs) for a in argv]
        if argv[0] == "fit" and "--data" not in argv:
            argv += ["--data", str(data_dir)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_one_trial_counts_fit_by_every_method_but_vlad_alpha(self, tmp_path, capsys):
        kern = Kernel.multinomial(1)
        model = SimplexNest(sample_vertices(10, 3, kern, np.random.default_rng(0)), 2.0, kern)
        data_dir = save_dataset(generate(model, 200, np.random.default_rng(1)), tmp_path / "one_trial")
        assert main(["fit", "--data", str(data_dir), "--method", "spa", "--out", str(tmp_path / "spa")]) == 0
        assert (tmp_path / "spa" / "vertices.csv").exists()
        capsys.readouterr()
        # only the alpha fit's noise correction needs N > 1
        assert main(["fit", "--data", str(data_dir), "--method", "vlad_alpha", "--out", str(tmp_path / "alpha")]) == 2
        assert "N > 1" in capsys.readouterr().err
        assert not (tmp_path / "alpha").exists()

    def test_external_vertices_with_a_nan_are_a_config_error(self, dataset_dir, tmp_path, capsys):
        data_dir, model = dataset_dir
        vertices = model.vertices.copy()
        vertices[1, 0] = np.nan
        path = save_baseline(BaselineFit(vertices, "theirs", {}), tmp_path / "theirs") / "vertices.csv"
        assert main(["fit", "--data", str(data_dir), "--method", f"external:{path}",
                     "--out", str(tmp_path / "out")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", ["extra column", "missing row"])
    def test_external_vertices_of_another_shape_are_a_config_error(self, dataset_dir, tmp_path, edit, capsys):
        data_dir, model = dataset_dir
        V = np.hstack([model.vertices, model.vertices[:, :1]]) if edit == "extra column" else model.vertices[:-1]
        path = save_baseline(BaselineFit(V, "theirs", {}), tmp_path / "theirs") / "vertices.csv"
        assert main(["fit", "--data", str(data_dir), "--method", f"external:{path}",
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(path) in err and f"{V.shape}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["fit", "--method", "vlad", "--alpha", "2", "--data", "{multinomial}"],
        ["experiment", "--kernel", "multinomial", "--D", "10", "--K", "3", "--n", "100", "--seeds", "0"],
        ["generate", "--kernel", "multinomial", "--D", "10", "--K", "3", "--n", "100", "--seeds", "0"],
    ])
    def test_raw_counts_flag_is_gone(self, multinomial_dir, tmp_path, argv, capsys):
        argv = [a.format(multinomial=multinomial_dir) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--raw-counts", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --raw-counts" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["gamma-table", "--K", "3"],
        ["fit", "--method", "vlad", "--alpha", "2", "--gamma-table", "{table}"],
        [*_EXPERIMENT, "--gamma-table", "{table}"],
    ])
    def test_saved_gamma_table_route_is_gone(self, dataset_dir, tmp_path, argv, capsys):
        path = tmp_path / "t.json"
        alphas = np.geomspace(0.5, 5.0, 6)
        path.write_text(json.dumps(GammaTable(K=3, alphas=alphas, gammas=quadrature_gamma(3, alphas),
                                              m=0, seed=0).to_dict()))
        argv = [a.format(table=path) for a in argv]
        if argv[0] == "fit":
            argv += ["--data", str(dataset_dir[0])]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and ("invalid choice: 'gamma-table'" in err or "unrecognized arguments: --gamma-table" in err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("defect", ["no_kernel", "not_json", "unknown_kernel", "heldout_D"])
    def test_foreign_dataset_is_a_config_error(self, dataset_dir, foreign_dataset_dirs, tmp_path, defect,
                                               capsys):
        # fit on the same directories is a row of test_rejected_before_any_output
        data_dir, model = dataset_dir
        fit_dir = save_baseline(BaselineFit(model.vertices, "theirs", {}), tmp_path / "theirs")
        if defect == "heldout_D":
            kern = Kernel.noiseless()
            other = generate(SimplexNest(sample_vertices(12, 3, kern, np.random.default_rng(2)), 2.0, kern),
                             50, np.random.default_rng(3))
            heldout_dir = save_dataset(other, tmp_path / "heldout")
            argv = ["--data", str(data_dir), "--heldout", str(heldout_dir), "--metrics", "heldout"]
            named = [str(heldout_dir), "(50, 12)", "(10, 3)"]
        else:
            argv = ["--data", str(foreign_dataset_dirs[defect])]
            named = [str(foreign_dataset_dirs[defect])]
        assert main(["eval", "--fit", str(fit_dir), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and all(name in err for name in named)
        assert not (fit_dir / "eval.json").exists()

    @pytest.mark.parametrize("metric", ["heldout", "likelihood"])
    def test_heldout_metric_without_heldout_data_exit_code(self, dataset_dir, tmp_path, metric, capsys):
        data_dir, _ = dataset_dir
        fit_dir = cmd_fit(data_dir, "spa", tmp_path / "fit")
        assert main(["eval", "--fit", str(fit_dir), "--data", str(data_dir), "--metrics", metric]) == 2
        assert "config error: the heldout and likelihood metrics need a held-out dataset" in capsys.readouterr().err
        assert not (fit_dir / "eval.json").exists()
        # checked before anything is loaded
        assert main(["eval", "--fit", str(tmp_path / "none"), "--data", str(tmp_path / "none"),
                     "--metrics", metric]) == 2
        assert "held-out dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("command,required,optional", [
        ("cmd_fit", ["fit", "--data", "d", "--method", "spa", "--out", "o"],
         ["--K", "3", "--gamma", "2", "--alpha", "1", "--alpha-search", "0.1", "5",
          "--restarts", "2", "--seed", "1"]),
        ("cmd_eval", ["eval", "--fit", "f", "--data", "d"],
         ["--heldout", "h", "--metrics", "mm", "--results-csv", "r"]),
        ("cmd_alpha_curve", ["alpha-curve"], ["--K", "4", "--grid", "0.1", "5", "3", "--out", "c"]),
    ])
    def test_subcommand_passes_only_the_flags_given(self, monkeypatch, command, required, optional):
        keywords = inspect.signature(getattr(harness, command)).parameters
        calls = []
        monkeypatch.setattr(harness, command, lambda **kwargs: calls.append(kwargs) or "written")
        assert main(required) == 0
        assert set(calls[0]) == {k for k in keywords if keywords[k].default is inspect.Parameter.empty}
        assert main(required + optional) == 0
        assert set(calls[1]) == set(keywords)  # one flag per keyword, each flag's dest a keyword

    def test_numerical_error_exit_code(self, tmp_path):
        # fitting K = 3 on 3 observations violates n > K
        data = generate(
            SimplexNest(sample_vertices(6, 3, Kernel.noiseless(), np.random.default_rng(7)),
                        1.0, Kernel.noiseless()),
            3, np.random.default_rng(8))
        save_dataset(data, tmp_path / "tiny")
        rc = main(["fit", "--data", str(tmp_path / "tiny"), "--method", "vlad",
                   "--gamma", "2.0", "--out", str(tmp_path / "fit")])
        assert rc == 3

    def test_alpha_curve_subcommand(self, tmp_path):
        rc = main(["alpha-curve", "--K", "3", "--grid", "0.5", "2.0", "3",
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 0
        assert (tmp_path / "c.csv").exists()
