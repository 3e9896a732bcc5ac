import json

import numpy as np
import pytest

import simplexnest.vlad
from simplexnest import Kernel, SimplexNest, generate, sample_vertices, save_dataset
from simplexnest.baselines import save_baseline, spa
from simplexnest.cli import main
from simplexnest.extension import GammaTable, build_gamma_table, quadrature_gamma
from simplexnest.harness import (
    ConfigError,
    ExperimentConfig,
    cmd_alpha_curve,
    cmd_eval,
    cmd_fit,
    cmd_gamma_table,
    cmd_generate,
    run_experiment,
)


def _tiny_config(out, **overrides):
    base = dict(
        kernel="noiseless", D=15, K=3, alpha=[2.0], n=[200], c_min=[1.0],
        seeds=[0, 1], methods=["vlad"], metrics=["mm", "volume"],
        gamma_grid=[0.5, 5.0, 5], gamma_m=3000, out=str(out), workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


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
def table_path_k3(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "k3.json"
    build_gamma_table(3, np.geomspace(0.5, 5.0, 6), m=4000, seed=2, workers=1).save(path)
    return path


class TestCmdFit:
    def test_vlad_with_explicit_gamma(self, dataset_dir, tmp_path):
        data_dir, _ = dataset_dir
        out = cmd_fit(data_dir, "vlad", tmp_path / "fit", gamma=3.0, seed=5)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["gamma"] == 3.0 and meta["method"] == "vlad"
        assert (out / "vertices.csv").exists()

    def test_vlad_alpha_with_table(self, dataset_dir, tmp_path, table_path_k3):
        data_dir, _ = dataset_dir
        out = cmd_fit(data_dir, "vlad_alpha", tmp_path / "fit", gamma_table=str(table_path_k3),
                      alpha_search=(0.5, 5.0), seed=5)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["alpha_hat"] > 0
        assert meta["objective_value"] >= 0
        curve = (out / "grid_curve.csv").read_text().splitlines()
        assert curve[0] == "alpha,objective" and len(curve) == 65

    def test_gdm_and_spa(self, dataset_dir, tmp_path, table_path_k3):
        data_dir, _ = dataset_dir
        out = cmd_fit(data_dir, "gdm_mc", tmp_path / "g", gamma_table=str(table_path_k3),
                      alpha=2.0, seed=5)
        assert json.loads((out / "meta.json").read_text())["method"] == "gdm_mc"
        out = cmd_fit(data_dir, "spa", tmp_path / "s")
        assert (out / "vertices.csv").exists()

    def test_external_passthrough(self, dataset_dir, tmp_path):
        data_dir, model = dataset_dir
        src = tmp_path / "third_party"
        from simplexnest.baselines import BaselineFit

        save_baseline(BaselineFit(model.vertices, "theirs", {}), src)
        out = cmd_fit(data_dir, f"external:{src / 'vertices.csv'}", tmp_path / "ext")
        got = np.loadtxt(out / "vertices.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(got, model.vertices)

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
        assert 0.5 <= meta["alpha_hat"] <= 5.0 and meta["objective_value"] >= 0

    def test_table_for_another_k_rejected(self, dataset_dir, tmp_path):
        data_dir, _ = dataset_dir
        path = tmp_path / "k7.json"
        GammaTable.from_quadrature(7, [0.5, 2.0, 5.0]).save(path)
        for method, alpha in (("vlad", 2.0), ("vlad_alpha", None)):
            with pytest.raises(ConfigError, match="K = 7"):
                cmd_fit(data_dir, method, tmp_path / method, gamma_table=str(path), alpha=alpha)

    @pytest.mark.parametrize("gammas", [[float("nan"), 2.0], [-1.0, 2.0]])
    def test_table_with_bad_gamma_rejected(self, dataset_dir, tmp_path, gammas):
        data_dir, _ = dataset_dir
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"K": 3, "m": 1, "seed": 0, "alphas": [1.0, 2.0], "gammas": gammas}))
        with pytest.raises(ConfigError, match="finite and > 0"):
            cmd_fit(data_dir, "vlad", tmp_path / "fit", gamma_table=str(path), alpha=1.5)
        assert not (tmp_path / "fit").exists()


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

    def test_heldout_directory(self, dataset_dir, tmp_path):
        data_dir, model = dataset_dir
        heldout = generate(model, 80, np.random.default_rng(99))
        heldout_dir = save_dataset(heldout, tmp_path / "heldout")
        fit_dir = cmd_fit(data_dir, "vlad", tmp_path / "fit", gamma=3.0, seed=5)
        rep = cmd_eval(fit_dir, data_dir, metrics=("heldout", "likelihood"),
                       heldout_dir=heldout_dir)
        assert rep["frobenius_heldout"] >= 0
        assert rep["nll"] is not None


class TestRunExperiment:
    def test_layout_and_results(self, tmp_path):
        cfg = _tiny_config(tmp_path / "runs", methods=["vlad", "spa"], n=[150, 300])
        root = run_experiment(cfg)
        assert (root / "config.json").exists()
        assert (root / "results.csv").exists()
        assert GammaTable.load(root / "gamma_table.json").m == 0  # quadrature
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

    def test_fitting_never_sees_truth(self, tmp_path, monkeypatch):
        seen = []
        original = simplexnest.vlad.fit

        def spy(data, *args, **kwargs):
            seen.append(data.truth)
            return original(data, *args, **kwargs)

        monkeypatch.setattr("simplexnest.harness.vlad.fit", spy)
        run_experiment(_tiny_config(tmp_path / "runs"))
        assert seen and all(t is None for t in seen)

    def test_no_monte_carlo_without_a_table_file(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("estimate_gamma called")

        monkeypatch.setattr("simplexnest.extension.estimate_gamma", forbidden)
        cfg = _tiny_config(tmp_path / "runs", methods=["vlad", "vlad_alpha", "gdm_mc"], seeds=[0])
        root = run_experiment(cfg)
        rows = (root / "results.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[8] for r in rows] == ["ok"] * 3
        table = GammaTable.load(root / "gamma_table.json")
        np.testing.assert_array_equal(table.gammas, quadrature_gamma(3, np.geomspace(0.5, 5.0, 5)))

    def test_table_file_for_another_k_rejected(self, tmp_path):
        path = tmp_path / "k7.json"
        GammaTable.from_quadrature(7, [0.5, 5.0]).save(path)
        with pytest.raises(ConfigError, match="K = 7"):
            run_experiment(_tiny_config(tmp_path / "runs", gamma_table=str(path)))

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


class TestAlphaCurveAndGammaTable:
    def test_alpha_curve_csv(self, tmp_path):
        out = cmd_alpha_curve(K=3, grid=(0.5, 3.0, 4), out_path=tmp_path / "curve.csv")
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,gamma,varphi"
        assert len(lines) == 5
        curve = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(curve[:, 1], quadrature_gamma(3, curve[:, 0]), rtol=1e-15)
        assert np.all(np.diff(curve[:, 2]) > 0)

    def test_gamma_table_cmd(self, tmp_path):
        from simplexnest.extension import GammaTable

        out = cmd_gamma_table(K=3, grid=(0.5, 3.0, 4), m=2000, seed=6,
                              out_path=tmp_path / "table.json", workers=1)
        table = GammaTable.load(out)
        assert table.K == 3 and table.alphas.size == 4


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

    def test_fit_without_a_table_then_eval(self, tmp_path):
        assert main(["generate", "--kernel", "gaussian", "--sigma", "0.1", "--D", "12", "--K", "3",
                     "--n", "500", "--seeds", "2", "--out", str(tmp_path / "data")]) == 0
        data_dir = next((tmp_path / "data").iterdir())
        assert main(["fit", "--data", str(data_dir), "--method", "vlad_alpha",
                     "--out", str(tmp_path / "fit")]) == 0
        assert main(["eval", "--fit", str(tmp_path / "fit"), "--data", str(data_dir)]) == 0

    @pytest.mark.parametrize("payload,message", [
        ('{"K": 3, "m": 1, "alphas": [1.0, 2.0], "gammas": [2.0, 3.0]}', "missing seed"),
        ('{"K": 3, "m": 1, "seed": 0,', "Expecting"),
        ('[1, 2]', "must be a JSON object"),
    ])
    def test_malformed_table_exit_code(self, dataset_dir, tmp_path, payload, message, capsys):
        data_dir, _ = dataset_dir
        path = tmp_path / "table.json"
        path.write_text(payload)
        assert main(["fit", "--data", str(data_dir), "--method", "vlad", "--alpha", "1.5",
                     "--gamma-table", str(path), "--out", str(tmp_path / "fit")]) == 2
        assert main(["experiment", "--kernel", "noiseless", "--D", "10", "--K", "3", "--n", "100",
                     "--seeds", "0", "--gamma-table", str(path), "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: cannot read gamma table") == 2
        assert err.count(message) == 2

    @pytest.mark.parametrize("flags", [["--method", "vlad", "--alpha", "-1"],
                                       ["--method", "vlad_alpha", "--alpha-search", "0", "5"],
                                       ["--method", "vlad_alpha", "--alpha-search", "5", "0.5"]])
    def test_bad_alpha_flags_exit_code(self, dataset_dir, tmp_path, flags):
        data_dir, _ = dataset_dir
        assert main(["fit", "--data", str(data_dir), "--out", str(tmp_path / "fit"), *flags]) == 2

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
