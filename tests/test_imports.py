"""The package runs on numpy alone: no program path imports scipy.

Each check runs in a fresh interpreter whose ``sys.modules["scipy"]`` is None,
so any import of scipy or of one of its modules raises ImportError there.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import simplexnest

SRC = str(Path(simplexnest.__file__).resolve().parent.parent)

WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
"""


def _run_without_scipy(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", WITHOUT_SCIPY + textwrap.dedent(code)],
                          cwd=SRC, capture_output=True, text=True, timeout=300)


def test_fit_weigh_and_score_without_scipy():
    done = _run_without_scipy("""
        import numpy as np
        import simplexnest as sn

        rng = np.random.default_rng(0)
        kern = sn.Kernel.poisson()
        model = sn.SimplexNest(sn.sample_vertices(30, 3, kern, rng), 1.0, kern)
        data, heldout = sn.generate(model, 400, rng), sn.generate(model, 100, rng)
        f = sn.fit(data, 3, gamma=2.0, rng=rng)
        theta = sn.recover_weights(f, data)
        assert theta.shape == (400, 3) and np.isfinite(theta).all()
        for vertices in (f, sn.spa(data, 3), sn.gdm(data, 3, gamma=2.0, rng=rng)):
            report = sn.evaluate_fit(vertices, data, heldout,
                                     metrics=("mm", "volume", "heldout", "likelihood"))
            assert np.isfinite([report.mm_distance, report.volume, report.nll]).all()

        kern = sn.Kernel.multinomial(200)
        model = sn.SimplexNest(sn.sample_vertices(40, 3, kern, rng), 1.0, kern)
        data = sn.generate(model, 500, rng)
        table = sn.build_gamma_table(3, np.geomspace(0.1, 5.0, 6), m=3000, seed=0, workers=1)
        f = sn.fit_auto(data, 3, gamma=table, alpha_search=(0.1, 5.0), rng=rng)
        assert 0.1 <= f.alpha <= 5.0
        assert sys.modules["scipy"] is None
        print("ok")
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_gamma_and_its_callers_without_scipy(tmp_path):
    done = _run_without_scipy(f"""
        import csv
        import numpy as np
        import simplexnest as sn
        from simplexnest import harness

        assert abs(sn.quadrature_gamma(2, 1.0) - 2.0) <= 1e-12
        assert np.all(sn.quadrature_gamma(10, np.geomspace(0.02, 10.0, 5)) > 1.0)

        rng = np.random.default_rng(0)
        kern = sn.Kernel.gaussian(0.1)
        data = sn.generate(sn.SimplexNest(sn.sample_vertices(20, 3, kern, rng), 1.0, kern), 400, rng)
        f = sn.fit_auto(data, 3, rng=rng)  # gamma by the quadrature, its default
        assert 0.02 <= f.alpha <= 10.0 and f.gamma == sn.quadrature_gamma(3, f.alpha)

        cfg = harness.ExperimentConfig(kernel="gaussian", sigma=0.1, D=15, K=3, n=[150], seeds=[0],
                                       methods=["vlad", "vlad_alpha", "gdm_mc", "spa"], restarts=2,
                                       out={str(tmp_path / "runs")!r})
        rows = list(csv.DictReader(open(harness.run_experiment(cfg) / "results.csv")))
        assert [r["status"] for r in rows] == ["ok"] * 4, rows
        curve = harness.cmd_alpha_curve(K=3, grid=(0.1, 5.0, 6), out_path={str(tmp_path / "curve.csv")!r})
        assert len(curve.read_text().splitlines()) == 7
        assert sys.modules["scipy"] is None
        print("ok")
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
