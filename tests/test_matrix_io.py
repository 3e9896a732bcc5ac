import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from simplexnest import _matrix_io
from simplexnest._matrix_io import FLOAT_FMT, read_matrix_csv, write_matrix_csv


def _write_matrix_csv_per_value(path, matrix) -> None:
    """The byte oracle: every value formatted in Python, every line joined into one string."""
    M = np.atleast_2d(np.asarray(matrix, dtype=float))
    header = ",".join(f"x{j}" for j in range(M.shape[1]))
    lines = [header]
    for row in M:
        lines.append(",".join(FLOAT_FMT % v for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _assert_same_bytes(directory: Path, matrix) -> None:
    write_matrix_csv(directory / "got.csv", matrix)
    _write_matrix_csv_per_value(directory / "want.csv", matrix)
    assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("matrix_io")


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=7), elements=_ANY_FLOAT)
       .filter(lambda M: M.shape[-1] > 0))
def test_same_bytes_as_the_per_value_writer(out_dir, matrix):
    # 0 rows, 1 row, 1 column and 1-D rows among the draws; a 1-D array is written as one row.
    # No matrix has 0 columns: np.savetxt writes no empty header line for one.
    _assert_same_bytes(out_dir, matrix)


@pytest.mark.parametrize("matrix", [
    np.array([[np.nan, np.inf, -np.inf], [-0.0, 0.0, 5e-324]]),
    np.array([[2.2250738585072014e-308 / 3, -1.7976931348623157e308, 0.1 + 0.2]]),
    np.empty((0, 4)),
    np.array([[1.0], [-0.0], [np.nan]]),
    np.array([3.5, -2.25, 1e-300]),
    np.arange(12, dtype=np.int64).reshape(3, 4),
    2.5,
], ids=["special", "extremes", "no-rows", "one-column", "one-dim", "integers", "scalar"])
def test_special_values_give_the_same_bytes(out_dir, matrix):
    _assert_same_bytes(out_dir, matrix)


def test_round_trip_is_exact(tmp_path):
    M = np.random.default_rng(3).normal(size=(5, 3)) * np.logspace(-300, 300, 3)
    write_matrix_csv(tmp_path / "M.csv", M)
    assert (read_matrix_csv(tmp_path / "M.csv") == M).all()


class TestMemory:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS and VmHWM from /proc")
    def test_save_dataset_holds_no_text_copy_of_the_observations(self, tmp_path):
        """The resident peak across ``save_dataset`` stays near the resident set before it.

        Formatting the whole matrix into one string before writing raised the
        peak (VmHWM) above the resident set (VmRSS) by about 7 times 16 MB of
        Gaussian observations, and by under 0.1 MB with the rows streamed. A
        process of its own keeps the rest of the suite out of the peak.
        """
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from simplexnest import Kernel, SimplexNest, generate, sample_vertices
            from simplexnest.model import save_dataset

            def status(key):
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))

            kern = Kernel.gaussian(1.0)
            rng = np.random.default_rng(57)
            data = generate(SimplexNest(sample_vertices(500, 10, kern, rng), 2.0, kern), 4000, rng)
            before = status("VmRSS")
            save_dataset(data, sys.argv[1])
            print(status("VmHWM") - before, data.observations.nbytes)
        """)
        src = str(Path(_matrix_io.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True,
                             text=True, timeout=600, check=True)
        growth, observations = map(int, run.stdout.split())
        assert observations == 16_000_000
        assert growth < 0.5 * observations
