"""CSV and JSON helpers shared by dataset, fit and results serialization.

Numbers are written with %.17g so float64 values round-trip exactly and
repeated runs produce byte-identical files. ``np.savetxt`` formats and
writes a matrix one row at a time, so no text copy of the data is held.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def write_matrix_csv(path: str | Path, matrix: np.ndarray) -> None:
    """Write a 2-D array as CSV with the header x0,...,x{D-1}."""
    M = np.atleast_2d(np.asarray(matrix, dtype=float))  # np.savetxt writes a 1-D array as a column
    np.savetxt(path, M, fmt=FLOAT_FMT, delimiter=",", comments="",
               header=",".join(f"x{j}" for j in range(M.shape[1])))


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a CSV written by :func:`write_matrix_csv` (header skipped)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=float)
    return data


def write_json(path: str | Path, obj) -> None:
    """Write ``obj`` as indented, key-sorted JSON with a trailing newline."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
