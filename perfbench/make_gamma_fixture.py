"""Build the gamma-table fixture that the paper-scale workloads load.

The table is the paper protocol's Monte-Carlo calibration for K = 10
(40 log-spaced alphas over [0.02, 10], m = 100000 samples per alpha). It
is built once and committed so that benchmark set-up measures data
generation, not calibration. The file holds the table in the format of
``GammaTable.save`` plus a ``provenance`` block that set-up checks the
loaded table against.

Usage, from the root of the repository:

    python3 perfbench/make_gamma_fixture.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "fixtures" / "gamma_k10.json"
PROVENANCE = {
    "K": 10,
    "grid": [0.02, 10.0, 40],
    "m": 100_000,
    "seed": 7,
    "restarts": 8,
    "function": "simplexnest.build_gamma_table",
}


def main() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    import numpy as np

    from simplexnest import build_gamma_table

    lo, hi, npts = PROVENANCE["grid"]
    table = build_gamma_table(
        PROVENANCE["K"], np.geomspace(lo, hi, npts), m=PROVENANCE["m"],
        seed=PROVENANCE["seed"], restarts=PROVENANCE["restarts"], workers=2,
    )
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    record = {**table.to_dict(), "provenance": PROVENANCE}
    FIXTURE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
