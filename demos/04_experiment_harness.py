"""Run a small sample-size sweep through the experiment harness.

Writes results.csv (one row per method x seed x grid cell) and a
plot-ready summary with mean and half-standard-deviation columns, exactly
as the CLI `simplexnest experiment` would. Output is byte-identical for
any worker count.
"""

from pathlib import Path

from simplexnest import ExperimentConfig, run_experiment

config = ExperimentConfig(
    kernel="gaussian",
    sigma=0.5,
    D=200,
    K=4,
    alpha=[2.0],
    n=[500, 2000, 8000],
    c_min=[0.6],
    seeds=list(range(5)),
    methods=["vlad", "vlad_alpha", "gdm_mc", "spa"],
    metrics=["mm", "volume"],
    gamma_grid=[0.5, 5.0, 8],
    out="runs_demo",
    workers=1,  # more threads bought nothing on 2 cores: the BLAS already uses both
)

root = run_experiment(config)
print(f"run root: {root}")
print("\nresults.csv head:")
for line in (root / "results.csv").read_text().splitlines()[:6]:
    print(" ", line)
print("\nsample-size summary (mean minimum-matching error, half sd):")
print((root / "figure_mm_by_n.csv").read_text())
print("equivalent CLI: simplexnest experiment --config <json with these fields>")
