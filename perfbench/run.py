"""Benchmark of simplexnest: one caller, closed loop, three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_sweep --seed 0 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout; pure Python needs no
build step. After set-up, ops run back to back (the next starts when the
previous one finishes) until another op would end after ``--seconds``; at
least one op always runs. ``--trace 0`` reports the end-to-end metrics
listed in BENCHMARK.json; ``--trace 1`` alternates untraced and traced
ops and reports the per-layer metrics. Human-readable lines come first;
the last line of standard output is the JSON result.

Set-up is timed SETUP_REPEATS times and reported as the median. One
repeat is the start of a fresh interpreter that imports the package, plus
the workload's set-up in this process: data generation and fixture
loading. Run records and spans go to ``.bench_build/perfbench/`` in the
checkout.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import env
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("paper_multinomial_alpha", "paper_poisson_weights", "desk_sweep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke runs the same code path on a seconds-long problem")
    return parser.parse_args(argv)


def import_package() -> None:
    """Import simplexnest from this checkout's src/, never from elsewhere."""
    if not (SOURCE / "simplexnest" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SOURCE / 'simplexnest'}; run from a full checkout")
    sys.path.insert(0, str(SOURCE))
    import simplexnest

    if Path(simplexnest.__file__).resolve().parent != (SOURCE / "simplexnest").resolve():
        sys.exit(f"error: imported simplexnest from {simplexnest.__file__}, not from {SOURCE}")


def time_fresh_import() -> float:
    """Seconds a fresh interpreter takes to start and import the package."""
    path = os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms, which
    # would quantize the measurement.
    subprocess.run([sys.executable, "-c", "import simplexnest"], cwd=ROOT, check=True,
                   env={**os.environ, "PYTHONPATH": path})
    return time.perf_counter() - t0


def metric_specs() -> tuple[dict, dict]:
    """name -> unit for the end-to-end and the per-layer metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def same_outputs(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(
        x == y if isinstance(x, bytes) else np.array_equal(x, y) for x, y in zip(a, b)
    )


def median_or_none(values):
    return statistics.median(values) if values else None


@dataclass
class Loop:
    """What the closed loop of ops measured."""

    untraced_s: list = field(default_factory=list)
    traced_s: list = field(default_factory=list)
    traced_ops: list = field(default_factory=list)   # op ids given to the tracer
    results: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0


def run_ops(workload, state, seconds: float, tracer, check_error) -> Loop:
    """Run ops back to back until one more would end after ``seconds``.

    With a tracer, ops alternate untraced and traced, and at least one of
    each runs. Every op must return the first op's outputs exactly.
    """
    loop = Loop()
    reference = None
    start = time.perf_counter()
    while True:
        index = loop.attempted
        traced = tracer is not None and index % 2 == 1
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.op = index
                with tracer:
                    result = workload.op(state)
            else:
                result = workload.op(state)
            if reference is None:
                reference = result.outputs
            elif not same_outputs(result.outputs, reference):
                raise check_error("op outputs differ from the first op's")
            loop.results.append(result)
        except Exception as exc:  # a failed op is counted and reported; the loop goes on
            loop.failures.append(f"op {index}: {type(exc).__name__}: {exc}")
        (loop.traced_s if traced else loop.untraced_s).append(time.perf_counter() - t0)
        if traced:
            loop.traced_ops.append(index)
        loop.attempted += 1
        elapsed = time.perf_counter() - start
        if tracer is not None and not loop.traced_s:
            continue
        if elapsed + statistics.median(loop.untraced_s + loop.traced_s) > seconds:
            return loop


def end_to_end_values(setup_times: list, loop: Loop, accuracy: dict) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "op_s_p50": statistics.median(loop.untraced_s),
        "fits_per_s": sum(r.fits for r in loop.results) / sum(loop.untraced_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mm_rms_rel": accuracy["mm_rms_rel"],
    }


def per_layer_values(tracer, loop: Loop, accuracy: dict, names) -> dict:
    values = {
        "model.generate.setup_s": tracer.per_op_median(["setup"], ["model.generate.self_s"])[
            "model.generate.self_s"],
        "trace.overhead_frac": statistics.median(loop.traced_s) / statistics.median(loop.untraced_s) - 1.0,
        "trace.coverage_frac": statistics.median(
            [tracer.root_time(op) / t for op, t in zip(loop.traced_ops, loop.traced_s)]),
        "accuracy.mm_rel_p50": accuracy["mm_rel"],
        # 0 where the workload does not estimate alpha or recover weights
        "accuracy.alpha_log_err_p50": accuracy["alpha_log_err"] or 0.0,
        "accuracy.theta_rmse": accuracy["theta_rmse"] or 0.0,
    }
    values.update(tracer.per_op_median(loop.traced_ops, [n for n in names if n not in values]))
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    end_to_end, per_layer = metric_specs()
    workload = workloads.WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    scratch = OUTPUT / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            state = None
            import_s = time_fresh_import()
            t0 = time.perf_counter()
            state = workload.setup(args.seed, args.size, size, scratch)
            setup_times.append(import_s + time.perf_counter() - t0)
        if tracer is not None:
            state = None
            tracer.op = "setup"
            with tracer:
                state = workload.setup(args.seed, args.size, size, scratch)
        loop = run_ops(workload, state, args.seconds, tracer, workloads.CheckError)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    accuracy = {name: median_or_none([r.accuracy[name] for r in loop.results if name in r.accuracy])
                for name in ("mm_rel", "mm_rms_rel", "alpha_log_err", "theta_rmse")}
    if tracer is None:
        values, units = end_to_end_values(setup_times, loop, accuracy), end_to_end
    else:
        values, units = per_layer_values(tracer, loop, accuracy, per_layer), per_layer
        tracer.write(OUTPUT / f"spans-{args.workload}-seed{args.seed}.csv")

    record_env = env.environment(workloads.HARNESS_WORKERS)
    sha = loop.results[0].results_sha256 if loop.results else None
    print(f"perfbench {args.workload} size={args.size} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(record_env, sort_keys=True))
    print(compare_env(args.workload, record_env))
    print(f"ops attempted={loop.attempted} failed={len(loop.failures)} "
          f"error_rate={len(loop.failures) / loop.attempted:.4g} "
          f"untraced_samples={len(loop.untraced_s)} traced_samples={len(loop.traced_s)}")
    for line in loop.failures:
        print("FAILED " + line)
    for name, value in accuracy.items():
        print(f"accuracy {name} = {value if value is not None else 'n/a'}")
    if sha is not None:
        expected = state.expected_sha256
        verdict = "unrecorded" if expected is None else ("match" if sha == expected else "MISMATCH")
        print(f"results.csv sha256 {sha} ({verdict} against the recorded value)")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]} {unit}")
    write_record({
        "workload": args.workload, "size": args.size, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": record_env, "ops": loop.attempted,
        "failed": len(loop.failures), "op_s": loop.untraced_s, "traced_op_s": loop.traced_s,
        "setup_repeat_s": setup_times, "accuracy": accuracy, "results_sha256": sha,
        "metrics": {name: values[name] for name in units},
    })
    print(json.dumps({
        "correct": not loop.failures and bool(loop.results),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def compare_env(workload: str, record_env: dict) -> str:
    """Flag a difference from the environment of the previous run recorded here."""
    previous = sorted((OUTPUT / "records").glob(f"{workload}-*.json"), key=lambda p: p.stat().st_mtime)
    if not previous:
        return "env comparison: no earlier record of this workload"
    earlier = json.loads(previous[-1].read_text())["env"]
    changed = env.differences(earlier, record_env)
    if not changed:
        return f"env comparison: same as {previous[-1].name}"
    return f"env comparison: DIFFERS from {previous[-1].name} in {', '.join(changed)}; runs are not comparable"


def write_record(report: dict) -> None:
    records = OUTPUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}-{time.time_ns()}.json"
    (records / name).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
