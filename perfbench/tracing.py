"""Span tracing around the public functions of each simplexnest layer.

A :class:`Tracer` replaces each traced function with a wrapper in every
module namespace that holds it, so callers inside the package and in the
benchmark pick the wrapper up where they look the name up. Spans are kept
in memory as (name, start, end, parent span, op id) and written once, when
the run ends. Leaving the ``with`` block puts the original functions back.

Some functions run thousands of times per op inside another layer's loop
(the simplex projection, the alpha objective). They get counters only, no
span, so their caller's self time stays the time of the loop that calls
them and the tracing cost stays small.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "simplexnest"


def _rows(args, kwargs) -> int:
    X = kwargs.get("X", args[1] if len(args) > 1 else None)
    return int(np.atleast_2d(np.asarray(X)).shape[0])


def _alphas(args, kwargs) -> int:
    alphas = kwargs.get("alphas", args[3] if len(args) > 3 else None)
    return int(np.atleast_1d(np.asarray(alphas)).size)


def _bytes_written(args, kwargs) -> int:
    path = kwargs.get("path", args[0] if args else None)
    return Path(path).stat().st_size


# (module, function) -> extra counters taken from the call's arguments.
SPANNED = {
    ("model", "generate"): {},
    ("numerics", "center"): {},
    ("numerics", "truncated_svd"): {},
    ("numerics", "kmeans"): {},
    ("alpha_est", "corrected_covariance"): {},
    ("alpha_est", "estimate_alpha"): {},
    ("extension", "build_gamma_table"): {},
    ("extension", "estimate_gamma"): {},
    ("vlad", "fit"): {},
    ("vlad", "fit_auto"): {},
    ("vlad", "recover_weights"): {},
    ("vlad", "simplex_least_squares"): {"rows": _rows},
    ("baselines", "gdm"): {},
    ("baselines", "spa"): {},
    ("metrics", "evaluate_fit"): {},
    ("metrics", "min_matching"): {},
    ("harness", "run_experiment"): {},
    ("_matrix_io", "write_matrix_csv"): {"bytes": _bytes_written},
}
COUNTED = {
    ("vlad", "project_rows_onto_simplex"): {},
    ("alpha_est", "gmm_objective"): {"alphas": _alphas},
}


class Tracer:
    """Patch the traced functions on enter, restore them on exit."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op]
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # op -> stat -> n
        self.op = None
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for (module, func), counters in SPANNED.items():
            self._patch(module, func, counters, spanned=True)
        for (module, func), counters in COUNTED.items():
            self._patch(module, func, counters, spanned=False)
        return self

    def __exit__(self, *exc) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def _patch(self, module: str, func: str, counters: dict, spanned: bool) -> None:
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
        # Metric names start with a letter, so _matrix_io reports as matrix_io.
        wrapper = self._wrap(original, f"{module.lstrip('_')}.{func}", counters, spanned)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap(self, original, name: str, counters: dict, spanned: bool):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts = tracer.counts[tracer.op]
            if spanned:
                stack = tracer._stack()
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op])
                stack.append(index)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    tracer.spans[index][1] = start
                    tracer.spans[index][2] = end
            else:
                result = original(*args, **kwargs)
            counts[f"{name}.calls"] += 1
            for stat, measure in counters.items():
                counts[f"{name}.{stat}"] += measure(args, kwargs)
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_times(self) -> dict:
        """op -> "<layer>.self_s" / "<layer>.total_s" -> summed seconds.

        Self time is a span's duration minus the durations of its child
        spans; total time includes them.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            out[op][f"{name}.self_s"] += (end - start) - child[i]
            out[op][f"{name}.total_s"] += end - start
        return out

    def root_time(self, op) -> float:
        """Wall time covered by the outermost spans of one op."""
        return sum(end - start for name, start, end, parent, o in self.spans if o == op and parent < 0)

    def per_op_median(self, ops: list, stats: list[str]) -> dict:
        """Median over ``ops`` of each stat; a stat an op never recorded is 0."""
        times = self.span_times()
        out = {}
        for stat in stats:
            source = times if stat.endswith("_s") else self.counts
            values = [float(source[op].get(stat, 0)) if op in source else 0.0 for op in ops]
            out[stat] = statistics.median(values) if values else 0.0
        return out

    def write(self, path: Path) -> None:
        """Write every span as CSV: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["index,name,start_s,end_s,parent,op"]
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            lines.append(f"{i},{name},{start!r},{end!r},{parent},{op}")
        path.write_text("\n".join(lines) + "\n")
