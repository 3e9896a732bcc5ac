"""Record of the machine and libraries a benchmark run measured on."""

from __future__ import annotations

import ctypes
import os
import platform
import re
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Size of each cache level of cpu0, as the kernel reports it."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return {k: sizes[k] for k in ("L2", "L3") if k in sizes}


def _blas() -> dict:
    """Name, version and thread count of the BLAS numpy loaded."""
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name", "unknown")
        info["version"] = blas.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                return info
    return info


def environment(workers: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "harness_workers": workers,
    }


def differences(a: dict, b: dict) -> list[str]:
    """Keys whose values differ between two environment records."""
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
