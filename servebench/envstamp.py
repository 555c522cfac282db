"""The environment a run measured on, stamped into its output."""

from __future__ import annotations

import hashlib
import os
import platform
import threading
import time
from pathlib import Path


def l2_cache_kb() -> int:
    """The L2 cache size of CPU 0 in KiB (0 if sysfs does not say)."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "2":
                size = (index / "size").read_text().strip()
                return int(size.rstrip("K")) if size.endswith("K") else int(size) // 1024
        except (OSError, ValueError):
            continue
    return 0


def gil_free_scaling(threads: int = 2, rounds: int = 12) -> float:
    """Throughput of ``threads`` concurrent GIL-free hashers over one.

    ``hashlib`` releases the interpreter lock on large buffers, so this
    is how much parallel speed-up native code can get here, whatever
    the visible CPU count says.
    """
    block = os.urandom(1 << 20)

    def work() -> None:
        for _ in range(rounds):
            hashlib.sha256(block).digest()

    t0 = time.perf_counter()
    work()
    single = time.perf_counter() - t0
    pool = [threading.Thread(target=work) for _ in range(threads)]
    t0 = time.perf_counter()
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    parallel = time.perf_counter() - t0
    return threads * single / parallel


def kernel_backend() -> str:
    """The kernel backend near+far resolves to with no explicit choice.

    ``"builtin"`` when the program has a single kernel and no backend registry.
    """
    try:
        from repro.sssp.backends import resolve_backend
    except ImportError:
        return "builtin"
    return resolve_backend(None).name


def stamp() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "l2_kb": l2_cache_kb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": kernel_backend(),
        "gil_free_scaling": round(gil_free_scaling(), 3),
    }
