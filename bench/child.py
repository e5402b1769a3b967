"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED T0 SPANS_PATH

T0 is the parent's ``time.monotonic()`` just before it started this process
(CLOCK_MONOTONIC is shared by all processes on Linux), so ``setup_s`` covers
interpreter start, the imports and any work done when a module loads.  The
last line of standard output is one JSON object with the repetition's
measurements.  Unless SPANS_PATH is "-", the calls are traced and the spans
written to SPANS_PATH.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    found = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    names = [f"{prefix}get_num_threads{suffix}"
             for prefix in ("scipy_openblas_", "openblas_") for suffix in ("64_", "")]
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        fn = next((getattr(lib, n) for n in names if hasattr(lib, n)), None)
        if fn is not None:
            fn.restype = ctypes.c_int
            found[os.path.basename(path)] = fn()
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    workload, seed, t0, spans_path = argv
    sys.path.insert(0, str(SRC))
    import cohgeom
    import cohgeom.cli  # noqa: F401  (every module is loaded before tracing)

    if Path(cohgeom.__file__).resolve().parent != SRC / "cohgeom":
        print(f"cohgeom imported from {cohgeom.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload]
    ops = wl.plan(int(seed))
    recorder = spans.Recorder().install() if spans_path != "-" else None

    setup_s = time.monotonic() - float(t0)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    results = wl.run(ops)
    wall_s = time.perf_counter() - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    if recorder is not None:
        recorder.uninstall()
        recorder.write(spans_path)
    failed, problems, digest = wl.check(ops, results)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "digest": digest,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
