"""Run one fermirep CLI invocation the way ``python -m fermirep.cli.main`` does.

Usage: python3 perfbench/child.py RECORD AS_LIMIT_BYTES TRACE(0|1|2) ENV(0|1) -- CLI ARGS...

The imports are the ones ``-m`` performs; the only additions are an
address-space limit on this process, a timestamp taken on entry to
``fermirep.cli.main.main`` (written to RECORD as JSON), and, with TRACE=1,
the span tracer from ``tracer.py`` (TRACE=2: spans plus tracemalloc).
With ENV=1 the record also carries the library versions, BLAS and mode
cap this process sees.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    from fermirep import fock

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "mode_cap": fock.mode_capacity(),
    }


def run(record_path: str, as_limit: int, trace: int, env: bool, argv: list[str]) -> int:
    resource.setrlimit(resource.RLIMIT_AS, (as_limit, as_limit))
    import fermirep.cli.main as cli

    entry = time.monotonic()
    record: dict = {"entry": entry}
    if not trace:
        rc = cli.main(argv)
    else:
        import tracemalloc

        from tracer import Tracer

        tracer = Tracer(memory=trace == 2)
        tracer.install()
        if tracer.memory:
            tracemalloc.start()
        try:
            rc = cli.main(argv)
        finally:
            tracemalloc.stop()
        record["trace"] = tracer.flush(record_path + ".spans.npz", record_path)
    if env:
        record["env"] = _environment()
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    record_path, as_limit, trace, env, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: child.py RECORD AS_LIMIT TRACE ENV -- CLI ARGS...")
    sys.exit(run(record_path, int(as_limit), int(trace), env == "1", cli_args))
