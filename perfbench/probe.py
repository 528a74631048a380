"""Short child processes of the benchmark.

``probe.py setup CONFIG`` imports ``querylab.cli`` and loads CONFIG, and
prints the two times; its wall time seen from the parent is the set-up time.
``probe.py facts`` prints the machine and thread facts the results record.
"""

from __future__ import annotations

import json
import sys
import time


def setup(config_path: str) -> dict:
    t0 = time.perf_counter()
    import querylab.cli  # noqa: F401
    t1 = time.perf_counter()
    from querylab.config import load_config
    load_config(config_path)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "load_config_s": t2 - t1}


def _blas_threads():
    """Thread count of the BLAS bundled with numpy, or None if it cannot be read."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def facts() -> dict:
    import platform

    import numpy

    import querylab

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "querylab_file": querylab.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


if __name__ == "__main__":
    result = setup(sys.argv[2]) if sys.argv[1] == "setup" else facts()
    print(json.dumps(result))
