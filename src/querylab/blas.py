"""Run a block of code with the loaded OpenBLAS at one thread.

The BLAS thread count changes how OpenBLAS splits its products, and with it
the last bits of their results. ``experiments._map_cells`` runs every unit of
work inside the pin, which makes the output independent of the BLAS thread
count (``OPENBLAS_NUM_THREADS`` or the library's default).

The library is looked up among the shared objects already mapped into the
process (numpy loads it on import) and driven through ``ctypes``; the pin
reads and sets no environment variable. Where no OpenBLAS is found, for
example on a platform without ``/proc/self/maps`` or with a numpy built
against another BLAS, the pin does nothing.

``one_thread_at_load`` is the one environment setting: the CLI entry point
(``querylab.__main__``) calls it before numpy loads, so OpenBLAS starts no
worker threads that the pin would only leave idle. It saves CPU time, not
bytes.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager

__all__ = ["one_blas_thread", "one_thread_at_load"]

# (get, set) symbol pairs: the OpenBLAS bundled in numpy wheels, then a plain build.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _mapped_openblas() -> list:
    """Paths of the mapped shared objects whose file name mentions openblas."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        # address perms offset dev inode [path]; the path may contain spaces
        fields = line.split(maxsplit=5)
        if len(fields) == 6:
            path = fields[5].strip()
            if "openblas" in os.path.basename(path).lower() and path not in paths:
                paths.append(path)
    return paths


@functools.lru_cache(maxsize=1)
def _controls():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS at one thread; the previous count is restored on exit.

    The count is restored also when the body raises.
    """
    controls = _controls()
    if controls is None:
        yield
        return
    get, put = controls
    saved = get()
    put(1)
    try:
        yield
    finally:
        put(saved)


def one_thread_at_load() -> None:
    """Have OpenBLAS load with one thread unless ``OPENBLAS_NUM_THREADS`` is set.

    OpenBLAS reads the variable once, when numpy loads it, so the call takes
    effect only before numpy is imported. OpenBLAS then starts no worker
    threads, whose busy-wait before they sleep costs CPU time on every run. A value the
    user has already set is kept, and ``one_blas_thread`` still pins every unit
    to one thread, so that value cannot move a byte either. This module imports
    no numpy, so calling it first is safe.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
