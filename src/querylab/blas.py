"""Run a block of code with numpy's OpenBLAS at one thread.

The BLAS thread count changes how OpenBLAS splits its products, and with it
the last bits of their results. ``experiments._map_cells`` runs every unit of
work inside the pin, which makes the output independent of the BLAS thread
count (``OPENBLAS_NUM_THREADS`` or the library's default).

The thread-count functions are looked up through a ``ctypes`` handle on
numpy's linear-algebra extension: a lookup through a handle also searches the
libraries that module links, so the pin drives exactly the BLAS that numpy
calls, whatever other OpenBLAS (scipy's, say) is loaded too. It reads and sets
no environment variable. Where numpy links another BLAS, or the platform's
lookup does not search linked libraries (Windows), the pin does nothing.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

from numpy.linalg import _umath_linalg

__all__ = ["one_blas_thread"]

# (get, set) symbol pairs: the OpenBLAS bundled in numpy wheels, then a plain build.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=1)
def _controls():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
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
