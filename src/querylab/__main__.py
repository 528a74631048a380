import os

# OpenBLAS reads this once, when numpy loads it, so it is set before cli imports numpy.
# One thread at load starts no idle busy-waiting workers: it saves CPU time, not bytes,
# since the pin in experiments._map_cells holds every unit at one thread anyway.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
