from . import blas

blas.one_thread_at_load()  # before cli imports numpy

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
